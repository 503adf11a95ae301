import math
import tracemalloc

import numpy as np
import pytest

from topocell import lattice, simulator
from topocell.geometry import CellShape, build_polyhedron
from topocell.lattice import (
    MAX_STEPS,
    LatticeSpec,
    assign_cell,
    assign_cells,
    assign_cells_nearest_int,
    assign_cells_oracle,
    cell_center,
    cell_centers,
)
from topocell.planner import cell_volume_coeff
from topocell.simulator import (
    AccuracyReport,
    Box,
    DeploymentConfig,
    EmptyRegionError,
    accuracy_experiment,
    active_count,
    deploy,
    lifetime_simulation,
)


def step_drain_oracle(cell_counts, capacity, k):
    """Literal unit-step drain: k highest-battery live nodes active per cell."""
    lifetimes = []
    for n in cell_counts:
        batteries = [float(capacity)] * n
        t = 0
        while True:
            live = [i for i in range(n) if batteries[i] > 0]
            if len(live) < k:
                break
            order = sorted(live, key=lambda i: (-batteries[i], i))
            for i in order[:k]:
                batteries[i] -= 1.0
            t += 1
        lifetimes.append(t)
    return min(lifetimes)


def cb_single_cell_setup(n_nodes, seed=0):
    """A CB cell whose bounding box IS the cell: every node lands in it."""
    spec = LatticeSpec(CellShape.CB, 1.0)
    half = spec.circumradius / math.sqrt(3.0)
    box = Box(lo=(-half, -half, -half), hi=(half, half, half))
    return spec, DeploymentConfig(box=box, node_count=n_nodes, seed=seed)


class TestDeploy:
    def test_deterministic(self):
        spec = LatticeSpec(CellShape.TO, 1.0)
        cfg = DeploymentConfig(box=Box(lo=(0, 0, 0), hi=(3, 3, 3)), node_count=500, seed=99)
        pos_a, ids_a = deploy(cfg, spec)
        pos_b, ids_b = deploy(cfg, spec)
        assert pos_a.shape == ids_a.shape == (500, 3)
        assert ids_a.dtype == np.int64
        assert np.array_equal(pos_a, pos_b)
        assert np.array_equal(ids_a, ids_b)

    def test_single_node_voronoi(self):
        spec = LatticeSpec(CellShape.TO, 1.0)
        cfg = DeploymentConfig(box=Box(lo=(0, 0, 0), hi=(1, 1, 1)), node_count=1, seed=4)
        (position,), (cell,) = deploy(cfg, spec)
        assert tuple(cell) == assign_cell(spec, position)
        d = np.linalg.norm(position - cell_center(spec, cell))
        assert d <= spec.circumradius

    def test_mean_nodes_per_interior_cell(self):
        # mean count over interior cells tracks density * cell volume
        spec = LatticeSpec(CellShape.TO, 1.0)
        box = Box(lo=(-1.3, -1.3, -1.3), hi=(1.3, 1.3, 1.3))
        n = 60_000
        cfg = DeploymentConfig(box=box, node_count=n, seed=123)
        res = lifetime_simulation(spec, cfg, battery_capacity=1.0, k=1)
        expected = n / box.volume * cell_volume_coeff(CellShape.TO)
        sigma = math.sqrt(expected / res.cells_populated)
        assert abs(res.mean_nodes_per_cell - expected) <= 3 * sigma

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            Box(lo=(0, 0, 0), hi=(0, 1, 1))
        with pytest.raises(ValueError):
            DeploymentConfig(box=Box(lo=(0, 0, 0), hi=(1, 1, 1)), node_count=0, seed=1)
        with pytest.raises(ValueError):
            DeploymentConfig(box=Box(lo=(0, 0, 0), hi=(1, 1, 1)), node_count=1, seed=-1)


    @pytest.mark.parametrize("field,value", [("node_count", 10.5), ("node_count", 10.0),
                                             ("node_count", "10"), ("seed", 1.5),
                                             ("seed", None), ("seed", "7")])
    def test_integer_fields(self, field, value):
        args = {"box": Box(lo=(0, 0, 0), hi=(1, 1, 1)), "node_count": 10, "seed": 1, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            DeploymentConfig(**args)

    def test_numpy_integers_pass(self):
        box = Box(lo=(0, 0, 0), hi=(3, 3, 3))
        spec = LatticeSpec(CellShape.TO, 1.0)
        cfg = DeploymentConfig(box=box, node_count=np.int64(500), seed=np.uint64(99))
        assert (type(cfg.node_count), type(cfg.seed)) == (int, int)
        ref = DeploymentConfig(box=box, node_count=500, seed=99)
        for got, want in zip(deploy(cfg, spec), deploy(ref, spec)):
            assert np.array_equal(got, want)


class TestAccuracyExperiment:
    def test_exact_method_is_perfect(self):
        spec = LatticeSpec(CellShape.TO, 1.0)
        rep = accuracy_experiment(spec, 20_000, seed=8)
        assert rep.n == 20_000
        assert rep.correct_exact == 20_000

    def test_nearest_int_fraction_constant(self):
        # Independent rounding of (u, v, w) succeeds exactly on the cell's
        # intersection with the sheared unit box of the id basis; that
        # region has volume 2.5 of the cell's 4 (in lattice-step units),
        # so the correct fraction converges to 5/8 regardless of the spec.
        rep1 = accuracy_experiment(LatticeSpec(CellShape.TO, 1.0), 50_000, seed=10)
        rep2 = accuracy_experiment(
            LatticeSpec(CellShape.TO, 7.3, sink=(11.0, -4.0, 2.5)), 50_000, seed=20)
        for rep in (rep1, rep2):
            assert rep.correct_exact == rep.n
            assert rep.fraction_nearest_int == pytest.approx(0.625, abs=0.01)
        assert abs(rep1.fraction_nearest_int - rep2.fraction_nearest_int) < 0.01

    def test_deterministic(self):
        spec = LatticeSpec(CellShape.TO, 2.0)
        a = accuracy_experiment(spec, 5_000, seed=3)
        b = accuracy_experiment(spec, 5_000, seed=3)
        assert a == b

    def test_only_to(self):
        with pytest.raises(ValueError):
            accuracy_experiment(LatticeSpec(CellShape.RD, 1.0), 10, seed=0)

    def test_integer_arguments(self):
        spec = LatticeSpec(CellShape.TO, 1.0)
        with pytest.raises(ValueError, match="^n must be an integer"):
            accuracy_experiment(spec, 10.5, 1)
        with pytest.raises(ValueError, match="^n must be an integer"):
            accuracy_experiment(spec, 10.0, 1)
        with pytest.raises(ValueError, match="^seed must be an integer"):
            accuracy_experiment(spec, 10, 1.5)
        rep = accuracy_experiment(spec, np.int64(500), np.uint32(3))
        assert rep == accuracy_experiment(spec, 500, 3)
        assert type(rep.n) is int

    @pytest.mark.parametrize("n", [0, -1, np.int64(0)])
    def test_n_must_be_positive(self, n):
        with pytest.raises(ValueError, match="^n must be at least 1$"):
            accuracy_experiment(LatticeSpec(CellShape.TO, 1.0), n, 1)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 99999999999999999999999999])
    def test_seed_must_fit_u64(self, seed):
        # the deployment's seed check, with its message
        spec = LatticeSpec(CellShape.TO, 1.0)
        with pytest.raises(ValueError, match="^seed must fit an unsigned 64-bit integer$"):
            accuracy_experiment(spec, 10, seed)
        with pytest.raises(ValueError, match="^seed must fit an unsigned 64-bit integer$"):
            DeploymentConfig(box=Box(lo=(0, 0, 0), hi=(1, 1, 1)), node_count=10, seed=seed)
        assert accuracy_experiment(spec, 10, 2 ** 64 - 1).n == 10


class TestLifetimeSimulation:
    def test_serial_drain_single_cell(self):
        spec, cfg = cb_single_cell_setup(5)
        res = lifetime_simulation(spec, cfg, battery_capacity=10.0, k=1)
        assert res.cells_populated == 1
        assert res.mean_nodes_per_cell == 5.0
        assert res.network_lifetime == 50

    def test_parallel_drain_single_cell(self):
        spec, cfg = cb_single_cell_setup(5)
        res = lifetime_simulation(spec, cfg, battery_capacity=10.0, k=5)
        assert res.network_lifetime == 10

    def test_matches_step_drain_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            k = int(rng.integers(1, 5))
            capacity = float(rng.choice([1.0, 2.0, 2.5, 4.25, 7.0]))
            spec, cfg = cb_single_cell_setup(n, seed=int(rng.integers(1000)))
            res = lifetime_simulation(spec, cfg, battery_capacity=capacity, k=k)
            assert res.network_lifetime == step_drain_oracle([n], capacity, k)

    @pytest.mark.parametrize("shape", list(CellShape))
    def test_matches_recount_from_oracle_ids(self, shape):
        # many cells: interior filter per node, row-wise unique over oracle
        # ids and the literal drain give the same statistics
        spec = LatticeSpec(shape, 1.0, sink=(0.11, -0.07, 0.23))
        box = Box(lo=(-0.6, -0.5, -0.55), hi=(0.5, 0.6, 0.45))
        cfg = DeploymentConfig(box=box, node_count=3000, seed=4)
        pts, _ = deploy(cfg, spec)
        ids = assign_cells_oracle(spec, pts)
        centers = cell_centers(spec, ids)
        ext = build_polyhedron(shape, (0.0, 0.0, 0.0), spec.circumradius).axis_extents()
        interior = ((centers >= box.lo + ext) & (centers <= box.hi - ext)).all(axis=1)
        _, counts = np.unique(ids[interior], axis=0, return_counts=True)
        res = lifetime_simulation(spec, cfg, battery_capacity=2.5, k=2)
        assert res.cells_populated == len(counts) > 1
        assert res.mean_nodes_per_cell == counts.mean()
        assert res.network_lifetime == step_drain_oracle(counts, 2.5, 2)

    def test_active_counts_are_k_times_cells(self):
        spec = LatticeSpec(CellShape.TO, 1.0)
        box = Box(lo=(-1.0, -1.0, -1.0), hi=(1.0, 1.0, 1.0))
        cfg = DeploymentConfig(box=box, node_count=30_000, seed=6)
        # k active nodes in each of the same populated cells, so k times the
        # cells are active per step; each cell has at least k nodes while the
        # network lives, and the balanced rotation divides the lifetime by k
        single = lifetime_simulation(spec, cfg, battery_capacity=3.0, k=1)
        for k in (1, 2, 3):
            res = lifetime_simulation(spec, cfg, battery_capacity=3.0, k=k)
            assert res.cells_populated == single.cells_populated
            assert res.mean_nodes_per_cell == single.mean_nodes_per_cell
            assert res.network_lifetime == single.network_lifetime // k > 0
            assert k * res.cells_populated <= res.mean_nodes_per_cell * res.cells_populated

    def test_huge_battery_capacity(self):
        # the lifetime is a closed form; nothing may scale with its length
        spec, cfg = cb_single_cell_setup(10)
        res = lifetime_simulation(spec, cfg, battery_capacity=1e15, k=1)
        assert res.cells_populated == 1
        assert res.network_lifetime == 10 ** 16

    def test_lifetime_linear_in_capacity(self):
        spec = LatticeSpec(CellShape.TO, 1.0)
        box = Box(lo=(-1.0, -1.0, -1.0), hi=(1.0, 1.0, 1.0))
        cfg = DeploymentConfig(box=box, node_count=30_000, seed=21)
        life1 = lifetime_simulation(spec, cfg, battery_capacity=5.0, k=1).network_lifetime
        life2 = lifetime_simulation(spec, cfg, battery_capacity=10.0, k=1).network_lifetime
        assert life2 == 2 * life1

    def test_lifetime_tracks_density(self):
        spec = LatticeSpec(CellShape.TO, 1.0)
        box = Box(lo=(-1.0, -1.0, -1.0), hi=(1.0, 1.0, 1.0))
        lives = []
        for n in (30_000, 60_000):
            cfg = DeploymentConfig(box=box, node_count=n, seed=9)
            lives.append(lifetime_simulation(spec, cfg, battery_capacity=4.0, k=1).network_lifetime)
        assert lives[1] == pytest.approx(2 * lives[0], rel=0.25)

    def test_lifetime_at_least_one_battery(self):
        spec = LatticeSpec(CellShape.TO, 1.0)
        box = Box(lo=(-1.0, -1.0, -1.0), hi=(1.0, 1.0, 1.0))
        cfg = DeploymentConfig(box=box, node_count=30_000, seed=2)
        res = lifetime_simulation(spec, cfg, battery_capacity=6.0, k=1)
        assert res.network_lifetime >= 6

    def test_empty_region_error(self):
        spec = LatticeSpec(CellShape.TO, 1.0)
        # box far smaller than a cell, away from any center
        box = Box(lo=(0.05, 0.05, 0.05), hi=(0.08, 0.08, 0.08))
        cfg = DeploymentConfig(box=box, node_count=10, seed=0)
        with pytest.raises(EmptyRegionError):
            lifetime_simulation(spec, cfg, battery_capacity=1.0, k=1)

    def test_validation(self):
        spec, cfg = cb_single_cell_setup(3)
        with pytest.raises(ValueError):
            lifetime_simulation(spec, cfg, battery_capacity=0.0, k=1)
        with pytest.raises(ValueError):
            lifetime_simulation(spec, cfg, battery_capacity=1.0, k=0)
        for k in (1.5, 2.0, "2"):
            with pytest.raises(ValueError, match="^k must be an integer"):
                lifetime_simulation(spec, cfg, battery_capacity=1.0, k=k)
        assert (lifetime_simulation(spec, cfg, battery_capacity=4.0, k=np.int64(2)).network_lifetime
                == lifetime_simulation(spec, cfg, battery_capacity=4.0, k=2).network_lifetime)


def outcome(res):
    """The fields of a SimResult, which compares by identity."""
    return res.shape, res.cells_populated, res.mean_nodes_per_cell, res.network_lifetime


def whole_array_lifetime(spec, cfg, capacity, k):
    """Reference: every node drawn in one call, the cells counted by a
    row-wise unique over all ids."""
    rng = np.random.default_rng(cfg.seed)
    pts = cfg.box.lo + rng.random((cfg.node_count, 3)) * (cfg.box.hi - cfg.box.lo)
    cells, counts = np.unique(assign_cells(spec, pts), axis=0, return_counts=True)
    centers = cell_centers(spec, cells)
    ext = build_polyhedron(spec.shape, (0.0, 0.0, 0.0), spec.circumradius).axis_extents()
    counts = counts[((centers >= cfg.box.lo + ext) & (centers <= cfg.box.hi - ext)).all(axis=1)]
    fewest = int(counts.min())
    lifetime = fewest * math.ceil(capacity) // k if fewest >= k else 0
    return spec.shape, len(counts), float(counts.mean()), lifetime


def whole_array_accuracy(spec, n, seed):
    """Reference: all n points drawn and scored in one call each."""
    rng = np.random.default_rng(seed)
    half = 5.0 * spec.r_t
    pts = spec.sink + rng.uniform(-half, half, size=(n, 3))
    truth = assign_cells_oracle(spec, pts, window=3)
    return AccuracyReport(n, int((assign_cells(spec, pts) == truth).all(axis=1).sum()),
                          int((assign_cells_nearest_int(spec, pts) == truth).all(axis=1).sum()))


class TestStreaming:
    """The experiments draw and tally ``_CHUNK`` rows at a time: their results
    do not depend on the block size, and their memory not on n."""

    CHUNK = 997  # odd; no n below is a multiple of it or of the default

    def small_blocks(self, monkeypatch):
        """The experiments' blocks and the lattice's decoder and oracle
        blocks, all of ``CHUNK`` rows."""
        monkeypatch.setattr(simulator, "_CHUNK", self.CHUNK)
        monkeypatch.setattr(lattice, "_CHUNK", self.CHUNK)

    @pytest.mark.parametrize("shape", list(CellShape))
    def test_lifetime_chunk_invariant(self, shape, monkeypatch):
        spec = LatticeSpec(shape, 1.0, sink=(0.11, -0.07, 0.23))
        box = Box(lo=(-1.1, -0.9, -1.0), hi=(1.0, 1.2, 0.95))
        n = 70_001  # nine default blocks, the last one partial
        cfg = DeploymentConfig(box=box, node_count=n, seed=31)
        # cells straddle the block boundaries: some cell has nodes in the
        # first, the second and the last small block
        ids = deploy(cfg, spec)[1]
        blocks = [set(map(tuple, ids[i:i + self.CHUNK].tolist()))
                  for i in (0, self.CHUNK, n - n % self.CHUNK)]
        assert blocks[0] & blocks[1] & blocks[2]
        default = outcome(lifetime_simulation(spec, cfg, 2.5, 2))
        self.small_blocks(monkeypatch)
        assert outcome(lifetime_simulation(spec, cfg, 2.5, 2)) == default
        assert default == whole_array_lifetime(spec, cfg, 2.5, 2)

    @pytest.mark.parametrize("shape", list(CellShape))
    def test_lifetime_ids_at_the_domain_edge(self, shape, monkeypatch):
        # a box across the whole domain: ids near +-(MAX_STEPS + 2) pack
        # into the same fixed-offset keys in every block
        spec = LatticeSpec(shape, 1.0, sink=(0.11, -0.07, 0.23))
        reach = MAX_STEPS * spec.step * (1 - 1e-9)
        box = Box(lo=np.array(spec.sink) - reach, hi=np.array(spec.sink) + reach)
        cfg = DeploymentConfig(box=box, node_count=5_000, seed=2)
        assert np.abs(deploy(cfg, spec)[1]).max() > MAX_STEPS // 2
        self.small_blocks(monkeypatch)
        assert outcome(lifetime_simulation(spec, cfg, 3.0, 1)) == whole_array_lifetime(spec, cfg,
                                                                                       3.0, 1)

    def test_accuracy_chunk_invariant(self, monkeypatch):
        spec = LatticeSpec(CellShape.TO, 2.0, sink=(11.0, -4.0, 2.5))
        default = accuracy_experiment(spec, 70_001, seed=12)
        self.small_blocks(monkeypatch)
        assert accuracy_experiment(spec, 70_001, seed=12) == default
        assert default == whole_array_accuracy(spec, 70_001, 12)

    def test_accuracy_draws_are_the_uniform_doubles(self, monkeypatch):
        # each block drawn into the reused buffer holds the rows of the one
        # whole-array sink + rng.uniform(-half, half) draw, the short last
        # block included
        spec = LatticeSpec(CellShape.TO, 2.0, sink=(11.0, -4.0, 2.5))
        blocks = []

        def oracle(spec, pts, window):
            blocks.append(pts.copy())
            return assign_cells_oracle(spec, pts, window=window)

        monkeypatch.setattr(simulator, "assign_cells_oracle", oracle)
        self.small_blocks(monkeypatch)
        n = 3 * self.CHUNK + 10
        accuracy_experiment(spec, n, seed=12)
        assert [len(b) for b in blocks] == [self.CHUNK] * 3 + [10]
        want = spec.sink + np.random.default_rng(12).uniform(-10.0, 10.0, (n, 3))
        assert (np.vstack(blocks).view(np.int64) == want.view(np.int64)).all()

    def test_peak_memory_does_not_grow_with_n(self):
        # one bound in terms of the block size, far below the 56 B per node
        # and 168 B per point that whole-array draws of these n hold
        bound = 512 * lattice._CHUNK
        spec = LatticeSpec(CellShape.TO, 1.0)
        cfg = DeploymentConfig(box=Box(lo=(-1.5,) * 3, hi=(1.5,) * 3), node_count=4_000_000,
                               seed=11)
        runs = {"lifetime_simulation n=4e6": lambda: lifetime_simulation(spec, cfg, 3.0),
                "accuracy_experiment n=1e6": lambda: accuracy_experiment(spec, 1_000_000, 5)}
        for name, run in runs.items():
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            print(f"{name}: tracemalloc peak {peak / 2 ** 20:.1f} MiB, "
                  f"bound {bound / 2 ** 20:.0f} MiB")
            assert peak < bound, name


class TestFirst:
    @pytest.mark.parametrize("guess", [-10 ** 9, -5, 41, 42, 43, 10 ** 9])
    def test_finds_the_threshold_from_any_guess(self, guess):
        # guesses far below and far above gallop out, then bisect
        calls = []

        def pred(j):
            calls.append(j)
            return j >= 42

        assert simulator._first(pred, guess) == 42
        assert len(calls) <= 4 * math.log2(abs(guess - 42) + 2)


class TestActiveCount:
    def test_estimate_at_the_finest_step_of_a_far_sink(self, monkeypatch):
        # A CB step of 0.29 m at a sink of x = 1e17 m, where centers are 16 m
        # apart in float, is refused. At x = 1e8 m with about the finest step
        # that the tie bound allows there, 2.35 cm, the per-axis estimates
        # miss the first and the last counted id by at most one, and the
        # count equals that of the centers cell_centers computes, over ids
        # that cover the box with room to spare; a box face passes through
        # the centers of row 0
        with pytest.raises(ValueError, match=r"2\^-20"):
            LatticeSpec(CellShape.CB, 1.0, sink=(1e17, 0.0, 0.0))
        spec = LatticeSpec(CellShape.CB, 0.0815, sink=(1e8, 0.0, 0.0))
        assert spec.rule.tol > 0.9 * lattice.MAX_TOL
        box = Box(lo=(1e8, -0.03, -0.03), hi=(1e8 + 7.0, 0.03, 0.03))
        misses, first = [], simulator._first

        def spy(pred, k):
            j = first(pred, k)
            misses.append(abs(j - k))
            return j

        monkeypatch.setattr(simulator, "_first", spy)
        ks = np.arange(-100, 400)
        ids = np.stack(np.meshgrid(ks, [-2, -1, 0, 1, 2], [-2, -1, 0, 1, 2], indexing="ij"),
                       axis=-1).reshape(-1, 3)
        inside = box.contains(cell_centers(spec, ids))
        assert ks[0] < ids[inside, 0].min() == 0 and ids[inside, 0].max() < ks[-1]
        assert active_count(spec, box) == inside.sum() == 2682
        assert misses and max(misses) <= 1

    def test_box_beyond_the_domain_is_refused(self):
        # ids of a box at x = 1e17 m around the origin sink are near 3.5e17,
        # where they are no longer exact in float: active_count refuses the
        # box, as assign_cells refuses its points, with the same error
        spec = LatticeSpec(CellShape.CB, 1.0)
        box = Box(lo=(1e17, -0.2, -0.2), hi=(1e17 + 300, 0.2, 0.2))
        with pytest.raises(ValueError, match="lattice steps") as refused:
            active_count(spec, box)
        with pytest.raises(ValueError) as error:
            assign_cells(spec, box.lo)
        assert str(refused.value) == str(error.value)
        # the bound is the one of assign_cells on each corner coordinate
        reach = spec.rule.reach
        edge = Box(lo=(-reach, -1.0, -1.0), hi=(reach - 1.0, 1.0, reach))
        assert active_count(spec, edge) > 0
        assert len(assign_cells(spec, [edge.lo, edge.hi])) == 2
        for lo, hi in [((np.nextafter(-reach, -np.inf), -1.0, -1.0), edge.hi),
                       (edge.lo, (reach - 1.0, 1.0, np.nextafter(reach, np.inf)))]:
            with pytest.raises(ValueError, match="lattice steps"):
                active_count(spec, Box(lo=lo, hi=hi))
            with pytest.raises(ValueError, match="lattice steps"):
                assign_cells(spec, [lo, hi])

    def test_tiny_box_around_center(self):
        spec = LatticeSpec(CellShape.TO, 1.0)
        c = cell_center(spec, (2, -1, 3))
        assert active_count(spec, Box(lo=c - 0.05, hi=c + 0.05)) == 1

    def test_fill_large_box(self):
        lo = np.array([0.1234, 0.5678, 0.9012])
        box = Box(lo=lo, hi=lo + 20.0)
        for shape in CellShape:
            spec = LatticeSpec(shape, 1.0)
            fill = active_count(spec, box) * cell_volume_coeff(shape) / box.volume
            assert fill == pytest.approx(1.0, abs=0.02)

    def test_count_ratio_cb_to(self):
        lo = np.array([0.1234, 0.5678, 0.9012])
        box = Box(lo=lo, hi=lo + 30.0)
        cb = active_count(LatticeSpec(CellShape.CB, 1.0), box)
        to = active_count(LatticeSpec(CellShape.TO, 1.0), box)
        assert cb / to == pytest.approx(2.372239, rel=0.02)

    def test_matches_direct_enumeration(self):
        # cross-check the closed form against the centers cell_centers
        # computes, over an id grid that covers every box: the fixed box,
        # random boxes, and boxes whose faces pass through centers, where the
        # count is decided by the float value of each center coordinate
        r = np.arange(-13, 14)
        grid = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
        corners = grid[(np.abs(grid) <= 4).all(axis=1)]
        rng = np.random.default_rng(23)
        for shape in CellShape:
            for r_t, sink in ((1.0, (0.11, -0.07, 0.23)), (0.3, (0.0, 0.0, 0.0)),
                              (3.7, (1.25, -0.4, 2.83)), (17.0, (-40.0, 12.5, 7.125))):
                spec = LatticeSpec(shape, r_t, sink=sink)
                centers = cell_centers(spec, grid)
                boxes = []
                if r_t == 1.0:
                    boxes.append(Box(lo=(-1.05, -0.95, -1.1), hi=(1.02, 1.3, 0.98)))
                for _ in range(10):
                    lo = spec.sink + rng.uniform(-3, 1, 3) * spec.circumradius
                    boxes.append(Box(lo=lo, hi=lo + rng.uniform(0.1, 3, 3) * spec.circumradius))
                # every box corner among the centers of ids within 4 of zero,
                # so every center inside has an id within 13 of zero
                faces = cell_centers(spec, corners[rng.integers(len(corners), size=(60, 2))])
                for lo, hi in zip(faces.min(axis=1), faces.max(axis=1)):
                    if (hi > lo).all():
                        boxes.append(Box(lo=lo, hi=hi))
                assert len(boxes) > 40
                rim = centers[np.abs(grid).max(axis=1) == 13]
                for box in boxes:
                    assert not box.contains(rim).any()  # the grid covers the box
                    assert active_count(spec, box) == box.contains(centers).sum()
