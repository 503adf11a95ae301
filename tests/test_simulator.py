import math
import threading
import tracemalloc
from fractions import Fraction

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
    neighbors,
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


    def test_config_box_must_be_a_box(self):
        with pytest.raises(ValueError, match="^box must be a Box"):
            DeploymentConfig(((0, 0, 0), (1, 1, 1)), 100, 1)

    @pytest.mark.parametrize("rows", [[[0.5], [2.0]], [[0.5, 0.5, 0.5, 0.5]],
                                      [[[0.5, 0.5, 0.5]]], [0.5, 0.5]])
    def test_box_contains_refuses_other_shapes(self, rows):
        box = Box(lo=(0, 0, 0), hi=(1, 1, 1))
        with pytest.raises(ValueError, match=r"^expected points of shape \(n, 3\)"):
            box.contains(np.array(rows))

    def test_box_contains_one_point_or_rows(self):
        box = Box(lo=(0, 0, 0), hi=(1, 1, 1))
        assert box.contains((0.5, 0.5, 1.0)).tolist() == [True]
        assert box.contains([[0.5, 0.5, 0.5], [0.5, 2.0, 0.5]]).tolist() == [True, False]

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

    def test_empty_region_error_is_a_value_error(self):
        # a RuntimeError as before, and a ValueError like every other refused
        # parameter
        assert issubclass(EmptyRegionError, RuntimeError)
        assert issubclass(EmptyRegionError, ValueError)

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


def spy_draws(monkeypatch):
    """The seeds of the generators numpy makes from here on, one per draw,
    with no deployment's draw kept from before (``simulator._kept``); clear
    both before each case, as a kept draw makes none."""
    draws, make = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: draws.append(seed) or make(seed))
    simulator._kept.clear()
    return draws


# an Earth-centred sink, far from the origin: p - sink and the centers round
FAR_SINK = (4.2e6, 1.2e6, 4.7e6)


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
        # a box across the whole domain: ids near +-(MAX_STEPS + 2), and
        # about 2^60 slots, which the run counts by sorting
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
        blocks, tally = [], simulator._tally

        def spy(spec, pts, buf, work, table):
            blocks.append(pts.copy())
            return tally(spec, pts, buf, work, table)

        monkeypatch.setattr(simulator, "_tally", spy)
        self.small_blocks(monkeypatch)
        n = 3 * self.CHUNK + 10
        accuracy_experiment(spec, n, seed=12)
        assert [len(b) for b in blocks] == [self.CHUNK] * 3 + [10]
        want = spec.sink + np.random.default_rng(12).uniform(-10.0, 10.0, (n, 3))
        assert (np.vstack(blocks).view(np.int64) == want.view(np.int64)).all()

    def test_one_oracle_table_per_call(self, monkeypatch):
        # the oracle's table (the shape's candidates and the spec's filter
        # tolerance) is built once per call of assign_cells_oracle and of
        # the accuracy run, not once per block
        spec = LatticeSpec(CellShape.TO, 2.0, sink=(11.0, -4.0, 2.5))
        builds, build = [], lattice._oracle_table

        def spy(spec):
            builds.append(spec)
            return build(spec)

        monkeypatch.setattr(lattice, "_oracle_table", spy)
        monkeypatch.setattr(simulator, "_oracle_table", spy)
        n = 2 * lattice._CHUNK + 1
        pts = spec.sink + np.random.default_rng(3).uniform(-10.0, 10.0, (n, 3))
        assert len(assign_cells_oracle(spec, pts, window=2)) == n
        assert builds == [spec]
        assert accuracy_experiment(spec, n, seed=12).n == n
        assert builds == [spec, spec]

    @pytest.mark.parametrize("n", [1, lattice._CHUNK - 1, lattice._CHUNK, lattice._CHUNK + 1])
    def test_accuracy_at_block_edges(self, n):
        spec = LatticeSpec(CellShape.TO, 0.1, sink=FAR_SINK)
        assert accuracy_experiment(spec, n, seed=4) == whole_array_accuracy(spec, n, 4)

    @staticmethod
    def tallies(spec, pts):
        """``simulator._tally`` over ``pts`` in blocks of ``_CHUNK`` rows
        that share one set of buffers, as the accuracy run's blocks do."""
        rows = lattice._CHUNK
        buf, work = np.empty((3, rows)), lattice._work(spec, rows, spec.rule.tol)
        table = lattice._oracle_table(spec)
        return np.sum([simulator._tally(spec, pts[i:i + rows], buf, work, table)
                       for i in range(0, len(pts), rows)], axis=0).tolist()

    @pytest.mark.parametrize("r_t,sink", [(3.7, (1.25, -0.4, 2.83)), (0.1, FAR_SINK)])
    def test_tallies_on_cell_boundaries(self, r_t, sink, monkeypatch):
        # random draws never fall on a tie; these points do, or an ulp
        # beside one: the centers, vertices and neighbor midpoints of a 5^3
        # block and their +-1-ulp copies. Each tally counts the rows on
        # which the public path it stands for gives the oracle's id
        spec = LatticeSpec(CellShape.TO, r_t, sink=sink)
        grid = np.indices((5, 5, 5)).reshape(3, -1).T - 2
        centers = cell_centers(spec, grid)
        points = np.vstack(
            [centers]
            + [build_polyhedron(spec.shape, c, spec.circumradius).vertices for c in centers]
            + [(c + cell_centers(spec, np.array(neighbors(spec, tuple(cell))))) / 2.0
               for c, cell in zip(centers, grid)])
        pts = np.vstack([points, np.nextafter(points, math.inf), np.nextafter(points, -math.inf)])
        assert len(pts) > lattice._CHUNK
        truth = assign_cells_oracle(spec, pts, window=3)
        exact, nearest = assign_cells(spec, pts), assign_cells_nearest_int(spec, pts)
        count = [int((ids == truth).all(axis=1).sum()) for ids in (exact, nearest)]
        assert self.tallies(spec, pts) == count
        assert 0 < count[1] < count[0] == len(pts)
        # a decoder that errs on the points east of the sink shows in the
        # exact tally alone: the shortcut is scored against the oracle, not
        # against the decoder
        decode = simulator._decode

        def wrong(spec, p, rel, work):
            ids = decode(spec, p, rel, work)
            ids[0, p[:, 0] > spec.sink[0]] += 1.0
            return ids

        monkeypatch.setattr(simulator, "_decode", wrong)
        exact[pts[:, 0] > spec.sink[0], 0] += 1
        assert self.tallies(spec, pts) == [int((exact == truth).all(axis=1).sum()), count[1]]

    def test_lifetime_draws_are_the_uniform_doubles(self, monkeypatch):
        # each block that the lifetime run decodes comes from the rows of the
        # one whole-array lo + u * (hi - lo) draw, the short last block
        # included: the node a tie rebuilds from its draw is that row's
        # doubles, and the block's t / P is within the fused prologue's bound
        # of that row's exact (p - sink) / divisor. The box's three sides
        # differ and so do its corner's coordinates, so a constant taken
        # from the wrong axis or applied in the wrong order changes the
        # doubles, or moves t / P by far more than the bound
        spec = LatticeSpec(CellShape.RD, 1.0, sink=(0.11, -0.07, 0.23))
        box = Box(lo=(-1.1, 0.3, -2.7), hi=(1.0, 1.2, 0.95))
        nodes, quotients, decode = [], [], simulator._lattice_points

        def spy(spec, t, work, point):
            nodes.append([point(i) for i in range(t.shape[1])])
            quotients.append(t.T.copy())
            return decode(spec, t, work, point)

        monkeypatch.setattr(simulator, "_lattice_points", spy)
        self.small_blocks(monkeypatch)
        n = 3 * self.CHUNK + 10
        lifetime_simulation(spec, DeploymentConfig(box=box, node_count=n, seed=21), 2.0)
        assert [len(b) for b in nodes] == [self.CHUNK] * 3 + [10]
        span = box.hi - box.lo
        want = box.lo + np.random.default_rng(21).random((n, 3)) * span
        assert (np.array(sum(nodes, [])).view(np.int64) == want.view(np.int64)).all()
        # the error, in exact rationals, against u (4 span + 3 |lo - sink| + |p|)
        got = np.vstack(quotients)
        divisor, sink = spec.rule.divisor, spec.sink
        worst = 0.0
        for row, p in zip(got.tolist(), want.tolist()):
            for i in range(3):
                err = abs(Fraction(row[i]) * Fraction(divisor[i]) - Fraction(p[i])
                          + Fraction(sink[i]))
                bound = 2.0 ** -53 * (4 * span[i] + 3 * abs(box.lo[i] - sink[i]) + abs(p[i]))
                worst = max(worst, float(err) / bound)
        assert 0.0 < worst <= 1.0

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


# (r_t, sink) pairs with near and far sinks, the Earth-centred one included
BOUNDARY_SPECS = [(1.0, (0.0, 0.0, 0.0)), (3.7, (1.25, -0.4, 2.83)),
                  (0.1, (4.2e6, 1.2e6, 4.7e6)), (1.0, (1e8, 1e8, -1e8))]


def corner_through(limit, extent, sign):
    """A box corner coordinate x whose interior limit x + sign * extent, as
    the float filter computes it, is ``limit``, when some x within a few
    ulps of limit - sign * extent gives it; otherwise the nearest found."""
    x = limit - sign * extent
    for _ in range(8):
        got = x + sign * extent
        if got == limit:
            break
        x = float(np.nextafter(x, math.inf if got < limit else -math.inf))
    return x


def boundary_boxes(spec, count, rng):
    """Boxes whose interior limits lo + e and hi - e each pass through a
    center coordinate sink + y * scale of ``cell_centers``, or one ulp
    beside it, on every axis, with their deployments."""
    ext = build_polyhedron(spec.shape, (0.0, 0.0, 0.0), spec.circumradius).axis_extents()
    volume = cell_volume_coeff(spec.shape) * spec.r_t ** 3
    for _ in range(count):
        lo, hi = [], []
        for sink, scale, e in zip(spec.sink, spec.rule.scale, ext.tolist()):
            y0 = int(rng.integers(-3, 3))
            y1 = y0 + int(rng.integers(1, 4))
            limits = [sink + y * scale for y in (y0, y1)]
            limits = [float(np.nextafter(c, c + k * math.inf)) if k else c
                      for c, k in zip(limits, rng.integers(-1, 2, 2).tolist())]
            lo.append(corner_through(limits[0], e, 1.0))
            hi.append(corner_through(limits[1], e, -1.0))
        box = Box(lo=lo, hi=hi)
        yield DeploymentConfig(box=box, node_count=int(25 * box.volume / volume) + 20,
                               seed=int(rng.integers(2 ** 32)))


def lifetime_or_empty(run, spec, cfg):
    """The outcome of ``run``, or "empty" when no populated cell is
    interior: ``lifetime_simulation`` raises EmptyRegionError, and
    ``whole_array_lifetime`` a ValueError for the minimum of no counts."""
    try:
        res = run(spec, cfg, 3.0, 1)
    except (EmptyRegionError, ValueError) as err:
        assert isinstance(err, EmptyRegionError) or "zero-size" in str(err)
        return "empty"
    return res if isinstance(res, tuple) else outcome(res)


class TestInteriorSlots:
    """The lifetime run counts nodes per interior cell by slots of its
    lattice points, not by their centers: the counts are those of the
    centers' float filter, on either counting path."""

    PATHS = {"dense": math.inf, "sort": 0}  # values of _SLOTS_PER_NODE

    @pytest.mark.parametrize("shape", list(CellShape))
    def test_boundary_boxes_match_the_float_filter(self, shape):
        # 500 boxes per shape whose limits pass through centers or one ulp
        # beside them: a center on a limit is interior, one an ulp outside
        # is not, as the reference's float filter decides
        rng = np.random.default_rng(list(CellShape).index(shape))
        hits = {"on": 0, "beside": 0, "empty": 0}
        for r_t, sink in BOUNDARY_SPECS:
            spec = LatticeSpec(shape, r_t, sink=sink)
            ext = build_polyhedron(shape, (0.0, 0.0, 0.0), spec.circumradius).axis_extents()
            for cfg in boundary_boxes(spec, 125, rng):
                want = lifetime_or_empty(whole_array_lifetime, spec, cfg)
                assert lifetime_or_empty(lifetime_simulation, spec, cfg) == want
                # populated cells that the limits take in or leave out by
                # no more than an ulp
                lo, hi = cfg.box.lo + ext, cfg.box.hi - ext
                centers = cell_centers(spec, np.unique(deploy(cfg, spec)[1], axis=0))
                inside = ((centers >= lo) & (centers <= hi)).all(axis=1)
                within_ulp = ((centers >= np.nextafter(lo, -math.inf))
                              & (centers <= np.nextafter(hi, math.inf))).all(axis=1)
                hits["on"] += (inside & ((centers == lo) | (centers == hi)).any(axis=1)).any()
                hits["beside"] += (within_ulp & ~inside).any()
                hits["empty"] += want == "empty"
        assert hits["on"] > 250 and hits["beside"] > 100 and hits["empty"] < 100, hits

    def outcomes(self, monkeypatch, spec, cfg, paths=PATHS):
        """The outcome of the lifetime run on each counting path, or the
        type and message of the error it raises."""
        got = []
        for factor in paths.values():
            monkeypatch.setattr(simulator, "_SLOTS_PER_NODE", factor)
            try:
                got.append(outcome(lifetime_simulation(spec, cfg, 3.0, 1)))
            except (EmptyRegionError, ValueError) as err:
                got.append((type(err), str(err)))
        return got

    @pytest.mark.parametrize("shape", list(CellShape))
    def test_paths_agree(self, shape, monkeypatch):
        spec = LatticeSpec(shape, 1.0, sink=(0.11, -0.07, 0.23))
        box = Box(lo=(-1.1, -0.9, -1.0), hi=(1.0, 1.2, 0.95))
        cfg = DeploymentConfig(box=box, node_count=70_001, seed=31)
        want = whole_array_lifetime(spec, cfg, 3.0, 1)
        assert self.outcomes(monkeypatch, spec, cfg) == [want, want]
        monkeypatch.setattr(simulator, "_CHUNK", TestStreaming.CHUNK)
        monkeypatch.setattr(lattice, "_CHUNK", TestStreaming.CHUNK)
        assert self.outcomes(monkeypatch, spec, cfg) == [want, want]
        # the box of one cell's extents around the sink at the origin: only
        # that cell, whose center lies on all six limits, is interior
        spec = LatticeSpec(shape, 1.0)
        ext = build_polyhedron(shape, (0.0, 0.0, 0.0), spec.circumradius).axis_extents()
        cfg = DeploymentConfig(box=Box(lo=-ext, hi=ext), node_count=500, seed=3)
        one = self.outcomes(monkeypatch, spec, cfg)
        assert one[0] == one[1] == whole_array_lifetime(spec, cfg, 3.0, 1)
        assert one[0][1] == 1

    @pytest.mark.parametrize("shape", list(CellShape))
    def test_grid_holds_every_node(self, shape, monkeypatch):
        # the dense count takes a node's slot from its lattice point y with
        # no check, so a y outside the grid would alias another slot: every
        # y lies in the run's grid, which holds every y whose exact center
        # lies within e of the box and all but 2^-10 of a step more on each
        # side, its margin for the floats' rounding
        runs, grid, decode = [], simulator._grid, simulator._lattice_points
        monkeypatch.setattr(simulator, "_grid", lambda *a: runs.append((grid(*a), [])) or
                            runs[-1][0])

        def spy(spec, t, work, point):
            y = decode(spec, t, work, point)
            runs[-1][1].append(y.copy())
            return y

        monkeypatch.setattr(simulator, "_lattice_points", spy)
        near = LatticeSpec(shape, 1.0, sink=(0.11, -0.07, 0.23))
        far = LatticeSpec(shape, 0.1, sink=FAR_SINK)
        origin = LatticeSpec(shape, 1.0)
        edge = np.array(near.sink) + near.rule.reach * (1.0 - 1e-9)
        ext = build_polyhedron(shape, (0.0, 0.0, 0.0), origin.circumradius).axis_extents()
        cases = [(origin, Box(lo=(-1.1, -0.9, -1.0), hi=(1.0, 1.2, 0.95)), 20_000),
                 (far, Box(lo=np.array(FAR_SINK) - (0.3, 0.2, 0.25),
                           hi=np.array(FAR_SINK) + (0.35, 0.3, 0.2)), 20_000),
                 (near, Box(lo=edge - (3.0, 2.0, 4.0), hi=edge), 20_000),
                 (origin, Box(lo=-ext, hi=ext), 500)]
        for spec, box, n in cases:
            cfg = DeploymentConfig(box, n, 7)
            runs.clear()
            want = whole_array_lifetime(spec, cfg, 3.0, 1)
            assert self.outcomes(monkeypatch, spec, cfg) == [want, want]
            (ends, _), ys = runs[0][0], np.hstack(runs[0][1])
            assert runs[1][0] == runs[0][0] and (np.hstack(runs[1][1]) == ys).all()
            ext = build_polyhedron(shape, (0.0, 0.0, 0.0), spec.circumradius).axis_extents()
            margin = ext + (1 - 2.0 ** -10) * np.array(spec.rule.scale)
            for axis, (first, last) in enumerate(ends):
                assert first <= ys[axis].min() and ys[axis].max() <= last
                o, k = Fraction(spec.sink[axis]), Fraction(spec.rule.scale[axis])
                e = Fraction(margin[axis])
                assert first <= math.ceil((Fraction(box.lo[axis]) - e - o) / k)
                assert last >= math.floor((Fraction(box.hi[axis]) + e - o) / k)
            # the forced dense path runs, its floats exact
            size = math.prod(last - first + 1 for first, last in ends)
            assert size * np.abs(ends).max() < 2 ** 53

    @pytest.mark.parametrize("shape", list(CellShape))
    def test_whole_domain_box_sorts(self, shape, monkeypatch):
        # about 2^60 slots, which no dense count could hold: the default
        # run, which completes, sorts, as the forced sort does, and both
        # give the reference's outcome
        spec = LatticeSpec(shape, 1.0, sink=(0.11, -0.07, 0.23))
        reach = MAX_STEPS * spec.step * (1 - 1e-9)
        box = Box(lo=np.array(spec.sink) - reach, hi=np.array(spec.sink) + reach)
        cfg = DeploymentConfig(box=box, node_count=5_000, seed=2)
        want = whole_array_lifetime(spec, cfg, 3.0, 1)
        assert outcome(lifetime_simulation(spec, cfg, 3.0, 1)) == want
        assert self.outcomes(monkeypatch, spec, cfg, {"sort": 0}) == [want]

    @pytest.mark.parametrize("shape", list(CellShape))
    def test_whole_domain_slots_are_exact(self, shape, monkeypatch):
        # the whole-domain grid holds about 2^60 slots, where doubles are
        # 2^7 apart: nodes moved into pairs of cells one lattice step apart
        # on the last axis, whose slots differ by at most 2, still count
        # as two cells, as the reference's count of their centers says
        spec = LatticeSpec(shape, 1.0, sink=(0.11, -0.07, 0.23))
        reach = MAX_STEPS * spec.step * (1 - 1e-9)
        box = Box(lo=np.array(spec.sink) - reach, hi=np.array(spec.sink) + reach)
        cfg = DeploymentConfig(box=box, node_count=3_000, seed=2)
        step = np.array([[0.0], [0.0], [spec.rule.period[2]]])
        points, decode = [], simulator._lattice_points

        def pairs(spec, t, work, point):
            y = decode(spec, t, work, point)
            y[:, 1::2] = y[:, :y.shape[1] // 2 * 2:2] + step
            points.append(y.copy())
            return y

        monkeypatch.setattr(simulator, "_lattice_points", pairs)
        monkeypatch.setattr(simulator, "_CHUNK", TestStreaming.CHUNK)
        got = self.outcomes(monkeypatch, spec, cfg, {"sort": 0})
        ys = np.hstack(points).T
        ext = build_polyhedron(shape, (0.0, 0.0, 0.0), spec.circumradius).axis_extents()
        centers = ys * spec.rule.scale + spec.sink
        inside = ((centers >= box.lo + ext) & (centers <= box.hi - ext)).all(axis=1)
        counts = np.unique(ys[inside], axis=0, return_counts=True)[1]
        assert math.prod(np.ptp(ys, axis=0) + 1) > 2 ** 59 and len(counts) > 0.9 * len(ys)
        assert got == [(shape, len(counts), float(counts.mean()), 3 * int(counts.min()))]

    @pytest.mark.parametrize("shape", list(CellShape))
    def test_every_node_through_the_tie_step(self, shape, monkeypatch):
        # a tie tolerance of 0.49 sends nearly every node to the exact tie
        # step, which must give each node the lattice point that the
        # decoder gives it, on either counting path
        spec = LatticeSpec(shape, 1.0, sink=(0.11, -0.07, 0.23))
        ties = LatticeSpec(shape, 1.0, sink=spec.sink)
        object.__setattr__(ties, "rule", spec.rule._replace(
            tol=0.49, half=tuple(0.5 * P - 0.49 for P in spec.rule.period)))
        box = Box(lo=(-1.1, -0.9, -1.0), hi=(1.0, 1.2, 0.95))
        cfg = DeploymentConfig(box=box, node_count=3_000, seed=31)
        points, decode = {}, simulator._lattice_points

        def spy(spec, t, work, point):
            y = decode(spec, t, work, point)
            points.setdefault(spec.rule.tol, []).append(y.copy())
            return y

        monkeypatch.setattr(simulator, "_lattice_points", spy)
        settled, settle = [], lattice._settle
        monkeypatch.setattr(lattice, "_settle", lambda *a: settled.append(1) or settle(*a))
        want = self.outcomes(monkeypatch, spec, cfg)
        assert len(settled) == 0 and want[0] == want[1]
        assert self.outcomes(monkeypatch, ties, cfg) == want
        assert len(settled) > cfg.node_count
        assert len(points) == 2
        for y, z in zip(*points.values()):
            assert (y == z).all()

    @pytest.mark.parametrize("shape", list(CellShape))
    def test_paths_raise_alike(self, shape, monkeypatch):
        # the errors of the float filter's run: no populated interior cell,
        # and a box whose first node or node of its largest draw lies beyond
        # the domain, refused before any draw whatever the seed, with the
        # error that assign_cells raises for such a node
        spec = LatticeSpec(shape, 1.0, sink=(0.11, -0.07, 0.23))
        reach = spec.rule.reach
        sink = np.array(spec.sink)
        empty = (EmptyRegionError, "no populated cell lies entirely inside the box")
        with pytest.raises(ValueError) as error:
            assign_cells(spec, sink + (1.9 * reach, 0.0, 0.0))
        beyond = (ValueError, str(error.value))
        draws = spy_draws(monkeypatch)
        past = (sink - (0.1, 0.0, 0.0), sink + (1.9 * reach, 4.0, 4.0))
        for lo, hi, n, seed, want in [
                ((0.05, 0.05, 0.05), (0.08, 0.08, 0.08), 10, 5, empty),
                (sink + 2 * reach, sink + 3 * reach, 3, 5, beyond),
                ((-1e300, 0.0, 0.0), (1e300, 1.0, 1.0), 3, 5, beyond),
                (*past, 2, 1, beyond),  # the second node is beyond the domain
                (*past, 1, 1, beyond),  # these nodes lie within it, the box not
                (*past, 3, 2, beyond)]:
            cfg = DeploymentConfig(box=Box(lo=lo, hi=hi), node_count=n, seed=seed)
            draws.clear()
            simulator._kept.clear()
            got = self.outcomes(monkeypatch, spec, cfg)
            assert got == [want, want]
            assert (len(draws) == 0) == (want == beyond)
        # the last two boxes' nodes lie within the domain: the run refuses
        # the box, not its nodes
        for n, seed in [(1, 1), (3, 2)]:
            cfg = DeploymentConfig(box=Box(*past), node_count=n, seed=seed)
            assert lifetime_or_empty(whole_array_lifetime, spec, cfg) != beyond


class TestFusedPrologue:
    """The lifetime run forms each node's t / P from its draw, without the
    node, and decodes it at 4 ``rule.tol``: its counts are those of
    ``assign_cells`` on ``deploy``'s nodes for every box inside the domain,
    beside a far sink and at the domain's edge, and a box whose nodes may
    lie past the domain is refused before any draw."""

    @staticmethod
    def run(monkeypatch, spec, cfg):
        """The lifetime run's outcome on both counting paths, checked against
        the reference's, and the tie tolerance it decoded with."""
        tols, work = [], simulator._work
        monkeypatch.setattr(simulator, "_work", lambda spec, rows, tol:
                            tols.append(tol) or work(spec, rows, tol))
        got = TestInteriorSlots().outcomes(monkeypatch, spec, cfg)
        assert got[0] == got[1] == whole_array_lifetime(spec, cfg, 3.0, 1)
        assert len(set(tols)) == 1
        return tols[0]

    @pytest.mark.parametrize("shape", list(CellShape))
    def test_counts_match_assign_cells(self, shape, monkeypatch):
        # beside an Earth-centred sink the rounding of deploy's nodes, some
        # 2^-31 m, exceeds the budget of rel and the quotient, 2u reach
        spec = LatticeSpec(shape, 0.1, sink=FAR_SINK)
        sink = np.array(spec.sink)
        box = Box(lo=sink - (0.3, 0.2, 0.25), hi=sink + (0.35, 0.3, 0.2))
        assert self.run(monkeypatch, spec, DeploymentConfig(box, 20_000, 7)) == 4 * spec.rule.tol
        # near the sink
        spec = LatticeSpec(shape, 1.0, sink=(0.11, -0.07, 0.23))
        sink, reach = np.array(spec.sink), spec.rule.reach
        box = Box(lo=(-1.1, -0.9, -1.0), hi=(1.0, 1.2, 0.95))
        assert self.run(monkeypatch, spec, DeploymentConfig(box, 20_000, 7)) == 4 * spec.rule.tol
        # a box at the domain's edge: |lo - sink| and |p| near reach
        edge = sink + reach * (1.0 - 1e-9)
        box = Box(lo=edge - (3.0, 2.0, 4.0), hi=edge)
        assert self.run(monkeypatch, spec, DeploymentConfig(box, 20_000, 7)) == 4 * spec.rule.tol
        # a box 1e-9 m past the domain, far less than one node's share of
        # it: refused before any draw, with the error of assign_cells on its
        # node of the largest draw, whatever the seed
        box = Box(lo=edge - (3.0, 2.0, 4.0), hi=sink + reach + (1e-9, 0.0, 0.0))
        with pytest.raises(ValueError) as error:
            assign_cells(spec, box.lo + (1.0 - 2.0 ** -53) * (box.hi - box.lo))
        draws = spy_draws(monkeypatch)
        for seed in (7, 8):
            with pytest.raises(ValueError) as refused:
                lifetime_simulation(spec, DeploymentConfig(box, 20_000, seed), 3.0)
            assert str(refused.value) == str(error.value)
        assert draws == []


class TestKeptDraw:
    """A deployment of at most ``_KEPT_ROWS`` nodes keeps its draw for the
    next call on its seed and n: a call that reads it gives the result of
    one that draws and of one that streams, on every shape and both
    counting paths; a new seed or n draws anew, a kept block refuses
    writes, a larger n keeps nothing, and threads share the one kept draw
    safely."""

    SINK = (0.11, -0.07, 0.23)
    BOX = Box(lo=(-1.1, -0.9, -1.0), hi=(1.0, 1.2, 0.95))

    @pytest.mark.parametrize("path", list(TestInteriorSlots.PATHS))
    @pytest.mark.parametrize("shape", list(CellShape))
    def test_hit_miss_and_streaming_agree(self, shape, path, monkeypatch):
        spec = LatticeSpec(shape, 1.0, sink=self.SINK)
        cfg = DeploymentConfig(box=self.BOX, node_count=20_001, seed=31)
        monkeypatch.setattr(simulator, "_SLOTS_PER_NODE", TestInteriorSlots.PATHS[path])
        want = whole_array_lifetime(spec, cfg, 3.0, 1)
        draws = spy_draws(monkeypatch)
        got = [outcome(lifetime_simulation(spec, cfg, 3.0)) for _ in range(2)]
        assert draws == [31] and len(simulator._kept) == 1
        # above the bound the same run streams, in blocks of its own draw
        monkeypatch.setattr(simulator, "_KEPT_ROWS", cfg.node_count - 1)
        got.append(outcome(lifetime_simulation(spec, cfg, 3.0)))
        assert got == [want] * 3 and draws == [31, 31]

    def test_new_seed_or_n_redraws(self, monkeypatch):
        spec = LatticeSpec(CellShape.TO, 1.0, sink=self.SINK)
        draws, before = spy_draws(monkeypatch), None
        # n, seed, whether the call draws, whether it keeps the kept buffer:
        # a call on the kept n does, of the kept seed or a new one
        for n, seed, drawn, same in [(9_000, 4, True, False), (9_000, 4, False, True),
                                     (9_000, 5, True, True), (9_001, 5, True, False),
                                     (9_001, 4, True, True), (9_001, 4, False, True)]:
            cfg = DeploymentConfig(box=self.BOX, node_count=n, seed=seed)
            want = whole_array_lifetime(spec, cfg, 3.0, 1)
            draws.clear()
            assert outcome(lifetime_simulation(spec, cfg, 3.0)) == want
            assert draws == ([seed] if drawn else [])
            (key, buf), = simulator._kept
            assert key == (seed, n) and buf.shape == (n, 3)
            assert (buf is before) == same
            before = buf

    def test_deploy_then_lifetime_draws_once(self, monkeypatch):
        spec = LatticeSpec(CellShape.RD, 1.0, sink=self.SINK)
        cfg = DeploymentConfig(box=self.BOX, node_count=12_345, seed=8)
        draws = spy_draws(monkeypatch)
        pos, ids = deploy(cfg, spec)
        res = lifetime_simulation(spec, cfg, 3.0)
        assert draws == [8]
        want = cfg.box.lo + np.random.default_rng(8).random((cfg.node_count, 3)) * (
            cfg.box.hi - cfg.box.lo)
        assert (pos.view(np.int64) == want.view(np.int64)).all()
        assert np.array_equal(ids, assign_cells(spec, want))
        assert outcome(res) == whole_array_lifetime(spec, cfg, 3.0, 1)
        # the positions are the caller's: writing them leaves the kept draw
        pos[:] = 0.0
        draws.clear()
        assert outcome(lifetime_simulation(spec, cfg, 3.0)) == outcome(res)
        assert draws == []

    def test_kept_blocks_refuse_writes(self, monkeypatch):
        spy_draws(monkeypatch)
        for _ in range(2):  # a miss, then a hit
            for block in simulator._deployment(3, 1_000, 300):
                assert not block.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    block[0, 0] = 0.5
        assert len(simulator._kept) == 1

    def test_above_the_bound_keeps_nothing(self, monkeypatch):
        spec = LatticeSpec(CellShape.HP, 1.0, sink=self.SINK)
        box = Box(lo=(-3, -3, -3), hi=(3, 3, 3))
        monkeypatch.setattr(simulator, "_KEPT_ROWS", 500)
        draws = spy_draws(monkeypatch)
        for n, kept in [(501, False), (500, True)]:
            cfg = DeploymentConfig(box=box, node_count=n, seed=6)
            want = whole_array_lifetime(spec, cfg, 3.0, 1)
            pos = box.lo + np.random.default_rng(6).random((n, 3)) * (box.hi - box.lo)
            simulator._kept.clear()
            draws.clear()
            for _ in range(2):
                assert (deploy(cfg, spec)[0] == pos).all()
                assert outcome(lifetime_simulation(spec, cfg, 3.0)) == want
                assert len(simulator._kept) == kept
            # kept, one draw for the four calls; else one per call
            assert len(draws) == (1 if kept else 4)

    def test_threads_match_serial(self):
        # two threads, each on its own seeds, take the one kept draw from
        # each other all the time: each call's result is the serial one
        specs = [LatticeSpec(shape, 1.0, sink=self.SINK) for shape in CellShape]
        cfgs = [[DeploymentConfig(box=self.BOX, node_count=30_000, seed=seed) for seed in seeds]
                for seeds in ((41, 42), (43, 44))]
        serial = {cfg.seed: [outcome(lifetime_simulation(s, cfg, 3.0)) for s in specs]
                  for cfg in sum(cfgs, [])}
        start = threading.Barrier(2)
        got = [[], []]

        def run(i):
            start.wait()
            for _ in range(6):
                for cfg in cfgs[i]:
                    got[i].append((cfg.seed, [outcome(lifetime_simulation(s, cfg, 3.0))
                                              for s in specs]))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert [len(g) for g in got] == [12, 12]
        for seed, results in got[0] + got[1]:
            assert results == serial[seed], seed


class TestActiveCount:
    def test_estimate_at_the_finest_step_of_a_far_sink(self, monkeypatch):
        # A CB step of 0.29 m at a sink of x = 1e17 m, where centers are 16 m
        # apart in float, is refused. At x = 1e8 m with about the finest step
        # that the tie bound allows there for each shape (2.35 cm for CB),
        # each end of an axis's span is at most one step from its estimate,
        # and the count equals that of the centers cell_centers computes,
        # over ids that cover the box with room to spare; a box face passes
        # through the centers of row 0
        with pytest.raises(ValueError, match=r"2\^-20"):
            LatticeSpec(CellShape.CB, 1.0, sink=(1e17, 0.0, 0.0))
        misses, span = [], simulator._span

        def spy(lo, hi, sink, scale):
            first, last = span(lo, hi, sink, scale)
            misses.extend([abs(first - math.ceil((lo - sink) / scale)),
                           abs(last - math.floor((hi - sink) / scale))])
            return first, last

        monkeypatch.setattr(simulator, "_span", spy)
        ks, rows = np.arange(-100, 400), np.arange(-4, 5)
        ids = np.stack(np.meshgrid(ks, rows, rows, indexing="ij"), axis=-1).reshape(-1, 3)
        for shape, r_t, half, length, count in [
                (CellShape.CB, 0.0815, 0.03, 7.0, 2682), (CellShape.HP, 0.4944, 0.24, 32.0, 1542),
                (CellShape.RD, 0.5284, 0.2, 28.0, 1050), (CellShape.TO, 0.2887, 0.15, 21.0, 1950)]:
            spec = LatticeSpec(shape, r_t, sink=(1e8, 0.0, 0.0))
            assert spec.rule.tol > 0.9 * lattice.MAX_TOL
            box = Box(lo=(1e8, -half, -half), hi=(1e8 + length, half, half))
            centers = cell_centers(spec, ids)
            inside = box.contains(centers)
            assert ks[0] < ids[inside, 0].min() <= 0 and ids[inside, 0].max() < ks[-1]
            assert np.abs(ids[inside, 1:]).max() < rows[-1]
            assert (centers[inside, 0] == box.lo[0]).any()
            misses.clear()
            assert active_count(spec, box) == inside.sum() == count
            assert len(misses) == 6 and max(misses) <= 1

    def test_span_ends_are_those_of_the_float_centers(self):
        # lo and hi on a float center sink + y * scale or one ulp beside it:
        # the span's ends are the first and last y whose center lies in
        # [lo, hi], whether the estimate of an end is one step low, right
        # or one step high; a span with no center has last < first
        rng = np.random.default_rng(5)
        moves = set()
        for _ in range(3000):
            sink, scale = float(rng.uniform(-1e4, 1e4)), float(10 ** rng.uniform(-2, 1))
            y0, y1 = sorted(rng.integers(-1000, 1000, 2).tolist())
            lo, hi = (float(np.nextafter(c, c + k * math.inf)) if k else c
                      for c, k in ((sink + y0 * scale, rng.integers(-1, 2)),
                                   (sink + y1 * scale, rng.integers(-1, 2))))
            first, last = simulator._span(lo, hi, sink, scale)
            ys = [y for y in range(y0 - 3, y1 + 4) if lo <= sink + y * scale <= hi]
            assert (first, last) == (ys[0], ys[-1])
            moves.add((first - math.ceil((lo - sink) / scale),
                       last - math.floor((hi - sink) / scale)))
        assert {first for first, _ in moves} == {last for _, last in moves} == {-1, 0, 1}
        first, last = simulator._span(0.25, 0.75, 0.0, 1.0)
        assert last < first

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
