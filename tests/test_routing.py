import itertools

import numpy as np
import pytest

from topocell.geometry import CellShape, neighbor_classes
from topocell.lattice import MAX_STEPS, CellId, LatticeSpec, neighbors
from topocell.routing import (
    DEAD_END,
    DELIVERED,
    greedy_route,
    neighbor_choice_count,
)

SPEC = LatticeSpec(CellShape.TO, 1.0)


def metric(a, b):
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2


def half_steps(shape, ids, sign):
    """``ids`` as int64, with sign * floor(v / 2) added to u on HP: sign -1
    turns public ids into basis ids, the axial (u - floor(v/2), v, w), and
    sign 1 back."""
    ids = np.array(ids, dtype=np.int64)
    if shape is CellShape.HP:
        ids[..., 0] += sign * (ids[..., 1] >> 1)
    return ids


def table_neighbors(spec, cid):
    """Neighbor ids by int64 basis-id offsets, derived from the neighbor-class
    generators, in generator order."""
    shape = spec.shape
    offsets = half_steps(shape, [off for cls in neighbor_classes(shape)
                                 for off in cls.offset_generators], -1)
    rows = half_steps(shape, half_steps(shape, cid, -1) + offsets, 1)
    return [CellId(*row) for row in rows.tolist()]


def reference_options(spec, cur, dst, alive):
    """The forwarding options as first written: alive is asked of every
    neighbor, then its metric is compared."""
    bar = metric(cur, dst)
    found = []
    for nb in table_neighbors(spec, cur):
        if alive is not None and not alive(nb):
            continue
        m = metric(nb, dst)
        if m < bar:
            found.append((m, nb))
    return found


def reference_route(spec, src, dst, alive=None, tie_break="lex", seed=None):
    """(hops, outcome) of the greedy loop over ``reference_options``."""
    rng = np.random.default_rng(seed) if tie_break == "random" else None
    cur, dst = CellId(*src), CellId(*dst)
    hops = [cur]
    while cur != dst:
        options = reference_options(spec, cur, dst, alive)
        if not options:
            return hops, DEAD_END
        if rng is not None:
            cur = options[int(rng.integers(len(options)))][1]
        else:
            cur = min(options)[1]
        hops.append(cur)
    return hops, DELIVERED


class Recorder:
    """Alive predicate over a dead set that records every id it is asked of."""

    def __init__(self, dead):
        self.dead = dead
        self.calls = []

    def __call__(self, cid):
        self.calls.append(cid)
        return cid not in self.dead


def dead_grid(seed, base=(0, 0, 0), half=5, frac=0.15):
    """Ids within ``half`` of ``base`` on each axis and a dead subset of them: a
    seeded random ``frac`` and the wall u = base u + 1, which no neighbor
    offset steps over, so routes across it mostly end dead."""
    grid = [CellId(*(b + d for b, d in zip(base, off)))
            for off in itertools.product(range(-half, half + 1), repeat=3)]
    rng = np.random.default_rng(seed)
    dead = {grid[i] for i in rng.choice(len(grid), int(frac * len(grid)), replace=False)}
    dead |= {c for c in grid if c.u == base[0] + 1}
    return [c for c in grid if c not in dead], frozenset(dead)


def distance_field(spec, bound):
    """Graph distance from cell (0, 0, 0) to every id within ``bound`` on each
    axis (-1 where unreached), by breadth-first search restricted to that
    box. The id graph is translation invariant, so the distance from src to
    dst is the field at dst - src."""
    offsets = np.array(neighbors(spec, (0, 0, 0)))
    size = 2 * bound + 1
    dist = -np.ones((size, size, size), dtype=np.int32)
    frontier = np.array([[bound, bound, bound]])
    dist[bound, bound, bound] = 0
    level = 0
    while len(frontier):
        level += 1
        nxt = (frontier[:, None, :] + offsets).reshape(-1, 3)
        nxt = nxt[((nxt >= 0) & (nxt < size)).all(axis=1)]
        idx = np.unique(np.ravel_multi_index(tuple(nxt.T), dist.shape))
        idx = idx[dist.flat[idx] < 0]
        dist.flat[idx] = level
        frontier = np.stack(np.unravel_index(idx, dist.shape), axis=-1)
    return dist


class TestGreedyRoute:
    def test_src_equals_dst(self):
        path = greedy_route(SPEC, (2, 2, 2), (2, 2, 2))
        assert path.outcome == DELIVERED
        assert path.hop_count == 0
        assert path.hops == [CellId(2, 2, 2)]

    def test_straight_w_route_delivers_with_monotone_metric(self):
        path = greedy_route(SPEC, (0, 0, 0), (0, 0, 5))
        assert path.outcome == DELIVERED
        ms = [metric(h, (0, 0, 5)) for h in path.hops]
        assert all(a > b for a, b in zip(ms, ms[1:]))
        assert ms[-1] == 0

    def test_consecutive_hops_are_neighbors(self):
        path = greedy_route(SPEC, (-3, 4, 1), (5, -2, -4))
        assert path.outcome == DELIVERED
        for a, b in zip(path.hops, path.hops[1:]):
            assert b in neighbors(SPEC, a)

    def test_all_neighbors_dead_is_dead_end(self):
        src = CellId(0, 0, 0)
        dead = set(neighbors(SPEC, src))
        alive = lambda cid: cid not in dead
        path = greedy_route(SPEC, src, (5, 5, 5), alive=alive)
        assert path.outcome == DEAD_END
        assert path.hops == [src]

    def test_dead_src_rejected(self):
        alive = lambda cid: cid != CellId(0, 0, 0)
        with pytest.raises(ValueError):
            greedy_route(SPEC, (0, 0, 0), (1, 1, 1), alive=alive)
        with pytest.raises(ValueError):
            greedy_route(SPEC, (1, 1, 1), (0, 0, 0), alive=alive)

    def test_routes_around_dead_cells(self):
        # kill the direct hex-face neighbor toward the destination
        dead = {CellId(0, 0, 1)}
        alive = lambda cid: cid not in dead
        path = greedy_route(SPEC, (0, 0, 0), (0, 0, 5), alive=alive)
        assert path.outcome == DELIVERED
        assert CellId(0, 0, 1) not in path.hops

    def test_random_tie_break_seeded(self):
        a = greedy_route(SPEC, (0, 0, 0), (6, 6, 0), tie_break="random", seed=5)
        b = greedy_route(SPEC, (0, 0, 0), (6, 6, 0), tie_break="random", seed=5)
        assert a.hops == b.hops
        assert a.outcome == DELIVERED
        ms = [metric(h, (6, 6, 0)) for h in a.hops]
        assert all(x > y for x, y in zip(ms, ms[1:]))

    def test_bad_tie_break(self):
        with pytest.raises(ValueError):
            greedy_route(SPEC, (0, 0, 0), (1, 0, 0), tie_break="nope")

    def test_random_sample_delivers_with_bfs_bound(self):
        bound = 30
        field = distance_field(SPEC, bound)
        rng = np.random.default_rng(31)
        for _ in range(60):
            src = tuple(int(x) for x in rng.integers(-6, 7, 3))
            dst = tuple(int(x) for x in rng.integers(-6, 7, 3))
            path = greedy_route(SPEC, src, dst)
            assert path.outcome == DELIVERED
            d = int(field[tuple(b - a + bound for a, b in zip(src, dst))])
            d = None if d < 0 else d
            assert d is not None
            assert path.hop_count >= d

    def test_endpoints_outside_id_domain_rejected(self):
        edge = MAX_STEPS + 2
        assert greedy_route(SPEC, (edge, -edge, 0), (edge, -edge, 0)).hop_count == 0
        for axis in range(3):
            far = [0, 0, 0]
            far[axis] = (-1) ** axis * (edge + 1)
            with pytest.raises(ValueError, match="within"):
                greedy_route(SPEC, far, (0, 0, 0))
            with pytest.raises(ValueError, match="within"):
                greedy_route(SPEC, (0, 0, 0), far)
            with pytest.raises(ValueError, match="within"):
                neighbor_choice_count(SPEC, far, (0, 0, 0))
            with pytest.raises(ValueError, match="within"):
                neighbor_choice_count(SPEC, (0, 0, 0), far)

    def test_fractional_endpoints_rejected(self):
        # int() read these as cells (0, 0, 0) and (2, 0, 0): "delivered"
        with pytest.raises(ValueError, match="source cell id must be three integers"):
            greedy_route(SPEC, (0.9, 0, 0), (2.2, 0, 0))
        with pytest.raises(ValueError, match="destination cell id must be three integers"):
            greedy_route(SPEC, (0, 0, 0), ("2", "0", "0"))
        with pytest.raises(ValueError, match="current cell id must be three integers"):
            neighbor_choice_count(SPEC, (0.5, 0, 0), (2, 0, 0))
        assert greedy_route(SPEC, np.array([0, 0, 0]), (np.int64(2), 0, 0)).outcome == DELIVERED


class TestNeighborChoiceCount:
    def test_at_destination(self):
        assert neighbor_choice_count(SPEC, (3, 3, 3), (3, 3, 3)) == 0

    def test_enumerated_example(self):
        # direct enumeration of the 14 offsets toward (5,5,0): six qualify
        assert neighbor_choice_count(SPEC, (0, 0, 0), (5, 5, 0)) == 6

    def test_all_dead(self):
        src = CellId(0, 0, 0)
        dead = set(neighbors(SPEC, src))
        alive = lambda cid: cid not in dead
        assert neighbor_choice_count(SPEC, src, (5, 5, 5), alive=alive) == 0

    def test_usually_multiple_choices(self):
        rng = np.random.default_rng(12)
        multi = 0
        for _ in range(50):
            cur = tuple(int(x) for x in rng.integers(-5, 6, 3))
            dst = tuple(int(x) for x in rng.integers(-5, 6, 3))
            if cur == dst:
                continue
            if neighbor_choice_count(SPEC, cur, dst) > 1:
                multi += 1
        assert multi >= 35


# at the origin, and reaching the domain's corner, with negative odd HP rows;
# hops are not checked against the domain, so routes there may step past it
BASES = [(0, 0, 0), (MAX_STEPS - 3, 3 - MAX_STEPS, MAX_STEPS - 3)]


class TestAgainstReference:
    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("shape", list(CellShape))
    def test_routes_match_reference(self, shape, base):
        spec = LatticeSpec(shape, 1.0)
        cells, dead = dead_grid(5, base)
        alive = lambda cid: cid not in dead
        rng = np.random.default_rng(9)
        outcomes = set()
        for _ in range(40):
            src, dst = (cells[i] for i in rng.choice(len(cells), 2, replace=False))
            for tie_break, seed in (("lex", None), ("random", 0), ("random", 17)):
                path = greedy_route(spec, src, dst, alive=alive, tie_break=tie_break,
                                    seed=seed)
                want = reference_route(spec, src, dst, alive, tie_break, seed)
                assert (path.hops, path.outcome) == want
                outcomes.add(path.outcome)
        assert outcomes == {DELIVERED, DEAD_END}

    @pytest.mark.parametrize("shape", list(CellShape))
    def test_alive_asked_only_of_progress(self, shape):
        # the predicate sees the endpoints, then on each hop that computes
        # options exactly the neighbors strictly closer to dst, in table order
        spec = LatticeSpec(shape, 1.0)
        cells, dead = dead_grid(6)
        rng = np.random.default_rng(10)
        for _ in range(40):
            src, dst = (cells[i] for i in rng.choice(len(cells), 2, replace=False))
            alive = Recorder(dead)
            path = greedy_route(spec, src, dst, alive=alive)
            asked = path.hops if path.outcome == DEAD_END else path.hops[:-1]
            want = [src, dst] + [nb for cur in asked for nb in table_neighbors(spec, cur)
                                 if metric(nb, dst) < metric(cur, dst)]
            assert alive.calls == want

    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("shape", list(CellShape))
    def test_choice_count_matches_reference(self, shape, base):
        spec = LatticeSpec(shape, 1.0)
        cells, dead = dead_grid(7, base)
        rng = np.random.default_rng(11)
        for _ in range(100):
            cur, dst = (cells[i] for i in rng.choice(len(cells), 2, replace=False))
            alive = Recorder(dead)
            count = neighbor_choice_count(spec, cur, dst, alive=alive)
            assert count == len(reference_options(spec, cur, dst, lambda c: c not in dead))
            assert all(metric(nb, dst) < metric(cur, dst) for nb in alive.calls)
            assert neighbor_choice_count(spec, cur, dst) == len(
                reference_options(spec, cur, dst, None))
