import numpy as np
import pytest

from topocell.geometry import CellShape
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
