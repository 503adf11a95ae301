"""Greedy cell-id routing: progress metric, dead ends, and path overhead.

Cell ids double as routing addresses: a packet is forwarded to any alive
neighbor strictly closer to the destination id under the squared integer
metric. This demo traces one route, shows a forced dead end, and measures
how far greedy paths run over the true graph distance (breadth-first
search) on an all-alive lattice.
"""

from collections import deque

import numpy as np

from topocell import CellShape, LatticeSpec, greedy_route, neighbor_choice_count, neighbors

spec = LatticeSpec(CellShape.TO, 1.0)

src, dst = (0, 0, 0), (4, -3, 5)
path = greedy_route(spec, src, dst)
print(f"route {src} -> {dst}: {path.outcome} in {path.hop_count} hops")
for hop in path.hops:
    m = (hop.u - dst[0]) ** 2 + (hop.v - dst[1]) ** 2 + (hop.w - dst[2]) ** 2
    print(f"  {tuple(hop)}   metric {m:3d}   qualifying next hops: "
          f"{neighbor_choice_count(spec, hop, dst)}")

dead = set(neighbors(spec, src))
blocked = greedy_route(spec, src, dst, alive=lambda c: c not in dead)
print(f"\nwith every neighbor of the source dead: {blocked.outcome} at {tuple(blocked.hops[-1])}")


def distance_field(bound):
    """Graph distance from cell (0, 0, 0) to every id within ``bound`` on each
    axis, by one breadth-first search. The id graph is translation invariant,
    so the distance from a to b is the field's value at b - a."""
    dist = {(0, 0, 0): 0}
    dq = deque([(0, 0, 0)])
    while dq:
        cur = dq.popleft()
        for nb in neighbors(spec, cur):
            t = tuple(nb)
            if t not in dist and all(abs(x) <= bound for x in t):
                dist[t] = dist[cur] + 1
                dq.append(t)
    return dist


# pairs within +-7 differ by at most 14 per axis; on those differences a
# field of +-18 equals one of +-30, so the box cuts no shortest path
field = distance_field(18)
rng = np.random.default_rng(1)
gaps = []
for _ in range(300):
    a = tuple(int(x) for x in rng.integers(-7, 8, 3))
    b = tuple(int(x) for x in rng.integers(-7, 8, 3))
    p = greedy_route(spec, a, b)
    assert p.outcome == "delivered"
    gaps.append(p.hop_count - field[tuple(y - x for x, y in zip(a, b))])

gaps = np.array(gaps)
print(f"\n300 random pairs, all delivered; hop overhead over graph distance:")
for g in sorted(set(gaps)):
    print(f"  +{g} hops: {np.sum(gaps == g):3d} routes")
print(f"mean overhead {gaps.mean():.2f} hops")
