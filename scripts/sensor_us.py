"""Time one sensor's call, ``assign_cell``, per shape on three point sets.

    python scripts/sensor_us.py [--points N] [--repeat R]

prints, for each shape, the median over the points of the microseconds one
``assign_cell`` call takes, each point's time being its best of R rounds
(default 5) of a timed loop of a few calls, each round timing every set in
turn, on:

* ``random``: N random points (default 4,096, seed ``SEED``), uniform within
  5 r_t of the sink on each axis, which the closed-form rule settles;
* ``vertex``: the vertices of cell (1, 1, -1), which sit on cell
  boundaries and go to the exact tie step;
* ``ulp``: those vertices moved by one ulp up and by one ulp down on every
  axis, which the tie step settles too.

The spec is r_t 3.7 m with the sink at (1.25, -0.4, 2.83). The script
times the ``topocell`` of its own checkout (``src`` beside ``scripts``),
so running it in two trees compares them.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from topocell import (  # noqa: E402
    CellShape, LatticeSpec, assign_cell, build_polyhedron, cell_center)

R_T = 3.7
SINK = (1.25, -0.4, 2.83)
CELL = (1, 1, -1)
SEED = 0  # of the random points
CALLS = 4  # calls per timed loop


def point_sets(spec: LatticeSpec, n: int, seed: int) -> dict[str, np.ndarray]:
    """The three point sets of one spec, as (k, 3) float arrays."""
    rng = np.random.default_rng(seed)
    verts = build_polyhedron(spec.shape, cell_center(spec, CELL), spec.circumradius).vertices
    return {"random": np.array(spec.sink) + rng.uniform(-5.0, 5.0, (n, 3)) * R_T,
            "vertex": verts,
            "ulp": np.vstack([np.nextafter(verts, np.inf), np.nextafter(verts, -np.inf)])}


def best_times(spec: LatticeSpec, points: list, best: list) -> None:
    """One round over ``points``, tuples of Python floats: each point's
    ``best`` seconds per ``assign_cell`` call, lowered to this round's time
    of a loop of ``CALLS`` calls where that is lower."""
    clock, calls = time.perf_counter, range(CALLS)
    for i, p in enumerate(points):
        start = clock()
        for _ in calls:
            assign_cell(spec, p)
        best[i] = min(best[i], (clock() - start) / CALLS)


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=4096, help="random points per shape")
    parser.add_argument("--repeat", type=int, default=5, help="timed rounds over every set")
    args = parser.parse_args(argv)
    runs = []  # (shape, spec, points, best times), the sets in the header's order
    for shape in CellShape:
        spec = LatticeSpec(shape, R_T, sink=SINK)
        for pts in point_sets(spec, args.points, SEED).values():
            points = list(map(tuple, pts.tolist()))
            runs.append((shape, spec, points, [float("inf")] * len(points)))
    # each round times every set once, so that a burst of load on the host
    # spoils one round of the sets it overlaps, not every sample of a set
    for _ in range(args.repeat):
        for _, spec, points, best in runs:
            best_times(spec, points, best)
    print(f"{'shape':<6} {'random_us':>10} {'vertex_us':>10} {'ulp_us':>10}")
    for shape in CellShape:
        figures = [statistics.median(best) * 1e6 for s, _, _, best in runs if s is shape]
        print(f"{shape.value:<6}" + "".join(f" {us:>10.3f}" for us in figures))


if __name__ == "__main__":
    main(sys.argv[1:])
