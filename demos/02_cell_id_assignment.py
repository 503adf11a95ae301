"""Constant-time cell-id assignment versus brute force.

A sensor that knows its own position, the sink position and the
transmission range can name its cell with a handful of arithmetic
operations. TO cell centers form the body-centered cubic lattice: in units
of the step d, the integer points whose coordinates are all even or all
odd. So round the position to the nearest all-even point and to the
nearest all-odd point and keep the nearer one. This demo shows the two
candidates for one point, confirms the rule agrees with exhaustive search
on a large random sample, and exhibits a point where the cheaper
nearest-integer shortcut goes wrong.
"""

import math

import numpy as np

from topocell import (
    CellShape,
    LatticeSpec,
    assign_cell,
    assign_cell_nearest_int,
    assign_cell_oracle,
    assign_cells,
    assign_cells_oracle,
    cell_center,
)

spec = LatticeSpec(CellShape.TO, r_t=math.sqrt(17.0))  # lattice step = 1 m
point = np.array([1.0, 0.2, 0.45])

print(f"sink at {np.array(spec.sink)}, transmission range {spec.r_t:.4f} m")
print(f"sensor at {point}\n")

d = 2.0 * spec.circumradius / math.sqrt(5.0)
t = point / d
even = 2.0 * np.round(t / 2.0)
odd = 2.0 * np.round((t - 1.0) / 2.0) + 1.0
print(f"position in steps: {t}")
print("coset candidates and their distances (in steps):")
for name, c in (("all even", even), ("all odd", odd)):
    X, Y, Z = (int(x) for x in c)
    cid = ((X - Z) // 2, (Y - Z) // 2, Z)  # center = ((2u+w)d, (2v+w)d, wd)
    print(f"  {name:8s} {c} -> cell {cid}  dist {np.linalg.norm(t - c):.4f}")

chosen = assign_cell(spec, point)
print(f"\nchosen cell:        {tuple(chosen)}")
print(f"exhaustive search:  {tuple(assign_cell_oracle(spec, point))}")
print(f"nearest-int method: {tuple(assign_cell_nearest_int(spec, point))}   <- wrong here")

rng = np.random.default_rng(0)
pts = rng.uniform(-8, 8, (50_000, 3))
agree = (assign_cells(spec, pts) == assign_cells_oracle(spec, pts)).all(axis=1).mean()
print(f"\nagreement with exhaustive search on 50k random points: {agree:.1%}")
