"""Monte-Carlo check of the analytical lifetime ratios.

Deploy the same dense random population under each tessellation, rotate
one active node per populated interior cell until some cell runs dry, and
compare the resulting network lifetimes. With uniform deployment the node
count per cell is proportional to cell volume, so the simulated ratios
should approach the volume ratios from the planning table.
"""

import numpy as np

from topocell import (
    Box,
    CellShape,
    DeploymentConfig,
    LatticeSpec,
    lifetime_fraction,
    lifetime_simulation,
)
from topocell.planner import cell_volume_coeff

side = 1.5  # box side in units of the transmission range
lo = np.array([0.0317, -0.7411, 0.2293]) - side / 2
box = Box(lo=lo, hi=lo + side)
nodes = round(1200 * box.volume / cell_volume_coeff(CellShape.TO))
print(f"box side {side} r_t, {nodes} nodes (about 1200 per TO cell), capacity 8, k=1")

seeds = range(8)
lifetimes = {shape: [] for shape in CellShape}
for seed in seeds:
    cfg = DeploymentConfig(box=box, node_count=nodes, seed=seed)
    for shape in CellShape:
        res = lifetime_simulation(LatticeSpec(shape, 1.0), cfg, battery_capacity=8.0, k=1)
        lifetimes[shape].append(res.network_lifetime)

to_mean = np.mean(lifetimes[CellShape.TO])
print(f"\n{'shape':6s} {'mean lifetime':>14s} {'vs TO (sim)':>12s} {'vs TO (analytic)':>17s}")
for shape in CellShape:
    mean = np.mean(lifetimes[shape])
    print(f"{shape.value:6s} {mean:14.1f} {mean / to_mean:12.4f} {lifetime_fraction(shape):17.5f}")

k = 2
print(f"\nk-coverage variant (k = {k}, every point monitored twice):")
cfg = DeploymentConfig(box=box, node_count=nodes, seed=0)
for shape in (CellShape.TO, CellShape.CB):
    res = lifetime_simulation(LatticeSpec(shape, 1.0), cfg, battery_capacity=8.0, k=k)
    print(f"  {shape.value}: lifetime {res.network_lifetime}, "
          f"{k * res.cells_populated} active nodes per step "
          f"({res.cells_populated} cells x k={k})")
