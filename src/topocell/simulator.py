"""Seeded Monte-Carlo experiments over the cell tessellations.

Three experiment families:

* ``deploy`` scatters sensors uniformly in a box and assigns each its cell,
  returning the positions and cell ids as arrays.
* ``accuracy_experiment`` scores the constant-time assignment and the
  nearest-integer shortcut against exhaustive search (TO lattice).
* ``lifetime_simulation`` runs the sleep-scheduling energy model: in every
  populated interior cell, the k live nodes with the highest battery are
  active and drain one energy unit per unit time step while everyone else
  sleeps at zero cost; a drained node's place is taken by the next richest.
  The network is up while every populated interior cell still has k live
  nodes. Equal initial batteries make the rotation exactly balanced, so the
  per-cell lifetime has the closed form floor(n*ceil(capacity)/k), which is
  what this module computes; the unit test suite cross-checks it against a
  literal step-by-step drain.

Statistics are restricted to interior cells (cells lying entirely inside
the deployment box) so box-boundary truncation does not skew them. All
randomness flows through numpy's default PCG64 generator seeded from the
experiment config, so identical seeds reproduce identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import CellShape, as_point, build_polyhedron
from .lattice import (
    LatticeSpec,
    assign_cells,
    assign_cells_nearest_int,
    assign_cells_oracle,
    cell_centers,
)


class EmptyRegionError(RuntimeError):
    """Raised when no populated interior cell exists in the deployment box."""


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned region given by its min and max corners, in meters."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo, hi = as_point(self.lo, "box corner lo"), as_point(self.hi, "box corner hi")
        if not (hi > lo).all():
            raise ValueError("box must have positive volume")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def side_lengths(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def volume(self) -> float:
        return float(self.side_lengths.prod())

    def contains(self, points) -> np.ndarray:
        import numpy as np

        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return ((pts >= self.lo) & (pts <= self.hi)).all(axis=1)


@dataclass(frozen=True)
class DeploymentConfig:
    """Uniform random deployment: region, node count and RNG seed."""

    box: Box
    node_count: int
    seed: int

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("node_count must be at least 1")
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ValueError("seed must fit an unsigned 64-bit integer")


@dataclass(frozen=True)
class AccuracyReport:
    """Cell-id prediction scores against exhaustive search."""

    n: int
    correct_exact: int
    correct_nearest_int: int

    @property
    def fraction_exact(self) -> float:
        return self.correct_exact / self.n

    @property
    def fraction_nearest_int(self) -> float:
        return self.correct_nearest_int / self.n


@dataclass(frozen=True, eq=False)
class SimResult:
    """Aggregate outcome of one lifetime simulation run.

    Until ``network_lifetime`` every populated interior cell fields k
    active nodes, so k * ``cells_populated`` nodes are active per step.
    """

    shape: CellShape
    cells_populated: int
    mean_nodes_per_cell: float
    network_lifetime: int


def _uniform_points(config: DeploymentConfig) -> np.ndarray:
    import numpy as np

    rng = np.random.default_rng(config.seed)
    span = config.box.hi - config.box.lo
    return config.box.lo + rng.random((config.node_count, 3)) * span


def deploy(config: DeploymentConfig, spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Scatter nodes uniformly in the box and assign each to its cell.

    Returns the (n, 3) node positions and their (n, 3) integer cell ids.
    """
    pts = _uniform_points(config)
    return pts, assign_cells(spec, pts)


def accuracy_experiment(spec: LatticeSpec, n: int, seed: int) -> AccuracyReport:
    """Score both assignment methods on n random points against the oracle.

    Points are drawn uniformly from a cube of side 10*r_t centered on the
    sink; the correct fraction is a fixed geometric property of the
    tessellation, so the sampling region only matters up to boundary noise.
    """
    if spec.shape is not CellShape.TO:
        raise ValueError("the accuracy experiment is defined for the TO lattice")
    if n < 1:
        raise ValueError("n must be at least 1")
    import numpy as np

    rng = np.random.default_rng(seed)
    half = 5.0 * spec.r_t
    pts = spec.sink + rng.uniform(-half, half, size=(n, 3))
    truth = assign_cells_oracle(spec, pts, window=3)
    exact = assign_cells(spec, pts)
    nearest = assign_cells_nearest_int(spec, pts)
    return AccuracyReport(
        n=n,
        correct_exact=int((exact == truth).all(axis=1).sum()),
        correct_nearest_int=int((nearest == truth).all(axis=1).sum()),
    )


def _first(pred, k: int) -> int:
    """Smallest integer j with pred(j), for a predicate false below some
    integer and true from it on: gallops out from the guess k, then bisects."""
    lo, hi, step = k - 1, k, 1
    while pred(lo):
        lo, hi, step = lo - step, lo, 2 * step
    while not pred(hi):
        lo, hi, step = hi, hi + step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if pred(mid) else (mid, hi)
    return hi


def _axis_count(lo: float, hi: float, sink: float, scale: float, period: int,
                shift: int) -> int:
    """Number of integers k with lo <= sink + (period * k + shift) * scale <= hi,
    evaluated in float arithmetic."""
    def center(k):
        return sink + (period * k + shift) * scale
    first = _first(lambda k: center(k) >= lo, math.ceil(((lo - sink) / scale - shift) / period))
    beyond = _first(lambda k: center(k) > hi,
                    math.floor(((hi - sink) / scale - shift) / period) + 1)
    return max(0, beyond - first)


def active_count(spec: LatticeSpec, box: Box) -> int:
    """Number of cells whose center lies in the closed box: the active-node population.

    With one node active per cell, the number of simultaneously active
    nodes in a region equals the number of cells whose center falls in it.
    The centers are those ``cell_centers`` computes, so a box whose faces
    pass through centers counts them exactly as ``Box.contains`` does.
    """
    # In scaled coordinates y = b @ M.T the centers are diag(P) Z^3 and, if
    # some period P_i is 2, its shift by P - 1; on each coset the count is a
    # product of per-axis counts. Axis i of a center is computed as
    # sink_i + y_i * scale_i, monotone in y_i, so each range boundary is
    # settled in that same float arithmetic from its real-valued estimate.
    rule = spec.rule
    shifts = [[0, 0, 0]] if max(rule.period) == 1 else [[0, 0, 0], [p - 1 for p in rule.period]]
    axes = list(zip(box.lo.tolist(), box.hi.tolist(), rule.sink, rule.scale, rule.period))
    return sum(math.prod(_axis_count(*axis, o) for axis, o in zip(axes, shift))
               for shift in shifts)


def _cell_steps(n_nodes: int, unit_charges: int, k: int) -> int:
    """Steps a cell lasts: balanced rotation of k active among n equal nodes."""
    if n_nodes < k:
        return 0
    return (n_nodes * unit_charges) // k


def _cell_counts(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ids in lexicographic order, with the number of rows of each.

    Each id packs into one int64 key relative to the smallest id; the
    lattice domain bound (``lattice.MAX_STEPS``) keeps every key below
    2**61.
    """
    import numpy as np

    lo = ids.min(axis=0)
    dims = tuple(ids.max(axis=0) - lo + 1)
    keys, counts = np.unique(np.ravel_multi_index(tuple((ids - lo).T), dims),
                             return_counts=True)
    return np.stack(np.unravel_index(keys, dims), axis=-1) + lo, counts


def lifetime_simulation(spec: LatticeSpec, config: DeploymentConfig,
                        battery_capacity: float, k: int = 1) -> SimResult:
    """Run the sleep-scheduling drain model and report the network lifetime.

    Lifetime is the number of whole time steps until some populated
    interior cell can no longer field k live nodes. A node survives
    ceil(battery_capacity) active steps (one energy unit per step, dead at
    or below zero); sleeping costs nothing, and cells drain independently.
    """
    if not (math.isfinite(battery_capacity) and battery_capacity > 0):
        raise ValueError("battery_capacity must be positive and finite")
    if k < 1:
        raise ValueError("k must be at least 1")
    cells, counts = _cell_counts(assign_cells(spec, _uniform_points(config)))
    centers = cell_centers(spec, cells)
    extents = build_polyhedron(spec.shape, (0.0, 0.0, 0.0), spec.circumradius).axis_extents()
    interior = (
        (centers >= config.box.lo + extents) & (centers <= config.box.hi - extents)
    ).all(axis=1)
    counts = counts[interior]
    if len(counts) == 0:
        raise EmptyRegionError("no populated cell lies entirely inside the box")
    # a cell's steps grow with its node count, so the sparsest cell decides
    lifetime = _cell_steps(int(counts.min()), math.ceil(battery_capacity), k)
    return SimResult(
        shape=spec.shape,
        cells_populated=len(counts),
        mean_nodes_per_cell=float(counts.mean()),
        network_lifetime=lifetime,
    )
