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

Both experiments stream: they draw, assign and tally ``lattice._CHUNK``
points at a time, the 8,192-row block of the lattice's one block driver,
through which all three bulk assigners run, and never hold an (n, 3)
array, so their peak memory does not grow with n, and a block's arrays
stay in cache. PCG64 gives the same doubles in one call or in many, so the
blocks are the rows of the one whole-array draw, and the results do not
depend on the block size. The accuracy
experiment adds each block's correct rows to two integer counters; the
oracle's id of a point does not depend on the other points of its call.
Both draw every block into one reused buffer. The lifetime simulation
packs each id into an int64 key at the fixed offset ``MAX_STEPS + 2``, so a
key names the same cell in every block, and merges the blocks' distinct
keys and counts into running ones: O(``_CHUNK`` + cells) memory. Only
``deploy`` returns whole arrays.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .geometry import CellShape, as_point, build_polyhedron
from .lattice import (
    _CHUNK,
    MAX_STEPS,
    LatticeSpec,
    _reach_error,
    assign_cells,
    assign_cells_nearest_int,
    assign_cells_oracle,
    cell_centers,
)


class EmptyRegionError(RuntimeError):
    """Raised when no populated interior cell exists in the deployment box."""


def _integer(value, what: str) -> int:
    """``value`` as a Python int: ints and numpy integers pass, anything else
    (a float, even a whole one, a string) raises ``ValueError``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _seed(value) -> int:
    """An experiment seed as a Python int: an integer that fits an unsigned
    64-bit integer, as the CLI's ``--seed <u64>`` documents."""
    seed = _integer(value, "seed")
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must fit an unsigned 64-bit integer")
    return seed


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
        object.__setattr__(self, "node_count", _integer(self.node_count, "node_count"))
        object.__setattr__(self, "seed", _seed(self.seed))
        if self.node_count < 1:
            raise ValueError("node_count must be at least 1")


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


def _uniform_blocks(seed: int, n: int, rows: int, span, lo):
    """n uniform points lo + u * span, u from ``default_rng(seed).random``,
    as consecutive blocks of at most ``rows``.

    Every block is drawn into one buffer, so each is valid only until the
    next is drawn. lo + u * span is computed in place as (u * span) + lo,
    the same doubles; with lo = -h and span = 2h they are also those of
    ``rng.uniform(-h, h)``, which computes -h + 2h * u.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    buf = np.empty((min(rows, n), 3))
    for start in range(0, n, rows):
        block = rng.random(out=buf[:n - start])
        block *= span
        block += lo
        yield block


def _node_blocks(config: DeploymentConfig, rows: int):
    """The deployment's node positions, uniform in the box from
    ``default_rng(seed)``, as consecutive blocks of at most ``rows`` nodes
    that share one buffer."""
    box = config.box
    return _uniform_blocks(config.seed, config.node_count, rows, box.hi - box.lo, box.lo)


def deploy(config: DeploymentConfig, spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Scatter nodes uniformly in the box and assign each to its cell.

    Returns the (n, 3) node positions and their (n, 3) integer cell ids.
    """
    (pts,) = _node_blocks(config, config.node_count)
    return pts, assign_cells(spec, pts)


def accuracy_experiment(spec: LatticeSpec, n: int, seed: int) -> AccuracyReport:
    """Score both assignment methods on n random points against the oracle.

    Points are drawn uniformly from a cube of side 10*r_t centered on the
    sink; the correct fraction is a fixed geometric property of the
    tessellation, so the sampling region only matters up to boundary noise.
    They are drawn and scored ``_CHUNK`` at a time.
    """
    if spec.shape is not CellShape.TO:
        raise ValueError("the accuracy experiment is defined for the TO lattice")
    n, seed = _integer(n, "n"), _seed(seed)
    if n < 1:
        raise ValueError("n must be at least 1")
    half = 5.0 * spec.r_t
    exact = nearest = 0
    # the doubles of spec.sink + rng.uniform(-half, half, (n, 3)), a block at a time
    for pts in _uniform_blocks(seed, n, _CHUNK, 2.0 * half, -half):
        pts += spec.sink
        truth = assign_cells_oracle(spec, pts, window=3)
        exact += _matches(assign_cells(spec, pts), truth)
        nearest += _matches(assign_cells_nearest_int(spec, pts), truth)
    return AccuracyReport(n=n, correct_exact=exact, correct_nearest_int=nearest)


def _matches(ids: np.ndarray, truth: np.ndarray) -> int:
    """Number of rows on which two (n, 3) id arrays agree, compared column
    by column: a reduction along rows of three would cost more than the
    comparisons."""
    import numpy as np

    same = ids[:, 0] == truth[:, 0]
    same &= ids[:, 1] == truth[:, 1]
    same &= ids[:, 2] == truth[:, 2]
    return int(np.count_nonzero(same))


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
    pass through centers counts them exactly as ``Box.contains`` does. A box
    with a corner coordinate more than ``MAX_STEPS`` lattice steps from the
    sink raises the ``ValueError`` that ``assign_cells`` raises for such a
    point.
    """
    rule = spec.rule
    rel = [c - s for corner in (box.lo.tolist(), box.hi.tolist())
           for c, s in zip(corner, rule.sink)]
    if not max(map(abs, rel)) <= rule.reach:
        raise _reach_error(spec)
    # In scaled coordinates y = b @ M.T the centers are diag(P) Z^3 and, if
    # some period P_i is 2, its shift by P - 1; on each coset the count is a
    # product of per-axis counts. Axis i of a center is computed as
    # sink_i + y_i * scale_i, monotone in y_i, so each range boundary is
    # settled in that same float arithmetic from its real-valued estimate.
    shifts = [[0, 0, 0]] if max(rule.period) == 1 else [[0, 0, 0], [p - 1 for p in rule.period]]
    axes = list(zip(box.lo.tolist(), box.hi.tolist(), rule.sink, rule.scale, rule.period))
    return sum(math.prod(_axis_count(*axis, o) for axis, o in zip(axes, shift))
               for shift in shifts)


def _cell_steps(n_nodes: int, unit_charges: int, k: int) -> int:
    """Steps a cell lasts: balanced rotation of k active among n equal nodes."""
    if n_nodes < k:
        return 0
    return (n_nodes * unit_charges) // k


# ids of the domain lie within MAX_STEPS + 2 of zero on each axis, so an id
# plus _OFFSET indexes a cube of shape _DIMS, whose (2**20 + 5)**3 < 2**61
# cells all have int64 keys
_OFFSET = MAX_STEPS + 2
_DIMS = (2 * _OFFSET + 1,) * 3


def _cell_counts(spec: LatticeSpec, config: DeploymentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Distinct cell ids of the deployed nodes in lexicographic order, with
    the number of nodes in each.

    The nodes are ``deploy``'s, drawn and assigned ``_CHUNK`` at a time. Each
    id packs into one int64 key at the fixed offset ``MAX_STEPS + 2``, not
    relative to the block's smallest id, so a key names the same cell in
    every block and keys sort as their ids do. The blocks' distinct keys and
    counts merge into the running ones, which hold one row per cell, once
    they outnumber them: every key is then merged O(log n) times, however
    many cells the nodes fill, and the blocks awaiting their merge hold no
    more rows than the running keys plus one block.
    """
    import numpy as np

    keys = counts = np.empty(0, dtype=np.int64)
    blocks, held = [], 0
    for pts in _node_blocks(config, _CHUNK):
        ids = assign_cells(spec, pts)
        ids += _OFFSET
        blocks.append(np.unique(np.ravel_multi_index(tuple(ids.T), _DIMS), return_counts=True))
        held += len(blocks[-1][0])
        if held > len(keys):
            keys, counts = _merged(keys, counts, blocks)
            blocks, held = [], 0
    keys, counts = _merged(keys, counts, blocks)
    return np.stack(np.unravel_index(keys, _DIMS), axis=-1) - _OFFSET, counts


def _merged(keys: np.ndarray, counts: np.ndarray, blocks: list) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct keys of ``keys`` and of the (keys, counts) pairs of
    ``blocks``, with the counts of each key summed."""
    import numpy as np

    keys, inverse = np.unique(np.concatenate([keys, *(k for k, _ in blocks)]),
                              return_inverse=True)
    tally = np.concatenate([counts, *(c for _, c in blocks)])
    counts = np.zeros(len(keys), dtype=np.int64)
    np.add.at(counts, inverse, tally)
    return keys, counts


def lifetime_simulation(spec: LatticeSpec, config: DeploymentConfig,
                        battery_capacity: float, k: int = 1) -> SimResult:
    """Run the sleep-scheduling drain model and report the network lifetime.

    Lifetime is the number of whole time steps until some populated
    interior cell can no longer field k live nodes. A node survives
    ceil(battery_capacity) active steps (one energy unit per step, dead at
    or below zero); sleeping costs nothing, and cells drain independently.
    The nodes are those of ``deploy``, counted per cell ``_CHUNK`` at a time.
    """
    if not (math.isfinite(battery_capacity) and battery_capacity > 0):
        raise ValueError("battery_capacity must be positive and finite")
    k = _integer(k, "k")
    if k < 1:
        raise ValueError("k must be at least 1")
    cells, counts = _cell_counts(spec, config)
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
