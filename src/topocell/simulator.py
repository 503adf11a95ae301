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

Both experiments score ``lattice._CHUNK`` points at a time, the 8,192-row
block of the lattice's block driver, so a block's arrays stay in cache.
PCG64 gives the same doubles in one call or in many, so the blocks are the
rows of the one whole-array draw, and the results do not depend on the
block size. The accuracy run streams: it draws every block into one
reused (rows, 3) buffer and never holds an (n, 3) array, so its peak
memory does not grow with n. A deployment of at most ``_KEPT_ROWS`` nodes
(2^18) is drawn whole, once, and kept after the call, 24 B per node, so
the four shapes of one deployment, or ``deploy`` and a lifetime run, draw
it once (``_deployment``); the lifetime run reads its blocks from that
draw, and a larger deployment streams as the accuracy run does, keeping
nothing. Both runs keep each block as (3, rows) columns, one per axis,
from the draw to the tally or count. The accuracy run forms its points
from the draw in one transposing multiply into a buffer of its own and
two contiguous adds, the scalar -half and the sink's column, and runs the
block driver's p - sink step (``lattice._relative``) on them. The
lifetime run forms no node: the decoder's input, t / P =
(p - sink) / divisor, is one transposing multiply of the draw by
span / divisor and one contiguous add of (lo - sink) / divisor, into a
second buffer, decoded with a tie tolerance of 4 ``rule.tol``; the
domain is checked once per call, before any draw, on the box's first and
last node, so a box whose nodes may lie past it is refused whatever the
seed, and a tie rebuilds its node from its draw row. Neither calls a
bulk assigner: each hands its blocks to the lattice's scorers, with
buffers, the decoder's constants and scratch (``lattice._work``) and the
accuracy run's oracle candidate table (``lattice._oracle_table``), made
once per call.

The accuracy experiment scores a block in one pass (``_tally``): the
decoder only reads p - sink, and the shortcut, which then divides it by
scale in place, rounds that quotient to the oracle's base too, so the
oracle shares the block's quotient and rounding, scoring its candidates
from them in float32, but not the decoder's ids. Each block's
correct rows add to two integer counters; the oracle's id of a point does
not depend on the other points of its call. The lifetime simulation forms
no ids: the decoder gives each node its lattice point y, whose slot in a
grid that holds every node's lattice point is one product of y with the
grid's strides, and the counts are the grid's block of interior cells
(``_interior_counts``). It makes no centers, and sorts only when the box
holds few nodes for its size. Only ``deploy`` returns whole arrays.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .geometry import _EXTENTS, CellShape, _count, _Frozen, _positive, _rows, _seed, as_point
from .lattice import (
    _CHUNK,
    LatticeSpec,
    _decode,
    _lattice_points,
    _nearest_int,
    _oracle_at,
    _oracle_table,
    _relative,
    _work,
    assign_cells,
)


class EmptyRegionError(RuntimeError, ValueError):
    """Raised when no populated interior cell exists in the deployment box.

    A ``ValueError`` too, as a box is a parameter of the run.
    """


class Box(_Frozen):
    """Axis-aligned region given by its min and max corners, in meters."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo, hi):
        lo, hi = as_point(lo, "box corner lo"), as_point(hi, "box corner hi")
        if not (hi > lo).all():
            raise ValueError("box must have positive volume")
        self._set(lo=lo, hi=hi)

    @property
    def side_lengths(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def volume(self) -> float:
        return float(self.side_lengths.prod())

    def contains(self, points) -> np.ndarray:
        """Which of the points, one of shape (3,) or an (n, 3) array, lie in
        the closed box. A coordinate that is not finite, None (which numpy
        reads as NaN) among them, raises ``ValueError``, as in ``as_point``."""
        pts = _rows(points)
        if not (abs(pts) < math.inf).all():
            raise ValueError("point coordinates must be finite")
        return ((pts >= self.lo) & (pts <= self.hi)).all(axis=1)


class DeploymentConfig(_Frozen):
    """Uniform random deployment: region, node count and RNG seed.

    Two configs are equal when they hold the same box and the same numbers.
    """

    __slots__ = _fields = ("box", "node_count", "seed")

    def __init__(self, box: Box, node_count: int, seed: int):
        if not isinstance(box, Box):
            raise ValueError(f"box must be a Box, got {box!r}")
        self._set(box=box, node_count=_count(node_count, "node_count"), seed=_seed(seed))

    def __eq__(self, other):
        if type(other) is not DeploymentConfig:
            return NotImplemented
        return (self.box, self.node_count, self.seed) == (other.box, other.node_count, other.seed)

    def __hash__(self):
        return hash((self.box, self.node_count, self.seed))


class AccuracyReport(NamedTuple):
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


class SimResult(NamedTuple):
    """Aggregate outcome of one lifetime simulation run.

    Until ``network_lifetime`` every populated interior cell fields k
    active nodes, so k * ``cells_populated`` nodes are active per step.
    """

    shape: CellShape
    cells_populated: int
    mean_nodes_per_cell: float
    network_lifetime: int


def _uniform_blocks(seed: int, n: int, rows: int):
    """The doubles of ``default_rng(seed).random((n, 3))`` as consecutive
    blocks of at most ``rows`` rows.

    Every block is drawn into one buffer, so each is valid only until the
    next is drawn, and its caller may scale and shift it in place.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    buf = np.empty((min(rows, n), 3))
    for start in range(0, n, rows):
        yield rng.random(out=buf[:n - start])


# a deployment of at most this many nodes keeps its draw after the call,
# 24 B per node (6 MiB at the bound), for the next call on its seed and n
_KEPT_ROWS = 2 ** 18
# the kept draw, at most one ((seed, n), (n, 3) doubles), out of the list
# while a call reads or draws into it
_kept = []


def _deployment(seed: int, n: int, rows: int):
    """The doubles of a deployment, ``default_rng(seed).random((n, 3))``,
    as consecutive blocks of at most ``rows`` rows.

    While n is at most ``_KEPT_ROWS`` the blocks are read-only views of one
    draw that is kept after the call, so the next call on the same seed and
    n, the other shapes of one deployment or ``deploy`` then
    ``lifetime_simulation``, draws nothing. A call takes the kept draw out
    of ``_kept`` for its duration, draws into its buffer on a miss (into a
    new one for a new n, or when another call holds it) and hands it back
    once its last block is read, so no call reads a buffer that another is
    drawing into. A larger n streams through ``_uniform_blocks`` and keeps
    nothing.
    """
    import numpy as np

    if n > _KEPT_ROWS:
        yield from _uniform_blocks(seed, n, rows)
        return
    try:
        key, buf = _kept.pop()
    except IndexError:
        key, buf = (None, 0), None
    if key != (seed, n):
        buf = buf if key[1] == n else np.empty((n, 3))
        np.random.default_rng(seed).random(out=buf)
    u = buf.view()
    u.flags.writeable = False
    for start in range(0, n, rows):
        yield u[start:start + rows]
    _kept[:] = [((seed, n), buf)]


def deploy(config: DeploymentConfig, spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Scatter nodes uniformly in the box and assign each to its cell.

    Returns the (n, 3) node positions and their (n, 3) integer cell ids:
    lo + u * (hi - lo) for the uniform doubles u of ``default_rng(seed)``
    (``_deployment``, which keeps them for a lifetime run of the same
    deployment), formed as (3, n) columns, one transposing multiply and
    one add.
    """
    import numpy as np

    box, n = config.box, config.node_count
    for u in _deployment(config.seed, n, n):  # one block: the whole draw
        cols = np.multiply(u.T, (box.hi - box.lo)[:, None])
    cols += box.lo[:, None]
    return cols.T, assign_cells(spec, cols.T)


def accuracy_experiment(spec: LatticeSpec, n: int, seed: int) -> AccuracyReport:
    """Score both assignment methods on n random points against the oracle.

    Points are drawn uniformly from a cube of side 10*r_t centered on the
    sink; the correct fraction is a fixed geometric property of the
    tessellation, so the sampling region only matters up to boundary noise.
    They are drawn and scored ``_CHUNK`` at a time (``_tally``).
    """
    import numpy as np

    if spec.shape is not CellShape.TO:
        raise ValueError("the accuracy experiment is defined for the TO lattice")
    n, seed = _count(n, "n"), _seed(seed)
    half, rows = 5.0 * spec.r_t, min(n, _CHUNK)
    cols, buf, work = np.empty((3, rows)), np.empty((3, rows)), _work(spec, rows, spec.rule.tol)
    table, sink = _oracle_table(spec, 3), np.array(spec.sink)[:, None]
    counts = np.zeros(2, dtype=np.int64)  # correct_exact, correct_nearest_int
    # the doubles of spec.sink + rng.uniform(-half, half, (n, 3)), a block at
    # a time, as (3, rows) columns: uniform computes -half + 2 half u, here
    # one transposing multiply of the draw u, then the scalar -half and the
    # sink's column, the operations of _per_axis in the same order
    for u in _uniform_blocks(seed, n, _CHUNK):
        pts = np.multiply(u.T, 2.0 * half, out=cols[:, :len(u)])
        pts += -half
        pts += sink
        counts += _tally(spec, pts.T, buf, work, table)
    return AccuracyReport(n, *counts.tolist())


def _tally(spec: LatticeSpec, p: np.ndarray, buf: np.ndarray, work: list,
           table: _OracleTable) -> tuple[int, int]:
    """Numbers of the TO rows ``p`` (rows, 3) to which ``assign_cells`` and
    ``assign_cells_nearest_int`` give the id of ``assign_cells_oracle``
    (window 3), in one pass over the block's columns, with the call's
    buffers, ``buf`` (3, rows) and the decoder's buffers and scratch
    ``work``, and the oracle's candidate ``table``
    (``lattice._oracle_table``). ``p`` may be any view; the accuracy run
    hands the .T view of its (3, rows) columns, so that every pass reads
    contiguous columns; only the decoder's tie rows and the oracle's
    flagged rows are read as rows of ``p``.

    p - sink is formed once, in ``buf``, and handed to the decoder, which
    only reads it, and then to the shortcut, which divides it by scale in
    place. The shortcut's rounding of the real ids is also the oracle's
    base, the window's middle id, so it is formed once, and the oracle
    scores its candidates from the quotient t = (p - sink) / scale left in
    ``buf``; it does not read the decoder's ids. On TO public ids are basis
    ids, so the three scorers' (3, rows) float columns are compared as
    they are.
    """
    import numpy as np

    rel = _relative(spec, p, buf)
    ids = _decode(spec, p, rel, work)
    base = _nearest_int(spec, p, rel)
    truth = _oracle_at(spec, p, rel, base, table)
    return tuple(int(np.count_nonzero((x == truth).all(axis=0))) for x in (ids, base))


def _span(lo: float, hi: float, sink: float, scale: float) -> tuple[int, int]:
    """First and last integer y with lo <= sink + y * scale <= hi, the center
    coordinate of ``cell_centers``, in float arithmetic; last < first when
    there is none.

    The float center is monotone in y, so each end starts from the ceiling
    or floor of its real-valued estimate and steps while the float center
    says so: correct for any error of the estimate, and at most one step
    inside the domain.
    """
    first, last = math.ceil((lo - sink) / scale), math.floor((hi - sink) / scale)
    while sink + (first - 1) * scale >= lo:
        first -= 1
    while sink + first * scale < lo:
        first += 1
    while sink + (last + 1) * scale <= hi:
        last += 1
    while sink + last * scale > hi:
        last -= 1
    return first, last


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
    import numpy as np

    rule = spec.rule
    # the block driver's domain check, on the box's two corners
    _relative(spec, np.array([box.lo, box.hi]), np.empty((3, 2)))
    # In scaled coordinates y = b @ M.T the centers are diag(P) Z^3 and, if
    # some period P_i is 2, its shift by o = P - 1; on each coset the count
    # is the product over the axes of the number of y = o (mod P) in the
    # axis's span, each axis of a center being sink_i + y_i * scale_i
    spans = [_span(*axis) for axis in zip(box.lo.tolist(), box.hi.tolist(), rule.sink, rule.scale)]
    shifts = [[0, 0, 0]] if max(rule.period) == 1 else [[0, 0, 0], [p - 1 for p in rule.period]]
    return sum(math.prod(max(0, (last - o) // P - (first - o - 1) // P)
                         for (first, last), P, o in zip(spans, rule.period, shift))
               for shift in shifts)


# the dense count's grid, one slot per value of y that a node of the box
# may take, holds at most this many slots per node; a box of sparser nodes
# sorts its interior nodes' slots instead
_SLOTS_PER_NODE = 4


def _grid(spec: LatticeSpec, box: Box) -> tuple[list, list]:
    """The first and last y on each axis (``_span``) of the lifetime run's
    count grid, whose centers lie in [lo - e - scale, hi + e + scale], and
    of its interior cells, whose centers lie in [lo + e, hi - e], e being
    the cell's axis extents (``geometry._EXTENTS``)."""
    *top, L = _EXTENTS[spec.shape]
    axes = list(zip(box.lo.tolist(), box.hi.tolist(), top, spec.rule.sink, spec.rule.scale))
    return ([_span(lo - x * k / L - k, hi + x * k / L + k, o, k) for lo, hi, x, o, k in axes],
            [_span(lo + x * k / L, hi - x * k / L, o, k) for lo, hi, x, o, k in axes])


def _interior_counts(spec: LatticeSpec, config: DeploymentConfig) -> np.ndarray:
    """Node counts of the populated interior cells, in no particular order.

    The nodes are ``deploy``'s, drawn and decoded ``_CHUNK`` at a time to
    their lattice points y, the scaled coordinates y = b @ M.T of their
    basis ids b (``lattice._lattice_points``). A cell is interior when its
    center, sink + y * scale on each axis as ``cell_centers`` computes it,
    lies in [lo + e, hi - e], e being the cell's axis extents: on each axis
    a span of values of y (``_grid``). The count grid holds every value of
    y that a node of the box may take: on each axis the span of the centers
    in [lo - e - scale, hi + e + scale], which holds the interior span. A
    node's slot is one product with the grid's strides, strides @ y - base,
    base the slot product of the grid's first point, and the counts are the
    grid's interior block, 1 (CB), 2 (HP) or 4 (RD, TO) slots per interior
    cell, the others naming no lattice point. Each block stays in
    (3, rows) columns, one per axis, from the draw to the slots.

    The grid holds every node's y. A node p lies in the cell of its
    nearest center, the decoder's y, so on each axis the exact center lies
    within the cell's exact extent of p, and p lies in [lo, hi] up to its
    rounding. As the box lies in the domain, the floats of e, of the center
    sink + y * scale, of the grid's limits and of p are each within
    4u(|sink|inf + reach + 3 scale) of their exact values, u = 2^-53, and
    ``rule.tol`` <= 2^-20 bounds u(|sink|inf + 4 reach) by 2^-21 min(scale):
    together less than 2^-16 scale, far inside the grid's step of margin,
    so y's float center lies within the grid's limits, and ``_span``, as
    the float centers are monotone in y, puts y in the grid's span. On axis
    i the grid holds at most 2 reach / scale_i + 6 values, and the product
    of step / scale_i over the axes is at most 1, so it holds fewer than
    2^61 slots, and every |y| is below 2^20.

    The decoder takes each node's t / P = (p - sink) / divisor straight
    from its draw x, as x (span / divisor) + (lo - sink) / divisor: one
    transposing multiply and one add, with no node, no p - sink and no
    divide. The nodes lie between the box's first and last node, lo and
    the node of the largest draw, so the domain is checked once, on those
    two, before any draw: a box whose nodes may lie past the domain raises
    the ``ValueError`` of ``assign_cells``, whatever the seed. A tie
    rebuilds its node from its draw row in Python floats, the doubles of
    ``deploy``. Inside the domain the fused sums round differently from
    p - sink by less than 4 ``rule.tol``, a bound derived beside
    ``rule.tol``'s in ``LatticeSpec``, so every box decodes with that tol.

    While the grid holds at most ``_SLOTS_PER_NODE`` slots per node, and
    its G slots times the largest |y| of its spans, M, is below 2^53, each
    block adds its nodes into one count per slot, the slot a float product,
    exact: every y lies in the grid, so every product and partial sum of
    strides @ y and of base is an integer of magnitude at most
    (s_0 + s_1 + 1) M < G M, as each axis holds at least two values, and
    the difference, in [0, G), is exact too. Any other box keeps each
    block's interior nodes, those within the interior span on every axis,
    with their grid slots as int64 products, below 2^61, and counts them
    with one sort at the end; a sparse box's nodes mostly fall in distinct
    cells, so merging each block's distinct slots as they come would save
    little. Either way the call's own arrays take O(``_CHUNK`` + min(n,
    slots)) memory; the nodes' draw, 24 B per node, is kept after the call
    for the next on the same deployment while n is at most ``_KEPT_ROWS``,
    and streamed a block at a time above it (``_deployment``).
    """
    import numpy as np

    rule, sink = spec.rule, spec.rule.sink
    # deploy's nodes are lo + x span for the draws x in [0, 1 - 2^-53], so
    # on each axis they lie between lo and the node of the largest draw:
    # the block driver's domain check, on those two, before any draw
    corner, span = config.box.lo.tolist(), (config.box.hi - config.box.lo).tolist()
    last = [x + (1.0 - 2.0 ** -53) * k for x, k in zip(corner, span)]
    _relative(spec, np.array([corner, last]), np.empty((3, 2)))
    grid, inner = _grid(spec, config.box)
    shape = [b - a + 1 for a, b in grid]
    size = math.prod(shape)
    # the dense slots' float products are exact while size max|y| < 2^53
    dense = (size <= _SLOTS_PER_NODE * config.node_count
             and size * max(abs(y) for ends in grid for y in ends) < 2 ** 53)
    strides = np.array([shape[1] * shape[2], shape[2], 1], dtype=float if dense else np.int64)
    # the interior spans and the grid's first point, as (3, 1) columns, and
    # the dense slots' base, the first point's product with the strides
    lower, upper, origin = np.array([*zip(*inner), [a for a, _ in grid]], dtype=float)[:, :, None]
    base = strides @ origin
    counts, kept = np.zeros(shape if dense else 0, dtype=np.int64), []
    # the fused prologue's rounding is within 4 rule.tol (``LatticeSpec``)
    work = _work(spec, min(config.node_count, _CHUNK), 4.0 * rule.tol)
    # t / P = x gain + offset: gain = span / divisor, offset = (lo - sink) / divisor
    gain, offset = np.array([span, np.subtract(corner, sink)])[:, :, None] / work[0]
    for u in _deployment(config.seed, config.node_count, _CHUNK):
        t = work[5][:, :len(u)]  # the decoder's input buffer (``_work``)
        np.multiply(u.T, gain, out=t)  # one transposing multiply and one add
        t += offset
        # a tie rebuilds its node from its draw, the doubles of deploy
        y = _lattice_points(spec, t, work,
                            lambda i: [x + v * k for x, v, k in zip(corner, u[i].tolist(), span)])
        if dense:
            # the slot strides @ y - base and its int64 index, in the spent
            # rows of t, not in a temporary of every block
            slot = np.matmul(strides, y, out=t[0])
            index = np.subtract(slot, base, out=t[1].view(np.int64), casting="unsafe")
            np.add.at(counts.reshape(-1), index, 1)
        else:
            # the interior nodes' grid slots, in int64: the grid may exceed 2^53
            y = y[:, ((y >= lower) & (y <= upper)).all(axis=0)]
            kept.append(strides @ (y - origin).astype(np.int64))
    if not dense:
        return np.unique(np.concatenate(kept), return_counts=True)[1]
    counts = counts[tuple(slice(f - a, l - a + 1) for (a, _), (f, l) in zip(grid, inner))]
    return counts[counts > 0]


def lifetime_simulation(spec: LatticeSpec, config: DeploymentConfig,
                        battery_capacity: float, k: int = 1) -> SimResult:
    """Run the sleep-scheduling drain model and report the network lifetime.

    Lifetime is the number of whole time steps until some populated
    interior cell can no longer field k live nodes. A node survives
    ceil(battery_capacity) active steps (one energy unit per step, dead at
    or below zero); sleeping costs nothing, and cells drain independently.
    The nodes are those of ``deploy``, counted per cell ``_CHUNK`` at a time.
    A box whose first node or node of its largest draw lies more than
    ``MAX_STEPS`` lattice steps from the sink raises, before any draw, the
    ``ValueError`` that ``assign_cells`` raises for such a point.
    """
    capacity, k = _positive(battery_capacity, "battery_capacity"), _count(k, "k")
    counts = _interior_counts(spec, config)
    if len(counts) == 0:
        raise EmptyRegionError("no populated cell lies entirely inside the box")
    # a cell lasts n ceil(capacity) // k steps, k of its n nodes active at a
    # time in a balanced rotation; it grows with n, so the sparsest cell decides
    fewest = int(counts.min())
    lifetime = fewest * math.ceil(capacity) // k if fewest >= k else 0
    return SimResult(
        shape=spec.shape,
        cells_populated=len(counts),
        mean_nodes_per_cell=float(counts.mean()),
        network_lifetime=lifetime,
    )
