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

Both experiments stream: they draw and score ``lattice._CHUNK`` points at
a time, the 8,192-row block of the lattice's block driver, and never hold
an (n, 3) array, so their peak memory does not grow with n, and a block's
arrays stay in cache. PCG64 gives the same doubles in one call or in many,
so the blocks are the rows of the one whole-array draw, and the results do
not depend on the block size. Both draw every block into one reused buffer
and scale and shift it there; per-axis constants, the box's sides and
corner and the sink, go one column at a time, which ``geometry._per_axis``
explains. Neither calls a bulk assigner: each runs the block driver's
p - sink step (``lattice._relative``) once per block and hands the result
to the lattice's scorers, with buffers allocated once per call.

The accuracy experiment scores a block in one pass (``_tally``): the
decoder gets a copy of p - sink, and the shortcut's rounding of it is also
the oracle's base, so the oracle shares the block's p - sink and rounding
but not the decoder's ids. Each block's correct rows add to two integer
counters; the oracle's id of a point does not depend on the other points
of its call. The lifetime simulation forms no ids: the decoder gives each
node its lattice point y, and a closed form gives the interior cell, if
any, whose slot counts the node (``_interior_counts``): no centers, and no
sort unless the box holds few nodes for its size. Only ``deploy`` returns
whole arrays.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .geometry import CellShape, _floats, _Frozen, _per_axis, as_point, build_polyhedron
from .lattice import (
    _CHUNK,
    LatticeSpec,
    _decode,
    _lattice_points,
    _nearest_int,
    _oracle_at,
    _relative,
    _work,
    assign_cells,
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
        import numpy as np

        pts = np.atleast_2d(_floats(points))
        return ((pts >= self.lo) & (pts <= self.hi)).all(axis=1)


class DeploymentConfig(_Frozen):
    """Uniform random deployment: region, node count and RNG seed.

    Two configs are equal when they hold the same box and the same numbers.
    """

    __slots__ = _fields = ("box", "node_count", "seed")

    def __init__(self, box: Box, node_count: int, seed: int):
        node_count, seed = _integer(node_count, "node_count"), _seed(seed)
        if node_count < 1:
            raise ValueError("node_count must be at least 1")
        self._set(box=box, node_count=node_count, seed=seed)

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


def _node_blocks(config: DeploymentConfig, rows: int):
    """The deployment's node positions, uniform in the box from
    ``default_rng(seed)``, as consecutive blocks of at most ``rows`` nodes
    that share one buffer.

    Each is lo + u * (hi - lo) for the uniform doubles u, computed in place
    as (u * (hi - lo)) + lo, the same doubles, one column at a time.
    """
    box = config.box
    span = box.hi - box.lo
    return (_per_axis(block, span, box.lo)
            for block in _uniform_blocks(config.seed, config.node_count, rows))


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
    They are drawn and scored ``_CHUNK`` at a time (``_tally``).
    """
    import numpy as np

    if spec.shape is not CellShape.TO:
        raise ValueError("the accuracy experiment is defined for the TO lattice")
    n, seed = _integer(n, "n"), _seed(seed)
    if n < 1:
        raise ValueError("n must be at least 1")
    half = 5.0 * spec.r_t
    rows = min(n, _CHUNK)
    buf, work = np.empty((2, 3, rows)), _work(rows)
    exact = nearest = 0
    # the doubles of spec.sink + rng.uniform(-half, half, (n, 3)), a block at
    # a time: uniform computes -half + 2 half u, and the scalar constants go
    # over the whole block, the sink's per-axis ones column by column
    for pts in _uniform_blocks(seed, n, _CHUNK):
        pts *= 2.0 * half
        pts += -half
        _per_axis(pts, shift=spec.sink)
        block_exact, block_nearest = _tally(spec, pts, buf, work)
        exact += block_exact
        nearest += block_nearest
    return AccuracyReport(n=n, correct_exact=exact, correct_nearest_int=nearest)


def _tally(spec: LatticeSpec, p: np.ndarray, buf: np.ndarray, work: list) -> tuple[int, int]:
    """Numbers of the TO rows ``p`` (rows, 3) to which ``assign_cells`` and
    ``assign_cells_nearest_int`` give the id of ``assign_cells_oracle``
    (window 3), in one pass over the block's columns, with the call's
    buffers: ``buf`` (2, 3, rows) and the decoder's scratch ``work``.

    p - sink is formed once, in ``buf[0]``, and copied to ``buf[1]`` for the
    decoder, which overwrites its input. The shortcut's rounding of the real
    ids is also the oracle's base, the window's middle id, so it is formed
    once; the oracle does not read the decoder's ids. On TO public ids are
    basis ids, so the (3, rows) columns are compared as they are.
    """
    import numpy as np

    rel = _relative(spec, p, buf[0])
    copy = buf[1, :, :len(p)]
    copy[...] = rel
    ids = _decode(spec, p, copy, work)
    base = _nearest_int(spec, p, rel)
    # the oracle's int64 ids as floats, exact, in the spent p - sink
    # columns, so that both comparisons are float64 ones
    truth = rel
    np.copyto(truth, _oracle_at(spec, p, base, window=3))
    return (int(np.count_nonzero((ids == truth).all(axis=0))),
            int(np.count_nonzero((base == truth).all(axis=0))))


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


# the dense count's grid holds at most this many slots per node; a box of
# sparser nodes sorts their slots instead
_SLOTS_PER_NODE = 4


def _interior_counts(spec: LatticeSpec, config: DeploymentConfig) -> np.ndarray:
    """Node counts of the populated interior cells, in no particular order.

    The nodes are ``deploy``'s, drawn and decoded ``_CHUNK`` at a time to
    their lattice points y, the scaled coordinates of
    ``geometry.lattice_basis`` (``lattice._lattice_points``). A cell is
    interior when its center, sink + y * scale on each axis as
    ``cell_centers`` computes it, lies in [lo + e, hi - e], e being the
    cell's axis extents: on each axis a span of d values of y from f
    (``_span``). A node's offsets y - f, each moved to d when outside
    [0, d), name its slot in a grid of d + 1 values per axis, and the slots
    with no offset at d are the interior ones: 1 (CB), 2 (HP) or 4 (RD, TO)
    slots per interior cell, the others naming no lattice point.

    While the grid holds at most ``_SLOTS_PER_NODE`` slots per node, each
    block adds its nodes into one count per slot. A sparser box, with fewer
    nodes than a quarter of its slots, keeps each block's interior slots and
    counts them with one sort at the end; its nodes mostly fall in distinct
    cells, so merging each block's distinct slots as they come would save
    little. Either way the memory is O(``_CHUNK`` + min(n, slots)).
    """
    import numpy as np

    extents = build_polyhedron(spec.shape, (0.0, 0.0, 0.0), spec.circumradius).axis_extents()
    # the limits, clamped to reach + 3 scale of the sink: beyond every center
    # that a point of the domain decodes to, so that the grid, however far
    # the box reaches, holds fewer than 2^61 slots
    far = spec.rule.reach + 3.0 * np.array(spec.rule.scale)
    lo, hi = (np.clip(x, spec.rule.sink - far, spec.rule.sink + far).tolist()
              for x in (config.box.lo + extents, config.box.hi - extents))
    spans = [_span(*axis) for axis in zip(lo, hi, spec.rule.sink, spec.rule.scale)]
    first = np.array(spans, dtype=float)[:, :1]
    dims = [max(0, last - start + 1) for start, last in spans]
    bound = np.array(dims, dtype=np.uint64)[:, None]
    rows = min(config.node_count, _CHUNK)
    buf, work = np.empty((3, rows)), _work(rows)
    dense = math.prod(d + 1 for d in dims) <= _SLOTS_PER_NODE * config.node_count
    counts, kept = np.zeros([d + 1 for d in dims] if dense else 0, dtype=np.int64), []
    for p in _node_blocks(config, rows):
        y = _lattice_points(spec, p, _relative(spec, p, buf), work)
        # the offsets, exact integers, in the spent p - sink buffer; as
        # unsigned integers those outside [0, d) exceed d, and become d
        off = np.subtract(y, first, out=buf.view(np.int64)[:, :len(p)], casting="unsafe")
        np.minimum(off.view(np.uint64), bound, out=off.view(np.uint64))
        # the slot, (off0 (d1 + 1) + off1) (d2 + 1) + off2, in y's spent row 0
        slot = np.multiply(off[0], dims[1] + 1, out=y[0].view(np.int64))
        slot += off[1]
        slot *= dims[2] + 1
        slot += off[2]
        if dense:
            np.add.at(counts.reshape(-1), slot, 1)
        else:
            kept.append(slot[(off.view(np.uint64) < bound).all(axis=0)])
    if not dense:
        return np.unique(np.concatenate(kept), return_counts=True)[1]
    counts = counts[:-1, :-1, :-1]
    return counts[counts > 0]


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
    counts = _interior_counts(spec, config)
    if len(counts) == 0:
        raise EmptyRegionError("no populated cell lies entirely inside the box")
    # a cell lasts n ceil(capacity) // k steps, k of its n nodes active at a
    # time in a balanced rotation; it grows with n, so the sparsest cell decides
    fewest = int(counts.min())
    lifetime = fewest * math.ceil(battery_capacity) // k if fewest >= k else 0
    return SimResult(
        shape=spec.shape,
        cells_populated=len(counts),
        mean_nodes_per_cell=float(counts.mean()),
        network_lifetime=lifetime,
    )
