"""Integer cell addressing for the four space-filling tessellations.

Every cell is named by an integer triple (u, v, w), its public offset id.
Cell centers are anchored at the information sink: the cell with basis ids
b sits at center = sink + (b @ M.T) * scale, with the generator basis M and
per-axis scale of the geometry module for R = max_cell_radius(shape, r_t);
this module alone turns ids into centers (``cell_centers``, ``_center``).
``LatticeSpec`` holds the sink as a tuple of three Python floats, and a
spec, its rule and the per-cell paths (``assign_cell``,
``assign_cell_nearest_int``, one cell's center and ``neighbors``) need no
numpy; the array paths, the oracle among them, import it when called.
The public functions take and return public ids.

Public and basis ids differ only on HP, whose basis ids are the axial ids
(u - floor(v/2), v, w). Besides ``geometry._bisector``'s one id, they are
converted in these places and nowhere else:

* arrays of ids by ``cell_centers``, on one copy of the ids, and by the
  tie-break key of ``_oracle_at``'s exact re-score, with ``u += v >> 1``;
* each block of the bulk assigners by ``_blocks``, whose scorers work in
  basis ids, with ``u += v >> 1``;
* one id each by ``_center`` (one cell's center), by ``assign_cell``,
  which turns its basis id into a public id with ``u += v >> 1``, and by
  ``_settle``, whose tie-break orders its tied candidates by public id,
  u + (v >> 1);
* neighbor steps by ``_NEIGHBOR_STEPS``, a table of the steps from HP's
  odd rows, so that ``neighbors`` and routing step in public ids.

A sensor at point p finds its cell without search. The four tessellations
are the Voronoi cells of four classical lattices: CB is Z^3, RD the
face-centered cubic D3, TO the body-centered cubic D3* and HP the
hexagonal lattice times Z. In the scaled coordinates y = (p - sink) / scale,
each is the rectangular lattice diag(P) Z^3 or the union of it and its
shift by 1 along every axis of period 2 (P being ``geometry._PERIODS``).
The nearest point of such a union takes one rounding per coset and a
comparison (Conway & Sloane, "Fast quantizing and decoding algorithms for
lattice quantizers and codes", IEEE Trans. IT 28(2), 1982), and one rule
serves all four shapes: round y to the nearest point of diag(P) Z^3, at
distance a_i along axis i; the nearest point of the shifted coset is one
step toward y on each period-2 axis, at 1 - a_i there, so it is the
nearer point when the sum of w_i (a_i - 1/2) over those axes is positive,
w_i being the squared scale of axis i. CB, with one coset, is plain
rounding. The basis ids are M^-1 times the chosen point.
``assign_cells`` runs this rule on arrays of points (``_decode``);
``assign_cell``, the call of one sensor, runs it for one point step for
step in Python floats, with no numpy call, and gives the same ids, its
basis ids (adj y) // det in Python ints, adj being M's integer adjugate
and det its determinant; M^-1 is kept only as adj and det, and the float
paths form it as adj / det, exact binary fractions, as det is 1, 2 or 4.
Both read the rule's constants from one record of Python numbers that
``LatticeSpec`` derives once, ``LatticeSpec.rule``: the sink, scale,
divisor scale * P, period, coset weights and threshold, the domain bound,
the tie tolerance tol, the per-axis tie thresholds 0.5 P - tol, the coset
steps P - 1, and adj and det, so the two use the same numbers and flag the
same points as ties, and a sensor's call does no arithmetic that the spec
alone fixes. The bulk
decoder compares in units of P: it rounds t / P = (p - sink) / divisor
to Z^3, and its weights weight * P and thresholds (0.5 P - tol) / P
(``_work``) differ from ``assign_cell``'s by powers of two only, so each
comparison, of products and differences that are exact up to that
scaling, has the same outcome; a row that takes the coset step is tested
on 1/2 less its smallest distance, the largest of the stepped ones.

Every point p gets the id whose center, as ``cell_centers`` computes it,
is nearest to p in exact arithmetic; among exactly equidistant centers, on
cell boundaries, it gets the smallest (u, v, w). The rule settles every
point whose decision is more than ``rule.tol`` away from a tie, a bound on
the rounding of p - sink and of the centers that grows with |sink|. Both
decoders hand the rare points within it to one exact tie step,
``_settle``: the coset rule again, keeping on each axis of each coset the
two nearest coordinates instead of one, and scoring those at most 16
candidates in exact integer arithmetic.

``assign_cells_oracle``, the brute-force search, is the reference the
decoders are tested against; no decoder calls it, and it shares nothing
with them. It scores, around the rounded solution base, one table of
candidates per shape, ``geometry._CANDIDATES``: the covering radius of
each lattice is the cell circumradius R (every point lies within R of
its nearest center), and p - c, c the center of base, lies in the
rounding box M [-1/2, 1/2]^3 in scaled units, so the nearest center and
every center tied with it lie within R of that box around c, and a
candidate farther can neither win nor tie. The geometry module cuts the
basis-id offsets of {-1, 0, 1}^3 so once, at import, in integers, with a
slack on R that covers the floats of every supported spec, and keeps CB
27, HP 21, RD 17 and TO 15 candidates; the oracle's ``window`` is
validated but changes neither ids nor work. It ranks them in the scaled
coordinates, where every quantity is O(1) at every supported spec, by
the score sum w y^2 - 2 sum w y q, y = M o being a candidate's offset
from the rounded solution base in those coordinates (o its basis-id
offset), q = t - M base, t = (p - sink) / scale, and w = (scale /
scale_0)^2 the metric: its squared distance over scale_0^2 less sum w
q^2, which the point's candidates share and which is left out. The score
rows [-2 w y | sum w y^2] depend on the shape alone, and all of a
block's scores are one float32 matrix product. The rigorous bound on
their error, from the rounding of t, q and the centers in float64 and of
the rows, q and the product in float32, comes from the spec, once per
call. The scores decide every point whose runner-up is farther than the
bound, and the rest are re-scored exactly in integers, so the result,
ties included, is that of an exhaustive search in exact arithmetic.

The cheaper nearest-integer shortcut rounds each coordinate of the TO
solution independently; it is wrong for 3/8 of random points (the rounding
box and the cell disagree on that much volume) and is kept only to quantify
that failure rate.

The three bulk paths, ``assign_cells``, ``assign_cells_oracle`` and
``assign_cells_nearest_int``, share one block driver, ``_blocks``: it forms
p - sink as (3, rows) columns ``_CHUNK`` rows at a time, checks the domain,
hands the block to the path's scorer (``_decode``, ``_oracle`` or
``_nearest_int``), and stores the ids it returns as public ids before the
next block; it chooses no id itself. Every scorer is called as
``score(spec, p, rel)`` and returns (3, rows) float columns of basis ids;
the entry point binds any state of its call once: the decoder's constants,
input buffer and scratch (``_work``), the oracle's candidate table
(``_oracle_table``). The p - sink buffer is allocated once per call too,
not per block. The decoder only reads p - sink: it writes
(p - sink) / divisor into its input buffer, takes ``_lattice_points``
there, the nearest lattice point y, and returns M^-1 y in that buffer;
the oracle is ``_nearest_int``, which divides p - sink by scale in place,
then ``_oracle_at`` that quotient and its rounding, reading p itself only
for the rows it re-scores exactly. The accuracy experiment forms its
blocks as (3, rows) columns and runs the same p - sink step
(``_relative``) on them, with buffers of its own, and hands one p - sink
to ``_decode`` and then to ``_nearest_int``, with no copy, and the
quotient and rounding to ``_oracle_at``; the lifetime simulation forms
(p - sink) / divisor from its draw in the decoder's input buffer and hands
it to ``_lattice_points``, with a tol of 4 rule.tol that covers its
prologue's rounding, and counts the y. Points farther than ``MAX_STEPS``
lattice steps from the sink along any axis are rejected with
``ValueError``, and so are specs outside ``MAX_MAGNITUDE``, whose squares
could overflow or underflow, and specs whose step the floats near the
sink cannot resolve (``MAX_TOL``).
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import partial
from typing import NamedTuple

from .geometry import (
    MAX_STEPS,
    MAX_WINDOW,
    _ADJUGATES,
    _BASES,
    _CANDIDATES,
    _METRIC,
    _PERIODS,
    CellShape,
    _Frozen,
    _integer,
    _numbers,
    _per_axis,
    _rows,
    _scale,
    _spacing,
    as_point,
    max_cell_radius,
    neighbor_classes,
)

# Supported domain: every coordinate of p - sink within MAX_STEPS lattice
# steps (``geometry.MAX_STEPS``, whose id conversions check unsigned ids).
# Supported magnitudes: a spec's step is at least 1 / MAX_MAGNITUDE and its
# |sink|inf + MAX_STEPS steps at most MAX_MAGNITUDE = 2^500 m. Every square
# and product that the CLI's distance column forms then stays below 2^1000,
# so none overflows, and a step's square stays above 2^-1000, clear of
# underflow. The oracle's float32 filter works in scaled units, where every
# quantity is O(1) at every such spec; in metres its squares would overflow
# float32 at r_t 1e20 and fall below its smallest normal at r_t 1e-20.
MAX_MAGNITUDE = 2.0 ** 500
# Supported resolution: a spec's tie tolerance ``rule.tol``, which grows as
# the float spacing at the sink over the lattice step, is at most MAX_TOL.
# The decoder flags about 3 to 6 tol of random points for the exact tie
# step, so at most a few per million; a tol near 1 means the step is near
# that spacing, where centers round onto each other, and the oracle's
# candidate table, whose cut's slack is sized at MAX_TOL
# (``geometry._candidates``), would miss centers that can win
MAX_TOL = 2.0 ** -20
# rows that every bulk loop (the block driver of the three bulk assigners,
# the experiments' draws and tallies) handles at once; of 4,096 to 65,536
# rows, 8,192 ran the accuracy experiment fastest. A block's arrays, 192 KiB
# per (3, rows) float array and 480 KiB for the oracle's (15, rows) float32
# scores on TO, stay in cache. The allocator need not keep them for the
# next block: glibc maps arrays of that size, or trims them off the heap's
# top, when they are freed, so one made afresh in every block can be
# faulted in again in every block. The p - sink buffers and the decoder's
# constants and scratch (``_work``) of the driver and of both experiments,
# and the lifetime run's t / P columns, are made once per call and fault in
# once; the oracle, a reference only, still makes its arrays in every
# block: held for the call, its TO scores (float64 then), mask and index
# product lifted the accuracy run's tracemalloc peak at 1e6 points from
# 2.6 to 3.0 MiB for no time gain that paired runs could resolve; with
# float32 scores made per block that peak is 2.0 MiB
_CHUNK = 1 << 13


# the enum member itself: reading ``CellShape.HP`` goes through the enum's
# metaclass, some 0.1 us, which a sensor's call need not pay
_HP = CellShape.HP


class CellId(NamedTuple):
    """Integer lattice coordinates naming one cell."""

    u: int
    v: int
    w: int


class _Rule(NamedTuple):
    """The nearest-point rule's constants of one spec, as Python numbers."""

    sink: tuple[float, float, float]
    scale: tuple[float, float, float]  # per-axis scale of the generator basis M
    divisor: tuple[float, float, float]  # scale * period
    period: tuple[int, int, int]  # per-axis coset period P, ``geometry._PERIODS``
    weight: tuple[float, float, float]
    threshold: float
    reach: float  # MAX_STEPS * step
    tol: float  # decisions this close to a tie go to the exact tie step
    half: tuple[float, float, float]  # 0.5 * period - tol: a rounding this far out is a tie
    odd: tuple[int, int, int]  # period - 1, the shifted coset's step on each axis
    # M^-1 = adjugate / det, whose entries are exact binary fractions; the
    # float paths form it so, and the basis ids of a lattice point y are
    # (adjugate @ y) // det
    adjugate: tuple[tuple[int, int, int], ...]  # rows of det * M^-1, ``geometry._ADJUGATES``
    det: int  # det M: 1, 2 or 4


class LatticeSpec(_Frozen):
    """Complete tessellation description: shape, transmission range, sink.

    ``sink`` is kept as a tuple of three Python floats, validated like
    ``as_point``. Derived once: the circumradius R at the maximum usable
    size for r_t, the domain ``step`` of MAX_STEPS, and ``rule``, the one
    record of the nearest-point rule's constants, which both decoders, the
    domain check and ``simulator.active_count`` read; all of it in Python
    numbers, so a spec is built without numpy.
    """

    __slots__ = ("shape", "r_t", "sink", "circumradius", "step", "rule")
    _fields = ("shape", "r_t", "sink")

    def __init__(self, shape: CellShape, r_t: float,
                 sink: tuple[float, float, float] = (0.0, 0.0, 0.0)):
        shape = CellShape(shape)
        R = max_cell_radius(shape, r_t)  # refuses an r_t that is not positive and finite
        sink = tuple(_coords(sink, "sink"))
        if not all(map(math.isfinite, sink)):
            raise ValueError("sink coordinates must be finite")
        step = _spacing(shape, R)[0]
        extent = max(map(abs, sink)) + MAX_STEPS * step
        if not (1.0 / MAX_MAGNITUDE <= step and extent <= MAX_MAGNITUDE):
            raise ValueError(f"the lattice step ({step:.6g} m) must be at least 2^-500 m and "
                             f"|sink|inf + {MAX_STEPS} steps ({extent:.6g} m) at most 2^500 m")
        scale, period, metric = _scale(shape, R), _PERIODS[shape], _METRIC[shape]
        # the exact metric of the period-2 axes relative to axis 0, the
        # smallest: the decoder compares its cosets in it, the shifted one
        # being nearer when weight @ a exceeds half its sum
        weight = tuple(m / metric[0] if p == 2 else 0.0 for m, p in zip(metric, period))
        # The tie tolerance, in units of scale, from _oracle's bound
        # with u = 2^-53. rel = fl(p - sink) is within u reach of p - sink,
        # and the quotient rel / divisor adds u reach / scale to a. A center
        # of cell_centers is within u(|sink| + 2|offset|) of sink + offset,
        # and the two centers a decision compares on axis i have |offset|
        # <= reach + 2 scale_i. So each position of p relative to a center,
        # as the decoder measures it, is within
        # e = u(|sink|inf + 4 reach) / min(scale) + 4u of the exact one.
        # Rounding picks the nearer of two centers, at a and P - a, unless
        # a >= P/2 - e. The coset margin weight @ a - sum(weight) / 2 is the
        # difference of the squared distances to the two cosets' points, at
        # a_i and 1 - a_i on the period-2 axes, over 2 scale_0^2: errors of
        # e in those positions move it by at most sum(weight) (e + e^2/2),
        # and its evaluation and the gap between weight and the squared
        # ratios of the float scales by a few u sum(weight). As
        # reach / min(scale) >= MAX_STEPS = 2^19, twice the first term of e
        # covers the rest, for both tests.
        # The lifetime run (simulator._interior_counts) forms t / P of its
        # node p = fl(lo + fl(x span)), x the node's draw, without p: as
        # fl(fl(x A) + B), A = fl(span / divisor), B = fl(fl(lo - sink) /
        # divisor), divisor = scale P exactly. Against the exact
        # (p - sink) / divisor, x span carries the roundings of A, of x A,
        # of the sum and of p's x span, lo - sink those of its difference,
        # of B and of the sum, and p that of p's sum, so the error times
        # divisor is at most u(4 span + 3|lo - sink| + |p|), plus terms in
        # u^2 that the factor 2 covers. In units of scale it takes the place
        # of the 2u reach / scale of rel and the quotient. The run refuses a
        # box whose nodes may lie past the domain, so span <= 2 reach,
        # |lo - sink| <= reach and |p| <= |sink|inf + reach on every axis,
        # and that sum is at most 12 reach + |sink|inf: the fused sums' tol,
        # 2^-52 (2|sink|inf + 14 reach) / min(scale) max(1, sum(weight)), is
        # at most 3.5 times this one, and the run decodes at 4 tol. A wider
        # tol only sends more rows to the exact tie step, so no id moves.
        tol = (2.0 ** -52 * (max(map(abs, sink)) + 4.0 * MAX_STEPS * step) / min(scale)
               * max(1.0, sum(weight)))
        if tol > MAX_TOL:
            raise ValueError(f"the lattice step ({step:.6g} m) is too fine for the floats at "
                             f"the sink: its tie tolerance ({tol:.3g}) must be at most 2^-20")
        self._set(shape=shape, r_t=float(r_t), sink=sink, circumradius=R, step=step,
                  rule=_Rule(sink, scale, tuple(s * p for s, p in zip(scale, period)), period,
                             weight, 0.5 * (weight[0] + weight[1] + weight[2]),
                             MAX_STEPS * step, tol,
                             tuple(0.5 * p - tol for p in period), tuple(p - 1 for p in period),
                             *_ADJUGATES[shape]))


def cell_centers(spec: LatticeSpec, ids) -> np.ndarray:
    """Centers for an array of ids of shape (..., 3): their basis ids b,
    sink + (b @ M.T) * scale, the scale and sink going column by column
    (``geometry._per_axis``).

    The ids are read by ``geometry._numbers``, which takes only integers:
    an integer array, or lists and tuples of ints (not bools), numpy
    integers and integer arrays, of one shape. A bool, a float, a
    bytearray or a range among them, an object array or ragged rows raise
    ``ValueError``, rather than be truncated, cast or read as ints; so do
    ids beyond MAX_STEPS + 2 of zero on any axis, as ``as_cell_id`` requires
    of one id.
    """
    import numpy as np

    ids, bad = _numbers(ids, "iu")
    # bad: the type of a leaf refused, or else ragged rows; numpy reads an
    # empty list as floats, and ints beyond 64 bits as objects
    if isinstance(bad, type) or bad is None and ids.dtype.kind not in "iu":
        raise ValueError(f"cell ids must be integers, got an array of "
                         f"{bad.__name__ if bad else ids.dtype}")
    if bad or ids.ndim == 0 or ids.shape[-1] != 3:
        raise ValueError("expected cell ids of shape (..., 3), got "
                         + ("ragged rows" if bad else str(ids.shape)))
    # checked before any cast: an unsigned id of 2^63 or more would wrap to
    # a negative int64
    if ids.size and not -(MAX_STEPS + 2) <= ids.min() <= ids.max() <= MAX_STEPS + 2:
        raise ValueError(f"cell ids must lie within {MAX_STEPS + 2} of zero on each axis")
    # basis ids in one float copy: the axial u - floor(v / 2) on HP. Float
    # products and sums of these small integers are exact, and BLAS has no
    # integer matmul
    b = ids.astype(float)
    if spec.shape is CellShape.HP:
        b[..., 0] -= ids[..., 1] >> 1
    return _per_axis(b @ np.array(_BASES[spec.shape], dtype=float).T, spec.rule.scale, spec.sink)


def _center(spec: LatticeSpec, cid) -> tuple[float, float, float]:
    """Center of the public id ``cid`` in Python floats, the doubles that
    ``cell_centers`` gives: the basis ids times M are small integers, exact
    in float, so sink + that * scale takes the same two roundings."""
    u, v, w = cid
    if spec.shape is _HP:
        u -= v >> 1
    sink, scale = spec.sink, spec.rule.scale
    return tuple(s + float(m0 * u + m1 * v + m2 * w) * k
                 for s, (m0, m1, m2), k in zip(sink, _BASES[spec.shape], scale))


def cell_center(spec: LatticeSpec, cid) -> np.ndarray:
    """Center of a single cell as a float array (3,), its id checked by
    ``as_cell_id``; computed without numpy, as ``cell_centers`` would."""
    import numpy as np

    return np.array(_center(spec, as_cell_id(cid)))


def _nearest_int(spec: LatticeSpec, p: np.ndarray, rel: np.ndarray) -> np.ndarray:
    """The nearest-integer rule, a scorer of ``_blocks``: the real-valued
    basis ids M^-1 (rel / scale) that solve the center equations for the
    columns of ``rel`` (3, rows), each rounded to the nearest integer,
    halves away from zero, as a new (3, rows) float array. ``rel`` is
    divided by scale in place; the rows ``p`` are not read. M^-1 is
    adjugate / det, exact binary fractions as det is 1, 2 or 4, and each of
    its rows holds at most two nonzero ones, so each real id is one rounding
    of its exact value, whatever the order of the sums."""
    import numpy as np

    rel /= np.array(spec.rule.scale)[:, None]
    ids = np.divide(spec.rule.adjugate, spec.rule.det) @ rel
    ids += np.copysign(0.5, ids)
    return np.trunc(ids, out=ids)


def _work(spec: LatticeSpec, rows: int, tol: float) -> list:
    """The decoder's state for one call, made once per call rather than per
    block: the rule's divisor as a (3, 1) float column, its coset weights in
    units of P, weight * P, the tie tolerance ``tol`` (``rule.tol``, or
    4 ``rule.tol`` in the lifetime run) and the tie thresholds in units of P,
    (0.5 P - tol) / P, of axis 0 and of axis 2 (which differ on HP alone);
    then its buffers, sliced to each block's rows: the decoder's input,
    (3, rows) floats, which ``_decode`` fills with the quotient
    (p - sink) / divisor and the lifetime run with its t / P straight from
    its draw, and the scratch, the lattice points y and distances a,
    (3, rows) floats, one (rows,) float for their maxima, the coset margin
    and their minima in turn, and four (rows,) bools. The three (3, rows)
    arrays are one block: glibc trims the heap's top once its free space
    passes twice the largest block freed, so a call whose largest block is
    not most of its buffers frees them to be faulted in again by the next
    call."""
    import numpy as np

    rule = spec.rule
    # at rule.tol the thresholds are rule.half / P, the same doubles
    return [np.array(rule.divisor)[:, None], np.multiply(rule.weight, rule.period), tol,
            *[(0.5 * P - tol) / P for P in rule.period[::2]],
            *np.empty((3, 3, rows)), np.empty(rows), *np.empty((4, rows), dtype=bool)]


def _lattice_points(spec: LatticeSpec, t: np.ndarray, work: list, point) -> np.ndarray:
    """The decoder's lattice points y, nearest to the points whose
    t / P = (p - sink) / divisor are the columns ``t`` (3, rows), which it
    overwrites, in the scaled coordinates y = (p - sink) / scale, given the
    call's state ``work`` (``_work``): (3, rows) float columns
    of integers, in ``work``, whose basis ids are M^-1 y. ``point(i)`` gives
    the point p of column i as three Python floats; only the ties' are
    asked for.

    It works in units of P, where the rounding of every axis is to Z: the
    weights are weight * P and the thresholds half / P, so each comparison
    is ``assign_cell``'s, in units of scale, divided by a power of two, and
    both decoders flag the same points. The columns whose decision is
    within the call's tol of a tie are settled by ``_settle``.
    """
    import numpy as np

    threshold = spec.rule.threshold
    _, weight, tol, half, half2, _, *scratch = work
    near, a, m, tie, step, flag, even = (w[..., :t.shape[1]] for w in scratch)
    # near: the nearest point of Z^3 to t / P, and e = t / P - near, both
    # exact, |e| <= 1/2; every temporary is written into t or the scratch,
    # as a chunk's fresh arrays cost more than the arithmetic
    np.rint(t, out=near)
    t -= near
    np.abs(t, out=a)
    # ties: the chosen coset's rounding at a half, or two cosets equally
    # near; a rounding is tested on the largest a of the lead axes, those
    # of axis 0's period, all three or HP's two of period 2, and HP's axis
    # 2 apart
    hp = spec.shape is _HP
    lead = slice(0, 2) if hp else slice(None)

    def extreme(ufunc):  # the lead axes' largest or smallest a, pairwise, in m
        ufunc(a[0], a[1], out=m)
        return m if hp else ufunc(m, a[2], out=m)

    np.greater_equal(extreme(np.maximum), half, out=tie)
    if threshold:  # a second coset, shifted on the period-2 axes; CB has none
        # its nearest point is one step of sign(e) from near * P on the
        # period-2 axes, 1/2 - a away there in units of P instead of a: it
        # is the nearer point when the margin, the weighted sum of a - 1/4
        # over those axes, is positive
        np.matmul(weight, a, out=m)
        m -= threshold
        np.greater(m, 0, out=step)
        np.less_equal(np.abs(m, out=m), tol, out=even)
        # a row that takes the step is 1/2 - a from its point on each
        # period-2 axis, so it is tested on 1/2 less its smallest a; bool
        # operations put that test on those rows, as a masked copy of
        # floats costs four times as much
        np.subtract(0.5, extreme(np.minimum), out=m)
        np.greater_equal(m, half, out=flag)
        flag ^= tie
        flag &= step
        tie ^= flag
        tie |= even
        near[lead] *= 2.0
        near[lead] += np.copysign(step, t[lead], out=t[lead])
    if hp:
        tie |= np.greater_equal(a[2], half2, out=flag)
    if tie.any():
        for i in np.flatnonzero(tie).tolist():
            near[:, i] = _settle(spec, point(i))
    return near


def _decode(spec: LatticeSpec, p: np.ndarray, rel: np.ndarray, work: list) -> np.ndarray:
    """The decoder, ``assign_cells``' scorer of ``_blocks``: the basis ids
    M^-1 y of ``_lattice_points`` for the rows ``p`` (rows, 3), given their
    p - sink columns ``rel`` (3, rows), which it only reads. The quotient
    rel / divisor goes into the input buffer of ``work`` (``_work``), is
    decoded there, and the ids come back in it as (3, rows) float columns,
    valid until the next call with ``work``. ``p`` may be any (rows, 3)
    view: only the rows of ties are read."""
    import numpy as np

    t = np.divide(rel, work[0], out=work[5][:, :len(p)])
    y = _lattice_points(spec, t, work, lambda i: p[i].tolist())
    return np.matmul(np.divide(spec.rule.adjugate, spec.rule.det), y, out=t)


def _settle(spec: LatticeSpec, xyz) -> tuple[int, int, int]:
    """The tie step of both decoders: for a point they flag, the lattice
    point y, in the scaled coordinates of ``_decode``'s ``near``, whose
    basis id M^-1 y is the one ``assign_cells_oracle`` gives the point.
    ``xyz`` is the point, three Python floats, whose p - sink is formed as
    both decoders form it, the same doubles; Python ints and floats only.

    The nearest point of each coset to t = (p - sink) / scale has, on each
    axis, the floor or the ceiling of (t - s) / P, times P, plus s, the
    coset's shift there; the decoders keep the nearer of the two. The
    floats put t within ``rule.tol`` of its exact value, far less than a
    step, so the nearest center and every center tied with it are among
    these at most 16 candidates, however the floats round t. Their centers are
    sink + y * scale, the doubles of ``_center``. Each float is n / d with
    d a power of two, so in units of 1 / D, D the largest d among the point
    and the centers, every coordinate is an integer, and the squared
    distances are exact; the smallest (squared distance, public id) wins.
    """
    rule = spec.rule
    t = [(x - o) / k for x, o, k in zip(xyz, rule.sink, rule.scale)]
    cands = []
    for shift in (0, 1) if rule.threshold else (0,):
        axes = [{s + P * math.floor((r - s) / P), s + P * math.ceil((r - s) / P)}
                for r, P, s in zip(t, rule.period, [shift * o for o in rule.odd])]
        cands += itertools.product(*axes)
    # exact squared distances along each axis, once per distinct value: in
    # units of 1 / D the integers span only the floats' exponents, some 55
    # bits for coordinates of like magnitude, not the 1,075 of units of 2^-1074
    point = [x.as_integer_ratio() for x in xyz]
    centers = [{y: (o + y * k).as_integer_ratio() for y in set(ys)}
               for o, k, ys in zip(rule.sink, rule.scale, zip(*cands))]
    bits = max(d for _, d in itertools.chain(point, *(c.values() for c in centers))).bit_length()
    sq = [{y: ((n << bits - d.bit_length()) - (m << bits - e.bit_length())) ** 2
           for y, (m, e) in cs.items()} for (n, d), cs in zip(point, centers)]
    d2 = [sq[0][y0] + sq[1][y1] + sq[2][y2] for y0, y1, y2 in cands]
    low = min(d2)

    def public(y):  # the public id of the basis id M^-1 y, for the tie-break
        u, v, w = ((a0 * y[0] + a1 * y[1] + a2 * y[2]) // rule.det
                   for a0, a1, a2 in rule.adjugate)
        return u + (v >> 1 if spec.shape is _HP else 0), v, w

    return min((y for y, d in zip(cands, d2) if d == low), key=public)


def _reach_error(spec: LatticeSpec) -> ValueError:
    return ValueError(
        f"point coordinates must be finite and within {MAX_STEPS} lattice steps "
        f"({spec.rule.reach:.6g} m) of the sink along each axis")


def _relative(spec: LatticeSpec, p: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """p - sink of the rows ``p`` (rows, 3), formed as (3, rows) columns in
    ``buf`` and checked to be within the domain."""
    import numpy as np

    rel = np.subtract(p.T, np.array(spec.sink)[:, None], out=buf[:, :len(p)])
    # offsets from the sink that are not finite or exceed MAX_STEPS steps,
    # found with no temporary array: a NaN makes the minimum NaN
    if not -spec.rule.reach <= rel.min() <= rel.max() <= spec.rule.reach:
        raise _reach_error(spec)
    return rel


def _blocks(spec: LatticeSpec, pts: np.ndarray, score) -> np.ndarray:
    """Public ids of the rows ``pts`` (``geometry._rows``) as an (n, 3)
    int64 array, from the scorer ``score``, ``_CHUNK`` rows at a time.

    Each block's p - sink (``_relative``), in one buffer per call, goes with
    the block's rows p to ``score(spec, p, rel)``, which returns their basis
    ids as (3, rows) float columns, which may be a buffer of the call's,
    and may overwrite ``rel``. The ids are stored as the block's int64 rows
    before the next block, and on HP become public ids there, u + floor(v / 2).
    """
    import numpy as np

    out = np.empty((len(pts), 3), dtype=np.int64)
    buf = np.empty((3, min(len(pts), _CHUNK)))
    for start in range(0, len(pts), _CHUNK):
        p = pts[start:start + _CHUNK]
        ids = out[start:start + _CHUNK]
        # column by column: numpy's transposed copy of a block costs 3 times as much
        for axis, column in enumerate(score(spec, p, _relative(spec, p, buf))):
            ids[:, axis] = column
        if spec.shape is CellShape.HP:
            ids[:, 0] += ids[:, 1] >> 1
    return out


def assign_cells(spec: LatticeSpec, points) -> np.ndarray:
    """Cell ids for an (n, 3) array of points, as an (n, 3) integer array.

    Constant work per point: the closed-form nearest-point rule of the
    shape's lattice. The ids are those of ``assign_cells_oracle``: points
    equidistant from several centers go to the smallest (u, v, w).
    """
    pts, tol = _rows(points), spec.rule.tol
    return _blocks(spec, pts, partial(_decode, work=_work(spec, min(len(pts), _CHUNK), tol)))


_PLAIN = (float, int)
# numpy's array type and float64 dtype, for the fast read of ``_coords``,
# bound by its first call that takes the ``as_point`` path: no point is an
# array before numpy is imported, and reading a global costs a sensor's call
# far less than an ``import`` statement would
_ndarray = _float64 = None


def _coords(p, what: str = "point") -> list[float]:
    """The coordinates of ``as_point(p, what)`` as Python floats, not yet
    checked to be finite: read without numpy from a float64 array of shape
    (3,) or a tuple or list of three Python ints and floats (exactly those
    types: no bool, no subclass), and otherwise through ``as_point``, whose
    allow-list reader (``geometry._numbers``) refuses anything else with
    ``ValueError``; so too a list holding an int too large for a float,
    which ``as_point`` refuses where ``float`` raises ``OverflowError``."""
    global _ndarray, _float64
    if type(p) is _ndarray and p.dtype is _float64 and p.shape == (3,):
        return p.tolist()
    if (type(p) is tuple or type(p) is list) and len(p) == 3:
        x, y, z = p
        if type(x) in _PLAIN and type(y) in _PLAIN and type(z) in _PLAIN:
            try:
                return [float(x), float(y), float(z)]
            except OverflowError:
                pass
    import numpy as np

    _ndarray, _float64 = np.ndarray, np.dtype(np.float64)
    return as_point(p, what).tolist()


def assign_cell(spec: LatticeSpec, p) -> CellId:
    """Cell id of a single point, the one ``assign_cells`` gives it.

    ``_decode`` for one point, step for step in Python floats and ints with
    no numpy call: the few dozen operations a sensor needs to find its cell
    from its own location, and ``_settle``'s exact tie step for a point
    within the rule's ``tol`` of a tie. Every constant comes ready from
    ``spec.rule``, and the basis ids are (adjugate @ y) // det in Python
    ints. Invalid points raise the errors of ``as_point`` and of the domain
    check.
    """
    ((ox, oy, oz), _, (dx, dy, dz), (px, py, pz), (wx, wy, wz), threshold, reach, tol,
     (hx, hy, hz), (sx, sy, sz), ((a00, a01, a02), (a10, a11, a12), (a20, a21, a22)),
     det) = spec.rule
    x, y, z = xyz = _coords(p)
    rx, ry, rz = x - ox, y - oy, z - oz
    if not (-reach <= rx <= reach and -reach <= ry <= reach and -reach <= rz <= reach):
        as_point(p)  # raises for coordinates that are not finite
        raise _reach_error(spec)
    # n: the nearest point of diag(P) Z^3 to t = rel / scale, and e = t - n,
    # both exact; round, like np.rint, takes halves to even
    tx, ty, tz = rx / dx, ry / dy, rz / dz
    nx, ny, nz = round(tx), round(ty), round(tz)
    ex, ey, ez = (tx - nx) * px, (ty - ny) * py, (tz - nz) * pz
    nx, ny, nz = nx * px, ny * py, nz * pz
    ax, ay, az = abs(ex), abs(ey), abs(ez)
    tie = False
    if threshold:  # a second coset, shifted on the period-2 axes; CB has none
        margin = wx * ax + wy * ay + wz * az - threshold
        if margin > 0:
            nx += sx if ex >= 0 else -sx
            ny += sy if ey >= 0 else -sy
            nz += sz if ez >= 0 else -sz
            ax, ay, az = abs(ax - sx), abs(ay - sy), abs(az - sz)
        tie = -tol <= margin <= tol
    if tie or ax >= hx or ay >= hy or az >= hz:
        nx, ny, nz = _settle(spec, xyz)
    u = (a00 * nx + a01 * ny + a02 * nz) // det
    v = (a10 * nx + a11 * ny + a12 * nz) // det
    w = (a20 * nx + a21 * ny + a22 * nz) // det
    if spec.shape is _HP:
        u += v >> 1
    return _cell_id((u, v, w))


def assign_cells_nearest_int(spec: LatticeSpec, points) -> np.ndarray:
    """Nearest-integer shortcut (TO only): round u, v, w independently.

    Halves round away from zero. Kept as the documented approximation; it
    misassigns 3/8 of uniformly random points, so callers wanting the true
    cell should use ``assign_cells``. Like the other bulk paths it works a
    block of ``_CHUNK`` rows at a time, so beside its (n, 3) result it
    holds only one block's arrays.
    """
    _check_to(spec)
    return _blocks(spec, _rows(points), _nearest_int)


def _check_to(spec: LatticeSpec) -> None:
    if spec.shape is not CellShape.TO:
        raise ValueError("nearest-integer assignment is only defined for the TO lattice")


def assign_cell_nearest_int(spec: LatticeSpec, p) -> CellId:
    """The id ``assign_cells_nearest_int`` gives one point, in Python floats
    with no numpy call, and with its errors: those of ``as_point``, of the
    shape and of the domain check, in that order.

    Each entry of M^-1 is formed as a / det, a of the adjugate, the double
    of ``_nearest_int``'s. TO's rows of M^-1 hold at most two nonzero binary
    fractions, so each real id f is one rounding of its exact value in any
    order of the sums, and halves go away from zero as in ``_nearest_int``,
    not to even as with ``round``.
    """
    xyz = _coords(p)
    if not all(map(math.isfinite, xyz)):
        as_point(p)  # raises for coordinates that are not finite
    _check_to(spec)
    rule, det = spec.rule, spec.rule.det
    rel = [c - s for c, s in zip(xyz, rule.sink)]
    if not max(map(abs, rel)) <= rule.reach:
        raise _reach_error(spec)
    tx, ty, tz = (r / k for r, k in zip(rel, rule.scale))
    f = (a0 / det * tx + a1 / det * ty + a2 / det * tz for a0, a1, a2 in rule.adjugate)
    return _cell_id(tuple(math.trunc(x + math.copysign(0.5, x)) for x in f))


def assign_cells_oracle(spec: LatticeSpec, points, window: int = 3) -> np.ndarray:
    """Exhaustive-search assignment over the centers that can win.

    Ground truth for the constant-time method. Returns, for each point p,
    the id whose center, as ``cell_centers`` computes it, is nearest to p in
    exact arithmetic; among exactly equidistant centers it returns the
    smallest (u, v, w). It scores one table of candidates per shape, the
    basis ids around the rounded real solution whose centers lie within R
    of the rounding box M [-1/2, 1/2]^3 in scaled units, which holds
    q = p - center(rounded id) (``geometry._CANDIDATES``, derived once, in
    integers, with a slack that covers the rounding of q and of the
    computed centers at every supported spec). The lattice's covering
    radius is the cell circumradius R, so the nearest center is within R
    of p, and a candidate cut is farther and can neither win nor tie. That
    keeps CB 27, HP 21, RD 17 and TO 15 candidates, all within one basis
    step of the rounded id. The float filter's tolerance comes from the
    spec alone, once per call, so a point's id depends on the spec and the
    point, not on the other points of its call. The kept candidates, at
    offsets y from the rounded solution in the scaled coordinates, are
    ranked by the score sum w y^2 - 2 sum w y q, w = (scale / scale_0)^2
    and q the point's offset from the rounded solution there, all of a
    block's in one float32 matrix product: their squared distance over
    scale_0^2 less the point's own sum w q^2, which they all share. Every
    quantity is O(1) there at every supported spec, so float32 neither
    overflows nor underflows. The scores are a floating-point filter with
    an exact fallback (Shewchuk, "Adaptive precision floating-point
    arithmetic and fast robust geometric predicates", DCG 18, 1997): they
    decide every point whose runner-up is farther than a rigorous bound on
    their rounding error, in float64 and float32, and the points within it
    are re-scored exactly in integers, every float being an integer times
    a power of two.

    ``window``, the search half-width of the CLI's ``--window``, must be
    an integer (a Python or numpy int, read with ``operator.index``) from
    2 to MAX_WINDOW; others raise ``ValueError``. Every valid window gives
    the same ids from the same work.
    """
    window = _integer(window, "oracle window")
    if not 2 <= window <= MAX_WINDOW:
        raise ValueError(f"oracle window must be between 2 and {MAX_WINDOW}")
    return _blocks(spec, _rows(points), partial(_oracle, table=_oracle_table(spec)))


class _OracleTable(NamedTuple):
    """The oracle's candidates and float filter tolerance for one spec."""

    basis: np.ndarray  # (3, 3) float generator matrix M
    offs: np.ndarray  # (3, k) float basis-id offsets, columns in lexicographic order
    score: np.ndarray  # (k, 4) float32 rows [-2 w d | sum(w d^2)], d = M offs, w (scale / scale0)^2
    tol: float  # the float32 filter's bound on the rounding error of the scores
    index: np.ndarray  # (k, 1) int8 candidate numbers 0 .. k - 1


def _oracle_table(spec: LatticeSpec) -> _OracleTable:
    """The candidates ``_oracle`` scores for ``spec``, the shape's
    ``geometry._CANDIDATES``, and the float filter's tolerance, which alone
    depends on the spec: computed once per call of the oracle's entry
    points."""
    import numpy as np

    offs, basis = (np.array(table[spec.shape], dtype=float) for table in (_CANDIDATES, _BASES))
    d, scale = offs @ basis.T, np.array(spec.rule.scale)  # d: offsets in the scaled coordinates
    # The filter works in the scaled coordinates, where every quantity is
    # O(1) at every supported spec, so float32 neither overflows nor
    # underflows there, as squares in metres would. In exact arithmetic
    # |p - center|^2 / scale0^2 = sum W (T - C)^2, with W = (scale / scale0)^2,
    # T = (p - sink) / scale and C = (center - sink) / scale. The oracle has
    # t = fl(fl(p - sink) / scale), left in rel by _nearest_int. The real
    # solution M^-1 t, its coordinates below 2^20 (the domain check), is
    # within a few roundings of 2^-33, under 2^-30, of its float, and base
    # within 1/2 + 2^-33 of that, so T - M base = M delta with
    # |delta|inf <= 1/2 + 2^-29, and q = fl(t - M base) is within
    # Q = (1 + 2^-28) sum_j |M_ij| / 2 of 0 on axis i. A candidate's C is
    # M base + d up to the rounding of its center, so T - C = q - d - eps,
    # eps gathering, with u = 2^-53, the roundings of t, 2u reach / scale,
    # of the center, u(|sink|inf + 2 reach) / scale + 2uL', and of q, uL',
    # L' < 16 the largest |y - M base|:
    # |eps| <= E = (1 + 2^-10) u(|sink|inf + 4 reach) / scale, as
    # reach / scale >= 2^18 on every axis. So the exact squared distance
    # over scale0^2 is sum W q^2, shared by the point's candidates, plus the
    # score s = sum W d^2 - 2 sum W d q, plus at most
    # eta = sum W E (2a + E), a = Q + |d| bounding |q - d|. The float32
    # score: each entry of a row, from w = fl(fl(scale / scale0)^2), is
    # within u' + 8u of its exact value, u' = 2^-24, and each q within u' of
    # the float64 q; the 4-term inner product adds at most g4 times the sum
    # of its terms' magnitudes (gn = n u' / (1 - n u')), in any order of its
    # sums, with or without fused multiply-adds (Higham, Accuracy and
    # Stability of Numerical Algorithms, ch. 3). So a computed score is
    # within err = 5u' sum W d^2 + 6u' 2 sum W |d| Q + eta of its candidate's
    # exact squared distance over scale0^2 less the shared term; the slack
    # of 2^-10 covers the terms in u'^2 and u, and an underflow, which moves
    # a score by 2^-146 at most. The middle candidate scores 0, so the
    # smallest score is within sum W d^2 + 2 sum W |d| Q of 0, and rounding
    # the tolerance and its sum with it to float32 moves their sum by at
    # most u' times that and twice the tolerance. With
    # tol = 2 max err + u' max(sum W d^2 + 2 sum W |d| Q), a row with no
    # second candidate within tol of its minimum has one exact winner, which
    # is also its float argmin; the others are flagged, every exact winner
    # among their close candidates.
    w, Q = (scale / scale[0]) ** 2, np.abs(basis).sum(axis=1) * (0.5 + 2.0 ** -29)
    E = (2.0 ** -53 + 2.0 ** -63) * (max(map(abs, spec.sink)) + 4.0 * spec.rule.reach) / scale
    wd2, cross = (w * d * d).sum(axis=1), 2.0 * (w * np.abs(d) * Q).sum(axis=1)
    err = 2.0 ** -24 * (5.0 * wd2 + 6.0 * cross) + (w * E * (2.0 * (np.abs(d) + Q) + E)).sum(axis=1)
    tol = (2.0 * err.max() + 2.0 ** -24 * (wd2 + cross).max()) * (1.0 + 2.0 ** -10)
    score = np.hstack([-2.0 * w * d, wd2[:, None]]).astype(np.float32)
    # the at most 27 candidates are counted and indexed in int8; tol is a
    # Python float, which numpy adds to the float32 minima in float32
    return _OracleTable(basis, np.ascontiguousarray(offs.T), score, float(tol),
                        np.arange(len(offs), dtype=np.int8)[:, None])


def _oracle(spec: LatticeSpec, p: np.ndarray, rel: np.ndarray, table: _OracleTable) -> np.ndarray:
    """The oracle, a scorer of ``_blocks``: basis ids of
    ``assign_cells_oracle`` for the rows ``p`` (rows, 3), given their
    p - sink columns ``rel`` (3, rows), which it divides by scale in place,
    as (3, rows) float columns: ``_oracle_at`` the rounded real solution."""
    return _oracle_at(spec, p, rel, _nearest_int(spec, p, rel), table)


def _oracle_scores(t: np.ndarray, base: np.ndarray, table: _OracleTable) -> np.ndarray:
    """The float32 filter's (k, rows) scores of the candidate ``table``
    around ``base``, the rounded real solution, for the points whose
    t = (p - sink) / scale are the columns ``t`` (3, rows): q = t - M base,
    M base being exact, in float64, rounded to float32 in rows 0 to 2 of
    q1, whose row 3 is ones, so that score @ q1 gives every candidate's
    score in one float32 product."""
    import numpy as np

    q1 = np.empty((4, t.shape[1]), dtype=np.float32)
    q1[3] = 1.0
    np.subtract(t, table.basis @ base, out=q1[:3], casting="same_kind")
    return table.score @ q1


def _oracle_at(spec: LatticeSpec, p: np.ndarray, t: np.ndarray, base: np.ndarray,
               table: _OracleTable) -> np.ndarray:
    """The oracle's ids for the rows ``p`` (rows, 3), any view, from their
    t = (p - sink) / scale columns ``t`` and their rounded real solution
    ``base`` (``_nearest_int``), both (3, rows), which it only reads, as
    (3, rows) float columns: the float filter over the candidate ``table``
    around base (``_oracle_scores``), then the exact re-score of the rows it
    flags, the only rows of ``p`` it reads."""
    import numpy as np

    basis, offs, _, tol, index = table
    scores = _oracle_scores(t, base, table)
    # every (k, n) array is reduced over k row by row, as a running
    # minimum, count or maximum, which reads memory in order
    close = scores <= scores.min(axis=0) + tol
    # freed before the next arrays, to keep the block's peak low. The
    # oracle's arrays are made afresh in every block, and whether the
    # allocator returns their memory and faults it back in for the next
    # block depends on the process's heap history; unlike the decoder's
    # scratch, they are not kept for the call
    del scores
    # the last close candidate, on an unflagged row the only one
    ids = offs.take(np.multiply(close, index).max(axis=0).astype(np.intp), axis=1)
    ids += base
    flagged = np.flatnonzero(close.sum(axis=0, dtype=np.int8) > 1)
    if not len(flagged):
        return ids
    # the flagged rows' close candidates, their centers sink + (M b) scale
    # as cell_centers computes them, scored exactly: every float is m 2^e
    # with an integer m of 53 bits, so the coordinates become Python ints
    # in units of the smallest 2^e among them, and so do the squared
    # distances
    pair, k = np.nonzero(close[:, flagged].T)
    cand = base.T[flagged[pair]] + offs.T[k]
    centers = _per_axis(cand @ basis.T, spec.rule.scale, spec.sink)
    m, e = np.frexp(np.vstack([p[flagged], centers]))
    x = np.ldexp(m, 53).astype(np.int64).astype(object) << (e - e.min()).astype(object)
    diff = x[pair] - x[len(flagged):]
    d2 = (diff * diff).sum(axis=1)
    # the nearest center wins, and among exactly equidistant ones the
    # smallest public id, u + floor(v / 2) on HP; pair runs over every
    # flagged row in order
    rows = np.arange(len(flagged))
    win = np.flatnonzero(d2 == np.minimum.reduceat(d2, np.searchsorted(pair, rows))[pair])
    pub = cand[win].astype(np.int64)
    if spec.shape is CellShape.HP:
        pub[:, 0] += pub[:, 1] >> 1
    win = win[np.lexsort((*pub.T[::-1], pair[win]))]
    ids[:, flagged] = cand[win[np.searchsorted(pair[win], rows)]].T
    return ids


def assign_cell_oracle(spec: LatticeSpec, p, window: int = 3) -> CellId:
    return _cell_id(assign_cells_oracle(spec, as_point(p)[None, :], window)[0].tolist())


def _steps(shape: CellShape):
    """Public-id steps to the first-tier neighbors, for cells of even and of
    odd rows v: the neighbor-class generators, in order. HP's odd rows sit
    half a step further along x than its even ones, so from an odd row a step
    that changes the row by an odd dv lands one further along u."""
    even = tuple(off for cls in neighbor_classes(shape) for off in cls.offset_generators)
    if shape is not CellShape.HP:
        return even, even
    return even, tuple((du + (dv & 1), dv, dw) for du, dv, dw in even)


# _NEIGHBOR_STEPS[shape][v & 1]: the steps from a cell of row v; v & 1 is
# the parity of v, negative v included
_NEIGHBOR_STEPS = {shape: _steps(shape) for shape in CellShape}


def _neighbor_rows(shape: CellShape, cell) -> list[tuple[int, int, int]]:
    """Public ids of the first-tier neighbors of the public id ``cell``, as int
    tuples in the order of the neighbor-class generators; Python-int
    arithmetic only."""
    u, v, w = cell
    return [(u + du, v + dv, w + dw) for du, dv, dw in _NEIGHBOR_STEPS[shape][v & 1]]


# CellId from a row without the Python-level constructor; routing makes one
# per neighbor that makes progress on every hop
_cell_id = partial(tuple.__new__, CellId)


def as_cell_id(cid, what: str = "cell id") -> CellId:
    """``cid`` as a CellId of Python ints, checked to be an id of the domain.

    Each coordinate must be an integer (a Python or numpy int, read with
    ``operator.index``, not a bool), and ids of the supported domain have
    every coordinate within MAX_STEPS + 2 of zero; other ids raise
    ``ValueError`` naming ``what``.
    """
    try:
        # a bool is an int to operator.index, and None is not
        u, v, w = (operator.index(None if type(c) is bool else c) for c in cid)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be three integers, got {cid!r}") from None
    if max(abs(u), abs(v), abs(w)) > MAX_STEPS + 2:
        raise ValueError(f"{what} must lie within {MAX_STEPS + 2} of zero on each axis")
    return _cell_id((u, v, w))


def neighbors(spec: LatticeSpec, cid) -> list[CellId]:
    """All first-tier neighbor ids of a cell (14 TO, 18 RD, 20 HP, 26 CB).

    The cell must be an id of the domain (``as_cell_id``).
    """
    return list(map(_cell_id, _neighbor_rows(spec.shape, as_cell_id(cid))))
