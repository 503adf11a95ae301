"""Integer cell addressing for the four space-filling tessellations.

Every cell is named by an integer triple (u, v, w), its public offset id.
Cell centers are anchored at the information sink: center = sink +
center_offsets(shape, R, (u, v, w)) with R = max_cell_radius(shape, r_t).
``LatticeSpec`` holds the sink as a tuple of three Python floats, and a
spec, its rule and the per-cell paths (``assign_cell``,
``assign_cell_nearest_int``, one cell's center and ``neighbors``) need no
numpy; the array paths, the oracle among them, import it when called.
The geometry module owns each lattice's generator basis. Public and basis
ids differ only on HP; the geometry module's docstring lists the places
that convert them. The public functions take and return public ids.

A sensor at point p finds its cell without search. The four tessellations
are the Voronoi cells of four classical lattices: CB is Z^3, RD the
face-centered cubic D3, TO the body-centered cubic D3* and HP the
hexagonal lattice times Z. In the scaled coordinates y = (p - sink) / scale
of ``geometry.lattice_basis``, each is the rectangular lattice diag(P) Z^3
or the union of it and its shift by 1 along every axis of period 2
(``geometry.coset_period``). The nearest point of such a union takes one
rounding per coset and a comparison (Conway & Sloane, "Fast quantizing and
decoding algorithms for lattice quantizers and codes", IEEE Trans. IT 28(2),
1982), and one rule serves all four shapes: round y to the nearest point
of diag(P) Z^3, at distance a_i along axis i; the nearest point of the
shifted coset is one step toward y on each period-2 axis, at 1 - a_i there,
so it is the nearer point when the sum of w_i (a_i - 1/2) over those axes
is positive, w_i being the squared scale of axis i. CB, with one coset, is
plain rounding. The basis ids are M^-1 times the chosen point.
``assign_cells`` runs this rule on arrays of points (``_decode``);
``assign_cell``, the call of one sensor, runs it for one point step for
step in Python floats, with no numpy call, and gives the same ids. Both
read the rule's constants (the sink, scale, period, weights, threshold,
M^-1 and the domain bound) from one record of Python numbers that
``LatticeSpec`` derives once, ``LatticeSpec.rule``, so they use the same
numbers and flag the same points as ties.

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
with them. It enumerates an id window around the
rounded solution but scores only the candidates that can still win: the
covering radius of each lattice is the cell circumradius R (every point
lies within R of its nearest center), so the nearest center and every
center tied with it lie within |p - c| + R of the window's middle center
c, and a candidate beyond that can neither win nor tie. |p - c| is at most
the longest half-diagonal of the rounding box M [-1/2, 1/2]^3 in scaled
units, so the kept candidates come from the spec. It ranks them by the
score |c|^2 - 2 c.q, c being a candidate's offset from the middle center
and q = p - that center, in one matrix product per block: the squared
distance |q - c|^2 less |q|^2, which the point's candidates share and
which is left out. The rigorous bound on the rounding error of the float
scores comes from the spec too; candidates and bound are built once per
spec and window and cached. The scores decide every point whose runner-up
is farther than the bound, and the rest are re-scored exactly in
integers, so the result, ties included, is that of the full window and of
exact arithmetic.

The cheaper nearest-integer shortcut rounds each coordinate of the TO
solution independently; it is wrong for 3/8 of random points (the rounding
box and the cell disagree on that much volume) and is kept only to quantify
that failure rate.

The three bulk paths, ``assign_cells``, ``assign_cells_oracle`` and
``assign_cells_nearest_int``, share one block driver, ``_blocks``: it forms
p - sink as (3, rows) columns ``_CHUNK`` rows at a time, checks the domain,
hands the block to the path's scorer (``_decode``, ``_oracle`` or
``_nearest_int``), which returns basis ids, and stores them as public ids;
it chooses no id itself. Its p - sink buffer and the decoder's scratch
(``_work``) are allocated once per call, not per block. The decoder is
``_lattice_points``, the nearest lattice point y, then M^-1 y; the oracle
is ``_nearest_int``, then ``_oracle_at`` that rounding. The experiments
run the same p - sink step (``_relative``) on their blocks, with buffers
of their own: the lifetime simulation counts ``_lattice_points``' y, and
the accuracy experiment hands one p - sink to ``_decode`` and
``_nearest_int``, and that rounding to ``_oracle_at``.
Points farther than ``MAX_STEPS`` lattice steps
from the sink along any axis are rejected with ``ValueError``, and so are
specs outside ``MAX_MAGNITUDE``, whose squares could overflow or
underflow, and specs whose step the floats near the sink cannot resolve
(``MAX_TOL``).
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache, partial
from typing import NamedTuple

from .geometry import (
    MAX_STEPS,
    MAX_WINDOW,
    _BASES,
    _INVERSES,
    _METRIC,
    _PERIODS,
    CellShape,
    _floats,
    _Frozen,
    _per_axis,
    _scale,
    as_point,
    cell_spacing,
    center_offsets,
    lattice_basis,
    max_cell_radius,
    neighbor_classes,
    to_public_ids,
)

# Supported domain: every coordinate of p - sink within MAX_STEPS lattice
# steps (``geometry.MAX_STEPS``, whose id conversions check unsigned ids).
# Supported magnitudes: a spec's step is at least 1 / MAX_MAGNITUDE and its
# |sink|inf + MAX_STEPS steps at most MAX_MAGNITUDE = 2^500 m. Every square
# and product that the oracle and the CLI's distance column form then stays
# below 2^1000, so none overflows, and the oracle's filter tolerance stays
# above 2^-1027, far above the 2^-1074 an underflow can move a square by.
MAX_MAGNITUDE = 2.0 ** 500
# Supported resolution: a spec's tie tolerance ``rule.tol``, which grows as
# the float spacing at the sink over the lattice step, is at most MAX_TOL.
# The decoder flags about 3 to 6 tol of random points for the exact tie
# step, so at most a few per million; a tol near 1 means the step is near
# that spacing, where centers round onto each other and ids depend on the
# oracle's window
MAX_TOL = 2.0 ** -20
# rows that every bulk loop (the block driver of the three bulk assigners,
# the experiments' draws and tallies) handles at once; of 4,096 to 65,536
# rows, 8,192 ran the accuracy experiment fastest. A block's arrays, 192 KiB
# per (3, rows) float array and about 2 MiB for the oracle's
# (candidates, rows) scores, stay in cache. The allocator need not keep
# them for the next block: glibc maps arrays of that size, or trims them
# off the heap's top, when they are freed, so one made afresh in every
# block can be faulted in again in every block. The p - sink buffers and
# the decoder's scratch (``_work``) of the driver and of both experiments
# are made once per call and fault in once; the oracle, a reference only,
# still makes its arrays in every block: held for the call, its (27, rows)
# scores, mask and index product lifted the accuracy run's tracemalloc
# peak at 1e6 points from 3.6 to 4.0-4.4 MiB and gained no time
_CHUNK = 1 << 13


class CellId(NamedTuple):
    """Integer lattice coordinates naming one cell."""

    u: int
    v: int
    w: int


class _Rule(NamedTuple):
    """The nearest-point rule's constants of one spec, as Python numbers."""

    sink: tuple[float, float, float]
    scale: tuple[float, float, float]  # per-axis scale of ``geometry.lattice_basis``
    divisor: tuple[float, float, float]  # scale * period
    period: tuple[int, int, int]  # ``geometry.coset_period``
    weight: tuple[float, float, float]
    threshold: float
    inverse: tuple[tuple[float, float, float], ...]  # rows of M^-1
    reach: float  # MAX_STEPS * step
    tol: float  # decisions this close to a tie go to the exact tie step


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
        step = cell_spacing(shape, R)[0]
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
        tol = (2.0 ** -52 * (max(map(abs, sink)) + 4.0 * MAX_STEPS * step) / min(scale)
               * max(1.0, sum(weight)))
        if tol > MAX_TOL:
            raise ValueError(f"the lattice step ({step:.6g} m) is too fine for the floats at "
                             f"the sink: its tie tolerance ({tol:.3g}) must be at most 2^-20")
        self._set(shape=shape, r_t=float(r_t), sink=sink, circumradius=R, step=step,
                  rule=_Rule(sink, scale, tuple(s * p for s, p in zip(scale, period)), period,
                             weight, 0.5 * (weight[0] + weight[1] + weight[2]),
                             _INVERSES[shape], MAX_STEPS * step, tol))


def cell_centers(spec: LatticeSpec, ids) -> np.ndarray:
    """Centers for an array of ids of shape (..., 3): the sink plus
    ``center_offsets``, added column by column (``geometry._per_axis``).

    The ids must be an integer array within MAX_STEPS + 2 of zero on each
    axis, as ``as_cell_id`` requires of one id; others raise ``ValueError``.
    """
    import numpy as np

    # center_offsets refuses ids of a non-integer dtype, before the range
    # check compares them
    offsets = center_offsets(spec.shape, spec.circumradius, ids)
    ids = np.asarray(ids)
    if ids.size and not -(MAX_STEPS + 2) <= ids.min() <= ids.max() <= MAX_STEPS + 2:
        raise ValueError(f"cell ids must lie within {MAX_STEPS + 2} of zero on each axis")
    return _per_axis(offsets, shift=spec.sink)


def _center(spec: LatticeSpec, cid) -> tuple[float, float, float]:
    """Center of the public id ``cid`` in Python floats, the doubles that
    ``cell_centers`` gives: the basis ids times M are small integers, exact
    in float, so sink + that * scale takes the same two roundings."""
    u, v, w = cid
    if spec.shape is CellShape.HP:
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
    divided by scale in place; the rows ``p`` are not read. Each row of
    M^-1 holds at most two nonzero binary fractions, so each real id is one
    rounding of its exact value, whatever the order of the sums."""
    import numpy as np

    rel /= np.array(spec.rule.scale)[:, None]
    ids = np.array(spec.rule.inverse) @ rel
    ids += np.copysign(0.5, ids)
    return np.trunc(ids, out=ids)


def _work(rows: int) -> list:
    """The decoder's scratch for one call, sliced to each block's rows: its
    lattice points y and distances a, (3, rows) floats, the coset margin,
    (rows,) floats, and (rows,) and (3, rows) bools for the ties."""
    import numpy as np

    flags = np.empty((4, rows), dtype=bool)
    return [*np.empty((2, 3, rows)), np.empty(rows), flags[0], flags[1:]]


def _lattice_points(spec: LatticeSpec, p: np.ndarray, rel: np.ndarray, work: list) -> np.ndarray:
    """The decoder's lattice points y, nearest to the rows ``p`` (rows, 3)
    in the scaled coordinates of ``geometry.lattice_basis``, given their
    p - sink columns ``rel`` (3, rows), which it overwrites, and the call's
    scratch ``work`` (``_work``): (3, rows) float columns of integers, in
    ``work``, whose basis ids are M^-1 y.

    The columns whose decision is within the rule's ``tol`` of a tie are
    settled by ``_settle``. ``assign_cell`` is the same rule for one point,
    step for step.
    """
    import numpy as np

    _, _, divisor, period, weight, threshold, _, _, tol = spec.rule
    period = np.array(period, dtype=float)[:, None]
    near, a, margin, tie, over = (w[..., :rel.shape[1]] for w in work)
    # near: the nearest point of diag(P) Z^3 to t = rel / scale, and
    # err = t - near, both exact; every temporary is written into rel or
    # the scratch, as a chunk's fresh arrays cost more than the arithmetic
    err = rel
    err /= np.array(divisor)[:, None]
    np.rint(err, out=near)
    err -= near
    err *= period
    near *= period
    np.abs(err, out=a)
    if threshold:  # a second coset, shifted on the period-2 axes; CB has none
        # its nearest point is near + sign(err) on the period-2 axes, 1 - a
        # away there instead of a: it is the nearer point when the weighted
        # sum of a - 1/2 over those axes is positive
        np.matmul(np.array(weight), a, out=margin)
        margin -= threshold
        # the step sign(err) (P - 1) of the columns that take it, in err
        step = np.copysign(period - 1.0, err, out=err)
        near += np.multiply(step, np.greater(margin, 0, out=tie), out=step)
        a -= np.abs(step, out=step)
        np.abs(a, out=a)
    # ties: the chosen coset's rounding at a half, or two cosets equally near
    np.any(np.greater_equal(a, 0.5 * period - tol, out=over), axis=0, out=tie)
    if threshold:
        tie |= np.less_equal(np.abs(margin, out=margin), tol, out=over[0])
    for i in np.flatnonzero(tie).tolist():
        near[:, i] = _settle(spec, p[i].tolist())
    return near


def _decode(spec: LatticeSpec, p: np.ndarray, rel: np.ndarray, work: list) -> np.ndarray:
    """The decoder, ``assign_cells``' scorer of ``_blocks``: the basis ids
    M^-1 y of ``_lattice_points``, as (3, rows) float columns in ``rel``."""
    import numpy as np

    return np.matmul(np.array(spec.rule.inverse), _lattice_points(spec, p, rel, work), out=rel)


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
    sink, scale, _, period, _, threshold, inverse, _, _ = spec.rule
    t = [(x - o) / k for x, o, k in zip(xyz, sink, scale)]
    cands = []
    for shift in (0, 1) if threshold else (0,):
        axes = [{s + P * math.floor((r - s) / P), s + P * math.ceil((r - s) / P)}
                for r, P, s in zip(t, period, [shift * (P - 1) for P in period])]
        cands += itertools.product(*axes)
    # exact squared distances along each axis, once per distinct value: in
    # units of 1 / D the integers span only the floats' exponents, some 55
    # bits for coordinates of like magnitude, not the 1,075 of units of 2^-1074
    point = [x.as_integer_ratio() for x in xyz]
    centers = [{y: (o + y * k).as_integer_ratio() for y in set(ys)}
               for o, k, ys in zip(sink, scale, zip(*cands))]
    bits = max(d for _, d in itertools.chain(point, *(c.values() for c in centers))).bit_length()
    sq = [{y: ((n << bits - d.bit_length()) - (m << bits - e.bit_length())) ** 2
           for y, (m, e) in cs.items()} for (n, d), cs in zip(point, centers)]
    d2 = [sq[0][y0] + sq[1][y1] + sq[2][y2] for y0, y1, y2 in cands]
    low = min(d2)

    def public(y):  # the public id of the basis id M^-1 y, for the tie-break
        u, v, w = (m0 * y[0] + m1 * y[1] + m2 * y[2] for m0, m1, m2 in inverse)
        return u + v // 2 * (spec.shape is CellShape.HP), v, w

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


def _blocks(spec: LatticeSpec, points, score) -> np.ndarray:
    """Public ids of the rows of ``points`` as an (n, 3) int64 array, from
    the scorer ``score``, ``_CHUNK`` rows at a time.

    The points are read as real floats (``geometry._floats``) and must have
    shape (n, 3). Each block's p - sink (``_relative``), in one buffer per
    call, goes with the block's rows p to ``score(spec, p, rel)``, which
    returns their basis ids as (3, rows) columns and may overwrite ``rel``;
    the decoder also gets its scratch (``_work``), allocated once per call.
    The ids are stored as the block's int64 rows, and on HP become public
    ids there, u + floor(v / 2).
    """
    import numpy as np

    pts = np.atleast_2d(_floats(points))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected points of shape (n, 3), got {pts.shape}")
    out = np.empty((len(pts), 3), dtype=np.int64)
    buf = np.empty((3, min(len(pts), _CHUNK)))
    score = partial(_decode, work=_work(buf.shape[1])) if score is _decode else score
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
    return _blocks(spec, points, _decode)


_PLAIN = (float, int)
# numpy's array type and float64 dtype, for the fast read of ``_coords``,
# bound by its first call that takes the ``as_point`` path: no point is an
# array before numpy is imported, and reading a global costs a sensor's call
# far less than an ``import`` statement would
_ndarray = _float64 = None


def _coords(p, what: str = "point") -> list[float]:
    """The coordinates of ``as_point(p, what)`` as Python floats, not yet
    checked to be finite: read without numpy from a float64 array of shape
    (3,) or a tuple or list of three Python ints and floats, through
    ``as_point``, with its errors, otherwise."""
    global _ndarray, _float64
    if type(p) is _ndarray and p.dtype is _float64 and p.shape == (3,):
        return p.tolist()
    if (type(p) is tuple or type(p) is list) and len(p) == 3:
        x, y, z = p
        if type(x) in _PLAIN and type(y) in _PLAIN and type(z) in _PLAIN:
            return [float(x), float(y), float(z)]
    import numpy as np

    _ndarray, _float64 = np.ndarray, np.dtype(np.float64)
    return as_point(p, what).tolist()


def assign_cell(spec: LatticeSpec, p) -> CellId:
    """Cell id of a single point, the one ``assign_cells`` gives it.

    ``_decode`` for one point, step for step in Python floats and ints with
    no numpy call: the few dozen operations a sensor needs to find its cell
    from its own location, and ``_settle``'s exact tie step for a point
    within the rule's ``tol`` of a tie. Invalid points raise the errors of
    ``as_point`` and of the domain check.
    """
    sink, _, divisor, period, weight, threshold, inverse, reach, tol = spec.rule
    xyz = _coords(p)
    rx, ry, rz = xyz[0] - sink[0], xyz[1] - sink[1], xyz[2] - sink[2]
    if not (abs(rx) <= reach and abs(ry) <= reach and abs(rz) <= reach):
        as_point(p)  # raises for coordinates that are not finite
        raise _reach_error(spec)
    # n: the nearest point of diag(P) Z^3 to t = rel / scale, and e = t - n,
    # both exact; round, like np.rint, takes halves to even
    px, py, pz = period
    tx, ty, tz = rx / divisor[0], ry / divisor[1], rz / divisor[2]
    nx, ny, nz = round(tx), round(ty), round(tz)
    ex, ey, ez = (tx - nx) * px, (ty - ny) * py, (tz - nz) * pz
    nx, ny, nz = nx * px, ny * py, nz * pz
    ax, ay, az = abs(ex), abs(ey), abs(ez)
    tie = False
    if threshold:  # a second coset, shifted on the period-2 axes; CB has none
        margin = weight[0] * ax + weight[1] * ay + weight[2] * az - threshold
        if margin > 0:
            sx, sy, sz = px - 1, py - 1, pz - 1
            nx += sx if ex >= 0 else -sx
            ny += sy if ey >= 0 else -sy
            nz += sz if ez >= 0 else -sz
            ax, ay, az = abs(ax - sx), abs(ay - sy), abs(az - sz)
        tie = abs(margin) <= tol
    if tie or ax >= 0.5 * px - tol or ay >= 0.5 * py - tol or az >= 0.5 * pz - tol:
        nx, ny, nz = _settle(spec, xyz)
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = inverse
    u = int(m00 * nx + m01 * ny + m02 * nz)
    v = int(m10 * nx + m11 * ny + m12 * nz)
    w = int(m20 * nx + m21 * ny + m22 * nz)
    if spec.shape is CellShape.HP:
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
    return _blocks(spec, points, _nearest_int)


def _check_to(spec: LatticeSpec) -> None:
    if spec.shape is not CellShape.TO:
        raise ValueError("nearest-integer assignment is only defined for the TO lattice")


def assign_cell_nearest_int(spec: LatticeSpec, p) -> CellId:
    """The id ``assign_cells_nearest_int`` gives one point, in Python floats
    with no numpy call, and with its errors: those of ``as_point``, of the
    shape and of the domain check, in that order.

    TO's rows of M^-1 hold at most two nonzero binary fractions, so each
    real id f is one rounding of its exact value in any order of the sums,
    and halves go away from zero as in ``_nearest_int``, not to even as
    with ``round``.
    """
    xyz = _coords(p)
    if not all(map(math.isfinite, xyz)):
        as_point(p)  # raises for coordinates that are not finite
    _check_to(spec)
    sink, scale, _, _, _, _, inverse, reach, _ = spec.rule
    rel = [c - s for c, s in zip(xyz, sink)]
    if not max(map(abs, rel)) <= reach:
        raise _reach_error(spec)
    tx, ty, tz = (r / k for r, k in zip(rel, scale))
    f = (m0 * tx + m1 * ty + m2 * tz for m0, m1, m2 in inverse)
    return _cell_id(tuple(math.trunc(x + math.copysign(0.5, x)) for x in f))


def assign_cells_oracle(spec: LatticeSpec, points, window: int = 3) -> np.ndarray:
    """Exhaustive-search assignment over a (2*window+1)^3 id neighborhood.

    Ground truth for the constant-time method. Returns, for each point p,
    the id whose center, as ``cell_centers`` computes it, is nearest to p in
    exact arithmetic; among exactly equidistant centers it returns the
    smallest (u, v, w). It enumerates every basis id within ``window`` of
    the rounded real solution. Centers further than the window are farther
    away than any candidate inside it, so window >= 2 is already exhaustive
    in effect; the default of 3 leaves margin, and windows above MAX_WINDOW
    only cost time and memory, so they are refused.

    Each call scores only the window's candidates within H + R of the
    rounded center, H being the longest half-diagonal of the rounding box
    M [-1/2, 1/2]^3 in scaled units, which bounds |q| for
    q = p - center(rounded id), widened by a bound on the rounding of q and
    of the computed centers, which grows with |sink| and the domain's
    reach. The lattice's covering radius is the cell circumradius R, so the
    nearest center is within R of p, and any candidate farther than
    |q| + R from the rounded center is farther than R from p: it can
    neither win nor tie. The cut and the float filter's tolerance come from
    the spec alone, built once per spec and window, so a point's id depends
    on the spec and the point, not on the other points of its call. The
    kept candidates, at offsets c from the rounded center, are ranked by
    the score |c|^2 - 2 c.q, all of a block's in one matrix product: their
    squared distance |q - c|^2 less the point's own |q|^2, which they all
    share. The scores are a floating-point filter with an exact fallback
    (Shewchuk, "Adaptive precision floating-point arithmetic and fast
    robust geometric predicates", DCG 18, 1997): they decide every point
    whose runner-up is farther than a rigorous bound on their rounding
    error, and the points within it are re-scored exactly in integers,
    every float being an integer times a power of two.
    """
    if not 2 <= window <= MAX_WINDOW:
        raise ValueError(f"oracle window must be between 2 and {MAX_WINDOW}")
    return _blocks(spec, points, partial(_oracle, window=window))


class _OracleTable(NamedTuple):
    """The oracle's kept candidates of one spec and window, read-only."""

    offs: np.ndarray  # (3, k) int64 basis-id offsets, columns in lexicographic order
    score: np.ndarray  # (k, 4) rows [-2 doff | |doff|^2] of their center displacements doff
    tol: float  # the float filter's bound on the rounding error of the scores
    index: np.ndarray  # (k, 1) int16 candidate numbers 0 .. k - 1


# A spec is frozen and hashes by identity, so each spec and window has one
# table; the cache holds the most recent ones, and their specs, alive.
@lru_cache(maxsize=32)
def _oracle_table(spec: LatticeSpec, window: int) -> _OracleTable:
    """The candidates ``_oracle`` scores for ``spec`` and ``window``, and the
    float filter's tolerance: computed from the spec alone, once."""
    import numpy as np

    # basis-id offsets in lexicographic order and their center displacements
    offs = np.indices((2 * window + 1,) * 3, dtype=np.int64).reshape(3, -1).T - window
    basis, scale = lattice_basis(spec.shape, spec.circumradius)
    doff = (offs @ basis.T) * scale
    # each candidate's row [-2 doff | |doff|^2]
    score = np.hstack([-2.0 * doff, (doff * doff).sum(axis=1, keepdims=True)])
    # A candidate center is center(base) + doff, base being the rounded real
    # solution, and its squared distance is |q - doff|^2 = |q|^2 + s with
    # the score s = |doff|^2 - 2 doff.q, q = p - center(base) and
    # center(base) computed by the operations of cell_centers, to the same
    # doubles. |q|^2 is the same for every candidate of a point, so the
    # scores rank them as the distances do, and differ as they do.
    # Rounding error, with u = 2^-53, from the spec alone: on every axis
    # |sink| + |p| <= A = 2|sink|inf + reach (the domain check), every
    # coordinate of q and of a kept doff is within L, and of a center offset
    # within A + L, where L < 2^-10 A as A >= reach = 2^19 steps. A center
    # from cell_centers is within u(|sink| + 2|offset|) <= 3u(A + L) of
    # sink + offset on each axis, q within uL of p - center(base) and doff
    # within uL of its offset, so each coordinate of q - doff is within
    # 8u(A + L) of the exact p - center.
    # |q|: the real solution, its coordinates below 2^20, is within a few
    # roundings of 2^-33, under 2^-30, of its float, and base within
    # 1/2 + 2^-33 of that, so the exact q is scale * M delta with
    # |delta|inf <= 1/2 + 2^-29: at most (1 + 2^-28) H, H the longest
    # half-diagonal of M [-1/2, 1/2]^3 in scaled units (2^-27 also covers
    # the rounding of H). The computed q adds 4 sqrt3 u(A + L) < 2^-49 A.
    far = 2.0 * max(map(abs, spec.sink)) + spec.rule.reach
    corners = (np.indices((2, 2, 2)).reshape(3, -1).T - 0.5) @ basis.T * scale
    size = math.sqrt((corners * corners).sum(axis=1).max()) * (1.0 + 2.0 ** -27) + 2.0 ** -48 * far
    # The cut: the lattice point nearest p is within the covering radius R
    # of p, and its center as computed within 3 sqrt3 u(A + L) of it, so
    # the nearest center and every center tied with it are within
    # R + 3 sqrt3 u(A + L) of p, and their q - doff within
    # R + 11 sqrt3 u(A + L) < R + 2^-47 A in length. A candidate with
    # |doff| > |q| + R + 2^-47 A can thus neither win nor tie, and the
    # relative slack covers the rounding of the comparison itself.
    keep = score[:, 3] <= ((size + spec.circumradius + 2.0 ** -47 * far) * (1.0 + 1e-9)) ** 2
    size += np.abs(doff[keep]).max()
    # The filter, with L = max|q| + m, m = max|doff|inf over the kept
    # candidates. In exact arithmetic on the floats q and doff, the score
    # plus |q|^2 is |q - doff|^2, which the error of 8u(A + L) on each
    # coordinate of q - doff, itself within L, moves from the exact
    # distance by at most 3 (2L + 8u(A + L)) 8u(A + L) < 49uL(A + L), as
    # MAX_TOL keeps A below 2^34 L. Evaluating the score: the stored
    # |doff|^2, a sum of three squares, is within g3 |doff|^2 <= 3 g3 m^2
    # of its exact value (gn = nu / (1 - nu)); the product score @ [q; 1]
    # is a 4-term inner product, and in any order of its sums, with or
    # without fused multiply-adds, its error is at most
    # g4 (2 sum|doff_i q_i| + |doff|^2) <= g4 (2 sqrt3 m (L - m) + 3.01 m^2)
    # <= 3.01 g4 L^2 (Higham, Accuracy and Stability of Numerical
    # Algorithms, ch. 3). So every score is within
    # e = 49uL(A + L) + 22uL^2 < 64uL(A + L) of the exact squared distance
    # minus the float |q|^2, a shift shared by the point's candidates. With
    # tol = 4e, a row with no second candidate within tol of its minimum
    # has one exact winner, which is also the argmin of any float
    # evaluation within e; the others are flagged, every exact winner among
    # their close candidates. Rounding min + tol moves it by u(4L^2 + tol)
    # at most, well inside the factor 2 of slack.
    tol = 2.0 ** -45 * size * (size + far)
    # the at most (2 MAX_WINDOW + 1)^3 = 4913 candidates are counted and
    # indexed in int16
    table = _OracleTable(np.ascontiguousarray(offs[keep].T), score[keep], tol,
                         np.arange(keep.sum(), dtype=np.int16)[:, None])
    for array in (table.offs, table.score, table.index):
        array.flags.writeable = False
    return table


def _oracle(spec: LatticeSpec, p: np.ndarray, rel: np.ndarray, window: int) -> np.ndarray:
    """The oracle, a scorer of ``_blocks``: basis ids of
    ``assign_cells_oracle`` for the rows ``p`` (rows, 3), given their
    p - sink columns ``rel`` (3, rows), which it overwrites, as (3, rows)
    int64 columns: ``_oracle_at`` the rounded real solution."""
    return _oracle_at(spec, p, _nearest_int(spec, p, rel), window)


def _oracle_at(spec: LatticeSpec, p: np.ndarray, base: np.ndarray, window: int) -> np.ndarray:
    """The oracle's ids for the rows ``p`` from ``base``, their rounded real
    solution (``_nearest_int``), which it only reads: the float filter over
    the spec's candidate table around base, then the exact re-score of the
    rows it flags."""
    import numpy as np

    offs, score, tol, index = _oracle_table(spec, window)
    # q = p - center(base), the center computed as cell_centers does:
    # sink + (M base) scale, M base being exact, one axis at a time; in rows
    # 0 to 2 of q1, whose row 3 is ones, so that score @ q1 gives every
    # candidate's score in one product
    q1 = np.empty((4, len(p)))
    q1[3] = 1.0
    basis = lattice_basis(spec.shape, spec.circumradius)[0]
    q = _per_axis(np.matmul(basis, base, out=q1[:3]).T, spec.rule.scale, spec.sink).T
    np.subtract(p.T, q, out=q)
    base = base.astype(np.int64)
    scores = score @ q1
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
    flagged = np.flatnonzero(close.sum(axis=0, dtype=np.int16) > 1)
    if not len(flagged):
        return ids
    # the flagged rows' close candidates, scored exactly: every float is
    # m 2^e with an integer m of 53 bits, so the coordinates become
    # Python ints in units of the smallest 2^e among them, and so do the
    # squared distances
    pair, k = np.nonzero(close[:, flagged].T)
    cand = base.T[flagged[pair]] + offs.T[k]
    pub = to_public_ids(spec.shape, cand)
    m, e = np.frexp(np.vstack([p[flagged], cell_centers(spec, pub)]))
    x = np.ldexp(m, 53).astype(np.int64).astype(object) << (e - e.min()).astype(object)
    diff = x[pair] - x[len(flagged):]
    d2 = (diff * diff).sum(axis=1)
    # the nearest center wins, and among exactly equidistant ones the
    # smallest public id; pair runs over every flagged row in order
    rows = np.arange(len(flagged))
    win = np.flatnonzero(d2 == np.minimum.reduceat(d2, np.searchsorted(pair, rows))[pair])
    win = win[np.lexsort((*pub[win].T[::-1], pair[win]))]
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
    ``operator.index``), and ids of the supported domain have every
    coordinate within MAX_STEPS + 2 of zero; other ids raise ``ValueError``
    naming ``what``.
    """
    try:
        u, v, w = map(operator.index, cid)
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
