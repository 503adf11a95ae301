"""Integer cell addressing for the four space-filling tessellations.

Every cell is named by an integer triple (u, v, w), its public offset id.
Cell centers are anchored at the information sink: center = sink +
center_offsets(shape, R, (u, v, w)) with R = max_cell_radius(shape, r_t).
The geometry module owns each lattice's generator basis and the one
conversion between public and basis ids, which differ only on HP. The
decoder, the oracle's candidate table and the neighbor table work in
basis ids; the public functions take and return public ids.

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
step in Python floats, with no numpy call, and gives the same ids.

Every point p gets the id whose center, as ``cell_centers`` computes it,
is nearest to p in exact arithmetic; among exactly equidistant centers, on
cell boundaries, it gets the smallest (u, v, w). The rule settles every
point whose decision is more than a small tolerance away from a tie; the
rare points within it go to ``assign_cells_oracle``, the brute-force search
that is also the reference the decoder is tested against. The oracle
shares nothing with the decoder. It enumerates an id window around the
rounded solution but scores only the candidates that can still win: the
covering radius of each lattice is the cell circumradius R (every point
lies within R of its nearest center), so the nearest center and every
center tied with it lie within |p - c| + R of the window's middle center
c, and a candidate beyond that can neither win nor tie. Float distances
decide every point whose runner-up is farther than a rigorous bound on
their rounding error; the rest are re-scored exactly in integers, so the
result, ties included, is that of the full window and of exact
arithmetic. Points farther than ``MAX_STEPS`` lattice steps from the sink
along any axis are rejected with ``ValueError``.

The cheaper nearest-integer shortcut rounds each coordinate of the TO
solution independently; it is wrong for 3/8 of random points (the rounding
box and the cell disagree on that much volume) and is kept only to quantify
that failure rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .geometry import (
    CellShape,
    as_point,
    cell_spacing,
    center_offsets,
    coset_period,
    lattice_basis,
    max_cell_radius,
    neighbor_classes,
    to_basis_ids,
    to_public_ids,
)

# Supported domain: every coordinate of p - sink within MAX_STEPS lattice
# steps, the step being the shape's first spacing constant (CB s, RD R/sqrt2,
# TO d, HP hexagon side a). Ids then stay within MAX_STEPS + 2 of zero, exact
# in float arithmetic, and an id triple packs into one int64 key.
MAX_STEPS = 2 ** 19
# largest oracle window: windows >= 2 all give the same ids, at (2w+1)^3 rows
MAX_WINDOW = 8
# decisions this close to a tie, in lattice units, go to the exhaustive search
_TIE_TOL = 1e-8
# rows decoded at once, bounding the decoder's temporaries
_CHUNK = 1 << 16
# rows the oracle scores at once, bounding its (candidates, rows) arrays; the
# candidates it keeps are the centers within reach, however wide the window
_ORACLE_ROWS = 1 << 13
_FLOAT64 = np.dtype(np.float64)


class CellId(NamedTuple):
    """Integer lattice coordinates naming one cell."""

    u: int
    v: int
    w: int


class _PointRule(NamedTuple):
    """``_decode``'s constants of one spec as Python numbers, for ``assign_cell``."""

    sink: tuple[float, float, float]
    divisor: tuple[float, float, float]  # scale * period
    period: tuple[int, int, int]
    weight: tuple[float, float, float]
    threshold: float
    inverse: tuple[tuple[float, float, float], ...]  # rows of M^-1
    reach: float  # MAX_STEPS * step


@dataclass(frozen=True, eq=False)
class LatticeSpec:
    """Complete tessellation description: shape, transmission range, sink."""

    shape: CellShape
    r_t: float
    sink: np.ndarray = (0.0, 0.0, 0.0)
    # derived once: the circumradius R at the maximum usable size for r_t,
    # ``geometry.lattice_basis`` and its inverse, ``geometry.coset_period``,
    # the decoder's weights and threshold, the domain step of MAX_STEPS, and
    # the same constants as Python numbers for the one-point decoder
    circumradius: float = field(init=False)
    basis: np.ndarray = field(init=False)
    scale: np.ndarray = field(init=False)
    inverse: np.ndarray = field(init=False)
    period: np.ndarray = field(init=False)
    weight: np.ndarray = field(init=False)
    threshold: float = field(init=False)
    step: float = field(init=False)
    point_rule: _PointRule = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "shape", CellShape(self.shape))
        if not (math.isfinite(self.r_t) and self.r_t > 0):
            raise ValueError("transmission range must be positive and finite")
        object.__setattr__(self, "r_t", float(self.r_t))
        object.__setattr__(self, "sink", as_point(self.sink, "sink"))
        R = max_cell_radius(self.shape, self.r_t)
        basis, scale = lattice_basis(self.shape, R)
        object.__setattr__(self, "circumradius", R)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "inverse", np.linalg.inv(basis))
        period = coset_period(self.shape)
        object.__setattr__(self, "period", period)
        # squared scale of the period-2 axes relative to axis 0, the
        # smallest: the metric in which the decoder compares its cosets, the
        # shifted one being nearer when weight @ a exceeds half its sum
        weight = (period == 2) * (scale / scale[0]) ** 2
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "threshold", 0.5 * float(weight.sum()))
        object.__setattr__(self, "step", cell_spacing(self.shape, R)[0])
        object.__setattr__(self, "point_rule", _PointRule(
            tuple(self.sink.tolist()), tuple((scale * period).tolist()),
            tuple(period.astype(int).tolist()), tuple(weight.tolist()), self.threshold,
            tuple(map(tuple, self.inverse.tolist())), MAX_STEPS * self.step))


def cell_centers(spec: LatticeSpec, ids) -> np.ndarray:
    """Centers for an array of ids of shape (..., 3)."""
    return spec.sink + center_offsets(spec.shape, spec.circumradius, ids)


def cell_center(spec: LatticeSpec, cid) -> np.ndarray:
    """Center of a single cell."""
    return cell_centers(spec, np.asarray(tuple(cid), dtype=np.int64))


def _fractional_ids(spec: LatticeSpec, rel: np.ndarray) -> np.ndarray:
    """Real-valued basis ids solving the center equations for rows of ``rel``."""
    return (rel / spec.scale) @ spec.inverse.T


def _decode(spec: LatticeSpec, rel: np.ndarray):
    """Nearest centers to the columns of ``rel`` (3, n), points relative to the sink.

    Returns their basis ids as a (3, n) float array of integers, and a mask
    of the points whose decision is within _TIE_TOL of a tie.
    """
    if spec.shape is CellShape.CB:  # one coset
        t = rel / spec.scale[:, None]
        near = np.rint(t)
        return near, (np.abs(t - near) >= 0.5 - _TIE_TOL).any(axis=0)
    # near: the nearest point of diag(P) Z^3 to t = rel / scale, and
    # err = t - near, both exact; the arithmetic runs in place, as a chunk's
    # temporaries cost more than the arithmetic itself
    period = spec.period[:, None]
    err = rel / (spec.scale * spec.period)[:, None]
    near = np.rint(err)
    err -= near
    err *= period
    near *= period
    a = np.abs(err)
    # the shifted coset's nearest point is near + sign(err) on the period-2
    # axes, 1 - a away there instead of a: it is the nearer point when the
    # weighted sum of a - 1/2 over those axes is positive
    margin = spec.weight @ a
    margin -= spec.threshold
    shift = (margin > 0) * (period - 1.0)
    near += np.copysign(shift, err, out=err)
    # ties: two cosets equally near, or the chosen coset's rounding at a half
    a -= shift
    tie = (np.abs(a, out=a) >= 0.5 * period - _TIE_TOL).any(axis=0)
    tie |= np.abs(margin) <= _TIE_TOL
    return spec.inverse @ near, tie


def _check_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    pts = np.atleast_2d(pts)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected points of shape (n, 3), got {pts.shape}")
    return pts


def _reach_error(spec: LatticeSpec) -> ValueError:
    return ValueError(
        f"point coordinates must be finite and within {MAX_STEPS} lattice steps "
        f"({MAX_STEPS * spec.step:.6g} m) of the sink along each axis")


def _check_reach(spec: LatticeSpec, rel: np.ndarray) -> None:
    """Reject offsets from the sink that are not finite or exceed MAX_STEPS."""
    if not np.abs(rel).max(initial=0.0) <= MAX_STEPS * spec.step:
        raise _reach_error(spec)


def assign_cells(spec: LatticeSpec, points) -> np.ndarray:
    """Cell ids for an (n, 3) array of points, as an (n, 3) integer array.

    Constant work per point: the closed-form nearest-point rule of the
    shape's lattice. The ids are those of ``assign_cells_oracle``: points
    equidistant from several centers go to the smallest (u, v, w), and
    only points within a rounding tolerance of such a tie are settled by
    the exhaustive search.
    """
    pts = _check_points(points)
    ids = np.empty((len(pts), 3), dtype=np.int64)
    for start in range(0, len(pts), _CHUNK):
        chunk = pts[start:start + _CHUNK]
        rel = (chunk - spec.sink).T.copy()
        _check_reach(spec, rel)
        block, tie = _decode(spec, rel)
        out = ids[start:start + _CHUNK]
        out[...] = block.T
        if tie.any():
            out[tie] = _oracle(spec, chunk[tie])
    return to_public_ids(spec.shape, ids)


def _coords(p) -> list[float]:
    """The coordinates of ``as_point(p)`` as Python floats, not yet checked to
    be finite: read without numpy from a float64 array of shape (3,),
    through ``as_point`` otherwise."""
    if type(p) is np.ndarray and p.dtype is _FLOAT64 and p.shape == (3,):
        return p.tolist()
    return as_point(p).tolist()


def assign_cell(spec: LatticeSpec, p) -> CellId:
    """Cell id of a single point, the one ``assign_cells`` gives it.

    ``_decode`` for one point, step for step in Python floats and ints with
    no numpy call: the few dozen operations a sensor needs to find its cell
    from its own location. Only a point within _TIE_TOL of a tie goes to the
    oracle. Invalid points raise the errors of ``as_point`` and of the
    domain check.
    """
    sink, divisor, period, weight, threshold, inverse, reach = spec.point_rule
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
        tie = abs(margin) <= _TIE_TOL
    if (tie or ax >= 0.5 * px - _TIE_TOL or ay >= 0.5 * py - _TIE_TOL
            or az >= 0.5 * pz - _TIE_TOL):
        u, v, w = _oracle(spec, np.array([xyz]))[0].tolist()
    else:
        (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = inverse
        u = int(m00 * nx + m01 * ny + m02 * nz)
        v = int(m10 * nx + m11 * ny + m12 * nz)
        w = int(m20 * nx + m21 * ny + m22 * nz)
    if spec.shape is CellShape.HP:
        u += v >> 1
    return _cell_id((u, v, w))


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.trunc(x + np.copysign(0.5, x))


def assign_cells_nearest_int(spec: LatticeSpec, points) -> np.ndarray:
    """Nearest-integer shortcut (TO only): round u, v, w independently.

    Halves round away from zero. Kept as the documented approximation; it
    misassigns 3/8 of uniformly random points, so callers wanting the true
    cell should use ``assign_cells``.
    """
    if spec.shape is not CellShape.TO:
        raise ValueError("nearest-integer assignment is only defined for the TO lattice")
    rel = _check_points(points) - spec.sink
    _check_reach(spec, rel)
    return _round_half_away(_fractional_ids(spec, rel)).astype(np.int64)


def assign_cell_nearest_int(spec: LatticeSpec, p) -> CellId:
    row = assign_cells_nearest_int(spec, as_point(p)[None, :])[0]
    return CellId(int(row[0]), int(row[1]), int(row[2]))


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

    Each chunk of points scores only the window's candidates within
    max|q| + R of the rounded center, q = p - center(rounded id), with a
    relative slack of 1e-9. The lattice's covering radius is the cell
    circumradius R, so the nearest center is within R of p, and any
    candidate farther than |q| + R from the rounded center is farther than
    R from p: it can neither win nor tie. The kept candidates are scored as
    a floating-point filter with an exact fallback (Shewchuk, "Adaptive
    precision floating-point arithmetic and fast robust geometric
    predicates", DCG 18, 1997): float distances decide every point whose
    runner-up is farther than a rigorous bound on their rounding error, and
    the points within it are re-scored exactly in integers, every float
    being an integer times a power of two.
    """
    if not 2 <= window <= MAX_WINDOW:
        raise ValueError(f"oracle window must be between 2 and {MAX_WINDOW}")
    pts = _check_points(points)
    _check_reach(spec, pts - spec.sink)
    return to_public_ids(spec.shape, _oracle(spec, pts, window))


def _oracle(spec: LatticeSpec, pts: np.ndarray, window: int = 3) -> np.ndarray:
    """Basis ids of ``assign_cells_oracle`` for the rows of ``pts`` (n, 3)."""
    # basis-id offsets in lexicographic order and their center displacements
    offs = np.indices((2 * window + 1,) * 3, dtype=np.int64).reshape(3, -1).T - window
    doff = (offs @ spec.basis.T) * spec.scale
    out = np.empty((len(pts), 3), dtype=np.int64)
    for i in range(0, len(pts), _ORACLE_ROWS):
        out[i:i + _ORACLE_ROWS] = _oracle_chunk(spec, pts[i:i + _ORACLE_ROWS], offs, doff)
    return out


def _oracle_chunk(spec, pts, offs, doff):
    """``_oracle`` on one chunk: the float filter, then the exact re-score of
    the rows it flags."""
    base = _round_half_away(_fractional_ids(spec, pts - spec.sink)).astype(np.int64)
    # candidate center = center(base) + doff[k]; distances as a (k, n) array
    # by the expansion |q - doff|^2 = |q|^2 - 2 doff.q + |doff|^2, with
    # q = p - center(base) as columns
    q = (pts - cell_centers(spec, to_public_ids(spec.shape, base))).T.copy()
    q2 = (q * q).sum(axis=0)
    # the nearest center is within R of p, so a candidate with
    # |doff| > |q| + R can neither win nor tie; the slack keeps exact ties
    doff2 = (doff * doff).sum(axis=1)
    keep = doff2 <= ((math.sqrt(q2.max()) + spec.circumradius) * (1.0 + 1e-9)) ** 2
    offs, doff, doff2 = offs[keep], doff[keep], doff2[keep]
    d2 = (-2.0 * doff) @ q
    d2 += q2
    d2 += doff2[:, None]
    # Rounding error, with u = 2^-53, L = max|q| + max|doff| and
    # A = |sink| + max|p| (maxima over coordinates), so that every
    # coordinate of q - doff is within L and of a center or a center offset
    # within A + L: a center from cell_centers is within
    # u(|sink| + 2|offset|) <= 3u(A + L) of sink + offset on each axis, q
    # within uL of p - center(base) and doff within uL of its offset, so
    # each coordinate of q - doff is within 8u(A + L) of the exact
    # p - center, which moves d2 by at most 3 * 2L * 8u(A + L); evaluating
    # the expansion (sums of three terms, each within 3L^2) adds at most
    # 16uL^2. Every d2 is thus within e = 64uL(A + L) of its exact value.
    # With tol = 4e, a row with no second candidate within tol of its
    # minimum has one exact winner, which is also the argmin of any float
    # evaluation within e; the others are flagged.
    size = np.abs(q).max() + np.abs(doff).max()
    tol = 2.0 ** -45 * size * (size + np.abs(spec.sink).max() + np.abs(pts).max())
    close = d2 <= d2.min(axis=0) + tol
    # the first close candidate, on an unflagged row the only one
    ids = base + offs[close.argmax(axis=0)]
    flagged = np.flatnonzero(close.sum(axis=0) > 1)
    if not len(flagged):
        return ids
    # the flagged rows' close candidates, scored exactly: every float is
    # m 2^e with an integer m of 53 bits, so the coordinates become Python
    # ints in units of the smallest 2^e among them, and so do the squared
    # distances
    pair, k = np.nonzero(close[:, flagged].T)
    cand = base[flagged[pair]] + offs[k]
    pub = to_public_ids(spec.shape, cand)
    m, e = np.frexp(np.vstack([pts[flagged], cell_centers(spec, pub)]))
    x = np.ldexp(m, 53).astype(np.int64).astype(object) << (e - e.min()).astype(object)
    diff = x[pair] - x[len(flagged):]
    d2 = (diff * diff).sum(axis=1)
    # the nearest center wins, and among exactly equidistant ones the
    # smallest public id; pair runs over every flagged row in order
    rows = np.arange(len(flagged))
    win = np.flatnonzero(d2 == np.minimum.reduceat(d2, np.searchsorted(pair, rows))[pair])
    win = win[np.lexsort((*pub[win].T[::-1], pair[win]))]
    ids[flagged] = cand[win[np.searchsorted(pair[win], rows)]]
    return ids


def assign_cell_oracle(spec: LatticeSpec, p, window: int = 3) -> CellId:
    row = assign_cells_oracle(spec, as_point(p)[None, :], window=window)[0]
    return CellId(int(row[0]), int(row[1]), int(row[2]))


# basis-id offsets of the first-tier neighbors of any cell, in the order of
# the neighbor classes and their generators, and the same rows as int tuples
# for the per-cell path of neighbors() and routing
_NEIGHBOR_OFFSETS = {
    shape: to_basis_ids(shape, [off for cls in neighbor_classes(shape)
                                for off in cls.offset_generators])
    for shape in CellShape
}
_NEIGHBOR_STEPS = {s: tuple(map(tuple, offs.tolist())) for s, offs in _NEIGHBOR_OFFSETS.items()}


def _neighbor_rows(shape: CellShape, cell) -> list[tuple[int, int, int]]:
    """Public ids of the first-tier neighbors of the public id ``cell``, as int
    tuples in the order of ``_NEIGHBOR_OFFSETS``.

    Python-int arithmetic only: HP's basis id is (a, v, w) with the axial
    a = u - (v >> 1), and back u = a + (v >> 1), the per-cell form of
    ``geometry.to_basis_ids`` and ``to_public_ids``; ``>>`` floors negative
    ints as int64 does.
    """
    u, v, w = cell
    if shape is CellShape.HP:
        a = u - (v >> 1)
        return [(a + du + ((v + dv) >> 1), v + dv, w + dw)
                for du, dv, dw in _NEIGHBOR_STEPS[shape]]
    return [(u + du, v + dv, w + dw) for du, dv, dw in _NEIGHBOR_STEPS[shape]]


# CellId from a row without the Python-level constructor; routing makes one
# per neighbor that makes progress on every hop
_cell_id = partial(tuple.__new__, CellId)


def as_cell_id(cid, what: str = "cell id") -> CellId:
    """``cid`` as a CellId of Python ints, checked to be an id of the domain.

    Ids of the supported domain have every coordinate within MAX_STEPS + 2
    of zero; farther ones raise ``ValueError`` naming ``what``.
    """
    u, v, w = map(int, cid)
    if max(abs(u), abs(v), abs(w)) > MAX_STEPS + 2:
        raise ValueError(f"{what} must lie within {MAX_STEPS + 2} of zero on each axis")
    return _cell_id((u, v, w))


def neighbors(spec: LatticeSpec, cid) -> list[CellId]:
    """All first-tier neighbor ids of a cell (14 TO, 18 RD, 20 HP, 26 CB).

    The cell must be an id of the domain (``as_cell_id``).
    """
    return list(map(_cell_id, _neighbor_rows(spec.shape, as_cell_id(cid))))
