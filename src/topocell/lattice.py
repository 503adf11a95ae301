"""Integer cell addressing for the four space-filling tessellations.

Every cell is named by an integer triple (u, v, w), its public offset id.
Cell centers are anchored at the information sink: center = sink +
center_offsets(shape, R, (u, v, w)) with R = max_cell_radius(shape, r_t).
The geometry module owns each lattice's generator basis and the one
conversion between public and basis ids, which differ only on HP. The
decoders, the oracle's candidate table and the neighbor table work in
basis ids; the public functions take and return public ids.

A sensor at point p finds its cell without search. The four tessellations
are the Voronoi cells of four classical lattices, and each lattice has a
closed-form nearest-point rule (Conway & Sloane, "Fast quantizing and
decoding algorithms for lattice quantizers and codes", IEEE Trans. IT 28(2),
1982):

* CB is Z^3 in units of s: round each coordinate.
* TO is the body-centered cubic lattice: in units of d, the integer points
  whose coordinates are all even or all odd. Round to the even coset 2Z^3
  and to the odd coset 2Z^3 + (1, 1, 1) and keep the nearer point.
* RD is the face-centered cubic lattice D3: in the coordinates
  ((x+y)/2q, (x-y)/2q, z/R), q = R/sqrt2, the integer points with an even
  coordinate sum. Round every coordinate; if the sum is odd, round the
  coordinate with the largest rounding error the other way.
* HP is the hexagonal lattice times Z: the even rows and the odd rows each
  form a rectangular lattice in the plane, so round to both and keep the
  nearer point; round w on its own.

Points equidistant from several centers go to the smallest (u, v, w). The
rules settle every point whose decision is more than a small tolerance
away from a tie; the rare points within it, exact ties included, go to
``assign_cells_oracle``, the brute-force search that is also the reference
the decoders are tested against. The oracle shares nothing with the
decoders. It enumerates an id window around the rounded solution but
scores only the candidates that can still win: the covering radius of each
lattice is the cell circumradius R (every point lies within R of its
nearest center), so the nearest center and every center tied with it lie
within |p - c| + R of the window's middle center c, and a candidate beyond
that can neither win nor tie. Dropping those candidates therefore leaves
the result, ties included, equal to that of the full window. Points
farther than ``MAX_STEPS`` lattice steps from the sink along any axis are
rejected with ``ValueError``.

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


class CellId(NamedTuple):
    """Integer lattice coordinates naming one cell."""

    u: int
    v: int
    w: int


@dataclass(frozen=True, eq=False)
class LatticeSpec:
    """Complete tessellation description: shape, transmission range, sink."""

    shape: CellShape
    r_t: float
    sink: np.ndarray = (0.0, 0.0, 0.0)
    # derived once: the circumradius R at the maximum usable size for r_t,
    # ``geometry.lattice_basis``, and the domain step of MAX_STEPS
    circumradius: float = field(init=False)
    basis: np.ndarray = field(init=False)
    scale: np.ndarray = field(init=False)
    step: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "shape", CellShape(self.shape))
        if not (math.isfinite(self.r_t) and self.r_t > 0):
            raise ValueError("transmission range must be positive and finite")
        object.__setattr__(self, "r_t", float(self.r_t))
        object.__setattr__(self, "sink", as_point(self.sink))
        R = max_cell_radius(self.shape, self.r_t)
        basis, scale = lattice_basis(self.shape, R)
        object.__setattr__(self, "circumradius", R)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "step", cell_spacing(self.shape, R)[0])


def cell_centers(spec: LatticeSpec, ids) -> np.ndarray:
    """Centers for an array of ids of shape (..., 3)."""
    return spec.sink + center_offsets(spec.shape, spec.circumradius, ids)


def cell_center(spec: LatticeSpec, cid) -> np.ndarray:
    """Center of a single cell."""
    return cell_centers(spec, np.asarray(tuple(cid), dtype=np.int64))


def _fractional_ids(spec: LatticeSpec, rel: np.ndarray) -> np.ndarray:
    """Real-valued basis ids solving the center equations for rows of ``rel``."""
    return (rel / spec.scale) @ np.linalg.inv(spec.basis).T


# Each decoder takes the basis scale as a (3, 1) column and the points
# relative to the sink as a (3, n) array. It returns the basis ids, through a
# fixed matrix, as a (3, n) float array of integers, plus a mask of the
# points whose decision is within _TIE_TOL of a tie.

# basis ids from the decoders' lattice coordinates: (2u+w, 2v+w, w) for TO,
# (u+v+w, u-v, w) for RD, (alpha + v/2, v/2, w) for HP
_TO_IDS = np.array([[0.5, 0.0, -0.5], [0.0, 0.5, -0.5], [0.0, 0.0, 1.0]])
_RD_IDS = np.array([[0.5, 0.5, -0.5], [0.5, -0.5, -0.5], [0.0, 0.0, 1.0]])
_HP_IDS = np.array([[1.0, -1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]])


def _decode_cb(scale: np.ndarray, rel: np.ndarray):
    t = rel / scale
    best = np.rint(t)
    return best, (np.abs(t - best) >= 0.5 - _TIE_TOL).any(axis=0)


def _decode_to(scale: np.ndarray, rel: np.ndarray):
    t = rel / scale
    even = 2.0 * np.rint(0.5 * t)
    err = t - even  # in [-1, 1]
    # the nearest odd point is even + sign(err) per coordinate, at distance
    # 1 - |err|, so it is the nearer point when sum(|err|) > 3/2
    a = np.abs(err)
    margin = a.sum(axis=0) - 1.5
    odd = margin > 0
    best = even + odd * np.sign(err)
    tie = (np.abs(margin) <= _TIE_TOL) | np.where(
        odd, a.min(axis=0) <= _TIE_TOL, a.max(axis=0) >= 1.0 - _TIE_TOL)
    return _TO_IDS @ best, tie


def _decode_rd(scale: np.ndarray, rel: np.ndarray):
    q, _, R = scale[:, 0]
    c = 0.5 / q  # to D3 coordinates (u+v+w, u-v, w), integers with an even sum
    t = np.array([[c, c, 0.0], [c, -c, 0.0], [0.0, 0.0, 1.0 / R]]) @ rel
    best = np.rint(t)
    err = t - best
    a = np.abs(err)
    amax = a.max(axis=0)
    odd = best.sum(axis=0) % 2 != 0
    best += np.copysign(odd & (a >= amax), err)  # re-round the worst coordinate
    # ties: a coordinate at a half, or two coordinates worst at once
    tie = (amax >= 0.5 - _TIE_TOL) | (odd & ((a >= amax - _TIE_TOL).sum(axis=0) > 1))
    return _RD_IDS @ best, tie


def _decode_hp(scale: np.ndarray, rel: np.ndarray):
    # HP is the one lattice decoded in its own coordinates: in
    # (S, T, W) = (x/(sqrt3 a), y/(3a), z/h), half the scaled coordinates in
    # the plane, even rows are the integer points and odd rows are shifted by
    # (1/2, 1/2, 0); squared distance is proportional to dS^2 + 3 dT^2 there
    t = rel / scale
    t[:2] *= 0.5
    best = np.rint(t)
    err = t - best
    e = np.abs(err)
    # the nearest odd-row point is half a step toward t on S and T
    margin = e[0] + 3.0 * e[1] - 1.0
    odd = margin > 0
    best[:2] += 0.5 * odd * np.sign(err[:2])
    half = 0.5 - _TIE_TOL
    tie = (np.abs(margin) <= _TIE_TOL) | (e[2] >= half) | np.where(
        odd, e[:2].min(axis=0) <= _TIE_TOL, e[:2].max(axis=0) >= half)
    return _HP_IDS @ best, tie


_DECODERS = {
    CellShape.CB: _decode_cb,
    CellShape.HP: _decode_hp,
    CellShape.RD: _decode_rd,
    CellShape.TO: _decode_to,
}


def _check_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    pts = np.atleast_2d(pts)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected points of shape (n, 3), got {pts.shape}")
    return pts


def _check_reach(spec: LatticeSpec, rel: np.ndarray) -> None:
    """Reject offsets from the sink that are not finite or exceed MAX_STEPS."""
    if not np.abs(rel).max(initial=0.0) <= MAX_STEPS * spec.step:
        raise ValueError(
            f"point coordinates must be finite and within {MAX_STEPS} lattice steps "
            f"({MAX_STEPS * spec.step:.6g} m) of the sink along each axis")


def assign_cells(spec: LatticeSpec, points) -> np.ndarray:
    """Cell ids for an (n, 3) array of points, as an (n, 3) integer array.

    Constant work per point: the closed-form nearest-point rule of the
    shape's lattice. Points equidistant from several centers go to the
    smallest (u, v, w); only points within a rounding tolerance of such a
    tie are settled by the exhaustive search.
    """
    pts = _check_points(points)
    decode = _DECODERS[spec.shape]
    scale = spec.scale[:, None]
    ids = np.empty((len(pts), 3), dtype=np.int64)
    for start in range(0, len(pts), _CHUNK):
        chunk = pts[start:start + _CHUNK]
        rel = (chunk - spec.sink).T.copy()
        _check_reach(spec, rel)
        block, tie = decode(scale, rel)
        out = ids[start:start + _CHUNK]
        out[...] = block.T
        if tie.any():
            out[tie] = to_basis_ids(spec.shape, assign_cells_oracle(spec, chunk[tie]))
    return to_public_ids(spec.shape, ids)


def assign_cell(spec: LatticeSpec, p) -> CellId:
    """Cell id of a single point."""
    row = assign_cells(spec, as_point(p)[None, :])[0]
    return CellId(int(row[0]), int(row[1]), int(row[2]))


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


def _rounded_base(spec: LatticeSpec, rel: np.ndarray) -> np.ndarray:
    """Public id of the rounded real solution, the middle of the oracle window."""
    if spec.shape is CellShape.HP:
        # HP rounds its public ids, row first: rounding the basis ids moves
        # the window's middle, and with it which of two float near-ties wins
        t = rel / spec.scale
        v = _round_half_away(t[:, 1])
        u = _round_half_away(t[:, 0] / 2.0 - np.mod(v, 2.0) / 2.0)
        return np.stack([u, v, _round_half_away(t[:, 2])], axis=-1).astype(np.int64)
    return _round_half_away(_fractional_ids(spec, rel)).astype(np.int64)


def assign_cells_oracle(spec: LatticeSpec, points, window: int = 3) -> np.ndarray:
    """Exhaustive-search assignment over a (2*window+1)^3 id neighborhood.

    Ground truth for the constant-time method: enumerates every basis id
    within ``window`` of the rounded real solution and returns the nearest
    center, with the same smallest-(u, v, w) tie rule. Centers further than
    the window are farther away than any candidate inside it, so window >= 2
    is already exhaustive in effect; the default of 3 leaves margin, and
    windows above MAX_WINDOW only cost time and memory, so they are refused.

    Each chunk of points scores only the window's candidates within
    max|q| + R of the rounded center, q = p - center(rounded id), with a
    relative slack of 1e-9. The lattice's covering radius is the cell
    circumradius R, so the nearest center is within R of p, and any
    candidate farther than |q| + R from the rounded center is farther than
    R from p: it can neither win nor tie. The kept candidates stay in
    lexicographic order of basis ids, so the first minimum is the smallest
    id (on HP, whose basis order differs from the public order, rows with
    several exact minima take the smallest public id among them), and the
    result equals the full-window search, ties included.
    """
    if not 2 <= window <= MAX_WINDOW:
        raise ValueError(f"oracle window must be between 2 and {MAX_WINDOW}")
    pts = _check_points(points)
    rel = pts - spec.sink
    _check_reach(spec, rel)
    base = _rounded_base(spec, rel)
    rng = np.arange(-window, window + 1, dtype=np.int64)
    # basis-id offsets in lexicographic order and their center displacements
    offs = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), axis=-1).reshape(-1, 3)
    doff = (offs.astype(float) @ spec.basis.T) * spec.scale

    out = np.empty((len(pts), 3), dtype=np.int64)
    chunk = max(1, int(2_000_000 // len(offs)))
    for start in range(0, len(pts), chunk):
        sl = slice(start, min(start + chunk, len(pts)))
        out[sl] = _oracle_gemm(spec, pts[sl], base[sl], offs, doff)
    return out


def _oracle_gemm(spec, pts, base, offs, doff):
    # candidate center = center(base) + doff[k]; distances via the expansion
    # |q - doff|^2 = |q|^2 - 2 q.doff + |doff|^2 with q = p - center(base)
    q = pts - cell_centers(spec, base)
    q2 = (q ** 2).sum(axis=1, keepdims=True)
    # the nearest center is within R of p, so a candidate with
    # |doff| > |q| + R can neither win nor tie; the slack keeps exact ties
    doff2 = (doff ** 2).sum(axis=1)
    reach = (math.sqrt(q2.max()) + spec.circumradius) * (1.0 + 1e-9)
    keep = doff2 <= reach * reach
    offs, doff, doff2 = offs[keep], doff[keep], doff2[keep]
    d2 = q2 - 2.0 * (q @ doff.T) + doff2
    # argmin takes the first minimum, the smallest basis id
    base = to_basis_ids(spec.shape, base)
    ids = to_public_ids(spec.shape, base + offs[d2.argmin(axis=1)])
    if spec.shape is CellShape.HP:
        # HP's basis order is not its public order: rows with several exact
        # minima take the smallest public id among them
        tied = d2 == d2.min(axis=1, keepdims=True)
        for r in np.flatnonzero(tied.sum(axis=1) > 1):
            ids[r] = min(to_public_ids(spec.shape, base[r] + offs[tied[r]]).tolist())
    return ids


def assign_cell_oracle(spec: LatticeSpec, p, window: int = 3) -> CellId:
    row = assign_cells_oracle(spec, as_point(p)[None, :], window=window)[0]
    return CellId(int(row[0]), int(row[1]), int(row[2]))


# basis-id offsets of the first-tier neighbors of any cell, in the order of
# the neighbor classes and their generators
_NEIGHBOR_OFFSETS = {
    shape: to_basis_ids(shape, [off for cls in neighbor_classes(shape)
                                for off in cls.offset_generators])
    for shape in CellShape
}


# CellId from a row without the Python-level constructor; neighbors() makes
# one per neighbor on every routing hop
_cell_id = partial(tuple.__new__, CellId)


def neighbors(spec: LatticeSpec, cid) -> list[CellId]:
    """All first-tier neighbor ids of a cell (14 TO, 18 RD, 20 HP, 26 CB)."""
    cell = to_basis_ids(spec.shape, tuple(cid))
    ids = to_public_ids(spec.shape, cell + _NEIGHBOR_OFFSETS[spec.shape])
    return list(map(_cell_id, ids.tolist()))
