"""Space-filling cell shapes for 3D sensor-network tessellations.

Four convex polyhedra are practical as virtual cells for dense 3D
deployments because congruent copies of each tile space with no gaps:
the cube (CB), the hexagonal prism with optimal height (HP), the rhombic
dodecahedron (RD) and the truncated octahedron (TO). This module fixes one
concrete orientation and lattice spacing per shape, derives each cell's
vertices from its lattice, and gives the constants a deployment planner
needs: circumradii, cell volumes, first-tier neighbor classes, and the
worst-case distance between points of two neighboring cells (the quantity
that bounds the usable cell size for a given transmission range).

Each tessellation is the Voronoi tessellation of a lattice of cell centers,
and each lattice has one generator basis: an integer matrix M (``_BASES``)
and a per-axis scale (``_scale``), the cell with basis ids b sitting at
(b @ M.T) * scale from cell (0, 0, 0). With ``cell_spacing``'s constants for
circumradius R:

* CB, Z^3: M = I, scale (s, s, s), cube side s = 2R/sqrt(3).
* RD, face-centered cubic D3: M = [[2,0,1],[0,2,1],[0,0,1]], (q, q, R),
  q = R/sqrt2. TO, body-centered cubic D3*: the same M, (d, d, d),
  d = 2R/sqrt(5).
* HP, hexagonal A2 times Z: M = [[2,1,0],[0,1,0],[0,0,1]],
  (sqrt(3)*a/2, 1.5*a, h), hexagon side a = R*sqrt(2/3), height h = a*sqrt2.

In the scaled coordinates y = b @ M.T, every one of these lattices is the
rectangular lattice diag(P) Z^3 or the union of it and its shift by 1
along every axis of period 2 (``_PERIODS``):

* CB, P = (1, 1, 1): one coset.
* HP, P = (2, 2, 1): shift (1, 1, 0) = M (0, 1, 0).
* RD and TO, P = (2, 2, 2): shift (1, 1, 1) = M (0, 0, 1).

Public ids are the paper's offset ids (u, v, w), equal to the basis ids
except on HP, whose odd rows sit half a step further along x: its centers
are at (sqrt(3)*a*(u + (v mod 2)/2), 1.5*a*v, h*w), and its basis ids are
the axial ids (u - floor(v/2), v, w). This module converts one id, in
``_bisector``; ``lattice``, which turns ids into centers, converts the rest
and lists where.

Each cell is the Voronoi cell of its lattice (Conway & Sloane, IEEE Trans.
IT 32(1), 1986): its faces are the bisectors between its center and its
face-sharing neighbors', its vertices the points where three faces meet
inside all the others. At import, Python ints give M^-1 as its adjugate and
determinant, P, the vertices, each class's ``max_pair_distance_coeff`` and
the oracle's candidate offsets (``_CANDIDATES``) from M, the neighbor
classes and ``_METRIC``, the squared axis scales up to a common factor. The
vertices of a cell centered at the origin are:

* CB: (+-s/2, +-s/2, +-s/2).
* HP: (+-sqrt(3)*a/2, +-a/2, +-h/2) and (0, +-a, +-h/2), two hexagons
  with a flat side facing +x (in-plane neighbors along +-x).
* RD: six 4-edge vertices at (+-q, +-q, 0) and (0, 0, +-R), eight 3-edge
  vertices at (+-q, 0, +-R/2) and (0, +-q, +-R/2).
* TO: 24 vertices following the pattern (+-d, +-d/2, 0) over all axis
  placements.

"Radius" always means circumradius, the largest center-to-vertex distance.
For RD that is the distance to the six 4-edge vertices; the eight 3-edge
vertices sit closer, at R*sqrt(3)/2.
"""

from __future__ import annotations

import itertools
import math
import operator
from enum import Enum
from typing import NamedTuple

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)
# Supported domain of ``lattice``: every coordinate of p - sink within
# MAX_STEPS lattice steps, the step being the shape's first spacing constant
# (CB s, RD R/sqrt2, TO d, HP hexagon side a). Ids then stay within
# MAX_STEPS + 2 of zero, exact in float arithmetic and in int64.
MAX_STEPS = 2 ** 19
# largest oracle window of ``lattice``: the oracle scores one candidate
# table per shape (``_CANDIDATES``), so a window from 2 to MAX_WINDOW is
# validated but changes neither ids nor work
MAX_WINDOW = 8


class CellShape(str, Enum):
    """The four supported space-filling cell shapes."""

    CB = "cb"  # cube
    HP = "hp"  # hexagonal prism, optimal height
    RD = "rd"  # rhombic dodecahedron
    TO = "to"  # truncated octahedron


def _as_shape(shape) -> CellShape:
    """``shape`` as a CellShape; an unknown shape raises ``ValueError``.

    A member is returned as it is, without the enum's metaclass call that
    ``CellShape(member)`` costs.
    """
    return shape if isinstance(shape, CellShape) else CellShape(shape)


# the dtype kinds of Python's scalar types; None reads as NaN, a float
_KINDS = {int: "i", float: "f", type(None): "f", bool: "b", complex: "c", str: "U", bytes: "S"}
# what ``_numbers`` refuses beside a leaf: nests of unequal shapes
_RAGGED = object()
# ``_floats``' words for the kinds of leaf it names
_NOT = dict(zip("bcSU", [", not complex numbers or bools"] * 2 + [", not strings or bytes"] * 2))


def _kind(t) -> str:
    """The dtype kind of a leaf of type ``t``: a numpy scalar type's own, the
    one ``_KINDS`` gives a Python type, and O for any other type, a subclass
    of int or float, a sequence and an ndarray among them."""
    import numpy as np

    return np.dtype(t).kind if issubclass(t, np.generic) else _KINDS.get(t, "O")


def _numbers(x, kinds: str, dtype=None):
    """``(a, bad)``: ``x`` read through an allow-list, as the array
    ``a = np.asarray(x, dtype)`` and None, or as None and what refuses it:
    ``_RAGGED``, or the type of the first leaf that is no number of a dtype
    kind in ``kinds``, int for an int too large for a float where ``kinds``
    holds f. The one reader of points, rows and cell ids; numpy parses no
    part of ``x`` before the whole is accepted.

    * An ndarray (that type, no subclass) not of objects is read by its
      dtype alone, and refused as its scalar type.
    * An object array's items are its leaves.
    * Lists and tuples nest, and so do the arrays among their items, row by
      row, an empty one with its shape; a 0-d array is its one number, and
      an array of objects among the items is an object. Nests of one level
      that differ in shape, or nests beside leaves, are ``_RAGGED``.
    * A leaf must be of a kind in ``kinds`` (``_kind``): Python's int, not
      bool, and float, None, which reads as NaN, and numpy's integer and
      floating scalars. Any other leaf is refused: a bool, a str, a dict, a
      bytearray, a memoryview, a range, a Fraction, a Decimal, a datetime64,
      a masked array or an object with ``__array__``.
    """
    import numpy as np

    if type(x) is np.ndarray and x.dtype.kind != "O":
        return (np.asarray(x, dtype), None) if x.dtype.kind in kinds else (None, x.dtype.type)
    items, shape = (list(x.flat), list(x.shape)) if (top := type(x) is np.ndarray) else ([x], [])
    while True:  # one level of nests a pass, lists of numbers in C-level passes
        types = set(map(type, items))
        if np.ndarray in types:  # arrays as objects, numbers, rows, or empty nests
            items = [c if type(c) is not np.ndarray else object() if c.dtype.kind == "O"
                     else c[()] if not c.ndim else list(c) if len(c) else c for c in items]
            types = set(map(type, items))
        # numpy's limit of 64 dims also ends a list that holds itself
        if top or len(shape) == 64 or {t in (list, tuple, np.ndarray) for t in types} != {True}:
            break
        # the nests' common length; if all are empty, the empty arrays' shape
        # below it; None if they differ
        lens = set(map(len, items))
        tails = {getattr(c, "shape", (0,))[1:] for c in items} if lens == {0} else {()}
        shape += [*lens, *tails.pop()] if len(lens) == len(tails) == 1 else [None]
        items = list(itertools.chain.from_iterable(items))
    # the types of leaf of another kind; else, where kinds holds f, int if an
    # int is too large for a float: float() overflows from 2^1024 - 2^970 up
    refused = {t for t in types if _kind(t) not in kinds} or "f" in kinds and int in types and {
        int for v in items if type(v) is int and abs(v) >= 2 ** 1024 - 2 ** 970}
    bad = next(t for t in map(type, items) if t in refused) if refused else None
    bad = _RAGGED if not top and (bad in (list, tuple, np.ndarray) or None in shape) else bad
    # numpy reads an object array, and a value with no leaves, from x itself:
    # cell ids are no integers in an object array, nor in an empty list,
    # but they are in an empty array of ints
    return (None, bad) if bad else (np.asarray(not top and items or x, dtype).reshape(shape), None)


def _floats(x, what: str | None = None) -> np.ndarray:
    """``x`` as the float array ``np.asarray(x, dtype=float)`` if ``_numbers``
    accepts it, else ``ValueError``: for an int too large for a float, the
    float-range message, naming ``what`` if given; for anything else, the
    point ``what`` if given, and otherwise ragged rows or the kind of the
    first leaf refused: complex numbers and bools, strings and bytes, or any
    other object."""
    a, bad = _numbers(x, "fiu", float)
    if bad is None:
        return a
    raise ValueError(
        f"{what + ' ' if what else ''}coordinates must be within the float range" if bad is int
        else f"{what} must be a 3D point of real numbers, got {x!r}" if what
        else "expected points of shape (n, 3), got ragged rows" if bad is _RAGGED
        else "coordinates must be real numbers" + _NOT.get(_kind(bad), ""))


def _integer(value, what: str) -> int:
    """``value`` as a Python int: ints and numpy integers pass, anything else
    (a bool, a float, even a whole one, a string) raises ``ValueError``
    naming ``what``."""
    try:
        if not isinstance(value, bool):  # numpy's bool has no __index__
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _count(value, what: str) -> int:
    """``value`` as a Python int of at least 1: ``_integer``'s, and a smaller
    one raises ``ValueError`` naming ``what``."""
    count = _integer(value, what)
    if count < 1:
        raise ValueError(f"{what} must be at least 1")
    return count


def _seed(value) -> int:
    """A random seed as a Python int: an integer that fits an unsigned
    64-bit integer, as the CLI's ``--seed <u64>`` documents."""
    seed = _integer(value, "seed")
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must fit an unsigned 64-bit integer")
    return seed


def _positive(value, what: str) -> float:
    """``value`` as a Python float, finite and above 0: ints, floats and
    numpy scalars of either pass, anything else (a bool, Python's or
    numpy's, a string, None, a number with an imaginary part, an int too
    large for a float) raises ``ValueError`` naming ``what``. The one reader
    of the library's positive quantities: r_t, a circumradius, a sensing
    range, a battery capacity."""
    try:
        if (not isinstance(value, bool) and getattr(value, "dtype", None) != bool
                and not getattr(value, "imag", 0) and math.isfinite(value) and value > 0):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} must be positive and finite")


def _rows(points) -> np.ndarray:
    """``points`` as an (n, 3) float array (``_floats``), one point of shape
    (3,) as one row; any other shape raises ``ValueError``."""
    pts = _floats(points)
    if pts.ndim not in (1, 2) or pts.shape[-1] != 3:
        raise ValueError(f"expected points of shape (n, 3), got {pts.shape}")
    return pts.reshape(-1, 3)


def as_point(p, what: str = "point") -> np.ndarray:
    """Validate and convert a 3D point to a float array of shape (3,); errors
    name the point ``what``. Its coordinates are read by ``_floats``: a
    bool among them, Python's or numpy's, raises ``ValueError`` like a
    complex one, a string or any other value that is no real number:
    (True, 0, 0) is not the point (1, 0, 0), nor is ("1", 0, 0) or
    bytearray(b"abc"). So does an int too large for a float."""
    q = _floats(p, what)
    if q.shape != (3,):
        raise ValueError(f"{what} must be a 3D point, got array of shape {q.shape}")
    if not (abs(q) < math.inf).all():
        raise ValueError(f"{what} coordinates must be finite")
    return q


class _Frozen:
    """Base of the records that hold arrays or validate their fields: slots
    set once in ``__init__`` by ``_set``, refusing assignment afterwards,
    compared and hashed by identity, and shown as ``Name(field=value, ...)``
    over the ``__init__`` arguments ``_fields``."""

    __slots__ = ()

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # pickle and copy rebuild through __init__: the default slot state
        # would be restored through the refused __setattr__
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Polyhedron(_Frozen):
    """A concrete cell instance: shape, center, circumradius, vertex list
    (n, 3), one row per vertex."""

    __slots__ = _fields = ("shape", "center", "circumradius", "vertices")

    def __init__(self, shape: CellShape, center: np.ndarray, circumradius: float,
                 vertices: np.ndarray):
        self._set(shape=shape, center=center, circumradius=circumradius, vertices=vertices)

    def axis_extents(self) -> np.ndarray:
        """Half-widths of the axis-aligned bounding box about the center."""
        return abs(self.vertices - self.center).max(axis=0)


class NeighborClass(NamedTuple):
    """One class of first-tier neighbors (cells sharing a face, edge or vertex).

    ``offset_generators`` are the public ids of the class's neighbors of
    cell (0, 0, 0).  ``max_pair_distance_coeff`` is the largest distance
    between any point of the cell and any point of a class neighbor, divided
    by the circumradius R.
    """

    shape: CellShape
    label: str
    offset_generators: tuple[tuple[int, int, int], ...]
    max_pair_distance_coeff: float

    count = property(lambda self: len(self.offset_generators))


def cell_spacing(shape: CellShape, circumradius: float) -> tuple[float, ...]:
    """Center-spacing constants of the tessellation by cells of radius R.

    CB (s,), RD (q, R), TO (d,) and HP (a, h), as in the module docstring.
    The first constant is the shape's lattice step. A circumradius that is
    not positive and finite raises ``ValueError``.
    """
    return _spacing(_as_shape(shape), _positive(circumradius, "circumradius"))


def _spacing(shape: CellShape, R: float) -> tuple[float, ...]:
    """``cell_spacing`` of a CellShape and a float R, unchecked: a
    ``LatticeSpec`` whose R underflows to 0 refuses its lattice step
    itself."""
    if shape is CellShape.CB:
        return (2.0 * R / _SQRT3,)
    if shape is CellShape.RD:
        return (R / _SQRT2, R)
    if shape is CellShape.TO:
        return (2.0 * R / _SQRT5,)
    a = R * math.sqrt(2.0 / 3.0)
    return (a, a * _SQRT2)  # hexagon side, prism height


# generator matrix M of each shape's lattice, rows indexed by x, y, z
_BASES = {
    CellShape.CB: ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    CellShape.HP: ((2, 1, 0), (0, 1, 0), (0, 0, 1)),
    CellShape.RD: ((2, 0, 1), (0, 2, 1), (0, 0, 1)),
    CellShape.TO: ((2, 0, 1), (0, 2, 1), (0, 0, 1)),
}

# squared per-axis scales of ``_scale`` up to a common factor: the exact
# metric of the scaled coordinates y, |y * scale|^2 being proportional to
# sum(W_i y_i^2)
_METRIC = {
    CellShape.CB: (1, 1, 1),
    CellShape.HP: (3, 9, 8),
    CellShape.RD: (1, 1, 2),
    CellShape.TO: (1, 1, 1),
}


def _adjugate(m):
    """Adjugate and determinant of the 3x3 int matrix ``m``: adj @ m = det I."""
    (a, b, c), (d, e, f), (g, h, i) = m
    adj = ((e * i - f * h, c * h - b * i, b * f - c * e),
           (f * g - d * i, a * i - c * g, c * d - a * f),
           (d * h - e * g, b * g - a * h, a * e - b * d))
    return adj, a * adj[0][0] + b * adj[1][0] + c * adj[2][0]


# M^-1 = adj / det, whose entries are exact binary fractions (det is 1, 2 or 4)
_ADJUGATES = {shape: _adjugate(basis) for shape, basis in _BASES.items()}

# per-axis period P of the rectangular lattice diag(P) Z^3 inside M Z^3: the
# smallest p with p e_j in M Z^3, i.e. with p adj e_j / det integral
_PERIODS = {
    shape: tuple(det // math.gcd(det, *(row[j] for row in adj)) for j in range(3))
    for shape, (adj, det) in _ADJUGATES.items()
}


def _scale(shape: CellShape, circumradius: float) -> tuple[float, float, float]:
    """Per-axis scale of the generator basis, as Python floats: see the
    module docstring."""
    spacing = _spacing(shape, circumradius)
    if shape is CellShape.HP:
        a, h = spacing
        return (_SQRT3 * a / 2.0, 1.5 * a, h)
    if shape is CellShape.RD:
        q, R = spacing
        return (q, q, R)
    return spacing * 3  # (s, s, s) for CB, (d, d, d) for TO


def _per_axis(a: np.ndarray, scale=None, shift=None) -> np.ndarray:
    """``a`` (..., 3) times ``scale`` plus ``shift``, each of three per-axis
    constants or None, in place, one column at a time; returns ``a``.

    Each element goes through the same operations in the same order as in
    ``a * scale + shift``, so the doubles are the same. numpy broadcasts a
    (3,) row over a C-ordered (rows, 3) array with an inner loop of length
    3: on one 8,192-row block, ``block *= span`` takes 64 us, the same
    multiply on the three columns 23 us, and an add on contiguous (3, rows)
    columns 8 us (timeit, 2-core Xeon, numpy 2.4). So a per-axis constant
    goes column by column, and a scalar one, which needs no broadcast of a
    row, stays a whole-array operation. The centers use it; the lifetime
    and accuracy runs, whose blocks go on as (3, rows) columns, instead form
    them from the draw u in one transposing multiply and contiguous adds of
    (3, 1) columns (``simulator._interior_counts``, which forms its
    decoder's input so, and ``simulator.accuracy_experiment``, its points),
    and ``deploy`` its nodes the same way.
    """
    for axis in range(3):
        column = a[..., axis]
        if scale is not None:
            column *= scale[axis]
        if shift is not None:
            column += shift[axis]
    return a


def build_polyhedron(shape: CellShape, center, circumradius: float) -> Polyhedron:
    """Build the vertex list of a cell: ``_VERTICES`` scaled by ``_scale``."""
    R = _positive(circumradius, "circumradius")
    import numpy as np

    shape = _as_shape(shape)
    c = as_point(center)
    rows = np.array(_VERTICES[shape], dtype=float)
    local = rows[:, :3] * _scale(shape, R) / rows[:, 3:]
    return Polyhedron(shape=shape, center=c, circumradius=R, vertices=c + local)


def max_vertex_pair_distance(a: Polyhedron, b: Polyhedron) -> float:
    """Largest distance between a vertex of ``a`` and a vertex of ``b``.

    For two convex polyhedra this equals the largest distance between any
    two points of the two bodies, which is why it bounds the transmission
    range needed between neighboring cells.
    """
    if a.shape is not b.shape:
        raise ValueError("polyhedra must share the same shape")
    if not math.isclose(a.circumradius, b.circumradius, rel_tol=1e-12):
        raise ValueError("polyhedra must share the same circumradius")
    import numpy as np

    diff = a.vertices[:, None, :] - b.vertices[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=-1)).max())


_HP_SQUARE = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (-1, 1, 0), (-1, -1, 0))

# each shape's neighbor classes: the label, and the public ids of the class's
# neighbors of cell (0, 0, 0) in the order ``neighbors`` lists them
_GENERATORS = {
    CellShape.CB: (
        ("shared-face", ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))),
        ("shared-edge", tuple(t for t in itertools.product((-1, 0, 1), repeat=3)
                              if sum(map(abs, t)) == 2)),
        ("shared-vertex", tuple(itertools.product((-1, 1), repeat=3)))),
    CellShape.HP: (
        ("shared-square-face", _HP_SQUARE),
        ("shared-hexagonal-face", ((0, 0, 1), (0, 0, -1))),
        ("shared-edge", tuple((du, dv, dw) for du, dv, _ in _HP_SQUARE for dw in (1, -1)))),
    CellShape.RD: (
        ("shared-face", ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (-1, 0, 1),
                         (0, -1, 1), (-1, -1, 1), (0, 0, -1), (1, 0, -1), (0, 1, -1), (1, 1, -1))),
        ("shared-vertex", ((1, 1, 0), (-1, -1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 2),
                           (1, 1, -2)))),
    CellShape.TO: (
        ("shared-square-face", ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (-1, -1, 2),
                                (1, 1, -2))),
        ("shared-hexagonal-face", ((0, 0, 1), (0, 0, -1), (-1, 0, 1), (1, 0, -1), (0, -1, 1),
                                   (0, 1, -1), (-1, -1, 1), (1, 1, -1)))),
}

# ids of the face-sharing neighbors of cell (0, 0, 0)
_FACE_IDS = {shape: tuple(off for label, gens in classes if label.endswith("face")
                          for off in gens) for shape, classes in _GENERATORS.items()}


def _bisector(shape: CellShape, off) -> tuple[tuple[int, int, int], int]:
    """(n, h) = (W c, c . W c), c = M b for the public id ``off``: cell 0 has n . 2y <= h."""
    u, v, w = off
    u -= (v >> 1) if shape is CellShape.HP else 0  # the basis id, from row 0
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = _BASES[shape]
    x, y, z = a0 * u + a1 * v + a2 * w, b0 * u + b1 * v + b2 * w, c0 * u + c1 * v + c2 * w
    w0, w1, w2 = _METRIC[shape]
    return (w0 * x, w1 * y, w2 * z), w0 * x * x + w1 * y * y + w2 * z * z


def _vertices(shape: CellShape) -> tuple[tuple[int, int, int, int], ...]:
    """Vertices of cell 0 in scaled coordinates, int rows (x, y, z, den > 0)."""
    # y = (x, y, z) / den, one den for all rows. The cell is bounded by the
    # bisectors of its face neighbors. They come in opposite pairs c, -c, so
    # with one n of each pair the cell is |n . 2y| <= h, and its vertices,
    # where three planes meet inside all the others, come in opposite pairs.
    planes = [(n, h) for n, h in (_bisector(shape, off) for off in _FACE_IDS[shape])
              if n > (0, 0, 0)]
    rows = set()
    for (a, ha), (b, hb), (c, hc) in itertools.combinations(planes, 3):
        adj, det = _adjugate((a, b, c))
        if not det:
            continue
        (p0, q0, r0), (p1, q1, r1), (p2, q2, r2) = adj
        for sb, sc in ((hb, hc), (hb, -hc), (-hb, hc), (-hb, -hc)):
            # 2y = adj (ha, sb, sc) / det, and its opposite
            x, y, z = (p0 * ha + q0 * sb + r0 * sc, p1 * ha + q1 * sb + r1 * sc,
                       p2 * ha + q2 * sb + r2 * sc)
            for (n0, n1, n2), h in planes:
                if abs(n0 * x + n1 * y + n2 * z) > h * abs(det):
                    break
            else:
                g = math.gcd(x, y, z, 2 * det) * (1 if det > 0 else -1)
                rows.add((x // g, y // g, z // g, 2 * det // g))
                rows.add((-x // g, -y // g, -z // g, 2 * det // g))
    L = math.lcm(*(den for *_, den in rows))
    return tuple(sorted((x * (L // d), y * (L // d), z * (L // d), L) for x, y, z, d in rows))


_VERTICES = {shape: _vertices(shape) for shape in CellShape}

# each cell's axis extents as a vertex row: the largest |x_i| over its rows
# and their den L, so extent_i = x_i scale_i / L, the doubles of ``axis_extents``
_EXTENTS = {shape: (*(max(abs(row[i]) for row in rows) for i in range(3)), rows[0][3])
            for shape, rows in _VERTICES.items()}

VERTEX_COUNTS = {shape: len(rows) for shape, rows in _VERTICES.items()}

# the oracle's cut widens R by R / _CUT_DEN (``_candidates``)
_CUT_DEN = 2 ** 12


def _candidates(shape: CellShape):
    """The basis-id offsets o, in lexicographic order, of the centers that
    ``lattice``'s oracle scores around its rounded real solution base."""
    # The oracle's point p lies in the rounding box B = scale M [-1/2, 1/2]^3
    # around the center of base, its support function h(n) = sum_j
    # |n.(scale M e_j)| / 2. The lattice's covering radius is R, so the
    # nearest center and every center tied with it lie within R of p. A
    # candidate at doff = scale M o from the center of base is at least
    # |doff| - h(doff / |doff|) from every point of B, so one with
    # |doff|^2 - h(doff) > R |doff| can neither win nor tie. With
    # scale_i^2 = k W_i and G = M^T W M, in units of k |doff|^2 = o.Go,
    # h(doff) = sum_j |(Go)_j| / 2 and (L R)^2 is the largest |L v|^2 in W,
    # L the den of the vertex rows, so the cut keeps o when
    # L (2 o.Go - sum_j |(Go)_j|) <= 2 (1 + s) sqrt((L R)^2 o.Go), in ints,
    # squared when the left side is positive. Every o it keeps lies in
    # {-1, 0, 1}^3 (the tests apply it to every lattice point within H + R
    # of the middle center, H the box's longest half-diagonal), and
    # candidates lie exactly on it, so it is not strict.
    # The slack s covers the rounding of the oracle's floats and of the
    # centers, which grows with the spec's far = 2|sink|inf + reach: in
    # units of R, a float test of the same cut needs 2^-47 far (the centers
    # and the real solution), 2^-48 far (the point's offset from the center
    # of base), 2^-27 h (the box widened by that rounding), under 2^-26 as
    # h < 2R, and 1e-9 (its own comparison). MAX_TOL holds
    # 2^-52 (|sink|inf + 4 reach) / min(scale) under 2^-20, so
    # far <= 2^33 min(scale) <= 2^33 2R / sqrt3 (CB's step, the largest
    # min(scale) per R; the coset weights of the others shrink it further),
    # and the sum is at most 1.06e-4 R, under 2^-13 R. s = 1 / _CUT_DEN =
    # 2^-12 covers it twice over, and keeps the same offsets up to about
    # 2^-5.6, where RD's nearest excluded candidate joins.
    M, (w0, w1, w2), L = _BASES[shape], _METRIC[shape], _VERTICES[shape][0][3]
    r2 = max(w0 * x * x + w1 * y * y + w2 * z * z for x, y, z, _ in _VERTICES[shape])  # (L R)^2
    G = [[w0 * a[0] * b[0] + w1 * a[1] * b[1] + w2 * a[2] * b[2] for b in zip(*M)] for a in zip(*M)]
    for x, y, z in itertools.product((-1, 0, 1), repeat=3):
        g0, g1, g2 = (a * x + b * y + c * z for a, b, c in G)  # G o
        d2 = g0 * x + g1 * y + g2 * z
        gap = L * (2 * d2 - abs(g0) - abs(g1) - abs(g2))
        if gap <= 0 or (_CUT_DEN * gap) ** 2 <= (_CUT_DEN + 1) ** 2 * 4 * r2 * d2:
            yield x, y, z


_CANDIDATES = {shape: tuple(_candidates(shape)) for shape in CellShape}


def _classes(shape: CellShape) -> tuple[NeighborClass, ...]:
    """The shape's neighbor classes, coefficients rounded once from exact ratios."""
    # K being centrally symmetric, K - K = 2K: the points of K and of its
    # neighbor c + K are farthest apart at c + 2v for a vertex v. In units of
    # 1/L, L the vertices' denominator, the squared coefficient
    # max |L c + 2 L v|^2 / max |L v|^2 in the metric W is a ratio of ints.
    W = _METRIC[shape]
    L = _VERTICES[shape][0][3]
    # L v and |L v|^2, for one vertex v of each opposite pair
    vs = [(x, y, z, W[0] * x * x + W[1] * y * y + W[2] * z * z)
          for x, y, z, _ in _VERTICES[shape] if (x, y, z) > (0, 0, 0)]
    r2 = max(v[3] for v in vs)  # (L R)^2
    classes = []
    for label, gens in _GENERATORS[shape]:
        # max over c and +-v of |L c + 2 L v|^2 = L^2 |c|^2 + 4 (L |W c . L v| + |L v|^2)
        far = max(L * L * c2 + 4 * max(L * abs(n0 * x + n1 * y + n2 * z) + q for x, y, z, q in vs)
                  for (n0, n1, n2), c2 in (_bisector(shape, off) for off in gens))
        g = math.gcd(far, r2)
        classes.append(NeighborClass(shape, label, gens,
                                     math.sqrt(far // g) / math.sqrt(r2 // g)))
    return tuple(classes)


_NEIGHBOR_CLASSES = {shape: _classes(shape) for shape in CellShape}

NEIGHBOR_COUNTS = {shape: sum(len(gens) for _, gens in classes)
                   for shape, classes in _GENERATORS.items()}


def neighbor_classes(shape: CellShape) -> tuple[NeighborClass, ...]:
    """First-tier neighbor classes of a cell of the given shape."""
    return _NEIGHBOR_CLASSES[_as_shape(shape)]


def worst_neighbor_coeff(shape: CellShape) -> float:
    """Largest ``max_pair_distance_coeff`` over the shape's neighbor classes."""
    return max(cls.max_pair_distance_coeff for cls in neighbor_classes(shape))


def max_cell_radius(shape: CellShape, r_t: float) -> float:
    """Largest usable circumradius for transmission range ``r_t``.

    Sized so the two farthest points of any two first-tier neighboring
    cells are still within ``r_t`` of each other: r_t/4 for CB and RD,
    r_t/sqrt(14) for HP, r_t*sqrt(5)/(2*sqrt(17)) for TO.
    """
    return _positive(r_t, "transmission range") / worst_neighbor_coeff(shape)


def cell_volume(shape: CellShape, circumradius: float) -> float:
    """Volume of a cell with the given circumradius."""
    R3 = _positive(circumradius, "circumradius") ** 3
    shape = _as_shape(shape)
    if shape is CellShape.CB:
        return 8.0 * R3 / (3.0 * _SQRT3)
    if shape is CellShape.TO:
        return 32.0 * R3 / (5.0 * _SQRT5)
    return 2.0 * R3  # HP and RD

