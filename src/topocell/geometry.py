"""Space-filling cell shapes for 3D sensor-network tessellations.

Four convex polyhedra are practical as virtual cells for dense 3D
deployments because congruent copies of each tile space with no gaps:
the cube (CB), the hexagonal prism with optimal height (HP), the rhombic
dodecahedron (RD) and the truncated octahedron (TO). This module fixes one
concrete orientation and lattice spacing per shape, builds explicit vertex
lists, and derives the constants a deployment planner needs: circumradii,
cell volumes, first-tier neighbor classes, and the worst-case distance
between points of two neighboring cells (the quantity that bounds the usable
cell size for a given transmission range).

Each tessellation is the Voronoi tessellation of a lattice of cell centers,
and each lattice has one generator basis (``lattice_basis``): an integer
matrix M and a per-axis scale, the cell with basis ids b sitting at
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
along every axis of period 2 (``coset_period``):

* CB, P = (1, 1, 1): one coset.
* HP, P = (2, 2, 1): shift (1, 1, 0) = M (0, 1, 0).
* RD and TO, P = (2, 2, 2): shift (1, 1, 1) = M (0, 0, 1).

Public ids are the paper's offset ids (u, v, w), equal to the basis ids
except on HP, whose odd rows sit half a step further along x: its centers
are at (sqrt(3)*a*(u + (v mod 2)/2), 1.5*a*v, h*w), and its basis ids are
the axial ids (u - floor(v/2), v, w). ``to_basis_ids`` and
``to_public_ids`` convert arrays of ids. The lattice module's per-cell
paths convert without them: ``assign_cell`` turns its one HP basis id into
a public id with ``u += v >> 1``, and ``neighbors`` steps in public ids,
with a table of its own for the steps from HP's odd rows.

Vertex lists, for a cell centered at the origin:

* CB: (+-s/2, +-s/2, +-s/2).
* HP: hexagon corners at angles 30, 90, ..., 330 degrees so a flat side
  faces +x (in-plane neighbors along +-x); corner rings at z = +-h/2.
* RD: six 4-edge vertices at (+-q, +-q, 0) and (0, 0, +-R), eight 3-edge
  vertices at (+-q, 0, +-R/2) and (0, +-q, +-R/2).
* TO: 24 vertices following the pattern (+-d, +-d/2, 0) over all axis
  placements.

A cell's faces are the bisector planes between its center and the centers
of its face-sharing neighbors, so the face planes follow from the neighbor
classes and the spacing alone.

"Radius" always means circumradius, the largest center-to-vertex distance.
For RD that is the distance to the six 4-edge vertices; the eight 3-edge
vertices sit closer, at R*sqrt(3)/2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)


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


VERTEX_COUNTS = {
    CellShape.CB: 8,
    CellShape.HP: 12,
    CellShape.RD: 14,
    CellShape.TO: 24,
}


def as_point(p, what: str = "point") -> np.ndarray:
    """Validate and convert a 3D point to a float array of shape (3,); errors
    name the point ``what``."""
    import numpy as np

    try:
        q = np.asarray(p, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a 3D point of numbers, got {p!r}") from None
    if q.shape != (3,):
        raise ValueError(f"{what} must be a 3D point, got array of shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError(f"{what} coordinates must be finite")
    return q


@dataclass(frozen=True, eq=False)
class Polyhedron:
    """A concrete cell instance: shape, center, circumradius, vertex list."""

    shape: CellShape
    center: np.ndarray
    circumradius: float
    vertices: np.ndarray  # (n, 3), one row per vertex

    def axis_extents(self) -> np.ndarray:
        """Half-widths of the axis-aligned bounding box about the center."""
        return abs(self.vertices - self.center).max(axis=0)

    def face_equations(self) -> np.ndarray:
        """Outward face planes, rows (a, b, c, off) with a*x+b*y+c*z+off <= 0 inside.

        One plane per face-sharing neighbor (6 CB, 8 HP, 12 RD, 14 TO): the
        bisector between the center c and the neighbor center c + v, with
        normal v/|v| and offset -(v.c)/|v| - |v|/2.
        """
        import numpy as np

        v = center_offsets(self.shape, self.circumradius, _FACE_IDS[self.shape])
        length = np.sqrt((v ** 2).sum(axis=1, keepdims=True))
        normal = v / length
        return np.hstack([normal, -(normal @ self.center)[:, None] - length / 2.0])

    def contains(self, points, rel_tol: float = 1e-9):
        """Half-space membership test against the face planes.

        Accepts a single point or an (n, 3) array; returns a bool or a bool
        array accordingly. The tolerance is relative to the circumradius.
        """
        import numpy as np

        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        eqs = self.face_equations()
        slack = eqs[:, :3] @ pts.T + eqs[:, 3:4]
        inside = (slack <= rel_tol * self.circumradius).all(axis=0)
        return bool(inside[0]) if single else inside

    def volume(self) -> float:
        return cell_volume(self.shape, self.circumradius)


@dataclass(frozen=True)
class NeighborClass:
    """One class of first-tier neighbors (cells sharing a face, edge or vertex).

    ``offset_generators`` are the public ids of the class's neighbors of
    cell (0, 0, 0).  ``max_pair_distance_coeff`` is the largest distance
    between any point of the cell and any point of a class neighbor, divided
    by the circumradius R.
    """

    shape: CellShape
    label: str
    count: int
    offset_generators: tuple[tuple[int, int, int], ...]
    max_pair_distance_coeff: float


def cell_spacing(shape: CellShape, circumradius: float) -> tuple[float, ...]:
    """Center-spacing constants of the tessellation by cells of radius R.

    CB (s,), RD (q, R), TO (d,) and HP (a, h), as in the module docstring.
    The first constant is the shape's lattice step.
    """
    shape = _as_shape(shape)
    R = float(circumradius)
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

# M^-1, whose entries are exact binary fractions
_INVERSES = {
    CellShape.CB: ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
    CellShape.HP: ((0.5, -0.5, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
    CellShape.RD: ((0.5, 0.0, -0.5), (0.0, 0.5, -0.5), (0.0, 0.0, 1.0)),
    CellShape.TO: ((0.5, 0.0, -0.5), (0.0, 0.5, -0.5), (0.0, 0.0, 1.0)),
}

# per-axis period P of the rectangular lattice diag(P) Z^3 inside M Z^3
_PERIODS = {
    CellShape.CB: (1, 1, 1),
    CellShape.HP: (2, 2, 1),
    CellShape.RD: (2, 2, 2),
    CellShape.TO: (2, 2, 2),
}


def coset_period(shape: CellShape) -> np.ndarray:
    """Per-axis period P (3,) of the cosets of ``lattice_basis``'s M Z^3.

    M Z^3 is diag(P) Z^3, plus its shift by 1 along every period-2 axis
    when there is one: see the module docstring.
    """
    import numpy as np

    return np.array(_PERIODS[_as_shape(shape)], dtype=float)


def _scale(shape: CellShape, circumradius: float) -> tuple[float, float, float]:
    """Per-axis scale of ``lattice_basis``, as Python floats."""
    spacing = cell_spacing(shape, circumradius)
    if shape is CellShape.HP:
        a, h = spacing
        return (_SQRT3 * a / 2.0, 1.5 * a, h)
    if shape is CellShape.RD:
        q, R = spacing
        return (q, q, R)
    return spacing * 3  # (s, s, s) for CB, (d, d, d) for TO


def lattice_basis(shape: CellShape, circumradius: float) -> tuple[np.ndarray, np.ndarray]:
    """Generator matrix M (3, 3) and per-axis scale (3,): see the module docstring.

    Both are new float arrays on each call, built from the module's tuples.
    """
    import numpy as np

    shape = _as_shape(shape)
    return np.array(_BASES[shape], dtype=float), np.array(_scale(shape, circumradius))


def to_basis_ids(shape: CellShape, ids) -> np.ndarray:
    """Basis ids of the public ids ``ids`` (integers, shape (..., 3))."""
    import numpy as np

    ids = np.asarray(ids, dtype=np.int64)
    if _as_shape(shape) is CellShape.HP:
        # the axial id alpha = u - floor(v/2) undoes the half-step shift of
        # odd rows
        return ids - (ids[..., 1:2] >> 1) * (1, 0, 0)
    return ids


def to_public_ids(shape: CellShape, ids) -> np.ndarray:
    """Public ids of the basis ids ``ids``, the inverse of ``to_basis_ids``."""
    import numpy as np

    ids = np.asarray(ids, dtype=np.int64)
    if _as_shape(shape) is CellShape.HP:
        return ids + (ids[..., 1:2] >> 1) * (1, 0, 0)
    return ids


def center_offsets(shape: CellShape, circumradius: float, ids) -> np.ndarray:
    """Centers of the cells ``ids`` (shape (..., 3)) relative to cell (0, 0, 0)."""
    basis, scale = lattice_basis(shape, circumradius)
    # float products and sums of small integers are exact, and BLAS has no
    # integer matmul
    return (to_basis_ids(shape, ids).astype(float) @ basis.T) * scale


def build_polyhedron(shape: CellShape, center, circumradius: float) -> Polyhedron:
    """Build the vertex list of a cell with the module's fixed orientations."""
    if not (math.isfinite(circumradius) and circumradius > 0):
        raise ValueError("circumradius must be positive and finite")
    import numpy as np

    shape = _as_shape(shape)
    c = as_point(center)
    R = float(circumradius)

    spacing = cell_spacing(shape, R)
    if shape is CellShape.CB:
        half = spacing[0] / 2.0
        local = half * np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
    elif shape is CellShape.HP:
        a, h = spacing
        angles = np.deg2rad(np.arange(30.0, 360.0, 60.0))
        ring = np.column_stack([a * np.cos(angles), a * np.sin(angles)])
        local = np.vstack([
            np.column_stack([ring, np.full(6, h / 2.0)]),
            np.column_stack([ring, np.full(6, -h / 2.0)]),
        ])
    elif shape is CellShape.RD:
        q = spacing[0]
        local = np.array([
            (q, 0.0, R / 2), (q, 0.0, -R / 2), (q, q, 0.0), (q, -q, 0.0),
            (-q, 0.0, R / 2), (-q, 0.0, -R / 2), (-q, q, 0.0), (-q, -q, 0.0),
            (0.0, q, R / 2), (0.0, q, -R / 2), (0.0, -q, R / 2), (0.0, -q, -R / 2),
            (0.0, 0.0, R), (0.0, 0.0, -R),
        ])
    else:  # TO
        (d,) = spacing
        e = d / 2.0
        rows = []
        for sd in (d, -d):
            for se in (e, -e):
                rows += [
                    (sd, se, 0.0), (sd, 0.0, se), (se, sd, 0.0),
                    (0.0, sd, se), (se, 0.0, sd), (0.0, se, sd),
                ]
        local = np.array(rows)

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


def _classes() -> dict[CellShape, tuple[NeighborClass, ...]]:
    cb_face = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
    cb_edge = tuple(
        t for t in itertools.product((-1, 0, 1), repeat=3)
        if sum(abs(x) for x in t) == 2
    )
    cb_vertex = tuple(itertools.product((-1, 1), repeat=3))

    hp_square = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (-1, 1, 0), (-1, -1, 0))
    hp_hex = ((0, 0, 1), (0, 0, -1))
    hp_edge = tuple((du, dv, dw) for (du, dv, _) in hp_square for dw in (1, -1))

    rd_face = (
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
        (0, 0, 1), (-1, 0, 1), (0, -1, 1), (-1, -1, 1),
        (0, 0, -1), (1, 0, -1), (0, 1, -1), (1, 1, -1),
    )
    rd_vertex = ((1, 1, 0), (-1, -1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 2), (1, 1, -2))

    to_square = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (-1, -1, 2), (1, 1, -2))
    to_hex = (
        (0, 0, 1), (0, 0, -1), (-1, 0, 1), (1, 0, -1),
        (0, -1, 1), (0, 1, -1), (-1, -1, 1), (1, 1, -1),
    )

    return {
        CellShape.CB: (
            NeighborClass(CellShape.CB, "shared-face", 6, cb_face, 2.0 * _SQRT2),
            NeighborClass(CellShape.CB, "shared-edge", 12, cb_edge, 2.0 * _SQRT3),
            NeighborClass(CellShape.CB, "shared-vertex", 8, cb_vertex, 4.0),
        ),
        CellShape.HP: (
            NeighborClass(CellShape.HP, "shared-square-face", 6, hp_square, math.sqrt(10.0)),
            NeighborClass(CellShape.HP, "shared-hexagonal-face", 2, hp_hex, math.sqrt(8.0)),
            NeighborClass(CellShape.HP, "shared-edge", 12, hp_edge, math.sqrt(14.0)),
        ),
        CellShape.RD: (
            NeighborClass(CellShape.RD, "shared-face", 12, rd_face, math.sqrt(10.0)),
            NeighborClass(CellShape.RD, "shared-vertex", 6, rd_vertex, 4.0),
        ),
        CellShape.TO: (
            NeighborClass(CellShape.TO, "shared-square-face", 6, to_square, 2.0 * math.sqrt(17.0) / _SQRT5),
            NeighborClass(CellShape.TO, "shared-hexagonal-face", 8, to_hex, 2.0 * math.sqrt(14.0) / _SQRT5),
        ),
    }


_NEIGHBOR_CLASSES = _classes()

# ids of the face-sharing neighbors of cell (0, 0, 0)
_FACE_IDS = {
    shape: tuple(off for cls in classes if cls.label.endswith("face")
                 for off in cls.offset_generators)
    for shape, classes in _NEIGHBOR_CLASSES.items()
}

NEIGHBOR_COUNTS = {
    shape: sum(cls.count for cls in classes)
    for shape, classes in _NEIGHBOR_CLASSES.items()
}


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
    if not (math.isfinite(r_t) and r_t > 0):
        raise ValueError("transmission range must be positive and finite")
    return r_t / worst_neighbor_coeff(shape)


def cell_volume(shape: CellShape, circumradius: float) -> float:
    """Volume of a cell with the given circumradius."""
    if not (math.isfinite(circumradius) and circumradius > 0):
        raise ValueError("circumradius must be positive and finite")
    R3 = float(circumradius) ** 3
    shape = _as_shape(shape)
    if shape is CellShape.CB:
        return 8.0 * R3 / (3.0 * _SQRT3)
    if shape is CellShape.HP:
        return 2.0 * R3
    if shape is CellShape.RD:
        return 2.0 * R3
    return 32.0 * R3 / (5.0 * _SQRT5)


def sample_inside(poly: Polyhedron, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` points uniformly inside a cell by rejection from its bbox."""
    import numpy as np

    lo = poly.vertices.min(axis=0)
    hi = poly.vertices.max(axis=0)
    out = []
    have = 0
    while have < n:
        cand = rng.uniform(lo, hi, size=(max(2 * (n - have), 64), 3))
        keep = cand[poly.contains(cand)]
        out.append(keep)
        have += len(keep)
    return np.vstack(out)[:n]
