import itertools
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import topocell
from topocell.geometry import (
    _ADJUGATES,
    _INVERSES,
    _METRIC,
    _VERTICES,
    CellShape,
    NEIGHBOR_COUNTS,
    VERTEX_COUNTS,
    build_polyhedron,
    cell_volume,
    center_offsets,
    coset_period,
    lattice_basis,
    max_cell_radius,
    max_vertex_pair_distance,
    neighbor_classes,
    to_basis_ids,
    worst_neighbor_coeff,
)
from topocell.lattice import (
    LatticeSpec,
    assign_cells,
    assign_cells_oracle,
    cell_center,
    cell_centers,
)

SHAPES = list(CellShape)

FACE_COUNTS = {CellShape.CB: 6, CellShape.HP: 8, CellShape.RD: 12, CellShape.TO: 14}

# the vertex counts of the cube, the hexagonal prism, the rhombic
# dodecahedron and the truncated octahedron
KNOWN_VERTEX_COUNTS = {CellShape.CB: 8, CellShape.HP: 12, CellShape.RD: 14, CellShape.TO: 24}


def brute_class_coeff(shape, cls):
    """Worst vertex-pair distance over a class, from lattice-placed cells at R=1."""
    spec = LatticeSpec(shape, worst_neighbor_coeff(shape))  # R = 1
    base = build_polyhedron(shape, (0.0, 0.0, 0.0), 1.0)
    worst = 0.0
    for off in cls.offset_generators:
        other = build_polyhedron(shape, cell_center(spec, off), 1.0)
        worst = max(worst, max_vertex_pair_distance(base, other))
    return worst


class TestBuildPolyhedron:
    def test_to_contains_printed_vertex(self):
        R = 1.7
        d = 2.0 * R / math.sqrt(5.0)
        poly = build_polyhedron(CellShape.TO, (0, 0, 0), R)
        target = np.array([d, d / 2.0, 0.0])
        assert np.min(np.linalg.norm(poly.vertices - target, axis=1)) < 1e-12

    def test_rd_contains_apex_vertex(self):
        R = 0.83
        poly = build_polyhedron(CellShape.RD, (0, 0, 0), R)
        target = np.array([0.0, 0.0, R])
        assert np.min(np.linalg.norm(poly.vertices - target, axis=1)) < 1e-12

    def test_cb_unit_cube(self):
        poly = build_polyhedron(CellShape.CB, (0, 0, 0), math.sqrt(3.0) / 2.0)
        got = {tuple(np.round(v, 12)) for v in poly.vertices}
        want = {(sx / 2, sy / 2, sz / 2)
                for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)}
        assert got == want

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("R", [1e-3, 0.37, 1.0, 42.0, 1e3])
    def test_vertex_count_and_radius_invariants(self, shape, R):
        poly = build_polyhedron(shape, (1.0, -2.0, 0.5), R)
        assert len(poly.vertices) == VERTEX_COUNTS[shape] == KNOWN_VERTEX_COUNTS[shape]
        dists = np.linalg.norm(poly.vertices - poly.center, axis=1)
        assert np.max(dists) <= R * (1 + 1e-9)
        if shape is CellShape.RD:
            at_R = np.isclose(dists, R, rtol=1e-9)
            near = np.isclose(dists, R * math.sqrt(3.0) / 2.0, rtol=1e-9)
            assert at_R.sum() == 6 and near.sum() == 8
        else:
            assert np.allclose(dists, R, rtol=1e-9)

    def test_rejects_bad_radius(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                build_polyhedron(CellShape.TO, (0, 0, 0), bad)


class TestMaxVertexPairDistance:
    def test_rd_shared_face_pair(self):
        R = 1.3
        a = build_polyhedron(CellShape.RD, (0, 0, 0), R)
        b = build_polyhedron(CellShape.RD, (R * math.sqrt(2.0), 0, 0), R)
        assert max_vertex_pair_distance(a, b) == pytest.approx(R * math.sqrt(10.0), rel=1e-12)

    def test_to_shared_square_face_pair(self):
        R = 0.9
        d = 2.0 * R / math.sqrt(5.0)
        a = build_polyhedron(CellShape.TO, (0, 0, 0), R)
        b = build_polyhedron(CellShape.TO, (2 * d, 0, 0), R)
        assert max_vertex_pair_distance(a, b) == pytest.approx(d * math.sqrt(17.0), rel=1e-12)
        assert max_vertex_pair_distance(a, b) == pytest.approx(3.6878177829 * R, abs=1e-6)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_self_distance_is_diameter(self, shape):
        poly = build_polyhedron(shape, (2.0, 2.0, 2.0), 1.7)
        assert max_vertex_pair_distance(poly, poly) == pytest.approx(2 * 1.7, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        a = build_polyhedron(CellShape.TO, (0, 0, 0), 1.0)
        b = build_polyhedron(CellShape.RD, (0, 0, 0), 1.0)
        with pytest.raises(ValueError):
            max_vertex_pair_distance(a, b)

    def test_circumradius_mismatch_rejected(self):
        a = build_polyhedron(CellShape.TO, (0, 0, 0), 1.0)
        b = build_polyhedron(CellShape.TO, (0, 0, 0), 1.0 + 1e-9)
        with pytest.raises(ValueError, match="same circumradius"):
            max_vertex_pair_distance(a, b)


class TestNeighborClasses:
    @pytest.mark.parametrize("shape,counts", [
        (CellShape.CB, {6, 12, 8}),
        (CellShape.HP, {6, 2, 12}),
        (CellShape.RD, {12, 6}),
        (CellShape.TO, {6, 8}),
    ])
    def test_class_counts(self, shape, counts):
        classes = neighbor_classes(shape)
        assert {c.count for c in classes} == counts
        assert sum(c.count for c in classes) == NEIGHBOR_COUNTS[shape]
        for c in classes:
            assert len(c.offset_generators) == c.count

    def test_to_coefficients(self):
        by_label = {c.label: c for c in neighbor_classes(CellShape.TO)}
        assert by_label["shared-square-face"].max_pair_distance_coeff == pytest.approx(3.6878177829, abs=1e-6)
        assert by_label["shared-hexagonal-face"].max_pair_distance_coeff == pytest.approx(3.34664, abs=5e-6)

    def test_cb_worst_is_vertex_sharing(self):
        classes = neighbor_classes(CellShape.CB)
        assert max(c.max_pair_distance_coeff for c in classes) == pytest.approx(4.0)

    def test_hp_worst_is_edge_sharing(self):
        assert worst_neighbor_coeff(CellShape.HP) == pytest.approx(math.sqrt(14.0), rel=1e-12)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_coefficients_match_exhaustive_search(self, shape):
        for cls in neighbor_classes(shape):
            brute = brute_class_coeff(shape, cls)
            assert brute == pytest.approx(cls.max_pair_distance_coeff, rel=1e-9)


class TestDerivation:
    """The hand-typed data the derivation rests on, checked against what it
    stands for: _METRIC against the float scales, the neighbor classes
    against the exact vertices, the volume formulas against det M."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_metric_matches_scale_ratios(self, shape):
        W = _METRIC[shape]
        for R in (1e-3, 0.25, 1.0, 3.7, 42.0):
            scale = lattice_basis(shape, R)[1]
            for s, w in zip(scale, W):
                assert abs((s / scale[0]) ** 2 - w / W[0]) <= 1e-15 * w / W[0]

    @staticmethod
    def shared_vertices(shape, off):
        """How many vertices cell 0 and the cell of public id ``off`` share,
        in exact arithmetic on the scaled coordinates y."""
        y = lattice_basis(shape, 1.0)[0] @ to_basis_ids(shape, off)
        verts = {tuple(Fraction(int(x), den) for x in row) for *row, den in _VERTICES[shape]}
        return len(verts & {tuple(v + int(c) for v, c in zip(vert, y)) for vert in verts})

    @pytest.mark.parametrize("shape", SHAPES)
    def test_classes_are_the_cells_that_share_a_vertex(self, shape):
        # the first-tier neighbors are the cells of a window that share a
        # vertex with cell 0; a class whose label names a face shares at
        # least three vertices (a face), an edge class two and a vertex
        # class one
        window = [off for off in itertools.product(range(-2, 3), repeat=3) if any(off)]
        shared = {off: self.shared_vertices(shape, off) for off in window}
        touching = {off for off, k in shared.items() if k}
        generators = [off for cls in neighbor_classes(shape) for off in cls.offset_generators]
        assert len(generators) == len(set(generators)) == len(touching)
        assert set(generators) == touching
        for cls in neighbor_classes(shape):
            counts = {shared[off] for off in cls.offset_generators}
            if cls.label.endswith("face"):
                assert min(counts) >= 3
            else:
                assert counts == {2 if cls.label.endswith("edge") else 1}

    @pytest.mark.parametrize("shape", SHAPES)
    def test_volume_is_det_times_scales(self, shape):
        # the closed forms stay, as |det M| * prod(scale) differs from them
        # by a few ulps; the Voronoi cell's volume is the lattice determinant
        det = abs(_ADJUGATES[shape][1])
        for R in (1e-3, 0.25, 1.0, 3.7, 42.0):
            assert cell_volume(shape, R) == pytest.approx(
                det * np.prod(lattice_basis(shape, R)[1]), rel=2.0 ** -49, abs=0.0)


class TestMaxCellRadius:
    def test_examples(self):
        assert max_cell_radius(CellShape.TO, 1.0) == pytest.approx(0.271163, abs=1e-6)
        assert max_cell_radius(CellShape.CB, 4.0) == pytest.approx(1.0, rel=1e-12)
        assert max_cell_radius(CellShape.HP, 1.0) == pytest.approx(0.26726, abs=5e-6)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_binding_class_meets_transmission_range(self, shape):
        # at the maximum radius the worst neighbor pair sits exactly at r_t
        r_t = 2.31
        R = max_cell_radius(shape, r_t)
        spec = LatticeSpec(shape, r_t)
        base = build_polyhedron(shape, (0.0, 0.0, 0.0), R)
        worst = 0.0
        for cls in neighbor_classes(shape):
            for off in cls.offset_generators:
                other = build_polyhedron(shape, cell_center(spec, off), R)
                worst = max(worst, max_vertex_pair_distance(base, other))
        assert worst == pytest.approx(r_t, rel=1e-9)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            max_cell_radius(CellShape.TO, 0.0)


class TestCellVolume:
    def test_printed_values(self):
        assert cell_volume(CellShape.TO, 1.0) == pytest.approx(2.862, abs=5e-4)
        assert cell_volume(CellShape.CB, 1.0) == pytest.approx(1.5396, abs=5e-5)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("R", [0.25, 1.0, 3.7])
    def test_matches_convex_hull_volume(self, shape, R):
        poly = build_polyhedron(shape, (0.5, -1.0, 2.0), R)
        hull = ConvexHull(poly.vertices)
        assert cell_volume(shape, R) == pytest.approx(hull.volume, rel=1e-9)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            cell_volume(CellShape.RD, -2.0)


def draw_in_box(polys, n, rng, widen=0.0):
    """n points uniform in the bounding box of the vertices of ``polys``,
    widened by ``widen`` R on every side."""
    vertices = np.vstack([poly.vertices for poly in polys])
    pad = widen * polys[0].circumradius
    return rng.uniform(vertices.min(axis=0) - pad, vertices.max(axis=0) + pad, size=(n, 3))


def in_cell(spec, pts, cid):
    """Whether the decoder assigns each row of ``pts`` to the cell ``cid``:
    exact membership, ties going to the smallest id."""
    return (assign_cells(spec, pts) == cid).all(axis=1)


def farthest(p, q):
    """Largest distance between a row of ``p`` and a row of ``q``: it is
    attained at vertices of their convex hulls."""
    p, q = p[ConvexHull(p).vertices], q[ConvexHull(q).vertices]
    return float(np.sqrt(((p[:, None, :] - q[None, :, :]) ** 2).sum(axis=-1)).max())


class TestConvexityWitness:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_sampled_pairs_within_vertex_bound(self, shape):
        # points the decoder puts in cell 0 and in a face neighbor, drawn in
        # the two cells' bounding box: no pair lies farther apart than the
        # vertex-pair maximum, and the farthest pairs come close to it
        rng = np.random.default_rng(7)
        spec = LatticeSpec(shape, worst_neighbor_coeff(shape), sink=(0.4, -1.1, 2.6))
        R = spec.circumradius
        off = neighbor_classes(shape)[0].offset_generators[0]
        a = build_polyhedron(shape, spec.sink, R)
        b = build_polyhedron(shape, cell_center(spec, off), R)
        pts = draw_in_box([a, b], 20_000, rng)
        pa, pb = pts[in_cell(spec, pts, (0, 0, 0))], pts[in_cell(spec, pts, off)]
        assert min(len(pa), len(pb)) > 2_000
        for p, q, x, y in ((pa, pa, a, a), (pa, pb, a, b)):
            bound = max_vertex_pair_distance(x, y)
            assert 0.95 * bound <= farthest(p, q) <= bound * (1 + 1e-12)


def bisector_planes(poly):
    """Outward face planes of ``poly``, rows (a, b, c, off) with
    a*x + b*y + c*z + off <= 0 inside: the bisector between its center c and
    each face neighbor's center c + v, normal v/|v|, offset -(v.c)/|v| - |v|/2."""
    faces = [off for cls in neighbor_classes(poly.shape) if cls.label.endswith("face")
             for off in cls.offset_generators]
    v = center_offsets(poly.shape, poly.circumradius, faces)
    length = np.linalg.norm(v, axis=1, keepdims=True)
    normal = v / length
    return np.hstack([normal, -(normal @ poly.center)[:, None] - length / 2.0])


def assert_same_planes(planes, reference, scale):
    """Every row of each set matches a row of the other; offsets in units of scale."""
    a = np.hstack([planes[:, :3], planes[:, 3:] / scale])
    b = np.hstack([reference[:, :3], reference[:, 3:] / scale])
    gap = np.abs(a[:, None, :] - b[None, :, :]).max(axis=-1)
    assert gap.min(axis=1).max() <= 1e-9  # every face plane is a hull plane
    assert gap.min(axis=0).max() <= 1e-9  # every hull plane is a face plane


class TestFacePlanes:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("center", [(0.0, 0.0, 0.0), (1.5, -2.25, 7.0), (-310.7, 45.2, 0.013)])
    @pytest.mark.parametrize("R", [1e-3, 0.37, 1.0, 42.0])
    def test_match_convex_hull_faces(self, shape, center, R):
        # the hull of the vertex list is bounded by the face-neighbor bisectors
        poly = build_polyhedron(shape, center, R)
        planes = bisector_planes(poly)
        assert planes.shape == (FACE_COUNTS[shape], 4)
        # one plane per face: the hull's triangulated duplicates collapse onto them
        assert len(np.unique(np.round(planes[:, :3], 6), axis=0)) == len(planes)
        scale = R + np.abs(center).max()
        assert_same_planes(planes, ConvexHull(poly.vertices).equations, scale)
        slack = planes[:, :3] @ poly.vertices.T + planes[:, 3:]
        assert slack.max() <= 1e-14 * scale

    @pytest.mark.parametrize("shape", SHAPES)
    def test_contains_matches_hull_membership(self, shape):
        # the cell the decoder assigns is the convex hull of the vertex list,
        # on every point more than 1e-9 R from the hull's planes
        rng = np.random.default_rng(11)
        spec = LatticeSpec(shape, 0.8 * worst_neighbor_coeff(shape), sink=(0.4, -1.1, 2.6))
        R = spec.circumradius
        poly = build_polyhedron(shape, spec.sink, R)
        pts = draw_in_box([poly], 10_000, rng, widen=0.1)
        eqs = ConvexHull(poly.vertices).equations
        slack = pts @ eqs[:, :3].T + eqs[:, 3]
        clear = (np.abs(slack) > 1e-9 * R).all(axis=1)
        in_hull = (slack <= 0.0).all(axis=1)
        inside = in_cell(spec, pts, (0, 0, 0))
        assert clear.sum() > 0.99 * len(pts)
        assert 0 < inside.sum() < len(pts)
        assert np.array_equal(inside[clear], in_hull[clear])


SUBMODULES = ("cli", "geometry", "lattice", "planner", "routing", "simulator")
# loads every public name and every submodule of the package, which
# ``import topocell`` alone does not
LOAD_ALL = ("import sys\nfrom topocell import *\n"
            + "".join(f"import topocell.{name}\n" for name in SUBMODULES))


def loaded(modules: str) -> str:
    """stdout of a fresh interpreter that loads the whole package and prints
    which of ``modules`` (an expression over ``m`` in ``sys.modules``) it
    has imported."""
    code = LOAD_ALL + f"print(sorted(m for m in sys.modules if {modules}))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestImports:
    def test_import_leaves_scipy_out(self):
        assert loaded("m.split('.')[0] == 'scipy'") == "[]"

    def test_import_leaves_fractions_and_decimal_out(self):
        # the import-time derivation of the cells runs in Python ints
        assert loaded("m in ('fractions', 'decimal')") == "[]"

    def test_import_leaves_dataclasses_out(self):
        assert loaded("m == 'dataclasses'") == "[]"

    def test_the_whole_package_is_loaded(self):
        # the checks above see every module
        assert loaded("m.startswith('topocell.')") == str(
            sorted(f"topocell.{name}" for name in SUBMODULES))

    def test_bare_import_loads_no_submodule(self):
        code = ("import sys, topocell\n"
                "print(sorted(m for m in sys.modules if m.startswith('topocell.')))\n"
                "print(topocell.lattice.__name__, topocell.greedy_route.__module__)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "topocell.lattice topocell.routing"]

    def test_public_names_resolve_sorted_and_unique(self):
        names = topocell.__all__
        assert [name for name in names if not hasattr(topocell, name)] == []
        assert names == sorted(set(names))
        assert {*names, *SUBMODULES} <= set(dir(topocell))
        # removed with the float polyhedron toolkit
        assert "sample_inside" not in names
        assert not hasattr(topocell, "sample_inside")
        with pytest.raises(AttributeError, match="no attribute 'sample_inside'"):
            topocell.sample_inside


class TestBasisTables:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_inverse_table_is_exact(self, shape):
        # M^-1 is held by hand as binary fractions: the products with M are
        # exact in floats, and it is what LAPACK computes
        basis = lattice_basis(shape, 1.0)[0]
        inverse = np.array(_INVERSES[shape])
        assert (inverse @ basis == np.eye(3)).all()
        assert (basis @ inverse == np.eye(3)).all()
        assert (inverse == np.linalg.inv(basis)).all()

    def test_returned_arrays_are_fresh(self):
        # writing to an array a call returned changes no later call, nor the
        # oracle, which reads the basis
        spec = LatticeSpec(CellShape.TO, 1.0)
        ids = np.array([(0, 0, 0), (2, -1, 3)])
        basis, scale = lattice_basis(CellShape.TO, 1.0)
        period = coset_period(CellShape.TO)
        saved = [a.copy() for a in (basis, scale, period)]
        try:
            basis[0, 0] = scale[0] = period[0] = 99.0
            assert lattice_basis(CellShape.TO, 1.0)[0][0, 0] == 2.0
            assert lattice_basis(CellShape.TO, 1.0)[1][0] == saved[1][0]
            assert coset_period(CellShape.TO)[0] == 2.0
            assert (assign_cells_oracle(spec, cell_centers(spec, ids)) == ids).all()
        finally:  # a shared table would otherwise stay changed for later tests
            for a, old in zip((basis, scale, period), saved):
                a[...] = old
