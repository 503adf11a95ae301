import functools
import itertools
import math
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from topocell import lattice
from topocell.geometry import (
    _BASES,
    _PERIODS,
    CellShape,
    _scale,
    as_point,
    build_polyhedron,
    cell_spacing,
    max_cell_radius,
    neighbor_classes,
)
from topocell.lattice import (
    MAX_MAGNITUDE,
    MAX_STEPS,
    MAX_TOL,
    MAX_WINDOW,
    CellId,
    LatticeSpec,
    assign_cell,
    assign_cell_nearest_int,
    assign_cell_oracle,
    assign_cells,
    assign_cells_nearest_int,
    assign_cells_oracle,
    cell_center,
    cell_centers,
    neighbors,
)
from topocell.simulator import Box

SHAPES = list(CellShape)
SQRT17 = math.sqrt(17.0)

# three arbitrary but fixed (r_t, sink) configurations per shape
RANDOM_SPECS = [
    (0.8, (0.0, 0.0, 0.0)),
    (3.7, (1.25, -0.4, 2.83)),
    (17.0, (-40.0, 12.5, 7.125)),
]

# the 14 first-tier neighbor offsets of a TO cell
TO_NEIGHBOR_OFFSETS = {
    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
    (-1, -1, 2), (1, 1, -2),
    (0, 0, 1), (0, 0, -1),
    (-1, 0, 1), (1, 0, -1), (0, -1, 1), (0, 1, -1),
    (-1, -1, 1), (1, 1, -1),
}


def half_steps(shape, ids, sign):
    """``ids`` as int64, with sign * floor(v / 2) added to u on HP: sign -1
    turns public ids into basis ids, the axial (u - floor(v/2), v, w), and
    sign 1 back."""
    ids = np.array(ids, dtype=np.int64)
    if shape is CellShape.HP:
        ids[..., 0] += sign * (ids[..., 1] >> 1)
    return ids


def basis_offsets(shape):
    """int64 basis-id offsets of the first-tier neighbors, in the order of the
    neighbor-class generators: the basis ids of the public ids of cell
    (0, 0, 0)'s neighbors."""
    return half_steps(shape, [off for cls in neighbor_classes(shape)
                              for off in cls.offset_generators], -1)


def id_grid(half_width):
    r = np.arange(-half_width, half_width + 1)
    return np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)


def exact_nearest(spec, pts, owners):
    """Reference for the oracle's contract, point by point.

    ``owners[i]`` is a cell whose boundary holds ``pts[i]``, so it is among
    the nearest centers. Its public id window of half-width 2 holds every
    center within 2R of its own, so every center within R of the point.
    Float distances pick the centers within 1e-6 R^2 of the nearest,
    ``fractions.Fraction`` decides among them. Returns the ids and the float
    squared distances to the window's centers (n, 125).
    """
    R = spec.circumradius
    cand = owners[:, None, :] + id_grid(2)
    centers = cell_centers(spec, cand)
    d2 = ((pts[:, None, :] - centers) ** 2).sum(axis=2)
    dmin = np.sqrt(d2.min(axis=1))
    assert dmin.max() <= R * (1 + 1e-9)
    owner = np.sqrt(((pts - cell_centers(spec, owners)) ** 2).sum(axis=1))
    assert np.abs(owner - dmin).max() <= 1e-9 * R
    want = np.empty_like(owners)
    frac = functools.cache(Fraction)  # the centers' coordinates recur
    for i, near in enumerate(d2 <= d2.min(axis=1, keepdims=True) + 1e-6 * R * R):
        p = [Fraction(x) for x in pts[i].tolist()]
        exact = [sum((a - frac(b)) ** 2 for a, b in zip(p, c)) for c in centers[i, near].tolist()]
        want[i] = min(zip(exact, map(tuple, cand[i, near].tolist())))[1]
    return want, d2


class TestCellCenter:
    def test_to_examples(self):
        spec = LatticeSpec(CellShape.TO, SQRT17)  # step d = 1
        assert np.allclose(cell_center(spec, (1, 0, 0)), (2, 0, 0))
        assert np.allclose(cell_center(spec, (0, 0, 1)), (1, 1, 1))

    def test_rd_example(self):
        spec = LatticeSpec(CellShape.RD, 4 * math.sqrt(2.0))  # R = sqrt(2)
        assert np.allclose(cell_center(spec, (1, 0, 0)), (2, 0, 0))

    def test_to_step_is_rt_over_sqrt17(self):
        spec = LatticeSpec(CellShape.TO, 5.0)
        step = cell_center(spec, (0, 0, 1)) - cell_center(spec, (0, 0, 0))
        assert np.allclose(step, 5.0 / SQRT17)

    def test_sink_shift(self):
        spec = LatticeSpec(CellShape.CB, 2.0, sink=(10.0, -5.0, 1.0))
        assert np.allclose(cell_center(spec, (0, 0, 0)), (10.0, -5.0, 1.0))

    def test_id_must_be_integers(self):
        # a fractional id was truncated to a neighboring cell's
        spec = LatticeSpec(CellShape.TO, SQRT17)
        for cid in [(0.5, 0, 0), (1.0, 0, 0), np.array([0.5, 0.0, 0.0]), ("1", "2", "3")]:
            with pytest.raises(ValueError, match="cell id must be three integers"):
                cell_center(spec, cid)
        assert (cell_center(spec, np.array([1, 0, 0])) == cell_center(spec, (1, 0, 0))).all()

    def test_bulk_ids_must_be_integers_of_the_domain(self):
        # ids were cast to int64: 1.7 gave cell 1's center, "1" was read as
        # 1, NaN gave a garbage center and 2^62 one far outside the domain
        spec = LatticeSpec(CellShape.HP, 3.7, sink=(1.25, -0.4, 2.83))
        for ids in ([[1.7, 0, 0]], np.array([[1.0, 0.0, 0.0]]), [["1", "0", "0"]],
                    np.array([[math.nan, 0.0, 0.0]]), np.array([[True, False, False]]),
                    np.array([[1, 0, 0]], dtype=object), []):
            with pytest.raises(ValueError, match="cell ids must be integers"):
                cell_centers(spec, ids)
        edge = MAX_STEPS + 2
        for ids in ([[2 ** 62, 0, 0]], [[0, 0, -edge - 1]], np.array([[0, edge + 1, 0]], np.uint64),
                    np.array([[0, 0, 0], [edge + 1, 0, 0]], np.int32)):
            with pytest.raises(ValueError, match=f"within {edge} of zero on each axis"):
                cell_centers(spec, ids)
        ids = [[edge, -edge, 0], [1, 2, 3]]
        want = np.array([cell_center(spec, cid) for cid in ids])
        for same in (ids, np.array(ids, np.int32), np.array(ids[1:], np.uint64)):
            assert (cell_centers(spec, same) == want[-len(same):]).all()
        assert cell_centers(spec, np.empty((0, 3), np.int64)).shape == (0, 3)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("ids", [np.zeros(4, np.int64), np.zeros((2, 2), np.int64),
                                     np.zeros(0, np.int64), np.int64(0), np.zeros((3, 0), np.int64),
                                     np.zeros((2, 3, 4), np.int64)],
                             ids=["(4,)", "(2, 2)", "(0,)", "()", "(3, 0)", "(2, 3, 4)"])
    def test_bulk_ids_must_have_three_columns(self, shape, ids):
        # ids of another last axis raised numpy's matmul error, or on HP an
        # IndexError for a 0-d id or one of shape (0,)
        spec = LatticeSpec(shape, 1.0)
        with pytest.raises(ValueError, match=r"expected cell ids of shape \(\.\.\., 3\), got "
                                             + re.escape(str(ids.shape))):
            cell_centers(spec, ids)
        # any leading shape passes, one id of shape (3,) among them
        for cid in (np.array([1, -3, 2]), np.zeros((2, 4, 3), np.int32),
                    np.zeros((0, 0, 3), np.uint8)):
            want = np.array([cell_center(spec, c) for c in cid.reshape(-1, 3)]).reshape(cid.shape)
            assert (cell_centers(spec, cid) == want).all()

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("r_t,sink", [(0.1, (4.2e6, 1.2e6, 4.7e6)), *RANDOM_SPECS[:2]])
    def test_python_center_matches_cell_centers_bit_for_bit(self, shape, r_t, sink):
        # one cell's center in Python floats, as the CLI prints it, against
        # the array path, on ids anywhere in the domain and at its corners
        spec = LatticeSpec(shape, r_t, sink=sink)
        edge = MAX_STEPS + 2
        ids = np.vstack([np.random.default_rng(17).integers(-edge, edge + 1, (2000, 3)),
                         np.array(list(itertools.product((-edge, -1, 0, 1, edge), repeat=3)))])
        want = cell_centers(spec, ids)
        got = np.array([lattice._center(spec, cid) for cid in ids.tolist()])
        assert (got.view(np.int64) == want.view(np.int64)).all()
        one = np.array([cell_center(spec, cid) for cid in ids[:50].tolist()])
        assert (one.view(np.int64) == want[:50].view(np.int64)).all()


class TestAssignCell:
    def test_exact_center(self):
        spec = LatticeSpec(CellShape.TO, SQRT17)
        assert assign_cell(spec, (1, 1, 1)) == CellId(0, 0, 1)

    def test_interior_point(self):
        # nearest center is (1,1,1): squared distance 0.48 versus 1.08 to origin
        spec = LatticeSpec(CellShape.TO, SQRT17)
        p = np.array([0.6, 0.6, 0.6])
        assert assign_cell(spec, p) == CellId(0, 0, 1)
        d_own = np.sum((p - cell_center(spec, (0, 0, 1))) ** 2)
        d_origin = np.sum((p - cell_center(spec, (0, 0, 0))) ** 2)
        assert d_own == pytest.approx(0.48)
        assert d_origin == pytest.approx(1.08)

    def test_nearest_int_failure_witness(self):
        spec = LatticeSpec(CellShape.TO, SQRT17)
        p = (1.0, 0.2, 0.45)
        assert assign_cell(spec, p) == CellId(0, 0, 1)
        assert assign_cell_oracle(spec, p) == CellId(0, 0, 1)
        assert assign_cell_nearest_int(spec, p) == CellId(0, 0, 0)

    def test_quick_start_without_numpy(self):
        # the README's quick start: a tuple point is read in Python floats,
        # so the call runs with numpy blocked
        code = ("import sys; sys.modules['numpy'] = None\n"
                "import math\n"
                "from topocell import CellShape, LatticeSpec, assign_cell, greedy_route\n"
                "spec = LatticeSpec(CellShape.TO, r_t=math.sqrt(17.0), sink=(0, 0, 0))\n"
                "cell = assign_cell(spec, (1.0, 0.2, 0.45))\n"
                "path = greedy_route(spec, (0, 0, 0), (4, -3, 5))\n"
                "print(cell)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "CellId(u=0, v=0, w=1)"

    def test_rejects_non_finite(self):
        spec = LatticeSpec(CellShape.TO, 1.0)
        with pytest.raises(ValueError):
            assign_cell(spec, (math.nan, 0.0, 0.0))

    @staticmethod
    def one_row(spec, p):
        """A single point through the batch path, checks included."""
        return CellId(*assign_cells(spec, as_point(p)[None, :])[0].tolist())

    @staticmethod
    def outcome(f, *args):
        try:
            return f(*args)
        except Exception as exc:  # the type and message are compared
            return type(exc), str(exc)

    @staticmethod
    def tie_points(spec, cells):
        """Vertices of ``cells`` and midpoints to their neighbors' centers:
        points equidistant from several centers."""
        R = spec.circumradius
        centers = cell_centers(spec, cells)
        verts = [build_polyhedron(spec.shape, c, R).vertices for c in centers]
        mids = [(c + cell_centers(spec, np.array(neighbors(spec, tuple(cell))))) / 2.0
                for c, cell in zip(centers, cells)]
        return np.vstack(verts + mids)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("r_t,sink", [(1.0, (0.0, 0.0, 0.0)), (3.7, (1.25, -0.4, 2.83))])
    def test_matches_batch(self, shape, r_t, sink):
        # the one-point decoder against assign_cells, row for row: random
        # points, points on cell boundaries (the tie path), HP rows of
        # negative odd v, and the corners of the supported box
        spec = LatticeSpec(shape, r_t, sink=sink)
        R = spec.circumradius
        rng = np.random.default_rng(21)
        cells = np.array([(0, 0, 0), (2, -3, 1), (-1, 2, -2), (1, 1, -1), (3, -5, 0), (-2, -1, 4)])
        odd = np.array([(u, v, w) for u in (-2, 0, 3) for v in (-7, -3, -1) for w in (-1, 2)])
        near_odd = cell_centers(spec, np.repeat(odd, 20, axis=0))
        near_odd += rng.uniform(-R, R, near_odd.shape)
        lim = lattice.MAX_STEPS * spec.step
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
        corners = spec.sink + np.vstack([signs * lim, signs * lim * (1 - 1e-12),
                                         signs * (lim - 2.0 * R)])
        pts = np.vstack([spec.sink + rng.uniform(-8 * R, 8 * R, (3000, 3)),
                         self.tie_points(spec, np.vstack([cells, odd])), near_odd, corners])
        assert (assign_cells(spec, pts) == [assign_cell(spec, p) for p in pts]).all()
        for p in corners.tolist() + (corners * (1 + 1e-9)).tolist():
            assert self.outcome(assign_cell, spec, p) == self.outcome(self.one_row, spec, p)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("r_t,sink", [(1.0, (0.0, 0.0, 0.0)), (3.7, (1.25, -0.4, 2.83))])
    def test_decoders_flag_the_same_rows(self, shape, r_t, sink, monkeypatch):
        # assign_cell sends to the tie step exactly the points that
        # assign_cells sends there, in the same order: random points, the
        # vertices and neighbor midpoints of a 7^3 block, those vertices
        # moved by a few ulps, and points 1e-10 to 1e-6 steps from them, on
        # both sides of the tie tolerance
        spec = LatticeSpec(shape, r_t, sink=sink)
        rng = np.random.default_rng(8)
        verts = np.vstack([build_polyhedron(shape, c, spec.circumradius).vertices
                           for c in cell_centers(spec, id_grid(3))])
        near = verts + (rng.uniform(-1.0, 1.0, verts.shape) * spec.step
                        * 10.0 ** rng.uniform(-10.0, -6.0, (len(verts), 1)))
        pts = np.vstack([spec.sink + rng.uniform(-8.0, 8.0, (3000, 3)) * spec.circumradius,
                         self.tie_points(spec, id_grid(3)), verts + 3 * np.spacing(verts),
                         verts - 2 * np.spacing(verts), near])
        sent = []
        monkeypatch.setattr(lattice, "_settle", lambda spec, xyz:
                            sent.append(list(xyz)) or (0, 0, 0))
        assign_cells(spec, pts)
        bulk = sent[:]
        sent.clear()
        for p in pts:
            assign_cell(spec, p)
        assert sent == bulk
        assert 0 < len(sent) < len(pts)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_ids_are_python_ints(self, shape):
        # a float id equals the int one, so only the types tell them apart:
        # every scalar path returns a CellId of Python ints, on random points
        # and on cell boundaries, where assign_cell takes the tie step;
        # nearest-integer assignment exists on TO alone
        spec = LatticeSpec(shape, 3.7, sink=(1.25, -0.4, 2.83))
        rng = np.random.default_rng(35)
        pts = np.vstack([spec.sink + rng.uniform(-20.0, 20.0, (100, 3)),
                         self.tie_points(spec, np.array([(0, 0, 0), (1, -2, 1)]))])
        calls = [assign_cell, assign_cell_oracle]
        calls += [assign_cell_nearest_int] * (shape is CellShape.TO)
        for p in [*pts, *map(tuple, pts.tolist())]:
            for call in calls:
                cid = call(spec, p)
                assert type(cid) is CellId and all(type(x) is int for x in cid), (call, p, cid)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_fast_path_runs(self, shape, monkeypatch):
        # random points never reach the tie step and points on cell
        # boundaries do, where it gives the oracle's ids; neither decoder
        # calls the oracle, and assign_cell never takes the batch path
        spec = LatticeSpec(shape, 3.7, sink=(1.25, -0.4, 2.83))
        rng = np.random.default_rng(4)
        pts = spec.sink + rng.uniform(-20.0, 20.0, (10_000, 3))
        ties = self.tie_points(spec, np.array([(0, 0, 0), (1, -2, 1)]))
        want = assign_cells_oracle(spec, ties)
        calls = []
        settle = lattice._settle
        monkeypatch.setattr(lattice, "_settle", lambda *a: calls.append(1) or settle(*a))

        def forbidden(*args, **kwargs):
            raise AssertionError("a decoder called the oracle, or assign_cell the batch path")

        monkeypatch.setattr(lattice, "_oracle", forbidden)
        assign_cells(spec, pts)
        assert not calls
        assert (assign_cells(spec, ties) == want).all()
        assert calls
        calls.clear()
        monkeypatch.setattr(lattice, "assign_cells", forbidden)
        for p in pts:
            assign_cell(spec, p)
        assert not calls
        assert [assign_cell(spec, p) for p in ties] == list(map(tuple, want.tolist()))
        assert calls

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("r_t,sink", [(0.1, (4.2e6, 1.2e6, 4.7e6)),
                                          (1.0, (1e8, 1e8, -1e8))])
    def test_far_sink_boundary_points(self, shape, r_t, sink):
        # Far from the origin the rounding of p - sink and of the centers
        # (about ulp(|sink|)) outweighs any fixed tie tolerance: both
        # decoders give the oracle's ids on the vertices of a 3^3 block and
        # on those vertices moved by +-2 ulps, all within that rounding of a
        # tie, at an Earth-centred sink and at a sink of norm about 1.7e8
        spec = LatticeSpec(shape, r_t, sink=sink)
        verts = np.unique(np.vstack([build_polyhedron(shape, c, spec.circumradius).vertices
                                     for c in cell_centers(spec, id_grid(1))]), axis=0)
        up = np.nextafter(np.nextafter(verts, np.inf), np.inf)
        down = np.nextafter(np.nextafter(verts, -np.inf), -np.inf)
        pts = np.vstack([verts, up, down])
        want = assign_cells_oracle(spec, pts)
        assert (assign_cells(spec, pts) == want).all()
        assert [assign_cell(spec, p) for p in pts] == list(map(tuple, want.tolist()))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_invalid_points_raise_batch_errors(self, shape):
        # every invalid point raises what the batch path raises for it,
        # type and message; valid but unusual forms give its id
        spec = LatticeSpec(shape, 3.7, sink=(1.25, -0.4, 2.83))
        points = []
        for bad in (math.nan, math.inf, -math.inf):
            for axis in range(3):
                c = [0.5, -0.25, 1.0]
                c[axis] = bad
                points += [tuple(c), c, np.array(c), np.array(c, dtype=np.float32)]
                with pytest.raises(ValueError, match="^point coordinates must be finite$"):
                    assign_cell(spec, np.array(c))
        points += [
            (1e20, 0.0, 0.0), [0.0, -1e20, 0.0], np.array([0, 0, 10 ** 15]), (10 ** 400, 0, 0),
            np.array([1, 2, 3]), np.array([1, 2, 3], dtype=np.int32), (1, 2, 3), (True, 0, 1),
            np.array([0.3, -0.1, 0.2], dtype=">f8"), np.array([1.0, 9.0, 2.0, 8.0, 3.0])[::2],
            (np.float64(0.3), 0.0, 0.0), np.array([0.1, 0.2, 0.3], dtype=np.float16),
            (1, 2), [1, 2, 3, 4], np.zeros(2), np.zeros((1, 3)), np.zeros((3, 1)), [[1], [2], [3]],
            5.0, "abc", "123", b"abc", ("a", "b", "c"), ("1", "2", "3"), (None, 0, 0), {1, 2, 3},
            (1j, 0, 0), np.array(["1", "2", "3"]), np.array([0.1, 0.2, 0.3], dtype=object),
        ]
        for p in points:
            assert self.outcome(assign_cell, spec, p) == self.outcome(self.one_row, spec, p), p
        with pytest.raises(ValueError, match="lattice steps"):
            assign_cell(spec, np.array([0, 0, 10 ** 15]))
        with pytest.raises(ValueError, match="3D point"):
            assign_cell(spec, (1.0, 2.0))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("r_t,sink", RANDOM_SPECS)
    def test_roundtrip(self, shape, r_t, sink):
        spec = LatticeSpec(shape, r_t, sink=sink)
        ids = id_grid(10)
        back = assign_cells(spec, cell_centers(spec, ids))
        assert (back == ids).all()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_oracle_on_random_points(self, shape):
        spec = LatticeSpec(shape, 1.3, sink=(0.4, -0.2, 0.9))
        rng = np.random.default_rng(11)
        pts = spec.sink + rng.uniform(-6, 6, (20_000, 3))
        assert (assign_cells(spec, pts) == assign_cells_oracle(spec, pts, window=3)).all()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_voronoi_property(self, shape):
        # the chosen center is at least as close as every neighbor center,
        # and never farther than the circumradius
        spec = LatticeSpec(shape, 2.0, sink=(0.1, 0.2, 0.3))
        rng = np.random.default_rng(5)
        pts = spec.sink + rng.uniform(-3, 3, (500, 3))
        ids = assign_cells(spec, pts)
        own = np.linalg.norm(pts - cell_centers(spec, ids), axis=1)
        assert (own <= spec.circumradius * (1 + 1e-9)).all()
        for p, cid, d_own in zip(pts, ids, own):
            for nb in neighbors(spec, CellId(*cid)):
                d_nb = np.linalg.norm(p - cell_center(spec, nb))
                assert d_own <= d_nb * (1 + 1e-12)


class TestExactCoordinates:
    """Points whose real-valued lattice coordinates are exact integers or
    exact halves, where rounding rules meet ties."""

    @staticmethod
    def z_step(spec):
        # spacing of the center layers along z
        return float(cell_center(spec, (0, 0, 1))[2] - spec.sink[2])

    @pytest.mark.parametrize("shape", SHAPES)
    def test_center_layer_planes_match_oracle(self, shape):
        # z = sink_z + k * (z step) makes the z lattice coordinate an exact
        # integer; the sink plane k = 0 gets half of the points
        spec = LatticeSpec(shape, SQRT17, sink=(0.37, -0.21, 0.0))
        rng = np.random.default_rng(17)
        n = 100_000
        pts = spec.sink + rng.uniform(-9.0, 9.0, (n, 3))
        k = np.where(rng.random(n) < 0.5, 0, rng.integers(-3, 4, n))
        pts[:, 2] = spec.sink[2] + k * self.z_step(spec)
        assert (assign_cells(spec, pts) == assign_cells_oracle(spec, pts)).all()

    def test_to_sink_plane_witness(self):
        spec = LatticeSpec("to", SQRT17)
        assert assign_cell(spec, (-9, -9, -2)) == CellId(-4, -4, -1)
        assert assign_cell_oracle(spec, (-9, -9, -2)) == CellId(-4, -4, -1)

    def test_midpoints_go_to_smallest_id(self):
        # step d is exactly 1 here, so every midpoint between a cell and one
        # of its first-tier neighbors is an exact tie in floating point
        spec = LatticeSpec(CellShape.TO, SQRT17)
        cells = id_grid(3)
        pairs = np.array([(c, nb) for c in cells for nb in neighbors(spec, CellId(*c))])
        mids = (cell_centers(spec, pairs[:, 0]) + cell_centers(spec, pairs[:, 1])) / 2.0
        smallest = np.array([min(tuple(a), tuple(b)) for a, b in pairs])
        assert len(mids) == 343 * 14
        assert (assign_cells_oracle(spec, mids) == smallest).all()
        assert (assign_cells(spec, mids) == smallest).all()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_quarter_grid_matches_oracle(self, shape):
        # every point of a grid of quarter meters, including exact ties
        # where several cells meet
        spec = LatticeSpec(shape, 4.0)
        r = np.arange(-8, 9) * 0.25
        pts = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
        assert (assign_cells(spec, pts) == assign_cells_oracle(spec, pts)).all()


_coord = st.floats(-40.0, 40.0, allow_nan=False)


class TestProperty:
    @settings(max_examples=200, deadline=None, database=None)
    @given(
        shape=st.sampled_from(SHAPES),
        r_t=st.floats(0.05, 50.0),
        sink=st.tuples(_coord, _coord, _coord),
        offsets=st.lists(st.tuples(_coord, _coord, _coord), min_size=1, max_size=20),
    )
    def test_decoder_matches_oracle(self, shape, r_t, sink, offsets):
        # offsets are in eighths of r_t, so every example spans a few dozen cells
        spec = LatticeSpec(shape, r_t, sink=sink)
        pts = spec.sink + np.array(offsets) * (r_t / 8.0)
        ids = assign_cells(spec, pts)
        assert (ids == assign_cells_oracle(spec, pts)).all()
        assert (ids == [assign_cell(spec, p) for p in pts]).all()


class TestDomain:
    # the lattice step lies between 0.7 R and 1.2 R for every shape

    @pytest.mark.parametrize("shape", SHAPES)
    def test_far_points_rejected(self, shape):
        spec = LatticeSpec(shape, 1.0, sink=(5.0, 0.0, 0.0))
        far = 1.2 * MAX_STEPS * spec.circumradius
        for p in ((1e20, 0.0, 0.0), (5.0, -far, 0.0), (5.0, 0.0, far)):
            with pytest.raises(ValueError, match="lattice steps"):
                assign_cell(spec, p)
            with pytest.raises(ValueError, match="lattice steps"):
                assign_cells_oracle(spec, [p])

    def test_nearest_int_rejects_far_points(self):
        with pytest.raises(ValueError, match="lattice steps"):
            assign_cell_nearest_int(LatticeSpec(CellShape.TO, 1.0), (0.0, 1e20, 0.0))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_ids_near_the_bound(self, shape):
        # corners of the supported box: ids stay exact, within MAX_STEPS + 2
        spec = LatticeSpec(shape, 1.0, sink=(0.5, -0.25, 2.0))
        rng = np.random.default_rng(8)
        signs = rng.choice([-1.0, 1.0], (1000, 3))
        pts = spec.sink + signs * 0.7 * MAX_STEPS * spec.circumradius
        pts += rng.uniform(-2.0, 2.0, pts.shape)
        ids = assign_cells(spec, pts)
        assert np.abs(ids).max() <= MAX_STEPS + 2
        assert (ids == assign_cells_oracle(spec, pts)).all()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "far", "-far"])
    @pytest.mark.parametrize("assign", [assign_cells, assign_cells_oracle,
                                        assign_cells_nearest_int],
                             ids=["exact", "oracle", "nearest_int"])
    def test_one_bad_row_anywhere_in_a_block(self, assign, bad, monkeypatch):
        # 13 valid rows in blocks of 5, 5 and 3; each call puts the bad
        # coordinate on one axis of one row: the first, a middle or the last
        # row of the first block, of the second full block or of the short
        # last block
        monkeypatch.setattr(lattice, "_CHUNK", 5)
        spec = LatticeSpec(CellShape.TO, 1.0, sink=(0.5, -0.25, 2.0))
        value = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
                 "far": 1.01 * spec.rule.reach, "-far": -1.01 * spec.rule.reach}[bad]
        good = spec.sink + np.random.default_rng(3).uniform(-2.0, 2.0, (13, 3))
        assert len(assign(spec, good)) == 13
        for k, row in enumerate((0, 2, 4, 5, 7, 9, 10, 11, 12)):
            pts = good.copy()
            pts[row, k % 3] = spec.sink[k % 3] + value
            with pytest.raises(ValueError, match="lattice steps"):
                assign(spec, pts)

    def test_complex_points_rejected(self):
        # complex coordinates lost their imaginary parts with only a
        # ComplexWarning: [[1 + 1j, 0, 0]] got the id of (1, 0, 0)
        spec = LatticeSpec(CellShape.TO, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pts in ([[1 + 1j, 0, 0]], np.array([[1 + 0j, 0, 0]]),
                        np.zeros((9, 3), np.complex64)):
                for assign in (assign_cells, assign_cells_oracle, assign_cells_nearest_int):
                    with pytest.raises(ValueError, match="real numbers"):
                        assign(spec, pts)
            one = [functools.partial(f, spec)
                   for f in (assign_cell, assign_cell_nearest_int, assign_cell_oracle)]
            for p in ([1 + 1j, 0, 0], np.array([1 + 1j, 0, 0]), (np.complex128(0.5), 0.0, 0.0)):
                for f in [*one, as_point]:
                    with pytest.raises(ValueError, match="3D point of real numbers"):
                        f(p)
            with pytest.raises(ValueError, match="sink must be a 3D point of real numbers"):
                LatticeSpec(CellShape.TO, 1.0, sink=np.array([0j, 0, 0]))
            # a box's membership test reads points alike
            with pytest.raises(ValueError, match="real numbers"):
                Box(lo=(0, 0, 0), hi=(1, 1, 1)).contains(np.array([[0.5 + 5j, 0.5, 0.5]]))

    @pytest.mark.parametrize("shape", [(4, 2), (2, 2, 3)])
    def test_points_of_wrong_shape_rejected(self, shape):
        spec = LatticeSpec(CellShape.TO, 1.0)
        for assign in (assign_cells, assign_cells_oracle, assign_cells_nearest_int):
            with pytest.raises(ValueError, match=r"expected points of shape \(n, 3\)"):
                assign(spec, np.zeros(shape))


# the words a refusal by each bound of ``LatticeSpec`` must contain
MAGNITUDE = ("2^-500 m", "2^500 m")
TIE_BOUND = ("2^-20",)


def accepts(shape, r_t, sink=(0.0, 0.0, 0.0), bounds=MAGNITUDE):
    """Whether ``LatticeSpec`` takes the spec; a refusal must name ``bounds``."""
    try:
        LatticeSpec(shape, r_t, sink=sink)
    except ValueError as exc:
        assert all(bound in str(exc) for bound in bounds), str(exc)
        return False
    return True


def walk_edge(accepted, x, toward):
    """The accepted float next to a refused one on the side of ``toward``,
    found by walking at most 64 floats from ``x``."""
    away = math.copysign(math.inf, x - toward)
    for _ in range(64):
        inside = accepted(x)
        if inside and not accepted(math.nextafter(x, toward)):
            return x
        x = math.nextafter(x, toward if inside else away)
    raise AssertionError(f"no edge of the domain near {x!r}")


def edge_rt(shape, step, toward, sink=(0.0, 0.0, 0.0), bounds=MAGNITUDE):
    """The accepted r_t next to a refused one on the side of ``toward`` (inf
    or 0), within a few floats of the r_t whose lattice step is ``step``."""
    return walk_edge(lambda r_t: accepts(shape, r_t, sink, bounds),
                     step / LatticeSpec(shape, 1.0).step, toward)


def finest_step(shape, far):
    """The lattice step whose tie tolerance is MAX_TOL at |sink|inf = ``far``:
    tol is 2^-52 (far + 4 MAX_STEPS step) K / step for a constant K of the
    shape, which the spec at the origin sink gives."""
    tol = LatticeSpec(shape, 1.0).rule.tol
    return 2.0 ** -21 * far * tol / (MAX_TOL - tol)


# the largest and the smallest accepted r_t: the step and the r_t to walk to
EDGES = pytest.mark.parametrize("step,toward", [(MAX_MAGNITUDE / MAX_STEPS, math.inf),
                                                (1.0 / MAX_MAGNITUDE, 0.0)],
                                ids=["largest", "smallest"])


class TestMagnitudes:
    # a spec's lattice step must be at least 2^-500 m, its largest sink
    # coordinate plus MAX_STEPS steps at most MAX_MAGNITUDE = 2^500 m, and
    # its tie tolerance at most MAX_TOL = 2^-20

    @pytest.mark.parametrize("shape", SHAPES)
    @EDGES
    def test_rt_just_inside_and_outside(self, shape, step, toward):
        r_t = edge_rt(shape, step, toward)
        spec = LatticeSpec(shape, r_t)
        assert 2.0 ** -500 <= spec.step and spec.rule.reach <= MAX_MAGNITUDE
        assert not accepts(shape, math.nextafter(r_t, toward))
        for r_t in (1e160, 1e306, 1e-160, 1e-300):
            assert not accepts(shape, r_t)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_sink_just_inside_and_outside(self, shape):
        # A sink just below 2^500 m takes the finest step the tie bound
        # allows there, about 2^-32 of |sink|, and no finer one. At twice
        # that step the largest sink along each axis is the one whose
        # |sink|inf + MAX_STEPS steps is within 2^500 m. At r_t = 1 a sink of
        # 2^500 m, where floats are 2^448 m apart, is refused.
        far = MAX_MAGNITUDE * (1.0 - 2.0 ** -8)
        for axis in range(3):
            for sign in (1.0, -1.0):
                sink = [0.0, 0.0, 0.0]
                sink[axis] = sign * far
                r_t = edge_rt(shape, finest_step(shape, far), 0.0, sink, TIE_BOUND)
                assert LatticeSpec(shape, r_t, sink=sink).rule.tol <= MAX_TOL
                reach = LatticeSpec(shape, 2.0 * r_t).rule.reach

                def takes(s):
                    sink[axis] = s
                    return accepts(shape, 2.0 * r_t, sink)

                edge = walk_edge(takes, sign * (MAX_MAGNITUDE - reach), sign * math.inf)
                assert abs(edge) + reach <= MAX_MAGNITUDE
                sink[axis] = sign * MAX_MAGNITUDE
                assert not accepts(shape, 1.0, sink, TIE_BOUND)
        assert not accepts(shape, 1e306, (-1.7e308, 0.0, 0.0))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("r_t", [1e-5, 1e-8, 1e-10])
    def test_step_below_float_resolution_is_refused(self, shape, r_t):
        # at a sink of (1e8, 1e8, -1e8), where floats are 1.5e-8 m apart,
        # the decoder flagged 5 to 15 % of points at r_t 1e-5, and at 1e-8
        # and below ids depended on the oracle's window
        with pytest.raises(ValueError, match=r"tie tolerance .* at most 2\^-20"):
            LatticeSpec(shape, r_t, sink=(1e8, 1e8, -1e8))
        assert accepts(shape, 1.0, (1e8, 1e8, -1e8))
        assert accepts(shape, 0.1, (4.2e6, 1.2e6, 4.7e6))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_finest_step_at_far_sink_matches_the_oracle(self, shape):
        # the finest step the tie bound allows at a sink of (1e8, 1e8, -1e8):
        # oracle windows 2 and 8 agree, and so do assign_cells and
        # assign_cell, on random points, a 3^3 block's vertices and those
        # vertices moved by 2 ulps
        sink = (1e8, 1e8, -1e8)
        spec = LatticeSpec(shape, edge_rt(shape, finest_step(shape, 1e8), 0.0, sink, TIE_BOUND),
                           sink=sink)
        assert spec.rule.tol > MAX_TOL / 2
        verts = np.vstack([build_polyhedron(shape, c, spec.circumradius).vertices
                           for c in cell_centers(spec, id_grid(1))])
        rng = np.random.default_rng(31)
        pts = np.vstack([spec.sink + rng.uniform(-5.0, 5.0, (3000, 3)) * spec.circumradius, verts,
                         np.nextafter(np.nextafter(verts, np.inf), np.inf),
                         np.nextafter(np.nextafter(verts, -np.inf), -np.inf)])
        want = assign_cells_oracle(spec, pts, window=2)
        assert (assign_cells_oracle(spec, pts, window=MAX_WINDOW) == want).all()
        assert (assign_cells(spec, pts) == want).all()
        assert [assign_cell(spec, p) for p in pts] == list(map(tuple, want.tolist()))

    @pytest.mark.parametrize("shape", SHAPES)
    @EDGES
    def test_extreme_rt_matches_exact_search(self, shape, step, toward):
        # At the largest r_t the squares of the oracle's candidate cut reach
        # about 2^962, and at the smallest they fall to about 2^-1000; its
        # float32 scores, in scaled units, are O(1) at both. All three
        # assignments still give the exact nearest center, smallest id
        # among ties, on a 3^3 block's vertices
        spec = LatticeSpec(shape, edge_rt(shape, step, toward))
        cells = id_grid(1)
        verts = [build_polyhedron(shape, c, spec.circumradius).vertices
                 for c in cell_centers(spec, cells)]
        owners = np.repeat(cells, [len(v) for v in verts], axis=0)
        pts = np.vstack(verts)
        want = exact_nearest(spec, pts, owners)[0]
        assert (assign_cells_oracle(spec, pts) == want).all()
        assert (assign_cells(spec, pts) == want).all()
        assert [assign_cell(spec, p) for p in pts] == list(map(tuple, want.tolist()))


class TestNearestInt:
    def test_exact_centers(self):
        spec = LatticeSpec(CellShape.TO, SQRT17)
        assert assign_cell_nearest_int(spec, (1, 1, 1)) == CellId(0, 0, 1)
        assert assign_cell_nearest_int(spec, (2, 0, 0)) == CellId(1, 0, 0)

    def test_only_to_supported(self):
        spec = LatticeSpec(CellShape.CB, 1.0)
        with pytest.raises(ValueError):
            assign_cell_nearest_int(spec, (0.1, 0.2, 0.3))

    @staticmethod
    def batch_row(spec, p):
        """One point through the array path, read with ``as_point`` first."""
        return CellId(*assign_cells_nearest_int(spec, as_point(p)[None, :])[0].tolist())

    @pytest.mark.parametrize("r_t,sink", [(SQRT17, (0.0, 0.0, 0.0)), *RANDOM_SPECS,
                                          (0.1, (4.2e6, 1.2e6, 4.7e6))])
    def test_one_point_matches_batch(self, r_t, sink):
        spec = LatticeSpec(CellShape.TO, r_t, sink=sink)
        rng = np.random.default_rng(23)
        reach = MAX_STEPS * spec.step
        pts = [*(spec.sink + rng.uniform(-3, 3, (3000, 3)) * spec.circumradius),
               *(spec.sink + rng.uniform(-reach, reach, (300, 3)))]
        for p in pts:
            assert assign_cell_nearest_int(spec, p) == self.batch_row(spec, p), p.tolist()

    def test_halves_round_away_from_zero(self):
        # step 1 and sink 0: t = p and f = (p0/2 - p2/2, p1/2 - p2/2, p2),
        # exact, so each point puts the real ids f where it says
        spec = LatticeSpec(CellShape.TO, SQRT17)
        below = 0.49999999999999994  # 1/2 - 2^-54: f + 1/2 rounds up to 1
        cases = {
            (1.0, -1.0, 0.0): (1, -1, 0),  # f = (1/2, -1/2, 0)
            (0.0, 3.0, -0.5): (0, 2, -1),  # f = (1/4, 7/4, -1/2)
            (2 * below, -2 * below, 0.0): (1, -1, 0),  # round() gives (0, 0, 0)
            (0.0, 0.0, below): (0, 0, 1),
            (0.0, 0.0, -below): (0, 0, -1),
            (-0.0, -0.0, -0.0): (0, 0, 0),
            (-0.0, 0.0, -0.0): (0, 0, 0),
        }
        for p, want in cases.items():
            assert assign_cell_nearest_int(spec, p) == want == self.batch_row(spec, p), p
        assert round(below) == 0 and round(0.5) == 0

    @pytest.mark.parametrize("shape", [CellShape.TO, CellShape.CB])
    def test_errors_match_batch(self, shape):
        # type and message of each error, and the order of the checks: the
        # point's form and finiteness, then the shape, then the domain
        spec = LatticeSpec(shape, 1.0, sink=(5.0, 0.0, 0.0))
        points = [(math.nan, 0.0, 0.0), [0.0, math.inf, 0.0], np.array([0.0, 0.0, -math.inf]),
                  (1e20, 0.0, 0.0), (5.0, -1e7, 0.0), (1.0, 2.0), "abc", np.zeros((1, 3)),
                  (1, 2, 3), np.array([0.1, 0.2, 0.3], dtype=np.float32)]
        for p in points:
            assert (TestAssignCell.outcome(assign_cell_nearest_int, spec, p)
                    == TestAssignCell.outcome(self.batch_row, spec, p)), p

    def test_agrees_with_exact_where_rounding_is_safe(self):
        # points well inside the rounding cube of their own cell
        spec = LatticeSpec(CellShape.TO, SQRT17)
        ids = id_grid(3)
        centers = cell_centers(spec, ids)
        assert (assign_cells_nearest_int(spec, centers) == ids).all()


class TestOracle:
    def test_exact_centers(self):
        for shape in SHAPES:
            spec = LatticeSpec(shape, 2.7, sink=(1.0, 1.0, -0.5))
            ids = id_grid(2)
            got = assign_cells_oracle(spec, cell_centers(spec, ids), window=2)
            assert (got == ids).all()

    def test_window_self_consistency(self):
        spec = LatticeSpec(CellShape.TO, SQRT17)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-8, 8, (10_000, 3))
        w2 = assign_cells_oracle(spec, pts, window=2)
        w4 = assign_cells_oracle(spec, pts, window=4)
        assert (w2 == w4).all()
        # with ties decided exactly, the window's extent changes no id, on
        # any shape, cell vertices included
        for shape in SHAPES:
            spec = LatticeSpec(shape, 3.7, sink=(1.25, -0.4, 2.83))
            centers = cell_centers(spec, id_grid(1))
            verts = [build_polyhedron(shape, c, spec.circumradius).vertices for c in centers]
            pts = np.vstack([spec.sink + rng.uniform(-20, 20, (2_000, 3))] + verts)
            w2 = assign_cells_oracle(spec, pts, window=2)
            assert (assign_cells_oracle(spec, pts, window=MAX_WINDOW) == w2).all()

    def test_example_point(self):
        spec = LatticeSpec(CellShape.TO, SQRT17)
        assert assign_cell_oracle(spec, (0.6, 0.6, 0.6), window=2) == CellId(0, 0, 1)

    @staticmethod
    def check_far_sink_vertices(shape, half):
        """One-row oracle calls give the ids of one call on all rows, and
        those are the ids of fractions.Fraction, on the vertices of the
        (2 half + 1)^3 block of cells at the sink (1e8, 1e8, -1e8) and those
        vertices moved by +-2 ulps."""
        spec = LatticeSpec(shape, 1.0, sink=(1e8, 1e8, -1e8))
        block = id_grid(half)
        verts = [build_polyhedron(spec.shape, c, spec.circumradius).vertices
                 for c in cell_centers(spec, block)]
        owners = np.tile(np.repeat(block, [len(v) for v in verts], axis=0), (3, 1))
        verts = np.vstack(verts)
        up = np.nextafter(np.nextafter(verts, np.inf), np.inf)
        down = np.nextafter(np.nextafter(verts, -np.inf), -np.inf)
        pts = np.vstack([verts, up, down])
        got = assign_cells_oracle(spec, pts)
        one = np.vstack([assign_cells_oracle(spec, p[None, :]) for p in pts])
        assert (one == got).all()
        # the ids against fractions.Fraction, over the centers within 2R of
        # each point's owner whose float distance is near the smallest
        cand = owners[:, None, :] + id_grid(2)
        centers = cell_centers(spec, cand)
        d2 = ((pts[:, None, :] - centers) ** 2).sum(axis=2)
        frac = functools.cache(Fraction)
        for i, near in enumerate(d2 <= d2.min(axis=1, keepdims=True) + 1e-6):
            p = [Fraction(x) for x in pts[i].tolist()]
            exact = [sum((a - frac(b)) ** 2 for a, b in zip(p, c))
                     for c in centers[i, near].tolist()]
            assert tuple(got[i]) == min(zip(exact, map(tuple, cand[i, near].tolist())))[1]

    def test_rows_independent_with_far_sink(self):
        # The candidate cut keeps every center that can win, whatever rows
        # share the chunk, when the rounding of the centers (about
        # ulp(|sink|)) outweighs a relative slack on the cut radius, and the
        # float filter's bound holds there: RD over a 5^3 block
        self.check_far_sink_vertices(CellShape.RD, 2)

    @pytest.mark.parametrize("shape", [CellShape.CB, CellShape.HP, CellShape.TO])
    def test_far_sink_vertices_match_fractions(self, shape):
        # the same check on the other shapes, whose candidate tables and
        # scores differ, over a 3^3 block
        self.check_far_sink_vertices(shape, 1)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_candidate_table_per_spec_and_window(self, shape):
        # The kept candidates are built from the spec and window alone, once
        # per call: specs of one shape at different r_t and sinks,
        # alternating with windows 2, 3 and 8, give the same ids at every
        # window, on random points and on the vertices of a 3^3 block (the
        # exact re-score)
        specs = [LatticeSpec(shape, r_t, sink=sink) for r_t, sink in
                 [(3.7, (1.25, -0.4, 2.83)), (0.1, (4.2e6, 1.2e6, 4.7e6)),
                  (1.0, (1e8, 1e8, -1e8))]]
        rng = np.random.default_rng(6)
        pts = {spec: np.vstack([
            spec.sink + rng.uniform(-6.0, 6.0, (2_000, 3)) * spec.circumradius,
            *(build_polyhedron(shape, c, spec.circumradius).vertices
              for c in cell_centers(spec, id_grid(1)))]) for spec in specs}
        runs = [(spec, window) for window in (2, 3, MAX_WINDOW) for spec in specs]
        got = {run: assign_cells_oracle(run[0], pts[run[0]], run[1]) for run in runs}
        for spec, window in runs:
            assert (got[spec, window] == got[spec, 2]).all()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_kept_candidates_per_shape(self, shape):
        # The cut keeps the window's candidates within R of the rounding box
        # M [-1/2, 1/2]^3 (by its support function), the same count at
        # every window and spec; a ball around the middle center, or a
        # looser support function, keeps more
        want = {CellShape.CB: 27, CellShape.HP: 21, CellShape.RD: 17, CellShape.TO: 15}[shape]
        for r_t, sink in [(3.7, (1.25, -0.4, 2.83)), (0.1, (4.2e6, 1.2e6, 4.7e6)),
                          (1.0, (1e8, 1e8, -1e8))]:
            spec = LatticeSpec(shape, r_t, sink=sink)
            for window in (2, 3, MAX_WINDOW):
                table = lattice._oracle_table(spec, window)
                assert table.offs.shape == (3, want) and table.score.shape == (want, 4)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_cut_on_the_rounding_box_boundary(self, shape):
        # The candidate cut is rigorous where it is tight: points
        # center + scale M f, f on the vertices, edge midpoints and face
        # centers of [-1/2, 1/2]^3, the boundary of the rounding box around
        # the middle center, and those points 1 ulp up and down, get at
        # windows 2 and 3 the ids of an exact search without the cut: every
        # center of a public id grid within 1.001 R of the point (the
        # nearest is within R), scored in fractions.Fraction, the smallest
        # id winning exact ties. The sinks far from the origin make the
        # centers' rounding the cut's slack must cover; the first spec of CB
        # and TO makes every coordinate a binary fraction, so that vertex
        # ties are exact
        binary = {CellShape.CB: 2 * math.sqrt(3.0), CellShape.TO: SQRT17}.get(shape, 2.7)
        cells = np.array([(0, 0, 0), (2, -3, 1), (1, 1, 1), (-2, 1, -1), (3, 4, 2)])
        f = np.indices((3, 3, 3)).reshape(3, -1).T / 2.0 - 0.5
        f = f[np.abs(f).max(axis=1) == 0.5]  # 8 vertices, 12 edge midpoints, 6 face centers
        grid = id_grid(4)
        for r_t, sink in [(binary, (0.5, -1.25, 2.0)), (3.7, (1.25, -0.4, 2.83)),
                          (0.1, (4.2e6, 1.2e6, 4.7e6)), (1.0, (1e8, 1e8, -1e8))]:
            spec = LatticeSpec(shape, r_t, sink=sink)
            R = spec.circumradius
            box = f @ (np.array(_BASES[shape], dtype=float) * spec.rule.scale).T
            pts = (cell_centers(spec, cells)[:, None, :] + box).reshape(-1, 3)
            pts = np.vstack([pts, np.nextafter(pts, np.inf), np.nextafter(pts, -np.inf)])
            owners = np.tile(np.repeat(cells, len(f), axis=0), (3, 1))
            cand = owners[:, None, :] + grid
            centers = cell_centers(spec, cand)
            near = ((pts[:, None, :] - centers) ** 2).sum(axis=2) <= (1.001 * R) ** 2
            want = np.empty_like(owners)
            frac = functools.cache(Fraction)
            for i, row in enumerate(near):
                assert row.any() and (np.abs(grid[row]) < 4).all()  # the grid covers them
                p = [Fraction(x) for x in pts[i].tolist()]
                exact = [sum((a - frac(b)) ** 2 for a, b in zip(p, c))
                         for c in centers[i, row].tolist()]
                want[i] = min(zip(exact, map(tuple, cand[i, row].tolist())))[1]
            for window in (2, 3):
                assert (assign_cells_oracle(spec, pts, window) == want).all(), (r_t, window)

    def test_window_validation(self):
        spec = LatticeSpec(CellShape.TO, 1.0)
        with pytest.raises(ValueError):
            assign_cell_oracle(spec, (0, 0, 0), window=1)
        with pytest.raises(ValueError, match="window"):
            assign_cell_oracle(spec, (0, 0, 0), window=MAX_WINDOW + 1)
        assert assign_cell_oracle(spec, (0, 0, 0), window=MAX_WINDOW) == CellId(0, 0, 0)
        # a window that is not an integer passed the range check and then
        # raised np.indices' TypeError; numpy integers pass
        for window in (3.0, 2.5, np.float64(3.0), "3", None):
            for call in (assign_cell_oracle, assign_cells_oracle):
                with pytest.raises(ValueError, match=f"oracle window must be an integer, "
                                                     f"got {re.escape(repr(window))}"):
                    call(spec, (0.0, 0.0, 0.0), window=window)
        for window in (np.int64(3), np.uint8(2), np.int32(MAX_WINDOW)):
            assert assign_cell_oracle(spec, (0, 0, 0), window=window) == CellId(0, 0, 0)
            assert (assign_cells_oracle(spec, [(0, 0, 0)], window=window) == [[0, 0, 0]]).all()

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("r_t,sink", RANDOM_SPECS[:2])
    def test_matches_kdtree_nearest_center(self, shape, r_t, sink):
        # independent of the oracle's candidate pruning: nearest center by a
        # k-d tree over every center of an id grid that covers the points
        spec = LatticeSpec(shape, r_t, sink=sink)
        R = spec.circumradius
        rng = np.random.default_rng(17)
        pts = spec.sink + rng.uniform(-6 * r_t, 6 * r_t, (100_000, 3))
        # every center within reach of the points has |id| <= reach / step + 1
        reach = 6 * r_t + 2 * R
        ids = id_grid(math.ceil(reach / min(cell_spacing(shape, R))) + 1)
        centers = cell_centers(spec, ids)
        near = (np.abs(centers - spec.sink) <= reach).all(axis=1)
        ids, centers = ids[near], centers[near]
        dist, idx = cKDTree(centers).query(pts, k=2)
        assert dist[:, 0].max() <= R * (1 + 1e-9)  # the grid covers every point
        clear = dist[:, 1] - dist[:, 0] > 1e-9 * R
        assert clear.mean() > 0.99
        got = assign_cells_oracle(spec, pts[clear])
        assert (got == ids[idx[clear, 0]]).all()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_cell_vertices(self, shape):
        # The oracle's contract on points equidistant from several centers:
        # the id whose center, as cell_centers computes it, is nearest to the
        # float point in exact arithmetic, the smallest (u, v, w) among exact
        # ties. Vertices sit equidistant from several centers, the farthest
        # at R, the covering radius and the edge of the oracle's candidate
        # cut-off (RD's 3-edge vertices sit closer, at R sqrt3 / 2). Only the
        # first spec of CB (side 1) and TO (step 1) makes every coordinate a
        # binary fraction, so that the equidistant centers tie exactly in
        # floating point; elsewhere rounding separates them by a few ulps.
        binary = {CellShape.CB: 2 * math.sqrt(3.0), CellShape.TO: SQRT17}.get(shape, 3.7)
        specs = [(binary, (0.5, -1.25, 2.0)), (3.7, (1.25, -0.4, 2.83)),
                 (0.8, (0.0, 0.0, 0.0)), (17.0, (-3.3, 2.2, -1.1))]
        cells = np.array([(0, 0, 0), (2, -3, 1), (-1, 2, -2), (1, 1, -1)])
        for r_t, sink in specs:
            spec = LatticeSpec(shape, r_t, sink=sink)
            R = spec.circumradius
            verts = [build_polyhedron(shape, c, R).vertices for c in cell_centers(spec, cells)]
            owners = np.repeat(cells, [len(v) for v in verts], axis=0)
            pts = np.vstack(verts)
            want, d2 = exact_nearest(spec, pts, owners)
            dmin = np.sqrt(d2.min(axis=1, keepdims=True))
            tied = np.sqrt(d2) <= dmin + 1e-9 * R
            assert (tied.sum(axis=1) >= 3).all()
            assert dmin.max() == pytest.approx(R, rel=1e-9)
            if r_t == binary and shape in (CellShape.CB, CellShape.TO):
                assert (d2 == d2.min(axis=1, keepdims=True))[tied].all()
            assert (assign_cells_oracle(spec, pts) == want).all()
            assert (assign_cells(spec, pts) == want).all()
        if shape is CellShape.HP:
            # HP's basis order is not its public order: the neighbor-pair
            # midpoints and cell vertices of a 7^3 block, at two more specs
            for r_t, sink in [(0.8, (1.0, -0.32, 2.264)), (1.0, (0.5, 0.25, -1.0))]:
                spec = LatticeSpec(shape, r_t, sink=sink)
                R = spec.circumradius
                block = id_grid(3)
                centers = cell_centers(spec, block)
                nbs = [cell_centers(spec, np.array(neighbors(spec, tuple(c)))) for c in block]
                verts = [build_polyhedron(shape, c, R).vertices for c in centers]
                pts = np.vstack([(c + nb) / 2.0 for c, nb in zip(centers, nbs)] + verts)
                owners = np.repeat(np.vstack([block, block]),
                                   [len(x) for x in nbs + verts], axis=0)
                # each midpoint and vertex once, whichever of its cells built it
                pts, first = np.unique(pts, axis=0, return_index=True)
                owners = owners[first]
                want = exact_nearest(spec, pts, owners)[0]
                assert (assign_cells_oracle(spec, pts) == want).all()
                assert (assign_cells(spec, pts) == want).all()


def filter_specs(shape):
    """The float32 filter's specs: the origin sink, a far sink, r_t 1e-100
    and 1e100, and the finest step at the far sink, on the MAX_TOL edge."""
    far = (1e8, 1e8, -1e8)
    edge = edge_rt(shape, finest_step(shape, 1e8), 0.0, far, TIE_BOUND)
    return {"origin": LatticeSpec(shape, 1.0), "far sink": LatticeSpec(shape, 1.0, sink=far),
            "r_t 1e-100": LatticeSpec(shape, 1e-100), "r_t 1e100": LatticeSpec(shape, 1e100),
            "MAX_TOL edge": LatticeSpec(shape, edge, sink=far)}


# how far the near-tie points are moved off their ties, in units of R
NEAR_TIE_DELTAS = [2.0 ** -30, 2.0 ** -26, 2.0 ** -23, 2.0 ** -20]


def near_ties(spec, seed):
    """Points on ties moved off them: the vertices of three cells (HP's odd
    rows among them) and the midpoints to their neighbors' centers, on the
    neighbors' bisectors, each moved by delta R along two random directions
    for every delta of ``NEAR_TIE_DELTAS``; with the cell whose boundary
    held each point."""
    cells = np.array([(0, 0, 0), (2, -3, 1), (-1, 1, 2)])
    centers = cell_centers(spec, cells)
    ties = [build_polyhedron(spec.shape, c, spec.circumradius).vertices for c in centers]
    ties += [(c + cell_centers(spec, np.array(neighbors(spec, tuple(cell))))) / 2.0
             for c, cell in zip(centers, cells)]
    owners = np.repeat(np.vstack([cells, cells]), [len(t) for t in ties], axis=0)
    ties = np.vstack(ties)
    rng = np.random.default_rng(seed)
    pts, cells = [], []
    for delta in NEAR_TIE_DELTAS:
        for _ in range(2):
            step = rng.normal(size=ties.shape)
            step *= delta * spec.circumradius / np.sqrt((step * step).sum(axis=1, keepdims=True))
            pts.append(ties + step)
            cells.append(owners)
    return np.vstack(pts), np.vstack(cells)


def fraction_nearest(spec, pts, owners):
    """The nearest center to each point in exact arithmetic, the smallest
    public (u, v, w) among exactly equidistant ones, found with no part of
    the oracle: among the centers of ``cell_centers`` within 2R of the
    point in the public id window of half-width 2 around its owner. A point
    lies within R (1 + 2^-20) of its owner's center, so its nearest centers
    lie within 2R of that center, and the window holds every center within
    2R of it. The float squared distances pick the centers within 2^-10 R^2
    of the nearest, far wider than their rounding at every spec here, and
    ``fractions.Fraction`` decides among them."""
    R = spec.circumradius
    cand = owners[:, None, :] + id_grid(2)
    centers = cell_centers(spec, cand)
    # in units of R: the float squares stay finite at r_t 1e100 and 1e-100
    d2 = ((((pts[:, None, :] - centers) / R) ** 2).sum(axis=2))
    assert d2.min(axis=1).max() <= 1.0 + 1e-6
    near = (d2 <= 4.0) & (d2 <= d2.min(axis=1, keepdims=True) + 2.0 ** -10)
    want = np.empty_like(owners)
    frac = functools.cache(Fraction)
    for i, row in enumerate(near):
        p = [Fraction(x) for x in pts[i].tolist()]
        exact = [sum((a - frac(b)) ** 2 for a, b in zip(p, c)) for c in centers[i, row].tolist()]
        want[i] = min(zip(exact, map(tuple, cand[i, row].tolist())))[1]
    return want


class TestFloatFilter:
    """The oracle's float32 filter, in scaled units, against exact
    arithmetic where float32 cannot decide: an under-sized tolerance, a
    dropped metric or rows in metres each give wrong ids here."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_near_ties_match_fraction_search(self, shape):
        # near-ties 2^-30 to 2^-20 R off a tie are within float32's
        # resolution of the scores; the oracle must flag those it cannot
        # decide and re-score them exactly
        for name, spec in filter_specs(shape).items():
            pts, owners = near_ties(spec, 41)
            want = fraction_nearest(spec, pts, owners)
            assert (assign_cells_oracle(spec, pts) == want).all(), name

    @pytest.mark.parametrize("shape", SHAPES)
    def test_score_error_within_tol(self, shape):
        # The filter's rigorous tol, measured: on random rows and near-tie
        # rows, each float32 score against the exact difference of its
        # candidate's squared distance and the middle candidate's, in units
        # of scale0^2, from the centers of cell_centers in Fractions. The
        # observed error is printed over tol, which covers twice the error
        # of one score, and lies in (0, 1)
        rng = np.random.default_rng(47)
        for name, spec in filter_specs(shape).items():
            R, scale0 = spec.circumradius, Fraction(spec.rule.scale[0])
            pts = np.vstack([spec.sink + rng.uniform(-4.0, 4.0, (60, 3)) * R,
                             near_ties(spec, 43)[0][::12]])
            table = lattice._oracle_table(spec, 3)
            t = lattice._relative(spec, pts, np.empty((3, len(pts))))
            base = lattice._nearest_int(spec, pts, t)
            scores = lattice._oracle_scores(t, base, table).T.tolist()
            # the candidates' public ids, row by row
            ids = half_steps(shape, base.T[:, None, :] + table.offs.T, 1)
            middle = np.flatnonzero((table.offs == 0).all(axis=0))[0]
            centers = cell_centers(spec, ids).tolist()
            frac, worst = functools.cache(Fraction), 0.0  # the centers' coordinates recur
            for p, cs, s in zip(pts.tolist(), centers, scores):
                p = [Fraction(x) for x in p]
                d2 = [sum((a - frac(b)) ** 2 for a, b in zip(p, c)) for c in cs]
                assert s[middle] == 0.0
                worst = max(worst, *(abs(Fraction(x) - (d - d2[middle]) / scale0 ** 2)
                                     for x, d in zip(s, d2)))
            ratio = float(worst / Fraction(table.tol))
            print(f"{shape.value} {name}: observed score error / tol = {ratio:.3g} "
                  f"(tol {table.tol:.3g})")
            assert 0.0 < ratio < 1.0, name


class TestBlockSize:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_ids_do_not_depend_on_the_block_size(self, shape, monkeypatch):
        # assign_cells and the oracle work lattice._CHUNK rows at a time; in
        # blocks of an odd 997 rows, tie rows (the vertices and neighbor
        # midpoints of a 7^3 block) sit on both sides of block edges
        spec = LatticeSpec(shape, 3.7, sink=(1.25, -0.4, 2.83))
        rng = np.random.default_rng(23)
        pts = np.vstack([spec.sink + rng.uniform(-8.0, 8.0, (5_000, 3)) * spec.circumradius,
                         TestAssignCell.tie_points(spec, id_grid(3))])
        chunk = 997
        edges = np.arange(chunk, len(pts), chunk)
        settled, settle = set(), lattice._settle
        monkeypatch.setattr(lattice, "_settle", lambda spec, xyz:
                            settled.add(tuple(xyz)) or settle(spec, xyz))
        ids, truth = assign_cells(spec, pts), assign_cells_oracle(spec, pts)
        tie = np.array([p in settled for p in map(tuple, pts.tolist())])
        assert (tie[edges - 1] & tie[edges]).any()
        assert len(pts) % chunk and len(pts) % lattice._CHUNK and len(pts) > lattice._CHUNK
        monkeypatch.setattr(lattice, "_CHUNK", chunk)
        assert (assign_cells(spec, pts) == ids).all()
        assert (assign_cells_oracle(spec, pts) == truth).all()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_ids_do_not_depend_on_the_layout(self, shape, monkeypatch):
        # the bulk paths read points in columns: a Fortran-ordered array and
        # strided views give the ids of the C-contiguous copy, over random
        # points and tie points of HP's odd rows among others, in blocks of
        # 997 rows whose last one is partial
        spec = LatticeSpec(shape, 3.7, sink=(1.25, -0.4, 2.83))
        rng = np.random.default_rng(29)
        cells = np.array([(0, 0, 0), (2, -3, 1), (-1, -1, 2), (3, 5, -2)])
        pts = np.vstack([spec.sink + rng.uniform(-8.0, 8.0, (2_500, 3)) * spec.circumradius,
                         TestAssignCell.tie_points(spec, cells)])
        wide = np.zeros((len(pts), 9))
        wide[:, 1::3] = pts
        tall = np.zeros((2 * len(pts), 3))
        tall[::2] = pts
        layouts = [np.asfortranarray(pts), wide[:, 1::3], tall[::2]]
        assert not any(p.flags.c_contiguous for p in layouts)
        monkeypatch.setattr(lattice, "_CHUNK", 997)
        methods = [assign_cells_oracle, assign_cells]
        if shape is CellShape.TO:
            methods.append(assign_cells_nearest_int)
        for method in methods:
            want = method(spec, pts)
            for p in layouts:
                assert (method(spec, p) == want).all(), method.__name__


class TestDecoder:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("r_t,sink", [(3.7, (1.25, -0.4, 2.83)), (0.1, (4.2e6, 1.2e6, 4.7e6))])
    def test_decode_only_reads_p_minus_sink(self, shape, r_t, sink, monkeypatch):
        # the accuracy run hands one p - sink to _decode and then to
        # _nearest_int, with no copy: the decoder leaves it bit for bit as
        # it was, tie rows among them, and gives assign_cells' basis ids
        spec = LatticeSpec(shape, r_t, sink=sink)
        rng = np.random.default_rng(43)
        pts = np.vstack([spec.sink + rng.uniform(-8.0, 8.0, (2_000, 3)) * spec.circumradius,
                         TestAssignCell.tie_points(spec, id_grid(1))])
        rel = lattice._relative(spec, pts, np.empty((3, len(pts))))
        before = rel.copy()
        settled, settle = [], lattice._settle
        monkeypatch.setattr(lattice, "_settle", lambda *a: settled.append(1) or settle(*a))
        ids = lattice._decode(spec, pts, rel, lattice._work(spec, len(pts), spec.rule.tol))
        assert settled
        assert rel.tobytes() == before.tobytes()
        assert (ids.T == half_steps(shape, assign_cells(spec, pts), -1)).all()


class TestBulkMemory:
    def test_peak_is_the_result_and_one_block(self):
        # the three bulk paths form p - sink, score and convert one block at
        # a time: on 1e6 points they hold little beyond their 22.9 MiB result
        spec = LatticeSpec(CellShape.TO, 1.0)
        pts = np.random.default_rng(37).uniform(-20.0, 20.0, (1_000_000, 3))
        for method in (assign_cells_nearest_int, assign_cells, assign_cells_oracle):
            tracemalloc.start()
            try:
                ids = method(spec, pts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            print(f"{method.__name__}: tracemalloc peak {peak / 2 ** 20:.1f} MiB, "
                  f"result {ids.nbytes / 2 ** 20:.1f} MiB")
            assert peak <= ids.nbytes + 4 * 2 ** 20, method.__name__
            del ids


class TestNeighbors:
    def test_to_reference_list(self):
        spec = LatticeSpec(CellShape.TO, 1.0)
        nbrs = neighbors(spec, (0, 0, 0))
        assert len(nbrs) == 14
        assert {tuple(n) for n in nbrs} == TO_NEIGHBOR_OFFSETS
        assert CellId(-1, -1, 2) in nbrs

    def test_to_translation(self):
        spec = LatticeSpec(CellShape.TO, 1.0)
        base = CellId(3, -2, 5)
        got = {(n.u - base.u, n.v - base.v, n.w - base.w) for n in neighbors(spec, base)}
        assert got == TO_NEIGHBOR_OFFSETS

    def test_hex_face_center_distance(self):
        spec = LatticeSpec(CellShape.TO, SQRT17)
        d = np.linalg.norm(cell_center(spec, (0, 0, 1)) - cell_center(spec, (0, 0, 0)))
        assert d == pytest.approx(math.sqrt(3.0), rel=1e-12)

    @pytest.mark.parametrize("shape,count", [
        (CellShape.CB, 26), (CellShape.HP, 20), (CellShape.RD, 18), (CellShape.TO, 14),
    ])
    def test_counts_and_symmetry(self, shape, count):
        spec = LatticeSpec(shape, 1.0)
        for base in (CellId(0, 0, 0), CellId(2, -3, 1), CellId(-1, 1, -2)):
            nbrs = neighbors(spec, base)
            assert len(nbrs) == count
            assert len(set(nbrs)) == count
            assert base not in nbrs
            for nb in nbrs:
                assert base in neighbors(spec, nb)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_int64_table_form(self, shape):
        # the per-cell Python-int rows equal the basis-id offsets applied to
        # int64 basis ids, order included, across the domain and at its
        # edges; HP cells with negative odd v check that the odd-row steps
        # agree with int64's floored v >> 1
        spec = LatticeSpec(shape, 1.0)
        edge = MAX_STEPS + 2
        rng = np.random.default_rng(41)
        cells = [*rng.integers(-edge, edge + 1, (300, 3)).tolist(),
                 *itertools.product((-edge, 1 - edge, edge - 1, edge), repeat=3),
                 *itertools.product((-2, 0, 3), (-7, -5, -3, -1, 0, 1, 4), (-1, 2))]
        for cid in cells:
            want = half_steps(shape, half_steps(shape, cid, -1) + basis_offsets(shape), 1)
            got = neighbors(spec, cid)
            assert got == [CellId(*row) for row in want.tolist()]
            assert all(type(x) is int for nb in got for x in nb)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_ids_outside_domain_rejected(self, shape):
        # int64 arithmetic would wrap the first and overflow on the second
        spec = LatticeSpec(shape, 1.0)
        edge = MAX_STEPS + 2
        assert len(neighbors(spec, (edge, -edge, edge))) == len(neighbors(spec, (0, 0, 0)))
        for cid in ((2 ** 63 - 1, 0, 0), (0, 2 ** 70, 0), (0, 0, -edge - 1),
                    np.array([-2 ** 63, 0, 0])):
            with pytest.raises(ValueError, match="within"):
                neighbors(spec, cid)

    @pytest.mark.parametrize("cid", [(0.7, 0, 0), (1.0, 2, 3), ("1", "2", "3"),
                                     np.array([0.5, 0.0, 0.0]), (1, 2), (1, 2, 3, 4), 5, None])
    def test_ids_must_be_three_integers(self, cid):
        # int() read (0.7, 0, 0) as cell (0, 0, 0) and ("1", "2", "3") as (1, 2, 3)
        with pytest.raises(ValueError, match="cell id must be three integers"):
            neighbors(LatticeSpec(CellShape.HP, 1.0), cid)

    def test_numpy_integer_ids_pass(self):
        spec = LatticeSpec(CellShape.HP, 1.0)
        want = neighbors(spec, (1, -3, 2))
        for cid in [np.array([1, -3, 2]), (np.int32(1), np.int64(-3), np.uint8(2))]:
            got = neighbors(spec, cid)
            assert got == want
            assert all(type(x) is int for nb in got for x in nb)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_neighbors_touch(self, shape):
        # every neighbor center lies within the worst-case two-cell span
        from topocell.geometry import worst_neighbor_coeff
        spec = LatticeSpec(shape, 1.0)
        R = spec.circumradius
        c0 = cell_center(spec, (0, 0, 0))
        for nb in neighbors(spec, (0, 0, 0)):
            d = np.linalg.norm(cell_center(spec, nb) - c0)
            assert d <= 2 * R * worst_neighbor_coeff(shape)


class TestBasis:
    """Public offset ids against the generator bases: the offset rules the
    library no longer spells out, kept here as references."""

    @staticmethod
    def offset_centers(shape, R, ids):
        # the center of public id (u, v, w) relative to cell (0, 0, 0)
        spacing = cell_spacing(shape, R)
        u, v, w = (ids[:, k].astype(float) for k in range(3))
        if shape is CellShape.CB:
            (s,) = spacing
            return np.stack([u * s, v * s, w * s], axis=-1)
        if shape is CellShape.RD:
            q, R = spacing
            return np.stack([(2 * u + w) * q, (2 * v + w) * q, w * R], axis=-1)
        if shape is CellShape.TO:
            (d,) = spacing
            return np.stack([(2 * u + w) * d, (2 * v + w) * d, w * d], axis=-1)
        a, h = spacing
        parity = np.mod(ids[:, 1], 2).astype(float)
        return np.stack([math.sqrt(3.0) * a * (u + parity / 2.0), 1.5 * a * v, h * w], axis=-1)

    @staticmethod
    def random_ids(seed, n=200_000):
        # ids anywhere in the domain, within MAX_STEPS + 2 of zero
        rng = np.random.default_rng(seed)
        return rng.integers(-(MAX_STEPS + 2), MAX_STEPS + 3, (n, 3))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("r_t,sink", RANDOM_SPECS)
    def test_centers_match_offset_formulas_bit_for_bit(self, shape, r_t, sink):
        spec = LatticeSpec(shape, r_t, sink=sink)
        ids = self.random_ids(41)
        want = self.offset_centers(shape, spec.circumradius, ids)
        assert (cell_centers(spec, ids).view(np.int64)
                == (spec.sink + want).view(np.int64)).all()

    def test_geometry_ids_must_be_integers(self):
        # geometry's id conversions, now gone, cast ids to int64: 1.7 gave
        # cell (1, 0, 0)'s offset, (1.9, 3.2, 0) HP's basis id (0, 3, 0) and
        # (True, 2.5, 0) CB's id (1, 2, 0). cell_centers, which took their
        # place, refuses such ids on every shape, and reads int32 and uint8
        # ids as it reads int64 ones
        for shape in SHAPES:
            spec = LatticeSpec(shape, 1.0)
            for ids in ([1.7, 0, 0], [1.9, 3.2, 0], [True, 2.5, 0], [True, False, False],
                        [["1", "0", "0"]], np.array([1.0, 0.0, 0.0])):
                with pytest.raises(ValueError, match="cell ids must be integers"):
                    cell_centers(spec, ids)
            for ids in (np.array([1, 2, 0], np.int32), np.array([1, 2, 0], np.uint8)):
                assert (cell_centers(spec, ids) == cell_center(spec, (1, 2, 0))).all()

    def test_geometry_unsigned_ids_must_lie_in_the_domain(self):
        # geometry's id conversions, now gone, cast unsigned ids to int64:
        # 2^64 - 1 gave cell (-1, 0, 0)'s offset and 2^63 + 5 the id
        # -2^63 + 5. cell_centers checks the range before any cast
        edge = MAX_STEPS + 2
        for shape in SHAPES:
            spec = LatticeSpec(shape, 1.0)
            for ids in ([2 ** 64 - 1, 0, 0], [2 ** 63 + 5, 0, 0], [0, 0, edge + 1]):
                with pytest.raises(ValueError, match=f"within {edge} of zero on each axis"):
                    cell_centers(spec, np.array(ids, np.uint64))
            for dtype in (np.uint64, np.uint32):
                ids = np.array([[edge, edge - 1, 0]], dtype)
                assert (cell_centers(spec, ids) == cell_center(spec, (edge, edge - 1, 0))).all()
            assert cell_centers(spec, np.empty((0, 3), np.uint64)).shape == (0, 3)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_coset_table(self, shape):
        # y is a point of M Z^3 (M^-1 y integral) exactly when y is in
        # diag(P) Z^3, or in its shift by 1 along every period-2 axis
        basis = np.array(_BASES[shape], dtype=float)
        period = np.array(_PERIODS[shape])
        y = id_grid(4)
        in_lattice = (y @ np.linalg.inv(basis).T % 1.0 == 0.0).all(axis=1)
        in_cosets = (y % period == 0).all(axis=1)
        if (period == 2).any():
            in_cosets |= ((y - (period - 1)) % period == 0).all(axis=1)
        assert (in_lattice == in_cosets).all()

    def test_hp_neighbors_follow_odd_row_rule(self):
        # the generators as stated about cell (0, 0, 0); a cell on an odd row
        # takes du + 1 for every odd dv, as its row sits half a step along x
        spec = LatticeSpec(CellShape.HP, 1.0)
        gens = [off for cls in neighbor_classes(CellShape.HP) for off in cls.offset_generators]
        cells = self.random_ids(43, n=2000)
        cells[::2, 1] &= ~1
        cells[1::2, 1] |= 1
        for u, v, w in cells.tolist():
            odd_row = v % 2 == 1
            want = [CellId(u + du + int(odd_row and dv % 2 == 1), v + dv, w + dw)
                    for du, dv, dw in gens]
            assert neighbors(spec, (u, v, w)) == want


class TestInjectivity:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_distinct_ids_distinct_centers(self, shape):
        spec = LatticeSpec(shape, 1.0, sink=(0.2, 0.4, 0.6))
        ids = id_grid(10)  # 21^3 ids
        centers = cell_centers(spec, ids)
        tree = cKDTree(centers)
        dists, idx = tree.query(centers, k=2)
        min_gap = dists[:, 1].min()
        # no two centers closer than the smallest lattice spacing
        spacing = min(
            np.linalg.norm(cell_center(spec, nb) - cell_center(spec, (0, 0, 0)))
            for nb in neighbors(spec, (0, 0, 0))
        )
        assert min_gap >= spacing * (1 - 1e-9)


class TestSpecValidation:
    def test_bad_rt(self):
        with pytest.raises(ValueError):
            LatticeSpec(CellShape.TO, -1.0)

    def test_bad_sink(self):
        with pytest.raises(ValueError):
            LatticeSpec(CellShape.TO, 1.0, sink=(0.0, math.inf, 0.0))

    def test_shape_coercion(self):
        spec = LatticeSpec("to", 1.0)
        assert spec.shape is CellShape.TO

    def test_sink_is_a_tuple_of_floats(self):
        # any point form as_point takes gives the same tuple of Python floats;
        # a bad sink, a string or an int too large for a float among them,
        # raises as_point's error
        for sink in [(1, 2.5, -3), [1, 2.5, -3], np.array([1, 2.5, -3]),
                     (np.float64(1.0), 2.5, -3)]:
            spec = LatticeSpec(CellShape.TO, 1.0, sink=sink)
            assert spec.sink == (1.0, 2.5, -3.0) == spec.rule.sink
            assert all(type(x) is float for x in spec.sink)
        for bad in [(0.0, math.inf, 0.0), [0, 0, math.nan], [0, 0], (1, 2, 3, 4), "abc",
                    (0, "x", 0), ("1", 2.5, -3), [0, 10 ** 400, 0], [[1, 2, 3]], None]:
            with pytest.raises(ValueError) as got:
                LatticeSpec(CellShape.TO, 1.0, sink=bad)
            with pytest.raises(ValueError) as want:
                as_point(bad, "sink")
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_rule_matches_numpy_derivation(self, shape):
        # the rule, derived from M and the exact metric in Python numbers,
        # equals bit for bit its derivation from arrays of M, the scale and
        # the periods with np.linalg.inv, on fixed and random specs; the
        # squared scale ratios are integers, which the weights hold exactly.
        # The random specs whose tolerance so derived exceeds MAX_TOL are
        # refused, naming that bound. The integer M^-1 is det M^-1 rounded,
        # and is the adjugate: it times M is det I
        basis = np.array(_BASES[shape], dtype=float)
        det = round(np.linalg.det(basis))
        adj = np.round(det * np.linalg.inv(basis)).astype(int)
        assert (adj @ _BASES[shape] == det * np.eye(3, dtype=int)).all()
        rng = np.random.default_rng(29)
        sinks = rng.uniform(-1.0, 1.0, (200, 3)) * 10.0 ** rng.uniform(-3.0, 9.0, (200, 1))
        specs = [(0.1, (4.2e6, 1.2e6, 4.7e6)), (1.0, (1e8, 1e8, -1e8)), *RANDOM_SPECS,
                 *zip(10.0 ** rng.uniform(-3.0, 4.0, 200), map(tuple, sinks))]
        refused = 0
        for r_t, sink in specs:
            R = max_cell_radius(shape, r_t)
            scale = np.array(_scale(shape, R))
            period = np.array(_PERIODS[shape], dtype=float)
            weight = (period == 2) * np.round((scale / scale[0]) ** 2)
            reach = MAX_STEPS * cell_spacing(shape, R)[0]
            tol = (2.0 ** -52 * (np.abs(sink).max() + 4.0 * reach) / scale.min()
                   * max(1.0, weight.sum()))
            if tol > MAX_TOL:
                assert not accepts(shape, r_t, sink, TIE_BOUND)
                refused += 1
                continue
            spec = LatticeSpec(shape, r_t, sink=sink)
            want = lattice._Rule(
                tuple(as_point(sink).tolist()), tuple(scale.tolist()),
                tuple((scale * period).tolist()), tuple(period.astype(int).tolist()),
                tuple(weight.tolist()), 0.5 * float(weight.sum()), reach, float(tol),
                tuple((0.5 * period - tol).tolist()), tuple((period - 1).astype(int).tolist()),
                tuple(map(tuple, adj.tolist())), det)
            assert repr(spec.rule) == repr(want)
        assert 0 < refused < len(specs) / 4

    @pytest.mark.parametrize("shape", SHAPES)
    def test_circumradius(self, shape):
        for r_t in (0.37, 1.0, SQRT17):
            spec = LatticeSpec(shape, r_t)
            assert spec.circumradius == max_cell_radius(shape, r_t)
        with pytest.raises(AttributeError):
            spec.circumradius = 1.0
