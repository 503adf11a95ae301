import json
import math
import re
from pathlib import Path

import pytest

from topocell.geometry import (
    CellShape,
    build_polyhedron,
    max_vertex_pair_distance,
    neighbor_classes,
    worst_neighbor_coeff,
)
from topocell.lattice import LatticeSpec, cell_center
from topocell.planner import (
    REFERENCE_ACTIVE_RATIO,
    REFERENCE_LIFETIME,
    REFERENCE_RADIUS,
    REFERENCE_SENSING,
    Reference,
    active_node_ratio,
    all_reports,
    cell_volume_coeff,
    lifetime_fraction,
    lifetime_table,
    lifetime_table_gates_ok,
    min_sensing_range,
    radius_table,
    radius_table_gates_ok,
    render_csv,
    render_json,
    shape_report,
    verify_connectivity,
    verify_coverage,
)

SHAPES = list(CellShape)

# exact closed forms for the planning constants
CLOSED_RADIUS = {
    CellShape.CB: 0.25,
    CellShape.HP: 1.0 / math.sqrt(14.0),
    CellShape.RD: 0.25,
    CellShape.TO: math.sqrt(5.0) / (2.0 * math.sqrt(17.0)),
}
CLOSED_VOLUME = {
    CellShape.CB: 1.0 / (24.0 * math.sqrt(3.0)),
    CellShape.HP: 1.0 / (7.0 * math.sqrt(14.0)),
    CellShape.RD: 1.0 / 32.0,
    CellShape.TO: 4.0 / (17.0 * math.sqrt(17.0)),
}
CLOSED_RATIO = {
    CellShape.CB: 96.0 * math.sqrt(3.0) / (17.0 * math.sqrt(17.0)),
    CellShape.HP: 28.0 * math.sqrt(14.0) / (17.0 * math.sqrt(17.0)),
    CellShape.RD: 128.0 / (17.0 * math.sqrt(17.0)),
    CellShape.TO: 1.0,
}


class TestSensingRange:
    def test_examples(self):
        assert min_sensing_range(CellShape.TO, 1.0) == pytest.approx(0.542326, abs=1e-6)
        assert min_sensing_range(CellShape.RD, 2.0) == pytest.approx(1.0, rel=1e-12)
        assert min_sensing_range(CellShape.HP, 1.0) == pytest.approx(0.53452, abs=5e-6)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_is_twice_the_radius(self, shape):
        rep = shape_report(shape)
        assert rep.min_sensing_coeff == pytest.approx(2 * rep.max_radius_coeff, rel=1e-12)


class TestVolumeCoeff:
    def test_examples(self):
        assert cell_volume_coeff(CellShape.TO) == pytest.approx(0.057, abs=5e-4)
        assert cell_volume_coeff(CellShape.RD) == pytest.approx(0.03125, rel=1e-12)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_closed_form(self, shape):
        assert cell_volume_coeff(shape) == pytest.approx(CLOSED_VOLUME[shape], rel=1e-12)


class TestRatios:
    def test_examples(self):
        assert active_node_ratio(CellShape.CB) == pytest.approx(2.372239, abs=1e-6)
        assert active_node_ratio(CellShape.HP) == pytest.approx(1.49468, abs=5e-6)
        assert active_node_ratio(CellShape.TO) == pytest.approx(1.0, rel=1e-12)
        assert lifetime_fraction(CellShape.CB) == pytest.approx(0.42154, abs=5e-6)
        assert lifetime_fraction(CellShape.RD) == pytest.approx(0.5476, abs=5e-5)
        assert lifetime_fraction(CellShape.TO) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_reciprocal_identity(self, shape):
        assert active_node_ratio(shape) * lifetime_fraction(shape) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_closed_forms(self, shape):
        assert shape_report(shape).max_radius_coeff == pytest.approx(CLOSED_RADIUS[shape], rel=1e-12)
        assert active_node_ratio(shape) == pytest.approx(CLOSED_RATIO[shape], rel=1e-12)

    def test_to_dominates(self):
        others = [s for s in SHAPES if s is not CellShape.TO]
        to = shape_report(CellShape.TO)
        for s in others:
            rep = shape_report(s)
            assert to.max_radius_coeff > rep.max_radius_coeff
            assert to.min_sensing_coeff > rep.min_sensing_coeff
            assert to.cell_volume_coeff > rep.cell_volume_coeff


class TestPaperAbstract:
    # Every number in PAPER.md's abstract, and the reference entry that holds
    # it. The abstract names its active-node ratios for "cube, hexagonal prism
    # and rhombic dodecahedron" as 2.372239, 1.82615 and 1.49468; this repo's
    # geometry gives HP 1.4947 and RD 1.8262, so the two sit the other way
    # round (README, Deviations from the paper)
    HOLDERS = {
        "0.542326": [(REFERENCE_SENSING, CellShape.TO)],
        "0.5": [(REFERENCE_SENSING, CellShape.CB), (REFERENCE_SENSING, CellShape.RD)],
        "0.53452": [(REFERENCE_SENSING, CellShape.HP)],
        "2.372239": [(REFERENCE_ACTIVE_RATIO, CellShape.CB)],
        "1.82615": [(REFERENCE_ACTIVE_RATIO, CellShape.RD)],
        "1.49468": [(REFERENCE_ACTIVE_RATIO, CellShape.HP)],
    }

    def test_every_number_is_a_reference_entry(self):
        text = (Path(__file__).resolve().parents[1] / "PAPER.md").read_text()
        numbers = re.findall(r"\d+\.\d+", text)
        assert sorted(numbers) == sorted(["0.542326", "0.5", "0.53452", "0.5", "2.372239",
                                          "1.82615", "1.49468"])
        assert set(numbers) == set(self.HOLDERS)
        for number, holders in self.HOLDERS.items():
            for table, shape in holders:
                assert table[shape].value == float(number), (number, shape)
        # the lifetime references are the inverse ratios, on the same shapes
        assert REFERENCE_LIFETIME[CellShape.RD].value == round(1 / 1.82615, 4)
        assert REFERENCE_LIFETIME[CellShape.HP].value == round(1 / 1.49468, 3)


class TestReferenceGates:
    def test_tables_pass_their_gates(self):
        assert radius_table_gates_ok()
        assert lifetime_table_gates_ok()

    @pytest.mark.parametrize("references,gates_ok", [
        (REFERENCE_RADIUS, radius_table_gates_ok),
        (REFERENCE_SENSING, radius_table_gates_ok),
        (REFERENCE_ACTIVE_RATIO, lifetime_table_gates_ok),
        (REFERENCE_LIFETIME, lifetime_table_gates_ok),
    ])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_each_reference_is_gated(self, monkeypatch, references, gates_ok, shape):
        ref = references[shape]
        monkeypatch.setitem(references, shape, Reference(ref.value + 1e-3, ref.decimals))
        assert not gates_ok()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_within_printed_precision(self, shape):
        rep = shape_report(shape)
        pairs = [
            (rep.max_radius_coeff, REFERENCE_RADIUS[shape], 1e-6),
            (rep.min_sensing_coeff, REFERENCE_SENSING[shape], 1e-6),
            (rep.active_node_ratio_vs_to, REFERENCE_ACTIVE_RATIO[shape], 1e-5),
            (rep.lifetime_fraction_vs_to, REFERENCE_LIFETIME[shape], 1e-5),
        ]
        for computed, ref, base in pairs:
            assert abs(computed - ref.value) <= ref.gate(base)

    def test_gate_widens_for_coarse_prints(self):
        assert Reference(0.669, 3).gate(1e-5) == pytest.approx(5e-4, rel=1e-6)
        assert Reference(0.25).gate(1e-6) == 1e-6


class TestVerifyConnectivity:
    def test_to_at_max_radius_is_tight(self):
        spec = LatticeSpec(CellShape.TO, 1.7)
        rep = verify_connectivity(spec)
        assert rep.ok
        assert rep.max_neighbor_distance == pytest.approx(1.7, rel=1e-9)

    def test_oversized_cells_fail(self):
        spec = LatticeSpec(CellShape.TO, 1.0)
        rep = verify_connectivity(spec, circumradius=1.01 * spec.circumradius)
        assert not rep.ok

    def test_cb_binding_class_is_vertex_sharing(self):
        spec = LatticeSpec(CellShape.CB, 1.0)
        rep = verify_connectivity(spec)
        assert rep.ok
        assert rep.binding_class == "shared-vertex"
        assert rep.max_neighbor_distance == pytest.approx(4 * spec.circumradius, rel=1e-12)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_all_shapes_tight_at_max_radius(self, shape):
        rep = verify_connectivity(LatticeSpec(shape, 3.0))
        assert rep.ok
        assert rep.max_neighbor_distance == pytest.approx(3.0, rel=1e-9)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("factor", [0.99, 1.0, 1.01])
    def test_matches_the_vertex_pair_brute_force(self, shape, factor):
        # each class's worst pair distance, the derived coefficient times R,
        # against the largest vertex-pair distance between the cell and each
        # neighbor of the class, both built as polyhedra on the lattice of
        # radius-R cells (to an ulp of R)
        spec = LatticeSpec(shape, 1.7)
        R = factor * spec.circumradius
        rep = verify_connectivity(spec, circumradius=R)
        cells = LatticeSpec(shape, R * worst_neighbor_coeff(shape))
        base = build_polyhedron(shape, (0.0, 0.0, 0.0), R)
        brute = {cls.label: max(max_vertex_pair_distance(
                     base, build_polyhedron(shape, cell_center(cells, off), R))
                     for off in cls.offset_generators)
                 for cls in neighbor_classes(shape)}
        assert rep.per_class.keys() == brute.keys()
        for label, dist in brute.items():
            assert rep.per_class[label] == pytest.approx(dist, rel=1e-12)
        binding = max(brute, key=brute.get)
        assert rep.binding_class == binding
        assert rep.ok == (brute[binding] <= spec.r_t * (1.0 + 1e-9)) == (factor <= 1.0)

    def test_circumradius_must_be_positive_and_finite(self):
        spec = LatticeSpec(CellShape.TO, 1.0)
        for R in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="circumradius must be positive and finite"):
                verify_connectivity(spec, circumradius=R)


class TestVerifyCoverage:
    def test_to_reference_coefficient_passes(self):
        spec = LatticeSpec(CellShape.TO, 1.0)
        assert verify_coverage(spec, 0.542326)
        assert not verify_coverage(spec, 0.5)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            verify_coverage(LatticeSpec(CellShape.TO, 1.0), 0.0)


class TestSerialization:
    def test_csv_shape(self):
        text = render_csv(radius_table())
        lines = text.strip().split("\n")
        assert len(lines) == 5  # header + four shapes
        assert lines[0].startswith("shape,")
        assert lines[1].startswith("cb,")
        assert render_csv([]) == ""  # no rows, no header

    def test_json_roundtrip(self):
        rows = lifetime_table()
        parsed = json.loads(render_json(rows))
        assert [r["shape"] for r in parsed] == ["cb", "hp", "rd", "to"]
        cb = parsed[0]
        assert cb["active_node_reference"] == 2.372239
        assert cb["lifetime_reference"] == 0.42154

    def test_report_carries_exact_expressions(self):
        rep = shape_report(CellShape.TO)
        assert rep.max_radius_expr == "sqrt(5)/(2*sqrt(17))"
        assert rep.cell_volume_expr == "4/(17*sqrt(17))"

    @pytest.mark.parametrize("shape", SHAPES)
    def test_expressions_evaluate_to_their_values(self, shape):
        # each hand-typed closed form, evaluated with math.sqrt and nothing
        # else, is the float it annotates
        rep = shape_report(shape)
        for expr, value in [(rep.max_radius_expr, rep.max_radius_coeff),
                            (rep.cell_volume_expr, rep.cell_volume_coeff),
                            (rep.active_node_ratio_expr, rep.active_node_ratio_vs_to)]:
            got = eval(expr, {"__builtins__": {}}, {"sqrt": math.sqrt})
            assert got == pytest.approx(value, rel=1e-12, abs=0.0), expr
