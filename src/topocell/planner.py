"""Analytical comparison of the four cell shapes for a fixed radio range.

For each shape this module reports, per unit of transmission range r_t:
the largest usable cell circumradius, the minimum sensing range (the cell
diameter, since the active sensor can sit anywhere in its cell), the cell
volume, and the resulting active-node and lifetime ratios relative to the
truncated octahedron. Every decimal constant is carried next to its exact
closed form, and a rounded reference value with its printed precision so
reports can flag regressions without fighting rounding noise.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .geometry import (
    CellShape,
    NEIGHBOR_COUNTS,
    cell_volume,
    max_cell_radius,
    neighbor_classes,
)

if TYPE_CHECKING:
    from .lattice import LatticeSpec

SHAPE_ORDER = (CellShape.CB, CellShape.HP, CellShape.RD, CellShape.TO)


class Reference(NamedTuple):
    """A rounded reference constant and the number of decimals it was printed with."""

    value: float
    decimals: int | None = None  # None means the value is exact

    def gate(self, base_tol: float) -> float:
        """Comparison tolerance: at least half an ulp of the printed precision."""
        if self.decimals is None:
            return base_tol
        return max(base_tol, 0.5 * 10.0 ** (-self.decimals) + 1e-12)


REFERENCE_RADIUS = {
    CellShape.CB: Reference(0.25),
    CellShape.HP: Reference(0.26726, 5),
    CellShape.RD: Reference(0.25),
    CellShape.TO: Reference(0.271163, 6),
}

REFERENCE_SENSING = {
    CellShape.CB: Reference(0.5),
    CellShape.HP: Reference(0.53452, 5),
    CellShape.RD: Reference(0.5),
    CellShape.TO: Reference(0.542326, 6),
}

REFERENCE_ACTIVE_RATIO = {
    CellShape.CB: Reference(2.372239, 6),
    CellShape.HP: Reference(1.49468, 5),
    CellShape.RD: Reference(1.82615, 5),
    CellShape.TO: Reference(1.0),
}

REFERENCE_LIFETIME = {
    CellShape.CB: Reference(0.42154, 5),
    CellShape.HP: Reference(0.669, 3),
    CellShape.RD: Reference(0.5476, 4),
    CellShape.TO: Reference(1.0),
}

REFERENCE_CLASS_COEFF = {
    (CellShape.CB, "shared-face"): Reference(2.828427, 6),
    (CellShape.CB, "shared-edge"): Reference(3.4641, 4),
    (CellShape.CB, "shared-vertex"): Reference(4.0),
    (CellShape.HP, "shared-square-face"): Reference(3.16227766, 8),
    (CellShape.HP, "shared-hexagonal-face"): Reference(2.828427, 6),
    (CellShape.HP, "shared-edge"): Reference(3.741657387, 9),
    (CellShape.RD, "shared-face"): Reference(3.16227766, 8),
    (CellShape.RD, "shared-vertex"): Reference(4.0),
    (CellShape.TO, "shared-square-face"): Reference(3.6878177829, 10),
    (CellShape.TO, "shared-hexagonal-face"): Reference(3.34664, 5),
}

_RADIUS_EXPR = {
    CellShape.CB: "1/4",
    CellShape.HP: "1/sqrt(14)",
    CellShape.RD: "1/4",
    CellShape.TO: "sqrt(5)/(2*sqrt(17))",
}

_VOLUME_EXPR = {
    CellShape.CB: "1/(24*sqrt(3))",
    CellShape.HP: "1/(7*sqrt(14))",
    CellShape.RD: "1/32",
    CellShape.TO: "4/(17*sqrt(17))",
}

_RATIO_EXPR = {
    CellShape.CB: "96*sqrt(3)/(17*sqrt(17))",
    CellShape.HP: "28*sqrt(14)/(17*sqrt(17))",
    CellShape.RD: "128/(17*sqrt(17))",
    CellShape.TO: "1",
}


class ShapeReport(NamedTuple):
    """Per-shape planning constants, all normalized by the transmission range."""

    shape: CellShape
    neighbor_count: int
    max_radius_coeff: float
    max_radius_expr: str
    min_sensing_coeff: float
    cell_volume_coeff: float
    cell_volume_expr: str
    active_node_ratio_vs_to: float
    active_node_ratio_expr: str
    lifetime_fraction_vs_to: float


def min_sensing_range(shape: CellShape, r_t: float) -> float:
    """Smallest sensing radius covering the whole cell: the diameter 2R."""
    return 2.0 * max_cell_radius(shape, r_t)


def cell_volume_coeff(shape: CellShape) -> float:
    """Cell volume per unit r_t cubed, at the maximum usable radius."""
    return cell_volume(shape, max_cell_radius(shape, 1.0))


def active_node_ratio(shape: CellShape) -> float:
    """Active nodes needed relative to the TO tessellation (same region)."""
    return cell_volume_coeff(CellShape.TO) / cell_volume_coeff(shape)


def lifetime_fraction(shape: CellShape) -> float:
    """Network lifetime relative to TO; the reciprocal of the active-node ratio."""
    return 1.0 / active_node_ratio(shape)


def shape_report(shape: CellShape) -> ShapeReport:
    shape = CellShape(shape)
    return ShapeReport(
        shape=shape,
        neighbor_count=NEIGHBOR_COUNTS[shape],
        max_radius_coeff=max_cell_radius(shape, 1.0),
        max_radius_expr=_RADIUS_EXPR[shape],
        min_sensing_coeff=min_sensing_range(shape, 1.0),
        cell_volume_coeff=cell_volume_coeff(shape),
        cell_volume_expr=_VOLUME_EXPR[shape],
        active_node_ratio_vs_to=active_node_ratio(shape),
        active_node_ratio_expr=_RATIO_EXPR[shape],
        lifetime_fraction_vs_to=lifetime_fraction(shape),
    )


def all_reports() -> list[ShapeReport]:
    return [shape_report(s) for s in SHAPE_ORDER]


# each table's comparisons in column order: value column, stem of its
# reference and deviation columns, ShapeReport field, references
_TABLE_I = (
    ("max_radius_coeff", "max_radius", "max_radius_coeff", REFERENCE_RADIUS),
    ("min_sensing_coeff", "min_sensing", "min_sensing_coeff", REFERENCE_SENSING),
)
_TABLE_II = (
    ("active_node_ratio", "active_node", "active_node_ratio_vs_to", REFERENCE_ACTIVE_RATIO),
    ("lifetime_fraction", "lifetime", "lifetime_fraction_vs_to", REFERENCE_LIFETIME),
)


def _compared(rep: ShapeReport, comparisons) -> dict:
    """A table row's comparison columns: each value, its reference and their distance."""
    row = {}
    for column, stem, field, references in comparisons:
        value, reference = getattr(rep, field), references[rep.shape].value
        row.update({column: value, f"{stem}_reference": reference,
                    f"{stem}_deviation": abs(value - reference)})
    return row


def _gates_ok(rows: list[dict], comparisons, base_tol: float) -> bool:
    """True when every deviation of the table is within its reference's gate."""
    return all(row[f"{stem}_deviation"] <= references[CellShape(row["shape"])].gate(base_tol)
               for row in rows for _, stem, _, references in comparisons)


def radius_table() -> list[dict]:
    """Rows of table I: radius and sensing-range coefficients with deviations."""
    return [{"shape": rep.shape.value, "neighbor_count": rep.neighbor_count,
             **_compared(rep, _TABLE_I)} for rep in all_reports()]


def lifetime_table() -> list[dict]:
    """Rows of table II: active-node and lifetime ratios with deviations."""
    return [{"shape": rep.shape.value, **_compared(rep, _TABLE_II)} for rep in all_reports()]


def radius_table_gates_ok(base_tol: float = 1e-6) -> bool:
    return _gates_ok(radius_table(), _TABLE_I, base_tol)


def lifetime_table_gates_ok(base_tol: float = 1e-5) -> bool:
    return _gates_ok(lifetime_table(), _TABLE_II, base_tol)


class ConnectivityReport(NamedTuple):
    """Worst-case distance between two points of neighboring cells, vs r_t."""

    max_neighbor_distance: float
    ok: bool
    binding_class: str
    per_class: dict[str, float]


def verify_connectivity(spec: LatticeSpec, circumradius: float | None = None,
                        rel_tol: float = 1e-9) -> ConnectivityReport:
    """Check that any two points of any two neighboring cells are within r_t.

    Each class's worst pair distance is its ``max_pair_distance_coeff``,
    which ``geometry.neighbor_classes`` derives exactly from the Voronoi
    cell, times the circumradius: the distance scales with R. The optimum
    sits exactly on the constraint, so the check allows a relative slack of
    ``rel_tol``. Pass ``circumradius`` to probe a cell size other than the
    derived maximum (useful to show oversized cells break connectivity).
    """
    R = spec.circumradius if circumradius is None else float(circumradius)
    if not (math.isfinite(R) and R > 0):
        raise ValueError("circumradius must be positive and finite")
    per_class = {cls.label: cls.max_pair_distance_coeff * R
                 for cls in neighbor_classes(spec.shape)}
    binding = max(per_class, key=per_class.get)
    max_dist = per_class[binding]
    return ConnectivityReport(
        max_neighbor_distance=max_dist,
        ok=max_dist <= spec.r_t * (1.0 + rel_tol),
        binding_class=binding,
        per_class=per_class,
    )


def verify_coverage(spec: LatticeSpec, sensing_range: float, *,
                    rel_tol: float = 1e-6) -> bool:
    """True when the sensing range covers the whole cell from anywhere in it.

    The requirement is the cell diameter 2R, in closed form: two points of
    a cell are at most 2R apart, and two opposite vertices are exactly 2R
    apart. The default tolerance is relative 1e-6 so sensing ranges quoted
    to six decimals validate.
    """
    if not (math.isfinite(sensing_range) and sensing_range > 0):
        raise ValueError("sensing range must be positive and finite")
    return sensing_range >= 2.0 * spec.circumradius * (1.0 - rel_tol)


def render_csv(rows: list[dict]) -> str:
    """Serialize report rows to CSV, in the column order of the first row's keys."""
    if not rows:
        return ""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def render_json(payload) -> str:
    """Serialize a report payload to deterministic JSON."""
    import json

    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
