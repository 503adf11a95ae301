"""Command-line front end: planning tables, cell assignment, seeded
experiments and greedy routing.

Exit codes: 0 success, 1 table deviation gate failed, 2 usage error,
3 invalid parameter (including a lifetime run whose box holds no populated
interior cell), 4 routing dead end, 5 unreadable or malformed config/file.
Output in csv and json modes is byte-stable for identical flags and seed.

Each command imports the modules it runs when it runs, so a process loads
no more of the package than its command needs.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import TYPE_CHECKING

from .geometry import MAX_WINDOW, CellShape, _positive

if TYPE_CHECKING:
    from .lattice import CellId, LatticeSpec

SQRT17 = math.sqrt(17.0)


class MalformedFileError(Exception):
    """A readable input file whose contents do not parse."""


def _triple_of(convert, form: str, bad: str):
    """An argparse type: three comma-separated values, each read by
    ``convert``; errors show the expected ``form`` or call the text ``bad``."""
    def parse(text: str) -> tuple:
        parts = text.split(",")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"expected {form} - got {text!r}")
        try:
            return tuple(convert(p) for p in parts)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{bad} {text!r}") from exc
    return parse


_triple = _triple_of(float, "x,y,z", "bad coordinate triple")
_id_triple = _triple_of(int, "u,v,w", "bad cell id")


def _add_output_flags(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("pretty", "csv", "json"), default="pretty")
    p.add_argument("--out", default=None, help="write output here instead of stdout")


def _add_spec_flags(p: argparse.ArgumentParser):
    p.add_argument("--shape", choices=[s.value for s in CellShape], required=True)
    p.add_argument("--rt", type=float, required=True, help="transmission range (m)")
    p.add_argument("--rt-sqrt17-units", action="store_true",
                   help="multiply --rt by sqrt(17); lets TO examples use exact steps")
    p.add_argument("--sink", type=_triple, default=(0.0, 0.0, 0.0),
                   help="information-sink location x,y,z (lattice anchor)")


def _spec(fields: dict, shape: str) -> LatticeSpec:
    """Lattice spec from the spec flags (as ``vars(args)``) or a JSON config.

    Both name the fields alike: ``rt``, ``rt_sqrt17_units`` and ``sink``.
    ``rt`` and ``sink`` are read by the library's readers, whose errors
    name the field.
    """
    rt = _positive(fields["rt"], "rt")
    sqrt17_units = fields.get("rt_sqrt17_units", False)
    if not isinstance(sqrt17_units, bool):
        raise ValueError(
            f"config field 'rt_sqrt17_units' must be true or false, got {sqrt17_units!r}")
    if sqrt17_units:
        rt *= SQRT17
    from .lattice import LatticeSpec

    return LatticeSpec(shape, rt, sink=fields.get("sink", (0.0, 0.0, 0.0)))


def _render(rows: list[dict], fmt: str) -> str:
    """The report in ``fmt``; every row has the first row's columns, in order."""
    from . import planner

    if fmt == "csv":
        return planner.render_csv(rows)
    if fmt == "json":
        return planner.render_json(rows)
    lines = [list(rows[0]), *([_cell_str(v) for v in r.values()] for r in rows)]
    widths = [max(map(len, column)) for column in zip(*lines)]
    return "".join("  ".join(c.ljust(w) for c, w in zip(line, widths)) + "\n"
                   for line in lines)


def _cell_str(value) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


def cmd_tables(args) -> int:
    from . import planner

    if args.which == "I":
        rows, ok = planner.radius_table(), planner.radius_table_gates_ok()
    else:
        rows, ok = planner.lifetime_table(), planner.lifetime_table_gates_ok()
    _emit(_render(rows, args.format), args.out)
    return 0 if ok else 1


def _fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once, as a fused multiply-add does it: exact in
    Python ints, every finite float being an integer over a power of two,
    and int / int is correctly rounded."""
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        return a * b + c  # no rounding to fuse away
    (na, da), (nb, db), (nc, dc) = (x.as_integer_ratio() for x in (a, b, c))
    num = na * nb * dc + nc * da * db
    try:
        return num / (da * db * dc)
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _distance(p, q) -> float:
    """|p - q| as the fused sum sqrt(z*z + (y*y + x*x)), each step one fused
    multiply-add, so it is the same on every host."""
    x, y, z = (a - b for a, b in zip(p, q))
    return math.sqrt(_fma(z, z, _fma(y, y, x * x)))


def cmd_assign(args) -> int:
    if not 2 <= args.window <= MAX_WINDOW:
        raise ValueError(f"--window must be between 2 and {MAX_WINDOW}")
    from .lattice import _center, assign_cell, assign_cell_nearest_int, assign_cell_oracle

    spec = _spec(vars(args), args.shape)
    point = args.point
    # --window, checked above, changes no id of the oracle's
    cid = {"exact": assign_cell, "oracle": assign_cell_oracle,
           "nearest_int": assign_cell_nearest_int}[args.method](spec, point)
    center = _center(spec, cid)
    row = {
        "shape": spec.shape.value,
        "rt": spec.r_t,
        "sink": "{},{},{}".format(*spec.sink),
        "point": "{},{},{}".format(*point),
        "method": args.method,
        "u": cid.u, "v": cid.v, "w": cid.w,
        "center_x": center[0],
        "center_y": center[1],
        "center_z": center[2],
        "distance": _distance(point, center),
        "exact_u": "", "exact_v": "", "exact_w": "", "matches_exact": "",
    }
    if args.method == "nearest_int":
        exact = assign_cell(spec, point)
        row.update(exact_u=exact.u, exact_v=exact.v, exact_w=exact.w,
                   matches_exact=exact == cid)
    _emit(_render([row], args.format), args.out)
    return 0


def _load_config(path: str) -> dict:
    import json

    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:
            # invalid JSON, text that is not UTF-8, or an integer literal
            # longer than Python's limit for int-string conversion
            raise MalformedFileError(f"{path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise MalformedFileError(f"{path}: expected a JSON object, got {type(cfg).__name__}")
    return cfg


def _whole(value):
    """A config count: a JSON number with a whole value, so 1e5 is the int
    100000. Any other value goes as it is to the library's count reader
    (``geometry._count``), whose errors name the field."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def cmd_simulate(args) -> int:
    from .simulator import Box, DeploymentConfig, accuracy_experiment, lifetime_simulation

    cfg = _load_config(args.config)
    if args.kind == "accuracy":
        spec = _spec(cfg, cfg["shape"])
        report = accuracy_experiment(spec, _whole(cfg["n"]), args.seed)
        rows = [{
            "shape": spec.shape.value,
            "rt": spec.r_t,
            "n": report.n,
            "seed": args.seed,
            "correct_exact": report.correct_exact,
            "correct_nearest_int": report.correct_nearest_int,
            "fraction_exact": report.fraction_exact,
            "fraction_nearest_int": report.fraction_nearest_int,
        }]
    else:
        shapes = cfg["shapes"] if "shapes" in cfg else [cfg["shape"]]
        if not isinstance(shapes, list) or not shapes:
            raise ValueError("config field 'shapes' must be a non-empty list of shapes")
        if not isinstance(cfg["box"], dict):
            raise ValueError(f"config field 'box' must be an object, got {cfg['box']!r}")
        box = Box(lo=cfg["box"]["lo"], hi=cfg["box"]["hi"])
        config = DeploymentConfig(box=box, node_count=_whole(cfg["node_count"]), seed=args.seed)
        # a float, as the report prints it
        capacity = _positive(cfg["battery_capacity"], "battery_capacity")
        k = _whole(cfg.get("k", 1))
        rows = []
        for shape in shapes:
            spec = _spec(cfg, shape)
            res = lifetime_simulation(spec, config, capacity, k)
            rows.append({
                "shape": shape,
                "rt": spec.r_t,
                "node_count": config.node_count,
                "seed": args.seed,
                "battery_capacity": capacity,
                "k": k,
                "cells_populated": res.cells_populated,
                "mean_nodes_per_cell": res.mean_nodes_per_cell,
                "network_lifetime": res.network_lifetime,
                "lifetime_vs_to": "",  # filled in once the TO row exists
            })
        to = next((row["network_lifetime"] for row in rows if row["shape"] == "to"), 0)
        if to:
            for row in rows:
                row["lifetime_vs_to"] = row["network_lifetime"] / to
    if args.out is not None:
        from . import planner

        _emit(planner.render_csv(rows), args.out + ".csv")
        _emit(planner.render_json(rows), args.out + ".json")
    else:
        sys.stdout.write(_render(rows, args.format))
    return 0


def _load_dead_cells(path: str) -> set[CellId]:
    from .lattice import CellId

    dead = set()
    with open(path) as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:  # text that is not UTF-8
            raise MalformedFileError(f"{path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            dead.add(CellId(*_id_triple(line)))
        except argparse.ArgumentTypeError as exc:
            raise MalformedFileError(f"{path}:{lineno}: {exc}") from None
    return dead


def cmd_route(args) -> int:
    from .lattice import CellId
    from .routing import DEAD_END, greedy_route

    spec = _spec(vars(args), args.shape)
    dead = _load_dead_cells(args.dead_cells) if args.dead_cells else set()
    alive = (lambda cid: cid not in dead) if dead else None
    path = greedy_route(spec, args.src, args.dst, alive=alive,
                        tie_break=args.tie_break, seed=args.seed)
    dst = CellId(*args.dst)
    rows = []
    for step, hop in enumerate(path.hops):
        metric = (hop.u - dst.u) ** 2 + (hop.v - dst.v) ** 2 + (hop.w - dst.w) ** 2
        rows.append({
            "step": step, "u": hop.u, "v": hop.v, "w": hop.w,
            "metric_to_destination": metric,
            "outcome": path.outcome,
        })
    _emit(_render(rows, args.format), args.out)
    return 0 if path.outcome != DEAD_END else 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topocell",
        description="Topology control for dense 3D sensor networks via "
                    "space-filling cell tessellations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser("tables", help="planning constant tables")
    p_tables.add_argument("which", choices=("I", "II"),
                          help="I: radii and sensing ranges; II: active-node and lifetime ratios")
    _add_output_flags(p_tables)
    p_tables.set_defaults(func=cmd_tables)

    p_assign = sub.add_parser("assign", help="cell id of a point")
    _add_spec_flags(p_assign)
    p_assign.add_argument("--point", type=_triple, required=True)
    p_assign.add_argument("--method", choices=("exact", "nearest_int", "oracle"),
                          default="exact")
    p_assign.add_argument("--window", type=int, default=3,
                          help=f"oracle search half-width, 2 to {MAX_WINDOW}, checked for "
                               "every method; it changes no id")
    _add_output_flags(p_assign)
    p_assign.set_defaults(func=cmd_assign)

    p_sim = sub.add_parser("simulate", help="seeded Monte-Carlo experiments")
    p_sim.add_argument("kind", choices=("accuracy", "lifetime"))
    p_sim.add_argument("--config", required=True, help="JSON experiment config")
    p_sim.add_argument("--seed", type=int, required=True)
    _add_output_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_route = sub.add_parser("route", help="greedy cell-id routing")
    _add_spec_flags(p_route)
    p_route.add_argument("--src", type=_id_triple, required=True)
    p_route.add_argument("--dst", type=_id_triple, required=True)
    p_route.add_argument("--dead-cells", default=None,
                         help="text file of dead cell ids, one u,v,w per line")
    p_route.add_argument("--tie-break", choices=("lex", "random"), default="lex")
    p_route.add_argument("--seed", type=int, default=None,
                         help="seed for --tie-break random")
    _add_output_flags(p_route)
    p_route.set_defaults(func=cmd_route)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MalformedFileError as exc:
        print(f"error: malformed file: {exc}", file=sys.stderr)
        return 5
    except KeyError as exc:
        print(f"error: missing config key {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    raise SystemExit(main())
