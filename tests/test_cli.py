import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from topocell import planner
from topocell.cli import main
from topocell.geometry import CellShape

SQRT17 = math.sqrt(17.0)


def run_cli(args, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "topocell", *args],
        capture_output=True, text=True, timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def accuracy_config(tmp_path):
    cfg = {"shape": "to", "rt": 1.0, "rt_sqrt17_units": True,
           "sink": [0.0, 0.0, 0.0], "n": 2000}
    path = tmp_path / "accuracy.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def lifetime_config(tmp_path):
    cfg = {
        "shapes": ["cb", "to"],
        "rt": 1.0,
        "sink": [0.0, 0.0, 0.0],
        "box": {"lo": [-0.75, -0.75, -0.75], "hi": [0.75, 0.75, 0.75]},
        "node_count": 30000,
        "battery_capacity": 5.0,
        "k": 1,
    }
    path = tmp_path / "lifetime.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestTables:
    def test_table_i_pretty(self, capsys):
        assert main(["tables", "I"]) == 0
        out = capsys.readouterr().out
        assert "0.2711630" in out and "0.542326" in out
        assert "0.25" in out and "0.26726" in out

    def test_table_ii_csv(self, capsys):
        assert main(["tables", "II", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0].split(",")[0] == "shape"
        cb = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert cb["shape"] == "cb"
        assert cb["active_node_reference"] == "2.372239"
        assert cb["lifetime_reference"] == "0.42154"
        assert float(cb["active_node_deviation"]) <= 1e-5

    @pytest.mark.parametrize("which,references,shape,value,code", [
        ("I", planner.REFERENCE_RADIUS, CellShape.TO, 0.271165, 1),
        ("I", planner.REFERENCE_RADIUS, CellShape.TO, 0.2711634, 0),
        ("II", planner.REFERENCE_LIFETIME, CellShape.HP, 0.670, 1),
        ("II", planner.REFERENCE_LIFETIME, CellShape.HP, 0.6694, 0),
    ])
    def test_deviation_beyond_gate_exits_1(self, monkeypatch, which, references, shape,
                                           value, code, capsys):
        decimals = references[shape].decimals
        monkeypatch.setitem(references, shape, planner.Reference(value, decimals))
        assert main(["tables", which, "--format", "csv"]) == code
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5 and lines[0].startswith("shape,")
        row = next(line for line in lines if line.startswith(f"{shape.value},"))
        assert f",{value}," in row

    def test_table_i_deviations_within_print_precision(self, capsys):
        assert main(["tables", "I", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        for row in rows:
            assert row["max_radius_deviation"] <= 5e-6
            assert row["min_sensing_deviation"] <= 5e-6


class TestAssign:
    def test_exact_center(self, capsys):
        code = main(["assign", "--shape", "to", "--rt", "1", "--rt-sqrt17-units",
                     "--sink", "0,0,0", "--point", "1,1,1", "--format", "json"])
        assert code == 0
        row = json.loads(capsys.readouterr().out)[0]
        assert (row["u"], row["v"], row["w"]) == (0, 0, 1)
        assert row["distance"] == pytest.approx(0.0, abs=1e-12)

    def test_oracle_agrees_with_exact(self, capsys):
        args = ["assign", "--shape", "to", "--rt", "1", "--rt-sqrt17-units",
                "--point", "0.6,0.6,0.6", "--format", "json"]
        assert main(args + ["--method", "exact"]) == 0
        exact = json.loads(capsys.readouterr().out)[0]
        assert main(args + ["--method", "oracle"]) == 0
        oracle = json.loads(capsys.readouterr().out)[0]
        assert (exact["u"], exact["v"], exact["w"]) == (oracle["u"], oracle["v"], oracle["w"]) == (0, 0, 1)

    def test_nearest_int_flags_mismatch(self, capsys):
        code = main(["assign", "--shape", "to", "--rt", "1", "--rt-sqrt17-units",
                     "--point", "1.0,0.2,0.45", "--method", "nearest_int",
                     "--format", "json"])
        assert code == 0
        row = json.loads(capsys.readouterr().out)[0]
        assert (row["u"], row["v"], row["w"]) == (0, 0, 0)
        assert (row["exact_u"], row["exact_v"], row["exact_w"]) == (0, 0, 1)
        assert row["matches_exact"] is False

    def test_point_outside_domain_is_invalid_parameter(self):
        code, out, err = run_cli(["assign", "--shape", "to", "--rt", "1",
                                  "--point", "1e20,0,0"])
        assert code == 3
        assert out == ""
        assert "lattice steps" in err

    @pytest.mark.parametrize("method", ["exact", "oracle", "nearest_int"])
    @pytest.mark.parametrize("point,message", [
        ("nan,0,0", "point coordinates must be finite"),
        ("0,inf,0", "point coordinates must be finite"),
        ("0,0,-inf", "point coordinates must be finite"),
        ("0,600000,0", "lattice steps"),
    ])
    def test_unusable_point_is_invalid_parameter(self, method, point, message, capsys):
        # 600000 m is beyond MAX_STEPS = 2^19 TO steps of 1/sqrt(17) m
        code = main(["assign", "--shape", "to", "--rt", "1", "--point", point,
                     "--method", method])
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_oversized_oracle_window_is_invalid_parameter(self):
        code, out, err = run_cli(["assign", "--shape", "to", "--rt", "1",
                                  "--point", "0.6,0.6,0.6", "--method", "oracle",
                                  "--window", "9"])
        assert code == 3
        assert out == ""
        assert "window" in err

    @pytest.mark.parametrize("method", ["exact", "nearest_int"])
    def test_window_checked_for_every_method(self, method):
        code, out, err = run_cli(["assign", "--shape", "to", "--rt", "1",
                                  "--point", "0,0,0", "--method", method,
                                  "--window", "300"])
        assert code == 3
        assert out == ""
        assert "window" in err

    def test_malformed_point_is_usage_error(self):
        code, _, _ = run_cli(["assign", "--shape", "to", "--rt", "1",
                              "--point", "1,2"])
        assert code == 2


class TestSimulate:
    def test_accuracy_report(self, accuracy_config, capsys):
        code = main(["simulate", "accuracy", "--config", accuracy_config,
                     "--seed", "7", "--format", "json"])
        assert code == 0
        row = json.loads(capsys.readouterr().out)[0]
        assert row["n"] == 2000
        assert row["correct_exact"] == 2000
        assert 0.55 < row["fraction_nearest_int"] < 0.70

    def test_lifetime_ratio_report(self, lifetime_config, capsys):
        code = main(["simulate", "lifetime", "--config", lifetime_config,
                     "--seed", "3", "--format", "json"])
        assert code == 0
        rows = {r["shape"]: r for r in json.loads(capsys.readouterr().out)}
        assert rows["to"]["lifetime_vs_to"] == 1.0
        assert 0.2 < rows["cb"]["lifetime_vs_to"] < 0.7
        assert rows["cb"]["network_lifetime"] >= 5

    def test_out_writes_csv_and_json(self, accuracy_config, tmp_path):
        base = str(tmp_path / "report")
        code, out, _ = run_cli(["simulate", "accuracy", "--config", accuracy_config,
                                "--seed", "7", "--out", base])
        assert code == 0
        assert out == ""
        csv_text = (tmp_path / "report.csv").read_text()
        json_rows = json.loads((tmp_path / "report.json").read_text())
        assert csv_text.splitlines()[0].startswith("shape,")
        assert json_rows[0]["correct_exact"] == 2000

    def test_missing_config_is_io_error(self):
        code, _, err = run_cli(["simulate", "accuracy", "--config", "/nope.json",
                                "--seed", "1"])
        assert code == 5
        assert "error" in err

    def test_readme_config_example(self, tmp_path, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"### Config file \(JSON\)\s+```json\n(.*?)```", readme, re.S)
        cfg = json.loads(block.group(1))
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "lifetime", "--config", str(path), "--seed", "3",
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["shape"] for r in rows] == cfg["shapes"]

    def test_malformed_config_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run_cli(["simulate", "accuracy", "--config", str(bad), "--seed", "1"])
        assert code == 5

    @pytest.mark.parametrize("kind", ["accuracy", "lifetime"])
    def test_oversized_integer_is_malformed(self, tmp_path, kind):
        # json.load refuses an integer literal beyond Python's int-string
        # digit limit (4,300 digits) with a plain ValueError
        bad = tmp_path / "huge.json"
        bad.write_text('{"shape": "to", "rt": ' + "9" * 5000 + "}")
        code, _, err = run_cli(["simulate", kind, "--config", str(bad), "--seed", "1"])
        assert code == 5
        assert "huge.json" in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["accuracy", "lifetime"])
    def test_config_not_an_object_is_malformed(self, tmp_path, kind):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2, 3]")
        code, _, err = run_cli(["simulate", kind, "--config", str(bad), "--seed", "1"])
        assert code == 5
        assert "JSON object" in err and "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["pretty", "csv", "json"])
    def test_empty_shapes_is_invalid_parameter(self, lifetime_config, fmt, capsys):
        cfg = json.loads(Path(lifetime_config).read_text())
        Path(lifetime_config).write_text(json.dumps({**cfg, "shapes": []}))
        assert main(["simulate", "lifetime", "--config", lifetime_config, "--seed", "3",
                     "--format", fmt]) == 3
        assert "shapes" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("k", 1.5), ("node_count", 30000.5),
                                             ("node_count", "30000"), ("k", True)])
    def test_count_that_is_not_whole_is_invalid_parameter(self, lifetime_config, field,
                                                          value, capsys):
        cfg = json.loads(Path(lifetime_config).read_text())
        Path(lifetime_config).write_text(json.dumps({**cfg, field: value}))
        assert main(["simulate", "lifetime", "--config", lifetime_config, "--seed", "3"]) == 3
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("kind,field,value,named", [
        ("lifetime", "box", [0, 1], "box"),
        ("lifetime", "box", {"lo": {"x": 0}, "hi": [1, 1, 1]}, "box"),
        ("lifetime", "rt", [1], "rt"),
        ("accuracy", "rt", [1], "rt"),
        ("lifetime", "battery_capacity", [2], "battery_capacity"),
        ("lifetime", "sink", {"x": 0}, "sink"),
        ("accuracy", "sink", [{}, 0, 0], "sink"),
        ("accuracy", "sink", "abc", "sink"),
        ("lifetime", "box", {"lo": "0,0,0", "hi": [1, 1, 1]}, "box corner lo"),
        ("accuracy", "rt_sqrt17_units", "false", "rt_sqrt17_units"),
        ("accuracy", "rt_sqrt17_units", "yes", "rt_sqrt17_units"),
        ("accuracy", "rt_sqrt17_units", 1, "rt_sqrt17_units"),
        ("accuracy", "sink", ["0", "0", "1"], "sink"),
        ("lifetime", "sink", [True, 0, 0], "sink"),
        ("lifetime", "box", {"lo": ["-0.75", -0.75, -0.75], "hi": [1, 1, 1]}, "box.lo"),
        ("lifetime", "box", {"lo": [-1, -1, -1], "hi": [1, False, 1]}, "box.hi"),
        ("accuracy", "rt", 10 ** 400, "rt"),
        ("lifetime", "rt", -10 ** 400, "rt"),
        ("accuracy", "sink", [0, 10 ** 400, 0], "sink"),
        ("lifetime", "box", {"lo": [-10 ** 400, -1, -1], "hi": [1, 1, 1]}, "box.lo"),
        ("lifetime", "box", {"lo": [-1, -1, -1], "hi": [1, 1, 10 ** 400]}, "box.hi"),
        ("lifetime", "battery_capacity", 10 ** 400, "battery_capacity"),
    ])
    def test_field_of_wrong_type_is_invalid_parameter(self, accuracy_config, lifetime_config,
                                                      kind, field, value, named, capsys):
        path = Path(accuracy_config if kind == "accuracy" else lifetime_config)
        path.write_text(json.dumps({**json.loads(path.read_text()), field: value}))
        assert main(["simulate", kind, "--config", str(path), "--seed", "3"]) == 3
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["accuracy", "lifetime"])
    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64), "99999999999999999999999999"])
    def test_seed_beyond_u64_is_invalid_parameter(self, accuracy_config, lifetime_config,
                                                  kind, seed, capsys):
        config = accuracy_config if kind == "accuracy" else lifetime_config
        assert main(["simulate", kind, "--config", config, "--seed", seed]) == 3
        assert "seed must fit an unsigned 64-bit integer" in capsys.readouterr().err

    def test_lifetime_vs_to_empty_when_to_lifetime_is_zero(self, lifetime_config, capsys):
        cfg = json.loads(Path(lifetime_config).read_text())
        Path(lifetime_config).write_text(json.dumps({**cfg, "k": 1000000}))
        assert main(["simulate", "lifetime", "--config", lifetime_config, "--seed", "3",
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["shape"] for r in rows] == ["cb", "to"]
        assert [(r["network_lifetime"], r["lifetime_vs_to"]) for r in rows] == [(0, "")] * 2

    def test_fractional_n_is_invalid_parameter(self, accuracy_config, capsys):
        cfg = json.loads(Path(accuracy_config).read_text())
        Path(accuracy_config).write_text(json.dumps({**cfg, "n": 1.5}))
        assert main(["simulate", "accuracy", "--config", accuracy_config, "--seed", "7"]) == 3
        assert "'n'" in capsys.readouterr().err

    def test_integral_float_counts_accepted(self, accuracy_config, lifetime_config, capsys):
        assert main(["simulate", "accuracy", "--config", accuracy_config, "--seed", "7",
                     "--format", "csv"]) == 0
        want = capsys.readouterr().out
        cfg = json.loads(Path(accuracy_config).read_text())
        Path(accuracy_config).write_text(json.dumps({**cfg, "n": 2e3}))
        assert main(["simulate", "accuracy", "--config", accuracy_config, "--seed", "7",
                     "--format", "csv"]) == 0
        assert capsys.readouterr().out == want
        assert main(["simulate", "lifetime", "--config", lifetime_config, "--seed", "3",
                     "--format", "csv"]) == 0
        want = capsys.readouterr().out
        cfg = json.loads(Path(lifetime_config).read_text())
        Path(lifetime_config).write_text(json.dumps({**cfg, "node_count": 3e4, "k": 1.0}))
        assert main(["simulate", "lifetime", "--config", lifetime_config, "--seed", "3",
                     "--format", "csv"]) == 0
        assert capsys.readouterr().out == want


class TestRoute:
    def test_src_equals_dst(self, capsys):
        code = main(["route", "--shape", "to", "--rt", "1",
                     "--src", "2,2,2", "--dst", "2,2,2", "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0]["outcome"] == "delivered"

    def test_monotone_metric_trace(self, capsys):
        code = main(["route", "--shape", "to", "--rt", "1",
                     "--src", "0,0,0", "--dst", "3,0,0", "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        ms = [r["metric_to_destination"] for r in rows]
        assert ms[0] == 9 and ms[-1] == 0
        assert all(a > b for a, b in zip(ms, ms[1:]))

    def test_dead_end_exit_code(self, tmp_path, capsys):
        from topocell.lattice import LatticeSpec, neighbors
        dead_file = tmp_path / "dead.txt"
        spec = LatticeSpec("to", 1.0)
        lines = ["# all neighbors of the source"]
        lines += ["{},{},{}".format(*nb) for nb in neighbors(spec, (0, 0, 0))]
        dead_file.write_text("\n".join(lines) + "\n")
        code = main(["route", "--shape", "to", "--rt", "1",
                     "--src", "0,0,0", "--dst", "5,5,5",
                     "--dead-cells", str(dead_file), "--format", "json"])
        assert code == 4
        rows = json.loads(capsys.readouterr().out)
        assert rows[-1]["outcome"] == "dead_end"

    def test_dead_src_invalid_parameter(self, tmp_path):
        dead_file = tmp_path / "dead.txt"
        dead_file.write_text("0,0,0\n")
        code, _, err = run_cli(["route", "--shape", "to", "--rt", "1",
                                "--src", "0,0,0", "--dst", "5,5,5",
                                "--dead-cells", str(dead_file)])
        assert code == 3
        assert "not alive" in err


    def test_endpoint_outside_domain_is_invalid_parameter(self):
        # rejected before the first hop; a walk toward this id would take
        # about 1e20 hops, so the timeout turns a hang into a failure
        code, out, err = run_cli(["route", "--shape", "to", "--rt", "1",
                                  "--src", "0,0,0", "--dst", "100000000000000000000,0,0",
                                  "--format", "csv"], timeout=30)
        assert code == 3
        assert out == ""
        assert "destination" in err

    @pytest.mark.parametrize("line", ["1,2", "1,2,x", "1,2,3,4"])
    def test_malformed_dead_cells_is_io_error(self, tmp_path, line):
        dead_file = tmp_path / "dead.txt"
        dead_file.write_text("# header\n4,4,4\n" + line + "\n")
        code, _, err = run_cli(["route", "--shape", "to", "--rt", "1",
                                "--src", "0,0,0", "--dst", "5,5,5",
                                "--dead-cells", str(dead_file)])
        assert code == 5
        assert ":3:" in err

    def test_dead_cells_not_utf8_is_malformed(self, tmp_path):
        dead_file = tmp_path / "dead.bin"
        dead_file.write_bytes(b"4,4,4\n\xff\xfe\x00\x01binary\n")
        code, out, err = run_cli(["route", "--shape", "to", "--rt", "1",
                                  "--src", "0,0,0", "--dst", "5,5,5",
                                  "--dead-cells", str(dead_file)])
        assert code == 5
        assert out == ""
        assert "dead.bin" in err and "Traceback" not in err


# a run of each command whose csv columns the README freezes
CSV_COMMANDS = {
    "tables I": ["tables", "I"],
    "tables II": ["tables", "II"],
    "assign": ["assign", "--shape", "to", "--rt", "1", "--point", "0.1,0.2,0.3"],
    "simulate accuracy": ["simulate", "accuracy", "--config", "{accuracy}", "--seed", "1"],
    "simulate lifetime": ["simulate", "lifetime", "--config", "{lifetime}", "--seed", "1"],
    "route": ["route", "--shape", "hp", "--rt", "1", "--src", "0,0,0", "--dst", "2,3,1"],
}


def readme_csv_columns():
    """{command: columns} from the README's "Frozen CSV columns" list: each
    bullet names a command and gives its columns as the first code span that
    holds a comma."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Frozen CSV columns\n", 1)[1].split("\n#", 1)[0]
    columns = {}
    for bullet in section.split("\n- ")[1:]:
        text = " ".join(bullet.split())
        command, spans = re.match(r"`([^`]+)`:", text)[1], re.findall(r"`([^`]+)`", text)
        columns[command] = next(span for span in spans if "," in span).split(", ")
    return columns


class TestFrozenCsvColumns:
    def test_headers_match_readme(self, accuracy_config, lifetime_config, capsys):
        columns = readme_csv_columns()
        assert set(columns) == set(CSV_COMMANDS)
        paths = {"accuracy": accuracy_config, "lifetime": lifetime_config}
        for command, args in CSV_COMMANDS.items():
            argv = [arg.format(**paths) for arg in args]
            assert main([*argv, "--format", "csv"]) == 0, command
            header = capsys.readouterr().out.split("\n", 1)[0]
            assert header.split(",") == columns[command], command
            assert main([*argv, "--format", "pretty"]) == 0, command
            header = capsys.readouterr().out.split("\n", 1)[0]
            assert header.split() == columns[command], command


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_tables_byte_stable(self, fmt):
        runs = [run_cli(["tables", "II", "--format", fmt]) for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0

    def test_simulate_byte_stable(self, accuracy_config):
        a = run_cli(["simulate", "accuracy", "--config", accuracy_config,
                     "--seed", "42", "--format", "csv"])
        b = run_cli(["simulate", "accuracy", "--config", accuracy_config,
                     "--seed", "42", "--format", "csv"])
        assert a == b and a[0] == 0

    def test_route_byte_stable(self):
        args = ["route", "--shape", "to", "--rt", "1", "--src", "0,0,0",
                "--dst", "0,0,5", "--format", "json"]
        assert run_cli(args) == run_cli(args)


# the CLI with numpy blocked, so that importing it raises ImportError
NO_NUMPY = ("import sys; sys.modules['numpy'] = None; from topocell.cli import main; "
            "raise SystemExit(main(sys.argv[1:]))")


class TestWithoutNumpy:
    """``tables`` and ``route`` need only ``math`` and Python ints: they give
    the same output and exit code with numpy blocked."""

    def test_import_leaves_numpy_out(self):
        code = "import sys, topocell; print('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("args", [
        ["tables", "I"],
        ["tables", "II", "--format", "csv"],
        ["route", "--shape", "hp", "--rt", "2.5", "--sink", "1,-2,0.5",
         "--src", "0,0,0", "--dst", "4,-3,5", "--format", "csv"],
        ["route", "--shape", "to", "--rt", "1", "--src", "0,0,0", "--dst", "5,5,5",
         "--dead-cells", "DEAD", "--format", "json"],
    ], ids=["tables-I", "tables-II", "route", "route-dead-end"])
    def test_same_output_without_numpy(self, args, tmp_path):
        from topocell.lattice import LatticeSpec, neighbors
        dead_file = tmp_path / "dead.txt"
        dead_file.write_text("".join("{},{},{}\n".format(*nb)
                                     for nb in neighbors(LatticeSpec("to", 1.0), (0, 0, 0))))
        args = [str(dead_file) if a == "DEAD" else a for a in args]
        blocked = subprocess.run([sys.executable, "-c", NO_NUMPY, *args],
                                 capture_output=True, text=True)
        code, out, _ = run_cli(args)
        assert (blocked.returncode, blocked.stdout) == (code, out), blocked.stderr
        assert code == (4 if "--dead-cells" in args else 0) and out
