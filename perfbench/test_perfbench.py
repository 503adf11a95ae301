"""Tests of the benchmark itself, at tiny sizes.

Every metric BENCHMARK.json names is emitted with its unit, and each checker
counts a wrong output as a failure. Wrong outputs are fed to the checkers;
the program is never patched.

    python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from topocell.lattice import CellId  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_every_end_to_end_metric_is_emitted(name):
    attempted, failed, named, metrics, _ = run.end_to_end(name, SEED, 0.0, setup_runs=1,
                                                          small=True)
    assert attempted > 0 and failed == 0
    assert {k: unit for k, (_, unit, _) in metrics.items()} == _units(BENCH["end_to_end"])
    assert all(value > 0 and n >= 1 for value, _, n in metrics.values())
    assert named["fail_frac"][0] == 0.0


def test_every_per_layer_metric_is_emitted():
    attempted, failed, metrics, _ = run.per_layer("node-ops", SEED, 0.0, small=True)
    assert attempted > 0 and failed == 0
    assert {k: unit for k, (_, unit) in metrics.items()} == _units(BENCH["per_layer"])
    assert metrics["routing.hops"][0] > 0
    assert metrics["simulator.lifetime_simulation.to.s"][0] > 0


def _run_and_expect(name):
    w = workloads.WORKLOADS[name]
    inp = w.build(SEED, small=True)
    phases = w.run(inp, 0.0)
    expected = w.expected(inp)
    assert w.check(inp, phases, expected)[1] == 0
    return w, inp, phases, expected


def test_wrong_cell_id_is_a_failure():
    w, inp, phases, expected = _run_and_expect("node-ops")
    u, v, z = phases["assign"].first[0]
    phases["assign"].first[0] = CellId(u + 1, v, z)
    assert w.check(inp, phases, expected)[1] == 1


def test_wrong_route_is_a_failure():
    w, inp, phases, expected = _run_and_expect("node-ops")
    path = phases["route"].first[0]
    skipped = type(path)(hops=[path.hops[0]] + path.hops[2:], outcome=path.outcome)
    phases["route"].first[0] = skipped  # drops a hop: not a neighbor step
    assert w.check(inp, phases, expected)[1] == 1


def test_wrong_lifetime_is_a_failure():
    w, inp, phases, expected = _run_and_expect("montecarlo")
    lifetime, populated, mean = phases["lifetime.0"].first[0]
    phases["lifetime.0"].first[0] = (lifetime + 1, populated, mean)
    assert w.check(inp, phases, expected)[1] == 1


def test_wrong_stdout_or_exit_code_is_a_failure():
    w, inp, phases, expected = _run_and_expect("cli-cold")
    code, stdout = phases["tables-I"].first[0]
    phases["tables-I"].first[0] = (code, stdout.replace(b"cb", b"cx", 1))
    _, stdout4 = phases["route-dead-end"].first[0]
    phases["route-dead-end"].first[0] = (0, stdout4)  # this route must exit 4
    assert w.check(inp, phases, expected)[1] == 2


def test_a_changed_repeat_is_a_failure():
    outputs = iter([1, 2, 1, 3])
    phases = workloads.closed_loop({"p": ([None, None], lambda op: next(outputs))}, 0.0,
                                   lambda: 1.0, min_rounds=2)
    assert workloads.check_phase(phases["p"], [1, 2]) == (4, 1)


def test_self_time_subtracts_children():
    mod = types.ModuleType("perfbench_fake")

    def child():
        return 1

    def parent():
        return mod.child() + mod.child()

    mod.child, mod.parent = child, parent
    sys.modules[mod.__name__] = mod
    tracer = tracing.Tracer(targets=((mod.__name__, "child", "c", None),
                                     (mod.__name__, "parent", "p", None)))
    with tracer:
        assert mod.parent() == 2
    assert mod.parent is parent
    (p,) = tracer.select("p", top=True)
    kids = tracer.select("c", parent="p")
    assert len(kids) == 2 and all(k.op == p.op for k in kids)
    assert p.self_s == pytest.approx(p.dur - sum(k.dur for k in kids))


def test_parse_importtime():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:       120 |       7900 |   numpy\n"
              "import time:        50 |     480000 | topocell\n")
    assert tracing.parse_importtime(stderr) == {"numpy": 0.0079, "topocell": 0.48}


def test_fails_without_the_program(tmp_path):
    for p in BENCH["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *BENCH["command"][1:], "--workload", "node-ops",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
