"""topocell benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload montecarlo --seed 1 --seconds 15 --trace 0

Runs the workload against the checkout's own ``src/topocell``, checks every
output, and prints every metric by name with its unit and sample count, then
a provenance record, and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
tracing. ``--trace 1`` is the separate traced run: it gives every per-layer
metric and the tracing overhead, and writes its spans to ``perfbench/out/``.
See perfbench/README.md for what each metric means on each workload.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 7  # fresh interpreters timed for setup_s; the median is reported
PROBE_RUNS = 3  # fresh interpreters for the import and interpreter probes
E2E_UNITS = {"op1_ms": "ms", "op2_ms": "ms", "throughput_per_s": "1/s"}


def _use_checkout_src():
    """Import topocell from this checkout's src/, never from elsewhere."""
    if not (SRC / "topocell" / "__init__.py").is_file():
        raise SystemExit(f"error: no topocell package under {SRC}; run from a topocell checkout")
    sys.path.insert(0, str(SRC))
    import topocell
    if Path(topocell.__file__).resolve().parent != SRC / "topocell":
        raise SystemExit(f"error: imported topocell from {topocell.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# fresh-interpreter probes


def setup_seconds(workload: str, seed: int, env: dict) -> float:
    """Fresh interpreter -> import topocell -> workload inputs built."""
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import workloads; "
            f"workloads.WORKLOADS[{workload!r}].build({seed}); print('ready', flush=True)")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait(timeout=120) != 0 or line.strip() != "ready":
        raise RuntimeError("setup probe failed")
    return elapsed


def import_seconds(env: dict) -> dict:
    """Cumulative import seconds from ``-X importtime``, median over probes."""
    from tracing import parse_importtime
    runs = []
    for _ in range(PROBE_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import topocell"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
                              check=True)
        runs.append(parse_importtime(proc.stderr))
    return {mod: statistics.median(r.get(mod, 0.0) for r in runs)
            for mod in ("topocell", "scipy.spatial", "numpy")}


def interpreter_seconds(env: dict) -> float:
    """Wall time of ``python -c pass``: the floor under every CLI command."""
    times = []
    for _ in range(PROBE_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# provenance


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(workload: str, seed: int, seconds: float, trace: int, sizes: dict) -> dict:
    import numpy
    import topocell
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "cpu": cpu_model(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy_version, "topocell": topocell.__version__,
        "blas_threads": blas_threads(), "commit": git_commit(), "sizes": sizes,
    }


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def end_to_end(name: str, seed: int, seconds: float, setup_runs: int = SETUP_RUNS,
               small: bool = False):
    from workloads import WORKLOADS, child_env
    w = WORKLOADS[name]
    env = child_env()
    # set-up probes on both sides of the timed loop, so that one slow
    # stretch of the host does not hold all of them
    setup = [setup_seconds(name, seed, env) for _ in range(setup_runs // 2)]
    inp = w.build(seed, small=small)
    phases = w.run(inp, seconds)
    rss = w.peak_rss_mib(inp)
    setup += [setup_seconds(name, seed, env) for _ in range(setup_runs - len(setup))]
    attempted, failed = w.check(inp, phases, w.expected(inp))
    m = w.metrics(inp, phases)
    named = dict(m["named"])
    named["fail_frac"] = (failed / attempted, "frac", attempted)
    metrics = {"setup_s": (statistics.median(setup), "s", len(setup)),
               "peak_rss_mib": (rss, "MiB", 1)}
    for key, (value, n) in m["e2e"].items():
        metrics[key] = (value, E2E_UNITS[key], n)
    return attempted, failed, named, metrics, m["sizes"]


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def _matched_overhead(plain: dict, traced: dict) -> float:
    """Traced over untraced time of the same ops, minus one, in percent,
    from each op's median scaled time."""
    num = den = 0.0
    for phase, p in plain.items():
        t = traced[phase]
        p_scaled, t_scaled = p.scaled(), t.scaled()
        for i in range(p.n_ops):
            num += statistics.median(t_scaled[i::t.n_ops])
            den += statistics.median(p_scaled[i::p.n_ops])
    return (num / den - 1.0) * 100.0


def assign_cells_peak_bytes_per_pt(n: int) -> float:
    """tracemalloc peak of one TO assign_cells call, per point."""
    import numpy as np
    from topocell import lattice
    from topocell.geometry import CellShape
    pts = np.random.default_rng(0).uniform(-5.0, 5.0, size=(n, 3))
    spec = lattice.LatticeSpec(CellShape.TO, 1.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lattice.assign_cells(spec, pts)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / n


def per_layer(name: str, seed: int, seconds: float, small: bool = False):
    """Run the named workload untraced then traced, each for seconds/2, and one
    small traced pass of every other workload, so every layer is measured."""
    from tracing import Tracer, mean_s, seconds_per_unit
    from workloads import WORKLOADS, CliCold, NodeOps, child_env
    tracer = Tracer()
    attempted = failed = 0
    traced, inputs, overhead = {}, {}, None
    for w in WORKLOADS.values():
        main = w.name == name
        inp = w.build(seed, small=small or not main)
        budget = seconds / 2 if main else 0.0  # a zero budget runs one pass
        run = w.run_in_process if isinstance(w, CliCold) else w.run
        plain = run(inp, budget)
        alive_before = _alive_calls(inp) if isinstance(w, NodeOps) else 0
        with tracer:
            traced[w.name] = run(inp, budget)
        if isinstance(w, NodeOps):
            alive_calls = _alive_calls(inp) - alive_before
        expected = w.expected(inp)
        for phases in (plain, traced[w.name]):
            a, f = w.check(inp, phases, expected)
            attempted, failed = attempted + a, failed + f
        if main:
            overhead = _matched_overhead(plain, traced[w.name])
        inputs[w.name] = inp

    cli_w = WORKLOADS["cli-cold"]
    cold = cli_w.run(inputs["cli-cold"], 0.0)
    a, f = cli_w.check(inputs["cli-cold"], cold, cli_w.expected(inputs["cli-cold"]))
    attempted, failed = attempted + a, failed + f
    env = child_env()
    imports = import_seconds(env)

    sel = tracer.select
    life_parent = "simulator.lifetime_simulation"
    m = {}
    for shape in ("cb", "hp", "rd", "to"):
        spans = sel("lattice.assign_cells", parent=life_parent, shape=shape)
        m[f"lattice.assign_cells.{shape}.ns_per_pt"] = (seconds_per_unit(spans) * 1e9, "ns/pt")
    m["lattice.cell_centers.ns_per_pt"] = (
        seconds_per_unit(sel("lattice.cell_centers", parent=life_parent)) * 1e9, "ns/pt")
    acc_parent = "simulator.accuracy_experiment"
    for fn in ("assign_cells_oracle", "assign_cells_nearest_int"):
        m[f"lattice.{fn}.ns_per_pt"] = (
            seconds_per_unit(sel(f"lattice.{fn}", parent=acc_parent)) * 1e9, "ns/pt")
    m["lattice.assign_cells.peak_bytes_per_pt"] = (
        assign_cells_peak_bytes_per_pt(20_000 if small else 200_000), "B/pt")
    m["lattice.assign_cell.us"] = (mean_s(sel("lattice.assign_cell", top=True)) * 1e6, "us")

    routes = sel("routing.greedy_route", top=True)
    hops_traced = sum(s.count for s in routes)
    nb_in_routes = sel("lattice.neighbors", parent="routing.greedy_route")
    m["lattice.neighbors.us"] = (mean_s(sel("lattice.neighbors")) * 1e6, "us")
    m["lattice.neighbors.calls_per_hop"] = (len(nb_in_routes) / hops_traced, "count")

    for shape in ("cb", "hp", "rd", "to"):
        m[f"simulator.lifetime_simulation.{shape}.s"] = (
            mean_s(sel("simulator.lifetime_simulation", top=True, shape=shape)), "s")
    m["simulator.lifetime_simulation.self_s"] = (
        mean_s(sel("simulator.lifetime_simulation", top=True), "self_s"), "s")
    m["simulator.accuracy_experiment.self_s"] = (
        mean_s(sel("simulator.accuracy_experiment", top=True), "self_s"), "s")
    mc = inputs["montecarlo"]
    kept = sum(round(populated * mean)
               for ph in WORKLOADS["montecarlo"].lifetime_phases(traced["montecarlo"])
               for _, populated, mean in ph.first)
    nodes = sum(cfg.node_count for _, cfg in mc.deployments)
    m["simulator.interior_frac"] = (kept / nodes, "frac")

    route_phase = traced["node-ops"]["route"]
    first_pass = route_phase.first
    hops_pass = sum(p.hop_count for p in first_pass)
    m["routing.greedy_route.us_per_hop"] = (
        sum(s.dur for s in routes) / hops_traced * 1e6, "us")
    m["routing.hops"] = (hops_pass, "count")
    m["routing.delivered_frac"] = (
        sum(p.outcome == "delivered" for p in first_pass) / len(first_pass), "frac")
    m["routing.alive_calls_per_hop"] = (alive_calls / hops_traced, "count")

    m["import.topocell.s"] = (imports["topocell"], "s")
    m["import.scipy.spatial.s"] = (imports["scipy.spatial"], "s")
    m["import.numpy.s"] = (imports["numpy"], "s")
    m["cli.interpreter.s"] = (interpreter_seconds(env), "s")
    for cmd, secs in cli_w.command_seconds(cold).items():
        m[f"cli.{cmd}.s"] = (secs, "s")
    m["planner.radius_table.us"] = (mean_s(sel("planner.radius_table")) * 1e6, "us")
    m["planner.lifetime_table.us"] = (mean_s(sel("planner.lifetime_table")) * 1e6, "us")
    m["geometry.build_polyhedron.us"] = (mean_s(sel("geometry.build_polyhedron")) * 1e6, "us")
    m["trace.overhead_pct"] = (overhead, "%")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{name}-{seed}.jsonl")
    sizes = {"spans": len(tracer.spans), "montecarlo.deployments": len(mc.deployments),
             "node-ops.routes": len(inputs["node-ops"].routes)}
    return attempted, failed, m, sizes


def _alive_calls(inp) -> int:
    return sum({id(op[3]): op[3].calls for op in inp.routes}.values())


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("montecarlo", "node-ops", "cli-cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        ap.error("--seed must be in [0, 2**63)")
    _use_checkout_src()
    sys.path.insert(0, str(HERE))

    if args.trace:
        attempted, failed, metrics, sizes = per_layer(args.workload, args.seed, args.seconds)
        for key, (value, unit) in metrics.items():
            print(f"layer {key} = {value:.6g} {unit}")
    else:
        attempted, failed, named, metrics, sizes = end_to_end(
            args.workload, args.seed, args.seconds)
        for key, (value, unit, n) in named.items():
            print(f"metric {key} = {value:.6g} {unit} (n={n})")
        for key, (value, unit, n) in metrics.items():
            print(f"end-to-end {key} = {value:.6g} {unit} (n={n})")
        metrics = {k: (v, u) for k, (v, u, _) in metrics.items()}
    print("provenance " + json.dumps(
        provenance(args.workload, args.seed, args.seconds, args.trace, sizes)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
