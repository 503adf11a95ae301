"""The three benchmark workloads: seeded inputs, closed-loop timed phases and
output checks.

Every workload is a closed loop with one caller: the next operation starts
only when the previous one has returned, because experiments and per-node
computations are synchronous. topocell functions are looked up through their
module at call time (``simulator.lifetime_simulation``, ``lattice.assign_cell``)
so that the traced run's wrappers see every call.

The host this benchmark was built on slows down by up to 2x for stretches of
seconds to minutes, for reasons outside the benchmark's control. So between
passes each workload times a fixed calibration kernel that uses no topocell
code and resembles the workload's own work, and the end-to-end times are also
reported scaled to the speed at which that kernel takes its nominal time.

Checks run after the timed phases and compare every call's output with an
expectation derived independently of the code under test: the brute-force
oracle for cell ids, a reference greedy router written here, and the CLI
stdout recorded in ``expected/``.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from topocell import cli, geometry, lattice, planner, routing, simulator
from topocell.geometry import CellShape
from topocell.lattice import CellId, LatticeSpec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SHAPES = tuple(CellShape)


@dataclass
class Phase:
    """One closed-loop phase. Call k ran op ``k % n_ops`` in pass
    ``k // n_ops``; only the first pass's outputs are kept, and every later
    call is compared with them."""

    n_ops: int
    secs: list = field(default_factory=list)  # per call, in call order
    first: list = field(default_factory=list)  # outputs of the first pass
    changed: int = 0  # later calls whose output differed from the first pass
    slowdown: list = field(default_factory=list)  # per pass, from the calibration kernel

    def scaled(self) -> list:
        """Per-call seconds at the calibration kernel's nominal speed."""
        return [s / self.slowdown[k // self.n_ops] for k, s in enumerate(self.secs)]


def closed_loop(phases: dict, budget_s: float, calibrate, min_rounds: int = 1) -> dict:
    """Run ``phases`` ({name: (ops, call)}) in rounds: each round makes one
    whole pass over every phase's ops, calling ``call(op)`` for each op in
    turn. Rounds repeat until another would overrun ``budget_s``, but at
    least ``min_rounds`` run. Interleaving spreads every phase over the whole
    run. ``calibrate()`` runs before the first pass and after every pass and
    returns the host's slowdown; a pass is charged the mean of the two
    readings around it. Calibration time is outside every timed call."""
    out = {name: Phase(len(ops)) for name, (ops, _) in phases.items()}
    reading = calibrate()
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for name, (ops, call) in phases.items():
            ph = out[name]
            first = not ph.slowdown
            for i, op in enumerate(ops):
                t0 = time.perf_counter()
                res = call(op)
                ph.secs.append(time.perf_counter() - t0)
                if first:
                    ph.first.append(res)
                elif res != ph.first[i]:
                    ph.changed += 1
            before, reading = reading, calibrate()
            ph.slowdown.append((before + reading) / 2)
        rounds += 1
        now = time.perf_counter()
        if rounds >= min_rounds and now - start + (now - round_start) > budget_s:
            return out


def kernel_slowdown(kernel, nominal_s: float, repeats: int) -> float:
    """Median time of ``repeats`` kernel runs over its nominal time."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / nominal_s


def self_peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def pct(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def check_phase(ph: Phase, expected: list, ok=None) -> tuple[int, int]:
    """(attempted, failed) over every call of a phase: first-pass outputs are
    checked against ``expected`` (by equality, or by ``ok(i, out, exp)``),
    later calls must repeat the first pass."""
    failed = ph.changed
    for i, out in enumerate(ph.first):
        good = ok(i, out, expected[i]) if ok else out == expected[i]
        failed += not good
    return len(ph.secs), failed


def _seed_ints(rng, k) -> list[int]:
    return [int(s) for s in rng.integers(0, 2 ** 63, size=k)]


# --------------------------------------------------------------------------
# montecarlo


@dataclass
class MonteCarloInputs:
    deployments: list  # (LatticeSpec, DeploymentConfig), every shape per seed
    accuracy: tuple  # (LatticeSpec, n, seed)


_BULK = np.random.default_rng(0).random((100_000, 3))


def _bulk_kernel():
    """Bulk numpy work shaped like a candidate search: (n, 8, 3) broadcast,
    squared distances, row argmin."""
    cand = np.floor(_BULK)[:, None, :] + np.arange(8)[None, :, None] * 0.1
    return int(((_BULK[:, None, :] - cand) ** 2).sum(axis=-1).argmin(axis=1).sum())


class MonteCarlo:
    """(a) a lifetime sweep over all shapes and several deployment seeds at
    the density of demos/04 (about 1200 nodes per TO cell, 71k nodes), and
    (b) TO accuracy experiments at 5e5 points, whose intermediates (about
    400 MiB) exceed the last-level cache."""

    name = "montecarlo"
    CAPACITY = 8.0
    K = 1
    SIDE = 1.5  # box side in units of r_t, as in demos/04
    CENTER = (0.0317, -0.7411, 0.2293)
    SUBSAMPLE = 20_000
    NOMINAL_S = 0.040  # calibration kernel time at the reference speed

    def build(self, seed: int, small: bool = False) -> MonteCarloInputs:
        rng = np.random.default_rng(seed)
        lo = np.asarray(self.CENTER) - self.SIDE / 2
        box = simulator.Box(lo=lo, hi=lo + self.SIDE)
        per_cell = 60 if small else 1200
        nodes = round(per_cell * box.volume / planner.cell_volume_coeff(CellShape.TO))
        deployments = [
            (LatticeSpec(shape, 1.0), simulator.DeploymentConfig(box=box, node_count=nodes, seed=s))
            for s in _seed_ints(rng, 1 if small else 3)
            for shape in SHAPES
        ]
        n_acc = 20_000 if small else 500_000
        accuracy = (LatticeSpec(CellShape.TO, 1.0), n_acc, _seed_ints(rng, 1)[0])
        return MonteCarloInputs(deployments, accuracy)

    def _lifetime(self, dep):
        spec, cfg = dep
        res = simulator.lifetime_simulation(spec, cfg, self.CAPACITY, self.K)
        return res.network_lifetime, res.cells_populated, res.mean_nodes_per_cell

    @staticmethod
    def _accuracy(acc):
        spec, n, seed = acc
        rep = simulator.accuracy_experiment(spec, n, seed)
        return rep.correct_exact, rep.correct_nearest_int

    def calibrate(self) -> float:
        return kernel_slowdown(_bulk_kernel, self.NOMINAL_S, 1)

    @staticmethod
    def peak_rss_mib(inp) -> float:
        return self_peak_rss_mib()

    @staticmethod
    def phase_ops(inp: MonteCarloInputs) -> dict:
        """Ops per phase. Each deployment seed is its own phase, so the
        calibration runs every four lifetime calls."""
        n = len(SHAPES)
        ops = {f"lifetime.{k // n}": inp.deployments[k:k + n]
               for k in range(0, len(inp.deployments), n)}
        ops["accuracy"] = [inp.accuracy]
        return ops

    def run(self, inp: MonteCarloInputs, seconds: float) -> dict:
        phases = {name: (ops, self._accuracy if name == "accuracy" else self._lifetime)
                  for name, ops in self.phase_ops(inp).items()}
        return closed_loop(phases, seconds, self.calibrate, min_rounds=2)

    # ---- checks
    @staticmethod
    def deployment_points(cfg) -> np.ndarray:
        """The documented deployment: uniform in the box from default_rng(seed)."""
        rng = np.random.default_rng(cfg.seed)
        return cfg.box.lo + rng.random((cfg.node_count, 3)) * (cfg.box.hi - cfg.box.lo)

    def reference_lifetime(self, spec, cfg) -> tuple[int, int]:
        """(network_lifetime, cells_populated) from oracle ids and the closed form."""
        ids = lattice.assign_cells_oracle(spec, self.deployment_points(cfg))
        centers = lattice.cell_centers(spec, ids)
        ext = geometry.build_polyhedron(spec.shape, (0.0, 0.0, 0.0), spec.circumradius).axis_extents()
        interior = ((centers >= cfg.box.lo + ext) & (centers <= cfg.box.hi - ext)).all(axis=1)
        _, counts = np.unique(ids[interior], axis=0, return_counts=True)
        steps = np.where(counts >= self.K, counts * math.ceil(self.CAPACITY) // self.K, 0)
        return int(steps.min()), len(counts)

    @staticmethod
    def reference_accuracy(spec, n, seed, chunk=100_000) -> tuple[int, int]:
        """(correct_exact, correct_nearest_int) over the documented sample:
        n points uniform in a cube of side 10 r_t around the sink."""
        rng = np.random.default_rng(seed)
        half = 5.0 * spec.r_t
        pts = spec.sink + rng.uniform(-half, half, size=(n, 3))
        exact = nearest = 0
        for i in range(0, n, chunk):
            p = pts[i:i + chunk]
            truth = lattice.assign_cells_oracle(spec, p, window=3)
            exact += int((lattice.assign_cells(spec, p) == truth).all(axis=1).sum())
            nearest += int((lattice.assign_cells_nearest_int(spec, p) == truth).all(axis=1).sum())
        return exact, nearest

    def expected(self, inp: MonteCarloInputs) -> dict:
        """Expected outputs per phase and op, computed outside the timed phases."""
        return {name: [self.reference_accuracy(*op) if name == "accuracy"
                       else self.reference_lifetime(*op) for op in ops]
                for name, ops in self.phase_ops(inp).items()}

    def check(self, inp: MonteCarloInputs, phases: dict, expected: dict) -> tuple[int, int]:
        attempted = failed = 0
        for spec, cfg in inp.deployments[:len(SHAPES)]:
            pts = self.deployment_points(cfg)[:self.SUBSAMPLE]
            attempted += 1
            failed += not np.array_equal(lattice.assign_cells(spec, pts),
                                         lattice.assign_cells_oracle(spec, pts))
        for name, ph in phases.items():
            a, f = check_phase(ph, expected[name],
                               lambda i, out, exp: tuple(out[:2]) == tuple(exp))
            attempted, failed = attempted + a, failed + f
        return attempted, failed

    # ---- metrics
    @staticmethod
    def lifetime_phases(phases: dict) -> list:
        return [ph for name, ph in phases.items() if name.startswith("lifetime.")]

    def metrics(self, inp: MonteCarloInputs, phases: dict) -> dict:
        life = self.lifetime_phases(phases)
        acc = phases["accuracy"]
        raw = [s for ph in life for s in ph.secs]
        scaled = [s for ph in life for s in ph.scaled()]
        nodes = inp.deployments[0][1].node_count
        n_acc = inp.accuracy[1]
        return {
            "named": {
                "lifetime_nodes_per_s": (nodes * len(raw) / sum(raw), "1/s", len(raw)),
                "accuracy_pts_per_s": (n_acc / pct(acc.secs, 50), "1/s", len(acc.secs)),
            },
            "e2e": {
                "op1_ms": (pct(scaled, 50) * 1e3, len(scaled)),
                "op2_ms": (pct(acc.scaled(), 50) * 1e3, len(acc.secs)),
                "throughput_per_s": (nodes * len(scaled) / sum(scaled), len(scaled)),
            },
            "sizes": {"lifetime.nodes_per_deployment": nodes,
                      "lifetime.deployments": len(inp.deployments),
                      "accuracy.n": n_acc},
        }


# --------------------------------------------------------------------------
# node-ops


@dataclass
class NodeOpsInputs:
    points: list  # (LatticeSpec, point)
    routes: list  # (LatticeSpec, src, dst, alive predicate)
    dead: dict  # shape -> frozenset of dead CellIds


_TINY = np.arange(24.0).reshape(8, 3)
_STEPS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, 1))
_BLOCKED = frozenset((i, i % 7, i % 5) for i in range(0, 400, 3))


def _node_kernel():
    """Python arithmetic with numpy calls on tiny arrays, like one assign_cell,
    then tuple arithmetic and set lookups, like greedy hops."""
    acc = 0
    for k in range(20):
        y = np.floor(_TINY * 0.37 + k)
        acc += int(((y - _TINY) ** 2).sum(axis=1).argmin())
    for k in range(60):
        near = [(k + du, dv, dw) for du, dv, dw in _STEPS]
        acc += min((a - 5) ** 2 + (b - 3) ** 2 + (c - 1) ** 2
                   for a, b, c in near if (a, b, c) not in _BLOCKED)
    return acc


class NodeOps:
    """What one sensor does, one call at a time: scalar assign_cell on single
    random points, then greedy_route between random alive ids with about 10%
    of cells dead, given through a set-membership alive predicate."""

    name = "node-ops"
    HALF = 5.0  # points uniform in a cube of side 2*HALF*r_t around the sink
    ID_RANGE = 6  # route endpoints and dead cells within |u|,|v|,|w| <= ID_RANGE
    DEAD_FRAC = 0.10
    NOMINAL_S = 2.5e-4  # calibration kernel time at the reference speed

    def build(self, seed: int, small: bool = False) -> NodeOpsInputs:
        rng = np.random.default_rng(seed)
        n_pts, n_routes = (16, 8) if small else (256, 192)
        r = np.arange(-self.ID_RANGE, self.ID_RANGE + 1)
        grid = [CellId(int(u), int(v), int(w)) for u in r for v in r for w in r]
        points, routes, dead = [], [], {}
        for shape in SHAPES:
            spec = LatticeSpec(shape, 1.0)
            pts = rng.uniform(-self.HALF, self.HALF, size=(n_pts, 3))
            points += [(spec, p) for p in pts]
            pick = rng.choice(len(grid), size=round(self.DEAD_FRAC * len(grid)), replace=False)
            dead_set = frozenset(grid[i] for i in pick)
            dead[shape] = dead_set
            alive_ids = [c for c in grid if c not in dead_set]
            alive = _NotIn(dead_set)
            for _ in range(n_routes):
                a, b = rng.choice(len(alive_ids), size=2, replace=False)
                routes.append((spec, alive_ids[a], alive_ids[b], alive))
        return NodeOpsInputs(points, routes, dead)

    @staticmethod
    def _assign(op):
        spec, p = op
        return lattice.assign_cell(spec, p)

    @staticmethod
    def _route(op):
        spec, src, dst, alive = op
        return routing.greedy_route(spec, src, dst, alive=alive)

    def calibrate(self) -> float:
        return kernel_slowdown(_node_kernel, self.NOMINAL_S, 5)

    @staticmethod
    def peak_rss_mib(inp) -> float:
        return self_peak_rss_mib()

    def run(self, inp: NodeOpsInputs, seconds: float) -> dict:
        return closed_loop({"assign": (inp.points, self._assign),
                            "route": (inp.routes, self._route)}, seconds, self.calibrate)

    # ---- checks
    @staticmethod
    def _metric(c, dst) -> int:
        return (c[0] - dst[0]) ** 2 + (c[1] - dst[1]) ** 2 + (c[2] - dst[2]) ** 2

    def reference_route(self, spec, src, dst, dead) -> tuple[int, str]:
        """(hop_count, outcome) of the documented greedy rule: move to the
        alive neighbor with the smallest squared id distance to dst, ties to
        the smallest (u, v, w), while that distance strictly shrinks."""
        cur, hops = tuple(src), 0
        while cur != tuple(dst):
            bar = self._metric(cur, dst)
            better = [(self._metric(nb, dst), tuple(nb)) for nb in lattice.neighbors(spec, cur)
                      if nb not in dead and self._metric(nb, dst) < bar]
            if not better:
                return hops, routing.DEAD_END
            cur = min(better)[1]
            hops += 1
        return hops, routing.DELIVERED

    def expected(self, inp: NodeOpsInputs) -> dict:
        ids = []
        for shape in SHAPES:
            spec = LatticeSpec(shape, 1.0)
            pts = np.array([p for s, p in inp.points if s.shape is shape])
            ids += [CellId(*map(int, row)) for row in lattice.assign_cells_oracle(spec, pts)]
        routes = [self.reference_route(spec, src, dst, inp.dead[spec.shape])
                  for spec, src, dst, _ in inp.routes]
        return {"assign": ids, "route": routes}

    def route_ok(self, spec, src, dst, dead, path, expected) -> bool:
        """Hop-by-hop invariants plus the (hop_count, outcome) digest."""
        hops = [tuple(h) for h in path.hops]
        if hops[0] != tuple(src) or (path.hop_count, path.outcome) != tuple(expected):
            return False
        if (path.outcome == routing.DELIVERED) != (hops[-1] == tuple(dst)):
            return False
        for a, b in zip(hops, hops[1:]):
            if b in dead or b not in {tuple(n) for n in lattice.neighbors(spec, a)}:
                return False
            if self._metric(b, dst) >= self._metric(a, dst):
                return False
        return True

    def check(self, inp: NodeOpsInputs, phases: dict, expected: dict) -> tuple[int, int]:
        def route_ok(i, path, exp):
            spec, src, dst, _ = inp.routes[i]
            return self.route_ok(spec, src, dst, inp.dead[spec.shape], path, exp)
        a1, f1 = check_phase(phases["assign"], expected["assign"])
        a2, f2 = check_phase(phases["route"], expected["route"], route_ok)
        return a1 + a2, f1 + f2

    # ---- metrics
    def metrics(self, inp: NodeOpsInputs, phases: dict) -> dict:
        a, r = phases["assign"], phases["route"]
        hops = sum(p.hop_count for p in r.first) * len(r.slowdown)
        r_scaled = r.scaled()
        return {
            "named": {
                "assign_one_us.p50": (pct(a.secs, 50) * 1e6, "us", len(a.secs)),
                "assign_one_us.p99": (pct(a.secs, 99) * 1e6, "us", len(a.secs)),
                "route_us.p50": (pct(r.secs, 50) * 1e6, "us", len(r.secs)),
                "route_us.p99": (pct(r.secs, 99) * 1e6, "us", len(r.secs)),
                "route_hops_per_s": (hops / sum(r.secs), "1/s", len(r.secs)),
            },
            "e2e": {
                "op1_ms": (pct(a.scaled(), 50) * 1e3, len(a.secs)),
                "op2_ms": (pct(r_scaled, 50) * 1e3, len(r.secs)),
                "throughput_per_s": (hops / sum(r_scaled), len(r.secs)),
            },
            "sizes": {"assign.points": len(inp.points), "route.pairs": len(inp.routes),
                      "route.id_range": self.ID_RANGE},
        }


class _NotIn:
    """Alive predicate: membership test against a set of dead cells. Counts
    its calls so the traced run can report calls per hop."""

    __slots__ = ("dead", "calls")

    def __init__(self, dead):
        self.dead = dead
        self.calls = 0

    def __call__(self, cid) -> bool:
        self.calls += 1
        return cid not in self.dead


# --------------------------------------------------------------------------
# cli-cold

INPUTS = HERE / "inputs"

# (name, argv, expected exit code). The script is fixed: its csv stdout is
# compared byte for byte with the output recorded in expected/<name>.csv.
CLI_SCRIPT = (
    ("tables-I", ["tables", "I", "--format", "csv"], 0),
    ("tables-II", ["tables", "II", "--format", "csv"], 0),
    ("assign", ["assign", "--shape", "to", "--rt", "1", "--rt-sqrt17-units",
                "--point", "1,0.2,0.45", "--method", "nearest_int", "--format", "csv"], 0),
    ("simulate-lifetime", ["simulate", "lifetime", "--config", str(INPUTS / "lifetime.json"),
                           "--seed", "3", "--format", "csv"], 0),
    ("simulate-accuracy", ["simulate", "accuracy", "--config", str(INPUTS / "accuracy.json"),
                           "--seed", "7", "--format", "csv"], 0),
    ("route", ["route", "--shape", "to", "--rt", "1", "--src=-4,2,1", "--dst", "4,-2,3",
               "--dead-cells", str(INPUTS / "dead.txt"), "--format", "csv"], 0),
    ("route-dead-end", ["route", "--shape", "to", "--rt", "1", "--src", "0,0,0", "--dst", "3,0,0",
                        "--dead-cells", str(INPUTS / "dead.txt"), "--format", "csv"], 4),
)


def child_env() -> dict:
    """Environment for child interpreters: the checkout's src/ first on the path."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class CliInputs:
    script: tuple
    expected: dict  # name -> stdout bytes
    env: dict
    peak_rss_mib: float = 0.0  # max RSS over the CLI processes run so far


class CliCold:
    """A fixed script of CLI commands, each in a fresh ``python -m topocell``
    process, one after another. Each command is its own phase, so the
    calibration (a fresh interpreter importing numpy) runs between commands.
    The peak RSS is the largest over the command processes alone."""

    name = "cli-cold"
    NOMINAL_S = 0.10  # calibration kernel time at the reference speed

    def build(self, seed: int, small: bool = False) -> CliInputs:
        expected = {name: (HERE / "expected" / f"{name}.csv").read_bytes()
                    for name, _, _ in CLI_SCRIPT}
        return CliInputs(CLI_SCRIPT, expected, child_env())

    @staticmethod
    def _spawn(inp: CliInputs):
        def call(cmd):
            _, argv, _ = cmd
            proc = subprocess.Popen([sys.executable, "-m", "topocell", *argv], cwd=ROOT,
                                    env=inp.env, stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL)
            with proc.stdout:
                stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)  # reaps the child with its rusage
            proc.returncode = os.waitstatus_to_exitcode(status)
            inp.peak_rss_mib = max(inp.peak_rss_mib, usage.ru_maxrss / 1024.0)
            return proc.returncode, stdout
        return call

    @staticmethod
    def _in_process(cmd):
        _, argv, _ = cmd
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, buf.getvalue().encode()

    def calibrate(self, env=None) -> float:
        def kernel():
            subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, env=env,
                           check=True, timeout=60)
        return kernel_slowdown(kernel, self.NOMINAL_S, 1)

    def run(self, inp: CliInputs, seconds: float) -> dict:
        call = self._spawn(inp)
        return closed_loop({cmd[0]: ([cmd], call) for cmd in inp.script},
                           seconds, lambda: self.calibrate(inp.env))

    def run_in_process(self, inp: CliInputs, seconds: float) -> dict:
        """The same script through ``topocell.cli.main`` in this process, so
        the traced run can see the layers below the CLI."""
        return closed_loop({cmd[0]: ([cmd], self._in_process) for cmd in inp.script},
                           seconds, lambda: 1.0)

    @staticmethod
    def peak_rss_mib(inp: CliInputs) -> float:
        return inp.peak_rss_mib

    def expected(self, inp: CliInputs) -> dict:
        return {name: [(code, inp.expected[name])] for name, _, code in inp.script}

    def check(self, inp: CliInputs, phases: dict, expected: dict) -> tuple[int, int]:
        attempted = failed = 0
        for name, ph in phases.items():
            a, f = check_phase(ph, expected[name])
            attempted, failed = attempted + a, failed + f
        return attempted, failed

    def metrics(self, inp: CliInputs, phases: dict) -> dict:
        raw = [s for ph in phases.values() for s in ph.secs]
        scaled = [s for ph in phases.values() for s in ph.scaled()]
        rounds = min(len(ph.secs) for ph in phases.values())
        script = [sum(ph.secs[r] for ph in phases.values()) for r in range(rounds)]
        per_cmd = [pct(ph.scaled(), 50) for ph in phases.values()]
        return {
            "named": {
                "cli_cmd_s.p50": (pct(raw, 50), "s", len(raw)),
                "cli_script_s": (pct(script, 50), "s", len(script)),
            },
            "e2e": {
                # the mean command of the script: each command's median,
                # averaged; a median over commands of different lengths
                # jumps between them from run to run
                "op1_ms": (statistics.fmean(per_cmd) * 1e3, len(scaled)),
                "op2_ms": (sum(per_cmd) * 1e3, rounds),
                "throughput_per_s": (len(scaled) / sum(scaled), len(scaled)),
            },
            "sizes": {"script.commands": len(inp.script)},
        }

    @staticmethod
    def command_seconds(phases: dict) -> dict:
        """Median cold wall seconds per script command."""
        return {name: pct(ph.secs, 50) for name, ph in phases.items()}


WORKLOADS = {w.name: w for w in (MonteCarlo(), NodeOps(), CliCold())}
