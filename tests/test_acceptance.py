"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances follow the stated gates; where a gate compares a computed
constant against a reference value carrying fewer decimals than the gate can
resolve, the comparison widens to half an ulp of the printed precision
(e.g. 1/sqrt(14) = 0.2672612... against the 5-decimal print 0.26726).
"""

import json
import math
import subprocess
import sys
import time
from collections import deque

import numpy as np
import pytest

from topocell.geometry import (
    CellShape,
    build_polyhedron,
    max_cell_radius,
    max_vertex_pair_distance,
    neighbor_classes,
    worst_neighbor_coeff,
)
from topocell.lattice import (
    CellId,
    LatticeSpec,
    assign_cells,
    assign_cells_oracle,
    cell_center,
    cell_centers,
    neighbors,
)
from topocell.planner import (
    REFERENCE_ACTIVE_RATIO,
    REFERENCE_CLASS_COEFF,
    REFERENCE_LIFETIME,
    REFERENCE_RADIUS,
    REFERENCE_SENSING,
    active_node_ratio,
    lifetime_fraction,
    min_sensing_range,
)
from topocell.routing import DELIVERED, greedy_route
from topocell.simulator import (
    Box,
    DeploymentConfig,
    accuracy_experiment,
    active_count,
    lifetime_simulation,
)

SHAPES = (CellShape.CB, CellShape.HP, CellShape.RD, CellShape.TO)


def report(num, label, ok, measured=""):
    line = f"criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'}"
    print(f"{line}  {measured}" if measured else line)
    return ok


def brute_worst_coeff(shape):
    spec = LatticeSpec(shape, worst_neighbor_coeff(shape))  # R = 1
    base = build_polyhedron(shape, (0.0, 0.0, 0.0), 1.0)
    worst = 0.0
    for cls in neighbor_classes(shape):
        for off in cls.offset_generators:
            other = build_polyhedron(shape, cell_center(spec, off), 1.0)
            worst = max(worst, max_vertex_pair_distance(base, other))
    return worst


def test_criterion_1_radius_coefficients():
    t0 = time.time()
    ok = True
    coeffs = {}
    for shape in SHAPES:
        coeff = max_cell_radius(shape, 1.0)
        ref = REFERENCE_RADIUS[shape]
        ok &= abs(coeff - ref.value) <= ref.gate(1e-6)
        # closed form against exhaustive vertex-pair maximization
        brute = 1.0 / brute_worst_coeff(shape)
        ok &= abs(coeff - brute) <= 1e-9 * coeff
        coeffs[shape.value] = f"{coeff:.6f}"
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    measured = f"radius/r_t={coeffs}, elapsed={elapsed:.2f}s"
    assert report(1, "table I radii", ok, measured), measured


def test_criterion_2_neighbor_distances():
    t0 = time.time()
    ok = True
    worst_per_shape = {}
    for shape in SHAPES:
        spec = LatticeSpec(shape, worst_neighbor_coeff(shape))  # R = 1
        base = build_polyhedron(shape, (0.0, 0.0, 0.0), 1.0)
        for cls in neighbor_classes(shape):
            worst = 0.0
            for off in cls.offset_generators:
                other = build_polyhedron(shape, cell_center(spec, off), 1.0)
                worst = max(worst, max_vertex_pair_distance(base, other))
            ref = REFERENCE_CLASS_COEFF[(shape, cls.label)]
            ok &= abs(worst - ref.value) <= ref.gate(1e-6)
            ok &= abs(worst - cls.max_pair_distance_coeff) <= 1e-9
            worst_per_shape[shape.value] = max(worst, worst_per_shape.get(shape.value, 0.0))
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    shown = {k: f"{v:.6f}" for k, v in worst_per_shape.items()}
    measured = f"worst/R={shown}, elapsed={elapsed:.2f}s"
    assert report(2, "table I neighbor distances", ok, measured), measured


def test_criterion_3_sensing_ranges():
    ok = True
    for shape in SHAPES:
        coeff = min_sensing_range(shape, 1.0)
        ref = REFERENCE_SENSING[shape]
        ok &= abs(coeff - ref.value) <= ref.gate(1e-6)
    assert report(3, "sensing ranges", ok)


def test_criterion_4_table_ii():
    t0 = time.time()
    ok = True
    for shape in SHAPES:
        a_ref = REFERENCE_ACTIVE_RATIO[shape]
        l_ref = REFERENCE_LIFETIME[shape]
        ok &= abs(active_node_ratio(shape) - a_ref.value) <= a_ref.gate(1e-5)
        ok &= abs(lifetime_fraction(shape) - l_ref.value) <= l_ref.gate(1e-5)
    # lattice counting on a 30 r_t box reproduces the ratios within 2 percent
    lo = np.array([0.1234, 0.5678, 0.9012])
    box = Box(lo=lo, hi=lo + 30.0)
    counts = {shape: active_count(LatticeSpec(shape, 1.0), box) for shape in SHAPES}
    ratios = {}
    for shape in (CellShape.CB, CellShape.HP, CellShape.RD):
        ratio = counts[shape] / counts[CellShape.TO]
        ok &= abs(ratio - active_node_ratio(shape)) <= 0.02 * active_node_ratio(shape)
        ratios[shape.value] = f"{ratio:.4f}"
    elapsed = time.time() - t0
    ok &= elapsed < 5.0
    measured = f"count ratios to TO={ratios}, elapsed={elapsed:.2f}s"
    assert report(4, "table II ratios", ok, measured), measured


def test_criterion_5_exact_assignment_matches_oracle():
    t0 = time.time()
    mismatches = {}
    rng = np.random.default_rng(2024)
    for shape in SHAPES:
        spec = LatticeSpec(shape, 1.0, sink=(0.37, -0.21, 0.52))
        pts = spec.sink + rng.uniform(-5.0, 5.0, (100_000, 3))
        got = assign_cells(spec, pts)
        truth = assign_cells_oracle(spec, pts, window=3)
        mismatches[shape.value] = int((got != truth).any(axis=1).sum())
    elapsed = time.time() - t0
    ok = all(m == 0 for m in mismatches.values()) and elapsed < 10.0
    measured = f"mismatches={mismatches}, elapsed={elapsed:.2f}s"
    assert report(5, "constant-time assignment 100%", ok, measured), measured


def test_criterion_6_nearest_int_fraction():
    # Stated gate: fraction correct on TO over 1e5 points = 0.78 +/- 0.02.
    # The nearest-integer shortcut, as specified (round u, v, w of the real
    # solution independently), has an exact correct fraction of 5/8: it
    # succeeds precisely on the cell's intersection with the sheared unit
    # box of the id basis, whose volume is 2.5 of the cell's 4. The stated
    # 0.78 is therefore not reachable by this operation; see the decisions
    # ledger for the analysis. The criterion is asserted as written.
    t0 = time.time()
    spec = LatticeSpec(CellShape.TO, 1.0)
    rep = accuracy_experiment(spec, 100_000, seed=13)
    frac = rep.fraction_nearest_int
    elapsed = time.time() - t0
    ok = abs(frac - 0.78) <= 0.02 and elapsed < 10.0
    report(6, "nearest-integer fraction 0.78 +/- 0.02", ok,
           f"fraction={frac:.5f}, elapsed={elapsed:.2f}s")
    assert ok, (
        f"fraction={frac:.5f} (analytic value 5/8 = 0.625); the reference "
        f"78354/100000 is not reachable by the independent-rounding rule"
    )


def test_criterion_7_roundtrip():
    rng = np.random.default_rng(99)
    r = np.arange(-10, 11)
    ids = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
    failures = 0
    for shape in SHAPES:
        for _ in range(3):
            r_t = float(rng.uniform(0.5, 20.0))
            sink = rng.uniform(-10.0, 10.0, 3) * r_t
            spec = LatticeSpec(shape, r_t, sink=sink)
            back = assign_cells(spec, cell_centers(spec, ids))
            failures += int((back != ids).any(axis=1).sum())
    ok = failures == 0
    measured = f"failures={failures} of {len(ids) * len(SHAPES) * 3} ids"
    assert report(7, "center/assign roundtrip", ok, measured), measured


def test_criterion_8_lifetime_ratios():
    t0 = time.time()
    side = 1.5
    lo = np.array([0.0317, -0.7411, 0.2293]) - side / 2
    box = Box(lo=lo, hi=lo + side)
    # 1500 expected nodes per TO cell (the gate asks for at least 50)
    from topocell.planner import cell_volume_coeff
    n = round(1500 * box.volume / cell_volume_coeff(CellShape.TO))
    ratios = {"cb": [], "rd": []}
    for seed in range(10):
        cfg = DeploymentConfig(box=box, node_count=n, seed=seed)
        life = {
            shape: lifetime_simulation(LatticeSpec(shape, 1.0), cfg,
                                       battery_capacity=8.0, k=1).network_lifetime
            for shape in (CellShape.CB, CellShape.RD, CellShape.TO)
        }
        ratios["cb"].append(life[CellShape.CB] / life[CellShape.TO])
        ratios["rd"].append(life[CellShape.RD] / life[CellShape.TO])
    cb_mean = float(np.mean(ratios["cb"]))
    rd_mean = float(np.mean(ratios["rd"]))
    elapsed = time.time() - t0
    ok = (abs(cb_mean - 0.42154) <= 0.1 * 0.42154
          and abs(rd_mean - 0.5476) <= 0.1 * 0.5476
          and elapsed < 60.0)
    measured = f"cb={cb_mean:.4f}, rd={rd_mean:.4f}, elapsed={elapsed:.1f}s"
    assert report(8, "simulated lifetime ratios", ok, measured), measured


def test_criterion_9_routing_delivery():
    t0 = time.time()
    spec = LatticeSpec(CellShape.TO, 1.0)
    offsets = [(n.u, n.v, n.w) for n in neighbors(spec, (0, 0, 0))]

    # BFS distance field from the origin; the id graph is translation
    # invariant, so dist(src, dst) = field[dst - src]
    bound = 26
    size = 2 * bound + 1
    dist = -np.ones((size, size, size), dtype=np.int16)
    dist[bound, bound, bound] = 0
    dq = deque([(0, 0, 0)])
    while dq:
        u, v, w = dq.popleft()
        d0 = dist[u + bound, v + bound, w + bound]
        for du, dv, dw in offsets:
            x, y, z = u + du, v + dv, w + dw
            if abs(x) > bound or abs(y) > bound or abs(z) > bound:
                continue
            if dist[x + bound, y + bound, z + bound] < 0:
                dist[x + bound, y + bound, z + bound] = d0 + 1
                dq.append((x, y, z))

    rng = np.random.default_rng(123)
    pairs = rng.integers(-10, 11, (10_000, 6))
    ok = True
    hops = 0
    route_s = 0.0
    for row in pairs:
        src, dst = CellId(*map(int, row[:3])), CellId(*map(int, row[3:]))
        t1 = time.perf_counter()
        path = greedy_route(spec, src, dst)
        route_s += time.perf_counter() - t1
        hops += path.hop_count
        ok &= path.outcome == DELIVERED
        ms = [(h.u - dst.u) ** 2 + (h.v - dst.v) ** 2 + (h.w - dst.w) ** 2
              for h in path.hops]
        ok &= all(a > b for a, b in zip(ms, ms[1:]))
        d = dist[dst.u - src.u + bound, dst.v - src.v + bound, dst.w - src.w + bound]
        ok &= d >= 0 and path.hop_count >= d
        if not ok:
            break
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    measured = (f"hops={hops}, us_per_hop={route_s / max(hops, 1) * 1e6:.1f}, "
                f"elapsed={elapsed:.1f}s")
    assert report(9, "greedy routing delivery", ok, measured), measured


def test_criterion_10_cli_determinism(tmp_path):
    cfg = tmp_path / "acc.json"
    cfg.write_text(json.dumps({"shape": "to", "rt": 1.0, "n": 2000}))

    def run(args):
        proc = subprocess.run([sys.executable, "-m", "topocell", *args],
                              capture_output=True)
        return proc.returncode, proc.stdout

    commands = [
        ["tables", "I", "--format", "csv"],
        ["tables", "II", "--format", "json"],
        ["simulate", "accuracy", "--config", str(cfg), "--seed", "11",
         "--format", "csv"],
        ["route", "--shape", "to", "--rt", "1", "--src", "0,0,0",
         "--dst", "3,0,0", "--format", "json"],
    ]
    ok = True
    for args in commands:
        first = run(args)
        second = run(args)
        ok &= first == second and first[0] == 0
    assert report(10, "CLI byte determinism", ok)
