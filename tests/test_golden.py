"""Golden digests: one sha256 per category of the library's outputs on fixed,
seeded inputs, checked against ``golden.json``.

Ids are defined exactly: each point gets the center nearest to it in exact
arithmetic, and ties go to the smallest (u, v, w). Every input comes from
PCG64 doubles and elementwise IEEE operations, so a digest does not depend
on the host. The id categories check the decoders against the oracle in the
same pass, and the route category ``greedy_route`` against a plain router,
so a digest never pins an answer that nothing checked. A digest may change
only with a CHANGES.md entry that names the category, says why its values
change, and shows that the new values were checked against the oracle.

``python tests/test_golden.py`` prints this checkout's digests in the
format of ``golden.json``.
"""

import contextlib
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from topocell import cli
from topocell.geometry import _VERTICES, CellShape
from topocell.lattice import (
    MAX_STEPS,
    LatticeSpec,
    assign_cell,
    assign_cells,
    assign_cells_nearest_int,
    assign_cells_oracle,
    cell_centers,
    neighbors,
)
from topocell.routing import greedy_route
from topocell.simulator import (
    Box,
    DeploymentConfig,
    EmptyRegionError,
    accuracy_experiment,
    active_count,
    lifetime_simulation,
)

GOLDEN = Path(__file__).with_name("golden.json")

# (r_t, sink) per shape, the last an Earth-centred sink, where p - sink and
# the centers round
SPECS = [LatticeSpec(shape, r_t, sink) for shape in CellShape
         for r_t, sink in [(0.8, (0.0, 0.0, 0.0)), (3.7, (1.25, -0.4, 2.83)),
                           (17.0, (-40.0, 12.5, 7.125)), (0.1, (4.2e6, 1.2e6, 4.7e6))]]

# the ids of a small block, whose centers, neighbor midpoints and vertices,
# and the one-ulp neighbors of the last two, make the tie set; HP's odd and
# negative rows are among them
BLOCK = np.array([(u, v, w) for u in (-1, 0, 1) for v in (-1, 0, 1, 2) for w in (0, 1)])


def digest(parts) -> str:
    """sha256 of a sequence of arrays, as little-endian bytes with their dtype
    and shape, and of other values, by their repr."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str[1:]}{part.shape}".encode())
            h.update(np.ascontiguousarray(part, part.dtype.newbyteorder("<")).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def extents(spec):
    """Half-widths of the cell's bounding box: max |x_i| scale_i / L over
    the integer vertex rows (x, y, z, L)."""
    rows = _VERTICES[spec.shape]
    return [max(abs(row[i]) for row in rows) * k / rows[0][3]
            for i, k in enumerate(spec.rule.scale)]


def tie_points(spec, centers):
    """The midpoints between the cells of ``BLOCK``, at ``centers``, and their
    first-tier neighbors, and the cells' vertices, each center plus the
    integer vertex rows scaled; without repeats. Where the floats make two
    centers exactly equidistant, the smallest id must win."""
    rows = np.array(_VERTICES[spec.shape], dtype=float)
    local = rows[:, :3] * spec.rule.scale / rows[:, 3:]
    mids = [(c + cell_centers(spec, np.array(neighbors(spec, tuple(b))))) / 2.0
            for c, b in zip(centers, BLOCK.tolist())]
    return np.unique(np.vstack([*mids, (centers[:, None, :] + local).reshape(-1, 3)]), axis=0)


def cell_center_digest():
    rng = np.random.default_rng(5)
    edge = MAX_STEPS + 2
    parts = []
    for spec in SPECS:
        ids = np.vstack([BLOCK, rng.integers(-edge, edge + 1, (5000, 3))])
        parts.append(cell_centers(spec, ids))
    return digest(parts)


def id_digests():
    """Digests of the four assigners on random points and the tie set of
    each spec; the decoders agree with the oracle on every point."""
    rng = np.random.default_rng(6)
    found = {"assign_cells": [], "assign_cells_oracle": [], "assign_cell": [],
             "assign_cells_nearest_int": []}
    for spec in SPECS:
        centers = cell_centers(spec, BLOCK)
        ties = tie_points(spec, centers)
        pts = np.vstack([spec.sink + rng.uniform(-3.0, 3.0, (2000, 3)) * spec.r_t, centers,
                         ties, np.nextafter(ties, math.inf), np.nextafter(ties, -math.inf)])
        ids = assign_cells(spec, pts)
        truth = assign_cells_oracle(spec, pts, 3)
        assert (ids == truth).all(), spec
        assert (ids[2000:2000 + len(BLOCK)] == BLOCK).all(), spec
        single = [tuple(assign_cell(spec, p)) for p in pts[::7]]
        assert single == list(map(tuple, ids[::7].tolist())), spec
        found["assign_cells"].append(ids)
        found["assign_cells_oracle"].append(truth)
        found["assign_cell"].append(single)
        if spec.shape is CellShape.TO:
            found["assign_cells_nearest_int"].append(assign_cells_nearest_int(spec, pts))
    return {name: digest(parts) for name, parts in found.items()}


def boundary_boxes(spec, rng, count=3):
    """Deployments in boxes whose interior limits, lo + e and hi - e, pass
    through a center coordinate sink + y * scale, or one ulp beside it."""
    for _ in range(count):
        corners = []
        for sink, scale, e in zip(spec.sink, spec.rule.scale, extents(spec)):
            y0 = int(rng.integers(-3, 3))
            pair = []
            for y, sign in ((y0, 1.0), (y0 + int(rng.integers(1, 4)), -1.0)):
                limit, k = sink + y * scale, int(rng.integers(-1, 2))
                if k:
                    limit = float(np.nextafter(limit, k * math.inf))
                x = limit - sign * e
                for _ in range(8):  # the corner whose limit, as floats compute it, is this one
                    got = x + sign * e
                    if got == limit:
                        break
                    x = float(np.nextafter(x, math.inf if got < limit else -math.inf))
                pair.append(x)
            corners.append(pair)
        box = Box(*zip(*corners))
        yield DeploymentConfig(box, int(25 * box.volume / spec.r_t ** 3 * 20) + 20,
                               int(rng.integers(2 ** 32)))


def lifetime_digest():
    rng = np.random.default_rng(8)
    found = []
    for spec in SPECS[::4] + SPECS[1::4] + SPECS[3::4]:
        for cfg in boundary_boxes(spec, rng):
            try:
                res = lifetime_simulation(spec, cfg, 3.0, 1)
            except EmptyRegionError:
                found.append("empty")
            else:
                found.append((res.shape.value, *res[1:]))
    return digest(found)


def accuracy_digest():
    spec = LatticeSpec(CellShape.TO, 1.0)
    return digest([tuple(accuracy_experiment(spec, 20_000, seed)) for seed in (7, 11)])


def active_count_digest():
    rng = np.random.default_rng(9)
    found = []
    for spec in SPECS:
        for _ in range(20):
            lo = spec.sink + rng.uniform(-4.0, 2.0, 3) * spec.r_t
            found.append(active_count(spec, Box(lo, lo + rng.uniform(0.1, 4.0, 3) * spec.r_t)))
    return digest(found)


def plain_route(spec, src, dst, dead):
    """The lex greedy route from ``src`` to ``dst`` with the cells ``dead``
    dead, as (hops, outcome): at each hop the alive neighbor of
    ``neighbors`` with the smallest (squared id distance to dst, id), if it
    is closer to dst than the current cell."""
    def metric(cell):
        return sum((a - b) ** 2 for a, b in zip(cell, dst))

    hops = [src]
    while hops[-1] != dst:
        best = min(((metric(n), tuple(n)) for n in neighbors(spec, hops[-1])
                    if tuple(n) not in dead), default=None)
        if best is None or best[0] >= metric(hops[-1]):
            return hops, "dead_end"
        hops.append(best[1])
    return hops, "delivered"


def greedy_route_digest():
    """Lex routes on every shape between seeded endpoints, around a seeded
    set of dead cells, about half of the ids within 4 of zero; each route
    is checked against ``plain_route``, and on every shape both outcomes
    occur."""
    rng = np.random.default_rng(10)
    found = []
    for spec in SPECS[::4]:  # routes depend on the shape alone
        dead = set(map(tuple, rng.integers(-4, 5, (500, 3)).tolist()))
        for src, dst in rng.integers(-8, 9, (80, 2, 3)).tolist():
            src, dst = tuple(src), tuple(dst)
            if src in dead or dst in dead:
                continue
            route = greedy_route(spec, src, dst, alive=lambda c: tuple(c) not in dead)
            hops = [tuple(h) for h in route.hops]
            assert (hops, route.outcome) == plain_route(spec, src, dst, dead), (spec, src, dst)
            found.append((spec.shape.value, hops, route.outcome))
    assert {(shape, outcome) for shape, _, outcome in found} == {
        (shape.value, outcome) for shape in CellShape for outcome in ("delivered", "dead_end")}
    return digest(found)


def tables_digest():
    found = []
    for which in ("I", "II"):
        for fmt in ("pretty", "csv", "json"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                found.append(cli.main(["tables", which, "--format", fmt]))
            found.append(out.getvalue())
    return digest(found)


def digests() -> dict:
    return {"cell_centers": cell_center_digest(), **id_digests(),
            "lifetime_simulation": lifetime_digest(), "accuracy_experiment": accuracy_digest(),
            "active_count": active_count_digest(), "greedy_route": greedy_route_digest(),
            "tables": tables_digest()}


def test_digests_match_the_golden_file():
    want = json.loads(GOLDEN.read_text())
    got = digests()
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, indent=2, sort_keys=True)
    print()
