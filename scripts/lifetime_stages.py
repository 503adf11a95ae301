"""Time the stages of one lifetime run, per 8,192-row block, per shape.

    python scripts/lifetime_stages.py [--nodes N] [--rounds R]

runs ``lifetime_simulation`` on montecarlo's deployment (the box of side
1.5 r_t around (0.0317, -0.7411, 0.2293), r_t 1 m, the sink at the origin,
about 1,200 nodes per TO cell, 71,111 nodes, seed ``SEED``) R times per
shape (default 50), each round running every shape in turn, so that a
burst of load on the host spoils one round rather than every sample of a
shape. For each shape it prints the microseconds one full block of
``_CHUNK`` nodes spends in each stage, the mean over the run's full
blocks, best of the R rounds, and then the whole call, twice:

* ``draw``: the deployment's uniform doubles (``simulator._deployment``)
  of a fresh deployment, with no draw kept from before: the one whole
  draw, and the generator's seeding, spread over the run's rows, per
  ``_CHUNK`` rows;
* ``prologue``: from the draw to the decoder's call, what the run forms
  from the draw for the decoder;
* ``points``: the decoder's lattice points (``simulator._lattice_points``),
  with the exact tie step of the rows it flags;
* ``slots``: from the decoder's return to the next block, each node's
  slot, one product of its lattice point with the strides of a count grid
  that holds every node, and its count;
* ``call_fresh``: one whole ``lifetime_simulation`` call, unwrapped, best
  of the R rounds, on a fresh deployment, which draws: beside the blocks'
  stages it shows the fixed cost of a call, its checks, grid and buffers,
  and the part block that ends most runs;
* ``call_kept``: the same call once more, which reads the kept draw, as
  the other shapes of one deployment do; a run of more than
  ``simulator._KEPT_ROWS`` nodes keeps nothing and draws again.

The stages are timed at the calls that bound them, by wrapping those two
functions of the ``simulator`` module, so the run itself is the library's;
the whole calls are timed with them unwrapped.
The script times the ``topocell`` of its own checkout (``src`` beside
``scripts``), so running it in two trees compares them; the ``N`` option
is there for the smoke test's tiny runs.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from topocell import CellShape, LatticeSpec, lattice, simulator  # noqa: E402
from topocell.planner import cell_volume_coeff  # noqa: E402

CENTER = (0.0317, -0.7411, 0.2293)
SIDE = 1.5
SEED = 0  # of the deployment
STAGES = ("draw", "prologue", "points", "slots")
COLUMNS = (*STAGES, "call_fresh", "call_kept")


class Stages:
    """Per-stage seconds of the lifetime runs it wraps: the draw over every
    row, the other stages over the full blocks."""

    def __init__(self):
        self.total = dict.fromkeys(STAGES, 0.0)
        self.blocks = 0
        self.marks = {}  # the latest clock readings: asked, drawn, decoded
        self.full = False  # whether the block in the run is a full one
        self.draws, self.points = simulator._deployment, simulator._lattice_points

    def deployment(self, seed, n, rows):
        clock = time.perf_counter
        self.marks["asked"] = clock()
        for u in self.draws(seed, n, rows):
            drawn = clock()
            self.total["draw"] += drawn - self.marks["asked"]
            self.full = len(u) == lattice._CHUNK
            self.marks["drawn"] = clock()
            yield u
            self.marks["asked"] = asked = clock()
            if self.full:
                self.total["slots"] += asked - self.marks["decoded"]
                self.blocks += 1

    def lattice_points(self, *args):
        clock = time.perf_counter
        start = clock()
        y = self.points(*args)
        self.marks["decoded"] = end = clock()
        if self.full:
            self.total["prologue"] += start - self.marks["drawn"]
            self.total["points"] += end - start
        return y

    def run(self, spec, config) -> dict:
        """Mean microseconds per full block of each stage of one run of a
        fresh deployment, the draw per ``_CHUNK`` of its rows."""
        self.total, self.blocks, self.marks = dict.fromkeys(STAGES, 0.0), 0, {}
        simulator._kept.clear()
        simulator._deployment, simulator._lattice_points = self.deployment, self.lattice_points
        try:
            simulator.lifetime_simulation(spec, config, 8.0)
        finally:
            simulator._deployment, simulator._lattice_points = self.draws, self.points
        per_block = {stage: secs / self.blocks * 1e6 for stage, secs in self.total.items()}
        per_block["draw"] = self.total["draw"] / config.node_count * lattice._CHUNK * 1e6
        return per_block


def call_us(spec, config) -> float:
    """Microseconds of one unwrapped ``lifetime_simulation`` call."""
    start = time.perf_counter()
    simulator.lifetime_simulation(spec, config, 8.0)
    return (time.perf_counter() - start) * 1e6


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    box = simulator.Box(lo=[c - SIDE / 2 for c in CENTER], hi=[c + SIDE / 2 for c in CENTER])
    parser.add_argument("--nodes", type=int, help="nodes per deployment (at least one block)",
                        default=round(1200 * box.volume / cell_volume_coeff(CellShape.TO)))
    parser.add_argument("--rounds", type=int, default=50, help="timed runs per shape")
    args = parser.parse_args(argv)
    if args.nodes < lattice._CHUNK:
        parser.error(f"--nodes must be at least one block, {lattice._CHUNK}")
    config = simulator.DeploymentConfig(box, args.nodes, SEED)
    stages = Stages()
    best = {shape: dict.fromkeys(COLUMNS, float("inf")) for shape in CellShape}
    for _ in range(args.rounds):
        for shape in CellShape:
            spec = LatticeSpec(shape, 1.0)
            got = stages.run(spec, config)
            simulator._kept.clear()
            got["call_fresh"] = call_us(spec, config)
            got["call_kept"] = call_us(spec, config)
            for column, us in got.items():
                best[shape][column] = min(best[shape][column], us)
    print(f"{'shape':<6}" + "".join(f" {column + '_us':>13}" for column in COLUMNS))
    for shape in CellShape:
        print(f"{shape.value:<6}" + "".join(f" {best[shape][c]:>13.1f}" for c in COLUMNS))


if __name__ == "__main__":
    main(sys.argv[1:])
