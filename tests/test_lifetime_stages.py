"""``scripts/lifetime_stages.py`` prints every stage figure it names and the
whole call's, each above 0: a timing that goes missing or reads 0 would
otherwise pass unseen."""

import importlib.util
from pathlib import Path

import pytest

from topocell import CellShape, lattice

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "lifetime_stages.py"
spec = importlib.util.spec_from_file_location("lifetime_stages", SCRIPT)
lifetime_stages = importlib.util.module_from_spec(spec)
spec.loader.exec_module(lifetime_stages)


def test_prints_every_figure_above_zero(capsys):
    lifetime_stages.main(["--nodes", str(lattice._CHUNK + 100), "--rounds", "1"])
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == ["shape", "draw_us", "prologue_us", "points_us", "slots_us",
                              "call_fresh_us", "call_kept_us"]
    rows = [line.split() for line in lines]
    assert [row[0] for row in rows] == [shape.value for shape in CellShape]
    for row in rows:
        assert len(row) == 7 and all(float(x) > 0 for x in row[1:]), row


def test_refuses_a_run_without_a_full_block():
    with pytest.raises(SystemExit):
        lifetime_stages.main(["--nodes", str(lattice._CHUNK - 1), "--rounds", "1"])


def test_unwraps_the_simulator():
    # the timed runs leave the simulator's functions as they found them
    before = (lifetime_stages.simulator._deployment,
              lifetime_stages.simulator._lattice_points)
    lifetime_stages.main(["--nodes", str(lattice._CHUNK), "--rounds", "1"])
    assert (lifetime_stages.simulator._deployment,
            lifetime_stages.simulator._lattice_points) == before
