"""``scripts/sensor_us.py`` prints every figure it names, each above 0: a
timing that goes missing or reads 0 would otherwise pass unseen."""

import importlib.util
from pathlib import Path

from topocell import CellShape

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "sensor_us.py"
spec = importlib.util.spec_from_file_location("sensor_us", SCRIPT)
sensor_us = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sensor_us)


def test_prints_every_figure_above_zero(capsys):
    sensor_us.main(["--points", "8", "--repeat", "1"])
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == ["shape", "random_us", "vertex_us", "ulp_us"]
    rows = [line.split() for line in lines]
    assert [row[0] for row in rows] == [shape.value for shape in CellShape]
    for row in rows:
        assert len(row) == 4 and all(float(x) > 0 for x in row[1:]), row


def test_point_sets():
    # the random set has the size asked for, and the ulp set holds each
    # vertex moved on every axis, once up and once down
    lattice_spec = sensor_us.LatticeSpec("hp", sensor_us.R_T, sink=sensor_us.SINK)
    sets = sensor_us.point_sets(lattice_spec, 5, 0)
    verts, ulp = sets["vertex"], sets["ulp"]
    assert sets["random"].shape == (5, 3) and len(ulp) == 2 * len(verts) > 0
    assert (ulp[:len(verts)] > verts).all() and (ulp[len(verts):] < verts).all()
