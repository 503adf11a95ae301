"""The scalar inputs of every entry point: positive quantities, counts and
seeds, the coordinates of points, and cell ids.

Each kind has one reader in ``geometry``: ``_positive`` for r_t, a
circumradius, a sensing range and a battery capacity, ``_count`` for
node_count, n and k, ``_seed``, and ``as_point`` for one point, ``_floats``
for arrays of them; the CLI reads its config values with the same readers.
A value outside its kind raises ``ValueError`` with the entry point's
message, never ``TypeError`` and never a silently wrong result; numpy
scalars pass as Python numbers do.
"""

import math
import re

import numpy as np
import pytest

from topocell.cli import main
from topocell.geometry import (as_point, build_polyhedron, cell_spacing, cell_volume,
                               max_cell_radius)
from topocell.lattice import (LatticeSpec, as_cell_id, assign_cell, assign_cell_nearest_int,
                              assign_cell_oracle, assign_cells, assign_cells_nearest_int,
                              assign_cells_oracle, cell_center, cell_centers, neighbors)
from topocell.planner import verify_connectivity, verify_coverage
from topocell.routing import greedy_route, neighbor_choice_count
from topocell.simulator import Box, DeploymentConfig, accuracy_experiment, lifetime_simulation

SPEC = LatticeSpec("to", 1.0)
BOX = Box(lo=(0.0, 0.0, 0.0), hi=(3.0, 3.0, 3.0))
CONFIG = DeploymentConfig(BOX, 500, 1)

BAD = ["1", None, math.nan, math.inf, -math.inf, 0, -1, 1j, np.complex64(2 + 5j)]

# entry point: (call with the value, name of the value in the message)
POSITIVE = {
    "max_cell_radius": (lambda x: max_cell_radius("to", x), "transmission range"),
    "LatticeSpec": (lambda x: LatticeSpec("to", x), "transmission range"),
    "cell_spacing": (lambda x: cell_spacing("hp", x), "circumradius"),
    "cell_volume": (lambda x: cell_volume("to", x), "circumradius"),
    "build_polyhedron": (lambda x: build_polyhedron("to", (0.0, 0.0, 0.0), x), "circumradius"),
    "verify_connectivity": (lambda x: verify_connectivity(SPEC, x), "circumradius"),
    "verify_coverage": (lambda x: verify_coverage(SPEC, x), "sensing range"),
    "lifetime_simulation": (lambda x: lifetime_simulation(SPEC, CONFIG, x), "battery_capacity"),
}
COUNTS = {
    "lifetime_simulation": (lambda x: lifetime_simulation(SPEC, CONFIG, 4.0, x), "k"),
    "DeploymentConfig": (lambda x: DeploymentConfig(BOX, x, 1), "node_count"),
    "accuracy_experiment": (lambda x: accuracy_experiment(SPEC, x, 1), "n"),
}
SEEDS = {
    "greedy_route": lambda x: greedy_route(SPEC, (0, 0, 0), (3, 0, 0), tie_break="random",
                                           seed=x),
    "DeploymentConfig": lambda x: DeploymentConfig(BOX, 500, x),
    "accuracy_experiment": lambda x: accuracy_experiment(SPEC, 3, x),
}


def raises_exactly(call, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


# verify_connectivity reads None as the spec's own circumradius
@pytest.mark.parametrize("entry,value", [
    pytest.param(entry, value, id=f"{entry}-{value!r}") for entry in POSITIVE for value in BAD
    if (entry, value) != ("verify_connectivity", None)])
def test_positive_quantity_refused(entry, value):
    call, what = POSITIVE[entry]
    raises_exactly(call, value, f"{what} must be positive and finite")


@pytest.mark.parametrize("value", BAD, ids=repr)
@pytest.mark.parametrize("entry", COUNTS)
def test_count_refused(entry, value):
    call, what = COUNTS[entry]
    whole = isinstance(value, int)
    raises_exactly(call, value, f"{what} must be at least 1" if whole
                   else f"{what} must be an integer, got {value!r}")


@pytest.mark.parametrize("value,message", [
    (2 ** 64, "seed must fit an unsigned 64-bit integer"),
    (-1, "seed must fit an unsigned 64-bit integer"),
    (1.5, "seed must be an integer, got 1.5"),
    ("3", "seed must be an integer, got '3'"),
], ids=repr)
@pytest.mark.parametrize("entry", SEEDS)
def test_seed_refused(entry, value, message):
    raises_exactly(SEEDS[entry], value, message)


# a bool is an int to Python and a number to numpy, but no scalar reader's
# kind: True is not a radius of 1 m, a count of 1 or the seed 1
BOOLS = [True, False, np.True_, np.False_]


@pytest.mark.parametrize("value", BOOLS, ids=repr)
@pytest.mark.parametrize("entry", POSITIVE)
def test_positive_quantity_refuses_bools(entry, value):
    call, what = POSITIVE[entry]
    raises_exactly(call, value, f"{what} must be positive and finite")


@pytest.mark.parametrize("value", BOOLS, ids=repr)
@pytest.mark.parametrize("entry", COUNTS)
def test_count_refuses_bools(entry, value):
    call, what = COUNTS[entry]
    raises_exactly(call, value, f"{what} must be an integer, got {value!r}")


@pytest.mark.parametrize("value", BOOLS, ids=repr)
@pytest.mark.parametrize("entry", SEEDS)
def test_seed_refuses_bools(entry, value):
    raises_exactly(SEEDS[entry], value, f"seed must be an integer, got {value!r}")


@pytest.mark.parametrize("entry", POSITIVE)
def test_numpy_quantities_pass(entry):
    call, _ = POSITIVE[entry]
    assert repr(call(np.float64(2.0))) == repr(call(2.0))
    assert repr(call(np.int64(3))) == repr(call(3.0))


@pytest.mark.parametrize("entry", COUNTS)
def test_numpy_counts_pass(entry):
    call, _ = COUNTS[entry]
    assert repr(call(np.int64(3))) == repr(call(3))


@pytest.mark.parametrize("entry", SEEDS)
def test_numpy_seeds_pass(entry):
    assert repr(SEEDS[entry](np.int64(3))) == repr(SEEDS[entry](3))


# a bool among a point's coordinates is no coordinate either: (True, 0, 0)
# is not the point (1, 0, 0)
BOOL_POINTS = [(True, 0, 0), [0.5, np.False_, 1.0], (1.0, 2.0, np.array(True)),
               [True, True, False], np.array([True, False, True]), np.array([1, 0, 0]) == 1]
# entry point: (call with the point, name of the point in the message)
POINTS = {
    "as_point": (as_point, "point"),
    "assign_cell": (lambda p: assign_cell(SPEC, p), "point"),
    "assign_cell_nearest_int": (lambda p: assign_cell_nearest_int(SPEC, p), "point"),
    "assign_cell_oracle": (lambda p: assign_cell_oracle(SPEC, p), "point"),
    "LatticeSpec": (lambda p: LatticeSpec("to", 1.0, sink=p), "sink"),
    "Box": (lambda p: Box(lo=(-1.0, -1.0, -1.0), hi=p), "box corner hi"),
    "build_polyhedron": (lambda p: build_polyhedron("to", p, 1.0), "point"),
}
# the bulk entry points refuse arrays of bools, and one point with a bool
# among its coordinates, as the one-point readers do
ROWS = {
    "assign_cells": lambda p: assign_cells(SPEC, p),
    "assign_cells_nearest_int": lambda p: assign_cells_nearest_int(SPEC, p),
    "assign_cells_oracle": lambda p: assign_cells_oracle(SPEC, p),
    "Box.contains": BOX.contains,
}


@pytest.mark.parametrize("point", BOOL_POINTS, ids=repr)
@pytest.mark.parametrize("entry", POINTS)
def test_point_refuses_bools(entry, point):
    call, what = POINTS[entry]
    raises_exactly(call, point, f"{what} must be a 3D point of real numbers, got {point!r}")


@pytest.mark.parametrize("points", [np.ones((4, 3), dtype=bool), [[True, False, True]],
                                    np.array([True, False, True]), (True, 0, 0),
                                    [0.5, np.False_, 1.0], (1.0, 2.0, np.array(True)),
                                    # rows that numpy reads as numbers
                                    [[True, 0, 0]], [[1.0, 0, 0], [0, False, 0]],
                                    ((1.0, 2.0, 3.0), (np.True_, 0.0, 0.0)),
                                    [[1.0, np.array(False), 0.0]],
                                    [np.array([True, False, True]), [1.0, 2.0, 3.0]]],
                         ids=repr)
@pytest.mark.parametrize("entry", ROWS)
def test_rows_refuse_bools(entry, points):
    raises_exactly(ROWS[entry], points,
                   "coordinates must be real numbers, not complex numbers or bools")


# nor is a string: numpy would parse "1" as 1.0, in a tuple, as bytes, or
# as an object array's item; and an int too large for a float is no float,
# where numpy would raise OverflowError
TEXT_POINTS = [("1", "2", "3"), (b"1", 0, 0), np.array([1, "2", 3], dtype=object)]
HUGE_POINTS = [(10 ** 400, 0, 0), [0.5, -10 ** 400, 1], np.array([1, 0, 10 ** 400], dtype=object)]
HUGE_IDS = ["tuple", "list", "object array"]


@pytest.mark.parametrize("point", TEXT_POINTS, ids=repr)
@pytest.mark.parametrize("entry", POINTS)
def test_point_refuses_strings(entry, point):
    call, what = POINTS[entry]
    raises_exactly(call, point, f"{what} must be a 3D point of real numbers, got {point!r}")


@pytest.mark.parametrize("point", HUGE_POINTS, ids=HUGE_IDS)
@pytest.mark.parametrize("entry", POINTS)
def test_point_refuses_ints_too_large_for_a_float(entry, point):
    call, what = POINTS[entry]
    raises_exactly(call, point, f"{what} coordinates must be within the float range")


@pytest.mark.parametrize("points", [*TEXT_POINTS, [[1.0, 0, 0], ["1", 0, 0]],
                                    [[10 ** 400, "2", 3]], np.array([["1", "2", "3"]])],
                         ids=repr)
@pytest.mark.parametrize("entry", ROWS)
def test_rows_refuse_strings(entry, points):
    raises_exactly(ROWS[entry], points, "coordinates must be real numbers, not strings or bytes")


@pytest.mark.parametrize("points", [*HUGE_POINTS, [[1.0, 0, 0], [0, 0, -10 ** 400]]],
                         ids=[*HUGE_IDS, "rows"])
@pytest.mark.parametrize("entry", ROWS)
def test_rows_refuse_ints_too_large_for_a_float(entry, points):
    raises_exactly(ROWS[entry], points, "coordinates must be within the float range")


# nor is an item that numpy cannot make a float: it raises ValueError, where
# numpy's float() would raise TypeError
OBJECT_ROWS = [[[{}, 0, 0]], {"x": 0}, [[1.0, 0, 0], [0, set(), 0]],
               np.array([[1.0, {}, 0]], dtype=object),
               # an object array's item that is a sequence
               np.array([[1.0, [2.0, 3.0], 0]], dtype=object),
               np.array([0.5, 1.0, (2, 3)], dtype=object)]


@pytest.mark.parametrize("points", OBJECT_ROWS, ids=repr)
@pytest.mark.parametrize("entry", ROWS)
def test_rows_refuse_items_that_are_no_numbers(entry, points):
    raises_exactly(ROWS[entry], points, "coordinates must be real numbers")


# nor are ragged rows, which numpy cannot make one array of: the bulk
# readers say so in their own words, not numpy's "inhomogeneous shape", and
# the one-point readers name the point
RAGGED_ROWS = [[[[1, 2], 0, 0]], [[1.0, 2.0, 3.0], [1.0, 2.0]], [[1, 2, 3], [1, 2, [3, 4]]],
               [(1, 2, 3), np.array([1, 2])], [[1, 2, 3], [[1, 2, 3]]], [1.0, 2.0, [3.0]]]


@pytest.mark.parametrize("points", RAGGED_ROWS, ids=repr)
@pytest.mark.parametrize("entry", ROWS)
def test_rows_refuse_ragged_rows(entry, points):
    raises_exactly(ROWS[entry], points, "expected points of shape (n, 3), got ragged rows")


@pytest.mark.parametrize("point", [RAGGED_ROWS[0], RAGGED_ROWS[-1], OBJECT_ROWS[-1]], ids=repr)
@pytest.mark.parametrize("entry", POINTS)
def test_point_refuses_ragged_rows(entry, point):
    call, what = POINTS[entry]
    raises_exactly(call, point, f"{what} must be a 3D point of real numbers, got {point!r}")


# Box.contains refuses a coordinate that is not finite, as as_point does,
# rather than answer False; None is NaN to numpy
@pytest.mark.parametrize("points", [(None, 0.5, 0.5), [[0.5, 0.5, 0.5], [math.nan, 0.5, 0.5]],
                                    [[0.5, math.inf, 0.5]], np.array([[0.5, 0.5, -np.inf]]),
                                    [[0.5, 0.5, None]]], ids=repr)
def test_box_contains_refuses_non_finite(points):
    raises_exactly(BOX.contains, points, "point coordinates must be finite")


@pytest.mark.parametrize("entry", ROWS)
def test_rows_of_ints_pass(entry):
    # ints, numpy's among them, in lists, tuples and rows of arrays are numbers
    want = ROWS[entry](np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 1.0]]))
    for points in [[[1, 0, 2], [0, 3, 1]], ((np.int64(1), 0.0, 2), (0, 3.0, 1)),
                   [np.array([1, 0, 2]), [0, 3, np.int32(1)]]]:
        assert repr(ROWS[entry](points)) == repr(want)


@pytest.mark.parametrize("entry", POINTS)
def test_points_of_ints_pass(entry):
    call, _ = POINTS[entry]
    for point in [(1, 0, 2), [np.int64(1), 0.0, 2], np.array([1, 0, 2])]:
        assert repr(call(point)) == repr(call((1.0, 0.0, 2.0)))


# nor is a bool a coordinate of a cell id: (True, 0, 0) is not the cell
# (1, 0, 0), whether one id's reader gets it or numpy reads it among ints
BOOL_IDS = [(True, 0, 0), [0, np.False_, 1], (1, 2, np.True_)]
# entry point: (call with the id, name of the id in the message)
IDS = {
    "as_cell_id": (as_cell_id, "cell id"),
    "cell_center": (lambda c: cell_center(SPEC, c), "cell id"),
    "neighbors": (lambda c: neighbors(SPEC, c), "cell id"),
    "greedy_route source": (lambda c: greedy_route(SPEC, c, (2, 0, 0)), "source cell id"),
    "greedy_route destination": (lambda c: greedy_route(SPEC, (0, 0, 0), c),
                                 "destination cell id"),
    "neighbor_choice_count": (lambda c: neighbor_choice_count(SPEC, c, (2, 0, 0)),
                              "current cell id"),
}


@pytest.mark.parametrize("cid", BOOL_IDS, ids=repr)
@pytest.mark.parametrize("entry", IDS)
def test_cell_id_refuses_bools(entry, cid):
    call, what = IDS[entry]
    raises_exactly(call, cid, f"{what} must be three integers, got {cid!r}")


@pytest.mark.parametrize("ids", [[[True, 5, 0]], [[np.True_, 5, 0]], [[1, 5, 0], (0, 0, False)],
                                 [np.array([1, 5, 0]), [0, np.False_, 0]],
                                 [[[1, 5, 0], [0, 0, True]]], np.ones((2, 3), dtype=bool)],
                         ids=repr)
def test_cell_ids_refuse_bools(ids):
    raises_exactly(lambda c: cell_centers(SPEC, c), ids,
                   "cell ids must be integers, got an array of bool")


def test_cell_ids_of_ints_pass():
    want = cell_centers(SPEC, np.array([[1, 5, 0], [0, 0, 1]]))
    for ids in [[[1, 5, 0], [0, 0, 1]], ((np.int64(1), 5, 0), (0, 0, np.int32(1))),
                [np.array([1, 5, 0]), [0, 0, 1]]]:
        assert repr(cell_centers(SPEC, ids)) == repr(want)
    for cid in [(1, 5, 0), [np.int64(1), 5, np.uint8(0)], np.array([1, 5, 0])]:
        assert repr(cell_center(SPEC, cid)) == repr(want[0])


def test_underflowing_radius_keeps_the_step_message():
    # r_t = 5e-324 gives R = 0: the spec refuses its lattice step, as the
    # CLI's exit 3 for specs outside the magnitudes documents
    with pytest.raises(ValueError, match=r"^the lattice step \(0 m\) must be at least 2\^-500"):
        LatticeSpec("to", 5e-324)


class TestRouteSeed:
    ARGS = ["route", "--shape", "to", "--rt", "1", "--src", "0,0,0", "--dst", "3,0,0",
            "--tie-break", "random", "--format", "csv"]

    @pytest.mark.parametrize("flag", ["--seed=18446744073709551616", "--seed=-1"])
    def test_seed_outside_u64_is_invalid_parameter(self, flag, capsys):
        assert main([*self.ARGS, flag]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "error: seed must fit an unsigned 64-bit integer\n"

    def test_seed_bounds_route(self, capsys):
        for seed in ("0", str(2 ** 64 - 1)):
            assert main([*self.ARGS, "--seed", seed]) == 0
        assert capsys.readouterr().out.count("delivered") > 0

    def test_no_seed_routes(self, capsys):
        # fresh OS entropy: any greedy route to (3, 0, 0) delivers
        assert main(self.ARGS) == 0
        assert capsys.readouterr().out.endswith(",delivered\n")
