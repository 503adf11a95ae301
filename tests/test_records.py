"""The record classes: read-only fields, reprs, comparison, pickling and
copying.

Records with no validation are ``typing.NamedTuple``s. ``Polyhedron``, which
holds arrays, and ``LatticeSpec``, ``Box`` and ``DeploymentConfig``, which
validate their fields, are slots classes that refuse assignment.
"""

import copy
import pickle

import numpy as np
import pytest

from topocell.geometry import CellShape, build_polyhedron, neighbor_classes
from topocell.lattice import LatticeSpec, assign_cell_oracle
from topocell.planner import REFERENCE_RADIUS, shape_report, verify_connectivity
from topocell.routing import greedy_route
from topocell.simulator import (
    Box,
    DeploymentConfig,
    accuracy_experiment,
    lifetime_simulation,
)


def make_records() -> dict:
    """One record of each class, by class name."""
    spec = LatticeSpec("to", 1.0, sink=(0.5, -1.0, 2.0))
    box = Box((0.0, 0.0, 0.0), (2.0, 2.0, 2.0))
    config = DeploymentConfig(box, 3000, 5)
    return {
        "Polyhedron": build_polyhedron("to", (0.0, 0.0, 0.0), 1.0),
        "NeighborClass": neighbor_classes("to")[0],
        "Reference": REFERENCE_RADIUS[CellShape.HP],
        "ShapeReport": shape_report("to"),
        "ConnectivityReport": verify_connectivity(spec),
        "RoutePath": greedy_route(spec, (0, 0, 0), (2, 0, 1)),
        "AccuracyReport": accuracy_experiment(spec, 100, 1),
        "SimResult": lifetime_simulation(LatticeSpec("to", 1.0), config, 4.0),
        "LatticeSpec": spec,
        "Box": box,
        "DeploymentConfig": config,
    }


RECORDS = make_records()
# the fields each record's repr shows, in order
FIELDS = {
    "Polyhedron": ("shape", "center", "circumradius", "vertices"),
    "NeighborClass": ("shape", "label", "offset_generators", "max_pair_distance_coeff"),
    "Reference": ("value", "decimals"),
    "ShapeReport": ("shape", "neighbor_count", "max_radius_coeff", "max_radius_expr",
                    "min_sensing_coeff", "cell_volume_coeff", "cell_volume_expr",
                    "active_node_ratio_vs_to", "active_node_ratio_expr",
                    "lifetime_fraction_vs_to"),
    "ConnectivityReport": ("max_neighbor_distance", "ok", "binding_class", "per_class"),
    "RoutePath": ("hops", "outcome"),
    "AccuracyReport": ("n", "correct_exact", "correct_nearest_int"),
    "SimResult": ("shape", "cells_populated", "mean_nodes_per_cell", "network_lifetime"),
    "LatticeSpec": ("shape", "r_t", "sink"),
    "Box": ("lo", "hi"),
    "DeploymentConfig": ("box", "node_count", "seed"),
}


def same(a, b) -> bool:
    """Equality by value: arrays elementwise, records field by field."""
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if type(a).__name__ in FIELDS:
        return type(a) is type(b) and all(same(getattr(a, f), getattr(b, f))
                                          for f in FIELDS[type(a).__name__])
    return a == b


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestEveryRecord:
    def test_is_the_named_class(self, name):
        assert type(RECORDS[name]).__name__ == name

    def test_fields_are_read_only(self, name):
        record = RECORDS[name]
        for field in FIELDS[name]:
            old = getattr(record, field)
            with pytest.raises(AttributeError):
                setattr(record, field, old)
            with pytest.raises(AttributeError):
                delattr(record, field)
            assert getattr(record, field) is old
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_repr_names_the_fields(self, name):
        record = RECORDS[name]
        text = repr(record)
        assert text.startswith(f"{name}({FIELDS[name][0]}=") and text.endswith(")")
        positions = [text.index(f"{field}=") for field in FIELDS[name]]
        assert positions == sorted(positions)


class TestCopiesAndComparison:
    @pytest.mark.parametrize("name", ["LatticeSpec", "Box", "DeploymentConfig", "SimResult"])
    def test_pickle_and_copy_round_trip(self, name):
        record = RECORDS[name]
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                     copy.deepcopy(record)):
            assert same(twin, record)

    def test_spec_copy_derives_the_same_rule(self):
        spec = RECORDS["LatticeSpec"]
        twin = pickle.loads(pickle.dumps(spec))
        assert (twin.circumradius, twin.step, twin.rule) == (spec.circumradius, spec.step,
                                                              spec.rule)
        assert assign_cell_oracle(twin, (0.9, -0.6, 2.4)) == assign_cell_oracle(
            spec, (0.9, -0.6, 2.4))

    @pytest.mark.parametrize("make", [
        lambda: LatticeSpec("to", 1.0),
        lambda: Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
    ], ids=["LatticeSpec", "Box"])
    def test_compared_and_hashed_by_identity(self, make):
        # the oracle's table cache is keyed by the spec object
        a, b = make(), make()
        assert a == a and a != b and len({a, b, a}) == 2
        assert copy.copy(a) != a

    def test_deployment_config_compared_by_value(self):
        box = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        a, b = DeploymentConfig(box, 10, 1), DeploymentConfig(box, 10, 1)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != DeploymentConfig(box, 10, 2)
        assert a != DeploymentConfig(Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), 10, 1)
        # a config is equal to no other kind of value, not even its own fields
        for other in [(box, 10, 1), box, None]:
            assert not a == other and a != other

    def test_validation_runs_on_keywords_and_defaults(self):
        spec = LatticeSpec(shape="cb", r_t=2)
        assert spec.shape is CellShape.CB and spec.r_t == 2.0 and spec.sink == (0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="positive volume"):
            Box(lo=(0.0, 0.0, 0.0), hi=(1.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="node_count must be at least 1"):
            DeploymentConfig(box=RECORDS["Box"], node_count=0, seed=1)


class TestTuples:
    def test_neighbor_class_count_is_its_size(self):
        for shape in CellShape:
            for cls in neighbor_classes(shape):
                assert cls.count == len(cls.offset_generators) > 1

    def test_records_are_tuples_of_their_fields(self):
        report = RECORDS["AccuracyReport"]
        n, exact, nearest = report
        assert (n, exact, nearest) == (report.n, report.correct_exact,
                                       report.correct_nearest_int)
        assert report.fraction_exact == exact / n
        assert RECORDS["RoutePath"].hop_count == len(RECORDS["RoutePath"].hops) - 1
        assert RECORDS["Reference"].gate(1e-9) == 0.5e-5 + 1e-12
