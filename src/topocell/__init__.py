"""Topology control for dense 3D wireless sensor networks.

Partitions 3D space into space-filling cells (cube, hexagonal prism,
rhombic dodecahedron, truncated octahedron), assigns sensors to cells in
constant time from their coordinates, quantifies connectivity, coverage,
active-node counts and network lifetime per shape, and routes greedily
over cell ids.

``import topocell`` loads none of its submodules: each public name, and
each submodule, is imported on first access (PEP 562), so a program, and
each CLI command, loads only the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names of each submodule
_EXPORTS = {
    "geometry": """CellShape NeighborClass Polyhedron VERTEX_COUNTS NEIGHBOR_COUNTS
        build_polyhedron cell_volume max_cell_radius max_vertex_pair_distance
        neighbor_classes""",
    "lattice": """CellId LatticeSpec assign_cell assign_cell_nearest_int assign_cell_oracle
        assign_cells assign_cells_nearest_int assign_cells_oracle cell_center cell_centers
        neighbors""",
    "planner": """ConnectivityReport ShapeReport active_node_ratio all_reports
        cell_volume_coeff lifetime_fraction lifetime_table min_sensing_range radius_table
        shape_report verify_connectivity verify_coverage""",
    "routing": "DEAD_END DELIVERED RoutePath greedy_route neighbor_choice_count",
    "simulator": """AccuracyReport Box DeploymentConfig EmptyRegionError SimResult
        accuracy_experiment active_count deploy lifetime_simulation""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = ("cli", *_EXPORTS)

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
