"""In-memory span recorder for the traced benchmark run.

The recorder wraps public topocell functions at the attribute where the
calling module looks them up (``topocell.simulator.assign_cells``,
``topocell.routing.neighbors``, the names ``topocell.cli`` imports, ...), so
no file of the program changes. Each call becomes one span: name, start,
end, parent span, the id of the top-level operation it belongs to, and two
tags (the lattice shape and a work count such as points or hops). Spans stay
in memory until the run ends.

Calls are synchronous and single-threaded, so child spans never overlap and
a span's self time is its duration minus the sum of its children's.
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int = 0
    shape: str | None = None
    count: int | None = None
    child_s: float = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


def _spec_shape(args) -> str | None:
    spec = args[0] if args else None
    shape = getattr(spec, "shape", None)
    return getattr(shape, "value", None)


def _point_count(args, result) -> int:
    return len(args[1])


def _hop_count(args, result) -> int:
    return result.hop_count


# (module, attribute, span name, work count). Several attributes may share a
# span name when different modules import the same function.
TARGETS = (
    ("topocell.simulator", "lifetime_simulation", "simulator.lifetime_simulation", None),
    ("topocell.simulator", "accuracy_experiment", "simulator.accuracy_experiment", None),
    ("topocell.simulator", "assign_cells", "lattice.assign_cells", _point_count),
    ("topocell.simulator", "cell_centers", "lattice.cell_centers", _point_count),
    ("topocell.simulator", "assign_cells_oracle", "lattice.assign_cells_oracle", _point_count),
    ("topocell.simulator", "assign_cells_nearest_int", "lattice.assign_cells_nearest_int",
     _point_count),
    ("topocell.simulator", "build_polyhedron", "geometry.build_polyhedron", None),
    ("topocell.geometry", "build_polyhedron", "geometry.build_polyhedron", None),
    ("topocell.planner", "build_polyhedron", "geometry.build_polyhedron", None),
    ("topocell.planner", "radius_table", "planner.radius_table", None),
    ("topocell.planner", "lifetime_table", "planner.lifetime_table", None),
    ("topocell.lattice", "assign_cell", "lattice.assign_cell", None),
    ("topocell.routing", "greedy_route", "routing.greedy_route", _hop_count),
    ("topocell.routing", "neighbors", "lattice.neighbors", None),
    ("topocell.cli", "main", "cli.main", None),
    ("topocell.cli", "assign_cell", "lattice.assign_cell", None),
    ("topocell.cli", "greedy_route", "routing.greedy_route", _hop_count),
    ("topocell.cli", "lifetime_simulation", "simulator.lifetime_simulation", None),
    ("topocell.cli", "accuracy_experiment", "simulator.accuracy_experiment", None),
)


class Tracer:
    """Records spans while installed; ``with tracer:`` installs the wrappers."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ops = 0
        self._saved = []

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if parent is None:
                self._ops += 1
            span = Span(name, 0.0, parent=parent, op=self._ops, shape=_spec_shape(args))
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.dur
            if count is not None:
                span.count = count(args, result)
            return result
        return traced

    def __enter__(self):
        for module_name, attr, name, count in self.targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:  # the program no longer has this binding
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, count))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def select(self, name, *, top=None, parent=None, shape=None):
        """Spans called ``name``; ``top=True`` keeps only top-level spans, and
        ``parent`` names the direct parent span."""
        out = []
        for s in self.spans:
            if s.name != name or (shape is not None and s.shape != shape):
                continue
            if top and s.parent is not None:
                continue
            if parent is not None and (s.parent is None or self.spans[s.parent].name != parent):
                continue
            out.append(s)
        return out

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "shape": s.shape,
                    "count": s.count, "self_s": s.self_s,
                }) + "\n")


def mean_s(spans, attr="dur") -> float:
    """Mean duration (or self time) of spans, 0.0 when there are none."""
    if not spans:
        return 0.0
    return sum(getattr(s, attr) for s in spans) / len(spans)


def seconds_per_unit(spans) -> float:
    """Total span time divided by the total work count the spans carry."""
    units = sum(s.count or 0 for s in spans)
    return sum(s.dur for s in spans) / units if units else 0.0


_IMPORTTIME = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per module from ``python -X importtime``."""
    out = {}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            out[m.group(2)] = int(m.group(1)) / 1e6
    return out
