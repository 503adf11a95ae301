"""Greedy cell-id routing over the lattice neighbor graph.

Active nodes address each other by cell id, so a packet can be forwarded
with integer arithmetic only: from the current cell, hand the packet to an
alive neighbor whose id is strictly closer to the destination id under the
squared id-space metric (ud-u)^2 + (vd-v)^2 + (wd-w)^2. The metric is a
nonnegative integer that shrinks every hop, so routes always terminate; if
no alive neighbor improves it before the destination is reached, the route
is a dead end (no recovery is attempted). Endpoints must be ids of the
supported domain, every coordinate within MAX_STEPS + 2 of zero, which also
bounds the length of any route: every hop lies within |src - dst| of dst.
Hops themselves are not checked against the domain, so a route between
endpoints near its edge may pass through ids just beyond it.

A hop is Python-int arithmetic on the neighbor rows of
``lattice._neighbor_rows``: each neighbor's metric is computed first, and
the ``alive`` predicate is evaluated only on the neighbors that make strict
progress, so it must be a side-effect-free membership test.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .geometry import _seed
from .lattice import CellId, LatticeSpec, _cell_id, _neighbor_rows, as_cell_id

DELIVERED = "delivered"
DEAD_END = "dead_end"


class RoutePath(NamedTuple):
    """Hop sequence from source to where forwarding stopped."""

    hops: list[CellId]
    outcome: str

    @property
    def hop_count(self) -> int:
        return len(self.hops) - 1


def _qualifying(spec: LatticeSpec, cur: CellId, dst: CellId,
                alive: Callable[[CellId], bool] | None) -> list[tuple[int, CellId]]:
    """(metric, id) of the alive neighbors of cur strictly closer to dst, in
    neighbor order; ``alive`` is asked only of the closer ones."""
    ud, vd, wd = dst
    bar = (ud - cur.u) ** 2 + (vd - cur.v) ** 2 + (wd - cur.w) ** 2
    found = []
    for row in _neighbor_rows(spec.shape, cur):
        u, v, w = row
        m = (ud - u) * (ud - u) + (vd - v) * (vd - v) + (wd - w) * (wd - w)
        if m < bar:
            nb = _cell_id(row)
            if alive is None or alive(nb):
                found.append((m, nb))
    return found


def greedy_route(spec: LatticeSpec, src, dst,
                 alive: Callable[[CellId], bool] | None = None,
                 tie_break: str = "lex", seed: int | None = None) -> RoutePath:
    """Forward greedily from src to dst over alive cells.

    ``alive`` is a side-effect-free membership predicate over cell ids
    (None means every cell is alive); it is evaluated on the endpoints and
    then only on neighbors that make strict progress. By default the
    forwarder takes the neighbor with the smallest metric, breaking ties by
    smallest (u, v, w) for reproducible routes; ``tie_break="random"``
    instead picks uniformly among all qualifying neighbors using the given
    seed, an integer that fits an unsigned 64-bit integer, or fresh OS
    entropy when it is None.
    """
    src = as_cell_id(src, "source cell id")
    dst = as_cell_id(dst, "destination cell id")
    if alive is not None and not alive(src):
        raise ValueError("source cell is not alive")
    if alive is not None and not alive(dst):
        raise ValueError("destination cell is not alive")
    if tie_break not in ("lex", "random"):
        raise ValueError("tie_break must be 'lex' or 'random'")
    rng = None
    if tie_break == "random":
        import numpy as np

        rng = np.random.default_rng(None if seed is None else _seed(seed))

    hops = [src]
    cur = src
    while cur != dst:
        options = _qualifying(spec, cur, dst, alive)
        if not options:
            return RoutePath(hops=hops, outcome=DEAD_END)
        if rng is not None:
            cur = options[int(rng.integers(len(options)))][1]
        else:
            cur = min(options)[1]
        hops.append(cur)
    return RoutePath(hops=hops, outcome=DELIVERED)


def neighbor_choice_count(spec: LatticeSpec, current, dst,
                          alive: Callable[[CellId], bool] | None = None) -> int:
    """How many alive neighbors make strict progress toward dst."""
    cur = as_cell_id(current, "current cell id")
    target = as_cell_id(dst, "destination cell id")
    return len(_qualifying(spec, cur, target, alive))
