"""Cycle-cancelling minimum-cost flow solver.

An intentionally independent second implementation, used by the fallback
ladder (:mod:`repro.service.solvers`), by
:func:`repro.verify.differential.cross_check` and by the differential
tests.  It first establishes *any* feasible flow of the requested value
(Edmonds-Karp augmentation, ignoring costs), then repeatedly finds a
negative-cost cycle in the residual network and cancels it, until no
negative cycle remains — the classic Klein algorithm.  It makes no
acyclicity assumption and shares no code with the SSP kernel
(:mod:`repro.flow.kernel`, :mod:`repro.flow.warm_start`,
:mod:`repro.flow.ssp`).

The residual network is kept as numpy columns over residual arc ids:
``2*i`` is the forward image of original arc ``i``, ``2*i + 1`` its
backward image and ``rid ^ 1`` always the partner.

**Negative-cycle search.**  Bellman-Ford from a virtual super node
(every distance starts at 0) runs as simultaneous (Jacobi) rounds: each
round relaxes every arc with ``cap > 0`` against the previous round's
distances, keeps the ``nd < dist[v] - EPS`` test, and lets one winning
arc per head through (least ``nd``, then least arc id).  After each
round the node → predecessor-tail graph is checked for a cycle by
pointer doubling; the search stops at the first round that closes one,
or reports optimality at the first round that relaxes nothing.

Any predecessor-graph cycle costs less than ``-EPS``, also under
simultaneous updates: the node on it updated last lowered its distance by
more than ``EPS`` after its cycle successor read it (proof in THEORY.md
§7).  While the predecessor graph stays acyclic every distance is bounded
below by its tree path's cost, so a residual with a negative cycle closes
a predecessor cycle after finitely many rounds.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from repro.exceptions import GraphError, InfeasibleFlowError
from repro.flow.graph import FlowNetwork, FlowResult
from repro.flow.tolerances import EPS as _EPS
from repro.obs import trace as obs

__all__ = ["solve_by_cycle_canceling"]


class _ResidualArcs:
    """Residual network of a :class:`FlowNetwork` as numpy columns.

    ``tail``/``head`` (``int64[2m]``) are dense node indices, ``cost``
    (``float64[2m]``) carries ``+cost``/``-cost`` and ``cap``
    (``int64[2m]``) the residual capacities.  Lower bounds are ignored.
    """

    def __init__(self, network: FlowNetwork) -> None:
        arrays = network.arrays()
        m = arrays.tails.shape[0]
        self.num_nodes = network.num_nodes
        self.tail = np.empty(2 * m, dtype=np.int64)
        self.head = np.empty(2 * m, dtype=np.int64)
        self.cost = np.empty(2 * m, dtype=np.float64)
        self.cap = np.zeros(2 * m, dtype=np.int64)
        self.tail[0::2] = arrays.tails
        self.tail[1::2] = arrays.heads
        self.head[0::2] = arrays.heads
        self.head[1::2] = arrays.tails
        self.cost[0::2] = arrays.costs
        self.cost[1::2] = -arrays.costs
        self.cap[0::2] = arrays.capacities

    def push(self, rids: Sequence[int], amount: int) -> None:
        """Push *amount* units along each residual arc of *rids*."""
        rids = np.asarray(rids, dtype=np.int64)
        self.cap[rids] -= amount
        self.cap[rids ^ 1] += amount

    def flows(self) -> list[int]:
        """Current flow on each original arc (backward residual capacity)."""
        return self.cap[1::2].tolist()


def _establish_flow(res: _ResidualArcs, s: int, t: int, flow_value: int) -> None:
    """Push *flow_value* units from ``s`` to ``t`` ignoring costs (BFS).

    Each augmentation is a level-synchronous breadth-first search over the
    out-arcs of the frontier, in residual-arc-id order per node; a node is
    claimed by the first arc that reaches it.
    """
    n = res.num_nodes
    order = np.argsort(res.tail, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(res.tail, minlength=n), out=indptr[1:])
    shipped = 0
    augmentations = 0
    while shipped < flow_value:
        pred = np.full(n, -1, dtype=np.int64)
        seen = np.zeros(n, dtype=bool)
        seen[s] = True
        frontier = np.array([s], dtype=np.int64)
        while frontier.size and not seen[t]:
            starts = indptr[frontier]
            degs = indptr[frontier + 1] - starts
            offsets = np.cumsum(degs) - degs
            pos = np.repeat(starts - offsets, degs) + np.arange(int(degs.sum()))
            rids = order[pos]
            rids = rids[res.cap[rids] > 0]
            rids = rids[~seen[res.head[rids]]]
            heads = res.head[rids]
            _, first = np.unique(heads, return_index=True)
            first.sort()
            frontier = heads[first]
            pred[frontier] = rids[first]
            seen[frontier] = True
        if not seen[t]:
            raise InfeasibleFlowError(
                f"only {shipped} of {flow_value} flow units are feasible"
            )
        path: list[int] = []
        v = t
        while v != s:
            rid = int(pred[v])
            path.append(rid)
            v = int(res.tail[rid])
        bottleneck = min(flow_value - shipped, int(res.cap[path].min()))
        res.push(path, bottleneck)
        shipped += bottleneck
        augmentations += 1
    obs.count("cycle_canceling.augmentations", augmentations)


def _pred_cycle(res: _ResidualArcs, pred: np.ndarray) -> list[int] | None:
    """Residual arc ids of one cycle of the predecessor graph, or ``None``.

    ``pred[v]`` is the residual arc entering ``v`` (``-1`` for none), so
    node → tail-of-pred is a functional graph.  Roots point at a sentinel
    ``n`` that points at itself; after at least ``n`` doubled steps every
    node has either reached the sentinel or landed on a cycle.
    """
    n = res.num_nodes
    parent = np.where(pred >= 0, res.tail[pred], n)
    jump = np.append(parent, n)
    steps = 1
    while steps < n:
        jump = jump[jump]
        steps *= 2
    stuck = np.flatnonzero(jump[:n] != n)
    if not stuck.size:
        return None
    start = int(jump[stuck[0]])
    cycle: list[int] = []
    node = start
    while True:
        cycle.append(int(pred[node]))
        node = int(parent[node])
        if node == start:
            break
    cycle.reverse()
    return cycle


def _find_negative_cycle(res: _ResidualArcs) -> list[int] | None:
    """Residual arc ids of one negative-cost cycle, or ``None``.

    Jacobi Bellman-Ford rounds from a virtual super node connected to
    every node with a zero-cost arc; the first round whose predecessor
    graph closes a cycle returns that cycle, which costs less than
    ``-EPS`` (see the module docstring).  ``None`` means a round relaxed
    nothing, so the residual has no negative cycle.
    """
    live = np.flatnonzero(res.cap > 0)
    tails = res.tail[live]
    heads = res.head[live]
    costs = res.cost[live]
    dist = np.zeros(res.num_nodes)
    pred = np.full(res.num_nodes, -1, dtype=np.int64)
    rounds = 0
    while True:
        rounds += 1
        nd = dist[tails] + costs
        better = np.flatnonzero(nd < dist[heads] - _EPS)
        if not better.size:
            obs.count("cycle_canceling.bellman_ford_passes", rounds)
            return None
        v = heads[better]
        nd = nd[better]
        # One winner per head: least nd, ties to the least arc id
        # (lexsort is stable and ``better`` ascends in arc id).
        ranked = np.lexsort((nd, v))
        ranked_heads = v[ranked]
        first = np.ones(ranked.size, dtype=bool)
        first[1:] = ranked_heads[1:] != ranked_heads[:-1]
        win = ranked[first]
        winners = v[win]
        dist[winners] = nd[win]
        pred[winners] = live[better[win]]
        cycle = _pred_cycle(res, pred)
        if cycle is not None:
            obs.count("cycle_canceling.bellman_ford_passes", rounds)
            return cycle


def solve_by_cycle_canceling(
    network: FlowNetwork,
    source: Hashable,
    sink: Hashable,
    flow_value: int,
) -> FlowResult:
    """Minimum-cost flow of exactly *flow_value* units via cycle cancelling.

    Accepts the same inputs as
    :func:`repro.flow.ssp.solve_min_cost_flow` (no lower bounds) and returns
    an equivalent :class:`FlowResult`: the same optimal cost, though not
    necessarily the same optimal flow.
    """
    if flow_value < 0:
        raise GraphError(f"flow value must be non-negative, got {flow_value}")
    if network.has_lower_bounds():
        raise GraphError(
            "cycle cancelling does not handle lower bounds; transform first"
        )
    if not network.has_node(source) or not network.has_node(sink):
        raise GraphError("source or sink is not a node of the network")
    res = _ResidualArcs(network)
    s = network.node_index(source)
    t = network.node_index(sink)
    if flow_value and s != t:
        _establish_flow(res, s, t, flow_value)
    cycles = 0
    while True:
        cycle = _find_negative_cycle(res)
        if cycle is None:
            break
        res.push(cycle, int(res.cap[cycle].min()))
        cycles += 1
    obs.count("cycle_canceling.solves")
    obs.count("cycle_canceling.cycles_canceled", cycles)
    return FlowResult(network, res.flows(), flow_value)
