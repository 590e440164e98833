"""List-based residual network for the pure-Python flow code.

Used by :func:`repro.flow.ssp.max_flow_value` and by the per-arc oracle
:mod:`repro.flow.reference`; the SSP kernel and the cycle-cancelling
solver keep their own numpy residual columns.

The residual network stores, for every arc of the original network, a
forward residual arc (remaining capacity, original cost) and a backward
residual arc (flow that can be pushed back, negated cost).  Both are kept in
flat parallel lists so per-arc scans stay cheap in pure Python.

Residual arc ``2*i`` is the forward image of original arc ``i`` and residual
arc ``2*i + 1`` is its backward image; ``rid ^ 1`` is always the partner.
"""

from __future__ import annotations

from typing import Hashable

from repro.flow.graph import FlowNetwork

__all__ = ["Residual"]


class Residual:
    """Mutable residual network over a :class:`FlowNetwork`.

    Lower bounds are ignored here; solvers that support them transform the
    problem first (see :mod:`repro.flow.lower_bounds`).
    """

    def __init__(self, network: FlowNetwork) -> None:
        self.network = network
        n = network.num_nodes
        m = network.num_arcs
        self.num_nodes = n
        # Parallel arrays over residual arc ids (2 per original arc).
        self.head: list[int] = [0] * (2 * m)
        self.cap: list[int] = [0] * (2 * m)
        self.cost: list[float] = [0.0] * (2 * m)
        self.adj: list[list[int]] = [[] for _ in range(n)]
        arrays = network.arrays()
        for index, (u, v, cap, cost) in enumerate(
            zip(
                arrays.tails.tolist(),
                arrays.heads.tolist(),
                arrays.capacities.tolist(),
                arrays.costs.tolist(),
            )
        ):
            fid = 2 * index
            bid = fid + 1
            self.head[fid] = v
            self.cap[fid] = cap
            self.cost[fid] = cost
            self.head[bid] = u
            self.cap[bid] = 0
            self.cost[bid] = -cost
            self.adj[u].append(fid)
            self.adj[v].append(bid)

    def tail(self, rid: int) -> int:
        """Tail node index of residual arc *rid*."""
        return self.head[rid ^ 1]

    def push(self, rid: int, amount: int) -> None:
        """Push *amount* units along residual arc *rid*."""
        self.cap[rid] -= amount
        self.cap[rid ^ 1] += amount

    def flows(self) -> list[int]:
        """Current flow on each original arc (backward residual capacity)."""
        return [self.cap[2 * i + 1] for i in range(self.network.num_arcs)]

    def node_of(self, node: Hashable) -> int:
        """Dense index of an original-network node."""
        return self.network.node_index(node)
