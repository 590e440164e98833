"""Minimum-cost flow with arc lower bounds.

The split-lifetime extension (paper section 5.2) forces certain variable
segments into the register file by placing a lower bound of 1 on their flow
arcs.  This module reduces the lower-bounded fixed-value problem to a plain
minimum-cost flow via the standard excess/deficit transformation:

* every arc ``u -> v`` with lower bound ``l`` pre-ships ``l`` units, leaving
  residual capacity ``capacity - l`` and creating an excess of ``l`` at ``v``
  and a deficit of ``l`` at ``u``;
* the fixed source→sink value ``F`` is modelled as a virtual ``t -> s`` arc
  with ``lower == capacity == F``, i.e. pure excess at ``s`` and deficit at
  ``t``;
* a super-source feeds all excesses and a super-sink drains all deficits;
  shipping the total excess through the transformed network at minimum cost
  yields (after adding the lower bounds back) a minimum-cost feasible flow of
  the original problem.

Because the transformation only *removes* the ``t -> s`` arc (its residual
capacity is zero) and adds arcs incident to the fresh super terminals, an
acyclic input network stays acyclic, so the successive-shortest-path solver
remains exact despite negative arc costs.

The transformation is exposed as :func:`transform_lower_bounds` so that
independent solvers (e.g. the cycle-cancelling cross-check used by
:mod:`repro.verify.differential`) can be run on the very same transformed
instance and mapped back with :meth:`LowerBoundTransform.recover`.

Both directions run over :meth:`~repro.flow.graph.FlowNetwork.arrays`: the
transform is one bulk append of the original arcs (under their original
ids) plus one of the super arcs, with excesses from ``np.bincount``, and
recovery adds the lower-bound column back onto the first ``m`` inner flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.exceptions import GraphError, InfeasibleFlowError
from repro.flow.graph import FlowNetwork, FlowResult
from repro.flow.ssp import solve_min_cost_flow
from repro.flow.warm_start import WarmStartCache, solve_warm

__all__ = [
    "LowerBoundTransform",
    "transform_lower_bounds",
    "solve_with_lower_bounds",
    "solve",
]

_SUPER_SOURCE = ("__repro_super__", "source")
_SUPER_SINK = ("__repro_super__", "sink")


@dataclass(frozen=True)
class LowerBoundTransform:
    """The excess/deficit reduction of one lower-bounded instance.

    Attributes:
        original: The lower-bounded input network.
        source / sink: Terminals of the original fixed-value problem.
        flow_value: The fixed source→sink value of the original problem.
        network: The transformed network (no lower bounds).  Its first
            ``original.num_arcs`` arcs are the original arcs under their
            original ids (``data`` repeats the id); the super arcs follow.
        super_source / super_sink: Terminals of the transformed problem.
        demand: Flow value the transformed problem must ship (the total
            excess); shipping less means the original bounds are
            infeasible.
    """

    original: FlowNetwork
    source: Hashable
    sink: Hashable
    flow_value: int
    network: FlowNetwork
    super_source: Hashable
    super_sink: Hashable
    demand: int

    def recover(self, inner: FlowResult) -> FlowResult:
        """Map a solution of the transformed problem back to the original.

        Args:
            inner: A flow of :attr:`demand` units on :attr:`network`.

        Returns:
            A :class:`FlowResult` over :attr:`original` with the lower
            bounds added back in.

        Raises:
            InfeasibleFlowError: If the recovered flow does not ship
                :attr:`flow_value` units (the bounds are unsatisfiable).
        """
        lowers = self.original.arrays().lowers
        flows = (
            np.asarray(inner.flows[: lowers.shape[0]], dtype=np.int64)
            + lowers
        )
        _check_value(
            self.original, flows, self.source, self.sink, self.flow_value
        )
        return FlowResult(self.original, flows.tolist(), self.flow_value)


def transform_lower_bounds(
    network: FlowNetwork,
    source: Hashable,
    sink: Hashable,
    flow_value: int,
) -> LowerBoundTransform:
    """Build the excess/deficit reduction of a lower-bounded instance.

    Args:
        network: Network whose arcs may carry lower bounds.
        source: Source node of the fixed-value problem.
        sink: Sink node of the fixed-value problem.
        flow_value: Exact source→sink flow value.

    Returns:
        The :class:`LowerBoundTransform` describing the equivalent
        plain minimum-cost flow problem.
    """
    if not network.has_node(source) or not network.has_node(sink):
        raise GraphError("source or sink is not a node of the network")
    arrays = network.arrays()
    n = network.num_nodes
    transformed = FlowNetwork()
    for node in network.nodes:
        transformed.add_node(node)
    transformed.add_node(_SUPER_SOURCE)
    transformed.add_node(_SUPER_SINK)
    # Original arcs keep their ids; ``data`` records that id.
    transformed.add_arcs_indexed(
        arrays.tails,
        arrays.heads,
        arrays.capacities - arrays.lowers,
        arrays.costs,
        data=range(network.num_arcs),
    )
    s = network.node_index(source)
    t = network.node_index(sink)
    excess = (
        np.bincount(arrays.heads, weights=arrays.lowers, minlength=n)
        - np.bincount(arrays.tails, weights=arrays.lowers, minlength=n)
    ).astype(np.int64)
    # Virtual t -> s arc carrying exactly flow_value units.
    excess[s] += flow_value
    excess[t] -= flow_value
    # Super arcs follow the order in which the nodes first pick up an
    # excess: head then tail of each lowered arc, then source, then sink.
    # Warm-start topology keys and SSP tie-breaking depend on this order.
    lowered = np.flatnonzero(arrays.lowers)
    touched = np.concatenate(
        (
            np.column_stack(
                (arrays.heads[lowered], arrays.tails[lowered])
            ).ravel(),
            np.array([s, t], dtype=np.int64),
        )
    )
    _, first = np.unique(touched, return_index=True)
    order = touched[np.sort(first)]
    order = order[excess[order] != 0]
    value = excess[order]
    feeds = value > 0
    transformed.add_arcs_indexed(
        np.where(feeds, n, order),
        np.where(feeds, order, n + 1),
        np.abs(value),
        np.zeros(order.shape[0]),
    )
    demand = int(value[feeds].sum())
    return LowerBoundTransform(
        original=network,
        source=source,
        sink=sink,
        flow_value=flow_value,
        network=transformed,
        super_source=_SUPER_SOURCE,
        super_sink=_SUPER_SINK,
        demand=demand,
    )


def solve_with_lower_bounds(
    network: FlowNetwork,
    source: Hashable,
    sink: Hashable,
    flow_value: int,
    warm_cache: WarmStartCache | None = None,
) -> FlowResult:
    """Minimum-cost flow of exactly *flow_value* units honouring lower bounds.

    Args:
        network: Network whose arcs may carry lower bounds.
        source: Source node.
        sink: Sink node.
        flow_value: Exact source→sink flow value.
        warm_cache: Optional :class:`~repro.flow.warm_start.WarmStartCache`
            consulted for replay/incremental re-solves.  A lower-bounded
            instance is cached under its *transformed* network's topology
            key: a cost-only perturbation of the original induces a
            cost-only perturbation of the transform (the fresh super
            arcs always cost zero), so warm starts stay sound.

    Returns:
        A :class:`FlowResult` over the *original* network (lower bounds
        already added back into the reported flows).

    Raises:
        InfeasibleFlowError: If no feasible flow meets the bounds and value.
    """
    if not network.has_lower_bounds():
        if warm_cache is not None:
            return solve_warm(network, source, sink, flow_value, warm_cache)
        return solve_min_cost_flow(network, source, sink, flow_value)
    transform = transform_lower_bounds(network, source, sink, flow_value)
    if warm_cache is not None:
        inner = solve_warm(
            transform.network,
            transform.super_source,
            transform.super_sink,
            transform.demand,
            warm_cache,
        )
    else:
        inner = solve_min_cost_flow(
            transform.network,
            transform.super_source,
            transform.super_sink,
            transform.demand,
        )
    return transform.recover(inner)


def _check_value(
    network: FlowNetwork,
    flows: np.ndarray,
    source: Hashable,
    sink: Hashable,
    flow_value: int,
) -> None:
    """Sanity-check the recovered *flows* actually ship *flow_value* units."""
    arrays = network.arrays()

    def through(node: Hashable) -> tuple[int, int]:
        index = network.node_index(node)
        return (
            int(flows[arrays.tails == index].sum()),
            int(flows[arrays.heads == index].sum()),
        )

    source_out, source_in = through(source)
    sink_out, sink_in = through(sink)
    net_out = source_out - source_in
    net_in = sink_in - sink_out
    if net_out != flow_value or net_in != flow_value:
        raise InfeasibleFlowError(
            f"recovered flow ships {net_out}/{net_in} units, "
            f"expected {flow_value} (bounds make the problem infeasible)"
        )


def solve(
    network: FlowNetwork,
    source: Hashable,
    sink: Hashable,
    flow_value: int,
    warm_cache: WarmStartCache | None = None,
) -> FlowResult:
    """Dispatch to the plain or lower-bounded solver as appropriate.

    This is the entry point the allocator uses: it transparently supports
    networks with and without lower bounds, and threads an optional
    warm-start cache down to the kernel.
    """
    return solve_with_lower_bounds(
        network, source, sink, flow_value, warm_cache=warm_cache
    )
