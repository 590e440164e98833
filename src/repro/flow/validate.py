"""Validation utilities for flow solutions.

Every solver result can be checked against the mathematical-programming
formulation of section 4: conservation at interior nodes, bound compliance
on every arc, and the exact source/sink balance.  The allocator runs these
checks in its own debug mode and the test suite applies them to every
solution it produces.

The checks run over :meth:`~repro.flow.graph.FlowNetwork.arrays`: bounds
are compared column-wise and node balances are two ``np.bincount`` passes
over the tail/head columns.  An :class:`~repro.flow.graph.Arc` is
materialised only to name the first violation.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.exceptions import ReproError
from repro.flow.graph import FlowNetwork, FlowResult

__all__ = ["FlowValidationError", "check_flow", "flow_cost", "node_balances"]

#: numpy dtype kinds whose values are all Python-``int``-like.
_INTEGRAL_KINDS = "biu"


class FlowValidationError(ReproError):
    """A flow violates conservation, bounds, or the required value."""


def _balance_array(network: FlowNetwork, flows: np.ndarray) -> np.ndarray:
    """Net flow into each dense node index (negative = net shipper)."""
    arrays = network.arrays()
    n = network.num_nodes
    net = np.bincount(arrays.heads, weights=flows, minlength=n) - np.bincount(
        arrays.tails, weights=flows, minlength=n
    )
    if flows.dtype.kind in _INTEGRAL_KINDS:
        return net.astype(np.int64)
    return net


def _flow_array(flows) -> np.ndarray:
    """*flows* as a numpy vector (an empty vector is integral)."""
    values = np.asarray(flows)
    return values if values.size else values.astype(np.int64)


def node_balances(result: FlowResult) -> dict[Hashable, int]:
    """Net flow into each node of *result* (negative = net shipper).

    The single place the conservation arithmetic lives: both
    :func:`check_flow` and the :mod:`repro.verify` oracles (via
    ``check_flow``) consume this, so the sign convention cannot drift
    between the solver-side validator and the independent verifier.
    """
    network = result.network
    balance = _balance_array(network, _flow_array(result.flows))
    return dict(zip(network.nodes, balance.tolist()))


def _check_bounds(network: FlowNetwork, flows: np.ndarray) -> None:
    """Raise on the first arc of ``flows`` (a prefix of the arc ids)
    whose flow lies outside ``[lower, capacity]``."""
    arrays = network.arrays()
    k = flows.shape[0]
    outside = (flows < arrays.lowers[:k]) | (flows > arrays.capacities[:k])
    if outside.any():
        arc = network.arc(int(np.argmax(outside)))
        raise FlowValidationError(
            f"flow {int(flows[arc.index])} outside bounds "
            f"[{arc.lower}, {arc.capacity}] on {arc}"
        )


def _integral_flows(result: FlowResult) -> np.ndarray:
    """The flow vector as ``int64``; raises on the first non-integral
    entry, after any bound violation on the arcs before it."""
    values = _flow_array(result.flows)
    if values.dtype.kind in _INTEGRAL_KINDS and values.ndim == 1:
        return values.astype(np.int64, copy=False)
    # A non-integral entry, or Python ints too large for int64 (outside
    # every bound): report the first violation in arc order.
    first = next(
        (i for i, f in enumerate(result.flows) if not isinstance(f, int)),
        len(result.flows),
    )
    _check_bounds(
        result.network, np.array(result.flows[:first], dtype=object)
    )
    raise FlowValidationError(
        f"non-integral flow {result.flows[first]!r} on "
        f"{result.network.arc(first)}"
    )


def check_flow(
    result: FlowResult,
    source: Hashable,
    sink: Hashable,
    flow_value: int | None = None,
) -> None:
    """Validate *result* against the network it was solved on.

    Args:
        result: Solver output to validate.
        source: Source node of the problem.
        sink: Sink node of the problem.
        flow_value: Expected flow value; defaults to ``result.value``.

    Raises:
        FlowValidationError: Describing the first violated constraint.
    """
    network = result.network
    expected = result.value if flow_value is None else flow_value
    if len(result.flows) != network.num_arcs:
        raise FlowValidationError(
            f"flow vector has {len(result.flows)} entries for "
            f"{network.num_arcs} arcs"
        )
    flows = _integral_flows(result)
    _check_bounds(network, flows)
    balance = _balance_array(network, flows)
    target = np.zeros_like(balance)
    if network.has_node(sink):
        target[network.node_index(sink)] = expected
    if network.has_node(source):
        target[network.node_index(source)] = -expected
    wrong = balance != target
    if not wrong.any():
        return
    index = int(np.argmax(wrong))
    node = network.nodes[index]
    net = int(balance[index])
    if node == source:
        raise FlowValidationError(
            f"source ships {-net} units, expected {expected}"
        )
    if node == sink:
        raise FlowValidationError(
            f"sink receives {net} units, expected {expected}"
        )
    raise FlowValidationError(
        f"conservation violated at {node!r}: imbalance {net}"
    )


def flow_cost(result: FlowResult) -> float:
    """Recompute the total cost of *result* from scratch."""
    costs = result.network.arrays().costs.tolist()
    return sum(costs[i] * f for i, f in enumerate(result.flows) if f)
