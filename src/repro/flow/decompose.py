"""Path decomposition of acyclic flows.

Any feasible ``s -> t`` flow on a DAG decomposes into ``value`` simple
paths; for the allocation networks each path is one physical register (or
one memory location in the reallocation pass).  The decomposition walks
greedily in arc-construction order, which makes results deterministic.

The walk runs over arc ids and dense node indices of the positive-flow
arcs only (:meth:`~repro.flow.graph.FlowNetwork.arrays`);
:func:`decompose_into_paths` maps the id paths onto :class:`Arc` objects
for callers that want them.
"""

from __future__ import annotations

from typing import Hashable

from repro.exceptions import GraphError
from repro.flow.graph import Arc, FlowResult

__all__ = ["decompose_into_arc_ids", "decompose_into_paths"]


def decompose_into_arc_ids(
    result: FlowResult,
    source: Hashable,
    sink: Hashable,
) -> list[list[int]]:
    """Split *result* into arc-id paths from *source* to *sink*.

    Returns:
        One list of arc ids per flow unit, each tracing ``source -> sink``.

    Raises:
        GraphError: If the flow cannot be decomposed (cyclic flow or
            conservation violation — both indicate an invalid input).
    """
    network = result.network
    remaining = list(result.flows)
    positive = [i for i, f in enumerate(remaining) if f > 0]
    arrays = network.arrays()
    head_of = dict(zip(positive, arrays.heads[positive].tolist()))
    out_ids: dict[int, list[int]] = {}
    for index, tail in zip(positive, arrays.tails[positive].tolist()):
        out_ids.setdefault(tail, []).append(index)

    def next_arc(node: int) -> int | None:
        for index in out_ids.get(node, ()):
            if remaining[index] > 0:
                return index
        return None

    def node_id(node: Hashable) -> int:
        return network.node_index(node) if network.has_node(node) else -1

    s, t = node_id(source), node_id(sink)
    paths: list[list[int]] = []
    guard = network.num_arcs + 2
    while next_arc(s) is not None:
        path: list[int] = []
        node = s
        while node != t:
            index = next_arc(node)
            if index is None:
                raise GraphError(
                    f"path decomposition stuck at {network.nodes[node]!r}; "
                    "flow violates conservation"
                )
            remaining[index] -= 1
            path.append(index)
            node = head_of[index]
            if len(path) > guard:
                raise GraphError("path decomposition found a cycle")
        paths.append(path)
    if any(remaining[index] for index in positive):
        raise GraphError(
            "flow units remain after decomposition; "
            "flow is cyclic or not source-sink"
        )
    return paths


def decompose_into_paths(
    result: FlowResult,
    source: Hashable,
    sink: Hashable,
) -> list[list[Arc]]:
    """Split *result* into arc paths from *source* to *sink*.

    Returns:
        One list of arcs per flow unit, each tracing ``source -> sink``.

    Raises:
        GraphError: If the flow cannot be decomposed (cyclic flow or
            conservation violation — both indicate an invalid input).
    """
    arc = result.network.arc
    return [
        [arc(index) for index in path]
        for path in decompose_into_arc_ids(result, source, sink)
    ]
