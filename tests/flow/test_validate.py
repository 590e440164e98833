"""Tests for the flow validator."""

import random

import numpy as np
import pytest

from repro.flow import FlowNetwork, check_flow, flow_cost
from repro.flow.graph import FlowResult
from repro.flow.validate import FlowValidationError, node_balances


def net_and_flow():
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=2, cost=1.0)
    net.add_arc("a", "t", capacity=2, cost=3.0)
    return net, FlowResult(net, [2, 2], 2)


def test_valid_flow_passes():
    net, result = net_and_flow()
    check_flow(result, "s", "t", 2)


def test_flow_cost_recomputation():
    net, result = net_and_flow()
    assert flow_cost(result) == pytest.approx(8.0)
    assert result.cost == pytest.approx(8.0)


def test_conservation_violation_detected():
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=2)
    net.add_arc("a", "t", capacity=2)
    bad = FlowResult(net, [2, 1], 2)
    with pytest.raises(FlowValidationError, match="conservation|receives"):
        check_flow(bad, "s", "t", 2)


def test_capacity_violation_detected():
    net, _ = net_and_flow()
    bad = FlowResult(net, [3, 3], 3)
    with pytest.raises(FlowValidationError, match="bounds"):
        check_flow(bad, "s", "t", 3)


def test_lower_bound_violation_detected():
    net = FlowNetwork()
    net.add_arc("s", "t", capacity=2, lower=1)
    bad = FlowResult(net, [0], 0)
    with pytest.raises(FlowValidationError, match="bounds"):
        check_flow(bad, "s", "t", 0)


def test_wrong_value_detected():
    net, result = net_and_flow()
    with pytest.raises(FlowValidationError, match="ships|receives"):
        check_flow(result, "s", "t", 1)


def test_non_integral_flow_detected():
    net, _ = net_and_flow()
    bad = FlowResult(net, [1.5, 1.5], 1)  # type: ignore[list-item]
    with pytest.raises(FlowValidationError, match="non-integral"):
        check_flow(bad, "s", "t", 1)


def test_wrong_vector_length_detected():
    net, result = net_and_flow()
    result.flows = [2]  # truncate after construction
    with pytest.raises(FlowValidationError, match="entries"):
        check_flow(result, "s", "t", 2)


# ---------------------------------------------------------------------------
# Lower-bounded and degenerate networks.
# ---------------------------------------------------------------------------

def test_valid_lower_bounded_flow_passes():
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=2, cost=1.0, lower=1)
    net.add_arc("a", "t", capacity=2, cost=1.0, lower=1)
    check_flow(FlowResult(net, [1, 1], 1), "s", "t", 1)
    check_flow(FlowResult(net, [2, 2], 2), "s", "t", 2)


def test_solver_output_respects_lower_bounds():
    from repro.flow.lower_bounds import solve_with_lower_bounds

    net = FlowNetwork()
    net.add_arc("s", "a", capacity=1, cost=5.0, lower=1)
    net.add_arc("a", "t", capacity=1, cost=5.0, lower=1)
    net.add_arc("s", "t", capacity=1, cost=0.0)
    result = solve_with_lower_bounds(net, "s", "t", 2)
    check_flow(result, "s", "t", 2)
    assert flow_cost(result) == pytest.approx(10.0)


def test_empty_network_zero_flow():
    net = FlowNetwork()
    net.add_node("s")
    net.add_node("t")
    check_flow(FlowResult(net, [], 0), "s", "t", 0)


def test_empty_problem_network_validates():
    from repro.core.network_builder import SINK, SOURCE, build_network
    from repro.core.problem import AllocationProblem
    from repro.flow.lower_bounds import solve

    problem = AllocationProblem({}, register_count=2, horizon=3)
    built = build_network(problem)
    result = solve(built.network, SOURCE, SINK, 2)
    check_flow(result, SOURCE, SINK, 2)


def test_single_variable_network_validates():
    from repro.core.network_builder import SINK, SOURCE, build_network
    from repro.core.problem import AllocationProblem
    from repro.flow.lower_bounds import solve
    from tests.conftest import make_lifetime

    problem = AllocationProblem(
        {"a": make_lifetime("a", 1, (2,), live_out=False)},
        register_count=1,
        horizon=3,
    )
    built = build_network(problem)
    result = solve(built.network, SOURCE, SINK, 1)
    check_flow(result, SOURCE, SINK, 1)
    assert result.value == 1


# ---------------------------------------------------------------------------
# Each check reports its own violation, in arc and node order.
# ---------------------------------------------------------------------------

def test_source_shortfall_detected():
    net, _ = net_and_flow()
    short = FlowResult(net, [1, 1], 1)
    with pytest.raises(
        FlowValidationError, match="source ships 1 units, expected 2"
    ):
        check_flow(short, "s", "t", 2)


def test_interior_imbalance_with_correct_terminals_detected():
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=2)
    net.add_arc("s", "b", capacity=2)
    net.add_arc("a", "t", capacity=2)
    net.add_arc("b", "t", capacity=2)
    bad = FlowResult(net, [1, 1, 2, 0], 2)
    with pytest.raises(
        FlowValidationError, match="conservation violated at 'a': imbalance -1"
    ):
        check_flow(bad, "s", "t", 2)


def test_numpy_float_vector_rejected_as_non_integral():
    net, _ = net_and_flow()
    bad = FlowResult(net, np.array([2.0, 2.0]), 2)  # type: ignore[arg-type]
    with pytest.raises(FlowValidationError, match="non-integral flow .* on s->a"):
        check_flow(bad, "s", "t", 2)


def test_bound_violation_before_non_integral_entry_reported_first():
    net, _ = net_and_flow()
    bad = FlowResult(net, [3, 1.5], 3)  # type: ignore[list-item]
    with pytest.raises(FlowValidationError, match="flow 3 outside bounds"):
        check_flow(bad, "s", "t", 3)


def test_fault_on_lowered_arc_only_detected():
    net = FlowNetwork()
    net.add_arc("s", "t", capacity=2)
    net.add_arc("s", "a", capacity=2, lower=1)
    net.add_arc("a", "t", capacity=2)
    # Conservation and the terminal values hold; only the lower bound of
    # the second arc is violated.
    bad = FlowResult(net, [2, 0, 0], 2)
    with pytest.raises(
        FlowValidationError, match=r"flow 0 outside bounds \[1, 2\] on s->a"
    ):
        check_flow(bad, "s", "t", 2)
    check_flow(FlowResult(net, [1, 1, 1], 2), "s", "t", 2)


# ---------------------------------------------------------------------------
# The array checks against a per-arc loop reference: same verdict, same
# first violation, on random (mostly invalid) flows.
# ---------------------------------------------------------------------------

def reference_verdict(result, source, sink, expected):
    """Per-arc loop version of :func:`check_flow`; the message or None."""
    network = result.network
    for arc in network.arcs:
        f = result.flows[arc.index]
        if not isinstance(f, int):
            return f"non-integral flow {f!r} on {arc}"
        if f < arc.lower or f > arc.capacity:
            return (
                f"flow {f} outside bounds [{arc.lower}, {arc.capacity}] "
                f"on {arc}"
            )
    balance = {node: 0 for node in network.nodes}
    for arc in network.arcs:
        balance[arc.tail] -= result.flows[arc.index]
        balance[arc.head] += result.flows[arc.index]
    for node, net in balance.items():
        if node == source and net != -expected:
            return f"source ships {-net} units, expected {expected}"
        if node == sink and node != source and net != expected:
            return f"sink receives {net} units, expected {expected}"
        if node not in (source, sink) and net != 0:
            return f"conservation violated at {node!r}: imbalance {net}"
    return None


@pytest.mark.parametrize("seed", range(60))
def test_check_flow_matches_loop_reference(seed):
    rng = random.Random(seed)
    names = ["a", "s", "b", "t", "c"]
    net = FlowNetwork()
    for _ in range(rng.randint(1, 9)):
        tail, head = rng.sample(names, 2)
        lower = rng.randint(0, 1)
        net.add_arc(tail, head, capacity=lower + rng.randint(0, 2), lower=lower)
    flows = [rng.randint(arc.lower, arc.capacity) for arc in net.arcs]
    if rng.random() < 0.3:
        flows[rng.randrange(len(flows))] += rng.choice([-1, 1])
    if rng.random() < 0.1:
        flows[rng.randrange(len(flows))] = 0.5
    expected = rng.randint(0, 2)
    result = FlowResult(net, flows, expected)
    want = reference_verdict(result, "s", "t", expected)
    if want is None:
        check_flow(result, "s", "t", expected)
    else:
        with pytest.raises(FlowValidationError) as caught:
            check_flow(result, "s", "t", expected)
        assert str(caught.value) == want
    if all(isinstance(f, int) for f in flows):
        loop = {node: 0 for node in net.nodes}
        for arc in net.arcs:
            loop[arc.tail] -= flows[arc.index]
            loop[arc.head] += flows[arc.index]
        assert node_balances(result) == loop
