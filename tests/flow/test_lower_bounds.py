"""Unit tests for the lower-bound transformation."""

import random

import pytest

from repro.core.network_builder import build_network
from repro.core.problem import AllocationProblem
from repro.energy import ActivityEnergyModel, MemoryConfig
from repro.energy.voltage import max_divisor_supply
from repro.exceptions import InfeasibleFlowError
from repro.flow import (
    FlowNetwork,
    check_flow,
    solve,
    solve_min_cost_flow,
    solve_with_lower_bounds,
    topology_key,
)
from repro.flow.graph import FlowResult
from repro.flow.lower_bounds import transform_lower_bounds
from repro.workloads import rsp_schedule
from repro.workloads.registry import figure_example


def test_dispatch_without_lower_bounds():
    net = FlowNetwork()
    net.add_arc("s", "t", capacity=3, cost=1.0)
    result = solve(net, "s", "t", 2)
    assert result.cost == 2.0


def test_forced_expensive_arc():
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=2, cost=5.0)
    net.add_arc("s", "b", capacity=2, cost=0.0)
    net.add_arc("a", "t", capacity=2, cost=0.0, lower=1)
    net.add_arc("b", "t", capacity=2, cost=0.0)
    result = solve_with_lower_bounds(net, "s", "t", 2)
    check_flow(result, "s", "t", 2)
    # Without the bound the optimum would route both units via b (cost 0);
    # the bound forces one unit over the 5-cost arc.
    assert result.cost == pytest.approx(5.0)
    forced = net.arcs[2]
    assert result.flow(forced) >= 1


def test_bounds_respected_exactly():
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=3, cost=0.0)
    net.add_arc("a", "t", capacity=3, cost=0.0, lower=2)
    result = solve_with_lower_bounds(net, "s", "t", 3)
    check_flow(result, "s", "t", 3)
    assert result.flow(net.arcs[1]) == 3


def test_infeasible_lower_bound():
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=1, cost=0.0)
    net.add_arc("a", "t", capacity=2, cost=0.0, lower=2)
    # Only 1 unit can reach a, but the arc demands 2.
    with pytest.raises(InfeasibleFlowError):
        solve_with_lower_bounds(net, "s", "t", 1)


def test_lower_bound_exceeding_flow_value_infeasible():
    net = FlowNetwork()
    net.add_arc("s", "t", capacity=5, cost=0.0, lower=3)
    with pytest.raises(InfeasibleFlowError):
        solve_with_lower_bounds(net, "s", "t", 2)


def test_parallel_bounded_arcs():
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=2, cost=0.0)
    net.add_arc("a", "t", capacity=1, cost=1.0, lower=1)
    net.add_arc("a", "t", capacity=1, cost=9.0, lower=1)
    result = solve_with_lower_bounds(net, "s", "t", 2)
    check_flow(result, "s", "t", 2)
    assert result.cost == pytest.approx(10.0)


def test_optimality_with_negative_costs_and_bounds():
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=2, cost=0.0)
    net.add_arc("s", "b", capacity=2, cost=0.0)
    net.add_arc("a", "t", capacity=2, cost=-4.0)
    net.add_arc("b", "t", capacity=2, cost=1.0, lower=1)
    result = solve_with_lower_bounds(net, "s", "t", 3)
    check_flow(result, "s", "t", 3)
    # Best: 2 units at -4, 1 forced unit at +1.
    assert result.cost == pytest.approx(-7.0)


# ---------------------------------------------------------------------------
# The transform is pinned byte for byte: its node order, arc order and
# therefore its warm-start topology key feed the warm-start cache and the
# solver's tie-breaking.
# ---------------------------------------------------------------------------

def table1_problem(divisor):
    voltage = round(max_divisor_supply(divisor), 2)
    return AllocationProblem.from_schedule(
        rsp_schedule(rng=random.Random(2024)),
        register_count=16,
        energy_model=ActivityEnergyModel().with_voltages(voltage, 5.0),
        memory=MemoryConfig(divisor=divisor, voltage=voltage),
    )


def fig3_problem():
    lifetimes, horizon, _ = figure_example("fig3")
    return AllocationProblem(
        lifetimes, register_count=2, horizon=horizon,
        memory=MemoryConfig(divisor=2),
    )


#: (topology key, demand) of each instance's transformed network.
TRANSFORM_GOLDEN = {
    "table1-d2": (
        "d3ea27ccc70492ecd3496901a52f906480c3a297b13a1f3736b51726f3c9ce42",
        91,
    ),
    "table1-d4": (
        "0820f7b9e829e9476d171c9a218c9b9ac9d85e9aa8b34ec0eeae7893a4c1d524",
        110,
    ),
    "fig3-d2": (
        "b90d8e48f6cddd04dbc11a5aa2aee84d31fbeaec342352c03f0005e71e6f94d2",
        7,
    ),
}

GOLDEN_PROBLEMS = {
    "table1-d2": lambda: table1_problem(2),
    "table1-d4": lambda: table1_problem(4),
    "fig3-d2": fig3_problem,
}


@pytest.mark.parametrize("name", sorted(TRANSFORM_GOLDEN))
def test_transform_pinned(name):
    built = build_network(GOLDEN_PROBLEMS[name]())
    assert built.network.has_lower_bounds()
    transform = transform_lower_bounds(
        built.network, built.source, built.sink, built.flow_value
    )
    key = topology_key(
        transform.network,
        transform.super_source,
        transform.super_sink,
        transform.demand,
    )
    assert (key, transform.demand) == TRANSFORM_GOLDEN[name]
    # Original nodes keep their indices; the two super terminals follow.
    assert transform.network.nodes == built.network.nodes + (
        transform.super_source,
        transform.super_sink,
    )
    m = built.network.num_arcs
    inner = transform.network.arrays()
    assert inner.costs[:m].tolist() == built.network.arrays().costs.tolist()
    assert not inner.costs[m:].any()


def seeded_lower_bounded(seed):
    """A random layered DAG with lower bounds cut below a known flow, so
    the fixed-value problem is feasible by construction."""
    rng = random.Random(seed)
    layers = [["s"]] + [
        [f"v{depth}.{i}" for i in range(rng.randint(1, 4))]
        for depth in range(rng.randint(1, 4))
    ] + [["t"]]
    value = rng.randint(1, 5)
    carried: dict[tuple, int] = {}
    for _ in range(value):
        path = [rng.choice(layer) for layer in layers]
        for edge in zip(path, path[1:]):
            carried[edge] = carried.get(edge, 0) + 1
    for upper, lower in zip(layers, layers[1:]):
        for tail in upper:
            for head in lower:
                if rng.random() < 0.5:
                    carried.setdefault((tail, head), 0)
    net = FlowNetwork()
    for (tail, head), f in carried.items():
        net.add_arc(
            tail,
            head,
            capacity=f + rng.randint(0, 2),
            cost=float(rng.randint(-5, 5)),
            lower=rng.randint(0, f),
        )
    return net, value


@pytest.mark.parametrize("seed", range(25))
def test_recover_of_transform_passes_check_flow(seed):
    net, value = seeded_lower_bounded(seed)
    transform = transform_lower_bounds(net, "s", "t", value)
    inner = solve_min_cost_flow(
        transform.network,
        transform.super_source,
        transform.super_sink,
        transform.demand,
    )
    recovered = transform.recover(inner)
    assert isinstance(recovered, FlowResult)
    assert all(type(f) is int for f in recovered.flows)
    check_flow(recovered, "s", "t", value)
    assert recovered.cost == pytest.approx(
        solve_with_lower_bounds(net, "s", "t", value).cost
    )


def reference_transform(network, source, sink, flow_value):
    """Per-arc loop version of the transform: ``(arcs, demand)`` with
    arcs as ``(tail, head, capacity, cost)`` in arc order."""
    arcs = [
        (arc.tail, arc.head, arc.capacity - arc.lower, arc.cost)
        for arc in network.arcs
    ]
    excess = {}
    for arc in network.arcs:
        if arc.lower:
            excess[arc.head] = excess.get(arc.head, 0) + arc.lower
            excess[arc.tail] = excess.get(arc.tail, 0) - arc.lower
    excess[source] = excess.get(source, 0) + flow_value
    excess[sink] = excess.get(sink, 0) - flow_value
    demand = 0
    for node, value in excess.items():
        if value > 0:
            arcs.append(("super-source", node, value, 0.0))
            demand += value
        elif value < 0:
            arcs.append((node, "super-sink", -value, 0.0))
    return arcs, demand


@pytest.mark.parametrize("seed", range(25))
def test_transform_matches_loop_reference(seed):
    net, value = seeded_lower_bounded(seed)
    transform = transform_lower_bounds(net, "s", "t", value)
    rename = {
        transform.super_source: "super-source",
        transform.super_sink: "super-sink",
    }
    got = [
        (rename.get(arc.tail, arc.tail), rename.get(arc.head, arc.head),
         arc.capacity, arc.cost)
        for arc in transform.network.arcs
    ]
    assert (got, transform.demand) == reference_transform(net, "s", "t", value)
    assert not transform.network.has_lower_bounds()
