"""Cycle-cancelling solver tests: standalone behaviour plus agreement
with the successive-shortest-path solver on random instances."""

import random

import pytest

from repro.exceptions import GraphError, InfeasibleFlowError
from repro.flow import (
    FlowNetwork,
    check_flow,
    solve_by_cycle_canceling,
    solve_min_cost_flow,
)
from repro.flow.graph import FlowResult


def test_simple_instance():
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=2, cost=1.0)
    net.add_arc("a", "t", capacity=2, cost=1.0)
    result = solve_by_cycle_canceling(net, "s", "t", 2)
    check_flow(result, "s", "t", 2)
    assert result.cost == pytest.approx(4.0)


def test_improves_initial_flow():
    # BFS establishes s-a-t first; cancelling must reroute to the cheap arc.
    net = FlowNetwork()
    net.add_arc("s", "a", capacity=1, cost=0.0)
    net.add_arc("a", "t", capacity=1, cost=10.0)
    net.add_arc("a", "b", capacity=1, cost=0.0)
    net.add_arc("b", "t", capacity=1, cost=1.0)
    result = solve_by_cycle_canceling(net, "s", "t", 1)
    assert result.cost == pytest.approx(1.0)


def test_infeasible():
    net = FlowNetwork()
    net.add_arc("s", "t", capacity=1, cost=0.0)
    with pytest.raises(InfeasibleFlowError):
        solve_by_cycle_canceling(net, "s", "t", 2)


def test_rejects_lower_bounds():
    net = FlowNetwork()
    net.add_arc("s", "t", capacity=2, lower=1)
    with pytest.raises(GraphError):
        solve_by_cycle_canceling(net, "s", "t", 1)


def _random_dag(rng: random.Random, nodes: int, extra_arcs: int) -> FlowNetwork:
    """Random layered DAG with integer costs (possibly negative)."""
    net = FlowNetwork()
    names = ["s"] + [f"n{i}" for i in range(nodes)] + ["t"]
    for a, b in zip(names, names[1:]):  # guarantee an s-t path
        net.add_arc(a, b, capacity=rng.randint(1, 4), cost=rng.randint(-3, 6))
    for _ in range(extra_arcs):
        i = rng.randrange(len(names) - 1)
        j = rng.randrange(i + 1, len(names))
        net.add_arc(
            names[i],
            names[j],
            capacity=rng.randint(1, 4),
            cost=rng.randint(-3, 6),
        )
    return net


@pytest.mark.parametrize("seed", range(20))
def test_agrees_with_ssp_on_random_dags(seed):
    rng = random.Random(seed)
    net = _random_dag(rng, nodes=rng.randint(2, 7), extra_arcs=rng.randint(2, 12))
    from repro.flow.ssp import max_flow_value

    limit = max_flow_value(net, "s", "t")
    if limit == 0:
        pytest.skip("degenerate instance")
    value = rng.randint(1, limit)
    ssp = solve_min_cost_flow(net, "s", "t", value)
    cc = solve_by_cycle_canceling(net, "s", "t", value)
    check_flow(ssp, "s", "t", value)
    check_flow(cc, "s", "t", value)
    assert ssp.cost == pytest.approx(cc.cost, abs=1e-6)


# ---------------------------------------------------------------------------
# Networks with directed cycles: the negative-cycle search must be exact
# where SSP's acyclic fast paths do not apply.
# ---------------------------------------------------------------------------


def _random_cyclic(rng: random.Random, nodes: int, arcs: int) -> FlowNetwork:
    """Random network with directed cycles, negative forward cycles,
    parallel arcs of different costs and opposed arc pairs."""
    net = FlowNetwork()
    names = ["s"] + [f"n{i}" for i in range(nodes)] + ["t"]
    for a, b in zip(names, names[1:]):  # guarantee an s-t path
        net.add_arc(a, b, capacity=rng.randint(1, 4), cost=rng.randint(-2, 6))
    inner = names[1:-1]
    # A negative-cost directed cycle through the interior whose arcs
    # keep residual capacity after one unit of flow.
    ring = rng.sample(inner, min(len(inner), rng.randint(2, 4)))
    for a, b in zip(ring, ring[1:] + ring[:1]):
        net.add_arc(a, b, capacity=rng.randint(2, 4), cost=rng.randint(-5, -1))
    for _ in range(arcs):
        a, b = rng.sample(names, 2)
        cap = rng.randint(1, 4)
        net.add_arc(a, b, capacity=cap, cost=rng.randint(-4, 8))
        kind = rng.random()
        if kind < 0.25:  # parallel arc, different cost
            net.add_arc(a, b, capacity=cap, cost=rng.randint(-4, 8) + 0.5)
        elif kind < 0.5:  # opposed arc between the same nodes
            net.add_arc(b, a, capacity=cap, cost=rng.randint(-4, 8))
    return net


@pytest.mark.parametrize("seed", range(30))
def test_matches_lp_optimum_on_random_cyclic_networks(seed):
    pytest.importorskip("scipy")
    from repro.flow.lp_check import lp_min_cost
    from repro.flow.ssp import max_flow_value

    rng = random.Random(1000 + seed)
    net = _random_cyclic(rng, nodes=rng.randint(3, 9), arcs=rng.randint(4, 18))
    limit = max_flow_value(net, "s", "t")
    value = rng.randint(0, limit)
    result = solve_by_cycle_canceling(net, "s", "t", value)
    check_flow(result, "s", "t", value)
    assert all(type(f) is int for f in result.flows)
    assert result.cost == pytest.approx(
        lp_min_cost(net, "s", "t", value), abs=1e-6
    )


def _assert_negative_closed_walk(residual, cycle):
    from repro.flow.tolerances import EPS

    assert cycle
    assert len(set(cycle)) == len(cycle)
    for rid, nxt in zip(cycle, cycle[1:] + cycle[:1]):
        assert residual.cap[rid] > 0
        assert residual.head[rid] == residual.tail[nxt]
    assert float(sum(residual.cost[rid] for rid in cycle)) < -EPS


@pytest.mark.parametrize("seed", range(15))
def test_found_cycles_are_negative_residual_cycles(seed):
    from repro.flow.cycle_canceling import (
        _establish_flow,
        _find_negative_cycle,
        _ResidualArcs,
    )

    rng = random.Random(2000 + seed)
    net = _random_cyclic(rng, nodes=rng.randint(3, 9), arcs=rng.randint(4, 18))
    residual = _ResidualArcs(net)
    s, t = net.node_index("s"), net.node_index("t")
    _establish_flow(residual, s, t, 1)
    found = 0
    while (cycle := _find_negative_cycle(residual)) is not None:
        _assert_negative_closed_walk(residual, cycle)
        residual.push(cycle, min(int(residual.cap[rid]) for rid in cycle))
        found += 1
    # The seeded ring makes the residual after one unit non-optimal.
    assert found >= 1
    check_flow(FlowResult(net, residual.flows(), 1), "s", "t", 1)


def test_no_cycle_on_an_optimal_residual():
    from repro.flow.cycle_canceling import _find_negative_cycle, _ResidualArcs

    net = FlowNetwork()
    net.add_arc("s", "a", capacity=2, cost=1.0)
    net.add_arc("a", "t", capacity=2, cost=1.0)
    net.add_arc("a", "b", capacity=1, cost=2.0)
    net.add_arc("b", "a", capacity=1, cost=-1.0)  # cycle of cost +1
    assert _find_negative_cycle(_ResidualArcs(net)) is None


def test_negative_forward_cycle_is_cancelled_at_zero_flow():
    net = FlowNetwork()
    net.add_arc("s", "t", capacity=1, cost=0.0)
    net.add_arc("a", "b", capacity=3, cost=-2.0)
    net.add_arc("b", "c", capacity=2, cost=1.0)
    net.add_arc("c", "a", capacity=5, cost=0.0)
    result = solve_by_cycle_canceling(net, "s", "t", 0)
    check_flow(result, "s", "t", 0)
    assert result.flows == [0, 2, 2, 2]
    assert result.cost == pytest.approx(-2.0)


def test_does_not_import_the_ssp_kernel():
    # Importing the package pulls in every solver, so inspect the module's
    # own import statements instead of ``sys.modules``.
    import ast
    import inspect

    from repro.flow import cycle_canceling

    tree = ast.parse(inspect.getsource(cycle_canceling))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{a.name}" for a in node.names)
    assert "repro.flow.graph" in imported  # the walk sees real imports
    forbidden = {"repro.flow.kernel", "repro.flow.warm_start", "repro.flow.ssp"}
    assert not imported & forbidden
