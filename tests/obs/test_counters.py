"""Counter accuracy of the instrumented solvers and builders.

The headline check hand-builds the flow network of a four-variable
allocation — four disjoint ``s -> w(v) -> r(v) -> t`` unit-capacity paths —
where the successive-shortest-path solver must augment *exactly once per
variable*, so the expected counter values are known in closed form.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.network_builder import build_network, recost_network
from repro.core.pipeline import allocate_block
from repro.core.problem import AllocationProblem
from repro.energy import ActivityEnergyModel, StaticEnergyModel
from repro.flow.cycle_canceling import solve_by_cycle_canceling
from repro.flow.graph import FlowNetwork
from repro.flow.ssp import solve_min_cost_flow
from repro.obs import trace as obs
from repro.workloads import fir_filter

from tests.conftest import make_lifetime


def four_variable_network() -> FlowNetwork:
    """Four parallel unit paths s -> w(v) -> r(v) -> t, one per variable."""
    network = FlowNetwork()
    for i, name in enumerate("abcd"):
        network.add_arc("s", ("w", name), capacity=1, cost=float(i))
        network.add_arc(("w", name), ("r", name), capacity=1, cost=1.0)
        network.add_arc(("r", name), "t", capacity=1, cost=0.0)
    return network


class TestSspCounters:
    def test_exact_augmenting_path_count(self):
        with obs.collect() as trace:
            result = solve_min_cost_flow(four_variable_network(), "s", "t", 4)
        assert result.value == 4
        counters = trace.counters
        # Unit capacities force one augmenting path per shipped unit.
        assert counters["ssp.augmenting_paths"] == 4
        assert counters["ssp.solves"] == 1
        # Every Dijkstra round settles at least the path's own nodes.
        assert counters["ssp.dijkstra_pops"] >= counters["ssp.augmenting_paths"]
        assert counters["ssp.dijkstra_relaxations"] > 0
        assert counters["ssp.potential_updates"] > 0

    def test_counters_are_deterministic(self):
        def run() -> dict:
            with obs.collect() as trace:
                solve_min_cost_flow(four_variable_network(), "s", "t", 4)
            return trace.counters

        assert run() == run()

    def test_partial_flow_counts_fewer_paths(self):
        with obs.collect() as trace:
            solve_min_cost_flow(four_variable_network(), "s", "t", 2)
        assert trace.counter("ssp.augmenting_paths") == 2

    def test_zero_flow_skips_the_solver(self):
        with obs.collect() as trace:
            solve_min_cost_flow(four_variable_network(), "s", "t", 0)
        assert trace.counters == {}


class TestCycleCancelingCounters:
    def test_optimal_establishment_cancels_nothing(self):
        # Disjoint unit paths: the cost-blind BFS flow is already optimal.
        with obs.collect() as trace:
            solve_by_cycle_canceling(four_variable_network(), "s", "t", 4)
        counters = trace.counters
        assert counters["cycle_canceling.solves"] == 1
        assert counters["cycle_canceling.augmentations"] == 4
        assert counters["cycle_canceling.cycles_canceled"] == 0
        assert counters["cycle_canceling.bellman_ford_passes"] >= 1

    def test_suboptimal_establishment_cancels_cycles(self):
        # Two parallel s->t routes with very different costs; BFS may pick
        # either, but a middle "swap" arc guarantees at least one instance
        # where cancelling fires: cheap route capacity 1, expensive huge.
        network = FlowNetwork()
        network.add_arc("s", "a", capacity=2, cost=0.0)
        network.add_arc("a", "t", capacity=1, cost=0.0)
        network.add_arc("a", "b", capacity=2, cost=10.0)
        network.add_arc("s", "b", capacity=2, cost=0.0)
        network.add_arc("b", "t", capacity=2, cost=0.0)
        with obs.collect() as trace:
            result = solve_by_cycle_canceling(network, "s", "t", 2)
        # Optimal cost avoids the 10.0 arc entirely.
        assert result.cost == pytest.approx(0.0)
        assert trace.counter("cycle_canceling.augmentations") >= 1


class TestNetworkBuilderCounters:
    def problem(self) -> AllocationProblem:
        lifetimes = {
            "a": make_lifetime("a", 0, 3),
            "b": make_lifetime("b", 1, 4),
            "c": make_lifetime("c", 2, 6),
            "d": make_lifetime("d", 5, 7),
        }
        return AllocationProblem(
            lifetimes, 2, 8, energy_model=StaticEnergyModel()
        )

    def test_counts_match_the_built_network(self):
        with obs.collect() as trace:
            built = build_network(self.problem())
        counters = trace.counters
        assert counters["network.builds"] == 1
        assert counters["network.nodes_built"] == built.network.num_nodes
        assert counters["network.arcs_built"] == built.network.num_arcs
        regions = trace.gauges["network.density_regions"]
        assert regions == len(built.problem.density_regions)

    def test_counts_accumulate_across_builds(self):
        problem = self.problem()
        with obs.collect() as trace:
            build_network(problem)
            build_network(problem)
        assert trace.counter("network.builds") == 2

    @pytest.mark.parametrize(
        "model",
        [StaticEnergyModel(), ActivityEnergyModel()],
        ids=["static", "activity"],
    )
    def test_table_models_price_every_arc_from_tables(self, model):
        problem = replace(self.problem(), energy_model=model)
        with obs.collect() as trace:
            built = build_network(problem)
            recost_network(built, problem)
        roles = built.roles
        priced = roles.num_segments + len(roles.handoff_src)
        assert trace.counter("network.fallback_cost_arcs") == 0
        assert trace.counter("network.vectorized_cost_arcs") == 2 * priced

    def test_user_models_count_only_per_pair_priced_arcs(self):
        class Custom(ActivityEnergyModel):
            pass

        problem = replace(self.problem(), energy_model=Custom())
        with obs.collect() as trace:
            built = build_network(problem)
        roles = built.roles
        into = int((roles.handoff_dst >= 0).sum())
        assert 0 < into < len(roles.handoff_src)
        assert trace.counter("network.fallback_cost_arcs") == into
        assert trace.counter("network.vectorized_cost_arcs") == (
            roles.num_segments + len(roles.handoff_src) - into
        )


class TestPipelineSpans:
    def test_full_pipeline_emits_stage_spans(self):
        with obs.collect() as trace:
            allocate_block(fir_filter(5), register_count=3)
        names = [root.name for root in trace.roots]
        assert names[:3] == [
            "pipeline.schedule",
            "pipeline.build_problem",
            "pipeline.allocate",
        ]
        allocate_span = trace.find("pipeline.allocate")
        child_names = [child.name for child in allocate_span.children]
        assert child_names == [
            "solver.build_network",
            "solver.flow_solve",
            "solver.validate",
            "solver.extract",
        ]
        assert all(child.duration >= 0.0 for child in allocate_span.children)

    def test_solver_counters_reach_the_same_trace(self):
        with obs.collect() as trace:
            allocate_block(fir_filter(5), register_count=3)
        counters = trace.counters
        assert counters["ssp.augmenting_paths"] > 0
        assert counters["ssp.dijkstra_pops"] > 0
        assert counters["network.arcs_built"] > 0
