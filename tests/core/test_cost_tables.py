"""The factored cost table prices every arc exactly as the scalar reference.

:func:`repro.core.costs.cost_table` fills a network's cost column from
per-segment vectors and a per-variable-pair write table; the scalar
functions :func:`segment_cost`, :func:`intra_cost` and
:func:`handoff_cost` stay the reference.  These tests compare the two
column by column, byte for byte, for the static and activity models,
whose tables come from numpy, and for models priced once per distinct
variable pair (the pairwise model and user models).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import costs
from repro.core.network_builder import build_network, recost_network
from repro.core.problem import AllocationProblem
from repro.energy import (
    ActivityEnergyModel,
    MemoryConfig,
    PairwiseSwitchingModel,
    StaticEnergyModel,
    pairwise_activity_table,
)
from repro.energy import models as energy_models
from repro.ir import values
from repro.ir.values import DataVariable
from repro.lifetimes.intervals import Lifetime

HORIZON = 14
WIDTHS = (4, 8, 16, 24)


class SkewedActivityModel(ActivityEnergyModel):
    """A user subclass: register writes depend on the direction of the
    handoff, so no symmetric table can stand in for ``reg_write``."""

    def reg_write(self, v, prev):
        base = super().reg_write(v, prev)
        if prev is None:
            return base + 0.125
        return base * (1.0 + 0.01 * len(prev.name)) + 0.001 * v.width


class WidthScaledModel:
    """A protocol implementation whose access energies vary per variable."""

    def __init__(self, scale: float = 1.0) -> None:
        self.scale = scale

    def mem_read(self, v):
        return 0.3 * v.width * self.scale

    def mem_write(self, v):
        return 0.45 * v.width * self.scale

    def reg_read(self, v):
        return 0.02 * v.width

    def reg_write(self, v, prev):
        if prev is None:
            return 0.05 * v.width
        return 0.01 * abs(v.width - prev.width) + 0.03 * (prev.name < v.name)

    def with_voltages(self, mem_voltage, reg_voltage):
        return WidthScaledModel(mem_voltage / 5.0)


def random_lifetimes(seed: int, count: int = 9) -> dict[str, Lifetime]:
    """Lifetimes with mixed widths and traces of unequal (or no) length."""
    rng = random.Random(seed)
    lifetimes = {}
    for index in range(count):
        width = rng.choice(WIDTHS)
        samples = rng.choice((0, 0, 1, 3, 8, 9))
        trace = tuple(rng.getrandbits(width) for _ in range(samples))
        write = rng.randint(0, HORIZON - 2)
        reads = tuple(
            sorted(rng.sample(range(write + 1, HORIZON + 1), rng.randint(1, 2)))
            if HORIZON - write >= 2
            else (HORIZON,)
        )
        name = f"v{index}"
        lifetimes[name] = Lifetime(DataVariable(name, width, trace), write, reads)
    return lifetimes


def pairwise_model(lifetimes) -> PairwiseSwitchingModel:
    variables = [lt.variable for lt in lifetimes.values()]
    table = pairwise_activity_table(variables)
    # An asymmetric entry and a reverse-only entry exercise both lookups.
    table[("v0", "v1")] = 0.125
    table[("v1", "v0")] = 0.875
    table.pop(("v2", "v3"), None)
    table[("v3", "v2")] = 0.25
    return PairwiseSwitchingModel(
        activities=table, start_activity=0.4, default_activity=0.3
    )


def make_model(kind: str, lifetimes):
    if kind == "static":
        return StaticEnergyModel()
    if kind == "static_scaled":
        return StaticEnergyModel().with_voltages(3.3, 2.7)
    if kind == "activity":
        return ActivityEnergyModel()
    if kind == "activity_start":
        return ActivityEnergyModel(start_activity=0.3).with_voltages(3.1, 4.4)
    if kind == "pairwise":
        return pairwise_model(lifetimes)
    if kind == "subclass":
        return SkewedActivityModel()
    return WidthScaledModel()


VECTOR_MODELS = ("activity", "activity_start")
PRICED_MODELS = ("pairwise", "subclass", "protocol")
STATIC_MODELS = ("static", "static_scaled")


def make_problem(seed, kind, style="adjacent", divisor=1, forced=False):
    lifetimes = random_lifetimes(seed)
    options = {}
    if divisor > 1:
        options["memory"] = MemoryConfig(divisor=divisor, voltage=3.3)
    problem = AllocationProblem(
        lifetimes,
        register_count=3,
        horizon=HORIZON,
        energy_model=make_model(kind, lifetimes),
        graph_style=style,
        **options,
    )
    if not forced:
        return problem
    keys = sorted(seg.key for segs in problem.segments.values() for seg in segs)
    return AllocationProblem(
        lifetimes,
        register_count=3,
        horizon=HORIZON,
        energy_model=problem.energy_model,
        graph_style=style,
        forced_segments=frozenset(keys[::4]),
        **options,
    )


def flattened(problem):
    return [seg for segs in problem.segments.values() for seg in segs]


def scalar_column(built) -> np.ndarray:
    """The cost column priced arc by arc with the scalar reference."""
    model = built.problem.energy_model
    roles = built.roles
    segments = flattened(built.problem)

    def at(position):
        return segments[position] if position >= 0 else None

    column = [costs.segment_cost(model, seg) for seg in segments]
    column += [
        costs.intra_cost(model, segments[i], segments[i + 1])
        for i in roles.intra_pairs.tolist()
    ]
    column += [
        costs.handoff_cost(model, at(s), at(d))
        for s, d in zip(roles.handoff_src.tolist(), roles.handoff_dst.tolist())
    ]
    if roles.bypass_arc >= 0:
        column.append(0.0)
    assert len(column) == built.network.num_arcs
    return np.array(column, dtype=np.float64)


def separable_column(built) -> np.ndarray:
    """The static model's column in its separable evaluation order: the
    register write joins the entry term before the spill term is added,
    and a zero-read segment keeps the product ``0 * credit``."""
    model = built.problem.energy_model
    roles = built.roles
    segments = flattened(built.problem)

    def handoff(src, dst):
        out = 0.0
        if src is not None and not src.is_last:
            out = model.mem_write(src.variable)
        if dst is None:
            return out + 0.0
        if dst.is_first:
            entry = -model.mem_write(dst.variable)
        elif dst.starts_at_access_cut:
            entry = model.mem_read(dst.variable)
        else:
            entry = 0.0
        return out + (model.reg_write(dst.variable, None) + entry)

    column = [
        float(seg.read_count)
        * (model.reg_read(seg.variable) - model.mem_read(seg.variable))
        for seg in segments
    ]
    column += [0.0] * len(roles.intra_pairs)
    column += [
        handoff(
            segments[s] if s >= 0 else None, segments[d] if d >= 0 else None
        )
        for s, d in zip(roles.handoff_src.tolist(), roles.handoff_dst.tolist())
    ]
    if roles.bypass_arc >= 0:
        column.append(0.0)
    return np.array(column, dtype=np.float64)


def assert_column_matches_reference(built):
    column = built.network.arrays().costs
    if type(built.problem.energy_model) is StaticEnergyModel:
        assert column.tobytes() == separable_column(built).tobytes()
        # The two association orders agree to rounding.
        np.testing.assert_allclose(
            column, scalar_column(built), rtol=1e-12, atol=1e-12
        )
    else:
        assert column.tobytes() == scalar_column(built).tobytes()


SHAPES = [
    pytest.param("adjacent", 1, False, id="adjacent"),
    pytest.param("all_pairs", 1, False, id="all_pairs"),
    pytest.param("adjacent", 2, False, id="divisor2"),
    pytest.param("all_pairs", 2, True, id="all_pairs-divisor2-forced"),
    pytest.param("adjacent", 1, True, id="forced"),
]


@pytest.mark.parametrize("style, divisor, forced", SHAPES)
@pytest.mark.parametrize(
    "kind", STATIC_MODELS + VECTOR_MODELS + PRICED_MODELS
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_built_column_equals_scalar_reference(seed, kind, style, divisor, forced):
    built = build_network(make_problem(seed, kind, style, divisor, forced))
    assert len(built.roles.handoff_src) > 0
    assert_column_matches_reference(built)


def test_instances_cover_the_trace_edge_cases():
    variables = [lt.variable for lt in random_lifetimes(1).values()]
    lengths = {len(v.trace) for v in variables}
    assert 0 in lengths and len(lengths - {0}) >= 2
    assert len({v.width for v in variables}) >= 2


@pytest.mark.parametrize("kind", STATIC_MODELS + VECTOR_MODELS + PRICED_MODELS)
@pytest.mark.parametrize("divisor", [1, 2])
def test_recost_after_voltage_change_equals_fresh_build(kind, divisor):
    problem = make_problem(5, kind, divisor=divisor)
    built = build_network(problem)
    model = problem.energy_model.with_voltages(2.2, 3.9)
    scaled = AllocationProblem(
        problem.lifetimes,
        register_count=problem.register_count,
        horizon=problem.horizon,
        energy_model=model,
        memory=problem.memory,
        graph_style=problem.graph_style,
    )
    recosted = recost_network(built, scaled)
    fresh = build_network(scaled)
    assert (
        recosted.network.arrays().costs.tobytes()
        == fresh.network.arrays().costs.tobytes()
    )
    assert_column_matches_reference(recosted)


@pytest.mark.parametrize("kind", STATIC_MODELS + VECTOR_MODELS)
def test_table_models_never_price_per_arc(monkeypatch, kind):
    problem = make_problem(4, kind, divisor=2)
    expected = scalar_column(build_network(problem))

    def refuse(*args, **kwargs):
        raise AssertionError("per-arc scalar pricing on a table model")

    monkeypatch.setattr(costs, "handoff_cost", refuse)
    monkeypatch.setattr(costs, "segment_cost", refuse)
    monkeypatch.setattr(values, "mean_trace_hamming", refuse)
    monkeypatch.setattr(energy_models, "mean_trace_hamming", refuse)
    monkeypatch.setattr(ActivityEnergyModel, "reg_write", refuse)
    built = build_network(problem)
    recost_network(built, problem)
    column = built.network.arrays().costs
    np.testing.assert_allclose(column, expected, rtol=1e-12, atol=1e-12)


def test_user_model_is_priced_once_per_distinct_pair():
    calls = []

    class CountingModel(SkewedActivityModel):
        def reg_write(self, v, prev):
            calls.append((prev.name if prev else None, v.name))
            return super().reg_write(v, prev)

    problem = AllocationProblem(
        random_lifetimes(6, count=12),
        register_count=3,
        horizon=HORIZON,
        energy_model=CountingModel(),
        graph_style="all_pairs",
    )
    built = build_network(problem)
    roles = built.roles
    segments = flattened(problem)
    used = {
        (segments[s].name if s >= 0 else None, segments[d].name)
        for s, d in zip(roles.handoff_src.tolist(), roles.handoff_dst.tolist())
        if d >= 0
    }
    assert sorted(calls, key=str) == sorted(used, key=str)
    # Far more arcs than distinct pairs: the per-pair table is the saving.
    assert int(np.count_nonzero(roles.handoff_dst >= 0)) > len(used)
    assert_column_matches_reference(built)


def test_empty_problem_builds_an_empty_table():
    none = np.zeros(0, np.int64)
    table = costs.cost_table(ActivityEnergyModel(), [], none, none, none)
    assert table.segment.shape == (0,)
    assert table.handoff_costs(none, none).shape == (0,)
