"""Hot-path guard: allocating never reads the per-arc ``Arc`` facade.

Validation, the lower-bound transform/recover and chain decomposition run
over :meth:`~repro.flow.graph.FlowNetwork.arrays`.  These tests make the
facade's bulk readers raise and check that a validated allocation and a
batch of small blocks still solve to the same energies.
"""

import random

import pytest

from repro.core.options import SolveOptions
from repro.core.problem import AllocationProblem
from repro.core.solver import allocate
from repro.energy import ActivityEnergyModel, MemoryConfig
from repro.energy.voltage import max_divisor_supply
from repro.flow.graph import FlowNetwork
from repro.service import BatchExecutor
from repro.workloads import rsp_schedule
from repro.workloads.random_blocks import random_lifetimes, spawn_rng

#: Table-1 RSP objective at memory divisor 2 (R = 16, activity model).
TABLE1_D2_ENERGY = 95.433131


def table1_d2():
    voltage = round(max_divisor_supply(2), 2)
    return AllocationProblem.from_schedule(
        rsp_schedule(rng=random.Random(2024)),
        register_count=16,
        energy_model=ActivityEnergyModel().with_voltages(voltage, 5.0),
        memory=MemoryConfig(divisor=2, voltage=voltage),
    )


def small_blocks(count=6):
    return [
        AllocationProblem(
            random_lifetimes(spawn_rng(17, "hot-path", case), 60, 24), 6, 24
        )
        for case in range(count)
    ]


def forbid_facade(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("Arc facade read on the solve path")

    monkeypatch.setattr(FlowNetwork, "arcs", property(refuse))
    monkeypatch.setattr(FlowNetwork, "arcs_from", refuse)
    monkeypatch.setattr(FlowNetwork, "arcs_into", refuse)


@pytest.fixture
def no_facade(monkeypatch):
    forbid_facade(monkeypatch)


def test_guard_trips_on_facade_reads(no_facade):
    net = FlowNetwork()
    net.add_arc("s", "t", capacity=1)
    with pytest.raises(AssertionError, match="facade"):
        net.arcs
    with pytest.raises(AssertionError, match="facade"):
        net.arcs_from("s")


def test_validated_lower_bounded_allocate_skips_facade(no_facade):
    allocation = allocate(table1_d2(), SolveOptions(validate=True))
    assert allocation.flow.network.has_lower_bounds()
    assert allocation.objective == pytest.approx(TABLE1_D2_ENERGY, abs=1e-5)


def test_small_block_batch_skips_facade(monkeypatch):
    expected = [
        r.objective
        for r in BatchExecutor(workers=1, cache=None).map_blocks(
            small_blocks()
        )
    ]
    forbid_facade(monkeypatch)
    results = BatchExecutor(workers=1, cache=None).map_blocks(small_blocks())
    assert all(r.ok for r in results), [r.error for r in results]
    assert [r.objective for r in results] == expected
