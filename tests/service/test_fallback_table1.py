"""The cycle-cancelling rung on a table-1-sized job.

An SSP fault on the table-1 RSP instance must land on the independent
cycle-cancelling rung and still produce the pinned table-1 energy.  The
job runs in process at ``workers == 1``, where nothing can preempt it, so
the rung itself has to be fast; pytest's ``--durations`` listing shows
how long it takes.
"""

import random

import pytest

from repro.core.problem import AllocationProblem
from repro.energy import ActivityEnergyModel, MemoryConfig
from repro.energy.voltage import max_divisor_supply
from repro.service import BatchExecutor
from repro.workloads import rsp_schedule

#: Table-1 RSP objective at memory divisor 2 (R = 16, activity model,
#: seed 2024), as pinned in tests/verify/test_paper_differential.py.
TABLE1_DIVISOR2_ENERGY = 95.433131


def table1_problem(divisor: int) -> AllocationProblem:
    voltage = round(max_divisor_supply(divisor), 2)
    return AllocationProblem.from_schedule(
        rsp_schedule(rng=random.Random(2024)),
        register_count=16,
        energy_model=ActivityEnergyModel().with_voltages(voltage, 5.0),
        memory=MemoryConfig(divisor=divisor, voltage=voltage),
    )


def test_ssp_fault_on_table1_is_solved_by_cycle_canceling():
    executor = BatchExecutor(
        workers=1, cache=None, inject_faults={"ssp": 1}, max_retries=0
    )
    (result,) = executor.map_blocks([table1_problem(2)])
    assert result.ok, result.error
    assert result.solver == "cycle_canceling"
    assert result.fallbacks >= 1
    assert result.objective == pytest.approx(TABLE1_DIVISOR2_ENERGY, abs=1e-5)
