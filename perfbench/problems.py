"""Turn generated inputs (:mod:`gen`) into ``repro`` problem instances.

Shared by the worker, which solves them, and by the checker, which
computes independent reference energies for the very same instances.
"""

from __future__ import annotations

import random

from repro import (
    ActivityEnergyModel,
    AllocationProblem,
    DataVariable,
    Lifetime,
    MemoryConfig,
    StaticEnergyModel,
    StorageSpec,
    extract_lifetimes,
    kernel_block,
    list_schedule,
    rsp_schedule,
)
from repro.energy.voltage import max_divisor_supply

_REGISTER_SUPPLY = 5.0


def block_problem(block: list, horizon: int, registers: int) -> AllocationProblem:
    """A static-model instance from :func:`gen.random_block` output."""
    lifetimes = {
        name: Lifetime(DataVariable(name), write, tuple(reads), live_out)
        for name, write, reads, live_out in block
    }
    return AllocationProblem(
        lifetimes, registers, horizon, energy_model=StaticEnergyModel()
    )


def batch_problems(op: dict) -> list[AllocationProblem]:
    return [
        block_problem(block, op["horizon"], op["registers"])
        for block in op["blocks"]
    ]


def base_supply(divisor: int) -> float:
    """Lowest memory supply meeting ``f / divisor`` (table 1's rounding)."""
    return round(max_divisor_supply(divisor), 2)


def _schedule(op: dict):
    if op["kernel"] == "rsp":
        return rsp_schedule(rng=random.Random(op["kernel_seed"]))
    return list_schedule(kernel_block(op["kernel"], seed=op["kernel_seed"]))


def pass_problems(op: dict) -> list[AllocationProblem]:
    """The five supply-ladder instances of one ``restricted_sweep`` pass.

    Unbanked passes scale the memory supply of a restricted memory;
    banked passes scale every bank's supply (and the reference supply
    the flow network is costed at) of a ``StorageSpec.banked`` hierarchy.
    """
    schedule = _schedule(op)
    lifetimes = extract_lifetimes(schedule)
    banked = op["banked"]
    problems = []
    for step in op["steps"]:
        if banked is None:
            voltage = round(base_supply(op["divisor"]) + step, 3)
            problems.append(
                AllocationProblem(
                    lifetimes,
                    op["registers"],
                    schedule.length,
                    energy_model=ActivityEnergyModel().with_voltages(
                        voltage, _REGISTER_SUPPLY
                    ),
                    memory=MemoryConfig(divisor=op["divisor"], voltage=voltage),
                )
            )
            continue
        voltage = round(base_supply(banked["period"]) + step, 3)
        storage = StorageSpec.banked(
            banked["banks"],
            banked["period"],
            voltages=[voltage] * banked["banks"],
            stagger=banked["stagger"],
        )
        problems.append(
            AllocationProblem(
                lifetimes,
                op["registers"],
                schedule.length,
                energy_model=ActivityEnergyModel().with_voltages(
                    storage.reference.voltage, _REGISTER_SUPPLY
                ),
                storage=storage,
            )
        )
    return problems


def op_problems(op: dict) -> list[AllocationProblem]:
    """Instances of one offline operation, in answer order."""
    if op["kind"] == "batch":
        return batch_problems(op)
    return pass_problems(op)
