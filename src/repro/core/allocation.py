"""Allocation results: flow decomposition, residency, addresses, metrics.

Turns a solved flow into the artefacts a downstream code generator needs:

* *register chains* — each unit of flow decomposes into one ``s -> t`` path,
  i.e. the time-ordered sequence of variable segments sharing one physical
  register;
* a residency map (segment → register index, or memory);
* memory address assignment (left-edge over memory-resident intervals, so
  the address count equals the memory lifetime density — the minimum);
* an :class:`~repro.energy.report.EnergyReport` recomputed independently
  from the extracted allocation, which the tests check against the flow
  objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.network_builder import BuiltNetwork
from repro.core.problem import AllocationProblem
from repro.energy.report import EnergyReport
from repro.exceptions import AllocationError, GraphError
from repro.flow.decompose import decompose_into_arc_ids
from repro.flow.graph import FlowResult
from repro.lifetimes.intervals import Segment

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.core.banking import BankAssignment

__all__ = [
    "Allocation",
    "AllocationResult",
    "decompose_chains",
    "compute_report",
    "assign_addresses",
    "memory_intervals",
]


@dataclass
class Allocation:
    """A complete solution of Problem 1.

    Attributes:
        problem: The solved instance.
        flow: The optimal flow.
        chains: Register chains — ``chains[i]`` is the time-ordered list of
            segments register ``i`` holds.
        residency: Segment key → register index (segments absent from the
            map are memory resident).
        memory_addresses: Variable name → memory address for every variable
            with memory residency.
        report: Independent energy/access accounting of the solution.
        objective: Absolute storage energy — the flow cost plus the
            constant term the paper drops during optimisation.  With a
            multi-bank hierarchy this is the energy at the *reference*
            bank's operating point; see :attr:`total_energy`.
        unused_registers: Flow units routed through the bypass (registers
            the optimum leaves empty).
        banking: Bank placement of the memory-resident variables when the
            instance carries a multi-level
            :class:`~repro.core.storage.StorageSpec` (``None`` for the
            classic two-level model).
    """

    problem: AllocationProblem
    flow: FlowResult
    chains: list[list[Segment]]
    residency: dict[tuple[str, int], int]
    memory_addresses: dict[str, int]
    report: EnergyReport
    objective: float
    unused_registers: int = 0
    banking: "BankAssignment | None" = None

    @property
    def total_energy(self) -> float:
        """Absolute energy including per-bank deltas.

        Equals :attr:`objective` for two-level instances and for
        hierarchies whose banks all sit at the reference operating
        point."""
        if self.banking is None:
            return self.objective
        return self.objective + self.banking.delta_energy

    @property
    def address_count(self) -> int:
        """Number of distinct memory addresses used."""
        if not self.memory_addresses:
            return 0
        return max(self.memory_addresses.values()) + 1

    @property
    def registers_used(self) -> int:
        """Registers actually holding values (non-bypass chains)."""
        return len(self.chains)

    @property
    def storage_locations(self) -> int:
        """Registers used + memory addresses used (figure 4 metric)."""
        return self.registers_used + self.address_count

    def register_of(self, name: str, index: int = 0) -> int | None:
        """Register holding segment *index* of variable *name*, if any."""
        return self.residency.get((name, index))

    def in_register(self, name: str) -> bool:
        """True if *every* segment of the variable is register resident."""
        segments = self.problem.segments[name]
        return all(seg.key in self.residency for seg in segments)

    def register_variables(self) -> list[str]:
        """Variables fully register resident, in definition order."""
        return [
            name for name in self.problem.lifetimes if self.in_register(name)
        ]

    def memory_variables(self) -> list[str]:
        """Variables with at least one memory-resident segment."""
        return sorted(self.memory_addresses)

    def format(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"registers used : {self.registers_used} of "
            f"{self.problem.register_count}",
            f"memory address : {self.address_count}",
            f"objective      : {self.objective:.3f}",
        ]
        for reg, chain in enumerate(self.chains):
            steps = " -> ".join(
                f"{seg.name}[{seg.start},{seg.end}]" for seg in chain
            )
            lines.append(f"  R{reg}: {steps}")
        for name, address in sorted(self.memory_addresses.items()):
            lines.append(f"  M{address}: {name}")
        lines.append(self.report.format())
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.format()


#: Public alias of :class:`Allocation` — the stable name the package-level
#: API (``repro.allocate``) documents as its return type.
AllocationResult = Allocation


def decompose_chains(
    built: BuiltNetwork, flow: FlowResult
) -> tuple[list[list[Segment]], int]:
    """Split the flow into register chains plus the bypass unit count.

    Every flow unit follows a simple ``s -> t`` path (the network is acyclic
    and interior arcs have capacity 1); the segments visited along one path
    are the variables one register holds over time.
    """
    try:
        paths = decompose_into_arc_ids(flow, built.source, built.sink)
    except GraphError as exc:
        raise AllocationError(f"invalid allocation flow: {exc}") from exc
    payload = built.network.arc_data
    chains: list[list[Segment]] = []
    bypass_units = 0
    for path in paths:
        chain = [
            data[1]
            for data in map(payload, path)
            if data and data[0] == "segment"
        ]
        if chain:
            chains.append(chain)
        else:
            bypass_units += 1
    return chains, bypass_units


def compute_report(
    problem: AllocationProblem, chains: list[list[Segment]]
) -> EnergyReport:
    """Recompute access counts and energy from the extracted chains.

    This is an accounting of the *allocation*, not of the flow objective;
    equality of the two (up to the constant term) is a correctness
    invariant the test suite enforces.
    """
    model = problem.energy_model
    report = EnergyReport()
    registered = {seg.key for chain in chains for seg in chain}

    for name, segments in problem.segments.items():
        variable = problem.lifetimes[name].variable
        if segments[0].key not in registered:
            report.add_mem_write(model.mem_write(variable))
        for seg in segments:
            if not seg.read_count:
                continue
            if seg.key in registered:
                report.add_reg_read(
                    seg.read_count * model.reg_read(variable), seg.read_count
                )
            else:
                report.add_mem_read(
                    seg.read_count * model.mem_read(variable), seg.read_count
                )

    for chain in chains:
        prev_variable = None
        for position, seg in enumerate(chain):
            previous = chain[position - 1] if position else None
            intra = (
                previous is not None
                and previous.name == seg.name
                and previous.index + 1 == seg.index
            )
            if not intra:
                report.add_reg_write(
                    model.reg_write(seg.variable, prev_variable)
                )
                if not seg.is_first and seg.starts_at_access_cut:
                    report.add_mem_read(model.mem_read(seg.variable))
            prev_variable = seg.variable
            is_exit_to_other = (
                position + 1 == len(chain)
                or chain[position + 1].name != seg.name
                or chain[position + 1].index != seg.index + 1
            )
            if is_exit_to_other and not seg.is_last:
                report.add_mem_write(model.mem_write(seg.variable))
    return report


def memory_intervals(
    problem: AllocationProblem,
    residency: dict[tuple[str, int], int],
) -> dict[str, tuple[int, int]]:
    """Memory occupancy window (hull) per memory-resident variable."""
    intervals: dict[str, tuple[int, int]] = {}
    for name, segments in problem.segments.items():
        outside = [seg for seg in segments if seg.key not in residency]
        if outside:
            intervals[name] = (
                min(seg.start for seg in outside),
                max(seg.end for seg in outside),
            )
    return intervals


def assign_addresses(
    intervals: dict[str, tuple[int, int]],
) -> dict[str, int]:
    """Left-edge address assignment over memory intervals.

    Occupancy windows are open (the shared ``(start, end)`` convention), so
    an address freed by a read at step ``k`` is rewritable at step ``k``.
    Uses the minimum possible number of addresses (the interval-graph
    colouring optimum).
    """
    order = sorted(intervals.items(), key=lambda item: (item[1], item[0]))
    address_free_at: list[int] = []  # address -> end of last interval
    out: dict[str, int] = {}
    for name, (start, end) in order:
        for address, free_at in enumerate(address_free_at):
            if free_at <= start:
                address_free_at[address] = end
                out[name] = address
                break
        else:
            out[name] = len(address_free_at)
            address_free_at.append(end)
    return out
