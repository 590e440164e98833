"""Generic interval-chaining by minimum-cost flow.

Several parts of the system solve the same sub-problem: partition a set of
time intervals into chains of pairwise non-overlapping intervals while
minimising the total cost of consecutive pairings.  The paper's second
flow pass (memory reallocation with an activity model) and the
Chang-Pedram-style low-power register *binding* baseline [8] are both
instances, differing only in the pair-cost function and the handoff rule.

The flow encoding mirrors section 5.1: one capacity-1 arc per interval
(lower bound 1 when every interval must be placed), handoff arcs between
compatible interval pairs carrying the pair cost, and a fixed flow equal to
the number of chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.exceptions import AllocationError
from repro.flow.decompose import decompose_into_arc_ids
from repro.flow.graph import FlowNetwork
from repro.flow.lower_bounds import solve as flow_solve
from repro.lifetimes.intervals import Lifetime, density_profile

__all__ = ["ChainAssignment", "optimal_interval_chains"]

#: Pair cost: ``cost(previous, interval)`` where ``previous`` is ``None``
#: for the first interval of a chain.
PairCost = Callable[[Lifetime | None, Lifetime], float]


@dataclass
class ChainAssignment:
    """Result of :func:`optimal_interval_chains`.

    Attributes:
        chains: One time-ordered interval list per chain (physical register
            or memory location).
        total_cost: Sum of pair costs over all consecutive pairings,
            including each chain's start cost.
    """

    chains: list[list[Lifetime]]
    total_cost: float

    @property
    def chain_count(self) -> int:
        return len(self.chains)

    def chain_of(self, name: str) -> int:
        """Index of the chain containing the interval called *name*."""
        for index, chain in enumerate(self.chains):
            if any(interval.name == name for interval in chain):
                return index
        raise AllocationError(f"interval {name!r} is not on any chain")


def optimal_interval_chains(
    intervals: Iterable[Lifetime],
    horizon: int,
    pair_cost: PairCost,
    chain_count: int | None = None,
    style: str = "adjacent",
    force_all: bool = True,
    interval_cost: Callable[[Lifetime], float] | None = None,
) -> ChainAssignment:
    """Partition *intervals* into minimum-cost chains.

    Args:
        intervals: The intervals to chain (each placed exactly once when
            *force_all*, at most once otherwise).
        horizon: Largest step ``x`` of the underlying schedule.
        pair_cost: Cost of placing an interval after another on the same
            chain (``previous=None`` for chain starts).
        chain_count: Number of chains; defaults to the maximum interval
            density (the minimum feasible when *force_all*).
        style: ``"adjacent"`` restricts handoffs to maximum-density-free
            idle windows (minimum-location guarantee); ``"all_pairs"``
            allows any time-compatible pairing (prior art [8]).
        force_all: Every interval must land on a chain (lower bound 1).
        interval_cost: Optional cost charged when an interval is placed on
            a chain (used by the hierarchy partition to encode per-variable
            savings as negative costs; only meaningful with
            ``force_all=False``).

    Returns:
        The optimal :class:`ChainAssignment`.

    Raises:
        InfeasibleFlowError: If *chain_count* chains cannot hold all
            intervals (only possible when *force_all*).
    """
    items: list[Lifetime] = sorted(
        intervals, key=lambda lt: (lt.start, lt.end, lt.name)
    )
    if not items:
        return ChainAssignment([], 0.0)
    profile = density_profile(items, horizon)
    peak = max(profile)
    if chain_count is None:
        chain_count = peak

    era = _era_of(profile, peak, horizon)
    if style == "adjacent":
        def compatible(read_time: int, write_time: int) -> bool:
            return read_time <= write_time and era[read_time] == era[write_time]
    elif style == "all_pairs":
        def compatible(read_time: int, write_time: int) -> bool:
            return read_time <= write_time
    else:
        raise AllocationError(f"unknown chain style {style!r}")

    network = FlowNetwork()
    source, sink = "s", "t"
    network.add_node(source)
    network.add_node(sink)
    for item in items:
        network.add_arc(
            ("w", item.name),
            ("r", item.name),
            capacity=1,
            lower=1 if force_all else 0,
            cost=interval_cost(item) if interval_cost else 0.0,
            data=("interval", item),
        )
    end_time = horizon + 1
    for item in items:
        if compatible(0, item.start):
            network.add_arc(
                source,
                ("w", item.name),
                capacity=1,
                cost=pair_cost(None, item),
                data=("start", item),
            )
        if compatible(item.end, end_time):
            network.add_arc(
                ("r", item.name),
                sink,
                capacity=1,
                cost=0.0,
                data=("end", item),
            )
        for other in items:
            if other.name == item.name:
                continue
            if compatible(item.end, other.start):
                network.add_arc(
                    ("r", item.name),
                    ("w", other.name),
                    capacity=1,
                    cost=pair_cost(item, other),
                    data=("pair", item, other),
                )
    # Spare chains (e.g. more registers than variables) ride a free
    # bypass; forced intervals are still pinned by their lower bounds.
    if chain_count > 0:
        network.add_arc(source, sink, capacity=chain_count, cost=0.0,
                        data=("bypass",))

    result = flow_solve(network, source, sink, chain_count)
    paths = decompose_into_arc_ids(result, source, sink)
    chains: list[list[Lifetime]] = []
    for path in paths:
        chain = [
            data[1]
            for data in map(network.arc_data, path)
            if data and data[0] == "interval"
        ]
        if chain:
            chains.append(chain)
    return ChainAssignment(chains, result.cost)


def _era_of(
    profile: Sequence[int], peak: int, horizon: int
) -> list[int]:
    """Era index per step (count of peak-density half-points before it)."""
    era = [0] * (horizon + 2)
    count = 0
    for k in range(horizon + 1):
        era[k] = count
        if peak > 0 and profile[k] == peak:
            count += 1
    era[horizon + 1] = count
    return era
