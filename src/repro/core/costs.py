"""Arc-cost assignment (the energy semantics of eqs. 3-10, generalised).

The paper attaches all energy deltas to the handoff arcs and keeps segment
arcs at cost zero (eq. 3).  This module uses the equivalent *uniform*
decomposition — read credits live on the segment arcs, entry/exit effects
on the handoff arcs — which extends cleanly to every segment kind the
splitting machinery can produce (access-time cuts, unsplit multi-read
lifetimes, forced segments).  Shifting cost between a segment arc and its
incident handoff arcs never changes any flow's total cost (conservation),
so optima are identical; :mod:`repro.core.paper_equations` provides the
literal per-equation arc costs and the tests cross-check the two.

Cost components, for an energy model ``E``:

* segment arc ``w_i(v) -> r_i(v)`` serving reads ``R_i``:
  ``|R_i| * (E.reg_read(v) - E.mem_read(v))`` — each served read comes from
  the register file instead of memory;
* handoff arc into a segment of ``v2`` (from a segment of ``v1``, or from
  the source ``s``):
  ``+ E.reg_write(v2, prev=v1)``  (new value enters the register), plus
  ``- E.mem_write(v2)`` when the segment is the variable's first (the
  definition write to memory is avoided), or
  ``+ E.mem_read(v2)`` when the segment begins at a pure access cut (an
  explicit reload from memory; a segment beginning at a read time
  piggybacks on the consumer's already-paid read);
* handoff arc out of a *non-final* segment of ``v1`` (to another variable
  or to the sink): ``+ E.mem_write(v1)`` — the live value is spilled back
  to memory so the variable's remaining reads can be served (the paper's
  eq. 6 spill term);
* intra-variable arcs ``r_i(v) -> w_{i+1}(v)`` cost nothing here (the read
  credit already sits on the segment arc, and a value staying put switches
  no register bits — ``H(v, v) = 0``).

The network builder prices every arc of a network from one
:class:`CostTable` (:func:`cost_table`): the entry and exit terms depend
on the segment alone and the register write on the (previous, new)
variable pair alone, so a handoff costs
``(exit[src] + enter[dst]) + pair[var(src), var(dst)]``.  The scalar
functions :func:`segment_cost`, :func:`handoff_cost` and
:func:`intra_cost` remain the per-arc reference that
:mod:`repro.core.paper_equations` and the tests price against;
``tests/core/test_cost_tables.py`` pins the table's column to them byte
for byte (the static model's separable form to rounding).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.energy.models import (
    ActivityEnergyModel,
    EnergyModel,
    StaticEnergyModel,
)
from repro.energy.switching import trace_hamming_matrix
from repro.ir.values import DataVariable
from repro.lifetimes.intervals import Segment

__all__ = [
    "CostTable",
    "cost_table",
    "variable_ids",
    "segment_cost",
    "handoff_cost",
    "intra_cost",
]


@dataclass(frozen=True)
class CostTable:
    """Factored arc costs of one flattened segment list under one model.

    Columns are ``float64`` indexed by flattened segment position unless
    noted:

    * ``segment[i]`` — cost of segment ``i``'s ``w -> r`` arc;
    * ``exit[i]`` — spill term charged when a handoff *leaves* segment
      ``i`` (zero on last segments);
    * ``enter[i]`` — entry term charged when a handoff *enters* segment
      ``i`` (definition-write credit or reload);
    * ``var_ids[i]`` (``int64``) — variable id of segment ``i``;
    * ``start[a]`` — register write when variable ``a`` enters a register
      of unknown contents (an arc leaving the flow source);
    * ``pair[a, b]`` — register write when variable ``b`` replaces
      variable ``a``.

    A handoff ``s -> d`` costs ``(exit[s] + enter[d]) + pair[var(s),
    var(d)]``; the flow source contributes ``exit = 0`` and ``start``
    instead of ``pair``, the sink ``enter = 0`` and no write.  That is
    :func:`handoff_cost`'s own evaluation order, so the column is
    bit-identical to the scalar reference.  The separable exact
    :class:`~repro.energy.models.StaticEnergyModel`, whose register write
    ignores the previous value, folds the write into ``enter`` and leaves
    ``start``/``pair`` as ``None``; its column agrees with the scalar
    reference to rounding.

    Attributes:
        priced_pair_arcs: Handoff arcs whose write was priced by a
            per-pair ``reg_write`` call (models without a vector table);
            zero for the static and activity models.
    """

    segment: np.ndarray
    exit: np.ndarray
    enter: np.ndarray
    var_ids: np.ndarray
    start: np.ndarray | None = None
    pair: np.ndarray | None = None
    priced_pair_arcs: int = 0

    def handoff_costs(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Costs of the handoff arcs ``src[j] -> dst[j]`` (``-1`` stands for
        the flow source in *src* and for the sink in *dst*)."""
        has_src = src >= 0
        has_dst = dst >= 0
        costs = np.where(has_src, self.exit[src], 0.0) + np.where(
            has_dst, self.enter[dst], 0.0
        )
        if self.pair is None or self.start is None:
            return costs
        src_var = self.var_ids[src]
        dst_var = self.var_ids[dst]
        writes = np.where(
            has_src, self.pair[src_var, dst_var], self.start[dst_var]
        )
        return costs + np.where(has_dst, writes, 0.0)


def cost_table(
    model: EnergyModel,
    segments: Sequence[Segment],
    var_ids: np.ndarray,
    handoff_src: np.ndarray,
    handoff_dst: np.ndarray,
) -> CostTable:
    """The :class:`CostTable` of *segments* under *model*.

    ``var_ids[i]`` numbers the variable of ``segments[i]`` in order of
    first appearance (see :func:`variable_ids`).

    The register-write tables come from a numpy Hamming matrix for the
    exact :class:`~repro.energy.models.ActivityEnergyModel` and from one
    ``reg_write`` call per distinct (source variable, target variable)
    pair among the handoffs ``handoff_src -> handoff_dst`` for any other
    model (subclasses included: they may override any method).  Access
    energies are read once per variable.
    """
    reads = np.array([seg.read_count for seg in segments], dtype=np.float64)
    is_first = np.array([seg.is_first for seg in segments], dtype=bool)
    is_last = np.array([seg.is_last for seg in segments], dtype=bool)
    at_cut = np.array([seg.starts_at_access_cut for seg in segments], dtype=bool)
    if not segments:
        empty = np.zeros(0)
        return CostTable(empty, empty, empty, var_ids)

    first = np.unique(var_ids, return_index=True)[1]
    variables = [segments[i].variable for i in first.tolist()]
    mem_read, mem_write, reg_read = (
        np.array([energy(v) for v in variables], dtype=np.float64)[var_ids]
        for energy in (model.mem_read, model.mem_write, model.reg_read)
    )
    exit_terms = np.where(is_last, 0.0, mem_write)
    enter_terms = np.where(is_first, -mem_write, np.where(at_cut, mem_read, 0.0))
    if type(model) is StaticEnergyModel:
        # Separable: the constant write joins the entry term.  This
        # association can differ from handoff_cost's in the last bit at
        # scaled voltages, and zero-read segments carry ``0 * credit``
        # (-0.0); both are kept so static-model columns stay byte-stable.
        return CostTable(
            reads * (reg_read - mem_read),
            exit_terms,
            model.reg_write(variables[0], None) + enter_terms,
            var_ids,
        )
    segment = np.where(reads == 0, 0.0, reads * (reg_read - mem_read))
    priced = 0
    if type(model) is ActivityEnergyModel:
        start, pair = _activity_writes(model, variables)
    else:
        start, pair, priced = _priced_writes(
            model, variables, var_ids, handoff_src, handoff_dst
        )
    return CostTable(
        segment, exit_terms, enter_terms, var_ids, start, pair, priced
    )


def variable_ids(segments: Sequence[Segment]) -> np.ndarray:
    """``int64`` id of each segment's variable, numbered by first appearance."""
    ids: dict[str, int] = {}
    return np.array(
        [ids.setdefault(seg.name, len(ids)) for seg in segments], dtype=np.int64
    )


def _activity_writes(
    model: ActivityEnergyModel, variables: list[DataVariable]
) -> tuple[np.ndarray, np.ndarray]:
    """``reg_write`` tables of eq. (2): bit energy x Hamming distance."""
    bit = model.table.energy(model.table.reg_bit, model.reg_voltage)
    widths = np.array([v.width for v in variables], dtype=np.float64)
    start = bit * (widths * model.start_activity)
    return start, bit * trace_hamming_matrix(variables)


def _priced_writes(
    model: EnergyModel,
    variables: list[DataVariable],
    var_ids: np.ndarray,
    handoff_src: np.ndarray,
    handoff_dst: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """``reg_write`` tables of an arbitrary model, one call per distinct
    (previous variable, new variable) pair the handoffs actually use."""
    n = len(variables)
    into = handoff_dst >= 0
    from_source = into & (handoff_src < 0)
    between = into & (handoff_src >= 0)
    start = np.zeros(n)
    for b in np.unique(var_ids[handoff_dst[from_source]]).tolist():
        start[b] = model.reg_write(variables[b], None)
    pair = np.zeros((n, n))
    codes = var_ids[handoff_src[between]] * n + var_ids[handoff_dst[between]]
    for code in np.unique(codes).tolist():
        a, b = divmod(code, n)
        pair[a, b] = model.reg_write(variables[b], variables[a])
    return start, pair, int(np.count_nonzero(into))


def segment_cost(model: EnergyModel, segment: Segment) -> float:
    """Cost of the ``w_i(v) -> r_i(v)`` arc (register-resident segment)."""
    v = segment.variable
    reads = segment.read_count
    if not reads:
        return 0.0
    return reads * (model.reg_read(v) - model.mem_read(v))


def handoff_cost(
    model: EnergyModel,
    source: Segment | None,
    target: Segment | None,
) -> float:
    """Cost of a handoff arc.

    Args:
        model: Energy model.
        source: Segment whose read node the arc leaves, or ``None`` for the
            flow source ``s`` (register initially holds unknown data).
        target: Segment whose write node the arc enters, or ``None`` for
            the sink ``t`` (register retires).

    Returns:
        The arc cost (may be negative: register residency usually *saves*
        energy relative to the all-in-memory constant term).
    """
    cost = 0.0
    if source is not None and not source.is_last:
        # Spill: remaining reads of the source variable need a memory copy.
        cost += model.mem_write(source.variable)
    if target is not None:
        if target.is_first:
            cost -= model.mem_write(target.variable)
        elif target.starts_at_access_cut:
            cost += model.mem_read(target.variable)
        prev = source.variable if source is not None else None
        cost += model.reg_write(target.variable, prev)
    return cost


def intra_cost(
    model: EnergyModel, earlier: Segment, later: Segment
) -> float:
    """Cost of the intra-variable arc ``r_i(v) -> w_{i+1}(v)``.

    Zero under the uniform decomposition: the value stays in its register
    (no bit flips, no new accesses) and the read credit is carried by the
    segment arc.
    """
    return 0.0
