"""Run reports: one JSON document per profiled pipeline run.

A *run report* is the schema shared by ``repro-alloc profile``, the
benchmark opt-in hook in ``benchmarks/conftest.py`` and any future perf
trajectory tooling (the ``BENCH_*.json`` files).  Version ``v1`` layout::

    {
      "schema": "repro.obs/run-report/v1",
      "workload": "fir",                  # workload / bench name
      "params": {"registers": 4, ...},    # free-form run parameters
      "wall_time_s": 0.0123,              # end-to-end wall time
      "stages": {"pipeline.allocate": 0.01,
                 "pipeline.allocate/solver.flow_solve": 0.006, ...},
      "trace": {"spans": [...],           # nested span tree
                "counters": {"ssp.dijkstra_pops": 451, ...},
                "gauges": {"network.density_regions": 2, ...}},
      "allocation": {"objective": ..., "registers_used": ...,
                     "address_count": ..., "mem_accesses": ...,
                     "reg_accesses": ..., "total_energy": ...}
    }

``stages`` flattens the span tree into slash-joined paths for quick
consumption, summing the durations of spans that share a path; the full
tree stays under ``trace``.  Reports are pure data —
they round-trip through :func:`json.dumps` / :func:`json.loads` unchanged.
"""

from __future__ import annotations

import io
import json
import time
from typing import Any

from repro.obs.export import flatten_spans, trace_to_dict
from repro.obs.trace import TraceCollector, collect

__all__ = [
    "SCHEMA",
    "build_report",
    "format_report",
    "profile_block",
    "report_to_csv",
    "report_to_json",
]

#: Schema identifier stamped on every run report.
SCHEMA = "repro.obs/run-report/v1"


def build_report(
    *,
    workload: str,
    trace: TraceCollector,
    params: dict[str, Any] | None = None,
    wall_time_s: float | None = None,
    allocation: Any = None,
) -> dict[str, Any]:
    """Assemble a run-report dict from a finished trace.

    Args:
        workload: Workload or benchmark name the trace belongs to.
        trace: The collector captured around the run.
        params: Free-form run parameters (register count, seed, ...).
        wall_time_s: End-to-end wall time; defaults to the sum of the
            trace's root-span durations.
        allocation: Optional :class:`~repro.core.allocation.Allocation`
            whose headline numbers are summarised under ``allocation``.

    Returns:
        A JSON-ready dict following :data:`SCHEMA`.
    """
    if wall_time_s is None:
        wall_time_s = sum(root.duration for root in trace.roots)
    report: dict[str, Any] = {
        "schema": SCHEMA,
        "workload": workload,
        "params": dict(params or {}),
        "wall_time_s": wall_time_s,
        "stages": _stage_totals(trace),
        "trace": trace_to_dict(trace),
    }
    if allocation is not None:
        report["allocation"] = {
            "objective": allocation.objective,
            "registers_used": allocation.registers_used,
            "unused_registers": allocation.unused_registers,
            "address_count": allocation.address_count,
            "mem_accesses": allocation.report.mem_accesses,
            "reg_accesses": allocation.report.reg_accesses,
            "total_energy": allocation.report.total_energy,
        }
    return report


def _stage_totals(trace: TraceCollector) -> dict[str, float]:
    """Total duration per span path; repeated paths (a stage run once
    per job or per sweep point) are summed, not overwritten."""
    stages: dict[str, float] = {}
    for path, duration in flatten_spans(trace):
        stages[path] = stages.get(path, 0.0) + duration
    return stages


def profile_block(
    block: Any,
    register_count: int,
    *,
    energy_model: Any = None,
    memory: Any = None,
    workload: str | None = None,
    params: dict[str, Any] | None = None,
    **options: Any,
) -> dict[str, Any]:
    """Run the full pipeline on *block* under tracing; return a run report.

    Schedules the block, builds the problem, solves the flow and runs the
    memory-reallocation pass — all inside a fresh collector — then packages
    the captured spans and counters with :func:`build_report`.

    Args:
        block: The :class:`~repro.ir.basic_block.BasicBlock` to profile.
        register_count: Register file size ``R``.
        energy_model: Forwarded to the pipeline (default static model).
        memory: Memory operating point (default full speed).
        workload: Report name; defaults to ``block.name``.
        params: Extra run parameters recorded verbatim in the report.
        **options: Forwarded to
            :func:`repro.core.pipeline.allocate_block`.
    """
    from repro.core.pipeline import allocate_block

    start = time.perf_counter()
    with collect() as trace:
        result = allocate_block(
            block,
            register_count=register_count,
            energy_model=energy_model,
            memory=memory,
            **options,
        )
    wall = time.perf_counter() - start
    return build_report(
        workload=workload or block.name,
        trace=trace,
        params=params,
        wall_time_s=wall,
        allocation=result.allocation,
    )


def report_to_json(report: dict[str, Any], indent: int = 2) -> str:
    """Render a run report as JSON text (sorted keys, trailing newline)."""
    return json.dumps(report, indent=indent, sort_keys=True) + "\n"


def report_to_csv(report: dict[str, Any]) -> str:
    """CSV view of a run report: stages, counters, gauges and summary."""
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("kind", "name", "value"))
    writer.writerow(("meta", "schema", report["schema"]))
    writer.writerow(("meta", "workload", report["workload"]))
    writer.writerow(("meta", "wall_time_s", f"{report['wall_time_s']:.9f}"))
    for path, duration in sorted(report["stages"].items()):
        writer.writerow(("stage", path, f"{duration:.9f}"))
    trace = report.get("trace", {})
    for name, value in sorted(trace.get("counters", {}).items()):
        writer.writerow(("counter", name, value))
    for name, value in sorted(trace.get("gauges", {}).items()):
        writer.writerow(("gauge", name, value))
    for name, value in sorted(report.get("allocation", {}).items()):
        writer.writerow(("allocation", name, value))
    return buffer.getvalue()


def format_report(report: dict[str, Any]) -> str:
    """Human-readable run report (tables for stages, counters, summary)."""
    from repro.analysis.tables import format_table

    lines = [
        f"run report — {report['workload']} "
        f"(wall {report['wall_time_s'] * 1e3:.2f} ms)",
    ]
    params = report.get("params")
    if params:
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
        lines.append(f"params: {rendered}")
    stages = report.get("stages", {})
    if stages:
        lines.append("")
        lines.append(
            format_table(
                ("stage", "ms"),
                [
                    (path, duration * 1e3)
                    for path, duration in sorted(stages.items())
                ],
            )
        )
    trace = report.get("trace", {})
    counters = trace.get("counters", {})
    gauges = trace.get("gauges", {})
    if counters or gauges:
        lines.append("")
        lines.append(
            format_table(
                ("counter", "value"),
                sorted(counters.items()) + sorted(gauges.items()),
            )
        )
    allocation = report.get("allocation")
    if allocation:
        lines.append("")
        lines.append(
            format_table(("result", "value"), sorted(allocation.items()))
        )
    return "\n".join(lines)
