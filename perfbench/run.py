"""Repository benchmark: one closed-loop workload, checked and measured.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch_small --seed 1 --seconds 15 --trace 0

Workloads: ``batch_small``, ``restricted_sweep``, ``fallback_ladder``,
``serve_mixed`` (see ``perfbench/NOTES.md`` for why each exists).

The measured work runs in a child process (``worker.py``, or
``client.py`` plus a ``repro-alloc serve`` process), pinned with this
process to one CPU.  Every timed operation is preceded by a probe
(:mod:`probe`) and its time is scaled by ``PROBE_NOMINAL_MS`` over the
mean of the nearby probes, which cancels the host's speed drift.  After
the run every answer is checked (:mod:`check`).

Output: a ``detail`` JSON line (raw and normalised figures, latency
tail, self-checks, provenance stamp), then, as the last line, the
result object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits non-zero without a result if the program's source
tree is missing or a child process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
from probe import PROBE_NOMINAL_MS, SETUP_SAMPLES, settle
from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
#: Probes on each side of an operation averaged into its factor.
PROBE_WINDOW = 3
#: Wall-clock limit for the child processes of one run, seconds.
CHILD_TIMEOUT = 150
#: Fixed hash seed for every child interpreter.
HASH_SEED = "0"
#: Program counters that must repeat exactly on a replayed operation.
DETERMINISTIC_COUNTERS = (
    "solver.flow_solve.calls",
    "ssp.augmenting_paths",
    "solver.warm_start.cold",
    "solver.warm_start.incremental",
    "banking.rounds",
    "cycle_canceling.cycles_canceled",
)

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric a traced run prints."""
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls_per_op"] = "count/op"
        units[f"{layer}.self_ms_per_op"] = "ms/op"
        units[f"{layer}.share"] = "%"
    units.update(
        {
            "unattributed.share": "%",
            "flow.kernel.augmenting_paths": "count/op",
            "flow.warm_start.incremental_ratio": "ratio",
            "core.banking.rounds": "count/op",
            "service.cache.hit_ratio": "ratio",
            "service.lintgate.reject_ratio": "ratio",
            "service.ladder.fallbacks": "count/op",
            "solver.flow_solve.calls": "count/op",
            "host.probe_ms": "ms",
            "host.wall_jobs_per_s": "1/s",
            "trace.overhead_ratio": "ratio",
        }
    )
    return units


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE), str(HERE), *filter(None, [env.get("PYTHONPATH")])]
    )
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def spawn(script: str, config: dict, deadline: float) -> list[str]:
    """Run a child with *config* on stdin; return its stdout lines."""
    # A process group of its own, so a timeout can stop the child's own
    # children (the serve client's server) along with it.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / script)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=child_env(),
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(
            json.dumps(config), timeout=max(1.0, deadline - time.monotonic())
        )
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RuntimeError(f"{script} exceeded the run's time limit") from None
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited with {proc.returncode}")
    return out.splitlines()


def tagged(lines: list[str], tag: str) -> dict:
    for line in lines:
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    raise RuntimeError(f"child printed no {tag} line")


def run_offline(config: dict, deadline: float) -> dict:
    """Set-up samples from fresh worker processes, then the measured run.

    Set-up is timed from just before the process is spawned to the
    worker's ``READY`` stamp (one system-wide monotonic clock), and
    bracketed by the parent's probes before and the worker's after.
    """
    samples = []
    for sample in range(SETUP_SAMPLES):
        last = sample == SETUP_SAMPLES - 1
        before = settle()
        started = time.monotonic()
        lines = spawn("worker.py", {**config, "setup_only": not last}, deadline)
        ready = tagged(lines, "READY")
        samples.append(
            {"raw_s": ready["at"] - started, "probes": before + ready["probes"]}
        )
    result = tagged(lines, "RESULT")
    result["setup"] = samples
    return result


def run_serve(config: dict, deadline: float) -> dict:
    return tagged(spawn("client.py", config, deadline), "RESULT")


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def op_factors(probes: list[float], count: int) -> list[float]:
    """Per-operation factor from the mean of the surrounding probes.

    Operation *i* sits between probes *i* and *i + 1*; a single probe is
    too short to read the host's speed, so the window takes
    :data:`PROBE_WINDOW` probes on each side.
    """
    factors = []
    for index in range(count):
        low = max(0, index + 1 - PROBE_WINDOW)
        high = min(len(probes), index + 1 + PROBE_WINDOW)
        factors.append(PROBE_NOMINAL_MS / statistics.fmean(probes[low:high]))
    return factors


def tail(values_ms: list[float]) -> dict:
    """Highest standard percentile with at least ten samples beyond it."""
    ordered = sorted(values_ms)
    count = len(ordered)
    best = None
    for percentile in (50, 90, 95, 99, 99.9):
        beyond = count - int(count * percentile / 100.0)
        if beyond >= 10 or percentile == 50:
            best = percentile
    beyond = count - int(count * best / 100.0)
    return {
        "percentile": best,
        "value_ms": ordered[min(count - 1, int(count * best / 100.0))],
        "samples": count,
        "beyond": beyond,
    }


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "source_sha256": source_digest(),
        "probe_nominal_ms": PROBE_NOMINAL_MS,
    }


def layer_metrics(ops: list[dict], traced: list[int], untraced: list[int]) -> dict:
    """Per-layer figures over the traced operations."""
    values: dict[str, float] = {}
    count = max(1, len(traced))
    op_time = sum(ops[i]["norm_s"] for i in traced) or 1.0
    attributed = 0.0
    for layer in LAYERS:
        calls = sum(ops[i]["layers"].get(layer, [0, 0.0])[0] for i in traced)
        self_s = sum(
            ops[i]["layers"].get(layer, [0, 0.0])[1] * ops[i]["factor"] for i in traced
        )
        attributed += self_s
        values[f"{layer}.calls_per_op"] = calls / count
        values[f"{layer}.self_ms_per_op"] = self_s / count * 1e3
        values[f"{layer}.share"] = 100.0 * self_s / op_time
    values["unattributed.share"] = 100.0 * (op_time - attributed) / op_time

    def total(name: str) -> float:
        return float(sum(ops[i]["counters"].get(name, 0) for i in traced))

    warm = sum(total(f"solver.warm_start.{kind}") for kind in ("cold", "incremental", "replay"))
    lookups = total("cache.hits") + total("cache.misses")
    values.update(
        {
            "flow.kernel.augmenting_paths": total("ssp.augmenting_paths") / count,
            "flow.warm_start.incremental_ratio": (
                total("solver.warm_start.incremental") / warm if warm else 0.0
            ),
            "core.banking.rounds": total("banking.rounds") / count,
            "service.cache.hit_ratio": total("cache.hits") / lookups if lookups else 0.0,
            "service.lintgate.reject_ratio": (
                total("service.lint.rejected_requests") / total("service.server.requests")
                if total("service.server.requests")
                else 0.0
            ),
            "service.ladder.fallbacks": total("service.fallback") / count,
            "solver.flow_solve.calls": total("solver.flow_solve.calls") / count,
        }
    )

    def goodput(indices: list[int]) -> float:
        seconds = sum(ops[i]["norm_s"] for i in indices)
        return sum(ops[i]["correct"] for i in indices) / seconds if seconds else 0.0

    base = goodput(untraced)
    values["trace.overhead_ratio"] = goodput(traced) / base if base else 0.0
    return values


def summarise(workload: str, seed: int, trace: bool, result: dict, checker) -> tuple:
    ops = result["ops"]
    factors = op_factors(result["probes"], len(ops))
    attempted = correct = 0
    errors: list[str] = []
    for op, factor in zip(ops, factors):
        jobs, good, problems = checker.check(op)
        op.update(factor=factor, norm_s=op["raw_s"] * factor, jobs=jobs, correct=good)
        attempted += jobs
        correct += good
        errors.extend(problems)

    untraced = [i for i, op in enumerate(ops) if not op["traced"]]
    traced = [i for i, op in enumerate(ops) if op["traced"]]
    norm_ms = [ops[i]["norm_s"] * 1e3 for i in untraced]
    raw_ms = [ops[i]["raw_s"] * 1e3 for i in untraced]
    good = sum(ops[i]["correct"] for i in untraced)
    setup_norm = [
        s["raw_s"] * PROBE_NOMINAL_MS / statistics.fmean(s["probes"])
        for s in result["setup"]
    ]
    metrics = {
        "setup_s": statistics.median(setup_norm),
        "jobs_per_s": good / (sum(norm_ms) / 1e3),
        "op_p50_ms": statistics.median(norm_ms),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    raw = {
        "setup_s": statistics.median(s["raw_s"] for s in result["setup"]),
        "jobs_per_s": good / (sum(raw_ms) / 1e3),
        "op_p50_ms": statistics.median(raw_ms),
    }

    replay = result["replay"]
    replay_view = [
        {name: run.get(name, 0) for name in DETERMINISTIC_COUNTERS} for run in replay
    ]
    repeats = all(view == replay_view[0] for view in replay_view)
    first, again, other = (
        gen.digest(workload, seed),
        gen.digest(workload, seed),
        gen.digest(workload, seed + 1),
    )
    inputs_ok = first == again and first != other
    unresolved = result.get("unresolved", [])
    if trace and unresolved:
        errors.append(f"layer lookup sites not found: {', '.join(unresolved)}")
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "operations": len(ops),
        "rounds": ops[-1]["round"] + 1 if ops else 0,
        "raw": raw,
        "normalised": {k: metrics[k] for k in raw},
        "tail": tail(norm_ms),
        "failed_share": (attempted - correct) / attempted if attempted else 1.0,
        "setup_samples_s": setup_norm,
        "probe_median_ms": statistics.median(result["probes"]),
        "input_digest": first,
        "input_digest_stable": inputs_ok,
        "counters": replay_view[0],
        "counters_digest": hashlib.sha256(
            json.dumps(replay_view[0], sort_keys=True).encode("utf-8")
        ).hexdigest()[:16],
        "counters_repeat": repeats,
        "unresolved_sites": unresolved,
        "errors": errors[:10],
        "stamp": provenance(),
    }
    if trace:
        layers = layer_metrics(ops, traced, untraced)
        layers["host.probe_ms"] = statistics.median(result["probes"])
        layers["host.wall_jobs_per_s"] = raw["jobs_per_s"]
        units = per_layer_units()
        reported = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    else:
        reported = {
            name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()
        }
    ok = not errors and inputs_ok and repeats and correct == attempted
    final = {
        "correct": ok,
        "attempted": attempted,
        "failed": attempted - correct,
        "metrics": reported,
    }
    return detail, final


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source {SOURCE / 'repro'} not found", file=sys.stderr)
        return 2
    # One core for this process and every child: the host's vCPUs drift
    # independently, so the probe must run where the work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SOURCE))

    config = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    deadline = time.monotonic() + CHILD_TIMEOUT
    try:
        if args.workload == "serve_mixed":
            result = run_serve(config, deadline)
        else:
            result = run_offline(config, deadline)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    from check import Checker

    detail, final = summarise(
        args.workload, args.seed, bool(args.trace), result,
        Checker(args.workload, args.seed),
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
