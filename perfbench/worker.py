"""Offline workload process: the process whose work is measured.

Started by ``run.py`` with a JSON config on stdin.  It imports the
program, builds its executor, runs an untimed warm-up round, then prints
``READY`` with its post-set-up probe.  With ``setup_only`` it stops
there (a set-up sample); otherwise it runs whole rounds of operations,
each preceded by a probe, until the time budget is spent, and prints one
``RESULT`` line with raw times, probes, answers and, on traced rounds,
layer times and the program's own ``repro.obs`` counters.  It checks no
answers itself, except the bank oracles, which need the live allocation.
"""

from __future__ import annotations

import json
import sys
import time

import gen
from probe import PROBE_REPEATS, peak_rss_mb, probe, settle
from problems import op_problems


class Runner:
    """Runs one offline operation and reports its answers."""

    def __init__(self, workload: str) -> None:
        from repro import SolveOptions, allocate
        from repro.flow.warm_start import WarmStartCache
        from repro.service import BatchExecutor

        self._allocate = allocate
        self._options = SolveOptions
        self._warm_cache = WarmStartCache
        if workload == "restricted_sweep":
            from repro.verify.oracles import check_allocation

            self._check_allocation = check_allocation
        if workload == "fallback_ladder":
            # No same-rung retry: every job fails SSP once and lands on
            # cycle cancelling without a backoff sleep.
            self.executor = BatchExecutor(
                workers=1, cache=None, inject_faults={"ssp": -1}, max_retries=0
            )
        else:
            self.executor = BatchExecutor(workers=1, cache=None)

    def run(self, op: dict, problems: list) -> tuple[float, dict]:
        """Time one operation; return ``(seconds, answers)``."""
        if op["kind"] == "batch":
            start = time.perf_counter()
            results = self.executor.map_blocks(problems)
            elapsed = time.perf_counter() - start
            return elapsed, {
                "energies": [r.objective if r.ok else None for r in results],
                "solvers": [r.solver for r in results],
            }
        cache = self._warm_cache()
        options = self._options(warm_cache=cache)
        start = time.perf_counter()
        allocations = [self._allocate(problem, options) for problem in problems]
        elapsed = time.perf_counter() - start
        answers: dict = {"energies": [a.total_energy for a in allocations]}
        if op["banked"] is not None:
            answers["violations"] = [
                f"{v.oracle}: {v.message}"
                for a in allocations
                for v in self._check_allocation(a)
            ]
            answers["rounds"] = [a.banking.rounds for a in allocations]
        return elapsed, answers


def int_counters(collector) -> dict[str, int]:
    return {
        name: value
        for name, value in collector.counters.items()
        if isinstance(value, int)
    }


def replay_ops(workload: str, seed: int) -> list[dict]:
    """Operations replayed for the counter check: the first one and, so
    that ``banking.rounds`` is compared too, the first banked pass."""
    ops = gen.round_for(workload, seed, 0)["ops"]
    return [ops[0], *[op for op in ops if op.get("banked")][:1]]


def replay_counters(runner: Runner, ops: list[dict]) -> list[dict]:
    """Counters of the same operations run twice, each on fresh state."""
    from repro import obs

    runs = []
    for _ in range(2):
        with obs.collect() as collector:
            for op in ops:
                runner.run(op, op_problems(op))
        runs.append(int_counters(collector))
    return runs


def main() -> int:
    config = json.loads(sys.stdin.read())
    workload, seed = config["workload"], config["seed"]

    from repro import obs

    timer = None
    unresolved: list[str] = []
    if config["trace"]:
        from tracing import LayerTimer

        timer = LayerTimer()
        unresolved = timer.install()
    runner = Runner(workload)
    for op in gen.warmup_round(workload)["ops"]:
        runner.run(op, op_problems(op))
    ready_at = time.monotonic()
    print("READY " + json.dumps({"probes": settle(), "at": ready_at}), flush=True)
    if config["setup_only"]:
        return 0

    repeats = PROBE_REPEATS.get(workload, 1)
    probes = [probe(repeats)]
    ops = []
    start = time.perf_counter()
    index = 0
    while True:
        traced = bool(config["trace"]) and index % 2 == 1
        for position, op in enumerate(gen.round_for(workload, seed, index)["ops"]):
            problems = op_problems(op)
            record: dict = {"round": index, "position": position, "traced": traced}
            if traced:
                before = timer.snapshot()
                timer.enabled = True
                with obs.collect() as collector:
                    record["raw_s"], record["answers"] = runner.run(op, problems)
                timer.enabled = False
                after = timer.snapshot()
                record["layers"] = {
                    layer: [after[layer][0] - before[layer][0],
                            after[layer][1] - before[layer][1]]
                    for layer in after
                }
                record["counters"] = int_counters(collector)
            else:
                record["raw_s"], record["answers"] = runner.run(op, problems)
            probes.append(probe(repeats))
            ops.append(record)
        index += 1
        spent = time.perf_counter() - start
        if spent >= config["seconds"] and (not config["trace"] or index >= 2):
            break

    result = {
        "ops": ops,
        "probes": probes,
        "peak_rss_mb": peak_rss_mb(),
        "replay": replay_counters(runner, replay_ops(workload, seed)),
        "unresolved": unresolved,
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
