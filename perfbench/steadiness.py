"""Run-to-run steadiness of the benchmark, raw against normalised.

Usage (from the repository root)::

    python3 perfbench/steadiness.py [--workloads batch_small,serve_mixed] [--seeds 10]

Runs ``run.py --trace 0`` for ``BENCHMARK.json``'s ``run_seconds`` once
per seed (seeds 1 to ``--seeds``) on each workload, then prints,
for each end-to-end metric, its median and its spread -- the distance
between the first and third quartiles (``statistics.quantiles(n=4)``)
as a share of the median -- next to the spread of the same timing taken
from raw wall-clock time.  The normalised spread should be the smaller;
rows where it is not are marked ``RAW-STEADIER``.  A spread above a
third of the metric's bound in ``BENCHMARK.json`` is marked ``WIDE``.
The first seed is run a second time to check that the generated inputs
and the program's counters repeat exactly.  Exits non-zero if any run
fails, answers wrongly or does not repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    started = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    detail = json.loads(out[-2])["detail"]
    detail["wall_s"] = time.monotonic() - started
    return detail, json.loads(out[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    healthy = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, 1 + args.seeds):
            detail, final = run_once(workload, seed, seconds)
            runs.append((detail, final))
            if not final["correct"] or final["failed"]:
                healthy = False
                print(f"{workload} seed {seed}: WRONG {detail['errors']}")
        again, _ = run_once(workload, 1, seconds)
        first = runs[0][0]
        walls = [detail["wall_s"] for detail, _ in runs]
        repeat = (
            again["input_digest"] == first["input_digest"]
            and again["counters_digest"] == first["counters_digest"]
        )
        healthy &= repeat
        print(f"\n{workload}: {len(runs)} seeds, inputs+counters repeat on "
              f"seed 1: {repeat} (counters {first['counters_digest']}); "
              f"wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        print(f"  {'metric':<12} {'median':>12} {'spread':>8} {'raw':>8}  bound")
        for name, bound in bounds.items():
            values = [final["metrics"][name]["value"] for _, final in runs]
            row = f"  {name:<12} {statistics.median(values):>12.4f} {spread(values):>8.2%}"
            if name in first["raw"]:
                raw = spread([detail["raw"][name] for detail, _ in runs])
                row += f" {raw:>8.2%}"
                if raw < spread(values):
                    row += "  RAW-STEADIER"
            else:
                row += f" {'-':>8}"
            row += f"  {bound:.2f}"
            if spread(values) > bound / 3:
                row += "  WIDE"
            print(row)
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
