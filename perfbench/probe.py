"""Fixed quantum of host work used to cancel CPU-speed drift.

The benchmark host is a shared VM whose effective CPU speed drifts by
more than ten percent between ten-second windows, on wall time and CPU
time alike.  Before every timed operation the benchmark runs
:func:`probe`, a fixed amount of work that does not touch ``repro``: a
pure-Python integer loop, dict updates and a numpy sort.  An operation's
time is rescaled by ``PROBE_NOMINAL_MS / probe_ms`` using the probes on
either side of it, so normalised times stay in seconds but read as if
the host ran at the speed it had when the nominal value was recorded.
"""

from __future__ import annotations

import time

import numpy as np

#: Median probe time, in milliseconds, recorded when the benchmark was
#: defined (Intel Xeon vCPU, Python 3.11, numpy 2.4).  Changing it
#: rescales every normalised time, so it is fixed for the life of the
#: benchmark.
PROBE_NOMINAL_MS = 10.0

#: Set-ups measured per run (the median is reported) and probes run on
#: each side of a set-up.  A single probe's time varies by about 20% (its
#: tail is long), so each side takes six.
SETUP_SAMPLES = 5
SETTLE_PROBES = 6

#: Quanta per probe between operations, where an operation is long enough
#: that more probing costs little: ``batch_small``'s ~0.8 s batches would
#: otherwise be scaled by a handful of noisy 10 ms readings.
PROBE_REPEATS = {"batch_small": 3}

_LOOP_STEPS = 25_000
_DICT_STEPS = 12_000
_SORT_SIZE = 300_000
_SORT_INPUT = np.random.default_rng(20240611).random(_SORT_SIZE)


def _quantum() -> int:
    acc = 0
    for step in range(_LOOP_STEPS):
        acc = (acc * 31 + step) & 0xFFFFFFFF
    table: dict[int, int] = {}
    for step in range(_DICT_STEPS):
        key = (step * 7919) & 2047
        table[key] = table.get(key, 0) + step
    ordered = np.sort(_SORT_INPUT)
    return acc + len(table) + int(ordered[0] > ordered[-1])


def probe(repeats: int = 1) -> float:
    """Run the quantum *repeats* times; return its mean wall time in
    milliseconds."""
    start = time.perf_counter()
    for _ in range(repeats):
        _quantum()
    return (time.perf_counter() - start) * 1e3 / repeats


def settle() -> list[float]:
    """The probes that bracket one set-up sample."""
    return [probe() for _ in range(SETTLE_PROBES)]


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of process *pid*, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing from /proc/{pid}/status")
