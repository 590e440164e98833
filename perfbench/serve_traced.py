"""``repro-alloc serve`` with outside-in layer timers, for traced runs.

Usage: ``python perfbench/serve_traced.py serve --port 0 ...`` (the same
arguments as ``python -m repro.cli``).  Wraps the layers of
:mod:`tracing` before handing over to the CLI unchanged.  Each completed
layer call adds to the ``perfbench.layer.<layer>.calls`` and
``.self_s`` counters of the server's own ``repro.obs`` collector, so the
client reads them from ``/metrics``.  SIGUSR1 turns the timers on and
SIGUSR2 off, so traced and untraced rounds run against one server.
Before the server's own output it prints one ``UNRESOLVED <json list>``
line naming the lookup sites it could not wrap.
"""

from __future__ import annotations

import json
import signal
import sys

from repro import obs
from repro.cli import main as cli_main

from tracing import LayerTimer


def _record(layer: str, seconds: float) -> None:
    obs.count(f"perfbench.layer.{layer}.calls")
    obs.count(f"perfbench.layer.{layer}.self_s", seconds)


if __name__ == "__main__":
    timer = LayerTimer(_record)
    print("UNRESOLVED " + json.dumps(timer.install()), flush=True)
    signal.signal(signal.SIGUSR1, lambda *_: setattr(timer, "enabled", True))
    signal.signal(signal.SIGUSR2, lambda *_: setattr(timer, "enabled", False))
    sys.exit(cli_main(sys.argv[1:]))
