"""Outside-in layer timing: wrappers installed at each layer's lookup site.

The program is not edited.  Each layer is a list of ``module:attribute``
lookup sites (a module global another module calls through, or a class
attribute); :meth:`LayerTimer.install` replaces each with a wrapper that
counts calls and accumulates *self* time -- the wrapper's wall time
minus the time spent in wrapped layers it called -- per thread.  A site
that no longer exists is skipped and returned by :meth:`install`, so a
traced run can report it and refuse to pass its layer off as zero.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Callable

#: Layer name -> lookup sites.  A function imported into several modules
#: is wrapped at every site that calls it.
LAYERS: dict[str, tuple[str, ...]] = {
    "service.executor": ("repro.service.executor:BatchExecutor.map_blocks",),
    "service.canonicalize": ("repro.service.executor:canonicalize",),
    "service.ladder": ("repro.service.executor:run_ladder",),
    "service.lintgate": ("repro.service.lintgate:LintGate.check",),
    "lint.prove": (
        "repro.lint.rules_dataflow:certificates_from",
        "repro.lint.rules_dataflow:check_certificate",
    ),
    "service.manifest.parse": ("repro.service.server:parse_manifest",),
    "service.manifest.build": ("repro.service.manifest:Manifest.build",),
    "service.report": ("repro.service.server:build_batch_report",),
    "core.banking": ("repro.core.banking:solve_with_banking",),
    "core.network_builder": (
        "repro.core.solver:build_network",
        "repro.service.solvers:build_network",
    ),
    "flow.solve": ("repro.core.solver:flow_solve",),
    "flow.warm_start": ("repro.flow.lower_bounds:solve_warm",),
    "flow.cycle_canceling": ("repro.service.solvers:solve_by_cycle_canceling",),
    "flow.validate": (
        "repro.core.solver:check_flow",
        "repro.service.solvers:check_flow",
    ),
    "core.extract": (
        "repro.core.solver:extract_allocation",
        "repro.service.solvers:extract_allocation",
    ),
}


def _resolve(site: str):
    """``(owner, attribute)`` for a lookup site, or ``None`` if absent."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attribute = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attribute, None)):
        return None
    return owner, attribute


class LayerTimer:
    """Calls and self seconds per layer, recorded while :attr:`enabled`.

    Args:
        record: Sink called as ``record(layer, self_seconds)`` once per
            completed call; defaults to the in-memory :attr:`calls` and
            :attr:`self_s` tallies.
    """

    def __init__(self, record: Callable[[str, float], None] | None = None):
        self.enabled = False
        self.calls: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self._record = record or self._tally
        self._local = threading.local()

    def _tally(self, layer: str, seconds: float) -> None:
        self.calls[layer] += 1
        self.self_s[layer] += seconds

    def snapshot(self) -> dict[str, list]:
        """``{layer: [calls, self_s]}`` of the in-memory tallies."""
        return {layer: [self.calls[layer], self.self_s[layer]] for layer in LAYERS}

    def _wrap(self, layer: str, function: Callable) -> Callable:
        local = self._local
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                total = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += total
                self._record(layer, total - children)

        return wrapper

    def install(self) -> list[str]:
        """Wrap every resolvable lookup site of :data:`LAYERS`; return the
        sites that could not be resolved."""
        unresolved = []
        for layer, sites in LAYERS.items():
            for site in sites:
                found = _resolve(site)
                if found is None:
                    unresolved.append(site)
                    continue
                owner, attribute = found
                setattr(owner, attribute, self._wrap(layer, getattr(owner, attribute)))
        return unresolved
