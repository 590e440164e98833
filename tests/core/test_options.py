"""SolveOptions: the unified option bundle and its deprecation shims."""

import warnings

import pytest

from repro.core.options import UNSET, SolveOptions, resolve_options
from repro.core.pipeline import allocate_block, allocate_schedule
from repro.core.problem import AllocationProblem
from repro.core.solver import allocate
from repro.flow.warm_start import WarmStartCache
from repro.scheduling import list_schedule
from repro.workloads.registry import figure_example, kernel_block


def fig3_problem(registers=2):
    lifetimes, horizon, _ = figure_example("fig3")
    return AllocationProblem(
        lifetimes, register_count=registers, horizon=horizon
    )


def test_options_are_frozen_with_replace():
    options = SolveOptions()
    with pytest.raises(Exception):
        options.certify = True
    certified = options.replace(certify=True)
    assert certified.certify and not options.certify
    assert certified.validate  # untouched fields carried over


def test_resolve_options_ignores_unset():
    base = SolveOptions(certify=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any warning fails the test
        resolved = resolve_options(
            base, {"certify": UNSET, "lint": UNSET}
        )
    assert resolved is base


def test_resolve_options_folds_legacy_with_warning():
    with pytest.warns(DeprecationWarning, match="lint"):
        resolved = resolve_options(None, {"lint": "error", "certify": UNSET})
    assert resolved.lint == "error"
    assert resolved.validate  # defaults kept


def test_allocate_legacy_keywords_warn_and_agree():
    problem = fig3_problem()
    modern = allocate(problem, SolveOptions(certify=True))
    with pytest.warns(DeprecationWarning, match="certify"):
        legacy = allocate(problem, certify=True)
    assert legacy.objective == modern.objective
    assert legacy.residency == modern.residency


def test_allocate_schedule_legacy_keywords_warn():
    schedule = list_schedule(kernel_block("fir", taps=4))
    with pytest.warns(DeprecationWarning, match="lint"):
        legacy = allocate_schedule(schedule, register_count=4, lint="error")
    modern = allocate_schedule(
        schedule, register_count=4, options=SolveOptions(lint="error")
    )
    assert legacy.allocation.objective == modern.allocation.objective


def test_allocate_block_legacy_keywords_warn_at_the_caller():
    block = kernel_block("fir", taps=4)
    with pytest.warns(DeprecationWarning, match="lint") as caught:
        legacy = allocate_block(block, register_count=4, lint="error")
    assert [w.filename for w in caught] == [__file__]
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        modern = allocate_block(
            block, register_count=4, options=SolveOptions(lint="error")
        )
    assert legacy.allocation.objective == modern.allocation.objective


def test_modern_path_emits_no_deprecation_warnings():
    problem = fig3_problem()
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        allocate(problem, SolveOptions(validate=True, certify=True))
        allocate_block(
            kernel_block("fir", taps=4),
            register_count=4,
            options=SolveOptions(lint="error"),
        )


def test_warm_cache_option_threads_through():
    cache = WarmStartCache()
    problem = fig3_problem()
    cold = allocate(problem)
    first = allocate(problem, SolveOptions(warm_cache=cache))
    second = allocate(problem, SolveOptions(warm_cache=cache))
    assert first.objective == cold.objective == second.objective
