"""Switching-activity estimation for data variables.

The activity-based model (eq. 2) needs inter-variable Hamming distances.
When real traces are unavailable this module generates statistically
plausible ones:

* :func:`uniform_trace` — independent uniform words (activity ≈ 0.5, the
  paper's default assumption);
* :func:`correlated_trace` — lag-1 correlated words, modelling the slowly
  varying samples of DSP front-ends (lower activity);
* :func:`gaussian_dsp_trace` — two's-complement words from a clipped
  Gaussian, modelling filter states: the sign-extension bits rarely flip,
  which is exactly the effect register-allocation-for-low-power papers
  ([8]) exploit;
* :func:`pairwise_activity_table` — the normalised activity table
  (fraction of bits flipping per pair) used by the figure-3/4 style cost
  listings;
* :func:`trace_hamming_matrix` — mean trace Hamming distance of every
  variable pair at once, the table the activity model's arc costs read.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import EnergyModelError
from repro.ir.values import DataVariable, hamming_distance

__all__ = [
    "uniform_trace",
    "correlated_trace",
    "gaussian_dsp_trace",
    "pairwise_activity_table",
    "trace_hamming_matrix",
    "attach_traces",
]


def uniform_trace(
    rng: random.Random, width: int, samples: int
) -> tuple[int, ...]:
    """Independent uniform *width*-bit words."""
    _check(width, samples)
    mask = (1 << width) - 1
    return tuple(rng.getrandbits(width) & mask for _ in range(samples))


def correlated_trace(
    rng: random.Random,
    width: int,
    samples: int,
    flip_probability: float = 0.15,
) -> tuple[int, ...]:
    """Lag-1 correlated words: each bit flips with *flip_probability*.

    Models sample streams whose successive values are close; activity per
    bit equals *flip_probability* instead of the uncorrelated 0.5.
    """
    _check(width, samples)
    if not 0.0 <= flip_probability <= 1.0:
        raise EnergyModelError(
            f"flip probability {flip_probability} outside [0, 1]"
        )
    value = rng.getrandbits(width)
    out = [value]
    for _ in range(samples - 1):
        flips = 0
        for bit in range(width):
            if rng.random() < flip_probability:
                flips |= 1 << bit
        value ^= flips
        out.append(value)
    return tuple(out)


def gaussian_dsp_trace(
    rng: random.Random,
    width: int,
    samples: int,
    sigma_fraction: float = 0.15,
    rho: float = 0.9,
) -> tuple[int, ...]:
    """Two's-complement words from a lag-correlated (AR(1)) Gaussian.

    ``x[t+1] = rho * x[t] + noise`` — the sampled-signal model of a DSP
    front end.  Consecutive samples stay close (and usually keep their
    sign), so the high / sign-extension bits rarely flip and the switching
    activity concentrates in the low bits — the data profile that makes
    activity-aware allocation profitable ([8]).
    """
    _check(width, samples)
    if sigma_fraction <= 0:
        raise EnergyModelError(f"sigma fraction {sigma_fraction} must be > 0")
    if not 0.0 <= rho < 1.0:
        raise EnergyModelError(f"rho {rho} outside [0, 1)")
    full_scale = 1 << (width - 1)
    sigma = sigma_fraction * full_scale
    innovation = sigma * (1.0 - rho * rho) ** 0.5
    mask = (1 << width) - 1
    value = rng.gauss(0.0, sigma)
    out = []
    for _ in range(samples):
        sample = max(-full_scale, min(full_scale - 1, int(value)))
        out.append(sample & mask)  # two's complement encode
        value = rho * value + rng.gauss(0.0, innovation)
    return tuple(out)


def pairwise_activity_table(
    variables: Iterable[DataVariable],
) -> dict[tuple[str, str], float]:
    """Normalised switching activity for every ordered variable pair.

    Returns ``(v1, v2) -> mean Hamming distance / width`` computed from the
    attached traces; pairs lacking traces are omitted (models fall back to
    their default activity).
    """
    traced = [v for v in variables if v.trace]
    table: dict[tuple[str, str], float] = {}
    for v1 in traced:
        for v2 in traced:
            if v1.name == v2.name:
                continue
            pairs = list(zip(v1.trace, v2.trace))
            if not pairs:
                continue
            mean = sum(hamming_distance(a, b) for a, b in pairs) / len(pairs)
            table[(v1.name, v2.name)] = mean / max(v1.width, v2.width)
    return table


def trace_hamming_matrix(variables: Sequence[DataVariable]) -> np.ndarray:
    """Mean trace Hamming distance of every ordered pair of *variables*.

    Entry ``[a, b]`` equals
    :func:`~repro.ir.values.mean_trace_hamming` of ``variables[a]`` and
    ``variables[b]`` bit for bit — the expected distance over the wider
    width when either trace is missing, the mean over the common prefix
    otherwise — and the diagonal is zero (a value replacing itself flips
    no bit).  The bit counts come from the traces' bit planes, one Gram
    product per distinct common-prefix length:
    ``|x ^ y| = |x| + |y| - 2 |x & y|``; the 0/1 products sum integers
    exactly in ``float64``.
    """
    widths = np.array([v.width for v in variables], dtype=np.float64)
    out = np.maximum.outer(widths, widths) * 0.5
    traced = [i for i, v in enumerate(variables) if v.trace]
    if traced:
        lengths = np.array([len(variables[i].trace) for i in traced])
        samples = int(lengths.max())
        nbytes = (max(variables[i].width for i in traced) + 7) // 8
        raw = b"".join(
            value.to_bytes(nbytes, "little")
            for i in traced
            for value in variables[i].trace
            + (0,) * (samples - len(variables[i].trace))
        )
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8)).reshape(
            len(traced), samples * nbytes * 8
        )
        rows = np.array(traced)
        common = np.minimum.outer(lengths, lengths)
        for length in np.unique(lengths).tolist():
            keep = lengths >= length
            planes = bits[keep, : length * nbytes * 8].astype(np.float64)
            ones = planes.sum(axis=1)
            counts = ones[:, None] + ones[None, :] - 2.0 * (planes @ planes.T)
            ii, jj = np.nonzero(common[np.ix_(keep, keep)] == length)
            out[rows[keep][ii], rows[keep][jj]] = counts[ii, jj] / length
    np.fill_diagonal(out, 0.0)
    return out


def attach_traces(
    variables: Mapping[str, DataVariable] | Sequence[DataVariable],
    traces: Mapping[str, Sequence[int]],
) -> dict[str, DataVariable]:
    """Return copies of *variables* with traces attached by name."""
    items = (
        variables.values()
        if isinstance(variables, Mapping)
        else variables
    )
    out: dict[str, DataVariable] = {}
    for var in items:
        trace = tuple(traces.get(var.name, var.trace))
        out[var.name] = DataVariable(var.name, var.width, trace)
    return out


def _check(width: int, samples: int) -> None:
    if width < 1:
        raise EnergyModelError(f"width must be >= 1, got {width}")
    if samples < 1:
        raise EnergyModelError(f"samples must be >= 1, got {samples}")
