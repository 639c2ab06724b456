"""Nonparametric bootstrap for effect estimates and arbitrary statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class BootstrapResult:
    """Point estimate, standard error and percentile confidence interval."""

    estimate: float
    standard_error: float
    lower: float
    upper: float
    samples: np.ndarray


def bootstrap_statistic(
    statistic: Callable[..., float],
    arrays: Sequence[np.ndarray],
    n_bootstrap: int = 200,
    confidence: float = 0.95,
    seed: int | None = 0,
) -> BootstrapResult:
    """Bootstrap a statistic computed from row-aligned arrays.

    ``statistic`` receives the resampled arrays (same order as ``arrays``)
    and must return a float.  Resampling is with replacement over rows;
    bootstrap replicates that raise ``ValueError`` (e.g. a resample without
    any treated unit) are skipped, which slightly biases the interval but
    keeps small-sample usage robust.
    """
    if not arrays:
        raise ValueError("at least one array is required")
    arrays = [np.asarray(array) for array in arrays]
    n_rows = len(arrays[0])
    for array in arrays:
        if len(array) != n_rows:
            raise ValueError("all arrays must have the same number of rows")
    if n_rows == 0:
        raise ValueError("cannot bootstrap zero rows")

    rng = np.random.default_rng(seed)
    point = float(statistic(*arrays))

    samples: list[float] = []
    attempts = 0
    max_attempts = n_bootstrap * 5
    while len(samples) < n_bootstrap and attempts < max_attempts:
        attempts += 1
        indices = rng.integers(0, n_rows, size=n_rows)
        resampled = [array[indices] for array in arrays]
        try:
            samples.append(float(statistic(*resampled)))
        except ValueError:
            continue

    if not samples:
        return BootstrapResult(point, float("nan"), float("nan"), float("nan"), np.array([]))

    sample_array = np.asarray(samples, dtype=float)
    alpha = (1.0 - confidence) / 2.0
    return BootstrapResult(
        estimate=point,
        standard_error=float(sample_array.std(ddof=1)) if len(sample_array) > 1 else 0.0,
        lower=float(np.quantile(sample_array, alpha)),
        upper=float(np.quantile(sample_array, 1.0 - alpha)),
        samples=sample_array,
    )
