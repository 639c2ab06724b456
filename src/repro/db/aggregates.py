"""Aggregate functions used by aggregated attribute rules and embeddings.

The paper's aggregate rules (Section 3.2.4) attach a deterministic aggregate
``AGG`` to a set of parent values; the same aggregates are reused by the
mean/median/moment embedding functions (Section 5.2.2).

Two families live here:

* scalar aggregates (``agg_*``) operating on one Python sequence at a time,
  used by grounding and by group-bys over non-numeric columns; and
* grouped vectorized aggregates (:data:`GROUPED_AGGREGATES`) operating on a
  flat numpy value array plus a group-id array, used by the embeddings and
  by :meth:`~repro.db.table.Table.group_by` to aggregate every group in one
  numpy pass.

Both families implement the same semantics (the parity test suite in
``tests/test_backend_parity.py`` enforces it): NaN inputs propagate
deterministically, AVG of an empty group is 0.0, MIN/MAX of an empty group
is an error, and VAR/SKEW of fewer than two values is 0.0.  These
empty-input values belong to the functions (the embeddings rely on AVG's
0.0): an aggregate *head* none of whose parents carries a value is None
(:func:`repro.carl.grounding.head_values`).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np


class AggregateError(ValueError):
    """Raised for unknown aggregate names or invalid inputs."""


def _require_numeric(values: Sequence[Any], aggregate_name: str) -> list[float]:
    numeric = []
    for value in values:
        if isinstance(value, bool):
            numeric.append(float(value))
        elif isinstance(value, (int, float)):
            numeric.append(float(value))
        else:
            raise AggregateError(
                f"aggregate {aggregate_name} requires numeric values, got {value!r}"
            )
    return numeric


def agg_count(values: Sequence[Any]) -> int:
    """Number of values (defined for empty input)."""
    return len(values)


def _exactish_sum(numeric: list[float]) -> float:
    """:func:`math.fsum`, falling back to IEEE accumulation on non-finite or
    overflowing input (where fsum raises) so scalar sums agree with the
    grouped numpy kernels: inf+(-inf) -> NaN, 1e308+1e308 -> inf."""
    try:
        return math.fsum(numeric)
    except (OverflowError, ValueError):
        total = 0.0
        for value in numeric:
            total += value
        return total


def agg_sum(values: Sequence[Any]) -> float:
    return _exactish_sum(_require_numeric(values, "SUM"))


def agg_avg(values: Sequence[Any]) -> float:
    """Arithmetic mean; 0.0 on empty input (a unit with no peers contributes nothing).

    Uses :func:`math.fsum` and clamps the result into ``[min, max]`` so the
    ordering invariant ``min <= avg <= max`` holds exactly even when rounding
    the division would otherwise drift below the minimum (e.g. many copies of
    the same value whose exact sum is not representable).
    """
    numeric = _require_numeric(values, "AVG")
    if not numeric:
        return 0.0
    mean = _exactish_sum(numeric) / len(numeric)
    if math.isnan(mean):
        return mean
    lower = min(numeric)
    upper = max(numeric)
    return min(max(mean, lower), upper)


def agg_min(values: Sequence[Any]) -> float:
    numeric = _require_numeric(values, "MIN")
    if not numeric:
        raise AggregateError("MIN of empty input is undefined")
    if any(math.isnan(value) for value in numeric):
        return math.nan
    return min(numeric)


def agg_max(values: Sequence[Any]) -> float:
    numeric = _require_numeric(values, "MAX")
    if not numeric:
        raise AggregateError("MAX of empty input is undefined")
    if any(math.isnan(value) for value in numeric):
        return math.nan
    return max(numeric)


def agg_median(values: Sequence[Any]) -> float:
    numeric = _require_numeric(values, "MEDIAN")
    if not numeric:
        return 0.0
    if any(math.isnan(value) for value in numeric):
        return math.nan
    numeric = sorted(numeric)
    middle = len(numeric) // 2
    if len(numeric) % 2:
        return numeric[middle]
    return (numeric[middle - 1] + numeric[middle]) / 2.0


def agg_var(values: Sequence[Any]) -> float:
    """Population variance; 0.0 for fewer than two values."""
    numeric = _require_numeric(values, "VAR")
    if len(numeric) < 2:
        return 0.0
    mean = _exactish_sum(numeric) / len(numeric)
    return _exactish_sum([(value - mean) ** 2 for value in numeric]) / len(numeric)


def agg_std(values: Sequence[Any]) -> float:
    return math.sqrt(agg_var(values))


def agg_skew(values: Sequence[Any]) -> float:
    """Population skewness; 0.0 when undefined (fewer than two values or zero variance)."""
    numeric = _require_numeric(values, "SKEW")
    if len(numeric) < 2:
        return 0.0
    mean = _exactish_sum(numeric) / len(numeric)
    variance = _exactish_sum([(value - mean) ** 2 for value in numeric]) / len(numeric)
    if variance <= 0.0:
        return 0.0
    denominator = variance ** 1.5
    if denominator == 0.0:  # variance can underflow to 0 for tiny values
        return 0.0
    third = _exactish_sum([(value - mean) ** 3 for value in numeric]) / len(numeric)
    return third / denominator


def agg_any(values: Sequence[Any]) -> bool:
    return any(bool(value) for value in values)


def agg_all(values: Sequence[Any]) -> bool:
    return all(bool(value) for value in values)


#: Registry of aggregate functions by their CaRL keyword.
AGGREGATES: dict[str, Callable[[Sequence[Any]], Any]] = {
    "COUNT": agg_count,
    "SUM": agg_sum,
    "AVG": agg_avg,
    "MEAN": agg_avg,
    "MIN": agg_min,
    "MAX": agg_max,
    "MEDIAN": agg_median,
    "VAR": agg_var,
    "STD": agg_std,
    "SKEW": agg_skew,
    "ANY": agg_any,
    "ALL": agg_all,
}


def aggregate(name: str, values: Sequence[Any]) -> Any:
    """Apply the aggregate registered under ``name`` (case-insensitive)."""
    fn = AGGREGATES.get(name.upper())
    if fn is None:
        raise AggregateError(
            f"unknown aggregate {name!r}; expected one of {sorted(AGGREGATES)}"
        )
    return fn(values)


def as_numeric_array(values: Sequence[Any]) -> np.ndarray | None:
    """Best-effort conversion to a float64 array; ``None`` when not numeric.

    Uses numpy's dtype inference (C speed) instead of a per-element Python
    type check: a sequence that infers to a bool/int/unsigned/float dtype is
    numeric, anything else (strings, Nones, mixed objects) is not.
    """
    if isinstance(values, np.ndarray):
        array = values
    else:
        try:
            array = np.asarray(values)
        except (ValueError, TypeError, OverflowError):
            return None
    if array.ndim != 1 or array.dtype.kind not in "biuf":
        return None
    return array.astype(float, copy=False)


# ----------------------------------------------------------------------
# grouped (vectorized) aggregates — Table.group_by's kernels
# ----------------------------------------------------------------------
def _group_counts(group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    return np.bincount(group_ids, minlength=n_groups)


def _group_sums(values: np.ndarray, group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    return np.bincount(group_ids, weights=values, minlength=n_groups)


def _grouped_count(values: np.ndarray, group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    return _group_counts(group_ids, n_groups)


def _grouped_sum(values: np.ndarray, group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    return _group_sums(values, group_ids, n_groups)


def _grouped_extreme(
    values: np.ndarray, group_ids: np.ndarray, n_groups: int, kind: str
) -> np.ndarray:
    counts = _group_counts(group_ids, n_groups)
    if np.any(counts == 0):
        raise AggregateError(f"{kind} of empty input is undefined")
    fill = np.inf if kind == "MIN" else -np.inf
    result = np.full(n_groups, fill)
    with np.errstate(invalid="ignore"):  # NaN propagates silently, matching agg_min
        if kind == "MIN":
            np.minimum.at(result, group_ids, values)
        else:
            np.maximum.at(result, group_ids, values)
    return result


def _grouped_min(values: np.ndarray, group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    return _grouped_extreme(values, group_ids, n_groups, "MIN")


def _grouped_max(values: np.ndarray, group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    return _grouped_extreme(values, group_ids, n_groups, "MAX")


def _grouped_avg(values: np.ndarray, group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    counts = _group_counts(group_ids, n_groups)
    sums = _group_sums(values, group_ids, n_groups)
    nonempty = counts > 0
    means = np.zeros(n_groups)
    np.divide(sums, counts, out=means, where=nonempty)
    if np.any(nonempty):
        # Clamp into the per-group [min, max] envelope, mirroring agg_avg.
        lower = np.full(n_groups, np.inf)
        upper = np.full(n_groups, -np.inf)
        with np.errstate(invalid="ignore"):
            np.minimum.at(lower, group_ids, values)
            np.maximum.at(upper, group_ids, values)
        means[nonempty] = np.clip(means[nonempty], lower[nonempty], upper[nonempty])
    return means


def _grouped_moments(
    values: np.ndarray, group_ids: np.ndarray, n_groups: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-group ``(counts, unclamped means, population variances)``."""
    counts = _group_counts(group_ids, n_groups)
    sums = _group_sums(values, group_ids, n_groups)
    nonempty = counts > 0
    means = np.zeros(n_groups)
    np.divide(sums, counts, out=means, where=nonempty)
    with np.errstate(invalid="ignore", over="ignore"):  # inf/NaN propagate by design
        deviations = values - means[group_ids]
        squared = np.bincount(group_ids, weights=deviations * deviations, minlength=n_groups)
    variances = np.zeros(n_groups)
    np.divide(squared, counts, out=variances, where=counts >= 2)
    return counts, means, variances


def _grouped_var(values: np.ndarray, group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    _, _, variances = _grouped_moments(values, group_ids, n_groups)
    return variances


def _grouped_std(values: np.ndarray, group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    return np.sqrt(_grouped_var(values, group_ids, n_groups))


def _grouped_skew(values: np.ndarray, group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    counts, means, variances = _grouped_moments(values, group_ids, n_groups)
    with np.errstate(invalid="ignore", over="ignore"):  # inf/NaN propagate by design
        deviations = values - means[group_ids]
        thirds = np.bincount(group_ids, weights=deviations**3, minlength=n_groups)
    third_moments = np.zeros(n_groups)
    np.divide(thirds, counts, out=third_moments, where=counts > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        denominator = variances**1.5
        raw = third_moments / denominator
    # agg_skew: 0.0 for <2 values or non-positive/underflowed variance; NaN
    # variances (from NaN inputs) fail ``variance <= 0`` and keep the raw NaN.
    defined = (counts >= 2) & ~(variances <= 0.0) & (denominator != 0.0)
    return np.where(defined, raw, 0.0)


def _grouped_any(values: np.ndarray, group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    truthy = (values != 0).astype(float)
    return np.bincount(group_ids, weights=truthy, minlength=n_groups) > 0


def _grouped_all(values: np.ndarray, group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    counts = _group_counts(group_ids, n_groups)
    truthy = (values != 0).astype(float)
    return np.bincount(group_ids, weights=truthy, minlength=n_groups) == counts


def _grouped_median(values: np.ndarray, group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    counts = _group_counts(group_ids, n_groups)
    result = np.zeros(n_groups)
    if len(values) == 0:
        return result
    order = np.lexsort((values, group_ids))
    ordered = values[order]
    offsets = np.concatenate([[0], np.cumsum(counts)])[:-1]
    nonempty = counts > 0
    mid = offsets + counts // 2
    mid = np.clip(mid, 0, len(ordered) - 1)
    odd = nonempty & (counts % 2 == 1)
    even = nonempty & (counts % 2 == 0)
    result[odd] = ordered[mid[odd]]
    if np.any(even):
        result[even] = (ordered[mid[even] - 1] + ordered[mid[even]]) / 2.0
    # Any NaN in a group makes its median NaN (agg_median semantics).
    nan_mask = np.isnan(values)
    if nan_mask.any():
        nan_groups = np.bincount(group_ids[nan_mask], minlength=n_groups) > 0
        result[nan_groups] = np.nan
    return result


#: Registry of grouped vectorized aggregates by CaRL keyword.  Each kernel
#: takes ``(values, group_ids, n_groups)`` and returns one value per group.
GROUPED_AGGREGATES: dict[str, Callable[[np.ndarray, np.ndarray, int], np.ndarray]] = {
    "COUNT": _grouped_count,
    "SUM": _grouped_sum,
    "AVG": _grouped_avg,
    "MEAN": _grouped_avg,
    "MIN": _grouped_min,
    "MAX": _grouped_max,
    "MEDIAN": _grouped_median,
    "VAR": _grouped_var,
    "STD": _grouped_std,
    "SKEW": _grouped_skew,
    "ANY": _grouped_any,
    "ALL": _grouped_all,
}


def grouped_aggregate(
    name: str, values: np.ndarray, group_ids: np.ndarray, n_groups: int
) -> np.ndarray:
    """Apply the grouped vectorized aggregate ``name`` (case-insensitive).

    ``values`` is the flat float64 value array, ``group_ids`` maps each value
    to its group in ``[0, n_groups)``.  Returns one aggregate per group.
    """
    fn = GROUPED_AGGREGATES.get(name.upper())
    if fn is None:
        raise AggregateError(
            f"unknown aggregate {name!r}; expected one of {sorted(GROUPED_AGGREGATES)}"
        )
    values = np.asarray(values, dtype=float).ravel()
    group_ids = np.asarray(group_ids, dtype=np.intp).ravel()
    if len(values) != len(group_ids):
        raise AggregateError("values and group_ids must have the same length")
    return fn(values, group_ids, n_groups)
