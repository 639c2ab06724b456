"""Aggregate functions used by aggregated attribute rules and embeddings.

The paper's aggregate rules (Section 3.2.4) attach a deterministic aggregate
``AGG`` to a set of parent values; the same aggregates are reused by the
mean/median/moment embedding functions (Section 5.2.2).

Two families live here:

* scalar aggregates (``agg_*``) operating on one Python sequence at a time,
  used by grounding and by group-bys over non-numeric columns; and
* grouped vectorized aggregates (:data:`GROUPED_AGGREGATES`) operating on a
  flat numpy value array plus a group-id array, used by
  :meth:`~repro.db.table.Table.group_by` to aggregate every group in one
  numpy pass.

Both families implement the same semantics (the parity test suite in
``tests/test_backend_parity.py`` enforces it): NaN inputs propagate
deterministically, AVG of an empty group is 0.0, MIN/MAX of an empty group
is an error, and VAR/SKEW of fewer than two values is 0.0.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
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


# ----------------------------------------------------------------------
# shard partials and associative merge — the sharded execution layer
# ----------------------------------------------------------------------
# A grouped aggregate over a row-range-sharded table runs in three steps:
# each shard computes a *partial* (a flat mapping of numeric arrays, so a
# partial can cross a process boundary as an npz artifact payload), the
# partials are merged associatively, and the merge finalizes one value per
# group.  The merged result is **independent of the shard split**: partial
# sums are carried as Shewchuk error-free partials (never rounded until the
# final merge), so SUM/AVG/VAR/STD/SKEW reproduce the *scalar* aggregate
# family (``agg_*``, fsum + clamp semantics) bit-for-bit at any shard count,
# while COUNT/MIN/MAX/ANY/ALL merge trivially and MEDIAN — a holistic
# aggregate — carries its group values in the partial.
#
# The contract ``sharded_grouped_aggregate(name, v, g, n, shards=k) ==
# [agg_name(group) for group]`` holds for every ``k`` for all inputs whose
# exact sums stay in the double range, and for same-sign overflow (a shard
# whose running sum overflows degrades to the scalar family's own IEEE
# left-to-right fallback, so ``[1e308, 1e308]`` sums to ``inf`` at any shard
# count).  The one remaining split-dependent corner is *cancelling*
# overflow — a finite true sum reached through out-of-range intermediates,
# where ``math.fsum`` itself raises and the scalar family's accumulation
# order is inherently split-dependent.  ``tests/test_shard_merge.py`` pins
# the contract with Hypothesis differential tests.

#: Aggregates whose partials merge with :func:`merge_grouped_shards` in a
#: single pass over the data.
MERGEABLE_AGGREGATES = ("COUNT", "SUM", "AVG", "MEAN", "MIN", "MAX", "MEDIAN", "ANY", "ALL")

#: Centered-moment aggregates: merged in two passes (exact means first, then
#: centered-power partials), the exactness-preserving refinement of the
#: classic ``(count, sum, sumsq)`` merge.
MOMENT_AGGREGATES = ("VAR", "STD", "SKEW")

#: Every aggregate the sharded execution layer supports (= the grouped family).
SHARDABLE_AGGREGATES = MERGEABLE_AGGREGATES + MOMENT_AGGREGATES


def shard_ranges(n_rows: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous row ranges ``[(start, stop), ...]`` covering ``[0, n_rows)``.

    Ranges are in row order and balanced to within one row; when ``shards``
    exceeds ``n_rows`` the trailing ranges are empty (kept, so a shard's
    position in the list identifies it regardless of the data size).
    """
    if shards < 1:
        raise AggregateError(f"shards must be a positive integer, got {shards!r}")
    base, extra = divmod(max(n_rows, 0), shards)
    ranges: list[tuple[int, int]] = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def _sum_partials(values: Sequence[float]) -> list[float]:
    """Shewchuk's error-free running partials of a finite float sequence.

    The returned list of non-overlapping doubles sums *exactly* to the true
    (infinite-precision) sum of ``values``; ``math.fsum`` over it therefore
    yields the correctly rounded total.  Because the representation is exact,
    partials of different shards can be concatenated and re-summed without
    ever depending on how the rows were split.
    """
    partials: list[float] = []
    for x in values:
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]
    return partials


def _csr_groups(
    values: np.ndarray, group_ids: np.ndarray, n_groups: int
) -> tuple[np.ndarray, np.ndarray]:
    """Values regrouped contiguously: group ``g`` sits at ``[off[g], off[g+1])``."""
    counts = np.bincount(group_ids, minlength=n_groups)
    offsets = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    order = np.argsort(group_ids, kind="stable")
    return values[order], offsets


def _flag_counts(
    values: np.ndarray, group_ids: np.ndarray, n_groups: int
) -> dict[str, np.ndarray]:
    """Per-group counts of total / NaN / +inf / -inf values."""
    return {
        "count": np.bincount(group_ids, minlength=n_groups).astype(np.int64),
        "nan": np.bincount(group_ids[np.isnan(values)], minlength=n_groups).astype(np.int64),
        "posinf": np.bincount(
            group_ids[values == np.inf], minlength=n_groups
        ).astype(np.int64),
        "neginf": np.bincount(
            group_ids[values == -np.inf], minlength=n_groups
        ).astype(np.int64),
    }


def _exact_sum_partial(
    values: np.ndarray, group_ids: np.ndarray, n_groups: int
) -> dict[str, np.ndarray]:
    """Per-group exact sum state of one shard: flag counts + Shewchuk CSR."""
    payload = _flag_counts(values, group_ids, n_groups)
    finite = np.isfinite(values)
    csr_values, offsets = _csr_groups(values[finite], group_ids[finite], n_groups)
    out_values: list[float] = []
    out_offsets = np.empty(n_groups + 1, dtype=np.int64)
    out_offsets[0] = 0
    for group in range(n_groups):
        chunk = csr_values[offsets[group] : offsets[group + 1]]
        if len(chunk):
            chunk_list = chunk.tolist()
            partials = _sum_partials(chunk_list)
            if not all(math.isfinite(partial) for partial in partials):
                # The exact running sum overflowed the double range (2Sum
                # produced an inf and a garbage compensation term).  Degrade
                # this group to the scalar family's own overflow behavior —
                # one IEEE left-to-right sum — instead of carrying partials
                # that would merge to a manufactured NaN.
                total = 0.0
                for value in chunk_list:
                    total += value
                partials = [total]
            out_values.extend(partials)
        out_offsets[group + 1] = len(out_values)
    payload["partials"] = np.asarray(out_values, dtype=float)
    payload["offsets"] = out_offsets
    return payload


def _group_extremes(
    values: np.ndarray, group_ids: np.ndarray, n_groups: int, kind: str
) -> np.ndarray:
    """Per-group min/max over the non-NaN values (fill value when none)."""
    mask = ~np.isnan(values)
    fill = np.inf if kind == "MIN" else -np.inf
    result = np.full(n_groups, fill)
    if kind == "MIN":
        np.minimum.at(result, group_ids[mask], values[mask])
    else:
        np.maximum.at(result, group_ids[mask], values[mask])
    return result


def _merged_flags(parts: Sequence[Mapping[str, np.ndarray]], field: str, n_groups: int) -> np.ndarray:
    total = np.zeros(n_groups, dtype=np.int64)
    for part in parts:
        total += np.asarray(part[field], dtype=np.int64)
    return total


def _merge_exact_sums(
    parts: Sequence[Mapping[str, np.ndarray]], n_groups: int
) -> np.ndarray:
    """Finalize per-group sums from shard partials, with ``agg_sum`` semantics.

    Finite groups get the correctly rounded exact sum (``math.fsum`` over the
    concatenated Shewchuk partials); groups containing NaN — or both
    infinities — are NaN, a single-signed infinity wins otherwise, exactly as
    the scalar family's :func:`_exactish_sum` fallback behaves.
    """
    nan = _merged_flags(parts, "nan", n_groups)
    posinf = _merged_flags(parts, "posinf", n_groups)
    neginf = _merged_flags(parts, "neginf", n_groups)
    totals = np.zeros(n_groups)
    for group in range(n_groups):
        if nan[group] or (posinf[group] and neginf[group]):
            totals[group] = math.nan
            continue
        if posinf[group]:
            totals[group] = math.inf
            continue
        if neginf[group]:
            totals[group] = -math.inf
            continue
        chunks: list[float] = []
        for part in parts:
            offsets = part["offsets"]
            chunks.extend(part["partials"][offsets[group] : offsets[group + 1]].tolist())
        totals[group] = _exactish_sum(chunks)
    return totals


def grouped_shard_partial(
    name: str, values: np.ndarray, group_ids: np.ndarray, n_groups: int
) -> dict[str, np.ndarray]:
    """Phase-1 shard state of one aggregate over one row-range shard.

    The payload is a flat mapping of numeric arrays (npz-serializable, so a
    worker process can hand it back through the artifact cache).  Mergeable
    aggregates finalize with :func:`merge_grouped_shards`; the centered
    moments (``VAR``/``STD``/``SKEW``) share the ``SUM`` partial here and
    continue with :func:`moment_power_partial` once the exact means are known.
    """
    name = name.upper()
    if name not in SHARDABLE_AGGREGATES:
        raise AggregateError(
            f"unknown aggregate {name!r}; expected one of {sorted(SHARDABLE_AGGREGATES)}"
        )
    values = np.asarray(values, dtype=float).ravel()
    group_ids = np.asarray(group_ids, dtype=np.intp).ravel()
    if len(values) != len(group_ids):
        raise AggregateError("values and group_ids must have the same length")

    if name == "COUNT":
        return {"count": np.bincount(group_ids, minlength=n_groups).astype(np.int64)}
    if name in ("ANY", "ALL"):
        return {
            "count": np.bincount(group_ids, minlength=n_groups).astype(np.int64),
            "truthy": np.bincount(
                group_ids[values != 0], minlength=n_groups
            ).astype(np.int64),
        }
    if name in ("MIN", "MAX"):
        payload = _flag_counts(values, group_ids, n_groups)
        payload["extreme"] = _group_extremes(values, group_ids, n_groups, name)
        return payload
    if name == "MEDIAN":
        payload = _flag_counts(values, group_ids, n_groups)
        csr_values, offsets = _csr_groups(values, group_ids, n_groups)
        payload["values"] = csr_values
        payload["value_offsets"] = offsets
        return payload
    # SUM / AVG / MEAN / VAR / STD / SKEW all start from the exact sum state;
    # AVG additionally records the clamp envelope of agg_avg.
    payload = _exact_sum_partial(values, group_ids, n_groups)
    if name in ("AVG", "MEAN"):
        payload["lower"] = _group_extremes(values, group_ids, n_groups, "MIN")
        payload["upper"] = _group_extremes(values, group_ids, n_groups, "MAX")
    return payload


def merge_grouped_shards(
    name: str, parts: Sequence[Mapping[str, np.ndarray]], n_groups: int
) -> np.ndarray:
    """Merge shard partials of a mergeable aggregate into the final per-group
    values, bit-identically to applying the scalar aggregate to each group."""
    name = name.upper()
    if name not in MERGEABLE_AGGREGATES:
        raise AggregateError(
            f"aggregate {name!r} does not merge in one pass; expected one of "
            f"{sorted(MERGEABLE_AGGREGATES)}"
        )
    if not parts:
        raise AggregateError("cannot merge zero shard partials")

    if name == "COUNT":
        return _merged_flags(parts, "count", n_groups)
    counts = _merged_flags(parts, "count", n_groups)
    if name in ("ANY", "ALL"):
        truthy = _merged_flags(parts, "truthy", n_groups)
        return truthy > 0 if name == "ANY" else truthy == counts
    if name in ("MIN", "MAX"):
        if np.any(counts == 0):
            raise AggregateError(f"{name} of empty input is undefined")
        nan = _merged_flags(parts, "nan", n_groups)
        stacked = np.stack([np.asarray(part["extreme"], dtype=float) for part in parts])
        merged = stacked.min(axis=0) if name == "MIN" else stacked.max(axis=0)
        merged[nan > 0] = math.nan
        return merged
    if name == "MEDIAN":
        nan = _merged_flags(parts, "nan", n_groups)
        result = np.zeros(n_groups)
        for group in range(n_groups):
            if nan[group]:
                result[group] = math.nan
                continue
            if not counts[group]:
                continue  # 0.0, matching agg_median on empty input
            merged = np.concatenate(
                [
                    part["values"][part["value_offsets"][group] : part["value_offsets"][group + 1]]
                    for part in parts
                ]
            )
            merged.sort()
            middle = len(merged) // 2
            if len(merged) % 2:
                result[group] = merged[middle]
            else:
                result[group] = (merged[middle - 1] + merged[middle]) / 2.0
        return result

    totals = _merge_exact_sums(parts, n_groups)
    if name == "SUM":
        return totals
    # AVG / MEAN: fsum mean clamped into the group's [min, max] envelope
    # (agg_avg semantics); empty groups are 0.0.
    nonempty = counts > 0
    means = np.zeros(n_groups)
    np.divide(totals, counts, out=means, where=nonempty)
    defined = nonempty & ~np.isnan(means)
    if np.any(defined):
        lower = np.stack([np.asarray(part["lower"], dtype=float) for part in parts]).min(axis=0)
        upper = np.stack([np.asarray(part["upper"], dtype=float) for part in parts]).max(axis=0)
        means[defined] = np.clip(means[defined], lower[defined], upper[defined])
    means[nonempty & np.isnan(totals)] = math.nan
    return means


def merge_moment_means(
    parts: Sequence[Mapping[str, np.ndarray]], n_groups: int
) -> tuple[np.ndarray, np.ndarray]:
    """Phase-1 merge of a moment aggregate: per-group ``(counts, exact means)``.

    The means carry ``agg_var``'s semantics (fsum sum over count, NaN/inf
    propagating); groups with fewer than two values get mean 0.0 — their
    moments are defined to be 0.0 and phase 2 ignores them.
    """
    counts = _merged_flags(parts, "count", n_groups)
    totals = _merge_exact_sums(parts, n_groups)
    means = np.zeros(n_groups)
    np.divide(totals, counts, out=means, where=counts >= 2)
    return counts, means


def moment_power_partial(
    values: np.ndarray,
    group_ids: np.ndarray,
    n_groups: int,
    means: np.ndarray,
    power: int,
) -> dict[str, np.ndarray]:
    """Phase-2 shard state: exact partials of ``(value - mean[group]) ** power``.

    Centering happens elementwise against the *global* exact means, so the
    deviations — and therefore the merged central moments — are independent
    of the shard split and identical to the scalar two-pass formulas.
    """
    values = np.asarray(values, dtype=float).ravel()
    group_ids = np.asarray(group_ids, dtype=np.intp).ravel()
    with np.errstate(invalid="ignore", over="ignore"):  # inf/NaN propagate by design
        # float_power routes through libm pow like CPython's ``**`` (plain
        # numpy ``** 2``/``** 3`` short-circuits to repeated multiplication,
        # which rounds differently in the last bit), keeping every deviation
        # bit-identical to the scalar two-pass formulas.
        deviations = np.float_power(
            values - np.asarray(means, dtype=float)[group_ids], power
        )
    return _exact_sum_partial(deviations, group_ids, n_groups)


def merge_moment_powers(
    parts: Sequence[Mapping[str, np.ndarray]], n_groups: int
) -> np.ndarray:
    """Phase-2 merge: per-group exact sums of the centered powers."""
    return _merge_exact_sums(parts, n_groups)


def _finalize_moment(
    name: str, counts: np.ndarray, squares: np.ndarray, cubes: np.ndarray | None
) -> np.ndarray:
    """Scalar-family moment formulas over merged central-power sums."""
    defined = counts >= 2
    variances = np.zeros(len(counts))
    np.divide(squares, counts, out=variances, where=defined)
    if name == "VAR":
        return variances
    if name == "STD":
        return np.sqrt(variances)
    assert cubes is not None
    third_moments = np.zeros(len(counts))
    np.divide(cubes, counts, out=third_moments, where=defined)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denominator = np.float_power(variances, 1.5)  # libm pow, like scalar ``** 1.5``
        raw = third_moments / denominator
    # agg_skew: 0.0 for <2 values or non-positive/underflowed variance; NaN
    # variances keep the raw NaN (they fail ``variance <= 0``).
    result = np.where(defined & ~(variances <= 0.0) & (denominator != 0.0), raw, 0.0)
    return result


def sharded_grouped_aggregate(
    name: str,
    values: np.ndarray,
    group_ids: np.ndarray,
    n_groups: int,
    shards: int = 1,
    ranges: Sequence[tuple[int, int]] | None = None,
) -> np.ndarray:
    """Grouped aggregate executed as row-range shard partials plus a merge.

    ``ranges`` (contiguous, in row order, covering the input) overrides the
    balanced :func:`shard_ranges` split.  The result is independent of the
    split and bit-identical to applying the scalar aggregate family
    (``agg_*``) to each group — see the module notes on the exact-merge
    contract.  Raises like the grouped kernels (e.g. MIN/MAX of an empty
    group is an error).
    """
    name = name.upper()
    if name not in SHARDABLE_AGGREGATES:
        raise AggregateError(
            f"unknown aggregate {name!r}; expected one of {sorted(SHARDABLE_AGGREGATES)}"
        )
    values = np.asarray(values, dtype=float).ravel()
    group_ids = np.asarray(group_ids, dtype=np.intp).ravel()
    if len(values) != len(group_ids):
        raise AggregateError("values and group_ids must have the same length")
    if ranges is None:
        ranges = shard_ranges(len(values), shards)

    if name in MERGEABLE_AGGREGATES:
        parts = [
            grouped_shard_partial(name, values[a:b], group_ids[a:b], n_groups)
            for a, b in ranges
        ]
        return merge_grouped_shards(name, parts, n_groups)

    sum_parts = [
        grouped_shard_partial("SUM", values[a:b], group_ids[a:b], n_groups)
        for a, b in ranges
    ]
    counts, means = merge_moment_means(sum_parts, n_groups)
    squares = merge_moment_powers(
        [moment_power_partial(values[a:b], group_ids[a:b], n_groups, means, 2) for a, b in ranges],
        n_groups,
    )
    cubes = None
    if name == "SKEW":
        cubes = merge_moment_powers(
            [
                moment_power_partial(values[a:b], group_ids[a:b], n_groups, means, 3)
                for a, b in ranges
            ],
            n_groups,
        )
    return _finalize_moment(name, counts, squares, cubes)
