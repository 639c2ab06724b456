"""Embedding functions for variable-size parent / peer / covariate vectors.

Section 5.2.2 of the paper: different groundings of the same attribute can
have different numbers of parents (a submission may have one or five
authors), so conditional distributions are defined over a fixed-dimensional
*embedding* of the parent values.  The paper evaluates four families — mean,
median, moment summaries and padding — and we implement all of them plus a
couple of trivial ones (count, sum) that are useful as building blocks.

Every embedding maps a list of numeric values (possibly empty) to a
fixed-length ``list[float]``; :meth:`Embedding.feature_names` names the
output dimensions so unit-table columns are self-describing.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from repro.db.aggregates import agg_avg, agg_median, agg_skew, agg_sum, agg_var, grouped_aggregate


class Embedding(ABC):
    """A set-embedding function ``psi`` with a fixed output dimensionality.

    Besides the scalar :meth:`apply`, embeddings support a *flat* batch form
    used by the unit-table builder: all groups' values concatenated
    into one float array plus a parallel group-id array.  Subclasses override
    :meth:`apply_flat` with a vectorized kernel; the default returns ``None``
    and callers fall back to a per-group :meth:`apply` loop with identical
    semantics.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    @abstractmethod
    def feature_names(self, prefix: str) -> list[str]:
        """Names of the output dimensions, prefixed for unit-table columns."""

    @abstractmethod
    def apply(self, values: Sequence[float]) -> list[float]:
        """Embed ``values`` into a fixed-length vector."""

    def fit(self, groups: Sequence[Sequence[float]]) -> "Embedding":
        """Optional fitting step over all groups (used by padding); returns self."""
        return self

    def fit_flat(
        self, values: np.ndarray, group_ids: np.ndarray, n_groups: int
    ) -> "Embedding":
        """Flat-form equivalent of :meth:`fit`; returns self."""
        return self

    def apply_flat(
        self, values: np.ndarray, group_ids: np.ndarray, n_groups: int
    ) -> np.ndarray | None:
        """Vectorized batch embedding over flattened groups.

        Returns a ``(n_groups, dimension)`` matrix, or ``None`` when the
        embedding has no vectorized kernel (callers then loop :meth:`apply`).
        """
        return None

    @property
    def dimension(self) -> int:
        return len(self.feature_names("x"))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _grouped_counts(group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    return np.bincount(group_ids, minlength=n_groups).astype(float)


def _to_floats(values: Sequence[float]) -> list[float]:
    return [float(value) for value in values]


class MeanEmbedding(Embedding):
    """``[mean, count]`` — the paper's simplest embedding.

    The cardinality is included (as the paper notes) to preserve the topology
    of the relational skeleton, e.g. the number of co-authors.
    """

    name = "mean"

    def feature_names(self, prefix: str) -> list[str]:
        return [f"{prefix}_mean", f"{prefix}_count"]

    def apply(self, values: Sequence[float]) -> list[float]:
        values = _to_floats(values)
        return [agg_avg(values), float(len(values))]

    def apply_flat(
        self, values: np.ndarray, group_ids: np.ndarray, n_groups: int
    ) -> np.ndarray:
        means = grouped_aggregate("AVG", values, group_ids, n_groups)
        return np.column_stack([means, _grouped_counts(group_ids, n_groups)])


class MedianEmbedding(Embedding):
    """``[median, count]``."""

    name = "median"

    def feature_names(self, prefix: str) -> list[str]:
        return [f"{prefix}_median", f"{prefix}_count"]

    def apply(self, values: Sequence[float]) -> list[float]:
        values = _to_floats(values)
        return [agg_median(values), float(len(values))]

    def apply_flat(
        self, values: np.ndarray, group_ids: np.ndarray, n_groups: int
    ) -> np.ndarray:
        medians = grouped_aggregate("MEDIAN", values, group_ids, n_groups)
        return np.column_stack([medians, _grouped_counts(group_ids, n_groups)])


class CountEmbedding(Embedding):
    """``[count]`` — only the cardinality of the value set."""

    name = "count"

    def feature_names(self, prefix: str) -> list[str]:
        return [f"{prefix}_count"]

    def apply(self, values: Sequence[float]) -> list[float]:
        return [float(len(values))]

    def apply_flat(
        self, values: np.ndarray, group_ids: np.ndarray, n_groups: int
    ) -> np.ndarray:
        return _grouped_counts(group_ids, n_groups).reshape(-1, 1)


class SumEmbedding(Embedding):
    """``[sum, count]``."""

    name = "sum"

    def feature_names(self, prefix: str) -> list[str]:
        return [f"{prefix}_sum", f"{prefix}_count"]

    def apply(self, values: Sequence[float]) -> list[float]:
        values = _to_floats(values)
        return [agg_sum(values), float(len(values))]

    def apply_flat(
        self, values: np.ndarray, group_ids: np.ndarray, n_groups: int
    ) -> np.ndarray:
        sums = grouped_aggregate("SUM", values, group_ids, n_groups)
        return np.column_stack([sums, _grouped_counts(group_ids, n_groups)])


class MomentsEmbedding(Embedding):
    """``[mean, variance, skewness, ..., count]`` — moment summarization.

    ``order`` controls how many central moments are emitted (1 = mean,
    2 = +variance, 3 = +skewness).  The paper chooses the order to minimise
    response-prediction loss; the engine exposes it as a parameter.
    """

    name = "moments"

    def __init__(self, order: int = 3) -> None:
        if order < 1 or order > 3:
            raise ValueError(f"moment order must be 1, 2 or 3, got {order}")
        self.order = order

    def feature_names(self, prefix: str) -> list[str]:
        names = [f"{prefix}_mean"]
        if self.order >= 2:
            names.append(f"{prefix}_var")
        if self.order >= 3:
            names.append(f"{prefix}_skew")
        names.append(f"{prefix}_count")
        return names

    def apply(self, values: Sequence[float]) -> list[float]:
        values = _to_floats(values)
        features = [agg_avg(values)]
        if self.order >= 2:
            features.append(agg_var(values))
        if self.order >= 3:
            features.append(agg_skew(values))
        features.append(float(len(values)))
        return features

    def apply_flat(
        self, values: np.ndarray, group_ids: np.ndarray, n_groups: int
    ) -> np.ndarray:
        blocks = [grouped_aggregate("AVG", values, group_ids, n_groups)]
        if self.order >= 2:
            blocks.append(grouped_aggregate("VAR", values, group_ids, n_groups))
        if self.order >= 3:
            blocks.append(grouped_aggregate("SKEW", values, group_ids, n_groups))
        blocks.append(_grouped_counts(group_ids, n_groups))
        return np.column_stack(blocks)


class PaddingEmbedding(Embedding):
    """Sort the values and pad them with an out-of-band marker to a fixed width.

    The width is either given explicitly or learned from the data via
    :meth:`fit` (the maximum group size seen).  As the paper notes, the
    vectors grow with the relational skeleton, which limits applicability —
    the implementation caps the width at ``max_width``.
    """

    name = "padding"

    def __init__(self, width: int | None = None, fill: float = -1.0, max_width: int = 32) -> None:
        if width is not None and width < 1:
            raise ValueError("padding width must be at least 1")
        self.width = width
        self.fill = float(fill)
        self.max_width = max_width

    def fit(self, groups: Sequence[Sequence[float]]) -> "PaddingEmbedding":
        observed = max((len(group) for group in groups), default=1)
        self.width = max(1, min(observed, self.max_width))
        return self

    def fit_flat(
        self, values: np.ndarray, group_ids: np.ndarray, n_groups: int
    ) -> "PaddingEmbedding":
        counts = np.bincount(group_ids, minlength=n_groups)
        observed = int(counts.max()) if n_groups else 1
        self.width = max(1, min(observed, self.max_width))
        return self

    def feature_names(self, prefix: str) -> list[str]:
        width = self.width or 1
        return [f"{prefix}_pad{i}" for i in range(width)] + [f"{prefix}_count"]

    def apply(self, values: Sequence[float]) -> list[float]:
        width = self.width or 1
        # Descending with NaNs deterministically last (position-independent),
        # matching the vectorized :meth:`apply_flat` sort order.
        ordered = sorted(
            _to_floats(values), key=lambda value: (math.isnan(value), -value)
        )[:width]
        padded = ordered + [self.fill] * (width - len(ordered))
        return padded + [float(len(values))]

    def apply_flat(
        self, values: np.ndarray, group_ids: np.ndarray, n_groups: int
    ) -> np.ndarray:
        width = self.width or 1
        counts = np.bincount(group_ids, minlength=n_groups)
        matrix = np.full((n_groups, width), self.fill)
        if len(values):
            # Descending sort within each group (stable, like sorted(reverse=True)).
            order = np.lexsort((-values, group_ids))
            sorted_ids = group_ids[order]
            sorted_values = values[order]
            offsets = np.concatenate([[0], np.cumsum(counts)])
            ranks = np.arange(len(values)) - offsets[sorted_ids]
            keep = ranks < width
            matrix[sorted_ids[keep], ranks[keep]] = sorted_values[keep]
        return np.hstack([matrix, counts.astype(float).reshape(-1, 1)])


#: Registry of embedding factories by name.
EMBEDDINGS: dict[str, type[Embedding]] = {
    MeanEmbedding.name: MeanEmbedding,
    MedianEmbedding.name: MedianEmbedding,
    CountEmbedding.name: CountEmbedding,
    SumEmbedding.name: SumEmbedding,
    MomentsEmbedding.name: MomentsEmbedding,
    PaddingEmbedding.name: PaddingEmbedding,
}


def get_embedding(name_or_embedding: str | Embedding, **kwargs: object) -> Embedding:
    """Resolve an embedding by name (or pass an instance through)."""
    if isinstance(name_or_embedding, Embedding):
        return name_or_embedding
    factory = EMBEDDINGS.get(str(name_or_embedding).lower())
    if factory is None:
        raise ValueError(
            f"unknown embedding {name_or_embedding!r}; expected one of {sorted(EMBEDDINGS)}"
        )
    return factory(**kwargs)  # type: ignore[arg-type]
