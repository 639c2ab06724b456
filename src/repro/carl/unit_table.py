"""Unit-table construction (Algorithm 1 of the paper).

The unit table is the flat, single-table representation of a relational
causal query: one row per (unified) unit with its outcome, its own
treatment, the embedded treatments of its relational peers, and the embedded
confounding covariates detected by Theorem 5.2.  Once built, any standard
single-table causal estimator can be applied to it (Section 5.2.1).

The build runs in two phases: :func:`collect_unit_table_inputs` walks the
grounded graph once per block of units and gathers flat ``(value,
unit-row)`` covariate buckets, and :func:`materialize_unit_table`
binarizes, embeds and assembles them with vectorized numpy passes.
``tests/row_oracle.py`` keeps the unit-by-unit transcriptions of
Algorithm 1 and of the collect phase that the parity tests hold this build
to.
"""

from __future__ import annotations

import copy
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.carl.causal_graph import WALK_BLOCK, GroundedAttribute, GroundedCausalGraph
from repro.carl.embeddings import Embedding, MeanEmbedding, get_embedding
from repro.carl.errors import EstimationError
from repro.db.aggregates import as_numeric_array

#: Maximum number of distinct categories one-hot encoded for a categorical covariate.
MAX_CATEGORIES = 20


class UnitTable:
    """The flat table produced by Algorithm 1, backed by numpy arrays."""

    def __init__(
        self,
        unit_keys: list[tuple[Any, ...]],
        outcome: np.ndarray,
        treatment: np.ndarray,
        peer_treatment: np.ndarray,
        peer_counts: np.ndarray,
        covariates: np.ndarray,
        peer_columns: list[str],
        covariate_columns: list[str],
        treatment_attribute: str,
        response_attribute: str,
    ) -> None:
        self.unit_keys = unit_keys
        self.outcome = outcome
        self.treatment = treatment
        self.peer_treatment = peer_treatment
        self.peer_counts = peer_counts
        self.covariates = covariates
        self.peer_columns = peer_columns
        self.covariate_columns = covariate_columns
        self.treatment_attribute = treatment_attribute
        self.response_attribute = response_attribute

    # ------------------------------------------------------------------
    # shape / access helpers
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.unit_keys)

    @property
    def has_peers(self) -> bool:
        return bool(self.peer_columns) and bool(np.any(self.peer_counts > 0))

    @property
    def feature_names(self) -> list[str]:
        """Column names of :meth:`features`, in order."""
        return ["treatment", *self.peer_columns, *self.covariate_columns]

    def features(self) -> np.ndarray:
        """Design matrix ``[treatment | peer treatment embedding | covariates]``."""
        columns = [self.treatment.reshape(-1, 1)]
        if self.peer_treatment.size:
            columns.append(self.peer_treatment)
        if self.covariates.size:
            columns.append(self.covariates)
        return np.hstack(columns) if columns else np.empty((len(self), 0))

    def adjustment_features(self) -> np.ndarray:
        """Covariates plus peer-treatment embedding (everything except own treatment)."""
        columns = []
        if self.peer_treatment.size:
            columns.append(self.peer_treatment)
        if self.covariates.size:
            columns.append(self.covariates)
        if not columns:
            return np.empty((len(self), 0))
        return np.hstack(columns)

    def peer_fraction(self) -> np.ndarray:
        """Fraction of each unit's peers that are treated (0 when it has no peers)."""
        if not self.peer_columns:
            return np.zeros(len(self))
        # The first peer column is the mean of the binarized peer treatments.
        return self.peer_treatment[:, 0].copy()

    def to_rows(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Human-readable rows (the paper's Table 1 rendering of the unit table)."""
        rows = []
        count = len(self) if limit is None else min(limit, len(self))
        for index in range(count):
            row: dict[str, Any] = {
                "unit": self.unit_keys[index],
                self.response_attribute: float(self.outcome[index]),
                self.treatment_attribute: float(self.treatment[index]),
            }
            for column_index, column in enumerate(self.peer_columns):
                row[column] = float(self.peer_treatment[index, column_index])
            for column_index, column in enumerate(self.covariate_columns):
                row[column] = float(self.covariates[index, column_index])
            rows.append(row)
        return rows

    def equals(self, other: "UnitTable") -> bool:
        """Bit-exact equality with ``other`` (NaN payloads and signed zeros
        included).

        This is the contract the artifact cache's ``save -> load`` round trip
        guarantees: a unit table loaded from disk (possibly memory-mapped) is
        ``equals`` to the one that was stored, so estimators see the exact
        same bytes and produce bit-identical answers.
        """
        if self.unit_keys != other.unit_keys:
            return False
        if (
            self.peer_columns != other.peer_columns
            or self.covariate_columns != other.covariate_columns
            or self.treatment_attribute != other.treatment_attribute
            or self.response_attribute != other.response_attribute
        ):
            return False
        for field in ("outcome", "treatment", "peer_treatment", "peer_counts", "covariates"):
            mine = np.asarray(getattr(self, field), dtype=float)
            theirs = np.asarray(getattr(other, field), dtype=float)
            if mine.shape != theirs.shape or mine.tobytes() != theirs.tobytes():
                return False
        return True

    def summary(self) -> dict[str, Any]:
        treated = self.treatment > 0.5
        return {
            "units": len(self),
            "treated": int(treated.sum()),
            "control": int((~treated).sum()),
            "covariate_columns": list(self.covariate_columns),
            "peer_columns": list(self.peer_columns),
            "mean_outcome": float(self.outcome.mean()) if len(self) else float("nan"),
            "mean_peer_count": float(self.peer_counts.mean()) if len(self) else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UnitTable(units={len(self)}, treatment={self.treatment_attribute!r}, "
            f"response={self.response_attribute!r}, covariates={len(self.covariate_columns)})"
        )


def default_binarizer(attribute: str) -> Callable[[Any], float]:
    """Binarize a raw treatment value: booleans and 0/1 numerics pass through."""

    def binarize(value: Any) -> float:
        if isinstance(value, bool):
            return 1.0 if value else 0.0
        if isinstance(value, (int, float)) and float(value) in (0.0, 1.0):
            return float(value)
        raise EstimationError(
            f"treatment attribute {attribute!r} has non-binary value {value!r}; "
            "add a threshold to the query (e.g. 'T[X] >= 30') to binarize it"
        )

    return binarize


_MISSING = object()


@dataclass(frozen=True)
class UnitTableInputs:
    """The embedding- and binarization-independent inputs of one unit table.

    Everything :func:`collect_unit_table_inputs` gathers from the grounded
    graph — kept units, raw treatment/outcome/peer values, and flat covariate
    ``(value, unit-row)`` buckets — depends only on ``(graph, values,
    outcome reader, treatment attribute, response attribute, units,
    peers)``.  Queries that differ only in treatment threshold or embedding
    can therefore share one collection and diverge at
    :func:`materialize_unit_table`, which is how a batched
    :meth:`CaRLEngine.answer_all` amortizes graph walks.

    Instances are treated as immutable after collection: materialization only
    reads them, so one collection may back any number of concurrent
    materializations.
    """

    treatment_attribute: str
    response_attribute: str
    unit_keys: list[tuple[Any, ...]] = field(repr=False)
    outcomes_raw: list[Any] = field(repr=False)
    treatments_raw: list[Any] = field(repr=False)
    peer_counts: list[int] = field(repr=False)
    peer_values_raw: list[Any] = field(repr=False)
    peer_group_ids: list[int] = field(repr=False)
    covariate_order: list[str] = field(repr=False)
    #: column name -> (flat values, flat unit-row ids)
    buckets: dict[str, tuple[list[Any], list[int]]] = field(repr=False)

    def __len__(self) -> int:
        return len(self.unit_keys)


def build_unit_table(
    graph: GroundedCausalGraph,
    values: dict[GroundedAttribute, Any],
    treatment_attribute: str,
    response_attribute: str,
    units: Sequence[tuple[Any, ...]],
    peers: dict[tuple[Any, ...], list[tuple[Any, ...]]],
    is_observed: Callable[[str], bool],
    embedding: str | Embedding = "mean",
    peer_embedding: str | Embedding | None = None,
    binarize: Callable[[Any], float] | None = None,
) -> UnitTable:
    """Algorithm 1: build the unit table for a (unified) treatment/response pair.

    Parameters mirror the paper's algorithm: the grounded causal graph, the
    observed (and aggregated) grounded values, the treatment and response
    attribute functions, the unified units and their relational peers, and
    the embedding functions used to collapse variable-size vectors.

    Implemented as :func:`collect_unit_table_inputs` (batched graph walks
    and gathers) followed by :func:`materialize_unit_table` (binarization,
    embedding and assembly); batch callers invoke the two phases
    separately to share collections across queries.
    """
    inputs = collect_unit_table_inputs(
        graph, values, values.get, treatment_attribute, response_attribute, units, peers,
        is_observed,
    )
    return materialize_unit_table(
        inputs, embedding=embedding, peer_embedding=peer_embedding, binarize=binarize
    )


def collect_unit_table_inputs(
    graph: GroundedCausalGraph,
    values: dict[GroundedAttribute, Any],
    outcome: Callable[[GroundedAttribute], Any],
    treatment_attribute: str,
    response_attribute: str,
    units: Sequence[tuple[Any, ...]],
    peers: dict[tuple[Any, ...], list[tuple[Any, ...]]],
    is_observed: Callable[[str], bool],
    allow_empty: bool = False,
) -> UnitTableInputs:
    """Phase 1 of the build: gather everything the table needs from the graph.

    Collects, per kept unit, the raw outcome/treatment values, the raw peer
    treatments, and the Theorem 5.2 adjustment-set values as flat covariate
    buckets.  The result is independent of the embedding and of treatment
    binarization (both are applied by :func:`materialize_unit_table`).

    A unit is kept when its outcome and its treatment are not None.  Its
    own covariates are the observed, non-treatment parents of ``T[u]``, in
    id order, when ``T[u]`` reaches ``Y[u]`` (or is it); its peer
    covariates are those of each peer whose treatment reaches ``Y[u]``, in
    peer order, keeping a node's first occurrence in the row and dropping
    the unit's own covariate nodes.  Only nodes ``values`` holds (even as
    None) are gathered.  Columns are ordered by their first gathered value.

    ``outcome`` reads each unit's response node (``values.get``, or a reader
    that aggregates a restricted response's head as it is read); every other
    value comes from ``values``, whose keys are nodes of ``graph``.

    The outcome and treatment reads are per unit; the rest is per block of
    :data:`WALK_BLOCK` units: one batched walk
    (:meth:`GroundedCausalGraph.attribute_ancestor_pairs`) decides which
    treatments reach which responses, and covariates are CSR parent gathers
    over ``(row, node)`` arrays.

    ``allow_empty`` suppresses the no-units error: a shard worker collecting
    one unit *range* of a larger table may legitimately keep zero units (the
    merged collection raises instead when every shard came back empty).
    """
    kept_units: list[tuple[Any, ...]] = []
    outcomes_raw: list[Any] = []
    treatments_raw: list[Any] = []
    peer_counts: list[int] = []
    peer_values_raw: list[Any] = []
    peer_group_ids: list[int] = []
    covariate_order: list[str] = []
    #: column name -> (flat values, flat unit-row ids)
    buckets: dict[str, tuple[list[Any], list[int]]] = {}

    layers = graph.attribute_layers()
    n = np.int64(layers.csr.n)
    node_code = layers.node_code
    names = layers.names
    node_at = graph.node_at
    values_get = values.get
    peers_get = peers.get
    # Attribute code -> whether its groundings are adjustment covariates:
    # the observed parent attributes of the treatment.  Only those are asked,
    # since a loaded grounding may hold groundings (another session's
    # unifying aggregates) that this session's model cannot classify.
    covariate = np.zeros(len(names), dtype=bool)
    treatment_code = layers.code_of.get(treatment_attribute)
    for code, below in enumerate(layers.children):
        if treatment_code in below:
            covariate[code] = is_observed(names[code])

    def covariate_parents(rows: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(row, parent)`` for every covariate parent of ``nodes[i]``
        (a node of row ``rows[i]``), in ``nodes`` order, parents by id."""
        owner, parents = layers.csr.parent_pairs(nodes)
        chosen = covariate[node_code[parents]]
        return rows[owner][chosen], parents[chosen]

    for start in range(0, len(units), WALK_BLOCK):
        response_nodes: list[GroundedAttribute] = []
        treatment_nodes: list[GroundedAttribute] = []
        block_peers: list[tuple[Any, ...]] = []
        block_peer_counts: list[int] = []
        for unit in units[start : start + WALK_BLOCK]:
            response_node = GroundedAttribute(response_attribute, unit)
            outcome_value = outcome(response_node)
            if outcome_value is None:
                continue
            treatment_node = GroundedAttribute(treatment_attribute, unit)
            treatment_value = values_get(treatment_node)
            if treatment_value is None:
                continue
            unit_peers = peers_get(unit) or []
            block_peers.extend(unit_peers)
            block_peer_counts.append(len(unit_peers))
            response_nodes.append(response_node)
            treatment_nodes.append(treatment_node)
            kept_units.append(unit)
            outcomes_raw.append(outcome_value)
            treatments_raw.append(treatment_value)
        if not response_nodes:
            continue
        peer_counts.extend(block_peer_counts)
        # One int object per row, shared by every entry that row gathers.
        first_row = len(kept_units) - len(response_nodes)
        row_ids = np.arange(first_row, len(kept_units)).astype(object)
        rows = np.arange(len(response_nodes), dtype=np.int64)
        response_ids = graph.node_ids(response_nodes)
        treatment_ids = graph.node_ids(treatment_nodes)
        peer_rows = np.repeat(rows, block_peer_counts)
        peer_ids = graph.node_ids(
            GroundedAttribute(treatment_attribute, peer) for peer in block_peers
        )

        present, found = _node_values(values_get, node_at, peer_ids)
        peer_values_raw.extend(found[present].tolist())
        peer_group_ids.extend(row_ids[peer_rows[present]].tolist())

        # Theorem 5.2 adjustment sets: T[x] counts for row u when it is
        # Y[u] or one of Y[u]'s treatment ancestors.
        positions, ancestors = graph.attribute_ancestor_pairs(response_ids, treatment_attribute)
        reached = positions * n + ancestors

        def reaches(owners: np.ndarray, ids: np.ndarray) -> np.ndarray:
            return (ids >= 0) & (
                (ids == response_ids[owners]) | np.isin(owners * n + ids, reached)
            )

        own = np.flatnonzero(reaches(rows, treatment_ids))
        own_rows, own_nodes = covariate_parents(own, treatment_ids[own])
        walked = np.flatnonzero(reaches(peer_rows, peer_ids))
        peer_cov_rows, peer_cov_nodes = covariate_parents(peer_rows[walked], peer_ids[walked])
        # A node's first occurrence in a row wins; the row's own covariate
        # nodes (valued or not) never enter its peer side.
        codes = peer_cov_rows * n + peer_cov_nodes
        first = np.zeros(codes.size, dtype=bool)
        first[np.unique(codes, return_index=True)[1]] = True
        first &= ~np.isin(codes, own_rows * n + own_nodes)

        # Entries in (row, own before peer, position) order, valued only.
        entry_rows = np.concatenate((own_rows, peer_cov_rows[first]))
        entry_nodes = np.concatenate((own_nodes, peer_cov_nodes[first]))
        is_peer = np.repeat(np.array([0, 1], dtype=np.int64), (own_rows.size, int(first.sum())))
        order = np.argsort(entry_rows * 2 + is_peer, kind="stable")
        entry_rows, entry_nodes, is_peer = entry_rows[order], entry_nodes[order], is_peer[order]
        present, found = _node_values(values_get, node_at, entry_nodes)
        entry_rows, found = entry_rows[present], found[present]
        columns = (node_code[entry_nodes] * 2 + is_peer)[present]
        seen_columns, first_seen = np.unique(columns, return_index=True)
        for column in seen_columns[np.argsort(first_seen)].tolist():
            name = ("peer_" if column % 2 else "own_") + names[column // 2]
            bucket = buckets.get(name)
            if bucket is None:
                covariate_order.append(name)
                bucket = buckets[name] = ([], [])
            chosen = columns == column
            bucket[0].extend(found[chosen].tolist())
            bucket[1].extend(row_ids[entry_rows[chosen]].tolist())

    if not kept_units and not allow_empty:
        raise EstimationError(
            f"no units with observed treatment {treatment_attribute!r} and response "
            f"{response_attribute!r}; cannot build a unit table"
        )

    return UnitTableInputs(
        treatment_attribute=treatment_attribute,
        response_attribute=response_attribute,
        unit_keys=kept_units,
        outcomes_raw=outcomes_raw,
        treatments_raw=treatments_raw,
        peer_counts=peer_counts,
        peer_values_raw=peer_values_raw,
        peer_group_ids=peer_group_ids,
        covariate_order=covariate_order,
        buckets=buckets,
    )


def _node_values(
    values_get: Callable[..., Any],
    node_at: Callable[[int], GroundedAttribute],
    ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(present, found)`` for the graph nodes ``ids``: whether ``values``
    holds each node (-1 never), and its value as an object array.  Each
    distinct node is looked up once."""
    unique, inverse = np.unique(ids, return_inverse=True)
    found = np.fromiter(
        (values_get(node_at(i), _MISSING) if i >= 0 else _MISSING for i in unique.tolist()),
        dtype=object,
        count=unique.size,
    )
    present = np.fromiter(
        (value is not _MISSING for value in found), dtype=bool, count=unique.size
    )
    return present[inverse], found[inverse]


def merge_unit_table_inputs(parts: Sequence[UnitTableInputs]) -> UnitTableInputs:
    """Merge shard collections over consecutive unit ranges into one.

    Given collections produced by :func:`collect_unit_table_inputs` over
    consecutive slices of one unit list (in slice order), the merge is pure
    concatenation: per-unit fields append in shard order, bucket and peer
    row ids shift by the number of units the earlier shards kept, and the
    covariate column order is the first-seen order across shards — exactly
    the order a single collection over the full unit list discovers.  The
    merged result is therefore *identical* (not just equivalent) to the
    unsharded collection, which is what makes sharded unit-table builds
    bit-identical to serial ones: materialization sees the same inputs.
    """
    if not parts:
        raise EstimationError("cannot merge zero unit-table shard collections")
    first = parts[0]
    for part in parts[1:]:
        if (
            part.treatment_attribute != first.treatment_attribute
            or part.response_attribute != first.response_attribute
        ):
            raise EstimationError(
                "unit-table shard collections disagree on the treatment/response pair: "
                f"({first.treatment_attribute!r}, {first.response_attribute!r}) vs "
                f"({part.treatment_attribute!r}, {part.response_attribute!r})"
            )

    unit_keys: list[tuple[Any, ...]] = []
    outcomes_raw: list[Any] = []
    treatments_raw: list[Any] = []
    peer_counts: list[int] = []
    peer_values_raw: list[Any] = []
    peer_group_ids: list[int] = []
    covariate_order: list[str] = []
    buckets: dict[str, tuple[list[Any], list[int]]] = {}

    offset = 0
    for part in parts:
        unit_keys.extend(part.unit_keys)
        outcomes_raw.extend(part.outcomes_raw)
        treatments_raw.extend(part.treatments_raw)
        peer_counts.extend(part.peer_counts)
        peer_values_raw.extend(part.peer_values_raw)
        peer_group_ids.extend(row + offset for row in part.peer_group_ids)
        for name in part.covariate_order:
            bucket = buckets.get(name)
            if bucket is None:
                covariate_order.append(name)
                bucket = buckets[name] = ([], [])
            part_values, part_rows = part.buckets[name]
            bucket[0].extend(part_values)
            bucket[1].extend(row + offset for row in part_rows)
        offset += len(part.unit_keys)

    if not unit_keys:
        raise EstimationError(
            f"no units with observed treatment {first.treatment_attribute!r} and response "
            f"{first.response_attribute!r}; cannot build a unit table"
        )
    return UnitTableInputs(
        treatment_attribute=first.treatment_attribute,
        response_attribute=first.response_attribute,
        unit_keys=unit_keys,
        outcomes_raw=outcomes_raw,
        treatments_raw=treatments_raw,
        peer_counts=peer_counts,
        peer_values_raw=peer_values_raw,
        peer_group_ids=peer_group_ids,
        covariate_order=covariate_order,
        buckets=buckets,
    )


def materialize_unit_table(
    inputs: UnitTableInputs,
    embedding: str | Embedding = "mean",
    peer_embedding: str | Embedding | None = None,
    binarize: Callable[[Any], float] | None = None,
) -> UnitTable:
    """Phase 2 of the build: binarize, embed and assemble.

    Pure function of ``inputs`` (which it never mutates) plus the embedding
    and binarizer choices — the numpy-dominated half of the build,
    safe to run concurrently over one shared collection.
    """
    treatment_attribute = inputs.treatment_attribute
    vectorized_binarize = binarize is None
    binarize = binarize or default_binarizer(treatment_attribute)
    peer_embedder = get_embedding(peer_embedding if peer_embedding is not None else MeanEmbedding())

    kept_units = inputs.unit_keys
    n_units = len(kept_units)
    treatment = _binarize_vector(inputs.treatments_raw, binarize, vectorized_binarize)
    peer_flat = _binarize_vector(inputs.peer_values_raw, binarize, vectorized_binarize)
    outcome = np.asarray(inputs.outcomes_raw, dtype=float)

    peer_gids = np.asarray(inputs.peer_group_ids, dtype=np.intp)
    if len(peer_flat) == 0:
        peer_matrix, peer_columns = np.empty((n_units, 0)), []
    else:
        embedder = _fit_embedder(copy.deepcopy(peer_embedder), peer_flat, peer_gids, n_units)
        peer_columns = embedder.feature_names("peer_treatment")
        peer_matrix = _apply_embedder(embedder, peer_flat, peer_gids, n_units)

    blocks: list[np.ndarray] = []
    columns: list[str] = []
    for attribute in inputs.covariate_order:
        flat_values, flat_group_ids = inputs.buckets[attribute]
        group_ids = np.asarray(flat_group_ids, dtype=np.intp)
        numeric = as_numeric_array(flat_values)
        if numeric is None and _is_numeric_attribute([flat_values]):
            numeric = np.asarray([_to_number(value) for value in flat_values], dtype=float)
        if numeric is not None:
            embedder = _fit_embedder(
                copy.deepcopy(get_embedding(embedding)), numeric, group_ids, n_units
            )
            block = _apply_embedder(embedder, numeric, group_ids, n_units)
            block_columns = embedder.feature_names(f"cov_{attribute}")
        else:
            block, block_columns = _encode_categorical_flat(
                attribute, flat_values, group_ids, n_units
            )
        blocks.append(block)
        columns.extend(block_columns)
    covariate_matrix = np.hstack(blocks) if blocks else np.empty((n_units, 0))

    return UnitTable(
        unit_keys=kept_units,
        outcome=outcome,
        treatment=treatment,
        peer_treatment=peer_matrix,
        peer_counts=np.asarray(inputs.peer_counts, dtype=float),
        covariates=covariate_matrix,
        peer_columns=peer_columns,
        covariate_columns=columns,
        treatment_attribute=treatment_attribute,
        response_attribute=inputs.response_attribute,
    )


def _binarize_vector(
    raw_values: list[Any], binarize: Callable[[Any], float], vectorize: bool
) -> np.ndarray:
    """Binarize treatments in bulk; errors match a per-value ``binarize`` loop."""
    if not raw_values:
        return np.empty(0)
    if vectorize:
        array = as_numeric_array(raw_values)
        if array is not None:
            valid = (array == 0.0) | (array == 1.0)
            if bool(valid.all()):
                return array
            # Raise the per-value error for the first offending value.
            binarize(raw_values[int(np.argmax(~valid))])
    return np.asarray([binarize(value) for value in raw_values], dtype=float)


def _defining_class(cls: type, method: str) -> type | None:
    """The most-derived class in ``cls``'s MRO that defines ``method``."""
    for base in cls.__mro__:
        if method in vars(base):
            return base
    return None


def _flat_method_usable(cls: type, scalar: str, flat: str) -> bool:
    """True when the ``flat`` kernel is at least as derived as the ``scalar``
    method, i.e. no subclass customized the scalar behavior below the class
    that supplied the vectorized kernel (which would be silently bypassed)."""
    flat_owner = _defining_class(cls, flat)
    scalar_owner = _defining_class(cls, scalar)
    if flat_owner is None or scalar_owner is None:
        return flat_owner is not None
    return issubclass(flat_owner, scalar_owner)


def _fit_embedder(
    embedder: Embedding, values: np.ndarray, group_ids: np.ndarray, n_groups: int
) -> Embedding:
    """Fit on flat arrays; custom embeddings whose ``fit`` override is more
    derived than their ``fit_flat`` get their groups reconstructed so the
    custom fitting logic still runs."""
    cls = type(embedder)
    if _defining_class(cls, "fit") is Embedding or _flat_method_usable(cls, "fit", "fit_flat"):
        return embedder.fit_flat(values, group_ids, n_groups)
    return embedder.fit(_regroup(values, group_ids, n_groups))


def _apply_embedder(
    embedder: Embedding, values: np.ndarray, group_ids: np.ndarray, n_groups: int
) -> np.ndarray:
    if _flat_method_usable(type(embedder), "apply", "apply_flat"):
        matrix = embedder.apply_flat(values, group_ids, n_groups)
        if matrix is not None:
            return matrix
    groups = _regroup(values, group_ids, n_groups)
    return np.asarray([embedder.apply(group) for group in groups], dtype=float)


def _regroup(values: np.ndarray, group_ids: np.ndarray, n_groups: int) -> list[list[float]]:
    groups: list[list[float]] = [[] for _ in range(n_groups)]
    for group, value in zip(group_ids.tolist(), values.tolist()):
        groups[group].append(value)
    return groups


def _encode_categorical_flat(
    attribute: str, values: list[Any], group_ids: np.ndarray, n_groups: int
) -> tuple[np.ndarray, list[str]]:
    """Encode a categorical covariate as per-unit category fractions + count.

    For the common case of a single parent value per unit this reduces to a
    one-hot encoding.  The most frequent :data:`MAX_CATEGORIES` categories get
    their own column; the rest share an ``other`` column.  Vectorized over
    flat (value, unit) pairs.
    """
    counts: Counter[Any] = Counter(values)
    categories = [category for category, _ in counts.most_common(MAX_CATEGORIES)]
    category_index = {category: position for position, category in enumerate(categories)}
    has_other = len(counts) > len(categories)

    width = len(categories) + (1 if has_other else 0) + 1  # + count column
    matrix = np.zeros((n_groups, width), dtype=float)
    totals = np.bincount(group_ids, minlength=n_groups).astype(float)
    if values:
        other_position = len(categories)
        positions = np.asarray(
            [category_index.get(value, other_position) for value in values], dtype=np.intp
        )
        np.add.at(matrix, (group_ids, positions), 1.0 / totals[group_ids])
        nonempty = totals > 0
        matrix[nonempty, -1] = totals[nonempty]

    columns = [f"cov_{attribute}_is_{_category_label(category)}" for category in categories]
    if has_other:
        columns.append(f"cov_{attribute}_is_other")
    columns.append(f"cov_{attribute}_count")
    return matrix, columns


def _is_numeric_attribute(groups: list[list[Any]]) -> bool:
    for group in groups:
        for value in group:
            if isinstance(value, bool):
                continue
            if not isinstance(value, (int, float)):
                return False
    return True


def _to_number(value: Any) -> float:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    return float(value)


def _category_label(category: Any) -> str:
    label = str(category).strip().replace(" ", "_")
    return label or "empty"
