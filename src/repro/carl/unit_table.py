"""Unit-table construction (Algorithm 1 of the paper).

The unit table is the flat, single-table representation of a relational
causal query: one row per (unified) unit with its outcome, its own
treatment, the embedded treatments of its relational peers, and the embedded
confounding covariates detected by Theorem 5.2.  Once built, any standard
single-table causal estimator can be applied to it (Section 5.2.1).

The build runs in two phases over arrays.  :func:`collect_unit_table_inputs`
takes the peer walk's node-id arrays (:class:`~repro.carl.peers.Peers`) and
the grounding's id-indexed value column
(:class:`~repro.carl.causal_graph.NodeValues`) and gathers a column-major
:class:`UnitTableInputs`: per-unit arrays, and each value column (own and
peer treatments, each covariate bucket) as integer codes into its distinct
values (:class:`CodedValues`).  :func:`merge_unit_table_inputs`
concatenates shard collections, and :func:`materialize_unit_table`
binarizes, embeds and assembles them.  Python runs per unit, per distinct
node or value, or per column, never per peer pair or per gathered value.
``tests/row_oracle.py`` keeps the unit-by-unit transcriptions of
Algorithm 1 and of the collect phase that the parity tests hold this build
to.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.carl.causal_graph import (
    WALK_BLOCK,
    GroundedAttribute,
    GroundedCausalGraph,
    NodeValues,
)
from repro.carl.embeddings import Embedding, MeanEmbedding, get_embedding
from repro.carl.errors import EstimationError
from repro.carl.grounding import head_values
from repro.db.aggregates import as_numeric_array
from repro.db.query import first_codes, first_positions
from repro.db.table import as_object_array, not_none_mask

if TYPE_CHECKING:
    from repro.carl.peers import Peers

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


@dataclass(frozen=True, eq=False)
class CodedValues:
    """One column of gathered raw values, as integer codes.

    ``distinct`` is an object array of the column's distinct values in
    first-seen order and ``codes[i]`` the position of the column's ``i``-th
    value in it.  Values are distinct under Python ``dict`` equality, as a
    ``Counter`` of the values would key them (``1``, ``1.0`` and ``True``
    share a code, the first seen standing for all; NaN objects key by
    identity), except that a negative float zero keeps a code of its own:
    an embedded number keeps its sign bit, while categories, which merge
    equal codes again, do not.
    """

    codes: np.ndarray
    distinct: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)

    @classmethod
    def encode(cls, values: list[Any]) -> "CodedValues":
        """The column of ``values``, keyed once per value at C level."""
        codes, first_of, _ = first_codes(values)
        zero = first_of.get(0)
        if zero is not None:
            # Some value equals zero: a negative float zero among them gets
            # its own key.  Only that code's values are looked at.
            negative = [
                position
                for position in np.flatnonzero(codes == codes[zero]).tolist()
                if isinstance(values[position], float)
                and math.copysign(1.0, values[position]) < 0
            ]
            if negative:
                keys = list(values)
                for position in negative:
                    keys[position] = _NEGATIVE_ZERO
                codes, first_of, _ = first_codes(keys)
        return cls(codes, as_object_array([values[position] for position in first_of.values()]))

    def decode(self) -> list[Any]:
        """The column's values, one per code."""
        return self.distinct[self.codes].tolist()


#: The key a negative float zero is coded under (it equals every zero).
_NEGATIVE_ZERO = object()


def _node_codes(column: np.ndarray, nodes: np.ndarray) -> CodedValues:
    """The values of graph nodes ``nodes`` (ids into the value ``column``)
    as codes.  Each distinct node is read and keyed once, in first-seen
    order, so the codes are those of factorizing the gathered values."""
    leads = nodes[_dense_first_occurrences(nodes, len(column))]
    coded = CodedValues.encode(column[leads].tolist())
    code_of = np.empty(len(column), dtype=np.int64)
    code_of[leads] = coded.codes
    return CodedValues(code_of[nodes], coded.distinct)


def _merge_codes(columns: Sequence[CodedValues]) -> CodedValues:
    """Concatenated columns: their distinct values are merged in order,
    each column's codes remapped (Python runs per distinct value)."""
    merged = CodedValues.encode([value for coded in columns for value in coded.distinct.tolist()])
    parts: list[np.ndarray] = []
    offset = 0
    for coded in columns:
        parts.append(merged.codes[offset : offset + len(coded.distinct)][coded.codes])
        offset += len(coded.distinct)
    codes = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    return CodedValues(codes, merged.distinct)


def _dense_first_occurrences(keys: np.ndarray, size: int) -> np.ndarray:
    """Mask of the entries of ``keys`` (ints in ``[0, size)``) that no
    earlier entry equals: one pass over a dense table, no sort."""
    positions = np.arange(keys.size)
    table = np.full(size, keys.size, dtype=np.int64)
    np.minimum.at(table, keys, positions)
    return table[keys] == positions


def _read(column: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The value column at node ids ``ids``, None where an id is -1."""
    found = np.full(len(ids), None, dtype=object)
    present = ids >= 0
    found[present] = column[ids[present]]
    return found


@dataclass(frozen=True, eq=False)
class UnitTableInputs:
    """The embedding- and binarization-independent inputs of one unit table.

    Everything :func:`collect_unit_table_inputs` gathers from the grounded
    graph — kept units, raw outcomes, treatments and peer treatments, and
    the covariate buckets — depends only on ``(graph, values, outcome
    restriction, treatment attribute, response attribute, units, peers)``.
    Queries that differ only in treatment threshold or embedding can
    therefore share one collection and diverge at
    :func:`materialize_unit_table`, which is how a batched
    :meth:`CaRLEngine.answer_all` amortizes graph walks.

    Column-major: per-unit fields have one entry per kept unit (row), and
    each value column is :class:`CodedValues`.  ``peer_rows`` and each
    bucket's rows give the row of every peer treatment and covariate value.
    Instances are immutable after collection: materialization only reads
    them, so one collection may back any number of concurrent
    materializations.
    """

    treatment_attribute: str
    response_attribute: str
    unit_keys: list[tuple[Any, ...]] = field(repr=False)
    #: raw outcome per row (object array)
    outcomes: np.ndarray = field(repr=False)
    treatments: CodedValues = field(repr=False)
    #: peers per row, valued or not (int64)
    peer_counts: np.ndarray = field(repr=False)
    #: the valued peers' raw treatments, row by row, and their rows (int64)
    peer_treatments: CodedValues = field(repr=False)
    peer_rows: np.ndarray = field(repr=False)
    #: column name -> (values, rows), columns in first-gathered order
    buckets: dict[str, tuple[CodedValues, np.ndarray]] = field(repr=False)

    def __len__(self) -> int:
        return len(self.unit_keys)


def build_unit_table(
    graph: GroundedCausalGraph,
    values: Mapping[GroundedAttribute, Any],
    treatment_attribute: str,
    response_attribute: str,
    units: Sequence[tuple[Any, ...]],
    peers: "Peers",
    is_observed: Callable[[str], bool],
    embedding: str | Embedding = "mean",
    peer_embedding: str | Embedding | None = None,
    binarize: Callable[[Any], float] | None = None,
) -> UnitTable:
    """Algorithm 1: build the unit table for a (unified) treatment/response pair.

    Parameters mirror the paper's algorithm: the grounded causal graph, the
    observed (and aggregated) grounded values, the treatment and response
    attribute functions, the unified units and their relational peers
    (``compute_peers(graph, treatment_attribute, response_attribute,
    units)``), and the embedding functions used to collapse variable-size
    vectors.

    Implemented as :func:`collect_unit_table_inputs` (array gathers)
    followed by :func:`materialize_unit_table` (binarization, embedding and
    assembly); batch callers invoke the two phases separately to share
    collections across queries.
    """
    if (peers.treatment_attribute, peers.response_attribute) != (
        treatment_attribute,
        response_attribute,
    ) or peers.units != list(units):
        raise EstimationError("the peers were computed for other units or attributes")
    inputs = collect_unit_table_inputs(
        graph, NodeValues.from_mapping(graph, values), peers, is_observed
    )
    return materialize_unit_table(
        inputs, embedding=embedding, peer_embedding=peer_embedding, binarize=binarize
    )


def collect_unit_table_inputs(
    graph: GroundedCausalGraph,
    values: NodeValues,
    peers: "Peers",
    is_observed: Callable[[str], bool],
    admitted: np.ndarray | None = None,
    allow_empty: bool = False,
) -> UnitTableInputs:
    """Phase 1 of the build: gather everything the table needs from the graph.

    Collects, per kept unit, the raw outcome and treatment, the raw peer
    treatments, and the Theorem 5.2 adjustment-set values as covariate
    buckets.  The result is independent of the embedding and of treatment
    binarization (both are applied by :func:`materialize_unit_table`).

    A unit of ``peers.units`` is kept when its outcome and its treatment
    are not None.  Its own covariates are the observed, non-treatment
    parents of ``T[u]``, in id order, when ``T[u]`` reaches ``Y[u]`` (or is
    it); its peer covariates are those of each peer, in peer order, keeping
    a node's first occurrence in the row and dropping the unit's own
    covariate nodes.  Only nodes ``values`` holds (even as None) are
    gathered.  Columns are ordered by their first gathered value.

    The outcome is ``Y[u]``'s value, unless ``admitted`` (a mask over node
    ids) restricts an aggregated response: then each unit's head is
    aggregated over its admitted parents, in one CSR pass for all units
    (:func:`~repro.carl.grounding.head_values`).  Every read is a gather from
    the value column by node id.  Covariates are CSR parent gathers over
    ``(row, node)`` arrays, per block of :data:`WALK_BLOCK` rows, and each
    value column is coded once per distinct node at the end.

    ``allow_empty`` suppresses the no-units error: a shard worker collecting
    one unit *range* of a larger table may legitimately keep zero units (the
    merged collection raises instead when every shard came back empty).
    """
    treatment_attribute = peers.treatment_attribute
    column, held = values.column, values.held
    response_ids, treatment_ids = peers.response_ids, peers.treatment_ids
    if admitted is None:
        outcomes = _read(column, response_ids)
    else:
        outcomes = as_object_array(head_values(graph, column, response_ids, admitted))
    treatments = _read(column, treatment_ids)
    keep = not_none_mask(outcomes) & not_none_mask(treatments)
    kept = np.flatnonzero(keep)
    if not kept.size and not allow_empty:
        raise EstimationError(
            f"no units with observed treatment {treatment_attribute!r} and response "
            f"{peers.response_attribute!r}; cannot build a unit table"
        )

    # The kept rows' peers, as (row, peer node) pairs in row order.
    counts = np.diff(peers.indptr)
    kept_pairs = np.repeat(keep, counts)
    pair_rows = np.repeat(np.cumsum(keep) - 1, counts)[kept_pairs]
    pair_nodes = peers.peer_ids[kept_pairs]
    valued = held[pair_nodes]
    row_bounds = np.zeros(kept.size + 1, dtype=np.int64)
    np.cumsum(counts[kept], out=row_bounds[1:])

    layers = graph.attribute_layers()
    n = np.int64(layers.csr.n)
    node_code = layers.node_code
    names = layers.names
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

    own_rows = np.flatnonzero(peers.own_reaches[kept])
    own_treatments = treatment_ids[kept]
    own_bounds = np.searchsorted(own_rows, np.arange(0, kept.size + WALK_BLOCK, WALK_BLOCK))
    #: slot (attribute code * 2 + is peer) -> its blocks' rows and nodes,
    #: slots in first-gathered order
    slots: dict[int, tuple[list[np.ndarray], list[np.ndarray]]] = {}
    for block, start in enumerate(range(0, kept.size, WALK_BLOCK)):
        stop = min(start + WALK_BLOCK, kept.size)
        own = own_rows[own_bounds[block] : own_bounds[block + 1]]
        own_cov_rows, own_cov_nodes = covariate_parents(own, own_treatments[own])
        walked = slice(row_bounds[start], row_bounds[stop])
        peer_cov_rows, peer_cov_nodes = covariate_parents(pair_rows[walked], pair_nodes[walked])
        # A node's first occurrence in a row wins; the row's own covariate
        # nodes (valued or not) never enter its peer side.  Both code
        # arrays ascend by row, the own one by node within a row too.
        codes = (peer_cov_rows - start) * n + peer_cov_nodes
        own_codes = (own_cov_rows - start) * n + own_cov_nodes
        first = first_positions(codes) == np.arange(codes.size)
        if own_codes.size:
            at = np.minimum(np.searchsorted(own_codes, codes), own_codes.size - 1)
            first &= own_codes[at] != codes
        peer_cov_rows, peer_cov_nodes = peer_cov_rows[first], peer_cov_nodes[first]

        # Entries in (row, own before peer, position) order: a merge of the
        # two row-sorted lists.  Valued entries only.
        own_at = np.arange(own_cov_rows.size) + np.searchsorted(peer_cov_rows, own_cov_rows)
        peer_at = np.arange(peer_cov_rows.size) + np.searchsorted(
            own_cov_rows, peer_cov_rows, side="right"
        )
        entry_rows = np.empty(own_at.size + peer_at.size, dtype=np.int64)
        entry_nodes = np.empty_like(entry_rows)
        is_peer = np.ones_like(entry_rows)
        entry_rows[own_at], entry_rows[peer_at] = own_cov_rows, peer_cov_rows
        entry_nodes[own_at], entry_nodes[peer_at] = own_cov_nodes, peer_cov_nodes
        is_peer[own_at] = 0
        present = held[entry_nodes]
        entry_rows, entry_nodes = entry_rows[present], entry_nodes[present]
        entry_slots = node_code[entry_nodes] * 2 + is_peer[present]
        leads = _dense_first_occurrences(entry_slots, 2 * len(names))
        for slot in entry_slots[leads].tolist():
            chosen = entry_slots == slot
            slot_rows, slot_nodes = slots.setdefault(slot, ([], []))
            slot_rows.append(entry_rows[chosen])
            slot_nodes.append(entry_nodes[chosen])

    buckets: dict[str, tuple[CodedValues, np.ndarray]] = {}
    for slot in list(slots):
        slot_rows, slot_nodes = slots.pop(slot)  # each slot's blocks are freed as it is coded
        name = ("peer_" if slot % 2 else "own_") + names[slot // 2]
        buckets[name] = (_node_codes(column, np.concatenate(slot_nodes)), np.concatenate(slot_rows))

    return UnitTableInputs(
        treatment_attribute=treatment_attribute,
        response_attribute=peers.response_attribute,
        unit_keys=[peers.units[row] for row in kept.tolist()],
        outcomes=outcomes[kept],
        treatments=CodedValues.encode(treatments[kept].tolist()),
        peer_counts=counts[kept],
        peer_treatments=_node_codes(column, pair_nodes[valued]),
        peer_rows=pair_rows[valued],
        buckets=buckets,
    )


def merge_unit_table_inputs(parts: Sequence[UnitTableInputs]) -> UnitTableInputs:
    """Merge shard collections over consecutive unit ranges into one.

    Given collections produced by :func:`collect_unit_table_inputs` over
    consecutive slices of one unit list (in slice order), the merge is a
    concatenation: per-unit arrays append in shard order, bucket and peer
    rows shift by the number of units the earlier shards kept, each value
    column's distinct values merge in shard order (its codes remapped), and
    the covariate column order is the first-seen order across shards —
    exactly the order a single collection over the full unit list
    discovers.  The merged result is therefore *identical* (not just
    equivalent) to the unsharded collection, which is what makes sharded
    unit-table builds bit-identical to serial ones: materialization sees the
    same inputs.
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
    offsets = np.cumsum([0] + [len(part) for part in parts]).tolist()
    if not offsets[-1]:
        raise EstimationError(
            f"no units with observed treatment {first.treatment_attribute!r} and response "
            f"{first.response_attribute!r}; cannot build a unit table"
        )
    buckets: dict[str, tuple[CodedValues, np.ndarray]] = {}
    for name in dict.fromkeys(name for part in parts for name in part.buckets):
        shards = [
            (*part.buckets[name], offset)
            for part, offset in zip(parts, offsets)
            if name in part.buckets
        ]
        buckets[name] = (
            _merge_codes([coded for coded, _, _ in shards]),
            np.concatenate([rows + offset for _, rows, offset in shards]),
        )
    return UnitTableInputs(
        treatment_attribute=first.treatment_attribute,
        response_attribute=first.response_attribute,
        unit_keys=[key for part in parts for key in part.unit_keys],
        outcomes=np.concatenate([part.outcomes for part in parts]),
        treatments=_merge_codes([part.treatments for part in parts]),
        peer_counts=np.concatenate([part.peer_counts for part in parts]),
        peer_treatments=_merge_codes([part.peer_treatments for part in parts]),
        peer_rows=np.concatenate(
            [part.peer_rows + offset for part, offset in zip(parts, offsets)]
        ),
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
    safe to run concurrently over one shared collection.  ``binarize`` runs
    once per distinct treatment value of each column, numbers are converted
    once per distinct value and gathered by code, and categories are counted
    by ``bincount`` over the codes.
    """
    treatment_attribute = inputs.treatment_attribute
    vectorized_binarize = binarize is None
    binarize = binarize or default_binarizer(treatment_attribute)
    peer_embedder = get_embedding(peer_embedding if peer_embedding is not None else MeanEmbedding())

    kept_units = inputs.unit_keys
    n_units = len(kept_units)
    treatment, treatment_failure = _binarize(
        inputs.treatments, np.arange(n_units), binarize, vectorized_binarize
    )
    peer_flat, peer_failure = _binarize(
        inputs.peer_treatments, inputs.peer_rows, binarize, vectorized_binarize
    )
    outcome, outcome_failure = _outcome_floats(inputs.outcomes)
    # Algorithm 1 fails at the first row that fails: its treatment, then its
    # peers' treatments in order, then its outcome.
    failures = [
        (row, rank, error)
        for rank, (row, error) in enumerate((treatment_failure, peer_failure, outcome_failure))
        if error is not None
    ]
    if failures:
        raise min(failures, key=lambda failure: failure[:2])[2]

    peer_gids = np.asarray(inputs.peer_rows, dtype=np.intp)
    if len(peer_flat) == 0:
        peer_matrix, peer_columns = np.empty((n_units, 0)), []
    else:
        embedder = _fit_embedder(copy.deepcopy(peer_embedder), peer_flat, peer_gids, n_units)
        peer_columns = embedder.feature_names("peer_treatment")
        peer_matrix = _apply_embedder(embedder, peer_flat, peer_gids, n_units)

    blocks: list[np.ndarray] = []
    columns: list[str] = []
    for attribute, (coded, rows) in inputs.buckets.items():
        group_ids = np.asarray(rows, dtype=np.intp)
        distinct = coded.distinct.tolist()
        numeric = as_numeric_array(distinct)
        if numeric is None and _is_numeric_attribute([distinct]):
            numeric = np.asarray([_to_number(value) for value in distinct], dtype=float)
        if numeric is not None:
            flat = numeric[coded.codes]
            embedder = _fit_embedder(
                copy.deepcopy(get_embedding(embedding)), flat, group_ids, n_units
            )
            block = _apply_embedder(embedder, flat, group_ids, n_units)
            block_columns = embedder.feature_names(f"cov_{attribute}")
        else:
            block, block_columns = _encode_categorical(attribute, coded, group_ids, n_units)
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


def _binarize(
    coded: CodedValues, rows: np.ndarray, binarize: Callable[[Any], float], vectorize: bool
) -> tuple[np.ndarray, tuple[int, Exception | None]]:
    """Binarize a treatment column once per distinct value: the binarized
    column, and the row (``rows`` ascending, one per value) and error of
    its first value whose binarization raised (error None when none did)."""
    distinct = coded.distinct.tolist()
    if vectorize:
        array = as_numeric_array(distinct)
        if array is not None and bool(((array == 0.0) | (array == 1.0)).all()):
            return array[coded.codes], (0, None)
    binarized = np.full(len(distinct), np.nan)
    failed: dict[int, Exception] = {}
    for code, value in enumerate(distinct):
        try:
            binarized[code] = binarize(value)
        except Exception as error:  # noqa: BLE001 - raised in row order by the caller
            failed[code] = error
    if not failed:
        return binarized[coded.codes], (0, None)
    first = int(np.argmax(np.isin(coded.codes, list(failed))))
    return binarized[coded.codes], (int(rows[first]), failed[int(coded.codes[first])])


def _outcome_floats(outcomes: np.ndarray) -> tuple[np.ndarray, tuple[int, Exception | None]]:
    """The outcomes as floats, and the row and error (as ``float`` raises
    it) of the first that has none (error None when all do)."""
    try:
        return np.asarray(outcomes, dtype=float), (0, None)
    except (TypeError, ValueError) as error:
        for row, value in enumerate(outcomes.tolist()):
            try:
                float(value)
            except (TypeError, ValueError) as failure:
                return np.empty(0), (row, failure)
        raise error


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


def _encode_categorical(
    attribute: str, coded: CodedValues, group_ids: np.ndarray, n_groups: int
) -> tuple[np.ndarray, list[str]]:
    """Encode a categorical covariate as per-unit category fractions + count.

    For the common case of a single parent value per unit this reduces to a
    one-hot encoding.  The most frequent :data:`MAX_CATEGORIES` categories get
    their own column (ties in first-seen order, as ``Counter.most_common``
    ranks them); the rest share an ``other`` column.  Categories are the
    column's codes merged under ``dict`` equality, counted by ``bincount``.
    """
    distinct = coded.distinct.tolist()
    merged, first_of, _ = first_codes(distinct)
    labels = [distinct[position] for position in first_of.values()]
    categories = merged[coded.codes]
    counts = np.bincount(categories, minlength=len(labels))
    top = np.argsort(-counts, kind="stable")[:MAX_CATEGORIES]
    has_other = len(labels) > len(top)
    position_of = np.full(len(labels), len(top), dtype=np.intp)
    position_of[top] = np.arange(len(top))

    width = len(top) + (1 if has_other else 0) + 1  # + count column
    matrix = np.zeros((n_groups, width), dtype=float)
    totals = np.bincount(group_ids, minlength=n_groups).astype(float)
    if len(coded):
        np.add.at(matrix, (group_ids, position_of[categories]), 1.0 / totals[group_ids])
        nonempty = totals > 0
        matrix[nonempty, -1] = totals[nonempty]

    columns = [f"cov_{attribute}_is_{_category_label(labels[code])}" for code in top.tolist()]
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
