"""Row-major reference implementations: the oracle the parity tests compare against.

The program has one execution path: column-major :class:`repro.db.table.Table`
storage, the vectorized conjunctive-query evaluator of
:mod:`repro.db.query`, and the collect + materialize unit-table build of
:mod:`repro.carl.unit_table`.  This module keeps the straight row-at-a-time
transcriptions those replaced, for tests and benchmarks only:

* :class:`RowTable` — rows stored as tuples in schema order, every
  relational operator implemented one row at a time;
* :func:`evaluate` — Definition 3.5's conjunctive-query semantics as
  dict bindings extended atom by atom through hash-index lookups;
* :func:`build_unit_table` — Algorithm 1 as written: per-unit dicts, one
  ``parent_adjustment_set`` walk per unit and per peer, and per-group
  embedding;
* :func:`compute_peers` and :func:`collect_unit_table_inputs` — Definition
  4.3's peers as a ``{unit: peer keys}`` dict and the collect phase one
  unit at a time, with one ancestor walk per response node and one value
  appended per gathered node (production walks a block of units at once
  and codes each value column; :meth:`RowInputs.decode` turns its
  collection into this row form for comparison).

Why keep it?  It is the executable specification.  Each function here is a
direct transcription of the paper's definitions; the production path is an
optimization that must stay behaviorally identical to it, and the
differential suite (``tests/test_backend_parity.py``) needs a live oracle to
compare against.  Never "fix" a parity failure by changing this module
unless the specification itself is wrong.
"""

from __future__ import annotations

import copy
import hashlib
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.carl.causal_graph import GroundedAttribute, GroundedCausalGraph
from repro.carl.covariates import parent_adjustment_set
from repro.carl.embeddings import Embedding, MeanEmbedding, get_embedding
from repro.carl.errors import EstimationError
from repro.carl.unit_table import (
    MAX_CATEGORIES,
    UnitTable,
    UnitTableInputs,
    _category_label,
    _is_numeric_attribute,
    _to_number,
    default_binarizer,
)
from repro.db.database import Database
from repro.db.query import Atom, Binding, ConjunctiveQuery, Variable
from repro.db.schema import ColumnSchema, SchemaError, TableSchema
from repro.db.table import _apply_aggregation, _column_digest, _schema_token


# ----------------------------------------------------------------------
# storage
# ----------------------------------------------------------------------
class RowTable:
    """A bag of tuples conforming to a :class:`TableSchema`.

    Rows are stored as tuples in schema order; the public API exposes them as
    dictionaries keyed by column name.  Primary-key uniqueness is enforced on
    insert when the schema declares a key.
    """

    def __init__(self, schema: TableSchema, rows: Iterable[dict[str, Any]] = ()) -> None:
        self.schema = schema
        self._rows: list[tuple[Any, ...]] = []
        self._key_index: dict[tuple[Any, ...], int] = {}
        self._indexes: dict[str, dict[Any, list[int]]] = {}
        for row in rows:
            self.insert(row)

    def insert(self, row: dict[str, Any]) -> None:
        """Insert a row (mapping of column name to value)."""
        values = self.schema.validate_row(row)
        if self.schema.primary_key:
            key = tuple(values[self.schema.index_of(k)] for k in self.schema.primary_key)
            if key in self._key_index:
                raise SchemaError(
                    f"duplicate primary key {key!r} in table {self.schema.name!r}"
                )
            self._key_index[key] = len(self._rows)
        position = len(self._rows)
        self._rows.append(values)
        for column, index in self._indexes.items():
            index[values[self.schema.index_of(column)]].append(position)

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def columns(self) -> tuple[str, ...]:
        return self.schema.column_names

    def content_digest(self) -> str:
        """Hash of the schema and contents, by the production digest rules."""
        hasher = hashlib.sha256(_schema_token(self.schema))
        for column in self.schema.columns:
            hasher.update(_column_digest(column, self.column(column.name)))
        return hasher.hexdigest()

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> Iterator[dict[str, Any]]:
        """Iterate over rows as dictionaries."""
        columns = self.schema.column_names
        for values in self._rows:
            yield dict(zip(columns, values))

    def to_list(self) -> list[dict[str, Any]]:
        return list(self.rows())

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        index = self.schema.index_of(name)
        return [values[index] for values in self._rows]

    def select(self, predicate: Callable[[dict[str, Any]], bool]) -> "RowTable":
        """Rows satisfying ``predicate`` (selection)."""
        result = RowTable(TableSchema(name=self.schema.name, columns=self.schema.columns))
        for row in self.rows():
            if predicate(row):
                result.insert(row)
        return result

    def where(self, **conditions: Any) -> "RowTable":
        """Rows whose columns equal the given values (equality selection)."""
        for column in conditions:
            self.schema.index_of(column)
        return self.select(
            lambda row: all(row[column] == value for column, value in conditions.items())
        )

    def project(self, columns: Sequence[str], distinct: bool = False) -> "RowTable":
        """Keep only ``columns`` (projection), optionally deduplicating."""
        column_schemas = tuple(self.schema.column(name) for name in columns)
        result = RowTable(TableSchema(name=self.schema.name, columns=column_schemas))
        seen: set[tuple[Any, ...]] = set()
        for row in self.rows():
            values = tuple(row[name] for name in columns)
            if distinct:
                if values in seen:
                    continue
                seen.add(values)
            result.insert(dict(zip(columns, values)))
        return result

    def rename(self, mapping: dict[str, str], name: str | None = None) -> "RowTable":
        """Rename columns according to ``mapping``."""
        columns = tuple(
            ColumnSchema(mapping.get(column.name, column.name), column.dtype, column.nullable)
            for column in self.schema.columns
        )
        schema = TableSchema(name=name or self.schema.name, columns=columns)
        result = RowTable(schema)
        for values in self._rows:
            result.insert(dict(zip(schema.column_names, values)))
        return result

    def join(
        self, other: "RowTable", on: Sequence[str] | None = None, name: str | None = None
    ) -> "RowTable":
        """Natural (or explicit equi-) hash join with ``other``.

        ``on`` defaults to the shared column names; non-join columns that
        collide keep the left value.  Output order: left rows in order, each
        followed by its matching right rows in their table order.
        """
        if on is None:
            on = [column for column in self.columns if column in other.columns]
        for column in on:
            self.schema.index_of(column)
            other.schema.index_of(column)

        other_extra = [column for column in other.columns if column not in self.columns]
        joined_columns = tuple(self.schema.columns) + tuple(
            other.schema.column(column) for column in other_extra
        )
        schema = TableSchema(name=name or f"{self.name}_{other.name}", columns=joined_columns)
        result = RowTable(schema)

        index: dict[tuple[Any, ...], list[dict[str, Any]]] = defaultdict(list)
        for right in other.rows():
            index[tuple(right[column] for column in on)].append(right)
        for left in self.rows():
            key = tuple(left[column] for column in on)
            for right in index.get(key, ()):
                merged = dict(left)
                merged.update({column: right[column] for column in other_extra})
                result.insert(merged)
        return result

    def group_by(
        self,
        keys: Sequence[str],
        aggregations: dict[str, tuple[str, str | Callable[[list[Any]], Any]]],
    ) -> "RowTable":
        """Group rows by ``keys`` and aggregate each group with the scalar
        aggregate (or callable) named in ``aggregations``."""
        groups: dict[tuple[Any, ...], list[dict[str, Any]]] = defaultdict(list)
        for row in self.rows():
            groups[tuple(row[key] for key in keys)].append(row)

        key_columns = tuple(self.schema.column(key) for key in keys)
        agg_columns = tuple(ColumnSchema(output, "any") for output in aggregations)
        schema = TableSchema(name=f"{self.name}_grouped", columns=key_columns + agg_columns)
        result = RowTable(schema)
        for key_values, members in groups.items():
            row = dict(zip(keys, key_values))
            for output, (input_column, fn) in aggregations.items():
                row[output] = _apply_aggregation(fn, [member[input_column] for member in members])
            result.insert(row)
        return result

    def build_index(self, column: str) -> None:
        """Build a hash index on ``column`` for :meth:`lookup`."""
        position = self.schema.index_of(column)
        index: dict[Any, list[int]] = defaultdict(list)
        for row_number, values in enumerate(self._rows):
            index[values[position]].append(row_number)
        self._indexes[column] = index

    def lookup(self, column: str, value: Any) -> list[dict[str, Any]]:
        """Rows whose ``column`` equals ``value`` (uses an index when present)."""
        columns = self.schema.column_names
        if column in self._indexes:
            return [
                dict(zip(columns, self._rows[row_number]))
                for row_number in self._indexes[column].get(value, ())
            ]
        position = self.schema.index_of(column)
        return [
            dict(zip(columns, values)) for values in self._rows if values[position] == value
        ]


# ----------------------------------------------------------------------
# conjunctive queries (Definition 3.5)
# ----------------------------------------------------------------------
def evaluate(query: ConjunctiveQuery, database: Database) -> list[Binding]:
    """All satisfying assignments of ``query``, evaluated one row at a time
    over row-major copies of ``database``'s tables.

    Atoms are joined in the production join order (which fixes the output
    order); duplicate bindings are removed, keeping first occurrences.
    """
    query.validate(database)
    if not query.atoms:
        return [{}]
    tables: dict[str, RowTable] = {}
    bindings: list[Binding] = [{}]
    for atom in query._ordered_atoms(database):  # noqa: SLF001 - the shared join order
        table = tables.get(atom.predicate)
        if table is None:
            source = database.table(atom.predicate)
            table = tables[atom.predicate] = RowTable(source.schema, source.rows())
        bindings = list(_extend(table, atom, bindings))
        if not bindings:
            return []
    names = [variable.name for variable in query.variables]
    unique: dict[tuple[Any, ...], Binding] = {}
    for binding in bindings:
        unique.setdefault(tuple(binding.get(name) for name in names), binding)
    return [{name: binding.get(name) for name in names} for binding in unique.values()]


def _extend(table: RowTable, atom: Atom, bindings: list[Binding]) -> Iterator[Binding]:
    columns = table.columns
    for binding in bindings:
        # Pick the most selective access path: an already-bound variable
        # or constant position lets us use an index lookup.
        lookup_column = None
        lookup_value = None
        for position, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                if term.name in binding:
                    lookup_column = columns[position]
                    lookup_value = binding[term.name]
                    break
            else:
                lookup_column = columns[position]
                lookup_value = term
                break
        if lookup_column is not None:
            if lookup_column not in table._indexes:  # noqa: SLF001
                table.build_index(lookup_column)
            candidates = table.lookup(lookup_column, lookup_value)
        else:
            candidates = table.to_list()

        for row in candidates:
            extended = _match(atom, row, columns, binding)
            if extended is not None:
                yield extended


def _match(
    atom: Atom, row: Binding, columns: Sequence[str], binding: Binding
) -> Binding | None:
    extended = dict(binding)
    for position, term in enumerate(atom.terms):
        value = row[columns[position]]
        if isinstance(term, Variable):
            if term.name in extended:
                if extended[term.name] != value:
                    return None
            else:
                extended[term.name] = value
        elif term != value:
            return None
    return extended


# ----------------------------------------------------------------------
# peers and the collect phase, one unit at a time
# ----------------------------------------------------------------------
_MISSING = object()


def compute_peers(
    graph: GroundedCausalGraph,
    treatment_attribute: str,
    response_attribute: str,
    units: list[tuple[Any, ...]],
    within: list[tuple[Any, ...]] | None = None,
) -> dict[tuple[Any, ...], list[tuple[Any, ...]]]:
    """Definition 4.3 per unit: the treatment ancestors of each unit's
    response node, in node-id order, that are in ``within`` (default
    ``units``) and are not the unit itself."""
    unit_set = set(units if within is None else within)
    peers: dict[tuple[Any, ...], list[tuple[Any, ...]]] = {}
    for unit in units:
        response_node = GroundedAttribute(response_attribute, unit)
        treated = sorted(
            (
                node
                for node in graph.ancestors(response_node)
                if node.attribute == treatment_attribute
            ),
            key=graph.index_of,
        )
        peers[unit] = [node.key for node in treated if node.key != unit and node.key in unit_set]
    return peers


@dataclass(frozen=True)
class RowInputs:
    """A unit-table collection in row form: per-unit lists, and per value
    column one raw value (and row) per gathered node, columns in
    first-gathered order."""

    treatment_attribute: str
    response_attribute: str
    unit_keys: list[tuple[Any, ...]]
    outcomes: list[Any]
    treatments: list[Any]
    peer_counts: list[int]
    peer_treatments: list[Any]
    peer_rows: list[int]
    #: (column name, values, rows) per covariate column
    buckets: list[tuple[str, list[Any], list[int]]]

    @classmethod
    def decode(cls, inputs: UnitTableInputs) -> "RowInputs":
        """The row form of a production (column-major, coded) collection."""
        return cls(
            treatment_attribute=inputs.treatment_attribute,
            response_attribute=inputs.response_attribute,
            unit_keys=list(inputs.unit_keys),
            outcomes=list(inputs.outcomes.tolist()),
            treatments=inputs.treatments.decode(),
            peer_counts=inputs.peer_counts.tolist(),
            peer_treatments=inputs.peer_treatments.decode(),
            peer_rows=inputs.peer_rows.tolist(),
            buckets=[
                (name, coded.decode(), rows.tolist())
                for name, (coded, rows) in inputs.buckets.items()
            ],
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
) -> RowInputs:
    """The collect phase unit by unit: one ancestor walk per unit, covariate
    values appended as found.  Peers are ``{unit: peer keys}``, and each
    unit's outcome is ``outcome(Y[u])``."""
    kept_units: list[tuple[Any, ...]] = []
    outcomes_raw: list[Any] = []
    treatments_raw: list[Any] = []
    peer_counts: list[int] = []
    peer_values_raw: list[Any] = []
    peer_group_ids: list[int] = []
    covariate_order: list[str] = []
    buckets: dict[str, tuple[list[Any], list[int]]] = {}

    def covariate_parents(node: GroundedAttribute) -> list[GroundedAttribute]:
        return [
            parent
            for parent in graph.parent_nodes(node)
            if parent.attribute != treatment_attribute and is_observed(parent.attribute)
        ]

    def gather(name: str, node: GroundedAttribute, row: int) -> None:
        value = values.get(node, _MISSING)
        if value is _MISSING:
            return
        if name not in buckets:
            covariate_order.append(name)
            buckets[name] = ([], [])
        buckets[name][0].append(value)
        buckets[name][1].append(row)

    for unit in units:
        response_node = GroundedAttribute(response_attribute, unit)
        treatment_node = GroundedAttribute(treatment_attribute, unit)
        outcome_value = outcome(response_node)
        if outcome_value is None:
            continue
        treatment_value = values.get(treatment_node)
        if treatment_value is None:
            continue
        row = len(kept_units)
        unit_peers = peers.get(unit) or []
        peer_nodes = [GroundedAttribute(treatment_attribute, peer) for peer in unit_peers]
        for peer_node in peer_nodes:
            peer_value = values.get(peer_node, _MISSING)
            if peer_value is not _MISSING:
                peer_values_raw.append(peer_value)
                peer_group_ids.append(row)

        # Theorem 5.2: T[x] counts for this row when it is Y[u] or reaches it.
        ancestors = graph.ancestors(response_node)

        def reaches(node: GroundedAttribute) -> bool:
            return node in graph and (node == response_node or node in ancestors)

        own_nodes: set[GroundedAttribute] = set()
        if reaches(treatment_node):
            own_nodes.update(covariate_parents(treatment_node))
            for parent in covariate_parents(treatment_node):
                gather(f"own_{parent.attribute}", parent, row)
        seen: set[GroundedAttribute] = set()
        for peer_node in peer_nodes:
            if not reaches(peer_node):
                continue
            for parent in covariate_parents(peer_node):
                if parent in seen:
                    continue
                seen.add(parent)
                if parent not in own_nodes:
                    gather(f"peer_{parent.attribute}", parent, row)

        kept_units.append(unit)
        outcomes_raw.append(outcome_value)
        treatments_raw.append(treatment_value)
        peer_counts.append(len(unit_peers))

    if not kept_units and not allow_empty:
        raise EstimationError(
            f"no units with observed treatment {treatment_attribute!r} and response "
            f"{response_attribute!r}; cannot build a unit table"
        )
    return RowInputs(
        treatment_attribute=treatment_attribute,
        response_attribute=response_attribute,
        unit_keys=kept_units,
        outcomes=outcomes_raw,
        treatments=treatments_raw,
        peer_counts=peer_counts,
        peer_treatments=peer_values_raw,
        peer_rows=peer_group_ids,
        buckets=[(name, *buckets[name]) for name in covariate_order],
    )


# ----------------------------------------------------------------------
# unit tables (Algorithm 1)
# ----------------------------------------------------------------------
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

    Same signature and result as :func:`repro.carl.unit_table.build_unit_table`;
    built unit by unit from per-unit covariate dicts.
    """
    binarize = binarize or default_binarizer(treatment_attribute)
    peer_embedder = get_embedding(peer_embedding if peer_embedding is not None else MeanEmbedding())

    kept_units: list[tuple[Any, ...]] = []
    outcomes: list[float] = []
    treatments: list[float] = []
    peer_groups: list[list[float]] = []
    peer_counts: list[int] = []
    covariate_groups: list[dict[str, list[Any]]] = []

    for unit in units:
        response_node = GroundedAttribute(response_attribute, unit)
        treatment_node = GroundedAttribute(treatment_attribute, unit)
        outcome_value = values.get(response_node)
        treatment_value = values.get(treatment_node)
        if outcome_value is None or treatment_value is None:
            continue
        own_treatment = binarize(treatment_value)
        peer_values = [
            binarize(values[GroundedAttribute(treatment_attribute, peer)])
            for peer in peers.get(unit, [])
            if GroundedAttribute(treatment_attribute, peer) in values
        ]
        # Theorem 5.2 adjustment set, split into the unit's own confounders and
        # its peers' confounders so they enter the unit table as separate
        # (separately embedded) columns, mirroring Table 1 of the paper.
        own_adjustment = parent_adjustment_set(
            graph, treatment_attribute, response_node, [unit], is_observed
        )
        peer_adjustment = parent_adjustment_set(
            graph, treatment_attribute, response_node, list(peers.get(unit, [])), is_observed
        )
        own_nodes = set(own_adjustment)
        grouped: dict[str, list[Any]] = {}
        for node in own_adjustment:
            if node in values:
                grouped.setdefault(f"own_{node.attribute}", []).append(values[node])
        for node in peer_adjustment:
            if node in values and node not in own_nodes:
                grouped.setdefault(f"peer_{node.attribute}", []).append(values[node])

        kept_units.append(unit)
        outcomes.append(float(outcome_value))
        treatments.append(own_treatment)
        peer_groups.append(peer_values)
        peer_counts.append(len(peers.get(unit, [])))
        covariate_groups.append(grouped)

    if not kept_units:
        raise EstimationError(
            f"no units with observed treatment {treatment_attribute!r} and response "
            f"{response_attribute!r}; cannot build a unit table"
        )

    peer_matrix, peer_columns = _embed_peer_treatments(peer_groups, peer_embedder)
    covariate_matrix, covariate_columns = _embed_covariates(covariate_groups, embedding)

    return UnitTable(
        unit_keys=kept_units,
        outcome=np.asarray(outcomes, dtype=float),
        treatment=np.asarray(treatments, dtype=float),
        peer_treatment=peer_matrix,
        peer_counts=np.asarray(peer_counts, dtype=float),
        covariates=covariate_matrix,
        peer_columns=peer_columns,
        covariate_columns=covariate_columns,
        treatment_attribute=treatment_attribute,
        response_attribute=response_attribute,
    )


def _embed_peer_treatments(
    peer_groups: list[list[float]], embedder: Embedding
) -> tuple[np.ndarray, list[str]]:
    if not any(peer_groups):
        return np.empty((len(peer_groups), 0)), []
    embedder = copy.deepcopy(embedder).fit(peer_groups)
    columns = embedder.feature_names("peer_treatment")
    matrix = np.asarray([embedder.apply(group) for group in peer_groups], dtype=float)
    return matrix, columns


def _embed_covariates(
    covariate_groups: list[dict[str, list[Any]]],
    embedding: str | Embedding,
) -> tuple[np.ndarray, list[str]]:
    attribute_names: list[str] = []
    for grouped in covariate_groups:
        for name in grouped:
            if name not in attribute_names:
                attribute_names.append(name)
    if not attribute_names:
        return np.empty((len(covariate_groups), 0)), []

    blocks: list[np.ndarray] = []
    columns: list[str] = []
    for attribute in attribute_names:
        groups = [grouped.get(attribute, []) for grouped in covariate_groups]
        if _is_numeric_attribute(groups):
            embedder = copy.deepcopy(get_embedding(embedding)).fit(
                [[_to_number(v) for v in group] for group in groups]
            )
            block = np.asarray(
                [embedder.apply([_to_number(v) for v in group]) for group in groups], dtype=float
            )
            block_columns = embedder.feature_names(f"cov_{attribute}")
        else:
            block, block_columns = _encode_categorical(attribute, groups)
        blocks.append(block)
        columns.extend(block_columns)
    return np.hstack(blocks), columns


def _encode_categorical(
    attribute: str, groups: list[list[Any]]
) -> tuple[np.ndarray, list[str]]:
    """Encode a categorical covariate group as per-category fractions + count.

    For the common case of a single parent value per unit this reduces to a
    one-hot encoding.  The most frequent :data:`MAX_CATEGORIES` categories get
    their own column; the rest share an ``other`` column.
    """
    counts: Counter[Any] = Counter()
    for group in groups:
        counts.update(group)
    categories = [category for category, _ in counts.most_common(MAX_CATEGORIES)]
    category_index = {category: position for position, category in enumerate(categories)}
    has_other = len(counts) > len(categories)

    width = len(categories) + (1 if has_other else 0) + 1  # + count column
    matrix = np.zeros((len(groups), width), dtype=float)
    for row, group in enumerate(groups):
        if not group:
            continue
        total = float(len(group))
        for value in group:
            position = category_index.get(value)
            if position is None:
                position = len(categories)  # "other"
            matrix[row, position] += 1.0 / total
        matrix[row, -1] = total

    columns = [f"cov_{attribute}_is_{_category_label(category)}" for category in categories]
    if has_other:
        columns.append(f"cov_{attribute}_is_other")
    columns.append(f"cov_{attribute}_count")
    return matrix, columns
