"""In-memory relational tables with selection, projection, join and grouping.

:class:`Table` stores data column-major: one value list (plus a lazily
built, cached numpy array) per column.  Filters, joins and group-bys are
vectorized, and results are assembled by bulk column gathers instead of
per-row dict inserts.  The row facade (``rows()`` yields dicts) serves
callers that think in rows.

``tests/row_oracle.py`` keeps a row-at-a-time transcription of every
operator; ``tests/test_backend_parity.py`` holds this module to it (same
rows, same order, same content digests) with differential property tests.
"""

from __future__ import annotations

import hashlib
import itertools
import operator
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any

import numpy as np

from repro.db.aggregates import (
    aggregate as apply_aggregate,
    as_numeric_array,
    grouped_aggregate,
)
from repro.db.schema import ColumnSchema, SchemaError, TableSchema


def infer_table_schema(
    name: str,
    rows: Sequence[dict[str, Any]],
    dtypes: dict[str, str] | None = None,
    primary_key: Sequence[str] = (),
) -> TableSchema:
    """Infer a :class:`TableSchema` from the first row (or use ``dtypes``)."""
    if not rows:
        raise SchemaError("cannot infer a schema from zero rows; pass an explicit schema")
    columns = list(rows[0])
    if dtypes is None:
        dtypes = {}
        for column in columns:
            value = rows[0][column]
            if isinstance(value, bool):
                dtypes[column] = "bool"
            elif isinstance(value, int):
                dtypes[column] = "int"
            elif isinstance(value, float):
                dtypes[column] = "float"
            elif isinstance(value, str):
                dtypes[column] = "str"
            else:
                dtypes[column] = "any"
    return TableSchema(
        name=name,
        columns=tuple(ColumnSchema(column, dtypes.get(column, "any")) for column in columns),
        primary_key=tuple(primary_key),
    )


def _apply_aggregation(fn: str | Callable[[list[Any]], Any], values: list[Any]) -> Any:
    """Apply a ``group_by`` aggregation: a callable, or an aggregate name."""
    if isinstance(fn, str):
        return apply_aggregate(fn, values)
    return fn(values)


class Table:
    """A bag of rows conforming to a :class:`TableSchema`, stored by column.

    One value list plus a cached numpy array per column: filters are
    vectorized, joins hash over column arrays, and group-bys dispatch to the
    grouped numpy aggregate kernels of :mod:`repro.db.aggregates`.
    Primary-key uniqueness is enforced on insert when the schema declares a
    key.

    Row values are stored as the original Python objects, so the row facade
    (``rows()``, ``lookup()``, ``to_list()``) never leaks numpy scalars for
    columns the schema does not type.  Typed numeric columns (non-nullable
    ``int``/``float``/``bool``) get real numpy arrays; everything else falls
    back to object arrays, which still support vectorized equality masks and
    fancy-index gathers.
    """

    def __init__(self, schema: TableSchema, rows: Iterable[dict[str, Any]] = ()) -> None:
        self.schema = schema
        self._data: list[list[Any]] = [[] for _ in schema.columns]
        self._array_cache: list[np.ndarray | None] = [None] * len(schema.columns)
        self._key_index: dict[tuple[Any, ...], int] = {}
        self._indexes: dict[str, dict[Any, list[int]]] = {}
        self._version = 0
        self._digest_cache: tuple[int, str] | None = None
        #: the version at which a distinct projection made this table
        self._distinct_version: int | None = None
        self.insert_many(rows)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        name: str,
        rows: Sequence[dict[str, Any]],
        dtypes: dict[str, str] | None = None,
        primary_key: Sequence[str] = (),
    ) -> "Table":
        """Infer a schema from ``rows`` (or use ``dtypes``) and build a table."""
        return cls(infer_table_schema(name, rows, dtypes, primary_key), rows)

    @classmethod
    def from_columns(
        cls,
        name: str,
        columns: dict[str, Sequence[Any]],
        dtypes: dict[str, str] | None = None,
        primary_key: Sequence[str] = (),
    ) -> "Table":
        """Bulk construction from column sequences (validated per column)."""
        if not columns:
            raise SchemaError("cannot build a table from zero columns")
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise SchemaError(f"columns of table {name!r} have unequal lengths: {sorted(lengths)}")
        dtypes = dtypes or {}
        schema = TableSchema(
            name=name,
            columns=tuple(ColumnSchema(column, dtypes.get(column, "any")) for column in columns),
            primary_key=tuple(primary_key),
        )
        validated: list[list[Any]] = []
        for column_schema, values in zip(schema.columns, columns.values()):
            if column_schema.dtype == "any":
                # "any" disables type checks but not the null check.
                if not column_schema.nullable and any(value is None for value in values):
                    raise SchemaError(f"column {column_schema.name!r} is not nullable")
                validated.append(list(values))
            else:
                validated.append([column_schema.validate(value) for value in values])
        return cls._from_columns(schema, validated)

    @classmethod
    def _from_columns(cls, schema: TableSchema, columns_data: list[list[Any]]) -> "Table":
        """Internal fast path: adopt already-validated column lists."""
        table = cls(schema)
        table._data = columns_data
        table._array_cache = [None] * len(schema.columns)
        if schema.primary_key:
            key_positions = [schema.index_of(column) for column in schema.primary_key]
            for position in range(len(columns_data[0]) if columns_data else 0):
                key = tuple(columns_data[p][position] for p in key_positions)
                if key in table._key_index:
                    raise SchemaError(
                        f"duplicate primary key {key!r} in table {schema.name!r}"
                    )
                table._key_index[key] = position
        return table

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, row: dict[str, Any]) -> None:
        """Insert a row (mapping of column name to value)."""
        self.insert_many((row,))

    def insert_many(self, rows: Iterable[dict[str, Any]]) -> None:
        """Insert rows in order.

        Rows are validated one by one and their columns appended in bulk; a
        row that fails validation or repeats a primary key raises after
        every row before it has been inserted.
        """
        start = len(self)
        key_positions = [self.schema.index_of(column) for column in self.schema.primary_key]
        validated: list[tuple[Any, ...]] = []
        try:
            for row in rows:
                values = self.schema.validate_row(row)
                if key_positions:
                    key = tuple(values[position] for position in key_positions)
                    if key in self._key_index:
                        raise SchemaError(
                            f"duplicate primary key {key!r} in table {self.schema.name!r}"
                        )
                    self._key_index[key] = start + len(validated)
                validated.append(values)
        finally:
            for column_values, values in zip(self._data, zip(*validated)):
                column_values.extend(values)
            self._version += len(validated)
            for column, index in self._indexes.items():
                column_position = self.schema.index_of(column)
                for offset, values in enumerate(validated):
                    index.setdefault(values[column_position], []).append(start + offset)

    # ------------------------------------------------------------------
    # inspection (row facade)
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def columns(self) -> tuple[str, ...]:
        return self.schema.column_names

    @property
    def version(self) -> int:
        """Mutation counter: bumped on every insert (used for cache invalidation)."""
        return self._version

    def content_digest(self) -> str:
        """Stable hash of the table's schema and contents (cached per version).

        Typed numeric columns hash their (cached) numpy array buffers, so
        fingerprinting a large table is a handful of ``tobytes`` passes
        rather than a per-value Python loop.  The digest depends on content
        only, never on how the arrays were obtained (built in memory or
        memory-mapped from an artifact).
        """
        if self._digest_cache is not None and self._digest_cache[0] == self._version:
            return self._digest_cache[1]
        hasher = hashlib.sha256(_schema_token(self.schema))
        for position, column in enumerate(self.schema.columns):
            hasher.update(
                _column_digest(column, self._data[position], self._array_by_position(position))
            )
        digest = hasher.hexdigest()
        self._digest_cache = (self._version, digest)
        return digest

    def __len__(self) -> int:
        return len(self._data[0]) if self._data else 0

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return self.rows()

    def rows(self) -> Iterator[dict[str, Any]]:
        """Iterate over rows as dictionaries."""
        columns = self.schema.column_names
        for values in zip(*self._data):
            yield dict(zip(columns, values))

    def to_list(self) -> list[dict[str, Any]]:
        return list(self.rows())

    def rows_are_distinct(self) -> bool:
        """Whether no two rows are equal: the table has a primary key, or is
        a distinct projection not modified since."""
        return bool(self.schema.primary_key) or self._distinct_version == self._version

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        return list(self._data[self.schema.index_of(name)])

    def _column_list(self, name: str) -> list[Any]:
        """Raw column values (internal; aliases storage, do not mutate)."""
        return self._data[self.schema.index_of(name)]

    def array(self, name: str) -> np.ndarray:
        """The column as a (cached) numpy array.

        Typed non-nullable ``int``/``float``/``bool`` columns yield numeric
        arrays; other columns yield object arrays of the original values.
        """
        return self._array_by_position(self.schema.index_of(name))

    def distinct(self, name: str) -> list[Any]:
        """Distinct values of one column, in first-seen order."""
        return list(dict.fromkeys(self._column_list(name)))

    def get_by_key(self, key: tuple[Any, ...] | Any) -> dict[str, Any]:
        """Look up a row by primary key (scalar keys need not be wrapped)."""
        if not self.schema.primary_key:
            raise SchemaError(f"table {self.schema.name!r} has no primary key")
        if not isinstance(key, tuple):
            key = (key,)
        position = self._key_index.get(key)
        if position is None:
            raise KeyError(f"no row with key {key!r} in table {self.schema.name!r}")
        return {
            column: self._data[column_position][position]
            for column_position, column in enumerate(self.schema.column_names)
        }

    # ------------------------------------------------------------------
    # relational operators (vectorized)
    # ------------------------------------------------------------------
    def select(self, predicate: Callable[[dict[str, Any]], bool]) -> "Table":
        """Rows satisfying ``predicate`` (selection).

        The predicate is an arbitrary Python callable over the row facade, so
        this operator cannot be vectorized; the result is still assembled by
        bulk column gathers.  Prefer :meth:`where` for equality filters.
        """
        indices = [position for position, row in enumerate(self.rows()) if predicate(row)]
        return self._take(indices, schema=self._schema_without_key(self.schema.name))

    def where(self, **conditions: Any) -> "Table":
        """Rows whose columns equal the given values (vectorized equality)."""
        for column in conditions:
            self.schema.index_of(column)
        mask = np.ones(len(self), dtype=bool)
        for column, value in conditions.items():
            mask &= _equality_mask(self.array(column), value)
        return self._take(
            np.flatnonzero(mask), schema=self._schema_without_key(self.schema.name)
        )

    def project(self, columns: Sequence[str], distinct: bool = False) -> "Table":
        """Keep only ``columns`` (projection), optionally deduplicating."""
        column_schemas = tuple(self.schema.column(name) for name in columns)
        schema = TableSchema(name=self.schema.name, columns=column_schemas)
        data = [self._column_list(name) for name in columns]
        if distinct and data:
            keep: list[int] = []
            seen: set[tuple[Any, ...]] = set()
            for position, values in enumerate(zip(*data)):
                if values not in seen:
                    seen.add(values)
                    keep.append(position)
            data = [[column[position] for position in keep] for column in data]
        table = Table._from_columns(schema, [list(column) for column in data])
        if distinct:
            table._distinct_version = table._version
        return table

    def rename(self, mapping: dict[str, str], name: str | None = None) -> "Table":
        """Rename columns according to ``mapping``."""
        columns = tuple(
            ColumnSchema(mapping.get(column.name, column.name), column.dtype, column.nullable)
            for column in self.schema.columns
        )
        schema = TableSchema(name=name or self.schema.name, columns=columns)
        return Table._from_columns(schema, [list(column) for column in self._data])

    def join(
        self, other: "Table", on: Sequence[str] | None = None, name: str | None = None
    ) -> "Table":
        """Natural (or explicit equi-) hash join over column arrays.

        ``on`` defaults to the shared column names.  Output order: left rows
        in order, each followed by its matching right rows in their table
        order; left values win on non-join column collisions (rename first
        when that matters).
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

        n_left, n_right = len(self), len(other)
        if not on:
            left_take = np.repeat(np.arange(n_left), n_right)
            right_take = np.tile(np.arange(n_right), n_left)
        else:
            right_keys = _key_tuples(other, on)
            index: dict[Any, list[int]] = {}
            for position, key in enumerate(right_keys):
                index.setdefault(key, []).append(position)
            left_indices: list[int] = []
            right_indices: list[int] = []
            for position, key in enumerate(_key_tuples(self, on)):
                matches = index.get(key)
                if matches:
                    left_indices.extend([position] * len(matches))
                    right_indices.extend(matches)
            left_take = np.asarray(left_indices, dtype=np.intp)
            right_take = np.asarray(right_indices, dtype=np.intp)

        data = [self.array(column)[left_take].tolist() for column in self.columns]
        data.extend(other.array(column)[right_take].tolist() for column in other_extra)
        return Table._from_columns(schema, data)

    def group_by(
        self,
        keys: Sequence[str],
        aggregations: dict[str, tuple[str, str | Callable[[list[Any]], Any]]],
    ) -> "Table":
        """Group rows by ``keys`` and aggregate (vectorized where possible).

        Aggregations given as registered names (e.g. ``"AVG"``) over numeric
        columns run as single-pass numpy kernels (equal to the scalar
        aggregates up to float tolerance).  Callables — including the
        registered scalar functions themselves — are always invoked per
        group, so an explicitly chosen aggregation algorithm is never
        silently substituted.
        """
        n_rows = len(self)
        key_columns = [self._column_list(key) for key in keys]
        group_of: dict[tuple[Any, ...], int] = {}
        group_ids = np.empty(n_rows, dtype=np.intp)
        for position, key in enumerate(zip(*key_columns) if key_columns else ((),) * n_rows):
            group = group_of.get(key)
            if group is None:
                group = group_of.setdefault(key, len(group_of))
            group_ids[position] = group
        n_groups = len(group_of)

        key_schemas = tuple(self.schema.column(key) for key in keys)
        agg_columns = tuple(ColumnSchema(output, "any") for output in aggregations)
        schema = TableSchema(name=f"{self.name}_grouped", columns=key_schemas + agg_columns)

        data: list[list[Any]] = [
            [key[position] for key in group_of] for position in range(len(keys))
        ]
        for output, (input_column, fn) in aggregations.items():
            values = self._column_list(input_column)
            aggregate_name = fn.upper() if isinstance(fn, str) else None
            numeric = as_numeric_array(values) if aggregate_name is not None else None
            if numeric is not None and aggregate_name is not None:
                results = grouped_aggregate(aggregate_name, numeric, group_ids, n_groups)
                data.append(results.tolist())
            else:
                grouped_values: list[list[Any]] = [[] for _ in range(n_groups)]
                for group, value in zip(group_ids, values):
                    grouped_values[group].append(value)
                data.append([_apply_aggregation(fn, group) for group in grouped_values])
        return Table._from_columns(schema, data)

    def build_index(self, column: str) -> None:
        """Build (or rebuild) a hash index on ``column`` for :meth:`lookup`."""
        values = self._column_list(column)
        index: dict[Any, list[int]] = {}
        for row_number, value in enumerate(values):
            index.setdefault(value, []).append(row_number)
        self._indexes[column] = index

    def lookup(self, column: str, value: Any) -> list[dict[str, Any]]:
        """Rows whose ``column`` equals ``value`` (uses an index when present)."""
        columns = self.schema.column_names
        if column in self._indexes:
            positions = self._indexes[column].get(value, ())
        else:
            values = self._column_list(column)
            positions = [i for i, candidate in enumerate(values) if candidate == value]
        return [
            {name: self._data[p][position] for p, name in enumerate(columns)}
            for position in positions
        ]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _array_by_position(self, position: int) -> np.ndarray:
        data = self._data[position]
        cached = self._array_cache[position]
        if cached is not None and len(cached) == len(data):
            return cached
        array = _numeric_column_array(self.schema.columns[position], data)
        if array is None:
            array = np.empty(len(data), dtype=object)
            array[:] = data
        self._array_cache[position] = array
        return array

    def _take(self, indices: Sequence[int] | np.ndarray, schema: TableSchema) -> "Table":
        take = np.asarray(indices, dtype=np.intp)
        data = [
            self._array_by_position(position)[take].tolist()
            for position in range(len(self.schema.columns))
        ]
        return Table._from_columns(schema, data)

    def _schema_without_key(self, name: str) -> TableSchema:
        return TableSchema(name=name, columns=self.schema.columns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.schema.name!r}, rows={len(self)}, columns={list(self.columns)})"


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _schema_token(schema: TableSchema) -> bytes:
    """Canonical byte encoding of a table schema, for content digests."""
    return repr(
        (
            schema.name,
            tuple((column.name, column.dtype, column.nullable) for column in schema.columns),
            schema.primary_key,
        )
    ).encode("utf-8", "backslashreplace")


def as_object_array(values: Sequence[Any]) -> np.ndarray:
    """1-d object array preserving each element as-is (tuples stay tuples).

    Bulk assignment is the fast path; numpy rejects it when elements are
    themselves sequences (it tries to broadcast them), so those fall back to
    a per-element fill.  Shared by the vectorized query join and the artifact
    serialization layer.
    """
    array = np.empty(len(values), dtype=object)
    try:
        array[:] = values
    except ValueError:
        for position, value in enumerate(values):
            array[position] = value
    return array


def not_none_mask(values: np.ndarray) -> np.ndarray:
    """Which entries of the object array ``values`` are not None (an
    identity test per entry, at C level)."""
    return np.fromiter(
        map(operator.is_not, values, itertools.repeat(None)), dtype=bool, count=len(values)
    )


def _numeric_column_array(column: ColumnSchema, data: Sequence[Any]) -> np.ndarray | None:
    """A typed non-nullable numeric column as a numpy array (else None).

    The single source of the numeric-conversion rules: the array cache and
    the content digests both go through here, so a column converts (or falls
    back to objects) the same way everywhere.
    """
    if column.nullable:
        return None
    try:
        if column.dtype == "float":
            return np.asarray(data, dtype=float)
        if column.dtype == "int":
            return np.asarray(data, dtype=np.int64)
        if column.dtype == "bool":
            return np.asarray(data, dtype=bool)
    except (ValueError, TypeError, OverflowError):
        return None
    return None


def _column_digest(
    column: ColumnSchema, values: Sequence[Any], array: np.ndarray | None = None
) -> bytes:
    """Digest of one column's values.

    Numeric columns hash their array buffer (``array`` passes a cached
    array; without one, ``values`` convert on the fly by the same
    :func:`_numeric_column_array` rules).  Everything else hashes a
    ``type|repr`` token per value, so ``1``, ``1.0``, ``True`` and ``"1"``
    never collide; ``repr`` escapes newlines inside strings, so the newline
    separator is unambiguous.
    """
    if array is None:
        array = _numeric_column_array(column, values)
    if array is not None and array.dtype != object:
        hasher = hashlib.sha256(str(array.dtype).encode())
        hasher.update(array.tobytes())
        return hasher.digest()
    hasher = hashlib.sha256()
    for value in values:
        hasher.update(
            f"{type(value).__name__}|{value!r}\n".encode("utf-8", "backslashreplace")
        )
    return hasher.digest()


def _equality_mask(array: np.ndarray, value: Any) -> np.ndarray:
    """Vectorized ``array == value`` that always yields a boolean mask.

    Sequence-valued ``value`` (tuples, lists, arrays stored in ``any``
    columns) must compare as a scalar against each cell — numpy would
    broadcast it elementwise across rows instead — so those fall back to a
    per-cell comparison.
    """
    if isinstance(value, (list, tuple, set, frozenset, dict, np.ndarray)):
        return np.fromiter(
            (cell == value for cell in array), dtype=bool, count=len(array)
        )
    result = array == value
    if not isinstance(result, np.ndarray):
        return np.full(len(array), bool(result))
    return result.astype(bool, copy=False)


def _key_tuples(table: Table, columns: Sequence[str]) -> list[tuple[Any, ...]]:
    """Row-order join/group keys as tuples, straight from column storage."""
    column_lists = [table._column_list(column) for column in columns]
    return list(zip(*column_lists))
