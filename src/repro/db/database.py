"""The :class:`Database` container: a named collection of tables."""

from __future__ import annotations

import csv
import hashlib
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import Any

from repro.db.schema import SchemaError, TableSchema
from repro.db.table import Table


class Database:
    """A collection of :class:`~repro.db.table.Table` objects by name.

    This plays the role of the relational database the paper assumes as
    input: a CaRL relational causal schema maps onto the tables stored here.
    """

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self._tables: dict[str, Table] = {}
        self._structure_version = 0
        self._fingerprint_cache: tuple[Any, str] | None = None

    # ------------------------------------------------------------------
    # table management
    # ------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        columns: dict[str, str] | Sequence[str],
        primary_key: Sequence[str] = (),
    ) -> Table:
        """Create an empty table and register it."""
        if name in self._tables:
            raise SchemaError(f"table {name!r} already exists in database {self.name!r}")
        schema = TableSchema.from_spec(name, columns, tuple(primary_key))
        table = Table(schema)
        self._tables[name] = table
        self._structure_version += 1
        return table

    def add_table(self, table: Table) -> Table:
        """Register an existing table object."""
        if table.name in self._tables:
            raise SchemaError(f"table {table.name!r} already exists in database {self.name!r}")
        self._tables[table.name] = table
        self._structure_version += 1
        return table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise KeyError(f"no table named {name!r} in database {self.name!r}")
        del self._tables[name]
        self._structure_version += 1

    # ------------------------------------------------------------------
    # versioning / fingerprinting
    # ------------------------------------------------------------------
    def version_token(self) -> tuple[Any, ...]:
        """A cheap, hashable token that changes whenever the database mutates.

        Combines the database's structural counter (tables created, added or
        dropped) with every table's mutation counter, so inserts through a
        table reference obtained before registration are still detected.
        Comparing tokens is how the engine notices staleness without
        recomputing content fingerprints.
        """
        return (
            self._structure_version,
            tuple((name, table.version) for name, table in self._tables.items()),
        )

    def fingerprint(self) -> str:
        """Stable content hash of the whole database (schema + data).

        Built from the per-table content digests (see ``Table.content_digest``),
        cached against :meth:`version_token` so repeated fingerprinting of an
        unchanged database costs one token comparison.  The database *name* is
        deliberately excluded: two databases with identical tables share a
        fingerprint (and therefore cached artifacts).
        """
        token = self.version_token()
        if self._fingerprint_cache is not None and self._fingerprint_cache[0] == token:
            return self._fingerprint_cache[1]
        hasher = hashlib.sha256()
        for name in sorted(self._tables):
            hasher.update(name.encode("utf-8", "backslashreplace"))
            hasher.update(self._tables[name].content_digest().encode())
        fingerprint = hasher.hexdigest()
        self._fingerprint_cache = (token, fingerprint)
        return fingerprint

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(
                f"no table named {name!r} in database {self.name!r}; "
                f"available: {sorted(self._tables)}"
            ) from None

    def __getitem__(self, name: str) -> Table:
        return self.table(name)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> list[str]:
        return list(self._tables)

    @property
    def tables(self) -> list[Table]:
        return list(self._tables.values())

    def total_rows(self) -> int:
        """Total number of rows across all tables."""
        return sum(len(table) for table in self._tables.values())

    def total_attributes(self) -> int:
        """Total number of columns across all tables."""
        return sum(len(table.columns) for table in self._tables.values())

    # ------------------------------------------------------------------
    # convenience loaders
    # ------------------------------------------------------------------
    def insert(self, table_name: str, rows: Iterable[dict[str, Any]] | dict[str, Any]) -> None:
        """Insert one row (a dict) or many rows (an iterable of dicts)."""
        table = self.table(table_name)
        if isinstance(rows, dict):
            table.insert(rows)
        else:
            table.insert_many(rows)

    def load_rows(self, table_name: str, rows: Sequence[dict[str, Any]]) -> Table:
        """Create a table by inferring its schema from ``rows`` and fill it."""
        table = Table.from_rows(table_name, rows)
        return self.add_table(table)

    # ------------------------------------------------------------------
    # CSV import / export
    # ------------------------------------------------------------------
    def export_csv(self, directory: str | Path) -> list[Path]:
        """Write every table to ``directory`` as ``<table>.csv``; return the paths."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = []
        for table in self._tables.values():
            path = directory / f"{table.name}.csv"
            with path.open("w", newline="") as handle:
                writer = csv.DictWriter(handle, fieldnames=list(table.columns))
                writer.writeheader()
                for row in table.rows():
                    writer.writerow(row)
            written.append(path)
        return written

    def import_csv(
        self,
        table_name: str,
        path: str | Path,
        dtypes: dict[str, str] | None = None,
        primary_key: Sequence[str] = (),
    ) -> Table:
        """Load ``path`` into a new table, coercing columns per ``dtypes``."""
        path = Path(path)
        with path.open(newline="") as handle:
            reader = csv.DictReader(handle)
            raw_rows = list(reader)
        if not raw_rows:
            raise SchemaError(f"CSV file {path} contains no data rows")
        dtypes = dtypes or {}
        rows = [
            {column: _coerce(value, dtypes.get(column, "any")) for column, value in row.items()}
            for row in raw_rows
        ]
        table = Table.from_rows(table_name, rows, dtypes=dtypes or None, primary_key=primary_key)
        return self.add_table(table)

    def summary(self) -> dict[str, dict[str, int]]:
        """Per-table row and column counts (used by the Table 2 benchmark)."""
        return {
            name: {"rows": len(table), "columns": len(table.columns)}
            for name, table in self._tables.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database({self.name!r}, tables={self.table_names})"


def _coerce(value: str, dtype: str) -> Any:
    """Coerce a CSV string to the requested type."""
    if dtype == "int":
        return int(value)
    if dtype == "float":
        return float(value)
    if dtype == "bool":
        return value.strip().lower() in ("1", "true", "yes")
    if dtype == "str":
        return value
    # "any": best-effort numeric parsing, otherwise leave as string.
    for caster in (int, float):
        try:
            return caster(value)
        except (TypeError, ValueError):
            continue
    return value
