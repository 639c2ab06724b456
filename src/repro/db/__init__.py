"""A small in-memory relational database.

This package is the storage substrate of the reproduction: the paper stores
its relational instances (REVIEWDATA, MIMIC-III, NIS) in a conventional
RDBMS; here we provide an in-memory equivalent with just enough machinery
for CaRL — typed tables, conjunctive-query evaluation (the ``WHERE Q(Y)``
conditions of relational causal rules), aggregation, and CSV import/export.
"""

from repro.db.aggregates import (
    AGGREGATES,
    GROUPED_AGGREGATES,
    aggregate,
    grouped_aggregate,
)
from repro.db.database import Database
from repro.db.query import Atom, ConjunctiveQuery
from repro.db.schema import ColumnSchema, TableSchema
from repro.db.table import Table

__all__ = [
    "AGGREGATES",
    "Atom",
    "ColumnSchema",
    "ConjunctiveQuery",
    "Database",
    "GROUPED_AGGREGATES",
    "Table",
    "TableSchema",
    "aggregate",
    "grouped_aggregate",
]
