"""Conjunctive query evaluation over :class:`~repro.db.database.Database`.

Relational causal rules carry a condition ``WHERE Q(Y)`` that is a standard
conjunctive query (Definition 3.3).  Grounding a rule amounts to enumerating
the satisfying assignments of that query over the relational skeleton; this
module implements exactly that: atoms over base tables, joined by shared
variables in a greedy join order.

Evaluation is vectorized: the binding set is stored column-major (one value
list per variable) and each atom is joined as a numpy join — join keys are
factorized to integer codes, matched with a sorted array intersection
(``argsort`` + ``searchsorted``), and the result assembled by bulk gathers —
so no per-row Python loop runs over the join output.
``tests/row_oracle.py`` keeps the row-at-a-time transcription (dict
bindings extended through hash-index lookups) that the parity tests hold
this evaluator to: identical bindings in identical order.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.db.database import Database
from repro.db.table import _equality_mask, as_object_array


@dataclass(frozen=True)
class Variable:
    """A query variable; equality is by name."""

    name: str

    def __repr__(self) -> str:
        return f"?{self.name}"


Term = Any  # either a Variable or a constant value
Binding = dict[str, Any]


@dataclass(frozen=True)
class Atom:
    """A positive atom ``Predicate(t1, ..., tn)`` over a base table.

    The predicate must name a table of the database being queried, and the
    terms map positionally onto that table's columns.
    """

    predicate: str
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def variables(self) -> list[Variable]:
        return [term for term in self.terms if isinstance(term, Variable)]

    def __repr__(self) -> str:
        rendered = ", ".join(
            term.name if isinstance(term, Variable) else repr(term) for term in self.terms
        )
        return f"{self.predicate}({rendered})"


class QueryError(ValueError):
    """Raised when a conjunctive query references unknown tables or arities."""


class ConjunctiveQuery:
    """A conjunction of atoms, evaluated to a set of variable bindings."""

    def __init__(self, atoms: Sequence[Atom]) -> None:
        self.atoms = tuple(atoms)

    @property
    def variables(self) -> list[Variable]:
        """All variables, in first-occurrence order."""
        seen: dict[str, Variable] = {}
        for atom in self.atoms:
            for variable in atom.variables:
                seen.setdefault(variable.name, variable)
        return list(seen.values())

    def validate(self, database: Database) -> None:
        """Check every atom against the database schema (names and arity)."""
        for atom in self.atoms:
            if atom.predicate not in database:
                raise QueryError(
                    f"atom {atom!r} references unknown table {atom.predicate!r}"
                )
            table = database.table(atom.predicate)
            if len(atom.terms) != len(table.columns):
                raise QueryError(
                    f"atom {atom!r} has arity {len(atom.terms)} but table "
                    f"{atom.predicate!r} has {len(table.columns)} columns"
                )

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, database: Database) -> list[Binding]:
        """Return all satisfying assignments as ``{variable name: value}`` dicts.

        Duplicate bindings (arising from bag semantics of the underlying
        tables) are removed, keeping first occurrences: the result has set
        semantics over the query variables, matching Definition 3.5 of the
        paper.
        """
        self.validate(database)
        if not self.atoms:
            return [{}]
        # The binding set is one value list per variable, extended atom by
        # atom without materializing row dicts.
        columns: dict[str, list[Any]] = {}
        count = 1  # one empty binding
        for atom in self._ordered_atoms(database):
            columns, count = self._extend(database, atom, columns, count)
            if count == 0:
                return []
        names = [variable.name for variable in self.variables]
        if not names:
            return [{}]
        value_lists = [columns.get(name) for name in names]
        positions = _distinct_positions(value_lists, count)
        return [
            {
                name: values[position] if values is not None else None
                for name, values in zip(names, value_lists)
            }
            for position in positions
        ]

    def _ordered_atoms(self, database: Database) -> list[Atom]:
        """Greedy join order: start from the smallest table, then prefer atoms
        sharing variables with what has been joined so far."""
        remaining = list(self.atoms)
        remaining.sort(key=lambda atom: len(database.table(atom.predicate)))
        ordered: list[Atom] = []
        bound: set[str] = set()
        while remaining:
            connected = [
                atom
                for atom in remaining
                if not bound or any(v.name in bound for v in atom.variables)
            ]
            chosen = connected[0] if connected else remaining[0]
            remaining.remove(chosen)
            ordered.append(chosen)
            bound.update(v.name for v in chosen.variables)
        return ordered

    def _extend(
        self,
        database: Database,
        atom: Atom,
        bindings: dict[str, list[Any]],
        count: int,
    ) -> tuple[dict[str, list[Any]], int]:
        """Extend a column-major binding set with one atom, as a numpy join.

        Output order: for each binding in order, its matching table rows in
        table order.  Constant and intra-atom equalities become boolean
        masks, the (bound variable) join keys are factorized to integer codes
        once per side, and the code arrays are intersected with a stable
        ``argsort`` + ``searchsorted`` instead of per-binding index probes.
        Factorization uses the raw column values (Python ``dict`` hashing),
        so key equality is that of a Python hash index.
        """
        table = database.table(atom.predicate)
        columns = table.columns
        n_rows = len(table)
        column_lists = [table._column_list(column) for column in columns]  # noqa: SLF001

        # Classify term positions once (the bound-variable set is uniform
        # across all bindings at a given stage).
        constants: list[tuple[int, Any]] = []
        bound_positions: list[tuple[int, str]] = []
        new_positions: dict[str, int] = {}
        duplicate_new: list[tuple[int, int]] = []
        for position, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                if term.name in bindings:
                    bound_positions.append((position, term.name))
                elif term.name in new_positions:
                    duplicate_new.append((position, new_positions[term.name]))
                else:
                    new_positions[term.name] = position
            else:
                constants.append((position, term))

        # Row-level filter: constants and repeated new variables within the
        # atom restrict table rows independently of the binding set.
        mask: np.ndarray | None = None
        for position, value in constants:
            term_mask = _equality_mask(as_object_array(column_lists[position]), value)
            mask = term_mask if mask is None else mask & term_mask
        for position, first in duplicate_new:
            pair_mask = np.fromiter(
                (a == b for a, b in zip(column_lists[position], column_lists[first])),
                dtype=bool,
                count=n_rows,
            )
            mask = pair_mask if mask is None else mask & pair_mask
        rows = np.flatnonzero(mask) if mask is not None else np.arange(n_rows, dtype=np.intp)

        if bound_positions:
            # Factorize the join keys of both sides to integer codes.  Keys
            # that are not equal to themselves (NaN components) can never
            # join (IEEE: NaN != NaN), but a Python dict would match them by
            # identity — route them to sentinel codes (-2 right / -1 left)
            # that never intersect.
            key_lists = [column_lists[position] for position, _ in bound_positions]
            left_lists = [bindings[name] for _, name in bound_positions]
            if len(key_lists) == 1:
                code_of: dict[Any, int] = {}
                right_codes = np.empty(len(rows), dtype=np.intp)
                right_values = key_lists[0]
                for out, row in enumerate(rows.tolist()):
                    key = right_values[row]
                    right_codes[out] = (
                        code_of.setdefault(key, len(code_of)) if key == key else -2
                    )
                left_codes = np.empty(count, dtype=np.intp)
                lookup = code_of.get
                left_values = left_lists[0]
                for position in range(count):
                    key = left_values[position]
                    left_codes[position] = lookup(key, -1) if key == key else -1
            else:
                # Multi-column keys: factorize per column and combine the
                # per-column codes into one int64 key per row (mixed radix)
                # instead of building a tuple per row.
                right_codes, left_codes = _factorize_multi_keys(
                    key_lists, rows, left_lists, count
                )

            # Array intersection: stable sort by code, then one searchsorted
            # window per binding; within a window, rows keep table order.
            order = np.argsort(right_codes, kind="stable")
            sorted_codes = right_codes[order]
            starts = np.searchsorted(sorted_codes, left_codes, side="left")
            matches = np.searchsorted(sorted_codes, left_codes, side="right") - starts
            out_count = int(matches.sum())
            left_take = np.repeat(np.arange(count, dtype=np.intp), matches)
            segment_offsets = np.repeat(np.cumsum(matches) - matches, matches)
            within = np.arange(out_count, dtype=np.intp) - segment_offsets
            right_take = rows[order[np.repeat(starts, matches) + within]]
        else:
            # No shared variables: cartesian product with the surviving rows.
            out_count = count * len(rows)
            left_take = np.repeat(np.arange(count, dtype=np.intp), len(rows))
            right_take = np.tile(rows, count)

        extended: dict[str, list[Any]] = {}
        for name, values in bindings.items():
            extended[name] = _gather_values(values, left_take)
        for name, position in new_positions.items():
            extended[name] = _gather_values(column_lists[position], right_take)
        return extended, out_count

    def __repr__(self) -> str:
        return " AND ".join(repr(atom) for atom in self.atoms) or "TRUE"


def _gather_values(values: Sequence[Any], take: np.ndarray) -> list[Any]:
    """``[values[i] for i in take]`` as a bulk object-array gather."""
    if not len(take):
        return []
    return as_object_array(values)[take].tolist()


# ----------------------------------------------------------------------
# vectorized code factorization (projection dedup and multi-column joins)
# ----------------------------------------------------------------------
#: Mixed-radix code combination stays in exact int64 territory as long as the
#: product of the per-column cardinalities fits; beyond that the callers fall
#: back to per-row tuple keys (identical semantics, just slower).
_MAX_COMBINED_CODES = 2**62


def _combine_code_columns(
    code_columns: np.ndarray, cardinalities: Sequence[int]
) -> np.ndarray | None:
    """Combine per-column int64 codes into one key per row (mixed radix).

    ``code_columns`` is ``(n_columns, n_rows)`` with non-negative codes;
    rows are equal iff their code tuples are equal, which the combined int64
    keys preserve exactly.  Returns ``None`` when the combined key space
    could overflow int64, signalling the caller to fall back to tuples.
    """
    total = 1
    for cardinality in cardinalities:
        total *= max(cardinality, 1)
    if total >= _MAX_COMBINED_CODES:
        return None
    combined = code_columns[0].astype(np.int64, copy=True)
    for position in range(1, len(code_columns)):
        combined *= max(cardinalities[position], 1)
        combined += code_columns[position]
    return combined


def _distinct_positions(value_lists: Sequence[list[Any] | None], count: int) -> list[int]:
    """First-occurrence positions of the distinct rows of a column-major set.

    Each column is factorized to integer codes with Python ``dict`` equality
    (so ``1``/``1.0``/``True`` collapse and NaN objects key by identity,
    exactly like the per-row tuple keys this replaces), the per-column codes
    combine into a single int64 key array, and ``np.unique`` finds the first
    occurrence of every distinct key; sorting those keeps first-seen order.
    A ``None`` column (unbound variable) is a constant.
    """
    code_columns = np.empty((len(value_lists), count), dtype=np.int64)
    cardinalities: list[int] = []
    for position, values in enumerate(value_lists):
        if values is None:
            code_columns[position] = 0
            cardinalities.append(1)
            continue
        code_of: dict[Any, int] = {}
        setdefault = code_of.setdefault
        out = code_columns[position]
        for row in range(count):
            out[row] = setdefault(values[row], len(code_of))
        cardinalities.append(len(code_of))
    combined = _combine_code_columns(code_columns, cardinalities)
    if combined is None:  # pragma: no cover - needs >= 2**62 combined keys
        unique: dict[tuple[Any, ...], int] = {}
        for row in range(count):
            key = tuple(
                values[row] if values is not None else None for values in value_lists
            )
            unique.setdefault(key, row)
        return list(unique.values())
    _, first_seen = np.unique(combined, return_index=True)
    first_seen.sort()
    return first_seen.tolist()


def _factorize_multi_keys(
    key_lists: Sequence[list[Any]],
    rows: np.ndarray,
    left_lists: Sequence[list[Any]],
    count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Factorize multi-column join keys per column and combine to int64.

    Right-side codes come from per-column dicts over the surviving table
    rows; left-side codes look the binding values up in the same dicts.
    Rows with a NaN component (or, on the left, an unmatched component) get
    the usual sentinel codes (-2 right / -1 left) *after* combination, so a
    sentinel can never collide with a valid combined key.
    """
    n_columns = len(key_lists)
    row_list = rows.tolist()
    right_columns = np.empty((n_columns, len(row_list)), dtype=np.int64)
    right_valid = np.ones(len(row_list), dtype=bool)
    dictionaries: list[dict[Any, int]] = []
    for position, values in enumerate(key_lists):
        code_of: dict[Any, int] = {}
        setdefault = code_of.setdefault
        out = right_columns[position]
        for index, row in enumerate(row_list):
            key = values[row]
            if key == key:
                out[index] = setdefault(key, len(code_of))
            else:
                out[index] = 0
                right_valid[index] = False
        dictionaries.append(code_of)

    left_columns = np.empty((n_columns, count), dtype=np.int64)
    left_valid = np.ones(count, dtype=bool)
    for position, values in enumerate(left_lists):
        lookup = dictionaries[position].get
        out = left_columns[position]
        for index in range(count):
            key = values[index]
            code = lookup(key, -1) if key == key else -1
            if code < 0:
                out[index] = 0
                left_valid[index] = False
            else:
                out[index] = code

    cardinalities = [len(dictionary) for dictionary in dictionaries]
    right_combined = _combine_code_columns(right_columns, cardinalities)
    if right_combined is None:  # pragma: no cover - needs >= 2**62 combined keys
        return _factorize_tuple_keys(key_lists, row_list, left_lists, count)
    left_combined = _combine_code_columns(left_columns, cardinalities)
    assert left_combined is not None  # same cardinalities as the right side
    right_combined[~right_valid] = -2
    left_combined[~left_valid] = -1
    return right_combined, left_combined


def _factorize_tuple_keys(
    key_lists: Sequence[list[Any]],
    row_list: list[int],
    left_lists: Sequence[list[Any]],
    count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row tuple-key fallback for gigantic combined key spaces."""
    code_of: dict[Any, int] = {}
    right_codes = np.empty(len(row_list), dtype=np.int64)
    for out, row in enumerate(row_list):
        parts = tuple(values[row] for values in key_lists)
        if all(part == part for part in parts):
            right_codes[out] = code_of.setdefault(parts, len(code_of))
        else:
            right_codes[out] = -2
    left_codes = np.empty(count, dtype=np.int64)
    lookup = code_of.get
    for position in range(count):
        parts = tuple(values[position] for values in left_lists)
        if all(part == part for part in parts):
            left_codes[position] = lookup(parts, -1)
        else:
            left_codes[position] = -1
    return right_codes, left_codes
