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
so no per-row Python loop runs over the join output.  The result stays
column-major too (:class:`Bindings`): grounding reads its columns, and a
caller that thinks in rows iterates it as dicts.
``tests/row_oracle.py`` keeps the row-at-a-time transcription (dict
bindings extended through hash-index lookups) that the parity tests hold
this evaluator to: identical bindings in identical order.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from collections.abc import Iterator, Sequence
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


class Bindings(Sequence[Binding]):
    """A column-major binding set: one value list per variable, each
    ``len(self)`` long (:meth:`column`).

    Indexing or iterating yields the ``{variable: value}`` dicts in binding
    order, and a binding set compares equal to the list of those dicts, so a
    caller that thinks in rows reads it as it would a list; grounding reads
    the columns and never builds a dict per binding.
    """

    __slots__ = ("_columns", "_count")

    def __init__(self, columns: dict[str, list[Any]], count: int) -> None:
        self._columns = columns
        self._count = count

    @property
    def names(self) -> list[str]:
        """The bound variables, in first-occurrence order."""
        return list(self._columns)

    def column(self, name: str) -> list[Any]:
        """The value of variable ``name`` in each binding (do not mutate)."""
        return self._columns[name]

    def take(self, rows: np.ndarray) -> "Bindings":
        """The bindings at positions ``rows``, in that order."""
        return Bindings(
            {name: gather_values(values, rows) for name, values in self._columns.items()},
            len(rows),
        )

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Binding]:
        if not self._columns:
            return (dict() for _ in range(self._count))
        names = list(self._columns)
        return (dict(zip(names, values)) for values in zip(*self._columns.values()))

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return [self[position] for position in range(*index.indices(self._count))]
        position = operator.index(index)
        if position < 0:
            position += self._count
        if not 0 <= position < self._count:
            raise IndexError("binding index out of range")
        return {name: values[position] for name, values in self._columns.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Bindings, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Bindings({list(self)!r})"


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
    def evaluate(self, database: Database) -> Bindings:
        """Return all satisfying assignments, as a column-major binding set.

        Duplicate bindings (arising from bag semantics of the underlying
        tables) are removed, keeping first occurrences: the result has set
        semantics over the query variables, matching Definition 3.5 of the
        paper.  When every table is duplicate-free (a relational skeleton)
        there is nothing to remove: an atom binds every column of its table,
        so distinct rows can only yield distinct bindings.
        """
        self.validate(database)
        names = [variable.name for variable in self.variables]
        if not self.atoms:
            return Bindings({}, 1)
        # The binding set is one value list per variable, extended atom by
        # atom without materializing row dicts.
        columns: dict[str, list[Any]] = {}
        count = 1  # one empty binding
        for atom in self._ordered_atoms(database):
            columns, count = self._extend(database, atom, columns, count)
            if count == 0:
                return Bindings({name: [] for name in names}, 0)
        if not names:
            return Bindings({}, 1)
        value_lists = [columns[name] for name in names]
        if all(database.table(atom.predicate).rows_are_distinct() for atom in self.atoms):
            return Bindings(dict(zip(names, value_lists)), count)
        positions = _distinct_positions(value_lists, count)
        if len(positions) == count:
            return Bindings(dict(zip(names, value_lists)), count)
        return Bindings(
            {name: gather_values(values, positions) for name, values in zip(names, value_lists)},
            len(positions),
        )

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
                map(operator.eq, column_lists[position], column_lists[first]),
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
            key_lists = [
                column_lists[position] if mask is None else gather_values(column_lists[position], rows)
                for position, _ in bound_positions
            ]
            left_lists = [bindings[name] for _, name in bound_positions]
            if len(key_lists) == 1:
                right_codes, left_codes, _ = _join_codes(key_lists[0], left_lists[0])
            else:
                # Multi-column keys: factorize per column and combine the
                # per-column codes into one int64 key per row (mixed radix)
                # instead of building a tuple per row.
                right_codes, left_codes = _factorize_multi_keys(key_lists, left_lists)

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
            extended[name] = gather_values(values, left_take)
        for name, position in new_positions.items():
            extended[name] = gather_values(column_lists[position], right_take)
        return extended, out_count

    def __repr__(self) -> str:
        return " AND ".join(repr(atom) for atom in self.atoms) or "TRUE"


def gather_values(values: Sequence[Any], take: np.ndarray) -> list[Any]:
    """``[values[i] for i in take]`` as a bulk object-array gather (a plain
    copy when ``take`` is every position in order)."""
    if not len(take):
        return []
    if len(take) == len(values) and take[0] == 0 and (np.diff(take) == 1).all():
        return list(values)
    return as_object_array(values)[take].tolist()


# ----------------------------------------------------------------------
# vectorized code factorization (projection dedup and joins)
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


def first_codes(values: Sequence[Any]) -> tuple[np.ndarray, dict[Any, int], np.ndarray]:
    """Factorize ``values`` under Python ``dict`` equality, at C level.

    Returns ``(codes, ordinal_of, rank)``: ``codes`` numbers the distinct
    values ``0, 1, ...`` in first-seen order; ``ordinal_of`` maps each
    distinct value to the position of its first occurrence, and
    ``rank[ordinal]`` turns such a position back into its code.  So ``1``,
    ``1.0`` and ``True`` share a code, and NaN objects key by identity.
    """
    ordinal_of: dict[Any, int] = {}
    ordinals = np.fromiter(
        map(ordinal_of.setdefault, values, itertools.count()), dtype=np.int64, count=len(values)
    )
    rank = np.cumsum(ordinals == np.arange(len(values), dtype=np.int64)) - 1
    return rank[ordinals], ordinal_of, rank


def first_positions(codes: np.ndarray) -> np.ndarray:
    """For each entry of the int array ``codes``, the position of the first
    entry equal to it (a stable sort; ``np.unique`` hashes, which is far
    slower on int64)."""
    order = np.argsort(codes, kind="stable")
    ordered = codes[order]
    starts = np.ones(len(codes), dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    firsts = np.empty(len(codes), dtype=np.int64)
    firsts[order] = order[starts][np.cumsum(starts) - 1]
    return firsts


def _self_equal(values: Sequence[Any]) -> np.ndarray:
    """Whether each value equals itself: False for NaN (IEEE), True otherwise."""
    return np.fromiter(map(operator.eq, values, values), dtype=bool, count=len(values))


def _join_codes(
    right: Sequence[Any], left: Sequence[Any]
) -> tuple[np.ndarray, np.ndarray, int]:
    """Join codes of one key column: ``(right codes, left codes, cardinality)``.

    Right values are factorized with :func:`first_codes` and left values
    looked up in the same dict, so keys match under Python hash-index
    equality.  A value not equal to itself (NaN) gets the sentinel -2 on the
    right and -1 on the left, as does (on the left) a value absent on the
    right, so a sentinel never matches.
    """
    right_codes, ordinal_of, rank = first_codes(right)
    # Self-equality is checked once per distinct value: a left value only
    # finds a right one that is equal to it or is the same object, so it
    # is NaN exactly when the value it finds is.
    valid = _self_equal(list(ordinal_of))
    if not valid.all():
        right_codes[~valid[right_codes]] = -2
    ordinals = np.fromiter(
        map(ordinal_of.get, left, itertools.repeat(-1)), dtype=np.int64, count=len(left)
    )
    found = np.flatnonzero(ordinals >= 0)
    codes = rank[ordinals[found]]
    keep = valid[codes]
    left_codes = np.full(len(left), -1, dtype=np.int64)
    left_codes[found[keep]] = codes[keep]
    return right_codes, left_codes, len(ordinal_of)


def _distinct_positions(value_lists: Sequence[list[Any]], count: int) -> np.ndarray:
    """First-occurrence positions of the distinct rows of a column-major set.

    Each column is factorized to integer codes with Python ``dict`` equality
    (so ``1``/``1.0``/``True`` collapse and NaN objects key by identity,
    exactly like per-row tuple keys), the per-column codes combine into a
    single int64 key array, and the rows that are the first occurrence of
    their key are kept, in order.
    """
    code_columns = np.empty((len(value_lists), count), dtype=np.int64)
    cardinalities: list[int] = []
    for position, values in enumerate(value_lists):
        codes, ordinal_of, _ = first_codes(values)
        if len(ordinal_of) == count:  # one column already tells every row apart
            return np.arange(count, dtype=np.intp)
        code_columns[position] = codes
        cardinalities.append(len(ordinal_of))
    combined = _combine_code_columns(code_columns, cardinalities)
    if combined is None:  # pragma: no cover - needs >= 2**62 combined keys
        unique: dict[tuple[Any, ...], int] = {}
        for row, key in enumerate(zip(*value_lists)):
            unique.setdefault(key, row)
        return np.fromiter(unique.values(), dtype=np.intp, count=len(unique))
    firsts = first_positions(combined)
    return np.flatnonzero(firsts == np.arange(count))


def _factorize_multi_keys(
    key_lists: Sequence[Sequence[Any]], left_lists: Sequence[Sequence[Any]]
) -> tuple[np.ndarray, np.ndarray]:
    """Factorize multi-column join keys per column and combine to int64.

    Each column is coded with :func:`_join_codes`; a row with a sentinel in
    any column gets the row-level sentinel (-2 right / -1 left) *after*
    combination, so a sentinel can never collide with a valid combined key.
    """
    n_right, n_left = len(key_lists[0]), len(left_lists[0])
    right_columns = np.empty((len(key_lists), n_right), dtype=np.int64)
    left_columns = np.empty((len(key_lists), n_left), dtype=np.int64)
    cardinalities: list[int] = []
    for position, (right, left) in enumerate(zip(key_lists, left_lists)):
        right_codes, left_codes, cardinality = _join_codes(right, left)
        right_columns[position] = right_codes
        left_columns[position] = left_codes
        cardinalities.append(cardinality)
    right_valid = (right_columns >= 0).all(axis=0)
    left_valid = (left_columns >= 0).all(axis=0)
    right_combined = _combine_code_columns(np.maximum(right_columns, 0), cardinalities)
    if right_combined is None:  # pragma: no cover - needs >= 2**62 combined keys
        return _factorize_tuple_keys(key_lists, left_lists)
    left_combined = _combine_code_columns(np.maximum(left_columns, 0), cardinalities)
    assert left_combined is not None  # same cardinalities as the right side
    right_combined[~right_valid] = -2
    left_combined[~left_valid] = -1
    return right_combined, left_combined


def _factorize_tuple_keys(
    key_lists: Sequence[Sequence[Any]], left_lists: Sequence[Sequence[Any]]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row tuple-key fallback for gigantic combined key spaces."""
    code_of: dict[Any, int] = {}
    right_keys = list(zip(*key_lists))
    right_codes = np.empty(len(right_keys), dtype=np.int64)
    for out, parts in enumerate(right_keys):
        if all(part == part for part in parts):
            right_codes[out] = code_of.setdefault(parts, len(code_of))
        else:
            right_codes[out] = -2
    left_keys = list(zip(*left_lists))
    left_codes = np.empty(len(left_keys), dtype=np.int64)
    lookup = code_of.get
    for position, parts in enumerate(left_keys):
        if all(part == part for part in parts):
            left_codes[position] = lookup(parts, -1)
        else:
            left_codes[position] = -1
    return right_codes, left_codes
