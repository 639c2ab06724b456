"""Unit tests for conjunctive-query evaluation (repro.db.query)."""

from __future__ import annotations

import pytest

from repro.db.database import Database
from repro.db.query import Atom, ConjunctiveQuery, QueryError, Variable
from repro.db.table import Table
import row_oracle


@pytest.fixture()
def review_db() -> Database:
    """The skeleton of the Figure 2 instance (key-only predicate tables)."""
    db = Database("skeleton")
    db.load_rows("Person", [{"person": p} for p in ("Bob", "Carlos", "Eva")])
    db.load_rows("Submission", [{"sub": s} for s in ("s1", "s2", "s3")])
    db.load_rows(
        "Author",
        [
            {"person": "Bob", "sub": "s1"},
            {"person": "Eva", "sub": "s1"},
            {"person": "Eva", "sub": "s2"},
            {"person": "Eva", "sub": "s3"},
            {"person": "Carlos", "sub": "s3"},
        ],
    )
    db.load_rows(
        "Submitted",
        [
            {"sub": "s1", "conf": "ConfDB"},
            {"sub": "s2", "conf": "ConfAI"},
            {"sub": "s3", "conf": "ConfAI"},
        ],
    )
    return db


def var(name: str) -> Variable:
    return Variable(name)


class TestEvaluation:
    def test_single_atom_enumerates_rows(self, review_db):
        query = ConjunctiveQuery([Atom("Person", (var("A"),))])
        bindings = query.evaluate(review_db)
        assert {binding["A"] for binding in bindings} == {"Bob", "Carlos", "Eva"}

    def test_join_over_shared_variable(self, review_db):
        query = ConjunctiveQuery(
            [Atom("Author", (var("A"), var("S"))), Atom("Submitted", (var("S"), var("C")))]
        )
        bindings = query.evaluate(review_db)
        assert len(bindings) == 5
        eva_confs = {b["C"] for b in bindings if b["A"] == "Eva"}
        assert eva_confs == {"ConfDB", "ConfAI"}

    def test_constant_in_atom_filters(self, review_db):
        query = ConjunctiveQuery([Atom("Author", (var("A"), "s3"))])
        bindings = query.evaluate(review_db)
        assert {b["A"] for b in bindings} == {"Eva", "Carlos"}

    def test_repeated_variable_requires_equality(self, review_db):
        # Author(A, S), Author(A, S2) with S = S2 forced by reuse of the same variable.
        query = ConjunctiveQuery(
            [Atom("Author", (var("A"), var("S"))), Atom("Author", (var("A"), var("S")))]
        )
        assert len(query.evaluate(review_db)) == 5

    def test_coauthorship_self_join(self, review_db):
        query = ConjunctiveQuery(
            [Atom("Author", (var("A"), var("S"))), Atom("Author", (var("B"), var("S")))]
        )
        bindings = query.evaluate(review_db)
        pairs = {(b["A"], b["B"]) for b in bindings}
        assert ("Bob", "Eva") in pairs and ("Eva", "Bob") in pairs
        assert ("Bob", "Carlos") not in pairs  # they never co-author

    def test_empty_result(self, review_db):
        query = ConjunctiveQuery([Atom("Author", ("Nobody", var("S")))])
        assert query.evaluate(review_db) == []

    def test_empty_query_returns_single_empty_binding(self, review_db):
        assert ConjunctiveQuery([]).evaluate(review_db) == [{}]

    def test_duplicate_bindings_are_removed(self, review_db):
        # Projection onto A of the authorship relation: Eva appears three times
        # in the table but only once per distinct binding of A.
        query = ConjunctiveQuery([Atom("Author", (var("A"), var("S")))])
        bindings = query.evaluate(review_db)
        assert len(bindings) == 5  # distinct (A, S) pairs

    def test_validation_unknown_table(self, review_db):
        query = ConjunctiveQuery([Atom("Nope", (var("X"),))])
        with pytest.raises(QueryError):
            query.evaluate(review_db)

    def test_validation_arity_mismatch(self, review_db):
        query = ConjunctiveQuery([Atom("Author", (var("A"),))])
        with pytest.raises(QueryError):
            query.evaluate(review_db)

    def test_variables_property(self):
        query = ConjunctiveQuery(
            [Atom("Author", (var("A"), var("S"))), Atom("Submitted", (var("S"), var("C")))]
        )
        assert [v.name for v in query.variables] == ["A", "S", "C"]

    def test_repr_is_readable(self):
        query = ConjunctiveQuery([Atom("Author", (var("A"), "s1"))])
        assert "Author(A, 's1')" in repr(query)


class TestVectorizedJoinEdges:
    """Shapes the numpy join must get right beyond the Hypothesis parity runs."""

    def both(self, query, db):
        bindings = query.evaluate(db)
        assert bindings == row_oracle.evaluate(query, db)  # same bindings, same order
        return bindings

    def test_cartesian_product_no_shared_variables(self, review_db):
        query = ConjunctiveQuery(
            [Atom("Person", (var("A"),)), Atom("Submission", (var("S"),))]
        )
        bindings = self.both(query, review_db)
        assert len(bindings) == 9  # 3 people x 3 submissions

    def test_all_constant_atom_acts_as_existence_filter(self, review_db):
        query = ConjunctiveQuery(
            [Atom("Person", (var("A"),)), Atom("Submitted", ("s1", "ConfDB"))]
        )
        assert len(self.both(query, review_db)) == 3
        query = ConjunctiveQuery(
            [Atom("Person", (var("A"),)), Atom("Submitted", ("s1", "ConfAI"))]
        )
        assert self.both(query, review_db) == []

    def test_empty_intermediate_result_short_circuits(self, review_db):
        query = ConjunctiveQuery(
            [Atom("Author", ("Nobody", var("S"))), Atom("Submitted", (var("S"), var("C")))]
        )
        assert self.both(query, review_db) == []

    def test_nan_join_keys_never_match(self):
        # IEEE semantics: NaN != NaN, so a NaN key joins nothing — even when
        # both sides hold the *same* NaN object (a dict would match it by
        # identity; the row oracle's equality rechecks reject it).
        nan = float("nan")
        db = Database("nanjoin")
        db.load_rows("R", [{"a": 1, "b": nan}, {"a": 2, "b": 3.0}])
        db.load_rows("S", [{"b": nan, "c": 0}, {"b": 3.0, "c": 1}])
        query = ConjunctiveQuery([Atom("R", (var("X"), var("Y"))), Atom("S", (var("Y"), var("Z")))])
        assert self.both(query, db) == [{"X": 2, "Y": 3.0, "Z": 1}]
        # Multi-key join with one NaN component behaves the same.
        db2 = Database("nanjoin2")
        db2.load_rows("R", [{"a": nan, "b": 1}, {"a": 0.0, "b": 2}])
        db2.load_rows("S", [{"a": nan, "b": 1, "c": 9}, {"a": 0.0, "b": 2, "c": 8}])
        query = ConjunctiveQuery(
            [Atom("R", (var("X"), var("Y"))), Atom("S", (var("X"), var("Y"), var("Z")))]
        )
        assert self.both(query, db2) == [{"X": 0.0, "Y": 2, "Z": 8}]

    def test_repeated_new_variable_within_atom(self):
        db = Database("self")
        db.load_rows("Pairs", [{"a": 1, "b": 1}, {"a": 1, "b": 2}, {"a": 3, "b": 3}])
        query = ConjunctiveQuery([Atom("Pairs", (var("X"), var("X")))])
        assert self.both(query, db) == [{"X": 1}, {"X": 3}]

    def test_three_way_join_order_matches_rows_backend(self, review_db):
        query = ConjunctiveQuery(
            [
                Atom("Person", (var("A"),)),
                Atom("Author", (var("A"), var("S"))),
                Atom("Submitted", (var("S"), var("C"))),
            ]
        )
        bindings = self.both(query, review_db)
        assert len(bindings) == 5

    def test_columnar_backend_on_columnar_tables(self):
        # Typed columns built in bulk: their cached numeric arrays must not
        # change join semantics.
        db = Database("col")
        db.add_table(
            Table.from_columns(
                "R",
                {"x": list(range(20)), "y": [i % 3 for i in range(20)]},
                dtypes={"x": "int", "y": "int"},
            )
        )
        db.add_table(
            Table.from_columns(
                "S", {"y": [0, 1, 2], "z": ["z0", "z1", "z2"]}, dtypes={"y": "int", "z": "str"}
            )
        )
        query = ConjunctiveQuery(
            [Atom("R", (var("X"), var("Y"))), Atom("S", (var("Y"), var("Z")))]
        )
        bindings = self.both(query, db)
        assert len(bindings) == 20
        assert all(binding["Z"] == f"z{binding['Y']}" for binding in bindings)
