"""Differential tests: the production path must match the row oracle.

Every query shape the engine supports — equality filters, predicate
selections, index lookups, projections, joins, group-bys over every
registered aggregate, conjunctive-query evaluation, unit-table construction
and content digests — is generated randomly with Hypothesis and executed
against both the production code and the row-at-a-time reference in
``tests/row_oracle.py``; results must be identical (bit-for-bit for discrete
values, to tolerance for floating-point aggregates).  NaN values, empty
tables and single-row tables are part of the generated space.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grounding_oracle
import row_oracle
from graph_builder import build_graph
from repro.carl.causal_graph import GroundedAttribute
from repro.carl.embeddings import EMBEDDINGS
from repro.carl.engine import CaRLEngine
from repro.carl.parser import parse_query
from repro.carl.peers import compute_peers
from repro.carl.unit_table import build_unit_table
from repro.datasets import TOY_REVIEW_PROGRAM, toy_review_database
from repro.db.aggregates import AGGREGATES, AggregateError, aggregate, grouped_aggregate
from repro.db.database import Database
from repro.db.query import Atom, ConjunctiveQuery, Variable
from repro.db.schema import TableSchema
from repro.db.table import Table
from row_oracle import RowTable

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
floats_with_nan = st.one_of(finite_floats, st.just(math.nan))
small_ints = st.integers(min_value=-3, max_value=3)
labels = st.sampled_from(["a", "b", "c", "d"])

row_strategy = st.fixed_dictionaries(
    {
        "k": small_ints,
        "v": floats_with_nan,
        "s": labels,
        "b": st.booleans(),
    }
)
rows_strategy = st.lists(row_strategy, min_size=0, max_size=12)

TABLE_SCHEMA = TableSchema.from_spec(
    "t", {"k": "int", "v": "float", "s": "str", "b": "bool"}
)


def oracle_and_table(rows: list[dict]) -> tuple[RowTable, Table]:
    """The same rows in the oracle and the production table (sharing value
    objects, like a real ingest would)."""
    return RowTable(TABLE_SCHEMA, rows), Table(TABLE_SCHEMA, rows)


def assert_same_rows(left, right) -> None:
    left_rows, right_rows = left.to_list(), right.to_list()
    assert len(left_rows) == len(right_rows)
    for expected, actual in zip(left_rows, right_rows):
        assert expected.keys() == actual.keys()
        for column in expected:
            e, a = expected[column], actual[column]
            if isinstance(e, float) and isinstance(a, float) and math.isnan(e):
                assert math.isnan(a)
            else:
                assert e == a, (column, e, a)


# ----------------------------------------------------------------------
# relational operators
# ----------------------------------------------------------------------
@given(rows_strategy, small_ints, labels)
def test_where_parity(rows, key, label):
    oracle, table = oracle_and_table(rows)
    assert_same_rows(oracle.where(k=key), table.where(k=key))
    assert_same_rows(oracle.where(k=key, s=label), table.where(k=key, s=label))
    predicate = lambda row: row["b"] and row["k"] >= 0  # noqa: E731
    assert_same_rows(oracle.select(predicate), table.select(predicate))
    assert table.lookup("s", label) == oracle.lookup("s", label)
    oracle.build_index("k")
    table.build_index("k")
    assert table.lookup("k", key) == oracle.lookup("k", key)


@given(rows_strategy, st.booleans())
def test_project_parity(rows, distinct):
    oracle, table = oracle_and_table(rows)
    assert_same_rows(
        oracle.project(["s", "k"], distinct=distinct),
        table.project(["s", "k"], distinct=distinct),
    )
    assert_same_rows(
        oracle.rename({"v": "value"}, name="renamed"),
        table.rename({"v": "value"}, name="renamed"),
    )


@given(rows_strategy, rows_strategy, st.sampled_from([None, ["k"], ["k", "s"], []]))
def test_join_parity(left_rows, right_rows, on):
    left_oracle, left = oracle_and_table(left_rows)
    # Rename one non-join column so the right side contributes new columns.
    right_oracle = RowTable(TABLE_SCHEMA, right_rows).rename({"v": "w", "b": "c"}, name="r")
    right = Table(TABLE_SCHEMA, right_rows).rename({"v": "w", "b": "c"}, name="r")
    expected = left_oracle.join(right_oracle, on=on)
    actual = left.join(right, on=on)
    assert expected.columns == actual.columns
    assert_same_rows(expected, actual)


@given(rows_strategy, st.sampled_from([["s"], ["k"], ["s", "b"], []]))
def test_group_by_all_aggregates_parity(rows, keys):
    oracle, table = oracle_and_table(rows)
    aggregations = {f"agg_{name.lower()}": ("v", name) for name in AGGREGATES}
    expected = oracle.group_by(keys, aggregations).to_list()
    actual = table.group_by(keys, aggregations).to_list()
    assert len(expected) == len(actual)
    for expected_row, actual_row in zip(expected, actual):
        assert expected_row.keys() == actual_row.keys()
        for column in expected_row:
            e, a = expected_row[column], actual_row[column]
            if isinstance(e, float) and (isinstance(a, (int, float))):
                if math.isnan(e):
                    assert math.isnan(a), column
                else:
                    assert a == pytest.approx(e, rel=1e-9, abs=1e-9), column
            else:
                assert e == a, (column, e, a)


@given(
    st.lists(floats_with_nan, min_size=0, max_size=30),
    st.integers(min_value=1, max_value=5),
    st.randoms(use_true_random=False),
)
def test_scalar_vs_grouped_aggregate_parity(values, n_groups, rng):
    """The grouped numpy kernels agree with per-group scalar aggregation."""
    group_ids = np.asarray([rng.randrange(n_groups) for _ in values], dtype=np.intp)
    groups = [[] for _ in range(n_groups)]
    for group, value in zip(group_ids, values):
        groups[group].append(value)
    for name in AGGREGATES:
        empty_groups = any(not group for group in groups)
        if name in ("MIN", "MAX") and empty_groups:
            with pytest.raises(AggregateError):
                grouped_aggregate(name, np.asarray(values), group_ids, n_groups)
            continue
        vectorized = grouped_aggregate(name, np.asarray(values), group_ids, n_groups)
        for group, result in zip(groups, vectorized.tolist()):
            expected = aggregate(name, group)
            if isinstance(expected, float) and math.isnan(expected):
                assert math.isnan(result), name
            elif isinstance(expected, bool):
                assert result == expected, name
            else:
                assert result == pytest.approx(expected, rel=1e-9, abs=1e-9), name


def test_non_finite_sum_avg_parity():
    """inf/overflow inputs: scalar and grouped SUM/AVG must agree (IEEE
    semantics), not raise on one path and return on the other."""
    cases = [
        [math.inf, -math.inf],  # fsum would raise ValueError
        [1e308, 1e308],  # fsum would raise OverflowError
        [math.inf, 1.0],
        [-math.inf, -5.0],
    ]
    for values in cases:
        for name in ("SUM", "AVG", "VAR", "STD", "SKEW"):
            scalar = aggregate(name, values)
            grouped = grouped_aggregate(
                name, np.asarray(values), np.zeros(len(values), dtype=np.intp), 1
            )[0]
            if math.isnan(scalar):
                assert math.isnan(grouped), (name, values)
            else:
                assert grouped == scalar, (name, values, scalar, grouped)
        rows = [{"k": 0, "v": value, "s": "a", "b": False} for value in values]
        oracle, table = oracle_and_table(rows)
        aggregations = {"total": ("v", "SUM"), "mean": ("v", "AVG")}
        assert_same_rows(oracle.group_by(["k"], aggregations), table.group_by(["k"], aggregations))


def test_where_with_sequence_values_parity():
    """Sequence-valued equality filters must compare cell-wise, not broadcast."""
    rows = [{"k": (1, 2)}, {"k": (3, 4)}, {"k": 5}]
    schema = TableSchema.from_spec("seq", {"k": "any"})
    oracle = RowTable(schema, rows)
    table = Table(schema, rows)
    assert_same_rows(oracle.where(k=(1, 2)), table.where(k=(1, 2)))
    assert_same_rows(oracle.where(k=[1, 2]), table.where(k=[1, 2]))
    assert_same_rows(oracle.where(k=(9,)), table.where(k=(9,)))
    assert_same_rows(oracle.where(k=5), table.where(k=5))


@given(
    st.lists(st.lists(finite_floats, min_size=0, max_size=6), min_size=0, max_size=10),
    st.sampled_from(sorted(EMBEDDINGS)),
)
def test_embedding_flat_parity(groups, embedding_name):
    """Embedding.apply_flat matches a per-group apply loop after fitting."""
    cls = EMBEDDINGS[embedding_name]
    scalar = cls().fit(groups)
    expected = [scalar.apply(group) for group in groups]
    counts = [len(group) for group in groups]
    values = np.asarray([value for group in groups for value in group], dtype=float)
    group_ids = np.repeat(np.arange(len(groups)), counts).astype(np.intp)
    flat = cls().fit_flat(values, group_ids, len(groups))
    assert getattr(flat, "width", None) == getattr(scalar, "width", None)
    matrix = flat.apply_flat(values, group_ids, len(groups))
    if matrix is None:  # no vectorized kernel: nothing to diff
        return
    assert matrix.shape == (len(groups), scalar.dimension)
    for expected_row, actual_row in zip(expected, matrix.tolist()):
        assert actual_row == pytest.approx(expected_row, rel=1e-9, abs=1e-9)


# ----------------------------------------------------------------------
# conjunctive queries
# ----------------------------------------------------------------------
@given(
    st.lists(st.tuples(small_ints, small_ints), min_size=0, max_size=10),
    st.lists(st.tuples(small_ints, labels), min_size=0, max_size=10),
    small_ints,
)
def test_conjunctive_query_backend_parity(r_pairs, s_pairs, constant):
    database = Database("parity")
    database.load_rows("R", [{"x": x, "y": y} for x, y in r_pairs] or [{"x": 0, "y": 0}])
    database.load_rows("S", [{"y": y, "z": z} for y, z in s_pairs] or [{"y": 0, "z": "a"}])
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    queries = [
        ConjunctiveQuery([Atom("R", (x, y))]),
        ConjunctiveQuery([Atom("R", (x, x))]),
        ConjunctiveQuery([Atom("R", (constant, y))]),
        ConjunctiveQuery([Atom("R", (x, y)), Atom("S", (y, z))]),
        ConjunctiveQuery([Atom("R", (x, y)), Atom("R", (y, x))]),
        ConjunctiveQuery([Atom("R", (x, y)), Atom("S", (y, "a"))]),
    ]
    for query in queries:
        assert query.evaluate(database) == row_oracle.evaluate(query, database)


# ----------------------------------------------------------------------
# content digests
# ----------------------------------------------------------------------
@given(rows_strategy)
def test_content_digest_parity(rows):
    """Digests depend on content only, never on the storage layout, so
    grounding, table and shard-partial artifacts keyed by them stay valid."""
    oracle, table = oracle_and_table(rows)
    assert table.content_digest() == oracle.content_digest()
    projected = oracle.project(["s", "b"], distinct=True)
    assert table.project(["s", "b"], distinct=True).content_digest() == projected.content_digest()


# ----------------------------------------------------------------------
# unit-table construction
# ----------------------------------------------------------------------
def assert_same_unit_table(expected, actual) -> None:
    assert expected.unit_keys == actual.unit_keys
    assert expected.peer_columns == actual.peer_columns
    assert expected.covariate_columns == actual.covariate_columns
    for attribute in ("outcome", "treatment", "peer_treatment", "peer_counts", "covariates"):
        left = getattr(expected, attribute)
        right = getattr(actual, attribute)
        assert left.shape == right.shape, attribute
        assert np.allclose(left, right, rtol=1e-9, atol=1e-12, equal_nan=True), attribute


@st.composite
def grounded_setups(draw):
    """A random grounded causal graph + values for T/Y/C attributes.

    Units get their own treatment/outcome/covariate nodes, random
    covariate->treatment/outcome edges, random treatment->outcome edges,
    random peer edges T[p] -> Y[u], and random paths T[p] -> M[m] -> Y[u]
    through an intermediate attribute (so a treatment may reach an outcome
    only indirectly); treatments and outcomes can be missing.
    """
    n_units = draw(st.integers(min_value=1, max_value=7))
    nodes: list[GroundedAttribute] = []
    edges: list[tuple[GroundedAttribute, GroundedAttribute]] = []
    values: dict[GroundedAttribute, object] = {}
    units = [(index,) for index in range(n_units)]

    for unit in units:
        treatment = GroundedAttribute("T", unit)
        outcome = GroundedAttribute("Y", unit)
        nodes += (treatment, outcome)
        if draw(st.booleans()):
            edges.append((treatment, outcome))
        if draw(st.booleans()):
            values[treatment] = draw(st.sampled_from([0, 1, True, False, 0.0, 1.0]))
        if draw(st.booleans()):
            values[outcome] = draw(finite_floats)
        for attribute in ("C1", "C2"):
            if draw(st.booleans()):
                covariate = GroundedAttribute(attribute, unit)
                nodes.append(covariate)
                edges.append((covariate, treatment))
                if draw(st.booleans()):
                    edges.append((covariate, outcome))
                if attribute == "C1":
                    values[covariate] = draw(floats_with_nan)
                else:
                    values[covariate] = draw(st.one_of(finite_floats, labels))
    # Random peer edges between distinct units.
    for source in units:
        for target in units:
            if source != target and draw(st.integers(0, 3)) == 0:
                edges.append((GroundedAttribute("T", source), GroundedAttribute("Y", target)))
    # Random indirect paths through intermediate nodes M[m].
    for middle in range(draw(st.integers(min_value=0, max_value=3))):
        intermediate = GroundedAttribute("M", (middle,))
        for unit in units:
            if draw(st.booleans()):
                edges.append((GroundedAttribute("T", unit), intermediate))
            if draw(st.booleans()):
                edges.append((intermediate, GroundedAttribute("Y", unit)))
    return build_graph(nodes, edges), values, units


@given(grounded_setups(), st.sampled_from(sorted(EMBEDDINGS)))
@settings(max_examples=60)
def test_unit_table_backend_parity(setup, embedding):
    graph, values, units = setup
    peers = compute_peers(graph, "T", "Y", units)

    def build(builder, peers):
        try:
            return builder(
                graph,
                values,
                "T",
                "Y",
                units,
                peers,
                is_observed=lambda name: True,
                embedding=embedding,
            )
        except Exception as error:  # noqa: BLE001 - compared across paths
            return error

    expected = build(row_oracle.build_unit_table, peers.to_dict())
    actual = build(build_unit_table, peers)
    if isinstance(expected, Exception) or isinstance(actual, Exception):
        assert type(expected) is type(actual), (expected, actual)
        return
    assert_same_unit_table(expected, actual)


def test_group_by_callable_aggregates_are_bitwise_identical():
    """An explicitly passed callable must run as-is on both paths — the
    production group-by may not substitute its approximate numpy kernel."""
    from repro.db.aggregates import agg_sum

    rows = [{"k": 0, "v": 0.1, "s": "a", "b": False} for _ in range(10)]
    oracle, table = oracle_and_table(rows)
    expected = oracle.group_by(["k"], {"total": ("v", agg_sum)}).to_list()
    actual = table.group_by(["k"], {"total": ("v", agg_sum)}).to_list()
    assert actual == expected  # exact equality: fsum on both sides
    assert actual[0]["total"] == 1.0


def test_from_columns_rejects_null_in_non_nullable_any_column():
    """Bulk construction must enforce the null check that insert() enforces."""
    from repro.db.schema import SchemaError

    with pytest.raises(SchemaError, match="not nullable"):
        Table.from_columns("t", {"x": [1, None, 3]})
    table = Table.from_columns("t", {"x": [1, 2, 3]})
    assert table.column("x") == [1, 2, 3]


def test_custom_embedding_subclass_overrides_are_honoured():
    """A subclass overriding only the scalar apply()/fit() must not be
    silently bypassed by the inherited vectorized kernels."""
    from repro.carl.embeddings import MeanEmbedding, PaddingEmbedding
    from repro.carl.unit_table import _apply_embedder, _fit_embedder

    class ClippedMean(MeanEmbedding):
        def apply(self, values):
            mean, count = super().apply(values)
            return [min(mean, 1.0), count]

    values = np.asarray([5.0, 7.0], dtype=float)
    group_ids = np.asarray([0, 0], dtype=np.intp)
    matrix = _apply_embedder(ClippedMean(), values, group_ids, 1)
    assert matrix.tolist() == [[1.0, 2.0]]  # the override's clipping applied

    class WidePadding(PaddingEmbedding):
        def fit(self, groups):
            self.width = 7
            return self

    fitted = _fit_embedder(WidePadding(), values, group_ids, 1)
    assert fitted.width == 7  # the custom fit ran, not the inherited fit_flat


# ----------------------------------------------------------------------
# end-to-end: the engine's unit tables match the oracle's
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "text",
    [
        "Score[S] <= Prestige[A] ?",
        'Score[S] <= Prestige[A] ? WHERE Submitted(S, C), Blind[C] = "double"',
        "Score[S] <= Prestige[A] ? WHEN ALL PEERS TREATED",
    ],
    ids=["ate", "where", "peers"],
)
def test_engine_unit_table_matches_oracle(text):
    """The engine's unit table equals the oracle's Algorithm 1 run on the
    engine's own graph, values, units and peers, with each unit's outcome
    aggregated head by head over the parents the WHERE clause admits."""
    engine = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM)
    actual = engine.unit_table(text)
    plan = engine._plan(parse_query(text), "mean")
    treatment, response = plan.treatment, plan.response
    grounding, _, units, admitted, _ = engine._units(plan)
    graph = grounding.graph
    values = dict(grounding.values)
    if admitted is not None:
        bindings = engine.grounder.condition_bindings(plan.query.condition)
        allowed = set(bindings.column(plan.response_variable))
        for unit in units:
            head = GroundedAttribute(response, unit)
            values[head] = grounding_oracle.aggregate_head_value(graph, values, head, allowed)
    peers = compute_peers(graph, treatment, response, units)
    expected = row_oracle.build_unit_table(
        graph, values, treatment, response, units, peers.to_dict(), engine.model.is_observed
    )
    assert_same_unit_table(expected, actual)


# ----------------------------------------------------------------------
# full-strength differential sweep (excluded from the tier-1 loop)
# ----------------------------------------------------------------------
@pytest.mark.slow
@given(rows_strategy, st.sampled_from([["s"], ["k", "b"]]))
@settings(max_examples=800, deadline=None)
def test_group_by_parity_exhaustive(rows, keys):
    oracle, table = oracle_and_table(rows)
    aggregations = {f"agg_{name.lower()}": ("v", name) for name in AGGREGATES}
    expected = oracle.group_by(keys, aggregations).to_list()
    actual = table.group_by(keys, aggregations).to_list()
    assert len(expected) == len(actual)
    for expected_row, actual_row in zip(expected, actual):
        for column in expected_row:
            e, a = expected_row[column], actual_row[column]
            if isinstance(e, float):
                if math.isnan(e):
                    assert math.isnan(a)
                else:
                    assert a == pytest.approx(e, rel=1e-9, abs=1e-9)
            else:
                assert e == a
