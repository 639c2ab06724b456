"""The unifying relation against the oracle's splice.

A response the program does not declare on the treated units is a unifying
aggregate (Section 4.3) that the engine never grounds:
``CaRLEngine._units`` evaluates the rule into a (unit position, base node)
relation, the peer walk starts from it and the outcome is aggregated over
it.  That must give exactly what grounding the rule would:
``tests/grounding_oracle.py``'s ``extend`` splices the rule into a copy of
the graph node by node, and ``tests/row_oracle.py`` walks and collects on
the spliced graph unit by unit.

For every query whose plan carries a unifying rule, with and without a
WHERE clause on the entity of the response's base (and with the query's own
clause on the treated entity, when it has one), whole and merged over 3
shard ranges:

* ``peers.to_dict()`` equals the row oracle's peers on the spliced graph;
* the collection, decoded to rows (``RowInputs.decode``), equals the row
  oracle's, and so does the materialized table;
* the answer is ``float.hex``-identical to that of an engine whose program
  declares the rule.

The inputs are the grounding harness's drawn instances, fixed instances for
cases the draws rarely reach (a clause that excludes a base node with
treatment ancestors, a two-hop path whose bindings repeat a pair, a base key
no unit holds that another rule ground), and the undeclared synthetic-300
queries of ``tests/test_grounding_snapshot.py``.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np
import pytest
from hypothesis import example, given, settings

import grounding_oracle
import row_oracle
from repro.carl.ast import (
    AttributeAtom,
    CausalQuery,
    Comparison,
    Condition,
    PredicateAtom,
    Variable,
)
from repro.carl.causal_graph import GroundedAttribute
from repro.carl.engine import CaRLEngine
from repro.carl.parser import parse_program, parse_query
from repro.carl.peers import compute_peers
from repro.carl.shard import shard_ranges
from repro.carl.unit_table import merge_unit_table_inputs
from repro.datasets import generate_synthetic_review_data
from repro.db.database import Database
from test_grounding_harness import (
    HARNESS_SETTINGS,
    Instance,
    _answer_fields,
    _outcome,
    _table,
    instances,
)
from test_grounding_snapshot import UNDECLARED

SHARDS = 3


def _instance(tables: dict[str, tuple[list[str], list[dict[str, Any]]]], program: str, query: str) -> Instance:
    database = Database("fixed")
    for name, (columns, rows) in tables.items():
        database.add_table(_table(name, columns, rows))
    return Instance(database, parse_program(program), [parse_query(query)])


AUTHORS_AND_SUBMISSIONS = """
ENTITY E0(k0);
ENTITY E1(k1);
RELATIONSHIP R0(a E0, s E1);
ATTRIBUTE A0 OF E0;
ATTRIBUTE A1 OF E1;
A1[S] <= A0[A] WHERE R0(A, S);
"""


def excluded_base_with_ancestors() -> Instance:
    """``s1``, the first submission, is excluded by the clause on the
    response entity but is ``b``'s only path from ``a``'s treatment: ``a``
    stays ``b``'s peer, although ``s1`` no longer counts towards ``b``'s
    outcome."""
    return _instance(
        {
            "E0": (["k0", "a0"], [{"k0": "a", "a0": 1}, {"k0": "b", "a0": 0}, {"k0": "c", "a0": 1}]),
            "E1": (["k1", "a1"], [{"k1": "s1", "a1": 1.5}, {"k1": "s2", "a1": 3}, {"k1": "s3", "a1": 0.5}]),
            "R0": (["a", "s"], [{"a": "a", "s": "s1"}, {"a": "b", "s": "s1"}, {"a": "b", "s": "s2"}, {"a": "c", "s": "s3"}]),
        },
        AUTHORS_AND_SUBMISSIONS,
        "SUM_A1[X] <= A0[X] >= 1 ?",
    )


def two_hop_repeated_pair() -> Instance:
    """``a`` reaches ``z1`` through both ``m1`` and ``m2``: the rule's
    bindings repeat the pair (a, z1), which a SUM must count once."""
    return _instance(
        {
            "E0": (["k0", "a0"], [{"k0": "a", "a0": 1}, {"k0": "b", "a0": 0}, {"k0": "c", "a0": 1}]),
            "E1": (["k1"], [{"k1": "m1"}, {"k1": "m2"}]),
            "E2": (["k2", "a2"], [{"k2": "z1", "a2": 2}, {"k2": "z2", "a2": 5}]),
            "R0": (["a", "m"], [{"a": "a", "m": "m1"}, {"a": "a", "m": "m2"}, {"a": "b", "m": "m2"}, {"a": "c", "m": "m1"}]),
            "R1": (["m", "z"], [{"m": "m1", "z": "z1"}, {"m": "m2", "z": "z1"}, {"m": "m2", "z": "z2"}]),
        },
        """
        ENTITY E0(k0);
        ENTITY E1(k1);
        ENTITY E2(k2);
        RELATIONSHIP R0(a E0, m E1);
        RELATIONSHIP R1(m E1, z E2);
        ATTRIBUTE A0 OF E0;
        ATTRIBUTE A2 OF E2;
        A2[Z] <= A0[A] WHERE R0(A, M), R1(M, Z);
        """,
        "SUM_A2[X] <= A0[X] >= 1 ?",
    )


def out_of_unit_base_with_ancestors() -> Instance:
    """``s9`` has no ``E1`` row, but the causal rule grounds ``A1[s9]``
    under ``a`` and ``b``: ``a`` is ``b``'s peer through it, though it
    carries no value."""
    return _instance(
        {
            "E0": (["k0", "a0"], [{"k0": "a", "a0": 1}, {"k0": "b", "a0": 0}, {"k0": "c", "a0": 1}]),
            "E1": (["k1", "a1"], [{"k1": "s1", "a1": 2}, {"k1": "s2", "a1": 4}]),
            "R0": (["a", "s"], [{"a": "a", "s": "s9"}, {"a": "b", "s": "s9"}, {"a": "b", "s": "s1"}, {"a": "c", "s": "s2"}]),
        },
        AUTHORS_AND_SUBMISSIONS,
        "MAX_A1[X] <= A0[X] >= 1 ?",
    )


# ----------------------------------------------------------------------
# the check
# ----------------------------------------------------------------------
def _response_where(engine: CaRLEngine, base: str) -> Condition | None:
    """A clause on the entity of ``base`` that excludes its first unit, or
    None when that subject is not a one-key entity or has no unit."""
    subject = engine.schema.subject_of(base)
    if not engine.schema.predicate(subject).is_entity:
        return None
    units = engine.instance.units(base)
    if not units:
        return None
    variable = Variable("W")
    return Condition(
        (PredicateAtom(subject, (variable,)),),
        (Comparison(variable, "!=", units[0][0]),),
    )


def _variants(engine: CaRLEngine, query: CausalQuery) -> list[CausalQuery]:
    """``query`` with its own clause, none, a clause on the response's base
    entity, and both clauses, for a query with a unifying plan."""
    plan = _outcome(lambda: engine._plan(query, "mean"))  # noqa: SLF001
    if plan[0] == "error" or plan[1].unifying is None:
        return []
    conditions = [query.condition, Condition()]
    where = _response_where(engine, plan[1].unifying.body.name)
    if where is not None:
        conditions.append(where)
        conditions.append(
            Condition(
                (*query.condition.atoms, *where.atoms),
                (*query.condition.comparisons, *where.comparisons),
            )
        )
    return [
        dataclasses.replace(query, condition=condition) for condition in dict.fromkeys(conditions)
    ]


def _same_table(expected, actual) -> None:
    """The row oracle's table, up to the last bits of the covariates: its
    mean embedding sums in another order than production's."""
    assert expected.unit_keys == actual.unit_keys
    assert expected.peer_columns == actual.peer_columns
    assert expected.covariate_columns == actual.covariate_columns
    assert expected.response_attribute == actual.response_attribute
    for field in ("outcome", "treatment", "peer_treatment", "peer_counts", "covariates"):
        left, right = getattr(expected, field), getattr(actual, field)
        assert left.shape == right.shape, field
        assert np.allclose(left, right, rtol=1e-9, atol=1e-12, equal_nan=True), field


def check_query(database: Database, program, query: CausalQuery) -> bool:
    """Hold one query's relation path to the oracle's splice; False when the
    query has no unifying plan, or no unit list to collect."""
    if isinstance(program, str):
        program = parse_program(program)
    engine = CaRLEngine(database, program)
    plan = _outcome(lambda: engine._plan(query, "mean"))  # noqa: SLF001
    if plan[0] == "error" or plan[1].unifying is None:
        return False
    plan = plan[1]
    unit_list = _outcome(lambda: engine._units(plan))  # noqa: SLF001
    if unit_list[0] == "error":
        return False
    grounding, _, units, admitted, relation = unit_list[1]
    treatment, response = plan.treatment, plan.response

    # The oracle: the rule spliced into the graph, its heads valued over
    # the parents the WHERE clause admits.  The splice values every head of
    # the rule, as a program that declares it does while grounding; the
    # relation values only the heads the query reads, so a head whose
    # aggregate raises (a non-numeric base value) fails only a query that
    # reads it, and there is nothing to compare.
    oracle = grounding_oracle.Grounder(engine.model, engine.instance)
    twin = dataclasses.replace(program, aggregate_rules=[*program.aggregate_rules, plan.unifying])
    spliced = _outcome(lambda: oracle.extend(grounding, [plan.unifying]))
    if spliced[0] == "error":
        assert _outcome(lambda: CaRLEngine(database, twin).graph)[0] == "error"
        return False
    graph, values = spliced[1].graph, dict(spliced[1].values)
    if admitted is not None:
        bindings = oracle.condition_bindings(plan.query.condition)
        allowed = set(bindings.column(plan.response_variable))
        for unit in units:
            head = GroundedAttribute(response, unit)
            values[head] = grounding_oracle.aggregate_head_value(graph, values, head, allowed)
    expected_peers = row_oracle.compute_peers(graph, treatment, response, units)
    expected_inputs = _outcome(
        lambda: row_oracle.collect_unit_table_inputs(
            graph, values, values.get, treatment, response, units, expected_peers,
            engine.model.is_observed,
        )
    )
    binarize = None
    if query.treatment_threshold is not None:
        threshold = query.treatment_threshold
        binarize = lambda value: 1.0 if threshold.evaluate(value) else 0.0  # noqa: E731
    expected_table = _outcome(
        lambda: row_oracle.build_unit_table(
            graph, values, treatment, response, units, expected_peers,
            engine.model.is_observed, binarize=binarize,
        )
    )

    # The engine: the relation, whole and over shard ranges.  A twin
    # program that declares the rule builds bit for bit the same table.
    declared = CaRLEngine(database, twin)
    assert declared._plan(query, "mean").unifying is None  # noqa: SLF001
    declared_table = _outcome(lambda: declared.unit_table(query))
    peers = compute_peers(grounding.graph, treatment, response, units, relation=relation)
    assert peers.to_dict() == expected_peers
    whole = _outcome(
        lambda: engine._collect(plan, 0, len(units), grounding, units, admitted, relation)  # noqa: SLF001
    )
    merged = _outcome(
        lambda: merge_unit_table_inputs(
            [
                engine.collect_shard_inputs(query, start, stop, expected_units=len(units))
                for start, stop in shard_ranges(len(units), SHARDS)
            ]
        )
    )
    for inputs in (whole, merged):
        if inputs[0] == "error":
            assert expected_inputs == inputs
            continue
        assert expected_inputs == ("ok", row_oracle.RowInputs.decode(inputs[1]))
        table = _outcome(lambda: engine._materialize(query, inputs[1], "mean"))  # noqa: SLF001
        if table[0] == "error" or expected_table[0] == "error":
            assert table[0] == expected_table[0] == "error"
            assert table[1] == expected_table[1]
        else:
            _same_table(expected_table[1], table[1])
            assert table[1].equals(engine.unit_table(query))
            assert table[1].equals(declared_table[1])

    # And answers bit for bit the same.
    assert _outcome(lambda: _answer_fields(engine.answer(query))) == _outcome(
        lambda: _answer_fields(declared.answer(query))
    )
    return True


def check_instance(instance: Instance) -> None:
    engine = _outcome(lambda: CaRLEngine(instance.database, instance.program))
    if engine[0] == "error":
        return
    engine = engine[1]
    queries = list(instance.queries)
    if queries:
        # Undeclared SUMs of every observed attribute off the treated entity,
        # under the first query's clause.
        treatment = queries[0].treatment
        subject = engine.schema.subject_of(treatment.name)
        queries += [
            dataclasses.replace(queries[0], response=AttributeAtom(f"SUM_{name}", treatment.terms))
            for name in engine.schema.observed_attribute_names
            if engine.schema.subject_of(name) != subject
        ]
    for query in queries:
        for variant in _variants(engine, query):
            check_query(instance.database, instance.program, variant)


@settings(max_examples=100, **HARNESS_SETTINGS)
@given(instances())
@example(excluded_base_with_ancestors())
@example(two_hop_repeated_pair())
@example(out_of_unit_base_with_ancestors())
def test_relation_matches_the_oracle_splice(instance):
    check_instance(instance)


@pytest.mark.slow
@settings(max_examples=1000, **HARNESS_SETTINGS)
@given(instances())
@example(excluded_base_with_ancestors())
@example(two_hop_repeated_pair())
@example(out_of_unit_base_with_ancestors())
def test_relation_matches_the_oracle_splice_thorough(instance):
    check_instance(instance)


@pytest.fixture(scope="module")
def synthetic_300():
    return generate_synthetic_review_data(n_authors=300, seed=1)


@pytest.mark.parametrize("where", ["", ' WHERE SubmittedTo(S, C), Blind[C] = "single"'])
@pytest.mark.parametrize("query", UNDECLARED)
def test_undeclared_synthetic_queries_match_the_oracle_splice(synthetic_300, query, where):
    parsed = parse_query(query.replace(" ?", " ?" + where))
    assert check_query(synthetic_300.database, synthetic_300.program, parsed)
