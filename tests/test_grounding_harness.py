"""Differential harness: the array-native grounder against the per-binding oracle.

Hypothesis draws whole instances — a schema of 2-4 entities, 1-3
relationships (one a self-relationship, like ``Collaborates``) and 3-7
attributes with random latent flags; a non-recursive program of causal rules
(1-3 condition atoms, constants, attribute and variable comparisons) and
aggregate rules, some nested (over an earlier aggregate); a database with
int, float, string and mixed keys, duplicate rows, NULL cells and
relationship rows whose keys no entity holds; and queries with WHERE
clauses — and checks, for each draw (and for one fixed instance whose
nested aggregates carry values, over a NULL parent too):

* every rule and query condition's bindings equal, in order, those of the
  row-at-a-time evaluator (``tests/row_oracle.py``) filtered binding by
  binding, over the skeleton and over the key columns as drawn (duplicate
  rows included);
* the grounded graph of :class:`repro.carl.grounding.Grounder` equals
  ``tests/grounding_oracle.py``'s: node lists, CSR arrays, aggregate marks,
  the per-attribute id index and the values mapping;
* an engine answers every query ``float.hex``-identically on either
  grounder, and its graph after the queries (still the program's grounding:
  a unifying aggregate is evaluated per query, never ground) is the
  oracle's too;
* an invalid draw raises the same error class at the same stage on both:
  ``CaRLEngine(...)``, planning (before grounding), grounding, or the answer.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import grounding_oracle
import row_oracle
from repro.carl.ast import (
    AggregateRule,
    AttributeAtom,
    AttributeDeclaration,
    CausalQuery,
    CausalRule,
    Comparison,
    Condition,
    EntityDeclaration,
    PredicateAtom,
    Program,
    RelationshipDeclaration,
    Variable,
)
from repro.carl.engine import CaRLEngine
from repro.carl.grounding import Grounder
from repro.carl.queries import ATEResult
from repro.db.database import Database
from repro.db.query import ConjunctiveQuery
from repro.db.schema import ColumnSchema, TableSchema
from repro.db.table import Table

#: Key pools per entity kind; "mixed" holds keys equal under Python
#: equality (1, 1.0, True) that one unit must absorb.
KEY_POOLS = {
    "int": [0, 1, 2, 3, 4, 5, 6, 7],
    "float": [0.5, 1.5, 2.0, 3.25, 4.5, 6.0],
    "str": ["a", "b", "c", "d", "e", "f"],
    "mixed": [1, 1.0, True, 2, "b", 2.5],
}
#: Relationship keys no entity holds.
OUTSIDE_KEYS = [99, "zz", 7.75]
VALUES = [0, 1, 2, 3, 0.5, 1.5, None]
AGGREGATES = ["AVG", "SUM", "MIN", "MAX", "COUNT"]
OPERATORS = ["=", "!=", "<", "<=", ">", ">="]
VARIABLES = ["V0", "V1", "V2", "V3"]


@dataclasses.dataclass
class Instance:
    database: Database
    program: Program
    queries: list[CausalQuery]


def _table(name: str, columns: list[str], rows: list[dict[str, Any]]) -> Table:
    schema = TableSchema(
        name=name, columns=tuple(ColumnSchema(column, "any", nullable=True) for column in columns)
    )
    return Table(schema, rows)


@st.composite
def _condition(draw, predicates, arities, pools, attributes, allow_unbound, dirty=False):
    """1-3 predicate atoms, then 0-2 attribute or variable comparisons."""
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(predicates))
        terms = []
        for position in range(arities[name]):
            if draw(st.integers(0, 9)) == 0:
                terms.append(draw(st.sampled_from(pools[name][position])))
            else:
                terms.append(Variable(draw(st.sampled_from(VARIABLES))))
        atoms.append(PredicateAtom(name, tuple(terms)))
    bound = [term.name for atom in atoms for term in atom.terms if isinstance(term, Variable)]
    if not bound:
        atoms.append(PredicateAtom(predicates[0], tuple(Variable("V0") for _ in range(arities[predicates[0]]))))
        bound = ["V0"]
    comparisons = []
    for _ in range(draw(st.integers(0, 2))):
        constant = draw(st.sampled_from([0, 1, 1.5, 2] + (["a", "s"] if dirty else [])))
        operator = draw(st.sampled_from(OPERATORS))
        one_key = [name for name, subject, _ in attributes if arities[subject] == 1]
        if one_key and draw(st.booleans()):
            left: Any = AttributeAtom(
                draw(st.sampled_from(one_key)), (Variable(draw(st.sampled_from(bound))),)
            )
        elif allow_unbound and draw(st.integers(0, 9)) == 0:
            left = Variable("U")  # bound by no atom: grounding must raise
        else:
            left = Variable(draw(st.sampled_from(bound)))
        comparisons.append(Comparison(left, operator, constant))
    return Condition(tuple(atoms), tuple(comparisons)), bound


@st.composite
def instances(draw) -> Instance:
    entities = []
    pools: dict[str, list[list[Any]]] = {}
    arities: dict[str, int] = {}
    for index in range(draw(st.integers(2, 4))):
        name = f"E{index}"
        entities.append(EntityDeclaration(name, f"k{index}"))
        pools[name] = [KEY_POOLS[draw(st.sampled_from(sorted(KEY_POOLS)))]]
        arities[name] = 1
    relationships = []
    for index in range(draw(st.integers(1, 3))):
        first = draw(st.integers(0, len(entities) - 1))
        second = first if index == 0 else draw(st.integers(0, len(entities) - 1))
        name = f"R{index}"
        relationships.append(
            RelationshipDeclaration(
                name, (f"r{index}a", f"r{index}b"), (entities[first].name, entities[second].name)
            )
        )
        pools[name] = [pools[entities[first].name][0], pools[entities[second].name][0]]
        arities[name] = 2
    predicates = [entity.name for entity in entities] + [rel.name for rel in relationships]

    attributes = []  # (name, subject, latent)
    for index in range(draw(st.integers(3, 7))):
        subject = draw(st.sampled_from(predicates))
        # Two observed entity attributes, so queries have a treatment.
        if index < 2:
            subject = entities[index].name
        latent = index >= 2 and draw(st.integers(0, 3)) == 0
        attributes.append((f"A{index}", subject, latent))

    dirty = draw(st.integers(0, 4)) == 0  # allow string values: comparisons may raise
    values = st.sampled_from(VALUES + (["s"] if dirty else []))
    tables = {}
    for entity in entities:
        columns = [entity.key] + [a.lower() for a, subject, latent in attributes if subject == entity.name and not latent]
        rows = []
        for _ in range(draw(st.integers(0, 12))):
            row = {entity.key: draw(st.sampled_from(pools[entity.name][0]))}
            row.update({column: draw(values) for column in columns[1:]})
            rows.append(row)
        tables[entity.name] = _table(entity.name, columns, rows)
    for rel in relationships:
        columns = list(rel.keys) + [a.lower() for a, subject, latent in attributes if subject == rel.name and not latent]
        rows = []
        for _ in range(draw(st.integers(0, 10))):
            row = {}
            for position, key in enumerate(rel.keys):
                outside = draw(st.integers(0, 6)) == 0
                row[key] = draw(st.sampled_from(OUTSIDE_KEYS if outside else pools[rel.name][position]))
            row.update({column: draw(values) for column in columns[2:]})
            rows.append(row)
        tables[rel.name] = _table(rel.name, columns, rows)
    database = Database("harness")
    for table in tables.values():
        database.add_table(table)

    # Causal rules run forward along a drawn attribute order: non-recursive.
    order = draw(st.permutations([name for name, _, _ in attributes]))
    subject_of = {name: subject for name, subject, _ in attributes}
    allow_unbound = draw(st.integers(0, 9)) == 0
    rules = []
    for _ in range(draw(st.integers(1, 4))):
        head_at = draw(st.integers(1, len(order) - 1))
        condition, bound = draw(
            _condition(predicates, arities, pools, attributes, allow_unbound, dirty)
        )

        def atom(name: str) -> AttributeAtom:
            pool = pools[subject_of[name]]
            return AttributeAtom(
                name,
                tuple(
                    draw(st.sampled_from(pool[position]))
                    if draw(st.integers(0, 11)) == 0
                    else Variable(draw(st.sampled_from(bound)))
                    for position in range(arities[subject_of[name]])
                ),
            )

        body = tuple(atom(draw(st.sampled_from(order[:head_at]))) for _ in range(draw(st.integers(1, 2))))
        rules.append(CausalRule(atom(order[head_at]), body, condition))
    aggregate_rules = []
    along: dict[str, RelationshipDeclaration] = {}  # G{i} -> its relationship
    for index in range(draw(st.sampled_from([0, 1, 2, 2, 3]))):
        # A nested aggregate reads an earlier G{i}: its values must follow
        # those of its base.
        if along and draw(st.integers(0, 3)):
            base = draw(st.sampled_from(sorted(along)))
        else:
            base = draw(st.sampled_from([name for name, _, _ in attributes]))
        condition, bound = draw(
            _condition(predicates, arities, pools, attributes, allow_unbound, dirty)
        )
        head_term = Variable(draw(st.sampled_from(bound)))
        base_terms = tuple(
            Variable(draw(st.sampled_from(bound))) for _ in range(arities[subject_of[base]])
        )
        if base in along or draw(st.integers(0, 3)):
            # Aggregate along a relationship: H over one of its entities, the
            # base keyed by the other end (or by the relationship itself),
            # mostly one that fits the base's subject; a nested aggregate
            # mostly walks back along its base's relationship.
            ends = [(rel, side) for rel in relationships for side in (0, 1)]
            fitting = [
                (rel, side)
                for rel, side in ends
                if subject_of[base] in (rel.name, rel.references[1 - side])
            ]
            fitting = [(rel, side) for rel, side in fitting if rel is along.get(base)] or fitting
            rel, side = draw(st.sampled_from(fitting if fitting and draw(st.integers(0, 3)) else ends))
            subject_of[f"G{index}"] = rel.references[side]
            along[f"G{index}"] = rel
            ends = [Variable("H"), Variable("B")] if side == 0 else [Variable("B"), Variable("H")]
            atoms = (PredicateAtom(rel.name, tuple(ends)),)
            head_term = Variable("H")
            if subject_of[base] == rel.name:
                base_terms = tuple(ends)
            elif arities[subject_of[base]] == 1:
                base_terms = (Variable("B"),)
                atoms += (PredicateAtom(subject_of[base], (Variable("B"),)),)
            comparisons = ()
            if draw(st.booleans()):
                comparisons = (
                    Comparison(
                        Variable(draw(st.sampled_from(["H", "B"]))),
                        draw(st.sampled_from(OPERATORS)),
                        draw(st.sampled_from([0, 1, 2, "b"])),
                    ),
                )
            condition = Condition(atoms, comparisons)
        aggregate_rules.append(
            AggregateRule(
                draw(st.sampled_from(AGGREGATES)),
                AttributeAtom(f"G{index}", (head_term,)),
                AttributeAtom(base, base_terms),
                condition,
            )
        )
    program = Program(
        entities=entities,
        relationships=relationships,
        attributes=[
            AttributeDeclaration(name, subject, latent=latent) for name, subject, latent in attributes
        ],
        rules=rules,
        aggregate_rules=aggregate_rules,
    )

    queries = []
    treatments = [name for name, subject, latent in attributes if arities[subject] == 1 and not latent]
    responses = [name for name, _, latent in attributes if not latent] + [f"G{i}" for i in range(len(aggregate_rules))]
    for _ in range(draw(st.integers(1, 2))):
        treatment = draw(st.sampled_from(treatments))
        condition = Condition()
        if draw(st.booleans()):
            # A WHERE clause with a variable over the treated entity.
            drawn, _ = draw(_condition(predicates, arities, pools, attributes, False, dirty))
            condition = Condition(
                (PredicateAtom(subject_of[treatment], (Variable("V0"),)), *drawn.atoms),
                drawn.comparisons,
            )
        queries.append(
            CausalQuery(
                response=AttributeAtom(draw(st.sampled_from(responses)), (Variable("V0"),)),
                treatment=AttributeAtom(treatment, (Variable("V0"),)),
                condition=condition,
                treatment_threshold=Comparison(
                    AttributeAtom(treatment, (Variable("V0"),)), ">=", draw(st.sampled_from([1, 1.5]))
                ),
            )
        )
    return Instance(database, program, queries)


def nested_aggregate_instance() -> Instance:
    """Aggregates over a self-relationship whose every head has valued
    parents: G1 aggregates G0, so G0 must be valued first, and one parent
    of each aggregate is NULL, which none may count."""
    entities = [EntityDeclaration("E0", "k0"), EntityDeclaration("E1", "k1")]
    follows = RelationshipDeclaration("R0", ("r0a", "r0b"), ("E0", "E0"))
    database = Database("nested")
    database.add_table(
        _table(
            "E0",
            ["k0", "a0", "a2"],
            [{"k0": k, "a0": k * 1.5 if k < 4 else None, "a2": k % 2} for k in (1, 2, 3, 4)],
        )
    )
    database.add_table(_table("E1", ["k1", "a1"], [{"k1": "a", "a1": 1}, {"k1": "b", "a1": 0}]))
    database.add_table(
        _table(
            "R0",
            ["r0a", "r0b"],
            [{"r0a": a, "r0b": b} for a, b in ((1, 2), (2, 3), (3, 1), (1, 3), (4, 1))],
        )
    )
    one = (Variable("V0"),)
    chain = Condition(
        (PredicateAtom("R0", (Variable("B"), Variable("H"))), PredicateAtom("E0", (Variable("B"),)))
    )
    program = Program(
        entities=entities,
        relationships=[follows],
        attributes=[
            AttributeDeclaration("A0", "E0"),
            AttributeDeclaration("A1", "E1"),
            AttributeDeclaration("A2", "E0"),
        ],
        rules=[
            CausalRule(
                AttributeAtom("A2", one), (AttributeAtom("A0", one),), Condition((PredicateAtom("E0", one),))
            )
        ],
        aggregate_rules=[
            AggregateRule("AVG", AttributeAtom("G0", (Variable("H"),)), AttributeAtom("A0", (Variable("B"),)), chain),
            AggregateRule("SUM", AttributeAtom("G1", (Variable("H"),)), AttributeAtom("G0", (Variable("B"),)), chain),
            AggregateRule("COUNT", AttributeAtom("G2", (Variable("H"),)), AttributeAtom("A0", (Variable("B"),)), chain),
        ],
    )
    query = CausalQuery(
        response=AttributeAtom("G1", one),
        treatment=AttributeAtom("A2", one),
        treatment_threshold=Comparison(AttributeAtom("A2", one), ">=", 1),
    )
    return Instance(database, program, [query])


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def _outcome(action) -> tuple[str, Any]:
    try:
        return "ok", action()
    except Exception as error:  # noqa: BLE001 - the class is what is compared
        return "error", type(error).__name__


def _graph_state(graph, values) -> tuple[Any, ...]:
    csr = graph.csr()
    return (
        graph.nodes,
        [node.key for node in graph.nodes],
        tuple(
            np.asarray(array).tolist()
            for array in (csr.parent_indptr, csr.parent_indices, csr.child_indptr, csr.child_indices)
        ),
        list(graph.aggregate_marks.items()),
        [(name, graph.nodes_of(name)) for name in graph.attribute_names()],
        values,
    )


def _exact(value: Any) -> Any:
    return value.hex() if isinstance(value, float) else value


def _answer_fields(answer) -> tuple[Any, ...]:
    result = answer.result
    if isinstance(result, ATEResult):
        fields = (result.ate, result.naive_difference, result.treated_mean, result.control_mean,
                  result.correlation, result.n_units, result.n_treated, result.n_control)
    else:
        fields = (result.aie, result.are, result.aoe, result.correlation,
                  result.naive_difference, result.n_units, result.mean_peer_count)
    return tuple(map(_exact, fields))


def _session(instance: Instance, oracle: bool) -> list[tuple[str, Any]]:
    """Every stage's outcome for one engine over ``instance``."""
    engine_outcome = _outcome(lambda: CaRLEngine(instance.database, instance.program))
    if engine_outcome[0] == "error":
        return [("engine", engine_outcome)]
    engine = engine_outcome[1]
    if oracle:
        engine.grounder = grounding_oracle.Grounder(engine.model, engine.instance)
    stages: list[tuple[str, Any]] = []
    for query in instance.queries:
        planned = _outcome(lambda: engine._plan(query, "mean"))  # noqa: SLF001
        stages.append(("plan", planned if planned[0] == "error" else "ok"))
        if planned[0] == "error":
            continue
        ground = _outcome(lambda: engine.graph)
        stages.append(("ground", ground if ground[0] == "error" else "ok"))
        if ground[0] == "error":
            continue
        answer = _outcome(lambda: engine.answer(query))
        stages.append(("answer", (answer[0], _answer_fields(answer[1])) if answer[0] == "ok" else answer))
    final = _outcome(lambda: engine._current_grounding()[0])  # noqa: SLF001
    stages.append(
        ("graph", ("ok", _graph_state(final[1].graph, final[1].values)) if final[0] == "ok" else final)
    )
    return stages


def _row_bindings(oracle: grounding_oracle.Grounder, condition: Condition) -> list[dict]:
    """A condition's bindings from the row-at-a-time evaluator, filtered by
    the oracle's binding-by-binding comparisons."""
    atoms = [oracle._to_db_atom(atom.predicate, atom.terms) for atom in condition.atoms]  # noqa: SLF001
    return [
        binding
        for binding in row_oracle.evaluate(ConjunctiveQuery(atoms), oracle.instance.skeleton)
        if all(oracle._comparison_holds(cmp_, binding) for cmp_ in condition.comparisons)  # noqa: SLF001
    ]


def check_instance(instance: Instance) -> None:
    engine = _outcome(lambda: CaRLEngine(instance.database, instance.program))
    if engine[0] == "ok":
        model, bound = engine[1].model, engine[1].instance
        grounder = Grounder(model, bound)
        oracle = grounding_oracle.Grounder(model, bound)
        conditions = [rule.condition for rule in (*model.rules, *model.aggregate_rules)]
        conditions += [query.condition for query in instance.queries]
        for condition in conditions:
            assert _outcome(lambda: list(grounder.condition_bindings(condition))) == _outcome(
                lambda: _row_bindings(oracle, condition)
            )
        # The skeleton is duplicate-free; the key columns as drawn are not,
        # and the binding set over them must still be a set (Definition 3.5).
        keyed = Database("keyed")
        for name in bound.skeleton.table_names:
            keys = list(bound.schema.predicate(name).keys)
            keyed.add_table(instance.database.table(name).project(keys))
        for condition in conditions:
            query = ConjunctiveQuery(
                [oracle._to_db_atom(atom.predicate, atom.terms) for atom in condition.atoms]  # noqa: SLF001
            )
            assert _outcome(lambda: list(query.evaluate(keyed))) == _outcome(
                lambda: row_oracle.evaluate(query, keyed)
            )

        def ground(grounder) -> tuple[Any, ...]:
            graph = grounder.ground()
            return _graph_state(graph, grounder.grounded_attribute_values(graph))

        assert _outcome(lambda: ground(Grounder(model, bound))) == _outcome(
            lambda: ground(grounding_oracle.Grounder(model, bound))
        )
    assert _session(instance, oracle=False) == _session(instance, oracle=True)


HARNESS_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@settings(max_examples=100, **HARNESS_SETTINGS)
@given(instances())
@example(nested_aggregate_instance())
def test_grounder_matches_the_per_binding_oracle(instance):
    check_instance(instance)


@pytest.mark.slow
@settings(max_examples=1000, **HARNESS_SETTINGS)
@given(instances())
@example(nested_aggregate_instance())
def test_grounder_matches_the_per_binding_oracle_thorough(instance):
    check_instance(instance)
