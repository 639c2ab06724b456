"""Per-binding reference grounder: the oracle the grounding tests compare against.

:class:`repro.carl.grounding.Grounder` grounds a rule from column arrays:
its condition evaluates to one column per variable, each atom maps to node
ids by lookup, and every rule's (parent, child) id arrays compile in one
CSR build.  This module keeps the straight transcription of Definition 3.5
that it replaced, for tests and benchmarks only:

* :meth:`Grounder.condition_bindings` — one dict per satisfying assignment,
  filtered by evaluating every comparison binding by binding;
* :meth:`Grounder.ground_rule` / :meth:`Grounder.ground_aggregate_rule` —
  one grounded head per distinct head, its body a ``set`` sorted by
  ``node_sort_key``;
* :meth:`Grounder.ground` — every declared attribute's units interned
  first, then each rule's grounded heads and bodies added node by node
  through :meth:`GroundedCausalGraph.add_grounded_rule`;
* :meth:`Grounder.grounded_attribute_values` — observed values node by
  node, aggregates in a full topological order, each head by
  :func:`aggregate_head_value`;
* :meth:`Grounder.extend` — aggregate rules the program does not declare
  added node by node to a copy of a grounding's graph, its new heads valued
  one by one.  The engine never grounds such a rule: it evaluates a
  unifying aggregate into a relation (``CaRLEngine._units``), and
  ``tests/test_unifying_relation.py`` holds that relation to this splice.

An engine can run on either grounder (the harness in
``tests/test_grounding_harness.py`` swaps this one in to compare answers).

Units and observed values are read row by row from the subject tables, as
the bound instance once did, so the oracle shares no column reader with the
code it checks.  Never "fix" a parity failure by changing this module unless
the specification itself is wrong.
"""

from __future__ import annotations

from collections.abc import Container, Mapping
from typing import Any

from repro.carl.ast import (
    AggregateRule,
    AttributeAtom,
    CausalRule,
    Comparison,
    Condition,
    Variable,
)
from repro.carl.causal_graph import (
    GroundedAttribute,
    GroundedCausalGraph,
    GroundedRule,
    NodeValues,
    node_sort_key,
)
from repro.carl.errors import GroundingError
from repro.carl.grounding import Grounding
from repro.db.aggregates import aggregate as apply_aggregate
from repro.carl.model import RelationalCausalModel
from repro.carl.schema import BoundInstance
from repro.db.query import Atom as DbAtom
from repro.db.query import Bindings, ConjunctiveQuery
from repro.db.query import Variable as DbVariable

Binding = dict[str, Any]


def aggregate_head_value(
    graph: GroundedCausalGraph,
    values: Mapping[GroundedAttribute, Any],
    head: GroundedAttribute,
    allowed: Container[Any] | None = None,
) -> Any:
    """The value of aggregate node ``head``, one head at a time: its
    aggregate over the parents that carry a value (not None), or None when
    none does.  ``allowed``, when given, admits only the parents whose
    one-component key it contains (a query's WHERE clause on the aggregated
    attribute's entity).  :func:`repro.carl.grounding.head_values` values
    many heads at once by this rule."""
    parent_values = [
        values[parent]
        for parent in graph.parent_nodes(head)
        if values.get(parent) is not None and (allowed is None or parent.key[0] in allowed)
    ]
    if not parent_values:
        return None
    return apply_aggregate(graph.aggregate_of(head), parent_values)


def units(instance: BoundInstance, attribute_name: str) -> list[tuple[Any, ...]]:
    """``U_A``: the distinct key tuples of the attribute's subject table, in
    first-occurrence order, read one row at a time."""
    info = instance.schema.predicate(instance.schema.subject_of(attribute_name))
    seen: dict[tuple[Any, ...], None] = {}
    for row in instance.database.table(info.name).rows():
        seen.setdefault(tuple(row[key] for key in info.keys), None)
    return list(seen)


def attribute_values(instance: BoundInstance, attribute_name: str) -> dict[tuple[Any, ...], Any]:
    """Unit key -> observed value (the last row wins); empty when latent."""
    declaration = instance.schema.attribute(attribute_name)
    if declaration.latent:
        return {}
    info = instance.schema.predicate(declaration.subject)
    column = instance.schema.attribute_column(attribute_name)
    index: dict[tuple[Any, ...], Any] = {}
    for row in instance.database.table(declaration.subject).rows():
        index[tuple(row[key] for key in info.keys)] = row[column]
    return index


class Grounder:
    """Grounds a relational causal model one binding at a time."""

    def __init__(self, model: RelationalCausalModel, instance: BoundInstance) -> None:
        self.model = model
        self.instance = instance
        self._values: dict[str, dict[tuple[Any, ...], Any]] = {}

    # ------------------------------------------------------------------
    # condition evaluation
    # ------------------------------------------------------------------
    def condition_bindings(self, condition: Condition) -> Bindings:
        """All satisfying assignments of a rule/query condition, filtered one
        dict at a time (returned in the container the engine reads)."""
        atoms = [self._to_db_atom(atom.predicate, atom.terms) for atom in condition.atoms]
        query = ConjunctiveQuery(atoms)
        bindings: list[Binding] = list(query.evaluate(self.instance.skeleton))
        if condition.comparisons:
            bindings = [
                binding
                for binding in bindings
                if all(self._comparison_holds(cmp_, binding) for cmp_ in condition.comparisons)
            ]
        names = [variable.name for variable in query.variables]
        return Bindings(
            {name: [binding[name] for binding in bindings] for name in names}, len(bindings)
        )

    def _to_db_atom(self, predicate: str, terms: tuple[Any, ...]) -> DbAtom:
        info = self.instance.schema.predicate(predicate)
        if len(terms) != len(info.keys):
            raise GroundingError(
                f"atom {predicate}({', '.join(map(str, terms))}) has arity {len(terms)} but "
                f"predicate {predicate!r} has {len(info.keys)} key(s)"
            )
        converted = tuple(
            DbVariable(term.name) if isinstance(term, Variable) else term for term in terms
        )
        return DbAtom(predicate=predicate, terms=converted)

    def _comparison_holds(self, comparison: Comparison, binding: Binding) -> bool:
        left = comparison.left
        if isinstance(left, Variable):
            if left.name not in binding:
                raise GroundingError(
                    f"comparison {comparison} uses unbound variable {left.name!r}"
                )
            return comparison.evaluate(binding[left.name])
        # Attribute comparison, e.g. Blind[C] = "single".
        key = self._ground_key(left, binding)
        if left.name not in self._values:
            self._values[left.name] = attribute_values(self.instance, left.name)
        return comparison.evaluate(self._values[left.name].get(key))

    def atom_ids(
        self, graph: GroundedCausalGraph, atom: AttributeAtom, bindings: Bindings
    ) -> Any:
        """Each binding's node id of ``atom`` in ``graph`` (-1 for none),
        looked up one binding at a time."""
        return graph.node_ids(
            GroundedAttribute(atom.name, self._ground_key(atom, binding)) for binding in bindings
        )

    def _ground_key(self, atom: AttributeAtom, binding: Binding) -> tuple[Any, ...]:
        key = []
        for term in atom.terms:
            if isinstance(term, Variable):
                if term.name not in binding:
                    raise GroundingError(
                        f"variable {term.name!r} of atom {atom} is not bound by the condition"
                    )
                key.append(binding[term.name])
            else:
                key.append(term)
        return tuple(key)

    # ------------------------------------------------------------------
    # rule grounding
    # ------------------------------------------------------------------
    def ground_rule(self, rule: CausalRule) -> list[GroundedRule]:
        """All groundings of one relational causal rule."""
        grounded: dict[GroundedAttribute, set[GroundedAttribute]] = {}
        for binding in self.condition_bindings(rule.condition):
            head = GroundedAttribute(rule.head.name, self._ground_key(rule.head, binding))
            body = tuple(
                GroundedAttribute(atom.name, self._ground_key(atom, binding))
                for atom in rule.body
            )
            grounded.setdefault(head, set()).update(body)
        return [
            GroundedRule(head=head, body=tuple(sorted(body, key=node_sort_key)))
            for head, body in grounded.items()
        ]

    def ground_aggregate_rule(self, rule: AggregateRule) -> list[GroundedRule]:
        """All groundings of one aggregate rule (head nodes are aggregate nodes)."""
        grounded: dict[GroundedAttribute, set[GroundedAttribute]] = {}
        for binding in self.condition_bindings(rule.condition):
            head = GroundedAttribute(rule.head.name, self._ground_key(rule.head, binding))
            parent = GroundedAttribute(rule.body.name, self._ground_key(rule.body, binding))
            grounded.setdefault(head, set()).add(parent)
        return [
            GroundedRule(head=head, body=tuple(sorted(body, key=node_sort_key)))
            for head, body in grounded.items()
        ]

    # ------------------------------------------------------------------
    # graph assembly
    # ------------------------------------------------------------------
    def ground(self) -> GroundedCausalGraph:
        """Ground every rule of the model and assemble ``G(Phi_Delta)``."""
        graph = GroundedCausalGraph()
        for attribute_name in self.model.schema.attribute_names:
            for key in units(self.instance, attribute_name):
                graph.add_node(GroundedAttribute(attribute_name, key))
        for rule in self.model.rules:
            for grounded_rule in self.ground_rule(rule):
                graph.add_grounded_rule(grounded_rule)
        for rule in self.model.aggregate_rules:
            for grounded_rule in self.ground_aggregate_rule(rule):
                graph.add_grounded_rule(grounded_rule, aggregate=rule.aggregate)
        graph.validate_acyclic()
        return graph

    def grounded_attribute_values(self, graph: GroundedCausalGraph) -> NodeValues:
        """Observed values for every grounded node (aggregates are computed),
        node by node into a dict, handed out in the column form the engine
        reads."""
        values: dict[GroundedAttribute, Any] = {}
        for attribute_name in self.model.schema.observed_attribute_names:
            for key, value in attribute_values(self.instance, attribute_name).items():
                node = GroundedAttribute(attribute_name, key)
                if node in graph:
                    values[node] = value
        for node in graph.topological_order():
            if graph.is_aggregate(node):
                values[node] = aggregate_head_value(graph, values, node)
        return NodeValues.from_mapping(graph, values)

    def extend(self, grounding: Grounding, rules: list[AggregateRule]) -> Grounding:
        """``grounding`` plus the aggregate ``rules``: their grounded rules
        added to a copy of its graph, which recompiles through the
        incremental ``csr()``, and each new head valued from its parents."""
        graph = grounding.graph.copy()
        heads: list[GroundedAttribute] = []
        for rule in rules:
            for grounded_rule in self.ground_aggregate_rule(rule):
                graph.add_grounded_rule(grounded_rule, aggregate=rule.aggregate)
                heads.append(grounded_rule.head)
        graph.csr()
        values = dict(grounding.values)
        for head in heads:
            values[head] = aggregate_head_value(graph, values, head)
        return Grounding(graph, NodeValues.from_mapping(graph, values), grounding.db_token)
