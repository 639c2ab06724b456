"""Grounding relational causal rules against a relational skeleton.

Definition 3.5 of the paper: a rule ``A[X] <= A1[X1], ..., Ak[Xk] WHERE Q(Y)``
generates one grounded rule per satisfying assignment of the conjunctive
query ``Q`` over the skeleton.  This module evaluates the conditions (atoms
via :class:`~repro.db.query.ConjunctiveQuery`, comparisons against observed
attribute values), instantiates grounded heads and bodies, and assembles the
grounded causal graph.
"""

from __future__ import annotations

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
    node_sort_key,
)
from repro.carl.errors import GroundingError
from repro.carl.model import RelationalCausalModel
from repro.carl.schema import BoundInstance
from repro.db.query import Atom as DbAtom
from repro.db.query import ConjunctiveQuery
from repro.db.query import Variable as DbVariable

Binding = dict[str, Any]


class Grounder:
    """Grounds a relational causal model against a bound instance."""

    def __init__(self, model: RelationalCausalModel, instance: BoundInstance) -> None:
        if model.schema is not instance.schema:
            # Not an error per se, but almost always a bug: the model was
            # validated against a different schema object.
            if model.schema.attribute_names != instance.schema.attribute_names:
                raise GroundingError(
                    "the model and the bound instance use different schemas"
                )
        self.model = model
        self.instance = instance
        #: Number of full :meth:`ground` runs this grounder has performed.
        #: The artifact cache's tests and benchmarks assert warm runs leave
        #: this at zero — grounding work must be loaded, not redone.
        self.ground_count = 0

    # ------------------------------------------------------------------
    # condition evaluation
    # ------------------------------------------------------------------
    def condition_bindings(self, condition: Condition) -> list[Binding]:
        """All satisfying assignments of a rule/query condition."""
        atoms = [self._to_db_atom(atom.predicate, atom.terms) for atom in condition.atoms]
        bindings = ConjunctiveQuery(atoms).evaluate(self.instance.skeleton)
        if condition.comparisons:
            bindings = [
                binding
                for binding in bindings
                if all(self._comparison_holds(cmp_, binding) for cmp_ in condition.comparisons)
            ]
        return bindings

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
        value = self.instance.attribute_value(left.name, key)
        return comparison.evaluate(value)

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
        """Ground every rule of the model and assemble ``G(Phi_Delta)``.

        Nodes are also created for every unit of every declared attribute even
        when no rule mentions it (isolated attribute nodes carry observed
        values that may still serve as covariates).
        """
        self.ground_count += 1
        graph = GroundedCausalGraph()

        # Ensure every grounding of every declared attribute exists as a node.
        for attribute_name in self.model.schema.attribute_names:
            for key in self.instance.units(attribute_name):
                graph.add_node(GroundedAttribute(attribute_name, key))

        for rule in self.model.rules:
            for grounded_rule in self.ground_rule(rule):
                graph.add_grounded_rule(grounded_rule)

        for rule in self.model.aggregate_rules:
            for grounded_rule in self.ground_aggregate_rule(rule):
                graph.add_grounded_rule(grounded_rule, aggregate=rule.aggregate)

        graph.validate_acyclic()
        return graph

    def grounded_attribute_values(
        self, graph: GroundedCausalGraph
    ) -> dict[GroundedAttribute, Any]:
        """Observed values for every grounded node (aggregates are computed).

        Latent attributes are absent from the mapping.  Aggregate nodes are
        evaluated bottom-up from their parents' observed values using the
        aggregate function attached to the node.
        """
        from repro.db.aggregates import aggregate as apply_aggregate

        values: dict[GroundedAttribute, Any] = {}
        for attribute_name in self.model.schema.observed_attribute_names:
            for key, value in self.instance.attribute_values(attribute_name).items():
                node = GroundedAttribute(attribute_name, key)
                if node in graph:
                    values[node] = value

        # Aggregates in topological order so nested aggregates (if any) resolve.
        for node in graph.topological_order():
            aggregate_name = graph.aggregate_of(node)
            if aggregate_name is None:
                continue
            parent_values = [
                values[parent] for parent in graph.parent_nodes(node) if parent in values
            ]
            values[node] = apply_aggregate(aggregate_name, parent_values)
        return values
