"""The relational causal model: a validated collection of CaRL rules.

A relational causal model (Section 3.2) is the set of relational causal rules
and aggregate rules the analyst writes down as background knowledge.  This
module validates the rules against a :class:`RelationalCausalSchema`
(attribute names and arities, variable safety), derives implicit conditions
for the paper's shorthand rules written without a ``WHERE`` clause, registers
derived (aggregated) attributes, and checks that the model is non-recursive
at the attribute level so the grounded graph is guaranteed to be a DAG.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.carl.ast import (
    AggregateRule,
    AttributeAtom,
    CausalRule,
    Condition,
    PredicateAtom,
    Program,
    Variable,
)
from repro.carl.errors import ModelError
from repro.carl.schema import RelationalCausalSchema
from repro.graph.csr import CSRGraph, CycleError


@dataclass(frozen=True)
class DerivedAttribute:
    """An aggregated attribute introduced by an aggregate rule.

    ``name`` is the head attribute (e.g. ``AVG_Score``), ``aggregate`` the
    aggregate function keyword, ``base`` the attribute being aggregated and
    ``subject`` the predicate the derived attribute is a function of.
    """

    name: str
    aggregate: str
    base: str
    subject: str


class RelationalCausalModel:
    """Rules + aggregate rules validated against a schema."""

    def __init__(
        self,
        schema: RelationalCausalSchema,
        rules: list[CausalRule] | None = None,
        aggregate_rules: list[AggregateRule] | None = None,
    ) -> None:
        self.schema = schema
        self.rules: list[CausalRule] = []
        self.aggregate_rules: list[AggregateRule] = []
        self._derived: dict[str, DerivedAttribute] = {}
        for rule in rules or []:
            self.add_rule(rule)
        for rule in aggregate_rules or []:
            self.add_aggregate_rule(rule)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_program(cls, program: Program, schema: RelationalCausalSchema | None = None) -> "RelationalCausalModel":
        """Build a model (and, unless given, a schema) from a parsed program."""
        schema = schema or RelationalCausalSchema.from_program(program)
        return cls(schema, rules=program.rules, aggregate_rules=program.aggregate_rules)

    def add_rule(self, rule: CausalRule) -> CausalRule:
        """Validate and register a relational causal rule (with implicit condition)."""
        if isinstance(rule, AggregateRule):
            raise ModelError(
                f"rule {rule} defines a derived (aggregated) attribute; "
                "register it with add_aggregate_rule instead"
            )
        rule = CausalRule(
            head=rule.head,
            body=rule.body,
            condition=self._effective_condition(rule.head, rule.body, rule.condition),
        )
        self._validate_atom(rule.head, allow_derived=False)
        for atom in rule.body:
            self._validate_atom(atom, allow_derived=True)
        self.schema.variable_entities(rule.condition)
        self._validate_safety(rule)
        self.rules.append(rule)
        self._check_non_recursive()
        return rule

    def add_aggregate_rule(self, rule: AggregateRule) -> AggregateRule:
        """Validate and register an aggregate rule, declaring its derived attribute."""
        rule = AggregateRule(
            aggregate=rule.aggregate,
            head=rule.head,
            body=rule.body,
            condition=self._effective_condition(rule.head, (rule.body,), rule.condition, skip_head=True),
        )
        self._validate_atom(rule.body, allow_derived=True)
        if len(rule.head.terms) != 1:
            raise ModelError(
                f"aggregate rule head {rule.head} must have exactly one unit variable"
            )
        subject = self._infer_subject(rule.head, rule.condition)
        derived = DerivedAttribute(
            name=rule.head.name,
            aggregate=rule.aggregate,
            base=rule.body.name,
            subject=subject,
        )
        existing = self._derived.get(rule.head.name)
        if existing is not None and existing != derived:
            raise ModelError(
                f"conflicting definitions for derived attribute {rule.head.name!r}"
            )
        self._derived[rule.head.name] = derived
        self._validate_safety(rule)
        self.aggregate_rules.append(rule)
        self._check_non_recursive()
        return rule

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    @property
    def derived_attributes(self) -> dict[str, DerivedAttribute]:
        return dict(self._derived)

    def is_derived(self, attribute_name: str) -> bool:
        return attribute_name in self._derived

    def subject_of(self, attribute_name: str) -> str:
        """Subject predicate of a declared or derived attribute."""
        if attribute_name in self._derived:
            return self._derived[attribute_name].subject
        return self.schema.subject_of(attribute_name)

    def is_observed(self, attribute_name: str) -> bool:
        """Derived attributes are observed iff their base attribute is observed."""
        if attribute_name in self._derived:
            return self.schema.is_observed(self._derived[attribute_name].base)
        return self.schema.is_observed(attribute_name)

    def rules_with_head(self, attribute_name: str) -> list[CausalRule]:
        """The rule set ``phi_A`` of the paper: rules whose head is ``attribute_name``."""
        return [rule for rule in self.rules if rule.head.name == attribute_name]

    def attribute_dependency_edges(self) -> list[tuple[str, str]]:
        """Attribute-level dependencies: ``(B, A)`` when some rule derives A
        from B.  Deduplicated, in rule order."""
        edges = [
            (atom.name, rule.head.name)
            for rule in self.rules
            for atom in rule.body
            if atom.name != rule.head.name
        ]
        edges += [
            (rule.body.name, rule.head.name)
            for rule in self.aggregate_rules
            if rule.body.name != rule.head.name
        ]
        return list(dict.fromkeys(edges))

    # ------------------------------------------------------------------
    # validation helpers
    # ------------------------------------------------------------------
    def _effective_condition(
        self,
        head: AttributeAtom,
        body: tuple[AttributeAtom, ...],
        condition: Condition,
        skip_head: bool = False,
    ) -> Condition:
        """Fill in the implicit condition of shorthand rules without WHERE.

        Following the paper's own shorthand (the NIS rules in Section 6.1 are
        written without conditions), a missing condition is taken to be the
        conjunction of the subject predicates of the head and body attributes,
        applied to the rule's variables.
        """
        if not condition.is_trivial:
            return condition
        atoms: list[PredicateAtom] = []
        seen: set[tuple[str, tuple[str, ...]]] = set()
        atom_sources = body if skip_head else (head, *body)
        for atom in atom_sources:
            subject = self._subject_for_validation(atom.name)
            if subject is None:
                continue
            signature = (subject, tuple(str(term) for term in atom.terms))
            if signature in seen:
                continue
            seen.add(signature)
            atoms.append(PredicateAtom(predicate=subject, terms=atom.terms))
        return Condition(atoms=tuple(atoms))

    def _subject_for_validation(self, attribute_name: str) -> str | None:
        if attribute_name in self._derived:
            return self._derived[attribute_name].subject
        if self.schema.has_attribute(attribute_name):
            return self.schema.subject_of(attribute_name)
        return None

    def _validate_atom(self, atom: AttributeAtom, allow_derived: bool) -> None:
        if atom.name in self._derived:
            if not allow_derived:
                raise ModelError(
                    f"derived attribute {atom.name!r} cannot appear in the head of a causal rule"
                )
            return
        if not self.schema.has_attribute(atom.name):
            raise ModelError(
                f"attribute {atom.name!r} used in a rule is not declared in the schema"
            )
        subject = self.schema.predicate(self.schema.subject_of(atom.name))
        if len(atom.terms) != len(subject.keys):
            raise ModelError(
                f"attribute atom {atom} has {len(atom.terms)} argument(s) but its subject "
                f"{subject.name!r} has {len(subject.keys)} key column(s)"
            )

    def _validate_safety(self, rule: CausalRule | AggregateRule) -> None:
        """Every variable of the head and body must occur in the condition."""
        condition_variables = {variable.name for variable in rule.condition.variables}
        body_atoms = rule.body if isinstance(rule, CausalRule) else (rule.body,)
        for atom in (rule.head, *body_atoms):
            for term in atom.terms:
                if isinstance(term, Variable) and term.name not in condition_variables:
                    raise ModelError(
                        f"unsafe rule {rule}: variable {term.name!r} does not occur in the "
                        "WHERE condition"
                    )

    def _infer_subject(self, head: AttributeAtom, condition: Condition) -> str:
        """Subject predicate of an aggregate rule head, inferred from the condition."""
        term = head.terms[0]
        if not isinstance(term, Variable):
            raise ModelError(f"aggregate rule head {head} must use a variable, not a constant")
        unique = self.schema.variable_entities(condition).get(term.name, [])
        if not unique:
            raise ModelError(
                f"cannot infer the subject of aggregated attribute {head.name!r}: variable "
                f"{term.name!r} is not bound by the rule condition"
            )
        if len(unique) > 1:
            raise ModelError(
                f"ambiguous subject for aggregated attribute {head.name!r}: variable "
                f"{term.name!r} refers to entities {unique}"
            )
        return unique[0]

    def _check_non_recursive(self) -> None:
        for rule in self.rules:
            if any(atom.name == rule.head.name for atom in rule.body):
                raise ModelError(
                    f"recursive rule {rule}: the head attribute also appears in the body; "
                    "recursive rules are outside the scope of CaRL"
                )
        for rule in self.aggregate_rules:
            if rule.body.name == rule.head.name:
                raise ModelError(f"recursive aggregate rule {rule}")
        edges = self.attribute_dependency_edges()
        ids: dict[str, int] = {}
        for edge in edges:
            for name in edge:
                ids.setdefault(name, len(ids))
        graph = CSRGraph.from_edges(
            len(ids), [ids[parent] for parent, _ in edges], [ids[child] for _, child in edges]
        )
        try:
            graph.topological_order()
        except CycleError as error:
            raise ModelError(
                "the relational causal model is recursive (attribute-level dependency cycle); "
                "recursive rules are outside the scope of CaRL"
            ) from error

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RelationalCausalModel(rules={len(self.rules)}, "
            f"aggregate_rules={len(self.aggregate_rules)})"
        )
