"""Relational causal schema and its binding to a concrete database instance.

Section 3.1 of the paper: a relational causal schema ``S = (P, A)`` consists
of predicates ``P`` (entities and relationships) and attribute functions
``A``, some of which may be unobserved (latent).  A database instance whose
tables correspond to the predicates provides the *relational skeleton* and
the observed values of the attribute functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.carl.ast import (
    AttributeAtom,
    AttributeDeclaration,
    Condition,
    EntityDeclaration,
    Program,
    RelationshipDeclaration,
    Variable,
)
from repro.carl.errors import SchemaBindingError
from repro.db.database import Database


@dataclass(frozen=True)
class PredicateInfo:
    """Resolved metadata for an entity or relationship predicate."""

    name: str
    keys: tuple[str, ...]
    is_entity: bool
    #: For relationships: the entity referenced by each key position.
    referenced_entities: tuple[str, ...] = ()


class RelationalCausalSchema:
    """The declarative schema: entities, relationships, attribute functions."""

    def __init__(
        self,
        entities: list[EntityDeclaration] | None = None,
        relationships: list[RelationshipDeclaration] | None = None,
        attributes: list[AttributeDeclaration] | None = None,
    ) -> None:
        self._entities: dict[str, EntityDeclaration] = {}
        self._relationships: dict[str, RelationshipDeclaration] = {}
        self._attributes: dict[str, AttributeDeclaration] = {}
        for entity in entities or []:
            self.add_entity(entity)
        for relationship in relationships or []:
            self.add_relationship(relationship)
        for attribute in attributes or []:
            self.add_attribute(attribute)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_program(cls, program: Program) -> "RelationalCausalSchema":
        """Build a schema from the declarations of a parsed program."""
        return cls(
            entities=program.entities,
            relationships=program.relationships,
            attributes=program.attributes,
        )

    def add_entity(self, entity: EntityDeclaration) -> None:
        if entity.name in self._entities or entity.name in self._relationships:
            raise SchemaBindingError(f"duplicate predicate declaration {entity.name!r}")
        self._entities[entity.name] = entity

    def add_relationship(self, relationship: RelationshipDeclaration) -> None:
        if relationship.name in self._entities or relationship.name in self._relationships:
            raise SchemaBindingError(f"duplicate predicate declaration {relationship.name!r}")
        self._relationships[relationship.name] = relationship

    def add_attribute(self, attribute: AttributeDeclaration) -> None:
        if attribute.name in self._attributes:
            raise SchemaBindingError(f"duplicate attribute declaration {attribute.name!r}")
        self._attributes[attribute.name] = attribute

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    @property
    def entity_names(self) -> list[str]:
        return list(self._entities)

    @property
    def relationship_names(self) -> list[str]:
        return list(self._relationships)

    @property
    def attribute_names(self) -> list[str]:
        return list(self._attributes)

    @property
    def observed_attribute_names(self) -> list[str]:
        return [name for name, decl in self._attributes.items() if not decl.latent]

    @property
    def latent_attribute_names(self) -> list[str]:
        return [name for name, decl in self._attributes.items() if decl.latent]

    def has_predicate(self, name: str) -> bool:
        return name in self._entities or name in self._relationships

    def has_attribute(self, name: str) -> bool:
        return name in self._attributes

    def attribute(self, name: str) -> AttributeDeclaration:
        try:
            return self._attributes[name]
        except KeyError:
            raise SchemaBindingError(
                f"unknown attribute {name!r}; declared attributes: {sorted(self._attributes)}"
            ) from None

    def is_observed(self, name: str) -> bool:
        return not self.attribute(name).latent

    def subject_of(self, attribute_name: str) -> str:
        """Name of the predicate an attribute function is defined on."""
        return self.attribute(attribute_name).subject

    def predicate(self, name: str) -> PredicateInfo:
        """Resolved predicate info (keys and, for relationships, referenced entities)."""
        if name in self._entities:
            entity = self._entities[name]
            return PredicateInfo(name=name, keys=(entity.key,), is_entity=True)
        if name in self._relationships:
            relationship = self._relationships[name]
            referenced = tuple(
                self._resolve_reference(reference, key, relationship.name)
                for key, reference in zip(relationship.keys, relationship.references)
            )
            return PredicateInfo(
                name=name,
                keys=relationship.keys,
                is_entity=False,
                referenced_entities=referenced,
            )
        raise SchemaBindingError(
            f"unknown predicate {name!r}; declared predicates: "
            f"{sorted(self._entities) + sorted(self._relationships)}"
        )

    def variable_entities(self, condition: Condition) -> dict[str, list[str]]:
        """The entities each variable of ``condition``'s predicate atoms
        ranges over, in first-seen order: an entity atom's variable ranges
        over that entity, and a relationship atom's over the entity its key
        position references.

        Raises :class:`SchemaBindingError` for an unknown predicate or
        attribute, for a predicate atom whose arity is not its predicate's,
        and for a compared attribute atom without one term per key of its
        attribute's subject.
        """
        for comparison in condition.comparisons:
            atom = comparison.left
            if not isinstance(atom, AttributeAtom):
                continue
            subject = self.predicate(self.subject_of(atom.name))
            if len(atom.terms) != len(subject.keys):
                raise SchemaBindingError(
                    f"attribute atom {atom} has arity {len(atom.terms)} but its subject "
                    f"{subject.name!r} has {len(subject.keys)} key(s)"
                )
        entities: dict[str, list[str]] = {}
        for atom in condition.atoms:
            info = self.predicate(atom.predicate)
            if len(atom.terms) != len(info.keys):
                raise SchemaBindingError(
                    f"atom {atom} has arity {len(atom.terms)} but predicate "
                    f"{atom.predicate!r} has {len(info.keys)} key(s)"
                )
            for position, term in enumerate(atom.terms):
                if not isinstance(term, Variable):
                    continue
                entity = info.name if info.is_entity else info.referenced_entities[position]
                ranges = entities.setdefault(term.name, [])
                if entity not in ranges:
                    ranges.append(entity)
        return entities

    def _resolve_reference(
        self, reference: str | None, key: str, relationship_name: str
    ) -> str:
        """Entity referenced by one relationship position (explicit or by convention)."""
        if reference is not None:
            if reference not in self._entities:
                raise SchemaBindingError(
                    f"relationship {relationship_name!r} references unknown entity {reference!r}"
                )
            return reference
        return self._entity_for_key(key, relationship_name)

    def _entity_for_key(self, key: str, relationship_name: str) -> str:
        """Entity whose key column matches ``key`` (the naming convention)."""
        matches = [name for name, entity in self._entities.items() if entity.key == key]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise SchemaBindingError(
                f"relationship {relationship_name!r} argument {key!r} does not match "
                "the key column of any declared entity"
            )
        raise SchemaBindingError(
            f"relationship {relationship_name!r} argument {key!r} is ambiguous: "
            f"entities {sorted(matches)} share that key column name"
        )

    def attribute_column(self, attribute_name: str) -> str:
        """Column of the subject's table that stores the attribute values."""
        declaration = self.attribute(attribute_name)
        return declaration.column or attribute_name.lower()

    def validate(self) -> None:
        """Cross-check declarations (subjects exist, relationship keys resolve)."""
        for name in self._relationships:
            self.predicate(name)
        for attribute in self._attributes.values():
            if not self.has_predicate(attribute.subject):
                raise SchemaBindingError(
                    f"attribute {attribute.name!r} is declared on unknown predicate "
                    f"{attribute.subject!r}"
                )

    # ------------------------------------------------------------------
    # binding to data
    # ------------------------------------------------------------------
    def bind(self, database: Database) -> "BoundInstance":
        """Bind the schema to a database instance, validating the mapping."""
        self.validate()
        return BoundInstance(self, database)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RelationalCausalSchema(entities={self.entity_names}, "
            f"relationships={self.relationship_names}, attributes={self.attribute_names})"
        )


class BoundInstance:
    """A relational causal schema bound to an observed database instance.

    Provides the two things grounding needs: the *relational skeleton* (a
    database of key-only views, one per predicate, used to evaluate rule
    conditions) and observed attribute-function lookups ``A[x]``.
    """

    def __init__(self, schema: RelationalCausalSchema, database: Database) -> None:
        self.schema = schema
        self.database = database
        self._attribute_values: dict[str, dict[tuple[Any, ...], Any]] = {}
        self._units: dict[str, list[tuple[Any, ...]]] = {}
        self._validate_mapping()
        self.skeleton = self._build_skeleton()

    # ------------------------------------------------------------------
    # validation / construction
    # ------------------------------------------------------------------
    def _validate_mapping(self) -> None:
        for predicate_name in (
            self.schema.entity_names + self.schema.relationship_names
        ):
            info = self.schema.predicate(predicate_name)
            if predicate_name not in self.database:
                raise SchemaBindingError(
                    f"predicate {predicate_name!r} has no table in database "
                    f"{self.database.name!r}"
                )
            table = self.database.table(predicate_name)
            for key in info.keys:
                if key not in table.columns:
                    raise SchemaBindingError(
                        f"table {predicate_name!r} is missing key column {key!r}"
                    )
        for attribute_name in self.schema.attribute_names:
            declaration = self.schema.attribute(attribute_name)
            if declaration.latent:
                continue
            table = self.database.table(declaration.subject)
            column = self.schema.attribute_column(attribute_name)
            if column not in table.columns:
                raise SchemaBindingError(
                    f"observed attribute {attribute_name!r} maps to column {column!r} "
                    f"which does not exist in table {declaration.subject!r}"
                )

    def _build_skeleton(self) -> Database:
        """Key-only projections of the predicate tables (the relational skeleton)."""
        skeleton = Database(name=f"{self.database.name}_skeleton")
        for predicate_name in self.schema.entity_names + self.schema.relationship_names:
            info = self.schema.predicate(predicate_name)
            table = self.database.table(predicate_name)
            view = table.project(list(info.keys), distinct=True)
            if view.name != predicate_name:  # pragma: no cover - project keeps the name
                view = view.rename({}, name=predicate_name)
            skeleton.add_table(view)
        return skeleton

    # ------------------------------------------------------------------
    # units and attribute values
    # ------------------------------------------------------------------
    def units(self, attribute_name: str) -> list[tuple[Any, ...]]:
        """All grounded key tuples of the attribute's subject predicate (``U_A``)."""
        subject = self.schema.subject_of(attribute_name)
        if subject not in self._units:
            info = self.schema.predicate(subject)
            table = self.database.table(subject)
            seen: dict[tuple[Any, ...], None] = {}
            for row in table.rows():
                seen.setdefault(tuple(row[key] for key in info.keys), None)
            self._units[subject] = list(seen)
        return self._units[subject]

    def attribute_value(self, attribute_name: str, key: tuple[Any, ...]) -> Any:
        """Observed value of ``attribute_name[key]``; None for latent attributes."""
        declaration = self.schema.attribute(attribute_name)
        if declaration.latent:
            return None
        values = self._attribute_index(attribute_name)
        return values.get(tuple(key))

    def attribute_values(self, attribute_name: str) -> dict[tuple[Any, ...], Any]:
        """Mapping from unit key to observed value for one attribute."""
        declaration = self.schema.attribute(attribute_name)
        if declaration.latent:
            return {}
        return dict(self._attribute_index(attribute_name))

    def _attribute_index(self, attribute_name: str) -> dict[tuple[Any, ...], Any]:
        if attribute_name not in self._attribute_values:
            declaration = self.schema.attribute(attribute_name)
            info = self.schema.predicate(declaration.subject)
            column = self.schema.attribute_column(attribute_name)
            table = self.database.table(declaration.subject)
            index: dict[tuple[Any, ...], Any] = {}
            for row in table.rows():
                index[tuple(row[key] for key in info.keys)] = row[column]
            self._attribute_values[attribute_name] = index
        return self._attribute_values[attribute_name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BoundInstance(schema={self.schema!r}, database={self.database.name!r})"
