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

import numpy as np

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
from repro.db.query import first_codes


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
    conditions) and the attribute functions ``A[x]`` as columns: the units
    of each attribute (:meth:`units`, :meth:`unit_index`) and their observed
    values (:meth:`unit_values`).
    """

    def __init__(self, schema: RelationalCausalSchema, database: Database) -> None:
        self.schema = schema
        self.database = database
        self._unit_values: dict[str, list[Any]] = {}
        #: subject -> (units, unit index, unit position of every table row)
        self._units: dict[
            str, tuple[list[tuple[Any, ...]], dict[Any, int], np.ndarray | None]
        ] = {}
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
        """All grounded key tuples of the attribute's subject predicate
        (``U_A``), in first-occurrence order over the subject's table."""
        return self._subject_units(self.schema.subject_of(attribute_name))[0]

    def unit_index(self, subject: str) -> dict[Any, int]:
        """Position in :meth:`units` of every unit key of ``subject``.

        A one-key subject is indexed by the bare key value, a compound one by
        its key tuple; either way lookups keep Python's key equality (``1``,
        ``1.0`` and ``True`` are one key, a NaN object matches only itself).
        """
        return self._subject_units(subject)[1]

    def unit_values(self, attribute_name: str) -> list[Any]:
        """The observed value of every unit of :meth:`units`, in that order
        (the last row wins for a duplicated key); all None when latent."""
        values = self._unit_values.get(attribute_name)
        if values is None:
            units, _, row_units = self._subject_units(self.schema.subject_of(attribute_name))
            declaration = self.schema.attribute(attribute_name)
            if declaration.latent:
                values = [None] * len(units)
            else:
                table = self.database.table(declaration.subject)
                column = table._column_list(self.schema.attribute_column(attribute_name))  # noqa: SLF001
                if row_units is None:
                    values = list(column)  # every row is its own unit, in order
                else:
                    # Units are numbered in first-occurrence order, so a dict
                    # keyed by unit lists them in order; the last row wins.
                    values = list(dict(zip(row_units.tolist(), column)).values())
            self._unit_values[attribute_name] = values
        return values

    def _subject_units(
        self, subject: str
    ) -> tuple[list[tuple[Any, ...]], dict[Any, int], np.ndarray | None]:
        """``(units, unit index, unit position of each table row)`` of one
        subject predicate, read from its key columns; the row positions are
        None when no key repeats (row ``i`` is unit ``i``)."""
        entry = self._units.get(subject)
        if entry is None:
            info = self.schema.predicate(subject)
            table = self.database.table(subject)
            columns = [table._column_list(key) for key in info.keys]  # noqa: SLF001
            keys: list[Any] = columns[0] if len(columns) == 1 else list(zip(*columns))
            row_units, first_row, _ = first_codes(keys)
            units = list(first_row) if len(columns) > 1 else list(zip(first_row))
            if len(first_row) == len(keys):
                entry = (units, first_row, None)
            else:
                entry = (units, dict(zip(first_row, range(len(first_row)))), row_units)
            self._units[subject] = entry
        return entry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BoundInstance(schema={self.schema!r}, database={self.database.name!r})"
