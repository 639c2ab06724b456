"""Unit tests for the relational causal schema and its binding (repro.carl.schema)."""

from __future__ import annotations

import pytest

from repro.carl.errors import SchemaBindingError
from repro.carl.parser import parse_program
from repro.carl.schema import RelationalCausalSchema
from repro.datasets import TOY_REVIEW_PROGRAM, toy_review_database


@pytest.fixture()
def schema() -> RelationalCausalSchema:
    return RelationalCausalSchema.from_program(parse_program(TOY_REVIEW_PROGRAM))


class TestSchema:
    def test_names(self, schema):
        assert set(schema.entity_names) == {"Person", "Submission", "Conference"}
        assert set(schema.relationship_names) == {"Author", "Submitted"}
        assert "Prestige" in schema.attribute_names

    def test_observed_and_latent(self, schema):
        assert "Quality" in schema.latent_attribute_names
        assert "Quality" not in schema.observed_attribute_names
        assert schema.is_observed("Score")
        assert not schema.is_observed("Quality")

    def test_subject_and_column(self, schema):
        assert schema.subject_of("Prestige") == "Person"
        assert schema.attribute_column("Prestige") == "prestige"

    def test_predicate_info_entity(self, schema):
        info = schema.predicate("Person")
        assert info.is_entity
        assert info.keys == ("person",)

    def test_predicate_info_relationship_resolves_entities(self, schema):
        info = schema.predicate("Author")
        assert not info.is_entity
        assert info.referenced_entities == ("Person", "Submission")

    def test_explicit_references_resolve(self):
        program = parse_program(
            "ENTITY Person(person); RELATIONSHIP Collab(a Person, b Person);"
        )
        schema = RelationalCausalSchema.from_program(program)
        info = schema.predicate("Collab")
        assert info.referenced_entities == ("Person", "Person")

    def test_unknown_lookups_raise(self, schema):
        with pytest.raises(SchemaBindingError):
            schema.predicate("Nope")
        with pytest.raises(SchemaBindingError):
            schema.attribute("Nope")

    def test_duplicate_declarations_rejected(self):
        program = parse_program("ENTITY Person(p); ENTITY Person(p);")
        with pytest.raises(SchemaBindingError):
            RelationalCausalSchema.from_program(program)
        program = parse_program("ATTRIBUTE X OF Person; ATTRIBUTE X OF Person;")
        with pytest.raises(SchemaBindingError):
            RelationalCausalSchema.from_program(program)

    def test_unresolvable_relationship_key(self):
        program = parse_program("ENTITY Person(person); RELATIONSHIP Owns(person, thing);")
        schema = RelationalCausalSchema.from_program(program)
        with pytest.raises(SchemaBindingError, match="thing"):
            schema.predicate("Owns")

    def test_attribute_on_unknown_subject_fails_validation(self):
        program = parse_program("ENTITY Person(person); ATTRIBUTE X OF Ghost;")
        schema = RelationalCausalSchema.from_program(program)
        with pytest.raises(SchemaBindingError, match="Ghost"):
            schema.validate()


class TestBoundInstance:
    def test_bind_toy_database(self, schema):
        bound = schema.bind(toy_review_database())
        assert set(bound.skeleton.table_names) == {
            "Person",
            "Submission",
            "Conference",
            "Author",
            "Submitted",
        }
        # Skeleton tables only hold the key columns.
        assert bound.skeleton.table("Person").columns == ("person",)

    def test_units(self, schema):
        bound = schema.bind(toy_review_database())
        assert set(bound.units("Prestige")) == {("Bob",), ("Carlos",), ("Eva",)}
        assert set(bound.units("Score")) == {("s1",), ("s2",), ("s3",)}

    def test_attribute_values(self, schema):
        bound = schema.bind(toy_review_database())

        def value(attribute, key):
            position = bound.unit_index(schema.subject_of(attribute))[key]
            return bound.unit_values(attribute)[position]

        assert value("Prestige", "Bob") == 1
        assert value("Score", "s2") == pytest.approx(0.4)
        assert value("Quality", "s1") is None  # latent
        assert value("Blind", "ConfDB") == "single"

    def test_missing_table_raises(self, schema):
        database = toy_review_database()
        database.drop_table("Submitted")
        with pytest.raises(SchemaBindingError, match="Submitted"):
            schema.bind(database)

    def test_missing_attribute_column_raises(self):
        program = parse_program(
            "ENTITY Person(person); ATTRIBUTE Height OF Person;"
        )
        schema = RelationalCausalSchema.from_program(program)
        with pytest.raises(SchemaBindingError, match="height"):
            schema.bind(toy_review_database())

    def test_missing_key_column_raises(self):
        program = parse_program("ENTITY Person(name); ATTRIBUTE Prestige OF Person;")
        schema = RelationalCausalSchema.from_program(program)
        with pytest.raises(SchemaBindingError, match="name"):
            schema.bind(toy_review_database())
