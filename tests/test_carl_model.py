"""Unit tests for the relational causal model (repro.carl.model)."""

from __future__ import annotations

import pytest

from repro.carl.errors import ModelError
from repro.carl.model import RelationalCausalModel
from repro.carl.parser import parse_program, parse_rule
from repro.carl.schema import RelationalCausalSchema
from repro.datasets import TOY_REVIEW_PROGRAM


@pytest.fixture()
def toy_model() -> RelationalCausalModel:
    program = parse_program(TOY_REVIEW_PROGRAM)
    return RelationalCausalModel.from_program(program)


class TestValidation:
    def test_toy_model_loads(self, toy_model):
        assert len(toy_model.rules) == 4
        assert len(toy_model.aggregate_rules) == 1

    def test_unknown_attribute_in_rule(self):
        schema = RelationalCausalSchema.from_program(parse_program(TOY_REVIEW_PROGRAM))
        model = RelationalCausalModel(schema)
        with pytest.raises(ModelError, match="Fame"):
            model.add_rule(parse_rule("Fame[A] <= Qualification[A] WHERE Person(A)"))

    def test_arity_mismatch(self):
        schema = RelationalCausalSchema.from_program(parse_program(TOY_REVIEW_PROGRAM))
        model = RelationalCausalModel(schema)
        with pytest.raises(ModelError, match="argument"):
            model.add_rule(parse_rule("Prestige[A, B] <= Qualification[A] WHERE Person(A), Person(B)"))

    def test_unsafe_rule_rejected(self):
        schema = RelationalCausalSchema.from_program(parse_program(TOY_REVIEW_PROGRAM))
        model = RelationalCausalModel(schema)
        with pytest.raises(ModelError, match="unsafe"):
            model.add_rule(parse_rule("Score[S] <= Prestige[A] WHERE Person(A)"))

    def test_recursive_rule_rejected(self):
        schema = RelationalCausalSchema.from_program(parse_program(TOY_REVIEW_PROGRAM))
        model = RelationalCausalModel(schema)
        with pytest.raises(ModelError, match="recursive"):
            model.add_rule(parse_rule("Score[S] <= Score[S2] WHERE Author(A, S), Author(A, S2)"))

    def test_attribute_level_cycle_rejected(self):
        schema = RelationalCausalSchema.from_program(parse_program(TOY_REVIEW_PROGRAM))
        model = RelationalCausalModel(schema)
        model.add_rule(parse_rule("Prestige[A] <= Qualification[A] WHERE Person(A)"))
        with pytest.raises(ModelError):
            model.add_rule(parse_rule("Qualification[A] <= Prestige[A] WHERE Person(A)"))

    def test_derived_attribute_cannot_be_rule_head(self, toy_model):
        with pytest.raises(ModelError, match="derived"):
            toy_model.add_rule(parse_rule("AVG_Score[A] <= Prestige[A] WHERE Person(A)"))


class TestImplicitConditions:
    def test_shorthand_rule_gets_subject_atoms(self):
        # The paper's NIS rules are written without WHERE; the implicit
        # condition grounds over the subject predicates.
        program = parse_program(
            """
            ENTITY Admission(adm);
            ATTRIBUTE Bill OF Admission;
            ATTRIBUTE Severity OF Admission;
            Bill[P] <= Severity[P];
            """
        )
        model = RelationalCausalModel.from_program(program)
        condition = model.rules[0].condition
        assert [atom.predicate for atom in condition.atoms] == ["Admission"]
        assert not condition.is_trivial


class TestDerivedAttributes:
    def test_aggregate_rule_registers_derived(self, toy_model):
        derived = toy_model.derived_attributes["AVG_Score"]
        assert derived.aggregate == "AVG"
        assert derived.base == "Score"
        assert derived.subject == "Person"
        assert toy_model.is_derived("AVG_Score")
        assert toy_model.subject_of("AVG_Score") == "Person"
        assert toy_model.is_observed("AVG_Score")

    def test_aggregate_over_latent_is_unobserved(self):
        program = parse_program(
            TOY_REVIEW_PROGRAM + "\nAVG_Quality[A] <= Quality[S] WHERE Author(A, S);"
        )
        model = RelationalCausalModel.from_program(program)
        assert not model.is_observed("AVG_Quality")

    def test_conflicting_derived_definitions_rejected(self, toy_model):
        with pytest.raises(ModelError, match="conflicting"):
            toy_model.add_aggregate_rule(
                parse_rule("AVG_Score[C] <= Score[S] WHERE Submitted(S, C)")
            )

    def test_aggregate_head_subject_inference_failure(self):
        schema = RelationalCausalSchema.from_program(parse_program(TOY_REVIEW_PROGRAM))
        model = RelationalCausalModel(schema)
        with pytest.raises(ModelError, match="not bound"):
            model.add_aggregate_rule(parse_rule("AVG_Score[Z] <= Score[S] WHERE Submission(S)"))


class TestDependencyGraph:
    def test_attribute_dependency_graph(self, toy_model):
        edges = toy_model.attribute_dependency_edges()
        assert ("Qualification", "Prestige") in edges
        assert ("Quality", "Score") in edges
        assert ("Score", "AVG_Score") in edges
        assert len(edges) == len(set(edges))

    def test_rules_with_head(self, toy_model):
        score_rules = toy_model.rules_with_head("Score")
        assert len(score_rules) == 2
        assert toy_model.rules_with_head("Qualification") == []
