"""Unit tests for relational paths, unification and peers (repro.carl.peers)."""

from __future__ import annotations

import pytest

from repro.carl.causal_graph import GroundedAttribute
from repro.carl.errors import QueryError
from repro.carl.grounding import Grounder
from repro.carl.model import RelationalCausalModel
from repro.carl.parser import parse_program
from repro.carl.peers import (
    build_unifying_aggregate_rule,
    compute_peers,
    find_relational_path,
)
from repro.carl.schema import RelationalCausalSchema
from repro.datasets import TOY_REVIEW_PROGRAM, toy_review_database


@pytest.fixture(scope="module")
def toy_schema() -> RelationalCausalSchema:
    return RelationalCausalSchema.from_program(parse_program(TOY_REVIEW_PROGRAM))


@pytest.fixture(scope="module")
def toy_graph():
    program = parse_program(TOY_REVIEW_PROGRAM)
    model = RelationalCausalModel.from_program(program)
    grounder = Grounder(model, model.schema.bind(toy_review_database()))
    return grounder.ground()


class TestRelationalPaths:
    def test_direct_path(self, toy_schema):
        path = find_relational_path(toy_schema, "Person", "Submission")
        assert path == ["Person", "Author", "Submission"]

    def test_two_hop_path(self, toy_schema):
        path = find_relational_path(toy_schema, "Person", "Conference")
        assert path == ["Person", "Author", "Submission", "Submitted", "Conference"]

    def test_same_entity_path(self, toy_schema):
        assert find_relational_path(toy_schema, "Person", "Person") == ["Person"]

    def test_disconnected_entities_raise(self):
        schema = RelationalCausalSchema.from_program(
            parse_program("ENTITY A(a); ENTITY B(b); ATTRIBUTE X OF A; ATTRIBUTE Y OF B;")
        )
        with pytest.raises(QueryError, match="not relationally connected"):
            find_relational_path(schema, "A", "B")


class TestUnifyingAggregateRule:
    def test_score_onto_authors(self, toy_schema):
        rule = build_unifying_aggregate_rule(toy_schema, "Score", "Person", aggregate="AVG")
        assert rule.head.name == "AVG_Score"
        assert rule.body.name == "Score"
        assert [atom.predicate for atom in rule.condition.atoms] == ["Author"]

    def test_blind_onto_authors_uses_two_hops(self, toy_schema):
        rule = build_unifying_aggregate_rule(toy_schema, "Blind", "Person", aggregate="COUNT")
        predicates = [atom.predicate for atom in rule.condition.atoms]
        assert set(predicates) == {"Author", "Submitted"}

    def test_same_subject_still_produces_rule(self, toy_schema):
        rule = build_unifying_aggregate_rule(toy_schema, "Qualification", "Person")
        assert rule.head.name == "AVG_Qualification"
        assert [atom.predicate for atom in rule.condition.atoms] == ["Person"]

    def test_relationship_treatment_subject_rejected(self, toy_schema):
        with pytest.raises(QueryError, match="entity"):
            build_unifying_aggregate_rule(toy_schema, "Score", "Author")


class TestPeers:
    def test_toy_peers_match_paper(self, toy_graph):
        """Section 4.3: P(Bob) = {Eva} and P(Eva) = {Bob, Carlos}."""
        units = [("Bob",), ("Carlos",), ("Eva",)]
        peers = compute_peers(toy_graph, "Prestige", "AVG_Score", units)
        assert set(peers[("Bob",)]) == {("Eva",)}
        assert set(peers[("Eva",)]) == {("Bob",), ("Carlos",)}
        assert set(peers[("Carlos",)]) == {("Eva",)}

    def test_unit_without_response_node_has_no_peers(self, toy_graph):
        peers = compute_peers(toy_graph, "Prestige", "AVG_Score", [("Ghost",)])
        assert peers[("Ghost",)] == []

    def test_peers_restricted_to_unit_set(self, toy_graph):
        peers = compute_peers(toy_graph, "Prestige", "AVG_Score", [("Bob",), ("Eva",)])
        # Carlos is not in the unit set, so Eva's peers shrink to Bob.
        assert set(peers[("Eva",)]) == {("Bob",)}

    def test_treated_units_reaching_a_response(self, toy_graph):
        """The set ``S'`` of Theorem 5.2 for one response node, read off the
        batched walk: every treated unit with a path to it, the unit itself
        included (peers exclude it)."""
        sources = toy_graph.node_ids(
            [GroundedAttribute("Score", ("s1",)), GroundedAttribute("Score", ("zzz",))]
        )
        positions, ancestors = toy_graph.attribute_ancestor_pairs(sources, "Prestige")
        assert positions.tolist() == [0, 0]
        assert {toy_graph.node_at(index).key for index in ancestors.tolist()} == {
            ("Bob",),
            ("Eva",),
        }
