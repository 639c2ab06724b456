"""Unit tests for grounding (repro.carl.grounding) against the Figure 2 toy data.

The expected grounded rules are spelled out in Example 3.6 of the paper; the
resulting graph is Figure 4, and its extension with AVG_Score nodes is
Figure 5.
"""

from __future__ import annotations

import pytest

from repro.carl.causal_graph import GroundedAttribute, GroundedCausalGraph
from repro.carl.grounding import Grounder
from repro.carl.model import RelationalCausalModel
from repro.carl.parser import parse_program, parse_rule
from repro.datasets import TOY_REVIEW_PROGRAM, toy_review_database


@pytest.fixture(scope="module")
def grounder() -> Grounder:
    program = parse_program(TOY_REVIEW_PROGRAM)
    model = RelationalCausalModel.from_program(program)
    instance = model.schema.bind(toy_review_database())
    return Grounder(model, instance)


def node(attribute: str, *key: object) -> GroundedAttribute:
    return GroundedAttribute(attribute, tuple(key))


class TestConditionEvaluation:
    def test_entity_condition(self, grounder):
        rule = parse_rule("Prestige[A] <= Qualification[A] WHERE Person(A)")
        bindings = grounder.condition_bindings(rule.condition)
        assert {b["A"] for b in bindings} == {"Bob", "Carlos", "Eva"}

    def test_relationship_condition(self, grounder):
        rule = parse_rule("Score[S] <= Prestige[A] WHERE Author(A, S)")
        bindings = grounder.condition_bindings(rule.condition)
        assert len(bindings) == 5

    def test_attribute_comparison_filters(self, grounder):
        rule = parse_rule(
            'Score[S] <= Quality[S] WHERE Submitted(S, C), Blind[C] = "double"'
        )
        bindings = grounder.condition_bindings(rule.condition)
        assert {b["S"] for b in bindings} == {"s2", "s3"}

    def test_variable_comparison_filters(self, grounder):
        rule = parse_rule('Score[S] <= Quality[S] WHERE Submitted(S, C), C = "ConfDB"')
        bindings = grounder.condition_bindings(rule.condition)
        assert {b["S"] for b in bindings} == {"s1"}


class TestRuleGrounding:
    """Example 3.6's grounded rules, read off the grounded graph: each rule
    is the program's only one with its head attribute, so a head's parents
    are its grounded body."""

    @pytest.fixture(scope="class")
    def graph(self, grounder) -> GroundedCausalGraph:
        return grounder.ground()

    def test_example_3_6_quality_groundings(self, graph):
        assert graph.parents(node("Quality", "s1")) == {
            node("Qualification", "Bob"),
            node("Qualification", "Eva"),
            node("Prestige", "Bob"),
            node("Prestige", "Eva"),
        }
        assert graph.parents(node("Quality", "s2")) == {
            node("Qualification", "Eva"),
            node("Prestige", "Eva"),
        }

    def test_example_3_6_prestige_groundings(self, graph):
        heads = graph.nodes_of("Prestige")
        assert len(heads) == 3
        assert all(graph.parents(head) == {node("Qualification", *head.key)} for head in heads)

    def test_aggregate_rule_grounding(self, graph):
        assert graph.parents(node("AVG_Score", "Eva")) == {
            node("Score", "s1"),
            node("Score", "s2"),
            node("Score", "s3"),
        }
        assert graph.parents(node("AVG_Score", "Bob")) == {node("Score", "s1")}


class TestGraphAssembly:
    def test_figure_5_graph_shape(self, grounder):
        graph = grounder.ground()
        # 3 authors x (Prestige, Qualification, AVG_Score) + 3 submissions x (Score, Quality)
        # + 2 conferences x Blind = 9 + 6 + 2 = 17 nodes.
        assert len(graph) == 17
        # Edges of Figure 5: 3 Qualification->Prestige, per-submission
        # Qualification/Prestige->Quality (2+1+2 each kind), Quality->Score (3),
        # Prestige->Score (5), Score->AVG_Score (5).
        assert graph.number_of_edges() == 26
        assert graph.is_aggregate(node("AVG_Score", "Eva"))
        assert not graph.is_aggregate(node("Score", "s1"))

    def test_graph_values_include_aggregates(self, grounder):
        graph = grounder.ground()
        values = grounder.grounded_attribute_values(graph)
        assert values[node("Score", "s1")] == pytest.approx(0.75)
        assert values[node("AVG_Score", "Bob")] == pytest.approx(0.75)
        assert values[node("AVG_Score", "Eva")] == pytest.approx((0.75 + 0.4 + 0.1) / 3)
        # Latent attributes have no observed value.
        assert node("Quality", "s1") not in values

    def test_graph_is_acyclic(self, grounder):
        graph = grounder.ground()
        position = {item: index for index, item in enumerate(graph.topological_order())}
        assert len(position) == len(graph)
        assert all(position[parent] < position[child] for parent, child in graph.edges)

    def test_directed_paths_match_figure_5(self, grounder):
        graph = grounder.ground()
        # Eva's prestige has a directed path to Bob's average score (highlighted
        # in Figure 5) because they co-authored s1.
        assert graph.has_directed_path(node("Prestige", "Eva"), node("AVG_Score", "Bob"))
        # Carlos never co-authors with Bob, so no such path exists.
        assert not graph.has_directed_path(node("Prestige", "Carlos"), node("AVG_Score", "Bob"))
