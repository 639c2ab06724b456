"""Unit tests for the grounded causal graph container (repro.carl.causal_graph)."""

from __future__ import annotations

import numpy as np
import pytest

from graph_builder import build_graph
from repro.carl.causal_graph import GroundedAttribute, GroundedCausalGraph
from repro.graph import CycleError


def node(attribute: str, *key: object) -> GroundedAttribute:
    return GroundedAttribute(attribute, tuple(key))


@pytest.fixture()
def small_graph() -> GroundedCausalGraph:
    return build_graph(
        [node("Score", "s1")],
        [
            (node("Prestige", "a1"), node("Score", "s1")),
            (node("Prestige", "a2"), node("Score", "s1")),
            (node("Prestige", "a2"), node("Score", "s2")),
            (node("Qual", "a1"), node("Prestige", "a1")),
            (node("Score", "s1"), node("AVG_Score", "a1")),
        ],
        {node("AVG_Score", "a1"): "AVG"},
    )


class TestStructure:
    def test_membership_and_counts(self, small_graph):
        assert node("Score", "s1") in small_graph
        assert len(small_graph) == 6
        assert small_graph.number_of_edges() == 5

    def test_nodes_of_attribute(self, small_graph):
        assert small_graph.nodes_of("Prestige") == [node("Prestige", "a1"), node("Prestige", "a2")]
        assert small_graph.nodes_of("Missing") == []

    def test_attribute_names(self, small_graph):
        assert set(small_graph.attribute_names()) == {"Score", "Prestige", "Qual", "AVG_Score"}

    def test_parents_and_children(self, small_graph):
        assert small_graph.parents(node("Score", "s1")) == {
            node("Prestige", "a1"),
            node("Prestige", "a2"),
        }
        assert small_graph.children(node("Prestige", "a2")) == {
            node("Score", "s1"),
            node("Score", "s2"),
        }

    def test_parents_by_attribute_groups_and_sorts(self, small_graph):
        grouped = small_graph.parents_by_attribute(node("Score", "s1"))
        assert list(grouped) == ["Prestige"]
        assert grouped["Prestige"] == [node("Prestige", "a1"), node("Prestige", "a2")]

    def test_aggregate_tracking(self, small_graph):
        assert small_graph.is_aggregate(node("AVG_Score", "a1"))
        assert small_graph.aggregate_of(node("AVG_Score", "a1")) == "AVG"
        assert small_graph.aggregate_of(node("Score", "s1")) is None

    def test_aggregate_marks_are_a_read_only_view_in_mark_order(self):
        marks = {node("MAX_Score", "a2"): "MAX", node("AVG_Score", "a1"): "AVG"}
        graph = build_graph([node("AVG_Score", "a1"), node("MAX_Score", "a2")], aggregates=marks)
        assert list(graph.aggregate_marks.items()) == list(marks.items())
        with pytest.raises(TypeError):
            graph.aggregate_marks[node("AVG_Score", "a1")] = "SUM"  # type: ignore[index]


class TestReachabilityAndSeparation:
    def test_ancestors_descendants(self, small_graph):
        assert node("Qual", "a1") in small_graph.ancestors(node("AVG_Score", "a1"))
        assert node("AVG_Score", "a1") in small_graph.descendants(node("Qual", "a1"))

    def test_attribute_ancestor_pairs(self, small_graph):
        source = small_graph.index_of(node("AVG_Score", "a1"))
        positions, ancestors = small_graph.attribute_ancestor_pairs(np.array([source]), "Prestige")
        assert positions.tolist() == [0, 0]
        assert [small_graph.node_at(index) for index in ancestors.tolist()] == [
            node("Prestige", "a1"),
            node("Prestige", "a2"),
        ]

    def test_attribute_ancestor_pairs_over_many_sources(self, small_graph):
        sources = small_graph.node_ids(
            [
                node("Score", "s2"),
                node("Missing", "x"),
                node("Prestige", "a1"),
                node("AVG_Score", "a1"),
            ]
        )
        assert sources[1] == -1
        positions, ancestors = small_graph.attribute_ancestor_pairs(sources, "Prestige")
        # A node is not its own ancestor, and an absent source has none.
        assert list(zip(positions.tolist(), map(small_graph.node_at, ancestors.tolist()))) == [
            (0, node("Prestige", "a2")),
            (3, node("Prestige", "a1")),
            (3, node("Prestige", "a2")),
        ]
        positions, ancestors = small_graph.attribute_ancestor_pairs(sources, "Qual")
        assert positions.tolist() == [2, 3]
        assert small_graph.attribute_ancestor_pairs(sources, "Missing")[0].size == 0

    def test_attribute_walk_requires_acyclic_attribute_graph(self):
        graph = build_graph(edges=[(node("A", 1), node("B", 1)), (node("B", 1), node("A", 2))])
        with pytest.raises(CycleError, match="attribute graph"):
            graph.attribute_ancestor_pairs(graph.node_ids([node("A", 2)]), "A")

    def test_directed_path(self, small_graph):
        assert small_graph.has_directed_path(node("Prestige", "a2"), node("AVG_Score", "a1"))
        assert not small_graph.has_directed_path(node("AVG_Score", "a1"), node("Prestige", "a2"))

    def test_d_separation_on_grounded_graph(self, small_graph):
        # Qual[a1] -> Prestige[a1] -> Score[s1]: blocked by the treatment node.
        assert not small_graph.d_separated(node("Qual", "a1"), node("Score", "s1"))
        assert small_graph.d_separated(
            node("Qual", "a1"), node("Score", "s1"), [node("Prestige", "a1")]
        )

    def test_str_rendering(self):
        assert str(node("Score", "s1")) == "Score['s1']"


class TestNodeIdOrdering:
    """Ordered queries sort by interned node id, not ``str(key)``.

    Regression for the lexicographic-ordering bug: sorting by ``str(node.key)``
    put ``(10,)`` before ``(2,)`` for integer keys.  Node ids follow insertion
    order, so units interned in numeric order come back in numeric order.
    (This reordering is why the artifact format version was bumped: answers
    derived from stored v1 groundings could order covariate columns
    differently, so old artifacts are invalidated wholesale.)
    """

    @pytest.fixture()
    def numeric_graph(self) -> GroundedCausalGraph:
        return build_graph(
            [node("Score", 0)],
            [(node("Prestige", index), node("Score", 0)) for index in range(1, 13)],
        )

    def test_nodes_of_numeric_keys_in_numeric_order(self, numeric_graph):
        keys = [item.key for item in numeric_graph.nodes_of("Prestige")]
        assert keys == [(index,) for index in range(1, 13)]
        # str-sorting would have yielded (1,), (10,), (11,), (12,), (2,), ...
        assert keys != sorted(keys, key=str)

    def test_parents_by_attribute_numeric_order(self, numeric_graph):
        grouped = numeric_graph.parents_by_attribute(node("Score", 0))
        assert [item.key for item in grouped["Prestige"]] == [
            (index,) for index in range(1, 13)
        ]

    def test_attribute_ancestor_pairs_numeric_order(self, numeric_graph):
        sources = numeric_graph.node_ids([node("Score", 0)])
        _, ancestors = numeric_graph.attribute_ancestor_pairs(sources, "Prestige")
        assert [numeric_graph.node_at(index).key for index in ancestors.tolist()] == [
            (index,) for index in range(1, 13)
        ]
