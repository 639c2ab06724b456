"""Unit tests for the dict-of-dicts DAG test oracle (tests/graph_oracle.py)."""

from __future__ import annotations

import pytest

from graph_oracle import DAG
from repro.graph import CycleError


def chain(*nodes: str) -> DAG:
    graph = DAG()
    for parent, child in zip(nodes, nodes[1:]):
        graph.add_edge(parent, child)
    return graph


class TestConstruction:
    def test_add_node_is_idempotent(self):
        graph = DAG()
        graph.add_node("a")
        graph.add_node("a")
        assert len(graph) == 1

    def test_add_node_stores_metadata(self):
        graph = DAG()
        graph.add_node("a", kind="attribute")
        graph.add_node("a", extra=1)
        assert graph.node_data("a") == {"kind": "attribute", "extra": 1}

    def test_add_edge_creates_missing_nodes(self):
        graph = DAG()
        graph.add_edge("a", "b")
        assert "a" in graph and "b" in graph
        assert graph.has_edge("a", "b")

    def test_self_loop_is_rejected(self):
        graph = DAG()
        with pytest.raises(ValueError):
            graph.add_edge("a", "a")

    def test_remove_edge(self):
        graph = chain("a", "b", "c")
        graph.remove_edge("a", "b")
        assert not graph.has_edge("a", "b")
        assert graph.has_edge("b", "c")

    def test_remove_node_removes_incident_edges(self):
        graph = chain("a", "b", "c")
        graph.remove_node("b")
        assert "b" not in graph
        assert graph.children("a") == set()
        assert graph.parents("c") == set()

    def test_remove_missing_node_is_noop(self):
        graph = chain("a", "b")
        graph.remove_node("zzz")
        assert len(graph) == 2

    def test_copy_is_independent(self):
        graph = chain("a", "b")
        clone = graph.copy()
        clone.add_edge("b", "c")
        assert "c" not in graph
        assert clone.has_edge("a", "b")


class TestQueries:
    def test_parents_and_children(self):
        graph = DAG()
        graph.add_edge("x", "z")
        graph.add_edge("y", "z")
        assert graph.parents("z") == {"x", "y"}
        assert graph.children("x") == {"z"}
        assert graph.parents("unknown") == set()

    def test_roots_and_leaves(self):
        graph = chain("a", "b", "c")
        assert graph.roots() == ["a"]
        assert graph.leaves() == ["c"]

    def test_ancestors_and_descendants(self):
        graph = chain("a", "b", "c", "d")
        assert graph.ancestors("d") == {"a", "b", "c"}
        assert graph.descendants("a") == {"b", "c", "d"}
        assert graph.ancestors("a") == set()

    def test_ancestors_of_set_includes_the_set(self):
        graph = chain("a", "b", "c")
        assert graph.ancestors_of_set(["c"]) == {"a", "b", "c"}

    def test_has_directed_path(self):
        graph = chain("a", "b", "c")
        assert graph.has_directed_path("a", "c")
        assert not graph.has_directed_path("c", "a")
        assert graph.has_directed_path("b", "b")
        assert not graph.has_directed_path("a", "missing")

    def test_edges_and_counts(self):
        graph = chain("a", "b", "c")
        assert set(graph.edges) == {("a", "b"), ("b", "c")}
        assert graph.number_of_edges() == 2


class TestOrderingAndSurgery:
    def test_topological_order_respects_edges(self):
        graph = DAG()
        graph.add_edge("a", "c")
        graph.add_edge("b", "c")
        graph.add_edge("c", "d")
        order = graph.topological_order()
        assert order.index("a") < order.index("c") < order.index("d")
        assert order.index("b") < order.index("c")

    def test_cycle_detection(self):
        graph = DAG()
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        graph.add_edge("c", "a")
        assert not graph.is_acyclic()
        with pytest.raises(CycleError):
            graph.validate_acyclic()

    def test_acyclic_graph_validates(self):
        graph = chain("a", "b", "c")
        graph.validate_acyclic()
        assert graph.is_acyclic()

    def test_do_removes_incoming_edges_only(self):
        graph = DAG()
        graph.add_edge("z", "t")
        graph.add_edge("t", "y")
        graph.add_edge("z", "y")
        mutilated = graph.do(["t"])
        assert not mutilated.has_edge("z", "t")
        assert mutilated.has_edge("t", "y")
        assert mutilated.has_edge("z", "y")
        # The original graph is untouched.
        assert graph.has_edge("z", "t")

    def test_subgraph(self):
        graph = chain("a", "b", "c", "d")
        sub = graph.subgraph(["b", "c"])
        assert set(sub.nodes) == {"b", "c"}
        assert sub.has_edge("b", "c")
        assert sub.number_of_edges() == 1

    def test_subgraph_preserves_source_node_order(self):
        # Regression: the induced subgraph used to insert nodes in Python
        # `set` iteration order, which is hash-seed-dependent.  It must
        # follow the source graph's insertion order, whatever order the
        # requested nodes arrive in.
        graph = chain("a", "b", "c", "d", "e")
        sub = graph.subgraph(["e", "c", "a", "d"])
        assert sub.nodes == ["a", "c", "d", "e"]
        assert sub.edges == [("c", "d"), ("d", "e")]

    def test_iteration_matches_nodes(self):
        graph = chain("a", "b")
        assert list(iter(graph)) == graph.nodes


class TestDeterministicIteration:
    def test_edges_in_insertion_order(self):
        graph = DAG()
        graph.add_edge("z", "a")
        graph.add_edge("b", "a")
        graph.add_edge("z", "m")
        assert graph.edges == [("z", "a"), ("z", "m"), ("b", "a")]

    def test_topological_order_is_stable(self):
        graph = DAG()
        graph.add_edge("c", "x")
        graph.add_edge("a", "x")
        graph.add_edge("b", "x")
        assert graph.topological_order() == graph.topological_order()
        # Roots dequeue in insertion order, not hash order.
        assert graph.topological_order() == ["c", "a", "b", "x"]
