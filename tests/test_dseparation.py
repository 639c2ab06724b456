"""Textbook d-separation cases on the production grounded graph.

Each case builds a :class:`GroundedCausalGraph` over key-less nodes
(``GroundedAttribute("x", ())``) and checks
:meth:`GroundedCausalGraph.d_separated` and the covariate module's minimal
separator against the known answer.
"""

from __future__ import annotations

from graph_builder import build_graph
from repro.carl.causal_graph import GroundedAttribute, GroundedCausalGraph
from repro.carl.covariates import _minimal_separator


def node(name: str) -> GroundedAttribute:
    return GroundedAttribute(name, ())


def as_nodes(names: str | list[str]) -> GroundedAttribute | list[GroundedAttribute]:
    """One name is one node; a list of names is a node set."""
    return node(names) if isinstance(names, str) else [node(name) for name in names]


def build(edges: list[tuple[str, str]]) -> GroundedCausalGraph:
    return build_graph(edges=[(node(parent), node(child)) for parent, child in edges])


def d_separated(graph, x, y, given=()) -> bool:
    return graph.d_separated(as_nodes(x), as_nodes(y), as_nodes(list(given)))


def find_minimal_separator(graph, x, y, candidate) -> list[str] | None:
    result = _minimal_separator(graph, as_nodes(x), as_nodes(y), as_nodes(list(candidate)))
    return None if result is None else [item.attribute for item in result]


class TestCanonicalStructures:
    def test_chain_is_connected_marginally(self):
        graph = build([("x", "m"), ("m", "y")])
        assert not d_separated(graph, "x", "y")

    def test_chain_is_blocked_by_mediator(self):
        graph = build([("x", "m"), ("m", "y")])
        assert d_separated(graph, "x", "y", ["m"])

    def test_fork_is_connected_marginally(self):
        graph = build([("z", "x"), ("z", "y")])
        assert not d_separated(graph, "x", "y")

    def test_fork_is_blocked_by_common_cause(self):
        graph = build([("z", "x"), ("z", "y")])
        assert d_separated(graph, "x", "y", ["z"])

    def test_collider_blocks_marginally(self):
        graph = build([("x", "c"), ("y", "c")])
        assert d_separated(graph, "x", "y")

    def test_collider_opens_when_conditioned(self):
        graph = build([("x", "c"), ("y", "c")])
        assert not d_separated(graph, "x", "y", ["c"])

    def test_collider_opens_when_descendant_conditioned(self):
        graph = build([("x", "c"), ("y", "c"), ("c", "d")])
        assert not d_separated(graph, "x", "y", ["d"])

    def test_unrelated_nodes_are_separated(self):
        graph = build([("a", "b"), ("c", "d")])
        assert d_separated(graph, "a", "d")


class TestSetsAndEdgeCases:
    def test_set_arguments(self):
        graph = build([("a", "m"), ("b", "m"), ("m", "y")])
        assert not d_separated(graph, ["a", "b"], ["y"])
        assert d_separated(graph, ["a", "b"], ["y"], ["m"])

    def test_node_in_conditioning_set_is_ignored(self):
        graph = build([("x", "y")])
        assert d_separated(graph, "x", "y", ["y"])

    def test_overlapping_sets_are_connected(self):
        graph = build([("x", "y")])
        assert not d_separated(graph, ["x", "y"], ["y"])

    def test_unknown_nodes_are_treated_as_absent(self):
        graph = build([("x", "y")])
        assert d_separated(graph, "x", "unknown")

    def test_backdoor_example(self):
        # Classic confounding triangle: Z -> T, Z -> Y, T -> Y.
        graph = build([("z", "t"), ("z", "y"), ("t", "y")])
        assert not d_separated(graph, "y", "z")
        # Conditioning on T alone does not block (and opens nothing new here);
        # conditioning on Z blocks the backdoor path from Pa(T) to Y.
        assert d_separated(graph, "y", "z", ["z", "t"])

    def test_m_structure_conditioning_harms(self):
        # M-bias: conditioning on the collider m opens a path between t and y.
        graph = build([("u1", "t"), ("u1", "m"), ("u2", "m"), ("u2", "y")])
        assert d_separated(graph, "t", "y")
        assert not d_separated(graph, "t", "y", ["m"])


class TestMinimalSeparator:
    def test_minimal_separator_shrinks(self):
        graph = build([("z", "x"), ("z", "y"), ("w", "x")])
        result = find_minimal_separator(graph, "x", "y", ["z", "w"])
        assert result == ["z"]

    def test_minimal_separator_returns_none_when_candidate_fails(self):
        graph = build([("x", "y")])
        assert find_minimal_separator(graph, "x", "y", []) is None

    def test_minimal_separator_keeps_necessary_nodes(self):
        graph = build([("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")])
        result = find_minimal_separator(graph, "x", "y", ["a", "b"])
        assert result is not None
        assert set(result) == {"a", "b"}

    def test_minimal_separator_of_separated_nodes_is_empty(self):
        graph = build([("a", "b"), ("c", "d")])
        assert find_minimal_separator(graph, "a", "d", ["b"]) == []
