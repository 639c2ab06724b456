"""Equivalence and round-trip tests for the CSR-backed grounded graph.

The dict-of-dicts DAG the grounded graph used to be is kept in
``tests/graph_oracle.py`` as the oracle: Hypothesis builds random DAGs both
ways and checks that nodes, edges, parents/children, ancestor/descendant
closures, topological order and d-separation all agree between the oracle
and the CSR arrays.  A second group pins the CSR
grounding payload round trip: stored arrays come back identical (empty
graphs, isolated nodes and aggregate nodes included).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ArtifactCache, CacheKey, grounding_payload, load_grounding
from graph_builder import build_graph
from repro.carl.causal_graph import GroundedAttribute, GroundedCausalGraph
from graph_oracle import DAG, d_separated as dag_d_separated
from repro.graph import CSRGraph, CycleError
from repro.graph.csr import sorted_unique

ATTRIBUTES = ("T", "Y", "Z")


@given(
    st.sampled_from([np.int32, np.int64]),
    st.one_of(
        st.lists(st.integers(-(2**31), 2**31 - 1), max_size=40),
        st.lists(st.integers(-3, 3), max_size=40),
    ),
)
def test_sorted_unique_matches_np_unique(dtype, values):
    """The walks' sort-based dedup equals ``np.unique``: empty input, one
    value, duplicates and negatives, on int32 and int64."""
    array = np.asarray(values, dtype=dtype)
    result = sorted_unique(array)
    assert result.dtype == array.dtype
    assert result.tolist() == np.unique(array).tolist()


def node(index: int) -> GroundedAttribute:
    return GroundedAttribute(ATTRIBUTES[index % len(ATTRIBUTES)], (index,))


@st.composite
def random_dags(draw) -> tuple[GroundedCausalGraph, DAG]:
    """A random acyclic graph built both ways: CSR subject + DAG oracle.

    Edges only run from lower to higher index, so the graph is acyclic by
    construction; edge insertion order is shuffled to exercise the claim
    that the CSR compile is independent of input order.
    """
    n = draw(st.integers(min_value=0, max_value=10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = [pair for pair in pairs if draw(st.booleans())]
    order = draw(st.permutations(chosen)) if chosen else []
    nodes = [node(index) for index in range(n)]
    edges = [(node(parent), node(child)) for parent, child in order]
    oracle = DAG()
    for item in nodes:
        oracle.add_node(item)
    for parent, child in edges:
        oracle.add_edge(parent, child)
    return build_graph(nodes, edges), oracle


class TestOracleEquivalence:
    @settings(max_examples=100)
    @given(graphs=random_dags())
    def test_structure_matches_oracle(self, graphs):
        graph, oracle = graphs
        assert graph.nodes == oracle.nodes
        assert len(graph) == len(oracle)
        assert set(graph.edges) == set(oracle.edges)
        assert graph.number_of_edges() == oracle.number_of_edges()
        for item in oracle.nodes:
            assert graph.parents(item) == oracle.parents(item)
            assert graph.children(item) == oracle.children(item)
            # The ordered accessors are the same sets in ascending id order.
            assert graph.parent_nodes(item) == sorted(
                oracle.parents(item), key=graph.index_of
            )
            assert graph.child_nodes(item) == sorted(
                oracle.children(item), key=graph.index_of
            )

    @settings(max_examples=100)
    @given(graphs=random_dags())
    def test_closures_match_oracle(self, graphs):
        graph, oracle = graphs
        for item in oracle.nodes:
            assert graph.ancestors(item) == oracle.ancestors(item)
            assert graph.descendants(item) == oracle.descendants(item)
            for other in oracle.nodes:
                assert graph.has_directed_path(item, other) == oracle.has_directed_path(
                    item, other
                )

    @settings(max_examples=100)
    @given(graphs=random_dags())
    def test_topological_order_is_valid_and_deterministic(self, graphs):
        graph, oracle = graphs
        order = graph.topological_order()
        assert sorted(order, key=graph.index_of) == oracle.nodes
        position = {item: index for index, item in enumerate(order)}
        for parent, child in oracle.edges:
            assert position[parent] < position[child]
        assert graph.topological_order() == order  # stable across calls

    @settings(max_examples=60)
    @given(graphs=random_dags(), data=st.data())
    def test_d_separation_matches_classic_bayes_ball(self, graphs, data):
        graph, oracle = graphs
        if len(oracle) == 0:
            assert graph.d_separated([], [])
            return
        nodes = oracle.nodes
        x = data.draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=2))
        y = data.draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=2))
        given_nodes = data.draw(st.lists(st.sampled_from(nodes), max_size=3))
        expected = dag_d_separated(oracle, x, y, given_nodes)
        assert graph.d_separated(x, y, given_nodes) == expected


class TestCycleDetection:
    def test_cycle_raises(self):
        graph = build_graph(edges=[(node(0), node(1)), (node(1), node(2)), (node(2), node(0))])
        with pytest.raises(CycleError):
            graph.topological_order()


class TestCSRPayloadRoundTrip:
    KEY = CacheKey(database="ab" * 32, program="cd" * 32, kind="grounding")

    def roundtrip(self, tmp_path, graph, values):
        cache = ArtifactCache(tmp_path / "cache")
        cache.store(self.KEY, grounding_payload(graph, values))
        loaded = cache.load(self.KEY)
        assert loaded is not None
        return loaded

    def test_csr_arrays_roundtrip_identical(self, tmp_path):
        graph = build_graph(
            [node(2), node(0), node(1), node(3), node(4)],  # node(4) is isolated
            [(node(0), node(2)), (node(1), node(2)), (node(2), node(3))],
            {node(3): "AVG"},
        )
        payload = self.roundtrip(tmp_path, graph, {node(0): 1.5})
        loaded_graph, loaded_values = load_grounding(payload)
        original, reloaded = graph.csr(), loaded_graph.csr()
        for member in ("parent_indptr", "parent_indices", "child_indptr", "child_indices"):
            assert np.array_equal(getattr(original, member), getattr(reloaded, member))
        assert loaded_graph.nodes == graph.nodes
        assert loaded_graph.edges == graph.edges
        assert loaded_graph.attribute_names() == graph.attribute_names()
        for attribute in graph.attribute_names():
            assert loaded_graph.nodes_of(attribute) == graph.nodes_of(attribute)
        assert loaded_graph.aggregate_of(node(3)) == "AVG"
        assert loaded_values == {node(0): 1.5}

    def test_empty_graph_roundtrip(self, tmp_path):
        payload = self.roundtrip(tmp_path, build_graph(), {})
        loaded_graph, loaded_values = load_grounding(payload)
        assert len(loaded_graph) == 0
        assert loaded_graph.number_of_edges() == 0
        assert loaded_graph.topological_order() == []
        assert loaded_values == {}

    def test_isolated_nodes_only(self, tmp_path):
        graph = build_graph(map(node, range(4)))
        payload = self.roundtrip(tmp_path, graph, {})
        loaded_graph, _ = load_grounding(payload)
        assert loaded_graph.nodes == graph.nodes
        assert loaded_graph.number_of_edges() == 0
        assert loaded_graph.parents(node(1)) == set()

    def test_payload_uses_int32_csr_arrays(self, tmp_path):
        payload = grounding_payload(build_graph(edges=[(node(0), node(1))]), {})
        for member in ("parent_indptr", "parent_indices", "child_indptr", "child_indices"):
            assert payload[member].dtype == np.int32


class TestFromEdges:
    def test_duplicate_edges_are_deduplicated(self):
        csr = CSRGraph.from_edges(3, np.array([0, 0, 1]), np.array([2, 2, 2]))
        assert csr.n_edges == 2
        assert csr.parents_of(2).tolist() == [0, 1]

    def test_neighbour_lists_sorted_regardless_of_insertion(self):
        forward = CSRGraph.from_edges(4, np.array([2, 0, 1]), np.array([3, 3, 3]))
        backward = CSRGraph.from_edges(4, np.array([1, 0, 2]), np.array([3, 3, 3]))
        assert forward.parents_of(3).tolist() == backward.parents_of(3).tolist() == [0, 1, 2]
