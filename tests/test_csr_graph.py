"""Equivalence and round-trip tests for the CSR-backed grounded graph.

The dict-of-dicts DAG the grounded graph used to be is kept in
``tests/graph_oracle.py`` as the oracle: Hypothesis builds random DAGs both
ways and checks that nodes, edges, parents/children, ancestor/descendant
closures, topological order, the do-operator and d-separation all agree
between the oracle and the CSR arrays.  A second group pins the CSR
grounding payload round trip: stored arrays come back identical (empty
graphs, isolated nodes and aggregate nodes included), and a loaded graph
stays mutable.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ArtifactCache, CacheKey, grounding_payload, load_grounding
from repro.carl.causal_graph import GroundedAttribute, GroundedCausalGraph, GroundedRule
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
    graph = GroundedCausalGraph()
    oracle = DAG()
    for index in range(n):
        graph.add_node(node(index))
        oracle.add_node(node(index))
    for parent, child in order:
        graph.add_edge(node(parent), node(child))
        oracle.add_edge(node(parent), node(child))
    return graph, oracle


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

    @settings(max_examples=100)
    @given(graphs=random_dags(), data=st.data())
    def test_do_matches_oracle(self, graphs, data):
        graph, oracle = graphs
        nodes = oracle.nodes
        targets = data.draw(st.lists(st.sampled_from(nodes), max_size=3)) if nodes else []
        edges_before = graph.edges
        mutilated = graph.do(targets)
        expected = oracle.do(targets)
        assert mutilated.nodes == graph.nodes  # same node ids
        assert set(mutilated.edges) == set(expected.edges)
        for item in oracle.nodes:
            assert mutilated.parent_nodes(item) == sorted(
                expected.parents(item), key=graph.index_of
            )
        assert graph.edges == edges_before  # the source graph is untouched

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
        graph = GroundedCausalGraph()
        graph.add_edge(node(0), node(1))
        graph.add_edge(node(1), node(2))
        graph.add_edge(node(2), node(0))
        with pytest.raises(CycleError):
            graph.topological_order()
        with pytest.raises(CycleError):
            graph.validate_acyclic()

    def test_self_loop_rejected(self):
        graph = GroundedCausalGraph()
        with pytest.raises(ValueError):
            graph.add_edge(node(0), node(0))


class TestCSRPayloadRoundTrip:
    KEY = CacheKey(database="ab" * 32, program="cd" * 32, kind="grounding")

    def roundtrip(self, tmp_path, graph, values):
        cache = ArtifactCache(tmp_path / "cache")
        cache.store(self.KEY, grounding_payload(graph, values))
        loaded = cache.load(self.KEY)
        assert loaded is not None
        return loaded

    def test_csr_arrays_roundtrip_identical(self, tmp_path):
        graph = GroundedCausalGraph()
        graph.add_grounded_rule(GroundedRule(head=node(2), body=(node(0), node(1))))
        graph.add_grounded_rule(
            GroundedRule(head=node(3), body=(node(2),)), aggregate="AVG"
        )
        graph.add_node(node(4))  # isolated node
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
        payload = self.roundtrip(tmp_path, GroundedCausalGraph(), {})
        loaded_graph, loaded_values = load_grounding(payload)
        assert len(loaded_graph) == 0
        assert loaded_graph.number_of_edges() == 0
        assert loaded_graph.topological_order() == []
        assert loaded_values == {}

    def test_isolated_nodes_only(self, tmp_path):
        graph = GroundedCausalGraph()
        for index in range(4):
            graph.add_node(node(index))
        payload = self.roundtrip(tmp_path, graph, {})
        loaded_graph, _ = load_grounding(payload)
        assert loaded_graph.nodes == graph.nodes
        assert loaded_graph.number_of_edges() == 0
        assert loaded_graph.parents(node(1)) == set()

    def test_loaded_graph_stays_mutable(self, tmp_path):
        # The engine splices dynamically-registered aggregate rules into a
        # cache-loaded graph; the CSR snapshot must recompile lazily.
        graph = GroundedCausalGraph()
        graph.add_grounded_rule(GroundedRule(head=node(1), body=(node(0),)))
        payload = self.roundtrip(tmp_path, graph, {})
        loaded_graph, _ = load_grounding(payload)
        loaded_graph.add_grounded_rule(
            GroundedRule(head=node(5), body=(node(1),)), aggregate="SUM"
        )
        assert loaded_graph.has_edge(node(1), node(5))
        assert loaded_graph.has_edge(node(0), node(1))
        assert loaded_graph.number_of_edges() == 2
        assert loaded_graph.ancestors(node(5)) == {node(0), node(1)}

    def test_payload_uses_int32_csr_arrays(self, tmp_path):
        graph = GroundedCausalGraph()
        graph.add_edge(node(0), node(1))
        payload = grounding_payload(graph, {})
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
