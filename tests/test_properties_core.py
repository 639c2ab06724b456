"""Property-based tests (hypothesis) for the core data structures.

These check structural invariants of the grounded causal graph (its CSR
walks and d-separation), the embedding functions and the aggregate
functions over randomly generated inputs.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.aggregates import agg_avg, agg_max, agg_median, agg_min, agg_var
from repro.carl.embeddings import (
    MeanEmbedding,
    MedianEmbedding,
    MomentsEmbedding,
    PaddingEmbedding,
)
from graph_builder import build_graph
from repro.carl.causal_graph import GroundedAttribute, GroundedCausalGraph

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
float_lists = st.lists(finite_floats, max_size=30)
nonempty_float_lists = st.lists(finite_floats, min_size=1, max_size=30)


def vertex(index: int) -> GroundedAttribute:
    return GroundedAttribute("v", (index,))


@st.composite
def random_dags(draw) -> GroundedCausalGraph:
    """Random DAGs built by only adding edges from lower to higher node ids."""
    n_nodes = draw(st.integers(min_value=2, max_value=12))
    possible_edges = [(i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes)]
    edges = draw(st.lists(st.sampled_from(possible_edges), max_size=2 * n_nodes, unique=True))
    return build_graph(
        map(vertex, range(n_nodes)),
        [(vertex(parent), vertex(child)) for parent, child in edges],
    )


# ----------------------------------------------------------------------
# DAG invariants
# ----------------------------------------------------------------------
@given(random_dags())
@settings(max_examples=60, deadline=None)
def test_dag_construction_is_acyclic_and_topologically_consistent(graph: GroundedCausalGraph):
    order = graph.topological_order()
    assert sorted(order) == sorted(graph.nodes)
    position = {node: index for index, node in enumerate(order)}
    for parent, child in graph.edges:
        assert position[parent] < position[child]


@given(random_dags())
@settings(max_examples=60, deadline=None)
def test_dag_ancestor_descendant_duality(graph: GroundedCausalGraph):
    for node in graph.nodes:
        for ancestor in graph.ancestors(node):
            assert node in graph.descendants(ancestor)


@given(random_dags(), st.data())
@settings(max_examples=60, deadline=None)
def test_d_separation_is_symmetric(graph: GroundedCausalGraph, data):
    nodes = graph.nodes
    x = data.draw(st.sampled_from(nodes))
    y = data.draw(st.sampled_from(nodes))
    given_set = data.draw(st.lists(st.sampled_from(nodes), max_size=4, unique=True))
    assert graph.d_separated(x, y, given_set) == graph.d_separated(y, x, given_set)


@given(random_dags(), st.data())
@settings(max_examples=40, deadline=None)
def test_parents_block_all_paths_to_nondescendants(graph: GroundedCausalGraph, data):
    """The local Markov property: a node is d-separated from its non-descendants
    given its parents — the graphical fact Theorem 5.2's sufficiency rests on."""
    node = data.draw(st.sampled_from(graph.nodes))
    non_descendants = (
        set(graph.nodes) - graph.descendants(node) - {node} - graph.parents(node)
    )
    if not non_descendants:
        return
    assert graph.d_separated(node, non_descendants, graph.parents(node))


# ----------------------------------------------------------------------
# embedding invariants
# ----------------------------------------------------------------------
@given(float_lists)
@settings(max_examples=100, deadline=None)
def test_embeddings_have_fixed_dimension(values):
    for embedding in (MeanEmbedding(), MedianEmbedding(), MomentsEmbedding(), PaddingEmbedding(width=5)):
        features = embedding.apply(values)
        assert len(features) == embedding.dimension
        assert all(isinstance(feature, float) for feature in features)
        assert all(math.isfinite(feature) for feature in features)


@given(nonempty_float_lists)
@settings(max_examples=100, deadline=None)
def test_mean_embedding_is_bounded_by_extremes(values):
    mean, count = MeanEmbedding().apply(values)
    assert min(values) - 1e-6 <= mean <= max(values) + 1e-6
    assert count == len(values)


@given(nonempty_float_lists)
@settings(max_examples=100, deadline=None)
def test_embeddings_are_permutation_invariant(values):
    reversed_values = list(reversed(values))
    for embedding in (MeanEmbedding(), MedianEmbedding(), MomentsEmbedding(), PaddingEmbedding(width=4)):
        assert embedding.apply(values) == embedding.apply(reversed_values)


# ----------------------------------------------------------------------
# aggregate invariants
# ----------------------------------------------------------------------
@given(nonempty_float_lists)
@settings(max_examples=100, deadline=None)
def test_aggregate_ordering_invariants(values):
    assert agg_min(values) <= agg_avg(values) <= agg_max(values)
    assert agg_min(values) <= agg_median(values) <= agg_max(values)
    assert agg_var(values) >= 0.0


@given(nonempty_float_lists, finite_floats)
@settings(max_examples=100, deadline=None)
def test_average_shift_equivariance(values, shift):
    shifted = [value + shift for value in values]
    assert agg_avg(shifted) == (agg_avg(values) + shift) or math.isclose(
        agg_avg(shifted), agg_avg(values) + shift, rel_tol=1e-9, abs_tol=1e-6
    )
