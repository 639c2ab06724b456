"""Build a grounded causal graph from nodes and edges, in one constructor call.

Production graphs come from the grounder and the artifact loader, each of
which holds a whole node table and one compiled CSR.  Tests, the
per-binding grounding oracle and the benchmarks build theirs from node
objects through :func:`build_graph`, which interns them and calls the
:class:`~repro.carl.causal_graph.GroundedCausalGraph` constructor once.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from repro.carl.causal_graph import GroundedAttribute, GroundedCausalGraph
from repro.graph.csr import CSRGraph


def build_graph(
    nodes: Iterable[GroundedAttribute] = (),
    edges: Iterable[tuple[GroundedAttribute, GroundedAttribute]] = (),
    aggregates: Mapping[GroundedAttribute, str] | None = None,
) -> GroundedCausalGraph:
    """The graph over ``nodes`` and ``edges`` (``parent -> child`` pairs).

    Node ids follow first appearance: ``nodes`` in order, then the
    endpoints of ``edges``, each parent before its child.  Repeated nodes
    and edges collapse.  ``aggregates`` marks aggregate heads, in its own
    order; every head must be among the nodes.
    """
    edges = list(edges)
    node_index: dict[GroundedAttribute, int] = {}
    for node in nodes:
        node_index.setdefault(node, len(node_index))
    for parent, child in edges:
        node_index.setdefault(parent, len(node_index))
        node_index.setdefault(child, len(node_index))
    by_attribute: dict[str, list[int]] = {}
    for node, index in node_index.items():
        by_attribute.setdefault(node.attribute, []).append(index)
    pairs = [(node_index[parent], node_index[child]) for parent, child in edges]
    ids = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return GroundedCausalGraph(
        list(node_index),
        node_index,
        by_attribute,
        dict(aggregates or {}),
        CSRGraph.from_edges(len(node_index), ids[:, 0], ids[:, 1]),
    )
