"""Directed-acyclic-graph substrate used by the CaRL engine.

The grounded relational causal graph of the paper (Section 3.2.3) is a DAG
over grounded attributes.  :class:`CSRGraph` is its arrays-first adjacency:
ancestor/descendant closures, topological order and Bayes-ball
d-separation (used by covariate detection, Theorem 5.2) all run as
vectorized sweeps over it.
"""

from repro.graph.csr import CSRGraph, CycleError

__all__ = ["CSRGraph", "CycleError"]
