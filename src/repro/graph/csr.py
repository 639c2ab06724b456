"""Compressed-sparse-row adjacency for grounded causal graphs.

The grounded graph ``G(Phi_Delta)`` can hold hundreds of thousands of nodes.
A dict-of-sets adjacency has two costs at that scale: every walk pays a
Python frame per visited node, and every ``set`` iterates in
``PYTHONHASHSEED``-dependent order.  (``tests/graph_oracle.py`` keeps such a
graph as the reference the walks here are tested against.)

:class:`CSRGraph` stores both adjacency directions as classic CSR arrays
(``indptr``/``indices``), with neighbour lists sorted by node id.  Every
query is an array sweep: ancestor/descendant closures and Bayes-ball
d-separation run as boolean-mask frontier expansions, topological order is a
level-synchronous Kahn, and edge membership is a binary search.  Iteration
order is a pure function of node ids, so results are identical in every
process regardless of hash seed.

Instances are immutable; :meth:`from_edges` deduplicates and sorts, and
:class:`~repro.carl.causal_graph.GroundedCausalGraph` recompiles a fresh
snapshot after mutations.  The arrays may be memory-mapped straight out of a
cached grounding artifact (any integer dtype is accepted and never copied).
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np


class CycleError(ValueError):
    """Raised when an operation requires acyclicity and the graph has a cycle."""


_EMPTY = np.empty(0, dtype=np.int64)


def _gather(indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Concatenate the adjacency ranges of every node in ``frontier``.

    Vectorized multi-range gather: one ``np.repeat`` builds per-element
    offsets into ``indices`` instead of a Python loop over frontier nodes.
    """
    starts = indptr[frontier].astype(np.int64, copy=False)
    counts = indptr[frontier + 1].astype(np.int64, copy=False) - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return _EMPTY
    offsets = np.repeat(starts - (ends - counts), counts)
    return indices[np.arange(total, dtype=np.int64) + offsets]


class CSRGraph:
    """Immutable dual-CSR adjacency over nodes ``0..n-1``.

    ``parent_indptr``/``parent_indices`` hold each node's parents (incoming
    edges, grouped by child); ``child_indptr``/``child_indices`` hold each
    node's children (outgoing edges, grouped by parent).  Neighbour lists are
    sorted ascending by node id.
    """

    __slots__ = ("n", "parent_indptr", "parent_indices", "child_indptr", "child_indices")

    def __init__(
        self,
        n: int,
        parent_indptr: np.ndarray,
        parent_indices: np.ndarray,
        child_indptr: np.ndarray,
        child_indices: np.ndarray,
    ) -> None:
        self.n = int(n)
        self.parent_indptr = parent_indptr
        self.parent_indices = parent_indices
        self.child_indptr = child_indptr
        self.child_indices = child_indices

    @classmethod
    def from_edges(cls, n: int, parents: np.ndarray, children: np.ndarray) -> "CSRGraph":
        """Build from (possibly duplicated) ``parent -> child`` id pairs.

        Edges are deduplicated; both CSR directions come out sorted by node
        id, so the result is independent of the input edge order.
        """
        parents = np.asarray(parents, dtype=np.int64)
        children = np.asarray(children, dtype=np.int64)
        if parents.size:
            # Encoding as child*n + parent sorts by (child, parent): exactly
            # the parent-CSR layout.  n < 2**31 in practice, so no overflow.
            codes = np.unique(children * np.int64(n) + parents)
            edge_children, edge_parents = np.divmod(codes, np.int64(n))
        else:
            edge_children = edge_parents = _EMPTY
        parent_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(edge_children, minlength=n), out=parent_indptr[1:])
        order = np.lexsort((edge_children, edge_parents))
        child_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(edge_parents, minlength=n), out=child_indptr[1:])
        return cls(n, parent_indptr, edge_parents, child_indptr, edge_children[order])

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        return int(self.parent_indices.size)

    def parents_of(self, index: int) -> np.ndarray:
        """Parent ids of ``index``, ascending."""
        return self.parent_indices[self.parent_indptr[index] : self.parent_indptr[index + 1]]

    def children_of(self, index: int) -> np.ndarray:
        """Child ids of ``index``, ascending."""
        return self.child_indices[self.child_indptr[index] : self.child_indptr[index + 1]]

    def has_edge(self, parent: int, child: int) -> bool:
        """Binary-search the (sorted) parent list of ``child``."""
        row = self.parents_of(child)
        position = int(np.searchsorted(row, parent))
        return position < row.size and int(row[position]) == parent

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All edges as ``(parents, children)`` id arrays, in parent-CSR order."""
        counts = np.diff(self.parent_indptr)
        children = np.repeat(np.arange(self.n, dtype=np.int64), counts)
        return np.asarray(self.parent_indices, dtype=np.int64), children

    # ------------------------------------------------------------------
    # closures
    # ------------------------------------------------------------------
    def _sweep(
        self, indptr: np.ndarray, indices: np.ndarray, sources: Iterable[int], include: bool
    ) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        frontier = np.unique(np.asarray(list(sources), dtype=np.int64))
        if include:
            mask[frontier] = True
        while frontier.size:
            frontier = np.unique(_gather(indptr, indices, frontier))
            frontier = frontier[~mask[frontier]]
            mask[frontier] = True
        return mask

    def ancestor_mask(self, sources: Iterable[int], include_sources: bool = False) -> np.ndarray:
        """Boolean mask over all nodes with a directed path *to* ``sources``."""
        return self._sweep(self.parent_indptr, self.parent_indices, sources, include_sources)

    def descendant_mask(self, sources: Iterable[int], include_sources: bool = False) -> np.ndarray:
        """Boolean mask over all nodes with a directed path *from* ``sources``."""
        return self._sweep(self.child_indptr, self.child_indices, sources, include_sources)

    def has_directed_path(self, source: int, target: int) -> bool:
        if source == target:
            return True
        return bool(self.ancestor_mask([target])[source])

    # ------------------------------------------------------------------
    # ordering
    # ------------------------------------------------------------------
    def topological_order(self) -> np.ndarray:
        """Level-synchronous Kahn: each level is emitted in ascending id order,
        so the order is deterministic.  Raises :class:`CycleError` on cycles."""
        in_degree = np.diff(self.parent_indptr).astype(np.int64)
        frontier = np.flatnonzero(in_degree == 0)
        in_degree[frontier] = -1
        levels: list[np.ndarray] = []
        emitted = 0
        while frontier.size:
            levels.append(frontier)
            emitted += frontier.size
            children = _gather(self.child_indptr, self.child_indices, frontier)
            if not children.size:
                break
            np.subtract.at(in_degree, children, 1)
            ready = np.unique(children)
            ready = ready[in_degree[ready] == 0]
            in_degree[ready] = -1
            frontier = ready
        if emitted != self.n:
            raise CycleError("graph contains a directed cycle")
        return np.concatenate(levels) if levels else _EMPTY

    # ------------------------------------------------------------------
    # d-separation (Bayes ball)
    # ------------------------------------------------------------------
    def dconnected_mask(self, sources: Iterable[int], given: Iterable[int]) -> np.ndarray:
        """Nodes d-connected to any of ``sources`` conditioned on ``given``.

        Mask formulation of the classic Bayes-ball traversal: states are
        (node, direction) pairs tracked as two boolean arrays, and each round
        expands every frontier state at once with vectorized gathers.
        """
        given_mask = np.zeros(self.n, dtype=bool)
        given_ids = np.asarray(list(given), dtype=np.int64)
        given_mask[given_ids] = True
        # A collider is active iff it is in the conditioning set or has a
        # descendant in it, i.e. iff it is an ancestor of (or in) the set.
        conditioning_ancestors = self.ancestor_mask(given_ids, include_sources=True)

        visited_up = np.zeros(self.n, dtype=bool)
        visited_down = np.zeros(self.n, dtype=bool)
        up = np.unique(np.asarray(list(sources), dtype=np.int64))
        visited_up[up] = True
        down = _EMPTY
        while up.size or down.size:
            # Travelling up through a non-conditioned node: continue to its
            # parents (chain) and children (fork).
            open_up = up[~given_mask[up]]
            # Travelling down: children stay reachable through non-conditioned
            # nodes (chain); parents become reachable through active colliders.
            pass_down = down[~given_mask[down]]
            bounce_down = down[conditioning_ancestors[down]]
            next_up = np.unique(
                np.concatenate(
                    (
                        _gather(self.parent_indptr, self.parent_indices, open_up),
                        _gather(self.parent_indptr, self.parent_indices, bounce_down),
                    )
                )
            )
            next_down = np.unique(
                np.concatenate(
                    (
                        _gather(self.child_indptr, self.child_indices, open_up),
                        _gather(self.child_indptr, self.child_indices, pass_down),
                    )
                )
            )
            up = next_up[~visited_up[next_up]]
            visited_up[up] = True
            down = next_down[~visited_down[next_down]]
            visited_down[down] = True
        return (visited_up | visited_down) & ~given_mask

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraph(nodes={self.n}, edges={self.n_edges})"
