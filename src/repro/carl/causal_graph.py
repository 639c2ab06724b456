"""The grounded relational causal graph ``G(Phi_Delta)``.

Nodes are grounded attributes ``A[x]`` — an attribute-function name plus a
tuple of entity/relationship key constants — and edges run from every atom
in the body of a grounded rule to its head (Section 3.2.3 of the paper).
Aggregated attributes introduced by aggregate rules become additional nodes
whose value is a deterministic function of their parents (Section 3.2.4).

The graph is arrays-first: nodes are interned into an id table (ids are
assigned in insertion order) and adjacency is compiled into a
:class:`~repro.graph.csr.CSRGraph` — dual CSR arrays whose neighbour lists
are sorted by node id.  Every walk (ancestors, topological order,
d-separation) is a vectorized frontier sweep over those arrays, and every
iteration order is a pure function of node ids: nothing here depends on
``PYTHONHASHSEED``, so warm-cache loads in spawn workers iterate exactly
like the grounding process did.

Mutation stays cheap: ``add_node``/``add_grounded_rule`` append to plain
Python buffers and the CSR snapshot is recompiled lazily on the next
adjacency query (the engine splices dynamically-registered aggregate rules
into a loaded graph, so post-load mutability is required).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import Any, NamedTuple

import numpy as np

from repro.graph.csr import CSRGraph


class GroundedAttribute(NamedTuple):
    """A grounded attribute node ``A[x]``: attribute name + key constants."""

    attribute: str
    key: tuple[Any, ...]

    def __str__(self) -> str:
        rendered = ", ".join(repr(part) for part in self.key)
        return f"{self.attribute}[{rendered}]"


def _key_part_sort_key(part: Any) -> tuple[int, float, str]:
    """Total order over heterogeneous key constants: numbers by value, then
    booleans, then strings, then everything else by repr."""
    if isinstance(part, bool):
        return (1, float(part), "")
    if isinstance(part, (int, float)):
        return (0, float(part), "")
    if isinstance(part, str):
        return (2, 0.0, part)
    return (3, 0.0, repr(part))


def node_sort_key(node: GroundedAttribute) -> tuple[Any, ...]:
    """Structural sort key for grounded attribute nodes.

    ``sorted(nodes, key=str)`` is lexicographic — ``A[10]`` sorts before
    ``A[2]`` — so stringly-sorted node lists change order when key spaces
    cross a digit boundary.  This key sorts by attribute name, then by key
    arity, then part-wise with numeric parts in numeric order, giving one
    canonical order that is stable across runs and dataset sizes.
    """
    return (
        node.attribute,
        len(node.key),
        tuple(_key_part_sort_key(part) for part in node.key),
    )


class GroundedRule(NamedTuple):
    """A grounded rule: head node, body nodes, and the originating rule index."""

    head: GroundedAttribute
    body: tuple[GroundedAttribute, ...]


class GroundedCausalGraph:
    """Interned-node DAG over grounded attributes with attribute-aware queries.

    Node ids are insertion-order ints; all ordered query results
    (``nodes_of``, ``parents_by_attribute``, ``ancestor_nodes_of_attribute``,
    ``edges``, ``topological_order``) are ordered by node id, which makes
    them deterministic and — for the common integer/string key tuples —
    matches the order the grounder discovered the units in.
    """

    def __init__(self) -> None:
        self._nodes: list[GroundedAttribute] = []
        self._node_index: dict[GroundedAttribute, int] = {}
        #: attribute name -> node ids (ascending: appended in intern order).
        self._by_attribute: dict[str, list[int]] = {}
        self._by_attribute_arrays: dict[str, np.ndarray] = {}
        self._aggregates: dict[GroundedAttribute, str] = {}
        #: edges appended since the last CSR compile, as id pairs.
        self._pending_parents: list[int] = []
        self._pending_children: list[int] = []
        self._csr: CSRGraph | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _intern(self, node: GroundedAttribute) -> int:
        index = self._node_index.get(node)
        if index is None:
            index = len(self._nodes)
            self._node_index[node] = index
            self._nodes.append(node)
            self._by_attribute.setdefault(node.attribute, []).append(index)
            self._by_attribute_arrays.pop(node.attribute, None)
        return index

    def add_node(self, node: GroundedAttribute, aggregate: str | None = None) -> None:
        """Register a grounded attribute node (idempotent)."""
        self._intern(node)
        if aggregate is not None:
            self._aggregates[node] = aggregate

    def add_edge(self, parent: GroundedAttribute, child: GroundedAttribute) -> None:
        """Add the directed edge ``parent -> child`` (idempotent), creating
        missing nodes."""
        if parent == child:
            raise ValueError(f"self-loop not allowed: {parent!r}")
        self._pending_parents.append(self._intern(parent))
        self._pending_children.append(self._intern(child))

    def add_grounded_rule(self, rule: GroundedRule, aggregate: str | None = None) -> None:
        """Add a grounded rule: nodes for head and body, edges body -> head."""
        self.add_node(rule.head, aggregate=aggregate)
        for parent in rule.body:
            if parent != rule.head:
                self.add_edge(parent, rule.head)
            else:
                self.add_node(parent)

    # ------------------------------------------------------------------
    # CSR compilation
    # ------------------------------------------------------------------
    def csr(self) -> CSRGraph:
        """The compiled CSR adjacency, recompiled lazily after mutations."""
        n = len(self._nodes)
        csr = self._csr
        if csr is not None and csr.n == n and not self._pending_parents:
            return csr
        parents = np.asarray(self._pending_parents, dtype=np.int64)
        children = np.asarray(self._pending_children, dtype=np.int64)
        if csr is not None and csr.n_edges:
            old_parents, old_children = csr.edge_arrays()
            parents = np.concatenate((old_parents, parents))
            children = np.concatenate((old_children, children))
        self._csr = CSRGraph.from_edges(n, parents, children)
        self._pending_parents = []
        self._pending_children = []
        return self._csr

    def _adopt_arrays(self, nodes: list[GroundedAttribute], csr: CSRGraph) -> None:
        """Bulk-install an interned node list and a compiled CSR snapshot.

        Used by :func:`repro.cache.serialization.load_grounding`: the payload
        already holds the id table and both CSR directions, so a warm load
        wires them in directly instead of re-interning node by node.  The
        ``_by_attribute`` index is installed separately by the loader (it is
        derived from the payload's attribute-id array in one vectorized pass).
        :meth:`do` uses it the same way for the mutilated graph.
        """
        self._nodes = nodes
        self._node_index = dict(zip(nodes, range(len(nodes))))
        self._csr = csr

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __contains__(self, node: GroundedAttribute) -> bool:
        return node in self._node_index

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> list[GroundedAttribute]:
        """All nodes, in insertion (= id) order."""
        return list(self._nodes)

    def node_at(self, index: int) -> GroundedAttribute:
        return self._nodes[index]

    def index_of(self, node: GroundedAttribute) -> int | None:
        """Interned id of ``node`` (None for unknown nodes)."""
        return self._node_index.get(node)

    @property
    def edges(self) -> list[tuple[GroundedAttribute, GroundedAttribute]]:
        """All edges as ``(parent, child)`` pairs, sorted by (parent, child) id."""
        csr = self.csr()
        nodes = self._nodes
        counts = np.diff(csr.child_indptr)
        parent_ids = np.repeat(np.arange(csr.n, dtype=np.int64), counts)
        return [
            (nodes[parent], nodes[child])
            for parent, child in zip(parent_ids.tolist(), csr.child_indices.tolist())
        ]

    def number_of_edges(self) -> int:
        return self.csr().n_edges

    def has_edge(self, parent: GroundedAttribute, child: GroundedAttribute) -> bool:
        parent_id = self._node_index.get(parent)
        child_id = self._node_index.get(child)
        if parent_id is None or child_id is None:
            return False
        return self.csr().has_edge(parent_id, child_id)

    def nodes_of(self, attribute: str) -> list[GroundedAttribute]:
        """All groundings of one attribute function (``A_Delta`` in the paper),
        in node-id (insertion) order."""
        nodes = self._nodes
        return [nodes[index] for index in self._by_attribute.get(attribute, ())]

    def attribute_names(self) -> list[str]:
        return list(self._by_attribute)

    def is_aggregate(self, node: GroundedAttribute) -> bool:
        return node in self._aggregates

    def aggregate_of(self, node: GroundedAttribute) -> str | None:
        return self._aggregates.get(node)

    def parent_nodes(self, node: GroundedAttribute) -> list[GroundedAttribute]:
        """Direct parents of ``node`` in ascending node-id order."""
        index = self._node_index.get(node)
        if index is None:
            return []
        nodes = self._nodes
        return [nodes[parent] for parent in self.csr().parents_of(index).tolist()]

    def child_nodes(self, node: GroundedAttribute) -> list[GroundedAttribute]:
        """Direct children of ``node`` in ascending node-id order."""
        index = self._node_index.get(node)
        if index is None:
            return []
        nodes = self._nodes
        return [nodes[child] for child in self.csr().children_of(index).tolist()]

    def parents(self, node: GroundedAttribute) -> set[GroundedAttribute]:
        return set(self.parent_nodes(node))

    def children(self, node: GroundedAttribute) -> set[GroundedAttribute]:
        return set(self.child_nodes(node))

    def parents_by_attribute(
        self, node: GroundedAttribute
    ) -> dict[str, list[GroundedAttribute]]:
        """Parents of ``node`` grouped by attribute-function name.

        This grouping is what the embedding layer operates on: all parents of
        the same type are collapsed by one embedding function ``psi_A_Aj``
        (Section 4.1).  Groups appear in first-parent order and each group is
        in ascending node-id order.
        """
        grouped: dict[str, list[GroundedAttribute]] = {}
        for parent in self.parent_nodes(node):
            grouped.setdefault(parent.attribute, []).append(parent)
        return grouped

    # ------------------------------------------------------------------
    # reachability
    # ------------------------------------------------------------------
    def _mask_nodes(self, mask: np.ndarray) -> set[GroundedAttribute]:
        nodes = self._nodes
        return {nodes[index] for index in np.flatnonzero(mask).tolist()}

    def ancestors(self, node: GroundedAttribute) -> set[GroundedAttribute]:
        index = self._node_index.get(node)
        if index is None:
            return set()
        return self._mask_nodes(self.csr().ancestor_mask((index,)))

    def descendants(self, node: GroundedAttribute) -> set[GroundedAttribute]:
        index = self._node_index.get(node)
        if index is None:
            return set()
        return self._mask_nodes(self.csr().descendant_mask((index,)))

    def ancestors_of_set(self, nodes: Iterable[GroundedAttribute]) -> set[GroundedAttribute]:
        """Union of the ancestors of every node in ``nodes``, plus the nodes."""
        ids = [
            index
            for index in (self._node_index.get(node) for node in nodes)
            if index is not None
        ]
        if not ids:
            return set()
        return self._mask_nodes(self.csr().ancestor_mask(ids, include_sources=True))

    def has_directed_path(self, source: GroundedAttribute, target: GroundedAttribute) -> bool:
        source_id = self._node_index.get(source)
        target_id = self._node_index.get(target)
        if source_id is None or target_id is None:
            return False
        return self.csr().has_directed_path(source_id, target_id)

    def _attribute_ids(self, attribute: str) -> np.ndarray:
        array = self._by_attribute_arrays.get(attribute)
        if array is None:
            array = np.asarray(self._by_attribute.get(attribute, ()), dtype=np.int64)
            self._by_attribute_arrays[attribute] = array
        return array

    def ancestor_nodes_of_attribute(
        self, node: GroundedAttribute, attribute: str
    ) -> list[GroundedAttribute]:
        """Ancestors of ``node`` restricted to groundings of ``attribute``,
        in ascending node-id order."""
        index = self._node_index.get(node)
        if index is None:
            return []
        mask = self.csr().ancestor_mask((index,))
        candidates = self._attribute_ids(attribute)
        nodes = self._nodes
        return [nodes[match] for match in candidates[mask[candidates]].tolist()]

    # ------------------------------------------------------------------
    # causal-graph operations
    # ------------------------------------------------------------------
    def topological_order(self) -> list[GroundedAttribute]:
        """Deterministic topological order (level-synchronous Kahn over CSR);
        raises :class:`~repro.graph.csr.CycleError` on cyclic graphs."""
        nodes = self._nodes
        return [nodes[index] for index in self.csr().topological_order().tolist()]

    def validate_acyclic(self) -> None:
        self.csr().topological_order()

    def do(self, nodes: Iterable[GroundedAttribute]) -> "GroundedCausalGraph":
        """Mutilated graph for an intervention on ``nodes``: the same node ids
        and aggregate marks, with every edge into an intervened node removed."""
        csr = self.csr()
        intervened = np.zeros(csr.n, dtype=bool)
        intervened[sorted(self._as_ids(nodes))] = True
        parents, children = csr.edge_arrays()
        keep = ~intervened[children]
        mutilated = GroundedCausalGraph()
        mutilated._adopt_arrays(
            list(self._nodes), CSRGraph.from_edges(csr.n, parents[keep], children[keep])
        )
        mutilated._by_attribute = {name: list(ids) for name, ids in self._by_attribute.items()}
        mutilated._aggregates = dict(self._aggregates)
        return mutilated

    def _as_ids(
        self, nodes: Iterable[GroundedAttribute] | GroundedAttribute
    ) -> set[int]:
        # A single node may itself be iterable (a grounded attribute is a
        # NamedTuple); if the argument is a graph node, treat it as one node.
        if isinstance(nodes, Hashable):
            try:
                index = self._node_index.get(nodes)  # type: ignore[arg-type]
            except TypeError:  # unhashable despite the isinstance check
                index = None
            if index is not None:
                return {index}
        if isinstance(nodes, (str, bytes)) or not isinstance(nodes, Iterable):
            return set()
        found = set()
        for node in nodes:
            index = self._node_index.get(node)
            if index is not None:
                found.add(index)
        return found

    def d_separated(
        self,
        x: Iterable[GroundedAttribute] | GroundedAttribute,
        y: Iterable[GroundedAttribute] | GroundedAttribute,
        given: Iterable[GroundedAttribute] = (),
    ) -> bool:
        """d-separation in the grounded graph (used to verify adjustment sets).

        Bayes-ball reachability as boolean-mask frontier sweeps over the CSR
        arrays (:meth:`~repro.graph.csr.CSRGraph.dconnected_mask`).
        """
        given_ids = self._as_ids(given)
        x_ids = self._as_ids(x) - given_ids
        y_ids = self._as_ids(y) - given_ids
        if not x_ids or not y_ids:
            return True
        if x_ids & y_ids:
            return False
        reachable = self.csr().dconnected_mask(sorted(x_ids), sorted(given_ids))
        return not any(reachable[index] for index in y_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GroundedCausalGraph(nodes={len(self._nodes)}, "
            f"edges={self.number_of_edges()}, attributes={len(self._by_attribute)})"
        )
