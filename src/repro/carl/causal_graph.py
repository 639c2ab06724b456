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

Peers and adjustment sets need, for many responses at once, the groundings
of one attribute that reach each of them.
:meth:`GroundedCausalGraph.attribute_ancestor_pairs` answers that for a
whole block of ``(position, seed node)`` pairs in one walk over ``(position,
node)`` codes, one attribute layer at a time, using the attribute DAG the
graph's own edges induce (:meth:`GroundedCausalGraph.attribute_layers`).

The grounder builds a graph in bulk: it hands over the whole node table and
one compiled CSR (``_from_parts``).  Hand-built graphs use
``add_node``/``add_grounded_rule``, which append to plain Python buffers,
and the CSR is compiled on the next adjacency query.  The engine's graph is
the grounding of its program, compiled once and never mutated, so ``csr()``
on it is a pure read.
"""

from __future__ import annotations

import graphlib
import itertools
from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import Any, NamedTuple

import numpy as np

from repro.db.table import as_object_array
from repro.graph.csr import CSRGraph, CycleError, sorted_unique


class GroundedAttribute(NamedTuple):
    """A grounded attribute node ``A[x]``: attribute name + key constants."""

    attribute: str
    key: tuple[Any, ...]

    def __str__(self) -> str:
        rendered = ", ".join(repr(part) for part in self.key)
        return f"{self.attribute}[{rendered}]"


def grounded_attributes(
    attribute: str, keys: Iterable[tuple[Any, ...]]
) -> Iterator[GroundedAttribute]:
    """``GroundedAttribute(attribute, key)`` for each of ``keys``, built at
    C level: ``tuple.__new__`` skips the NamedTuple's Python constructor."""
    return map(
        tuple.__new__, itertools.repeat(GroundedAttribute), zip(itertools.repeat(attribute), keys)
    )


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


#: Sources per batched walk in the callers of
#: :meth:`GroundedCausalGraph.attribute_ancestor_pairs` (peers and
#: unit-table collection walk their units in blocks of this size).  It
#: bounds the pair arrays of one walk, and so the walk's peak memory;
#: collections over consecutive blocks concatenate exactly.
WALK_BLOCK = 512

_EMPTY = np.empty(0, dtype=np.int64)


class AttributeLayers(NamedTuple):
    """The attribute-level view of one compiled grounded graph.

    Attribute ``A`` has child ``B`` (over attribute codes) whenever some
    grounding of ``A`` is a parent of some grounding of ``B``, so every
    grounded path maps onto a path of this attribute DAG.  Codes number the
    attributes in first-intern order; ``order`` lists them children before
    parents (a reverse topological order).
    """

    csr: CSRGraph
    names: list[str]
    code_of: dict[str, int]
    node_code: np.ndarray
    children: list[list[int]]
    order: list[int]

    def downstream(self, code: int) -> np.ndarray:
        """Mask over attribute codes: ``code`` and its descendants."""
        mask = np.zeros(len(self.names), dtype=bool)
        stack = [code]
        while stack:
            current = stack.pop()
            if not mask[current]:
                mask[current] = True
                stack.extend(self.children[current])
        return mask


class GroundedRule(NamedTuple):
    """A grounded rule: head node, body nodes, and the originating rule index."""

    head: GroundedAttribute
    body: tuple[GroundedAttribute, ...]


class GroundedCausalGraph:
    """Interned-node DAG over grounded attributes with attribute-aware queries.

    Node ids are insertion-order ints; all ordered query results
    (``nodes_of``, ``parents_by_attribute``, ``attribute_ancestor_pairs``,
    ``edges``, ``topological_order``) are ordered by node id, which makes
    them deterministic and — for the common integer/string key tuples —
    matches the order the grounder discovered the units in.
    """

    def __init__(self) -> None:
        self._nodes: list[GroundedAttribute] = []
        self._node_index: dict[GroundedAttribute, int] = {}
        #: attribute name -> node ids (ascending: appended in intern order).
        self._by_attribute: dict[str, list[int]] = {}
        self._aggregates: dict[GroundedAttribute, str] = {}
        #: edges appended since the last CSR compile, as id pairs.
        self._pending_parents: list[int] = []
        self._pending_children: list[int] = []
        self._csr: CSRGraph | None = None
        #: derived from one compiled CSR; stale once ``csr()`` recompiles.
        self._layers: AttributeLayers | None = None

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

    @classmethod
    def _from_parts(
        cls,
        nodes: list[GroundedAttribute],
        node_index: dict[GroundedAttribute, int],
        by_attribute: dict[str, list[int]],
        aggregates: dict[GroundedAttribute, str],
        csr: CSRGraph,
    ) -> "GroundedCausalGraph":
        """A compiled graph over an interned node table, taken as given.

        The bulk path of the grounder (:class:`repro.carl.grounding.Grounder`)
        and of :func:`repro.cache.serialization.load_grounding`, which hold
        the id table and the edges as arrays already: nothing is interned
        node by node, and the CSR is adopted as-is (possibly memory-mapped).
        """
        graph = cls()
        graph._nodes = nodes
        graph._node_index = node_index
        graph._by_attribute = by_attribute
        graph._aggregates = aggregates
        graph._csr = csr
        return graph

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

    def node_ids(self, nodes: Iterable[GroundedAttribute]) -> np.ndarray:
        """Interned ids of ``nodes`` as an int64 array, -1 for unknown nodes."""
        index_get = self._node_index.get
        return np.fromiter((index_get(node, -1) for node in nodes), dtype=np.int64)

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

    def attribute_layers(self) -> AttributeLayers:
        """The attribute DAG of the compiled graph, computed once per compile.

        A published graph is never mutated, so its layers are computed on
        the first batched walk and shared by every later one.  Raises
        :class:`~repro.graph.csr.CycleError` when some groundings of one
        attribute reach each other (through any number of attributes): a
        program whose attribute dependencies are acyclic (the model rejects
        recursive rules) never grounds such a graph.
        """
        csr = self.csr()
        layers = self._layers
        if layers is not None and layers.csr is csr:
            return layers
        names = list(self._by_attribute)
        node_code = np.empty(csr.n, dtype=np.int64)
        for code, ids in enumerate(self._by_attribute.values()):
            node_code[ids] = code
        parents, children = csr.edge_arrays()
        count = len(names)
        attribute_children: list[list[int]] = [[] for _ in names]
        for edge in sorted_unique(node_code[parents] * count + node_code[children]).tolist():
            attribute_children[edge // count].append(edge % count)
        # Children come first when each code's children are its predecessors.
        # A stdlib sort rather than a CSRGraph compile: the DAG has a handful
        # of nodes.
        sorter = graphlib.TopologicalSorter(dict(enumerate(attribute_children)))
        try:
            order = list(sorter.static_order())
        except graphlib.CycleError:
            raise CycleError(
                "the attribute graph of this grounding has a cycle (a grounding of "
                "some attribute reaches another grounding of the same attribute); "
                "batched attribute walks need acyclic attribute dependencies"
            ) from None
        layers = AttributeLayers(
            csr,
            names,
            {name: code for code, name in enumerate(names)},
            node_code,
            attribute_children,
            order,
        )
        self._layers = layers
        return layers

    def attribute_ancestor_pairs(
        self, seeds: np.ndarray, attribute: str, positions: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched ancestors of one attribute: ``(positions, ancestors)``
        holds one pair per grounding ``ancestors[i]`` of ``attribute`` with a
        directed path to a seed of position ``positions[i]``, sorted by
        (position, node id).  Seed node ``seeds[j]`` is at position
        ``positions[j]`` (default ``j``), so a position may have any number
        of seeds.  A seed id of -1 (an absent node) has no ancestors, and a
        seed is not its own ancestor.

        One walk serves every seed.  It runs over int64 ``position * n +
        node`` codes, one attribute at a time, in the reverse topological
        order of :meth:`attribute_layers`: every child attribute of a layer is
        walked before it, so each layer is complete, and deduplicated once,
        when its turn comes.  Only attributes downstream of ``attribute`` are
        walked, since no other node lies on a path from one of its
        groundings.  Same precondition as :meth:`attribute_layers`.
        """
        layers = self.attribute_layers()
        target = layers.code_of.get(attribute)
        if target is None:
            return _EMPTY, _EMPTY
        downstream = layers.downstream(target)
        node_code = layers.node_code
        n = np.int64(layers.csr.n)
        pending: dict[int, list[np.ndarray]] = {}

        def push(positions: np.ndarray, nodes: np.ndarray) -> None:
            codes = node_code[nodes]
            for code in sorted_unique(codes[downstream[codes]]).tolist():
                chosen = codes == code
                pending.setdefault(code, []).append(positions[chosen] * n + nodes[chosen])

        seeds = np.asarray(seeds, dtype=np.int64)
        present = seeds >= 0
        positions = np.flatnonzero(present) if positions is None else positions[present]
        seeds = seeds[present]
        # A node is not its own ancestor, and no grounding of ``attribute``
        # reaches another one: a seed of the target layer contributes nothing.
        proper = node_code[seeds] != target
        push(positions[proper], seeds[proper])
        for code in layers.order:
            chunks = pending.pop(code, None)
            if chunks is None:
                continue
            positions, nodes = np.divmod(sorted_unique(np.concatenate(chunks)), n)
            if code == target:
                return positions, nodes
            owner, parents = layers.csr.parent_pairs(nodes)
            push(positions[owner], parents)
        return _EMPTY, _EMPTY

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

    def copy(self) -> "GroundedCausalGraph":
        """An independent graph with the same node ids, aggregate marks and
        edges; adding to the copy leaves this graph untouched."""
        return self._with_csr(self.csr())

    def do(self, nodes: Iterable[GroundedAttribute]) -> "GroundedCausalGraph":
        """Mutilated graph for an intervention on ``nodes``: the same node ids
        and aggregate marks, with every edge into an intervened node removed."""
        csr = self.csr()
        intervened = np.zeros(csr.n, dtype=bool)
        intervened[sorted(self._as_ids(nodes))] = True
        parents, children = csr.edge_arrays()
        keep = ~intervened[children]
        return self._with_csr(CSRGraph.from_edges(csr.n, parents[keep], children[keep]))

    def _with_csr(self, csr: CSRGraph) -> "GroundedCausalGraph":
        """A graph over this graph's nodes and aggregate marks with ``csr``
        as its (compiled, immutable) adjacency."""
        return GroundedCausalGraph._from_parts(
            list(self._nodes),
            dict(self._node_index),
            {name: list(ids) for name, ids in self._by_attribute.items()},
            dict(self._aggregates),
            csr,
        )

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


class NodeValues(Mapping[GroundedAttribute, Any]):
    """The values of a grounded graph's nodes, as one id-indexed column.

    ``column[i]`` is the value of node ``i`` and ``held[i]`` whether the
    node has one (a held value may be None; a latent node, or a key no unit
    holds, has none and reads None in the column).  Graph walks gather from
    the two arrays by node id.  As a mapping from held nodes to their values
    it is a read-only view for the public API (``CaRLEngine.values``,
    ``verify_adjustment_set``, the tests): each lookup resolves the node's
    id first.
    """

    __slots__ = ("graph", "column", "held")

    def __init__(self, graph: GroundedCausalGraph, column: np.ndarray, held: np.ndarray) -> None:
        self.graph = graph
        self.column = column
        self.held = held

    @classmethod
    def from_mapping(
        cls, graph: GroundedCausalGraph, values: Mapping[GroundedAttribute, Any]
    ) -> "NodeValues":
        """The column form of a node -> value mapping (nodes not in
        ``graph`` are dropped); ``values`` itself when it already is one
        over ``graph``."""
        if isinstance(values, NodeValues) and values.graph is graph:
            return values
        ids = graph.node_ids(values)
        known = ids >= 0
        column = np.full(len(graph), None, dtype=object)
        held = np.zeros(len(graph), dtype=bool)
        column[ids[known]] = as_object_array(list(values.values()))[known]
        held[ids[known]] = True
        return cls(graph, column, held)

    def __getitem__(self, node: GroundedAttribute) -> Any:
        index = self.graph.index_of(node)
        if index is None or not self.held[index]:
            raise KeyError(node)
        return self.column[index]

    def __iter__(self) -> Iterator[GroundedAttribute]:
        return map(self.graph.node_at, np.flatnonzero(self.held).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.held))
