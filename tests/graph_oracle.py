"""Dict-of-dicts DAG and Bayes-ball d-separation: the graph-walk oracle.

The program walks grounded causal graphs on one representation:
:class:`repro.graph.csr.CSRGraph`, wrapped by
:class:`repro.carl.causal_graph.GroundedCausalGraph`.  This module keeps the
straight transcriptions that representation replaced, for tests only:

* :class:`DAG` — insertion-ordered dict-of-dicts adjacency with
  ancestor/descendant queries, Kahn topological order and the do-operator;
* :func:`d_separated` — the classic Bayes-ball traversal over
  ``(node, direction)`` states, one Python frame per visited state.

``tests/test_csr_graph.py`` builds random graphs both ways and holds the CSR
walks to this oracle; ``tests/test_dag.py`` pins the oracle itself.  Never
"fix" a parity failure by changing this module unless the specification
itself is wrong.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable, Iterator
from typing import Any

from repro.graph import CycleError


class DAG:
    """A directed graph with helpers for causal reasoning.

    Nodes may be any hashable object.  Edges are directed ``parent -> child``
    and self-loops are rejected.  Acyclicity is *not* enforced on every edge
    insertion (grounding adds edges in bulk); call :meth:`validate_acyclic`
    or :meth:`topological_order` to check.
    """

    def __init__(self) -> None:
        # Inner dicts are used as insertion-ordered sets (values are None).
        self._parents: dict[Hashable, dict[Hashable, None]] = {}
        self._children: dict[Hashable, dict[Hashable, None]] = {}
        self._node_data: dict[Hashable, dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Hashable, **data: Any) -> None:
        """Add ``node`` (idempotent); keyword arguments become node metadata."""
        if node not in self._parents:
            self._parents[node] = {}
            self._children[node] = {}
            self._node_data[node] = {}
        if data:
            self._node_data[node].update(data)

    def add_edge(self, parent: Hashable, child: Hashable) -> None:
        """Add the directed edge ``parent -> child``, creating missing nodes."""
        if parent == child:
            raise ValueError(f"self-loop not allowed: {parent!r}")
        self.add_node(parent)
        self.add_node(child)
        self._children[parent][child] = None
        self._parents[child][parent] = None

    def remove_edge(self, parent: Hashable, child: Hashable) -> None:
        """Remove the edge ``parent -> child`` if present."""
        children = self._children.get(parent)
        if children is not None:
            children.pop(child, None)
        parents = self._parents.get(child)
        if parents is not None:
            parents.pop(parent, None)

    def remove_node(self, node: Hashable) -> None:
        """Remove ``node`` and every incident edge."""
        if node not in self._parents:
            return
        for parent in self._parents.pop(node):
            self._children[parent].pop(node, None)
        for child in self._children.pop(node):
            self._parents[child].pop(node, None)
        self._node_data.pop(node, None)

    def copy(self) -> "DAG":
        """Return a structural copy (node metadata is shallow-copied)."""
        clone = DAG()
        for node, data in self._node_data.items():
            clone.add_node(node, **data)
        for child, parents in self._parents.items():
            for parent in parents:
                clone.add_edge(parent, child)
        return clone

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def __contains__(self, node: Hashable) -> bool:
        return node in self._parents

    def __len__(self) -> int:
        return len(self._parents)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._parents)

    @property
    def nodes(self) -> list[Hashable]:
        """All nodes, in insertion order."""
        return list(self._parents)

    @property
    def edges(self) -> list[tuple[Hashable, Hashable]]:
        """All edges as ``(parent, child)`` pairs, in insertion order."""
        return [
            (parent, child)
            for parent, children in self._children.items()
            for child in children
        ]

    def number_of_edges(self) -> int:
        return sum(len(children) for children in self._children.values())

    def node_data(self, node: Hashable) -> dict[str, Any]:
        """Metadata dict attached to ``node``."""
        return self._node_data[node]

    def has_edge(self, parent: Hashable, child: Hashable) -> bool:
        children = self._children.get(parent)
        return children is not None and child in children

    def parents(self, node: Hashable) -> set[Hashable]:
        """Direct parents (empty set for unknown nodes)."""
        return set(self._parents.get(node, ()))

    def children(self, node: Hashable) -> set[Hashable]:
        """Direct children (empty set for unknown nodes)."""
        return set(self._children.get(node, ()))

    def roots(self) -> list[Hashable]:
        """Nodes with no parents."""
        return [node for node, parents in self._parents.items() if not parents]

    def leaves(self) -> list[Hashable]:
        """Nodes with no children."""
        return [node for node, children in self._children.items() if not children]

    # ------------------------------------------------------------------
    # reachability
    # ------------------------------------------------------------------
    def ancestors(self, node: Hashable) -> set[Hashable]:
        """All nodes with a directed path *to* ``node`` (excluding itself)."""
        return self._reach(node, self._parents)

    def descendants(self, node: Hashable) -> set[Hashable]:
        """All nodes with a directed path *from* ``node`` (excluding itself)."""
        return self._reach(node, self._children)

    def ancestors_of_set(self, nodes: Iterable[Hashable]) -> set[Hashable]:
        """Union of the ancestors of every node in ``nodes``, plus the nodes."""
        result: set[Hashable] = set()
        for node in nodes:
            if node in self:
                result.add(node)
                result |= self.ancestors(node)
        return result

    def has_directed_path(self, source: Hashable, target: Hashable) -> bool:
        """True when there is a directed path from ``source`` to ``target``."""
        if source not in self or target not in self:
            return False
        if source == target:
            return True
        return target in self.descendants(source)

    def _reach(
        self, node: Hashable, adjacency: dict[Hashable, dict[Hashable, None]]
    ) -> set[Hashable]:
        if node not in self._parents:
            return set()
        seen: set[Hashable] = set()
        frontier = deque(adjacency[node])
        while frontier:
            current = frontier.popleft()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(
                neighbour for neighbour in adjacency[current] if neighbour not in seen
            )
        return seen

    # ------------------------------------------------------------------
    # ordering / validation
    # ------------------------------------------------------------------
    def topological_order(self) -> list[Hashable]:
        """Kahn's algorithm; raises :class:`CycleError` on cyclic graphs."""
        in_degree = {node: len(parents) for node, parents in self._parents.items()}
        queue = deque(node for node, degree in in_degree.items() if degree == 0)
        order: list[Hashable] = []
        while queue:
            node = queue.popleft()
            order.append(node)
            for child in self._children[node]:
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    queue.append(child)
        if len(order) != len(self._parents):
            raise CycleError("graph contains a directed cycle")
        return order

    def is_acyclic(self) -> bool:
        """True when the graph has no directed cycle."""
        try:
            self.topological_order()
        except CycleError:
            return False
        return True

    def validate_acyclic(self) -> None:
        """Raise :class:`CycleError` when the graph has a directed cycle."""
        self.topological_order()

    # ------------------------------------------------------------------
    # causal-graph surgery
    # ------------------------------------------------------------------
    def do(self, nodes: Iterable[Hashable]) -> "DAG":
        """Return the mutilated graph of an intervention on ``nodes``.

        Following Pearl's do-operator, every edge *into* an intervened node
        is removed; the rest of the graph is unchanged.
        """
        mutilated = self.copy()
        for node in nodes:
            for parent in mutilated.parents(node):
                mutilated.remove_edge(parent, node)
        return mutilated

    def subgraph(self, nodes: Iterable[Hashable]) -> "DAG":
        """Induced subgraph on ``nodes``, preserving this graph's node order."""
        keep = {node for node in nodes if node in self}
        sub = DAG()
        for node in self._parents:
            if node in keep:
                sub.add_node(node, **self._node_data[node])
        for node in self._children:
            if node not in keep:
                continue
            for child in self._children[node]:
                if child in keep:
                    sub.add_edge(node, child)
        return sub

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DAG(nodes={len(self)}, edges={self.number_of_edges()})"


def _reachable(graph: DAG, sources: set[Hashable], given: set[Hashable]) -> set[Hashable]:
    """Nodes d-connected to any node in ``sources`` conditioned on ``given``."""
    # Ancestors of the conditioning set: a collider is "active" iff it or one
    # of its descendants is observed, i.e. iff the collider is an ancestor of
    # (or in) the conditioning set.
    conditioning_ancestors = graph.ancestors_of_set(given)

    # States are (node, direction) where direction 'up' means we arrived at
    # the node travelling against an edge (from a child), and 'down' means we
    # arrived travelling along an edge (from a parent).
    # Order-insensitive: the BFS returns a membership set, so the frontier's
    # seeding order cannot leak into any caller-visible ordering.
    frontier: deque[tuple[Hashable, str]] = deque((s, "up") for s in sources)
    visited: set[tuple[Hashable, str]] = set()
    reachable: set[Hashable] = set()

    while frontier:
        node, direction = frontier.popleft()
        if (node, direction) in visited:
            continue
        visited.add((node, direction))

        if node not in given:
            reachable.add(node)

        if direction == "up" and node not in given:
            # Arrived from a child; can continue to parents (chain) and to
            # children (fork at this node).
            for parent in graph.parents(node):
                frontier.append((parent, "up"))
            for child in graph.children(node):
                frontier.append((child, "down"))
        elif direction == "down":
            if node not in given:
                # Chain: keep moving to children.
                for child in graph.children(node):
                    frontier.append((child, "down"))
            if node in conditioning_ancestors:
                # Collider (or ancestor of the conditioning set): the path
                # through this node's parents is active.
                for parent in graph.parents(node):
                    frontier.append((parent, "up"))
    return reachable


def d_separated(
    graph: DAG,
    x: Iterable[Hashable] | Hashable,
    y: Iterable[Hashable] | Hashable,
    given: Iterable[Hashable] = (),
) -> bool:
    """Return True when ``x`` and ``y`` are d-separated by ``given`` in ``graph``.

    ``x`` and ``y`` may be single nodes or iterables of nodes; the statement
    holds when *every* node of ``x`` is d-separated from *every* node of
    ``y``.  Nodes in the conditioning set are excluded from both sides.
    """
    x_set = _as_set(graph, x)
    y_set = _as_set(graph, y)
    given_set = _as_set(graph, given)
    x_set -= given_set
    y_set -= given_set
    if not x_set or not y_set:
        return True
    if x_set & y_set:
        return False
    reachable = _reachable(graph, x_set, given_set)
    return not (reachable & y_set)


def _as_set(graph: DAG, nodes: Iterable[Hashable] | Hashable) -> set[Hashable]:
    # A single node may itself be iterable (e.g. a grounded attribute is a
    # NamedTuple); if the argument is a graph node, treat it as one node.
    if isinstance(nodes, Hashable):
        try:
            if nodes in graph:
                return {nodes}
        except TypeError:  # unhashable despite the isinstance check
            pass
    if isinstance(nodes, (str, bytes)) or not isinstance(nodes, Iterable):
        return set()
    return {node for node in nodes if node in graph}
