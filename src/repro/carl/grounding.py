"""Grounding relational causal rules against a relational skeleton.

Definition 3.5 of the paper: a rule ``A[X] <= A1[X1], ..., Ak[Xk] WHERE Q(Y)``
generates one grounded rule per satisfying assignment of the conjunctive
query ``Q`` over the skeleton.  This module grounds each rule from column
arrays, never one binding at a time:

* the condition's atoms evaluate to a column-major binding set
  (:class:`~repro.db.query.Bindings`), and each comparison to a boolean
  mask over it, evaluated once per distinct compared key;
* every head and body atom maps to node ids by lookup.  Declared nodes are
  interned first, attribute by attribute in schema order and each in
  :meth:`~repro.carl.schema.BoundInstance.units` order, so a declared
  node's id is its attribute's base offset plus its unit position: one
  ``dict`` lookup of the key per binding, at C level.  The other nodes
  (aggregate heads, and keys no unit holds) get the next ids in the order
  a binding-by-binding grounder interns them (see :class:`_Assembly`);
* each rule yields (parent id, child id) arrays, and one
  :meth:`~repro.graph.csr.CSRGraph.from_edges` call compiles them all.  The
  graph is built in one constructor call and never changes; a grounded
  head's bodies are read off it as the head's parents;
* node values are one id-indexed column with a held mask
  (:class:`~repro.carl.causal_graph.NodeValues`), and the aggregate heads
  of an attribute are valued in one CSR pass (:func:`head_values`).

``tests/grounding_oracle.py`` keeps the per-binding grounder this replaced;
the grounding tests hold this one to it id for id (``docs/grounding.md``).
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.carl.ast import AttributeAtom, Comparison, Condition, Variable
from repro.carl.causal_graph import (
    GroundedAttribute,
    GroundedCausalGraph,
    NodeValues,
    grounded_attributes,
    node_sort_key,
)
from repro.carl.errors import GroundingError
from repro.carl.model import RelationalCausalModel
from repro.carl.schema import BoundInstance
from repro.db.aggregates import aggregate as apply_aggregate
from repro.db.query import Atom as DbAtom
from repro.db.query import (
    Bindings,
    ConjunctiveQuery,
    first_codes,
    first_positions,
    gather_values,
)
from repro.db.query import Variable as DbVariable
from repro.db.table import as_object_array, not_none_mask
from repro.graph.csr import CSRGraph


@dataclass(frozen=True)
class Grounding:
    """One immutable grounding of a program, which queries read without a lock.

    ``graph`` is compiled before the snapshot is published and ``values``
    (observed and aggregated value of every grounded node, as one
    id-indexed column with a held mask; latent nodes hold none) is never
    written after, so any number of threads may walk them.  ``db_token`` is
    the database version token the snapshot was ground from.
    """

    graph: GroundedCausalGraph
    values: NodeValues
    db_token: tuple[Any, ...]


class _Assembly:
    """The node table, aggregate marks and edge id arrays of one grounding
    under construction, starting from every declared node: each attribute's
    ``units`` from its base offset in ``bases``.

    :meth:`intern` gives a node not yet in the table the next id, so the
    ids of nodes outside the declared ranges follow the order they are
    interned in: rule by rule in model order, within a rule head by head in
    first-binding order, each head followed by its new body nodes in
    ``node_sort_key`` order — the order a binding-by-binding grounder adds
    them in.
    """

    def __init__(self, bases: dict[str, int], units: Callable[[str], list[tuple[Any, ...]]]) -> None:
        #: declared attribute -> id of its first unit's node
        self.bases = bases
        self.nodes: list[GroundedAttribute] = []
        self.by_attribute: dict[str, list[int]] = {}
        for name, base in bases.items():
            keys = units(name)
            if keys:
                self.by_attribute[name] = list(range(base, base + len(keys)))
                self.nodes += grounded_attributes(name, keys)
        self.node_index = dict(zip(self.nodes, range(len(self.nodes))))
        self.aggregates: dict[GroundedAttribute, str] = {}
        self.parents: list[np.ndarray] = []
        self.children: list[np.ndarray] = []

    def intern(self, node: GroundedAttribute) -> int:
        index = self.node_index.get(node)
        if index is None:
            index = len(self.nodes)
            self.node_index[node] = index
            self.nodes.append(node)
            self.by_attribute.setdefault(node.attribute, []).append(index)
        return index

    def graph(self) -> GroundedCausalGraph:
        """The compiled graph: every rule's edges in one CSR build."""
        parents = np.concatenate(self.parents) if self.parents else np.empty(0, np.int64)
        children = np.concatenate(self.children) if self.children else np.empty(0, np.int64)
        csr = CSRGraph.from_edges(len(self.nodes), parents, children)
        return GroundedCausalGraph(
            self.nodes, self.node_index, self.by_attribute, self.aggregates, csr
        )


class Grounder:
    """Grounds a relational causal model against a bound instance."""

    def __init__(self, model: RelationalCausalModel, instance: BoundInstance) -> None:
        if model.schema is not instance.schema:
            # Not an error per se, but almost always a bug: the model was
            # validated against a different schema object.
            if model.schema.attribute_names != instance.schema.attribute_names:
                raise GroundingError(
                    "the model and the bound instance use different schemas"
                )
        self.model = model
        self.instance = instance

    # ------------------------------------------------------------------
    # condition evaluation
    # ------------------------------------------------------------------
    def condition_bindings(self, condition: Condition) -> Bindings:
        """All satisfying assignments of a rule/query condition, column-major."""
        atoms = [self._to_db_atom(atom.predicate, atom.terms) for atom in condition.atoms]
        bindings = ConjunctiveQuery(atoms).evaluate(self.instance.skeleton)
        if condition.comparisons and len(bindings):
            bindings = self._filter(condition.comparisons, bindings)
        return bindings

    def _to_db_atom(self, predicate: str, terms: tuple[Any, ...]) -> DbAtom:
        info = self.instance.schema.predicate(predicate)
        if len(terms) != len(info.keys):
            raise GroundingError(
                f"atom {predicate}({', '.join(map(str, terms))}) has arity {len(terms)} but "
                f"predicate {predicate!r} has {len(info.keys)} key(s)"
            )
        converted = tuple(
            DbVariable(term.name) if isinstance(term, Variable) else term for term in terms
        )
        return DbAtom(predicate=predicate, terms=converted)

    def _filter(self, comparisons: tuple[Comparison, ...], bindings: Bindings) -> Bindings:
        """The bindings every comparison holds for.

        Each comparison is one mask over the bindings it still has to
        decide.  The result, errors included, is that of evaluating binding
        by binding: a binding stops at its first comparison that does not
        hold, and the first binding (in order) whose stop raised re-raises
        that error.
        """
        undecided = np.arange(len(bindings))
        first_error: tuple[int, BaseException] | None = None
        for comparison in comparisons:
            holds, raised = self._comparison_outcome(comparison, bindings, undecided)
            for position, error in raised:
                row = int(undecided[position])
                if first_error is None or row < first_error[0]:
                    first_error = (row, error)
            undecided = undecided[holds]
            if not undecided.size:
                break
        if first_error is not None:
            raise first_error[1]
        if len(undecided) == len(bindings):
            return bindings
        return bindings.take(undecided)

    def _comparison_outcome(
        self, comparison: Comparison, bindings: Bindings, rows: np.ndarray
    ) -> tuple[np.ndarray, list[tuple[int, BaseException]]]:
        """Whether ``comparison`` holds for each binding of ``rows``, and the
        ``(position in rows, error)`` of the first binding of each distinct
        compared key whose evaluation raised.

        ``Comparison.evaluate`` runs once per distinct key (Python key
        equality, as a dict lookup sees it), and the results are gathered
        back per binding.  A variable the condition's atoms do not bind
        raises for every binding.
        """
        left = comparison.left
        try:
            if isinstance(left, Variable):
                if left.name not in bindings.names:
                    raise GroundingError(
                        f"comparison {comparison} uses unbound variable {left.name!r}"
                    )
                codes, first_of, _ = first_codes(gather_values(bindings.column(left.name), rows))
                distinct = list(first_of)
            else:
                # Attribute comparison, e.g. Blind[C] = "single": the key's
                # unit position picks the observed value; a key no unit holds
                # (or a latent attribute) compares as None.
                codes, first_of, _ = first_codes(self._unit_positions(left, bindings, rows).tolist())
                unit_values = self.instance.unit_values(left.name)
                distinct = [unit_values[key] if key >= 0 else None for key in first_of]
        except GroundingError as error:
            return np.zeros(len(rows), dtype=bool), [(0, error)]
        firsts = list(first_of.values())
        results = np.zeros(len(distinct), dtype=bool)
        raised: list[tuple[int, BaseException]] = []
        for code, value in enumerate(distinct):
            try:
                results[code] = bool(comparison.evaluate(value))
            except Exception as error:  # noqa: BLE001 - re-raised by _filter
                raised.append((firsts[code], error))
        return results[codes], raised

    # ------------------------------------------------------------------
    # node ids
    # ------------------------------------------------------------------
    def _key_columns(
        self, atom: AttributeAtom, bindings: Bindings, rows: np.ndarray | None = None
    ) -> list[Iterable[Any]]:
        """One value column per term of ``atom`` (over ``rows``, or every
        binding): a variable's values, or its constant repeated."""
        count = len(bindings) if rows is None else len(rows)
        names = bindings.names
        columns: list[Iterable[Any]] = []
        for term in atom.terms:
            if not isinstance(term, Variable):
                columns.append(itertools.repeat(term, count))
            elif term.name in names:
                column = bindings.column(term.name)
                columns.append(column if rows is None else gather_values(column, rows))
            elif count:
                raise GroundingError(
                    f"variable {term.name!r} of atom {atom} is not bound by the condition"
                )
            else:
                columns.append(())
        return columns

    def _unit_positions(
        self, atom: AttributeAtom, bindings: Bindings, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """The unit position of ``atom``'s key in each binding, -1 where no
        unit of its declared attribute holds the key."""
        count = len(bindings) if rows is None else len(rows)
        columns = self._key_columns(atom, bindings, rows)
        index = self.instance.unit_index(self.instance.schema.subject_of(atom.name))
        keys = columns[0] if len(columns) == 1 else zip(*columns)
        return np.fromiter(
            map(index.get, keys, itertools.repeat(-1)), dtype=np.int64, count=count
        )

    def atom_ids(
        self, graph: GroundedCausalGraph, atom: AttributeAtom, bindings: Bindings
    ) -> np.ndarray:
        """Each binding's node id of ``atom`` in ``graph``, a grounding of
        this grounder's, -1 where it has no such node: a declared node's id
        is its base offset plus its unit position, and only a key no unit
        holds is looked up."""
        positions = self._unit_positions(atom, bindings)
        ids = positions + self._bases()[atom.name]
        outside = np.flatnonzero(positions < 0)
        keys = self._key_tuples(atom, bindings, outside)
        ids[outside] = graph.node_ids(grounded_attributes(atom.name, keys))
        return ids

    def _declared_ids(
        self, assembly: _Assembly, atom: AttributeAtom, bindings: Bindings
    ) -> np.ndarray:
        """Each binding's node id of ``atom`` when it is a declared node
        (base offset + unit position), else -1."""
        base = assembly.bases.get(atom.name)
        if base is None or not len(bindings):
            self._key_columns(atom, bindings)  # an unbound variable still raises
            return np.full(len(bindings), -1, dtype=np.int64)
        positions = self._unit_positions(atom, bindings)
        return np.where(positions >= 0, positions + base, -1)

    def _key_tuples(
        self, atom: AttributeAtom, bindings: Bindings, rows: np.ndarray
    ) -> list[tuple[Any, ...]]:
        return list(zip(*self._key_columns(atom, bindings, rows)))

    # ------------------------------------------------------------------
    # rule grounding
    # ------------------------------------------------------------------
    def _ground_into(
        self,
        assembly: _Assembly,
        head: AttributeAtom,
        body: tuple[AttributeAtom, ...],
        condition: Condition,
        aggregate: str | None = None,
    ) -> np.ndarray:
        """Ground one rule into ``assembly`` and return its head id per
        binding.  Its (body id, head id) pairs join the assembly's edges."""
        bindings = self.condition_bindings(condition)
        head_ids = self._declared_ids(assembly, head, bindings)
        body_ids = [self._declared_ids(assembly, atom, bindings) for atom in body]
        if aggregate is not None or any((ids < 0).any() for ids in (head_ids, *body_ids)):
            self._intern_other(assembly, head, body, bindings, head_ids, body_ids, aggregate)
        for ids in body_ids:
            keep = ids != head_ids  # a self-loop adds no edge
            assembly.parents.append(ids[keep])
            assembly.children.append(head_ids[keep])
        return head_ids

    def _intern_other(
        self,
        assembly: _Assembly,
        head: AttributeAtom,
        body: tuple[AttributeAtom, ...],
        bindings: Bindings,
        head_ids: np.ndarray,
        body_ids: list[np.ndarray],
        aggregate: str | None,
    ) -> None:
        """Intern the nodes of one rule that are not declared nodes, and fill
        their ids into ``head_ids`` and ``body_ids`` (in place).

        Only the bindings that hold such a node are read in Python.  Heads
        are visited in first-binding order, each followed by its new body
        nodes in ``node_sort_key`` order; an aggregate rule marks each head.
        """
        count = len(bindings)
        other_head = head_ids < 0
        if other_head.any():
            # The first binding of each binding's head, by key equality.
            columns = self._key_columns(head, bindings)
            codes, first_of, _ = first_codes(list(zip(*columns) if len(columns) > 1 else columns[0]))
            firsts = np.fromiter(first_of.values(), dtype=np.int64, count=len(first_of))[codes]
        else:
            firsts = first_positions(head_ids)
        # New body nodes per head, in (binding, atom) order.
        cells: list[tuple[int, np.ndarray, list[GroundedAttribute]]] = []
        new_body: dict[int, dict[GroundedAttribute, None]] = {}
        entries: list[tuple[int, int, GroundedAttribute]] = []
        for position, (atom, ids) in enumerate(zip(body, body_ids)):
            rows = np.flatnonzero(ids < 0)
            if not rows.size:
                continue
            nodes = list(grounded_attributes(atom.name, self._key_tuples(atom, bindings, rows)))
            cells.append((position, rows, nodes))
            entries.extend(zip(rows.tolist(), itertools.repeat(position), nodes))
        entries.sort(key=lambda entry: entry[:2])
        for row, _, node in entries:
            new_body.setdefault(int(firsts[row]), {}).setdefault(node)
        # A head's bindings are all declared or all not, so the first binding
        # of each new head is one where ``firsts`` points at itself.
        head_first = firsts == np.arange(count)
        head_rows = np.flatnonzero(other_head & head_first)
        head_nodes = dict(
            zip(
                head_rows.tolist(),
                grounded_attributes(head.name, self._key_tuples(head, bindings, head_rows)),
            )
        )
        groups = head_nodes.keys() | new_body.keys()
        if aggregate is not None:  # every head is marked, declared ones too
            groups |= set(np.flatnonzero(head_first).tolist())
        group_ids = np.full(count, -1, dtype=np.int64)
        for row in sorted(groups):
            node = head_nodes.get(row)
            if node is not None:
                group_ids[row] = assembly.intern(node)
            if aggregate is not None:
                assembly.aggregates[node or assembly.nodes[head_ids[row]]] = aggregate
            for parent in sorted(new_body.get(row, ()), key=node_sort_key):
                assembly.intern(parent)
        head_ids[other_head] = group_ids[firsts[other_head]]
        node_id = assembly.node_index.__getitem__
        for position, rows, nodes in cells:
            body_ids[position][rows] = np.fromiter(
                map(node_id, nodes), dtype=np.int64, count=len(nodes)
            )

    def _bases(self) -> dict[str, int]:
        """Each declared attribute's base offset: declared nodes are interned
        attribute by attribute in schema order, each in unit order."""
        bases: dict[str, int] = {}
        offset = 0
        for name in self.model.schema.attribute_names:
            bases[name] = offset
            offset += len(self.instance.units(name))
        return bases

    # ------------------------------------------------------------------
    # graph assembly
    # ------------------------------------------------------------------
    def ground(self) -> GroundedCausalGraph:
        """Ground the program and assemble ``G(Phi_Delta)``.

        Every unit of every declared attribute is a node even when no rule
        mentions it (isolated attribute nodes carry observed values that may
        still serve as covariates).  No cycle check runs: the model rejects
        attribute-level cycles, and every grounded edge maps onto an
        attribute edge, so the graph of an accepted model is acyclic.
        """
        assembly = _Assembly(self._bases(), self.instance.units)
        for rule in self.model.rules:
            self._ground_into(assembly, rule.head, rule.body, rule.condition)
        for rule in self.model.aggregate_rules:
            self._ground_into(assembly, rule.head, (rule.body,), rule.condition, rule.aggregate)
        return assembly.graph()

    def grounded_attribute_values(self, graph: GroundedCausalGraph) -> NodeValues:
        """Observed values for every grounded node (aggregates are computed).

        ``graph`` is this grounder's :meth:`ground`, so a declared node's id
        is its attribute's base offset plus its unit position.  Latent
        attributes, and nodes no unit holds, hold no value.  Each observed
        attribute's values are one column of the bound instance; aggregate
        heads are valued attribute by attribute, bases before the
        aggregates over them.
        """
        column = np.full(len(graph), None, dtype=object)
        held = np.zeros(len(graph), dtype=bool)
        bases = self._bases()
        for name in self.model.schema.observed_attribute_names:
            unit_values = self.instance.unit_values(name)
            ids = slice(bases[name], bases[name] + len(unit_values))
            column[ids] = as_object_array(unit_values)
            held[ids] = True
        for aggregate, heads in _aggregate_heads(graph):
            owner, parents = graph.csr().parent_pairs(heads)
            column[heads] = as_object_array(
                head_values(column, aggregate, owner, parents, len(heads))
            )
            held[heads] = True
        return NodeValues(graph, column, held)


def _aggregate_heads(graph: GroundedCausalGraph) -> list[tuple[str, np.ndarray]]:
    """The aggregate heads of ``graph`` grouped by attribute, each group
    ascending by id and with its aggregate (one per attribute: the model
    rejects conflicting definitions), and an attribute's group after the
    groups of the aggregates it reads (nested aggregates)."""
    marks = graph.aggregate_marks
    grouped: dict[str, list[int]] = {}
    aggregate_of: dict[str, str] = {}
    for (node, aggregate), node_id in zip(marks.items(), graph.node_ids(marks).tolist()):
        grouped.setdefault(node.attribute, []).append(node_id)
        aggregate_of[node.attribute] = aggregate
    if len(grouped) > 1:
        # Parents before children in the attribute DAG the edges induce.
        layers = graph.attribute_layers()
        rank = {layers.names[code]: position for position, code in enumerate(reversed(layers.order))}
        grouped = dict(sorted(grouped.items(), key=lambda item: rank[item[0]]))
    return [
        (aggregate_of[name], np.sort(np.asarray(ids, dtype=np.int64)))
        for name, ids in grouped.items()
    ]


def head_values(
    column: np.ndarray,
    aggregate: str,
    owner: np.ndarray,
    parents: np.ndarray,
    count: int,
    admitted: np.ndarray | None = None,
) -> list[Any]:
    """The value of each of ``count`` aggregate heads: ``aggregate`` over
    the head's parents that carry a value (not None) in the id-indexed
    ``column``, or None when none does.

    Head ``owner[i]`` has parent node ``parents[i]``, the pairs ascending
    by owner and each head's parents by id: the CSR parents of declared
    heads (:meth:`~repro.graph.csr.CSRGraph.parent_pairs`), or a unifying
    response's relation (:class:`~repro.carl.peers.ResponseRelation`).
    ``admitted``, a mask over node ids, keeps only the parents it marks (a
    query's WHERE clause on the aggregated attribute's entity).  Each
    head's list goes to the scalar aggregate, so values stay bit-identical
    to aggregating head by head.
    """
    if admitted is not None:
        chosen = admitted[parents]
        owner, parents = owner[chosen], parents[chosen]
    gathered = column[parents]
    valued = not_none_mask(gathered)
    gathered = gathered[valued].tolist()
    counts = np.bincount(owner[valued], minlength=count).tolist()
    result: list[Any] = [None] * count
    stop = 0
    for head, number in enumerate(counts):
        start, stop = stop, stop + number
        if number:
            result[head] = apply_aggregate(aggregate, gathered[start:stop])
    return result
