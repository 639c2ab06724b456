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
  :meth:`~repro.graph.csr.CSRGraph.from_edges` call compiles them all;
* node values are one id-indexed column with a held mask
  (:class:`~repro.carl.causal_graph.NodeValues`), and the aggregate heads
  of an attribute are valued in one CSR pass (:func:`head_values`).

``tests/grounding_oracle.py`` keeps the per-binding grounder this replaced;
the grounding tests hold this one to it id for id (``docs/grounding.md``).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.carl.ast import (
    AggregateRule,
    AttributeAtom,
    CausalRule,
    Comparison,
    Condition,
    Variable,
)
from repro.carl.causal_graph import (
    GroundedAttribute,
    GroundedCausalGraph,
    GroundedRule,
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
    ``aggregate_rules`` counts the leading entries of the model's
    append-only ``aggregate_rules`` list that the graph covers: rules
    registered later are added by :meth:`Grounder.extend`, which yields a
    new snapshot and leaves this one as it is.
    """

    graph: GroundedCausalGraph
    values: NodeValues
    db_token: tuple[Any, ...]
    aggregate_rules: int


class _Assembly:
    """The node table, aggregate marks and edge id arrays of one grounding
    under construction.

    :meth:`intern` gives a node not yet in the table the next id, so the
    ids of nodes outside the declared ranges follow the order they are
    interned in: rule by rule in model order, within a rule head by head in
    first-binding order, each head followed by its new body nodes in
    ``node_sort_key`` order — the order a binding-by-binding grounder adds
    them in.
    """

    def __init__(
        self,
        nodes: list[GroundedAttribute],
        node_index: dict[GroundedAttribute, int],
        by_attribute: dict[str, list[int]],
        aggregates: dict[GroundedAttribute, str],
        bases: dict[str, int],
    ) -> None:
        self.nodes = nodes
        self.node_index = node_index
        self.by_attribute = by_attribute
        self.aggregates = aggregates
        #: declared attribute -> id of its first unit's node
        self.bases = bases
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
        return GroundedCausalGraph._from_parts(  # noqa: SLF001 - the grounder's bulk path
            self.nodes, self.node_index, self.by_attribute, self.aggregates, csr
        )


class Grounder:
    """Grounds a relational causal model against a bound instance.

    :meth:`ground` grounds the model's causal rules and the aggregate rules
    it held when the grounder was made (``aggregate_rules`` of them: for an
    engine, the program as written).  Aggregate rules registered on the
    model later are spliced in by :meth:`extend`.
    """

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
        self.aggregate_rules = len(model.aggregate_rules)

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

    def _assembly(self) -> _Assembly:
        """An assembly holding every declared node."""
        bases = self._bases()
        nodes: list[GroundedAttribute] = []
        by_attribute: dict[str, list[int]] = {}
        for name, base in bases.items():
            units = self.instance.units(name)
            if units:
                by_attribute[name] = list(range(base, base + len(units)))
                nodes += grounded_attributes(name, units)
        return _Assembly(nodes, dict(zip(nodes, range(len(nodes)))), by_attribute, {}, bases)

    def _grounded_rules(
        self,
        head: AttributeAtom,
        body: tuple[AttributeAtom, ...],
        condition: Condition,
        aggregate: str | None = None,
    ) -> list[GroundedRule]:
        """One rule's groundings, read back from its id arrays: one grounded
        rule per head in first-binding order, its body in ``node_sort_key``
        order."""
        assembly = self._assembly()
        head_ids = self._ground_into(assembly, head, body, condition, aggregate)
        first_binding = first_positions(head_ids) == np.arange(len(head_ids))
        bodies: dict[int, set[int]] = {head_id: set() for head_id in head_ids[first_binding].tolist()}
        for parents, children in zip(assembly.parents, assembly.children):
            for parent, child in zip(parents.tolist(), children.tolist()):
                bodies[child].add(parent)
        nodes = assembly.nodes
        return [
            GroundedRule(
                head=nodes[head_id],
                body=tuple(sorted((nodes[parent] for parent in parents), key=node_sort_key)),
            )
            for head_id, parents in bodies.items()
        ]

    def ground_rule(self, rule: CausalRule) -> list[GroundedRule]:
        """All groundings of one relational causal rule."""
        return self._grounded_rules(rule.head, rule.body, rule.condition)

    def ground_aggregate_rule(self, rule: AggregateRule) -> list[GroundedRule]:
        """All groundings of one aggregate rule (head nodes are aggregate nodes)."""
        return self._grounded_rules(rule.head, (rule.body,), rule.condition, rule.aggregate)

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
        assembly = self._assembly()
        for rule in self.model.rules:
            self._ground_into(assembly, rule.head, rule.body, rule.condition)
        for rule in self.model.aggregate_rules[: self.aggregate_rules]:
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
        for heads in _aggregate_heads(graph):
            column[heads] = as_object_array(head_values(graph, column, heads))
            held[heads] = True
        return NodeValues(graph, column, held)

    def extend(self, grounding: Grounding) -> Grounding:
        """``grounding`` plus the model's aggregate rules registered after it.

        The new rules are ground through the same array path as
        :meth:`ground`, on top of the snapshot's nodes and edges, and the
        result compiles once, whatever the number of new heads.  A head
        already in the snapshot keeps its id.
        """
        rules = self.model.aggregate_rules[grounding.aggregate_rules :]
        old = grounding.graph
        assembly = _Assembly(
            list(old._nodes),  # noqa: SLF001 - the snapshot is never mutated
            dict(old._node_index),  # noqa: SLF001
            {name: list(ids) for name, ids in old._by_attribute.items()},  # noqa: SLF001
            dict(old._aggregates),  # noqa: SLF001
            self._bases(),
        )
        old_parents, old_children = old.csr().edge_arrays()
        assembly.parents.append(old_parents)
        assembly.children.append(old_children)
        heads = [
            self._ground_into(assembly, rule.head, (rule.body,), rule.condition, rule.aggregate)
            for rule in rules
        ]
        graph = assembly.graph()
        column = np.full(len(graph), None, dtype=object)
        held = np.zeros(len(graph), dtype=bool)
        column[: len(old)] = grounding.values.column
        held[: len(old)] = grounding.values.held
        new_heads = dict.fromkeys(np.concatenate(heads).tolist()) if heads else {}
        for attribute_heads in _aggregate_heads(graph, new_heads):
            column[attribute_heads] = as_object_array(head_values(graph, column, attribute_heads))
            held[attribute_heads] = True
        return Grounding(
            graph,
            NodeValues(graph, column, held),
            grounding.db_token,
            grounding.aggregate_rules + len(rules),
        )


def _aggregate_heads(
    graph: GroundedCausalGraph, heads: Iterable[int] | None = None
) -> list[np.ndarray]:
    """The aggregate heads of ``graph`` (or the given head ids), grouped by
    attribute and ascending by id, with an attribute's group after the
    groups of the aggregates it reads (nested aggregates)."""
    nodes = graph._nodes  # noqa: SLF001
    if heads is None:
        index = graph._node_index  # noqa: SLF001
        heads = [index[node] for node in graph._aggregates]  # noqa: SLF001
    grouped: dict[str, list[int]] = {}
    for head in heads:
        grouped.setdefault(nodes[head].attribute, []).append(head)
    if len(grouped) > 1:
        # Parents before children in the attribute DAG the edges induce.
        layers = graph.attribute_layers()
        rank = {layers.names[code]: position for position, code in enumerate(reversed(layers.order))}
        grouped = dict(sorted(grouped.items(), key=lambda item: rank[item[0]]))
    return [np.sort(np.asarray(ids, dtype=np.int64)) for ids in grouped.values()]


def head_values(
    graph: GroundedCausalGraph,
    column: np.ndarray,
    heads: np.ndarray,
    admitted: np.ndarray | None = None,
) -> list[Any]:
    """The value of each aggregate node of ``heads``: its aggregate over the
    parents that carry a value (not None) in the id-indexed ``column``, or
    None when none does.

    ``admitted``, a mask over node ids, keeps only the parents it marks (a
    query's WHERE clause on the aggregated attribute's entity).  The parents
    of every head are gathered in one CSR pass (ascending by id) and each
    head's list aggregated by the scalar aggregate, so values stay
    bit-identical to aggregating head by head.  A head id of -1 (an absent
    node) reads None.
    """
    heads = np.asarray(heads, dtype=np.int64)
    present = heads >= 0
    owner, parents = graph.csr().parent_pairs(heads[present])
    if admitted is not None:
        chosen = admitted[parents]
        owner, parents = owner[chosen], parents[chosen]
    gathered = column[parents]
    valued = not_none_mask(gathered)
    gathered = gathered[valued].tolist()
    counts = np.bincount(owner[valued], minlength=int(present.sum())).tolist()
    nodes = graph._nodes  # noqa: SLF001
    aggregates = graph._aggregates  # noqa: SLF001
    result: list[Any] = [None] * len(heads)
    stop = 0
    for position, head, count in zip(
        np.flatnonzero(present).tolist(), heads[present].tolist(), counts
    ):
        start, stop = stop, stop + count
        if count:
            result[position] = apply_aggregate(aggregates[nodes[head]], gathered[start:stop])
    return result
