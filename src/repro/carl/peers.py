"""Relational paths, treatment/response unification, and relational peers.

Section 4.3 of the paper.  When the treated units and the response units are
different entity sets (authors vs submissions), CaRL unifies them by
aggregating the response along a *relational path* between the two
predicates, producing an aggregated response attribute over the treated
units.  Relational *peers* of a unit are the other units whose treatment has
a directed path to the unit's (possibly aggregated) response in the grounded
causal graph (Definition 4.3).

:func:`compute_peers` finds them for a whole list of units with batched
walks and returns the walks' arrays (:class:`Peers`): each unit's peer
treatment node ids, and whether its own treatment reaches its response.
Unit-table collection consumes those arrays as they are, so no peer is ever
turned into a key tuple or a grounded-attribute object on the query path;
``tests/row_oracle.py`` keeps the unit-by-unit definition as a dict of peer
keys.  A unifying aggregate the program does not declare is never ground:
its rule is evaluated into a :class:`ResponseRelation`, which the walk
starts from instead of a head node.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from repro.carl.ast import AggregateRule, AttributeAtom, Condition, PredicateAtom, Variable
from repro.carl.causal_graph import WALK_BLOCK, GroundedAttribute, GroundedCausalGraph
from repro.carl.errors import QueryError
from repro.carl.schema import RelationalCausalSchema
from repro.db.query import Bindings
from repro.graph.csr import sorted_unique


# ----------------------------------------------------------------------
# relational paths
# ----------------------------------------------------------------------
def find_relational_path(
    schema: RelationalCausalSchema, start_entity: str, end_entity: str
) -> list[str]:
    """Shortest relational path between two entities, as an alternating list
    ``[entity, relationship, entity, ..., entity]`` (Definition 4.2).

    Raises :class:`QueryError` when the entities are not relationally
    connected, mirroring the paper's assumption that treatment and response
    units must be connected for the query to be meaningful.
    """
    if start_entity == end_entity:
        return [start_entity]

    # Build entity adjacency via relationships.
    adjacency: dict[str, list[tuple[str, str]]] = {name: [] for name in schema.entity_names}
    for relationship_name in schema.relationship_names:
        info = schema.predicate(relationship_name)
        referenced = list(dict.fromkeys(info.referenced_entities))
        for source in referenced:
            for target in referenced:
                if source != target:
                    adjacency[source].append((relationship_name, target))
        # A self-relationship (e.g. Collaboration(person, person)) connects an
        # entity to itself through the relationship.
        if len(referenced) == 1:
            adjacency[referenced[0]].append((relationship_name, referenced[0]))

    previous: dict[str, tuple[str, str]] = {}
    visited = {start_entity}
    frontier = deque([start_entity])
    while frontier:
        current = frontier.popleft()
        for relationship_name, neighbour in adjacency.get(current, ()):
            if neighbour in visited and neighbour != end_entity:
                continue
            if neighbour not in previous:
                previous[neighbour] = (current, relationship_name)
            if neighbour == end_entity:
                return _reconstruct_path(previous, start_entity, end_entity)
            if neighbour not in visited:
                visited.add(neighbour)
                frontier.append(neighbour)
    raise QueryError(
        f"entities {start_entity!r} and {end_entity!r} are not relationally connected; "
        "a causal query between them is not meaningful"
    )


def _reconstruct_path(
    previous: dict[str, tuple[str, str]], start: str, end: str
) -> list[str]:
    path = [end]
    current = end
    while current != start:
        parent, relationship = previous[current]
        path.append(relationship)
        path.append(parent)
        current = parent
    path.reverse()
    return path


# ----------------------------------------------------------------------
# unification of treated and response units
# ----------------------------------------------------------------------
def build_unifying_aggregate_rule(
    schema: RelationalCausalSchema,
    response_attribute: str,
    treatment_subject: str,
    aggregate: str = "AVG",
) -> AggregateRule:
    """Aggregate rule mapping the response attribute onto the treated units.

    Implements rule (21) of the paper: ``AGG_Y[X] <= Y[X'] WHERE R1(...), ...``
    where the condition is the relational path between the treatment subject
    and the response subject.  Only entity subjects are supported for the
    treatment side (the common case); the response may live on an entity or a
    relationship reachable from it.
    """
    response_subject = schema.subject_of(response_attribute)
    response_info = schema.predicate(response_subject)

    treatment_info = schema.predicate(treatment_subject)
    if not treatment_info.is_entity:
        raise QueryError(
            "unification requires the treated units to be an entity; "
            f"{treatment_subject!r} is a relationship"
        )

    # Target entity on the response side: the response subject itself when it
    # is an entity, otherwise the first referenced entity of the relationship
    # that is reachable from the treatment entity.
    if response_info.is_entity:
        target_entities = [response_subject]
    else:
        target_entities = list(dict.fromkeys(response_info.referenced_entities))

    path: list[str] | None = None
    target_used: str | None = None
    for candidate in target_entities:
        try:
            path = find_relational_path(schema, treatment_subject, candidate)
        except QueryError:
            continue
        target_used = candidate
        break
    if path is None or target_used is None:
        raise QueryError(
            f"no relational path connects the treated units ({treatment_subject!r}) to the "
            f"response attribute {response_attribute!r}"
        )

    # Assign one variable per entity occurrence along the path.
    entity_variables: dict[str, Variable] = {}

    def variable_for(entity: str) -> Variable:
        if entity not in entity_variables:
            entity_variables[entity] = Variable(f"V_{entity}")
        return entity_variables[entity]

    condition_atoms: list[PredicateAtom] = []
    for index in range(1, len(path), 2):
        relationship_name = path[index]
        info = schema.predicate(relationship_name)
        terms = tuple(variable_for(entity) for entity in info.referenced_entities)
        condition_atoms.append(PredicateAtom(predicate=relationship_name, terms=terms))

    # Head variable: the treatment entity; body variable(s): the response subject keys.
    head_variable = variable_for(treatment_subject)
    if response_info.is_entity:
        body_terms: tuple[Variable, ...] = (variable_for(response_subject),)
        if not condition_atoms:
            # Same entity on both sides; ground over the entity itself.
            condition_atoms.append(
                PredicateAtom(predicate=response_subject, terms=(variable_for(response_subject),))
            )
    else:
        body_terms = tuple(variable_for(entity) for entity in response_info.referenced_entities)
        condition_atoms.append(PredicateAtom(predicate=response_subject, terms=body_terms))

    head = AttributeAtom(name=f"{aggregate}_{response_attribute}", terms=(head_variable,))
    body = AttributeAtom(name=response_attribute, terms=body_terms)
    return AggregateRule(
        aggregate=aggregate,
        head=head,
        body=body,
        condition=Condition(atoms=tuple(condition_atoms)),
    )


class ResponseRelation(NamedTuple):
    """A unifying response over a unit list: unit ``positions[i]``
    aggregates base node ``nodes[i]`` by ``aggregate``.  The pairs are
    sorted and unique: the parents each unit's head would have if the rule
    were ground."""

    aggregate: str
    positions: np.ndarray
    nodes: np.ndarray

    @classmethod
    def evaluate(
        cls, rule: AggregateRule, bindings: Bindings, unit_of: dict[Any, int], nodes: np.ndarray
    ) -> "ResponseRelation":
        """The relation of a unifying ``rule`` from its condition's
        ``bindings``: a head key maps to its unit's position in ``unit_of``,
        and each binding's base key to its node id in ``nodes``.  A base key
        no unit holds has a node when another rule ground one (it may have
        ancestors); a key with no unit or no node is dropped (such a parent
        would carry no value and reach nothing)."""
        heads = bindings.column(rule.head.terms[0].name)
        positions = np.fromiter(
            map(unit_of.get, heads, itertools.repeat(-1)), dtype=np.int64, count=len(heads)
        )
        found = (positions >= 0) & (nodes >= 0)
        n = np.int64(nodes.max(initial=0) + 1)
        positions, nodes = np.divmod(sorted_unique(positions[found] * n + nodes[found]), n)
        return cls(rule.aggregate, positions, nodes)

    def slice(self, start: int, stop: int) -> "ResponseRelation":
        """The pairs of positions ``[start, stop)``, positions shifted by
        ``-start``: the relation over ``units[start:stop]``."""
        low, high = np.searchsorted(self.positions, (start, stop)).tolist()
        return ResponseRelation(
            self.aggregate, self.positions[low:high] - start, self.nodes[low:high]
        )


# ----------------------------------------------------------------------
# relational peers
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class Peers:
    """The relational peers of a list of walked units, as node-id arrays.

    ``peer_ids[indptr[i]:indptr[i + 1]]`` are the treatment node ids of
    unit ``units[i]``'s peers, ascending.  ``treatment_ids`` and
    ``response_ids`` are each unit's own treatment and response node ids
    (-1 when the graph has no such node), and ``own_reaches`` whether the
    unit's own treatment is or reaches its response (Theorem 5.2 adjusts
    for its parents only then); ``relation`` is a unifying response, which
    no node carries.  Unit-table collection reads these arrays as they are;
    :meth:`values`, :meth:`to_dict` and lookups by unit are views for
    inspection and the tests.
    """

    graph: GroundedCausalGraph
    treatment_attribute: str
    response_attribute: str
    units: list[tuple[Any, ...]]
    indptr: np.ndarray
    peer_ids: np.ndarray
    treatment_ids: np.ndarray
    response_ids: np.ndarray
    own_reaches: np.ndarray
    relation: ResponseRelation | None = None

    def __len__(self) -> int:
        return len(self.units)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self.units)

    def values(self) -> list[np.ndarray]:
        """Each walked unit's peer treatment node ids, in unit order."""
        return np.split(self.peer_ids, self.indptr[1:-1]) if self.units else []

    def to_dict(self) -> dict[tuple[Any, ...], list[tuple[Any, ...]]]:
        """``{unit: its peers' keys in node-id order}`` for every walked unit."""
        node_at = self.graph.node_at
        return {
            unit: [node_at(peer).key for peer in ids.tolist()]
            for unit, ids in zip(self.units, self.values())
        }

    def __getitem__(self, unit: tuple[Any, ...]) -> list[tuple[Any, ...]]:
        return self.to_dict()[unit]


def compute_peers(
    graph: GroundedCausalGraph,
    treatment_attribute: str,
    response_attribute: str,
    units: list[tuple[Any, ...]],
    within: list[tuple[Any, ...]] | None = None,
    relation: ResponseRelation | None = None,
) -> Peers:
    """Relational peers of every unit (Definition 4.3).

    ``units`` are the unified treatment/response unit keys.  A unit ``p`` is
    a peer of ``x`` when there is a directed path from ``T[p]`` to ``Y[x]``
    in the grounded graph, with ``p != x``; each unit's peers come in
    ascending node-id order of their treatment nodes, and a unit without a
    response node has none.  A ``relation`` over ``units`` gives ``Y[x]`` as
    the aggregate of ``x``'s base nodes, whose ancestors are its ancestors.

    ``within`` restricts peer *membership* independently of which units are
    walked: a shard worker computes peers for its unit-range slice only, but
    a sliced unit's peers must still be drawn from the full unit list — so
    the shard passes its slice as ``units`` and the full list as ``within``.
    Defaults to ``units`` (peer membership = walked units), the serial
    behavior.

    The units are walked in blocks of :data:`WALK_BLOCK`, each block in one
    batched walk (:meth:`GroundedCausalGraph.attribute_ancestor_pairs`);
    the same walk tells whether each unit's own treatment reaches its
    response.  Python runs once per unit (its node-id lookups), never per
    peer.
    """
    treatment_ids = graph.node_ids(GroundedAttribute(treatment_attribute, unit) for unit in units)
    if relation is None:
        response_ids = graph.node_ids(GroundedAttribute(response_attribute, unit) for unit in units)
        seed_positions = np.flatnonzero(response_ids >= 0)
        seeds = response_ids[seed_positions]
    else:
        response_ids = np.full(len(units), -1, dtype=np.int64)
        seed_positions, seeds = relation.positions, relation.nodes
    member_ids = (
        treatment_ids
        if within is None
        else graph.node_ids(GroundedAttribute(treatment_attribute, unit) for unit in within)
    )
    member = np.zeros(len(graph), dtype=bool)
    member[member_ids[member_ids >= 0]] = True
    own_reaches = (treatment_ids >= 0) & (treatment_ids == response_ids)
    counts = np.zeros(len(units), dtype=np.int64)
    chunks: list[np.ndarray] = []
    blocks = np.searchsorted(seed_positions, np.arange(0, len(units) + WALK_BLOCK, WALK_BLOCK))
    for block, start in enumerate(range(0, len(units), WALK_BLOCK)):
        stop = min(start + WALK_BLOCK, len(units))
        low, high = blocks[block], blocks[block + 1]
        positions, ancestors = graph.attribute_ancestor_pairs(
            seeds[low:high], treatment_attribute, seed_positions[low:high] - start
        )
        own = ancestors == treatment_ids[start:stop][positions]
        own_reaches[start + positions[own]] = True
        keep = member[ancestors] & ~own
        chunks.append(ancestors[keep])
        counts[start:stop] = np.bincount(positions[keep], minlength=stop - start)
    indptr = np.zeros(len(units) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return Peers(
        graph,
        treatment_attribute,
        response_attribute,
        list(units),
        indptr,
        np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64),
        treatment_ids,
        response_ids,
        own_reaches,
        relation,
    )
