"""Covariate detection: sufficient adjustment sets in the grounded graph.

Theorem 5.2 (Relational Adjustment Formula): to estimate
``E[Y[x'] | do(T[S] = t_S)]`` it suffices to adjust for a set ``Z`` of
*observed* grounded attributes such that

    Y[x']  _||_  union of Pa(T[x]) for x in S   |   (union of T[x], Z)

in the grounded causal graph, and choosing ``Z`` to be the observed parents
of the treated units that actually influence ``Y[x']`` (the set ``S'``)
always satisfies the criterion.  This module implements both: the
parents-based sufficient set used by the engine by default, and a
d-separation-verified (optionally minimized) set used by the ablation
benchmarks and tests.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.carl.causal_graph import GroundedAttribute, GroundedCausalGraph
from repro.graph.dseparation import d_separated, find_minimal_separator


def parent_adjustment_set(
    graph: GroundedCausalGraph,
    treatment_attribute: str,
    response_node: GroundedAttribute,
    treated_units: list[tuple[Any, ...]],
    is_observed: Callable[[str], bool],
) -> list[GroundedAttribute]:
    """The sufficient adjustment set of Theorem 5.2: observed parents of the
    treatments that influence ``response_node``.

    ``treated_units`` is the candidate intervention set ``S``; only the units
    with a directed path to the response (``S'``) contribute parents.
    ``is_observed`` decides whether a grounded attribute's *attribute name*
    is observed — latent attributes cannot be adjusted for.
    """
    adjustment: dict[GroundedAttribute, None] = {}
    for unit in treated_units:
        treatment_node = GroundedAttribute(treatment_attribute, unit)
        if treatment_node not in graph:
            continue
        if treatment_node != response_node and not graph.has_directed_path(
            treatment_node, response_node
        ):
            continue
        # id-ordered iteration: the discovery order of adjustment covariates
        # (and hence the unit table's column order) must be deterministic and
        # identical to collect_unit_table_inputs'.
        for parent in graph.parent_nodes(treatment_node):
            if parent.attribute == treatment_attribute:
                continue
            if is_observed(parent.attribute):
                adjustment.setdefault(parent, None)
    return list(adjustment)


def verify_adjustment_set(
    graph: GroundedCausalGraph,
    treatment_attribute: str,
    response_node: GroundedAttribute,
    treated_units: list[tuple[Any, ...]],
    adjustment: list[GroundedAttribute],
) -> bool:
    """Check the d-separation condition (Eq. 29) for a candidate set ``Z``.

    The condition is evaluated in the grounded graph: the response node must
    be d-separated from the union of the treatments' parents, given the
    treatment nodes and ``Z``.
    """
    treatment_nodes = [
        GroundedAttribute(treatment_attribute, unit)
        for unit in treated_units
        if GroundedAttribute(treatment_attribute, unit) in graph
    ]
    parent_union: set[GroundedAttribute] = set()
    for node in treatment_nodes:
        parent_union |= graph.parents(node)
    parent_union -= set(treatment_nodes)
    if not parent_union:
        return True
    conditioning = list(treatment_nodes) + list(adjustment)
    return d_separated(graph, [response_node], parent_union, conditioning)


def minimal_adjustment_set(
    graph: GroundedCausalGraph,
    treatment_attribute: str,
    response_node: GroundedAttribute,
    treated_units: list[tuple[Any, ...]],
    is_observed: Callable[[str], bool],
) -> list[GroundedAttribute]:
    """A minimal (not necessarily minimum) observed adjustment set.

    Starts from the parents-based sufficient set and greedily removes
    elements while the d-separation criterion of Theorem 5.2 keeps holding.
    Falls back to the parents-based set when minimization is not possible
    (e.g. the sufficient set itself fails the criterion because some parents
    are latent and unobservable).
    """
    candidate = parent_adjustment_set(
        graph, treatment_attribute, response_node, treated_units, is_observed
    )
    treatment_nodes = [
        GroundedAttribute(treatment_attribute, unit)
        for unit in treated_units
        if GroundedAttribute(treatment_attribute, unit) in graph
    ]
    parent_union: set[GroundedAttribute] = set()
    for node in treatment_nodes:
        parent_union |= graph.parents(node)
    parent_union -= set(treatment_nodes)
    if not parent_union:
        return []
    reduced = find_minimal_separator(
        graph,
        [response_node],
        parent_union,
        list(treatment_nodes) + candidate,
    )
    if reduced is None:
        return candidate
    # Drop the treatment nodes themselves; they are conditioned on separately.
    treatment_set = set(treatment_nodes)
    return [node for node in reduced if node not in treatment_set]


def adjustment_attributes(adjustment: list[GroundedAttribute]) -> list[str]:
    """Distinct attribute names appearing in an adjustment set, in stable order."""
    return list(dict.fromkeys(node.attribute for node in adjustment))
