"""The batched peer and adjustment-set walk against the per-unit oracle.

``compute_peers`` and ``collect_unit_table_inputs`` walk a block of units
at once (``GroundedCausalGraph.attribute_ancestor_pairs``).  Here they are
held to ``tests/row_oracle.py``'s unit-by-unit versions on random layered
graphs where the treatment reaches the response through intermediate
attributes, to Theorem 5.2 itself on the demo datasets, and to a work
count that does not grow with the number of units.
"""

from __future__ import annotations

import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import row_oracle
from repro.carl import peers as peers_module
from repro.carl import unit_table as unit_table_module
from repro.carl.causal_graph import GroundedAttribute, GroundedCausalGraph
from repro.carl.covariates import parent_adjustment_set, verify_adjustment_set
from repro.carl.engine import CaRLEngine
from repro.carl.errors import EstimationError
from repro.carl.parser import parse_query
from repro.carl.peers import compute_peers
from repro.carl.shard import shard_ranges
from repro.carl.unit_table import collect_unit_table_inputs, merge_unit_table_inputs
from repro.datasets import generate_mimic_data, generate_synthetic_review_data
from repro.graph import CSRGraph

VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, 0.0, 1.0, 2.5, -3.0]),
    st.sampled_from(["a", "b", "c"]),
)
MISSING = object()


@st.composite
def layered_setups(draw, max_attributes=7, max_keys=8):
    """A random grounded graph over a layered attribute DAG.

    Attributes ``A0..Ak`` are layered in index order and edges only run
    from a lower layer to a higher one, with a path from the treatment
    through at least one intermediate attribute to the response whenever
    the two are not adjacent layers.  Some attribute edges are dense (every
    head grounding takes every body grounding, like an aggregate).  Node
    ids are interned in a random order, and values may be missing, None,
    bool, numeric or strings.
    """
    count = draw(st.integers(3, max_attributes))
    names = [f"A{index}" for index in range(count)]
    treatment = draw(st.integers(0, count - 2))
    response = draw(st.integers(treatment + 1, count - 1))
    observed = {name: draw(st.booleans()) for name in names}
    keys = {name: draw(st.integers(1, max_keys)) for name in names}
    keys[names[response]] = keys[names[treatment]] = n_units = draw(st.integers(1, max_keys))

    attribute_edges = {
        (lower, upper)
        for lower in range(count)
        for upper in range(lower + 1, count)
        if draw(st.integers(0, 2)) == 0
    }
    # One chain T -> M -> Y through an intermediate layer, when there is one.
    chain = [treatment]
    if response - treatment >= 2:
        chain.append(draw(st.integers(treatment + 1, response - 1)))
    chain.append(response)
    attribute_edges.update(zip(chain, chain[1:]))

    nodes = [GroundedAttribute(name, (index,)) for name in names for index in range(keys[name])]
    edges = []
    for lower, upper in sorted(attribute_edges):
        dense = draw(st.integers(0, 3)) == 0
        for head in range(keys[names[upper]]):
            for body in range(keys[names[lower]]):
                if dense or draw(st.integers(0, 2)) == 0:
                    parent = GroundedAttribute(names[lower], (body,))
                    edges.append((parent, GroundedAttribute(names[upper], (head,))))
    graph = GroundedCausalGraph()
    for node in draw(st.permutations(nodes)):
        graph.add_node(node)
    for parent, child in edges:
        graph.add_edge(parent, child)

    values = {}
    for node in nodes:
        value = draw(st.one_of(st.just(MISSING), VALUES))
        if value is not MISSING:
            values[node] = value
    # Units in a random order, with a unit that has no nodes at all.
    units = draw(st.permutations([(index,) for index in range(n_units)] + [(n_units + 7,)]))
    start = draw(st.integers(0, len(units)))
    within = draw(st.one_of(st.none(), st.just(units[start : start + draw(st.integers(0, 4))])))
    block = draw(st.integers(1, 4))
    return graph, values, names[treatment], names[response], units, within, observed, block


def inputs_fields(inputs):
    return {name: getattr(inputs, name) for name in inputs.__dataclass_fields__}


def collect(collector, setup, units, peers, allow_empty=False):
    graph, values, treatment, response, _, _, observed, _ = setup
    try:
        return collector(
            graph,
            values,
            values.get,
            treatment,
            response,
            units,
            peers,
            observed.__getitem__,
            allow_empty=allow_empty,
        )
    except EstimationError as error:
        return error


def check_against_oracle(setup):
    graph, _, treatment, response, units, within, _, block = setup
    with patch.object(peers_module, "WALK_BLOCK", block), patch.object(
        unit_table_module, "WALK_BLOCK", block
    ):
        peers = compute_peers(graph, treatment, response, units, within)
        expected_peers = row_oracle.compute_peers(graph, treatment, response, units, within)
        assert peers == expected_peers
        assert list(peers) == list(expected_peers)

        inputs = collect(collect_unit_table_inputs, setup, units, peers)
        expected = collect(row_oracle.collect_unit_table_inputs, setup, units, peers)
        if isinstance(expected, EstimationError):
            assert isinstance(inputs, EstimationError)
            return
        assert inputs_fields(inputs) == inputs_fields(expected)
        assert list(inputs.buckets) == inputs.covariate_order

        # Consecutive slices, each walked with the whole unit list as peer
        # membership, merge back into the whole collection.
        parts = []
        for begin, end in shard_ranges(len(units), 3):
            part_peers = compute_peers(
                graph, treatment, response, units[begin:end], units if within is None else within
            )
            parts.append(
                collect(collect_unit_table_inputs, setup, units[begin:end], part_peers, True)
            )
        assert inputs_fields(merge_unit_table_inputs(parts)) == inputs_fields(inputs)


@given(layered_setups())
def test_batched_walk_matches_per_unit_oracle(setup):
    check_against_oracle(setup)


@pytest.mark.slow
@given(layered_setups(max_attributes=7, max_keys=14))
@settings(max_examples=400, deadline=None)
def test_batched_walk_matches_per_unit_oracle_exhaustive(setup):
    check_against_oracle(setup)


# ----------------------------------------------------------------------
# Theorem 5.2 on the demo datasets
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    ("dataset", "query"),
    [
        ("synthetic", "AVG_Score[A] <= Prestige[A] ?"),
        ("synthetic", "AVG_Score[A] <= Qualification[A] >= 30 ?"),
        ("mimic", "Death[P] <= Severity[P] >= 3 ?"),
        ("mimic", "Length[P] <= SelfPay[P] ?"),
    ],
)
def test_gathered_covariates_are_a_valid_adjustment_set(dataset, query):
    """A row's gathered covariate values are the valued members of the
    Theorem 5.2 parent set of ``[u] + peers[u]``, and d-separation accepts
    that set, on sampled units."""
    if dataset == "synthetic":
        data = generate_synthetic_review_data(n_authors=300, seed=1)
    else:
        data = generate_mimic_data(n_patients=400, seed=1)
    engine = CaRLEngine(data.database, data.program)
    plan = engine._plan(parse_query(query), "mean")
    treatment, response = plan.treatment, plan.response
    grounding, _, units, outcome = engine._units(plan)
    graph, values, is_observed = grounding.graph, grounding.values, engine.model.is_observed
    peers = compute_peers(graph, treatment, response, units)
    inputs = collect_unit_table_inputs(
        graph, values, outcome, treatment, response, units, peers, is_observed
    )
    rows: dict[int, list[tuple[str, object]]] = {}
    for name in inputs.covariate_order:
        for value, row in zip(*inputs.buckets[name]):
            rows.setdefault(row, []).append((name, value))

    for row in sorted(random.Random(7).sample(range(len(inputs.unit_keys)), 12)):
        unit = inputs.unit_keys[row]
        response_node = GroundedAttribute(response, unit)
        treated = [unit, *peers[unit]]
        adjustment = parent_adjustment_set(graph, treatment, response_node, treated, is_observed)
        treatment_node = GroundedAttribute(treatment, unit)
        reaches = treatment_node == response_node or graph.has_directed_path(
            treatment_node, response_node
        )
        own = set(graph.parent_nodes(treatment_node)) if reaches else set()
        expected = [
            (("own_" if node in own else "peer_") + node.attribute, values[node])
            for node in adjustment
            if node in values
        ]
        gathered = rows.get(row, [])
        assert sorted(gathered, key=repr) == sorted(expected, key=repr)
        assert verify_adjustment_set(graph, treatment, response_node, treated, adjustment)


# ----------------------------------------------------------------------
# work does not grow with the number of units
# ----------------------------------------------------------------------
def test_unit_table_sweeps_do_not_grow_with_units(monkeypatch):
    """Building ``ate_single``'s unit table makes as many full ancestor
    sweeps at synthetic-300 as at synthetic-150: none per unit."""
    sweep = CSRGraph.ancestor_mask
    calls: list[int] = []

    def counting(self, sources, include_sources=False):
        calls.append(1)
        return sweep(self, sources, include_sources)

    counts = []
    for n_authors in (150, 300):
        data = generate_synthetic_review_data(n_authors=n_authors, seed=1)
        engine = CaRLEngine(data.database, data.program)
        engine.graph  # noqa: B018 - grounded before the count starts
        monkeypatch.setattr(CSRGraph, "ancestor_mask", counting)
        calls.clear()
        table = engine.unit_table(data.queries["ate_single"])
        monkeypatch.setattr(CSRGraph, "ancestor_mask", sweep)
        assert len(table) > n_authors / 4
        counts.append(len(calls))
    assert counts[0] == counts[1], counts
