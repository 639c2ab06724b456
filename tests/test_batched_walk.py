"""The batched peer and adjustment-set walk against the per-unit oracle.

``compute_peers`` and ``collect_unit_table_inputs`` walk a block of units
at once (``GroundedCausalGraph.attribute_ancestor_pairs``) and gather into
id and code arrays.  Here they are held to ``tests/row_oracle.py``'s
unit-by-unit versions (production collections decoded to row form first)
on random layered graphs where the treatment reaches the response through
intermediate attributes, and so are the unit tables materialized from the
whole and the merged-shard collections; to Theorem 5.2 itself on the demo
datasets; and to work counts that do not grow with the number of units or
peer pairs.
"""

from __future__ import annotations

import random
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import row_oracle
from repro.carl import peers as peers_module
from repro.carl.ast import COMPARISON_OPERATORS, AttributeAtom, Comparison, Variable
from repro.carl.causal_graph import GroundedAttribute, GroundedCausalGraph, NodeValues
from repro.carl.covariates import parent_adjustment_set, verify_adjustment_set
from repro.carl.engine import CaRLEngine
from repro.carl.errors import EstimationError
from repro.carl.parser import parse_query
from repro.carl.peers import compute_peers
from repro.carl.shard import shard_ranges
from repro.carl import unit_table as unit_table_module
from repro.carl.unit_table import (
    collect_unit_table_inputs,
    materialize_unit_table,
    merge_unit_table_inputs,
)
from repro.datasets import generate_mimic_data, generate_synthetic_review_data
from repro.graph import CSRGraph

#: One NaN object: a value keys by identity, so every NaN cell is one key.
NAN = float("nan")
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, 0.0, 1.0, 2.5, -3.0, NAN]),
    st.sampled_from(["a", "b", "c"]),
)
#: A categorical column whose equal-but-distinct keys pin first-seen order
#: and category labels.
KEYS = st.sampled_from(["a", 1, 1.0, True, NAN])
BINARY = st.sampled_from([None, 0, 1, 0.0, 1.0, True, False])
THRESHOLDS = st.builds(
    Comparison,
    st.just(AttributeAtom("T", (Variable("X"),))),
    st.sampled_from(COMPARISON_OPERATORS),
    st.sampled_from([0, 1, 2.5, "b"]),
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
    bool, numeric, NaN or strings; one attribute's values are :data:`KEYS`.
    The draw picks a treatment threshold, or none, and then treatments are
    mostly binary.
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

    threshold = draw(st.one_of(st.none(), THRESHOLDS))
    binary = threshold is None and draw(st.integers(0, 3)) > 0
    # The keyed attribute is a covariate (a parent layer of the treatment)
    # whenever the treatment has one.
    parents = [names[lower] for lower, upper in attribute_edges if upper == treatment]
    keyed = draw(st.sampled_from(sorted(parents) or names))
    values = {}
    for node in nodes:
        if node.attribute == keyed:
            drawn = KEYS
        elif binary and node.attribute == names[treatment]:
            drawn = BINARY
        else:
            drawn = VALUES
        value = draw(st.one_of(st.just(MISSING), drawn))
        if value is not MISSING:
            values[node] = value
    # Units in a random order, with a unit that has no nodes at all.
    units = draw(st.permutations([(index,) for index in range(n_units)] + [(n_units + 7,)]))
    start = draw(st.integers(0, len(units)))
    within = draw(st.one_of(st.none(), st.just(units[start : start + draw(st.integers(0, 4))])))
    block = draw(st.integers(1, 4))
    return (
        graph, values, names[treatment], names[response], units, within, observed, block, threshold
    )


def outcome_of(attempt):
    """The result of ``attempt()``, or the error it raised as (class, message)."""
    try:
        return attempt()
    except Exception as error:  # noqa: BLE001 - compared across paths
        return type(error), str(error)


def same_table(expected, actual) -> bool:
    if isinstance(expected, tuple) or isinstance(actual, tuple):
        return expected == actual
    return expected.equals(actual)


def check_against_oracle(setup):
    graph, values, treatment, response, units, within, observed, block, threshold = setup
    is_observed = observed.__getitem__
    column = NodeValues.from_mapping(graph, values)
    binarize = None
    if threshold is not None:
        binarize = lambda value: 1.0 if threshold.evaluate(value) else 0.0  # noqa: E731
    with patch.object(peers_module, "WALK_BLOCK", block), patch.object(
        unit_table_module, "WALK_BLOCK", block
    ):
        peers = compute_peers(graph, treatment, response, units, within)
        expected_peers = row_oracle.compute_peers(graph, treatment, response, units, within)
        assert peers.to_dict() == expected_peers
        assert list(peers) == list(expected_peers)
        assert sum(map(len, peers.values())) == sum(map(len, expected_peers.values()))

        inputs = outcome_of(lambda: collect_unit_table_inputs(graph, column, peers, is_observed))
        expected = outcome_of(
            lambda: row_oracle.collect_unit_table_inputs(
                graph, values, values.get, treatment, response, units, expected_peers, is_observed
            )
        )
        table = outcome_of(
            lambda: row_oracle.build_unit_table(
                graph, values, treatment, response, units, expected_peers, is_observed,
                binarize=binarize,
            )
        )
        if isinstance(expected, tuple):
            assert inputs == expected
            assert table == expected
            return
        assert row_oracle.RowInputs.decode(inputs) == expected

        # Consecutive slices, each walked with the whole unit list as peer
        # membership, merge back into the whole collection.
        parts = [
            collect_unit_table_inputs(
                graph,
                column,
                compute_peers(
                    graph, treatment, response, units[begin:end],
                    units if within is None else within,
                ),
                is_observed,
                allow_empty=True,
            )
            for begin, end in shard_ranges(len(units), 3)
        ]
        merged = merge_unit_table_inputs(parts)
        assert row_oracle.RowInputs.decode(merged) == expected

        # Both materialize to Algorithm 1's table, or fail as it does.
        for collection in (inputs, merged):
            actual = outcome_of(lambda: materialize_unit_table(collection, binarize=binarize))
            assert same_table(table, actual), (table, actual)


def fixed_setup(edges, values, threshold=None):
    """A hand-built setup over ``T``, ``Y`` and the covariate ``C``, units
    ``(0,)``, ``(1,)``, ``(2,)``, each walked in a block of its own."""
    graph = GroundedCausalGraph()
    for name in ("C", "T", "Y"):
        for index in range(3):
            graph.add_node(GroundedAttribute(name, (index,)))
    for (parent, parent_key), (child, child_key) in edges:
        graph.add_edge(GroundedAttribute(parent, (parent_key,)), GroundedAttribute(child, (child_key,)))
    values = {GroundedAttribute(name, (key,)): value for (name, key), value in values.items()}
    observed = {"C": True, "T": True, "Y": True}
    return graph, values, "T", "Y", [(0,), (1,), (2,)], None, observed, 1, threshold


#: Row 0 fails first, on its peer's treatment ("c"), though row 1's own
#: treatment ("b") fails too: Algorithm 1 fails at the first row that does.
PEER_FAILS_FIRST = fixed_setup(
    [(("T", 0), ("Y", 0)), (("T", 2), ("Y", 0)), (("T", 1), ("Y", 1))],
    {("T", 0): 1, ("T", 1): "b", ("T", 2): "c", ("Y", 0): 1.0, ("Y", 1): 2.0},
)
#: Row 0 fails first, on its outcome, before row 1's treatment does.
OUTCOME_FAILS_FIRST = fixed_setup(
    [(("T", 0), ("Y", 0)), (("T", 1), ("Y", 1))],
    {("T", 0): 1, ("T", 1): "b", ("Y", 0): "x", ("Y", 1): 2.0},
)
#: ``True``, ``1`` and ``"a"`` in one categorical covariate column: one
#: category for the first two, labelled by the first seen.
EQUAL_KEYS = fixed_setup(
    [(("C", key), ("T", key)) for key in range(3)] + [(("T", key), ("Y", key)) for key in range(3)],
    {
        ("C", 0): True, ("C", 1): 1, ("C", 2): "a",
        ("T", 0): 0, ("T", 1): 1, ("T", 2): 1.0,
        ("Y", 0): 0.5, ("Y", 1): 1.5, ("Y", 2): 2.5,
    },
)


def test_fixed_setups_pin_what_they_claim():
    def failure(setup):
        graph, values, treatment, response, units, _, observed, _, _ = setup
        peers = row_oracle.compute_peers(graph, treatment, response, units)
        return outcome_of(
            lambda: row_oracle.build_unit_table(
                graph, values, treatment, response, units, peers, observed.__getitem__
            )
        )

    kind, message = failure(PEER_FAILS_FIRST)
    assert kind is EstimationError and "'c'" in message
    assert failure(OUTCOME_FAILS_FIRST)[0] is ValueError
    assert "cov_own_C_is_True" in failure(EQUAL_KEYS).covariate_columns


@given(layered_setups())
@example(PEER_FAILS_FIRST)
@example(OUTCOME_FAILS_FIRST)
@example(EQUAL_KEYS)
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
    grounding, _, units, admitted = engine._units(plan)
    graph, values, is_observed = grounding.graph, grounding.values, engine.model.is_observed
    peers = compute_peers(graph, treatment, response, units)
    inputs = collect_unit_table_inputs(graph, values, peers, is_observed, admitted=admitted)
    rows: dict[int, list[tuple[str, object]]] = {}
    for name, (coded, bucket_rows) in inputs.buckets.items():
        for value, row in zip(coded.decode(), bucket_rows.tolist()):
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
