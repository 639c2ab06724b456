"""Unit-table work is per unit, per distinct value or per column.

Collection gathers from the grounding's value column by node id and
materialization binarizes each distinct raw value once, so the Python-level
work of ``Death[P] <= Severity[P] >= 3 ?`` on MIMIC-800 (800 units, 4,238
peer pairs) is bounded by its units and distinct values, never by its peer
pairs or gathered values.
"""

from __future__ import annotations

import dataclasses

from repro.carl.ast import Comparison
from repro.carl.causal_graph import GroundedCausalGraph, NodeValues
from repro.carl.engine import CaRLEngine
from repro.carl.parser import parse_query
from repro.carl.peers import compute_peers
from repro.datasets import generate_mimic_data

QUERY = "Death[P] <= Severity[P] >= 3 ?"


class CountingValues(NodeValues):
    """A value column that counts its reads as a mapping."""

    reads = 0

    def __getitem__(self, node):  # ``in`` and ``get`` read through it too
        CountingValues.reads += 1
        return super().__getitem__(node)


def test_severity_collection_and_materialization_do_no_per_pair_python(monkeypatch):
    data = generate_mimic_data(n_patients=800, seed=1)
    engine = CaRLEngine(data.database, data.program)
    query = parse_query(QUERY)
    plan = engine._plan(query, "mean")  # noqa: SLF001
    grounding, _, units, admitted = engine._units(plan)  # noqa: SLF001
    peers = compute_peers(grounding.graph, plan.treatment, plan.response, units)
    assert (len(units), sum(map(len, peers.values()))) == (800, 4238)

    values = grounding.values
    grounding = dataclasses.replace(
        grounding, values=CountingValues(values.graph, values.column, values.held)
    )
    node_at = GroundedCausalGraph.node_at
    calls = [0]

    def counting_node_at(self, index):
        calls[0] += 1
        return node_at(self, index)

    monkeypatch.setattr(GroundedCausalGraph, "node_at", counting_node_at)
    inputs = engine._collect(plan, 0, len(units), grounding, units, admitted)  # noqa: SLF001
    assert calls[0] + CountingValues.reads <= len(units)

    evaluate = Comparison.evaluate
    evaluations = [0]

    def counting_evaluate(self, value):
        evaluations[0] += 1
        return evaluate(self, value)

    monkeypatch.setattr(Comparison, "evaluate", counting_evaluate)
    table = engine._materialize(query, inputs, "mean")  # noqa: SLF001
    assert len(table) == len(inputs)
    distinct = len(inputs.treatments.distinct) + len(inputs.peer_treatments.distinct)
    assert evaluations[0] <= distinct
    assert len(inputs.peer_treatments) > distinct  # more peer pairs than values
