"""The grounding snapshot contract.

A query reads one immutable :class:`~repro.carl.grounding.Grounding`: the
compiled graph and the value map it took under the engine's state lock.
Registering a unifying aggregate publishes a new snapshot instead of
splicing into the old one, so

- a graph or value map a caller already holds never changes;
- the peer walk and the covariate collection run without the state lock;
- queries that register aggregates concurrently answer exactly as they do
  alone on a fresh engine;
- splicing compiles the graph once, not once per new aggregate head;
- a response a WHERE clause restricts is aggregated only where a walk
  reads it, so a cold sharded query aggregates each head once.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import repro.carl.engine as engine_module
from repro.cache.store import ArtifactCache
from repro.carl.batch import BatchScratch
from repro.carl.engine import CaRLEngine
from repro.carl.parser import parse_query
from repro.carl.queries import QueryAnswer
from repro.carl.shard import _plan_query, shard_ranges
from repro.datasets import generate_synthetic_review_data
from repro.db.aggregates import AGGREGATES
from repro.graph.csr import CSRGraph

#: Responses the synthetic program does not declare: answering each
#: registers a unifying aggregate over ``Score``.
UNDECLARED = [
    "MAX_Score[A] <= Prestige[A] ?",
    "MEDIAN_Score[A] <= Prestige[A] ?",
    "SUM_Score[A] <= Prestige[A] ?",
    "MIN_Score[A] <= Prestige[A] ?",
]


@pytest.fixture(scope="module")
def synthetic_300():
    return generate_synthetic_review_data(n_authors=300, seed=1)


def fresh_engine(data) -> CaRLEngine:
    return CaRLEngine(data.database, data.program)


def exact(answer) -> dict[str, object]:
    """Every field of an answer's result, floats as ``float.hex``."""

    def encode(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, (list, tuple)):
            return [encode(item) for item in value]
        if isinstance(value, dict):
            return {key: encode(item) for key, item in value.items()}
        if isinstance(value, np.ndarray):
            return encode(value.tolist())
        return repr(value)

    return {name: encode(value) for name, value in vars(answer.result).items()}


def test_held_graph_and_values_do_not_grow(synthetic_300):
    engine = fresh_engine(synthetic_300)
    graph, values = engine.graph, engine.values
    nodes, length = len(graph), len(values)
    parents, children = (array.copy() for array in graph.csr().edge_arrays())

    engine.answer(UNDECLARED[0])

    assert len(graph) == nodes
    assert len(values) == length
    held_parents, held_children = graph.csr().edge_arrays()
    assert np.array_equal(held_parents, parents)
    assert np.array_equal(held_children, children)
    # The engine itself moved on to a snapshot holding the new aggregate.
    assert len(engine.graph) > nodes
    assert engine.graph.nodes_of("MAX_Score")
    assert len(engine.values) > length
    assert not graph.nodes_of("MAX_Score")


def test_splicing_a_new_aggregate_compiles_the_graph_at_most_twice(
    synthetic_300, monkeypatch
):
    engine = fresh_engine(synthetic_300)
    engine.graph  # noqa: B018 - grounded before the count starts
    compile_edges = CSRGraph.from_edges
    calls: list[int] = []

    def counting(cls, n, parents, children):
        calls.append(n)
        return compile_edges(n, parents, children)

    monkeypatch.setattr(CSRGraph, "from_edges", classmethod(counting))
    engine.answer(UNDECLARED[0])
    # One compile of the extended graph, one for the model's
    # attribute-level recursion check when the rule registers.
    assert len(calls) <= 2, len(calls)


def test_graph_walks_run_without_the_state_lock(synthetic_300, monkeypatch):
    engine = fresh_engine(synthetic_300)
    held: dict[str, list[bool]] = {"compute_peers": [], "collect_unit_table_inputs": []}

    def recording(name):
        walk = getattr(engine_module, name)

        def wrapper(*args, **kwargs):
            held[name].append(engine._state_lock._is_owned())  # noqa: SLF001
            return walk(*args, **kwargs)

        monkeypatch.setattr(engine_module, name, wrapper)

    for name in held:
        recording(name)

    def calls() -> int:
        return sum(len(flags) for flags in held.values())

    engine.answer("AVG_Score[A] <= Prestige[A] ?")
    after_answer = calls()
    engine.answer_all([UNDECLARED[0], "AVG_Score[A] <= Prestige[A] >= 1 ?"], jobs=2)
    after_session = calls()
    query = parse_query("Score[S] <= Prestige[A] ?")
    n_units = len(engine.instance.units("Prestige"))
    for start, stop in shard_ranges(n_units, 2):
        engine.collect_shard_inputs(query, start, stop, expected_units=n_units)

    assert 0 < after_answer < after_session < calls()
    assert not any(flag for flags in held.values() for flag in flags), held


def test_concurrent_registrations_match_fresh_serial_engines(synthetic_300):
    """More threads than cores, switching often: the four undeclared
    responses register and splice their aggregates while the other queries
    walk earlier snapshots."""
    queries = [
        *UNDECLARED,
        "AVG_Score[A] <= Prestige[A] ?",
        "AVG_Score[A] <= Qualification[A] >= 25 ?",
        synthetic_300.queries["peer_single"],
        "Score[S] <= Prestige[A] ?",
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        batch = dict(fresh_engine(synthetic_300).answer_iter(queries, jobs=4, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for index, query in enumerate(queries):
        alone = fresh_engine(synthetic_300).answer(query)
        assert isinstance(batch[index], QueryAnswer), batch[index]
        assert exact(batch[index]) == exact(alone), query


def test_scratch_drops_entries_of_an_older_token():
    scratch = BatchScratch()
    builds: list[str] = []

    def build(label):
        def run():
            builds.append(label)
            return label

        return run

    assert scratch.get_or_build(("v", 1), "pair", build("first")) == "first"
    assert scratch.get_or_build(("v", 1), "pair", build("again")) == "first"
    assert scratch.get_or_build(("v", 2), "pair", build("second")) == "second"
    assert builds == ["first", "second"]
    assert len(scratch) == 1


def test_cold_sharded_restricted_query_aggregates_each_head_once(
    synthetic_300, monkeypatch, tmp_path
):
    engine = fresh_engine(synthetic_300)
    engine.graph  # noqa: B018 - grounded before the count starts
    query = parse_query(synthetic_300.queries["ate_single"])
    average = AGGREGATES["AVG"]
    calls = [0]

    def counting(values):
        calls[0] += 1
        return average(values)

    # The registry entry is what the grounding module's head function calls.
    monkeypatch.setitem(AGGREGATES, "AVG", counting)
    plan = _plan_query(engine, ArtifactCache(tmp_path), query, "mean")
    assert calls[0] == 0  # the dispatcher only counts units
    for start, stop in shard_ranges(plan.n_units, 3):
        engine.collect_shard_inputs(query, start, stop, expected_units=plan.n_units)
    assert calls[0] == 236
