"""The grounding snapshot contract.

A query reads one immutable :class:`~repro.carl.grounding.Grounding`: the
compiled graph and the value map it took under the engine's state lock.
The snapshot is the grounding of the program, and it changes only when the
database does: a unifying aggregate the program does not declare lives in
the query's plan and is evaluated into a relation, never ground.  So

- answering such a query leaves the engine's model, graph and value map as
  they were, and compiles no graph;
- the peer walk and the covariate collection run without the state lock;
- queries with undeclared responses answer concurrently, on threads or
  sharded over worker processes, exactly as they do alone on a fresh
  engine;
- a response a WHERE clause restricts is aggregated only where a walk
  reads it, so a cold sharded query aggregates each head once.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import repro.carl.engine as engine_module
from repro.cache.fingerprint import model_fingerprint
from repro.cache.store import ArtifactCache
from repro.carl.batch import BatchScratch
from repro.carl.engine import CaRLEngine
from repro.carl.parser import parse_query
from repro.carl.queries import QueryAnswer
from repro.carl.shard import _plan_query, shard_ranges
from repro.datasets import generate_synthetic_review_data
from repro.db.aggregates import AGGREGATES
from repro.graph.csr import CSRGraph

#: Responses the synthetic program does not declare: each is a unifying
#: aggregate over ``Score`` that the query's plan carries.
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
    rules = list(engine.model.aggregate_rules)
    fingerprint = model_fingerprint(engine.program, engine.model)

    for query in UNDECLARED:
        engine.answer(query)

    # The engine kept its snapshot: no aggregate was ground into it.
    assert engine.graph is graph
    assert engine.values is values
    assert len(graph) == nodes
    assert len(values) == length
    held_parents, held_children = graph.csr().edge_arrays()
    assert np.array_equal(held_parents, parents)
    assert np.array_equal(held_children, children)
    assert not graph.nodes_of("MAX_Score")
    # Nor was any rule registered on the model.
    assert engine.model.aggregate_rules == rules
    assert model_fingerprint(engine.program, engine.model) == fingerprint


def test_an_undeclared_response_compiles_no_graph(synthetic_300, monkeypatch):
    engine = fresh_engine(synthetic_300)
    engine.graph  # noqa: B018 - grounded before the count starts
    compile_edges = CSRGraph.from_edges
    calls: list[int] = []

    def counting(cls, n, parents, children):
        calls.append(n)
        return compile_edges(n, parents, children)

    monkeypatch.setattr(CSRGraph, "from_edges", classmethod(counting))
    answer = engine.answer(UNDECLARED[0])
    # Neither a spliced graph nor the model's recursion check of a newly
    # registered rule: the aggregate is a relation in the query's plan.
    assert calls == []
    assert answer.grounding_seconds == 0.0


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
    responses evaluate their relations while the other queries walk the
    same snapshot."""
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


def test_sharded_undeclared_responses_match_fresh_serial_engines(synthetic_300):
    """Each undeclared response, with and without a WHERE clause over the
    treated and the response's entities, sharded over worker processes.
    Workers fork-inherit the engine, or rebuild it from the published
    artifacts (where the start method is spawn, or with
    ``REPRO_SHARD_NO_INHERIT`` set) and resolve the response themselves."""
    where = ' WHERE Writes(A, S), SubmittedTo(S, C), Blind[C] = "single"'
    queries = [*UNDECLARED, *(query.replace(" ?", " ?" + where) for query in UNDECLARED)]
    batch = fresh_engine(synthetic_300).answer_all(queries, jobs=2, executor="process")
    for index, query in enumerate(queries):
        assert exact(batch[str(index)]) == exact(fresh_engine(synthetic_300).answer(query)), query


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
    _, n_units = _plan_query(engine, ArtifactCache(tmp_path), query, "mean")
    assert calls[0] == 0  # the dispatcher only counts units
    for start, stop in shard_ranges(n_units, 3):
        engine.collect_shard_inputs(query, start, stop, expected_units=n_units)
    assert calls[0] == 236
