"""Shard-merge parity suite (see ``docs/sharding.md``).

Two layers of the sharded execution stack are held to differential
contracts against their serial references:

* **unit-table collection** — collecting consecutive unit ranges and merging
  must reproduce the unsharded collection exactly (bit-identical
  materialized unit tables);
* **process answering** — ``answer_all(executor="process")`` must be
  answer-for-answer bit-identical to the serial loop at any shard count; a
  batch whose workers keep dying is answered serially once the scheduler's
  circuit breaker opens, and one whose workers keep raising fails with a
  clean :class:`QueryError` once the retry budget is spent, never a hang.

It also pins the grouped aggregate kernels against the scalar family on
signed infinities.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cache.serialization import (
    load_unit_inputs,
    unit_inputs_payload,
)
from repro.cache.store import ArtifactCache
from repro.carl.engine import CaRLEngine
from repro.carl.errors import QueryError
from repro.carl.shard import shard_ranges
from repro.carl.unit_table import materialize_unit_table, merge_unit_table_inputs
from repro.datasets import TOY_REVIEW_PROGRAM, toy_review_database
from repro.db.aggregates import AGGREGATES, GROUPED_AGGREGATES, grouped_aggregate
from repro.faults.plan import FaultRule
from repro.observability import reset_registry

SHARD_COUNTS = (1, 2, 7)

#: The batch used by the process-executor parity tests: every query family
#: (plain ATE, aggregate-unified response, threshold variants, peer effects).
QUERIES = {
    "ate": "Score[S] <= Prestige[A] ?",
    "agg": "AVG_Score[A] <= Prestige[A] ?",
    "thresh": "AVG_Score[A] <= Prestige[A] >= 1 ?",
    "peers": "Score[S] <= Prestige[A] ? WHEN ALL PEERS TREATED",
}


def fresh_engine(**kwargs) -> CaRLEngine:
    return CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM, **kwargs)


def result_key(answer):
    """Every numeric field of an answer that must match bit-for-bit."""
    result = answer.result
    if hasattr(result, "ate"):
        return (
            result.ate,
            result.naive_difference,
            result.treated_mean,
            result.control_mean,
            result.correlation,
            result.n_units,
            result.n_treated,
            result.n_control,
            result.confidence_interval,
        )
    return (
        result.aie,
        result.are,
        result.aoe,
        result.naive_difference,
        result.correlation,
        result.n_units,
        result.mean_peer_count,
    )


# ----------------------------------------------------------------------
# grouped aggregate kernels vs the scalar family on infinities
# ----------------------------------------------------------------------
def assert_matches_scalar(name, out, reference):
    """Bitwise equality, with NaN==NaN (payload bits aside)."""
    out = np.asarray(out, dtype=float)
    reference = np.asarray(reference, dtype=float)
    both_nan = np.isnan(out) & np.isnan(reference)
    assert np.array_equal(
        np.where(both_nan, 0.0, out), np.where(both_nan, 0.0, reference)
    ), f"{name}: grouped {out!r} != scalar {reference!r}"


@pytest.mark.parametrize("name", tuple(GROUPED_AGGREGATES))
def test_sharded_aggregate_infinity_edges(name):
    """Signed infinities follow the scalar family's IEEE-fallback semantics
    in every grouped kernel (the only test feeding +-inf to all twelve)."""
    values = np.asarray([math.inf, 1.0, -math.inf, 2.0, math.inf, -1.0])
    group_ids = np.asarray([0, 0, 0, 1, 1, 2])
    reference = [AGGREGATES[name](values[group_ids == g].tolist()) for g in range(3)]
    assert_matches_scalar(name, grouped_aggregate(name, values, group_ids, 3), reference)


def test_shard_ranges_cover_and_balance():
    with pytest.raises(QueryError):
        shard_ranges(10, 0)
    for n_rows, shards in [(0, 3), (1, 7), (10, 3), (10, 1), (100, 7)]:
        ranges = shard_ranges(n_rows, shards)
        assert len(ranges) == shards
        assert ranges[0][0] == 0 and ranges[-1][1] == n_rows
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start  # contiguous, in order
        sizes = [stop - start for start, stop in ranges]
        assert max(sizes) - min(sizes) <= 1


# ----------------------------------------------------------------------
# sharded unit-table collection
# ----------------------------------------------------------------------
def collect_via_shards(engine, query, shards):
    from repro.carl.parser import parse_query

    parsed = parse_query(query) if isinstance(query, str) else query
    # Derive the full unit count exactly as the dispatcher does.
    _, _, units, _ = engine._units(engine._plan(parsed, "mean"))  # noqa: SLF001
    n_units = len(units)
    parts = [
        engine.collect_shard_inputs(parsed, start, stop, expected_units=n_units)
        for start, stop in shard_ranges(n_units, shards)
    ]
    return merge_unit_table_inputs(parts)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("query", list(QUERIES.values()))
def test_sharded_collection_merges_to_serial(query, shards):
    engine = fresh_engine()
    serial = engine.unit_table(query)
    merged_inputs = collect_via_shards(engine, query, shards)
    from repro.carl.parser import parse_query

    parsed = parse_query(query)
    binarize = None
    if parsed.treatment_threshold is not None:
        threshold = parsed.treatment_threshold
        binarize = lambda value: 1.0 if threshold.evaluate(value) else 0.0  # noqa: E731
    merged = materialize_unit_table(merged_inputs, embedding="mean", binarize=binarize)
    assert merged.equals(serial)


def test_unit_inputs_payload_round_trip():
    engine = fresh_engine()
    inputs = engine.collect_shard_inputs("Score[S] <= Prestige[A] ?", 0, 10**9)
    loaded = load_unit_inputs(unit_inputs_payload(inputs))
    assert loaded.unit_keys == inputs.unit_keys
    assert loaded.outcomes_raw == inputs.outcomes_raw
    assert loaded.treatments_raw == inputs.treatments_raw
    assert loaded.peer_counts == inputs.peer_counts
    assert loaded.peer_values_raw == inputs.peer_values_raw
    assert loaded.peer_group_ids == inputs.peer_group_ids
    assert loaded.covariate_order == inputs.covariate_order
    assert loaded.buckets == inputs.buckets
    assert materialize_unit_table(loaded).equals(materialize_unit_table(inputs))


def test_merge_rejects_mismatched_collections():
    import dataclasses

    from repro.carl.errors import EstimationError

    engine = fresh_engine()
    a = engine.collect_shard_inputs("Score[S] <= Prestige[A] ?", 0, 5)
    b = dataclasses.replace(a, response_attribute="SomethingElse")
    with pytest.raises(EstimationError, match="disagree"):
        merge_unit_table_inputs([a, b])
    with pytest.raises(EstimationError):
        merge_unit_table_inputs([])


# ----------------------------------------------------------------------
# answer_all(executor="process")
# ----------------------------------------------------------------------
def test_process_executor_is_bit_identical_to_serial():
    serial = fresh_engine().answer_all(QUERIES, jobs=1)
    for shards in SHARD_COUNTS:
        answers = fresh_engine().answer_all(
            QUERIES, jobs=2, executor="process", shards=shards
        )
        assert set(answers) == set(QUERIES)
        for name in QUERIES:
            assert result_key(answers[name]) == result_key(serial[name]), (shards, name)
            assert (
                answers[name].unit_table_summary == serial[name].unit_table_summary
            ), (shards, name)


def test_process_executor_artifact_transport_is_bit_identical(monkeypatch):
    """Force the portable transport (workers rebuild the engine from the
    published memory-mapped artifacts instead of fork-inheriting it): the
    answers must be exactly the same either way."""
    serial = fresh_engine().answer_all(QUERIES, jobs=1)
    monkeypatch.setenv("REPRO_SHARD_NO_INHERIT", "1")
    answers = fresh_engine().answer_all(QUERIES, jobs=2, executor="process", shards=3)
    for name in QUERIES:
        assert result_key(answers[name]) == result_key(serial[name]), name
        assert answers[name].unit_table_summary == serial[name].unit_table_summary


def test_process_executor_honors_estimator_and_bootstrap():
    options = {"estimator": "ipw", "bootstrap": 25, "seed": 9}
    serial = fresh_engine().answer_all({"ate": QUERIES["ate"]}, jobs=1, **options)
    sharded = fresh_engine().answer_all(
        {"ate": QUERIES["ate"]}, jobs=2, executor="process", shards=2, **options
    )
    assert result_key(sharded["ate"]) == result_key(serial["ate"])
    assert sharded["ate"].result.estimator == "ipw"
    assert sharded["ate"].result.confidence_interval is not None


def test_process_executor_with_cache_warm_run(tmp_path):
    cold_engine = fresh_engine(cache=tmp_path / "cache")
    cold = cold_engine.answer_all(QUERIES, jobs=2, executor="process", shards=2)
    # Shard partials persist under deterministic (signature, range) keys so
    # later sweeps can reuse them; groundings and unit tables persist too
    # ("table" artifacts appear only on the no-fork transport, which
    # publishes them).  Nothing stays pinned once the batch is done.
    store = ArtifactCache(tmp_path / "cache")
    kinds = [entry.kind for entry in store.entries()]
    assert "unit_inputs" in kinds
    assert "grounding" in kinds and "unit_table" in kinds
    assert cold_engine.cache.pinned_paths() == set()
    assert not list((tmp_path / "cache").glob("*/*.pin.*"))
    # A fresh engine over the warm cache answers without grounding at all.
    warm_engine = fresh_engine(cache=tmp_path / "cache")
    warm = warm_engine.answer_all(QUERIES, jobs=2, executor="process", shards=2)
    assert warm_engine.grounding_runs == 0
    for name in QUERIES:
        assert result_key(warm[name]) == result_key(cold[name])


def test_process_executor_shard_level_cache_reuse(tmp_path):
    """With unit tables evicted but partials kept, a re-sweep performs zero
    shard collection: every collect task resolves from the cache."""
    cold_engine = fresh_engine(cache=tmp_path / "cache")
    cold = cold_engine.answer_all(QUERIES, jobs=2, executor="process", shards=2)
    store = ArtifactCache(tmp_path / "cache")
    partial_count = sum(1 for e in store.entries() if e.kind == "unit_inputs")
    assert partial_count > 0
    # Drop the finished unit tables; keep the shard partials.
    removed, _ = store.clear(kind="unit_table")
    assert removed > 0
    warm_engine = fresh_engine(cache=tmp_path / "cache")
    warm = warm_engine.answer_all(QUERIES, jobs=2, executor="process", shards=2)
    stats = warm_engine.cache_stats()
    # Every shard range of every query probed warm: no dispatcher-side probe
    # missed, and no new partial artifact appeared on disk (collect tasks
    # would have stored one each from their worker processes).
    assert stats["unit_inputs"]["misses"] == 0
    assert stats["unit_inputs"]["hits"] > 0
    after = sum(1 for e in ArtifactCache(tmp_path / "cache").entries() if e.kind == "unit_inputs")
    assert after == partial_count
    for name in QUERIES:
        assert result_key(warm[name]) == result_key(cold[name])


def test_threshold_sweep_shares_collections_within_one_batch(tmp_path):
    """Queries differing only in treatment threshold have one collection
    signature: a cold 3-query sweep collects each unit range once."""
    sweep = {
        "t1": "AVG_Score[A] <= Prestige[A] >= 1 ?",
        "t2": "AVG_Score[A] <= Prestige[A] >= 2 ?",
        "t3": "AVG_Score[A] <= Prestige[A] >= 3 ?",
    }
    engine = fresh_engine(cache=tmp_path / "cache")
    serial = {name: fresh_engine().answer(q) for name, q in sweep.items()}
    answers = engine.answer_all(sweep, jobs=2, executor="process", shards=2)
    partials = [
        e for e in ArtifactCache(tmp_path / "cache").entries() if e.kind == "unit_inputs"
    ]
    # 2 shard-partial artifacts total, not 2 per query: the sweep shares one
    # collection signature, so ranges are collected once and shared in flight.
    assert len(partials) == 2
    for name in sweep:
        # repr-compare: exact float round-trip, but NaN == NaN (the >=1
        # threshold treats every unit, so the naive contrast is NaN).
        assert repr(result_key(answers[name])) == repr(result_key(serial[name]))


def test_process_executor_worker_death_answers_serially(monkeypatch, tmp_path, fault_plan):
    """Every worker dies on every task: the scheduler replaces them until
    its circuit breaker opens, then answers the batch serially in-process,
    bit-identical to the serial loop."""
    serial = fresh_engine().answer_all({"ate": QUERIES["ate"]}, jobs=1)
    monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
    fault_plan(FaultRule("worker.crash", p=1.0))
    registry = reset_registry()
    try:
        answers = fresh_engine().answer_all(
            {"ate": QUERIES["ate"]}, jobs=2, executor="process", shards=2
        )
        counters = registry.counters()
    finally:
        reset_registry()
    assert result_key(answers["ate"]) == result_key(serial["ate"])
    assert answers["ate"].unit_table_summary == serial["ate"].unit_table_summary
    assert counters["scheduler.circuit_open"] == 1
    assert counters["scheduler.serial_fallback"] == 1


def test_process_executor_worker_exception_raises_cleanly(fault_plan):
    """A worker that raises on every attempt fails the query once its retry
    budget is spent; the error names the fault and the budget."""
    fault_plan(FaultRule("worker.error", p=1.0))
    with pytest.raises(QueryError, match=r"shard worker .* retry budget 2\)"):
        fresh_engine().answer_all(
            {"ate": QUERIES["ate"]}, jobs=2, executor="process", shards=2
        )


def test_answer_all_option_validation():
    engine = fresh_engine()
    with pytest.raises(QueryError, match="executor"):
        engine.answer_all(QUERIES, executor="fiber")
    with pytest.raises(QueryError, match="shards"):
        engine.answer_all(QUERIES, jobs=2, shards=0, executor="process")
    with pytest.raises(QueryError, match="shards"):
        engine.answer_all(QUERIES, jobs=2, shards=2)  # thread executor
    assert engine.answer_all({}, jobs=2, executor="process") == {}
    # An explicit shards=0 must never silently become `jobs` (the old
    # `shards or jobs` resolution): it is rejected with a clear error, at
    # any jobs setting — including the jobs=None (one per CPU) default.
    with pytest.raises(QueryError, match="shards must be a positive integer"):
        engine.answer_all(QUERIES, jobs=None, shards=0, executor="process")
    with pytest.raises(QueryError, match="shards must be a positive integer"):
        engine.answer_all(QUERIES, jobs=1, shards=-3, executor="process")
    with pytest.raises(QueryError, match="jobs must be a positive integer"):
        engine.answer_all(QUERIES, jobs=0)
    with pytest.raises(QueryError, match="jobs must be a positive integer"):
        engine.answer_all(QUERIES, jobs=-1, executor="process")


def test_process_executor_jobs_none_defaults_per_cpu(monkeypatch):
    """The executor='process' + jobs=None default path: one job per CPU and
    one shard per job, bit-identical to serial."""
    import os as os_module

    monkeypatch.setattr(os_module, "cpu_count", lambda: 2)
    serial = fresh_engine().answer_all({"ate": QUERIES["ate"]}, jobs=1)
    answers = fresh_engine().answer_all(
        {"ate": QUERIES["ate"]}, jobs=None, executor="process"
    )
    assert result_key(answers["ate"]) == result_key(serial["ate"])
