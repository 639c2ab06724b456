"""Streaming query service suite (``docs/service.md``).

Contracts held here:

* **streaming parity** — the multiset of answers an ``answer_iter`` /
  ``QuerySession`` run yields is a permutation of the serial answers, and
  each completed answer is bit-identical to ``engine.answer`` of the same
  query (Hypothesis over jobs and query subsets for the thread mode; a
  (jobs, shards) grid for the process scheduler);
* **fault tolerance** — a worker that raises is retried on another worker
  (the faulting one is excluded); a worker that *dies* is replaced and its
  task requeued; when every attempt fails, only the affected query yields a
  ``QueryError`` and the session streams on;
* **cancellation / timeout semantics** — cancelled queries never yield,
  in-flight shard tasks are reaped (results discarded on arrival), expired
  queries yield a timeout ``QueryError`` without touching their neighbours;
* **shard-level cache reuse** — a warm re-sweep over an unchanged database
  runs zero collect tasks (every shard range resolves from the artifact
  cache), verified through the scheduler's stats;
* **one batch path** — ``answer_all`` drains the same session: worker
  faults are retried instead of aborting the batch, failed queries keep
  their CaRL error types, and a scheduler whose start fails leaks nothing.
"""

from __future__ import annotations

import tempfile
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.store import ArtifactCache
from repro.carl import shard
from repro.carl.engine import CaRLEngine
from repro.carl.errors import EstimationError, GroundingError, ParseError, QueryError
from repro.carl.queries import QueryAnswer
from repro.datasets import TOY_REVIEW_PROGRAM, toy_review_database
from repro.faults.injection import clear_plan, install_plan
from repro.faults.plan import FaultPlan, FaultRule
from repro.observability import reset_registry
from repro.service import QuerySession

QUERIES = {
    "ate": "Score[S] <= Prestige[A] ?",
    "agg": "AVG_Score[A] <= Prestige[A] ?",
    "thresh": "AVG_Score[A] <= Prestige[A] >= 1 ?",
    "peers": "Score[S] <= Prestige[A] ? WHEN ALL PEERS TREATED",
}
QUERY_LIST = list(QUERIES.values())


def fresh_engine(**kwargs) -> CaRLEngine:
    return CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM, **kwargs)


def answer_fingerprint(answer: QueryAnswer):
    """repr of every numeric result field: exact float round-trip, NaN-safe."""
    result = answer.result
    if hasattr(result, "ate"):
        fields = (
            result.ate, result.naive_difference, result.treated_mean,
            result.control_mean, result.correlation, result.n_units,
            result.n_treated, result.n_control, result.confidence_interval,
        )
    else:
        fields = (
            result.aie, result.are, result.aoe, result.naive_difference,
            result.correlation, result.n_units, result.mean_peer_count,
        )
    return repr(fields) + repr(answer.unit_table_summary)


@pytest.fixture(scope="module")
def serial_answers():
    engine = fresh_engine()
    return {name: engine.answer(query) for name, query in QUERIES.items()}


# ----------------------------------------------------------------------
# streaming parity: completion order is a permutation of serial answers
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(
    jobs=st.integers(min_value=1, max_value=4),
    subset=st.lists(st.sampled_from(sorted(QUERIES)), min_size=1, max_size=6),
)
def test_thread_streaming_is_permutation_of_serial(jobs, subset, serial_answers):
    engine = fresh_engine()
    queries = [QUERIES[name] for name in subset]
    outcomes = list(engine.answer_iter(queries, jobs=jobs))
    assert sorted(index for index, _ in outcomes) == list(range(len(subset)))
    for index, outcome in outcomes:
        assert isinstance(outcome, QueryAnswer)
        assert answer_fingerprint(outcome) == answer_fingerprint(
            serial_answers[subset[index]]
        )


@pytest.mark.parametrize("jobs,shards", [(1, 1), (2, 2), (2, 3), (3, 1)])
def test_process_streaming_is_bit_identical_to_serial(jobs, shards, serial_answers):
    engine = fresh_engine()
    got = dict(
        engine.answer_iter(QUERIES, jobs=jobs, executor="process", shards=shards)
    )
    assert set(got) == set(QUERIES)
    for name, outcome in got.items():
        assert isinstance(outcome, QueryAnswer), (name, outcome)
        assert answer_fingerprint(outcome) == answer_fingerprint(serial_answers[name])


def test_answer_iter_dict_yields_names_list_yields_positions():
    engine = fresh_engine()
    named = dict(engine.answer_iter({"a": QUERIES["ate"]}))
    assert set(named) == {"a"}
    positional = dict(engine.answer_iter([QUERIES["ate"], QUERIES["agg"]], jobs=2))
    assert set(positional) == {0, 1}


def test_answer_iter_streams_before_batch_finishes():
    """The first event arrives while later queries are still running."""
    engine = fresh_engine()
    release = threading.Event()
    original = engine.answer

    def gated(query, *args, **kwargs):
        if "Score[S]" in str(query):
            release.wait(timeout=10.0)
        return original(query, *args, **kwargs)

    engine.answer = gated
    iterator = engine.answer_iter(
        {"fast": QUERIES["agg"], "slow": QUERIES["ate"]}, jobs=2
    )
    name, outcome = next(iterator)
    assert name == "fast" and isinstance(outcome, QueryAnswer)
    release.set()
    rest = dict(iterator)
    assert set(rest) == {"slow"}


def test_answer_iter_syntax_error_raises_up_front():
    engine = fresh_engine()
    with pytest.raises(ParseError):
        list(engine.answer_iter(["this is not CaRL"]))


def test_semantic_error_yields_query_error_event_not_batch_failure():
    engine = fresh_engine()
    queries = {"bad": "Score[S] <= NoSuchAttr[A] ?", "good": QUERIES["ate"]}
    for executor in ("thread", "process"):
        got = dict(engine.answer_iter(queries, jobs=2, executor=executor))
        assert isinstance(got["bad"], QueryError)
        assert isinstance(got["good"], QueryAnswer)


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_failed_query_keeps_its_carl_error_type(executor):
    """A query that fails inside estimation reports the original
    EstimationError as the event's cause (rebuilt from its type name when
    a worker process raised it), and answer_all re-raises that cause."""
    query = "AVG_Score[A] <= Qualification[A] ?"
    with pytest.raises(EstimationError):
        fresh_engine().answer_all([query], jobs=2, executor=executor)
    [(_, event)] = list(fresh_engine().answer_iter([query], jobs=2, executor=executor))
    assert isinstance(event, QueryError)
    assert isinstance(event.__cause__, EstimationError)
    assert str(event.__cause__) in str(event)


# ----------------------------------------------------------------------
# session surface: submit / result / cancel / options
# ----------------------------------------------------------------------
def test_session_result_and_per_query_options(serial_answers):
    engine = fresh_engine()
    reference = fresh_engine().answer(QUERIES["ate"], estimator="ipw", bootstrap=10, seed=3)
    with engine.open_session(jobs=2) as session:
        plain = session.submit(QUERIES["ate"])
        tuned = session.submit(QUERIES["ate"], estimator="ipw", bootstrap=10, seed=3)
        assert answer_fingerprint(session.result(plain)) == answer_fingerprint(
            serial_answers["ate"]
        )
        assert answer_fingerprint(session.result(tuned)) == answer_fingerprint(reference)
        # result() is idempotent and cancel() after delivery is refused.
        assert session.result(tuned).result.estimator == "ipw"
        assert session.cancel(tuned) is False


def test_session_rejects_bad_options():
    engine = fresh_engine()
    with pytest.raises(QueryError, match="executor"):
        QuerySession(engine, executor="fiber")
    with pytest.raises(QueryError, match="jobs"):
        QuerySession(engine, jobs=0)
    with pytest.raises(QueryError, match="shards"):
        QuerySession(engine, jobs=2, shards=0, executor="process")
    with pytest.raises(QueryError, match="shards"):
        QuerySession(engine, jobs=2, shards=2)  # thread executor
    with pytest.raises(QueryError, match="retries"):
        QuerySession(engine, jobs=2, executor="process", retries=-1)
    session = engine.open_session()
    session.close()
    with pytest.raises(QueryError, match="closed"):
        session.submit(QUERIES["ate"])
    session.close()  # idempotent


def test_result_unknown_index_and_timeout():
    engine = fresh_engine()
    with engine.open_session(jobs=1) as session:
        with pytest.raises(QueryError, match="unknown"):
            session.result(7)


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_cancelled_query_never_yields(executor, fault_plan):
    """jobs=1 and slowed tasks: the second query is still queued when it is
    cancelled, so it must never produce an event — and the first query's
    answer must be unaffected."""
    if executor == "process":
        fault_plan(FaultRule("worker.slow", p=1.0, delay=0.2))
        engine = fresh_engine()
        session = engine.open_session(jobs=1, executor="process", shards=1)
    else:
        engine = fresh_engine()
        release = threading.Event()
        original = engine.answer

        def gated(query, *args, **kwargs):
            release.wait(timeout=10.0)
            return original(query, *args, **kwargs)

        engine.answer = gated
        session = engine.open_session(jobs=1)
    with session:
        first = session.submit(QUERIES["ate"])
        second = session.submit(QUERIES["agg"])
        assert session.cancel(second) is True
        assert session.cancel(second) is True  # idempotent
        if executor == "thread":
            release.set()
        got = dict(session.as_completed())
        assert set(got) == {first}
        assert isinstance(got[first], QueryAnswer)
        assert session.stats()["cancelled"] == 1
        assert session.outstanding() == 0


def test_process_timeout_yields_query_error_and_neighbours_survive(fault_plan):
    fault_plan(FaultRule("worker.slow", p=1.0, delay=0.3))
    engine = fresh_engine()
    with engine.open_session(jobs=2, executor="process", shards=1) as session:
        doomed = session.submit(QUERIES["ate"], timeout=0.05)
        healthy = session.submit(QUERIES["agg"])
        got = dict(session.as_completed())
        assert isinstance(got[doomed], QueryError)
        assert "timed out" in str(got[doomed])
        assert isinstance(got[healthy], QueryAnswer)
        assert session.stats()["scheduler"]["timeouts"] == 1


def test_thread_timeout_reaps_late_result(monkeypatch):
    engine = fresh_engine()
    started = threading.Event()
    release = threading.Event()
    original = engine.answer

    def gated(query, *args, **kwargs):
        started.set()
        release.wait(timeout=10.0)
        return original(query, *args, **kwargs)

    engine.answer = gated
    with engine.open_session(jobs=1) as session:
        index = session.submit(QUERIES["ate"], timeout=0.05)
        assert started.wait(timeout=5.0)
        outcome = session.result(index)
        assert isinstance(outcome, QueryError) and "timed out" in str(outcome)
        release.set()
        # The late in-flight result is reaped, never delivered.
        assert session.outstanding() == 0
        assert dict(session.as_completed()) == {}


def test_as_completed_timeout_raises_and_session_stays_usable():
    engine = fresh_engine()
    release = threading.Event()
    original = engine.answer

    def gated(query, *args, **kwargs):
        release.wait(timeout=10.0)
        return original(query, *args, **kwargs)

    engine.answer = gated
    with engine.open_session(jobs=1) as session:
        index = session.submit(QUERIES["ate"])
        with pytest.raises(TimeoutError):
            for _ in session.as_completed(timeout=0.1):
                pytest.fail("nothing should complete while the worker is gated")
        release.set()
        got = dict(session.as_completed())
        assert set(got) == {index}
        assert isinstance(got[index], QueryAnswer)


def test_cancel_after_timeout_withdraws_the_timeout_event():
    """A timed-out query's undelivered QueryError can still be cancelled:
    cancel() returns True and the event is never delivered."""
    engine = fresh_engine()
    release = threading.Event()
    original = engine.answer

    def gated(query, *args, **kwargs):
        if "AVG_Score" not in str(query):
            release.wait(timeout=10.0)
        return original(query, *args, **kwargs)

    engine.answer = gated
    with engine.open_session(jobs=2) as session:
        doomed = session.submit(QUERIES["ate"], timeout=0.05)
        healthy = session.submit(QUERIES["agg"])
        # Consuming the healthy result pumps the loop past doomed's deadline.
        assert isinstance(session.result(healthy), QueryAnswer)
        assert session.cancel(doomed) is True
        release.set()
        assert dict(session.as_completed()) == {}
        with pytest.raises(QueryError, match="cancelled"):
            session.result(doomed)


def test_cancel_racing_scheduler_planning_never_emits(fault_plan):
    """Cancel issued while the dispatcher is inside the (unlocked) planning
    call must not be clobbered by the plan completing."""
    fault_plan(FaultRule("worker.slow", p=1.0, delay=0.05))
    engine = fresh_engine()
    with engine.open_session(jobs=2, executor="process", shards=2) as session:
        keep = session.submit(QUERIES["ate"])
        for _ in range(10):
            index = session.submit(QUERIES["agg"])
            session.cancel(index)  # races the dispatcher's _plan
        got = dict(session.as_completed())
        assert set(got) == {keep}


# ----------------------------------------------------------------------
# retry-and-requeue scheduling under injected faults
# ----------------------------------------------------------------------
def test_faulting_worker_is_excluded_and_all_queries_succeed(
    fault_plan, serial_answers
):
    """Worker 0 raises on every task: each of its tasks is requeued onto the
    other worker and every query still answers, bit-identically."""
    fault_plan(FaultRule("worker.error", p=1.0, workers=(0,)))
    engine = fresh_engine()
    with engine.open_session(jobs=2, executor="process", shards=2) as session:
        for query in QUERIES.values():
            session.submit(query)
        got = dict(session.as_completed())
        stats = session.stats()["scheduler"]
    assert stats["retries"] >= 1
    assert stats["worker_deaths"] == 0
    names = list(QUERIES)
    for index, outcome in got.items():
        assert isinstance(outcome, QueryAnswer), outcome
        assert answer_fingerprint(outcome) == answer_fingerprint(
            serial_answers[names[index]]
        )


def test_dead_worker_is_replaced_and_task_requeued(fault_plan, serial_answers):
    """Worker 0 exits abruptly: the scheduler spawns a replacement, requeues
    the orphaned task, and the whole sweep completes."""
    fault_plan(FaultRule("worker.crash", p=1.0, workers=(0,)))
    engine = fresh_engine()
    with engine.open_session(jobs=2, executor="process", shards=2) as session:
        for query in QUERIES.values():
            session.submit(query)
        got = dict(session.as_completed())
        stats = session.stats()["scheduler"]
    assert stats["worker_deaths"] >= 1
    assert stats["workers_spawned"] >= 3  # 2 initial + >= 1 replacement
    names = list(QUERIES)
    for index, outcome in got.items():
        assert isinstance(outcome, QueryAnswer), outcome
        assert answer_fingerprint(outcome) == answer_fingerprint(
            serial_answers[names[index]]
        )


def test_budget_exhaustion_fails_only_that_query(fault_plan):
    """Every worker faults on every task: each query fails with its own
    QueryError after the budget, the session never hangs or raises."""
    fault_plan(FaultRule("worker.error", p=1.0))
    engine = fresh_engine()
    with engine.open_session(jobs=2, executor="process", shards=2, retries=1) as session:
        for query in QUERIES.values():
            session.submit(query)
        got = dict(session.as_completed())
        stats = session.stats()["scheduler"]
    assert len(got) == len(QUERIES)
    assert all(isinstance(outcome, QueryError) for outcome in got.values())
    assert stats["retries"] >= 1


def test_answer_all_process_survives_untargeted_faults(
    monkeypatch, tmp_path, serial_answers, fault_plan
):
    """answer_all runs on the scheduler, so a worker fault does not abort
    the batch.  When every worker dies on every task, the dead workers are
    replaced and their tasks retried until the circuit breaker opens
    (threshold max(3, jobs + 2) = 4 deaths); then every query is answered
    serially in-process, bit-identical.  When every worker raises, each
    task is retried until its budget is spent, and the error says so."""
    monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
    fault_plan(FaultRule("worker.crash", p=1.0))
    registry = reset_registry()
    try:
        got = fresh_engine().answer_all(QUERIES, jobs=2, executor="process", shards=2)
        counters = registry.counters()
    finally:
        reset_registry()
    assert counters["scheduler.worker_death"] == 4
    assert counters["scheduler.circuit_open"] == 1
    assert counters["scheduler.serial_fallback"] == len(QUERIES)
    assert list(got) == list(QUERIES)
    for name, answer in got.items():
        assert answer_fingerprint(answer) == answer_fingerprint(serial_answers[name])

    fault_plan(FaultRule("worker.error", p=1.0))
    with pytest.raises(QueryError, match=r"shard worker .* retry budget 2\)"):
        fresh_engine().answer_all(QUERIES, jobs=2, executor="process", shards=2)


@settings(max_examples=6, deadline=None)
@given(
    jobs=st.integers(min_value=1, max_value=3),
    shards=st.integers(min_value=1, max_value=3),
    fault=st.sampled_from([None, "error@0"]),
)
def test_process_streaming_parity_under_fault_grid(jobs, shards, fault, serial_answers):
    """Hypothesis sweep over (jobs, shards, fault injection): completed
    answers stay a bit-identical permutation of the serial ones.  ``error@0``
    makes worker 0 raise on every task."""
    if fault is None:
        clear_plan()
    else:
        install_plan(FaultPlan(rules=(FaultRule("worker.error", p=1.0, workers=(0,)),)))
    try:
        engine = fresh_engine()
        got = dict(
            engine.answer_iter(
                QUERY_LIST, jobs=jobs, executor="process", shards=shards
            )
        )
        assert sorted(got) == list(range(len(QUERY_LIST)))
        names = list(QUERIES)
        if fault == "error@0" and jobs == 1:
            # The only worker is the faulting one: exclusion cannot help, so
            # each query fails alone once the budget is spent — but every
            # query still yields its own event.
            assert all(isinstance(outcome, QueryError) for outcome in got.values())
            return
        for index, outcome in got.items():
            assert isinstance(outcome, QueryAnswer), (fault, jobs, shards, outcome)
            assert answer_fingerprint(outcome) == answer_fingerprint(
                serial_answers[names[index]]
            )
    finally:
        clear_plan()


# ----------------------------------------------------------------------
# shard-level cache reuse through the scheduler
# ----------------------------------------------------------------------
def test_warm_resweep_runs_zero_collect_tasks(tmp_path, serial_answers):
    cold_engine = fresh_engine(cache=tmp_path / "cache")
    with cold_engine.open_session(jobs=2, executor="process", shards=2) as session:
        for query in QUERIES.values():
            session.submit(query)
        cold = dict(session.as_completed())
        cold_stats = session.stats()["scheduler"]
    assert cold_stats["collect_tasks_run"] > 0
    # Drop the finished unit tables so the re-sweep must schedule again —
    # and prove it resolves every shard range from the cache instead.
    ArtifactCache(tmp_path / "cache").clear(kind="unit_table")
    warm_engine = fresh_engine(cache=tmp_path / "cache")
    with warm_engine.open_session(jobs=2, executor="process", shards=2) as session:
        for query in QUERIES.values():
            session.submit(query)
        warm = dict(session.as_completed())
        warm_stats = session.stats()["scheduler"]
    assert warm_stats["collect_tasks_run"] == 0
    assert warm_stats["collect_cache_hits"] == cold_stats["collect_tasks_run"]
    names = list(QUERIES)
    for index, outcome in warm.items():
        assert answer_fingerprint(outcome) == answer_fingerprint(
            serial_answers[names[index]]
        )
        assert answer_fingerprint(outcome) == answer_fingerprint(cold[index])


def test_fully_warm_resweep_answers_from_unit_tables(tmp_path):
    """With unit tables intact the scheduler runs no tasks at all."""
    engine = fresh_engine(cache=tmp_path / "cache")
    list(engine.answer_iter(QUERIES, jobs=2, executor="process", shards=2))
    warm_engine = fresh_engine(cache=tmp_path / "cache")
    with warm_engine.open_session(jobs=2, executor="process", shards=2) as session:
        for query in QUERIES.values():
            session.submit(query)
        got = dict(session.as_completed())
        stats = session.stats()["scheduler"]
    assert len(got) == len(QUERIES)
    assert stats["collect_tasks_run"] == 0
    assert stats["finish_tasks_run"] == 0
    assert warm_engine.grounding_runs == 0


def test_session_pins_released_and_no_sidecars_leak(tmp_path):
    engine = fresh_engine(cache=tmp_path / "cache")
    with engine.open_session(jobs=2, executor="process", shards=2) as session:
        session.submit(QUERIES["ate"])
        session.result(0)
        # While the session is live its partials are pinned on disk.
        assert list((tmp_path / "cache").glob("*/*.pin.*"))
    assert engine.cache.pinned_paths() == set()
    assert not list((tmp_path / "cache").glob("*/*.pin.*"))


def test_failed_scheduler_start_leaks_nothing(monkeypatch, tmp_path):
    """A scheduler whose start() fails (grounding, publication) releases
    what it acquired before the error propagates — the private cache dir
    of an uncached engine, the fork-inherit registry slot and every cache
    pin — on the streaming and the batch entry point alike."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runs = [
        lambda engine: list(engine.answer_iter(QUERIES, jobs=2, executor="process")),
        lambda engine: engine.answer_all(QUERIES, jobs=2, executor="process"),
    ]

    def fail(*_args):
        raise GroundingError("injected failure")

    for run in runs:
        engine = fresh_engine()
        monkeypatch.setattr(engine.grounder, "ground", fail)
        with pytest.raises(GroundingError):
            run(engine)
        assert not list(tmp_path.glob("repro-service-*"))
        assert engine not in shard._INHERITABLE_ENGINES.values()

    # Artifact transport over a persistent cache: publication fails after
    # the grounding artifact was stored and pinned.
    monkeypatch.setenv(shard.NO_INHERIT_ENV, "1")
    monkeypatch.setattr(shard, "columnar_table_payload", fail)
    for run in runs:
        engine = fresh_engine(cache=tmp_path / "cache")
        with pytest.raises(GroundingError):
            run(engine)
        assert engine.cache.pinned_paths() == set()
        assert not list((tmp_path / "cache").glob("*/*.pin.*"))
