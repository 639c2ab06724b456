"""Multi-tenant daemon + long-lived-session hardening suite.

Contracts held here:

* **multi-tenant parity** — concurrent tenant sessions over one shared
  scheduler each receive answers bit-identical to the serial engine;
* **admission control** — a tenant over its token-bucket rate or in-flight
  bound gets a structured :class:`AdmissionError` (with a machine-readable
  ``reason``) at ``submit``, never a hang; rejections are counted;
* **fairness** — ready collect tasks drain round-robin across groups and
  finish tasks keep absolute priority (unit-tested on the scheduler's
  ready-queue directly);
* **bounded bookkeeping** — a session that submits and consumes 1k queries
  holds O(in-flight) state, not O(history): delivered/suppressed LRUs are
  capped, thread futures and deadlines are dropped at delivery, and the
  process scheduler reaps query records and task rows as they resolve;
* **backpressure** — ``max_pending`` turns an over-full session into a
  :class:`QueueFullError` (immediate, or after ``submit_timeout``);
* **concurrent session spawn** — opening one session never blocks behind
  another session's (possibly stalled) worker fork: the fork-inherited
  engine hand-off is token-keyed per scheduler, not a process-global slot;
* **drain/close** — ``drain()`` stops admission and waits for in-flight
  work; ``close()`` is idempotent and leaves no worker processes behind.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.carl.engine import CaRLEngine
from repro.carl.errors import QueryError
from repro.carl.queries import QueryAnswer
from repro.datasets import TOY_REVIEW_PROGRAM, toy_review_database
from repro.faults.plan import FaultRule
from repro.observability.telemetry import get_registry, reset_registry
from repro.service import (
    AdmissionError,
    QueryDaemon,
    QueueFullError,
    ShardScheduler,
    TokenBucket,
)
from repro.service.scheduler import _Task
from repro.service.session import DELIVERED_KEEP, SUPPRESSED_KEEP

QUERIES = {
    "ate": "Score[S] <= Prestige[A] ?",
    "agg": "AVG_Score[A] <= Prestige[A] ?",
    "thresh": "AVG_Score[A] <= Prestige[A] >= 1 ?",
    "peers": "Score[S] <= Prestige[A] ? WHEN ALL PEERS TREATED",
}


def fresh_engine(**kwargs) -> CaRLEngine:
    return CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM, **kwargs)


def answer_fingerprint(answer: QueryAnswer):
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


@pytest.fixture(autouse=True)
def fresh_registry():
    yield reset_registry()
    reset_registry()


@pytest.fixture(scope="module")
def serial_answers():
    engine = fresh_engine()
    return {name: engine.answer(query) for name, query in QUERIES.items()}


# ----------------------------------------------------------------------
# token bucket
# ----------------------------------------------------------------------
def test_token_bucket_burst_and_refill():
    bucket = TokenBucket(rate=50.0, burst=2)
    assert bucket.try_acquire() and bucket.try_acquire()
    assert not bucket.try_acquire()  # burst spent, no time has passed
    time.sleep(0.05)  # 50/s refills ~2.5 tokens
    assert bucket.try_acquire()
    unlimited = TokenBucket(rate=None, burst=1)
    assert all(unlimited.try_acquire() for _ in range(100))
    with pytest.raises(QueryError, match="rate"):
        TokenBucket(rate=0.0, burst=1)
    with pytest.raises(QueryError, match="burst"):
        TokenBucket(rate=1.0, burst=0)


# ----------------------------------------------------------------------
# scheduler fairness (ready-queue unit tests)
# ----------------------------------------------------------------------
def _collect_task(task_id: int, group: str | None) -> _Task:
    return _Task(id=task_id, kind="collect", spec=None, queries=set(), group=group)


def test_ready_queue_drains_round_robin_across_groups():
    scheduler = ShardScheduler(fresh_engine(), jobs=1, shards=1, retries=0)
    order = ["a", "a", "a", "a", "b", "b", "c"]
    for task_id, group in enumerate(order):
        scheduler._enqueue_ready_locked(_collect_task(task_id, group))
    groups = []
    while True:
        task_id = scheduler._pop_ready_locked()
        if task_id is None:
            break
        groups.append(order[task_id])
    # One task per group per rotation: a deep backlog in "a" cannot starve
    # "b" or "c" — their single tasks run within the first rotations.
    assert groups == ["a", "b", "c", "a", "b", "a", "a"]
    assert scheduler._ready_count == 0
    assert scheduler._ready_groups == {}  # drained groups leave no residue


def test_priority_tasks_jump_every_group():
    scheduler = ShardScheduler(fresh_engine(), jobs=1, shards=1, retries=0)
    scheduler._enqueue_ready_locked(_collect_task(0, "a"))
    scheduler._enqueue_ready_locked(_collect_task(1, "b"))
    scheduler._priority.append(2)  # a finish task, enqueued last
    scheduler._ready_count += 1
    assert scheduler._pop_ready_locked() == 2  # finish first, always
    assert {scheduler._pop_ready_locked(), scheduler._pop_ready_locked()} == {0, 1}


# ----------------------------------------------------------------------
# multi-tenant daemon
# ----------------------------------------------------------------------
def test_daemon_multi_tenant_answers_are_bit_identical(serial_answers):
    engine = fresh_engine()
    names = list(QUERIES)
    with QueryDaemon(engine, jobs=2, shards=2) as daemon:
        sessions = {tenant: daemon.open_session(tenant=tenant) for tenant in "abc"}
        for session in sessions.values():
            for query in QUERIES.values():
                session.submit(query)
        for tenant, session in sessions.items():
            got = dict(session.as_completed())
            assert sorted(got) == [0, 1, 2, 3], tenant
            for index, outcome in got.items():
                assert isinstance(outcome, QueryAnswer), (tenant, outcome)
                assert answer_fingerprint(outcome) == answer_fingerprint(
                    serial_answers[names[index]]
                )
        stats = daemon.stats()
        assert stats["admitted"] == 3 * len(QUERIES)
        assert stats["rejected"] == 0
        assert stats["inflight"] == 0
        assert set(stats["tenants"]) == {"a", "b", "c"}
        # Bounded bookkeeping on the shared scheduler: everything reaped.
        assert stats["scheduler"]["live_records"] == 0
        assert stats["scheduler"]["live_tasks"] == 0
        for session in sessions.values():
            session.close()
        assert daemon.stats()["sessions"] == 0


def test_daemon_stats_tenants_preserve_session_open_order():
    """Pinned regression: the session registry is insertion-ordered.

    ``_sessions`` used to be a bare set, so ``stats()['tenants']`` (and the
    ``close()`` teardown sweep) enumerated sessions in PYTHONHASHSEED order.
    """
    engine = fresh_engine()
    order = ["banana", "apple", "cherry"]  # deliberately not sorted
    with QueryDaemon(engine, jobs=1, shards=1) as daemon:
        sessions = [daemon.open_session(tenant=tenant) for tenant in order]
        assert list(daemon.stats()["tenants"]) == order
        for session in sessions:
            session.close()


def test_daemon_sessions_run_concurrently(serial_answers):
    """Two tenants submitting from separate threads both complete."""
    engine = fresh_engine()
    outcomes = {}
    with QueryDaemon(engine, jobs=2, shards=2) as daemon:

        def run(tenant):
            with daemon.open_session(tenant=tenant) as session:
                session.submit(QUERIES["ate"])
                outcomes[tenant] = session.result(0, timeout=60.0)

        threads = [threading.Thread(target=run, args=(t,)) for t in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=90.0)
    assert set(outcomes) == {"a", "b"}
    for outcome in outcomes.values():
        assert answer_fingerprint(outcome) == answer_fingerprint(serial_answers["ate"])


def test_rate_limited_tenant_gets_structured_rejection():
    engine = fresh_engine()
    with QueryDaemon(engine, jobs=1, shards=1) as daemon:
        with daemon.open_session(tenant="slow", rate=0.001, burst=1) as session:
            first = session.submit(QUERIES["ate"])
            with pytest.raises(AdmissionError) as info:
                session.submit(QUERIES["agg"])
            assert info.value.reason == "rate"
            assert isinstance(info.value, QueryError)  # generic handlers still work
            # The rejected submit never produces an event; the admitted one
            # answers normally and the session is not poisoned.
            assert isinstance(session.result(first, timeout=60.0), QueryAnswer)
            assert session.outstanding() == 0
    counters = get_registry().counters()
    assert counters["daemon.reject"] == 1
    assert counters["daemon.admit"] == 1


def test_inflight_bound_rejects_before_rate(fault_plan):
    fault_plan(FaultRule("worker.slow", p=1.0, delay=0.3))
    engine = fresh_engine()
    with QueryDaemon(engine, jobs=1, shards=1) as daemon:
        with daemon.open_session(tenant="t", max_inflight=1) as session:
            session.submit(QUERIES["ate"])
            with pytest.raises(AdmissionError) as info:
                session.submit(QUERIES["agg"])
            assert info.value.reason == "inflight"
            assert isinstance(session.result(0, timeout=60.0), QueryAnswer)
            # Delivery freed the slot: the tenant may submit again.
            session.submit(QUERIES["ate"])
            assert isinstance(session.result(2, timeout=60.0), QueryAnswer)


def test_drain_stops_admission_and_waits_out_inflight_work():
    engine = fresh_engine()
    daemon = QueryDaemon(engine, jobs=1, shards=1)
    try:
        session = daemon.open_session(tenant="t")
        session.submit(QUERIES["ate"])
        assert daemon.drain(timeout=60.0) is True
        assert daemon.inflight() == 0
        with pytest.raises(AdmissionError) as info:
            session.submit(QUERIES["agg"])
        assert info.value.reason == "draining"
        with pytest.raises(QueryError, match="draining"):
            daemon.open_session(tenant="late")
        # The already-completed answer is still deliverable after drain.
        assert isinstance(session.result(0), QueryAnswer)
    finally:
        daemon.close()
    daemon.close()  # idempotent
    with pytest.raises(QueryError, match="closed"):
        daemon.open_session(tenant="next")


def test_closing_one_session_leaves_the_daemon_usable(serial_answers):
    engine = fresh_engine()
    with QueryDaemon(engine, jobs=2, shards=2) as daemon:
        first = daemon.open_session(tenant="first")
        first.submit(QUERIES["ate"])
        first.close()  # closes the facade, cancels in-flight — not the pool
        with daemon.open_session(tenant="second") as session:
            session.submit(QUERIES["ate"])
            outcome = session.result(0, timeout=60.0)
        assert answer_fingerprint(outcome) == answer_fingerprint(serial_answers["ate"])


# ----------------------------------------------------------------------
# bounded session bookkeeping
# ----------------------------------------------------------------------
def test_thousand_submits_keep_session_bookkeeping_flat():
    engine = fresh_engine()
    engine.answer = lambda query, **kwargs: object()  # cheap stand-in answer
    with engine.open_session(jobs=2) as session:
        for _ in range(1000):
            session.submit(QUERIES["ate"])
        delivered = dict(session.as_completed())
        assert len(delivered) == 1000
        # O(in-flight), not O(history): live maps are empty, history LRUs
        # are capped, per-future bookkeeping is dropped at delivery.
        assert session.outstanding() == 0
        assert len(session._live) == 0
        assert len(session._resolved) == 0
        assert len(session._delivered) <= DELIVERED_KEEP
        assert len(session._suppressed) <= SUPPRESSED_KEEP
        assert len(session._futures) == 0
        assert len(session._deadlines) == 0
        assert session.stats()["delivered"] == 1000


def test_process_scheduler_reaps_records_and_tasks(tmp_path):
    engine = fresh_engine(cache=tmp_path / "cache")
    with engine.open_session(jobs=2, executor="process", shards=2) as session:
        for _ in range(3):
            for query in QUERIES.values():
                session.submit(query)
        delivered = dict(session.as_completed())
        stats = session.stats()["scheduler"]
    assert len(delivered) == 3 * len(QUERIES)
    assert stats["live_records"] == 0
    assert stats["live_tasks"] == 0
    assert stats["records_reaped"] == 3 * len(QUERIES)
    assert stats["tasks_reaped"] >= stats["records_reaped"]  # finishes + collects
    assert stats["ready_tasks"] == 0


def test_result_of_reaped_delivered_query_raises():
    engine = fresh_engine()
    engine.answer = lambda query, **kwargs: object()
    with engine.open_session(jobs=1) as session:
        total = DELIVERED_KEEP + 10
        for _ in range(total):
            session.submit(QUERIES["ate"])
        assert len(dict(session.as_completed())) == total
        # Recent deliveries re-read idempotently; reaped ones raise.
        assert session.result(total - 1) is session.result(total - 1)
        with pytest.raises(QueryError, match="reaped"):
            session.result(0)
        with pytest.raises(QueryError, match="unknown"):
            session.result(total + 7)


# ----------------------------------------------------------------------
# submit backpressure
# ----------------------------------------------------------------------
def test_max_pending_raises_queue_full_immediately():
    engine = fresh_engine()
    release = threading.Event()
    original = engine.answer

    def gated(query, *args, **kwargs):
        release.wait(timeout=30.0)
        return original(query, *args, **kwargs)

    engine.answer = gated
    with engine.open_session(jobs=1, max_pending=2) as session:
        session.submit(QUERIES["ate"])
        session.submit(QUERIES["agg"])
        with pytest.raises(QueueFullError):
            session.submit(QUERIES["ate"])
        assert isinstance(QueueFullError("x"), QueryError)
        release.set()
        got = dict(session.as_completed())
        assert sorted(got) == [0, 1]  # the rejected submit left no residue
        # Consuming freed capacity: submitting works again.
        index = session.submit(QUERIES["ate"])
        assert isinstance(session.result(index, timeout=30.0), QueryAnswer)
    assert get_registry().counters()["session.queue_full"] == 1


def test_submit_timeout_blocks_bounded_then_raises():
    engine = fresh_engine()
    release = threading.Event()
    original = engine.answer

    def gated(query, *args, **kwargs):
        release.wait(timeout=30.0)
        return original(query, *args, **kwargs)

    engine.answer = gated
    with engine.open_session(jobs=1, max_pending=1, submit_timeout=0.15) as session:
        session.submit(QUERIES["ate"])
        started = time.monotonic()
        with pytest.raises(QueueFullError):
            session.submit(QUERIES["agg"])
        waited = time.monotonic() - started
        assert waited >= 0.1  # it blocked for the timeout, not instantly
        release.set()
        # Once the backlog drains, a blocking submit goes through.
        assert isinstance(session.result(0, timeout=30.0), QueryAnswer)
        index = session.submit(QUERIES["agg"])
        assert isinstance(session.result(index, timeout=30.0), QueryAnswer)


def test_bad_backpressure_options_are_rejected():
    engine = fresh_engine()
    with pytest.raises(QueryError, match="max_pending"):
        engine.open_session(max_pending=0)
    with pytest.raises(QueryError, match="submit_timeout"):
        engine.open_session(max_pending=1, submit_timeout=-1.0)


# ----------------------------------------------------------------------
# concurrent session spawn
# ----------------------------------------------------------------------
def test_second_session_progresses_while_first_is_mid_spawn(serial_answers):
    """A stalled worker fork in one session must not serialize every other
    session's spawn (the engine hand-off is token-keyed, not a global slot
    guarded by a process-wide lock)."""
    first_spawn_started = threading.Event()
    release_first_spawn = threading.Event()
    state = {"stalled": False}
    lock = threading.Lock()
    original_start = multiprocessing.Process.start

    def stalling_start(self):
        with lock:
            stall = not state["stalled"]
            state["stalled"] = True
        if stall:
            first_spawn_started.set()
            assert release_first_spawn.wait(timeout=30.0)
        return original_start(self)

    multiprocessing.Process.start = stalling_start
    try:
        outcome_b = {}
        engine_a, engine_b = fresh_engine(), fresh_engine()

        def open_a():
            with engine_a.open_session(jobs=1, executor="process", shards=1) as session:
                session.submit(QUERIES["ate"])
                outcome_b["a"] = session.result(0, timeout=60.0)

        thread_a = threading.Thread(target=open_a)
        thread_a.start()
        assert first_spawn_started.wait(timeout=30.0)
        # Session A is stalled inside its first worker fork.  Session B must
        # open, spawn and answer regardless.
        with engine_b.open_session(jobs=1, executor="process", shards=1) as session:
            session.submit(QUERIES["ate"])
            outcome_b["b"] = session.result(0, timeout=60.0)
        assert "a" not in outcome_b  # A is still stalled mid-spawn
        release_first_spawn.set()
        thread_a.join(timeout=90.0)
        assert not thread_a.is_alive()
    finally:
        multiprocessing.Process.start = original_start
        release_first_spawn.set()
    for outcome in outcome_b.values():
        assert answer_fingerprint(outcome) == answer_fingerprint(serial_answers["ate"])
