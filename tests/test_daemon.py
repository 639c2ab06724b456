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
  work; ``close()`` is idempotent and leaves no worker processes behind;
* **delivery contract** — each submitted index is delivered exactly once
  or never (cancelled, or abandoned by ``close()``), under concurrent
  submit, cancel and consume, on thread, process and tenant sessions; a
  closed session never leaves a consumer waiting.
"""

from __future__ import annotations

import multiprocessing
import sys
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
        index = first.submit(QUERIES["ate"])
        first.close()  # abandons and cancels its query — not the pool
        assert daemon.inflight() == 0
        for _ in first.as_completed(timeout=0.5):
            pytest.fail("a closed session's query must not yield")
        with pytest.raises(QueryError, match="abandoned"):
            first.result(index)
        with daemon.open_session(tenant="second") as session:
            session.submit(QUERIES["ate"])
            outcome = session.result(0, timeout=60.0)
        assert answer_fingerprint(outcome) == answer_fingerprint(serial_answers["ate"])


def test_a_tenant_has_one_open_session_at_a_time():
    """A second session under an open tenant's name would get its own
    token bucket and in-flight cap, multiplying the tenant's quota: it is
    refused until the first one closes.  Generated names skip taken ones."""
    with QueryDaemon(fresh_engine(), jobs=1, shards=1) as daemon:
        first = daemon.open_session(tenant="a", max_inflight=1)
        with pytest.raises(QueryError, match="'a'"):
            daemon.open_session(tenant="a")
        assert list(daemon.stats()["tenants"]) == ["a"]
        taken = daemon.open_session(tenant="tenant-0")
        anonymous = daemon.open_session()
        assert anonymous.tenant == "tenant-1"
        first.close()
        again = daemon.open_session(tenant="a")
        assert list(daemon.stats()["tenants"]) == ["tenant-0", "tenant-1", "a"]
        for session in (taken, anonymous, again):
            session.close()


# ----------------------------------------------------------------------
# delivery contract: exactly once, or never — close included
# ----------------------------------------------------------------------
def wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)
    return True


@pytest.mark.parametrize("kind", ["thread", "process", "daemon"])
def test_close_ends_every_abandoned_query(kind, fault_plan):
    """One query running and one queued, then ``close()``: neither ever
    yields, iteration ends at once instead of waiting for them, ``result``
    names each abandoned index, and no scheduler record survives."""
    engine = fresh_engine()
    daemon = None
    release = threading.Event()
    if kind == "thread":
        started = threading.Event()
        original = engine.answer

        def gated(query, *args, **kwargs):
            started.set()
            release.wait(timeout=10.0)
            return original(query, *args, **kwargs)

        engine.answer = gated
        session = engine.open_session(jobs=1)
    else:
        fault_plan(FaultRule("worker.slow", p=1.0, delay=0.5))
        if kind == "process":
            session = engine.open_session(jobs=1, executor="process", shards=1)
        else:
            daemon = QueryDaemon(engine, jobs=1, shards=1)
            session = daemon.open_session(tenant="t")
    try:
        running = session.submit(QUERIES["ate"])
        queued = session.submit(QUERIES["agg"])
        if kind == "thread":
            assert started.wait(timeout=10.0)
        else:
            # Both collect tasks planned, one of them on the only worker.
            assert wait_until(
                lambda: (
                    session.stats()["scheduler"]["live_tasks"] == 2
                    and session.stats()["scheduler"]["ready_tasks"] == 1
                )
            )
        session.close()
        release.set()
        assert session.outstanding() == 0
        assert list(session.as_completed(timeout=2.0)) == []
        for index in (running, queued):
            with pytest.raises(QueryError, match=f"query {index} was abandoned"):
                session.result(index)
        if daemon is None:
            assert session.stats()["scheduler"]["live_records"] == 0
        else:
            assert daemon.inflight() == 0
            # The shared scheduler detaches the cancelled records on its
            # dispatcher's next turn.
            assert wait_until(
                lambda: daemon.stats()["scheduler"]["live_records"] == 0, timeout=1.0
            )
    finally:
        release.set()
        if daemon is not None:
            daemon.close()
        session.close()


@pytest.mark.parametrize("kind", ["thread", "process"])
def test_close_ends_the_span_tree_of_every_abandoned_query(kind, fault_plan):
    """Two queries in flight, then ``close()``: each leaves one ``query``
    span with outcome "cancelled" and one ``query.duration`` sample, and a
    thread answer still running at close does not end its span again."""
    reset_registry()
    engine = fresh_engine()
    release = threading.Event()
    answered = threading.Event()
    if kind == "thread":
        original = engine.answer

        def gated(query, *args, **kwargs):
            try:
                release.wait(timeout=10.0)
                return original(query, *args, **kwargs)
            finally:
                answered.set()

        engine.answer = gated
        session = engine.open_session(jobs=1)
    else:
        fault_plan(FaultRule("worker.slow", p=1.0, delay=0.3))
        session = engine.open_session(jobs=2, executor="process", shards=1)
    try:
        session.submit(QUERIES["ate"])
        session.submit(QUERIES["agg"])
        time.sleep(0.2)
        session.close()
        release.set()
        if kind == "thread":
            assert answered.wait(timeout=10.0)
            time.sleep(0.1)  # the answer's own bookkeeping runs after it returns
        registry = get_registry()
        spans = [event for event in registry.events(name="query") if event["kind"] == "span"]
        assert [span["meta"]["outcome"] for span in spans] == ["cancelled", "cancelled"]
        assert sum(registry.histograms()["query.duration"].values()) == 2
    finally:
        release.set()
        session.close()


def test_outcome_delivered_while_cancelling_never_yields():
    """``cancel`` withdraws the index before it tells the scheduler, so an
    outcome the scheduler delivers in between is dropped, not yielded."""
    engine = fresh_engine()
    release = threading.Event()

    def gated(query, **kwargs):
        assert release.wait(timeout=10.0)
        return object()

    engine.answer = gated
    with engine.open_session(jobs=1) as session:
        index = session.submit(QUERIES["ate"])
        scheduler = session._scheduler
        scheduler_cancel = scheduler.cancel

        def cancel_after_delivery(scheduled: int) -> bool:
            release.set()  # the answer finishes and is delivered first
            assert wait_until(lambda: scheduler.stats()["live_records"] == 0)
            return scheduler_cancel(scheduled)

        scheduler.cancel = cancel_after_delivery
        assert session.cancel(index) is True
        assert list(session.as_completed(timeout=1.0)) == []
        with pytest.raises(QueryError, match="cancelled"):
            session.result(index)


def drive_concurrently(session, total: int) -> tuple[list[int], set[int]]:
    """Submit ``total`` queries from one thread, cancel every 7th index from
    another and consume ``as_completed`` on this one, all at once.

    Returns the delivered indexes (in delivery order) and the indexes whose
    ``cancel`` returned True.
    """
    submitted = threading.Semaphore(0)
    done_submitting = threading.Event()
    cancelled: set[int] = set()
    errors: list[BaseException] = []

    def submit_all() -> None:
        try:
            for _ in range(total):
                session.submit(QUERIES["ate"])
                submitted.release()
        except BaseException as error:  # noqa: BLE001 - asserted below
            errors.append(error)
        finally:
            done_submitting.set()

    def cancel_every_seventh() -> None:
        seen = 0
        try:
            for target in range(0, total, 7):
                while seen <= target:
                    if not submitted.acquire(timeout=5.0):
                        raise TimeoutError(f"index {target} was never submitted")
                    seen += 1
                if session.cancel(target):
                    cancelled.add(target)
        except BaseException as error:  # noqa: BLE001 - asserted below
            errors.append(error)

    threads = [
        threading.Thread(target=submit_all),
        threading.Thread(target=cancel_every_seventh),
    ]
    for thread in threads:
        thread.start()
    delivered: list[int] = []
    deadline = time.monotonic() + 30.0
    while not done_submitting.is_set() or session.outstanding():
        assert time.monotonic() < deadline
        before = len(delivered)
        delivered += [index for index, _ in session.as_completed(timeout=5.0)]
        if len(delivered) == before:
            time.sleep(0.001)  # nothing live yet: let the submitter run
    for thread in threads:
        thread.join(timeout=10.0)
        assert not thread.is_alive()
    assert not errors, errors
    return delivered, cancelled


def assert_delivered_once_or_cancelled(total, delivered, cancelled) -> None:
    assert len(delivered) == len(set(delivered)), "an index was delivered twice"
    assert set(delivered).isdisjoint(cancelled)
    assert set(delivered) | cancelled == set(range(total))


def test_each_index_is_delivered_once_or_cancelled_under_contention():
    """Submit, cancel and consume race on a thread session whose answers a
    releaser thread lets through one query at a time; more threads than
    cores, switching often."""
    total = 60
    gate = threading.Semaphore(0)
    engine = fresh_engine()

    def gated(query, **kwargs):
        assert gate.acquire(timeout=10.0)
        return object()

    engine.answer = gated
    stop = threading.Event()

    def release_one_at_a_time() -> None:
        while not stop.is_set():
            gate.release()
            time.sleep(0.001)

    releaser = threading.Thread(target=release_one_at_a_time)
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    releaser.start()
    try:
        with engine.open_session(jobs=2) as session:
            delivered, cancelled = drive_concurrently(session, total)
            assert_delivered_once_or_cancelled(total, delivered, cancelled)
            assert session.outstanding() == 0
            assert wait_until(
                lambda: session.stats()["scheduler"]["live_records"] == 0, timeout=1.0
            )
    finally:
        sys.setswitchinterval(switch_interval)
        stop.set()
        releaser.join(timeout=10.0)
        assert not releaser.is_alive()


def test_tenants_deliver_each_index_once_or_cancelled_under_contention(tmp_path):
    """The same race on two tenant sessions of one daemon at once, over
    warm answers from a cached engine."""
    total = 30
    engine = fresh_engine(cache=tmp_path / "cache")
    engine.answer(QUERIES["ate"])  # caches the unit table: answers are warm
    with QueryDaemon(engine, jobs=2, shards=2) as daemon:
        sessions = [daemon.open_session(tenant=tenant) for tenant in ("a", "b")]
        results: dict[int, tuple[list[int], set[int]]] = {}

        def drive(position: int) -> None:
            results[position] = drive_concurrently(sessions[position], total)

        threads = [threading.Thread(target=drive, args=(p,)) for p in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        assert set(results) == {0, 1}
        for delivered, cancelled in results.values():
            assert_delivered_once_or_cancelled(total, delivered, cancelled)
        assert all(session.outstanding() == 0 for session in sessions)
        assert daemon.inflight() == 0
        assert wait_until(
            lambda: daemon.stats()["scheduler"]["live_records"] == 0
            and daemon.stats()["scheduler"]["live_tasks"] == 0,
            timeout=1.0,
        )
        for session in sessions:
            session.close()


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
        # are capped, scheduler records are reaped at delivery.
        assert session.outstanding() == 0
        assert len(session._live) == 0
        assert len(session._resolved) == 0
        assert len(session._delivered) <= DELIVERED_KEEP
        assert len(session._suppressed) <= SUPPRESSED_KEEP
        assert session.stats()["scheduler"]["live_records"] == 0
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
