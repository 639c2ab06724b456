"""Fault-injection suite (``docs/fault_injection.md``).

Contracts held here:

* **plan determinism** — whether a rule fires is a pure sha256 function of
  (seed, site, scope, occurrence): stable across calls, processes and
  ``PYTHONHASHSEED`` values; plans round-trip through JSON; unknown sites
  and malformed rules are rejected at construction;
* **injection runtime** — sites fire only under an installed plan,
  worker-only sites never fire (or count occurrences) outside a declared
  worker process, per-rule ``limit`` bounds fires, every fire is counted on
  the ``fault.injected`` telemetry event;
* **recovery** — under seeded plans the process scheduler absorbs worker
  crashes, hangs, torn writes, corrupt artifacts and ENOSPC: every query
  resolves bit-identical to the no-fault serial answer (or as a structured
  ``QueryError``), backed by retries-with-seeded-backoff, heartbeat hang
  detection, quarantine-and-rebuild, degrade-to-uncached and the pool
  circuit breaker's serial fallback;
* **replay** — the ``repro chaos`` harness produces the same digest for the
  same plan and seed across runs and across ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import time
import types

import numpy as np
import pytest

from repro.cache.store import ArtifactCache, CacheKey
from repro.carl.engine import CaRLEngine
from repro.carl.errors import QueryError
from repro.carl.parser import parse_query
from repro.carl.queries import QueryAnswer
from repro.carl.shard import ShardTask
from repro.datasets import TOY_REVIEW_PROGRAM, toy_review_database
from repro.faults.injection import (
    PLAN_ENV,
    active_plan,
    clear_plan,
    fault_point,
    install_plan,
    set_role,
)
from repro.faults.plan import (
    FaultPlan,
    FaultRule,
    PlanError,
    rule_fires,
    seeded_fraction,
)
from repro.faults.sites import FAULT_SITES
from repro.observability.telemetry import reset_registry
from repro.service.scheduler import ShardScheduler, _Task, _Worker

QUERIES = {
    "ate": "Score[S] <= Prestige[A] ?",
    "agg": "AVG_Score[A] <= Prestige[A] ?",
    "thresh": "AVG_Score[A] <= Prestige[A] >= 1 ?",
    "peers": "Score[S] <= Prestige[A] ? WHEN ALL PEERS TREATED",
}


@pytest.fixture(autouse=True)
def no_leaked_plan():
    """No fault plan (or worker role, or telemetry) leaks across tests."""
    clear_plan()
    set_role("main")
    registry = reset_registry()
    yield registry
    clear_plan()
    set_role("main")
    reset_registry()


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


@pytest.fixture(scope="module")
def serial_answers():
    engine = fresh_engine()
    return {
        name: answer_fingerprint(engine.answer(query))
        for name, query in QUERIES.items()
    }


def toy_key(kind: str = "grounding", detail: str = "") -> CacheKey:
    return CacheKey(database="ab12", program="cd34", kind=kind, detail=detail)


def toy_payload() -> dict[str, np.ndarray]:
    return {"values": np.arange(6, dtype=np.float64)}


# ----------------------------------------------------------------------
# the frozen site catalogue
# ----------------------------------------------------------------------
def test_fault_site_catalogue_is_frozen():
    """Site names and worker-only flags are a published contract: plans and
    the lint rule refer to them by name.  Extending is fine — update this
    pin deliberately; renames break recorded plans."""
    assert {
        name: site.worker_only for name, site in FAULT_SITES.items()
    } == {
        "worker.crash": True,
        "worker.hang": True,
        "worker.slow": True,
        "worker.error": True,
        "worker.result_stall": True,
        "store.corrupt_read": False,
        "store.enospc": False,
        "store.torn_write": True,
        "daemon.route_stall": False,
        "session.deliver_stall": False,
    }
    for site in FAULT_SITES.values():
        assert site.default_delay >= 0.0


# ----------------------------------------------------------------------
# plan construction + JSON round-trip
# ----------------------------------------------------------------------
def test_rule_rejects_malformed_inputs():
    with pytest.raises(PlanError, match="unknown fault site"):
        FaultRule(site="worker.explode")
    with pytest.raises(PlanError, match="probability"):
        FaultRule(site="worker.crash", p=1.5)
    with pytest.raises(PlanError, match="limit"):
        FaultRule(site="worker.crash", limit=-1)
    with pytest.raises(PlanError, match="delay"):
        FaultRule(site="worker.slow", delay=-0.5)


def test_plan_json_round_trip_is_exact():
    plan = FaultPlan(
        seed=42,
        rules=(
            FaultRule(site="worker.crash", p=0.25, limit=2, workers=(0, 3)),
            FaultRule(site="worker.hang", at=(1, 4), delay=0.5),
            FaultRule(site="store.enospc", at=(0,)),
        ),
    )
    assert FaultPlan.from_json(plan.to_json()) == plan
    # Lists from JSON normalize to the same tuples Python-built rules use.
    assert FaultPlan.from_json(plan.to_json()).to_json() == plan.to_json()


def test_plan_json_rejects_malformed_documents():
    with pytest.raises(PlanError, match="not valid JSON"):
        FaultPlan.from_json("{nope")
    with pytest.raises(PlanError, match="JSON object"):
        FaultPlan.from_json("[1, 2]")
    with pytest.raises(PlanError, match="'rules' must be a list"):
        FaultPlan.from_json('{"seed": 1, "rules": {}}')
    with pytest.raises(PlanError, match="unknown fields"):
        FaultPlan.from_json(
            '{"rules": [{"site": "worker.crash", "chance": 0.5}]}'
        )
    with pytest.raises(PlanError, match="object with a 'site'"):
        FaultPlan.from_json('{"rules": [{"p": 0.5}]}')


# ----------------------------------------------------------------------
# firing decisions: pure, seeded, scope-aware
# ----------------------------------------------------------------------
def test_seeded_fraction_is_stable_and_seed_sensitive():
    a = seeded_fraction(7, "worker.crash", "worker:0", 3)
    assert a == seeded_fraction(7, "worker.crash", "worker:0", 3)
    assert 0.0 <= a < 1.0
    assert a != seeded_fraction(8, "worker.crash", "worker:0", 3)
    assert a != seeded_fraction(7, "worker.crash", "worker:1", 3)


def test_rule_fires_pinning_and_probability():
    pinned = FaultRule(site="worker.crash", at=(2,))
    assert not rule_fires(pinned, 0, "worker:0", 0)
    assert rule_fires(pinned, 0, "worker:0", 2)

    by_worker = FaultRule(site="worker.crash", at=(0,), workers=(1,))
    assert not rule_fires(by_worker, 0, "main", 0)
    assert not rule_fires(by_worker, 0, "worker:0", 0)
    assert rule_fires(by_worker, 0, "worker:1", 0)

    always = FaultRule(site="worker.crash", p=1.0)
    never = FaultRule(site="worker.crash", p=0.0)
    for occurrence in range(5):
        assert rule_fires(always, 9, "worker:0", occurrence)
        assert not rule_fires(never, 9, "worker:0", occurrence)


def test_rule_fires_probabilistic_decision_matches_the_coin():
    rule = FaultRule(site="worker.crash", p=0.5)
    for occurrence in range(20):
        expected = seeded_fraction(3, "worker.crash", "worker:0", occurrence) < 0.5
        assert rule_fires(rule, 3, "worker:0", occurrence) is expected


# ----------------------------------------------------------------------
# the injection runtime
# ----------------------------------------------------------------------
def test_fault_point_without_plan_is_inert():
    assert fault_point("store.enospc") is None
    assert fault_point("worker.crash") is None


def test_fault_point_rejects_unregistered_site():
    with pytest.raises(PlanError, match="unregistered site"):
        fault_point("store.no_such_site")


def test_install_plan_mirrors_into_environment():
    plan = FaultPlan(seed=5, rules=(FaultRule(site="store.enospc", at=(0,)),))
    install_plan(plan)
    assert os.environ.get(PLAN_ENV) == plan.to_json()
    assert active_plan() == plan
    clear_plan()
    assert PLAN_ENV not in os.environ
    assert active_plan() is None


def test_environment_plan_is_inherited_and_broken_env_ignored():
    plan = FaultPlan(seed=5, rules=(FaultRule(site="store.enospc", p=1.0),))
    os.environ[PLAN_ENV] = plan.to_json()
    try:
        assert active_plan() == plan  # read lazily, as a child would
    finally:
        clear_plan()
    os.environ[PLAN_ENV] = "{broken"
    try:
        assert active_plan() is None  # never takes the host process down
        assert fault_point("store.enospc") is None
    finally:
        clear_plan()


def test_worker_only_sites_neither_fire_nor_count_outside_workers():
    install_plan(
        FaultPlan(seed=0, rules=(FaultRule(site="worker.crash", at=(0,)),))
    )
    # Dispatcher-side traffic through the shared code path: no fire, and no
    # occurrence consumed from the worker stream.
    for _ in range(3):
        assert fault_point("worker.crash") is None
    set_role("worker", 0)
    decision = fault_point("worker.crash")  # still occurrence 0
    assert decision is not None
    assert decision.rule.at == (0,)


def test_rule_limit_bounds_fires_per_process():
    install_plan(
        FaultPlan(seed=0, rules=(FaultRule(site="store.enospc", p=1.0, limit=2),))
    )
    fired = [fault_point("store.enospc") is not None for _ in range(4)]
    assert fired == [True, True, False, False]


def test_fault_decision_delay_prefers_rule_override():
    install_plan(
        FaultPlan(
            seed=0,
            rules=(
                FaultRule(site="session.deliver_stall", at=(0,), delay=1.25),
                FaultRule(site="session.deliver_stall", at=(1,)),
            ),
        )
    )
    assert fault_point("session.deliver_stall").delay == 1.25
    assert (
        fault_point("session.deliver_stall").delay
        == FAULT_SITES["session.deliver_stall"].default_delay
    )


def test_fires_are_counted_on_fault_injected_telemetry(no_leaked_plan):
    install_plan(
        FaultPlan(seed=0, rules=(FaultRule(site="store.enospc", at=(0,)),))
    )
    assert fault_point("store.enospc", key="grounding") is not None
    assert no_leaked_plan.counters()["fault.injected"] == 1
    (event,) = no_leaked_plan.events("fault.injected")
    assert event["meta"]["site"] == "store.enospc"
    assert event["meta"]["key"] == "grounding"


# ----------------------------------------------------------------------
# seeded backoff between retry requeues
# ----------------------------------------------------------------------
def backoff_task(attempts: int) -> types.SimpleNamespace:
    return types.SimpleNamespace(kind="collect", id=3, attempts=attempts)


def test_backoff_is_seeded_exponential_with_bounded_jitter():
    scheduler = ShardScheduler(None, jobs=1, shards=1, retries=2)
    previous_exponential = 0.0
    for attempts in range(1, 8):
        delay = scheduler._backoff_seconds(backoff_task(attempts))
        exponential = min(2.0, 0.05 * 2 ** (attempts - 1))
        # jitter multiplier lands in [0.5, 1.0)
        assert exponential * 0.5 <= delay < exponential
        assert delay == scheduler._backoff_seconds(backoff_task(attempts))
        assert exponential >= previous_exponential  # capped, never shrinking
        previous_exponential = exponential


def test_backoff_is_deterministic_across_schedulers_and_disablable():
    a = ShardScheduler(None, jobs=1, shards=1, retries=2)
    b = ShardScheduler(None, jobs=1, shards=1, retries=2)
    assert a._backoff_seconds(backoff_task(2)) == b._backoff_seconds(backoff_task(2))
    seeded = ShardScheduler(None, jobs=1, shards=1, retries=2, backoff_seed=1)
    assert a._backoff_seconds(backoff_task(2)) != seeded._backoff_seconds(
        backoff_task(2)
    )
    disabled = ShardScheduler(None, jobs=1, shards=1, retries=2, backoff_base=0.0)
    assert disabled._backoff_seconds(backoff_task(5)) == 0.0


# ----------------------------------------------------------------------
# killed workers: no new tasks; results sent before death still count
# ----------------------------------------------------------------------
def fake_worker(worker_id: int, alive: bool = True, results=None) -> _Worker:
    """A dispatcher-side worker record over a stand-in process and task queue."""
    process = types.SimpleNamespace(is_alive=lambda: alive, exitcode=None if alive else -15)
    sent: list = []
    worker = _Worker(worker_id, process, types.SimpleNamespace(put=sent.append), results)
    worker.sent = sent
    return worker


def ready_collect_task(scheduler: ShardScheduler) -> _Task:
    spec = ShardTask(
        query=parse_query(QUERIES["ate"]),
        start=0,
        stop=1,
        n_units=1,
        result_key=CacheKey(database="ab" * 32, program="cd" * 32, kind="unit_inputs"),
    )
    task = _Task(id=0, kind="collect", spec=spec, queries={0})
    scheduler._tasks[task.id] = task
    scheduler._enqueue_ready_locked(task)
    return task


def test_a_killed_worker_is_not_sent_a_task():
    scheduler = ShardScheduler(None, jobs=2, shards=1, retries=2)
    dying, live = fake_worker(0), fake_worker(1)
    dying.expected_death = True  # terminated, not yet reaped
    scheduler._workers = {0: dying, 1: live}
    task = ready_collect_task(scheduler)
    scheduler._assign_ready_tasks()
    assert dying.sent == []
    assert [task_id for task_id, _ in live.sent] == [task.id]


def test_a_dead_workers_last_result_is_handled_before_its_death(tmp_path):
    scheduler = ShardScheduler(None, jobs=1, shards=1, retries=2)
    scheduler._cache = ArtifactCache(tmp_path)
    scheduler._stop.set()  # closing: the dead worker is not replaced
    results, writer = multiprocessing.Pipe(duplex=False)
    worker = fake_worker(0, alive=False, results=results)
    scheduler._workers = {0: worker}
    task = ready_collect_task(scheduler)
    scheduler._assign_ready_tasks()
    # The worker finished its task, reported it, then died.
    writer.send((0, task.id, "ok", (task.spec.result_key, 0.5), None))
    writer.close()
    scheduler._reap_dead_workers()
    stats = scheduler.stats()
    assert stats["retries"] == 0  # the finished task is not rerun
    assert stats["live_tasks"] == 0
    assert stats["warm_keys"] == 1
    assert results.closed
    scheduler._cache.unpin_all()


# ----------------------------------------------------------------------
# artifact store: ENOSPC degrade, quarantine, torn-write reap
# ----------------------------------------------------------------------
def test_enospc_degrades_store_then_self_heals(tmp_path, no_leaked_plan):
    cache = ArtifactCache(tmp_path / "cache")
    install_plan(
        FaultPlan(seed=0, rules=(FaultRule(site="store.enospc", at=(0,)),))
    )
    assert cache.store(toy_key(), toy_payload()) is None  # dropped, not raised
    assert cache.degraded
    assert cache.stats.store_error_count() == 1
    assert cache.stats.summary()["grounding"]["store_errors"] == 1
    assert no_leaked_plan.counters()["cache.store_error"] == 1
    assert no_leaked_plan.gauges()["cache.degraded"] == 1.0
    # The next store retries the disk; the first success clears the flag.
    assert cache.store(toy_key(), toy_payload()) is not None
    assert not cache.degraded
    assert no_leaked_plan.gauges()["cache.degraded"] == 0.0
    loaded = cache.load(toy_key())
    assert loaded is not None
    np.testing.assert_array_equal(loaded["values"], toy_payload()["values"])


def test_truncated_artifact_is_quarantined_not_reread(tmp_path):
    """Regression: a truncated npz used to fail every later load of the same
    key; now the corrupt file moves to ``quarantine/`` (a miss, counted) and
    the next store rebuilds the artifact."""
    cache = ArtifactCache(tmp_path / "cache")
    key = toy_key(kind="unit_table", detail="beef")
    path = cache.store(key, toy_payload())
    assert path is not None
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

    assert cache.load(key) is None  # a miss, never an exception
    assert not path.exists()  # moved out of the cache namespace
    assert cache.stats.quarantined_count("unit_table") == 1
    assert cache.stats.summary()["unit_table"]["quarantined"] == 1
    (quarantined,) = cache.quarantined_files()
    assert quarantined.name.endswith(".quarantined")
    assert not cache.contains(key)

    assert cache.store(key, toy_payload()) is not None  # rebuild succeeds
    assert cache.load(key) is not None


def test_corrupt_read_fault_site_drives_quarantine(tmp_path, no_leaked_plan):
    cache = ArtifactCache(tmp_path / "cache")
    key = toy_key()
    assert cache.store(key, toy_payload()) is not None
    install_plan(
        FaultPlan(seed=0, rules=(FaultRule(site="store.corrupt_read", at=(0,)),))
    )
    assert cache.load(key) is None
    assert cache.stats.quarantined_count() == 1
    assert no_leaked_plan.counters()["cache.quarantined"] == 1
    clear_plan()
    assert cache.store(key, toy_payload()) is not None
    assert cache.load(key) is not None


def test_reap_temp_files_removes_stale_torn_writes(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    key = toy_key()
    assert cache.store(key, toy_payload()) is not None
    torn = cache.path_for(key).parent / f".{key.file_name}.dead1234.tmp"
    torn.write_bytes(b"half an artifact")
    assert cache.reap_temp_files(max_age_seconds=3600.0) == 0  # too fresh
    assert cache.reap_temp_files(max_age_seconds=0.0) == 1
    assert not torn.exists()
    assert cache.load(key) is not None  # real artifacts untouched


# ----------------------------------------------------------------------
# scheduler recovery under seeded plans (process pool)
# ----------------------------------------------------------------------
def run_session(engine, plan, queries, *, jobs=2, retries=3, hang_timeout=None,
                timeout=None, repeat=1, deadline=120.0):
    """Run ``queries`` through a process session under ``plan``; returns
    (outcomes-by-name, scheduler stats)."""
    install_plan(plan)
    try:
        kwargs = {} if hang_timeout is None else {"hang_timeout": hang_timeout}
        with engine.open_session(
            jobs=jobs, executor="process", retries=retries, **kwargs
        ) as session:
            submitted = {}
            for round_index in range(repeat):
                for name, text in queries.items():
                    index = session.submit(text, timeout=timeout)
                    submitted[index] = f"{name}#{round_index}"
            outcomes = {
                submitted[index]: outcome
                for index, outcome in session.as_completed(timeout=deadline)
            }
            stats = session.stats()["scheduler"]
        return outcomes, stats
    finally:
        clear_plan()


def assert_matches_serial(outcomes, serial_answers):
    for name, outcome in outcomes.items():
        assert isinstance(outcome, QueryAnswer), f"{name}: {outcome}"
        assert answer_fingerprint(outcome) == serial_answers[name.split("#", 1)[0]]


def test_worker_crash_once_is_retried_and_answers_match_serial(serial_answers):
    plan = FaultPlan(
        seed=11, rules=(FaultRule(site="worker.crash", workers=(0,), at=(0,)),)
    )
    outcomes, stats = run_session(fresh_engine(), plan, QUERIES)
    assert len(outcomes) == len(QUERIES)
    assert_matches_serial(outcomes, serial_answers)
    assert stats["worker_deaths"] == 1  # the replacement is not re-killed
    assert stats["retries"] >= 1


def test_hung_worker_is_detected_by_heartbeat_and_replaced(serial_answers):
    plan = FaultPlan(
        seed=0, rules=(FaultRule(site="worker.hang", workers=(0,), at=(0,)),)
    )
    queries = {"ate": QUERIES["ate"]}
    outcomes, stats = run_session(
        fresh_engine(), plan, queries, jobs=1, hang_timeout=1.0
    )
    assert_matches_serial(outcomes, serial_answers)
    assert stats["worker_hangs"] == 1
    assert stats["retries"] >= 1


def test_circuit_breaker_falls_back_to_serial_answers(serial_answers):
    # Every worker task crashes, forever: the pool is unusable.  The breaker
    # must trip and answer every query serially in-process, bit-identical.
    plan = FaultPlan(seed=0, rules=(FaultRule(site="worker.crash", p=1.0),))
    queries = {"ate": QUERIES["ate"], "agg": QUERIES["agg"]}
    outcomes, stats = run_session(
        fresh_engine(), plan, queries, jobs=1, retries=10
    )
    assert_matches_serial(outcomes, serial_answers)
    assert stats["circuit_open"] == 1
    assert stats["serial_fallbacks"] >= 1


def test_torn_write_never_visible_and_temp_reaped(tmp_path, serial_answers):
    # Worker 0 dies between its temp write and the atomic rename.  No reader
    # may ever see the partial artifact; the orphaned .tmp is reapable.
    root = tmp_path / "cache"
    plan = FaultPlan(
        seed=0, rules=(FaultRule(site="store.torn_write", workers=(0,), at=(0,)),)
    )
    outcomes, stats = run_session(
        fresh_engine(cache=ArtifactCache(root)), plan, QUERIES
    )
    assert_matches_serial(outcomes, serial_answers)
    assert stats["worker_deaths"] >= 1
    cache = ArtifactCache(root)
    assert cache.reap_temp_files(max_age_seconds=0.0) >= 1
    # Every artifact that did land decodes — nothing half-written is visible.
    for npz in sorted(root.rglob("*.npz")):
        np.load(npz, allow_pickle=False).close()


def test_deadline_expiry_kills_the_stuck_worker_and_pool_recovers(serial_answers):
    # Worker 0's first task sleeps far past the query deadline.  The expired
    # query must yield a structured timeout error AND free the pool slot (the
    # stuck worker is killed and replaced), so the next query still runs.
    plan = FaultPlan(
        seed=0,
        rules=(FaultRule(site="worker.slow", workers=(0,), at=(0,), delay=30.0),),
    )
    install_plan(plan)
    try:
        engine = fresh_engine()
        with engine.open_session(jobs=1, executor="process", retries=0) as session:
            slow = session.submit(QUERIES["ate"], timeout=0.75)
            outcomes = dict(session.as_completed(timeout=60.0))
            assert isinstance(outcomes[slow], QueryError)
            assert "timed out" in str(outcomes[slow])
            follow_up = session.submit(QUERIES["agg"])
            for index, outcome in session.as_completed(timeout=60.0):
                if index == follow_up:
                    assert isinstance(outcome, QueryAnswer)
                    assert (
                        answer_fingerprint(outcome) == serial_answers["agg"]
                    )
            stats = session.stats()["scheduler"]
            assert stats["timeouts"] == 1
            assert stats["workers_killed"] >= 1
    finally:
        clear_plan()


def test_storm_plan_answers_stay_bit_identical_warm_and_cold(serial_answers):
    from repro.faults.chaos import default_plan

    outcomes, stats = run_session(
        fresh_engine(), default_plan(seed=7), QUERIES, repeat=2
    )
    assert len(outcomes) == 2 * len(QUERIES)
    assert_matches_serial(outcomes, serial_answers)


# ----------------------------------------------------------------------
# the chaos harness: replay across runs and hash seeds
# ----------------------------------------------------------------------
def run_chaos_cli(hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p
    )
    env.pop(PLAN_ENV, None)
    completed = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "chaos",
            "--demo", "toy", "--seed", "7", "--jobs", "2", "--repeat", "1",
            "--deadline", "240", "--json",
        ],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def test_chaos_digest_replays_across_hash_seeds():
    first = run_chaos_cli("0")
    second = run_chaos_cli("1")
    assert first["verdict"] == "ok"
    assert second["verdict"] == "ok"
    assert first["digest"] == second["digest"]
    assert first["queries"] == len(QUERIES)
    assert not first["mismatches"] and not first["unresolved"]
