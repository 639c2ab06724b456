"""Structured-telemetry suite (``docs/observability.md``).

Contracts held here:

* **frozen schema** — the event registry's exact contents (names, kinds,
  required/optional fields) are pinned; extending telemetry is a deliberate
  two-place change (schema + this snapshot), never silent drift;
* **validation** — every emission is checked against the registry: wrong
  names, kinds and metadata fields raise :class:`TelemetryError` in the
  emitting thread;
* **registry mechanics** — counters accumulate, gauges keep the last value,
  the ring buffer is bounded, span handles nest and finish idempotently,
  the JSON-lines sink round-trips through :func:`read_log`, and a forked
  child's inherited registry starts clean;
* **span-tree invariants** — every answered process-mode query emits
  exactly one ``query`` root with one ``query.ground`` and one
  ``query.finish`` child, nested monotonic timestamps, and ``query.collect``
  children only when collection actually ran: a warm (cached unit table)
  answer emits **zero** collect spans.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.carl.engine import CaRLEngine
from repro.datasets import TOY_REVIEW_PROGRAM, toy_review_database
from repro.observability import (
    DARK_ENV,
    EVENTS,
    TelemetryError,
    TelemetryRegistry,
    bucket_percentile,
    bucket_upper_bound,
    dump_flight_recording,
    get_registry,
    histogram_bucket,
    merge_worker_batch,
    read_log,
    reset_registry,
    set_role,
    summarize_events,
    trace_context,
    validate_event,
)
from repro.observability.telemetry import HIST_MAX_EXP, HIST_MIN_EXP

QUERIES = {
    "ate": "Score[S] <= Prestige[A] ?",
    "agg": "AVG_Score[A] <= Prestige[A] ?",
    "thresh": "AVG_Score[A] <= Prestige[A] >= 1 ?",
    "peers": "Score[S] <= Prestige[A] ? WHEN ALL PEERS TREATED",
}


def fresh_engine(**kwargs) -> CaRLEngine:
    return CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM, **kwargs)


@pytest.fixture(autouse=True)
def fresh_registry():
    registry = reset_registry()
    yield registry
    reset_registry()


# ----------------------------------------------------------------------
# the frozen schema
# ----------------------------------------------------------------------
#: Pinned snapshot of the registry: name -> (kind, required, optional).
#: Changing telemetry means changing the schema module AND this snapshot —
#: that review step is the whole point (drift would silently break every
#: consumer of the JSON-lines log).
FROZEN_SCHEMA = {
    "query": ("span", ("index",), ("mode", "outcome", "tenant", "executor")),
    "query.ground": ("span", (), ("cached",)),
    "query.collect": ("span", ("start", "stop"), ("worker", "attempt", "outcome")),
    "query.finish": ("span", (), ("mode", "worker", "outcome")),
    "query.duration": ("histogram", (), ("mode", "outcome")),
    "worker.collect": ("span", (), ("start", "stop")),
    "worker.store": ("span", (), ("kind",)),
    "worker.merge": ("span", (), ()),
    "worker.materialize": ("span", (), ()),
    "worker.estimate": ("span", (), ()),
    "worker.span_batch": ("counter", (), ("worker", "dropped")),
    "engine.ground": ("span", (), ("cached",)),
    "cache.hit": ("counter", (), ("kind",)),
    "cache.miss": ("counter", (), ("kind",)),
    "cache.store": ("counter", (), ("kind",)),
    "cache.quarantined": ("counter", (), ("kind",)),
    "cache.store_error": ("counter", (), ("kind",)),
    "cache.degraded": ("gauge", (), ()),
    "scheduler.retry": ("counter", (), ("kind", "backoff_ms")),
    "scheduler.timeout": ("counter", (), ()),
    "scheduler.cancelled": ("counter", (), ()),
    "scheduler.worker_death": ("counter", (), ()),
    "scheduler.worker_killed": ("counter", (), ("reason",)),
    "scheduler.circuit_open": ("counter", (), ()),
    "scheduler.serial_fallback": ("counter", (), ("reason",)),
    "scheduler.queue_depth": ("gauge", (), ()),
    "scheduler.queue_wait": ("histogram", (), ("kind",)),
    "scheduler.retry_backoff": ("histogram", (), ()),
    "scheduler.flight_dump": ("counter", ("reason",), ()),
    "fault.injected": ("counter", ("site",), ("key",)),
    "daemon.admit": ("counter", ("tenant",), ()),
    "daemon.reject": ("counter", ("tenant",), ("reason",)),
    "daemon.sessions": ("gauge", (), ()),
    "session.queue_full": ("counter", (), ()),
}


def test_event_schema_is_frozen():
    snapshot = {
        name: (spec.kind, spec.required, spec.optional) for name, spec in EVENTS.items()
    }
    assert snapshot == FROZEN_SCHEMA


def test_validate_event_rejects_off_schema_emissions():
    with pytest.raises(TelemetryError, match="unregistered"):
        validate_event("no.such.event", "counter", {})
    with pytest.raises(TelemetryError, match="is a counter"):
        validate_event("cache.hit", "span", {})
    with pytest.raises(TelemetryError, match="does not allow"):
        validate_event("cache.hit", "counter", {"surprise": 1})
    with pytest.raises(TelemetryError, match="requires"):
        validate_event("daemon.admit", "counter", {})
    validate_event("daemon.admit", "counter", {"tenant": "a"})  # conforming


def test_registry_rejects_off_schema_emissions_at_the_call_site():
    registry = get_registry()
    with pytest.raises(TelemetryError):
        registry.count("no.such.event")
    with pytest.raises(TelemetryError):
        registry.gauge("cache.hit", 1.0)  # declared as a counter
    with pytest.raises(TelemetryError):
        registry.start_span("query")  # missing required index
    span = registry.start_span("query", index=0)
    with pytest.raises(TelemetryError):
        registry.finish_span(span, bogus_field=1)


# ----------------------------------------------------------------------
# registry mechanics
# ----------------------------------------------------------------------
def test_counters_accumulate_and_gauges_keep_last_value():
    registry = get_registry()
    registry.count("cache.hit", kind="grounding")
    registry.count("cache.hit", 2, kind="unit_table")
    registry.gauge("scheduler.queue_depth", 5)
    registry.gauge("scheduler.queue_depth", 2)
    assert registry.counters()["cache.hit"] == 3
    assert registry.gauges()["scheduler.queue_depth"] == 2
    assert len(registry.events(name="cache.hit")) == 2


def test_ring_buffer_is_bounded():
    registry = reset_registry(capacity=16)
    for _ in range(100):
        registry.count("cache.miss")
    assert len(registry.events()) == 16
    assert registry.counters()["cache.miss"] == 100  # totals are not windowed


def test_spans_nest_with_monotonic_timestamps_and_finish_idempotently():
    registry = get_registry()
    root = registry.start_span("query", index=0)
    child = registry.start_span("query.ground", trace=root.trace, parent=root)
    registry.finish_span(child, cached=False)
    registry.finish_span(child)  # idempotent: emits once
    registry.finish_span(root, outcome="ok")
    spans = registry.spans()
    assert [span["event"] for span in spans] == ["query.ground", "query"]
    ground, query = spans
    assert ground["trace"] == query["trace"]
    assert ground["parent"] == query["span"]
    assert query["t0"] <= ground["t0"] <= ground["t1"] <= query["t1"]
    assert query["meta"] == {"index": 0, "outcome": "ok"}


def test_span_context_manager_emits_on_exit():
    registry = get_registry()
    with registry.span("engine.ground", cached=True):
        pass
    (record,) = registry.spans("engine.ground")
    assert record["meta"] == {"cached": True}


def test_sink_round_trips_through_read_log_and_summarize(tmp_path):
    log = tmp_path / "telemetry.jsonl"
    registry = reset_registry(sink=log)
    with registry.span("engine.ground", cached=False):
        pass
    registry.count("cache.store", kind="grounding")
    registry.gauge("daemon.sessions", 3)
    registry.flush_sink()  # the sink buffers; flush before reading back
    log.open("a").write("not json\n")  # malformed lines are skipped
    events = read_log(log)
    assert [event["event"] for event in events] == [
        "engine.ground",
        "cache.store",
        "daemon.sessions",
    ]
    summary = summarize_events(events)
    assert summary["events"] == 3
    assert summary["spans"]["engine.ground"]["count"] == 1
    assert summary["spans"]["engine.ground"]["p99_seconds"] >= 0.0
    assert summary["counters"] == {"cache.store": 1}
    assert summary["gauges"] == {"daemon.sessions": 3.0}
    assert read_log(tmp_path / "missing.jsonl") == []


def test_forked_child_registry_starts_clean(tmp_path):
    registry = TelemetryRegistry(sink=tmp_path / "parent.jsonl")
    registry.count("cache.hit")
    assert registry.counters() == {"cache.hit": 1}
    registry._pid = -1  # simulate: this handle was inherited across a fork
    registry.count("cache.miss")
    # The "child" starts from scratch and never touches the parent's sink.
    assert registry.counters() == {"cache.miss": 1}
    assert registry.sink_path is None


# ----------------------------------------------------------------------
# deterministic histograms
# ----------------------------------------------------------------------
def test_histogram_bucket_is_a_pure_clamped_log2():
    assert histogram_bucket(1.0) == 0
    assert histogram_bucket(1.5) == 0
    assert histogram_bucket(2.0) == 1
    assert histogram_bucket(0.75) == -1
    assert histogram_bucket(0.0) == HIST_MIN_EXP
    assert histogram_bucket(-3.0) == HIST_MIN_EXP
    assert histogram_bucket(float("nan")) == HIST_MIN_EXP
    assert histogram_bucket(2.0**40) == HIST_MAX_EXP
    assert histogram_bucket(2.0**-40) == HIST_MIN_EXP
    assert bucket_upper_bound(0) == 2.0
    assert bucket_upper_bound(-1) == 1.0


def test_bucket_percentile_nearest_rank_over_upper_bounds():
    assert bucket_percentile({}, 50.0) == 0.0
    # 10 observations in bucket 0 ([1,2)), 1 in bucket 4 ([16,32)).
    buckets = {0: 10, 4: 1}
    assert bucket_percentile(buckets, 50.0) == 2.0
    assert bucket_percentile(buckets, 99.0) == 32.0


def test_histogram_emission_totals_and_summary(tmp_path):
    registry = get_registry()
    for value in (0.001, 0.002, 0.5, 3.0):
        registry.histogram("query.duration", value, mode="cold")
    totals = registry.histograms()["query.duration"]
    assert sum(totals.values()) == 4
    summary = summarize_events(registry.events())
    stats = summary["histograms"]["query.duration"]
    assert stats["count"] == 4
    assert stats["p50"] > 0.0
    assert stats["buckets"] == totals


# ----------------------------------------------------------------------
# cross-process stitching primitives
# ----------------------------------------------------------------------
def test_worker_role_prefixes_generated_ids():
    set_role("worker", 3)
    registry = get_registry()
    span = registry.start_span("worker.merge")
    registry.finish_span(span)
    assert span.trace.startswith("w3.t")
    assert span.span_id.startswith("w3.s")
    set_role("dispatcher")
    plain = registry.start_span("worker.merge")
    assert not plain.trace.startswith("w3.")


def test_trace_context_supplies_default_attachment():
    registry = get_registry()
    with trace_context("t7", "s9"):
        inherited = registry.start_span("worker.collect")
        explicit = registry.start_span("query", index=0, trace="t1", parent="s1")
    outside = registry.start_span("worker.collect")
    assert (inherited.trace, inherited.parent) == ("t7", "s9")
    assert (explicit.trace, explicit.parent) == ("t1", "s1")
    assert outside.parent is None


def test_drain_events_moves_ring_and_totals():
    registry = get_registry()
    registry.count("cache.hit")
    registry.histogram("scheduler.retry_backoff", 0.25)
    batch = registry.drain_events()
    assert batch is not None
    assert [record["event"] for record in batch["events"]] == [
        "cache.hit",
        "scheduler.retry_backoff",
    ]
    assert batch["dropped"] == 0
    # Moved, not copied: a second drain has nothing, totals are rebuilt by
    # the receiver from the shipped records.
    assert registry.drain_events() is None
    assert registry.counters() == {}
    assert registry.histograms() == {}


def test_merge_worker_batch_rebuilds_totals_and_attributes_worker():
    registry = get_registry()
    batch = {
        "events": [
            {"event": "cache.hit", "kind": "counter", "value": 2, "meta": {}},
            {"event": "scheduler.queue_wait", "kind": "histogram", "value": 0.5,
             "bucket": -1, "meta": {}},
            "not-a-record",
        ],
        "dropped": 3,
    }
    merged = merge_worker_batch(registry, batch, worker=5)
    assert merged == 2
    assert registry.counters()["cache.hit"] == 2
    assert registry.histograms()["scheduler.queue_wait"] == {-1: 1}
    merged_records = [event for event in registry.events() if event.get("worker") == 5]
    assert len(merged_records) == 2
    (span_batch,) = registry.events(name="worker.span_batch")
    assert span_batch["value"] == 2
    assert span_batch["meta"] == {"worker": 5, "dropped": 3}
    # Malformed batches are ignored outright: telemetry never fails a result.
    assert merge_worker_batch(registry, None) == 0
    assert merge_worker_batch(registry, {"events": "nope"}) == 0


def test_dark_mode_short_circuits_every_emission(monkeypatch):
    monkeypatch.setenv(DARK_ENV, "1")
    registry = TelemetryRegistry()
    assert not registry.enabled
    registry.count("cache.hit")
    registry.histogram("query.duration", 0.5)
    registry.count("never.validated.in.the.dark")  # skipped before validation
    span = registry.start_span("query", index=0)
    registry.finish_span(span)
    assert registry.events() == []
    assert registry.drain_events() is None


# ----------------------------------------------------------------------
# sink buffering / rotation and the flight recorder
# ----------------------------------------------------------------------
def test_sink_rotation_is_atomic_at_line_boundaries(tmp_path):
    log = tmp_path / "telemetry.jsonl"
    registry = reset_registry()
    registry.set_sink(log, rotate_bytes=2048)
    for _ in range(300):
        registry.count("cache.hit")
    registry.flush_sink()
    rotated = tmp_path / "telemetry.jsonl.1"
    assert rotated.exists()
    for path in (log, rotated):
        for line in path.read_text(encoding="utf-8").splitlines():
            json.loads(line)  # neither side of the rotation holds a torn line
    registry.set_sink(None)


def test_flight_recorder_dumps_ring_with_digest(tmp_path):
    registry = get_registry()
    registry.count("cache.hit")
    path = dump_flight_recording("circuit_open", directory=tmp_path)
    assert path is not None and path.parent == tmp_path
    assert "circuit_open" in path.name
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [record["event"] for record in records] == ["cache.hit"]
    digest = (tmp_path / (path.name + ".sha256")).read_text().strip()
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert registry.counters()["scheduler.flight_dump"] == 1
    assert not list(tmp_path.glob("*.tmp"))  # temp files never linger


def test_flight_recorder_degrades_to_none_on_os_errors(tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    assert dump_flight_recording("oops", directory=blocker / "sub") is None
    # A weird reason string is sanitized into the filename, never rejected.
    path = dump_flight_recording("worker kill: #2!", directory=tmp_path)
    assert path is not None
    assert path.name.endswith("-worker_kill___2_.jsonl")


# ----------------------------------------------------------------------
# span-tree invariants over real sessions
# ----------------------------------------------------------------------
def _tree(registry, executor):
    """Map each ``query`` root span to its children, keyed by span name."""
    roots = {span["span"]: span for span in registry.spans("query")}
    children = {span_id: {"query.ground": [], "query.collect": [], "query.finish": []}
                for span_id in roots}
    for span in registry.spans():
        if span["event"] in ("query.ground", "query.collect", "query.finish"):
            if span["parent"] in children:
                children[span["parent"]][span["event"]].append(span)
    assert all(span["meta"].get("executor") == executor for span in roots.values())
    return roots, children


def test_process_query_span_trees_cold_then_warm(tmp_path):
    registry = get_registry()
    engine = fresh_engine(cache=tmp_path / "cache")
    with engine.open_session(jobs=2, executor="process", shards=2) as session:
        for query in QUERIES.values():
            session.submit(query)
        assert len(dict(session.as_completed())) == len(QUERIES)
    roots, children = _tree(registry, "process")
    assert len(roots) == len(QUERIES)  # exactly one root per answered query
    for span_id, root in roots.items():
        assert root["meta"]["outcome"] == "ok"
        assert root["meta"]["mode"] == "cold"
        tree = children[span_id]
        assert len(tree["query.ground"]) == 1
        assert len(tree["query.finish"]) == 1
        # A collect span hangs off the query that *created* the shard task;
        # queries sharing a collection signature share those tasks, so only
        # the first such query carries the collect children.  The first
        # submitted query always collects.
        if root["meta"]["index"] == 0:
            assert len(tree["query.collect"]) >= 1
        assert tree["query.finish"][0]["meta"]["mode"] == "cold"
        for child in (
            tree["query.ground"] + tree["query.collect"] + tree["query.finish"]
        ):
            assert child["trace"] == root["trace"]
            # Nested monotonic clocks: children live inside their root.
            assert root["t0"] <= child["t0"] <= child["t1"] <= root["t1"]
        # Phase order: ground ends before any collect starts, and every
        # collect ends before the finish starts.
        ground, finish = tree["query.ground"][0], tree["query.finish"][0]
        for collect in tree["query.collect"]:
            assert ground["t1"] <= collect["t0"]
            assert collect["t1"] <= finish["t0"]

    # Warm re-sweep: cached unit tables answer without any collection —
    # every root is mode="warm" and emits zero collect spans.
    registry.clear()
    warm_engine = fresh_engine(cache=tmp_path / "cache")
    with warm_engine.open_session(jobs=2, executor="process", shards=2) as session:
        for query in QUERIES.values():
            session.submit(query)
        assert len(dict(session.as_completed())) == len(QUERIES)
    roots, children = _tree(registry, "process")
    assert len(roots) == len(QUERIES)
    for span_id, root in roots.items():
        assert root["meta"]["mode"] == "warm"
        tree = children[span_id]
        assert len(tree["query.ground"]) == 1
        assert tree["query.ground"][0]["meta"]["cached"] is True
        assert tree["query.collect"] == []  # cache hit => zero collect spans
        assert len(tree["query.finish"]) == 1
        assert tree["query.finish"][0]["meta"]["mode"] == "warm"


def test_thread_sessions_emit_one_query_span_per_answer():
    registry = get_registry()
    engine = fresh_engine()
    with engine.open_session(jobs=2) as session:
        for query in QUERIES.values():
            session.submit(query)
        got = dict(session.as_completed())
    assert len(got) == len(QUERIES)
    roots, children = _tree(registry, "thread")
    assert len(roots) == len(QUERIES)
    assert sorted(span["meta"]["index"] for span in roots.values()) == [0, 1, 2, 3]
    for span_id, root in roots.items():
        assert root["meta"]["outcome"] == "ok"
        assert root["meta"]["mode"] == "thread"
        tree = children[span_id]
        assert tree["query.collect"] == []
        (finish,) = tree["query.finish"]
        assert finish["trace"] == root["trace"]
        assert root["t0"] <= finish["t0"] <= finish["t1"] <= root["t1"]


def test_failed_query_root_span_reports_error(tmp_path):
    registry = get_registry()
    engine = fresh_engine(cache=tmp_path / "cache")
    with engine.open_session(jobs=1, executor="process", shards=1) as session:
        session.submit("Score[S] <= NoSuchAttr[A] ?")
        ((_, outcome),) = list(session.as_completed())
    assert not isinstance(outcome, dict)
    (root,) = registry.spans("query")
    assert root["meta"]["outcome"] == "error"


def test_engine_grounding_emits_cached_span(tmp_path):
    registry = get_registry()
    engine = fresh_engine(cache=tmp_path / "cache")
    engine.answer(QUERIES["ate"])
    warm = fresh_engine(cache=tmp_path / "cache")
    warm.graph  # noqa: B018 - force grounding (answer may skip it entirely)
    spans = registry.spans("engine.ground")
    assert [span["meta"]["cached"] for span in spans] == [False, True]
    counters = registry.counters()
    assert counters.get("cache.store", 0) >= 1
    assert counters.get("cache.hit", 0) >= 1
