"""Cross-process trace stitching suite (``docs/observability.md``).

Contracts held here, per transport (fork-inherit, fork-rebuild via
``REPRO_SHARD_NO_INHERIT``, and true spawn in a subprocess):

* **merged counters** — worker-side cache activity (the ``unit_inputs``
  shard partials only workers touch) lands in the dispatcher's merged
  totals, identically across transports;
* **stitched parents** — every worker-recorded span carries a trace owned
  by a dispatcher ``query`` root and a parent in that trace: the attempt's
  ``query.collect`` / ``query.finish`` span, on the batch path
  (``answer_all``) and the session path (``open_session``) alike;
* **determinism** — a subprocess run under different ``PYTHONHASHSEED``
  values produces the same merged event-name order, counter totals and
  fixed-value histogram buckets.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.carl.engine import CaRLEngine
from repro.carl.shard import NO_INHERIT_ENV
from repro.datasets import TOY_REVIEW_PROGRAM, toy_review_database
from repro.observability import get_registry, reset_registry

SRC = Path(__file__).resolve().parents[1] / "src"

QUERIES = {
    "ate": "Score[S] <= Prestige[A] ?",
    "agg": "AVG_Score[A] <= Prestige[A] ?",
}

WORKER_SPANS = {
    "worker.collect",
    "worker.store",
    "worker.merge",
    "worker.materialize",
    "worker.estimate",
}


@pytest.fixture(autouse=True)
def fresh_registry():
    registry = reset_registry()
    yield registry
    reset_registry()


def fresh_engine() -> CaRLEngine:
    return CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM)


def answer_batch(monkeypatch, *, no_inherit: bool):
    if no_inherit:
        monkeypatch.setenv(NO_INHERIT_ENV, "1")
    else:
        monkeypatch.delenv(NO_INHERIT_ENV, raising=False)
    engine = fresh_engine()
    return engine.answer_all(QUERIES, jobs=2, executor="process", shards=2)


def unit_inputs_counters(registry) -> Counter:
    """Multiset of worker-side cache counter events about shard partials."""
    return Counter(
        (event["event"], event["value"])
        for event in registry.events(kind="counter")
        if event.get("meta", {}).get("kind") == "unit_inputs"
    )


def span_index(registry):
    spans = registry.spans()
    by_id = {span["span"]: span for span in spans}
    roots = {
        span["trace"]: span
        for span in spans
        if span["event"] == "query" and not span["parent"]
    }
    return spans, by_id, roots


def assert_parented_under_attempts(span, by_id, roots):
    """The scheduler ships (trace, attempt span) with each task: worker
    phases hang off the originating query.collect / query.finish span."""
    assert span["trace"] in roots
    parent = by_id.get(span["parent"])
    assert parent is not None
    assert parent["event"] in ("query.collect", "query.finish")
    assert parent["trace"] == span["trace"]


# ----------------------------------------------------------------------
# batch path (answer_all) — fork inherit and fork rebuild
# ----------------------------------------------------------------------
@pytest.mark.parametrize("no_inherit", [False, True], ids=["fork-inherit", "fork-rebuild"])
def test_pool_run_ships_worker_spans_with_valid_parents(monkeypatch, no_inherit):
    answers = answer_batch(monkeypatch, no_inherit=no_inherit)
    assert set(answers) == set(QUERIES)
    registry = get_registry()
    spans, by_id, roots = span_index(registry)
    assert len(roots) == len(QUERIES)

    worker_spans = [span for span in spans if span["event"] in WORKER_SPANS]
    assert {span["event"] for span in worker_spans} >= {
        "worker.collect",
        "worker.store",
        "worker.merge",
        "worker.materialize",
        "worker.estimate",
    }
    for span in worker_spans:
        # Worker ids are role-prefixed (w<id>.s<n>): globally unique.
        assert span["span"].startswith("w") and "." in span["span"]
        # Stitched: the trace belongs to a dispatcher root, and the parent
        # is the attempt span of that trace the task was shipped under.
        assert_parented_under_attempts(span, by_id, roots)

    # The merged stream is observable: one worker.span_batch counter per
    # merged batch, and worker-side cache partial traffic in the totals.
    assert registry.counters().get("worker.span_batch", 0) > 0
    assert sum(unit_inputs_counters(registry).values()) > 0
    # One query.duration histogram observation per answered query.
    buckets = registry.histograms()["query.duration"]
    assert sum(buckets.values()) == len(QUERIES)


def test_fork_inherit_and_rebuild_transports_merge_identical_counters(monkeypatch):
    answer_batch(monkeypatch, no_inherit=False)
    inherit_counts = unit_inputs_counters(get_registry())
    inherit_names = Counter(
        span["event"] for span in get_registry().spans() if span["event"] in WORKER_SPANS
    )

    reset_registry()
    answer_batch(monkeypatch, no_inherit=True)
    rebuild_counts = unit_inputs_counters(get_registry())
    rebuild_names = Counter(
        span["event"] for span in get_registry().spans() if span["event"] in WORKER_SPANS
    )

    # Same workload => the same shard-partial cache traffic and the same
    # worker phase spans, whether the engine crossed by fork or by artifact.
    assert inherit_counts == rebuild_counts
    assert inherit_names == rebuild_names


# ----------------------------------------------------------------------
# session path (open_session) over a persistent cache
# ----------------------------------------------------------------------
def test_scheduler_run_reparents_worker_spans_under_attempt_spans(tmp_path):
    registry = get_registry()
    engine = CaRLEngine(
        toy_review_database(), TOY_REVIEW_PROGRAM, cache=tmp_path / "cache"
    )
    with engine.open_session(jobs=2, executor="process", shards=2) as session:
        for query in QUERIES.values():
            session.submit(query)
        assert len(dict(session.as_completed())) == len(QUERIES)

    spans, by_id, roots = span_index(registry)
    worker_spans = [span for span in spans if span["event"] in WORKER_SPANS]
    assert worker_spans
    for span in worker_spans:
        assert_parented_under_attempts(span, by_id, roots)
    # Merged records carry the shipping worker's id for attribution.
    assert all("worker" in span for span in worker_spans)
    # Queue-wait histograms come from the dispatcher side of the same run.
    assert sum(registry.histograms()["scheduler.queue_wait"].values()) > 0


# ----------------------------------------------------------------------
# true spawn + hash-seed determinism (subprocess)
# ----------------------------------------------------------------------
_SPAWN_SCRIPT = """
import json
import multiprocessing
import sys

multiprocessing.set_start_method("spawn", force=True)

from repro.carl.engine import CaRLEngine
from repro.datasets import TOY_REVIEW_PROGRAM, toy_review_database
from repro.observability import get_registry, histogram_bucket, reset_registry

QUERIES = {
    "ate": "Score[S] <= Prestige[A] ?",
    "agg": "AVG_Score[A] <= Prestige[A] ?",
}

registry = reset_registry()
engine = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM)
answers = engine.answer_all(QUERIES, jobs=1, executor="process", shards=2)
assert set(answers) == set(QUERIES)

events = registry.events()
unit_inputs = sorted(
    (event["event"], event["value"])
    for event in events
    if event.get("kind") == "counter"
    and event.get("meta", {}).get("kind") == "unit_inputs"
)
spans = registry.spans()
by_id = {span["span"]: span for span in spans}


def parented(span):
    parent = by_id.get(span["parent"])
    return (
        parent is not None
        and parent["event"] in ("query.collect", "query.finish")
        and parent["trace"] == span["trace"]
    )


worker_spans = sorted(
    (span["event"], parented(span))
    for span in spans
    if span["event"].startswith("worker.")
)
print(json.dumps({
    "order": [event["event"] for event in events],
    "unit_inputs": unit_inputs,
    "worker_spans": worker_spans,
    "counters": registry.counters(),
    "fixed_buckets": [histogram_bucket(v) for v in (0.0001, 0.004, 0.25, 3.0, 70.0)],
}, sort_keys=True))
"""


def _run_spawn(hashseed: str) -> dict:
    env = {
        **os.environ,
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": hashseed,
    }
    env.pop(NO_INHERIT_ENV, None)
    proc = subprocess.run(
        [sys.executable, "-c", _SPAWN_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spawn_workers_merge_and_order_is_hash_seed_independent():
    first = _run_spawn("0")
    second = _run_spawn("1")
    # Spawn workers really shipped events: worker spans and partial traffic.
    assert first["unit_inputs"]
    assert any(name.startswith("worker.") for name in first["order"])
    assert all(parented for _, parented in first["worker_spans"])
    # The merged stream is deterministic across interpreter hash seeds:
    # same event order, same totals, same fixed-value buckets.
    assert first["order"] == second["order"]
    assert first["unit_inputs"] == second["unit_inputs"]
    assert first["worker_spans"] == second["worker_spans"]
    assert first["counters"] == second["counters"]
    assert first["fixed_buckets"] == second["fixed_buckets"]

    # And the spawn transport agrees with fork on the partial-cache traffic.
    registry = reset_registry()
    engine = fresh_engine()
    engine.answer_all(QUERIES, jobs=1, executor="process", shards=2)
    fork_unit_inputs = sorted(
        [event["event"], event["value"]]  # JSON round-trip: lists, not tuples
        for event in registry.events(kind="counter")
        if event.get("meta", {}).get("kind") == "unit_inputs"
    )
    assert fork_unit_inputs == first["unit_inputs"]
