"""Process-wide structured telemetry: spans, counters, gauges, histograms.

The registry (:class:`TelemetryRegistry`) is the single in-process collection
point for every event declared in :mod:`repro.observability.schema`:

* **spans** carry monotonic start/end clocks and form per-query trees
  (``trace`` groups a tree, ``parent`` nests spans) — the scheduler opens a
  ``query`` root span per submitted query and hangs ``query.ground`` /
  ``query.collect`` / ``query.finish`` children off it, and shard workers
  record ``worker.*`` phase spans that re-parent under those on merge;
* **counters** accumulate integer deltas (cache hits, retries, admission
  rejections);
* **gauges** record the latest value of a level (ready-queue depth, live
  daemon sessions);
* **histograms** record values into fixed log2 buckets
  (:func:`histogram_bucket` is a pure function of the value — no wall clock,
  no sampling state — so bucket counts merge across processes and replay
  bit-identically).

Every emission is validated against the frozen schema registry — an
unregistered event name or an off-contract metadata field raises
:class:`~repro.observability.schema.TelemetryError` immediately, in the
emitting thread, so telemetry drift fails fast in tests instead of silently
corrupting the log consumers downstream.

Events land in a bounded in-memory ring buffer (cheap enough to leave on
permanently) and, when a sink is configured, are appended to a JSON-lines
file — one self-describing object per line, buffered and flushed at line
boundaries (``flush_sink``; ``docs/observability.md`` gives the line
schema).  The registry records its creating process id: a forked worker that
inherits it copy-on-write starts from a clean slate on first emission and
never writes to the parent's sink file, so worker-side cache counters cannot
interleave garbage into the daemon's log.

Cross-process stitching has three moving parts here:

* :func:`set_role` — a worker process declares itself one; its trace and
  span ids gain a ``w<id>.`` prefix, so records it ships to the dispatcher
  are globally unique and merge without remapping;
* :func:`trace_context` — a thread-local ``(trace, parent)`` pair that
  :meth:`TelemetryRegistry.start_span` falls back to when neither is given
  explicitly, which is how a shipped task's originating ``query.collect``
  span becomes the parent of everything the worker records while running it;
* :meth:`TelemetryRegistry.drain_events` /
  :meth:`TelemetryRegistry.ingest` — the worker end (atomically move the
  ring contents into a bounded batch) and the dispatcher end (append a
  worker record verbatim, preserving its pid/clock) of event shipping.

Setting ``REPRO_TELEMETRY_DARK=1`` disables recording entirely (emit calls
return before validating) — the baseline ``benchmarks/bench_telemetry.py``
measures overhead against.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.observability.schema import validate_event

#: Default ring-buffer capacity (events kept in memory for inspection).
DEFAULT_CAPACITY = 8192

#: Environment variable: any value other than empty/``0`` disables recording.
DARK_ENV = "REPRO_TELEMETRY_DARK"

#: Histogram bucket clamp: bucket ``e`` covers values in ``[2**e, 2**(e+1))``.
#: The range spans ~1 microsecond to ~68 minutes — wide enough for queue
#: waits, backoffs and query durations alike.
HIST_MIN_EXP = -20
HIST_MAX_EXP = 12

#: Sink lines written between implicit flushes (always-on recording must not
#: pay an fsync-ish flush per event; explicit ``flush_sink`` covers dumps).
_FLUSH_EVERY = 128


def histogram_bucket(value: float) -> int:
    """The log2 bucket index for ``value`` — a pure function of the value.

    Bucket ``e`` covers ``[2**e, 2**(e+1))``; non-positive values clamp to
    the lowest bucket.  No wall clock, no randomness: the same value lands
    in the same bucket in every process and on every replay.
    """
    if value <= 0.0 or math.isnan(value):
        return HIST_MIN_EXP
    exponent = math.frexp(value)[1] - 1
    return max(HIST_MIN_EXP, min(HIST_MAX_EXP, exponent))


def bucket_upper_bound(exponent: int) -> float:
    """The exclusive upper bound of bucket ``exponent`` (``2**(e+1)``)."""
    return float(2.0 ** (exponent + 1))


# ----------------------------------------------------------------------
# process role (dispatcher vs worker) — prefixes trace/span ids
# ----------------------------------------------------------------------
_ROLE_LOCK = threading.Lock()
_ROLE = "dispatcher"
_ID_PREFIX = ""


def set_role(role: str, worker_id: int | None = None) -> None:
    """Declare this process's telemetry role (``dispatcher`` / ``worker``).

    A worker's generated trace and span ids gain a ``w<id>.`` prefix, making
    every id it ships globally unique — the dispatcher merges worker batches
    verbatim, with no id remapping.  Dispatcher ids stay unprefixed
    (``t1`` / ``s1``).
    """
    global _ROLE, _ID_PREFIX
    with _ROLE_LOCK:
        _ROLE = role
        _ID_PREFIX = f"w{worker_id}." if role == "worker" else ""


def current_role() -> str:
    with _ROLE_LOCK:
        return _ROLE


def _id_prefix() -> str:
    with _ROLE_LOCK:
        return _ID_PREFIX


# ----------------------------------------------------------------------
# thread-local trace context (cross-process span propagation)
# ----------------------------------------------------------------------
_TRACE_CONTEXT = threading.local()


@contextmanager
def trace_context(trace: str | None, parent: str | None) -> Iterator[None]:
    """Make ``(trace, parent)`` the default span attachment for this thread.

    :meth:`TelemetryRegistry.start_span` falls back to the innermost context
    when called with neither ``trace`` nor ``parent`` — so a worker running
    a shipped task wraps the task body in the task's propagated context and
    every span recorded inside (engine grounding, phase breakdowns) attaches
    under the dispatcher's originating span automatically.
    """
    stack = getattr(_TRACE_CONTEXT, "stack", None)
    if stack is None:
        stack = []
        _TRACE_CONTEXT.stack = stack
    stack.append((trace, parent))
    try:
        yield
    finally:
        stack.pop()


def current_trace_context() -> tuple[str | None, str | None]:
    """The innermost ``(trace, parent)`` pair, or ``(None, None)``."""
    stack = getattr(_TRACE_CONTEXT, "stack", None)
    if stack:
        return stack[-1]
    return (None, None)


class Span:
    """A started (possibly unfinished) span — a handle, not a record.

    Produced by :meth:`TelemetryRegistry.start_span`; the event record is
    emitted when :meth:`TelemetryRegistry.finish_span` is called on it.
    """

    __slots__ = ("name", "trace", "span_id", "parent", "t0", "t1", "meta", "_finished")

    def __init__(self, name: str, trace: str, span_id: str, parent: str | None, meta: dict[str, Any]) -> None:
        self.name = name
        self.trace = trace
        self.span_id = span_id
        self.parent = parent
        self.t0 = time.monotonic()
        self.t1: float | None = None
        self.meta = meta
        self._finished = False


class TelemetryRegistry:
    """Thread-safe event collector with an optional JSON-lines sink."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        sink: str | Path | None = None,
        enabled: bool | None = None,
    ) -> None:
        if enabled is None:
            enabled = os.environ.get(DARK_ENV, "").strip() in ("", "0")
        self._enabled = enabled
        self._lock = threading.Lock()
        self._capacity = capacity
        self._events: deque[dict[str, Any]] = deque(maxlen=capacity)  # guarded-by: _lock
        self._counter_totals: dict[str, int] = {}  # guarded-by: _lock
        self._gauge_values: dict[str, float] = {}  # guarded-by: _lock
        self._histogram_totals: dict[str, dict[int, int]] = {}  # guarded-by: _lock
        self._dropped = 0  # guarded-by: _lock
        self._next_trace = 0  # guarded-by: _lock
        self._next_span = 0  # guarded-by: _lock
        self._pid = os.getpid()  # guarded-by: _lock
        self._sink_path: Path | None = None  # guarded-by: _lock
        self._sink_handle: Any = None  # guarded-by: _lock
        self._sink_unflushed = 0  # guarded-by: _lock
        self._rotate_bytes: int | None = None  # guarded-by: _lock
        if sink is not None:
            self.set_sink(sink)

    # ------------------------------------------------------------------
    # fork / sink management
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def _ensure_pid_locked(self) -> None:
        """Reset inherited state on first use inside a forked child.

        A forked worker inherits the registry (and any open sink handle)
        copy-on-write; emitting through it must never interleave with the
        parent's log, so the child starts empty and sink-less.
        """
        pid = os.getpid()
        if pid == self._pid:
            return
        self._pid = pid
        self._events = deque(maxlen=self._capacity)
        self._counter_totals = {}
        self._gauge_values = {}
        self._histogram_totals = {}
        self._dropped = 0
        self._next_trace = 0
        self._next_span = 0
        self._sink_path = None
        self._sink_handle = None  # never close: the fd belongs to the parent
        self._sink_unflushed = 0
        self._rotate_bytes = None

    def set_sink(self, path: str | Path | None, rotate_bytes: int | None = None) -> None:
        """Append subsequent events to a JSON-lines file (None disables).

        Writes are buffered; the registry flushes every ``_FLUSH_EVERY``
        lines and on :meth:`flush_sink`.  With ``rotate_bytes`` set, the file
        rotates to ``<path>.1`` (atomic ``os.replace``) once it reaches that
        size — rotation happens only after a flush, at a line boundary, so
        neither file ever holds a torn line.
        """
        with self._lock:
            self._ensure_pid_locked()
            if self._sink_handle is not None:
                try:
                    self._sink_handle.close()
                except OSError:  # pragma: no cover - close failure is benign
                    pass
                self._sink_handle = None
            self._sink_path = None
            self._sink_unflushed = 0
            self._rotate_bytes = rotate_bytes
            if path is not None:
                path = Path(path)
                path.parent.mkdir(parents=True, exist_ok=True)
                self._sink_handle = open(path, "a", encoding="utf-8")
                self._sink_path = path

    def flush_sink(self) -> None:
        """Flush buffered sink writes to disk (and rotate if due)."""
        with self._lock:
            self._flush_sink_locked()

    def _flush_sink_locked(self) -> None:
        handle = self._sink_handle
        if handle is None:
            return
        try:
            handle.flush()
            self._sink_unflushed = 0
            if (
                self._rotate_bytes is not None
                and self._sink_path is not None
                and handle.tell() >= self._rotate_bytes
            ):
                handle.close()
                os.replace(self._sink_path, Path(str(self._sink_path) + ".1"))
                self._sink_handle = open(self._sink_path, "a", encoding="utf-8")
        except (OSError, ValueError):  # pragma: no cover - sink best effort
            self._sink_handle = None

    @property
    def sink_path(self) -> Path | None:
        with self._lock:
            return self._sink_path

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def new_trace(self) -> str:
        with self._lock:
            self._ensure_pid_locked()
            self._next_trace += 1
            return f"{_id_prefix()}t{self._next_trace}"

    def start_span(
        self, name: str, trace: str | None = None, parent: Span | str | None = None, **meta: Any
    ) -> Span:
        """Open a span; nothing is emitted until :meth:`finish_span`.

        Metadata is validated here (fail fast, in the caller) and again at
        finish (fields may be added then).  ``parent`` accepts a
        :class:`Span` or a raw span id.  With neither ``trace`` nor
        ``parent`` given, the thread's :func:`trace_context` (if any)
        supplies both — the cross-process propagation path.
        """
        if not self._enabled:
            span = Span(name, trace or "t0", "s0", None, dict(meta))
            span._finished = True  # noqa: SLF001 - sentinel: finish_span no-ops
            return span
        validate_event(name, "span", meta)
        if trace is None and parent is None:
            trace, parent = current_trace_context()
        if trace is None:
            trace = self.new_trace()
        parent_id = parent.span_id if isinstance(parent, Span) else parent
        with self._lock:
            self._ensure_pid_locked()
            self._next_span += 1
            span_id = f"{_id_prefix()}s{self._next_span}"
        return Span(name, trace, span_id, parent_id, dict(meta))

    def finish_span(self, span: Span, **meta: Any) -> None:
        """Close a span and emit its record; idempotent per span."""
        if span._finished:  # noqa: SLF001 - own class
            return
        span._finished = True  # noqa: SLF001
        span.t1 = time.monotonic()
        span.meta.update(meta)
        validate_event(span.name, "span", span.meta)
        self._emit(
            {
                "event": span.name,
                "kind": "span",
                "trace": span.trace,
                "span": span.span_id,
                "parent": span.parent,
                "t0": span.t0,
                "t1": span.t1,
                "meta": dict(span.meta),
            }
        )

    @contextmanager
    def span(
        self, name: str, trace: str | None = None, parent: Span | str | None = None, **meta: Any
    ) -> Iterator[Span]:
        """Lexically scoped span: finished (and emitted) on exit."""
        handle = self.start_span(name, trace=trace, parent=parent, **meta)
        try:
            yield handle
        finally:
            self.finish_span(handle)

    def count(self, name: str, value: int = 1, **meta: Any) -> None:
        """Add ``value`` to a counter (and emit one counter event)."""
        if not self._enabled:
            return
        validate_event(name, "counter", meta)
        self._emit(
            {"event": name, "kind": "counter", "value": int(value), "meta": dict(meta)}
        )

    def gauge(self, name: str, value: float, **meta: Any) -> None:
        """Record the current level of a gauge (and emit one gauge event)."""
        if not self._enabled:
            return
        validate_event(name, "gauge", meta)
        self._emit({"event": name, "kind": "gauge", "value": value, "meta": dict(meta)})

    def histogram(self, name: str, value: float, **meta: Any) -> None:
        """Record ``value`` into its log2 bucket (and emit one event).

        The record carries both the raw value and the bucket index; merged
        totals (:meth:`histograms`) keep only bucket counts, which sum
        across processes without distribution loss beyond bucket width.
        """
        if not self._enabled:
            return
        validate_event(name, "histogram", meta)
        value = float(value)
        self._emit(
            {
                "event": name,
                "kind": "histogram",
                "value": value,
                "bucket": histogram_bucket(value),
                "meta": dict(meta),
            }
        )

    def _emit(self, record: dict[str, Any]) -> None:
        if not self._enabled:
            return
        # Intentional wall-clock: "ts" is the log-line timestamp readers
        # correlate with external logs; span durations use t0/t1 (monotonic).
        record["ts"] = time.time()  # repro-lint: disable=det-wall-clock
        with self._lock:
            self._ensure_pid_locked()
            record["pid"] = self._pid
            self._append_locked(record)

    def ingest(self, record: dict[str, Any]) -> None:
        """Append an already-recorded event verbatim (worker-batch merge).

        The record was validated when the worker emitted it; it keeps the
        worker's ``ts``/``pid`` and its prefixed trace/span ids.  Totals
        (counters, gauges, histogram buckets) accumulate exactly as local
        emissions do — ``repro telemetry summary`` sees one merged stream.
        """
        if not self._enabled:
            return
        if not isinstance(record, dict) or "event" not in record:
            return
        with self._lock:
            self._ensure_pid_locked()
            self._append_locked(record)

    def _append_locked(self, record: dict[str, Any]) -> None:
        if len(self._events) == self._capacity:
            self._dropped += 1
        self._events.append(record)
        kind = record.get("kind")
        name = record.get("event", "?")
        if kind == "counter":
            self._counter_totals[name] = (
                self._counter_totals.get(name, 0) + int(record.get("value", 0))
            )
        elif kind == "gauge":
            self._gauge_values[name] = record.get("value", 0.0)
        elif kind == "histogram":
            bucket = record.get("bucket")
            if not isinstance(bucket, int):
                bucket = histogram_bucket(float(record.get("value", 0.0)))
            buckets = self._histogram_totals.setdefault(name, {})
            buckets[bucket] = buckets.get(bucket, 0) + 1
        handle = self._sink_handle
        if handle is not None:
            try:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
                self._sink_unflushed += 1
                if self._sink_unflushed >= _FLUSH_EVERY:
                    self._flush_sink_locked()
            except (OSError, ValueError):  # pragma: no cover - sink best effort
                self._sink_handle = None

    def drain_events(self, limit: int = 1024) -> dict[str, Any] | None:
        """Atomically move up to ``limit`` buffered events out of the ring.

        Returns ``{"events": [...], "dropped": n}`` — ``dropped`` counts
        ring-overflow losses since the last drain — or ``None`` when there
        is nothing to ship.  Totals are cleared (moved, not copied): the
        receiver rebuilds them from the shipped counter/gauge/histogram
        records, so draining twice never double-counts.
        """
        if not self._enabled:
            return None
        with self._lock:
            self._ensure_pid_locked()
            if not self._events and self._dropped == 0:
                return None
            batch: list[dict[str, Any]] = []
            while self._events and len(batch) < limit:
                batch.append(self._events.popleft())
            dropped = self._dropped
            self._dropped = 0
            self._counter_totals.clear()
            self._gauge_values.clear()
            self._histogram_totals.clear()
            return {"events": batch, "dropped": dropped}

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def events(self, name: str | None = None, kind: str | None = None) -> list[dict[str, Any]]:
        """Snapshot of buffered events, optionally filtered."""
        with self._lock:
            snapshot = list(self._events)
        if name is not None:
            snapshot = [event for event in snapshot if event["event"] == name]
        if kind is not None:
            snapshot = [event for event in snapshot if event["kind"] == kind]
        return snapshot

    def spans(self, name: str | None = None) -> list[dict[str, Any]]:
        return self.events(name=name, kind="span")

    def counters(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counter_totals)

    def gauges(self) -> dict[str, float]:
        with self._lock:
            return dict(self._gauge_values)

    def histograms(self) -> dict[str, dict[int, int]]:
        """Merged bucket counts per histogram event (bucket exp -> count)."""
        with self._lock:
            return {name: dict(buckets) for name, buckets in self._histogram_totals.items()}

    def clear(self) -> None:
        """Drop buffered events and totals (the sink file is left as is)."""
        with self._lock:
            self._events.clear()
            self._counter_totals.clear()
            self._gauge_values.clear()
            self._histogram_totals.clear()
            self._dropped = 0


# ----------------------------------------------------------------------
# the process-wide registry
# ----------------------------------------------------------------------
_REGISTRY = TelemetryRegistry()
_REGISTRY_LOCK = threading.Lock()


def get_registry() -> TelemetryRegistry:
    """The process-wide registry every instrumented subsystem emits to."""
    return _REGISTRY


def reset_registry(capacity: int = DEFAULT_CAPACITY, sink: str | Path | None = None) -> TelemetryRegistry:
    """Replace the process-wide registry (tests; CLI sink configuration)."""
    global _REGISTRY
    set_role("dispatcher")
    with _REGISTRY_LOCK:
        _REGISTRY = TelemetryRegistry(capacity=capacity, sink=sink)
        return _REGISTRY


# ----------------------------------------------------------------------
# log reading (CLI + tests)
# ----------------------------------------------------------------------
def read_log(path: str | Path) -> list[dict[str, Any]]:
    """Parse a JSON-lines telemetry log; malformed lines are skipped."""
    events: list[dict[str, Any]] = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        return events
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and "event" in record:
            events.append(record)
    return events


def summarize_events(events: list[dict[str, Any]]) -> dict[str, Any]:
    """Aggregate a list of event records for ``repro telemetry summary``.

    Spans get count / total / p50 / p99 duration (seconds); counters their
    summed deltas; gauges their last value; histograms their merged bucket
    counts with bucket-resolved percentiles.  Percentiles come from log2
    bucket counts (:func:`histogram_bucket`), reported as the matched
    bucket's upper bound — mergeable across processes and identical on
    replay, at the cost of bucket-width resolution.
    """
    span_buckets: dict[str, dict[int, int]] = {}
    span_counts: dict[str, int] = {}
    span_totals: dict[str, float] = {}
    counter_totals: dict[str, int] = {}
    gauge_last: dict[str, float] = {}
    histogram_buckets: dict[str, dict[int, int]] = {}
    for event in events:
        kind = event.get("kind")
        name = event.get("event", "?")
        if kind == "span":
            t0, t1 = event.get("t0"), event.get("t1")
            if isinstance(t0, (int, float)) and isinstance(t1, (int, float)):
                duration = float(t1) - float(t0)
                buckets = span_buckets.setdefault(name, {})
                bucket = histogram_bucket(duration)
                buckets[bucket] = buckets.get(bucket, 0) + 1
                span_counts[name] = span_counts.get(name, 0) + 1
                span_totals[name] = span_totals.get(name, 0.0) + duration
        elif kind == "counter":
            counter_totals[name] = counter_totals.get(name, 0) + int(event.get("value", 0))
        elif kind == "gauge":
            value = event.get("value")
            if isinstance(value, (int, float)):
                gauge_last[name] = float(value)
        elif kind == "histogram":
            bucket = event.get("bucket")
            if not isinstance(bucket, int):
                bucket = histogram_bucket(float(event.get("value", 0.0)))
            buckets = histogram_buckets.setdefault(name, {})
            buckets[bucket] = buckets.get(bucket, 0) + 1
    spans = {
        name: {
            "count": span_counts[name],
            "total_seconds": span_totals[name],
            "p50_seconds": bucket_percentile(buckets, 50.0),
            "p99_seconds": bucket_percentile(buckets, 99.0),
        }
        for name, buckets in sorted(span_buckets.items())
    }
    histograms = {
        name: {
            "count": sum(buckets.values()),
            "p50": bucket_percentile(buckets, 50.0),
            "p99": bucket_percentile(buckets, 99.0),
            "buckets": dict(sorted(buckets.items())),
        }
        for name, buckets in sorted(histogram_buckets.items())
    }
    return {
        "events": len(events),
        "spans": spans,
        "counters": dict(sorted(counter_totals.items())),
        "gauges": dict(sorted(gauge_last.items())),
        "histograms": histograms,
    }


def bucket_percentile(buckets: dict[int, int], q: float) -> float:
    """Nearest-rank percentile over log2 bucket counts (0.0 when empty).

    Returns the upper bound of the bucket holding the ranked observation —
    a deterministic, mergeable replacement for the old sorted-list scan
    (which needed every raw value and so could not merge across processes).
    """
    total = sum(buckets.values())
    if total == 0:
        return 0.0
    rank = max(0, min(total - 1, int(round(q / 100.0 * (total - 1)))))
    seen = 0
    for exponent in sorted(buckets):
        seen += buckets[exponent]
        if seen > rank:
            return bucket_upper_bound(exponent)
    return bucket_upper_bound(max(buckets))  # pragma: no cover - defensive
