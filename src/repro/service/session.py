"""Futures-style query sessions with incremental answers (``docs/service.md``).

A :class:`QuerySession` is the analyst-facing surface of the streaming
service: queries go in one at a time (:meth:`~QuerySession.submit`), answers
come out the moment they are ready (:meth:`~QuerySession.as_completed`,
:meth:`~QuerySession.result`), and a long sweep survives individual query
failures — each failed query yields its own
:class:`~repro.carl.errors.QueryError` event instead of killing the batch.

Every session runs on a :class:`~repro.service.scheduler.ShardScheduler`,
which delivers each outcome straight into the session's event queue and
owns the records, deadlines, cancellation, stats and span tree of both
executors:

* ``executor="thread"`` — each query runs as one
  :meth:`~repro.carl.engine.CaRLEngine.answer` call on the scheduler's
  in-process pool, sharing graph-walk intermediates through the
  scheduler's :class:`~repro.carl.batch.BatchScratch`; no worker process
  starts;
* ``executor="process"`` — queries are decomposed into shard-level collect
  tasks plus a finish task and run by the scheduler's managed worker
  processes, with retry-and-requeue on worker faults and shard-level cache
  reuse.  A :class:`~repro.service.daemon.QueryDaemon` session is backed by
  the daemon's *shared* scheduler through a per-tenant admission facade
  instead of a private one.

Either way, every completed answer is **bit-identical** to the serial
``engine.answer`` of the same query with the same options.

Long-lived sessions are safe by construction (PR 7):

* bookkeeping is **O(in-flight)** — a delivered outcome's live bookkeeping
  is dropped the moment it is consumed (the most recent
  :data:`DELIVERED_KEEP` outcomes stay re-readable through
  :meth:`~QuerySession.result`, older ones are reaped for good);
* ``max_pending`` bounds the undelivered backlog: a submit over the bound
  raises :class:`QueueFullError` immediately, or blocks up to
  ``submit_timeout`` seconds for space before raising.

Guarantees (see ``docs/service.md`` for the fine print):

* *completion order*: events arrive as queries finish, not as submitted;
* *cancellation*: a query cancelled before its event was delivered never
  yields one;
* *timeouts*: a query past its deadline yields a ``QueryError``; its
  in-flight shard tasks are reaped — a worker still running one is killed
  and replaced (it must not occupy a pool slot for the rest of its task),
  and late results (a running thread answer's too) are discarded;
* *isolation*: one query's failure, timeout or cancellation never affects
  another query's answer.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Iterator

from repro.carl.ast import CausalQuery
from repro.carl.errors import QueryError
from repro.carl.parser import parse_query
from repro.faults.injection import fault_point
from repro.observability.telemetry import get_registry
from repro.service.scheduler import DEFAULT_HANG_TIMEOUT, ShardScheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.carl.engine import CaRLEngine

#: Seconds the event loop blocks per poll while waiting for the next event.
_POLL_SECONDS = 0.02

#: Delivered outcomes kept for idempotent :meth:`QuerySession.result`
#: re-reads.  Older delivered queries are reaped completely — that is what
#: keeps a long-lived session's memory flat.
DELIVERED_KEEP = 256

#: Cancelled/suppressed indexes remembered (for idempotent re-cancel and
#: the "was cancelled" error out of :meth:`QuerySession.result`).
SUPPRESSED_KEEP = 1024


class QueueFullError(QueryError):
    """Raised by :meth:`QuerySession.submit` when the session's pending
    backlog is at ``max_pending`` (after waiting ``submit_timeout`` seconds,
    when one is configured).  Subclasses :class:`QueryError`, so existing
    error handling keeps working; catch it specifically to shed load."""


class QuerySession:
    """A streaming query session over one engine.

    Create through :meth:`repro.carl.engine.CaRLEngine.open_session` (or
    directly); use as a context manager so workers are always torn down::

        with engine.open_session(jobs=4, executor="process") as session:
            for text in sweep:
                session.submit(text)
            for index, outcome in session.as_completed():
                ...  # QueryAnswer, or QueryError for that query alone

    Thread-safe: ``submit`` / ``cancel`` / ``stats`` may be called from any
    thread, also while another thread iterates ``as_completed``.  The
    *engine* must not be mutated (or used for process batches) while a
    process-mode session is open — see ``docs/service.md``.

    ``max_pending`` bounds the undelivered backlog (submitted but not yet
    delivered or cancelled): a submit over the bound raises
    :class:`QueueFullError` — immediately, or after blocking up to
    ``submit_timeout`` seconds for capacity.

    ``_backend`` (internal) injects a scheduler-like backend — an object
    with ``submit/cancel/stats/close`` whose ``submit`` takes a ``deliver``
    callback — in place of a private
    :class:`~repro.service.scheduler.ShardScheduler`; the
    :class:`~repro.service.daemon.QueryDaemon` uses it to multiplex many
    tenant sessions over one shared scheduler.
    """

    def __init__(
        self,
        engine: "CaRLEngine",
        jobs: int | None = 1,
        executor: str = "thread",
        shards: int | None = None,
        retries: int = 2,
        estimator: str | None = None,
        embedding: str | None = None,
        bootstrap: int = 0,
        seed: int = 0,
        max_pending: int | None = None,
        submit_timeout: float | None = None,
        hang_timeout: float | None = DEFAULT_HANG_TIMEOUT,
        _backend: Any = None,
    ) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise QueryError(f"jobs must be a positive integer, got {jobs!r}")
        if max_pending is not None and max_pending < 1:
            raise QueryError(f"max_pending must be a positive integer, got {max_pending!r}")
        if submit_timeout is not None and submit_timeout < 0:
            raise QueryError(f"submit_timeout must be >= 0, got {submit_timeout!r}")

        self._engine = engine
        self._executor = executor
        self._defaults = {
            "estimator": estimator or engine.default_estimator,
            "embedding": embedding or engine.default_embedding,
            "bootstrap": bootstrap,
            "seed": seed,
        }
        self._max_pending = max_pending
        self._submit_timeout = submit_timeout
        self._lock = threading.RLock()
        self._next_index = 0  # guarded-by: _lock
        self._live: set[int] = set()  # guarded-by: _lock  #: submitted, no outcome delivered yet
        self._resolved: dict[int, Any] = {}  # guarded-by: _lock  #: outcomes ready for delivery
        #: Most recent delivered outcomes (index → outcome), LRU-bounded:
        #: keeps :meth:`result` idempotent for recent queries while the
        #: session's memory stays O(in-flight), not O(history).
        self._delivered: "OrderedDict[int, Any]" = OrderedDict()  # guarded-by: _lock
        self._delivered_count = 0  # guarded-by: _lock
        #: Indexes whose late backend events must be dropped (cancelled
        #: queries and submits the backend rejected); LRU-bounded like the
        #: delivered history.
        self._suppressed: "OrderedDict[int, None]" = OrderedDict()  # guarded-by: _lock
        self._cancelled_count = 0  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock

        #: Outcomes the backend delivered, not yet moved into ``_resolved``.
        self._events: "queue.Queue[tuple[int, Any]]" = queue.Queue()
        if _backend is None:
            _backend = ShardScheduler(
                engine,
                jobs=jobs,
                shards=shards,
                retries=retries,
                executor=executor,
                hang_timeout=hang_timeout,
            )
            _backend.start()
        # Daemon-injected backends quack like a ShardScheduler but route
        # through shared workers with per-tenant admission.
        self._scheduler: Any = _backend

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        query: str | CausalQuery,
        timeout: float | None = None,
        estimator: str | None = None,
        embedding: str | None = None,
        bootstrap: int | None = None,
        seed: int | None = None,
    ) -> int:
        """Submit one query; returns its session index immediately.

        Syntax errors raise here (in the caller); every later failure —
        planning, worker faults past the retry budget, timeout — is
        reported as a :class:`QueryError` *event* for this index only.
        ``timeout`` is this query's wall-clock budget in seconds, counted
        from submission.  Per-query options default to the session's.

        With ``max_pending`` configured, a submit over the bound raises
        :class:`QueueFullError` (after blocking up to ``submit_timeout``
        seconds, when set); admission-controlled daemon sessions raise
        :class:`~repro.service.daemon.AdmissionError` here too.
        """
        if isinstance(query, str):
            query = parse_query(query)
        options = {
            "estimator": estimator or self._defaults["estimator"],
            "embedding": embedding or self._defaults["embedding"],
            "bootstrap": self._defaults["bootstrap"] if bootstrap is None else bootstrap,
            "seed": self._defaults["seed"] if seed is None else seed,
        }
        self._wait_for_capacity()
        with self._lock:
            if self._closed:
                raise QueryError("the query session is closed")
            index = self._next_index
            self._next_index += 1
            self._live.add(index)
        try:
            self._scheduler.submit(
                index,
                query,
                options,
                timeout,
                lambda outcome: self._events.put((index, outcome)),
            )
        except BaseException:
            # Admission rejected (or the backend failed): the index was
            # never scheduled, so withdraw it — the error is the caller's,
            # not a query event.
            with self._lock:
                self._live.discard(index)
                self._remember_suppressed_locked(index)
            raise
        return index

    def _wait_for_capacity(self) -> None:
        """Block (bounded) until the pending backlog is under ``max_pending``."""
        if self._max_pending is None:
            return
        deadline = (
            None
            if self._submit_timeout is None
            else time.monotonic() + self._submit_timeout
        )
        while True:
            with self._lock:
                pending = len(self._live) + len(self._resolved)
                if pending < self._max_pending:
                    return
            if deadline is None or time.monotonic() >= deadline:
                get_registry().count("session.queue_full")
                raise QueueFullError(
                    f"the session's pending backlog is at max_pending="
                    f"{self._max_pending}; consume events (as_completed/result) "
                    "or raise the bound"
                )
            # Draining our own event queue is what frees capacity when the
            # consumer thread is this one; with a separate consumer thread
            # this degrades to a bounded poll.
            remaining = deadline - time.monotonic()
            self._pump(max(0.0, min(remaining, _POLL_SECONDS)))

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------
    def as_completed(self, timeout: float | None = None) -> Iterator[tuple[int, Any]]:
        """Yield ``(index, QueryAnswer | QueryError)`` in completion order.

        Iterates until every live (non-cancelled) query has been delivered —
        including queries submitted *while* iterating.  ``timeout`` bounds
        the wait for each *next* event (the clock restarts after every
        yield); on expiry a :class:`TimeoutError` is raised — the session
        stays usable and iteration can be resumed.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                undelivered = sorted(self._resolved)
                if not undelivered and not self._live:
                    return
            if undelivered:
                for index in undelivered:
                    with self._lock:
                        if index not in self._resolved:
                            continue  # another consumer raced us to it
                        outcome = self._resolved.pop(index)
                        self._mark_delivered_locked(index, outcome)
                    yield index, outcome
                    deadline = (
                        None if timeout is None else time.monotonic() + timeout
                    )
                continue
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"no query completed within {timeout} seconds"
                )
            self._pump(timeout)

    def result(self, index: int, timeout: float | None = None) -> Any:
        """Block until query ``index`` resolves; return its outcome.

        Returns the :class:`QueryAnswer` or :class:`QueryError` (never
        raises it); raises :class:`TimeoutError` if the outcome does not
        arrive in ``timeout`` seconds and :class:`QueryError` for an index
        that was never submitted or was cancelled.  Re-reads are idempotent
        for the most recent :data:`DELIVERED_KEEP` delivered queries; older
        records are reaped, and re-reading one raises :class:`QueryError`.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                if index in self._resolved:
                    outcome = self._resolved.pop(index)
                    self._mark_delivered_locked(index, outcome)
                    return outcome
                if index in self._delivered:
                    self._delivered.move_to_end(index)
                    return self._delivered[index]
                if index in self._suppressed:
                    raise QueryError(f"query {index} was cancelled")
                if index not in self._live:
                    if 0 <= index < self._next_index:
                        raise QueryError(
                            f"query {index} was already delivered and its "
                            "record reaped (see DELIVERED_KEEP)"
                        )
                    raise QueryError(f"unknown query index {index}")
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise TimeoutError(f"query {index} did not complete in time")
            self._pump(remaining)

    def _mark_delivered_locked(self, index: int, outcome: Any) -> None:
        """Move one outcome into the bounded delivered history (lock held)."""
        self._delivered[index] = outcome
        self._delivered.move_to_end(index)
        self._delivered_count += 1
        while len(self._delivered) > DELIVERED_KEEP:
            self._delivered.popitem(last=False)

    def _remember_suppressed_locked(self, index: int) -> None:
        """Track a suppressed index in the bounded LRU (lock held)."""
        self._suppressed[index] = None
        self._suppressed.move_to_end(index)
        while len(self._suppressed) > SUPPRESSED_KEEP:
            self._suppressed.popitem(last=False)

    def _pump(self, timeout: float | None) -> None:
        """Move one event (if any) from the backend into ``_resolved``."""
        wait = _POLL_SECONDS if timeout is None else max(0.0, min(timeout, _POLL_SECONDS))
        try:
            index, outcome = self._events.get(timeout=wait)
        except queue.Empty:
            return
        stall = fault_point("session.deliver_stall", key=f"query-{index}")
        if stall is not None:
            time.sleep(stall.delay)
        with self._lock:
            if index in self._suppressed or index not in self._live:
                return  # cancelled before delivery: never yielded
            self._live.discard(index)
            self._resolved[index] = outcome

    # ------------------------------------------------------------------
    # cancellation / bookkeeping
    # ------------------------------------------------------------------
    def cancel(self, index: int) -> bool:
        """Cancel a query; True when it will never be delivered.

        A query whose outcome was already delivered (by
        :meth:`as_completed` or :meth:`result`) cannot be cancelled.  A
        pending query is dropped before it runs; a running one is reaped —
        its workers' results are discarded on arrival.
        """
        with self._lock:
            if index in self._delivered or index not in range(self._next_index):
                return False
            if index in self._suppressed:
                return True  # already cancelled
            was_live = index in self._live
            resolved_undelivered = index in self._resolved
            if not was_live and not resolved_undelivered:
                return False
            self._cancelled_count += 1
            self._remember_suppressed_locked(index)
            self._live.discard(index)
            self._resolved.pop(index, None)
        self._scheduler.cancel(index)
        return True

    def outstanding(self) -> int:
        """Queries submitted but not yet delivered (or cancelled)."""
        with self._lock:
            return len(self._live) + len(self._resolved)

    def stats(self) -> dict[str, Any]:
        """Execution counters: mode, delivery counts, scheduler activity."""
        with self._lock:
            base: dict[str, Any] = {
                "executor": self._executor,
                "submitted": self._next_index,
                "delivered": self._delivered_count,
                "cancelled": self._cancelled_count,
                "outstanding": len(self._live),
                "max_pending": self._max_pending,
            }
        base["scheduler"] = self._scheduler.stats()
        return base

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear the session down; idempotent.  Outstanding queries are
        abandoned (their workers are stopped or their results discarded)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._scheduler.close()

    def __enter__(self) -> "QuerySession":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


def answer_iter(
    engine: "CaRLEngine",
    queries: Any,
    estimator: str | None = None,
    embedding: str | None = None,
    bootstrap: int = 0,
    seed: int = 0,
    jobs: int | None = 1,
    executor: str = "thread",
    shards: int | None = None,
    retries: int = 2,
    timeout: float | None = None,
    hang_timeout: float | None = DEFAULT_HANG_TIMEOUT,
) -> Iterator[tuple[Any, Any]]:
    """Implementation of :meth:`repro.carl.engine.CaRLEngine.answer_iter`.

    Yields ``(key, QueryAnswer | QueryError)`` in completion order, where
    ``key`` is the query's dict name or its position in the list.  Closing
    the iterator early tears the session down (workers stopped, outstanding
    queries abandoned).  An uncached engine is grounded once before the
    first query starts, on either executor, so no answer is charged for
    the shared grounding.
    """
    if isinstance(queries, dict):
        items = list(queries.items())
    else:
        items = [(position, query) for position, query in enumerate(queries)]
    # Parse up front so a syntax error raises immediately (and once), before
    # any worker spawns — the answer_all contract.
    parsed = [
        (key, parse_query(query) if isinstance(query, str) else query)
        for key, query in items
    ]
    with QuerySession(
        engine,
        jobs=jobs,
        executor=executor,
        shards=shards,
        retries=retries,
        estimator=estimator,
        embedding=embedding,
        bootstrap=bootstrap,
        seed=seed,
        hang_timeout=hang_timeout,
    ) as session:
        if executor == "thread" and engine.cache is None and parsed:
            # The process scheduler grounds while publishing engine state;
            # threads ground here, up front.  With a cache, grounding stays
            # lazy: a sweep of cached unit tables never touches the graph.
            engine.graph  # noqa: B018
        keys = {
            session.submit(query, timeout=timeout): key for key, query in parsed
        }
        for index, outcome in session.as_completed():
            yield keys[index], outcome
