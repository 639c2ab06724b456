"""Futures-style query sessions with incremental answers (``docs/service.md``).

A :class:`QuerySession` is the analyst-facing surface of the streaming
service: queries go in one at a time (:meth:`~QuerySession.submit`), answers
come out the moment they are ready (:meth:`~QuerySession.as_completed`,
:meth:`~QuerySession.result`), and a long sweep survives individual query
failures — each failed query yields its own
:class:`~repro.carl.errors.QueryError` event instead of killing the batch.

Every session runs on a :class:`~repro.service.scheduler.ShardScheduler`,
which hands each outcome straight to the session — filed under the
session's lock, waking any waiting consumer — and owns the records,
deadlines, cancellation, stats and span tree of both executors:

* ``executor="thread"`` — each query runs as one
  :meth:`~repro.carl.engine.CaRLEngine.answer` call on the scheduler's
  in-process pool, sharing graph-walk intermediates through the
  scheduler's :class:`~repro.carl.batch.BatchScratch`; no worker process
  starts;
* ``executor="process"`` — queries are decomposed into shard-level collect
  tasks plus a finish task and run by the scheduler's managed worker
  processes, with retry-and-requeue on worker faults and shard-level cache
  reuse.  A :class:`~repro.service.daemon.QueryDaemon` tenant is a
  session of this kind that runs on the daemon's *shared* scheduler and
  admits or refuses each of its submits itself.

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
* *close*: closing a session abandons every query still outstanding — it
  never yields and ``result`` on it raises — so no consumer waits on it;
  outcomes that resolved before the close stay readable;
* *isolation*: one query's failure, timeout or cancellation never affects
  another query's answer.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from functools import partial
from typing import TYPE_CHECKING, Any, Iterator

from repro.carl.ast import CausalQuery
from repro.carl.errors import QueryError
from repro.carl.parser import parse_query
from repro.faults.injection import fault_point
from repro.observability.telemetry import get_registry
from repro.service.scheduler import DEFAULT_HANG_TIMEOUT, ShardScheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.carl.engine import CaRLEngine

#: Delivered outcomes kept for idempotent :meth:`QuerySession.result`
#: re-reads.  Older delivered queries are reaped completely — that is what
#: keeps a long-lived session's memory flat.
DELIVERED_KEEP = 256

#: Suppressed indexes remembered (for idempotent re-cancel and the "was
#: cancelled" / "was abandoned" errors out of :meth:`QuerySession.result`).
SUPPRESSED_KEEP = 1024

#: Why a suppressed index never yields, as :meth:`QuerySession.result`
#: reports it.
_CANCELLED = "was cancelled"
_ABANDONED = "was abandoned: the session closed before it completed"
_REFUSED = "was refused at submit"


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

    ``_scheduler`` (internal) runs the session on a started scheduler it
    does not own, instead of a private one: the
    :class:`~repro.service.daemon.QueryDaemon`'s tenant sessions share its
    scheduler this way.
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
        _scheduler: ShardScheduler | None = None,
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
        #: Notified whenever an outcome resolves or leaves the session
        #: (delivered, cancelled, abandoned); every blocking wait waits on it.
        self._changed = threading.Condition(self._lock)
        self._next_index = 0  # guarded-by: _lock
        #: Submitted, no outcome resolved yet: session index → the
        #: scheduler's index for the same query.
        self._live: dict[int, int] = {}  # guarded-by: _lock
        self._resolved: dict[int, Any] = {}  # guarded-by: _lock  #: outcomes ready for delivery
        #: Most recent delivered outcomes (index → outcome), LRU-bounded:
        #: keeps :meth:`result` idempotent for recent queries while the
        #: session's memory stays O(in-flight), not O(history).
        self._delivered: "OrderedDict[int, Any]" = OrderedDict()  # guarded-by: _lock
        self._delivered_count = 0  # guarded-by: _lock
        #: Indexes that never yield (cancelled, abandoned at close, refused
        #: at submit) → why; LRU-bounded like the delivered history.
        self._suppressed: "OrderedDict[int, str]" = OrderedDict()  # guarded-by: _lock
        self._cancelled_count = 0  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        #: Fairness group passed with each query (a daemon tenant's name).
        self._group: str | None = None
        if _scheduler is None:
            _scheduler = ShardScheduler(
                engine,
                jobs=jobs,
                shards=shards,
                retries=retries,
                executor=executor,
                hang_timeout=hang_timeout,
            )
            _scheduler.start()
        self._scheduler = _scheduler

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
        with self._lock:
            self._wait_for_capacity_locked()
            if self._closed:
                raise QueryError("the query session is closed")
            index = self._next_index
            self._next_index += 1
            try:
                self._admit_locked()
            except BaseException:
                self._remember_suppressed_locked(index, _REFUSED)
                raise
            scheduled = self._scheduler.next_index()
            # Live before the scheduler sees the query: a fast completion
            # may resolve before submit returns.
            self._live[index] = scheduled
        try:
            self._scheduler.submit(
                scheduled,
                query,
                options,
                timeout,
                partial(self._resolve, index),
                group=self._group,
            )
        except BaseException:
            # The scheduler refused the query (it closed): withdraw the
            # index — the error is the caller's, not a query event.
            with self._lock:
                self._live.pop(index, None)
                self._remember_suppressed_locked(index, _REFUSED)
                self._changed.notify_all()
            raise
        return index

    def _admit_locked(self) -> None:
        """Admission hook: raise to refuse the submit whose index was just
        allocated (lock held).  A plain session admits every query."""

    def _wait_for_capacity_locked(self) -> None:
        """Wait (bounded) until the pending backlog is under ``max_pending``."""
        if self._max_pending is None:
            return
        deadline = time.monotonic() + (self._submit_timeout or 0.0)
        while not self._closed and len(self._live) + len(self._resolved) >= self._max_pending:
            if not self._wait_locked(deadline):
                get_registry().count("session.queue_full")
                raise QueueFullError(
                    f"the session's pending backlog is at max_pending="
                    f"{self._max_pending}; consume events (as_completed/result) "
                    "or raise the bound"
                )

    # ------------------------------------------------------------------
    # delivery and consumption
    # ------------------------------------------------------------------
    def _resolve(self, index: int, outcome: Any) -> None:
        """File query ``index``'s outcome; the scheduler calls this once per
        query, from one of its threads.  An index no longer live — cancelled,
        or abandoned at close — is dropped, so it never yields."""
        with self._lock:
            if self._live.pop(index, None) is None:
                return
            self._resolved[index] = outcome
            self._changed.notify_all()

    def as_completed(self, timeout: float | None = None) -> Iterator[tuple[int, Any]]:
        """Yield ``(index, QueryAnswer | QueryError)`` in completion order.

        Iterates until every live (non-cancelled) query has been delivered —
        including queries submitted *while* iterating.  ``timeout`` bounds
        the wait for each *next* event (the clock restarts after every
        yield); on expiry a :class:`TimeoutError` is raised — the session
        stays usable and iteration can be resumed.
        """
        while True:
            with self._lock:
                deadline = None if timeout is None else time.monotonic() + timeout
                while self._live and not self._resolved:
                    if not self._wait_locked(deadline):
                        raise TimeoutError(
                            f"no query completed within {timeout} seconds"
                        )
                if not self._resolved:
                    return
                index = min(self._resolved)
                outcome = self._hand_out_locked(index)
            _stall_hand_out(index)
            yield index, outcome

    def result(self, index: int, timeout: float | None = None) -> Any:
        """Block until query ``index`` resolves; return its outcome.

        Returns the :class:`QueryAnswer` or :class:`QueryError` (never
        raises it); raises :class:`TimeoutError` if the outcome does not
        arrive in ``timeout`` seconds and :class:`QueryError` for an index
        that was never submitted, was cancelled, or was abandoned by
        :meth:`close`.  Re-reads are idempotent for the most recent
        :data:`DELIVERED_KEEP` delivered queries; older records are reaped,
        and re-reading one raises :class:`QueryError`.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while index in self._live:
                if not self._wait_locked(deadline):
                    raise TimeoutError(f"query {index} did not complete in time")
            if index in self._delivered:
                self._delivered.move_to_end(index)
                return self._delivered[index]
            if index in self._suppressed:
                raise QueryError(f"query {index} {self._suppressed[index]}")
            if index not in self._resolved:
                if 0 <= index < self._next_index:
                    raise QueryError(
                        f"query {index} was already delivered and its "
                        "record reaped (see DELIVERED_KEEP)"
                    )
                raise QueryError(f"unknown query index {index}")
            outcome = self._hand_out_locked(index)
        _stall_hand_out(index)
        return outcome

    def _wait_locked(self, deadline: float | None) -> bool:
        """Wait for the next change (lock held); False once ``deadline`` passed."""
        remaining = None if deadline is None else deadline - time.monotonic()
        if remaining is not None and remaining <= 0:
            return False
        self._changed.wait(remaining)
        return True

    def _hand_out_locked(self, index: int) -> Any:
        """Move one resolved outcome into the bounded delivered history."""
        outcome = self._resolved.pop(index)
        self._delivered[index] = outcome
        self._delivered_count += 1
        while len(self._delivered) > DELIVERED_KEEP:
            self._delivered.popitem(last=False)
        self._changed.notify_all()  # frees max_pending capacity
        return outcome

    def _remember_suppressed_locked(self, index: int, reason: str) -> None:
        """Track a suppressed index in the bounded LRU (lock held)."""
        self._suppressed[index] = reason
        self._suppressed.move_to_end(index)
        while len(self._suppressed) > SUPPRESSED_KEEP:
            self._suppressed.popitem(last=False)

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
                return True  # already cancelled (or abandoned)
            if index not in self._live and index not in self._resolved:
                return False
            scheduled = self._live.pop(index, None)
            self._resolved.pop(index, None)
            self._cancelled_count += 1
            self._remember_suppressed_locked(index, _CANCELLED)
            self._changed.notify_all()
        if scheduled is not None:
            self._scheduler.cancel(scheduled)
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
        """Tear the session down; idempotent.

        Every query still outstanding is abandoned: it never yields, and
        :meth:`result` on it raises :class:`QueryError`.  Outcomes that
        resolved before the close stay readable.  The private scheduler
        closes with the session (its workers stop, its records drop).
        """
        if self._abandon_live() is not None:
            self._scheduler.close()

    def _abandon_live(self) -> list[int] | None:
        """Close the session and abandon its live queries; returns their
        scheduler indexes, or None when the session was already closed."""
        with self._lock:
            if self._closed:
                return None
            self._closed = True
            for index in self._live:
                self._remember_suppressed_locked(index, _ABANDONED)
            abandoned = list(self._live.values())
            self._live.clear()
            self._changed.notify_all()
        return abandoned

    def __enter__(self) -> "QuerySession":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


def _stall_hand_out(index: int) -> None:
    """The ``session.deliver_stall`` fault site: delay handing a resolved
    outcome to the caller (outside the session lock)."""
    stall = fault_point("session.deliver_stall", key=f"query-{index}")
    if stall is not None:
        time.sleep(stall.delay)
