"""Streaming query service over the CaRL engine (``docs/service.md``).

The service is the one incremental, fault-tolerant query pipeline every
multi-query entry point runs on — ``CaRLEngine.answer_all`` (beyond its
``jobs=1`` serial loop) drains a session and raises the first failure:

* :class:`~repro.service.session.QuerySession` — a futures-style session
  with ``submit()`` / ``as_completed()`` / ``cancel()`` and per-query
  timeouts, streaming each answer the moment its query finishes;
* :class:`~repro.service.scheduler.ShardScheduler` — the scheduler behind
  every session, which hands each outcome straight to the session that
  submitted it: thread queries run on its in-process pool; process queries
  become shard-level collect tasks plus a per-query finish task, with per-task
  state tracking, retry-and-requeue of failed tasks on other workers
  (bounded budget), and shard-level cache reuse (a warm re-sweep performs
  zero collection work);
* :meth:`repro.carl.engine.CaRLEngine.answer_iter` — the one-call wrapper:
  ``for key, outcome in engine.answer_iter(queries, ...):`` yields each
  ``(key, QueryAnswer | QueryError)`` in completion order;
* :class:`~repro.service.daemon.QueryDaemon` — the multi-tenant daemon:
  one shared scheduler serving many concurrent tenant sessions — each a
  ``QuerySession`` on that scheduler which admits its own submits through
  a per-tenant token bucket and in-flight bound
  (:class:`~repro.service.daemon.AdmissionError` on rejection) — with fair
  round-robin scheduling across tenants.

Every completed answer is bit-identical to the serial
:meth:`~repro.carl.engine.CaRLEngine.answer` of the same query.
"""

from repro.service.daemon import AdmissionError, QueryDaemon, TokenBucket
from repro.service.scheduler import ServiceStats, ShardScheduler, TaskState
from repro.service.session import QueueFullError, QuerySession

__all__ = [
    "AdmissionError",
    "QueryDaemon",
    "QueueFullError",
    "QuerySession",
    "ServiceStats",
    "ShardScheduler",
    "TaskState",
    "TokenBucket",
]
