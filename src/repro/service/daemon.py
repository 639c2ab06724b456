"""Multi-tenant query daemon: one scheduler, many admission-controlled sessions.

A :class:`QueryDaemon` is the long-lived, service-shaped front of the CaRL
engine (``docs/service.md``).  It owns **one**
:class:`~repro.service.scheduler.ShardScheduler` — one worker pool, one
artifact cache, one published engine state — and multiplexes any number of
concurrent :class:`~repro.service.session.QuerySession`\\ s over it:

* :meth:`~QueryDaemon.open_session` returns a tenant session: a
  ``QuerySession`` that runs on the shared scheduler instead of a private
  one — same ``submit`` / ``as_completed`` / ``result`` surface, no
  per-session worker spawn;
* admission control is per tenant, inside the session's own ``submit``: a
  **token bucket** (``rate`` tokens per second, ``burst`` capacity) plus a
  bound on in-flight queries; a rejected submit raises
  :class:`AdmissionError` in the submitting caller — a structured error,
  never a hang — and is counted in telemetry (``daemon.reject``);
* the scheduler schedules **fairly across tenants**: every session's
  queries carry its tenant as the fairness group, and ready collect tasks
  drain round-robin across groups, so one tenant's deep backlog cannot
  starve another's interactive queries;
* the scheduler hands each outcome straight to the session that submitted
  it, and draws every query's index from one sequence, so tenants never
  collide; a session's bookkeeping is one entry per in-flight query,
  deleted at delivery — the daemon's memory is O(in-flight), not
  O(queries ever served);
* closing a tenant session abandons its outstanding queries and cancels
  them on the shared scheduler; :meth:`~QueryDaemon.drain` stops admission
  and waits for in-flight work; :meth:`~QueryDaemon.close` drains (best
  effort), closes every tenant session and tears the pool down.

Answers keep the engine's core guarantee: every event a daemon session
emits is bit-identical to the serial ``engine.answer`` of the same query.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any

from repro.carl.errors import QueryError
from repro.observability.telemetry import get_registry
from repro.service.scheduler import DEFAULT_HANG_TIMEOUT, ShardScheduler
from repro.service.session import QuerySession

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.carl.engine import CaRLEngine

#: Seconds :meth:`QueryDaemon.drain` sleeps between in-flight checks.
_POLL_SECONDS = 0.02

#: Default per-tenant bound on in-flight (admitted, undelivered) queries.
DEFAULT_MAX_INFLIGHT = 64


class AdmissionError(QueryError):
    """Raised by ``submit`` on a daemon session the daemon refuses to admit:
    the tenant is over its token-bucket rate, over its in-flight bound, or
    the daemon is draining.  Subclasses :class:`QueryError`, so generic
    error handling keeps working; catch it specifically to back off.
    """

    def __init__(self, message: str, reason: str) -> None:
        super().__init__(message)
        self.reason = reason  #: ``"rate" | "inflight" | "draining"``


class TokenBucket:
    """Classic token bucket on the monotonic clock.

    ``rate`` tokens are added per second up to ``burst``; each admitted
    query consumes one.  ``rate=None`` disables rate limiting (the bucket
    always grants).  Thread-safe.
    """

    def __init__(self, rate: float | None, burst: int) -> None:
        if rate is not None and rate <= 0:
            raise QueryError(f"rate must be positive (or None), got {rate!r}")
        if burst < 1:
            raise QueryError(f"burst must be a positive integer, got {burst!r}")
        self._rate = rate
        self._burst = float(burst)
        self._tokens = float(burst)  # guarded-by: _lock
        self._stamp = time.monotonic()  # guarded-by: _lock
        self._lock = threading.Lock()

    def try_acquire(self) -> bool:
        """Consume one token if available; never blocks."""
        if self._rate is None:
            return True
        with self._lock:
            now = time.monotonic()
            self._tokens = min(self._burst, self._tokens + (now - self._stamp) * self._rate)
            self._stamp = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False


class _TenantSession(QuerySession):
    """One tenant's session on the daemon's shared scheduler.

    A :class:`~repro.service.session.QuerySession` whose queries carry the
    tenant as their fairness group and whose every submit passes the
    tenant's admission control first.  Closing it abandons its outstanding
    queries and cancels them on the shared scheduler, which stays up — it
    belongs to the daemon.
    """

    def __init__(
        self,
        daemon: "QueryDaemon",
        tenant: str,
        bucket: TokenBucket,
        max_inflight: int,
        **options: Any,
    ) -> None:
        super().__init__(
            daemon._engine,  # noqa: SLF001 - daemon pair
            executor="process",
            _scheduler=daemon._scheduler,  # noqa: SLF001
            **options,
        )
        self._daemon = daemon
        self.tenant = tenant
        self._group = tenant
        self._bucket = bucket
        self._max_inflight = max_inflight
        self._admitted = 0  # guarded-by: _lock
        self._rejected = 0  # guarded-by: _lock

    def _admit_locked(self) -> None:
        reason: str | None = None
        if self._daemon._refuses_admission():  # noqa: SLF001
            reason = "draining"
        elif len(self._live) >= self._max_inflight:
            reason = "inflight"
        elif not self._bucket.try_acquire():
            reason = "rate"
        telemetry = get_registry()
        if reason is None:
            self._admitted += 1
            telemetry.count("daemon.admit", tenant=self.tenant)
            return
        self._rejected += 1
        telemetry.count("daemon.reject", tenant=self.tenant, reason=reason)
        raise AdmissionError(
            f"tenant {self.tenant!r}: query not admitted ({reason}); "
            "back off and retry, consume pending events, or raise the "
            "tenant's quota",
            reason=reason,
        )

    def counters(self) -> dict[str, int]:
        """This tenant's admitted, rejected and in-flight query counts."""
        with self._lock:
            return {
                "admitted": self._admitted,
                "rejected": self._rejected,
                "inflight": len(self._live),
            }

    def close(self) -> None:
        abandoned = self._abandon_live()
        if abandoned is None:
            return
        for scheduled in abandoned:
            self._scheduler.cancel(scheduled)
        self._daemon._session_closed(self)  # noqa: SLF001


class QueryDaemon:
    """A long-lived multi-tenant query service over one engine.

    ::

        with QueryDaemon(engine, jobs=4, shards=4) as daemon:
            alice = daemon.open_session(tenant="alice", rate=50.0, burst=10)
            bob = daemon.open_session(tenant="bob")
            alice.submit("ATE(treatment, outcome)")
            ...
            daemon.drain()

    One :class:`~repro.service.scheduler.ShardScheduler` (one worker pool)
    serves every session; per-tenant admission control and round-robin task
    fairness keep tenants isolated.  Thread-safe; sessions may be opened,
    used and closed concurrently from any threads.
    """

    def __init__(
        self,
        engine: "CaRLEngine",
        jobs: int | None = 1,
        shards: int | None = None,
        retries: int = 2,
        hang_timeout: float | None = DEFAULT_HANG_TIMEOUT,
    ) -> None:
        if jobs is None:
            import os

            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise QueryError(f"jobs must be a positive integer, got {jobs!r}")
        self._engine = engine
        self._scheduler = ShardScheduler(
            engine,
            jobs=jobs,
            shards=shards or jobs,
            retries=retries,
            hang_timeout=hang_timeout,
        )
        self._scheduler.start()
        self._lock = threading.Lock()
        #: Open tenant sessions, insertion-ordered (a dict-as-ordered-set:
        #: iterating a bare set here would put stats()/close() session order
        #: under PYTHONHASHSEED).
        self._sessions: dict[_TenantSession, None] = {}  # guarded-by: _lock
        self._next_anonymous = 0  # guarded-by: _lock
        self._draining = False  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def open_session(
        self,
        tenant: str | None = None,
        rate: float | None = None,
        burst: int = 16,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        max_pending: int | None = None,
        submit_timeout: float | None = None,
        estimator: str | None = None,
        embedding: str | None = None,
        bootstrap: int = 0,
        seed: int = 0,
    ) -> QuerySession:
        """Open one tenant's session (use as a context manager).

        A tenant has one session at a time: opening a second one under the
        name of an open session raises :class:`QueryError` (its quota would
        otherwise multiply), and a closed tenant's name may be opened again.
        Without ``tenant``, the session gets a generated name no open
        session holds.  ``rate``/``burst`` shape the tenant's token bucket (``rate=None``
        disables rate limiting); ``max_inflight`` bounds the tenant's
        admitted-but-undelivered queries.  Both reject with
        :class:`AdmissionError` at ``submit``.  ``max_pending`` /
        ``submit_timeout`` add session-side backpressure on top (see
        :class:`~repro.service.session.QuerySession`).  Closing the session
        abandons its outstanding queries and cancels them on the shared
        scheduler; the daemon's workers live on.
        """
        if max_inflight < 1:
            raise QueryError(
                f"max_inflight must be a positive integer, got {max_inflight!r}"
            )
        bucket = TokenBucket(rate, burst)
        with self._lock:
            if self._closed:
                raise QueryError("the query daemon is closed")
            if self._draining:
                raise QueryError("the query daemon is draining")
            open_tenants = {session.tenant for session in self._sessions}
            if tenant is None:
                tenant = f"tenant-{self._next_anonymous}"
                self._next_anonymous += 1
                while tenant in open_tenants:
                    tenant = f"tenant-{self._next_anonymous}"
                    self._next_anonymous += 1
            elif tenant in open_tenants:
                # A second session would get its own bucket and inflight
                # count: the tenant's quota would multiply.
                raise QueryError(
                    f"tenant {tenant!r} already has an open session; close it "
                    "before opening another"
                )
            session = _TenantSession(
                self,
                tenant,
                bucket,
                max_inflight,
                estimator=estimator,
                embedding=embedding,
                bootstrap=bootstrap,
                seed=seed,
                max_pending=max_pending,
                submit_timeout=submit_timeout,
            )
            self._sessions[session] = None
            live = len(self._sessions)
        get_registry().gauge("daemon.sessions", live)
        return session

    def _session_closed(self, session: _TenantSession) -> None:
        with self._lock:
            self._sessions.pop(session, None)
            live = len(self._sessions)
        get_registry().gauge("daemon.sessions", live)

    def _refuses_admission(self) -> bool:
        with self._lock:
            return self._draining or self._closed

    # ------------------------------------------------------------------
    # lifecycle / inspection
    # ------------------------------------------------------------------
    def inflight(self) -> int:
        """Admitted queries whose outcomes have not been delivered yet."""
        with self._lock:
            sessions = list(self._sessions)
        return sum(session.counters()["inflight"] for session in sessions)

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting queries and wait for in-flight ones to resolve.

        Returns True when the daemon went idle within ``timeout`` seconds
        (False on expiry — the daemon stays draining either way; a False
        return means some queries are still in flight, not that they were
        lost).
        """
        with self._lock:
            self._draining = True
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self.inflight() == 0:
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(_POLL_SECONDS)

    def stats(self) -> dict[str, Any]:
        """Daemon-level counters plus the shared scheduler's snapshot."""
        with self._lock:
            sessions = list(self._sessions)
            snapshot: dict[str, Any] = {
                "sessions": len(sessions),
                "draining": self._draining,
                "tenants": {},
            }
        scheduler_stats = self._scheduler.stats()
        # The pool circuit breaker tripped: queries still answer (serially,
        # bit-identical), but operators should know the daemon is limping.
        snapshot["degraded"] = bool(scheduler_stats.get("circuit_open"))
        admitted = rejected = inflight = 0
        for session in sessions:
            counters = session.counters()
            snapshot["tenants"][session.tenant] = counters
            admitted += counters["admitted"]
            rejected += counters["rejected"]
            inflight += counters["inflight"]
        snapshot["inflight"] = inflight
        snapshot["admitted"] = admitted
        snapshot["rejected"] = rejected
        snapshot["scheduler"] = scheduler_stats
        return snapshot

    def close(self, drain_timeout: float = 0.0) -> None:
        """Tear the daemon down; idempotent.

        With ``drain_timeout > 0`` the daemon first waits (bounded) for
        in-flight queries.  Then the scheduler's workers stop and every
        tenant session closes: any query still unresolved is abandoned.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._draining = True
        if drain_timeout > 0:
            self.drain(timeout=drain_timeout)
        self._scheduler.close()
        with self._lock:
            sessions = list(self._sessions)
        for session in sessions:
            session.close()

    def __enter__(self) -> "QueryDaemon":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()
