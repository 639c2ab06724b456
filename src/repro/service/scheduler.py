"""The process-mode task scheduler behind every query session (``docs/service.md``).

Every process-mode entry point — ``answer_all(executor="process")``,
``answer_iter``, ``open_session`` and the ``QueryDaemon`` — runs its queries
here, with explicit task-level bookkeeping:

* each submitted query is decomposed into shard-level **collect tasks**
  (one per contiguous unit range, reusing :class:`~repro.carl.shard.ShardTask`)
  plus one **finish task** (merge partials, materialize, estimate —
  :class:`~repro.carl.shard.FinishTask`), tracked through the
  :class:`TaskState` machine ``PENDING → RUNNING → DONE | FAILED``;
* workers are long-lived processes the scheduler manages itself: a task
  whose worker raises or dies is **retried and requeued** — on a
  different worker where possible (the faulting worker is excluded for that
  task), with a dead worker replaced by a fresh process — up to a bounded
  retry budget, after which only the affected query fails with a
  :class:`~repro.carl.errors.QueryError`; the rest of the session streams
  on;
* before enqueuing a collect task the scheduler **probes the artifact
  cache** under the deterministic partial key
  (:func:`repro.carl.shard.shard_partial_key`), so a warm re-sweep performs
  zero collection work, and tasks are deduplicated by key within the
  session, so a threshold sweep collects each unit range once.

Long-lived service hardening (PR 7):

* **bounded bookkeeping** — a query's record is reaped the moment its event
  is emitted and completed task rows are reaped as their results land; the
  session-level dedup that DONE task rows used to provide moves to a bounded
  LRU of warm partial keys (each holding one refcounted cache pin), so the
  scheduler's memory is O(in-flight work), not O(session history);
* **fair scheduling across submitters** — :meth:`submit` takes an optional
  ``group`` label (the daemon passes one per tenant session) and ready
  collect tasks are drained round-robin across groups, while finish tasks
  keep absolute priority (they complete a query *now*);
* **telemetry** — every query emits a span tree (``query`` root with
  ``query.ground`` / ``query.collect`` / ``query.finish`` children) plus
  retry/timeout/queue-depth signals through
  :mod:`repro.observability.telemetry` (see ``docs/observability.md``).

Everything a worker computes flows through the artifact cache (partials as
``unit_inputs`` artifacts, never bulk pickles; see :mod:`repro.carl.shard`),
and the per-query merge is pure concatenation — so every answer the scheduler emits
is bit-identical to the serial :meth:`~repro.carl.engine.CaRLEngine.answer`
of the same query.  The task queue plus artifact-keyed partials are the
designed seam for the ROADMAP's remote-dispatch backend: a multi-host
dispatcher needs exactly this bookkeeping with a remote transport instead of
local pipes.
"""

from __future__ import annotations

import enum
import hashlib
import heapq
import multiprocessing
import multiprocessing.connection
import os
import queue
import shutil
import tempfile
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from dataclasses import replace as dataclass_replace
from typing import TYPE_CHECKING, Any

from repro.carl import errors as carl_errors
from repro.carl.errors import CaRLError, QueryError
from repro.carl.shard import (
    DEFAULT_HANG_TIMEOUT,
    FinishTask,
    NO_INHERIT_ENV,
    ShardTask,
    WorkerSpec,
    _plan_query,
    _publish_engine_state,
    _run_finish_task,
    _run_shard_task,
    _worker_init,
    register_inheritable_engine,
    shard_partial_key,
    shard_ranges,
    unregister_inheritable_engine,
)
from repro.cache.store import ArtifactCache, CacheKey
from repro.carl.ast import CausalQuery
from repro.carl.queries import QueryAnswer
from repro.faults.injection import fault_point, set_role
from repro.observability.flight import dump_flight_recording
from repro.observability.merge import merge_worker_batch
from repro.observability.telemetry import Span, get_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.carl.engine import CaRLEngine

#: Seconds the dispatcher blocks on the result pipes per loop iteration —
#: the upper bound on how stale its view of worker deaths, deadlines and
#: control messages can get.
_POLL_SECONDS = 0.02

#: Seconds :meth:`ShardScheduler.close` waits for a worker to exit politely
#: (after its ``None`` sentinel) before terminating it.
_SHUTDOWN_GRACE = 2.0

#: Seconds :meth:`ShardScheduler.close` waits for the dispatcher thread —
#: longer than the worker grace, because the dispatcher may be mid-plan on
#: the engine when the stop flag is set.
_DISPATCHER_JOIN = 5.0

#: Bound on the warm partial-key LRU: completed collect work is remembered
#: (and its artifact kept pinned) up to this many unit ranges, so a hot
#: sweep re-submitted to a long-lived session skips the cache probe without
#: the scheduler accumulating a row per task it ever ran.
_WARM_KEYS_CAP = 4096

#: Seconds between worker heartbeats on the result pipe.  Each beat carries
#: the worker's own measurement of how long it has been on its current task,
#: so the dispatcher can tell a *hung* worker (alive but stuck — invisible
#: to ``Process.is_alive()``) from a merely busy one.
_HEARTBEAT_SECONDS = 0.25

#: Exponential-backoff schedule between retry requeues: attempt ``k`` waits
#: ``base * 2**(k-1)`` seconds (capped), scaled by a deterministic jitter
#: factor in [0.5, 1.0) — sha256 of (task, attempt), never ``random`` — so
#: retries of simultaneously-faulted tasks spread out instead of stampeding
#: the replacement worker, and a replayed chaos run waits the exact same
#: delays.
DEFAULT_BACKOFF_BASE = 0.05
DEFAULT_BACKOFF_CAP = 2.0


class TaskState(enum.Enum):
    """Lifecycle of one scheduler task."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


class QueryState(enum.Enum):
    """Lifecycle of one submitted query."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


@dataclass
class ServiceStats:
    """Counters of one session's scheduling activity.

    ``collect_cache_hits`` + ``collect_tasks_run`` covers every shard range
    of every scheduled query: on a fully warm re-sweep ``collect_tasks_run``
    is 0 — the evidence ``benchmarks/bench_stream.py`` gates on.
    """

    collect_tasks_run: int = 0
    collect_cache_hits: int = 0
    finish_tasks_run: int = 0
    retries: int = 0
    worker_deaths: int = 0
    workers_spawned: int = 0
    #: Workers the scheduler killed on purpose (hung, or running a task for
    #: a timed-out/cancelled query) — distinct from ``worker_deaths``, which
    #: counts *unexpected* deaths only.
    workers_killed: int = 0
    worker_hangs: int = 0
    #: Queries answered serially in-process after the pool became unusable
    #: (circuit breaker) or the artifact store degraded.
    serial_fallbacks: int = 0
    reaped_results: int = 0
    timeouts: int = 0
    cancelled: int = 0
    records_reaped: int = 0
    tasks_reaped: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "collect_tasks_run": self.collect_tasks_run,
            "collect_cache_hits": self.collect_cache_hits,
            "finish_tasks_run": self.finish_tasks_run,
            "retries": self.retries,
            "worker_deaths": self.worker_deaths,
            "workers_spawned": self.workers_spawned,
            "workers_killed": self.workers_killed,
            "worker_hangs": self.worker_hangs,
            "serial_fallbacks": self.serial_fallbacks,
            "reaped_results": self.reaped_results,
            "timeouts": self.timeouts,
            "cancelled": self.cancelled,
            "records_reaped": self.records_reaped,
            "tasks_reaped": self.tasks_reaped,
        }


@dataclass
class _Task:
    """One schedulable unit of work (a collect shard or a query finish)."""

    id: int
    kind: str  #: ``"collect"`` or ``"finish"``
    spec: ShardTask | FinishTask
    #: Indexes of the session queries depending on this task.  Collect
    #: tasks are shared between queries with the same collection fingerprint;
    #: a finish task always belongs to exactly one query.
    queries: set[int]
    state: TaskState = TaskState.PENDING
    attempts: int = 0
    #: Worker ids this task must not be assigned to again (they faulted on
    #: it); relaxed only when every live worker is excluded.
    excluded: set[int] = field(default_factory=set)
    worker: int | None = None  #: id of the worker currently running it
    seconds: float = 0.0  #: collection seconds (collect tasks, once done)
    group: str | None = None  #: fairness group of the query that created it
    trace: str | None = None  #: telemetry trace of the creating query
    parent: str | None = None  #: telemetry span id of the creating query
    span: Span | None = None  #: open span of the current execution attempt
    ready_since: float = 0.0  #: monotonic instant it last became ready


@dataclass
class _QueryRecord:
    """Dispatcher-side bookkeeping for one submitted query.

    Lives from :meth:`ShardScheduler.submit` until the query's event is
    emitted (or it is detached by cancellation) — records are reaped at
    resolution, so the record table is O(in-flight queries).
    """

    index: int
    query: CausalQuery
    options: dict[str, Any]  #: estimator/embedding/bootstrap/seed/...
    deadline: float | None  #: monotonic deadline, None = no timeout
    group: str | None = None  #: fairness group (daemon: one per tenant)
    state: QueryState = QueryState.PENDING
    table_key: CacheKey | None = None
    #: Ordered partial keys (range order) the finish task will merge.
    part_keys: list[CacheKey] = field(default_factory=list)
    #: Partial keys this record pinned (one refcount each; released at reap).
    pins: list[CacheKey] = field(default_factory=list)
    #: Ids of this query's unfinished collect tasks.
    waiting_on: set[int] = field(default_factory=set)
    collect_seconds: float = 0.0
    finish_task: int | None = None
    mode: str = ""  #: "warm" | "cold" once planned
    trace: str | None = None  #: telemetry trace id
    span: Span | None = None  #: open root ``query`` span


class _Worker:
    """One managed worker process plus its private task queue and result pipe."""

    def __init__(
        self, worker_id: int, process: multiprocessing.Process, tasks: Any, results: Any
    ) -> None:
        self.id = worker_id
        self.process = process
        self.tasks = tasks  #: multiprocessing.SimpleQueue of (task id, spec)
        #: Read end of the worker's private result pipe.  Private, so a
        #: worker terminated mid-write can tear only its own pipe, never
        #: hold a lock other workers' results wait on.
        self.results = results
        self.task_id: int | None = None  #: task currently assigned, if any
        #: Dispatcher-side view of the worker's last heartbeat (monotonic)
        #: and its self-reported seconds on its current task.
        self.last_beat: float = time.monotonic()
        self.busy_seconds: float = 0.0
        #: True when the dispatcher terminated this worker on purpose (hung,
        #: or its query timed out): its death is expected — replaced, but
        #: not counted as a fault and not held against the circuit breaker.
        self.expected_death: bool = False


def _heartbeat_loop(worker_id: int, state: dict[str, Any], send: Any) -> None:
    """Worker-side daemon thread: report liveness + time-on-task forever.

    The beat carries the *worker's own* measurement of how long the main
    thread has been on its current task: a hang (sleep, deadlock, infinite
    loop) keeps this thread beating while the reported time-on-task grows
    without bound — exactly the signal the dispatcher's hang detector needs,
    and one ``Process.is_alive()`` can never provide.
    """
    while True:
        started = state.get("started")
        busy = 0.0 if started is None else time.monotonic() - started
        try:
            send((worker_id, None, "beat", busy, None))
        except BaseException:  # noqa: BLE001 - pipe closed: session over
            return
        time.sleep(_HEARTBEAT_SECONDS)


def _service_worker_main(worker_id: int, spec: WorkerSpec, tasks: Any, results: Any) -> None:
    """Worker process entry point: run tasks off the private queue forever.

    Every outcome — success or failure — is reported on the worker's private
    result pipe (``results``, shared by its main and heartbeat threads under
    a worker-local lock); a worker that dies without reporting is detected by the
    dispatcher through its process handle, and a worker that *hangs* is
    detected through its heartbeats (see :func:`_heartbeat_loop`).  Errors
    cross the boundary as ``(type name, message, is-CaRL-error)`` triples:
    CaRL errors are deterministic semantic failures the scheduler must not
    retry, anything else is treated as a (possibly transient) fault and
    requeued.

    Every result message's fifth slot carries a drained telemetry batch —
    the worker's recorded spans/counters since the previous result — and the
    exit sentinel triggers a final drain shipped as ``"events"`` messages,
    so only a crash (``os._exit``) can lose worker-side telemetry.
    """
    _worker_init(spec, worker_id)
    set_role("worker", worker_id)  # arms worker-only fault sites
    registry = get_registry()
    send_lock = threading.Lock()

    def send(message: tuple[Any, ...]) -> None:
        with send_lock:
            results.send(message)

    beat_state: dict[str, Any] = {"started": None}
    threading.Thread(
        target=_heartbeat_loop,
        args=(worker_id, beat_state, send),
        name=f"carl-worker-{worker_id}-heartbeat",
        daemon=True,
    ).start()
    while True:
        item = tasks.get()
        if item is None:
            # Final drain: ship whatever the ring still holds before exit.
            batch = registry.drain_events()
            while batch is not None:
                try:
                    send((worker_id, None, "events", None, batch))
                except BaseException:  # noqa: BLE001 - pipe closed: session over
                    break
                batch = registry.drain_events()
            return
        task_id, task_spec = item
        if fault_point("worker.crash", key=f"task-{task_id}") is not None:
            os._exit(23)
        hang = fault_point("worker.hang", key=f"task-{task_id}")
        slow = fault_point("worker.slow", key=f"task-{task_id}")
        failure = fault_point("worker.error", key=f"task-{task_id}")
        beat_state["started"] = time.monotonic()
        try:
            if hang is not None:
                time.sleep(hang.delay)
            if slow is not None:
                time.sleep(slow.delay)
            if failure is not None:
                raise RuntimeError(f"injected worker fault (worker.error, task {task_id})")
            if isinstance(task_spec, ShardTask):
                outcome: Any = _run_shard_task(task_spec)
            else:
                outcome = _run_finish_task(task_spec)
            stall = fault_point("worker.result_stall", key=f"task-{task_id}")
            if stall is not None:
                time.sleep(stall.delay)
            send((worker_id, task_id, "ok", outcome, registry.drain_events()))
        except BaseException as error:  # noqa: BLE001 - must cross the pipe
            send(
                (
                    worker_id,
                    task_id,
                    "error",
                    (type(error).__name__, str(error), isinstance(error, CaRLError)),
                    registry.drain_events(),
                )
            )
        finally:
            beat_state["started"] = None


class ShardScheduler:
    """Process-mode backend of a :class:`~repro.service.session.QuerySession`.

    Public surface (all thread-safe; everything else runs on the internal
    dispatcher thread):

    * :meth:`start` / :meth:`close` — spawn and tear down workers;
    * :meth:`submit` — register one parsed query (with per-query options,
      an optional timeout, and an optional fairness group) for scheduling;
    * :meth:`cancel` — drop a query before it completes;
    * :attr:`events` — queue of ``(index, QueryAnswer | QueryError)`` in
      completion order;
    * :meth:`stats` — a :class:`ServiceStats` snapshot plus live
      bookkeeping sizes (``live_records`` / ``live_tasks`` / ...).
    """

    def __init__(
        self,
        engine: "CaRLEngine",
        jobs: int,
        shards: int,
        retries: int,
        *,
        hang_timeout: float | None = DEFAULT_HANG_TIMEOUT,
    ) -> None:
        if retries < 0:
            raise QueryError(f"retries must be >= 0, got {retries!r}")
        if hang_timeout is not None and hang_timeout <= 0:
            raise QueryError(f"hang_timeout must be positive or None, got {hang_timeout!r}")
        self._engine = engine
        self._jobs = jobs
        self._shards = shards
        self._retries = retries
        self._hang_timeout = hang_timeout
        #: Consecutive unexpected worker failures (deaths or hangs, without
        #: an intervening task success) that open the circuit: the pool is
        #: abandoned and every query answers serially in-process.
        self._circuit_threshold = max(3, jobs + 2)

        self.events: "queue.Queue[tuple[int, QueryAnswer | QueryError]]" = queue.Queue()
        self._lock = threading.RLock()
        self._stats = ServiceStats()  # guarded-by: _lock
        self._records: dict[int, _QueryRecord] = {}  # guarded-by: _lock
        self._tasks: dict[int, _Task] = {}  # guarded-by: _lock
        #: In-flight (PENDING/RUNNING) collect tasks by partial key — the
        #: within-session dedup that lets a threshold sweep share ranges.
        self._task_by_key: dict[CacheKey, int] = {}  # guarded-by: _lock
        #: Completed collect work: partial key → collection seconds, LRU up
        #: to ``_WARM_KEYS_CAP``.  Each entry holds one cache pin, released
        #: on LRU eviction or at close.  Replaces the DONE task rows the
        #: scheduler used to keep forever.
        self._warm_keys: "OrderedDict[CacheKey, float]" = OrderedDict()  # guarded-by: _lock
        #: Ready collect tasks, one deque per fairness group, drained
        #: round-robin (``_group_order`` is the rotation); finish tasks go
        #: to ``_priority`` and always run first.
        self._ready_groups: dict[str | None, deque[int]] = {}  # guarded-by: _lock
        self._group_order: deque[str | None] = deque()  # guarded-by: _lock
        self._priority: deque[int] = deque()  # guarded-by: _lock
        #: Backoff queue: ``(monotonic ready-at, task id)`` min-heap; tasks
        #: move to the ready deques when due (drained every dispatcher
        #: loop), so the heap is bounded by in-flight retried tasks.
        self._delayed: list[tuple[float, int]] = []  # guarded-by: _lock
        self._consecutive_failures = 0  # guarded-by: _lock
        self._circuit_open = False  # guarded-by: _lock
        self._ready_count = 0  # guarded-by: _lock
        self._last_queue_depth = -1  # guarded-by: _lock
        self._control: deque[tuple[str, int]] = deque()  # guarded-by: _lock
        self._next_task_id = 0  # guarded-by: _lock
        self._next_worker_id = 0
        self._workers: dict[int, _Worker] = {}
        #: Session-lifetime pins: the published engine-state artifacts
        #: (grounding + tables).  Partial-key pins live on their records and
        #: on ``_warm_keys`` entries instead.
        self._pinned: list[CacheKey] = []  # guarded-by: _lock
        self._cleanup_root: str | None = None
        self._cache: ArtifactCache | None = None
        self._spec: WorkerSpec | None = None
        self._inherit_token: str | None = None
        self._stop = threading.Event()
        self._dispatcher: threading.Thread | None = None
        #: Lazily created single thread for warm unit-table answers: they
        #: run `engine.answer` (merge + estimate + bootstrap), which must
        #: not stall the dispatcher's scheduling loop.
        self._warm_pool: ThreadPoolExecutor | None = None
        #: Serializes worker forks against in-flight warm answers: a child
        #: forked while the warm thread holds the engine's state lock (or a
        #: cache stats lock) would inherit it mid-acquire and deadlock, so
        #: spawns wait for the warm thread to go idle and vice versa.
        #: Per-scheduler: concurrent sessions fork independently (the
        #: engine hand-off is token-keyed, see repro.carl.shard).
        self._fork_lock = threading.Lock()
        self._closed = False  # guarded-by: _lock

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Publish the engine's shared state and spawn the worker pool.

        A failure (grounding, publishing, spawning) closes the scheduler
        before it propagates: pins, the inherit-registry slot, started
        workers and a private cache directory are released, not leaked.
        """
        cache = self._engine.cache
        if cache is None:
            # Uncached engine: shared state still crosses the process
            # boundary through an artifact cache — a private one that lives
            # (and dies) with the session, so nothing is reused across runs.
            self._cleanup_root = tempfile.mkdtemp(prefix="repro-service-")
            cache = ArtifactCache(self._cleanup_root)
        self._cache = cache
        try:
            # Sweep temp files a torn writer (crash between temp write and
            # rename) may have leaked in an earlier session.
            cache.reap_temp_files()
            inherit = (
                multiprocessing.get_start_method() == "fork"
                and not os.environ.get(NO_INHERIT_ENV)
            )
            if inherit:
                # Registered for the scheduler's whole lifetime: replacement
                # workers may fork at any point, and the token-keyed registry
                # lets any number of sessions fork concurrently.
                self._inherit_token = register_inheritable_engine(self._engine)
            self._spec = _publish_engine_state(
                self._engine,
                cache,
                inherit=inherit,
                # Lock-free by happens-before: start() runs once, before the
                # dispatcher thread and workers that contend on the lock exist.
                pinned=self._pinned,  # repro-lint: disable=lock-guarded-attr
                inherit_token=self._inherit_token,
            )
            for _ in range(self._jobs):
                self._spawn_worker()
            self._dispatcher = threading.Thread(
                target=self._run_dispatcher, name="carl-service-dispatcher", daemon=True
            )
            self._dispatcher.start()
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Stop the dispatcher, shut workers down, release pins.

        Idempotent.  In-flight work is abandoned: running tasks are left to
        their workers until the grace period expires, then the processes are
        terminated.  Partials already stored stay in a persistent cache
        (that is the shard-level reuse); the private cache of an uncached
        engine is deleted with the session.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._stop.set()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=_DISPATCHER_JOIN)
        if self._warm_pool is not None:
            self._warm_pool.shutdown(wait=False)
        workers = list(self._workers.values())
        for worker in workers:
            try:
                worker.tasks.put(None)
            except (OSError, ValueError):  # pragma: no cover - pipe already gone
                pass
        # The exit sentinel triggers each worker's final telemetry drain.
        # Read the pipes while waiting (a worker blocked on a full pipe could
        # not exit) and merge those last batches and any result-piggybacked
        # stragglers — unless the dispatcher outlived its join timeout and
        # still owns the pipes.
        dispatcher_done = self._dispatcher is None or not self._dispatcher.is_alive()
        readers = workers if dispatcher_done else []
        registry = get_registry()
        deadline = time.monotonic() + _SHUTDOWN_GRACE
        while time.monotonic() < deadline and any(w.process.is_alive() for w in workers):
            for message in _receive(readers, _POLL_SECONDS):
                merge_worker_batch(registry, message[4], worker=message[0])
        for worker in workers:
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=_SHUTDOWN_GRACE)
        for message in _receive(readers, 0.0):
            merge_worker_batch(registry, message[4], worker=message[0])
        for worker in readers:
            worker.results.close()
        unregister_inheritable_engine(self._inherit_token)
        self._inherit_token = None
        if self._cache is not None:
            with self._lock:
                for record in self._records.values():
                    for key in record.pins:
                        self._cache.unpin(key)
                    record.pins.clear()
                for key in self._warm_keys:
                    self._cache.unpin(key)
                self._warm_keys.clear()
                for key in self._pinned:
                    self._cache.unpin(key)
                self._pinned.clear()
        if self._cleanup_root is not None:
            shutil.rmtree(self._cleanup_root, ignore_errors=True)

    # ------------------------------------------------------------------
    # public API (user threads)
    # ------------------------------------------------------------------
    def submit(
        self,
        index: int,
        query: CausalQuery,
        options: dict[str, Any],
        timeout: float | None,
        group: str | None = None,
    ) -> None:
        """Register one parsed query; planning happens on the dispatcher.

        ``group`` labels the query for fair scheduling: ready collect tasks
        are drained round-robin across groups, so one group's deep backlog
        cannot starve another's (the daemon passes one group per tenant).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            if self._closed:
                raise QueryError("the query session is closed")
            self._records[index] = _QueryRecord(
                index=index,
                query=query,
                options=dict(options),
                deadline=deadline,
                group=group,
            )
            self._control.append(("plan", index))

    def cancel(self, index: int) -> bool:
        """Drop a query; True when it will never emit an event."""
        with self._lock:
            record = self._records.get(index)
            if record is None or record.state in (QueryState.DONE, QueryState.FAILED):
                return False
            if record.state is QueryState.CANCELLED:
                return True
            record.state = QueryState.CANCELLED
            self._stats.cancelled += 1
            self._control.append(("cancelled", index))
        get_registry().count("scheduler.cancelled")
        return True

    def stats(self) -> dict[str, int]:
        with self._lock:
            snapshot = self._stats.as_dict()
            snapshot["live_records"] = len(self._records)
            snapshot["live_tasks"] = len(self._tasks)
            snapshot["warm_keys"] = len(self._warm_keys)
            snapshot["ready_tasks"] = self._ready_count
            snapshot["delayed_tasks"] = len(self._delayed)
            snapshot["circuit_open"] = int(self._circuit_open)
            snapshot["pinned_keys"] = (
                len(self._pinned)
                + len(self._warm_keys)
                + sum(len(record.pins) for record in self._records.values())
            )
        return snapshot

    # ------------------------------------------------------------------
    # ready-queue plumbing (callers hold the lock)
    # ------------------------------------------------------------------
    def _enqueue_ready_locked(self, task: _Task, front: bool = False) -> None:
        group = task.group
        dq = self._ready_groups.get(group)
        if dq is None:
            dq = self._ready_groups[group] = deque()
            self._group_order.append(group)
        if front:
            dq.appendleft(task.id)
        else:
            # A front re-enqueue (no eligible worker this round) keeps the
            # original ready instant: queue-wait measures ready -> assigned.
            task.ready_since = time.monotonic()
            dq.append(task.id)
        self._ready_count += 1

    def _pop_ready_locked(self) -> int | None:
        if self._priority:
            self._ready_count -= 1
            return self._priority.popleft()
        for _ in range(len(self._group_order)):
            group = self._group_order.popleft()
            dq = self._ready_groups.get(group)
            if not dq:
                # Drained group: drop it from the rotation (re-added on the
                # next enqueue), so departed tenants do not accumulate.
                self._ready_groups.pop(group, None)
                continue
            task_id = dq.popleft()
            self._group_order.append(group)
            self._ready_count -= 1
            return task_id
        return None

    def _emit_queue_depth_locked(self) -> None:
        if self._ready_count != self._last_queue_depth:
            self._last_queue_depth = self._ready_count
            get_registry().gauge("scheduler.queue_depth", self._ready_count)

    # ------------------------------------------------------------------
    # warm partial-key bookkeeping (callers hold the lock)
    # ------------------------------------------------------------------
    def _remember_warm_locked(self, key: CacheKey, seconds: float) -> None:
        """Record completed collect work for ``key`` (pinned, LRU-bounded)."""
        if key in self._warm_keys:
            self._warm_keys.move_to_end(key)
            self._warm_keys[key] = max(self._warm_keys[key], seconds)
            return
        self._cache.pin(key)
        self._warm_keys[key] = seconds
        while len(self._warm_keys) > _WARM_KEYS_CAP:
            evicted, _ = self._warm_keys.popitem(last=False)
            self._cache.unpin(evicted)

    def _forget_warm_locked(self, key: CacheKey) -> None:
        if self._warm_keys.pop(key, None) is not None:
            self._cache.unpin(key)

    # ------------------------------------------------------------------
    # dispatcher thread
    # ------------------------------------------------------------------
    def _run_dispatcher(self) -> None:
        try:
            while not self._stop.is_set():
                self._drain_control()
                self._reap_dead_workers()
                self._check_hung_workers()
                self._expire_deadlines()
                self._release_delayed()
                self._assign_ready_tasks()
                for message in _receive(list(self._workers.values()), _POLL_SECONDS):
                    self._handle_result(message)
        except BaseException as error:  # noqa: BLE001 - dispatcher must not die silently
            self._fail_all_live(
                QueryError(f"the service dispatcher failed: {error}")
            )

    def _drain_control(self) -> None:
        while True:
            with self._lock:
                if not self._control:
                    return
                action, index = self._control.popleft()
            if action == "plan":
                self._plan(index)
            elif action == "cancelled":
                self._detach_query(index)

    # -- planning -------------------------------------------------------
    def _plan(self, index: int) -> None:
        with self._lock:
            record = self._records.get(index)
            if record is None or record.state is not QueryState.PENDING:
                return
        options = record.options
        telemetry = get_registry()
        span_meta: dict[str, Any] = {"executor": "process"}
        if record.group is not None:
            span_meta["tenant"] = record.group
        record.span = telemetry.start_span("query", index=index, **span_meta)
        record.trace = record.span.trace
        with self._lock:
            circuit_open = self._circuit_open
        if circuit_open:
            # The pool is gone (circuit breaker): answer serially without
            # planning any tasks.
            self._fallback_serial(record, reason="circuit_open")
            return
        ground_span = telemetry.start_span(
            "query.ground", trace=record.trace, parent=record.span
        )
        try:
            plan, n_units = _plan_query(
                self._engine, self._cache, record.query, options["embedding"]
            )
        except Exception as error:  # noqa: BLE001 - a plan failure is per-query
            telemetry.finish_span(ground_span)
            self._finish_query(index, as_query_error(error))
            return
        telemetry.finish_span(ground_span, cached=n_units is None)
        if n_units is None:
            # Warm unit table: the serial warm path (load + estimate)
            # answers without any scheduling — but `engine.answer` can be
            # slow (bootstrap), so it runs on a helper thread rather than
            # stalling the dispatcher's deadline/death/assignment loop.
            with self._lock:
                if record.state is not QueryState.PENDING:
                    return  # cancelled while planning
                record.state = QueryState.RUNNING
                record.mode = "warm"
            self._submit_serial_answer(record, "warm")
            return

        with self._lock:
            if record.state is not QueryState.PENDING:
                # cancel() raced the unlocked planning phase above: the
                # query must never transition to RUNNING (or enqueue tasks)
                # once it has been cancelled.
                return
            record.state = QueryState.RUNNING
            record.mode = "cold"
            record.table_key = plan.table_key
            for start, stop in shard_ranges(n_units, self._shards):
                if start == stop:
                    continue
                result_key = shard_partial_key(
                    self._spec.database_fingerprint,
                    self._spec.program_fingerprint,
                    plan.fingerprint,
                    start,
                    stop,
                    n_units,
                )
                record.part_keys.append(result_key)
                # One pin per referencing record, released when the record
                # is reaped — eviction can never pull a partial out from
                # under a query that will merge it.
                self._cache.pin(result_key)
                record.pins.append(result_key)
                existing_id = self._task_by_key.get(result_key)
                if existing_id is not None:
                    # The range is already being collected for another live
                    # query of this session (same collection fingerprint):
                    # share its in-flight work.
                    task = self._tasks[existing_id]
                    task.queries.add(index)
                    record.waiting_on.add(task.id)
                    continue
                warm_seconds = self._warm_keys.get(result_key)
                if warm_seconds is not None:
                    if self._cache.contains(result_key):
                        # Completed earlier in this session: no probe, no
                        # task — the partial is on disk and pinned.
                        self._warm_keys.move_to_end(result_key)
                        record.collect_seconds += warm_seconds
                        continue
                    # Evicted externally despite the pin (best-effort
                    # protection): forget it and re-collect below.
                    self._forget_warm_locked(result_key)
                spec = ShardTask(
                    query=record.query,
                    start=start,
                    stop=stop,
                    n_units=n_units,
                    result_key=result_key,
                )
                if self._cache.load(result_key) is not None:
                    # Shard-level cache reuse: the partial already exists
                    # (verified), so this range needs no collection at all.
                    # Remembered as a warm key so later queries of the
                    # session skip the probe instead of repeating it.
                    self._stats.collect_cache_hits += 1
                    self._remember_warm_locked(result_key, 0.0)
                    continue
                task = _Task(
                    id=self._next_task_id,
                    kind="collect",
                    spec=spec,
                    queries={index},
                    group=record.group,
                    trace=record.trace,
                    parent=record.span.span_id if record.span is not None else None,
                )
                self._next_task_id += 1
                self._tasks[task.id] = task
                self._task_by_key[result_key] = task.id
                self._enqueue_ready_locked(task)
                record.waiting_on.add(task.id)
            if not record.waiting_on:
                self._enqueue_finish_locked(record)
            self._emit_queue_depth_locked()

    def _enqueue_finish_locked(self, record: _QueryRecord) -> None:
        """All collects of a query are resolved: schedule its finish task.

        Caller must hold the lock."""
        options = record.options
        task = _Task(
            id=self._next_task_id,
            kind="finish",
            spec=FinishTask(
                query=record.query,
                part_keys=tuple(record.part_keys),
                table_key=record.table_key,
                collect_seconds=record.collect_seconds,
                estimator=options["estimator"],
                embedding=options["embedding"],
                bootstrap=options["bootstrap"],
                seed=options["seed"],
            ),
            queries={record.index},
            group=record.group,
            trace=record.trace,
            parent=record.span.span_id if record.span is not None else None,
        )
        self._next_task_id += 1
        self._tasks[task.id] = task
        # Finish tasks jump the queue: a ready finish completes a query *now*,
        # and streaming is about completion latency — collect tasks of later
        # queries can wait one task's worth of time.
        task.ready_since = time.monotonic()
        self._priority.append(task.id)
        self._ready_count += 1
        record.finish_task = task.id

    # -- serial in-process answering (warm path + fallback) -------------
    def _submit_serial_answer(self, record: _QueryRecord, mode: str) -> None:
        """Answer one query with serial ``engine.answer`` on the helper thread.

        Shared by the warm path (``mode="warm"``: the unit table is cached)
        and the degraded paths (``mode="serial"``: pool circuit open, or the
        artifact store out of space).  Either way the answer is the serial
        engine's own — bit-identity is by construction, so every fallback
        trades throughput, never correctness.
        """
        options = record.options
        index = record.index
        with self._lock:
            if self._warm_pool is None:
                self._warm_pool = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="carl-service-warm"
                )

        def _answer() -> None:
            finish_span = get_registry().start_span(
                "query.finish", trace=record.trace, parent=record.span, mode=mode
            )
            try:
                with self._fork_lock:
                    answer = self._engine.answer(
                        record.query,
                        estimator=options["estimator"],
                        embedding=options["embedding"],
                        bootstrap=options["bootstrap"],
                        seed=options["seed"],
                    )
            except Exception as error:  # noqa: BLE001 - per-query failure
                get_registry().finish_span(finish_span, outcome="error")
                self._finish_query(index, as_query_error(error))
            else:
                get_registry().finish_span(finish_span, outcome="ok")
                self._finish_query(index, answer)

        self._warm_pool.submit(_answer)

    def _fallback_serial(self, record: _QueryRecord, reason: str) -> None:
        """Detach one query from the pool and answer it serially instead."""
        with self._lock:
            if record.state not in (QueryState.PENDING, QueryState.RUNNING):
                return  # cancelled or already resolved
            record.state = QueryState.RUNNING
            record.mode = "serial"
            record.waiting_on.clear()
            record.finish_task = None
            for task in list(self._tasks.values()):
                if record.index not in task.queries:
                    continue
                task.queries.discard(record.index)
                if not task.queries and task.state is TaskState.PENDING:
                    # Nobody else needs it: cancel (running tasks are left
                    # to finish — their partials become warm cache entries).
                    task.state = TaskState.CANCELLED
                    self._reap_task_locked(task)
            self._stats.serial_fallbacks += 1
        get_registry().count("scheduler.serial_fallback", reason=reason)
        self._submit_serial_answer(record, "serial")

    def _task_degraded(self, task_id: int, text: str) -> None:
        """A worker reported ``CacheDegradedError``: go serial, don't retry."""
        fallback: list[_QueryRecord] = []
        with self._lock:
            task = self._tasks.get(task_id)
            if task is None or task.state is not TaskState.RUNNING:
                self._stats.reaped_results += 1
                return
            task.state = TaskState.CANCELLED
            task.worker = None
            if task.span is not None:
                get_registry().finish_span(task.span, outcome="fault")
                task.span = None
            affected = sorted(task.queries)
            self._reap_task_locked(task)
            for index in affected:
                record = self._records.get(index)
                if (
                    record is not None
                    and record.state is QueryState.RUNNING
                    and record.mode != "serial"
                ):
                    fallback.append(record)
        for record in fallback:
            self._fallback_serial(record, reason="store_degraded")

    def _open_circuit(self) -> None:
        """Repeated worker replacement failed: abandon the pool for good.

        Remaining workers are killed and never replaced, every live task is
        cancelled, and every cold query — in flight and future — answers
        serially in-process (``scheduler.serial_fallback`` telemetry,
        ``circuit_open`` stats flag, surfaced as ``degraded`` in the
        daemon's stats).  Serial answers are bit-identical by construction:
        the breaker trades throughput for availability, never correctness.
        """
        with self._lock:
            if self._circuit_open:
                return
            self._circuit_open = True
        get_registry().count("scheduler.circuit_open")
        # Black box first, remediation second: snapshot the telemetry ring
        # while it still shows the failure run-up (docs/observability.md).
        dump_flight_recording("circuit_open")
        for worker in list(self._workers.values()):
            worker.task_id = None
            self._kill_worker(worker)
        fallback: list[_QueryRecord] = []
        with self._lock:
            for task in list(self._tasks.values()):
                if task.state in (TaskState.PENDING, TaskState.RUNNING):
                    task.state = TaskState.CANCELLED
                    if task.span is not None:
                        get_registry().finish_span(task.span, outcome="cancelled")
                        task.span = None
                    self._reap_task_locked(task)
            for record in self._records.values():
                if record.state is QueryState.RUNNING and record.mode == "cold":
                    fallback.append(record)
        for record in fallback:
            self._fallback_serial(record, reason="circuit_open")

    # -- workers --------------------------------------------------------
    def _spawn_worker(self) -> _Worker:
        tasks: Any = multiprocessing.SimpleQueue()
        results, results_writer = multiprocessing.Pipe(duplex=False)
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        process = multiprocessing.Process(
            target=_service_worker_main,
            args=(worker_id, self._spec, tasks, results_writer),
            name=f"carl-service-worker-{worker_id}",
            daemon=True,
        )
        # The fork-inherited engine crosses through the token-keyed registry
        # in repro.carl.shard, which the child snapshots at fork time — no
        # global spawn lock needed, so concurrent sessions fork without
        # blocking each other.  The per-scheduler fork lock keeps the fork
        # out of any window where this session's warm-answer thread holds an
        # engine or cache lock.
        with self._fork_lock:
            process.start()
        # Only the worker writes: closing this end lets a dead worker's pipe
        # read as EOF instead of blocking on a torn message.
        results_writer.close()
        worker = _Worker(worker_id, process, tasks, results)
        self._workers[worker_id] = worker
        with self._lock:
            self._stats.workers_spawned += 1
        return worker

    def _reap_dead_workers(self) -> None:
        for worker in [w for w in self._workers.values() if not w.process.is_alive()]:
            # Results the worker sent before dying come first: a task it
            # finished must not be retried as if its death interrupted it.
            for message in _drain_pipe(worker.results):
                self._handle_result(message)
            worker.results.close()
            del self._workers[worker.id]
            if not worker.expected_death:
                with self._lock:
                    self._stats.worker_deaths += 1
                    self._consecutive_failures += 1
                get_registry().count("scheduler.worker_death")
            task_id = worker.task_id
            if task_id is not None:
                self._task_faulted(
                    task_id,
                    worker.id,
                    QueryError(
                        f"shard worker {worker.id} died (exit code "
                        f"{worker.process.exitcode}) while running a task"
                    ),
                    retryable=True,
                )
            if self._stop.is_set():
                continue
            with self._lock:
                trip_circuit = (
                    not self._circuit_open
                    and self._consecutive_failures >= self._circuit_threshold
                )
                circuit_open = self._circuit_open or trip_circuit
            if trip_circuit:
                self._open_circuit()
            if not circuit_open:
                # Keep the pool at strength: a replacement inherits (or
                # rebuilds) the engine exactly like the workers before it.
                self._spawn_worker()

    def _check_hung_workers(self) -> None:
        """Kill and replace workers whose heartbeats say they are stuck.

        Two signals, both bounded by ``hang_timeout``: the worker reports a
        time-on-task over the bound (main thread wedged while the heartbeat
        thread still beats), or the beats themselves stopped while a task is
        assigned (the whole process is wedged below Python).  The kill shows
        up to :meth:`_reap_dead_workers` as an *expected* death — replaced,
        and the task requeued against the retry budget with this worker
        excluded — but a hang still counts toward the circuit breaker: a
        pool that hangs every replacement is as unusable as one that
        crashes them.
        """
        if self._hang_timeout is None:
            return
        now = time.monotonic()
        for worker in list(self._workers.values()):
            if worker.task_id is None or worker.expected_death:
                continue
            stuck = worker.busy_seconds > self._hang_timeout
            silent = now - worker.last_beat > self._hang_timeout
            if not (stuck or silent):
                continue
            with self._lock:
                self._stats.worker_hangs += 1
                self._consecutive_failures += 1
            get_registry().count("scheduler.worker_killed", reason="hung")
            dump_flight_recording("worker_kill")
            self._kill_worker(worker)
            self._task_faulted(
                worker.task_id,
                worker.id,
                QueryError(
                    f"shard worker {worker.id} hung (over {self._hang_timeout:g}s "
                    "on one task) and was killed"
                ),
                retryable=True,
            )
            worker.task_id = None

    def _kill_worker(self, worker: _Worker) -> None:
        """Terminate a worker on purpose; the reap loop replaces it."""
        worker.expected_death = True
        with self._lock:
            self._stats.workers_killed += 1
        try:
            worker.process.terminate()
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass

    def _release_delayed(self) -> None:
        """Move backed-off tasks whose delay elapsed into the ready queues."""
        with self._lock:
            if not self._delayed:
                return
            now = time.monotonic()
            released = False
            while self._delayed and self._delayed[0][0] <= now:
                _, task_id = heapq.heappop(self._delayed)
                task = self._tasks.get(task_id)
                if task is None or task.state is not TaskState.PENDING:
                    continue  # resolved or cancelled while waiting
                self._enqueue_ready_locked(task)
                released = True
            if released:
                self._emit_queue_depth_locked()

    def _backoff_seconds(self, task: _Task) -> float:
        """The jittered exponential backoff before retry ``task.attempts``."""
        exponential = min(
            DEFAULT_BACKOFF_CAP, DEFAULT_BACKOFF_BASE * 2 ** max(0, task.attempts - 1)
        )
        # The leading 0 is the jitter seed every replay of a plan shares.
        digest = hashlib.sha256(
            f"0:{task.kind}:{task.id}:{task.attempts}".encode()
        ).digest()
        jitter = 0.5 + int.from_bytes(digest[:8], "big") / 2**65
        return exponential * jitter

    def _assign_ready_tasks(self) -> None:
        with self._lock:
            if not self._ready_count:
                return
            # A worker killed on purpose (expected_death) is idle only until
            # it is reaped: a task sent to it would die with it.
            idle = [
                w
                for w in self._workers.values()
                if w.task_id is None and not w.expected_death
            ]
            if not idle:
                return
            alive_ids = set(self._workers)
            deferred: list[_Task] = []
            while idle:
                task_id = self._pop_ready_locked()
                if task_id is None:
                    break
                task = self._tasks.get(task_id)
                if task is None or task.state is not TaskState.PENDING:
                    continue
                eligible = [w for w in idle if w.id not in task.excluded]
                if not eligible:
                    if task.excluded >= alive_ids:
                        # Every live worker already faulted on this task:
                        # exclusion would deadlock it, so any worker may
                        # retry (the budget still bounds total attempts).
                        eligible = idle
                    else:
                        deferred.append(task)
                        continue
                worker = eligible[0]
                idle.remove(worker)
                worker.task_id = task.id
                task.state = TaskState.RUNNING
                task.worker = worker.id
                task.attempts += 1
                if task.ready_since:
                    get_registry().histogram(
                        "scheduler.queue_wait",
                        time.monotonic() - task.ready_since,
                        kind=task.kind,
                    )
                if task.kind == "collect":
                    self._stats.collect_tasks_run += 1
                    task.span = get_registry().start_span(
                        "query.collect",
                        trace=task.trace,
                        parent=task.parent,
                        start=task.spec.start,
                        stop=task.spec.stop,
                        worker=worker.id,
                        attempt=task.attempts,
                    )
                else:
                    self._stats.finish_tasks_run += 1
                    task.span = get_registry().start_span(
                        "query.finish",
                        trace=task.trace,
                        parent=task.parent,
                        mode="cold",
                        worker=worker.id,
                    )
                # Ship the task with *this attempt's* trace context: worker
                # telemetry re-parents under the span just opened, so retry
                # attempts stitch under their own collect/finish span.
                worker.tasks.put(
                    (
                        task.id,
                        dataclass_replace(
                            task.spec, trace=task.trace, parent=task.span.span_id
                        ),
                    )
                )
            for task in deferred:
                # No eligible idle worker this round: back to the front of
                # the task's own group so fairness is preserved.
                self._enqueue_ready_locked(task, front=True)
            self._emit_queue_depth_locked()

    # -- results --------------------------------------------------------
    def _handle_result(self, message: tuple[int, int | None, str, Any, Any]) -> None:
        worker_id, task_id, status, payload, batch = message
        if status == "beat":
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker.last_beat = time.monotonic()
                worker.busy_seconds = float(payload)
            return
        # Merge the piggybacked worker telemetry before resolving the task:
        # worker spans/counters must be visible by the time the task's own
        # span closes, whatever the task outcome (even a reaped result).
        merge_worker_batch(get_registry(), batch, worker=worker_id)
        if status == "events":
            return  # a final-drain shipment: telemetry only, no task state
        worker = self._workers.get(worker_id)
        if worker is not None and worker.task_id == task_id:
            worker.task_id = None
        with self._lock:
            task = self._tasks.get(task_id)
            if task is None or task.state is not TaskState.RUNNING:
                self._stats.reaped_results += 1
                return
        if status == "ok":
            self._task_succeeded(task, payload)
            return
        type_name, text, is_carl = payload
        if type_name == "CacheDegradedError":
            # The store is out of space: retrying the write cannot help, and
            # failing the query would break the degrade-to-uncached promise.
            # Answer the affected queries serially in-process instead.
            self._task_degraded(task_id, text)
            return
        error = QueryError(
            f"shard worker {worker_id} failed while running a "
            f"{task.kind} task: {type_name}: {text}"
        )
        if is_carl:
            # Deterministic semantic failure: rebuild the worker's CaRL error
            # as the cause, so batch callers can re-raise its original type.
            error.__cause__ = _rebuild_carl_error(type_name, text)
        self._task_faulted(task_id, worker_id, error, retryable=not is_carl)

    def _task_succeeded(self, task: _Task, payload: Any) -> None:
        emit: list[tuple[int, QueryAnswer | QueryError]] = []
        with self._lock:
            task.state = TaskState.DONE
            task.worker = None
            self._consecutive_failures = 0  # the pool is productive again
            if task.kind == "collect":
                _, task.seconds = payload
                for index in sorted(task.queries):
                    record = self._records.get(index)
                    if record is None or record.state is not QueryState.RUNNING:
                        continue
                    record.waiting_on.discard(task.id)
                    record.collect_seconds += task.seconds
                    if not record.waiting_on and record.finish_task is None:
                        self._enqueue_finish_locked(record)
                # Reap the task row: the partial is on disk, so all later
                # queries need is the warm key (bounded LRU, pinned).
                self._remember_warm_locked(task.spec.result_key, task.seconds)
                self._reap_task_locked(task)
            else:
                # A finish task can lose its (single) query to a serial
                # failover before its result lands; nothing to emit then.
                for index in sorted(task.queries):
                    emit.append((index, payload))
                self._reap_task_locked(task)
        if task.span is not None:
            get_registry().finish_span(task.span, outcome="ok")
            task.span = None
        for index, outcome in emit:
            self._finish_query(index, outcome)

    def _reap_task_locked(self, task: _Task) -> None:
        """Drop a resolved task's row (caller holds the lock)."""
        if self._tasks.pop(task.id, None) is not None:
            self._stats.tasks_reaped += 1
        if task.kind == "collect":
            key = task.spec.result_key
            if self._task_by_key.get(key) == task.id:
                del self._task_by_key[key]

    def _task_faulted(
        self, task_id: int, worker_id: int, error: QueryError, retryable: bool
    ) -> None:
        """A task's execution failed: requeue it or fail its queries."""
        with self._lock:
            task = self._tasks.get(task_id)
            if task is None or task.state not in (TaskState.RUNNING, TaskState.PENDING):
                self._stats.reaped_results += 1
                return
            task.worker = None
            task.excluded.add(worker_id)
            if task.span is not None:
                get_registry().finish_span(task.span, outcome="fault")
                task.span = None
            if retryable and task.attempts <= self._retries:
                # Requeue: the next assignment avoids the faulting worker
                # (a replacement for a dead one has a fresh id and is
                # eligible).  attempts counts executions, so a task is run
                # at most 1 + retries times.  The requeue waits out an
                # exponential backoff with deterministic jitter —
                # simultaneous faults fan out instead of stampeding the
                # replacement worker, and a replay waits identical delays.
                task.state = TaskState.PENDING
                self._stats.retries += 1
                backoff = self._backoff_seconds(task)
                heapq.heappush(self._delayed, (time.monotonic() + backoff, task.id))
                get_registry().count(
                    "scheduler.retry",
                    kind=task.kind,
                    backoff_ms=int(backoff * 1000),
                )
                get_registry().histogram("scheduler.retry_backoff", backoff)
                return
            task.state = TaskState.FAILED
            affected = sorted(task.queries)
        budget_note = (
            f" (after {task.attempts} attempts; retry budget {self._retries})"
            if retryable
            else ""
        )
        for index in affected:
            failure = QueryError(f"{error}{budget_note}")
            failure.__cause__ = error.__cause__
            self._finish_query(index, failure, failed_task=task_id)
        with self._lock:
            failed = self._tasks.get(task_id)
            if failed is not None:
                self._reap_task_locked(failed)

    # -- query completion / detachment ---------------------------------
    def _finish_query(
        self,
        index: int,
        outcome: QueryAnswer | QueryError,
        failed_task: int | None = None,
        kill_reason: str = "orphaned",
    ) -> None:
        """Resolve one query, emit its event (unless cancelled), reap it."""
        with self._lock:
            record = self._records.get(index)
            if record is None or record.state in (QueryState.DONE, QueryState.FAILED):
                return
            cancelled = record.state is QueryState.CANCELLED
            record.state = (
                QueryState.FAILED if isinstance(outcome, QueryError) else QueryState.DONE
            )
            if cancelled:
                record.state = QueryState.CANCELLED
        self._release_query_tasks(index, keep=failed_task, kill_reason=kill_reason)
        if not cancelled:
            self.events.put((index, outcome))
        self._reap_record(index)

    def _detach_query(self, index: int) -> None:
        self._release_query_tasks(index, keep=None, kill_reason="cancelled")
        self._reap_record(index)

    def _reap_record(self, index: int) -> None:
        """Drop a resolved/cancelled query's record and release its pins."""
        with self._lock:
            record = self._records.pop(index, None)
            if record is None:
                return
            self._stats.records_reaped += 1
            if record.finish_task is not None:
                finish = self._tasks.get(record.finish_task)
                if finish is not None and finish.state in (
                    TaskState.CANCELLED,
                    TaskState.FAILED,
                    TaskState.DONE,
                ):
                    self._reap_task_locked(finish)
            if self._cache is not None:
                for key in record.pins:
                    self._cache.unpin(key)
                record.pins.clear()
            span = record.span
            record.span = None
        if span is not None:
            outcome = "cancelled" if record.state is QueryState.CANCELLED else (
                "error" if record.state is QueryState.FAILED else "ok"
            )
            meta: dict[str, Any] = {"outcome": outcome}
            if record.mode:
                meta["mode"] = record.mode
            get_registry().finish_span(span, **meta)
            if span.t1 is not None:
                get_registry().histogram("query.duration", span.t1 - span.t0, **meta)

    def _release_query_tasks(
        self, index: int, keep: int | None, kill_reason: str = "orphaned"
    ) -> None:
        """Detach a resolved/cancelled query from its tasks; drop orphans.

        A pending task no other live query needs is cancelled outright.  A
        *running* orphan gets its worker killed and replaced: letting it run
        to completion would leave a timed-out query's worker occupying a pool
        slot for arbitrarily long — exactly the slot exhaustion deadline
        expiry exists to prevent.  The kill is an expected death (replaced by
        the reap loop, not counted as a fault), emitted as
        ``scheduler.worker_killed`` with the triggering reason.
        """
        kills: list[_Worker] = []
        with self._lock:
            orphans: list[_Task] = []
            for task in self._tasks.values():
                if index not in task.queries or task.id == keep:
                    continue
                live = {
                    q
                    for q in task.queries
                    if q != index
                    and (record := self._records.get(q)) is not None
                    and record.state in (QueryState.PENDING, QueryState.RUNNING)
                }
                if live:
                    continue
                if task.state is TaskState.PENDING:
                    task.state = TaskState.CANCELLED
                    orphans.append(task)
                elif task.state is TaskState.RUNNING:
                    worker = (
                        self._workers.get(task.worker)
                        if task.worker is not None
                        else None
                    )
                    task.state = TaskState.CANCELLED
                    task.worker = None
                    if task.span is not None:
                        get_registry().finish_span(task.span, outcome="cancelled")
                        task.span = None
                    orphans.append(task)
                    if worker is not None and not worker.expected_death:
                        worker.task_id = None
                        kills.append(worker)
            for task in orphans:
                # The id may still sit in a ready deque; the assignment loop
                # skips ids whose task row is gone.
                self._reap_task_locked(task)
        if kills:
            dump_flight_recording("worker_kill")
        for worker in kills:
            get_registry().count("scheduler.worker_killed", reason=kill_reason)
            self._kill_worker(worker)

    def _expire_deadlines(self) -> None:
        now = time.monotonic()
        expired: list[int] = []
        with self._lock:
            for record in self._records.values():
                if (
                    record.deadline is not None
                    and record.state in (QueryState.PENDING, QueryState.RUNNING)
                    and now >= record.deadline
                ):
                    expired.append(record.index)
                    self._stats.timeouts += 1
        for index in expired:
            get_registry().count("scheduler.timeout")
            self._finish_query(
                index,
                QueryError(f"query {index} timed out before completing"),
                kill_reason="deadline",
            )

    def _fail_all_live(self, error: QueryError) -> None:
        with self._lock:
            live = [
                record.index
                for record in self._records.values()
                if record.state in (QueryState.PENDING, QueryState.RUNNING)
            ]
        for index in live:
            self._finish_query(index, error)


def _receive(workers: list[_Worker], timeout: float) -> list[tuple[Any, ...]]:
    """Messages waiting on ``workers``' result pipes, after blocking up to
    ``timeout`` seconds for the first."""
    pipes = [worker.results for worker in workers if not worker.results.closed]
    if not pipes:
        time.sleep(timeout)
        return []
    messages: list[tuple[Any, ...]] = []
    for pipe in multiprocessing.connection.wait(pipes, timeout=timeout):
        messages.extend(_drain_pipe(pipe))
    return messages


def _drain_pipe(pipe: Any) -> list[tuple[Any, ...]]:
    """Every message readable on one result pipe; closes it at EOF (the
    worker exited, possibly mid-message)."""
    messages: list[tuple[Any, ...]] = []
    try:
        while not pipe.closed and pipe.poll():
            messages.append(pipe.recv())
    except (EOFError, OSError):
        pipe.close()
    return messages


def as_query_error(error: Exception, message: str | None = None) -> QueryError:
    """``error`` as a query-failure event: a :class:`QueryError` as itself,
    anything else wrapped in one (``message``, default ``str(error)``) with
    the original as ``__cause__``."""
    if isinstance(error, QueryError):
        return error
    wrapped = QueryError(str(error) if message is None else message)
    wrapped.__cause__ = error
    return wrapped


def _rebuild_carl_error(type_name: str, text: str) -> CaRLError | None:
    """A worker's CaRL error, rebuilt from its reported type name (None when
    the name is not a :mod:`repro.carl.errors` class)."""
    error_type = getattr(carl_errors, type_name, None)
    if isinstance(error_type, type) and issubclass(error_type, CaRLError):
        return error_type(text)
    return None
