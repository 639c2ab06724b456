"""Worker protocol of process-mode query answering (see ``docs/sharding.md``).

The thread executor overlaps the numpy phases of a batch, but the hot loops
of query answering — relational-peer walks and the covariate collection of
the unit-table build — are pure Python and serialize on the GIL.
Process mode runs those loops in the worker processes of
:class:`repro.service.scheduler.ShardScheduler`; this module is what both
sides of that process boundary share:

* the dispatcher publishes the engine's shared state once
  (:func:`_publish_engine_state`) — workers forked from the dispatcher
  inherit the grounded engine copy-on-write; otherwise every database table
  and the grounded graph become npz artifacts a worker memory-maps instead
  of unpickling;
* each query's unit list is split into contiguous ranges
  (:func:`shard_ranges`, sized by :func:`_plan_query`), one
  :class:`ShardTask` per range;
* workers hand their partial collections back as ``unit_inputs`` artifacts
  (counts, rows and value codes as narrow unsigned arrays; object arrays only
  per unit or per distinct value, exact round-trips) and a
  :class:`FinishTask` merges them with
  :func:`repro.carl.unit_table.merge_unit_table_inputs` — a concatenation
  that remaps the few distinct values, so the merged collection is
  *identical* to the serial one and every downstream number
  (materialization, estimation) is bit-identical by construction;
* partials are keyed deterministically by ``(grounding fingerprint,
  collection signature, unit range)`` (:func:`shard_partial_key`) and — in a
  persistent cache — outlive the session: a warm re-sweep probes the cache
  before enqueuing each collect task and performs zero collection work
  (``docs/service.md``).

A task that raises or whose worker dies is the scheduler's business: it is
retried on another worker, and only the queries depending on it fail once
the retry budget is spent.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cache.fingerprint import database_fingerprint
from repro.cache.serialization import (
    SerializationError,
    columnar_table_payload,
    grounding_payload,
    load_columnar_table,
    load_unit_inputs,
    unit_inputs_payload,
    unit_table_payload,
)
from repro.cache.store import ArtifactCache, CacheDegradedError, CacheKey
from repro.carl.ast import CausalQuery, Program
from repro.carl.errors import QueryError
from repro.carl.queries import QueryAnswer
from repro.carl.unit_table import merge_unit_table_inputs
from repro.db.database import Database
from repro.observability.telemetry import get_registry, set_role, trace_context

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us lazily)
    from repro.carl.engine import CaRLEngine, QueryPlan

#: Set (to any non-empty value) to disable the fork fast path and force
#: workers to rebuild their engine from the published artifacts even on
#: platforms that fork.  Used by tests to exercise the portable transport.
NO_INHERIT_ENV = "REPRO_SHARD_NO_INHERIT"

#: Default bound on how long one task may run on a worker before the worker
#: is declared hung, killed and replaced (the task is requeued against the
#: retry budget).  Generous: a single shard collect takes milliseconds to
#: seconds; anything this long is wedged.  ``None`` disables hang detection.
#: Lives here (the worker-protocol module) so the engine's ``answer_iter`` /
#: ``open_session`` surfaces can share the default without importing the
#: service layer.
DEFAULT_HANG_TIMEOUT = 30.0


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to rebuild the engine.

    Deliberately tiny: the program AST and a list of artifact-cache keys.
    The bulky state (tables, grounding) stays on disk and is memory-mapped
    by each worker through the shared cache root — the spec itself is the
    only thing that crosses the process boundary eagerly.

    ``inherit`` marks that the dispatcher forked the workers, so the engine
    is already present in each worker as a copy-on-write inheritance and no
    artifacts were published for bootstrap (the artifact transport still
    carries the shard partials either way).  ``inherit_token`` names the
    dispatcher-side registry slot (:func:`register_inheritable_engine`) the
    forked child reads its engine from — tokens let any number of sessions
    fork workers concurrently without handing one the other's engine.
    """

    cache_root: str
    database_fingerprint: str
    program_fingerprint: str
    #: (table name, artifact key) in the dispatcher's table order.
    table_keys: tuple[tuple[str, CacheKey], ...]
    program: Program
    inherit: bool = False
    inherit_token: str | None = None


@dataclass(frozen=True)
class ShardTask:
    """One unit-range collection task of one query.

    ``trace``/``parent`` carry the dispatcher's trace context across the
    process boundary: everything the worker records while running this task
    (phase sub-spans, engine grounding) attaches under the originating
    ``query.collect`` span — see ``docs/observability.md``.
    """

    query: CausalQuery
    start: int
    stop: int
    n_units: int
    result_key: CacheKey  #: key of the output ``unit_inputs`` artifact
    trace: str | None = None
    parent: str | None = None


@dataclass(frozen=True)
class FinishTask:
    """The per-query tail: merge shard partials, materialize, estimate.

    Runs in a worker too (the merge and the Python half of materialization
    are GIL-bound, so finishing queries in the pool lets the tail of one
    query overlap the collection of the next); only the small
    :class:`QueryAnswer` crosses back to the dispatcher.
    """

    query: CausalQuery
    part_keys: tuple[CacheKey, ...]  #: unit_inputs keys, shard order
    table_key: CacheKey | None  #: cache key for the finished unit table
    collect_seconds: float  #: summed shard-collection work of this query
    estimator: str
    embedding: str
    bootstrap: int
    seed: int
    trace: str | None = None  #: originating trace id (cross-process stitch)
    parent: str | None = None  #: originating ``query.finish`` span id


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
_WORKER_SPEC: WorkerSpec | None = None
_WORKER_ENGINE: "CaRLEngine | None" = None
_WORKER_CACHE: ArtifactCache | None = None

#: Dispatcher engines visible to workers through fork inheritance, keyed by
#: inherit token (always empty in a spawned worker).  A forked worker reads
#: the grounded graph copy-on-write — the cheapest possible
#: "deserialization" — while spawned workers take the portable
#: artifact-bootstrap path below.  A token-keyed registry (instead of one
#: module global swapped around each fork) means concurrent sessions can
#: fork workers simultaneously without a global spawn lock: a child forked
#: at any moment sees every registered engine and picks its own by the
#: token in its :class:`WorkerSpec`.
_INHERITABLE_ENGINES: dict[str, "CaRLEngine"] = {}
_INHERIT_LOCK = threading.Lock()
_next_inherit_token = 0


def register_inheritable_engine(engine: "CaRLEngine") -> str:
    """Make ``engine`` fork-inheritable; returns the registry token.

    The caller keeps the token registered for as long as it may fork workers
    (a scheduler's whole lifetime, since it respawns replacement workers at
    any point) and must unregister it on teardown.
    """
    global _next_inherit_token
    with _INHERIT_LOCK:
        _next_inherit_token += 1
        token = f"e{_next_inherit_token}"
        _INHERITABLE_ENGINES[token] = engine
    return token


def unregister_inheritable_engine(token: str | None) -> None:
    """Drop a registry slot (no-op for None or an unknown token)."""
    if token is None:
        return
    with _INHERIT_LOCK:
        _INHERITABLE_ENGINES.pop(token, None)


def _worker_init(spec: WorkerSpec, worker_id: int) -> None:
    """Worker bootstrap: stash the spec and take this worker's telemetry
    role; the engine is resolved lazily on the first task so construction
    failures surface as task errors, not as a dead worker."""
    global _WORKER_SPEC, _WORKER_ENGINE, _WORKER_CACHE
    _WORKER_SPEC = spec
    _WORKER_ENGINE = None
    _WORKER_CACHE = None
    # Telemetry: this process records as a worker from here on — generated
    # trace/span ids get a w<id>. prefix so shipped batches merge into the
    # dispatcher's registry without remapping.
    set_role("worker", worker_id)


def _worker_cache() -> ArtifactCache:
    """The session's shared artifact cache, as seen from this worker."""
    global _WORKER_CACHE
    if _WORKER_CACHE is None:
        spec = _WORKER_SPEC
        if spec is None:  # pragma: no cover - initializer always runs first
            raise QueryError("shard worker started without a WorkerSpec")
        _WORKER_CACHE = ArtifactCache(spec.cache_root)
    return _WORKER_CACHE


def _worker_engine() -> "CaRLEngine":
    """The per-process engine: fork-inherited when possible, else rebuilt
    from the published artifacts (memory-mapped, never unpickled)."""
    global _WORKER_ENGINE
    if _WORKER_ENGINE is not None:
        return _WORKER_ENGINE
    spec = _WORKER_SPEC
    if spec is None:  # pragma: no cover - initializer always runs first
        raise QueryError("shard worker started without a WorkerSpec")
    if spec.inherit:
        inherited = _INHERITABLE_ENGINES.get(spec.inherit_token or "")
        if inherited is None:  # pragma: no cover - fork guarantees it
            raise QueryError(
                "shard worker expected a fork-inherited engine but none is "
                f"registered under token {spec.inherit_token!r}"
            )
        _WORKER_ENGINE = inherited
        return _WORKER_ENGINE
    from repro.carl.engine import CaRLEngine

    cache = _worker_cache()
    database = Database(name="sharded")
    for table_name, table_key in spec.table_keys:
        payload = cache.load(table_key)
        if payload is None:
            raise QueryError(
                f"shard worker could not load the published table artifact for "
                f"{table_name!r} from {spec.cache_root!r}"
            )
        try:
            database.add_table(load_columnar_table(payload))
        except SerializationError as error:
            raise QueryError(
                f"shard worker failed to decode table {table_name!r}: {error}"
            ) from error
    rebuilt = database_fingerprint(database)
    if rebuilt != spec.database_fingerprint:
        raise QueryError(
            "shard worker rebuilt a database whose fingerprint "
            f"{rebuilt[:16]} differs from the dispatcher's "
            f"{spec.database_fingerprint[:16]}; the published table artifacts "
            "did not round-trip exactly"
        )
    _WORKER_ENGINE = CaRLEngine(database, spec.program, cache=cache)
    return _WORKER_ENGINE


def _run_shard_task(task: ShardTask) -> tuple[CacheKey, float]:
    """Worker entry point: collect one unit-range shard, store it, return the
    result artifact's key and the seconds of collection work performed."""
    started = time.perf_counter()
    registry = get_registry()
    with trace_context(task.trace, task.parent):
        engine = _worker_engine()
        with registry.span("worker.collect", start=task.start, stop=task.stop):
            inputs = engine.collect_shard_inputs(
                task.query, task.start, task.stop, expected_units=task.n_units
            )
        with registry.span("worker.store", kind="unit_inputs"):
            stored = _worker_cache().store(
                task.result_key,
                unit_inputs_payload(inputs, span=(task.start, task.stop, task.n_units)),
            )
    if stored is None:
        # Degraded store (ENOSPC): the partial cannot reach the finish task
        # through the artifact transport.  Raise the dedicated error so the
        # scheduler answers this shard's queries serially in-process instead
        # of burning retries on writes that cannot succeed.
        raise CacheDegradedError(
            f"artifact store is degraded (out of space); shard partial "
            f"[{task.start}, {task.stop}) was not persisted"
        )
    return task.result_key, time.perf_counter() - started


def _run_finish_task(task: FinishTask) -> QueryAnswer:
    """Worker entry point: assemble one query's answer from its shard partials."""
    with trace_context(task.trace, task.parent):
        return _finish_task_body(task)


def _finish_task_body(task: FinishTask) -> QueryAnswer:
    engine = _worker_engine()
    cache = _worker_cache()
    registry = get_registry()
    started = time.perf_counter()
    with registry.span("worker.merge"):
        parts = []
        for part_key in task.part_keys:
            payload = cache.load(part_key)
            if payload is None:
                if cache.degraded:
                    raise CacheDegradedError(
                        f"artifact store is degraded (out of space); shard "
                        f"partials for {task.query!s} are unavailable"
                    )
                raise QueryError(
                    f"shard partial for {task.query!s} is missing or unreadable in the "
                    "shared cache"
                )
            parts.append(load_unit_inputs(payload))
        inputs = merge_unit_table_inputs(parts)

    with registry.span("worker.materialize"):
        unit_table = engine._materialize(task.query, inputs, task.embedding)  # noqa: SLF001
        if task.table_key is not None:
            cache.store(task.table_key, unit_table_payload(unit_table))
    # Per-answer attribution: the unit-table time of a sharded answer is the
    # *summed* collection work of its shards (which ran in parallel, so this
    # can exceed the batch's wall time) plus the merge/materialize tail.
    unit_table_seconds = task.collect_seconds + (time.perf_counter() - started)

    started = time.perf_counter()
    with registry.span("worker.estimate"):
        result = engine._estimate_result(  # noqa: SLF001
            task.query, unit_table, task.estimator, bootstrap=task.bootstrap, seed=task.seed
        )
    estimation_seconds = time.perf_counter() - started
    return QueryAnswer(
        query=task.query,
        result=result,
        unit_table_summary=unit_table.summary(),
        unit_table_seconds=unit_table_seconds,
        estimation_seconds=estimation_seconds,
        # Shared grounding is batch prework, attributed to no single answer —
        # exactly like the thread executor's up-front grounding.
        grounding_seconds=0.0,
    )


def _publish_engine_state(
    engine: "CaRLEngine",
    cache: ArtifactCache,
    inherit: bool,
    pinned: list[CacheKey],
    inherit_token: str | None = None,
) -> WorkerSpec:
    """Ground once and (unless workers fork-inherit) publish the engine's
    shared state as artifacts, pinned for the session's lifetime.

    Every key pinned on ``cache`` is appended to ``pinned`` so the caller
    can release exactly its own pins on exit.
    """
    with engine._state_lock:  # noqa: SLF001 - dispatcher-side engine internals
        # Ground (or cache-load) once, up front.
        engine._current_grounding()  # noqa: SLF001
        # The artifact holds the program as written; a worker splices the
        # aggregate rules its own queries register, as the dispatcher did.
        program = engine._program_grounding  # noqa: SLF001
        assert program is not None  # set by _current_grounding
        db_fp = database_fingerprint(engine.database)
        program_fp = engine._program_fingerprint  # noqa: SLF001
        table_keys: list[tuple[str, CacheKey]] = []
        if not inherit:
            grounding_key = CacheKey(database=db_fp, program=program_fp, kind="grounding")
            if not cache.contains(grounding_key):
                cache.store(grounding_key, grounding_payload(program.graph, program.values))
            else:
                _touch(cache.path_for(grounding_key))
            cache.pin(grounding_key)
            pinned.append(grounding_key)
            for table in engine.database.tables:
                key = CacheKey(
                    database=db_fp,
                    program=program_fp,
                    kind="table",
                    detail=hashlib.sha256(
                        table.name.encode("utf-8", "backslashreplace")
                    ).hexdigest(),
                )
                if not cache.contains(key):
                    cache.store(key, columnar_table_payload(table))
                else:
                    _touch(cache.path_for(key))
                cache.pin(key)
                pinned.append(key)
                table_keys.append((table.name, key))
    return WorkerSpec(
        cache_root=str(cache.root),
        database_fingerprint=db_fp,
        program_fingerprint=program_fp,
        table_keys=tuple(table_keys),
        program=engine.program,
        inherit=inherit,
        inherit_token=inherit_token,
    )


def _plan_query(
    engine: "CaRLEngine",
    cache: ArtifactCache,
    query: CausalQuery,
    embedding: str,
) -> tuple["QueryPlan", int | None]:
    """The engine's plan of one query and its unit count, which sizes its
    shard tasks; no count (and no grounding) when the unit table is cached."""
    plan = engine._plan(query, embedding)  # noqa: SLF001
    if plan.table_key is not None and cache.contains(plan.table_key):
        return plan, None
    _, _, units, _ = engine._units(plan)  # noqa: SLF001
    return plan, len(units)


def shard_ranges(n_units: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous unit ranges ``[(start, stop), ...]`` covering ``[0, n_units)``.

    Ranges are in unit order and balanced to within one unit; when
    ``shards`` exceeds ``n_units`` the trailing ranges are empty (kept, so a
    shard's position in the list identifies it regardless of the data size).
    """
    if shards < 1:
        raise QueryError(f"shards must be a positive integer, got {shards!r}")
    base, extra = divmod(max(n_units, 0), shards)
    ranges: list[tuple[int, int]] = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def _touch(path) -> None:
    """Refresh an artifact's mtime so a reused published artifact is the
    newest file under the root — in-process pins do not protect against an
    eviction run from *another* process, but oldest-first eviction order
    does, as long as a live session's artifacts are recent."""
    try:
        os.utime(path, None)
    except OSError:
        pass  # best effort: a vanished or read-only file changes nothing


def shard_partial_key(
    database_fp: str,
    program_fp: str,
    signature: str,
    start: int,
    stop: int,
    n_units: int,
) -> CacheKey:
    """The deterministic cache key of one shard partial.

    ``(grounding fingerprint, collection signature, unit range)`` fully
    determines the collected :class:`~repro.carl.unit_table.UnitTableInputs`
    — the unit list is a pure function of (database, program, condition) and
    collection walks only the grounding — so keying partials this way makes
    them *reusable*: any later session over the same database re-derives
    the same key and skips the collection.  ``n_units`` is part of the key as a
    belt-and-braces guard: ranges only align between runs that saw the same
    unit count.
    """
    detail = hashlib.sha256(
        f"{signature}:{start}:{stop}:{n_units}".encode()
    ).hexdigest()
    return CacheKey(
        database=database_fp, program=program_fp, kind="unit_inputs", detail=detail
    )
