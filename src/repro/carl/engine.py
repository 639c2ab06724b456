"""The CaRL query-answering engine.

Ties the whole pipeline of Section 5 together:

1. parse the CaRL program (schema + rules) and bind it to a database;
2. ground the rules into the grounded relational causal graph;
3. for a causal query, unify treated and response units (aggregating the
   response along a relational path when they differ);
4. detect covariates (Theorem 5.2), embed variable-size vectors, and build
   the unit table (Algorithm 1);
5. estimate the requested effect (ATE, aggregated response, or the
   isolated / relational / overall effect triple) with a standard
   single-table estimator, alongside the naive associational quantities.
"""

from __future__ import annotations

import itertools
import operator
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np

from repro.cache.fingerprint import (
    collect_fingerprint,
    database_fingerprint,
    model_fingerprint,
    query_fingerprint,
)
from repro.cache.serialization import (
    SerializationError,
    grounding_payload,
    load_grounding,
    load_unit_table,
    unit_table_payload,
)
from repro.cache.store import ArtifactCache, CacheKey
from repro.carl.ast import CausalQuery, PeerCondition, Program
from repro.carl.batch import BatchScratch
from repro.carl.causal_graph import GroundedCausalGraph, NodeValues, grounded_attributes
from repro.carl.errors import CaRLError, QueryError
from repro.carl.grounding import Grounder, Grounding
from repro.carl.model import RelationalCausalModel
from repro.carl.parser import parse_program, parse_query
from repro.carl.peers import build_unifying_aggregate_rule, compute_peers
from repro.carl.queries import ATEResult, EffectsResult, QueryAnswer
from repro.carl.schema import RelationalCausalSchema
from repro.carl.shard import DEFAULT_HANG_TIMEOUT
from repro.carl.unit_table import (
    UnitTable,
    UnitTableInputs,
    collect_unit_table_inputs,
    materialize_unit_table,
)
from repro.db.aggregates import AGGREGATES
from repro.db.database import Database
from repro.inference.bootstrap import bootstrap_statistic
from repro.observability.telemetry import get_registry
from repro.inference.correlation import naive_difference, pearson_correlation
from repro.inference.estimators import estimate_ate
from repro.inference.outcome import OutcomeModel


@dataclass(frozen=True)
class QueryPlan:
    """A causal query resolved against the engine's model, before any
    grounding (:meth:`CaRLEngine._plan`).  The serial build, the thread
    scratch, the shard dispatcher and the shard workers all read a query
    through its plan."""

    query: CausalQuery
    treatment: str
    #: The query's response, or the unifying aggregate that carries it onto
    #: the treated units (Section 4.3).
    response: str
    #: WHERE-clause variables over the treated entity (restricting the units)
    #: and over the base response's entity (restricting its aggregation).
    unit_variable: str | None
    response_variable: str | None
    table_key: CacheKey | None  #: unit-table artifact key (None when uncached)
    #: Collection fingerprint (:func:`collect_fingerprint`), equal for every
    #: query that collects the same inputs (each step of a threshold sweep).
    fingerprint: str


class CaRLEngine:
    """End-to-end CaRL engine over a database and a CaRL program.

    Query answering (:meth:`answer`, :meth:`answer_all`, :meth:`unit_table`,
    :meth:`diagnostics`, :meth:`conditional_effects`) is thread-safe: a query
    takes the current immutable :class:`~repro.carl.grounding.Grounding`
    snapshot under an internal lock and walks it outside the lock.  Mutating
    the underlying database concurrently with query answering is not
    supported (see ``docs/batching.md``).
    """

    def __init__(
        self,
        database: Database,
        program: str | Program,
        estimator: str = "regression",
        embedding: str = "mean",
        cache: ArtifactCache | str | Path | None = None,
    ) -> None:
        if isinstance(program, str):
            program = parse_program(program)
        self.program = program
        self.schema = RelationalCausalSchema.from_program(program)
        self.model = RelationalCausalModel(
            self.schema, rules=program.rules, aggregate_rules=program.aggregate_rules
        )
        self.database = database
        self.instance = self.schema.bind(database)
        self.grounder = Grounder(self.model, self.instance)
        self.default_estimator = estimator
        self.default_embedding = embedding
        #: Persistent artifact cache (a path enables one rooted there); the
        #: engine probes it before grounding and before unit-table builds.
        self.cache = ArtifactCache(cache) if isinstance(cache, (str, Path)) else cache
        #: Fingerprint of the program as written (schema declarations +
        #: declared rules).  Cache keys are built from this, never from the
        #: session's accumulated rule list, so identical work keys
        #: identically across sessions regardless of query order.
        self._program_fingerprint = model_fingerprint(program, self.model)
        #: Number of times this engine actually ground the program (cache
        #: hits do not count; staleness re-grounds do).
        self.grounding_runs = 0

        #: The published grounding snapshot (None until first use).  It may
        #: lag the model's aggregate rules: a rule registered by response
        #: resolution is ground into a new snapshot only when a query needs
        #: the graph, so a unit-table cache hit never touches it.
        self._grounding: Grounding | None = None  # guarded-by: _state_lock
        #: The snapshot of the program as written, which the published one
        #: extends with registered aggregate rules; it alone is stored as
        #: the program's grounding artifact.
        self._program_grounding: Grounding | None = None  # guarded-by: _state_lock
        #: Reentrant lock guarding snapshot publication, the model's rule
        #: lists and the bound instance's lazy indexes.  Graph walks read an
        #: immutable snapshot and run outside it, as do the numpy-dominated
        #: phases (embedding, binarization, estimation, artifact I/O).
        self._state_lock = threading.RLock()

    # ------------------------------------------------------------------
    # grounding (lazy, cached)
    # ------------------------------------------------------------------
    @property
    def graph(self) -> GroundedCausalGraph:
        """The grounded relational causal graph ``G(Phi_Delta)``.

        Built lazily; loaded from the artifact cache when one is configured
        and holds a grounding for the current (database fingerprint, program
        fingerprint).  If the database has mutated since the last grounding —
        detected via its version token — the program is re-ground
        automatically.  The graph covers every aggregate rule registered so
        far, and a graph once returned never changes: registering another
        unifying aggregate publishes a new graph instead of growing this one.
        """
        return self._current_grounding()[0].graph

    @property
    def values(self) -> NodeValues:
        """Observed + aggregated values of every grounded attribute node
        (the current snapshot's id-indexed column, read as a mapping;
        read-only, like :attr:`graph`)."""
        return self._current_grounding()[0].values

    def invalidate(self) -> None:
        """Drop the grounding snapshot and rebind to the database.

        Called automatically when the database's version token moves (every
        insert and table addition bumps it), so a mutated database can never
        silently answer queries from a stale grounding.  Rebinding also
        rebuilds the bound instance, whose per-attribute value indexes and
        unit lists are caches over the same data.  Queries already walking
        the old snapshot finish on it.
        """
        with self._state_lock:
            self._grounding = None
            self._program_grounding = None
            self.instance = self.schema.bind(self.database)
            # Rebind rather than rebuild: the grounder keeps grounding the
            # program as written, not the rules registered since.
            self.grounder.instance = self.instance

    def _current_grounding(self) -> tuple[Grounding, float]:
        """The current snapshot (see :attr:`graph`) and the seconds this call
        spent producing it.

        A snapshot of an older database version token is dropped and the
        program re-ground (or cache-loaded), and aggregate rules registered
        after the snapshot was taken are spliced into a new one.  The
        seconds are 0.0 unless this call grounded, loaded or extended:
        concurrent callers serialize on the state lock, so only the thread
        that did the work reports it.
        """
        with self._state_lock:
            started = time.perf_counter()
            grounding = self._grounding
            if grounding is not None and grounding.db_token != self.database.version_token():
                self.invalidate()
                grounding = None
            if grounding is None:
                grounding = self._program_grounding = self._load_or_ground()
            if grounding.aggregate_rules < len(self.model.aggregate_rules):
                grounding = self.grounder.extend(grounding)
            if grounding is self._grounding:
                return grounding, 0.0
            self._grounding = grounding
            return grounding, time.perf_counter() - started

    def _load_or_ground(self) -> Grounding:  # guarded-by: _state_lock
        """A fresh snapshot of the program as written over the current
        database: cache load, else ground (and store).  Aggregate rules
        registered since are the caller's to splice in, so the artifact is
        the same whatever the session answered first."""
        db_token = self.database.version_token()
        ground_span = get_registry().start_span("engine.ground")
        key = self._grounding_key()
        loaded = None
        if key is not None:
            payload = self.cache.load(key)
            if payload is not None:
                try:
                    loaded = load_grounding(payload)
                except SerializationError:
                    pass
        if loaded is not None:
            graph, values = loaded
        else:
            graph = self.grounder.ground()
            values = self.grounder.grounded_attribute_values(graph)
            self.grounding_runs += 1
            if key is not None:
                self.cache.store(key, grounding_payload(graph, values))
        get_registry().finish_span(ground_span, cached=loaded is not None)
        return Grounding(graph, values, db_token, self.grounder.aggregate_rules)

    # ------------------------------------------------------------------
    # artifact-cache plumbing
    # ------------------------------------------------------------------
    def _grounding_key(self) -> CacheKey | None:
        """Key of the grounding artifact: (database, program-as-written).

        The artifact stored under this key is the grounding of exactly the
        program as written, whatever the session answered first: unifying
        aggregate rules a session registers are spliced on top of it by
        :meth:`Grounder.extend` and never stored under it.
        """
        if self.cache is None:
            return None
        return CacheKey(
            database=database_fingerprint(self.database),
            program=self._program_fingerprint,
            kind="grounding",
        )

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Per-kind hit/miss/store counters of the configured cache (empty
        mapping when the engine runs uncached)."""
        return self.cache.stats.summary() if self.cache is not None else {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def answer(
        self,
        query: str | CausalQuery,
        estimator: str | None = None,
        embedding: str | None = None,
        bootstrap: int = 0,
        seed: int = 0,
        _scratch: BatchScratch | None = None,
    ) -> QueryAnswer:
        """Answer a causal query; returns effects, naive contrasts and timings.

        The reported ``grounding_seconds`` is the grounding work this call
        actually performed: 0.0 when the grounded graph already existed (or
        the answer came straight from a cached unit table), else the time
        this call spent grounding, loading the grounding from the cache, or
        splicing in a unifying aggregate it registered.

        Safe to call concurrently from multiple threads; ``_scratch`` is the
        batch memo a thread-mode session's scheduler passes to every answer.
        """
        if isinstance(query, str):
            query = parse_query(query)
        estimator = estimator or self.default_estimator
        embedding = embedding or self.default_embedding

        started = time.perf_counter()
        unit_table, grounding_seconds = self._build_unit_table(
            query, embedding, scratch=_scratch
        )
        # Grounding work that ran inside the build is reported apart, so the
        # timings stay disjoint.
        unit_table_seconds = max(0.0, time.perf_counter() - started - grounding_seconds)

        started = time.perf_counter()
        result = self._estimate_result(query, unit_table, estimator, bootstrap, seed)
        estimation_seconds = time.perf_counter() - started

        return QueryAnswer(
            query=query,
            result=result,
            unit_table_summary=unit_table.summary(),
            unit_table_seconds=unit_table_seconds,
            estimation_seconds=estimation_seconds,
            grounding_seconds=grounding_seconds,
        )

    def unit_table(self, query: str | CausalQuery, embedding: str | None = None) -> UnitTable:
        """Build (only) the unit table for a query — useful for inspection and
        for the Table 2 runtime benchmark."""
        if isinstance(query, str):
            query = parse_query(query)
        table, _ = self._build_unit_table(query, embedding or self.default_embedding)
        return table

    def answer_all(
        self,
        queries: dict[str, str | CausalQuery] | list[str | CausalQuery],
        estimator: str | None = None,
        embedding: str | None = None,
        bootstrap: int = 0,
        seed: int = 0,
        jobs: int | None = 1,
        executor: str = "thread",
        shards: int | None = None,
    ) -> dict[str, QueryAnswer]:
        """Answer several queries, returning answers keyed by name (or index).

        Forwards every option :meth:`answer` accepts, so a batch is always
        answer-for-answer identical to issuing the same queries serially with
        the same options.

        ``jobs=1`` on the thread executor (the default, with no ``shards``)
        is the plain serial loop — the reference every other mode is tested
        against — and stops at the first failing query.  Every other setting
        drains :meth:`answer_iter`, so a batch runs on one
        :class:`~repro.service.session.QuerySession` like every other
        multi-query path:

        * ``executor="thread"`` with ``jobs>1`` (or ``None`` for one job per
          CPU) answers on the session scheduler's in-process pool, which
          starts no worker process.  The program is grounded at most once —
          up front when the engine is uncached, so no answer is charged for
          it; lazily (or not at all, when every query hits a cached unit
          table) with an artifact cache — and the scheduler's scratch shares
          the graph-walk intermediates (relational peers, covariate
          collection) between queries with the same collection fingerprint,
          which beats the serial loop even on one core.
        * ``executor="process"`` runs the shard scheduler
          (``docs/sharding.md``): worker processes share the grounded engine
          (fork-inherited, or memory-mapped from artifacts published through
          the cache — a private temporary one when the engine is uncached),
          each query's graph-walk/collection phase is split into ``shards``
          contiguous unit-range shards (default: one per job) whose partial
          collections merge back exactly, and a worker that raises or dies
          has its task retried on another worker (``docs/service.md``).

        Answers are bit-identical to the serial loop in every mode; only the
        per-answer timing fields reflect the shared work.  Answers come back
        in input order once every query has resolved.  If any query failed,
        the failure of the first failed query in input order is raised: its
        original CaRL error (e.g. :class:`~repro.carl.errors.EstimationError`)
        when there is one, else the session's :class:`QueryError`.
        """
        if isinstance(queries, dict):
            items = list(queries.items())
        else:
            items = [(str(index), query) for index, query in enumerate(queries)]
        # Parse up front so a syntax error surfaces immediately (and once),
        # before any grounding or worker start.
        parsed = {
            name: parse_query(query) if isinstance(query, str) else query
            for name, query in items
        }
        options: dict[str, Any] = {
            "estimator": estimator,
            "embedding": embedding,
            "bootstrap": bootstrap,
            "seed": seed,
        }
        if executor == "thread" and jobs == 1 and shards is None:
            return {name: self.answer(query, **options) for name, query in parsed.items()}
        outcomes = dict(
            self.answer_iter(parsed, jobs=jobs, executor=executor, shards=shards, **options)
        )
        answers = {name: outcomes[name] for name in parsed}
        for outcome in answers.values():
            if isinstance(outcome, QueryError):
                cause = outcome.__cause__
                raise cause if isinstance(cause, CaRLError) else outcome
        return answers

    def answer_iter(
        self,
        queries: dict[str, str | CausalQuery] | list[str | CausalQuery],
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
    ):
        """Answer queries incrementally: yield each answer as it completes.

        The streaming counterpart of :meth:`answer_all`
        (``docs/service.md``): yields ``(key, QueryAnswer | QueryError)``
        pairs in *completion order* — ``key`` is the dict name or list
        position — so an analyst watching a long sweep sees the first
        answer after roughly ``1/len(queries)`` of the batch's wall time
        instead of at the end.  A failing query yields a
        :class:`QueryError` for its key alone; every other query streams
        on.  Each completed answer is bit-identical to the serial
        :meth:`answer` of the same query with the same options.  An
        uncached engine is grounded once before the first query starts, so
        no answer is charged for the shared grounding.

        ``executor="process"`` runs the shard scheduler: worker faults are
        retried on other workers up to ``retries`` times per task, and
        shard partials are reused from the artifact cache (a warm re-sweep
        performs zero collection work).  ``timeout`` bounds each query's
        wall time; an expired query yields a timeout ``QueryError``.
        ``hang_timeout`` bounds one task's time on one worker: a worker
        over it is killed and replaced, and the task requeues against the
        retry budget (``None`` disables hang detection).  For full control
        (incremental submission, cancellation, per-query options) use
        :meth:`open_session` directly.
        """
        if isinstance(queries, dict):
            items = list(queries.items())
        else:
            items = list(enumerate(queries))
        # Parse up front so a syntax error raises immediately (and once),
        # before any worker spawns — the answer_all contract.
        parsed = [
            (key, parse_query(query) if isinstance(query, str) else query)
            for key, query in items
        ]
        with self.open_session(
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
            if executor == "thread" and self.cache is None and parsed:
                # The process scheduler grounds while publishing engine
                # state; threads ground here, up front.  With a cache,
                # grounding stays lazy: a sweep of cached unit tables never
                # touches the graph.
                self.graph  # noqa: B018
            keys = {
                session.submit(query, timeout=timeout): key for key, query in parsed
            }
            for index, outcome in session.as_completed():
                yield keys[index], outcome

    def open_session(
        self,
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
    ):
        """Open a streaming :class:`~repro.service.session.QuerySession`.

        The futures-style surface of the query service: ``submit()`` /
        ``as_completed()`` / ``result()`` / ``cancel()`` with per-query
        timeouts and options.  ``max_pending`` bounds the undelivered
        backlog (``submit`` raises
        :class:`~repro.service.session.QueueFullError` beyond it, after
        blocking up to ``submit_timeout`` seconds when set).  Use as a
        context manager; see ``docs/service.md``.
        """
        from repro.service.session import QuerySession

        return QuerySession(
            self,
            jobs=jobs,
            executor=executor,
            shards=shards,
            retries=retries,
            estimator=estimator,
            embedding=embedding,
            bootstrap=bootstrap,
            seed=seed,
            max_pending=max_pending,
            submit_timeout=submit_timeout,
            hang_timeout=hang_timeout,
        )

    def diagnostics(self, query: str | CausalQuery, embedding: str | None = None):
        """Covariate-balance and overlap diagnostics for a query's unit table.

        Returns a :class:`repro.inference.diagnostics.BalanceReport` over the
        adjustment features (embedded covariates + peer-treatment embedding).
        """
        from repro.inference.diagnostics import covariate_balance

        unit_table = self.unit_table(query, embedding)
        return covariate_balance(
            unit_table.treatment,
            unit_table.adjustment_features(),
            covariate_names=[*unit_table.peer_columns, *unit_table.covariate_columns],
        )

    def conditional_effects(
        self, query: str | CausalQuery, embedding: str | None = None
    ) -> np.ndarray:
        """Per-unit conditional treatment effects (CATE) under the outcome model.

        Used by the Figure 8 / Figure 10 benchmarks: for every unit, the
        model-predicted contrast between own-treatment 1 and 0 holding the
        unit's peers and covariates at their observed values.
        """
        unit_table = self.unit_table(query, embedding)
        model = OutcomeModel().fit(
            unit_table.outcome,
            unit_table.treatment,
            unit_table.peer_treatment,
            unit_table.covariates,
        )
        treated = model.predict(
            np.ones(len(unit_table)), unit_table.peer_treatment, unit_table.covariates
        )
        control = model.predict(
            np.zeros(len(unit_table)), unit_table.peer_treatment, unit_table.covariates
        )
        return treated - control

    # ------------------------------------------------------------------
    # unit-table construction for a query
    # ------------------------------------------------------------------
    def _build_unit_table(
        self,
        query: CausalQuery,
        embedding: str,
        scratch: BatchScratch | None = None,
    ) -> tuple[UnitTable, float]:
        """A query's unit table and the seconds spent grounding for it."""
        plan = self._plan(query, embedding)

        # The probe itself is lock-free: artifact reads are atomic snapshots.
        if plan.table_key is not None:
            payload = self.cache.load(plan.table_key)
            if payload is not None:
                try:
                    return load_unit_table(payload), 0.0
                except SerializationError:
                    pass

        grounding, grounding_seconds, units, admitted = self._units(plan)
        # The graph walks run outside the state lock.  A batch shares them
        # between queries with the same collection fingerprint.
        collect = partial(self._collect, plan, 0, len(units), grounding, units, admitted)
        if scratch is not None:
            inputs = scratch.get_or_build(grounding.db_token, plan.fingerprint, collect)
        else:
            inputs = collect()
        table = self._materialize(query, inputs, embedding)
        if plan.table_key is not None:
            self.cache.store(plan.table_key, unit_table_payload(table))
        return table, grounding_seconds

    def collect_shard_inputs(
        self,
        query: str | CausalQuery,
        start: int,
        stop: int,
        expected_units: int | None = None,
    ) -> UnitTableInputs:
        """One contiguous unit-range shard ``[start, stop)`` of a query's
        collection phase (``docs/sharding.md``).

        This is the task a process-mode shard worker executes: the unit list
        is derived deterministically from the (shared) grounding and
        database, sliced by position, and only the slice is walked — peer
        *membership* still spans the full unit list, so a unit's peers are
        exactly what the unsharded collection would find.  Concatenating the
        collections of consecutive ranges (in order) through
        :func:`~repro.carl.unit_table.merge_unit_table_inputs` reproduces
        the unsharded collection identically.

        ``expected_units`` guards the dispatcher/worker contract: the worker
        recomputes the unit list from shared state rather than shipping it
        across the process boundary, so the length is verified against what
        the dispatcher saw.
        """
        if isinstance(query, str):
            query = parse_query(query)
        plan = self._plan(query, self.default_embedding)
        grounding, _, units, admitted = self._units(plan)
        if expected_units is not None and len(units) != expected_units:
            raise QueryError(
                f"shard worker derived {len(units)} units for {query!s} but the "
                f"dispatcher saw {expected_units}; the shared grounding and "
                "database state are out of sync"
            )
        return self._collect(plan, start, stop, grounding, units, admitted, allow_empty=True)

    # ------------------------------------------------------------------
    # the query plan: resolve, restrict, collect, materialize
    # ------------------------------------------------------------------
    def _plan(self, query: CausalQuery, embedding: str) -> QueryPlan:
        """Resolve ``query`` against the model, without grounding.

        Runs under the state lock: response resolution may register a
        unifying aggregate rule on the shared model.  A bad treatment,
        response or WHERE clause raises here, before any cache probe or
        grounding.  The unit-table key covers the resolved response and its
        definition, so differently-unified requests never alias, while
        identical requests key identically whatever the session answered
        before.
        """
        treatment = query.treatment.name
        if not self.schema.has_attribute(treatment):
            raise QueryError(f"unknown treatment attribute {treatment!r}")
        if not self.schema.is_observed(treatment):
            raise QueryError(
                f"treatment attribute {treatment!r} is latent; it cannot be used as a treatment"
            )
        with self._state_lock:
            response = self._resolve_response(query, self.schema.subject_of(treatment))
            derived = self.model.derived_attributes.get(response)
            restriction = self._restriction_variables(query, treatment, response)
            table_key = None
            if self.cache is not None:
                resolution = [response] if derived is None else [response, derived]
                table_key = CacheKey(
                    database=database_fingerprint(self.database),
                    program=self._program_fingerprint,
                    kind="unit_table",
                    detail=query_fingerprint(query, embedding, resolution),
                )
        fingerprint = collect_fingerprint(treatment, response, derived, query.condition)
        return QueryPlan(query, treatment, response, *restriction, table_key, fingerprint)

    def _units(
        self, plan: QueryPlan
    ) -> tuple[Grounding, float, list[tuple[Any, ...]], np.ndarray | None]:
        """The grounding snapshot a planned query walks, the seconds spent
        producing it (:meth:`_current_grounding`), the restricted unit list,
        and the node mask that restricts its response.

        Runs under the state lock (the bound instance's indexes are lazy).
        Deterministic in (database, program, query), which is what lets
        shard workers re-derive the same unit list positionally.  The mask
        is None unless the WHERE clause restricts the base response (e.g.
        only single-blind submissions count towards an author's average
        score): then it marks the base-response nodes whose key the clause
        admits, and collection aggregates each unit's head over those
        parents only.
        """
        allowed: set[Any] | None = None
        with self._state_lock:
            grounding, seconds = self._current_grounding()
            units = list(self.instance.units(plan.treatment))
            if plan.unit_variable is not None or plan.response_variable is not None:
                bindings = self.grounder.condition_bindings(plan.query.condition)
                if plan.unit_variable is not None:
                    # The treated subject is an entity: one-key units.
                    allowed_keys = set(bindings.column(plan.unit_variable))
                    units = list(
                        itertools.compress(
                            units, map(allowed_keys.__contains__, map(operator.itemgetter(0), units))
                        )
                    )
                if plan.response_variable is not None:
                    allowed = set(bindings.column(plan.response_variable))
                    base = self.model.derived_attributes[plan.response].base
        if not units:
            raise QueryError("the query condition excludes every unit")
        if allowed is None:
            return grounding, seconds, units, None
        # The base response's subject is an entity: one-key parents.
        graph = grounding.graph
        ids = graph.node_ids(grounded_attributes(base, zip(allowed)))
        admitted = np.zeros(len(graph), dtype=bool)
        admitted[ids[ids >= 0]] = True
        return grounding, seconds, units, admitted

    def _collect(
        self,
        plan: QueryPlan,
        start: int,
        stop: int,
        grounding: Grounding,
        units: list[tuple[Any, ...]],
        admitted: np.ndarray | None,
        allow_empty: bool = False,
    ) -> UnitTableInputs:
        """Peers and Theorem 5.2 adjustment sets of ``units[start:stop]``,
        with peers drawn from all of ``units`` (see :meth:`_units`).  Reads
        only the snapshot, so callers run it outside the state lock."""
        graph = grounding.graph
        peers = compute_peers(graph, plan.treatment, plan.response, units[start:stop], units)
        return collect_unit_table_inputs(
            graph,
            grounding.values,
            peers,
            self.model.is_observed,
            admitted=admitted,
            allow_empty=allow_empty,
        )

    @staticmethod
    def _materialize(query: CausalQuery, inputs: UnitTableInputs, embedding: str) -> UnitTable:
        """Embed collected inputs and binarize the treatment at the query's
        threshold; the caller stores the table (a shard worker through its
        own cache handle)."""
        binarize = None  # the builder's own vectorized default
        if query.treatment_threshold is not None:
            threshold = query.treatment_threshold
            binarize = lambda value: 1.0 if threshold.evaluate(value) else 0.0  # noqa: E731
        return materialize_unit_table(inputs, embedding=embedding, binarize=binarize)

    def _resolve_response(self, query: CausalQuery, treatment_subject: str) -> str:
        """Resolve (and if needed create) the response attribute over the treated units.

        Implements the unification of Section 4.3: when the response lives on
        a different predicate than the treatment, an aggregated response
        attribute is introduced along a relational path.
        """
        requested = query.response.name

        # Already-known attribute (declared or derived) on the treated units.
        if self.model.is_derived(requested):
            if self.model.subject_of(requested) == treatment_subject:
                return requested
            base = self.model.derived_attributes[requested].base
            aggregate = self.model.derived_attributes[requested].aggregate
            return self._ensure_unifying_aggregate(base, treatment_subject, aggregate)

        if self.schema.has_attribute(requested):
            if self.schema.subject_of(requested) == treatment_subject:
                return requested
            if not self.schema.is_observed(requested):
                raise QueryError(f"response attribute {requested!r} is latent")
            return self._ensure_unifying_aggregate(requested, treatment_subject, "AVG")

        # ``AGG_Base`` style response that is not declared: auto-derive it.
        prefix, _, base = requested.partition("_")
        if base and prefix.upper() in AGGREGATES and self.schema.has_attribute(base):
            return self._ensure_unifying_aggregate(base, treatment_subject, prefix.upper())

        raise QueryError(f"unknown response attribute {requested!r}")

    def _ensure_unifying_aggregate(  # guarded-by: _state_lock
        self, base_attribute: str, treatment_subject: str, aggregate: str
    ) -> str:
        """Register (once) the aggregate rule that unifies response and treated units.

        Only the model learns the rule here; it is ground into a new
        snapshot when a query next needs the graph, so a unit-table cache
        hit never touches it.
        """
        if not self.schema.is_observed(base_attribute):
            raise QueryError(f"response attribute {base_attribute!r} is latent")
        if self.schema.subject_of(base_attribute) == treatment_subject:
            return base_attribute

        desired = f"{aggregate}_{base_attribute}"
        existing = self.model.derived_attributes.get(desired)
        if existing is not None:
            if existing.subject == treatment_subject and existing.base == base_attribute:
                return desired
            desired = f"{aggregate}_{base_attribute}__{treatment_subject}"
            existing = self.model.derived_attributes.get(desired)
            if existing is not None:
                return desired

        rule = build_unifying_aggregate_rule(
            self.schema, base_attribute, treatment_subject, aggregate=aggregate
        )
        if rule.head.name != desired:
            rule = type(rule)(
                aggregate=rule.aggregate,
                head=type(rule.head)(name=desired, terms=rule.head.terms),
                body=rule.body,
                condition=rule.condition,
            )
        self.model.add_aggregate_rule(rule)
        return desired

    # ------------------------------------------------------------------
    # query conditions (unit and response restrictions)
    # ------------------------------------------------------------------
    def _restriction_variables(
        self, query: CausalQuery, treatment_attribute: str, response_attribute: str
    ) -> tuple[str | None, str | None]:
        """The WHERE-clause variables that restrict a query, found from the
        schema alone (so before any grounding): ``(variable over the treated
        entity, variable over the base response's entity)``.  The first
        restricts the units, the second the parents an aggregated response
        is computed from (None when the response lives on the treated
        entity).  A non-trivial clause with neither restricts nothing and
        raises :class:`QueryError`; an unknown predicate or attribute, or an
        atom of the wrong arity, raises :class:`SchemaBindingError`.
        """
        if query.condition.is_trivial:
            return None, None
        derived = self.model.derived_attributes.get(response_attribute)
        base = derived.base if derived is not None else response_attribute
        treatment_subject = self.schema.subject_of(treatment_attribute)
        response_subject = self.model.subject_of(base)
        entities = self.schema.variable_entities(query.condition)

        def variable_over(subject: str) -> str | None:
            return next((name for name, over in entities.items() if subject in over), None)

        unit_variable = variable_over(treatment_subject)
        response_variable = (
            variable_over(response_subject) if response_subject != treatment_subject else None
        )
        if unit_variable is None and response_variable is None:
            raise QueryError(
                f"WHERE {query.condition} restricts nothing: none of its variables ranges "
                f"over the treated entity {treatment_subject!r} or the response entity "
                f"{response_subject!r}"
            )
        return unit_variable, response_variable

    # ------------------------------------------------------------------
    # estimation
    # ------------------------------------------------------------------
    def _estimate_result(
        self,
        query: CausalQuery,
        unit_table: UnitTable,
        estimator: str,
        bootstrap: int = 0,
        seed: int = 0,
    ) -> ATEResult | EffectsResult:
        """Estimate a query's effect family from its (already built) unit table."""
        if query.is_peer_query:
            return self._estimate_effects(query.peer_condition, unit_table, estimator)
        return self._estimate_ate(unit_table, estimator, bootstrap=bootstrap, seed=seed)

    def _estimate_ate(
        self, unit_table: UnitTable, estimator: str, bootstrap: int = 0, seed: int = 0
    ) -> ATEResult:
        naive = naive_difference(unit_table.treatment, unit_table.outcome)
        correlation = pearson_correlation(unit_table.treatment, unit_table.outcome)

        # ``statistic(*columns)`` is the point estimate; the bootstrap
        # resamples rows of these same columns and recomputes it.
        if estimator == "regression":
            statistic: Callable[..., float] = _regression_ate
            columns = [
                unit_table.outcome,
                unit_table.treatment,
                unit_table.peer_treatment,
                unit_table.peer_counts,
                unit_table.covariates,
            ]
            ate = statistic(*columns)
            details: dict[str, Any] = {"method": "outcome model over own + peer treatment"}
        else:
            columns = [unit_table.outcome, unit_table.treatment, unit_table.adjustment_features()]
            estimate = estimate_ate(*columns, estimator=estimator)
            ate = estimate.ate
            details = dict(estimate.details)
            statistic = lambda *arrays: estimate_ate(*arrays, estimator=estimator).ate  # noqa: E731

        confidence_interval = None
        if bootstrap > 0:
            result = bootstrap_statistic(statistic, columns, n_bootstrap=bootstrap, seed=seed)
            confidence_interval = (result.lower, result.upper)
            details["bootstrap_se"] = result.standard_error

        treated_mask = unit_table.treatment > 0.5
        return ATEResult(
            ate=ate,
            naive_difference=naive["difference"],
            treated_mean=naive["treated_mean"],
            control_mean=naive["control_mean"],
            correlation=correlation,
            n_units=len(unit_table),
            n_treated=int(treated_mask.sum()),
            n_control=int((~treated_mask).sum()),
            estimator=estimator,
            confidence_interval=confidence_interval,
            details=details,
        )

    def _estimate_effects(
        self,
        condition: PeerCondition | None,
        unit_table: UnitTable,
        estimator: str,
    ) -> EffectsResult:
        """Isolated / relational / overall effects under the outcome model (Section 4.4.3)."""
        condition = condition or PeerCondition(kind="ALL")
        regression = "ridge" if estimator == "ridge" else "ols"
        model = OutcomeModel(regression=regression).fit(
            unit_table.outcome,
            unit_table.treatment,
            unit_table.peer_treatment,
            unit_table.covariates,
        )

        peer_counts = unit_table.peer_counts
        # One scalar call per distinct peer count, gathered back per unit.
        counts, per_unit = np.unique(peer_counts, return_inverse=True)
        treated_fraction = np.asarray(
            [condition.treated_fraction(int(count)) for count in counts], dtype=float
        )[per_unit]
        control_fraction = np.zeros(len(unit_table))

        mu_1_treatedpeers = model.predict_intervention(
            1.0, treated_fraction, unit_table.peer_treatment, peer_counts, unit_table.covariates
        )
        mu_0_treatedpeers = model.predict_intervention(
            0.0, treated_fraction, unit_table.peer_treatment, peer_counts, unit_table.covariates
        )
        mu_0_controlpeers = model.predict_intervention(
            0.0, control_fraction, unit_table.peer_treatment, peer_counts, unit_table.covariates
        )

        aie = float(np.mean(mu_1_treatedpeers - mu_0_treatedpeers))
        are = float(np.mean(mu_0_treatedpeers - mu_0_controlpeers))
        aoe = float(np.mean(mu_1_treatedpeers - mu_0_controlpeers))

        naive = naive_difference(unit_table.treatment, unit_table.outcome)
        correlation = pearson_correlation(unit_table.treatment, unit_table.outcome)
        return EffectsResult(
            aie=aie,
            are=are,
            aoe=aoe,
            peer_condition=condition,
            correlation=correlation,
            naive_difference=naive["difference"],
            n_units=len(unit_table),
            mean_peer_count=float(peer_counts.mean()) if len(unit_table) else 0.0,
            estimator=estimator,
            details={"coefficients": model.coefficients},
        )


def _regression_ate(
    outcome: np.ndarray,
    treatment: np.ndarray,
    peer_treatment: np.ndarray,
    peer_counts: np.ndarray,
    covariates: np.ndarray,
) -> float:
    """ATE as AOE(all treated ; none treated) under the outcome model (Eq. 23)."""
    model = OutcomeModel().fit(outcome, treatment, peer_treatment, covariates)
    all_treated = model.predict_intervention(1.0, 1.0, peer_treatment, peer_counts, covariates)
    none_treated = model.predict_intervention(0.0, 0.0, peer_treatment, peer_counts, covariates)
    return float(np.mean(all_treated - none_treated))
