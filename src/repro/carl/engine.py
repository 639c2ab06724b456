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

import threading
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

import numpy as np

from repro.cache.fingerprint import (
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
from repro.carl.ast import CausalQuery, PeerCondition, Program, Variable
from repro.carl.batch import BatchScratch
from repro.carl.causal_graph import GroundedAttribute, GroundedCausalGraph
from repro.carl.errors import CaRLError, QueryError
from repro.carl.grounding import Grounder
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
from repro.db.aggregates import AGGREGATES, aggregate as apply_aggregate
from repro.db.database import Database
from repro.inference.bootstrap import bootstrap_statistic
from repro.observability.telemetry import get_registry
from repro.inference.correlation import naive_difference, pearson_correlation
from repro.inference.estimators import estimate_ate
from repro.inference.outcome import OutcomeModel


class CaRLEngine:
    """End-to-end CaRL engine over a database and a CaRL program.

    Query answering (:meth:`answer`, :meth:`answer_all`, :meth:`unit_table`,
    :meth:`diagnostics`, :meth:`conditional_effects`) is thread-safe: shared
    mutable state is guarded by an internal lock, while the numpy-dominated
    phases run outside it.  Mutating the underlying database concurrently
    with query answering is not supported (see ``docs/batching.md``).
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

        self._graph: GroundedCausalGraph | None = None  # guarded-by: _state_lock
        self._values: dict[GroundedAttribute, Any] | None = None  # guarded-by: _state_lock
        self._db_token: tuple[Any, ...] | None = None  # guarded-by: _state_lock
        #: Unifying aggregate rules registered by response resolution whose
        #: groundings have not been spliced into the graph yet (deferred so a
        #: unit-table cache hit never has to touch the graph).
        self._pending_aggregates: list[Any] = []  # guarded-by: _state_lock
        #: Wall-clock seconds of the engine's most recent grounding (or cache
        #: load of one).  Per-answer attribution lives on
        #: :attr:`QueryAnswer.grounding_seconds` instead: an answer is only
        #: charged for grounding work its own call actually performed.
        self.grounding_seconds: float = 0.0
        self._grounding_epoch = 0
        #: Reentrant lock guarding every read or write of shared mutable
        #: state: the grounded graph and its values, the model's rule lists,
        #: pending aggregate splices, and the bound instance's lazy indexes.
        #: Graph walks hold it; numpy-dominated phases (embedding,
        #: binarization, estimation, artifact I/O) run outside it so
        #: concurrent ``answer`` calls overlap where the GIL allows.
        self._state_lock = threading.RLock()
        #: Per-thread accumulator of grounding seconds charged to the answer
        #: currently executing on that thread (see :meth:`answer`).
        self._grounding_charge = threading.local()

    # ------------------------------------------------------------------
    # grounding (lazy, cached)
    # ------------------------------------------------------------------
    @property
    def graph(self) -> GroundedCausalGraph:
        """The grounded relational causal graph ``G(Phi_Delta)``.

        Built lazily; loaded from the artifact cache when one is configured
        and holds a grounding for the current (database fingerprint, model
        fingerprint).  If the database has mutated since the last grounding —
        detected via its version token — the stale graph is dropped and the
        program is re-grounded automatically.

        Thread-safe: concurrent accessors serialize on the engine's state
        lock, so at most one thread grounds (and that thread alone is charged
        the grounding time); the others observe the finished graph.
        """
        with self._state_lock:
            if self._graph is not None and self.database.version_token() != self._db_token:
                self.invalidate()
            if self._graph is None:
                self._db_token = self.database.version_token()
                started = time.perf_counter()
                ground_span = get_registry().start_span("engine.ground")
                loaded = False
                key = self._grounding_key()
                if key is not None:
                    payload = self.cache.load(key)
                    if payload is not None:
                        try:
                            self._graph, self._values = load_grounding(payload)
                            loaded = True
                        except SerializationError:
                            loaded = False
                if not loaded:
                    self._graph = self.grounder.ground()
                    self._values = self.grounder.grounded_attribute_values(self._graph)
                    self.grounding_runs += 1
                    if key is not None:
                        self.cache.store(key, grounding_payload(self._graph, self._values))
                get_registry().finish_span(ground_span, cached=loaded)
                elapsed = time.perf_counter() - started
                self.grounding_seconds = elapsed
                self._grounding_epoch += 1
                self._charge_grounding(elapsed)
            return self._graph

    @property
    def values(self) -> dict[GroundedAttribute, Any]:
        """Observed + aggregated values of every grounded attribute node."""
        self.graph  # noqa: B018 - force grounding
        with self._state_lock:
            assert self._values is not None
            return self._values

    def invalidate(self) -> None:
        """Drop the cached grounded graph and rebind to the database.

        Called automatically when the database's version token moves (every
        insert and table addition bumps it), so a mutated database can never
        silently answer queries from a stale grounding.  Rebinding also
        rebuilds the bound instance, whose per-attribute value indexes and
        unit lists are caches over the same data.
        """
        with self._state_lock:
            self._graph = None
            self._values = None
            self._db_token = None
            self.instance = self.schema.bind(self.database)
            self.grounder = Grounder(self.model, self.instance)

    # ------------------------------------------------------------------
    # per-answer grounding attribution
    # ------------------------------------------------------------------
    def _charge_grounding(self, seconds: float) -> None:
        """Charge grounding seconds to the answer running on this thread."""
        charge = self._grounding_charge
        charge.seconds = getattr(charge, "seconds", 0.0) + seconds

    def _reset_grounding_charge(self) -> float:
        """Zero this thread's grounding charge, returning the previous value."""
        previous = getattr(self._grounding_charge, "seconds", 0.0)
        self._grounding_charge.seconds = 0.0
        return previous

    def _grounding_charged(self) -> float:
        return getattr(self._grounding_charge, "seconds", 0.0)

    # ------------------------------------------------------------------
    # artifact-cache plumbing
    # ------------------------------------------------------------------
    def _grounding_key(self) -> CacheKey | None:
        """Key of the grounding artifact: (database, program-as-written).

        The artifact stored under this key may include groundings of
        unifying aggregate rules registered before the grounding ran; those
        extra nodes are pure leaves (aggregate heads only receive edges), so
        they are harmless to sessions that never ask for them, and
        :meth:`_apply_pending_aggregates` splices any rule a session *does*
        need on top of whatever was loaded (idempotently).
        """
        if self.cache is None:
            return None
        return CacheKey(
            database=database_fingerprint(self.database),
            program=self._program_fingerprint,
            kind="grounding",
        )

    def _unit_table_key(
        self, query: CausalQuery, embedding: Any, response_attribute: str
    ) -> CacheKey | None:
        if self.cache is None:
            return None
        resolution: list[Any] = [response_attribute]
        derived = self.model.derived_attributes.get(response_attribute)
        if derived is not None:
            resolution.append(derived)
        return CacheKey(
            database=database_fingerprint(self.database),
            program=self._program_fingerprint,
            kind="unit_table",
            detail=query_fingerprint(query, embedding, resolution),
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
        the answer came straight from a cached unit table), the full
        grounding (or cache-load) time when this call triggered it.

        Safe to call concurrently from multiple threads; ``_scratch`` is the
        batch memo a thread-mode query session threads through its workers.
        """
        if isinstance(query, str):
            query = parse_query(query)
        estimator = estimator or self.default_estimator
        embedding = embedding or self.default_embedding

        self._reset_grounding_charge()
        if self.cache is None:
            # Force grounding so its time is not charged to the unit table.
            # With a cache configured, grounding stays lazy: a unit-table
            # cache hit answers the query without touching the graph at all.
            self.graph  # noqa: B018
        charged_before_build = self._grounding_charged()
        started = time.perf_counter()
        unit_table, peers = self._build_unit_table(query, embedding, scratch=_scratch)
        unit_table_seconds = time.perf_counter() - started
        charged_during_build = self._grounding_charged() - charged_before_build
        if charged_during_build > 0.0:
            # Grounding (or a cache load of it) ran lazily inside the build;
            # keep the reported timings disjoint.
            unit_table_seconds = max(0.0, unit_table_seconds - charged_during_build)

        started = time.perf_counter()
        result = self._estimate_result(query, unit_table, estimator, bootstrap, seed)
        estimation_seconds = time.perf_counter() - started

        return QueryAnswer(
            query=query,
            result=result,
            unit_table_summary=unit_table.summary(),
            unit_table_seconds=unit_table_seconds,
            estimation_seconds=estimation_seconds,
            grounding_seconds=self._grounding_charged(),
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
          CPU) answers on the session's thread pool.  The program is grounded
          at most once — up front when the engine is uncached, so no answer
          is charged for it; lazily (or not at all, when every query hits a
          cached unit table) with an artifact cache — and a session-scoped
          scratch shares the graph-walk intermediates (relational peers,
          covariate collection) between queries over the same (treatment,
          response) attribute pair, which beats the serial loop even on one
          core.
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
        from repro.service.session import answer_iter as _answer_iter

        return _answer_iter(
            self,
            queries,
            estimator=estimator,
            embedding=embedding,
            bootstrap=bootstrap,
            seed=seed,
            jobs=jobs,
            executor=executor,
            shards=shards,
            retries=retries,
            timeout=timeout,
            hang_timeout=hang_timeout,
        )

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
    ) -> tuple[UnitTable, dict[tuple[Any, ...], list[tuple[Any, ...]]]]:
        treatment_attribute, treatment_subject = self._validated_treatment(query)

        # Response resolution may register a unifying aggregate rule on the
        # shared model, so it runs under the state lock.
        with self._state_lock:
            response_attribute = self._resolve_response(query, treatment_subject)
            table_key = self._unit_table_key(query, embedding, response_attribute)

        # Probe the artifact cache after response resolution: the resolved
        # response (and its derived-attribute definition, if unification
        # introduced one) is part of the key, so differently-unified
        # requests never alias — while identical requests key identically
        # regardless of what else the session answered before.  The probe
        # itself is lock-free: artifact reads are atomic snapshots.
        if table_key is not None:
            payload = self.cache.load(table_key)
            if payload is not None:
                try:
                    return load_unit_table(payload), {}
                except SerializationError:
                    pass

        # binarize=None lets the builder fall back to the default binarizer
        # itself — and take the vectorized bulk-binarization path instead of
        # a per-value callable.
        binarize = None
        if query.treatment_threshold is not None:
            threshold = query.treatment_threshold
            binarize = lambda value: 1.0 if threshold.evaluate(value) else 0.0  # noqa: E731

        with self._state_lock:
            self.graph  # noqa: B018 - ground before any epoch-keyed memo lookup
            self._apply_pending_aggregates()
            # A batch can share the graph-walk phase between queries over the
            # same (treatment, response) pair when the WHERE clause is trivial
            # (the collected inputs are then independent of the query's
            # threshold, embedding and estimator).
            if scratch is not None and query.condition.is_trivial:
                memo_key = (
                    "unit-table-inputs",
                    treatment_attribute,
                    response_attribute,
                    self._grounding_epoch,
                )
                peers, inputs = scratch.get_or_build(
                    memo_key,
                    lambda: self._collect_inputs(
                        query, treatment_attribute, response_attribute
                    ),
                )
            else:
                peers, inputs = self._collect_inputs(
                    query, treatment_attribute, response_attribute
                )
        # The numpy-dominated phase (binarization, embeddings, assembly) runs
        # outside the state lock so concurrent builds overlap.
        table = materialize_unit_table(inputs, embedding=embedding, binarize=binarize)
        if table_key is not None:
            self.cache.store(table_key, unit_table_payload(table))
        return table, peers

    def _collect_inputs(
        self, query: CausalQuery, treatment_attribute: str, response_attribute: str
    ) -> tuple[dict[tuple[Any, ...], list[tuple[Any, ...]]], UnitTableInputs]:
        """Graph-walk phase of the unit-table build (state lock must be held)."""
        values, units = self._restricted_units(query, treatment_attribute, response_attribute)
        peers = compute_peers(self.graph, treatment_attribute, response_attribute, units)
        inputs = collect_unit_table_inputs(
            self.graph,
            values,
            treatment_attribute,
            response_attribute,
            units,
            peers,
            self.model.is_observed,
        )
        return peers, inputs

    def _validated_treatment(self, query: CausalQuery) -> tuple[str, str]:
        """The query's treatment attribute and its subject predicate, validated."""
        treatment_attribute = query.treatment.name
        if not self.schema.has_attribute(treatment_attribute):
            raise QueryError(f"unknown treatment attribute {treatment_attribute!r}")
        if not self.schema.is_observed(treatment_attribute):
            raise QueryError(
                f"treatment attribute {treatment_attribute!r} is latent; it cannot be used "
                "as a treatment"
            )
        return treatment_attribute, self.schema.subject_of(treatment_attribute)

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
        treatment_attribute, treatment_subject = self._validated_treatment(query)
        with self._state_lock:
            response_attribute = self._resolve_response(query, treatment_subject)
            self.graph  # noqa: B018 - ground (or cache-load) before walking
            self._apply_pending_aggregates()
            # snapshot=False: a shard worker is single-threaded, so the
            # collection can read the engine's values mapping in place
            # instead of copying ~the whole grounding per task.
            values, units = self._restricted_units(
                query, treatment_attribute, response_attribute, snapshot=False
            )
            if expected_units is not None and len(units) != expected_units:
                raise QueryError(
                    f"shard worker derived {len(units)} units for {query!s} but the "
                    f"dispatcher saw {expected_units}; the shared grounding and "
                    "database state are out of sync"
                )
            selected = units[start:stop]
            peers = compute_peers(
                self.graph, treatment_attribute, response_attribute, selected, within=units
            )
            return collect_unit_table_inputs(
                self.graph,
                values,
                treatment_attribute,
                response_attribute,
                selected,
                peers,
                self.model.is_observed,
                allow_empty=True,
            )

    def _restricted_units(
        self,
        query: CausalQuery,
        treatment_attribute: str,
        response_attribute: str,
        snapshot: bool = True,
    ) -> tuple[dict[GroundedAttribute, Any], list[tuple[Any, ...]]]:
        """Values snapshot and restricted unit list for one query (state lock
        must be held).  Deterministic in (database, program, query), which is
        what lets shard workers re-derive the same unit list positionally.

        ``snapshot=False`` returns the engine's live values mapping instead
        of a copy — only safe for single-threaded callers (shard workers):
        the thread executor needs the copy because a concurrent query's
        aggregate splice mutates the shared mapping in place.
        """
        values = dict(self.values) if snapshot else self.values

        # Subject of the *base* response attribute: restrictions on that entity
        # (e.g. "only submissions at single-blind venues") are applied inside
        # the aggregation; restrictions on the treated entity restrict units.
        if self.model.is_derived(response_attribute):
            base_response_subject = self.schema.subject_of(
                self.model.derived_attributes[response_attribute].base
            )
        else:
            base_response_subject = self.schema.subject_of(response_attribute)

        treatment_subject = self.schema.subject_of(treatment_attribute)
        allowed_response, allowed_units = self._query_restrictions(
            query, treatment_subject, base_response_subject
        )

        units = list(self.instance.units(treatment_attribute))
        if allowed_response is not None and self.model.is_derived(response_attribute):
            values = self._restrict_aggregated_response(
                response_attribute, values, allowed_response
            )
        elif allowed_response is not None:
            units = [unit for unit in units if unit in allowed_response]
        if allowed_units is not None:
            units = [unit for unit in units if unit in allowed_units]
        if not units:
            raise QueryError("the query condition excludes every unit")
        return values, units

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
        """Register (once) the aggregate rule that unifies response and treated units."""
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
        registered = self.model.add_aggregate_rule(rule)
        self._pending_aggregates.append(registered)
        return desired

    def _apply_pending_aggregates(self) -> None:  # guarded-by: _state_lock
        """Ground rules registered by response unification and splice them in.

        Deferred from :meth:`_ensure_unifying_aggregate` so a unit-table
        cache hit answers without grounding anything.  The extension is
        applied unconditionally: a graph loaded from the (program-keyed)
        cache may or may not already contain these groundings, and splicing
        them again is idempotent — node/edge insertion is set-based and the
        aggregate values recompute to the same result.

        Callers must hold the state lock: splicing mutates the shared graph
        and values in place.
        """
        if not self._pending_aggregates:
            return
        pending, self._pending_aggregates = self._pending_aggregates, []
        self.graph  # noqa: B018 - load or ground before splicing
        for rule in pending:
            self._extend_graph_with_aggregate(rule)

    def _extend_graph_with_aggregate(self, rule: Any) -> None:
        """Ground one new aggregate rule and splice it into the cached graph."""
        graph = self.graph
        values = self.values
        for grounded_rule in self.grounder.ground_aggregate_rule(rule):
            graph.add_grounded_rule(grounded_rule, aggregate=rule.aggregate)
            parent_values = [
                values[parent]
                for parent in graph.parent_nodes(grounded_rule.head)
                if parent in values
            ]
            values[grounded_rule.head] = (
                apply_aggregate(rule.aggregate, parent_values) if parent_values else None
            )

    # ------------------------------------------------------------------
    # query conditions (unit restrictions)
    # ------------------------------------------------------------------
    def _query_restrictions(
        self,
        query: CausalQuery,
        treatment_subject: str,
        base_response_subject: str,
    ) -> tuple[set[tuple[Any, ...]] | None, set[tuple[Any, ...]] | None]:
        """Unit restrictions implied by the query's WHERE clause.

        Returns ``(allowed base-response keys, allowed treated-unit keys)``.
        A condition variable restricts the base response (e.g. only
        submissions to single-blind venues count towards an author's average
        score) when it is bound to the base response entity, and restricts
        the treated units when it is bound to the treatment entity.
        """
        if query.condition.is_trivial:
            return None, None
        bindings = self.grounder.condition_bindings(query.condition)

        variable_entities: dict[str, set[str]] = {}
        for atom in query.condition.atoms:
            info = self.schema.predicate(atom.predicate)
            for position, term in enumerate(atom.terms):
                if not isinstance(term, Variable):
                    continue
                entity = info.name if info.is_entity else info.referenced_entities[position]
                variable_entities.setdefault(term.name, set()).add(entity)

        def allowed_keys(subject: str) -> set[tuple[Any, ...]] | None:
            names = [name for name, entities in variable_entities.items() if subject in entities]
            if not names:
                return None
            name = names[0]
            return {(binding[name],) for binding in bindings}

        allowed_response = (
            allowed_keys(base_response_subject)
            if base_response_subject != treatment_subject
            else None
        )
        allowed_units = allowed_keys(treatment_subject)
        return allowed_response, allowed_units

    def _restrict_aggregated_response(
        self,
        response_attribute: str,
        values: dict[GroundedAttribute, Any],
        allowed_response: set[tuple[Any, ...]],
    ) -> dict[GroundedAttribute, Any]:
        """Recompute aggregated responses using only allowed base-response units.

        Example: ``Score[S] <= Prestige[A] ? WHERE Submitted(S, C), Blind[C] = "single"``
        unifies Score onto authors via AVG, but only submissions to
        single-blind venues may contribute to each author's average.
        """
        if not self.model.is_derived(response_attribute):
            return values
        derived = self.model.derived_attributes[response_attribute]
        graph = self.graph
        updated = dict(values)
        for node in graph.nodes_of(response_attribute):
            parents = [
                parent
                for parent in graph.parent_nodes(node)
                if parent.attribute == derived.base and parent.key in allowed_response
            ]
            parent_values = [updated[parent] for parent in parents if parent in updated]
            updated[node] = (
                apply_aggregate(derived.aggregate, parent_values) if parent_values else None
            )
        return updated

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
        treated_fraction = np.asarray(
            [condition.treated_fraction(int(count)) for count in peer_counts], dtype=float
        )
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
