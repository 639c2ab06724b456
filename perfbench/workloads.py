"""The benchmark's three seeded workloads.

Each workload has four steps, called in this order by ``run.py``:

* ``setup(seed)`` builds the inputs from the seed alone (timed as
  ``setup_s``, several times per run);
* ``reference(state)`` computes the answers a run is checked against
  (outside every timed region);
* ``run(state, window)`` executes one repetition; the ``window`` context
  marks the timed region and, in a traced run, the span in which the layer
  wrappers record;
* ``check(state, ref, rep)`` compares the repetition's answers with the
  reference and returns one message per failed operation.

Every repetition yields a :class:`Rep`: the (submitted, delivered) instants
of each answer relative to the start of the timed region, from which
``run.py`` derives the same six timing metrics on every workload.

Why these three (the same layers used differently):

* ``interactive`` computes the grounding and walks the graph in the
  benchmark process, serially and uncached, so grounding, peers and
  collection dominate;
* ``service_stream`` loads the grounding from the artifact cache and
  answers ~90% of submissions from cached unit tables, so the service
  layers, cache reads and estimation dominate and the graph walks barely
  run in the dispatching process;
* ``process_batch`` forks a worker pool per call and shards collection
  across it (uncached engine; partials travel through a private
  artifact cache that workers write and memory-map).
"""

from __future__ import annotations

import math
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.carl.engine import CaRLEngine
from repro.carl.errors import QueryError
from repro.carl.queries import ATEResult, QueryAnswer
from repro.datasets.mimic import generate_mimic_data
from repro.datasets.synthetic_review import generate_synthetic_review_data
from repro.service import AdmissionError, QueryDaemon

#: Worker processes of the stream daemon and the process batch (the
#: reference machine has two cores).
JOBS = 2

#: Largest allowed distance of an estimated effect from the generator's
#: ground truth (the engine's own integration tests use 0.2-0.25 at far
#: smaller scales).
TRUTH_TOLERANCE = 0.25

QUALIFICATION_QUERY = "AVG_Score[A] <= Qualification[A] >= 25 ?"

#: Seconds any single stream answer may take before it counts as a timeout
#: (far above the slowest cold answer at full scale), and the bound on a
#: whole stream, which keeps a wedged run inside the harness's time limit.
ANSWER_TIMEOUT = 30.0
STREAM_DEADLINE = 90.0


@dataclass
class Rep:
    """One repetition of a workload's timed region."""

    wall: float
    #: (submitted, delivered) seconds from the start of the timed region,
    #: one pair per answer, in delivery order.
    deliveries: list[tuple[float, float]]
    #: (query name, QueryAnswer | error message), in delivery order.
    outcomes: list[tuple[str, Any]]
    attempted: int
    #: Operations that failed before the check (errors, refusals, timeouts).
    failures: list[str] = field(default_factory=list)
    #: Worker processes serving the timed region (0 when none).
    jobs: int = 0
    #: Scheduler/daemon counters at the end of the timed region.
    stats: dict[str, Any] = field(default_factory=dict)
    #: Distinct queries submitted (one unit table each).
    distinct: int = 0
    #: Workload-private leftovers the check needs.
    extra: dict[str, Any] = field(default_factory=dict)


class Window:
    """The timed region of one repetition; toggles an optional recorder."""

    def __init__(self, recorder: Any = None) -> None:
        self.recorder = recorder
        self.t0 = 0.0
        self.t1 = 0.0

    def __enter__(self) -> "Window":
        if self.recorder is not None:
            self.recorder.start()
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.t1 = time.monotonic()
        if self.recorder is not None:
            self.recorder.stop(self.t0, self.t1)

    def now(self) -> float:
        """Seconds since the region started."""
        return time.monotonic() - self.t0


def answer_fields(answer: QueryAnswer) -> tuple[str, ...]:
    """Every result field as an exact text form (``float.hex`` for floats)."""
    result = answer.result
    if isinstance(result, ATEResult):
        values: tuple[Any, ...] = (
            result.ate, result.naive_difference, result.treated_mean,
            result.control_mean, result.correlation, result.n_units,
            result.n_treated, result.n_control, result.confidence_interval,
        )
    else:
        values = (
            result.aie, result.are, result.aoe, result.correlation,
            result.naive_difference, result.n_units, result.mean_peer_count,
        )
    return tuple(_exact(value) for value in values)


def _exact(value: Any) -> str:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return "(" + ",".join(_exact(item) for item in value) + ")"
    return repr(value)


def compare(name: str, got: Any, want: QueryAnswer, against: str) -> list[str]:
    """One failure message when ``got`` is not bit-identical to ``want``."""
    if not isinstance(got, QueryAnswer):
        return [f"{name}: {got}"]
    if answer_fields(got) != answer_fields(want):
        return [f"{name}: differs from the {against}"]
    return []


# ----------------------------------------------------------------------
# interactive
# ----------------------------------------------------------------------
class Interactive:
    """One analyst, serial and uncached: a cold answer plus three follow-ups.

    A fresh engine answers ``ate_single`` cold (grounding, peers, collection,
    estimation); the same engine then answers ``ate_double``,
    ``peer_single`` and a Qualification threshold query, each rebuilding its
    unit table.  After the timed region the engine answers ``ate_single``
    once more, which must be bit-identical to the cold answer.
    """

    name = "interactive"

    def __init__(self, toy: bool, workdir: Path) -> None:
        # 6k authors (~78k rows) keeps one repetition near 7 s on two cores,
        # so a run holds three: with one repetition per run (synthetic-12k,
        # ~15 s) the timings spread by up to 0.39 of their median across
        # seeds.  At 300 authors the toy estimates miss TRUTH_TOLERANCE; at
        # 1.5k they meet it.
        self.n_authors = 1_500 if toy else 6_000

    def setup(self, seed: int) -> Any:
        return generate_synthetic_review_data(n_authors=self.n_authors, seed=seed)

    def reference(self, data: Any) -> Any:
        return data.ground_truth

    def queries(self, data: Any) -> list[tuple[str, str]]:
        return [
            ("ate_single", data.queries["ate_single"]),
            ("ate_double", data.queries["ate_double"]),
            ("peer_single", data.queries["peer_single"]),
            ("qualification", QUALIFICATION_QUERY),
        ]

    def run(self, data: Any, window: Window) -> Rep:
        deliveries: list[tuple[float, float]] = []
        outcomes: list[tuple[str, Any]] = []
        with window:
            engine = CaRLEngine(data.database, data.program)
            for name, query in self.queries(data):
                submitted = window.now()
                try:
                    outcome: Any = engine.answer(query)
                except QueryError as error:
                    outcome = f"QueryError: {error}"
                deliveries.append((submitted, window.now()))
                outcomes.append((name, outcome))
        return Rep(
            wall=window.t1 - window.t0,
            deliveries=deliveries,
            outcomes=outcomes,
            attempted=len(outcomes),
            extra={"engine": engine},
        )

    def check(self, data: Any, truth: Any, rep: Rep) -> list[str]:
        failures: list[str] = []
        answers = dict(rep.outcomes)
        for name, outcome in rep.outcomes:
            if not isinstance(outcome, QueryAnswer):
                failures.append(f"{name}: {outcome}")
        if failures:
            return failures
        expected = {
            "ate_single": {"ate": truth.overall_single},
            "ate_double": {"ate": truth.overall_double},
            "peer_single": {
                "aie": truth.isolated_single,
                "are": truth.relational,
                "aoe": truth.overall_single,
            },
        }
        for name, fields in expected.items():
            result = answers[name].result
            for attribute, true_value in fields.items():
                estimate = getattr(result, attribute)
                if not abs(estimate - true_value) <= TRUTH_TOLERANCE:
                    failures.append(
                        f"{name}.{attribute} = {estimate:.4f}, ground truth {true_value}"
                    )
        if not math.isfinite(answers["qualification"].result.ate):
            failures.append("qualification: non-finite ATE")
        engine = rep.extra.pop("engine")
        try:
            again: Any = engine.answer(self.queries(data)[0][1])
        except QueryError as error:
            again = f"QueryError: {error}"
        failures += compare("ate_single (repeat)", again, answers["ate_single"], "cold answer")
        return failures


# ----------------------------------------------------------------------
# service_stream
# ----------------------------------------------------------------------
@dataclass
class StreamState:
    data: Any
    cache_root: Path
    catalogue: dict[str, str]
    stream: list[str]


class ServiceStream:
    """A query daemon serving one client thread that drives two tenants.

    Each tenant keeps a fixed window of queries in flight (closed loop).
    The stream is a seeded draw over a catalogue of the paper's four
    queries plus Qualification threshold variants: every 25th submission
    introduces a catalogue entry not seen before (a cold query: collect
    tasks, or only a finish task when a threshold variant shares partials),
    the rest repeat entries introduced earlier (unit-table cache hits).
    The first answer is awaited before the rest are submitted.  The
    daemon's cache starts as a copy of the setup cache, which holds the
    grounding.

    These choices keep the latency quantiles repeatable on a two-core
    machine: at one new entry in ten, p90 sits on the edge between warm
    and cold answers; with larger windows, or repeats of an entry still
    in flight, warm answers queue behind cold ones (a window of 12 tripled
    p90 and its run-to-run spread).  Eight entries keep a repetition near
    7 s, so a run holds several.
    """

    name = "service_stream"
    #: Queries each tenant keeps in flight.
    window = 2
    tenants = 2
    #: One in this many submissions introduces a new catalogue entry.
    cold_every = 25

    def __init__(self, toy: bool, workdir: Path) -> None:
        self.workdir = workdir
        self.n_authors = 300 if toy else 5_000
        self.thresholds = 2 if toy else 4

    def setup(self, seed: int) -> StreamState:
        data = generate_synthetic_review_data(n_authors=self.n_authors, seed=seed)
        cache_root = Path(tempfile.mkdtemp(prefix="stream-setup-", dir=self.workdir))
        CaRLEngine(data.database, data.program, cache=cache_root).graph  # noqa: B018
        catalogue = dict(data.queries)
        for step in range(self.thresholds):
            threshold = 10 + 2 * step
            catalogue[f"qualification_{threshold}"] = (
                f"AVG_Score[A] <= Qualification[A] >= {threshold} ?"
            )
        # New entries appear in one fixed order, alternating paper queries
        # and threshold variants, so every seed does the same cold work; the
        # seed draws the dataset and which seen entries repeat.
        thresholds = [name for name in catalogue if name not in data.queries]
        order = [name for pair in zip(data.queries, thresholds) for name in pair]
        order += thresholds[len(data.queries):]
        # Repeats draw from entries introduced two or more periods earlier
        # (and the first entry, answered before the stream proceeds), so a
        # repeat is a cache hit rather than a wait on a cold query in flight.
        rng = random.Random(seed)
        stream: list[str] = []
        for position in range(self.cold_every * len(order)):
            period, offset = divmod(position, self.cold_every)
            if offset == 0:
                stream.append(order[period])
            else:
                stream.append(order[rng.randrange(max(1, period - 1))])
        return StreamState(data, cache_root, catalogue, stream)

    def dispose(self, state: StreamState) -> None:
        shutil.rmtree(state.cache_root, ignore_errors=True)

    def _fresh_cache(self, state: StreamState) -> Path:
        root = Path(tempfile.mkdtemp(prefix="stream-cache-", dir=self.workdir))
        shutil.copytree(state.cache_root, root, dirs_exist_ok=True)
        return root

    def reference(self, state: StreamState) -> dict[str, QueryAnswer]:
        # The in-process thread executor shares each (treatment, response)
        # collection across the batch and is contracted answer-for-answer
        # identical to the serial loop, which would cost ~24 s per run.
        root = self._fresh_cache(state)
        try:
            engine = CaRLEngine(state.data.database, state.data.program, cache=root)
            return engine.answer_all(state.catalogue, jobs=JOBS)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def run(self, state: StreamState, window: Window) -> Rep:
        root = self._fresh_cache(state)
        engine = CaRLEngine(state.data.database, state.data.program, cache=root)
        deliveries: list[tuple[float, float]] = []
        outcomes: list[tuple[str, Any]] = []
        failures: list[str] = []
        daemon = None
        try:
            with window:
                daemon = QueryDaemon(engine, jobs=JOBS)
                sessions = [
                    daemon.open_session(tenant=f"tenant-{t}", max_inflight=4 * self.window)
                    for t in range(self.tenants)
                ]
                inflight: list[dict[int, tuple[str, float]]] = [{} for _ in sessions]
                cursor = 0
                resolved = 0
                deadline = time.monotonic() + STREAM_DEADLINE
                while resolved < len(state.stream):
                    for session, pending in zip(sessions, inflight):
                        while (
                            len(pending) < self.window
                            and cursor < len(state.stream)
                            and (cursor == 0 or deliveries)
                        ):
                            name = state.stream[cursor]
                            cursor += 1
                            try:
                                index = session.submit(
                                    state.catalogue[name], timeout=ANSWER_TIMEOUT
                                )
                            except AdmissionError as error:
                                failures.append(f"{name}: refused ({error.reason})")
                                resolved += 1
                                continue
                            pending[index] = (name, window.now())
                    for session, pending in zip(sessions, inflight):
                        if not pending:
                            continue
                        try:
                            index, outcome = next(session.as_completed(timeout=0.002))
                        except (TimeoutError, StopIteration):
                            continue
                        name, submitted = pending.pop(index)
                        deliveries.append((submitted, window.now()))
                        outcomes.append(
                            (name, outcome if isinstance(outcome, QueryAnswer) else f"{outcome}")
                        )
                        resolved += 1
                    if time.monotonic() > deadline:
                        unresolved = len(state.stream) - resolved
                        failures += ["stream deadline passed before delivery"] * unresolved
                        break
            stats = daemon.stats()
            for session in sessions:
                session.close()
        finally:
            if daemon is not None:
                daemon.close()
            shutil.rmtree(root, ignore_errors=True)
        return Rep(
            wall=window.t1 - window.t0,
            deliveries=deliveries,
            outcomes=outcomes,
            attempted=len(state.stream),
            failures=failures,
            jobs=JOBS,
            stats=stats,
            distinct=len(set(state.stream)),
        )

    def check(self, state: StreamState, reference: dict[str, QueryAnswer], rep: Rep) -> list[str]:
        failures: list[str] = []
        first: dict[str, Any] = {}
        for name, outcome in rep.outcomes:
            first.setdefault(name, outcome)
        for name, outcome in rep.outcomes:
            found = compare(name, outcome, reference[name], "reference answer")
            if not found and isinstance(first[name], QueryAnswer):
                found = compare(name, outcome, first[name], "cold answer")
            failures += found
        return failures


# ----------------------------------------------------------------------
# process_batch
# ----------------------------------------------------------------------
@dataclass
class BatchState:
    engine: CaRLEngine
    queries: dict[str, str]


class ProcessBatch:
    """``answer_all`` of an 8-query sweep on the MIMIC stand-in, sharded
    across a forked worker pool (``executor="process"``) by a grounded,
    uncached engine; every call publishes engine state, forks the pool,
    shards collection, merges and finishes."""

    name = "process_batch"

    QUERIES = {
        "death": "Death[P] <= SelfPay[P] ?",
        "length": "Length[P] <= SelfPay[P] ?",
        "death_severity_3": "Death[P] <= Severity[P] >= 3 ?",
        "death_severity_4": "Death[P] <= Severity[P] >= 4 ?",
        "death_severity_5": "Death[P] <= Severity[P] >= 5 ?",
        "length_chronic_1": "Length[P] <= Chronic[P] >= 1 ?",
        "length_chronic_2": "Length[P] <= Chronic[P] >= 2 ?",
        "length_chronic_3": "Length[P] <= Chronic[P] >= 3 ?",
    }

    def __init__(self, toy: bool, workdir: Path) -> None:
        # Peer walks grow with patients per drug; at 6k patients a batch
        # takes ~5 s and its reference ~7 s (at 8k: ~7.5 s and ~10 s).
        self.n_patients = 400 if toy else 6_000

    def setup(self, seed: int) -> BatchState:
        data = generate_mimic_data(n_patients=self.n_patients, seed=seed)
        engine = CaRLEngine(data.database, data.program)
        engine.graph  # noqa: B018 - the batch runs on a grounded engine
        return BatchState(engine, dict(self.QUERIES))

    def reference(self, state: BatchState) -> dict[str, QueryAnswer]:
        # In-process thread executor, as for the stream: a serial loop
        # repeats the Severity collection per threshold (~27 s per run).
        return state.engine.answer_all(state.queries, jobs=JOBS)

    def run(self, state: BatchState, window: Window) -> Rep:
        failures: list[str] = []
        with window:
            try:
                answers = state.engine.answer_all(state.queries, jobs=JOBS, executor="process")
            except QueryError as error:
                answers = {}
                failures = [f"batch: QueryError: {error}"] * len(state.queries)
        wall = window.t1 - window.t0
        return Rep(
            wall=wall,
            deliveries=[(0.0, wall)] * len(answers),
            outcomes=list(answers.items()),
            attempted=len(state.queries),
            failures=failures,
            jobs=JOBS,
        )

    def check(self, state: BatchState, reference: dict[str, QueryAnswer], rep: Rep) -> list[str]:
        failures: list[str] = []
        for name, outcome in rep.outcomes:
            failures += compare(name, outcome, reference[name], "reference answer")
        return failures


WORKLOADS = {cls.name: cls for cls in (Interactive, ServiceStream, ProcessBatch)}
