"""Multi-tenant daemon benchmark under sustained load (regression check).

Drives one :class:`~repro.service.daemon.QueryDaemon` (one shared worker
pool) with **4 concurrent tenant sessions** submitting a sustained mixed
hot/cold workload — 224 queries cycling over 8 query shapes, so the first
encounters are cold (full collect + finish) and the rest answer warm from
the artifact cache — and gates the promises that make the daemon worth
having:

1. **sustained-load latency** — p50 and p99 of per-query completion latency
   stay under :data:`MAX_P50_SECONDS` / :data:`MAX_P99_SECONDS` (gated only
   on >= :data:`MIN_CORES` cores, the ``bench_stream.py`` precedent —
   on one core every arm timeshares and the numbers are reported instead);
2. **admission control** — an over-quota tenant is rejected with a
   structured :class:`~repro.service.daemon.AdmissionError` (machine-readable
   ``reason``), never a hang, and rejections are counted in daemon stats;
3. **flat bookkeeping** — scheduler records/tasks at the 25% checkpoint are
   bounded by the in-flight window (not by queries served so far), and at
   100% everything has been reaped: the daemon's memory is O(in-flight);
4. **the run never hangs** — every tenant thread completes within
   :data:`DEADLINE_SECONDS`;
5. **bit-identity** — every delivered answer equals the serial
   ``engine.answer`` of the same query, field for field;
6. **closing mid-flight** — a tenant closed right after submitting cold
   queries ends them: its ``as_completed`` finishes instead of timing
   out, nothing stays in flight, and the shared scheduler's records and
   tasks are back at 0 within :data:`REAP_SECONDS`.

Run directly::

    PYTHONPATH=src python benchmarks/bench_daemon.py
"""

from __future__ import annotations

import os
import random
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from bench_cache import PROGRAM  # noqa: E402 - sibling benchmark

from repro.carl.engine import CaRLEngine  # noqa: E402
from repro.carl.queries import QueryAnswer  # noqa: E402
from repro.db.database import Database  # noqa: E402
from repro.db.table import Table  # noqa: E402
from repro.observability import get_registry  # noqa: E402
from repro.service import AdmissionError, QueryDaemon  # noqa: E402

#: Concurrent tenant sessions (acceptance criterion: >= 4).
TENANTS = 4

#: Queries per tenant; TENANTS * ROUNDS = 224 total ("hundreds").
ROUNDS = 56

#: In-flight window per tenant: submit up to this many, then start draining.
WINDOW = 8

#: Latency gates for the sustained mixed workload (generous: the hot path
#: is a cache probe + estimate; these catch order-of-magnitude regressions,
#: not jitter).
MAX_P50_SECONDS = 5.0
MAX_P99_SECONDS = 20.0

#: Below this core count the latency gates are reported but not enforced
#: (single-core timesharing makes completion latency approach wall time by
#: construction); every structural gate still applies.
MIN_CORES = 2

#: The whole benchmark must finish inside this budget — the "never hangs"
#: gate: a deadlocked scheduler or a rejected submit that blocks forever
#: fails here instead of wedging CI.
DEADLINE_SECONDS = 600.0

#: Worker processes (and shards per query) of the shared pool.
JOBS = 4

#: Smaller than bench_cache's 100k rows: the daemon bench measures
#: scheduling and admission under sustained load, not per-query throughput,
#: so each query must be cheap enough to run hundreds of them.
N_PERSONS = 8_000
N_ORGS = 400
N_WORKSAT = 10_000

#: 8 query shapes over 3 (treatment, response) pairs — the bench_stream
#: sweep shape; re-submissions answer warm from the cached unit tables.
QUERIES = {
    "treatment": "Outcome[P] <= Treatment[P] ?",
    "age_30": "Outcome[P] <= Age[P] >= 30 ?",
    "age_45": "Outcome[P] <= Age[P] >= 45 ?",
    "age_60": "Outcome[P] <= Age[P] >= 60 ?",
    "age_75": "Outcome[P] <= Age[P] >= 75 ?",
    "income_age_25": "Income[P] <= Age[P] >= 25 ?",
    "income_age_55": "Income[P] <= Age[P] >= 55 ?",
    "income_age_85": "Income[P] <= Age[P] >= 85 ?",
}
QUERY_LIST = list(QUERIES.values())

#: Shapes the sustained load never asks, so their unit tables are not
#: cached when the closed-mid-flight tenant submits them.
COLD_QUERIES = (
    "Outcome[P] <= Income[P] >= 100 ?",
    "Treatment[P] <= Age[P] >= 50 ?",
    "Treatment[P] <= Income[P] >= 100 ?",
)

#: Seconds the shared scheduler gets to reap a closed tenant's records.
REAP_SECONDS = 1.0


def build_database(seed: int = 11) -> Database:
    rng = random.Random(seed)
    database = Database("bench_daemon")
    persons = list(range(N_PERSONS))
    database.add_table(
        Table.from_columns(
            "Person",
            {
                "person": persons,
                "age": [rng.uniform(18.0, 90.0) for _ in persons],
                "income": [rng.uniform(1.0, 200.0) for _ in persons],
                "treatment": [rng.randrange(2) for _ in persons],
                "outcome": [rng.uniform(0.0, 10.0) for _ in persons],
            },
            dtypes={
                "person": "int",
                "age": "float",
                "income": "float",
                "treatment": "int",
                "outcome": "float",
            },
            primary_key=("person",),
        )
    )
    orgs = list(range(N_ORGS))
    database.add_table(
        Table.from_columns(
            "Org",
            {"org": orgs, "budget": [rng.uniform(0.0, 1000.0) for _ in orgs]},
            dtypes={"org": "int", "budget": "float"},
            primary_key=("org",),
        )
    )
    pairs = sorted({(rng.randrange(N_PERSONS), rng.randrange(N_ORGS)) for _ in range(N_WORKSAT)})
    database.add_table(
        Table.from_columns(
            "WorksAt",
            {"person": [p for p, _ in pairs], "org": [o for _, o in pairs]},
            dtypes={"person": "int", "org": "int"},
            primary_key=("person", "org"),
        )
    )
    return database


def answer_fields(answer) -> tuple:
    result = answer.result
    return (
        result.ate,
        result.naive_difference,
        result.treated_mean,
        result.control_mean,
        result.correlation,
        result.n_units,
        result.n_treated,
        result.n_control,
        result.confidence_interval,
    )


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


class TenantResult:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.answers: list[tuple[str, object]] = []  #: (query text, outcome)
        self.error: BaseException | None = None


def run_tenant(daemon: QueryDaemon, tenant: int, result: TenantResult,
               checkpoint: "Checkpoint") -> None:
    try:
        with daemon.open_session(tenant=f"tenant-{tenant}", max_inflight=4 * WINDOW) as session:
            window: list[tuple[int, str, float]] = []

            def drain() -> None:
                for index, text, submitted in window:
                    outcome = session.result(index, timeout=DEADLINE_SECONDS)
                    result.latencies.append(time.perf_counter() - submitted)
                    result.answers.append((text, outcome))
                    checkpoint.delivered()
                window.clear()

            for round_number in range(ROUNDS):
                text = QUERY_LIST[(round_number + tenant) % len(QUERY_LIST)]
                index = session.submit(text)
                window.append((index, text, time.perf_counter()))
                if len(window) >= WINDOW:
                    drain()
            drain()
    except BaseException as error:  # noqa: BLE001 - reported by main thread
        result.error = error


class Checkpoint:
    """Snapshots daemon stats when deliveries cross 25% of the workload."""

    def __init__(self, daemon: QueryDaemon, total: int) -> None:
        self._daemon = daemon
        self._threshold = total // 4
        self._count = 0
        self._lock = threading.Lock()
        self.mid_stats: dict | None = None

    def delivered(self) -> None:
        with self._lock:
            self._count += 1
            take = self._count == self._threshold
        if take:
            self.mid_stats = self._daemon.stats()


def close_tenant_mid_flight(daemon: QueryDaemon) -> str | None:
    """Submit cold queries on a fresh tenant, close it at once, and return
    what went wrong (None when every check of gate 6 holds)."""
    session = daemon.open_session(tenant="closed-mid-flight")
    for text in COLD_QUERIES:
        session.submit(text)
    session.close()
    try:
        for _ in session.as_completed(timeout=5.0):
            pass
    except TimeoutError:
        return "a closed tenant's as_completed timed out on its abandoned queries"
    if daemon.inflight() != 0:
        return f"{daemon.inflight()} queries still in flight after the tenant closed"
    deadline = time.monotonic() + REAP_SECONDS
    while True:
        scheduler = daemon.stats()["scheduler"]
        if scheduler["live_records"] == 0 and scheduler["live_tasks"] == 0:
            return None
        if time.monotonic() >= deadline:
            return (
                f"the closed tenant left {scheduler['live_records']} records and "
                f"{scheduler['live_tasks']} tasks after {REAP_SECONDS}s"
            )
        time.sleep(0.01)


def main() -> int:
    database = build_database()
    print(f"database: {database.total_rows():,} rows across {len(database.table_names)} tables")
    serial_engine = CaRLEngine(database, PROGRAM)
    serial_engine.graph  # noqa: B018 - shared prework outside the timings
    serial = {text: serial_engine.answer(text) for text in QUERY_LIST}

    cache_root = Path(tempfile.mkdtemp(prefix="bench-daemon-"))
    started = time.perf_counter()
    try:
        engine = CaRLEngine(database, PROGRAM, cache=cache_root)
        with QueryDaemon(engine, jobs=JOBS, shards=JOBS) as daemon:
            total = TENANTS * ROUNDS
            checkpoint = Checkpoint(daemon, total)
            results = [TenantResult() for _ in range(TENANTS)]
            threads = [
                threading.Thread(
                    target=run_tenant, args=(daemon, tenant, results[tenant], checkpoint),
                    name=f"bench-tenant-{tenant}",
                )
                for tenant in range(TENANTS)
            ]
            for thread in threads:
                thread.start()

            # ----------------------------------------------------------
            # gate 2: an over-quota tenant rejects fast and structured,
            # while the 4 sustained tenants hammer the same scheduler.
            # ----------------------------------------------------------
            rejections = 0
            admitted = 0
            with daemon.open_session(tenant="starved", rate=2.0, burst=1) as session:
                indexes = []
                for _ in range(20):
                    try:
                        indexes.append(session.submit(QUERY_LIST[0]))
                        admitted += 1
                    except AdmissionError as error:
                        if error.reason != "rate":
                            print(f"FAIL: unexpected rejection reason {error.reason!r}", file=sys.stderr)
                            return 1
                        rejections += 1
                for index in indexes:
                    outcome = session.result(index, timeout=DEADLINE_SECONDS)
                    if not isinstance(outcome, QueryAnswer):
                        print(f"FAIL: admitted starved query errored: {outcome}", file=sys.stderr)
                        return 1
            if rejections == 0 or admitted == 0:
                print(
                    f"FAIL: starved tenant saw {admitted} admissions / {rejections} "
                    "rejections (need both: admission control must shed load "
                    "without starving the tenant entirely)",
                    file=sys.stderr,
                )
                return 1

            # ----------------------------------------------------------
            # gate 4: the sustained tenants all finish inside the deadline.
            # ----------------------------------------------------------
            for thread in threads:
                remaining = DEADLINE_SECONDS - (time.perf_counter() - started)
                thread.join(timeout=max(1.0, remaining))
                if thread.is_alive():
                    print(
                        f"FAIL: {thread.name} still running after {DEADLINE_SECONDS:.0f}s "
                        "(the daemon must never hang a tenant)",
                        file=sys.stderr,
                    )
                    return 1
            for tenant, result in enumerate(results):
                if result.error is not None:
                    print(f"FAIL: tenant {tenant} raised: {result.error!r}", file=sys.stderr)
                    return 1

            end_stats = daemon.stats()

            # ----------------------------------------------------------
            # gate 6: a tenant closed mid-flight ends its queries.
            # ----------------------------------------------------------
            arm_started = time.perf_counter()
            failure = close_tenant_mid_flight(daemon)
            if failure is not None:
                print(f"FAIL: {failure}", file=sys.stderr)
                return 1
            arm_seconds = time.perf_counter() - arm_started
        wall = time.perf_counter() - started - arm_seconds

        # --------------------------------------------------------------
        # gate 5: every delivered answer is bit-identical to serial.
        # --------------------------------------------------------------
        delivered = 0
        for tenant, result in enumerate(results):
            for text, outcome in result.answers:
                if not isinstance(outcome, QueryAnswer):
                    print(f"FAIL: tenant {tenant} query {text!r} errored: {outcome}", file=sys.stderr)
                    return 1
                if answer_fields(outcome) != answer_fields(serial[text]):
                    print(
                        f"FAIL: tenant {tenant} answer for {text!r} differs from serial:\n"
                        f"  serial: {answer_fields(serial[text])}\n"
                        f"  daemon: {answer_fields(outcome)}",
                        file=sys.stderr,
                    )
                    return 1
                delivered += 1
        if delivered != total:
            print(f"FAIL: {delivered} answers delivered, expected {total}", file=sys.stderr)
            return 1

        # --------------------------------------------------------------
        # gate 3: bookkeeping is O(in-flight) — bounded at the 25%
        # checkpoint by the submission windows, and fully reaped at 100%.
        # --------------------------------------------------------------
        mid = checkpoint.mid_stats
        if mid is None:
            print("FAIL: 25% checkpoint was never taken", file=sys.stderr)
            return 1
        inflight_bound = (TENANTS + 1) * 4 * WINDOW  # sustained tenants + starved
        mid_sched = mid["scheduler"]
        if mid_sched["live_records"] > inflight_bound or mid["inflight"] > inflight_bound:
            print(
                f"FAIL: 25% checkpoint bookkeeping exceeds the in-flight bound "
                f"({mid_sched['live_records']} records, {mid['inflight']} in flight, "
                f"bound {inflight_bound}) — memory is growing with history",
                file=sys.stderr,
            )
            return 1
        end_sched = end_stats["scheduler"]
        if end_sched["live_records"] != 0 or end_sched["live_tasks"] != 0 or end_stats["inflight"] != 0:
            print(
                f"FAIL: bookkeeping not reaped at end of run: "
                f"{end_sched['live_records']} records, {end_sched['live_tasks']} tasks, "
                f"{end_stats['inflight']} queries still in flight",
                file=sys.stderr,
            )
            return 1

        # --------------------------------------------------------------
        # gate 1: sustained-load latency (report-only under MIN_CORES).
        # --------------------------------------------------------------
        latencies = [seconds for result in results for seconds in result.latencies]
        p50 = percentile(latencies, 50.0)
        p99 = percentile(latencies, 99.0)
        print(
            f"sustained load          : {total} queries, {TENANTS} tenants, "
            f"{wall:7.2f}s wall ({total / wall:.1f} q/s)"
        )
        print(f"completion latency      : p50 {p50:.3f}s, p99 {p99:.3f}s")
        registry = get_registry()
        print(
            f"admission (starved)     : {admitted} admitted, {rejections} rejected "
            f"(telemetry counters: {registry.counters().get('daemon.admit', 0)} admits, "
            f"{registry.counters().get('daemon.reject', 0)} rejects)"
        )
        print(
            f"bookkeeping 25% -> 100% : records {mid_sched['live_records']} -> "
            f"{end_sched['live_records']}, tasks {mid_sched['live_tasks']} -> "
            f"{end_sched['live_tasks']}, in flight {mid['inflight']} -> {end_stats['inflight']}"
        )
        cores = os.cpu_count() or 1
        if cores < MIN_CORES:
            print(
                f"SKIP: latency gates require >= {MIN_CORES} cores (this runner "
                f"has {cores}); p50/p99 reported above"
            )
        elif p50 >= MAX_P50_SECONDS or p99 >= MAX_P99_SECONDS:
            print(
                f"FAIL: latency gates exceeded (p50 {p50:.3f}s vs {MAX_P50_SECONDS}s, "
                f"p99 {p99:.3f}s vs {MAX_P99_SECONDS}s)",
                file=sys.stderr,
            )
            return 1
        print(
            f"closed mid-flight       : {len(COLD_QUERIES)} cold queries ended, "
            f"records and tasks reaped in {arm_seconds:.2f}s"
        )
        print(
            f"\nOK: {total} mixed hot/cold queries across {TENANTS} tenants; "
            "admission rejections structured; bookkeeping flat; answers "
            "bit-identical throughout; a tenant closed mid-flight hangs nothing"
        )
        return 0
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
