"""Process-sharded vs serial `answer_all` benchmark (regression check).

Builds a 200k-row relational database (persons working at orgs, the
``bench_cache.py`` shape at double scale), then answers the same 8-query
workload twice:

- **serial**: ``answer_all(..., jobs=1)`` — the plain one-query-at-a-time
  loop;
- **sharded**: ``answer_all(..., jobs=N, executor="process")`` — the shard
  scheduler (``docs/sharding.md``): worker *processes* inherit the grounded
  engine (or memory-map it from artifacts published once through a cache),
  and every query's graph-walk/collection phase is split into contiguous
  unit-range shards collected in parallel and merged exactly.

This is the workload the GIL kept the thread executor from scaling on: the
collection phase is pure Python, so threads serialize on it while processes
overlap it core-for-core.

Asserts:

1. sharded and serial answers are **bit-identical** (every numeric field of
   every result), always — on any machine;
2. on a runner with at least :data:`MIN_CORES` cores, the sharded run is at
   least ``MIN_SPEEDUP``x faster end-to-end (the acceptance criterion; on
   smaller machines the speedup is reported but not gated, since a process
   pool cannot beat serial without cores to overlap on).

Run directly::

    PYTHONPATH=src python benchmarks/bench_shard.py
"""

from __future__ import annotations

import os
import random
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from bench_cache import PROGRAM  # noqa: E402 - sibling benchmark module

from repro.carl.engine import CaRLEngine  # noqa: E402
from repro.db.database import Database  # noqa: E402
from repro.db.table import Table  # noqa: E402

#: Required sharded/serial end-to-end speedup (acceptance criterion), gated
#: only on runners with at least MIN_CORES cores.
MIN_SPEEDUP = 1.8
MIN_CORES = 4

#: Worker processes (and unit-range shards per query) for the sharded arm.
JOBS = 4

N_PERSONS = 90_000
N_ORGS = 2_000
N_WORKSAT = 110_000

#: 8 queries over 3 distinct (treatment, response) attribute pairs — the
#: same workload shape bench_batch.py uses, at double the data size.
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


def build_database(seed: int = 7) -> Database:
    rng = random.Random(seed)
    database = Database("bench_shard")
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
    database.add_table(
        Table.from_columns(
            "WorksAt",
            {
                "person": [rng.randrange(N_PERSONS) for _ in range(N_WORKSAT)],
                "org": [rng.randrange(N_ORGS) for _ in range(N_WORKSAT)],
            },
            dtypes={"person": "int", "org": "int"},
        )
    )
    return database


def answer_fields(answer) -> tuple:
    """Every numeric field that must be bit-identical across arms."""
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


def main() -> int:
    cores = os.cpu_count() or 1
    database = build_database()
    total_rows = database.total_rows()
    print(f"database: {total_rows:,} rows across {len(database.table_names)} tables")
    print(f"runner  : {cores} core(s); speedup gate {'ACTIVE' if cores >= MIN_CORES else 'skipped'}")
    assert total_rows >= 200_000, "benchmark database must have at least 200k rows"

    serial_engine = CaRLEngine(database, PROGRAM)
    sharded_engine = CaRLEngine(database, PROGRAM)
    # Ground both engines before the clock: identical shared prework in both
    # arms (grounding reuse is gated separately by bench_cache.py).
    serial_engine.graph
    sharded_engine.graph

    started = time.perf_counter()
    serial_answers = serial_engine.answer_all(QUERIES, jobs=1)
    serial_seconds = time.perf_counter() - started
    print(f"serial  (jobs=1)           : {serial_seconds:7.2f}s for {len(QUERIES)} queries")

    started = time.perf_counter()
    sharded_answers = sharded_engine.answer_all(
        QUERIES, jobs=JOBS, executor="process", shards=JOBS
    )
    sharded_seconds = time.perf_counter() - started
    print(f"sharded (jobs={JOBS}, process) : {sharded_seconds:7.2f}s for {len(QUERIES)} queries")

    # Gate 1: answers must agree bit-for-bit, query by query, on any machine.
    for name in QUERIES:
        serial_fields = answer_fields(serial_answers[name])
        sharded_fields = answer_fields(sharded_answers[name])
        if serial_fields != sharded_fields:
            print(
                f"FAIL: sharded answer for {name!r} differs from serial:\n"
                f"  serial : {serial_fields}\n  sharded: {sharded_fields}",
                file=sys.stderr,
            )
            return 1
    print(f"answers: bit-identical across {len(QUERIES)} queries")

    # Gate 2: the dispatcher grounds exactly once (workers load, never ground).
    if sharded_engine.grounding_runs != 1:
        print(
            f"FAIL: sharded run ground {sharded_engine.grounding_runs} times (expected 1)",
            file=sys.stderr,
        )
        return 1

    speedup = serial_seconds / sharded_seconds
    ate = sharded_answers["treatment"].result.ate
    print(f"\nsharded/serial speedup: {speedup:.2f}x  (ATE {ate:+.4f})")
    if cores < MIN_CORES:
        print(
            f"SKIP: speedup gate requires >= {MIN_CORES} cores (this runner has "
            f"{cores}); bit-identity verified, speedup reported above"
        )
        return 0
    if speedup < MIN_SPEEDUP:
        print(f"FAIL: speedup regressed below {MIN_SPEEDUP}x", file=sys.stderr)
        return 1
    print(
        f"OK: answer_all(jobs={JOBS}, executor='process') is >= {MIN_SPEEDUP}x faster "
        f"than serial on {len(QUERIES)} queries at {total_rows:,} rows, "
        "with bit-identical answers"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
