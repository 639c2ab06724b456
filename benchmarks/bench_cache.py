"""Cold-vs-warm artifact-cache benchmark (regression check).

Builds a 100k-row relational database (persons working at orgs, with a
per-person treatment/outcome and numeric confounders), answers an end-to-end
causal query twice against the same on-disk cache — once cold (fresh cache
root: full grounding + unit-table build + store) and once warm (fresh engine
over the populated cache) — and asserts:

1. the warm run performs **zero grounding work** (the engine's grounding
   counters stay at zero and every cache probe hits), and
2. the warm end-to-end run is at least ``MIN_SPEEDUP``x faster than cold.

Run directly::

    PYTHONPATH=src python benchmarks/bench_cache.py

Like ``bench_columnar_backend.py``, the assertions turn the headline claim
("repeat analyses become a cache probe") into a measured regression gate.
"""

from __future__ import annotations

import random
import shutil
import sys
import tempfile
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.carl.engine import CaRLEngine
from repro.db.database import Database
from repro.db.table import Table

#: Required cold/warm end-to-end speedup (acceptance criterion).
MIN_SPEEDUP = 10.0

N_PERSONS = 45_000
N_ORGS = 1_000
N_WORKSAT = 55_000  # persons with (possibly several) org affiliations

PROGRAM = """
ENTITY Person(person);
ENTITY Org(org);
RELATIONSHIP WorksAt(person, org);

ATTRIBUTE Age OF Person;
ATTRIBUTE Income OF Person;
ATTRIBUTE Treatment OF Person;
ATTRIBUTE Outcome OF Person;
ATTRIBUTE Budget OF Org;

Treatment[P] <= Age[P], Income[P] WHERE Person(P);
Outcome[P] <= Treatment[P], Age[P], Income[P] WHERE Person(P);
Outcome[P] <= Budget[O] WHERE WorksAt(P, O);
"""

QUERY = "Outcome[P] <= Treatment[P] ?"


def build_database(seed: int = 7) -> Database:
    rng = random.Random(seed)
    database = Database("bench_cache")

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


def timed_answer(database: Database, cache_root: Path) -> tuple[float, CaRLEngine, object]:
    engine = CaRLEngine(database, PROGRAM, cache=cache_root)
    started = time.perf_counter()
    answer = engine.answer(QUERY)
    return time.perf_counter() - started, engine, answer


def main() -> int:
    database = build_database()
    total_rows = database.total_rows()
    print(f"database: {total_rows:,} rows across {len(database.table_names)} tables")
    assert total_rows >= 100_000, "benchmark database must have at least 100k rows"

    cache_root = Path(tempfile.mkdtemp(prefix="bench_cache_"))
    try:
        cold_seconds, cold_engine, cold_answer = timed_answer(database, cache_root)
        print(
            f"cold : {cold_seconds:7.2f}s  "
            f"(ground {cold_answer.grounding_seconds:.2f}s, "
            f"unit table {cold_answer.unit_table_seconds:.2f}s, "
            f"estimate {cold_answer.estimation_seconds:.2f}s)"
        )
        assert cold_engine.grounding_runs == 1

        warm_seconds, warm_engine, warm_answer = timed_answer(database, cache_root)
        print(
            f"warm : {warm_seconds:7.2f}s  "
            f"(ground {warm_answer.grounding_seconds:.2f}s, "
            f"unit table {warm_answer.unit_table_seconds:.2f}s, "
            f"estimate {warm_answer.estimation_seconds:.2f}s)"
        )

        # Gate 1: the warm run must have done zero grounding work (a unit-table
        # hit answers without touching the grounded graph at all, so the
        # grounding counters may legitimately show no activity).
        stats = warm_engine.cache_stats()
        if warm_engine.grounding_runs != 0:
            print("FAIL: warm run re-ground the program", file=sys.stderr)
            return 1
        if stats.get("grounding", {}).get("misses", 0):
            print(f"FAIL: warm run missed the grounding cache: {stats}", file=sys.stderr)
            return 1
        unit_stats = stats.get("unit_table", {})
        if unit_stats.get("misses", 0) or not unit_stats.get("hits", 0):
            print(f"FAIL: warm run missed the unit-table cache: {stats}", file=sys.stderr)
            return 1

        # Gate 2: answers must agree bit-for-bit.
        if warm_answer.result.ate != cold_answer.result.ate:
            print(
                f"FAIL: warm ATE {warm_answer.result.ate!r} != cold "
                f"{cold_answer.result.ate!r}",
                file=sys.stderr,
            )
            return 1

        speedup = cold_seconds / warm_seconds
        print(f"\ncold/warm speedup: {speedup:.1f}x  (ATE {warm_answer.result.ate:+.4f})")
        if speedup < MIN_SPEEDUP:
            print(f"FAIL: speedup regressed below {MIN_SPEEDUP}x", file=sys.stderr)
            return 1
        print(f"OK: warm cache is >= {MIN_SPEEDUP}x faster end-to-end at {total_rows:,} rows")
        return 0
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
