"""Column-major production path vs the row oracle (regression check).

Measures rows/sec for the two hot paths the production code vectorizes —
group-by aggregation over a base table and unit-table construction — at 10k
and 100k rows, against the row-at-a-time reference in ``tests/row_oracle.py``,
and asserts the production path is at least ``MIN_SPEEDUP``x faster at the
100k scale.  Run directly::

    PYTHONPATH=src python benchmarks/bench_columnar_backend.py

The assertion makes the speedup a measured regression check rather than a
claim: if a later change drags the production path back toward
row-at-a-time speed, this script fails.
"""

from __future__ import annotations

import gc
import random
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT / "src", _ROOT / "tests"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import row_oracle
from graph_builder import build_graph
from repro.carl.causal_graph import GroundedAttribute
from repro.carl.peers import compute_peers
from repro.carl.unit_table import build_unit_table
from repro.db.table import Table

#: Required production-vs-oracle speedup at the 100k scale (acceptance criterion).
MIN_SPEEDUP = 5.0

SIZES = (10_000, 100_000)
N_PEERS = 6  # ring peers per unit (dense-ish relational neighborhoods)
REPEATS = 3  # timed repetitions per path; median to damp scheduler noise

#: The paper's numeric aggregate set (Section 3.2.4), as one group-by sweep.
AGGREGATE_SWEEP = ("COUNT", "SUM", "AVG", "MIN", "MAX", "MEDIAN", "VAR", "STD", "SKEW")


def _timed(fn):
    """Median-of-REPEATS wall time (gc collected before each rep).

    Median, not best-of: the oracle's per-row dict churn makes the
    collector run during its reps — that cost is intrinsic to row-at-a-time
    execution, and best-of would cherry-pick the one lucky GC-free rep.  The
    median keeps typical GC behavior for both paths while damping scheduler
    outliers.
    """
    samples = []
    result = None
    for _ in range(REPEATS):
        gc.collect()
        started = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - started)
    samples.sort()
    return result, samples[len(samples) // 2]


# ----------------------------------------------------------------------
# scenario 1: group-by aggregate over a base table
# ----------------------------------------------------------------------
def _make_rows(n: int, seed: int = 0) -> list[dict]:
    rng = random.Random(seed)
    return [
        {"g": rng.randrange(max(n // 50, 1)), "v": rng.uniform(-10.0, 10.0)}
        for _ in range(n)
    ]


def bench_group_by(n: int) -> dict:
    rows = _make_rows(n)
    dtypes = {"g": "int", "v": "float"}
    aggregations = {name.lower(): ("v", name) for name in AGGREGATE_SWEEP}

    table = Table.from_rows("events", rows, dtypes=dtypes)
    oracle = row_oracle.RowTable(table.schema, rows)
    table.array("g"), table.array("v")  # warm the array cache

    oracle_result, oracle_seconds = _timed(lambda: oracle.group_by(["g"], aggregations))
    result, production_seconds = _timed(lambda: table.group_by(["g"], aggregations))
    assert len(oracle_result) == len(result)
    return {
        "scenario": "group_by",
        "rows": n,
        "rows_per_sec_oracle": n / oracle_seconds,
        "rows_per_sec_production": n / production_seconds,
        "speedup": oracle_seconds / production_seconds,
        "oracle_seconds": oracle_seconds,
        "production_seconds": production_seconds,
    }


# ----------------------------------------------------------------------
# scenario 2: unit-table construction
# ----------------------------------------------------------------------
NUMERIC_COVARIATES = ("Age", "Income", "Severity", "Score")


def _make_grounded(n: int, seed: int = 1):
    """n units with own treatment/outcome, four numeric covariates, one
    categorical covariate and ring peers — the shape of the paper's unit
    tables (confounders feeding both arms, dense relational neighborhoods)."""
    rng = random.Random(seed)
    nodes: list[GroundedAttribute] = []
    edges: list[tuple[GroundedAttribute, GroundedAttribute]] = []
    values: dict[GroundedAttribute, object] = {}
    units = [(index,) for index in range(n)]
    for unit in units:
        treatment = GroundedAttribute("T", unit)
        outcome = GroundedAttribute("Y", unit)
        covariates = tuple(
            GroundedAttribute(attribute, unit) for attribute in NUMERIC_COVARIATES
        ) + (GroundedAttribute("Region", unit),)
        nodes += (treatment, *covariates, outcome)
        edges += ((covariate, treatment) for covariate in covariates)
        edges += ((parent, outcome) for parent in (treatment, *covariates))
        values[treatment] = rng.randrange(2)
        values[outcome] = rng.uniform(0.0, 5.0)
        for covariate in covariates[:-1]:
            values[covariate] = rng.uniform(0.0, 100.0)
        values[covariates[-1]] = rng.choice(("north", "south", "east", "west"))
    for (index,) in units:
        ring = [((index + offset) % n,) for offset in range(1, N_PEERS + 1) if n > 1]
        edges += ((GroundedAttribute("T", peer), GroundedAttribute("Y", (index,))) for peer in ring)
    return build_graph(nodes, edges), values, units


def bench_unit_table(n: int) -> dict:
    graph, values, units = _make_grounded(n)
    # Both builders take the same peers (found outside the timed region):
    # production reads the walk's arrays, the oracle their {unit: keys} form.
    peers = compute_peers(graph, "T", "Y", units)
    peer_keys = peers.to_dict()

    def build(builder, peers):
        return builder(
            graph,
            values,
            "T",
            "Y",
            units,
            peers,
            is_observed=lambda name: True,
            embedding="moments",
        )

    oracle_result, oracle_seconds = _timed(lambda: build(row_oracle.build_unit_table, peer_keys))
    result, production_seconds = _timed(lambda: build(build_unit_table, peers))
    assert len(oracle_result) == len(result) == n
    assert oracle_result.covariate_columns == result.covariate_columns
    return {
        "scenario": "unit_table",
        "rows": n,
        "rows_per_sec_oracle": n / oracle_seconds,
        "rows_per_sec_production": n / production_seconds,
        "speedup": oracle_seconds / production_seconds,
        "oracle_seconds": oracle_seconds,
        "production_seconds": production_seconds,
    }


def main() -> int:
    results = []
    for n in SIZES:
        results.append(bench_group_by(n))
        results.append(bench_unit_table(n))

    header = f"{'scenario':<12} {'rows':>8} {'rows/s (oracle)':>15} {'rows/s (production)':>19} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for result in results:
        print(
            f"{result['scenario']:<12} {result['rows']:>8} "
            f"{result['rows_per_sec_oracle']:>15,.0f} {result['rows_per_sec_production']:>19,.0f} "
            f"{result['speedup']:>8.1f}x"
        )

    at_scale = [r for r in results if r["rows"] == max(SIZES)]
    combined_oracle = sum(r["oracle_seconds"] for r in at_scale)
    combined_production = sum(r["production_seconds"] for r in at_scale)
    combined = combined_oracle / combined_production
    print(
        f"\ncombined at {max(SIZES):,} rows: {combined_oracle:.2f}s (oracle) vs "
        f"{combined_production:.2f}s (production) -> {combined:.1f}x"
    )
    # The regression gate is the combined pipeline time (unit table +
    # aggregation) at the 100k scale; per-scenario speedups are printed for
    # visibility but jitter too much individually to gate on.
    if combined < MIN_SPEEDUP:
        print(f"FAIL: combined speedup regressed below {MIN_SPEEDUP}x", file=sys.stderr)
        return 1
    print(
        f"OK: production path is >= {MIN_SPEEDUP}x faster than the oracle at {max(SIZES):,} rows "
        "(combined group-by + unit-table)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
