"""Self-test of the benchmark: every workload once at toy scale.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For each workload it runs ``run.py --toy`` untraced and traced, each in its
own process, and asserts that

* every metric ``BENCHMARK.json`` declares is emitted, with its unit;
* no operation failed;
* the layer counters the workload exercises are non-zero;
* the counters of the layers the workload bypasses are zero.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: workload -> (per-layer metrics that must be non-zero, ones that must be 0).
EXPECT: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "interactive": (
        (
            "carl.schema.bind_s", "db.query.calls", "db.query.bindings",
            "carl.grounding.ground_s", "carl.grounding.nodes", "carl.grounding.edges",
            "carl.grounding.condition_s", "graph.csr.compile_s",
            "graph.csr.ancestor_sweeps", "carl.peers.walks", "carl.peers.pairs",
            "carl.unit_table.units", "carl.unit_table.covariate_values",
            "inference.estimates", "engine.grounding_s", "engine.unit_table_s",
        ),
        (
            "cache.load_s", "cache.store_s", "cache.bytes_stored",
            "carl.shard.worker_collect_s", "carl.shard.worker_finish_s",
            "service.scheduler.start_s", "service.scheduler.collect_tasks",
            "service.scheduler.finish_tasks", "service.daemon.submit_s",
        ),
    ),
    "service_stream": (
        (
            "cache.load_s", "cache.store_s", "cache.bytes_stored", "cache.hit_ratio",
            "carl.shard.worker_collect_s", "carl.shard.worker_finish_s",
            "service.scheduler.start_s", "service.scheduler.collect_tasks",
            "service.scheduler.finish_tasks", "service.scheduler.finish_useful_ratio",
            "service.scheduler.queue_wait_p50_s", "service.daemon.submit_s",
            "inference.estimates",
        ),
        (
            "carl.grounding.nodes", "graph.csr.ancestor_sweeps", "carl.peers.walks",
            "carl.unit_table.units", "service.daemon.rejected",
            "service.scheduler.retries",
        ),
    ),
    "process_batch": (
        (
            "cache.store_s", "cache.bytes_stored", "cache.hit_ratio",
            "carl.shard.worker_collect_s", "carl.shard.worker_finish_s",
            "carl.shard.worker_rss_mb",
        ),
        (
            "carl.grounding.nodes", "graph.csr.ancestor_sweeps", "carl.peers.walks",
            "carl.unit_table.units", "inference.estimates",
            "service.scheduler.collect_tasks", "service.daemon.submit_s",
        ),
    ),
}


def run_once(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(
            f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_units(result: dict, declared: list[dict], label: str) -> list[str]:
    problems = []
    emitted = result["metrics"]
    for metric in declared:
        got = emitted.get(metric["name"])
        if got is None:
            problems.append(f"{label}: {metric['name']} not emitted")
        elif got["unit"] != metric["unit"]:
            problems.append(f"{label}: {metric['name']} unit {got['unit']!r} != {metric['unit']!r}")
    extra = set(emitted) - {metric["name"] for metric in declared}
    problems += [f"{label}: {name} emitted but not declared" for name in sorted(extra)]
    if result["failed"] or not result["correct"]:
        problems.append(f"{label}: {result['failed']} of {result['attempted']} operations failed")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    for workload, (nonzero, zero) in EXPECT.items():
        untraced = run_once(workload, 0)
        problems += check_units(untraced, spec["end_to_end"], f"{workload} untraced")
        traced = run_once(workload, 1)
        problems += check_units(traced, spec["per_layer"], f"{workload} traced")
        values = {name: metric["value"] for name, metric in traced["metrics"].items()}
        problems += [f"{workload}: {name} is 0" for name in nonzero if not values.get(name)]
        problems += [f"{workload}: {name} = {values.get(name)}, expected 0"
                     for name in zero if values.get(name) != 0]
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    if not problems:
        print("selftest OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
