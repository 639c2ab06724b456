"""The repository benchmark: one seeded workload per invocation.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 25 --trace 0
    python3 perfbench/selftest.py      # every workload once at toy scale

The seed alone determines the workload's inputs (generated datasets, query
stream); the program receives only those generated inputs.  A run

1. sets the workload up several times and reports the median as
   ``setup_s``;
2. computes the reference answers, outside every timed region;
3. with ``--trace 0``, repeats the workload's timed region until
   ``--seconds`` are spent (at least once), unmodified, and reports every
   end-to-end metric as the median over repetitions; with ``--trace 1``,
   runs the timed region once untraced and once with the layer wrappers
   of ``tracing.py`` installed, and reports every per-layer metric;
4. checks every answer; wrong answers, errors, timeouts and refusals count
   as failed operations.

It prints a table of the metrics (name, value, unit, sample count), a
stamp line (seed, machine and toolchain), and as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  It exits 1 when
any operation failed and 2 when the program under test is missing.

The six timing metrics are computed the same way on every workload from
the (submitted, delivered) instants of its answers, measured from the start
of the timed region: ``cold_answer_s`` is the first delivery,
``followup_answer_s`` the median latency of the later answers,
``stream_qps`` answers per second of the region, ``stream_p50_s`` /
``stream_p90_s`` the submit-to-delivery latency quantiles and ``batch_s``
the region's wall time.  ``answer_all`` delivers a batch at once, so on
``process_batch`` all six derive from the batch wall time.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(seed: int) -> dict[str, Any]:
    import numpy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
        "commit": git_commit(ROOT),
    }


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def timing_metrics(reps: list[Any]) -> dict[str, tuple[float, int]]:
    """The six timing metrics, each with its sample count.

    Each is the median over repetitions of the repetition's own figure;
    the follow-up median pools the later answers of every repetition.
    """
    colds, rates, walls, later, latencies, p50s, p90s = [], [], [], [], [], [], []
    for rep in reps:
        ordered = sorted(rep.deliveries, key=lambda pair: pair[1])
        if not ordered:
            continue
        own = [delivered - submitted for submitted, delivered in ordered]
        colds.append(ordered[0][1])
        rates.append(len(ordered) / rep.wall)
        walls.append(rep.wall)
        p50s.append(percentile(own, 50.0))
        p90s.append(percentile(own, 90.0))
        later += own[1:]
        latencies += own
    if not latencies:
        return {name: (0.0, 0) for name in TIMING_UNITS}
    later = later or latencies
    return {
        "cold_answer_s": (statistics.median(colds), len(colds)),
        "followup_answer_s": (statistics.median(later), len(later)),
        "stream_qps": (statistics.median(rates), len(rates)),
        "stream_p50_s": (statistics.median(p50s), len(latencies)),
        "stream_p90_s": (statistics.median(p90s), len(latencies)),
        "batch_s": (statistics.median(walls), len(walls)),
    }


TIMING_UNITS = {
    "cold_answer_s": "s",
    "followup_answer_s": "s",
    "stream_qps": "1/s",
    "stream_p50_s": "s",
    "stream_p90_s": "s",
    "batch_s": "s",
}


def consistency(workload: str, reps: list[Any]) -> list[str]:
    """Answers of every repetition must be bit-identical to the first's."""
    from workloads import answer_fields
    from repro.carl.queries import QueryAnswer

    first: dict[str, tuple[str, ...]] = {}
    failures = []
    for number, rep in enumerate(reps):
        for name, outcome in rep.outcomes:
            if not isinstance(outcome, QueryAnswer):
                continue
            fields = answer_fields(outcome)
            if first.setdefault(name, fields) != fields:
                failures.append(f"{workload} repetition {number}: {name} differs from repetition 0")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy", action="store_true", help="toy scale (the benchmark's self-test)"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program under test at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    # The program's private temporary caches (and any flight-recorder dump)
    # stay inside the checkout.
    tempfile.tempdir = str(workdir)
    os.environ["TMPDIR"] = str(workdir)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def run(args: argparse.Namespace, workdir: Path) -> int:
    from workloads import WORKLOADS, Window

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.toy, workdir)
    run_stamp = stamp(args.seed)

    setup_times = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None and hasattr(workload, "dispose"):
            workload.dispose(state)
        state = None
        gc.collect()
        started = time.monotonic()
        state = workload.setup(args.seed)
        setup_times.append(time.monotonic() - started)
    started = time.monotonic()
    reference = workload.reference(state)
    reference_s = time.monotonic() - started
    gc.collect()

    reps = []
    failures: list[str] = []
    metrics: dict[str, tuple[float, str, int]] = {}
    if args.trace:
        from tracing import Recorder, install, layer_metrics, uninstall
        from repro.observability.telemetry import reset_registry

        untraced = workload.run(state, Window())
        reps.append(untraced)
        failures += untraced.failures + workload.check(state, reference, untraced)

        recorder = Recorder(workdir)
        patches = install(recorder)
        try:
            recorder.start()
            traced_setup = workload.setup(args.seed)
            recorder.stop(0.0, 0.0)
            setup_grounding = (
                recorder.inclusive["carl.grounding.ground_s"]
                + recorder.inclusive["carl.grounding.values_s"]
            )
            if hasattr(workload, "dispose"):
                workload.dispose(traced_setup)
            del traced_setup
            gc.collect()
            recorder.reset()
            registry = reset_registry(capacity=500_000)
            traced = workload.run(state, Window(recorder))
        finally:
            uninstall(patches)
        reps.append(traced)
        failures += traced.failures + workload.check(state, reference, traced)
        layer = layer_metrics(
            recorder, traced, registry.events(), registry.counters(),
            untraced.wall, setup_grounding,
        )
        metrics = {name: (value, unit, 1) for name, (value, unit) in layer.items()}
    else:
        started = time.monotonic()
        while True:
            rep = workload.run(state, Window())
            reps.append(rep)
            failures += rep.failures + workload.check(state, reference, rep)
            elapsed = time.monotonic() - started
            if elapsed + rep.wall > args.seconds:
                break
        metrics["setup_s"] = (statistics.median(setup_times), "s", len(setup_times))
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB", 1)
        for name, (value, samples) in timing_metrics(reps).items():
            metrics[name] = (value, TIMING_UNITS[name], samples)
    failures += consistency(args.workload, reps)
    if hasattr(workload, "dispose"):
        workload.dispose(state)

    attempted = sum(rep.attempted for rep in reps)
    failed = min(attempted, len(failures))
    print(f"workload {args.workload}: {len(reps)} repetition(s), "
          f"{attempted} operations attempted, {failed} failed; set-ups "
          f"{sum(setup_times):.1f}s, reference {reference_s:.1f}s, "
          f"timed regions {sum(rep.wall for rep in reps):.1f}s")
    for message in failures[:20]:
        print(f"  FAILED {message}")
    print(f"{'metric':42s} {'value':>16s} {'unit':8s} {'samples':>7s}")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:42s} {value:16.6f} {unit:8s} {samples:7d}")
    print(json.dumps({"stamp": run_stamp}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
