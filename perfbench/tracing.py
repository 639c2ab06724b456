"""Per-layer accounting for the traced run, measured from outside the program.

:func:`install` replaces the public entry points the pipeline calls, as
bound where their callers look them up, with timing wrappers; nothing is
installed in an untraced run.  Layers are named after ``src/repro``
modules.  Each wrapper records, for the benchmark process only:

* the call's inclusive time under its metric name;
* its self time (inclusive minus the time of wrapped calls nested in it on
  the same thread) under its layer;
* counts read from its arguments and result.

Work inside worker processes is read from what the program already emits:
``worker.*`` spans and ``scheduler.queue_wait`` histograms shipped back to
the dispatcher's telemetry registry, cache hit/miss counters, and
scheduler/daemon ``stats()``.  The one exception is the artifact cache: a
forked worker inherits the cache wrappers, which append each load and store
to a log file in the run's work directory, so cache time and bytes include
the writes and memory-mapped reads that only workers perform.

``engine.*_s`` sum the timings the engine itself reports on each answer,
and ``engine.*_gap_s`` subtract the matching harness layers.  The two line
up only where answers are computed in the benchmark process
(``interactive``); a sharded answer reports the summed work of its
workers, which the in-process layers never see.
"""

from __future__ import annotations

import importlib
import os
import resource
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

from repro.carl.queries import QueryAnswer

LAYERS = (
    "carl.schema",
    "db.query",
    "carl.grounding",
    "graph.csr",
    "carl.peers",
    "carl.unit_table",
    "inference",
    "cache",
    "carl.shard",
    "service.scheduler",
    "service.daemon",
)


def _count_bindings(recorder: "Recorder", args: tuple, kwargs: dict, result: Any) -> None:
    recorder.count("db.query.bindings", len(result))


def _count_graph(recorder: "Recorder", args: tuple, kwargs: dict, result: Any) -> None:
    recorder.count("carl.grounding.nodes", len(result))
    recorder.count("carl.grounding.edges", result.number_of_edges())


def _count_peers(recorder: "Recorder", args: tuple, kwargs: dict, result: Any) -> None:
    units = args[3] if len(args) > 3 else kwargs["units"]
    recorder.count("carl.peers.walks", len(units))
    recorder.count("carl.peers.pairs", sum(len(peers) for peers in result.values()))


def _count_inputs(recorder: "Recorder", args: tuple, kwargs: dict, result: Any) -> None:
    recorder.count("carl.unit_table.units", len(result))
    recorder.count(
        "carl.unit_table.covariate_values",
        sum(len(values) for values, _ in result.buckets.values()),
    )


def _count_bytes(recorder: "Recorder", args: tuple, kwargs: dict, result: Any) -> None:
    if result is not None:
        recorder.count("cache.bytes_stored", Path(result).stat().st_size)


#: (module, class or None for a module-level binding, attribute, layer,
#: metric of the call's inclusive time, count hook).
PATCHES: tuple[tuple[str, str | None, str, str, str, Callable | None], ...] = (
    ("repro.carl.schema", "RelationalCausalSchema", "bind", "carl.schema", "carl.schema.bind_s", None),
    ("repro.db.query", "ConjunctiveQuery", "evaluate", "db.query", "db.query.evaluate_s", _count_bindings),
    ("repro.carl.grounding", "Grounder", "ground", "carl.grounding", "carl.grounding.ground_s", _count_graph),
    ("repro.carl.grounding", "Grounder", "grounded_attribute_values", "carl.grounding", "carl.grounding.values_s", None),
    ("repro.carl.grounding", "Grounder", "condition_bindings", "carl.grounding", "carl.grounding.condition_s", None),
    ("repro.graph.csr", "CSRGraph", "from_edges", "graph.csr", "graph.csr.compile_s", None),
    ("repro.graph.csr", "CSRGraph", "ancestor_mask", "graph.csr", "graph.csr.ancestor_sweep_s", None),
    ("repro.carl.engine", None, "compute_peers", "carl.peers", "carl.peers.compute_s", _count_peers),
    ("repro.carl.engine", None, "collect_unit_table_inputs", "carl.unit_table", "carl.unit_table.collect_s", _count_inputs),
    ("repro.carl.engine", None, "materialize_unit_table", "carl.unit_table", "carl.unit_table.materialize_s", None),
    ("repro.carl.engine", "CaRLEngine", "_estimate_result", "inference", "inference.estimate_s", None),
    ("repro.cache.store", "ArtifactCache", "load", "cache", "cache.load_s", None),
    ("repro.cache.store", "ArtifactCache", "store", "cache", "cache.store_s", _count_bytes),
    ("repro.service.scheduler", "ShardScheduler", "start", "service.scheduler", "service.scheduler.start_s", None),
    ("repro.service.session", "QuerySession", "submit", "service.daemon", "service.daemon.submit_s", None),
)

WORKER_COLLECT_SPANS = ("worker.collect", "worker.store")
WORKER_FINISH_SPANS = ("worker.merge", "worker.materialize", "worker.estimate")


class Recorder:
    """Thread-safe accumulator the wrappers report to while it is started."""

    def __init__(self, workdir: Path) -> None:
        self.pid = os.getpid()
        self.worker_log = workdir / "worker-cache.log"
        self.active = False
        self.window = (0.0, 0.0)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.inclusive: dict[str, float] = defaultdict(float)
            self.exclusive: dict[str, float] = defaultdict(float)
            self.layer_self: dict[str, float] = defaultdict(float)
            self.calls: dict[str, int] = defaultdict(int)
            self.counts: dict[str, int] = defaultdict(int)
            #: (t0, t1) of every outermost wrapped call, all threads.
            self.outermost: list[tuple[float, float]] = []
        self.worker_log.unlink(missing_ok=True)

    def start(self) -> None:
        self.active = True

    def stop(self, t0: float, t1: float) -> None:
        self.active = False
        self.window = (t0, t1)

    def stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, layer: str, metric: str, t0: float, t1: float, child: float, outermost: bool) -> None:
        duration = t1 - t0
        with self._lock:
            self.inclusive[metric] += duration
            self.exclusive[metric] += duration - child
            self.layer_self[layer] += duration - child
            self.calls[metric] += 1
            if outermost:
                self.outermost.append((t0, t1))

    def count(self, name: str, value: int) -> None:
        with self._lock:
            self.counts[name] += value

    def log_worker_call(self, metric: str, t0: float, t1: float, result: Any) -> None:
        size = Path(result).stat().st_size if metric == "cache.store_s" and result is not None else 0
        with open(self.worker_log, "a", encoding="utf-8") as handle:
            handle.write(f"{metric}\t{t0!r}\t{t1!r}\t{size}\t{os.getpid()}\n")

    def worker_calls(self) -> list[tuple[str, float, float, int, int]]:
        if not self.worker_log.exists():
            return []
        calls = []
        for line in self.worker_log.read_text(encoding="utf-8").splitlines():
            metric, t0, t1, size, pid = line.split("\t")
            calls.append((metric, float(t0), float(t1), int(size), int(pid)))
        return calls


def _wrap(recorder: Recorder, layer: str, metric: str, original: Callable, hook: Callable | None) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not recorder.active:
            return original(*args, **kwargs)
        if os.getpid() != recorder.pid:
            if layer != "cache":
                return original(*args, **kwargs)
            t0 = time.monotonic()
            result = original(*args, **kwargs)
            recorder.log_worker_call(metric, t0, time.monotonic(), result)
            return result
        stack = recorder.stack()
        frame = [0.0]
        stack.append(frame)
        t0 = time.monotonic()
        try:
            result = original(*args, **kwargs)
        finally:
            t1 = time.monotonic()
            stack.pop()
            if stack:
                stack[-1][0] += t1 - t0
            recorder.record(layer, metric, t0, t1, frame[0], outermost=not stack)
        if hook is not None:
            hook(recorder, args, kwargs, result)
        return result

    return wrapper


def install(recorder: Recorder) -> list[tuple[Any, str, Any]]:
    """Install every wrapper; returns what :func:`uninstall` restores."""
    patches = []
    for module_name, class_name, attribute, layer, metric, hook in PATCHES:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        raw = vars(owner)[attribute]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(_wrap(recorder, layer, metric, raw.__func__, hook))
        else:
            replacement = _wrap(recorder, layer, metric, raw, hook)
        setattr(owner, attribute, replacement)
        patches.append((owner, attribute, raw))
    return patches


def uninstall(patches: list[tuple[Any, str, Any]]) -> None:
    for owner, attribute, raw in reversed(patches):
        setattr(owner, attribute, raw)


def _union_length(intervals: list[tuple[float, float]], lower: float, upper: float) -> float:
    covered = 0.0
    end = lower
    for t0, t1 in sorted(intervals):
        t0, t1 = max(t0, end), min(t1, upper)
        if t1 > t0:
            covered += t1 - t0
            end = t1
    return covered


def layer_metrics(
    recorder: Recorder,
    rep: Any,
    events: list[dict[str, Any]],
    counters: dict[str, int],
    untraced_wall: float,
    setup_grounding_s: float,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced repetition, as (value, unit)."""
    inclusive, calls, counts = recorder.inclusive, recorder.calls, recorder.counts
    lower, upper = recorder.window
    metrics: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = (float(value), unit)

    put("carl.schema.bind_s", inclusive["carl.schema.bind_s"], "s")
    put("db.query.evaluate_s", inclusive["db.query.evaluate_s"], "s")
    put("db.query.calls", calls["db.query.evaluate_s"], "count")
    put("db.query.bindings", counts["db.query.bindings"], "count")
    put("carl.grounding.ground_s", recorder.exclusive["carl.grounding.ground_s"], "s")
    put("carl.grounding.values_s", inclusive["carl.grounding.values_s"], "s")
    put("carl.grounding.condition_s", inclusive["carl.grounding.condition_s"], "s")
    put("carl.grounding.nodes", counts["carl.grounding.nodes"], "count")
    put("carl.grounding.edges", counts["carl.grounding.edges"], "count")
    put("carl.grounding.setup_s", setup_grounding_s, "s")
    put("graph.csr.compile_s", inclusive["graph.csr.compile_s"], "s")
    put("graph.csr.ancestor_sweeps", calls["graph.csr.ancestor_sweep_s"], "count")
    put("graph.csr.ancestor_sweep_s", inclusive["graph.csr.ancestor_sweep_s"], "s")
    put("carl.peers.compute_s", inclusive["carl.peers.compute_s"], "s")
    put("carl.peers.walks", counts["carl.peers.walks"], "count")
    put("carl.peers.pairs", counts["carl.peers.pairs"], "count")
    put("carl.unit_table.collect_s", inclusive["carl.unit_table.collect_s"], "s")
    put("carl.unit_table.materialize_s", inclusive["carl.unit_table.materialize_s"], "s")
    put("carl.unit_table.units", counts["carl.unit_table.units"], "count")
    put("carl.unit_table.covariate_values", counts["carl.unit_table.covariate_values"], "count")
    put("inference.estimate_s", inclusive["inference.estimate_s"], "s")
    put("inference.estimates", calls["inference.estimate_s"], "count")

    worker_cache = recorder.worker_calls()
    worker_seconds = defaultdict(float)
    for metric, t0, t1, _size, _pid in worker_cache:
        worker_seconds[metric] += t1 - t0
    hits, misses = counters.get("cache.hit", 0), counters.get("cache.miss", 0)
    put("cache.load_s", inclusive["cache.load_s"] + worker_seconds["cache.load_s"], "s")
    put("cache.store_s", inclusive["cache.store_s"] + worker_seconds["cache.store_s"], "s")
    put("cache.hit_ratio", hits / (hits + misses) if hits + misses else 0.0, "ratio")
    put(
        "cache.bytes_stored",
        counts["cache.bytes_stored"] + sum(size for *_, size, _pid in worker_cache),
        "bytes",
    )

    spans = [
        event for event in events
        if event.get("kind") == "span" and str(event.get("event", "")).startswith("worker.")
    ]
    span_seconds = defaultdict(float)
    for span in spans:
        span_seconds[span["event"]] += span["t1"] - span["t0"]
    busy = sum(span_seconds.values())
    put("carl.shard.worker_collect_s", sum(span_seconds[name] for name in WORKER_COLLECT_SPANS), "s")
    put("carl.shard.worker_finish_s", sum(span_seconds[name] for name in WORKER_FINISH_SPANS), "s")
    put("carl.shard.idle_s", rep.jobs * (upper - lower) - busy if rep.jobs else 0.0, "s")
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    put("carl.shard.worker_rss_mb", children_kb / 1024.0 if rep.jobs else 0.0, "MB")

    scheduler = rep.stats.get("scheduler", {})
    waits = [
        event["value"] for event in events
        if event.get("event") == "scheduler.queue_wait" and event.get("kind") == "histogram"
    ]
    finish_tasks = scheduler.get("finish_tasks_run", 0)
    put("service.scheduler.start_s", inclusive["service.scheduler.start_s"], "s")
    put("service.scheduler.queue_wait_p50_s", statistics.median(waits) if waits else 0.0, "s")
    put("service.scheduler.collect_tasks", scheduler.get("collect_tasks_run", 0), "count")
    put("service.scheduler.finish_tasks", finish_tasks, "count")
    put(
        "service.scheduler.finish_useful_ratio",
        rep.distinct / finish_tasks if finish_tasks else 0.0,
        "ratio",
    )
    put("service.scheduler.retries", scheduler.get("retries", 0), "count")
    put("service.daemon.submit_s", inclusive["service.daemon.submit_s"], "s")
    put("service.daemon.rejected", rep.stats.get("rejected", 0), "count")

    # Self time: in-process layers from the wrappers' nesting; worker spans
    # belong to carl.shard minus the cache calls the worker made inside them.
    worker_cache_seconds = sum(t1 - t0 for _m, t0, t1, _s, _p in worker_cache)
    self_seconds = dict(recorder.layer_self)
    self_seconds["cache"] = self_seconds.get("cache", 0.0) + worker_cache_seconds
    self_seconds["carl.shard"] = busy - worker_cache_seconds if spans else 0.0
    for layer in LAYERS:
        put(f"{layer}.self_s", self_seconds.get(layer, 0.0), "s")

    answers = [outcome for _, outcome in rep.outcomes if isinstance(outcome, QueryAnswer)]
    engine_grounding = sum(answer.grounding_seconds for answer in answers)
    engine_unit_table = sum(answer.unit_table_seconds for answer in answers)
    engine_estimation = sum(answer.estimation_seconds for answer in answers)
    put("engine.grounding_s", engine_grounding, "s")
    put("engine.unit_table_s", engine_unit_table, "s")
    put("engine.estimation_s", engine_estimation, "s")
    put(
        "engine.grounding_gap_s",
        engine_grounding
        - inclusive["carl.grounding.ground_s"]
        - inclusive["carl.grounding.values_s"],
        "s",
    )
    put(
        "engine.unit_table_gap_s",
        engine_unit_table
        - inclusive["carl.peers.compute_s"]
        - inclusive["carl.unit_table.collect_s"]
        - inclusive["carl.unit_table.materialize_s"],
        "s",
    )
    put("engine.estimation_gap_s", engine_estimation - inclusive["inference.estimate_s"], "s")

    covered = recorder.outermost + [(span["t0"], span["t1"]) for span in spans]
    covered += [(t0, t1) for _m, t0, t1, _s, _p in worker_cache]
    put("trace.unattributed_s", (upper - lower) - _union_length(covered, lower, upper), "s")
    put("trace.overhead_frac", rep.wall / untraced_wall - 1.0, "ratio")
    return metrics
