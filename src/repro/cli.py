"""Command-line interface for CaRL.

Lets an analyst run causal queries against a directory of CSV files without
writing Python::

    python -m repro.cli --data ./csv_dir --program model.carl \
        --query "Death[P] <= SelfPay[P] ?"

Multiple ``--query`` flags form a batch; ``--jobs N`` answers it through the
engine's concurrent batch executor (one grounding up front, worker threads
overlapping the per-query work) instead of a serial loop — answers are
identical either way.  ``--stream`` switches to the streaming query service
(``docs/service.md``): each answer prints the moment its query completes,
a failing query reports its own error while the rest stream on, and
``--timeout``/``--retries`` control per-query deadlines and the scheduler's
task retry budget.  ``answer`` may be given as an explicit leading
subcommand (``python -m repro.cli answer --demo toy --jobs 4``).

The data directory must contain one ``<Predicate>.csv`` per entity and
relationship declared in the program; column names must match the declared
keys and attribute columns (as produced by ``Database.export_csv``).
A built-in demo (``--demo toy|review|synthetic|mimic|nis``) runs the same
pipeline on the bundled synthetic datasets.

Passing ``--cache DIR`` runs the engine against a persistent artifact cache
(groundings and unit tables are reused across invocations); the ``cache``
command group inspects and manages such a cache::

    python -m repro.cli cache ls    [--root DIR]
    python -m repro.cli cache stats [--root DIR] [--json]
    python -m repro.cli cache clear [--root DIR] [--kind KIND]

Passing ``--telemetry FILE`` appends every structured telemetry event of the
run (query span trees, cache counters — ``docs/observability.md``) to a
JSON-lines log; the ``telemetry`` command group reads such logs back::

    python -m repro.cli telemetry dump    --log FILE [--event NAME] [--json]
    python -m repro.cli telemetry summary --log FILE [--json]

The ``trace`` command renders one query's stitched span tree — dispatcher
spans plus the worker-process spans shipped back and merged into the same
trace — as an ASCII waterfall with per-span worker attribution::

    python -m repro.cli trace QUERY --log FILE [--width N] [--json]

``QUERY`` is either a trace id (``t3``) or a query index (the root ``query``
span's ``index`` metadata; the most recent matching trace wins).

The ``chaos`` command runs a demo workload under a seeded fault plan and
verifies the robustness contract — every query bit-identical to its no-fault
serial answer or a structured error, never a hang
(``docs/fault_injection.md``)::

    python -m repro.cli chaos --demo toy --seed 7 [--plan FILE] [--json]
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from pathlib import Path
from typing import Any

from repro.cache.store import ArtifactCache
from repro.carl.engine import CaRLEngine
from repro.carl.parser import parse_program
from repro.carl.queries import ATEResult, EffectsResult, QueryAnswer
from repro.carl.schema import RelationalCausalSchema
from repro.db.database import Database

#: Default artifact-cache root for the ``cache`` command group (overridable
#: per invocation with ``--root`` or globally with ``$REPRO_CACHE_DIR``).
DEFAULT_CACHE_ROOT = ".repro-cache"


def load_database_from_csv(directory: str | Path, program_text: str) -> Database:
    """Load ``<Predicate>.csv`` files for every predicate declared in ``program_text``."""
    directory = Path(directory)
    program = parse_program(program_text)
    schema = RelationalCausalSchema.from_program(program)
    database = Database(name=directory.name or "csv")
    for predicate in schema.entity_names + schema.relationship_names:
        path = directory / f"{predicate}.csv"
        if not path.exists():
            raise FileNotFoundError(
                f"no CSV file for predicate {predicate!r}: expected {path}"
            )
        database.import_csv(predicate, path)
    return database


def _demo(name: str):
    """Return (database, program, default queries) for a bundled demo dataset."""
    from repro import datasets

    if name == "toy":
        return (
            datasets.toy_review_database(),
            datasets.TOY_REVIEW_PROGRAM,
            {"ate": "AVG_Score[A] <= Prestige[A] ?"},
        )
    if name == "review":
        data = datasets.generate_review_data()
        return data.database, data.program, data.queries
    if name == "synthetic":
        data = datasets.generate_synthetic_review_data()
        return data.database, data.program, data.queries
    if name == "mimic":
        data = datasets.generate_mimic_data()
        return data.database, data.program, data.queries
    if name == "nis":
        data = datasets.generate_nis_data()
        return data.database, data.program, data.queries
    raise ValueError(f"unknown demo dataset {name!r}")


def result_to_dict(answer: QueryAnswer) -> dict[str, Any]:
    """Flatten a query answer into a JSON-serializable dictionary."""
    result = answer.result
    payload: dict[str, Any] = {
        "query": str(answer.query),
        "n_units": result.n_units,
        "estimator": result.estimator,
        "naive_difference": result.naive_difference,
        "correlation": result.correlation,
        "unit_table_seconds": answer.unit_table_seconds,
        "estimation_seconds": answer.estimation_seconds,
        "grounding_seconds": answer.grounding_seconds,
    }
    if isinstance(result, ATEResult):
        payload.update(
            {
                "kind": "ate",
                "ate": result.ate,
                "treated_mean": result.treated_mean,
                "control_mean": result.control_mean,
                "n_treated": result.n_treated,
                "n_control": result.n_control,
                "confidence_interval": result.confidence_interval,
            }
        )
    elif isinstance(result, EffectsResult):
        payload.update(
            {
                "kind": "effects",
                "aie": result.aie,
                "are": result.are,
                "aoe": result.aoe,
                "peer_condition": str(result.peer_condition),
                "mean_peer_count": result.mean_peer_count,
            }
        )
    return payload


def _print_answer_text(name: str, payload: dict[str, Any]) -> None:
    """Render one answered query as the CLI's text block."""
    print(f"\n[{name}] {payload['query']}")
    if payload["kind"] == "ate":
        print(f"  ATE               : {payload['ate']:+.4f}")
        print(f"  naive difference  : {payload['naive_difference']:+.4f}")
        print(f"  correlation       : {payload['correlation']:+.4f}")
        print(f"  units (T/C)       : {payload['n_units']} ({payload['n_treated']}/{payload['n_control']})")
        if payload["confidence_interval"]:
            low, high = payload["confidence_interval"]
            print(f"  95% bootstrap CI  : [{low:+.4f}, {high:+.4f}]")
    else:
        print(f"  AIE / ARE / AOE   : {payload['aie']:+.4f} / {payload['are']:+.4f} / {payload['aoe']:+.4f}")
        print(f"  peer condition    : {payload['peer_condition']}")
        print(f"  naive difference  : {payload['naive_difference']:+.4f}")
    print(f"  timings (s)       : ground {payload['grounding_seconds']:.2f}, "
          f"unit table {payload['unit_table_seconds']:.2f}, "
          f"estimate {payload['estimation_seconds']:.2f}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="Run CaRL causal queries from the command line."
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="directory of <Predicate>.csv files")
    source.add_argument(
        "--demo",
        choices=["toy", "review", "synthetic", "mimic", "nis"],
        help="use a bundled synthetic demo dataset",
    )
    parser.add_argument("--program", help="path to a .carl program file (required with --data)")
    parser.add_argument(
        "--query",
        action="append",
        default=[],
        help="a causal query (may be repeated); defaults to the demo's canonical queries",
    )
    parser.add_argument("--estimator", default="regression", help="ATE estimator to use")
    parser.add_argument("--embedding", default="mean", help="embedding for covariates/peers")
    parser.add_argument("--bootstrap", type=int, default=0, help="bootstrap replicates for CIs")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="answer the queries as one concurrent batch over N workers "
        "(default 1: serial; 0 selects one job per CPU)",
    )
    parser.add_argument(
        "--executor",
        choices=["thread", "process"],
        default="thread",
        help="batch worker kind: 'thread' overlaps numpy phases, 'process' runs "
        "the shard scheduler (unit ranges collected in parallel worker "
        "processes, merged exactly; see docs/sharding.md)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="M",
        help="unit-range shards per query for --executor process "
        "(default: one per job)",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help="print each answer the moment its query completes (completion "
        "order) instead of waiting for the whole batch; a failing query "
        "prints its error and the rest stream on (see docs/service.md)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-query wall-clock budget for --stream; an expired query "
        "reports a timeout error without affecting the others",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="per-task retry budget of the --stream process scheduler: a "
        "failed shard task is requeued (on another worker) up to N times "
        "before its query fails (default 2)",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    parser.add_argument(
        "--cache",
        metavar="DIR",
        help="persistent artifact cache root: reuse groundings and unit tables "
        "across invocations (see the 'cache' command group)",
    )
    parser.add_argument(
        "--telemetry",
        metavar="FILE",
        help="append structured telemetry events (JSON lines) to FILE; read "
        "them back with the 'telemetry' command group (docs/observability.md)",
    )
    return parser


# ----------------------------------------------------------------------
# the `cache` command group
# ----------------------------------------------------------------------
def build_cache_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli cache",
        description="Inspect and manage a persistent artifact cache.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, description in (
        ("ls", "list cached artifacts"),
        ("stats", "aggregate artifact counts and sizes by kind"),
        ("clear", "delete cached artifacts"),
        ("evict", "evict least-recently-written artifacts down to a size budget"),
    ):
        subparser = subparsers.add_parser(name, help=description)
        subparser.add_argument(
            "--root",
            default=os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_ROOT),
            help=f"cache root directory (default: $REPRO_CACHE_DIR or {DEFAULT_CACHE_ROOT})",
        )
        subparser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    subparsers.choices["clear"].add_argument(
        "--kind", help="only delete artifacts of this kind (e.g. grounding, unit_table)"
    )
    subparsers.choices["evict"].add_argument(
        "--max-bytes",
        type=int,
        required=True,
        metavar="N",
        help="shrink the cache to at most N bytes, deleting oldest artifacts first; "
        "files the OS refuses to delete are skipped. Artifacts pinned by a live "
        "session — in this process or any other (each pin leaves a .pin sidecar "
        "naming its process; stale sidecars of dead processes are ignored) — "
        "are never evicted",
    )
    subparsers.choices["evict"].add_argument(
        "--kind",
        help="only evict artifacts of this kind and budget against that kind's "
        "bytes alone (e.g. --kind unit_inputs trims shard partials without "
        "touching groundings or unit tables)",
    )
    return parser


def cache_main(argv: list[str]) -> int:
    args = build_cache_parser().parse_args(argv)
    cache = ArtifactCache(args.root)

    if args.command == "ls":
        entries = cache.entries()
        if args.json:
            print(
                json.dumps(
                    [
                        {
                            "path": str(entry.path),
                            "kind": entry.kind,
                            "database": entry.key.database if entry.key else None,
                            "program": entry.key.program if entry.key else None,
                            "detail": entry.key.detail if entry.key else None,
                            "bytes": entry.size_bytes,
                            "modified": entry.modified,
                        }
                        for entry in entries
                    ],
                    indent=2,
                )
            )
            return 0
        if not entries:
            print(f"cache at {cache.root} is empty")
            return 0
        print(f"{'kind':<12} {'database':<18} {'program':<18} {'detail':<18} {'bytes':>10}  modified")
        for entry in entries:
            key = entry.key
            modified = datetime.datetime.fromtimestamp(entry.modified).isoformat(
                sep=" ", timespec="seconds"
            )
            print(
                f"{entry.kind:<12} "
                f"{(key.database[:16] if key else '?'):<18} "
                f"{(key.program[:16] if key else '?'):<18} "
                f"{((key.detail[:16] if key.detail else '-') if key else '?'):<18} "
                f"{entry.size_bytes:>10,}  {modified}"
            )
        return 0

    if args.command == "stats":
        grouped = cache.disk_stats()
        if args.json:
            print(json.dumps({"root": str(cache.root), "kinds": grouped}, indent=2))
            return 0
        total_entries = sum(bucket["entries"] for bucket in grouped.values())
        total_bytes = sum(bucket["bytes"] for bucket in grouped.values())
        print(f"cache root : {cache.root}")
        print(f"artifacts  : {total_entries} ({total_bytes:,} bytes)")
        for kind in sorted(grouped):
            bucket = grouped[kind]
            print(f"  {kind:<12} {bucket['entries']:>6} entries  {bucket['bytes']:>12,} bytes")
        return 0

    if args.command == "evict":
        if args.max_bytes < 0:
            print("--max-bytes must be >= 0", file=sys.stderr)
            return 2
        removed, freed = cache.evict(args.max_bytes, kind=args.kind)
        if args.json:
            print(json.dumps({"removed": removed, "bytes_freed": freed}))
        else:
            print(f"evicted {removed} artifact(s), freed {freed:,} bytes")
        return 0

    removed, freed = cache.clear(kind=args.kind)
    if args.json:
        print(json.dumps({"removed": removed, "bytes_freed": freed}))
    else:
        print(f"removed {removed} artifact(s), freed {freed:,} bytes")
    return 0


# ----------------------------------------------------------------------
# the `telemetry` command group
# ----------------------------------------------------------------------
def build_telemetry_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli telemetry",
        description="Read back JSON-lines telemetry logs (docs/observability.md).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, description in (
        ("dump", "print raw telemetry events, one per line"),
        ("summary", "aggregate span latencies (p50/p99), counters, gauges and histograms"),
    ):
        subparser = subparsers.add_parser(name, help=description)
        subparser.add_argument(
            "--log",
            required=True,
            metavar="FILE",
            help="JSON-lines telemetry log (written via --telemetry or a sink)",
        )
        subparser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    subparsers.choices["dump"].add_argument(
        "--event", help="only show events with this name (e.g. query.collect)"
    )
    subparsers.choices["dump"].add_argument(
        "--kind",
        choices=["span", "counter", "gauge", "histogram"],
        help="only show events of this kind",
    )
    return parser


def telemetry_main(argv: list[str]) -> int:
    from repro.observability.telemetry import read_log, summarize_events

    args = build_telemetry_parser().parse_args(argv)
    events = read_log(args.log)

    if args.command == "dump":
        if args.event:
            events = [event for event in events if event.get("event") == args.event]
        if args.kind:
            events = [event for event in events if event.get("kind") == args.kind]
        if args.json:
            print(json.dumps(events, indent=2))
            return 0
        for event in events:
            kind = event.get("kind")
            if kind == "span":
                t0, t1 = event.get("t0"), event.get("t1")
                seconds = (
                    f"{float(t1) - float(t0):.4f}s"
                    if isinstance(t0, (int, float)) and isinstance(t1, (int, float))
                    else "?"
                )
                extra = f"trace={event.get('trace')} span={event.get('span')}"
                if event.get("parent"):
                    extra += f" parent={event.get('parent')}"
                print(f"span    {event.get('event'):<20} {seconds:>10}  {extra}  {event.get('meta')}")
            else:
                print(
                    f"{kind:<7} {event.get('event'):<20} {event.get('value'):>10}  {event.get('meta')}"
                )
        if not events:
            print(f"no matching events in {args.log}")
        return 0

    summary = summarize_events(events)
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print(f"events   : {summary['events']}")
    if summary["spans"]:
        print("spans    :")
        for name, stats in summary["spans"].items():
            print(
                f"  {name:<20} n={stats['count']:<6} total={stats['total_seconds']:.4f}s "
                f"p50={stats['p50_seconds'] * 1000.0:.2f}ms p99={stats['p99_seconds'] * 1000.0:.2f}ms"
            )
    if summary["counters"]:
        print("counters :")
        for name, total in summary["counters"].items():
            print(f"  {name:<24} {total}")
    if summary["gauges"]:
        print("gauges   :")
        for name, value in summary["gauges"].items():
            print(f"  {name:<24} {value}")
    if summary["histograms"]:
        print("histograms:")
        for name, stats in summary["histograms"].items():
            print(
                f"  {name:<24} n={stats['count']:<6} p50={stats['p50']:.6g} "
                f"p99={stats['p99']:.6g}"
            )
    return 0


# ----------------------------------------------------------------------
# the `trace` command: stitched span waterfalls
# ----------------------------------------------------------------------
def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli trace",
        description=(
            "Render one query's stitched span tree (dispatcher spans plus "
            "merged worker spans) as an ASCII waterfall."
        ),
    )
    parser.add_argument(
        "query",
        help="trace id (e.g. 't3') or query index (the root span's 'index' metadata)",
    )
    parser.add_argument(
        "--log",
        required=True,
        metavar="FILE",
        help="JSON-lines telemetry log (written via --telemetry or a sink)",
    )
    parser.add_argument(
        "--width",
        type=int,
        default=48,
        metavar="N",
        help="waterfall gutter width in characters (default 48)",
    )
    parser.add_argument("--json", action="store_true", help="emit the stitched tree as JSON")
    return parser


def _span_worker(record: dict[str, Any]) -> str:
    """Worker attribution for one span: merge stamp, metadata, or id prefix."""
    worker = record.get("worker")
    if worker is None:
        meta = record.get("meta") or {}
        worker = meta.get("worker")
    if worker is not None:
        return f"w{worker}" if isinstance(worker, int) else str(worker)
    span_id = str(record.get("span", ""))
    if "." in span_id:  # role-prefixed ids: w3.s7 / p123.s1
        return span_id.split(".", 1)[0]
    return ""


def _trace_tree(
    spans: list[dict[str, Any]], root: dict[str, Any]
) -> list[tuple[dict[str, Any], int, bool]]:
    """Flatten the trace into render order: (record, depth, orphaned)."""
    by_id = {record.get("span"): record for record in spans}
    children: dict[Any, list[dict[str, Any]]] = {}
    orphans: list[dict[str, Any]] = []
    for record in spans:
        if record is root:
            continue
        parent = record.get("parent")
        if parent in by_id:
            children.setdefault(parent, []).append(record)
        else:
            orphans.append(record)

    def sort_key(record: dict[str, Any]) -> tuple[float, str]:
        t0 = record.get("t0")
        return (float(t0) if isinstance(t0, (int, float)) else 0.0, str(record.get("span")))

    rows: list[tuple[dict[str, Any], int, bool]] = []

    def walk(record: dict[str, Any], depth: int, orphaned: bool) -> None:
        rows.append((record, depth, orphaned))
        for child in sorted(children.get(record.get("span"), ()), key=sort_key):
            walk(child, depth + 1, orphaned)

    walk(root, 0, False)
    for orphan in sorted(orphans, key=sort_key):
        walk(orphan, 1, True)
    return rows


def trace_main(argv: list[str]) -> int:
    from repro.observability.telemetry import read_log

    args = build_trace_parser().parse_args(argv)
    if args.width < 8:
        print("--width must be >= 8", file=sys.stderr)
        return 2
    events = read_log(args.log)
    spans = [event for event in events if event.get("kind") == "span"]
    roots = [span for span in spans if span.get("event") == "query" and not span.get("parent")]
    root = None
    for candidate in roots:  # later records win: most recent run of the query
        if candidate.get("trace") == args.query:
            root = candidate
    if root is None:
        try:
            index: int | None = int(args.query)
        except ValueError:
            index = None
        if index is not None:
            for candidate in roots:
                if (candidate.get("meta") or {}).get("index") == index:
                    root = candidate
    if root is None:
        known = ", ".join(
            f"{span.get('trace')} (index={((span.get('meta') or {}).get('index'))})"
            for span in roots
        )
        print(
            f"no query trace matching {args.query!r} in {args.log}"
            + (f"; known roots: {known}" if known else ""),
            file=sys.stderr,
        )
        return 1

    trace_id = root.get("trace")
    trace_spans = [span for span in spans if span.get("trace") == trace_id]
    rows = _trace_tree(trace_spans, root)

    if args.json:
        print(
            json.dumps(
                [
                    {"depth": depth, "orphan": orphaned, **record}
                    for record, depth, orphaned in rows
                ],
                indent=2,
            )
        )
        return 0

    base = root.get("t0")
    end = root.get("t1")
    finished = [span.get("t1") for span in trace_spans if isinstance(span.get("t1"), (int, float))]
    if not isinstance(base, (int, float)):
        base = min(
            (span.get("t0") for span in trace_spans if isinstance(span.get("t0"), (int, float))),
            default=0.0,
        )
    if not isinstance(end, (int, float)):
        end = max(finished, default=base)
    total = max(float(end) - float(base), 0.0)
    meta = root.get("meta") or {}
    described = " ".join(f"{key}={value}" for key, value in sorted(meta.items()))
    print(f"trace {trace_id}: query {described}  total {total * 1000.0:.2f}ms")
    name_width = max(
        (len(str(record.get("event"))) + 2 * depth for record, depth, _ in rows), default=20
    )
    for record, depth, orphaned in rows:
        label = "  " * depth + str(record.get("event"))
        if orphaned:
            label += " (orphan)"
        t0, t1 = record.get("t0"), record.get("t1")
        gutter = [" "] * args.width
        if isinstance(t0, (int, float)) and isinstance(t1, (int, float)) and total > 0.0:
            start = int((float(t0) - float(base)) / total * args.width)
            stop = int((float(t1) - float(base)) / total * args.width)
            start = min(max(start, 0), args.width - 1)
            stop = min(max(stop, start + 1), args.width)
            for position in range(start, stop):
                gutter[position] = "#"
        duration = (
            f"{(float(t1) - float(t0)) * 1000.0:8.2f}ms"
            if isinstance(t0, (int, float)) and isinstance(t1, (int, float))
            else "   (open)"
        )
        worker = _span_worker(record)
        print(f"{label:<{name_width + 2}} {duration}  |{''.join(gutter)}|  {worker}")
    return 0


def _flush_telemetry() -> None:
    """Flush the buffered telemetry sink so the log is complete on exit."""
    from repro.observability.telemetry import get_registry

    get_registry().flush_sink()


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "cache":
        return cache_main(argv[1:])
    if argv and argv[0] == "telemetry":
        return telemetry_main(argv[1:])
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "lint":
        from repro.analysis.cli import lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "chaos":
        from repro.faults.chaos import chaos_main

        return chaos_main(argv[1:])
    if argv and argv[0] == "answer":
        argv = argv[1:]
    args = build_parser().parse_args(argv)
    if args.jobs < 0:
        print("--jobs must be >= 0", file=sys.stderr)
        return 2
    if args.shards is not None and args.shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return 2
    if args.shards is not None and args.executor != "process":
        print("--shards requires --executor process", file=sys.stderr)
        return 2
    if args.timeout is not None and not args.stream:
        print("--timeout requires --stream", file=sys.stderr)
        return 2
    if args.retries < 0:
        print("--retries must be >= 0", file=sys.stderr)
        return 2

    if args.telemetry:
        from repro.observability.telemetry import get_registry

        get_registry().set_sink(args.telemetry)

    if args.demo:
        database, program_text, default_queries = _demo(args.demo)
    else:
        if not args.program:
            print("--program is required when --data is used", file=sys.stderr)
            return 2
        program_text = Path(args.program).read_text()
        database = load_database_from_csv(args.data, program_text)
        default_queries = {}

    queries = {f"query_{i}": text for i, text in enumerate(args.query)} or default_queries
    if not queries:
        print("no queries given (use --query)", file=sys.stderr)
        return 2

    engine = CaRLEngine(
        database,
        program_text,
        estimator=args.estimator,
        embedding=args.embedding,
        cache=args.cache,
    )

    if args.stream:
        # Streaming mode: one line/block per query, the moment it finishes
        # (completion order).  A failed query reports its error and the rest
        # stream on; the exit code says whether every query succeeded.
        failures = 0
        for name, outcome in engine.answer_iter(
            queries,
            bootstrap=args.bootstrap,
            jobs=args.jobs if args.jobs > 0 else None,
            executor=args.executor,
            shards=args.shards,
            retries=args.retries,
            timeout=args.timeout,
        ):
            if isinstance(outcome, QueryAnswer):
                payload = result_to_dict(outcome)
                if args.json:
                    print(json.dumps({"name": str(name), **payload}), flush=True)
                else:
                    _print_answer_text(str(name), payload)
            else:
                failures += 1
                if args.json:
                    print(
                        json.dumps({"name": str(name), "error": str(outcome)}),
                        flush=True,
                    )
                else:
                    print(f"\n[{name}] ERROR: {outcome}", flush=True)
        if args.cache and not args.json:
            stats = engine.cache_stats()
            rendered = ", ".join(
                f"{kind}: {bucket['hits']}h/{bucket['misses']}m/{bucket['stores']}s"
                for kind, bucket in stats.items()
            )
            print(f"\ncache ({args.cache}): {rendered or 'no activity'}")
        if args.telemetry:
            _flush_telemetry()
        return 1 if failures else 0

    answers = engine.answer_all(
        queries,
        bootstrap=args.bootstrap,
        jobs=args.jobs if args.jobs > 0 else None,
        executor=args.executor,
        shards=args.shards,
    )
    outputs = {name: result_to_dict(answer) for name, answer in answers.items()}
    if args.telemetry:
        _flush_telemetry()

    if args.json:
        if args.cache:
            outputs["_cache"] = engine.cache_stats()
        print(json.dumps(outputs, indent=2))
        return 0

    for name, payload in outputs.items():
        _print_answer_text(name, payload)
    if args.cache:
        stats = engine.cache_stats()
        rendered = ", ".join(
            f"{kind}: {bucket['hits']}h/{bucket['misses']}m/{bucket['stores']}s"
            for kind, bucket in stats.items()
        )
        print(f"\ncache ({args.cache}): {rendered or 'no activity'}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
