"""Stats-shape rule: snapshot dictionaries must keep their documented keys.

``ShardScheduler.stats()``, ``QueryDaemon.stats()``, ``QuerySession.stats()``
and ``CacheStats.summary()`` are operator-facing contracts: dashboards,
the daemon's admission telemetry and the chaos harness all read these
dictionaries by key, and ``docs/service.md`` / ``docs/observability.md``
document their exact shapes.  A key added in code but not in the documented
set silently drifts the contract (and the reverse — a documented key that
code stops producing — is caught by the pinned shape tests).

This rule resolves the shape statically: inside each documented snapshot
function it collects every *constant string* key — dict-literal keys and
``snapshot["key"] = ...`` subscript assignments, at any nesting depth — and
flags keys missing from the documented set for that ``(class, function)``
pair.  Dynamic keys (``summary[kind]``, tenant names) are skipped; they are
data, not shape.  Classes not listed here (``UnitTable.summary``,
``FaultRule.as_dict``) are out of scope entirely.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import FileContext, Finding, Rule, register

#: Documented snapshot shapes: ``(class, function) -> allowed constant keys``
#: (top-level and nested keys pooled per function; see docs/service.md).
SNAPSHOT_KEYS: dict[tuple[str, str], frozenset[str]] = {
    ("ServiceStats", "as_dict"): frozenset(
        {
            "collect_tasks_run",
            "collect_cache_hits",
            "finish_tasks_run",
            "retries",
            "worker_deaths",
            "workers_spawned",
            "workers_killed",
            "worker_hangs",
            "serial_fallbacks",
            "reaped_results",
            "timeouts",
            "cancelled",
            "records_reaped",
            "tasks_reaped",
        }
    ),
    ("ShardScheduler", "stats"): frozenset(
        {
            "live_records",
            "live_tasks",
            "warm_keys",
            "ready_tasks",
            "delayed_tasks",
            "circuit_open",
            "pinned_keys",
        }
    ),
    ("_TenantSession", "counters"): frozenset({"admitted", "rejected", "inflight"}),
    ("QueryDaemon", "stats"): frozenset(
        {
            "sessions",
            "inflight",
            "draining",
            "tenants",
            "degraded",
            "admitted",
            "rejected",
            "scheduler",
        }
    ),
    ("QuerySession", "stats"): frozenset(
        {
            "executor",
            "submitted",
            "delivered",
            "cancelled",
            "outstanding",
            "max_pending",
            "scheduler",
        }
    ),
    ("CacheStats", "summary"): frozenset(
        {"hits", "misses", "stores", "quarantined", "store_errors"}
    ),
}


def _constant_keys(func: ast.FunctionDef) -> Iterator[tuple[ast.AST, str]]:
    """Yield ``(node, key)`` for every constant-string snapshot key in ``func``."""
    for node in ast.walk(func):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    yield key, key.value
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    yield target, target.slice.value


@register
class StatsShapeRule(Rule):
    id = "stats-shape"
    scope = ("service", "store")
    description = (
        "stats()/cache_stats() snapshot dictionaries must only use keys from "
        "the documented shape for their (class, function) pair"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for class_node in ast.walk(ctx.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            for item in class_node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                allowed = SNAPSHOT_KEYS.get((class_node.name, item.name))
                if allowed is None:
                    continue
                for node, key in _constant_keys(item):
                    if key not in allowed:
                        yield ctx.finding(
                            node,
                            self.id,
                            f"snapshot key {key!r} in {class_node.name}."
                            f"{item.name}() is not in the documented shape "
                            f"(docs/service.md); add it there and to "
                            f"SNAPSHOT_KEYS, or drop it",
                        )
