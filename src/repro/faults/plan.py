"""Fault plans: which sites fire, when — seeded and replayable.

A :class:`FaultPlan` is a seed plus an ordered tuple of :class:`FaultRule`
entries.  Whether a rule fires at a given occurrence of its site is a pure
function of ``(plan seed, site, scope, occurrence index)`` — the "coin" is
the leading 8 bytes of a sha256, never ``random`` or the builtin ``hash``
— so the same plan against the same workload replays the same faults
across runs *and* across ``PYTHONHASHSEED`` values.

Occurrences are counted per process per site, and the hash input includes
the process's **scope** (``worker:<id>`` for service workers — worker ids
are never reused, a replacement gets a fresh id — or ``main``).  A rule
can therefore pin a fault to one specific worker's n-th occurrence
(``workers=[0], at=[0]``): the replacement worker draws from a different
stream and is not re-killed, which is what "crash once, then recover"
plans need.

Exact replay holds whenever firing decisions are reproducible: always for
occurrence-pinned rules on named workers, and for probabilistic rules when
one worker serves the site (``jobs=1``) or the race being explored does
not change which scope reaches each occurrence.  See
``docs/fault_injection.md`` for the fine print.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.faults.sites import FAULT_SITES


class PlanError(ValueError):
    """Raised for malformed fault plans or rules."""


@dataclass(frozen=True)
class FaultRule:
    """One site's schedule within a plan.

    A rule fires at occurrence ``n`` (of its site, in the current scope)
    when ``n`` is listed in ``at``, or when the seeded coin for ``n`` lands
    under probability ``p`` — at most ``limit`` times per process when a
    limit is set.  ``workers`` restricts the rule to specific service
    worker ids (None = any scope, including the dispatcher for sites that
    allow it).  ``delay`` overrides the site's default sleep for
    sleep-type sites.
    """

    site: str
    p: float = 0.0
    at: tuple[int, ...] = ()
    limit: int | None = None
    workers: tuple[int, ...] | None = None
    delay: float | None = None

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise PlanError(
                f"unknown fault site {self.site!r}; known sites: "
                f"{sorted(FAULT_SITES)}"
            )
        if not 0.0 <= self.p <= 1.0:
            raise PlanError(f"rule probability must be in [0, 1], got {self.p!r}")
        if self.limit is not None and self.limit < 0:
            raise PlanError(f"rule limit must be >= 0, got {self.limit!r}")
        if self.delay is not None and self.delay < 0:
            raise PlanError(f"rule delay must be >= 0, got {self.delay!r}")
        # Normalize sequence fields so rules parsed from JSON (lists) and
        # rules built in Python (tuples) compare and serialize identically.
        object.__setattr__(self, "at", tuple(int(n) for n in self.at))
        if self.workers is not None:
            object.__setattr__(
                self, "workers", tuple(int(w) for w in self.workers)
            )

    def as_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {"site": self.site}
        if self.p:
            record["p"] = self.p
        if self.at:
            record["at"] = list(self.at)
        if self.limit is not None:
            record["limit"] = self.limit
        if self.workers is not None:
            record["workers"] = list(self.workers)
        if self.delay is not None:
            record["delay"] = self.delay
        return record


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the rules it drives.  Immutable and JSON round-trippable."""

    seed: int = 0
    rules: tuple[FaultRule, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "rules": [rule.as_dict() for rule in self.rules]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            record = json.loads(text)
        except ValueError as error:
            raise PlanError(f"fault plan is not valid JSON: {error}") from error
        if not isinstance(record, dict):
            raise PlanError(f"fault plan must be a JSON object, got {type(record).__name__}")
        rules_raw = record.get("rules", [])
        if not isinstance(rules_raw, list):
            raise PlanError("fault plan 'rules' must be a list")
        rules = []
        for entry in rules_raw:
            if not isinstance(entry, dict) or "site" not in entry:
                raise PlanError(f"fault rule must be an object with a 'site': {entry!r}")
            unknown = set(entry) - {"site", "p", "at", "limit", "workers", "delay"}
            if unknown:
                raise PlanError(
                    f"fault rule for {entry['site']!r} has unknown fields "
                    f"{sorted(unknown)!r}"
                )
            rules.append(
                FaultRule(
                    site=entry["site"],
                    p=float(entry.get("p", 0.0)),
                    at=tuple(entry.get("at", ())),
                    limit=entry.get("limit"),
                    workers=(
                        tuple(entry["workers"]) if entry.get("workers") is not None else None
                    ),
                    delay=entry.get("delay"),
                )
            )
        return cls(seed=int(record.get("seed", 0)), rules=tuple(rules))


def seeded_fraction(seed: int, site: str, scope: str, occurrence: int) -> float:
    """The deterministic coin in ``[0, 1)`` for one occurrence of a site.

    sha256-derived: identical across processes, runs and hash seeds.
    """
    digest = hashlib.sha256(
        f"{seed}:{site}:{scope}:{occurrence}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def rule_fires(rule: FaultRule, seed: int, scope: str, occurrence: int) -> bool:
    """Pure decision: does ``rule`` fire at this occurrence in this scope?

    (The per-process ``limit`` bookkeeping lives in the injection runtime —
    this function is the replayable core.)
    """
    if rule.workers is not None:
        if not scope.startswith("worker:"):
            return False
        worker_id = int(scope.partition(":")[2])
        if worker_id not in rule.workers:
            return False
    if occurrence in rule.at:
        return True
    if rule.p > 0.0:
        return seeded_fraction(seed, rule.site, scope, occurrence) < rule.p
    return False
