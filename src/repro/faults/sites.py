"""The frozen registry of fault-injection sites.

Every place production code may inject a fault is declared here, by name —
and *only* here: :func:`repro.faults.injection.fault_point` rejects unknown
sites at runtime, and the ``fault-site`` lint rule
(:mod:`repro.analysis.fault_rules`) cross-checks every literal site name at
call sites statically, mirroring the telemetry-schema rule.  A misspelled
site can therefore never silently "just not fire".

Naming convention: ``<layer>.<failure>``.  ``worker_only`` marks sites
whose behavior kills or wedges the calling process (``os._exit``, an
unbounded sleep): they are armed only in processes that declared themselves
workers (:func:`repro.faults.injection.set_role`), so a plan that crashes
workers can never take the dispatcher — or the user's process — down with
them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FaultSite:
    """Declaration of one injection site."""

    name: str
    description: str
    #: True when the site's behavior is destructive to the calling process
    #: (crash/hang): it is ignored outside processes marked as workers.
    worker_only: bool = False
    #: Default delay (seconds) for sleep-type sites when the firing rule
    #: does not carry one.
    default_delay: float = 0.0


#: The registry.  Frozen by ``tests/test_faults.py`` — extending it is fine
#: (add the site here, call ``fault_point`` with its literal name, update
#: the pinned test), but renames must be deliberate: plans refer to sites
#: by name.
FAULT_SITES: dict[str, FaultSite] = {
    site.name: site
    for site in (
        FaultSite(
            "worker.crash",
            "worker process exits (os._exit) at task start — the classic "
            "mid-task death is_alive() catches",
            worker_only=True,
        ),
        FaultSite(
            "worker.hang",
            "worker sleeps (default 600s) at task start without reporting — "
            "only heartbeat-based detection sees this",
            worker_only=True,
            default_delay=600.0,
        ),
        FaultSite(
            "worker.slow",
            "worker sleeps (default 0.25s) at task start, then runs the "
            "task normally — exercises deadlines racing real work",
            worker_only=True,
            default_delay=0.25,
        ),
        FaultSite(
            "worker.error",
            "worker raises a non-CaRL exception at task start — a transient "
            "task failure the scheduler retries on another worker",
            worker_only=True,
        ),
        FaultSite(
            "worker.result_stall",
            "worker computes the task but stalls (default 0.05s) before "
            "putting the outcome on the result queue",
            worker_only=True,
            default_delay=0.05,
        ),
        FaultSite(
            "store.corrupt_read",
            "the artifact file is truncated on disk just before a load "
            "parses it — a torn/corrupt artifact read",
        ),
        FaultSite(
            "store.enospc",
            "ArtifactCache.store raises OSError(ENOSPC) as if the disk "
            "filled mid-write",
        ),
        FaultSite(
            "store.torn_write",
            "the writing process exits between the temp-file write and the "
            "atomic rename — a torn write that must never be visible",
            worker_only=True,
        ),
        FaultSite(
            "daemon.route_stall",
            "the daemon's router stalls (default 0.05s) before delivering "
            "an event to its tenant backend",
            default_delay=0.05,
        ),
        FaultSite(
            "session.deliver_stall",
            "the session's event pump stalls (default 0.05s) before "
            "resolving a delivered outcome",
            default_delay=0.05,
        ),
    )
}
