"""Content-addressed on-disk artifact store.

Artifacts are npz files under a cache root, keyed by ``(database
fingerprint, model fingerprint, artifact kind[, detail])``::

    <root>/<db_fp[:16]>-<model_fp[:16]>/<kind>[-<detail[:16]>].npz

Writes are atomic (written to a temp file in the destination directory, then
``os.replace``d into place) so a crashed or concurrent writer can never leave
a half-written artifact where a reader will find it.  Loads verify the full
fingerprints recorded inside the file against the requested key — a prefix
collision therefore degrades to a cache miss, never to wrong data.

Numeric arrays are memory-mapped straight out of the (uncompressed) npz: the
store locates each member's byte offset in the zip and hands back
``np.memmap`` views, so loading a cached grounding is O(metadata), not
O(data).  Object arrays (key tuples, heterogeneous values) are loaded eagerly
through numpy's pickle path.
"""

from __future__ import annotations

import errno
import json
import os
import tempfile
import threading
import time
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
from numpy.lib import format as npy_format

from repro.faults.injection import fault_point
from repro.observability.telemetry import get_registry

#: Length of the fingerprint prefixes used in file names (full fingerprints
#: are verified from the artifact itself on load).
PREFIX = 16

#: Payload layout version (re-exported by :mod:`repro.cache.serialization`,
#: which owns the layouts).  Bumped on any layout change; artifacts whose
#: ``meta`` records a different version read as cache misses.  v2: grounding
#: artifacts store CSR adjacency arrays instead of edge lists (and all
#: ordered graph queries became node-id-ordered), so v1 artifacts — grounded
#: under hash-order-dependent iteration — are invalidated wholesale and
#: re-grounded on first use.  v3: an aggregate head none of whose parents
#: carries a value has no value (v2 stored ``AGG([])``, e.g. AVG's 0.0), so
#: a v2 grounding, or a unit table built on one, is rebuilt once.  v4: a
#: shard's unit-table collection is column-major (integer codes into each
#: value column's distinct values), so a v3 partial, and with it every v3
#: artifact, reads as a miss and is rebuilt once.
FORMAT_VERSION = 4

#: Artifact kinds the engine stores (other kinds are allowed; these are known).
KNOWN_KINDS = ("grounding", "unit_table", "table", "unit_inputs")

#: Directory (under the cache root) artifacts that fail to decode are moved
#: to.  Quarantined files carry a ``.quarantined`` suffix so no cache glob
#: (``*/*.npz``) can ever pick one up again.
QUARANTINE_DIR = "quarantine"

#: Age (seconds) below which :meth:`ArtifactCache.reap_temp_files` leaves a
#: ``.tmp`` file alone: it may belong to a live concurrent writer.
TEMP_MAX_AGE_SECONDS = 600.0

#: errno values treated as "the disk is full": the store degrades to
#: uncached operation instead of failing the query that triggered the write.
_NO_SPACE_ERRNOS = frozenset(
    code
    for code in (
        errno.ENOSPC,
        errno.EDQUOT if hasattr(errno, "EDQUOT") else None,
        errno.EFBIG,
    )
    if code is not None
)

#: Serializes numpy's ``.npy`` header parsing.  numpy parses each header with
#: ``ast.literal_eval``, which on CPython 3.11 can raise ``SystemError: AST
#: constructor recursion depth mismatch`` when threads parse at once.
_NPY_HEADER_LOCK = threading.Lock()


def _renew_npy_header_lock() -> None:
    """A forked child gets a fresh lock: one another parent thread held at
    fork time would never be released there."""
    global _NPY_HEADER_LOCK
    _NPY_HEADER_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):  # absent where processes never fork
    os.register_at_fork(after_in_child=_renew_npy_header_lock)


class CacheError(ValueError):
    """Raised on malformed cache keys or unusable cache roots."""


class CacheDegradedError(RuntimeError):
    """A worker could not persist or read back a required artifact because
    the store is degraded (out of space).  The scheduler recognizes this
    error by name on the result wire and answers the affected queries
    serially in-process instead of retrying a write that cannot succeed."""


@dataclass(frozen=True)
class CacheKey:
    """Identity of one cached artifact."""

    database: str  #: database content fingerprint (hex)
    program: str  #: model fingerprint (hex)
    kind: str  #: artifact kind, e.g. ``"grounding"`` or ``"unit_table"``
    detail: str = ""  #: sub-key, e.g. the query fingerprint of a unit table

    def __post_init__(self) -> None:
        for label, value in (("database", self.database), ("program", self.program)):
            if not value or not all(c in "0123456789abcdef" for c in value):
                raise CacheError(f"cache key {label} must be a hex digest, got {value!r}")
        if not self.kind or any(c in self.kind for c in "/\\.-"):
            raise CacheError(f"invalid artifact kind {self.kind!r}")
        if self.detail and not all(c in "0123456789abcdef" for c in self.detail):
            raise CacheError(f"cache key detail must be a hex digest, got {self.detail!r}")

    @property
    def entry_name(self) -> str:
        return f"{self.database[:PREFIX]}-{self.program[:PREFIX]}"

    @property
    def file_name(self) -> str:
        if self.detail:
            return f"{self.kind}-{self.detail[:PREFIX]}.npz"
        return f"{self.kind}.npz"

    def as_json(self) -> str:
        return json.dumps(
            {
                "database": self.database,
                "program": self.program,
                "kind": self.kind,
                "detail": self.detail,
            },
            sort_keys=True,
        )


@dataclass
class CacheStats:
    """Per-kind hit/miss/store counters for one cache instance (in-memory).

    Counter updates take an internal lock: a read-modify-write on a plain
    dict would lose increments when concurrent ``answer_all`` workers probe
    the cache simultaneously, and the counters are the evidence benchmarks
    and tests use to prove "zero grounding work happened" — they must be
    exact, not approximately right.  Readers snapshot under the same lock.
    """

    hits: dict[str, int] = field(default_factory=dict)  # guarded-by: _lock
    misses: dict[str, int] = field(default_factory=dict)  # guarded-by: _lock
    stores: dict[str, int] = field(default_factory=dict)  # guarded-by: _lock
    #: Artifacts moved to quarantine because they failed to decode.
    quarantined: dict[str, int] = field(default_factory=dict)  # guarded-by: _lock
    #: Writes dropped because the disk was full (degraded mode).
    store_errors: dict[str, int] = field(default_factory=dict)  # guarded-by: _lock
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def record(self, counter: dict[str, int], kind: str) -> None:
        with self._lock:
            counter[kind] = counter.get(kind, 0) + 1

    def hit_count(self, kind: str | None = None) -> int:
        with self._lock:
            return self.hits.get(kind, 0) if kind else sum(self.hits.values())

    def miss_count(self, kind: str | None = None) -> int:
        with self._lock:
            return self.misses.get(kind, 0) if kind else sum(self.misses.values())

    def store_count(self, kind: str | None = None) -> int:
        with self._lock:
            return self.stores.get(kind, 0) if kind else sum(self.stores.values())

    def quarantined_count(self, kind: str | None = None) -> int:
        with self._lock:
            return self.quarantined.get(kind, 0) if kind else sum(self.quarantined.values())

    def store_error_count(self, kind: str | None = None) -> int:
        with self._lock:
            return self.store_errors.get(kind, 0) if kind else sum(self.store_errors.values())

    def summary(self) -> dict[str, dict[str, int]]:
        with self._lock:
            kinds = sorted(
                {*self.hits, *self.misses, *self.stores, *self.quarantined, *self.store_errors}
            )
            summary = {
                kind: {
                    "hits": self.hits.get(kind, 0),
                    "misses": self.misses.get(kind, 0),
                    "stores": self.stores.get(kind, 0),
                }
                for kind in kinds
            }
            # Failure counters appear only when nonzero: healthy summaries
            # keep their exact three-key shape (pinned by existing tests and
            # dashboards), and a "quarantined" key showing up *is* the signal.
            for kind in kinds:
                if self.quarantined.get(kind):
                    summary[kind]["quarantined"] = self.quarantined[kind]
                if self.store_errors.get(kind):
                    summary[kind]["store_errors"] = self.store_errors[kind]
            return summary


@dataclass(frozen=True)
class CacheEntry:
    """One artifact on disk, as reported by :meth:`ArtifactCache.entries`."""

    path: Path
    key: CacheKey | None  #: None when the file's key record is unreadable
    size_bytes: int
    modified: float

    @property
    def kind(self) -> str:
        return self.key.kind if self.key is not None else "?"


class ArtifactCache:
    """The persistent artifact store rooted at a directory.

    ``mmap=False`` disables memory-mapping (every array is loaded eagerly);
    useful when cached artifacts must outlive the file, e.g. if the cache may
    be cleared while loaded artifacts are still in use.

    :meth:`store` and :meth:`load` are safe to call concurrently — from
    threads or separate processes, including on the same key: each write
    lands via an atomic rename and each load verifies the full key recorded
    inside the file, so a reader observes a complete artifact or a miss,
    never a torn one.
    """

    def __init__(self, root: str | Path, mmap: bool = True) -> None:
        self.root = Path(root)
        self.mmap = mmap
        self.stats = CacheStats()
        #: Refcounted paths protected from :meth:`evict` (artifacts a live
        #: shard worker may be memory-mapping); guarded by a lock because the
        #: scheduler pins from its dispatcher thread while stats-reading
        #: threads may iterate.  Each first pin also drops a
        #: ``.pin`` sidecar file naming this process, so an eviction issued
        #: from *another* process (``repro cache evict``) can see — and
        #: respect — the pins of every in-flight session on the machine.
        self._pinned: dict[Path, int] = {}  # guarded-by: _pin_lock
        self._pin_lock = threading.Lock()
        #: True after a write failed for lack of disk space; stores become
        #: no-ops (returning None) until one succeeds again.  A plain bool —
        #: reads/writes are atomic under the GIL and the flag is advisory.
        self._degraded = False

    @property
    def degraded(self) -> bool:
        """True while the store is in degraded (out-of-space) mode."""
        return self._degraded

    # ------------------------------------------------------------------
    # store / load
    # ------------------------------------------------------------------
    def path_for(self, key: CacheKey) -> Path:
        return self.root / key.entry_name / key.file_name

    def store(self, key: CacheKey, payload: dict[str, np.ndarray]) -> Path | None:
        """Atomically write ``payload`` (plus the full key) as an npz artifact.

        Returns the artifact path, or **None when the write was dropped**
        because the disk is full: the store flips to degraded mode (counted
        in :attr:`CacheStats.store_errors`, ``cache.store_error`` /
        ``cache.degraded`` telemetry) and every caller simply operates
        uncached — an ENOSPC must cost a cache entry, never a query.  Each
        later store retries the disk, and the first success clears the
        degraded flag, so the store heals itself when space returns.  Any
        other ``OSError`` still raises.
        """
        if "cache_key" in payload:
            raise CacheError("payload entry name 'cache_key' is reserved")
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            if fault_point("store.enospc", key=key.kind) is not None:
                raise OSError(errno.ENOSPC, "injected: no space left on device")
            descriptor, temp_name = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key.file_name}.", suffix=".tmp"
            )
        except OSError as error:
            if error.errno in _NO_SPACE_ERRNOS:
                self._enter_degraded(key.kind)
                return None
            raise
        try:
            with os.fdopen(descriptor, "wb") as handle:
                np.savez(handle, cache_key=np.asarray(key.as_json()), **payload)
            if fault_point("store.torn_write", key=key.kind) is not None:
                # Simulated writer death between temp write and rename: the
                # half-written artifact must never become visible (readers
                # see the old version or a miss; the .tmp is reaped later).
                os._exit(25)
            os.replace(temp_name, path)
        except BaseException as error:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            if isinstance(error, OSError) and error.errno in _NO_SPACE_ERRNOS:
                self._enter_degraded(key.kind)
                return None
            raise
        if self._degraded:
            self._degraded = False
            get_registry().gauge("cache.degraded", 0)
        self.stats.record(self.stats.stores, key.kind)
        get_registry().count("cache.store", kind=key.kind)
        return path

    def _enter_degraded(self, kind: str) -> None:
        self.stats.record(self.stats.store_errors, kind)
        get_registry().count("cache.store_error", kind=kind)
        if not self._degraded:
            self._degraded = True
            get_registry().gauge("cache.degraded", 1)

    def load(self, key: CacheKey) -> dict[str, np.ndarray] | None:
        """Load the artifact for ``key``, or None (and count a miss).

        The full fingerprints stored inside the file must match the key, and
        the payload's recorded format version must be current; unreadable,
        mismatching or outdated artifacts all count as misses — a hit is
        only ever reported for a payload the caller will actually use.

        A file that *exists but fails to decode* is additionally moved to
        the ``quarantine/`` sidecar directory (counted in
        :attr:`CacheStats.quarantined`): leaving it in place would make
        ``contains()`` keep answering True and every future load re-pay the
        failed parse — quarantined, the key reads as a clean miss and the
        next store simply rebuilds the artifact.  Key-mismatch and
        format-version misses are *not* quarantined: those files are valid
        artifacts for some other key or an older layout.
        """
        path = self.path_for(key)
        if fault_point("store.corrupt_read", key=key.kind) is not None:
            _truncate_file(path)
        try:
            payload = _read_npz(path, mmap=self.mmap)
            stored = json.loads(str(payload.pop("cache_key")[()]))
        except (OSError, ValueError, KeyError, zipfile.BadZipFile):
            self._quarantine(path, key.kind)
            self.stats.record(self.stats.misses, key.kind)
            get_registry().count("cache.miss", kind=key.kind)
            return None
        if stored != json.loads(key.as_json()) or not _format_is_current(payload):
            self.stats.record(self.stats.misses, key.kind)
            get_registry().count("cache.miss", kind=key.kind)
            return None
        self.stats.record(self.stats.hits, key.kind)
        get_registry().count("cache.hit", kind=key.kind)
        return payload

    def contains(self, key: CacheKey) -> bool:
        """True when an artifact file exists for ``key`` (no verification)."""
        return self.path_for(key).exists()

    def _quarantine(self, path: Path, kind: str) -> None:
        """Move a file that failed to decode out of the cache's namespace.

        Best-effort and atomic (same-filesystem rename into
        ``<root>/quarantine/``): after it, ``contains()`` is False and the
        next store rebuilds the artifact.  The quarantined copy keeps a
        ``.quarantined`` suffix — invisible to every ``*.npz`` glob — and is
        preserved for post-mortem inspection; a repeat offender overwrites
        its previous copy, so quarantine stays bounded by the number of
        distinct artifact paths.
        """
        if not path.exists():
            return  # plain miss: there is nothing to quarantine
        destination = (
            self.root / QUARANTINE_DIR / f"{path.parent.name}-{path.name}.quarantined"
        )
        try:
            destination.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, destination)
        except OSError:
            try:
                path.unlink(missing_ok=True)  # fall back to plain removal
            except OSError:
                return  # cannot even unlink: give up, stay a plain miss
        self.stats.record(self.stats.quarantined, kind)
        get_registry().count("cache.quarantined", kind=kind)

    def quarantined_files(self) -> list[Path]:
        """The quarantined artifacts currently on disk, sorted by name."""
        quarantine = self.root / QUARANTINE_DIR
        if not quarantine.is_dir():
            return []
        return sorted(quarantine.glob("*.quarantined"))

    def reap_temp_files(self, max_age_seconds: float = TEMP_MAX_AGE_SECONDS) -> int:
        """Delete stale ``.tmp`` files torn writers left behind; returns count.

        A writer that dies between its temp write and the atomic rename
        (crash, ``store.torn_write``) leaks an invisible-but-real ``.tmp``
        file.  Anything older than ``max_age_seconds`` cannot belong to a
        live write (stores take milliseconds, not minutes) and is removed.
        Called on session start (:meth:`ShardScheduler.start`) and by
        :meth:`evict` / :meth:`clear` sweeps.
        """
        if not self.root.is_dir():
            return 0
        # Wall clock, deliberately: .tmp mtimes are wall-clock timestamps.
        now = time.time()  # repro-lint: disable=det-wall-clock
        removed = 0
        for temp in sorted(self.root.glob("*/.*.tmp")):
            try:
                if now - temp.stat().st_mtime < max_age_seconds:
                    continue
                temp.unlink()
            except OSError:
                continue  # a concurrent writer renamed/removed it: fine
            removed += 1
        return removed

    # ------------------------------------------------------------------
    # inspection / maintenance
    # ------------------------------------------------------------------
    def entries(self) -> list[CacheEntry]:
        """Every artifact under the root, sorted by path."""
        found: list[CacheEntry] = []
        if not self.root.is_dir():
            return found
        for path in sorted(self.root.glob("*/*.npz")):
            stat = path.stat()
            found.append(
                CacheEntry(
                    path=path,
                    key=_read_key(path),
                    size_bytes=stat.st_size,
                    modified=stat.st_mtime,
                )
            )
        return found

    def disk_stats(self) -> dict[str, dict[str, int]]:
        """Artifact counts and total bytes on disk, grouped by kind."""
        grouped: dict[str, dict[str, int]] = {}
        for entry in self.entries():
            bucket = grouped.setdefault(entry.kind, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += entry.size_bytes
        return grouped

    # ------------------------------------------------------------------
    # pinning (eviction protection for live shard workers)
    # ------------------------------------------------------------------
    @staticmethod
    def _pin_path(path: Path) -> Path:
        """This process's ``.pin`` sidecar for one artifact path.

        Sidecars are per-process (the owning pid is part of the file name),
        so two sessions in different processes pinning the same artifact
        hold independent sidecars — one unpinning never strips the other's
        protection.  Within one process, pins are additionally refcounted
        in memory per cache handle.
        """
        return path.with_name(f"{path.name}.pin.{os.getpid()}")

    @staticmethod
    def _pin_sidecars(path: Path) -> list[Path]:
        """Every process's pin sidecar currently guarding ``path``."""
        if not path.parent.is_dir():
            return []
        return sorted(path.parent.glob(path.name + ".pin.*"))

    def pin(self, key: CacheKey) -> Path:
        """Protect ``key``'s artifact from :meth:`evict` until unpinned.

        The shard scheduler behind every process-mode session pins the
        grounding, table and shard payloads its workers memory-map for the
        lifetime of the session: an eviction racing a live worker must never
        pull a mapped file out from under it (the unlink itself would be safe
        on POSIX, but the artifact would silently stop being reusable by the
        next shard task).

        Pins are refcounted per instance *and* mirrored on disk: the first
        pin of a path writes a per-process ``<artifact>.pin.<pid>`` sidecar,
        so an eviction issued through *any* handle — including ``repro
        cache evict`` running in another process — skips the artifact while
        any pinning process is alive, and one process unpinning never
        strips another's protection.  A sidecar whose process is gone (a
        crashed session) is stale and ignored, so crashes never leak
        permanent protection.  The artifact itself need not exist yet: the
        service pins shard-partial keys when it enqueues the task that will
        produce them.
        """
        path = self.path_for(key)
        with self._pin_lock:
            count = self._pinned.get(path, 0)
            self._pinned[path] = count + 1
            if count == 0:
                try:
                    path.parent.mkdir(parents=True, exist_ok=True)
                    self._pin_path(path).write_text(json.dumps({"pid": os.getpid()}))
                except OSError:
                    pass  # best effort: in-process protection still holds
        return path

    def unpin(self, key: CacheKey) -> None:
        """Release one pin (no-op when the key was not pinned)."""
        self._unpin_path(self.path_for(key))

    def _unpin_path(self, path: Path) -> None:
        with self._pin_lock:
            count = self._pinned.get(path, 0)
            if count > 1:
                self._pinned[path] = count - 1
                return
            self._pinned.pop(path, None)
            if count == 1:
                try:
                    self._pin_path(path).unlink(missing_ok=True)
                except OSError:
                    pass

    def unpin_all(self) -> None:
        """Release every pin held by this instance (exit hook of last resort).

        Only this instance's refcounts — and the sidecars it owns — are
        cleared; pins held by other cache handles or other processes are
        untouched.
        """
        with self._pin_lock:
            paths = list(self._pinned)
            self._pinned.clear()
        for path in paths:
            try:
                self._pin_path(path).unlink(missing_ok=True)
            except OSError:
                pass

    def pinned_paths(self) -> set[Path]:
        """Snapshot of the artifact paths pinned through this instance."""
        with self._pin_lock:
            return set(self._pinned)

    def _pinned_elsewhere(self, path: Path) -> bool:
        """True when a live process holds an on-disk pin for ``path`` —
        another process's session, or another cache handle in this one.

        Stale sidecars (their recorded pid no longer runs) are deleted on
        sight, so a crashed session's pins decay at the next eviction sweep
        instead of protecting garbage forever.
        """
        protected = False
        for sidecar in self._pin_sidecars(path):
            try:
                pid = int(sidecar.name.rpartition(".")[2])
            except ValueError:
                pid = -1
            if _pid_alive(pid):
                # Live pinner — possibly another cache handle in this very
                # process: respect the pin either way.
                protected = True
                continue
            try:
                sidecar.unlink(missing_ok=True)
            except OSError:
                pass
        return protected

    def evict(self, max_bytes: int, kind: str | None = None) -> tuple[int, int]:
        """Size-budgeted LRU eviction: delete oldest artifacts until the cache
        fits in ``max_bytes``; returns ``(artifacts removed, bytes freed)``.

        Artifacts are considered in ascending modification-time order (the
        store never rewrites an artifact in place, so mtime is last-write =
        least-recently-produced; loads do not bump it).  Pinned artifacts —
        pinned through this instance (see :meth:`pin`) or by a live session
        in *another* process (its ``.pin`` sidecar) — are skipped.  A file
        the OS refuses to delete (e.g. ``EBUSY`` on platforms that lock
        memory-mapped files — Linux never does, Windows and some network
        filesystems do) is skipped too, not retried and not counted:
        eviction is best-effort by design, so a busy artifact simply survives
        until the next sweep.

        With ``kind`` set, only artifacts of that kind are counted against
        ``max_bytes`` and considered for deletion — ``kind="unit_inputs"``
        trims shard partials without touching groundings or unit tables.
        """
        if max_bytes < 0:
            raise CacheError(f"max_bytes must be >= 0, got {max_bytes!r}")
        self.reap_temp_files()
        entries = sorted(self.entries(), key=lambda entry: (entry.modified, entry.path))
        if kind is not None:
            entries = [entry for entry in entries if entry.kind == kind]
        total = sum(entry.size_bytes for entry in entries)
        skip = self.pinned_paths()
        removed = 0
        freed = 0
        for entry in entries:
            if total <= max_bytes:
                break
            if entry.path in skip or self._pinned_elsewhere(entry.path):
                continue
            try:
                entry.path.unlink()
            except OSError:
                continue  # busy/permission: skip-on-EBUSY semantics
            total -= entry.size_bytes
            removed += 1
            freed += entry.size_bytes
        self._prune_empty_directories()
        return removed, freed

    def clear(self, kind: str | None = None) -> tuple[int, int]:
        """Delete artifacts (optionally only one kind); returns (count, bytes).

        Empty per-fingerprint directories are removed afterwards.
        """
        self.reap_temp_files()
        removed = 0
        freed = 0
        for entry in self.entries():
            if kind is not None and entry.kind != kind:
                continue
            try:
                entry.path.unlink()
            except OSError:
                continue
            removed += 1
            freed += entry.size_bytes
        self._prune_empty_directories()
        return removed, freed

    def _prune_empty_directories(self) -> None:
        if not self.root.is_dir():
            return
        for directory in self.root.iterdir():
            if directory.is_dir():
                try:
                    directory.rmdir()  # only succeeds when empty
                except OSError:
                    pass


def _truncate_file(path: Path) -> None:
    """Corrupt an artifact in place (the ``store.corrupt_read`` fault): keep
    the first half of the file so the zip central directory is torn off —
    the canonical torn-read shape.  Missing files are left missing."""
    try:
        size = path.stat().st_size
        with open(path, "r+b") as handle:
            handle.truncate(max(1, size // 2))
    except OSError:
        pass


def _pid_alive(pid: int) -> bool:
    """True when a process with ``pid`` is running (signal-0 probe)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other user's process
        return True
    except OSError:  # pragma: no cover - e.g. platforms without kill
        return False
    return True


def _format_is_current(payload: dict[str, np.ndarray]) -> bool:
    """False when the payload's ``meta`` records a non-current format.

    Payloads without a ``meta`` entry (artifacts stored through the raw
    store API) make no format claim and pass; a ``meta`` that exists but is
    unreadable or versioned differently reads as a miss, so a hit is only
    ever reported for a payload its deserializer will accept.
    """
    meta = payload.get("meta")
    if meta is None:
        return True
    try:
        return json.loads(str(meta[()])).get("format") == FORMAT_VERSION
    except (ValueError, TypeError):
        return False


def _read_key(path: Path) -> CacheKey | None:
    """The CacheKey recorded inside an artifact file (None when unreadable)."""
    try:
        with zipfile.ZipFile(path) as archive, archive.open("cache_key.npy") as member:
            with _NPY_HEADER_LOCK:
                array = npy_format.read_array(member, allow_pickle=False)
            record = json.loads(str(array[()]))
        return CacheKey(**record)
    except (OSError, ValueError, KeyError, TypeError, zipfile.BadZipFile):
        return None


# ----------------------------------------------------------------------
# npz reading with memory-mapped numeric members
# ----------------------------------------------------------------------
def _read_npz(path: Path, mmap: bool) -> dict[str, np.ndarray]:
    """Read an npz, memory-mapping eligible members.

    A member is memory-mapped when it is stored uncompressed (``np.savez``
    default), holds no Python objects and is C-ordered with at least one
    element; everything else falls back to a regular eager read.

    The file is opened exactly once and every member — eager or mapped —
    comes from that one handle.  Re-opening the path per member would race a
    concurrent :meth:`ArtifactCache.store` of the same key: the atomic
    ``os.replace`` could land between two opens and the load would stitch
    arrays from *different* artifact versions into one payload.  A single
    handle pins a single inode, so a load observes one complete artifact no
    matter how many writers are replacing it.
    """
    arrays: dict[str, np.ndarray] = {}
    with open(path, "rb") as handle, zipfile.ZipFile(handle) as archive:
        for info in archive.infolist():
            name = info.filename
            if name.endswith(".npy"):
                name = name[: -len(".npy")]
            array: np.ndarray | None = None
            if mmap and info.compress_type == zipfile.ZIP_STORED:
                array = _mmap_member(handle, info)
            if array is None:
                with archive.open(info) as member, _NPY_HEADER_LOCK:
                    array = npy_format.read_array(member, allow_pickle=True)
            arrays[name] = array
    return arrays


def _mmap_member(handle: Any, info: zipfile.ZipInfo) -> np.ndarray | None:
    """Memory-map one stored zip member as an array (None when ineligible).

    Walks the member's local file header to find the absolute byte offset of
    the npy payload, parses the npy header there, and maps the array data in
    place — through the caller's already-open ``handle``, never by path, so
    the mapping is guaranteed to come from the same file version as every
    other member (the mapping itself survives the handle being closed).  Any
    structural surprise returns None so the caller's eager path takes over.
    """
    try:
        handle.seek(info.header_offset)
        local_header = handle.read(30)
        if len(local_header) != 30 or local_header[:4] != b"PK\x03\x04":
            return None
        name_length = int.from_bytes(local_header[26:28], "little")
        extra_length = int.from_bytes(local_header[28:30], "little")
        handle.seek(info.header_offset + 30 + name_length + extra_length)
        version = npy_format.read_magic(handle)
        with _NPY_HEADER_LOCK:
            if version == (1, 0):
                shape, fortran_order, dtype = npy_format.read_array_header_1_0(handle)
            elif version == (2, 0):
                shape, fortran_order, dtype = npy_format.read_array_header_2_0(handle)
            else:
                return None
        if dtype.hasobject or fortran_order or not shape or 0 in shape:
            return None
        offset = handle.tell()
        return np.memmap(handle, dtype=dtype, mode="r", offset=offset, shape=shape, order="C")
    except (OSError, ValueError, AttributeError):
        return None
