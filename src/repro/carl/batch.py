"""Shared scratch state for one thread-mode query session.

A batch of causal queries over one grounded graph repeats a lot of work: the
relational peers and the covariate collection of the unit-table build
depend only on the query plan's collection fingerprint (treatment, resolved
response, WHERE clause), not on the treatment threshold, embedding or
estimator a specific query uses.  :class:`BatchScratch` memoizes those
collections for the lifetime of one
:class:`~repro.service.session.QuerySession` (one ``answer_all(jobs>1)`` or
``answer_iter`` call), so an 8-query workload with three distinct
fingerprints walks the grounded graph three times instead of eight.

The scratch is deliberately batch-scoped rather than engine-scoped: its
entries can be arbitrarily large, so they are dropped as soon as the
session closes instead of accumulating on a long-lived engine.  Entries
belong to the database version token of the grounding snapshot they were
collected from; the first lookup under a new token (the database mutated
and the engine re-ground) drops them all.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, TypeVar

T = TypeVar("T")


class BatchScratch:
    """Memo of a batch's shareable collections, keyed by collection fingerprint.

    Thread-safe: worker threads of one batch race to populate entries, and
    :meth:`get_or_build` guarantees each key is built at most once per token
    (losers block until the winner's value is ready).  Builders run outside
    every lock: they walk an immutable grounding snapshot.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._token: Any = None  # guarded-by: _lock
        #: key -> [threading.Event, value, exception]
        self._entries: dict[Any, list[Any]] = {}  # guarded-by: _lock

    def get_or_build(self, token: Any, key: Any, build: Callable[[], T]) -> T:
        """Return the memoized value for ``key``, building it on first use.

        ``token`` is the database version token of the snapshot ``build``
        reads; a token other than the last one seen drops every entry
        first, which keeps a long-lived session's memory bounded.  A
        ``build`` that raises is not cached — the exception propagates to
        every thread waiting on the entry, and the next caller retries.
        """
        with self._lock:
            if token != self._token:
                self._entries = {}
                self._token = token
            entry = self._entries.get(key)
            if entry is None:
                entry = [threading.Event(), None, None]
                self._entries[key] = entry
                owner = True
            else:
                owner = False
        if owner:
            try:
                entry[1] = build()
            except BaseException as error:
                entry[2] = error
                with self._lock:
                    if self._entries.get(key) is entry:
                        del self._entries[key]
                raise
            finally:
                entry[0].set()
            return entry[1]
        entry[0].wait()
        if entry[2] is not None:
            raise entry[2]
        return entry[1]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
