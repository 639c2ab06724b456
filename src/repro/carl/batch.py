"""Shared scratch state for one thread-mode query session.

A batch of causal queries over one grounded graph repeats a lot of work: the
relational peers and the covariate collection of the unit-table build
depend only on the ``(treatment attribute, response attribute)`` pair,
not on the treatment threshold, embedding or estimator a specific query
uses.  :class:`BatchScratch` memoizes those per-pair intermediates for the
lifetime of one :class:`~repro.service.session.QuerySession` (one
``answer_all(jobs>1)`` or ``answer_iter`` call), so an 8-query workload with
three distinct attribute pairs walks the grounded graph three times instead
of eight.

The scratch is deliberately batch-scoped rather than engine-scoped: its
entries hold references into the current grounding and can be arbitrarily
large, so they are dropped as soon as the session closes instead of
accumulating on a long-lived engine.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, TypeVar

T = TypeVar("T")


class BatchScratch:
    """Memo of shareable per-(treatment, response) intermediates of a batch.

    Thread-safe: worker threads of one batch race to populate entries, and
    :meth:`get_or_build` guarantees each key is built at most once (losers
    block until the winner's value is ready).  The engine additionally holds
    its own state lock while building, so builder callbacks may freely read
    engine state; the per-entry events exist so a future caller that builds
    outside that lock stays correct.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: key -> [threading.Event, value, exception]
        self._entries: dict[Any, list[Any]] = {}

    def get_or_build(self, key: Any, build: Callable[[], T]) -> T:
        """Return the memoized value for ``key``, building it on first use.

        A ``build`` that raises is not cached — the exception propagates to
        every thread waiting on the entry, and the next caller retries.
        """
        with self._lock:
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
                    self._entries.pop(key, None)
                raise
            finally:
                entry[0].set()
            return entry[1]
        entry[0].wait()
        if entry[2] is not None:
            raise entry[2]
        return entry[1]

    def clear(self) -> None:
        """Drop every memoized entry.

        A long-lived :class:`~repro.service.session.QuerySession` reuses one
        scratch across many submissions; entries are keyed by grounding
        epoch, so after a database mutation re-grounds the engine the stale
        epoch's entries become unreachable garbage — the session clears the
        scratch at the epoch boundary to keep its memory bounded.  Entries
        still being built are abandoned to their builders (the per-entry
        events keep waiters correct); only the map is reset.
        """
        with self._lock:
            self._entries = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
