"""Concurrency tests for the artifact cache.

The batch executor (`CaRLEngine.answer_all(jobs>1)`) probes and populates one
`ArtifactCache` from several worker threads at once, so two properties are
load-bearing and hammered here:

1. `ArtifactStore.store`/`load` on the *same key* must stay atomic — a load
   observes one complete artifact version or a miss, never arrays stitched
   from two different stores (the single-open-handle guarantee in
   ``_read_npz``);
2. `CacheStats` counters must be exact under parallel recording — they are
   the evidence tests and benchmark gates use to prove "zero grounding work
   happened".
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.lib import format as npy_format

import repro.cache.store as store_module
from repro.cache.store import ArtifactCache, CacheKey
from repro.carl.engine import CaRLEngine
from repro.datasets import TOY_REVIEW_PROGRAM, toy_review_database

KEY = CacheKey(database="ab" * 20, program="cd" * 20, kind="table")


def variant_payload(version: int) -> dict[str, np.ndarray]:
    """A payload whose members are mutually consistent only within a version."""
    return {
        "a": np.full(4096, version, dtype=np.int64),
        "b": np.full(4096, -version, dtype=np.int64),
    }


class TestConcurrentStoreLoad:
    @pytest.mark.parametrize("mmap", [True, False])
    def test_same_key_hammer_never_tears(self, tmp_path, mmap):
        cache = ArtifactCache(tmp_path, mmap=mmap)
        cache.store(KEY, variant_payload(1))
        stop = threading.Event()
        errors: list[str] = []
        loads = 0

        def writer(seed: int) -> None:
            version = seed
            while not stop.is_set():
                cache.store(KEY, variant_payload(version))
                version += 7

        def reader() -> int:
            performed = 0
            while not stop.is_set():
                payload = cache.load(KEY)
                performed += 1
                if payload is None:
                    # A miss is acceptable (e.g. verification raced); a torn
                    # payload is not.
                    continue
                a = np.asarray(payload["a"])
                b = np.asarray(payload["b"])
                if not (a == a[0]).all() or not (b == -a[0]).all():
                    errors.append(
                        f"torn read: a={np.unique(a)!r} b={np.unique(b)!r}"
                    )
                    stop.set()
            return performed

        with ThreadPoolExecutor(max_workers=8) as pool:
            writers = [pool.submit(writer, seed) for seed in (2, 3, 5)]
            readers = [pool.submit(reader) for _ in range(4)]
            timer = threading.Timer(1.5, stop.set)
            timer.start()
            try:
                loads = sum(future.result() for future in readers)
                for future in writers:
                    future.result()
            finally:
                timer.cancel()
                stop.set()

        assert not errors, errors[0]
        assert loads > 0
        # Counter exactness: every load is accounted as exactly one hit or miss.
        stats = cache.stats
        assert stats.hit_count("table") + stats.miss_count("table") == loads

    @pytest.mark.parametrize("mmap", [True, False])
    def test_npy_headers_are_parsed_one_at_a_time(self, tmp_path, monkeypatch, mmap):
        """numpy parses ``.npy`` headers with ``ast.literal_eval``, which
        CPython 3.11 does not keep thread-safe, so concurrent loads must take
        turns on it."""
        cache = ArtifactCache(tmp_path, mmap=mmap)
        cache.store(KEY, variant_payload(1))
        lock = threading.Lock()
        active, peak = [0], [0]

        def counted(parse):
            def wrapper(*args, **kwargs):
                with lock:
                    active[0] += 1
                    peak[0] = max(peak[0], active[0])
                try:
                    time.sleep(0.001)  # hold the parse open for any rival
                    return parse(*args, **kwargs)
                finally:
                    with lock:
                        active[0] -= 1

            return wrapper

        for name in ("read_array", "read_array_header_1_0", "read_array_header_2_0"):
            monkeypatch.setattr(npy_format, name, counted(getattr(npy_format, name)))
        start = threading.Barrier(8)

        def load(_: int):
            start.wait()
            return cache.load(KEY)

        with ThreadPoolExecutor(max_workers=8) as pool:
            payloads = list(pool.map(load, range(8)))
        assert all(payload is not None for payload in payloads)
        assert cache.stats.hit_count("table") == 8
        assert peak[0] == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_a_free_header_lock(self, tmp_path):
        """A worker forked while another thread holds the header lock must
        still be able to load artifacts."""
        cache = ArtifactCache(tmp_path)
        cache.store(KEY, variant_payload(1))
        with store_module._NPY_HEADER_LOCK:
            pid = os.fork()
            if pid == 0:  # child: exit status 0 only if the load completes
                code = 1
                try:
                    code = 0 if cache.load(KEY) is not None else 1
                finally:
                    os._exit(code)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child blocked on the inherited header lock")
        assert os.waitstatus_to_exitcode(status) == 0

    def test_store_counter_exact_under_parallel_stores(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        per_thread = 25

        def spam(seed: int) -> None:
            for index in range(per_thread):
                cache.store(KEY, variant_payload(seed * 1000 + index))

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(spam, range(8)))
        assert cache.stats.store_count("table") == 8 * per_thread


class TestCacheStatsLocking:
    def test_record_is_atomic(self, tmp_path):
        stats = ArtifactCache(tmp_path).stats
        per_thread = 2000

        def spam() -> None:
            for _ in range(per_thread):
                stats.record(stats.hits, "unit_table")

        threads = [threading.Thread(target=spam) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.hit_count("unit_table") == 8 * per_thread
        assert stats.summary()["unit_table"]["hits"] == 8 * per_thread


class TestStatsUnderParallelAnswerAll:
    QUERIES = {
        "ate": "Score[S] <= Prestige[A] ?",
        "agg": "AVG_Score[A] <= Prestige[A] ?",
        "peers": "Score[S] <= Prestige[A] ? WHEN ALL PEERS TREATED",
    }

    def test_counters_exact_cold_then_warm(self, tmp_path):
        cold = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM, cache=tmp_path)
        cold.answer_all(self.QUERIES, jobs=4)
        assert cold.cache_stats() == {
            "grounding": {"hits": 0, "misses": 1, "stores": 1},
            "unit_table": {"hits": 0, "misses": 3, "stores": 3},
        }
        assert cold.grounding_runs == 1

        warm = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM, cache=tmp_path)
        warm.answer_all(self.QUERIES, jobs=4)
        # Every query hit a cached unit table, so the batch never touched the
        # graph: the grounding cache shows no activity at all.
        assert warm.cache_stats() == {
            "unit_table": {"hits": 3, "misses": 0, "stores": 0},
        }
        assert warm.grounding_runs == 0
