"""Behavioral tests for the persistent artifact cache.

Covers the fingerprint contract (content-addressed, mutation-sensitive), the
store's key verification and maintenance commands, the engine integration
(warm runs skip grounding entirely and return bit-identical answers; database
mutations invalidate automatically), and the ``cache`` CLI group.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import CaRLEngine
from repro.cache import ArtifactCache, CacheKey
from repro.cache.fingerprint import model_fingerprint, query_fingerprint
from repro.carl.parser import parse_query
from repro.cli import main
from repro.datasets import TOY_REVIEW_PROGRAM, toy_review_database
from repro.db.database import Database

#: The quickstart example's three query shapes (ATE over a unified aggregated
#: response, the effect triple under a peer condition, and a restricted ATE).
QUICKSTART_QUERIES = (
    "AVG_Score[A] <= Prestige[A] ?",
    "Score[S] <= Prestige[A] ? WHEN ALL PEERS TREATED",
    'Score[S] <= Prestige[A] ? WHERE Submitted(S, C), Blind[C] = "double"',
)


# ----------------------------------------------------------------------
# fingerprints and version tokens
# ----------------------------------------------------------------------
class TestFingerprints:
    def test_identical_content_identical_fingerprint(self):
        assert toy_review_database().fingerprint() == toy_review_database().fingerprint()

    def test_insert_changes_fingerprint_and_token(self):
        database = toy_review_database()
        fingerprint = database.fingerprint()
        token = database.version_token()
        database.insert("Person", {"person": "zz", "prestige": 1, "qualification": 5})
        assert database.version_token() != token
        assert database.fingerprint() != fingerprint

    def test_fingerprint_cached_until_mutation(self):
        database = toy_review_database()
        assert database.fingerprint() is database.fingerprint()  # cached string

    def test_structural_changes_move_the_token(self):
        database = Database("d")
        token = database.version_token()
        database.create_table("t", {"a": "int"})
        assert database.version_token() != token
        token = database.version_token()
        database.drop_table("t")
        assert database.version_token() != token

    def test_value_type_changes_fingerprint(self):
        left, right = Database("l"), Database("r")
        left.load_rows("t", [{"a": 1}])
        right.load_rows("t", [{"a": "1"}])
        assert left.fingerprint() != right.fingerprint()

    def test_answering_leaves_the_model_unchanged(self):
        engine = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM)
        rules = list(engine.model.aggregate_rules)
        before = model_fingerprint(engine.program, engine.model)
        engine.answer("MAX_Score[A] <= Prestige[A] ?")
        # Unifying Score onto authors via MAX (the program itself declares
        # only the AVG unification) is resolved in the query's plan: no rule
        # is registered on the model.
        assert engine.model.aggregate_rules == rules
        assert model_fingerprint(engine.program, engine.model) == before

    def test_query_fingerprint_distinguishes_embedding_and_backend(self):
        query = parse_query("AVG_Score[A] <= Prestige[A] ?")
        base = query_fingerprint(query, "mean")
        assert query_fingerprint(query, "moments") != base
        other = parse_query("AVG_Score[A] <= Qualification[A] >= 5 ?")
        assert query_fingerprint(other, "mean") != base


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
class TestArtifactStore:
    def key(self, **overrides):
        parts = {"database": "ab" * 32, "program": "cd" * 32, "kind": "grounding"}
        parts.update(overrides)
        return CacheKey(**parts)

    def test_prefix_collision_reads_as_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        stored = self.key()
        cache.store(stored, {"x": np.arange(3)})
        # Same 16-char prefixes, different full fingerprint.
        colliding = self.key(database="ab" * 8 + "ef" * 24)
        assert cache.path_for(colliding) == cache.path_for(stored)
        assert cache.load(colliding) is None
        assert cache.stats.miss_count("grounding") == 1

    def test_corrupt_artifact_reads_as_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = self.key()
        path = cache.store(key, {"x": np.arange(3)})
        path.write_bytes(b"not a zip archive")
        assert cache.load(key) is None

    def test_reserved_payload_name_rejected(self, tmp_path):
        with pytest.raises(Exception, match="reserved"):
            ArtifactCache(tmp_path).store(self.key(), {"cache_key": np.arange(1)})

    def test_invalid_keys_rejected(self):
        with pytest.raises(Exception, match="hex"):
            self.key(database="NOT HEX")
        with pytest.raises(Exception, match="kind"):
            self.key(kind="../escape")

    def test_clear_by_kind_and_entries(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store(self.key(), {"x": np.arange(3)})
        cache.store(self.key(kind="unit_table", detail="ee" * 32), {"x": np.arange(5)})
        assert {entry.kind for entry in cache.entries()} == {"grounding", "unit_table"}
        removed, freed = cache.clear(kind="unit_table")
        assert removed == 1 and freed > 0
        assert [entry.kind for entry in cache.entries()] == ["grounding"]
        removed, _ = cache.clear()
        assert removed == 1 and cache.entries() == []

    def test_outdated_format_counts_as_miss(self, tmp_path):
        import numpy as _np

        from repro.cache.serialization import FORMAT_VERSION

        cache = ArtifactCache(tmp_path)
        key = self.key()
        cache.store(
            key,
            {"meta": _np.asarray(json.dumps({"format": FORMAT_VERSION - 1, "kind": "x"}))},
        )
        assert cache.load(key) is None
        assert cache.stats.summary() == {
            "grounding": {"hits": 0, "misses": 1, "stores": 1}
        }

    def test_stats_summary_counts(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = self.key()
        assert cache.load(key) is None
        cache.store(key, {"x": np.arange(2)})
        assert cache.load(key) is not None
        assert cache.stats.summary() == {
            "grounding": {"hits": 1, "misses": 1, "stores": 1}
        }

    def store_aged(self, cache, **overrides):
        """Store an artifact and age its mtime monotonically per call."""
        key = self.key(**overrides)
        path = cache.store(key, {"x": np.arange(64)})
        stamp = getattr(self, "_stamp", 1_000_000_000)
        self._stamp = stamp + 100
        import os

        os.utime(path, (stamp, stamp))
        return key, path

    def test_evict_oldest_first_down_to_budget(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        oldest, oldest_path = self.store_aged(cache)
        middle, _ = self.store_aged(cache, kind="unit_table", detail="aa" * 32)
        newest, newest_path = self.store_aged(cache, kind="unit_table", detail="bb" * 32)
        sizes = {entry.path: entry.size_bytes for entry in cache.entries()}
        total = sum(sizes.values())

        # Budget that forces exactly one eviction: the oldest goes.
        removed, freed = cache.evict(total - 1)
        assert removed == 1 and freed == sizes[oldest_path]
        assert not oldest_path.exists() and newest_path.exists()

        # Already within budget: nothing happens.
        assert cache.evict(total) == (0, 0)

        # Budget zero clears everything (no pins).
        removed, _ = cache.evict(0)
        assert removed == 2 and cache.entries() == []
        with pytest.raises(Exception, match="max_bytes"):
            cache.evict(-1)

    def test_evict_skips_pinned_artifacts(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        pinned_key, pinned_path = self.store_aged(cache)
        _, other_path = self.store_aged(cache, kind="unit_table", detail="aa" * 32)
        cache.pin(pinned_key)
        removed, _ = cache.evict(0)
        # The pinned (older) artifact survives; the unpinned one is evicted.
        assert removed == 1
        assert pinned_path.exists() and not other_path.exists()
        cache.unpin(pinned_key)
        assert cache.evict(0)[0] == 1
        assert cache.entries() == []

    def test_evict_kind_filter_budgets_that_kind_alone(self, tmp_path):
        """--kind eviction: only the named kind is counted and deleted."""
        cache = ArtifactCache(tmp_path)
        _, grounding_path = self.store_aged(cache)
        _, partial_a = self.store_aged(cache, kind="unit_inputs", detail="aa" * 32)
        _, partial_b = self.store_aged(cache, kind="unit_inputs", detail="bb" * 32)
        removed, _ = cache.evict(0, kind="unit_inputs")
        assert removed == 2
        assert grounding_path.exists()
        assert not partial_a.exists() and not partial_b.exists()
        # A kind under budget evicts nothing even when the cache overall is over.
        assert cache.evict(10**9, kind="grounding") == (0, 0)
        assert grounding_path.exists()

    def test_evict_respects_live_pin_from_another_cache_handle(self, tmp_path):
        """The pin sidecar protects an in-flight session's partials against
        evictions issued through *any* handle — the `repro cache evict`
        scenario, where the evicting process never saw the pin call."""
        session_cache = ArtifactCache(tmp_path)
        pinned_key, pinned_path = self.store_aged(
            session_cache, kind="unit_inputs", detail="aa" * 32
        )
        _, loose_path = self.store_aged(
            session_cache, kind="unit_inputs", detail="bb" * 32
        )
        session_cache.pin(pinned_key)
        sidecar = session_cache._pin_path(pinned_path)
        assert sidecar.exists()
        evictor = ArtifactCache(tmp_path)  # fresh handle: no in-memory pins
        removed, _ = evictor.evict(0)
        assert removed == 1
        assert pinned_path.exists() and not loose_path.exists()
        session_cache.unpin(pinned_key)
        assert not sidecar.exists()
        assert evictor.evict(0)[0] == 1

    def test_evict_ignores_and_cleans_stale_pin_sidecars(self, tmp_path):
        """A sidecar naming a dead process is stale: the artifact is evicted
        and the sidecar cleaned up — crashes never leak protection."""
        cache = ArtifactCache(tmp_path)
        _, path = self.store_aged(cache, kind="unit_inputs", detail="aa" * 32)
        sidecar = path.with_name(f"{path.name}.pin.{2**22 + 12345}")  # no such pid
        sidecar.write_text("{}")
        removed, _ = cache.evict(0)
        assert removed == 1
        assert not path.exists() and not sidecar.exists()

    def test_unpin_never_strips_another_processes_pin(self, tmp_path):
        """Sidecars are per-process: two live sessions pinning the same
        artifact hold independent sidecars, so one unpinning leaves the
        other's protection intact."""
        cache = ArtifactCache(tmp_path)
        key, path = self.store_aged(cache)
        cache.pin(key)
        # A second, still-running process's pin (pid 1 is always alive).
        other = path.with_name(path.name + ".pin.1")
        other.write_text("{}")
        cache.unpin(key)  # removes only this process's sidecar
        assert not cache._pin_path(path).exists()
        assert other.exists()
        assert cache.evict(0) == (0, 0)  # still protected by the other pin
        other.unlink()
        assert cache.evict(0)[0] == 1

    def test_pin_refcount_keeps_sidecar_until_last_unpin(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key, path = self.store_aged(cache)
        sidecar = cache._pin_path(path)
        cache.pin(key)
        cache.pin(key)
        cache.unpin(key)
        assert sidecar.exists()  # one pin still held
        assert cache.evict(0) == (0, 0)
        cache.unpin(key)
        assert not sidecar.exists()
        cache.unpin(key)  # extra unpin is a no-op

    def test_evict_skips_undeletable_files(self, tmp_path, monkeypatch):
        """skip-on-EBUSY semantics: an unlink the OS refuses is skipped, the
        sweep continues, and the artifact simply survives."""
        from pathlib import Path

        cache = ArtifactCache(tmp_path)
        _, busy_path = self.store_aged(cache)
        _, free_path = self.store_aged(cache, kind="unit_table", detail="aa" * 32)
        real_unlink = Path.unlink

        def fake_unlink(self, *args, **kwargs):
            if self == busy_path:
                raise OSError(16, "Device or resource busy")
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", fake_unlink)
        removed, _ = cache.evict(0)
        assert removed == 1
        assert busy_path.exists() and not free_path.exists()


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------
class TestEngineCache:
    def run_pipeline(self, root) -> tuple[CaRLEngine, dict[str, object]]:
        engine = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM, cache=root)
        answers = {query: engine.answer(query) for query in QUICKSTART_QUERIES}
        return engine, answers

    def test_warm_run_does_zero_grounding_work(self, tmp_path):
        root = tmp_path / "cache"
        cold_engine, cold = self.run_pipeline(root)
        assert cold_engine.grounding_runs == 1
        assert cold_engine.cache_stats()["grounding"]["stores"] == 1

        warm_engine, warm = self.run_pipeline(root)
        # Zero grounding work: no full grounding run happened anywhere.  When
        # every unit table hits, the grounded graph is never even loaded, so
        # the grounding counters may show no activity at all — only misses
        # would indicate grounding work.
        assert warm_engine.grounding_runs == 0
        stats = warm_engine.cache_stats()
        assert stats.get("grounding", {}).get("misses", 0) == 0
        assert stats["unit_table"]["hits"] == len(QUICKSTART_QUERIES)
        assert stats["unit_table"]["misses"] == 0

        # ... and every answer is bit-identical to the cold run's.
        for query in QUICKSTART_QUERIES:
            cold_result, warm_result = cold[query].result, warm[query].result
            if hasattr(cold_result, "ate"):
                assert warm_result.ate == cold_result.ate
            else:
                assert warm_result.aie == cold_result.aie
                assert warm_result.are == cold_result.are
                assert warm_result.aoe == cold_result.aoe
            assert warm_result.naive_difference == cold_result.naive_difference
            assert warm_result.correlation == cold_result.correlation
            assert warm_result.n_units == cold_result.n_units

    def test_warm_graph_adopts_the_artifact_csr(self, tmp_path):
        # A warm engine's graph holds the stored CSR arrays as they are:
        # memory-mapped int32, neither recompiled nor copied.
        root = tmp_path / "cache"
        cold = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM, cache=root)
        warm = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM, cache=root)
        cold_csr, csr = cold.graph.csr(), warm.graph.csr()
        assert (cold.grounding_runs, warm.grounding_runs) == (1, 0)
        for member in ("parent_indptr", "parent_indices", "child_indptr", "child_indices"):
            array = getattr(csr, member)
            assert isinstance(array, np.memmap) and array.dtype == np.int32, member
            assert np.array_equal(array, getattr(cold_csr, member)), member
        warm.answer(QUICKSTART_QUERIES[0])
        assert warm.graph.csr() is csr

    def test_uncached_engine_matches_cached(self, tmp_path):
        _, cached = self.run_pipeline(tmp_path / "cache")
        plain = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM)
        for query in QUICKSTART_QUERIES[:1]:
            assert plain.answer(query).result.ate == cached[query].result.ate

    def test_mutation_invalidates_and_reruns(self, tmp_path):
        engine = CaRLEngine(
            toy_review_database(), TOY_REVIEW_PROGRAM, cache=tmp_path / "cache"
        )
        before = engine.answer(QUICKSTART_QUERIES[0]).result
        engine.database.insert(
            "Person", {"person": "newbie", "prestige": 0, "qualification": 3}
        )
        engine.database.insert("Author", {"person": "newbie", "sub": "s1"})
        after = engine.answer(QUICKSTART_QUERIES[0]).result
        assert engine.grounding_runs == 2  # stale grounding was redone
        assert after.n_units == before.n_units + 1

        # A fresh engine over an identically mutated database must agree —
        # the re-ground used current data, not the stale graph.
        database = toy_review_database()
        database.insert("Person", {"person": "newbie", "prestige": 0, "qualification": 3})
        database.insert("Author", {"person": "newbie", "sub": "s1"})
        fresh = CaRLEngine(database, TOY_REVIEW_PROGRAM).answer(QUICKSTART_QUERIES[0]).result
        assert fresh.ate == after.ate
        assert fresh.n_units == after.n_units

    def test_stale_graph_never_served_after_mutation(self):
        engine = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM)
        nodes_before = len(engine.graph)
        engine.database.insert(
            "Person", {"person": "late", "prestige": 1, "qualification": 7}
        )
        assert len(engine.graph) > nodes_before  # no manual invalidate() needed

    def test_warm_cross_predicate_query_does_zero_grounding(self, tmp_path):
        # A query whose response lives on another predicate needs a unifying
        # aggregate the program does not declare.  Warm engines must still
        # answer it from the cache without any grounding: the unit-table
        # probe runs before the graph is read, and the cold engine stored
        # the program's grounding for miss paths.
        root = tmp_path / "cache"
        query = "MAX_Score[A] <= Prestige[A] ?"
        cold = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM, cache=root)
        cold.answer(QUICKSTART_QUERIES[0])  # grounds before the MAX rule exists
        cold_answer = cold.answer(query)

        warm = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM, cache=root)
        warm_answer = warm.answer(query)
        assert warm.grounding_runs == 0
        assert warm.cache_stats().get("grounding", {}).get("misses", 0) == 0
        assert warm_answer.result.ate == cold_answer.result.ate

        # Even with the unit table evicted, the grounding loads instead of
        # re-grounding.
        ArtifactCache(root).clear(kind="unit_table")
        warmish = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM, cache=root)
        warmish_answer = warmish.answer(query)
        assert warmish.grounding_runs == 0
        assert warmish.cache_stats()["grounding"]["hits"] == 1
        assert warmish_answer.result.ate == cold_answer.result.ate

    def test_cache_keys_do_not_depend_on_session_history(self, tmp_path):
        # Session A answers a cross-predicate query (with a unifying
        # aggregate the program does not declare) before the plain query;
        # session B answers only the plain query.  B must still hit A's
        # artifacts — keys are built from the program plus the per-query
        # resolution, which no earlier query changes.
        root = tmp_path / "cache"
        session_a = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM, cache=root)
        session_a.answer("MAX_Score[A] <= Prestige[A] ?")
        plain = session_a.answer(QUICKSTART_QUERIES[0])

        session_b = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM, cache=root)
        answer_b = session_b.answer(QUICKSTART_QUERIES[0])
        assert session_b.grounding_runs == 0
        assert session_b.cache_stats()["unit_table"] == {"hits": 1, "misses": 0, "stores": 0}
        assert answer_b.result.ate == plain.result.ate

    def test_collects_on_a_grounding_holding_another_sessions_aggregate(self, tmp_path):
        # Session A answers a unifying MAX query first and stores the
        # grounding it walked.  That grounding is the program's: it holds no
        # MAX_Score node, since the aggregate lives in the query's plan.
        # Session B loads it and must collect a query that misses the
        # unit-table cache.
        root = tmp_path / "cache"
        session_a = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM, cache=root)
        session_a.answer("MAX_Score[A] <= Prestige[A] ?")
        assert session_a.grounding_runs == 1

        query = "Score[S] <= Prestige[A] ?"
        session_b = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM, cache=root)
        answer_b = session_b.answer(query)
        assert session_b.grounding_runs == 0
        assert not session_b.graph.nodes_of("MAX_Score")
        assert session_b.cache_stats()["unit_table"]["misses"] == 1
        fresh = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM).answer(query)
        assert answer_b.result.ate == fresh.result.ate

    def test_response_resolution_does_not_depend_on_session_history(self, tmp_path):
        # Session B answers a unifying MAX query over authors before the same
        # MAX over conferences that session A answered alone.  Both resolve
        # the response to the name a fresh engine gives it, so B hits A's
        # unit table.
        root = tmp_path / "cache"
        query = 'MAX_Score[C] <= Blind[C] = "single" ?'
        session_a = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM, cache=root)
        stored = session_a.unit_table(query)

        session_b = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM, cache=root)
        session_b.answer("MAX_Score[A] <= Prestige[A] ?")
        table = session_b.unit_table(query)
        assert table.response_attribute == "MAX_Score"
        assert table.equals(stored)
        assert session_b.cache_stats()["unit_table"] == {"hits": 1, "misses": 1, "stores": 1}

    def test_unit_table_cache_used_by_unit_table_api(self, tmp_path):
        root = tmp_path / "cache"
        cold = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM, cache=root)
        cold_table = cold.unit_table(QUICKSTART_QUERIES[0])
        warm = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM, cache=root)
        warm_table = warm.unit_table(QUICKSTART_QUERIES[0])
        assert warm.cache_stats()["unit_table"]["hits"] == 1
        assert warm_table.equals(cold_table)  # bit-exact, via the loaded mmap

    def test_grounding_artifact_holds_the_program_whatever_the_query_order(self, tmp_path):
        """``MAX_Score`` is not declared, only asked for by a query: answered
        first or second, it never enters the stored grounding, and a fresh
        engine over either artifact answers it identically."""
        from repro.cache.serialization import load_grounding

        max_query = "MAX_Score[A] <= Prestige[A] ?"
        payloads, answers = [], []
        for name, order in (("first", [max_query]), ("second", ["Score[S] <= Prestige[A] ?", max_query])):
            root = tmp_path / name
            engine = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM, cache=root)
            for query in order:
                engine.answer(query)
            key = engine._grounding_key()  # noqa: SLF001
            payload = ArtifactCache(root).load(key)
            graph, _ = load_grounding(payload)
            assert "MAX_Score" not in graph.attribute_names()
            assert len(graph) == 17
            payloads.append(payload)
            # A cache holding only the grounding: the answer walks it.
            alone = tmp_path / f"{name}-grounding"
            ArtifactCache(alone).store(key, payload)
            fresh = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM, cache=alone)
            answers.append(fresh.answer(max_query).result)
            assert fresh.grounding_runs == 0
        first, second = payloads
        assert first.keys() == second.keys()
        for member in first:
            assert np.array_equal(first[member], second[member]), member
        assert answers[0].ate.hex() == answers[1].ate.hex()
        assert answers[0].correlation.hex() == answers[1].correlation.hex()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCacheCli:
    def test_query_with_cache_then_ls_stats_clear(self, tmp_path, capsys):
        root = str(tmp_path / "cache")
        assert main(["--demo", "toy", "--cache", root, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["_cache"]["grounding"]["stores"] == 1

        assert main(["--demo", "toy", "--cache", root, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # The unit-table hit answers without loading the grounding at all.
        assert payload["_cache"].get("grounding", {}).get("misses", 0) == 0
        assert payload["_cache"]["unit_table"]["hits"] == 1

        assert main(["cache", "ls", "--root", root]) == 0
        listing = capsys.readouterr().out
        assert "grounding" in listing and "unit_table" in listing

        assert main(["cache", "stats", "--root", root, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["kinds"]["grounding"]["entries"] == 1

        assert main(["cache", "clear", "--root", root, "--kind", "unit_table"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["cache", "clear", "--root", root, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["removed"] == 1

        assert main(["cache", "ls", "--root", root]) == 0
        assert "empty" in capsys.readouterr().out

    def test_cache_ls_on_missing_root(self, tmp_path, capsys):
        assert main(["cache", "ls", "--root", str(tmp_path / "nothing")]) == 0
        assert "empty" in capsys.readouterr().out

    def test_cache_evict_cli(self, tmp_path, capsys):
        root = str(tmp_path / "cache")
        assert main(["--demo", "toy", "--cache", root, "--json"]) == 0
        capsys.readouterr()

        # A generous budget evicts nothing.
        assert main(["cache", "evict", "--root", root, "--max-bytes", "10000000"]) == 0
        assert "evicted 0" in capsys.readouterr().out

        # Budget zero clears the cache, oldest artifacts first.
        assert main(["cache", "evict", "--root", root, "--max-bytes", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["removed"] >= 2 and payload["bytes_freed"] > 0
        assert main(["cache", "ls", "--root", root]) == 0
        assert "empty" in capsys.readouterr().out

        assert main(["cache", "evict", "--root", root, "--max-bytes", "-1"]) == 2

    def test_cache_evict_cli_kind_filter(self, tmp_path, capsys):
        """`repro cache evict --kind unit_inputs` clears shard partials
        independently of groundings and unit tables."""
        root = str(tmp_path / "cache")
        engine = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM, cache=root)
        engine.answer_all(
            {"q": "AVG_Score[A] <= Prestige[A] ?"}, jobs=2, executor="process", shards=2
        )
        cache = ArtifactCache(root)
        kinds = [entry.kind for entry in cache.entries()]
        assert "unit_inputs" in kinds and "grounding" in kinds

        assert main(
            ["cache", "evict", "--root", root, "--max-bytes", "0",
             "--kind", "unit_inputs", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["removed"] == kinds.count("unit_inputs")
        left = [entry.kind for entry in cache.entries()]
        assert "unit_inputs" not in left
        assert "grounding" in left and "unit_table" in left
