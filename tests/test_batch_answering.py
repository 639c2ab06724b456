"""Regression tests for `answer_all` as a concurrent batch executor.

The historical bugs pinned here:

- ``answer_all`` silently dropped the ``bootstrap`` and ``seed`` options
  that ``answer`` accepts, so batch answers could differ from one-at-a-time
  answers issued with the same options;
- ``QueryAnswer.grounding_seconds`` reported the engine's mutable
  last-grounding time, wrongly charging every later answer (including pure
  cache hits that never ground) for work it did not do.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro.carl.engine as engine_module
from repro.carl.engine import CaRLEngine
from repro.carl.errors import EstimationError, QueryError
from repro.datasets import TOY_REVIEW_PROGRAM, toy_review_database

#: A batch mixing every query family: plain ATE, aggregate-unified response,
#: treatment threshold (two variants over the same attribute pair, which the
#: batch executor shares one graph walk for), and a peer-effects query.
QUERIES = {
    "ate": "Score[S] <= Prestige[A] ?",
    "agg": "AVG_Score[A] <= Prestige[A] ?",
    "thresh": "AVG_Score[A] <= Prestige[A] >= 1 ?",
    "peers": "Score[S] <= Prestige[A] ? WHEN ALL PEERS TREATED",
}


def fresh_engine(**kwargs) -> CaRLEngine:
    return CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM, **kwargs)


def result_key(answer):
    """Every numeric field of an answer that must match bit-for-bit."""
    result = answer.result
    if hasattr(result, "ate"):
        return (
            result.ate,
            result.naive_difference,
            result.treated_mean,
            result.control_mean,
            result.correlation,
            result.n_units,
            result.confidence_interval,
        )
    return (
        result.aie,
        result.are,
        result.aoe,
        result.naive_difference,
        result.correlation,
        result.n_units,
    )


class TestKwargsForwarding:
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_batch_forwards_backend_bootstrap_seed(self, jobs):
        options = {"bootstrap": 20, "seed": 7}
        serial_engine = fresh_engine()
        serial = {
            name: serial_engine.answer(query, **options) for name, query in QUERIES.items()
        }
        batch = fresh_engine().answer_all(QUERIES, jobs=jobs, **options)
        assert list(batch) == list(QUERIES)
        for name in QUERIES:
            assert result_key(batch[name]) == result_key(serial[name]), name

    def test_bootstrap_actually_reaches_the_estimator(self):
        answers = fresh_engine().answer_all({"ate": QUERIES["ate"]}, bootstrap=10, seed=1)
        assert answers["ate"].result.confidence_interval is not None

    @pytest.mark.parametrize("seed", [1, 2])
    def test_seed_forwarded_to_bootstrap(self, seed):
        serial = fresh_engine().answer(QUERIES["ate"], bootstrap=25, seed=seed)
        batch = fresh_engine().answer_all({"ate": QUERIES["ate"]}, bootstrap=25, seed=seed)
        assert (
            batch["ate"].result.confidence_interval == serial.result.confidence_interval
        )


class TestConcurrentExecutor:
    def test_parallel_batch_identical_to_serial_columnar(self):
        serial_engine = fresh_engine()
        serial = {name: serial_engine.answer(query) for name, query in QUERIES.items()}
        batch = fresh_engine().answer_all(QUERIES, jobs=4)
        for name in QUERIES:
            assert result_key(batch[name]) == result_key(serial[name]), name

    def test_parallel_batch_grounds_once(self):
        engine = fresh_engine()
        engine.answer_all(QUERIES, jobs=4)
        assert engine.grounding_runs == 1

    def test_list_batch_keeps_index_keys(self):
        answers = fresh_engine().answer_all(list(QUERIES.values()), jobs=2)
        assert list(answers) == [str(index) for index in range(len(QUERIES))]

    def test_jobs_must_be_positive(self):
        with pytest.raises(QueryError, match="jobs"):
            fresh_engine().answer_all(QUERIES, jobs=0)
        with pytest.raises(QueryError, match="jobs"):
            fresh_engine().answer_all(QUERIES, jobs=-2)

    def test_jobs_none_selects_cpu_count(self):
        answers = fresh_engine().answer_all(QUERIES, jobs=None)
        assert set(answers) == set(QUERIES)

    def test_bad_query_raises_before_workers_start(self):
        engine = fresh_engine()
        with pytest.raises(Exception):
            engine.answer_all(["this is not a query"], jobs=4)
        assert engine.grounding_runs == 0

    def test_batch_raises_first_failure_in_input_order(self, monkeypatch):
        """The raised error is the first failed query's in input order,
        whichever failure completed first."""
        engine = fresh_engine()
        answer = engine.answer

        def slow_qualification(query, *args, **kwargs):
            if "Qualification" in str(query):
                time.sleep(0.2)  # first in input order, last to fail
            return answer(query, *args, **kwargs)

        monkeypatch.setattr(engine, "answer", slow_qualification)
        with pytest.raises(EstimationError, match="Qualification"):
            engine.answer_all(
                ["AVG_Score[A] <= Qualification[A] ?", "Score[S] <= NoSuchAttr[A] ?"],
                jobs=2,
            )


def exact(value):
    """``value`` with every float as ``float.hex``, compared bit for bit."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return exact(value.tolist())
    if isinstance(value, (list, tuple)):
        return [exact(item) for item in value]
    if isinstance(value, dict):
        return {key: exact(item) for key, item in value.items()}
    return repr(value)


class TestCollectionSharing:
    #: Three collection fingerprints: the threshold pair shares one, and so
    #: do the WHERE-restricted query and its peer-effects twin.
    QUERIES = [
        "AVG_Score[A] <= Prestige[A] >= 1 ?",
        "AVG_Score[A] <= Prestige[A] >= 0.5 ?",
        'Score[S] <= Prestige[A] ? WHERE Submitted(S, C), Blind[C] = "double"',
        "Score[S] <= Prestige[A] ? WHEN ALL PEERS TREATED "
        'WHERE Submitted(S, C), Blind[C] = "double"',
        'Score[S] <= Prestige[A] ? WHERE Submitted(S, C), Blind[C] = "single"',
    ]

    def test_thread_batch_collects_once_per_fingerprint(self, monkeypatch):
        serial_engine = fresh_engine()
        serial = [serial_engine.answer(query) for query in self.QUERIES]
        collect = engine_module.collect_unit_table_inputs
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2].units)  # the collected units (the peers')
            return collect(*args, **kwargs)

        monkeypatch.setattr(engine_module, "collect_unit_table_inputs", counting)
        batch = fresh_engine().answer_all(self.QUERIES, jobs=2)
        assert len(calls) == 3, calls
        for index, answer in enumerate(serial):
            assert exact(vars(batch[str(index)].result)) == exact(vars(answer.result))


class TestGroundingAttribution:
    def test_first_answer_charged_later_answers_zero(self):
        engine = fresh_engine()
        first = engine.answer(QUERIES["ate"])
        second = engine.answer(QUERIES["agg"])
        assert first.grounding_seconds > 0.0
        assert second.grounding_seconds == 0.0

    def test_unit_table_cache_hit_reports_zero(self, tmp_path):
        fresh_engine(cache=tmp_path).answer(QUERIES["ate"])
        warm = fresh_engine(cache=tmp_path)
        answer = warm.answer(QUERIES["ate"])
        # The warm answer never touches the graph: no grounding happened, so
        # none may be reported.
        assert warm.grounding_runs == 0
        assert answer.grounding_seconds == 0.0

    def test_batch_answers_not_charged_for_shared_grounding(self):
        answers = fresh_engine().answer_all(QUERIES, jobs=4)
        # The one grounding ran up front in answer_all, before any worker.
        assert all(answer.grounding_seconds == 0.0 for answer in answers.values())
