"""Unit and integration tests for the CaRL engine (repro.carl.engine)."""

from __future__ import annotations

import pytest

from repro.carl.engine import CaRLEngine
from repro.carl.errors import QueryError
from repro.carl.queries import ATEResult, EffectsResult
from repro.datasets import (
    TOY_REVIEW_PROGRAM,
    generate_synthetic_review_data,
    toy_review_database,
)


class TestGrounding:
    def test_graph_is_cached(self, toy_engine):
        first = toy_engine.graph
        assert toy_engine.graph is first

    def test_invalidate_rebuilds(self):
        engine = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM)
        first = engine.graph
        engine.invalidate()
        assert engine.graph is not first

    def test_values_include_observed_and_aggregates(self, toy_engine):
        from repro.carl.causal_graph import GroundedAttribute

        values = toy_engine.values
        assert values[GroundedAttribute("Score", ("s1",))] == pytest.approx(0.75)
        assert values[GroundedAttribute("AVG_Score", ("Bob",))] == pytest.approx(0.75)


class TestATEQueries:
    def test_basic_ate_query(self, toy_engine):
        answer = toy_engine.answer("Score[S] <= Prestige[A] ?")
        result = answer.result
        assert isinstance(result, ATEResult)
        assert result.n_units == 3
        assert result.n_treated == 2
        assert result.n_control == 1
        assert result.naive_difference == pytest.approx((0.75 + 0.416666) / 2 - 0.1, abs=1e-3)
        assert answer.unit_table_seconds >= 0.0
        assert answer.total_seconds >= answer.unit_table_seconds

    def test_aggregated_response_query_reuses_declared_aggregate(self, toy_engine):
        answer = toy_engine.answer("AVG_Score[A] <= Prestige[A] ?")
        assert answer.result.n_units == 3

    def test_query_object_input(self, toy_engine):
        from repro.carl.parser import parse_query

        answer = toy_engine.answer(parse_query("Score[S] <= Prestige[A] ?"))
        assert isinstance(answer.result, ATEResult)

    def test_treatment_threshold_binarizes(self, toy_engine):
        answer = toy_engine.answer("AVG_Score[A] <= Qualification[A] >= 20 ?")
        result = answer.result
        # Bob (50) and Carlos (20) are treated; Eva (2) is control.
        assert result.n_treated == 2
        assert result.n_control == 1

    def test_where_restriction_on_response_entity(self, toy_engine):
        answer = toy_engine.answer(
            'Score[S] <= Prestige[A] ? WHERE Submitted(S, C), Blind[C] = "double"'
        )
        # Only s2 and s3 (ConfAI) count; Bob has no double-blind submission and
        # is dropped from the unit table.
        assert answer.result.n_units == 2

    def test_where_restriction_on_treated_entity(self, toy_engine):
        answer = toy_engine.answer(
            'AVG_Score[A] <= Prestige[A] ? WHERE Author(A, S), S = "s3"'
        )
        # Only the authors of s3 (Eva, Carlos) remain as units.
        assert answer.result.n_units == 2

    def test_alternative_estimators_run(self, toy_engine):
        for estimator in ("naive", "ipw"):
            answer = toy_engine.answer("AVG_Score[A] <= Prestige[A] ?", estimator=estimator)
            assert answer.result.estimator == estimator

    def test_bootstrap_interval(self, toy_engine):
        answer = toy_engine.answer("AVG_Score[A] <= Prestige[A] ?", bootstrap=25, seed=1)
        interval = answer.result.confidence_interval
        assert interval is not None
        assert interval[0] <= interval[1]

    def test_regression_bootstrap_resamples_the_point_estimate(self):
        """The default estimator reports the overall effect (own and peer
        treatment all on against all off, Eq. 23); its bootstrap interval
        resamples that same statistic, so it brackets ``ate``."""
        data = generate_synthetic_review_data(n_authors=300, seed=1)
        engine = CaRLEngine(data.database, data.program)
        for name in ("ate_single", "ate_double"):
            result = engine.answer(data.queries[name], bootstrap=50, seed=1).result
            lower, upper = result.confidence_interval
            assert lower <= result.ate <= upper, (name, result.ate, lower, upper)


class TestEffectsQueries:
    def test_peer_query_returns_effects(self, toy_engine):
        answer = toy_engine.answer("Score[S] <= Prestige[A] ? WHEN ALL PEERS TREATED")
        result = answer.result
        assert isinstance(result, EffectsResult)
        assert result.peer_condition.kind == "ALL"
        assert result.n_units == 3
        assert result.mean_peer_count == pytest.approx(4 / 3)

    def test_decomposition_holds(self, toy_engine):
        """Proposition 4.1: AOE = AIE + ARE."""
        result = toy_engine.answer("Score[S] <= Prestige[A] ? WHEN ALL PEERS TREATED").result
        assert result.decomposition_gap < 1e-9

    def test_fraction_peer_condition(self, toy_engine):
        result = toy_engine.answer(
            "Score[S] <= Prestige[A] ? WHEN MORE THAN 1/3 PEERS TREATED"
        ).result
        assert isinstance(result, EffectsResult)
        assert result.decomposition_gap < 1e-9

    def test_none_condition_yields_zero_relational_effect(self, toy_engine):
        result = toy_engine.answer("Score[S] <= Prestige[A] ? WHEN NONE PEERS TREATED").result
        assert result.are == pytest.approx(0.0, abs=1e-12)
        assert result.aoe == pytest.approx(result.aie, abs=1e-12)


class TestConditionalEffects:
    def test_conditional_effects_shape(self, toy_engine):
        cate = toy_engine.conditional_effects("AVG_Score[A] <= Prestige[A] ?")
        assert cate.shape == (3,)


class TestErrors:
    def test_unknown_treatment(self, toy_engine):
        with pytest.raises(QueryError, match="unknown treatment"):
            toy_engine.answer("Score[S] <= Fame[A] ?")

    def test_latent_treatment_rejected(self, toy_engine):
        with pytest.raises(QueryError, match="latent"):
            toy_engine.answer("Score[S] <= Quality[S] ?")

    def test_unknown_response(self, toy_engine):
        with pytest.raises(QueryError, match="unknown response"):
            toy_engine.answer("Fame[A] <= Prestige[A] ?")

    def test_latent_response_rejected(self, toy_engine):
        with pytest.raises(QueryError, match="latent"):
            toy_engine.answer("Quality[S] <= Prestige[A] ?")

    def test_condition_excluding_every_unit(self, toy_engine):
        with pytest.raises(QueryError, match="excludes every unit"):
            toy_engine.answer('AVG_Score[A] <= Prestige[A] ? WHERE Author(A, S), S = "zzz"')

    def test_unit_table_helper(self, toy_engine):
        table = toy_engine.unit_table("AVG_Score[A] <= Prestige[A] ?")
        assert len(table) == 3
