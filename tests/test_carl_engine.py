"""Unit and integration tests for the CaRL engine (repro.carl.engine)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.store import ArtifactCache
from repro.carl.ast import PEER_CONDITION_KINDS, PeerCondition
from repro.carl.causal_graph import GroundedAttribute
from repro.carl.engine import CaRLEngine
from repro.carl.errors import CaRLError, QueryError, SchemaBindingError
from repro.carl.parser import parse_query
from repro.carl.queries import ATEResult, EffectsResult
from repro.carl.shard import _plan_query
from repro.datasets import (
    TOY_REVIEW_PROGRAM,
    generate_synthetic_review_data,
    toy_review_database,
)
from repro.inference.outcome import OutcomeModel


def toy_with_unscored_author():
    """The toy database plus author Dan, whose one submission s9 has no
    ``Submission`` row, so no parent of ``AVG_Score[Dan]`` carries a value."""
    database = toy_review_database()
    database.table("Person").insert({"person": "Dan", "prestige": 0, "qualification": 10})
    database.table("Author").insert({"person": "Dan", "sub": "s9"})
    return database


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
        values = toy_engine.values
        assert values[GroundedAttribute("Score", ("s1",))] == pytest.approx(0.75)
        assert values[GroundedAttribute("AVG_Score", ("Bob",))] == pytest.approx(0.75)


class TestAggregateHeadWithoutValuedParent:
    def test_declared_and_spliced_heads_have_no_value(self):
        dan_max = GroundedAttribute("MAX_Score", ("Dan",))
        query = "MAX_Score[A] <= Prestige[A] ?"

        engine = CaRLEngine(toy_with_unscored_author(), TOY_REVIEW_PROGRAM)
        assert engine.values.get(GroundedAttribute("AVG_Score", ("Dan",))) is None
        table = engine.unit_table("AVG_Score[A] <= Prestige[A] ?")
        assert table.unit_keys == [("Bob",), ("Carlos",), ("Eva",)]
        # Registered after grounding: the head is spliced into a new snapshot.
        spliced = engine.unit_table(query)
        assert engine.values.get(dan_max) is None

        # A fresh engine's first query: the head is ground with the program.
        fresh = CaRLEngine(toy_with_unscored_author(), TOY_REVIEW_PROGRAM)
        declared = fresh.unit_table(query)
        assert fresh.values.get(dan_max) is None
        assert declared.equals(spliced)
        assert len(declared) == 3


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

    def test_treated_fraction_is_computed_once_per_distinct_peer_count(
        self, tmp_path, monkeypatch
    ):
        """A warm answer reads a memory-mapped unit table: the peer condition
        runs once per distinct peer count, not once per unit, and every
        kind's effects equal the per-unit loop's exactly."""
        query = "Score[S] <= Prestige[A] ? WHEN ALL PEERS TREATED"
        CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM, cache=tmp_path).answer(query)
        engine = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM, cache=tmp_path)
        table = engine.unit_table(query)
        assert isinstance(table.peer_counts, np.memmap)
        distinct = len(np.unique(table.peer_counts))
        assert distinct < len(table)

        calls = []
        original = PeerCondition.treated_fraction

        def counted(condition, peer_count):
            calls.append(peer_count)
            return original(condition, peer_count)

        monkeypatch.setattr(PeerCondition, "treated_fraction", counted)
        engine.answer(query)
        assert 0 < len(calls) <= distinct

        model = OutcomeModel().fit(
            table.outcome, table.treatment, table.peer_treatment, table.covariates
        )

        def predict(treated, peers_treated):
            return model.predict_intervention(
                treated, peers_treated, table.peer_treatment, table.peer_counts,
                table.covariates,
            )

        values = {"MORE_THAN_PERCENT": 40, "LESS_THAN_PERCENT": 60}
        for kind in PEER_CONDITION_KINDS:
            value = None if kind in ("ALL", "NONE") else values.get(kind, 2)
            condition = PeerCondition(kind=kind, value=value)
            result = engine._estimate_effects(condition, table, "ols")
            fraction = np.asarray(
                [original(condition, int(count)) for count in table.peer_counts]
            )
            treated_peers_1 = predict(1.0, fraction)
            treated_peers_0 = predict(0.0, fraction)
            control_peers_0 = predict(0.0, np.zeros(len(table)))
            assert result.aie == float(np.mean(treated_peers_1 - treated_peers_0)), kind
            assert result.are == float(np.mean(treated_peers_0 - control_peers_0)), kind
            assert result.aoe == float(np.mean(treated_peers_1 - control_peers_0)), kind


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

    @pytest.mark.parametrize(
        ("clause", "error", "match"),
        [
            (
                'WHERE Conference(C), Blind[C] = "none"',
                QueryError,
                "restricts nothing.*'Person'.*'Submission'",
            ),
            ("WHERE Submitted(S)", SchemaBindingError, "arity 1"),
            ("WHERE Author(A, S, X)", SchemaBindingError, "arity 3"),
            ("WHERE Nope(S)", SchemaBindingError, "unknown predicate 'Nope'"),
            (
                'WHERE Submitted(S, C), Nope[C] = "double"',
                SchemaBindingError,
                "unknown attribute 'Nope'",
            ),
            ('WHERE Submitted(S, C), Blind[C, S] = "double"', SchemaBindingError, "arity 2"),
        ],
        ids=[
            "restricts-nothing",
            "under-arity",
            "over-arity",
            "unknown-predicate",
            "unknown-compared-attribute",
            "compared-attribute-arity",
        ],
    )
    def test_bad_where_clause_raises_before_grounding(self, clause, error, match, tmp_path):
        query = f"Score[S] <= Prestige[A] ? {clause}"
        engine = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM)
        with pytest.raises(error, match=match):
            engine.answer(query)
        with pytest.raises(error, match=match):
            _plan_query(engine, ArtifactCache(tmp_path), parse_query(query), "mean")
        assert engine.grounding_runs == 0

    @pytest.mark.parametrize(
        "rule",
        [
            "AVG_Score[X] <= Score[S] WHERE Author(A, S, X);",
            "AVG_Score[A] <= Score[S] WHERE Author(A, S, X);",
        ],
    )
    def test_aggregate_rule_arity_checked_at_construction(self, rule):
        program = TOY_REVIEW_PROGRAM.replace(
            "AVG_Score[A] <= Score[S] WHERE Author(A, S);", rule
        )
        assert rule in program
        with pytest.raises(CaRLError, match="arity"):
            CaRLEngine(toy_review_database(), program)

    @pytest.mark.parametrize(
        "rule",
        [
            "Score[S] <= Prestige[A] WHERE Author(A, S, X);",
            'Score[S] <= Prestige[A] WHERE Author(A, S), Blind[S, A] = "double";',
        ],
        ids=["atom-arity", "compared-attribute-arity"],
    )
    def test_causal_rule_condition_checked_at_construction(self, rule):
        program = TOY_REVIEW_PROGRAM.replace("Score[S] <= Prestige[A] WHERE Author(A, S);", rule)
        assert rule in program
        with pytest.raises(SchemaBindingError, match="arity"):
            CaRLEngine(toy_review_database(), program)

    def test_unit_table_helper(self, toy_engine):
        table = toy_engine.unit_table("AVG_Score[A] <= Prestige[A] ?")
        assert len(table) == 3
