"""Unit tests for unit-table construction (repro.carl.unit_table, Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.carl.causal_graph import GroundedAttribute
from repro.carl.errors import EstimationError
from repro.carl.grounding import Grounder
from repro.carl.model import RelationalCausalModel
from repro.carl.parser import parse_program
from repro.carl.peers import compute_peers
from repro.carl.unit_table import build_unit_table, default_binarizer
from repro.datasets import TOY_REVIEW_PROGRAM, toy_review_database


@pytest.fixture(scope="module")
def toy_setup():
    program = parse_program(TOY_REVIEW_PROGRAM)
    model = RelationalCausalModel.from_program(program)
    grounder = Grounder(model, model.schema.bind(toy_review_database()))
    graph = grounder.ground()
    values = grounder.grounded_attribute_values(graph)
    units = [("Bob",), ("Carlos",), ("Eva",)]
    peers = compute_peers(graph, "Prestige", "AVG_Score", units)
    return graph, values, units, peers, model


def build(toy_setup, **kwargs):
    graph, values, units, peers, model = toy_setup
    return build_unit_table(
        graph=graph,
        values=values,
        treatment_attribute="Prestige",
        response_attribute="AVG_Score",
        units=units,
        peers=peers,
        is_observed=model.is_observed,
        **kwargs,
    )


class TestToyUnitTable:
    def test_matches_paper_table_1(self, toy_setup):
        """The unit table for Prestige -> AVG_Score on Figure 2 (paper Table 1)."""
        table = build(toy_setup)
        rows = {row["unit"]: row for row in table.to_rows()}
        assert rows[("Bob",)]["AVG_Score"] == pytest.approx(0.75)
        assert rows[("Carlos",)]["AVG_Score"] == pytest.approx(0.1)
        assert rows[("Eva",)]["AVG_Score"] == pytest.approx((0.75 + 0.4 + 0.1) / 3)
        # Embedded coauthor treatments: Bob's only peer (Eva) is prestigious.
        assert rows[("Bob",)]["peer_treatment_mean"] == 1.0
        assert rows[("Eva",)]["peer_treatment_mean"] == 0.5
        assert rows[("Eva",)]["peer_treatment_count"] == 2.0

    def test_shapes_and_columns(self, toy_setup):
        table = build(toy_setup)
        assert len(table) == 3
        assert table.outcome.shape == (3,)
        assert table.features().shape[0] == 3
        assert table.feature_names[0] == "treatment"
        assert "cov_own_Qualification_mean" in table.covariate_columns
        assert "cov_peer_Qualification_mean" in table.covariate_columns
        assert table.has_peers

    def test_peer_fraction_column(self, toy_setup):
        table = build(toy_setup)
        by_unit = dict(zip(table.unit_keys, table.peer_fraction()))
        assert by_unit[("Eva",)] == pytest.approx(0.5)

    def test_summary(self, toy_setup):
        summary = build(toy_setup).summary()
        assert summary["units"] == 3
        assert summary["treated"] == 2
        assert summary["control"] == 1
        assert summary["mean_peer_count"] == pytest.approx(4 / 3)

    def test_embedding_choice_changes_columns(self, toy_setup):
        table = build(toy_setup, embedding="moments")
        assert any(column.endswith("_skew") for column in table.covariate_columns)
        padded = build(toy_setup, embedding="padding")
        assert any("_pad" in column for column in padded.covariate_columns)

    def test_custom_binarizer(self, toy_setup):
        graph, values, units, _, model = toy_setup
        peers = compute_peers(graph, "Qualification", "AVG_Score", units)
        table = build_unit_table(
            graph=graph,
            values=values,
            treatment_attribute="Qualification",
            response_attribute="AVG_Score",
            units=units,
            peers=peers,
            is_observed=model.is_observed,
            binarize=lambda value: 1.0 if value >= 20 else 0.0,
        )
        by_unit = dict(zip(table.unit_keys, table.treatment))
        assert by_unit[("Bob",)] == 1.0  # h-index 50
        assert by_unit[("Eva",)] == 0.0  # h-index 2


class TestErrors:
    def test_non_binary_treatment_without_threshold(self, toy_setup):
        graph, values, units, _, model = toy_setup
        peers = compute_peers(graph, "Qualification", "AVG_Score", units)
        with pytest.raises(EstimationError, match="non-binary"):
            build_unit_table(
                graph=graph,
                values=values,
                treatment_attribute="Qualification",
                response_attribute="AVG_Score",
                units=units,
                peers=peers,
                is_observed=model.is_observed,
            )

    def test_no_valid_units(self, toy_setup):
        graph, values, _, _, model = toy_setup
        with pytest.raises(EstimationError, match="no units"):
            build_unit_table(
                graph=graph,
                values=values,
                treatment_attribute="Prestige",
                response_attribute="AVG_Score",
                units=[("Ghost",)],
                peers=compute_peers(graph, "Prestige", "AVG_Score", [("Ghost",)]),
                is_observed=model.is_observed,
            )

    def test_default_binarizer_accepts_bools_and_binary_ints(self):
        binarize = default_binarizer("T")
        assert binarize(True) == 1.0
        assert binarize(0) == 0.0
        with pytest.raises(EstimationError):
            binarize(7)


class TestCategoricalCovariates:
    def test_categorical_parent_is_one_hot_encoded(self):
        program = parse_program(
            """
            ENTITY Patient(pat);
            ATTRIBUTE Ethnicity OF Patient;
            ATTRIBUTE SelfPay OF Patient;
            ATTRIBUTE Death OF Patient;
            SelfPay[P] <= Ethnicity[P] WHERE Patient(P);
            Death[P] <= SelfPay[P] WHERE Patient(P);
            """
        )
        from repro.db.database import Database

        db = Database("mini")
        db.create_table(
            "Patient",
            {"pat": "str", "ethnicity": "str", "selfpay": "int", "death": "int"},
            primary_key=("pat",),
        ).insert_many(
            [
                {"pat": "p1", "ethnicity": "white", "selfpay": 0, "death": 0},
                {"pat": "p2", "ethnicity": "black", "selfpay": 1, "death": 1},
                {"pat": "p3", "ethnicity": "white", "selfpay": 1, "death": 0},
                {"pat": "p4", "ethnicity": "asian", "selfpay": 0, "death": 0},
            ]
        )
        model = RelationalCausalModel.from_program(program)
        grounder = Grounder(model, model.schema.bind(db))
        graph = grounder.ground()
        values = grounder.grounded_attribute_values(graph)
        units = model.schema.bind(db).units("SelfPay")
        table = build_unit_table(
            graph=graph,
            values=values,
            treatment_attribute="SelfPay",
            response_attribute="Death",
            units=units,
            peers=compute_peers(graph, "SelfPay", "Death", units),
            is_observed=model.is_observed,
        )
        assert any("is_white" in column for column in table.covariate_columns)
        assert not table.has_peers
        assert np.all(np.isfinite(table.covariates))
