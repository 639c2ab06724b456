"""Estimator behavior on degenerate unit tables.

The unit-table builder hands the estimators arrays straight from bulk
materialization, so degenerate shapes (all-treated, all-control,
zero-variance covariates, single-unit strata, empty covariate matrices)
must keep failing loudly — or succeeding finitely — exactly as before.
These tests pin that contract so vectorization can't silently regress it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.inference.estimators import (
    ESTIMATORS,
    EstimatorError,
    estimate_ate,
    estimate_ate_from_unit_table,
)

ALL_ESTIMATORS = sorted(ESTIMATORS)


def _toy_data(n: int = 20, seed: int = 0):
    rng = np.random.default_rng(seed)
    treatment = (np.arange(n) % 2).astype(float)
    covariates = rng.normal(size=(n, 2))
    outcome = 2.0 * treatment + covariates @ np.array([0.5, -0.25]) + rng.normal(size=n) * 0.1
    return outcome, treatment, covariates


@pytest.mark.parametrize("estimator", ALL_ESTIMATORS)
def test_all_treated_raises(estimator):
    outcome = np.ones(10)
    treatment = np.ones(10)
    with pytest.raises(EstimatorError):
        estimate_ate(outcome, treatment, None, estimator=estimator)


@pytest.mark.parametrize("estimator", ALL_ESTIMATORS)
def test_all_control_raises(estimator):
    outcome = np.ones(10)
    treatment = np.zeros(10)
    with pytest.raises(EstimatorError):
        estimate_ate(outcome, treatment, None, estimator=estimator)


@pytest.mark.parametrize("estimator", ALL_ESTIMATORS)
def test_zero_units_raises(estimator):
    with pytest.raises(EstimatorError):
        estimate_ate(np.empty(0), np.empty(0), np.empty((0, 2)), estimator=estimator)


@pytest.mark.parametrize("estimator", ALL_ESTIMATORS)
def test_zero_variance_covariates_are_finite(estimator):
    """Constant (zero-variance) covariate columns must not blow up: the
    regression solver is minimum-norm and the propensity model standardizes
    constant columns to zeros."""
    outcome, treatment, _ = _toy_data()
    covariates = np.hstack([np.full((len(outcome), 1), 3.7), np.zeros((len(outcome), 1))])
    estimate = estimate_ate(outcome, treatment, covariates, estimator=estimator)
    assert math.isfinite(estimate.ate)
    assert estimate.n_treated + estimate.n_control == len(outcome)


@pytest.mark.parametrize("estimator", ALL_ESTIMATORS)
def test_empty_covariate_matrix_is_finite(estimator):
    outcome, treatment, _ = _toy_data()
    estimate = estimate_ate(outcome, treatment, np.empty((len(outcome), 0)), estimator=estimator)
    assert math.isfinite(estimate.ate)


@pytest.mark.parametrize("estimator", ALL_ESTIMATORS)
def test_two_units_one_per_arm(estimator):
    """The minimal estimable unit table: one treated, one control unit.

    Every estimator must either produce a finite contrast or raise a clean
    EstimatorError (e.g. when no stratum contains both arms) — never NaN."""
    outcome = np.array([1.0, 3.0])
    treatment = np.array([0.0, 1.0])
    covariates = np.array([[0.5], [0.5]])
    try:
        estimate = estimate_ate(outcome, treatment, covariates, estimator=estimator)
    except EstimatorError:
        return
    assert math.isfinite(estimate.ate)


def test_stratification_with_singleton_strata():
    """n=1 strata: when every stratum holds a single unit no within-stratum
    contrast exists and stratification must raise cleanly, not emit NaN."""
    outcome = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0])
    treatment = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    covariates = np.arange(6, dtype=float).reshape(-1, 1)
    with pytest.raises(EstimatorError, match="no stratum"):
        estimate_ate(outcome, treatment, covariates, estimator="stratification", n_strata=6)


def test_stratification_with_tied_scores_recovers():
    """Tied propensity scores collapse units into shared strata, so the same
    request succeeds once the covariate stops separating every unit."""
    outcome = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0])
    treatment = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    covariates = np.array([[0.0], [0.0], [1.0], [1.0], [2.0], [2.0]])
    estimate = estimate_ate(
        outcome, treatment, covariates, estimator="stratification", n_strata=6
    )
    assert math.isfinite(estimate.ate)
    assert estimate.details["n_strata_used"] >= 1


def test_perfectly_separated_treatment_stays_bounded():
    """A covariate that perfectly separates the arms: propensity clipping must
    keep IPW and AIPW weights (and hence the estimates) bounded."""
    n = 40
    treatment = np.repeat([0.0, 1.0], n // 2)
    covariates = treatment.reshape(-1, 1) * 10.0
    rng = np.random.default_rng(3)
    outcome = treatment * 2.0 + rng.normal(size=n) * 0.01
    for estimator in ("ipw", "aipw"):
        estimate = estimate_ate(outcome, treatment, covariates, estimator=estimator)
        assert math.isfinite(estimate.ate)
        assert abs(estimate.ate) < 1e3


def test_estimate_from_unit_table_matches_arrays(toy_engine):
    unit_table = toy_engine.unit_table("Score[S] <= Prestige[A] ?")
    direct = estimate_ate_from_unit_table(unit_table, estimator="ipw")
    via_arrays = estimate_ate(
        unit_table.outcome,
        unit_table.treatment,
        unit_table.adjustment_features(),
        estimator="ipw",
    )
    assert direct.ate == pytest.approx(via_arrays.ate, rel=1e-12)
    assert direct.n_units == len(unit_table)


def test_unknown_estimator_message_lists_options():
    with pytest.raises(EstimatorError, match="unknown estimator"):
        estimate_ate(np.ones(4), np.array([0.0, 1.0, 0.0, 1.0]), None, estimator="nope")
