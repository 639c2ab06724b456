"""Average-treatment-effect estimators on a flat (unit) table.

All estimators share the same signature: ``(outcome, treatment, covariates)``
arrays, returning an :class:`ATEEstimate`.  They correspond to the standard
techniques the paper points at once the unit table is built: regression
adjustment, matching, propensity-score matching, inverse propensity
weighting, stratification on the propensity score, and doubly-robust AIPW.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.inference.matching import coarsened_exact_matching, nearest_neighbor_match
from repro.inference.propensity import estimate_propensity_scores
from repro.inference.regression import LinearRegression


class EstimatorError(ValueError):
    """Raised when an effect cannot be estimated (e.g. a group is empty)."""


@dataclass
class ATEEstimate:
    """A point estimate of the average treatment effect plus diagnostics."""

    ate: float
    estimator: str
    n_units: int
    n_treated: int
    n_control: int
    details: dict[str, Any] = field(default_factory=dict)

    def __float__(self) -> float:
        return self.ate


def _prepare(
    outcome: np.ndarray, treatment: np.ndarray, covariates: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    outcome = np.asarray(outcome, dtype=float).ravel()
    treatment = np.asarray(treatment, dtype=float).ravel()
    if covariates is None:
        covariates = np.empty((len(outcome), 0))
    # ascontiguousarray is a no-op for the C-contiguous float64 matrices the
    # unit-table builder hands over; anything else is normalized once
    # here so the BLAS-heavy estimators below never re-copy.
    covariates = np.ascontiguousarray(covariates, dtype=float)
    if covariates.ndim == 1:
        covariates = covariates.reshape(-1, 1)
    if len(outcome) != len(treatment) or len(outcome) != covariates.shape[0]:
        raise EstimatorError(
            "outcome, treatment and covariates must have the same number of rows"
        )
    if len(outcome) == 0:
        raise EstimatorError("cannot estimate an effect from zero units")
    treated = treatment > 0.5
    if not treated.any() or treated.all():
        raise EstimatorError(
            "both treated and control units are required "
            f"(treated={int(treated.sum())}, control={int((~treated).sum())})"
        )
    return outcome, treatment, covariates


def _counts(treatment: np.ndarray) -> tuple[int, int]:
    treated = treatment > 0.5
    return int(treated.sum()), int((~treated).sum())


# ----------------------------------------------------------------------
# estimators
# ----------------------------------------------------------------------
def outcome_model_ate(
    outcome: np.ndarray, treatment: np.ndarray, covariates: np.ndarray | None = None
) -> ATEEstimate:
    """Regression adjustment: fit ``y ~ [t | Z]`` and average the plug-in contrast."""
    outcome, treatment, covariates = _prepare(outcome, treatment, covariates)
    design = np.hstack([treatment.reshape(-1, 1), covariates])
    model = LinearRegression().fit(design, outcome)
    design_treated = design.copy()
    design_treated[:, 0] = 1.0
    design_control = design.copy()
    design_control[:, 0] = 0.0
    effect = float(np.mean(model.predict(design_treated) - model.predict(design_control)))
    n_treated, n_control = _counts(treatment)
    return ATEEstimate(
        ate=effect,
        estimator="regression",
        n_units=len(outcome),
        n_treated=n_treated,
        n_control=n_control,
        details={"r_squared": model.score(design, outcome)},
    )


def matching_ate(
    outcome: np.ndarray,
    treatment: np.ndarray,
    covariates: np.ndarray | None = None,
    metric: str = "euclidean",
) -> ATEEstimate:
    """Nearest-neighbour matching on covariates (ATT-style, symmetrized).

    The effect is the average of the treated-vs-matched-control contrast and
    the (negated) control-vs-matched-treated contrast, which estimates the
    ATE when treatment effect heterogeneity is mild.
    """
    outcome, treatment, covariates = _prepare(outcome, treatment, covariates)

    forward = nearest_neighbor_match(treatment, covariates, metric=metric)
    backward = nearest_neighbor_match(1.0 - treatment, covariates, metric=metric)
    contrasts: list[float] = []
    if len(forward):
        contrasts.append(
            float(np.mean(outcome[forward.treated_indices] - outcome[forward.control_indices]))
        )
    if len(backward):
        contrasts.append(
            float(np.mean(outcome[backward.control_indices] - outcome[backward.treated_indices]))
        )
    if not contrasts:
        raise EstimatorError("matching produced no matched pairs")
    n_treated, n_control = _counts(treatment)
    return ATEEstimate(
        ate=float(np.mean(contrasts)),
        estimator="matching",
        n_units=len(outcome),
        n_treated=n_treated,
        n_control=n_control,
        details={"n_pairs": len(forward) + len(backward), "metric": metric},
    )


def propensity_matching_ate(
    outcome: np.ndarray, treatment: np.ndarray, covariates: np.ndarray | None = None
) -> ATEEstimate:
    """Nearest-neighbour matching on the estimated propensity score."""
    outcome, treatment, covariates = _prepare(outcome, treatment, covariates)
    scores = estimate_propensity_scores(treatment, covariates)
    estimate = matching_ate(outcome, treatment, scores.reshape(-1, 1), metric="euclidean")
    estimate.estimator = "propensity_matching"
    estimate.details["propensity_range"] = (float(scores.min()), float(scores.max()))
    return estimate


def ipw_ate(
    outcome: np.ndarray, treatment: np.ndarray, covariates: np.ndarray | None = None
) -> ATEEstimate:
    """Inverse propensity weighting with stabilized (Hajek) weights."""
    outcome, treatment, covariates = _prepare(outcome, treatment, covariates)
    scores = estimate_propensity_scores(treatment, covariates)
    treated = treatment > 0.5
    weights_treated = 1.0 / scores[treated]
    weights_control = 1.0 / (1.0 - scores[~treated])
    treated_mean = float(np.sum(outcome[treated] * weights_treated) / np.sum(weights_treated))
    control_mean = float(np.sum(outcome[~treated] * weights_control) / np.sum(weights_control))
    n_treated, n_control = _counts(treatment)
    return ATEEstimate(
        ate=treated_mean - control_mean,
        estimator="ipw",
        n_units=len(outcome),
        n_treated=n_treated,
        n_control=n_control,
        details={"treated_mean": treated_mean, "control_mean": control_mean},
    )


def stratification_ate(
    outcome: np.ndarray,
    treatment: np.ndarray,
    covariates: np.ndarray | None = None,
    n_strata: int = 5,
) -> ATEEstimate:
    """Stratify on the propensity score and average within-stratum contrasts."""
    outcome, treatment, covariates = _prepare(outcome, treatment, covariates)
    scores = estimate_propensity_scores(treatment, covariates)
    quantiles = np.quantile(scores, np.linspace(0, 1, n_strata + 1)[1:-1])
    strata = np.digitize(scores, np.unique(quantiles))

    effects: list[float] = []
    weights: list[int] = []
    for stratum in np.unique(strata):
        mask = strata == stratum
        stratum_treatment = treatment[mask]
        if not (stratum_treatment > 0.5).any() or not (stratum_treatment <= 0.5).any():
            continue
        treated_mean = float(outcome[mask][stratum_treatment > 0.5].mean())
        control_mean = float(outcome[mask][stratum_treatment <= 0.5].mean())
        effects.append(treated_mean - control_mean)
        weights.append(int(mask.sum()))
    if not effects:
        raise EstimatorError("no stratum contains both treated and control units")
    effect = float(np.average(effects, weights=weights))
    n_treated, n_control = _counts(treatment)
    return ATEEstimate(
        ate=effect,
        estimator="stratification",
        n_units=len(outcome),
        n_treated=n_treated,
        n_control=n_control,
        details={"n_strata_used": len(effects)},
    )


def cem_ate(
    outcome: np.ndarray,
    treatment: np.ndarray,
    covariates: np.ndarray | None = None,
    bins: int = 5,
) -> ATEEstimate:
    """Coarsened exact matching: within-stratum contrasts weighted by stratum size."""
    outcome, treatment, covariates = _prepare(outcome, treatment, covariates)
    strata = coarsened_exact_matching(treatment, covariates, bins=bins)
    if not strata:
        raise EstimatorError("coarsened exact matching produced no usable strata")
    effects: list[float] = []
    weights: list[int] = []
    for members in strata.values():
        member_indices = np.asarray(members, dtype=int)
        member_treatment = treatment[member_indices]
        treated_mean = float(outcome[member_indices][member_treatment > 0.5].mean())
        control_mean = float(outcome[member_indices][member_treatment <= 0.5].mean())
        effects.append(treated_mean - control_mean)
        weights.append(len(members))
    effect = float(np.average(effects, weights=weights))
    n_treated, n_control = _counts(treatment)
    return ATEEstimate(
        ate=effect,
        estimator="cem",
        n_units=len(outcome),
        n_treated=n_treated,
        n_control=n_control,
        details={"n_strata": len(strata), "matched_units": int(sum(weights))},
    )


def doubly_robust_ate(
    outcome: np.ndarray, treatment: np.ndarray, covariates: np.ndarray | None = None
) -> ATEEstimate:
    """Augmented IPW (doubly robust): outcome regression + propensity correction."""
    outcome, treatment, covariates = _prepare(outcome, treatment, covariates)
    scores = estimate_propensity_scores(treatment, covariates)
    design = np.hstack([treatment.reshape(-1, 1), covariates])
    model = LinearRegression().fit(design, outcome)
    design_treated = design.copy()
    design_treated[:, 0] = 1.0
    design_control = design.copy()
    design_control[:, 0] = 0.0
    mu1 = model.predict(design_treated)
    mu0 = model.predict(design_control)
    treated = treatment
    augmented_1 = mu1 + treated * (outcome - mu1) / scores
    augmented_0 = mu0 + (1.0 - treated) * (outcome - mu0) / (1.0 - scores)
    effect = float(np.mean(augmented_1 - augmented_0))
    n_treated, n_control = _counts(treatment)
    return ATEEstimate(
        ate=effect,
        estimator="aipw",
        n_units=len(outcome),
        n_treated=n_treated,
        n_control=n_control,
        details={},
    )


def naive_ate(
    outcome: np.ndarray, treatment: np.ndarray, covariates: np.ndarray | None = None
) -> ATEEstimate:
    """Unadjusted difference of group means (the paper's naive baseline)."""
    outcome, treatment, _ = _prepare(outcome, treatment, covariates)
    treated = treatment > 0.5
    effect = float(outcome[treated].mean() - outcome[~treated].mean())
    n_treated, n_control = _counts(treatment)
    return ATEEstimate(
        ate=effect,
        estimator="naive",
        n_units=len(outcome),
        n_treated=n_treated,
        n_control=n_control,
        details={
            "treated_mean": float(outcome[treated].mean()),
            "control_mean": float(outcome[~treated].mean()),
        },
    )


#: Registry of ATE estimators by name.
ESTIMATORS: dict[str, Callable[..., ATEEstimate]] = {
    "regression": outcome_model_ate,
    "matching": matching_ate,
    "propensity_matching": propensity_matching_ate,
    "psm": propensity_matching_ate,
    "ipw": ipw_ate,
    "stratification": stratification_ate,
    "cem": cem_ate,
    "aipw": doubly_robust_ate,
    "doubly_robust": doubly_robust_ate,
    "naive": naive_ate,
}


def estimate_ate(
    outcome: np.ndarray,
    treatment: np.ndarray,
    covariates: np.ndarray | None = None,
    estimator: str = "regression",
    **kwargs: Any,
) -> ATEEstimate:
    """Dispatch to a registered estimator by name."""
    fn = ESTIMATORS.get(estimator.lower())
    if fn is None:
        raise EstimatorError(
            f"unknown estimator {estimator!r}; expected one of {sorted(ESTIMATORS)}"
        )
    return fn(outcome, treatment, covariates, **kwargs)


def estimate_ate_from_unit_table(
    unit_table: Any, estimator: str = "regression", **kwargs: Any
) -> ATEEstimate:
    """Estimate an ATE straight from a unit table's column arrays.

    Unit tables (``repro.carl.unit_table``) already hold the
    outcome, treatment and adjustment features as float64 arrays, so this
    entry point feeds them to the propensity/outcome models without any
    row-level materialization in between.
    """
    return estimate_ate(
        unit_table.outcome,
        unit_table.treatment,
        unit_table.adjustment_features(),
        estimator=estimator,
        **kwargs,
    )
