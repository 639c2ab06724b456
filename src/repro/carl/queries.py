"""Result objects returned by the CaRL engine for the three query families."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.carl.ast import CausalQuery, PeerCondition


@dataclass
class ATEResult:
    """Answer to an ATE or aggregated-response query (Sections 4.4.1-4.4.2).

    ``ate`` is the causal estimate after relational covariate adjustment;
    ``naive_difference`` and ``correlation`` are the associational quantities
    the paper contrasts against (Table 3, Figure 7a).
    """

    ate: float
    naive_difference: float
    treated_mean: float
    control_mean: float
    correlation: float
    n_units: int
    n_treated: int
    n_control: int
    estimator: str
    confidence_interval: tuple[float, float] | None = None
    details: dict[str, Any] = field(default_factory=dict)

    def __float__(self) -> float:
        return self.ate


@dataclass
class EffectsResult:
    """Answer to a relational-effects query (Section 4.4.3).

    ``aie`` is the average isolated effect, ``are`` the average relational
    effect, ``aoe`` the average overall effect.  Proposition 4.1
    (``AOE = AIE + ARE``) holds by construction of the plug-in estimator.
    """

    aie: float
    are: float
    aoe: float
    peer_condition: PeerCondition | None
    correlation: float
    naive_difference: float
    n_units: int
    mean_peer_count: float
    estimator: str
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def decomposition_gap(self) -> float:
        """|AOE - (AIE + ARE)|; ~0 up to floating-point error."""
        return abs(self.aoe - (self.aie + self.are))


@dataclass
class QueryAnswer:
    """Full answer to a causal query, including timing and unit-table metadata.

    ``result`` is an :class:`ATEResult` or :class:`EffectsResult` depending
    on the query type.  ``unit_table_seconds`` and ``estimation_seconds``
    correspond to the two runtime columns of Table 2 in the paper
    ("Unit Table Cons." and "Query Ans.").

    ``grounding_seconds`` is the grounding work *this* answer actually
    triggered: the full grounding (or cache-load) time when answering the
    query forced it, and 0.0 when the grounded graph already existed or the
    answer came straight from a cached unit table.  The field never double
    counts one grounding across answers; note that an uncached batch
    (``answer_all`` with ``jobs>1`` or ``executor="process"``, and
    ``answer_iter``) grounds up front, *before* its workers, so that
    grounding is attributed to no individual answer (the engine's
    ``grounding_runs``/``grounding_seconds`` still record it).
    """

    query: CausalQuery
    result: ATEResult | EffectsResult
    unit_table_summary: dict[str, Any]
    unit_table_seconds: float
    estimation_seconds: float
    grounding_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.grounding_seconds + self.unit_table_seconds + self.estimation_seconds
