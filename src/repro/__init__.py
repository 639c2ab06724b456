"""repro — a reproduction of "Causal Relational Learning" (CaRL), SIGMOD 2020.

Public API overview
-------------------
* :mod:`repro.db` — in-memory relational database substrate.
* :mod:`repro.graph` — CSR adjacency for grounded causal graphs: closures,
  topological order and d-separation.
* :mod:`repro.carl` — the CaRL language (parser), grounding, covariate
  detection, unit-table construction and the query-answering engine.
* :mod:`repro.inference` — single-table causal estimators (regression
  adjustment, matching, IPW, ...), built from scratch on numpy.
* :mod:`repro.cache` — persistent, fingerprinted artifact cache for grounded
  graphs and unit tables (see ``docs/persistence.md``).
* :mod:`repro.service` — streaming query service: incremental answers,
  retry-and-requeue scheduling, shard-level cache reuse, and the
  multi-tenant :class:`~repro.service.daemon.QueryDaemon` with admission
  control (see ``docs/service.md``).
* :mod:`repro.observability` — structured telemetry: per-query span trees,
  counters and gauges behind a frozen event schema (see
  ``docs/observability.md``).
* :mod:`repro.datasets` — synthetic relational dataset generators standing in
  for REVIEWDATA, SYNTHETIC REVIEWDATA, MIMIC-III and NIS.
* :mod:`repro.baselines` — the universal-table and naive baselines the paper
  compares against.

Quickstart
----------
>>> from repro import CaRLEngine
>>> from repro.datasets import toy_review_database, TOY_REVIEW_PROGRAM
>>> engine = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM)
>>> answer = engine.answer("Score[S] <= Prestige[A] ?")
>>> isinstance(answer.result.ate, float)
True
"""

# repro.carl must initialize before repro.cache: the engine imports the cache
# submodules, and entering the cycle from repro.cache would re-enter a
# partially initialized repro.cache.fingerprint via repro.carl.__init__.
from repro.carl import (
    ATEResult,
    CaRLEngine,
    CaRLError,
    CausalQuery,
    EffectsResult,
    GroundedCausalGraph,
    ParseError,
    QueryAnswer,
    RelationalCausalModel,
    RelationalCausalSchema,
    UnitTable,
    parse_program,
    parse_query,
    parse_rule,
)
from repro.cache import ArtifactCache
from repro.db import Database, Table
from repro.service import AdmissionError, QueryDaemon, QueueFullError, QuerySession

__version__ = "1.0.0"

__all__ = [
    "ATEResult",
    "AdmissionError",
    "ArtifactCache",
    "CaRLEngine",
    "CaRLError",
    "CausalQuery",
    "Database",
    "EffectsResult",
    "GroundedCausalGraph",
    "ParseError",
    "QueryAnswer",
    "QueryDaemon",
    "QueueFullError",
    "QuerySession",
    "RelationalCausalModel",
    "RelationalCausalSchema",
    "Table",
    "UnitTable",
    "__version__",
    "parse_program",
    "parse_query",
    "parse_rule",
]
