"""Content fingerprinting for the persistent artifact cache.

Cached artifacts are pure functions of (database contents, relational
causal model, query); this module turns each of those inputs into a stable
hex digest so the store can be content-addressed:

* the *database* fingerprint delegates to
  :meth:`repro.db.database.Database.fingerprint` (schema + per-column
  digests, incrementally maintained via the tables' mutation counters);
* the *model* fingerprint hashes the canonical AST serialization of the
  schema declarations plus the model's rules.  An engine's model is its
  program, and answering queries never changes it, so the grounding stored
  under the key is the same whatever a session answered first;
* the *query* fingerprint hashes the canonical query AST together with the
  embedding it was materialized with.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.carl.ast import CausalQuery, Program, canonical_text
from repro.carl.model import RelationalCausalModel
from repro.db.database import Database


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "backslashreplace")).hexdigest()


def database_fingerprint(database: Database) -> str:
    """Stable content hash of a database (cached against its version token)."""
    return database.fingerprint()


def model_fingerprint(program: Program, model: RelationalCausalModel) -> str:
    """Stable hash of the model the grounding is a function of.

    Takes the declarations from the parsed ``program`` and the rules from
    the ``model`` validated from it.
    """
    return _digest(
        canonical_text(
            [
                program.entities,
                program.relationships,
                program.attributes,
                model.rules,
                model.aggregate_rules,
            ]
        )
    )


def collect_fingerprint(
    treatment_attribute: str,
    response_attribute: str,
    derived_definition: Any = None,
    condition: Any = None,
) -> str:
    """Stable hash of one unit-table *collection* (the graph-walk phase).

    Collected :class:`~repro.carl.unit_table.UnitTableInputs` depend only on
    the grounding (covered by the cache key's database/program fingerprints),
    the treatment attribute, the *resolved* response attribute (plus its
    derived-attribute definition when response unification introduced one)
    and the query's WHERE clause — **not** on the treatment threshold, the
    embedding, the estimator or the peer condition, which all apply after
    collection.  Keying shard partials by this hash is what lets a threshold
    sweep (``Age >= 30``, ``Age >= 45``, ...) reuse one collection per unit
    range across every query of the sweep — and across re-sweeps in later
    sessions (``docs/service.md``).
    """
    return _digest(
        canonical_text(
            [
                "collect",
                treatment_attribute,
                response_attribute,
                derived_definition,
                condition,
            ]
        )
    )


def query_fingerprint(query: CausalQuery, embedding: Any, resolution: Any = None) -> str:
    """Stable hash of a unit-table request.

    Covers the query AST, the embedding, and the
    *resolved response* (the response attribute name plus, when the engine
    unified treatment and response units, the derived-attribute definition it
    resolved to), so differently-unified requests never alias.
    """
    embedding_token = embedding if isinstance(embedding, str) else repr(embedding)
    return _digest(canonical_text([query, embedding_token, resolution]))
