"""Persistent artifact cache: fingerprinted on-disk storage for grounded
graphs, tables and unit tables.

Grounding a relational causal program is deterministic given the database
and the program, yet dominates end-to-end time (Table 2 of the paper); this
package makes it a one-time cost.  Artifacts are content-addressed by
``(database fingerprint, model fingerprint, kind)`` — see
:mod:`repro.cache.fingerprint` — serialized to npz with atomic writes and
memory-mapped loads (:mod:`repro.cache.store`,
:mod:`repro.cache.serialization`), and wired into
:class:`~repro.carl.engine.CaRLEngine` via its ``cache=`` parameter.
"""

from repro.cache.fingerprint import (
    database_fingerprint,
    model_fingerprint,
    query_fingerprint,
)
from repro.cache.serialization import (
    FORMAT_VERSION,
    SerializationError,
    columnar_table_payload,
    grounding_payload,
    load_columnar_table,
    load_grounding,
    load_unit_table,
    unit_table_payload,
)
from repro.cache.store import (
    ArtifactCache,
    CacheEntry,
    CacheError,
    CacheKey,
    CacheStats,
)

__all__ = [
    "ArtifactCache",
    "CacheEntry",
    "CacheError",
    "CacheKey",
    "CacheStats",
    "FORMAT_VERSION",
    "SerializationError",
    "columnar_table_payload",
    "database_fingerprint",
    "grounding_payload",
    "load_columnar_table",
    "load_grounding",
    "load_unit_table",
    "model_fingerprint",
    "query_fingerprint",
    "unit_table_payload",
]
