"""npz payloads for cacheable artifacts.

Each artifact kind is encoded as a flat mapping of numpy arrays (what one
``np.savez`` call writes) plus a ``meta`` entry holding a canonical JSON
string.  Numeric payloads stay numeric arrays so the store can memory-map
them straight out of the npz file; irregular data (key tuples, heterogeneous
values) goes into object arrays, which round-trip exactly through numpy's
pickle path at the cost of an eager load.

Supported artifacts:

* :class:`~repro.db.table.Table` — schema + one array per column;
* a grounded causal graph together with its grounded attribute values —
  interned attribute names, dual-CSR adjacency arrays (memory-mappable,
  deterministic node-id order; see ``docs/grounding.md``) and object arrays
  for keys/values;
* :class:`~repro.carl.unit_table.UnitTable` — the flat estimator input, all
  numeric except the unit keys.

Round-trips are exact (NaN/inf bit patterns, empty tables, unicode column
names included); ``tests/test_cache_roundtrip.py`` holds them to that with
Hypothesis property tests.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from typing import Any

import numpy as np

# FORMAT_VERSION lives in the store (which also vets it on load) and is
# re-exported here because this module owns the payload layouts it versions.
from repro.cache.store import FORMAT_VERSION
from repro.carl.causal_graph import GroundedAttribute, GroundedCausalGraph
from repro.graph.csr import CSRGraph
from repro.carl.unit_table import UnitTable, UnitTableInputs
from repro.db.schema import ColumnSchema, TableSchema
from repro.db.table import Table, as_object_array

class SerializationError(ValueError):
    """Raised when an artifact payload cannot be decoded."""


def _meta_entry(meta: dict[str, Any]) -> np.ndarray:
    return np.asarray(json.dumps(meta, sort_keys=True, ensure_ascii=False))


def read_meta(payload: Mapping[str, np.ndarray]) -> dict[str, Any]:
    """Decode the ``meta`` JSON entry of a loaded payload."""
    try:
        meta = json.loads(str(payload["meta"][()]))
    except (KeyError, ValueError) as error:
        raise SerializationError(f"artifact payload has no readable meta entry: {error}")
    if meta.get("format") != FORMAT_VERSION:
        raise SerializationError(
            f"artifact format {meta.get('format')!r} does not match {FORMAT_VERSION}"
        )
    return meta


def _expect_kind(meta: dict[str, Any], kind: str) -> None:
    if meta.get("kind") != kind:
        raise SerializationError(
            f"expected a {kind!r} artifact, found {meta.get('kind')!r}"
        )


# ----------------------------------------------------------------------
# Table
# ----------------------------------------------------------------------
def columnar_table_payload(table: Table) -> dict[str, np.ndarray]:
    """Encode a table: schema meta + one array per column."""
    meta = {
        "format": FORMAT_VERSION,
        "kind": "columnar_table",
        "name": table.schema.name,
        "columns": [
            [column.name, column.dtype, column.nullable] for column in table.schema.columns
        ],
        "primary_key": list(table.schema.primary_key),
        "rows": len(table),
    }
    payload: dict[str, np.ndarray] = {"meta": _meta_entry(meta)}
    for position in range(len(table.schema.columns)):
        array = table._array_by_position(position)  # noqa: SLF001 - cached column array
        if array.dtype == object:
            # Rebuild instead of reusing: the cached object array may alias
            # list storage semantics we do not want to freeze into the file.
            array = as_object_array(table._data[position])  # noqa: SLF001
        payload[f"column_{position}"] = array
    return payload


def load_columnar_table(payload: Mapping[str, np.ndarray]) -> Table:
    """Decode :func:`columnar_table_payload`; numeric columns keep the loaded
    (possibly memory-mapped) arrays in the table's array cache."""
    meta = read_meta(payload)
    _expect_kind(meta, "columnar_table")
    schema = TableSchema(
        name=meta["name"],
        columns=tuple(
            ColumnSchema(name, dtype, nullable) for name, dtype, nullable in meta["columns"]
        ),
        primary_key=tuple(meta["primary_key"]),
    )
    columns_data: list[list[Any]] = []
    arrays: list[np.ndarray | None] = []
    for position in range(len(schema.columns)):
        array = payload[f"column_{position}"]
        columns_data.append(array.tolist())
        arrays.append(None if array.dtype == object else np.asarray(array))
    table = Table._from_columns(schema, columns_data)  # noqa: SLF001
    for position, array in enumerate(arrays):
        if array is not None:
            table._array_cache[position] = array  # noqa: SLF001 - seed cache with mmap
    return table


# ----------------------------------------------------------------------
# grounded causal graph + grounded attribute values
# ----------------------------------------------------------------------
def grounding_payload(
    graph: GroundedCausalGraph, values: Mapping[GroundedAttribute, Any]
) -> dict[str, np.ndarray]:
    """Encode a grounded graph and its node values.

    Attribute names are interned into an id table; nodes are stored in their
    insertion (= node-id) order; adjacency is stored as the graph's compiled
    dual-CSR arrays (parents grouped by child and children grouped by parent,
    both sorted by node id).  A warm load therefore memory-maps the adjacency
    as-is — no dict/set rebuild — and every iteration order is a pure
    function of node ids, identical in every process regardless of
    ``PYTHONHASHSEED``, keeping warm-cache unit tables bit-identical to cold
    ones even in spawn workers with a different hash seed.

    CSR index arrays are narrowed to int32 when they fit (they always do
    below 2**31 nodes/edges), which keeps this payload strictly smaller than
    the v1 edge-list layout for any graph with more edges than nodes.
    """
    nodes = graph.nodes
    node_index = dict(zip(nodes, range(len(nodes))))
    csr = graph.csr()

    attribute_ids: dict[str, int] = {}
    node_attribute = np.fromiter(
        (
            attribute_ids.setdefault(node.attribute, len(attribute_ids))
            for node in nodes
        ),
        dtype=np.int64,
        count=len(nodes),
    )

    index_dtype = np.int32 if len(nodes) < 2**31 and csr.n_edges < 2**31 else np.int64

    aggregate_nodes: list[int] = []
    aggregate_names: list[str] = []
    for node, aggregate in graph._aggregates.items():  # noqa: SLF001 - hot path
        aggregate_nodes.append(node_index[node])
        aggregate_names.append(aggregate)

    value_nodes: list[int] = []
    value_data: list[Any] = []
    index_lookup = node_index.get
    for node, value in values.items():
        node_position = index_lookup(node)
        if node_position is not None:
            value_nodes.append(node_position)
            value_data.append(value)

    meta = {
        "format": FORMAT_VERSION,
        "kind": "grounding",
        "attributes": sorted(attribute_ids, key=attribute_ids.get),
        "nodes": len(nodes),
        "edges": csr.n_edges,
    }
    return {
        "meta": _meta_entry(meta),
        "node_attribute": node_attribute.astype(index_dtype, copy=False),
        "node_keys": as_object_array([node.key for node in nodes]),
        "parent_indptr": np.asarray(csr.parent_indptr).astype(index_dtype, copy=False),
        "parent_indices": np.asarray(csr.parent_indices).astype(index_dtype, copy=False),
        "child_indptr": np.asarray(csr.child_indptr).astype(index_dtype, copy=False),
        "child_indices": np.asarray(csr.child_indices).astype(index_dtype, copy=False),
        "aggregate_nodes": np.asarray(aggregate_nodes, dtype=np.int64),
        "aggregate_names": as_object_array(aggregate_names),
        "value_nodes": np.asarray(value_nodes, dtype=np.int64),
        "value_data": as_object_array(value_data),
    }


def load_grounding(
    payload: Mapping[str, np.ndarray],
) -> tuple[GroundedCausalGraph, dict[GroundedAttribute, Any]]:
    """Decode :func:`grounding_payload` back into a graph + values mapping.

    The adjacency arrays are adopted directly (possibly still memory-mapped);
    only the node objects and the id-lookup dict are materialized, so a warm
    load is O(nodes) object construction instead of rebuilding hundreds of
    thousands of per-node dicts and sets edge by edge.
    """
    meta = read_meta(payload)
    _expect_kind(meta, "grounding")
    attributes = meta["attributes"]

    node_attribute = payload["node_attribute"]
    node_keys = payload["node_keys"]
    # C-level construction: map() over the interned attribute names and the
    # key objects calls the NamedTuple constructor without a Python-loop
    # frame per node (this path is every worker process's bootstrap).
    nodes = list(
        map(
            GroundedAttribute,
            map(attributes.__getitem__, node_attribute.tolist()),
            node_keys.tolist(),
        )
    )

    # The per-attribute id index, one vectorized pass per attribute name
    # (attribute ids are assigned in first-appearance order, so insertion
    # order of the dict matches the grounding process).
    by_attribute = {
        name: np.flatnonzero(node_attribute == attribute_id).tolist()
        for attribute_id, name in enumerate(attributes)
    }
    node_at = nodes.__getitem__
    aggregates = dict(
        zip(
            map(node_at, payload["aggregate_nodes"].tolist()),
            payload["aggregate_names"].tolist(),
        )
    )
    graph = GroundedCausalGraph._from_parts(  # noqa: SLF001 - loader fast path
        nodes,
        dict(zip(nodes, range(len(nodes)))),
        by_attribute,
        aggregates,
        CSRGraph(
            len(nodes),
            payload["parent_indptr"],
            payload["parent_indices"],
            payload["child_indptr"],
            payload["child_indices"],
        ),
    )

    values = dict(
        zip(map(node_at, payload["value_nodes"].tolist()), payload["value_data"])
    )
    return graph, values


# ----------------------------------------------------------------------
# UnitTable
# ----------------------------------------------------------------------
def unit_table_payload(unit_table: UnitTable) -> dict[str, np.ndarray]:
    """Encode a unit table: numeric arrays + object-array unit keys."""
    meta = {
        "format": FORMAT_VERSION,
        "kind": "unit_table",
        "peer_columns": list(unit_table.peer_columns),
        "covariate_columns": list(unit_table.covariate_columns),
        "treatment_attribute": unit_table.treatment_attribute,
        "response_attribute": unit_table.response_attribute,
    }
    return {
        "meta": _meta_entry(meta),
        "unit_keys": as_object_array(list(unit_table.unit_keys)),
        "outcome": np.asarray(unit_table.outcome, dtype=float),
        "treatment": np.asarray(unit_table.treatment, dtype=float),
        "peer_treatment": np.asarray(unit_table.peer_treatment, dtype=float),
        "peer_counts": np.asarray(unit_table.peer_counts, dtype=float),
        "covariates": np.asarray(unit_table.covariates, dtype=float),
    }


def unit_inputs_payload(
    inputs: UnitTableInputs, span: tuple[int, int, int] | None = None
) -> dict[str, np.ndarray]:
    """Encode one shard's unit-table collection (see ``docs/sharding.md``).

    This is how a shard worker hands its slice of the graph-walk phase back
    to the dispatching process: row-id arrays are plain int64 (the store can
    memory-map them), raw values stay object arrays so ints, bools and floats
    round-trip as the exact Python objects the serial collection would have
    gathered — anything else would change categorical covariate encodings.

    ``span`` — ``(start, stop, total units)`` of the collected unit range —
    is recorded in the meta entry when given.  Persistent shard partials
    (``docs/service.md``) carry it so ``repro cache ls`` and a human reading
    the artifact can tell which slice of which unit list a partial covers;
    loads do not depend on it.
    """
    meta = {
        "format": FORMAT_VERSION,
        "kind": "unit_inputs",
        "treatment_attribute": inputs.treatment_attribute,
        "response_attribute": inputs.response_attribute,
        "covariate_order": list(inputs.covariate_order),
        "units": len(inputs.unit_keys),
    }
    if span is not None:
        meta["span"] = list(span)
    payload: dict[str, np.ndarray] = {
        "meta": _meta_entry(meta),
        "unit_keys": as_object_array(list(inputs.unit_keys)),
        "outcomes_raw": as_object_array(list(inputs.outcomes_raw)),
        "treatments_raw": as_object_array(list(inputs.treatments_raw)),
        "peer_counts": np.asarray(inputs.peer_counts, dtype=np.int64),
        "peer_values_raw": as_object_array(list(inputs.peer_values_raw)),
        "peer_group_ids": np.asarray(inputs.peer_group_ids, dtype=np.int64),
    }
    for position, name in enumerate(inputs.covariate_order):
        bucket_values, bucket_rows = inputs.buckets[name]
        payload[f"bucket_{position}_values"] = as_object_array(list(bucket_values))
        payload[f"bucket_{position}_rows"] = np.asarray(bucket_rows, dtype=np.int64)
    return payload


def load_unit_inputs(payload: Mapping[str, np.ndarray]) -> UnitTableInputs:
    """Decode :func:`unit_inputs_payload` back into a collection."""
    meta = read_meta(payload)
    _expect_kind(meta, "unit_inputs")
    covariate_order = list(meta["covariate_order"])
    buckets: dict[str, tuple[list[Any], list[int]]] = {}
    for position, name in enumerate(covariate_order):
        buckets[name] = (
            payload[f"bucket_{position}_values"].tolist(),
            payload[f"bucket_{position}_rows"].tolist(),
        )
    return UnitTableInputs(
        treatment_attribute=meta["treatment_attribute"],
        response_attribute=meta["response_attribute"],
        unit_keys=payload["unit_keys"].tolist(),
        outcomes_raw=payload["outcomes_raw"].tolist(),
        treatments_raw=payload["treatments_raw"].tolist(),
        peer_counts=payload["peer_counts"].tolist(),
        peer_values_raw=payload["peer_values_raw"].tolist(),
        peer_group_ids=payload["peer_group_ids"].tolist(),
        covariate_order=covariate_order,
        buckets=buckets,
    )


def load_unit_table(payload: Mapping[str, np.ndarray]) -> UnitTable:
    """Decode :func:`unit_table_payload` (arrays may stay memory-mapped)."""
    meta = read_meta(payload)
    _expect_kind(meta, "unit_table")
    return UnitTable(
        unit_keys=payload["unit_keys"].tolist(),
        outcome=payload["outcome"],
        treatment=payload["treatment"],
        peer_treatment=payload["peer_treatment"],
        peer_counts=payload["peer_counts"],
        covariates=payload["covariates"],
        peer_columns=list(meta["peer_columns"]),
        covariate_columns=list(meta["covariate_columns"]),
        treatment_attribute=meta["treatment_attribute"],
        response_attribute=meta["response_attribute"],
    )
