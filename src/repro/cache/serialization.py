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
* a shard's unit-table collection — counts, rows and codes as unsigned
  integer arrays, and object arrays only per unit or per distinct value;
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
from repro.carl.causal_graph import GroundedAttribute, GroundedCausalGraph, NodeValues
from repro.carl.unit_table import CodedValues, UnitTable, UnitTableInputs
from repro.graph.csr import CSRGraph
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
    ones even in spawn workers with a different hash seed.  Values are the
    held entries of the id-indexed value column, ascending by id.

    CSR index arrays are narrowed to int32 when they fit (they always do
    below 2**31 nodes/edges), which keeps this payload strictly smaller than
    the v1 edge-list layout for any graph with more edges than nodes.
    """
    nodes = graph.nodes
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

    marks = graph.aggregate_marks
    column = NodeValues.from_mapping(graph, values)
    value_nodes = np.flatnonzero(column.held)

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
        "aggregate_nodes": graph.node_ids(marks),
        "aggregate_names": as_object_array(list(marks.values())),
        "value_nodes": value_nodes.astype(np.int64, copy=False),
        "value_data": column.column[value_nodes],
    }


def load_grounding(
    payload: Mapping[str, np.ndarray],
) -> tuple[GroundedCausalGraph, NodeValues]:
    """Decode :func:`grounding_payload` back into a graph + value column.

    The adjacency arrays are adopted directly (possibly still memory-mapped);
    only the node objects and the id-lookup dict are materialized, so a warm
    load is O(nodes) object construction instead of rebuilding hundreds of
    thousands of per-node dicts and sets edge by edge.  The value column is
    one scatter of ``value_data`` to ``value_nodes``.
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
    graph = GroundedCausalGraph(
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

    value_nodes = np.asarray(payload["value_nodes"], dtype=np.int64)
    column = np.full(len(nodes), None, dtype=object)
    held = np.zeros(len(nodes), dtype=bool)
    column[value_nodes] = payload["value_data"]
    held[value_nodes] = True
    return graph, NodeValues(graph, column, held)


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


def _narrow(values: np.ndarray) -> np.ndarray:
    """A non-negative int array in the narrowest unsigned dtype that holds
    it (codes, rows and counts are far below 2**63; loads widen to int64)."""
    return values.astype(np.min_scalar_type(int(values.max()) if values.size else 0))


def _wide(payload: Mapping[str, np.ndarray], name: str) -> np.ndarray:
    return np.asarray(payload[name], dtype=np.int64)


def _coded_entries(prefix: str, coded: CodedValues) -> dict[str, np.ndarray]:
    return {f"{prefix}_codes": _narrow(coded.codes), f"{prefix}_distinct": coded.distinct}


def _load_coded(payload: Mapping[str, np.ndarray], prefix: str) -> CodedValues:
    return CodedValues(_wide(payload, f"{prefix}_codes"), payload[f"{prefix}_distinct"])


def unit_inputs_payload(
    inputs: UnitTableInputs, span: tuple[int, int, int] | None = None
) -> dict[str, np.ndarray]:
    """Encode one shard's unit-table collection (see ``docs/sharding.md``).

    This is how a shard worker hands its slice of the graph-walk phase back
    to the dispatching process.  The collection is column-major already:
    counts, rows and codes are stored in the narrowest unsigned dtype that
    holds them (a value column's codes are mostly one byte each) and read
    back as int64, and the only object arrays are per unit (keys, raw
    outcomes) or a value column's distinct values, so ints, bools and
    floats round-trip as the exact Python objects the serial collection
    gathered — anything else would change categorical covariate
    encodings.

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
        "covariates": list(inputs.buckets),
        "units": len(inputs.unit_keys),
    }
    if span is not None:
        meta["span"] = list(span)
    payload: dict[str, np.ndarray] = {
        "meta": _meta_entry(meta),
        "unit_keys": as_object_array(list(inputs.unit_keys)),
        "outcomes": as_object_array(inputs.outcomes.tolist()),
        "peer_counts": _narrow(inputs.peer_counts),
        "peer_rows": _narrow(inputs.peer_rows),
        **_coded_entries("treatment", inputs.treatments),
        **_coded_entries("peer", inputs.peer_treatments),
    }
    for position, (coded, rows) in enumerate(inputs.buckets.values()):
        payload.update(_coded_entries(f"bucket_{position}", coded))
        payload[f"bucket_{position}_rows"] = _narrow(rows)
    return payload


def load_unit_inputs(payload: Mapping[str, np.ndarray]) -> UnitTableInputs:
    """Decode :func:`unit_inputs_payload` back into a collection."""
    meta = read_meta(payload)
    _expect_kind(meta, "unit_inputs")
    return UnitTableInputs(
        treatment_attribute=meta["treatment_attribute"],
        response_attribute=meta["response_attribute"],
        unit_keys=payload["unit_keys"].tolist(),
        outcomes=payload["outcomes"],
        treatments=_load_coded(payload, "treatment"),
        peer_counts=_wide(payload, "peer_counts"),
        peer_treatments=_load_coded(payload, "peer"),
        peer_rows=_wide(payload, "peer_rows"),
        buckets={
            name: (
                _load_coded(payload, f"bucket_{position}"),
                _wide(payload, f"bucket_{position}_rows"),
            )
            for position, name in enumerate(meta["covariates"])
        },
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
