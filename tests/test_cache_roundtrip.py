"""Hypothesis round-trip tests for the artifact cache's serialization layer.

``save → load`` through a real on-disk :class:`ArtifactCache` (npz files,
memory-mapped numeric members) must be *exact* for every artifact kind:
NaN and infinity survive, empty tables survive, unicode column names and
string values survive, huge ints that overflow int64 survive (via the
object-array fallback), and value types are never coerced (an int stays an
int, a bool stays a bool).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    ArtifactCache,
    CacheKey,
    columnar_table_payload,
    grounding_payload,
    load_columnar_table,
    load_grounding,
    load_unit_table,
    unit_table_payload,
)
from repro.carl.causal_graph import GroundedAttribute, GroundedCausalGraph
from repro.carl.unit_table import UnitTable
from repro.db.schema import ColumnSchema, TableSchema
from repro.db.table import Table

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
any_floats = st.floats(allow_nan=True, allow_infinity=True)
unicode_names = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), min_codepoint=1), min_size=1, max_size=8
)

VALUE_STRATEGIES = {
    "int": st.integers(min_value=-(2**70), max_value=2**70),
    "float": any_floats,
    "str": st.text(max_size=12),
    "bool": st.booleans(),
    "any": st.one_of(
        st.integers(min_value=-5, max_value=5),
        any_floats,
        st.text(max_size=6),
        st.booleans(),
        st.tuples(st.integers(min_value=-3, max_value=3), st.text(max_size=3)),
    ),
}


@st.composite
def columnar_tables(draw) -> Table:
    n_columns = draw(st.integers(min_value=1, max_value=4))
    names = draw(
        st.lists(unicode_names, min_size=n_columns, max_size=n_columns, unique=True)
    )
    dtypes = draw(
        st.lists(
            st.sampled_from(sorted(VALUE_STRATEGIES)),
            min_size=n_columns,
            max_size=n_columns,
        )
    )
    nullable = draw(
        st.lists(st.booleans(), min_size=n_columns, max_size=n_columns)
    )
    schema = TableSchema(
        name=draw(unicode_names),
        columns=tuple(
            ColumnSchema(name, dtype, nullable=null)
            for name, dtype, null in zip(names, dtypes, nullable)
        ),
    )
    table = Table(schema)
    n_rows = draw(st.integers(min_value=0, max_value=8))
    for _ in range(n_rows):
        row = {}
        for name, dtype, null in zip(names, dtypes, nullable):
            if null and draw(st.booleans()):
                row[name] = None
            else:
                row[name] = draw(VALUE_STRATEGIES[dtype])
        table.insert(row)
    return table


grounded_keys = st.tuples(
    st.one_of(st.integers(min_value=-9, max_value=9), st.text(max_size=4))
)
grounded_values = st.one_of(
    any_floats,
    st.integers(min_value=-9, max_value=9),
    st.text(max_size=5),
    st.booleans(),
    st.none(),
)


@st.composite
def groundings(draw) -> tuple[GroundedCausalGraph, dict[GroundedAttribute, object]]:
    n_nodes = draw(st.integers(min_value=0, max_value=10))
    attributes = ["Å", "T", "Y", "AVG_Score"]
    nodes = []
    seen = set()
    for index in range(n_nodes):
        node = GroundedAttribute(
            draw(st.sampled_from(attributes)), (index, draw(st.text(max_size=3)))
        )
        if node in seen:
            continue
        seen.add(node)
        nodes.append(node)
    graph = GroundedCausalGraph()
    for node in nodes:
        aggregate = draw(st.sampled_from([None, None, "AVG", "SUM"]))
        graph.add_node(node, aggregate=aggregate)
    # Edges only from earlier to later nodes: acyclic by construction.
    for child_index in range(1, len(nodes)):
        for parent_index in range(child_index):
            if draw(st.booleans()) and draw(st.booleans()):
                graph.add_edge(nodes[parent_index], nodes[child_index])
    values = {
        node: draw(grounded_values) for node in nodes if draw(st.integers(0, 3)) > 0
    }
    return graph, values


@st.composite
def unit_tables(draw) -> UnitTable:
    n_units = draw(st.integers(min_value=1, max_value=6))
    n_peer = draw(st.integers(min_value=0, max_value=2))
    n_cov = draw(st.integers(min_value=0, max_value=3))
    array = lambda width: np.asarray(  # noqa: E731
        [
            [draw(any_floats) for _ in range(width)]
            for _ in range(n_units)
        ],
        dtype=float,
    ).reshape(n_units, width)
    return UnitTable(
        unit_keys=[(index, draw(st.text(max_size=3))) for index in range(n_units)],
        outcome=np.asarray([draw(any_floats) for _ in range(n_units)], dtype=float),
        treatment=np.asarray(
            [float(draw(st.integers(0, 1))) for _ in range(n_units)], dtype=float
        ),
        peer_treatment=array(n_peer),
        peer_counts=np.asarray(
            [float(draw(st.integers(0, 4))) for _ in range(n_units)], dtype=float
        ),
        covariates=array(n_cov),
        peer_columns=[f"peer_{index}" for index in range(n_peer)],
        covariate_columns=[f"cov_ü{index}" for index in range(n_cov)],
        treatment_attribute=draw(unicode_names),
        response_attribute=draw(unicode_names),
    )


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
KEY = CacheKey(database="ab" * 32, program="cd" * 32, kind="grounding")


def roundtrip(tmp_path, payload: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Store + load through a real on-disk cache (exercises npz and mmap)."""
    cache = ArtifactCache(tmp_path / "cache")
    cache.store(KEY, payload)
    loaded = cache.load(KEY)
    assert loaded is not None
    return loaded


def value_token(value: object) -> str:
    """Exactness token: type plus repr (floats repr round-trips bits in py3)."""
    return f"{type(value).__name__}|{value!r}"


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------
@settings(max_examples=40)
@given(table=columnar_tables())
def test_columnar_table_roundtrip_exact(tmp_path_factory, table):
    tmp_path = tmp_path_factory.mktemp("cache_rt")
    loaded = load_columnar_table(roundtrip(tmp_path, columnar_table_payload(table)))
    assert loaded.schema == table.schema
    assert len(loaded) == len(table)
    for column in table.columns:
        original = [value_token(value) for value in table.column(column)]
        restored = [value_token(value) for value in loaded.column(column)]
        assert restored == original


@settings(max_examples=40)
@given(grounding=groundings())
def test_grounding_roundtrip_exact(tmp_path_factory, grounding):
    graph, values = grounding
    tmp_path = tmp_path_factory.mktemp("cache_rt")
    loaded_graph, loaded_values = load_grounding(
        roundtrip(tmp_path, grounding_payload(graph, values))
    )
    assert loaded_graph.nodes == graph.nodes
    assert sorted(map(repr, loaded_graph.edges)) == sorted(map(repr, graph.edges))
    for node in graph.nodes:
        assert loaded_graph.aggregate_of(node) == graph.aggregate_of(node)
        assert loaded_graph.parents(node) == graph.parents(node)
    assert list(loaded_values) == list(values)  # same nodes, same order
    for node, value in values.items():
        assert value_token(loaded_values[node]) == value_token(value)


@settings(max_examples=40)
@given(unit_table=unit_tables())
def test_unit_table_roundtrip_exact(tmp_path_factory, unit_table):
    tmp_path = tmp_path_factory.mktemp("cache_rt")
    loaded = load_unit_table(roundtrip(tmp_path, unit_table_payload(unit_table)))
    assert loaded.equals(unit_table) and unit_table.equals(loaded)
    assert loaded.unit_keys == unit_table.unit_keys
    assert loaded.peer_columns == unit_table.peer_columns
    assert loaded.covariate_columns == unit_table.covariate_columns
    assert loaded.treatment_attribute == unit_table.treatment_attribute
    assert loaded.response_attribute == unit_table.response_attribute
    for field in ("outcome", "treatment", "peer_treatment", "peer_counts", "covariates"):
        original = getattr(unit_table, field)
        restored = getattr(loaded, field)
        assert restored.shape == original.shape
        # Bit-identical, NaN payloads and signed zeros included.
        assert np.asarray(restored).tobytes() == np.asarray(original).tobytes()


def test_unit_table_nan_inf_survive(tmp_path):
    unit_table = UnitTable(
        unit_keys=[("a",), ("b",), ("c",)],
        outcome=np.asarray([math.nan, math.inf, -0.0]),
        treatment=np.asarray([1.0, 0.0, 1.0]),
        peer_treatment=np.asarray([[math.nan], [0.5], [-math.inf]]),
        peer_counts=np.asarray([1.0, 1.0, 1.0]),
        covariates=np.empty((3, 0)),
        peer_columns=["peer_mean"],
        covariate_columns=[],
        treatment_attribute="T",
        response_attribute="Y",
    )
    loaded = load_unit_table(roundtrip(tmp_path, unit_table_payload(unit_table)))
    assert math.isnan(loaded.outcome[0]) and math.isinf(loaded.outcome[1])
    assert math.copysign(1.0, loaded.outcome[2]) == -1.0
    assert math.isnan(loaded.peer_treatment[0, 0])
    assert loaded.peer_treatment[2, 0] == -math.inf


def test_empty_grounding_roundtrip(tmp_path):
    graph, values = GroundedCausalGraph(), {}
    loaded_graph, loaded_values = load_grounding(
        roundtrip(tmp_path, grounding_payload(graph, values))
    )
    assert len(loaded_graph) == 0 and loaded_values == {}


def test_format_version_mismatch_is_an_error(tmp_path):
    import json

    from repro.cache.serialization import SerializationError, read_meta

    payload = {"meta": np.asarray(json.dumps({"format": -1, "kind": "grounding"}))}
    with pytest.raises(SerializationError):
        read_meta(payload)
