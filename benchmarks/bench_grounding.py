"""Grounding benchmarks: cold array-native grounding, and the warm CSR load.

Two gates, each a regression check on one half of grounding's cost.

**Cold grounding.**  At the North-star input,
``generate_synthetic_review_data(n_authors=20000, seed=3)``, a cold
:meth:`Grounder.ground` plus :meth:`Grounder.grounded_attribute_values`
(each on a freshly bound instance) must be at least
``MIN_GROUNDING_SPEEDUP``x faster than the per-binding grounder kept in
``tests/grounding_oracle.py``, and its node list, CSR arrays, aggregate
marks and values must equal the oracle's.

**Warm load.**  A synthetic grounded graph at cache-relevant scale (>=100k
nodes, ~3 parents per node) is stored through a real on-disk
:class:`ArtifactCache` twice — once in the current CSR layout (since format
v2) and once in an in-benchmark emulation of the retired v1 edge-list
layout — and two gates hold:

1. a warm ``load_grounding`` of the CSR artifact is at least ``MIN_SPEEDUP``x
   faster than rebuilding the old dict-of-sets adjacency from the v1 edge
   lists (the CSR arrays are adopted as-is, possibly still memory-mapped;
   the v1 path had to execute one ``set.add`` pair per edge), and
2. the CSR artifact file is **strictly smaller** than the v1 file (int32
   indptr/indices beat two int64 edge-list columns whenever edges outnumber
   half the nodes).

The v1 layout is emulated here rather than imported because the v1
reader/writer no longer exist: grounding payloads stored edges as parallel
``edge_parent``/``edge_child`` int64 arrays in grounding-process iteration
order, and the loader replayed them into per-node parent/child sets.  See
``docs/grounding.md`` for both layouts and for how a program is ground.

Run directly::

    PYTHONPATH=src python benchmarks/bench_grounding.py
"""

from __future__ import annotations

import gc
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT / "src", _ROOT / "tests"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import graph_builder
import grounding_oracle
from repro.cache import ArtifactCache, CacheKey, grounding_payload, load_grounding
from repro.cache.serialization import FORMAT_VERSION, _meta_entry  # noqa: PLC2701 - bench-only
from repro.carl.causal_graph import GroundedAttribute, GroundedCausalGraph
from repro.carl.grounding import Grounder
from repro.carl.model import RelationalCausalModel
from repro.carl.parser import parse_program
from repro.datasets import generate_synthetic_review_data
from repro.db.table import as_object_array

#: Required v1-rebuild / CSR-load warm speedup (acceptance criterion).
MIN_SPEEDUP = 2.0

#: Required oracle / array-native cold grounding speedup at the North-star
#: input (ground + values).
MIN_GROUNDING_SPEEDUP = 5.0
NORTH_STAR = {"n_authors": 20_000, "seed": 3}

N_NODES = 120_000
PARENTS_PER_NODE = 3  # beyond the first few roots
ATTRIBUTES = ("Treatment", "Outcome", "Quality", "Prestige", "AVG_Score")
TIMING_REPEATS = 5

KEY_CSR = CacheKey(database="ab" * 32, program="cd" * 32, kind="grounding")
KEY_V1 = CacheKey(database="ab" * 32, program="cd" * 32, kind="grounding_v1")


def build_graph() -> GroundedCausalGraph:
    """A deterministic ~360k-edge DAG: node i draws parents from i-1, i//2, i//3."""
    nodes = [
        GroundedAttribute(ATTRIBUTES[index % len(ATTRIBUTES)], (index,))
        for index in range(N_NODES)
    ]
    edges = [
        (nodes[parent], nodes[index])
        for index in range(1, N_NODES)
        for parent in (index - 1, index // 2, index // 3)
        if parent != index
    ]
    return graph_builder.build_graph(nodes, edges)


def v1_payload(graph: GroundedCausalGraph) -> dict[str, np.ndarray]:
    """Emulate the retired v1 grounding layout: int64 parallel edge lists."""
    nodes = graph.nodes
    attribute_ids: dict[str, int] = {}
    node_attribute = np.asarray(
        [attribute_ids.setdefault(node.attribute, len(attribute_ids)) for node in nodes],
        dtype=np.int64,
    )
    edge_children, edge_parents = graph.csr().edge_arrays()
    meta = {
        # The real v1 files recorded format 1; this emulation claims the
        # current version only so ArtifactCache.load hands it back for timing.
        "format": FORMAT_VERSION,
        "kind": "grounding_v1",
        "attributes": sorted(attribute_ids, key=attribute_ids.get),
        "nodes": len(nodes),
        "edges": int(edge_parents.size),
    }
    return {
        "meta": _meta_entry(meta),
        "node_attribute": node_attribute,
        "node_keys": as_object_array([node.key for node in nodes]),
        "edge_parent": edge_parents.astype(np.int64),
        "edge_child": edge_children.astype(np.int64),
    }


def v1_rebuild(payload: dict[str, np.ndarray]) -> tuple[list, dict, dict, dict, dict]:
    """Replay the v1 loader: rebuild dict-of-sets adjacency edge by edge."""
    import json

    meta = json.loads(str(payload["meta"][()]))
    attributes = meta["attributes"]
    nodes = list(
        map(
            GroundedAttribute,
            map(attributes.__getitem__, payload["node_attribute"].tolist()),
            payload["node_keys"].tolist(),
        )
    )
    node_index = dict(zip(nodes, range(len(nodes))))
    parents: dict[GroundedAttribute, set] = {node: set() for node in nodes}
    children: dict[GroundedAttribute, set] = {node: set() for node in nodes}
    for parent_id, child_id in zip(
        payload["edge_parent"].tolist(), payload["edge_child"].tolist()
    ):
        parent, child = nodes[parent_id], nodes[child_id]
        parents[child].add(parent)
        children[parent].add(child)
    by_attribute: dict[str, list] = {}
    for node in nodes:
        by_attribute.setdefault(node.attribute, []).append(node)
    return nodes, node_index, parents, children, by_attribute


def best_of(repeats: int, action) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        action()
        best = min(best, time.perf_counter() - started)
    return best


def cold_grounding(grounder_class, model, database) -> tuple[float, GroundedCausalGraph, dict]:
    """Seconds of one cold ground + values on a freshly bound instance."""
    gc.collect()
    started = time.perf_counter()
    grounder = grounder_class(model, model.schema.bind(database))
    graph = grounder.ground()
    values = grounder.grounded_attribute_values(graph)
    return time.perf_counter() - started, graph, values


def grounding_gate() -> int:
    """Gate the array-native grounder against the per-binding oracle."""
    data = generate_synthetic_review_data(**NORTH_STAR)
    model = RelationalCausalModel.from_program(parse_program(data.program))
    oracle_seconds, oracle_graph, oracle_values = cold_grounding(
        grounding_oracle.Grounder, model, data.database
    )
    runs = [cold_grounding(Grounder, model, data.database) for _ in range(2)]
    seconds = min(run[0] for run in runs)
    graph, values = runs[0][1], runs[0][2]
    print(
        f"cold grounding at n_authors={NORTH_STAR['n_authors']:,}: {len(graph):,} nodes, "
        f"{graph.number_of_edges():,} edges; array-native {seconds:.2f}s (best of 2), "
        f"per-binding oracle {oracle_seconds:.2f}s, speedup {oracle_seconds / seconds:.1f}x"
    )
    csr, oracle_csr = graph.csr(), oracle_graph.csr()
    same = (
        graph.nodes == oracle_graph.nodes
        and all(
            np.array_equal(getattr(csr, name), getattr(oracle_csr, name))
            for name in ("parent_indptr", "parent_indices", "child_indptr", "child_indices")
        )
        and list(graph.aggregate_marks.items()) == list(oracle_graph.aggregate_marks.items())
        and values == oracle_values
    )
    if not same:
        print("FAIL: the grounding differs from the per-binding oracle", file=sys.stderr)
        return 1
    if oracle_seconds / seconds < MIN_GROUNDING_SPEEDUP:
        print(
            f"FAIL: cold grounding is below {MIN_GROUNDING_SPEEDUP}x the per-binding oracle",
            file=sys.stderr,
        )
        return 1
    print(f"OK: cold grounding >= {MIN_GROUNDING_SPEEDUP}x the oracle, id for id equal\n")
    return 0


def main() -> int:
    if grounding_gate():
        return 1
    graph = build_graph()
    n_nodes, n_edges = len(graph), graph.number_of_edges()
    print(f"grounded graph: {n_nodes:,} nodes, {n_edges:,} edges")
    assert n_nodes >= 100_000, "benchmark graph must have at least 100k nodes"

    root = Path(tempfile.mkdtemp(prefix="bench_grounding_"))
    try:
        cache = ArtifactCache(root)
        csr_path = cache.store(KEY_CSR, grounding_payload(graph, {}))
        v1_path = cache.store(KEY_V1, v1_payload(graph))
        csr_bytes, v1_bytes = csr_path.stat().st_size, v1_path.stat().st_size
        print(f"artifact size: CSR {csr_bytes:,} B vs v1 edge lists {v1_bytes:,} B")

        def load_csr():
            loaded, _ = load_grounding(ArtifactCache(root).load(KEY_CSR))
            assert len(loaded) == n_nodes

        def load_v1():
            nodes, *_ = v1_rebuild(ArtifactCache(root).load(KEY_V1))
            assert len(nodes) == n_nodes

        csr_seconds = best_of(TIMING_REPEATS, load_csr)
        v1_seconds = best_of(TIMING_REPEATS, load_v1)
        speedup = v1_seconds / csr_seconds
        print(f"warm load: CSR {csr_seconds * 1e3:7.1f}ms  v1 rebuild {v1_seconds * 1e3:7.1f}ms")
        print(f"\nspeedup: {speedup:.1f}x  size ratio: {csr_bytes / v1_bytes:.2f}")

        # Gate 1: loading the CSR artifact must beat the dict rebuild >= 2x.
        if speedup < MIN_SPEEDUP:
            print(f"FAIL: warm CSR load regressed below {MIN_SPEEDUP}x", file=sys.stderr)
            return 1
        # Gate 2: the CSR artifact must be strictly smaller on disk.
        if csr_bytes >= v1_bytes:
            print("FAIL: CSR artifact is not smaller than the v1 layout", file=sys.stderr)
            return 1

        # Sanity: the loaded graph answers a structural probe correctly.
        loaded, _ = load_grounding(ArtifactCache(root).load(KEY_CSR))
        probe = graph.nodes[N_NODES // 2]
        assert loaded.parents(probe) == graph.parents(probe)
        print(
            f"OK: CSR load >= {MIN_SPEEDUP}x faster than the v1 dict rebuild "
            f"at {n_nodes:,} nodes and strictly smaller on disk"
        )
        return 0
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
