"""Cross-``PYTHONHASHSEED`` determinism of warm-cache answers.

The v1 grounding artifact relied on hash-driven ``set`` iteration matching
between the process that grounded and the process that loaded — which does
not hold when a spawn worker (or any later session) runs under a different
``PYTHONHASHSEED``.  The CSR layout makes every adjacency order a function
of node ids only, so a graph grounded under one hash seed and answered warm
under another must produce bit-identical results.

The test runs real subprocesses with pinned, *different* hash seeds against
one shared cache directory, evicts the unit-table artifacts in between so
the warm run has to redo the graph walks from the loaded grounding, and
compares every float field of every answer by exact bit pattern.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.cache import ArtifactCache

SRC = Path(__file__).resolve().parent.parent / "src"

#: Answers one engine session over the quickstart query shapes (plain ATE,
#: effect triple under a peer condition, restricted ATE) and prints every
#: float field of every result as a hex bit pattern.
SESSION_SCRIPT = """
import json, sys
from repro import CaRLEngine
from repro.datasets import TOY_REVIEW_PROGRAM, toy_review_database

queries = [
    "AVG_Score[A] <= Prestige[A] ?",
    "Score[S] <= Prestige[A] ? WHEN ALL PEERS TREATED",
    'Score[S] <= Prestige[A] ? WHERE Submitted(S, C), Blind[C] = "double"',
]
engine = CaRLEngine(toy_review_database(), TOY_REVIEW_PROGRAM, cache=sys.argv[1])
answers = []
for query in queries:
    result = engine.answer(query).result
    answers.append(
        {
            name: float(value).hex()
            for name, value in sorted(vars(result).items())
            if isinstance(value, float)
        }
    )
print(json.dumps({"grounded": engine.grounding_runs, "answers": answers}))
"""


def run_session(tmp_path: Path, cache_root: Path, hash_seed: str) -> dict:
    script = tmp_path / "session.py"
    script.write_text(SESSION_SCRIPT)
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    completed = subprocess.run(
        [sys.executable, str(script), str(cache_root)],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def test_warm_answers_bit_identical_under_different_hash_seed(tmp_path):
    cache_root = tmp_path / "cache"

    cold = run_session(tmp_path, cache_root, hash_seed="1")
    assert cold["grounded"] == 1  # grounded once, artifacts stored

    # Evict the unit tables and shard partials but keep the grounding: the
    # warm session must redo peers/covariates/unit-table collection from the
    # *loaded* CSR graph, under a different hash seed.
    cache = ArtifactCache(cache_root)
    cleared_tables, _ = cache.clear(kind="unit_table")
    cache.clear(kind="unit_inputs")
    assert cleared_tables > 0

    warm = run_session(tmp_path, cache_root, hash_seed="4242")
    assert warm["grounded"] == 0  # answered from the warm grounding artifact
    assert warm["answers"] == cold["answers"]  # bit-identical, field by field
