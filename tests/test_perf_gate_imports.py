"""Every perf-gate script in ``benchmarks/`` imports against this tree.

``benchmarks/pytest.ini`` collects only the paper experiments; the perf
gates beside them (``bench_batch.py``, ``bench_grounding.py``, ...) are
standalone programs that CI runs on its nightly schedule.  Importing each
one here makes a deleted or renamed name they use fail on every push, not
only on the nightly run.  Their ``main()`` is not run.
"""

from __future__ import annotations

import configparser
import fnmatch
import importlib.util
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def perf_gates() -> list[Path]:
    """The ``bench_*.py`` scripts ``benchmarks/pytest.ini`` does not collect."""
    config = configparser.ConfigParser()
    config.read(BENCHMARKS / "pytest.ini")
    collected = config["pytest"]["python_files"].split()
    return sorted(
        path
        for path in BENCHMARKS.glob("bench_*.py")
        if not any(fnmatch.fnmatch(path.name, pattern) for pattern in collected)
    )


@pytest.mark.parametrize("path", perf_gates(), ids=lambda path: path.stem)
def test_perf_gate_imports(path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    # Run directly, a script has its own directory on the path, and some
    # import a sibling (``from bench_cache import PROGRAM``).
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    spec = importlib.util.spec_from_file_location(f"perf_gate_{path.stem}", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
