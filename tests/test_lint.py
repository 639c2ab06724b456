"""Suite for the ``repro lint`` static-analysis framework.

Coverage, per the static-analysis contract (``docs/static_analysis.md``):

* **fixtures** — every rule family has a known-bad fixture (each marked
  line must flag, with the expected rule id) and a known-good fixture
  (zero findings: the precision half of the contract);
* **suppressions** — ``# repro-lint: disable=...`` (same line and
  next-line forms) marks findings suppressed; they are reported but never
  enforced;
* **baseline** — save/load/apply round-trips; baselined occurrences are
  absorbed, a *re-introduced* occurrence of the same fingerprint is not;
* **CLI** — exit codes (0 clean / 1 findings / 2 usage error), JSON
  output, ``--select``, ``--list-rules``, ``--write-baseline``;
* **the gate itself** — ``repro lint src/`` reports zero unsuppressed
  findings on this tree (tier-1: the codebase stays lint-clean);
* **pinned regressions** — the determinism bugs the repo-wide sweep
  found (stringly rule-body sort, hash-ordered daemon sessions) stay
  fixed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import all_rules, run_lint
from repro.analysis.baseline import apply_baseline, load_baseline, save_baseline
from repro.analysis.cli import lint_main
from repro.carl.causal_graph import GroundedAttribute, node_sort_key

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

RULE_IDS = {
    "det-builtin-hash",
    "det-set-iter",
    "det-sorted-str",
    "det-wall-clock",
    "fault-site",
    "lock-guarded-attr",
    "lock-numpy-call",
    "stats-shape",
    "telemetry-schema",
    "unbounded-growth",
}


def lint_fixture(name: str):
    return run_lint([str(FIXTURES / name)])


def rule_lines(findings) -> list[tuple[str, int]]:
    return [(f.rule, f.line) for f in findings]


def enforced(findings):
    return [f for f in findings if not f.suppressed]


# ----------------------------------------------------------------------
# rule registry
# ----------------------------------------------------------------------
def test_rule_catalogue_is_complete_and_sorted():
    rules = all_rules()
    assert set(rules) == RULE_IDS
    assert list(rules) == sorted(rules)
    for rule in rules.values():
        assert rule.description


# ----------------------------------------------------------------------
# determinism family
# ----------------------------------------------------------------------
def test_set_iteration_bad_fixture_flags_every_marked_line():
    findings = lint_fixture("graph/bad_set_iter.py")
    assert rule_lines(findings) == [
        ("det-set-iter", 10),  # for-loop over a set literal
        ("det-set-iter", 16),  # comprehension over a set-typed parameter
        ("det-set-iter", 21),  # tuple() over a set-typed local
        ("det-set-iter", 25),  # list() over a set-union expression
        ("det-set-iter", 33),  # str.join over a set attribute
    ]
    assert not any(f.suppressed for f in findings)


def test_set_iteration_good_fixture_is_clean():
    assert lint_fixture("graph/good_set_iter.py") == []


def test_sorted_str_and_builtin_hash_fixtures():
    findings = lint_fixture("carl/bad_sorted_and_hash.py")
    assert rule_lines(findings) == [
        ("det-sorted-str", 5),
        ("det-sorted-str", 9),
        ("det-builtin-hash", 13),
    ]
    assert lint_fixture("carl/good_sorted_and_hash.py") == []


def test_wall_clock_fixtures():
    bad = lint_fixture("service/bad_wall_clock.py")
    assert rule_lines(bad) == [
        ("det-wall-clock", 7),
        ("det-wall-clock", 8),
        ("det-wall-clock", 12),
    ]
    good = lint_fixture("service/good_wall_clock.py")
    assert enforced(good) == []
    # The justified wall-clock read is reported as suppressed, not dropped.
    assert [f.rule for f in good if f.suppressed] == ["det-wall-clock"]


# ----------------------------------------------------------------------
# lock-discipline family
# ----------------------------------------------------------------------
def test_lock_bad_fixture_flags_unlocked_access_and_numpy_under_lock():
    findings = lint_fixture("service/bad_locks.py")
    assert rule_lines(findings) == [
        ("lock-guarded-attr", 20),  # unlocked read
        ("lock-guarded-attr", 23),  # unlocked write
        ("lock-guarded-attr", 28),  # closure defined under the lock, runs later
        ("lock-numpy-call", 33),  # bulk numpy work inside lock scope
    ]


def test_lock_good_fixture_is_clean():
    assert lint_fixture("service/good_locks.py") == []


# ----------------------------------------------------------------------
# telemetry-schema family
# ----------------------------------------------------------------------
def test_telemetry_bad_fixture_flags_each_contract_breach():
    findings = lint_fixture("anywhere/bad_telemetry.py")
    assert [f.rule for f in findings] == ["telemetry-schema"] * 5
    messages = "\n".join(f.message for f in findings)
    assert "'no.such.event' is not in the frozen EVENTS registry" in messages
    assert "declared a span but emitted via .count()" in messages
    assert "does not allow metadata fields ['bogus']" in messages
    assert "requires metadata fields ['tenant']" in messages
    assert "declared a counter but emitted via .histogram()" in messages


def test_telemetry_good_fixture_is_clean():
    assert lint_fixture("anywhere/good_telemetry.py") == []


# ----------------------------------------------------------------------
# stats-shape family
# ----------------------------------------------------------------------
def test_stats_shape_bad_fixture_flags_each_undocumented_key():
    findings = lint_fixture("service/bad_stats_shape.py")
    assert [f.rule for f in findings] == ["stats-shape"] * 3
    messages = "\n".join(f.message for f in findings)
    assert "'queue_depth' in ShardScheduler.stats()" in messages
    assert "'retries_left' in QuerySession.stats()" in messages
    assert "'evictions' in CacheStats.summary()" in messages


def test_stats_shape_good_fixture_is_clean():
    assert lint_fixture("service/good_stats_shape.py") == []


# ----------------------------------------------------------------------
# fault-site family
# ----------------------------------------------------------------------
def test_fault_site_bad_fixture_flags_each_unregistered_site():
    findings = lint_fixture("anywhere/bad_fault_site.py")
    assert rule_lines(findings) == [
        ("fault-site", 12),  # misspelled fault_point site
        ("fault-site", 13),  # unregistered FaultRule site (keyword)
        ("fault-site", 14),  # unregistered FaultRule site (positional)
    ]
    messages = "\n".join(f.message for f in findings)
    assert "'worker.crsh' is not in the frozen FAULT_SITES" in messages
    assert "silently uninjectable" in messages


def test_fault_site_good_fixture_is_clean():
    assert lint_fixture("anywhere/good_fault_site.py") == []


# ----------------------------------------------------------------------
# boundedness family
# ----------------------------------------------------------------------
def test_unbounded_growth_fixtures():
    findings = lint_fixture("service/bad_unbounded.py")
    assert rule_lines(findings) == [
        ("unbounded-growth", 7),  # dict grows, nothing reaps
        ("unbounded-growth", 8),  # append-only list
    ]
    assert lint_fixture("service/good_unbounded.py") == []


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
def test_inline_and_next_line_suppressions_mark_but_keep_findings():
    findings = lint_fixture("graph/suppressed_set_iter.py")
    assert rule_lines(findings) == [("det-set-iter", 7), ("det-set-iter", 12)]
    assert all(f.suppressed for f in findings)
    assert enforced(findings) == []


def test_scoped_rule_skips_out_of_scope_paths(tmp_path):
    # det-set-iter is scoped to graph paths: the same bad code under a
    # neutral directory is skipped unless everywhere=True.
    target = tmp_path / "neutral" / "mod.py"
    target.parent.mkdir()
    target.write_text(
        (FIXTURES / "graph" / "bad_set_iter.py").read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    assert run_lint([str(target)]) == []
    everywhere = run_lint([str(target)], everywhere=True)
    assert [f.rule for f in everywhere] == ["det-set-iter"] * 5


def test_select_restricts_rules():
    findings = run_lint([str(FIXTURES)], select=["det-wall-clock"])
    assert {f.rule for f in findings} == {"det-wall-clock"}
    with pytest.raises(ValueError, match="unknown rule"):
        run_lint([str(FIXTURES)], select=["no-such-rule"])


# ----------------------------------------------------------------------
# baseline mechanics
# ----------------------------------------------------------------------
def test_baseline_round_trip_absorbs_exactly_the_recorded_occurrences(tmp_path):
    findings = lint_fixture("service/bad_wall_clock.py")
    path = tmp_path / "baseline.json"
    written = save_baseline(path, findings)
    assert sum(written.values()) == 3
    baseline = load_baseline(path)
    assert baseline == written
    # Everything recorded is absorbed ...
    assert apply_baseline(findings, baseline) == []
    # ... but a re-introduced occurrence of a recorded fingerprint is not.
    assert apply_baseline(findings + [findings[0]], baseline) == [findings[0]]


def test_baseline_keys_survive_line_renumbering(tmp_path):
    source = (FIXTURES / "service" / "bad_wall_clock.py").read_text(encoding="utf-8")
    original = tmp_path / "svc_a" / "service" / "mod.py"
    original.parent.mkdir(parents=True)
    original.write_text(source, encoding="utf-8")
    baseline = {
        f.fingerprint(): 1 for f in run_lint([str(original)], everywhere=True)
    }
    # Prepend unrelated lines: every finding moves, fingerprints must not.
    original.write_text("# header\n# header\n" + source, encoding="utf-8")
    shifted = run_lint([str(original)], everywhere=True)
    assert [f.line for f in shifted] == [9, 10, 14]
    assert apply_baseline(shifted, baseline) == []


def test_missing_baseline_file_is_empty_and_bad_format_raises(tmp_path):
    assert load_baseline(tmp_path / "absent.json") == {}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 99}), encoding="utf-8")
    with pytest.raises(ValueError, match="unrecognized baseline format"):
        load_baseline(bad)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_exit_codes_and_text_summary(capsys):
    assert lint_main([str(FIXTURES / "graph" / "bad_set_iter.py")]) == 1
    out = capsys.readouterr().out
    assert "[det-set-iter]" in out and "5 finding(s)" in out

    assert lint_main([str(FIXTURES / "graph" / "good_set_iter.py")]) == 0
    assert "0 finding(s)" in capsys.readouterr().out

    assert lint_main(["--select", "no-such-rule", str(FIXTURES)]) == 2
    assert lint_main(["--write-baseline", str(FIXTURES)]) == 2


def test_cli_json_payload(capsys):
    assert lint_main(["--json", str(FIXTURES / "carl" / "bad_sorted_and_hash.py")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["enforced"] == 3
    assert payload["errors"] == []
    assert [f["rule"] for f in payload["findings"]] == [
        "det-sorted-str",
        "det-sorted-str",
        "det-builtin-hash",
    ]
    assert all(set(f) >= {"path", "line", "rule", "message"} for f in payload["findings"])


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULE_IDS:
        assert rule_id in out


def test_cli_baseline_flow(tmp_path, capsys):
    """write-baseline grandfathers current findings; new ones still fail."""
    tree = tmp_path / "service"
    tree.mkdir()
    shutil.copy(FIXTURES / "service" / "bad_wall_clock.py", tree / "legacy.py")
    baseline = tmp_path / "baseline.json"

    assert lint_main([str(tree), "--baseline", str(baseline), "--write-baseline"]) == 0
    assert "wrote 3 finding(s)" in capsys.readouterr().out
    assert lint_main([str(tree), "--baseline", str(baseline)]) == 0
    capsys.readouterr()

    shutil.copy(FIXTURES / "service" / "bad_unbounded.py", tree / "fresh.py")
    assert lint_main([str(tree), "--baseline", str(baseline)]) == 1
    out = capsys.readouterr().out
    assert "legacy.py" not in out  # baselined findings stay silent
    assert out.count("fresh.py") == 2


def test_cli_syntax_error_reports_and_exits_2(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def nope(:\n", encoding="utf-8")
    assert lint_main([str(broken)]) == 2
    assert "broken.py" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the gate: this repository lints clean
# ----------------------------------------------------------------------
def test_repro_src_has_zero_unsuppressed_findings():
    findings = run_lint([str(SRC)])
    offenders = [
        f"{f.path}:{f.line}: [{f.rule}] {f.message}" for f in enforced(findings)
    ]
    assert offenders == []


def test_committed_baseline_is_empty():
    baseline = load_baseline(REPO / "lint-baseline.json")
    assert baseline == {}


def test_cli_subcommand_is_wired():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", "--list-rules"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0
    assert "det-set-iter" in proc.stdout


# ----------------------------------------------------------------------
# pinned regressions for the repo-wide determinism sweep (satellite 1)
# ----------------------------------------------------------------------
def node(attribute: str, *key: object) -> GroundedAttribute:
    return GroundedAttribute(attribute, tuple(key))


def test_node_sort_key_orders_numeric_keys_numerically():
    nodes = [node("Score", 10), node("Score", 2), node("Score", 1)]
    assert sorted(nodes, key=node_sort_key) == [
        node("Score", 1),
        node("Score", 2),
        node("Score", 10),
    ]
    # The stringly sort this replaced puts '10' before '2' — the bug.
    assert sorted(nodes, key=str) != sorted(nodes, key=node_sort_key)


def test_node_sort_key_totally_orders_heterogeneous_keys():
    nodes = [
        node("A", "x"),
        node("A", 2),
        node("A", True),
        node("A", (1, 2)),
        node("A", 1.5),
        node("A"),
        node("B", "a", "b"),
    ]
    ordered = sorted(nodes, key=node_sort_key)  # must not raise TypeError
    assert ordered[0] == node("A")  # arity before key contents
    assert set(ordered) == set(nodes)
    # Numbers before bools before strings before structured parts.
    singletons = [n for n in ordered if n.attribute == "A" and len(n.key) == 1]
    assert singletons == [node("A", 1.5), node("A", 2), node("A", True),
                          node("A", "x"), node("A", (1, 2))]


# ----------------------------------------------------------------------
# permissive-typing smoke (mypy is a CI-only dependency)
# ----------------------------------------------------------------------
def test_mypy_clean_on_analysis_and_observability():
    if shutil.which("mypy") is None:
        pytest.skip("mypy not installed locally; enforced in CI")
    proc = subprocess.run(
        ["mypy", "--config-file", str(REPO / "mypy.ini"),
         str(SRC / "repro" / "analysis"), str(SRC / "repro" / "observability")],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
