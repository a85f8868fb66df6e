"""`scripts/perf_pairs.py` summarises alternating perfbench pairs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "perf_pairs.py"
DECLARED = [{"name": "run_s", "better": "lower"}, {"name": "pass_frac", "better": "higher"}]


@pytest.fixture
def perf_pairs():
    spec = importlib.util.spec_from_file_location("perf_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(run_s, pass_frac=1.0, correct=True):
    return {"correct": correct,
            "metrics": {"run_s": {"value": run_s, "unit": "s"},
                        "pass_frac": {"value": pass_frac, "unit": "frac"}}}


def test_summary_gives_medians_quartiles_and_wins(perf_pairs):
    pairs = [(_result(p), _result(c)) for p, c in
             ((2.0, 1.8), (2.4, 2.0), (2.2, 2.3), (2.6, 2.1), (2.8, 2.2))]
    lines, ok = perf_pairs.summarize(pairs, DECLARED)
    assert ok
    run_s, pass_frac = lines
    assert run_s.startswith("run_s: parent 2.4 [2.2, 2.6]  change 2.1 [2, 2.2]  -12.5%")
    assert "medians 0.3 apart against a parent IQR of 0.4" in run_s
    assert run_s.endswith("better in 4/5 (lower is better)")
    assert pass_frac.endswith("+0.0%, medians 0 apart against a parent IQR of 0  "
                              "better in 0/5 (higher is better)")


def test_summary_flags_an_incorrect_execution_and_skips_missing_metrics(perf_pairs):
    failed = {"correct": False, "metrics": {}}
    pairs = [(_result(2.0), _result(1.9)), (_result(2.1), failed)]
    lines, ok = perf_pairs.summarize(pairs, DECLARED)
    assert not ok
    assert "better in 1/1" in lines[0]
    assert lines[-1] == "not correct: pair 1 change"
    lines, ok = perf_pairs.summarize([(failed, failed)], DECLARED)
    assert not ok
    assert lines[:2] == ["run_s: no pair has it", "pass_frac: no pair has it"]


def test_pairs_alternate_their_order_and_seed_by_index(perf_pairs, monkeypatch, tmp_path,
                                                       capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        root.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": DECLARED}))
    calls = []

    def fake(root, workload, seed, seconds):
        calls.append((root.name, workload, seed, seconds))
        return _result(2.0 if root == parent else 1.5)

    monkeypatch.setattr(perf_pairs, "run_side", fake)
    code = perf_pairs.main([str(parent), str(change), "--workload", "registry_fast",
                            "--pairs", "3", "--seconds", "8"])
    assert code == 0
    assert [(name, seed) for name, _, seed, _ in calls] == [
        ("parent", 0), ("change", 0), ("change", 1), ("parent", 1),
        ("parent", 2), ("change", 2)]
    assert {(w, s) for _, w, _, s in calls} == {("registry_fast", 8.0)}
    assert "better in 3/3" in capsys.readouterr().out
