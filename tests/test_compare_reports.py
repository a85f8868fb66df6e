"""`scripts/compare_reports.py` holds two registry trees to perfbench's drift rule."""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"

REPORT = {
    "scenario": "thm6_psystem_log",
    "passed": True,
    "manifest": {"wave": {"kind": "log", "a": 32.0, "q": 1.0, "r": 2.0}},
    "certificates": [
        {"id": "thm6:bounded", "measured": {"ratio": 0.327, "N": [1024, 2048]}, "passed": True},
        {"id": "thm6:monotone", "measured": {"max_increase": -5.1e-08}, "passed": True},
    ],
}


@pytest.fixture
def compare_reports():
    spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root, reports):
    for name, report in reports.items():
        (root / name).mkdir(parents=True)
        (root / name / "report.json").write_text(json.dumps(report, indent=2))
    return root


def _run(module, monkeypatch, capsys, old, new):
    monkeypatch.setattr(sys, "argv", ["compare_reports.py", str(old), str(new)])
    code = module.main()
    return code, capsys.readouterr().out


def _edited(edit):
    report = copy.deepcopy(REPORT)
    edit(report)
    return report


def test_drift_is_perfbenchs_own(compare_reports):
    drift = compare_reports._perfbench_run()._drift
    assert Path(drift.__code__.co_filename).parts[-2:] == ("perfbench", "run.py")


def test_roundoff_moves_pass(compare_reports, monkeypatch, capsys, tmp_path):
    moved = _edited(lambda r: r["certificates"][0]["measured"].update(ratio=0.327 * (1 + 1e-10)))
    old = _tree(tmp_path / "old", {"thm6_psystem_log": REPORT, "heat": REPORT})
    new = _tree(tmp_path / "new", {"thm6_psystem_log": moved, "heat": REPORT})
    code, out = _run(compare_reports, monkeypatch, capsys, old, new)
    assert code == 0
    assert "2 scenarios compared, 0 differences" in out


@pytest.mark.parametrize("edit, message", [
    (lambda r: r["certificates"][0]["measured"].update(ratio=0.327 * (1 + 1e-6)),
     "thm6:bounded.ratio: 0.327"),
    (lambda r: r["certificates"][1]["measured"].update(max_increase=-5.1e-08 + 1e-10),
     "thm6:monotone.max_increase"),
    (lambda r: r["certificates"][0]["measured"].update(N=[1024]), "length 1 != 2"),
    (lambda r: r["certificates"][1]["measured"].update(extra=1.0), "keys"),
    (lambda r: r["certificates"][1].update(passed=False), "passed"),
    (lambda r: r["manifest"]["wave"].update(a=16.0), "outside the measured blocks"),
    (lambda r: r.update(passed=False), "outside the measured blocks"),
])
def test_any_other_difference_fails(compare_reports, monkeypatch, capsys, tmp_path,
                                    edit, message):
    old = _tree(tmp_path / "old", {"thm6_psystem_log": REPORT})
    new = _tree(tmp_path / "new", {"thm6_psystem_log": _edited(edit)})
    code, out = _run(compare_reports, monkeypatch, capsys, old, new)
    assert code == 1
    assert message in out


def test_a_scenario_in_one_tree_only_fails(compare_reports, monkeypatch, capsys, tmp_path):
    old = _tree(tmp_path / "old", {"thm6_psystem_log": REPORT, "heat": REPORT})
    new = _tree(tmp_path / "new", {"thm6_psystem_log": REPORT})
    code, out = _run(compare_reports, monkeypatch, capsys, old, new)
    assert code == 1
    assert "heat: report.json in only one tree" in out
    (tmp_path / "empty").mkdir()
    code, out = _run(compare_reports, monkeypatch, capsys, tmp_path / "empty", tmp_path / "empty")
    assert code == 1
