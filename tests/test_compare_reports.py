"""`scripts/compare_reports.py` holds two registry trees, or a tree and the
committed reference, to perfbench's drift rule."""

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


SERIES = "t,l2,dx_l2\n0.0,5.006623887043045,0.5\n0.078125,4.822167886264002,1.2e-300\n"


def _tree(root, reports, csvs=None):
    for name, report in reports.items():
        (root / name).mkdir(parents=True)
        (root / name / "report.json").write_text(json.dumps(report, indent=2))
    for name, files in (csvs or {}).items():
        for file, text in files.items():
            (root / name / file).write_text(text)
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


@pytest.mark.parametrize("series, message", [
    (SERIES.replace("4.822167886264002", "4.822167986264002"),
     "series.csv: 1 differences, the first row 2[1]: 4.822167986264002 drifted"),
    (SERIES.replace("dx_l2", "dx_l1"), "series.csv: header"),
    (SERIES.rsplit("0.078125", 1)[0], "series.csv: 1 rows != 2"),
    (None, "thm6_psystem_log/series.csv: in only one tree"),
])
def test_any_csv_difference_fails(compare_reports, monkeypatch, capsys, tmp_path,
                                  series, message):
    old = _tree(tmp_path / "old", {"thm6_psystem_log": REPORT},
                {"thm6_psystem_log": {"series.csv": SERIES}})
    new = _tree(tmp_path / "new", {"thm6_psystem_log": REPORT},
                {"thm6_psystem_log": {} if series is None else {"series.csv": series}})
    code, out = _run(compare_reports, monkeypatch, capsys, old, new)
    assert code == 1
    assert message in out


def test_csv_roundoff_moves_pass(compare_reports, monkeypatch, capsys, tmp_path):
    moved = SERIES.replace("4.822167886264002", repr(4.822167886264002 * (1 + 1e-12)))
    moved = moved.replace("1.2e-300", "0.0")
    assert moved != SERIES
    old = _tree(tmp_path / "old", {"thm6_psystem_log": REPORT},
                {"thm6_psystem_log": {"series.csv": SERIES}})
    new = _tree(tmp_path / "new", {"thm6_psystem_log": REPORT},
                {"thm6_psystem_log": {"series.csv": moved}})
    code, out = _run(compare_reports, monkeypatch, capsys, old, new)
    assert code == 0, out


def test_regenerated_reference_checks_a_tree(compare_reports, monkeypatch, capsys, tmp_path):
    """`--regenerate` writes what `check_reference` reads; seed-dependent
    certificates are held to `passed` only."""
    tree = _tree(tmp_path / "tree", {"thm6_psystem_log": REPORT})
    monkeypatch.setattr(compare_reports, "REFERENCE", tmp_path / "data" / "reference.json")
    monkeypatch.setattr(sys, "argv", ["compare_reports.py", "--regenerate", str(tree)])
    assert compare_reports.main() == 0
    reference = json.loads(compare_reports.REFERENCE.read_text())
    assert reference["thm6_psystem_log"]["thm6:monotone"] == {
        "measured": {"max_increase": -5.1e-08}, "passed": True}

    drift, rtol, atol, _ = compare_reports.drift_rule()
    rule = (drift, rtol, atol, frozenset({"thm6:bounded"}))
    check = compare_reports.check_reference
    reports = {"thm6_psystem_log": REPORT}
    assert check(reference, reports, rule) == []
    reseeded = _edited(lambda r: r["certificates"][0]["measured"].update(ratio=0.5))
    assert check(reference, {"thm6_psystem_log": reseeded}, rule) == []
    drifted = _edited(lambda r: r["certificates"][1]["measured"].update(max_increase=-5e-08))
    assert "max_increase" in check(reference, {"thm6_psystem_log": drifted}, rule)[0]
    failed = _edited(lambda r: r["certificates"][0].update(passed=False))
    assert "passed" in check(reference, {"thm6_psystem_log": failed}, rule)[0]
    assert "in only one" in check(reference, {}, rule)[0]
