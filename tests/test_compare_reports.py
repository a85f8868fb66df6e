"""`scripts/compare_reports.py` holds two registry trees, or a tree and the
committed reference, to perfbench's drift rule, each report as a whole."""

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
    "manifest": {"wave": {"kind": "log", "a": 32.0, "q": 1.0, "r": 2.0},
                 "coefficients": {"eta0": 0.0002441406250000001, "eps": [0.003906250000000002]}},
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
     "bounded.measured.ratio: 0.327"),
    (lambda r: r["certificates"][1]["measured"].update(max_increase=-5.1e-08 + 1e-10),
     "monotone.measured.max_increase"),
    (lambda r: r["certificates"][0]["measured"].update(N=[1024]), "length 1 != 2"),
    (lambda r: r["certificates"][1]["measured"].update(extra=1.0), "keys"),
    (lambda r: r["certificates"][1].update(passed=False), "passed"),
    (lambda r: r["manifest"]["wave"].update(a=16.0), "log.manifest.wave.a: 16.0"),
    (lambda r: r["manifest"]["wave"].update(kind="power"), "manifest.wave.kind: 'power'"),
    (lambda r: r.update(passed=False), "log.passed: False != True"),
])
def test_any_other_difference_fails(compare_reports, monkeypatch, capsys, tmp_path,
                                    edit, message):
    old = _tree(tmp_path / "old", {"thm6_psystem_log": REPORT})
    new = _tree(tmp_path / "new", {"thm6_psystem_log": _edited(edit)})
    code, out = _run(compare_reports, monkeypatch, capsys, old, new)
    assert code == 1
    assert message in out


def test_manifest_numbers_are_held_to_the_drift_rule(compare_reports, monkeypatch, capsys,
                                                     tmp_path):
    """A move of a few ulp in the corrector's coefficients is roundoff; a
    move beyond rtol is a difference named by its path."""
    def moved(rel):
        def edit(r):
            coefficients = r["manifest"]["coefficients"]
            coefficients["eta0"] *= 1 + rel
            coefficients["eps"] = [coefficients["eps"][0] * (1 - rel)]
        return _edited(edit)

    old = _tree(tmp_path / "old", {"thm6_psystem_log": REPORT})
    new = _tree(tmp_path / "ulps", {"thm6_psystem_log": moved(4 * 2.0**-52)})
    code, out = _run(compare_reports, monkeypatch, capsys, old, new)
    assert code == 0, out
    assert "1 scenarios compared, 0 differences" in out
    new = _tree(tmp_path / "far", {"thm6_psystem_log": moved(1e-6)})
    code, out = _run(compare_reports, monkeypatch, capsys, old, new)
    assert code == 1
    assert "thm6_psystem_log.manifest.coefficients.eta0: " in out
    assert "thm6_psystem_log.manifest.coefficients.eps[0]: " in out
    assert "2 differences" in out


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
    """`--regenerate` writes what `check_reference` reads, and every
    certificate is held to its measured values, a seeded one too."""
    tree = _tree(tmp_path / "tree", {"thm6_psystem_log": REPORT})
    monkeypatch.setattr(compare_reports, "REFERENCE", tmp_path / "data" / "reference.json")
    monkeypatch.setattr(sys, "argv", ["compare_reports.py", "--regenerate", str(tree)])
    assert compare_reports.main() == 0
    reference = json.loads(compare_reports.REFERENCE.read_text())
    assert reference["thm6_psystem_log"]["thm6:monotone"] == {
        "measured": {"max_increase": -5.1e-08}, "passed": True}

    rule = compare_reports.drift_rule()
    check = compare_reports.check_reference
    assert check(reference, compare_reports.reports(tree), rule) == []

    def problems(edit):
        report = _edited(edit)
        report["certificates"] = {c["id"]: c for c in report["certificates"]}
        return check(reference, {"thm6_psystem_log": report}, rule)

    reseeded = problems(lambda r: r["certificates"][0]["measured"].update(ratio=0.5))
    assert reseeded == ["tree.thm6_psystem_log.thm6:bounded.measured.ratio: "
                        "0.5 drifted from 0.327"]
    drifted = problems(lambda r: r["certificates"][1]["measured"].update(max_increase=-5e-08))
    assert "thm6:monotone.measured.max_increase" in drifted[0]
    failed = problems(lambda r: r["certificates"][0].update(passed=False))
    assert "thm6:bounded.passed: False != True" in failed[0]
    assert "keys [] != ['thm6_psystem_log']" in check(reference, {}, rule)[0]
