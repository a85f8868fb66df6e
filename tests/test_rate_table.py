"""`scripts/rate_table.py` tabulates the fitted exponents of a sweep and
lists the failed certificates that have none."""

import csv
import importlib.util
import sys
from pathlib import Path

from hypodecay.experiment import parse_config, run, scenario_doc

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "rate_table.py"


def _rate_table(root, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("rate_table", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", ["rate_table.py", "--root", str(root)])
    code = module.main()
    return code, capsys.readouterr().out


def test_a_fit_that_raised_is_listed_after_the_table(monkeypatch, capsys, tmp_path):
    """thm1_linear at T = 20 has no sample in its fit window [25, 100], so
    `decay_exponents` fails with an error and no `alpha`."""
    doc = scenario_doc("thm1_linear")
    run(parse_config(doc), tmp_path / "full")
    doc["time"]["T"] = 20.0
    doc["outputs"]["snapshots"] = [0.0, 10.0]
    run(parse_config(doc), tmp_path / "short")
    listed = ("thm1_linear:decay_exponents: WindowTooSmall: "
              "window [25.0, 100.0] holds 0 samples; need 20")

    code, out = _rate_table(tmp_path, monkeypatch, capsys)
    assert code == 0
    table, _, failed = out.partition("failed with no fitted exponent:")
    assert [line.split()[1] for line in table.splitlines()[1:3]] == ["dx_l2", "u2_l2"]
    assert listed in failed
    assert [r["channel"] for r in csv.DictReader(open(tmp_path / "rates.csv"))] == [
        "dx_l2", "u2_l2"]

    (tmp_path / "full" / "report.json").unlink()
    code, out = _rate_table(tmp_path, monkeypatch, capsys)
    assert code == 1
    assert listed in out
