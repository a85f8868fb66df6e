"""Config documents, overrides, output plumbing, and the command line."""

import json
from pathlib import Path

import numpy as np
import pytest

from hypodecay.experiment import (
    ConfigError,
    apply_override,
    batch,
    build_fields,
    parse_config,
    run,
    scenario_claims,
    scenario_doc,
    scenario_names,
    serialize_config,
)
from hypodecay.experiment import runner
from hypodecay.experiment.cli import main
from hypodecay.experiment.config import CONFIG_SCHEMA
from hypodecay.experiment.runner import resolve_out_dir
from hypodecay.grids import Grid1D

EXPECTED_SCENARIOS = [
    "ckn_sweep",
    "convergence_order",
    "heat_oracle",
    "kalman_fail",
    "thm1_linear",
    "thm2_weighted",
    "thm3_wave",
    "thm4_euler",
    "thm5_euler_weighted",
    "thm6_psystem_log",
]


def smoke_doc(name="smoke_custom"):
    """Schema-valid fast run with no registry claims attached."""
    return {
        "scenario": name,
        "system": {"kind": "linear", "A": [[0.0, 1.0], [1.0, 0.0]],
                   "D": [[1.0]], "n1": 1},
        "grid": {"L": 30.0, "N": 64, "bc": "periodic"},
        "time": {"T": 2.0, "cfl": 0.4, "sample_stride": 1},
        "data": [{"kind": "gaussian", "component": 0, "amp": 1.0, "width": 3.0}],
        "outputs": {"snapshots": [0.0, 2.0]},
    }


# --- registry ------------------------------------------------------------


def test_registry_names():
    assert scenario_names() == EXPECTED_SCENARIOS


def test_registry_docs_parse_and_round_trip():
    for name in scenario_names():
        doc = scenario_doc(name)
        canonical = serialize_config(parse_config(doc))
        again = serialize_config(parse_config(canonical))
        assert again == canonical, name


def test_registry_doc_is_a_copy():
    doc = scenario_doc("thm1_linear")
    doc["grid"]["N"] = 16
    assert scenario_doc("thm1_linear")["grid"]["N"] != 16


def test_registry_unknown_name():
    with pytest.raises(KeyError):
        scenario_doc("thm7")


def test_registry_claims_have_anchors():
    for name in scenario_names():
        for claim in scenario_claims(name):
            assert claim["id"].startswith(name + ":")
            assert claim["anchor"]


def test_system_kinds_agree():
    schema_kinds = CONFIG_SCHEMA["properties"]["system"]["properties"]["kind"]["enum"]
    assert sorted(schema_kinds) == sorted(runner._SYSTEMS)
    for name in scenario_names():
        assert scenario_doc(name)["system"]["kind"] in runner._SYSTEMS, name


def test_psystem_scenario_defaults():
    doc = scenario_doc("thm6_psystem_log")
    assert doc["system"]["r"] == 2.0
    wave = [w for w in doc["weights"] if w["role"] == "wave"][0]
    assert wave["kind"] == "log" and wave["q"] == 1.0


# --- parsing -------------------------------------------------------------


def test_parse_rejects_malformed():
    with pytest.raises(ConfigError):
        parse_config([])
    with pytest.raises(ConfigError, match="grid"):
        doc = smoke_doc()
        doc["grid"]["N"] = -4
        parse_config(doc)
    with pytest.raises(ConfigError):
        doc = smoke_doc()
        del doc["time"]
        parse_config(doc)
    with pytest.raises(ConfigError):
        doc = smoke_doc()
        doc["grid"]["bc"] = "open"
        parse_config(doc)
    with pytest.raises(ConfigError):
        doc = smoke_doc()
        doc["time"]["cfl"] = 0.9
        parse_config(doc)
    with pytest.raises(ConfigError):
        doc = smoke_doc()
        doc["extra"] = 1
        parse_config(doc)


def test_parse_defaults():
    cfg = parse_config(smoke_doc())
    assert cfg.time["nu"] == 0.0
    assert cfg.seed == 0
    assert cfg.corrector is None
    assert cfg.grid["bc"] == "periodic"


# --- overrides -------------------------------------------------------------


def test_override_nested_and_typed():
    doc = smoke_doc()
    apply_override(doc, "time.T", "5.5")
    apply_override(doc, "data.0.amp", "0.25")
    apply_override(doc, "system.n1", "1")
    apply_override(doc, "scenario", "renamed")
    assert doc["time"]["T"] == 5.5
    assert doc["data"][0]["amp"] == 0.25
    assert isinstance(doc["system"]["n1"], int)
    assert doc["scenario"] == "renamed"


def test_override_json_values():
    doc = {"a": {}}
    apply_override(doc, "a.flag", "true")
    apply_override(doc, "a.items", "[1, 2]")
    apply_override(doc, "a.name", "plain-string")
    assert doc["a"] == {"flag": True, "items": [1, 2], "name": "plain-string"}


# --- initial data -----------------------------------------------------------


def test_build_fields_component_range():
    doc = smoke_doc()
    doc["data"][0]["component"] = 2
    cfg = parse_config(doc)
    grid = Grid1D(L=30.0, N=64, bc="periodic")
    with pytest.raises(ConfigError, match="component"):
        build_fields(cfg, grid, 2)


def test_build_fields_shapes_and_mass():
    doc = smoke_doc()
    doc["data"] = [
        {"kind": "dgaussian", "component": 0, "amp": 2.0, "width": 3.0},
        {"kind": "zero", "component": 1},
    ]
    cfg = parse_config(doc)
    grid = Grid1D(L=30.0, N=256, bc="periodic")
    U = build_fields(cfg, grid, 2)
    assert U.shape == (256, 2)
    assert abs(grid.qw @ U[:, 0]) < 1e-14
    assert np.all(U[:, 1] == 0.0)


def test_build_fields_bumps_reproducible():
    doc = smoke_doc()
    doc["data"] = [{"kind": "bumps", "component": 0, "amp": 1.0,
                    "width": 10.0, "count": 5}]
    doc["seed"] = 42
    cfg = parse_config(doc)
    grid = Grid1D(L=30.0, N=128, bc="periodic")
    assert np.array_equal(build_fields(cfg, grid, 1), build_fields(cfg, grid, 1))
    doc["seed"] = 43
    other = build_fields(parse_config(doc), grid, 1)
    assert not np.array_equal(other, build_fields(cfg, grid, 1))


# --- output resolution -------------------------------------------------------


def test_out_dir_precedence(monkeypatch, tmp_path):
    cfg = parse_config(smoke_doc())
    monkeypatch.delenv("HYPODECAY_OUT", raising=False)
    assert resolve_out_dir(cfg) == Path("runs") / "smoke_custom"
    monkeypatch.setenv("HYPODECAY_OUT", str(tmp_path / "env"))
    assert resolve_out_dir(cfg) == tmp_path / "env" / "smoke_custom"
    doc = smoke_doc()
    doc["outputs"]["dir"] = "elsewhere"
    monkeypatch.delenv("HYPODECAY_OUT")
    assert resolve_out_dir(parse_config(doc)) == Path("elsewhere")
    assert resolve_out_dir(cfg, tmp_path / "arg") == tmp_path / "arg"


# --- runner --------------------------------------------------------------


def test_run_writes_deterministic_outputs(tmp_path):
    cfg = parse_config(smoke_doc())
    r1 = run(cfg, out_dir=tmp_path / "a")
    r2 = run(cfg, out_dir=tmp_path / "b")
    assert r1.exit_code == 0 and r2.exit_code == 0
    for name in ("series.csv", "snapshot_0.csv", "snapshot_2.csv", "report.json"):
        b1 = (tmp_path / "a" / name).read_bytes()
        b2 = (tmp_path / "b" / name).read_bytes()
        assert b1 == b2, name
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["scenario"] == "smoke_custom"
    assert report["certificates"] == []
    assert report["passed"] is True
    header = (tmp_path / "a" / "series.csv").read_text().splitlines()[0]
    assert header.startswith("t,")
    assert "l2" in header.split(",")


@pytest.mark.filterwarnings("ignore:overflow")
def test_run_rejects_before_writing(tmp_path):
    doc = smoke_doc()
    doc["data"][0]["amp"] = 1e300  # overflows the exponential propagator
    out = tmp_path / "never"
    cfg = parse_config(doc)
    with pytest.raises(Exception):
        run(cfg, out_dir=out)
    assert not out.exists()


def test_run_writes_timing_telemetry(tmp_path):
    run(parse_config(smoke_doc()), out_dir=tmp_path / "a")
    timing = json.loads((tmp_path / "a" / "timing.json").read_text())
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert set(timing) == {"wall_s", "rss_peak_mb", "simulate_s", "n_steps",
                           "ns_per_point_step"}
    assert timing["n_steps"] == report["manifest"]["series_meta"]["n_steps"]
    assert 0.0 < timing["simulate_s"] <= timing["wall_s"]
    assert timing["ns_per_point_step"] == pytest.approx(
        timing["simulate_s"] * 1e9 / (timing["n_steps"] * 64))
    assert timing["rss_peak_mb"] > 1.0
    assert "timing" not in json.dumps(report)


def test_run_without_series_omits_step_timing(tmp_path):
    doc = smoke_doc()
    doc["system"] = {"kind": "none"}
    run(parse_config(doc), out_dir=tmp_path / "a")
    timing = json.loads((tmp_path / "a" / "timing.json").read_text())
    assert set(timing) == {"wall_s", "rss_peak_mb"}


def test_certificate_error_leaves_no_output(monkeypatch, tmp_path, capsys):
    def broken(claim, ctx):
        raise ValueError("sub-run rejected its grid")

    monkeypatch.setitem(runner._CHECKS, "broken", broken)
    monkeypatch.setattr(runner, "scenario_claims", lambda name: [
        {"id": "broken", "anchor": "a certificate whose sub-run fails",
         "check": "broken"}])
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps(smoke_doc()))
    out = tmp_path / "never"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    assert not out.exists()
    assert "numerical failure: ValueError" in capsys.readouterr().err


def test_batch_survives_an_internal_error(monkeypatch, tmp_path):
    real_run = runner.run

    def run_or_break(cfg, out_dir=None):
        if cfg.scenario == "smoke_bad":
            raise KeyError("missing")
        return real_run(cfg, out_dir=out_dir)

    monkeypatch.setattr(runner, "run", run_or_break)  # forked workers inherit it
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    for name in ("good", "bad", "other"):
        (cfg_dir / f"{name}.json").write_text(json.dumps(smoke_doc(f"smoke_{name}")))
    agg = batch(sorted(cfg_dir.glob("*.json")), tmp_path / "br", jobs=2)
    assert agg["exit_code"] == 3
    written = json.loads((tmp_path / "br" / "batch_report.json").read_text())
    by_name = {r["name"]: r for r in written["runs"]}
    assert by_name["bad"]["exit_code"] == 3
    assert by_name["bad"]["error"].startswith("internal error: KeyError")
    assert by_name["good"]["exit_code"] == 0 and by_name["other"]["exit_code"] == 0


# --- command line ------------------------------------------------------------


def test_cli_list(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(EXPECTED_SCENARIOS)
    listed = [ln.split()[0] for ln in lines]
    assert listed == EXPECTED_SCENARIOS


def test_cli_run_smoke(tmp_path, capsys):
    cfg_path = tmp_path / "smoke.json"
    cfg_path.write_text(json.dumps(smoke_doc()))
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "report:" in out
    assert (tmp_path / "out" / "report.json").exists()


def test_cli_run_scenario_with_overrides(tmp_path):
    code = main([
        "run", "--scenario", "thm1_linear",
        "--set", "scenario=smoke_thm1",
        "--set", "grid.N=128",
        "--set", "time.T=2.0",
        "--set", "outputs.snapshots=[0.0]",
        "--out", str(tmp_path / "o"),
    ])
    assert code == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["manifest"]["config"]["grid"]["N"] == 128
    # corrector constants travel with the run
    assert report["manifest"]["coefficients"]["eps0"] == 0.25


def test_cli_rejects_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = smoke_doc()
    doc["grid"]["N"] = -4
    bad.write_text(json.dumps(doc))
    out = tmp_path / "never"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err

    assert main(["run", "--scenario", "no_such", "--out", str(out)]) == 2
    assert main(["run", "--scenario", "thm1_linear", "--set", "oops"]) == 2
    with pytest.raises(SystemExit):
        main(["run"])  # --config/--scenario required


def test_cli_rejects_snapshot_outside_horizon(tmp_path, capsys):
    out = tmp_path / "never"
    code = main([
        "run", "--scenario", "thm1_linear",
        "--set", "time.T=2.0",
        "--set", "outputs.snapshots=[1.0, 50.0]",
        "--out", str(out),
    ])
    assert code == 2
    assert not out.exists()
    assert "outputs.snapshots" in capsys.readouterr().err


def test_cli_rejects_scenario_with_other_system_kind(tmp_path, capsys):
    out = tmp_path / "X"
    code = main([
        "run", "--scenario", "thm4_euler",
        "--set", 'system={"kind":"linear","A":[[0,1],[1,0]],"D":[[1]],"n1":1}',
        "--set", "grid.N=256",
        "--set", "time.T=5",
        "--out", str(out),
    ])
    assert code == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, key, value", [
    # a wave weight of the family the system does not take
    ("thm3_wave", "weights.0.kind", "log"),
    ("thm5_euler_weighted", "weights.1.kind", "log"),
    ("thm6_psystem_log", "weights.0.kind", "power"),
    # parameters outside the range the system's construction accepts
    ("thm2_weighted", "weights.0.mu", "-1"),
    ("thm6_psystem_log", "system.r", "3.5"),
    ("thm3_wave", "weights.0.mu", "0.2"),
])
def test_cli_rejects_misconfigured_system(tmp_path, capsys, scenario, key, value):
    out = tmp_path / "never"
    code = main([
        "run", "--scenario", scenario,
        "--set", f"{key}={value}",
        "--set", "grid.N=256",
        "--set", "time.T=5",
        "--out", str(out),
    ])
    assert code == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, setting", [
    # non-zero-mass data under a wave monitor
    ("thm3_wave", "data.0.kind=gaussian"),
    ("thm5_euler_weighted", "data.0.kind=gaussian"),
    # a weight role the system does not consume
    ("thm6_psystem_log", 'weights=[{"role":"spatial","kind":"power","mu":1.0}]'),
    ("heat_oracle", 'weights=[{"role":"wave","kind":"power"}]'),
    ("ckn_sweep", 'weights=[{"role":"wave","kind":"power"}]'),
])
def test_cli_rejects_data_or_weights_before_stepping(tmp_path, capsys, scenario, setting):
    out = tmp_path / "never"
    code = main([
        "run", "--scenario", scenario,
        "--set", setting,
        "--set", "grid.N=256",
        "--set", "time.T=5",
        "--out", str(out),
    ])
    assert code == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


def test_cli_run_numerical_failure(tmp_path, capsys):
    doc = smoke_doc()
    # compact box far too small: the pulse escapes -> numerical failure
    doc["grid"]["bc"] = "compact_support"
    doc["grid"]["L"] = 10.0
    doc["time"]["T"] = 15.0
    path = tmp_path / "escape.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "never"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    assert not out.exists()
    assert "numerical failure" in capsys.readouterr().err


def test_cli_batch_isolates_failures(tmp_path, capsys):
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    (cfg_dir / "good.json").write_text(json.dumps(smoke_doc("smoke_a")))
    bad = smoke_doc("smoke_b")
    bad["grid"]["N"] = 8
    (cfg_dir / "bad.json").write_text(json.dumps(bad))
    code = main(["batch", "--dir", str(cfg_dir), "--out", str(tmp_path / "br")])
    assert code == 2
    agg = json.loads((tmp_path / "br" / "batch_report.json").read_text())
    by_name = {r["name"]: r for r in agg["runs"]}
    assert by_name["good"]["exit_code"] == 0
    assert by_name["bad"]["exit_code"] == 2
    assert (tmp_path / "br" / "good" / "report.json").exists()
    assert main(["batch", "--dir", str(tmp_path / "empty")]) == 2


def test_batch_worker_count_invariance(tmp_path):
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    for i in range(3):
        doc = smoke_doc(f"smoke_{i}")
        doc["data"][0]["width"] = 2.0 + i
        (cfg_dir / f"c{i}.json").write_text(json.dumps(doc))
    paths = sorted(cfg_dir.glob("*.json"))
    agg1 = batch(paths, tmp_path / "serial", jobs=1)
    agg2 = batch(paths, tmp_path / "forked", jobs=3)
    assert agg1 == agg2
    for i in range(3):
        a = (tmp_path / "serial" / f"c{i}" / "series.csv").read_bytes()
        b = (tmp_path / "forked" / f"c{i}" / "series.csv").read_bytes()
        assert a == b
