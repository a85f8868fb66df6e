"""Config documents, overrides, output plumbing, and the command line."""

import importlib.util
import json
import math
import os
import platform
import random
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from contextlib import redirect_stderr
from io import StringIO
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypodecay.analysis import TimeSeries
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
)
from hypodecay.experiment import runner
from hypodecay.experiment.cli import main
from hypodecay.experiment import config
from hypodecay.experiment.config import DATA_FIELDS, KEYS, SYSTEM_KINDS, WEIGHT_FIELDS
from hypodecay.experiment.runner import resolve_out_dir
from hypodecay.grids import Grid1D
from hypodecay.solvers import default_offset

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


# A UTF-16 byte-order mark before "{}": not a UTF-8 config file.
UNDECODABLE = bytes([0xFF, 0xFE, 0x7B, 0x7D])


def smoke_doc(name="smoke_custom"):
    """Schema-valid fast run with no registry claims attached."""
    return {
        "scenario": name,
        "system": {"kind": "linear", "A": [[0.0, 1.0], [1.0, 0.0]],
                   "D": [[1.0]], "n1": 1},
        "grid": {"L": 30.0, "N": 64, "bc": "periodic"},
        "time": {"T": 2.0, "sample_stride": 1},
        "data": [{"kind": "gaussian", "component": 0, "amp": 1.0, "width": 3.0}],
        "outputs": {"snapshots": [0.0, 2.0]},
    }


# --- registry ------------------------------------------------------------


def test_registry_names():
    assert scenario_names() == EXPECTED_SCENARIOS


def test_registry_docs_parse_and_round_trip():
    for name in scenario_names():
        doc = scenario_doc(name)
        canonical = parse_config(doc)
        assert type(canonical) is dict, name
        again = parse_config(canonical)
        assert again == canonical, name
        for w in canonical["weights"]:
            assert list(w) == ["role", "kind", *WEIGHT_FIELDS[w["role"], w["kind"]]], name
        for d in canonical["data"]:
            assert list(d) == ["kind", "component", *DATA_FIELDS[d["kind"]]], name


def test_weight_entries_record_only_the_fields_their_role_and_kind_read():
    doc = scenario_doc("heat_oracle")
    doc["weights"] = [{"role": "spatial", "kind": "log", "q": 2.0}]
    assert parse_config(doc)["weights"] == doc["weights"]
    doc = scenario_doc("thm6_psystem_log")
    assert parse_config(doc)["weights"] == [
        {"role": "wave", "kind": "log", "q": 1.0}]
    # every role with every kind has a row, so each pair parse_config admits has one
    assert set(WEIGHT_FIELDS) == {(role, kind) for role, _ in WEIGHT_FIELDS
                                  for _, kind in WEIGHT_FIELDS}


def test_parsed_config_shares_no_object_with_its_document():
    doc = scenario_doc("thm2_weighted")
    cfg = parse_config(doc)
    before = json.loads(json.dumps(cfg))
    doc["system"]["A"][0][1] = 99.0
    doc["system"]["A"][1].append(0.0)
    doc["system"]["D"][0] = [5.0]
    doc["data"][0]["amp"] = 7.0
    doc["weights"][0]["mu"] = 0.5
    doc["outputs"]["snapshots"].append(1.0)
    doc["grid"]["N"] = 16
    assert cfg == before


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
    assert sorted(SYSTEM_KINDS) == sorted(runner._SYSTEMS)
    for name in scenario_names():
        assert scenario_doc(name)["system"]["kind"] in SYSTEM_KINDS, name
    # KEYS types exactly the keys the tables read, so none outlives its reader;
    # the top-level scalars and a data entry's component are read outside them
    kinds = SYSTEM_KINDS.values()
    read = set().union(*(k.system for k in kinds), *(k.time for k in kinds),
                       *(k.corrector or () for k in kinds), *WEIGHT_FIELDS.values(),
                       *DATA_FIELDS.values(), config._GRID, config._OUTPUTS,
                       {"scenario", "seed", "component"})
    assert set(KEYS) == read


def test_data_entries_record_only_the_fields_their_kind_reads():
    doc = scenario_doc("thm2_weighted")
    assert parse_config(doc)["data"] == [
        {"kind": "dgaussian", "component": 0, "amp": 1.0, "width": 1.6, "center": 0.0}]
    doc["data"] = [{"kind": "bumps", "component": 0, "count": 3},
                   {"kind": "zero", "component": 1}]
    assert parse_config(doc)["data"] == [
        {"kind": "bumps", "component": 0, "amp": 1.0, "width": 1.0, "count": 3},
        {"kind": "zero", "component": 1}]


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
    with pytest.raises(ConfigError, match="time.nu"):
        doc = smoke_doc()
        doc["time"]["nu"] = -1.0
        parse_config(doc)
    with pytest.raises(ConfigError):
        doc = smoke_doc()
        doc["extra"] = 1
        parse_config(doc)


def edge_doc(kind="linear"):
    """A valid document that sets every key a `kind` system reads."""
    system = {
        "linear": {"kind": "linear", "A": [[0.0, 1.0], [1.0, 0.0]], "D": [[1.0]], "n1": 1},
        "euler": {"kind": "euler", "gamma": 2.0, "rho_bar": 1.0, "lam": 1.0,
                  "smallness_cap": 0.5},
        "psystem": {"kind": "psystem", "r": 2.0},
        "heat": {"kind": "heat"},
    }[kind]
    doc = {
        "scenario": "edge",
        "system": system,
        "grid": {"L": 30.0, "N": 64, "bc": "periodic"},
        "time": {"T": 2.0, "sample_stride": 1},
        "data": [{"kind": "gaussian", "component": 0, "amp": 1.0, "width": 3.0, "center": 0.0},
                 {"kind": "bumps", "component": 1, "amp": 1.0, "width": 1.0, "count": 1}],
        # the wave weight is of the system's family; a log weight is heat's alone
        "weights": {"psystem": [{"role": "wave", "kind": "log", "q": 1.0}],
                    "heat": [{"role": "spatial", "kind": "log", "q": 1.0}]}.get(
                        kind, [{"role": "wave", "kind": "power", "mu": 1.0},
                               {"role": "spatial", "kind": "power", "mu": 1.0}]),
        "outputs": {"snapshots": [0.0]},
        "seed": 0,
    }
    if kind == "linear":
        doc["corrector"] = {"safety": 0.5}
    if kind in ("euler", "psystem"):  # the two schemes with a fourth-difference floor
        doc["time"]["nu"] = 0.0
    if kind == "heat":  # one field
        del doc["data"][1]
    return doc


DELETE = object()


def edited(kind, path, value):
    """edge_doc(kind) with the key at dotted `path` set to `value`, or deleted."""
    doc = edge_doc(kind)
    *keys, leaf = [int(k) if k.isdigit() else k for k in path.split(".")]
    node = doc
    for k in keys:
        node = node[k]
    if value is DELETE:
        del node[leaf]
    else:
        node[leaf] = value
    return doc


def names_path(message, path):
    """The refusal names `path`, or the section holding it and its last key."""
    section, _, key = path.rpartition(".")
    return (f"invalid config at {path}:" in message
            or f"invalid config at {section or '<root>'}:" in message and repr(key) in message)


# One row per rule a config document must satisfy: (system kind, dotted
# path, value set there, or DELETE).  The refusal names that path.
REFUSED = [
    # each required key
    *[("linear", p, DELETE) for p in (
        "scenario", "grid", "time", "system.kind", "system.A", "system.D", "system.n1",
        "grid.L", "grid.N", "time.T", "data.0.kind", "data.0.component",
        "weights.0.role", "weights.0.kind")],
    # an unknown key in each section
    *[("linear", p, 1.0) for p in (
        "extra", "system.extra", "grid.extra", "time.extra", "data.0.extra",
        "weights.0.extra", "corrector.extra", "outputs.extra")],
    # a wrong type for each key, a bool included
    *[("linear", p, v) for p, values in {
        "scenario": (1, True, None),
        "system": ([], True, "linear"),
        "system.kind": (1, True, ["linear"]),
        "system.A": ("x", True, {"0": [1.0]}),
        "system.A.0": (1.0, True),
        "system.A.0.0": ("x", True, None, [1.0]),
        "system.D.0.0": ("x", True),
        "system.n1": ("1", True, 1.5),
        "grid": (1, True, None),
        "grid.L": ("x", True, None),
        "grid.N": ("64", True, 64.5),
        "grid.bc": (1, True, None),
        "time": ([], True),
        "time.T": ("x", True),
        "time.sample_stride": ("1", True, 1.5),
        "time.nu": ("x", True),  # the linear kind reads no nu: any value is refused
        "data": ({}, True, "x"),
        "data.0": (1, True, ["gaussian"]),
        "data.0.kind": (1, True),
        "data.0.component": ("0", True, 0.5),
        "data.0.amp": ("x", True),
        "data.0.width": ("x", True),
        "data.0.center": ("x", True),
        "data.1.count": ("1", True, 1.5),
        "weights": ({}, True),
        "weights.0": ("x", True),
        "weights.0.role": (1, True),
        "weights.0.kind": (1, True),
        "weights.0.mu": ("x", True),
        "weights.1.mu": ("x", True),
        "corrector": (1, True, [], "x"),
        "corrector.safety": ("x", True, None),
        "outputs": ([], True, None),
        "outputs.dir": (1, True, None),  # no config names its output directory
        "outputs.snapshots": ("x", True, 1.0, {}),
        "outputs.snapshots.0": ("x", True, None, [0.0]),
        "seed": ("0", True, 0.5, None),
    }.items() for v in values],
    *[("euler", p, v) for p in ("system.gamma", "system.rho_bar", "system.lam",
                                "system.smallness_cap") for v in ("x", True)],
    *[("psystem", "system.r", v) for v in ("x", True, None)],
    # each bound at its edge
    ("linear", "system.n1", 0),
    ("linear", "system.A", []),
    ("linear", "system.A.0", []),
    ("linear", "system.D", []),
    ("linear", "system.D.0", []),
    ("linear", "grid.L", 0),
    ("linear", "grid.L", -1.0),
    ("linear", "grid.N", 15),
    ("linear", "time.T", 0.0),
    ("linear", "time.sample_stride", 0),
    ("linear", "time.nu", -1e-300),  # refused as unread, as the psystem row below
    ("linear", "data.0.component", -1),
    ("linear", "data.0.width", 0.0),
    ("linear", "data.1.count", 0),
    ("linear", "corrector.safety", 0.0),
    ("linear", "corrector.safety", 1),
    ("linear", "seed", -1),
    ("euler", "system.gamma", 1),
    ("euler", "system.gamma", 1.0),
    ("euler", "system.rho_bar", 0.0),
    ("euler", "system.lam", 0),
    ("euler", "system.smallness_cap", 0.0),
    # each enum
    ("linear", "system.kind", "nonlinear"),
    ("linear", "grid.bc", "open"),
    ("linear", "data.0.kind", "square"),
    ("linear", "weights.0.role", "temporal"),
    ("linear", "weights.0.kind", "exp"),
    # a wave weight of the family the system does not take
    ("linear", "weights.0.kind", "log"),
    ("euler", "weights.0.kind", "log"),
    ("psystem", "weights.0.kind", "power"),
    # a spatial weight other than |x|^mu, whose mu the linear and Euler builds read
    ("linear", "weights.1.kind", "log"),
    ("euler", "weights.1.kind", "log"),
    # the string that may not be empty, and the unread outputs.dir
    ("linear", "scenario", ""),
    ("linear", "outputs.dir", ""),
    # an integer key takes a JSON integer, not an integral float
    ("linear", "system.n1", 1.0),
    ("linear", "grid.N", 64.0),
    ("linear", "time.sample_stride", 2.0),
    ("linear", "data.0.component", 0.0),
    ("linear", "data.1.count", 2.0),
    ("linear", "seed", 1.0),
    # the heat kind's spatial log weight, and its field on the linear kind's
    # spatial weight, which reads mu alone
    *[("heat", "weights.0.q", v) for v in ("x", True)],
    *[("linear", "weights.1.q", v) for v in ("x", True)],
    # the floor strength's type and bound on a kind with a floor; on the
    # linear kind, which has none, a valid strength; an output directory,
    # which only --out and HYPODECAY_OUT name; a grid past 2^20 nodes
    *[("psystem", "time.nu", v) for v in ("x", True, -1e-300)],
    ("linear", "time.nu", 0.0),
    ("linear", "outputs.dir", "out"),
    ("linear", "grid.N", 2**20 + 1),
]


@pytest.mark.parametrize("kind, path, value", REFUSED)
def test_parse_refuses_each_rule_at_its_path(tmp_path, capsys, kind, path, value):
    doc = edited(kind, path, value)
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert names_path(str(err.value), path), str(err.value)
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "never"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("kind, path, value", [
    ("linear", "system.n1", 1),
    ("linear", "grid.N", 16),
    ("linear", "grid.L", 5e-324),
    ("linear", "grid.bc", "compact_support"),
    ("linear", "time.T", 5e-324),
    ("linear", "time.sample_stride", 1),
    ("psystem", "time.nu", 0),
    ("psystem", "time.nu", -0.0),
    ("linear", "data.0.component", 0),
    ("linear", "data.0.width", 5e-324),
    ("linear", "data.0.kind", "dgaussian"),
    ("linear", "data.1.count", 1),
    ("linear", "data.1.amp", -1e300),
    ("linear", "corrector", None),
    ("linear", "corrector", {}),
    ("linear", "corrector.safety", 5e-324),
    ("linear", "corrector.safety", math.nextafter(1.0, 0.0)),
    ("linear", "outputs.snapshots", []),
    ("linear", "grid.N", 2**20),
    ("linear", "scenario", "x"),
    ("linear", "seed", 0),
    ("linear", "seed", 2**53),
    ("linear", "data", []),
    ("linear", "weights", []),
    ("linear", "outputs", {}),
    ("euler", "system.gamma", math.nextafter(1.0, 2.0)),
    ("euler", "system.rho_bar", 5e-324),
    ("euler", "system.lam", 5e-324),
    ("euler", "system.smallness_cap", 5e-324),
    ("psystem", "system.r", -1e300),
    ("psystem", "system.r", 7),
    ("heat", "weights.0.q", 5e-324),
])
def test_parse_accepts_each_edge(kind, path, value):
    cfg = parse_config(edited(kind, path, value))
    assert parse_config(cfg) == cfg


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400, -10**400],
                         ids=["nan", "inf", "-inf", "int_1e400", "-int_1e400"])
@pytest.mark.parametrize("kind, path", [
    *[("linear", p) for p in (
        "system.A.0.1", "system.D.0.0", "grid.L", "time.T", "data.0.amp",
        "data.0.width", "data.0.center", "data.1.amp", "data.1.width", "weights.0.mu",
        "weights.1.mu", "corrector.safety", "outputs.snapshots.0")],
    ("heat", "weights.0.q"),
    *[("euler", f"system.{p}") for p in ("gamma", "rho_bar", "lam", "smallness_cap")],
    ("psystem", "system.r"),
    ("psystem", "time.nu"),
])
def test_parse_refuses_non_finite_numbers(kind, path, value):
    """A value no double can hold is refused at every number, an in-memory
    document included, where no JSON decoder has looked at it."""
    with pytest.raises(ConfigError, match=rf"at {re.escape(path)}: a non-finite number"):
        parse_config(edited(kind, path, value))


@pytest.mark.parametrize("path", ["system.n1", "grid.N", "time.sample_stride",
                                  "data.0.component", "data.1.count", "seed"])
def test_parse_refuses_integers_beyond_the_double_range(path):
    with pytest.raises(ConfigError, match=rf"at {re.escape(path)}: a non-finite number"):
        parse_config(edited("linear", path, 10**400))


def test_parse_defaults():
    cfg = parse_config(smoke_doc())
    assert cfg["time"] == {"T": 2.0, "sample_stride": 1}
    psystem = edge_doc("psystem")
    del psystem["time"]["nu"]
    assert parse_config(psystem)["time"]["nu"] == 0.0
    assert cfg["seed"] == 0
    assert cfg["corrector"] is None
    assert cfg["grid"]["bc"] == "periodic"


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


def _uniform(rng, a, b):
    return a + (b - a) * rng.random()


def test_build_fields_draws_every_bumps_entry_from_one_stream():
    """One `random.Random(seed)` stream serves every `bumps` entry in entry
    order, each bump drawing (amp, center, width); an entry that reseeded
    would repeat the first entry's draws."""
    doc = smoke_doc()
    doc["data"] = [
        {"kind": "gaussian", "component": 0, "amp": 1.0, "width": 3.0},
        {"kind": "bumps", "component": 0, "amp": 1.0, "width": 10.0, "count": 2},
        {"kind": "dgaussian", "component": 1, "amp": 0.5, "width": 2.0},
        {"kind": "bumps", "component": 1, "amp": 2.0, "width": 8.0, "count": 3},
    ]
    doc["seed"] = 7
    grid = Grid1D(L=30.0, N=128, bc="periodic")
    got = build_fields(parse_config(doc), grid, 2)
    bumps = [d for d in doc["data"] if d["kind"] == "bumps"]
    doc["data"] = [d for d in doc["data"] if d["kind"] != "bumps"]
    want = build_fields(parse_config(doc), grid, 2)
    rng = random.Random(7)
    for d in bumps:
        for _ in range(d["count"]):
            amp = _uniform(rng, -1.0, 1.0) * d["amp"]
            center = _uniform(rng, -d["width"], d["width"])
            width = _uniform(rng, 0.5, 3.0)
            want[:, d["component"]] += amp * np.exp(-(((grid.x - center) / width) ** 2))
    assert np.array_equal(got, want)


def test_ckn_bump_field_draws_count_then_each_bump_from_one_stream():
    """`_ckn_bump_field` draws the bump count in {1, 2, 3}, then (amp, center,
    width) per bump, from the stream it is given; successive calls continue
    the stream."""
    x = np.linspace(-20.0, 20.0, 257)
    rng, oracle = random.Random(7), random.Random(7)
    counts = set()
    for _ in range(20):
        h, m = runner._ckn_bump_field(rng)
        assert m == 1 + int(3.0 * oracle.random())
        want = sum(a * np.exp(-(((x - c) / w) ** 2))
                   for a, c, w in [(_uniform(oracle, -1.0, 1.0), _uniform(oracle, -12.0, 12.0),
                                    _uniform(oracle, 0.5, 3.0)) for _ in range(m)])
        assert np.array_equal(h(x), want)
        counts.add(m)
    assert counts == {1, 2, 3}


# --- output resolution -------------------------------------------------------


def test_out_dir_precedence(monkeypatch, tmp_path):
    cfg = parse_config(smoke_doc())
    monkeypatch.delenv("HYPODECAY_OUT", raising=False)
    assert resolve_out_dir(cfg) == Path("runs") / "smoke_custom"
    monkeypatch.setenv("HYPODECAY_OUT", str(tmp_path / "env"))
    assert resolve_out_dir(cfg) == tmp_path / "env" / "smoke_custom"
    assert resolve_out_dir(cfg, tmp_path / "arg") == tmp_path / "arg"


# --- runner --------------------------------------------------------------


def _modules_after_each(tmp_path, steps):
    """Run `steps` in order in one fresh interpreter; after each, the
    sorted names of multiprocessing and numpy.random that it holds.

    `tiny(name, **patch)` runs a registry scenario at N = 64 and T = 1,
    with one snapshot.
    """
    src = str(Path(runner.__file__).resolve().parents[2])
    code = [
        "import json, sys",
        "from pathlib import Path",
        "from hypodecay.experiment import (batch, parse_config, run, runner,",
        "                                  scenario_claims, scenario_doc)",
        "from hypodecay.grids import Grid1D",
        f"out = Path({str(tmp_path)!r})",
        "def tiny(name, **patch):",
        "    doc = scenario_doc(name)",
        "    doc['grid']['N'], doc['time']['T'] = 64, 1.0",
        "    doc.update(outputs={'snapshots': [1.0]}, **patch)",
        "    run(parse_config(doc), out_dir=out / doc['scenario'])",
    ]
    for step in steps:
        code += [step, "print(json.dumps(sorted(m for m in ('multiprocessing', 'numpy.random')"
                       " if m in sys.modules)))"]
    done = subprocess.run([sys.executable, "-c", "\n".join(code)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True, timeout=120)
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_a_run_that_draws_nothing_loads_neither_numpy_random_nor_multiprocessing(tmp_path):
    """multiprocessing loads only when `batch` forks, and numpy.random never,
    so neither stays resident in a run."""
    steps = [
        "tiny('thm1_linear')",
        "tiny('thm3_wave')",  # linear, power wave monitor
        "tiny('thm4_euler')",
        "tiny('thm6_psystem_log')",  # log wave monitor
        "tiny('heat_oracle')",
    ]
    assert _modules_after_each(tmp_path, steps) == [[]] * 5


def test_the_ckn_trials_draw_and_batch_forks(tmp_path):
    """The `bumps` data and the CKN trials draw from the standard library's
    `random`, so neither loads numpy.random; `batch` alone loads
    multiprocessing."""
    bumps = [{"kind": "bumps", "component": 0, "amp": 1.0, "width": 10.0, "count": 2}]
    (tmp_path / "cfgs").mkdir()
    (tmp_path / "cfgs" / "a.json").write_text(json.dumps(smoke_doc("smoke_a")))
    steps = [
        f"tiny('heat_oracle', scenario='heat_bumps', data={bumps!r})",
        "claim = next(c for c in scenario_claims('ckn_sweep') if c['check'] == 'ckn_random')",
        "runner._check_ckn_random({**claim, 'trials': 1}, runner.RunContext(\n"
        "    cfg=parse_config(scenario_doc('ckn_sweep')),\n"
        "    grid=Grid1D(L=50.0, N=257, bc='compact_support')))",
        "assert batch([out / 'cfgs' / 'a.json'], out / 'br')['exit_code'] == 0",
    ]
    assert _modules_after_each(tmp_path, steps) == [[], [], [], ["multiprocessing"]]


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


def test_rerun_removes_the_outputs_it_does_not_write(tmp_path):
    """A rerun into the same directory leaves no series, snapshot or
    results file of the old run beside its report, and no other file goes."""
    doc = scenario_doc("heat_oracle")
    doc.update(scenario="tiny", grid={"L": 100.0, "N": 64, "bc": "periodic"},
               time={"T": 1.0, "sample_stride": 8})
    out = tmp_path / "out"
    doc["outputs"] = {"snapshots": [0.5]}
    run(parse_config(doc), out_dir=out)
    assert sorted(p.name for p in out.glob("snapshot_*.csv")) == ["snapshot_0.5.csv"]
    for name in ("series_refine_64.csv", "series_fine.csv", "results.csv", "notes.txt"):
        (out / name).write_text("old\n")
    doc["outputs"] = {"snapshots": []}
    report = run(parse_config(doc), out_dir=out)
    assert report.doc()["snapshots"] == []
    assert sorted(p.name for p in out.iterdir()) == [
        "notes.txt", "report.json", "series.csv", "timing.json"]
    assert (out / "notes.txt").read_text() == "old\n"


def test_run_over_another_scenarios_outputs_keeps_none_of_its_csvs(tmp_path):
    out = tmp_path / "out"
    heat = scenario_doc("heat_oracle")
    heat["grid"]["N"], heat["time"]["T"] = 64, 60.0
    run(parse_config(heat), out_dir=out)
    assert (out / "series_weighted.csv").exists()
    linear = scenario_doc("thm1_linear")
    linear["grid"]["N"], linear["time"]["T"] = 64, 1.0
    linear["outputs"] = {"snapshots": []}
    report = run(parse_config(linear), out_dir=out)
    assert report.doc()["series"] == "series.csv" and report.doc()["snapshots"] == []
    assert sorted(p.name for p in out.iterdir()) == ["report.json", "series.csv", "timing.json"]


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
    doc = {"scenario": "smoke_none", "system": {"kind": "none"},
           "grid": {"L": 30.0, "N": 64}, "time": {"T": 2.0}}
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


@pytest.mark.parametrize("bounds, passed", [
    ([(0.25, 0.25, 1.0)], True),  # at lo
    ([(1.0, 0.25, 1.0)], True),  # at hi
    ([(np.nextafter(0.25, -np.inf), 0.25, 1.0)], False),
    ([(np.nextafter(1.0, np.inf), 0.25, 1.0)], False),
    ([(-1e300, None, 1.0)], True),
    ([(np.nextafter(1.0, np.inf), None, 1.0)], False),
    ([(1e300, 0.25, None)], True),
    ([(np.nextafter(0.25, -np.inf), 0.25, None)], False),
    ([(-1e300, None, None)], True),
    ([(2, 2, 2)], True),  # an int equality, as rank_deficiency's rank
    ([(1, 2, 2)], False),
    ([(3, 2, 2)], False),
    ([(False, False, False)], True),  # bool equalities
    ([(True, False, False)], False),
    ([(True, True, True)], True),
    ([(False, True, True)], False),
    ([(math.nan, 0.25, 1.0)], False),
    ([(np.float64("nan"), None, 1.0)], False),
    ([(math.nan, 0.25, None)], False),
    ([(math.nan, None, None)], False),
    ([(0.5, 0.25, 1.0), (1.5, None, 1.0)], False),  # every bound must hold
    ([(0.5, 0.25, 1.0), (1.0, None, 1.0), (2, 2, 2)], True),
])
def test_run_certificates_is_the_one_verdict_rule(monkeypatch, bounds, passed):
    """A bound holds with its edges included, None is an open side, and a
    NaN holds no bound; the executor's record is reported as it is."""
    measured = {"value": "whatever the executor measured"}
    monkeypatch.setitem(runner._CHECKS, "stub", lambda claim, ctx: (measured, bounds))
    monkeypatch.setattr(runner, "scenario_claims", lambda name: [
        {"id": "stub", "anchor": "a stub claim", "check": "stub"}])
    ctx = runner.RunContext(cfg=parse_config(smoke_doc()), grid=None)
    [certificate] = runner.run_certificates(ctx)
    assert certificate == {"id": "stub", "anchor": "a stub claim",
                           "passed": passed, "measured": measured}
    assert type(certificate["passed"]) is bool


def _stub_ctx(monkeypatch):
    """A run context over t in [0, 100], with stubs for what an executor
    would otherwise run: a sub-run repeats the base run's series on its
    own N, and the energy-law residual is N**-2, so every refinement ratio
    is 4.  The margins, the weighted bound's sup, the channel cap and the
    refinement ratio sit at the edges of the passing claims below."""
    t = np.linspace(0.0, 100.0, 401)
    cfg = parse_config(scenario_doc("thm2_weighted"))  # corrector safety 1/8
    coeffs = SimpleNamespace(margins=lambda: {"e1a": 1.0 + 1e-12, "e2": 0.5},
                             coercivity_sum=0.5 + 1e-12, eta0=0.01)
    ctx = runner.RunContext(cfg=cfg, grid=Grid1D(L=30.0, N=257, bc="compact_support"),
                            coeffs=coeffs, x0=1.0)
    ctx.series = TimeSeries(t=t, meta={"N": 64}, channels={
        "p": (1.0 + t) ** -0.5, "up": 1.0 + t,
        "l2": (np.pi / 2.0) ** 0.25 * (1.0 + 4.0 * t) ** -0.25,
        "lyapunov": 1.0 / (1.0 + t), "dx_l2": np.zeros_like(t)})
    ctx.manifest = {"system": {"cap": 1.0, "low": 0.99, "kalman_rank": 1, "sk_holds": False},
                    "coefficients": {"refused": True}}

    def derived_run(ctx, patch):
        return TimeSeries(t=ctx.series.t, channels=ctx.series.channels,
                          meta={"N": patch.get("grid", {"N": 64})["N"]})

    monkeypatch.setattr(runner, "derived_run", derived_run)
    monkeypatch.setattr(runner, "check_energy_law",
                        lambda series: {"l1_residual": float(series.meta["N"]) ** -2})
    return ctx


def _past(value):
    return float(np.nextafter(value, np.inf))


_FIT = {"channels": ["p"], "window": [10.0, 100.0]}
_REFINE = {"N": [64, 128], "T": 1.0, "amp": 0.1, "width": 3.0}
_GAUSS = {"kind": "gaussian", "amp": 1.0, "width": 1.0}


@pytest.mark.parametrize("check, claim, edit, passed", [
    ("fit", {**_FIT, "band": [-0.6, -0.4]}, None, True),
    ("fit", {**_FIT, "band": [-0.45, -0.4]}, None, False),
    ("monotone", {"channel": "p", "tol_rel": 1e-8}, None, True),
    ("monotone", {"channel": "up", "tol_rel": 1e-8}, None, False),
    ("margins", {}, None, True),
    ("margins", {}, lambda ctx, mp: setattr(ctx.coeffs, "coercivity_sum", _past(0.5 + 1e-12)),
     False),
    ("margins", {}, lambda ctx, mp: setattr(ctx.coeffs, "margins", lambda: {
        "e1a": _past(1.0 + 1e-12)}), False),
    ("weighted_bound", {"channel": "p", "factor": 1.0}, None, True),
    ("weighted_bound", {"channel": "p", "factor": 0.99}, None, False),
    ("decay_inequality", {"mu": 1.0, "slack_rel": 1e-6}, None, True),
    ("decay_inequality", {"mu": 1.0, "slack_rel": 1e-6}, lambda ctx, mp: mp.setattr(
        runner, "check_decay_inequality",
        lambda *a, **k: {"conclusion_margin": _past(1.0 + 1e-12)}), False),
    ("channel_max_below", {"channel": "p", "bound_key": "cap"}, None, True),
    ("channel_max_below", {"channel": "p", "bound_key": "low"}, None, False),
    ("rank_deficiency", {"expected_rank": 1}, None, True),
    ("rank_deficiency", {"expected_rank": 2}, None, False),
    ("rank_deficiency", {"expected_rank": 1},
     lambda ctx, mp: ctx.manifest["system"].update(sk_holds=True), False),
    ("rank_deficiency", {"expected_rank": 1},
     lambda ctx, mp: ctx.manifest.update(coefficients={"refused": False}), False),
    ("bounded_product", {"channel": "p", "q": 0.0, "cap": 1.10}, None, True),
    ("bounded_product", {"channel": "up", "q": 0.0, "cap": 1.10}, None, False),
    ("psystem_refinement", {"band": [3.2, 4.0], "refine": _REFINE}, None, True),
    ("psystem_refinement", {"band": [4.1, 4.8], "refine": _REFINE}, None, False),
    ("energy_refinement", {"band": [4.0, 4.8], "refine_N": 128}, None, True),
    ("energy_refinement", {"band": [3.2, 3.9], "refine_N": 128}, None, False),
    ("heat_closed_form", {"window": [1.0, 100.0], "rel_tol": 1e-9}, None, True),
    ("heat_closed_form", {"window": [1.0, 100.0], "rel_tol": 1e-9},
     lambda ctx, mp: ctx.series.channels.update(l2=ctx.series.channels["l2"] * 1.01), False),
    ("heat_weighted_fit", {"band": [-0.4, -0.1], "window": [10.0, 100.0], "data": _GAUSS},
     None, True),
    ("heat_weighted_fit", {"band": [-0.2, -0.1], "window": [10.0, 100.0], "data": _GAUSS},
     None, False),
    ("ckn_random", {"mus": [0.75, 1.0], "trials": 2, "cap": 1.0}, None, True),
    ("ckn_random", {"mus": [0.75, 1.0], "trials": 2, "cap": 1e-6}, None, False),
    ("ckn_witness", {"L": 50.0, "N": 1025, "mu": 1.0, "floor": 0.1}, None, True),
    ("ckn_witness", {"L": 50.0, "N": 1025, "mu": 1.0, "floor": 2.0}, None, False),
])
def test_each_executor_bounds_what_its_claim_bounds(monkeypatch, check, claim, edit, passed):
    """Each executor's certificate passes on a run within its claim and
    fails on one outside it, so none drops a bound of what it measures."""
    ctx = _stub_ctx(monkeypatch)
    if edit is not None:
        edit(ctx, monkeypatch)
    claim = {"id": check, "anchor": "a synthetic claim", "check": check, **claim}
    monkeypatch.setattr(runner, "scenario_claims", lambda name: [claim])
    [certificate] = runner.run_certificates(ctx)
    assert "error" not in certificate["measured"]
    assert certificate["passed"] is passed


@pytest.mark.parametrize("scenario, check, error", [
    ("thm1_linear", "margins", "no coefficients were selected for this run"),
    ("thm2_weighted", "decay_inequality", "no coefficients were selected for this run"),
    ("thm2_weighted", "weighted_bound", "run recorded no weighted data size"),
])
def test_claim_without_the_runs_inputs_fails_with_its_error(
        monkeypatch, scenario, check, error):
    """An executor raises for what the run did not record, and
    run_certificates fails the certificate with the message."""
    claim = next(c for c in scenario_claims(scenario) if c["check"] == check)
    monkeypatch.setattr(runner, "scenario_claims", lambda name: [claim])
    ctx = runner.RunContext(cfg=parse_config(scenario_doc(scenario)), grid=None)
    assert ctx.coeffs is None and ctx.x0 is None
    [certificate] = runner.run_certificates(ctx)
    assert certificate["passed"] is False
    assert certificate["measured"] == {"error": error}


def test_cli_run_maps_an_internal_error_to_exit_3(monkeypatch, tmp_path, capsys):
    def broken(cfg, grid, ctx, weight):
        raise TypeError("a builder bug")

    monkeypatch.setitem(runner._SYSTEMS, "linear", broken)
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps(smoke_doc()))
    out = tmp_path / "never"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" in err and "internal error: TypeError: a builder bug" in err


def test_batch_survives_an_internal_error(monkeypatch, tmp_path):
    real_run = runner.run

    def run_or_break(cfg, out_dir=None):
        if cfg["scenario"] == "smoke_bad":
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


def test_write_json_writes_numpy_values_as_plain_ones(tmp_path):
    obj = {"f": np.float64(0.1), "i": np.int64(7), "b": np.bool_(True),
           "v": np.array([1.5, 1.0 / 3.0]), "m": np.arange(4).reshape(2, 2),
           "l": [np.float64(2.0 / 3.0), 2, {"z": np.float32(0.5)}],
           "t": (np.int64(-1), "x", np.bool_(False))}
    plain = {"f": 0.1, "i": 7, "b": True, "v": [1.5, 1.0 / 3.0], "m": [[0, 1], [2, 3]],
             "l": [2.0 / 3.0, 2, {"z": 0.5}], "t": [-1, "x", False]}
    runner._write_json(tmp_path / "o.json", obj)
    expected = json.dumps(plain, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "o.json").read_text() == expected


@pytest.mark.parametrize("shape", [(64,), (64, 2)])
def test_write_snapshot_csv_columns(tmp_path, shape):
    grid = Grid1D(L=30.0, N=64, bc="periodic")
    U = np.random.default_rng(1).standard_normal(shape)
    runner.write_snapshot_csv(tmp_path / "s.csv", grid, U)
    lines = (tmp_path / "s.csv").read_text().splitlines()
    k = 1 if U.ndim == 1 else shape[1]
    assert lines[0] == ",".join(["x"] + [f"U_{j}" for j in range(1, k + 1)])
    table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert table.shape == (64, k + 1)
    assert np.array_equal(table, np.column_stack((grid.x, U)))
    if U.ndim == 2:  # a field of shape (k, N) is refused, not transposed
        with pytest.raises(ValueError):
            runner.write_snapshot_csv(tmp_path / "t.csv", grid, U.T)
        assert not (tmp_path / "t.csv").exists()


def test_ckn_rows_stay_out_of_the_manifest():
    claim = next(c for c in scenario_claims("ckn_sweep") if c["check"] == "ckn_random")
    cfg = parse_config(scenario_doc("ckn_sweep"))
    ctx = runner.RunContext(cfg=cfg, grid=Grid1D(L=50.0, N=257, bc="compact_support"))
    measured, bounds = runner._check_ckn_random({**claim, "trials": 2}, ctx)
    worst = measured["worst_ratio"]
    assert bounds == [(worst[str(mu)], None, claim["cap"]) for mu in claim["mus"]]
    assert max(worst.values()) <= claim["cap"]
    assert "ckn_rows" not in ctx.manifest
    assert len(ctx.ckn_rows) == 2 * len(claim["mus"])
    assert [type(v) for v in ctx.ckn_rows[0]] == [int, int, float, float]


def test_ckn_witness_runs_in_blocks_of_memory():
    """The witness at N = 2^20 + 1 builds no grid-length array: its traced
    peak stays under 16 MB, where one 8.4 MB array of the grid would sit
    next to the blocks' temporaries."""
    claim = next(c for c in scenario_claims("ckn_sweep") if c["check"] == "ckn_witness")
    assert claim["N"] == 1048577
    tracemalloc.start()
    try:
        measured, bounds = runner._check_ckn_witness(claim, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bounds == [(measured["ratio"], claim["floor"], None)]
    assert measured["ratio"] >= claim["floor"]
    assert peak < 16e6


def test_ckn_witness_does_not_depend_on_the_blas_thread_count():
    """The quadratures sum with numpy's own reduction: OpenBLAS runs a dot
    over a 65,536-node block threaded, in an order set by the thread count."""
    src = str(Path(runner.__file__).resolve().parents[2])
    code = ("from hypodecay.experiment import runner, scenario_claims\n"
            "claim = next(c for c in scenario_claims('ckn_sweep')"
            " if c['check'] == 'ckn_witness')\n"
            "print(repr(runner._check_ckn_witness(claim, None)[0]['ratio']))")
    ratios = [
        subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)).stdout
        for threads in ("1", "2")
    ]
    assert ratios[0] == ratios[1] != ""


def test_batch_reports_an_uncreatable_output_directory(tmp_path):
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    for name in ("good", "blocked"):
        (cfg_dir / f"{name}.json").write_text(json.dumps(smoke_doc(f"smoke_{name}")))
    out_root = tmp_path / "br"
    out_root.mkdir()
    (out_root / "blocked").write_text("a regular file\n")
    agg = batch(sorted(cfg_dir.glob("*.json")), out_root, jobs=1)
    by_name = {r["name"]: r for r in agg["runs"]}
    assert by_name["blocked"]["exit_code"] == 2
    assert by_name["blocked"]["error"].startswith("config error: cannot create output directory")
    assert by_name["good"]["exit_code"] == 0
    assert agg["exit_code"] == 2
    assert json.loads((out_root / "batch_report.json").read_text()) == agg
    assert (out_root / "blocked").read_text() == "a regular file\n"


def test_batch_runs_each_job_in_its_own_worker_at_one_job(monkeypatch, tmp_path):
    def report_pid(cfg, out_dir=None):
        raise ConfigError(f"pid {os.getpid()}")

    monkeypatch.setattr(runner, "run", report_pid)  # forked workers inherit it
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    for name in ("a", "b", "c"):
        (cfg_dir / f"{name}.json").write_text(json.dumps(smoke_doc(f"smoke_{name}")))
    agg = batch(sorted(cfg_dir.glob("*.json")), tmp_path / "br", jobs=1)
    pids = {r["error"] for r in agg["runs"]}
    assert len(pids) == 3
    assert all(p.startswith("config error: pid ") for p in pids)
    assert f"config error: pid {os.getpid()}" not in pids


def test_batch_rejects_configs_that_share_a_stem(tmp_path):
    paths = []
    for sub, name in (("a", "smoke_a"), ("b", "smoke_b")):
        (tmp_path / sub).mkdir()
        paths.append(tmp_path / sub / "x.json")
        paths[-1].write_text(json.dumps(smoke_doc(name)))
    out_root = tmp_path / "br"
    with pytest.raises(ConfigError, match="'x'") as err:
        batch(paths, out_root, jobs=1)
    assert str(paths[0]) in str(err.value) and str(paths[1]) in str(err.value)
    assert not out_root.exists()


@pytest.fixture
def in_process_pool(monkeypatch):
    """A pool that runs each job in this process as it is handed out; the
    returned record has the pools' sizes and tasks per worker, the job
    stems in hand-out order and the chunk sizes asked for."""
    seen = SimpleNamespace(processes=[], maxtasks=[], jobs=[], chunksizes=[])

    class InProcessPool:
        def __init__(self, processes, maxtasksperchild=None):
            seen.processes.append(processes)
            seen.maxtasks.append(maxtasksperchild)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, jobs, chunksize):
            seen.chunksizes.append(chunksize)
            for job in jobs:
                seen.jobs.append(Path(job[0]).stem)
                yield fn(job)

    monkeypatch.setattr(runner, "get_context",
                        lambda method: SimpleNamespace(Pool=InProcessPool))
    return seen


def test_batch_starts_no_more_workers_than_configs(in_process_pool, tmp_path):
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    for name in ("a", "b"):
        (cfg_dir / f"{name}.json").write_text(json.dumps(smoke_doc(f"smoke_{name}")))
    agg = batch(sorted(cfg_dir.glob("*.json")), tmp_path / "br", jobs=8)
    assert in_process_pool.processes == [2]
    assert in_process_pool.maxtasks == [1]  # each job in a fresh worker
    assert agg["exit_code"] == 0


def test_batch_hands_out_the_costliest_job_first(in_process_pool, tmp_path):
    """Jobs go out one at a time by N^2 T / L, largest first, ties by name,
    a config that does not parse last; the report stays sorted by name."""
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    # N^2 T / L at L = 30: 273, 4369, 1092, 1092, and N = 8 fails the schema
    for name, N, T in (("a_small", 64, 2.0), ("b_wide", 256, 2.0), ("c_long", 64, 8.0),
                       ("d_tie", 64, 8.0), ("e_bad", 8, 2.0)):
        doc = smoke_doc(f"smoke_{name}")
        doc["grid"]["N"] = N
        doc["time"]["T"] = T
        doc["outputs"]["snapshots"] = []
        (cfg_dir / f"{name}.json").write_text(json.dumps(doc))
    agg = batch(sorted(cfg_dir.glob("*.json"), reverse=True), tmp_path / "br", jobs=2)
    assert in_process_pool.jobs == ["b_wide", "c_long", "d_tie", "a_small", "e_bad"]
    assert in_process_pool.chunksizes == [1]
    names = ["a_small", "b_wide", "c_long", "d_tie", "e_bad"]
    assert [r["name"] for r in agg["runs"]] == names
    assert [r["exit_code"] for r in agg["runs"]] == [0, 0, 0, 0, 2]
    timing = json.loads((tmp_path / "br" / "batch_timing.json").read_text())
    assert list(timing["runs"]) == names


def test_batch_timing_records_each_job(tmp_path):
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    (cfg_dir / "good.json").write_text(json.dumps(smoke_doc("smoke_good")))
    bad = smoke_doc("smoke_bad")
    bad["grid"]["N"] = 8
    (cfg_dir / "bad.json").write_text(json.dumps(bad))
    out_root = tmp_path / "br"
    agg = batch(sorted(cfg_dir.glob("*.json")), out_root, jobs=1)
    timing = json.loads((out_root / "batch_timing.json").read_text())
    assert set(timing) == {"wall_s", "runs"}
    assert set(timing["runs"]) == {"bad", "good"}
    jobs = timing["runs"].values()
    assert all(set(t) == {"wall_s", "rss_peak_mb"} for t in jobs)
    assert all(t["wall_s"] > 0.0 and t["rss_peak_mb"] > 0.0 for t in jobs)
    assert sum(t["wall_s"] for t in jobs) <= timing["wall_s"]
    # read after the job's run wrote its own timing.json, from the same process
    good = json.loads((out_root / "good" / "timing.json").read_text())
    assert timing["runs"]["good"]["rss_peak_mb"] >= good["rss_peak_mb"]
    report = (out_root / "batch_report.json").read_text() + json.dumps(agg)
    assert "wall_s" not in report and "rss_peak_mb" not in report


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

    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(UNDECODABLE)
    assert main(["run", "--config", str(undecodable), "--out", str(out)]) == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err

    assert main(["run", "--scenario", "no_such", "--out", str(out)]) == 2
    assert main(["run", "--scenario", "thm1_linear", "--set", "oops"]) == 2
    with pytest.raises(SystemExit):
        main(["run"])  # --config/--scenario required


@pytest.mark.parametrize("setting", ["time.T=1e12"] + [
    f"system.A=[[0,{a}],[{a},0]]" for a in ("1e100", "1e155", "1e300")])
def test_cli_refuses_a_run_too_costly_before_its_first_step(tmp_path, capsys, setting):
    """`march.step_size` bounds steps x N at MAX_POINT_STEPS before any solver
    builds its step: a long T, or a wave speed of 1e100 or more, exits 2 at
    once, names the predicted count and writes nothing.  The eigenvalue and
    norm routines scale the matrix by a power of two first, so no entry
    squares past the double range and nothing warns of an overflow."""
    out = tmp_path / "never"
    started = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", "--scenario", "thm1_linear", "--set", "grid.N=64",
                     "--set", setting, "--out", str(out)])
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert not out.exists()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught
    err = capsys.readouterr().err
    assert "config error" in err and "steps x N = 64" in err and "point-steps" in err, err


@pytest.mark.parametrize("setting, path", [
    ("time.nu=0.01", "time.nu"),
    ("outputs.dir=from_config", "outputs.dir"),
    ("grid.N=1048577", "grid.N"),
    ("grid.N=134217728", "grid.N"),
    ("time.T.x.y=1", "time.T"),
])
def test_cli_refuses_keys_no_run_reads_and_grids_past_the_bound(tmp_path, capsys, setting,
                                                                path):
    """The linear scheme has no floor strength, no config names its output
    directory, a grid of more than 2^20 nodes is refused before its nodes
    and fields are built, and an override cannot walk into a number: each
    exits 2 at its path, at once, and writes nothing."""
    out = tmp_path / "never"
    started = time.perf_counter()
    code = main(["run", "--scenario", "thm1_linear", "--set", setting, "--out", str(out)])
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert not out.exists()
    assert f"invalid config at {path}:" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400],
                         ids=["NaN", "Infinity", "-Infinity", "1e999", "int_1e400"])
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, token):
    """A number no double can hold exits 2 and writes nothing, whether it
    comes from the config file or from --set."""
    doc = smoke_doc()
    good = tmp_path / "good.json"
    good.write_text(json.dumps(doc))
    doc["time"]["T"] = "@"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"@"', token))
    out = tmp_path / "never"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 2
    assert not out.exists()
    assert "non-finite number" in capsys.readouterr().err
    code = main(["run", "--config", str(good), "--set", f"time.T={token}",
                 "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "time.T" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["system.n1=1.0", "grid.N=64.0", "time.sample_stride=2.0",
                                     "data.0.component=0.0", "data.0.count=2.0", "seed=1.0"])
def test_cli_rejects_integral_floats_at_integer_keys(tmp_path, capsys, setting):
    """An integer key takes a JSON integer: 2.0 is refused before anything
    runs, not carried into a crash or into the manifest as a float."""
    doc = smoke_doc()
    doc["data"] = [{"kind": "bumps", "component": 0, "count": 1}]
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "never"
    assert main(["run", "--config", str(path), "--set", setting, "--out", str(out)]) == 2
    assert not out.exists()
    assert f"invalid config at {setting.partition('=')[0]}: expected an integer" in (
        capsys.readouterr().err)


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


# An order-8 system whose families cap base_eps at 10^-42.8, where
# eps_7 = base_eps^7.4 is far below the smallest normal double.
UNDERFLOWING_SYSTEM = json.dumps({
    "kind": "linear", "n1": 5,
    "A": [[0.9, -0.1, 0.7, -0.3, -0.1, -1.1, -0.4, -0.1],
          [-0.1, 0.4, -1.3, -0.7, -0.4, 0.9, -0.2, 0.6],
          [0.7, -1.3, 0.1, 1.3, 0.6, -0.8, 0.4, -0.6],
          [-0.3, -0.7, 1.3, 1.5, 1.2, 0.8, 0.3, 0.8],
          [-0.1, -0.4, 0.6, 1.2, -1.7, 0.4, -0.8, 0.9],
          [-1.1, 0.9, -0.8, 0.8, 0.4, -1.6, 0.0, 0.0],
          [-0.4, -0.2, 0.4, 0.3, -0.8, 0.0, -1.4, -0.7],
          [-0.1, 0.6, -0.6, 0.8, 0.9, 0.0, -0.7, -1.6]],
    "D": [[1.0, -0.9, -0.3], [-0.9, 1.1, 0.2], [-0.3, 0.2, 0.3]],
})


@pytest.mark.parametrize("scenario, key, value", [
    # a corrector whose strengths underflow
    pytest.param("thm1_linear", "system", UNDERFLOWING_SYSTEM,
                 id="thm1_linear-system-underflowing-corrector"),
    # a wave weight of the family the system does not take
    ("thm3_wave", "weights.0.kind", "log"),
    ("thm5_euler_weighted", "weights.1.kind", "log"),
    ("thm6_psystem_log", "weights.0.kind", "power"),
    # parameters outside the range the system's construction accepts
    ("thm2_weighted", "weights.0.mu", "-1"),
    ("thm6_psystem_log", "system.r", "3.5"),
    ("thm3_wave", "weights.0.mu", "0.2"),
    # a key the system kind does not read
    ("thm2_weighted", "time.dt", "0.5"),
    ("thm4_euler", "system.A", "[[1]]"),
    ("thm4_euler", "corrector", '{"delta":0.1}'),
    ("heat_oracle", "time.nu", "0.5"),
    ("heat_oracle", "time.cfl", "0.4"),
    ("thm6_psystem_log", "system.gamma", "2"),
    ("ckn_sweep", "outputs.snapshots", "[0.5]"),
    ("ckn_sweep", "data", '[{"kind":"gaussian","component":0}]'),
    # a key the system kind requires
    ("convergence_order", "system", '{"kind":"linear"}'),
    # "log" is the one spelling of the log weight
    ("thm2_weighted", "weights.0.kind", "logarithmic"),
    # a weight field its role and kind do not read
    ("thm2_weighted", "weights.0.r", "2.0"),
    ("thm2_weighted", "weights.0.mass_tol", "1e-8"),
    ("heat_oracle", "weights.0.q", "1.0"),
    ("thm2_weighted", "weights", '[{"role":"spatial","kind":"log","q":1.0,"mu":1.0}]'),
    # a spatial weight whose mu the linear and Euler builds would read as 0
    ("thm2_weighted", "weights", '[{"role":"spatial","kind":"log","q":1.0}]'),
    ("thm3_wave", "weights.0.q", "1.0"),
    ("thm5_euler_weighted", "weights.1.r", "2.0"),
    ("thm6_psystem_log", "weights.0.mu", "1.0"),
    # a method constant, which no config sets
    ("thm1_linear", "time.cfl", "0.4"),
    ("thm1_linear", "corrector.delta", "0.1"),
    ("thm6_psystem_log", "system.eta2", "0.5"),
    ("thm6_psystem_log", "system.eta3", "0.25"),
    ("thm6_psystem_log", "weights.0.r", "2.0"),
    ("thm3_wave", "weights.0.a", "4.0"),
    ("thm3_wave", "weights.0.mass_tol", "1e-8"),
    # a data field its kind does not read
    ("thm1_linear", "data.0.count", "1"),
    ("thm1_linear", "data.0", '{"kind":"bumps","component":0,"center":1.0}'),
    ("thm1_linear", "data.1", '{"kind":"zero","component":1,"amp":1.0}'),
])
def test_cli_rejects_misconfigured_system(tmp_path, capsys, scenario, key, value):
    out = tmp_path / "never"
    code = main([
        "run", "--scenario", scenario,
        # thm1's snapshot times lie past T = 5: only the case's key may exit 2
        "--set", "outputs.snapshots=[]",
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
    ("thm6_psystem_log", "data.0.kind=gaussian"),
    # a weight role the system does not consume
    ("thm6_psystem_log", 'weights=[{"role":"spatial","kind":"power","mu":1.0}]'),
    ("heat_oracle", 'weights=[{"role":"wave","kind":"power"}]'),
    ("ckn_sweep", 'weights=[{"role":"wave","kind":"power"}]'),
    # a weight role given twice
    ("heat_oracle", 'weights=[{"role":"spatial","kind":"power","mu":1.0},'
                    '{"role":"spatial","kind":"power","mu":0.5}]'),
    ("thm5_euler_weighted", 'weights=[{"role":"spatial","kind":"power","mu":1.0},'
                            '{"role":"wave","kind":"power","mu":1.0},'
                            '{"role":"wave","kind":"power","mu":0.5}]'),
    # initial data a guard refuses: Euler's vacuum check, and the smallness
    # cap tripped by the t = 0 sample
    ("thm4_euler", "data.0.amp=-5"),
    ("thm4_euler", "data.0.amp=5"),
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


def test_cli_run_rejects_an_uncreatable_output_directory(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main([
        "run", "--scenario", "heat_oracle",
        "--set", "scenario=tiny",
        "--set", "grid.N=64",
        "--set", "time.T=1",
        "--set", "weights=[]",
        "--out", str(blocker / "sub"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "cannot create output directory" in err
    assert blocker.is_file()


@pytest.mark.parametrize("scenario, settings_", [
    # exp(-D dt/2) underflows to 0, so the damped rows of H P are 0
    ("thm3_wave", ["system.D=[[1e6]]", "time.T=1"]),
    # a wave speed of 1e155, stepped at dt near 1e-157
    ("thm1_linear", ["grid.N=64", "system.A=[[0,1e155],[1e155,0]]", "time.T=1e-150",
                     "outputs.snapshots=[]"]),
    # A asymmetric by 5e-13 of its largest entry, within validation's SYM_TOL
    ("thm1_linear", ["grid.N=64", "system.A=[[0,1],[1.0000000000005,0]]", "time.T=2",
                     "outputs.snapshots=[]"]),
    # a corrector at base_eps = 10^-42.4, whose eps_3 = 10^-110.2 is a normal double
    ("thm1_linear", ["grid.N=64", "system.A=[[0,8,0,0],[8,0,8,0],[0,8,0,8],[0,0,8,0]]",
                     "system.D=[[1,0,0],[0,1,0],[0,0,1]]", "time.T=0.5",
                     "outputs.snapshots=[]"]),
], ids=["D-1e6", "A-1e155", "A-asymmetric", "base-1e-42"])
def test_cli_steps_extreme_linear_systems_and_fails_only_their_claims(tmp_path, capsys,
                                                                      scenario, settings_):
    """The compiled step builds and runs at each extreme: the run exits 4
    with its outputs written, nothing warns of an overflow or a division
    by zero, and no build check of the step trips."""
    out = tmp_path / "o"
    args = ["run", "--scenario", scenario, "--out", str(out)]
    for setting in settings_:
        args += ["--set", setting]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(args)
    assert code == 4
    assert (out / "report.json").exists() and (out / "series.csv").exists()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught
    err = capsys.readouterr().err
    assert "numerical failure" not in err and "internal error" not in err, err


LINEAR_SCENARIOS = [name for name in EXPECTED_SCENARIOS
                    if scenario_doc(name)["system"]["kind"] == "linear"]


DATA_VALUES = {"amp": st.floats(-3.0, 3.0), "width": st.floats(0.2, 8.0),
               "center": st.floats(-10.0, 10.0), "count": st.integers(1, 4)}


@st.composite
def small_linear_docs(draw):
    """A linear document of order n = 2..8 on N <= 128 nodes up to T <= 1,
    with random A, symmetric but for one entry below the diagonal off by up
    to 5e-13 of itself (validation allows 1e-12 of the largest), symmetric
    positive definite D and data drawn from the kind table."""
    n = draw(st.integers(2, 8))
    n1 = draw(st.integers(1, n - 1))
    entry = st.floats(-4.0, 4.0, allow_subnormal=False)
    upper = [[draw(entry) for _ in range(n - i)] for i in range(n)]
    A = [[upper[min(i, j)][abs(i - j)] for j in range(n)] for i in range(n)]
    i = draw(st.integers(1, n - 1))
    A[i][i - 1] *= 1.0 + draw(st.floats(-5e-13, 5e-13))
    R = np.array([[draw(entry) for _ in range(n - n1)] for _ in range(n - n1)])
    D = (R @ R.T + draw(st.floats(0.05, 40.0)) * np.eye(n - n1)).tolist()
    data = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(sorted(config.DATA_FIELDS)))
        data.append({"kind": kind, "component": draw(st.integers(0, n - 1)),
                     **{f: draw(DATA_VALUES[f]) for f in config.DATA_FIELDS[kind]}})
    T = draw(st.floats(1e-3, 1.0))
    return {
        "scenario": draw(st.sampled_from(["fuzz_linear"] + LINEAR_SCENARIOS)),
        "system": {"kind": "linear", "A": A, "D": D, "n1": n1},
        "grid": {"L": draw(st.floats(4.0, 60.0)), "N": draw(st.integers(16, 128)),
                 "bc": draw(st.sampled_from(["periodic", "compact_support"]))},
        "time": {"T": T, "sample_stride": draw(st.integers(1, 4))},
        "data": data,
        "corrector": draw(st.sampled_from([None, {"safety": 0.5}, {"safety": 0.125}])),
        "outputs": {"snapshots": [0.0, T]},
        "seed": draw(st.integers(0, 2**31)),
    }


@settings(max_examples=150, deadline=None)
@given(doc=small_linear_docs())
def test_cli_runs_small_linear_documents_to_a_documented_exit(doc):
    """Every small linear document exits 0, 2, 3 or 4; an exit of 3 is a
    numerical failure, never an internal error such as a tripped build
    check of the compiled step; and exits 2 and 3 leave nothing on disk."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "doc.json", Path(tmp) / "o"
        path.write_text(json.dumps(doc))
        err = StringIO()
        with redirect_stderr(err):
            code = main(["run", "--config", str(path), "--out", str(out)])
        err = err.getvalue()
        assert code in (0, 2, 3, 4), err
        assert "internal error" not in err, err
        if code == 3:
            assert "numerical failure: " in err, err
        if code in (2, 3):
            assert not out.exists(), err


def _compact_smoke_run(tmp_path, L):
    doc = smoke_doc()
    doc["grid"]["bc"] = "compact_support"
    doc["grid"]["L"] = L
    doc["time"]["T"] = 15.0
    path = tmp_path / "escape.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "never"
    code = main(["run", "--config", str(path), "--out", str(out)])
    assert not out.exists()
    return code


def test_cli_run_numerical_failure(tmp_path, capsys):
    # the pulse starts inside the box and escapes while stepping -> numerical failure
    assert _compact_smoke_run(tmp_path, 20.0) == 3
    err = capsys.readouterr().err
    assert "numerical failure: DomainEscape" in err and "at t=0 " not in err


def test_cli_rejects_data_that_reach_the_boundary_at_t0(tmp_path, capsys):
    # the width-3 pulse already exceeds the escape budget at |x| = 10
    assert _compact_smoke_run(tmp_path, 10.0) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "at t=0 " in err


@pytest.mark.parametrize("scenario, settings, cert_id, error", [
    # sampled too coarsely for the energy law's central differences
    ("convergence_order", ["time.sample_stride=20", "grid.L=50", "grid.N=256"],
     "convergence_order:residual_ratio", "sample gap"),
    # a safety at which eta0 exceeds the comparison lemma's a2
    ("thm2_weighted", ["corrector.safety=0.9", "grid.L=50", "grid.N=512"],
     "thm2_weighted:decay_inequality", "need 0 < eta0 < min(a2/mu, a2)"),
    # the closed form's window [1, 200] holds no sample
    ("heat_oracle", ["time.T=0.5"], "heat_oracle:closed_form", "holds no sample"),
    # two samples: no central difference for the comparison lemma
    ("thm2_weighted", ["time.T=0.05", "grid.N=256"],
     "thm2_weighted:decay_inequality", "needs 3 samples, got 2"),
    # two samples: no central difference for the energy law
    ("convergence_order", ["time.T=0.05", "grid.N=256"],
     "convergence_order:residual_ratio", "the energy law needs 3 samples, got 2"),
    # zero data: the fine run's residual is 0, and no ratio exists
    ("convergence_order", ["time.T=20", "grid.N=256", "data.0.amp=0", "data.1.amp=0"],
     "convergence_order:residual_ratio", "the fine energy-law residual is 0"),
    # data so small that E1^2 underflows: no absorption rate is a double
    ("thm2_weighted", ["grid.N=256", "data.0.amp=1e-100"],
     "thm2_weighted:decay_inequality", "E1^(1 + 1/mu) underflows"),
])
def test_cli_claim_that_cannot_be_evaluated_fails_its_certificate(
        tmp_path, capsys, scenario, settings, cert_id, error):
    """The run itself succeeded, so it exits 4 with its outputs written."""
    out = tmp_path / "o"
    args = ["run", "--scenario", scenario, "--set", "time.T=10", "--out", str(out)]
    for setting in settings:
        args += ["--set", setting]
    assert main(args) == 4
    report = json.loads((out / "report.json").read_text())
    certificate = next(c for c in report["certificates"] if c["id"] == cert_id)
    assert certificate["passed"] is False
    assert error in certificate["measured"]["error"]
    assert (out / "series.csv").exists()
    assert "numerical failure" not in capsys.readouterr().err


@pytest.mark.parametrize("scenario, family, params", [
    ("thm3_wave", "power", {"mu": 1.0, "kappa1": 1.0}),
    ("thm5_euler_weighted", "power", {"mu": 1.0, "kappa1": 2.0}),
    ("thm6_psystem_log", "log", {"q": 1.0, "r": 2.0}),
])
def test_wave_manifest_records_only_what_its_family_reads(scenario, family, params):
    """The offset is default_offset's on [0, T + L], and a log weight's r
    is the system's."""
    doc = scenario_doc(scenario)
    doc["grid"]["N"] = 256
    doc["time"]["T"] = 1.0
    cfg = parse_config(doc)
    ctx = runner.RunContext(cfg=cfg, grid=runner.build_grid(cfg))
    runner._simulate(cfg, ctx.grid, ctx)
    a = default_offset(family, 1.0 + doc["grid"]["L"], **params)
    assert ctx.manifest["wave"] == {"kind": family, "a": a, **params}


def test_cli_batch_isolates_failures(tmp_path, capsys):
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    (cfg_dir / "good.json").write_text(json.dumps(smoke_doc("smoke_a")))
    bad = smoke_doc("smoke_b")
    bad["grid"]["N"] = 8
    (cfg_dir / "bad.json").write_text(json.dumps(bad))
    (cfg_dir / "undecodable.json").write_bytes(UNDECODABLE)
    code = main(["batch", "--dir", str(cfg_dir), "--out", str(tmp_path / "br")])
    assert code == 2
    agg = json.loads((tmp_path / "br" / "batch_report.json").read_text())
    by_name = {r["name"]: r for r in agg["runs"]}
    assert by_name["good"]["exit_code"] == 0
    assert by_name["bad"]["exit_code"] == 2
    assert by_name["undecodable"]["exit_code"] == 2
    assert (tmp_path / "br" / "good" / "report.json").exists()
    assert main(["batch", "--dir", str(tmp_path / "empty")]) == 2


def test_cli_batch_rejects_an_uncreatable_output_root(tmp_path, capsys):
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    (cfg_dir / "good.json").write_text(json.dumps(smoke_doc("smoke_good")))
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["batch", "--dir", str(cfg_dir), "--out", str(blocker / "x")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "cannot create output directory" in err
    assert blocker.read_text() == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfgs", "file"]


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


def test_decay_inequality_reads_the_claims_slack_rel():
    claim = next(c for c in scenario_claims("thm2_weighted")
                 if c["check"] == "decay_inequality")
    doc = scenario_doc("thm2_weighted")
    doc["grid"].update(L=50.0, N=512)
    doc["time"]["T"] = 10.0
    cfg = parse_config(doc)
    ctx = runner.RunContext(cfg=cfg, grid=runner.build_grid(cfg))
    ctx.series, _ = runner._simulate(cfg, ctx.grid, ctx)
    rel = claim["slack_rel"]
    tol = [runner._check_decay_inequality({**claim, "slack_rel": r}, ctx)[0]["slack_tol"]
           for r in (rel, 1e3 * rel)]
    assert tol[1] == pytest.approx(1e3 * tol[0], rel=1e-12)


def _run_registry_module():
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_registry.py"
    spec = importlib.util.spec_from_file_location("run_registry", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_registry_batches_only_the_configs_it_writes(monkeypatch, tmp_path):
    module = _run_registry_module()
    stale = tmp_path / "configs" / "stale.json"
    stale.parent.mkdir()
    stale.write_text(json.dumps(smoke_doc("stale")))
    batched = []

    def fake_batch(paths, out_root, jobs=1):
        batched.extend(Path(p) for p in paths)
        (Path(out_root) / "batch_timing.json").write_text('{"wall_s": 0.5, "runs": {}}')
        return {"runs": [], "exit_code": 0}

    monkeypatch.setattr(module, "batch", fake_batch)
    monkeypatch.setattr(sys, "argv", ["run_registry.py", "--out", str(tmp_path),
                                      "thm1_linear", "heat_oracle"])
    assert module.main() == 0
    assert batched == [tmp_path / "configs" / "heat_oracle.json",
                       tmp_path / "configs" / "thm1_linear.json"]


def test_run_registry_prints_each_wall_time_and_the_batch_s(monkeypatch, tmp_path, capsys):
    module = _run_registry_module()

    def fake_batch(paths, out_root, jobs=1):
        (Path(out_root) / "batch_timing.json").write_text(json.dumps(
            {"wall_s": 12.5,
             "runs": {"heat_oracle": {"wall_s": 1.25, "rss_peak_mb": 36.94},
                      "thm1_linear": {"wall_s": 11.75, "rss_peak_mb": 40.25}}}))
        return {"runs": [{"name": "heat_oracle", "exit_code": 0},
                         {"name": "thm1_linear", "exit_code": 4}], "exit_code": 4}

    monkeypatch.setattr(module, "batch", fake_batch)
    monkeypatch.setattr(sys, "argv", ["run_registry.py", "--out", str(tmp_path), "--jobs", "2",
                                      "thm1_linear", "heat_oracle"])
    assert module.main() == 4
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["[0] heat_oracle: ok (1.2 s, 36.9 MB)",
                         "[4] thm1_linear: certificate failure (11.8 s, 40.2 MB)",
                         "batch wall time: 12.5 s at --jobs 2, "
                         "largest peak RSS 40.2 MB (thm1_linear)"]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap thresholds")
def test_run_keeps_freed_step_memory_resident():
    """A direct solver call gets march's heap setting: stepping does not
    fault pages back in.

    Under glibc's default thresholds these 256 p-system steps take about
    20,000 minor page faults, from the heap top being trimmed and regrown.
    """
    src = str(Path(runner.__file__).resolve().parents[2])
    code = (
        "import resource\n"
        "import numpy as np\n"
        "from hypodecay.grids import Grid1D\n"
        "from hypodecay.solvers import PSystemSpec, simulate_psystem\n"
        "grid = Grid1D(L=400.0, N=8192)\n"
        "rho0 = -0.025 * grid.x * np.exp(-(grid.x / 10.0) ** 2)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "series, _ = simulate_psystem(PSystemSpec(r=2.0), grid, rho0, 0.0 * rho0,\n"
        "                             T=10.0, nu=0.01, sample_stride=25)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "print(series.meta['n_steps'], after - before)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=120)
    n_steps, faults = map(int, out.stdout.split())
    assert n_steps == 256
    assert faults < 2000
