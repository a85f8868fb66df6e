"""Run configuration: what a config may hold, parsing, and initial-data builders.

A config document is plain JSON.  `parse_config` checks it against
`KEYS`, the type and range of each key, and the tables of what each
system kind, weight and data entry reads, before touching any numerics
(malformed input must fail fast, before files or arrays exist), and
returns the normalized document: a fresh dict with every default filled
in and each section's keys in table order.  Normalizing is idempotent:
`parse_config(parse_config(doc)) == parse_config(doc)`.
"""

import copy
import json
import operator
import random
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np

from .scenarios import scenario_doc, scenario_names


# What each system kind reads, which is all parse_config accepts for it:
# its `system` and `time` keys with their defaults (`...`: required), its
# corrector block's defaults (None: it takes no block), the weight kinds
# it takes in each role, and whether it integrates fields (else it takes
# no data or snapshots).  A wave weight is of the system's own family.
SystemKind = namedtuple("SystemKind", "system time corrector roles fields",
                        defaults=(None, {}, True))
# Only the Euler and p-system schemes have a fourth-difference floor (nu).
_TIMED = {"T": ..., "sample_stride": 1}
_FLOORED = {**_TIMED, "nu": 0.0}
# `_build_linear` and `_build_euler` read a spatial weight's mu (the weighted
# coefficients and the |x|^mu data size), which only a power weight has.
_POWER = {"spatial": ("power",), "wave": ("power",)}
SYSTEM_KINDS = {
    "linear": SystemKind({"A": ..., "D": ..., "n1": ...}, _TIMED, corrector={"safety": 0.5},
                         roles=_POWER),
    "euler": SystemKind({"gamma": 2.0, "rho_bar": 1.0, "lam": 1.0, "smallness_cap": 0.5},
                        _FLOORED, roles=_POWER),
    "psystem": SystemKind({"r": 2.0}, _FLOORED, roles={"wave": ("log",)}),
    "heat": SystemKind({}, _TIMED, roles={"spatial": ("power", "log")}),
    "none": SystemKind({}, {"T": ...}, fields=False),
}

# The fields each weight reads besides its `role` and `kind`, by (role,
# kind), and each data entry besides its `kind` and `component`, by kind,
# with their defaults; parse_config refuses any other field.
WEIGHT_FIELDS = {
    ("spatial", "power"): {"mu": 1.0},
    ("spatial", "log"): {"q": 1.0},
    ("wave", "power"): {"mu": 1.0},
    ("wave", "log"): {"q": 1.0},
}
DATA_FIELDS = {
    "gaussian": {"amp": 1.0, "width": 1.0, "center": 0.0},
    "dgaussian": {"amp": 1.0, "width": 1.0, "center": 0.0},
    "bumps": {"amp": 1.0, "width": 1.0, "count": 1},
    "zero": {},
}

# What every config reads at its top level and in its grid and outputs
# (None: optional, with no default).
_TOP = {"scenario": ..., "system": {"kind": "none"}, "grid": ..., "time": ...,
        "data": [], "weights": [], "corrector": None, "outputs": {}, "seed": 0}
_GRID = {"L": ..., "N": ..., "bc": "periodic"}
_OUTPUTS = {"snapshots": None}

# The type and bounds of every key a config may hold but the sections and
# the `kind` and `role` that name a row of a table above.  A float is any
# JSON number, an int a JSON integer, neither a bool and both finite; a
# str is never empty; a tuple lists the values the key may take; a list
# holds floats, and a matrix is a non-empty list of non-empty lists of
# floats.  Each bound is an (operator, value) pair.
KEYS = {
    "scenario": (str,),
    "seed": (int, (">=", 0)),
    "A": ("matrix",),
    "D": ("matrix",),
    "n1": (int, (">=", 1)),
    "gamma": (float, (">", 1)),
    "rho_bar": (float, (">", 0)),
    "lam": (float, (">", 0)),
    "smallness_cap": (float, (">", 0)),
    "r": (float,),
    # 2500 times the registry's largest domain: past some 1e154, dx**2 and
    # x**2 overflow, and at 1e308 dx itself, before any guard can refuse the run
    "L": (float, (">", 0), ("<=", 1e6)),
    # 128 times the registry's largest grid, bounded before any field is built
    "N": (int, (">=", 16), ("<=", 2**20)),
    "bc": (("periodic", "compact_support"),),
    "T": (float, (">", 0)),
    "sample_stride": (int, (">=", 1)),
    "nu": (float, (">=", 0)),
    "component": (int, (">=", 0)),
    "amp": (float,),
    "width": (float, (">", 0)),
    "center": (float,),
    "count": (int, (">=", 1)),
    "mu": (float,),
    "q": (float,),
    "safety": (float, (">", 0), ("<", 1)),
    "snapshots": (list,),
}
_OPERATORS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}
_EXPECTED = {int: "an integer", float: "a number", str: "a non-empty string"}


class ConfigError(ValueError):
    """Configuration document rejected before execution."""


def _section(at, given, reads, reader):
    """`given`, an object at path `at`, over the defaults in `reads`, in
    the order of `reads`.

    `reads` names every key `given` may hold (`...`: required, None: no
    default), and each value with a KEYS entry must be of its type and
    within its bounds; anything else is a ConfigError naming its path.
    """
    def refuse(key, why):
        path = ".".join(part for part in (at, str(key)) if part) or "<root>"
        raise ConfigError(f"invalid config at {path}: {why}")

    if not isinstance(given, dict):
        refuse("", f"expected an object, got {type(given).__name__}")
    for key, default in reads.items():
        if default is ... and key not in given:
            refuse(key, f"{reader} requires it")
    for key, value in given.items():
        if key not in reads:
            refuse(key, f"{reader} does not read it")
        if key not in KEYS:
            continue
        kind, *bounds = KEYS[key]
        leaves = [(key, value)]
        if kind in (list, "matrix"):  # each list, a matrix's rows too, then each number
            empty_ok = kind is list
            for _ in range(1 if empty_ok else 2):
                for path, v in leaves:
                    if not isinstance(v, list) or not (v or empty_ok):
                        refuse(path, f"expected a {'' if empty_ok else 'non-empty '}list, "
                                     f"got {v!r}")
                leaves = [(f"{path}.{i}", x) for path, v in leaves for i, x in enumerate(v)]
            kind = float
        for path, v in leaves:
            if isinstance(kind, tuple):
                valid = isinstance(v, str) and v in kind
            elif kind is str:
                valid = isinstance(v, str) and v != ""
            else:
                valid = isinstance(v, int if kind is int else (int, float)) and type(v) is not bool
            if not valid:
                refuse(path, f"expected {_EXPECTED.get(kind) or f'one of {list(kind)}'}, got {v!r}")
            if kind in (int, float) and not abs(v) <= sys.float_info.max:  # NaN too
                refuse(path, "a non-finite number is not allowed")
            for op, bound in bounds:
                if not _OPERATORS[op](v, bound):
                    refuse(path, f"{v!r} is not {op} {bound}")
    return {k: given.get(k, default) for k, default in reads.items()
            if k in given or default is not ... and default is not None}


def _lookup(at, entry, key, names):
    """`entry[key]`, which must be one of `names`; `entry`, at path `at`, must be an object."""
    if not isinstance(entry, dict):
        raise ConfigError(f"invalid config at {at}: expected an object, "
                          f"got {type(entry).__name__}")
    name = entry.get(key)
    if not isinstance(name, str) or name not in names:
        got = f"got {name!r}" if key in entry else "it is required"
        raise ConfigError(f"invalid config at {at}.{key}: expected one of {sorted(names)}, {got}")
    return name


def parse_config(doc):
    """Check a JSON document against KEYS and the tables of what each part
    reads; returns the normalized document, which shares no object with
    `doc`."""
    doc = _section("", doc, _TOP, "a config")
    kind = _lookup("system", doc["system"], "kind", SYSTEM_KINDS)
    reads = SYSTEM_KINDS[kind]
    system = _section("system", doc["system"], {"kind": ..., **reads.system}, f"a {kind!r} system")
    time = _section("time", doc["time"], reads.time, f"a {kind!r} system")
    outputs = _section("outputs", doc["outputs"], _OUTPUTS, "outputs")
    snapshots = outputs.get("snapshots", [])
    for ts in snapshots:
        if not 0 <= ts <= time["T"]:
            raise ConfigError(f"invalid config at outputs.snapshots: time {ts} lies "
                              f"outside [0, T={time['T']}]")
    if doc["scenario"] in scenario_names():
        registered = scenario_doc(doc["scenario"])["system"]["kind"]
        if kind != registered:
            raise ConfigError(
                f"invalid config at system.kind: scenario {doc['scenario']!r} "
                f"runs a {registered!r} system, got {kind!r}"
            )
    corrector = doc.get("corrector")
    if corrector is not None:
        if reads.corrector is None:
            raise ConfigError(f"invalid config at corrector: a {kind!r} system takes none")
        corrector = _section("corrector", corrector, reads.corrector, "a corrector")
    for name in ("data", "weights"):
        if not isinstance(doc[name], list):
            raise ConfigError(f"invalid config at {name}: expected a list, "
                              f"got {type(doc[name]).__name__}")
    if not reads.fields and (doc["data"] or snapshots):
        raise ConfigError(f"invalid config: a {kind!r} system integrates no fields, "
                          f"so takes no data and no snapshot times")
    data = []
    for i, d in enumerate(doc["data"]):
        at = f"data.{i}"
        d_kind = _lookup(at, d, "kind", DATA_FIELDS)
        reads_d = {"kind": ..., "component": ..., **DATA_FIELDS[d_kind]}
        data.append(_section(at, d, reads_d, f"a {d_kind} data entry"))
    weights = []
    for i, w in enumerate(doc["weights"]):
        at = f"weights.{i}"
        role = _lookup(at, w, "role", reads.roles)
        w_kind = _lookup(at, w, "kind", reads.roles[role])
        reads_w = {"role": ..., "kind": ..., **WEIGHT_FIELDS[role, w_kind]}
        weights.append(_section(at, w, reads_w, f"a {role} {w_kind} weight"))
    roles = [w["role"] for w in weights]
    if len(set(roles)) < len(roles):
        raise ConfigError(f"invalid config at weights: a {kind!r} system takes at most "
                          f"one weight of each role, got {roles}")
    return copy.deepcopy({
        "scenario": doc["scenario"],
        "system": system,
        "grid": _section("grid", doc["grid"], _GRID, "a grid"),
        "time": time,
        "data": data,
        "weights": weights,
        "corrector": corrector,
        "outputs": outputs,
        "seed": doc["seed"],
    })


def read_config(path):
    """The JSON document in the file at `path`; any failure is a ConfigError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def apply_override(doc, dotted, value):
    """Apply one --set style override (dotted path) to a raw document.

    A value that is not JSON is kept as a string, which parse_config then
    refuses wherever KEYS expects a number.  A path that walks into a
    value that is neither an object nor a list is refused where it does.
    """
    keys = dotted.split(".")
    node = doc
    for depth, k in enumerate(keys):
        if not isinstance(node, (dict, list)):
            at = ".".join(keys[:depth]) or "<root>"
            raise ConfigError(f"invalid config at {at}: expected an object or a list "
                              f"to hold {k!r}, got {type(node).__name__}")
        if depth < len(keys) - 1:
            node = node[int(k)] if isinstance(node, list) else node.setdefault(k, {})
    leaf = keys[-1]
    try:
        parsed = json.loads(value)
    except ValueError:
        parsed = value
    node[int(leaf) if isinstance(node, list) else leaf] = parsed
    return doc


def build_fields(cfg, grid, n_components):
    """Evaluate the initial-data descriptors into an (N, n) array.

    `bumps` entries draw `count` random Gaussian bumps, in entry order,
    from one `random.Random(seed)` stream read only through `random()`,
    whose sequence Python keeps stable for an int seed across versions;
    the other kinds are deterministic closed forms.
    """
    x = grid.x
    U = np.zeros((grid.N, n_components))
    rng = random.Random(cfg["seed"])
    for d in cfg["data"]:
        kind, k = d["kind"], d["component"]
        if k >= n_components:
            raise ConfigError(f"data component {k} out of range for {n_components} fields")
        if kind == "gaussian":
            U[:, k] += d["amp"] * np.exp(-(((x - d["center"]) / d["width"]) ** 2))
        elif kind == "dgaussian":
            z = (x - d["center"]) / d["width"]
            U[:, k] += d["amp"] * (-2.0 * z / d["width"]) * np.exp(-(z**2))
        elif kind == "bumps":
            w = d["width"]
            for _ in range(d["count"]):
                amp = (-1.0 + 2.0 * rng.random()) * d["amp"]
                center = -w + 2.0 * w * rng.random()
                width = 0.5 + 2.5 * rng.random()
                U[:, k] += amp * np.exp(-(((x - center) / width) ** 2))
    return U
