"""Run configuration: JSON schema, parsing, and initial-data builders.

A config document is plain JSON.  `parse_config` validates against the
published schema before touching any numerics (malformed input must
fail fast, before files or arrays exist), and `serialize_config` emits
the canonical dict form — `serialize(parse(doc))` is idempotent on
schema-valid documents.
"""

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np

from .scenarios import scenario_doc, scenario_names


# What each system kind reads, which is all parse_config accepts for it:
# its `system` and `time` keys with their defaults (None: required), its
# corrector block's defaults (None: it takes no block), its weight roles,
# and whether it integrates fields (else it takes no data or snapshots).
SystemKind = namedtuple("SystemKind", "system time corrector roles fields",
                        defaults=(None, frozenset(), True))
_STEPPED = {"T": None, "sample_stride": 1, "nu": 0.0}
SYSTEM_KINDS = {
    "linear": SystemKind({"A": None, "D": None, "n1": None}, _STEPPED,
                         corrector={"safety": 0.5}, roles={"spatial", "wave"}),
    "euler": SystemKind({"gamma": 2.0, "rho_bar": 1.0, "lam": 1.0, "smallness_cap": 0.5},
                        _STEPPED, roles={"spatial", "wave"}),
    "psystem": SystemKind({"r": 2.0}, _STEPPED, roles={"wave"}),
    "heat": SystemKind({}, {"T": None, "sample_stride": 1}, roles={"spatial"}),
    "none": SystemKind({}, {"T": None}, fields=False),
}

# The fields each weight reads besides its `role` and `kind`, by (role,
# kind), and each data entry besides its `kind` and `component`, by kind;
# parse_config refuses any other, and serialize_config records only these.
WEIGHT_FIELDS = {
    ("spatial", "power"): ("mu",),
    ("spatial", "log"): ("q",),
    ("wave", "power"): ("mu",),
    ("wave", "log"): ("q",),
}
DATA_FIELDS = {
    "gaussian": ("amp", "width", "center"),
    "dgaussian": ("amp", "width", "center"),
    "bumps": ("amp", "width", "count"),
    "zero": (),
}

_BC = ["periodic", "compact_support"]

_matrix = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "minItems": 1, "items": {"type": "number"}},
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["scenario", "grid", "time"],
    "additionalProperties": False,
    "properties": {
        "scenario": {"type": "string", "minLength": 1},
        "system": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": list(SYSTEM_KINDS)},
                "A": _matrix,
                "D": _matrix,
                "n1": {"type": "integer", "minimum": 1},
                "gamma": {"type": "number", "exclusiveMinimum": 1},
                "rho_bar": {"type": "number", "exclusiveMinimum": 0},
                "lam": {"type": "number", "exclusiveMinimum": 0},
                "smallness_cap": {"type": "number", "exclusiveMinimum": 0},
                "r": {"type": "number"},
            },
        },
        "grid": {
            "type": "object",
            "required": ["L", "N"],
            "additionalProperties": False,
            "properties": {
                "L": {"type": "number", "exclusiveMinimum": 0},
                "N": {"type": "integer", "minimum": 16},
                "bc": {"enum": _BC},
            },
        },
        "time": {
            "type": "object",
            "required": ["T"],
            "additionalProperties": False,
            "properties": {
                "T": {"type": "number", "exclusiveMinimum": 0},
                "sample_stride": {"type": "integer", "minimum": 1},
                "nu": {"type": "number", "minimum": 0},
            },
        },
        "data": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["kind", "component"],
                "additionalProperties": False,
                "properties": {
                    "kind": {"enum": list(DATA_FIELDS)},
                    "component": {"type": "integer", "minimum": 0},
                    "amp": {"type": "number"},
                    "width": {"type": "number", "exclusiveMinimum": 0},
                    "center": {"type": "number"},
                    "count": {"type": "integer", "minimum": 1},
                },
            },
        },
        "weights": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["role", "kind"],
                "additionalProperties": False,
                "properties": {
                    "role": {"enum": ["spatial", "wave"]},
                    "kind": {"enum": ["power", "log"]},
                    "mu": {"type": "number"},
                    "q": {"type": "number"},
                },
            },
        },
        "corrector": {
            "type": ["object", "null"],
            "additionalProperties": False,
            "properties": {
                "safety": {
                    "type": "number",
                    "exclusiveMinimum": 0,
                    "exclusiveMaximum": 1,
                },
            },
        },
        "outputs": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dir": {"type": "string", "minLength": 1},
                "snapshots": {"type": "array", "items": {"type": "number"}},
            },
        },
        "seed": {"type": "integer", "minimum": 0},
    },
}


# Built once: `jsonschema.validate` would re-check the schema on every call.
_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


class ConfigError(ValueError):
    """Configuration document rejected before execution."""


@dataclass(frozen=True)
class DataField:
    kind: str
    component: int
    amp: float = 1.0
    width: float = 1.0
    center: float = 0.0
    count: int = 1


@dataclass(frozen=True)
class WeightEntry:
    role: str
    kind: str
    mu: float = 1.0
    q: float = 1.0


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    system: dict
    grid: dict
    time: dict
    data: tuple
    weights: tuple
    corrector: dict = None
    outputs: dict = field(default_factory=dict)
    seed: int = 0


def _filled(section, given, reads, kind):
    """`given` over the defaults in `reads`; a key `reads` lacks, or a
    required key `given` lacks, is a ConfigError."""
    for key in given:
        if key not in reads:
            raise ConfigError(f"invalid config at {section}.{key}: "
                              f"a {kind!r} system does not read it")
    for key, default in reads.items():
        if default is None and key not in given:
            raise ConfigError(f"invalid config at {section}: a {kind!r} system requires {key!r}")
    return {**{k: v for k, v in reads.items() if v is not None}, **given}


def _refuse_unread(at, entry, named, fields, what):
    """A ConfigError for a key of `entry` that is neither in `named` nor in `fields`."""
    unread = sorted(entry.keys() - {*named, *fields})
    if unread:
        raise ConfigError(f"invalid config at {at}.{unread[0]}: a {what} reads only "
                          f"{list(fields)}")


def parse_config(doc):
    """Validate a JSON document and normalize it into a RunConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(doc))
    if error is not None:
        path = ".".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"invalid config at {path}: {error.message}")
    T = doc["time"]["T"]
    snapshots = doc.get("outputs", {}).get("snapshots", [])
    for ts in snapshots:
        if not 0 <= ts <= T:
            raise ConfigError(
                f"invalid config at outputs.snapshots: time {ts} lies outside [0, T={T}]"
            )

    system = dict(doc.get("system", {"kind": "none"}))
    kind = system.pop("kind")
    if doc["scenario"] in scenario_names():
        registered = scenario_doc(doc["scenario"])["system"]["kind"]
        if kind != registered:
            raise ConfigError(
                f"invalid config at system.kind: scenario {doc['scenario']!r} "
                f"runs a {registered!r} system, got {kind!r}"
            )
    reads = SYSTEM_KINDS[kind]
    corrector = doc.get("corrector")
    if corrector is not None:
        if reads.corrector is None:
            raise ConfigError(f"invalid config at corrector: a {kind!r} system takes none")
        corrector = {**reads.corrector, **corrector}
    if not reads.fields and (doc.get("data") or snapshots):
        raise ConfigError(f"invalid config: a {kind!r} system integrates no fields, "
                          f"so takes no data and no snapshot times")
    weights = doc.get("weights", [])
    roles = [w["role"] for w in weights]
    if not reads.roles.issuperset(roles) or len(set(roles)) < len(roles):
        raise ConfigError(f"invalid config at weights: a {kind!r} system takes at most "
                          f"one weight of each role in {sorted(reads.roles)}, got {roles}")
    data = doc.get("data", [])
    for i, w in enumerate(weights):
        _refuse_unread(f"weights.{i}", w, ("role", "kind"),
                       WEIGHT_FIELDS[w["role"], w["kind"]], f"{w['role']} {w['kind']} weight")
    for i, d in enumerate(data):
        _refuse_unread(f"data.{i}", d, ("kind", "component"), DATA_FIELDS[d["kind"]],
                       f"{d['kind']} data entry")
    return RunConfig(
        scenario=doc["scenario"],
        system={"kind": kind, **_filled("system", system, reads.system, kind)},
        grid={"bc": "periodic", **doc["grid"]},
        time=_filled("time", doc["time"], reads.time, kind),
        data=tuple(DataField(**d) for d in data),
        weights=tuple(WeightEntry(**w) for w in weights),
        corrector=corrector,
        outputs=dict(doc.get("outputs", {})),
        seed=doc.get("seed", 0),
    )


def serialize_config(cfg):
    """The canonical JSON document of a RunConfig."""
    return {
        "scenario": cfg.scenario,
        "system": dict(cfg.system),
        "grid": dict(cfg.grid),
        "time": dict(cfg.time),
        "data": [{"kind": d.kind, "component": d.component,
                  **{f: getattr(d, f) for f in DATA_FIELDS[d.kind]}} for d in cfg.data],
        "weights": [{"role": w.role, "kind": w.kind,
                     **{f: getattr(w, f) for f in WEIGHT_FIELDS[w.role, w.kind]}}
                    for w in cfg.weights],
        "corrector": dict(cfg.corrector) if cfg.corrector is not None else None,
        "outputs": dict(cfg.outputs),
        "seed": cfg.seed,
    }


def _non_finite(token):
    raise ValueError(f"non-finite number {token} is not allowed")


def _finite(convert):
    """A json number hook: `convert(text)`, refusing what overflows a double."""
    def parse(text):
        if not math.isfinite(float(text)):
            _non_finite(text)
        return convert(text)
    return parse


def _loads(text):
    """`json.loads` that refuses NaN, Infinity, -Infinity and literals
    beyond the double range such as 1e999: a number in a config must be
    finite."""
    return json.loads(text, parse_constant=_non_finite, parse_float=_finite(float),
                      parse_int=_finite(int))


def read_config(path):
    """The JSON document in the file at `path`; any failure is a ConfigError."""
    try:
        return _loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def apply_override(doc, dotted, value):
    """Apply one --set style override (dotted path) to a raw document.

    A value that is not JSON, or holds a non-finite number, is kept as a
    string, which the schema then refuses wherever a number is expected.
    """
    keys = dotted.split(".")
    node = doc
    for k in keys[:-1]:
        if isinstance(node, list):
            node = node[int(k)]
        else:
            node = node.setdefault(k, {})
    leaf = keys[-1]
    try:
        parsed = _loads(value)
    except ValueError:
        parsed = value
    if isinstance(node, list):
        node[int(leaf)] = parsed
    else:
        node[leaf] = parsed
    return doc


def build_fields(cfg, grid, n_components):
    """Evaluate the initial-data descriptors into an (N, n) array.

    `bumps` entries draw `count` random Gaussian bumps from the
    counter-based generator (reproducible across platforms); the other
    kinds are deterministic closed forms.
    """
    x = grid.x
    U = np.zeros((grid.N, n_components))
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    for d in cfg.data:
        if d.component >= n_components:
            raise ConfigError(
                f"data component {d.component} out of range for {n_components} fields"
            )
        if d.kind == "zero":
            continue
        if d.kind == "gaussian":
            U[:, d.component] += d.amp * np.exp(-(((x - d.center) / d.width) ** 2))
        elif d.kind == "dgaussian":
            z = (x - d.center) / d.width
            U[:, d.component] += d.amp * (-2.0 * z / d.width) * np.exp(-(z**2))
        elif d.kind == "bumps":
            for _ in range(d.count):
                amp = rng.uniform(-1.0, 1.0) * d.amp
                center = rng.uniform(-d.width, d.width)
                width = rng.uniform(0.5, 3.0)
                U[:, d.component] += amp * np.exp(-(((x - center) / width) ** 2))
    return U
