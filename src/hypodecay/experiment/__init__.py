"""Declarative experiment layer: configs, scenario registry, runner, CLI."""

from .config import (
    ConfigError,
    DataField,
    RunConfig,
    WeightEntry,
    apply_override,
    build_fields,
    parse_config,
    serialize_config,
)
from .runner import RunReport, batch, run
from .scenarios import describe, scenario_claims, scenario_doc, scenario_names

__all__ = [
    "ConfigError",
    "DataField",
    "RunConfig",
    "RunReport",
    "WeightEntry",
    "apply_override",
    "batch",
    "build_fields",
    "describe",
    "parse_config",
    "run",
    "scenario_claims",
    "scenario_doc",
    "scenario_names",
    "serialize_config",
]
