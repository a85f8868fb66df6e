"""Declarative experiment layer: configs, scenario registry, runner, CLI."""

from .config import ConfigError, apply_override, build_fields, parse_config
from .runner import RunReport, batch, run
from .scenarios import describe, scenario_claims, scenario_doc, scenario_names

__all__ = [
    "ConfigError",
    "RunReport",
    "apply_override",
    "batch",
    "build_fields",
    "describe",
    "parse_config",
    "run",
    "scenario_claims",
    "scenario_doc",
    "scenario_names",
]
