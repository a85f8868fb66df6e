"""Shared fixtures."""

import json
import re

import pytest

from hypodecay.experiment import ConfigError, apply_override, parse_config, scenario_doc


def _assert_refused(scenario, settings, at):
    """The registry scenario's document, with each dotted path of
    `settings` set and no snapshot times, is refused by `parse_config`
    at the path `at`: the input never reaches a solver or a constructor."""
    doc = scenario_doc(scenario)
    doc["outputs"] = {"snapshots": []}
    for path, value in settings.items():
        apply_override(doc, path, json.dumps(value))
    with pytest.raises(ConfigError, match=rf"invalid config at {re.escape(at)}: "):
        parse_config(doc)


@pytest.fixture
def assert_refused():
    """`_assert_refused`: a run input that `config.KEYS` holds to its range."""
    return _assert_refused
