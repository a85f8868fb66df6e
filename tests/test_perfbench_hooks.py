"""The benchmark's trace hooks and kernels still find the names they wrap.

`perfbench/tracing.py` replaces attributes of the package by name, and
`perfbench/micro.py` calls solver internals directly.  A renamed or
deleted name breaks `perfbench/run.py --trace 1` or the kernel timings
without failing any other test; these checks fail instead.  Importing
`tracing` wraps nothing: only its `install` does.
"""

import importlib
import sys
from pathlib import Path

import pytest

from hypodecay.experiment import runner
from hypodecay.solvers import linear

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("tracing")
    sys.modules.pop("tracing", None)


def test_every_traced_site_resolves(tracing):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracing._SITES if not hasattr(owner, attr)]
    assert missing == []
    assert [a for a in tracing._SIMULATE_SITES if not hasattr(runner, a)] == []
    assert hasattr(runner, "_batch_worker")


def test_every_solver_observer_is_recognised(tracing):
    # one `record` closure each in the linear, Euler, p-system and heat solvers
    assert len(tracing.RECORD_CODES) == 4


def test_kernel_benchmark_names_exist():
    assert hasattr(linear, "LinearSim")
    assert hasattr(linear, "advection_rhs")
