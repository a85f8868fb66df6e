"""The benchmark's trace hooks and kernels still find the names they wrap.

`perfbench/tracing.py` replaces attributes of the package by name, and
`perfbench/micro.py` calls solver internals directly.  A renamed or
deleted name, or a changed signature, breaks `perfbench/run.py --trace 1`
or the kernel timings without failing any other test; these checks fail
instead.  Importing `tracing` wraps nothing: only its `install` does.
"""

import importlib
import sys
from pathlib import Path

import pytest

from hypodecay.experiment import runner
from hypodecay.solvers import linear

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module(name)
    sys.modules.pop(name, None)


@pytest.fixture
def tracing(monkeypatch):
    yield from _perfbench_module(monkeypatch, "tracing")


@pytest.fixture
def micro(monkeypatch):
    yield from _perfbench_module(monkeypatch, "micro")


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


def test_every_kernel_benchmark_runs(micro):
    """Each kernel the microbenchmarks time runs once, at every size."""
    timed = set()
    for name, N, fn in micro._kernels(0):
        assert fn().shape[0] == N, name
        timed.add(name)
    assert timed == set(micro.ELEMENT_PASSES)
