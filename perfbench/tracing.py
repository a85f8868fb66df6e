"""In-memory span recorder wrapped around the layer functions of hypodecay.

Nothing here edits the package: `install` replaces module attributes at
the call sites the program uses (for example `runner.simulate_psystem`
or `solvers.psystem.d_dx`) with wrappers that open and close spans.
Spans are aggregated as they close, keyed by their path from the root
(a tuple of span names), so a 5000-step run costs memory in the number
of distinct paths, and the tree is written out once at the end.

The solvers' `record` observers are closures that cannot be wrapped.
A wrapped call made directly from a `record` frame opens a
`solvers.observer` span, later wrapped calls from the same frame join
it, and it closes at the return of its last wrapped call. So each
observer span runs from the first to the last traced call of one
`record` invocation, and grid kernels are credited to observers or to
stepping by their caller.
"""

import json
import os
import sys
import time
from collections import Counter

from hypodecay import analysis, corrector, grids
from hypodecay.experiment import runner
from hypodecay.grids import Grid1D
from hypodecay.solvers import euler, heat, linear, psystem, waves

_clock = time.perf_counter

OBSERVER = "solvers.observer"
SIMULATE = "solvers.simulate"
JOB = "experiment.job"

# The solvers' observer closures, recognised by their code objects.
RECORD_CODES = frozenset(
    const
    for fn in (linear.simulate_linear, euler.simulate_euler,
               psystem.simulate_psystem, heat.heat_solve)
    for const in fn.__code__.co_consts
    if getattr(const, "co_name", None) == "record"
)


class Recorder:
    """Stack of open spans plus the aggregated tree of closed ones."""

    def __init__(self):
        self.pid = os.getpid()
        self.reset()

    def reset(self):
        # open span: [name, path, start, child_s, record frame, last child end]
        self.stack = []
        self.tree = {}  # path -> [calls, total_s, self_s]
        self.counts = Counter()

    def open(self, name, start, frame=None):
        parent = self.stack[-1][1] if self.stack else ()
        self.stack.append([name, parent + (name,), start, 0.0, frame, start])

    def close(self, end):
        _, path, start, child_s, _, _ = self.stack.pop()
        dur = end - start
        node = self.tree.setdefault(path, [0, 0.0, 0.0])
        node[0] += 1
        node[1] += dur
        node[2] += dur - child_s
        if self.stack:
            self.stack[-1][3] += dur
            self.stack[-1][5] = end

    def _settle_observer(self, frame):
        """Close the open observer span unless `frame` is its record call."""
        top = self.stack[-1] if self.stack else None
        if top is not None and top[0] == OBSERVER and top[4] is not frame:
            self.close(top[5])

    def call(self, name, fn, args, kwargs):
        caller = sys._getframe(2)
        self._settle_observer(caller)
        if caller.f_code in RECORD_CODES and not (
                self.stack and self.stack[-1][4] is caller):
            self.open(OBSERVER, _clock(), frame=caller)
        self.open(name, _clock())
        try:
            return fn(*args, **kwargs)
        finally:
            self._settle_observer(None)
            self.close(_clock())

    def dump(self):
        return {
            "tree": [[list(p), *v] for p, v in sorted(self.tree.items())],
            "counts": dict(self.counts),
        }


def _wrap(rec, name, fn):
    def traced(*args, **kwargs):
        return rec.call(name, fn, args, kwargs)

    return traced


def _grid_of(args):
    for a in args:
        grid = a if isinstance(a, Grid1D) else getattr(a, "grid", None)
        if isinstance(grid, Grid1D):
            return grid
    raise TypeError("simulate call carries no grid")


def _wrap_simulate(rec, fn):
    """Solver entry point: a span plus exact step and sample counts."""

    def traced(*args, **kwargs):
        series, snaps = rec.call(SIMULATE, fn, args, kwargs)
        if series is not None:
            steps = int(series.meta["n_steps"])
            rec.counts["solvers.steps"] += steps
            rec.counts["solvers.samples"] += len(series.t)
            rec.counts["solvers.point_steps"] += steps * _grid_of(args).N
        return series, snaps

    return traced


class _JsonWrites:
    """Stands in for `json` inside the runner so report writes are timed."""

    def __init__(self, dump):
        self.dump = dump

    def __getattr__(self, name):
        return getattr(json, name)


# (owner, attribute, span name): every call site the recorder wraps.
_SITES = [
    (mod, attr, f"grids.{attr}")
    for mod in (grids, linear, psystem, euler, heat, corrector, analysis, waves)
    for attr in ("d_dx", "fourth_difference", "l2_norm", "inner")
    if hasattr(mod, attr)
] + [
    (linear, "lyapunov_value", "corrector.lyapunov"),
    (runner, "select_coefficients", "corrector.select"),
    (runner, "select_weighted_coefficients", "corrector.select"),
    (runner, "SystemSpec", "linalg.spec"),
    (runner, "min_eig_sym", "linalg.spec"),
    (linear, "expm_sym", "linalg.spec"),
    (linear, "jacobi_eigensystem", "linalg.spec"),
    (waves.LinearWaveMonitor, "record", "solvers.wave"),
    (waves.LogWaveMonitor, "record", "solvers.wave"),
    (runner, "fit_power", "analysis.check"),
    (runner, "check_monotone", "analysis.check"),
    (runner, "check_energy_law", "analysis.check"),
    (runner, "check_decay_inequality", "analysis.check"),
    (runner, "check_ckn", "analysis.check"),
    (runner, "bounded_product", "analysis.check"),
    (runner, "certify_weighted_bound", "analysis.check"),
    (runner, "parse_config", "experiment.parse"),
    (runner, "run_certificates", "experiment.certify"),
    (runner, "write_series_csv", "experiment.write"),
    (runner, "write_snapshot_csv", "experiment.write"),
    (runner, "run", "experiment.run"),
    (runner, "batch", "experiment.batch"),
]
_SIMULATE_SITES = ["simulate_linear", "simulate_euler", "simulate_psystem",
                   "heat_solve"]

# Set by `install`; forked batch workers find them here after unpickling
# `traced_batch_worker` by name.
_recorder = None
_trace_dir = None
_batch_worker = None


def install(trace_dir):
    """Wrap every call site; returns the recorder of this process."""
    global _recorder, _trace_dir, _batch_worker
    rec = Recorder()
    for owner, attr, name in _SITES:
        setattr(owner, attr, _wrap(rec, name, getattr(owner, attr)))
    for attr in _SIMULATE_SITES:
        setattr(runner, attr, _wrap_simulate(rec, getattr(runner, attr)))
    runner.json = _JsonWrites(_wrap(rec, "experiment.write", json.dump))
    _recorder, _trace_dir, _batch_worker = rec, trace_dir, runner._batch_worker
    runner._batch_worker = traced_batch_worker
    return rec


def traced_batch_worker(job):
    """One batch job; in a forked worker it writes its own span tree."""
    rec = _recorder
    if rec.pid == os.getpid():
        return rec.call(JOB, _batch_worker, (job,), {})
    rec.reset()
    rec.open(JOB, _clock())
    try:
        return _batch_worker(job)
    finally:
        rec.close(_clock())
        name = f"job-{os.getpid()}-{time.perf_counter_ns()}.json"
        with open(os.path.join(_trace_dir, name), "w") as fh:
            json.dump(rec.dump(), fh)
        rec.reset()
