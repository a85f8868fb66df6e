"""The time-marching driver shared by the four solvers.

Each solver's one `step_size` call sets its run's (nsteps, dt), bounding
the cost before the solver builds its one-step map for dt; it hands
`march` that pair, the map, its `record(t, state)` observer and its map
to the physical fields.  The driver owns everything else about a run:
the sampling stride, the compact-window guard, the snapshots, the
assembly of the recorded series, the process's heap setting and the
floating-point mode the steps and observers run in.
`rk4` is the plain classical Runge-Kutta stage sequence and `staged_rk4`
the same one regrouped into four pre-weighted stencil stages.  `CFL` is
every explicit solver's CFL number.  `config.KEYS` bounds T, nu and the
snapshot times before a run reaches the driver.
"""

import contextlib
import ctypes
import math
import platform
import sys

import numpy as np

from ..analysis import TimeSeries
from ..errors import HypodecayError, NonFiniteState, RunTooCostly, rejected
from ..grids import GHOSTS, check_escape, escape_tol, ghost_pad, unpad

# The CFL number each explicit solver steps at, and the largest one a
# running Euler solution may reach before it is a CflViolation.
CFL = 0.4
CFL_MAX = 0.7

# The most point-steps (steps x grid points) a run may take: about 240
# times the registry's largest run, thm6's 51,200 x 8192.
MAX_POINT_STEPS = 1e11


def step_size(T, dt_limit, N):
    """Fewest uniform steps reaching T with dt <= dt_limit: (nsteps, dt).

    Raises RunTooCostly when the run of N grid points would take more than
    MAX_POINT_STEPS point-steps (nsteps * N), or a count that is not a
    number (a NaN dt_limit), before anything is built.
    """
    steps = T / dt_limit - 1e-12
    if not steps * N <= MAX_POINT_STEPS:  # an infinite or NaN count too, before ceil
        raise RunTooCostly(f"the run needs {steps:.3g} steps x N = {N}, "
                           f"{steps * N:.3g} point-steps, over the bound of "
                           f"{MAX_POINT_STEPS:.0e}")
    nsteps = max(1, math.ceil(steps))
    return nsteps, T / nsteps


def rk4(rhs, state, dt):
    """One classical RK4 step of y' = rhs(y).

    The state is a tuple of arrays, and rhs returns a tuple of as many.
    rk4 may overwrite the arrays rhs returns, so rhs must return fresh
    arrays; the state itself is never written.  The sums keep the
    grouping y + (dt/6) * (((a + 2b) + 2c) + d).
    """

    def shifted(a, k):
        out = tuple(np.multiply(ky, a) for ky in k)
        for o, y in zip(out, state):
            o += y
        return out

    k1 = rhs(state)
    k2 = rhs(shifted(0.5 * dt, k1))
    k3 = rhs(shifted(0.5 * dt, k2))
    k4 = rhs(shifted(dt, k3))
    for y, a, b, c, d in zip(state, k1, k2, k3, k4):
        b *= 2.0
        b += a
        c *= 2.0
        b += c
        b += d
        b *= dt / 6.0
        b += y
    return k2


def stage_weights(dt):
    """(w, c) of `staged_rk4`'s four stages for a step of dt: the stage's
    right-hand-side weight and its identity weight."""
    return ((0.5 * dt, 1.0), (0.5 * dt, 0.0), (dt, 0.0), (dt / 6.0, 1.0 / 3.0))


def staged_rk4(stage, weights, state):
    """One classical RK4 step as four pre-weighted stages, from one pad of
    4 * GHOSTS wrap cells per field: the sequence of the compiled Euler and
    p-system steps.

    `stage(y, weights[i])` returns corr(y, c I + w K) plus w times the
    nonlinear terms, for the i-th (w, c) of `stage_weights`, GHOSTS cells
    shorter at each end than y.  Then y2 = stage(y), y3 = stage(y2) + y,
    y4 = stage(y3) + y and y+ = stage(y4) + (2 y3 + y2 - y)/3.
    """
    y = [ghost_pad(f, 4 * GHOSTS) for f in state]
    y2 = stage(y, weights[0])
    y3 = stage(y2, weights[1])
    for f3, f in zip(y3, y):
        f3 += unpad(f, 2 * GHOSTS)
    y4 = stage(y3, weights[2])
    for f4, f in zip(y4, y):
        f4 += unpad(f, 3 * GHOSTS)
    out = stage(y4, weights[3])
    for f_out, f2, f3, f in zip(out, y2, y3, y):
        rest = 2.0 * unpad(f3, 2 * GHOSTS)
        rest += unpad(f2, 3 * GHOSTS)
        rest -= unpad(f, 4 * GHOSTS)
        rest *= 1.0 / 3.0  # a multiply: a divide pass costs about four
        f_out += rest
    return out


# One process-wide handle on the C library, looked up once; None where
# there is none (ctypes.CDLL(None) raises on Windows).
try:
    _LIBC = ctypes.CDLL(None)
except (OSError, TypeError):
    _LIBC = None


def _c_function(name, *argtypes):
    """The C library's int-returning `name`, or None where it is missing."""
    fn = getattr(_LIBC, name, None)
    if fn is not None:
        fn.argtypes = argtypes
        fn.restype = ctypes.c_int
    return fn


class _FenvT(ctypes.Structure):
    """glibc's x86-64 fenv_t: the 28-byte x87 environment, then MXCSR."""

    _fields_ = [("x87", ctypes.c_uint32 * 7), ("mxcsr", ctypes.c_uint32)]


assert ctypes.sizeof(_FenvT) == 32

_mallopt = _c_function("mallopt", ctypes.c_int, ctypes.c_int)
if sys.platform == "linux" and platform.machine() == "x86_64":
    _fegetenv = _c_function("fegetenv", ctypes.POINTER(_FenvT))
    _fesetenv = _c_function("fesetenv", ctypes.POINTER(_FenvT))
else:
    _fegetenv = _fesetenv = None

# MXCSR's flush-to-zero (bit 15) and denormals-are-zero (bit 6) modes.
_FTZ_DAZ = (1 << 15) | (1 << 6)


def _keep_freed_heap():
    """Keep freed memory in the process's heap; glibc only, else a no-op.

    A step allocates and frees many field-sized arrays.  Measured
    without this setting, perfbench's `psystem_long` (p-system, N = 8192)
    ran 7-12 % longer, slower in 9 or 10 of 10 pairs, at the same peak RSS.
    Page faults do not explain it: a 5120-step run of that size makes
    about 280 minor faults with the setting and 340 without.  The
    values are the ceilings glibc's own dynamic thresholds reach on
    64-bit systems.
    """
    if _mallopt is None:
        return
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


@contextlib.contextmanager
def _flush_subnormals():
    """Run the block with SSE flush-to-zero and denormals-are-zero on.

    Gaussian data have tails below the smallest normal double, 2.2e-308,
    and on x86-64 every operation that reads or makes such a subnormal
    value takes a slow microcode assist.  In these modes the values are
    read and written as zero instead.  The caller's two MXCSR bits come
    back on exit, by return or by exception; the rest of the register,
    raised exception flags included, is left as the block made it.
    MXCSR belongs to the calling thread, so other threads keep their
    mode.  A no-op off x86-64 Linux or without fegetenv/fesetenv.
    """
    if _fesetenv is None or _fegetenv is None:
        yield
        return
    env = _FenvT()
    _fegetenv(env)
    saved = env.mxcsr & _FTZ_DAZ
    env.mxcsr |= _FTZ_DAZ
    _fesetenv(env)
    try:
        yield
    finally:
        _fegetenv(env)
        env.mxcsr = (env.mxcsr & ~_FTZ_DAZ) | saved
        _fesetenv(env)


def march(grid, state, nsteps, dt, step, record, fields, sample_stride,
          snapshot_times, meta):
    """Advance `state` on `grid` by nsteps uniform steps of dt, the pair
    `step_size` gave the solver that built `step`.

    `step(state)` returns the next state.  `record(t, state)` returns
    a dict of channel values; it runs at step 0, at every multiple of
    `sample_stride` and at the last step, and raises to abort the run.
    `fields(state)` returns the physical fields, a tuple of (N,) or (N, k)
    arrays.  On a compact grid, after each record `check_escape` holds
    them to the `escape_tol` of the initial fields; a periodic grid has
    no ends, so there `fields` runs only for snapshots.  Then a NaN or
    infinite channel value raises NonFiniteState.  A guard that trips at
    the step-0 sample raises `rejected` of its exception: the initial
    data are refused.
    The fields' columns are stored at the step nearest each of
    `snapshot_times`, which the config bounds to [0, T].  Returns the
    recorded TimeSeries, whose meta is `meta` plus dt_step, n_steps and
    sample_stride, and the snapshots keyed by time.
    """
    _keep_freed_heap()
    snap_steps = {}
    for ts in snapshot_times:
        snap_steps.setdefault(round(ts / dt), []).append(float(ts))
    snapshots, times, chans = {}, [], {}
    if not grid.periodic:
        tol = escape_tol(*fields(state))

    with _flush_subnormals():
        for j in range(nsteps + 1):
            if j > 0:
                state = step(state)
            if j % sample_stride == 0 or j == nsteps:
                t = j * dt
                try:
                    row = record(t, state)
                    if not grid.periodic:
                        check_escape(t, tol, *fields(state))
                    bad = [k for k, v in row.items() if not math.isfinite(v)]
                    if bad:
                        raise NonFiniteState(
                            f"channel {bad[0]!r} is {row[bad[0]]} at t={t:.4g}", time=t)
                except HypodecayError as exc:
                    if j > 0:
                        raise
                    raise rejected(exc) from exc
                times.append(t)
                for k, v in row.items():
                    chans.setdefault(k, []).append(v)
            for ts in snap_steps.get(j, ()):
                snapshots[ts] = np.column_stack(fields(state))

    series = TimeSeries(
        t=np.array(times),
        channels={k: np.array(v) for k, v in chans.items()},
        meta={"dt_step": dt, "n_steps": nsteps, "sample_stride": sample_stride,
              **meta},
    )
    return series, snapshots
