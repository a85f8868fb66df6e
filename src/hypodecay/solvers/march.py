"""The time-marching driver shared by the four solvers.

Each solver hands `march` its one-step map and its `record(t, state)`
observer.  The driver owns everything else about a run: the uniform step
count, the sampling stride, the snapshot steps, the assembly of the
recorded series and the process's heap setting.  `rk4` is the one
classical Runge-Kutta stage sequence.  `check_cfl` and `check_nu` are
the one check each of an explicit solver's CFL number and of its
fourth-difference floor strength.
"""

import ctypes
import math

import numpy as np

from ..analysis import TimeSeries
from ..errors import CflViolation, NonFiniteState

CFL_MAX = 0.7


def check_cfl(cfl):
    """Raise CflViolation unless the CFL number lies in (0, CFL_MAX]."""
    if not 0.0 < cfl <= CFL_MAX:
        raise CflViolation(f"cfl must lie in (0, {CFL_MAX}], got {cfl}")


def check_nu(nu):
    """Raise ValueError unless the fourth-difference floor strength nu is >= 0."""
    if nu < 0.0:
        raise ValueError(f"stabilization strength nu must be nonnegative, got {nu}")


def step_size(T, dt_limit):
    """Fewest uniform steps reaching T with dt <= dt_limit: (nsteps, dt)."""
    if not T > 0.0:
        raise ValueError("T must be positive")
    nsteps = max(1, math.ceil(T / dt_limit - 1e-12))
    return nsteps, T / nsteps


def rk4(rhs, state, dt):
    """One classical RK4 step of y' = rhs(y).

    The state is an array or a tuple of arrays, and rhs returns the same
    kind of object.  rk4 may overwrite the arrays rhs returns, so rhs
    must return fresh arrays; the state itself is never written.  The
    sums keep the grouping y + (dt/6) * (((a + 2b) + 2c) + d).
    """
    if not isinstance(state, tuple):
        return rk4(lambda y: (rhs(y[0]),), (state,), dt)[0]

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


def _keep_freed_heap():
    """Keep freed memory in the process's heap; glibc only, else a no-op.

    A step allocates and frees many field-sized arrays.  Under glibc's
    default thresholds the freed top of the heap can go back to the
    system after each step and be faulted in again by the next one:
    about 80 page faults per p-system step at N = 8192, a quarter of its
    step time.  The values are the ceilings glibc's own dynamic
    thresholds reach on 64-bit systems.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def march(state, T, dt_limit, step, record, sample_stride, snapshot_times,
          snapshot, meta):
    """Advance `state` to T in uniform steps of at most dt_limit.

    `step(state, dt)` returns the next state.  `record(t, state)` returns
    a dict of channel values; it runs at step 0, at every multiple of
    `sample_stride` and at the last step, and raises to abort the run.
    A NaN or infinite channel value raises NonFiniteState at that sample.
    `snapshot(state)` returns the array stored at the step nearest each
    of `snapshot_times`, which must lie in [0, T].  Returns the recorded
    TimeSeries, whose meta is `meta` plus dt_step, n_steps and
    sample_stride, and the snapshots keyed by time.
    """
    _keep_freed_heap()
    nsteps, dt = step_size(T, dt_limit)
    snap_steps = {}
    for ts in snapshot_times:
        if not 0.0 <= ts <= T:
            raise ValueError(f"snapshot time {ts} lies outside [0, {T}]")
        snap_steps.setdefault(int(round(ts / dt)), []).append(float(ts))
    snapshots = {}
    times, chans = [], {}

    for j in range(nsteps + 1):
        if j > 0:
            state = step(state, dt)
        if j % sample_stride == 0 or j == nsteps:
            t = j * dt
            row = record(t, state)
            bad = [k for k, v in row.items() if not math.isfinite(v)]
            if bad:
                raise NonFiniteState(f"channel {bad[0]!r} is {row[bad[0]]} at t={t:.4g}",
                                     time=t)
            times.append(t)
            for k, v in row.items():
                chans.setdefault(k, []).append(v)
        for ts in snap_steps.get(j, ()):
            snapshots[ts] = snapshot(state)

    series = TimeSeries(
        t=np.array(times),
        channels={k: np.array(v) for k, v in chans.items()},
        meta={"dt_step": dt, "n_steps": nsteps, "sample_stride": sample_stride,
              **meta},
    )
    return series, snapshots
