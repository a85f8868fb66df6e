"""The time-marching driver shared by the four solvers.

Each solver hands `march` its one-step map and its `record(t, state)`
observer.  The driver owns everything else about a run: the uniform step
count, the sampling stride, the snapshot steps and the assembly of the
recorded series.  `rk4` is the one classical Runge-Kutta stage sequence.
"""

import math

import numpy as np

from ..analysis import TimeSeries
from ..errors import NonFiniteState


def step_size(T, dt_limit):
    """Fewest uniform steps reaching T with dt <= dt_limit: (nsteps, dt)."""
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
    nsteps, dt = step_size(T, dt_limit)
    for ts in snapshot_times:
        if not 0.0 <= ts <= T:
            raise ValueError(f"snapshot time {ts} lies outside [0, {T}]")
    snap_steps = {int(round(ts / dt)): float(ts) for ts in snapshot_times}
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
        if j in snap_steps:
            snapshots[snap_steps[j]] = snapshot(state)

    series = TimeSeries(
        t=np.array(times),
        channels={k: np.array(v) for k, v in chans.items()},
        meta={"dt_step": dt, "n_steps": nsteps, "sample_stride": sample_stride,
              **meta},
    )
    return series, snapshots
