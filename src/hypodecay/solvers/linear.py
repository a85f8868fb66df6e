"""Time integration of the linear partially dissipative system.

State layout: U is (N, n) with the undamped components first.  The
damping block acts stiffly for large kappa, so it is split off and
applied exactly: half-step matrix exponential, RK4 on the advection
(centered differences), half-step exponential again — second order
overall, with no time-step restriction from the damping strength.

Small matrices act from the right, U @ M^T, each M^T built once
C-contiguous (numpy sends a transposed view to a slow generic loop).
The advection matrix carries the sign and 1/(2 dx); a sample reads every
norm from one Gram matrix of the rows [U^T; (d_x U)^T].
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ..corrector import lyapunov_value
from ..errors import CflViolation
from ..grids import (check_escape, d_dx, escape_tol, first_difference, gram, l2_norm,
                     subtract_floor)
from ..linalg import jacobi_eigensystem, expm_sym
from .march import CFL, check_nu, march, rk4, step_size


@dataclass(frozen=True)
class LinearSim:
    spec: object
    grid: object
    nu: float = 0.0
    rho_A: float = field(init=False)
    dt: float = field(init=False)
    advection: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        check_nu(self.nu)
        w, _ = jacobi_eigensystem(self.spec.A)
        rho = float(np.abs(w).max())
        object.__setattr__(self, "rho_A", rho)
        speed = rho if rho > 0.0 else 1.0
        object.__setattr__(self, "dt", CFL * self.grid.dx / speed)
        object.__setattr__(self, "advection",
                           np.ascontiguousarray(-self.spec.A.T / (2.0 * self.grid.dx)))


def damping_half_step(spec, dt):
    """Exact propagator exp(-B dt/2) of the relaxation block, transposed.

    The half-step of a stacked state U is U @ damping_half_step(spec, dt).
    """
    return np.ascontiguousarray(expm_sym(-0.5 * dt * spec.B).T)


def advection_rhs(sim, U):
    dU = first_difference(sim.grid, U) @ sim.advection
    return subtract_floor(sim.grid, dU, U, sim.nu)


def step_linear(U, sim, dt=None, half=None):
    """One Strang-split step: exact damping, RK4 advection, exact damping."""
    if dt is None:
        dt = sim.dt
    if dt > sim.dt * (1.0 + 1e-12):
        raise CflViolation(f"dt {dt:.3e} exceeds the advective limit {sim.dt:.3e}")
    if half is None:
        half = damping_half_step(sim.spec, dt)
    U = rk4(lambda V: advection_rhs(sim, V), U @ half, dt)
    return U @ half


def simulate_linear(sim, U0, T, sample_stride=1, coeffs=None, weight=None,
                    wave=None, snapshot_times=()):
    """Run to time T, recording norm channels every sample_stride steps.

    Optional observers: `coeffs` adds the modified-energy channel,
    `weight` a spatially weighted norm, `wave` the antiderivative
    wave-energy monitor (requires zero-mean undamped data).  Returns the
    recorded series and a dict of state snapshots keyed by time.
    """
    spec, grid = sim.spec, sim.grid
    U = np.array(U0, dtype=float)
    if U.shape != (grid.N, spec.n):
        raise ValueError(f"U0 must have shape ({grid.N}, {spec.n}), got {U.shape}")
    _, dt = step_size(T, sim.dt)
    half = damping_half_step(spec, dt)
    if wave is not None:
        wave.check_mass(grid, U[:, : spec.n1])
    tol = escape_tol(U)
    n, n1 = spec.n, spec.n1
    w2 = None if weight is None else weight.values(grid.x) ** 2

    def record(t, U):
        rows = np.empty((2 * n, grid.N))  # C order: BLAS' fast path for gram
        rows[:n] = U.T
        rows[n:] = d_dx(grid, U).T
        G = gram(grid, rows)
        sq = G.diagonal()
        row = {
            "l2": math.sqrt(sq[:n].sum()),
            "u1_l2": math.sqrt(sq[:n1].sum()),
            "u2_l2": math.sqrt(sq[n1:n].sum()),
            "dx_l2": math.sqrt(sq[n:].sum()),
            "dissipation": 2.0 * float((spec.D * G[n1:n, n1:n]).sum()),
        }
        if coeffs is not None:
            row["lyapunov"] = lyapunov_value(spec, coeffs, G, t)
        if weight is not None:
            row["weighted_l2"] = l2_norm(grid, U, w2)
        if wave is not None:
            row["wave_energy"], row["wave_dissipation"] = wave.record(
                grid, t, U[:, :n1], U[:, n1:])
        check_escape(grid, t, tol, U)
        return row

    def step(U, dt):
        return step_linear(U, sim, dt=dt, half=half)

    return march(U, T, sim.dt, step, record, sample_stride, snapshot_times,
                 np.copy, {"scheme": "strang-exp/rk4-centered", "nu": sim.nu})
