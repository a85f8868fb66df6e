"""Time integration of the linear partially dissipative system.

State layout: U is (N, n) with the undamped components first.  The
damping block acts stiffly for large kappa, so it is split off and
applied exactly: half-step matrix exponential, RK4 on the advection
(centered differences), half-step exponential again — second order
overall, with no time-step restriction from the damping strength.

Small matrices act on the stacked state from the right, U @ M^T.  Each
M^T is built once as a C-contiguous array: numpy hands a transposed
view to a slow generic loop instead of BLAS, with the same result.
"""

from dataclasses import dataclass, field

import numpy as np

from ..corrector import lyapunov_value
from ..errors import CflViolation
from ..grids import check_escape, d_dx, escape_tol, inner, l2_norm, subtract_floor
from ..linalg import jacobi_eigensystem, expm_sym
from .march import check_cfl, check_nu, march, rk4, step_size


@dataclass(frozen=True)
class LinearSim:
    spec: object
    grid: object
    cfl: float = 0.4
    nu: float = 0.0
    rho_A: float = field(init=False)
    dt: float = field(init=False)
    A_t: np.ndarray = field(init=False, repr=False)
    D_t: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        check_cfl(self.cfl)
        check_nu(self.nu)
        w, _ = jacobi_eigensystem(self.spec.A)
        rho = float(np.abs(w).max())
        object.__setattr__(self, "rho_A", rho)
        speed = rho if rho > 0.0 else 1.0
        object.__setattr__(self, "dt", self.cfl * self.grid.dx / speed)
        object.__setattr__(self, "A_t", np.ascontiguousarray(self.spec.A.T))
        object.__setattr__(self, "D_t", np.ascontiguousarray(self.spec.D.T))


def damping_half_step(spec, dt):
    """Exact propagator exp(-B dt/2) of the relaxation block, transposed.

    The half-step of a stacked state U is U @ damping_half_step(spec, dt).
    """
    return np.ascontiguousarray(expm_sym(-0.5 * dt * spec.B).T)


def advection_rhs(sim, U):
    return subtract_floor(sim.grid, -d_dx(sim.grid, U) @ sim.A_t, U, sim.nu)


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

    def record(t, U):
        dUx = d_dx(grid, U)
        U2 = U[:, spec.n1:]
        row = {
            "l2": l2_norm(grid, U),
            "u1_l2": l2_norm(grid, U[:, : spec.n1]),
            "u2_l2": l2_norm(grid, U2),
            "dx_l2": l2_norm(grid, dUx),
            "dissipation": 2.0 * inner(grid, U2 @ sim.D_t, U2),
        }
        if coeffs is not None:
            row["lyapunov"] = lyapunov_value(spec, coeffs, grid, U, t)
        if weight is not None:
            row["weighted_l2"] = l2_norm(grid, U, weight=weight)
        if wave is not None:
            we, wh = wave.record(grid, t, U[:, : spec.n1], U2)
            row["wave_energy"] = we
            row["wave_dissipation"] = wh
        check_escape(grid, t, tol, U)
        return row

    def step(U, dt):
        return step_linear(U, sim, dt=dt, half=half)

    return march(U, T, sim.dt, step, record, sample_stride, snapshot_times,
                 np.copy, {"scheme": "strang-exp/rk4-centered", "nu": sim.nu})
