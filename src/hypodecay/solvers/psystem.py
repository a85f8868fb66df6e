"""The p-system with velocity damping that degenerates at u = 0.

    rho_t + u_x = 0
    u_t + rho_x = -|u|^{r-1} u,       1 < r < 3

The solver steps the Riemann invariants p = rho + u and m = rho - u,
in which the linear part decouples:

    p_t = -(D + F) p - |u|^{r-1} u,    m_t = (D - F) m + |u|^{r-1} u,

with D the centered d/dx, F the nu/dx fourth-difference floor and
u = (p - m)/2.  RK4 commutes with this fixed change of variables, so
this is the (rho, u) scheme up to roundoff, at one stencil pass per
field and stage.  The damping is smooth and non-stiff for small |u|, so
it rides inside the RK4 stages.  The record, the snapshots and the
escape check read rho = (p + m)/2 and u = (p - m)/2.  Alongside the
plain norms, the run records the cross-coupled energy pair

    wstar = ||(rho, u)||_{H^1}^2 + ETA2/r * int |u|^{r-1} u rho_x
    hstar = its exact dissipation rate,

whose discrete balance d(wstar)/dt + hstar = 0 is a second-order
identity of the scheme (checked in the tests).
"""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import RBandViolation
from ..grids import (CENTERED, FOURTH_DIFFERENCE, check_escape, d_dx, escape_tol,
                     floored_derivative, ghost_pad)
from .march import CFL, check_nu, march, rk4
from .waves import check_zero_mass

# The cross term's weight in the energy pair.
ETA2 = 0.5


@dataclass(frozen=True)
class PSystemSpec:
    r: float

    def __post_init__(self):
        if not 1.0 < self.r < 3.0:
            raise RBandViolation(f"damping exponent must satisfy 1 < r < 3, got {self.r}")


def simulate_psystem(pspec, grid, rho0, u0, T, nu=0.0, sample_stride=1,
                     wave=None, snapshot_times=()):
    """Integrate to T, recording the energy pair and optional log wave monitor.

    The log monitor tracks w = antiderivative(rho) with w_t = -u (the
    damped-wave reformulation); it needs zero-mean rho_0, which
    `check_zero_mass` enforces before the first step (MassNotZero).
    """
    check_nu(nu)
    rho = np.array(rho0, dtype=float)
    u = np.array(u0, dtype=float)
    if rho.shape != (grid.N,) or u.shape != (grid.N,):
        raise ValueError("rho0, u0 must be scalar fields on the grid")
    r = pspec.r
    dt_limit = CFL * grid.dx
    if wave is not None:
        check_zero_mass(grid, rho)

    # -(D + F) for p and D - F for m, pre-scaled: one pad and one pass per field
    half = 1.0 / (2.0 * grid.dx)
    d_kernel = half * np.pad(CENTERED, 1)
    floor_kernel = (nu / grid.dx) * FOURTH_DIFFERENCE
    p_kernel = -d_kernel - floor_kernel
    m_kernel = d_kernel - floor_kernel

    def rhs(state):
        p, m = state
        dp = floored_derivative(grid, ghost_pad(grid, p), p_kernel, -half)
        dm = floored_derivative(grid, ghost_pad(grid, m), m_kernel, half)
        u = p - m
        u *= 0.5
        damping = np.abs(u)
        if r != 2.0:  # pow(x, 1.0) is x: skip a full pass
            damping **= r - 1.0
        damping *= u
        dp -= damping
        dm += damping
        return dp, dm

    def fields(state):
        """(rho, u) = ((p + m)/2, (p - m)/2)."""
        p, m = state
        rho, u = p + m, p - m
        rho *= 0.5
        u *= 0.5
        return rho, u

    tol = escape_tol(rho, u)

    def record(t, state):
        rho, u = fields(state)
        dr = d_dx(grid, rho)
        du_ = d_dx(grid, u)
        l22 = float(grid.qw @ (rho * rho + u * u))
        dl22 = float(grid.qw @ (dr * dr + du_ * du_))
        aur = np.abs(u)
        if r != 2.0:
            aur **= r - 1.0
        au = aur * u
        lrp1 = float(grid.qw @ (au * u))
        cross = float(grid.qw @ (au * dr)) / r
        wstar = l22 + dl22 + ETA2 * cross
        adu2 = float(grid.qw @ (aur * du_ * du_))
        hstar = (
            2.0 * lrp1
            + 2.0 * r * adu2
            + ETA2
            * (
                float(grid.qw @ (aur * dr * dr))
                + float(grid.qw @ (aur * aur * u * dr))
                - adu2
            )
        )
        row = {
            "l2": math.sqrt(l22),
            "h1": math.sqrt(l22 + dl22),
            "dx_l2": math.sqrt(dl22),
            "lrp1": lrp1,
            "dissipation": 2.0 * lrp1,
            "wstar": wstar,
            "hstar": hstar,
        }
        if wave is not None:
            we, wh = wave.record(grid, t, rho, u)
            row["wave_energy"] = we
            row["wave_dissipation"] = wh
        check_escape(grid, t, tol, rho, u)
        return row

    def step(state, dt):
        return rk4(rhs, state, dt)

    meta = {"scheme": "rk4-centered", "nu": nu, "r": r, "eta2": ETA2}
    return march((rho + u, rho - u), T, dt_limit, step, record, sample_stride,
                 snapshot_times, lambda state: np.column_stack(fields(state)), meta)
