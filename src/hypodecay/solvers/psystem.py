"""The p-system with velocity damping that degenerates at u = 0.

    rho_t + u_x = 0
    u_t + rho_x = -|u|^{r-1} u,       1 < r < 3

The solver steps the Riemann invariants p = rho + u and m = rho - u,
in which the linear part decouples:

    p_t = -(D + F) p - |u|^{r-1} u,    m_t = (D - F) m + |u|^{r-1} u,

with D the centered d/dx, F the nu/dx fourth-difference floor and
u = (p - m)/2.  `compile_step` builds the RK4 step once per run as four
stencils with the RK4 weights and the identity folded in, read from one
wide ghost pad per field and step.  RK4 commutes with this fixed change
of variables and with the regrouping, so this is the (rho, u) scheme up
to roundoff.  The damping is smooth and non-stiff for small |u|, so it
rides inside the RK4 stages, its weight folded into u's scale pass.
The record and `march`'s field map read rho = (p + m)/2 and
u = (p - m)/2.  Alongside the plain norms, the run records the
cross-coupled energy pair

    wstar = ||(rho, u)||_{H^1}^2 + ETA2/r * int |u|^{r-1} u rho_x
    hstar = its exact dissipation rate,

whose discrete balance d(wstar)/dt + hstar = 0 is a second-order
identity of the scheme (checked in the tests).
"""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import RBandViolation
from ..grids import CENTERED, FOURTH_DIFFERENCE, GHOSTS, correlate, d_dx, unpad
from .march import CFL, check_nu, march, stage_weights, staged_rk4, step_size
from .waves import check_zero_mass

# The cross term's weight in the energy pair.
ETA2 = 0.5


@dataclass(frozen=True)
class PSystemSpec:
    r: float

    def __post_init__(self):
        if not 1.0 < self.r < 3.0:
            raise RBandViolation(f"damping exponent must satisfy 1 < r < 3, got {self.r}")


def compile_step(grid, r, nu, dt):
    """The RK4 step of size h = dt of the invariants (p, m), as a map of the state.

    With y the step's start, K each invariant's combined kernel and g(y) the
    damping |u|^(r-1) u, subtracted from p's rate and added to m's (the -+),
    the stages are `march.staged_rk4`'s four pre-weighted stencils:

        y2 = corr(y, I + (h/2) K) -+ (h/2) g(y)
        y3 = y + corr(y2, (h/2) K) -+ (h/2) g(y2)
        y4 = y + corr(y3, h K) -+ h g(y3)
        y+ = corr(y4, I/3 + (h/6) K) + (y2 + 2 y3 - y)/3 -+ (h/6) g(y4)
    """
    half = 1.0 / (2.0 * grid.dx)
    d_kernel = half * np.pad(CENTERED, 1)
    floor_kernel = (nu / grid.dx) * FOURTH_DIFFERENCE
    p_kernel = -d_kernel - floor_kernel
    m_kernel = d_kernel - floor_kernel
    stages = []
    for w, c in stage_weights(dt):
        kp, km = w * p_kernel, w * m_kernel
        kp[2] += c
        km[2] += c
        # w g(u) = |v|^(r-1) v with v = u w^(1/r): the weight rides in u's scale pass
        stages.append((kp, km, 0.5 * w ** (1.0 / r)))

    def stage(y, weights):
        """corr(y, kernel) -+ w g(y), GHOSTS cells shorter at each end."""
        kp, km, scale = weights
        p, m = y
        v = unpad(p, GHOSTS) - unpad(m, GHOSTS)
        v *= scale
        g = np.abs(v)
        if r != 2.0:  # pow(x, 1.0) is x: skip a full pass
            g **= r - 1.0
        g *= v
        dp = correlate(p, kp)
        dm = correlate(m, km)
        dp -= g
        dm += g
        return dp, dm

    def step(state):
        return staged_rk4(stage, stages, state)

    return step


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
    nsteps, dt = step_size(T, CFL * grid.dx, grid.N)
    if wave is not None:
        check_zero_mass(grid, rho)
    step = compile_step(grid, r, nu, dt)

    def fields(state):
        """(rho, u) = ((p + m)/2, (p - m)/2)."""
        p, m = state
        rho, u = p + m, p - m
        rho *= 0.5
        u *= 0.5
        return rho, u

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
        return row

    meta = {"scheme": "rk4-centered", "nu": nu, "r": r, "eta2": ETA2}
    return march(grid, (rho + u, rho - u), nsteps, dt, step, record, fields,
                 sample_stride, snapshot_times, meta)
