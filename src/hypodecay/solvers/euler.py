"""Damped compressible flow in symmetrized sound-speed variables.

The density equation is traded for the scaled sound speed
c = 2 sqrt(P'(rho)) / (gamma - 1), which makes the first-order system
symmetric and keeps the quadratic coupling explicit:

    c~_t + u c~_x + (gamma-1)/2 (c~ + cbar) u_x  = 0
    u_t  + u u_x  + (gamma-1)/2 (c~ + cbar) c~_x = -lambda u

with c~ = c - cbar the deviation from the background.  Friction is
split off and applied exactly (half-step factors exp(-lambda dt/2));
RK4 handles the advective part.  A fourth-difference floor keeps the
quadratic terms from ringing at the grid scale.  `compile_step` builds
the step once per run, as the p-system's is built: RK4 as four
pre-weighted stages read from one wide ghost pad per field and step,
the plain RK4 scheme up to roundoff.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import CflViolation, SmallnessBreached, VacuumApproached, rejected
from ..grids import CENTERED, FOURTH_DIFFERENCE, GHOSTS, correlate, d_dx, l2_norm, unpad
from .march import CFL, CFL_MAX, check_nu, march, stage_weights, staged_rk4, step_size
from .waves import check_zero_mass

VACUUM_FLOOR_REL = 1e-6
SPEED_HEADROOM = 1.25


@dataclass(frozen=True)
class EulerSpec:
    """Gas-law description: P(rho) = rho^gamma, friction strength lam."""

    gamma: float = 2.0
    rho_bar: float = 1.0
    lam: float = 1.0

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")
        if not self.rho_bar > 0.0:
            raise ValueError("background density must be positive")
        if not self.lam > 0.0:
            raise ValueError("friction strength must be positive")

    def dpressure(self, rho):
        return self.gamma * rho ** (self.gamma - 1.0)

    def sound(self, rho):
        """Scaled sound speed 2 sqrt(P') / (gamma - 1)."""
        return 2.0 / (self.gamma - 1.0) * np.sqrt(self.dpressure(rho))

    @property
    def c_bar(self):
        return float(self.sound(self.rho_bar))

    def density_of_sound(self, c):
        base = (self.gamma - 1.0) * c / (2.0 * np.sqrt(self.gamma))
        return base ** (2.0 / (self.gamma - 1.0))


def compile_step(grid, espec, nu, dt):
    """The step of size dt of the state (c~, u): friction half-steps
    u *= exp(-lam dt/2) around `march.staged_rk4`'s four stages.

    A stage of weights (w, c) forms corr(c~, k) + u A + hc B and
    corr(u, k) + u B + hc A, with k = c I - w (nu/dx) [1, -4, 6, -4, 1],
    A and B the correlations of c~ and u with -w [-1, 0, 1]/(2 dx), and
    hc = (gamma-1)/2 (c~ + cbar).  A step whose c~ reaches the vacuum
    floor raises VacuumApproached before its second friction half-step.
    """
    floor = VACUUM_FLOOR_REL * espec.rho_bar
    half_g = 0.5 * (espec.gamma - 1.0)
    c_bar = espec.c_bar
    c_floor = espec.sound(floor) - c_bar
    decay_half = math.exp(-0.5 * espec.lam * dt)
    d_kernel = (1.0 / (2.0 * grid.dx)) * CENTERED
    floor_kernel = (nu / grid.dx) * FOURTH_DIFFERENCE
    stages = []
    for w, c in stage_weights(dt):
        k = -w * floor_kernel
        k[2] += c
        stages.append((k, -w * d_kernel))

    def stage(y, weights):
        """The stage's (c~', u'), GHOSTS cells shorter at each end than y."""
        k, kd = weights
        pc, pu = y
        a = correlate(pc, kd)
        b = correlate(pu, kd)
        dc = correlate(pc, k)
        du = correlate(pu, k)
        u = unpad(pu, GHOSTS)
        hc = unpad(pc, GHOSTS) + c_bar
        hc *= half_g
        tmp = u * a
        dc += tmp
        np.multiply(hc, b, out=tmp)
        dc += tmp
        b *= u
        du += b
        a *= hc
        du += a
        return dc, du

    def step(state):
        ct, u = state
        ct, u = staged_rk4(stage, stages, (ct, u * decay_half))
        if float(ct.min()) <= c_floor:
            raise VacuumApproached(f"density reached the floor {floor:.3e}")
        u *= decay_half
        return ct, u

    return step


def simulate_euler(espec, grid, rho0, u0, T, nu=0.0, sample_stride=1,
                   smallness_cap=0.5, weight=None, wave=None, snapshot_times=()):
    """Integrate to T; record decay channels on the (rho - rho_bar, u) pair.

    Channels: n_l2, u_l2, dx_l2 (joint gradient), h2_sym (sound-speed
    variables), h2_raw (physical perturbation, smallness-monitored),
    x_func (a-priori functional with trapezoid time quadrature), mass_n,
    plus optional weighted and wave-energy channels.  Aborts with
    SmallnessBreached / VacuumApproached / CflViolation diagnostics.
    """
    check_nu(nu)
    rho = np.array(rho0, dtype=float)
    u = np.array(u0, dtype=float)
    if rho.shape != (grid.N,) or u.shape != (grid.N,):
        raise ValueError("rho0, u0 must be scalar fields on the grid")
    floor = VACUUM_FLOOR_REL * espec.rho_bar
    if rho.min() <= floor:
        raise rejected(VacuumApproached(f"initial density reaches {rho.min():.3e}"))

    half_g = 0.5 * (espec.gamma - 1.0)
    c_bar = espec.c_bar
    ct = espec.sound(rho) - c_bar

    speed0 = float((np.abs(u) + half_g * (ct + c_bar)).max())
    speed_ref = SPEED_HEADROOM * max(speed0, half_g * c_bar)
    nsteps, dt = step_size(T, CFL * grid.dx / speed_ref, grid.N)

    if wave is not None:
        check_zero_mass(grid, rho - espec.rho_bar)
    step = compile_step(grid, espec, nu, dt)

    w2 = None if weight is None else weight.values(grid.x) ** 2
    x_integral = 0.0
    prev_integrand = None
    prev_t = None

    def record(t, state):
        nonlocal x_integral, prev_integrand, prev_t
        ct, u = state
        c = ct + c_bar
        rho_now = espec.density_of_sound(c)
        n = rho_now - espec.rho_bar
        dn, du_ = d_dx(grid, n), d_dx(grid, u)
        d2n, d2u = d_dx(grid, dn), d_dx(grid, du_)
        dct = d_dx(grid, ct)
        d2ct = d_dx(grid, dct)
        n_l2 = l2_norm(grid, n)
        u_l2 = l2_norm(grid, u)
        dn2 = float(grid.qw @ (dn * dn))
        du2 = float(grid.qw @ (du_ * du_))
        d2n2 = float(grid.qw @ (d2n * d2n))
        d2u2 = float(grid.qw @ (d2u * d2u))
        dx_l2 = math.sqrt(dn2 + du2)
        h2_raw = math.sqrt(n_l2**2 + u_l2**2 + dn2 + du2 + d2n2 + d2u2)
        h2_sym = math.sqrt(
            float(grid.qw @ (ct * ct + u * u))
            + float(grid.qw @ (dct * dct + du_ * du_))
            + float(grid.qw @ (d2ct * d2ct + d2u * d2u))
        )
        integrand = (dn2 + d2n2) + (u_l2**2 + du2 + d2u2) + t * du2
        if prev_t is not None:
            x_integral += 0.5 * (t - prev_t) * (integrand + prev_integrand)
        prev_t, prev_integrand = t, integrand
        x_func = h2_raw**2 + t * u_l2**2 + t * dx_l2**2 + x_integral
        row = {
            "n_l2": n_l2,
            "u_l2": u_l2,
            "dx_l2": dx_l2,
            "h2_sym": h2_sym,
            "h2_raw": h2_raw,
            "x_func": x_func,
            "mass_n": float(grid.qw @ n),
        }
        if weight is not None:
            row["weighted_l2"] = math.sqrt(float(grid.qw @ (w2 * (n * n + u * u))))
        if wave is not None:
            we, wh = wave.record(grid, t, wave.stack(grid, (n, rho_now * u)))
            row["wave_energy"] = we
            row["wave_dissipation"] = wh
        if h2_raw > smallness_cap:
            raise SmallnessBreached(
                f"perturbation size {h2_raw:.4f} exceeds cap {smallness_cap} at t={t:.4g}"
            )
        speed = float((np.abs(u) + half_g * c).max())
        if speed * dt / grid.dx > CFL_MAX:
            raise CflViolation(
                f"wave speed {speed:.3f} at t={t:.4g} violates the step budget"
            )
        return row

    def fields(state):
        """(n, u): the density perturbation rho - rho_bar and the velocity."""
        ct, u = state
        return espec.density_of_sound(ct + c_bar) - espec.rho_bar, u

    meta = {"scheme": "strang-exp/rk4-centered", "nu": nu, "smallness_cap": smallness_cap}
    return march(grid, (ct, u), nsteps, dt, step, record, fields, sample_stride,
                 snapshot_times, meta)
