"""Time integrators, each checked against a route the scheme never uses:
exact propagators, Fourier-mode matrix exponentials, closed-form heat
kernels, and refinement of discrete balance identities.
"""

import platform

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from hypodecay.analysis import check_energy_law, check_monotone
from hypodecay.errors import (
    CflViolation,
    DomainEscape,
    InitialDataRejected,
    NonFiniteState,
    RBandViolation,
    RunTooCostly,
    SmallnessBreached,
    VacuumApproached,
)
from hypodecay.corrector import select_coefficients
from hypodecay.grids import (CENTERED, FOURTH_DIFFERENCE, Grid1D, WeightSpec, correlate, d_dx,
                             ghost_pad, inner, l2_norm)
from hypodecay.linalg import SystemSpec, expm_sym
from hypodecay.solvers import euler as euler_module
from hypodecay.solvers import heat as heat_module
from hypodecay.solvers import linear as linear_module
from hypodecay.solvers import march as march_module
from hypodecay.solvers import psystem as psystem_module
from hypodecay.solvers.euler import EulerSpec, simulate_euler
from hypodecay.solvers.heat import heat_solve
from hypodecay.solvers.linear import (
    REACH,
    LinearSim,
    advection_rhs,
    compile_step,
    damping_half_step,
    simulate_linear,
)
from hypodecay.solvers.march import CFL, march, rk4, step_size
from hypodecay.solvers.psystem import ETA2, PSystemSpec, simulate_psystem

STANDARD = SystemSpec(A=np.array([[0.0, 1.0], [1.0, 0.0]]),
                      D=np.array([[1.0]]), n1=1)
# The three systems of the linear registry scenarios.
REGISTRY_SYSTEMS = {
    "standard": STANDARD,
    "stiff": SystemSpec(A=np.array([[0.0, 1.0], [1.0, 0.0]]), D=np.array([[32.0]]), n1=1),
    "degenerate": SystemSpec(A=np.array([[1.0, 0.0], [0.0, -1.0]]), D=np.array([[1.0]]), n1=1),
}


# --- the shared RK4 stage sequence -------------------------------------------


def test_rk4_matches_textbook_formula_and_keeps_state():
    rng = np.random.default_rng(7)
    state = (rng.standard_normal(33), rng.standard_normal((33, 2)))
    kept = tuple(y.copy() for y in state)
    dt = 0.037

    def rhs(y):
        a, b = y
        return np.sin(b[:, 0]) * a - a**3, np.cos(b) + a[:, None] * b

    def shifted(a, k):
        return tuple(y + a * ky for y, ky in zip(state, k))

    k1 = rhs(state)
    k2 = rhs(shifted(0.5 * dt, k1))
    k3 = rhs(shifted(0.5 * dt, k2))
    k4 = rhs(shifted(dt, k3))
    want = tuple(
        y + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)
        for y, a, b, c, d in zip(state, k1, k2, k3, k4)
    )
    got = rk4(rhs, state, dt)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert all(np.array_equal(y, y0) for y, y0 in zip(state, kept))


# --- linear system --------------------------------------------------------


def test_linear_zero_data_stays_zero():
    grid = Grid1D(L=10.0, N=64, bc="periodic")
    sim = LinearSim(spec=STANDARD, grid=grid)
    series, _ = simulate_linear(sim, np.zeros((64, 2)), T=3.0)
    for name in ("l2", "u1_l2", "u2_l2", "dx_l2", "dissipation"):
        assert np.all(series.channel(name) == 0.0)


def test_linear_pure_relaxation_is_exact():
    """With A = 0 the split scheme reduces to the exact exponential."""
    spec = SystemSpec(A=np.zeros((2, 2)), D=np.array([[3.0]]), n1=1)
    grid = Grid1D(L=10.0, N=64, bc="periodic")
    U0 = np.stack([np.exp(-grid.x**2), 0.7 * np.exp(-grid.x**2)], axis=1)
    sim = LinearSim(spec=spec, grid=grid)
    _, snaps = simulate_linear(sim, U0, T=2.0, snapshot_times=(2.0,))
    UT = snaps[2.0]
    assert np.array_equal(UT[:, 0], U0[:, 0])
    expected = np.exp(-6.0) * U0[:, 1]
    assert np.abs(UT[:, 1] - expected).max() <= 1e-13 * np.abs(expected).max()


def test_linear_fourier_mode_second_order():
    """Single-mode runs against the exact 2x2 semigroup, two refinements."""
    k, T = 2.0, 1.0
    vhat = np.array([1.0, 0.5], dtype=complex)
    exact_factor = expm(-(1j * k * STANDARD.A + STANDARD.B) * T) @ vhat
    errs = []
    for N in (64, 128, 256):
        grid = Grid1D(L=np.pi, N=N, bc="periodic")
        phase = np.exp(1j * k * grid.x)
        U0 = np.real(phase[:, None] * vhat[None, :])
        sim = LinearSim(spec=STANDARD, grid=grid)
        _, snaps = simulate_linear(sim, U0, T, snapshot_times=(T,))
        Uex = np.real(phase[:, None] * exact_factor[None, :])
        errs.append(np.abs(snaps[T] - Uex).max())
    assert 3.4 < errs[0] / errs[1] < 4.6
    assert 3.4 < errs[1] / errs[2] < 4.6


def test_linear_discrete_mean_dynamics():
    """Centered differences have zero mean on periodic grids, so the
    undamped mean is conserved up to the roundoff of summing the step, at
    most 1e-14 of qw @ |u1|, for Gaussian and seeded random data alike,
    and the damped mean of the Gaussian data obeys the scalar relaxation
    law."""
    grid = Grid1D(L=30.0, N=256, bc="periodic")
    gaussian = np.stack(
        [np.exp(-grid.x**2), 0.5 * np.exp(-((grid.x - 3.0) ** 2))], axis=1
    )
    sim = LinearSim(spec=STANDARD, grid=grid)
    T = 5.0
    for seed in (None, 3, 4):
        U0 = gaussian if seed is None else np.random.default_rng(seed).standard_normal((grid.N, 2))
        _, snaps = simulate_linear(sim, U0, T, snapshot_times=(T,))
        m0 = grid.qw @ U0
        mT = grid.qw @ snaps[T]
        assert abs(mT[0] - m0[0]) <= 1e-14 * (grid.qw @ np.abs(U0[:, 0])), seed
        if seed is None:
            assert mT[1] == pytest.approx(np.exp(-T) * m0[1], rel=1e-13)


def test_linear_energy_law_residual():
    grid = Grid1D(L=30.0, N=256, bc="periodic")
    U0 = np.stack(
        [np.exp(-grid.x**2), 0.5 * np.exp(-((grid.x - 3.0) ** 2))], axis=1
    )
    sim = LinearSim(spec=STANDARD, grid=grid)
    series, _ = simulate_linear(sim, U0, T=5.0)
    out = check_energy_law(series)
    assert out["max_residual"] <= 0.02 * series.channel("l2")[0] ** 2


def test_linear_guards():
    grid = Grid1D(L=10.0, N=64, bc="periodic")
    sim = LinearSim(spec=STANDARD, grid=grid)
    with pytest.raises(CflViolation):
        compile_step(sim, 2.0 * sim.dt)
    with pytest.raises(ValueError):
        simulate_linear(sim, np.zeros((64, 3)), T=1.0)
    with pytest.raises(ValueError):
        simulate_linear(sim, np.zeros((64, 2)), T=0.0)


def _start_explicit_solver(solver, nu):
    grid = Grid1D(L=10.0, N=64, bc="periodic")
    bump = np.exp(-grid.x**2)
    if solver == "euler":
        simulate_euler(EulerSpec(), grid, 1.0 + 0.01 * bump, 0.0 * bump, T=0.1, nu=nu)
    else:
        simulate_psystem(PSystemSpec(r=2.0), grid, 0.01 * bump, 0.0 * bump, T=0.1, nu=nu)


@pytest.mark.parametrize("solver", ["euler", "psystem"])
def test_explicit_solvers_reject_negative_nu(solver):
    with pytest.raises(ValueError, match="nu"):
        _start_explicit_solver(solver, -0.01)


@pytest.mark.parametrize("solver", ["euler", "psystem"])
def test_explicit_solvers_reject_nan_nu(solver):
    with pytest.raises(ValueError, match="nu"):
        _start_explicit_solver(solver, float("nan"))


def test_linear_compact_run_escapes():
    # the pulse hits the artificial boundary well before T
    grid = Grid1D(L=20.0, N=256, bc="compact_support")
    U0 = np.stack([np.exp(-((grid.x / 2.0) ** 2)), np.zeros(256)], axis=1)
    sim = LinearSim(spec=STANDARD, grid=grid)
    with pytest.raises(DomainEscape):
        simulate_linear(sim, U0, T=25.0)


def test_linear_snapshot_at_start():
    grid = Grid1D(L=10.0, N=64, bc="periodic")
    U0 = np.stack([np.exp(-grid.x**2), np.zeros(64)], axis=1)
    sim = LinearSim(spec=STANDARD, grid=grid)
    series, snaps = simulate_linear(sim, U0, T=1.0, snapshot_times=(0.0, 1.0))
    assert np.array_equal(snaps[0.0], U0)
    assert set(snaps) == {0.0, 1.0}
    assert series.meta["scheme"] == "strang-exp/rk4-centered"


# --- damped compressible flow --------------------------------------------


def test_euler_spec_validation():
    with pytest.raises(ValueError):
        EulerSpec(gamma=1.0)
    with pytest.raises(ValueError):
        EulerSpec(rho_bar=0.0)
    with pytest.raises(ValueError):
        EulerSpec(lam=0.0)


def test_euler_sound_speed_oracles():
    es = EulerSpec(gamma=2.0, rho_bar=1.0, lam=1.0)
    assert es.c_bar == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-14)
    rho = np.array([0.5, 1.0, 1.7])
    assert es.density_of_sound(es.sound(rho)) == pytest.approx(rho, rel=1e-13)
    es3 = EulerSpec(gamma=3.0)
    assert es3.density_of_sound(es3.sound(rho)) == pytest.approx(rho, rel=1e-13)


def test_euler_constant_state_is_equilibrium():
    es = EulerSpec(lam=5.0)
    grid = Grid1D(L=40.0, N=256, bc="periodic")
    series, _ = simulate_euler(
        es, grid, np.full(256, 1.05), np.zeros(256), T=2.0
    )
    assert np.all(series.channel("u_l2") == 0.0)
    assert np.ptp(series.channel("n_l2")) == 0.0
    assert np.all(series.channel("dx_l2") == 0.0)


def test_euler_friction_drains_velocity():
    es = EulerSpec(lam=5.0)
    grid = Grid1D(L=40.0, N=512, bc="periodic")
    u0 = 0.05 * np.exp(-((grid.x / 4.0) ** 2))
    series, _ = simulate_euler(es, grid, np.ones(512), u0, T=1.0, nu=0.01)
    ul2 = series.channel("u_l2")
    assert ul2[-1] < 0.05 * ul2[0]


def test_euler_mass_nearly_conserved():
    es = EulerSpec()
    grid = Grid1D(L=40.0, N=512, bc="periodic")
    rho0 = 1.0 + 0.01 * np.exp(-((grid.x / 6.0) ** 2))
    series, _ = simulate_euler(es, grid, rho0, np.zeros(512), T=2.0)
    mass = series.channel("mass_n")
    assert np.abs(mass - mass[0]).max() < 1e-9


def test_euler_smallness_monitor():
    es = EulerSpec()
    grid = Grid1D(L=40.0, N=256, bc="periodic")
    rho0 = 1.0 + 0.9 * np.exp(-((grid.x / 6.0) ** 2))
    with pytest.raises(SmallnessBreached):
        simulate_euler(es, grid, rho0, np.zeros(256), T=1.0, smallness_cap=0.5)


def test_euler_vacuum_guard():
    es = EulerSpec()
    grid = Grid1D(L=40.0, N=256, bc="periodic")
    with pytest.raises(VacuumApproached):
        simulate_euler(es, grid, np.full(256, 5e-7), np.zeros(256), T=1.0)


def test_euler_step_guards():
    es = EulerSpec()
    grid = Grid1D(L=40.0, N=256, bc="periodic")
    ones = np.ones(256)
    with pytest.raises(ValueError):
        simulate_euler(es, grid, ones, np.zeros(128), T=1.0)
    with pytest.raises(ValueError):
        simulate_euler(es, grid, ones, np.zeros(256), T=-1.0)


def test_euler_vacuum_guard_fires_mid_run():
    """A velocity that pulls the gas apart at x = 0 drives the density to the
    floor after the first step: the step's own guard raises, not the t = 0
    check of the initial data."""
    grid = Grid1D(L=20.0, N=256, bc="periodic")
    u0 = 4.0 * np.tanh(2.0 * grid.x) * np.exp(-((grid.x / 8.0) ** 2))
    with pytest.raises(VacuumApproached, match="density reached the floor 1.000e-06") as info:
        simulate_euler(EulerSpec(lam=0.01), grid, np.ones(256), u0, T=4.0, nu=0.01,
                       smallness_cap=1e9)
    assert not isinstance(info.value, InitialDataRejected)


def _euler_symbol_residual(eps):
    """Relative L2 distance at T between a periodic Euler run from
    rho0 = 1 + eps exp(-(x/3)^2), u0 = 0 and its scheme's linearization:
    the Fourier symbol G(theta) = E R4(dt L(theta)) E applied n_steps times,
    with E = diag(1, exp(-lam dt/2)) and, in (c~, u),
    L = [[-F, -i h cbar S], [-i h cbar S, -F]], h = (gamma - 1)/2,
    S = sin(theta)/dx, F = (nu/dx)(2 - 2 cos(theta))^2."""
    es, nu, T = EulerSpec(gamma=2.0, lam=1.0), 0.01, 20.0
    grid = Grid1D(L=40.0, N=512, bc="periodic")
    rho0 = 1.0 + eps * np.exp(-((grid.x / 3.0) ** 2))
    series, snaps = simulate_euler(es, grid, rho0, np.zeros(grid.N), T=T, nu=nu,
                                   sample_stride=10**9, snapshot_times=(T,))
    dt, nsteps = series.meta["dt_step"], series.meta["n_steps"]
    n, u = snaps[T].T
    c_bar, h, dx = es.c_bar, 0.5 * (es.gamma - 1.0), grid.dx
    theta = 2.0 * np.pi * np.fft.fftfreq(grid.N)
    L = np.zeros((grid.N, 2, 2), dtype=complex)
    L[:, 0, 0] = L[:, 1, 1] = -(nu / dx) * (2.0 - 2.0 * np.cos(theta)) ** 2
    L[:, 0, 1] = L[:, 1, 0] = -1j * h * c_bar * np.sin(theta) / dx
    Z, I = dt * L, np.eye(2)
    E = np.diag([1.0, np.exp(-0.5 * es.lam * dt)])
    G = E @ (I + Z @ (I + Z @ (I / 2 + Z @ (I / 6 + Z / 24)))) @ E
    y0 = np.stack([np.fft.fft(es.sound(rho0) - c_bar), np.zeros(grid.N)], axis=1)
    want = np.fft.ifft(np.einsum("mij,mj->mi", np.linalg.matrix_power(G, nsteps), y0),
                       axis=0).real
    got = np.stack([es.sound(es.rho_bar + n) - c_bar, u], axis=1)
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def test_small_euler_runs_are_their_fourier_symbol():
    """At amplitude eps a periodic run is its scheme's linearization plus the
    quadratic terms' residual, of relative order eps: doubling eps doubles
    the residual (2.0001 measured at eps = 1e-5, the residual 1.2e-6).  A
    wrong linear coefficient leaves a residual that does not shrink with
    eps; at eps = 1e-5 the floor scaled by 2 gives a ratio of 1.91.  Below
    eps = 1e-6 the roundoff, about 2e-8 of the state, takes over."""
    r1, r2 = _euler_symbol_residual(1e-5), _euler_symbol_residual(2e-5)
    assert r1 < 2e-6
    assert r2 / r1 == pytest.approx(2.0, abs=0.01)


# --- degenerate-damping wave pair -----------------------------------------


def test_psystem_spec_band():
    with pytest.raises(RBandViolation):
        PSystemSpec(r=1.0)
    with pytest.raises(RBandViolation):
        PSystemSpec(r=3.0)


def test_psystem_zero_data():
    grid = Grid1D(L=20.0, N=128, bc="periodic")
    series, _ = simulate_psystem(
        PSystemSpec(r=2.0), grid, np.zeros(128), np.zeros(128), T=2.0
    )
    assert np.all(series.channel("h1") == 0.0)
    assert np.all(series.channel("hstar") == 0.0)


@pytest.mark.parametrize("r", [2.0, 2.5])
def test_psystem_record_matches_its_written_out_formulas_bitwise(r):
    """The record's channels against the energy pair written out term by
    term, on the state of the first and the last sample."""
    grid = Grid1D(L=10.0, N=128, bc="periodic")
    x = grid.x
    series, snaps = simulate_psystem(PSystemSpec(r=r), grid, -x * np.exp(-x**2 / 4.0),
                                     0.3 * np.exp(-x**2 / 4.0), T=0.5, sample_stride=1000,
                                     snapshot_times=(0.0, 0.5))
    for k, t in ((0, 0.0), (-1, 0.5)):
        rho, u = snaps[t].T
        dr, du = d_dx(grid, rho), d_dx(grid, u)
        q = grid.qw
        a = np.abs(u) ** (r - 1.0)
        l22 = float(q @ (rho * rho + u * u))
        dl22 = float(q @ (dr * dr + du * du))
        lrp1 = float(q @ (a * u * u))
        want = {
            "l2": np.sqrt(l22), "h1": np.sqrt(l22 + dl22), "dx_l2": np.sqrt(dl22),
            "lrp1": lrp1, "dissipation": 2.0 * lrp1,
            "wstar": l22 + dl22 + ETA2 * (float(q @ (a * u * dr)) / r),
            "hstar": 2.0 * lrp1 + 2.0 * r * float(q @ (a * du * du)) + ETA2 * (
                float(q @ (a * dr * dr)) + float(q @ (a * a * u * dr))
                - float(q @ (a * du * du))),
        }
        assert {name: series.channel(name)[k] for name in want} == want


def _rho_u(state):
    p, m = state
    return (p + m) * 0.5, (p - m) * 0.5


def test_psystem_damping_at_r2_skips_the_unit_power_bitwise():
    """At r = 2 each stage forms its weighted damping w |u|^(r-1) u without the
    power pass; pow(x, 1.0) is x, so the run matches the same stage sequence
    with the unguarded expression bit for bit.  The oracle writes the four
    pre-weighted stages out on the invariants p = rho + u and m = rho - u,
    from one pad of 8 wrap cells per field and step."""
    grid = Grid1D(L=20.0, N=128, bc="periodic")
    rho0 = -0.1 * grid.x * np.exp(-grid.x**2)
    u0 = 0.05 * np.exp(-grid.x**2)
    r, nu, T = 2.0, 0.01, 0.5
    half = 1.0 / (2.0 * grid.dx)
    d = half * np.pad(CENTERED, 1)
    floor = (nu / grid.dx) * FOURTH_DIFFERENCE

    def stage(p, m, w, c):
        kp, km = w * (-d - floor), w * (d - floor)
        kp[2] += c
        km[2] += c
        v = (p[2:-2] - m[2:-2]) * (0.5 * w ** (1.0 / r))
        g = np.abs(v) ** (r - 1.0) * v
        return np.correlate(p, kp) - g, np.correlate(m, km) + g

    def step(state, h):
        p, m = (np.concatenate((f[-8:], f, f[:8])) for f in state)
        p2, m2 = stage(p, m, 0.5 * h, 1.0)
        p3, m3 = stage(p2, m2, 0.5 * h, 0.0)
        p3, m3 = p3 + p[4:-4], m3 + m[4:-4]
        p4, m4 = stage(p3, m3, h, 0.0)
        p4, m4 = p4 + p[6:-6], m4 + m[6:-6]
        p5, m5 = stage(p4, m4, h / 6.0, 1.0 / 3.0)
        return (p5 + (2.0 * p3[4:-4] + p2[6:-6] - p[8:-8]) * (1.0 / 3.0),
                m5 + (2.0 * m3[4:-4] + m2[6:-6] - m[8:-8]) * (1.0 / 3.0))

    nsteps, dt = step_size(T, CFL * grid.dx, grid.N)
    _, ref = march(grid, (rho0 + u0, rho0 - u0), nsteps, dt, lambda s: step(s, dt),
                   lambda t, s: {}, _rho_u, 1, (T,), {})
    _, snaps = simulate_psystem(PSystemSpec(r=r), grid, rho0, u0, T=T, nu=nu,
                                snapshot_times=(T,))
    assert snaps[T].tobytes() == ref[T].tobytes()


@pytest.mark.parametrize("bc", ["periodic", "compact_support"])
@pytest.mark.parametrize("r, nu", [(1.5, 0.01), (2.0, 0.0), (2.0, 0.01), (2.5, 0.01)])
def test_psystem_invariant_steps_match_the_rho_u_scheme(bc, r, nu):
    """Stepping p = rho + u and m = rho - u is the RK4 scheme of the (rho, u)
    right-hand side up to roundoff.  The data put tails of about 1e-11 on the end
    rows of a compact grid, which both schemes step as a ring of its nodes;
    p's tail sits on the left and m's on the right, so both flow inward and
    the run never escapes."""
    grid = Grid1D(L=10.0, N=256, bc=bc)
    p0 = np.exp(-(((grid.x + 4.0) / 1.19) ** 2))
    m0 = -0.5 * np.exp(-(((grid.x - 4.0) / 1.19) ** 2))
    rho0, u0 = 0.5 * (p0 + m0), 0.5 * (p0 - m0)
    T = 0.5
    minus_dx = (-1.0 / (2.0 * grid.dx)) * CENTERED
    floor = (nu / grid.dx) * FOURTH_DIFFERENCE

    def rhs(state):
        rho, u = state
        pr, pu = ghost_pad(rho), ghost_pad(u)
        drho = correlate(pu, minus_dx) - correlate(pr, floor)
        du = correlate(pr, minus_dx) - np.abs(u) ** (r - 1.0) * u - correlate(pu, floor)
        return drho, du

    nsteps, dt = step_size(T, CFL * grid.dx, grid.N)
    _, ref = march(grid, (rho0, u0), nsteps, dt, lambda s: rk4(rhs, s, dt),
                   lambda t, s: {}, lambda s: s, 1, (T,), {})
    _, snaps = simulate_psystem(PSystemSpec(r=r), grid, rho0, u0, T=T, nu=nu,
                                snapshot_times=(T,))
    assert np.abs(ref[T]).max() > 0.1
    err = np.abs(snaps[T] - ref[T]).max(axis=0) / np.abs(ref[T]).max(axis=0)
    assert np.all(err <= 1e-13), err


@pytest.mark.parametrize("bc", ["periodic", "compact_support"])
@pytest.mark.parametrize("gamma, nu", [(1.4, 0.0), (1.4, 0.01), (2.0, 0.0), (2.0, 0.01)])
def test_euler_staged_steps_match_the_plain_rk4_scheme(bc, gamma, nu):
    """The compiled step's four pre-weighted stages, with the identity and the
    floor folded into one kernel, are the plain RK4 scheme of
    -(u ctx + half_g c ux) and its partner up to roundoff: within 1e-13 of
    each component's largest value (1.6e-14 measured)."""
    es = EulerSpec(gamma=gamma)  # half_g = 0.2 at 1.4: scaling by it rounds
    grid = Grid1D(L=20.0, N=128, bc=bc)
    rho0 = 1.0 + 0.05 * np.exp(-grid.x**2)
    u0 = 0.03 * grid.x * np.exp(-grid.x**2)
    T = 0.5
    half_g, c_bar = 0.5 * (es.gamma - 1.0), es.c_bar
    ct0 = es.sound(rho0) - c_bar
    speed = euler_module.SPEED_HEADROOM * max(
        float((np.abs(u0) + half_g * (ct0 + c_bar)).max()), half_g * c_bar)
    nsteps, dt = step_size(T, CFL * grid.dx / speed, grid.N)
    decay = np.exp(-0.5 * es.lam * dt)
    plus_dx = (1.0 / (2.0 * grid.dx)) * CENTERED
    floor = (nu / grid.dx) * FOURTH_DIFFERENCE

    def rhs(state):
        ct, u = state
        pc, pu = ghost_pad(ct), ghost_pad(u)
        ctx, ux = correlate(pc, plus_dx), correlate(pu, plus_dx)
        c = ct + c_bar
        return (-(u * ctx + half_g * c * ux) - correlate(pc, floor),
                -(u * ux + half_g * c * ctx) - correlate(pu, floor))

    def step(state):
        ct, u = rk4(rhs, (state[0], state[1] * decay), dt)
        return ct, u * decay

    _, ref = march(grid, (ct0, u0), nsteps, dt, step, lambda t, s: {},
                   lambda s: (es.density_of_sound(s[0] + c_bar) - es.rho_bar, s[1]),
                   1, (T,), {})
    _, snaps = simulate_euler(es, grid, rho0, u0, T=T, nu=nu, snapshot_times=(T,))
    err = np.abs(snaps[T] - ref[T]).max(axis=0) / np.abs(ref[T]).max(axis=0)
    assert np.all(err <= 1e-13), err


def test_euler_step_pads_once_and_makes_sixteen_correlations(monkeypatch):
    """One step pads c~ and e u once each and makes four correlations per
    stage: the 5-tap kernel and the derivative, on each field."""
    grid = Grid1D(L=20.0, N=128, bc="periodic")
    es = EulerSpec()
    step = euler_module.compile_step(grid, es, 0.01, 0.01)
    counts = {"pad": 0, "correlate": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(march_module, "ghost_pad", counted("pad", march_module.ghost_pad))
    monkeypatch.setattr(np, "correlate", counted("correlate", np.correlate))
    step((es.sound(1.0 + 0.01 * np.exp(-grid.x**2)) - es.c_bar, np.zeros(grid.N)))
    assert counts == {"pad": 2, "correlate": 16}


def _psystem_balance_resid(N):
    grid = Grid1D(L=50.0, N=N, bc="periodic")
    rho0 = 0.1 * np.exp(-((grid.x / 3.0) ** 2)) * (-2.0 * grid.x / 9.0)
    u0 = 0.05 * np.exp(-((grid.x / 4.0) ** 2))
    series, _ = simulate_psystem(
        PSystemSpec(r=2.0), grid, rho0, u0, T=2.0
    )
    W = series.channel("wstar")
    H = series.channel("hstar")
    t = series.t
    dW = (W[2:] - W[:-2]) / (t[2:] - t[:-2])
    return np.abs(dW + H[1:-1]).max()


def test_psystem_energy_pair_balance_refines():
    """d(wstar)/dt + hstar = 0 must hold to second order in the grid."""
    r1 = _psystem_balance_resid(256)
    r2 = _psystem_balance_resid(512)
    r3 = _psystem_balance_resid(1024)
    assert 3.2 < r1 / r2 < 4.8
    assert 3.2 < r2 / r3 < 4.8


def test_psystem_small_data_dissipates():
    grid = Grid1D(L=100.0, N=1024, bc="periodic")
    rho0 = -0.2 * grid.x / 9.0 * np.exp(-((grid.x / 3.0) ** 2))
    u0 = 0.1 * np.exp(-((grid.x / 4.0) ** 2))
    series, _ = simulate_psystem(
        PSystemSpec(r=2.0), grid, rho0, u0, T=10.0, nu=0.01
    )
    h1 = check_monotone(series, "h1", tol_rel=1e-6)
    assert h1["max_increase"] <= h1["allowed"]
    assert series.channel("hstar").min() > 0.0
    assert np.array_equal(series.channel("dissipation"),
                          2.0 * series.channel("lrp1"))


# --- diffusion oracle ------------------------------------------------------


def test_heat_gaussian_closed_form():
    """Periodic CN run against ||u(t)|| = (pi/2)^{1/4} (1+4t)^{-1/4}."""
    grid = Grid1D(L=50.0, N=1024, bc="periodic")
    series, _ = heat_solve(grid, np.exp(-grid.x**2), T=20.0)
    exact = (np.pi / 2.0) ** 0.25 * (1.0 + 4.0 * series.t) ** -0.25
    rel = np.abs(series.channel("l2") - exact) / exact
    assert rel.max() < 1e-3


def test_heat_rate_error_refines():
    rels = []
    for N in (512, 1024):
        grid = Grid1D(L=50.0, N=N, bc="periodic")
        series, _ = heat_solve(grid, np.exp(-grid.x**2), T=10.0)
        exact = (np.pi / 2.0) ** 0.25 * (1.0 + 4.0 * series.t) ** -0.25
        rels.append((np.abs(series.channel("l2") - exact) / exact).max())
    assert 3.2 < rels[0] / rels[1] < 4.8


def test_heat_mass_conserved_periodic():
    grid = Grid1D(L=50.0, N=1024, bc="periodic")
    series, _ = heat_solve(grid, np.exp(-grid.x**2), T=20.0)
    mass = series.channel("mass")
    assert np.abs(mass - mass[0]).max() < 1e-11


def test_heat_zero_data():
    grid = Grid1D(L=20.0, N=128, bc="periodic")
    series, _ = heat_solve(grid, np.zeros(128), T=1.0)
    assert np.all(series.channel("l2") == 0.0)


def test_heat_compact_run_obeys_the_window():
    """A compact run steps the ring until its data reach the ends, and then
    stops with DomainEscape, as every solver's does."""
    grid = Grid1D(L=30.0, N=512, bc="compact_support")
    series, snaps = heat_solve(grid, np.exp(-grid.x**2), T=5.0,
                               snapshot_times=(5.0,))
    uT = snaps[5.0][:, 0]
    assert max(abs(uT[0]), abs(uT[-1])) <= 1e-10
    l2 = series.channel("l2")
    assert l2[-1] < 0.5 * l2[0]
    with pytest.raises(DomainEscape, match="boundary amplitude"):
        heat_solve(grid, np.exp(-grid.x**2), T=40.0)
    with pytest.raises(DomainEscape, match="t=0"):
        heat_solve(grid, np.ones(grid.N), T=1.0)


def test_heat_weighted_channel():
    grid = Grid1D(L=20.0, N=256, bc="periodic")
    series, _ = heat_solve(grid, np.exp(-grid.x**2), T=1.0,
                           weight=WeightSpec("power", mu=1.0))
    assert "weighted_l2" in series.channels


@pytest.mark.parametrize("N", [16, 63])
@pytest.mark.parametrize("bc", ["periodic", "compact_support"])
def test_heat_matches_dense_crank_nicolson(bc, N):
    """Three steps against (I - r L) u' = (I + r L) u solved densely, L the
    ring's Laplacian on either grid.

    Compact data are a bump at the middle node of a window wide enough
    (dt / dx^2 = 1 / dx small) that the three steps keep its ends under
    the escape budget.
    """
    rng = np.random.default_rng(N)
    if bc == "periodic":
        grid = Grid1D(L=10.0, N=N, bc=bc)
        u0 = 1.0 + rng.random(N)
    else:
        grid = Grid1D(L=25.0 * N, N=N, bc=bc)
        u0 = (1.0 + rng.random(N)) * np.exp(-4.0 * (np.arange(N) - N // 2) ** 2.0)
    T = 3.0 * grid.dx
    series, snaps = heat_solve(grid, u0, T=T, snapshot_times=(T,))
    assert series.meta["n_steps"] == 3
    r = 0.5 * series.meta["dt_step"] / grid.dx**2
    L = np.eye(N, k=1) + np.eye(N, k=-1) - 2.0 * np.eye(N)
    L[0, -1] = L[-1, 0] = 1.0
    u = u0
    for _ in range(3):
        u = np.linalg.solve(np.eye(N) - r * L, u + r * (L @ u))
    np.testing.assert_allclose(snaps[T][:, 0], u, rtol=1e-12, atol=1e-15 * np.abs(u).max())


@st.composite
def one_heat_step(draw):
    """(grid, u0, T): one step of dt = T = rho dx^2 <= dx.  A compact grid
    has N >= 64 nodes, rho <= 1 and data on its middle 8 nodes, so that the
    step keeps its ends under the escape budget."""
    bc = draw(st.sampled_from(["periodic", "compact_support"]))
    compact = bc == "compact_support"
    N = draw(st.integers(64 if compact else 16, 256))
    dx = draw(st.floats(0.01, 1.0))
    grid = Grid1D(L=0.5 * dx * (N - compact), N=N, bc=bc)
    rho = draw(st.floats(1e-6, 1.0 if compact else 1.0 / grid.dx))
    values = st.floats(-1.0, 1.0, allow_subnormal=False)
    u0 = np.zeros(N)
    if compact:
        u0[N // 2 - 4:N // 2 + 4] = draw(st.lists(values, min_size=8, max_size=8))
    else:
        u0[:] = draw(st.lists(values, min_size=N, max_size=N))
    return grid, u0, rho * grid.dx**2


@settings(max_examples=60, deadline=None)
@given(case=one_heat_step())
def test_heat_step_multipliers_lie_in_the_unit_interval(case):
    """Each mode's multiplier, read off one step of a unit impulse at the
    middle node, lies in [-1, 1]; and one step of any data inside the
    window leaves the L2 norm no larger."""
    grid, u0, T = case
    c = grid.N // 2
    impulse = np.zeros(grid.N)
    impulse[c] = 1.0
    series, snaps = heat_solve(grid, impulse, T=T, snapshot_times=(T,))
    assert series.meta["n_steps"] == 1
    m = np.fft.rfft(np.roll(snaps[T][:, 0], -c))
    assert np.abs(m.imag).max() <= 1e-14
    assert np.abs(m.real).max() <= 1.0 + 1e-14
    l2 = heat_solve(grid, u0, T=T)[0].channel("l2")
    assert l2[-1] <= l2[0] * (1.0 + 1e-14)


def test_heat_guards():
    grid = Grid1D(L=20.0, N=128, bc="periodic")
    with pytest.raises(ValueError):
        heat_solve(grid, np.zeros(128), T=0.0)
    with pytest.raises(ValueError):
        heat_solve(grid, np.zeros(64), T=1.0)


# --- contiguous right operands ----------------------------------------------


def _random_spec(rng, n, n1):
    """Random symmetric A and symmetric positive definite D."""
    A = rng.standard_normal((n, n))
    R = rng.standard_normal((n - n1, n - n1))
    return SystemSpec(A=A + A.T, D=R @ R.T + np.eye(n - n1), n1=n1)


def _transposed_view_step(U, sim, dt):
    """The linear step written with the transposed views `@ M.T`."""
    B = np.zeros((sim.spec.n, sim.spec.n))
    B[sim.spec.n1:, sim.spec.n1:] = sim.spec.D
    half = expm_sym(-0.5 * dt * B)

    def rhs(V):
        return -d_dx(sim.grid, V) @ sim.spec.A.T

    return rk4(lambda y: (rhs(y[0]),), (U @ half.T,), dt)[0] @ half.T


def _compiled_step(U, sim):
    """One compiled step of size sim.dt on an (N, n) state."""
    return compile_step(sim, sim.dt)(np.ascontiguousarray(U.T)).T


def _assert_roundoff_close(got, want):
    """Equal to within 1e-15 of the largest |want|.

    The pre-scaled product rounds differently from the field formula; an
    entrywise rtol would fail on entries with cancellation.
    """
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("n, n1, bc", [(3, 1, "periodic"), (4, 2, "compact_support")])
def test_linear_operands_match_transposed_views(n, n1, bc):
    rng = np.random.default_rng(n)
    grid = Grid1D(L=10.0, N=96, bc=bc)
    sim = LinearSim(spec=_random_spec(rng, n, n1), grid=grid)
    U = rng.standard_normal((grid.N, n))
    want = -d_dx(grid, U) @ sim.spec.A.T
    _assert_roundoff_close(advection_rhs(sim, U), want)
    _assert_roundoff_close(_compiled_step(U, sim), _transposed_view_step(U, sim, sim.dt))


def test_registry_linear_operands_match_the_transposed_views():
    grid = Grid1D(L=10.0, N=96, bc="periodic")
    sim = LinearSim(spec=SystemSpec(A=np.array([[0.0, 1.0], [1.0, 0.0]]),
                                    D=np.array([[32.0]]), n1=1), grid=grid)
    U = np.random.default_rng(3).standard_normal((grid.N, 2))
    _assert_roundoff_close(advection_rhs(sim, U), -d_dx(grid, U) @ sim.spec.A.T)
    _assert_roundoff_close(_compiled_step(U, sim), _transposed_view_step(U, sim, sim.dt))


# Specs with a structure of their own: a zero characteristic speed, two
# equal speeds (any basis is an eigenbasis), a damped half step that
# underflows to 0, and the stiff registry system.
EDGE_SPECS = {
    "zero-speed": SystemSpec(A=np.array([[1.0, 1.0], [1.0, 1.0]]), D=np.array([[2.0]]), n1=1),
    "repeated-speed": SystemSpec(A=2.0 * np.eye(2), D=np.array([[1.0]]), n1=1),
    "D-1e6": SystemSpec(A=STANDARD.A, D=np.array([[1e6]]), n1=1),
    "stiff": REGISTRY_SYSTEMS["stiff"],
}


@pytest.mark.parametrize("bc", ["periodic", "compact_support"])
@pytest.mark.parametrize("shape", [(2, 1), (3, 1), (4, 2), (8, 3), (16, 5), (32, 9), *EDGE_SPECS],
                         ids=["2-1", "3-1", "4-2", "8-3", "16-5", "32-9", *EDGE_SPECS])
def test_compiled_step_matches_transposed_views(monkeypatch, shape, bc):
    """One compiled step within the operand bound of the reference written
    with `@ M.T`, made with one `np.correlate` call per characteristic
    variable: n, not the n^2 of a kernel per pair of components.  The step
    is a contraction (||G|| = 1) on either grid, so 20 steps stay within 20
    times that bound of 20 reference steps.  The random data fill the
    compact grid's end rows, so its ring closure is read.  Orders 16 and
    32 reach the build check's bound, n 5e-16 of the largest response."""
    rng = np.random.default_rng(7)
    spec = EDGE_SPECS[shape] if shape in EDGE_SPECS else _random_spec(rng, *shape)
    grid = Grid1D(L=10.0, N=96, bc=bc)
    sim = LinearSim(spec=spec, grid=grid)
    U = rng.standard_normal((grid.N, spec.n))
    step = compile_step(sim, sim.dt)
    V = np.ascontiguousarray(U.T)
    kernels, correlate = [], np.correlate

    def counted(a, v):
        kernels.append(v.shape)
        return correlate(a, v)

    with monkeypatch.context() as m:
        m.setattr(np, "correlate", counted)
        first = step(V)
    assert kernels == [(2 * REACH + 1,)] * spec.n
    _assert_roundoff_close(first.T, _transposed_view_step(U, sim, sim.dt))
    want = U
    for _ in range(20):
        V = step(V)
        want = _transposed_view_step(want, sim, sim.dt)
    assert np.abs(V.T - want).max() <= 20 * 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("system", ["standard", "stiff"])
def test_compact_linear_step_is_a_contraction(system):
    """The compiled step on a compact grid, read impulse by impulse, has
    ||G^k||_2 <= 1 + 1e-12 for every k <= 2000: the dense G and G^2000
    directly, and every k in between by modes.  Each impulse response is
    the one from row 0 rolled to its row, bit for bit, so G is block
    circulant: the DFT of that response splits it into one n x n block
    G(theta) per mode, and ||G^k||_2 is the largest ||G(theta)^k||_2."""
    spec = REGISTRY_SYSTEMS[system]
    sim = LinearSim(spec=spec, grid=Grid1D(L=10.0, N=96, bc="compact_support"))
    step = compile_step(sim, sim.dt)
    n, N = spec.n, sim.grid.N
    G = np.empty((n, N, n, N))  # G[c, i, j, q]: row i of c after an impulse at row q of j
    for j in range(n):
        for q in range(N):
            V = np.zeros((n, N))
            V[j, q] = 1.0
            G[:, :, j, q] = step(V)
    dense = G.reshape(n * N, n * N)
    for k in (1, 2000):
        assert np.linalg.norm(np.linalg.matrix_power(dense, k), 2) <= 1.0 + 1e-12
    for q in range(N):
        assert np.array_equal(G[:, :, :, q], np.roll(G[:, :, :, 0], q, axis=1))
    blocks = np.fft.fft(G[:, :, :, 0], axis=1).transpose(1, 0, 2)
    power, worst = blocks, 0.0
    for _ in range(2000):
        worst = max(worst, np.linalg.norm(power, 2, axis=(1, 2)).max())
        power = blocks @ power
    assert worst <= 1.0 + 1e-12


def _symbol(sim, dt, theta):
    """E R4(dt L(theta)) E, the scheme's amplification matrix at each theta:
    E = exp(-B dt/2), R4 the RK4 polynomial and L(theta) = -i A sin(theta)/dx
    the symbol of the advection."""
    n, dx = sim.spec.n, sim.grid.dx
    B = np.zeros((n, n))
    B[sim.spec.n1:, sim.spec.n1:] = sim.spec.D
    E = expm(-0.5 * dt * B)
    out = []
    for th in theta:
        Z = dt * (-1j * np.sin(th) / dx * sim.spec.A)
        R4 = np.eye(n) + Z @ (np.eye(n) + Z @ (np.eye(n) / 2 + Z @ (np.eye(n) / 6 + Z / 24)))
        out.append(E @ R4 @ E)
    return np.array(out)


@pytest.mark.parametrize("N", [64, 63])
@pytest.mark.parametrize("system", ["standard", "stiff", "degenerate", "random-3"])
def test_compiled_periodic_step_is_its_fourier_symbol(system, N):
    """On a periodic grid the compiled step is block circulant: the DFT of
    its impulse responses, the kernel, is the amplification matrix
    E R4(dt L(theta)) E at every theta = 2 pi m / N, to 1e-14."""
    spec = (REGISTRY_SYSTEMS[system] if system in REGISTRY_SYSTEMS
            else _random_spec(np.random.default_rng(N), 3, 1 + N % 2))
    sim = LinearSim(spec=spec, grid=Grid1D(L=10.0, N=N))
    step = compile_step(sim, sim.dt)
    n = spec.n
    G = np.empty((N, n, n), dtype=complex)
    for j in range(n):
        V = np.zeros((n, N))
        V[j, 0] = 1.0
        G[:, :, j] = np.fft.fft(step(V), axis=1).T
    want = _symbol(sim, sim.dt, 2.0 * np.pi * np.arange(N) / N)
    assert np.abs(G - want).max() <= 1e-14


def _registry_symbol_radii(system):
    """theta = 2 pi m / N over (-pi, pi], pi last, and the spectral radius of
    E R4(dt L(theta)) E there, on the linear registry grid (N = 4096,
    L = 200) at the run's dt."""
    N = 4096
    sim = LinearSim(spec=REGISTRY_SYSTEMS[system], grid=Grid1D(L=200.0, N=N))
    theta = 2.0 * np.pi * np.arange(1 - N // 2, N // 2 + 1) / N
    return theta, np.abs(np.linalg.eigvals(_symbol(sim, sim.dt, theta))).max(axis=1)


@pytest.mark.parametrize("system", list(REGISTRY_SYSTEMS))
def test_nyquist_mode_is_undamped_without_the_floor(system):
    """sin(pi) = 0 leaves only B, which never reaches u1."""
    theta, rho = _registry_symbol_radii(system)
    assert theta[-1] == np.pi
    assert rho[-1] == pytest.approx(1.0, abs=1e-14)


def test_kalman_fail_branch_is_damped_by_rk4_alone():
    """The degenerate system's u1 branch is undamped but for RK4's own
    sixth-order dissipation: 1 - rho(G(theta)) < 2e-10 theta^2 near 0."""
    theta, rho = _registry_symbol_radii("degenerate")
    small = (theta != 0.0) & (np.abs(theta) < 0.05)
    worst = ((1.0 - rho[small]) / theta[small] ** 2).max()
    assert 0.0 < worst < 2e-10
    assert worst == pytest.approx(1.65e-10, rel=1e-2)


def _psystem_rk4_growth(cfl, nu):
    """max |R4(dt lambda(theta))| - 1 over every theta of thm6's grid
    (N = 8192, L = 400) at dt = cfl dx, for the p-system's two combined
    kernels built as `simulate_psystem` builds them."""
    grid = Grid1D(L=400.0, N=8192)
    half = 1.0 / (2.0 * grid.dx)
    d_kernel = half * np.pad(CENTERED, 1)
    floor_kernel = (nu / grid.dx) * FOURTH_DIFFERENCE
    theta = 2.0 * np.pi * np.arange(grid.N) / grid.N
    growth = []
    for kernel in (-d_kernel - floor_kernel, d_kernel - floor_kernel):
        # correlate's row i reads f[i + j - 2], so exp(i theta x) scales by lam
        lam = sum(k * np.exp(1j * (j - 2) * theta) for j, k in enumerate(kernel))
        z = cfl * grid.dx * lam
        R = 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
        growth.append(np.abs(R).max() - 1.0)
    return max(growth)


@pytest.mark.parametrize("nu", [0.0, 0.01])
def test_psystem_kernels_keep_rk4_amplification_at_most_one(nu):
    assert _psystem_rk4_growth(CFL, nu) <= 1e-15
    assert _psystem_rk4_growth(3.0, nu) > 0.3  # past 2 sqrt(2) the bound fails


@pytest.mark.parametrize("bc", ["periodic", "compact_support"])
def test_compiled_step_build_checks_fire(monkeypatch, bc):
    """The build refuses a kernel too short for the step, a reference step
    that is not translation invariant, a kernel grid whose dx is not the
    run's, and characteristic factors that miss the reference step."""
    sim = LinearSim(spec=STANDARD, grid=Grid1D(L=10.0, N=96, bc=bc))
    compile_step(sim, sim.dt)
    miss = "factored step misses the reference step"
    with monkeypatch.context() as m:  # four RK4 stages reach 4 cells, not 3
        m.setattr(linear_module, "REACH", 3)
        with pytest.raises(AssertionError, match=miss):
            compile_step(sim, sim.dt)

    rhs = linear_module.advection_rhs

    def uneven_rhs(sim_, V):  # no longer translation invariant at row 20
        dV = rhs(sim_, V)
        dV[20] *= 1.0 + 2.0**-40
        return dV

    with monkeypatch.context() as m:
        m.setattr(linear_module, "advection_rhs", uneven_rhs)
        with pytest.raises(AssertionError, match="depends on the impulse's row"):
            compile_step(sim, sim.dt)
    with monkeypatch.context() as m:
        m.setattr(linear_module, "Grid1D", lambda L, N: Grid1D(L=1.5 * L, N=N))
        with pytest.raises(AssertionError, match="dx"):
            compile_step(sim, sim.dt)

    speed_kernels, eigensystem = linear_module._speed_kernels, linear_module.jacobi_eigensystem

    def nudged_speed_kernels(*args):  # one tap off by 2^-40 of itself
        r = speed_kernels(*args)
        r[0, REACH + 1] *= 1.0 + 2.0**-40
        return r

    def swapped_eigensystem(M):  # the speeds paired with the wrong vectors
        w, V = eigensystem(M)
        return w, V[:, ::-1]

    for name, fake in [("_speed_kernels", nudged_speed_kernels),
                       ("jacobi_eigensystem", swapped_eigensystem)]:
        with monkeypatch.context() as m:
            m.setattr(linear_module, name, fake)
            fresh = LinearSim(spec=STANDARD, grid=sim.grid)  # solves its eigensystem here
            with pytest.raises(AssertionError, match=miss):
                compile_step(fresh, fresh.dt)


def test_a_linear_run_solves_its_eigensystem_once(monkeypatch):
    """The step limit and the compiled step share the sim's one eigensolve;
    the build check's copy on the kernel grid needs none."""
    calls, eigensystem = [], linear_module.jacobi_eigensystem

    def counted(M):
        calls.append(M)
        return eigensystem(M)

    monkeypatch.setattr(linear_module, "jacobi_eigensystem", counted)
    grid = Grid1D(L=10.0, N=96)
    simulate_linear(LinearSim(spec=STANDARD, grid=grid), np.zeros((96, 2)), T=1.0)
    assert len(calls) == 1


def test_linear_operands_are_c_contiguous():
    sim = LinearSim(spec=_random_spec(np.random.default_rng(5), 3, 1),
                    grid=Grid1D(L=10.0, N=64))
    half = damping_half_step(sim.spec, sim.dt)
    for M in (sim.advection, half):
        assert M.flags.c_contiguous
    assert np.array_equal(sim.advection, -sim.spec.A.T)


@pytest.mark.parametrize("n, n1", [(2, 1), (3, 1), (3, 2)])
def test_linear_record_matches_inner_formulas(n, n1):
    """The channels read from the sample's Gram against `inner` on the fields."""
    rng = np.random.default_rng(30 + 10 * n + n1)
    spec = _random_spec(rng, n, n1)
    grid = Grid1D(L=10.0, N=96, bc="periodic")
    sim = LinearSim(spec=spec, grid=grid)
    coeffs = select_coefficients(spec)
    weight = WeightSpec("power", mu=0.5)
    U = rng.standard_normal((grid.N, n))
    series, _ = simulate_linear(sim, U, T=2.0 * sim.dt, coeffs=coeffs, weight=weight)
    got = {name: v[0] for name, v in series.channels.items()}  # the t = 0 sample is U
    dU = d_dx(grid, U)
    U2 = U[:, n1:]
    P = spec.damped_powers
    cross = [e * inner(grid, U @ P[k].T, dU @ P[k + 1].T) for k, e in enumerate(coeffs.eps)]
    want = {
        "l2": np.sqrt(inner(grid, U, U)),
        "u1_l2": np.sqrt(inner(grid, U[:, :n1], U[:, :n1])),
        "u2_l2": np.sqrt(inner(grid, U2, U2)),
        "dx_l2": np.sqrt(inner(grid, dU, dU)),
        "dissipation": 2.0 * inner(grid, U2 @ spec.D.T, U2),
        "lyapunov": inner(grid, U, U) + inner(grid, dU, dU) + sum(cross),
    }
    for name, value in want.items():
        assert abs(got[name] - value) <= 1e-15 * value, name
    assert got["weighted_l2"] == l2_norm(grid, U, weight.values(grid.x) ** 2)


# --- shared time-marching driver --------------------------------------------

RING = Grid1D(L=1.0, N=16)


def test_march_stops_at_first_non_finite_sample():
    def step(state):
        return state + 1.0

    def record(t, state):
        return {"count": float(state[0]), "l2": np.inf if state[0] >= 3 else 1.0}

    # ten steps of 0.1, sampled every other step: step 3 is skipped, step 4 trips
    with pytest.raises(NonFiniteState, match="'l2'") as info:
        march(RING, np.zeros(16), 10, 0.1, step, record, lambda s: (s,), 2, (), {})
    assert info.value.time == pytest.approx(0.4, rel=1e-14)


def test_march_rejects_the_initial_data_a_step_0_guard_refuses():
    """A guard tripped at the t = 0 sample, `march`'s own escape check
    included, stays an instance of its own class, with its fields, and is
    also an InitialDataRejected; one tripped after a step is not.  The
    escape check runs after the record and before the finiteness check."""
    grid = Grid1D(L=1.0, N=16, bc="compact_support")
    middle, end = np.zeros(16), np.zeros(16)
    middle[8] = end[-1] = 1.0

    def record(t, state):
        if state[4]:
            raise SmallnessBreached(f"too large at t={t:.4g}")
        return {"l2": np.inf if state[8] else 1.0}

    def run(state, step=lambda s: s):
        march(grid, state, 10, 0.1, step, record, lambda s: (s,), 1, (), {})

    with pytest.raises(NonFiniteState, match="'l2'") as info:
        run(middle)
    assert isinstance(info.value, InitialDataRejected)
    assert info.value.time == 0.0
    with pytest.raises(DomainEscape, match="t=0 ") as info:
        run(middle + end)
    assert isinstance(info.value, InitialDataRejected)
    with pytest.raises(SmallnessBreached):
        run(np.roll(middle, -4) + end)
    with pytest.raises(DomainEscape, match="t=0.1 ") as info:
        run(np.zeros(16), lambda s: s + end)
    assert not isinstance(info.value, InitialDataRejected)


def test_march_builds_the_fields_only_where_the_run_reads_them():
    """A periodic grid has no ends, so without snapshots `fields` never runs
    and with one it runs once.  On a compact grid it runs once for the
    escape tolerance and once per sample for the escape check."""
    calls = []

    def fields(state):
        calls.append(state)
        return (state,)

    def run(grid, snapshot_times=()):
        calls.clear()
        series, _ = march(grid, np.zeros(16), 10, 0.1, lambda s: s, lambda t, s: {"l2": 1.0},
                          fields, 3, snapshot_times, {})
        assert len(series.t) == 5  # steps 0, 3, 6, 9 and the last
        return len(calls)

    assert run(RING) == 0
    assert run(RING, (0.5,)) == 1
    assert run(Grid1D(L=1.0, N=16, bc="compact_support")) == 1 + 5


# 1e-160 * 1e-160 = 1e-320 is subnormal: it reads 0.0 exactly when
# flush-to-zero is on.
TINY = np.float64(1e-160)
FTZ, DAZ = 1 << 15, 1 << 6

x86_64_glibc = pytest.mark.skipif(
    platform.machine() != "x86_64" or platform.libc_ver()[0] != "glibc",
    reason="reads MXCSR through glibc's x86-64 fenv_t",
)


def _mode():
    env = march_module._FenvT()
    march_module._fegetenv(env)
    return env.mxcsr & (FTZ | DAZ)


def _march_products(record_raises=False):
    """Run a two-step march; return the products seen by step and record."""
    seen = []

    def step(state):
        seen.append(TINY * TINY)
        return state

    def record(t, state):
        seen.append(TINY * TINY)
        if record_raises:
            raise RuntimeError("abort")
        return {"v": 0.0}

    march(RING, np.zeros(16), 2, 0.5, step, record, lambda s: (s,), 1, (), {})
    return seen


@x86_64_glibc
def test_march_flushes_subnormals_only_while_stepping():
    before = _mode()
    assert TINY * TINY != 0.0
    assert _march_products() == [0.0] * 5
    assert TINY * TINY != 0.0
    assert _mode() == before


@x86_64_glibc
def test_march_restores_the_mode_when_record_raises():
    before = _mode()
    with pytest.raises(RuntimeError, match="abort"):
        _march_products(record_raises=True)
    assert TINY * TINY != 0.0
    assert _mode() == before


@x86_64_glibc
def test_march_keeps_a_callers_flush_to_zero():
    """A caller that had FTZ on (and DAZ off) gets exactly that back."""
    env = march_module._FenvT()
    march_module._fegetenv(env)
    saved = env.mxcsr
    env.mxcsr = (saved & ~(FTZ | DAZ)) | FTZ
    march_module._fesetenv(env)
    try:
        assert TINY * TINY == 0.0
        assert _march_products() == [0.0] * 5
        assert _mode() == FTZ
        assert TINY * TINY == 0.0
    finally:
        march_module._fegetenv(env)
        env.mxcsr = saved
        march_module._fesetenv(env)
    assert TINY * TINY != 0.0


@pytest.mark.skipif(march_module._mallopt is None, reason="no mallopt in this C library")
def test_march_sets_the_glibc_heap_thresholds(monkeypatch):
    """`march` raises glibc's mmap threshold to 32 MiB and its trim
    threshold to 64 MiB before it steps."""
    calls = []
    monkeypatch.setattr(march_module, "_mallopt", lambda param, value: calls.append((param, value)))
    _march_products()
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]


@pytest.mark.filterwarnings("ignore:overflow")
def test_linear_blow_up_raises_non_finite_state():
    grid = Grid1D(L=20.0, N=64)
    U0 = np.stack([1e300 * np.exp(-grid.x**2), np.zeros(64)], axis=1)
    with pytest.raises(NonFiniteState) as info:
        simulate_linear(LinearSim(spec=STANDARD, grid=grid), U0, T=1.0)
    assert info.value.time == 0.0


# --- shared time-marching driver --------------------------------------------


def _linear_run(stride, snaps):
    grid = Grid1D(L=20.0, N=128, bc="compact_support")
    U0 = np.stack([np.exp(-grid.x**2), 0.5 * np.exp(-grid.x**2)], axis=1)
    sim = LinearSim(spec=STANDARD, grid=grid)
    return simulate_linear(sim, U0, T=1.0, sample_stride=stride,
                           snapshot_times=snaps)


def _euler_run(stride, snaps):
    grid = Grid1D(L=20.0, N=128, bc="compact_support")
    rho0 = 1.0 + 0.01 * np.exp(-grid.x**2)
    u0 = 0.01 * np.exp(-((grid.x / 2.0) ** 2))
    return simulate_euler(EulerSpec(), grid, rho0, u0, T=1.0, nu=0.01,
                          sample_stride=stride, snapshot_times=snaps)


def _psystem_run(stride, snaps):
    grid = Grid1D(L=20.0, N=128, bc="compact_support")
    rho0 = -0.1 * grid.x * np.exp(-grid.x**2)
    u0 = 0.05 * np.exp(-grid.x**2)
    return simulate_psystem(PSystemSpec(r=2.0), grid, rho0, u0, T=1.0,
                            nu=0.01, sample_stride=stride, snapshot_times=snaps)


def _heat_run(stride, snaps):
    grid = Grid1D(L=5.0, N=128, bc="periodic")  # dt <= dx: 13 steps to T = 1
    return heat_solve(grid, np.exp(-grid.x**2), T=1.0,
                      sample_stride=stride, snapshot_times=snaps)


DRIVEN = {"linear": _linear_run, "euler": _euler_run,
          "psystem": _psystem_run, "heat": _heat_run}
SOLVER_MODULES = {"linear": linear_module, "euler": euler_module,
                  "psystem": psystem_module, "heat": heat_module}


def test_step_size_refuses_a_nan_count():
    """A NaN step limit gives a NaN count, which no comparison passes: it is
    refused at the cost bound and never reaches math.ceil."""
    with pytest.raises(RunTooCostly):
        step_size(1.0, float("nan"), 64)


@pytest.mark.parametrize("name", DRIVEN)
def test_each_solver_sizes_its_run_with_one_step_size_call(monkeypatch, name):
    """The solver's one `step_size` call sets the step its map is built for
    and the step count `march` takes: the driver does not size the run again."""
    calls = []

    def counted(*args):
        calls.append(args)
        return step_size(*args)

    monkeypatch.setattr(march_module, "step_size", counted)
    monkeypatch.setattr(SOLVER_MODULES[name], "step_size", counted)
    series, _ = DRIVEN[name](1, ())
    assert len(calls) == 1
    assert (series.meta["n_steps"], series.meta["dt_step"]) == step_size(*calls[0])


@pytest.mark.parametrize("solve", DRIVEN.values(), ids=DRIVEN.keys())
def test_driver_sampling_and_off_grid_snapshots(solve):
    """Samples sit at {0, s dt, 2 s dt, ...} plus the final step, and a
    snapshot between samples equals the one a stride-1 run takes."""
    ref, _ = solve(1, ())
    n, dt = ref.meta["n_steps"], ref.meta["dt_step"]
    assert np.array_equal(ref.t, np.arange(n + 1) * dt)
    stride = next(s for s in (3, 4, 5, 7) if n % s)
    assert stride + 1 < n
    ts = (stride + 1) * dt
    _, on_grid = solve(1, (ts,))
    series, off_grid = solve(stride, (ts,))
    steps = list(range(0, n + 1, stride)) + [n]
    assert np.array_equal(series.t, np.array(steps) * dt)
    assert series.t[-1] == pytest.approx(1.0, rel=1e-14)
    assert series.meta["sample_stride"] == stride
    assert off_grid[ts].tobytes() == on_grid[ts].tobytes()


@pytest.mark.parametrize("solve", DRIVEN.values(), ids=DRIVEN.keys())
def test_driver_keeps_snapshots_nearest_one_step(solve):
    """Two times half a step apart both store the state of their nearest step."""
    ref, _ = solve(1, ())
    dt = ref.meta["dt_step"]
    _, on_step = solve(1, (2.0 * dt,))
    times = (1.75 * dt, 2.25 * dt)
    _, snaps = solve(1, times)
    assert sorted(snaps) == list(times)
    for ts in times:
        assert snaps[ts].tobytes() == on_step[2.0 * dt].tobytes()


@pytest.mark.parametrize("solve", DRIVEN.values(), ids=DRIVEN.keys())
def test_driver_rejects_snapshot_outside_run(solve):
    for ts in (1.5, -0.2):
        with pytest.raises(ValueError):
            solve(1, (ts,))
