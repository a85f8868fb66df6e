"""Time integrators, each checked against a route the scheme never uses:
exact propagators, Fourier-mode matrix exponentials, closed-form heat
kernels, and refinement of discrete balance identities.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from hypodecay.analysis import check_energy_law, check_monotone
from hypodecay.errors import (
    CflViolation,
    DomainEscape,
    NonFiniteState,
    RBandViolation,
    SmallnessBreached,
    VacuumApproached,
)
from hypodecay.grids import Grid1D, WeightSpec, d_dx, fourth_difference
from hypodecay.linalg import SystemSpec, expm_sym
from hypodecay.solvers.euler import EulerSpec, simulate_euler
from hypodecay.solvers.heat import heat_solve
from hypodecay.solvers.linear import (
    LinearSim,
    advection_rhs,
    damping_half_step,
    simulate_linear,
    step_linear,
)
from hypodecay.solvers.march import march, rk4
from hypodecay.solvers.psystem import PSystemSpec, simulate_psystem

STANDARD = SystemSpec(A=np.array([[0.0, 1.0], [1.0, 0.0]]),
                      D=np.array([[1.0]]), n1=1)


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

    single = rk4(lambda y: rhs((y, state[1]))[0], state[0], dt)
    assert isinstance(single, np.ndarray)
    assert np.array_equal(state[0], kept[0])


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
    """Centered differences have exactly zero mean on periodic grids, so
    the undamped mean is conserved bit-for-bit and the damped mean obeys
    the scalar relaxation law."""
    grid = Grid1D(L=30.0, N=256, bc="periodic")
    U0 = np.stack(
        [np.exp(-grid.x**2), 0.5 * np.exp(-((grid.x - 3.0) ** 2))], axis=1
    )
    sim = LinearSim(spec=STANDARD, grid=grid)
    T = 5.0
    _, snaps = simulate_linear(sim, U0, T, snapshot_times=(T,))
    m0 = grid.qw @ U0
    mT = grid.qw @ snaps[T]
    assert mT[0] == m0[0]
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
    with pytest.raises(CflViolation):
        LinearSim(spec=STANDARD, grid=grid, cfl=0.8)
    with pytest.raises(ValueError):
        LinearSim(spec=STANDARD, grid=grid, nu=-1.0)
    sim = LinearSim(spec=STANDARD, grid=grid)
    with pytest.raises(CflViolation):
        step_linear(np.zeros((64, 2)), sim, dt=2.0 * sim.dt)
    with pytest.raises(ValueError):
        simulate_linear(sim, np.zeros((64, 3)), T=1.0)
    with pytest.raises(ValueError):
        simulate_linear(sim, np.zeros((64, 2)), T=0.0)


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
    with pytest.raises(CflViolation):
        simulate_euler(es, grid, ones, np.zeros(256), T=1.0, cfl=0.9)
    with pytest.raises(ValueError):
        simulate_euler(es, grid, ones, np.zeros(128), T=1.0)
    with pytest.raises(ValueError):
        simulate_euler(es, grid, ones, np.zeros(256), T=-1.0)


# --- degenerate-damping wave pair -----------------------------------------


def test_psystem_spec_band():
    with pytest.raises(RBandViolation):
        PSystemSpec(r=1.0)
    with pytest.raises(RBandViolation):
        PSystemSpec(r=3.0)
    with pytest.raises(ValueError):
        PSystemSpec(r=2.0, eta2=-0.1)


def test_psystem_zero_data():
    grid = Grid1D(L=20.0, N=128, bc="periodic")
    series, _ = simulate_psystem(
        PSystemSpec(r=2.0), grid, np.zeros(128), np.zeros(128), T=2.0
    )
    assert np.all(series.channel("h1") == 0.0)
    assert np.all(series.channel("hstar") == 0.0)


def _psystem_balance_resid(N):
    grid = Grid1D(L=50.0, N=N, bc="periodic")
    rho0 = 0.1 * np.exp(-((grid.x / 3.0) ** 2)) * (-2.0 * grid.x / 9.0)
    u0 = 0.05 * np.exp(-((grid.x / 4.0) ** 2))
    series, _ = simulate_psystem(
        PSystemSpec(r=2.0, eta2=0.5), grid, rho0, u0, T=2.0
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
        PSystemSpec(r=2.0, eta2=0.5), grid, rho0, u0, T=10.0, nu=0.01
    )
    assert check_monotone(series, "h1", tol_rel=1e-6)["passed"]
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


def test_heat_compact_boundary_pinned():
    grid = Grid1D(L=30.0, N=512, bc="compact_support")
    series, snaps = heat_solve(grid, np.exp(-grid.x**2), T=5.0,
                               snapshot_times=(5.0,))
    uT = snaps[5.0]
    assert abs(uT[0]) < 1e-20 and abs(uT[-1]) < 1e-20
    l2 = series.channel("l2")
    assert l2[-1] < 0.5 * l2[0]


def test_heat_weighted_channel():
    grid = Grid1D(L=20.0, N=256, bc="periodic")
    series, _ = heat_solve(grid, np.exp(-grid.x**2), T=1.0,
                           weight=WeightSpec("power", mu=1.0))
    assert "weighted_l2" in series.channels


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
    """step_linear written with the transposed views `@ M.T`."""
    B = np.zeros((sim.spec.n, sim.spec.n))
    B[sim.spec.n1:, sim.spec.n1:] = sim.spec.D
    half = expm_sym(-0.5 * dt * B)

    def rhs(V):
        dV = -d_dx(sim.grid, V) @ sim.spec.A.T
        if sim.nu > 0.0:
            dV -= (sim.nu / sim.grid.dx) * fourth_difference(sim.grid, V)
        return dV

    return rk4(rhs, U @ half.T, dt) @ half.T


@pytest.mark.parametrize("n, n1, bc", [(3, 1, "periodic"), (4, 2, "compact_support")])
def test_linear_operands_match_transposed_views(n, n1, bc):
    rng = np.random.default_rng(n)
    grid = Grid1D(L=10.0, N=96, bc=bc)
    sim = LinearSim(spec=_random_spec(rng, n, n1), grid=grid, nu=0.01)
    U = rng.standard_normal((grid.N, n))
    want = -d_dx(grid, U) @ sim.spec.A.T - (sim.nu / grid.dx) * fourth_difference(grid, U)
    np.testing.assert_allclose(advection_rhs(sim, U), want, rtol=1e-14)
    np.testing.assert_allclose(step_linear(U, sim), _transposed_view_step(U, sim, sim.dt),
                               rtol=1e-14)


def test_registry_linear_operands_are_bitwise_the_transposed_views():
    grid = Grid1D(L=10.0, N=96, bc="periodic")
    sim = LinearSim(spec=SystemSpec(A=np.array([[0.0, 1.0], [1.0, 0.0]]),
                                    D=np.array([[32.0]]), n1=1), grid=grid)
    U = np.random.default_rng(3).standard_normal((grid.N, 2))
    assert np.array_equal(advection_rhs(sim, U), -d_dx(grid, U) @ sim.spec.A.T)
    assert np.array_equal(step_linear(U, sim), _transposed_view_step(U, sim, sim.dt))


def test_linear_operands_are_c_contiguous():
    sim = LinearSim(spec=_random_spec(np.random.default_rng(5), 3, 1),
                    grid=Grid1D(L=10.0, N=64))
    half = damping_half_step(sim.spec, sim.dt)
    for M in (sim.A_t, sim.D_t, half):
        assert M.flags.c_contiguous
    assert np.array_equal(sim.A_t, sim.spec.A.T)
    assert np.array_equal(sim.D_t, sim.spec.D.T)


# --- shared time-marching driver --------------------------------------------


def test_march_stops_at_first_non_finite_sample():
    def step(state, dt):
        return state + 1.0

    def record(t, state):
        return {"count": float(state[0]), "l2": np.inf if state[0] >= 3 else 1.0}

    # ten steps of 0.1, sampled every other step: step 3 is skipped, step 4 trips
    with pytest.raises(NonFiniteState, match="'l2'") as info:
        march(np.zeros(1), 1.0, 0.1, step, record, 2, (), np.copy, {})
    assert info.value.time == pytest.approx(0.4, rel=1e-14)


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
    sim = LinearSim(spec=STANDARD, grid=grid, nu=0.01)
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
    grid = Grid1D(L=20.0, N=128, bc="periodic")
    return heat_solve(grid, np.exp(-grid.x**2), T=1.0, dt=0.05,
                      sample_stride=stride, snapshot_times=snaps)


DRIVEN = {"linear": _linear_run, "euler": _euler_run,
          "psystem": _psystem_run, "heat": _heat_run}


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
def test_driver_rejects_snapshot_outside_run(solve):
    for ts in (1.5, -0.2):
        with pytest.raises(ValueError):
            solve(1, (ts,))
