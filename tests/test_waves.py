"""Space-time weighted wave-energy monitors and their validity conditions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypodecay.analysis import check_monotone
from hypodecay.errors import MassNotZero, MuOutOfRange
from hypodecay.grids import Grid1D, antiderivative
from hypodecay.linalg import SystemSpec
from hypodecay.solvers.linear import LinearSim, simulate_linear
from hypodecay.solvers.waves import (
    LogWaveMonitor,
    WaveWeightSpec,
    check_zero_mass,
    default_offset,
    linear_wave_monitor,
    power_wave_record,
    scalar_wave_monitor,
    weight_conditions_ok,
)

STANDARD = SystemSpec(A=np.array([[0.0, 1.0], [1.0, 0.0]]),
                      D=np.array([[1.0]]), n1=1)


def test_weight_spec_validation():
    with pytest.raises(ValueError):
        WaveWeightSpec(kind="cone")
    with pytest.raises(MuOutOfRange):
        WaveWeightSpec(kind="power", mu=0.4)
    with pytest.raises(MuOutOfRange):
        WaveWeightSpec(kind="power", mu=1.1)
    with pytest.raises(ValueError):
        WaveWeightSpec(kind="log", q=0.0)
    with pytest.raises(ValueError):
        WaveWeightSpec(kind="power", a=0.0)


@pytest.mark.parametrize("mu", [0.5, 0.75, 1.0])
def test_power_weight_derivatives_match_fd(mu):
    """Analytic phi derivatives against central differences."""
    w = WaveWeightSpec(kind="power", mu=mu, a=4.0)
    s = np.linspace(0.0, 50.0, 11)
    h = 1e-5
    for order in (1, 2, 3):
        fd = (w.phi(s + h, order - 1) - w.phi(s - h, order - 1)) / (2.0 * h)
        assert w.phi(s, order) == pytest.approx(fd, rel=1e-7, abs=1e-10)
    with pytest.raises(ValueError):
        w.phi(s, 4)


def test_log_weight_derivatives_match_fd():
    w = WaveWeightSpec(kind="log", q=1.0, r=2.0, a=32.0)
    s = np.linspace(0.0, 100.0, 11)
    h = 1e-5
    for order in (1, 2):
        fd = (w.phi1(s + h, order - 1) - w.phi1(s - h, order - 1)) / (2.0 * h)
        assert w.phi1(s, order) == pytest.approx(fd, rel=1e-6, abs=1e-12)
    fd2 = (w.phi2(s + h) - w.phi2(s - h)) / (2.0 * h)
    assert w.phi2(s, 1) == pytest.approx(fd2, rel=1e-6, abs=1e-14)
    with pytest.raises(ValueError):
        w.phi1(s, 3)
    with pytest.raises(ValueError):
        w.phi2(s, 2)


def test_flat_weight_reduces_to_plain_energy():
    """mu = 1/2 makes phi constant: the monitor must reproduce the plain
    wave energy and friction dissipation exactly."""
    grid = Grid1D(L=10.0, N=256, bc="periodic")
    wspec = WaveWeightSpec(kind="power", mu=0.5, a=7.0)
    W = np.exp(-grid.x**2)[:, None]
    Wt = (0.3 * np.sin(grid.x))[:, None]
    Wx = (-2.0 * grid.x * np.exp(-grid.x**2))[:, None]
    k1, lam = 2.0, 3.0
    e, h = power_wave_record(grid, 1.7, wspec, W, Wt, Wx,
                             k1 * np.eye(1), lam * np.eye(1))
    assert e == pytest.approx(
        0.5 * float(grid.qw @ (Wt[:, 0] ** 2 + k1 * Wx[:, 0] ** 2)), rel=1e-14
    )
    assert h == pytest.approx(lam * float(grid.qw @ Wt[:, 0] ** 2), rel=1e-14)


def test_zero_state_zero_energy():
    grid = Grid1D(L=10.0, N=64, bc="compact_support")
    mon = linear_wave_monitor(STANDARD, WaveWeightSpec(kind="power", mu=1.0, a=4.0))
    e, h = mon.record(grid, 5.0, np.zeros((64, 2)), 1)
    assert e == 0.0 and h == 0.0


def test_default_offsets_frozen():
    # unit stiffness on a [0, 300] range: phi/4 >= phi' forces a = 4
    assert default_offset("power", 300.0, kappa1=1.0, mu=1.0) == 4.0
    # doubled stiffness halves the required offset
    assert default_offset("power", 340.0, kappa1=2.0, mu=1.0) == 2.0
    # log admissibility needs log(a) >= 3, first power of two is 32
    assert default_offset("log", 2400.0, q=1.0, r=2.0) == 32.0


def test_weight_conditions_power():
    s = np.linspace(0.0, 300.0, 1001)
    good = WaveWeightSpec(kind="power", mu=1.0, a=4.0)
    bad = WaveWeightSpec(kind="power", mu=1.0, a=2.0)
    assert weight_conditions_ok(good, 1.0, s)
    assert not weight_conditions_ok(bad, 1.0, s)
    # mu = 1/2 is flat: valid at any positive offset
    assert weight_conditions_ok(WaveWeightSpec(kind="power", mu=0.5, a=1.0), 1.0, s)


def test_weight_conditions_log():
    s = np.linspace(0.0, 2400.0, 2001)
    assert weight_conditions_ok(WaveWeightSpec(kind="log", a=32.0), 1.0, s)
    assert not weight_conditions_ok(WaveWeightSpec(kind="log", a=16.0), 1.0, s)


@settings(max_examples=30, deadline=None)
@given(mu=st.floats(min_value=0.5, max_value=1.0, allow_nan=False))
def test_power_conditions_hold_at_selected_offset(mu):
    s_max = 200.0
    a = default_offset("power", s_max, kappa1=1.0, mu=mu)
    w = WaveWeightSpec(kind="power", mu=mu, a=a)
    assert weight_conditions_ok(w, 1.0, np.linspace(0.0, s_max, 501))


def test_zero_mass_gate():
    grid = Grid1D(L=30.0, N=512, bc="compact_support")
    bump = np.exp(-grid.x**2)
    with pytest.raises(MassNotZero):
        check_zero_mass(grid, bump)
    odd = -2.0 * grid.x * np.exp(-grid.x**2)
    assert check_zero_mass(grid, odd) < 1e-12
    # loosened tolerance admits the bump
    assert check_zero_mass(grid, bump, mass_tol=10.0) > 0.0


def test_monitor_mass_gate_inside_simulation():
    grid = Grid1D(L=30.0, N=256, bc="compact_support")
    mon = linear_wave_monitor(STANDARD, WaveWeightSpec(kind="power", mu=1.0, a=4.0))
    U0 = np.stack([np.exp(-grid.x**2), np.zeros(256)], axis=1)
    sim = LinearSim(spec=STANDARD, grid=grid)
    with pytest.raises(MassNotZero):
        simulate_linear(sim, U0, T=1.0, wave=mon)


def test_monitor_requires_invertible_coupling():
    decoupled = SystemSpec(A=np.diag([1.0, -1.0]), D=np.array([[1.0]]), n1=1)
    with pytest.raises(ValueError, match="invertible"):
        linear_wave_monitor(decoupled, WaveWeightSpec(kind="power"))


def test_weighted_wave_energy_decays_along_flow():
    """Small compact run: the monitored energy must be nonincreasing."""
    grid = Grid1D(L=60.0, N=512, bc="compact_support")
    T = 20.0
    a = default_offset("power", T + grid.L, kappa1=1.0, mu=1.0)
    assert a == 4.0
    mon = linear_wave_monitor(STANDARD, WaveWeightSpec(kind="power", mu=1.0, a=a))
    u1 = -2.0 * grid.x / 81.0 * np.exp(-((grid.x / 9.0) ** 2))
    U0 = np.stack([u1, 0.5 * u1], axis=1)
    sim = LinearSim(spec=STANDARD, grid=grid)
    series, _ = simulate_linear(sim, U0, T, wave=mon)
    assert check_monotone(series, "wave_energy", tol_rel=1e-6)["passed"]
    assert series.channel("wave_dissipation").min() > 0.0


def test_scalar_monitor_wiring():
    wspec = WaveWeightSpec(kind="power", mu=1.0, a=2.0)
    mon = scalar_wave_monitor(wspec, stiffness=2.0, damping=1.0)
    assert mon.a12a21[0, 0] == 2.0
    assert mon.a12_d_a12inv[0, 0] == 1.0
    grid = Grid1D(L=20.0, N=128, bc="compact_support")
    n = -2.0 * grid.x * np.exp(-grid.x**2)
    state = np.column_stack([n, 0.1 * np.exp(-grid.x**2)])
    e, h = mon.record(grid, 0.0, state, 1)
    assert np.isfinite(e) and np.isfinite(h) and e > 0.0


@pytest.mark.parametrize("spec", ["random", "registry"])
def test_linear_monitor_matches_transposed_view(spec):
    rng = np.random.default_rng(13)
    if spec == "random":
        A = rng.standard_normal((4, 4))
        R = rng.standard_normal((2, 2))
        spec = SystemSpec(A=A + A.T, D=R @ R.T + np.eye(2), n1=2)
    else:
        spec = STANDARD
    mon = linear_wave_monitor(spec, WaveWeightSpec(kind="power", mu=0.75, a=4.0))
    assert mon.a12_t.flags.c_contiguous
    assert np.array_equal(mon.a12_t, spec.A12.T)
    grid = Grid1D(L=20.0, N=128, bc="compact_support")
    U = rng.standard_normal((grid.N, spec.n))
    W, _ = antiderivative(grid, U[:, : spec.n1])
    want = power_wave_record(grid, 1.5, mon.wspec, W, -(U[:, spec.n1:] @ spec.A12.T),
                             U[:, : spec.n1], mon.a12a21, mon.a12_d_a12inv)
    got = mon.record(grid, 1.5, U, spec.n1)
    if spec is STANDARD:
        assert got == want
    else:
        np.testing.assert_allclose(got, want, rtol=1e-14)


def test_log_monitor_finite_and_positive():
    grid = Grid1D(L=100.0, N=1024, bc="periodic")
    mon = LogWaveMonitor(WaveWeightSpec(kind="log", q=1.0, r=2.0, a=32.0),
                         eta3=0.25)
    w = np.exp(-((grid.x / 10.0) ** 2))
    wt = -0.05 * w
    wx = -2.0 * grid.x / 100.0 * w
    e, h = mon.record(grid, 3.0, w, wt, wx)
    assert e > 0.0
    assert np.isfinite(h)
