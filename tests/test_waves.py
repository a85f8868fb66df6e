"""Space-time weighted wave-energy monitors and their validity conditions."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypodecay.analysis import check_monotone
from hypodecay.errors import MassNotZero, MuOutOfRange
from hypodecay.grids import Grid1D, antiderivative, gram
from hypodecay.linalg import SystemSpec
from hypodecay.solvers.linear import LinearSim, simulate_linear
from hypodecay.solvers.psystem import PSystemSpec, simulate_psystem
from hypodecay.solvers.waves import (
    ETA3,
    LinearWaveMonitor,
    LogWaveMonitor,
    WaveWeightSpec,
    check_zero_mass,
    default_offset,
    linear_wave_monitor,
    log_wave_record,
    power_wave_record,
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
    terms = w.power_terms(s)
    plus, minus = w.power_terms(s + h), w.power_terms(s - h)
    for order in (1, 2, 3):
        fd = (plus[order - 1] - minus[order - 1]) / (2.0 * h)
        assert terms[order] == pytest.approx(fd, rel=1e-7, abs=1e-10)


def test_log_weight_derivatives_match_fd():
    w = WaveWeightSpec(kind="log", q=1.0, r=2.0, a=32.0)
    s = np.linspace(0.0, 100.0, 11)
    h = 1e-5
    terms = w.log_terms(s)
    plus, minus = w.log_terms(s + h), w.log_terms(s - h)
    for order in (1, 2):
        fd = (plus[order - 1] - minus[order - 1]) / (2.0 * h)
        assert terms[order] == pytest.approx(fd, rel=1e-6, abs=1e-12)
    fd2 = (plus[3] - minus[3]) / (2.0 * h)
    assert terms[4] == pytest.approx(fd2, rel=1e-6, abs=1e-14)


def test_flat_weight_reduces_to_plain_energy():
    """mu = 1/2 makes phi constant: the monitor must reproduce the plain
    wave energy and friction dissipation exactly."""
    grid = Grid1D(L=10.0, N=256, bc="periodic")
    wspec = WaveWeightSpec(kind="power", mu=0.5, a=7.0)
    W = np.exp(-grid.x**2)[:, None]
    Wt = (0.3 * np.sin(grid.x))[:, None]
    Wx = (-2.0 * grid.x * np.exp(-grid.x**2))[:, None]
    k1, lam = 2.0, 3.0
    e, h = power_wave_record(grid, 1.7, wspec, np.vstack([W.T, Wt.T, Wx.T]),
                             k1 * np.eye(1), lam * np.eye(1))
    assert e == pytest.approx(
        0.5 * float(grid.qw @ (Wt[:, 0] ** 2 + k1 * Wx[:, 0] ** 2)), rel=1e-14
    )
    assert h == pytest.approx(lam * float(grid.qw @ Wt[:, 0] ** 2), rel=1e-14)


def test_zero_state_zero_energy():
    grid = Grid1D(L=10.0, N=64, bc="compact_support")
    mon = linear_wave_monitor(STANDARD, WaveWeightSpec(kind="power", mu=1.0, a=4.0))
    e, h = mon.record(grid, 5.0, np.zeros((64, 1)), np.zeros((64, 1)))
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


def test_default_offset_log_probe_is_silent():
    # the a = 1 candidate has log(a) = 0 under a negative power at r = 2.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert default_offset("log", 2400.0, q=1.0, r=2.5) == 32.0


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


def test_psystem_monitor_mass_gate_inside_simulation():
    grid = Grid1D(L=30.0, N=256, bc="periodic")
    mon = LogWaveMonitor(WaveWeightSpec(kind="log", q=1.0, r=2.0, a=32.0))
    rho0 = np.exp(-grid.x**2)
    with pytest.raises(MassNotZero):
        simulate_psystem(PSystemSpec(r=2.0), grid, rho0, 0.0 * rho0, T=1.0, wave=mon)


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
    energy = check_monotone(series, "wave_energy", tol_rel=1e-6)
    assert energy["max_increase"] <= energy["allowed"]
    assert series.channel("wave_dissipation").min() > 0.0


def test_scalar_monitor_wiring():
    wspec = WaveWeightSpec(kind="power", mu=1.0, a=2.0)
    one = np.eye(1)
    mon = LinearWaveMonitor(wspec, a12=one, a12a21=2.0 * one, a12_d_a12inv=1.0 * one)
    assert mon.a12a21[0, 0] == 2.0
    assert mon.a12_d_a12inv[0, 0] == 1.0
    grid = Grid1D(L=20.0, N=128, bc="compact_support")
    n = -2.0 * grid.x * np.exp(-grid.x**2)
    e, h = mon.record(grid, 0.0, n[:, None], 0.1 * np.exp(-grid.x**2)[:, None])
    assert np.isfinite(e) and np.isfinite(h) and e > 0.0


def _qf(M, F, G):
    """Rowwise quadratic form (M F_i) . G_i for stacked fields F, G (N, k)."""
    return np.einsum("ij,jk,ik->i", F, M, G)


def _einsum_wave_record(grid, t, wspec, W, Wt, Wx, a12a21, a12_d_a12inv):
    """power_wave_record on the (N, k) fields, with einsum row reductions."""
    phi, d1, d2, d3 = wspec.power_terms(t + np.abs(grid.x))
    wsq = np.einsum("ij,ij->i", W, W)
    stiff_ww = _qf(a12a21, W, W)
    e = (
        0.5 * phi * (np.einsum("ij,ij->i", Wt, Wt) + _qf(a12a21, Wx, Wx))
        + d1 * np.einsum("ij,ij->i", Wt, W)
        - 0.5 * d2 * wsq
        + 0.5 * d1 * _qf(a12_d_a12inv, W, W)
    )
    h = (
        phi * _qf(a12_d_a12inv, Wt, Wt)
        + 0.5 * d1 * _qf(a12a21, Wx, Wx)
        + 0.5 * d3 * wsq
        - 0.5 * d3 * stiff_ww
    )
    i0 = int(np.argmin(np.abs(grid.x)))
    point_mass = -wspec.power_terms(t)[2] * float(stiff_ww[i0])
    return np.array([grid.qw @ e, grid.qw @ h + point_mass])


def _assert_roundoff_close(got, want):
    """(e, h) equal to the oracle's to within 1e-15 of max(|e|, |h|)."""
    want = np.asarray(want)
    assert np.abs(np.asarray(got) - want).max() <= 1e-15 * np.abs(want).max()


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
    grid = Grid1D(L=20.0, N=128, bc="compact_support")
    U = rng.standard_normal((grid.N, spec.n))
    W = antiderivative(grid, U[:, : spec.n1])
    want = _einsum_wave_record(grid, 1.5, mon.wspec, W, -(U[:, spec.n1:] @ spec.A12.T),
                               U[:, : spec.n1], mon.a12a21, mon.a12_d_a12inv)
    _assert_roundoff_close(mon.record(grid, 1.5, U[:, : spec.n1], U[:, spec.n1:]), want)


@pytest.mark.parametrize("mu", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("k", [1, 2])
def test_power_wave_record_matches_einsum_oracle(k, mu):
    rng = np.random.default_rng(10 * k + int(4 * mu))
    grid = Grid1D(L=20.0, N=129, bc="compact_support")
    W, Wt, Wx = (rng.standard_normal((grid.N, k)) for _ in range(3))
    a12a21 = rng.standard_normal((k, k))
    a12_d = rng.standard_normal((k, k))
    wspec = WaveWeightSpec(kind="power", mu=mu, a=4.0)
    rows = np.vstack([W.T, Wt.T, Wx.T])
    for t in (0.0, 2.5):
        _assert_roundoff_close(power_wave_record(grid, t, wspec, rows, a12a21, a12_d),
                               _einsum_wave_record(grid, t, wspec, W, Wt, Wx, a12a21, a12_d))


def _general_power_terms(mu, a, s):
    """The power family's terms by the general formula, powers and all."""
    p = 2.0 * mu - 1.0
    g = a + s
    return (g**p, p * g ** (p - 1.0), p * (p - 1.0) * g ** (p - 2.0),
            p * (p - 1.0) * (p - 2.0) * g ** (p - 3.0))


@pytest.mark.parametrize("k", [1, 2])
def test_flat_endpoint_skips_the_powers_and_the_curvature_gram_bitwise(k):
    """At mu = 1, phi = a + s with derivatives (1, 0, 0): the terms, the
    offset probe and the wave record read what the general formula, with
    its phi''/phi''' Gram, gives bit for bit."""
    wspec = WaveWeightSpec(kind="power", mu=1.0, a=4.0)
    s = np.linspace(0.0, 300.0, 1001)
    terms = wspec.power_terms(s)
    assert terms[1:] == (1.0, 0.0, 0.0)
    for got, want in zip(terms, _general_power_terms(1.0, 4.0, s)):
        assert np.all(got == want)
    for a in (2.0, 4.0):
        flat = WaveWeightSpec(kind="power", mu=1.0, a=a)
        assert weight_conditions_ok(flat, 1.0, s) == (a == 4.0)

    rng = np.random.default_rng(k)
    grid = Grid1D(L=20.0, N=129, bc="compact_support")
    rows = rng.standard_normal((3 * k, grid.N))
    M, Md = rng.standard_normal((k, k)), rng.standard_normal((k, k))
    w, wt, wx = slice(0, k), slice(k, 2 * k), slice(2 * k, 3 * k)
    for t in (0.0, 2.5):
        phi, d1, d2, d3 = _general_power_terms(1.0, 4.0, t + grid.abs_x)
        g0, g1 = gram(grid, rows, (phi, d1))
        g2, g3 = gram(grid, rows[w], (d2, d3))
        e = (0.5 * (np.trace(g0[wt, wt]) + (M * g0[wx, wx]).sum()) + np.trace(g1[wt, w])
             - 0.5 * np.trace(g2) + 0.5 * (Md * g1[w, w]).sum())
        h = ((Md * g0[wt, wt]).sum() + 0.5 * (M * g1[wx, wx]).sum()
             + 0.5 * np.trace(g3) - 0.5 * (M * g3).sum())
        w0 = rows[w, grid.i0]
        point_mass = -_general_power_terms(1.0, 4.0, t)[2] * float(w0 @ M @ w0)
        assert power_wave_record(grid, t, wspec, rows, M, Md) == (float(e),
                                                                  float(h) + point_mass)


def test_log_monitor_finite_and_positive():
    grid = Grid1D(L=100.0, N=1024, bc="periodic")
    mon = LogWaveMonitor(WaveWeightSpec(kind="log", q=1.0, r=2.0, a=32.0))
    rho = -2.0 * grid.x / 100.0 * np.exp(-((grid.x / 10.0) ** 2))
    u = 0.05 * np.exp(-((grid.x / 10.0) ** 2))
    e, h = mon.record(grid, 3.0, rho, u)
    assert e > 0.0
    assert np.isfinite(h)


def _pow_log_terms(w, s):
    """WaveWeightSpec.log_terms with every power taken by `**`."""
    g = w.a + s
    logg = np.log(g)
    tq = 2.0 * w.q
    m = 2.0 * w.q - w.r + 1.0
    return (
        logg**tq,
        tq * logg ** (tq - 1.0) / g,
        tq * logg ** (tq - 2.0) * ((tq - 1.0) - logg) / g**2,
        logg**m / g**w.r,
        logg ** (m - 1.0) * (m - w.r * logg) / g ** (w.r + 1.0),
    )


def _pow_log_wave_record(grid, t, w, wf, wt, wx):
    """log_wave_record with every power taken by `**`."""
    p1, d1, d2, p2, dp2 = _pow_log_terms(w, t + grid.abs_x)
    rp1 = w.r + 1.0
    e = 0.5 * p1 * (wt**2 + wx**2) + ETA3 * (
        d1 * wf * wt - 0.5 * d2 * wf**2 + p2 * np.abs(wf) ** rp1
    )
    h = p1 * np.abs(wt) ** rp1 + ETA3 * (d1 * wx**2 - dp2 * np.abs(wf) ** rp1)
    point_mass = -ETA3 * _pow_log_terms(w, t)[2] * float(wf[grid.i0] ** 2)
    return float(grid.qw @ e), float(grid.qw @ h) + point_mass


def _thm6_like_fields():
    """rho, u on thm6's domain and a coarser grid: Gaussian tails whose cubes
    underflow, and a w = antiderivative(rho) and a u that change sign."""
    grid = Grid1D(L=400.0, N=2048, bc="periodic")
    bump = np.exp(-((grid.x / 10.0) ** 2))
    rho = 0.01 * (1.0 - grid.x**2 / 50.0) * bump
    u = 0.005 * grid.x * bump
    assert np.any((u != 0.0) & (u * u * u == 0.0))
    return grid, rho, u


def test_log_family_takes_integer_powers_by_products():
    """At q = 1 and r = 2 every exponent is 0, 1, 2 or 3: the product forms
    agree with `**` to a few ulps, term by term and in the wave record."""
    w = WaveWeightSpec(kind="log", q=1.0, r=2.0, a=32.0)
    s = np.linspace(0.0, 2400.0, 4097)
    for got, want in zip(w.log_terms(s), _pow_log_terms(w, s)):
        np.testing.assert_array_max_ulp(got, want, maxulp=2)
    grid, rho, u = _thm6_like_fields()
    wf = antiderivative(grid, rho)
    for t in (0.0, 150.0):
        got = log_wave_record(grid, t, w, wf, -u, rho)
        want = _pow_log_wave_record(grid, t, w, wf, -u, rho)
        np.testing.assert_array_max_ulp(np.array(got), np.array(want), maxulp=4)


def test_log_family_keeps_pow_at_non_integer_exponents():
    """At q = 0.75 and r = 1.5 the exponents 2q, 2q - 1, 2q - 2, r and r + 1
    are not integers, so they go through `**` and match it bit for bit."""
    w = WaveWeightSpec(kind="log", q=0.75, r=1.5, a=8.0)
    s = np.linspace(0.0, 2400.0, 4097)
    for got, want in zip(w.log_terms(s), _pow_log_terms(w, s)):
        assert got.tobytes() == want.tobytes()
    grid, rho, u = _thm6_like_fields()
    wf = antiderivative(grid, rho)
    assert (log_wave_record(grid, 150.0, w, wf, -u, rho)
            == _pow_log_wave_record(grid, 150.0, w, wf, -u, rho))


def test_log_offsets_unchanged_by_the_product_powers():
    """The offsets the `**` forms chose: at thm6's s-range (T + L = 2400, also
    in `test_default_offsets_frozen`), at its refinement sub-run's (410),
    and at non-integer exponents."""
    assert default_offset("log", 2400.0, q=1.0, r=2.0) == 32.0
    assert default_offset("log", 410.0, q=1.0, r=2.0) == 32.0
    assert default_offset("log", 2400.0, q=0.75, r=1.5) == 8.0


def test_log_terms_and_wave_record_are_silent():
    """Underflowing tails raise no warning in either log function."""
    grid, rho, u = _thm6_like_fields()
    wf = antiderivative(grid, rho)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q, r, a in ((1.0, 2.0, 32.0), (0.75, 1.5, 8.0)):
            w = WaveWeightSpec(kind="log", q=q, r=r, a=a)
            w.log_terms(np.linspace(0.0, 2400.0, 4097))
            log_wave_record(grid, 150.0, w, wf, -u, rho)
