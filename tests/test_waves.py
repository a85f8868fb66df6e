"""Space-time weighted wave-energy monitors and their validity conditions."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypodecay.analysis import check_monotone
from hypodecay.corrector import select_coefficients
from hypodecay.errors import MassNotZero, MuOutOfRange
from hypodecay.grids import Grid1D, WeightSpec, antiderivative, d_dx, gram, inner
from hypodecay.linalg import SystemSpec
from hypodecay.solvers.linear import LinearSim, simulate_linear
from hypodecay.solvers import linear, waves
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
    power_forms,
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
    rows = np.vstack([W.T, Wt.T, Wx.T])
    e, h = power_wave_record(grid, 1.7, wspec,
                             power_forms(k1 * np.eye(1), lam * np.eye(1), np.eye(3)),
                             rows, None, range(len(rows)))
    assert e == pytest.approx(
        0.5 * float(grid.qw @ (Wt[:, 0] ** 2 + k1 * Wx[:, 0] ** 2)), rel=1e-14
    )
    assert h == pytest.approx(lam * float(grid.qw @ Wt[:, 0] ** 2), rel=1e-14)


def test_zero_state_zero_energy():
    grid = Grid1D(L=10.0, N=64, bc="compact_support")
    mon = linear_wave_monitor(STANDARD, WaveWeightSpec(kind="power", mu=1.0, a=4.0))
    e, h = mon.record(grid, 5.0, mon.stack(grid, np.zeros((2, 64))))
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


def test_zero_mass_gate(monkeypatch):
    grid = Grid1D(L=30.0, N=512, bc="compact_support")
    bump = np.exp(-grid.x**2)
    with pytest.raises(MassNotZero):
        check_zero_mass(grid, bump)
    check_zero_mass(grid, -2.0 * grid.x * np.exp(-grid.x**2))  # odd: mass 0
    # loosened tolerance admits the bump
    monkeypatch.setattr(waves, "MASS_TOL", 10.0)
    check_zero_mass(grid, bump)


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
    e, h = mon.record(grid, 0.0, mon.stack(grid, (n, 0.1 * np.exp(-grid.x**2))))
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
    _assert_roundoff_close(mon.record(grid, 1.5, mon.stack(grid, U.T)), want)


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
        forms = power_forms(a12a21, a12_d, np.eye(3 * k))
        _assert_roundoff_close(power_wave_record(grid, t, wspec, forms, rows, None,
                                                 range(len(rows))),
                               _einsum_wave_record(grid, t, wspec, W, Wt, Wx, a12a21, a12_d))


def _general_power_terms(mu, a, s):
    """The power family's terms by the general formula, powers and all."""
    p = 2.0 * mu - 1.0
    g = a + s
    return (g**p, p * g ** (p - 1.0), p * (p - 1.0) * g ** (p - 2.0),
            p * (p - 1.0) * (p - 2.0) * g ** (p - 3.0))


class _GeneralPower(WaveWeightSpec):
    """The power family with every term taken by the general formula."""

    def power_terms(self, s):
        return _general_power_terms(self.mu, self.a, s)


def _counted_grams(monkeypatch, *modules):
    """Replace each module's `gram` by one wrapper; returns the list of the
    weights it is called with, None for an unweighted Gram."""
    calls = []

    def counted(grid, rows, c=None):
        calls.append(c)
        return gram(grid, rows, c)

    for module in modules:
        monkeypatch.setattr(module, "gram", counted)
    return calls


@pytest.mark.parametrize("k", [1, 2])
def test_flat_endpoint_skips_the_powers_and_the_curvature_gram_bitwise(k, monkeypatch):
    """At mu = 1, phi = a + s with derivatives (1, 0, 0): the terms, the
    offset probe and the wave record read what the general formula, with
    its phi', phi'' and phi''' Grams, gives bit for bit, and the record
    takes the Gram of phi alone."""
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
    forms = power_forms(rng.standard_normal((k, k)), rng.standard_normal((k, k)),
                        np.eye(3 * k))
    at = range(len(rows))
    calls = _counted_grams(monkeypatch, waves)
    for t in (0.0, 2.5):
        calls.clear()
        got = power_wave_record(grid, t, wspec, forms, rows, None, at)
        assert [c is None for c in calls] == [True, False]
        assert np.array_equal(calls[1], 4.0 + (t + grid.abs_x))
        calls.clear()
        general = _GeneralPower(kind="power", mu=1.0, a=4.0)
        assert power_wave_record(grid, t, general, forms, rows, None, at) == got
        assert [c is None for c in calls] == [True, False, False, False, False]


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


# --- the linear record: every channel from one Gram --------------------------


def _wave_run(k, bc, mu):
    """A 2k-component system with square invertible A12 and smooth data of
    zero U1 mass, run two steps with every observer on: (sim, coeffs,
    monitor, spatial weight, series, {sample time: U})."""
    rng = np.random.default_rng(10 * k + int(4 * mu))
    A = rng.standard_normal((2 * k, 2 * k))
    R = rng.standard_normal((k, k))
    spec = SystemSpec(A=A + A.T, D=R @ R.T + np.eye(k), n1=k)
    grid = Grid1D(L=10.0, N=96, bc=bc)
    x = grid.x
    bump = np.exp(-x**2)
    U0 = np.column_stack([c * x * bump for c in rng.standard_normal(k)]
                         + [(a + b * x) * bump for a, b in rng.standard_normal((k, 2))])
    sim = LinearSim(spec=spec, grid=grid)
    coeffs = select_coefficients(spec)
    mon = linear_wave_monitor(spec, WaveWeightSpec(kind="power", mu=mu, a=4.0))
    weight = WeightSpec("power", mu=1.0)
    T = 2.0 * sim.dt
    series, snaps = simulate_linear(sim, U0, T, coeffs=coeffs, weight=weight, wave=mon,
                                    snapshot_times=(0.0, T))
    return sim, coeffs, mon, weight, series, snaps


def _inner_channels(sim, coeffs, mon, weight, t, U):
    """Every channel of the linear record, by `inner` on the fields."""
    spec, grid, k = sim.spec, sim.grid, sim.spec.n1
    dU = d_dx(grid, U)
    U1, U2 = U[:, :k], U[:, k:]
    W, Wt, Wx = antiderivative(grid, U1), -(U2 @ spec.A12.T), U1
    M, Md = mon.a12a21, mon.a12_d_a12inv
    phi, d1, d2, d3 = mon.wspec.power_terms(t + grid.abs_x)
    P = spec.damped_powers
    cross = [e * inner(grid, U @ P[j].T, dU @ P[j + 1].T) for j, e in enumerate(coeffs.eps)]
    w0 = W[grid.i0]
    return {
        "l2": np.sqrt(inner(grid, U, U)),
        "u1_l2": np.sqrt(inner(grid, U1, U1)),
        "u2_l2": np.sqrt(inner(grid, U2, U2)),
        "dx_l2": np.sqrt(inner(grid, dU, dU)),
        "dissipation": 2.0 * inner(grid, U2 @ spec.D.T, U2),
        "lyapunov": inner(grid, U, U) + (1.0 + coeffs.eta0 * t) * inner(grid, dU, dU)
        + sum(cross),
        "weighted_l2": np.sqrt(inner(grid, U, U, weight.values(grid.x) ** 2)),
        "wave_energy": 0.5 * inner(grid, Wt, Wt, phi) + 0.5 * inner(grid, Wx, Wx @ M.T, phi)
        + inner(grid, Wt, W, d1) - 0.5 * inner(grid, W, W, d2)
        + 0.5 * inner(grid, W, W @ Md.T, d1),
        "wave_dissipation": inner(grid, Wt, Wt @ Md.T, phi)
        + 0.5 * inner(grid, Wx, Wx @ M.T, d1) + 0.5 * inner(grid, W, W, d3)
        - 0.5 * inner(grid, W, W @ M.T, d3)
        - mon.wspec.power_terms(t)[2] * float(w0 @ M @ w0),
    }


@pytest.mark.parametrize("bc", ["periodic", "compact_support"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("mu", [1.0, 0.75])
def test_linear_record_reads_every_channel_from_its_grams(mu, k, bc):
    """Every channel of the linear record, the wave pair included, against
    `inner` on the fields and the wave pair against `power_wave_record`
    on the explicitly built rows [W; W_t; W_x], to 1e-14 relative, at the
    first and the last sample."""
    sim, coeffs, mon, weight, series, snaps = _wave_run(k, bc, mu)
    grid, spec = sim.grid, sim.spec
    for i, (t, U) in zip((0, -1), sorted(snaps.items())):
        assert series.t[i] == t
        got = {name: v[i] for name, v in series.channels.items()}
        want = _inner_channels(sim, coeffs, mon, weight, t, U)
        assert set(got) == set(want)
        for name, value in want.items():
            assert abs(got[name] - value) <= 1e-14 * abs(value), name
        W = antiderivative(grid, U[:, :k])
        rows = np.vstack([W.T, -(spec.A12 @ U[:, k:].T), U[:, :k].T])
        forms = power_forms(mon.a12a21, mon.a12_d_a12inv, np.eye(3 * k))
        e, h = power_wave_record(grid, t, mon.wspec, forms, rows, None, range(len(rows)))
        assert abs(got["wave_energy"] - e) <= 1e-14 * abs(e)
        assert abs(got["wave_dissipation"] - h) <= 1e-14 * abs(h)


@pytest.mark.parametrize("mu, weighted", [(1.0, 1), (0.75, 4)])
def test_linear_record_takes_one_gram_per_non_constant_weight(monkeypatch, mu, weighted):
    """Per sample: one unweighted Gram of [U; d_x U; W], then one weighted
    Gram per wave weight that is not a constant, phi alone at mu = 1."""
    calls = _counted_grams(monkeypatch, linear, waves)
    series = _wave_run(1, "compact_support", mu)[4]
    assert [c is None for c in calls] == [True, *[False] * weighted] * len(series.t)
