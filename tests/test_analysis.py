"""Post-processing layer: fits, boundedness, identity residuals, comparisons.

Expected values below come from closed forms (gamma-function moments,
telescoping differences, exact power laws), never from the routines
under test.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma

from hypodecay import analysis
from hypodecay.analysis import (
    TimeSeries,
    bounded_product,
    certify_weighted_bound,
    check_ckn,
    check_decay_inequality,
    check_energy_law,
    check_monotone,
    fit_power,
)
from hypodecay.errors import (
    HypothesisFails,
    HypothesisViolated,
    MissingChannel,
    MuOutOfRange,
    NonpositiveValues,
    WindowTooSmall,
)
from hypodecay.grids import Grid1D


def _series(t, **channels):
    return TimeSeries(t=np.asarray(t, dtype=float),
                      channels={k: np.asarray(v, dtype=float)
                                for k, v in channels.items()})


# --- time series container ---------------------------------------------


def test_series_validation():
    with pytest.raises(ValueError):
        _series([0.0], v=[1.0])
    with pytest.raises(ValueError):
        _series([0.0, 0.0], v=[1.0, 1.0])
    with pytest.raises(ValueError):
        _series([0.0, 1.0], v=[1.0])
    with pytest.raises(ValueError):
        _series([0.0, 1.0], v=[1.0, np.nan])


def test_missing_channel_lists_alternatives():
    s = _series([0.0, 1.0], l2=[1.0, 0.5])
    with pytest.raises(MissingChannel, match="l2"):
        s.channel("h1")


# --- power-law fits -----------------------------------------------------


def test_fit_recovers_exact_power_law():
    """An exact C (1+t)^alpha law comes back bit-clean."""
    t = np.linspace(0.0, 100.0, 501)
    s = _series(t, v=3.7 * (1.0 + t) ** -0.55)
    fit = fit_power(s, "v", 0.0, 100.0)
    assert fit.alpha == pytest.approx(-0.55, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(min_value=-2.0, max_value=-0.1, allow_nan=False),
    amp=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
)
def test_fit_amplitude_equivariance(alpha, amp):
    """Rescaling the channel never moves the exponent."""
    t = np.linspace(0.0, 80.0, 201)
    base = (1.0 + t) ** alpha
    f1 = fit_power(_series(t, v=base), "v", 5.0, 80.0)
    f2 = fit_power(_series(t, v=amp * base), "v", 5.0, 80.0)
    assert f2.alpha == pytest.approx(f1.alpha, abs=1e-10)


def test_fit_constant_channel_is_flat():
    t = np.linspace(0.0, 50.0, 101)
    fit = fit_power(_series(t, v=np.full_like(t, 5.0)), "v", 0.0, 50.0)
    assert fit.alpha == pytest.approx(0.0, abs=1e-13)
    assert fit.r2 == 1.0


def test_fit_sees_logarithmic_bias():
    """A (1+t)^-1 law with a log factor fits measurably shallower than -1."""
    t = np.linspace(0.0, 5000.0, 4001)
    s = _series(t, v=(1.0 + t) ** -1 * np.log(2.0 + t))
    fit = fit_power(s, "v", 50.0, 5000.0)
    assert -1.0 < fit.alpha < -0.8
    assert fit.r2 > 0.999


def test_fit_window_guards():
    t = np.linspace(0.0, 100.0, 51)
    s = _series(t, v=(1.0 + t) ** -1)
    with pytest.raises(WindowTooSmall):
        fit_power(s, "v", 90.0, 100.0)
    v = (1.0 + t) ** -1
    v[30] = 0.0
    with pytest.raises(NonpositiveValues):
        fit_power(_series(t, v=v), "v", 0.0, 100.0)


# --- boundedness of log-weighted products -------------------------------


def test_bounded_product_exact_law():
    """Channel = C / log^q(1+t) makes the weighted product constant."""
    t = np.linspace(0.0, 2000.0, 1001)
    v = 4.2 / np.log1p(t + 1e-300) ** 1.0
    v[0] = v[1]  # avoid the t=0 singularity of the synthetic law
    out = bounded_product(_series(t, v=v), "v", q=1.0)
    assert set(out) == {"sup", "ratio_late_early", "t0"}  # a record, not a verdict
    assert out["ratio_late_early"] == pytest.approx(1.0, abs=1e-9)
    assert out["sup"] == pytest.approx(4.2, rel=1e-9)


def test_bounded_product_flags_growth():
    t = np.linspace(0.0, 2000.0, 1001)
    out = bounded_product(_series(t, v=np.ones_like(t)), "v", q=1.0)
    assert out["ratio_late_early"] > 1.2  # above the registry's cap of 1.10


def test_bounded_product_plain_sup_at_q0():
    t = np.linspace(0.0, 100.0, 401)
    v = (1.0 + t) ** -0.3
    out = bounded_product(_series(t, v=v), "v", q=0.0)
    assert out["ratio_late_early"] < 1.0
    assert out["sup"] == pytest.approx(v[t >= 10.0].max())


def test_bounded_product_needs_tail():
    t = np.linspace(0.0, 5.0, 100)
    with pytest.raises(WindowTooSmall):
        bounded_product(_series(t, v=np.ones_like(t)), "v", q=1.0)


# --- energy-law residual -------------------------------------------------


def test_energy_law_truncation_level():
    """For ||u|| = e^{-t/2} with dissipation e^{-t} the residual is pure
    central-difference truncation, about dt^2/6 at the first node."""
    t = np.linspace(0.0, 10.0, 201)
    s = _series(t, l2=np.exp(-t / 2.0), dissipation=np.exp(-t))
    out = check_energy_law(s)
    dt = t[1] - t[0]
    assert out["n_interior"] == 199
    assert out["max_residual"] < dt**2 / 6.0 * 1.05
    assert out["max_residual"] > dt**2 / 6.0 * 0.5
    assert out["l1_residual"] < out["max_residual"] * (t[-1] - t[0])


def test_energy_law_rejects_coarse_sampling():
    t = np.linspace(0.0, 10.0, 21)
    s = TimeSeries(t=t, channels={"l2": np.exp(-t), "dissipation": np.exp(-t)},
                   meta={"dt_step": 1e-3})
    with pytest.raises(HypothesisViolated, match="sample gap"):
        check_energy_law(s)


# --- weighted interpolation inequality ----------------------------------


def _ckn_closed_form(mu):
    # Gaussian moments: ratio = (2mu-1)/2 * sqrt(Gamma(mu-1/2)/Gamma(mu+3/2))
    return (2.0 * mu - 1.0) / 2.0 * np.sqrt(gamma(mu - 0.5) / gamma(mu + 1.5))


@pytest.mark.parametrize("mu,expected", [
    (1.0, 1.0 / np.sqrt(3.0)),
    (1.5, 1.0 / np.sqrt(2.0)),
])
def test_ckn_gaussian_closed_forms(mu, expected):
    grid = Grid1D(L=30.0, N=8193, bc="compact_support")
    assert _ckn_closed_form(mu) == pytest.approx(expected, rel=1e-12)
    out = check_ckn(grid, lambda x: np.exp(-x**2 / 2.0), mu)
    assert out["ratio"] == pytest.approx(expected, rel=1e-4)
    assert out["lhs"] <= out["rhs"]


def test_ckn_singular_weight_stays_conservative():
    """Below mu = 1 the weight is singular at the origin; the zero-node
    convention drops mass from the lhs, so the discrete ratio must sit
    under the continuum value."""
    grid = Grid1D(L=30.0, N=8193, bc="compact_support")
    out = check_ckn(grid, lambda x: np.exp(-x**2 / 2.0), 0.6)
    assert 0.0 < out["ratio"] < _ckn_closed_form(0.6)


def test_ckn_zero_field():
    grid = Grid1D(L=10.0, N=256, bc="compact_support")
    out = check_ckn(grid, np.zeros_like, 1.0)
    assert out["ratio"] == 0.0


def test_ckn_mu_range():
    grid = Grid1D(L=10.0, N=256, bc="compact_support")
    with pytest.raises(MuOutOfRange):
        check_ckn(grid, np.ones_like, 0.5)


@settings(max_examples=25, deadline=None)
@given(
    mu=st.floats(min_value=0.55, max_value=1.5, allow_nan=False),
    width=st.floats(min_value=0.5, max_value=3.0, allow_nan=False),
    center=st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
)
def test_ckn_inequality_for_bumps(mu, width, center):
    """The sharp-constant inequality holds for arbitrary smooth bumps."""
    grid = Grid1D(L=40.0, N=4097, bc="compact_support")
    out = check_ckn(grid, lambda x: np.exp(-(((x - center) / width) ** 2)), mu)
    assert out["lhs"] <= out["rhs"] * (1.0 + 1e-6)


def _ckn_one_pass(grid, h, mu):
    """The quadratures over the whole grid at once: qw . (w h^2), qw . (|x|^2mu h'^2),
    h' centred inside and second-order one-sided at the two ends."""
    ax = np.abs(grid.x)
    with np.errstate(divide="ignore"):
        wl = ax ** (2.0 * (mu - 1.0))
    if mu < 1.0:
        wl[ax == 0.0] = 0.0
    dh = np.empty_like(h)
    dh[1:-1] = (h[2:] - h[:-2]) / (2.0 * grid.dx)
    dh[0] = (-3.0 * h[0] + 4.0 * h[1] - h[2]) / (2.0 * grid.dx)
    dh[-1] = (3.0 * h[-1] - 4.0 * h[-2] + h[-3]) / (2.0 * grid.dx)
    return grid.qw @ (wl * h * h), grid.qw @ (ax ** (2.0 * mu) * dh * dh)


# N = 1025 is odd, so a node sits at x = 0; blocks of 1024, 64 and 2 leave
# a trailing block of one node, blocks of 1023 and 3 one of two.
@pytest.mark.parametrize("block", [1024, 1023, 64, 3, 2])
@pytest.mark.parametrize("mu", [0.6, 1.0, 1.5])
def test_ckn_blocks_match_one_block(mu, block, monkeypatch):
    grid = Grid1D(L=20.0, N=1025, bc="compact_support")
    assert grid.x[512] == 0.0

    def field(x):
        return np.exp(-(((x - 0.7) / 2.5) ** 2)) * np.cos(x) + 1e-3 * x

    assert analysis.CKN_BLOCK >= grid.N
    whole = check_ckn(grid, field, mu)
    lhs2, rhs2 = _ckn_one_pass(grid, field(grid.x), mu)
    assert whole["lhs"] == pytest.approx(np.sqrt(lhs2), rel=1e-15)
    assert whole["rhs"] == pytest.approx(2.0 / (2.0 * mu - 1.0) * np.sqrt(rhs2), rel=1e-15)
    monkeypatch.setattr(analysis, "CKN_BLOCK", block)
    out = check_ckn(grid, field, mu)
    for key in ("lhs", "rhs", "ratio"):
        assert out[key] == pytest.approx(whole[key], rel=1e-13, abs=0.0), key


@pytest.mark.parametrize("block", [4096, 16, 3])
def test_ckn_one_sided_ends_exact_for_quadratics(block, monkeypatch):
    """The derivative in the rhs is exact for a quadratic at every node, the
    grid's ends included, where its one-sided rows read no node past +-L:
    h = x^2 has h' = 2x there, not a difference across the window."""
    grid = Grid1D(L=5.0, N=64, bc="compact_support")
    monkeypatch.setattr(analysis, "CKN_BLOCK", block)
    mu = 1.0
    out = check_ckn(grid, lambda x: x**2, mu)
    want = grid.qw @ (np.abs(grid.x) ** (2.0 * mu) * (2.0 * grid.x) ** 2)
    assert out["rhs"] == pytest.approx(2.0 / (2.0 * mu - 1.0) * np.sqrt(want), rel=1e-12)


def test_ckn_evaluates_a_field_function_block_by_block(monkeypatch):
    grid = Grid1D(L=20.0, N=1025, bc="compact_support")
    sizes = []

    def field(x):
        sizes.append(x.size)
        return np.exp(-x**2)

    monkeypatch.setattr(analysis, "CKN_BLOCK", 100)
    check_ckn(grid, field, 1.0)
    assert max(sizes) <= 102 and sum(sizes) < grid.N + 2 * len(sizes)


def test_ckn_refuses_a_periodic_grid():
    with pytest.raises(HypothesisViolated, match="compact"):
        check_ckn(Grid1D(L=10.0, N=256), np.ones_like, 1.0)


# --- decay-inequality comparison ----------------------------------------


def test_decay_inequality_equality_case():
    """E1 = (1+t)^{-1}, E2 = 0, a1 = 1 saturates the hypothesis: the
    central difference undershoots the true derivative (F''' < 0), so the
    positive-part slack is exactly zero and the bound holds with margin
    t/(1+t) evaluated at the endpoint."""
    t = np.linspace(0.0, 50.0, 2001)
    s = _series(t, e1=(1.0 + t) ** -1, e2=np.zeros_like(t))
    out = check_decay_inequality(s, "e1", "e2", a1=1.0, a2=1.0, mu=1.0, eta0=0.1)
    assert out["slack"] == 0.0
    assert set(out) == {"slack", "slack_tol", "conclusion_margin", "C", "p"}
    assert out["conclusion_margin"] == pytest.approx(50.0 / 51.0, rel=1e-12)
    assert out["C"] == 1.0
    assert out["p"] == 2.0


def test_decay_inequality_cushioned_case():
    t = np.linspace(0.0, 50.0, 2001)
    s = _series(t, e1=(1.0 + t) ** -1, e2=1e-3 * (1.0 + t) ** -3)
    out = check_decay_inequality(s, "e1", "e2", a1=0.99, a2=1.0, mu=1.0, eta0=0.1)
    assert out["slack"] == 0.0 < out["slack_tol"]
    assert out["conclusion_margin"] < 1.0


def test_decay_inequality_rejects_non_decaying():
    t = np.linspace(0.0, 50.0, 501)
    s = _series(t, e1=np.ones_like(t), e2=np.zeros_like(t))
    with pytest.raises(HypothesisFails) as err:
        check_decay_inequality(s, "e1", "e2", a1=1.0, a2=1.0, mu=1.0, eta0=0.1)
    assert err.value.time is not None


def test_decay_inequality_preconditions():
    t = np.linspace(0.0, 50.0, 501)
    s = _series(t, e1=(1.0 + t) ** -1, e2=np.zeros_like(t))
    with pytest.raises(HypothesisViolated, match="mu must be positive"):
        check_decay_inequality(s, "e1", "e2", a1=1.0, a2=1.0, mu=0.0, eta0=0.1)
    with pytest.raises(HypothesisViolated, match="need 0 < eta0"):
        check_decay_inequality(s, "e1", "e2", a1=1.0, a2=1.0, mu=1.0, eta0=2.0)
    with pytest.raises(HypothesisViolated, match="p = mu\\+1"):
        # eta0 admissible for the hypothesis but too large for p = mu + 1
        check_decay_inequality(s, "e1", "e2", a1=1.0, a2=1.0, mu=1.0, eta0=0.6)
    with pytest.raises(HypothesisViolated, match="nonnegative"):
        bad = _series(t, e1=(1.0 + t) ** -1, e2=np.full_like(t, -1.0))
        check_decay_inequality(bad, "e1", "e2", a1=1.0, a2=1.0, mu=1.0, eta0=0.1)


# --- monotonicity and sup bounds ----------------------------------------


def test_monotone_accepts_decay():
    t = np.linspace(0.0, 10.0, 101)
    out = check_monotone(_series(t, v=np.exp(-t)), "v")
    assert out["max_increase"] <= 0.0 < out["allowed"]


def test_monotone_tolerance_scales_with_start():
    t = np.array([0.0, 1.0, 2.0, 3.0])
    v = np.array([10.0, 5.0, 5.0 + 4e-8 * 10.0, 4.0])
    out = check_monotone(_series(t, v=v), "v", tol_rel=1e-8)
    assert out["allowed"] == pytest.approx(10.0 * 1e-8, rel=1e-15)
    assert out["max_increase"] > out["allowed"]
    assert out["t_worst"] == 2.0
    looser = check_monotone(_series(t, v=v), "v", tol_rel=1e-7)
    assert looser["max_increase"] <= looser["allowed"]


def test_weighted_bound_certificate():
    t = np.array([0.0, 1.0, 2.0])
    out = certify_weighted_bound(_series(t, v=[0.5, 2.0, 1.0]), "v", 1.5)
    assert out == {"sup": 2.0, "t_sup": 1.0, "bound": 1.5}
