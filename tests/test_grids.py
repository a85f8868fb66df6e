import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypodecay.grids import (
    Grid1D,
    WeightSpec,
    antiderivative,
    boundary_amplitude,
    d_dx,
    fourth_difference,
    h1_norm,
    inner,
    l2_norm,
    _component_sum,
)
from hypodecay.solvers.heat import _laplacian


def test_constructor_guards():
    with pytest.raises(ValueError):
        Grid1D(L=0.0, N=64)
    with pytest.raises(ValueError):
        Grid1D(L=10.0, N=8)
    with pytest.raises(ValueError):
        Grid1D(L=10.0, N=64, bc="dirichlet")


def test_periodic_layout():
    g = Grid1D(L=10.0, N=40, bc="periodic")
    assert g.dx == pytest.approx(0.5)
    assert g.x[0] == -10.0
    assert g.x[-1] == pytest.approx(10.0 - g.dx)  # right endpoint excluded
    assert g.qw.sum() == pytest.approx(20.0)
    assert g.periodic


def test_compact_layout():
    g = Grid1D(L=10.0, N=41, bc="compact_support")
    assert g.x[0] == -10.0 and g.x[-1] == 10.0
    assert g.qw[0] == g.qw[-1] == g.dx / 2.0
    assert g.qw.sum() == pytest.approx(20.0)
    assert not g.periodic


def test_gaussian_quadrature_machine_precision():
    # trapezoid is super-algebraically accurate for rapidly decaying data
    g = Grid1D(L=50.0, N=2048, bc="periodic")
    f = np.exp(-g.x**2)
    assert g.qw @ f == pytest.approx(np.sqrt(np.pi), rel=1e-14)
    assert l2_norm(g, f) == pytest.approx((np.pi / 2.0) ** 0.25, rel=1e-14)


def test_summation_by_parts_periodic():
    g = Grid1D(L=np.pi, N=128, bc="periodic")
    f = np.sin(g.x) + 0.3 * np.cos(3 * g.x)
    h = np.cos(2 * g.x)
    assert abs(inner(g, f, d_dx(g, h)) + inner(g, d_dx(g, f), h)) < 1e-13


def test_summation_by_parts_compact_interior_support():
    g = Grid1D(L=30.0, N=512, bc="compact_support")
    f = np.exp(-g.x**2)
    h = g.x * np.exp(-g.x**2)
    assert abs(inner(g, f, d_dx(g, h)) + inner(g, d_dx(g, f), h)) < 1e-13


def test_derivative_second_order():
    errs = []
    for N in (128, 256, 512):
        g = Grid1D(L=np.pi, N=N, bc="periodic")
        errs.append(np.abs(d_dx(g, np.sin(g.x)) - np.cos(g.x)).max())
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.1)


def test_one_sided_ends_exact_for_quadratics():
    g = Grid1D(L=5.0, N=64, bc="compact_support")
    assert np.abs(d_dx(g, g.x**2) - 2.0 * g.x).max() < 1e-11


def test_fourth_difference_oracles():
    g = Grid1D(L=5.0, N=80, bc="compact_support")
    # cubic lies in the stencil kernel; quartic gives the constant 24 dx^4
    assert np.abs(fourth_difference(g, g.x**3)[2:-2]).max() < 1e-9
    quartic = fourth_difference(g, g.x**4)
    assert quartic[2:-2] == pytest.approx(24.0 * g.dx**4, rel=1e-6)
    assert np.all(quartic[:2] == 0.0) and np.all(quartic[-2:] == 0.0)


def test_fourth_difference_periodic_wraps():
    g = Grid1D(L=np.pi, N=64, bc="periodic")
    out = fourth_difference(g, np.sin(g.x))
    # undivided stencil of sin: (2 sin(dx/2))^4 * sin(x)
    factor = (2.0 * np.sin(g.dx / 2.0)) ** 4
    assert out == pytest.approx(factor * np.sin(g.x), abs=1e-12)


@pytest.mark.parametrize("N", [16, 63])
@pytest.mark.parametrize("k", [None, 2])
def test_periodic_stencils_match_roll_reference(N, k):
    g = Grid1D(L=3.0, N=N, bc="periodic")
    rng = np.random.default_rng(N)
    f = rng.standard_normal(N if k is None else (N, k))

    def s(shift):
        return np.roll(f, shift, axis=0)

    assert np.array_equal(d_dx(g, f), (s(-1) - s(1)) / (2.0 * g.dx))
    assert np.array_equal(
        fourth_difference(g, f),
        s(-2) - 4.0 * s(-1) + 6.0 * f - 4.0 * s(1) + s(2),
    )
    if k is None:
        lap = (s(-1) - 2.0 * f + s(1)) / g.dx**2
        assert np.array_equal(_laplacian(f, g.dx, True), lap)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_component_sum_matches_numpy_row_sum(k):
    rng = np.random.default_rng(k)
    f = rng.standard_normal((257, k))
    g = rng.standard_normal((257, k))
    assert np.array_equal(_component_sum(f, g), (f * g).sum(axis=1))
    assert np.array_equal(_component_sum(f, f), (f * f).sum(axis=1))
    wide = rng.standard_normal((257, k + 3))
    fv, gv = wide[:, 1:k + 1], wide[:, 3:k + 3]  # strided column-slice views
    assert np.array_equal(_component_sum(fv, gv), (fv * gv).sum(axis=1))


def test_weight_values():
    w = WeightSpec("power", mu=2.0)
    assert w.values(np.array([-3.0, 0.0, 2.0])) == pytest.approx([9.0, 0.0, 4.0])
    wl = WeightSpec("logarithmic", q=2.0)
    assert wl.values(np.array([np.e - 1.0])) == pytest.approx([1.0])


def test_weight_guards():
    with pytest.raises(ValueError):
        WeightSpec("power", mu=-0.5)
    with pytest.raises(ValueError):
        WeightSpec("logarithmic", q=0.0)
    with pytest.raises(ValueError):
        WeightSpec("tent")


def test_weighted_norm_squares_weight():
    g = Grid1D(L=20.0, N=512, bc="periodic")
    f = np.exp(-g.x**2 / 2.0)
    w = WeightSpec("power", mu=1.0)
    # int x^2 e^{-x^2} = sqrt(pi)/2
    assert l2_norm(g, f, w) ** 2 == pytest.approx(np.sqrt(np.pi) / 2.0, rel=1e-12)


def test_multicomponent_norm():
    g = Grid1D(L=10.0, N=128, bc="periodic")
    f = np.exp(-g.x**2)
    U = np.stack([3.0 * f, 4.0 * f], axis=1)
    assert l2_norm(g, U) == pytest.approx(5.0 * l2_norm(g, f), rel=1e-14)


def test_h1_norm_pythagoras():
    g = Grid1D(L=np.pi, N=256, bc="periodic")
    f = np.sin(g.x)
    a, b = l2_norm(g, f), l2_norm(g, d_dx(g, f))
    assert h1_norm(g, f) == pytest.approx(np.hypot(a, b), rel=1e-14)


def test_antiderivative_round_trip():
    g = Grid1D(L=25.0, N=2048, bc="compact_support")
    f = -2.0 * g.x * np.exp(-g.x**2)  # derivative of a Gaussian: zero mass
    F, mass = antiderivative(g, f)
    assert F[0] == 0.0
    assert abs(mass) < 1e-14
    # both bounds sit one decade above the dx^2 truncation estimate
    assert np.abs(F - (np.exp(-g.x**2) - np.exp(-g.L**2))).max() < 2e-4
    assert np.abs(d_dx(g, F)[1:-1] - f[1:-1]).max() < 2e-3


def test_antiderivative_mass_per_component():
    g = Grid1D(L=10.0, N=256, bc="compact_support")
    U = np.stack([np.exp(-g.x**2), g.x * np.exp(-g.x**2)], axis=1)
    _, mass = antiderivative(g, U)
    assert mass.shape == (2,)
    assert mass[0] == pytest.approx(np.sqrt(np.pi), rel=1e-10)
    assert abs(mass[1]) < 1e-14


def test_boundary_amplitude():
    g = Grid1D(L=10.0, N=64, bc="compact_support")
    f = np.zeros(64)
    f[0] = -0.25
    f[-1] = 0.125
    assert boundary_amplitude(g, f) == 0.25
    U = np.zeros((64, 2))
    U[-1, 1] = 0.5
    assert boundary_amplitude(g, U) == 0.5


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=5),
    c=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
def test_sbp_holds_for_trig_family(k, c):
    g = Grid1D(L=np.pi, N=96, bc="periodic")
    f = np.sin(k * g.x) + c
    h = np.cos(k * g.x)
    scale = 1.0 + abs(c)
    assert abs(inner(g, f, d_dx(g, h)) + inner(g, d_dx(g, f), h)) < 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(width=st.floats(min_value=1.0, max_value=5.0, allow_nan=False),
       shift=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
def test_translated_gaussian_mass_invariant(width, shift):
    g = Grid1D(L=60.0, N=1024, bc="periodic")
    f = np.exp(-(((g.x - shift) / width) ** 2))
    assert g.qw @ f == pytest.approx(width * np.sqrt(np.pi), rel=1e-12)
