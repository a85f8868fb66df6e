import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypodecay
from hypodecay.corrector import (
    CorrectorCoeffs,
    constraint_margins,
    corrector_value,
    estimate_c_bound,
    estimate_ck,
    lyapunov_value,
    select_coefficients,
    select_exponents,
    select_weighted_coefficients,
    weighted_data_size,
)
from hypodecay.errors import (
    ConstraintSearchFailed,
    HypothesisViolated,
    SKConditionFails,
)
from hypodecay.grids import Grid1D, d_dx, h1_norm, l2_norm
from hypodecay.linalg import SystemSpec, kalman_gram, min_eig_sym

STANDARD = SystemSpec(A=np.array([[0.0, 1.0], [1.0, 0.0]]),
                      D=np.array([[1.0]]), n1=1)
STIFF = SystemSpec(A=np.array([[0.0, 1.0], [1.0, 0.0]]),
                   D=np.array([[32.0]]), n1=1)
DECOUPLED = SystemSpec(A=np.diag([1.0, -1.0]), D=np.array([[1.0]]), n1=1)
TRIDIAG = SystemSpec(
    A=np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
    D=np.eye(2),
    n1=1,
)


def test_exponent_ladder_n2():
    assert select_exponents(2, 0.1) == pytest.approx([1.4])


def test_exponent_ladder_n3():
    assert select_exponents(3, 0.1) == pytest.approx([1.6, 1.9])


def test_exponent_ladder_guards():
    with pytest.raises(ValueError):
        select_exponents(1, 0.1)
    with pytest.raises(ValueError):
        select_exponents(3, 0.0)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=6),
    delta=st.floats(min_value=1e-3, max_value=0.5, allow_nan=False),
)
def test_exponent_ladder_concave_above_one(n, delta):
    m = select_exponents(n, delta)
    assert m.size == n - 1
    assert np.all(m > 1.0)
    assert np.all(np.diff(m) > 0.0)
    if m.size >= 3:
        concavity = m[1:-1] - 0.5 * (m[:-2] + m[2:])
        assert concavity == pytest.approx(delta)


def test_c_bound_standard():
    assert estimate_c_bound(STANDARD) == 8.0


def test_c_bound_stiff():
    # largest norm is the damping block itself: 8 * 32^2
    assert estimate_c_bound(STIFF) == 8192.0


def test_ck_standard_exact():
    # Gram matrix is the identity, so the flattest direction has N^2 = 1
    assert estimate_ck(STANDARD) == pytest.approx(2.0, rel=1e-9)


def test_ck_requires_full_rank():
    with pytest.raises(SKConditionFails):
        estimate_ck(DECOUPLED)


@pytest.mark.parametrize("spec", [STANDARD, STIFF, TRIDIAG],
                         ids=["standard", "stiff", "tridiag"])
def test_ck_dual_route(spec):
    """2x-padded equivalence constant against the Gram eigenvalue route."""
    ck = estimate_ck(spec)
    lam = min_eig_sym(kalman_gram(spec))
    assert 1.0 <= lam * ck <= 2.0 + 1e-6


def test_experiment_import_skips_scipy_stats():
    """scipy.stats costs more to import than the rest of the package."""
    src = str(Path(hypodecay.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, hypodecay.experiment; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_selected_constants_standard():
    coeffs = select_coefficients(STANDARD, delta=0.1, safety=0.5)
    assert coeffs.eps0 == 0.25
    assert coeffs.C_bound == 8.0
    assert coeffs.C_K == pytest.approx(2.0, rel=1e-9)
    # binding family is the linear one: eps_1 = eps0 / (8 C_bound)
    assert coeffs.eps[0] == pytest.approx(0.00390625, rel=1e-10)
    assert coeffs.eta0 == pytest.approx(2.44140625e-4, rel=1e-9)
    assert coeffs.coercivity_sum == pytest.approx(0.00390625, rel=1e-10)
    assert coeffs.eps_star == pytest.approx(coeffs.eps[0])


def test_selected_constants_stiff():
    coeffs = select_coefficients(STIFF, delta=0.1, safety=0.125)
    assert coeffs.eps0 == 2.0
    assert coeffs.eps[0] == pytest.approx(2.0 / 65536.0, rel=1e-10)
    assert coeffs.eta0 == pytest.approx(0.001953125, rel=1e-9)


def test_binding_families_standard():
    margins = select_coefficients(STANDARD).margins()
    assert margins["e1b"] == pytest.approx(1.0, rel=1e-10)
    assert margins["e2"] == pytest.approx(1.0, rel=1e-10)
    assert margins["e1a"] == pytest.approx(0.015625, rel=1e-9)
    assert margins["e11"] == 0.0
    assert max(margins.values()) <= 1.0 + 1e-12


def test_three_field_ladder():
    coeffs = select_coefficients(TRIDIAG, delta=0.1)
    assert coeffs.m == pytest.approx([1.6, 1.9])
    assert coeffs.eps.size == 2
    assert coeffs.eps[0] > coeffs.eps[1] > 0.0
    assert max(coeffs.margins().values()) <= 1.0 + 1e-12
    assert coeffs.coercivity_sum <= 0.5


def test_time_weight_linear_in_safety():
    """Halving the safety factor halves eta0 exactly."""
    base = select_coefficients(STANDARD, safety=0.5).eta0
    assert select_coefficients(STANDARD, safety=0.25).eta0 == 0.5 * base
    assert select_coefficients(STANDARD, safety=0.125).eta0 == 0.25 * base


def test_time_weight_strict_bound():
    for safety in (0.5, 0.25, 0.125, 0.75):
        c = select_coefficients(STANDARD, safety=safety)
        assert 0.0 < c.eta0 < c.eps_star / (4.0 * c.C_K)


def test_select_rejects_rank_deficiency():
    with pytest.raises(SKConditionFails):
        select_coefficients(DECOUPLED)


def test_select_rejects_bad_safety():
    with pytest.raises(ValueError):
        select_coefficients(STANDARD, safety=0.0)
    with pytest.raises(ValueError):
        select_coefficients(STANDARD, safety=1.0)


def test_infeasible_combination_raises():
    # base_eps far above the linear-family cap
    with pytest.raises(ConstraintSearchFailed):
        CorrectorCoeffs(
            kappa=1.0,
            eps0=0.25,
            delta=0.1,
            base_eps=0.2,
            m=np.array([1.4]),
            eps=np.array([0.2**1.4]),
            eta0=1e-6,
            C_bound=8.0,
            C_K=2.0,
            coercivity_sum=0.2**1.4,
        )


def test_oversized_time_weight_raises():
    good = select_coefficients(STANDARD)
    with pytest.raises(ConstraintSearchFailed):
        CorrectorCoeffs(
            kappa=good.kappa,
            eps0=good.eps0,
            delta=good.delta,
            base_eps=good.base_eps,
            m=good.m,
            eps=good.eps,
            eta0=good.eps_star,  # violates eta0 < eps*/(4 C_K)
            C_bound=good.C_bound,
            C_K=good.C_K,
            coercivity_sum=good.coercivity_sum,
        )


def test_margins_helper_matches_dataclass():
    c = select_coefficients(STANDARD)
    assert c.margins() == constraint_margins(c.C_bound, c.eps0, c.eps)


def test_cross_term_quadrature():
    """For the exchange system the k=1 cross term is eps_1 * int u2 dx(u1)."""
    grid = Grid1D(L=np.pi, N=512, bc="periodic")
    coeffs = select_coefficients(STANDARD)
    U = np.stack([np.sin(grid.x), np.cos(grid.x)], axis=1)
    val = corrector_value(STANDARD, coeffs, grid, U, d_dx(grid, U))
    assert val == pytest.approx(coeffs.eps[0] * np.pi, rel=1e-3)


def _transposed_view_cross_term(spec, coeffs, grid, U, dU):
    """corrector_value written with `@ P.T` and numpy's row sum."""
    P = spec.damped_powers()
    return sum(
        coeffs.eps[k - 1]
        * float(grid.qw @ ((U @ P[k - 1].T) * (dU @ P[k].T)).sum(axis=1))
        for k in range(1, spec.n)
    )


@pytest.mark.parametrize("spec", ["random", "registry"])
def test_cross_term_matches_transposed_views(spec):
    rng = np.random.default_rng(11)
    if spec == "random":
        A = rng.standard_normal((3, 3))
        R = rng.standard_normal((2, 2))
        spec = SystemSpec(A=A + A.T, D=R @ R.T + np.eye(2), n1=1)
    else:
        spec = STANDARD
    grid = Grid1D(L=10.0, N=128, bc="periodic")
    coeffs = select_coefficients(spec)
    U = rng.standard_normal((grid.N, spec.n))
    dU = d_dx(grid, U)
    got = corrector_value(spec, coeffs, grid, U, dU)
    want = _transposed_view_cross_term(spec, coeffs, grid, U, dU)
    if spec is STANDARD:
        assert got == want
    else:
        np.testing.assert_allclose(got, want, rtol=1e-14)
    assert all(P.flags.c_contiguous for P in spec.damped_powers_t)
    assert all(np.array_equal(Pt, P.T)
               for Pt, P in zip(spec.damped_powers_t, spec.damped_powers()))


def test_lyapunov_zero_field():
    grid = Grid1D(L=10.0, N=64, bc="periodic")
    coeffs = select_coefficients(STANDARD)
    assert lyapunov_value(STANDARD, coeffs, grid, np.zeros((64, 2)), 3.0) == 0.0


def test_lyapunov_no_cross_component():
    # only the undamped component set: cross term vanishes identically
    grid = Grid1D(L=20.0, N=512, bc="periodic")
    coeffs = select_coefficients(STANDARD)
    u1 = np.exp(-grid.x**2)
    U = np.stack([u1, np.zeros_like(u1)], axis=1)
    l2 = l2_norm(grid, U)
    dl2 = l2_norm(grid, d_dx(grid, U))
    t = 7.0
    expected = l2 * l2 + (1.0 + coeffs.eta0 * t) * dl2 * dl2
    assert lyapunov_value(STANDARD, coeffs, grid, U, t) == pytest.approx(expected)


@settings(max_examples=25, deadline=None)
@given(
    amp1=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    amp2=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    width=st.floats(min_value=0.5, max_value=4.0, allow_nan=False),
)
def test_lyapunov_coercive_bracket(amp1, amp2, width):
    """The cross term never moves the functional out of [1/2, 3/2] x energy."""
    grid = Grid1D(L=30.0, N=256, bc="periodic")
    coeffs = select_coefficients(STANDARD)
    g = np.exp(-((grid.x / width) ** 2))
    U = np.stack([amp1 * g, amp2 * np.roll(g, 11)], axis=1)
    l2 = l2_norm(grid, U)
    dl2 = l2_norm(grid, d_dx(grid, U))
    energy = l2 * l2 + dl2 * dl2
    val = lyapunov_value(STANDARD, coeffs, grid, U, 0.0)
    assert 0.5 * energy - 1e-12 <= val <= 1.5 * energy + 1e-12


def test_weighted_constants_mu_one():
    w = select_weighted_coefficients(STANDARD, mu=1.0)
    assert w.C_tilde == 24.0
    assert w.eps_tilde == pytest.approx([0.125])
    assert w.kappa0 == pytest.approx(np.sqrt(768.0))


def test_weighted_constants_scale_free():
    """Rescaling the damping block must not move the weighted constants."""
    a = select_weighted_coefficients(STANDARD, mu=1.0)
    b = select_weighted_coefficients(STIFF, mu=1.0)
    assert b.C_tilde == a.C_tilde
    assert b.kappa0 == a.kappa0


def test_weighted_needs_no_self_transport():
    spec = SystemSpec(A=np.array([[1.0, 1.0], [1.0, 0.0]]),
                      D=np.array([[1.0]]), n1=1)
    with pytest.raises(HypothesisViolated):
        select_weighted_coefficients(spec, mu=1.0)


def test_weighted_needs_full_rank():
    # zero coupling block: A11 = 0 holds but the stacked matrix loses rank
    spec = SystemSpec(A=np.array([[0.0, 0.0], [0.0, 1.0]]),
                      D=np.array([[1.0]]), n1=1)
    with pytest.raises(SKConditionFails):
        select_weighted_coefficients(spec, mu=1.0)


def test_weighted_three_field_families():
    w = select_weighted_coefficients(TRIDIAG, mu=1.0)
    e = w.eps_tilde
    assert e.size == 2
    assert e[0] == pytest.approx(0.125)
    assert all(8.0 * w.C_tilde * e[-1] ** 2 <= ej * e[-2] * (1 + 1e-9) for ej in e)


def test_weighted_data_size_linear():
    grid = Grid1D(L=40.0, N=1024, bc="compact_support")
    u = np.exp(-(grid.x**2) / 16.0)
    U = np.stack([u, 0.3 * u], axis=1)
    x1 = weighted_data_size(grid, U, 1.0)
    assert weighted_data_size(grid, 2.0 * U, 1.0) == pytest.approx(2.0 * x1)
    assert x1 >= h1_norm(grid, U)
