import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hypodecay
from hypodecay.corrector import (
    CONSTRAINT_TOL,
    CorrectorCoeffs,
    constraint_margins,
    cross_matrix,
    estimate_c_bound,
    estimate_c_tilde,
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
from hypodecay.grids import Grid1D, d_dx, gram, h1_norm, inner, l2_norm
from hypodecay.linalg import SystemSpec, kalman_gram, min_eig_sym, spectral_norm

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
    """The run path, heat oracle included, loads no scipy module.

    scipy.stats alone costs more to import than the rest of the package.
    """
    src = str(Path(hypodecay.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import hypodecay.experiment\n"
        "from hypodecay.grids import Grid1D\n"
        "from hypodecay.solvers.heat import heat_solve\n"
        "for bc in ('periodic', 'compact_support'):\n"
        "    heat_solve(Grid1D(L=4.0, N=16, bc=bc), np.ones(16), T=0.5)\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_selected_constants_standard():
    coeffs = select_coefficients(STANDARD, safety=0.5)
    assert coeffs.eps0 == 0.25
    assert coeffs.C_bound == 8.0
    assert coeffs.C_K == pytest.approx(2.0, rel=1e-9)
    # binding family is the linear one: eps_1 = eps0 / (8 C_bound)
    assert coeffs.eps[0] == pytest.approx(0.00390625, rel=1e-10)
    assert coeffs.eta0 == pytest.approx(2.44140625e-4, rel=1e-9)
    assert coeffs.coercivity_sum == pytest.approx(0.00390625, rel=1e-10)
    assert coeffs.eps_star == pytest.approx(coeffs.eps[0])


def test_selected_constants_stiff():
    coeffs = select_coefficients(STIFF, safety=0.125)
    assert coeffs.eps0 == 2.0
    assert coeffs.eps[0] == pytest.approx(2.0 / 65536.0, rel=1e-10)
    assert coeffs.eta0 == pytest.approx(0.001953125, rel=1e-9)


def test_registry_coefficients_are_pinned_bit_for_bit():
    """Values of the registry systems' coefficients, to the last bit."""
    std = select_coefficients(STANDARD, safety=0.5)
    assert std.eta0 == 0.0002441406250000001
    assert std.eps.tolist() == [0.003906250000000002]
    stiff = select_coefficients(STIFF, safety=0.125)
    assert stiff.eta0 == 0.0019531250000000013
    assert stiff.eps.tolist() == [3.0517578125e-05]
    assert select_weighted_coefficients(STIFF, 1.0).C_tilde == 24.0


def test_binding_families_standard():
    margins = select_coefficients(STANDARD).margins()
    assert margins["e1b"] == pytest.approx(1.0, rel=1e-10)
    assert margins["e2"] == pytest.approx(1.0, rel=1e-10)
    assert margins["e1a"] == pytest.approx(0.015625, rel=1e-9)
    assert margins["e11"] == 0.0
    assert max(margins.values()) <= 1.0 + 1e-12


def test_three_field_ladder():
    coeffs = select_coefficients(TRIDIAG)
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


TINY = np.finfo(float).tiny


@st.composite
def sk_specs(draw, orders, a11_zero=False):
    """A SystemSpec with random symmetric A (entries in [-4, 4], the
    undamped block zeroed if asked) and D = R R^T + c I, full Kalman rank."""
    n = draw(st.integers(*orders))
    n1 = draw(st.integers(1, n - 1))
    entry = st.floats(-4.0, 4.0, allow_subnormal=False)
    A = np.array([[draw(entry) for _ in range(n)] for _ in range(n)])
    A = A + A.T
    if a11_zero:
        A[:n1, :n1] = 0.0
    R = np.array([[draw(entry) for _ in range(n - n1)] for _ in range(n - n1)])
    spec = SystemSpec(A=A, D=R @ R.T + draw(st.floats(0.05, 40.0)) * np.eye(n - n1), n1=n1)
    assume(spec.sk_holds)
    return spec


def _excess(C, l, with_budget=True):
    """Largest log(LHS / RHS) over the families, each member
    C eps_a eps_b <= eps_c eps_d / 8 as `constraint_margins` states it,
    summed exactly from the logs l = (log eps_0, ..., log eps_{n-1}).

    Without the budget, only the members that do not read eps_0 count
    (e11, and e2 with j >= 1 for n >= 3): the weighted families.
    """
    n = len(l)
    members = ([(1, 1, 0, 0)]                                     # e1a
               + [(k, k, k, 0) for k in range(1, n)]              # e1b
               + [(k, k, k - 1, k + 1) for k in range(2, n - 1)]  # e11
               + [(n - 1, n - 1, j, n - 2) for j in range(n)])    # e2
    if not with_budget:
        members = [q for q in members if 0 not in q]
    l = [Fraction(v) for v in l]
    return max(Fraction(math.log(8.0 * C)) + l[a] + l[b] - l[c] - l[d]
               for a, b, c, d in members)


def _coercivity(spec, eps):
    norms = spec.damped_power_norms
    return math.fsum(norms[k] * norms[k + 1] * e for k, e in enumerate(eps))


@settings(max_examples=200, deadline=None)
@given(spec=sk_specs((2, 8)), safety=st.floats(0.05, 0.5))
def test_selected_base_is_the_largest_the_families_allow(spec, safety):
    """An accepted spec meets every family and the coercivity cap, and
    b (1 + 1e-12) breaks one of them; a refused one breaks a family or the
    cap already at the base where eps_{n-1} is the smallest normal double."""
    C = estimate_c_bound(spec)
    eps0 = 0.5 * spec.kappa * safety
    m = select_exponents(spec.n, 0.1)

    def broken(log_base):
        l = [math.log(eps0)] + [Fraction(mk) * Fraction(log_base) for mk in m]
        eps = [math.exp(mk * log_base) for mk in m]
        return _excess(C, l) > 0 or _coercivity(spec, eps) > 0.5

    try:
        c = select_coefficients(spec, safety=safety)
    except ConstraintSearchFailed as exc:
        assert "underflows" in str(exc)
        assert broken(math.log(TINY) / m[-1])
        return
    assert c.eps.min() >= TINY
    assert _excess(C, [math.log(v) for v in [eps0, *c.eps]]) <= math.log1p(CONSTRAINT_TOL)
    assert _coercivity(spec, c.eps) <= 0.5
    b = c.base_eps * (1.0 + 1e-12)
    assert b > eps0 or broken(math.log(b))


@settings(max_examples=100, deadline=None)
@given(spec=sk_specs((3, 8), a11_zero=True))
def test_weighted_ladder_is_the_largest_the_families_allow(spec):
    """The weighted ladder 0.125 t^(m - m_1) meets the families that do not
    read the budget, with C~ for C; t (1 + 1e-12) breaks one unless t = 1;
    a refused spec breaks one already where eps~_{n-1} is the smallest
    normal double."""
    C = estimate_c_tilde(spec, 1.0)
    m = select_exponents(spec.n, 0.1)
    dm = m - m[0]

    def broken(log_t):
        return _excess(C, [0.0] + [math.log(0.125) + Fraction(d) * Fraction(log_t)
                                   for d in dm], with_budget=False) > 0

    try:
        w = select_weighted_coefficients(spec, 1.0)
    except ConstraintSearchFailed as exc:
        assert "underflows" in str(exc)
        assert broken((math.log(TINY) - math.log(0.125)) / dm[-1])
        return
    e = w.eps_tilde
    assert e[0] == 0.125 and e.min() >= TINY
    l = [0.0] + [math.log(v) for v in e]
    assert _excess(C, l, with_budget=False) <= math.log1p(CONSTRAINT_TOL)
    log_t = (math.log(e[-1]) - math.log(0.125)) / dm[-1]
    assert log_t > -1e-12 or broken(log_t + 1e-12)


def test_families_are_read_past_the_underflow_of_their_terms():
    """At n = 8 the e2 ratio's terms underflow as doubles; in log space
    it reads 1.5e-3 with no warning, and e11 binds."""
    A = np.diag(np.ones(7), 1)
    c = select_coefficients(SystemSpec(A=A + A.T, D=np.eye(7), n1=1))
    margins = c.margins()
    assert margins["e2"] == pytest.approx(1.509e-3, rel=1e-3)
    assert margins["e11"] == pytest.approx(1.0, rel=1e-12)


def _gram(grid, U):
    """Quadrature Gram of the rows [U^T; (d_x U)^T], as the linear record builds it."""
    return gram(grid, np.vstack([U.T, d_dx(grid, U).T]))


def _lyapunov(spec, coeffs, G, t):
    """lyapunov_value with the run's cross matrix, as `simulate_linear` calls it."""
    return lyapunov_value(cross_matrix(spec, coeffs.eps), coeffs.eta0, G, t)


def _cross_term(spec, coeffs, grid, U):
    """The cross term I alone: lyapunov_value with the Gram's diagonal zeroed.

    The norms are read from the diagonal; the cross block G[:n, n:] lies off it.
    """
    G = _gram(grid, U)
    return _lyapunov(spec, coeffs, G - np.diag(np.diag(G)), 0.0)


def test_cross_term_quadrature():
    """For the exchange system the k=1 cross term is eps_1 * int u2 dx(u1)."""
    grid = Grid1D(L=np.pi, N=512, bc="periodic")
    coeffs = select_coefficients(STANDARD)
    U = np.stack([np.sin(grid.x), np.cos(grid.x)], axis=1)
    val = _cross_term(STANDARD, coeffs, grid, U)
    assert val == pytest.approx(coeffs.eps[0] * np.pi, rel=1e-3)


def _transposed_view_cross_term(spec, coeffs, grid, U, dU):
    """The cross term on the fields, with `@ P.T` and numpy's row sum."""
    P = spec.damped_powers
    return sum(
        coeffs.eps[k - 1]
        * float(grid.qw @ ((U @ P[k - 1].T) * (dU @ P[k].T)).sum(axis=1))
        for k in range(1, spec.n)
    )


def _field_lyapunov(spec, coeffs, grid, U, t):
    """The functional on the fields: norms by `inner`, the cross term as above."""
    dU = d_dx(grid, U)
    return (inner(grid, U, U) + (1.0 + coeffs.eta0 * t) * inner(grid, dU, dU)
            + _transposed_view_cross_term(spec, coeffs, grid, U, dU))


def _random_spec(rng, n, n1):
    A = rng.standard_normal((n, n))
    R = rng.standard_normal((n - n1, n - n1))
    return SystemSpec(A=A + A.T, D=R @ R.T + np.eye(n - n1), n1=n1)


@pytest.mark.parametrize("spec", ["random", "registry"])
def test_cross_term_matches_transposed_views(spec):
    rng = np.random.default_rng(11)
    spec = _random_spec(rng, 3, 1) if spec == "random" else STANDARD
    grid = Grid1D(L=10.0, N=128, bc="periodic")
    coeffs = select_coefficients(spec)
    U = rng.standard_normal((grid.N, spec.n))
    dU = d_dx(grid, U)
    got = _cross_term(spec, coeffs, grid, U)
    want = _transposed_view_cross_term(spec, coeffs, grid, U, dU)
    # the cross term cancels over x: measure roundoff against its
    # Cauchy-Schwarz bound sum_k eps_k |B A^{k-1} U| |B A^k d_x U|
    P = spec.damped_powers
    scale = sum(e * l2_norm(grid, U @ P[k].T) * l2_norm(grid, dU @ P[k + 1].T)
                for k, e in enumerate(coeffs.eps))
    assert abs(got - want) <= 1e-15 * scale


@pytest.mark.parametrize("n, n1", [(2, 1), (3, 1), (3, 2)])
@pytest.mark.parametrize("bc", ["periodic", "compact_support"])
def test_lyapunov_matches_field_formula(n, n1, bc):
    rng = np.random.default_rng(10 * n + n1)
    spec = _random_spec(rng, n, n1)
    grid = Grid1D(L=10.0, N=128, bc=bc)
    coeffs = select_coefficients(spec)
    U = rng.standard_normal((grid.N, n))
    for t in (0.0, 7.5):
        want = _field_lyapunov(spec, coeffs, grid, U, t)
        assert abs(_lyapunov(spec, coeffs, _gram(grid, U), t) - want) <= 1e-15 * want


def test_lyapunov_zero_field():
    grid = Grid1D(L=10.0, N=64, bc="periodic")
    coeffs = select_coefficients(STANDARD)
    assert _lyapunov(STANDARD, coeffs, _gram(grid, np.zeros((64, 2))), 3.0) == 0.0


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
    assert _lyapunov(STANDARD, coeffs, _gram(grid, U), t) == pytest.approx(expected)


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
    val = _lyapunov(STANDARD, coeffs, _gram(grid, U), 0.0)
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


def test_c_tilde_matches_the_normalized_ladder():
    """C~ from the stored ladder norms equals the ladder of B/||B||."""
    rng = np.random.default_rng(17)
    A = rng.standard_normal((3, 3))
    R = rng.standard_normal((2, 2))
    spec = SystemSpec(A=A + A.T, D=R @ R.T + np.eye(2), n1=1)
    Bn = spec.B / spectral_norm(spec.B)
    norms = []
    P = np.eye(spec.n)
    for _ in range(spec.n):
        norms.append(spectral_norm(Bn @ P))
        P = P @ spec.A
    for mu in (0.5, 1.0):
        want = 8.0 * (1.0 + 2.0 * mu) * max(1.0, max(norms)) ** 2
        np.testing.assert_allclose(estimate_c_tilde(spec, mu), want, rtol=1e-14)


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
