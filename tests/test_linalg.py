"""Structure layer: symmetric eigensolves, stacked-matrix rank, seminorm."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypodecay.errors import (
    AsymmetricMatrix,
    DimensionMismatch,
    DNotPositiveDefinite,
)
from hypodecay.linalg import (
    SystemSpec,
    expm_sym,
    jacobi_eigensystem,
    kalman_gram,
    kalman_matrix,
    kalman_seminorm,
    min_eig_sym,
    numerical_rank,
    spectral_norm,
)

STANDARD = SystemSpec(A=np.array([[0.0, 1.0], [1.0, 0.0]]),
                      D=np.array([[1.0]]), n1=1)
STIFF = SystemSpec(A=np.array([[0.0, 1.0], [1.0, 0.0]]),
                   D=np.array([[32.0]]), n1=1)
DECOUPLED = SystemSpec(A=np.diag([1.0, -1.0]), D=np.array([[1.0]]), n1=1)


def _random_4x4_spec():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 4))
    R = rng.standard_normal((2, 2))
    return SystemSpec(A=A + A.T, D=R @ R.T + np.eye(2), n1=2)


RANDOM_4X4 = _random_4x4_spec()


def test_min_eig_closed_form():
    # eigenvalues of [[2,1],[1,2]] are 1 and 3
    assert min_eig_sym(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(1.0, abs=1e-13)


def test_eigensystem_of_a_diagonal_matrix_is_its_sorted_diagonal():
    w, V = jacobi_eigensystem(np.diag([3.0, -1.0, 2.0]))
    assert np.array_equal(w, [-1.0, 2.0, 3.0])
    assert np.array_equal(np.abs(V), np.eye(3)[:, [1, 2, 0]])


def test_eigensystem_reconstructs():
    M = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, -1.0], [0.5, -1.0, 2.0]])
    w, V = jacobi_eigensystem(M)
    assert np.abs((V * w) @ V.T - M).max() < 1e-12


def test_spectral_norm_oracles():
    assert spectral_norm(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0)
    assert spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)
    assert spectral_norm(np.zeros((2, 2))) == 0.0


@pytest.mark.parametrize("k", [-530, 500, 1000])
def test_eigen_and_norm_routines_scale_by_powers_of_two_exactly(k):
    """A matrix times 2^k has eigenvalues and 2-norm times 2^k, bit for bit,
    and the same eigenvectors, even where its squared entries leave the
    double range; nothing warns."""
    M = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, -1.0], [0.5, -1.0, 2.0]])
    R = np.array([[1.0, -2.0, 0.25], [3.0, 0.5, -1.5]])
    w, V = jacobi_eigensystem(M)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w_k, V_k = jacobi_eigensystem(np.ldexp(M, k))
        norm_k = spectral_norm(np.ldexp(R, k))
    assert np.array_equal(w_k, np.ldexp(w, k))
    assert np.array_equal(V_k, V)
    assert norm_k == np.ldexp(spectral_norm(R), k)


def test_eigensystem_finds_the_speeds_of_a_huge_transport_matrix():
    w, _ = jacobi_eigensystem(np.array([[0.0, 1e155], [1e155, 0.0]]))
    assert w == pytest.approx([-1e155, 1e155], rel=1e-15)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=8),
       k=st.integers(min_value=-500, max_value=500),
       data=st.data())
def test_eigensystem_and_norm_hold_over_the_double_range(n, k, data):
    """For a random symmetric M of order n <= 8 scaled by 2^k: w ascends, V
    is orthonormal, V diag(w) V^T is M, the 2-norm is max|w|, and nothing
    warns."""
    entries = data.draw(st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    M = np.zeros((n, n))
    M[np.triu_indices(n)] = entries
    M = np.ldexp(M + np.triu(M, 1).T, k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, V = jacobi_eigensystem(M)
        norm = spectral_norm(M)
    assert np.all(np.diff(w) >= 0.0)
    assert np.abs(V.T @ V - np.eye(n)).max() <= 1e-13
    assert np.abs((V * w) @ V.T - M).max() <= 1e-13 * np.abs(M).max()
    assert abs(norm - np.abs(w).max()) <= 1e-14 * norm


def test_expm_sym_diagonal():
    E = expm_sym(np.diag([0.0, np.log(2.0)]))
    assert np.abs(E - np.diag([1.0, 2.0])).max() < 1e-13


def test_check_symmetric_rejects():
    with pytest.raises(AsymmetricMatrix):
        min_eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_kalman_matrix_standard():
    K = kalman_matrix(STANDARD.A, STANDARD.B)
    expected = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
    assert np.abs(K - expected).max() == 0.0
    assert numerical_rank(K) == 2
    assert STANDARD.sk_holds


def test_kalman_rank_decoupled():
    K = kalman_matrix(DECOUPLED.A, DECOUPLED.B)
    assert numerical_rank(K) == 1
    assert not DECOUPLED.sk_holds
    assert DECOUPLED.kalman_rank == 1


def test_rank_threshold_band():
    """Rank of the integer acceptance matrices is flat across rank_tol."""
    for spec in (STANDARD, DECOUPLED):
        K = kalman_matrix(spec.A, spec.B)
        ranks = {numerical_rank(K, tol) for tol in (1e-12, 1e-10, 1e-8)}
        assert len(ranks) == 1


def test_seminorm_unit_vector():
    # undamped direction (1,0): only B A (1,0) = (0,1) contributes
    assert kalman_seminorm(STANDARD, np.array([1.0, 0.0])) == pytest.approx(1.0)
    assert kalman_seminorm(STANDARD, np.array([0.0, 1.0])) == pytest.approx(1.0)


def test_seminorm_null_direction():
    # decoupled system never observes the undamped component
    assert kalman_seminorm(DECOUPLED, np.array([1.0, 0.0])) == 0.0


def test_seminorm_shape_guard():
    with pytest.raises(DimensionMismatch):
        kalman_seminorm(STANDARD, np.array([1.0, 0.0, 0.0]))


def test_gram_route_agrees():
    """N(y)^2 = y^T (K^T K) y — dual route for a generic vector."""
    y = np.array([0.3, -1.7])
    G = kalman_gram(STANDARD)
    assert kalman_seminorm(STANDARD, y) ** 2 == pytest.approx(y @ G @ y)


def test_spec_validation_errors():
    with pytest.raises(DNotPositiveDefinite):
        SystemSpec(A=np.eye(2), D=np.array([[0.0]]), n1=1)
    with pytest.raises(DimensionMismatch):
        SystemSpec(A=np.eye(3), D=np.array([[1.0]]), n1=1)


def test_structural_flags_standard():
    assert STANDARD.a11_zero
    assert STANDARD.a12_invertible
    assert STANDARD.kappa == 1.0


def test_damped_powers_chain():
    powers = STANDARD.damped_powers
    assert len(powers) == 2
    assert np.array_equal(powers[0], STANDARD.B)
    assert np.array_equal(powers[1], STANDARD.B @ STANDARD.A)


@pytest.mark.parametrize("spec", [STANDARD, STIFF, DECOUPLED, RANDOM_4X4],
                         ids=["standard", "stiff", "decoupled", "random"])
def test_spec_ladder_fields(spec):
    assert len(spec.damped_powers) == spec.n
    assert np.array_equal(np.vstack(spec.damped_powers), spec.kalman)
    assert np.array_equal(spec.kalman, kalman_matrix(spec.A, spec.B))
    assert np.array_equal(spec.damped_powers[0], spec.B)
    for P, norm in zip(spec.damped_powers, spec.damped_power_norms):
        assert norm == spectral_norm(P)


def test_a12_invertible_needs_square_nonsingular_coupling():
    assert RANDOM_4X4.a12_invertible
    assert not DECOUPLED.a12_invertible
    tridiag = SystemSpec(
        A=np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
        D=np.eye(2), n1=1)
    assert tridiag.sk_holds
    assert not tridiag.a12_invertible


def _random_spec(draw_entries, n, n1):
    A = np.zeros((n, n))
    iu = np.triu_indices(n)
    A[iu] = draw_entries
    A = A + np.triu(A, 1).T
    D = np.eye(n - n1)
    return A, D


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([2, 3, 4]),
    data=st.data(),
)
def test_rank_iff_seminorm_positive(n, data):
    """Full stacked rank is equivalent to a positive-definite seminorm."""
    n1 = data.draw(st.integers(min_value=1, max_value=n - 1))
    entries = data.draw(
        st.lists(
            st.floats(min_value=-2.0, max_value=2.0,
                      allow_nan=False, allow_infinity=False),
            min_size=n * (n + 1) // 2,
            max_size=n * (n + 1) // 2,
        )
    )
    A, D = _random_spec(np.array(entries), n, n1)
    spec = SystemSpec(A=A, D=D, n1=n1)
    G = kalman_gram(spec)
    lam = min_eig_sym(G)
    scale = max(spectral_norm(G), 1e-300)
    # The Gram route squares singular-value ratios, so the two routes can
    # only be compared away from the rank threshold: a clearly positive
    # minimum eigenvalue forces full rank, and a rank drop forces the
    # eigenvalue down to roundoff.
    if lam > 1e-8 * scale:
        assert spec.sk_holds
    if not spec.sk_holds:
        assert lam <= 1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(
    c=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    y0=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    y1=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    z0=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    z1=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
def test_seminorm_homogeneity_and_triangle(c, y0, y1, z0, z1):
    y = np.array([y0, y1])
    z = np.array([z0, z1])
    Ny = kalman_seminorm(STANDARD, y)
    assert kalman_seminorm(STANDARD, c * y) == pytest.approx(abs(c) * Ny, abs=1e-9)
    lhs = kalman_seminorm(STANDARD, y + z)
    assert lhs <= Ny + kalman_seminorm(STANDARD, z) + 1e-9
