"""Structural linear algebra for partially damped hyperbolic systems.

The objects here describe the constant-coefficient system

    d_t U + A d_x U = -B U,    B = [[0, 0], [0, D]],

with A symmetric (n x n) and D symmetric positive definite acting on the
last n2 components.  Everything downstream (corrector construction,
solvers, certificates) consumes a validated :class:`SystemSpec`.

The small symmetric eigenproblems (n <= 8) go to LAPACK, as the rank
tests already do, after an exact division by the power of two of the
largest entry: results then scale with the matrix bit for bit, and a
matrix of 1e300 gets its true spectrum without overflow.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import AsymmetricMatrix, DimensionMismatch, DNotPositiveDefinite

SYM_TOL = 1e-12
RANK_TOL = 1e-10


def check_symmetric(M, name="matrix"):
    """Validate (not repair) symmetry of M relative to its largest entry."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {M.shape}")
    scale = np.abs(M).max()
    if scale > 0 and np.abs(M - M.T).max() > SYM_TOL * scale:
        raise AsymmetricMatrix(
            f"{name} asymmetric: max |M - M^T| = {np.abs(M - M.T).max():.3e} "
            f"exceeds {SYM_TOL:.1e} * max|entry|"
        )
    return M


def jacobi_eigensystem(M):
    """(w, V) of a small symmetric matrix, w ascending and V[:, i] the
    eigenvector for w[i], from LAPACK's ``eigh`` on the exact M / 2^e,
    2^e the binade of max|M|, so huge entries cannot overflow.

    perfbench's tracer wraps this function by its old name, which the
    benchmark change that re-points the tracer renames.
    """
    M = np.asarray(M, dtype=float)
    e = np.frexp(np.abs(M).max())[1]
    w, V = np.linalg.eigh(np.ldexp(M, -e))
    return np.ldexp(w, e), V


def min_eig_sym(M):
    """Smallest eigenvalue of a symmetric matrix."""
    w, _ = jacobi_eigensystem(check_symmetric(M))
    return float(w[0])


def spectral_norm(M):
    """2-norm of a (possibly rectangular) matrix, taken on M / 2^e with
    2^e the binade of max|M| (exact, and no overflow)."""
    M = np.asarray(M, dtype=float)
    e = np.frexp(np.abs(M).max())[1]
    return float(np.ldexp(np.linalg.norm(np.ldexp(M, -e), 2), e))


def expm_sym(M):
    """Matrix exponential of a symmetric matrix via its eigensystem."""
    w, V = jacobi_eigensystem(check_symmetric(M))
    return (V * np.exp(w)) @ V.T


@dataclass(frozen=True)
class SystemSpec:
    """Validated description of the damped system matrices.

    A is the full symmetric transport matrix, D the symmetric positive
    definite damping block acting on the last ``n - n1`` components.
    Everything derived from them is built once here: the stacked matrix
    K = (B; BA; ...; BA^{n-1}) as ``kalman``, its n row blocks BA^k as
    ``damped_powers`` with their spectral norms ``damped_power_norms``,
    and the structural flags used by downstream estimates.
    """

    A: np.ndarray
    D: np.ndarray
    n1: int
    n: int = field(init=False)
    B: np.ndarray = field(init=False)
    kappa: float = field(init=False)
    kalman: np.ndarray = field(init=False, repr=False)
    damped_powers: tuple = field(init=False, repr=False)
    damped_power_norms: tuple = field(init=False, repr=False)
    kalman_rank: int = field(init=False)
    a11_zero: bool = field(init=False)
    a12_invertible: bool = field(init=False)
    sk_holds: bool = field(init=False)

    def __post_init__(self):
        A = check_symmetric(self.A, "A")
        D = check_symmetric(self.D, "D")
        n = A.shape[0]
        n2 = D.shape[0]
        n1 = self.n1
        if not (1 <= n1 <= n - 1) or n1 + n2 != n:
            raise DimensionMismatch(
                f"need 1 <= n1 <= n-1 and n1 + n2 = n; got n={n}, n1={n1}, n2={n2}"
            )
        kappa = min_eig_sym(D)
        if kappa <= 1e-12 * max(1.0, np.abs(D).max()):
            raise DNotPositiveDefinite(f"min eig of D is {kappa:.3e}")
        B = np.zeros((n, n))
        B[n1:, n1:] = D
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "kappa", float(kappa))

        K = kalman_matrix(A, B)
        powers = tuple(np.split(K, n))
        object.__setattr__(self, "kalman", K)
        object.__setattr__(self, "damped_powers", powers)
        object.__setattr__(self, "damped_power_norms",
                           tuple(spectral_norm(P) for P in powers))

        rank = numerical_rank(K)
        a12_invertible = False
        if n1 == n2:
            s = np.linalg.svd(self.A12, compute_uv=False)
            a12_invertible = bool(s[-1] > RANK_TOL * max(1.0, s[0]))
        object.__setattr__(self, "kalman_rank", rank)
        object.__setattr__(self, "a11_zero", bool(np.abs(A[:n1, :n1]).max() == 0.0))
        object.__setattr__(self, "a12_invertible", a12_invertible)
        object.__setattr__(self, "sk_holds", rank == n)

    @property
    def A12(self):
        return self.A[: self.n1, self.n1:]

    @property
    def A21(self):
        return self.A[self.n1:, : self.n1]


def kalman_matrix(A, B):
    """Stacked observability-style matrix (B; BA; ...; BA^{n-1})."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    powers = [np.eye(A.shape[0])]
    for _ in range(A.shape[0] - 1):
        powers.append(powers[-1] @ A)
    return np.vstack([B @ P for P in powers])


def numerical_rank(M):
    """Rank by singular-value thresholding at RANK_TOL * sigma_max."""
    s = np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int((s > RANK_TOL * s[0]).sum())


def kalman_gram(spec):
    """K^T K for the stacked matrix K, so that the Kalman seminorm
    N(y) = |K y| = sqrt(sum_k |B A^k y|^2) has N(y)^2 = y^T (K^T K) y.

    N vanishes exactly on the unobservable subspace, and it is a norm
    iff K has full rank.
    """
    G = spec.kalman.T @ spec.kalman
    return 0.5 * (G + G.T)
