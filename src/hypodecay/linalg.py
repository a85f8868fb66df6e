"""Structural linear algebra for partially damped hyperbolic systems.

The objects here describe the constant-coefficient system

    d_t U + A d_x U = -B U,    B = [[0, 0], [0, D]],

with A symmetric (n x n) and D symmetric positive definite acting on the
last n2 components.  Everything downstream (corrector construction,
solvers, certificates) consumes a validated :class:`SystemSpec`.

Eigenvalues of the small symmetric matrices are computed by a hand-rolled
cyclic Jacobi iteration: the matrices never exceed n = 8, the rotations
are unconditionally stable, and keeping the routine local makes the
minimum-eigenvalue path independent of any LAPACK build details.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import AsymmetricMatrix, DimensionMismatch, DNotPositiveDefinite

SYM_TOL = 1e-12
RANK_TOL = 1e-10


def check_symmetric(M, name="matrix", sym_tol=SYM_TOL):
    """Validate (not repair) symmetry of M relative to its largest entry."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {M.shape}")
    scale = np.abs(M).max()
    if scale > 0 and np.abs(M - M.T).max() > sym_tol * scale:
        raise AsymmetricMatrix(
            f"{name} asymmetric: max |M - M^T| = {np.abs(M - M.T).max():.3e} "
            f"exceeds {sym_tol:.1e} * max|entry|"
        )
    return M


def jacobi_eigensystem(M, tol=1e-14, max_sweeps=60):
    """All eigenvalues/eigenvectors of a small symmetric matrix.

    Cyclic Jacobi rotations; returns (w, V) with w ascending and
    V[:, i] the eigenvector for w[i].  Intended for n <= 8.
    """
    A = np.array(M, dtype=float, copy=True)
    n = A.shape[0]
    V = np.eye(n)
    if n == 1:
        return A[0, :1].copy(), V
    fro = np.sqrt((A * A).sum())
    if fro == 0.0:
        return np.zeros(n), V
    for _ in range(max_sweeps):
        off = np.sqrt(max((A * A).sum() - (np.diag(A) ** 2).sum(), 0.0))
        if off <= tol * fro:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= tol * fro / (n * n):
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(1.0 + theta * theta))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                J = np.eye(n)
                J[p, p] = J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
                V = V @ J
    w = np.diag(A).copy()
    order = np.argsort(w)
    return w[order], V[:, order]


def min_eig_sym(M):
    """Smallest eigenvalue of a symmetric matrix (Jacobi route)."""
    w, _ = jacobi_eigensystem(check_symmetric(M))
    return float(w[0])


def spectral_norm(M):
    """2-norm of a (possibly rectangular) matrix via the Gram matrix."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    G = M.T @ M if M.shape[0] >= M.shape[1] else M @ M.T
    G = 0.5 * (G + G.T)
    w, _ = jacobi_eigensystem(G)
    return float(np.sqrt(max(w[-1], 0.0)))


def expm_sym(M):
    """Matrix exponential of a symmetric matrix via its eigensystem."""
    w, V = jacobi_eigensystem(check_symmetric(M))
    return (V * np.exp(w)) @ V.T


@dataclass(frozen=True)
class SystemSpec:
    """Validated description of the damped system matrices.

    A is the full symmetric transport matrix, D the symmetric positive
    definite damping block acting on the last ``n - n1`` components.
    Structural flags used by downstream estimates are computed once here.
    """

    A: np.ndarray
    D: np.ndarray
    n1: int
    sym_tol: float = SYM_TOL
    rank_tol: float = RANK_TOL
    n: int = field(init=False)
    n2: int = field(init=False)
    B: np.ndarray = field(init=False)
    kappa: float = field(init=False)
    kalman_rank: int = field(init=False)
    a11_zero: bool = field(init=False)
    a12_invertible: bool = field(init=False)
    sk_holds: bool = field(init=False)
    damped_powers_t: tuple = field(init=False, repr=False)

    def __post_init__(self):
        A = check_symmetric(self.A, "A", self.sym_tol)
        D = check_symmetric(self.D, "D", self.sym_tol)
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
        object.__setattr__(self, "n2", n2)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "kappa", float(kappa))

        K = kalman_matrix(A, B)
        rank = numerical_rank(K, self.rank_tol)
        A11 = A[:n1, :n1]
        A12 = A[:n1, n1:]
        a11_zero = bool(np.abs(A11).max() == 0.0) if A11.size else True
        a12_invertible = False
        if n1 == n2 and A12.size:
            s_min = smallest_singular_value(A12)
            a12_invertible = s_min > self.rank_tol * max(1.0, spectral_norm(A12))
        object.__setattr__(self, "kalman_rank", rank)
        object.__setattr__(self, "a11_zero", a11_zero)
        object.__setattr__(self, "a12_invertible", a12_invertible)
        object.__setattr__(self, "sk_holds", rank == n)
        object.__setattr__(self, "damped_powers_t", tuple(
            np.ascontiguousarray(P.T) for P in self.damped_powers()))

    @property
    def A11(self):
        return self.A[: self.n1, : self.n1]

    @property
    def A12(self):
        return self.A[: self.n1, self.n1:]

    @property
    def A21(self):
        return self.A[self.n1:, : self.n1]

    def damped_powers(self):
        """The list [B, BA, ..., BA^{n-1}] used by seminorm and corrector.

        `damped_powers_t` holds their transposes as C-contiguous arrays,
        the right operands of the stacked fields in the corrector.
        """
        out = []
        P = np.eye(self.n)
        for _ in range(self.n):
            out.append(self.B @ P)
            P = P @ self.A
        return out


def kalman_matrix(A, B):
    """Stacked observability-style matrix (B; BA; ...; BA^{n-1})."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    blocks = []
    P = np.eye(n)
    for _ in range(n):
        blocks.append(B @ P)
        P = P @ A
    return np.vstack(blocks)


def numerical_rank(M, rank_tol=RANK_TOL):
    """Rank by singular-value thresholding at rank_tol * sigma_max."""
    s = np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int((s > rank_tol * s[0]).sum())


def smallest_singular_value(M):
    s = np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)
    return float(s[-1]) if s.size else 0.0


def kalman_seminorm(spec, y):
    """N(y) = sqrt(sum_k |B A^k y|^2), k = 0..n-1.

    Vanishes exactly on the unobservable subspace; positive definite
    iff the stacked matrix has full rank.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (spec.n,):
        raise DimensionMismatch(f"y must have shape ({spec.n},)")
    total = 0.0
    for BAk in spec.damped_powers():
        v = BAk @ y
        total += float(v @ v)
    return float(np.sqrt(total))


def kalman_gram(spec):
    """K^T K for the stacked matrix, so that N(y)^2 = y^T (K^T K) y."""
    K = kalman_matrix(spec.A, spec.B)
    G = K.T @ K
    return 0.5 * (G + G.T)
