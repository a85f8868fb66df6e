"""Corrector-coefficient construction for the augmented energy functional.

The augmented functional adds cross terms

    I(t) = sum_{k=1}^{n-1} eps_k < B A^{k-1} U, B A^k d_x U >

to the H^1 energy.  The strengths eps_k = base_eps^{m_k} are chosen so
that four families of smallness constraints hold, making the functional
monotone along the flow while staying equivalent to the plain H^1 energy
(coercivity bracket [1/2, 3/2]).

The time weight eta0 is deliberately linear in the safety factor: the
base_eps search runs twice, once against the actual budget eps0 =
kappa/2 * safety (those coefficients are stored and self-validated) and
once against the fixed reference budget kappa/4, whose eps* feeds eta0 =
safety * eps*_ref / (4 C_K).  Both searches coincide at the default
safety 0.5, and the strict bound eta0 < eps*/(4 C_K) holds for the
stored coefficients because each eps_k is concave-through-origin as a
function of the budget.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConstraintSearchFailed,
    HypothesisViolated,
    SKConditionFails,
)
from .grids import WeightSpec, d_dx, h1_norm, inner, l2_norm
from .linalg import kalman_gram, min_eig_sym, spectral_norm

REFERENCE_SAFETY = 0.5


def select_exponents(n, delta):
    """Exponent ladder m_k, k = 1..n-1, with interior second difference -2*delta.

    m_k = 1 + delta + sum_{j=1..k} (2*delta*(n-j) + delta); every m_k > 1
    and the concavity margin m_k - (m_{k-1}+m_{k+1})/2 equals delta exactly.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if delta <= 0:
        raise ValueError("delta must be positive")
    steps = np.array([2.0 * delta * (n - j) + delta for j in range(1, n)])
    return 1.0 + delta + np.cumsum(steps)


def constraint_margins(C_bound, eps0, eps):
    """Max LHS/RHS ratio of each constraint family (feasible iff all <= 1).

    Families, with eps_0 denoting the free budget eps0:
      e1a:  C * eps_1^2        <= eps0^2 / 8
      e1b:  C * eps_k^2        <= eps_k * eps0 / 8          (all k)
      e11:  C * eps_k^2        <= eps_{k-1} * eps_{k+1} / 8 (k = 2..n-2)
      e2:   C * eps_{n-1}^2    <= eps_j * eps_{n-2} / 8     (j = 0..n-1)
    """
    eps = np.asarray(eps, dtype=float)
    nm1 = eps.size
    out = {"e1a": C_bound * eps[0] ** 2 / (eps0**2 / 8.0)}
    out["e1b"] = max(C_bound * ek / (eps0 / 8.0) for ek in eps)
    if nm1 >= 3:
        out["e11"] = max(
            C_bound * eps[k] ** 2 / (eps[k - 1] * eps[k + 1] / 8.0)
            for k in range(1, nm1 - 1)
        )
    else:
        out["e11"] = 0.0
    top = eps[-1]
    prev = eps[-2] if nm1 >= 2 else eps0
    ladder = np.concatenate(([eps0], eps))
    out["e2"] = max(C_bound * top**2 / (ej * prev / 8.0) for ej in ladder)
    return out


@dataclass(frozen=True)
class CorrectorCoeffs:
    """Validated corrector strengths and the Lyapunov time weight.

    Construction re-checks every constraint family plus the coercivity
    and eta0 bounds; an infeasible combination raises immediately.
    """

    kappa: float
    eps0: float
    delta: float
    base_eps: float
    m: np.ndarray
    eps: np.ndarray
    eta0: float
    C_bound: float
    C_K: float
    coercivity_sum: float
    eps_star: float = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        eps = np.asarray(self.eps, dtype=float)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "eps_star", float(min(self.kappa, eps.min())))
        problems = []
        if not 0.0 < self.eps0 < self.kappa / 2.0:
            problems.append(f"eps0={self.eps0:.3e} outside (0, kappa/2)")
        if not 0.0 < self.base_eps <= self.eps0:
            problems.append(f"base_eps={self.base_eps:.3e} outside (0, eps0]")
        if np.any(m <= 1.0):
            problems.append("exponent ladder must stay above 1")
        if m.size >= 3:
            concavity = m[1:-1] - 0.5 * (m[:-2] + m[2:])
            if np.any(concavity < self.delta - 1e-12):
                problems.append("exponent ladder concavity margin below delta")
        margins = constraint_margins(self.C_bound, self.eps0, eps)
        for name, ratio in margins.items():
            if ratio > 1.0 + 1e-12:
                problems.append(f"family {name} violated (ratio {ratio:.3e})")
        if self.coercivity_sum > 0.5 + 1e-12:
            problems.append(
                f"coercivity sum {self.coercivity_sum:.3e} exceeds 1/2"
            )
        if not 0.0 < self.eta0 < self.eps_star / (4.0 * self.C_K):
            problems.append(
                f"eta0={self.eta0:.3e} outside (0, eps*/(4 C_K))"
            )
        if problems:
            raise ConstraintSearchFailed("; ".join(problems))

    def margins(self):
        return constraint_margins(self.C_bound, self.eps0, self.eps)


def _norm_products(spec):
    """(||B A^{k-1}||_2 * ||B A^k||_2)_{k=1..n-1} for the coercivity cap."""
    norms = [spectral_norm(P) for P in spec.damped_powers()]
    return np.array([norms[k - 1] * norms[k] for k in range(1, spec.n)])


def _feasible(base, m, C_bound, eps0, products):
    eps = base**m
    margins = constraint_margins(C_bound, eps0, eps)
    if max(margins.values()) > 1.0:
        return False
    return float(products @ eps) <= 0.5


def _search_base(m, C_bound, eps0, products):
    """Largest base_eps in (0, eps0] passing every family (bisection)."""
    if _feasible(eps0, m, C_bound, eps0, products):
        return eps0
    lo = eps0 * 1e-40
    if not _feasible(lo, m, C_bound, eps0, products):
        raise ConstraintSearchFailed(
            f"no feasible base_eps down to {lo:.3e} "
            f"(C_bound={C_bound:.3e}, eps0={eps0:.3e})"
        )
    hi = eps0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _feasible(mid, m, C_bound, eps0, products):
            lo = mid
        else:
            hi = mid
    return lo


def estimate_c_bound(spec):
    """Over-estimate of the absorption constant from the matrix norms."""
    norms = [spectral_norm(P) for P in spec.damped_powers()]
    base = max(1.0, max(norms), spectral_norm(spec.D))
    return 8.0 * base * base


def estimate_ck(spec):
    """Equivalence constant 2 sup |y|^2 / N(y)^2 over the unit sphere.

    N(y)^2 = y^T (K^T K) y, so the supremum is 1 / lambda_min(K^T K); the
    result carries a 2x safety factor.  Requires full Kalman rank, which
    is exactly when K^T K is positive definite.
    """
    if not spec.sk_holds:
        raise SKConditionFails("seminorm degenerates: stacked matrix is rank deficient")
    n2_min = min_eig_sym(kalman_gram(spec))
    if n2_min <= 0.0:
        raise SKConditionFails("seminorm minimum collapsed to zero on the sphere")
    return 2.0 / n2_min


def select_coefficients(spec, delta=0.1, safety=0.5):
    """Full coefficient pipeline: budget, families, C_K, time weight."""
    if not spec.sk_holds:
        raise SKConditionFails(
            f"stacked-matrix rank {spec.kalman_rank} < n = {spec.n}"
        )
    if not 0.0 < safety < 1.0:
        raise ValueError("safety must lie in (0, 1)")
    eps0 = 0.5 * spec.kappa * safety
    C_bound = estimate_c_bound(spec)
    m = select_exponents(spec.n, delta)
    products = _norm_products(spec)
    base = _search_base(m, C_bound, eps0, products)
    eps = base**m

    eps0_ref = 0.5 * spec.kappa * REFERENCE_SAFETY
    if eps0 == eps0_ref:
        eps_star_ref = float(min(spec.kappa, (base**m).min()))
    else:
        base_ref = _search_base(m, C_bound, eps0_ref, products)
        eps_star_ref = float(min(spec.kappa, (base_ref**m).min()))

    C_K = estimate_ck(spec)
    eta0 = safety * eps_star_ref / (4.0 * C_K)
    return CorrectorCoeffs(
        kappa=spec.kappa,
        eps0=eps0,
        delta=delta,
        base_eps=base,
        m=m,
        eps=eps,
        eta0=eta0,
        C_bound=C_bound,
        C_K=C_K,
        coercivity_sum=float(products @ eps),
    )


def corrector_value(spec, coeffs, grid, U, dU):
    """Cross term I = sum_k eps_k <B A^{k-1} U, B A^k d_x U>."""
    powers_t = spec.damped_powers_t
    total = 0.0
    for k in range(1, spec.n):
        total += coeffs.eps[k - 1] * inner(
            grid, U @ powers_t[k - 1], dU @ powers_t[k]
        )
    return float(total)


def lyapunov_value(spec, coeffs, grid, U, t):
    """Augmented energy ||U||_{H^1}^2 + eta0 t ||d_x U||^2 + I(t)."""
    dU = d_dx(grid, U)
    l2 = l2_norm(grid, U)
    dl2 = l2_norm(grid, dU)
    return (
        l2 * l2
        + (1.0 + coeffs.eta0 * t) * dl2 * dl2
        + corrector_value(spec, coeffs, grid, U, dU)
    )


# --- weighted lane -----------------------------------------------------


@dataclass(frozen=True)
class WeightedCoeffs:
    """Scale-free constants for the |x|^mu weighted estimates."""

    mu: float
    C_tilde: float
    eps_tilde: np.ndarray
    kappa0: float


def estimate_c_tilde(spec, mu):
    """B-scale-free absorption constant for the weighted estimates."""
    Bn = spec.B / spectral_norm(spec.B)
    norms = []
    P = np.eye(spec.n)
    for _ in range(spec.n):
        norms.append(spectral_norm(Bn @ P))
        P = P @ spec.A
    return 8.0 * (1.0 + 2.0 * mu) * max(1.0, max(norms)) ** 2


def select_weighted_coefficients(spec, mu, delta=0.1):
    """Weighted-family strengths and the damping threshold kappa0.

    The weighted machinery requires the undamped block to carry no
    self-transport (A11 = 0).
    """
    if not spec.a11_zero:
        raise HypothesisViolated("weighted estimates need A11 = 0")
    if not spec.sk_holds:
        raise SKConditionFails("weighted estimates need full stacked-matrix rank")
    C_tilde = estimate_c_tilde(spec, mu)
    nm1 = spec.n - 1
    if nm1 == 1:
        eps_t = np.array([0.125])
    else:
        m = select_exponents(spec.n, delta)
        dm = m - m[0]  # dm[0] = 0, increasing

        def ladder(t):
            return 0.125 * t**dm

        def ok(t):
            e = ladder(t)
            for k in range(1, nm1 - 1):
                if 8.0 * C_tilde * e[k] ** 2 > e[k - 1] * e[k + 1]:
                    return False
            return all(8.0 * C_tilde * e[-1] ** 2 <= ej * e[-2] for ej in e)

        lo, hi = 1e-280, 1.0
        if not ok(lo):
            raise ConstraintSearchFailed("weighted family search underflowed")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if ok(mid):
                lo = mid
            else:
                hi = mid
        eps_t = ladder(lo)
    kappa0 = float(np.sqrt(4.0 * C_tilde / eps_t[0]))
    return WeightedCoeffs(mu=mu, C_tilde=C_tilde, eps_tilde=eps_t, kappa0=kappa0)


def weighted_data_size(grid, U0, mu):
    """Initial-data size for weighted claims: H^1 plus |x|^mu moments."""
    w = WeightSpec("power", mu=mu)
    return (
        h1_norm(grid, U0)
        + l2_norm(grid, U0, w)
        + l2_norm(grid, d_dx(grid, U0), w)
    )
