"""Corrector-coefficient construction for the augmented energy functional.

The augmented functional adds cross terms

    I(t) = sum_{k=1}^{n-1} eps_k < B A^{k-1} U, B A^k d_x U >

to the H^1 energy.  The strengths eps_k = base_eps^{m_k} are chosen so
that four families of smallness constraints hold, making the functional
monotone along the flow while staying equivalent to the plain H^1 energy
(coercivity bracket [1/2, 3/2]).  Each family member is one monomial
inequality, linear in l = log eps, and every one tightens as base_eps
grows: the largest feasible base_eps is a closed form, found and checked
in log space.  Only the coercivity cap needs a 1-D solve, and a system
whose caps leave eps_{n-1} below the smallest normal double is refused.

The time weight eta0 is deliberately linear in the safety factor: the
closed form is taken at two budgets, once at the actual eps0 =
kappa/2 * safety (those coefficients are stored and self-validated) and
once at the fixed reference budget kappa/4, whose eps* feeds eta0 =
safety * eps*_ref / (4 C_K).  Both coincide at the default safety 0.5,
and the strict bound eta0 < eps*/(4 C_K) holds for the stored
coefficients because each eps_k is concave-through-origin as a function
of the budget.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConstraintSearchFailed,
    HypothesisViolated,
    SKConditionFails,
)
from .grids import WeightSpec, d_dx, h1_norm, l2_norm
from .linalg import kalman_gram, min_eig_sym, spectral_norm

REFERENCE_SAFETY = 0.5
# The exponent ladder's concavity margin: `select_exponents(n, DELTA)`.
DELTA = 0.1
# Roundoff allowed on each constraint, here and in the runner's `margins`.
CONSTRAINT_TOL = 1e-12
TINY = np.finfo(float).tiny


def select_exponents(n, delta):
    """Exponent ladder m_k, k = 1..n-1, with interior second difference -2*delta.

    m_k = 1 + delta + sum_{j=1..k} (2*delta*(n-j) + delta); every m_k > 1
    and the concavity margin m_k - (m_{k-1}+m_{k+1})/2 equals delta exactly.
    Its callers pass DELTA and a SystemSpec's n, which is at least 2.
    """
    steps = np.array([2.0 * delta * (n - j) + delta for j in range(1, n)])
    return 1.0 + delta + np.cumsum(steps)


def _family_table(n):
    """Each family's rows W, one per member C eps_a eps_b <= eps_c eps_d / 8
    (eps_0 the budget), as log(8C) + W . l <= 0 for l = log eps."""
    members = {"e1a": [(1, 1, 0, 0)], "e1b": [(k, k, k, 0) for k in range(1, n)],
               "e11": [(k, k, k - 1, k + 1) for k in range(2, n - 1)],
               "e2": [(n - 1, n - 1, j, n - 2) for j in range(n)]}
    table = {}
    for family, quads in members.items():
        W = table[family] = np.zeros((len(quads), n))
        for w, idx in zip(W, quads):
            np.add.at(w, list(idx), (1.0, 1.0, -1.0, -1.0))
    return table


def _log_margins(C_bound, eps0, eps):
    """Each family's largest log(LHS/RHS); a family with no member reads -inf."""
    l = np.log(np.concatenate(([eps0], eps)))
    return {f: float((math.log(8.0 * C_bound) + W @ l).max(initial=-math.inf))
            for f, W in _family_table(l.size).items()}


def constraint_margins(C_bound, eps0, eps):
    """Max LHS/RHS ratio of each constraint family (feasible iff all <= 1).

    Families, with eps_0 denoting the free budget eps0:
      e1a:  C * eps_1^2        <= eps0^2 / 8
      e1b:  C * eps_k^2        <= eps_k * eps0 / 8          (all k)
      e11:  C * eps_k^2        <= eps_{k-1} * eps_{k+1} / 8 (k = 2..n-2)
      e2:   C * eps_{n-1}^2    <= eps_j * eps_{n-2} / 8     (j = 0..n-1)
    The ratios are taken in log space; e11 reads 0.0 for n < 4.
    """
    return {k: math.exp(v) for k, v in _log_margins(C_bound, eps0, eps).items()}


def _log_roots(W, log8c, l0, m):
    """Per row, the log base where log(8C) + W . (l0, m log base) = 0; each
    slope W[1:] . m is summed exactly, the weights being small integers."""
    return -(log8c + W[:, 0] * l0) / np.array([math.fsum(w[1:] * m) for w in W])


@dataclass(frozen=True)
class CorrectorCoeffs:
    """Validated corrector strengths and the Lyapunov time weight.

    Construction re-checks every constraint family plus the coercivity
    and eta0 bounds; an infeasible combination raises immediately.
    """

    kappa: float
    eps0: float
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
            if np.any(concavity < DELTA - CONSTRAINT_TOL):
                problems.append("exponent ladder concavity margin below DELTA")
        if not np.all(eps >= TINY):
            problems.append(f"eps={eps.min():.3e} below the smallest normal double")
        else:
            for name, v in _log_margins(self.C_bound, self.eps0, eps).items():
                if v > math.log1p(CONSTRAINT_TOL):
                    problems.append(f"family {name} violated (ratio exp({v:.4g}))")
        if self.coercivity_sum > 0.5 + CONSTRAINT_TOL:
            problems.append(f"coercivity sum {self.coercivity_sum:.3e} exceeds 1/2")
        if not 0.0 < self.eta0 < self.eps_star / (4.0 * self.C_K):
            problems.append(f"eta0={self.eta0:.3e} outside (0, eps*/(4 C_K))")
        if problems:
            raise ConstraintSearchFailed("; ".join(problems))

    def margins(self):
        return constraint_margins(self.C_bound, self.eps0, self.eps)


def _bisect(ok, lo, hi):
    """The last passing point of 200 halvings of [lo, hi], where ok(lo) holds."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _ladder(m, C_bound, eps0, products):
    """(base_eps, base_eps^m) for the largest base_eps <= eps0 that every
    family (in closed form) and the coercivity cap sum_k p_k eps_k <= 1/2
    allow; refused, before the cap is solved, where eps_{n-1} underflows."""
    W = np.vstack(list(_family_table(m.size + 1).values()))
    l0 = math.log(eps0)
    beta = min(l0, float(_log_roots(W, math.log(8.0 * C_bound), l0, m).min()))
    floor = math.log(TINY) / m[-1]  # eps_{n-1} is the smallest normal double

    def coercive(b):
        return float(products @ np.exp(m * b)) <= 0.5

    if beta < floor or not coercive(floor):
        raise ConstraintSearchFailed(
            f"eps_{m.size} underflows: nothing above log base_eps = {floor:.4g}, where it "
            f"is the smallest normal double, meets the families (log base_eps <= "
            f"{beta:.4g}) and the coercivity cap (C_bound={C_bound:.3e}, eps0={eps0:.3e})")
    if not coercive(beta):
        beta = _bisect(coercive, floor, beta)
    base = min(eps0, math.exp(beta))  # exp(log eps0) may round above eps0
    return base, base**m


def estimate_c_bound(spec):
    """Over-estimate of the absorption constant from the matrix norms."""
    base = max(1.0, max(spec.damped_power_norms), spectral_norm(spec.D))
    return 8.0 * base * base


def estimate_ck(spec):
    """Equivalence constant 2 sup |y|^2 / N(y)^2 over the unit sphere.

    N(y)^2 = y^T (K^T K) y, so the supremum is 1 / lambda_min(K^T K); the
    result carries a 2x safety factor.  Requires full Kalman rank, which
    is exactly when K^T K is positive definite (`select_coefficients` checks it).
    """
    n2_min = min_eig_sym(kalman_gram(spec))
    if n2_min <= 0.0:
        raise SKConditionFails("seminorm minimum collapsed to zero on the sphere")
    return 2.0 / n2_min


def select_coefficients(spec, safety=0.5):
    """Full coefficient pipeline: budget, families, C_K, time weight;
    0 < safety < 1 as the config bounds it."""
    if not spec.sk_holds:
        raise SKConditionFails(f"stacked-matrix rank {spec.kalman_rank} < n = {spec.n}")
    eps0 = 0.5 * spec.kappa * safety
    C_bound = estimate_c_bound(spec)
    m = select_exponents(spec.n, DELTA)
    norms = np.array(spec.damped_power_norms)
    products = norms[:-1] * norms[1:]  # ||B A^{k-1}|| ||B A^k||, k = 1..n-1
    base, eps = _ladder(m, C_bound, eps0, products)

    _, eps_ref = _ladder(m, C_bound, 0.5 * spec.kappa * REFERENCE_SAFETY, products)
    eps_star_ref = float(min(spec.kappa, eps_ref.min()))

    C_K = estimate_ck(spec)
    eta0 = safety * eps_star_ref / (4.0 * C_K)
    return CorrectorCoeffs(kappa=spec.kappa, eps0=eps0, base_eps=base, m=m, eps=eps,
                           eta0=eta0, C_bound=C_bound, C_K=C_K,
                           coercivity_sum=float(products @ eps))


def cross_matrix(spec, eps):
    """C = sum_k eps_k (B A^{k-1})^T B A^k, the cross term's matrix."""
    P = spec.damped_powers
    return sum(e * (P[k].T @ P[k + 1]) for k, e in enumerate(eps))


def lyapunov_value(C, eta0, G, t):
    """Augmented energy ||U||_{H^1}^2 + eta0 t ||d_x U||^2 + I(t).

    G is the `grids.gram` of rows that begin [U^T; (d_x U)^T], as nested
    lists or an array.  The cross term I is <C, G[:n, n:2n]> with
    C = `cross_matrix(spec, coeffs.eps)`, built once per run.  Every sum
    runs left to right over Python floats, as numpy sums fewer than
    eight terms.
    """
    n = len(C)
    l2, dx, cross = G[0][0], G[n][n], 0.0
    for i in range(1, n):
        l2 += G[i][i]
        dx += G[n + i][n + i]
    for i, Ci in enumerate(C):
        for j, c in enumerate(Ci):
            cross += c * G[i][n + j]
    return float(l2 + (1.0 + eta0 * t) * dx + cross)


# --- weighted lane -----------------------------------------------------


@dataclass(frozen=True)
class WeightedCoeffs:
    """Scale-free constants for the |x|^mu weighted estimates."""

    mu: float
    C_tilde: float
    eps_tilde: np.ndarray
    kappa0: float


def estimate_c_tilde(spec, mu):
    """B-scale-free absorption constant for the weighted estimates.

    Built from max_k ||B A^k|| / ||B||, the largest norm of the ladder
    of B/||B||.
    """
    norms = spec.damped_power_norms
    return 8.0 * (1.0 + 2.0 * mu) * max(1.0, max(norms) / norms[0]) ** 2


def select_weighted_coefficients(spec, mu):
    """Weighted-family strengths and the damping threshold kappa0.

    The weighted machinery requires the undamped block to carry no
    self-transport (A11 = 0).
    """
    if not spec.a11_zero:
        raise HypothesisViolated("weighted estimates need A11 = 0")
    if not spec.sk_holds:
        raise SKConditionFails("weighted estimates need full stacked-matrix rank")
    C_tilde = estimate_c_tilde(spec, mu)
    m = select_exponents(spec.n, DELTA)
    dm = m - m[0]
    # the rows that do not read eps_0 (e11, and e2 for j >= 1) on the ladder
    # 0.125 t^dm: their weights sum to 0, so the 0.125 cancels
    W = np.vstack(list(_family_table(spec.n).values()))
    roots = _log_roots(W[W[:, 0] == 0.0], math.log(8.0 * C_tilde), 0.0, dm)
    eps_t = 0.125 * np.exp(dm * min([0.0, *roots]))
    if eps_t[-1] < TINY:
        raise ConstraintSearchFailed(f"weighted ladder underflows: eps~_{spec.n - 1} = "
                                     f"{eps_t[-1]:.3e} (C_tilde={C_tilde:.3e})")
    kappa0 = float(np.sqrt(4.0 * C_tilde / eps_t[0]))
    return WeightedCoeffs(mu=mu, C_tilde=C_tilde, eps_tilde=eps_t, kappa0=kappa0)


def weighted_data_size(grid, U0, mu):
    """Initial-data size for weighted claims: H^1 plus |x|^mu moments."""
    w2 = WeightSpec("power", mu=mu).values(grid.x) ** 2
    return (
        h1_norm(grid, U0)
        + l2_norm(grid, U0, w2)
        + l2_norm(grid, d_dx(grid, U0), w2)
    )
