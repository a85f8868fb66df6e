"""Space-time weighted wave-energy monitors.

The damped first-order systems admit a second-order reformulation in
W, the antiderivative of the conserved undamped field.  W decays only
when that field has zero mass.  This module owns the reformulation: a
solver with a monitor calls `check_zero_mass` on its initial data once,
before the first step, and the monitor's `record` evaluates the
weighted wave energy and its dissipation rate.  The log monitor takes
the p-system's rho and u, builds w itself and evaluates the energy
pointwise.  The power monitor reads both numbers from quadrature Grams
of the rows [U1; U2; W] (`stack` builds them, or the linear record
hands over its own stack and Gram): W_t and W_x are linear in U, so
`power_forms` writes each weight's share as a quadratic form on those
rows.  Two weight families:

* power weights  phi(s) = (a + s)^(2 mu - 1)  on  s = t + |x|
* log weights    phi1(s) = log^{2q}(a + s),
                 phi2(s) = log^{2q - r + 1}(a + s) / (a + s)^r

Both carry validity conditions on the offset `a`; `default_offset` picks
the smallest power of two satisfying them on the run's s-range.  Every
monitor refuses data whose mass exceeds MASS_TOL, and the log
energy's correction terms carry the weight ETA3.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import MassNotZero, MuOutOfRange
from ..grids import antiderivative, gram

MASS_TOL = 1e-8
ETA3 = 0.25
_COND_TOL = 1e-12
_MAX_DOUBLINGS = 60
_OFFSET_SAMPLES = 4097


def _power(x, e):
    """x ** e, taken by products when e is 0, 1, 2 or 3.

    libm pow is slow on results that underflow, as the cubes of Gaussian
    tails do; at q = 1 and r = 2 every exponent of the log family is
    such an integer.
    """
    if e == 0.0:
        return 1.0
    if e == 1.0:
        return x
    if e == 2.0:
        return x * x
    if e == 3.0:
        return x * x * x
    return x**e


@dataclass(frozen=True)
class WaveWeightSpec:
    """Weight family for the wave-energy monitor.

    kind "power": weight (a + t + |x|)^(2 mu - 1), mu in [1/2, 1]
    (mu = 1/2 degenerates to the plain wave energy).
    kind "log": weights log^{2q}(a+s) and log^{2q-r+1}(a+s)/(a+s)^r
    for the nonlinearly damped wave, q > 0.
    """

    kind: str
    mu: float = 1.0
    q: float = 1.0
    r: float = 2.0
    a: float = 4.0

    def __post_init__(self):
        if self.kind not in ("power", "log"):
            raise ValueError(f"kind must be 'power' or 'log', got {self.kind!r}")
        if self.kind == "power" and not 0.5 <= self.mu <= 1.0:
            raise MuOutOfRange(f"power weight needs mu in [1/2, 1], got {self.mu}")
        if self.kind == "log" and not self.q > 0:
            raise ValueError(f"log weight needs q > 0, got {self.q}")
        if not self.a > 0:
            raise ValueError(f"offset a must be positive, got {self.a}")

    def power_terms(self, s):
        """Power family at s: (phi, phi', phi'', phi''').

        At the flat endpoint mu = 1 the weight is a + s itself, so its
        derivatives are the constants 1, 0, 0 and no power is taken.
        """
        g = self.a + s
        if self.mu == 1.0:
            return g, 1.0, 0.0, 0.0
        p = 2.0 * self.mu - 1.0
        return (
            g**p,
            p * g ** (p - 1.0),
            p * (p - 1.0) * g ** (p - 2.0),
            p * (p - 1.0) * (p - 2.0) * g ** (p - 3.0),
        )

    def log_terms(self, s):
        """Log family at s: (phi1, phi1', phi1'', phi2, phi2')."""
        g = self.a + s
        logg = np.log(g)
        tq = 2.0 * self.q
        m = 2.0 * self.q - self.r + 1.0
        return (
            _power(logg, tq),
            tq * _power(logg, tq - 1.0) / g,
            tq * _power(logg, tq - 2.0) * ((tq - 1.0) - logg) / g**2,
            _power(logg, m) / _power(g, self.r),
            _power(logg, m - 1.0) * (m - self.r * logg) / _power(g, self.r + 1.0),
        )


def weight_conditions_ok(wspec, kappa1, s):
    """Pointwise validity of the weight family on the sample values s.

    Power mode (nonstrict, tolerance at the flat endpoint mu = 1):
    phi' >= 0, phi'' <= 0, phi''' >= 0, and phi/4 >= phi'/kappa1 where
    kappa1 is the smallest eigenvalue of the wave operator's stiffness
    coefficient.  Log mode (unit absorption constant): phi1 increasing
    and concave with |phi1'|^2 <= phi1 |phi1''|, phi2 positive
    decreasing, and the damping-margin function
    C1 = -phi2' - (|phi1'|^{r+1} + phi2^{r+1}) / phi1^r staying positive.
    """
    s = np.asarray(s, dtype=float)
    if wspec.kind == "power":
        phi, d1, d2, d3 = wspec.power_terms(s)
        scale = float(np.abs(phi).max())
        tol = _COND_TOL * max(1.0, scale)
        return bool(
            np.all(d1 >= -tol)
            and np.all(d2 <= tol)
            and np.all(d3 >= -tol)
            and np.all(0.25 * phi >= d1 / kappa1 - tol)
        )
    with np.errstate(divide="ignore", invalid="ignore"):  # log(a + s) = 0 fails p1 > 0
        p1, d1, d2, p2, dp2 = wspec.log_terms(s)
    rr = wspec.r
    if not (np.all(p1 > 0) and np.all(d1 > 0) and np.all(d2 < 0)):
        return False
    if not np.all(d1**2 <= p1 * np.abs(d2) * (1.0 + 1e-12)):
        return False
    if not (np.all(p2 > 0) and np.all(dp2 < 0)):
        return False
    margin = -dp2 - (np.abs(d1) ** (rr + 1.0) + p2 ** (rr + 1.0)) / p1**rr
    return bool(np.all(margin > 0))


def default_offset(kind, s_max, kappa1=1.0, mu=1.0, q=1.0, r=2.0):
    """Smallest power-of-two offset valid on a dense sample of [0, s_max]."""
    s = np.linspace(0.0, s_max, _OFFSET_SAMPLES)
    for k in range(_MAX_DOUBLINGS):
        a = float(2**k)
        w = WaveWeightSpec(kind=kind, mu=mu, q=q, r=r, a=a)
        if weight_conditions_ok(w, kappa1, s):
            return a
    raise ValueError(f"no valid offset up to 2^{_MAX_DOUBLINGS} for s_max={s_max}")


def check_zero_mass(grid, f):
    """Raise MassNotZero unless the total integral of every component of f
    is within MASS_TOL of 0, as a decaying antiderivative needs."""
    f = np.atleast_2d(np.asarray(f, dtype=float).T).T
    masses = grid.qw @ f
    worst = float(np.abs(masses).max())
    if worst > MASS_TOL:
        raise MassNotZero(
            f"component mass {worst:.3e} exceeds tolerance {MASS_TOL:.1e}; "
            "the antiderivative would not decay"
        )


def power_forms(a12a21, a12_d_a12inv, T):
    """The power family's energy and dissipation as quadratic forms, per weight.

    With M = a12a21, the stiffness coefficient of the wave reformulation,
    and Md = a12_d_a12inv, its damping coefficient, the densities are

        e = phi/2 (|W_t|^2 + W_x.M W_x) + phi' W_t.W - phi''/2 |W|^2
            + phi'/2 W.Md W
        h = phi W_t.Md W_t + phi'/2 W_x.M W_x + phi'''/2 (|W|^2 - W.M W)

    and h carries the point mass -phi''(t) W(0).M W(0) at the |x|-kink.
    Source rows S give the wave fields [W; W_t; W_x] = T S.  Returns
    (terms, point): terms[c] lists the nonzero entries (i, j, e_ij, h_ij)
    of T^T E_c T and T^T H_c T, the forms on S of the c-th weight of
    `power_terms` (phi, phi', phi'', phi'''), and point the entries
    (i, j, p_ij) of the point-mass form on S.
    """
    M = np.asarray(a12a21, dtype=float)
    Md = np.asarray(a12_d_a12inv, dtype=float)
    k = len(M)
    one = np.eye(k)
    w, wt, wx = slice(0, k), slice(k, 2 * k), slice(2 * k, 3 * k)
    E, H = np.zeros((2, 4, 3 * k, 3 * k))
    E[0, wt, wt] = 0.5 * one
    E[0, wx, wx] = 0.5 * M
    H[0, wt, wt] = Md
    E[1, wt, w] = one
    E[1, w, w] = 0.5 * Md
    H[1, wx, wx] = 0.5 * M
    E[2, w, w] = -0.5 * one
    H[3, w, w] = 0.5 * (one - M)
    P = np.zeros((3 * k, 3 * k))
    P[w, w] = M
    E, H, P = T.T @ E @ T, T.T @ H @ T, T.T @ P @ T
    terms = tuple([(int(i), int(j), float(Ec[i, j]), float(Hc[i, j]))
                   for i, j in np.argwhere((Ec != 0.0) | (Hc != 0.0))]
                  for Ec, Hc in zip(E, H))
    point = [(int(i), int(j), float(P[i, j])) for i, j in np.argwhere(P != 0.0)]
    return terms, point


def power_wave_record(grid, t, wspec, forms, R, G, at):
    """Weighted wave energy and dissipation rate for the power family.

    `forms` is `power_forms` of the source rows S, and S_i is row at[i]
    of the C-ordered stack R.  G is R's unweighted quadrature Gram as
    nested lists, taken here when None.  Each weight of
    `power_terms(t + |x|)` that is a constant reads G times that
    constant, and adds nothing when it is 0; each other weight takes one
    Gram of the rows of R from the first to the last one its forms meet.  At mu = 1, where the weights are (a + s, 1, 0,
    0), that is one weighted Gram, of phi, and the point mass is 0.
    """
    terms, point = forms
    if G is None:
        G = gram(grid, R).tolist()
    e = h = 0.0
    for c, cterms in zip(wspec.power_terms(t + grid.abs_x), terms):
        if not cterms:
            continue
        if not isinstance(c, np.ndarray):
            if c == 0.0:
                continue
            g, lo, scale = G, 0, c
        else:
            met = [at[s] for term in cterms for s in term[:2]]
            lo = min(met)
            g, scale = gram(grid, R[lo:max(met) + 1], c).tolist(), 1.0
        for i, j, ce, ch in cterms:
            v = scale * g[at[i] - lo][at[j] - lo]
            e += ce * v
            h += ch * v
    d2 = wspec.power_terms(t)[2]
    if d2 != 0.0:
        w0 = R[:, grid.i0].tolist()
        mass = 0.0
        for i, j, p in point:
            mass += p * w0[at[i]] * w0[at[j]]
        h += -d2 * mass
    return float(e), float(h)


def log_wave_record(grid, t, wspec, w, wt, wx):
    """Log-weighted energy and dissipation for the nonlinearly damped wave."""
    p1, d1, d2, p2, dp2 = wspec.log_terms(t + grid.abs_x)
    rp1 = wspec.r + 1.0
    w_rp1 = _power(np.abs(w), rp1)
    e = 0.5 * p1 * (wt**2 + wx**2) + ETA3 * (
        d1 * w * wt - 0.5 * d2 * w**2 + p2 * w_rp1
    )
    h = p1 * _power(np.abs(wt), rp1) + ETA3 * (d1 * wx**2 - dp2 * w_rp1)
    point_mass = -ETA3 * wspec.log_terms(t)[2] * float(w[grid.i0] ** 2)
    return float(grid.qw @ e), float(grid.qw @ h) + point_mass


@dataclass(frozen=True)
class LinearWaveMonitor:
    """Power-weighted monitor for the linear system's wave reformulation.

    Requires square invertible coupling A12 (`linear_wave_monitor` checks
    it); tracks W = antiderivative of U1 with the algebraic time
    derivative W_t = -A12 U2 and W_x = U1.  Both are linear in U, so the
    record is read from the Grams of the rows [U1; U2; W]: `forms` holds
    the power forms on those rows, and no W_t or W_x row is built.
    """

    wspec: WaveWeightSpec
    a12: np.ndarray
    a12a21: np.ndarray
    a12_d_a12inv: np.ndarray
    forms: tuple = field(init=False, repr=False)

    def __post_init__(self):
        k = len(self.a12)
        T = np.zeros((3 * k, 3 * k))
        T[:k, 2 * k:] = np.eye(k)  # W
        T[k:2 * k, k:2 * k] = -np.asarray(self.a12, dtype=float)  # W_t = -A12 U2
        T[2 * k:, :k] = np.eye(k)  # W_x = U1
        object.__setattr__(self, "forms", power_forms(self.a12a21, self.a12_d_a12inv, T))

    def stack(self, grid, U):
        """The C-ordered rows [U1; U2; W] of the 2k rows U = [U1; U2]."""
        k = len(self.a12)
        R = np.empty((3 * k, grid.N))
        R[:2 * k] = U
        for a in range(k):
            antiderivative(grid, R[a], out=R[2 * k + a])
        return R

    def record(self, grid, t, R, G=None):
        """(energy, dissipation) of a sample whose C-ordered rows R hold
        [U1; U2] first and W last, as `stack` builds them; G is R's
        unweighted Gram as nested lists, taken here when None."""
        k, m = len(self.a12), len(R)
        at = (*range(2 * k), *range(m - k, m))
        return power_wave_record(grid, t, self.wspec, self.forms, R, G, at)


@dataclass(frozen=True)
class LogWaveMonitor:
    """Log-weighted monitor for nonlinearly damped wave reformulations.

    Tracks w = antiderivative of rho with w_t = -u and w_x = rho.
    """

    wspec: WaveWeightSpec

    def record(self, grid, t, rho, u):
        w = antiderivative(grid, rho)
        return log_wave_record(grid, t, self.wspec, w, -u, rho)


def linear_wave_monitor(spec, wspec):
    """Build the monitor from a system description (needs invertible A12)."""
    if not spec.a12_invertible:
        raise ValueError("wave reformulation needs square invertible coupling A12")
    a12 = spec.A12
    a12a21 = a12 @ spec.A21
    a12_d = a12 @ spec.D @ np.linalg.inv(a12)
    return LinearWaveMonitor(wspec=wspec, a12=a12, a12a21=a12a21, a12_d_a12inv=a12_d)
