"""Space-time weighted wave-energy monitors.

The damped first-order systems admit a second-order reformulation in the
antiderivative of the undamped component.  These monitors evaluate the
weighted wave energy and its dissipation rate for two weight families:

* power weights  phi(s) = (a + s)^(2 mu - 1)  on  s = t + |x|
* log weights    phi1(s) = log^{2q}(a + s),
                 phi2(s) = log^{2q - r + 1}(a + s) / (a + s)^r

Both carry validity conditions on the offset `a`; `default_offset` picks
the smallest power of two satisfying them on the run's s-range.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import MassNotZero, MuOutOfRange
from ..grids import antiderivative, d_dx

DEFAULT_MASS_TOL = 1e-8
_COND_TOL = 1e-12
_MAX_DOUBLINGS = 60


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

    # --- power family ------------------------------------------------
    def phi(self, s, order=0):
        p = 2.0 * self.mu - 1.0
        g = self.a + s
        if order == 0:
            return g**p
        if order == 1:
            return p * g ** (p - 1.0)
        if order == 2:
            return p * (p - 1.0) * g ** (p - 2.0)
        if order == 3:
            return p * (p - 1.0) * (p - 2.0) * g ** (p - 3.0)
        raise ValueError(f"order {order} not implemented")

    # --- log family ---------------------------------------------------
    def phi1(self, s, order=0):
        g = self.a + s
        logg = np.log(g)
        tq = 2.0 * self.q
        if order == 0:
            return logg**tq
        if order == 1:
            return tq * logg ** (tq - 1.0) / g
        if order == 2:
            return tq * logg ** (tq - 2.0) * ((tq - 1.0) - logg) / g**2
        raise ValueError(f"order {order} not implemented")

    def phi2(self, s, order=0):
        g = self.a + s
        logg = np.log(g)
        m = 2.0 * self.q - self.r + 1.0
        if order == 0:
            return logg**m / g**self.r
        if order == 1:
            return logg ** (m - 1.0) * (m - self.r * logg) / g ** (self.r + 1.0)
        raise ValueError(f"order {order} not implemented")


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
        phi = wspec.phi(s)
        d1 = wspec.phi(s, 1)
        d2 = wspec.phi(s, 2)
        d3 = wspec.phi(s, 3)
        scale = float(np.abs(phi).max())
        tol = _COND_TOL * max(1.0, scale)
        return bool(
            np.all(d1 >= -tol)
            and np.all(d2 <= tol)
            and np.all(d3 >= -tol)
            and np.all(0.25 * phi >= d1 / kappa1 - tol)
        )
    p1 = wspec.phi1(s)
    d1 = wspec.phi1(s, 1)
    d2 = wspec.phi1(s, 2)
    p2 = wspec.phi2(s)
    dp2 = wspec.phi2(s, 1)
    rr = wspec.r
    if not (np.all(p1 > 0) and np.all(d1 > 0) and np.all(d2 < 0)):
        return False
    if not np.all(d1**2 <= p1 * np.abs(d2) * (1.0 + 1e-12)):
        return False
    if not (np.all(p2 > 0) and np.all(dp2 < 0)):
        return False
    margin = -dp2 - (np.abs(d1) ** (rr + 1.0) + p2 ** (rr + 1.0)) / p1**rr
    return bool(np.all(margin > 0))


def default_offset(kind, s_max, kappa1=1.0, mu=1.0, q=1.0, r=2.0, n_sample=4097):
    """Smallest power-of-two offset valid on a dense sample of [0, s_max]."""
    s = np.linspace(0.0, s_max, n_sample)
    for k in range(_MAX_DOUBLINGS):
        a = float(2**k)
        w = WaveWeightSpec(kind=kind, mu=mu, q=q, r=r, a=a)
        if weight_conditions_ok(w, kappa1, s):
            return a
    raise ValueError(f"no valid offset up to 2^{_MAX_DOUBLINGS} for s_max={s_max}")


def _qf(M, F, G):
    """Rowwise quadratic form (M F_i) . G_i for stacked fields F, G (N, k)."""
    return np.einsum("ij,jk,ik->i", F, M, G)


def check_zero_mass(grid, f, mass_tol=DEFAULT_MASS_TOL):
    """Total integral of every component must vanish for a decaying antiderivative."""
    f = np.atleast_2d(np.asarray(f, dtype=float).T).T
    masses = grid.qw @ f
    worst = float(np.abs(masses).max())
    if worst > mass_tol:
        raise MassNotZero(
            f"component mass {worst:.3e} exceeds tolerance {mass_tol:.1e}; "
            "the antiderivative would not decay"
        )
    return worst


def power_wave_record(grid, t, wspec, W, Wt, Wx, a12a21, a12_d_a12inv):
    """Weighted wave energy and dissipation rate for the power family.

    W, Wt, Wx are stacked (N, k) fields; a12a21 is the stiffness
    coefficient matrix of the wave reformulation and a12_d_a12inv its
    damping coefficient.  The dissipation carries a point mass at x = 0
    where the weight's |x|-kink lives.
    """
    s = t + np.abs(grid.x)
    phi = wspec.phi(s)
    d1 = wspec.phi(s, 1)
    d2 = wspec.phi(s, 2)
    d3 = wspec.phi(s, 3)
    wsq = np.einsum("ij,ij->i", W, W)
    stiff_ww = _qf(a12a21, W, W)
    e = (
        0.5 * phi * (np.einsum("ij,ij->i", Wt, Wt) + _qf(a12a21, Wx, Wx))
        + d1 * np.einsum("ij,ij->i", Wt, W)
        - 0.5 * d2 * wsq
        + 0.5 * d1 * _qf(a12_d_a12inv, W, W)
    )
    h = (
        phi * _qf(a12_d_a12inv, Wt, Wt)
        + 0.5 * d1 * _qf(a12a21, Wx, Wx)
        + 0.5 * d3 * wsq
        - 0.5 * d3 * stiff_ww
    )
    i0 = int(np.argmin(np.abs(grid.x)))
    point_mass = -wspec.phi(t, 2) * float(stiff_ww[i0])
    return float(grid.qw @ e), float(grid.qw @ h) + point_mass


def log_wave_record(grid, t, wspec, w, wt, wx, eta3):
    """Log-weighted energy and dissipation for the nonlinearly damped wave."""
    s = t + np.abs(grid.x)
    p1 = wspec.phi1(s)
    d1 = wspec.phi1(s, 1)
    d2 = wspec.phi1(s, 2)
    p2 = wspec.phi2(s)
    dp2 = wspec.phi2(s, 1)
    rp1 = wspec.r + 1.0
    e = 0.5 * p1 * (wt**2 + wx**2) + eta3 * (
        d1 * w * wt - 0.5 * d2 * w**2 + p2 * np.abs(w) ** rp1
    )
    h = p1 * np.abs(wt) ** rp1 + eta3 * (d1 * wx**2 - dp2 * np.abs(w) ** rp1)
    i0 = int(np.argmin(np.abs(grid.x)))
    point_mass = -eta3 * wspec.phi1(t, 2) * float(w[i0] ** 2)
    return float(grid.qw @ e), float(grid.qw @ h) + point_mass


@dataclass(frozen=True)
class LinearWaveMonitor:
    """Power-weighted monitor for the linear system's wave reformulation.

    Requires square invertible coupling A12 (checked by the caller via
    the system flags); tracks W = antiderivative of U1 with the
    algebraic time derivative W_t = -A12 U2.
    """

    wspec: WaveWeightSpec
    a12: np.ndarray
    a12a21: np.ndarray
    a12_d_a12inv: np.ndarray
    mass_tol: float = DEFAULT_MASS_TOL
    a12_t: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # contiguous right operand: a transposed view misses numpy's BLAS path
        object.__setattr__(self, "a12_t", np.ascontiguousarray(self.a12.T))

    def check_mass(self, grid, U1_0):
        return check_zero_mass(grid, U1_0, self.mass_tol)

    def record(self, grid, t, U, n1):
        U1 = U[:, :n1]
        U2 = U[:, n1:]
        W, _ = antiderivative(grid, U1)
        Wt = -(U2 @ self.a12_t)
        return power_wave_record(
            grid, t, self.wspec, W, Wt, U1, self.a12a21, self.a12_d_a12inv
        )


@dataclass(frozen=True)
class LogWaveMonitor:
    """Log-weighted monitor for nonlinearly damped wave reformulations."""

    wspec: WaveWeightSpec
    eta3: float = 0.25

    def record(self, grid, t, w, wt, wx):
        return log_wave_record(grid, t, self.wspec, w, wt, wx, self.eta3)


def linear_wave_monitor(spec, wspec, mass_tol=DEFAULT_MASS_TOL):
    """Build the monitor from a system description (needs invertible A12)."""
    if not spec.a12_invertible:
        raise ValueError("wave reformulation needs square invertible coupling A12")
    a12 = spec.A12
    a12a21 = a12 @ spec.A21
    a12_d = a12 @ spec.D @ np.linalg.inv(a12)
    return LinearWaveMonitor(
        wspec=wspec, a12=a12, a12a21=a12a21, a12_d_a12inv=a12_d, mass_tol=mass_tol
    )


def scalar_wave_monitor(wspec, stiffness, damping, mass_tol=DEFAULT_MASS_TOL):
    """Monitor for scalar wave reformulations (Euler momentum form).

    stiffness is the wave-speed-squared coefficient (P'(rho_bar) for the
    momentum form) and damping the friction coefficient lambda.
    """
    one = np.eye(1)
    return LinearWaveMonitor(
        wspec=wspec,
        a12=one,
        a12a21=stiffness * one,
        a12_d_a12inv=damping * one,
        mass_tol=mass_tol,
    )
