"""Uniform 1D grids, weighted norms, and the discrete antiderivative.

Periodic grids omit the duplicate endpoint (dx = 2L/N) so trapezoid
quadrature and centered differences satisfy summation-by-parts exactly.
Compact-support grids include both endpoints (dx = 2L/(N-1)) with the
usual half-weight trapezoid ends; derivative stencils fall back to
second-order one-sided forms there.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainEscape

BOUNDARY_TOL = 1e-10

_BCS = ("periodic", "compact_support")


@dataclass(frozen=True)
class Grid1D:
    L: float
    N: int
    bc: str = "periodic"
    x: np.ndarray = field(init=False, repr=False)
    dx: float = field(init=False)
    qw: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError(f"L must be positive, got {self.L}")
        if self.N < 16:
            raise ValueError(f"N must be >= 16, got {self.N}")
        if self.bc not in _BCS:
            raise ValueError(f"bc must be one of {_BCS}, got {self.bc!r}")
        if self.bc == "periodic":
            dx = 2.0 * self.L / self.N
            x = -self.L + dx * np.arange(self.N)
            qw = np.full(self.N, dx)
        else:
            x = np.linspace(-self.L, self.L, self.N)
            dx = x[1] - x[0]
            qw = np.full(self.N, dx)
            qw[0] = qw[-1] = dx / 2.0
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "dx", float(dx))
        object.__setattr__(self, "qw", qw)

    @property
    def periodic(self):
        return self.bc == "periodic"


def _ghost(f, g):
    """`f` padded along axis 0 with `g` periodic wrap cells at each end."""
    return np.concatenate((f[-g:], f, f[:g]))


def d_dx(grid, f):
    """Second-order first derivative; one-sided at compact boundaries.

    Accepts (N,) or (N, k) arrays and differentiates along axis 0.
    """
    f = np.asarray(f, dtype=float)
    dx = grid.dx
    if grid.periodic:
        p = _ghost(f, 1)
        return (p[2:] - p[:-2]) / (2.0 * dx)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * dx)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dx)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dx)
    return out


def fourth_difference(grid, f):
    """Undivided fourth difference, the stabilization stencil.

    Periodic grids wrap; compact grids apply it on interior nodes only
    (two zero rows at each end), keeping the boundary stencils untouched.
    """
    f = np.asarray(f, dtype=float)
    if grid.periodic:
        # f[i+2] - 4 f[i+1] + 6 f[i] - 4 f[i-1] + f[i-2], summed left to right
        p = _ghost(f, 2)
        out = p[3:-1] * -4.0
        out += p[4:]
        tmp = p[2:-2] * 6.0
        out += tmp
        np.multiply(p[1:-3], 4.0, out=tmp)
        out -= tmp
        out += p[:-4]
        return out
    out = np.zeros_like(f)
    out[2:-2] = f[4:] - 4.0 * f[3:-1] + 6.0 * f[2:-2] - 4.0 * f[1:-3] + f[:-4]
    return out


@dataclass(frozen=True)
class WeightSpec:
    """Spatial weight: |x|^mu (power) or log^q(1 + |x|) (logarithmic)."""

    kind: str
    mu: float = 0.0
    q: float = 0.0

    def __post_init__(self):
        if self.kind == "power":
            if self.mu < 0:
                raise ValueError("power weight needs mu >= 0")
        elif self.kind == "logarithmic":
            if self.q <= 0:
                raise ValueError("logarithmic weight needs q > 0")
        else:
            raise ValueError(f"unknown weight kind {self.kind!r}")

    def values(self, x):
        ax = np.abs(np.asarray(x, dtype=float))
        if self.kind == "power":
            return ax**self.mu
        return np.log1p(ax) ** self.q


def _component_sum(f, g):
    """Rowwise sum of f * g over the component axis of (N, k) fields.

    The columns are added left to right, the order numpy's own
    `.sum(axis=1)` uses below eight components, without its slow
    reduction over a short axis.
    """
    s = f[:, 0] * g[:, 0]
    for k in range(1, f.shape[1]):
        s += f[:, k] * g[:, k]
    return s


def _sq_integrand(f, weight_values=None):
    f = np.asarray(f, dtype=float)
    s = f * f if f.ndim == 1 else _component_sum(f, f)
    if weight_values is not None:
        s = weight_values * weight_values * s
    return s


def l2_norm(grid, f, weight=None):
    """Weighted L2 norm by trapezoid: sqrt(sum qw * w(x)^2 * |f|^2)."""
    wv = weight.values(grid.x) if weight is not None else None
    return float(np.sqrt(grid.qw @ _sq_integrand(f, wv)))


def inner(grid, f, g, weight=None):
    """Weighted L2 pairing; components summed before quadrature."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    s = f * g if f.ndim == 1 else _component_sum(f, g)
    if weight is not None:
        wv = weight.values(grid.x)
        s = wv * wv * s
    return float(grid.qw @ s)


def h1_norm(grid, f, weight=None):
    a = l2_norm(grid, f, weight)
    b = l2_norm(grid, d_dx(grid, f), weight)
    return float(np.sqrt(a * a + b * b))


def antiderivative(grid, f):
    """Cumulative trapezoid primitive from the left edge, plus total mass.

    Returns (F, mass) where F[0] = 0 and mass is the quadrature total
    of f (one value per component).
    """
    f = np.asarray(f, dtype=float)
    steps = 0.5 * (f[1:] + f[:-1]) * grid.dx
    F = np.zeros_like(f)
    F[1:] = np.cumsum(steps, axis=0)
    mass = grid.qw @ f
    return F, mass


def boundary_amplitude(grid, f):
    """Max |f| on the two boundary nodes (compact-support escape monitor)."""
    f = np.asarray(f, dtype=float)
    return float(max(np.abs(f[0]).max(), np.abs(f[-1]).max()))


def escape_tol(*fields):
    """Boundary-amplitude budget of a compact-support run started from `fields`."""
    return BOUNDARY_TOL * max(1.0, *(float(np.abs(f).max()) for f in fields))


def check_escape(grid, t, tol, *fields):
    """Raise DomainEscape once a field on a compact-support grid reaches the ends."""
    if grid.periodic:
        return
    b = max(boundary_amplitude(grid, f) for f in fields)
    if b > tol:
        raise DomainEscape(f"boundary amplitude {b:.3e} at t={t:.4g} exceeds {tol:.1e}")
