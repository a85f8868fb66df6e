"""Uniform 1D grids, weighted norms, and the discrete antiderivative.

Periodic grids omit the duplicate endpoint (dx = 2L/N) so trapezoid
quadrature and centered differences satisfy summation-by-parts exactly.
Compact-support grids include both endpoints (dx = 2L/(N-1)) with the
usual half-weight trapezoid ends.  A compact grid is a finite window of
the real line whose runs `march` stops (`check_escape`) before anything
reaches its ends, so its stencils never need a closure there: they step
it as a ring of its N nodes, as they step a periodic grid.  A grid
builds its nodes `x` and weights `qw` on first use; `nodes` and
`weights` give any block of them.

Every stencil is one engine: `ghost_pad` pads a field with wrap cells,
`correlate` applies a kernel to the pad with `np.correlate`, and `unpad`
trims a wider pad to the cells a stencil has left.  `d_dx` and
`fourth_difference` lift it to (N, k) fields one column at a time.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainEscape

BOUNDARY_TOL = 1e-10

_BCS = ("periodic", "compact_support")


@dataclass(frozen=True)
class Grid1D:
    """N nodes on [-L, L]: `bc` "periodic" leaves out x = L, and
    "compact_support" keeps it, with half-weight trapezoid ends.

    The stencils read both as a ring of their N nodes.  `bc` decides the
    nodes and dx, the quadrature's end weights (`gram`'s end columns too),
    whether `march` runs `check_escape` on the ends and which grids
    `check_ckn` takes; it forks no stepping code.
    """

    L: float
    N: int
    bc: str = "periodic"
    dx: float = field(init=False)

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError(f"L must be positive, got {self.L}")
        if self.N < 16:
            raise ValueError(f"N must be >= 16, got {self.N}")
        if self.bc not in _BCS:
            raise ValueError(f"bc must be one of {_BCS}, got {self.bc!r}")
        if self.periodic:
            dx = 2.0 * self.L / self.N
        else:
            x = self.nodes(0, 2)
            dx = x[1] - x[0]
        object.__setattr__(self, "dx", float(dx))

    def nodes(self, lo, hi):
        """Nodes lo..hi-1 of `x`, bitwise, without building `x`.

        Compact nodes repeat np.linspace(-L, L, N)'s arithmetic node by
        node: -L + i * (2L / (N - 1)), and L itself last.
        """
        if self.periodic:
            return -self.L + self.dx * np.arange(lo, hi)
        x = np.arange(lo, hi, dtype=float)
        x *= 2.0 * self.L / (self.N - 1)
        x -= self.L
        if hi == self.N:
            x[-1] = self.L
        return x

    def weights(self, lo, hi):
        """Trapezoid weights of nodes lo..hi-1: dx, halved at compact ends."""
        qw = np.full(hi - lo, self.dx)
        if not self.periodic:
            if lo == 0:
                qw[0] = self.dx / 2.0
            if hi == self.N:
                qw[-1] = self.dx / 2.0
        return qw

    @cached_property
    def x(self):
        """The nodes, built on first use: a run that reads its grid block by
        block (the CKN witness at N = 2^20 + 1) never builds them."""
        return self.nodes(0, self.N)

    @cached_property
    def qw(self):
        return self.weights(0, self.N)

    @property
    def periodic(self):
        return self.bc == "periodic"

    @cached_property
    def abs_x(self):
        """|x|, built on first use: most runs never read it, and N reaches 2^20."""
        return np.abs(self.x)

    @cached_property
    def i0(self):
        """Index of the node at x = 0 (the nearest one if none is)."""
        return int(np.argmin(self.abs_x))


# Centered stencil kernels, correlated as sum_j kernel[j] f[i + j - h]:
# the undivided first difference f[i+1] - f[i-1] and fourth difference.
CENTERED = np.array([-1.0, 0.0, 1.0])
FOURTH_DIFFERENCE = np.array([1.0, -4.0, 6.0, -4.0, 1.0])
GHOSTS = 2


def ghost_pad(f, g=GHOSTS):
    """f with g wrap cells per end of its last axis."""
    f = np.asarray(f, dtype=float)
    return np.concatenate((f[..., -g:], f, f[..., :g]), axis=-1)


def unpad(f, g):
    """f without g cells at each end of its last axis: the cells of a
    `ghost_pad` of f that a stage has not used up."""
    return f[..., g:f.shape[-1] - g]


def correlate(pad, kernel):
    """sum_j kernel[j] f[i + j - h], h = len(kernel) // 2, of the field padded
    by `ghost_pad`: GHOSTS cells shorter at each end than the pad."""
    h = len(kernel) // 2
    return np.correlate(pad[GHOSTS - h:len(pad) - GHOSTS + h], kernel)


def _columns(f, kernel):
    """correlate(ghost_pad(c), kernel) of the (N,) field f, or of each
    column c of an (N, k) one, filled into one output."""
    f = np.asarray(f, dtype=float)
    if f.ndim == 1:
        return correlate(ghost_pad(f), kernel)
    out = np.empty_like(f)
    for k in range(f.shape[1]):
        out[:, k] = correlate(ghost_pad(f[:, k]), kernel)
    return out


def d_dx(grid, f):
    """Second-order first derivative along axis 0 of (N,) or (N, k) arrays:
    (f[i+1] - f[i-1]) / (2 dx), wrapping at the grid's ends."""
    return _columns(f, CENTERED / (2.0 * grid.dx))


def fourth_difference(grid, f):
    """Undivided fourth difference, the stabilization stencil, wrapping at
    the grid's ends."""
    return _columns(f, FOURTH_DIFFERENCE)


@dataclass(frozen=True)
class WeightSpec:
    """Spatial weight: |x|^mu (power) or log^q(1 + |x|) (log)."""

    kind: str
    mu: float = 0.0
    q: float = 0.0

    def __post_init__(self):
        if self.kind == "power":
            if self.mu < 0:
                raise ValueError("power weight needs mu >= 0")
        elif self.kind == "log":
            if self.q <= 0:
                raise ValueError("log weight needs q > 0")
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


def l2_norm(grid, f, w2=None):
    """Weighted L2 norm by trapezoid: sqrt(sum qw * w2 * |f|^2)."""
    return math.sqrt(inner(grid, f, f, w2))


def inner(grid, f, g, w2=None):
    """L2 pairing, components summed first; w2 is a squared weight on grid.x."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    s = f * g if f.ndim == 1 else _component_sum(f, g)
    if w2 is not None:
        s = w2 * s
    return float(grid.qw @ s)


def gram(grid, rows, c=None):
    """Quadrature Gram matrix sum_x qw c rows_x rows_x^T of (m, N) rows, c = 1
    when None, else one (N,) weight.

    Built as (rows * (c qw)) @ rows.T, so that no m^2 x N product exists.
    Rows are taken C-ordered, as the product rounds by their memory order.
    Unweighted, rows * qw is taken as rows * dx with the compact end
    columns redone: the same bits in half the time of a vector product.
    """
    rows = np.ascontiguousarray(rows)
    if c is not None:
        return (rows * (c * grid.qw)) @ rows.T
    scaled = rows * grid.dx
    if not grid.periodic:
        ends = slice(None, None, grid.N - 1)
        scaled[:, ends] = rows[:, ends] * (grid.dx / 2.0)
    return scaled @ rows.T


def h1_norm(grid, f):
    a = l2_norm(grid, f)
    b = l2_norm(grid, d_dx(grid, f))
    return float(np.sqrt(a * a + b * b))


def antiderivative(grid, f, out=None):
    """Cumulative trapezoid primitive F of f along axis 0 from the left edge,
    F[0] = 0, written into `out` when it is given."""
    f = np.asarray(f, dtype=float)
    steps = f[1:] + f[:-1]
    steps *= 0.5
    steps *= grid.dx
    F = np.empty_like(f) if out is None else out
    F[0] = 0.0
    np.cumsum(steps, axis=0, out=F[1:])
    return F


def escape_tol(*fields):
    """Boundary-amplitude budget of a compact-support run started from `fields`."""
    return BOUNDARY_TOL * max(1.0, *(float(np.abs(f).max()) for f in fields))


def check_escape(t, tol, *fields):
    """Raise DomainEscape once an (N,) or (N, k) field of a compact-support
    run reaches the grid's ends; each field's two end rows are read as floats."""
    b = 0.0
    for f in fields:
        for row in f.reshape(len(f), -1)[::len(f) - 1].tolist():
            b = max(b, *map(abs, row))
    if b > tol:
        raise DomainEscape(f"boundary amplitude {b:.3e} at t={t:.4g} exceeds {tol:.1e}")
