"""Post-processing: decay fits, boundedness records, identity residuals.

Every routine here consumes an immutable :class:`TimeSeries` produced by
a solver run (or built synthetically in tests) and returns plain records
of what it measured.  None decides whether a claim holds: the runner's
executors pair these records with their claims' bounds, and
`runner.run_certificates` alone decides.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    HypothesisFails,
    HypothesisViolated,
    MissingChannel,
    MuOutOfRange,
    NonpositiveValues,
    WindowTooSmall,
)
from .grids import CENTERED, derivative

MIN_FIT_SAMPLES = 20
BOUNDED_T0 = 10.0
# Nodes per block of `check_ckn`: 32 KiB per float array, below glibc's
# default 128 KiB mmap threshold, so a block's temporaries come from and
# go back to the heap's free chunks.
CKN_BLOCK = 1 << 12


@dataclass(frozen=True)
class TimeSeries:
    """Sampled channels over strictly increasing times."""

    t: np.ndarray
    channels: dict
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        object.__setattr__(self, "t", t)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("need at least two samples")
        if not np.all(np.diff(t) > 0):
            raise ValueError("sample times must be strictly increasing")
        chans = {}
        for name, v in self.channels.items():
            chans[name] = v = np.asarray(v, dtype=float)
            if v.shape != t.shape:
                raise ValueError(f"channel {name!r} length mismatch")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"channel {name!r} contains non-finite values")
        object.__setattr__(self, "channels", chans)
        if not np.all(np.isfinite(t)):
            raise ValueError("non-finite sample times")

    def channel(self, name):
        try:
            return self.channels[name]
        except KeyError:
            raise MissingChannel(
                f"channel {name!r} not recorded; have {sorted(self.channels)}"
            ) from None


@dataclass(frozen=True)
class DecayFit:
    alpha: float
    logC: float
    r2: float
    n_samples: int


def fit_power(series, channel, t_min, t_max):
    """Least-squares slope of log(value) against log(1 + t) on a window."""
    t = series.t
    v = series.channel(channel)
    mask = (t >= t_min) & (t <= t_max)
    if int(mask.sum()) < MIN_FIT_SAMPLES:
        raise WindowTooSmall(
            f"window [{t_min}, {t_max}] holds {int(mask.sum())} samples; "
            f"need {MIN_FIT_SAMPLES}"
        )
    tv, vv = t[mask], v[mask]
    if np.any(vv <= 0):
        raise NonpositiveValues(f"channel {channel!r} nonpositive inside window")
    X = np.log1p(tv)
    Y = np.log(vv)
    A = np.column_stack([X, np.ones_like(X)])
    coef, _, _, _ = np.linalg.lstsq(A, Y, rcond=None)
    alpha, logC = float(coef[0]), float(coef[1])
    resid = Y - A @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(((Y - Y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(
        alpha=alpha,
        logC=logC,
        r2=r2,
        n_samples=int(mask.sum()),
    )


def bounded_product(series, channel, q, t0=BOUNDED_T0):
    """Boundedness record for log^q(1+t) * channel on t >= t0.

    The ratio of the max of the weighted product over the last quarter of
    the observation window to its max over the first quarter past t0; a
    bounded (or decaying) product keeps it near or below 1.  With q = 0
    this is a plain sup/ratio monitor.
    """
    t = series.t
    v = series.channel(channel)
    T = t[-1]
    if T <= t0:
        raise WindowTooSmall(f"series ends at t={T}, needs samples past t0={t0}")
    g = np.log1p(t) ** q * v
    span = T - t0
    early = (t >= t0) & (t <= t0 + span / 4.0)
    late = t >= T - span / 4.0
    if not early.any() or not late.any():
        raise WindowTooSmall("quarter windows past t0 are empty")
    sup = float(g[t >= t0].max())
    ratio = float(g[late].max() / g[early].max())
    return {"sup": sup, "ratio_late_early": ratio, "t0": t0}


def check_energy_law(series, norm_channel="l2", dissipation_channel="dissipation"):
    """Residual of d/dt ||.||^2 + dissipation = 0 on the sample grid.

    The norm channel is squared before central differencing; the recorded
    dissipation channel is taken as-is.  Sampling must be fine enough to
    differentiate: max sample gap <= 10 * dt_step when the step size is
    recorded in the series metadata, else HypothesisViolated.
    """
    t = series.t
    if t.size < 3:
        raise WindowTooSmall(f"the energy law needs 3 samples, got {t.size}")
    E = series.channel(norm_channel) ** 2
    D = series.channel(dissipation_channel)
    dt_step = series.meta.get("dt_step")
    max_gap = float(np.diff(t).max())
    if dt_step is not None and max_gap > 10.0 * dt_step * (1.0 + 1e-9):
        raise HypothesisViolated(
            f"sample gap {max_gap:.3e} exceeds 10 * dt_step = {10.0 * dt_step:.3e}"
        )
    dE = (E[2:] - E[:-2]) / (t[2:] - t[:-2])
    resid = dE + D[1:-1]
    weights = 0.5 * (t[2:] - t[:-2])
    return {
        "max_residual": float(np.abs(resid).max()),
        "l1_residual": float(np.abs(resid) @ weights),
        "n_interior": int(resid.size),
    }


def _ckn_weight(ax, expo):
    """|x|^expo, with 0 at a node x = 0 when expo < 0 (improper-integral convention)."""
    if expo >= 0.0:
        return ax**expo
    wl = np.zeros_like(ax)
    nz = ax > 0
    wl[nz] = ax[nz] ** expo
    return wl


def _quadrature(qw, v):
    """sum(qw * v) by numpy's own reduction, not a BLAS dot, whose order
    follows the thread count; `v` is overwritten."""
    v *= qw
    return float(v.sum())


def check_ckn(grid, h, mu):
    """Weighted interpolation inequality check for a compactly supported field.

    lhs = || |x|^{mu-1} h ||, rhs = (2/(2 mu - 1)) || |x|^mu h' ||; the
    inequality lhs <= rhs holds for mu > 1/2 with that sharp constant
    (verified against the closed-form Gaussian moments in the tests).
    A node exactly at x = 0 contributes zero to the lhs when the weight
    exponent is negative (improper-integral convention, conservative).

    h maps an array of nodes of a compact-support grid to the field
    there.  Both quadratures are summed over blocks of CKN_BLOCK nodes.
    Each block is read with one halo node per side for the centred
    derivative, and a block at a grid end reads at least three nodes
    there for the one-sided row, so h is never evaluated on more than
    CKN_BLOCK + 2 nodes at once.
    """
    if mu <= 0.5:
        raise MuOutOfRange(f"need mu > 1/2, got {mu}")
    if grid.periodic:
        raise ValueError("check_ckn needs a compact-support grid")
    N = grid.N
    expo = 2.0 * (mu - 1.0)
    kernel = CENTERED / (2.0 * grid.dx)
    lhs2 = rhs2 = 0.0
    for lo in range(0, N, CKN_BLOCK):
        hi = min(lo + CKN_BLOCK, N)
        a, b = max(min(lo - 1, N - 3), 0), min(max(hi + 1, 3), N)
        x = grid.nodes(a, b)
        f = h(x)
        # the window's end rows are halo rows unless they are the grid's ends
        dh = derivative(grid, f, kernel)[lo - a:hi - a]
        f, ax = f[lo - a:hi - a], np.abs(x[lo - a:hi - a])
        qw = grid.weights(lo, hi)
        lhs2 += _quadrature(qw, _ckn_weight(ax, expo) * f * f)
        rhs2 += _quadrature(qw, ax ** (2.0 * mu) * dh * dh)
    lhs = math.sqrt(lhs2)
    rhs = 2.0 / (2.0 * mu - 1.0) * math.sqrt(rhs2)
    ratio = 0.0 if rhs == 0.0 else lhs / rhs
    return {"lhs": lhs, "rhs": rhs, "ratio": float(ratio)}


def check_decay_inequality(series, e1_channel, e2_channel, a1, a2, mu, eta0,
                           slack_rel=1e-6):
    """The comparison lemma on E1 + eta0 t E2: its hypothesis and conclusion.

    Hypothesis: d/dt(E1 + eta0 t E2) + a1 E1^{1 + 1/mu} + a2 E2 <= 0,
    checked by central differences with tolerance slack_rel times the
    initial value of E1; a larger residual raises HypothesisFails.
    conclusion_margin = max (E1 + eta0 t E2) / (C a1^{-mu} t^{-mu}) with
    the proof constant C = mu^mu (exponent choice p = mu + 1, which
    requires p < a2/eta0).  Parameters or channels outside these
    conditions raise HypothesisViolated.
    """
    if mu <= 0:
        raise HypothesisViolated("mu must be positive")
    if not 0.0 < eta0 < min(a2 / mu, a2):
        raise HypothesisViolated("need 0 < eta0 < min(a2/mu, a2)")
    p = mu + 1.0
    if not p < a2 / eta0:
        raise HypothesisViolated(
            f"conclusion constant needs p = mu+1 = {p} < a2/eta0 = {a2 / eta0}"
        )
    t = series.t
    E1 = series.channel(e1_channel)
    E2 = series.channel(e2_channel)
    if np.any(E1 < 0) or np.any(E2 < 0):
        raise HypothesisViolated("E1, E2 must be nonnegative")
    scale = float(E1[0]) if E1[0] > 0 else float(np.abs(E1).max())
    tol = slack_rel * scale
    F = E1 + eta0 * t * E2
    dF = (F[2:] - F[:-2]) / (t[2:] - t[:-2])
    resid = dF + a1 * E1[1:-1] ** (1.0 + 1.0 / mu) + a2 * E2[1:-1]
    slack = float(np.maximum(resid, 0.0).max())
    if slack > tol:
        first = int(np.argmax(resid > tol))
        raise HypothesisFails(
            f"hypothesis residual {slack:.3e} exceeds tolerance {tol:.3e}",
            time=float(t[1:-1][first]),
        )
    C = mu**mu
    pos = t > 0
    bound = C * a1 ** (-mu) * t[pos] ** (-mu)
    margin = float((F[pos] / bound).max())
    return {
        "slack": slack,
        "slack_tol": tol,
        "conclusion_margin": margin,
        "C": float(C),
        "p": p,
    }


def check_monotone(series, channel, tol_rel=1e-8):
    """Largest increase v(t_{j+1}) - v(t_j), and the allowance tol_rel * |v(t_0)|."""
    v = series.channel(channel)
    scale = float(np.abs(v[0]))
    inc = np.diff(v)  # a series holds at least two samples
    j = int(np.argmax(inc))
    worst = float(inc[j])
    return {
        "max_increase": worst,
        "max_increase_rel": worst / scale if scale > 0 else worst,
        "allowed": tol_rel * scale,
        "t_worst": float(series.t[j + 1]),
    }


def certify_weighted_bound(series, channel, bound):
    """Sup over time of a channel, where it is reached, and the bound it is held to."""
    v = series.channel(channel)
    i = int(np.argmax(v))
    return {"sup": float(v[i]), "t_sup": float(series.t[i]), "bound": float(bound)}
