"""Time integration of the linear partially dissipative system.

The scheme: the damping block acts stiffly for large kappa, so it is
split off and applied exactly: half-step matrix exponential, RK4 on the
advection (centered differences), half-step exponential again — second
order overall, with no time-step restriction from the damping strength.
`reference_step` writes it out on an (N, n) state with the undamped
components first; its right-hand side is d_dx(U) @ -A^T.

That step is one linear, translation-invariant map on the ring of the
grid's N nodes, compact grids included, so `compile_step` reads it once
per (sim, dt) off the reference step's impulse responses: an n x n block
of (2b+1)-tap kernels, b = REACH.  A is symmetric, so the
advection is diagonal in A's eigenbasis and only the damping couples the
components: the kernel factors as H P diag(r) P^-1 H, H = exp(-B dt/2)
and r[i] the scalar RK4 kernel of the characteristic speed w[i], read
off `rk4` on `d_dx`.  No coefficient is derived by hand.  The scheme has no
fourth-difference floor: it would damp u1 too, which decays only through
its coupling to the damped components.  `simulate_linear` carries the
state as C-contiguous (n, N) rows and steps it with two n x n mixes and
n `np.correlate` calls after one ghost pad.  Its `record` reads U as the
free `.T` view and fills one preallocated stack of rows [U; d_x U; W],
W (the antiderivative of U1) only under a wave monitor.  Every quadratic
channel, the Lyapunov functional and the wave pair included, is a
contraction of that stack's one quadrature Gram, read as Python floats,
plus one weighted Gram per wave weight that is not a constant
(`waves.power_wave_record`).
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ..corrector import cross_matrix, lyapunov_value
from ..errors import CflViolation
from ..grids import Grid1D, antiderivative, check_escape, d_dx, escape_tol, gram, l2_norm
from ..linalg import jacobi_eigensystem, expm_sym
from .march import CFL, march, rk4, step_size
from .waves import check_zero_mass

# Cells one step reads on each side: four RK4 stages of a one-cell
# difference.  A kernel then has 2 REACH + 1 = 9 taps, within the 11 that
# numpy's `correlate` runs on its fast path.
REACH = 4


@dataclass(frozen=True)
class LinearSim:
    spec: object
    grid: object
    dt: float = field(init=False)
    advection: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # Validation lets A miss symmetry by SYM_TOL, and `eigh` reads one
        # triangle: the step advects with the symmetric part, so it and its
        # characteristic factors see one exactly symmetric matrix.  Halved
        # first, the sum cannot overflow, and a symmetric A with no entry
        # below 4.5e-308 is its own symmetric part bit for bit.
        A = 0.5 * self.spec.A + 0.5 * self.spec.A.T
        w, _ = jacobi_eigensystem(A)
        rho = float(np.abs(w).max())
        speed = rho if rho > 0.0 else 1.0
        object.__setattr__(self, "dt", CFL * self.grid.dx / speed)
        object.__setattr__(self, "advection", np.ascontiguousarray(-A))


def damping_half_step(spec, dt):
    """Exact propagator exp(-B dt/2) of the relaxation block, transposed.

    The half-step of a stacked state U is U @ damping_half_step(spec, dt).
    """
    return np.ascontiguousarray(expm_sym(-0.5 * dt * spec.B).T)


def advection_rhs(sim, U):
    return d_dx(sim.grid, U) @ sim.advection


def reference_step(U, sim, dt, half):
    """The Strang-split step as the scheme defines it, on an (N, n) state:
    exact damping, RK4 advection, exact damping; half = damping_half_step."""
    return rk4(lambda V: (advection_rhs(sim, V[0]),), (U @ half,), dt)[0] @ half


def _responses(sim, dt, half, j, period):
    """The reference step of unit impulses in component j at rows 0, period, ..."""
    U = np.zeros((sim.grid.N, sim.spec.n))
    U[::period, j] = 1.0
    return reference_step(U, sim, dt, half)


def _reads(grid, period, b):
    """(k, hit) per row i for impulses at rows m = 0 (mod period).

    Row i reads rows i - b..i + b of the ring, and grid.N is a multiple of
    the period.  hit[i] says whether an impulse lies in that window, k[i] =
    m - i for the one that does: the period exceeds the window.
    """
    k = (period // 2 - np.arange(grid.N)) % period - period // 2
    return k, np.abs(k) <= b


def _check_band(R, hit, where):
    if R[~hit].any():
        raise AssertionError(f"{where}: a response outside the band is not 0")


def _check_kernel(R, kernel, where):
    if not np.array_equal(R, kernel):
        raise AssertionError(f"{where}: a row differs from the kernel")


def _kernel_grid(sim, b):
    """The periodic grid the kernels are read on: two periods, impulses at
    rows 0 and `period`.  The period is a power of two, so the grid's
    dx = 2 (period dx) / (2 period) is the run's exactly, and it exceeds
    2b + 1, so some rows lie outside both bands."""
    period = 1 << (2 * b + 1).bit_length()
    small = Grid1D(L=period * sim.grid.dx, N=2 * period)
    if small.dx != sim.grid.dx:
        raise AssertionError(f"kernel grid dx {small.dx!r} != run dx {sim.grid.dx!r}")
    return small


def _taps(small, R, b, where):
    """(..., 2b+1) taps of each column of R, the response to impulses at
    rows 0 and `period` of `_kernel_grid`: tap b + k is what row i + k adds
    to row i.  Both impulses must give the same taps."""
    k, hit = _reads(small, small.N // 2, b)
    _check_band(R, hit, where)
    taps = np.zeros(R.shape[1:] + (2 * b + 1,))
    taps[..., b + k[hit]] = R[hit].T
    _check_kernel(R[hit], taps[..., b + k[hit]].T, where)
    return taps


def _kernels(small, sim, dt, half, b):
    """(n, n, 2b+1) taps: K[c, j, b + k] is what row i + k of component j
    adds to row i of component c, read off the reference step."""
    small_sim = replace(sim, grid=small)
    K = np.zeros((sim.spec.n, sim.spec.n, 2 * b + 1))
    for j in range(sim.spec.n):
        K[:, j] = _taps(small, _responses(small_sim, dt, half, j, small.N // 2), b,
                        "kernel")
    return K


def _speed_kernels(small, dt, w, b):
    """(n, 2b+1) taps: r[i] is the RK4 step of u_t = -w[i] u_x, the
    transport along the characteristic of speed w[i], read off `rk4` on
    `d_dx` as `_kernels` reads K."""
    e = np.zeros(small.N)
    e[::small.N // 2] = 1.0
    return np.array([_taps(small, rk4(lambda y: (-s * d_dx(small, y[0]),), (e,), dt)[0],
                           b, "speed kernel") for s in w])


def _check_factors(M1, r, M2, K):
    """M1 diag(r) M2 must be the kernel K tap by tap, to n 5e-16 max|K|.

    Both sides sum n products per tap (the mixes and the RK4 stages), so
    their rounding grows with n: random systems measured at most 3.4e-16
    max|K| at n = 2, 5.8e-16 at n = 5..8 and 6.7e-16 at n = 32.
    """
    err = np.abs(M1 @ (r.T[:, :, None] * M2) - np.moveaxis(K, -1, 0)).max()
    if not err <= len(M1) * 5e-16 * np.abs(K).max():
        raise AssertionError(f"factorization: M1 diag(r) M2 misses the kernel by {err:.3e}")


def compile_step(sim, dt):
    """The reference step of size dt as a map of C-contiguous (n, N) rows.

    With A = P diag(w) P^T, the symmetric A of `LinearSim.advection`, and
    H = exp(-B dt/2), the step's kernel is
    K = M1 diag(r) M2, M1 = H P and M2 = P^-1 H: RK4 transports each
    characteristic variable on its own, with the scalar kernel r[i] of
    speed w[i].  A step mixes V into Z = M2 V, pads Z once with wrap cells,
    makes n `np.correlate` calls and mixes back with M1, on either grid.
    P^-1 is P^T after one Newton step, P^T (2I - P P^T): P P^T misses I by
    an ulp, which the mass mode would compound step by step, and no run
    then maps LAPACK's LU code.

    Every kernel is an impulse response of `reference_step` or of `rk4` on
    `d_dx`; building them asserts that each response outside the band is
    exactly 0, each row inside it equals the kernel bit for bit, and
    M1 diag(r) M2 is K to n 5e-16 max|K|.  Raises CflViolation when dt
    exceeds the advective limit.
    """
    if dt > sim.dt * (1.0 + 1e-12):
        raise CflViolation(f"dt {dt:.3e} exceeds the advective limit {sim.dt:.3e}")
    half = damping_half_step(sim.spec, dt)
    b, n, N = REACH, sim.spec.n, sim.grid.N
    small = _kernel_grid(sim, b)
    K = _kernels(small, sim, dt, half, b)
    w, P = jacobi_eigensystem(-sim.advection)
    r = _speed_kernels(small, dt, w, b)
    M1, M2 = half.T @ P, P.T @ (2.0 * np.eye(n) - P @ P.T) @ half.T
    _check_factors(M1, r, M2, K)

    def step(V):
        # Z = M2 V with b wrap cells per end: row i then holds its
        # correlation with r[i] in its first N cells.
        pad = np.empty((n, N + 2 * b))
        np.matmul(M2, V, out=pad[:, b:N + b])
        pad[:, :b] = pad[:, N:N + b]
        pad[:, N + b:] = pad[:, b:2 * b]
        for i in range(n):
            pad[i, :N] = np.correlate(pad[i], r[i])
        return M1 @ pad[:, :N]

    return step


def _trace(G, lo, hi):
    """G[lo][lo] + ... + G[hi-1][hi-1] of nested lists, added left to right."""
    s = G[lo][lo]
    for i in range(lo + 1, hi):
        s += G[i][i]
    return s


def simulate_linear(sim, U0, T, sample_stride=1, coeffs=None, weight=None,
                    wave=None, snapshot_times=()):
    """Run to time T, recording norm channels every sample_stride steps.

    Optional observers: `coeffs` adds the modified-energy channel,
    `weight` a spatially weighted norm, `wave` the antiderivative
    wave-energy monitor (requires zero-mean undamped data).  Returns the
    recorded series and a dict of state snapshots keyed by time.
    """
    spec, grid = sim.spec, sim.grid
    U = np.asarray(U0, dtype=float)
    if U.shape != (grid.N, spec.n):
        raise ValueError(f"U0 must have shape ({grid.N}, {spec.n}), got {U.shape}")
    nsteps, dt = step_size(T, sim.dt, grid.N)
    step = compile_step(sim, dt)
    if wave is not None:
        check_zero_mass(grid, U[:, : spec.n1])
    tol = escape_tol(U)
    n, n1 = spec.n, spec.n1
    w2 = None if weight is None else weight.values(grid.x) ** 2
    C = None if coeffs is None else cross_matrix(spec, coeffs.eps).tolist()
    D = spec.D.tolist()
    # [U; d_x U; W] in C order (BLAS' fast path for gram); W only with a monitor
    R = np.empty((2 * n + (0 if wave is None else n1), grid.N))

    def record(t, V):
        U = V.T
        R[:n] = V
        for c in range(n):
            R[n + c] = d_dx(grid, V[c])
        for a in range(len(R) - 2 * n):
            antiderivative(grid, V[a], out=R[2 * n + a])
        G = gram(grid, R).tolist()
        diss = 0.0
        for i, Di in enumerate(D):
            for j, d in enumerate(Di):
                diss += d * G[n1 + i][n1 + j]
        row = {
            "l2": math.sqrt(_trace(G, 0, n)),
            "u1_l2": math.sqrt(_trace(G, 0, n1)),
            "u2_l2": math.sqrt(_trace(G, n1, n)),
            "dx_l2": math.sqrt(_trace(G, n, 2 * n)),
            "dissipation": 2.0 * diss,
        }
        if coeffs is not None:
            row["lyapunov"] = lyapunov_value(C, coeffs.eta0, G, t)
        if weight is not None:
            row["weighted_l2"] = l2_norm(grid, U, w2)
        if wave is not None:
            row["wave_energy"], row["wave_dissipation"] = wave.record(grid, t, R, G)
        check_escape(grid, t, tol, U)
        return row

    return march(np.ascontiguousarray(U.T), nsteps, dt, step, record, sample_stride,
                 snapshot_times, lambda V: V.T.copy(), {"scheme": "strang-exp/rk4-centered"})
