"""Time integration of the linear partially dissipative system.

The scheme: the damping block acts stiffly for large kappa, so it is
split off and applied exactly: half-step matrix exponential, RK4 on the
advection (centered differences), half-step exponential again — second
order overall, with no time-step restriction from the damping strength.
`reference_step` writes it out on an (N, n) state with the undamped
components first; its right-hand side is d_dx(U) @ -A^T.

That step is one linear, translation-invariant map on the ring of the
grid's N nodes, compact grids included.  A is symmetric, so the advection
is diagonal in A's eigenbasis and only the damping couples the
components: `compile_step` builds the step once per (sim, dt) as
H P diag(r) P^-1 H, H = exp(-B dt/2) and r[i] the (2b+1)-tap RK4 kernel
of the characteristic speed w[i], b = REACH, read off `rk4` on `d_dx`.
No coefficient is derived by hand, and the build checks the step against
`reference_step`.  The scheme has no fourth-difference floor: it would
damp u1 too, which decays only through its coupling to the damped
components.  `simulate_linear` carries the state as C-contiguous (n, N)
rows and steps it with two n x n mixes and n `np.correlate` calls after
one ghost pad.  Its `record` and its `march` field map read U as the
free `.T` view; the record fills one preallocated stack of rows
[U; d_x U; W], W (the antiderivative of U1) only under a wave monitor.
Every quadratic channel, the Lyapunov functional and the wave pair
included, is a contraction of that stack's one quadrature Gram, read as
Python floats, plus one weighted Gram per wave weight that is not a
constant (`waves.power_wave_record`).
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ..corrector import cross_matrix, lyapunov_value
from ..errors import CflViolation
from ..grids import Grid1D, antiderivative, d_dx, gram, l2_norm
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
    advection: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # Validation lets A miss symmetry by SYM_TOL, and `eigh` reads one
        # triangle: the step advects with the symmetric part, so it and its
        # characteristic factors see one exactly symmetric matrix.  Halved
        # first, the sum cannot overflow, and a symmetric A with no entry
        # below 4.5e-308 is its own symmetric part bit for bit.
        A = 0.5 * self.spec.A + 0.5 * self.spec.A.T
        object.__setattr__(self, "advection", np.ascontiguousarray(-A))

    @cached_property
    def characteristics(self):
        """(w, P), A = P diag(w) P^T: the one eigensolve `dt` and `compile_step` share."""
        return jacobi_eigensystem(-self.advection)

    @cached_property
    def dt(self):
        rho = float(np.abs(self.characteristics[0]).max())
        return CFL * self.grid.dx / (rho if rho > 0.0 else 1.0)


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


def _kernel_grid(sim, b):
    """The periodic grid the step is checked on: two periods of a power of
    two above 2b + 1, so its dx = 2 (period dx) / (2 period) is the run's
    exactly and responses to impulses at rows 0 and `period` do not meet."""
    period = 1 << (2 * b + 1).bit_length()
    small = Grid1D(L=period * sim.grid.dx, N=2 * period)
    if small.dx != sim.grid.dx:
        raise AssertionError(f"kernel grid dx {small.dx!r} != run dx {sim.grid.dx!r}")
    return small


def _speed_kernels(small, dt, w, b):
    """(n, 2b+1) taps: r[i] is the RK4 step of u_t = -w[i] u_x along the
    characteristic of speed w[i].  Tap b + k is what row i + k adds to row
    i, so r[i] is rows 2b..0 of the `rk4` response to an impulse at row b."""
    e = np.zeros(small.N)
    e[b] = 1.0
    return np.array([rk4(lambda y: (-s * d_dx(small, y[0]),), (e,), dt)[0][2 * b::-1]
                     for s in w])


def _factored_step(M1, r, M2, N):
    """V -> M1 (M2 V correlated row by row with r) on (n, N) rows of a ring."""
    n, b = len(r), len(r[0]) // 2

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


def _check_step(sim, dt, half, step):
    """`step` on the kernel grid `sim.grid` must be the reference step.

    Per component, the reference response to impulses at rows 0 and N/2
    must be its own roll by N/2 bit for bit, and `step` must miss it by at
    most n 5e-16 of the largest response of any component (both sides sum
    n products per entry; a strongly damped component's own maximum can
    be 1e-31, or 0).
    """
    N, n = sim.grid.N, sim.spec.n
    err = top = 0.0
    for j in range(n):
        U = np.zeros((N, n))
        U[::N // 2, j] = 1.0
        R = reference_step(U, sim, dt, half)
        if not np.array_equal(R, np.roll(R, N // 2, axis=0)):
            raise AssertionError("reference step: a response depends on the impulse's row")
        err = max(err, np.abs(step(np.ascontiguousarray(U.T)).T - R).max())
        top = max(top, np.abs(R).max())
    if not err <= n * 5e-16 * top:
        raise AssertionError(f"factored step misses the reference step by {err:.3e}")


def compile_step(sim, dt):
    """The reference step of size dt as a map of C-contiguous (n, N) rows.

    With A = P diag(w) P^T, `sim.characteristics` of the symmetric
    A = -`sim.advection`, and H = exp(-B dt/2), the step is M1 diag(r) M2,
    M1 = H P and M2 = P^-1 H: RK4 transports each characteristic variable
    on its own, with the scalar kernel r[i] of speed w[i].  A step mixes V
    into Z = M2 V, pads Z once with wrap cells, makes n `np.correlate` calls
    and mixes back with M1, on either grid.  P^-1 is P^T after one Newton step,
    P^T (2I - P P^T): P P^T misses I by an ulp, which the mass mode would
    compound step by step, and no run then maps LAPACK's LU code.

    The build runs the factored step on `_kernel_grid` and asserts there
    (`_check_step`) that it is `reference_step` to n 5e-16 of the largest
    response, and that the reference step is translation invariant bit
    for bit.  Raises CflViolation when dt exceeds the advective limit.
    """
    if dt > sim.dt * (1.0 + 1e-12):
        raise CflViolation(f"dt {dt:.3e} exceeds the advective limit {sim.dt:.3e}")
    half = damping_half_step(sim.spec, dt)
    n, small = sim.spec.n, _kernel_grid(sim, REACH)
    w, P = sim.characteristics
    r = _speed_kernels(small, dt, w, REACH)
    M1, M2 = half.T @ P, P.T @ (2.0 * np.eye(n) - P @ P.T) @ half.T
    _check_step(replace(sim, grid=small), dt, half, _factored_step(M1, r, M2, small.N))
    return _factored_step(M1, r, M2, sim.grid.N)


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
    recorded series and a dict of (N, n) state snapshots keyed by time.
    """
    spec, grid = sim.spec, sim.grid
    U = np.asarray(U0, dtype=float)
    if U.shape != (grid.N, spec.n):
        raise ValueError(f"U0 must have shape ({grid.N}, {spec.n}), got {U.shape}")
    nsteps, dt = step_size(T, sim.dt, grid.N)
    step = compile_step(sim, dt)
    if wave is not None:
        check_zero_mass(grid, U[:, : spec.n1])
    n, n1 = spec.n, spec.n1
    w2 = None if weight is None else weight.values(grid.x) ** 2
    C = None if coeffs is None else cross_matrix(spec, coeffs.eps).tolist()
    D = spec.D.tolist()
    # [U; d_x U; W] in C order (BLAS' fast path for gram); W only with a monitor
    R = np.empty((2 * n + (0 if wave is None else n1), grid.N))

    def record(t, V):
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
            row["weighted_l2"] = l2_norm(grid, V.T, w2)
        if wave is not None:
            row["wave_energy"], row["wave_dissipation"] = wave.record(grid, t, R, G)
        return row

    return march(grid, np.ascontiguousarray(U.T), nsteps, dt, step, record,
                 lambda V: (V.T,), sample_stride, snapshot_times,
                 {"scheme": "strang-exp/rk4-centered"})
