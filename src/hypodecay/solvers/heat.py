"""Heat-equation oracle: Crank-Nicolson with a spectral implicit solve.

Serves as the reference diffusive decay machine: unconditionally stable
at dt = dx, second order, mass-conserving on periodic grids.  The
explicit half u + (dt/2) Lap u is one `correlate` of the ghost-padded
field with the kernel (dt / (2 dx^2)) [1, -2, 1], built once per run.
It wraps on either grid, and compact grids overwrite its end rows with
0.  The implicit operator I - (dt/2) Lap is diagonal in the discrete
Fourier modes of the grid, with eigenvalues 1 + 2 (dt/dx^2)
sin^2(pi k / M), so each step divides the real FFT of its right-hand
side by them.  Periodic
grids transform the right-hand side itself (M = N).  Compact grids pin
both end values to zero and transform the odd extension of length
M = 2 (N - 1), which is the sine transform of the interior.
"""

import numpy as np

from ..grids import correlate, d_dx, ghost_pad, l2_norm
from .march import march, step_size


def heat_solve(grid, u0, T, sample_stride=1, weight=None, snapshot_times=()):
    """March the diffusion equation to T; record l2, dx_l2, mass channels.

    Non-periodic grids carry homogeneous boundary values (the data is
    compactly supported well inside the domain).
    """
    u = np.array(u0, dtype=float)
    if u.shape != (grid.N,):
        raise ValueError("u0 must be a scalar field on the grid")
    dx = grid.dx
    nsteps, dt = step_size(T, dx, grid.N)
    N = grid.N
    M = N if grid.periodic else 2 * (N - 1)
    lam = 1.0 + 2.0 * dt / dx**2 * np.sin(np.pi * np.arange(M // 2 + 1) / M) ** 2
    explicit = (0.5 * dt / dx**2) * np.array([1.0, -2.0, 1.0])
    w2 = None if weight is None else weight.values(grid.x) ** 2

    def step(u):
        b = u + correlate(ghost_pad(u), explicit)
        if grid.periodic:
            return np.fft.irfft(np.fft.rfft(b) / lam, n=M)
        b[0] = 0.0
        b[-1] = 0.0
        u = np.fft.irfft(np.fft.rfft(np.concatenate((b, -b[-2:0:-1]))) / lam, n=M)[:N]
        u[0] = 0.0
        u[-1] = 0.0
        return u

    def record(t, u):
        row = {
            "l2": l2_norm(grid, u),
            "dx_l2": l2_norm(grid, d_dx(grid, u)),
            "mass": float(grid.qw @ u),
        }
        if weight is not None:
            row["weighted_l2"] = l2_norm(grid, u, w2)
        return row

    return march(u, nsteps, dt, step, record, sample_stride, snapshot_times,
                 np.copy, {"scheme": "crank-nicolson"})
