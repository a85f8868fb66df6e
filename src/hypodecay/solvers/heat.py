"""Heat-equation oracle: Crank-Nicolson as one Fourier multiplier.

Serves as the reference diffusive decay machine: unconditionally stable
at dt = dx, second order, mass-conserving.  It steps either grid as the
ring of its N nodes, as every solver does, and `march`, given the field
map (u,), stops a compact run before anything reaches the ends.  On the
ring the discrete Laplacian is diagonal in the Fourier modes k, with
eigenvalues -(4/dx^2) s^2, s = sin(pi k / N).  So the explicit half
u + (dt/2) Lap u has eigenvalues 1 - 2 rho s^2 and the implicit operator
I - (dt/2) Lap has 1 + 2 rho s^2, rho = dt/dx^2, and each step multiplies
the real FFT of u by their ratio, which lies in [-1, 1].
"""

import numpy as np

from ..grids import d_dx, l2_norm
from .march import march, step_size


def heat_solve(grid, u0, T, sample_stride=1, weight=None, snapshot_times=()):
    """March the diffusion equation to T; record l2, dx_l2, mass channels."""
    u = np.array(u0, dtype=float)
    if u.shape != (grid.N,):
        raise ValueError("u0 must be a scalar field on the grid")
    N = grid.N
    nsteps, dt = step_size(T, grid.dx, N)
    a = 2.0 * dt / grid.dx**2 * np.sin(np.pi * np.arange(N // 2 + 1) / N) ** 2
    multiplier = (1.0 - a) / (1.0 + a)
    w2 = None if weight is None else weight.values(grid.x) ** 2

    def step(u):
        return np.fft.irfft(np.fft.rfft(u) * multiplier, n=N)

    def record(t, u):
        row = {
            "l2": l2_norm(grid, u),
            "dx_l2": l2_norm(grid, d_dx(grid, u)),
            "mass": float(grid.qw @ u),
        }
        if weight is not None:
            row["weighted_l2"] = l2_norm(grid, u, w2)
        return row

    return march(grid, u, nsteps, dt, step, record, lambda u: (u,), sample_stride,
                 snapshot_times, {"scheme": "crank-nicolson"})
