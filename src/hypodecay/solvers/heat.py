"""Heat-equation oracle: Crank-Nicolson with a tridiagonal solve.

Serves as the reference diffusive decay machine: unconditionally stable
at dt = dx, second order, mass-conserving on periodic grids.  The
periodic corner entries are folded in with the Sherman-Morrison rank-one
update so the banded factorization stays tridiagonal.
"""

import numpy as np
from scipy.linalg import solve_banded

from ..grids import d_dx, l2_norm, second_difference
from .march import march, step_size


def heat_solve(grid, u0, T, dt=None, sample_stride=1, weight=None,
               snapshot_times=()):
    """March the diffusion equation to T; record l2, dx_l2, mass channels.

    Non-periodic grids carry homogeneous boundary values (the data is
    compactly supported well inside the domain).
    """
    if T <= 0.0:
        raise ValueError("T must be positive")
    u = np.array(u0, dtype=float)
    if u.shape != (grid.N,):
        raise ValueError("u0 must be a scalar field on the grid")
    dx = grid.dx
    dt_limit = dx if dt is None else dt
    _, dt = step_size(T, dt_limit)
    rcoef = 0.5 * dt / dx**2
    N = grid.N

    # implicit matrix (I - dt/2 Lap) in banded storage
    ab = np.zeros((3, N))
    ab[0, 1:] = -rcoef
    ab[1, :] = 1.0 + 2.0 * rcoef
    ab[2, :-1] = -rcoef
    z = None
    v = None
    if grid.periodic:
        # corners (0, N-1) and (N-1, 0) hold -rcoef; peel them off as
        # outer(uvec, v) and fold back with one extra presolved column.
        gamma = -(1.0 + 2.0 * rcoef)
        ab[1, 0] -= gamma
        ab[1, -1] -= rcoef * rcoef / gamma
        uvec = np.zeros(N)
        uvec[0] = gamma
        uvec[-1] = -rcoef
        v = np.zeros(N)
        v[0] = 1.0
        v[-1] = -rcoef / gamma
        z = solve_banded((1, 1), ab, uvec)
    else:
        ab[1, 0] = 1.0
        ab[0, 1] = 0.0
        ab[1, -1] = 1.0
        ab[2, -2] = 0.0

    def step(u, dt):
        b = u + 0.5 * dt * (second_difference(grid, u) / dx**2)
        if grid.periodic:
            y = solve_banded((1, 1), ab, b)
            return y - z * (v @ y) / (1.0 + v @ z)
        b[0] = 0.0
        b[-1] = 0.0
        return solve_banded((1, 1), ab, b)

    def record(t, u):
        row = {
            "l2": l2_norm(grid, u),
            "dx_l2": l2_norm(grid, d_dx(grid, u)),
            "mass": float(grid.qw @ u),
        }
        if weight is not None:
            row["weighted_l2"] = l2_norm(grid, u, weight=weight)
        return row

    return march(u, T, dt_limit, step, record, sample_stride, snapshot_times,
                 np.copy, {"scheme": "crank-nicolson"})
