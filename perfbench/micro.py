"""Kernel microbenchmarks: ns per grid point for the stepping kernels.

Each kernel runs on a float64 array of N points, N in {4096, 8192}.
The arrays (32-128 KiB) fit in the 4 MiB L2 of the reference machine,
so no bandwidth or roofline ratio is reported. Bytes moved per point
are computed, not measured: every numpy pass over the grid counts one
8-byte read per input element and one 8-byte write per output element,
and cache hits are ignored.
"""

import statistics
import time

import numpy as np

from hypodecay import grids
from hypodecay.grids import Grid1D
from hypodecay.linalg import SystemSpec
from hypodecay.solvers import linear

SIZES = (4096, 8192)
L = 200.0
MIN_BATCH_S = 0.002
BATCHES = 25

# Element passes per grid point (reads + writes of one 8-byte value).
ELEMENT_PASSES = {
    # two np.roll copies (1+1 each), subtract (2+1), scale (1+1)
    "grids.d_dx.periodic": 9,
    # slice subtract (2+1), scale (1+1), store into the output (1+1)
    "grids.d_dx.compact": 7,
    # four np.roll copies (2 each), three scalings (2 each), four adds (3 each)
    "grids.fourth_difference.periodic": 26,
    # zero fill (1), three scalings (2 each), four adds (3 each), store (2)
    "grids.fourth_difference.compact": 21,
    # d_dx on two components (2 x 9), (N,2)@(2,2) product (2+2), negation (2+2)
    "solvers.linear.advection_rhs": 26,
}


def _per_call_s(fn):
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= MIN_BATCH_S:
            break
        n *= 2
    samples = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples)


def _kernels(seed):
    rng = np.random.default_rng(seed)
    system = SystemSpec(A=np.array([[0.0, 1.0], [1.0, 0.0]]),
                        D=np.array([[1.0]]), n1=1)
    for N in SIZES:
        f = rng.standard_normal(N)
        for tag, bc in (("periodic", "periodic"), ("compact", "compact_support")):
            grid = Grid1D(L=L, N=N, bc=bc)
            yield f"grids.d_dx.{tag}", N, (lambda g=grid: grids.d_dx(g, f))
            yield (f"grids.fourth_difference.{tag}", N,
                   (lambda g=grid: grids.fourth_difference(g, f)))
        sim = linear.LinearSim(spec=system, grid=Grid1D(L=L, N=N, bc="periodic"))
        U = rng.standard_normal((N, 2))
        yield "solvers.linear.advection_rhs", N, (lambda s=sim, u=U: linear.advection_rhs(s, u))


def run(seed):
    """Metric name -> value for every kernel and size."""
    out = {}
    for kernel, N, fn in _kernels(seed):
        out[f"{kernel}.{N}.ns_per_point"] = _per_call_s(fn) / N * 1e9
        out[f"{kernel}.{N}.computed_bytes_per_point"] = 8.0 * ELEMENT_PASSES[kernel]
    return out
