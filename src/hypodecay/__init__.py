"""hypodecay: decay certificates for damped hyperbolic systems in 1D.

Layers:

* linalg / grids      — matrix predicates and finite-difference kernels
* corrector           — coupling-coefficient selection for modified energies
* solvers             — time integrators (linear systems, Euler, p-system, heat)
* analysis            — decay fits and certificate checks on recorded series
* experiment          — scenario registry, runner, and CLI
"""

__version__ = "0.1.0"
