"""Exception taxonomy for the solver/analysis stack.

Three rough groups, matching how the CLI maps failures to exit codes:
configuration problems (bad matrices, bad parameter ranges, initial
data refused before the first step), numerical guard trips during a run
(CFL, vacuum, smallness, boundary escape), and certificate machinery
errors raised by the analysis layer.  A guard that trips on the initial
data raises its own exception made an InitialDataRejected by `rejected`.
"""

import copy


class HypodecayError(Exception):
    """Base class for everything raised deliberately by this package."""


# --- configuration / construction -------------------------------------

class DimensionMismatch(HypodecayError):
    pass


class AsymmetricMatrix(HypodecayError):
    pass


class DNotPositiveDefinite(HypodecayError):
    pass


class SKConditionFails(HypodecayError):
    """Raised when coefficient selection needs full Kalman rank and lacks it."""


class ConstraintSearchFailed(HypodecayError):
    """No corrector: its caps put the last strength, plain or weighted, below
    the smallest normal double, or given coefficients fail their re-check."""


class HypothesisViolated(HypodecayError):
    """A hypothesis of an estimate or a check fails: A11 != 0 for the
    weighted estimates, or a certificate's parameters, sampling or run
    inputs (coefficients, weighted data size) outside what it accepts."""


class MuOutOfRange(HypodecayError):
    """Weight exponent outside the admissible range (needs mu > 1/2)."""


class RunTooCostly(HypodecayError):
    """A run would take more point-steps than the bound; refused before it is built."""


class InitialDataRejected(HypodecayError):
    """Initial data refused before the first step: a configuration problem."""


class MassNotZero(InitialDataRejected):
    """A wave monitor's antiderivative needs zero-mass initial data.

    Raised by the solver before its first step.
    """


# --- runtime guards ----------------------------------------------------

class CflViolation(HypodecayError):
    pass


class DomainEscape(HypodecayError):
    """Signal reached the boundary of a compact-support run beyond tolerance."""


class VacuumApproached(HypodecayError):
    """Density dropped below the vacuum floor."""


class SmallnessBreached(HypodecayError):
    """H^2 smallness cap exceeded; the a-priori regime no longer applies."""


class NonFiniteState(HypodecayError):
    """A recorded channel value is NaN or infinite.

    Carries the sample time in ``.time``.
    """

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


def rejected(exc):
    """A copy of the guard exception `exc`, fields included, that is also an
    InitialDataRejected: the guard tripped on the initial data."""
    out = copy.copy(exc)
    out.__class__ = type(type(exc).__name__, (type(exc), InitialDataRejected), {})
    return out


# --- analysis ----------------------------------------------------------

class WindowTooSmall(HypodecayError):
    pass


class NonpositiveValues(HypodecayError):
    pass


class MissingChannel(HypodecayError):
    pass


class HypothesisFails(HypodecayError):
    """Differential-inequality hypothesis check failed.

    Carries the first violating sample time in ``.time``.
    """

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time
