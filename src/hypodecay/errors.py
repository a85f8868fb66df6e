"""Exception taxonomy for the solver/analysis stack.

Three rough groups, matching how the CLI maps failures to exit codes:
configuration problems (bad matrices, bad parameter ranges), numerical
guard trips during a run (CFL, vacuum, smallness, boundary escape), and
certificate machinery errors raised by the analysis layer.
"""


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
    """Corrector coefficient search underflowed; carries diagnostics."""


class HypothesisViolated(HypodecayError):
    """A structural hypothesis of the weighted estimates fails (e.g. A11 != 0)."""


class RBandViolation(HypodecayError):
    """Nonlinear damping exponent outside the admissible band (1, 3)."""


class MuOutOfRange(HypodecayError):
    """Weight exponent outside the admissible range (needs mu > 1/2)."""


# --- runtime guards ----------------------------------------------------

class CflViolation(HypodecayError):
    pass


class DomainEscape(HypodecayError):
    """Signal reached the boundary of a compact-support run beyond tolerance."""


class VacuumApproached(HypodecayError):
    """Density dropped below the vacuum floor."""


class SmallnessBreached(HypodecayError):
    """H^2 smallness cap exceeded; the a-priori regime no longer applies."""


class MassNotZero(HypodecayError):
    """Antiderivative-based monitor requires zero-mean data (power mode)."""


class NonFiniteState(HypodecayError):
    """A recorded channel value is NaN or infinite.

    Carries the sample time in ``.time``.
    """

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


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
