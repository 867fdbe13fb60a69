"""Exception types shared across the package."""


class PfrsimError(Exception):
    """Base class for all package errors."""


class NonConvergenceError(PfrsimError, RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget."""


class NonFiniteError(PfrsimError, ArithmeticError):
    """A function evaluated to NaN or an unusable infinity at a probed point."""


class DomainError(PfrsimError, ValueError):
    """Argument outside the mathematical domain of the operation."""


class AbsoluteContinuityError(PfrsimError, ValueError):
    """The density ratio dP/dQ does not exist where it is needed."""


class UnsupportedKindError(PfrsimError, TypeError):
    """Operation not defined for this distribution kind."""


class IterationCapError(PfrsimError, RuntimeError):
    """Sampler hit its hard candidate cap before the stopping rule fired."""


class IndexOverflowError(PfrsimError, OverflowError):
    """Sampled index exceeds the unsigned 64-bit range (success probability ~< 1e-18)."""


class NegativeTailError(PfrsimError, ValueError):
    """Accumulated quadrature error drove a truncated pmf's tail mass below -1e-9."""


class OrderError(PfrsimError, ValueError):
    """Entropy/divergence order outside the range the operation supports."""


class EpsilonRangeError(PfrsimError, ValueError):
    """Slack parameter epsilon outside the range the bound is proved for."""


class TailTooHeavyWarning(UserWarning):
    """Truncated pmf carries too much tail mass for a two-sided entropy bracket."""
