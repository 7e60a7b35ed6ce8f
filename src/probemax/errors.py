"""Semantic exception hierarchy shared by all probemax modules."""


class ProbemaxError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ProbemaxError):
    """Malformed input: bad distribution parameters, instance files, or flags."""


class ZeroTail(ProbemaxError):
    """Conditional tail expectation requested where P(X >= r) = 0."""


class IndexOutOfRange(ProbemaxError):
    """A variable subset contains duplicate or out-of-range indices."""


class InvalidTolerance(ProbemaxError):
    """Search tolerance must be strictly positive."""


class InvalidEpsilon(ProbemaxError):
    """Accuracy parameter must lie strictly inside (0, 1)."""


class DegenerateSet(ProbemaxError):
    """Root threshold requested for a subset with zero total mean."""


class NotContinuous(ProbemaxError):
    """Operation requires every distribution to have a continuous CDF."""


class NotDiscrete(ProbemaxError):
    """Operation requires finite-support discrete distributions."""


class InstanceTooLarge(ProbemaxError):
    """Exact oracle would exceed its configured state or subset budget."""


class GuaranteeViolation(ProbemaxError):
    """A proven inequality failed beyond numerical tolerance (internal bug)."""


class AlphaOutOfRange(ProbemaxError):
    """Mixing-weight equation has no solution within tolerance.

    Signals that the threshold passed to the fractional construction is too
    far from a true minimizer of the upper envelope.
    """
