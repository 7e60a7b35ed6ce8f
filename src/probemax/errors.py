"""The package's four exception classes.

A caller tells apart only what it handles differently: bad input, which
the CLI reports and exits 1 on, from a failed proven inequality, which is
a bug and exits 2.  Every rejected input, whatever layer rejects it, is a
ValidationError whose message names the problem; InstanceTooLarge is the
one kind a caller recovers from (the bench suite records it per row).
"""


class ProbemaxError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ProbemaxError):
    """Bad input: a parameter, variable, subset or file the package rejects."""


class InstanceTooLarge(ValidationError):
    """Exact oracle would exceed its configured state or subset budget."""


class GuaranteeViolation(ProbemaxError):
    """A proven inequality failed beyond numerical tolerance (internal bug)."""
