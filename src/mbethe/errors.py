"""Exception types shared across the package."""


class MbetheError(Exception):
    """Base class for all domain errors raised by this package."""


class PoleError(MbetheError):
    """A rational kernel was evaluated at one of its poles.

    Carries the kernel kind and the offending pair so callers can report
    which genericity assumption failed.
    """

    def __init__(self, kind, left, right):
        self.kind = kind
        self.left = left
        self.right = right
        super().__init__(f"pole of {kind} at ({left}, {right})")

    def __reduce__(self):
        # the default rebuilds from self.args (the message alone), which does
        # not fit this __init__; a worker's error must unpickle in the
        # parent, which re-raises it
        return type(self), (self.kind, self.left, self.right)


class WorkerExitError(MbetheError):
    """A child summing part of a partition sum exited without sending its
    partial (killed, or `os._exit`); `exitcode` is its exit code, negative
    for the signal that ended it."""

    def __init__(self, exitcode):
        self.exitcode = exitcode
        super().__init__(f"partition-sum worker exited with code {exitcode} "
                         "without a result")

    def __reduce__(self):
        return type(self), (self.exitcode,)


class ExhaustionError(MbetheError):
    """Generic-parameter sampling exceeded its retry budget."""


class ConstraintError(MbetheError):
    """Partition cardinality constraints are inconsistent with the ground set."""


class CardinalityError(MbetheError):
    """An operation requiring equal set cardinalities received unequal sets."""


class VariantUndefined(MbetheError):
    """The requested determinant representation is undefined at these arguments.

    The second (u-indexed) representation carries a (1-z)^(m-n) prefactor and
    is not usable at z = 1 unless m = n; the first (v-indexed) representation
    has no such restriction.
    """


class DegenerateError(MbetheError):
    """Exact rational interpolation failed or was inconsistent with its bound."""


class CapabilityError(MbetheError):
    """A weight oracle lacks the data required for the requested evaluation."""


class DomainError(MbetheError):
    """Twist parameters lie outside the domain of the requested formula."""


class ConfigError(MbetheError):
    """Invalid run configuration (CLI exit code 2)."""
