"""Exception types shared across the package.

Every operation that rejects its input raises one of these instead of a bare
ValueError, so callers (and the CLI) can tell budget exhaustion apart from
genuinely malformed input.
"""


class AddcombError(Exception):
    """Base class for all package-specific errors."""


class DegeneratePair(AddcombError):
    """Two coincident points do not span a line."""


class DegenerateInput(AddcombError):
    """Input set too small / otherwise unusable for the requested operation."""


class InvalidConfig(AddcombError):
    """Generator or CLI configuration is out of range or inconsistent."""


class DivisionByZero(AddcombError):
    """Ratio-type set operation with 0 in the divisor set."""


class ZeroScale(AddcombError):
    """Affine image with scale 0 would collapse the set."""


class ZeroShift(AddcombError):
    """Shift parameter that must be nonzero was zero."""


class EmptyHistogram(AddcombError):
    """Band selection on a histogram with no entries."""


class EmptyCandidateList(AddcombError):
    """A sup/max over candidate sets needs at least one candidate."""


class BudgetExceeded(AddcombError):
    """Requested exact enumeration is larger than the configured budget."""


class NonTermination(AddcombError):
    """A decomposition loop failed to shrink its working set: a bug."""


class InsufficientPoints(AddcombError):
    """A fit needs more data points than were supplied."""


class PostconditionFailed(AddcombError):
    """A guarantee the code enforces on its own output did not hold: a bug."""
