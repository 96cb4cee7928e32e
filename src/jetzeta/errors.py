"""Exception taxonomy shared by all jetzeta modules.

Every failure mode that callers are expected to catch gets its own class so
that the CLI can map them onto stable exit codes.  All of them derive from
JetzetaError; anything else escaping the library is a bug.
"""

from __future__ import annotations


class JetzetaError(Exception):
    """Base class for all library errors."""


class FitFailure(JetzetaError):
    """No candidate denominator subset reproduces the series prefix."""


class LimitUndefined(JetzetaError):
    """limit of a rational series with positive degree at T = infinity."""


class LimitMismatchError(JetzetaError):
    """A fitted series violates an identity it must satisfy (bug signal)."""


class DimensionLimitError(JetzetaError):
    """Ambient dimension above the supported bound."""


class UnboundedInputError(JetzetaError):
    """Operation defined only for bounded sets got an unbounded one."""


class UnsupportedRecessionError(JetzetaError):
    """Recession behavior outside the supported class."""


class UnsupportedShapeError(JetzetaError):
    """Cell shape outside the class an operation supports."""


class ResourceLimitError(JetzetaError):
    """Search frontier exceeded the configured node budget."""


class NonvanishingError(JetzetaError):
    """Jet systems are only defined at points where the polynomial vanishes."""


class ClassNotPolynomialError(JetzetaError):
    """Point counts do not fit a single polynomial in q.

    Signals either genuinely non-polynomial classes (reported, never
    coerced) or an upstream counting bug.  The raw count table rides along
    for diagnosis.
    """

    def __init__(self, message: str, table=None):
        super().__init__(message)
        self.table = table


class MissingClassError(JetzetaError):
    """Stratum lacks the class datum an operation needs."""


class MalformedDataError(JetzetaError):
    """Resolution data violates its schema."""


class NoPeriodError(JetzetaError):
    """No admissible period fits the Lefschetz sequence; extend the range."""


class ParseError(JetzetaError):
    """Polynomial text could not be parsed; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos
