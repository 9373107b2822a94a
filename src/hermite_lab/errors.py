"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class HermiteLabError(Exception):
    """Base class for every error raised by this package."""


class ParseError(HermiteLabError):
    """Input text does not match any supported real-number grammar."""


class InvalidQuadratic(ParseError):
    """Quadratic input with d <= 0 or an otherwise unusable radicand."""


class PrecisionExceedsInput(HermiteLabError):
    """More certified bits were requested than the input carries."""


class AmbiguousComparison(HermiteLabError):
    """A comparison could not be certified within the precision budget."""


class IntegerInput(HermiteLabError):
    """The input is an exact integer; the minimal-vector sequence degenerates."""


class InvalidArgument(HermiteLabError, ValueError):
    """An argument lies outside the values the function accepts."""


class IndexOutOfRange(HermiteLabError, IndexError):
    """Requested index lies outside the computed data."""


class TailUnavailable(HermiteLabError):
    """Continued-fraction tail cannot be certified from the given input."""


class NotConsecutive(HermiteLabError):
    """Vector pair violates the shape of a consecutive minimal-vector pair."""


class SequenceEnds(HermiteLabError):
    """The minimal-vector sequence has no successor (rational input exhausted)."""


class DomainError(HermiteLabError):
    """Point outside the domain of the requested map."""


class OrbitTerminates(HermiteLabError):
    """Forward (backward) orbit reached a point the map cannot leave.

    Carries the number of completed steps and the partial orbit, terminal
    point included.
    """

    def __init__(self, step: int, points: list):
        super().__init__(f"orbit terminates at step {step}")
        self.step = step
        self.points = points


class InsufficientSequence(HermiteLabError):
    """Too few minimal vectors for the requested computation."""


class MisalignedInput(HermiteLabError):
    """Flags and vector sequence do not describe the same data."""


class GridTooCoarse(HermiteLabError):
    """No single Delta makes an envelope-flagged vector shortest at every theta value."""


class VerificationMismatch(HermiteLabError):
    """Independent methods disagree on a decided index."""
