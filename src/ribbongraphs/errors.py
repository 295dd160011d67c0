"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "RibbonGraphError",
    "ParseError",
    "DuplicateLabelCount",
    "InvalidLabel",
    "InvalidState",
    "InvalidMove",
    "RingMismatch",
    "UnknownSign",
    "UnknownEdge",
    "TooManyEdges",
    "TooManyCrossings",
    "DanglingCrossing",
    "RoleConflict",
    "FractionalExponent",
    "NegativeExponentNonUnit",
]


class RibbonGraphError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(RibbonGraphError):
    """Malformed input text.  Carries a 1-based line and column."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class DuplicateLabelCount(RibbonGraphError):
    """An edge label does not occur exactly twice in the circles."""


class InvalidLabel(RibbonGraphError, ValueError):
    """An edge label or crossing id is empty or holds a reserved character."""


class InvalidState(RibbonGraphError, ValueError):
    """A splitting state does not choose A or B at some crossing."""


class InvalidMove(RibbonGraphError, ValueError):
    """A presentation move was given a non-bijective map or no such circle."""


class RingMismatch(RibbonGraphError, ValueError):
    """A term key or an operand does not fit the ring of a polynomial."""


class UnknownSign(RibbonGraphError):
    """An edge label has no sign assigned to it."""


class UnknownEdge(RibbonGraphError):
    """An operation referenced an edge label the graph does not have."""


class TooManyEdges(RibbonGraphError):
    """An enumeration over edge subsets would exceed its guard."""


class TooManyCrossings(RibbonGraphError):
    """An enumeration over crossing states would exceed its guard."""


class DanglingCrossing(RibbonGraphError):
    """A crossing id does not occur exactly twice in a Gauss code."""


class RoleConflict(RibbonGraphError):
    """A crossing id occurs twice with the same over/under role."""


class FractionalExponent(RibbonGraphError):
    """An operation required integer exponents but found fractional ones."""


class NegativeExponentNonUnit(RibbonGraphError):
    """Substitution of a non-invertible value into a negative power."""
