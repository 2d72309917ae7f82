"""Exception types raised by validation and precondition checks, and the work budget."""

__all__ = [
    "DagConvexError",
    "InvalidArc",
    "CycleDetected",
    "InvalidParameter",
    "EmptySet",
    "FullSet",
    "NotConnectedConvex",
    "DisconnectedInput",
    "OrderTooSmall",
    "BudgetExceeded",
    "EmptyReport",
    "ParseError",
]


class DagConvexError(ValueError):
    """Base class for all errors raised by this package."""


class InvalidArc(DagConvexError):
    """Arc endpoint out of range, self-loop, or duplicate arc."""


class CycleDetected(DagConvexError):
    """The arc set admits a directed cycle; no topological order exists."""


class InvalidParameter(DagConvexError):
    """A parameter is outside its documented domain."""


class EmptySet(DagConvexError):
    """An operation that needs a non-empty vertex set got an empty one."""


class FullSet(DagConvexError):
    """The set already covers every vertex, so it cannot be extended."""


class NotConnectedConvex(DagConvexError):
    """A set required to be connected and convex is not."""


class DisconnectedInput(DagConvexError):
    """The digraph must be connected (ignoring arc directions) but is not."""


class OrderTooSmall(DagConvexError):
    """The digraph has fewer vertices than the operation supports."""


class BudgetExceeded(DagConvexError):
    """An enumeration loop would need more steps than its work budget."""


# Default work budget in steps: over 9 times what any benchmark job or
# golden needs, and about 0.4 s of the connected search at n = 40.  Kept
# here, not with the loops, as the CLI parser reads it for every command.
BUDGET = 1 << 20


class EmptyReport(DagConvexError):
    """An average requested of a report with zero counted sets."""


class ParseError(DagConvexError):
    """Malformed graph input text."""
