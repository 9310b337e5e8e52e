"""Exception hierarchy shared by all solver modules."""

from __future__ import annotations


class ElpError(Exception):
    """Base class for every error raised by this package."""


class ParseError(ElpError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class GroundingError(ElpError):
    pass


class CapacityError(ElpError):
    """An exhaustive search would exceed a configured cap."""


class NotObjectiveError(ElpError):
    """A construct that must be objective contains a subjective literal."""


class UnsupportedMLiteral(ElpError):
    """M-literal fed to a reduct that is defined for K-literals only."""


class _SplitError(ElpError):
    def __init__(self, kind: str, violators):
        self.violators = tuple(violators)
        shown = "; ".join(str(r) for r in self.violators[:3])
        super().__init__(f"{kind}; violating rule(s): {shown}")


class NotASplittingSet(_SplitError):
    def __init__(self, violators):
        super().__init__("not a splitting set", violators)


class NotAnEpistemicSplittingSet(_SplitError):
    def __init__(self, violators):
        super().__init__("not an epistemic splitting set", violators)


class NotStratified(ElpError):
    pass
