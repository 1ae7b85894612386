"""Exception hierarchy shared across the package.

InvariantError carries the name of the violated invariant so the CLI can
report it in diagnostics and map it to exit code 2 (input parse problems
map to ParseError and exit code 3).
"""

from __future__ import annotations


class PrymlabError(Exception):
    pass


class ParseError(PrymlabError, ValueError):
    """Malformed input text (polynomials, rationals, JSON payloads)."""


class InvariantError(PrymlabError, ValueError):
    """A structural invariant of a domain object is violated."""

    def __init__(self, invariant: str, message: str = ""):
        self.invariant = invariant
        super().__init__(message or invariant)


class NotInImageError(InvariantError):
    """Inverse reconstruction applied to a triple outside the image."""

    def __init__(self, message: str):
        super().__init__("phi-image", message)


class ResonanceError(InvariantError):
    """Laurent recursion hit an unsolvable resonance."""

    def __init__(self, message: str):
        super().__init__("laurent-resonance", message)


class BlowUpError(InvariantError):
    """A float trajectory left the overflow guard or turned NaN.  `note`
    says how and at which step; the message adds the run's step size."""

    def __init__(self, note: str, step: float):
        self.note = note
        super().__init__("blow-up", f"{note} of the run with step size {step!r}")
