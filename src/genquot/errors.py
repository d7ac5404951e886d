"""Exception hierarchy shared by every genquot module.

Each class maps to one failure family so the CLI can translate exceptions
into stable exit codes (usage -> 2, numeric/solver -> 3, failed construction
condition -> 1). Every class pickles with its type, message and fields, so an
exception raised in a suite worker process reaches the parent unchanged.
"""

from __future__ import annotations

__all__ = ["GenquotError", "UsageError", "NumericError", "SolverStall", "NotInSpan",
           "ConditionFailed", "FitError", "IoError"]


class GenquotError(Exception):
    """Base class for all package errors."""


class UsageError(GenquotError):
    """Caller violated a documented precondition (bad argument, bad flag)."""


class NumericError(GenquotError):
    """Numerical failure: non-finite data, rank collapse, divergence."""


class SolverStall(NumericError):
    """LP solver exceeded its iteration cap without converging."""


class NotInSpan(NumericError):
    """Requested gauge of a point outside the column span of the body."""


class ConditionFailed(GenquotError):
    """A probabilistic construction exhausted its retry budget.

    Carries the tag of the violated inequality ("el2" or "fin") and the
    measured values so harnesses can fit constants from failures.
    """

    def __init__(self, tag: str, message: str, measured: dict | None = None):
        super().__init__(f"{tag}: {message}")
        self.tag = tag
        self.message = message
        self.measured = dict(measured or {})

    def __reduce__(self):
        return type(self), (self.tag, self.message, self.measured)


class FitError(GenquotError):
    """Constant fitting received degenerate data."""


class IoError(GenquotError):
    """File read/write failure; message names the offending path."""

    def __init__(self, path, message: str):
        super().__init__(f"{path}: {message}")
        self.path = str(path)
        self.message = message

    def __reduce__(self):
        return type(self), (self.path, self.message)
