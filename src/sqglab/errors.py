"""Exception types shared across the package.

Numerical failure modes get their own classes (rather than bare ValueError)
so callers — in particular the command-line driver, which must map them to
exit codes — can distinguish "you passed garbage" from "the computation
broke down".
"""

from __future__ import annotations

__all__ = [
    "SqgError",
    "BasisError",
    "ZeroModeError",
    "BlowUpError",
    "ConvergenceError",
    "SingularOperatorError",
    "NonFiniteError",
    "ConfigError",
    "FieldError",
    "CflWarning",
]


class SqgError(Exception):
    """Base class for all package-specific errors."""


class BasisError(SqgError, ValueError):
    """An operation was requested in a basis that does not support it."""


class ZeroModeError(SqgError, ValueError):
    """An inverse operator was applied to a field with a zero-mode component."""


class BlowUpError(SqgError, RuntimeError):
    """The time stepper produced a non-finite field.

    Carries the time at which the failure was detected and the advective
    CFL number of the last completed step, which is almost always the
    culprit when this fires.
    """

    def __init__(self, t: float, cfl: float, context: str = ""):
        self.t = float(t)
        self.cfl = float(cfl)
        self.context = context
        message = f"blow-up or instability at t={self.t:.6g} (advective CFL {self.cfl:.3g})"
        if context:
            message = f"{message} [{context}]"
        super().__init__(message)


class ConvergenceError(SqgError, RuntimeError):
    """An iterative method failed to meet its convergence contract."""


class SingularOperatorError(SqgError, ValueError):
    """A strictly-positive-definite operator was required but not supplied."""


class NonFiniteError(SqgError, ValueError):
    """A checked quantity came out non-finite, so its inequality has no verdict.

    A numerical failure (the state it was computed from overflows the
    quantity, or the state's own grid values), not a bad argument; it stays
    a ``ValueError`` for callers that caught the bare one.
    """


class ConfigError(SqgError, ValueError):
    """A run configuration could not be parsed or validated.

    Every instance points at the offending line of the source file so the
    message is actionable; problems only detectable at end of file (missing
    sections or keys) cite the last line.
    """

    def __init__(self, message: str, *, source: str = "<config>", line: int = 0):
        self.source = source
        self.line = int(line)
        super().__init__(f"config error ({source}, line {self.line}): {message}")


class FieldError(SqgError, ValueError):
    """A constructor argument is out of range; ``field`` names the argument.

    Lets a caller that assembled the arguments from a file point at the
    offending entry without reading the message.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


class CflWarning(UserWarning):
    """The advective CFL guard dt·max|u|·(n/L) ≤ 0.5 was violated."""
