"""Exception types shared across the package."""


class ToparetoError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(ToparetoError, ValueError):
    """An argument violates a documented precondition."""


class SolverError(ToparetoError):
    """Linear solve failed to converge or the system is singular."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class FitInfeasibleError(ToparetoError):
    """Anchor ratio outside the range the meta-model family can represent."""


class FitFailureError(ToparetoError):
    """Root bracketing for the meta-model exponent failed."""


class InfeasibleStiffnessError(ToparetoError):
    """Even the full-density design is too compliant for the requirement."""


class InfeasibleProblemError(ToparetoError):
    """No candidate material can satisfy the stiffness constraint."""


class SweepFailureError(ToparetoError):
    """One or more sweep points failed; carries (label, message) pairs."""

    def __init__(self, failures):
        self.failures = list(failures)
        detail = "; ".join(f"{lbl}: {msg}" for lbl, msg in self.failures)
        super().__init__(f"{len(self.failures)} sweep point(s) failed: {detail}")


class ParseError(ToparetoError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
