"""Exception types shared across the package: one per exit code of the CLI."""


class ToparetoError(Exception):
    """Base class for all package errors; the CLI exits 4 on one it does
    not map to another code."""


class InvalidArgumentError(ToparetoError, ValueError):
    """An argument, a config value or an input file violates a documented
    precondition; carries the offending line of a file, if any (exit 2)."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class InfeasibleError(ToparetoError):
    """The stiffness requirement cannot be met: not by the full-density
    design of one material, or not by any candidate (exit 3)."""


class SolverError(ToparetoError):
    """A linear solve or an optimization failed, or the system is singular
    (exit 4)."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class FitError(ToparetoError):
    """The meta-model cannot be fitted to its two anchors (exit 4)."""
