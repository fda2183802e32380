"""The package's exceptions: every solver failure is one SolverError, whose message names the solve."""

from __future__ import annotations

__all__ = ["FremondError", "ConfigError", "PotentialValidationError", "SolverError", "NonpositiveTemperature",
           "SimulationAborted"]


class FremondError(Exception):
    """Base class for all package errors."""


class ConfigError(FremondError):
    """Malformed or inconsistent run configuration."""


class PotentialValidationError(FremondError):
    """Potential fails a structural check or lambda-convexity (F'' + lambda >= 0 on the real line)."""


class SolverError(FremondError):
    """A linear solve, one equation's Newton or the coupled sweeps failed; the message names which."""


class NonpositiveTemperature(FremondError):
    """A State (``State.__post_init__``), or a field ``lambda_dist`` takes the log of, has theta <= 0.
    ``march`` turns it into a failed step (SimulationAborted); from a loaded run, ``check`` exits 1."""


class SimulationAborted(SolverError):
    """A time step failed (a SolverError or theta <= 0); carries the partial trajectory and failing index."""

    def __init__(self, step_index: int, cause: Exception, trajectory=None):
        super().__init__(f"step {step_index} failed: {cause}")
        self.step_index = step_index
        self.cause = cause
        self.trajectory = trajectory
