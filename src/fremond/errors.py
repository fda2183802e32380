"""Exception hierarchy. Solver failures carry enough context to locate the step."""

from __future__ import annotations


class FremondError(Exception):
    """Base class for all package errors."""


class ConfigError(FremondError):
    """Malformed or inconsistent run configuration."""


class PotentialValidationError(FremondError):
    """Potential fails a structural check or lambda-convexity on the check lattice."""


class SolverError(FremondError):
    """Base class for nonlinear/linear solve failures."""


class NewtonDiverged(SolverError):
    """A single-equation Newton solve missed its tolerance within fp_max_iter iterations."""


class LinearSolveFailed(SolverError):
    """Inner SPD solve did not converge."""


class FixedPointDiverged(SolverError):
    """The coupled phase/heat sweeps did not converge within fp_max_iter (which caps Newton too)."""


class PositivityLost(SolverError):
    """Temperature update produced a nonpositive cell; never clipped."""


class NonpositiveTemperature(FremondError):
    """A diagnostic was asked to evaluate log(theta) or 1/theta at theta <= 0."""


class SimulationAborted(SolverError):
    """A time step failed; carries the partial trajectory and failing index."""

    def __init__(self, step_index: int, cause: Exception, trajectory=None):
        super().__init__(f"step {step_index} failed: {cause}")
        self.step_index = step_index
        self.cause = cause
        self.trajectory = trajectory
