"""Finite-difference solver and thermodynamic verification harness for the
coupled temperature / phase-field system

    theta_t + theta phi_t - kappa lap theta = |phi_t|^2
    phi_t - lap phi + F'(phi) = theta

with zero-flux boundaries, its eps theta^p regularization, and the structural
laws it obeys: energy balance, entropy production, temperature and phase
floors, and the relative-energy stability estimate.
"""

from .errors import (
    ConfigError,
    FixedPointDiverged,
    FremondError,
    LinearSolveFailed,
    NewtonDiverged,
    NonpositiveTemperature,
    PositivityLost,
    PotentialValidationError,
    SimulationAborted,
    SolverError,
)
from .grid import Field, Grid, integrate, laplacian_neumann, norm
from .potential import Potential
from .stepper import (
    SchemeConfig,
    State,
    Trajectory,
    heat_step,
    initial_state,
    phase_step,
    simulate,
    step,
)

__version__ = "0.1.0"
