"""Thermodynamic functionals and inequality checkers along trajectories.

Checked structures, with their continuum statements:

  energy:   E(t) = int( theta + F(phi) + |grad phi|^2 / 2 );
            E(t^n) + eps * sum_{k<=n} dt * int theta_k^p = E(t^0) for the
            regularized scheme (equality up to splitting error), E
            nonincreasing in the limit.

  entropy:  for test functions vartheta >= 0,
            -int vartheta(t)(log theta(t) + phi(t)) + int vartheta(0)(...)
            + int_0^t int vartheta (kappa |grad log theta|^2 + phi_t^2/theta
            - eps theta^{p-1})  <=  int_0^t int (kappa grad log theta .
            grad vartheta - vartheta_t (log theta + phi)).
            The eps theta^{p-1} production term belongs to the regularized
            system's entropy balance (it is exactly what the simulated
            equations dissipate); with it the discrete margin measures pure
            discretization error and shrinks under refinement. Setting eps=0
            recovers the limit inequality verbatim.

  floors:   min theta(t) >= h(t) with h' = -h^p - h^2/2, h(0) = min theta_0;
            min phi(t) >= -K e^{2 lam t} with K = max(0, -min phi_0).

Discrete transcription conventions (fixed here for reproducibility): time
integrals by the left-endpoint rule, vartheta_t by centered differences
(forward at t=0), phi_t at the initial instant is the stored convention value
(zero unless the PDE initializer was requested). ``energy`` given a
trajectory's stacked State (``Trajectory.stack``) returns each quantity's
series over time; the checks take their series that way, in one array pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonpositiveTemperature
from .grid import Field, Grid, _dirichlet_values, _grad_sq_values
from .potential import Potential
from .stepper import State, Trajectory

__all__ = [
    "EnergyReport",
    "EnergyCheckReport",
    "EntropyCheckReport",
    "FloorsReport",
    "TestFunction",
    "TEST_FUNCTIONS",
    "energy",
    "energy_inequality_check",
    "entropy_inequality_check",
    "floors_check",
]


@dataclass(frozen=True)
class EnergyReport:
    t: float
    E_total: float
    E_gradient: float
    E_potential: float
    E_thermal: float
    entropy_S: float
    orlicz: float
    theta_min: float
    phi_min: float


def _check_positive(theta: Field, what: str = "temperature") -> None:
    """NonpositiveTemperature unless theta > 0 everywhere (diagnostics take its log or inverse)."""
    tmin = theta.min()
    if tmin <= 0.0:
        raise NonpositiveTemperature(f"{what} has min {tmin:.3g}; log/1-over evaluations undefined")


def energy(state: State, potential: Potential) -> EnergyReport:
    """Total energy split into gradient, potential and thermal parts, plus the
    entropy integral and the Orlicz quantity int theta log theta; for a
    stacked State, each one as its series over time."""
    _check_positive(state.theta)
    g = state.grid
    vol, axes = g.cell_volume, g.axes
    th = state.theta.values
    ph = state.phi.values
    e_grad = 0.5 * _dirichlet_values(ph, ph, g)
    e_pot = np.sum(potential.eval(ph, 0), axis=axes) * vol
    e_th = np.sum(th, axis=axes) * vol
    log_th = np.log(th)
    return EnergyReport(
        t=state.t,
        E_total=e_grad + e_pot + e_th,
        E_gradient=e_grad,
        E_potential=e_pot,
        E_thermal=e_th,
        entropy_S=np.sum(log_th + ph, axis=axes) * vol,
        orlicz=np.sum(th * log_th, axis=axes) * vol,
        theta_min=th.min(axis=axes),
        phi_min=ph.min(axis=axes),
    )


@dataclass
class EnergyCheckReport:
    times: np.ndarray
    energies: np.ndarray          # E(t^n)
    reg_cumulative: np.ndarray    # eps * sum_{k<=n} dt * int theta_k^p
    margins: np.ndarray           # E(0) - E(t^n) - reg_cumulative[n]

    @property
    def per_step_increase(self) -> np.ndarray:
        return np.diff(self.energies)

    def csv_columns(self):
        passed = self.energies <= self.energies[0] + 1e-4 * abs(self.energies[0])
        return ["step", "t", "value", "margin", "pass"], [np.arange(len(self.times)), self.times, self.energies,
                                                          self.margins, passed]


def energy_inequality_check(traj: Trajectory, potential: Potential) -> EnergyCheckReport:
    """Energy balance along a trajectory.

    margin(n) = E(0) - E(t^n) - eps sum_{k=1..n} dt int theta_k^p, the defect
    of the regularized energy equality (right-endpoint quadrature, matching
    the implicit scheme); nonnegative up to splitting error of order dt.
    """
    eps, p, dt = traj.config.epsilon, traj.config.p, traj.config.dt
    g = traj.grid
    energies = energy(traj.stack, potential).E_total
    regs = np.zeros(len(traj))
    if eps > 0:
        regs[1:] = eps * dt * np.sum(traj.stack.theta.values[1:] ** p, axis=g.axes) * g.cell_volume
    regs = np.cumsum(regs)
    return EnergyCheckReport(traj.times, energies, regs, energies[0] - energies - regs)


# --- entropy ----------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """Nonnegative space-time test function; fn(grid, t) broadcasts over t (grid.dim trailing unit axes)."""

    name: str
    fn: Callable[[Grid, np.ndarray], np.ndarray]

    def sample(self, grid: Grid, t) -> np.ndarray:
        """Values of shape (*np.shape(t), *grid.shape): one field per time of t."""
        t = np.asarray(t, dtype=float)
        vals = np.asarray(self.fn(grid, t.reshape(t.shape + (1,) * grid.dim)), dtype=float)
        vals = np.broadcast_to(vals, t.shape + grid.shape)
        if vals.min() < 0:
            raise ValueError(f"test function {self.name!r} is negative")
        return vals

    def __call__(self) -> "TestFunction":
        """The test function itself, so that ``TEST_FUNCTIONS[name]()`` reads as a factory call."""
        return self


TEST_FUNCTIONS: dict[str, TestFunction] = {
    "one": TestFunction("one", lambda grid, t: np.ones(grid.shape)),
    "cosine": TestFunction("cosine", lambda grid, t: 1.0 + 0.5 * grid.cosine_mode()),
    "cosine_damped": TestFunction("cosine_damped",
                                  lambda grid, t: 1.0 + np.exp(-1.0 * t) * ((1.0 + 0.5 * grid.cosine_mode()) - 1.0)),
}


@dataclass
class EntropyCheckReport:
    times: np.ndarray             # t^1 .. t^N
    margins: np.ndarray           # rhs - lhs, predicted >= 0 up to discretization
    entropy_values: np.ndarray    # int vartheta(t^n) (log theta^n + phi^n)
    tol: float                    # a row passes at margin >= -tol: 100 dt, the margin's O(dt) discretization error

    @property
    def min_margin(self) -> float:
        return float(self.margins.min()) if len(self.margins) else 0.0

    def csv_columns(self):
        return ["step", "t", "value", "margin", "pass"], [np.arange(1, len(self.times) + 1), self.times,
                                                          self.entropy_values, self.margins, self.margins >= -self.tol]


def entropy_inequality_check(traj: Trajectory, test_fn: TestFunction) -> EntropyCheckReport:
    """Entropy-production balance against a nonnegative test function.

    Reports margin(t^n) = rhs(t^n) - lhs(t^n) of the transcription described
    in the module docstring; positive margins mean entropy production
    dominates, as predicted. A row passes at margin >= -100 dt, never asserted
    one-signed, since no quadrature is known to make the discrete margin
    provably nonnegative.
    """
    cfg = traj.config
    kappa, eps, p, dt = cfg.kappa, cfg.epsilon, cfg.p, cfg.dt
    s, grid = traj.stack, traj.grid
    vol, axes = grid.cell_volume, grid.axes
    _check_positive(s.theta)

    # a row per time, left-endpoint terms on rows [:-1]; in-place updates bound the temporaries
    vt = test_fn.sample(grid, traj.times)
    log_th = np.log(s.theta.values)
    density = log_th + s.phi.values
    boundary = np.sum(vt * density, axis=axes) * vol  # int vartheta (log th + phi)
    vt_dot = np.concatenate([(vt[1:2] - vt[:1]) / dt, (vt[2:] - vt[:-2]) / (2.0 * dt)])
    vt_dot *= density[:-1]
    # dt int (kappa grad log th . grad vartheta - vartheta_t (log th + phi))
    flux = np.sum(vt_dot, axis=axes) * vol
    del density, vt_dot
    flux = dt * (kappa * _dirichlet_values(log_th[:-1], vt[:-1], grid) - flux)
    # dt int vartheta (kappa |grad log th|^2 + phi_t^2/th - eps th^{p-1})
    th = s.theta.values[:-1]
    density = _grad_sq_values(log_th[:-1], grid)
    del log_th
    density *= kappa
    density += s.phi_t.values[:-1] ** 2 / th
    if eps > 0:
        density -= eps * th ** (p - 1.0)
    density *= vt[:-1]
    production = dt * np.sum(density, axis=axes) * vol
    lhs = -boundary[1:] + boundary[0] + np.cumsum(production)
    return EntropyCheckReport(traj.times[1:], np.cumsum(flux) - lhs, boundary[1:], 100.0 * dt)


# --- floors ------------------------------------------------------------------


def _floor_rhs(h: float, p: float) -> float:
    return -(math.copysign(abs(h) ** p, h)) - 0.5 * h * h


def _rk4_advance(h: float, width: float, p: float) -> float:
    dt = width / 4
    for _ in range(4):
        k1 = _floor_rhs(h, p)
        k2 = _floor_rhs(h + 0.5 * dt * k1, p)
        k3 = _floor_rhs(h + 0.5 * dt * k2, p)
        k4 = _floor_rhs(h + dt * k3, p)
        h = h + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return h


def _phase_floor(t: float, K: float, lam: float) -> float:
    """-K e^{2 lam t} for t >= 0 and K >= 0, -inf (or -0.0 when K = 0) past the float range."""
    try:
        return -K * math.exp(2.0 * lam * t)
    except OverflowError:
        return -math.inf if K > 0 else -0.0


@dataclass
class FloorsReport:
    times: np.ndarray
    theta_min: np.ndarray
    theta_floor: np.ndarray
    phi_min: np.ndarray
    phi_floor: np.ndarray
    tol: float

    @property
    def theta_ok(self) -> np.ndarray:
        return self.theta_min >= self.theta_floor - self.tol

    @property
    def phi_ok(self) -> np.ndarray:
        return self.phi_min >= self.phi_floor - self.tol

    def csv_columns(self, which: str = "theta"):
        vals, floors, oks = ((self.theta_min, self.theta_floor, self.theta_ok) if which == "theta" else
                             (self.phi_min, self.phi_floor, self.phi_ok))
        return ["step", "t", "value", "margin", "pass"], [np.arange(len(self.times)), self.times, vals, vals - floors, oks]


def floors_check(traj: Trajectory, *, lam: float, tol: float = 1e-10) -> FloorsReport:
    """Verify the temperature minimum principle and the phase lower bound.

    The temperature envelope h' = -h^p - h^2/2 from h = min theta_0 (the worst-case
    decay that the heat equation allows at a spatial minimum) is advanced between
    trajectory times by four classical 4th-order steps each. lam is the potential's
    convexity constant, which sets the phase floor's growth rate.
    """
    times, axes = traj.times, traj.grid.axes
    theta_min = traj.stack.theta.values.min(axis=axes)
    phi_min = traj.stack.phi.values.min(axis=axes)
    K = max(0.0, -phi_min[0])

    theta_floor = [theta_min[0]]
    for step in np.diff(times):
        theta_floor.append(_rk4_advance(theta_floor[-1], step, traj.config.p))
    phi_fl = np.array([_phase_floor(t - times[0], K, lam) for t in times])
    return FloorsReport(times, theta_min, np.array(theta_floor), phi_min, phi_fl, tol)
