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
(zero unless the PDE initializer was requested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonpositiveTemperature
from .grid import Field, Grid, _dirichlet_values, _grad_sq_values
from .potential import Potential
from .stepper import State, Trajectory, phase_floor, _rk4_advance

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
    tmin = theta.min()
    if tmin <= 0.0:
        raise NonpositiveTemperature(f"{what} has min {tmin:.3g}; log/1-over evaluations undefined")


def energy(state: State, potential: Potential) -> EnergyReport:
    """Total energy split into gradient, potential and thermal parts, plus the
    entropy integral and the Orlicz quantity int theta log theta."""
    _check_positive(state.theta)
    g = state.grid
    vol = g.cell_volume
    th = state.theta.values
    ph = state.phi.values
    e_grad = 0.5 * _dirichlet_values(ph, ph, g)
    e_pot = float(np.sum(potential.eval(ph, 0))) * vol
    e_th = float(np.sum(th)) * vol
    log_th = np.log(th)
    return EnergyReport(
        t=state.t,
        E_total=e_grad + e_pot + e_th,
        E_gradient=e_grad,
        E_potential=e_pot,
        E_thermal=e_th,
        entropy_S=float(np.sum(log_th + ph)) * vol,
        orlicz=float(np.sum(th * log_th)) * vol,
        theta_min=state.theta.min(),
        phi_min=state.phi.min(),
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

    def csv_rows(self):
        header = ["step", "t", "value", "margin", "pass"]
        e0 = self.energies[0]
        tol = 1e-4 * abs(e0)
        rows = [
            (n, self.times[n], self.energies[n], self.margins[n], self.energies[n] <= e0 + tol)
            for n in range(len(self.times))
        ]
        return header, rows


def energy_inequality_check(traj: Trajectory, potential: Potential) -> EnergyCheckReport:
    """Energy balance along a trajectory.

    margin(n) = E(0) - E(t^n) - eps sum_{k=1..n} dt int theta_k^p, the defect
    of the regularized energy equality (right-endpoint quadrature, matching
    the implicit scheme); nonnegative up to splitting error of order dt.
    """
    eps, p, dt = traj.config.epsilon, traj.config.p, traj.config.dt
    vol = traj.grid.cell_volume
    energies, regs = [], [0.0]
    for n, s in enumerate(traj):
        energies.append(energy(s, potential).E_total)
        if n >= 1:
            reg = eps * dt * float(np.sum(s.theta.values**p)) * vol if eps > 0 else 0.0
            regs.append(regs[-1] + reg)
    energies = np.asarray(energies)
    regs = np.asarray(regs)
    return EnergyCheckReport(
        times=traj.times,
        energies=energies,
        reg_cumulative=regs,
        margins=energies[0] - energies - regs,
    )


# --- entropy ----------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """Nonnegative space-time test function, sampled on the grid per time."""

    name: str
    fn: Callable[[Grid, float], np.ndarray]

    def sample(self, grid: Grid, t: float) -> np.ndarray:
        vals = np.asarray(self.fn(grid, t), dtype=float) * np.ones(grid.shape)
        if vals.min() < 0:
            raise ValueError(f"test function {self.name!r} is negative at t={t}")
        return vals


def _tf_one() -> TestFunction:
    return TestFunction("one", lambda grid, t: np.ones(grid.shape))


def _tf_cosine(amplitude: float = 0.5) -> TestFunction:
    def fn(grid: Grid, t: float) -> np.ndarray:
        return 1.0 + amplitude * grid.cosine_mode()

    return TestFunction("cosine", fn)


def _tf_cosine_damped(amplitude: float = 0.5, rate: float = 1.0) -> TestFunction:
    base = _tf_cosine(amplitude)

    def fn(grid: Grid, t: float) -> np.ndarray:
        return 1.0 + np.exp(-rate * t) * (base.fn(grid, t) - 1.0)

    return TestFunction("cosine_damped", fn)


TEST_FUNCTIONS: dict[str, Callable[[], TestFunction]] = {
    "one": _tf_one,
    "cosine": _tf_cosine,
    "cosine_damped": _tf_cosine_damped,
}


@dataclass
class EntropyCheckReport:
    test_name: str
    times: np.ndarray             # t^1 .. t^N
    margins: np.ndarray           # rhs - lhs, predicted >= 0 up to discretization
    entropy_values: np.ndarray    # int vartheta(t^n) (log theta^n + phi^n)

    @property
    def min_margin(self) -> float:
        return float(self.margins.min()) if len(self.margins) else 0.0

    def csv_rows(self, tol: float = 0.0):
        header = ["step", "t", "value", "margin", "pass"]
        rows = [
            (n + 1, self.times[n], self.entropy_values[n], self.margins[n], self.margins[n] >= -tol)
            for n in range(len(self.times))
        ]
        return header, rows


def entropy_inequality_check(
    traj: Trajectory, test_fn: TestFunction, kappa: float | None = None
) -> EntropyCheckReport:
    """Entropy-production balance against a nonnegative test function.

    Reports margin(t^n) = rhs(t^n) - lhs(t^n) of the transcription described
    in the module docstring; positive margins mean entropy production
    dominates, as predicted. Margins are reported with tolerances by callers,
    never asserted one-signed, since no quadrature is known to make the
    discrete margin provably nonnegative.
    """
    if len(traj) < 2:
        return EntropyCheckReport(test_fn.name, np.array([]), np.array([]), np.array([]))
    cfg = traj.config
    kappa = cfg.kappa if kappa is None else kappa
    eps, p, dt = cfg.epsilon, cfg.p, cfg.dt
    grid = traj.grid
    vol = grid.cell_volume
    N = len(traj) - 1

    vt = [test_fn.sample(grid, s.t) for s in traj]
    vt_dot = [None] * (N + 1)
    vt_dot[0] = (vt[1] - vt[0]) / dt
    for k in range(1, N):
        vt_dot[k] = (vt[k + 1] - vt[k - 1]) / (2.0 * dt)

    log0 = np.log(traj[0].theta.values)
    boundary0 = float(np.sum(vt[0] * (log0 + traj[0].phi.values))) * vol

    margins = np.empty(N)
    values = np.empty(N)
    production = 0.0      # int_0^{t_n} int vartheta (kappa |grad log th|^2 + phi_t^2/th - eps th^{p-1})
    rhs = 0.0             # int_0^{t_n} int (kappa grad log th . grad vartheta - vartheta_t (log th + phi))
    for n in range(1, N + 1):
        k = n - 1  # left endpoint of [t_k, t_n]
        sk = traj[k]
        _check_positive(sk.theta)
        th = sk.theta.values
        log_th = np.log(th)
        prod_density = kappa * _grad_sq_values(log_th, grid) + sk.phi_t.values**2 / th
        if eps > 0:
            prod_density = prod_density - eps * th ** (p - 1.0)
        production += dt * float(np.sum(vt[k] * prod_density)) * vol
        rhs += dt * (
            kappa * _dirichlet_values(log_th, vt[k], grid)
            - float(np.sum(vt_dot[k] * (log_th + sk.phi.values))) * vol
        )
        sn = traj[n]
        _check_positive(sn.theta)
        boundary_n = float(np.sum(vt[n] * (np.log(sn.theta.values) + sn.phi.values))) * vol
        lhs = -boundary_n + boundary0 + production
        margins[n - 1] = rhs - lhs
        values[n - 1] = boundary_n
    return EntropyCheckReport(test_fn.name, traj.times[1:], margins, values)


# --- floors ------------------------------------------------------------------


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

    @property
    def all_pass(self) -> bool:
        return bool(np.all(self.theta_ok) and np.all(self.phi_ok))

    def csv_rows(self, which: str = "theta"):
        header = ["step", "t", "value", "margin", "pass"]
        if which == "theta":
            vals, floors, oks = self.theta_min, self.theta_floor, self.theta_ok
        else:
            vals, floors, oks = self.phi_min, self.phi_floor, self.phi_ok
        rows = [
            (n, self.times[n], vals[n], vals[n] - floors[n], bool(oks[n]))
            for n in range(len(self.times))
        ]
        return header, rows


def floors_check(
    traj: Trajectory, p: float | None = None, *, lam: float, tol: float = 1e-10
) -> FloorsReport:
    """Verify the temperature minimum principle and the phase lower bound.

    The temperature envelope is advanced between trajectory times with the
    same 4th-order integrator as ``positivity_floor`` (a few substeps per dt
    interval; agrees with the single-shot integrator to round-off). lam is the
    potential's convexity constant, which sets the phase floor's growth rate.
    """
    p = traj.config.p if p is None else p
    times = traj.times
    theta_min = np.array([s.theta.min() for s in traj])
    phi_min = np.array([s.phi.min() for s in traj])
    K = max(0.0, -phi_min[0])

    theta_floor = np.empty(len(traj))
    theta_floor[0] = h = theta_min[0]
    for n in range(1, len(traj)):
        h = _rk4_advance(h, times[n] - times[n - 1], 4, p)
        theta_floor[n] = h
    phi_fl = np.array([phase_floor(t - times[0], K, lam) for t in times])
    return FloorsReport(times, theta_min, theta_floor, phi_min, phi_fl, tol)
