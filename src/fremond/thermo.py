"""Thermodynamic functionals and inequality checkers along trajectories.

Checked structures, with their continuum statements:

  energy:   E(t) = int( theta + F(phi) + |grad phi|^2 / 2 );
            E(t^n) + eps * sum_{k<=n} dt * int theta_k^p = E(t^0) for the
            regularized scheme (equality up to splitting error), E
            nonincreasing in the limit.

  entropy:  for test functions vartheta(x) >= 0 of space alone (so the
            weak form's vartheta_t (log theta + phi) term is zero),
            -int vartheta (log theta(t) + phi(t)) + int vartheta (...)(0)
            + int_0^t int vartheta (kappa |grad log theta|^2 + phi_t^2/theta
            - eps theta^{p-1})  <=  int_0^t int kappa grad log theta . grad vartheta.
            The eps theta^{p-1} production term belongs to the regularized
            system's entropy balance (it is exactly what the simulated
            equations dissipate); with it the discrete margin measures pure
            discretization error and shrinks under refinement. Setting eps=0
            recovers the limit inequality verbatim.

  floors:   min theta(t) >= h(t) with h' = -c h^p - h^2/2, h(0) = min theta_0, c = max(1, eps)
            (a spatial minimum has theta_t >= -theta^2/4 - eps theta^p);
            min phi(t) >= -K e^{2 lam t} with K = max(0, -min phi_0).

Discrete transcription conventions (fixed here for reproducibility): time
integrals by the left-endpoint rule, but the energy check's regularization sum
by the right endpoint, as the implicit scheme; phi_t at the initial instant is
the stored convention value (zero unless the PDE initializer was requested).
``energy`` given a trajectory's stacked State (``Trajectory.stack``) returns
each quantity's series over time; the checks take their series that way.

Memory: ``energy`` on a stacked State and the energy and entropy checks work
through blocks of whole states (``_by_blocks``), so each holds the trajectory plus
about one block. Each state's terms are reduced as in one whole-array pass, and
each running sum runs once over the full series, so the results keep every bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Grid, _dirichlet_values, _grad_sq_values
from .potential import Potential
from .stepper import State, Trajectory

# Values per temporary array of a pass over a trajectory (128 KB of float64). Each
# pass works through whole states, at least one per block, so that it holds the
# trajectory plus about one block. Temporaries of this size are reused from the
# heap; larger ones cross glibc's 128 KB mmap threshold and are mapped afresh:
# simulate + check on presets/cosine.cfg peaked at 66.3 MB RSS with 2^16 against
# 63.9 MB with 2^14, while 2^12 saved only 0.4 MB more for four times the blocks.
BLOCK_VALUES = 2**14

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


def _by_blocks(terms: Callable[[slice], tuple], values: np.ndarray) -> tuple:
    """Each series of terms(b), joined over the blocks b of whole states along the leading axis
    of stacked values: each block is BLOCK_VALUES values or one state, whichever is more, and
    with no states terms gets one empty block, so that each series is empty."""
    per = max(1, BLOCK_VALUES // math.prod(values.shape[1:]))
    blocks = [terms(slice(a, a + per)) for a in range(0, max(len(values), 1), per)]
    return tuple(np.concatenate(series) for series in zip(*blocks))


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


def _energy_terms(th: np.ndarray, ph: np.ndarray, g: Grid, potential: Potential) -> tuple:
    """EnergyReport's fields after t, per leading index of the values (one number for one state)."""
    vol, axes = g.cell_volume, g.axes
    e_grad = 0.5 * _dirichlet_values(ph, ph, g)
    e_pot = np.sum(potential.eval(ph, 0), axis=axes) * vol
    e_th = np.sum(th, axis=axes) * vol
    log_th = np.log(th)
    return (e_grad + e_pot + e_th, e_grad, e_pot, e_th, np.sum(log_th + ph, axis=axes) * vol,
            np.sum(th * log_th, axis=axes) * vol, th.min(axis=axes), ph.min(axis=axes))


def energy(state: State, potential: Potential) -> EnergyReport:
    """Total energy split into gradient, potential and thermal parts, plus the
    entropy integral and the Orlicz quantity int theta log theta; for a
    stacked State, each one as its series over time, computed block by block
    (``_by_blocks``)."""
    th, ph = state.theta.values, state.phi.values
    if np.ndim(state.t) == 0:
        return EnergyReport(state.t, *_energy_terms(th, ph, state.grid, potential))
    return EnergyReport(state.t, *_by_blocks(lambda b: _energy_terms(th[b], ph[b], state.grid, potential), th))


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
        later = traj.stack.theta.values[1:]
        regs[1:] = _by_blocks(lambda b: (eps * dt * np.sum(later[b] ** p, axis=g.axes) * g.cell_volume,), later)[0]
    regs = np.cumsum(regs)
    return EnergyCheckReport(traj.times, energies, regs, energies[0] - energies - regs)


# --- entropy ----------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """Nonnegative test function of space alone: fn(grid) is its field on the grid."""

    name: str
    fn: Callable[[Grid], np.ndarray]

    def sample(self, grid: Grid) -> np.ndarray:
        """The field, of shape grid.shape."""
        vals = np.broadcast_to(np.asarray(self.fn(grid), dtype=float), grid.shape)
        if vals.min() < 0:
            raise ValueError(f"test function {self.name!r} is negative")
        return vals

    def __call__(self) -> "TestFunction":
        """The test function itself, so that ``TEST_FUNCTIONS[name]()`` reads as a factory call."""
        return self


TEST_FUNCTIONS: dict[str, TestFunction] = {
    "one": TestFunction("one", lambda grid: np.ones(grid.shape)),
    "cosine": TestFunction("cosine", lambda grid: 1.0 + 0.5 * grid.cosine_mode()),
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
    kappa, eps, p, dt = traj.config.kappa, traj.config.epsilon, traj.config.p, traj.config.dt
    s, grid, times = traj.stack, traj.grid, traj.times
    vol, axes = grid.cell_volume, grid.axes
    theta, phi, phi_t = s.theta.values, s.phi.values, s.phi_t.values
    vt = test_fn.sample(grid)

    def terms(b: slice) -> tuple:
        th = theta[b]
        log_th = np.log(th)
        boundary = np.sum(vt * (log_th + phi[b]), axis=axes) * vol  # int vartheta (log th + phi)
        flux = dt * (kappa * _dirichlet_values(log_th, vt, grid))    # dt int kappa grad log th . grad vartheta
        # dt int vartheta (kappa |grad log th|^2 + phi_t^2/th - eps th^{p-1}), in-place updates bound the temporaries
        density = _grad_sq_values(log_th, grid)
        density *= kappa
        density += phi_t[b] ** 2 / th
        if eps > 0:
            density -= eps * th ** (p - 1.0)
        density *= vt
        return boundary, flux, dt * np.sum(density, axis=axes) * vol

    boundary, flux, production = _by_blocks(terms, theta)
    lhs = -boundary[1:] + boundary[0] + np.cumsum(production[:-1])
    return EntropyCheckReport(times[1:], np.cumsum(flux[:-1]) - lhs, boundary[1:], 100.0 * dt)


# --- floors ------------------------------------------------------------------


def _floor_rhs(h: float, p: float, c: float) -> float:
    return -(c * math.copysign(abs(h) ** p, h)) - 0.5 * h * h


# The most RK4 substeps ``_rk4_advance`` takes over one interval (about 0.15 s).
FLOOR_MAX_SUBSTEPS = 100_000


def _substeps(h: float, width: float, p: float, c: float) -> float:
    """RK4 substeps over width from h, unrounded: each at most 0.025 / g'(h), where g(h) = c h^p + h^2/2
    is the envelope's decay rate and g' is largest at the interval's start, since the envelope decreases.
    At 0.025 the floor of a stiff interval (theta_0 = 4.8, p = 6, width 1/64: about 9300 substeps) agrees
    with an implicit reference to 1e-10; at 0.5 RK4 is stable but 1e-6 off."""
    return width * (c * p * abs(h) ** (p - 1.0) + abs(h)) / 0.025


def _rk4_advance(h: float, width: float, p: float, c: float) -> float:
    """The envelope h' = -g(h) advanced over width by RK4 in max(4, ``_substeps``) equal substeps. Past
    FLOOR_MAX_SUBSTEPS the closed form of k' = -(c + 1/2) k^q, q = max(p, 2), k(0) = h, stands in while
    k >= 1: there g(h) <= (c + 1/2) h^q, so k <= h is a looser floor. RK4 resumes from k = 1, capped."""
    if h > 1.0 and _substeps(h, width, p, c) > FLOOR_MAX_SUBSTEPS:
        q = max(p, 2.0)
        rate = (c + 0.5) * (q - 1.0)
        to_one = (1.0 - h ** (1.0 - q)) / rate  # when k reaches 1
        if to_one >= width:
            return (h ** (1.0 - q) + rate * width) ** (1.0 / (1.0 - q))
        h, width = 1.0, width - to_one
    n = max(4, math.ceil(min(_substeps(h, width, p, c), FLOOR_MAX_SUBSTEPS)))
    dt = width / n
    for _ in range(n):
        k1 = _floor_rhs(h, p, c)
        k2 = _floor_rhs(h + 0.5 * dt * k1, p, c)
        k3 = _floor_rhs(h + 0.5 * dt * k2, p, c)
        k4 = _floor_rhs(h + dt * k3, p, c)
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

    def csv_columns(self, which: str):
        vals, floors, oks = ((self.theta_min, self.theta_floor, self.theta_ok) if which == "theta" else
                             (self.phi_min, self.phi_floor, self.phi_ok))
        return ["step", "t", "value", "margin", "pass"], [np.arange(len(self.times)), self.times, vals, vals - floors, oks]


def floors_check(traj: Trajectory, *, lam: float, tol: float = 1e-10) -> FloorsReport:
    """Verify the temperature minimum principle and the phase lower bound.

    The temperature envelope h' = -c h^p - h^2/2, c = max(1, eps), from h = min theta_0
    (a decay at least as fast as the heat equation allows at a spatial minimum) is
    advanced between trajectory times by classical 4th-order steps (``_rk4_advance``):
    max(4, ceil(width (c p h^{p-1} + h) / 0.025)) of them, h taken at the interval's start,
    at most FLOOR_MAX_SUBSTEPS, past which a closed-form looser floor stands in while it is
    at least 1. lam is the potential's convexity constant, which sets the phase floor's
    growth rate.
    """
    times, axes = traj.times, traj.grid.axes
    theta_min = traj.stack.theta.values.min(axis=axes)
    phi_min = traj.stack.phi.values.min(axis=axes)
    K = max(0.0, -phi_min[0])

    theta_floor, c = [theta_min[0]], max(1.0, traj.config.epsilon)
    for step in np.diff(times):
        theta_floor.append(_rk4_advance(theta_floor[-1], step, traj.config.p, c))
    phi_fl = np.array([_phase_floor(t - times[0], K, lam) for t in times])
    return FloorsReport(times, theta_min, np.array(theta_floor), phi_min, phi_fl, tol)
