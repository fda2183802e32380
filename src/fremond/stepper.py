"""Time integration of the regularized temperature/phase system.

One step from (theta, phi) at t to t+dt solves, by an outer Picard iteration
over the temperature input theta_bar,

    phase:  (phi+ - phi)/dt - lap phi+ + G'(phi+) - 2 lam phi = theta_bar
    heat:   (th+ - th)/dt - kappa lap th+ + eps (th+)^p + th+ d = d^2,
            d := (phi+ - phi)/dt

i.e. backward Euler with the convex part G' implicit and the concave
quadratic remainder explicit (unconditional gradient stability of the
isothermal part), and with the regularization and coupling terms fully
implicit. The odd power (r)^p = |r|^{p-1} r keeps the regularization
monotone even if a Newton iterate dips negative. Positivity of the
temperature result is asserted, never projected: a nonpositive cell is a
solver failure, not something to clip, because every downstream diagnostic
(entropy, log-distances, floors) would silently go wrong.

Each inner equation is solved by Newton; the linearized operators
(1/dt) I - lap + G''(phi)  and  (1/dt) I - kappa lap + diag(eps p |th|^{p-1} + d)
are symmetric positive definite in all sane regimes and are solved directly
(tridiagonal) in 1D and by Jacobi-preconditioned conjugate gradients in 2D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded

from .errors import (
    ConfigError,
    FixedPointDiverged,
    LinearSolveFailed,
    NewtonDiverged,
    NonpositiveTemperature,
    PositivityLost,
    SimulationAborted,
)
from .grid import Field, Grid, _lap_values, same_grid
from .potential import Potential

__all__ = [
    "SchemeConfig",
    "State",
    "Trajectory",
    "initial_state",
    "phase_step",
    "heat_step",
    "step",
    "march",
    "simulate",
    "pde_phase_rate",
    "positivity_floor",
    "phase_floor",
]


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme parameters: physics (kappa, epsilon, p), step size, solver controls.

    newton_tol bounds the residual L2 norm relative to max(1, ||u||/dt), the
    natural residual scale of a backward-Euler solve (plain absolute tolerance
    whenever ||u||/dt <= 1); fp_tol and linear_tol are relative throughout.
    """

    dt: float
    kappa: float = 1.0
    epsilon: float = 1e-3
    p: float = 4.0
    fp_tol: float = 1e-10
    fp_max_iter: int = 50
    newton_tol: float = 1e-11
    newton_max_iter: int = 30
    linear_tol: float = 1e-12

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.kappa <= 0:
            raise ConfigError("kappa must be positive")
        if self.epsilon < 0:
            raise ConfigError("epsilon must be nonnegative")
        if self.epsilon > 0 and self.p <= 3:
            raise ConfigError("p must exceed 3 when epsilon > 0")
        for name in ("fp_tol", "newton_tol", "linear_tol"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.fp_max_iter < 1 or self.newton_max_iter < 1:
            raise ConfigError("iteration limits must be at least 1")

    def with_(self, **kw) -> "SchemeConfig":
        return replace(self, **kw)


@dataclass
class State:
    """Snapshot (t, theta, phi) plus the backward difference phi_t.

    phi_t is (phi^n - phi^{n-1})/dt along a trajectory and zero at the initial
    instant by convention (no earlier phase value exists); the PDE-consistent
    alternative lap(phi0) - F'(phi0) + theta0 is available through
    ``initial_state(..., phi_t_mode="pde")``.
    """

    t: float
    theta: Field
    phi: Field
    phi_t: Field

    def __post_init__(self):
        if not (same_grid(self.theta.grid, self.phi.grid) and same_grid(self.theta.grid, self.phi_t.grid)):
            raise ValueError("state fields live on different grids")
        tmin = self.theta.min()
        if tmin <= 0.0:
            raise NonpositiveTemperature(f"min theta = {tmin:.3g} at t = {self.t:.6g}")

    @property
    def grid(self) -> Grid:
        return self.theta.grid


@dataclass
class Trajectory:
    """States at uniformly spaced, strictly increasing times."""

    states: list[State]
    config: SchemeConfig

    def __post_init__(self):
        ts = [s.t for s in self.states]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("trajectory times must be strictly increasing")
        if len(ts) >= 2:
            steps = np.diff(ts)
            if np.max(np.abs(steps - self.config.dt)) > 1e-8 * self.config.dt:
                raise ValueError("trajectory does not have uniform dt")

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, i) -> State:
        return self.states[i]

    def __iter__(self):
        return iter(self.states)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    @property
    def grid(self) -> Grid:
        return self.states[0].grid


def pde_phase_rate(theta: Field, phi: Field, potential: Potential) -> np.ndarray:
    """The phase rate the PDE prescribes, lap phi - F'(phi) + theta."""
    return _lap_values(phi.values, phi.grid) - potential.eval(phi.values, 1) + theta.values


def initial_state(
    grid: Grid,
    theta0: Field | np.ndarray,
    phi0: Field | np.ndarray,
    phi_t_mode: str = "zero",
    potential: Potential | None = None,
    t: float = 0.0,
) -> State:
    theta = theta0 if isinstance(theta0, Field) else Field(grid, theta0)
    phi = phi0 if isinstance(phi0, Field) else Field(grid, phi0)
    if phi_t_mode == "zero":
        phi_t = Field.zeros(grid)
    elif phi_t_mode == "pde":
        if potential is None:
            raise ConfigError("phi_t_mode='pde' needs the potential")
        phi_t = Field(grid, pde_phase_rate(theta, phi, potential))
    else:
        raise ConfigError(f"unknown phi_t_mode {phi_t_mode!r}")
    return State(t, theta, phi, phi_t)


# --- linear solves ---------------------------------------------------------


def _neg_lap_diag(grid: Grid) -> np.ndarray:
    """Diagonal of -lap with mirrored ghosts: one 1/h^2 per interior face."""
    diag = np.zeros(grid.shape)
    for axis in range(grid.dim):
        contrib = np.full(grid.n[axis], 2.0) / grid.h[axis] ** 2
        contrib[0] /= 2.0
        contrib[-1] /= 2.0
        shape = [1] * grid.dim
        shape[axis] = grid.n[axis]
        diag = diag + contrib.reshape(shape)
    return diag


def _solve_helmholtz(diag: np.ndarray, c: float, rhs: np.ndarray, grid: Grid, tol: float) -> np.ndarray:
    """Solve (diag(v) + c * (-lap)) x = rhs. Direct tridiagonal in 1D, PCG in 2D."""
    if grid.dim == 1:
        n = grid.n[0]
        w = c / grid.h[0] ** 2
        ab = np.zeros((3, n))
        ab[1] = diag + 2.0 * w
        ab[1, 0] -= w
        ab[1, -1] -= w
        ab[0, 1:] = -w
        ab[2, :-1] = -w
        return solve_banded((1, 1), ab, rhs)
    return _pcg(diag, c, rhs, grid, tol)


def _pcg(diag: np.ndarray, c: float, rhs: np.ndarray, grid: Grid, tol: float) -> np.ndarray:
    precond = 1.0 / (diag + c * _neg_lap_diag(grid))

    def apply(x):
        return diag * x - c * _lap_values(x, grid)

    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = precond * r
    d = z.copy()
    rz = float(np.sum(r * z))
    bnorm = float(np.sqrt(np.sum(rhs * rhs)))
    stop = max(tol * bnorm, 1e-300)
    max_iter = 20 * grid.num_cells
    for _ in range(max_iter):
        if math.sqrt(float(np.sum(r * r))) <= stop:
            return x
        ad = apply(d)
        dad = float(np.sum(d * ad))
        if dad <= 0.0 or not math.isfinite(dad):
            raise LinearSolveFailed("operator lost positive definiteness")
        alpha = rz / dad
        x += alpha * d
        r -= alpha * ad
        z = precond * r
        rz_new = float(np.sum(r * z))
        d = z + (rz_new / rz) * d
        rz = rz_new
    raise LinearSolveFailed(f"CG did not reach tol={tol:g} in {max_iter} iterations")


# --- Newton solves for the two equations -----------------------------------


def _odd_power(u: np.ndarray, p: float) -> np.ndarray:
    return np.sign(u) * np.abs(u) ** p


def _l2(v: np.ndarray, vol: float) -> float:
    return math.sqrt(float(np.sum(v * v)) * vol)


def _newton_threshold(u_old: np.ndarray, dt: float, tol: float, vol: float) -> float:
    # the residual carries a 1/dt-scaled identity term, so the reachable
    # floor grows like ||u||/dt in round-off; tolerance is relative to that
    # scale (and exactly `tol` whenever ||u||/dt <= 1)
    return tol * max(1.0, _l2(u_old, vol) / dt)


def _phase_newton(
    phi_old: np.ndarray, theta_bar: np.ndarray, cfg: SchemeConfig, pot: Potential, grid: Grid
) -> tuple[np.ndarray, int]:
    dt, lam, vol = cfg.dt, pot.lam, grid.cell_volume
    rhs = phi_old / dt + 2.0 * lam * phi_old + theta_bar
    u = phi_old.copy()
    thresh = _newton_threshold(phi_old, dt, cfg.newton_tol, vol)
    for it in range(cfg.newton_max_iter + 1):
        res = u / dt - _lap_values(u, grid) + pot.convex(u, 1) - rhs
        rnorm = _l2(res, vol)
        if not math.isfinite(rnorm):
            raise NewtonDiverged("phase solve produced non-finite residual")
        if rnorm <= thresh:
            return u, it
        diag = 1.0 / dt + pot.convex(u, 2)
        u = u + _solve_helmholtz(diag, 1.0, -res, grid, cfg.linear_tol)
    raise NewtonDiverged(
        f"phase Newton stalled at residual {rnorm:.3g} (tol {thresh:g}); dt too large?"
    )


def _heat_newton(
    theta_old: np.ndarray, d: np.ndarray, cfg: SchemeConfig, grid: Grid
) -> tuple[np.ndarray, int]:
    dt, kappa, eps, p, vol = cfg.dt, cfg.kappa, cfg.epsilon, cfg.p, grid.cell_volume
    rhs = theta_old / dt + d * d
    u = theta_old.copy()
    thresh = _newton_threshold(theta_old, dt, cfg.newton_tol, vol)
    for it in range(cfg.newton_max_iter + 1):
        res = u / dt - kappa * _lap_values(u, grid) + u * d - rhs
        if eps > 0.0:
            res = res + eps * _odd_power(u, p)
        rnorm = _l2(res, vol)
        if not math.isfinite(rnorm):
            raise NewtonDiverged("heat solve produced non-finite residual")
        if rnorm <= thresh:
            return u, it
        diag = 1.0 / dt + d
        if eps > 0.0:
            diag = diag + eps * p * np.abs(u) ** (p - 1.0)
        u = u + _solve_helmholtz(diag, kappa, -res, grid, cfg.linear_tol)
    raise NewtonDiverged(
        f"heat Newton stalled at residual {rnorm:.3g} (tol {thresh:g}); dt too large?"
    )


def _assert_positive(theta: np.ndarray, t: float) -> None:
    tmin = float(theta.min())
    if tmin <= 0.0:
        raise PositivityLost(f"temperature reached {tmin:.3g} at t = {t:.6g}; dt too large for |phi_t|")


def phase_step(prev: State, theta_bar: Field, cfg: SchemeConfig, potential: Potential) -> Field:
    """Backward-Euler phase update for a given temperature input."""
    phi_new, _ = _phase_newton(prev.phi.values, theta_bar.values, cfg, potential, prev.grid)
    return Field(prev.grid, phi_new)


def heat_step(prev: State, phi_new: Field, cfg: SchemeConfig) -> Field:
    """Backward-Euler heat update given the new phase; asserts positivity."""
    d = (phi_new.values - prev.phi.values) / cfg.dt
    theta_new, _ = _heat_newton(prev.theta.values, d, cfg, prev.grid)
    _assert_positive(theta_new, prev.t + cfg.dt)
    return Field(prev.grid, theta_new)


def step(prev: State, cfg: SchemeConfig, potential: Potential, stats: dict | None = None) -> State:
    """One full time step: Picard iteration of the phase-then-heat map.

    The iteration starts from theta_bar = prev.theta and stops when two
    successive temperature outputs agree to fp_tol in relative L2.
    """
    grid = prev.grid
    vol = grid.cell_volume
    theta_bar = prev.theta.values
    picard = 0
    for _ in range(cfg.fp_max_iter):
        picard += 1
        phi_new, _ = _phase_newton(prev.phi.values, theta_bar, cfg, potential, grid)
        d = (phi_new - prev.phi.values) / cfg.dt
        theta_new, _ = _heat_newton(prev.theta.values, d, cfg, grid)
        if _l2(theta_new - theta_bar, vol) <= cfg.fp_tol * _l2(theta_bar, vol):
            break
        theta_bar = theta_new
    else:
        raise FixedPointDiverged(
            f"phase/heat coupling did not contract in {cfg.fp_max_iter} iterations; dt too large?"
        )
    if stats is not None:
        stats["picard_iterations"] = picard
    _assert_positive(theta_new, prev.t + cfg.dt)
    return State(prev.t + cfg.dt, Field(grid, theta_new), Field(grid, phi_new), Field(grid, d))


def march(init: State, cfg: SchemeConfig, t_end: float, advance: Callable[[State], State]) -> Trajectory:
    """March from init.t to t_end in uniform dt steps of ``advance``.

    t_end - init.t must be an integer multiple of dt to round-off. On a step
    failure the partial trajectory is attached to the raised SimulationAborted.
    """
    span = t_end - init.t
    if span < 0:
        raise ConfigError("t_end lies before the initial time")
    n_steps = int(round(span / cfg.dt)) if span > 0 else 0
    if abs(n_steps * cfg.dt - span) > 1e-8 * max(cfg.dt, span):
        raise ConfigError(f"(t_end - t0) = {span:g} is not an integer multiple of dt = {cfg.dt:g}")
    states = [init]
    current = init
    for k in range(n_steps):
        try:
            current = advance(current)
        except (NewtonDiverged, FixedPointDiverged, PositivityLost, LinearSolveFailed) as exc:
            raise SimulationAborted(k + 1, exc, Trajectory(states, cfg)) from exc
        # rebuild the time to keep the spacing exactly uniform
        current.t = init.t + (k + 1) * cfg.dt
        states.append(current)
    return Trajectory(states, cfg)


def simulate(init: State, cfg: SchemeConfig, potential: Potential, t_end: float) -> Trajectory:
    """March the coupled system from init.t to t_end (see ``march``)."""
    # ``step`` is looked up per call, so a wrapper installed on the module sees every step
    return march(init, cfg, t_end, lambda state: step(state, cfg, potential))


# --- analytic floors --------------------------------------------------------


def _floor_rhs(h: float, p: float) -> float:
    return -(math.copysign(abs(h) ** p, h)) - 0.5 * h * h


def _rk4_advance(h: float, width: float, substeps: int, p: float) -> float:
    dt = width / substeps
    for _ in range(substeps):
        k1 = _floor_rhs(h, p)
        k2 = _floor_rhs(h + 0.5 * dt * k1, p)
        k3 = _floor_rhs(h + 0.5 * dt * k2, p)
        k4 = _floor_rhs(h + dt * k3, p)
        h = h + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return h


def positivity_floor(t: float, theta_min0: float, p: float) -> float:
    """Lower envelope h(t) for the temperature minimum.

    h solves h' = -h^p - h^2/2 with h(0) = min theta_0 (the worst-case decay
    that the heat equation allows at a spatial minimum), integrated with a
    classical 4th-order one-step method at step t/10^4.
    """
    if theta_min0 <= 0:
        raise ValueError("theta_min0 must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return theta_min0
    return _rk4_advance(theta_min0, t, 10_000, p)


def phase_floor(t: float, K: float, lam: float) -> float:
    """Lower bound -K e^{2 lam t} for the phase field when phi_0 >= -K."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if K < 0:
        raise ValueError("K must be nonnegative")
    return -K * math.exp(2.0 * lam * t)
