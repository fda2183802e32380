"""Time integration of the regularized temperature/phase system.

One step from (theta, phi) at t to t+dt solves the coupled system

    phase:  (phi+ - phi)/dt - lap phi+ + G'(phi+) - 2 lam phi = th+
    heat:   (th+ - th)/dt - kappa lap th+ + eps (th+)^p + th+ d = d^2,
            d := (phi+ - phi)/dt

i.e. backward Euler with the convex part G' implicit and the concave
quadratic remainder explicit (unconditional gradient stability of the
isothermal part), and with the regularization and coupling terms fully
implicit. The odd power (r)^p = |r|^{p-1} r keeps the regularization
monotone even if a Newton iterate dips negative. The temperature is never
projected: ``step`` and ``heat_step`` return a State, whose constructor is the one
test of theta > 0, and ``march`` fails the step on a nonpositive cell, since every
downstream diagnostic (entropy, log-distances, floors) would go wrong on a clipped one.

``step`` solves it by coupled Gauss-Seidel-Newton sweeps (Newton-SOR family;
Ortega & Rheinboldt 1970): one Newton update of the phase equation at the
current temperature, then one of the heat equation at the updated rate d,
until both residuals meet their thresholds. ``phase_step`` and ``heat_step``
run Newton on one equation with the other's input fixed. The linearized
operators (1/dt) I - lap + G''(phi) and (1/dt) I - kappa lap + diag(eps p |th|^{p-1} + d)
are symmetric positive definite in all sane regimes and are solved directly
(tridiagonal) in 1D and in 2D by conjugate gradients preconditioned with the exact
inverse of their mean shift plus the Laplacian part, which the DCT-II diagonalizes.
``step`` keeps phi and theta in one (2, ...) work array, so a check forms both implicit parts
u/dt - c lap u (c = 1 for phi, kappa for theta) in one stacked pass, whose rows ``_phase_left`` and
``_heat_terms`` take, and one norm of both residuals, stacked in one buffer. Each heat iterate's
terms in theta alone serve its residual and Jacobian at every rate d. A step's final check leaves
its pieces in u alone (the phase left side and the heat terms) on the State it returns
(``State._pieces``); the next step's first check, on the same arrays, reuses them if its cfg and
potential are the very objects that made them. A State built any other way has none. Every Newton
update solves for the residual, not its negation, and subtracts (``_update``).

Every solve also marches a batch of runs that share the grid, dt and potential:
field values then carry a leading member axis, (m, *grid.shape). Each member
has its own residual thresholds, and one freeze rule (``_update``) serves every
Newton update: a member that has met them gets its previous values back, so it
comes out bitwise equal to its solo solve. In 1D all members go through one
tridiagonal solve, their blocks decoupled by zero off-diagonal entries at the
seams; in 2D through one conjugate-gradient solve, whose inner products reduce
over each member's grid axes and whose steps stop member by member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from . import thermo
from .errors import ConfigError, NonpositiveTemperature, SimulationAborted, SolverError
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
]


NEWTON_TOL = 1e-11  # each equation's residual L2 norm, relative to max(1, ||u||/dt) (``_threshold``)
LINEAR_TOL = 1e-12  # relative residual of the 2D conjugate-gradient solves


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme parameters: physics (kappa, epsilon, p), step size and one iteration cap.

    fp_max_iter bounds every nonlinear solve: the coupled sweeps of ``step``
    and the Newton iterations of ``phase_step`` and ``heat_step``, each
    counting its residual checks, the final one included.
    """

    dt: float
    kappa: float = 1.0
    epsilon: float = 1e-3
    p: float = 4.0
    fp_max_iter: int = 50

    def __post_init__(self):
        if not all(map(math.isfinite, (self.dt, self.kappa, self.epsilon, self.p))):
            raise ConfigError(f"dt, kappa, epsilon, p = {self.dt}, {self.kappa}, {self.epsilon}, {self.p}: not finite")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.kappa <= 0:
            raise ConfigError("kappa must be positive")
        if self.epsilon < 0:
            raise ConfigError("epsilon must be nonnegative")
        if self.epsilon > 0 and self.p <= 3:
            raise ConfigError("p must exceed 3 when epsilon > 0")
        if self.fp_max_iter < 1:
            raise ConfigError("fp_max_iter must be at least 1")

    def whole_steps(self, span: float) -> int:
        """span / dt, a ConfigError unless it is finite, a whole number to round-off and nonzero for span > 0."""
        if not math.isfinite(ratio := span / self.dt):
            raise ConfigError(f"(t_end - t0) = {span:g} takes too many steps of dt = {self.dt:g} to count")
        if abs((count := round(ratio)) * self.dt - span) > 1e-8 * max(self.dt, span) or count == 0 < span:
            raise ConfigError(f"(t_end - t0) = {span:g} is not an integer multiple of dt = {self.dt:g}")
        return count


@dataclass
class State:
    """Snapshot (t, theta, phi) plus the backward difference phi_t.

    phi_t is (phi^n - phi^{n-1})/dt along a trajectory and zero at the initial
    instant by convention (no earlier phase value exists); the PDE-consistent
    alternative lap(phi0) - F'(phi0) + theta0 is available through
    ``initial_state(..., phi_t_mode="pde")``.
    A trajectory's states stack into one State (``Trajectory.stack``), with
    t the array of times and field values of shape (len(t), *grid.shape).
    A batch of runs (``step``) stacks along a member axis after t's axes:
    values of shape (m, *grid.shape) at one instant, (len(t), m, *grid.shape)
    along a trajectory.
    A State that ``step`` returns also keeps, privately, its final check's pieces with the
    (cfg, potential) that made them; the next ``step`` reuses them only under the same objects.
    Every other State (hand-built, indexed from a Trajectory, loaded) has none.
    Building a State is the one test of theta > 0 on a state or a trajectory (NonpositiveTemperature).
    """

    t: float | np.ndarray
    theta: Field
    phi: Field
    phi_t: Field
    _pieces: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (same_grid(self.theta.grid, self.phi.grid) and same_grid(self.theta.grid, self.phi_t.grid)):
            raise ValueError("state fields live on different grids")
        tmin = self.theta.min()
        if tmin <= 0.0:
            raise NonpositiveTemperature(f"min theta = {tmin:.3g} at {_locate_min(self.theta.values, self.t, self.grid)}")

    @property
    def grid(self) -> Grid:
        return self.theta.grid


@dataclass
class Trajectory:
    """States at uniformly spaced, strictly increasing times, held and validated
    as one stacked State; ``traj[k]`` and iteration give per-state views into it.
    A diagnostic given ``traj.stack`` returns its series over time."""

    stack: State
    config: SchemeConfig

    @classmethod
    def of(cls, t: np.ndarray, theta: np.ndarray, phi: np.ndarray, phi_t0: Field, config: SchemeConfig) -> "Trajectory":
        """The trajectory of stacked theta and phi values at times t, on phi_t0's grid: phi_t is phi_t0 at t[0]
        and the backward difference (phi^n - phi^{n-1})/dt after it, the one rule of marched and loaded runs."""
        phi_t = np.empty_like(phi)
        phi_t[0] = phi_t0.values
        np.subtract(phi[1:], phi[:-1], out=phi_t[1:])
        phi_t[1:] /= config.dt
        return cls(State(t, *(Field(phi_t0.grid, v) for v in (theta, phi, phi_t))), config)

    def __post_init__(self):
        _check_times(self.stack.t, self.config.dt)

    def __len__(self) -> int:
        return len(self.stack.t)

    def __getitem__(self, k) -> State:
        s = self.stack
        return State(s.t[k], *(Field(f.grid, f.values[k]) for f in (s.theta, s.phi, s.phi_t)))

    def member(self, j: int) -> "Trajectory":
        """Member j of a batch's trajectory (values (len(t), m, *grid.shape)), as views into it."""
        s = self.stack
        return Trajectory(State(s.t, *(Field(f.grid, f.values[:, j]) for f in (s.theta, s.phi, s.phi_t))), self.config)

    @property
    def times(self) -> np.ndarray:
        return self.stack.t

    @property
    def grid(self) -> Grid:
        return self.stack.grid


def _check_times(t: np.ndarray, dt: float) -> None:
    """ValueError unless the times t increase strictly, each step dt to 1e-8 relative."""
    if not np.all((steps := np.diff(t)) > 0):
        raise ValueError("trajectory times must be strictly increasing")
    if np.any(np.abs(steps - dt) > 1e-8 * dt):
        raise ValueError("trajectory does not have uniform dt")


def _locate_min(values: np.ndarray, t: float | np.ndarray, grid: Grid) -> str:
    """Where the smallest of stacked values sits: its time and, when the values
    carry a member axis after t's axes, its member."""
    lead = np.unravel_index(int(np.argmin(values)), values.shape)[: values.ndim - grid.dim]
    k = np.ndim(t)
    where = f"t = {np.asarray(t)[lead[:k]]:.6g}"
    return where + (f" in member {', '.join(map(str, lead[k:]))}" if len(lead) > k else "")


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
        phi_t = Field(grid, np.zeros_like(phi.values))
    elif phi_t_mode == "pde":
        if potential is None:
            raise ConfigError("phi_t_mode='pde' needs the potential")
        if not np.isfinite(rate := _lap_values(phi.values, phi.grid) - potential.eval(phi.values, 1) + theta.values).all():
            raise ConfigError("initial.phi_t = pde: the rate lap phi - F'(phi) + theta overflows (phi is too large)")
        phi_t = Field(grid, rate)
    else:
        raise ConfigError(f"unknown phi_t_mode {phi_t_mode!r}")
    return State(t, theta, phi, phi_t)


# --- linear solves ---------------------------------------------------------


@lru_cache(maxsize=None)
def _gtsv():
    """LAPACK's double-precision tridiagonal solver, imported at the first 1D solve, so a CLI start loads no scipy."""
    from scipy.linalg.lapack import dgtsv

    return dgtsv


@lru_cache(maxsize=64)
def _band(w: float, n: int, members: int) -> tuple[np.ndarray, np.ndarray]:
    """For the tridiagonal (-w, 2w, -w) with mirrored ends on ``members`` stacked blocks
    of n cells: the end-cell correction [w, 0, ..., 0, w] of the main diagonal, and the
    off-diagonal, zero at the block seams so that the blocks decouple exactly (gtsv then
    eliminates nothing across a seam). Read-only, as every call gets the same arrays."""
    edge = np.zeros(n)
    edge[0] = edge[-1] = w
    off = np.full(members * n - 1, -w)
    off[n - 1 :: n] = 0.0
    edge.flags.writeable = off.flags.writeable = False
    return edge, off


@lru_cache(maxsize=64)
def _neg_lap_eigenvalues(n: tuple[int, ...], h2: tuple[float, ...]) -> np.ndarray:
    """The eigenvalues of -lap with mirrored ghosts, sum over the axes of (2 - 2 cos(pi k / n)) / h^2,
    indexed like the orthonormal DCT-II coefficients that diagonalize it. Read-only, as ``_band``."""
    eig = 0.0
    for k, w in zip(n, h2):
        eig = np.add.outer(eig, (2.0 - 2.0 * np.cos(np.pi * np.arange(k) / k)) / w)
    eig.flags.writeable = False
    return eig


def _solve_helmholtz(diag: np.ndarray, c: float, rhs: np.ndarray, grid: Grid) -> np.ndarray:
    """Solve (diag(v) + c * (-lap)) x = rhs for every stacked member: in 1D by one direct tridiagonal
    solve, in 2D by one conjugate-gradient solve preconditioned per member by the exact inverse of
    mean(v) + c (-lap), which the orthonormal DCT-II diagonalizes. A member stops once its residual
    meets LINEAR_TOL ||rhs||; its steps are 0 from then on, so its x is bitwise that of a solo solve."""
    if grid.dim == 1:
        w = c / grid.h2[0]
        edge, off = _band(w, grid.n[0], rhs.size // grid.n[0])
        main = diag + 2.0 * w
        main -= edge
        x, info = _gtsv()(off, main.ravel(), off, rhs.ravel(), overwrite_d=True)[3:]
        if info != 0:
            raise SolverError(f"tridiagonal solve failed (LAPACK gtsv info = {info})")
        return x.reshape(rhs.shape)
    from scipy.fft import dctn, idctn  # here, not at module level: 1D runs and every CLI start skip its import

    axes = grid.axes

    def dot(a, b):
        return np.add.reduce(a * b, axis=axes, keepdims=True)

    shift = np.mean(diag, axis=axes, keepdims=True)
    if not np.all(shift > 0.0):  # else 1^T A 1 = sum(v) <= 0: A is not positive definite
        raise SolverError("operator lost positive definiteness")
    shift = shift + c * _neg_lap_eigenvalues(grid.n, grid.h2)
    x, r, d, rz = np.zeros_like(rhs), rhs.copy(), np.zeros_like(rhs), 1.0  # d = 0: the first direction is z
    stop = np.maximum(LINEAR_TOL * np.sqrt(dot(rhs, rhs)), 1e-300)
    max_iter = 20 * grid.num_cells
    for _ in range(max_iter):
        if np.all(done := np.sqrt(dot(r, r)) <= stop):
            return x
        z = idctn(dctn(r, axes=axes, norm="ortho") / shift, axes=axes, norm="ortho")
        rz_new = dot(r, z)
        d = z + np.divide(rz_new, rz, out=np.zeros_like(rz_new), where=~done) * d
        rz = rz_new
        ad = diag * d - c * _lap_values(d, grid)
        dad = dot(d, ad)
        if np.any(~done & ~((dad > 0.0) & (dad < np.inf))):
            raise SolverError("operator lost positive definiteness")
        alpha = np.divide(rz, dad, out=np.zeros_like(rz), where=~done)
        x += alpha * d
        r -= alpha * ad
    raise SolverError(f"CG did not reach tol={LINEAR_TOL:g} in {max_iter} iterations")


# --- the two equations and their solves ------------------------------------


def _l2(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Discrete L2 norm over the grid axes, one per stacked member."""
    return np.sqrt(np.add.reduce(v * v, axis=grid.axes) * grid.cell_volume)


def _threshold(u_old: np.ndarray, cfg: SchemeConfig, grid: Grid) -> np.ndarray:
    # the residual carries a 1/dt-scaled identity term, so its round-off floor grows
    # like ||u||/dt; the tolerance scales with it (exactly NEWTON_TOL if ||u||/dt <= 1)
    return NEWTON_TOL * np.maximum(1.0, _l2(u_old, grid) / cfg.dt)


def _residual_norm(names: tuple[str, ...], res: np.ndarray, grid: Grid) -> np.ndarray:
    """``_l2`` of res (two equations' residuals stacked, if two names); a SolverError names the first non-finite."""
    rnorm = _l2(res, grid)
    if not all(map(math.isfinite, rnorm.flat)):
        name = next(n for n, r in zip(names, rnorm.reshape(len(names), -1)) if not all(map(math.isfinite, r)))
        raise SolverError(f"{name} solve produced non-finite residual")
    return rnorm


def _phase_left(u: np.ndarray, implicit: np.ndarray, pot: Potential) -> np.ndarray:
    """u/dt - lap u + G'(u), from u's implicit part u/dt - lap u: the phase residual before it subtracts
    phi_old/dt + 2 lam phi_old + theta_bar."""
    return implicit + pot.convex(u, 1)


def _phase_jacobian(u: np.ndarray, cfg: SchemeConfig, pot: Potential) -> np.ndarray:
    return 1.0 / cfg.dt + pot.convex(u, 2)


def _heat_terms(u: np.ndarray, implicit: np.ndarray, cfg: SchemeConfig) -> tuple:
    """Heat terms in u alone, from u's implicit part u/dt - kappa lap u: that part, eps u^p and
    eps p |u|^{p-1} (None if eps = 0). Where min u > 0, sign(u) is 1 and |u| is u, so u itself gives
    the same bits; an iterate with a nonpositive or NaN cell takes the odd power through sign and abs."""
    if cfg.epsilon == 0.0:
        return implicit, None, None
    if u.min() > 0.0:
        a, power = u, u ** cfg.p
    else:
        a = np.abs(u)
        power = np.sign(u) * a ** cfg.p
    return implicit, cfg.epsilon * power, cfg.epsilon * cfg.p * a ** (cfg.p - 1.0)


def _heat_linearized(terms: tuple, u: np.ndarray, d: np.ndarray, rhs: np.ndarray, cfg: SchemeConfig,
                     out: np.ndarray | None = None) -> tuple:
    """From u's ``_heat_terms``: the heat residual (u/dt - kappa lap u + u d - rhs) + eps u^p, where rhs = theta_old/dt
    + d^2, written into ``out`` if given, and a thunk for the diagonal (1/dt + d) + eps p |u|^{p-1} of its Jacobian."""
    base, reg, dreg = terms
    res = np.subtract(base + u * d, rhs, out=out)
    jacobian_diag = (lambda: 1.0 / cfg.dt + d) if dreg is None else (lambda: 1.0 / cfg.dt + d + dreg)
    return (res if reg is None else np.add(res, reg, out=res)), jacobian_diag


def _update(u: np.ndarray, du: np.ndarray, done: np.ndarray) -> None:
    """u -= du in place, du solved for the residual itself (gtsv and CG are odd in the right side, so this is
    u + solve(-res) but for the sign of a -0.0 u stepped by zero), each done member's du zeroed first: the one
    freeze rule of every Newton update, so a converged member stays bitwise as it was (u - 0.0 is u)."""
    if any(done.flat):
        du[done] = 0.0
    u -= du


def _newton(name: str, u_old: np.ndarray, c: float, cfg: SchemeConfig, grid: Grid,
            linearize: Callable) -> np.ndarray:
    """Newton for res(u) = 0 from u_old, where linearize(u) gives res(u) and a thunk for the diagonal
    of the Jacobian diag(.) + c (-lap) at u. Each member meets its own threshold and then freezes (``_update``)."""
    u = u_old.copy()
    thresh = _threshold(u_old, cfg, grid)
    for _ in range(cfg.fp_max_iter):
        res, jacobian_diag = linearize(u)
        done = (rnorm := _residual_norm((name,), res, grid)) <= thresh
        if all(done.flat):
            return u
        _update(u, _solve_helmholtz(jacobian_diag(), c, res, grid), done)
    k = np.argmax(np.where(done, -1.0, rnorm))  # the largest residual among the members not yet done
    raise SolverError(f"{name} Newton stalled at residual {rnorm.flat[k]:.3g} (tol {thresh.flat[k]:g}); dt too large?")


def phase_step(prev: State, theta_bar: Field, cfg: SchemeConfig, potential: Potential) -> Field:
    """Backward-Euler phase update for a given temperature input (full Newton solve)."""
    grid, phi_old = prev.grid, prev.phi.values
    rhs = phi_old / cfg.dt + 2.0 * potential.lam * phi_old + theta_bar.values
    phi_new = _newton("phase", phi_old, 1.0, cfg, grid,
                      lambda u: (_phase_left(u, u / cfg.dt - _lap_values(u, grid), potential) - rhs,
                                 lambda: _phase_jacobian(u, cfg, potential)))
    return Field(grid, phi_new)


def heat_step(prev: State, phi_new: Field, cfg: SchemeConfig) -> State:
    """Backward-Euler heat update given the new phase (full Newton solve): the State (theta+, phi_new, d)
    at prev.t + dt, whose constructor raises NonpositiveTemperature if theta+ has a nonpositive cell."""
    grid = prev.grid
    d = (phi_new.values - prev.phi.values) / cfg.dt
    rhs = prev.theta.values / cfg.dt + d * d
    theta_new = _newton("heat", prev.theta.values, cfg.kappa, cfg, grid,
                        lambda u: _heat_linearized(_heat_terms(u, u / cfg.dt - cfg.kappa * _lap_values(u, grid), cfg),
                                                   u, d, rhs, cfg))
    return State(prev.t + cfg.dt, Field(grid, theta_new), phi_new, Field(grid, d))


def step(prev: State, cfg: SchemeConfig, potential: Potential, stats: dict | None = None) -> State:
    """One time step by coupled sweeps (module docstring): each checks both residuals at the current
    (phi, theta), in one stacked pass against both thresholds, then updates phi at the current theta and
    theta at the new rate d. With a member axis (module docstring) a member whose residuals both meet its
    thresholds freezes (``_update``), and the rest sweep on. ``stats["picard_iterations"]`` counts the
    sweeps, the final check included: those of the slowest member."""
    grid, dt, phi_old = prev.grid, cfg.dt, prev.phi.values
    phi, theta = work = np.array((phi_old, prev.theta.values))  # views, which each update overwrites
    tol, old_dt = _threshold(work, cfg, grid), work / dt  # before the first update
    phase_rhs = old_dt[0] + 2.0 * potential.lam * phi_old
    res, d = np.empty_like(work), np.zeros_like(phi_old)
    heat_rhs = theta_dt = old_dt[1]
    pieces = prev._pieces[2:] if prev._pieces and prev._pieces[0] is cfg and prev._pieces[1] is potential else None
    for sweep in range(1, cfg.fp_max_iter + 1):
        if pieces is None:  # both implicit parts u/dt - c lap u in one stacked pass: c = 1 for phi, kappa for theta
            lap = _lap_values(work, grid)
            lap[1] *= cfg.kappa
            implicit = work / dt
            implicit -= lap
            left, terms = _phase_left(phi, implicit[0], potential), _heat_terms(theta, implicit[1], cfg)
        else:
            (left, terms), pieces = pieces, None
        np.subtract(left, phase_rhs + theta, out=res[0])
        _heat_linearized(terms, theta, d, heat_rhs, cfg, res[1])
        norms = _residual_norm(("phase", "heat"), res, grid)
        done = np.logical_and.reduce(norms <= tol)
        if all(done.flat):
            break
        _update(phi, _solve_helmholtz(_phase_jacobian(phi, cfg, potential), 1.0, res[0], grid), done)
        d = (phi - phi_old) / dt
        heat_rhs = theta_dt + d * d
        heat_jacobian = _heat_linearized(terms, theta, d, heat_rhs, cfg, res[1])[1]
        _update(theta, _solve_helmholtz(heat_jacobian(), cfg.kappa, res[1], grid), done)
    else:
        raise SolverError(f"coupled sweeps did not converge in {cfg.fp_max_iter} iterations (phase residual "
                          f"{np.max(norms[0][~done]):.3g}, heat {np.max(norms[1][~done]):.3g}); dt too large?")
    if stats is not None:
        stats["picard_iterations"] = sweep
    new = State(prev.t + dt, Field(grid, theta), Field(grid, phi), Field(grid, d))
    new._pieces = (cfg, potential, left, terms)  # the final check's, on new.phi and new.theta
    return new


def _step_times(t0: float, cfg: SchemeConfig, t_end: float) -> np.ndarray:
    """The times t0 + k dt to t_end, a whole number of dt steps (``SchemeConfig.whole_steps``); a ConfigError if
    they are too many to hold."""
    span = t_end - t0
    if span < 0:
        raise ConfigError("t_end lies before the initial time")
    n_steps = cfg.whole_steps(span)
    try:
        return t0 + np.arange(n_steps + 1) * cfg.dt
    except (OverflowError, ValueError, MemoryError) as exc:
        raise ConfigError(f"(t_end - t0) = {span:g} takes too many steps of dt = {cfg.dt:g} to hold: {exc}") from exc


def march(init: State, cfg: SchemeConfig, t_end: float, advance: Callable[[State], State],
          sink=None) -> Trajectory | None:
    """March from init.t to t_end, a whole number of dt steps (``SchemeConfig.whole_steps``), by ``advance``, through
    one buffer of ``thermo._block_states(cells)`` states. A ``sink`` gets sink(times, None) once the times are checked,
    then sink(times, segment) with each segment in turn, a Trajectory of its own (phi_t at its first state that state's
    own) that the next one overwrites. Without a sink the one segment is the whole run, which march returns. A failed
    step, by a SolverError or a NonpositiveTemperature from the State it builds, raises SimulationAborted, whose partial
    trajectory is None where the sink has been handed the states before it (each segment once)."""
    times = _step_times(init.t, cfg, t_end)
    per = min(thermo._block_states(init.grid.num_cells), len(times)) if sink else len(times)
    theta, phi = np.empty((2, per, *init.theta.values.shape))
    whole = []  # without a sink, march keeps its one segment itself
    hand = sink or (lambda _, segment: segment is None or whole.append(segment))
    current, k0, head = init, 0, init.phi_t

    def segment(k1: int) -> Trajectory:  # states k0 to k1 - 1, from the buffer
        return Trajectory.of(times[k0:k1], theta[:k1 - k0], phi[:k1 - k0], head, cfg)

    hand(times, None)
    for k in range(len(times)):
        if k > 0:
            try:
                current = advance(current)
            except (SolverError, NonpositiveTemperature) as exc:
                if k > k0:  # else the failing step is a segment's first, and the states before it are handed
                    hand(times, segment(k))
                raise SimulationAborted(k, exc, whole[0] if whole else None) from exc
            current.t = times[k]  # rebuilt, to keep the spacing exactly uniform
        if k == k0:
            head = current.phi_t
        theta[k - k0], phi[k - k0] = current.theta.values, current.phi.values
        if k + 1 in (k0 + per, len(times)):
            hand(times, segment(k + 1))  # not held here, so that it goes before the next segment is built
            k0 = k + 1
    return whole[0] if whole else None


def simulate(init: State, cfg: SchemeConfig, potential: Potential, t_end: float, sink=None) -> Trajectory | None:
    """March the coupled system from init.t to t_end (see ``march``, which hands ``sink`` its segments)."""
    # ``step`` is looked up per call, so a wrapper installed on the module sees every step
    return march(init, cfg, t_end, lambda state: step(state, cfg, potential), sink)
