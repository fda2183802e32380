"""Relative energy between two solution pairs and the stability machinery.

The distance functional combines the natural gradient/Bregman structure of
the phase energy with an L1 term that compensates the nonconvex quadratic:

  E(th,ph | th~,ph~) = 1/2 ||grad(ph - ph~)||^2 + M ||ph - ph~||_{L1}^2
                       - lam ||ph - ph~||_{L2}^2
                       + int G(ph) - G(ph~) - G'(ph~)(ph - ph~)
                       + int Lam(th | th~),
  Lam(th | th~) = th - th~ - th~ (log th - log th~)  >= 0.

For M large enough (Gagliardo-Nirenberg; no numeric value is derivable, so
M = 10 on the unit box is the default with a randomized audit as guardrail)

  E >= 1/4 ||grad(ph - ph~)||^2 + ||ph - ph~||_{L1}^2.

Along a reference trajectory with rate factor
  K = ||ph~_t||_inf + || ph~_t^2 / th~ ||_inf + 1      (prefactor set to 1)
and dissipation
  W = int kappa th~ |grad log th - grad log th~|^2
      + |sqrt(th~/th) ph_t - sqrt(th/th~) ph~_t|^2,
the Gronwall envelope   E(t) + int_0^t W e^{int_s^t K} <= E(0) e^{int_0^t K}
holds up to a nonconstructive constant, absorbed here into a single
calibration multiplier on the right-hand side, fitted once on a coarse run
and then held fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import NonpositiveTemperature
from .grid import Field, _dirichlet_values, _grad_sq_values, _lap_values, same_grid
from .potential import Potential
from .stepper import State, Trajectory, pde_phase_rate

__all__ = [
    "RelEnergyConfig",
    "RelEnergyReport",
    "GronwallReport",
    "lambda_dist",
    "relative_energy",
    "coercivity_check",
    "dissipation_W",
    "k_factor",
    "gronwall_check",
    "fit_gronwall_multiplier",
    "calibrate_gronwall_multiplier",
    "xi_monitor",
    "first_exceedance",
    "log_l1_bound",
]


@dataclass(frozen=True)
class RelEnergyConfig:
    M: float = 10.0
    lam: float = 4.0

    def __post_init__(self):
        if self.M <= 0:
            raise ValueError("M must be positive")


def _require_positive(f: Field, name: str) -> None:
    m = f.min()
    if m <= 0:
        raise NonpositiveTemperature(f"{name} has min {m:.3g}")


def lambda_dist(theta: Field, theta_ref: Field) -> Field:
    """Pointwise Bregman distance of the entropy structure, Lam(th | th~)."""
    if not same_grid(theta.grid, theta_ref.grid):
        raise ValueError("fields live on different grids")
    _require_positive(theta, "theta")
    _require_positive(theta_ref, "theta_ref")
    th, tr = theta.values, theta_ref.values
    return Field(theta.grid, th - tr - tr * (np.log(th) - np.log(tr)))


@dataclass(frozen=True)
class RelEnergyReport:
    t: float
    grad_term: float       # 1/2 ||grad dphi||^2
    l1_term: float         # M ||dphi||_{L1}^2
    l2_term: float         # -lam ||dphi||_{L2}^2
    bregman_term: float    # int G(ph) - G(ph~) - G'(ph~) dphi
    lambda_term: float     # int Lam(th|th~)
    total: float


def relative_energy(
    state: State, ref: State, cfg: RelEnergyConfig, potential: Potential
) -> RelEnergyReport:
    if not same_grid(state.grid, ref.grid):
        raise ValueError("states live on different grids")
    g = state.grid
    vol = g.cell_volume
    dphi = state.phi.values - ref.phi.values
    grad_term = 0.5 * _dirichlet_values(dphi, dphi, g)
    l1 = float(np.sum(np.abs(dphi))) * vol
    l1_term = cfg.M * l1 * l1
    l2_term = -potential.lam * float(np.sum(dphi * dphi)) * vol
    bregman = (
        potential.convex(state.phi.values, 0)
        - potential.convex(ref.phi.values, 0)
        - potential.convex(ref.phi.values, 1) * dphi
    )
    bregman_term = float(np.sum(bregman)) * vol
    lam_term = float(np.sum(lambda_dist(state.theta, ref.theta).values)) * vol
    total = grad_term + l1_term + l2_term + bregman_term + lam_term
    return RelEnergyReport(state.t, grad_term, l1_term, l2_term, bregman_term, lam_term, total)


def coercivity_check(
    state: State, ref: State, cfg: RelEnergyConfig, potential: Potential
) -> float:
    """Margin of E >= 1/4 ||grad dphi||^2 + ||dphi||_{L1}^2 (Bregman and Lambda
    terms excluded from both sides; expected >= 0 when M is large enough)."""
    r = relative_energy(state, ref, cfg, potential)
    return 0.5 * r.grad_term + (1.0 - 1.0 / cfg.M) * r.l1_term + r.l2_term


def dissipation_W(state: State, ref: State, kappa: float = 1.0) -> float:
    """Dissipation distance W; needs phi_t on both states (kappa scales the
    heat-conduction part, default 1 matches the scalar examples)."""
    if not same_grid(state.grid, ref.grid):
        raise ValueError("states live on different grids")
    _require_positive(state.theta, "theta")
    _require_positive(ref.theta, "theta_ref")
    g = state.grid
    vol = g.cell_volume
    th, tr = state.theta.values, ref.theta.values
    dlog = np.log(th) - np.log(tr)
    conduction = kappa * float(np.sum(tr * _grad_sq_values(dlog, g))) * vol
    mixed = np.sqrt(tr / th) * state.phi_t.values - np.sqrt(th / tr) * ref.phi_t.values
    return conduction + float(np.sum(mixed * mixed)) * vol


def k_factor(ref: State) -> float:
    """Amplification rate along the reference: max|ph~_t| + max(ph~_t^2/th~) + 1."""
    _require_positive(ref.theta, "theta_ref")
    pt = ref.phi_t.values
    return float(np.max(np.abs(pt)) + np.max(pt * pt / ref.theta.values) + 1.0)


@dataclass
class GronwallReport:
    times: np.ndarray
    E_rel: np.ndarray
    W: np.ndarray
    K: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    margins: np.ndarray
    multiplier: float

    @property
    def min_margin(self) -> float:
        return float(self.margins.min()) if len(self.margins) else 0.0

    def min_step_margin(self, multiplier: float) -> float:
        """Smallest margin after t = 0 with this multiplier-1 envelope scaled
        by ``multiplier``; 0.0 for a single state."""
        margins = multiplier * self.rhs - self.lhs
        return float(np.min(margins[1:])) if len(margins) > 1 else 0.0

    def csv_rows(self):
        header = ["step", "t", "E_rel", "W", "K", "lhs", "rhs", "margin"]
        rows = [
            (n, self.times[n], self.E_rel[n], self.W[n], self.K[n], self.lhs[n], self.rhs[n], self.margins[n])
            for n in range(len(self.times))
        ]
        return header, rows


def _gronwall_series(
    traj: Trajectory, ref_traj: Trajectory, cfg: RelEnergyConfig, potential: Potential, kappa: float
):
    if len(traj) != len(ref_traj):
        raise ValueError("trajectories have different lengths")
    if not same_grid(traj.grid, ref_traj.grid):
        raise ValueError("trajectories live on different grids")
    if np.max(np.abs(traj.times - ref_traj.times)) > 1e-9 * max(traj.config.dt, 1e-30):
        raise ValueError("trajectories are not sampled at the same times")
    E = np.array([relative_energy(s, r, cfg, potential).total for s, r in zip(traj, ref_traj)])
    W = np.array([dissipation_W(s, r, kappa) for s, r in zip(traj, ref_traj)])
    K = np.array([k_factor(r) for r in ref_traj])
    return E, W, K


def gronwall_check(
    traj: Trajectory,
    ref_traj: Trajectory,
    cfg: RelEnergyConfig,
    potential: Potential,
    multiplier: float = 1.0,
    kappa: float | None = None,
) -> GronwallReport:
    """Discrete Gronwall envelope with left-endpoint time quadrature.

    lhs(t^n) = E(t^n) + sum_{k<n} dt W(t_k) exp(sum_{k<=j<n} dt K(t_j)),
    rhs(t^n) = multiplier * E(t^0) * exp(sum_{k<n} dt K(t_k)),
    margin = rhs - lhs. The multiplier stands in for the nonconstructive
    constant of the continuum estimate; see calibrate_gronwall_multiplier.
    """
    kappa = traj.config.kappa if kappa is None else kappa
    dt = traj.config.dt
    E, W, K = _gronwall_series(traj, ref_traj, cfg, potential, kappa)
    N = len(E)
    IK = np.zeros(N)  # IK[n] = sum_{k<n} dt K(t_k)
    IK[1:] = np.cumsum(dt * K[:-1])
    # sum_k dt W_k exp(IK[n]-IK[k]) = exp(IK[n]) * sum_k dt W_k exp(-IK[k])
    S = np.zeros(N)
    S[1:] = np.cumsum(dt * W[:-1] * np.exp(-IK[:-1]))
    lhs = E + np.exp(IK) * S
    rhs = multiplier * E[0] * np.exp(IK)
    return GronwallReport(traj.times, E, W, K, lhs, rhs, rhs - lhs, multiplier)


def fit_gronwall_multiplier(reports: Iterable[GronwallReport]) -> float:
    """Smallest multiplier >= 1 that keeps every step margin of every
    multiplier-1 report nonnegative; a report with E_rel(0) <= 0 imposes none."""
    fits = [float(np.max(r.lhs[1:] / r.rhs[1:])) for r in reports if r.E_rel[0] > 0.0]
    return max([1.0, *fits])


def calibrate_gronwall_multiplier(
    traj: Trajectory,
    ref_traj: Trajectory,
    cfg: RelEnergyConfig,
    potential: Potential,
    kappa: float | None = None,
) -> float:
    """Smallest rhs multiplier that keeps every step margin nonnegative on the
    given (coarse) run; see fit_gronwall_multiplier."""
    report = gronwall_check(traj, ref_traj, cfg, potential, multiplier=1.0, kappa=kappa)
    return fit_gronwall_multiplier([report])


def xi_monitor(
    state: State, kappa: float, potential: Potential | None = None, *, use_pde_rate: bool = False
) -> float:
    """Strong-solution regularity monitor
    xi = 1/2 (||phi_t||_{H1}^2 + kappa ||theta||_{H1}^2 + ||phi||_{L2}^2 + ||lap phi||_{L2}^2).

    Uses the state's stored phi_t (zero at the initial instant by convention,
    which underestimates xi(0)). With use_pde_rate=True the rate is
    recomputed as lap(phi) - F'(phi) + theta, the value the backward
    difference converges to; this needs the potential.
    """
    g = state.grid
    vol = g.cell_volume
    pt = state.phi_t.values
    if use_pde_rate:
        if potential is None:
            raise ValueError("use_pde_rate needs the potential")
        pt = pde_phase_rate(state.theta, state.phi, potential)
    th = state.theta.values
    ph = state.phi.values
    h1_pt = float(np.sum(pt * pt)) * vol + _dirichlet_values(pt, pt, g)
    h1_th = float(np.sum(th * th)) * vol + _dirichlet_values(th, th, g)
    lap_ph = _lap_values(ph, g)
    h2_ph = float(np.sum(ph * ph) + np.sum(lap_ph * lap_ph)) * vol
    return 0.5 * (h1_pt + kappa * h1_th + h2_ph)


def first_xi_exceedance(
    traj: Trajectory, kappa: float, ceiling: float = 1e3, potential: Potential | None = None
) -> int | None:
    """Index of the first state whose xi monitor exceeds the ceiling (blow-up
    watchdog for the local-existence window); None while the run stays regular."""
    return first_exceedance((xi_monitor(s, kappa, potential) for s in traj), ceiling)


def first_exceedance(values: Iterable[float], ceiling: float) -> int | None:
    """Index of the first value above the ceiling, None if there is none."""
    return next((k for k, v in enumerate(values) if v > ceiling), None)


def log_l1_bound(theta: Field, theta_ref: Field) -> tuple[float, float]:
    """Checked inequality ||log th - log th~||_{L1}^2 <= c * int Lam(th|th~)
    with c = 2 |Omega|^2 / delta, delta the smaller of the two field minima.
    Returns (lhs, rhs); c is sufficient for |Omega| >= 1 and usually loose."""
    if not same_grid(theta.grid, theta_ref.grid):
        raise ValueError("fields live on different grids")
    _require_positive(theta, "theta")
    _require_positive(theta_ref, "theta_ref")
    g = theta.grid
    vol = g.cell_volume
    dlog = np.log(theta.values) - np.log(theta_ref.values)
    lhs = (float(np.sum(np.abs(dlog))) * vol) ** 2
    delta = min(theta.min(), theta_ref.min())
    lam_int = float(np.sum(lambda_dist(theta, theta_ref).values)) * vol
    rhs = 2.0 * g.volume**2 / delta * lam_int
    return lhs, rhs
