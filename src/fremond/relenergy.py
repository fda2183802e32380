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
and then held fixed. ``gronwall_check`` returns the envelope at multiplier 1,
``GronwallReport.envelope(m)`` is the one place that scales it, and
``envelope_holds`` the one rule that judges it.
Given two trajectories' stacked States (``Trajectory.stack``) in place of
two States, each functional returns its series over time; ``gronwall_check``
gets E, W and K that way.

Memory: ``gronwall_check`` forms E, W and K through blocks of whole states
(``thermo._blocks``), so it holds its inputs plus about one block. Each state's
terms are reduced as in one whole-array pass, and each running sum runs once
over the full series (``GronwallReport.of``, which also serves series joined
from pieces of a run, as ``harness.weak_strong_experiment`` marches them), so
the results keep every bit. ``xi_monitor`` makes one pass over what it is given,
which its one caller keeps to one segment of a run, about a block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, NonpositiveTemperature
from .grid import Field, _dirichlet_values, _grad_sq_values, _lap_values, same_grid
from .potential import Potential
from .stepper import State, Trajectory
from .thermo import _blocks

__all__ = [
    "RelEnergyConfig",
    "RelEnergyReport",
    "GronwallReport",
    "lambda_dist",
    "relative_energy",
    "coercivity_check",
    "dissipation_W",
    "k_factor",
    "require_comparable",
    "gronwall_check",
    "envelope_holds",
    "fit_gronwall_multiplier",
    "xi_monitor",
    "log_l1_bound",
]


@dataclass(frozen=True)
class RelEnergyConfig:
    M: float = 10.0
    lam: float = 4.0

    def __post_init__(self):
        if not 0 < self.M < np.inf:
            raise ConfigError(f"M = {self.M!r}: must be positive and finite")


def lambda_dist(theta: Field, theta_ref: Field) -> Field:
    """Pointwise Bregman distance of the entropy structure, Lam(th | th~); NonpositiveTemperature
    unless both fields are positive (a State's are by construction, bare Fields are checked here)."""
    if not same_grid(theta.grid, theta_ref.grid):
        raise ValueError("fields live on different grids")
    for what, f in (("theta", theta), ("theta_ref", theta_ref)):
        if (tmin := f.min()) <= 0.0:
            raise NonpositiveTemperature(f"{what} has min {tmin:.3g}; its log is undefined")
    th, tr = theta.values, theta_ref.values
    return Field(theta.grid, th - tr - tr * (np.log(th) - np.log(tr)))


@dataclass(frozen=True)
class RelEnergyReport:
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
    vol, axes = g.cell_volume, g.axes
    dphi = state.phi.values - ref.phi.values
    grad_term = 0.5 * _dirichlet_values(dphi, dphi, g)
    l1 = np.sum(np.abs(dphi), axis=axes) * vol
    l1_term = cfg.M * l1 * l1
    l2_term = -potential.lam * np.sum(dphi * dphi, axis=axes) * vol
    bregman = (
        potential.convex(state.phi.values, 0)
        - potential.convex(ref.phi.values, 0)
        - potential.convex(ref.phi.values, 1) * dphi
    )
    bregman_term = np.sum(bregman, axis=axes) * vol
    lam_term = np.sum(lambda_dist(state.theta, ref.theta).values, axis=axes) * vol
    total = grad_term + l1_term + l2_term + bregman_term + lam_term
    return RelEnergyReport(grad_term, l1_term, l2_term, bregman_term, lam_term, total)


def coercivity_check(
    state: State, ref: State, cfg: RelEnergyConfig, potential: Potential
) -> float:
    """Margin of E >= 1/4 ||grad dphi||^2 + ||dphi||_{L1}^2 (Bregman and Lambda
    terms excluded from both sides; expected >= 0 when M is large enough)."""
    r = relative_energy(state, ref, cfg, potential)
    return 0.5 * r.grad_term + (1.0 - 1.0 / cfg.M) * r.l1_term + r.l2_term


def dissipation_W(state: State, ref: State, kappa: float = 1.0) -> float | np.ndarray:
    """Dissipation distance W; needs phi_t on both states (kappa scales the
    heat-conduction part, default 1 matches the scalar examples)."""
    if not same_grid(state.grid, ref.grid):
        raise ValueError("states live on different grids")
    g = state.grid
    vol, axes = g.cell_volume, g.axes
    th, tr = state.theta.values, ref.theta.values
    dlog = np.log(th) - np.log(tr)
    conduction = kappa * np.sum(tr * _grad_sq_values(dlog, g), axis=axes) * vol
    mixed = np.sqrt(tr / th) * state.phi_t.values - np.sqrt(th / tr) * ref.phi_t.values
    return conduction + np.sum(mixed * mixed, axis=axes) * vol


def k_factor(ref: State) -> float | np.ndarray:
    """Amplification rate along the reference: max|ph~_t| + max(ph~_t^2/th~) + 1."""
    pt, axes = ref.phi_t.values, ref.grid.axes
    return np.max(np.abs(pt), axis=axes) + np.max(pt * pt / ref.theta.values, axis=axes) + 1.0


def envelope_holds(margin: float, scale: float) -> bool:
    """The one verdict on a Gronwall margin (``GronwallReport.min_step_margin``): it holds
    at >= -1e-12 * max(1, scale), scale being the reference's initial total energy (the
    round-off floor of the energy evaluation), unless the pair is ``report_only``."""
    return margin >= -1e-12 * max(1.0, scale)


def _grown(growth: np.ndarray, x) -> np.ndarray:
    """growth * x, with inf * 0 taken as 0: what is zero stays zero however far the growth overflows."""
    return np.multiply(growth, x, out=np.zeros_like(growth), where=x != 0.0)


@dataclass
class GronwallReport:
    """The multiplier-1 Gronwall envelope of one trajectory pair (see
    ``gronwall_check``); ``envelope(m)`` is the one place that scales it."""

    times: np.ndarray
    E_rel: np.ndarray
    W: np.ndarray
    K: np.ndarray
    lhs: np.ndarray
    growth: np.ndarray
    scaled_lhs: np.ndarray  # lhs / growth = E_rel e^{-int K} + sum_k dt W_k e^{-int_0^{t_k} K}

    @classmethod
    def of(cls, times: np.ndarray, E: np.ndarray, W: np.ndarray, K: np.ndarray, dt: float) -> "GronwallReport":
        """The report of the series E_rel, W and K at the times, dt apart, by the running sums of ``gronwall_check``."""
        N = len(E)
        IK = np.zeros(N)  # IK[n] = sum_{k<n} dt K(t_k)
        IK[1:] = np.cumsum(dt * K[:-1])
        # sum_k dt W_k exp(IK[n]-IK[k]) = exp(IK[n]) * sum_k dt W_k exp(-IK[k])
        S = np.zeros(N)
        S[1:] = np.cumsum(dt * W[:-1] * np.exp(-IK[:-1]))
        with np.errstate(over="ignore"):  # past int K = 709 the growth is inf, which the margins allow for
            growth = np.exp(IK)
        return cls(times, E, W, K, E + _grown(growth, S), growth, E * np.exp(-IK) + S)

    def envelope(self, multiplier: float) -> np.ndarray:
        """Right-hand side multiplier * E_rel(0) * exp(int_0^t K)."""
        return _grown(self.growth, multiplier * self.E_rel[0])

    @property
    def report_only(self) -> bool:
        """E_rel(0) <= 0 < max E_rel: coinciding initial data but different dynamics (e.g. an
        eps pair). The envelope degenerates to zero, so the drift is reported, not judged."""
        return self.E_rel[0] <= 0.0 < np.max(self.E_rel)

    def margins(self, multiplier: float) -> np.ndarray:
        """envelope - lhs; where the growth overflows (int K > 709), inf signed as m E_rel(0) - scaled_lhs, or 0."""
        scaled = multiplier * self.E_rel[0] - self.scaled_lhs
        return np.subtract(self.envelope(multiplier), self.lhs, where=self.growth < np.inf,
                           out=np.where(scaled == 0.0, 0.0, np.copysign(np.inf, scaled)))

    def min_step_margin(self, multiplier: float) -> float:
        """Smallest margin envelope - lhs after t = 0, the margin ``envelope_holds`` judges
        (at t = 0 it is (m - 1) E_rel(0)); 0.0 for a single state."""
        return float(np.min(self.margins(multiplier)[1:])) if len(self.times) > 1 else 0.0

    def csv_columns(self, multiplier: float):
        return (["step", "t", "E_rel", "W", "K", "lhs", "rhs", "margin"], [np.arange(len(self.times)), self.times,
                self.E_rel, self.W, self.K, self.lhs, self.envelope(multiplier), self.margins(multiplier)])


def require_comparable(traj: Trajectory, ref_traj: Trajectory, potential: Potential | None = None,
                       ref_potential: Potential | None = None) -> None:
    """ValueError unless both trajectories have the same length, grid, times and kappa,
    and the same potential where given: runs of one system (eps and p may differ)."""
    if len(traj) != len(ref_traj):
        raise ValueError(f"trajectories have different lengths ({len(traj)} and {len(ref_traj)} states)")
    if not same_grid(traj.grid, ref_traj.grid):
        raise ValueError("trajectories live on different grids")
    if np.max(np.abs(traj.times - ref_traj.times)) > 1e-9 * max(traj.config.dt, 1e-30):
        raise ValueError("trajectories are not sampled at the same times")
    if traj.config.kappa != ref_traj.config.kappa:
        raise ValueError(f"trajectories have different kappa ({traj.config.kappa!r} and {ref_traj.config.kappa!r})")
    if potential != ref_potential:
        raise ValueError(f"runs have different potentials ({potential} and {ref_potential})")


def gronwall_check(
    traj: Trajectory,
    ref_traj: Trajectory,
    cfg: RelEnergyConfig,
    potential: Potential,
) -> GronwallReport:
    """Discrete Gronwall envelope at multiplier 1, left-endpoint time quadrature:

    lhs(t^n) = E(t^n) + sum_{k<n} dt W(t_k) exp(sum_{k<=j<n} dt K(t_j)),
    growth(t^n) = exp(sum_{k<n} dt K(t_k)); the envelope at multiplier m is
    ``GronwallReport.envelope(m)`` = m * E(t^0) * growth, the margin envelope - lhs.
    The multiplier stands in for the nonconstructive constant of the continuum
    estimate; see fit_gronwall_multiplier.
    """
    require_comparable(traj, ref_traj)
    kappa, dt = traj.config.kappa, traj.config.dt

    def series(b: slice) -> tuple:
        s, r = traj[b], ref_traj[b]
        return relative_energy(s, r, cfg, potential).total, dissipation_W(s, r, kappa), k_factor(r)

    E, W, K = (np.concatenate(x) for x in zip(*map(series, _blocks(traj.stack.theta.values))))
    return GronwallReport.of(traj.times, E, W, K, dt)


def fit_gronwall_multiplier(reports: Iterable[GronwallReport]) -> float:
    """Smallest multiplier >= 1 that keeps every step margin of every report
    nonnegative; a report with E_rel(0) <= 0, or with no step after t = 0,
    imposes none. Where the growth overflows, the ratio lhs / envelope(1) is scaled_lhs / E_rel(0)."""
    fits = [float(np.max(np.divide(r.lhs, r.envelope(1.0), out=r.scaled_lhs / r.E_rel[0], where=r.growth < np.inf)[1:]))
            for r in reports if r.E_rel[0] > 0.0 and len(r.lhs) > 1]
    return max([1.0, *fits])


def xi_monitor(state: State, kappa: float) -> float | np.ndarray:
    """Strong-solution regularity monitor
    xi = 1/2 (||phi_t||_{H1}^2 + kappa ||theta||_{H1}^2 + ||phi||_{L2}^2 + ||lap phi||_{L2}^2).

    Uses the state's stored phi_t (zero at the initial instant by convention,
    which underestimates xi(0); ``[initial] phi_t = pde`` stores the PDE rate
    there instead). On a stacked State, its series, in one pass over the arrays.
    """
    g = state.grid
    vol, axes = g.cell_volume, g.axes
    th, ph, pt = state.theta.values, state.phi.values, state.phi_t.values
    h1_pt = np.sum(pt * pt, axis=axes) * vol + _dirichlet_values(pt, pt, g)
    h1_th = np.sum(th * th, axis=axes) * vol + _dirichlet_values(th, th, g)
    lap_ph = _lap_values(ph, g)
    h2_ph = (np.sum(ph * ph, axis=axes) + np.sum(lap_ph * lap_ph, axis=axes)) * vol
    return 0.5 * (h1_pt + kappa * h1_th + h2_ph)


def log_l1_bound(theta: Field, theta_ref: Field) -> tuple[float, float]:
    """Checked inequality ||log th - log th~||_{L1}^2 <= c * int Lam(th|th~)
    with c = 2 |Omega|^2 / delta, delta the smaller of the two field minima, both checked positive
    by ``lambda_dist``. Returns (lhs, rhs); c is sufficient for |Omega| >= 1 and usually loose."""
    g = theta.grid
    vol = g.cell_volume
    lam_int = float(np.sum(lambda_dist(theta, theta_ref).values)) * vol
    dlog = np.log(theta.values) - np.log(theta_ref.values)
    lhs = (float(np.sum(np.abs(dlog))) * vol) ** 2
    delta = min(theta.min(), theta_ref.min())
    rhs = 2.0 * g.volume**2 / delta * lam_int
    return lhs, rhs
