"""The coupled step converges to a manufactured solution at its design orders.

Elsewhere ``step`` is checked only against the paper's inequalities and against
its own refinement. Neither can see a defect that every resolution shares and
that keeps the energy identity: a wrong diffusion coefficient in the heat row
alone is one, since the integral of lap theta vanishes at any scale. Here an
exact pair is made a solution of the system by source terms, injected without
a change to the solver:

    phi* = 0.3 M e^{-t},   theta* = 1 + 0.2 M (1 + t),   M = prod_a cos(pi x_a),

the zero-flux cosine mode of the unit box, with kappa 0.7, eps 0.05, p 4 and the
double well. ``_phase_left`` subtracts f_phi(t^{k+1}), and ``_heat_linearized``
adds f_theta(t^{k+1}) to its right side. A wrapper around ``stepper.step`` sets
that time and drops ``State._pieces``: reused, they would carry the previous
step's source into the next step's first check.

Backward Euler with the central Laplacian makes the L2 error at T fall as h^2
with dt = h^2, and as dt with dt = h/8. A heat row that applies 1.05 kappa is
seeded as the defect that the h^2 test must catch; ``energy_inequality_check``
and ``entropy_inequality_check`` pass on the unforced run it makes.

References: P. J. Roache, "Code verification by the method of manufactured
solutions", J. Fluids Eng. 124(1), 2002; K. Salari and P. Knupp, "Code
verification by the method of manufactured solutions", SAND2000-1444, 2000.
"""

import math

import numpy as np
import pytest

from fremond import stepper
from fremond.grid import Field, Grid, _lap_values, norm
from fremond.potential import Potential
from fremond.stepper import SchemeConfig, initial_state, simulate
from fremond.thermo import TEST_FUNCTIONS, energy_inequality_check, entropy_inequality_check

KAPPA, EPS, P = 0.7, 0.05, 4.0
POTENTIAL = Potential.double_well()
T_END = 0.125  # a whole number of steps at every dt below


def exact(mode: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """phi* and theta* at time t, from the cosine mode's values at the cell centers."""
    return 0.3 * mode * math.exp(-t), 1.0 + 0.2 * mode * (1.0 + t)


def sources(mode: np.ndarray, dim: int, t: float) -> tuple[np.ndarray, np.ndarray]:
    """f_phi and f_theta at time t: what phi* and theta* leave over in
    phi_t - lap phi + F'(phi) = theta  and  theta_t - kappa lap theta + eps theta^p + theta phi_t = phi_t^2."""
    phi, theta = exact(mode, t)
    phi_t, theta_t = -phi, 0.2 * mode
    eigenvalue = -dim * math.pi**2  # lap M = eigenvalue * M
    f_phi = phi_t - eigenvalue * phi + POTENTIAL.eval(phi, 1) - theta
    f_theta = theta_t - KAPPA * eigenvalue * (theta - 1.0) + EPS * theta**P + theta * phi_t - phi_t**2
    return f_phi, f_theta


@pytest.fixture
def scheme(monkeypatch):
    """The solver with the sources of the solution on ``scheme["grid"]`` injected, none while ``scheme["mode"]``
    is None; ``scheme["defect"] = True`` makes the heat row apply 1.05 kappa."""
    state = {"defect": False, "mode": None}
    real_step, real_left, real_heat = stepper.step, stepper._phase_left, stepper._heat_linearized

    def step(prev, cfg, potential, stats=None):
        if state["mode"] is not None:
            state["f"] = sources(state["mode"], prev.grid.dim, prev.t + cfg.dt)
        prev._pieces = None
        return real_step(prev, cfg, potential, stats)

    def phase_left(u, implicit, pot):
        left = real_left(u, implicit, pot)
        return left if state["mode"] is None else left - state["f"][0]

    def heat_linearized(terms, u, d, rhs, cfg, out=None):
        if state["mode"] is not None:
            rhs = rhs + state["f"][1]
        if state["defect"]:  # -kappa lap u in the residual becomes -1.05 kappa lap u
            rhs = rhs + 0.05 * cfg.kappa * _lap_values(u, state["grid"])
        return real_heat(terms, u, d, rhs, cfg, out)

    monkeypatch.setattr(stepper, "step", step)
    monkeypatch.setattr(stepper, "_phase_left", phase_left)
    monkeypatch.setattr(stepper, "_heat_linearized", heat_linearized)
    return state


def errors(scheme, dim: int, n: int, dt: float) -> tuple[float, float]:
    """The L2 errors of phi and theta at T_END on n cells per axis of the unit box."""
    scheme["grid"] = grid = Grid((n,) * dim, (1.0,) * dim)
    scheme["mode"] = mode = grid.cosine_mode()
    phi0, theta0 = exact(mode, 0.0)
    traj = simulate(initial_state(grid, theta0, phi0), SchemeConfig(dt, KAPPA, EPS, P), POTENTIAL, T_END)
    phi, theta = exact(mode, traj.times[-1])
    last = traj[-1]
    return norm(Field(grid, last.phi.values - phi)), norm(Field(grid, last.theta.values - theta))


def orders(scheme, dim: int, levels: list[int], dt_of_h) -> np.ndarray:
    """Observed orders log(e_coarse / e_fine) / log 2 between consecutive levels, one row per pair,
    a column each for phi and theta; each level halves h, and dt_of_h gives its dt."""
    errs = np.array([errors(scheme, dim, n, dt_of_h(1.0 / n)) for n in levels])
    return np.log2(errs[:-1] / errs[1:])


CASES = {"1d": (1, [16, 32, 64]), "2d": (2, [8, 16, 32])}


@pytest.mark.parametrize("case", sorted(CASES))
def test_second_order_in_h_with_dt_h_squared(scheme, case):
    dim, levels = CASES[case]
    q = orders(scheme, dim, levels, lambda h: h * h)
    assert np.all(q >= 1.8), q


def test_first_order_in_dt_with_dt_proportional_to_h(scheme):
    q = orders(scheme, 1, [16, 32, 64], lambda h: h / 8)
    assert np.all(q >= 0.9), q


def test_a_heat_row_with_one_and_a_twentieth_kappa_fails_the_order_in_h(scheme):
    scheme["defect"] = True
    q = orders(scheme, 1, [16, 32, 64], lambda h: h * h)
    assert not np.all(q >= 1.8), q


def test_the_seeded_defect_keeps_the_energy_and_entropy_verdicts(scheme):
    # unforced, so that the run answers to the paper's inequalities, which the defect does not break
    scheme["defect"], scheme["grid"] = True, Grid.line(32)
    grid = scheme["grid"]
    phi0, theta0 = exact(grid.cosine_mode(), 0.0)
    traj = simulate(initial_state(grid, theta0, phi0), SchemeConfig(1.0 / 1024, KAPPA, EPS, P), POTENTIAL, T_END)
    assert energy_inequality_check(traj, POTENTIAL).csv_columns()[1][-1].all()
    for tf in TEST_FUNCTIONS.values():
        assert entropy_inequality_check(traj, tf).csv_columns()[1][-1].all(), tf.name
