import math
from pathlib import Path

import numpy as np
import pytest

from fremond.grid import Field, Grid, _dirichlet_values, _grad_sq_values
from fremond.potential import Potential
from fremond.stepper import SchemeConfig, initial_state, simulate
from fremond.thermo import (
    TEST_FUNCTIONS,
    energy,
    energy_inequality_check,
    entropy_inequality_check,
    floors_check,
)


PRESETS = Path(__file__).resolve().parents[1] / "presets"


def uniform_state(grid, theta, phi, t=0.0):
    return initial_state(grid, Field.full(grid, theta), Field.full(grid, phi), t=t)


def running_sum_entropy_margins(traj, test_fn):
    """The entropy transcription as a loop with running sums over the left
    endpoints; the same arithmetic in the same order as the checker."""
    cfg = traj.config
    kappa, eps, p, dt = cfg.kappa, cfg.epsilon, cfg.p, cfg.dt
    grid = traj.grid
    vol = grid.cell_volume
    N = len(traj) - 1
    vt = [test_fn.sample(grid, s.t) for s in traj]
    vt_dot = [(vt[1] - vt[0]) / dt] + [(vt[k + 1] - vt[k - 1]) / (2.0 * dt) for k in range(1, N)]
    boundary0 = float(np.sum(vt[0] * (np.log(traj[0].theta.values) + traj[0].phi.values))) * vol
    margins, values = np.empty(N), np.empty(N)
    production = rhs = 0.0
    for n in range(1, N + 1):
        sk = traj[n - 1]
        th = sk.theta.values
        log_th = np.log(th)
        prod_density = kappa * _grad_sq_values(log_th, grid) + sk.phi_t.values**2 / th
        if eps > 0:
            prod_density = prod_density - eps * th ** (p - 1.0)
        production += dt * float(np.sum(vt[n - 1] * prod_density)) * vol
        rhs += dt * (
            kappa * _dirichlet_values(log_th, vt[n - 1], grid)
            - float(np.sum(vt_dot[n - 1] * (log_th + sk.phi.values))) * vol
        )
        sn = traj[n]
        boundary_n = float(np.sum(vt[n] * (np.log(sn.theta.values) + sn.phi.values))) * vol
        margins[n - 1] = rhs - (-boundary_n + boundary0 + production)
        values[n - 1] = boundary_n
    return margins, values


class TestEnergy:
    def test_uniform_constants(self, double_well):
        g = Grid.line(16)
        r = energy(uniform_state(g, 0.5, 1.0), double_well)
        assert r.E_total == pytest.approx(0.5, abs=1e-13)
        assert r.E_gradient == 0.0
        assert r.E_potential == pytest.approx(0.0, abs=1e-13)
        assert r.E_thermal == pytest.approx(0.5, abs=1e-13)

    def test_decomposition_identity_exact(self, small_cosine_run):
        traj, pot = small_cosine_run
        for s in traj:
            r = energy(s, pot)
            assert r.E_total == r.E_gradient + r.E_potential + r.E_thermal

    def test_stacked_report_equals_the_per_state_reports_bitwise(self, small_cosine_run):
        traj, pot = small_cosine_run
        stacked = energy(traj.stack, pot)
        for name, series in vars(stacked).items():
            assert np.array_equal(series, [getattr(energy(s, pot), name) for s in traj]), name

    def test_cosine_gradient_energy_refines_to_quarter_pi_sq(self):
        pot = Potential.zero()
        errs = []
        for n in (16, 32, 64):
            g = Grid.line(n)
            (x,) = g.meshgrid()
            s = initial_state(g, Field.full(g, 1.0), Field(g, np.cos(np.pi * x)))
            errs.append(abs(energy(s, pot).E_gradient - math.pi**2 / 4))
        assert errs[0] > errs[1] > errs[2]
        assert math.log2(errs[1] / errs[2]) == pytest.approx(2.0, abs=0.2)

    def test_entropy_and_orlicz_of_unit_temperature(self, double_well):
        g = Grid.line(16)
        r = energy(uniform_state(g, 1.0, 0.0), double_well)
        assert r.entropy_S == pytest.approx(0.0, abs=1e-14)
        assert r.orlicz == pytest.approx(0.0, abs=1e-14)

    def test_orlicz_finite_along_run(self, small_cosine_run):
        traj, pot = small_cosine_run
        for s in traj:
            assert math.isfinite(energy(s, pot).orlicz)


class TestEnergyInequality:
    def test_single_state_margin_zero(self, double_well):
        g = Grid.line(8)
        traj = simulate(uniform_state(g, 1.0, 0.0), SchemeConfig(dt=0.1), double_well, 0.0)
        rep = energy_inequality_check(traj, double_well)
        assert rep.margins.tolist() == [0.0]

    def test_steady_trajectory_margins_vanish(self, double_well, steady_pair):
        phi_star, theta_star = steady_pair
        g = Grid.line(16)
        cfg = SchemeConfig(dt=0.01, epsilon=0.0)
        traj = simulate(uniform_state(g, theta_star, phi_star), cfg, double_well, 0.2)
        rep = energy_inequality_check(traj, double_well)
        assert np.max(np.abs(rep.margins)) < 1e-10

    def test_uniform_decay_margin_tracks_quadrature_exactly(self):
        # with phi frozen, backward Euler satisfies
        # int theta^{n-1} - int theta^n = eps dt int (theta^n)^p, so the
        # right-endpoint margin telescopes to solver noise
        from fremond.harness import frozen_phase_run

        pot = Potential.zero()
        g = Grid.line(8)
        cfg = SchemeConfig(dt=0.01, epsilon=0.5, p=4.0)
        traj = frozen_phase_run(uniform_state(g, 1.0, 0.0), cfg, 0.5)
        rep = energy_inequality_check(traj, pot)
        assert np.max(np.abs(rep.margins)) < 1e-9

    def test_matches_running_sum_reference_bitwise(self, small_cosine_run):
        traj, pot = small_cosine_run
        eps, p, dt = traj.config.epsilon, traj.config.p, traj.config.dt
        vol = traj.grid.cell_volume
        energies, regs = [], [0.0]
        for n, s in enumerate(traj):
            energies.append(energy(s, pot).E_total)
            if n >= 1:
                regs.append(regs[-1] + eps * dt * float(np.sum(s.theta.values**p)) * vol)
        rep = energy_inequality_check(traj, pot)
        assert np.array_equal(rep.reg_cumulative, regs)
        assert np.array_equal(rep.margins, energies[0] - np.array(energies) - np.array(regs))

    def test_margins_stay_nonnegative_on_coupled_run(self, small_cosine_run):
        traj, pot = small_cosine_run
        rep = energy_inequality_check(traj, pot)
        # convex-concave splitting dissipates: no per-step increase beyond noise
        assert np.min(rep.margins) > -1e-12
        assert np.max(rep.per_step_increase) <= 1e-12
        assert np.min(np.diff(rep.margins)) >= -1e-12  # margins nondecreasing
        e0 = rep.energies[0]
        assert rep.energies[-1] <= e0 + 1e-4 * abs(e0)


class TestEntropyInequality:
    def test_constant_test_function_on_steady_run(self, double_well, steady_pair):
        phi_star, theta_star = steady_pair
        g = Grid.line(16)
        cfg = SchemeConfig(dt=0.01, epsilon=0.0)
        traj = simulate(uniform_state(g, theta_star, phi_star), cfg, double_well, 0.2)
        rep = entropy_inequality_check(traj, TEST_FUNCTIONS["one"]())
        assert np.max(np.abs(rep.margins)) < 1e-10

    def test_margins_bounded_below_on_coupled_run(self, small_cosine_run):
        traj, pot = small_cosine_run
        dt = traj.config.dt
        for name in ("one", "cosine", "cosine_damped"):
            rep = entropy_inequality_check(traj, TEST_FUNCTIONS[name]())
            assert len(rep.margins) == len(traj) - 1
            assert np.all(np.isfinite(rep.margins))
            assert rep.min_margin >= -100 * dt

    def test_matches_running_sum_reference_bitwise(self, small_cosine_run):
        traj, _ = small_cosine_run
        for name in ("one", "cosine", "cosine_damped"):
            rep = entropy_inequality_check(traj, TEST_FUNCTIONS[name]())
            margins, values = running_sum_entropy_margins(traj, TEST_FUNCTIONS[name]())
            assert np.array_equal(rep.margins, margins), name
            assert np.array_equal(rep.entropy_values, values), name

    def test_single_state_has_no_margins(self, double_well):
        g = Grid.line(8)
        traj = simulate(uniform_state(g, 1.0, 0.0), SchemeConfig(dt=0.1), double_well, 0.0)
        rep = entropy_inequality_check(traj, TEST_FUNCTIONS["cosine"]())
        assert len(rep.times) == len(rep.margins) == len(rep.entropy_values) == 0
        assert rep.min_margin == 0.0

    def test_test_function_rejects_negative_values(self):
        from fremond.thermo import TestFunction

        tf = TestFunction("bad", lambda grid, t: -np.ones(grid.shape))
        with pytest.raises(ValueError):
            tf.sample(Grid.line(8), 0.0)


class TestTwoDimensional:
    def test_short_2d_run_diagnostics(self, double_well):
        # exercises the conjugate-gradient solve path end to end
        g = Grid((8, 8), (1.0, 1.0))
        X, Y = g.meshgrid()
        mode = np.cos(np.pi * X) * np.cos(np.pi * Y)
        init = initial_state(g, Field(g, 1.0 + 0.2 * mode), Field(g, 0.3 * mode))
        cfg = SchemeConfig(dt=2e-3, epsilon=1e-3, p=4.0)
        traj = simulate(init, cfg, double_well, 20e-3)
        assert len(traj) == 11
        erep = energy_inequality_check(traj, double_well)
        assert np.min(erep.margins) > -1e-10
        assert np.max(erep.per_step_increase) <= 1e-10
        ent = entropy_inequality_check(traj, TEST_FUNCTIONS["cosine"]())
        assert np.all(np.isfinite(ent.margins))
        assert ent.min_margin >= -100 * cfg.dt
        floors = floors_check(traj, lam=double_well.lam)
        assert np.all(floors.theta_ok) and np.all(floors.phi_ok)


class TestFloors:
    def test_steady_positive_state_passes(self, double_well, steady_pair):
        phi_star, theta_star = steady_pair
        g = Grid.line(16)
        cfg = SchemeConfig(dt=0.01, epsilon=0.0)
        traj = simulate(uniform_state(g, theta_star, phi_star), cfg, double_well, 0.3)
        rep = floors_check(traj, lam=double_well.lam)
        assert np.all(rep.theta_ok) and np.all(rep.phi_ok)

    def test_uniform_decay_stays_above_subsolution(self):
        from fremond.harness import frozen_phase_run

        g = Grid.line(8)
        cfg = SchemeConfig(dt=0.01, epsilon=1.0, p=4.0)
        traj = frozen_phase_run(uniform_state(g, 0.9, 0.0), cfg, 1.0)
        rep = floors_check(traj, lam=0.0)
        assert np.all(rep.theta_ok) and np.all(rep.phi_ok)
        # the actual decay rate -eps theta^p is weaker than -theta^p - theta^2/2
        assert np.all(rep.theta_min >= rep.theta_floor - 1e-12)

    @pytest.mark.parametrize("eps", [10.0, 100.0])
    def test_uniform_decay_at_eps_above_one_stays_above_the_scaled_floor(self, eps):
        # theta' = -eps theta^p decays faster than the eps-free envelope -h^p - h^2/2,
        # so the floor scales its h^p term by max(1, eps)
        from fremond.harness import frozen_phase_run
        from fremond.thermo import _rk4_advance

        g = Grid.line(8)
        traj = frozen_phase_run(uniform_state(g, 0.9, 0.0), SchemeConfig(dt=0.01, epsilon=eps, p=4.0), 0.5)
        rep = floors_check(traj, lam=0.0)
        assert _rk4_advance(0.9, 0.01, 4.0, 1.0) > rep.theta_min[1]  # the eps-free floor fails at once
        assert np.all(rep.theta_ok) and np.all(rep.theta_min >= rep.theta_floor)
        assert rep.theta_floor[-1] < rep.theta_min[-1] < 1.5 * rep.theta_floor[-1]

    def test_coupled_run_floors(self, small_cosine_run):
        traj, pot = small_cosine_run
        rep = floors_check(traj, lam=pot.lam)
        assert np.all(rep.theta_ok) and np.all(rep.phi_ok)
        # floor starts at -K = min phi_0 (negative here)
        assert rep.phi_floor[0] == pytest.approx(min(0.0, traj[0].phi.min()), abs=1e-14)

    def test_incremental_floor_matches_one_shot(self, small_cosine_run):
        # four substeps per trajectory interval against 10^4 uniform substeps over the whole run
        from fremond.thermo import _rk4_advance

        traj, _ = small_cosine_run
        rep = floors_check(traj, lam=4.0)
        t_final = traj.times[-1] - traj.times[0]
        direct = traj[0].theta.min()
        for _ in range(2500):
            direct = _rk4_advance(direct, t_final / 2500, traj.config.p, 1.0)
        assert rep.theta_floor[-1] == pytest.approx(direct, rel=1e-12)


class TestStiffFloor:
    """The temperature floor where four RK4 substeps per interval are unstable: ``_rk4_advance`` takes
    enough substeps for the stiffest point of each interval, and past FLOOR_MAX_SUBSTEPS a closed form."""

    RUNS = {  # the cosine preset with these overrides exited 1 on a NaN floor margin
        "p6": ["initial.theta_base=5.0", "scheme.p=6", "scheme.dt=0.015625", "run.t_end=0.125"],
        "theta1000": ["initial.theta_base=1000", "scheme.p=6", "scheme.dt=1", "run.t_end=1"],
    }

    @staticmethod
    def implicit_reference(h0, times, p, c):
        from scipy.integrate import solve_ivp

        sol = solve_ivp(lambda t, y: -(c * y**p) - 0.5 * y * y, (times[0], times[-1]), [h0], method="Radau",
                        rtol=1e-12, atol=1e-300, t_eval=times, jac=lambda t, y: [[-(c * p * y[0] ** (p - 1)) - y[0]]])
        return sol.y[0]

    @pytest.mark.parametrize("name", list(RUNS))
    def test_floor_is_below_an_implicit_reference_and_close_to_it_under_the_cap(self, name):
        from fremond.config import load_config
        from fremond.harness import run_simulation
        from fremond.thermo import FLOOR_MAX_SUBSTEPS, _substeps

        run = load_config(PRESETS / "cosine.cfg", self.RUNS[name])
        traj = run_simulation(run)
        rep = floors_check(traj, lam=run.potential.lam)
        assert np.all(rep.theta_ok) and np.all(np.isfinite(rep.theta_floor))
        p, c = traj.config.p, max(1.0, traj.config.epsilon)
        ref = self.implicit_reference(rep.theta_floor[0], traj.times - traj.times[0], p, c)
        assert np.all(rep.theta_floor <= ref * (1.0 + 1e-12))
        capped = np.cumsum([False] + [_substeps(h, traj.config.dt, p, c) > FLOOR_MAX_SUBSTEPS
                                      for h in rep.theta_floor[:-1]]) > 0
        assert capped.any() == (name == "theta1000")
        assert np.all(np.abs(rep.theta_floor - ref)[~capped] <= 1e-9)

    def test_past_the_cap_the_closed_form_reaches_one_and_rk4_goes_on(self):
        from fremond.thermo import FLOOR_MAX_SUBSTEPS, _rk4_advance, _substeps

        h0, p, c = 1e3, 6.0, 1.0
        assert _substeps(h0, 1.0, p, c) > 1e15 > FLOOR_MAX_SUBSTEPS
        to_one = (1.0 - h0 ** (1.0 - p)) / ((c + 0.5) * (p - 1.0))
        assert _rk4_advance(h0, to_one / 2, p, c) == (h0 ** (1.0 - p) + (c + 0.5) * (p - 1.0) * to_one / 2) ** (-0.2)
        assert _rk4_advance(h0, 1.0, p, c) == _rk4_advance(1.0, 1.0 - to_one, p, c)
        assert _rk4_advance(h0, 1.0, p, c) < self.implicit_reference(h0, np.array([0.0, 1.0]), p, c)[-1]

    def test_four_substeps_wherever_they_are_stable(self):
        # the arithmetic of four fixed substeps, so the presets' floors keep every bit
        from fremond.thermo import _floor_rhs, _rk4_advance

        def four(h, width, p, c):
            dt = width / 4
            for _ in range(4):
                k1 = _floor_rhs(h, p, c)
                k2 = _floor_rhs(h + 0.5 * dt * k1, p, c)
                k3 = _floor_rhs(h + 0.5 * dt * k2, p, c)
                k4 = _floor_rhs(h + dt * k3, p, c)
                h = h + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            return h

        for h, width, p, c in [(0.8, 1.220703125e-4, 4.0, 1.0), (1.2, 1e-3, 4.0, 1.0), (0.231, 0.01, 4.0, 1.0)]:
            assert _rk4_advance(h, width, p, c) == four(h, width, p, c)
