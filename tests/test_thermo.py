import math

import numpy as np
import pytest

from fremond.errors import NonpositiveTemperature
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

    def test_negative_temperature_rejected(self, double_well):
        g = Grid.line(8)
        traj = simulate(uniform_state(g, 1.0, 0.0), SchemeConfig(dt=0.1), double_well, 0.1)
        traj.stack.theta.values[1, 3] = -1.0  # after the trajectory's own check, on purpose
        with pytest.raises(NonpositiveTemperature):
            entropy_inequality_check(traj, TEST_FUNCTIONS["one"]())

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
            direct = _rk4_advance(direct, t_final / 2500, traj.config.p)
        assert rep.theta_floor[-1] == pytest.approx(direct, rel=1e-12)
