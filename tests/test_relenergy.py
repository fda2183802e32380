import math

import numpy as np
import pytest

from fremond.errors import NonpositiveTemperature
from fremond.grid import Field, Grid, laplacian_neumann
from fremond.relenergy import (
    RelEnergyConfig,
    coercivity_check,
    envelope_holds,
    dissipation_W,
    fit_gronwall_multiplier,
    gronwall_check,
    k_factor,
    lambda_dist,
    log_l1_bound,
    relative_energy,
    require_comparable,
    xi_monitor,
)
from fremond.potential import Potential
from fremond.stepper import SchemeConfig, State, Trajectory, initial_state, simulate


def uniform_state(grid, theta, phi, phi_t=0.0, t=0.0):
    return State(t, Field.full(grid, theta), Field.full(grid, phi), Field.full(grid, phi_t))


def smooth_field(grid, rng, base=0.0, amp=1.0, modes=4):
    (x,) = grid.meshgrid()
    out = np.zeros(grid.shape)
    for k in range(1, modes + 1):
        out += rng.uniform(-1, 1) / k**2 * np.cos(np.pi * k * x)
    peak = np.max(np.abs(out))
    return Field(grid, base + amp * out / peak if peak > 0 else np.full(grid.shape, base))


class TestLambdaDist:
    def test_vanishes_on_diagonal(self):
        g = Grid.line(16)
        rng = np.random.default_rng(0)
        th = Field(g, rng.uniform(0.5, 2.0, size=16))
        assert np.all(lambda_dist(th, th).values == 0.0)

    def test_scalar_values(self):
        g = Grid.line(4)
        two, one = Field.full(g, 2.0), Field.full(g, 1.0)
        assert lambda_dist(two, one).values[0] == pytest.approx(1 - math.log(2), rel=1e-14)
        assert lambda_dist(one, two).values[0] == pytest.approx(2 * math.log(2) - 1, rel=1e-14)

    def test_nonnegative_on_random_pairs(self):
        g = Grid.line(32)
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = Field(g, rng.uniform(0.05, 5.0, size=32))
            b = Field(g, rng.uniform(0.05, 5.0, size=32))
            assert lambda_dist(a, b).min() >= -1e-13

    def test_small_iff_close_on_uniform_fields(self):
        g = Grid.line(8)
        for dth in (1e-3, 1e-2, 0.1):
            val = lambda_dist(Field.full(g, 1.0 + dth), Field.full(g, 1.0)).values[0]
            assert 0.3 * dth**2 < val < dth**2  # ~ dth^2/2 for small dth

    def test_requires_positive(self):
        g = Grid.line(4)
        with pytest.raises(NonpositiveTemperature):
            lambda_dist(Field.full(g, 0.0), Field.full(g, 1.0))


class TestRelativeEnergy:
    def test_identical_states_zero(self, double_well):
        g = Grid.line(16)
        s = uniform_state(g, 1.3, 0.7)
        r = relative_energy(s, s, RelEnergyConfig(lam=4.0), double_well)
        assert r.total == 0.0
        for name in ("grad_term", "l1_term", "l2_term", "bregman_term", "lambda_term"):
            assert getattr(r, name) == 0.0

    def test_temperature_only_perturbation(self, double_well):
        g = Grid.line(16)
        s = uniform_state(g, 2.0, 0.5)
        ref = uniform_state(g, 1.0, 0.5)
        r = relative_energy(s, ref, RelEnergyConfig(lam=4.0), double_well)
        assert r.total == pytest.approx(1 - math.log(2), rel=1e-12)
        assert r.lambda_term == r.total

    def test_hand_evaluated_phase_offset(self, double_well):
        # delta = 0.1, M = 10, lambda = 4 on the unit interval:
        # 10*0.01 - 4*0.01 + (G(0.1) - G(0)) = 0.06 + 0.0201 = 0.0801
        g = Grid.line(16)
        s = uniform_state(g, 1.0, 0.1)
        ref = uniform_state(g, 1.0, 0.0)
        r = relative_energy(s, ref, RelEnergyConfig(M=10.0, lam=4.0), double_well)
        assert r.total == pytest.approx(0.0801, abs=1e-12)
        assert r.bregman_term == pytest.approx(0.0201, abs=1e-12)

    def test_bregman_nonnegative_random(self, double_well):
        g = Grid.line(32)
        rng = np.random.default_rng(3)
        cfg = RelEnergyConfig(lam=double_well.lam)
        for _ in range(50):
            s = State(0.0, Field.full(g, 1.0), smooth_field(g, rng, 0, 1.2), Field.zeros(g))
            ref = State(0.0, Field.full(g, 1.0), smooth_field(g, rng, 0, 1.2), Field.zeros(g))
            r = relative_energy(s, ref, cfg, double_well)
            assert r.bregman_term >= -1e-12
            assert r.lambda_term >= -1e-13


class TestCoercivity:
    def test_identical_zero(self, double_well):
        g = Grid.line(16)
        s = uniform_state(g, 1.0, 0.3)
        assert coercivity_check(s, s, RelEnergyConfig(lam=4.0), double_well) == 0.0

    def test_theta_only_trivial(self, double_well):
        g = Grid.line(16)
        s, ref = uniform_state(g, 2.0, 0.3), uniform_state(g, 1.0, 0.3)
        assert coercivity_check(s, ref, RelEnergyConfig(lam=4.0), double_well) == 0.0

    def test_random_smooth_audit(self, double_well):
        g = Grid.line(64)
        rng = np.random.default_rng(9)
        cfg = RelEnergyConfig(M=10.0, lam=4.0)
        for _ in range(100):
            s = State(0.0, Field.full(g, 1.0), smooth_field(g, rng, 0.0, 1.0), Field.zeros(g))
            ref = State(0.0, Field.full(g, 1.0), smooth_field(g, rng, 0.0, 1.0), Field.zeros(g))
            assert coercivity_check(s, ref, cfg, double_well) >= 0.0


class TestDissipation:
    def test_identical_zero(self):
        g = Grid.line(16)
        s = uniform_state(g, 1.0, 0.2, phi_t=0.5)
        assert dissipation_W(s, s) == 0.0

    def test_equal_rates_uniform_temps(self):
        g = Grid.line(16)
        s = uniform_state(g, 1.0, 0.0, phi_t=1.0)
        r = uniform_state(g, 1.0, 0.0, phi_t=1.0)
        assert dissipation_W(s, r) == pytest.approx(0.0, abs=1e-14)

    def test_scalar_example(self):
        g = Grid.line(16)
        s = uniform_state(g, 1.0, 0.0, phi_t=1.0)
        r = uniform_state(g, 4.0, 0.0, phi_t=1.0)
        # |sqrt(4/1)*1 - sqrt(1/4)*1|^2 = 2.25 per unit volume
        assert dissipation_W(s, r) == pytest.approx(2.25, rel=1e-13)


class TestKFactor:
    def test_steady_reference(self):
        g = Grid.line(8)
        assert k_factor(uniform_state(g, 1.0, 0.0, phi_t=0.0)) == 1.0

    def test_scalar_examples(self):
        g = Grid.line(8)
        assert k_factor(uniform_state(g, 1.0, 0.0, phi_t=1.0)) == pytest.approx(3.0)
        assert k_factor(uniform_state(g, 4.0, 0.0, phi_t=2.0)) == pytest.approx(4.0)


class TestGronwall:
    def _cosine_traj(self, double_well, delta=0.0, n=24, steps=32):
        g = Grid.line(n)
        (x,) = g.meshgrid()
        mode = np.cos(np.pi * x)
        init = initial_state(g, Field(g, 1.0 + 0.2 * mode), Field(g, (0.3 + delta) * mode))
        cfg = SchemeConfig(dt=1e-4, epsilon=1e-3, p=4.0)
        return simulate(init, cfg, double_well, steps * 1e-4)

    def test_identical_trajectories_all_zero(self, double_well):
        traj = self._cosine_traj(double_well)
        cfg = RelEnergyConfig(lam=4.0)
        rep = gronwall_check(traj, traj, cfg, double_well)
        assert np.all(rep.E_rel == 0.0)
        assert np.all(rep.W == 0.0)
        assert np.all(rep.lhs == 0.0)
        assert np.all(rep.envelope(1.0) == 0.0)
        assert rep.min_step_margin(1.0) == 0.0

    def test_perturbed_run_respects_calibrated_envelope(self, double_well):
        ref = self._cosine_traj(double_well)
        pert = self._cosine_traj(double_well, delta=0.05)
        cfg = RelEnergyConfig(M=10.0, lam=4.0)
        rep = gronwall_check(pert, ref, cfg, double_well)
        rhs = rep.envelope(fit_gronwall_multiplier([rep]))
        assert float(np.min(rhs - rep.lhs)) >= -1e-12 * max(1.0, float(np.max(rhs)))
        assert rep.E_rel[0] > 0.0

    def test_envelope_scales_the_multiplier_one_envelope_once(self, double_well):
        ref = self._cosine_traj(double_well)
        pert = self._cosine_traj(double_well, delta=0.05)
        rep = gronwall_check(pert, ref, RelEnergyConfig(lam=4.0), double_well)
        one = rep.envelope(1.0)
        IK = np.concatenate([[0.0], np.cumsum(1e-4 * rep.K[:-1])])
        assert np.array_equal(one, rep.E_rel[0] * np.exp(IK))
        assert np.array_equal(rep.envelope(2.0), 2.0 * one)
        assert rep.min_step_margin(2.0) == float(np.min(2.0 * one[1:] - rep.lhs[1:]))

    def test_envelope_holds_down_to_round_off_of_the_scale(self):
        assert envelope_holds(-1e-12, 0.5) and not envelope_holds(-1.5e-12, 0.5)  # the scale counts from 1
        assert envelope_holds(-1e-11, 10.0) and not envelope_holds(-1.5e-11, 10.0)

    def test_calibrated_pair_is_judged_and_an_eps_pair_is_report_only(self, double_well):
        ref = self._cosine_traj(double_well)
        rep = gronwall_check(self._cosine_traj(double_well, delta=0.05), ref, RelEnergyConfig(lam=4.0), double_well)
        assert not rep.report_only
        assert envelope_holds(rep.min_step_margin(fit_gronwall_multiplier([rep])), 1.0)
        assert not envelope_holds(rep.min_step_margin(0.5), 1.0)
        # same initial data, another eps: E_rel(0) = 0 < max E_rel, so the drift is reported, not judged
        other = simulate(ref[0], SchemeConfig(dt=1e-4, epsilon=1e-1, p=4.0), double_well, 32 * 1e-4)
        drift = gronwall_check(other, ref, RelEnergyConfig(lam=4.0), double_well)
        assert drift.E_rel[0] == 0.0 < np.max(drift.E_rel)
        assert drift.report_only

    @pytest.mark.parametrize("grid", [Grid.line(24), Grid((6, 5), (1.0, 1.0))], ids=["line24", "box6x5"])
    def test_stacked_series_equal_the_per_state_values_bitwise(self, grid, double_well):
        mode = grid.cosine_mode()
        cfg, relcfg = SchemeConfig(dt=1e-4, epsilon=1e-3, p=4.0), RelEnergyConfig(lam=4.0)
        ref, pert = (simulate(initial_state(grid, Field(grid, 1.0 + 0.2 * mode), Field(grid, amp * mode)),
                              cfg, double_well, 8e-4) for amp in (0.3, 0.35))
        pairs = list(zip(pert, ref))
        assert np.array_equal(relative_energy(pert.stack, ref.stack, relcfg, double_well).total,
                              [relative_energy(s, r, relcfg, double_well).total for s, r in pairs])
        assert np.array_equal(dissipation_W(pert.stack, ref.stack, 1.0), [dissipation_W(s, r, 1.0) for s, r in pairs])
        assert np.array_equal(k_factor(ref.stack), [k_factor(r) for r in ref])
        assert np.array_equal(xi_monitor(ref.stack, 1.0), [xi_monitor(r, 1.0) for r in ref])

    def test_time_mismatch_rejected(self, double_well):
        a = self._cosine_traj(double_well, steps=32)
        b = self._cosine_traj(double_well, steps=16)
        with pytest.raises(ValueError):
            gronwall_check(a, b, RelEnergyConfig(lam=4.0), double_well)


class TestXiMonitor:
    def test_zero_state_unit_temperature(self, double_well):
        g = Grid.line(16)
        s = uniform_state(g, 1.0, 0.0, phi_t=0.0)
        for kappa in (0.5, 1.0, 2.0):
            assert xi_monitor(s, kappa) == pytest.approx(kappa / 2, rel=1e-13)

    def test_steady_trajectory_constant_xi(self, double_well, steady_pair):
        phi_star, theta_star = steady_pair
        g = Grid.line(16)
        cfg = SchemeConfig(dt=0.01, epsilon=0.0)
        init = initial_state(g, Field.full(g, theta_star), Field.full(g, phi_star))
        traj = simulate(init, cfg, double_well, 0.2)
        xis = [xi_monitor(s, 1.0) for s in traj]
        assert max(xis) - min(xis) < 1e-10

    def test_bounded_on_smooth_run(self, small_cosine_run):
        traj, _ = small_cosine_run
        xis = [xi_monitor(s, traj.config.kappa) for s in traj]
        assert all(math.isfinite(v) and 0.0 < v < 1e3 for v in xis)

    def test_pde_rate_matches_backward_difference_in_refinement(self, double_well):
        # the stored rate at step 1 approaches the PDE rate as dt -> 0, and
        # ``phi_t_mode="pde"`` stores exactly that rate
        g = Grid.line(32)
        (x,) = g.meshgrid()
        mode = np.cos(np.pi * x)
        gaps = []
        for dt in (1e-3, 5e-4, 2.5e-4):
            init = initial_state(g, Field(g, 1.0 + 0.2 * mode), Field(g, 0.3 * mode))
            cfg = SchemeConfig(dt=dt, epsilon=0.0)
            traj = simulate(init, cfg, double_well, 4 * dt)
            s = traj[1]
            pde = laplacian_neumann(s.phi).values - double_well.eval(s.phi.values, 1) + s.theta.values
            pde_state = initial_state(g, s.theta, s.phi, phi_t_mode="pde", potential=double_well)
            assert np.array_equal(pde_state.phi_t.values, pde)
            gaps.append(float(np.max(np.abs(s.phi_t.values - pde))))
        assert gaps[0] > gaps[1] > gaps[2]


class TestLogL1Bound:
    def test_random_positive_pairs(self):
        g = Grid.line(48)
        rng = np.random.default_rng(12)
        for _ in range(200):
            a = Field(g, rng.uniform(0.2, 3.0, size=48))
            b = Field(g, rng.uniform(0.2, 3.0, size=48))
            lhs, rhs = log_l1_bound(a, b)
            assert lhs <= rhs + 1e-12

    def test_tight_when_equal(self):
        g = Grid.line(8)
        a = Field.full(g, 1.5)
        lhs, rhs = log_l1_bound(a, a)
        assert lhs == 0.0 and rhs == 0.0


COARSE, FINE = Grid.line(8), Grid.line(16)


def trajectory_from(t0):
    """Three uniform states on COARSE at t0, t0 + 0.1, t0 + 0.2."""
    ones = Field(COARSE, np.ones((3, 8)))
    return Trajectory(State(t0 + 0.1 * np.arange(3), ones, ones, ones), SchemeConfig(dt=0.1))


@pytest.mark.parametrize("compare, message", [
    (lambda: lambda_dist(Field.full(COARSE, 1.0), Field.full(FINE, 1.0)), "fields live on different grids"),
    (lambda: relative_energy(uniform_state(COARSE, 1.0, 0.5), uniform_state(FINE, 1.0, 0.5), RelEnergyConfig(),
                             Potential.double_well()), "states live on different grids"),
    (lambda: dissipation_W(uniform_state(COARSE, 1.0, 0.5), uniform_state(FINE, 1.0, 0.5)),
     "states live on different grids"),
    (lambda: log_l1_bound(Field.full(COARSE, 1.0), Field.full(FINE, 1.0)), "fields live on different grids"),
    (lambda: require_comparable(trajectory_from(0.0), trajectory_from(0.5)), "not sampled at the same times"),
], ids=["lambda_dist", "relative_energy", "dissipation_W", "log_l1_bound", "require_comparable"])
def test_a_pair_that_cannot_be_compared_is_refused(compare, message):
    with pytest.raises(ValueError, match=message):
        compare()
