import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_banded

from fremond import stepper
from fremond.errors import (
    ConfigError,
    NonpositiveTemperature,
    SimulationAborted,
    SolverError,
)
from fremond.grid import Field, Grid, _lap_values
from fremond.potential import Potential
from fremond.stepper import (
    SchemeConfig,
    State,
    Trajectory,
    heat_step,
    initial_state,
    phase_step,
    simulate,
    step,
)
from fremond.stepper import NEWTON_TOL, _heat_linearized, _heat_terms, _phase_left, _solve_helmholtz
from fremond.thermo import floors_check


def scalar_newton(f, df, x0, tol=1e-14, max_iter=100):
    """Independent one-unknown Newton used as the oracle for uniform data."""
    x = x0
    for _ in range(max_iter):
        r = f(x)
        if abs(r) < tol:
            return x
        x -= r / df(x)
    raise AssertionError("scalar oracle did not converge")


def uniform_state(grid, theta, phi):
    return initial_state(grid, Field.full(grid, theta), Field.full(grid, phi))


class TestSchemeConfig:
    def test_p_constraint_only_bites_with_regularization(self):
        SchemeConfig(dt=0.1, epsilon=0.0, p=2.0)  # fine
        with pytest.raises(ConfigError):
            SchemeConfig(dt=0.1, epsilon=0.1, p=3.0)

    def test_positive_parameters(self):
        with pytest.raises(ConfigError):
            SchemeConfig(dt=-1.0)
        with pytest.raises(ConfigError):
            SchemeConfig(dt=0.1, kappa=0.0)
        with pytest.raises(ConfigError, match="fp_max_iter"):
            SchemeConfig(dt=0.1, fp_max_iter=0)

    @pytest.mark.parametrize("name", ["dt", "kappa", "epsilon", "p"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameters_rejected(self, name, value):
        # nan passes every <= and < test, so the range checks alone let it through
        with pytest.raises(ConfigError, match="not finite"):
            SchemeConfig(**{"dt": 1e-3, name: value})


class TestState:
    def test_positivity_checked(self):
        g = Grid.line(8)
        with pytest.raises(NonpositiveTemperature):
            State(0.0, Field.full(g, -0.1), Field.zeros(g), Field.zeros(g))

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            State(0.0, Field.full(Grid.line(8), 1.0), Field.zeros(Grid.line(9)), Field.zeros(Grid.line(8)))

    @pytest.mark.parametrize("t, shape, at, message", [
        (0.5, (5, 8), (3, 4), "at t = 0.5 in member 3$"),
        (np.array([0.0, 0.1, 0.2]), (3, 8), (2, 4), "at t = 0.2$"),
        (np.array([0.0, 0.1, 0.2]), (3, 5, 8), (1, 3, 4), "at t = 0.1 in member 3$"),
    ], ids=["members", "times", "times_and_members"])
    def test_nonpositive_cell_of_a_stack_names_its_time_and_member(self, t, shape, at, message):
        g = Grid.line(8)
        theta = np.ones(shape)
        theta[at] = -1.0
        ones = Field(g, np.ones(shape))
        with pytest.raises(NonpositiveTemperature, match=message):
            State(t, Field(g, theta), ones, ones)


class TestPhaseStep:
    def test_steady_scalar_fixed_point(self, double_well, steady_pair):
        phi_star, theta_star = steady_pair
        g = Grid.line(16)
        prev = uniform_state(g, theta_star, phi_star)
        cfg = SchemeConfig(dt=0.01, epsilon=0.0)
        out = phase_step(prev, Field.full(g, theta_star), cfg, double_well)
        assert np.max(np.abs(out.values - phi_star)) < 1e-10

    def test_uniform_update_matches_scalar_oracle(self, double_well):
        g = Grid.line(16)
        dt, lam = 0.02, double_well.lam
        phi_old, theta_bar = 0.4, 0.7
        prev = uniform_state(g, 1.0, phi_old)
        cfg = SchemeConfig(dt=dt, epsilon=0.0)
        out = phase_step(prev, Field.full(g, theta_bar), cfg, double_well)
        oracle = scalar_newton(
            lambda x: (x - phi_old) / dt + double_well.convex(x, 1) - 2 * lam * phi_old - theta_bar,
            lambda x: 1 / dt + double_well.convex(x, 2),
            phi_old,
        )
        assert np.max(np.abs(out.values - oracle)) < 1e-10

    def test_zero_potential_preserves_constants(self):
        # lam = 0, F = 0, theta_bar = 0: a pure heat-semigroup step, so the
        # update reduces to (phi+ - 0.25)/dt - lap phi+ = 0 with phi+ = 0.25
        g = Grid.line(12)
        pot = Potential.zero()
        prev = uniform_state(g, 1.0, 0.25)
        cfg = SchemeConfig(dt=0.05, epsilon=0.0)
        out = phase_step(prev, Field.full(g, 0.0), cfg, pot)
        assert np.max(np.abs(out.values - 0.25)) < 1e-12


class TestHeatStep:
    def test_epsilon_decay_single_step_vs_ode(self):
        g = Grid.line(16)
        eps, p, dt, th0 = 0.5, 4.0, 0.01, 1.0
        prev = uniform_state(g, th0, 0.0)
        cfg = SchemeConfig(dt=dt, epsilon=eps, p=p)
        out = heat_step(prev, prev.phi, cfg)
        exact = (th0 ** (1 - p) + eps * (p - 1) * dt) ** (1 / (1 - p))
        # backward Euler is O(dt) accurate per... O(dt^2) locally
        assert abs(out.theta.values[0] - exact) < 0.5 * dt * dt
        oracle = scalar_newton(
            lambda x: (x - th0) / dt + eps * x**p,
            lambda x: 1 / dt + eps * p * x**3,
            th0,
        )
        assert np.max(np.abs(out.theta.values - oracle)) < 1e-10

    def test_pure_heat_preserves_uniform(self):
        g = Grid.line(16)
        prev = uniform_state(g, 2.0, 0.0)
        cfg = SchemeConfig(dt=0.1, epsilon=0.0)
        out = heat_step(prev, prev.phi, cfg)
        assert np.array_equal(out.theta.values, np.full(16, 2.0))

    def test_uniform_positive_rate_matches_scalar_oracle(self):
        g = Grid.line(16)
        dt, eps, p, th0, d = 0.02, 1e-2, 4.0, 0.8, 1.5
        prev = uniform_state(g, th0, 0.0)
        cfg = SchemeConfig(dt=dt, epsilon=eps, p=p)
        phi_new = Field.full(g, d * dt)
        out = heat_step(prev, phi_new, cfg)
        oracle = scalar_newton(
            lambda x: (x - th0) / dt + eps * x**p + x * d - d * d,
            lambda x: 1 / dt + eps * p * x**3 + d,
            th0,
        )
        assert np.max(np.abs(out.theta.values - oracle)) < 1e-10
        assert out.t == prev.t + dt and out.phi is phi_new
        assert np.array_equal(out.phi_t.values, (phi_new.values - prev.phi.values) / dt)

    def test_state_is_frozen_phase_runs_first_step_bitwise(self):
        from fremond.harness import frozen_phase_run

        g = Grid.line(16)
        mode = g.cosine_mode()
        init = initial_state(g, Field(g, 1.0 + 0.2 * mode), Field(g, 0.3 * mode))
        cfg = SchemeConfig(dt=0.05, epsilon=0.5)
        assert_same_state(heat_step(init, init.phi, cfg), frozen_phase_run(init, cfg, cfg.dt)[1])

    def test_positivity_asserted_not_clipped(self):
        # d < -1/dt drives the backward-Euler temperature negative: (th - 0.5) - 2 th = 4, th = -4.5,
        # which the State that heat_step builds rejects, naming its time
        g = Grid.line(8)
        prev = uniform_state(g, 0.5, 0.0)
        cfg = SchemeConfig(dt=1.0, epsilon=0.0)
        with pytest.raises(NonpositiveTemperature, match=r"^min theta = -4.5 at t = 1$"):
            heat_step(prev, Field.full(g, -2.0), cfg)

    def test_newton_stops_at_the_iteration_cap(self):
        # fp_max_iter counts residual checks: this solve converges at its third check
        g = Grid.line(8)
        prev = uniform_state(g, 1.0, 0.0)
        with pytest.raises(SolverError, match="^heat Newton stalled"):
            heat_step(prev, prev.phi, SchemeConfig(dt=0.01, epsilon=0.5, fp_max_iter=2))
        assert heat_step(prev, prev.phi, SchemeConfig(dt=0.01, epsilon=0.5, fp_max_iter=3)).theta.values.max() < 1.0

    def test_singular_jacobian_is_linear_solve_failure(self):
        # d = -1/dt cancels the identity: the Jacobian is kappa (-lap), singular
        g = Grid.line(8)
        prev = uniform_state(g, 0.5, 0.0)
        with pytest.raises(SolverError, match="^tridiagonal solve failed"):
            heat_step(prev, Field.full(g, -1.0), SchemeConfig(dt=1.0, epsilon=0.0))


class TestHelmholtz:
    def test_matches_banded_reference_bitwise(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 16, 101):
            g = Grid.line(n, rng.uniform(0.5, 2.0))
            for _ in range(20):
                diag = rng.uniform(1.0, 1e4, size=n)
                c = rng.uniform(0.1, 2.0)
                rhs = rng.normal(size=n)
                w = c / g.h[0] ** 2
                ab = np.zeros((3, n))
                ab[1] = diag + 2.0 * w
                ab[1, 0] -= w
                ab[1, -1] -= w
                ab[0, 1:] = -w
                ab[2, :-1] = -w
                assert np.array_equal(_solve_helmholtz(diag, c, rhs, g), solve_banded((1, 1), ab, rhs))

    @pytest.mark.parametrize("grid", [Grid.line(16, 1.5), Grid((16, 12), (1.0, 1.5))], ids=["line", "box"])
    @pytest.mark.parametrize("zero_rhs", [False, True], ids=["random_rhs", "zero_rhs"])
    def test_stacked_members_solve_bitwise_as_alone(self, grid, zero_rhs):
        # 1D: zero off-diagonal entries at the block seams decouple the members exactly;
        # 2D: a member that meets its stop takes zero-length steps from then on
        rng = np.random.default_rng(5)
        diag, rhs = rng.uniform(1.0, 1e4, size=(3, *grid.shape)), rng.normal(size=(3, *grid.shape))
        if zero_rhs:
            rhs[1] = 0.0
        x = _solve_helmholtz(diag, 0.7, rhs, grid)
        assert x.shape == (3, *grid.shape)
        for j in range(3):
            assert x[j].tobytes() == _solve_helmholtz(diag[j], 0.7, rhs[j], grid).tobytes()

    @pytest.mark.parametrize("n", [64, 128])
    def test_cg_iterations_per_solve_do_not_grow_with_n(self, n, monkeypatch):
        """One Laplacian per CG iteration: on one step of the 2D bench box, every solve takes at most 6."""
        from fremond.config import load_config
        from fremond.harness import make_initial

        run = load_config(Path(__file__).resolve().parents[1] / "bench" / "box2d.cfg", [f"grid.n={n}"])
        state = make_initial(run.grid, run.potential, run.initial)
        laps, per_solve = [0], []
        lap, solve = stepper._lap_values, stepper._solve_helmholtz

        def counting_lap(*args):
            laps[0] += 1
            return lap(*args)

        def counting_solve(*args):
            before = laps[0]
            x = solve(*args)
            per_solve.append(laps[0] - before)
            return x

        monkeypatch.setattr(stepper, "_lap_values", counting_lap)
        monkeypatch.setattr(stepper, "_solve_helmholtz", counting_solve)
        step(state, run.scheme, run.potential)
        assert len(per_solve) == 10 and max(per_solve) <= 6

    @pytest.mark.parametrize("fill, cell", [(0.0, 0.0), (10.0, -1000.0)], ids=["singular", "indefinite"])
    def test_2d_operator_not_positive_definite_is_linear_solve_failure(self, fill, cell):
        # zero: the constant vector is in the kernel; one cell at -1000: its unit vector has a negative form,
        # though the mean of the diagonal stays positive
        g = Grid((16, 16), (1.0, 1.0))
        diag = np.full(g.shape, fill)
        diag[3, 5] = cell
        with pytest.raises(SolverError, match="^operator lost positive definiteness$"):
            _solve_helmholtz(diag, 1e-3, np.random.default_rng(0).normal(size=g.shape), g)


def reference_heat_residual(u, rhs, d, cfg, grid):
    """The heat residual evaluated whole at u, as before its terms in u were shared."""
    res = u / cfg.dt - cfg.kappa * _lap_values(u, grid) + u * d - rhs
    return res + cfg.epsilon * (np.sign(u) * np.abs(u) ** cfg.p) if cfg.epsilon > 0.0 else res


def reference_heat_jacobian(u, d, cfg):
    diag = 1.0 / cfg.dt + d
    return diag + cfg.epsilon * cfg.p * np.abs(u) ** (cfg.p - 1.0) if cfg.epsilon > 0.0 else diag


def heat_implicit(u, cfg, grid):
    """The heat equation's implicit part u/dt - kappa lap u, computed for it alone."""
    return u / cfg.dt - cfg.kappa * _lap_values(u, grid)


def heat_iterates(rng, shape):
    """Heat iterates u: ten that may dip below zero (nearly always one cell does), ten all positive,
    and one each with a single +0.0, -0.0 or NaN cell among positive ones."""
    for _ in range(10):
        yield rng.uniform(-0.5, 2.0, size=shape)  # a Newton iterate may dip below zero
    for _ in range(10):
        yield rng.uniform(0.05, 2.0, size=shape)
    for cell in (0.0, -0.0, np.nan):
        u = rng.uniform(0.05, 2.0, size=shape)
        u.flat[rng.integers(u.size)] = cell
        yield u


class TestHeatTerms:
    """The heat residual and Jacobian built from ``_heat_terms`` are bitwise the whole evaluation."""

    @pytest.mark.parametrize("epsilon", [0.0, 1e-3, 0.5])
    @pytest.mark.parametrize("grid, shape", [(Grid.line(16, 1.5), (16,)), (Grid.line(16), (3, 16)),
                                             (Grid((8, 6), (1.0, 2.0)), (2, 8, 6))],
                             ids=["solo", "batch", "2d_batch"])
    def test_bitwise_equal_to_the_whole_evaluation(self, epsilon, grid, shape):
        for p in (4.5, 5.0):  # at p = 5, (-0.0)^p is -0.0 where the sign/abs form gives +0.0
            rng = np.random.default_rng(11)
            cfg = SchemeConfig(dt=1e-3, kappa=0.7, epsilon=epsilon, p=p)
            for u in heat_iterates(rng, shape):
                d, rhs = rng.normal(size=shape), rng.uniform(0.5, 2e3, size=shape)
                terms = _heat_terms(u, heat_implicit(u, cfg, grid), cfg)
                if epsilon > 0.0:  # the power terms themselves are bitwise the sign/abs form
                    a = np.abs(u)
                    assert terms[1].tobytes() == (cfg.epsilon * (np.sign(u) * a ** cfg.p)).tobytes()
                    assert terms[2].tobytes() == (cfg.epsilon * cfg.p * a ** (cfg.p - 1.0)).tobytes()
                for d_at in (d, np.zeros(shape)):  # one set of terms serves every rate d
                    res, jacobian_diag = _heat_linearized(terms, u, d_at, rhs, cfg)
                    assert res.tobytes() == reference_heat_residual(u, rhs, d_at, cfg, grid).tobytes()
                    assert jacobian_diag().tobytes() == reference_heat_jacobian(u, d_at, cfg).tobytes()

    def test_each_sweep_evaluates_theta_terms_once(self, monkeypatch):
        """Per step on ``cosine``: one Laplacian per check, of phi and theta stacked; one ``_l2`` per
        check, of both residuals stacked, plus one per step for both thresholds; G' at every sweep's
        check and G'' at every sweep's phase update. After the first step, the first check reuses
        the previous step's final one and evaluates no Laplacian and no G'."""
        from fremond.config import load_config
        from fremond.harness import make_initial

        run = load_config(Path(__file__).resolve().parents[1] / "presets" / "cosine.cfg")
        state = make_initial(run.grid, run.potential, run.initial)
        calls, convex = {"lap": 0, "l2": 0}, {1: 0, 2: 0}
        lap, l2, pot_convex = stepper._lap_values, stepper._l2, Potential.convex

        def counting(key, fn):
            def counted(*args):
                calls[key] += 1
                return fn(*args)
            return counted

        def counting_convex(pot, y, order=0):
            convex[order] += 1
            return pot_convex(pot, y, order)

        monkeypatch.setattr(stepper, "_lap_values", counting("lap", lap))
        monkeypatch.setattr(stepper, "_l2", counting("l2", l2))
        monkeypatch.setattr(Potential, "convex", counting_convex)
        for k in range(16):
            calls["lap"], calls["l2"], convex[1], convex[2] = 0, 0, 0, 0
            stats = {}
            state = step(state, run.scheme, run.potential, stats)
            sweeps = stats["picard_iterations"]
            assert sweeps > 1
            checks = sweeps if k == 0 else sweeps - 1
            assert calls == {"lap": checks, "l2": sweeps + 1}
            assert convex == {1: checks, 2: sweeps - 1}


def without_pieces(s):
    """The same values as a State that carries no pieces of a final check."""
    return State(s.t, s.theta, s.phi, s.phi_t)


def assert_same_state(a, b):
    assert a.t == b.t
    for f in ("theta", "phi", "phi_t"):
        assert getattr(a, f).values.tobytes() == getattr(b, f).values.tobytes(), f


class TestReusedPieces:
    """A step's first check reuses the pieces its predecessor's final check left on the State,
    bitwise as if it computed them: each march equals one whose every step starts from a State
    rebuilt without pieces."""

    @staticmethod
    def assert_march_as_rebuilt(init, cfg, potential, steps):
        chained = rebuilt = init
        for _ in range(steps):
            chained = step(chained, cfg, potential)
            rebuilt = step(without_pieces(rebuilt), cfg, potential)
            assert chained._pieces is not None
            assert_same_state(chained, rebuilt)

    def test_cosine_steps(self):
        from fremond.config import load_config
        from fremond.harness import make_initial

        run = load_config(Path(__file__).resolve().parents[1] / "presets" / "cosine.cfg")
        self.assert_march_as_rebuilt(make_initial(run.grid, run.potential, run.initial), run.scheme,
                                     run.potential, 64)

    def test_batch_with_a_member_frozen_early(self, double_well, steady_pair):
        g = Grid.line(16)
        mode = g.cosine_mode()
        moving = [initial_state(g, Field(g, 1.0 + 0.2 * mode), Field(g, amp * mode)) for amp in (0.2, 0.3)]
        batch = stack_states([uniform_state(g, steady_pair[1], steady_pair[0]), *moving])  # member 0 freezes at once
        self.assert_march_as_rebuilt(batch, SchemeConfig(dt=1e-3, epsilon=0.0), double_well, 8)

    def test_2d_batch(self, double_well):
        g = Grid((8, 8), (1.0, 1.0))
        mode = g.cosine_mode()
        members = [initial_state(g, Field(g, 1.0 + 0.2 * mode), Field(g, amp * mode)) for amp in (0.3, 0.1)]
        self.assert_march_as_rebuilt(stack_states(members), SchemeConfig(dt=1e-3, epsilon=1e-3, p=4.0), double_well, 4)

    @staticmethod
    def assert_pieces_as_each_equation_alone(state, cfg, potential, steps):
        """The pieces each step leaves, from its stacked check, are bitwise ``_phase_left(phi)`` and
        ``_heat_terms(theta)`` evaluated one equation at a time."""
        for _ in range(steps):
            state = step(state, cfg, potential)
            assert state._pieces[:2] == (cfg, potential)
            left, terms = state._pieces[2:]
            phi, theta, grid = state.phi.values, state.theta.values, state.grid
            want_left = _phase_left(phi, phi / cfg.dt - _lap_values(phi, grid), potential)
            assert left.shape == want_left.shape and left.tobytes() == want_left.tobytes()
            want_terms = _heat_terms(theta, heat_implicit(theta, cfg, grid), cfg)
            assert [t is None for t in terms] == [t is None for t in want_terms]
            for got, want in zip(terms, want_terms):
                assert got is None or (got.shape == want.shape and got.tobytes() == want.tobytes())

    def test_cosine_pieces_are_each_equation_alone(self):
        from fremond.config import load_config
        from fremond.harness import make_initial

        run = load_config(Path(__file__).resolve().parents[1] / "presets" / "cosine.cfg")
        self.assert_pieces_as_each_equation_alone(make_initial(run.grid, run.potential, run.initial), run.scheme,
                                                  run.potential, 16)

    def test_2d_batch_pieces_are_each_equation_alone(self, double_well):
        g = Grid((16, 16), (1.0, 1.0))
        mode = g.cosine_mode()
        members = [initial_state(g, Field(g, 1.0 + 0.2 * mode), Field(g, amp * mode)) for amp in (0.3, 0.2, 0.1)]
        batch = stack_states(members)
        assert batch.phi.values.shape == (3, 16, 16)
        self.assert_pieces_as_each_equation_alone(batch, SchemeConfig(dt=1e-3, epsilon=1e-3, p=4.0), double_well, 4)

    @pytest.mark.parametrize("epsilon", [1e-3, 0.0])
    @pytest.mark.parametrize("layout", ["solo", "batch", "2d_batch"])
    def test_kappa_below_one(self, layout, epsilon, double_well):
        """At kappa = 0.5 the stacked check scales the heat row of its Laplacian alone: the pieces
        are each equation's alone and the march equals the rebuilt one."""
        g = Grid((8, 8), (1.0, 1.0)) if layout == "2d_batch" else Grid.line(16)
        mode = g.cosine_mode()
        members = [initial_state(g, Field(g, 1.0 + 0.2 * mode), Field(g, amp * mode)) for amp in (0.3, 0.1)]
        init = members[0] if layout == "solo" else stack_states(members)
        cfg = SchemeConfig(dt=1e-3, kappa=0.5, epsilon=epsilon, p=4.0)
        self.assert_pieces_as_each_equation_alone(init, cfg, double_well, 4)
        self.assert_march_as_rebuilt(init, cfg, double_well, 4)

    def test_cosine_at_kappa_below_one_meets_both_thresholds(self):
        """16 steps of ``cosine`` at kappa = 0.5: after each, both residuals evaluated whole, the phase one
        written out and the heat one by ``reference_heat_residual``, meet the step's thresholds."""
        from fremond.config import load_config
        from fremond.harness import make_initial

        run = load_config(Path(__file__).resolve().parents[1] / "presets" / "cosine.cfg", ["scheme.kappa=0.5"])
        cfg, pot, grid = run.scheme, run.potential, run.grid
        assert cfg.kappa == 0.5
        state = make_initial(grid, pot, run.initial)
        for _ in range(16):
            prev, state = state, step(state, cfg, pot)
            phi_old, theta_old, phi, theta = prev.phi.values, prev.theta.values, state.phi.values, state.theta.values
            d = (phi - phi_old) / cfg.dt
            phase = phi / cfg.dt - _lap_values(phi, grid) + pot.convex(phi, 1) - (
                phi_old / cfg.dt + 2.0 * pot.lam * phi_old + theta)
            heat = reference_heat_residual(theta, theta_old / cfg.dt + d * d, d, cfg, grid)
            for res, old in ((phase, phi_old), (heat, theta_old)):
                tol = NEWTON_TOL * max(1.0, np.sqrt(np.sum(old * old) * grid.cell_volume) / cfg.dt)
                assert np.sqrt(np.sum(res * res) * grid.cell_volume) <= tol

    @pytest.mark.parametrize("change, lam", [({"dt": 2e-3}, 4.0), ({"kappa": 0.5}, 4.0), ({"epsilon": 0.1}, 4.0),
                                             ({}, 6.0)], ids=["dt", "kappa", "epsilon", "potential"])
    def test_pieces_of_another_scheme_or_potential_are_ignored(self, change, lam):
        g = Grid.line(16)
        mode = g.cosine_mode()
        cfg = SchemeConfig(dt=1e-3, epsilon=1e-3)
        state = step(initial_state(g, Field(g, 1.0 + 0.2 * mode), Field(g, 0.3 * mode)), cfg, Potential.double_well())
        cfg, potential = dataclasses.replace(cfg, **change), Potential.double_well(lam)
        assert_same_state(step(state, cfg, potential), step(without_pieces(state), cfg, potential))

    def test_pieces_of_an_equal_but_distinct_scheme_are_recomputed(self, double_well, monkeypatch):
        """Reuse asks for the very cfg and potential objects: an equal copy of cfg recomputes the
        pieces (one more Laplacian) and steps to the same bits."""
        g = Grid.line(16)
        mode = g.cosine_mode()
        cfg = SchemeConfig(dt=1e-3, epsilon=1e-3)
        state = step(initial_state(g, Field(g, 1.0 + 0.2 * mode), Field(g, 0.3 * mode)), cfg, double_well)
        twin = dataclasses.replace(cfg)
        assert twin == cfg and twin is not cfg
        laplacians = [0]
        lap = stepper._lap_values

        def counting(*args):
            laplacians[0] += 1
            return lap(*args)

        monkeypatch.setattr(stepper, "_lap_values", counting)
        counts, outs = [], []
        for scheme in (cfg, twin):
            laplacians[0] = 0
            outs.append(step(state, scheme, double_well))
            counts.append(laplacians[0])
        assert counts[1] == counts[0] + 1
        assert_same_state(*outs)


def stack_states(states):
    """One State with a leading member axis from solo States at one instant."""
    grid = states[0].grid
    return State(states[0].t, *(Field(grid, np.stack([getattr(s, f).values for s in states]))
                                for f in ("theta", "phi", "phi_t")))


class TestBatch:
    """A leading member axis marches runs that share grid, dt and potential as one."""

    @pytest.mark.parametrize("dt, sweeps", [(1e-3, [1, 5, 5]), (2e-3, [1, 5, 6])])
    def test_members_step_bitwise_as_alone(self, double_well, steady_pair, dt, sweeps):
        phi_star, theta_star = steady_pair
        g = Grid.line(16)
        mode = g.cosine_mode()
        cfg = SchemeConfig(dt=dt, epsilon=0.0)
        solos = [
            uniform_state(g, theta_star, phi_star),
            initial_state(g, Field(g, 1.0 + 0.2 * mode), Field(g, 0.2 * mode)),
            initial_state(g, Field(g, 1.0 + 0.2 * mode), Field(g, 0.3 * mode)),
        ]
        outs, counts = [], []
        for s in solos:
            stats = {}
            outs.append(step(s, cfg, double_well, stats))
            counts.append(stats["picard_iterations"])
        assert counts == sweeps
        assert np.array_equal(outs[0].theta.values, solos[0].theta.values)
        assert np.array_equal(outs[0].phi.values, solos[0].phi.values)
        stats = {}
        batch = step(stack_states(solos), cfg, double_well, stats)
        assert type(stats["picard_iterations"]) is int and stats["picard_iterations"] == max(sweeps)
        assert batch.t == outs[0].t
        for j, out in enumerate(outs):
            for f in ("theta", "phi", "phi_t"):
                assert np.array_equal(getattr(batch, f).values[j], getattr(out, f).values), (j, f)

    def test_2d_members_march_bitwise_as_alone(self, double_well):
        g = Grid((8, 8), (1.0, 1.0))
        mode = g.cosine_mode()
        cfg = SchemeConfig(dt=1e-3, epsilon=1e-3, p=4.0)
        solos = [initial_state(g, Field(g, 1.0 + 0.2 * mode), Field(g, amp * mode)) for amp in (0.3, 0.1)]
        batch = simulate(stack_states(solos), cfg, double_well, 3e-3)
        assert batch.stack.theta.values.shape == (4, 2, 8, 8)
        for j, solo in enumerate(solos):
            member, alone = batch.member(j), simulate(solo, cfg, double_well, 3e-3)
            assert np.shares_memory(member.stack.theta.values, batch.stack.theta.values)
            assert np.array_equal(member.times, alone.times)
            for f in ("theta", "phi", "phi_t"):
                assert np.array_equal(getattr(member.stack, f).values, getattr(alone.stack, f).values), (j, f)

    def test_2d_members_at_64_step_bitwise_as_alone(self):
        """On the bench box at n = 64, three members that take 5, 6 and 7 sweeps alone."""
        from fremond.config import load_config
        from fremond.harness import make_initial

        run = load_config(Path(__file__).resolve().parents[1] / "bench" / "box2d.cfg", ["grid.n=64"])
        solos = [make_initial(run.grid, run.potential, params) for params in (
            {"preset": "cosine_bump", "phi_amp": 0.2}, {"preset": "cosine_bump"}, {"preset": "random_smooth", "seed": 1})]
        outs, counts = [], []
        for s in solos:
            stats = {}
            outs.append(step(s, run.scheme, run.potential, stats))
            counts.append(stats["picard_iterations"])
        assert counts == [5, 6, 7]
        batch = step(stack_states(solos), run.scheme, run.potential)
        for j, out in enumerate(outs):
            for f in ("theta", "phi", "phi_t"):
                assert getattr(batch, f).values[j].tobytes() == getattr(out, f).values.tobytes(), (j, f)

    def test_a_member_losing_positivity_aborts_the_batch(self, double_well):
        # theta 0.1 under a phase far above its well: d < -1/dt drives that member negative
        g = Grid.line(8)
        cfg = SchemeConfig(dt=0.1, epsilon=0.0)
        batch = stack_states([uniform_state(g, 1.0, 0.5), uniform_state(g, 0.1, 4.0), uniform_state(g, 1.0, 0.0)])
        with pytest.raises(NonpositiveTemperature, match="at t = 0.1 in member 1"):
            step(batch, cfg, double_well)
        with pytest.raises(SimulationAborted) as err:
            simulate(batch, cfg, double_well, 0.3)
        assert err.value.step_index == 1 and isinstance(err.value.cause, NonpositiveTemperature)
        assert err.value.trajectory.stack.theta.values.shape == (1, 3, 8)


class TestNonFiniteResidual:
    """A check whose residual norm is not finite names its equation, the phase one first."""

    @pytest.mark.parametrize("theta, phi, name", [(1.0, 1e150, "phase"), (1e100, 0.3, "heat"), (1e100, 1e150, "phase")],
                             ids=["phase", "heat", "both"])
    @pytest.mark.parametrize("members", [1, 3], ids=["solo", "batch"])
    def test_step_and_march_name_the_equation(self, double_well, theta, phi, name, members):
        g = Grid.line(16)
        mode = g.cosine_mode()
        cfg = SchemeConfig(dt=1e-3, epsilon=1e-3, p=4.0)
        poisoned = uniform_state(g, theta, phi)
        healthy = initial_state(g, Field(g, 1.0 + 0.2 * mode), Field(g, 0.3 * mode))
        init = poisoned if members == 1 else stack_states([healthy, poisoned, healthy])
        message = f"^{name} solve produced non-finite residual$"
        with np.errstate(all="ignore"):  # G'(1e150) and eps (1e100)^p overflow to inf
            with pytest.raises(SolverError, match=message):
                step(init, cfg, double_well)
            with pytest.raises(SimulationAborted) as err:
                simulate(init, cfg, double_well, 4 * cfg.dt)
        assert err.value.step_index == 1
        assert type(err.value.cause) is SolverError
        assert re.match(message, str(err.value.cause))


class TestBatchNewton:
    """``phase_step``, ``heat_step`` and ``frozen_phase_run`` take the member axis too, and
    a member that converges in fewer Newton iterations than the rest is frozen bitwise."""

    @pytest.fixture
    def solve_count(self, monkeypatch):
        """Counts the linear solves, one per Newton iteration of a single solve."""
        count = [0]
        solve = stepper._solve_helmholtz

        def counting(*args):
            count[0] += 1
            return solve(*args)

        monkeypatch.setattr(stepper, "_solve_helmholtz", counting)
        return count

    @staticmethod
    def _members(g, thetas, phi_amp=0.3):
        mode = g.cosine_mode()
        return [initial_state(g, Field(g, th + 0.2 * mode), Field(g, phi_amp * mode)) for th in thetas]

    def test_heat_step_members_solve_bitwise_as_alone(self, solve_count):
        g = Grid.line(16)
        cfg = SchemeConfig(dt=0.05, epsilon=0.5)
        solos = self._members(g, (1.0, 2.0, 3.0))
        outs, counts = [], []
        for s in solos:
            solve_count[0] = 0
            outs.append(heat_step(s, s.phi, cfg))
            counts.append(solve_count[0])
        assert counts == [3, 4, 5]
        batch = stack_states(solos)
        solve_count[0] = 0
        out = heat_step(batch, batch.phi, cfg)
        assert solve_count[0] == max(counts)
        for j, alone in enumerate(outs):
            assert np.array_equal(out.theta.values[j], alone.theta.values), j

    def test_phase_step_members_solve_bitwise_as_alone(self, double_well, steady_pair, solve_count):
        phi_star, theta_star = steady_pair
        g = Grid.line(16)
        cfg = SchemeConfig(dt=0.05)
        solos = [uniform_state(g, theta_star, phi_star), *self._members(g, (1.0,), 0.3),
                 *self._members(g, (1.0,), 1.0)]
        outs, counts = [], []
        for s in solos:
            solve_count[0] = 0
            outs.append(phase_step(s, s.theta, cfg, double_well))
            counts.append(solve_count[0])
        assert counts == [0, 3, 4]
        batch = stack_states(solos)
        out = phase_step(batch, batch.theta, cfg, double_well)
        for j, alone in enumerate(outs):
            assert np.array_equal(out.values[j], alone.values), j

    def test_frozen_phase_run_marches_members_bitwise_as_alone(self):
        from fremond.harness import frozen_phase_run

        g = Grid.line(16)
        cfg = SchemeConfig(dt=0.05, epsilon=0.5)
        solos = self._members(g, (1.0, 2.0))
        batch = frozen_phase_run(stack_states(solos), cfg, 0.15)
        assert batch.stack.phi_t.values.shape == (4, 2, 16)
        for j, solo in enumerate(solos):
            member, alone = batch.member(j), frozen_phase_run(solo, cfg, 0.15)
            for f in ("theta", "phi", "phi_t"):
                assert np.array_equal(getattr(member.stack, f).values, getattr(alone.stack, f).values), (j, f)

    def test_stalled_batch_reports_the_worst_unconverged_member(self):
        g = Grid.line(8)
        cfg = SchemeConfig(dt=0.01, epsilon=0.5, fp_max_iter=2)
        batch = stack_states([uniform_state(g, 1.0, 0.0), uniform_state(g, 2.0, 0.0)])
        with pytest.raises(SolverError, match="^heat Newton stalled at residual") as err:
            heat_step(batch, batch.phi, cfg)
        with pytest.raises(SolverError, match="^heat Newton stalled") as solo:
            heat_step(uniform_state(g, 2.0, 0.0), Field.zeros(g), cfg)
        assert str(err.value) == str(solo.value)


class TestStep:
    def test_steady_state_is_exact_fixed_point(self, double_well, steady_pair):
        phi_star, theta_star = steady_pair
        g = Grid.line(16)
        prev = uniform_state(g, theta_star, phi_star)
        cfg = SchemeConfig(dt=0.01, epsilon=0.0)
        stats = {}
        out = step(prev, cfg, double_well, stats)
        assert stats["picard_iterations"] == 1
        assert np.array_equal(out.theta.values, prev.theta.values)
        assert np.array_equal(out.phi.values, prev.phi.values)

    def test_sweeps_stop_only_when_both_residuals_converge(self, double_well, steady_pair):
        # theta = F'(phi*) zeroes the phase residual on the first sweep, while the
        # heat residual there is eps theta^p, far above its threshold
        phi_star, theta_star = steady_pair
        g = Grid.line(16)
        prev = uniform_state(g, theta_star, phi_star)
        cfg = SchemeConfig(dt=1e-3, epsilon=1e-2)
        stats = {}
        out = step(prev, cfg, double_well, stats)
        assert stats["picard_iterations"] > 1
        assert out.theta.values.max() < theta_star

    def test_uniform_step_matches_composed_scalar_oracle(self, double_well):
        g = Grid.line(16)
        dt, lam = 0.01, double_well.lam
        th0, ph0 = 0.9, 0.2
        cfg = SchemeConfig(dt=dt, epsilon=1e-3, p=4.0)
        prev = uniform_state(g, th0, ph0)
        out = step(prev, cfg, double_well)

        theta_bar = th0
        for _ in range(cfg.fp_max_iter):
            phi_new = scalar_newton(
                lambda x: (x - ph0) / dt + double_well.convex(x, 1) - 2 * lam * ph0 - theta_bar,
                lambda x: 1 / dt + double_well.convex(x, 2),
                ph0,
            )
            d = (phi_new - ph0) / dt
            theta_new = scalar_newton(
                lambda x: (x - th0) / dt + cfg.epsilon * x**4 + x * d - d * d,
                lambda x: 1 / dt + 4 * cfg.epsilon * x**3 + d,
                th0,
            )
            if abs(theta_new - theta_bar) <= 1e-10 * abs(theta_bar):
                break
            theta_bar = theta_new
        assert np.max(np.abs(out.theta.values - theta_new)) < 1e-9
        assert np.max(np.abs(out.phi.values - phi_new)) < 1e-9
        assert np.max(np.abs(out.phi_t.values - d)) < 1e-7

    def test_fixed_point_consistency_after_convergence(self, double_well):
        g = Grid.line(32)
        (x,) = g.meshgrid()
        init = initial_state(g, Field(g, 1.0 + 0.2 * np.cos(np.pi * x)), Field(g, 0.3 * np.cos(np.pi * x)))
        cfg = SchemeConfig(dt=1e-3, epsilon=1e-3, p=4.0)
        out = step(init, cfg, double_well)
        phi_re = phase_step(init, out.theta, cfg, double_well)
        vol = g.cell_volume
        dist = math.sqrt(float(np.sum((phi_re.values - out.phi.values) ** 2)) * vol)
        assert dist < 10 * NEWTON_TOL

    @pytest.mark.parametrize("grid", [Grid.line(32), Grid((8, 8), (1.0, 1.0))], ids=["line32", "box8x8"])
    def test_both_halves_reproduce_the_coupled_step(self, grid, double_well):
        # at the converged sweep each equation is solved for the other's output
        rng = np.random.default_rng(17)
        theta_amp, phi_amp = rng.uniform(0.1, 0.3, size=2)
        mode = grid.cosine_mode()
        init = initial_state(grid, Field(grid, 1.0 + theta_amp * mode), Field(grid, phi_amp * mode))
        cfg = SchemeConfig(dt=1e-3, epsilon=1e-3, p=4.0)
        out = step(init, cfg, double_well)
        phi_re = phase_step(init, out.theta, cfg, double_well)
        theta_re = heat_step(init, out.phi, cfg)
        vol = grid.cell_volume
        assert math.sqrt(float(np.sum((phi_re.values - out.phi.values) ** 2)) * vol) < 10 * NEWTON_TOL
        assert math.sqrt(float(np.sum((theta_re.theta.values - out.theta.values) ** 2)) * vol) < 10 * NEWTON_TOL

    def test_cosine_preset_needs_few_sweeps_per_step(self):
        from fremond.config import load_config
        from fremond.harness import make_initial

        run = load_config(Path(__file__).resolve().parents[1] / "presets" / "cosine.cfg")
        state = make_initial(run.grid, run.potential, run.initial)
        sweeps = []
        for _ in range(64):
            stats = {}
            state = step(state, run.scheme, run.potential, stats)
            sweeps.append(stats["picard_iterations"])
        assert np.mean(sweeps) <= 5

    def test_fixed_point_divergence_reported(self, double_well):
        g = Grid.line(16)
        (x,) = g.meshgrid()
        init = initial_state(g, Field(g, 1.0 + 0.2 * np.cos(np.pi * x)), Field(g, 0.3 * np.cos(np.pi * x)))
        cfg = SchemeConfig(dt=1e-3, epsilon=0.0, fp_max_iter=1)
        with pytest.raises(SolverError, match="^coupled sweeps did not converge"):
            step(init, cfg, double_well)

    def test_2d_step_runs_and_stays_positive(self, double_well):
        g = Grid((8, 8), (1.0, 1.0))
        X, Y = g.meshgrid()
        mode = np.cos(np.pi * X) * np.cos(np.pi * Y)
        init = initial_state(g, Field(g, 1.0 + 0.2 * mode), Field(g, 0.3 * mode))
        cfg = SchemeConfig(dt=1e-3, epsilon=1e-3, p=4.0)
        out = step(init, cfg, double_well)
        assert out.theta.min() > 0
        assert out.t == pytest.approx(1e-3)


class TestSimulate:
    def test_zero_span_gives_single_state(self, double_well):
        g = Grid.line(8)
        init = uniform_state(g, 1.0, 0.0)
        traj = simulate(init, SchemeConfig(dt=0.1), double_well, 0.0)
        assert len(traj) == 1

    def test_non_integral_span_rejected(self, double_well):
        g = Grid.line(8)
        init = uniform_state(g, 1.0, 0.0)
        with pytest.raises(ConfigError):
            simulate(init, SchemeConfig(dt=0.1), double_well, 0.25)

    def test_steady_trajectory_invariant_over_100_steps(self, double_well, steady_pair):
        phi_star, theta_star = steady_pair
        g = Grid.line(32)
        init = uniform_state(g, theta_star, phi_star)
        cfg = SchemeConfig(dt=0.01, epsilon=0.0)
        traj = simulate(init, cfg, double_well, 1.0)
        assert len(traj) == 101
        drift_th = max(np.max(np.abs(s.theta.values - theta_star)) for s in traj)
        drift_ph = max(np.max(np.abs(s.phi.values - phi_star)) for s in traj)
        assert drift_th < 1e-8
        assert drift_ph < 1e-8

    def test_abort_carries_partial_trajectory(self, double_well):
        g = Grid.line(16)
        (x,) = g.meshgrid()
        init = initial_state(g, Field(g, 1.0 + 0.2 * np.cos(np.pi * x)), Field(g, 0.3 * np.cos(np.pi * x)))
        cfg = SchemeConfig(dt=1e-3, epsilon=0.0, fp_max_iter=1)
        with pytest.raises(SimulationAborted) as err:
            simulate(init, cfg, double_well, 10e-3)
        assert err.value.step_index == 1
        assert len(err.value.trajectory) == 1

    @pytest.mark.parametrize("members", [None, 3])
    def test_marched_phi_t_is_each_steps_rate(self, double_well, steady_pair, members):
        # the trajectory derives phi_t from phi (``Trajectory.of``); it must be bitwise each step's own rate d
        g = Grid.line(16)
        mode = g.cosine_mode()
        init = initial_state(g, Field(g, 1.0 + 0.2 * mode), Field(g, 0.3 * mode), "pde", double_well)
        if members:  # member 0 sits at the steady state and freezes at once
            init = stack_states([uniform_state(g, steady_pair[1], steady_pair[0]), init,
                                 initial_state(g, Field(g, 1.1 + 0.1 * mode), Field(g, -0.2 * mode), "pde", double_well)])
        cfg = SchemeConfig(dt=1e-3, epsilon=1e-3, p=4.0)
        traj = simulate(init, cfg, double_well, 6e-3)
        state = init
        for k in range(len(traj)):
            assert traj.stack.phi_t.values[k].tobytes() == state.phi_t.values.tobytes(), k
            state = step(state, cfg, double_well)

    def test_uniform_epsilon_decay_matches_closed_form_globally(self):
        # frozen-phase path: with d = 0 the heat step integrates th' = -eps th^p
        from fremond.harness import closed_form_uniform_theta, frozen_phase_run

        g = Grid.line(8)
        eps, p, dt, t_end = 0.5, 4.0, 0.01, 1.0
        init = uniform_state(g, 1.0, 0.0)
        cfg = SchemeConfig(dt=dt, epsilon=eps, p=p)
        traj = frozen_phase_run(init, cfg, t_end)
        worst = max(
            abs(s.theta.values[0] - closed_form_uniform_theta(s.t, 1.0, eps, p)) for s in traj
        )
        assert worst < 5 * dt


def constant_run(theta, phi, dt, steps, cells=4):
    """A hand-built run: steps + 1 states at spacing dt, each uniform theta and phi."""
    g = Grid.line(cells)
    shape = (steps + 1, *g.shape)
    return Trajectory.of(np.arange(steps + 1) * dt, np.full(shape, theta), np.full(shape, phi), Field.zeros(g),
                         SchemeConfig(dt=dt))


class TestFloors:
    """``floors_check``'s positivity (temperature) and phase floors on runs whose minima are set by hand."""

    @pytest.fixture(scope="class")
    def theta_floor(self):
        # h0 = 0.8 and p = 4 for 1000 steps of dt = 1e-3: the temperature floor up to t = 1
        run = constant_run(0.8, 0.0, 1e-3, 1000)
        return run.times - run.times[0], floors_check(run, lam=0.0).theta_floor

    def test_positivity_floor_at_zero(self, theta_floor):
        assert theta_floor[1][0] == 0.8

    def test_positivity_floor_envelopes(self, theta_floor):
        # upper envelope: h' = -h^2/2 alone solves h0/(1 + h0 t / 2)
        t, h = theta_floor
        assert np.all(0.0 < h) and np.all(h <= 0.8)
        assert np.all(h <= 0.8 / (1 + 0.8 * t / 2) + 1e-12)

    def test_positivity_floor_against_independent_integrator(self, theta_floor):
        from scipy.integrate import solve_ivp

        t, h = theta_floor
        for k in (250, 1000):
            sol = solve_ivp(lambda s, y: -(y[0] ** 4.0) - 0.5 * y[0] ** 2, (0, t[k]), [0.8], rtol=1e-12, atol=1e-14)
            assert h[k] == pytest.approx(float(sol.y[0, -1]), rel=1e-9)

    def test_positivity_floor_monotone(self, theta_floor):
        h = theta_floor[1]
        assert np.all(h[1:] < h[:-1])

    def test_phase_floor_values(self):
        assert list(floors_check(constant_run(1.0, -1.0, 0.25, 2), lam=0.0).phi_floor) == [-1.0, -1.0, -1.0]
        grows = floors_check(constant_run(1.0, -1.0, 0.25, 2), lam=4.0).phi_floor
        assert grows[0] == -1.0
        assert grows[1] == pytest.approx(-math.exp(2.0), rel=1e-14)
        assert list(floors_check(constant_run(1.0, 0.5, 0.25, 2), lam=4.0).phi_floor) == [0.0, 0.0, 0.0]

    def test_phase_floor_past_the_float_range(self):
        # e^{2 lam t} is finite up to 2 lam t = 709.78; lam = 1e3 gives 704 at t = 0.352 and 1408 at t = 0.704
        floor = floors_check(constant_run(1.0, -0.5, 0.352, 2), lam=1e3).phi_floor
        assert floor[1] == -0.5 * math.exp(704.0)
        assert floor[2] == -math.inf
        zero = floors_check(constant_run(1.0, 0.5, 0.352, 2), lam=1e3).phi_floor
        assert [math.copysign(1.0, v) for v in zero] == [-1.0, -1.0, -1.0]


class TestTrajectory:
    @staticmethod
    def stack(grid, times):
        ones = Field(grid, np.ones((len(times), *grid.shape)))
        return State(np.array(times), ones, ones, ones)

    def test_times_must_increase(self, double_well):
        g = Grid.line(8)
        with pytest.raises(ValueError):
            Trajectory(self.stack(g, [0.0, 0.0]), SchemeConfig(dt=0.1))

    def test_uniform_dt_enforced(self, double_well):
        g = Grid.line(8)
        with pytest.raises(ValueError):
            Trajectory(self.stack(g, [0.0, 0.1, 0.35]), SchemeConfig(dt=0.1))

    def test_states_are_views_of_the_stack(self, double_well):
        g = Grid.line(8)
        traj = Trajectory(self.stack(g, [0.0, 0.1, 0.2]), SchemeConfig(dt=0.1))
        assert len(traj) == 3 and [s.t for s in traj] == [0.0, 0.1, 0.2]
        traj.stack.theta.values[2, 0] = 5.0
        assert traj[-1].theta.values[0] == 5.0 and traj[-1].grid is g
