import math

import numpy as np
import pytest

from fremond.config import build_run_config, load_config, parse_config_text, render_config
from fremond import harness
from fremond.errors import ConfigError, PositivityLost, SimulationAborted
from fremond.grid import Field, Grid, write_snapshot
from fremond.harness import (
    ExperimentConfig,
    closed_form_uniform_theta,
    eps_sweep,
    frozen_phase_run,
    load_run_dir,
    make_initial,
    manufactured_heat_test,
    persist_trajectory,
    read_csv,
    refinement_study,
    weak_strong_experiment,
    write_csv,
    write_manifest,
)
from fremond.stepper import SchemeConfig, heat_step, initial_state, simulate


BASE_CFG = """
[grid]
dim = 1
n = 16
extent = 1.0

[scheme]
kappa = 1.0
epsilon = 1e-3
p = 4.0
dt = 1e-3

[potential]
potential = double_well
lambda = 4.0

[initial]
preset = cosine_bump
theta_base = 1.0
theta_amp = 0.2
phi_base = 0.0
phi_amp = 0.3

[run]
t_end = 0.016
"""


def base_run(extra: str = ""):
    return build_run_config(parse_config_text(BASE_CFG + extra))


class TestConfig:
    def test_parse_types(self):
        sec = parse_config_text("[a]\nx = 3\ny = 2.5\nz = [1, 2.5e-1]\nw = hello\nb = true\n")
        assert sec["a"] == {"x": 3, "y": 2.5, "z": [1, 0.25], "w": "hello", "b": True}

    def test_comments_and_blanks(self):
        sec = parse_config_text("# top\n[a]\n\nx = 1   # trailing\n")
        assert sec["a"]["x"] == 1

    def test_entry_outside_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("x = 1\n")

    def test_render_round_trips(self):
        sec = parse_config_text(BASE_CFG)
        again = parse_config_text(render_config(sec))
        assert again == sec

    def test_build_run_config(self):
        run = base_run()
        assert run.grid.n == (16,)
        assert run.scheme.dt == 1e-3
        assert run.potential.kind == "double_well"
        assert run.t_end == 0.016

    def test_2d_grid_block(self):
        sec = parse_config_text("[grid]\ndim = 2\nn = [6, 8]\nextent = [1.0, 2.0]\n[scheme]\ndt = 0.1\n")
        run = build_run_config(sec)
        assert run.grid.n == (6, 8)
        assert run.grid.extent == (1.0, 2.0)

    def test_polynomial_potential_block(self):
        sec = parse_config_text(
            "[grid]\nn = 8\n[scheme]\ndt = 0.1\n[potential]\npotential = [0, 0, 0, 0, 1.0]\nlambda = 0.5\n"
        )
        run = build_run_config(sec)
        assert run.potential.coeffs == (0.0, 0.0, 0.0, 0.0, 1.0)
        assert run.potential.lam == 0.5

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            build_run_config(parse_config_text(BASE_CFG + "\n[misc]\nx = 1\n"))

    def test_missing_dt_rejected(self):
        with pytest.raises(ConfigError):
            build_run_config(parse_config_text("[scheme]\nkappa = 1.0\n"))

    def test_overrides(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(BASE_CFG)
        run = load_config(path, ["scheme.dt=2e-3", "grid.n=8"])
        assert run.scheme.dt == 2e-3
        assert run.grid.n == (8,)

    def test_bad_override_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(BASE_CFG)
        with pytest.raises(ConfigError):
            load_config(path, ["nodots"])


class TestPresets:
    def test_uniform(self, double_well):
        g = Grid.line(8)
        s = make_initial(g, double_well, {"preset": "uniform", "theta0": 2.0, "phi0": -0.5})
        assert np.all(s.theta.values == 2.0)
        assert np.all(s.phi.values == -0.5)

    def test_cosine_bump_positive(self, double_well):
        g = Grid.line(32)
        s = make_initial(g, double_well, {"preset": "cosine_bump"})
        assert s.theta.min() > 0
        assert abs(s.phi.values[0]) > abs(s.phi.values[15])

    def test_random_smooth_deterministic_and_bounded(self, double_well):
        g = Grid.line(32)
        params = {"preset": "random_smooth", "seed": 7, "theta_amp": 0.3, "phi_amp": 0.4}
        a = make_initial(g, double_well, params)
        b = make_initial(g, double_well, params)
        assert np.array_equal(a.theta.values, b.theta.values)
        assert np.array_equal(a.phi.values, b.phi.values)
        assert np.max(np.abs(a.theta.values - 1.0)) <= 0.3 + 1e-12
        assert np.max(np.abs(a.phi.values)) <= 0.4 + 1e-12
        c = make_initial(g, double_well, dict(params, seed=8))
        assert not np.array_equal(a.theta.values, c.theta.values)

    def test_steady_is_exact_float_identity(self, double_well):
        g = Grid.line(8)
        s = make_initial(g, double_well, {"preset": "steady", "phi_star": 1.1})
        assert np.all(s.theta.values == double_well.eval(1.1, 1))

    def test_steady_rejects_nonpositive_branch(self, double_well):
        # F'(0.5) < 0 for the double well
        with pytest.raises(ConfigError):
            make_initial(Grid.line(8), double_well, {"preset": "steady", "phi_star": 0.5})

    def test_snapshot_preset(self, tmp_path, double_well):
        g = Grid.line(8)
        write_snapshot(Field.full(g, 1.5), tmp_path / "th.field")
        write_snapshot(Field.full(g, 0.25), tmp_path / "ph.field")
        s = make_initial(
            g, double_well,
            {"preset": "snapshot", "theta_file": str(tmp_path / "th.field"), "phi_file": str(tmp_path / "ph.field")},
        )
        assert np.all(s.theta.values == 1.5)

    def test_unknown_preset(self, double_well):
        with pytest.raises(ConfigError):
            make_initial(Grid.line(8), double_well, {"preset": "wavelet"})

    def test_negative_temperature_rejected(self, double_well):
        with pytest.raises(ConfigError):
            make_initial(Grid.line(8), double_well, {"preset": "uniform", "theta0": -1.0})


class TestManufactured:
    def test_uniform_amplitude_zero_limit(self):
        # a -> 0: the preserved uniform state gives zero error; check tiny a
        res = manufactured_heat_test(n=16, amplitude=1e-12)
        assert res.l2_error < 1e-11

    def test_error_below_threshold_at_n64(self):
        res = manufactured_heat_test(n=64, kappa=1.0, t_end=0.1, theta_mean=2.0, amplitude=0.5)
        assert res.l2_error < 1e-3

    def test_halving_h_quarters_error(self):
        errs = [manufactured_heat_test(n=n).l2_error for n in (16, 32, 64)]
        assert math.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.3)
        assert math.log2(errs[1] / errs[2]) == pytest.approx(2.0, abs=0.3)

    def test_amplitude_precondition(self):
        with pytest.raises(ConfigError):
            manufactured_heat_test(theta_mean=1.0, amplitude=1.5)


class TestEpsSweep:
    def test_requires_two_decreasing_values(self):
        run = base_run()
        with pytest.raises(ConfigError):
            eps_sweep(ExperimentConfig(run=run, kind="eps_sweep", eps_values=[1e-2]))
        with pytest.raises(ConfigError):
            eps_sweep(ExperimentConfig(run=run, kind="eps_sweep", eps_values=[1e-3, 1e-2]))

    def test_small_sweep_diagnostics(self):
        run = base_run()
        cfg = ExperimentConfig(run=run, kind="eps_sweep", eps_values=[1e-2, 1e-3, 1e-4])
        rep = eps_sweep(cfg)
        assert [r.status for r in rep.rows] == ["ok"] * 3
        regs = [r.reg_dissipation for r in rep.rows]
        assert regs[0] > regs[1] > regs[2] > 0
        assert rep.theta_distances[0] > rep.theta_distances[1] > 0
        assert rep.phi_distances[0] > rep.phi_distances[1] > 0


class TestRefinement:
    def test_two_levels_rejected(self):
        run = base_run()
        with pytest.raises(ConfigError):
            refinement_study(ExperimentConfig(run=run, kind="refine", levels=[8, 16]))

    def test_manufactured_orders_near_two(self):
        run = build_run_config(parse_config_text(BASE_CFG.replace("t_end = 0.016", "t_end = 0.1")))
        cfg = ExperimentConfig(
            run=run, kind="refine", levels=[16, 32, 64], monitor="manufactured_error",
            theta_mean=2.0, amplitude=0.5,
        )
        run.scheme = run.scheme.with_(dt=(1 / 16) ** 2, epsilon=0.0)
        rep = refinement_study(cfg)
        assert all(1.8 <= q <= 2.2 for q in rep.orders_h)

    def test_energy_margin_first_order_in_dt(self):
        run = build_run_config(parse_config_text(BASE_CFG.replace("t_end = 0.016", "t_end = 0.03125")))
        run.scheme = run.scheme.with_(dt=(1 / 16) ** 2 / 2)
        cfg = ExperimentConfig(run=run, kind="refine", levels=[16, 32, 64], monitor="energy_margin")
        rep = refinement_study(cfg)
        assert all(0.8 <= q <= 1.5 for q in rep.orders_dt)


class TestWeakStrong:
    def test_small_experiment(self):
        run = base_run()
        cfg = ExperimentConfig(
            run=run, kind="weak_strong", levels=[16, 32], deltas=[0.0, 0.1, 0.05], M=10.0,
        )
        rep = weak_strong_experiment(cfg)
        assert rep.zero_delta_pass           # identical runs are bitwise equal
        assert rep.envelope_pass
        assert rep.multiplier >= 1.0
        ratios = [r.ratio for r in rep.rows if r.level == 1 and r.delta > 0]
        assert max(ratios) / min(ratios) < 2.0

    def test_delta_zero_added_if_missing(self):
        run = base_run()
        cfg = ExperimentConfig(run=run, kind="weak_strong", levels=[16], deltas=[0.1])
        rep = weak_strong_experiment(cfg)
        assert any(r.delta == 0.0 for r in rep.rows)


class TestPersistence:
    def _small_traj(self, double_well):
        g = Grid.line(12)
        (x,) = g.meshgrid()
        init = initial_state(g, Field(g, 1.0 + 0.2 * np.cos(np.pi * x)), Field(g, 0.3 * np.cos(np.pi * x)))
        cfg = SchemeConfig(dt=1e-3, epsilon=1e-3, p=4.0)
        return simulate(init, cfg, double_well, 5e-3)

    def test_roundtrip(self, tmp_path, double_well):
        traj = self._small_traj(double_well)
        sections = parse_config_text(BASE_CFG)
        sections["grid"]["n"] = 12
        sections["run"]["t_end"] = 5e-3
        write_manifest(tmp_path, sections)
        persist_trajectory(traj, tmp_path / "run_0")
        back, run = load_run_dir(tmp_path)
        assert len(back) == len(traj)
        for a, b in zip(traj, back):
            assert np.array_equal(a.theta.values, b.theta.values)
            assert np.array_equal(a.phi.values, b.phi.values)
            assert np.allclose(a.phi_t.values, b.phi_t.values, atol=1e-12)
        assert run.scheme.dt == traj.config.dt

    def test_byte_identical_reruns(self, tmp_path, double_well):
        t1 = self._small_traj(double_well)
        t2 = self._small_traj(double_well)
        persist_trajectory(t1, tmp_path / "a")
        persist_trajectory(t2, tmp_path / "b")
        for k in range(len(t1)):
            fa = (tmp_path / "a" / f"state_{k}.field").read_bytes()
            fb = (tmp_path / "b" / f"state_{k}.field").read_bytes()
            assert fa == fb
        assert (tmp_path / "a" / "index.csv").read_bytes() == (tmp_path / "b" / "index.csv").read_bytes()

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [(1, 2.5), (2, float("nan"))])
        header, rows = read_csv(path)
        assert header == ["a", "b"]
        assert rows[0] == ["1", "2.5"]

    def test_missing_manifest_reported(self, tmp_path, double_well):
        traj = self._small_traj(double_well)
        persist_trajectory(traj, tmp_path / "run_0")
        with pytest.raises(ConfigError):
            load_run_dir(tmp_path)


class TestFrozenPhase:
    def test_decay_against_closed_form(self):
        g = Grid.line(8)
        cfg = SchemeConfig(dt=0.005, epsilon=0.5, p=4.0)
        init = initial_state(g, Field.full(g, 1.0), Field.zeros(g))
        traj = frozen_phase_run(init, cfg, 0.5)
        worst = max(abs(s.theta.values[0] - closed_form_uniform_theta(s.t, 1.0, 0.5, 4.0)) for s in traj)
        assert worst < 5 * cfg.dt
        assert all(np.all(s.phi.values == 0.0) for s in traj)

    def test_t_end_off_the_dt_lattice_rejected(self):
        g = Grid.line(8)
        init = initial_state(g, Field.full(g, 1.0), Field.zeros(g))
        with pytest.raises(ConfigError):
            frozen_phase_run(init, SchemeConfig(dt=0.05, epsilon=0.5), 0.12)

    def test_step_failure_carries_partial_trajectory(self, monkeypatch):
        g = Grid.line(8)
        init = initial_state(g, Field.full(g, 1.0), Field.zeros(g))
        calls = []

        def failing_third(prev, phi_new, cfg):
            calls.append(prev.t)
            if len(calls) == 3:
                raise PositivityLost("injected")
            return heat_step(prev, phi_new, cfg)

        monkeypatch.setattr(harness, "heat_step", failing_third)
        with pytest.raises(SimulationAborted) as err:
            frozen_phase_run(init, SchemeConfig(dt=0.05, epsilon=0.5), 0.5)
        assert err.value.step_index == 3
        assert isinstance(err.value.cause, PositivityLost)
        assert len(err.value.trajectory) == 3
        assert err.value.trajectory[0] is init
