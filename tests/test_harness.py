import csv
import io
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from fremond.config import (KEY_KINDS, build_run_config, format_column, format_value, load_config, parse_config_text,
                            render_config)
from fremond import harness
from fremond.errors import ConfigError, NonpositiveTemperature, SimulationAborted
from fremond.grid import Field, Grid, write_snapshots
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


ROOT = Path(__file__).resolve().parents[1]


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
        assert run.potential.coeffs == (1.0, 0.0, -2.0, 0.0, 1.0)
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

    def test_docs_tables_list_the_accepted_keys(self):
        docs = (Path(__file__).parents[1] / "docs" / "config.md").read_text()
        for section, keys in KEY_KINDS.items():
            body = docs.split(f"## [{section}]\n", 1)[1].split("\n## ", 1)[0]
            rows = [line for line in body.splitlines() if line.startswith("|")][2:]
            assert {row.split("|")[1].strip() for row in rows} == set(keys), section
        assert set(KEY_KINDS["scheme"]) == {f.name for f in fields(SchemeConfig)}
        assert set(KEY_KINDS["experiment"]) == {f.name for f in fields(ExperimentConfig)} - {"run"}

    def test_experiment_defaults_are_the_field_defaults(self):
        run = base_run("\n[experiment]\nkind = refine\nlevels = [8, 16, 32]\nM = 5\n")
        cfg = ExperimentConfig.from_run(run)
        assert cfg == ExperimentConfig(run=run, kind="refine", levels=[8, 16, 32], M=5.0)
        assert type(cfg.M) is float

    @pytest.mark.parametrize("path", [*sorted((ROOT / "presets").glob("*.cfg")), ROOT / "bench" / "box2d.cfg"],
                             ids=lambda path: path.name)
    def test_shipped_configs_load(self, path):
        run = load_config(path)  # an unknown key, such as a deleted one, is a ConfigError
        if run.experiment:
            ExperimentConfig.from_run(run)

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

    @staticmethod
    def _two_branch_mode(grid, seed, modes=4):
        """The random_smooth series written out per dimension, as the reference."""
        rng = np.random.default_rng(seed)
        out = np.zeros(grid.shape)
        if grid.dim == 1:
            (x,) = grid.meshgrid()
            for k in range(1, modes + 1):
                out += rng.uniform(-1.0, 1.0) / k**2 * np.cos(np.pi * k * x / grid.extent[0])
        else:
            X, Y = grid.meshgrid()
            for k in range(1, modes + 1):
                for m in range(1, modes + 1):
                    c = rng.uniform(-1.0, 1.0) / (k**2 + m**2)
                    out += c * np.cos(np.pi * k * X / grid.extent[0]) * np.cos(np.pi * m * Y / grid.extent[1])
        return out / np.max(np.abs(out))

    @pytest.mark.parametrize("grid", [Grid.line(32), Grid((12, 9), (1.0, 0.75))], ids=["line32", "box12x9"])
    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_random_smooth_matches_the_per_dimension_series_bitwise(self, double_well, grid, seed):
        s = make_initial(grid, double_well, {"preset": "random_smooth", "seed": seed})
        assert np.array_equal(s.theta.values, 1.0 + 0.2 * self._two_branch_mode(grid, seed))
        assert np.array_equal(s.phi.values, 0.3 * self._two_branch_mode(grid, seed + 1))

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
        write_snapshots(Field(g, np.full((1, *g.shape), 1.5)), tmp_path / "th.field", [0.0])
        write_snapshots(Field(g, np.full((1, *g.shape), 0.25)), tmp_path / "ph.field", [0.0])
        s = make_initial(
            g, double_well,
            {"preset": "snapshot", "theta_file": str(tmp_path / "th.field"), "phi_file": str(tmp_path / "ph.field")},
        )
        assert np.all(s.theta.values == 1.5)

    @pytest.mark.parametrize("key", ["theta_file", "phi_file"])
    def test_snapshot_preset_takes_the_first_record_and_rejects_a_malformed_later_one(self, key, tmp_path,
                                                                                        double_well):
        g = Grid.line(8)
        params = {"preset": "snapshot"}
        for name, value in (("theta_file", 1.5), ("phi_file", 0.25)):
            params[name] = str(tmp_path / f"{name}.field")
            write_snapshots(Field(g, np.array([np.full(8, value), np.full(8, 2 * value)])), params[name], [0.0, 0.5])
        s = make_initial(g, double_well, params)
        assert np.all(s.theta.values == 1.5) and np.all(s.phi.values == 0.25)
        path = Path(params[key])
        path.write_text(path.read_text() + "FIELD dim=1 n=8 h=0.125\n")  # a third record without its time
        with pytest.raises(ConfigError, match=f"{key}.field: snapshot header lacks t"):
            make_initial(g, double_well, params)

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

    def test_unknown_monitor_rejected_before_any_run(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "simulate", lambda *args: calls.append(args))
        cfg = ExperimentConfig(run=base_run(), kind="refine", levels=[8, 16, 32], monitor="bogus")
        with pytest.raises(ConfigError, match="experiment.monitor"):
            refinement_study(cfg)
        assert calls == []

    def test_manufactured_orders_near_two(self):
        run = build_run_config(parse_config_text(BASE_CFG.replace("t_end = 0.016", "t_end = 0.1")))
        cfg = ExperimentConfig(
            run=run, kind="refine", levels=[16, 32, 64], monitor="manufactured_error",
        )
        run.scheme = replace(run.scheme, dt=(1 / 16) ** 2, epsilon=0.0)
        rep = refinement_study(cfg)
        assert all(1.8 <= q <= 2.2 for q in rep.orders_h)

    def test_energy_margin_first_order_in_dt(self):
        run = build_run_config(parse_config_text(BASE_CFG.replace("t_end = 0.016", "t_end = 0.03125")))
        run.scheme = replace(run.scheme, dt=(1 / 16) ** 2 / 2)
        cfg = ExperimentConfig(run=run, kind="refine", levels=[16, 32, 64], monitor="energy_margin")
        rep = refinement_study(cfg)
        assert all(0.8 <= q <= 1.5 for q in rep.orders_dt)

    def test_entropy_margin_first_order_in_dt(self):
        # the monitor is |min margin|, so it has orders while the entropy law holds
        run = build_run_config(parse_config_text(BASE_CFG.replace("t_end = 0.016", "t_end = 0.03125")))
        run.scheme = replace(run.scheme, dt=(1 / 16) ** 2 / 2)
        cfg = ExperimentConfig(run=run, kind="refine", levels=[16, 32, 64], monitor="entropy_margin")
        rep = refinement_study(cfg)
        assert all(v > 0.0 for _, _, v in rep.levels)
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

    def test_each_level_marches_one_batch(self, monkeypatch):
        # the reference and every delta go through one simulate call per level
        batches = []

        def counting(init, *args):
            batches.append(init.theta.values.shape)
            return simulate(init, *args)

        monkeypatch.setattr(harness, "simulate", counting)
        deltas = [0.0, 0.1, 0.05]
        cfg = ExperimentConfig(run=base_run(), kind="weak_strong", levels=[16, 32], deltas=deltas)
        rep = weak_strong_experiment(cfg)
        assert batches == [(1 + len(deltas), 16), (1 + len(deltas), 32)]
        assert [r.E_rel_max for r in rep.rows if r.delta == 0.0] == [0.0, 0.0]

    @pytest.mark.parametrize("t_end, coarse_steps", [(0.0078125, 4), (0.1, 51)])
    def test_levels_march_as_in_refine(self, t_end, coarse_steps, monkeypatch):
        # on the weakstrong preset ([grid] n = 32) level 16 steps 4 dt in both verbs, and
        # both march to t_end rounded to whole steps of it: 0.1 is 51.2 of them
        marched = []

        def recording(init, scheme, potential, t, sink=None):
            marched.append((init.grid.n[0], scheme.dt, t))
            return simulate(init, scheme, potential, t, sink)

        monkeypatch.setattr(harness, "simulate", recording)
        run = load_config(ROOT / "presets" / "weakstrong.cfg", ["experiment.levels=[16, 32]", f"run.t_end={t_end!r}"])
        dt, final = run.scheme.dt, coarse_steps * (4 * run.scheme.dt)
        weak_strong_experiment(ExperimentConfig.from_run(run))
        assert marched == [(16, 4 * dt, final), (32, dt, final)]
        marched.clear()
        refinement_study(ExperimentConfig(run=run, kind="refine", levels=[16, 32, 64], monitor="energy_margin"))
        assert marched == [(16, 4 * dt, final), (32, dt, final), (64, dt / 4, final)]


class TestPersistence:
    def _small_traj(self, double_well, phi_t_mode="zero"):
        g = Grid.line(12)
        (x,) = g.meshgrid()
        init = initial_state(g, Field(g, 1.0 + 0.2 * np.cos(np.pi * x)), Field(g, 0.3 * np.cos(np.pi * x)),
                             phi_t_mode=phi_t_mode, potential=double_well)
        cfg = SchemeConfig(dt=1e-3, epsilon=1e-3, p=4.0)
        return simulate(init, cfg, double_well, 5e-3)

    def test_roundtrip(self, tmp_path, double_well):
        for phi_t_mode in ("zero", "pde"):
            traj = self._small_traj(double_well, phi_t_mode)
            sections = parse_config_text(BASE_CFG)
            sections["grid"]["n"] = 12
            sections["initial"]["phi_t"] = phi_t_mode
            sections["run"]["t_end"] = 5e-3
            write_manifest(tmp_path / phi_t_mode, sections)
            persist_trajectory(traj, tmp_path / phi_t_mode / "run_0")
            back, run = load_run_dir(tmp_path / phi_t_mode)
            assert len(back) == len(traj)
            for a, b in zip(traj, back):
                assert np.array_equal(a.theta.values, b.theta.values)
                assert np.array_equal(a.phi.values, b.phi.values)
                assert np.array_equal(a.phi_t.values, b.phi_t.values)
            # the initial rate follows the manifest's convention, not a backward difference
            assert np.array_equal(traj[0].phi_t.values, back[0].phi_t.values), phi_t_mode
            assert run.scheme.dt == traj.config.dt

    def test_byte_identical_reruns(self, tmp_path, double_well):
        t1 = self._small_traj(double_well)
        t2 = self._small_traj(double_well)
        persist_trajectory(t1, tmp_path / "a")
        persist_trajectory(t2, tmp_path / "b")
        fa = (tmp_path / "a" / "trajectory.field").read_bytes()
        assert fa.count(b"FIELD") == 2 * len(t1)
        assert fa == (tmp_path / "b" / "trajectory.field").read_bytes()
        assert (tmp_path / "a" / "index.csv").read_bytes() == (tmp_path / "b" / "index.csv").read_bytes()

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 2], [2.5, float("nan")]])
        header, rows = read_csv(path)
        assert header == ["a", "b"]
        assert rows[0] == ["1", "2.5"]

    def test_csv_cell_grammar(self, tmp_path):
        # floats by repr, booleans true/false, integers in decimal, quoted only around a comma or a quote
        path = tmp_path / "t.csv"
        write_csv(path, ["n", "x", "ok", "note"],
                  [np.array([1, -2]), np.array([0.1, -0.0]), np.array([True, False]), ["a,b", 'say "hi"']])
        assert path.read_text() == 'n,x,ok,note\n1,0.1,true,"a,b"\n-2,-0.0,false,"say ""hi"""\n'

    def test_csv_of_many_rows_matches_the_row_by_row_reference(self, tmp_path):
        # 600 rows: two whole blocks of rows and a part of a third
        rng = np.random.default_rng(3)
        columns = [np.arange(600), rng.normal(size=600) * 10.0 ** rng.integers(-300, 300, size=600),
                   rng.random(600) < 0.5, [f"row {i}, {i % 7}" for i in range(600)]]
        write_csv(tmp_path / "t.csv", ["step", "x", "ok", "note"], columns)
        want = io.StringIO()
        out = csv.writer(want, lineterminator="\n")
        out.writerow(["step", "x", "ok", "note"])
        out.writerows([format_value(v) for v in row] for row in zip(*columns))
        assert (tmp_path / "t.csv").read_text() == want.getvalue()

    def test_csv_columns_of_unequal_length_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="unequal lengths"):
            write_csv(path, ["a", "b"], [np.arange(3), [1.0, 2.0]])
        assert not path.exists()

    def test_missing_manifest_reported(self, tmp_path, double_well):
        traj = self._small_traj(double_well)
        persist_trajectory(traj, tmp_path / "run_0")
        with pytest.raises(ConfigError):
            load_run_dir(tmp_path)


FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1, 2.0]


@pytest.mark.parametrize("column", [
    np.array(FLOATS),
    np.array(FLOATS, dtype=np.float32),
    np.array(FLOATS, dtype=np.longdouble),
    FLOATS,
    np.array([True, False, True]),
    [True, False, np.True_, np.False_],
    np.array([-3, 0, 2**62], dtype=np.int64),
    np.array([0, 255], dtype=np.uint8),
    [1, 2.5, np.int64(3), -0.0],  # mixed ints and floats stay per cell: 1 is written 1, not 1.0
    ["a,b", 'say "hi"', "failed at step 1: no"],
    np.array(["x", 1.5, True, 7], dtype=object),
    range(3),
], ids=["float64", "float32", "longdouble", "float_list", "bool", "bool_list", "int64", "uint8", "mixed_list",
        "text", "object", "range"])
def test_format_column_is_format_value_cell_for_cell(column):
    assert format_column(column) == [format_value(v) for v in column]


def test_format_column_keeps_the_ints_of_a_mixed_list():
    assert format_column([1, 2.5]) == ["1", "2.5"]


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
                raise NonpositiveTemperature("injected")
            return heat_step(prev, phi_new, cfg)

        monkeypatch.setattr(harness, "heat_step", failing_third)
        with pytest.raises(SimulationAborted) as err:
            frozen_phase_run(init, SchemeConfig(dt=0.05, epsilon=0.5), 0.5)
        assert err.value.step_index == 3
        assert isinstance(err.value.cause, NonpositiveTemperature)
        assert len(err.value.trajectory) == 3
        assert np.array_equal(err.value.trajectory[0].theta.values, init.theta.values)
