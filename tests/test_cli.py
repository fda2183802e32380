import argparse
import builtins
import io
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fremond import cli, stepper
from fremond.cli import main
from fremond.config import KEY_KINDS, load_config
from fremond.errors import ConfigError, NewtonDiverged
from fremond.grid import Field, Grid, write_snapshots
from fremond.harness import load_run_dir, read_csv, read_csv_columns, write_csv
from fremond.relenergy import RelEnergyConfig, gronwall_check


STEADY_CFG = """
[grid]
dim = 1
n = 16
extent = 1.0

[scheme]
kappa = 1.0
epsilon = 0.0
p = 4.0
dt = 0.01

[potential]
potential = double_well
lambda = 4.0

[initial]
preset = steady
phi_star = 1.1

[run]
t_end = 0.2
"""

COSINE_CFG = STEADY_CFG.replace(
    "preset = steady\nphi_star = 1.1",
    "preset = cosine_bump\ntheta_base = 1.0\ntheta_amp = 0.2\nphi_base = 0.0\nphi_amp = 0.3",
).replace("epsilon = 0.0", "epsilon = 1e-3").replace("dt = 0.01", "dt = 1e-3").replace(
    "t_end = 0.2", "t_end = 0.05"
)


PRESETS = Path(__file__).resolve().parents[1] / "presets"

WEAKSTRONG_CFG = COSINE_CFG + "\n[experiment]\nkind = weak_strong\nlevels = [16]\ndeltas = [0.0, 0.1]\n"


def edit_record(text, k, edit):
    """A trajectory.field text with ``edit`` applied to its k-th snapshot
    record (0-based; state n's temperature record is 2n, its phase 2n + 1)."""
    recs = re.split(r"(?m)^(?=FIELD)", text)
    recs[k + 1] = edit(recs[k + 1])
    return "".join(recs)


@pytest.fixture()
def steady_cfg(tmp_path):
    path = tmp_path / "steady.cfg"
    path.write_text(STEADY_CFG)
    return path


@pytest.fixture()
def cosine_cfg(tmp_path):
    path = tmp_path / "cosine.cfg"
    path.write_text(COSINE_CFG)
    return path


class TestSimulate:
    def test_steady_run_exits_zero_and_states_equal(self, steady_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(steady_cfg), "--outdir", str(out)]) == 0
        traj, run = load_run_dir(out)
        assert len(traj) == 21
        first = traj[0]
        for s in traj:
            assert np.max(np.abs(s.theta.values - first.theta.values)) < 1e-10
            assert np.max(np.abs(s.phi.values - first.phi.values)) < 1e-10
        assert (out / "run_0" / "energy.csv").exists()
        assert (out / "manifest.txt").exists()

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_input_too_large_for_memory_exits_two(self, steady_cfg, tmp_path, capsys, monkeypatch):
        def run_simulation(run):  # as numpy refuses an array of 1e13 cells
            raise MemoryError("Unable to allocate 72.8 TiB for an array with shape (10000000000000,)")

        monkeypatch.setattr(cli.harness, "run_simulation", run_simulation)
        assert main(["simulate", "--config", str(steady_cfg), "--outdir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("error: the input does not fit in memory: Unable to allocate 72.8 TiB "
                                           "for an array with shape (10000000000000,)\n")

    def test_solver_failure_exits_three(self, cosine_cfg, tmp_path):
        code = main([
            "simulate", "--config", str(cosine_cfg),
            "--override", "scheme.fp_max_iter=1",
            "--outdir", str(tmp_path / "boom"),
        ])
        assert code == 3

    def test_lost_positivity_exits_three_with_one_line(self, tmp_path, capsys):
        # theta 0.1 under a phase far above its well: d < -1/dt drives the first step negative
        overrides = ["initial.preset=uniform", "initial.theta0=0.1", "initial.phi0=4.0", "scheme.dt=0.1"]
        argv = ["simulate", "--config", str(PRESETS / "steady.cfg"), "--outdir", str(tmp_path / "out")]
        assert main(argv + [a for o in overrides for a in ("--override", o)]) == 3
        assert capsys.readouterr().err == "solver error: step 1 failed: min theta = -42.5 at t = 0.1\n"

    def test_failed_run_leaves_its_good_states_as_a_success_would(self, tmp_path, capsys):
        # dt 0.004 on the cosine preset: the coupled sweeps stall at step 58, after 58 good states
        argv = ["simulate", "--config", str(PRESETS / "cosine.cfg"), "--override", "scheme.dt=0.004",
                "--override", "scheme.fp_max_iter=6"]
        failed, short = tmp_path / "failed", tmp_path / "short"
        assert main([*argv, "--override", "run.t_end=0.5", "--outdir", str(failed)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: step 58 failed: ") and err.count("\n") == 1
        assert (failed / "run_0" / "failure.txt").read_text() == err
        assert len(read_csv(failed / "run_0" / "index.csv")[1]) == 58
        assert load_config(failed / "manifest.txt").t_end == 0.5
        # the run that stops at the last good state writes the same files, bit for bit
        assert main([*argv, "--override", f"run.t_end={57 * 0.004!r}", "--outdir", str(short)]) == 0
        for name in ("trajectory.field", "index.csv", "energy.csv"):
            assert (failed / "run_0" / name).read_bytes() == (short / "run_0" / name).read_bytes(), name
        capsys.readouterr()
        assert main(["check", "--run", str(failed)]) in (0, 1)
        assert "Traceback" not in capsys.readouterr().err

    def test_failure_in_a_later_segment_names_the_levels_step(self, tmp_path, capsys, monkeypatch):
        # level 64 marches its 512 steps in segments of 256, so step 301 fails in the second
        real_step = stepper.step

        def step(prev, cfg, potential, stats=None):
            if prev.grid.n[0] == 64 and prev.t >= 300 * cfg.dt:
                raise NewtonDiverged("injected")
            return real_step(prev, cfg, potential, stats)

        monkeypatch.setattr(stepper, "step", step)
        argv = ["weakstrong", "--config", str(PRESETS / "weakstrong.cfg"), "--outdir", str(tmp_path / "out")]
        assert main(argv + ["--override", "experiment.levels=[32, 64]", "--override", "run.t_end=0.0625"]) == 3
        assert capsys.readouterr().err == "solver error: step 301 failed: injected\n"

    def test_override_changes_resolution(self, steady_cfg, tmp_path):
        out = tmp_path / "o8"
        assert main(["simulate", "--config", str(steady_cfg), "--override", "grid.n=8",
                     "--outdir", str(out)]) == 0
        traj, _ = load_run_dir(out)
        assert traj.grid.n == (8,)


def assert_config_error_names_entry(verb, override, tmp_path, capsys):
    """``verb`` on the weak-strong config with ``override`` exits 2 naming its section.key."""
    cfg = tmp_path / "ws.cfg"
    cfg.write_text(WEAKSTRONG_CFG)
    code = main([verb, "--config", str(cfg), "--override", override, "--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and override.split("=")[0] in err
    assert "Traceback" not in err


class TestBadConfigValues:
    @pytest.mark.parametrize("verb, override", [
        ("simulate", "grid.n=abc"),
        ("simulate", "scheme.dt=fast"),
        ("simulate", "scheme.newton_max_iter=many"),  # not settings: the solver tolerances and caps are fixed
        ("simulate", "scheme.newton_tol=1e-9"),
        ("simulate", "scheme.linear_tol=1e-12"),
        ("simulate", "run.t_end=x"),
        ("simulate", "initial.phi_amp=big"),
        ("weakstrong", "experiment.levels=[a]"),
        ("weakstrong", "experiment.deltas=0.1"),
        ("simulate", "grid.nx=8"),
        ("simulate", "scheme.kapa=2"),
        ("simulate", "potential.lamda=2"),
        ("simulate", "run.t_edn=1"),
        ("weakstrong", "experiment.xi_ceiling=1e3"),
        ("simulate", "potential.lambda=0.5"),
        ("simulate", "potential.potential=zero"),
        ("simulate", "scheme.epsilon=nan"),
        ("simulate", "grid.extent=[inf]"),
        ("simulate", "grid.n=16.5"),  # an int key takes no fraction, and a number no bool
        ("simulate", "scheme.fp_max_iter=2.7"),
        ("simulate", "scheme.dt=true"),
        ("weakstrong", "experiment.levels=[16.7]"),
        ("weakstrong", "experiment.deltas=[0.0, -0.1]"),  # distinct and nonnegative, at least one positive
        ("weakstrong", "experiment.deltas=[0.0]"),
        ("weakstrong", "experiment.deltas=[0.1, 0.1, 0.05]"),
        ("weakstrong", "experiment.deltas=[]"),  # given empty, not the default deltas
        ("weakstrong", "experiment.theta_mean=2.0"),  # the manufactured solution is fixed, not a config key
        ("simulate", "grid.dim=1e300"),  # checked before it sizes the n and extent lists
        ("simulate", "potential.potential=[]"),
        ("simulate", "potential.potential=[0, 0, -1e308, 0, 1e308]"),  # F'' + lambda overflows: not finite
        # F'' + 4 = 1.2e-4 y^4 - 0.048 y^2 + 4 is least, -0.8, at y = sqrt(200); on [-10, 10] it stays >= 0.4
        ("simulate", "potential.potential=[0, 0, 0, 0, -4e-3, 0, 4e-6]"),
    ])
    def test_exits_two_naming_the_entry(self, verb, override, tmp_path, capsys):
        assert_config_error_names_entry(verb, override, tmp_path, capsys)

    def test_integral_float_in_an_int_key_loads(self, steady_cfg):
        assert load_config(steady_cfg, ["grid.n=64.0"]).grid.n == (64,)

    # every numeric key, generated from the kinds table so that a key added later is covered;
    # [initial] runs under the cosine_bump preset, which reads neither theta0, phi0, seed nor phi_star
    NUMERIC_KEYS = [("weakstrong" if sec == "experiment" else "simulate", f"{sec}.{key}")
                    for sec, kinds in KEY_KINDS.items() for key, kind in kinds.items()
                    if kind in (int, float, [int], [float]) or f"{sec}.{key}" in ("grid.n", "grid.extent")]

    @pytest.mark.parametrize("verb, key", NUMERIC_KEYS)
    def test_text_in_a_numeric_key_exits_two(self, verb, key, tmp_path, capsys):
        assert_config_error_names_entry(verb, f"{key}=abc", tmp_path, capsys)

    @pytest.mark.parametrize("argv, named", [
        (["simulate", "--config", str(PRESETS / "steady.cfg"),
          "--override", "initial.phi_sta=1.3", "--override", "run.t_end=0.05"], "initial.phi_sta"),
        (["simulate", "--config", str(PRESETS / "cosine.cfg"),
          "--override", "initial.preset=random_smooth", "--override", "initial.seed=-1"], "initial.seed"),
        (["weakstrong", "--config", str(PRESETS / "weakstrong.cfg"),
          "--override", "experiment.levels=[1, 32]", "--override", "run.t_end=0.001"], "experiment.levels"),
        (["refine", "--config", str(PRESETS / "refine.cfg"), "--override", "experiment.levels=[1, 2, 4]"],
         "experiment.levels"),
        (["refine", "--config", str(PRESETS / "refine.cfg"), "--override", "experiment.monitor=energy_margin",
          "--override", "experiment.levels=[1, 16, 32]"], "experiment.levels"),
        (["refine", "--config", str(PRESETS / "refine.cfg"), "--override", "run.t_end=0"], "run.t_end"),
        (["refine", "--config", str(PRESETS / "refine.cfg"), "--override", "experiment.monitor=energy_margin",
          "--override", "run.t_end=0"], "run.t_end"),
        # sizes the numbers cannot hold: h^2 over- or underflows, or too many steps for an array
        (["simulate", "--config", str(PRESETS / "steady.cfg"),
          "--override", "grid.extent=1e300", "--override", "run.t_end=0.02"], "cell spacing"),
        (["weakstrong", "--config", str(PRESETS / "weakstrong.cfg"), "--override", "grid.extent=1e300"],
         "cell spacing"),
        (["simulate", "--config", str(PRESETS / "steady.cfg"), "--override", "grid.extent=1e-300"], "cell spacing"),
        (["simulate", "--config", str(PRESETS / "steady.cfg"), "--override", "run.t_end=1e300"], "too many steps"),
        (["weakstrong", "--config", str(PRESETS / "weakstrong.cfg"), "--override", "run.t_end=1e300"],
         "too many steps"),
        (["simulate", "--config", str(PRESETS / "steady.cfg"), "--override", "scheme.dt=1e-300"], "too many steps"),
        (["simulate", "--config", str(PRESETS / "steady.cfg"),
          "--override", "run.t_end=1e308", "--override", "scheme.dt=1e-10"], "too many steps"),
        # the final time is 26 steps of dt 1/256 at level 16: 58.5 steps of level 24's dt
        (["refine", "--config", str(PRESETS / "refine.cfg"), "--override", "experiment.levels=[16, 24, 32]"],
         "experiment.levels has 24"),
        (["refine", "--config", str(PRESETS / "refine.cfg"),
          "--override", "run.t_end=1e308", "--override", "scheme.dt=1e-10"], "too many steps"),
        # the final time 1e306 is 1e308 steps of level 16's dt, but inf steps of level 32's dt
        (["refine", "--config", str(PRESETS / "refine.cfg"),
          "--override", "run.t_end=1e306", "--override", "scheme.dt=0.01"], "experiment.levels has 32"),
        # levels[0] is the coarsest level, so the levels must be non-empty and strictly increasing
        (["refine", "--config", str(PRESETS / "refine.cfg"), "--override", "experiment.levels=[16, 16, 32]"],
         "experiment.levels"),
        (["refine", "--config", str(PRESETS / "refine.cfg"), "--override", "experiment.levels=[32, 16, 64]"],
         "experiment.levels"),
        (["weakstrong", "--config", str(PRESETS / "weakstrong.cfg"),
          "--override", "experiment.levels=[64, 32]", "--override", "run.t_end=0.0078125"], "experiment.levels"),
        (["weakstrong", "--config", str(PRESETS / "weakstrong.cfg"),
          "--override", "experiment.levels=[32, 32]", "--override", "run.t_end=0.0078125"], "experiment.levels"),
        (["weakstrong", "--config", str(PRESETS / "weakstrong.cfg"), "--override", "experiment.levels=[]"],
         "experiment.levels"),
        # weakstrong takes its levels and final time by refine's rule
        (["weakstrong", "--config", str(PRESETS / "weakstrong.cfg"), "--override", "run.t_end=0"], "run.t_end"),
        (["weakstrong", "--config", str(PRESETS / "weakstrong.cfg"), "--override", "experiment.levels=[32, 33]"],
         "experiment.levels has 33"),
        # phi0 + 1e-20 cos(pi x) is bitwise phi0, so E_rel = 0 and its ratio to delta^2 is 0; 1e-320^2 underflows
        (["weakstrong", "--config", str(PRESETS / "weakstrong.cfg"), "--override", "experiment.deltas=[0.0, 1e-20]",
          "--override", "experiment.levels=[16]", "--override", "run.t_end=0.0078125"], "experiment.deltas has 1e-20"),
        (["weakstrong", "--config", str(PRESETS / "weakstrong.cfg"), "--override", "experiment.deltas=[0.0, 1e-320]",
          "--override", "experiment.levels=[16]", "--override", "run.t_end=0.0078125"], "experiment.deltas has 1e-320"),
        # a positive span takes at least one step
        (["simulate", "--config", str(PRESETS / "cosine.cfg"), "--override", "scheme.dt=1e8"],
         "(t_end - t0) = 0.25 is not an integer multiple of dt = 1e+08"),
        # F'(phi_star) overflows to inf, which is no temperature
        (["simulate", "--config", str(PRESETS / "steady.cfg"), "--override", "initial.phi_star=1e300"],
         "initial.phi_star"),
        # F'(phi_star) is finite, but F(phi_star) overflows, and so does the energy E(0)
        (["simulate", "--config", str(PRESETS / "steady.cfg"), "--override", "grid.n=8",
          "--override", "run.t_end=0.01", "--override", "initial.phi_star=1e100"], "initial preset steady"),
        # F'' + lambda = 30 y^4 - 12000 y^2 + 9.1e5 is least, -2.9e5, at y = sqrt(200), beyond |y| = 10
        (["simulate", "--config", str(PRESETS / "cosine.cfg"), "--override",
          "potential.potential=[0, 0, 0, 0, -1000.0, 0, 1.0]", "--override", "potential.lambda=9.1e5"],
         "potential.potential = [0, 0, 0, 0, -1000.0, 0, 1.0], potential.lambda = 910000.0"),
        # base + amp * cos overflows to inf
        (["simulate", "--config", str(PRESETS / "cosine.cfg"),
          "--override", "initial.theta_base=1e308", "--override", "initial.theta_amp=1e308"],
         "initial preset cosine_bump"),
        (["simulate", "--config", str(PRESETS / "cosine.cfg"),
          "--override", "initial.phi_base=1e308", "--override", "initial.phi_amp=1e308"],
         "initial preset cosine_bump"),
    ], ids=["initial_key_misspelt", "random_smooth_negative_seed", "weakstrong_level_of_one_cell",
            "refine_level_of_one_cell", "refine_energy_margin_level_of_one_cell", "refine_t_end_zero",
            "refine_energy_margin_t_end_zero", "h_squared_overflows", "weakstrong_h_squared_overflows",
            "h_squared_underflows", "t_end_too_many_steps", "weakstrong_t_end_too_many_steps", "dt_too_many_steps",
            "step_count_infinite",
            "refine_level_misses_the_final_time", "refine_step_count_infinite",
            "refine_finer_level_step_count_infinite", "refine_repeated_levels", "refine_unordered_levels",
            "weakstrong_decreasing_levels", "weakstrong_repeated_levels", "weakstrong_empty_levels",
            "weakstrong_t_end_zero", "weakstrong_level_misses_the_final_time",
            "weakstrong_delta_perturbs_nothing", "weakstrong_delta_squared_underflows", "dt_beyond_the_span",
            "steady_phi_star_overflows", "steady_energy_overflows", "dip_beyond_ten",
            "cosine_theta_overflows", "cosine_phi_overflows"])
    def test_preset_with_a_bad_entry_exits_two(self, argv, named, tmp_path, capsys):
        code = main([*argv, "--outdir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and named in err
        assert "Traceback" not in err and err.count("\n") == 1


class TestCorruptInput:
    """A persisted file or config entry the program cannot use exits 2 and
    names the file or entry; it never escapes as a traceback (exit 1)."""

    @pytest.mark.parametrize("verb, target, edit, named", [
        ("simulate", "manifest.txt", lambda text: text.replace("preset = steady", "preset = snapshot"),
         "initial.theta_file"),
        ("plot", "run_0/energy.csv", lambda text: "", "energy.csv"),
        ("check", "run_0/index.csv", lambda text: "", "index.csv"),
        ("check", "run_0/index.csv", lambda text: re.sub(r"(?m)^3,.*$", "3", text, count=1), "index.csv"),
        ("check", "run_0/index.csv", lambda text: text.splitlines(keepends=True)[0], "index.csv"),
        ("check", "manifest.txt", lambda text: text.replace("dt = 0.01", "dt = 0.02"), "manifest.txt"),
        ("check", "manifest.txt", lambda text: text.replace("n = 16", "n = 17"),
         "trajectory.field: records do not all live on the [grid] of "),
        ("check", "manifest.txt", lambda text: text.replace("extent = 1.0", "extent = 2.0"),
         "trajectory.field: records do not all live on the [grid] of "),
        ("check", "run_0/trajectory.field",
         lambda text: edit_record(text, 6, lambda rec: rec.replace(" h=", " hh=", 1)), "trajectory.field"),
        ("check", "run_0/trajectory.field",
         lambda text: edit_record(text, 6, lambda rec: re.sub(r"\n\S+", "\nnan", rec, count=1)), "trajectory.field"),
        ("check", "run_0/trajectory.field", lambda text: text[:text.rindex("FIELD")], "trajectory.field: 41 records"),
        ("check", "run_0/trajectory.field", lambda text: text + text[text.rindex("FIELD"):],
         ("trajectory.field: 43 records, not two for each of the 21 states in ", "run_0/index.csv\n")),
        ("check", "run_0/trajectory.field",
         lambda text: edit_record(text, 4, lambda rec: rec.replace(" t=0.02\n", " t=0.5\n", 1)),
         "trajectory.field: record times differ from the state times in "),
        ("plot", "run_0/energy.csv", lambda text: text.replace("E_total", "E_tot", 1),
         "energy.csv: header lacks column E_total"),
        ("plot", "run_0/energy.csv", lambda text: re.sub(r"(?m)^3,.*$", "1,abc", text, count=1),
         "energy.csv: row '1,abc'"),
        # "\udcff" is written as the byte 0xff, which is not UTF-8
        ("simulate", "manifest.txt", lambda text: text + "# \udcff\n", "manifest.txt"),
        ("check", "manifest.txt", lambda text: text + "# \udcff\n", "manifest.txt"),
        ("check", "run_0/index.csv", lambda text: text + "# \udcff\n", "index.csv"),
        ("plot", "run_0/energy.csv", lambda text: text + "# \udcff\n", "energy.csv"),
    ], ids=["snapshot_preset_without_files", "empty_energy_csv", "empty_index_csv", "index_row_truncated",
            "index_csv_header_only", "manifest_dt_edited", "manifest_n_edited", "manifest_extent_edited",
            "snapshot_header_without_h", "nan_in_snapshot",
            "last_record_dropped", "record_appended", "record_time_edited", "energy_csv_column_renamed", "energy_csv_short_row",
            "config_not_utf8", "manifest_not_utf8", "index_csv_not_utf8", "energy_csv_not_utf8"])
    def test_exits_two_without_traceback(self, verb, target, edit, named, steady_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(steady_cfg), "--outdir", str(out)]) == 0
        path = out / target
        text = path.read_text()
        assert edit(text) != text
        path.write_text(edit(text), errors="surrogateescape")
        if verb == "simulate":
            argv = ["simulate", "--config", str(out / "manifest.txt"), "--outdir", str(tmp_path / "again")]
        else:
            argv = [verb, "--run", str(out)]
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert all(name in err for name in ((named,) if isinstance(named, str) else named))
        assert "Traceback" not in err

    def test_snapshot_on_another_grid_exits_two(self, tmp_path, capsys):
        # same cell count as [grid], twice its extent
        g = Grid((16,), (2.0,))
        write_snapshots(Field(g, np.full((1, *g.shape), 1.5)), tmp_path / "theta.field", [0.0])
        write_snapshots(Field(g, np.full((1, *g.shape), 0.25)), tmp_path / "phi.field", [0.0])
        cfg = tmp_path / "snapshot.cfg"
        cfg.write_text(STEADY_CFG.replace("preset = steady\nphi_star = 1.1", "preset = snapshot\n"
                                          f"theta_file = {tmp_path / 'theta.field'}\nphi_file = {tmp_path / 'phi.field'}"))
        capsys.readouterr()
        assert main(["simulate", "--config", str(cfg), "--outdir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "snapshot grid" in err and "extent = (2.0,)" in err
        assert "Traceback" not in err

    # relative energy compares runs of one system: eps and p may differ, the potential and kappa not
    @pytest.mark.parametrize("override", ["run.t_end=0.1", "grid.n=8", "potential.lambda=6", "scheme.kappa=2"],
                             ids=["lengths", "grids", "potentials", "kappas"])
    def test_relenergy_on_mismatched_runs_exits_two(self, override, steady_cfg, tmp_path, capsys):
        run, ref = tmp_path / "run", tmp_path / "ref"
        assert main(["simulate", "--config", str(steady_cfg), "--outdir", str(run)]) == 0
        assert main(["simulate", "--config", str(steady_cfg), "--override", override, "--outdir", str(ref)]) == 0
        for a, b in ((run, ref), (ref, run)):
            capsys.readouterr()
            code = main(["relenergy", "--run", str(a), "--ref", str(b)])
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("config error: ") and str(run) in err and str(ref) in err
            assert "Traceback" not in err


class TestCorruptionSweep:
    """One seeded edit to one persisted artifact of a short run: check, plot and
    relenergy exit 0, 1 or 2 and never raise."""

    ARTIFACTS = ["manifest.txt", "run_0/index.csv", "run_0/trajectory.field", "run_0/energy.csv"]

    @staticmethod
    def corrupt(text, rng):
        lines = text.splitlines(keepends=True)
        k = rng.randrange(len(lines))
        kind = rng.choice(["drop", "truncate", "nan", "abc", "-1"])
        if kind == "drop":
            del lines[k]
        elif kind == "truncate":
            lines = lines[:k]
        elif tokens := list(re.finditer(r"[^\s,=]+", lines[k])):
            m = rng.choice(tokens)
            lines[k] = lines[k][:m.start()] + kind + lines[k][m.end():]
        return "".join(lines)

    def corrupted_run(self, rng, cfg, out, *overrides):
        """A run of ``cfg`` in ``out`` with one of its artifacts corrupted."""
        assert main(["simulate", "--config", str(cfg), *overrides, "--outdir", str(out)]) == 0
        path = out / rng.choice(self.ARTIFACTS)
        path.write_text(self.corrupt(path.read_text(), rng))
        return out

    @pytest.mark.parametrize("seed", range(32))
    def test_check_and_plot_exit_with_a_code(self, seed, steady_cfg, tmp_path, capsys):
        out = self.corrupted_run(random.Random(seed), steady_cfg, tmp_path / "out")
        for verb in ("check", "plot"):
            assert main([verb, "--run", str(out)]) in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("seed", range(32))
    def test_relenergy_exits_with_a_code_in_both_orders(self, seed, steady_cfg, tmp_path, capsys):
        # a perturbed steady state, so that E_rel(0) > 0 and the envelope is judged
        ref = tmp_path / "ref"
        assert main(["simulate", "--config", str(steady_cfg), "--outdir", str(ref)]) == 0
        out = self.corrupted_run(random.Random(seed), steady_cfg, tmp_path / "out", "--override", "initial.phi_star=1.2")
        for run, against in ((out, ref), (ref, out)):
            assert main(["relenergy", "--run", str(run), "--ref", str(against)]) in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err


VERB_OPTIONS = {
    "simulate": ["--config", "--override", "--outdir"],
    "check": ["--run"],
    "relenergy": ["--run", "--ref", "--M", "--calibrate"],
    "sweep": ["--config", "--override", "--outdir"],
    "refine": ["--config", "--override", "--outdir"],
    "weakstrong": ["--config", "--override", "--outdir"],
    "plot": ["--run", "--outdir"],
}


def verb_parsers():
    return next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


class TestParser:
    def test_verbs(self):
        assert list(verb_parsers()) == list(VERB_OPTIONS)

    @pytest.mark.parametrize("verb", list(VERB_OPTIONS))
    def test_option_strings(self, verb):
        actions = verb_parsers()[verb]._actions
        assert [s for a in actions for s in a.option_strings if s not in ("-h", "--help")] == VERB_OPTIONS[verb]

    def test_successive_calls_share_one_parser_and_see_only_their_own_overrides(self, monkeypatch):
        seen = []

        def recording(path, overrides):
            seen.append(overrides)
            raise ConfigError("recorded")

        monkeypatch.setattr(cli, "load_config", recording)
        for overrides in (["grid.n=8", "run.t_end=0"], ["scheme.dt=0.5"], []):
            assert main(["simulate", "--config", "any.cfg", *(a for o in overrides for a in ("--override", o))]) == 2
        assert seen == [["grid.n=8", "run.t_end=0"], ["scheme.dt=0.5"], []]
        assert cli.build_parser() is cli.build_parser()


def test_importing_the_cli_loads_no_scipy():
    # only the linear solves use scipy, and its import would add to every CLI start, a check or plot's too
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, fremond.cli; sys.exit(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)}).returncode == 0


class TestUnknownVerb:
    def test_unknown_verb_exits_two(self, capsys):
        assert main(["transmogrify"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_verb_exits_two(self):
        assert main([]) == 2


class TestCheck:
    def test_clean_run_passes(self, cosine_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cosine_cfg), "--outdir", str(out)]) == 0
        assert main(["check", "--run", str(out)]) == 0
        for name in ("energy_check", "entropy_one", "entropy_cosine", "floors_theta", "floors_phi"):
            assert (out / "run_0" / f"{name}.csv").exists()

    def test_reads_the_trajectory_file_in_one_pass(self, steady_cfg, tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(steady_cfg), "--outdir", str(out)]) == 0
        opened, real_open = [], io.open

        def counting_open(file, *args, **kwargs):
            opened.append(Path(file).name if isinstance(file, (str, os.PathLike)) else file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)
        assert main(["check", "--run", str(out)]) == 0
        assert opened.count("trajectory.field") == 1 and opened.count("index.csv") == 1

    def test_run_past_the_float_range_of_the_phase_floor_checks_on_its_merits(self, tmp_path, capsys):
        # the floor's e^{2 lam t} overflows once 2 lam t > 709: lambda 4 and t = 100
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(PRESETS / "steady.cfg"), "--override", "run.t_end=100",
                     "--override", "scheme.dt=0.5", "--outdir", str(out)]) == 0
        assert main(["check", "--run", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["10", "100"])
    def test_floor_holds_at_eps_above_one(self, eps, tmp_path, capsys):
        # at eps > 1, theta at a spatial minimum may decay faster than the eps-free envelope -h^p - h^2/2
        out = tmp_path / "out"
        overrides = ["initial.theta_base=2.0", "scheme.p=6", f"scheme.epsilon={eps}", "scheme.dt=0.001",
                     "run.t_end=0.1"]
        argv = ["simulate", "--config", str(PRESETS / "cosine.cfg"), "--outdir", str(out)]
        assert main(argv + [a for o in overrides for a in ("--override", o)]) == 0
        assert main(["check", "--run", str(out)]) == 0
        assert capsys.readouterr().err == ""

    def test_hand_edited_negative_temperature_fails(self, cosine_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", str(cosine_cfg), "--outdir", str(out)])
        victim = out / "run_0" / "trajectory.field"
        victim.write_text(edit_record(victim.read_text(), 6, lambda rec: re.sub(r"\n\S+", "\n-1.0", rec, count=1)))
        code = main(["check", "--run", str(out)])
        assert code == 1
        assert "min theta" in capsys.readouterr().err

    def test_hand_edited_energy_jump_fails(self, cosine_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", str(cosine_cfg), "--outdir", str(out)])
        victim = out / "run_0" / "trajectory.field"
        victim.write_text(edit_record(victim.read_text(), 6, lambda rec: re.sub(r"\n\S+", "\n50.0", rec, count=1)))
        assert main(["check", "--run", str(out)]) == 1
        err = capsys.readouterr().err
        assert "energy: first failing row: step=" in err
        assert "np." not in err and "pass=false" in err

    def test_zero_potential_from_a_config_runs_and_checks(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(PRESETS / "cosine.cfg"), "--override", "potential.potential=zero",
                     "--override", "potential.lambda=0", "--override", "run.t_end=0.0078125",
                     "--outdir", str(out)]) == 0
        assert main(["check", "--run", str(out)]) == 0

    @pytest.mark.parametrize("flag", ["--entropy-tol", "--floor-tol"])
    def test_removed_tolerance_flags_exit_two(self, flag, steady_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(steady_cfg), "--outdir", str(out)]) == 0
        capsys.readouterr()
        assert main(["check", "--run", str(out), flag, "1"]) == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag}" in err and "Traceback" not in err

    def test_check_matches_direct_api_byte_for_byte(self, cosine_cfg, tmp_path):
        from fremond.thermo import TEST_FUNCTIONS, energy_inequality_check, entropy_inequality_check, floors_check

        out, ref = tmp_path / "out", tmp_path / "ref"
        main(["simulate", "--config", str(cosine_cfg), "--outdir", str(out)])
        main(["simulate", "--config", str(cosine_cfg), "--override", "initial.phi_amp=0.35", "--outdir", str(ref)])
        main(["check", "--run", str(out)])
        main(["relenergy", "--run", str(out), "--ref", str(ref)])
        traj, run = load_run_dir(out)
        floors = floors_check(traj, lam=run.potential.lam)
        tables = {
            "energy_check": energy_inequality_check(traj, run.potential).csv_columns(),
            **{f"entropy_{name}": entropy_inequality_check(traj, TEST_FUNCTIONS[name]()).csv_columns()
               for name in ("one", "cosine")},
            "floors_theta": floors.csv_columns("theta"),
            "floors_phi": floors.csv_columns("phi"),
        }
        for stem, (header, columns) in tables.items():
            write_csv(tmp_path / f"{stem}.csv", header, columns)
        rep = gronwall_check(traj, load_run_dir(ref)[0], RelEnergyConfig(lam=run.potential.lam), run.potential)
        write_csv(tmp_path / "relenergy.csv", *rep.csv_columns(1.0), comment="multiplier = 1.0")
        for stem in [*tables, "relenergy"]:
            assert (tmp_path / f"{stem}.csv").read_bytes() == (out / "run_0" / f"{stem}.csv").read_bytes(), stem


class TestRelEnergy:
    def test_two_runs_and_envelope(self, cosine_cfg, tmp_path):
        ref_dir, pert_dir = tmp_path / "ref", tmp_path / "pert"
        assert main(["simulate", "--config", str(cosine_cfg), "--outdir", str(ref_dir)]) == 0
        assert main(["simulate", "--config", str(cosine_cfg),
                     "--override", "initial.phi_amp=0.35", "--outdir", str(pert_dir)]) == 0
        code = main(["relenergy", "--run", str(pert_dir), "--ref", str(ref_dir), "--calibrate"])
        assert code == 0
        csv = (pert_dir / "run_0" / "relenergy.csv").read_text().splitlines()
        assert csv[0].startswith("# multiplier = ")
        assert csv[1].split(",")[:3] == ["step", "t", "E_rel"]
        assert main(["plot", "--run", str(pert_dir)]) == 0
        svg = (pert_dir / "run_0" / "relenergy.svg").read_text()
        assert svg.startswith("<svg") and "envelope rhs" in svg

    def test_identical_runs_zero(self, cosine_cfg, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cosine_cfg), "--outdir", str(a)])
        main(["simulate", "--config", str(cosine_cfg), "--outdir", str(b)])
        assert main(["relenergy", "--run", str(a), "--ref", str(b)]) == 0
        _, rows = read_csv(a / "run_0" / "relenergy.csv")
        assert all(float(r[2]) == 0.0 for r in rows)

    def test_eps_pair_same_data_is_report_only(self, cosine_cfg, tmp_path, capsys):
        # same initial data, different eps: E_rel(0) = 0, envelope degenerates,
        # so drift is reported without a pass/fail verdict
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cosine_cfg), "--outdir", str(a)])
        main(["simulate", "--config", str(cosine_cfg),
              "--override", "scheme.epsilon=1e-2", "--outdir", str(b)])
        assert main(["relenergy", "--run", str(b), "--ref", str(a)]) == 0
        assert "report only" in capsys.readouterr().out

    def test_calibrate_on_runs_of_one_state(self, tmp_path, capsys):
        # no step after t = 0, so the fit has nothing to scale
        cosine = str(PRESETS / "cosine.cfg")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cosine, "--override", "run.t_end=0", "--outdir", str(a)]) == 0
        assert main(["simulate", "--config", cosine, "--override", "run.t_end=0",
                     "--override", "initial.phi_amp=0.2", "--outdir", str(b)]) == 0
        capsys.readouterr()
        assert main(["relenergy", "--run", str(b), "--ref", str(a), "--calibrate"]) == 0
        out, err = capsys.readouterr()
        assert "calibrated multiplier = 1.0" in out and "Traceback" not in err


    @pytest.mark.parametrize("verb, option", [
        ("relenergy", ["--M", "nan"]),
        ("relenergy", ["--M", "0"]),
        ("weakstrong", ["--override", "experiment.M=0"]),
    ], ids=["M_nan", "M_zero", "weakstrong_M_zero"])
    def test_weight_or_multiplier_not_positive_and_finite_exits_two(self, verb, option, steady_cfg, tmp_path,
                                                                     capsys):
        if verb == "relenergy":
            run = tmp_path / "run"
            assert main(["simulate", "--config", str(steady_cfg), "--outdir", str(run)]) == 0
            argv = ["relenergy", "--run", str(run), "--ref", str(run), *option]
        else:
            argv = ["weakstrong", "--config", str(PRESETS / "weakstrong.cfg"), "--outdir", str(tmp_path / "ws"),
                    *option]
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "must be positive and finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["2", "nan", "-1"], ids=["multiplier_two", "multiplier_nan",
                                                              "multiplier_negative"])
    def test_removed_multiplier_flag_exits_two(self, value, steady_cfg, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["simulate", "--config", str(steady_cfg), "--outdir", str(run)]) == 0
        capsys.readouterr()
        assert main(["relenergy", "--run", str(run), "--ref", str(run), "--multiplier", value]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --multiplier" in err and "Traceback" not in err


@pytest.fixture(scope="module")
def cosine_pair(tmp_path_factory):
    """Reference and perturbed 65-state runs of presets/cosine.cfg whose envelope
    needs a multiplier just above 1."""
    root = tmp_path_factory.mktemp("pair")
    short = ["--override", "run.t_end=0.0078125"]
    ref, pert = root / "ref", root / "pert"
    assert main(["simulate", "--config", str(PRESETS / "cosine.cfg"), *short, "--outdir", str(ref)]) == 0
    assert main(["simulate", "--config", str(PRESETS / "cosine.cfg"), *short, "--override", "initial.phi_base=-0.8",
                 "--override", "initial.phi_amp=0.1", "--outdir", str(pert)]) == 0
    return pert, ref


class TestRelEnergyPair:
    def test_envelope_at_multiplier_one_is_violated(self, cosine_pair, capsys):
        pert, ref = cosine_pair
        capsys.readouterr()
        assert main(["relenergy", "--run", str(pert), "--ref", str(ref)]) == 1
        assert "relenergy: envelope violated, min margin -0.0010188088450338029\n" in capsys.readouterr().err

    def test_calibrated_envelope_holds_and_is_written_scaled_once(self, cosine_pair, capsys):
        pert, ref = cosine_pair
        capsys.readouterr()
        assert main(["relenergy", "--run", str(pert), "--ref", str(ref), "--calibrate"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("calibrated multiplier = 1.0001815003387013\n")
        m = 1.0001815003387013
        traj, run = load_run_dir(pert)
        rep = gronwall_check(traj, load_run_dir(ref)[0], RelEnergyConfig(lam=run.potential.lam), run.potential)
        IK = np.concatenate([[0.0], np.cumsum(traj.config.dt * rep.K[:-1])])
        cols = read_csv_columns(pert / "run_0" / "relenergy.csv", "rhs")
        assert np.array_equal(cols["rhs"], m * rep.E_rel[0] * np.exp(IK))

    def test_calibrate_computes_one_envelope(self, cosine_pair, monkeypatch):
        pert, ref = cosine_pair
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return gronwall_check(*args, **kwargs)

        monkeypatch.setattr(cli, "gronwall_check", counting)
        assert main(["relenergy", "--run", str(pert), "--ref", str(ref), "--calibrate"]) == 0
        assert len(calls) == 1


def test_holding_pair_reports_its_smallest_step_margin(tmp_path, capsys):
    # at t = 0 the margin is (m - 1) E_rel(0), zero at m = 1, so the minimum over every state read 0.0
    short = ["--config", str(PRESETS / "cosine.cfg"), "--override", "run.t_end=0.0244140625"]
    ref, pert = tmp_path / "ref", tmp_path / "pert"
    assert main(["simulate", *short, "--outdir", str(ref)]) == 0
    assert main(["simulate", *short, "--override", "initial.phi_amp=0.35", "--outdir", str(pert)]) == 0
    capsys.readouterr()
    assert main(["relenergy", "--run", str(pert), "--ref", str(ref)]) == 0
    out = capsys.readouterr().out
    assert out == "relenergy: envelope holds (multiplier 1.0), min margin 2.613598790020613e-05\n"
    traj, run = load_run_dir(pert)
    rep = gronwall_check(traj, load_run_dir(ref)[0], RelEnergyConfig(lam=run.potential.lam), run.potential)
    assert rep.min_step_margin(1.0) == 2.613598790020613e-05


@pytest.fixture(scope="module")
def steady_pair_past_overflow(tmp_path_factory):
    """Runs of presets/steady.cfg at phi* = 1.2 and 1.1 (the reference), dt = 1 to t = 720: K = 1 along
    a steady reference, so int K passes 709 and the Gronwall growth overflows from step 710 on."""
    root = tmp_path_factory.mktemp("long")
    long = ["--config", str(PRESETS / "steady.cfg"), "--override", "scheme.dt=1.0", "--override", "run.t_end=720"]
    for phi_star, outdir in (("1.2", root / "run"), ("1.1", root / "ref")):
        assert main(["simulate", *long, "--override", f"initial.phi_star={phi_star}", "--outdir", str(outdir)]) == 0
    return root / "run", root / "ref"


@pytest.mark.parametrize("calibrate", [[], ["--calibrate"]], ids=["multiplier_one", "calibrated"])
def test_holding_pair_holds_past_the_growth_overflow(steady_pair_past_overflow, calibrate, capsys):
    run, ref = steady_pair_past_overflow
    capsys.readouterr()
    assert main(["relenergy", "--run", str(run), "--ref", str(ref), *calibrate]) == 0
    assert capsys.readouterr().out.endswith("envelope holds (multiplier 1.0), min margin 0.9987495917221678\n")
    cols = {k: np.array(v) for k, v in read_csv_columns(run / "run_0" / "relenergy.csv").items()}
    IK = np.concatenate([[0.0], np.cumsum(cols["K"][:-1])])
    finite = IK < 709.5
    assert np.all(cols["K"] == 1.0) and finite.sum() == 710
    # W = 0, so lhs is E_rel; where the growth is finite, rhs and margin are E_rel(0) e^{int K} and rhs - lhs
    assert np.array_equal(cols["lhs"], cols["E_rel"])
    assert np.array_equal(cols["rhs"][finite], cols["E_rel"][0] * np.exp(IK[finite]))
    assert np.array_equal(cols["margin"][finite], cols["rhs"][finite] - cols["lhs"][finite])
    assert np.all(cols["rhs"][~finite] == np.inf) and np.all(cols["margin"][~finite] == np.inf)


class TestExperimentVerbs:
    def test_sweep(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(COSINE_CFG + "\n[experiment]\nkind = eps_sweep\neps_values = [1e-2, 1e-3]\n")
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(cfg), "--outdir", str(out)]) == 0
        header, rows = read_csv(out / "summary.csv")
        assert header[0] == "eps" and len(rows) == 2
        assert (out / "distances.csv").exists()

    def test_failed_sweep_member_exits_three_and_its_status_reads_back(self, tmp_path, capsys):
        # eps = 1e6 stalls the coupled sweeps; the status names both residuals, so it holds a comma
        preset = Path(__file__).resolve().parents[1] / "presets" / "sweep.cfg"
        out = tmp_path / "sweep_out"
        overrides = ["experiment.eps_values=[1e6, 1e-3]", "scheme.dt=1e-2", "run.t_end=0.05", "scheme.fp_max_iter=8"]
        argv = ["sweep", "--config", str(preset), "--outdir", str(out)]
        assert main(argv + [a for o in overrides for a in ("--override", o)]) == 3
        status = ("failed at step 1: coupled sweeps did not converge in 8 iterations "
                  "(phase residual 0.0418, heat 370); dt too large?")
        assert f"eps = 1000000.0: {status}\n" in capsys.readouterr().err
        header, rows = read_csv(out / "summary.csv")
        assert [row[:2] for row in rows] == [["1000000.0", status], ["0.001", "ok"]]
        cols = read_csv_columns(out / "summary.csv", *header)
        assert np.isnan(cols["E_final"][0]) and cols["E_final"][1] > 0.0
        assert np.isnan(read_csv_columns(out / "distances.csv", "theta_l1")["theta_l1"][0])

    def test_verb_kind_mismatch(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(COSINE_CFG + "\n[experiment]\nkind = eps_sweep\neps_values = [1e-2, 1e-3]\n")
        assert main(["refine", "--config", str(cfg)]) == 2

    def test_refine(self, tmp_path):
        cfg = tmp_path / "refine.cfg"
        cfg.write_text(
            COSINE_CFG.replace("t_end = 0.05", "t_end = 0.1")
            + "\n[experiment]\nkind = refine\nmonitor = manufactured_error\nlevels = [16, 32, 64]\n"
        )
        out = tmp_path / "refine_out"
        assert main(["refine", "--config", str(cfg), "--outdir", str(out),
                     "--override", "scheme.dt=0.00390625"]) == 0
        header, rows = read_csv(out / "summary.csv")
        assert len(rows) == 3

    def refine_values(self, tmp_path, *overrides):
        """The monitored values of ``refine`` on its preset at levels [8, 16, 32], dt 1/64 at n = 16
        and t_end 1/8, so the levels take 2, 8 and 32 whole steps and all end at the same time."""
        out = tmp_path / "-".join(["refine", *overrides])
        argv = ["refine", "--config", str(PRESETS / "refine.cfg"), "--outdir", str(out)]
        overrides = ("experiment.levels=[8, 16, 32]", "scheme.dt=0.015625", "run.t_end=0.125", *overrides)
        assert main(argv + [a for o in overrides for a in ("--override", o)]) == 0
        return read_csv_columns(out / "summary.csv", "value")["value"]

    @pytest.mark.parametrize("override", ["grid.dim=2", "grid.extent=2.0"])
    def test_refine_marches_the_configured_grid(self, override, tmp_path):
        values = self.refine_values(tmp_path, override)
        assert values != self.refine_values(tmp_path)
        for coarse, fine in zip(values, values[1:]):  # h halves from level to level
            assert 1.8 <= np.log2(coarse / fine) <= 2.2

    def test_refine_levels_end_at_one_final_time(self, tmp_path, capsys):
        # t_end 0.1 is rounded once, to 2 steps of the coarsest dt 1/16: every level ends at t = 1/8
        out = tmp_path / "refine"
        overrides = ("grid.dim=2", "experiment.levels=[8, 16, 32]", "scheme.dt=0.015625")
        argv = ["refine", "--config", str(PRESETS / "refine.cfg"), "--outdir", str(out)]
        assert main(argv + [a for o in overrides for a in ("--override", o)]) == 0
        orders_h = re.search(r"in h \[(.*)\]", capsys.readouterr().out).group(1)
        assert all(1.8 <= float(q.strip("' ")) <= 2.2 for q in orders_h.split(","))
        values = read_csv_columns(out / "summary.csv", "value")["value"]
        assert values == self.refine_values(tmp_path, "grid.dim=2")

    def test_weakstrong(self, tmp_path):
        cfg = tmp_path / "ws.cfg"
        cfg.write_text(
            COSINE_CFG.replace("n = 16", "n = 16")
            + "\n[experiment]\nkind = weak_strong\nlevels = [16]\ndeltas = [0.0, 0.1, 0.05]\n"
        )
        out = tmp_path / "ws_out"
        assert main(["weakstrong", "--config", str(cfg), "--outdir", str(out)]) == 0
        header, rows = read_csv(out / "summary.csv")
        assert len(rows) == 3


class TestPlot:
    def test_plots_from_run(self, cosine_cfg, tmp_path):
        out = tmp_path / "out"
        main(["simulate", "--config", str(cosine_cfg), "--outdir", str(out)])
        main(["check", "--run", str(out)])
        assert main(["plot", "--run", str(out)]) == 0
        svg = (out / "run_0" / "energy.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg
        assert (out / "run_0" / "floors.svg").exists()

    def test_empty_dir_reports_config_error(self, tmp_path):
        assert main(["plot", "--run", str(tmp_path)]) == 2

    def test_missing_run_is_not_created(self, tmp_path):
        assert main(["plot", "--run", str(tmp_path / "x" / "missing")]) == 2
        assert not (tmp_path / "x").exists()

    def test_malformed_quoting_in_a_csv_exits_two(self, cosine_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", str(cosine_cfg), "--outdir", str(out)])
        energy_csv = out / "run_0" / "energy.csv"
        energy_csv.write_text(energy_csv.read_text().replace("\n0,", '\n"0"x,', 1))
        assert main(["plot", "--run", str(out)]) == 2
        assert f"{energy_csv}: " in capsys.readouterr().err


class TestRunDirForms:
    @pytest.mark.parametrize("verb, written", [
        ("check", "energy_check.csv"),
        ("relenergy", "relenergy.csv"),
        ("plot", "energy.svg"),
    ])
    def test_outdir_and_run_0_write_the_same_files(self, verb, written, cosine_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cosine_cfg), "--outdir", str(out)]) == 0
        before = set(out.rglob("*"))
        results = []
        for run in (out, out / "run_0"):
            argv = [verb, "--run", str(run)] + (["--ref", str(out)] if verb == "relenergy" else [])
            assert main(argv) == 0
            new = set(out.rglob("*")) - before
            results.append({p: p.read_bytes() for p in new})
            for p in new:
                p.unlink()
        assert out / "run_0" / written in results[0]
        assert results[0] == results[1]


class TestOutdirEnv:
    def test_fremond_outdir_env_is_root(self, steady_cfg, tmp_path, monkeypatch):
        monkeypatch.setenv("FREMOND_OUTDIR", str(tmp_path / "root"))
        assert main(["simulate", "--config", str(steady_cfg), "--outdir", "rel"]) == 0
        assert (tmp_path / "root" / "rel" / "manifest.txt").exists()
