import numpy as np
import pytest

from fremond.cli import main
from fremond.harness import load_run_dir, read_csv, write_csv


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


WEAKSTRONG_CFG = COSINE_CFG + "\n[experiment]\nkind = weak_strong\nlevels = [16]\ndeltas = [0.0, 0.1]\n"


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

    def test_solver_failure_exits_three(self, cosine_cfg, tmp_path):
        code = main([
            "simulate", "--config", str(cosine_cfg),
            "--override", "scheme.fp_max_iter=1",
            "--outdir", str(tmp_path / "boom"),
        ])
        assert code == 3

    def test_override_changes_resolution(self, steady_cfg, tmp_path):
        out = tmp_path / "o8"
        assert main(["simulate", "--config", str(steady_cfg), "--override", "grid.n=8",
                     "--outdir", str(out)]) == 0
        traj, _ = load_run_dir(out)
        assert traj.grid.n == (8,)


class TestBadConfigValues:
    @pytest.mark.parametrize("verb, override", [
        ("simulate", "grid.n=abc"),
        ("simulate", "scheme.dt=fast"),
        ("simulate", "scheme.newton_max_iter=many"),
        ("simulate", "run.t_end=x"),
        ("simulate", "initial.phi_amp=big"),
        ("weakstrong", "experiment.levels=[a]"),
        ("weakstrong", "experiment.deltas=0.1"),
    ])
    def test_exits_two_naming_the_entry(self, verb, override, tmp_path, capsys):
        cfg = tmp_path / "ws.cfg"
        cfg.write_text(WEAKSTRONG_CFG)
        code = main([verb, "--config", str(cfg), "--override", override, "--outdir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and override.split("=")[0] in err
        assert "Traceback" not in err


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

    def test_hand_edited_negative_temperature_fails(self, cosine_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", str(cosine_cfg), "--outdir", str(out)])
        victim = out / "run_0" / "state_3.field"
        recs = victim.read_text().splitlines()
        header, first_val_line = recs[0], recs[1]
        toks = first_val_line.split()
        toks[0] = "-1.0"
        recs[1] = " ".join(toks)
        victim.write_text("\n".join(recs) + "\n")
        code = main(["check", "--run", str(out)])
        assert code == 1
        assert "min theta" in capsys.readouterr().err

    def test_hand_edited_energy_jump_fails(self, cosine_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", str(cosine_cfg), "--outdir", str(out)])
        victim = out / "run_0" / "state_3.field"
        recs = victim.read_text().splitlines()
        recs[1] = " ".join(["50.0"] + recs[1].split()[1:])
        victim.write_text("\n".join(recs) + "\n")
        assert main(["check", "--run", str(out)]) == 1
        assert "energy: first failing row" in capsys.readouterr().err

    def test_check_matches_direct_api_byte_for_byte(self, cosine_cfg, tmp_path):
        from fremond.thermo import energy_inequality_check

        out = tmp_path / "out"
        main(["simulate", "--config", str(cosine_cfg), "--outdir", str(out)])
        main(["check", "--run", str(out)])
        traj, run = load_run_dir(out)
        rep = energy_inequality_check(traj, run.potential)
        header, rows = rep.csv_rows()
        write_csv(tmp_path / "direct.csv", header, rows)
        assert (tmp_path / "direct.csv").read_bytes() == (out / "run_0" / "energy_check.csv").read_bytes()


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


class TestExperimentVerbs:
    def test_sweep(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(COSINE_CFG + "\n[experiment]\nkind = eps_sweep\neps_values = [1e-2, 1e-3]\n")
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(cfg), "--outdir", str(out)]) == 0
        header, rows = read_csv(out / "summary.csv")
        assert header[0] == "eps" and len(rows) == 2
        assert (out / "distances.csv").exists()

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
