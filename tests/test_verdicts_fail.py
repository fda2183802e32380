"""Each weak-strong verdict can fail: a seeded defect, applied by monkeypatch, flips it.

A scheme defect that every run shares cannot reach the weak-strong verdicts: the
rate K comes from the reference, which is equally wrong, so the envelope widens
with the defect. Two kinds of defect can:
- one that couples batch members, which the delta = 0 regression sees, since
  member 1 (delta = 0) must equal the reference bitwise;
- one in the relative-energy diagnostics themselves. For ``weakstrong`` it must
  grow with resolution, as the multiplier is fitted on the coarsest level.
"""

from pathlib import Path

from fremond import relenergy, stepper
from fremond.cli import main
from fremond.config import load_config
from fremond.grid import _lap_values
from fremond.harness import ExperimentConfig, weak_strong_experiment
from fremond.relenergy import envelope_holds

PRESETS = Path(__file__).resolve().parents[1] / "presets"


def weak_strong(*overrides):
    run = load_config(PRESETS / "weakstrong.cfg", ["experiment.deltas=[0.0, 0.1]", *overrides])
    return weak_strong_experiment(ExperimentConfig.from_run(run))


def drop_cell_volume_from_w(monkeypatch):
    """The dissipation W summed over cells without the cell volume: n times too large in 1D."""
    exact = relenergy.dissipation_W
    monkeypatch.setattr(relenergy, "dissipation_W", lambda s, r, kappa=1.0: exact(s, r, kappa) / s.grid.cell_volume)


def test_delta_zero_regression_fails_when_members_cross_talk(monkeypatch):
    # member 1's Laplacian reads 1e-4 of member 2's: the delta = 0 run drifts from the reference
    def cross_talk(v, grid):
        out = _lap_values(v, grid)
        if v.ndim > grid.dim and v.shape[-grid.dim - 1] > 2:
            out[..., 1, :] += 1e-4 * out[..., 2, :]
        return out

    monkeypatch.setattr(stepper, "_lap_values", cross_talk)
    rep = weak_strong("experiment.levels=[16]", "run.t_end=0.0078125")
    assert not rep.zero_delta_pass


def test_envelope_fails_on_a_dissipation_that_grows_with_resolution(monkeypatch):
    drop_cell_volume_from_w(monkeypatch)
    rep = weak_strong("experiment.levels=[16, 32]", "run.t_end=0.00390625")
    assert rep.zero_delta_pass
    assert not rep.envelope_pass
    # it holds on the level the multiplier is fitted on, and fails on the finer one
    assert [envelope_holds(r.min_gronwall_margin, rep.scale) for r in rep.rows if r.delta > 0.0] == [True, False]


def test_relenergy_envelope_at_multiplier_one_fails(tmp_path, capsys, monkeypatch):
    short = ["--config", str(PRESETS / "cosine.cfg"), "--override", "grid.n=32",
             "--override", "scheme.dt=0.0009765625", "--override", "run.t_end=0.0078125"]
    ref, pert = tmp_path / "ref", tmp_path / "pert"
    assert main(["simulate", *short, "--outdir", str(ref)]) == 0
    assert main(["simulate", *short, "--override", "initial.phi_amp=0.35", "--outdir", str(pert)]) == 0
    assert main(["relenergy", "--run", str(pert), "--ref", str(ref)]) == 0
    drop_cell_volume_from_w(monkeypatch)
    capsys.readouterr()
    assert main(["relenergy", "--run", str(pert), "--ref", str(ref)]) == 1
    assert capsys.readouterr().err.startswith("relenergy: envelope violated, min margin -")
