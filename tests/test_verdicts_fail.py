"""Each verdict can fail: a seeded defect, applied by monkeypatch, flips it.

``check``'s verdicts see a defect in the scheme. On ``presets/cosine.cfg`` at
n = 32 to t = 0.0625, phase anti-damping fails energy and floors(phi), and a
heat equation without its source |phi_t|^2 fails both entropy verdicts. No
scheme defect tried there reaches floors(theta), whose envelope stays far below
the rising minimum of that run, so it takes a defect in the diagnostic, on the
steady run.

A scheme defect that every run shares cannot reach the weak-strong verdicts: the
rate K comes from the reference, which is equally wrong, so the envelope widens
with the defect. Two kinds of defect can:
- one that couples batch members, which the delta = 0 regression sees, since
  member 1 (delta = 0) must equal the reference bitwise;
- one in the relative-energy diagnostics themselves. For ``weakstrong`` it must
  grow with resolution, as the multiplier is fitted on the coarsest level.
"""

from pathlib import Path

from fremond import relenergy, stepper, thermo
from fremond.cli import main
from fremond.config import load_config
from fremond.grid import _lap_values
from fremond.harness import ExperimentConfig, weak_strong_experiment
from fremond.relenergy import envelope_holds

PRESETS = Path(__file__).resolve().parents[1] / "presets"


def simulate_and_check(config, tmp_path, capsys, *overrides):
    """check's exit code on a fresh run of config, and the verdicts its stderr names."""
    args = [arg for override in overrides for arg in ("--override", override)]
    assert main(["simulate", "--config", str(config), *args, "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    code = main(["check", "--run", str(tmp_path)])
    return code, [line.split(":")[0] for line in capsys.readouterr().err.splitlines()]


COSINE_32 = (PRESETS / "cosine.cfg", "grid.n=32", "run.t_end=0.0625")


def test_energy_and_phase_floor_fail_on_phase_anti_damping(tmp_path, capsys, monkeypatch):
    # the phase equation gains a source 20 phi
    exact = stepper._phase_left
    monkeypatch.setattr(stepper, "_phase_left", lambda u, implicit, pot: exact(u, implicit, pot) - 20.0 * u)
    config, *overrides = COSINE_32
    assert simulate_and_check(config, tmp_path, capsys, *overrides) == (1, ["energy", "floors(phi)"])


def test_both_entropy_verdicts_fail_without_the_heat_source(tmp_path, capsys, monkeypatch):
    # the heat equation loses its source |phi_t|^2, which the entropy production phi_t^2 / theta counts
    exact = stepper._heat_linearized
    monkeypatch.setattr(stepper, "_heat_linearized",
                        lambda terms, u, d, rhs, cfg, out=None: exact(terms, u, d, rhs - d * d, cfg, out))
    config, *overrides = COSINE_32
    assert simulate_and_check(config, tmp_path, capsys, *overrides) == (1, ["entropy(one)", "entropy(cosine)"])


def test_temperature_floor_fails_on_an_envelope_that_rises(tmp_path, capsys, monkeypatch):
    # the envelope's rate with its sign flipped, h' = c h^p + h^2/2: the floor climbs past the steady temperature
    exact = thermo._floor_rhs
    monkeypatch.setattr(thermo, "_floor_rhs", lambda h, p, c: -exact(h, p, c))
    assert simulate_and_check(PRESETS / "steady.cfg", tmp_path, capsys) == (1, ["floors(theta)"])


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
