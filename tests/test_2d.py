"""2D at real resolution: the checked laws on the 2D box, and weak-strong
stability in 2D with criterion 10's three checks."""

from pathlib import Path

import pytest

from fremond.cli import main
from fremond.config import load_config
from fremond.harness import ExperimentConfig, weak_strong_experiment

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("n", [64, 128])
def test_box2d_simulates_and_checks(n, tmp_path):
    # exit 0 from check: energy, both entropy test functions and both floors pass
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(ROOT / "bench" / "box2d.cfg"), "--override", f"grid.n={n}",
                 "--outdir", str(out)]) == 0
    assert main(["check", "--run", str(out)]) == 0


def test_weak_strong_in_2d():
    run = load_config(ROOT / "presets" / "weakstrong.cfg", [
        "grid.dim=2", "grid.n=16", "scheme.dt=0.001953125", "experiment.levels=[16, 32]", "run.t_end=0.0625"])
    rep = weak_strong_experiment(ExperimentConfig.from_run(run))
    assert rep.multiplier == 1.0
    assert rep.zero_delta_pass
    assert all(r.E_rel_max == 0.0 for r in rep.rows if r.delta == 0.0)  # delta = 0 matches the reference bitwise
    assert rep.ratios_spread < 2.0
    assert rep.envelope_pass
