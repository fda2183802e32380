"""The exit-code contract, generated from the config schema: every key of
``config.KEY_KINDS`` set to each hostile value exits 0, 2 or 3 from an
in-process ``cli.main`` call, or 1 with a verdict line, never by an exception
and with no numeric RuntimeWarning on the way; an exit 2 writes nothing.

[grid] to [run] run on a one-step ``simulate`` of presets/steady.cfg at 8 cells,
once per initial preset and once in 2D; [experiment] runs on ``weakstrong``,
``refine`` and ``sweep`` at toy levels."""

import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from fremond.cli import main
from fremond.config import KEY_KINDS
from fremond.grid import Field, Grid, write_snapshots

PRESETS = Path(__file__).resolve().parents[1] / "presets"

HOSTILE = ["nan", "inf", "-inf", "-1", "0", "1e300", "1e-300", "text", "[]", "[1, 2]", "true", "0.5", "2.5",
           "-0.5"]

# the lines with which a verb reports a failed inequality (exit 1)
VERDICT = re.compile(r"^(check failed: |\S+: first failing row: |relenergy: envelope violated|"
                     r"weakstrong: delta=0 regression or envelope check failed)", re.M)


def _overrides(*entries):
    return [a for e in entries for a in ("--override", e)]


STEADY = ["simulate", "--config", str(PRESETS / "steady.cfg"), *_overrides("grid.n=8", "run.t_end=0.01")]
SIMULATE_BASES = {
    "uniform": _overrides("initial.preset=uniform"),
    "cosine_bump": _overrides("initial.preset=cosine_bump"),
    "random_smooth": _overrides("initial.preset=random_smooth"),
    "steady": [],
    "snapshot": None,  # the files are written by the fixture below
    "dim2": _overrides("grid.dim=2"),
    "pde": _overrides("initial.preset=cosine_bump", "initial.phi_t=pde"),
}

EXPERIMENTS = {
    "weakstrong": ["weakstrong", "--config", str(PRESETS / "weakstrong.cfg"),
                   *_overrides("grid.n=8", "experiment.levels=[8, 16]", "run.t_end=4.8828125e-4")],
    "refine": ["refine", "--config", str(PRESETS / "refine.cfg"),
               *_overrides("grid.n=8", "experiment.levels=[8, 16, 32]", "run.t_end=0.00390625")],
    "sweep": ["sweep", "--config", str(PRESETS / "sweep.cfg"),
              *_overrides("grid.n=8", "run.t_end=1.220703125e-4")],
}


@pytest.fixture(scope="module")
def snapshot_base(tmp_path_factory):
    root = tmp_path_factory.mktemp("snapshot")
    grid = Grid.line(8)
    mode = grid.cosine_mode()
    write_snapshots(Field(grid, (1.0 + 0.2 * mode)[None]), root / "theta.field", [0.0])
    write_snapshots(Field(grid, (0.3 * mode)[None]), root / "phi.field", [0.0])
    return _overrides("initial.preset=snapshot", f"initial.theta_file={root / 'theta.field'}",
                      f"initial.phi_file={root / 'phi.field'}")


def assert_every_value_exits_by_contract(argv, key, outdir, capsys):
    """Also: a value that exits 2 (a config error) leaves its --outdir absent."""
    broken = []
    for value in HOSTILE:
        run = [*argv, "--override", f"{key}={value}", "--outdir", str(outdir)]
        shutil.rmtree(outdir, ignore_errors=True)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)  # what would otherwise print to stderr
            try:
                code = main(run)
            except Exception as exc:  # the contract: nothing escapes main
                broken.append(f"{key}={value}: {type(exc).__name__}: {exc}")
                continue
        err = capsys.readouterr().err
        warned = [f"{w.filename}:{w.lineno}: {w.message}" for w in caught if issubclass(w.category, RuntimeWarning)]
        if code not in (0, 1, 2, 3) or "Traceback" in err or warned or (code == 1 and not VERDICT.search(err)):
            broken.append(f"{key}={value}: exit {code}, stderr {err!r}, RuntimeWarnings {warned}")
        elif code == 2 and outdir.exists():
            broken.append(f"{key}={value}: exit 2, but {sorted(p.name for p in outdir.rglob('*'))} written")
    assert not broken, "\n".join(broken)


@pytest.mark.parametrize("base", list(SIMULATE_BASES))
@pytest.mark.parametrize("key", [f"{sec}.{key}" for sec in ("grid", "scheme", "potential", "initial", "run")
                                 for key in KEY_KINDS[sec]])
def test_simulate_key_exits_by_contract(base, key, snapshot_base, tmp_path, capsys):
    extra = snapshot_base if base == "snapshot" else SIMULATE_BASES[base]
    assert_every_value_exits_by_contract([*STEADY, *extra], key, tmp_path / "out", capsys)


@pytest.mark.parametrize("verb", list(EXPERIMENTS))
@pytest.mark.parametrize("key", [f"experiment.{key}" for key in KEY_KINDS["experiment"]])
def test_experiment_key_exits_by_contract(verb, key, tmp_path, capsys):
    assert_every_value_exits_by_contract(EXPERIMENTS[verb], key, tmp_path / "out", capsys)


@pytest.mark.parametrize("base", [*SIMULATE_BASES, *EXPERIMENTS])
def test_every_base_runs(base, snapshot_base, tmp_path):
    # a base that failed on its own would leave the cases above testing only its error
    argv = EXPERIMENTS.get(base) or [*STEADY, *(snapshot_base if base == "snapshot" else SIMULATE_BASES[base])]
    assert main([*argv, "--outdir", str(tmp_path / "out")]) == 0


def test_overflowing_initial_data_prints_only_its_error_line(tmp_path):
    # a separate process, so that a numpy warning would reach the real stderr
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "fremond.cli", *STEADY, *_overrides("initial.phi_star=1e100"),
                           "--outdir", str(tmp_path / "out")],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: ") and proc.stderr.count("\n") == 1, proc.stderr


def assert_pde_rate_overflow_exits_two(argv, capsys):
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: initial.phi_t = pde: ") and err.count("\n") == 1, err


def test_weakstrong_delta_whose_pde_rate_overflows_exits_two(tmp_path, capsys):
    assert_pde_rate_overflow_exits_two([*EXPERIMENTS["weakstrong"], *_overrides("initial.phi_t=pde",
                                        "experiment.deltas=[0.0, 1e103]"), "--outdir", str(tmp_path)], capsys)


def test_check_of_a_pde_run_whose_first_phase_record_overflows_exits_two(tmp_path, capsys):
    argv = [*STEADY, *SIMULATE_BASES["pde"], "--outdir", str(tmp_path)]
    assert main(argv) == 0
    path = tmp_path / "run_0" / "trajectory.field"
    lines = path.read_text().splitlines()
    first, second = [i for i, line in enumerate(lines) if line.startswith("FIELD")][1:3]  # the first phase record
    lines[first + 1 : second] = [" ".join(["1e200"] * len(line.split())) for line in lines[first + 1 : second]]
    path.write_text("\n".join(lines) + "\n")
    assert_pde_rate_overflow_exits_two(["check", "--run", str(tmp_path)], capsys)


def assert_check_exits_two_naming(run_dir, named, capsys):
    capsys.readouterr()
    assert main(["check", "--run", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err and err.count("\n") == 1, err
    return err


def test_check_of_a_run_whose_phase_rate_overflows_names_the_records(tmp_path, capsys):
    assert main([*STEADY, "--outdir", str(tmp_path)]) == 0
    path = tmp_path / "run_0" / "trajectory.field"
    lines = path.read_text().splitlines()
    starts = [i for i, line in enumerate(lines) if line.startswith("FIELD")] + [len(lines)]
    for k, value in ((1, "1e308"), (3, "-1e308")):  # the phase records of the two states, both finite
        lines[starts[k] + 1 : starts[k + 1]] = [" ".join([value] * len(line.split()))
                                                for line in lines[starts[k] + 1 : starts[k + 1]]]
    path.write_text("\n".join(lines) + "\n")
    err = assert_check_exits_two_naming(tmp_path, f"{path}: the phase rate", capsys)
    assert "index.csv" not in err


def test_check_of_a_run_whose_times_do_not_fit_dt_names_the_index(tmp_path, capsys):
    assert main([*STEADY, "--outdir", str(tmp_path)]) == 0
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("dt = 0.01\n", "dt = 0.005\n"))
    assert_check_exits_two_naming(tmp_path, f"{tmp_path / 'run_0' / 'index.csv'} times do not fit dt = 0.005", capsys)
