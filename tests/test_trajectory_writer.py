"""``simulate`` writes trajectory.field in a writer process once a run spans more than one segment.

The file must keep every byte of the in-process format, which a reference formatter written here pins apart
from the code under test, at each segment edge and for a run that fails part-way. A writer that fails ends the
run with one exit-2 line, and no verb leaves a process behind or starts one that it does not need.
"""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fremond import harness, stepper, thermo
from fremond.cli import main
from fremond.config import load_config
from fremond.errors import SimulationAborted, SolverError

ROOT = Path(__file__).resolve().parents[1]
COSINE, BOX2D = ROOT / "presets" / "cosine.cfg", ROOT / "bench" / "box2d.cfg"
DT = 1.220703125e-4  # cosine.cfg's
PER = thermo.BLOCK_VALUES // 64  # states per segment at cosine.cfg's 64 cells
STALL = ["scheme.dt=0.004", "scheme.fp_max_iter=6"]  # on cosine.cfg the coupled sweeps stall at step 58


def reference_field(traj) -> bytes:
    """trajectory.field of ``traj`` as the in-process writer formats it, record by record."""
    s, out = traj.stack, io.StringIO()
    grid = s.grid
    n = ",".join(str(k) for k in grid.n)
    h = ",".join(repr(float(x)) for x in grid.h)
    for k, t in enumerate(s.t):
        header = f"FIELD dim={grid.dim} n={n} h={h} t={float(t)!r}\n"
        for values in (s.theta.values, s.phi.values):
            out.write(header)
            flat = values[k].ravel().tolist()
            for i in range(0, len(flat), 8):
                out.write(" ".join(map(repr, flat[i : i + 8])) + "\n")
    return out.getvalue().encode()


def simulate(config, overrides, outdir) -> int:
    return main(["simulate", "--config", str(config), *(a for o in overrides for a in ("--override", o)),
                 "--outdir", str(outdir)])


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def popens(monkeypatch):
    """The argument lists of the processes that are started."""
    started, real = [], subprocess.Popen

    def popen(args, **kwargs):
        started.append(args)
        return real(args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", popen)
    return started


@pytest.mark.parametrize("config, overrides, writers", [
    (COSINE, ["run.t_end=0"], 0),  # one state
    (COSINE, [f"run.t_end={(PER - 1) * DT!r}"], 0),  # one whole segment: formatted in-process
    (COSINE, [f"run.t_end={PER * DT!r}"], 1),  # one state past it
    (COSINE, [f"run.t_end={2 * PER * DT!r}"], 1),
    (BOX2D, [], 1),  # 128 x 128 cells: one state a segment
    (COSINE, [*STALL, "run.t_end=2.0"], 1),  # plans 501 states, fails at step 58, inside the first segment
    (COSINE, [*STALL, "run.t_end=0.5"], 0),  # plans 126
], ids=["1", "per", "per+1", "2per+1", "box2d", "fail58-writer", "fail58-in-process"])
def test_the_field_keeps_every_byte_at_segment_edges(config, overrides, writers, tmp_path, popens, capsys):
    run = load_config(config, overrides)
    try:
        traj, code = harness.run_simulation(run), 0
    except SimulationAborted as exc:
        traj, code = exc.trajectory, 3
    assert simulate(config, overrides, tmp_path) == code
    assert (tmp_path / "run_0" / "trajectory.field").read_bytes() == reference_field(traj)
    assert len(popens) == writers
    assert_no_child()


def test_a_failure_after_a_whole_segment_keeps_every_byte(tmp_path, popens, monkeypatch, capsys):
    # the injected failure at step per + 5 comes after the writer was sent one whole segment
    real_step = stepper.step

    def step(prev, cfg, potential, stats=None):
        if prev.t >= (PER + 3.5) * cfg.dt:
            raise SolverError("injected")
        return real_step(prev, cfg, potential, stats)

    monkeypatch.setattr(stepper, "step", step)
    overrides = [f"run.t_end={2 * PER * DT!r}"]
    with pytest.raises(SimulationAborted) as aborted:
        harness.run_simulation(load_config(COSINE, overrides))
    assert aborted.value.step_index == PER + 5
    assert simulate(COSINE, overrides, tmp_path) == 3
    assert capsys.readouterr().err == f"solver error: step {PER + 5} failed: injected\n"
    assert (tmp_path / "run_0" / "trajectory.field").read_bytes() == reference_field(aborted.value.trajectory)
    assert len(popens) == 1
    assert_no_child()


def _writer_that(code: str):
    """A Popen that starts ``python -c code`` in place of the writer process."""
    real = subprocess.Popen
    return lambda args, **kwargs: real([sys.executable, "-c", code], **kwargs)


@pytest.mark.parametrize("case", ["directory", "disk full", "silent exit", "broken pipe"])
def test_a_failing_writer_exits_two_with_one_line(case, tmp_path, monkeypatch, capsys):
    field = tmp_path / "run_0" / "trajectory.field"
    field.parent.mkdir()
    if case == "directory":
        field.mkdir()
        want = f"i/o error: [Errno 21] Is a directory: '{field}'\n"
    elif case == "disk full":
        field.symlink_to("/dev/full")
        want = "i/o error: [Errno 28] No space left on device\n"
    elif case == "silent exit":
        monkeypatch.setattr(subprocess, "Popen", _writer_that("import sys; sys.exit(3)"))
        want = "i/o error: the snapshot writer exited with status 3\n"
    else:  # it exits at once, unread, with status 0
        monkeypatch.setattr(subprocess, "Popen", _writer_that("pass"))
        want = "i/o error: [Errno 32] Broken pipe\n"
    assert simulate(COSINE, [], tmp_path) == 2
    assert capsys.readouterr().err == want
    assert not (tmp_path / "run_0" / "index.csv").exists()
    assert_no_child()


def test_no_child_is_left_after_a_run_or_a_config_error(tmp_path, popens, capsys):
    assert simulate(COSINE, ["run.t_end=0.0625"], tmp_path / "ok") == 0
    assert simulate(COSINE, [*STALL, "run.t_end=2.0"], tmp_path / "failed") == 3
    assert len(popens) == 2
    assert_no_child()
    assert simulate(COSINE, ["run.t_end=-1"], tmp_path / "bad") == 2  # a ConfigError starts none and writes nothing
    assert len(popens) == 2 and not (tmp_path / "bad").exists()


def test_the_other_verbs_start_no_writer(tmp_path, monkeypatch, capsys):
    assert simulate(COSINE, ["run.t_end=0.0078125"], tmp_path / "run") == 0

    def popen(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(subprocess, "Popen", popen)
    presets = ROOT / "presets"
    for argv in (
        ["check", "--run", str(tmp_path / "run")],
        ["weakstrong", "--config", str(presets / "weakstrong.cfg"), "--override", "experiment.levels=[16, 32]",
         "--override", "run.t_end=0.00390625"],
        ["sweep", "--config", str(presets / "sweep.cfg"), "--override", "grid.n=8",
         "--override", "run.t_end=1.220703125e-4"],
        ["refine", "--config", str(presets / "refine.cfg"), "--override", "experiment.levels=[8, 16, 32]",
         "--override", "run.t_end=0.00390625"],
    ):
        if argv[0] != "check":
            argv += ["--outdir", str(tmp_path / argv[0])]
        assert main(argv) in (0, 1, 3), argv  # an AssertionError from Popen would have propagated
