"""One iteration of one benchmark workload, in a fresh Python process.

Modes:
  setup  time the set-up only: import fremond with numpy and scipy, load the
         workload's config and build its initial state
  run    set up, run the workload's verb sequence through ``fremond.cli.main``
         with tracing off, then apply the correctness gate
  trace  as ``run``, with spans around the public functions the verbs call,
         followed by warm microbenchmarks of the stepper and grid kernels

Every mode times the calibration loop (``calibrate``) right after set-up; run
and trace time it again after each verb.

The result goes to ``--result`` as JSON. ``bench/run.py`` starts this script
once per iteration and aggregates the results; it is not meant to be run by
hand.
"""

import time  # first, so that nothing heavy loads before set-up timing starts

import argparse
import contextlib
import csv
import io
import json
import math
import re
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


class Workload(NamedTuple):
    config: str                 # relative to the repository root
    overrides: tuple[str, ...]  # on top of the seeded initial data
    verbs: tuple[str, ...]      # the first produces the trajectories
    spans: tuple[str, ...]      # spans that must record calls in a traced iteration


_SIMULATE_CHECK_SPANS = (
    "cli.simulate", "cli.check", "config.load_config", "harness.run_simulation",
    "stepper.simulate", "stepper.step", "harness.persist_trajectory", "thermo.energy",
    "harness.load_run_dir", "grid.read_snapshots", "thermo.energy_inequality_check",
    "thermo.entropy_inequality_check", "thermo.floors_check",
)

WORKLOADS = {
    "cosine1d": Workload("presets/cosine.cfg", (), ("simulate", "check"), _SIMULATE_CHECK_SPANS),
    "box2d": Workload("bench/box2d.cfg", (), ("simulate", "check"), _SIMULATE_CHECK_SPANS),
    "weakstrong": Workload(
        "presets/weakstrong.cfg", ("experiment.levels=[32, 64]", "run.t_end=0.0625"), ("weakstrong",),
        ("cli.weakstrong", "config.load_config", "harness.weak_strong_experiment",
         "stepper.simulate", "stepper.step", "relenergy.gronwall_check", "relenergy.xi_monitor"),
    ),
}

# Files the check verb writes next to the trajectory; every row must pass.
CHECK_FILES = ("energy_check", "entropy_one", "entropy_cosine", "floors_theta", "floors_phi")

# Reference values may move by solver tolerance (a different iteration order
# or preconditioner), never by more.
RTOL, ATOL = 1e-6, 1e-12


def overrides(wl: Workload, seed: int) -> list[str]:
    return ["initial.preset=random_smooth", f"initial.seed={seed}", *wl.overrides]


def verb_argv(verb: str, wl: Workload, seed: int, outdir: Path) -> list[str]:
    if verb == "check":
        return ["check", "--run", str(outdir)]
    argv = [verb, "--config", str(ROOT / wl.config)]
    for ov in overrides(wl, seed):
        argv += ["--override", ov]
    return argv + ["--outdir", str(outdir)]


def set_up(wl: Workload, seed: int):
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    import fremond
    import fremond.cli  # noqa: F401
    from fremond import harness
    from fremond.config import load_config

    run = load_config(ROOT / wl.config, overrides(wl, seed))
    init = harness.make_initial(run.grid, run.potential, run.initial)
    setup_s = time.perf_counter() - t0
    if Path(fremond.__file__).resolve().parent != SRC / "fremond":
        raise SystemExit(f"fremond was imported from {fremond.__file__}, not from {SRC}")
    return setup_s, run, init


def simulations(name: str, run) -> list[dict]:
    """Cells, steps, field bytes and run count of each grid the workload simulates."""
    def sim(cells, dt, runs):
        return {"cells": cells, "steps": round(run.t_end / dt), "field_bytes": 8 * cells, "runs": runs}

    if name != "weakstrong":
        return [sim(run.grid.num_cells, run.scheme.dt, 1)]
    from fremond.harness import ExperimentConfig

    # as in harness.weak_strong_experiment: square grids, dt scaled with h^2,
    # a reference run plus one run per delta (delta = 0 always included)
    ex = ExperimentConfig.from_run(run)
    runs = 1 + len(set(ex.deltas) | {0.0})
    n0 = ex.levels[0]
    return [sim(n ** run.grid.dim, run.scheme.dt * (n0 / n) ** 2, runs) for n in ex.levels]


# --- correctness gate ----------------------------------------------------------


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


def observed(name: str, outdir: Path, stdout: str) -> dict:
    """The values the gate compares with the recorded references."""
    if name == "weakstrong":
        m = re.search(r"^weakstrong: multiplier (\S+),", stdout, re.M)
        if m is None:
            raise ValueError("weakstrong printed no multiplier")
        rows = _rows(outdir / "summary.csv")
        return {"multiplier": float(m.group(1)), "E_rel_final": [float(r["E_rel_final"]) for r in rows]}
    last = _rows(outdir / "run_0" / "energy.csv")[-1]
    return {k: float(last[k]) for k in ("E_total", "theta_min", "phi_min")}


def _shape_errors(name: str, outdir: Path, sims: list[dict]) -> list[tuple[str, str]]:
    if name == "weakstrong":
        want = sum(s["runs"] - 1 for s in sims)
        got = len(_rows(outdir / "summary.csv"))
        return [] if got == want else [("weakstrong", f"summary.csv has {got} rows, expected {want}")]
    errors = []
    steps = sims[0]["steps"]
    got = len(_rows(outdir / "run_0" / "energy.csv"))
    if got != steps + 1:
        errors.append(("simulate", f"energy.csv has {got} rows, expected {steps + 1}"))
    for stem in CHECK_FILES:
        rows = _rows(outdir / "run_0" / f"{stem}.csv")
        if not rows or any(r["pass"] != "true" for r in rows):
            errors.append(("check", f"{stem}.csv is empty or has a failing row"))
    return errors


def _close(got, want) -> bool:
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_close, got, want))
    return abs(got - want) <= RTOL * abs(want) + ATOL


def gate(name: str, seed: int, outdir: Path, stdout: str, codes: dict, sims) -> tuple[dict, list]:
    """Observed values and the failures as (verb, message); no failures when correct."""
    producer = WORKLOADS[name].verbs[0]
    failures = [(verb, f"exit code {code}") for verb, code in codes.items() if code != 0]
    if failures:
        return {}, failures
    try:
        obs = observed(name, outdir, stdout)
        failures = _shape_errors(name, outdir, sims)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return {}, [(producer, f"unreadable output: {exc!r}")]
    refs = json.loads((BENCH / "references.json").read_text())
    for key, want in refs.get(name, {}).get(str(seed), {}).items():
        if not _close(obs[key], want):
            failures.append((producer, f"{key} = {obs[key]!r}, reference {want!r}"))
    return obs, failures


# --- tracing ---------------------------------------------------------------------


class Tracer:
    """Spans around public functions, patched at the names the program calls
    them through, aggregated in memory per (span, parent)."""

    def __init__(self):
        self.stack: list[str] = []
        self.seconds = defaultdict(float)   # (span, parent) -> busy seconds
        self.calls = defaultdict(int)       # (span, parent) -> calls
        self.step_ms: list[float] = []
        self.picard = 0
        self.convex = defaultdict(int)      # order -> Potential.convex calls made inside a step
        self._undo = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else None
        self.stack.append(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            self.stack.pop()
            self.seconds[name, parent] += elapsed
            self.calls[name, parent] += 1
            if name == "stepper.step":
                self.step_ms.append(1e3 * elapsed)

    def _patch(self, owner, attr: str, make):
        fn = getattr(owner, attr)
        setattr(owner, attr, make(fn))
        self._undo.append((owner, attr, fn))

    def _timed(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
            return wrapper
        return make

    def _step(self, fn):
        def step(prev, cfg, potential, stats=None):
            stats = {} if stats is None else stats
            with self.span("stepper.step"):
                out = fn(prev, cfg, potential, stats)
            self.picard += stats["picard_iterations"]
            return out
        return step

    def _convex(self, fn):
        def convex(pot, y, order=0):
            if self.stack and self.stack[-1] == "stepper.step":
                self.convex[order] += 1
            return fn(pot, y, order)
        return convex

    def install(self):
        from fremond import cli, harness, stepper
        from fremond.potential import Potential

        for owner, attr, name in (
            (cli, "load_config", "config.load_config"),
            (cli, "energy", "thermo.energy"),
            (cli, "energy_inequality_check", "thermo.energy_inequality_check"),
            (cli, "entropy_inequality_check", "thermo.entropy_inequality_check"),
            (cli, "floors_check", "thermo.floors_check"),
            (harness, "run_simulation", "harness.run_simulation"),
            (harness, "simulate", "stepper.simulate"),
            (harness, "persist_trajectory", "harness.persist_trajectory"),
            (harness, "load_run_dir", "harness.load_run_dir"),
            (harness, "read_snapshots", "grid.read_snapshots"),
            (harness, "weak_strong_experiment", "harness.weak_strong_experiment"),
            (harness, "gronwall_check", "relenergy.gronwall_check"),
            (harness, "xi_monitor", "relenergy.xi_monitor"),
        ):
            self._patch(owner, attr, self._timed(name))
        self._patch(stepper, "step", self._step)
        self._patch(Potential, "convex", self._convex)

    def restore(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def busy(self, name: str) -> float:
        return sum(s for (n, _), s in self.seconds.items() if n == name)

    def count(self, name: str) -> int:
        return sum(c for (n, _), c in self.calls.items() if n == name)

    def self_time(self, name: str) -> float:
        return self.busy(name) - sum(s for (_, p), s in self.seconds.items() if p == name)

    def layers(self, outdir: Path) -> dict:
        steps = len(self.step_ms)
        files = [p for p in outdir.rglob("*") if p.is_file()]
        return {
            "stepper.step_s": self.busy("stepper.step"),
            "stepper.picard_per_step": self.picard / steps,
            "potential.convex_calls_per_step.order1": self.convex[1] / steps,
            "potential.convex_calls_per_step.order2": self.convex[2] / steps,
            "grid.read_snapshots_s": self.busy("grid.read_snapshots"),
            "grid.read_snapshots_calls": self.count("grid.read_snapshots"),
            "harness.persist_s": self.busy("harness.persist_trajectory"),
            "harness.persist_bytes": sum(p.stat().st_size for p in files),
            "harness.persist_files": len(files),
            "harness.load_run_dir_s": self.busy("harness.load_run_dir"),
            "thermo.energy_series_s": self.busy("thermo.energy"),
            "thermo.energy_check_s": self.busy("thermo.energy_inequality_check"),
            "thermo.entropy_check_s": self.busy("thermo.entropy_inequality_check"),
            "thermo.floors_check_s": self.busy("thermo.floors_check"),
            "relenergy.gronwall_check_s": self.busy("relenergy.gronwall_check"),
            "relenergy.gronwall_check_calls": self.count("relenergy.gronwall_check"),
            "relenergy.xi_monitor_s": self.busy("relenergy.xi_monitor"),
            "relenergy.xi_monitor_calls": self.count("relenergy.xi_monitor"),
            "config.load_config_ms": 1e3 * self.busy("config.load_config") / self.count("config.load_config"),
            "cli.simulate_s": self.busy("cli.simulate"),
            "cli.check_s": self.busy("cli.check"),
            "cli.weakstrong_s": self.busy("cli.weakstrong"),
            "cli.simulate_self_s": self.self_time("cli.simulate"),
            "cli.check_self_s": self.self_time("cli.check"),
            "cli.weakstrong_self_s": self.self_time("cli.weakstrong"),
        }


def _per_call(fn, min_seconds: float = 0.3, min_calls: int = 3) -> float:
    """Median seconds per call of fn, warm."""
    fn()
    samples = []
    start = time.perf_counter()
    while len(samples) < min_calls or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def microbenchmarks(run, init) -> dict:
    """phase_step, heat_step and the Laplacian on the workload's first stepped state."""
    from fremond.grid import laplacian_neumann
    from fremond.stepper import heat_step, phase_step, step

    cfg, pot = run.scheme, run.potential
    state = step(init, cfg, pot)
    phi = phase_step(state, state.theta, cfg, pot)
    return {
        "stepper.phase_step_ms": 1e3 * _per_call(lambda: phase_step(state, state.theta, cfg, pot)),
        "stepper.heat_step_ms": 1e3 * _per_call(lambda: heat_step(state, phi, cfg)),
        "grid.laplacian_us": 1e6 * _per_call(lambda: laplacian_neumann(state.phi)),
    }


# --- host speed ------------------------------------------------------------------------

CALIBRATION_REPS = 9000


def calibrate() -> float:
    """Seconds of a fixed loop that needs nothing from fremond.

    It mixes what a 1D step spends its time on: interpreted Python, NumPy
    ufuncs on 64 cells and a tridiagonal solve_banded. The host's speed drifts
    by up to 2x over minutes, and run.py divides it out of the end-to-end
    times with this loop's time; a change to fremond leaves the loop alone.
    """
    import numpy as np
    from scipy.linalg import solve_banded

    ab = np.empty((3, 64))
    ab[0], ab[2] = -1.0, -1.0
    x = np.linspace(0.0, 1.0, 64)
    acc = 0.0
    for reps in (CALIBRATION_REPS // 10, CALIBRATION_REPS):  # the first pass warms caches up
        t0 = time.perf_counter()
        for _ in range(reps):
            y = np.sqrt(x * x + 1.0) - 0.5 * x
            ab[1] = 4.0 + y
            x = solve_banded((1, 1), ab, y)
            acc += sum(float(v) * v for v in range(24)) * 1e-9 + float(x.max())
        elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise SystemExit("calibration loop produced a non-finite value")
    return elapsed


# --- one iteration -------------------------------------------------------------------


def _call_verb(argv: list[str]) -> int:
    from fremond import cli

    try:
        return cli.main(argv)
    except Exception:  # an uncaught error is exit 1 on the command line too
        traceback.print_exc()
        return 1


def iterate(name: str, seed: int, outdir: Path, run, tracer: Tracer | None, calibration_s: list) -> dict:
    """Run the verbs one at a time, timing the calibration loop after each into
    calibration_s, then apply the correctness gate."""
    wl = WORKLOADS[name]
    verb_s, codes = {}, {}
    captured = io.StringIO()
    if tracer:
        tracer.install()
    try:
        for verb in wl.verbs:
            argv = verb_argv(verb, wl, seed, outdir)
            span = tracer.span(f"cli.{verb}") if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(captured), span:
                codes[verb] = _call_verb(argv)
            verb_s[verb] = time.perf_counter() - t0
            calibration_s.append(calibrate())
    finally:
        if tracer:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sims = simulations(name, run)
    obs, failures = gate(name, seed, outdir, captured.getvalue(), codes, sims)
    if failures:
        sys.stderr.write(captured.getvalue())
    simulate_s = verb_s[wl.verbs[0]]
    return {
        "wall_s": sum(verb_s.values()),
        "simulate_s": simulate_s,
        "cell_steps_per_s": sum(s["cells"] * s["steps"] * s["runs"] for s in sims) / simulate_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(wl.verbs),
        "failures": failures,
        "observed": obs,
        "simulations": sims,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--outdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))

    setup_s, run, init = set_up(WORKLOADS[args.workload], args.seed)
    import numpy
    import scipy

    result = {
        "setup_s": setup_s,
        "calibration_s": [calibrate()],
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if args.mode != "setup":
        tracer = Tracer() if args.mode == "trace" else None
        result.update(iterate(args.workload, args.seed, args.outdir, run, tracer, result["calibration_s"]))
        if tracer:
            missing = [s for s in WORKLOADS[args.workload].spans if tracer.count(s) == 0]
            if not tracer.convex:
                missing.append("potential.convex")
            result["missing_spans"] = missing
            if not missing:
                result["step_ms"] = tracer.step_ms
                result["layers"] = {**tracer.layers(args.outdir), **microbenchmarks(run, init)}
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
