"""Command-line entry point.

Verbs (each a thin adapter over one harness/thermo/relenergy call):

  simulate    run a configuration, persist the trajectory and energy series
              (a failed run persists its good states and run_0/failure.txt)
  check       energy/entropy/floor checks on a persisted run directory
  relenergy   relative-energy and Gronwall-envelope suite on two run dirs
  sweep       eps sweep experiment
  refine      grid/time refinement study
  weakstrong  weak-strong perturbation experiment
  plot        SVG line charts from the CSVs in a run directory

Exit codes: 0 success, 1 a checked inequality failed, 2 configuration error,
3 solver failure (the failing step index is reported). The environment
variable FREMOND_OUTDIR provides the default output root.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import closing
from functools import cache
from pathlib import Path

import numpy as np

from . import harness
from .config import format_value, load_config
from .errors import ConfigError, FremondError, NonpositiveTemperature, SimulationAborted, SolverError
from .relenergy import RelEnergyConfig, envelope_holds, fit_gronwall_multiplier, gronwall_check, require_comparable
from .svg import write_line_chart
from .thermo import (
    TEST_FUNCTIONS,
    energy,
    energy_inequality_check,
    entropy_inequality_check,
    floors_check,
)


def _resolve_outdir(arg_outdir, cfg_outdir, default_name: str) -> Path:
    """The first of the three that is set; a relative path lies under $FREMOND_OUTDIR (default .)."""
    out = Path(arg_outdir or cfg_outdir or default_name)
    return out if out.is_absolute() else Path(os.environ.get("FREMOND_OUTDIR", ".")) / out


def _cmd_simulate(args) -> int:
    run = load_config(args.config, args.override)
    outdir = _resolve_outdir(args.outdir, run.outdir, "fremond_run")
    run_dir = outdir / "run_0"
    with closing(harness.TrajectoryWriter(outdir, run, energy)) as writer:  # it persists each segment as it comes
        try:
            harness.run_simulation(run, writer)
            failure = None
        except SimulationAborted as exc:  # its good states are persisted as a success's would be
            failure = exc
    series = writer.series()  # the energy report's fields in order, t first
    steps = np.arange(len(series["t"]))
    harness.write_csv(run_dir / "index.csv", ["step", "t"], [steps, series["t"]])
    harness.write_csv(run_dir / "energy.csv", ["step", *series], [steps, *series.values()])
    if failure is not None:
        (run_dir / "failure.txt").write_text(f"solver error: {failure}\n")  # the line ``main`` prints
        raise failure
    print(f"simulate: {len(steps)} states written to {run_dir}")
    return 0


def _cmd_check(args) -> int:
    traj, run = harness.load_run_dir(args.run)
    run_dir = harness.resolve_run_dir(args.run)
    failures = []

    def record(name: str, stem: str, table) -> None:
        """Write one check's CSV and note its first failing row, the first False in its pass column."""
        header, columns = table
        harness.write_csv(run_dir / f"{stem}.csv", header, columns)
        bad = np.flatnonzero(~columns[-1])
        if len(bad):
            cells = ", ".join(f"{key}={format_value(col[bad[0]])}" for key, col in zip(header, columns))
            failures.append(f"{name}: first failing row: {cells}")

    record("energy", "energy_check", energy_inequality_check(traj, run.potential).csv_columns())
    for tf_name in ("one", "cosine"):
        rep = entropy_inequality_check(traj, TEST_FUNCTIONS[tf_name])
        record(f"entropy({tf_name})", f"entropy_{tf_name}", rep.csv_columns())
    floors = floors_check(traj, lam=run.potential.lam)
    for which in ("theta", "phi"):
        record(f"floors({which})", f"floors_{which}", floors.csv_columns(which))

    if failures:
        for msg in failures:
            print(msg, file=sys.stderr)
        return 1
    print(f"check: energy, entropy, floors all pass on {len(traj)} states")
    return 0


def _cmd_relenergy(args) -> int:
    traj, run = harness.load_run_dir(args.run)
    ref, ref_run = harness.load_run_dir(args.ref)
    try:
        require_comparable(traj, ref, run.potential, ref_run.potential)
    except ValueError as exc:
        raise ConfigError(f"runs {args.run} and {args.ref} cannot be compared: {exc}") from exc
    report = gronwall_check(traj, ref, RelEnergyConfig(M=args.M, lam=run.potential.lam), run.potential)
    multiplier = 1.0
    if args.calibrate:
        multiplier = fit_gronwall_multiplier([report])
        print(f"calibrated multiplier = {multiplier!r}")
    harness.write_csv(harness.resolve_run_dir(args.run) / "relenergy.csv", *report.csv_columns(multiplier),
                      comment=f"multiplier = {multiplier!r}")
    if report.report_only:
        print(f"relenergy: E_rel(0) = 0; drift report only, max E_rel {float(np.max(report.E_rel))!r}")
        return 0
    margin = report.min_step_margin(multiplier)
    if not envelope_holds(margin, energy(ref[0], ref_run.potential).E_total):
        print(f"relenergy: envelope violated, min margin {margin!r}", file=sys.stderr)
        return 1
    print(f"relenergy: envelope holds (multiplier {multiplier!r}), min margin {margin!r}")
    return 0


def _experiment(args, kind: str, driver):
    run = load_config(args.config, args.override)
    cfg = harness.ExperimentConfig.from_run(run)
    if cfg.kind != kind:
        raise ConfigError(f"config [experiment] kind = {cfg.kind!r}, but verb asks for {kind!r}")
    outdir = _resolve_outdir(args.outdir, run.outdir, f"fremond_{kind}")
    report = driver(cfg)
    harness.write_manifest(outdir, run.sections)  # once the driver returns, so that a config error writes nothing
    return cfg, outdir, report


def _cmd_sweep(args) -> int:
    cfg, outdir, report = _experiment(args, "eps_sweep", harness.eps_sweep)
    harness.write_csv(outdir / "summary.csv", *report.summary_columns())
    harness.write_csv(outdir / "distances.csv", ["eps_hi", "eps_lo", "theta_l1", "phi_l1"],
                      [cfg.eps_values[:-1], cfg.eps_values[1:], report.theta_distances, report.phi_distances])
    bad = [r for r in report.rows if r.status != "ok"]
    for r in bad:
        print(f"eps = {r.eps!r}: {r.status}", file=sys.stderr)
    print(f"sweep: {len(report.rows) - len(bad)}/{len(report.rows)} runs ok, summary in {outdir}")
    return 3 if bad else 0


def _cmd_refine(args) -> int:
    _, outdir, report = _experiment(args, "refine", harness.refinement_study)
    harness.write_csv(outdir / "summary.csv", *report.summary_columns())
    print(f"refine[{report.monitor}]: orders in dt {[f'{q:.2f}' for q in report.orders_dt]}, "
          f"in h {[f'{q:.2f}' for q in report.orders_h]}")
    return 0


def _cmd_weakstrong(args) -> int:
    _, outdir, report = _experiment(args, "weak_strong", harness.weak_strong_experiment)
    harness.write_csv(outdir / "summary.csv", *report.summary_columns())
    print(f"weakstrong: multiplier {report.multiplier!r}, ratio spread {report.ratios_spread:.3g}, "
          f"xi_max {max(report.xi_max):.3g}")
    ok = report.zero_delta_pass and report.envelope_pass
    if not ok:
        print("weakstrong: delta=0 regression or envelope check failed", file=sys.stderr)
    return 0 if ok else 1


# plot's charts: (CSV, SVG, title, y label, lines); a line is (label, column,
# column subtracted or None), so the floor line is value - margin
_CHARTS = (
    ("energy.csv", "energy.svg", "energy", "E",
     (("E_total", "E_total", None), ("E_thermal", "E_thermal", None), ("E_gradient", "E_gradient", None))),
    ("floors_theta.csv", "floors.svg", "temperature minimum vs floor", "theta",
     (("theta_min", "value", None), ("floor h(t)", "value", "margin"))),
    ("relenergy.csv", "relenergy.svg", "relative energy vs Gronwall envelope", "E_rel",
     (("E_rel", "E_rel", None), ("lhs", "lhs", None), ("envelope rhs", "rhs", None))),
)


def _cmd_plot(args) -> int:
    run_dir = harness.resolve_run_dir(args.run)
    outdir = Path(args.outdir) if args.outdir else run_dir
    made = []
    for csv_name, svg, title, ylabel, lines in _CHARTS:
        if not (run_dir / csv_name).exists():
            continue
        needed = dict.fromkeys(c for _, name, sub in lines for c in (name, sub) if c is not None)  # once each
        cols = harness.read_csv_columns(run_dir / csv_name, "t", *needed)
        outdir.mkdir(parents=True, exist_ok=True)  # only once a chart is to be written
        write_line_chart(
            outdir / svg,
            [(label, cols["t"], cols[name] if sub is None else [v - m for v, m in zip(cols[name], cols[sub])])
             for label, name, sub in lines],
            title=title, xlabel="t", ylabel=ylabel,
        )
        made.append(svg)
    if not made:
        print(f"plot: no known CSVs in {run_dir}", file=sys.stderr)
        return 2
    print(f"plot: wrote {', '.join(made)} to {outdir}")
    return 0


_CONFIG_EPILOG = """\
configuration files are flat `key = value` entries under [section] headers
([grid], [scheme], [potential], [initial], [run], [experiment]); values parse
as ints, floats, true/false, [bracketed, lists], or strings, and '#' starts a
comment. Full grammar: docs/config.md. Example:

  [grid]
  n = 64                    # cells; h = extent / n
  [scheme]
  dt = 1.220703125e-4       # h^2/2
  [potential]
  potential = double_well   # or [c0, c1, ...]
  lambda = 4.0
  [initial]
  preset = cosine_bump      # uniform | cosine_bump | random_smooth | steady | snapshot
  [run]
  t_end = 0.25
"""


@cache  # once per process: parsing leaves the parser as it was, and in-process callers of main are many
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fremond",
        description=__doc__,
        epilog=_CONFIG_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_config_opts(p):
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--override", action="append", default=[], metavar="SEC.KEY=VAL",
                       help="override a config entry (repeatable)")
        p.add_argument("--outdir", default=None, help="output directory")

    p = sub.add_parser("simulate", help="run a configuration and persist the trajectory")
    add_config_opts(p)
    p.set_defaults(fn=_cmd_simulate)

    text = ("thermodynamic checks on a persisted run (a row fails when E(t) > E(0) + 1e-4*|E(0)|, "
            "an entropy margin < -100*dt, or a minimum > 1e-10 below its floor)")
    p = sub.add_parser("check", help=text, description=text)
    p.add_argument("--run", required=True, help="run directory (with index.csv or run_0/)")
    p.set_defaults(fn=_cmd_check)

    text = ("relative-energy suite on two persisted runs (the envelope holds when its smallest margin "
            "after t = 0 is >= -1e-12*max(1, E_ref(0)), E_ref(0) the reference's initial total energy)")
    p = sub.add_parser("relenergy", help=text, description=text)
    p.add_argument("--run", required=True, help="trajectory under test")
    p.add_argument("--ref", required=True, help="reference (strong) trajectory")
    p.add_argument("--M", type=float, default=RelEnergyConfig.M)
    p.add_argument("--calibrate", action="store_true", help="judge at the multiplier fitted on this pair, not at 1")
    p.set_defaults(fn=_cmd_relenergy)

    for verb, fn, kind in (
        ("sweep", _cmd_sweep, "eps_sweep"),
        ("refine", _cmd_refine, "refine"),
        ("weakstrong", _cmd_weakstrong, "weak_strong"),
    ):
        p = sub.add_parser(verb, help=f"{kind} experiment")
        add_config_opts(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("plot", help="SVG charts from run CSVs")
    p.add_argument("--run", required=True)
    p.add_argument("--outdir", default=None)
    p.set_defaults(fn=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        with np.errstate(all="ignore"):  # every non-finite result is caught and given an exit code
            return args.fn(args)
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except NonpositiveTemperature as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FremondError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: the input does not fit in memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
