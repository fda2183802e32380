"""Command-line entry point.

Verbs (each a thin adapter over one harness/thermo/relenergy call):

  simulate    run a configuration, persist the trajectory and energy series
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
from pathlib import Path

import numpy as np

from . import harness
from .config import load_config
from .errors import ConfigError, FremondError, NonpositiveTemperature, SolverError
from .relenergy import RelEnergyConfig, calibrate_gronwall_multiplier, gronwall_check
from .svg import write_line_chart
from .thermo import (
    TEST_FUNCTIONS,
    energy,
    energy_inequality_check,
    entropy_inequality_check,
    floors_check,
)

_ENERGY_HEADER = [
    "step", "t", "E_total", "E_gradient", "E_potential", "E_thermal",
    "entropy_S", "orlicz", "theta_min", "phi_min",
]


def _outdir_root() -> Path:
    return Path(os.environ.get("FREMOND_OUTDIR", "."))


def _resolve_outdir(arg_outdir, cfg_outdir, default_name: str) -> Path:
    out = arg_outdir or cfg_outdir or default_name
    out = Path(out)
    if not out.is_absolute():
        out = _outdir_root() / out
    return out


def _cmd_simulate(args) -> int:
    run = load_config(args.config, args.override)
    outdir = _resolve_outdir(args.outdir, run.outdir, "fremond_run")
    traj = harness.run_simulation(run)
    harness.write_manifest(outdir, run.sections)
    run_dir = outdir / "run_0"
    harness.persist_trajectory(traj, run_dir)
    rows = []
    for k, s in enumerate(traj):
        r = energy(s, run.potential)
        rows.append((k, s.t, r.E_total, r.E_gradient, r.E_potential, r.E_thermal,
                     r.entropy_S, r.orlicz, r.theta_min, r.phi_min))
    harness.write_csv(run_dir / "energy.csv", _ENERGY_HEADER, rows)
    print(f"simulate: {len(traj)} states written to {run_dir}")
    return 0


def _cmd_check(args) -> int:
    traj, run = harness.load_run_dir(args.run)
    run_dir = harness.resolve_run_dir(args.run)
    failures = []

    def record(name: str, stem: str, table) -> None:
        """Write one check's CSV and note its first failing row."""
        header, rows = table
        harness.write_csv(run_dir / f"{stem}.csv", header, rows)
        bad = next((row for row in rows if not row[-1]), None)
        if bad is not None:
            failures.append(f"{name}: first failing row: {dict(zip(header, bad))}")

    record("energy", "energy_check", energy_inequality_check(traj, run.potential).csv_rows())
    entropy_tol = args.entropy_tol if args.entropy_tol is not None else 100.0 * traj.config.dt
    for tf_name in ("one", "cosine"):
        rep = entropy_inequality_check(traj, TEST_FUNCTIONS[tf_name]())
        record(f"entropy({tf_name})", f"entropy_{tf_name}", rep.csv_rows(tol=entropy_tol))
    floors = floors_check(traj, lam=run.potential.lam, tol=args.floor_tol)
    for which in ("theta", "phi"):
        record(f"floors({which})", f"floors_{which}", floors.csv_rows(which))

    if failures:
        for msg in failures:
            print(msg, file=sys.stderr)
        return 1
    print(f"check: energy, entropy, floors all pass on {len(traj)} states")
    return 0


def _cmd_relenergy(args) -> int:
    traj, run = harness.load_run_dir(args.run)
    ref, _ = harness.load_run_dir(args.ref)
    cfg = RelEnergyConfig(M=args.M, lam=run.potential.lam)
    multiplier = args.multiplier
    if args.calibrate:
        multiplier = calibrate_gronwall_multiplier(traj, ref, cfg, run.potential)
        print(f"calibrated multiplier = {multiplier!r}")
    report = gronwall_check(traj, ref, cfg, run.potential, multiplier=multiplier)
    header, rows = report.csv_rows()
    harness.write_csv(harness.resolve_run_dir(args.run) / "relenergy.csv", header, rows,
                      comment=f"multiplier = {report.multiplier!r}")
    if report.E_rel[0] <= 0.0 and len(report.E_rel) > 1 and float(np.max(report.E_rel)) > 0.0:
        # coinciding initial data but different dynamics (e.g. an eps pair):
        # the envelope degenerates to zero, so the drift is reported, not judged
        print(f"relenergy: E_rel(0) = 0; drift report only, max E_rel {float(np.max(report.E_rel))!r}")
        return 0
    tol = 1e-10 * max(1.0, float(np.max(report.rhs)) if len(report.rhs) else 1.0)
    if report.min_margin < -tol:
        print(f"relenergy: envelope violated, min margin {report.min_margin!r}", file=sys.stderr)
        return 1
    print(f"relenergy: envelope holds (multiplier {report.multiplier!r}), min margin {report.min_margin!r}")
    return 0


def _experiment(args, kind: str):
    run = load_config(args.config, args.override)
    cfg = harness.ExperimentConfig.from_run(run)
    if cfg.kind != kind:
        raise ConfigError(f"config [experiment] kind = {cfg.kind!r}, but verb asks for {kind!r}")
    outdir = _resolve_outdir(args.outdir, run.outdir, f"fremond_{kind}")
    harness.write_manifest(outdir, run.sections)
    return run, cfg, outdir


def _cmd_sweep(args) -> int:
    run, cfg, outdir = _experiment(args, "eps_sweep")
    report = harness.eps_sweep(cfg)
    header, rows = report.summary_rows()
    harness.write_csv(outdir / "summary.csv", header, rows)
    harness.write_csv(
        outdir / "distances.csv",
        ["eps_hi", "eps_lo", "theta_l1", "phi_l1"],
        [
            (cfg.eps_values[i], cfg.eps_values[i + 1], report.theta_distances[i], report.phi_distances[i])
            for i in range(len(report.theta_distances))
        ],
    )
    bad = [r for r in report.rows if r.status != "ok"]
    for r in bad:
        print(f"eps = {r.eps!r}: {r.status}", file=sys.stderr)
    print(f"sweep: {len(report.rows) - len(bad)}/{len(report.rows)} runs ok, summary in {outdir}")
    return 3 if bad else 0


def _cmd_refine(args) -> int:
    run, cfg, outdir = _experiment(args, "refine")
    report = harness.refinement_study(cfg)
    header, rows = report.summary_rows()
    harness.write_csv(outdir / "summary.csv", header, rows)
    print(f"refine[{report.monitor}]: orders in dt {[f'{q:.2f}' for q in report.orders_dt]}, "
          f"in h {[f'{q:.2f}' for q in report.orders_h]}")
    return 0


def _cmd_weakstrong(args) -> int:
    run, cfg, outdir = _experiment(args, "weak_strong")
    report = harness.weak_strong_experiment(cfg)
    header, rows = report.summary_rows()
    harness.write_csv(outdir / "summary.csv", header, rows)
    print(f"weakstrong: multiplier {report.multiplier!r}, ratio spread {report.ratios_spread:.3g}, "
          f"xi_max {max(report.xi_max):.3g}")
    ok = report.zero_delta_pass and report.envelope_pass
    if not ok:
        print("weakstrong: delta=0 regression or envelope check failed", file=sys.stderr)
    return 0 if ok else 1


def _cmd_plot(args) -> int:
    run_dir = harness.resolve_run_dir(args.run)
    outdir = Path(args.outdir) if args.outdir else run_dir
    outdir.mkdir(parents=True, exist_ok=True)
    made = []
    if (run_dir / "energy.csv").exists():
        cols = harness.read_csv_columns(run_dir / "energy.csv")
        write_line_chart(
            outdir / "energy.svg",
            [("E_total", cols["t"], cols["E_total"]),
             ("E_thermal", cols["t"], cols["E_thermal"]),
             ("E_gradient", cols["t"], cols["E_gradient"])],
            title="energy", xlabel="t", ylabel="E",
        )
        made.append("energy.svg")
    if (run_dir / "floors_theta.csv").exists():
        cols = harness.read_csv_columns(run_dir / "floors_theta.csv")
        floor = [v - m for v, m in zip(cols["value"], cols["margin"])]
        write_line_chart(
            outdir / "floors.svg",
            [("theta_min", cols["t"], cols["value"]), ("floor h(t)", cols["t"], floor)],
            title="temperature minimum vs floor", xlabel="t", ylabel="theta",
        )
        made.append("floors.svg")
    if (run_dir / "relenergy.csv").exists():
        cols = harness.read_csv_columns(run_dir / "relenergy.csv")
        write_line_chart(
            outdir / "relenergy.svg",
            [("E_rel", cols["t"], cols["E_rel"]),
             ("lhs", cols["t"], cols["lhs"]),
             ("envelope rhs", cols["t"], cols["rhs"])],
            title="relative energy vs Gronwall envelope", xlabel="t", ylabel="E_rel",
        )
        made.append("relenergy.svg")
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

    p = sub.add_parser("check", help="thermodynamic checks on a persisted run")
    p.add_argument("--run", required=True, help="run directory (with index.csv or run_0/)")
    p.add_argument("--entropy-tol", type=float, default=None,
                   help="entropy margin tolerance (default 100*dt)")
    p.add_argument("--floor-tol", type=float, default=1e-10)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("relenergy", help="relative-energy suite on two persisted runs")
    p.add_argument("--run", required=True, help="trajectory under test")
    p.add_argument("--ref", required=True, help="reference (strong) trajectory")
    p.add_argument("--M", type=float, default=10.0)
    p.add_argument("--multiplier", type=float, default=1.0)
    p.add_argument("--calibrate", action="store_true", help="fit the envelope multiplier first")
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


if __name__ == "__main__":
    sys.exit(main())
