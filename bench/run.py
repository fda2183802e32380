"""Benchmark of the fremond command-line verbs on three seeded workloads.

usage: python3 bench/run.py [--workload cosine1d|box2d|weakstrong|all]
                            [--seed N] [--seconds S] [--trace 0|1]

Each iteration is a fresh Python process (bench/workload.py) that sets up,
runs the workload's verb sequence one verb at a time and checks the outputs.
Iterations repeat, one after another, until the next one would end after
--seconds. With --trace 0 the command prints the end-to-end metrics (medians
over the iterations); with --trace 1 it runs one untraced iteration and then
traced ones until at least 20 steps were timed, and prints the per-layer
metrics. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
verb exited 0 and every output passed the correctness gate. See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import BENCH, ROOT, SRC, WORKLOADS

END_TO_END = {
    "wall_s": "s",
    "simulate_s": "s",
    "cell_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "stepper.step_ms.p50": "ms",
    "stepper.step_ms.tail": "ms",
    "stepper.steps": "count",
    "stepper.step_s": "s",
    "stepper.picard_per_step": "count",
    "stepper.phase_step_ms": "ms",
    "stepper.heat_step_ms": "ms",
    "potential.convex_calls_per_step.order1": "count",
    "potential.convex_calls_per_step.order2": "count",
    "grid.laplacian_us": "us",
    "grid.read_snapshots_s": "s",
    "grid.read_snapshots_calls": "count",
    "harness.persist_s": "s",
    "harness.persist_bytes": "B",
    "harness.persist_files": "count",
    "harness.load_run_dir_s": "s",
    "thermo.energy_series_s": "s",
    "thermo.energy_check_s": "s",
    "thermo.entropy_check_s": "s",
    "thermo.floors_check_s": "s",
    "relenergy.gronwall_check_s": "s",
    "relenergy.gronwall_check_calls": "count",
    "relenergy.xi_monitor_s": "s",
    "relenergy.xi_monitor_calls": "count",
    "config.load_config_ms": "ms",
    "cli.simulate_s": "s",
    "cli.check_s": "s",
    "cli.weakstrong_s": "s",
    "cli.simulate_self_s": "s",
    "cli.check_self_s": "s",
    "cli.weakstrong_self_s": "s",
    "trace.overhead_s": "s",
}

SETUP_PROBES = 5        # set-up-only processes per run, besides each iteration's own set-up
# Time of workload.calibrate() on a shared 2-vCPU Intel Xeon host in its fast
# phase. End-to-end times are reported as they would read at this host speed.
CALIBRATION_REFERENCE_S = 0.29
TAIL_MIN_STEPS = 20     # so that p50 has at least ten step samples beyond it
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    # numerical libraries start at most one thread per core
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, str(os.cpu_count() or 1))
    return env


def child(mode: str, name: str, seed: int, work: Path) -> tuple[dict, float]:
    """Run one workload process; its result and its wall time in seconds."""
    out, res = work / "out", work / "result.json"
    shutil.rmtree(out, ignore_errors=True)
    res.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "workload.py"), "--mode", mode, "--workload", name,
           "--seed", str(seed), "--outdir", str(out), "--result", str(res)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0 or not res.exists():
        sys.stderr.write(proc.stdout + proc.stderr)
        raise BenchError(f"{name}: {mode} process exited with code {proc.returncode}")
    result = json.loads(res.read_text())
    if result.get("failures"):
        sys.stderr.write(proc.stderr)
    return result, elapsed


def _iterations(mode: str, name: str, seed: int, seconds: float, work: Path) -> list[dict]:
    """Closed loop: start the next iteration only if it should end within `seconds`."""
    results = []
    start = time.perf_counter()
    while True:
        result, took = child(mode, name, seed, work)
        results.append(result)
        if time.perf_counter() - start + took > seconds:
            return results


def percentile(s: list[float], q: float) -> float:
    """Nearest-rank percentile of the sorted samples s."""
    return s[math.ceil(q / 100.0 * len(s)) - 1]


def tail_percentile(s: list[float]) -> float:
    """Highest of p99.9, p99, p90 and p50 with at least ten of the sorted samples s
    beyond it; p50 always has, since at least TAIL_MIN_STEPS samples are taken."""
    for q in (99.9, 99.0, 90.0):
        if len(s) - math.ceil(q / 100.0 * len(s)) >= 10:
            return q
    return 50.0


def _median(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def slowdown(calibration_s: list[float]) -> float:
    """How much slower than the reference speed the host ran: the mean time of
    the given calibration loops over CALIBRATION_REFERENCE_S."""
    return statistics.fmean(calibration_s) / CALIBRATION_REFERENCE_S


def at_reference_speed(key: str, result: dict) -> float:
    """One process's end-to-end value as it would read at the reference speed.

    A process times the calibration loop after set-up and after each verb, so
    each value is scaled by the loops that bracket it: set-up by the first,
    the producing verb by the first two, the whole verb sequence by all."""
    value, unit, cal = result[key], END_TO_END[key], result["calibration_s"]
    s = slowdown({"setup_s": cal[:1], "simulate_s": cal[:2], "cell_steps_per_s": cal[:2]}.get(key, cal))
    return value / s if unit == "s" else value * s if unit == "1/s" else value


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    child("setup", name, seed, work)  # warm-up: byte-compiles the package and fills the page cache
    if not trace:
        runs = _iterations("run", name, seed, seconds, work)
        setups = runs + [child("setup", name, seed, work)[0] for _ in range(SETUP_PROBES)]
        metrics = {k: statistics.median(at_reference_speed(k, r) for r in (setups if k == "setup_s" else runs))
                   for k in END_TO_END}
        measured = {k: statistics.median(r[k] for r in (setups if k == "setup_s" else runs)) for k in END_TO_END}
        extra = {"setup_samples": len(setups), "slowdown": statistics.median(slowdown(r["calibration_s"]) for r in setups),
                 "measured": measured}
    else:
        untraced, _ = child("run", name, seed, work)
        traced = []
        while sum(len(r["step_ms"]) for r in traced) < TAIL_MIN_STEPS:
            result, _ = child("trace", name, seed, work)
            if result["missing_spans"]:
                raise BenchError(f"{name}: traced spans recorded no calls: {', '.join(result['missing_spans'])}")
            traced.append(result)
        runs = [untraced] + traced
        step_ms = sorted(x for r in traced for x in r["step_ms"])
        q = tail_percentile(step_ms)
        metrics = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        metrics.update({
            "stepper.step_ms.p50": percentile(step_ms, 50.0),
            "stepper.step_ms.tail": percentile(step_ms, q),
            "stepper.steps": len(step_ms),
            "trace.overhead_s": _median(traced, "wall_s") - untraced["wall_s"],
        })
        metrics = {k: metrics[k] for k in PER_LAYER}
        extra = {"tail_percentile": q, "traced_iterations": len(traced)}
    failures = [(verb, msg) for r in runs for verb, msg in r["failures"]]
    return {
        "metrics": metrics,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(len({verb for verb, _ in r["failures"]}) for r in runs),
        "failures": failures,
        "provenance": {
            "workload": name,
            "seed": seed,
            "iterations": len(runs),
            **extra,
            "simulations": runs[0]["simulations"],
            "versions": runs[0]["versions"],
        },
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read without running git; None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def report(res: dict, units: dict) -> None:
    prov = res["provenance"]
    print(f"{prov['workload']} (seed {prov['seed']}, {prov['iterations']} iterations)")
    measured = prov.get("measured")
    if measured:
        print(f"  host slowdown {prov['slowdown']:.4g} against the reference speed; "
              "metrics at reference speed (measured)")
    for key, value in res["metrics"].items():
        raw = f" ({measured[key]:.6g})" if measured else ""
        print(f"  {key:<40} {value:.6g}{raw} {units[key]}")
    rate = res["failed"] / res["attempted"]
    print(f"  {'error_rate':<40} {rate:.6g} ({res['failed']}/{res['attempted']} verb invocations failed)")
    for verb, msg in res["failures"]:
        print(f"error: {prov['workload']}: {verb}: {msg}", file=sys.stderr)


def _exit_on_signal(signum, frame):
    # unwinds through subprocess.run, which kills and reaps the running child
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_signal)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in [SRC / "fremond" / "__init__.py", *(ROOT / w.config for w in WORKLOADS.values())]
               if not p.is_file()]
    if missing:
        print(f"error: not a fremond checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    work = BENCH / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace), work)
            report(results[name], units)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    provenance = {"nproc": os.cpu_count(), "commit": git_commit(), "seconds": args.seconds,
                  "workloads": [r["provenance"] for r in results.values()]}
    print("provenance " + json.dumps(provenance))
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k.split(".", 1)[1] if len(names) > 1 else k]}
                    for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
