"""Reproducible experiment drivers and on-disk persistence.

Experiments are deterministic: the same resolved configuration (and seed,
where randomness is involved) yields byte-identical output files. Every
experiment directory carries a manifest.txt echoing the full resolved
configuration in the run-config grammar, so any output tree can be re-run.

Output tree:
    <outdir>/manifest.txt
    <outdir>/run_<k>/state_<n>.field     two snapshot records per file
                                         (temperature first, then phase)
    <outdir>/run_<k>/index.csv           step,t,file
    <outdir>/run_<k>/<check>.csv         written by the check drivers
    <outdir>/summary.csv                 one row per experiment member
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import RunConfig, build_run_config, coerce, parse_config_text, render_config
from .errors import ConfigError, SimulationAborted
from .grid import Field, Grid, norm, read_snapshots, _write_record
from .potential import Potential
from .relenergy import RelEnergyConfig, first_exceedance, fit_gronwall_multiplier, gronwall_check, xi_monitor
from .stepper import (
    SchemeConfig,
    State,
    Trajectory,
    heat_step,
    initial_state,
    march,
    simulate,
)
from .thermo import TEST_FUNCTIONS, energy, energy_inequality_check, entropy_inequality_check

__all__ = [
    "ExperimentConfig",
    "make_initial",
    "run_simulation",
    "frozen_phase_run",
    "closed_form_uniform_theta",
    "manufactured_heat_test",
    "eps_sweep",
    "refinement_study",
    "weak_strong_experiment",
    "persist_trajectory",
    "resolve_run_dir",
    "load_run_dir",
    "write_csv",
    "read_csv",
    "read_csv_columns",
    "write_manifest",
]


# --- initial data presets ----------------------------------------------------


def _random_smooth_mode(grid: Grid, seed: int, modes: int = 4) -> np.ndarray:
    """Low-frequency cosine series with seeded coefficients, sup-normalized to 1."""
    rng = np.random.default_rng(seed)
    out = np.zeros(grid.shape)
    if grid.dim == 1:
        (x,) = grid.meshgrid()
        for k in range(1, modes + 1):
            out += rng.uniform(-1.0, 1.0) / k**2 * np.cos(np.pi * k * x / grid.extent[0])
    else:
        X, Y = grid.meshgrid()
        for k in range(1, modes + 1):
            for m in range(1, modes + 1):
                c = rng.uniform(-1.0, 1.0) / (k**2 + m**2)
                out += c * np.cos(np.pi * k * X / grid.extent[0]) * np.cos(np.pi * m * Y / grid.extent[1])
    peak = np.max(np.abs(out))
    return out / peak if peak > 0 else out


def make_initial(grid: Grid, potential: Potential, params: dict) -> State:
    """Build the initial state from an [initial] config block."""
    def num(key: str, default: float, kind=float):
        return coerce(params.get(key, default), kind, f"initial.{key}")

    preset = params.get("preset", "uniform")
    phi_t_mode = params.get("phi_t", "zero")
    if preset == "uniform":
        theta = Field.full(grid, num("theta0", 1.0))
        phi = Field.full(grid, num("phi0", 0.0))
    elif preset == "cosine_bump":
        mode = grid.cosine_mode()
        theta = Field(grid, num("theta_base", 1.0) + num("theta_amp", 0.2) * mode)
        phi = Field(grid, num("phi_base", 0.0) + num("phi_amp", 0.3) * mode)
    elif preset == "random_smooth":
        seed = num("seed", 0, int)
        tmode = _random_smooth_mode(grid, seed)
        pmode = _random_smooth_mode(grid, seed + 1)
        theta = Field(grid, num("theta_base", 1.0) + num("theta_amp", 0.2) * tmode)
        phi = Field(grid, num("phi_base", 0.0) + num("phi_amp", 0.3) * pmode)
    elif preset == "steady":
        phi_star = num("phi_star", 1.1)
        theta_star = potential.eval(phi_star, 1)
        if theta_star <= 0:
            raise ConfigError(f"steady preset needs F'(phi_star) > 0, got {theta_star:.3g}")
        theta = Field.full(grid, theta_star)
        phi = Field.full(grid, phi_star)
    elif preset == "snapshot":
        from .grid import read_snapshot

        theta, _ = read_snapshot(params["theta_file"])
        phi, _ = read_snapshot(params["phi_file"])
        if theta.grid.n != grid.n:
            raise ConfigError("snapshot does not match the configured grid")
    else:
        raise ConfigError(f"unknown initial preset {preset!r}")
    if theta.min() <= 0:
        raise ConfigError(f"initial temperature must be positive, min = {theta.min():.3g}")
    return initial_state(grid, theta, phi, phi_t_mode=phi_t_mode, potential=potential)


def run_simulation(run: RunConfig) -> Trajectory:
    init = make_initial(run.grid, run.potential, run.initial)
    return simulate(init, run.scheme, run.potential, run.t_end)


# --- frozen-phase drivers (heat equation in isolation) ------------------------


def frozen_phase_run(init: State, cfg: SchemeConfig, t_end: float) -> Trajectory:
    """March the heat update alone, with the phase field held fixed (d = 0)."""
    def advance(s: State) -> State:
        return State(s.t + cfg.dt, heat_step(s, s.phi, cfg), s.phi, Field.zeros(s.grid))

    return march(init, cfg, t_end, advance)


def closed_form_uniform_theta(t: float, theta0: float, eps: float, p: float) -> float:
    """Exact solution of theta' = -eps theta^p from uniform positive data."""
    return (theta0 ** (1.0 - p) + eps * (p - 1.0) * t) ** (1.0 / (1.0 - p))


# --- experiments ---------------------------------------------------------------


@dataclass
class ExperimentConfig:
    run: RunConfig
    kind: str
    eps_values: list[float] = field(default_factory=list)
    levels: list[int] = field(default_factory=list)
    deltas: list[float] = field(default_factory=list)
    monitor: str = "manufactured_error"
    theta_mean: float = 2.0
    amplitude: float = 0.5
    M: float = 10.0
    xi_ceiling: float = 1e3

    @classmethod
    def from_run(cls, run: RunConfig) -> "ExperimentConfig":
        ex = run.experiment
        if not ex or "kind" not in ex:
            raise ConfigError("config has no [experiment] section with a kind")

        def get(key: str, default, kind=float, many=False):
            return coerce(ex.get(key, default), kind, f"experiment.{key}", many)

        return cls(
            run=run,
            kind=str(ex["kind"]),
            eps_values=get("eps_values", [], many=True),
            levels=get("levels", [], int, many=True),
            deltas=get("deltas", [], many=True),
            monitor=str(ex.get("monitor", "manufactured_error")),
            theta_mean=get("theta_mean", 2.0),
            amplitude=get("amplitude", 0.5),
            M=get("M", 10.0),
            xi_ceiling=get("xi_ceiling", 1e3),
        )


@dataclass
class ManufacturedResult:
    n: int
    dt: float
    l2_error: float


def manufactured_heat_test(
    n: int = 64,
    kappa: float = 1.0,
    t_end: float = 0.1,
    theta_mean: float = 2.0,
    amplitude: float = 0.5,
    dt: float | None = None,
) -> ManufacturedResult:
    """Heat equation in isolation against the separable exact solution
    theta(x,t) = mean + a e^{-kappa pi^2 t} cos(pi x) on the unit interval."""
    if not 0 < amplitude < theta_mean:
        raise ConfigError("need theta_mean > amplitude > 0 for positivity")
    grid = Grid.line(n)
    h = grid.h[0]
    dt = h * h if dt is None else dt
    # t_end must be an integer number of steps; shave the remainder
    n_steps = max(1, int(round(t_end / dt)))
    t_end = n_steps * dt
    (x,) = grid.meshgrid()
    theta0 = Field(grid, theta_mean + amplitude * np.cos(np.pi * x))
    cfg = SchemeConfig(dt=dt, kappa=kappa, epsilon=0.0)
    init = initial_state(grid, theta0, Field.zeros(grid))
    traj = frozen_phase_run(init, cfg, t_end)
    exact = theta_mean + amplitude * math.exp(-kappa * math.pi**2 * t_end) * np.cos(np.pi * x)
    err = norm(Field(grid, traj[-1].theta.values - exact), "L2")
    return ManufacturedResult(n=n, dt=dt, l2_error=err)


def _observed_orders(values: list[float], steps: list[float]) -> list[float]:
    """Richardson exponents between consecutive levels: value ~ C step^q."""
    orders = []
    for i in range(len(values) - 1):
        v0, v1 = values[i], values[i + 1]
        if v0 <= 0 or v1 <= 0:
            orders.append(float("inf"))
            continue
        orders.append(math.log(v0 / v1) / math.log(steps[i] / steps[i + 1]))
    return orders


@dataclass
class EpsSweepRow:
    eps: float
    status: str
    E_final: float
    entropy_min_margin: float
    reg_dissipation: float     # eps * || theta ||_p^p over space-time


@dataclass
class EpsSweepReport:
    rows: list[EpsSweepRow]
    theta_distances: list[float]   # L1 distance of final temperatures, consecutive eps
    phi_distances: list[float]

    def summary_rows(self):
        header = ["eps", "status", "E_final", "entropy_min_margin", "reg_dissipation"]
        return header, [(r.eps, r.status, r.E_final, r.entropy_min_margin, r.reg_dissipation) for r in self.rows]


def eps_sweep(cfg: ExperimentConfig) -> EpsSweepReport:
    """Run the base configuration across a decreasing list of eps values.

    Records the regularization dissipation eps ||theta||_p^p, the final
    energy and the entropy margin per eps, plus the Cauchy diagnostics
    (L1 distances of consecutive final states) for the eps -> 0 limit.
    Solver failures are recorded per eps and do not stop the sweep.
    """
    eps_values = cfg.eps_values
    if len(eps_values) < 2:
        raise ConfigError("eps sweep needs at least two eps values")
    if any(e <= 0 for e in eps_values) or any(b >= a for a, b in zip(eps_values, eps_values[1:])):
        raise ConfigError("eps values must be positive and strictly decreasing")
    run = cfg.run
    rows, finals = [], []
    for eps in eps_values:
        scheme = run.scheme.with_(epsilon=eps)
        init = make_initial(run.grid, run.potential, run.initial)
        try:
            traj = simulate(init, scheme, run.potential, run.t_end)
        except SimulationAborted as exc:
            rows.append(EpsSweepRow(eps, f"failed at step {exc.step_index}: {exc.cause}", math.nan, math.nan, math.nan))
            finals.append(None)
            continue
        echeck = energy_inequality_check(traj, run.potential)
        ent = entropy_inequality_check(traj, TEST_FUNCTIONS["one"]())
        rows.append(
            EpsSweepRow(eps, "ok", float(echeck.energies[-1]), ent.min_margin, float(echeck.reg_cumulative[-1]))
        )
        finals.append(traj[-1])
    theta_d, phi_d = [], []
    for a, b in zip(finals, finals[1:]):
        if a is None or b is None:
            theta_d.append(math.nan)
            phi_d.append(math.nan)
        else:
            theta_d.append(norm(Field(a.grid, a.theta.values - b.theta.values), "L1"))
            phi_d.append(norm(Field(a.grid, a.phi.values - b.phi.values), "L1"))
    return EpsSweepReport(rows, theta_d, phi_d)


@dataclass
class RefinementReport:
    monitor: str
    levels: list[tuple[int, float, float]]   # (n, dt, monitored value)
    orders_dt: list[float]
    orders_h: list[float]

    def summary_rows(self):
        header = ["n", "dt", "value"]
        return header, [(n, dt, v) for n, dt, v in self.levels]


def refinement_study(cfg: ExperimentConfig) -> RefinementReport:
    """Observed convergence orders under simultaneous (h, dt) refinement,
    dt scaled with h^2 so the first-order time error stays subordinate."""
    levels = cfg.levels
    if len(levels) < 3:
        raise ConfigError("refinement study needs at least three levels")
    run = cfg.run
    n0 = run.grid.n[0]
    values, dts = [], []
    for n in levels:
        scale = (n0 / n) ** 2
        dt = run.scheme.dt * scale
        if cfg.monitor == "manufactured_error":
            res = manufactured_heat_test(
                n=n, kappa=run.scheme.kappa, t_end=run.t_end or 0.1,
                theta_mean=cfg.theta_mean, amplitude=cfg.amplitude, dt=dt,
            )
            values.append(res.l2_error)
        else:
            grid = Grid((n,) * run.grid.dim, run.grid.extent)
            scheme = run.scheme.with_(dt=dt)
            init = make_initial(grid, run.potential, run.initial)
            traj = simulate(init, scheme, run.potential, run.t_end)
            if cfg.monitor == "energy_margin":
                echeck = energy_inequality_check(traj, run.potential)
                values.append(float(np.max(np.abs(echeck.margins))))
            elif cfg.monitor == "entropy_margin":
                ent = entropy_inequality_check(traj, TEST_FUNCTIONS["one"]())
                values.append(max(0.0, -ent.min_margin))
            else:
                raise ConfigError(f"unknown monitor {cfg.monitor!r}")
        dts.append(dt)
    hs = [1.0 / n for n in levels]
    return RefinementReport(
        monitor=cfg.monitor,
        levels=[(n, dt, v) for n, dt, v in zip(levels, dts, values)],
        orders_dt=_observed_orders(values, dts),
        orders_h=_observed_orders(values, hs),
    )


@dataclass
class WeakStrongRow:
    level: int
    n: int
    delta: float
    E_rel_max: float
    E_rel_final: float
    min_gronwall_margin: float
    ratio: float                 # E_rel(T) / delta^2, nan for delta = 0


@dataclass
class WeakStrongReport:
    multiplier: float
    rows: list[WeakStrongRow]
    xi_max: list[float]          # per level, along the reference
    xi_exceeded: list[int | None]  # first step past the xi ceiling, None if regular
    zero_delta_scale: float      # tolerance scale for the delta=0 regression
    ratios_spread: float         # max/min of E_rel(T)/delta^2 on the finest level

    @property
    def zero_delta_pass(self) -> bool:
        zs = [r.E_rel_max for r in self.rows if r.delta == 0.0]
        return all(z <= 1e-12 * self.zero_delta_scale for z in zs)

    @property
    def envelope_pass(self) -> bool:
        tol = 1e-12 * max(1.0, self.zero_delta_scale)
        return all(r.min_gronwall_margin >= -tol for r in self.rows if r.delta > 0.0)

    def summary_rows(self):
        header = ["level", "n", "delta", "E_rel_max", "E_rel_final", "min_margin", "ratio"]
        return header, [
            (r.level, r.n, r.delta, r.E_rel_max, r.E_rel_final, r.min_gronwall_margin, r.ratio)
            for r in self.rows
        ]


def weak_strong_experiment(cfg: ExperimentConfig) -> WeakStrongReport:
    """Perturb the initial phase by delta * cos mode and track the relative
    energy against the unperturbed (well-resolved, smooth-data) reference.

    The Gronwall multiplier is calibrated once on the coarsest level and held
    fixed across refinements and perturbation sizes. The reference must stay
    regular: the xi monitor is recorded and compared against the ceiling.
    """
    run = cfg.run
    levels = cfg.levels or [run.grid.n[0]]
    deltas = cfg.deltas or [0.0, 0.1, 0.05, 0.025]
    if 0.0 not in deltas:
        deltas = [0.0] + deltas
    relcfg = RelEnergyConfig(M=cfg.M, lam=run.potential.lam)
    n0 = levels[0]
    rows: list[WeakStrongRow] = []
    xi_max: list[float] = []
    xi_exceeded: list[int | None] = []
    multiplier = 1.0
    scale = 1.0
    for li, n in enumerate(levels):
        grid = Grid((n,) * run.grid.dim, run.grid.extent)
        scheme = run.scheme.with_(dt=run.scheme.dt * (n0 / n) ** 2)
        ref_init = make_initial(grid, run.potential, run.initial)
        ref = simulate(ref_init, scheme, run.potential, run.t_end)
        xis = [xi_monitor(s, scheme.kappa, run.potential) for s in ref]
        xi_max.append(max(xis))
        xi_exceeded.append(first_exceedance(xis, cfg.xi_ceiling))
        if li == 0:
            scale = max(1.0, energy(ref[0], run.potential).E_total)
        bump = grid.cosine_mode()
        reports = {}
        for delta in deltas:
            pert_init = initial_state(
                grid,
                ref_init.theta,
                Field(grid, ref_init.phi.values + delta * bump),
                phi_t_mode=run.initial.get("phi_t", "zero"),
                potential=run.potential,
            )
            traj = simulate(pert_init, scheme, run.potential, run.t_end)
            reports[delta] = gronwall_check(traj, ref, relcfg, run.potential, multiplier=1.0)
        if li == 0:
            multiplier = fit_gronwall_multiplier([rep for delta, rep in reports.items() if delta > 0.0])
        for delta, rep in reports.items():
            rows.append(
                WeakStrongRow(
                    level=li,
                    n=n,
                    delta=delta,
                    E_rel_max=float(np.max(rep.E_rel)),
                    E_rel_final=float(rep.E_rel[-1]),
                    min_gronwall_margin=rep.min_step_margin(multiplier),
                    ratio=float(rep.E_rel[-1] / delta**2) if delta > 0 else math.nan,
                )
            )
    finest = [r for r in rows if r.level == len(levels) - 1 and r.delta > 0.0]
    ratios = [r.ratio for r in finest]
    spread = max(ratios) / min(ratios) if ratios else math.nan
    return WeakStrongReport(multiplier, rows, xi_max, xi_exceeded, scale, spread)


# --- persistence ----------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path, header, rows, comment: str | None = None) -> None:
    """One header line and one line per row; ``comment`` goes first as a '#' line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def read_csv_columns(path) -> dict[str, list[float]]:
    """The columns of a CSV by header name, as floats; non-numeric cells read as nan."""
    header, rows = read_csv(path)
    cols = {name: [] for name in header}
    for row in rows:
        for name, tok in zip(header, row):
            try:
                cols[name].append(float(tok))
            except ValueError:
                cols[name].append(math.nan)
    return cols


def write_manifest(outdir, sections: dict) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "manifest.txt").write_text(render_config(sections))


def persist_trajectory(traj: Trajectory, run_dir) -> None:
    """States as concatenated snapshot records (temperature, then phase)."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    index = []
    for k, s in enumerate(traj):
        name = f"state_{k}.field"
        with open(run_dir / name, "w") as fh:
            _write_record(fh, s.theta, s.t)
            _write_record(fh, s.phi, s.t)
        index.append((k, s.t, name))
    write_csv(run_dir / "index.csv", ["step", "t", "file"], index)


def _find_manifest(path: Path) -> Path:
    for cand in (path / "manifest.txt", path.parent / "manifest.txt"):
        if cand.exists():
            return cand
    raise ConfigError(f"no manifest.txt found in {path} or its parent")


def resolve_run_dir(path) -> Path:
    """The run directory a path names: the path itself when it holds index.csv,
    else its run_0/ when that does (an experiment directory), else the path."""
    path = Path(path)
    if not (path / "index.csv").exists() and (path / "run_0" / "index.csv").exists():
        return path / "run_0"
    return path


def load_run_dir(run_dir) -> tuple[Trajectory, RunConfig]:
    """Rebuild a trajectory (phi_t by backward differences, zero at the first
    state) plus its configuration from a persisted run directory (see
    ``resolve_run_dir``)."""
    run_dir = resolve_run_dir(run_dir)
    manifest = _find_manifest(run_dir)
    run = build_run_config(parse_config_text(manifest.read_text()))
    header, rows = read_csv(run_dir / "index.csv")
    states: list[State] = []
    prev_phi = None
    for row in rows:
        t, name = float(row[1]), row[2]
        recs = read_snapshots(run_dir / name)
        if len(recs) != 2:
            raise ConfigError(f"{name}: expected temperature and phase records, got {len(recs)}")
        (theta, _), (phi, _) = recs
        if prev_phi is None:
            phi_t = Field.zeros(theta.grid)
        else:
            phi_t = Field(theta.grid, (phi.values - prev_phi.values) / run.scheme.dt)
        states.append(State(t, theta, phi, phi_t))
        prev_phi = phi
    return Trajectory(states, run.scheme), run
