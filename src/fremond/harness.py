"""Reproducible experiment drivers and on-disk persistence.

Experiments are deterministic: the same resolved configuration (and seed,
where randomness is involved) yields byte-identical output files. Every
experiment directory carries a manifest.txt echoing the full resolved
configuration in the run-config grammar, so any output tree can be re-run.

Output tree:
    <outdir>/manifest.txt
    <outdir>/run_0/trajectory.field      two snapshot records per state, in
                                         order (temperature first, then phase)
    <outdir>/run_0/index.csv             step,t
    <outdir>/run_0/<check>.csv           written by the check drivers
    <outdir>/summary.csv                 one row per experiment member

Memory: ``simulate``'s verb and ``weak_strong_experiment`` hold one segment of
a run at a time (``stepper.march``) plus its per-state series; the verb's sink,
``TrajectoryWriter``, persists each segment as it comes. ``persist_trajectory``
writes the interleaved temperature and phase records from a trajectory's own
arrays, and ``load_run_dir`` reads them in one pass into one array sized from
index.csv and takes the two series as views, so neither copies it whole.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections import deque
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import fieldtext, thermo
from .config import RunConfig, build_run_config, format_column, format_value, parse_config_text, render_config
from .errors import ConfigError, SimulationAborted
from .grid import Field, Grid, _record_head, norm, read_snapshots, same_grid, write_snapshots
from .potential import Potential
from .relenergy import (GronwallReport, RelEnergyConfig, envelope_holds, fit_gronwall_multiplier, gronwall_check,
                        xi_monitor)
from .stepper import (
    SchemeConfig,
    State,
    Trajectory,
    _check_times,
    _step_times,
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
    "manufactured_error",
    "manufactured_heat_test",
    "eps_sweep",
    "refinement_study",
    "weak_strong_experiment",
    "TrajectoryWriter",
    "persist_trajectory",
    "resolve_run_dir",
    "load_run_dir",
    "write_csv",
    "read_csv",
    "read_csv_columns",
    "write_manifest",
]


# --- initial data presets ----------------------------------------------------


def _random_smooth_mode(grid: Grid, seed: int) -> np.ndarray:
    """Low-frequency cosine series with seeded coefficients, sup-normalized to 1: for each
    wavenumber tuple (k_1, ..., k_dim) in 1..4, a uniform(-1, 1) coefficient over
    sum k_a^2 times one cosine factor cos(pi k_a x_a / L_a) per axis."""
    rng = np.random.default_rng(seed)
    out = np.zeros(grid.shape)
    coords = grid.meshgrid()
    for ks in itertools.product(range(1, 5), repeat=grid.dim):
        term = rng.uniform(-1.0, 1.0) / sum(k**2 for k in ks)
        for k, x, length in zip(ks, coords, grid.extent):
            term = term * np.cos(np.pi * k * x / length)
        out += term
    peak = np.max(np.abs(out))
    return out / peak if peak > 0 else out


def make_initial(grid: Grid, potential: Potential, params: dict) -> State:
    """Build the initial state from the typed entries of an [initial] block
    (``RunConfig.initial``); a preset reads its own keys, the defaults filling the rest.
    Initial data of a nonpositive temperature, a non-finite field or a non-finite energy E(0) is a ConfigError."""
    preset = params.get("preset", "uniform")
    if preset == "uniform":
        theta = Field.full(grid, params.get("theta0", 1.0))
        phi = Field.full(grid, params.get("phi0", 0.0))
    elif preset in ("cosine_bump", "random_smooth"):
        tmode = pmode = grid.cosine_mode()
        if preset == "random_smooth":
            seed = params.get("seed", 0)
            if seed < 0:
                raise ConfigError(f"initial.seed = {seed}: must be nonnegative")
            tmode, pmode = _random_smooth_mode(grid, seed), _random_smooth_mode(grid, seed + 1)
        theta = params.get("theta_base", 1.0) + params.get("theta_amp", 0.2) * tmode
        phi = params.get("phi_base", 0.0) + params.get("phi_amp", 0.3) * pmode
        if not np.isfinite((theta, phi)).all():
            raise ConfigError(f"initial preset {preset}: theta or phi is not finite (a base or amplitude overflows)")
    elif preset == "steady":
        phi_star = params.get("phi_star", 1.1)
        theta_star = potential.eval(phi_star, 1)
        if not 0 < theta_star < math.inf:
            raise ConfigError(f"initial.phi_star = {format_value(phi_star)}: steady preset needs "
                              f"F'(phi_star) positive and finite, got {theta_star:.3g}")
        theta = Field.full(grid, theta_star)
        phi = Field.full(grid, phi_star)
    elif preset == "snapshot":
        for key in ("theta_file", "phi_file"):
            if key not in params:
                raise ConfigError(f"initial.{key} is required by preset snapshot")
        records = [read_snapshots(params[key]) for key in ("theta_file", "phi_file")]
        theta, phi = (Field(*next(r)[:2]) for r in records)  # each file's first record as (grid, values)
        deque(itertools.chain(*records), maxlen=0)  # the later ones are parsed too, so a malformed one is an error
        if not (same_grid(theta.grid, grid) and same_grid(phi.grid, grid)):
            raise ConfigError(f"snapshot grid (n = {theta.grid.n}, extent = {theta.grid.extent}) does not match "
                              f"the configured [grid] (n = {grid.n}, extent = {grid.extent})")
    else:
        raise ConfigError(f"unknown initial preset {preset!r}")
    if theta.min() <= 0:
        raise ConfigError(f"initial temperature must be positive, min = {theta.min():.3g}")
    init = initial_state(grid, theta, phi, phi_t_mode=params.get("phi_t", "zero"), potential=potential)
    e0 = energy(init, potential).E_total
    if not math.isfinite(e0):
        raise ConfigError(f"initial preset {preset}: the energy E(0) = {format_value(e0)} is not finite")
    return init


def run_simulation(run: RunConfig, sink=None) -> Trajectory | None:
    init = make_initial(run.grid, run.potential, run.initial)
    return simulate(init, run.scheme, run.potential, run.t_end, sink)


# --- frozen-phase drivers (heat equation in isolation) ------------------------


def frozen_phase_run(init: State, cfg: SchemeConfig, t_end: float) -> Trajectory:
    """March the heat update alone, with the phase field held fixed (d = 0); the
    fields may carry a member axis, as in ``step``."""
    return march(init, cfg, t_end, lambda s: heat_step(s, s.phi, cfg))


def closed_form_uniform_theta(t: float, theta0: float, eps: float, p: float) -> float:
    """Exact solution of theta' = -eps theta^p from uniform positive data."""
    return (theta0 ** (1.0 - p) + eps * (p - 1.0) * t) ** (1.0 / (1.0 - p))


# --- experiments ---------------------------------------------------------------


@dataclass
class ExperimentConfig:
    run: RunConfig
    kind: str
    eps_values: list[float] = field(default_factory=list)
    levels: list[int] | None = None  # [grid] n when not given
    deltas: list[float] = field(default_factory=lambda: [0.0, 0.1, 0.05, 0.025])
    monitor: str = "manufactured_error"
    M: float = RelEnergyConfig.M

    def __post_init__(self):
        # refine and weak_strong take levels[0] as the coarsest level (see ``_levels``)
        if self.levels is None:
            self.levels = [self.run.grid.n[0]]
        levels = self.levels
        if not (levels and all(a < b for a, b in zip(levels, levels[1:]))):
            raise ConfigError(f"experiment.levels = {format_value(levels)}: must be non-empty and strictly increasing")

    @classmethod
    def from_run(cls, run: RunConfig) -> "ExperimentConfig":
        """The run's typed [experiment] entries; the fields' defaults fill the rest."""
        if "kind" not in run.experiment:
            raise ConfigError("config has no [experiment] section with a kind")
        return cls(run=run, **run.experiment)


@dataclass
class ManufacturedResult:
    l2_error: float


def manufactured_error(grid: Grid, scheme: SchemeConfig, t_end: float, theta_mean: float = 2.0,
                       amplitude: float = 0.5) -> float:
    """L2 error of the heat equation in isolation (phase frozen, eps = 0) against
    the separable exact solution mean + a e^{-kappa pi^2 sum_a 1/L_a^2 t} cosine_mode
    on ``grid``, at t_end, a whole number of steps."""
    if not 0 < amplitude < theta_mean:
        raise ConfigError("need theta_mean > amplitude > 0 for positivity")
    mode = grid.cosine_mode()
    init = initial_state(grid, Field(grid, theta_mean + amplitude * mode), Field.zeros(grid))
    traj = frozen_phase_run(init, replace(scheme, epsilon=0.0), t_end)
    rate = scheme.kappa * math.pi**2 * sum(1.0 / length**2 for length in grid.extent)
    exact = theta_mean + amplitude * math.exp(-rate * t_end) * mode
    return norm(Field(grid, traj[-1].theta.values - exact), "L2")


def manufactured_heat_test(
    n: int = 64,
    kappa: float = 1.0,
    t_end: float = 0.1,
    theta_mean: float = 2.0,
    amplitude: float = 0.5,
) -> ManufacturedResult:
    """``manufactured_error`` on the unit interval with n cells and dt = h^2, at t_end
    rounded to a whole number of steps (at least one)."""
    grid = Grid.line(n)
    h = grid.h[0]
    dt = h * h
    error = manufactured_error(grid, SchemeConfig(dt, kappa), _final_time(t_end, dt), theta_mean, amplitude)
    return ManufacturedResult(error)


def _final_time(t_end: float, dt: float) -> float:
    """t_end rounded to a whole number of dt steps, at least one; a count too large to hold
    makes it inf, which ``SchemeConfig.whole_steps`` rejects."""
    return max(1.0, round(t_end / dt, 0)) * dt


def _levels(cfg: ExperimentConfig) -> tuple[list[tuple[Grid, SchemeConfig]], float]:
    """Each level's grid, n cells per axis on the run's extent, and scheme, the run's with dt
    scaled by ([grid] n / n)^2; and the final time T of every level, run.t_end > 0 rounded to
    whole steps of the coarsest level (at least one). A level that cannot be built or does
    not reach T in whole steps is a ConfigError naming it."""
    run = cfg.run
    if not run.t_end > 0:
        raise ConfigError(f"run.t_end = {run.t_end!r}: {cfg.kind} needs t_end > 0")
    built = []
    for n in cfg.levels:
        try:
            grid = Grid((n,) * run.grid.dim, run.grid.extent)
        except ValueError as exc:
            raise ConfigError(f"experiment.levels has {n}: {exc}") from exc
        built.append((grid, replace(run.scheme, dt=run.scheme.dt * (run.grid.n[0] / n) ** 2)))
    t_end = _final_time(run.t_end, built[0][1].dt)
    for n, (_, scheme) in zip(cfg.levels, built):
        try:
            scheme.whole_steps(t_end)
        except ConfigError as exc:
            raise ConfigError(f"experiment.levels has {n}: {exc} (the final time is run.t_end = {run.t_end:g} "
                              "rounded to whole steps of the coarsest level's dt)") from exc
    return built, t_end


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

    def summary_columns(self):
        header = [f.name for f in fields(EpsSweepRow)]
        return header, [[getattr(r, name) for r in self.rows] for name in header]


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
    init = make_initial(run.grid, run.potential, run.initial)  # ``step`` never mutates the state it is given
    rows, finals = [], []
    for eps in eps_values:
        scheme = replace(run.scheme, epsilon=eps)
        try:
            traj = simulate(init, scheme, run.potential, run.t_end)
        except SimulationAborted as exc:
            rows.append(EpsSweepRow(eps, f"failed at step {exc.step_index}: {exc.cause}", math.nan, math.nan, math.nan))
            finals.append(None)
            continue
        echeck = energy_inequality_check(traj, run.potential)
        ent = entropy_inequality_check(traj, TEST_FUNCTIONS["one"])
        rows.append(
            EpsSweepRow(eps, "ok", float(echeck.energies[-1]), ent.min_margin, float(echeck.reg_cumulative[-1]))
        )
        finals.append(traj[-1])
    def distances(name: str) -> list[float]:  # nan where either run failed
        return [math.nan if a is None or b is None else
                norm(Field(a.grid, getattr(a, name).values - getattr(b, name).values), "L1")
                for a, b in zip(finals, finals[1:])]

    return EpsSweepReport(rows, distances("theta"), distances("phi"))


@dataclass
class RefinementReport:
    monitor: str
    levels: list[tuple[int, float, float]]   # (n, dt, monitored value)
    orders_dt: list[float]
    orders_h: list[float]

    def summary_columns(self):
        return ["n", "dt", "value"], list(zip(*self.levels))


def refinement_study(cfg: ExperimentConfig) -> RefinementReport:
    """Observed convergence orders under simultaneous (h, dt) refinement,
    dt scaled with h^2 so the first-order time error stays subordinate. Every
    monitor marches each level that ``_levels`` builds to its one final time T: the
    margins the coupled run from [initial], ``manufactured_error`` the heat equation alone."""
    levels = cfg.levels
    if len(levels) < 3:
        raise ConfigError("refinement study needs at least three levels")
    monitors = ("manufactured_error", "energy_margin", "entropy_margin")
    if cfg.monitor not in monitors:
        raise ConfigError(f"experiment.monitor = {cfg.monitor}: expected one of {', '.join(monitors)}")
    run = cfg.run
    built, t_end = _levels(cfg)
    values, dts = [], []
    for grid, scheme in built:
        if cfg.monitor == "manufactured_error":
            values.append(manufactured_error(grid, scheme, t_end))
        else:
            init = make_initial(grid, run.potential, run.initial)
            traj = simulate(init, scheme, run.potential, t_end)
            if cfg.monitor == "energy_margin":
                echeck = energy_inequality_check(traj, run.potential)
                values.append(float(np.max(np.abs(echeck.margins))))
            else:
                ent = entropy_inequality_check(traj, TEST_FUNCTIONS["one"])
                values.append(abs(ent.min_margin))
        dts.append(scheme.dt)
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
    scale: float                 # the coarsest reference's initial total energy, envelope_holds' scale
    ratios_spread: float         # max/min of E_rel(T)/delta^2 on the finest level

    @property
    def zero_delta_pass(self) -> bool:
        # delta = 0 has a zero envelope, so its margin is at most -E_rel
        return all(envelope_holds(-r.E_rel_max, self.scale) for r in self.rows if r.delta == 0.0)

    @property
    def envelope_pass(self) -> bool:
        return all(envelope_holds(r.min_gronwall_margin, self.scale) for r in self.rows if r.delta > 0.0)

    def summary_columns(self):
        header = ["level", "n", "delta", "E_rel_max", "E_rel_final", "min_margin", "ratio"]
        return header, [[getattr(r, f.name) for r in self.rows] for f in fields(WeakStrongRow)]


def _perturbed_batch(grid: Grid, run: RunConfig, deltas: list[float]) -> State:
    """The reference's initial state on ``grid`` and, after it, one member per delta, its phase plus
    delta * cos mode, as one batch. A positive delta that leaves the phase bitwise unchanged (its run would be
    the reference again, with E_rel = 0 and no ratio), or gives a non-finite E(0), is a ConfigError naming it."""
    ref_init = make_initial(grid, run.potential, run.initial)
    phi0, bump = ref_init.phi.values, grid.cosine_mode()
    phis = [phi0, *(phi0 + delta * bump for delta in deltas)]
    for delta, phi in zip(deltas, phis[1:]):
        if delta > 0.0 and np.array_equal(phi, phi0):
            raise ConfigError(f"experiment.deltas has {format_value(delta)}: too small to perturb the initial "
                              f"phase at n = {grid.n[0]}")
    batch = initial_state(grid, np.stack([ref_init.theta.values] * len(phis)), np.stack(phis),
                          phi_t_mode=run.initial.get("phi_t", "zero"), potential=run.potential)
    for delta, e0 in zip(deltas, energy(batch, run.potential).E_total[1:]):
        if not math.isfinite(e0):
            raise ConfigError(f"experiment.deltas has {format_value(delta)}: the perturbed initial energy "
                              f"E(0) = {format_value(e0)} is not finite")
    return batch


def _weak_strong_level(batch: State, scheme: SchemeConfig, t_end: float, potential: Potential,
                       relcfg: RelEnergyConfig) -> tuple[float, list[GronwallReport]]:
    """March one level's batch to t_end by one ``simulate``, whose sink takes from each segment (about one
    ``gronwall_check`` block a member) the max of the reference's (member 0's) xi and each other member's E_rel,
    W and K. Returns the max of xi and each other member's Gronwall report, built from its whole series."""
    times = _step_times(batch.t, scheme, t_end)
    xi, series, filled = [], np.empty((len(batch.theta.values) - 1, 3, len(times))), 0

    def sink(_, segment):
        nonlocal filled
        if segment is not None:
            ref, k = segment.member(0), slice(filled, filled + len(segment))
            xi.append(np.max(xi_monitor(ref.stack, scheme.kappa)))
            for j, member_series in enumerate(series, start=1):
                rep = gronwall_check(segment.member(j), ref, relcfg, potential)
                member_series[:, k] = rep.E_rel, rep.W, rep.K
            filled = k.stop

    simulate(batch, scheme, potential, t_end, sink)
    return float(np.max(xi)), [GronwallReport.of(times, *member_series, scheme.dt) for member_series in series]


def weak_strong_experiment(cfg: ExperimentConfig) -> WeakStrongReport:
    """Perturb the initial phase by delta * cos mode and track the relative
    energy against the unperturbed (well-resolved, smooth-data) reference.

    Each level marches the reference and every delta as one batch (``step``'s
    member axis), so delta = 0 is a real run that must match the reference
    bitwise. The Gronwall multiplier is calibrated once on the coarsest level
    and held fixed across refinements and perturbation sizes. The reference
    must stay regular: the maximum of its xi monitor is recorded per level.
    Every level's initial batch is built, and so checked, before the first
    marches. A level marches in segments (``_weak_strong_level``), one held at
    a time, and keeps only its series, so memory does not grow with t_end.
    """
    run = cfg.run
    deltas = cfg.deltas
    if len(set(deltas)) < len(deltas) or any(d < 0.0 for d in deltas) or not any(d > 0.0 for d in deltas):
        raise ConfigError(f"experiment.deltas = {format_value(deltas)}: must be distinct and nonnegative, "
                          "with at least one positive")
    for delta in deltas:
        if delta > 0.0 and delta * delta == 0.0:
            raise ConfigError(f"experiment.deltas has {format_value(delta)}: its square underflows to 0, "
                              "so E_rel(T) / delta^2 is undefined")
    if 0.0 not in deltas:
        deltas = [0.0] + deltas
    relcfg = RelEnergyConfig(M=cfg.M, lam=run.potential.lam)
    built, t_end = _levels(cfg)
    inits = [_perturbed_batch(grid, run, deltas) for grid, _ in built]
    scale = energy(inits[0], run.potential).E_total[0]  # the coarsest reference's E(0), as ref[0] of its run
    rows: list[WeakStrongRow] = []
    xi_max: list[float] = []
    for li, (n, (_, scheme), batch_init) in enumerate(zip(cfg.levels, built, inits)):
        xi, reports = _weak_strong_level(batch_init, scheme, t_end, run.potential, relcfg)
        xi_max.append(xi)
        if li == 0:  # calibrated on the coarsest level, as is the verdicts' tolerance scale
            multiplier = fit_gronwall_multiplier([rep for delta, rep in zip(deltas, reports) if delta > 0.0])
        rows.extend(WeakStrongRow(level=li, n=n, delta=delta, E_rel_max=float(np.max(rep.E_rel)),
                                  E_rel_final=float(rep.E_rel[-1]), min_gronwall_margin=rep.min_step_margin(multiplier),
                                  ratio=float(rep.E_rel[-1] / delta**2) if delta > 0 else math.nan)
                    for delta, rep in zip(deltas, reports))
        del reports  # one level at a time: release this one's series before the next marches
    ratios = [r.ratio for r in rows if r.level == len(built) - 1 and r.delta > 0.0]
    return WeakStrongReport(multiplier, rows, xi_max, scale, max(ratios) / min(ratios))


# --- persistence ----------------------------------------------------------------


def write_csv(path, header, columns, comment: str | None = None) -> None:
    """One header line and one line per row of the equal-length ``columns``, each cell
    by ``format_column`` and quoted only where it holds a comma or a quote; ``comment``
    goes first as a '#' line. Columns of unequal length are a ValueError."""
    rows = len(columns[0]) if columns else 0
    if any(len(col) != rows for col in columns):
        raise ValueError(f"{path}: columns of unequal lengths {[len(col) for col in columns]}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        for i in range(0, rows, 256):  # a block of rows at a time, so that memory stays flat
            out.writerows(zip(*(format_column(col[i:i + 256]) for col in columns)))


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """The header and rows of a CSV that ``write_csv`` wrote, skipping '#' and blank
    lines; malformed quoting is a ConfigError naming the file."""
    with open(path, newline="") as fh:
        try:
            rows = list(csv.reader((ln for ln in fh if ln.strip() and not ln.startswith("#")), strict=True))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: empty CSV file")
    return rows[0], rows[1:]


def read_csv_columns(path, *required: str) -> dict[str, list[float]]:
    """The columns of a CSV by header name, as floats; non-numeric cells read as
    nan. A required column the header lacks, or a row whose cell count differs
    from the header's, is a ConfigError naming it."""
    header, rows = read_csv(path)
    missing = [name for name in required if name not in header]
    if missing:
        raise ConfigError(f"{path}: header lacks column {', '.join(missing)}")
    cols = {name: [] for name in header}
    for row in rows:
        if len(row) != len(header):
            raise ConfigError(f"{path}: row {','.join(row)!r} has {len(row)} cells, the header {len(header)}")
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


class TrajectoryWriter:
    """``simulate``'s sink (``stepper.march``) for outdir/run_0. Once the times are checked it writes the manifest,
    makes run_0 and, for a run of more than one segment, starts a ``fieldtext.Writer`` process; then it persists each
    segment as it comes (``persist_trajectory``) and keeps its ``energy`` report (``thermo.energy``, from the verb)."""

    def __init__(self, outdir, run: RunConfig, energy):
        self.run_dir, self.run, self.energy, self.process, self.reports = Path(outdir) / "run_0", run, energy, None, []

    def __call__(self, times: np.ndarray, segment: Trajectory | None) -> None:
        if segment is None:  # the times are checked, so the run's directory may be made
            write_manifest(self.run_dir.parent, self.run.sections)
            self.run_dir.mkdir(exist_ok=True)
            if len(times) > thermo._block_states((grid := self.run.grid).num_cells):
                self.process = fieldtext.Writer(self.run_dir / "trajectory.field", _record_head(grid), grid.num_cells)
        else:
            persist_trajectory(segment, self.run_dir, self.process)
            self.reports.append(self.energy(segment.stack, self.run.potential))

    def series(self) -> dict[str, np.ndarray]:
        """Each field of the kept energy reports, joined over the segments: energy.csv's columns after step."""
        return {name: np.concatenate([getattr(r, name) for r in self.reports]) for name in vars(self.reports[0])}

    def close(self) -> None:
        """Close the writer process, if any, and wait for it (``fieldtext.Writer.close``)."""
        if self.process is not None:
            self.process.close()


def persist_trajectory(traj: Trajectory, run_dir, writer: fieldtext.Writer | None = None) -> None:
    """The states as snapshot records in one trajectory.field (temperature, then phase, per state) and their times
    in index.csv; given a ``writer`` process, which owns trajectory.field, only the records, sent to it to follow
    those it has (``TrajectoryWriter``, whose verb writes index.csv once the process has closed)."""
    s, run_dir = traj.stack, Path(run_dir)
    if writer is not None:
        return writer.send(s.t, s.theta.values, s.phi.values)
    run_dir.mkdir(parents=True, exist_ok=True)
    write_snapshots((s.theta, s.phi), run_dir / "trajectory.field", s.t)
    write_csv(run_dir / "index.csv", ["step", "t"], [np.arange(len(s.t)), s.t])


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
    """Rebuild a trajectory (``Trajectory.of``, at the first state the manifest's
    ``initial.phi_t`` convention) plus its configuration from a persisted run
    directory (see ``resolve_run_dir``), its records read into one array sized from index.csv,
    whose states they must match two for one (a ConfigError otherwise)."""
    run_dir = resolve_run_dir(run_dir)
    manifest = _find_manifest(run_dir)
    try:
        run = build_run_config(parse_config_text(manifest.read_text()))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{manifest}: {exc}") from exc
    index, path = run_dir / "index.csv", run_dir / "trajectory.field"
    times = np.array(read_csv_columns(index, "step", "t")["t"])
    if len(times) == 0:
        raise ConfigError(f"{index}: lists no states")
    records, record_times = np.empty((2 * len(times), *run.grid.shape)), np.empty(2 * len(times))
    for k, (grid, values, t) in enumerate(read_snapshots(path)):  # records past the array are only counted
        if k == 0 and not same_grid(grid, run.grid):
            raise ConfigError(f"{path}: records do not all live on the [grid] of {manifest}")
        if k < len(records):
            records[k], record_times[k] = values, t
    if k + 1 != len(records):
        raise ConfigError(f"{path}: {k + 1} records, not two for each of the {len(times)} states in {index}")
    if not np.array_equal(record_times, np.repeat(times, 2)):
        raise ConfigError(f"{path}: record times differ from the state times in {index}")
    try:
        _check_times(times, run.scheme.dt)
    except ValueError as exc:
        raise ConfigError(f"{index} times do not fit dt = {run.scheme.dt!r} of {manifest}: {exc}") from exc
    theta, phi = records[0::2], records[1::2]
    try:  # the records' values are checked finite here, as the trajectory's fields
        init = initial_state(grid, theta[0], phi[0], run.initial.get("phi_t", "zero"), run.potential, times[0])
        return Trajectory.of(times, theta, phi, init.phi_t, run.scheme), run
    except ValueError as exc:  # the times fit, so a value is not finite or the phase's backward difference overflowed
        raise ConfigError(f"{path}: the phase rate (phi^n - phi^(n-1))/dt of its records overflows, "
                          "or a record holds a value that is not finite") from exc
