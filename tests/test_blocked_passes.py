"""The trajectory-wide passes work block by block and give, bit for bit, what
one pass over the whole arrays gives.

``energy`` on a stacked State, ``energy_inequality_check``,
``entropy_inequality_check`` and ``gronwall_check``'s E, W and K reduce each
state alone, so working through blocks of whole states (``thermo._by_blocks``,
``thermo.BLOCK_VALUES`` values each) must not change a bit; the
whole-array forms below are the references. The cases cover 1, 2, a block, a
block plus one and several blocks of states, on a solo 1D run, a loaded run
(every-other-record views), a batch member (strided views) and a 2D run, each
with a reference run of its kind for the relative energy. Traced by
``tracemalloc``, each pass holds its inputs plus a few blocks, ``weak_strong_experiment``
one segment of a level's batch plus a few blocks and the level's series, whatever the
run's length, and writing then loading a run the loaded arrays plus about one record.
``weak_strong_experiment`` gives the same bits whether its levels march in one segment
or in many.
"""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fremond import harness, stepper, thermo
from fremond.config import load_config
from fremond.grid import Field, Grid, _dirichlet_values, _grad_sq_values, read_snapshots
from fremond.harness import (
    ExperimentConfig,
    load_run_dir,
    persist_trajectory,
    run_simulation,
    weak_strong_experiment,
    write_manifest,
)
from fremond.relenergy import RelEnergyConfig, dissipation_W, gronwall_check, k_factor, relative_energy
from fremond.stepper import SchemeConfig, State, Trajectory, initial_state, simulate
from fremond.thermo import TEST_FUNCTIONS, energy, energy_inequality_check, entropy_inequality_check

PRESETS = Path(__file__).resolve().parents[1] / "presets"


def whole_energy(state, potential):
    """``energy``'s fields after t, each reduced over the whole stacked arrays at once."""
    g = state.grid
    vol, axes = g.cell_volume, g.axes
    th, ph = state.theta.values, state.phi.values
    e_grad = 0.5 * _dirichlet_values(ph, ph, g)
    e_pot = np.sum(potential.eval(ph, 0), axis=axes) * vol
    e_th = np.sum(th, axis=axes) * vol
    log_th = np.log(th)
    return (e_grad + e_pot + e_th, e_grad, e_pot, e_th, np.sum(log_th + ph, axis=axes) * vol,
            np.sum(th * log_th, axis=axes) * vol, th.min(axis=axes), ph.min(axis=axes))


def whole_regularization(traj):
    """``energy_inequality_check``'s reg_cumulative over the whole arrays at once."""
    eps, p, dt, g = traj.config.epsilon, traj.config.p, traj.config.dt, traj.grid
    regs = np.zeros(len(traj))
    if eps > 0:
        regs[1:] = eps * dt * np.sum(traj.stack.theta.values[1:] ** p, axis=g.axes) * g.cell_volume
    return np.cumsum(regs)


def whole_entropy(traj, test_fn):
    """``entropy_inequality_check``'s margins and values over the whole arrays at once, with vartheta_t
    by centred differences (forward at t = 0): zero for a test function of space alone, so that the
    bitwise comparison shows that leaving the vartheta_t term out changes no bit."""
    cfg = traj.config
    kappa, eps, p, dt = cfg.kappa, cfg.epsilon, cfg.p, cfg.dt
    s, grid = traj.stack, traj.grid
    vol, axes = grid.cell_volume, grid.axes
    vt = np.broadcast_to(test_fn.sample(grid), (len(traj), *grid.shape))
    log_th = np.log(s.theta.values)
    density = log_th + s.phi.values
    boundary = np.sum(vt * density, axis=axes) * vol
    vt_dot = np.concatenate([(vt[1:2] - vt[:1]) / dt, (vt[2:] - vt[:-2]) / (2.0 * dt)])
    vt_dot *= density[:-1]
    flux = dt * (kappa * _dirichlet_values(log_th[:-1], vt[:-1], grid) - np.sum(vt_dot, axis=axes) * vol)
    th = s.theta.values[:-1]
    density = _grad_sq_values(log_th[:-1], grid)
    density *= kappa
    density += s.phi_t.values[:-1] ** 2 / th
    if eps > 0:
        density -= eps * th ** (p - 1.0)
    density *= vt[:-1]
    production = dt * np.sum(density, axis=axes) * vol
    lhs = -boundary[1:] + boundary[0] + np.cumsum(production)
    return np.cumsum(flux) - lhs, boundary[1:]


def whole_gronwall_series(traj, ref, cfg, potential):
    """``gronwall_check``'s E, W and K, each over the whole stacked arrays at once."""
    s, r = traj.stack, ref.stack
    return relative_energy(s, r, cfg, potential).total, dissipation_W(s, r, traj.config.kappa), k_factor(r)


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def head(traj, k):
    """The first k states of a trajectory, as views."""
    s = traj.stack
    return Trajectory(State(s.t[:k], *(Field(f.grid, f.values[:k]) for f in (s.theta, s.phi, s.phi_t))), traj.config)


def assert_passes_bitwise(traj, potential):
    got = energy(traj.stack, potential)
    for name, want in zip(list(vars(got))[1:], whole_energy(traj.stack, potential)):
        assert np.array_equal(bits(getattr(got, name)), bits(want)), name
    echeck = energy_inequality_check(traj, potential)
    assert np.array_equal(bits(echeck.reg_cumulative), bits(whole_regularization(traj)))
    assert np.array_equal(bits(echeck.energies), bits(got.E_total))
    for tf in TEST_FUNCTIONS.values():
        ent = entropy_inequality_check(traj, tf)
        margins, values = whole_entropy(traj, tf)
        assert np.array_equal(bits(ent.margins), bits(margins)), tf.name
        assert np.array_equal(bits(ent.entropy_values), bits(values)), tf.name


def assert_relative_energy_passes_bitwise(traj, ref, potential):
    cfg = RelEnergyConfig(lam=potential.lam)
    rep = gronwall_check(traj, ref, cfg, potential)
    for name, want in zip(("E_rel", "W", "K"), whole_gronwall_series(traj, ref, cfg, potential)):
        assert np.array_equal(bits(getattr(rep, name)), bits(want)), name


STATES_PER_BLOCK = 4
COUNTS = [1, 2, STATES_PER_BLOCK, STATES_PER_BLOCK + 1, 3 * STATES_PER_BLOCK + 2]  # 1, 2, a block, one more, several


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Name -> (trajectory, potential, reference) of each kind of stacked values, 17 states each; the
    reference is a run of the same kind and length for the relative energy."""
    run = load_config(PRESETS / "cosine.cfg", ["grid.n=16", "scheme.dt=0.00390625", "scheme.epsilon=0.1",
                                               "run.t_end=0.0625"])
    pot, grid, cfg = run.potential, run.grid, run.scheme
    solo = run_simulation(run)
    other = run_simulation(replace(run, initial={**run.initial, "phi_amp": 0.25, "theta_amp": 0.1}))
    outdir = tmp_path_factory.mktemp("loaded")
    write_manifest(outdir, run.sections)
    persist_trajectory(solo, outdir / "run_0")
    loaded, _ = load_run_dir(outdir)
    assert loaded.stack.theta.values.base is not None  # every other record of one array

    init = solo[0]
    batch_init = initial_state(grid, np.stack([init.theta.values, 1.1 * init.theta.values]),
                               np.stack([init.phi.values, -init.phi.values]))
    batch = simulate(batch_init, cfg, pot, 16 * cfg.dt)

    g2 = Grid((6, 5), (1.0, 0.8))
    X, Y = g2.meshgrid()
    mode = np.cos(np.pi * X) * np.cos(np.pi * Y / 0.8)
    run2d, ref2d = (simulate(initial_state(g2, Field(g2, 1.0 + amp * mode), Field(g2, 0.3 * mode)),
                             SchemeConfig(dt=2e-3, epsilon=1e-3), pot, 16 * 2e-3) for amp in (0.2, 0.1))
    return {"solo1d": (solo, pot, other), "loaded": (loaded, pot, other),
            "member": (batch.member(1), pot, batch.member(0)), "2d": (run2d, pot, ref2d)}


@pytest.mark.parametrize("kind", ["solo1d", "loaded", "member", "2d"])
@pytest.mark.parametrize("count", COUNTS)
def test_blocked_passes_equal_whole_array_passes_bitwise(runs, kind, count, monkeypatch):
    traj, pot, ref = runs[kind]
    monkeypatch.setattr(thermo, "BLOCK_VALUES", STATES_PER_BLOCK * traj.stack.theta.values[0].size)
    ones, = thermo._by_blocks(lambda b: (np.ones(1),), traj.stack.theta.values[:count])  # a one per block
    assert len(ones) == -(-count // STATES_PER_BLOCK)
    assert_passes_bitwise(head(traj, count), pot)
    assert_relative_energy_passes_bitwise(head(traj, count), head(ref, count), pot)


def synthetic(grid, states, seed=0):
    """A trajectory of smooth positive random fields, built without marching. The amplitudes walk by at most
    1e-3 a state and the noise is 1e-4, so that phi_t is of order 1 and the Gronwall growth exp(int K) stays finite."""
    rng = np.random.default_rng(seed)
    cfg = SchemeConfig(dt=1e-3, epsilon=1e-2, p=4.0)
    mode = grid.cosine_mode()
    walk = np.cumsum(rng.uniform(-1e-3, 1e-3, size=(2, states)), axis=1)
    amp = (rng.uniform(-0.25, 0.25, size=(2, 1)) + walk).reshape((2, states) + (1,) * grid.dim)
    theta, phi = 1.0 + amp[0] * mode, amp[1] * mode + 1e-4 * rng.standard_normal((states, *grid.shape))
    return Trajectory.of(np.arange(states) * cfg.dt, theta, phi, Field.zeros(grid), cfg)


@pytest.mark.parametrize("blocks", [1, 3])
def test_blocked_passes_at_the_module_block_size(double_well, blocks):
    grid = Grid.line(16)
    per = thermo.BLOCK_VALUES // grid.num_cells
    for count in (blocks * per, blocks * per + 1):
        assert_passes_bitwise(synthetic(grid, count), double_well)
        assert_relative_energy_passes_bitwise(synthetic(grid, count), synthetic(grid, count, seed=1), double_well)


def test_interleaved_snapshot_round_trip_is_bitwise(runs, tmp_path):
    traj = runs["2d"][0]
    persist_trajectory(traj, tmp_path)
    records = list(read_snapshots(tmp_path / "trajectory.field"))
    values, times = np.stack([v for _, v, _ in records]), np.array([t for _, _, t in records])
    s = traj.stack
    assert values.shape == (2 * len(traj), *traj.grid.shape)
    assert np.array_equal(bits(values[0::2]), bits(s.theta.values))
    assert np.array_equal(bits(values[1::2]), bits(s.phi.values))
    assert np.array_equal(bits(times), bits(np.repeat(s.t, 2)))


WEAK_STRONG_CASES = {
    "1d": ["experiment.levels=[16, 32]", "run.t_end=0.0625"],
    "2d": ["grid.dim=2", "grid.n=16", "scheme.dt=0.001953125", "experiment.levels=[16, 32]", "run.t_end=0.03125"],
}


@pytest.mark.parametrize("case, module_marches", [("1d", 2), ("2d", 5)])
def test_levels_give_the_same_bits_in_segments_of_any_size(case, module_marches, monkeypatch):
    # at the module's block size each 1D level marches in one segment, the 2D level 32 in 4 of 16 steps;
    # at 64 values a block every level marches in segments of 1 to 4 steps
    run = load_config(PRESETS / "weakstrong.cfg", WEAK_STRONG_CASES[case])
    marches, simulate_ = [], harness.simulate
    monkeypatch.setattr(harness, "simulate", lambda *args: marches.append(args[-1]) or simulate_(*args))

    def report(block_values):
        monkeypatch.setattr(thermo, "BLOCK_VALUES", block_values)
        marches.clear()
        rep = weak_strong_experiment(ExperimentConfig.from_run(run))
        return repr((rep.multiplier, rep.rows, rep.xi_max, rep.scale, rep.ratios_spread)), len(marches)

    module, small = report(thermo.BLOCK_VALUES), report(64)
    assert module[1] == module_marches and small[1] > 60
    assert small[0] == module[0]


# --- memory --------------------------------------------------------------------------

BLOCK_BYTES = 8 * thermo.BLOCK_VALUES


def traced_peak(fn):
    """fn's result and the peak of the memory it traced above what was live when it began."""
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def big2d():
    """32 x 32 cells and 257 states: each field of the trajectory is 2.1 MB, 16 blocks."""
    return synthetic(Grid((32, 32), (1.0, 1.0)), 257)


@pytest.mark.parametrize("name, pass_", [
    ("energy", lambda traj, ref, pot: energy(traj.stack, pot)),
    ("energy_check", lambda traj, ref, pot: energy_inequality_check(traj, pot)),
    ("entropy_one", lambda traj, ref, pot: entropy_inequality_check(traj, TEST_FUNCTIONS["one"])),
    ("entropy_cosine", lambda traj, ref, pot: entropy_inequality_check(traj, TEST_FUNCTIONS["cosine"])),
    ("gronwall_check", lambda traj, ref, pot: gronwall_check(traj, ref, RelEnergyConfig(lam=pot.lam), pot)),
])
def test_each_pass_holds_a_few_blocks(big2d, double_well, name, pass_):
    ref = synthetic(big2d.grid, len(big2d), seed=1)  # the relative energy's reference, built before the trace
    _, peak = traced_peak(lambda: pass_(big2d, ref, double_well))
    field_bytes = big2d.stack.theta.values.nbytes
    assert peak < 8 * BLOCK_BYTES < field_bytes / 2, f"{name}: {peak / 2**20:.2f} MB"


@pytest.mark.parametrize("t_end", [0.0625, 0.25])
def test_weak_strong_holds_one_segment_plus_a_few_blocks_at_any_run_length(t_end):
    # the benchmark's levels: the finest batch, 513 or 2049 states of 5 members on 64 cells, is 3.9 or 15.8 MB
    # whole, and a segment of it, 257 states, 2.0 MB, about three blocks (theta, phi and phi_t) a member
    run = load_config(PRESETS / "weakstrong.cfg", ["experiment.levels=[32, 64]", f"run.t_end={t_end}"])
    stepper._gtsv()  # the first 1D solve imports scipy.linalg: import it before the trace
    _, peak = traced_peak(lambda: weak_strong_experiment(ExperimentConfig.from_run(run)))
    states, members = round(run.t_end / (run.scheme.dt / 4)) + 1, 5
    series = 8 * states * (1 + 6 * (members - 1))  # xi, and each delta's E_rel, W, K, lhs, growth and scaled_lhs
    assert peak < (3 * members + 8) * BLOCK_BYTES + series, f"{(peak - series) / 2**20:.2f} MB above the series"


def test_persisting_and_loading_hold_the_loaded_arrays_plus_one_record(tmp_path):
    # 33 states of 32 x 32 cells: each field of the trajectory is 264 KB, two blocks, and a record is 8 KB of floats
    traj = synthetic(Grid((32, 32), (1.0, 1.0)), 33)
    run = load_config(PRESETS / "cosine.cfg", ["grid.dim=2", "grid.n=32", f"scheme.dt={traj.config.dt!r}",
                                               f"scheme.epsilon={traj.config.epsilon!r}"])
    write_manifest(tmp_path, run.sections)
    run_dir = tmp_path / "run_0"
    _, peak = traced_peak(lambda: persist_trajectory(traj, run_dir))
    # one record's floats and text at a time, and index.csv's rows
    assert peak < 2 * BLOCK_BYTES, f"persist: {peak / 2**20:.2f} MB"
    (loaded, _), peak = traced_peak(lambda: load_run_dir(run_dir))
    arrays = sum(f.values.base.nbytes if f.values.base is not None else f.values.nbytes
                 for f in (loaded.stack.theta, loaded.stack.phi_t))  # theta and phi share one array
    assert arrays == 3 * traj.stack.theta.values.nbytes
    # the record being parsed, as text tokens and then floats, and index.csv's rows
    assert peak < arrays + 2 * BLOCK_BYTES, f"load: {(peak - arrays) / 2**20:.2f} MB above the arrays"
