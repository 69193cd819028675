"""Shrinking-horizon loop: config validation, dataset assembly, stepping."""

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.linalg import expm

from lodempc import controller, gpcore
from lodempc.controller import (
    SUBGRID_COUNT,
    ControllerConfig,
    PlantDivergenceError,
    build_step_dataset,
    initial_dataset,
    mpc_step,
    run_closed_loop,
    run_lag_table,
)
from lodempc.gpcore import Dataset, PosteriorGp, assemble_gram
from lodempc.kernelops import Hyperparams, OperatorKernel
from lodempc.lodegp import LinearSystem, build_prior
from lodempc.plant import Plant

from conftest import posterior_from_trajectory, step_costs, step_exact


def make_cfg(**overrides):
    base = dict(
        t0=0.0,
        t_end=2.0,
        dt=0.1,
        x0=(1.0, 0.0),
        u0=(0.0,),
        x_ref=(0.0, 0.0),
        z_min=(-1.0, -1.0, -2.5),
        z_max=(1.0, 1.0, 2.5),
        constraint_grid=tuple(np.round(np.arange(0.1, 2.01, 0.1), 10)),
    )
    base.update(overrides)
    return ControllerConfig(**base)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_config_derived_quantities():
    cfg = make_cfg()
    assert (cfg.n_x, cfg.n_u, cfg.n_z) == (2, 1, 3)
    assert cfg.n_steps == 20
    # the lattice floats t0 + k*dt, computed once and read-only
    assert cfg.lattice.tolist() == [cfg.t0 + k * cfg.dt for k in range(21)]
    assert cfg.lattice[3] == pytest.approx(0.3)
    with pytest.raises(ValueError):
        cfg.lattice[0] = 1.0


@pytest.mark.parametrize(
    "overrides",
    [
        {"dt": 0.0},
        {"t_end": -1.0},
        {"t_end": 2.05},  # not a multiple of dt
        {"z_min": (-1.0, -1.0)},  # box does not cover u
        {"z_min": (2.0, -1.0, -2.5)},  # lo > hi
        {"x_ref": (0.0,)},
        {"m_p": -1},
        {"constraint_grid": (0.2, 0.1)},  # not increasing
        {"constraint_grid": (0.15,)},  # off the dt lattice
    ],
)
def test_config_rejects_inconsistencies(overrides):
    with pytest.raises(ValueError):
        make_cfg(**overrides)


@pytest.mark.parametrize(
    "name, value",
    [
        ("control_application", "subgrid_interpolation"),
        ("subgrid_count", 10),
        ("constraint_noise_is_variance", False),
    ],
)
def test_config_has_no_plan_application_knobs(name, value):
    # one way to apply a plan: the former knobs are not fields, even at the
    # values that were their defaults
    assert len(dataclasses.fields(ControllerConfig)) == 11
    with pytest.raises(TypeError, match=name):
        make_cfg(**{name: value})


def test_config_accepts_degenerate_horizon():
    cfg = make_cfg(t_end=0.0, constraint_grid=())
    assert cfg.n_steps == 0


def test_config_accepts_a_horizon_off_by_rounding():
    # (3.0 - 0.0) / 0.3 is 10.000000000000002: within TIME_TOL of the lattice
    cfg = make_cfg(t_end=3.0, dt=0.3, constraint_grid=())
    assert cfg.n_steps == 10 and cfg.lattice[-1] == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# The step dataset: one builder, four blocks
# ---------------------------------------------------------------------------


def history(k, z_now=(1.0, 0.0, 0.0)):
    """Observations at steps 0..k: row j is (j, 0, 0), row k is z_now."""
    z = np.zeros((k + 1, 3))
    z[:, 0] = np.arange(k + 1)
    z[k] = z_now
    return z


def soft_rows(ds):
    """(times, values, noise) of the soft box points: the rows with noise."""
    soft = np.all(ds.noise_var > 0, axis=1)
    return ds.t[soft], ds.values[soft], ds.noise_var[soft]


def test_d_init_is_single_exact_point(unstable_prior):
    ds = build_step_dataset(unstable_prior, make_cfg(), history(5, (1.0, np.nan, 2.0)))
    now = np.isclose(ds.t, 0.5)
    assert np.count_nonzero(now) == 1
    np.testing.assert_array_equal(ds.values[now], [[1.0, np.nan, 2.0]])
    np.testing.assert_array_equal(ds.noise_var[now], [[0.0, 0.0, 0.0]])


# the last: more rows than the 21 lattice times of make_cfg's horizon
@pytest.mark.parametrize(
    "z_hist", [np.zeros((0, 3)), np.zeros((2, 2)), np.zeros(3), np.zeros((22, 3))]
)
def test_step_dataset_rejects_malformed_history(unstable_prior, z_hist):
    with pytest.raises(ValueError, match="z_hist"):
        build_step_dataset(unstable_prior, make_cfg(), z_hist)


def test_d_con_future_only_with_box_statistics(unstable_prior):
    ds = build_step_dataset(unstable_prior, make_cfg(), history(15))
    t, values, noise = soft_rows(ds)
    # grid times strictly after step 15 (t = 1.5): 1.6 .. 2.0
    assert t == pytest.approx([1.6, 1.7, 1.8, 1.9, 2.0])
    np.testing.assert_array_equal(values, np.zeros((5, 3)))  # box centers
    np.testing.assert_array_equal(noise, np.tile([1.0, 1.0, 2.5**2], (5, 1)))  # half-width squared
    assert len(ds) == 6


def test_d_con_asymmetric_box_center(unstable_prior):
    cfg = make_cfg(z_min=(-1.0, 0.0, -2.5), z_max=(3.0, 1.0, 2.5))
    _, values, noise = soft_rows(build_step_dataset(unstable_prior, cfg, history(19)))
    np.testing.assert_array_equal(values, [[1.0, 0.5, 0.0]])
    np.testing.assert_array_equal(noise, [[4.0, 0.25, 6.25]])


def test_d_past_window_and_exclusion_of_current(unstable_prior):
    ds = build_step_dataset(unstable_prior, make_cfg(m_p=3), history(5))
    # three most recent strictly before now (step 5), exact
    past = ds.t < 0.5 - 1e-9
    assert ds.t[past] == pytest.approx([0.2, 0.3, 0.4])
    np.testing.assert_array_equal(ds.values[past][:, 0], [2.0, 3.0, 4.0])
    np.testing.assert_array_equal(ds.noise_var[past], np.zeros((3, 3)))
    for cfg, z_hist in ((make_cfg(m_p=0), history(5)), (make_cfg(m_p=5), history(0))):
        ds = build_step_dataset(unstable_prior, cfg, z_hist)
        assert ds.t.min() == cfg.lattice[len(z_hist) - 1]


def virtual_rows(ds, k_now, cfg):
    """Times and values of the exact rows after step k_now."""
    ahead = (ds.t > cfg.lattice[k_now] + 1e-9) & np.all(ds.noise_var == 0.0, axis=1)
    return ds.t[ahead], ds.values[ahead]


def test_d_v_starts_after_both_t_v_and_now(unstable_prior):
    cfg = make_cfg(t_v=1.0)
    t, values = virtual_rows(build_step_dataset(unstable_prior, cfg, history(0)), 0, cfg)
    assert t == pytest.approx(np.arange(1.1, 2.01, 0.1))
    np.testing.assert_array_equal(values, np.tile(unstable_prior.prior_mean, (10, 1)))
    late, _ = virtual_rows(build_step_dataset(unstable_prior, cfg, history(17)), 17, cfg)
    assert late == pytest.approx([1.8, 1.9, 2.0])
    # t_v need not lie on the dt lattice
    off = make_cfg(t_v=1.05)
    t, _ = virtual_rows(build_step_dataset(unstable_prior, off, history(0)), 0, off)
    assert t[0] == pytest.approx(1.1)
    plain = make_cfg()
    t, _ = virtual_rows(build_step_dataset(unstable_prior, plain, history(0)), 0, plain)
    assert t.size == 0


def test_step_dataset_virtual_replaces_soft(unstable_prior):
    cfg = make_cfg(t_v=1.0)
    ds = build_step_dataset(unstable_prior, cfg, history(0))
    soft_t, _, _ = soft_rows(ds)
    virtual_t, _ = virtual_rows(ds, 0, cfg)
    assert len(soft_t) == 10  # 0.1 .. 1.0
    assert len(virtual_t) == 10  # 1.1 .. 2.0
    assert soft_t.max() < virtual_t.min()
    # one row per grid time plus the current observation, no duplicates
    assert len(ds) == 21
    np.testing.assert_array_equal(ds.t, np.concatenate([[0.0], soft_t, virtual_t]))
    # virtual points are exact, soft points are not
    by_t = dict(zip(ds.t.tolist(), ds.noise_var.tolist()))
    assert by_t[2.0] == [0.0, 0.0, 0.0]
    assert by_t[0.5] == [1.0, 1.0, 6.25]


def test_initial_dataset_virtual_switch(unstable_prior):
    # the fit dataset is step 0's without virtual points: t_v alone places
    # them, so it is step 0 of the config without t_v
    cfg = make_cfg(t_v=1.0, m_p=5)
    z0 = [cfg.x0 + cfg.u0]
    with_v = build_step_dataset(unstable_prior, cfg, z0)
    without_v = initial_dataset(unstable_prior, cfg)
    late = with_v.t > 1.0
    assert np.all(with_v.noise_var[late] == 0.0)
    # every virtual time reverts to a soft constraint point
    assert np.all(without_v.noise_var[without_v.t > 0.0] > 0.0)
    np.testing.assert_array_equal(with_v.t, without_v.t)
    np.testing.assert_array_equal(without_v.values[0], z0[0])
    # with or without t_v, the fit dataset is step 0 of the same config
    # without it
    plain = make_cfg(m_p=5)
    a = build_step_dataset(unstable_prior, plain, z0)
    for c in (cfg, plain):
        b = initial_dataset(unstable_prior, c)
        for name in ("t", "values", "noise_var"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------


def test_mpc_step_returns_piecewise_linear(unstable_prior):
    # SUBGRID_COUNT + 1 knots spread evenly over [t_k, t_k + dt], each the
    # mean of the control channel there, of the posterior on the step's own
    # dataset; the std is that posterior's at the last knot, t_next, and the
    # boost is the one its factorization needed
    cfg = make_cfg()
    signal, std_next, boost = mpc_step(unstable_prior, cfg, Hyperparams(), history(0))
    gp = PosteriorGp(unstable_prior, build_step_dataset(unstable_prior, cfg, history(0)), Hyperparams())
    assert np.array_equal(signal.knot_times, np.linspace(0.0, 0.1, SUBGRID_COUNT + 1))
    assert signal.knot_values.shape == (SUBGRID_COUNT + 1, 1)
    np.testing.assert_allclose(
        signal.knot_values[:, 0], gp.mean(signal.knot_times)[:, 2], atol=1e-12
    )
    assert std_next.shape == (3,)
    assert np.array_equal(std_next, gp.std(np.array([0.1]))[0])
    assert boost == gp.jitter_boost == 0.0


def test_mpc_step_knots_start_at_the_current_step(unstable_prior):
    # a later step's knots are the same linspace over its own interval
    # [t_7, t_7 + dt], and its first knot pins the current input
    cfg = make_cfg()
    z_now = np.array([0.7, -0.2, 0.3])
    signal, _, _ = mpc_step(unstable_prior, cfg, Hyperparams(), history(7, z_now))
    t_now = cfg.lattice[7]
    assert np.array_equal(signal.knot_times, np.linspace(t_now, t_now + cfg.dt, SUBGRID_COUNT + 1))
    np.testing.assert_allclose(signal.value(t_now), z_now[2:], atol=1e-4)


def test_mpc_step_pins_current_observation(unstable_prior):
    # the plan must pass through the current (t, z): exact-data conditioning
    cfg = make_cfg()
    z_now = np.array([0.7, -0.2, 0.3])
    gp = PosteriorGp(unstable_prior, build_step_dataset(unstable_prior, cfg, history(5, z_now)), Hyperparams())
    at_now = gp.mean([0.5])[0]
    np.testing.assert_allclose(at_now, z_now, atol=1e-4)


def test_mpc_step_evaluates_each_kernel_grid_once(unstable_prior, monkeypatch):
    # one dataset; the Gram's lag table, the cross kernel at the mean's
    # query times, and the std's: its prior variance is the one-point lag-0
    # term, and its data term its own one-row cross kernel at t_next.  With
    # the run's table, whose kernel is frozen at these hyperparameters, the
    # Gram evaluates none.
    cfg = make_cfg()
    data = build_step_dataset(unstable_prior, cfg, history(0))
    table = run_lag_table(unstable_prior, cfg, Hyperparams())
    calls, datasets = [], []
    eval_blocks, post_init = OperatorKernel.eval_blocks, Dataset.__post_init__

    def counted(self, ts, tps, hp, rows=slice(None)):
        calls.append((np.atleast_1d(ts), np.atleast_1d(tps), rows))
        return eval_blocks(self, ts, tps, hp, rows)

    def built(self):
        datasets.append(self)
        post_init(self)

    monkeypatch.setattr(OperatorKernel, "eval_blocks", counted)
    monkeypatch.setattr(Dataset, "__post_init__", built)
    _, std_next, _ = mpc_step(unstable_prior, cfg, Hyperparams(), history(0))
    assert len(datasets) == 1
    lags, cross, lag0, std_cross = calls
    calls.clear()
    _, std_tabled, _ = mpc_step(unstable_prior, cfg, Hyperparams(), history(0), table)
    monkeypatch.undo()
    assert len(datasets) == 2
    assert np.array_equal(lags[0], np.unique(data.t[:, None] - data.t))
    assert lags[1].tolist() == [0.0]
    t_next = cfg.lattice[1]
    for cross, lag0, std_cross in ((cross, lag0, std_cross), calls):
        # the mean's cross kernel is evaluated at the input channel alone
        assert np.array_equal(cross[1], data.t) and cross[2].tolist() == [2]
        assert lag0[2] == std_cross[2] == slice(None)
        assert lag0[0].tolist() == [0.0] and lag0[1].tolist() == [0.0]
        assert std_cross[0].tolist() == [t_next] and np.array_equal(std_cross[1], data.t)
    fresh = PosteriorGp(unstable_prior, data, Hyperparams()).std([0.1])
    assert np.array_equal(std_next, fresh[0])
    assert np.array_equal(std_tabled, fresh[0])


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------


def test_closed_loop_at_equilibrium_stays_put(unstable_prior):
    # starting exactly at the reference, the sensible plan is: do nothing
    cfg = make_cfg(x0=(0.0, 0.0))
    plant = Plant([[0.0, 1.0], [1.0, 1.0]], [[0.0], [1.0]])
    traj = run_closed_loop(unstable_prior, plant, cfg, Hyperparams())
    assert np.max(np.abs(traj.states)) <= 1e-6
    assert np.max(np.abs(traj.controls)) <= 1e-6
    assert traj.constraint_error == 0.0
    assert traj.control_error <= 1e-12


def test_closed_loop_shapes_and_bookkeeping(unstable_prior, monkeypatch):
    cfg = make_cfg()
    plant = Plant([[0.0, 1.0], [1.0, 1.0]], [[0.0], [1.0]])
    seen = []

    def step(prior, cfg, hp, z_hist, table):
        seen.append(len(z_hist))
        return mpc_step(prior, cfg, hp, z_hist, table)

    monkeypatch.setattr(controller, "mpc_step", step)
    traj = run_closed_loop(unstable_prior, plant, cfg, Hyperparams())
    assert traj.times.shape == (21,)
    assert traj.states.shape == (21, 2)
    assert traj.controls.shape == (21, 1)
    assert traj.stds.shape == (21, 3)
    np.testing.assert_array_equal(traj.states[0], [1.0, 0.0])
    np.testing.assert_array_equal(traj.controls[0], [0.0])
    # row 0 is given, not inferred: its std is exactly 0 (finite, for the CSV)
    assert np.array_equal(traj.stds[0], np.zeros(3))
    # step k sees the observations of steps 0..k
    assert seen == list(range(1, 21))
    assert traj.constraint_error is not None
    assert traj.control_error is not None
    assert (traj.jitter_escalations, traj.max_jitter_boost) == (0, 0.0)
    assert np.all(traj.stds >= 0.0)


def test_closed_loop_steps_replay_bit_for_bit(unstable_prior, monkeypatch):
    # the trajectory is the loop's only state: replaying step k on the
    # recorded z[:k+1], without the run's lag table, gives back its control
    # and std exactly; all four dataset blocks are in play.  The run factors
    # each step's Gram once.
    cfg = make_cfg(m_p=5, t_v=1.0)
    plant = Plant([[0.0, 1.0], [1.0, 1.0]], [[0.0], [1.0]])
    hp = Hyperparams(signal_variance=0.3, lengthscale_sq=0.9, jitter=1e-9)
    factored = []
    original = gpcore.cho_factor

    def counted(a, **kw):
        factored.append(a.shape)
        return original(a, **kw)

    monkeypatch.setattr(gpcore, "cho_factor", counted)
    traj = run_closed_loop(unstable_prior, plant, cfg, hp)
    monkeypatch.undo()
    assert len(factored) == cfg.n_steps
    for k in range(cfg.n_steps):
        signal, std_next, boost = mpc_step(unstable_prior, cfg, hp, traj.z[: k + 1])
        assert np.array_equal(traj.controls[k + 1], signal.value(traj.times[k + 1]))
        assert np.array_equal(traj.stds[k + 1], std_next)
        assert boost == 0.0


def test_closed_loop_without_a_run_table_is_bit_identical(unstable_prior, monkeypatch):
    # a run past MAX_TABLE_TIMES builds no table, and its steps gather from
    # tables over their own times: the same trajectory, bit for bit
    cfg = make_cfg(m_p=5, t_v=1.0)
    plant = Plant([[0.0, 1.0], [1.0, 1.0]], [[0.0], [1.0]])
    hp = Hyperparams(signal_variance=0.3, lengthscale_sq=0.9, jitter=1e-9)
    assert run_lag_table(unstable_prior, cfg, hp) is not None
    with_table = run_closed_loop(unstable_prior, plant, cfg, hp)
    monkeypatch.setattr(controller, "MAX_TABLE_TIMES", 20)
    assert run_lag_table(unstable_prior, cfg, hp) is None
    without = run_closed_loop(unstable_prior, plant, cfg, hp)
    for name in ("times", "states", "controls", "stds"):
        assert np.array_equal(getattr(with_table, name), getattr(without, name)), name


def test_closed_loop_evaluates_its_lag_table_once(unstable_prior, monkeypatch):
    # the run's table is evaluated once; each step then evaluates only its
    # mean's cross kernel, its std's one-row cross kernel and its lag-0
    # variance; row 0, the given initial condition, evaluates none
    cfg = make_cfg()
    plant = Plant([[0.0, 1.0], [1.0, 1.0]], [[0.0], [1.0]])
    calls = []
    eval_blocks = OperatorKernel.eval_blocks

    def counted(self, ts, tps, hp, rows=slice(None)):
        calls.append(np.atleast_1d(ts).size)
        return eval_blocks(self, ts, tps, hp, rows)

    monkeypatch.setattr(OperatorKernel, "eval_blocks", counted)
    run_closed_loop(unstable_prior, plant, cfg, Hyperparams())
    monkeypatch.undo()
    table = run_lag_table(unstable_prior, cfg, Hyperparams())
    assert calls[0] == table.lags.size
    assert len(calls) == 1 + 3 * cfg.n_steps
    # the lattice floats and the grid's own, which are not all lattice floats
    assert table.times.tolist() == sorted(set(cfg.lattice.tolist()) | set(cfg.constraint_grid))


def test_run_table_gathers_every_step_gram_bit_for_bit(bundled_runs, dense6_run):
    # every step dataset of the bundled trio and of the dense 6-state
    # benchmark system: the run's table gives the Gram and residual of a
    # table over the step's own times.  The Gram depends on the dataset's
    # times, masks and noise alone, so random histories stand in for runs.
    rng = np.random.default_rng(3)
    for name, run in [*bundled_runs.items(), ("dense6", dense6_run)]:
        cfg, prior = run.cfg.controller, run.prior
        hp = Hyperparams(0.289, 0.916, jitter=run.cfg.jitter)
        table = run_lag_table(prior, cfg, hp)
        assert table.times.size == 128, name
        z = rng.normal(0.0, 1.0, (cfg.n_steps + 1, cfg.n_z))
        for k in range(cfg.n_steps):
            data = build_step_dataset(prior, cfg, z[: k + 1])
            for got, want in zip(assemble_gram(prior, data, hp, table), assemble_gram(prior, data, hp)):
                assert np.array_equal(got, want), (name, k)


def test_dense6_run_needs_no_jitter_boost(dense6_run):
    traj = dense6_run.traj
    assert (traj.jitter_escalations, traj.max_jitter_boost) == (0, 0.0)


def test_step_grams_equal_their_transpose_bit_for_bit(unstable_prior, bundled_runs, dense6_run):
    # the factorization reads gram.T, in place, as the same matrix: every
    # gathered Gram, through the run's table or its own, is exactly
    # symmetric, down to the sign of a zero
    cases = []
    for run in bundled_runs.values():
        cfg = run.cfg.controller
        hp = Hyperparams(0.289, 0.916, jitter=run.cfg.jitter)
        cases.append((run.prior, cfg, hp, [cfg.x0 + cfg.u0]))
    cfg, prior, hp, traj = dense6_run.cfg.controller, dense6_run.prior, dense6_run.hp, dense6_run.traj
    cases += [(prior, cfg, hp, traj.z[: k + 1]) for k in (0, 50)]
    masked = history(6, z_now=(np.nan, 0.2, 0.1))
    masked[3, 2] = np.nan
    cases.append((unstable_prior, make_cfg(m_p=4, t_v=1.0), Hyperparams(), masked))
    for prior, cfg, hp, z_hist in cases:
        data = build_step_dataset(prior, cfg, z_hist)
        for table in (run_lag_table(prior, cfg, hp), None):
            gram, _ = assemble_gram(prior, data, hp, table)
            assert np.array_equal(gram.view(np.int64), gram.T.view(np.int64))
    assert data.slots.size < data.values.size


def test_step_datasets_are_written_in_time_order(monkeypatch, bundled_runs, dense6_run):
    # the builder writes its rows in the Gram's order, so Dataset's sort is
    # the identity on the step path: every step of regulation_virtual (the
    # past window, soft box points and virtual pins) and dense6 steps with
    # an empty, a partial and a full past window
    seen = []

    def recorder(t, values, noise_var):
        seen.append((np.asarray(t), np.asarray(noise_var)))
        return Dataset(t, values, noise_var)

    monkeypatch.setattr(controller, "Dataset", recorder)
    virtual = bundled_runs["virtual"]
    cfg, prior, system = virtual.cfg.controller, virtual.prior, virtual.cfg.system
    hp = Hyperparams(0.289, 0.916, jitter=virtual.cfg.jitter)
    run_closed_loop(prior, Plant(system.A, system.B), cfg, hp)
    assert len(seen) == cfg.n_steps
    t, noise = seen[0]  # soft points up to t_v, pins after it
    assert np.any(noise > 0) and np.any(t > cfg.t_v) and len(seen[-1][0]) == cfg.m_p + 2
    for k in (0, 20, 99):
        build_step_dataset(dense6_run.prior, dense6_run.cfg.controller, dense6_run.traj.z[: k + 1])
    assert [len(t) for t, _ in seen[-3:]] == [101, 101, 22]
    for k, (t, _) in enumerate(seen):
        assert np.all(np.diff(t) > 0), k


def test_dense6_step_holds_one_gram(dense6_run):
    # the Gram is factored where it is gathered: a dense6 step peaks at one
    # n x n array and its query buffers, not at a Gram plus a copy (2.0x)
    cfg, prior, hp = dense6_run.cfg.controller, dense6_run.prior, dense6_run.hp
    z_hist = [cfg.x0 + cfg.u0]
    n = build_step_dataset(prior, cfg, z_hist).slots.size
    table = run_lag_table(prior, cfg, hp)
    mpc_step(prior, cfg, hp, z_hist, table)
    tracemalloc.start()
    try:
        mpc_step(prior, cfg, hp, z_hist, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 707 and peak <= 1.4 * 8 * n * n


def _assert_inputs_mean_is_full_mean(cfg, prior, hp, z_hist):
    # the control law reads the input channels' mean alone: bit for bit
    # the columns of the full mean at its knots
    signal, _, _ = mpc_step(prior, cfg, hp, z_hist)
    gp = PosteriorGp(prior, build_step_dataset(prior, cfg, z_hist), hp)
    inputs = np.arange(cfg.n_x, cfg.n_z)
    full = gp.mean(signal.knot_times)
    assert np.array_equal(gp.mean(signal.knot_times, inputs), full[:, inputs])
    assert np.array_equal(signal.knot_values, full[:, inputs])


def test_mean_at_the_input_channels_is_bit_identical(bundled_runs, two_input_run, dense6_run):
    # the mean evaluates the cross kernel at the input rows only, but
    # multiplies alpha by the full-shape cross kernel: a product over the
    # read rows alone rounds differently; dense6 at some steps, and two inputs
    assert two_input_run.cfg.controller.n_u == 2
    for run, steps in ((bundled_runs["virtual"], None), (dense6_run, (0, 20, 50, 99)), (two_input_run, None)):
        cfg = run.cfg.controller
        for k in steps or range(cfg.n_steps):
            _assert_inputs_mean_is_full_mean(cfg, run.prior, run.hp, run.traj.z[: k + 1])


def test_step_cost_rises_by_at_most_the_plant_mismatch(bundled_runs, two_input_run, dense6_run):
    # The paper's stability claim, step by step.  Step k+1's data are step
    # k's less the grid point at t_{k+1} and the oldest past row, plus the
    # exact observation z_{k+1}, so step k's mean is a feasible plan for
    # step k+1, and V_{k+1} <= V_k + misfit_k (conftest.step_costs).  Both
    # steps must weigh an exact row by the one jitter: no step is boosted.
    # Float tolerance: 1e-9 relative to V_k + misfit_k.
    for run in [*bundled_runs.values(), two_input_run, dense6_run]:
        cfg = run.cfg.controller
        costs, misfits, boosts = step_costs(run.prior, cfg, run.hp, run.traj.z)
        assert not boosts.any(), boosts
        bound = costs[:-1] + misfits[:-1]
        slack = (bound - costs[1:]) / bound
        assert costs.size == cfg.n_steps and np.all(slack >= -1e-9), (cfg, slack.min())


def _exact_piecewise_linear(a, b, x, signal):
    """Exact flow over a piecewise-linear input: per knot interval, one
    matrix exponential of the state augmented with the input and its slope."""
    n_x, n_u = b.shape
    knots, vals = np.array(signal.knot_times), np.array(signal.knot_values)
    gen = np.zeros((n_x + 2 * n_u,) * 2)
    gen[:n_x, :n_x] = a
    gen[:n_x, n_x : n_x + n_u] = b
    gen[n_x : n_x + n_u, n_x + n_u :] = np.eye(n_u)
    for k in range(knots.size - 1):
        h = knots[k + 1] - knots[k]
        slope = (vals[k + 1] - vals[k]) / h
        x = (expm(gen * h) @ np.concatenate([x, vals[k], slope]))[:n_x]
    return x


def test_closed_loop_plant_substeps_follow_subgrid_knots(unstable_prior):
    # RK4 substeps must not straddle a knot kink of the plan: each step
    # then matches the exact piecewise-linear flow
    cfg = make_cfg()
    plant = Plant([[0.0, 1.0], [1.0, 1.0]], [[0.0], [1.0]])
    hp = Hyperparams()
    traj = run_closed_loop(unstable_prior, plant, cfg, hp)
    for i in range(cfg.n_steps):
        sig, _, _ = mpc_step(unstable_prior, cfg, hp, traj.z[: i + 1])
        want = _exact_piecewise_linear(plant.A, plant.B, traj.states[i], sig)
        assert np.max(np.abs(traj.states[i + 1] - want)) <= 1e-9


def test_closed_loop_regulates_the_unstable_plant(unstable_prior):
    # over the same 4 seconds the free plant grows past norm 100; the
    # controlled state must instead shrink and stay bounded
    cfg = make_cfg(
        t_end=4.0,
        constraint_grid=tuple(np.round(np.arange(0.1, 4.01, 0.1), 10)),
    )
    plant = Plant([[0.0, 1.0], [1.0, 1.0]], [[0.0], [1.0]])
    hp = Hyperparams(signal_variance=0.3, lengthscale_sq=0.9, jitter=1e-9)
    traj = run_closed_loop(unstable_prior, plant, cfg, hp)
    assert np.linalg.norm(traj.states[-1]) < 1.0
    assert np.max(np.abs(traj.states)) < 2.0
    free = step_exact(plant.A, plant.B, [1.0, 0.0], [0.0], 4.0)
    assert np.linalg.norm(free) > 100.0


def test_closed_loop_divergence_aborts():
    # a plant with much stronger dynamics than the model the prior encodes:
    # the mismatch destabilizes the loop and the guard must trip
    model = build_prior(
        LinearSystem(A=[[0.0, 1.0], [1.0, 1.0]], B=[[0.0], [1.0]]),
        x_ref=[0.0, 0.0],
    )
    wild = Plant([[0.0, 1.0], [25.0, 5.0]], [[0.0], [0.2]])
    cfg = make_cfg(
        t_end=6.0,
        constraint_grid=tuple(np.round(np.arange(0.1, 6.01, 0.1), 10)),
    )
    with pytest.raises(PlantDivergenceError):
        run_closed_loop(model, wild, cfg, Hyperparams())


def test_closed_loop_zero_steps(unstable_prior):
    cfg = make_cfg(t_end=0.0, constraint_grid=())
    plant = Plant([[0.0, 1.0], [1.0, 1.0]], [[0.0], [1.0]])
    traj = run_closed_loop(unstable_prior, plant, cfg, Hyperparams())
    assert traj.times.shape == (1,)
    np.testing.assert_array_equal(traj.states[0], [1.0, 0.0])
    assert np.array_equal(traj.stds, np.zeros((1, 3)))
    assert traj.constraint_error == 0.0


def test_closed_loop_holds_one_posterior_at_a_time(unstable_prior, monkeypatch):
    # mpc_step frees its posterior on return: when a step factors its Gram,
    # its own posterior is the only one alive, so the loop never holds two
    # Cholesky factors
    cfg = make_cfg(m_p=5, t_v=1.0)
    plant = Plant([[0.0, 1.0], [1.0, 1.0]], [[0.0], [1.0]])
    live, alive_at_factor = weakref.WeakSet(), []
    init, factor = PosteriorGp.__init__, gpcore.cho_factor

    def tracked(self, *args, **kw):
        live.add(self)
        init(self, *args, **kw)

    def counted(a, **kw):
        alive_at_factor.append(len(live))
        return factor(a, **kw)

    monkeypatch.setattr(PosteriorGp, "__init__", tracked)
    monkeypatch.setattr(gpcore, "cho_factor", counted)
    run_closed_loop(unstable_prior, plant, cfg, Hyperparams())
    assert alive_at_factor == [1] * cfg.n_steps


def test_closed_loop_rejects_mismatched_plant(unstable_prior):
    cfg = make_cfg()
    with pytest.raises(ValueError):
        run_closed_loop(unstable_prior, Plant([[0.0]], [[1.0]]), cfg, Hyperparams())


def test_posterior_from_trajectory_reconstructs_run(unstable_prior):
    # the reconstruction passes near the recorded samples (pin accuracy is
    # bounded by jitter times the representer-weight scale) and, unlike the
    # raw records, is differentiable and consistent with the dynamics
    cfg = make_cfg()
    plant = Plant([[0.0, 1.0], [1.0, 1.0]], [[0.0], [1.0]])
    hp = Hyperparams(signal_variance=0.3, lengthscale_sq=0.9, jitter=1e-9)
    traj = run_closed_loop(unstable_prior, plant, cfg, hp)
    gp = posterior_from_trajectory(unstable_prior, traj, hp)
    recon = gp.mean(traj.times)
    assert np.max(np.abs(recon - traj.z)) <= 1e-2
    h = 1e-3
    tq = np.arange(0.1, 1.9 + h / 2, h)
    xdot = (gp.mean(tq + h)[:, :2] - gp.mean(tq - h)[:, :2]) / (2 * h)
    mid = gp.mean(tq)
    rhs = mid[:, :2] @ plant.A.T + mid[:, 2:] @ plant.B.T
    assert np.max(np.abs(xdot - rhs)) <= 1e-3
    # strided variant conditions on fewer points but the same run
    sparse = posterior_from_trajectory(unstable_prior, traj, hp, stride=4)
    assert len(sparse.data) == 6
