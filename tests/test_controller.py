"""Receding-horizon loop: config validation, dataset assembly, stepping."""

import numpy as np
import pytest
from scipy.linalg import expm

from lodempc.controller import (
    ControllerConfig,
    ControllerState,
    PlantDivergenceError,
    build_step_dataset,
    initial_dataset,
    make_d_con,
    make_d_init,
    make_d_past,
    make_d_v,
    mpc_step,
    posterior_from_trajectory,
    run_closed_loop,
)
from lodempc.gpcore import PosteriorGp
from lodempc.kernelops import Hyperparams, OperatorKernel
from lodempc.lodegp import LinearSystem, build_prior
from lodempc.plant import Plant, step_exact


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
    assert cfg.grid_time(3) == pytest.approx(0.3)


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
        {"control_application": "zeroth_order_hold"},
        {"subgrid_count": 0},
        {"constraint_grid": (0.2, 0.1)},  # not increasing
        {"constraint_grid": (0.15,)},  # off the dt lattice
    ],
)
def test_config_rejects_inconsistencies(overrides):
    with pytest.raises(ValueError):
        make_cfg(**overrides)


def test_config_accepts_degenerate_horizon():
    cfg = make_cfg(t_end=0.0, constraint_grid=())
    assert cfg.n_steps == 0


# ---------------------------------------------------------------------------
# Dataset fragments
# ---------------------------------------------------------------------------


def test_d_init_is_single_exact_point():
    ds = make_d_init(0.5, (1.0, None, 2.0))
    assert len(ds) == 1
    assert ds.t.tolist() == [0.5]
    np.testing.assert_array_equal(ds.values, [[1.0, np.nan, 2.0]])
    np.testing.assert_array_equal(ds.noise_var, [[0.0, 0.0, 0.0]])


def test_d_con_future_only_with_box_statistics():
    cfg = make_cfg()
    ds = make_d_con(cfg, k_now=15)
    # grid times strictly after step 15 (t = 1.5): 1.6 .. 2.0
    assert ds.t == pytest.approx([1.6, 1.7, 1.8, 1.9, 2.0])
    np.testing.assert_array_equal(ds.values[0], [0.0, 0.0, 0.0])  # box centers
    np.testing.assert_array_equal(ds.noise_var[0], [1.0, 1.0, 2.5**2])  # half-width squared


def test_d_con_variance_flag_uses_half_width_directly():
    cfg = make_cfg(constraint_noise_is_variance=True)
    ds = make_d_con(cfg, k_now=19)
    np.testing.assert_array_equal(ds.noise_var, [[1.0, 1.0, 2.5]])


def test_d_con_asymmetric_box_center():
    cfg = make_cfg(z_min=(-1.0, 0.0, -2.5), z_max=(3.0, 1.0, 2.5))
    ds = make_d_con(cfg, k_now=19)
    np.testing.assert_array_equal(ds.values, [[1.0, 0.5, 0.0]])
    np.testing.assert_array_equal(ds.noise_var, [[4.0, 0.25, 6.25]])


def test_d_past_window_and_exclusion_of_current():
    state = ControllerState()
    for k in range(6):
        state.observe(k, np.array([k, 0.0, 0.0]))
    ds = make_d_past(make_cfg(m_p=3), state)
    # three most recent strictly before now (step 5), exact
    assert ds.t == pytest.approx([0.2, 0.3, 0.4])
    np.testing.assert_array_equal(ds.values[:, 0], [2.0, 3.0, 4.0])
    np.testing.assert_array_equal(ds.noise_var, np.zeros((3, 3)))
    assert len(make_d_past(make_cfg(m_p=0), state)) == 0
    fresh = ControllerState()
    fresh.observe(0, np.zeros(3))
    assert len(make_d_past(make_cfg(m_p=5), fresh)) == 0


def test_d_v_starts_after_both_t_v_and_now():
    cfg = make_cfg(t_v=1.0)
    ds = make_d_v(cfg, k_now=0, z_ref=np.zeros(3))
    assert ds.t[0] == pytest.approx(1.1)
    assert ds.t[-1] == pytest.approx(2.0)
    np.testing.assert_array_equal(ds.values, np.zeros((10, 3)))
    np.testing.assert_array_equal(ds.noise_var, np.zeros((10, 3)))
    late = make_d_v(cfg, k_now=17, z_ref=np.zeros(3))
    assert late.t == pytest.approx([1.8, 1.9, 2.0])
    # t_v need not lie on the dt lattice
    off = make_d_v(make_cfg(t_v=1.05), k_now=0, z_ref=np.zeros(3))
    assert off.t[0] == pytest.approx(1.1)
    assert len(make_d_v(make_cfg(), k_now=0, z_ref=np.zeros(3))) == 0


def test_step_dataset_virtual_replaces_soft(unstable_prior):
    cfg = make_cfg(t_v=1.0)
    state = ControllerState()
    state.observe(0, np.array([1.0, 0.0, 0.0]))
    ds = build_step_dataset(unstable_prior, state, cfg)
    con = make_d_con(cfg, k_now=0)
    virtual = make_d_v(cfg, k_now=0, z_ref=np.zeros(3))
    assert len(con) == 10  # 0.1 .. 1.0
    assert len(virtual) == 10  # 1.1 .. 2.0
    assert con.t.max() < virtual.t.min()
    # one row per grid time plus the current observation, no duplicates
    assert len(ds) == 21
    np.testing.assert_array_equal(ds.t, np.concatenate([[0.0], con.t, virtual.t]))
    # virtual points are exact, soft points are not
    by_t = dict(zip(ds.t.tolist(), ds.noise_var.tolist()))
    assert by_t[2.0] == [0.0, 0.0, 0.0]
    assert by_t[0.5] == [1.0, 1.0, 6.25]


def test_initial_dataset_virtual_switch(unstable_prior):
    cfg = make_cfg(t_v=1.0, m_p=5)
    with_v = initial_dataset(unstable_prior, cfg)
    without_v = initial_dataset(unstable_prior, cfg, include_virtual=False)
    late = with_v.t > 1.0
    assert np.all(with_v.noise_var[late] == 0.0)
    # every virtual time reverts to a soft constraint point
    assert np.all(without_v.noise_var[without_v.t > 0.0] > 0.0)
    np.testing.assert_array_equal(with_v.t, without_v.t)
    # switch is a no-op when there are no virtual points to begin with
    plain = make_cfg()
    a = initial_dataset(unstable_prior, plain)
    b = initial_dataset(unstable_prior, plain, include_virtual=False)
    np.testing.assert_array_equal(a.t, b.t)
    np.testing.assert_array_equal(a.noise_var, b.noise_var)


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------


def test_mpc_step_hold_returns_constant_signal(unstable_prior):
    cfg = make_cfg()
    state = ControllerState()
    state.observe(0, np.array([1.0, 0.0, 0.0]))
    signal, diag = mpc_step(unstable_prior, state, cfg, Hyperparams())
    assert signal.kind == "constant"
    assert diag.t_next == pytest.approx(0.1)
    # the held value is the posterior mean of the control channel at t_next
    want = diag.posterior.mean(np.array([0.1]))[0, 2]
    np.testing.assert_allclose(signal.value(0.1), [want])
    assert diag.mean_next.shape == (3,)
    assert diag.std_next.shape == (3,)


def test_mpc_step_subgrid_returns_piecewise_linear(unstable_prior):
    cfg = make_cfg(control_application="subgrid_interpolation", subgrid_count=4)
    state = ControllerState()
    state.observe(0, np.array([1.0, 0.0, 0.0]))
    signal, diag = mpc_step(unstable_prior, state, cfg, Hyperparams())
    assert signal.kind == "piecewise_linear"
    assert len(signal.knot_times) == 5
    assert signal.knot_times[0] == pytest.approx(0.0)
    assert signal.knot_times[-1] == pytest.approx(0.1)
    knots = np.array(signal.knot_times)
    np.testing.assert_allclose(
        np.array(signal.knot_values)[:, 0],
        diag.posterior.mean(knots)[:, 2],
        atol=1e-12,
    )


def test_mpc_step_pins_current_observation(unstable_prior):
    # the plan must pass through the current (t, z): exact-data conditioning
    cfg = make_cfg()
    state = ControllerState()
    z_now = np.array([0.7, -0.2, 0.3])
    state.observe(5, z_now)
    _, diag = mpc_step(unstable_prior, state, cfg, Hyperparams())
    at_now = diag.posterior.mean(np.array([0.5]))[0]
    np.testing.assert_allclose(at_now, z_now, atol=1e-4)


@pytest.mark.parametrize("application", ["hold_endpoint", "subgrid_interpolation"])
def test_mpc_step_evaluates_each_kernel_grid_once(unstable_prior, monkeypatch, application):
    # the Gram's lag table and the cross kernel at the mean's query times:
    # the std at t_next reuses the mean's rows, and its prior variance is
    # the one-point lag-0 term
    cfg = make_cfg(control_application=application, subgrid_count=4)
    state = ControllerState()
    state.observe(0, np.array([1.0, 0.0, 0.0]))
    calls = []
    eval_blocks = OperatorKernel.eval_blocks

    def counted(self, ts, tps, hp):
        calls.append((np.atleast_1d(ts), np.atleast_1d(tps)))
        return eval_blocks(self, ts, tps, hp)

    monkeypatch.setattr(OperatorKernel, "eval_blocks", counted)
    _, diag = mpc_step(unstable_prior, state, cfg, Hyperparams())
    lags, cross, lag0 = calls
    data_t = diag.dataset.t
    assert np.array_equal(lags[0], np.unique(data_t[:, None] - data_t))
    assert lags[1].tolist() == [0.0]
    assert np.array_equal(cross[1], data_t)
    assert lag0[0].tolist() == [0.0] and lag0[1].tolist() == [0.0]
    fresh = PosteriorGp(unstable_prior, diag.dataset, Hyperparams()).std([diag.t_next])
    assert np.array_equal(diag.std_next, fresh[0])


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


def test_closed_loop_shapes_and_bookkeeping(unstable_prior):
    cfg = make_cfg()
    plant = Plant([[0.0, 1.0], [1.0, 1.0]], [[0.0], [1.0]])
    hooks = []

    def hook(state, signal, diag):
        hooks.append((state.k_now, len(diag.dataset)))

    traj = run_closed_loop(unstable_prior, plant, cfg, Hyperparams(), step_hook=hook)
    assert traj.times.shape == (21,)
    assert traj.states.shape == (21, 2)
    assert traj.controls.shape == (21, 1)
    assert traj.stds.shape == (21, 3)
    np.testing.assert_array_equal(traj.states[0], [1.0, 0.0])
    np.testing.assert_array_equal(traj.controls[0], [0.0])
    assert len(hooks) == 20
    assert hooks[0][0] == 0
    assert hooks[-1][0] == 19
    assert traj.constraint_error is not None
    assert traj.control_error is not None
    assert np.all(traj.stds >= 0.0)


def test_closed_loop_recorded_control_is_applied_value(unstable_prior):
    cfg = make_cfg()
    plant = Plant([[0.0, 1.0], [1.0, 1.0]], [[0.0], [1.0]])
    signals = []
    run = run_closed_loop(
        unstable_prior,
        plant,
        cfg,
        Hyperparams(),
        step_hook=lambda s, sig, d: signals.append(sig),
    )
    for i, sig in enumerate(signals):
        np.testing.assert_allclose(run.controls[i + 1], sig.value(run.times[i + 1]))


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
    # with 4 knots per step, RK4 substeps must not straddle a knot kink:
    # each step then matches the exact piecewise-linear flow (ten
    # straddling substeps are off by about 1e-6 here)
    cfg = make_cfg(control_application="subgrid_interpolation", subgrid_count=4)
    plant = Plant([[0.0, 1.0], [1.0, 1.0]], [[0.0], [1.0]])
    signals = []
    traj = run_closed_loop(
        unstable_prior, plant, cfg, Hyperparams(), step_hook=lambda s, sig, d: signals.append(sig)
    )
    for i, sig in enumerate(signals):
        want = _exact_piecewise_linear(plant.A, plant.B, traj.states[i], sig)
        assert np.max(np.abs(traj.states[i + 1] - want)) <= 1e-9


def test_closed_loop_regulates_the_unstable_plant(unstable_prior):
    # over the same 4 seconds the free plant grows past norm 100; the
    # controlled state must instead shrink and stay bounded
    cfg = make_cfg(
        t_end=4.0,
        constraint_grid=tuple(np.round(np.arange(0.1, 4.01, 0.1), 10)),
        control_application="subgrid_interpolation",
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
    assert traj.constraint_error == 0.0


def test_closed_loop_rejects_mismatched_plant(unstable_prior):
    cfg = make_cfg()
    with pytest.raises(ValueError):
        run_closed_loop(unstable_prior, Plant([[0.0]], [[1.0]]), cfg, Hyperparams())


def test_posterior_from_trajectory_reconstructs_run(unstable_prior):
    # the reconstruction passes near the recorded samples (pin accuracy is
    # bounded by jitter times the representer-weight scale) and, unlike the
    # raw records, is differentiable and consistent with the dynamics
    cfg = make_cfg(control_application="subgrid_interpolation")
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
