"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single ``criterion N: PASS/FAIL`` line summarizing the
measured quantities against the frozen tolerances (visible with ``-s``;
pytest -v adds its own one-line verdict per test either way).  The three
bundled regulation configs are run once per session and shared.
"""

import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lodempc.config import load_config
from lodempc.controller import (
    initial_dataset,
    run_closed_loop,
)
from lodempc.gpcore import (
    Dataset,
    PosteriorGp,
    assemble_gram,
    log_marginal_likelihood,
    optimize_hyperparams,
)
from lodempc.kernelops import Hyperparams, apply_symbol
from lodempc.lodegp import LinearSystem, build_h, build_prior
from lodempc.plant import Plant
from lodempc.polyalg import D, ONE, ZERO, PolyMatrix, smith_normal_form

from conftest import (
    determinant,
    entry_symbol,
    evaluate_term,
    held,
    left_transform,
    posterior_from_trajectory,
    rk4_by_value,
    smith_v,
    step_exact,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
BENCH = LinearSystem(A=[[0.0, 1.0], [1.0, 1.0]], B=[[0.0], [1.0]])
RUN_NAMES = ("baseline", "past", "virtual")


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def bundled_runs():
    """The three shipped regulation experiments, run through the same code
    path as the command-line `run` subcommand."""
    runs = {}
    for name in RUN_NAMES:
        cfg = load_config(CONFIG_DIR / f"regulation_{name}.json")
        prior = build_prior(cfg.system, cfg.controller.x_ref)
        start = time.perf_counter()
        fit_data = initial_dataset(prior, cfg.controller)
        hp, _ = optimize_hyperparams(
            prior,
            fit_data,
            bounds=cfg.hp_bounds,
            fixed=cfg.hp_fixed or None,
            jitter=cfg.jitter,
        )
        traj = run_closed_loop(
            prior, Plant(cfg.system.A, cfg.system.B), cfg.controller, hp
        )
        wall = time.perf_counter() - start
        runs[name] = SimpleNamespace(cfg=cfg, prior=prior, hp=hp, traj=traj, wall=wall)
    return runs


def test_criterion_1_smith_form_exact_and_fast():
    start = time.perf_counter()
    h = build_h(BENCH)
    dec = smith_normal_form(h)
    elapsed = time.perf_counter() - start

    expected = PolyMatrix.from_rows([[ONE, ZERO, ZERO], [ZERO, ONE, ZERO]])
    q = left_transform(h, dec)  # H has full row rank, so this is Smith's own Q
    det_q = determinant(q)
    v = smith_v(dec)
    det_v = determinant(v)
    problems = []
    if dec.D != expected:
        problems.append(f"D = {dec.D.to_text()!r}")
    if q @ h @ v != dec.D:
        problems.append("Q*H*V != D")
    if not (det_q.degree <= 0 and not det_q.is_zero):
        problems.append(f"det Q = {det_q}")
    if not (det_v.degree <= 0 and not det_v.is_zero):
        problems.append(f"det V = {det_v}")
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.3f}s")
    _verdict(
        1,
        not problems,
        "; ".join(problems)
        or f"D exact, unimodular Q/V (dets {det_q}, {det_v}), {elapsed * 1e3:.1f}ms",
    )


def _max_ode_residual(prior, traj, hp) -> float:
    """Central-difference defect of the smoothed run against dx = Ax + Bu."""
    post = posterior_from_trajectory(prior, traj, hp)
    lo, hi = traj.times[0] + 0.1, traj.times[-1] - 0.1
    ts = traj.times[(traj.times >= lo - 1e-9) & (traj.times <= hi + 1e-9)]
    h = 1e-3
    n_x = prior.system.n_x
    a, b = prior.system.A, prior.system.B
    mu = post.mean(ts)
    deriv = (post.mean(ts + h) - post.mean(ts - h))[:, :n_x] / (2.0 * h)
    rhs = mu[:, :n_x] @ a.T + mu[:, n_x:] @ b.T
    return float(np.max(np.abs(deriv - rhs)))


def test_criterion_2_realizations_satisfy_the_dynamics(bundled_runs):
    problems = []
    symbolic = {}
    residuals = {}
    for name, run in bundled_runs.items():
        prod = build_h(run.prior.system) @ run.prior.v_cols
        symbolic[name] = prod.is_zero
        if not prod.is_zero:
            problems.append(f"{name}: H*V != 0")
        residuals[name] = _max_ode_residual(run.prior, run.traj, run.hp)
        if residuals[name] > 1e-3:
            problems.append(f"{name}: residual {residuals[name]:.3e} > 1e-3")
    detail = ", ".join(f"{n}={residuals[n]:.2e}" for n in RUN_NAMES)
    _verdict(2, not problems, "; ".join(problems) or f"H*V = 0 exactly; max defect {detail}")


def test_criterion_3_posterior_mean_reverts_far_from_data():
    prior = build_prior(BENCH, [0.0, 0.0])
    hp = Hyperparams(signal_variance=1.0, lengthscale_sq=1.0)
    z0 = (0.5, -0.3, 0.8)
    post = PosteriorGp(prior, Dataset([0.0], [z0], np.zeros((1, 3))), hp)
    scale = float(np.max(np.abs(np.asarray(z0) - prior.prior_mean)))

    def deviation(dist: float) -> float:
        mu = post.mean(np.array([-dist, dist]))
        return float(np.max(np.abs(mu - prior.prior_mean)))

    devs = [deviation(s) for s in (8.0, 9.0, 10.0)]
    problems = []
    if devs[0] > 1e-6 * scale:
        problems.append(f"deviation at |t|=8 is {devs[0]:.3e} > {1e-6 * scale:.1e}")
    if not (devs[0] > devs[1] > devs[2]):
        problems.append(f"envelope not monotone: {devs}")
    _verdict(
        3,
        not problems,
        "; ".join(problems)
        or f"deviations {devs[0]:.1e} > {devs[1]:.1e} > {devs[2]:.1e} (tol {1e-6 * scale:.1e})",
    )


def test_criterion_4_representer_weights_match_dense_solve():
    prior = build_prior(BENCH, [0.0, 0.0])
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        hp = Hyperparams(
            signal_variance=float(rng.uniform(0.1, 3.0)),
            lengthscale_sq=float(rng.uniform(0.3, 2.5)),
        )
        n = int(rng.integers(2, 41))
        times = np.sort(rng.uniform(0.0, 8.0, n))
        values, noise = np.empty((n, 3)), np.empty((n, 3))
        for k in range(n):
            values[k] = rng.normal(0.0, 1.0, 3)
            noise[k] = rng.uniform(0.01, 0.5, 3)
            mask = rng.random(3) < 0.2
            if mask.all():
                mask[rng.integers(3)] = False
            values[k, mask] = np.nan
            noise[k, mask] = 0.0
        ds = Dataset(times, values, noise)
        gp = PosteriorGp(prior, ds, hp)
        gram, residual = assemble_gram(prior, ds, hp)
        direct = np.linalg.solve(gram, residual)
        rel = float(
            np.linalg.norm(gp.alpha - direct) / np.linalg.norm(direct)
        )
        worst = max(worst, rel)
    _verdict(4, worst <= 1e-8, f"worst relative gap {worst:.2e} over 20 datasets (tol 1e-8)")


def test_criterion_5_bundled_experiments_reproduce_the_ordering(bundled_runs):
    ce = {n: bundled_runs[n].traj.constraint_error for n in RUN_NAMES}
    xe = {n: bundled_runs[n].traj.control_error for n in RUN_NAMES}
    walls = {n: bundled_runs[n].wall for n in RUN_NAMES}
    problems = []
    for n in RUN_NAMES:
        if ce[n] > 0.01:
            problems.append(f"{n}: constraint error {ce[n]:.4f} > 0.01")
        if not (0.03 <= xe[n] <= 0.45):
            problems.append(f"{n}: control error {xe[n]:.4f} outside [0.03, 0.45]")
        if walls[n] > 300.0:
            problems.append(f"{n}: took {walls[n]:.0f}s > 5min")
    if not xe["baseline"] > xe["past"]:
        problems.append(f"ordering: baseline {xe['baseline']:.4f} !> past {xe['past']:.4f}")
    if not xe["past"] >= 0.95 * xe["virtual"]:
        problems.append(
            f"ordering: past {xe['past']:.4f} < virtual {xe['virtual']:.4f} beyond 5% band"
        )
    detail = ", ".join(f"{n}: ce={ce[n]:.4f} xe={xe[n]:.4f}" for n in RUN_NAMES)
    _verdict(5, not problems, "; ".join(problems) or detail)


def test_criterion_6_closed_loop_regulates_the_unstable_plant(bundled_runs):
    problems = []
    finals = {}
    for name, run in bundled_runs.items():
        finals[name] = float(np.linalg.norm(run.traj.states[-1]))
        if finals[name] > 0.15:
            problems.append(f"{name}: |x(10)| = {finals[name]:.4f} > 0.15")

    grid = np.linspace(0.0, 4.0, 401)
    free = [step_exact(BENCH.A, BENCH.B, [1.0, 0.0], [0.0], t) for t in grid]
    norms = np.linalg.norm(free, axis=1)
    crossed = norms > 100.0
    t_cross = float(grid[np.argmax(crossed)]) if crossed.any() else np.inf
    if not (crossed.any() and t_cross < 4.0):
        problems.append(f"uncontrolled plant never exceeds 100 before t=4 (max {norms.max():.1f})")
    detail = ", ".join(f"{n}: |x(10)|={finals[n]:.4f}" for n in RUN_NAMES)
    _verdict(6, not problems, "; ".join(problems) or f"{detail}; free plant hits 100 at t={t_cross:.2f}")


def test_bundled_runs_need_no_jitter_boost(bundled_runs):
    for name, run in bundled_runs.items():
        assert (run.traj.jitter_escalations, run.traj.max_jitter_boost) == (0, 0.0), name


def test_criterion_7_gp_numerics_suite():
    start = time.perf_counter()
    problems = []
    prior = build_prior(BENCH, [0.0, 0.0])

    # Gram symmetry (bit-exact) and PSD slack
    rng = np.random.default_rng(5)
    times = np.sort(rng.uniform(0.0, 6.0, 12))
    values, noise = np.empty((12, 3)), np.empty((12, 3))
    for k in range(12):
        values[k] = rng.normal(0.0, 1.0, 3)
        noise[k] = rng.uniform(0.01, 0.4, 3)
    hp = Hyperparams(signal_variance=0.9, lengthscale_sq=1.2)
    gram, _ = assemble_gram(prior, Dataset(times, values, noise), hp)
    if not np.array_equal(gram, gram.T):
        problems.append("Gram not bit-exact symmetric")
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] < -1e-9 * eigs[-1]:
        problems.append(f"Gram indefinite: min eig {eigs[0]:.3e}")

    # hard-point interpolation on realizable values
    times = np.array([0.0, 1.0, 2.5])
    hp_i = Hyperparams(signal_variance=0.8, lengthscale_sq=1.3)
    draw_hp = Hyperparams(signal_variance=0.8, lengthscale_sq=1.3, jitter=1e-12)
    want = PosteriorGp(prior, Dataset(), draw_hp).sample(times, 1, seed=9)[0]
    ds = Dataset(times, want, np.zeros(want.shape))
    interp_err = float(np.max(np.abs(PosteriorGp(prior, ds, hp_i).mean(times) - want)))
    if interp_err > 1e-5:
        problems.append(f"hard interpolation error {interp_err:.2e} > 1e-5")

    # equilibrium invariance: observing the prior mean changes nothing
    eq_prior = build_prior(BENCH, [1.0, 0.0])
    mean_pts = Dataset([0.0, 1.0, 3.0], np.tile(eq_prior.prior_mean, (3, 1)), np.zeros((3, 3)))
    eq_post = PosteriorGp(eq_prior, mean_pts, hp)
    query = np.linspace(-1.0, 5.0, 31)
    eq_dev = float(np.max(np.abs(eq_post.mean(query) - eq_prior.prior_mean)))
    if eq_dev > 1e-12:
        problems.append(f"equilibrium shifted by {eq_dev:.2e}")

    # single-point marginal likelihood at unit total variance / unit residual
    integ = build_prior(LinearSystem(A=[[0.0]], B=[[1.0]]), [0.0])
    mll, _ = log_marginal_likelihood(
        integ,
        Dataset([0.0], [[1.0, np.nan]], [[0.5, 0.0]]),
        Hyperparams(signal_variance=0.5, lengthscale_sq=1.0),
    )
    if abs(mll - (-0.5)) > 1e-12:
        problems.append(f"single-point MLL {mll!r} != -0.5")

    # closed-form derivatives vs central differences, entrywise: entry (i, j)
    # is the symbol w_ij(s) = sum_c v_ic(s) v_jc(-s) applied to the SE kernel,
    # and its d/dt (d/dt') is the symbol times s (-s)
    lam = 1.0 / 0.9
    h = 1e-5
    fd_worst = 0.0
    for i in range(3):
        for j in range(3):
            entry = prior.kernel.entry(i, j)
            symbol = entry_symbol(prior.v_cols, i, j)
            d_t, d_tp = apply_symbol((D * symbol).coeffs), apply_symbol((-D * symbol).coeffs)
            for u in np.linspace(-3.0, 3.0, 25):
                fd = (evaluate_term(entry, u + h, lam) - evaluate_term(entry, u - h, lam)) / (2 * h)
                ref = max(1.0, abs(evaluate_term(d_t, u, lam)))
                fd_worst = max(fd_worst, abs(evaluate_term(d_t, u, lam) - fd) / ref)
                # d/dt' is -d/du
                fd_worst = max(fd_worst, abs(evaluate_term(d_tp, u, lam) + fd) / ref)
    if fd_worst > 1e-6:
        problems.append(f"derivative vs finite difference {fd_worst:.2e} > 1e-6")

    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        problems.append(f"suite took {elapsed:.1f}s")
    _verdict(
        7,
        not problems,
        "; ".join(problems)
        or (
            f"symmetric/PSD, interp {interp_err:.1e}, equilibrium {eq_dev:.1e}, "
            f"MLL -0.5 exact, fd {fd_worst:.1e}, {elapsed:.1f}s"
        ),
    )


def test_criterion_8_integrator_cross_oracle():
    plant = Plant(BENCH.A, BENCH.B)
    x = np.array([1.0, -0.5])
    u = [1.3]

    exact = step_exact(plant.A, plant.B, x, u, 0.1)
    sig = held(u)
    got = rk4_by_value(plant.A, plant.B, x, sig, 0.0, 0.1, 20)
    agree = float(np.max(np.abs(got - exact)) / np.max(np.abs(exact)))

    horizon = 0.8
    target = step_exact(plant.A, plant.B, x, u, horizon)

    def rk4_error(steps: int) -> float:
        y = rk4_by_value(plant.A, plant.B, x, sig, 0.0, horizon, steps)
        return float(np.max(np.abs(y - target)))

    ratio = rk4_error(4) / rk4_error(8)
    problems = []
    if agree > 1e-8:
        problems.append(f"constant-input disagreement {agree:.2e} > 1e-8")
    if not 12.0 <= ratio <= 20.0:
        problems.append(f"halving ratio {ratio:.2f} outside [12, 20]")
    _verdict(
        8,
        not problems,
        "; ".join(problems) or f"constant-input gap {agree:.1e}, halving ratio {ratio:.1f}",
    )
