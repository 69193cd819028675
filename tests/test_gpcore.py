"""Datasets, Gram assembly, exact conditioning, marginal likelihood,
hyperparameter search, and posterior sampling."""

import dataclasses
import functools
import itertools
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import minimize

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DENSE6, eager_descend
from lodempc import gpcore
from lodempc.config import load_config
from lodempc.controller import build_step_dataset, initial_dataset, mpc_step
from lodempc.gpcore import (
    MAX_JITTER,
    Dataset,
    DatasetError,
    FactorizationError,
    FitTable,
    LagTable,
    PosteriorGp,
    assemble_gram,
    likelihood_gradient,
    log_marginal_likelihood,
    optimize_hyperparams,
)
from lodempc.kernelops import Hyperparams
from lodempc.lodegp import LinearSystem, build_prior


@pytest.fixture(scope="module")
def integrator_prior():
    # dx/dt = u: two channels (x, u), nullspace (1, d)ᵀ
    return build_prior(LinearSystem(A=[[0.0]], B=[[1.0]]), x_ref=[0.0])


def rows(*records):
    """Dataset from (t, values, noise_var) records; None in values masks."""
    t, values, noise = zip(*records)
    return Dataset(t, values, noise)


def hard(t, values, nz=3):
    return (t, tuple(values), (0.0,) * nz)


# ---------------------------------------------------------------------------
# Dataset
# ---------------------------------------------------------------------------


def test_dataset_masks_and_validation():
    ds = rows((0.5, (1.0, None, 2.0), (0.0, 0.0, 0.1)))
    assert ds.slots.tolist() == [0, 2]
    assert np.isnan(ds.values[0, 1])
    with pytest.raises(ValueError):
        ds.values[0, 0] = 3.0  # frozen arrays
    with pytest.raises(DatasetError):
        Dataset([0.0], [[1.0]], [[0.0, 0.0]])  # shape mismatch
    with pytest.raises(DatasetError):
        Dataset([0.0, 1.0], [[1.0]], [[0.0]])  # row count mismatch
    with pytest.raises(DatasetError):
        Dataset([0.0], [[1.0]], [[-1.0]])  # negative noise
    with pytest.raises(DatasetError):
        Dataset([0.0], [[1.0]], [[math.nan]])  # non-finite noise
    with pytest.raises(DatasetError):
        Dataset([0.0], [[math.inf]], [[0.0]])


def test_dataset_sorts_by_time_without_merging():
    ds = rows(
        (2.0, (1.0, None), (0.0, 0.0)),
        (1.0, (None, 3.0), (0.0, 0.0)),
        (2.0, (None, 5.0), (0.1, 0.0)),
    )
    assert ds.t.tolist() == [1.0, 2.0, 2.0]
    # stable: the two rows at t = 2 keep their given order
    np.testing.assert_array_equal(ds.values, [[np.nan, 3.0], [1.0, np.nan], [np.nan, 5.0]])
    np.testing.assert_array_equal(ds.noise_var[2], [0.1, 0.0])
    assert len(ds) == 3 and len(Dataset()) == 0


def test_dataset_keeps_disjoint_rows_at_equal_times(integrator_prior):
    # two rows at one time with disjoint masks are not fused, and condition
    # exactly like the single fused row would
    hp = Hyperparams(jitter=1e-8)
    split = rows((1.0, (1.0, None), (0.0, 0.0)), (1.0, (None, 2.0), (0.0, 0.5)))
    fused = rows((1.0, (1.0, 2.0), (0.0, 0.5)))
    assert len(split) == 2
    for got, want in zip(
        assemble_gram(integrator_prior, split, hp), assemble_gram(integrator_prior, fused, hp)
    ):
        np.testing.assert_array_equal(got, want)


def test_dataset_rejects_conflicting_duplicates():
    a = (1.0, (1.0,), (0.0,))
    with pytest.raises(DatasetError, match="conflict"):
        rows(a, (1.0, (2.0,), (0.0,)))
    # same value but different stated noise is also a conflict
    with pytest.raises(DatasetError, match="conflict"):
        rows(a, (1.0, (1.0,), (0.5,)))
    # the two observations of a slot need not be in adjacent rows
    with pytest.raises(DatasetError, match="channel 0"):
        rows(
            (1.0, (1.0, None), (0.0, 0.0)),
            (1.0, (None, 2.0), (0.0, 0.0)),
            (1.0, (3.0, None), (0.0, 0.0)),
        )
    # only observed slots can conflict
    rows((1.0, (1.0, None), (0.0, 0.0)), (1.0, (None, 2.0), (0.0, 0.0)))


def test_dataset_keeps_identical_duplicates():
    a = (1.0, (1.0, None), (0.0, 0.0))
    assert len(rows(a, a)) == 2


def test_dataset_rejects_mixed_channel_layouts():
    with pytest.raises(DatasetError):
        Dataset([0.0, 1.0], [[1.0, np.nan], [1.0, 2.0]], [[0.0], [0.0]])


# ---------------------------------------------------------------------------
# Gram assembly
# ---------------------------------------------------------------------------


def test_assemble_gram_masks_and_noise(integrator_prior):
    hp = Hyperparams(jitter=1e-8)
    ds = rows(
        (0.0, (1.0, None), (0.0, 0.0)),
        (1.0, (2.0, 3.0), (0.0, 0.25)),
    )
    gram, residual = assemble_gram(integrator_prior, ds, hp)
    assert gram.shape == (3, 3)
    np.testing.assert_allclose(residual, [1.0, 2.0, 3.0])
    # hard slots carry jitter, soft slots their stated variance
    base = integrator_prior.kernel.joint_matrix(
        np.array([0.0, 1.0]), np.array([0.0, 1.0]), hp
    )
    keep = [0, 2, 3]
    np.testing.assert_allclose(
        gram, base[np.ix_(keep, keep)] + np.diag([1e-8, 1e-8, 0.25])
    )


def joint_matrix_gram(prior, data, hp):
    """Reference Gram: the full joint kernel matrix on the dataset's times,
    restricted to the observed slots, plus the same noise diagonal."""
    sel = data.slots
    gram = prior.kernel.joint_matrix(data.t, data.t, hp)[np.ix_(sel, sel)]
    noise = data.noise_var.ravel()[sel]
    gram[np.diag_indices(sel.size)] += np.where(noise > 0, noise, hp.jitter)
    return gram


def random_dataset(rng, times, nz):
    """Random values and noise at the given times, about a third masked and
    a quarter of the observed slots exact; a repeated time repeats its row."""
    values = rng.normal(0.0, 1.0, (len(times), nz))
    values[rng.random(values.shape) < 0.3] = np.nan
    values[0, 0] = 0.5  # at least one observed slot
    noise = np.where(rng.random(values.shape) < 0.25, 0.0, rng.uniform(0.01, 0.2, values.shape))
    _, first, inverse = np.unique(times, return_index=True, return_inverse=True)
    source = first[inverse]
    return Dataset(times, values[source], noise[source])


GATHER_HPS = [Hyperparams(0.8, 0.3, jitter=1e-9), Hyperparams(1.7, 2.5)]


@pytest.fixture(scope="module")
def double_integrator_prior():
    # three channels, like unstable_prior, and a different kernel
    return build_prior(LinearSystem(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]]), x_ref=[0.0, 0.0])


@pytest.mark.parametrize("hp", GATHER_HPS)
def test_gathered_gram_is_joint_matrix_bit_for_bit(unstable_prior, double_integrator_prior, hp):
    a = (0.5, (0.2, None, -0.1), (0.0, 0.0, 0.05))
    cases = {
        "masked channels": rows(
            (0.0, (1.0, None, None), (0.0, 0.0, 0.0)),
            (0.1, (None, 0.3, None), (0.0, 0.02, 0.0)),
            (0.2, (0.5, -0.1, 0.7), (0.1, 0.0, 0.0)),
            (0.3, (None, None, 0.4), (0.0, 0.0, 0.0)),
        ),
        # identical rows at one time, and a disjoint row at that time
        "equal times": rows(
            a, a, (0.5, (None, 0.3, None), (0.0, 0.0, 0.0)), a, hard(1.0, (0.0,) * 3)
        ),
        # unsorted input; lags that are not multiples of any step, and
        # near-equal lags (0.1 + 0.2 vs 0.3) that must stay distinct
        "off-lattice": random_dataset(
            np.random.default_rng(4),
            [0.7, 0.1 + 0.2, -0.35, 0.3, 1.0 / 3.0, 2.05, 0.0, math.pi / 4, 0.3],
            3,
        ),
    }
    for name, data in cases.items():
        want = joint_matrix_gram(unstable_prior, data, hp)
        gram, _ = assemble_gram(unstable_prior, data, hp)
        assert np.array_equal(gram, want), name
        assert np.array_equal(gram, gram.T), name
        # a table over more times than the dataset holds gathers the same
        # floats, with the kernel evaluated per call or frozen at hp; frozen
        # at other hyperparameters or for another kernel, it evaluates anew
        times = np.concatenate([data.t, [-1.0, 0.05, 0.1 + 0.2 + 1e-15, 7.0]])
        other_hp = GATHER_HPS[hp is GATHER_HPS[0]]
        for table in (
            LagTable(times),
            LagTable(times, unstable_prior.kernel, hp),
            LagTable(times, unstable_prior.kernel, other_hp),
            LagTable(times, double_integrator_prior.kernel, hp),
        ):
            gram, _ = assemble_gram(unstable_prior, data, hp, table)
            assert np.array_equal(gram, want), name
        assert_fit_table_gathers_as_lag_table(unstable_prior, data, hp)


def assert_fit_table_gathers_as_lag_table(prior, data, hp):
    """A FitTable's flat take gives the bytes of LagTable.gram, for the Gram
    and the lam derivative, and so the same assembled Gram; a table over
    the same times for another dataset gathers through LagTable.gram."""
    fit, lags = FitTable(data), LagTable(data.t)
    for dlam in (False, True):
        blocks = fit.kernel_blocks(prior.kernel, hp, dlam)
        assert fit.gram(blocks, data).tobytes() == lags.gram(blocks, data).tobytes()
    assert assemble_gram(prior, data, hp, fit)[0].tobytes() == assemble_gram(prior, data, hp)[0].tobytes()
    other = Dataset(data.t, data.values, data.noise_var)
    blocks = fit.kernel_blocks(prior.kernel, hp)
    assert fit.gram(blocks, other).tobytes() == lags.gram(blocks, other).tobytes()
    n = data.slots.size
    assert fit.flat.shape == fit.upper.shape == (n, n)
    assert np.array_equal(fit.upper, np.triu(np.ones((n, n), dtype=bool), 1))


@pytest.mark.parametrize("hp", GATHER_HPS)
@pytest.mark.parametrize("which", ["random4_prior", "random4x2_prior"])
def test_gathered_gram_on_random_systems_is_bit_for_bit(request, which, hp):
    prior = request.getfixturevalue(which)
    rng = np.random.default_rng(11)
    # on-lattice times with repeats, then times drawn off any lattice
    for times in (np.repeat(np.arange(0.0, 1.2, 0.1), 2), rng.uniform(-1.0, 3.0, 14)):
        data = random_dataset(rng, times, prior.n_z)
        gram, _ = assemble_gram(prior, data, hp)
        assert np.array_equal(gram, joint_matrix_gram(prior, data, hp))
        assert np.array_equal(gram, gram.T)
        table = LagTable(np.concatenate([times, rng.uniform(-1.0, 3.0, 5)]), prior.kernel, hp)
        assert np.array_equal(assemble_gram(prior, data, hp, table)[0], gram)
        assert_fit_table_gathers_as_lag_table(prior, data, hp)
        unmasked = Dataset(times, np.nan_to_num(data.values, nan=0.25), data.noise_var)
        assert unmasked.slots.size == times.size * prior.n_z
        assert_fit_table_gathers_as_lag_table(prior, unmasked, hp)


def test_gram_index_points_into_the_lag_table(unstable_prior):
    data = rows((0.25, (1.0, None, 0.5), (0.0,) * 3), (0.0, (None, 2.0, None), (0.1,) * 3))
    table = LagTable([0.25, 0.0, 0.25, 1.0])
    assert table.times.tolist() == [0.0, 0.25, 1.0]
    assert table.lags.tolist() == [-1.0, -0.75, -0.25, 0.0, 0.25, 0.75, 1.0]
    assert table.index.tolist() == [[3, 2, 0], [4, 3, 1], [6, 5, 3]]
    assert table.rows(data.t).tolist() == [0, 1]
    hp = Hyperparams(0.9, 0.6)
    blocks = table.kernel_blocks(unstable_prior.kernel, hp)
    assert blocks.shape == (3, 7, 3)
    assert np.array_equal(blocks[:, 4], unstable_prior.kernel.eval_blocks(0.25, 0.0, hp)[..., 0, 0])
    # slots (row 0, ch 1) at t = 0, then (row 1, ch 0) and (row 1, ch 2) at t = 0.25
    want = [[blocks[i, table.index[a, b], j] for b, j in [(0, 1), (1, 0), (1, 2)]]
            for a, i in [(0, 1), (1, 0), (1, 2)]]
    assert table.gram(blocks, data).tolist() == want
    given = assemble_gram(unstable_prior, data, hp, table)
    built = assemble_gram(unstable_prior, data, hp)
    for got, want in zip(given, built):
        assert np.array_equal(got, want)


def test_lag_table_rejects_a_time_it_does_not_hold(unstable_prior):
    # exact lookup: a time one ulp off a table time is not in the table
    table = LagTable([0.0, 0.1, 0.2], unstable_prior.kernel, Hyperparams())
    assert table.rows(np.array([0.2, 0.0, 0.2])).tolist() == [2, 0, 2]
    for t in (np.nextafter(0.2, 0.0), np.nextafter(0.1, 1.0), -0.5, 0.25):
        data = rows(hard(0.0, (1.0, 0.0, 0.0)), hard(t, (0.0, 0.0, 0.0)))
        with pytest.raises(ValueError, match="not in the lag table"):
            assemble_gram(unstable_prior, data, Hyperparams(), table)
        with pytest.raises(ValueError, match="not in the lag table"):
            PosteriorGp(unstable_prior, data, Hyperparams(), table)


def test_assemble_gram_rejects_empty_and_mismatched(integrator_prior, unstable_prior):
    hp = Hyperparams()
    with pytest.raises(ValueError):
        assemble_gram(integrator_prior, Dataset(), hp)
    # the empty posterior is the prior, but it has no likelihood
    with pytest.raises(ValueError):
        log_marginal_likelihood(integrator_prior, Dataset(), hp)
    ds3 = rows(hard(0.0, (0.0, 0.0, 0.0)))
    with pytest.raises(ValueError):
        assemble_gram(integrator_prior, ds3, hp)
    ds_masked = rows((0.0, (None, None), (0.0, 0.0)))
    with pytest.raises(ValueError):
        assemble_gram(integrator_prior, ds_masked, hp)


# ---------------------------------------------------------------------------
# Conditioning
# ---------------------------------------------------------------------------


def test_hard_points_are_interpolated(unstable_prior):
    # condition on values the process can actually realize (a prior draw);
    # arbitrary per-channel values would fight the differential structure
    # and blow up the representer weights
    hp = Hyperparams(signal_variance=0.8, lengthscale_sq=1.3)
    times = np.array([0.0, 1.0, 2.5])
    draw_hp = Hyperparams(signal_variance=0.8, lengthscale_sq=1.3, jitter=1e-12)
    want = PosteriorGp(unstable_prior, Dataset(), draw_hp).sample(times, 1, seed=9)[0]
    ds = Dataset(times, want, np.zeros(want.shape))
    gp = PosteriorGp(unstable_prior, ds, hp)
    assert np.max(np.abs(gp.mean(times) - want)) <= 1e-5


def test_masked_channels_are_not_pinned(unstable_prior):
    hp = Hyperparams()
    ds = rows(
        (0.0, (1.0, None, None), (0.0, 0.0, 0.0)),
        (2.0, (-1.0, None, None), (0.0, 0.0, 0.0)),
    )
    gp = PosteriorGp(unstable_prior, ds, hp)
    mean = gp.mean(np.array([0.0, 2.0]))
    np.testing.assert_allclose(mean[:, 0], [1.0, -1.0], atol=1e-6)
    # the other channels are free: no reason for them to hit any target,
    # but they must be finite and the posterior std must stay positive there
    std = gp.std(np.array([1.0]))
    assert np.all(np.isfinite(mean))
    assert std[0, 1] > 1e-3 and std[0, 2] > 1e-3


def test_zero_residual_leaves_mean_at_prior(unstable_prior):
    # observing the equilibrium itself must not bend the posterior mean
    hp = Hyperparams(signal_variance=1.2, lengthscale_sq=0.7)
    ds = rows(hard(0.0, (0.0, 0.0, 0.0)), hard(1.5, (0.0, 0.0, 0.0)))
    gp = PosteriorGp(unstable_prior, ds, hp)
    tq = np.linspace(-1.0, 3.0, 9)
    np.testing.assert_allclose(gp.mean(tq), 0.0, atol=1e-12)
    np.testing.assert_allclose(gp.alpha, 0.0, atol=1e-12)


def test_nonzero_prior_mean_is_respected():
    prior = build_prior(LinearSystem(A=[[-1.0]], B=[[1.0]]), x_ref=[2.0])
    hp = Hyperparams()
    gp = PosteriorGp(prior, Dataset(), hp)
    tq = np.array([0.0, 5.0])
    np.testing.assert_allclose(gp.mean(tq), [[2.0, 2.0], [2.0, 2.0]])
    ds = rows((0.0, (2.0, 2.0), (0.0, 0.0)))
    gp2 = PosteriorGp(prior, ds, hp)
    np.testing.assert_allclose(gp2.mean(tq), [[2.0, 2.0], [2.0, 2.0]], atol=1e-12)


def test_empty_dataset_reproduces_prior(unstable_prior):
    hp = Hyperparams(signal_variance=0.9)
    gp = PosteriorGp(unstable_prior, Dataset(), hp)
    assert gp.jitter_boost == 0.0
    tq = np.array([0.0, 1.0])
    np.testing.assert_allclose(gp.mean(tq), 0.0)
    prior_cov = unstable_prior.kernel.joint_matrix(tq, tq, hp)
    np.testing.assert_allclose(gp.cov(tq), prior_cov)


def test_posterior_cov_is_symmetric_psd_and_shrinks(unstable_prior):
    hp = Hyperparams()
    ds = rows(hard(0.0, (1.0, 0.0, 0.0)), hard(2.0, (0.0, 0.5, 0.0)))
    gp = PosteriorGp(unstable_prior, ds, hp)
    tq = np.linspace(0.0, 2.0, 7)
    cov = gp.cov(tq)
    assert np.array_equal(cov, cov.T)
    eigvals = np.linalg.eigvalsh(cov)
    assert eigvals.min() > -1e-8
    prior_var = np.diag(unstable_prior.kernel.joint_matrix(tq, tq, hp))
    assert np.all(np.diag(cov) <= prior_var + 1e-12)


def test_posterior_std_collapses_at_hard_points(unstable_prior):
    hp = Hyperparams()
    ds = rows(hard(1.0, (0.3, -0.2, 0.1)))
    gp = PosteriorGp(unstable_prior, ds, hp)
    at_point = gp.std(np.array([1.0]))
    away = gp.std(np.array([5.0]))
    assert np.all(at_point[0] < 1e-3)
    assert np.all(away[0] > 0.5)


def test_std_matches_cov_diagonal_on_masked_data(unstable_prior):
    hp = Hyperparams(signal_variance=1.2, lengthscale_sq=0.8)
    ds = rows(
        hard(0.0, (1.0, 0.0, None)),
        (1.0, (None, 0.4, -0.3), (0.0, 0.05, 0.02)),
        (2.5, (0.2, None, None), (0.1, 0.0, 0.0)),
    )
    gp = PosteriorGp(unstable_prior, ds, hp)
    tq = np.array([-0.5, 0.4, 1.7, 3.0])
    want = np.sqrt(np.diag(gp.cov(tq))).reshape(tq.size, 3)
    np.testing.assert_allclose(gp.std(tq), want, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(gp.std(tq[::-1]), want[::-1], rtol=1e-12, atol=0.0)
    assert gp.std([]).shape == (0, 3)
    assert gp.cov([]).shape == (0, 0)
    assert gp.sample([], 2, seed=0).shape == (2, 0, 3)
    kernel, t = unstable_prior.kernel, ds.t
    assert kernel.joint_matrix([], t, hp).shape == (0, 3 * t.size)
    assert kernel.eval_blocks(t, [], hp).shape == (3, 3, t.size, 0)


def test_queries_change_no_attribute(unstable_prior):
    # mean, std, cov and sample are pure: no attribute is added, replaced or
    # written to, with or without data
    hp = Hyperparams(signal_variance=1.2, lengthscale_sq=0.8)
    ds = rows(hard(0.0, (1.0, 0.0, None)), (1.0, (None, 0.4, -0.3), (0.0, 0.05, 0.02)))
    tq = np.array([0.5, 1.0, 2.0])
    for gp in (PosteriorGp(unstable_prior, ds, hp), PosteriorGp(unstable_prior, Dataset(), hp)):

        def arrays(value):
            parts = value if isinstance(value, tuple) else (value,)
            return [p.copy() for p in parts if isinstance(p, np.ndarray)]

        before = {name: (value, arrays(value)) for name, value in vars(gp).items()}
        gp.mean(tq), gp.std(tq), gp.cov(tq), gp.sample(tq, 2, seed=0), gp.std(tq[:1])
        assert vars(gp).keys() == before.keys()
        for name, (value, copies) in before.items():
            assert vars(gp)[name] is value, name
            now = arrays(value)
            assert len(now) == len(copies), name
            assert all(np.array_equal(a, b) for a, b in zip(copies, now)), name


def longdouble_std(gram, cross, prior_var):
    """The oracle posterior std: a np.longdouble Cholesky of the float64
    matrix that was factored, forward substitution of the float64 cross
    kernel, and the prior variance less the column sums of squares."""
    a = gram.astype(np.longdouble)
    low = np.zeros_like(a)
    for j in range(a.shape[0]):
        low[j, j] = np.sqrt(a[j, j] - low[j, :j] @ low[j, :j])
        low[j + 1 :, j] = (a[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[j, j]
    v = cross.T.astype(np.longdouble)
    for i in range(v.shape[0]):
        v[i] = (v[i] - low[i, :i] @ v[:i]) / low[i, i]
    return np.sqrt(prior_var.astype(np.longdouble) - np.sum(v * v, axis=0))


def test_std_matches_a_long_double_oracle(bundled_runs):
    # the std at t_next of regulation_virtual steps before and after its
    # virtual points start (t_v = 4, step 40).  The data term cancels the
    # prior variance to a few digits, so rounding in the float64 solve shows
    # in the std: this bounds it.
    run = bundled_runs["virtual"]
    prior, ctrl, hp, traj = run.prior, run.cfg.controller, run.hp, run.traj
    lag0 = np.diagonal(prior.kernel.eval_blocks(0.0, 0.0, hp)[:, :, 0, 0])
    for k in range(15, ctrl.n_steps, 20):
        _, std, _ = mpc_step(prior, ctrl, hp, traj.z[: k + 1])
        gp = PosteriorGp(prior, build_step_dataset(prior, ctrl, traj.z[: k + 1]), hp)
        gram, _ = assemble_gram(prior, gp.data, hp)
        gram[np.diag_indices_from(gram)] += gp.jitter_boost
        t_next = np.array([ctrl.lattice[k] + ctrl.dt])
        cross = prior.kernel.joint_matrix(t_next, gp.data.t, hp)[:, gp.data.slots]
        want = longdouble_std(gram, cross, lag0)
        assert np.all(np.abs(std - want) <= 1e-5 * want), (k, std, want)


def test_mean_chunking_is_seamless(unstable_prior):
    # one query of 700 times agrees pointwise with 700 one-time queries
    hp = Hyperparams()
    ds = rows(hard(0.0, (1.0, 0.0, 0.0)))
    gp = PosteriorGp(unstable_prior, ds, hp)
    tq = np.linspace(-2.0, 2.0, 700)
    whole = gp.mean(tq)
    parts = np.vstack([gp.mean(t) for t in tq])
    np.testing.assert_allclose(whole, parts, atol=1e-13)


def test_mean_at_some_channels_is_the_full_mean_bit_for_bit(unstable_prior):
    # the cross kernel is evaluated at the asked channels alone, at many
    # query times, with masked training slots, and with no data at all
    hp = Hyperparams(signal_variance=1.4, lengthscale_sq=0.9)
    values = np.random.default_rng(5).normal(0.0, 1.0, (6, 3))
    values[::2, 1] = np.nan
    masked = Dataset(np.linspace(0.0, 1.0, 6), values, np.full((6, 3), 0.01))
    tq = np.linspace(-1.0, 3.0, 521)
    for data in (masked, Dataset()):
        gp = PosteriorGp(unstable_prior, data, hp)
        full = gp.mean(tq)
        for channels in ([2], [0, 2], [1, 0], slice(1, None)):
            assert np.array_equal(gp.mean(tq, channels), full[:, channels]), channels


def test_cross_kernel_is_fortran_ordered(unstable_prior):
    # cross @ alpha rounds by the cross kernel's memory order (a C-ordered
    # copy moved a mean by 6.7e-15): every query, of all channels or some,
    # scatters into one F-ordered buffer
    hp = Hyperparams(signal_variance=1.4, lengthscale_sq=0.9)
    values = np.random.default_rng(5).normal(0.0, 1.0, (6, 3))
    values[::2, 1] = np.nan
    gp = PosteriorGp(unstable_prior, Dataset(np.linspace(0.0, 1.0, 6), values, np.zeros((6, 3))), hp)
    for tq in (np.linspace(0.0, 0.1, 11), np.array([0.35, 2.0])):
        for channels in (slice(None), [2], [0, 2]):
            cross = gp._cross(tq, channels)
            assert cross.shape == (3 * tq.size, 15)
            assert cross.flags.f_contiguous and not cross.flags.c_contiguous, channels


def test_representer_weights_match_dense_solve(unstable_prior):
    rng = np.random.default_rng(7)
    hp = Hyperparams(signal_variance=1.4, lengthscale_sq=0.9)
    for _ in range(5):
        n = int(rng.integers(2, 12))
        times = np.sort(rng.uniform(0.0, 5.0, n))
        points = []
        for t in times:
            values = tuple(float(v) for v in rng.normal(0.0, 1.0, 3))
            noise = tuple(float(s) for s in rng.uniform(0.01, 0.5, 3))
            points.append((float(t), values, noise))
        ds = rows(*points)
        gp = PosteriorGp(unstable_prior, ds, hp)
        gram, residual = assemble_gram(unstable_prior, ds, hp)
        direct = np.linalg.solve(gram, residual)
        np.testing.assert_allclose(gp.alpha, direct, rtol=1e-8, atol=1e-12)


def test_duplicate_hard_points_escalate_jitter_not_crash(integrator_prior):
    # with zero jitter, exact duplicates (kept by the plain Dataset
    # constructor) make the Gram matrix exactly singular; the factorization
    # must escalate its diagonal boost instead of failing
    hp = Hyperparams(signal_variance=1.0, lengthscale_sq=1.0, jitter=0.0)
    p = (0.0, (1.0, 0.0), (0.0, 0.0))
    ds = rows(p, p)
    gp = PosteriorGp(integrator_prior, ds, hp)
    assert gp.jitter_boost > 0
    assert np.all(np.isfinite(gp.mean(np.array([0.5]))))


def test_factorization_error_when_escalation_cap_hit():
    # an indefinite matrix cannot be repaired by any boost below the cap
    from lodempc.gpcore import _cho_with_escalation

    with pytest.raises(FactorizationError) as err:
        _cho_with_escalation(np.array([[1.0, 2.0], [2.0, 1.0]]), 1e-8)
    assert f"{MAX_JITTER:g}" in str(err.value)


def _spd(n: int, order: str, seed: int = 0) -> np.ndarray:
    m = np.random.default_rng(seed).standard_normal((n, n))
    return np.asarray(m @ m.T + n * np.eye(n), order=order)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [1, 2, 7, 64, 303])
def test_lapack_calls_equal_scipy_linalg_bit_for_bit(n, order):
    # the package calls scipy's LAPACK routines itself, as scipy.linalg
    # does: the factor (both triangles), the solves and the inverse are
    # the same floats, for C- and F-ordered operands
    a = _spd(n, order, seed=n)
    rng = np.random.default_rng(n + 1)
    cho = gpcore.cho_factor(a)
    ref = scipy.linalg.cho_factor(a, lower=True)
    assert np.array_equal(cho, ref[0])
    for b in (rng.standard_normal(n), np.asarray(rng.standard_normal((n, 3)), order=order)):
        x = gpcore.cho_solve(cho, b)
        assert x.shape == b.shape and np.array_equal(x, scipy.linalg.cho_solve(ref, b))
    # _whiten takes the cross kernel as (queries, slots) and solves its transpose
    holder = SimpleNamespace(_cho=cho)
    for cross in (rng.standard_normal((4, n)), np.asfortranarray(rng.standard_normal((4, n)))):
        v = PosteriorGp._whiten(holder, cross)
        assert np.array_equal(v, scipy.linalg.solve_triangular(ref[0], cross.T, lower=True))
    kinv, info = gpcore.flapack.dpotri(cho, lower=1)
    assert info == 0 and np.array_equal(kinv, scipy.linalg.lapack.dpotri(ref[0], lower=1)[0])
    assert np.array_equal(a, _spd(n, order, seed=n))  # the input is left as it was


def test_not_positive_definite_raises_linalg_error_and_escalates_as_scipy(monkeypatch):
    # LinAlgError is the class scipy.linalg raises, so escalation fires at
    # the same step, and ends on the same boost and the same factor as with
    # scipy's cho_factor
    with pytest.raises(np.linalg.LinAlgError):
        gpcore.cho_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))
    v = np.random.default_rng(3).standard_normal((40, 3))
    gram = v @ v.T  # rank 3: positive semidefinite, not definite
    with pytest.raises(scipy.linalg.LinAlgError):
        gpcore.cho_factor(gram)
    # the escalation owns and overwrites its Gram, so each call gets a copy
    c, boost = gpcore._cho_with_escalation(gram.copy(), 1e-12)
    monkeypatch.setattr(
        gpcore,
        "cho_factor",
        lambda a, overwrite_a=False: scipy.linalg.cho_factor(a, lower=True, overwrite_a=overwrite_a)[0],
    )
    c_ref, boost_ref = gpcore._cho_with_escalation(gram.copy(), 1e-12)
    assert boost > 0 and boost == boost_ref and np.array_equal(c, c_ref)


def test_dataset_gram_that_needs_a_boost_is_factored_in_place(unstable_prior):
    # 30 exact points 0.01 apart at a large signal variance, one channel
    # masked on every third row: the Gram fails three times before it
    # factors.  Each retry rebuilds it from the triangle potrf leaves
    # alone, so the escalation ends on the boost, and on the factor (both
    # triangles), that scipy's cho_factor gives on untouched copies
    values = np.random.default_rng(0).normal(0.0, 1.0, (30, 3))
    values[::3, 1] = np.nan
    data = Dataset(np.arange(30) * 0.01, values, np.zeros((30, 3)))
    gram, _ = assemble_gram(unstable_prior, data, Hyperparams(1e7, 1.0, jitter=0.0))
    untouched = gram.copy()
    c, boost = gpcore._cho_with_escalation(gram, 0.0)
    assert np.shares_memory(c, gram)
    want = 0.0
    while True:
        try:
            ref = scipy.linalg.cho_factor(untouched + want * np.eye(gram.shape[0]), lower=True)[0]
            break
        except scipy.linalg.LinAlgError:
            want = 1e-9 if want == 0.0 else want * 10
    assert boost == want > 1e-8
    assert np.array_equal(c.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gram_raises_value_error(bad):
    gram = _spd(5, "C")
    gram[1, 3] = bad
    with pytest.raises(ValueError):
        gpcore.cho_factor(gram)
    with pytest.raises(ValueError):
        gpcore._cho_with_escalation(gram, 1e-8)


# ---------------------------------------------------------------------------
# Marginal likelihood
# ---------------------------------------------------------------------------


def test_mll_single_point_unit_residual_unit_variance(integrator_prior):
    # k(0,0) = sigma_f^2 = 0.5 plus noise 0.5 gives unit total variance;
    # residual 1 then scores -1/2 - (1/2)log(1) = -0.5 exactly
    hp = Hyperparams(signal_variance=0.5, lengthscale_sq=1.0)
    ds = rows((0.0, (1.0, None), (0.5, 0.0)))
    val, _ = log_marginal_likelihood(integrator_prior, ds, hp)
    assert val == pytest.approx(-0.5, abs=1e-12)


def test_mll_matches_dense_formula(unstable_prior):
    rng = np.random.default_rng(3)
    hp = Hyperparams(signal_variance=0.7, lengthscale_sq=1.1)
    points = []
    for t in np.sort(rng.uniform(0.0, 4.0, 6)):
        points.append(
            (
                float(t),
                tuple(float(v) for v in rng.normal(0.0, 1.0, 3)),
                tuple(float(s) for s in rng.uniform(0.05, 0.3, 3)),
            )
        )
    ds = rows(*points)
    got, _ = log_marginal_likelihood(unstable_prior, ds, hp)
    gram, residual = assemble_gram(unstable_prior, ds, hp)
    sign, logdet = np.linalg.slogdet(gram)
    assert sign > 0
    want = -0.5 * residual @ np.linalg.solve(gram, residual) - 0.5 * logdet
    assert got == pytest.approx(want, rel=1e-10)


def test_mll_prefers_generating_lengthscale(unstable_prior):
    # data drawn from the prior at ls2 = 1 should not score better under a
    # wildly wrong lengthscale
    hp_true = Hyperparams(signal_variance=1.0, lengthscale_sq=1.0, jitter=1e-10)
    grid = np.linspace(0.0, 6.0, 25)
    draw = PosteriorGp(unstable_prior, Dataset(), hp_true).sample(grid, 1, seed=11)[0]
    ds = Dataset(grid, draw, np.full(draw.shape, 0.01))
    at_true, _ = log_marginal_likelihood(unstable_prior, ds, hp_true)
    at_tiny, _ = log_marginal_likelihood(
        unstable_prior, ds, Hyperparams(1.0, 0.02, jitter=1e-10)
    )
    at_huge, _ = log_marginal_likelihood(
        unstable_prior, ds, Hyperparams(1.0, 50.0, jitter=1e-10)
    )
    assert at_true > at_tiny
    assert at_true > at_huge


# ---------------------------------------------------------------------------
# Marginal likelihood gradient
# ---------------------------------------------------------------------------

BOTH = ("signal_variance", "lengthscale_sq")


def value_and_gradient(prior, data, hp, wrt):
    """The likelihood at hp and its gradient in ``wrt``, formed from the
    posterior that scored the value, as the fit's descent forms it."""
    table = FitTable(data)
    value, gp = log_marginal_likelihood(prior, data, hp, table)
    return value, likelihood_gradient(gp, wrt, table)


def log_central_difference(prior, data, hp, name, step=1e-5):
    """Central difference of log_marginal_likelihood in log(name)."""
    def at(sign):
        values = {"signal_variance": hp.signal_variance, "lengthscale_sq": hp.lengthscale_sq}
        values[name] *= math.exp(sign * step)
        return log_marginal_likelihood(prior, data, Hyperparams(**values, jitter=hp.jitter))[0]

    return (at(1) - at(-1)) / (2 * step)


@pytest.mark.parametrize("sv, ls2", [(1.0, 0.5), (0.05, 3.0), (5.0, 0.1)])
def test_gradient_matches_central_differences(bundled_runs, sv, ls2):
    # at the step-0 fit dataset of the bundled regulation_past experiment
    past = bundled_runs["past"]
    prior, data = past.prior, past.data
    hp = Hyperparams(sv, ls2, jitter=past.cfg.jitter)
    value, grad = value_and_gradient(prior, data, hp, BOTH)
    assert value == log_marginal_likelihood(prior, data, hp)[0]
    want = [log_central_difference(prior, data, hp, name) for name in BOTH]
    np.testing.assert_allclose(grad, want, rtol=1e-6)
    # one parameter at a time, in the order asked
    assert value_and_gradient(prior, data, hp, BOTH[::-1])[1].tolist() == grad[::-1].tolist()
    assert value_and_gradient(prior, data, hp, ["lengthscale_sq"])[1] == grad[1]


def test_value_only_call_runs_no_inverse(bundled_runs, monkeypatch):
    # a value alone pays for no potri; its gradient, formed from the same
    # posterior, for one, and gathers through the fit table's flat index
    past = bundled_runs["past"]
    prior, data = past.prior, past.data
    hp = Hyperparams(1.0, 0.5, jitter=past.cfg.jitter)
    inverses, factors, gathers = [], [], []

    def recording(calls, fn):
        def recorded(*args, **kw):
            calls.append(args[0])
            return fn(*args, **kw)
        return recorded

    monkeypatch.setattr(gpcore.flapack, "dpotri", recording(inverses, gpcore.flapack.dpotri))
    monkeypatch.setattr(gpcore, "cho_factor", recording(factors, gpcore.cho_factor))
    monkeypatch.setattr(LagTable, "gram", recording(gathers, LagTable.gram))
    table = FitTable(data)
    value, gp = log_marginal_likelihood(prior, data, hp, table)
    assert value == log_marginal_likelihood(prior, data, hp)[0]
    assert inverses == [] and len(factors) == 2 and len(gathers) == 1
    assert value_and_gradient(prior, data, hp, BOTH)[0] == value
    assert len(inverses) == 1 and len(factors) == 3 and len(gathers) == 1
    grad = likelihood_gradient(gp, BOTH, table)
    # the inverse overwrites the posterior's own factor
    assert len(inverses) == 2 and inverses[-1] is gp._cho and len(factors) == 3
    assert grad.tolist() == value_and_gradient(prior, data, hp, BOTH)[1].tolist()


def boosted_dataset():
    """Two exact rows observing only x at t = 0 lead the slots, so with no
    jitter the factorization meets the pivot s^2 - (s^2 / s)^2 of their
    equal entries s^2.  While the signal variance is an exact square (of a
    float of at most 26 significant bits) that pivot is exactly zero, the
    factorization fails, and the escalated boost 1e-9 is added.  The data
    are scaled so that the boost is not tiny against the Gram."""
    nan = float("nan")
    rng = np.random.default_rng(0)
    times = [0.0, 0.0, *np.linspace(0.3, 3.0, 8)]
    values = [[0.01, nan], [0.01, nan], *rng.normal(0.0, 0.02, (8, 2)).tolist()]
    noise = [[0.0, 0.0], [0.0, 0.0], *[[1e-5, 2e-5]] * 8]
    return Dataset(times, values, noise)


@pytest.mark.parametrize("ls2", [0.3, 1.0, 4.0])
def test_gradient_matches_central_differences_with_jitter_boost(integrator_prior, ls2):
    data = boosted_dataset()
    table = LagTable(data.t)
    # x^2 + z^2 = 2 y^2 (p = 9000, q = 1): three exact squares, evenly spaced
    p, q = 9000, 1
    roots = (p * p - 2 * p * q - q * q, p * p + q * q, p * p + 2 * p * q - q * q)
    lo, mid, hi = (float(r * r) * 2.0**-66 for r in roots)
    assert hi - mid == mid - lo

    def hp(sv, ls2=ls2):
        return Hyperparams(sv, ls2, jitter=0.0)

    # the same boost at the point and at both steps of each difference
    points = [hp(lo), hp(mid), hp(hi), hp(mid, ls2 * math.exp(1e-5)), hp(mid, ls2 * math.exp(-1e-5))]
    assert [PosteriorGp(integrator_prior, data, h, table).jitter_boost for h in points] == [1e-9] * 5

    value, grad = value_and_gradient(integrator_prior, data, hp(mid), BOTH)
    assert value == log_marginal_likelihood(integrator_prior, data, hp(mid))[0]
    lml = functools.partial(log_marginal_likelihood, integrator_prior, data)
    by_sv = mid * (lml(hp(hi))[0] - lml(hp(lo))[0]) / (hi - lo)
    by_ls = log_central_difference(integrator_prior, data, hp(mid), "lengthscale_sq")
    np.testing.assert_allclose(grad, [by_sv, by_ls], rtol=1e-6)


# ---------------------------------------------------------------------------
# Hyperparameter search
# ---------------------------------------------------------------------------


def test_optimizer_is_deterministic(unstable_prior):
    ds = rows(
        hard(0.0, (1.0, 0.0, 0.0)),
        (1.0, (0.3, 0.1, -0.2), (0.1, 0.1, 0.1)),
        (2.0, (0.0, 0.0, 0.0), (0.1, 0.1, 0.1)),
    )
    a, fit_a = optimize_hyperparams(unstable_prior, ds)
    b, fit_b = optimize_hyperparams(unstable_prior, ds)
    assert (a.signal_variance, a.lengthscale_sq) == (b.signal_variance, b.lengthscale_sq)
    assert fit_a == fit_b


def test_optimizer_recovers_generating_scales(unstable_prior):
    hp_true = Hyperparams(signal_variance=2.0, lengthscale_sq=0.5, jitter=1e-10)
    grid = np.linspace(0.0, 8.0, 33)
    draw = PosteriorGp(unstable_prior, Dataset(), hp_true).sample(grid, 1, seed=5)[0]
    ds = Dataset(grid, draw, np.full(draw.shape, 0.01))
    hp, _ = optimize_hyperparams(unstable_prior, ds, jitter=1e-10)
    # one realization only: accept the right order of magnitude
    assert 0.2 < hp.signal_variance < 20.0
    assert 0.1 < hp.lengthscale_sq < 2.5


def test_optimizer_scores_each_point_once(unstable_prior, monkeypatch):
    # the probes by value alone, each once; then each descent starts at a
    # probe that no grid neighbour beats, best first, and returns its best
    # point and its count; the report counts every call, and each gradient
    # is formed from the posterior of the latest point, never refactored
    ds = rows(
        hard(0.0, (1.0, 0.0, 0.0)),
        (1.0, (0.3, 0.1, -0.2), (0.1, 0.1, 0.1)),
        (2.0, (0.0, 0.0, 0.0), (0.1, 0.1, 0.1)),
    )
    calls, gradients, descents, results = [], [], [], []

    def counted_lml(prior, data, hp, table=None):
        value, gp = log_marginal_likelihood(prior, data, hp, table)
        calls.append((gp, hp.signal_variance, hp.lengthscale_sq))
        return value, gp

    def counted_gradient(gp, wrt, table):
        gradients.append((len(calls), gp, tuple(wrt)))
        return likelihood_gradient(gp, wrt, table)

    descend = gpcore._descend

    def counted_descend(fg, x0, lo, hi):
        descents.append(len(calls))
        results.append(descend(fg, x0, lo, hi))
        return results[-1]

    expected, expected_fit = optimize_hyperparams(unstable_prior, ds)
    monkeypatch.setattr(gpcore, "log_marginal_likelihood", counted_lml)
    monkeypatch.setattr(gpcore, "likelihood_gradient", counted_gradient)
    monkeypatch.setattr(gpcore, "_descend", counted_descend)
    hp, fit = optimize_hyperparams(unstable_prior, ds)
    assert (hp, fit) == (expected, expected_fit)
    # every evaluation goes through the one likelihood call
    assert len(calls) == fit.value_evals + fit.value_and_gradient_evals

    probes = [point for _, *point in calls[: descents[0]]]
    assert len(probes) == len(set(map(tuple, probes))) == fit.value_evals == 5 * 5
    assert all(n > descents[0] for n, *_ in gradients)
    assert len(calls) - descents[0] == fit.value_and_gradient_evals
    # a gradient at each start and at some accepted steps, from the latest
    # posterior, each one once
    assert 0 < len(gradients) == fit.gradient_evals < fit.value_and_gradient_evals
    assert all(gp is calls[n - 1][0] for n, gp, _ in gradients)
    assert len({n for n, *_ in gradients}) == len(gradients)
    assert all(wrt == BOTH for *_, wrt in gradients)
    assert {d + 1 for d in descents} <= {n for n, *_ in gradients}
    assert [n for *_, n in results] == np.diff(descents + [len(calls)]).tolist()
    assert len(descents) == len(results) == fit.starts
    assert -min(f for f, *_ in results) == fit.log_marginal_likelihood
    scores = [log_marginal_likelihood(unstable_prior, ds, Hyperparams(sv, ls, jitter=1e-8))[0]
              for sv, ls in probes]
    bottoms = [k for k in range(25) if not any(
        scores[j] > scores[k] for j in range(25)
        if max(abs(j // 5 - k // 5), abs(j % 5 - k % 5)) == 1)]
    best = sorted(bottoms, key=lambda k: (-scores[k], k))[: gpcore.N_STARTS]
    assert [calls[k][1:] for k in descents] == [tuple(probes[k]) for k in best]


def test_optimizer_keeps_the_best_point_when_factorizations_fail(unstable_prior, monkeypatch):
    # every descent evaluation with lengthscale_sq below 0.9 fails, on the
    # way from the one start at (1, 1) to the optimum near (0.59, 0.66):
    # those score -inf, and the fit ends at the best point that factorized
    ds = rows(
        hard(0.0, (1.0, 0.0, 0.0)),
        (1.0, (0.3, 0.1, -0.2), (0.1, 0.1, 0.1)),
        (2.0, (0.0, 0.0, 0.0), (0.1, 0.1, 0.1)),
    )
    finite, refused, objectives, results = [], [], [], []

    def failing_lml(prior, data, hp, table=None):
        if objectives and hp.lengthscale_sq < 0.9:
            refused.append(hp)
            raise FactorizationError("refused")
        value, gp = log_marginal_likelihood(prior, data, hp, table)
        if objectives:
            finite.append(value)
        return value, gp

    descend = gpcore._descend

    def recorded_descend(fg, x0, lo, hi):
        objectives.append(fg)
        results.append(descend(fg, x0, lo, hi))
        return results[-1]

    monkeypatch.setattr(gpcore, "log_marginal_likelihood", failing_lml)
    monkeypatch.setattr(gpcore, "_descend", recorded_descend)
    hp, fit = optimize_hyperparams(unstable_prior, ds)
    assert sum(n for *_, n in results) == fit.value_and_gradient_evals
    # the report counts each point that failed to factor
    assert fit.failed_evals == len(refused) > 0
    # each descent's best point is one that factorized
    assert all(math.isfinite(f) and math.exp(x[1]) >= 0.9 for f, x, _ in results)
    assert -min(f for f, *_ in results) == max(finite)
    value, gradient = objectives[0](np.log([1.0, 0.5]))
    assert value == math.inf and gradient().tolist() == [0.0, 0.0]
    assert hp.lengthscale_sq >= 0.9
    assert math.isfinite(fit.log_marginal_likelihood)
    assert fit.log_marginal_likelihood == max(finite)
    assert fit.log_marginal_likelihood == log_marginal_likelihood(unstable_prior, ds, hp)[0]


#: The probe grid's log axis in units of its spacing: probe (i, j) sits at
#: u = (i, j), in the default box of both hyperparameters.
GRID_LOG_LO, GRID_LOG_STEP = math.log(0.01), math.log(10.0)


def synthetic_fit(prior, monkeypatch, landscape, fails=lambda u: False):
    """Fit with the likelihood replaced by ``landscape``: u -> (negative log
    likelihood, its gradient in u), u in grid units of (log signal_variance,
    log lengthscale_sq).  A point where ``fails(u)`` holds raises
    FactorizationError.  Returns the report, the grid cell of each descent's
    start in order, and the number of refused calls."""
    starts, refused = [], []

    def fake_lml(prior, data, hp, table=None):
        u = (np.log([hp.signal_variance, hp.lengthscale_sq]) - GRID_LOG_LO) / GRID_LOG_STEP
        if fails(u):
            refused.append(u)
            raise FactorizationError("refused")
        return -landscape(u)[0], SimpleNamespace(u=u, jitter_boost=0.0)

    def fake_gradient(gp, wrt, table):
        grad = landscape(gp.u)[1]
        return -np.array([grad[BOTH.index(n)] for n in wrt]) / GRID_LOG_STEP

    descend = gpcore._descend

    def recorded_descend(fg, x0, lo, hi):
        starts.append(tuple(np.rint((x0 - GRID_LOG_LO) / GRID_LOG_STEP).astype(int).tolist()))
        return descend(fg, x0, lo, hi)

    monkeypatch.setattr(gpcore, "log_marginal_likelihood", fake_lml)
    monkeypatch.setattr(gpcore, "likelihood_gradient", fake_gradient)
    monkeypatch.setattr(gpcore, "_descend", recorded_descend)
    ds = rows(hard(0.0, (1.0, 0.0, 0.0)), hard(2.0, (0.0, 0.0, 0.0)))
    _, fit = optimize_hyperparams(prior, ds)
    assert fit.starts == len(starts) and fit.failed_evals == len(refused)
    return fit, starts, len(refused)


def bowl(centre, depth=0.0):
    return lambda u: (np.sum((u - centre) ** 2) - depth, 2.0 * (u - centre))


def test_one_descent_per_probe_grid_basin(unstable_prior, monkeypatch):
    # a probe starts a descent only if no grid neighbour, diagonals
    # included, scores strictly better; best first, at most N_STARTS
    fit, starts, _ = synthetic_fit(unstable_prior, monkeypatch, bowl(np.array([2.4, 1.3])))
    assert starts == [(2, 1)]

    # two separated basins: the deeper one (the later probe) starts first
    shallow, deep = bowl(np.array([1.0, 3.0])), bowl(np.array([3.0, 0.0]), depth=0.5)
    fit, starts, _ = synthetic_fit(unstable_prior, monkeypatch,
                                   lambda u: min(shallow(u), deep(u), key=lambda fg: fg[0]))
    assert starts == [(3, 0), (1, 3)]
    assert fit.log_marginal_likelihood == pytest.approx(0.5, abs=1e-9)

    # a valley along the diagonal: each probe on it is beaten only by its
    # diagonal neighbour, so the corner alone starts
    def valley(u):
        along, across = u[0] + u[1] - 8.0, u[0] - u[1]
        return (10.0 * across**2 + along**2 / 4.0,
                np.array([20.0 * across + along / 2.0, -20.0 * across + along / 2.0]))

    fit, starts, _ = synthetic_fit(unstable_prior, monkeypatch, valley)
    assert starts == [(4, 4)]

    # a flat floor under three neighbouring probes: a tie does not beat, so
    # all three start, in probe order
    def floor(u):
        wide = (u[0] - 2.0) ** 2 - 1.5
        return (max(wide, 0.0) + (u[1] - 2.0) ** 2,
                np.array([2.0 * (u[0] - 2.0) if wide > 0 else 0.0, 2.0 * (u[1] - 2.0)]))

    fit, starts, _ = synthetic_fit(unstable_prior, monkeypatch, floor)
    assert starts == [(1, 2), (2, 2), (3, 2)]

    # a checkerboard: 9 tied minima at the even cells, and the first
    # N_STARTS by probe order start
    def checkerboard(u):
        return (-np.sum(np.cos(np.pi * u)), np.pi * np.sin(np.pi * u))

    fit, starts, _ = synthetic_fit(unstable_prior, monkeypatch, checkerboard)
    assert gpcore.N_STARTS == 3 and starts == [(0, 0), (0, 2), (0, 4)]

    # the bowl's bottom probe and its column fail: a failed probe never
    # starts, and the one start is the best probe that factored
    fit, starts, refused = synthetic_fit(unstable_prior, monkeypatch, bowl(np.array([3.0, 2.0])),
                                         fails=lambda u: u[0] > 2.5)
    assert starts == [(2, 2)]
    assert refused >= 10 and fit.failed_evals == refused
    assert fit.log_marginal_likelihood == pytest.approx(-0.25, rel=1e-6)


def test_fit_finds_both_basins_of_a_dense_system(tmp_path):
    # the benchmark's dense 6-state system at seed 3, hyperparameters free:
    # its probe grid has two basins, and one descent from the best probe
    # alone ends at -152.20
    doc = json.loads(json.dumps(DENSE6))
    doc["initial"]["x0"] = [-0.7944007700703639, -0.3601067604971644, 0.9981630498710428,
                            -0.6143461735204474, 0.670246276187062, 0.10643152452064375]
    doc["hyperparams"] = {"jitter": 1e-9}
    path = tmp_path / "dense6.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(path)
    prior = build_prior(cfg.system, cfg.controller.x_ref)
    data = initial_dataset(prior, cfg.controller)
    _, fit = optimize_hyperparams(prior, data, bounds=cfg.hp_bounds, jitter=cfg.jitter)
    assert fit.log_marginal_likelihood == pytest.approx(-149.54910128063042, rel=1e-9)
    assert fit.starts == 2
    assert fit.at_bound == {"signal_variance": "lower"}


def test_fit_builds_its_gram_index_once(bundled_runs, monkeypatch):
    # one FitTable for the whole fit, and every Gram and dK a flat take from
    # it: LagTable.gram never runs; potri runs once per gradient formed
    past = bundled_runs["past"]
    prior, data, options = past.prior, past.data, past.fit_options
    tables, lml_calls, gathers, inverses = [], [0], [0], [0]
    gram, potri = LagTable.gram, gpcore.flapack.dpotri

    class CountedTable(FitTable):
        def __init__(self, *args):
            tables.append(self)
            super().__init__(*args)

    def counted_lml(prior, data, hp, table=None):
        assert table is tables[-1]
        lml_calls[0] += 1
        return log_marginal_likelihood(prior, data, hp, table)

    def counted_gram(*args):
        gathers[0] += 1
        return gram(*args)

    def counted_potri(*args, **kw):
        inverses[0] += 1
        return potri(*args, **kw)

    monkeypatch.setattr(gpcore, "FitTable", CountedTable)
    monkeypatch.setattr(gpcore, "log_marginal_likelihood", counted_lml)
    monkeypatch.setattr(LagTable, "gram", counted_gram)
    monkeypatch.setattr(gpcore.flapack, "dpotri", counted_potri)
    hp, fit = optimize_hyperparams(prior, data, **options)
    assert len(tables) == 1 and gathers[0] == 0
    assert (fit.value_evals, fit.value_and_gradient_evals) == (25, 11)
    assert lml_calls[0] == fit.value_evals + fit.value_and_gradient_evals
    assert inverses[0] == fit.gradient_evals == 9
    assert (fit.failed_evals, fit.starts, fit.at_bound) == (0, 1, {})
    assert (fit.jitter_escalations, fit.max_jitter_boost) == (0, 0.0)
    # Bit for bit from run to run: this fit is the shared record's, re-run,
    # and the trio's one determinism re-fit.  Across BLAS builds and thread
    # counts only to rounding: the descent follows the gradient's last bits,
    # and those depend on how the BLAS splits its sums (one OpenBLAS thread
    # moves signal_variance by 1e-14 relative).
    assert (hp, fit) == (past.hp, past.fit)
    assert hp.signal_variance == pytest.approx(float.fromhex("0x1.27dd382361a23p-2"), rel=1e-12)
    assert hp.lengthscale_sq == pytest.approx(float.fromhex("0x1.d53ac95041c73p-1"), rel=1e-12)


def assert_fit_matches_the_eager_descent(prior, data, on_demand, **options):
    """``on_demand``, the (hyperparameters, report) of the fit with gradients
    formed on demand, and the fit with ``eager_descend``, which forms one at
    every evaluation: the same hyperparameters to the bit and the same
    report, but for the inverses formed."""
    hp, fit = on_demand
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gpcore, "_descend", eager_descend)
        eager_hp, eager_fit = optimize_hyperparams(prior, data, **options)
    assert [getattr(hp, name).hex() for name in BOTH] == [getattr(eager_hp, name).hex() for name in BOTH]
    assert eager_fit.gradient_evals == eager_fit.value_and_gradient_evals
    assert fit.gradient_evals <= fit.value_and_gradient_evals
    assert dataclasses.replace(fit, gradient_evals=0) == dataclasses.replace(eager_fit, gradient_evals=0)
    return fit


def fit_record(run):
    """A bundled record's fit problem and its result, bit for bit (tobytes
    and repr keep NaN masks and signed zeros)."""
    arrays = (run.prior.system.A, run.prior.system.B, run.prior.prior_mean,
              run.data.t, run.data.values, run.data.noise_var, run.data.slots)
    return [(a.shape, a.tobytes()) for a in arrays], run.fit_options, repr((run.hp, run.fit))


def fits_the_past_problem(bundled_runs, name):
    """Whether the bundled record ``name``, not the past record, fits the
    past record's problem to the same result: then a fit property's costly
    oracle for it runs once, in the property's [past] case."""
    return name in ("baseline", "virtual") and fit_record(bundled_runs[name]) == fit_record(bundled_runs["past"])


def test_bundled_trio_shares_one_fit_problem(bundled_runs):
    # step 0's fit dataset has no virtual points and no past rows, so the
    # three bundled configs fit one problem to one result: each fit property
    # below runs its oracle on the past record alone
    for run in bundled_runs.values():
        assert fit_record(run) == fit_record(bundled_runs["past"])


@pytest.mark.parametrize("name, gradients", [("baseline", 9), ("past", 9), ("virtual", 9), ("two-input", 7)],
                         ids=["baseline", "past", "virtual", "two-input"])
def test_on_demand_gradients_fit_as_the_eager_descent(bundled_runs, two_input_run, name, gradients):
    if name == "two-input":
        # the golden fixes both hyperparameters: fit them free
        run = two_input_run
        options = dict(run.fit_options, fixed=None)
        on_demand = optimize_hyperparams(run.prior, run.data, **options)
    else:
        run = bundled_runs[name]
        options, on_demand = run.fit_options, (run.hp, run.fit)
    fit = on_demand[1]
    assert fit.gradient_evals == gradients < fit.value_and_gradient_evals
    if not fits_the_past_problem(bundled_runs, name):
        assert_fit_matches_the_eager_descent(run.prior, run.data, on_demand, **options)


@settings(derandomize=True, max_examples=12)
@given(x0=st.tuples(*[st.floats(-1.0, 1.0, allow_subnormal=False)] * 2))
def test_on_demand_gradients_fit_as_the_eager_descent_from_drawn_states(bundled_runs, x0):
    run = bundled_runs["past"]
    data = initial_dataset(run.prior, dataclasses.replace(run.cfg.controller, x0=x0))
    options = run.fit_options
    assert_fit_matches_the_eager_descent(run.prior, data, optimize_hyperparams(run.prior, data, **options),
                                         **options)


def nelder_mead_optimum(prior, data, bounds, jitter):
    """The best log marginal likelihood of a derivative-free search: the
    three best points of the same 5x5 log grid, each refined by scipy's
    Nelder-Mead in log space."""

    def objective(x):
        hp = Hyperparams(math.exp(x[0]), math.exp(x[1]), jitter=jitter)
        try:
            return -log_marginal_likelihood(prior, data, hp)[0]
        except FactorizationError:
            return math.inf

    axes = [np.log(np.geomspace(*bounds[name], 5)) for name in BOTH]
    probes = sorted((objective(np.array(p)), p) for p in itertools.product(*axes))
    box = [(ax[0], ax[-1]) for ax in axes]
    best = min(
        minimize(objective, np.array(p), method="Nelder-Mead", bounds=box,
                 options={"xatol": 1e-4, "fatol": 1e-9, "maxiter": 400}).fun
        for _, p in probes[:3]
    )
    return -best


@pytest.mark.parametrize("name", ["baseline", "past", "virtual"])
def test_fit_reaches_the_nelder_mead_optimum(bundled_runs, name):
    run = bundled_runs[name]
    prior, data, hp, fit = run.prior, run.data, run.hp, run.fit
    assert fit.log_marginal_likelihood == log_marginal_likelihood(prior, data, hp)[0]
    if not fits_the_past_problem(bundled_runs, name):
        oracle = nelder_mead_optimum(prior, data, run.cfg.hp_bounds, run.cfg.jitter)
        assert fit.log_marginal_likelihood >= oracle - 1e-9 * abs(oracle)


def lbfgsb_descend(fg, x0, lo, hi):
    """The oracle descent: scipy's L-BFGS-B at its default tolerances, from
    the same start on the same log box.  Returns what ``_descend`` returns:
    (best value, best point, evaluations) over every call of ``fg``."""
    seen = []

    def recorded(x):
        value, gradient = fg(x)
        seen.append((value, np.array(x)))
        return value, gradient()

    minimize(recorded, x0, jac=True, method="L-BFGS-B", bounds=list(zip(lo, hi)),
             options={"maxiter": 200})
    best = (math.inf, np.clip(x0, lo, hi))
    for value, x in seen:
        if value < best[0]:
            best = (value, x)
    return best[0], best[1], len(seen)


@pytest.mark.parametrize(
    "name, x0, fixed, at_bound",
    [
        ("baseline", None, None, {}),
        ("past", None, None, {}),
        ("virtual", None, None, {}),
        # from this x0 the fit ends on the signal_variance lower edge
        ("baseline", (-0.1031697133354561, -0.1382360249113248), None,
         {"signal_variance": "lower"}),
        ("past", None, {"lengthscale_sq": 1.0}, {}),
    ],
    ids=["baseline", "past", "virtual", "baseline-edge", "past-1d"],
)
def test_descent_matches_lbfgsb(monkeypatch, bundled_runs, name, x0, fixed, at_bound):
    run = bundled_runs[name]
    data = run.data
    if x0 is not None:
        data = initial_dataset(run.prior, dataclasses.replace(run.cfg.controller, x0=x0))
    fit = functools.partial(optimize_hyperparams, run.prior, data, bounds=run.cfg.hp_bounds,
                            fixed=fixed, jitter=run.cfg.jitter)
    own = x0 is None and fixed is None
    if own:
        # the record's own fit; test_fit_builds_its_gram_index_once re-fits it
        hp, report = run.hp, run.fit
    else:
        hp, report = fit()
        assert fit() == (hp, report)
    assert report.at_bound == at_bound
    assert report.value_and_gradient_evals <= 100
    if own and fits_the_past_problem(bundled_runs, name):
        return  # the [past] case descends this problem with L-BFGS-B
    monkeypatch.setattr(gpcore, "_descend", lbfgsb_descend)
    _, oracle = fit()
    want = oracle.log_marginal_likelihood
    assert report.log_marginal_likelihood >= want - 1e-9 * abs(want)
    assert oracle.at_bound == at_bound


def test_fixed_lengthscale_fit_builds_no_lam_derivative(unstable_system):
    ds = rows(hard(0.0, (1.0, 0.0, 0.0)), (1.5, (0.2, -0.1, 0.3), (0.05,) * 3))
    prior = build_prior(unstable_system, x_ref=[0.0, 0.0])
    hp, fit = optimize_hyperparams(prior, ds, fixed={"signal_variance": 0.5, "lengthscale_sq": 2.0})
    assert fit is None and (hp.signal_variance, hp.lengthscale_sq) == (0.5, 2.0)
    _, fit = optimize_hyperparams(prior, ds, fixed={"lengthscale_sq": 2.0})
    assert fit.value_evals == 5 and fit.value_and_gradient_evals > 0
    assert "_compiled_dlam" not in vars(prior.kernel)
    optimize_hyperparams(prior, ds, fixed={"signal_variance": 0.5})
    assert "_compiled_dlam" in vars(prior.kernel)


def test_optimizer_respects_fixed_values(unstable_prior):
    ds = rows(hard(0.0, (1.0, 0.0, 0.0)), hard(2.0, (0.0, 0.0, 0.0)))
    both, fit = optimize_hyperparams(
        unstable_prior,
        ds,
        fixed={"signal_variance": 1.5, "lengthscale_sq": 0.75},
        jitter=1e-9,
    )
    assert fit is None
    assert both.signal_variance == 1.5
    assert both.lengthscale_sq == 0.75
    assert both.jitter == 1e-9
    one, fit = optimize_hyperparams(unstable_prior, ds, fixed={"signal_variance": 1.5})
    assert one.signal_variance == 1.5
    assert one.lengthscale_sq != 1.5
    assert fit.value_evals == 5


def test_optimizer_respects_bounds(unstable_prior):
    ds = rows(hard(0.0, (1.0, 0.0, 0.0)), hard(4.0, (0.0, 1.0, 0.0)))
    bounds = {"signal_variance": (0.5, 2.0), "lengthscale_sq": (0.2, 0.4)}
    hp, fit = optimize_hyperparams(unstable_prior, ds, bounds=bounds)
    assert 0.5 - 1e-9 <= hp.signal_variance <= 2.0 + 1e-9
    assert 0.2 - 1e-9 <= hp.lengthscale_sq <= 0.4 + 1e-9
    for name, side in fit.at_bound.items():
        edge = bounds[name][0 if side == "lower" else 1]
        assert getattr(hp, name) == pytest.approx(edge, rel=1e-8)


def test_optimizer_beats_probe_corners(unstable_prior):
    ds = rows(
        hard(0.0, (1.0, 0.0, 0.0)),
        (0.5, (0.6, -0.4, 0.1), (0.05,) * 3),
        (1.5, (0.1, -0.2, 0.05), (0.05,) * 3),
    )
    hp, _ = optimize_hyperparams(unstable_prior, ds)
    best, _ = log_marginal_likelihood(unstable_prior, ds, hp)
    for sv in (0.01, 100.0):
        for ls in (0.01, 100.0):
            corner = Hyperparams(sv, ls, jitter=hp.jitter)
            assert best >= log_marginal_likelihood(unstable_prior, ds, corner)[0] - 1e-9


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_sampling_shapes_and_determinism(unstable_prior):
    hp = Hyperparams()
    ds = rows(hard(0.0, (1.0, 0.0, 0.0)))
    gp = PosteriorGp(unstable_prior, ds, hp)
    grid = np.linspace(0.0, 2.0, 11)
    a = gp.sample(grid, 4, seed=42)
    b = gp.sample(grid, 4, seed=42)
    c = gp.sample(grid, 4, seed=43)
    assert a.shape == (4, 11, 3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert gp.sample(grid, 0, seed=1).shape == (0, 11, 3)


def test_sample_mean_converges_to_posterior_mean(unstable_prior):
    hp = Hyperparams()
    ds = rows(hard(0.0, (1.0, 0.0, 0.0)))
    gp = PosteriorGp(unstable_prior, ds, hp)
    grid = np.array([0.5, 1.0])
    draws = gp.sample(grid, 4000, seed=0)
    mc_mean = draws.mean(axis=0)
    want = gp.mean(grid)
    std = gp.std(grid)
    # 5-sigma Monte Carlo band per slot
    assert np.all(np.abs(mc_mean - want) <= 5.0 * std / math.sqrt(4000) + 1e-9)


def test_samples_satisfy_the_differential_equation(unstable_prior):
    # central differences on sampled paths: the state derivative must match
    # A x + B u up to O(h^2) plus the tiny sampling jitter
    hp = Hyperparams(signal_variance=1.0, lengthscale_sq=1.0, jitter=1e-12)
    ds = rows(hard(0.0, (1.0, 0.0, 0.0)))
    gp = PosteriorGp(unstable_prior, ds, hp)
    h = 1e-2
    grid = np.arange(0.0, 2.0 + h / 2, h)
    a_mat = unstable_prior.system.A
    b_mat = unstable_prior.system.B
    for seed in (1, 2, 3):
        path = gp.sample(grid, 1, seed=seed)[0]
        x = path[:, :2]
        u = path[:, 2:]
        xdot = (x[2:] - x[:-2]) / (2 * h)
        rhs = x[1:-1] @ a_mat.T + u[1:-1] @ b_mat.T
        assert np.max(np.abs(xdot - rhs)) <= 2e-3
