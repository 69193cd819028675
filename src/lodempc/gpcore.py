"""Gaussian-process conditioning on heteroscedastic, per-channel-maskable
observations of the stacked trajectory z = (x, u).

A :class:`Dataset` is three arrays over N rows and n_z channels: times
``t``, ``values`` with NaN marking a masked channel, and ``noise_var`` with
0 marking an exact constraint, realized as a small jitter variance on the
noise diagonal; Cholesky factorization escalates that jitter when the Gram
is numerically indefinite and errors out past a hard cap rather than
silently repairing.  Factor, solves and inverse are scipy's LAPACK potrf,
potrs, trtrs and potri, called as ``scipy.linalg`` calls them but without
importing it (:mod:`lodempc._lapack`); the factor is potrf's one array.  A
:class:`PosteriorGp` query is a pure function of the factor and the query
times.  :func:`log_marginal_likelihood` scores a hyperparameter point, with
the closed-form gradient in the names asked for.  Hyperparameters are
chosen by a deterministic multi-start projected BFGS descent
(:func:`_descend`) seeded from a fixed probe grid, every point scored by
that one call, so repeated runs are bit-identical.

Index convention for Gram matrices: the observed (row, channel) slots of
the dataset, row-major (``Dataset.slots``); masked slots are skipped.  The
kernel is stationary, so a Gram is gathered from the kernel evaluated once
per distinct float lag of a :class:`LagTable`.  The fit's table holds the
times of its dataset; the closed loop's holds every time a step can
condition on, with the kernel frozen at the run's hyperparameters.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.linalg import LinAlgError

from ._lapack import flapack
from .kernelops import Hyperparams
from .lodegp import LodeGpPrior

__all__ = [
    "Dataset",
    "DatasetError",
    "FactorizationError",
    "FitReport",
    "PosteriorGp",
    "LagTable",
    "assemble_gram",
    "log_marginal_likelihood",
    "optimize_hyperparams",
    "DEFAULT_HYPERPARAM_BOUNDS",
]

#: Jitter escalation stops (and factorization fails) past this variance.
MAX_JITTER = 1e-4

#: Query times per cross kernel in posterior mean and std queries.
QUERY_CHUNK = 512

#: Default box for hyperparameter search, per parameter.
DEFAULT_HYPERPARAM_BOUNDS = {
    "signal_variance": (0.01, 100.0),
    "lengthscale_sq": (0.01, 100.0),
}

#: Log-spaced probes per free hyperparameter axis of the fit's start grid.
PROBES_PER_AXIS = 5
#: Best-scoring probes that seed a descent (:func:`_descend`) each.
N_STARTS = 3
#: A fitted parameter this close to a box edge, in log space, is reported
#: as ending on it.
AT_BOUND_TOL = 1e-9
#: The descent stops as scipy's L-BFGS-B does by default: projected gradient
#: infinity norm at most PG_TOL (``pgtol``), relative decrease at most
#: REL_DECREASE_TOL (``factr`` 1e7 times eps), or MAX_ITER iterations.  A
#: line search gives up after MAX_LINE_STEPS trials (``maxls``).
PG_TOL = 1e-5
REL_DECREASE_TOL = 1e7 * np.finfo(float).eps
MAX_ITER = 200
MAX_LINE_STEPS = 20
#: Sufficient-decrease constant of the Armijo condition.
ARMIJO_C1 = 1e-4


class DatasetError(ValueError):
    """Malformed dataset: bad shapes, non-finite entries, or one (time,
    channel) slot observed twice with different value or noise."""


class FactorizationError(RuntimeError):
    """Cholesky failed even after jitter escalation up to the cap."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observations of z = (x, u): ``t`` (N,), ``values`` (N, n_z) and
    ``noise_var`` (N, n_z), rows stably sorted by time.

    ``values`` NaN masks a channel: that slot contributes nothing to the
    Gram matrix.  ``noise_var`` 0 marks an exact constraint (realized as
    jitter).  Rows at equal times are kept as given, also identical ones;
    a slot observed twice with a different value or noise is rejected.
    """

    t: np.ndarray = field(default_factory=lambda: np.zeros(0))
    values: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    noise_var: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=float)
        values = np.asarray(self.values, dtype=float)
        noise = np.asarray(self.noise_var, dtype=float)
        if values.ndim != 2 or values.shape != noise.shape or t.shape != values.shape[:1]:
            raise DatasetError(
                f"need t (N,) and values, noise_var (N, n_z); got shapes "
                f"{t.shape}, {values.shape}, {noise.shape}"
            )
        if not np.all(np.isfinite(t)):
            raise DatasetError("times must be finite")
        if np.any(np.isinf(values)):
            raise DatasetError("values must be finite or NaN (masked)")
        if not np.all(np.isfinite(noise) & (noise >= 0)):
            raise DatasetError("noise variances must be finite and >= 0")
        order = np.argsort(t, kind="stable")
        t, values, noise = t[order], values[order], noise[order]
        _reject_conflicts(t, values, noise)
        for name, arr in (("t", t), ("values", values), ("noise_var", noise)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.t.size

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    @cached_property
    def slots(self) -> np.ndarray:
        """Flat row-major indices of the observed (row, channel) slots."""
        return np.flatnonzero(~np.isnan(self.values))


def _reject_conflicts(t, values, noise) -> None:
    """Raise DatasetError if a channel is observed twice at one time with a
    different value or noise.  Rows are sorted by time, so per channel the
    observations of one time are adjacent."""
    if not np.any(t[1:] == t[:-1]):
        return
    chan, row = np.nonzero(~np.isnan(values).T)
    c, r0, r1 = chan[:-1], row[:-1], row[1:]
    same_slot = (c == chan[1:]) & (t[r0] == t[r1])
    differ = (values[r0, c] != values[r1, c]) | (noise[r0, c] != noise[r1, c])
    bad = np.flatnonzero(same_slot & differ)
    if bad.size:
        k, c = bad[0], c[bad[0]]
        r, s = r0[k], r1[k]
        raise DatasetError(
            f"conflicting duplicate at t={t[r]} channel {c}: "
            f"({values[r, c]}, var {noise[r, c]}) vs ({values[s, c]}, var {noise[s, c]})"
        )


class LagTable:
    """Every lag between a set of times: ``times`` distinct and ascending,
    ``lags`` the distinct floats ``times[a] - times[b]`` and ``index[a, b]``
    the position of that lag in ``lags``.  A dataset finds its rows by exact
    lookup (:meth:`rows`), so every Gram entry sees the float ``t_p - t_q``
    that ``joint_matrix(t, t)`` sees.  Given ``kernel`` and ``hp``, the
    kernel at the lags is evaluated once, and kept for Grams at ``hp``."""

    def __init__(self, times, kernel=None, hp: Hyperparams | None = None):
        # return_inverse takes the sort path: the hash path imports numpy.ma.
        self.times = np.unique(np.asarray(times, dtype=float), return_inverse=True)[0]
        self.lags, inv = np.unique(self.times[:, None] - self.times, return_inverse=True)
        self.index = inv.reshape(self.times.size, self.times.size)
        self._frozen = None
        if hp is not None:
            self._frozen = (kernel, hp, self.kernel_blocks(kernel, hp))

    def kernel_blocks(self, kernel, hp: Hyperparams, dlam: bool = False) -> np.ndarray:
        """The kernel (its lam derivative with ``dlam``) at every lag, laid
        out for :meth:`gram`: shape (n_z, lags, n_z), [i, l, j] = K_ij(lags[l])."""
        frozen = self._frozen
        if not dlam and frozen is not None and frozen[0] is kernel and frozen[1] == hp:
            return frozen[2]
        evaluate = kernel.eval_blocks_dlam if dlam else kernel.eval_blocks
        return np.ascontiguousarray(evaluate(self.lags, [0.0], hp)[..., 0].transpose(0, 2, 1))

    def rows(self, t) -> np.ndarray:
        """The row of each time in ``t``; a time not in the table raises."""
        rows = np.searchsorted(self.times, t)
        found = self.times.take(rows, mode="clip")
        if not np.array_equal(found, t):
            missing = np.asarray(t)[found != t][0]
            raise ValueError(f"time {missing!r} is not in the lag table")
        return rows

    def gram(self, blocks: np.ndarray, data: Dataset) -> np.ndarray:
        """The Gram over the observed slots of ``data`` gathered from
        ``blocks`` (:meth:`kernel_blocks`): entry ((p, i), (q, j)) is
        blocks[i, index of t_p - t_q, j].  One row take per channel i fills
        every (row, channel) slot; masked slots are then dropped."""
        rows = self.rows(data.t)
        sub = self.index.take(rows, axis=0).take(rows, axis=1)
        n, nz = rows.size, data.n_channels
        full = np.empty((n, nz, n, nz))
        for i in range(nz):
            full[:, i] = blocks[i].take(sub, axis=0)
        full = full.reshape(n * nz, n * nz)
        sel = data.slots
        return full if sel.size == n * nz else full[np.ix_(sel, sel)]


def assemble_gram(prior: LodeGpPrior, data: Dataset, hp: Hyperparams, table=None):
    """Gram matrix over the observed slots plus the noise diagonal (zeros
    replaced by jitter), and the residual z - prior_mean.

    The Gram is gathered through ``table``, a :class:`LagTable` holding
    every time of the dataset (one over the dataset's own times if None).
    Each entry sees the same float t_p - t_q as in joint_matrix(t, t), so
    the two are bit-equal, with no lattice or time tolerance.

    Returns (gram, residual)."""
    if not len(data):
        raise ValueError("cannot assemble a Gram matrix from an empty dataset")
    if data.n_channels != prior.n_z:
        raise ValueError(
            f"dataset has {data.n_channels} channels, prior expects {prior.n_z}"
        )
    sel = data.slots
    if sel.size == 0:
        raise ValueError("dataset has no unmasked entries")
    table = LagTable(data.t) if table is None else table
    gram = table.gram(table.kernel_blocks(prior.kernel, hp), data)
    gram[np.diag_indices(sel.size)] += _noise_diagonal(data, hp.jitter)
    residual = data.values.ravel()[sel] - prior.prior_mean[sel % prior.n_z]
    return gram, residual


def _noise_diagonal(data: Dataset, jitter: float) -> np.ndarray:
    """The noise variance of each observed slot, jitter for an exact one."""
    noise = data.noise_var.ravel()[data.slots]
    return np.where(noise > 0, noise, jitter)


def _checked(routine: str, out, info: int):
    """``out`` if LAPACK ``routine`` returned ``info`` 0.  As in ``scipy.linalg``,
    info > 0 (not positive definite, or singular) raises LinAlgError, and info < 0 ValueError."""
    if info:
        raise (LinAlgError if info > 0 else ValueError)(f"LAPACK {routine} returned info {info}")
    return out


def cho_factor(a: np.ndarray, overwrite_a: bool = False) -> np.ndarray:
    """potrf's lower Cholesky factor of a finite ``a``, L below the diagonal and ``a``
    above: ``scipy.linalg.cho_factor(a, lower=True, overwrite_a=overwrite_a)[0]``."""
    a = np.asarray_chkfinite(a)
    return _checked("potrf", *flapack.dpotrf(a, lower=1, clean=0, overwrite_a=overwrite_a))


def cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b, from the factor ``c = cho_factor(a)`` by potrs."""
    return _checked("potrs", *flapack.dpotrs(c, b, lower=1))


def _cho_with_escalation(gram: np.ndarray, jitter: float):
    """Lower Cholesky of gram, escalating an additive diagonal boost by
    factors of ten (starting at 10x jitter) up to MAX_JITTER.  gram is exactly
    symmetric, so potrf factors ``gram.T`` in place, in Fortran order; a failed
    attempt wrote only its lower triangle, rebuilt from the upper one."""
    a, diag, boost = gram.T, gram.diagonal().copy(), 0.0
    while True:
        try:
            return cho_factor(a, overwrite_a=True), boost
        except LinAlgError:
            boost = max(jitter, 1e-10) * 10 if boost == 0.0 else boost * 10
            if boost > MAX_JITTER:
                raise FactorizationError(
                    f"Cholesky failed for {gram.shape[0]}x{gram.shape[0]} Gram "
                    f"matrix even with jitter escalated to {MAX_JITTER:g}"
                ) from None
            for j in range(a.shape[0]):
                a[j + 1 :, j] = a[j, j + 1 :]
            np.fill_diagonal(gram, diag + boost)


class PosteriorGp:
    """Prior conditioned on a dataset at fixed hyperparameters: the one
    place a Gram is assembled, factored and solved.

    An empty dataset is allowed and reproduces the prior, which doubles as
    the sampling path for unconditioned processes.  Queries return every
    channel (``mean`` those asked for), whatever the masks, and are pure: each
    evaluates its own cross kernel and changes no attribute.  ``residual``
    is z - mu over the observed slots, and ``jitter_boost`` the diagonal
    boost the factorization needed (0.0 for none or no data).  ``table`` is
    as in :func:`assemble_gram`.
    """

    def __init__(self, prior: LodeGpPrior, data: Dataset, hp: Hyperparams, table=None):
        self.prior = prior
        self.data = data
        self.hp = hp
        if not len(data):
            self._cho = None
            self.jitter_boost = 0.0
            self.residual = self._alpha = np.zeros(0)
        else:
            gram, self.residual = assemble_gram(prior, data, hp, table)
            self._cho, self.jitter_boost = _cho_with_escalation(gram, hp.jitter)
            self._alpha = cho_solve(self._cho, np.asarray_chkfinite(self.residual))

    @property
    def representer_weights(self) -> np.ndarray:
        """Solution alpha of (K + Sigma) alpha = z - mu."""
        return self._alpha

    def _cross(self, t_query: np.ndarray, channels=slice(None)) -> np.ndarray:
        """Kernel between query slots (rows, all channels) and training
        slots (columns, unmasked only), scattered into one F-ordered buffer.
        ``channels`` evaluates only their rows; the others are 0."""
        shape = (t_query.size, -1, self.data.slots.size)
        cross = self.prior.kernel.joint_matrix(t_query, self.data.t, self.hp, channels)
        full = np.zeros((t_query.size * self.prior.n_z, shape[2]), order="F")
        full.reshape(shape)[:, channels] = cross[:, self.data.slots].reshape(shape)
        return full

    def _whiten(self, cross: np.ndarray) -> np.ndarray:
        """v = L^-1 K_xq, so that the posterior covariance's data term is v^T v
        (Rasmussen & Williams 2006, Algorithm 2.1), by trtrs on the F-ordered L
        as in ``scipy.linalg.solve_triangular``.  Only K_xq is scanned."""
        cross = np.asarray_chkfinite(cross.T)
        return _checked("trtrs", *flapack.dtrtrs(self._cho, cross, lower=1))

    def _chunks(self, tq: np.ndarray, channels=slice(None)):
        """(query rows, cross kernel) per QUERY_CHUNK query times."""
        for lo in range(0, tq.size, QUERY_CHUNK):
            yield slice(lo, lo + QUERY_CHUNK), self._cross(tq[lo : lo + QUERY_CHUNK], channels)

    def mean(self, t_query, channels=slice(None)) -> np.ndarray:
        """Posterior mean, shape (len(t_query), n_z), or ``mean(t)[:, channels]``
        bit for bit: alpha's product keeps the full cross kernel's shape and
        order, because BLAS may round a row differently in another one."""
        tq = np.atleast_1d(np.asarray(t_query, dtype=float))
        out = np.tile(self.prior.prior_mean, (tq.size, 1))
        if self._alpha.size:
            for rows, cross in self._chunks(tq, channels):
                out[rows] += (cross @ self._alpha).reshape(-1, self.prior.n_z)
        return out[:, channels]

    def cov(self, t_query) -> np.ndarray:
        """Posterior covariance over (query time, channel) slots,
        point-major; shape (M*n_z, M*n_z)."""
        tq = np.atleast_1d(np.asarray(t_query, dtype=float))
        kqq = self.prior.kernel.joint_matrix(tq, tq, self.hp)
        if self._alpha.size:
            v = self._whiten(self._cross(tq))
            kqq = kqq - v.T @ v
        return 0.5 * (kqq + kqq.T)

    def std(self, t_query) -> np.ndarray:
        """Posterior standard deviation per channel, shape (M, n_z): the
        prior variance (the kernel's lag-0 diagonal, the same at every t)
        less the column sums of v^2 (:meth:`_whiten`), the diagonal of
        ``cov`` without the full matrix."""
        tq = np.atleast_1d(np.asarray(t_query, dtype=float))
        lag0 = self.prior.kernel.eval_blocks(0.0, 0.0, self.hp)[:, :, 0, 0]
        var = np.tile(np.diagonal(lag0), (tq.size, 1))
        if self._alpha.size:
            for rows, cross in self._chunks(tq):
                v = self._whiten(cross)
                var[rows] -= np.sum(v * v, axis=0).reshape(-1, self.prior.n_z)
        return np.sqrt(np.clip(var, 0.0, None))

    def sample(self, t_query, count: int, seed: int) -> np.ndarray:
        """Joint posterior samples, shape (count, len(t_query), n_z).

        Draws from N(mean, cov + jitter*I) with a fixed generator seed; the
        covariance square root comes from a clipped eigendecomposition so
        near-singular posteriors stay sampleable.
        """
        tq = np.atleast_1d(np.asarray(t_query, dtype=float))
        dim = tq.size * self.prior.n_z
        if count == 0:
            return np.zeros((0, tq.size, self.prior.n_z))
        cov = self.cov(tq) + self.hp.jitter * np.eye(dim)
        w, vecs = np.linalg.eigh(cov)
        factor = vecs * np.sqrt(np.clip(w, 0.0, None))
        rng = np.random.default_rng(seed)
        eps = rng.standard_normal((dim, count))
        flat = self.mean(tq).reshape(-1)[:, None] + factor @ eps
        return flat.T.reshape(count, tq.size, self.prior.n_z)


def log_marginal_likelihood(
    prior: LodeGpPrior, data: Dataset, hp: Hyperparams, wrt=(), table=None
):
    """(value, gradient): the marginal log-likelihood of the residual z - mu,
    constant term omitted, -(1/2) r^T (K + Sigma)^{-1} r - (1/2) log det
    (K + Sigma), and its partial derivatives in log(name) for each
    hyperparameter name in ``wrt``, in that order (none, and no inverse,
    for an empty ``wrt``).  ``table`` is as in :func:`assemble_gram`.  An
    empty dataset has no likelihood.

    With K the factored matrix (Gram, noise diagonal and any jitter boost,
    the boost held constant), dl/dtheta = 1/2 alpha^T dK alpha
    - 1/2 tr(K^-1 dK) (Rasmussen & Williams 2006, eq. 5.9), K^-1 by LAPACK
    potri from the Cholesky factor.  For log signal_variance, dK is K less
    its noise-and-boost diagonal D, so both terms are O(n):
    r^T alpha - alpha^T D alpha and n - diag(K^-1) . D.  For log
    lengthscale_sq, dK = -lam dK/dlam is gathered from the kernel's lam
    derivative at each distinct lag, through the same table as the Gram."""
    if not len(data):
        raise ValueError("cannot assemble a Gram matrix from an empty dataset")
    table = LagTable(data.t) if table is None else table
    gp = PosteriorGp(prior, data, hp, table)
    alpha = gp._alpha
    value = float(-0.5 * gp.residual @ alpha - np.sum(np.log(np.diag(gp._cho))))
    if not wrt:
        return value, np.zeros(0)
    # potri overwrites the posterior's factor, which is not queried again.
    kinv, info = flapack.dpotri(gp._cho, lower=1, overwrite_c=1)
    if info:
        raise FactorizationError(f"inverse from the Cholesky factor failed (potri info {info})")
    grad = []
    for name in wrt:
        if name == "signal_variance":
            noise = _noise_diagonal(data, hp.jitter) + gp.jitter_boost
            fit = gp.residual @ alpha - noise @ alpha**2
            trace = alpha.size - kinv.diagonal() @ noise
        else:
            dk = table.gram(table.kernel_blocks(prior.kernel, hp, dlam=True), data)
            dk *= -hp.lam
            fit = alpha @ (dk @ alpha)
            # potri fills the lower triangle only.  Clear the upper one in
            # place, a column at a time, so that no third n x n buffer is
            # made, and count the symmetric off-diagonal terms twice.  dk is
            # symmetric, so kinv.T (C order, as dk) pairs the same terms.
            # einsum, not a BLAS dot: a threaded ddot of n^2 terms can cost
            # milliseconds.
            for j in range(1, alpha.size):
                kinv[:j, j] = 0.0
            lower = np.einsum("ij,ij->", kinv.T, dk)
            trace = 2.0 * lower - kinv.diagonal() @ dk.diagonal()
        grad.append(0.5 * fit - 0.5 * trace)
    return value, np.array(grad, dtype=float)


def _descend(fg, x0, lo, hi) -> tuple:
    """Minimize ``fg`` (x -> (value, gradient)) over the box [lo, hi] by a
    projected BFGS descent from ``x0``.  Returns (best value, best point,
    evaluations) over every ``fg`` call; (inf, clipped x0, n) if none is finite.

    A coordinate on a bound whose gradient points out of the box is held
    there: its direction is 0, and its row and column of the Hessian
    approximation B are masked out, so the free coordinates step by the
    reduced Hessian, as in L-BFGS-B's subspace minimization.  The first
    step is steepest descent, t = 1/|g| along -g.  The first curvature pair
    (s, y) scales B to y'y/s'y, and a pair with s'y <= eps y'y is skipped.
    Each step backtracks along the projected path until the Armijo
    condition holds, by a safeguarded quadratic in [0.1 t, 0.5 t], or by
    10x where the value is inf (a failed factorization)."""
    eps = np.finfo(float).eps
    x = np.clip(x0, lo, hi)
    f, g = fg(x)
    evals, best = 1, (f if f < math.inf else math.inf, x)
    b = None
    for _ in range(MAX_ITER):
        if np.max(np.abs(np.clip(x - g, lo, hi) - x)) <= PG_TOL:
            break
        free = ~(((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0)))
        d = np.zeros_like(x)
        if b is None:
            d[free] = -g[free]
            t = 1.0 / np.linalg.norm(d)
        else:
            d[free] = -np.linalg.solve(b[np.ix_(free, free)], g[free])
            t = 1.0
        slope = g @ d
        for _ in range(MAX_LINE_STEPS):
            x_new = np.clip(x + t * d, lo, hi)
            f_new, g_new = fg(x_new)
            evals += 1
            if f_new < best[0]:
                best = (f_new, x_new)
            if f_new <= f + ARMIJO_C1 * min(g @ (x_new - x), 0.0):
                break
            if f_new == math.inf:
                t /= 10.0
                continue
            q = -slope * t * t / (2.0 * (f_new - f - slope * t))
            t = min(max(q, 0.1 * t), 0.5 * t) if q > 0 else 0.5 * t
        else:
            break
        s, y = x_new - x, g_new - g
        decrease = (f - f_new) / max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if decrease <= REL_DECREASE_TOL:
            break
        sy, yy = s @ y, y @ y
        if sy > eps * yy:
            if b is None:
                b = np.eye(x.size) * (yy / sy)
            bs = b @ s
            b = b - np.outer(bs, bs) / (s @ bs) + np.outer(y, y) / sy
    return best[0], best[1], evals


@dataclass(frozen=True)
class FitReport:
    """How a hyperparameter fit ended: the best log marginal likelihood, the
    value-only probe evaluations and value-and-gradient descent evaluations
    it took, the number of descents, and each free parameter that ended on
    a box edge (name -> "lower" or "upper")."""

    log_marginal_likelihood: float
    value_evals: int
    value_and_gradient_evals: int
    starts: int
    at_bound: dict


def optimize_hyperparams(
    prior: LodeGpPrior,
    data: Dataset,
    bounds: dict | None = None,
    fixed: dict | None = None,
    jitter: float = Hyperparams.jitter,
) -> tuple[Hyperparams, FitReport | None]:
    """Maximize the marginal log-likelihood over (log signal_variance,
    log lengthscale_sq) inside box bounds; returns (hyperparams, report).

    Deterministic multi-start scheme: a fixed log-spaced probe grid is
    scored by value alone, the best probes seed projected BFGS descents
    (:func:`_descend`) on the value and its closed-form gradient, and the
    best point any descent saw wins (ties by probe order).  A failed
    factorization scores -inf, and a fit whose every probe fails raises
    FactorizationError.  ``fixed`` pins parameters by name; with all of them
    pinned no likelihood is evaluated and the report is None.
    """
    limits = dict(DEFAULT_HYPERPARAM_BOUNDS)
    if bounds:
        limits.update(bounds)
    fixed = dict(fixed or {})
    free = [n for n in DEFAULT_HYPERPARAM_BOUNDS if n not in fixed]

    def make_hp(log_free) -> Hyperparams:
        values = dict(fixed)
        for name, lv in zip(free, log_free):
            values[name] = math.exp(lv)
        return Hyperparams(**values, jitter=jitter)

    if not free:
        return make_hp(()), None
    table = LagTable(data.t)

    def objective(log_free: np.ndarray, wrt=()):
        try:
            value, grad = log_marginal_likelihood(prior, data, make_hp(log_free), wrt, table)
        except FactorizationError:
            return math.inf, np.zeros(len(wrt))
        return -value, -grad

    axes = [
        np.log(np.geomspace(limits[name][0], limits[name][1], PROBES_PER_AXIS))
        for name in free
    ]
    probes = [np.array(p) for p in itertools.product(*axes)]
    scores = [objective(p)[0] for p in probes]
    order = sorted(range(len(probes)), key=lambda k: (scores[k], k))
    starts = [probes[k] for k in order[:N_STARTS] if math.isfinite(scores[k])]
    if not starts:
        raise FactorizationError(
            f"all {len(probes)} hyperparameter probes failed to factor "
            f"with jitter escalated to {MAX_JITTER:g}"
        )

    log_bounds = [(ax[0], ax[-1]) for ax in axes]
    lo, hi = np.array(log_bounds).T
    best_f, best_x, descent_evals = math.inf, starts[0], 0
    for start in starts:
        f, x, evals = _descend(lambda point: objective(point, free), start, lo, hi)
        descent_evals += evals
        if f < best_f:
            best_f, best_x = f, x

    at_bound = {}
    for name, lv, (lo, hi) in zip(free, best_x, log_bounds):
        if lv - lo <= AT_BOUND_TOL:
            at_bound[name] = "lower"
        elif hi - lv <= AT_BOUND_TOL:
            at_bound[name] = "upper"
    report = FitReport(
        log_marginal_likelihood=-best_f,
        value_evals=len(probes),
        value_and_gradient_evals=descent_evals,
        starts=len(starts),
        at_bound=at_bound,
    )
    return make_hp(best_x), report
