"""Differential operators applied in closed form to the squared-exponential
kernel.

Writing ``u = t - t'`` and ``lam = 1/lengthscale_sq``, everything handled here
is a polynomial ``p(u, lam)`` with exact coefficients (ints or Fractions)
multiplying the Gaussian envelope ``exp(-lam*u^2/2)``; the signal variance
scales a whole entry at evaluation time.  With d/dt = d/du and
d/dt' = -d/du, entry (i, j) of K = V(d/dt) k_se V(d/dt')^T is one exact
symbol applied once, each coefficient read off the Hermite closed form of
(d/du)^k k_se by :func:`apply_symbol`:

    K_ij(u) = w_ij(d/du) k_se(u),    w_ij(s) = sum_c v_ic(s) * v_jc(-s).

The kernel is built over the integers: with D the common denominator of the
nullspace columns' coefficients, D*v has integer coefficients, so each symbol
is an integer polynomial W_ij = D^2 w_ij and every entry is an integer term
over the one denominator D^2.  Only entries i <= j are built; entry (j, i) is
entry (i, j) mirrored u -> -u (odd u powers negated, term order kept), so
K_ji(u) is bit-equal to K_ij(-u).

Floats enter in one place: an :class:`OperatorKernel` compiles each
coefficient once, when it is built, as one correctly rounded int division
n / D^2, which is the float of the reduced Fraction.  Grid evaluation runs
one Horner pass over all entries on those floats.  Reduced Fractions are
formed only when an entry is read exactly (:meth:`OperatorKernel.entry`,
``describe``).  The family is also closed under d/dlam, so the lam
derivative that the likelihood gradient needs is a second compiled table,
derived from the first one's floats on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .polyalg import PolyMatrix, signed_sum

__all__ = [
    "Hyperparams",
    "GaussPolyTerm",
    "OperatorKernel",
    "apply_symbol",
    "build_operator_kernel",
]


@dataclass(frozen=True)
class Hyperparams:
    """Kernel hyperparameters shared by all channels.

    ``signal_variance`` is sigma_f^2, ``lengthscale_sq`` is the squared
    lengthscale of the latent squared-exponential process, and ``jitter``
    is the variance substituted for exact (noise-free) constraints.
    """

    signal_variance: float = 1.0
    lengthscale_sq: float = 1.0
    jitter: float = 1e-8

    def __post_init__(self) -> None:
        object.__setattr__(self, "signal_variance", float(self.signal_variance))
        object.__setattr__(self, "lengthscale_sq", float(self.lengthscale_sq))
        object.__setattr__(self, "jitter", float(self.jitter))
        if not self.signal_variance > 0:
            raise ValueError("signal_variance must be positive")
        if not self.lengthscale_sq > 0:
            raise ValueError("lengthscale_sq must be positive")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")

    @property
    def lam(self) -> float:
        return 1.0 / self.lengthscale_sq


@dataclass(frozen=True)
class GaussPolyTerm:
    """``p(u, lam) * exp(-lam*u^2/2)`` with p stored exactly.

    ``coeffs`` maps (u_power, lam_power) to a nonzero exact coefficient, an
    int or a Fraction; ints stay ints under every operation with int
    factors.  Treat instances as immutable; all operations return new terms.
    """

    coeffs: dict

    def __post_init__(self) -> None:
        clean = {(int(a), int(b)): c for (a, b), c in self.coeffs.items() if c}
        object.__setattr__(self, "coeffs", clean)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def scaled(self, factor) -> "GaussPolyTerm":
        """The term times an exact factor, an int or a Fraction."""
        return GaussPolyTerm({key: c * factor for key, c in self.coeffs.items()})

    def mirrored(self) -> "GaussPolyTerm":
        """The term at -u: odd u powers negated, term order kept."""
        return GaussPolyTerm({(a, b): -c if a % 2 else c for (a, b), c in self.coeffs.items()})

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = ((self.coeffs[a, b], (("lam", b), ("u", a))) for a, b in sorted(self.coeffs))
        return f"({signed_sum(terms)}) exp(-lam u^2/2)"


def apply_symbol(symbol: Sequence) -> GaussPolyTerm:
    """w(d/du) applied to the SE kernel g = exp(-lam*u^2/2), for the symbol
    w(s) = sum_k w_k s^k given by its coefficients (w_0, w_1, ...).  An
    operator pair op_t(d/dt), op_tp(d/dt') is the symbol op_t(s) * op_tp(-s).

    By the Hermite closed form (d/du)^k g = sum_m (-1)^(k-m) k! / (m! (k-2m)!
    2^m) lam^(k-m) u^(k-2m) g, the coefficient of u^a lam^b comes from the
    one order k = 2b - a and is w_k (-1)^b k! / ((b-a)! a! 2^(b-a)): nothing
    is summed.  Terms are listed by ascending k, then ascending u power."""
    coeffs = {}
    for k, w in enumerate(symbol):
        if w:
            for m in range(k // 2, -1, -1):
                c = w * (math.factorial(k) // (math.factorial(m) * math.factorial(k - 2 * m) << m))
                coeffs[k - 2 * m, k - m] = -c if (k - m) % 2 else c
    return GaussPolyTerm(coeffs)


@dataclass(frozen=True, eq=False)
class OperatorKernel:
    """Matrix-valued kernel K(t, t') = V(d/dt) k_se V(d/dt')^T, entrywise in
    closed form over one common denominator.  ``entries[i][j]`` is the (i, j)
    channel-pair term times ``denominator``, with int coefficients;
    :meth:`entry` gives the exact term."""

    entries: tuple[tuple[GaussPolyTerm, ...], ...]
    denominator: int

    def __post_init__(self) -> None:
        # Compile once: each entry's terms, in coefficient order, as (slot,
        # lam power, float value); entry k's ascending u coefficients fill
        # row k of one zero-padded (entries, width) buffer per evaluation.
        # n / denominator is int true division, correctly rounded, so each
        # value is the float of the reduced Fraction.
        terms = [term for row in self.entries for term in row]
        den = self.denominator
        width = 1 + max((a for term in terms for a, _ in term.coeffs), default=0)
        slot, lam_pow, value = [], [], []
        for k, term in enumerate(terms):
            for (a, b), c in term.coeffs.items():
                slot.append(k * width + a)
                lam_pow.append(b)
                value.append(c / den)
        slot, lam_pow = (np.array(col, dtype=np.intp) for col in (slot, lam_pow))
        object.__setattr__(self, "_compiled", (width, slot, lam_pow, np.array(value)))

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> GaussPolyTerm:
        """The exact (i, j) term, its coefficients reduced Fractions."""
        return self.entries[i][j].scaled(Fraction(1, self.denominator))

    @cached_property
    def _compiled_dlam(self):
        """The compiled table of d/dlam of every entry, from the float terms
        alone: d/dlam [c u^a lam^b g] = (b c lam^(b-1) u^a - (c/2) lam^b u^(a+2)) g.
        Built on first use, which only a fit with a free lengthscale makes."""
        width, slot, lam_pow, value = self._compiled
        entry, a = np.divmod(slot, width)
        slot = entry * (width + 2) + a
        has_lam = lam_pow > 0
        return (
            width + 2,
            np.concatenate([slot[has_lam], slot + 2]),
            np.concatenate([lam_pow[has_lam] - 1, lam_pow]),
            np.concatenate([(lam_pow * value)[has_lam], -0.5 * value]),
        )

    def eval_blocks(self, ts, tps, hp: Hyperparams, rows=slice(None)) -> np.ndarray:
        """All channel-pair blocks over two time grids.

        Returns an array of shape (size, size, len(ts), len(tps)) where
        [i, j] is K_ij evaluated on the grid outer product.  K_ji(u) is
        bit-equal to K_ij(-u), so swapping the grids transposes the result
        exactly, and on equal grids it is exactly symmetric.  ``rows`` (an
        index of the first axis) evaluates only those, the same floats."""
        return self._evaluate(self._compiled, ts, tps, hp, rows)

    def eval_blocks_dlam(self, ts, tps, hp: Hyperparams) -> np.ndarray:
        """d/dlam of :meth:`eval_blocks`, lam = 1/lengthscale_sq, same shape."""
        return self._evaluate(self._compiled_dlam, ts, tps, hp)

    def _evaluate(self, compiled, ts, tps, hp: Hyperparams, rows=slice(None)) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        tps = np.atleast_1d(np.asarray(tps, dtype=float))
        width, slot, lam_pow, value = compiled
        lam, nz = hp.lam, self.size
        # Collapse the lam powers of all entries in one pass; bincount adds
        # each u coefficient's terms in coefficient order.
        powers = np.array([lam**b for b in range(lam_pow.max(initial=0) + 1)])
        coeffs = np.bincount(slot, weights=value * powers[lam_pow], minlength=nz * nz * width)
        coeffs = coeffs.reshape(nz, nz, width, 1)[rows].reshape(-1, width, 1)
        u = (ts[:, None] - tps[None, :]).reshape(-1)
        # Horner's rule for all entries at once, in numpy polyval's order.  An
        # entry's zero padding keeps its sum at +0.0 until its own top power,
        # so each entry gets the floats of its own polyval.
        out = coeffs[:, -1] + u * 0
        for k in range(width - 2, -1, -1):
            out *= u
            out += coeffs[:, k]
        out *= hp.signal_variance
        out *= np.exp(-0.5 * lam * u * u)
        return out.reshape(-1, nz, ts.size, tps.size)

    def joint_matrix(self, ts, tps, hp: Hyperparams, rows=slice(None)) -> np.ndarray:
        """Kernel matrix over (time, channel) pairs, point-major: row p*size + i
        is (ts[p], channel rows[i]) (``rows`` as in :meth:`eval_blocks`)."""
        blocks = self.eval_blocks(ts, tps, hp, rows)
        n_ch, nz, n_rows, n_cols = blocks.shape
        return blocks.transpose(2, 0, 3, 1).reshape(n_rows * n_ch, n_cols * nz)

    def describe(self) -> str:
        """Human-readable dump of all entries (1-based channel indices)."""
        lines = []
        for i in range(self.size):
            for j in range(self.size):
                lines.append(f"K[{i + 1},{j + 1}] = {self.entry(i, j)}")
        return "\n".join(lines)


def build_operator_kernel(v_cols: PolyMatrix) -> OperatorKernel:
    """Push the latent SE process through the operator columns.

    ``v_cols`` holds the nullspace columns of the system operator; entry
    (i, j) of the result is w_ij(d/du) k_se(u) with the symbol
    w_ij(s) = sum over columns c of v[i,c](s) * v[j,c](-s).  With D the lcm
    of the coefficients' denominators, P = D*v is an integer matrix and
    D^2 w_ij the integer symbol sum_c P[i,c](s) * P[j,c](-s), so the entries
    are built in int arithmetic over the denominator D^2.  Entries below the
    diagonal are mirrors of those above it.
    """
    if v_cols.cols == 0:
        raise ValueError("operator matrix has no columns: empty nullspace")
    nz, columns = v_cols.rows, range(v_cols.cols)
    den = math.lcm(*(c.denominator for poly in v_cols.entries for c in poly.coeffs))
    ints = [
        [[c.numerator * (den // c.denominator) for c in v_cols[i, col].coeffs] for col in columns]
        for i in range(nz)
    ]
    entries = [[None] * nz for _ in range(nz)]
    for i in range(nz):
        for j in range(i, nz):
            entries[i][j] = apply_symbol(_int_symbol(ints[i], ints[j]))
            if j > i:
                entries[j][i] = entries[i][j].mirrored()
    return OperatorKernel(tuple(tuple(row) for row in entries), den * den)


def _int_symbol(p_row: list, q_row: list) -> list:
    """Coefficients of sum_c p_c(s) * q_c(-s) for int coefficient lists."""
    out = [0] * max((len(p) + len(q) - 1 for p, q in zip(p_row, q_row)), default=0)
    for p, q in zip(p_row, q_row):
        q = [-b if l % 2 else b for l, b in enumerate(q)]
        for k, a in enumerate(p):
            if a:
                for l, b in enumerate(q):
                    out[k + l] += a * b
    return out
