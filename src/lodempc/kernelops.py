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
is an integer polynomial W_ij = D^2 w_ij.  The symbols are formed from the
primitive part D*v/g, g the content of D*v (a dense 6-state system's
1,226-digit ints have 99 digits there), so every entry is an int term p
times one factor g^2/D^2, and no p*g^2 is formed to build it.  Only entries
i <= j are built; entry (j, i) is entry (i, j) mirrored u -> -u (odd u
powers negated, term order kept), so K_ji(u) is bit-equal to K_ij(-u).

Floats enter in one place: an :class:`OperatorKernel` compiles each
coefficient once, when it is built, as the correctly rounded p*g^2/D^2, the
float of the reduced Fraction: with R = floor(g^2 2^S / D^2), float(p*R)
2^-S when p*R and p*(R+1) round alike, else one exact int division.  Grid
evaluation runs one Horner pass over all entries on those floats.  The
exact g^2-scaled terms, reduced Fractions, are formed only when an entry is
read (:meth:`OperatorKernel.entry`, ``describe``).  The family is also
closed under d/dlam, so the likelihood gradient's lam derivative is a
second compiled table, derived from the first one's floats on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .polyalg import ZERO, Poly, PolyMatrix, signed_sum

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
    closed form over one common denominator.  ``entries[i][j]`` times
    ``scale / denominator`` is the (i, j) channel-pair term, with int
    coefficients; :meth:`entry` gives the exact term."""

    entries: tuple[tuple[GaussPolyTerm, ...], ...]
    denominator: int
    scale: int

    def __post_init__(self) -> None:
        # Compile once: each entry's terms, in coefficient order, as (slot,
        # lam power, float value); entry k's ascending u coefficients fill
        # row k of one zero-padded (entries, width) buffer per evaluation.
        # Each value is the correctly rounded c * scale / denominator, the
        # float of the reduced Fraction.
        terms = [term for row in self.entries for term in row]
        width = 1 + max((a for term in terms for a, _ in term.coeffs), default=0)
        slot, lam_pow, nums = [], [], []
        for k, term in enumerate(terms):
            for (a, b), c in term.coeffs.items():
                slot.append(k * width + a)
                lam_pow.append(b)
                nums.append(c)
        value = np.array(_quotient_floats(nums, self.scale, self.denominator))
        slot, lam_pow = (np.array(col, dtype=np.intp) for col in (slot, lam_pow))
        object.__setattr__(self, "_compiled", (width, slot, lam_pow, value))

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> GaussPolyTerm:
        """The exact (i, j) term, its coefficients reduced Fractions."""
        from fractions import Fraction

        return self.entries[i][j].scaled(Fraction(self.scale, self.denominator))

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
        return out.reshape(len(coeffs) // nz, nz, ts.size, tps.size)

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


def _quotient_floats(nums, num: int, den: int) -> list:
    """The correctly rounded n * num / den of each int n (num, den > 0), from
    R = floor(num 2^S / den) of about 128 bits where the bracket settles it."""
    shift = 128 + den.bit_length() - num.bit_length()
    r = (num << shift) // den if shift >= 0 else num // (den << -shift)
    return [_bracketed(n, r, shift) or n * num / den for n in nums]


def _bracketed(n: int, r: int, shift: int):
    """float(n*r) 2^-shift if every real between n*r and n*(r+1) rounds to
    float(n*r) and the result is a normal float, else None."""
    try:
        lo, hi = float(n * r), float(n * r + n)
        x = math.ldexp(lo, -shift)
    except OverflowError:  # an int too wide for a float, or an overflowing result
        return None
    return x if lo == hi and abs(x) >= 2.0**-1022 else None


def build_operator_kernel(v_cols: PolyMatrix) -> OperatorKernel:
    """Push the latent SE process through the operator columns.

    ``v_cols`` holds the nullspace columns of the system operator; entry
    (i, j) of the result is w_ij(d/du) k_se(u) with the symbol
    w_ij(s) = sum over columns c of v[i,c](s) * v[j,c](-s).  With D the lcm
    of the coefficients' denominators, P = D*v is an integer matrix and
    D^2 w_ij the integer symbol sum_c P[i,c](s) * P[j,c](-s), so the entries
    are built in int arithmetic over the denominator D^2, from P/g with the
    scale g^2.  Entries below the diagonal are mirrors of those above it.
    """
    if v_cols.cols == 0:
        raise ValueError("operator matrix has no columns: empty nullspace")
    nz = v_cols.rows
    den = math.lcm(*(p.den for p in v_cols.entries))
    g = math.gcd(*(c * (den // p.den) for p in v_cols.entries for c in p.nums))
    prim = [[Poly([c * (den // p.den) // g for c in p.nums]) for p in v_cols.row(i)] for i in range(nz)]
    mirror = [[Poly([-c if k % 2 else c for k, c in enumerate(p.nums)]) for p in row] for row in prim]
    entries = [[None] * nz for _ in range(nz)]
    for i in range(nz):
        for j in range(i, nz):
            symbol = sum((p * q for p, q in zip(prim[i], mirror[j])), ZERO)
            entries[i][j] = apply_symbol(symbol.nums)
            if j > i:
                entries[j][i] = entries[i][j].mirrored()
    return OperatorKernel(tuple(tuple(row) for row in entries), den * den, g * g)
