"""Exact univariate polynomial arithmetic over the rationals, polynomial
matrices, and Smith normal form with its right transformation as a log.

The indeterminate is written ``d`` and stands for the time-differentiation
operator, so a matrix of these polynomials encodes a system of linear
constant-coefficient ODEs.  A polynomial is int numerators over one positive
int denominator, reduced by one content gcd per operation; division is
pseudo-division by the divisor's int leading coefficient.  Every operation
is exact, which keeps the Smith reduction and the nullspace extraction free
of pivoting and rounding artifacts.  The reduction logs its column
operations instead of carrying V forward, and the nullspace columns of V
are formed from the log alone; only the tests form the full V.  All values
are immutable and all functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "NEG_INFINITY",
    "Poly",
    "PolyMatrix",
    "SmithDecomposition",
    "ZERO",
    "ONE",
    "D",
    "signed_sum",
    "smith_normal_form",
    "right_nullspace_columns",
]

#: Degree assigned to the zero polynomial, so degree comparisons just work.
NEG_INFINITY = float("-inf")


@dataclass(frozen=True, init=False, slots=True)
class Poly:
    """A univariate polynomial with exact rational coefficients: ints, Fractions
    or floats over an optional int ``den``.  ``nums[k] / den`` multiplies d^k,
    in canonical form: no trailing zero, no factor common to den and all nums."""

    nums: tuple
    den: int

    def __new__(cls, coeffs: Sequence = (), den: int = 1) -> "Poly":
        ratios = [c.as_integer_ratio() if isinstance(c, float) else (int(c.numerator), int(c.denominator))
                  for c in coeffs]
        lcm = math.lcm(*(d for _, d in ratios))
        return _make([n * (lcm // d) for n, d in ratios], lcm * den)

    @classmethod
    def const(cls, value) -> "Poly":
        return cls((value,))

    @property
    def coeffs(self) -> tuple:
        """The coefficients as reduced Fractions, formed on each read."""
        from fractions import Fraction

        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def degree(self):
        """Degree of the polynomial; ``-inf`` for the zero polynomial."""
        return len(self.nums) - 1 if self.nums else NEG_INFINITY

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return _add(self, other, 1)

    def __neg__(self) -> "Poly":
        return self.scaled(-1)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return _add(self, other, -1)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scaled(other)
        a, b = self.nums, other.nums
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _make(out, self.den * other.den)

    __rmul__ = __mul__

    def scaled(self, factor) -> "Poly":
        return self * Poly((factor,))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Euclidean division: returns (q, r) with self = q*other + r and
        deg r < deg other."""
        if not isinstance(other, Poly):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by the zero polynomial")
        b, deg_b = other.nums, len(other.nums) - 1
        # scale * self.nums = quot * b + rem in ints; each step scales by the
        # least factor that lets b's leading coefficient divide the next one.
        lead, scale = b[-1], 1
        rem, quot = list(self.nums), [0] * (len(self.nums) - deg_b)
        for k in range(len(quot) - 1, -1, -1):
            c = rem[k + deg_b]
            g = math.gcd(c, lead)
            if g != abs(lead):
                f = abs(lead) // g
                rem, quot, scale = [x * f for x in rem], [x * f for x in quot], scale * f
            quot[k] = q = c // g if lead > 0 else -c // g
            for j, y in enumerate(b):
                rem[k + j] -= q * y
        den = scale * self.den
        return _make([x * other.den for x in quot], den), _make(rem[:deg_b], den)

    def __str__(self) -> str:
        return signed_sum((c, (("d", k),)) for k, c in enumerate(self.coeffs) if c)


def _make(nums: list, den: int) -> Poly:
    """The canonical Poly of nums / den, den > 0; ``nums`` is consumed."""
    while nums and not nums[-1]:
        nums.pop()
    g = math.gcd(den, *nums)  # stops reading at 1
    p = object.__new__(Poly)
    object.__setattr__(p, "nums", tuple(c // g for c in nums) if g != 1 else tuple(nums))
    object.__setattr__(p, "den", den // g)
    return p


def _add(p: Poly, q: Poly, sign: int) -> Poly:
    """p + sign*q over the lcm of the two denominators."""
    g = math.gcd(p.den, q.den)
    fp, fq = q.den // g, sign * (p.den // g)
    out = [c * fp for c in p.nums] + [0] * (len(q.nums) - len(p.nums))
    for k, c in enumerate(q.nums):
        out[k] += c * fq
    return _make(out, p.den * fp)


def signed_sum(terms) -> str:
    """An exact sum as text, "0" if empty.  ``terms`` are (nonzero
    coefficient, powers) pairs, powers a sequence of (name, exponent).  The
    first term carries a bare "-" if negative, the rest are joined by " + "
    or " - ", and a unit magnitude before a monomial is left out:
    "-1 + 3/2 d - d^2"."""
    parts: list[str] = []
    for c, powers in terms:
        mag = abs(c)
        var = " ".join(name if k == 1 else f"{name}^{k}" for name, k in powers if k)
        body = str(mag) if not var else var if mag == 1 else f"{mag} {var}"
        sign = ("" if c > 0 else "-") if not parts else ("+ " if c > 0 else "- ")
        parts.append(sign + body)
    return " ".join(parts) or "0"


ZERO = Poly()
ONE = Poly((1,))
#: The differentiation symbol d/dt.
D = Poly((0, 1))


@dataclass(frozen=True)
class PolyMatrix:
    """Dense matrix of :class:`Poly` entries, stored row-major."""

    rows: int
    cols: int
    entries: tuple[Poly, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        if not all(isinstance(e, Poly) for e in self.entries):
            raise TypeError("matrix entries must be Poly instances")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "PolyMatrix":
        """Build from nested sequences; scalar entries are coerced to Poly."""
        n_rows = len(rows)
        n_cols = len(rows[0]) if n_rows else 0
        flat: list[Poly] = []
        for row in rows:
            if len(row) != n_cols:
                raise ValueError("ragged rows")
            for e in row:
                flat.append(e if isinstance(e, Poly) else Poly.const(e))
        return cls(n_rows, n_cols, tuple(flat))

    def __getitem__(self, key: tuple[int, int]) -> Poly:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index {key} out of range for {self.rows}x{self.cols} matrix")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Poly, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.entries)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        flat: list[Poly] = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = ZERO
                for k in range(self.cols):
                    a = self[i, k]
                    if a.is_zero:
                        continue
                    b = other[k, j]
                    if b.is_zero:
                        continue
                    acc = acc + a * b
                flat.append(acc)
        return PolyMatrix(self.rows, other.cols, tuple(flat))

    def to_text(self) -> str:
        """One row per line, entries separated by ';'."""
        return "\n".join("; ".join(str(e) for e in self.row(i)) for i in range(self.rows))


@dataclass(frozen=True)
class SmithDecomposition:
    """Factorization Q·H·V = D with unimodular Q and V that are implied by
    the row and column operations but not formed.

    D is diagonal (in the rectangular sense); its nonzero diagonal entries
    are monic and each divides the next.  V is the product of the column
    operations in ``col_ops``, in order: (j, k, None) swaps columns j and k,
    (j, k, q) subtracts q times column k from column j.  Only the nullspace
    columns of V are read (:func:`right_nullspace_columns`).  ``det_qv`` is
    det Q·det V.  For a controllable single-input H = [A - d*I | B], V's last
    column v is (-1)^n·det_qv·g, g = (adj(dI - A)·B, det(dI - A)) the
    flat-output generator.  Proof: v and g are primitive (V is unimodular; g
    is ±H's maximal minors, coprime by PBH) and span H's rank-1 kernel, so
    v = c·g.  [H; e_(n+1)ᵀ]·[V_1 | g] is block triangular, diagonal (Q⁻¹, det(dI - A)),
    and det[H; e_(n+1)ᵀ] = (-1)^n·det(dI - A), so det V = c·det[V_1 | g] = c·(-1)^n/det Q.
    """

    D: PolyMatrix
    col_ops: tuple
    det_qv: Poly

    @property
    def rank(self) -> int:
        return len(self.invariant_factors())

    def invariant_factors(self) -> tuple[Poly, ...]:
        return tuple(
            self.D[i, i]
            for i in range(min(self.D.rows, self.D.cols))
            if not self.D[i, i].is_zero
        )


def smith_normal_form(h: PolyMatrix) -> SmithDecomposition:
    """Smith normal form of a polynomial matrix over Q[d].

    Classic row/column reduction for a Euclidean domain.  The pivot is always
    the smallest-degree nonzero entry of the trailing submatrix, ties broken
    by lowest (row, col); remainders from Euclidean division shrink the pivot
    degree until the pivot's row and column are clear, then a non-divisible
    trailing entry (if any) is folded into the pivot row and reduction
    continues.  Diagonal entries are normalized monic by scaling the pivot
    row.  Row operations act on the working matrix alone; column operations
    act on it and are recorded, in order, as the decomposition's ``col_ops``.
    """
    m, n = h.rows, h.cols
    if m == 0 or n == 0:
        raise ValueError("cannot reduce an empty matrix")
    a = [list(h.row(i)) for i in range(m)]
    ops: list = []
    det_num = det_den = 1  # det_qv, reduced once: gcds of the growing product cost more

    for k in range(min(m, n)):
        sign = _reduce_pivot(a, ops, k, m, n)
        if not sign:
            break
        lead, den = a[k][k].nums[-1], a[k][k].den
        inv = _make([den if lead > 0 else -den], abs(lead))
        det_num, det_den = det_num * sign * inv.nums[0], det_den * inv.den
        if lead != den:
            a[k] = [p * inv for p in a[k]]

    d = PolyMatrix(m, n, tuple(p for row in a for p in row))
    return SmithDecomposition(d, tuple(ops), _make([det_num], det_den))


def _pivot_position(a, k: int, m: int, n: int):
    """(row, col) of the smallest-degree nonzero trailing entry, the lowest
    on ties, or None."""
    nonzero = [(a[i][j].degree, i, j) for i in range(k, m) for j in range(k, n) if not a[i][j].is_zero]
    return min(nonzero)[1:] if nonzero else None


def _col_op(a, ops: list, j: int, k: int, factor=None) -> None:
    """Swap columns j and k of ``a`` (no factor) or subtract factor times
    column k from column j, and record the operation."""
    ops.append((j, k, factor))
    for row in a:
        if factor is None:
            row[j], row[k] = row[k], row[j]
        else:
            row[j] = row[j] - factor * row[k]


def _non_divisible_row(a, k: int, m: int, n: int):
    pivot = a[k][k]
    if pivot.degree == 0:  # a nonzero constant divides every entry
        return None
    for i in range(k + 1, m):
        for j in range(k + 1, n):
            if not a[i][j].is_zero and not divmod(a[i][j], pivot)[1].is_zero:
                return i
    return None


def _reduce_pivot(a, ops: list, k: int, m: int, n: int) -> int:
    """Drive the trailing submatrix so a[k][k] is the sole nonzero in its
    row/column and divides everything below-right.  Returns the determinant
    of its operations, ±1 by its swaps, or 0 if the trailing submatrix is 0."""
    sign = 1
    while True:
        pos = _pivot_position(a, k, m, n)
        if pos is None:
            return 0
        pi, pj = pos
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
            sign = -sign
        if pj != k:
            _col_op(a, ops, k, pj)
            sign = -sign
        pivot = a[k][k]

        dirty = False
        for i in range(k + 1, m):
            if a[i][k].is_zero:
                continue
            quot, rem = divmod(a[i][k], pivot)
            if not quot.is_zero:
                a[i] = [x - quot * y for x, y in zip(a[i], a[k])]
            dirty = dirty or not rem.is_zero
        for j in range(k + 1, n):
            if a[k][j].is_zero:
                continue
            quot, rem = divmod(a[k][j], pivot)
            if not quot.is_zero:
                _col_op(a, ops, j, k, quot)
            dirty = dirty or not rem.is_zero
        if dirty:
            continue

        oi = _non_divisible_row(a, k, m, n)
        if oi is None:
            return sign
        # Fold the offending row into the pivot row; the next division pass
        # strictly lowers the pivot degree, so this terminates.
        a[k] = [x + y for x, y in zip(a[k], a[oi])]


def right_nullspace_columns(dec: SmithDecomposition) -> PolyMatrix:
    """Columns of V spanning the right nullspace of H.

    These are the columns of V past the number of nonzero diagonal entries
    of D: for those j, H·V[:, j] = Q⁻¹·D[:, j] = 0.  Each is formed from the
    column-operation log alone, never from the full V: V = E_1·E_2·…·E_t, so
    V·e_j is e_j with E_t applied first, and "col j -= q·col k" subtracts q
    times entry j from entry k.  The ``algebra`` command and the tests check
    H·V = 0 exactly.
    """
    n, cols = dec.D.cols, []
    for j in range(dec.rank, n):
        x = [ONE if i == j else ZERO for i in range(n)]
        for a, b, q in reversed(dec.col_ops):
            if q is None:
                x[a], x[b] = x[b], x[a]
            elif not x[a].is_zero:
                x[b] = x[b] - q * x[a]
        cols.append(x)
    return PolyMatrix(n, len(cols), tuple(col[i] for i in range(n) for col in cols))
