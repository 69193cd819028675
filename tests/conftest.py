"""Shared fixtures: the 2-state unstable benchmark system and its GP prior,
and seeded random controllable 4-state priors.  Shared helpers: the dense
6-state benchmark config and the benchmark's dense 6-state draws, a run's
reconstruction from its recorded samples, a textbook RK4 oracle for the
plant, the exact flow under a held input (matrix exponential) and a held
input as a signal, the check that a single-input prior's column is Smith's
replayed one, a fresh interpreter that imports the package from src/, and
the exact-algebra oracles the package does not need at
run time (polynomial determinant, identity and inverse, a Smith
decomposition's full V, its certificate and its recovered left transform, a
kernel entry's symbol, a kernel term differentiated step by step, a kernel
term summed at one point, and the former Fraction polynomial arithmetic and
Smith reduction that the int ones must match)."""

import functools
import importlib.util
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from scipy.linalg import expm

from lodempc import ControlSignal, Dataset, Hyperparams, LinearSystem, PosteriorGp, build_prior
from lodempc.kernelops import GaussPolyTerm
from lodempc.lodegp import build_h
from lodempc.polyalg import ONE, ZERO, Poly, PolyMatrix, right_nullspace_columns, smith_normal_form

ROOT = Path(__file__).resolve().parents[1]

settings.register_profile(
    "default",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(scope="session")
def unstable_system():
    # ẋ1 = x2, ẋ2 = x1 + x2 + u — dominant eigenvalue (1+sqrt(5))/2 > 0
    return LinearSystem(A=[[0.0, 1.0], [1.0, 1.0]], B=[[0.0], [1.0]])


@pytest.fixture(scope="session")
def unstable_prior(unstable_system):
    return build_prior(unstable_system, x_ref=[0.0, 0.0])


@pytest.fixture(scope="session")
def unit_hp():
    return Hyperparams(signal_variance=1.0, lengthscale_sq=1.0)


def random_controllable_prior(seed: int, n_x: int, n_u: int):
    """Prior of the first controllable integer (A, B), entries in -2..2,
    drawn from a seeded generator."""
    rng = np.random.default_rng(seed)
    while True:
        a = rng.integers(-2, 3, (n_x, n_x)).astype(float)
        b = rng.integers(-2, 3, (n_x, n_u)).astype(float)
        ctrb = np.hstack([np.linalg.matrix_power(a, k) @ b for k in range(n_x)])
        if np.linalg.matrix_rank(ctrb) == n_x:
            return build_prior(LinearSystem(A=a, B=b), x_ref=[0.0] * n_x)


@pytest.fixture(scope="session")
def random4_prior():
    # A system on which building K_ji on its own, rather than as the mirror
    # of K_ij, lists the terms of the pair in different orders; mirrored, the
    # two evaluate bit-equal at u and -u.
    return random_controllable_prior(2015, 4, 1)


@pytest.fixture(scope="session")
def random4x2_prior():
    # Two inputs: a nullspace of two columns, summed in every entry.
    return random_controllable_prior(2015, 4, 2)


#: The benchmark's dense 6-state system, seed 0 (hyperparameters fixed).
DENSE6 = {
    "system": {
        "A": [[-0.2, -0.5, -0.8, -0.4, -0.2, 0.7], [-0.1, -1.8, -0.3, 0.2, 0.7, 0.5],
              [1.0, -0.7, -0.1, -0.9, 0.1, -0.5], [-0.6, 0.3, -0.4, -0.8, -0.5, -0.7],
              [0.5, -0.1, 0.4, 0.4, 0.0, -0.2], [-0.6, 0.3, 0.9, 1.0, 0.8, -0.5]],
        "B": [[-0.3], [-0.2], [-1.0], [-0.7], [-0.4], [-0.3]],
    },
    "reference": {"x_ref": [0.0] * 6},
    "initial": {"x0": [-0.8287016657127513, -0.5263789868078006, 0.6025489304127938,
                       0.16432407212873557, -0.8117427155192016, -0.1337461195270524],
                "u0": [0.0]},
    "horizon": {"t0": 0.0, "t_end": 10.0, "dt": 0.1},
    "bounds": {"z_min": [-1.0] * 6 + [-2.5], "z_max": [1.0] * 6 + [2.5]},
    "datasets": {"constraint_grid": {"start": 0.1, "stop": 10.0, "count": 100}, "past_window": 20},
    "hyperparams": {"fixed": {"signal_variance": 1.0, "lengthscale_sq": 1.0}, "jitter": 1e-09},
    "flags": {"control_application": "subgrid_interpolation"},
}


@functools.cache
def dense_system(index: int) -> LinearSystem:
    """The benchmark's index-th dense 6-state draw, from its generator."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return LinearSystem(*workloads.dense_system(index))


def assert_prior_column_is_replayed(system: LinearSystem) -> None:
    """For a controllable single-input system, build_prior's nullspace
    column is the one replayed from Smith's column log, as exact Polys; and
    (-1)^n_x·det Q·det V, the factor on the flat-output generator g, is the
    leading coefficient of the replayed input entry, since g's input entry
    det(dI - A) is monic."""
    dec = smith_normal_form(build_h(system))
    replayed = right_nullspace_columns(dec)
    assert build_prior(system, x_ref=[0.0] * system.n_x).v_cols == replayed
    assert dec.det_qv.degree == 0
    assert replayed[system.n_x, 0].coeffs[-1] == (-1) ** system.n_x * dec.det_qv.coeffs[0]


def run_fresh_python(code: str, *args: str, **env: str) -> subprocess.CompletedProcess:
    """Run ``code`` with ``args`` in a fresh interpreter, as the console
    script runs, importing the package from src/; ``env`` adds variables."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=path, **env),
                          capture_output=True, text=True)


def posterior_from_trajectory(prior, traj, hp, stride: int = 1) -> PosteriorGp:
    """Condition the prior on a run's recorded (t, z) samples as exact
    constraints: the GP's smooth, ODE-consistent reconstruction of the
    executed trajectory."""
    z = traj.z[::stride]
    return PosteriorGp(prior, Dataset(traj.times[::stride], z, np.zeros(z.shape)), hp)


def rk4_by_value(a, b, x, sig, t, h, substeps=1):
    """Classical RK4 over [t, t + h] in ``substeps`` equal substeps, sampling
    the signal with one value() call per stage, in the textbook order."""
    sub = h / substeps
    for k in range(substeps):
        tk = t + k * sub
        k1 = a @ x + b @ sig.value(tk)
        k2 = a @ (x + 0.5 * sub * k1) + b @ sig.value(tk + 0.5 * sub)
        k3 = a @ (x + 0.5 * sub * k2) + b @ sig.value(tk + 0.5 * sub)
        k4 = a @ (x + sub * k3) + b @ sig.value(tk + sub)
        x = x + (sub / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def step_exact(A, B, x, u_const, h: float) -> np.ndarray:
    """Advance one step under constant input using the matrix exponential of
    the augmented matrix: x+ = e^{Ah} x + (integral of e^{As} ds) B u."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    n_x, n_u = B.shape
    aug = np.zeros((n_x + n_u, n_x + n_u))
    aug[:n_x, :n_x] = A
    aug[:n_x, n_x:] = B
    phi = expm(aug * h)
    return phi[:n_x, :n_x] @ np.asarray(x, dtype=float) + phi[:n_x, n_x:] @ np.atleast_1d(
        np.asarray(u_const, dtype=float)
    )


def held(u) -> ControlSignal:
    """The constant input ``u`` as a signal: two equal knots, held outside
    them, so every time reads ``u`` exactly."""
    return ControlSignal([0.0, 1.0], [u, u])


def identity(n: int) -> PolyMatrix:
    return PolyMatrix(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))


def determinant(m: PolyMatrix):
    """Exact determinant of a square PolyMatrix by cofactor expansion
    (intended for small dims)."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    return _det([list(m.row(i)) for i in range(m.rows)]) if m.rows else ONE


def _det(grid):
    if len(grid) == 1:
        return grid[0][0]
    total = ZERO
    for j, entry in enumerate(grid[0]):
        if entry.is_zero:
            continue
        term = entry * _det([row[:j] + row[j + 1 :] for row in grid[1:]])
        total = total + term if j % 2 == 0 else total - term
    return total


def inverse(m: PolyMatrix) -> PolyMatrix:
    """Exact inverse of a unimodular PolyMatrix: its adjugate over its
    (nonzero constant) determinant."""
    det = determinant(m)
    assert det.degree == 0, f"not unimodular: det = {det}"
    n = m.rows

    def cofactor(i, j):
        minor = tuple(m[r, c] for r in range(n) if r != i for c in range(n) if c != j)
        sign = (-1) ** (i + j)
        return determinant(PolyMatrix(n - 1, n - 1, minor)).scaled(sign / det.coeffs[-1])

    return PolyMatrix(n, n, tuple(cofactor(j, i) for i in range(n) for j in range(n)))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero:
        a, b = b, divmod(a, b)[1]
    return a


def smith_v(dec) -> PolyMatrix:
    """The full V of a Smith decomposition: the identity with the column
    operations of ``dec.col_ops`` applied in log order, each to whole
    columns (a swap, or column j minus q times column k).  This runs the log
    forward, independently of the backward replay that
    ``right_nullspace_columns`` makes for one column at a time."""
    n = dec.D.cols
    v = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for j, k, q in dec.col_ops:
        for row in v:
            if q is None:
                row[j], row[k] = row[k], row[j]
            else:
                row[j] = row[j] - q * row[k]
    return PolyMatrix(n, n, tuple(p for row in v for p in row))


def smith_certificate(h: PolyMatrix, d: PolyMatrix, v: PolyMatrix) -> PolyMatrix:
    """Assert that ``d`` and ``v`` are the D and V of a Smith decomposition
    of ``h`` without reading a left transform, and return the quotient P.

    The certificate: D is diagonal with monic invariant factors d_1..d_r,
    each dividing the next; V is unimodular; H·V vanishes past column r; and
    column j of H·V is d_j times column j of an m×r matrix P whose r×r
    minors have gcd 1.  Over Q[d] that last condition says exactly that P
    extends to a unimodular U = [P | P'], so Q = U⁻¹ is unimodular with
    Q·H·V = U⁻¹·U·D = D."""
    m, n = h.rows, h.cols
    factors = tuple(d[i, i] for i in range(min(m, n)) if not d[i, i].is_zero)
    r = len(factors)
    diag = tuple(factors[i] if i == j and i < r else ZERO for i in range(m) for j in range(n))
    assert d == PolyMatrix(m, n, diag), "D is not diagonal with its factors first"
    assert all(f.coeffs[-1] == 1 for f in factors), "an invariant factor is not monic"
    for a, b in zip(factors, factors[1:]):
        assert divmod(b, a)[1].is_zero, f"{a} does not divide {b}"
    det_v = determinant(v)
    assert det_v.degree == 0, f"V is not unimodular: det V = {det_v}"
    hv = h @ v
    assert all(hv[i, j].is_zero for i in range(m) for j in range(r, n)), "H·V is nonzero past the rank"
    quotients = [[divmod(hv[i, j], factors[j]) for j in range(r)] for i in range(m)]
    assert all(rem.is_zero for row in quotients for _, rem in row), "H·V[:, j] is not divisible by d_j"
    p = PolyMatrix(m, r, tuple(quo for row in quotients for quo, _ in row))
    g = ZERO
    for rows in combinations(range(m), r):
        minor = PolyMatrix(r, r, tuple(p[i, j] for i in rows for j in range(r)))
        g = poly_gcd(g, determinant(minor))
    assert g.degree == 0, f"the {r}x{r} minors of P share the factor {g}"
    return p


def left_transform(h: PolyMatrix, dec) -> PolyMatrix:
    """The Q with Q·H·V = D of a full-row-rank ``h``: there D = [diag(d) | 0],
    so Q·P = I for the certificate's quotient P, and Q = P⁻¹ is unique."""
    assert dec.rank == h.rows, "Q is unique only at full row rank"
    return inverse(smith_certificate(h, dec.D, smith_v(dec)))


def evaluate_term(term, u: float, lam: float) -> float:
    """A GaussPolyTerm at one (u, lam), summed term by term from the exact
    coefficients: a reference that shares no code with grid evaluation."""
    poly = sum(float(c) * u**a * lam**b for (a, b), c in term.coeffs.items())
    return poly * math.exp(-0.5 * lam * u * u)


def entry_symbol(v: PolyMatrix, i: int, j: int) -> Poly:
    """The symbol w_ij(s) = sum_c v_ic(s) * v_jc(-s) of kernel entry (i, j),
    over the columns' exact coefficients."""
    symbol = ZERO
    for c in range(v.cols):
        reflected = Poly(tuple(-x if k % 2 else x for k, x in enumerate(v[j, c].coeffs)))
        symbol = symbol + v[i, c] * reflected
    return symbol


def diff_u(term: GaussPolyTerm) -> GaussPolyTerm:
    """d/du of a term by the product rule, d/du [p g] = (dp/du - lam*u*p) g,
    coefficients accumulated in term order."""
    out: dict = {}
    for (a, b), c in term.coeffs.items():
        if a:
            out[a - 1, b] = out.get((a - 1, b), 0) + a * c
        out[a + 1, b + 1] = out.get((a + 1, b + 1), 0) - c
    return GaussPolyTerm(out)


def differentiate_symbol(symbol) -> GaussPolyTerm:
    """w(d/du) applied to the SE kernel by repeated :func:`diff_u`: the k-th
    derivative scaled by w_k and added in, term by term, for k = 0, 1, ...
    A reference for the package's closed form that shares no code with it."""
    acc: dict = {}
    cur = GaussPolyTerm({(0, 0): 1})
    for k, w in enumerate(symbol):
        if k:
            cur = diff_u(cur)
        if w:
            for key, c in cur.coeffs.items():
                acc[key] = acc.get(key, 0) + w * c
    return GaussPolyTerm(acc)


@dataclass(frozen=True)
class FractionPoly:
    """The package's former polynomial: one reduced Fraction per
    coefficient, each operation normalizing every coefficient on its own.
    An oracle for :class:`Poly`'s int arithmetic, which must give the same
    coefficients."""

    coeffs: tuple = ()

    def __post_init__(self) -> None:
        coeffs = tuple(Fraction(c) for c in self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    @property
    def leading_coeff(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return FractionPoly(tuple(out))

    def __neg__(self):
        return FractionPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FractionPoly):
            if self.is_zero or other.is_zero:
                return FractionPoly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return FractionPoly(tuple(out))
        return self.scaled(other)

    def scaled(self, factor):
        factor = Fraction(factor)
        return FractionPoly(tuple(c * factor for c in self.coeffs))

    def __divmod__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by the zero polynomial")
        deg_b = len(other.coeffs) - 1
        if len(self.coeffs) - 1 < deg_b:
            return FractionPoly(), self
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        quot = [Fraction(0)] * (len(rem) - deg_b)
        for k in range(len(rem) - deg_b - 1, -1, -1):
            c = rem[k + deg_b] / lead
            if c == 0:
                continue
            quot[k] = c
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= c * b
        return FractionPoly(tuple(quot)), FractionPoly(tuple(rem[:deg_b]))


def fraction_smith_normal_form(h: PolyMatrix) -> tuple[PolyMatrix, PolyMatrix]:
    """Smith normal form by the package's former reduction in
    :class:`FractionPoly` arithmetic: the same pivot rule (smallest degree,
    then lowest (row, col)), Euclidean division passes, offending rows folded
    into the pivot row, pivot rows scaled monic, and every column operation
    carried forward into V.  (D, V) come back as PolyMatrix values, for an
    exact comparison."""
    m, n = h.rows, h.cols
    a = [[FractionPoly(h[i, j].coeffs) for j in range(n)] for i in range(m)]
    v = [[FractionPoly((1,) if i == j else ()) for j in range(n)] for i in range(n)]
    for k in range(min(m, n)):
        if not _fraction_reduce_pivot(a, v, k, m, n):
            break
        lead = a[k][k].leading_coeff
        if lead != 1:
            a[k] = [p.scaled(1 / lead) for p in a[k]]

    def matrix(grid, rows, cols):
        return PolyMatrix(rows, cols, tuple(Poly(p.coeffs) for row in grid for p in row))

    return matrix(a, m, n), matrix(v, n, n)


def _fraction_reduce_pivot(a, v, k: int, m: int, n: int) -> bool:
    def col_sub(grid, j, factor):
        for row in grid:
            row[j] = row[j] - factor * row[k]

    def swap_cols(grid, j):
        for row in grid:
            row[k], row[j] = row[j], row[k]

    while True:
        nonzero = [(a[i][j].degree, i, j) for i in range(k, m) for j in range(k, n) if not a[i][j].is_zero]
        if not nonzero:
            return False
        _, pi, pj = min(nonzero)
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
        if pj != k:
            swap_cols(a, pj)
            swap_cols(v, pj)
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
                col_sub(a, j, quot)
                col_sub(v, j, quot)
            dirty = dirty or not rem.is_zero
        if dirty:
            continue
        offender = next(
            (i for i in range(k + 1, m) for j in range(k + 1, n)
             if not a[i][j].is_zero and not divmod(a[i][j], pivot)[1].is_zero),
            None,
        )
        if offender is None:
            return True
        a[k] = [x + y for x, y in zip(a[k], a[offender])]
