"""Exact rational polynomial arithmetic and the diagonalization pipeline.

Everything here is exact: assertions use == on Poly/PolyMatrix, never float
tolerances.  The int arithmetic and the Smith reduction are also checked
coefficient for coefficient against the former Fraction ones (conftest).
"""

import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lodempc.config import load_config
from lodempc.kernelops import GaussPolyTerm, OperatorKernel
from lodempc.lodegp import LinearSystem, build_h, build_prior
from lodempc.polyalg import (
    D,
    ONE,
    ZERO,
    Poly,
    PolyMatrix,
    right_nullspace_columns,
    smith_normal_form,
)

from conftest import (
    FractionPoly,
    dense_system,
    determinant,
    fraction_smith_normal_form,
    identity,
    left_transform,
    random_controllable_prior,
    smith_certificate,
    smith_v,
)

ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# Poly basics
# ---------------------------------------------------------------------------


def test_poly_canonicalizes_trailing_zeros():
    assert Poly((1, 2, 0, 0)) == Poly((1, 2))
    assert Poly((0, 0)) == ZERO
    assert Poly((0,)).is_zero


def test_poly_degree_conventions():
    assert ZERO.degree < 0
    assert ONE.degree == 0
    assert D.degree == 1
    assert (D * D - ONE).degree == 2


def test_poly_coefficients_become_fractions():
    p = Poly((1, 2))
    assert all(isinstance(c, Fraction) for c in p.coeffs)
    assert Poly((Fraction(1, 3),)).coeffs == (Fraction(1, 3),)
    # floats convert exactly, as their binary expansions
    assert Poly((0.1, -2.5)).coeffs == (Fraction(0.1), Fraction(-5, 2))
    assert Poly((Fraction(2, 6), Fraction(3, 4))) == Poly((Fraction(1, 3), 0.75))


def test_poly_arithmetic_known_products():
    # (1 + d)(1 - d) = 1 - d^2
    assert (ONE + D) * (ONE - D) == Poly((1, 0, -1))
    assert (D + ONE) - (D + ONE) == ZERO
    assert 3 * D == Poly((0, 3))
    assert D * D * D == Poly((0, 0, 0, 1))


def test_poly_division_with_remainder():
    # d^2 - d - 1 divided by d - 2 -> quotient d + 1, remainder 1
    num = D * D - D - ONE
    quo, rem = divmod(num, D - Poly.const(2))
    assert quo == D + ONE
    assert rem == ONE
    assert quo * (D - Poly.const(2)) + rem == num


def test_poly_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        divmod(ONE, ZERO)


def test_poly_str_is_readable():
    assert str(ZERO) == "0"
    assert str(ONE - D + D * D) == "1 - d + d^2"


small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)
small_polys = st.builds(
    Poly, st.lists(small_fractions, min_size=0, max_size=4).map(tuple)
)


@given(small_polys, small_polys, small_polys)
def test_poly_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)


@given(small_polys, small_polys)
def test_poly_divmod_reconstructs(p, q):
    if q.is_zero:
        return
    quo, rem = divmod(p, q)
    assert quo * q + rem == p
    assert rem.is_zero or rem.degree < q.degree


# ---------------------------------------------------------------------------
# The int arithmetic against the former Fraction arithmetic
# ---------------------------------------------------------------------------

oracle_fractions = st.builds(
    Fraction, st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=1, max_value=10**4)
)
oracle_coeffs = st.lists(st.one_of(st.integers(-3, 3), oracle_fractions), max_size=6)


def assert_canonical(p: Poly) -> None:
    assert p.den > 0 and math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    assert Poly(p.coeffs) == p and hash(Poly(p.coeffs)) == hash(p)


@settings(derandomize=True, max_examples=300)
@given(oracle_coeffs, oracle_coeffs, st.one_of(st.integers(-5, 5), oracle_fractions))
def test_int_arithmetic_matches_the_fraction_oracle(a, b, factor):
    p, q, fp, fq = Poly(a), Poly(b), FractionPoly(a), FractionPoly(b)
    assert p.coeffs == fp.coeffs
    results = [(p + q, fp + fq), (p - q, fp - fq), (-p, -fp), (p * q, fp * fq),
               (p.scaled(factor), fp.scaled(factor))]
    if not q.is_zero:
        results += zip(divmod(p, q), divmod(fp, fq))
    for got, want in results:
        assert got.coeffs == want.coeffs
        assert_canonical(got)


@pytest.mark.parametrize("name", [f"dense{i}" for i in range(10)] + ["two_input"])
def test_smith_matches_the_fraction_oracle_on_systems(name):
    if name == "two_input":
        system = load_config(ROOT / "tests" / "golden" / "algebra_two_input.json").system
    else:
        system = dense_system(int(name[len("dense"):]))
    h = build_h(system)
    dec = smith_normal_form(h)
    assert (dec.D, smith_v(dec)) == fraction_smith_normal_form(h)
    assert_nullspace_is_trailing_columns_of_v(dec)


oracle_entries = st.lists(st.one_of(st.integers(-3, 3), oracle_fractions), max_size=4).map(Poly)


@settings(derandomize=True)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=4), st.data())
def test_smith_matches_the_fraction_oracle_on_random_matrices(rows, cols, data):
    h = PolyMatrix.from_rows([[data.draw(oracle_entries) for _ in range(cols)] for _ in range(rows)])
    dec = smith_normal_form(h)
    assert (dec.D, smith_v(dec)) == fraction_smith_normal_form(h)
    assert_nullspace_is_trailing_columns_of_v(dec)
    if dec.rank == rows:  # Q is unique only at full row rank
        assert dec.det_qv == determinant(left_transform(h, dec)) * determinant(smith_v(dec))


@pytest.mark.parametrize("name", ["bundled", "random4", "random4x2", "two_input"])
def test_smith_records_det_q_times_det_v(name):
    # the recorded constant against the determinants of the Q recovered from
    # the certificate and of the V formed by running the log forward
    if name == "two_input":
        system = load_config(ROOT / "tests" / "golden" / "algebra_two_input.json").system
    elif name == "bundled":
        system = LinearSystem(A=[[0.0, 1.0], [1.0, 1.0]], B=[[0.0], [1.0]])
    else:
        system = random_controllable_prior(2015, 4, 1 if name == "random4" else 2).system
    h = build_h(system)
    dec = smith_normal_form(h)
    assert dec.det_qv.degree == 0
    assert dec.det_qv == determinant(left_transform(h, dec)) * determinant(smith_v(dec))


def assert_nullspace_is_trailing_columns_of_v(dec) -> None:
    # the nullspace columns come from replaying the column-operation log
    # backward; they must be the trailing columns of the full V that the
    # oracle forms by running the log forward, entry for entry
    v, r, n = smith_v(dec), dec.rank, dec.D.cols
    assert right_nullspace_columns(dec) == PolyMatrix(
        n, n - r, tuple(v[i, j] for i in range(n) for j in range(r, n))
    )


def test_build_prior_forms_neither_v_nor_the_scaled_kernel_entries(monkeypatch):
    # A run reads one column of V and the kernel's floats: on the dense
    # 6-state system, build_prior must not scale any kernel term by g^2 (nor
    # read an exact entry).  The package has no full V to form; only the
    # tests build it (conftest.smith_v).
    def refuse(*args):
        raise AssertionError("formed on the run path")

    monkeypatch.setattr(GaussPolyTerm, "scaled", refuse)
    monkeypatch.setattr(OperatorKernel, "entry", refuse)
    system = dense_system(0)
    prior = build_prior(system, x_ref=[0.0] * system.n_x)
    assert (prior.v_cols.rows, prior.v_cols.cols) == (7, 1)


# ---------------------------------------------------------------------------
# PolyMatrix
# ---------------------------------------------------------------------------


def test_matrix_from_rows_coerces_scalars():
    m = PolyMatrix.from_rows([[1, D], [0, 2]])
    assert m[0, 0] == ONE
    assert m[0, 1] == D
    assert m[1, 1] == Poly.const(2)


def test_matrix_product_against_hand_computation():
    a = PolyMatrix.from_rows([[D, 1], [0, D]])
    b = PolyMatrix.from_rows([[1, 0], [D, 1]])
    prod = a @ b
    assert prod == PolyMatrix.from_rows([[2 * D, 1], [D * D, D]])


def test_matrix_product_dimension_mismatch():
    a = PolyMatrix.from_rows([[1, 0]])
    with pytest.raises(ValueError):
        a @ a


def test_matrix_identity_is_neutral():
    m = PolyMatrix.from_rows([[D, 1, 0], [1, ONE - D, 1]])
    assert identity(2) @ m == m
    assert m @ identity(3) == m


def test_determinant_2x2_and_3x3():
    m2 = PolyMatrix.from_rows([[D, 1], [1, D]])
    assert determinant(m2) == D * D - ONE
    m3 = PolyMatrix.from_rows([[1, 0, 0], [0, D, 0], [0, 0, D]])
    assert determinant(m3) == D * D


def test_to_text_layout():
    m = PolyMatrix.from_rows([[D, 1], [0, ONE - D]])
    assert m.to_text() == "d; 1\n0; 1 - d"


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def unstable_h():
    # first-order form of ẋ1 = x2, ẋ2 = x1 + x2 + u
    return PolyMatrix.from_rows(
        [[-D, 1, 0], [1, ONE - D, 1]]
    )


def snf_identities(h):
    # the certificate covers every rank: V unimodular, the divisibility
    # chain, and a unimodular Q with Q·H·V = D
    dec = smith_normal_form(h)
    v = smith_v(dec)
    smith_certificate(h, dec.D, v)
    if dec.rank == h.rows:
        # full row rank: Q is unique, so this is the algorithm's own Q
        q = left_transform(h, dec)
        assert q @ h @ v == dec.D
        dq = determinant(q)
        assert dq.degree <= 0 and not dq.is_zero
    return dec


def test_snf_of_unstable_system_is_identity_block():
    dec = snf_identities(unstable_h())
    assert dec.D == PolyMatrix.from_rows([[1, 0, 0], [0, 1, 0]])
    assert dec.rank == 2


def test_snf_transforms_are_unimodular_for_unstable_system():
    h = unstable_h()
    dec = smith_normal_form(h)
    # frozen by hand-checking the printed decomposition of this system
    assert determinant(left_transform(h, dec)) == ONE
    assert determinant(smith_v(dec)) == ONE


def test_nullspace_of_unstable_system():
    h = unstable_h()
    n = right_nullspace_columns(smith_normal_form(h))
    assert (n.rows, n.cols) == (3, 1)
    # the generator is unique up to a nonzero rational unit; pin that unit
    # by normalizing the first entry
    first = n[0, 0]
    assert first.degree <= 0 and not first.is_zero
    scale = Fraction(1, 1) / first.coeffs[-1]
    col = tuple(n[i, 0].scaled(scale) for i in range(3))
    assert col == (ONE, D, D * D - D - ONE)


def test_nullspace_product_is_exactly_zero():
    h = unstable_h()
    n = right_nullspace_columns(smith_normal_form(h))
    assert (h @ n).is_zero


def test_snf_scalar_integrator():
    # ẋ = u: H = [-d | 1], nullspace generated by (1, d)ᵀ
    h = PolyMatrix.from_rows([[-D, 1]])
    dec = snf_identities(h)
    assert dec.D == PolyMatrix.from_rows([[1, 0]])
    n = right_nullspace_columns(dec)
    scale = Fraction(1, 1) / n[0, 0].coeffs[-1]
    assert tuple(n[i, 0].scaled(scale) for i in range(2)) == (ONE, D)


def test_snf_without_input_keeps_operator_factor():
    # ẋ = a·x with no control channel: single invariant factor d - a,
    # nothing for the nullspace
    h = PolyMatrix.from_rows([[Poly((2, -1))]])  # 2 - d
    dec = snf_identities(h)
    assert dec.D[0, 0] == Poly((-2, 1))  # monic normalization
    n = right_nullspace_columns(dec)
    assert n.cols == 0


def test_snf_diagonal_entries_are_monic():
    h = PolyMatrix.from_rows([[2 * D, 0], [0, 3 * (D * D)]])
    dec = snf_identities(h)
    for k in range(dec.rank):
        assert dec.D[k, k].coeffs[-1] == 1


def test_snf_handles_zero_matrix():
    h = PolyMatrix.from_rows([[0, 0, 0], [0, 0, 0]])
    dec = snf_identities(h)
    assert dec.rank == 0
    n = right_nullspace_columns(dec)
    assert n.cols == 3


def _diag(*entries):
    n = len(entries)
    return PolyMatrix.from_rows([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


@pytest.mark.parametrize(
    "h, d, v, message",
    [
        # H·V = diag(d, d²) and D = 2·H·V: the factors are not monic
        (_diag(D, D * D), _diag(2 * D, 2 * (D * D)), identity(2), "not monic"),
        # monic, but d does not divide d + 1 (the true form is diag(1, d² + d))
        (_diag(D, D + ONE), _diag(D, D + ONE), identity(2), "does not divide"),
        # H·V = D exactly, but det V = d
        (
            PolyMatrix.from_rows([[1, 0]]),
            PolyMatrix.from_rows([[1, 0]]),
            PolyMatrix.from_rows([[1, 0], [0, D]]),
            "V is not unimodular",
        ),
        # H·V = [d | 0] = P·D with P = [d]: no unimodular Q gives D = [1 | 0]
        (
            PolyMatrix.from_rows([[D, D]]),
            PolyMatrix.from_rows([[1, 0]]),
            PolyMatrix.from_rows([[1, -1], [0, 1]]),
            "minors of P share",
        ),
    ],
    ids=["non-monic", "non-dividing", "non-unimodular-v", "minors-share-a-factor"],
)
def test_smith_certificate_rejects_wrong_decompositions(h, d, v, message):
    with pytest.raises(AssertionError, match=message):
        smith_certificate(h, d, v)


entry_polys = st.builds(
    Poly,
    st.lists(
        st.integers(min_value=-3, max_value=3), min_size=0, max_size=3
    ).map(tuple),
)


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_snf_identities_hold_on_random_matrices(rows, cols, data):
    grid = [
        [data.draw(entry_polys) for _ in range(cols)] for _ in range(rows)
    ]
    h = PolyMatrix.from_rows(grid)
    snf_identities(h)


@given(st.data())
def test_nullspace_always_annihilated(data):
    rows = data.draw(st.integers(min_value=1, max_value=2))
    cols = rows + data.draw(st.integers(min_value=1, max_value=2))
    grid = [
        [data.draw(entry_polys) for _ in range(cols)] for _ in range(rows)
    ]
    h = PolyMatrix.from_rows(grid)
    n = right_nullspace_columns(smith_normal_form(h))
    if n.cols:
        assert (h @ n).is_zero
