"""Closed-form operator-applied SE kernel vs. an independent symbolic oracle.

The implementation differentiates the exponential-times-polynomial form via
exact coefficient tables; the oracle differentiates exp(-lam*(t-t')^2/2)
directly with sympy.  The two routes share no code.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lodempc.kernelops import (
    GaussPolyTerm,
    Hyperparams,
    OperatorKernel,
    apply_operator_pair,
    build_operator_kernel,
    se_kernel,
)
from lodempc.lodegp import LinearSystem, build_prior
from lodempc.polyalg import D, ONE, Poly, PolyMatrix


# ---------------------------------------------------------------------------
# sympy oracle
# ---------------------------------------------------------------------------

T, TP, LAM = sp.symbols("t t_prime lam", real=True, positive=True)
SE_EXPR = sp.exp(-LAM * (T - TP) ** 2 / 2)


def oracle_apply(op_t: Poly, op_tp: Poly, expr=SE_EXPR):
    """Apply polynomial differential operators symbolically."""
    return sp.simplify(oracle_derivatives(op_t, op_tp, expr))


def oracle_derivatives(op_t: Poly, op_tp: Poly, expr=SE_EXPR):
    """The operators' derivative sum, unsimplified."""
    acc = sp.Integer(0)
    for k, c in enumerate(op_t.coeffs):
        if c:
            acc += sp.Rational(c.numerator, c.denominator) * sp.diff(expr, T, k)
    out = sp.Integer(0)
    for k, c in enumerate(op_tp.coeffs):
        if c:
            out += sp.Rational(c.numerator, c.denominator) * sp.diff(acc, TP, k)
    return out


def term_as_sympy(term: GaussPolyTerm):
    u = T - TP
    poly = sp.Integer(0)
    for (a, b), c in term.coeffs.items():
        poly += sp.Rational(c.numerator, c.denominator) * u**a * LAM**b
    return poly * sp.exp(-LAM * u**2 / 2)


def assert_symbolically_equal(term: GaussPolyTerm, expr) -> None:
    assert sp.simplify(term_as_sympy(term) - expr) == 0


# ---------------------------------------------------------------------------
# Hyperparams
# ---------------------------------------------------------------------------


def test_hyperparams_lambda_is_inverse_lengthscale_sq():
    hp = Hyperparams(signal_variance=2.0, lengthscale_sq=4.0)
    assert hp.lam == 0.25


@pytest.mark.parametrize("field", ["signal_variance", "lengthscale_sq"])
@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_hyperparams_reject_nonpositive(field, bad):
    kwargs = {"signal_variance": 1.0, "lengthscale_sq": 1.0, field: bad}
    with pytest.raises(ValueError):
        Hyperparams(**kwargs)


# ---------------------------------------------------------------------------
# GaussPolyTerm differentiation vs oracle
# ---------------------------------------------------------------------------


def test_first_derivative_matches_oracle():
    assert_symbolically_equal(se_kernel().diff_first(), sp.diff(SE_EXPR, T))


def test_second_derivative_matches_oracle():
    assert_symbolically_equal(se_kernel().diff_second(), sp.diff(SE_EXPR, TP))


def test_mixed_higher_derivatives_match_oracle():
    term = se_kernel().diff_first().diff_first().diff_second()
    assert_symbolically_equal(term, sp.diff(SE_EXPR, T, 2, TP, 1))


def test_derivatives_commute():
    a = se_kernel().diff_first().diff_second()
    b = se_kernel().diff_second().diff_first()
    assert a == b


def test_zero_term_stays_zero_under_differentiation():
    assert GaussPolyTerm.zero().diff_first().is_zero
    assert GaussPolyTerm.zero().diff_second().is_zero


def test_evaluate_matches_numeric_oracle():
    term = se_kernel().diff_first().diff_second()
    expr = sp.diff(SE_EXPR, T, 1, TP, 1)
    f = sp.lambdify((T, TP, LAM), expr, "math")
    for t, tp, lam in [(0.3, -0.2, 1.0), (1.5, 0.7, 0.5), (-2.0, 1.0, 2.5)]:
        got = term.evaluate(t - tp, lam)
        want = f(t, tp, lam)
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)


small_ops = st.builds(
    Poly,
    st.lists(
        st.integers(min_value=-3, max_value=3), min_size=1, max_size=3
    ).map(tuple),
)


@settings(max_examples=25)
@given(small_ops, small_ops)
def test_operator_pair_matches_oracle(op_t, op_tp):
    term = apply_operator_pair(op_t, op_tp, se_kernel())
    assert_symbolically_equal(term, oracle_apply(op_t, op_tp))


def test_str_rendering():
    assert str(se_kernel()) == "(1) exp(-lam u^2/2)"
    # d/dt d/dt' of the SE kernel: (lam - lam^2 u^2) exp(...)
    term = se_kernel().diff_first().diff_second()
    assert str(term) == "(lam - lam^2 u^2) exp(-lam u^2/2)"


# ---------------------------------------------------------------------------
# Kernel built from the unstable benchmark's nullspace column
# ---------------------------------------------------------------------------


def nullspace_column():
    # (1, d, d^2 - d - 1)ᵀ annihilated by the benchmark system operator
    return PolyMatrix.from_rows([[ONE], [D], [D * D - D - ONE]])


@pytest.fixture(scope="module")
def kernel():
    return build_operator_kernel(nullspace_column())


def test_kernel_entries_match_oracle_symbolically(kernel):
    ops = [ONE, D, D * D - D - ONE]
    for i in range(3):
        for j in range(3):
            assert_symbolically_equal(
                kernel.entry(i, j), oracle_apply(ops[i], ops[j])
            )


def test_kernel_first_entry_is_plain_se(kernel):
    assert kernel.entry(0, 0) == se_kernel()


def test_kernel_cross_entries_flip_sign(kernel):
    # K(t,t') for (f, f') channel pairs is odd in u = t - t'
    k01 = kernel.entry(0, 1)
    k10 = kernel.entry(1, 0)
    hp = Hyperparams()
    for u in (0.15, 0.8, 2.0):
        assert math.isclose(
            k01.evaluate(u, hp.lam), -k10.evaluate(u, hp.lam), rel_tol=1e-12
        )


def test_joint_matrix_is_bit_exact_symmetric(kernel):
    hp = Hyperparams(signal_variance=1.7, lengthscale_sq=0.6)
    ts = np.linspace(-1.0, 2.0, 13)
    gram = kernel.joint_matrix(ts, ts, hp)
    assert np.array_equal(gram, gram.T)


def test_joint_matrix_is_positive_semidefinite(kernel):
    hp = Hyperparams(signal_variance=0.5, lengthscale_sq=2.0)
    ts = np.linspace(0.0, 5.0, 17)
    gram = kernel.joint_matrix(ts, ts, hp)
    eigvals = np.linalg.eigvalsh(gram)
    assert eigvals.min() > -1e-9 * max(1.0, eigvals.max())


def test_joint_matrix_block_layout(kernel):
    # point-major ordering: row p*nz + i is (ts[p], channel i)
    hp = Hyperparams()
    ts = np.array([0.0, 0.7])
    tps = np.array([0.3])
    joint = kernel.joint_matrix(ts, tps, hp)
    assert joint.shape == (6, 3)
    for p, t in enumerate(ts):
        for i in range(3):
            for j in range(3):
                want = kernel.evaluate(t, 0.3, hp, i, j)
                assert joint[p * 3 + i, j] == pytest.approx(want, rel=1e-14)


def test_evaluate_scales_with_signal_variance(kernel):
    lo = Hyperparams(signal_variance=1.0, lengthscale_sq=1.0)
    hi = Hyperparams(signal_variance=3.0, lengthscale_sq=1.0)
    v1 = kernel.evaluate(0.4, 0.1, lo, 2, 2)
    v3 = kernel.evaluate(0.4, 0.1, hi, 2, 2)
    assert math.isclose(v3, 3.0 * v1, rel_tol=1e-14)


def test_describe_lists_all_entries(kernel):
    text = kernel.describe()
    lines = text.splitlines()
    assert len(lines) == 9
    assert lines[0] == "K[1,1] = (1) exp(-lam u^2/2)"
    assert all(line.startswith("K[") for line in lines)


def test_build_rejects_empty_nullspace():
    empty = PolyMatrix.zeros(3, 0)
    with pytest.raises(ValueError):
        build_operator_kernel(empty)


def test_single_channel_kernel_round_trip():
    ident = PolyMatrix.from_rows([[ONE]])
    k = build_operator_kernel(ident)
    assert k.size == 1
    hp = Hyperparams(signal_variance=2.0, lengthscale_sq=1.0)
    assert k.evaluate(1.0, 1.0, hp, 0, 0) == pytest.approx(2.0)


controllable_systems = st.tuples(
    st.integers(min_value=2, max_value=3), st.integers(min_value=1, max_value=2)
).flatmap(
    lambda dims: st.tuples(
        st.lists(st.integers(-2, 2), min_size=dims[0] ** 2, max_size=dims[0] ** 2),
        st.lists(st.integers(-2, 2), min_size=dims[0] * dims[1], max_size=dims[0] * dims[1]),
    ).map(
        lambda flat: (
            np.array(flat[0], dtype=float).reshape(dims[0], dims[0]),
            np.array(flat[1], dtype=float).reshape(dims[0], dims[1]),
        )
    )
)


def is_controllable(a, b) -> bool:
    n = a.shape[0]
    ctrb = np.hstack([np.linalg.matrix_power(a, k) @ b for k in range(n)])
    return np.linalg.matrix_rank(ctrb) == n


@settings(max_examples=8, deadline=None)
@given(controllable_systems)
def test_random_system_entries_match_oracle_column_sums(system):
    a, b = system
    assume(is_controllable(a, b))
    prior = build_prior(LinearSystem(A=a, B=b), x_ref=[0.0] * a.shape[0])
    v = prior.v_cols
    for i, j in itertools.product(range(v.rows), repeat=2):
        want = sum(oracle_derivatives(v[i, c], v[j, c]) for c in range(v.cols))
        # Both sides are polynomials times the one SE envelope: dividing it
        # out and expanding decides equality without simplify.
        assert sp.expand((term_as_sympy(prior.kernel.entry(i, j)) - want) / SE_EXPR) == 0


def test_scalar_integrator_kernel_against_oracle():
    cols = PolyMatrix.from_rows([[ONE], [D]])
    k = build_operator_kernel(cols)
    ops = [ONE, D]
    for i in range(2):
        for j in range(2):
            assert_symbolically_equal(k.entry(i, j), oracle_apply(ops[i], ops[j]))


# ---------------------------------------------------------------------------
# Compiled evaluation on a random controllable 4-state prior
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def random4_kernel():
    # A system on which building K_ji on its own, rather than as the mirror
    # of K_ij, lists the terms of the pair in different orders; mirrored, the
    # two evaluate bit-equal at u and -u.
    rng = np.random.default_rng(2015)
    while True:
        a = rng.integers(-2, 3, (4, 4)).astype(float)
        b = rng.integers(-2, 3, (4, 1)).astype(float)
        ctrb = np.hstack([np.linalg.matrix_power(a, k) @ b for k in range(4)])
        if np.linalg.matrix_rank(ctrb) == 4:
            return build_prior(LinearSystem(A=a, B=b), x_ref=[0.0] * 4).kernel


def exact_entry_value(term: GaussPolyTerm, u: float, lam: float) -> float:
    """The polynomial summed in exact rationals at the float (u, lam), then
    rounded once and scaled by the envelope."""
    fu, flam = Fraction(u), Fraction(lam)
    poly = sum((c * fu**a * flam**b for (a, b), c in term.coeffs.items()), Fraction(0))
    return float(poly) * math.exp(-0.5 * lam * u * u)


def test_eval_blocks_matches_exact_coefficients(random4_kernel):
    nz = random4_kernel.size
    for ls2 in (0.4, 1.0, 2.5):
        hp = Hyperparams(signal_variance=1.3, lengthscale_sq=ls2)
        ts, tps = np.array([0.0, 0.35, 1.2]), np.array([0.1, 0.9])
        blocks = random4_kernel.eval_blocks(ts, tps, hp)
        for p, q, i, j in itertools.product(range(ts.size), range(tps.size), range(nz), range(nz)):
            want = hp.signal_variance * exact_entry_value(
                random4_kernel.entry(i, j), ts[p] - tps[q], hp.lam
            )
            assert blocks[i, j, p, q] == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_joint_matrix_on_equal_copy_is_bit_exact_symmetric(random4_kernel):
    hp = Hyperparams(signal_variance=0.8, lengthscale_sq=0.3)
    ts = np.linspace(0.0, 2.0, 9)
    gram = random4_kernel.joint_matrix(ts, ts.copy(), hp)
    assert np.array_equal(gram, gram.T)


def test_swapped_grids_give_transposed_blocks_bit_for_bit(random4_kernel):
    hp = Hyperparams(signal_variance=0.8, lengthscale_sq=0.3)
    ts = np.linspace(0.0, 2.0, 9)
    tps = np.array([-0.4, 0.05, 0.7, 1.9])
    forward = random4_kernel.eval_blocks(ts, tps, hp)
    backward = random4_kernel.eval_blocks(tps, ts, hp)
    assert np.array_equal(forward, backward.transpose(1, 0, 3, 2))


def test_lower_entries_mirror_upper_entries_in_term_order(random4_kernel):
    nz = random4_kernel.size
    for i, j in itertools.combinations(range(nz), 2):
        upper = list(random4_kernel.entry(i, j).coeffs.items())
        mirror = [((a, b), -c if a % 2 else c) for (a, b), c in upper]
        assert list(random4_kernel.entry(j, i).coeffs.items()) == mirror


def test_shifted_grid_of_equal_length_is_not_treated_as_symmetric(random4_kernel):
    hp = Hyperparams(signal_variance=0.8, lengthscale_sq=0.7)
    nz = random4_kernel.size
    ts = np.linspace(0.0, 2.0, 9)
    tps = ts + 0.05
    joint = random4_kernel.joint_matrix(ts, tps, hp)
    for q, tp in enumerate(tps):
        column = random4_kernel.joint_matrix(ts, [tp], hp)
        assert np.array_equal(joint[:, q * nz : (q + 1) * nz], column)


def test_kernel_calls_convert_no_fractions(random4_kernel, monkeypatch):
    def refuse(self):
        raise AssertionError("Fraction converted to float during a kernel call")

    monkeypatch.setattr(Fraction, "__float__", refuse)
    hp = Hyperparams(signal_variance=0.8, lengthscale_sq=0.7)
    ts = np.linspace(0.0, 1.0, 4)
    random4_kernel.joint_matrix(ts, ts, hp)
    random4_kernel.joint_matrix(ts, ts + 0.3, hp)
