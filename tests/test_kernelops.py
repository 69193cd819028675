"""Closed-form operator-applied SE kernel vs. independent oracles.

The implementation writes each coefficient of w(d/du) exp(-lam*u^2/2) down
from the Hermite closed form.  Two oracles share no code with it: sympy
differentiates exp(-lam*(t-t')^2/2) directly, and the conftest oracle
differentiates the exponential-times-polynomial form one product rule at a
time; the integer build's compiled floats are checked bit for bit against a
Fraction build through the second.
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from lodempc.kernelops import (
    GaussPolyTerm,
    Hyperparams,
    OperatorKernel,
    _bracketed,
    _quotient_floats,
    apply_symbol,
    build_operator_kernel,
)
from lodempc.lodegp import LinearSystem, build_prior
from lodempc.polyalg import D, ONE, Poly, PolyMatrix

from conftest import diff_u, differentiate_symbol, entry_symbol, evaluate_term


# ---------------------------------------------------------------------------
# sympy oracle
# ---------------------------------------------------------------------------

T, TP, LAM = sp.symbols("t t_prime lam", real=True, positive=True)
SE_EXPR = sp.exp(-LAM * (T - TP) ** 2 / 2)


@functools.lru_cache(maxsize=None)
def se_derivative(k: int, l: int) -> dict:
    """d^k/dt^k d^l/dt'^l of the SE kernel, differentiated by sympy and
    divided by the SE kernel: an exact polynomial, as a map from (t power,
    t' power, lam power) to its Fraction coefficient."""
    poly = sp.Poly(sp.diff(SE_EXPR, T, k, TP, l) / SE_EXPR, T, TP, LAM, domain="QQ")
    return {m: Fraction(c.p, c.q) for m, c in poly.as_dict().items()}


def oracle_apply(*pairs) -> dict:
    """Sum over the (op_t, op_tp) pairs of op_t(d/dt) op_tp(d/dt') applied to
    the SE kernel, divided by the SE kernel, in the form of se_derivative."""
    acc: dict = {}
    for op_t, op_tp in pairs:
        for (k, a), (l, b) in itertools.product(enumerate(op_t.coeffs), enumerate(op_tp.coeffs)):
            if a and b:
                for m, c in se_derivative(k, l).items():
                    acc[m] = acc.get(m, 0) + a * b * c
    return {m: c for m, c in acc.items() if c}


def term_polynomial(term: GaussPolyTerm) -> dict:
    """The term divided by its SE envelope, (t - t')^a expanded binomially,
    in the form of se_derivative."""
    acc: dict = {}
    for (a, b), c in term.coeffs.items():
        for i in range(a + 1):
            m = (a - i, i, b)
            acc[m] = acc.get(m, 0) + c * math.comb(a, i) * (-1) ** i
    return {m: c for m, c in acc.items() if c}


def assert_symbolically_equal(term: GaussPolyTerm, poly: dict) -> None:
    # Both sides are exact polynomials in t, t' and lam: equal coefficients
    # decide equality, without simplify.
    assert term_polynomial(term) == poly


#: The SE kernel, p = 1.
SE = GaussPolyTerm({(0, 0): 1})


def diff_second(term: GaussPolyTerm) -> GaussPolyTerm:
    """Derivative in the second kernel argument t', i.e. -d/du, by the
    conftest oracle."""
    return diff_u(term).scaled(-1)


def kernel_value(kernel: OperatorKernel, t: float, t_prime: float, hp: Hyperparams, i, j):
    """Scalar value of channel pair (i, j), summed from the exact terms."""
    return hp.signal_variance * evaluate_term(kernel.entry(i, j), t - t_prime, hp.lam)


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
# The closed form and the step-by-step oracle vs sympy
# ---------------------------------------------------------------------------


def test_first_derivative_matches_oracle():
    assert_symbolically_equal(apply_symbol((0, 1)), se_derivative(1, 0))
    assert_symbolically_equal(diff_u(SE), se_derivative(1, 0))


def test_second_derivative_matches_oracle():
    # d/dt' is -d/du: the symbol -s
    assert_symbolically_equal(apply_symbol((0, -1)), se_derivative(0, 1))
    assert_symbolically_equal(diff_second(SE), se_derivative(0, 1))


def test_mixed_higher_derivatives_match_oracle():
    # d^2/dt^2 d/dt' is the symbol s^2 * (-s)
    assert_symbolically_equal(apply_symbol((0, 0, 0, -1)), se_derivative(2, 1))
    assert_symbolically_equal(diff_second(diff_u(diff_u(SE))), se_derivative(2, 1))


@pytest.mark.parametrize("k", range(13))
def test_each_order_matches_oracle(k):
    assert_symbolically_equal(apply_symbol((0,) * k + (1,)), se_derivative(k, 0))


def test_derivatives_commute():
    a = diff_second(diff_u(SE))
    b = diff_u(diff_second(SE))
    assert a == b
    assert apply_symbol((0, 0, -1)) == a


def test_zero_term_stays_zero_under_differentiation():
    assert diff_u(GaussPolyTerm({})).is_zero
    assert diff_second(GaussPolyTerm({})).is_zero
    # the zero symbol, and one whose coefficients are all zero
    assert apply_symbol(()).is_zero
    assert apply_symbol((0, 0, 0)).is_zero


symbols = st.lists(
    st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(10**40), 10**40)), max_size=16
)


@settings(max_examples=200)
@given(symbols)
def test_closed_form_is_the_step_by_step_oracle_in_term_order(symbol):
    # the compiled tables list terms in this order, so it is part of the bits
    want = differentiate_symbol(symbol)
    assert list(apply_symbol(symbol).coeffs.items()) == list(want.coeffs.items())


def test_evaluate_matches_numeric_oracle():
    term = apply_symbol((0, 0, -1))
    expr = sp.diff(SE_EXPR, T, 1, TP, 1)
    f = sp.lambdify((T, TP, LAM), expr, "math")
    for t, tp, lam in [(0.3, -0.2, 1.0), (1.5, 0.7, 0.5), (-2.0, 1.0, 2.5)]:
        got = evaluate_term(term, t - tp, lam)
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
    # op_tp(d/dt') is op_tp(-d/du): the pair is the one symbol op_t(s) * op_tp(-s)
    reflected = Poly(tuple(-c if k % 2 else c for k, c in enumerate(op_tp.coeffs)))
    term = apply_symbol((op_t * reflected).coeffs)
    assert_symbolically_equal(term, oracle_apply((op_t, op_tp)))


def test_str_rendering():
    assert str(apply_symbol((1,))) == "(1) exp(-lam u^2/2)"
    # d/dt d/dt' of the SE kernel: (lam - lam^2 u^2) exp(...)
    term = apply_symbol((0, 0, -1))
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
                kernel.entry(i, j), oracle_apply((ops[i], ops[j]))
            )


def test_kernel_first_entry_is_plain_se(kernel):
    assert kernel.entry(0, 0) == apply_symbol((1,)) == SE


def test_kernel_cross_entries_flip_sign(kernel):
    # K(t,t') for (f, f') channel pairs is odd in u = t - t'
    k01 = kernel.entry(0, 1)
    k10 = kernel.entry(1, 0)
    hp = Hyperparams()
    for u in (0.15, 0.8, 2.0):
        assert math.isclose(
            evaluate_term(k01, u, hp.lam), -evaluate_term(k10, u, hp.lam), rel_tol=1e-12
        )


def test_joint_matrix_is_bit_exact_symmetric(kernel):
    hp = Hyperparams(signal_variance=1.7, lengthscale_sq=0.6)
    ts = np.linspace(-1.0, 2.0, 13)
    gram = kernel.joint_matrix(ts, ts, hp)
    assert np.array_equal(gram, gram.T)


def test_joint_matrix_rows_are_the_full_rows_bit_for_bit(kernel):
    # ``rows`` evaluates only those row channels: row p*len(rows) + r is
    # row p*nz + rows[r] of the full matrix
    hp = Hyperparams(signal_variance=1.7, lengthscale_sq=0.6)
    ts, tps = np.linspace(-1.0, 2.0, 7), np.linspace(0.0, 3.0, 5)
    full = kernel.joint_matrix(ts, tps, hp).reshape(ts.size, 3, -1)
    for rows in ([2], [0, 2], [1, 0], slice(1, None)):
        part = kernel.joint_matrix(ts, tps, hp, rows)
        assert np.array_equal(part, full[:, rows].reshape(-1, full.shape[2])), rows


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
                want = kernel_value(kernel, t, 0.3, hp, i, j)
                assert joint[p * 3 + i, j] == pytest.approx(want, rel=1e-14)


def test_evaluate_scales_with_signal_variance(kernel):
    lo = Hyperparams(signal_variance=1.0, lengthscale_sq=1.0)
    hi = Hyperparams(signal_variance=3.0, lengthscale_sq=1.0)
    v1 = kernel_value(kernel, 0.4, 0.1, lo, 2, 2)
    v3 = kernel_value(kernel, 0.4, 0.1, hi, 2, 2)
    assert math.isclose(v3, 3.0 * v1, rel_tol=1e-14)


def test_describe_lists_all_entries(kernel):
    text = kernel.describe()
    lines = text.splitlines()
    assert len(lines) == 9
    assert lines[0] == "K[1,1] = (1) exp(-lam u^2/2)"
    assert all(line.startswith("K[") for line in lines)


def test_build_rejects_empty_nullspace():
    empty = PolyMatrix(3, 0, ())
    with pytest.raises(ValueError):
        build_operator_kernel(empty)


def test_single_channel_kernel_round_trip():
    ident = PolyMatrix.from_rows([[ONE]])
    k = build_operator_kernel(ident)
    assert k.size == 1
    hp = Hyperparams(signal_variance=2.0, lengthscale_sq=1.0)
    assert kernel_value(k, 1.0, 1.0, hp, 0, 0) == pytest.approx(2.0)


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


# No explain phase: after shrinking a failure it re-runs about 170 variants,
# each with an exact Smith reduction, which is most of the time to fail.
@settings(
    max_examples=8,
    deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.explain],
)
@given(controllable_systems)
def test_random_system_entries_match_oracle_column_sums(system):
    a, b = system
    assume(is_controllable(a, b))
    prior = build_prior(LinearSystem(A=a, B=b), x_ref=[0.0] * a.shape[0])
    v = prior.v_cols
    for i, j in itertools.product(range(v.rows), repeat=2):
        want = oracle_apply(*((v[i, c], v[j, c]) for c in range(v.cols)))
        assert_symbolically_equal(prior.kernel.entry(i, j), want)


def test_scalar_integrator_kernel_against_oracle():
    cols = PolyMatrix.from_rows([[ONE], [D]])
    k = build_operator_kernel(cols)
    ops = [ONE, D]
    for i in range(2):
        for j in range(2):
            assert_symbolically_equal(k.entry(i, j), oracle_apply((ops[i], ops[j])))


# ---------------------------------------------------------------------------
# Compiled evaluation on a random controllable 4-state prior
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def random4_kernel(random4_prior):
    return random4_prior.kernel


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


def polyval_blocks(kernel: OperatorKernel, ts, tps, hp: Hyperparams) -> np.ndarray:
    """Reference grid evaluation: each entry's own float coefficients, summed
    in coefficient order, through numpy's polyval at the entry's degree."""
    u = np.subtract.outer(ts, tps)
    out = np.empty((kernel.size, kernel.size, len(ts), len(tps)))
    for i, j in itertools.product(range(kernel.size), repeat=2):
        term = kernel.entry(i, j)
        coeffs = [0.0] * (1 + max((a for a, _ in term.coeffs), default=0))
        for (a, b), c in term.coeffs.items():
            coeffs[a] += float(c) * hp.lam**b
        poly = np.polynomial.polynomial.polyval(u, coeffs)
        out[i, j] = hp.signal_variance * poly * np.exp(-0.5 * hp.lam * u * u)
    return out


@pytest.mark.parametrize("which", ["unstable_prior", "random4_prior", "random4x2_prior"])
def test_eval_blocks_is_per_entry_polyval_bit_for_bit(request, which):
    # entries of different degrees share one zero-padded Horner evaluation
    kernel = request.getfixturevalue(which).kernel
    ts, tps = np.linspace(-3.0, 3.0, 13), np.array([-0.7, 0.0, 0.25, 2.0])
    for hp in (Hyperparams(0.8, 0.3), Hyperparams(1.7, 2.5), Hyperparams(1.0, 40.0)):
        got, want = kernel.eval_blocks(ts, tps, hp), polyval_blocks(kernel, ts, tps, hp)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


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


def test_lam_derivative_table_converts_no_fractions(random4_kernel, monkeypatch):
    def refuse(self):
        raise AssertionError("Fraction converted to float while compiling")

    monkeypatch.setattr(Fraction, "__float__", refuse)
    # a fresh kernel, so its compile and its derivative table run under the
    # patch: floats come from int divisions by the common denominator, and
    # they are the built kernel's, bit for bit
    fresh = OperatorKernel(random4_kernel.entries, random4_kernel.denominator, random4_kernel.scale)
    for got, want in zip(fresh._compiled, random4_kernel._compiled, strict=True):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert "_compiled_dlam" not in vars(fresh)
    fresh.eval_blocks_dlam(np.linspace(-1.0, 1.0, 5), [0.0], Hyperparams(0.8, 0.7))
    assert "_compiled_dlam" in vars(fresh)


# ---------------------------------------------------------------------------
# The integer build against the Fraction build, bit for bit
# ---------------------------------------------------------------------------


def fraction_compiled(v: PolyMatrix):
    """The compiled (width, slot, lam_pow, value) tables by the Fraction
    route: each symbol w_ij a Poly over the reduced column coefficients,
    differentiated step by step by the conftest oracle, lower entries
    mirrored, and every nonzero coefficient compiled on its own as
    float(Fraction)."""
    nz = v.rows
    entries = [[None] * nz for _ in range(nz)]
    for i in range(nz):
        for j in range(i, nz):
            entries[i][j] = differentiate_symbol(entry_symbol(v, i, j).coeffs)
            if j > i:
                entries[j][i] = entries[i][j].mirrored()
    terms = [term for row in entries for term in row]
    width = 1 + max((a for term in terms for a, _ in term.coeffs), default=0)
    slot, lam_pow, value = [], [], []
    for k, term in enumerate(terms):
        for (a, b), c in term.coeffs.items():
            if c:
                slot.append(k * width + a)
                lam_pow.append(b)
                value.append(float(Fraction(c)))
    return width, np.array(slot, dtype=np.intp), np.array(lam_pow, dtype=np.intp), np.array(value)


def assert_compiled_like_fractions(a, b) -> None:
    prior = build_prior(LinearSystem(A=a, B=b), x_ref=[0.0] * a.shape[0])
    width, slot, lam_pow, value = prior.kernel._compiled
    want_width, want_slot, want_lam_pow, want_value = fraction_compiled(prior.v_cols)
    assert width == want_width
    # equal slot and lam-power sequences: the same terms in the same order
    assert np.array_equal(slot, want_slot) and np.array_equal(lam_pow, want_lam_pow)
    assert np.array_equal(value, want_value)
    assert np.array_equal(np.signbit(value), np.signbit(want_value))


def matrix_entries(one_decimal: bool, count: int):
    entry = st.integers(-20, 20).map(lambda k: k / 10) if one_decimal else st.integers(-2, 2).map(float)
    return st.lists(entry, min_size=count, max_size=count)


bench_systems = st.tuples(
    st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=2), st.booleans()
).flatmap(
    lambda dims: st.tuples(
        matrix_entries(dims[2], dims[0] ** 2), matrix_entries(dims[2], dims[0] * dims[1])
    ).map(
        lambda flat: (
            np.array(flat[0]).reshape(dims[0], dims[0]),
            np.array(flat[1]).reshape(dims[0], dims[1]),
        )
    )
)


@settings(max_examples=12, deadline=None, phases=[phase for phase in Phase if phase is not Phase.explain])
@given(bench_systems)
def test_integer_build_compiles_the_floats_of_the_fraction_build(system):
    a, b = system
    assume(is_controllable(a, b))
    assert_compiled_like_fractions(a, b)


def dense6_system():
    """The benchmark's dense 6-state system, whose nullspace coefficients
    have numerators of about 1,200 digits."""
    a = np.array([
        [-0.2, -0.5, -0.8, -0.4, -0.2, 0.7],
        [-0.1, -1.8, -0.3, 0.2, 0.7, 0.5],
        [1.0, -0.7, -0.1, -0.9, 0.1, -0.5],
        [-0.6, 0.3, -0.4, -0.8, -0.5, -0.7],
        [0.5, -0.1, 0.4, 0.4, 0.0, -0.2],
        [-0.6, 0.3, 0.9, 1.0, 0.8, -0.5],
    ])
    b = np.array([[-0.3], [-0.2], [-1.0], [-0.7], [-0.4], [-0.3]])
    return a, b


def test_integer_build_compiles_the_floats_of_the_fraction_build_on_dense6():
    assert_compiled_like_fractions(*dense6_system())


# ---------------------------------------------------------------------------
# Compiling a coefficient: the bracketed float and its exact fallback
# ---------------------------------------------------------------------------


def bracket(n: int, num: int, den: int):
    """_bracketed's answer for n * num / den, with _quotient_floats' R and S."""
    shift = 128 + den.bit_length() - num.bit_length()
    r = (num << shift) // den if shift >= 0 else num // (den << -shift)
    return _bracketed(n, r, shift)


wide_ints = st.integers(min_value=1, max_value=2**700)


@settings(derandomize=True, max_examples=300)
@given(st.integers(min_value=-(2**300), max_value=2**300).filter(bool), wide_ints, wide_ints)
def test_quotient_floats_are_the_int_true_division(n, num, den):
    # results between 1e-300 and 2^800: the bracket settles all but near ties
    want = (n * num) / den if abs(n * num) < den << 800 else None
    assume(want is not None and abs(want) >= 1e-300)
    assert bracket(n, num, den) == want
    assert _quotient_floats([n], num, den) == [want]


@pytest.mark.parametrize(
    "n, num, den",
    [
        # 1 + 2^-53 is a tie between 1 and the next float: half-even gives 1
        (1, 2**53 + 1, 2**53),
        (-3, 2**53 + 1, 3 * 2**53),
        # the result is 1/3, but n * R is past the largest float
        (2**1100, 1, 3 * 2**1100),
        # subnormal: about 2^-1061.6
        (1, 1, 3 * 2**1060),
        (-5, 7, 11 * 2**1070),
    ],
    ids=["tie", "negative-tie", "product-wider-than-a-float", "subnormal", "negative-subnormal"],
)
def test_quotient_floats_fall_back_to_the_exact_division(n, num, den):
    assert bracket(n, num, den) is None
    want = (n * num) / den
    (got,) = _quotient_floats([n], num, den)
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def test_dense6_coefficients_all_take_the_bracketed_float():
    # every coefficient of the benchmark's dense 6-state kernel is settled by
    # the bracket, and equals the exact division of the g^2-scaled int
    system = LinearSystem(*dense6_system())
    kernel = build_prior(system, x_ref=[0.0] * system.n_x).kernel
    nums = [c for row in kernel.entries for term in row for c in term.coeffs.values()]
    assert len(nums) == 1738
    assert [bracket(c, kernel.scale, kernel.denominator) for c in nums] == [
        c * kernel.scale / kernel.denominator for c in nums
    ]


# ---------------------------------------------------------------------------
# The lam derivative, d/dlam of eval_blocks
# ---------------------------------------------------------------------------


def exact_dlam_value(term: GaussPolyTerm, u: float, lam: float) -> float:
    """d/dlam of the term at the float (u, lam), summed in exact rationals term
    by term, b c lam^(b-1) u^a - (c/2) lam^b u^(a+2), then rounded once and
    scaled by the envelope."""
    fu, flam = Fraction(u), Fraction(lam)
    poly = sum(
        (c * (b * flam ** (b - 1) * fu**a - flam**b * fu ** (a + 2) / 2)
         for (a, b), c in term.coeffs.items()),
        Fraction(0),
    )
    return float(poly) * math.exp(-0.5 * lam * u * u)


@pytest.mark.parametrize("which", ["unstable_prior", "random4x2_prior"])
def test_lam_derivative_matches_exact_terms(request, which):
    kernel = request.getfixturevalue(which).kernel
    lags = np.linspace(-3.0, 3.0, 13)
    for ls2 in (0.4, 1.0, 2.5):
        hp = Hyperparams(signal_variance=1.3, lengthscale_sq=ls2)
        got = kernel.eval_blocks_dlam(lags, [0.0], hp)[..., 0]
        want = np.empty_like(got)
        for i, j, p in itertools.product(range(kernel.size), range(kernel.size), range(lags.size)):
            want[i, j, p] = hp.signal_variance * exact_dlam_value(kernel.entry(i, j), lags[p], hp.lam)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("which", ["unstable_prior", "random4x2_prior"])
def test_lam_derivative_matches_central_difference(request, which):
    kernel = request.getfixturevalue(which).kernel
    ts, tps = np.linspace(-3.0, 3.0, 13), np.array([-0.7, 0.0, 0.25, 2.0])
    for ls2 in (0.4, 1.0, 2.5):
        lam = 1.0 / ls2
        step = 1e-5 * lam
        at = lambda lam_: kernel.eval_blocks(ts, tps, Hyperparams(1.3, 1.0 / lam_))
        central = (at(lam + step) - at(lam - step)) / (2 * step)
        got = kernel.eval_blocks_dlam(ts, tps, Hyperparams(1.3, ls2))
        np.testing.assert_allclose(got, central, rtol=1e-6, atol=1e-8 * np.abs(got).max())
        # mirrored like the kernel: exactly symmetric on equal grids, which
        # the gradient's trace over one triangle relies on
        square = kernel.eval_blocks_dlam(ts, ts.copy(), Hyperparams(1.3, ls2))
        assert np.array_equal(square, square.transpose(1, 0, 3, 2))
