"""System-to-prior pipeline: operator matrix, controllability, references."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lodempc import lodegp
from lodempc.config import load_config
from lodempc.lodegp import (
    InfeasibleReferenceError,
    LinearSystem,
    NonControllableSystemError,
    build_h,
    build_prior,
    require_controllable,
    steady_state_input,
)
from lodempc.plant import Plant
from lodempc.polyalg import D, ONE, Poly, PolyMatrix, right_nullspace_columns, smith_normal_form

from conftest import (DENSE6, GOLDEN_DIR, assert_prior_column_is_replayed, dense_system, determinant,
                      kalman_rank_controllable, run_fresh_python)


def controllability_check(system: LinearSystem) -> bool:
    """True iff every invariant factor of [A - d*I | B] is a nonzero constant
    (after monic normalization: equal to one)."""
    try:
        require_controllable(smith_normal_form(build_h(system)))
    except NonControllableSystemError:
        return False
    return True


def test_system_coerces_one_dimensional_b():
    sys_ = LinearSystem(A=[[0.0, 1.0], [1.0, 1.0]], B=[0.0, 1.0])
    assert sys_.B.shape == (2, 1)
    assert (sys_.n_x, sys_.n_u, sys_.n_z) == (2, 1, 3)


def test_system_default_channel_names():
    sys_ = LinearSystem(A=[[0.0, 1.0], [1.0, 1.0]], B=[[0.0], [1.0]])
    assert sys_.channel_names == ("x1", "x2", "u1")


def test_system_validation_errors():
    # a Plant is the LinearSystem it steps, validated the same way
    for cls in (LinearSystem, Plant):
        with pytest.raises(ValueError, match="square"):
            cls(A=[[0.0, 1.0]], B=[[1.0]])
        with pytest.raises(ValueError, match="rows"):
            cls(A=[[0.0]], B=[[1.0], [0.0]])
        for a, b in (([[np.inf]], [[1.0]]), ([[0.0]], [[np.nan]])):
            with pytest.raises(ValueError, match="finite"):
                cls(A=a, B=b)
    with pytest.raises(ValueError):
        LinearSystem(A=[[0.0]], B=[[1.0]], channel_names=("only-one",))


def test_build_h_for_unstable_benchmark(unstable_system):
    h = build_h(unstable_system)
    want = PolyMatrix.from_rows(
        [[-D, ONE, Poly.const(0)], [ONE, ONE - D, ONE]]
    )
    assert h == want


def test_build_h_entries_are_exact_fractions():
    sys_ = LinearSystem(A=[[0.5]], B=[[0.25]])
    h = build_h(sys_)
    assert h[0, 0] == Poly((Fraction(1, 2), Fraction(-1)))
    assert h[0, 1] == Poly.const(Fraction(1, 4))


def test_controllability_of_benchmark(unstable_system):
    assert controllability_check(unstable_system)


def test_non_controllable_decoupled_state():
    # second state evolves autonomously; no input reaches it
    sys_ = LinearSystem(A=[[0.0, 0.0], [0.0, 2.0]], B=[[1.0], [0.0]])
    assert not controllability_check(sys_)
    with pytest.raises(NonControllableSystemError) as err:
        build_prior(sys_, x_ref=[0.0, 0.0])
    # diagnostic names the offending operator factor
    assert "invariant factor" in str(err.value)
    assert "d" in str(err.value)


@settings(max_examples=60)
@given(
    st.lists(
        st.integers(min_value=-2, max_value=2), min_size=4, max_size=4
    ),
    st.lists(
        st.integers(min_value=-2, max_value=2), min_size=2, max_size=2
    ),
)
def test_controllability_matches_kalman_rank_oracle(a_flat, b_flat):
    a = np.array(a_flat, dtype=float).reshape(2, 2)
    b = np.array(b_flat, dtype=float).reshape(2, 1)
    if not np.any(b):
        return  # zero input matrix is rejected at a different layer
    sys_ = LinearSystem(A=a, B=b)
    assert controllability_check(sys_) == kalman_rank_controllable(a, b, tol=1e-9)


def test_steady_state_input_for_shifted_reference():
    # dx/dt = -x + u: holding x_ref = 3 needs u_ref = 3
    sys_ = LinearSystem(A=[[-1.0]], B=[[1.0]])
    u_ref = steady_state_input(sys_, [3.0])
    assert u_ref == pytest.approx([3.0])


def test_steady_state_input_zero_reference(unstable_system):
    u_ref = steady_state_input(unstable_system, [0.0, 0.0])
    assert u_ref == pytest.approx([0.0])


def test_steady_state_input_nonzero_benchmark_reference(unstable_system):
    # A x + B u = 0 with x = (1, 0): rows give x2 = 0 and u = -x1 - x2
    u_ref = steady_state_input(unstable_system, [1.0, 0.0])
    assert u_ref == pytest.approx([-1.0])


def test_infeasible_reference_raises_with_row_numbers(unstable_system):
    # x_ref = (0, 1) forces dx1/dt = 1 with no input in row 1
    with pytest.raises(InfeasibleReferenceError) as err:
        steady_state_input(unstable_system, [0.0, 1.0])
    assert "row(s) 1" in str(err.value)


def test_build_prior_shapes_and_mean(unstable_prior):
    prior = unstable_prior
    assert prior.n_z == 3
    assert prior.kernel.size == 3
    assert prior.v_cols.cols == 1
    np.testing.assert_allclose(prior.prior_mean, [0.0, 0.0, 0.0])
    # the mean is (x_ref, u_ref): the states, then their steady-state input
    shifted = build_prior(prior.system, [1.0, 0.0]).prior_mean
    np.testing.assert_allclose(shifted[:2], [1.0, 0.0])
    np.testing.assert_allclose(shifted[2:], [-1.0])


def test_build_prior_annihilates_kernel_columns(unstable_prior):
    assert (build_h(unstable_prior.system) @ unstable_prior.v_cols).is_zero


@pytest.mark.parametrize(
    "system",
    [
        LinearSystem(A=[[0.0, 1.0], [1.0, 1.0]], B=[[0.0], [1.0]]),
        LinearSystem(A=DENSE6["system"]["A"], B=DENSE6["system"]["B"]),
    ],
    ids=["bundled", "dense6"],
)
def test_build_prior_multiplies_no_polynomial_matrices(system, monkeypatch):
    # the exact check H·V = 0 is the algebra command's and the tests', not
    # the run path's
    def refuse(self, other):
        raise AssertionError("build_prior multiplied polynomial matrices")

    monkeypatch.setattr(PolyMatrix, "__matmul__", refuse)
    prior = build_prior(system, x_ref=[0.0] * system.n_x)
    assert prior.v_cols.cols == 1
    monkeypatch.undo()
    assert (build_h(system) @ prior.v_cols).is_zero


def seeded_single_input_systems(per_size: int = 5):
    """The first ``per_size`` controllable single-input systems with
    one-decimal entries in [-1, 1] for each n_x in 2..6, from fixed seeds."""
    systems = []
    for n_x in range(2, 7):
        rng = np.random.default_rng([2020, n_x])
        found = 0
        while found < per_size:
            a = rng.integers(-10, 11, (n_x, n_x)) / 10
            b = rng.integers(-10, 11, (n_x, 1)) / 10
            ctrb = np.hstack([np.linalg.matrix_power(a, k) @ b for k in range(n_x)])
            if np.linalg.matrix_rank(ctrb) == n_x:
                systems.append(pytest.param(LinearSystem(A=a, B=b), id=f"n{n_x}-{found}"))
                found += 1
    return systems


@pytest.mark.parametrize(
    "system",
    [
        pytest.param(LinearSystem(A=[[0.0, 1.0], [1.0, 1.0]], B=[[0.0], [1.0]]), id="bundled"),
        pytest.param(LinearSystem(A=DENSE6["system"]["A"], B=DENSE6["system"]["B"]), id="dense6"),
        *seeded_single_input_systems(),
    ],
)
def test_single_input_nullspace_column_is_a_multiple_of_the_characteristic_polynomial(system):
    # For one input the nullspace of H = [A - dI | B] is free of rank 1, so
    # Smith's column is the flat-output generator up to a constant c: its
    # input entry is c·det(dI - A).  The kernel carries c^2; the bundled
    # plant has c = 1, dense6 has c = -4.9 (ROADMAP item 1).
    n = system.n_x
    h = build_h(system)
    column = right_nullspace_columns(smith_normal_form(h))
    assert column.cols == 1 and (h @ column).is_zero
    char = determinant(PolyMatrix(n, n, tuple(-h[i, j] for i in range(n) for j in range(n))))
    assert char.degree == n and char.coeffs[-1] == 1
    u = column[n, 0]
    assert not u.is_zero and u == char.scaled(u.coeffs[-1])


@pytest.mark.parametrize("index", [None, *range(40)], ids=["bundled", *(f"dense{i}" for i in range(40))])
def test_single_input_prior_column_is_the_replayed_column(index):
    # (-1)^n_x·det Q·det V times the flat-output generator, exactly the
    # column that replaying Smith's log gives
    if index is None:
        system = LinearSystem(A=[[0.0, 1.0], [1.0, 1.0]], B=[[0.0], [1.0]])
    else:
        system = dense_system(index)
    assert_prior_column_is_replayed(system)


one_decimal = st.integers(min_value=-10, max_value=10).map(lambda k: k / 10)


@pytest.mark.parametrize("n_x", range(1, 9))
@settings(derandomize=True, max_examples=2)
@given(data=st.data())
def test_single_input_prior_column_is_the_replayed_column_on_random_systems(n_x, data):
    # odd and even n_x, so both signs of (-1)^n_x are exercised
    a = np.array(data.draw(st.lists(one_decimal, min_size=n_x * n_x, max_size=n_x * n_x)))
    b = np.array(data.draw(st.lists(one_decimal, min_size=n_x, max_size=n_x)))
    a, b = a.reshape(n_x, n_x), b.reshape(n_x, 1)
    assume(kalman_rank_controllable(a, b, tol=1e-9))
    assert_prior_column_is_replayed(LinearSystem(A=a, B=b))


def test_single_input_build_prior_neither_replays_nor_imports_fractions():
    # a fresh interpreter with the replay refused builds the bundled plant's
    # and dense6's priors: the generator is int arithmetic on the floats'
    # exact ratios
    code = "\n".join([
        "import json, sys",
        "from lodempc import lodegp",
        "def refuse(dec):",
        "    raise AssertionError('build_prior replayed the column log')",
        "lodegp.right_nullspace_columns = refuse",
        "for a, b in json.loads(sys.argv[1]):",
        "    lodegp.build_prior(lodegp.LinearSystem(A=a, B=b), [0.0] * len(a))",
        "assert 'fractions' not in sys.modules, 'imported fractions'",
    ])
    systems = [([[0.0, 1.0], [1.0, 1.0]], [[0.0], [1.0]]), (DENSE6["system"]["A"], DENSE6["system"]["B"])]
    done = run_fresh_python(code, json.dumps(systems))
    assert done.returncode == 0, done.stderr


def test_two_input_build_prior_replays_the_column_log(monkeypatch):
    calls = []

    def counted(dec):
        calls.append(dec)
        return right_nullspace_columns(dec)

    monkeypatch.setattr(lodegp, "right_nullspace_columns", counted)
    cfg = load_config(GOLDEN_DIR / "algebra_two_input.json")
    prior = build_prior(cfg.system, cfg.controller.x_ref)
    assert len(calls) == 1 and prior.v_cols == right_nullspace_columns(calls[0])
    assert prior.v_cols.cols == 2


def test_build_prior_nonzero_reference():
    sys_ = LinearSystem(A=[[-1.0]], B=[[1.0]])
    prior = build_prior(sys_, x_ref=[2.0])
    np.testing.assert_allclose(prior.prior_mean, [2.0, 2.0])


def test_build_prior_two_inputs():
    # fully actuated double integrator chain with a redundant input
    sys_ = LinearSystem(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0, 0.0], [1.0, 1.0]])
    prior = build_prior(sys_, x_ref=[0.0, 0.0])
    assert prior.n_z == 4
    assert prior.v_cols.cols == 2
    assert (build_h(sys_) @ prior.v_cols).is_zero
