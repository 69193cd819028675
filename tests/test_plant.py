"""Ground-truth integrator: the plant's RK4 against the exact flow under a
held input (the matrix-exponential oracle) and a fine-step simulation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lodempc.plant import ControlSignal, Plant, Trajectory

from conftest import held, rk4_by_value, step_exact


A_BENCH = np.array([[0.0, 1.0], [1.0, 1.0]])
B_BENCH = np.array([[0.0], [1.0]])


# ---------------------------------------------------------------------------
# ControlSignal
# ---------------------------------------------------------------------------


def test_one_knot_signal_is_rejected():
    # a signal is at least one interval: the plant's substep rule divides by
    # the knot intervals
    with pytest.raises(ValueError, match="at least two"):
        ControlSignal([0.0], [[2.5]])


def test_piecewise_linear_interpolates_and_clamps():
    sig = ControlSignal([0.0, 1.0, 2.0], [[0.0], [2.0], [2.0]])
    np.testing.assert_allclose(sig.value(0.5), [1.0])
    np.testing.assert_allclose(sig.value(1.5), [2.0])
    # held outside the knot range
    np.testing.assert_allclose(sig.value(-1.0), [0.0])
    np.testing.assert_allclose(sig.value(3.0), [2.0])


def test_piecewise_linear_multichannel():
    sig = ControlSignal([0.0, 1.0], [[0.0, 10.0], [1.0, 20.0]])
    np.testing.assert_allclose(sig.value(0.25), [0.25, 12.5])


def test_signal_validation():
    for times, values in [
        ([], np.zeros((0, 1))),  # no knots
        ([0.0, 0.0], [[1.0], [2.0]]),  # knot times repeat
        ([0.0, 1.0, 0.5], [[1.0], [2.0], [3.0]]),  # knot times go back
        ([0.0, 1.0], [[1.0]]),  # fewer value rows than knots
        ([0.0], [[1.0], [2.0]]),  # more value rows than knots
        ([0.0, 1.0], [1.0, 2.0]),  # values not one row per knot
        ([[0.0, 1.0]], [[1.0], [2.0]]),  # knot times not 1-D
    ]:
        with pytest.raises(ValueError):
            ControlSignal(times, values)
    # the knots are read-only copies
    times, values = np.array([0.0, 1.0]), np.array([[1.0], [2.0]])
    sig = ControlSignal(times, values)
    times[0], values[0, 0] = -1.0, 5.0
    assert sig.knot_times.tolist() == [0.0, 1.0] and sig.knot_values.tolist() == [[1.0], [2.0]]
    with pytest.raises(ValueError):
        sig.knot_values[0, 0] = 3.0


# ---------------------------------------------------------------------------
# step_exact (the held-input oracle): closed forms
# ---------------------------------------------------------------------------


def test_step_exact_scalar_decay_closed_form():
    # dx/dt = -x + u, constant u: x(h) = e^{-h} x0 + (1 - e^{-h}) u
    for h in (0.1, 0.5, 2.0):
        got = step_exact([[-1.0]], [[1.0]], [3.0], [0.5], h)
        want = math.exp(-h) * 3.0 + (1 - math.exp(-h)) * 0.5
        assert got == pytest.approx([want], rel=1e-12)


def test_step_exact_double_integrator_closed_form():
    # dx1/dt = x2, dx2/dt = u: polynomial solution, exactly representable
    a = [[0.0, 1.0], [0.0, 0.0]]
    b = [[0.0], [1.0]]
    x0 = [1.0, 2.0]
    u, h = 3.0, 0.7
    got = step_exact(a, b, x0, [u], h)
    want = [1.0 + 2.0 * h + 0.5 * u * h * h, 2.0 + u * h]
    assert got == pytest.approx(want, rel=1e-12)


def test_step_exact_zero_input_is_matrix_exponential_flow():
    # benchmark system with u = 0: growth governed by eig (1 ± sqrt 5)/2
    h = 1.0
    got = step_exact(A_BENCH, B_BENCH, [1.0, 0.0], [0.0], h)
    evals, evecs = np.linalg.eig(A_BENCH)
    want = (evecs @ np.diag(np.exp(evals * h)) @ np.linalg.inv(evecs)) @ np.array(
        [1.0, 0.0]
    )
    np.testing.assert_allclose(got, want.real, rtol=1e-12)


def test_step_exact_accepts_flat_b():
    got_flat = step_exact(A_BENCH, [0.0, 1.0], [1.0, 0.0], [2.0], 0.3)
    got_col = step_exact(A_BENCH, B_BENCH, [1.0, 0.0], [2.0], 0.3)
    np.testing.assert_array_equal(got_flat, got_col)


# ---------------------------------------------------------------------------
# RK4 vs exact: the two integration routes must agree
# ---------------------------------------------------------------------------


def rk4_constant(a, b, x, u, h, steps):
    return rk4_by_value(np.asarray(a), np.asarray(b), x, held(u), 0.0, h, steps)


def test_integrator_routes_agree_on_constant_input():
    x = np.array([1.0, 0.0])
    u = [0.7]
    h = 0.1
    exact = step_exact(A_BENCH, B_BENCH, x, u, h)
    rk = rk4_constant(A_BENCH, B_BENCH, x, u, h, steps=10)
    assert np.max(np.abs(exact - rk)) / np.max(np.abs(exact)) <= 1e-8
    # the plant steps one knot interval in ten substeps: the same floats
    assert np.array_equal(Plant(A_BENCH, B_BENCH).advance(x, held(u), 0.0, h), rk)


@settings(max_examples=30)
@given(
    st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
    st.floats(-2.0, 2.0),
)
# eigenvalues 0 and 4: twenty substeps were 1.84e-8 off here
@example(a_flat=[2.0, 2.0, 2.0, 2.0], x0=[0.0, 1.0], u=0.0)
def test_integrator_routes_agree_on_random_systems(a_flat, x0, u):
    a = np.array(a_flat).reshape(2, 2)
    b = np.array([[0.5], [1.0]])
    h = 0.2
    # RK4's error per substep grows like (h*rho(A)/steps)^5: size the
    # substep count to the system's fastest mode
    rho = np.max(np.abs(np.linalg.eigvals(a)))
    steps = max(20, math.ceil(100 * h * rho))
    exact = step_exact(a, b, x0, [u], h)
    rk = rk4_constant(a, b, np.array(x0), [u], h, steps=steps)
    assert np.max(np.abs(exact - rk)) <= 1e-8 * max(1.0, np.max(np.abs(exact)))


def test_rk4_halving_shows_fourth_order():
    # error against the exact step must shrink ~16x when h is halved
    x = np.array([1.0, -0.5])
    u = [1.3]
    horizon = 0.8
    exact = step_exact(A_BENCH, B_BENCH, x, u, horizon)

    def rk4_error(steps):
        got = rk4_constant(A_BENCH, B_BENCH, x, u, horizon, steps)
        return np.max(np.abs(got - exact))

    e_coarse = rk4_error(4)
    e_fine = rk4_error(8)
    ratio = e_coarse / e_fine
    assert 12.0 <= ratio <= 20.0


def test_rk4_exact_on_polynomial_dynamics():
    # the double integrator's solution is cubic in t, inside RK4's order
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0], [1.0]])
    got = rk4_constant(a, b, np.zeros(2), [2.0], 1.0, steps=1)
    np.testing.assert_allclose(got, [1.0, 2.0], rtol=1e-13)


def test_rk4_linearity_in_state():
    x1 = rk4_constant(A_BENCH, B_BENCH, np.array([1.0, 0.0]), [0.0], 0.1, steps=1)
    x2 = rk4_constant(A_BENCH, B_BENCH, np.array([0.0, 1.0]), [0.0], 0.1, steps=1)
    x12 = rk4_constant(A_BENCH, B_BENCH, np.array([2.0, 3.0]), [0.0], 0.1, steps=1)
    np.testing.assert_allclose(x12, 2 * x1 + 3 * x2, rtol=1e-12)


# ---------------------------------------------------------------------------
# Plant
# ---------------------------------------------------------------------------


def test_plant_advance_piecewise_linear_converges_to_analytic():
    # scalar dx/dt = u(t) with u linear in t integrates to a quadratic
    plant = Plant([[0.0]], [[1.0]])
    sig = ControlSignal([0.0, 1.0], [[0.0], [2.0]])
    got = plant.advance([0.0], sig, 0.0, 1.0)
    # integral of 2t over [0,1] = 1
    assert got == pytest.approx([1.0], rel=1e-12)


def test_plant_advance_matches_dense_simulation():
    plant = Plant(A_BENCH, B_BENCH)
    sig = ControlSignal([0.0, 0.05, 0.1], [[0.0], [1.0], [-0.5]])
    coarse = plant.advance([1.0, 0.0], sig, 0.0, 0.1)
    fine = rk4_by_value(A_BENCH, B_BENCH, np.array([1.0, 0.0]), sig, 0.0, 0.1, substeps=320)
    assert np.max(np.abs(coarse - fine)) <= 1e-9


@pytest.mark.parametrize("n_u", [1, 2])
def test_plant_advance_samples_the_input_once_with_the_same_floats(n_u):
    # one np.interp per channel over every stage time gives the floats of
    # per-stage value() calls: Plant.advance over K knots is the textbook
    # loop on the least multiple of K - 1 intervals that is at least ten
    # substeps, bit for bit (1 -> 10, 3 -> 12, 4 -> 12, 10 -> 10, 13 -> 13)
    rng = np.random.default_rng(7 + n_u)
    for count in (1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 13, 20, *rng.integers(1, 25, 8)):
        n_x = int(rng.integers(1, 5))
        a, b = rng.normal(0.0, 1.0, (n_x, n_x)), rng.normal(0.0, 1.0, (n_x, n_u))
        x0 = rng.normal(0.0, 1.0, n_x)
        t, h = float(rng.uniform(-1.0, 5.0)), float(rng.uniform(0.01, 0.5))
        substeps = -(-10 // count) * count
        assert 10 <= substeps < 10 + count and substeps % count == 0
        knots = np.linspace(t, t + h, count + 1)
        sig = ControlSignal(knots, rng.normal(0.0, 1.0, (count + 1, n_u)))
        got = Plant(a, b).advance(x0, sig, t, h)
        assert np.array_equal(got, rk4_by_value(a, b, x0, sig, t, h, substeps)), count
    # a batch of times gives the floats of scalar np.interp calls
    stage = np.array([t, t + 0.3 * h, t + h, t + 2 * h])
    values = np.array(sig.knot_values)
    scalar = [[np.interp(s, knots, values[:, c]) for c in range(n_u)] for s in stage]
    assert np.array_equal(sig.values(stage), scalar)


def test_uncontrolled_benchmark_diverges():
    # open-loop contrast: from (1, 0) with u = 0 the norm passes 100 by t = 4
    out = step_exact(A_BENCH, B_BENCH, [1.0, 0.0], [0.0], 4.0)
    assert np.linalg.norm(out) > 100.0


def test_trajectory_z_stacks_states_and_controls():
    traj = Trajectory(
        times=np.array([0.0, 1.0]),
        states=np.array([[1.0, 2.0], [3.0, 4.0]]),
        controls=np.array([[5.0], [6.0]]),
        stds=np.zeros((2, 3)),
    )
    np.testing.assert_array_equal(traj.z, [[1.0, 2.0, 5.0], [3.0, 4.0, 6.0]])
