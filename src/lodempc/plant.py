"""Ground-truth simulator for dx/dt = A x + B u(t).

The input over one interval is a :class:`ControlSignal`: knots, linear
between them.  The plant integrates it with classical RK4 on substeps that
each lie inside one knot interval, since RK4 loses its order across a kink.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lodegp import LinearSystem

__all__ = ["ControlSignal", "Plant", "Trajectory"]


@dataclass(frozen=True, eq=False)
class ControlSignal:
    """The input u(t) as knots: ``knot_times`` (K,), K >= 2, strictly
    increasing and ``knot_values`` (K, n_u), linear between knots and held
    outside them.  Both are read-only arrays."""

    knot_times: np.ndarray
    knot_values: np.ndarray

    def __post_init__(self) -> None:
        times = np.array(self.knot_times, dtype=float)
        values = np.array(self.knot_values, dtype=float)
        if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
            raise ValueError(f"knot times must be 1-D, at least two and strictly increasing: {times}")
        if values.ndim != 2 or values.shape[0] != times.size:
            raise ValueError(
                f"knot_values must have shape ({times.size}, n_u), got {values.shape}"
            )
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "knot_times", times)
        object.__setattr__(self, "knot_values", values)

    def value(self, t: float) -> np.ndarray:
        return self.values(np.array([t], dtype=float))[0]

    def values(self, ts: np.ndarray) -> np.ndarray:
        """The signal at every time of the 1-D array ``ts``, shape
        (len(ts), n_u): one ``np.interp`` per channel."""
        return np.array(
            [np.interp(ts, self.knot_times, channel) for channel in self.knot_values.T]
        ).T.copy()


def _rk4(A, x, bu, h: float) -> np.ndarray:
    """The classical RK4 formula for dx/dt = A x + B u(t) over one step h,
    with ``bu`` the forcing B u at its start, midpoint and end (rows 0, 1, 2)."""
    k1 = A @ x + bu[0]
    k2 = A @ (x + 0.5 * h * k1) + bu[1]
    k3 = A @ (x + 0.5 * h * k2) + bu[1]
    k4 = A @ (x + h * k3) + bu[2]
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


class Plant(LinearSystem):
    """Simulator of the system dx/dt = A x + B u, which validates (A, B)."""

    def advance(self, x, signal: ControlSignal, t: float, h: float) -> np.ndarray:
        """Integrate over [t, t+h] by RK4 on at least ten substeps, a
        multiple of the signal's knot intervals, so that substeps of knots
        spread evenly over [t, t+h] never straddle a kink."""
        intervals = signal.knot_times.size - 1
        substeps = -(-10 // intervals) * intervals
        x = np.asarray(x, dtype=float)
        sub = h / substeps
        # B u at every RK4 stage time, as stacked B @ u(t) (u @ B.T rounds
        # differently for n_u >= 2): substep k starts at t + k*sub.
        start = t + np.arange(substeps) * sub
        u = signal.values(np.stack([start, start + 0.5 * sub, start + sub], axis=1).ravel())
        bu = (self.B @ u[:, :, None])[..., 0]
        for k in range(substeps):
            x = _rk4(self.A, x, bu[3 * k : 3 * k + 3], sub)
        return x


@dataclass
class Trajectory:
    """Closed-loop run record at the controller cadence.

    Row i holds the state at time[i] and the control value in effect
    entering time[i] (the initial control for row 0); ``stds`` are posterior
    stds per channel from the step that produced row i (0 in row 0: given).
    ``jitter_escalations`` counts the steps whose Cholesky needed a diagonal
    boost, and ``max_jitter_boost`` is the largest (0.0 for none).
    """

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    stds: np.ndarray
    constraint_error: float | None = None
    control_error: float | None = None
    jitter_escalations: int | None = None
    max_jitter_boost: float | None = None

    @property
    def z(self) -> np.ndarray:
        """Stacked trajectory samples (x, u), shape (len(times), n_z)."""
        return np.hstack([self.states, self.controls])
