"""Ground-truth simulator for dx/dt = A x + B u(t).

Constant-input intervals are stepped exactly through the matrix exponential
of the augmented matrix [[A, B], [0, 0]] (scaling-and-squaring); arbitrary
signals are integrated with classical RK4 on a fixed substep.  Exact
stepping isolates controller behavior from integrator error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import expm

__all__ = ["ControlSignal", "Plant", "Trajectory", "step_exact", "step_rk4"]


@dataclass(frozen=True)
class ControlSignal:
    """Control over one interval: either a constant vector or a piecewise-
    linear interpolation of knot values (clamped outside the knot range)."""

    kind: str  # "constant" | "piecewise_linear"
    knot_times: tuple[float, ...]
    knot_values: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "piecewise_linear"):
            raise ValueError(f"unknown control signal kind {self.kind!r}")
        if not self.knot_times:
            raise ValueError("control signal needs at least one knot")
        if len(self.knot_times) != len(self.knot_values):
            raise ValueError("knot_times and knot_values must align")
        if self.kind == "piecewise_linear" and len(self.knot_times) < 2:
            raise ValueError("piecewise-linear signal needs at least two knots")
        if any(b <= a for a, b in zip(self.knot_times, self.knot_times[1:])):
            raise ValueError("knot times must be strictly increasing")

    @classmethod
    def constant(cls, t: float, u) -> "ControlSignal":
        return cls("constant", (float(t),), (tuple(float(x) for x in np.atleast_1d(u)),))

    @classmethod
    def piecewise_linear(cls, times, values) -> "ControlSignal":
        return cls(
            "piecewise_linear",
            tuple(float(t) for t in times),
            tuple(tuple(float(x) for x in row) for row in np.atleast_2d(values)),
        )

    @cached_property
    def _knot_arrays(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Knot times and each channel's knot values as arrays, built once."""
        vals = np.asarray(self.knot_values)
        return np.asarray(self.knot_times), tuple(vals[:, j].copy() for j in range(vals.shape[1]))

    def value(self, t: float) -> np.ndarray:
        return self.values(np.array([t], dtype=float))[0]

    def values(self, ts: np.ndarray) -> np.ndarray:
        """The signal at every time of the 1-D array ``ts``, shape
        (len(ts), n_u): one ``np.interp`` per channel."""
        if self.kind == "constant":
            return np.tile(self.knot_values[0], (ts.size, 1))
        knots, channels = self._knot_arrays
        return np.array([np.interp(ts, knots, vals) for vals in channels]).T.copy()


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


def step_rk4(A, B, x, u_signal: ControlSignal, t: float, h: float) -> np.ndarray:
    """One classical RK4 step sampling the control signal at t, t+h/2, t+h."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    u = u_signal.values(np.array([t, t + 0.5 * h, t + h]))
    return _rk4(A, B, np.asarray(x, dtype=float), u, h)


def _rk4(A, B, x, u, h: float) -> np.ndarray:
    """The classical RK4 formula for dx/dt = A x + B u(t) over one step h,
    with ``u`` the input at its start, midpoint and end (rows 0, 1, 2)."""
    k1 = A @ x + B @ u[0]
    k2 = A @ (x + 0.5 * h * k1) + B @ u[1]
    k3 = A @ (x + 0.5 * h * k2) + B @ u[1]
    k4 = A @ (x + h * k3) + B @ u[2]
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


@dataclass(frozen=True, eq=False)
class Plant:
    """Simulator bound to one (A, B) pair."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self) -> None:
        a = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.B, dtype=float)
        if b.ndim == 1:
            b = b[:, None]
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    def advance(self, x, signal: ControlSignal, t: float, h: float, substeps: int = 10) -> np.ndarray:
        """Integrate over [t, t+h]: exactly for constant signals, RK4 on
        h/substeps otherwise (RK4 keeps its order only on substeps that lie
        inside one knot interval)."""
        if signal.kind == "constant":
            return step_exact(self.A, self.B, x, signal.value(t), h)
        x = np.asarray(x, dtype=float)
        sub = h / substeps
        # The input at every RK4 stage time, sampled once: substep k starts
        # at t + k*sub, the floats step_rk4 would be given.
        start = t + np.arange(substeps) * sub
        u = signal.values(np.stack([start, start + 0.5 * sub, start + sub], axis=1).ravel())
        for k in range(substeps):
            x = _rk4(self.A, self.B, x, u[3 * k : 3 * k + 3], sub)
        return x


@dataclass
class Trajectory:
    """Closed-loop run record at the controller cadence.

    Row i holds the state at time[i] and the control value in effect
    entering time[i] (the initial control for row 0); ``stds`` are posterior
    standard deviations per channel from the step that produced each row.
    """

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    stds: np.ndarray
    constraint_error: float | None = None
    control_error: float | None = None

    @property
    def z(self) -> np.ndarray:
        """Stacked trajectory samples (x, u), shape (len(times), n_z)."""
        return np.hstack([self.states, self.controls])
