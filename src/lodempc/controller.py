"""Model predictive control as GP inference.

The closed loop's only state is its trajectory: one array ``z`` of the
observed z = (x, u), one row per ``dt`` lattice step.  Step ``k`` is at time
``t0 + k*dt`` and is a pure function of ``z[:k+1]``: one builder,
:func:`build_step_dataset`, writes the paper's four fragments (the past
window, the current observation, soft box points and virtual reference
points) into one :class:`Dataset` in time order, the Gram's row order, and
:func:`mpc_step` conditions the ODE-consistent prior on it.  The posterior
mean of the control channels at ``SUBGRID_COUNT + 1`` knots over the next
interval, linear between them, is applied to the plant, and the new row is
appended; row 0 is the given initial condition.  Inspecting a step means
replaying it: ``mpc_step(prior, cfg, hp, traj.z[:k+1])`` gives step ``k``'s
control, std and jitter boost back bit for bit, and ``PosteriorGp(prior,
build_step_dataset(prior, cfg, traj.z[:k+1]), hp)`` its posterior.

:class:`ControllerConfig` holds the lattice times ``t0 + k*dt`` and maps
each constraint grid time to its lattice index once, so "after now" is an
integer comparison.  Hyperparameters are chosen once, offline, on
:func:`initial_dataset`, and stay frozen for the whole run, so the kernel
at every lag a step can meet is evaluated once, in one lag table over the
lattice and the grid (:func:`run_lag_table`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .gpcore import Dataset, LagTable, PosteriorGp
from .kernelops import Hyperparams
from .lodegp import LodeGpPrior
from .metrics import constraint_violation, control_error
from .plant import ControlSignal, Plant, Trajectory

__all__ = [
    "ControllerConfig",
    "PlantDivergenceError",
    "build_step_dataset",
    "initial_dataset",
    "mpc_step",
    "run_closed_loop",
    "run_lag_table",
]

#: How far a configured time may sit off the dt lattice (``t_end`` and the
#: constraint grid points) or above ``t_v`` (grid points counted as after it).
TIME_TOL = 1e-9

#: State norm beyond which the closed loop is declared divergent.
DIVERGENCE_LIMIT = 1e6

#: Knot intervals of a step's control over [t_k, t_k + dt]: its posterior
#: mean at SUBGRID_COUNT + 1 knots spread evenly, linear between them.
SUBGRID_COUNT = 10

#: A run's lag table holds R^2 int64 indices over its R distinct times, R at
#: most its lattice and grid times together (32 MB at this cap).  A run with
#: more of those builds none; its steps gather from tables over their own
#: times, with the same floats.
MAX_TABLE_TIMES = 2048


class PlantDivergenceError(RuntimeError):
    """Closed-loop state left the trust region (||x|| > 1e6)."""


@dataclass(frozen=True)
class ControllerConfig:
    """Static description of one control task."""

    t0: float
    t_end: float
    dt: float
    x0: tuple
    u0: tuple
    x_ref: tuple
    z_min: tuple
    z_max: tuple
    constraint_grid: tuple
    m_p: int = 0
    t_v: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        object.__setattr__(self, "u0", tuple(float(v) for v in self.u0))
        object.__setattr__(self, "x_ref", tuple(float(v) for v in self.x_ref))
        object.__setattr__(self, "z_min", tuple(float(v) for v in self.z_min))
        object.__setattr__(self, "z_max", tuple(float(v) for v in self.z_max))
        object.__setattr__(
            self, "constraint_grid", tuple(float(t) for t in self.constraint_grid)
        )
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.t_end < self.t0:
            raise ValueError("t_end must not precede t0")
        steps = (self.t_end - self.t0) / self.dt
        if abs(steps - round(steps)) * self.dt > TIME_TOL:
            raise ValueError("horizon length must be an integer multiple of dt")
        if len(self.z_min) != len(self.z_max):
            raise ValueError("z_min and z_max must have equal length")
        if any(lo > hi for lo, hi in zip(self.z_min, self.z_max)):
            raise ValueError("z_min must be <= z_max componentwise")
        if len(self.z_min) != len(self.x0) + len(self.u0):
            raise ValueError("box bounds must cover all state and input channels")
        if len(self.x_ref) != len(self.x0):
            raise ValueError("x_ref must match the state dimension")
        if self.m_p < 0:
            raise ValueError("m_p must be >= 0")
        if any(b <= a for a, b in zip(self.constraint_grid, self.constraint_grid[1:])):
            raise ValueError("constraint grid times must be strictly increasing")
        grid_t = np.array(self.constraint_grid, dtype=float)
        grid_k = np.round((grid_t - self.t0) / self.dt)
        off = np.abs((grid_t - self.t0) / self.dt - grid_k) * self.dt > TIME_TOL
        if off.any():
            raise ValueError(
                f"constraint grid time {grid_t[off][0]} does not lie on the dt lattice"
            )
        # Derived once: the lattice times, each grid point's lattice index,
        # and whether a virtual point (rather than a soft one) sits there.
        lattice = self.t0 + np.arange(self.n_steps + 1) * self.dt
        lattice.setflags(write=False)
        object.__setattr__(self, "lattice", lattice)
        t_v = math.inf if self.t_v is None else self.t_v + TIME_TOL
        object.__setattr__(self, "_grid_t", grid_t)
        object.__setattr__(self, "_grid_k", grid_k.astype(int))
        object.__setattr__(self, "_grid_virtual", grid_t > t_v)

    @property
    def n_x(self) -> int:
        return len(self.x0)

    @property
    def n_u(self) -> int:
        return len(self.u0)

    @property
    def n_z(self) -> int:
        return len(self.z_min)

    @property
    def n_steps(self) -> int:
        return round((self.t_end - self.t0) / self.dt)


def build_step_dataset(prior: LodeGpPrior, cfg: ControllerConfig, z_hist) -> Dataset:
    """The conditioning data of step k, where ``z_hist`` holds the observed
    z = (x, u) at steps 0..k, one row per step.  Rows in time order:

    * up to ``m_p`` observations before step k, then the current observation
      z_hist[k] at t_k, all exact (NaN masks a channel);
    * at each grid time after step k, up to ``t_v`` a soft box point (value
      the box's midpoint, noise variance its squared half-width), after it
      an exact reference point (none if ``t_v`` is None)."""
    z_hist = np.asarray(z_hist, dtype=float)
    if z_hist.ndim != 2 or not 0 < len(z_hist) <= cfg.lattice.size or z_hist.shape[1] != cfg.n_z:
        raise ValueError(
            f"z_hist must have shape (k+1, {cfg.n_z}) with k <= {cfg.n_steps}, got {z_hist.shape}"
        )
    k_now = len(z_hist) - 1
    window = slice(k_now - min(cfg.m_p, k_now), k_now + 1)
    ahead = cfg._grid_k > k_now
    pinned = cfg._grid_virtual[ahead, None]
    lo, hi = np.array(cfg.z_min), np.array(cfg.z_max)
    half, centre = 0.5 * (hi - lo), 0.5 * (hi + lo)
    return Dataset(
        np.concatenate([cfg.lattice[window], cfg._grid_t[ahead]]),
        np.concatenate([z_hist[window], np.where(pinned, prior.prior_mean, centre)]),
        np.concatenate([np.zeros_like(z_hist[window]), np.where(pinned, 0.0, half * half)]),
    )


def initial_dataset(prior: LodeGpPrior, cfg: ControllerConfig) -> Dataset:
    """The dataset of the offline hyperparameter fit: step 0 at (t0, x0, u0),
    without virtual points.

    Virtual points are planning aids, not evidence about the signal scales,
    and fitting through their hard zeros drags the lengthscale away from what
    the measured data supports.  Leaving them out also means every run on
    the same problem shares one set of hyperparameters regardless of which
    dataset fragments the controller uses online.
    """
    return build_step_dataset(prior, replace(cfg, t_v=None), [cfg.x0 + cfg.u0])


def mpc_step(
    prior: LodeGpPrior, cfg: ControllerConfig, hp: Hyperparams, z_hist, table=None
) -> tuple[ControlSignal, np.ndarray, float]:
    """The control law of step k = len(z_hist) - 1: condition on its dataset
    and return the control for [t_k, t_k + dt], the posterior std at its
    last knot, t_k + dt, and the diagonal boost its Cholesky needed (0.0 for
    none).  The control is the posterior mean of the input channels at
    ``SUBGRID_COUNT + 1`` knots spread evenly over the interval.  The
    posterior is freed on return.

    A pure function of its arguments: ``mpc_step(prior, cfg, hp,
    traj.z[:k+1])`` replays step k of a run bit for bit.  ``table``
    (:func:`run_lag_table`) only saves work: the Gram has the same floats
    with or without it."""
    gp = PosteriorGp(prior, build_step_dataset(prior, cfg, z_hist), hp, table)
    t_now = cfg.lattice[len(z_hist) - 1]
    knots = np.linspace(t_now, t_now + cfg.dt, SUBGRID_COUNT + 1)
    signal = ControlSignal(knots, gp.mean(knots, np.arange(cfg.n_x, cfg.n_z)))
    return signal, gp.std(knots[-1:])[0], gp.jitter_boost


def run_lag_table(
    prior: LodeGpPrior, cfg: ControllerConfig, hp: Hyperparams
) -> LagTable | None:
    """The lag table of a run: every time a step can condition on (the dt
    lattice t0 + k*dt and the constraint grid), with the kernel at ``hp``.
    Each is the float the step datasets hold, so the table is exact.  None
    past ``MAX_TABLE_TIMES`` times, counted before the table drops repeats."""
    times = np.concatenate([cfg.lattice, cfg._grid_t])
    return LagTable(times, prior.kernel, hp) if times.size <= MAX_TABLE_TIMES else None


def run_closed_loop(
    prior: LodeGpPrior, plant: Plant, cfg: ControllerConfig, hp: Hyperparams
) -> Trajectory:
    """Execute the shrinking-horizon loop (step k plans over (t_k, t_end]); return the run.

    The trajectory z = (x, u) is the loop's only state.  Row 0 is the given
    initial condition, with std 0; step k is ``mpc_step(prior, cfg, hp,
    z[:k+1])``, and its control and std fill row k + 1; the run records how
    many steps needed a jitter boost and the largest.  Every step gathers
    its Gram from one lag table built here, so no step evaluates the kernel
    for its Gram (unless the run has more than ``MAX_TABLE_TIMES`` times)."""
    if plant.n_x != prior.system.n_x or plant.n_u != prior.system.n_u:
        raise ValueError("plant dimensions do not match the prior's system")
    n_steps, n_x = cfg.n_steps, cfg.n_x
    times = cfg.lattice.copy()
    z = np.zeros((n_steps + 1, cfg.n_z))
    stds = np.zeros((n_steps + 1, cfg.n_z))
    boosts = np.zeros(n_steps)
    z[0] = cfg.x0 + cfg.u0
    table = run_lag_table(prior, cfg, hp)
    for k in range(n_steps):
        signal, stds[k + 1], boosts[k] = mpc_step(prior, cfg, hp, z[: k + 1], table)
        x = plant.advance(z[k, :n_x], signal, times[k], cfg.dt)
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > DIVERGENCE_LIMIT:
            raise PlantDivergenceError(
                f"state norm {np.linalg.norm(x):.3e} at t={times[k + 1]:.6g} "
                f"exceeds {DIVERGENCE_LIMIT:g}; closed loop aborted"
            )
        z[k + 1, :n_x] = x
        z[k + 1, n_x:] = signal.value(times[k + 1])

    traj = Trajectory(times=times, states=z[:, :n_x], controls=z[:, n_x:], stds=stds)
    traj.constraint_error = constraint_violation(traj, cfg.z_min, cfg.z_max)
    traj.control_error = control_error(traj, cfg.x_ref)
    traj.jitter_escalations = int(np.count_nonzero(boosts))
    traj.max_jitter_boost = float(boosts.max(initial=0.0))
    return traj
