"""Model predictive control as GP inference.

Each step conditions the ODE-consistent prior on a :class:`Dataset`
assembled from four fragments over the stacked trajectory z = (x, u):

* the current observation (exact),
* soft box-constraint points at the grid times after now (value = box
  center, noise from the box half-width),
* up to ``m_p`` most recent past observations (exact),
* optional virtual reference points at the grid times after both now and
  ``t_v`` (exact, value = reference); they take the place of the soft
  points at those times.

The controller runs on the ``dt`` lattice: step ``k`` is at time
``t0 + k*dt``, the state records observations by step index, and
:class:`ControllerConfig` maps each constraint grid time to its lattice
index once, so "after now" is an integer comparison.

The posterior mean of the control channels over the next interval is then
applied to the plant.  Hyperparameters are chosen once, offline, on the
initial dataset, and stay frozen for the whole run.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .gpcore import Dataset, PosteriorGp
from .kernelops import Hyperparams
from .lodegp import LodeGpPrior
from .metrics import constraint_violation, control_error
from .plant import ControlSignal, Plant, Trajectory

__all__ = [
    "ControllerConfig",
    "ControllerState",
    "StepDiagnostics",
    "PlantDivergenceError",
    "make_d_init",
    "make_d_con",
    "make_d_past",
    "make_d_v",
    "build_step_dataset",
    "initial_dataset",
    "mpc_step",
    "run_closed_loop",
    "posterior_from_trajectory",
]

#: How far a configured time may sit off the dt lattice (constraint grid
#: points) or above ``t_v`` (grid points counted as after ``t_v``).
TIME_TOL = 1e-9

#: State norm beyond which the closed loop is declared divergent.
DIVERGENCE_LIMIT = 1e6


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
    constraint_noise_is_variance: bool = False
    control_application: str = "hold_endpoint"
    subgrid_count: int = 10

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
        span = self.t_end - self.t0
        steps = span / self.dt
        if abs(steps - round(steps)) > 1e-6:
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
        if self.control_application not in ("hold_endpoint", "subgrid_interpolation"):
            raise ValueError(
                f"unknown control_application {self.control_application!r}"
            )
        if self.subgrid_count < 1:
            raise ValueError("subgrid_count must be >= 1")
        if any(b <= a for a, b in zip(self.constraint_grid, self.constraint_grid[1:])):
            raise ValueError("constraint grid times must be strictly increasing")
        grid_t = np.array(self.constraint_grid, dtype=float)
        grid_k = np.round((grid_t - self.t0) / self.dt)
        off = np.abs((grid_t - self.t0) / self.dt - grid_k) * self.dt > TIME_TOL
        if off.any():
            raise ValueError(
                f"constraint grid time {grid_t[off][0]} does not lie on the dt lattice"
            )
        # Derived once: each grid point's lattice index, and whether a
        # virtual point (rather than a soft one) sits there.
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

    def grid_time(self, i: int) -> float:
        return self.t0 + i * self.dt


@dataclass
class ControllerState:
    """Observed history by lattice step index, most recent last.  The final
    entry is the current observation; earlier entries feed the past-data
    fragment."""

    history_k: list = field(default_factory=list)
    history_z: list = field(default_factory=list)

    def observe(self, k: int, z) -> None:
        self.history_k.append(operator.index(k))
        self.history_z.append(np.asarray(z, dtype=float))

    @property
    def k_now(self) -> int:
        return self.history_k[-1]

    @property
    def z_now(self) -> np.ndarray:
        return self.history_z[-1]


@dataclass(frozen=True, eq=False)
class StepDiagnostics:
    """Per-step byproducts surfaced for logging and tests."""

    posterior: PosteriorGp
    dataset: Dataset
    t_next: float
    mean_next: np.ndarray
    std_next: np.ndarray


def _rows(times, row, noise) -> Dataset:
    """One dataset row per time, all with the same values and noise."""
    n = len(times)
    return Dataset(times, np.tile(row, (n, 1)), np.tile(noise, (n, 1)))


def make_d_init(t: float, z) -> Dataset:
    """The current observation as an exact constraint.  NaN (or ``None``)
    entries in z mask the corresponding channel."""
    z = np.asarray(z, dtype=float)
    return _rows([t], z, np.zeros(z.size))


def make_d_con(cfg: ControllerConfig, k_now: int) -> Dataset:
    """Soft box-constraint points at every grid time after step k_now that
    no virtual point takes: value = box center, noise from the half-width
    (squared unless the config says the half-width already is a variance).
    Zero-width channels become exact constraints."""
    lo, hi = np.array(cfg.z_min), np.array(cfg.z_max)
    half = 0.5 * (hi - lo)
    var = half if cfg.constraint_noise_is_variance else half * half
    take = (cfg._grid_k > k_now) & ~cfg._grid_virtual
    return _rows(cfg._grid_t[take], 0.5 * (hi + lo), var)


def make_d_past(cfg: ControllerConfig, state: ControllerState) -> Dataset:
    """Up to m_p most recent observations before the current one, exact."""
    n = min(cfg.m_p, len(state.history_k) - 1)
    times = [cfg.grid_time(k) for k in state.history_k[-1 - n : -1]]
    zs = np.array(state.history_z[-1 - n : -1]).reshape(n, cfg.n_z)
    return Dataset(times, zs, np.zeros(zs.shape))


def make_d_v(cfg: ControllerConfig, k_now: int, z_ref) -> Dataset:
    """Virtual exact reference points at grid times after both step k_now
    and t_v; empty when t_v is unset."""
    z_ref = np.asarray(z_ref, dtype=float)
    take = (cfg._grid_k > k_now) & cfg._grid_virtual
    return _rows(cfg._grid_t[take], z_ref, np.zeros(z_ref.size))


def build_step_dataset(
    prior: LodeGpPrior, state: ControllerState, cfg: ControllerConfig
) -> Dataset:
    """Assemble the conditioning dataset for the current step."""
    k_now = state.k_now
    parts = (
        make_d_init(cfg.grid_time(k_now), state.z_now),
        make_d_con(cfg, k_now),
        make_d_past(cfg, state),
        make_d_v(cfg, k_now, prior.prior_mean),
    )
    return Dataset(
        np.concatenate([p.t for p in parts]),
        np.concatenate([p.values for p in parts]),
        np.concatenate([p.noise_var for p in parts]),
    )


def initial_dataset(
    prior: LodeGpPrior, cfg: ControllerConfig, include_virtual: bool = True
) -> Dataset:
    """The step-0 dataset at (t0, x0, u0).

    With ``include_virtual=False`` the endpoint-shaping points are left out.
    That is the variant the offline hyperparameter fit should see: shaping
    points are planning aids, not evidence about the signal scales, and
    fitting through their hard zeros drags the lengthscale away from what the
    measured data supports.  Leaving them out also means every run on the
    same problem shares one set of hyperparameters regardless of which
    dataset fragments the controller uses online.
    """
    state = ControllerState()
    state.observe(0, np.concatenate([cfg.x0, cfg.u0]))
    if not include_virtual:
        cfg = replace(cfg, t_v=None)
    return build_step_dataset(prior, state, cfg)


def mpc_step(
    prior: LodeGpPrior,
    state: ControllerState,
    cfg: ControllerConfig,
    hp: Hyperparams,
) -> tuple[ControlSignal, StepDiagnostics]:
    """Condition on the step dataset and extract the control for the next
    interval [t_now, t_now + dt]."""
    dataset = build_step_dataset(prior, state, cfg)
    gp = PosteriorGp(prior, dataset, hp)
    t_now = cfg.grid_time(state.k_now)
    t_next = t_now + cfg.dt
    n_x = cfg.n_x

    if cfg.control_application == "hold_endpoint":
        query = np.array([t_next])
        mean = gp.mean(query)
        signal = ControlSignal.constant(t_next, mean[0, n_x:])
    else:
        knots = np.linspace(t_now, t_next, cfg.subgrid_count + 1)
        mean_knots = gp.mean(knots)
        signal = ControlSignal.piecewise_linear(knots, mean_knots[:, n_x:])
        mean = mean_knots[-1:]
    std_next = gp.std(np.array([t_next]))[0]
    diag = StepDiagnostics(
        posterior=gp,
        dataset=dataset,
        t_next=t_next,
        mean_next=mean[-1],
        std_next=std_next,
    )
    return signal, diag


def run_closed_loop(
    prior: LodeGpPrior,
    plant: Plant,
    cfg: ControllerConfig,
    hp: Hyperparams,
    step_hook=None,
) -> Trajectory:
    """Execute the full receding-horizon loop and return the sampled run.

    ``step_hook(state, signal, diagnostics)``, when given, is invoked after
    each step's control has been computed (before the plant advances); it
    exists for inspection and testing.
    """
    if plant.n_x != prior.system.n_x or plant.n_u != prior.system.n_u:
        raise ValueError("plant dimensions do not match the prior's system")
    n_steps = cfg.n_steps
    n_x, n_u, n_z = cfg.n_x, cfg.n_u, cfg.n_z
    # At least ten RK4 substeps per interval, each inside one knot interval
    # of a piecewise-linear input: RK4 loses its order across a knot kink.
    substeps = -(-10 // cfg.subgrid_count) * cfg.subgrid_count

    times = np.array([cfg.grid_time(i) for i in range(n_steps + 1)])
    states = np.zeros((n_steps + 1, n_x))
    controls = np.zeros((n_steps + 1, n_u))
    stds = np.zeros((n_steps + 1, n_z))

    x = np.asarray(cfg.x0, dtype=float)
    u = np.asarray(cfg.u0, dtype=float)
    states[0] = x
    controls[0] = u

    state = ControllerState()
    state.observe(0, np.concatenate([x, u]))

    if n_steps == 0:
        stds[0] = PosteriorGp(prior, Dataset(), hp).std(times[:1])[0]
    for i in range(n_steps):
        signal, diag = mpc_step(prior, state, cfg, hp)
        if i == 0:
            stds[0] = diag.posterior.std(times[:1])[0]
        if step_hook is not None:
            step_hook(state, signal, diag)
        x = plant.advance(x, signal, times[i], cfg.dt, substeps=substeps)
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > DIVERGENCE_LIMIT:
            raise PlantDivergenceError(
                f"state norm {np.linalg.norm(x):.3e} at t={times[i + 1]:.6g} "
                f"exceeds {DIVERGENCE_LIMIT:g}; closed loop aborted"
            )
        u = signal.value(times[i + 1])
        states[i + 1] = x
        controls[i + 1] = u
        stds[i + 1] = diag.std_next
        state.observe(i + 1, np.concatenate([x, u]))

    traj = Trajectory(times=times, states=states, controls=controls, stds=stds)
    traj.constraint_error = constraint_violation(traj, cfg.z_min, cfg.z_max)
    traj.control_error = control_error(traj, cfg.x_ref)
    return traj


def posterior_from_trajectory(
    prior: LodeGpPrior, traj: Trajectory, hp: Hyperparams, stride: int = 1
) -> PosteriorGp:
    """Condition the prior on a run's recorded (t, z) samples as exact
    constraints: the GP's smooth, ODE-consistent reconstruction of the
    executed trajectory."""
    z = traj.z[::stride]
    return PosteriorGp(prior, Dataset(traj.times[::stride], z, np.zeros(z.shape)), hp)
