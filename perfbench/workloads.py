"""Seeded generators for the benchmark's closed-loop workloads.

Every workload is a set of named experiment configs (JSON documents in the
format ``lodempc run`` reads).  The same seed always yields the same
documents; the program under test sees only these documents.

* ``regulation``: the three bundled regulation experiments, hyperparameters
  fitted as ``lodempc run`` does.  Seed 0 is the bundled trio; other seeds
  draw each config's ``x0`` uniformly from the state box.
* ``dense6``: a random dense 6-state, 1-input system with one-decimal
  entries, shifted to be stable and checked controllable; the seed draws
  ``x0``.  The system is drawn once, not per seed: set-up and step cost
  differ from system to system (of the systems timed, ``build_prior`` took
  1.1-2.6 s and a whole run 4.3-7.7 s), so per-seed systems would make the
  seed, not the program, decide the figures.  On about one random
  system in fifteen (19 of 275 drawn while this benchmark was defined),
  ``lodempc run`` exits 2 at the first step: the 707x707 Gram fails to
  factor even at the jitter cap.  The system here is the first draw, which
  does not hit that failure.

Only numpy is needed here, so the generator can be imported (and tested)
without the program.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("regulation", "dense6")

#: The three bundled configs differ only in these dataset fragments.
VARIANTS = {
    "regulation_baseline": {"past_window": 0},
    "regulation_past": {"past_window": 20},
    "regulation_virtual": {"past_window": 20, "virtual_start": 4.0},
}

DENSE_N_X = 6
DENSE_BOX_X = 1.0
DENSE_BOX_U = 2.5

# Independent random streams per generator, so adding a workload never
# changes another one's inputs.
_STREAM_REGULATION = 1
_STREAM_DENSE = 2
_STREAM_DENSE_X0 = 3


def _base_doc(A, B, x0, z_min, z_max, past_window, virtual_start=None):
    datasets = {
        "constraint_grid": {"start": 0.1, "stop": 10.0, "count": 100},
        "past_window": past_window,
    }
    if virtual_start is not None:
        datasets["virtual_start"] = virtual_start
    n_x = len(A)
    return {
        "system": {"A": A, "B": B},
        "reference": {"x_ref": [0.0] * n_x},
        "initial": {"x0": list(x0), "u0": [0.0] * len(B[0])},
        "horizon": {"t0": 0.0, "t_end": 10.0, "dt": 0.1},
        "bounds": {"z_min": z_min, "z_max": z_max},
        "datasets": datasets,
        "hyperparams": {
            "bounds": {
                "signal_variance": [0.01, 100.0],
                "lengthscale_sq": [0.01, 100.0],
            },
            "jitter": 1e-9,
        },
        "flags": {"control_application": "subgrid_interpolation"},
        "seed": 0,
        "outputs": {
            "directory": "results",
            "trajectory_csv": "trajectory.csv",
            "metrics_json": "metrics.json",
            "samples_csv": "samples.csv",
        },
    }


def regulation_x0(seed: int, variant: int) -> list:
    if seed == 0:
        return [1.0, 0.0]
    rng = np.random.default_rng([_STREAM_REGULATION, seed, variant])
    return [float(v) for v in rng.uniform(-1.0, 1.0, 2)]


def regulation_configs(seed: int) -> dict:
    """The bundled trio, each at its own ``x0`` drawn from the seed,
    hyperparameters fitted.  The fit's cost depends on ``x0`` (326-426
    likelihood evaluations on seeds 0-7), so three draws per seed make the
    figures depend less on the seed."""
    out = {}
    for variant, (name, fragments) in enumerate(VARIANTS.items()):
        doc = _base_doc(
            A=[[0.0, 1.0], [1.0, 1.0]],
            B=[[0.0], [1.0]],
            x0=regulation_x0(seed, variant),
            z_min=[-1.0, -1.0, -2.5],
            z_max=[1.0, 1.0, 2.5],
            **fragments,
        )
        doc["system"]["channel_names"] = ["x1", "x2", "u"]
        out[name] = doc
    return out


def kalman_controllable(A: np.ndarray, B: np.ndarray) -> bool:
    """Rank test on the controllability matrix [B, AB, ..., A^(n-1) B]."""
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    return int(np.linalg.matrix_rank(np.hstack(blocks))) == n


def stabilizing_shift(A: np.ndarray) -> float:
    """Smallest one-decimal s >= 0 with max Re eig(A - s I) <= 0."""
    k = 0
    while np.max(np.linalg.eigvals(_shifted(A, k / 10)).real) > 0:
        k += 1
    return k / 10


def _shifted(A: np.ndarray, s: float) -> np.ndarray:
    out = A.copy()
    idx = np.diag_indices_from(out)
    # Round so the diagonal stays a one-decimal float (0.3 - 0.5 is not -0.2).
    out[idx] = np.round(out[idx] - s, 1)
    return out


def dense_system(index: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable, controllable one-decimal (A, B), the index-th draw."""
    rng = np.random.default_rng([_STREAM_DENSE, index])
    while True:
        A = rng.integers(-10, 11, (DENSE_N_X, DENSE_N_X)) / 10
        B = rng.integers(-10, 11, (DENSE_N_X, 1)) / 10
        if kalman_controllable(A, B):
            return _shifted(A, stabilizing_shift(A)), B


def dense6_configs(seed: int) -> dict:
    """``regulation_past``'s horizon, grid, window and flags on the first
    dense system, ``x0`` drawn from the seed, hyperparameters fixed at
    (1, 1)."""
    A, B = dense_system(0)
    rng = np.random.default_rng([_STREAM_DENSE_X0, seed])
    doc = _base_doc(
        A=A.tolist(),
        B=B.tolist(),
        x0=[float(v) for v in rng.uniform(-DENSE_BOX_X, DENSE_BOX_X, DENSE_N_X)],
        z_min=[-DENSE_BOX_X] * DENSE_N_X + [-DENSE_BOX_U],
        z_max=[DENSE_BOX_X] * DENSE_N_X + [DENSE_BOX_U],
        past_window=20,
    )
    doc["hyperparams"] = {
        "fixed": {"signal_variance": 1.0, "lengthscale_sq": 1.0},
        "jitter": 1e-9,
    }
    return {"dense6": doc}


GENERATORS = {
    "regulation": regulation_configs,
    "dense6": dense6_configs,
}


def configs(workload: str, seed: int) -> dict:
    """Config documents of one workload at one seed, by name."""
    return GENERATORS[workload](seed)
