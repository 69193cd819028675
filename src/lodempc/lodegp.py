"""From a state-space pair (A, B) to a GP prior whose realizations satisfy
dx/dt = A x + B u exactly.

The stacked trajectory z = (x, u) is annihilated by the operator matrix
H = [A - d*I | B] over the polynomial ring in the differentiation symbol.
Smith-reducing H yields D and a unimodular V with Q·H·V = D for some
unimodular Q; the columns of V past the nonzero diagonal of D span the right
nullspace of H, and pushing a latent squared-exponential process through
those columns gives a matrix-valued kernel whose sample paths obey the ODE.
The exact check H·V = 0 belongs to the ``algebra`` command and the tests.
For one input the column is (-1)^n_x·det Q·det V·g, with g = (adj(dI - A)·B,
det(dI - A)) the flat-output generator, and V is not replayed: both are
primitive generators of H's rank-1 kernel, and det[H; e_(n+1)ᵀ]·det[V_1 | g]
= det(Q⁻¹)·det(dI - A) fixes their ratio (:class:`SmithDecomposition`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernelops import OperatorKernel, build_operator_kernel
from .polyalg import (
    D,
    Poly,
    PolyMatrix,
    SmithDecomposition,
    right_nullspace_columns,
    smith_normal_form,
)

__all__ = [
    "LinearSystem",
    "LodeGpPrior",
    "NonControllableSystemError",
    "InfeasibleReferenceError",
    "build_h",
    "prior_columns",
    "require_controllable",
    "steady_state_input",
    "build_prior",
]


#: Largest residual |A x_ref + B u_ref| per state row of a steady state.
STEADY_STATE_TOL = 1e-8


class NonControllableSystemError(ValueError):
    """The invariant-factor chain of [A - d*I | B] has non-constant entries."""


class InfeasibleReferenceError(ValueError):
    """No steady-state input exists for the requested state reference."""


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Linear time-invariant system dx/dt = A x + B u.

    Channel names default to x1..x{n_x}, u1..u{n_u} and label the stacked
    trajectory z = (x, u).
    """

    A: np.ndarray
    B: np.ndarray
    channel_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        a = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.B, dtype=float)
        if b.ndim == 1:
            b = b[:, None]
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got {a.shape}")
        if b.shape[0] != a.shape[0]:
            raise ValueError(f"B has {b.shape[0]} rows, expected {a.shape[0]}")
        if b.shape[1] < 1:
            raise ValueError("system needs at least one input")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("A and B must be finite")
        names = tuple(self.channel_names)
        if not names:
            names = tuple(f"x{i + 1}" for i in range(a.shape[0])) + tuple(
                f"u{j + 1}" for j in range(b.shape[1])
            )
        if len(names) != a.shape[0] + b.shape[1]:
            raise ValueError("channel_names must cover all state and input channels")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "channel_names", names)

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    @property
    def n_z(self) -> int:
        return self.n_x + self.n_u


@dataclass(frozen=True, eq=False)
class LodeGpPrior:
    """GP prior over z = (x, u) with ODE-consistent covariance and constant
    mean at the reference equilibrium."""

    system: LinearSystem
    v_cols: PolyMatrix
    kernel: OperatorKernel
    prior_mean: np.ndarray

    @property
    def n_z(self) -> int:
        return self.system.n_z


def build_h(system: LinearSystem) -> PolyMatrix:
    """Operator matrix H = [A - d*I | B] with exact rational entries.

    Float matrix entries are converted exactly (``float.as_integer_ratio``),
    so every downstream polynomial step is deterministic and exact.
    """
    rows = []
    for i in range(system.n_x):
        row = []
        for j in range(system.n_x):
            p = Poly.const(system.A[i, j])
            if i == j:
                p = p - D
            row.append(p)
        for j in range(system.n_u):
            row.append(Poly.const(system.B[i, j]))
        rows.append(row)
    return PolyMatrix.from_rows(rows)


def require_controllable(dec: SmithDecomposition) -> None:
    """Raise NonControllableSystemError naming every non-constant invariant
    factor of the Smith decomposition of [A - d*I | B]."""
    bad = [p for p in dec.invariant_factors() if p.degree >= 1]
    if bad:
        factors = ", ".join(str(p) for p in bad)
        raise NonControllableSystemError(
            f"system is not controllable: non-constant invariant factor(s): {factors}"
        )


def steady_state_input(system: LinearSystem, x_ref) -> np.ndarray:
    """Minimum-norm u_ref with A x_ref + B u_ref = 0.

    Raises InfeasibleReferenceError naming the violated state rows when no
    input can hold the reference.
    """
    x_ref = np.asarray(x_ref, dtype=float)
    if x_ref.shape != (system.n_x,):
        raise ValueError(f"x_ref must have shape ({system.n_x},)")
    target = -system.A @ x_ref
    u_ref, *_ = np.linalg.lstsq(system.B, target, rcond=None)
    residual = system.B @ u_ref - target
    bad = np.flatnonzero(np.abs(residual) > STEADY_STATE_TOL)
    if bad.size:
        rows = ", ".join(str(int(i) + 1) for i in bad)
        raise InfeasibleReferenceError(
            f"no steady-state input holds x_ref={x_ref.tolist()}: "
            f"A x_ref + B u = 0 unsatisfiable in state row(s) {rows}"
        )
    return u_ref


def prior_columns(system: LinearSystem, dec: SmithDecomposition) -> PolyMatrix:
    """``right_nullspace_columns(dec)`` of a controllable H = [A - d*I | B], without a replay for one input."""
    if system.n_u > 1:
        return right_nullspace_columns(dec)
    n = system.n_x
    ratios = [v.as_integer_ratio() for v in np.hstack([system.A, system.B]).flat]
    s = max(d for _, d in ratios)  # float denominators are powers of two
    ab = np.array([num * (s // d) for num, d in ratios], dtype=object).reshape(n, n + 1)
    # Faddeev–LeVerrier on the ints s·A: M_k = s·A·M_(k-1) + c_(n-k+1)·I, c_(n-k) = -tr(s·A·M_k)/k give
    # det(μI - s·A) = Σ c_j μ^j and adj(μI - s·A) = Σ M_k μ^(n-k); g's d^j terms are those times s^j/s^n.
    m, char, adj_b = np.eye(n, dtype=object), [1], []
    for k in range(1, n + 1):
        adj_b.append(m @ ab[:, n])
        m = ab[:, :n] @ m
        char.append(-np.trace(m) // k)
        m[np.diag_indices(n)] += char[-1]
    scale = dec.det_qv * Poly(((-1) ** n,), s**n)
    rows = [*zip(*reversed(adj_b)), char[::-1]]
    return PolyMatrix(n + 1, 1, tuple(Poly([c * s**j for j, c in enumerate(r)]) * scale for r in rows))


def build_prior(system: LinearSystem, x_ref) -> LodeGpPrior:
    """Full pipeline: operator matrix, Smith reduction, nullspace columns,
    operator kernel, and the constant reference mean."""
    dec = smith_normal_form(build_h(system))
    require_controllable(dec)
    v_cols = prior_columns(system, dec)
    kernel = build_operator_kernel(v_cols)
    u_ref = steady_state_input(system, x_ref)
    prior_mean = np.concatenate([np.asarray(x_ref, dtype=float), u_ref])
    return LodeGpPrior(system=system, v_cols=v_cols, kernel=kernel, prior_mean=prior_mean)
