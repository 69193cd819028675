"""Shared fixtures: the 2-state unstable benchmark system and its GP prior,
and seeded random controllable 4-state priors."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from lodempc import Hyperparams, LinearSystem, build_prior

settings.register_profile(
    "default",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(scope="session")
def unstable_system():
    # ẋ1 = x2, ẋ2 = x1 + x2 + u — dominant eigenvalue (1+sqrt(5))/2 > 0
    return LinearSystem(A=[[0.0, 1.0], [1.0, 1.0]], B=[[0.0], [1.0]])


@pytest.fixture(scope="session")
def unstable_prior(unstable_system):
    return build_prior(unstable_system, x_ref=[0.0, 0.0])


@pytest.fixture(scope="session")
def unit_hp():
    return Hyperparams(signal_variance=1.0, lengthscale_sq=1.0)


def random_controllable_prior(seed: int, n_x: int, n_u: int):
    """Prior of the first controllable integer (A, B), entries in -2..2,
    drawn from a seeded generator."""
    rng = np.random.default_rng(seed)
    while True:
        a = rng.integers(-2, 3, (n_x, n_x)).astype(float)
        b = rng.integers(-2, 3, (n_x, n_u)).astype(float)
        ctrb = np.hstack([np.linalg.matrix_power(a, k) @ b for k in range(n_x)])
        if np.linalg.matrix_rank(ctrb) == n_x:
            return build_prior(LinearSystem(A=a, B=b), x_ref=[0.0] * n_x)


@pytest.fixture(scope="session")
def random4_prior():
    # A system on which building K_ji on its own, rather than as the mirror
    # of K_ij, lists the terms of the pair in different orders; mirrored, the
    # two evaluate bit-equal at u and -u.
    return random_controllable_prior(2015, 4, 1)


@pytest.fixture(scope="session")
def random4x2_prior():
    # Two inputs: a nullspace of two columns, summed in every entry.
    return random_controllable_prior(2015, 4, 2)
