import time

import pytest

from smml1d import make_exponential_gamma, make_normal_normal
from smml1d.estimator import solve_sweep


@pytest.fixture(scope="session")
def nn():
    """Normal-data / normal-prior pair with prior standard deviation 2."""
    return make_normal_normal(2.0)


@pytest.fixture(scope="session")
def eg():
    """Exponential-data / gamma-prior pair with shape 2 and rate 1 (Lomax marginal)."""
    return make_exponential_gamma(2.0, 1.0)


@pytest.fixture(scope="session")
def normal_sweep16(nn):
    """The n=1..16 sweep of `nn` and its wall time, shared by the test modules."""
    family, marginal = nn
    start = time.perf_counter()
    stages = solve_sweep(family, marginal, 16)
    return stages, time.perf_counter() - start
