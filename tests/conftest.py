import math
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


def continued_fraction_tail(z):
    """T(z) = z + 2/(z + 3/(z + ...)), the tail of Laplace's continued
    fraction for the Mills ratio, at the package's depth 16 + int(640/z^2)
    and over ``range`` of ints; for z >= 2."""
    t = z
    for k in range(16 + int(640.0 / (z * z)), 1, -1):
        t = z + k / t
    return t


@pytest.fixture(scope="session")
def erfcx_mills_pair():
    """The Mills pair (R, h) as the package formed it from scipy's erfcx: R
    is sqrt(pi/2) erfcx(z/sqrt 2), and h is 1 - z R below z = 2 and R / T(z)
    from z = 2 on.  An oracle only; the package needs no scipy."""
    from scipy.special import erfcx

    def pair(z):
        r = math.sqrt(0.5 * math.pi) * float(erfcx(z / math.sqrt(2.0)))
        return r, (1.0 - z * r if z < 2.0 else r / continued_fraction_tail(z))

    return pair
