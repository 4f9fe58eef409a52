from functools import partial

import numpy as np
import pytest

from qchardy.boundary import BoundaryHomeo
from qchardy.extension import make_disc_map


def _two_sided_power(t, c, g):
    """alpha(t) = c +- (pi -+ c) (|t - c| / (pi -+ c))^g, sign + for t >= c:
    a power cusp of exponent g at c that fixes +-pi.  Its inverse is the
    same map at 1/g."""
    t = np.asarray(t, dtype=float)
    side = np.where(t >= c, np.pi - c, np.pi + c)
    return c + np.sign(t - c) * side * (np.abs(t - c) / side) ** g


@pytest.fixture(scope="session")
def cusp_homeo():
    """The two-sided power cusp at c = 0.7 with gamma = 2: an angle map that
    is not odd."""
    return BoundaryHomeo(partial(_two_sided_power, c=0.7, g=2.0),
                         partial(_two_sided_power, c=0.7, g=0.5),
                         label="power(2, 0.7)", cusps=(0.7,))


@pytest.fixture(scope="session")
def identity_map():
    return make_disc_map("identity")


@pytest.fixture(scope="session")
def moebius_map():
    return make_disc_map("moebius:0.5")


@pytest.fixture(scope="session")
def thm2_map():
    return make_disc_map("thm2_sqrt")


@pytest.fixture(scope="session")
def pow2_map():
    return make_disc_map("power:2")


@pytest.fixture(scope="session")
def catalog_maps(identity_map, moebius_map, thm2_map, pow2_map):
    return {
        "identity": identity_map,
        "moebius(0.5)": moebius_map,
        "thm2_sqrt": thm2_map,
        "power(2)": pow2_map,
    }


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260826)
