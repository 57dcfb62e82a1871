import math

import numpy as np
import pytest
from hypothesis import strategies as st

TWO_PI = 2.0 * math.pi


def log_uniform(gen: np.random.Generator, lo: float, hi: float, size=None):
    return 10.0 ** gen.uniform(math.log10(lo), math.log10(hi), size=size)


# Hypothesis strategies for the plain values the criterion and the oracles
# take: three log-uniform widths, the offset of two centers within 1 mm of
# the origin, a mass and a reduced phase constant.
_width = st.floats(-12, -2).map(lambda x: 10.0**x)
widths = st.tuples(_width, _width, _width)
_coordinate = st.floats(-2e-3, 2e-3)
separations = st.tuples(_coordinate, _coordinate, _coordinate)
masses = st.floats(-25, 0).map(lambda x: 10.0**x)
phases = st.floats(0.0, TWO_PI, exclude_max=True)


@pytest.fixture
def gen():
    return np.random.default_rng(1234)
