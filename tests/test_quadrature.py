import math

import numpy as np
import pytest

from qfluct.errors import NumericalError
from qfluct.quadrature import ordered_phase_integral


def test_single_level_closed_form():
    thetas = np.array([[0.7, -2.3, 11.0]])
    t = 1.3
    want = (1.0 - np.exp(-1j * thetas[0] * t)) / (1j * thetas[0])
    got = ordered_phase_integral(thetas, t)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("depth", [1, 2, 3, 5])
def test_zero_phases_give_simplex_volume(depth):
    t = 1.7
    got = ordered_phase_integral(np.zeros((depth, 2)), t)
    np.testing.assert_allclose(got, t**depth / math.factorial(depth), rtol=1e-13, atol=0)


def test_zero_time_and_no_channels():
    got = ordered_phase_integral(np.ones((3, 4)), 0.0)
    assert got.shape == (4,) and not np.any(got)
    assert ordered_phase_integral(np.zeros((2, 0)), 0.9).shape == (0,)


def test_node_cap_raises():
    # the phase needs about 6000 nodes from the start, above the cap
    with pytest.raises(NumericalError):
        ordered_phase_integral([[1e4]], 1.0)
