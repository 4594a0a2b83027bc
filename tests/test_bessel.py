"""Bessel backend validation against mpmath and the integral representation.

The accuracy contract is 1e-12 absolute up to x = 1e4 for the orders the
package uses (1 and 2); mpmath at 30 digits is the reference.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from ergrates.bessel import bessel_j

mp.mp.dps = 30

# First positive zero of J_1, an accuracy anchor for the order-1 backend.
J1_FIRST_ZERO = 3.8317059702075123


def mp_j(nu, x):
    return float(mp.besselj(mp.mpf(nu), mp.mpf(x)))


SAMPLE_X = np.concatenate([
    np.geomspace(1e-8, 1.0, 25),
    np.linspace(1.0, 50.0, 60),
    np.geomspace(50.0, 1e4, 40),
])


@pytest.mark.parametrize("nu", [1.0, 2.0])
def test_absolute_accuracy_vs_mpmath(nu):
    worst = 0.0
    for x in SAMPLE_X:
        got = float(bessel_j(nu, x))
        want = mp_j(nu, float(x))
        worst = max(worst, abs(got - want))
    assert worst < 1e-12


def test_first_j1_zero():
    assert abs(float(bessel_j(1.0, J1_FIRST_ZERO))) < 1e-14
    # bracketing: strictly positive just below, negative just above
    assert float(bessel_j(1.0, J1_FIRST_ZERO - 1e-3)) > 0
    assert float(bessel_j(1.0, J1_FIRST_ZERO + 1e-3)) < 0


def test_integral_representation():
    # J_n(x) = (1/pi) int_0^pi cos(n tau - x sin tau) dtau
    theta = np.linspace(0.0, math.pi, 20001)
    for nu in (1.0, 2.0):
        for x in (0.7, 3.3, 12.0):
            vals = np.cos(nu * theta - x * np.sin(theta))
            oracle = np.trapezoid(vals, theta) / math.pi
            assert float(bessel_j(nu, x)) == pytest.approx(oracle, abs=1e-10)


def test_vectorized_matches_scalar():
    xs = np.array([0.1, 1.0, 10.0, 100.0])
    vec = bessel_j(1.0, xs)
    for x, v in zip(xs, vec):
        assert v == float(bessel_j(1.0, float(x)))
