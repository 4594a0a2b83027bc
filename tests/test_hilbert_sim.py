"""Finite model of the commuting flow and the identity it certifies.

The load-bearing check: the squared norm of the ergodic average over a
dilated body (computed coefficientwise) must equal the decay integral of
the induced atomic measure (computed measure-side), including when
several coefficients share one frequency.
"""

import math

import numpy as np
import pytest

from ergrates.geometry import Ball, Cube, Ellipsoid
from ergrates.hilbert_sim import (
    AtomicAction,
    average_norm_sq,
    demo_action,
    induced_measure,
    parse_action,
)
from ergrates.rates import decay_integral
from ergrates.spectral import total_mass

RNG = np.random.default_rng(41004)


def random_action(n, dim, rng, duplicates=False):
    freqs = rng.uniform(-3.0, 3.0, size=(n, dim))
    freqs[np.all(freqs == 0.0, axis=1)] += 0.5
    if duplicates and n >= 2:
        freqs[1] = freqs[0]
    coefs = rng.normal(size=n) + 1j * rng.normal(size=n)
    return AtomicAction(
        frequencies=tuple(tuple(row) for row in freqs),
        coefficients=tuple(coefs),
        dim=dim,
    )


def flowed(action, s):
    """U_s applied to the state: each coefficient picks up the phase e^{i(s, x_j)}."""
    phases = np.exp(1j * (np.asarray(action.frequencies) @ np.asarray(s, dtype=float)))
    return AtomicAction(
        frequencies=action.frequencies,
        coefficients=tuple(action.coefficient_array * phases),
        dim=action.dim,
    )


class TestFlow:
    def test_unitarity(self):
        a = demo_action(n=15, dim=3)
        for _ in range(5):
            s = RNG.uniform(-10.0, 10.0, size=3)
            assert flowed(a, s).norm_sq() == pytest.approx(a.norm_sq(), rel=1e-12)

    def test_average_commutes_with_the_flow(self):
        # the average over K o t commutes with U_s, so its norm is flow-invariant,
        # also when coefficients share a frequency
        a = random_action(8, 2, RNG, duplicates=True)
        t = (1.3, 0.8)
        for body in (Ball(1.0), Cube(2), Ellipsoid((1.0, 0.4))):
            want = average_norm_sq(a, body, t)
            for _ in range(3):
                s = RNG.uniform(-4.0, 4.0, size=2)
                assert average_norm_sq(flowed(a, s), body, t) == pytest.approx(want, rel=1e-12)

    def test_induced_measure_is_flow_invariant(self):
        a = random_action(6, 2, RNG, duplicates=True)
        m = induced_measure(a)
        for _ in range(3):
            got = induced_measure(flowed(a, RNG.uniform(-4.0, 4.0, size=2)))
            assert got.points == m.points
            np.testing.assert_allclose(got.weights, m.weights, rtol=1e-12)


class TestInducedMeasure:
    def test_weights_are_squared_moduli(self):
        a = AtomicAction(
            frequencies=((1.0, 0.0), (0.0, 2.0)),
            coefficients=(3.0 + 4.0j, 1.0),
            dim=2,
        )
        m = induced_measure(a)
        assert sorted(m.weights) == pytest.approx([1.0, 25.0])
        assert total_mass(m) == pytest.approx(a.norm_sq(), rel=1e-12)

    def test_shared_frequency_merges_before_modulus(self):
        a = AtomicAction(
            frequencies=((1.0, 2.0), (1.0, 2.0)),
            coefficients=(1.0, 2.0),
            dim=2,
        )
        m = induced_measure(a)
        assert m.points == ((1.0, 2.0),)
        assert m.weights == (9.0,)

    def test_cancelling_pair_vanishes(self):
        a = AtomicAction(
            frequencies=((1.0, 0.0), (1.0, 0.0)),
            coefficients=(1.0, -1.0),
            dim=2,
        )
        assert induced_measure(a).points == ()

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError, match="invariant"):
            AtomicAction(frequencies=((0.0, 0.0),), coefficients=(1.0,), dim=2)


class TestAverageIdentity:
    BODIES = {
        1: [Ball(1.0, dim=1), Cube(1)],
        2: [Ball(1.0), Ellipsoid((2.0, 1.0)), Cube(2)],
        3: [Ball(1.5, dim=3), Ellipsoid((2.0, 1.0, 0.5)), Cube(3)],
    }

    def test_norm_of_average_equals_decay_integral(self):
        rng = np.random.default_rng(555)
        checked = 0
        for dim, bodies in self.BODIES.items():
            for body in bodies:
                for _ in range(6):
                    a = random_action(8, dim, rng, duplicates=(checked % 2 == 0))
                    t = rng.uniform(0.2, 30.0, size=dim)
                    lhs = average_norm_sq(a, body, t)
                    rhs = decay_integral(body, induced_measure(a), t)
                    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
                    checked += 1
        assert checked >= 40

    def test_average_shrinks_with_t(self):
        a = demo_action(n=20, dim=2)
        body = Ball(1.0)
        vals = [average_norm_sq(a, body, [t, t]) for t in (1.0, 10.0, 100.0, 1000.0)]
        assert vals[0] > vals[1] > vals[2] > vals[3]
        # mean ergodic theorem: the average dies; frequencies here are >= 0.5
        assert vals[-1] < 1e-6 * a.norm_sq()

    def test_empty_action(self):
        a = AtomicAction(frequencies=(), coefficients=(), dim=2)
        assert average_norm_sq(a, Ball(1.0), [3.0, 3.0]) == 0.0
        assert induced_measure(a).points == ()

    def test_t_must_be_positive(self):
        a = demo_action(n=3, dim=2)
        with pytest.raises(ValueError):
            average_norm_sq(a, Ball(1.0), [1.0, 0.0])


class TestSpecStrings:
    def test_round_trip(self):
        a = parse_action("action:[(1,0;1,0),(0,2;0,-1)]")
        assert a.frequencies == ((1.0, 0.0), (0.0, 2.0))
        assert a.coefficients == (1.0 + 0.0j, -1.0j)

    def test_demo_alias_is_deterministic(self):
        a, b = parse_action("demo20"), parse_action("demo20")
        assert a == b
        assert len(a.frequencies) == 20

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown action spec"):
            parse_action("flow:[(1;1,0)]")
        with pytest.raises(ValueError, match="bad component"):
            parse_action("action:[(1,0;1)]")


@pytest.mark.parametrize("spec, message", [
    ("action:(1,0;1,0)", "bad action spec 'action:(1,0;1,0)': expected action:[(x;re,im),...]"),
    ("action:[1,0;1,0]", "bad component '1' in 'action:[1,0;1,0]'"),
], ids=["brackets", "parentheses"])
def test_bad_action_spec_is_refused(spec, message):
    with pytest.raises(ValueError) as err:
        parse_action(spec)
    assert str(err.value) == message
