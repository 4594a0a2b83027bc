"""Indicator transforms: closed forms, quadrature reference, asymptotics.

Frozen reference values come from mpmath (30 digits) and from the
elementary 1-D antiderivatives; the tensor quadrature reference in
`reference.py` cross-checks the closed forms.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy import special

from ergrates.fourier import (
    indicator_ft,
    ray_peaks,
    ray_zeros,
    scaled_indicator_ft,
    stationary_phase_ft,
    unit_ball_profile,
)
from ergrates.geometry import Ball, Cube, Ellipsoid, volume, width

import reference

RNG = np.random.default_rng(41002)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestClosedForms:
    def test_value_at_zero_is_volume(self):
        for body in [Ball(1.0), Ball(2.0, dim=3), Ellipsoid((2.0, 1.0)), Cube(2), Cube(3)]:
            z = np.zeros(getattr(body, "dim", None) or len(body.semi_axes))
            assert indicator_ft(body, z) == pytest.approx(volume(body), rel=1e-14)

    def test_ball2_frozen_value(self):
        # 2 pi J_1(|x|) / |x| at |x| = 2 -> pi J_1(2), mpmath 30-digit
        got = indicator_ft(Ball(1.0), np.array([2.0, 0.0]))
        assert got == pytest.approx(1.8118344191919792, rel=1e-14)

    def test_ball3_frozen_value(self):
        # 4 pi (sin z - z cos z)/z^3 at z = 3.5, mpmath 30-digit
        got = indicator_ft(Ball(1.0, dim=3), np.array([0.0, 3.5, 0.0]))
        assert got == pytest.approx(0.85782960336607112, rel=1e-13)

    def test_ball1_elementary(self):
        got = indicator_ft(Ball(2.0, dim=1), np.array([1.3]))
        assert got == pytest.approx(2 * math.sin(2.0 * 1.3) / 1.3, rel=1e-14)

    def test_cube_frozen_value(self):
        want = complex(0.46234247632534753, 0.5826246708639599)
        got = indicator_ft(Cube(2), np.array([2.5, -0.7]))
        assert got == pytest.approx(want, rel=1e-14)

    def test_cube_separable(self):
        x = np.array([1.7, -3.3, 0.4])
        per_axis = [(cmath.exp(1j * v) - 1) / (1j * v) for v in x]
        assert indicator_ft(Cube(3), x) == pytest.approx(np.prod(per_axis), rel=1e-13)

    def test_ellipsoid_reduces_to_stretched_ball(self):
        e = Ellipsoid((2.0, 1.0))
        x = np.array([0.8, -1.1])
        want = 2.0 * indicator_ft(Ball(1.0), np.array([2.0 * 0.8, -1.1]))
        assert indicator_ft(e, x) == pytest.approx(want, rel=1e-13)

    def test_modulus_bounded_by_volume(self):
        for body in [Ball(1.0), Ellipsoid((2.0, 1.0)), Cube(2)]:
            for _ in range(50):
                x = RNG.uniform(-30, 30, size=2)
                assert abs(indicator_ft(body, x)) <= volume(body) * (1 + 1e-12)


class TestRows:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rows_equal_one_point_calls_bit_for_bit(self, d):
        rng = np.random.default_rng(41003 + d)
        axes = (2.0, 0.7, 1.3)[:d]
        xs = rng.uniform(-40.0, 40.0, size=(300, d)) * 10.0 ** rng.uniform(-8, 0.5, size=(300, 1))
        xs[::7, rng.integers(d)] = 0.0
        xs[::50] = 0.0
        for body in (Ball(1.3, dim=d), Ellipsoid(axes), Cube(d)):
            rows = indicator_ft(body, xs)
            one = np.array([indicator_ft(body, x) for x in xs])
            assert rows.dtype == complex and one.dtype == complex
            assert np.array_equal(rows.view(np.int64), one.view(np.int64)), body

    def test_rows_are_checked(self):
        with pytest.raises(ValueError, match="dimension mismatch: expected 2, got 3"):
            indicator_ft(Ball(1.0), np.ones((4, 3)))
        with pytest.raises(ValueError, match="finite"):
            indicator_ft(Cube(2), np.array([[1.0, np.nan]]))
        assert indicator_ft(Cube(2), np.zeros((0, 2))).shape == (0,)


class TestQuadratureOracle:
    @pytest.mark.parametrize("body,d", [
        (Ball(1.0), 2),
        (Ball(1.5, dim=3), 3),
        (Ellipsoid((2.0, 1.0)), 2),
        (Ellipsoid((1.0, 2.0, 0.5)), 3),
        (Cube(2), 2),
        (Cube(3), 3),
    ])
    def test_matches_closed_forms(self, body, d):
        for _ in range(6):
            x = RNG.uniform(-10, 10, size=d)
            closed = indicator_ft(body, x)
            if abs(closed) < 1e-3 * volume(body):
                continue
            quad = reference.indicator_ft(body, x)
            assert abs(quad - closed) / abs(closed) < 1e-7

    def test_one_dimensional(self):
        q = reference.indicator_ft(Ball(1.0, dim=1), np.array([4.0]))
        assert q == pytest.approx(2 * math.sin(4.0) / 4.0, abs=1e-11)

    def test_conjugate_symmetry(self):
        for body in [Ellipsoid((2.0, 1.0)), Cube(2)]:
            x = np.array([3.1, -1.9])
            a = reference.indicator_ft(body, x)
            b = reference.indicator_ft(body, -x)
            assert a == pytest.approx(np.conj(b), abs=1e-9)
            c = indicator_ft(body, x)
            assert c == pytest.approx(np.conj(indicator_ft(body, -x)), rel=1e-13)


class TestScaling:
    def box_oracle(self, lo, hi, x):
        """Transform of an axis box, the only closed form derived in-test."""
        out = 1.0 + 0j
        for a, b, v in zip(lo, hi, x):
            if v == 0:
                out *= b - a
            else:
                out *= (cmath.exp(1j * b * v) - cmath.exp(1j * a * v)) / (1j * v)
        return out

    def test_scaled_cube_against_box_oracle(self):
        # K o t for the unit cube is the box [0, t]
        t = np.array([2.0, 0.5])
        for _ in range(10):
            x = RNG.uniform(-5, 5, size=2)
            want = self.box_oracle([0, 0], t, x)
            assert scaled_indicator_ft(Cube(2), t, x) == pytest.approx(want, rel=1e-12)

    def test_scaling_identity(self):
        for body in [Ball(1.0), Ellipsoid((2.0, 1.0))]:
            t = np.array([3.0, 0.7])
            x = RNG.uniform(-4, 4, size=2)
            want = float(np.prod(t)) * indicator_ft(body, x * t)
            assert scaled_indicator_ft(body, t, x) == pytest.approx(want, rel=1e-13)

    def test_nonpositive_t_rejected(self):
        with pytest.raises(ValueError):
            scaled_indicator_ft(Ball(1.0), np.array([1.0, 0.0]), np.array([1.0, 1.0]))


class TestAsymptotics:
    def fit_slope(self, z, v):
        lw = np.log(z)
        coef = np.polyfit(lw, np.log(v), 1)
        return coef[0]

    def test_ball_envelope_slopes(self):
        # |F| peak decay: -(d+1)/2
        z, pk = ray_peaks(Ball(1.0), unit([1.0, 1.0]), 50.0, 500.0)
        assert self.fit_slope(z, pk) == pytest.approx(-1.5, abs=0.05)
        z, pk = ray_peaks(Ball(1.0, dim=3), unit([1.0, 0.0, 1.0]), 50.0, 500.0)
        assert self.fit_slope(z, pk) == pytest.approx(-2.0, abs=0.05)

    def test_zero_spacing_matches_width(self):
        for body, eta in [
            (Ball(1.0), unit([0.3, 1.0])),
            (Ellipsoid((2.0, 1.0)), unit([1.0, 0.0])),
            (Ellipsoid((2.0, 1.0)), unit([1.0, 2.0])),
        ]:
            zeros = ray_zeros(body, eta, 50.0, 500.0)
            gaps = np.diff(zeros)
            want = 2 * math.pi / width(body, eta)
            assert np.mean(gaps) == pytest.approx(want, rel=0.01)

    def test_ball_ray_zeros_are_bessel_zeros(self):
        # F[1_B](z eta) = 2 pi J_1(z) / z in d = 2
        want = special.jn_zeros(1, 200)
        want = want[(want >= 50.0) & (want <= 500.0)]
        got = ray_zeros(Ball(1.0), unit([0.3, 1.0]), 50.0, 500.0)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-11

    def test_ellipsoid_ray_zeros_are_scaled_bessel_zeros(self):
        # along e_1 the ellipsoid (2, 1) transform is 2 * 2 pi J_1(2z) / (2z)
        want = special.jn_zeros(1, 400) / 2.0
        want = want[(want >= 50.0) & (want <= 500.0)]
        got = ray_zeros(Ellipsoid((2.0, 1.0)), np.array([1.0, 0.0]), 50.0, 500.0)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-11

    def test_ball_ray_peaks_at_bessel_zeros_with_exact_heights(self):
        # d/dz (J_1(z)/z) = -J_2(z)/z: the peaks of |2 pi J_1(z)/z| sit at the
        # zeros of J_2, and their heights come from mpmath at 30 digits
        want = special.jn_zeros(2, 200)
        want = want[(want > 50.0) & (want < 500.0)]
        where, heights = ray_peaks(Ball(1.0), unit([1.0, 1.0]), 50.0, 500.0)
        assert where.shape == want.shape
        assert np.max(np.abs(where - want)) <= 1e-6
        with mpmath.workdps(30):
            peaks = [mpmath.findroot(lambda z: mpmath.besselj(2, z), z0) for z0 in want]
            exact = [float(abs(2 * mpmath.pi * mpmath.besselj(1, z) / z)) for z in peaks]
        assert np.max(np.abs(heights / np.array(exact) - 1.0)) <= 1e-12

    def test_stationary_phase_matches_ball_asymptotics(self):
        # d=2 exact large-argument form: 2 sqrt(2 pi) z^{-3/2} cos(z - 3 pi/4)
        for z in (80.0, 200.0, 431.0):
            x = z * unit([2.0, -1.0])
            sp = stationary_phase_ft(Ball(1.0), x)
            want = 2 * math.sqrt(2 * math.pi) * z ** (-1.5) * math.cos(z - 3 * math.pi / 4)
            assert sp.value.real == pytest.approx(want, abs=3e-3 * z ** (-1.5))
            assert sp.envelope == pytest.approx(2 * math.sqrt(2 * math.pi) * z ** (-1.5), rel=1e-12)

    def test_stationary_phase_d3(self):
        # 4 pi z^{-2} cos(z - pi)
        z = 120.0
        sp = stationary_phase_ft(Ball(1.0, dim=3), z * unit([1.0, 1.0, 1.0]))
        want = 4 * math.pi * z**-2 * math.cos(z - math.pi)
        assert sp.value.real == pytest.approx(want, abs=1e-3 * z**-2)

    def test_envelope_tracks_true_peaks(self):
        e = Ellipsoid((2.0, 1.0))
        eta = unit([1.0, 1.0])
        z, pk = ray_peaks(e, eta, 80.0, 200.0)
        for zi, pi in zip(z, pk):
            env = stationary_phase_ft(e, zi * eta).envelope
            assert pi == pytest.approx(env, rel=0.02)

    def test_cube_rejected(self):
        with pytest.raises(ValueError):
            stationary_phase_ft(Cube(2), np.array([5.0, 1.0]))


class TestStationaryPhaseRows:
    @pytest.mark.parametrize("body", [
        Ball(1.0), Ball(2.5, dim=3), Ball(0.7, dim=4), Ellipsoid((2.0, 1.0)),
        Ellipsoid((0.3, 1.7)), Ellipsoid((2.0, 1.0, 1.5)), Ellipsoid((1.0, 2.0, 3.0, 0.5)),
    ], ids=lambda b: repr(b))
    def test_rows_match_points_bit_for_bit(self, body):
        d = body.dim
        dirs = list(np.eye(d)) + [unit(RNG.normal(size=d)) for _ in range(3)]
        xs = np.concatenate([np.linspace(0.0, 300.0, 101)[:, None] * eta[None, :] for eta in dirs])
        rows = stationary_phase_ft(body, xs)
        fields = ("value", "envelope", "amp_plus", "amp_minus", "phase_plus", "phase_minus")
        for i, x in enumerate(xs):
            if not np.any(x):
                assert all(np.isnan(getattr(rows, f)[i]) for f in fields)
                continue
            one = stationary_phase_ft(body, x)
            for f in fields:
                assert getattr(rows, f)[i] == getattr(one, f), f
        with pytest.raises(ValueError, match="x = 0"):
            stationary_phase_ft(body, np.zeros(d))

    def test_rows_keep_the_cube_out(self):
        with pytest.raises(ValueError, match="strictly convex"):
            stationary_phase_ft(Cube(2), np.ones((3, 2)))


def decay_constant(body, xs) -> float:
    """max over the sample rows of |F[1_K](x)| |x|^((d+1)/2), the decay-bound constant."""
    r = np.linalg.norm(xs, axis=1)
    return float(np.max(np.abs(indicator_ft(body, xs)) * r ** ((xs.shape[1] + 1) / 2.0)))


class TestDecayConstant:
    def test_d1_exact(self):
        # sup |2 sin z / z| * |z| = 2
        xs = np.linspace(1.0, 400.0, 4000).reshape(-1, 1)
        assert decay_constant(Ball(1.0, dim=1), xs) == pytest.approx(2.0, rel=1e-3)

    def test_d2_stabilizes_near_envelope_coefficient(self):
        zs = np.linspace(50.0, 500.0, 2000)
        xs = np.stack([zs, np.zeros_like(zs)], axis=-1)
        got = decay_constant(Ball(1.0), xs)
        assert got == pytest.approx(2 * math.sqrt(2 * math.pi), rel=0.02)

    def test_ellipsoid_finite_all_directions(self):
        e = Ellipsoid((2.0, 1.0))
        for _ in range(8):
            eta = unit(RNG.normal(size=2))
            zs = np.linspace(50.0, 300.0, 500)
            xs = zs[:, None] * eta[None, :]
            assert np.isfinite(decay_constant(e, xs))


class TestProfile:
    def test_profile_at_zero_is_unit_volume(self):
        assert unit_ball_profile(2, 0.0) == pytest.approx(math.pi)
        assert unit_ball_profile(3, 0.0) == pytest.approx(4 * math.pi / 3)

    def test_profile_series_continuity(self):
        # series/direct switchover must be seamless
        for d in (1, 2, 3, 4):
            lo = unit_ball_profile(d, 9.9e-4)
            hi = unit_ball_profile(d, 1.01e-3)
            assert abs(lo - hi) < 1e-5

    def test_d3_profile_matches_mpmath(self):
        # 4 pi (sin w - w cos w) / w^3 cancels as w -> 0: the even series
        # takes w < 1, the closed form the rest; error relative to the value,
        # or to 4 pi / w^2 next to a zero of the profile
        w = np.concatenate([[0.0, 1e-300, 1e-150, 1e-8, 1.0001e-3, 3e-3, 1e-2],
                            np.nextafter(1.0, [0.0, 2.0]), np.linspace(0.0, 10.0, 4001)[1:]])
        got = unit_ball_profile(3, w)
        with mpmath.workdps(60):
            want = np.array([float(4 * mpmath.pi / 3) if x < 1e-100 else float(
                4 * mpmath.pi * (mpmath.sin(mpmath.mpf(x)) - x * mpmath.cos(mpmath.mpf(x))) / x ** 3)
                for x in w.tolist()])
        scale = np.maximum(np.abs(want), 4 * math.pi / np.maximum(w, 1.0) ** 2 * 1e-2)
        assert np.max(np.abs(got - want) / scale) <= 1e-14
        assert unit_ball_profile(3, 0.0) == 4 * math.pi / 3
