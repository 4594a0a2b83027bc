"""Decay integrals and rate criteria.

Oracles: QUADPACK on the polar reduction of I(t) with scipy's own Bessel
evaluations (independent of the panel rules and the profile code under
test), the distribution-function route against the quadrature route, the
exact Weber-Schafheitlin large-t constant of radial measures on balls,
the per-direction panel rule against the cumulative profile table, and
synthetic ladders with known exponents for the fitter.
"""

import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

import ergrates
from ergrates import rates
from ergrates.geometry import Ball, Cube, Ellipsoid, unit_ball_volume
from ergrates.rates import (
    Sector,
    bounded_verdict,
    check_critical_rate,
    check_rate_equivalence,
    check_supercritical_rate,
    decay_integral,
    decay_integral_atomic,
    decay_integral_levelform,
    diagonal_grid,
    equivalence_bounds,
    fit_oscillatory_rate,
    fit_rate,
    monomial_phi,
    p_ladder,
    parse_phi,
    power_phi,
    predicted_rate_from_mass_exponent,
    rate_lstsq,
    ray_grid,
    sector_grid,
)
from ergrates.fourier import ratio_abs_sq
from ergrates.spectral import (
    AnisotropicPowerMeasure,
    AtomicMeasure,
    RadialPowerMeasure,
    SumMeasure,
    total_mass,
)

RNG = np.random.default_rng(41005)
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(ergrates.__file__)))


def ball_ratio_sq(z):
    """|F[1_Ball(1)]|^2 / vol^2 in d = 2 at radius z, via scipy's j1 only."""
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    nz = z != 0.0
    out[nz] = (2.0 * special.j1(z[nz]) / z[nz]) ** 2
    return out


def radial_oracle_2d(m, t):
    """QUADPACK polar-form oracle for I(t), Ball(1), radial power measure."""
    def outer(phi):
        w = math.hypot(t[0] * math.cos(phi), t[1] * math.sin(phi))
        val, err = integrate.quad(
            lambda r: r ** (m.gamma - 1.0) * float(ball_ratio_sq(np.array([w * r]))[0]),
            0.0, m.radius, limit=400,
        )
        assert err < 1e-8
        return m.scale * val

    val, err = integrate.quad(outer, 0.0, 2.0 * math.pi, limit=200)
    assert err < 1e-8
    return val


class TestAtomic:
    def test_single_atom_is_damping_factor(self):
        body = Ball(1.0)
        m = AtomicMeasure(points=((0.7, -1.2),), weights=(1.0,), dim=2)
        t = np.array([2.0, 3.0])
        want = float(ratio_abs_sq(body, (m.locations * t))[0])
        assert decay_integral_atomic(body, m, t) == pytest.approx(want, rel=1e-14)

    def test_weighted_sum(self):
        body = Cube(2)
        m = AtomicMeasure(points=((1.0, 0.0), (0.5, 0.5)), weights=(2.0, 3.0), dim=2)
        t = np.array([1.5, 4.0])
        want = 2.0 * float(ratio_abs_sq(body, np.array([1.5, 0.0]))[0]) + 3.0 * float(
            ratio_abs_sq(body, np.array([0.75, 2.0]))[0]
        )
        assert decay_integral_atomic(body, m, t) == pytest.approx(want, rel=1e-14)

    def test_validation(self):
        body = Ball(1.0)
        m = AtomicMeasure(points=((1.0, 0.0),), weights=(1.0,), dim=2)
        with pytest.raises(ValueError):
            decay_integral_atomic(body, m, [1.0, -1.0])
        with pytest.raises(TypeError):
            decay_integral_atomic(body, RadialPowerMeasure(2.0, 1.0, 1.0, 2), [1.0, 1.0])


class TestContinuous:
    def test_d1_against_quadpack(self):
        body = Ball(1.0, dim=1)
        m = RadialPowerMeasure(gamma=1.5, radius=1.0, scale=0.8, dim=1)
        for t in (0.5, 3.0, 20.0):
            got = decay_integral(body, m, [t], rel_tol=1e-7)
            want, err = integrate.quad(
                lambda r: 2.0 * 0.8 * r ** 0.5 * np.sinc(r * t / math.pi) ** 2,
                0.0, 1.0, limit=400,
            )
            assert err < 1e-9
            assert got == pytest.approx(want, rel=1e-6)

    def test_d2_radial_against_quadpack(self):
        body = Ball(1.0)
        m = RadialPowerMeasure.with_total_mass(2.0, 1.0, 1.0, dim=2)
        for t in ([1.0, 1.0], [3.0, 7.0], [12.0, 2.5]):
            got = decay_integral(body, m, t, rel_tol=1e-6)
            assert got == pytest.approx(radial_oracle_2d(m, t), rel=1e-5)

    def test_d2_large_symmetric_dilation(self):
        body = Ball(1.0)
        m = RadialPowerMeasure.with_total_mass(2.0, 1.0, 1.0, dim=2)
        p = 50.0
        got = decay_integral(body, m, [p, p], rel_tol=1e-7)
        want, err = integrate.quad(
            lambda r: m.scale * 2.0 * math.pi * r * float(ball_ratio_sq(np.array([p * r]))[0]),
            0.0, 1.0, limit=2000, epsabs=1e-13, epsrel=1e-13,
        )
        assert err < 1e-9
        assert got == pytest.approx(want, rel=1e-5)

    def test_d2_aniso_against_dblquad(self):
        body = Ball(1.0)
        m = AnisotropicPowerMeasure(alphas=(1.5, 0.75), halfwidths=(1.0, 1.0), scale=1.0)
        t = np.array([2.0, 5.0])

        def f(y, x):
            z = math.hypot(x * t[0], y * t[1])
            return 4.0 * x ** 0.5 * y ** (-0.25) * float(ball_ratio_sq(np.array([z]))[0])

        want, err = integrate.dblquad(f, 0.0, 1.0, 0.0, 1.0)
        assert err < 1e-8
        got = decay_integral(body, m, t, rel_tol=1e-6)
        assert got == pytest.approx(want, rel=1e-5)

    def test_small_t_recovers_total_mass(self):
        eps = 1e-6
        cases = [
            (Ball(1.0), RadialPowerMeasure.with_total_mass(2.5, 1.0, 3.0, dim=2), 2),
            (Cube(2), AnisotropicPowerMeasure.with_total_mass((1.0, 2.0), (1.0, 1.0), 2.0), 2),
            (Ball(1.5, dim=3), RadialPowerMeasure.with_total_mass(3.0, 1.0, 1.0, dim=3), 3),
        ]
        for body, m, d in cases:
            got = decay_integral(body, m, [eps] * d, rel_tol=1e-7)
            assert got == pytest.approx(total_mass(m), rel=1e-6)

    def test_sum_measure_adds(self):
        body = Ball(1.0)
        a = RadialPowerMeasure.with_total_mass(2.0, 1.0, 1.0, dim=2)
        b = AtomicMeasure(points=((1.0, 1.0),), weights=(2.0,), dim=2)
        t = [3.0, 4.0]
        got = decay_integral(body, SumMeasure(parts=(a, b)), t, rel_tol=1e-6)
        want = decay_integral(body, a, t, rel_tol=1e-6) + decay_integral_atomic(body, b, t)
        assert got == pytest.approx(want, rel=1e-10)

    def test_bounded_by_total_mass(self):
        # |F/vol| <= 1 pointwise, so I(t) <= sigma(R^d) always
        bodies = [Ball(1.0), Ellipsoid((2.0, 0.5)), Cube(2)]
        measures = [
            RadialPowerMeasure.with_total_mass(1.2, 1.0, 1.0, dim=2),
            AnisotropicPowerMeasure.with_total_mass((0.8, 2.0), (1.0, 1.0), 1.0),
        ]
        for body in bodies:
            for m in measures:
                for _ in range(5):
                    t = np.exp(RNG.uniform(-2.0, 3.5, size=2))
                    val = decay_integral(body, m, t, rel_tol=1e-4)
                    assert 0.0 <= val <= total_mass(m) * (1.0 + 1e-4)

    def test_t_must_be_positive(self):
        m = RadialPowerMeasure(2.0, 1.0, 1.0, 2)
        with pytest.raises(ValueError):
            decay_integral(Ball(1.0), m, [1.0, 0.0])


def weber_schafheitlin(nu, lam):
    """int_0^inf J_nu(u)^2 u^(-lam) du for 0 < lam < 2 nu + 1 (DLMF 10.22.57)."""
    g = mpmath.gamma
    return float(g(lam) * g(nu + (1 - lam) / 2)
                 / (2 ** lam * g((1 + lam) / 2) ** 2 * g(nu + (1 + lam) / 2)))


class TestWeberSchafheitlinLimit:
    """p^gamma I((p, ..., p)) for radial sigma of total mass 1 on the unit
    ball tends to c S_d ((2 pi)^(d/2) / V_d)^2 WS(d/2, d+1-gamma), with
    c = gamma / S_d; the relative residual decays like p^-(d+1-gamma)."""

    @staticmethod
    def residual(d, gamma, p):
        m = RadialPowerMeasure.with_total_mass(gamma, 1.0, 1.0, dim=d)
        const = (gamma * ((2 * math.pi) ** (d / 2) / unit_ball_volume(d)) ** 2
                 * weber_schafheitlin(d / 2, d + 1 - gamma))
        val = decay_integral(Ball(1.0, dim=d), m, [p] * d, rel_tol=1e-9)
        return p ** gamma * val / const - 1.0

    def test_d2_gamma2_constant_is_four(self):
        assert 2.0 * (2.0 * math.pi / math.pi) ** 2 * weber_schafheitlin(1.0, 1.0) == \
            pytest.approx(4.0, rel=1e-15)

    @pytest.mark.parametrize("d, gamma", [(2, 0.5), (2, 1.0), (3, 1.0)])
    def test_constant_pinned_at_p_1000(self, d, gamma):
        assert abs(self.residual(d, gamma, 1000.0)) < 1e-6

    @pytest.mark.parametrize("d, gamma", [(2, 2.0), (2, 2.5), (3, 2.0), (3, 3.0)])
    def test_residual_slope(self, d, gamma):
        lo, hi = self.residual(d, gamma, 100.0), self.residual(d, gamma, 1000.0)
        assert lo < 0.0 and hi < 0.0
        assert math.log10(hi / lo) == pytest.approx(-(d + 1 - gamma), abs=0.05)


class TestCumulativeProfile:
    """The G_s table against the per-direction panel rule, and its history."""

    # The d = 3 closed form of the profile cancels for small u (relative
    # error about 3e-16 / u^2, 3e-10 at its series switch u = 1e-3).  Both
    # rules sample that noise at different nodes, and u^(s-1) weights it
    # most for s <= 1, so there the two can agree only to about 1e-11.
    @pytest.mark.parametrize("d, s_values, rel", [
        (1, (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5), 1e-12),
        (2, (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5), 1e-12),
        (3, (1.5, 2.0, 2.5, 3.0, 3.5), 1e-12),
        (3, (0.5, 1.0), 3e-11),
    ])
    def test_matches_per_direction_panel_rule(self, d, s_values, rel):
        rng = np.random.default_rng(8080 + d)
        # below pi/4 (one Jacobi rule), just under it, and up to 6366 panels
        zs = np.array([0.1, 0.5, math.pi / 4 - 1e-3, 1.0, 3.7, 42.0, 613.5, 5000.0])
        bodies = (Ball(1.3, dim=d), Ellipsoid(tuple(rng.uniform(0.3, 2.0, size=d))))
        worst = 0.0
        for s in s_values:
            for body in bodies:
                om = np.abs(rng.normal(size=d)) + 0.05
                om /= np.linalg.norm(om)
                t = rng.uniform(1.0, 50.0, size=d)
                v = om * t
                c = float(np.linalg.norm(body.semi_axes * v))
                table = c ** (-s) * rates._cumulative_profile(d, s, zs)
                for z, got in zip(zs, table):
                    want = rates._radial_decay(body, v, z / c, s, t)
                    worst = max(worst, abs(got - want) / want)
        assert worst <= rel

    def test_values_independent_of_table_growth(self, monkeypatch):
        monkeypatch.setattr(rates, "_PROFILE_TABLES", {})
        zs = np.array([0.3, 0.9, 7.5, 100.25, 2000.0])
        before = rates._cumulative_profile(2, 2.5, zs)
        small_table = rates._PROFILE_TABLES[(2, 2.5)].copy()
        rates._cumulative_profile(2, 2.5, np.array([3.0e5]))
        grown = rates._PROFILE_TABLES[(2, 2.5)]
        assert grown.size > 100 * small_table.size
        assert np.array_equal(grown[:small_table.size], small_table)
        assert np.array_equal(rates._cumulative_profile(2, 2.5, zs), before)
        # and a table built large in one go holds the same entries
        monkeypatch.setattr(rates, "_PROFILE_TABLES", {})
        rates._cumulative_profile(2, 2.5, np.array([3.0e5]))
        assert np.array_equal(rates._PROFILE_TABLES[(2, 2.5)], grown)

    def test_decay_integral_independent_of_history_and_process(self, monkeypatch):
        monkeypatch.setattr(rates, "_PROFILE_TABLES", {})
        m = RadialPowerMeasure.with_total_mass(2.5, 1.0, 1.0, dim=2)
        body, t = Ellipsoid((2.0, 1.0)), [100.0, 130.0]
        first = decay_integral(body, m, t, rel_tol=1e-6)
        decay_integral(body, m, [1.0e5, 1.3e5], rel_tol=1e-3)  # grows the table
        assert decay_integral(body, m, t, rel_tol=1e-6) == first
        code = ("from ergrates.geometry import Ellipsoid\n"
                "from ergrates.rates import decay_integral\n"
                "from ergrates.spectral import RadialPowerMeasure\n"
                "m = RadialPowerMeasure.with_total_mass(2.5, 1.0, 1.0, dim=2)\n"
                "print(repr(decay_integral(Ellipsoid((2.0, 1.0)), m, [100.0, 130.0], 1e-6)))\n")
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert res.stdout.strip() == repr(first), res.stderr


class TestLevelform:
    def test_matches_quadrature_route_2d(self):
        body = Ball(1.0)
        for gamma in (1.5, 2.0, 3.5):
            m = RadialPowerMeasure.with_total_mass(gamma, 1.0, 1.0, dim=2)
            for t in ([1.0, 1.0], [3.0, 7.0], [10.0, 2.0], [30.0, 30.0]):
                lhs = decay_integral_levelform(body, m, t)
                rhs = decay_integral(body, m, t, rel_tol=1e-7)
                assert lhs == pytest.approx(rhs, rel=1e-2)

    def test_matches_quadrature_route_d1_d3(self):
        m1 = RadialPowerMeasure.with_total_mass(1.2, 1.0, 1.0, dim=1)
        lhs = decay_integral_levelform(Ball(1.0, dim=1), m1, [5.0])
        rhs = decay_integral(Ball(1.0, dim=1), m1, [5.0], rel_tol=1e-7)
        assert lhs == pytest.approx(rhs, rel=1e-2)
        m3 = RadialPowerMeasure.with_total_mass(3.0, 1.0, 1.0, dim=3)
        lhs = decay_integral_levelform(Ball(1.0, dim=3), m3, [2.0, 3.0, 4.0])
        rhs = decay_integral(Ball(1.0, dim=3), m3, [2.0, 3.0, 4.0], rel_tol=1e-6)
        assert lhs == pytest.approx(rhs, rel=1e-2)

    def test_requires_ball_and_radial(self):
        m = RadialPowerMeasure(2.0, 1.0, 1.0, 2)
        with pytest.raises(ValueError):
            decay_integral_levelform(Cube(2), m, [1.0, 1.0])
        with pytest.raises(ValueError):
            decay_integral_levelform(
                Ball(1.0), AnisotropicPowerMeasure((1.0, 1.0), (1.0, 1.0), 1.0), [1.0, 1.0]
            )


class TestFit:
    def test_pure_power(self):
        p = p_ladder(2.0, 2000.0)
        fit = fit_rate(p, p ** (-3.0))
        assert fit.theta_hat == pytest.approx(-3.0, abs=1e-10)
        assert fit.log_power_hat == pytest.approx(0.0, abs=1e-9)
        assert fit.residual_rms < 1e-12

    def test_power_with_log(self):
        p = p_ladder(2.0, 2000.0)
        fit = fit_rate(p, p ** (-3.0) * np.log(p))
        assert fit.theta_hat == pytest.approx(-3.0, abs=1e-10)
        assert fit.log_power_hat == pytest.approx(1.0, abs=1e-9)

    def test_validation(self):
        good_p = p_ladder(2.0, 500.0)
        with pytest.raises(ValueError, match=">= 8"):
            fit_rate([2, 4, 8, 16, 32, 64, 128], np.ones(7))
        with pytest.raises(ValueError, match="increasing"):
            fit_rate([2, 4, 3, 8, 16, 32, 64, 128], np.ones(8))
        with pytest.raises(ValueError, match="exceed 1"):
            fit_rate(np.geomspace(0.5, 500, 12), np.ones(12))
        with pytest.raises(ValueError, match="decades"):
            fit_rate(np.geomspace(2, 50, 12), np.ones(12))
        with pytest.raises(ValueError, match="positive"):
            fit_rate(good_p, np.zeros_like(good_p))

    def test_least_squares_core(self):
        # the core takes any ladder (the running fit feeds it prefixes) and
        # is exactly what fit_rate reports on a valid one
        p = np.array([3.0, 7.0, 20.0, 45.0])
        coef, resid = rate_lstsq(p, p ** (-1.5) * np.log(p) ** 2 * 0.25)
        assert coef == pytest.approx([-1.5, 2.0, math.log(0.25)], abs=1e-10)
        assert np.max(np.abs(resid)) < 1e-12
        coef, _ = rate_lstsq(p, 4.0 * p ** 0.5, with_log=False)
        assert coef == pytest.approx([0.5, math.log(4.0)], abs=1e-12)
        ladder = p_ladder(2.0, 2000.0)
        vals = ladder ** (-2.0) * (1.0 + 0.1 * np.sin(ladder))
        fit = fit_rate(ladder, vals)
        coef, resid = rate_lstsq(ladder, vals)
        assert (fit.theta_hat, fit.log_power_hat, fit.intercept) == tuple(coef)
        assert fit.residual_rms == float(np.sqrt(np.mean(resid ** 2)))

    def test_ladder_shape(self):
        p = p_ladder(2.0, 200.0)
        assert p[0] == pytest.approx(2.0) and p[-1] == pytest.approx(200.0)
        steps = p[1:] / p[:-1]
        assert np.allclose(steps, steps[0])
        assert 1.2 < steps[0] < 1.7
        with pytest.raises(ValueError):
            p_ladder(5.0, 2.0)

    def test_oscillatory_pure_power(self):
        # without oscillation all pairwise slopes coincide
        p = np.geomspace(10.0, 4000.0, 40)
        fit = fit_oscillatory_rate(p, 4.0 * p ** (-2.5))
        assert fit.theta_hat == pytest.approx(-2.5, abs=1e-12)
        assert fit.log_power_hat == 0.0

    def test_oscillatory_dips_ignored(self):
        # cos^2 dips wreck a raw log-space least squares but not the
        # median of pairwise slopes
        p = np.geomspace(10.0, 1000.0, 120)
        v = p ** (-3.0) * np.cos(0.83 * p) ** 2
        fit = fit_oscillatory_rate(p, v)
        assert fit.theta_hat == pytest.approx(-3.0, abs=0.05)

    def test_oscillatory_shares_ladder_validation(self):
        with pytest.raises(ValueError, match="decades"):
            fit_oscillatory_rate(np.geomspace(2, 50, 12), np.ones(12))


class TestBoundedVerdict:
    def test_cases(self):
        p = p_ladder(2.0, 2000.0)
        assert bounded_verdict(p, np.full_like(p, 3.0)).bounded
        assert bounded_verdict(p, 2.0 + np.sin(np.log(p))).bounded
        assert bounded_verdict(p, p ** (-0.5)).bounded
        grow = bounded_verdict(p, p ** 0.7)
        assert not grow.bounded
        assert grow.trend_slope == pytest.approx(0.7, abs=0.05)
        with pytest.raises(ValueError):
            bounded_verdict(p, -np.ones_like(p))

    def test_few_positive_points_defaults_bounded(self):
        assert bounded_verdict([2.0, 4.0, 8.0], [0.0, 0.0, 1.0]).bounded


class TestPhi:
    def test_homogeneity(self):
        phis = [power_phi(2.5), monomial_phi([1.0, 2.0]), monomial_phi([0.5, 0.0])]
        for phi in phis:
            for _ in range(20):
                t = np.exp(RNG.uniform(-2, 2, size=2))
                r = float(np.exp(RNG.uniform(-3, 3)))
                assert phi(r * t) == pytest.approx(
                    r ** phi.degree * phi(t), rel=1e-12
                )

    def test_parse(self):
        assert parse_phi("power:2.5").degree == -2.5
        assert parse_phi("mono:1,2").degree == -3.0
        with pytest.raises(ValueError):
            parse_phi("exp:1")
        with pytest.raises(ValueError):
            parse_phi("power:abc")

    def test_positive_cone_only(self):
        with pytest.raises(ValueError):
            power_phi(1.0)([1.0, -1.0])


class TestSector:
    def test_membership_and_nesting(self):
        assert Sector(1.0).contains([2.0, 2.0])
        assert not Sector(2.0).contains([1.0, 3.0])
        assert Sector(3.0).contains([1.0, 3.0])
        assert not Sector(2.0).contains([1.0, -1.0])
        for _ in range(50):
            t = np.exp(RNG.uniform(-2, 2, size=3))
            if Sector(2.0).contains(t):
                assert Sector(5.0).contains(t)
        with pytest.raises(ValueError):
            Sector(0.5)

    def test_sphere_sample_covers_corners(self):
        sec = Sector(2.0)
        dirs = sec.sphere_sample(2, n_per_axis=9)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
        corner = np.array([1.0, 2.0]) / math.sqrt(5.0)
        assert np.min(np.linalg.norm(dirs - corner, axis=1)) < 1e-12
        for w in dirs:
            assert sec.contains(w)

    def test_random_points_stay_inside(self):
        sec = Sector(4.0)
        pts = sec.random_points(np.random.default_rng(7), 100, 3)
        for t in pts:
            assert sec.contains(t)


class TestGrids:
    def test_ray_and_diagonal(self):
        g = ray_grid([1.0, 2.0], [1.0, 10.0])
        np.testing.assert_allclose(g, [[1.0, 2.0], [10.0, 20.0]])
        d = diagonal_grid(3, [2.0])
        np.testing.assert_allclose(d, [[2.0, 2.0, 2.0]])
        with pytest.raises(ValueError):
            ray_grid([1.0, 0.0], [1.0])

    def test_sector_grid_membership(self):
        g = sector_grid(3.0, 2, p_ladder(2.0, 50.0))
        sec = Sector(3.0)
        assert g.shape[1] == 2
        for t in g:
            assert sec.contains(t)

    def test_sector_grid_refuses_points_outside_the_sector(self):
        with pytest.raises(ValueError, match="leaves the sector"):
            sector_grid(2.0, 2, [-1.0, 10.0])


class TestEquivalenceChecker:
    def test_matched_rate_is_consistent_bounded(self):
        body = Ball(1.0)
        m = RadialPowerMeasure.with_total_mass(2.0, 1.0, 1.0, dim=2)
        res = check_rate_equivalence(body, m, power_phi(2.0), diagonal_grid(2, p_ladder(2.0, 300.0)))
        assert res["consistent"]
        assert res["decay_bounded"] and res["mass_bounded"]
        assert res["verdict"] == "consistent with equivalence"

    def test_too_slow_phi_is_consistent_unbounded(self):
        body = Ball(1.0)
        m = RadialPowerMeasure.with_total_mass(2.0, 1.0, 1.0, dim=2)
        res = check_rate_equivalence(body, m, power_phi(2.5), diagonal_grid(2, p_ladder(2.0, 1000.0)))
        assert res["consistent"]
        assert not res["decay_bounded"]
        assert not res["mass_bounded"]

    def test_atomic_measure_fast_path(self):
        body = Ball(1.0)
        m = AtomicMeasure(points=((1.0, 0.3), (0.4, -1.1)), weights=(1.0, 2.0), dim=2)
        res = check_rate_equivalence(body, m, power_phi(2.0), diagonal_grid(2, p_ladder(2.0, 300.0)))
        # atoms leave every shrinking neighborhood: mass ratio is eventually 0
        assert res["consistent"]

    def test_rejects_supercritical_degree(self):
        with pytest.raises(ValueError, match="subcritical"):
            check_rate_equivalence(
                Ball(1.0),
                AtomicMeasure(points=((1.0, 0.0),), weights=(1.0,), dim=2),
                power_phi(3.5),
                diagonal_grid(2, p_ladder(2.0, 300.0)),
            )


class TestCriticalChecker:
    def test_finite_singular_integral_bounded_ratios(self):
        body = Ball(1.0)
        m = AtomicMeasure(points=((1.0, 0.5), (0.7, -0.9)), weights=(1.0, 1.0), dim=2)
        res = check_critical_rate(body, m, 2.0, sector_grid(2.0, 2, p_ladder(2.0, 300.0)))
        assert res["singular_state"] == "finite"
        assert res["ratios_bounded"]
        assert res["consistent"]

    def test_infinite_singular_integral_unbounded_ratios(self):
        body = Ball(1.0)
        m = RadialPowerMeasure.with_total_mass(2.0, 1.0, 1.0, dim=2)
        res = check_critical_rate(body, m, 1.0, diagonal_grid(2, p_ladder(2.0, 1000.0)))
        assert res["singular_state"] == "infinite"
        assert not res["ratios_bounded"]
        assert res["consistent"]

    def test_sector_enforcement(self):
        body = Ball(1.0)
        m = AtomicMeasure(points=((1.0, 0.0),), weights=(1.0,), dim=2)
        off_grid = ray_grid([1.0, 5.0], p_ladder(2.0, 300.0))
        with pytest.raises(ValueError, match="sector"):
            check_critical_rate(body, m, 2.0, off_grid)
        res = check_critical_rate(body, m, 2.0, off_grid, enforce_sector=False)
        assert res["consistent"] is None
        assert "no claim" in res["verdict"]


class TestSupercriticalChecker:
    def test_zero_measure_trivial(self):
        res = check_supercritical_rate(
            Ball(1.0), AtomicMeasure(points=(), weights=(), dim=2), -4.0, [1.0, 1.0],
            p_ladder(3.0, 400.0),
        )
        assert res["sigma_zero"]
        assert "trivially" in res["verdict"]

    def test_nonzero_measure_excluded(self):
        rng = np.random.default_rng(99)
        p = np.geomspace(10.0, 1000.0, 120)
        for _ in range(2):
            pts = tuple(tuple(v) for v in rng.uniform(0.5, 2.0, size=(4, 2)))
            m = AtomicMeasure(points=pts, weights=(1.0,) * 4, dim=2)
            res = check_supercritical_rate(Ball(1.0), m, -4.0, [1.0, 1.0], p)
            assert res["rate_excluded"]
            assert res["theta_hat"] >= -3.1

    def test_rejects_subcritical_degree(self):
        m = AtomicMeasure(points=((1.0, 0.0),), weights=(1.0,), dim=2)
        with pytest.raises(ValueError, match="supercritical"):
            check_supercritical_rate(Ball(1.0), m, -2.0, [1.0, 1.0], p_ladder(3.0, 400.0))


class TestPredictedRate:
    def test_three_regimes(self):
        r = predicted_rate_from_mass_exponent(2.0, 2)
        assert (r.theta, r.log_power) == (-2.0, 0)
        r = predicted_rate_from_mass_exponent(3.0, 2)
        assert (r.theta, r.log_power) == (-3.0, 1)
        r = predicted_rate_from_mass_exponent(4.5, 2)
        assert (r.theta, r.log_power) == (-3.0, 0)
        with pytest.raises(ValueError):
            predicted_rate_from_mass_exponent(0.0, 2)


class TestEquivalenceBounds:
    def test_sandwich_holds_on_random_sector_points(self):
        rng = np.random.default_rng(123)
        sec = Sector(2.0)
        violations = 0
        for _ in range(5):
            a = rng.uniform(0.0, 3.0, size=2)
            a = a * (3.0 / max(a.sum(), 1e-9))
            phi = monomial_phi(a)
            lo, hi = equivalence_bounds(phi, sec, dim=2, n_samples=512)
            for t in sec.random_points(rng, 40, 2):
                r = float(np.linalg.norm(t))
                val = phi(t)
                if not (lo * r ** phi.degree <= val <= hi * r ** phi.degree):
                    violations += 1
        assert violations == 0

    def test_rejects_phi_blowing_up_on_patch(self):
        # exponent on axis 1 with direction range including the corner is fine;
        # a negative-value sphere_fn must be refused
        from ergrates.rates import HomogeneousFunction

        bad = HomogeneousFunction(degree=-3.0, sphere_fn=lambda w: -1.0)
        with pytest.raises(ValueError):
            equivalence_bounds(bad, Sector(2.0), dim=2)
