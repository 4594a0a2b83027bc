"""Decay integrals and rate criteria.

Oracles: QUADPACK on the polar reduction of I(t) with scipy's own Bessel
evaluations (independent of the panel rules and the profile code under
test), the distribution-function route against the quadrature route, the
exact Weber-Schafheitlin large-t constant of radial measures on balls,
a test-local per-direction panel rule against the cumulative tables,
mpmath for the cube's radial integrals one direction at a time, for the
cube a Cartesian Si-function reference (radial) and the separable product
of 1-D QUADPACK integrals (aniso) with the Gradshteyn-Ryzhik 3.823 limit,
and synthetic ladders with known exponents for the fitter.
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
from ergrates import quadrature, rates
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

    @pytest.mark.parametrize("body", [Ball(1.0, dim=1), Ball(1.0), Cube(2), Cube(3)],
                             ids=["ball-d1", "ball-d2", "cube-d2", "cube-d3"])
    def test_rel_tol_below_double_precision_refused(self, body):
        # two levels that agree to the last bit cannot confirm 1e-300; d = 1,
        # which has no levels, refuses it all the same
        m = RadialPowerMeasure.with_total_mass(2.0, 1.0, 1.0, dim=body.dim)
        with pytest.raises(quadrature.QuadratureBudgetError, match="below double precision"):
            decay_integral(body, m, [3.0] * body.dim, rel_tol=1e-300)

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


def panel_radial(body, v, rho, s, order=8):
    """int_0^rho |ratio(r v)|^2 r^(s-1) dr by panels of a quarter oscillation
    period: Gauss-Jacobi-16 on the first panel absorbs r^(s-1)."""
    freq = sum(abs(x) for x in v) if isinstance(body, Cube) else float(
        2.0 * np.linalg.norm(body.semi_axes * v))
    edges = np.linspace(0.0, rho, max(4, math.ceil(rho * freq * 4.0 / (2.0 * math.pi))) + 1)
    r0, w0 = quadrature.end_power_rule(0.0, edges[1], s - 1.0, at_lower=True, order=16)
    r1, w1 = quadrature.gl_edges_rule(edges[1:], order)
    r, w = np.concatenate([r0, r1]), np.concatenate([w0, w1])
    return float(np.sum(ratio_abs_sq(body, r[:, None] * v[None, :]) * r ** (s - 1.0) * w))


class TestCumulativeProfile:
    """The G_s table against a per-direction panel rule, and its history."""

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
                table = c ** (-s) * rates._cumulative("ball", d, s, zs)
                for z, got in zip(zs, table):
                    want = panel_radial(body, v, z / c, s)
                    worst = max(worst, abs(got - want) / want)
        assert worst <= rel

    def test_values_independent_of_table_growth(self, monkeypatch):
        zs = np.array([0.3, 0.9, 7.5, 100.25, 2000.0])
        for kind, key in (("ball", 2), ("cube", 2)):
            monkeypatch.setattr(rates, "_TABLES", {})
            before = rates._cumulative(kind, key, 2.5, zs)
            small_table = rates._TABLES[(kind, key, 2.5)].copy()
            rates._cumulative(kind, key, 2.5, np.array([3.0e5]))
            grown = rates._TABLES[(kind, key, 2.5)]
            assert grown.size > 100 * small_table.size
            assert np.array_equal(grown[:small_table.size], small_table)
            assert np.array_equal(rates._cumulative(kind, key, 2.5, zs), before)
            # and a table built large in one go holds the same entries
            monkeypatch.setattr(rates, "_TABLES", {})
            rates._cumulative(kind, key, 2.5, np.array([3.0e5]))
            assert np.array_equal(rates._TABLES[(kind, key, 2.5)], grown)

    def test_decay_integral_independent_of_history_and_process(self, monkeypatch):
        monkeypatch.setattr(rates, "_TABLES", {})
        m = RadialPowerMeasure.with_total_mass(2.5, 1.0, 1.0, dim=2)
        first = [decay_integral(body, m, [100.0, 130.0], rel_tol=1e-6)
                 for body in (Ellipsoid((2.0, 1.0)), Cube(2))]
        for body in (Ellipsoid((2.0, 1.0)), Cube(2)):  # grow the tables
            decay_integral(body, m, [1.0e5, 1.3e5], rel_tol=1e-3)
        assert [decay_integral(body, m, [100.0, 130.0], rel_tol=1e-6)
                for body in (Ellipsoid((2.0, 1.0)), Cube(2))] == first
        code = ("from ergrates.geometry import Cube, Ellipsoid\n"
                "from ergrates.rates import decay_integral\n"
                "from ergrates.spectral import RadialPowerMeasure\n"
                "m = RadialPowerMeasure.with_total_mass(2.5, 1.0, 1.0, dim=2)\n"
                "print(repr([decay_integral(b, m, [100.0, 130.0], 1e-6)\n"
                "            for b in (Ellipsoid((2.0, 1.0)), Cube(2))]))\n")
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert res.stdout.strip() == repr(first), res.stderr


def mp_cube_radial(a, rho, s):
    """int_0^rho prod_k sinc^2(a_k r) r^(s-1) dr in mpmath, through r = v^(1/s)
    (which makes the weight flat), split at every period of the fastest
    frequency in the product."""
    with mpmath.workdps(20):
        a = [mpmath.mpf(float(x)) for x in a]
        s = mpmath.mpf(s)

        def f(v):
            r = v ** (1 / s)
            out = 1 / s
            for ak in a:
                out *= mpmath.sinc(ak * r) ** 2
            return out

        n = max(2, int(sum(2 * float(x) for x in a) * rho / (2 * math.pi)) + 2)
        return float(mpmath.quad(f, [(mpmath.mpf(rho) * i / n) ** s for i in range(n + 1)]))


class TestCubeKernel:
    """The cube's radial integral from the K_{s,m} tables and the small-axis
    series, one direction at a time, against mpmath."""

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 3.5])
    @pytest.mark.parametrize("t, om, rel", [
        ((10.0,), (1.0,), 1e-11),
        ((0.5,), (1.0,), 1e-11),  # a_1 rho < 1: the series alone
        ((10.0, 13.0), (math.cos(0.3), math.sin(0.3)), 1e-11),
        ((10.0, 13.0), (math.cos(1e-7), math.sin(1e-7)), 1e-11),
        ((10.0, 13.0), (math.sin(1e-7), math.cos(1e-7)), 1e-11),
        ((10.0, 10.0), (math.sqrt(0.5), math.sqrt(0.5)), 1e-11),  # a_1 = a_2 exactly
        ((30.0, 40.0), (math.cos(0.0525), math.sin(0.0525)), 1e-11),  # a_2 rho just over 1
        ((8.0, 12.0, 16.0), (0.48, 0.6, 0.64), 1e-9),
        ((8.0, 12.0, 16.0), (1e-7, 0.6, 0.8), 1e-9),
        ((8.0, 12.0, 16.0), (1e-7, 1e-7, 1.0), 1e-9),
        ((8.0, 8.0, 16.0), (0.6, 0.6, math.sqrt(0.28)), 1e-9),  # a_1 = a_2 exactly
    ])
    def test_matches_mpmath(self, t, om, s, rel):
        a = 0.5 * np.array(t) * np.array(om)
        got = rates._cube_radial(a[None, :], np.array([1.0]), s)[0]
        want = mp_cube_radial(a, 1.0, s)
        assert abs(got - want) <= rel * want

    def test_matches_panel_rule_on_random_directions(self):
        rng = np.random.default_rng(307)
        worst = {2: 0.0, 3: 0.0}
        for d in (2, 3):
            for _ in range(40):
                om = np.abs(rng.normal(size=d))
                om /= np.linalg.norm(om)
                t = rng.uniform(5.0, 900.0, size=d)
                rho, s = rng.uniform(0.3, 1.5), float(rng.choice([0.5, 1.0, 2.2, 3.0, 3.5]))
                got = rates._cube_radial(0.5 * (om * t)[None, :], np.array([rho]), s)[0]
                want = panel_radial(Cube(d), om * t, rho, s)
                worst[d] = max(worst[d], abs(got - want) / want)
        assert worst[2] <= 1e-11 and worst[3] <= 1e-9


def si_cube_radial2(t):
    """I(t) for the unit square and radial:2,1,1 (density 1/pi on the unit
    disk), Cartesian and independent of the package: integrating the t_2
    factor over the chord in closed form,

        I = (4/pi) int_0^(pi/2) sinc^2(t_1 sin th / 2) (2/t_2) S(t_2 cos th / 2) cos th dth,
        S(z) = int_0^z sin^2(u)/u^2 du = Si(2z) - sin^2(z)/z."""
    t1, t2 = t

    def f(th):
        x, z = 0.5 * t1 * math.sin(th), 0.5 * t2 * math.cos(th)
        s_z = special.sici(2.0 * z)[0] - math.sin(z) ** 2 / z if z > 0.0 else 0.0
        return (math.sin(x) / x if x > 0.0 else 1.0) ** 2 * (2.0 / t2) * s_z * math.cos(th)

    edges = np.linspace(0.0, math.pi / 2, int(max(t) / 4) + 9)
    return 4.0 / math.pi * sum(integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-12)[0]
                               for a, b in zip(edges[:-1], edges[1:]))


def sinc_moment(t, alpha, h):
    """int_0^h sinc^2(t x / 2) x^(alpha-1) dx by QUADPACK, one period at a time;
    the first period carries x^(alpha-1) as an algebraic weight."""
    def f(x):
        return (math.sin(0.5 * t * x) / (0.5 * t * x)) ** 2 if x > 0.0 else 1.0

    edges = np.append(np.arange(0.0, h, 2.0 * math.pi / t), h)
    total = integrate.quad(f, 0.0, edges[1], weight="alg", wvar=(alpha - 1.0, 0.0),
                           epsabs=0.0, epsrel=1e-13)[0]
    for a, b in zip(edges[1:-1], edges[2:]):
        total += integrate.quad(lambda x: f(x) * x ** (alpha - 1.0), a, b,
                                epsabs=0.0, epsrel=1e-13)[0]
    return total


class TestCubeReferences:
    """Cube I(t) against references that share no code with the package."""

    # the rungs that stopped falsely at 13.4-13.6x rel_tol under the former
    # per-direction panel rule: perfbench ladder seed 307 p = 701.7 and
    # seeds 31 and 32 p = 1000
    @pytest.mark.parametrize("t", [
        (701.7038286703829, 1370.7695355944722),
        (1404.655315327742, 1000.0),
        (1400.2822513391932, 1000.0),
    ], ids=["seed307-p701.7", "seed31-p1000", "seed32-p1000"])
    def test_radial2_within_tolerance_of_si_reference(self, t):
        m = RadialPowerMeasure.with_total_mass(2.0, 1.0, 1.0, dim=2)
        got = decay_integral(Cube(2), m, list(t), rel_tol=1e-5)
        want = si_cube_radial2(t)
        assert abs(got - want) <= 1e-5 * want

    def test_radial3_converges_at_large_t(self):
        # the critical gamma = 3 exhausted the angular levels here before
        m = RadialPowerMeasure.with_total_mass(3.0, 1.0, 1.0, dim=2)
        got = decay_integral(Cube(2), m, [1000.0, 1300.0], rel_tol=1e-5)
        tight = decay_integral(Cube(2), m, [1000.0, 1300.0], rel_tol=1e-7)
        assert 0.0 < got < total_mass(m)
        assert abs(got - tight) <= 1e-5 * tight

    @pytest.mark.parametrize("t", [(10.0, 13.0), (100.0, 130.0), (700.0, 910.0)])
    def test_aniso_matches_separable_product(self, t):
        # damping and density are both products over the axes, so
        # I(t) = c prod_k 2 int_0^(h_k) sinc^2(t_k x / 2) x^(alpha_k - 1) dx
        m = AnisotropicPowerMeasure.with_total_mass((1.5, 0.7), (1.0, 1.0), 1.0)
        want = m.scale * math.prod(2.0 * sinc_moment(tk, a, h)
                                   for tk, a, h in zip(t, m.alphas, m.halfwidths))
        assert decay_integral(Cube(2), m, list(t), rel_tol=1e-5) == pytest.approx(want, rel=1e-6)

    def test_kernel_overflow_refused(self):
        # u^(s-1-2m) in the K_{s,m} table overflows for s = 200 at |t| ~ 1e3;
        # the route refuses it rather than carry nan through every level
        m = RadialPowerMeasure.with_total_mass(200.0, 1.0, 1.0, dim=2)
        with pytest.raises(quadrature.QuadratureBudgetError, match="radial order 200"):
            decay_integral(Cube(2), m, [1000.0, 1300.0])

    @pytest.mark.parametrize("alpha", [0.7, 1.0, 1.5])
    def test_sinc_moment_large_t_constant(self, alpha):
        # t^alpha int_0^inf sinc^2(t x / 2) x^(alpha-1) dx = 2^alpha G(alpha), with
        # G(alpha) = int_0^inf (sin u / u)^2 u^(alpha-1) du
        #          = -Gamma(alpha-2) cos((alpha-2) pi/2) / 2^(alpha-1)   (GR 3.823),
        # pi/2 at alpha = 1.  Cut at h = 1 the tail takes off
        # 2 t^(alpha-2) / (2 - alpha), up to 4 t^(alpha-3).
        g = (math.pi / 2 if alpha == 1.0 else
             -math.gamma(alpha - 2.0) * math.cos((alpha - 2.0) * math.pi / 2) / 2 ** (alpha - 1.0))
        t = 1000.0
        got = t ** alpha * sinc_moment(t, alpha, 1.0)
        want = 2 ** alpha * g - 2.0 * t ** (alpha - 2.0) / (2.0 - alpha)
        assert abs(got - want) <= 4.0 * t ** (alpha - 3.0)


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
        d = ray_grid(np.ones(3), [2.0])
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
        res = check_rate_equivalence(body, m, power_phi(2.0),
                                     ray_grid(np.ones(2), p_ladder(2.0, 300.0)))
        assert res["consistent"]
        assert res["decay_bounded"] and res["mass_bounded"]
        assert res["verdict"] == "consistent with equivalence"

    def test_too_slow_phi_is_consistent_unbounded(self):
        body = Ball(1.0)
        m = RadialPowerMeasure.with_total_mass(2.0, 1.0, 1.0, dim=2)
        res = check_rate_equivalence(body, m, power_phi(2.5),
                                     ray_grid(np.ones(2), p_ladder(2.0, 1000.0)))
        assert res["consistent"]
        assert not res["decay_bounded"]
        assert not res["mass_bounded"]

    def test_atomic_measure_fast_path(self):
        body = Ball(1.0)
        m = AtomicMeasure(points=((1.0, 0.3), (0.4, -1.1)), weights=(1.0, 2.0), dim=2)
        res = check_rate_equivalence(body, m, power_phi(2.0),
                                     ray_grid(np.ones(2), p_ladder(2.0, 300.0)))
        # atoms leave every shrinking neighborhood: mass ratio is eventually 0
        assert res["consistent"]

    def test_rejects_supercritical_degree(self):
        with pytest.raises(ValueError, match="subcritical"):
            check_rate_equivalence(
                Ball(1.0),
                AtomicMeasure(points=((1.0, 0.0),), weights=(1.0,), dim=2),
                power_phi(3.5),
                ray_grid(np.ones(2), p_ladder(2.0, 300.0)),
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
        res = check_critical_rate(body, m, 1.0, ray_grid(np.ones(2), p_ladder(2.0, 1000.0)))
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
