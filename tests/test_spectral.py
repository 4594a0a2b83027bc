"""Measure families: neighborhood masses and the singular integral.

Oracles: hand-reduced closed forms where a symmetry gives one, and scipy
QUADPACK on the angular reduction otherwise (an independent engine from
the Gauss-Jacobi segment rules inside the module).  Divergence verdicts
are checked against the exact radial exponent.
"""

import ast
import math
import pathlib

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import reference

from ergrates import spectral
from ergrates.geometry import unit_sphere_area
from ergrates.quadrature import QuadratureBudgetError
from ergrates.spectral import (
    AnisotropicPowerMeasure,
    AtomicMeasure,
    BoxNeighborhood,
    EllipsoidNeighborhood,
    RadialPowerMeasure,
    SumMeasure,
    extent_kinks,
    format_measure,
    mass,
    parse_measure,
    singular_integral,
    split_top,
    total_mass,
)

RNG = np.random.default_rng(41003)


def angular_mass_oracle_2d(m, hood):
    """Quadrature oracle: radial direction in closed form, angles by QUADPACK."""
    if isinstance(m, RadialPowerMeasure):
        s, supp = m.gamma, lambda om: np.full(om.shape[0], m.radius)
        dens = lambda om: np.full(om.shape[0], m.scale)
    else:
        s = float(sum(m.alphas))
        h = np.asarray(m.halfwidths)
        supp = lambda om: np.min(np.where(np.abs(om) > 0, h / np.abs(om), np.inf), axis=1)
        al = np.asarray(m.alphas)
        dens = lambda om: m.scale * np.prod(np.abs(om) ** (al - 1.0), axis=1)

    def f(phi):
        om = np.array([[math.cos(phi), math.sin(phi)]])
        rho = min(float(hood.radial_profile(om)[0]), float(supp(om)[0]))
        return float(dens(om)[0]) * rho ** s / s

    val, err = integrate.quad(f, 0.0, 2.0 * math.pi, limit=400, points=[math.pi / 2, math.pi, 3 * math.pi / 2])
    assert err < 5e-8
    return val


class TestTotalMass:
    def test_atomic_sum(self):
        m = AtomicMeasure(points=((1.0, 0.0), (0.0, 2.0)), weights=(1.0, 4.0), dim=2)
        assert total_mass(m) == 5.0

    def test_radial_formula(self):
        # int_{|x|<=R} c |x|^(g-d) dx = c * S_d * R^g / g
        m = RadialPowerMeasure(gamma=3.0, radius=2.0, scale=0.5, dim=2)
        assert total_mass(m) == pytest.approx(0.5 * 2 * math.pi * 8.0 / 3.0, rel=1e-14)

    def test_with_total_mass_rescales(self):
        for dim in (1, 2, 3):
            m = RadialPowerMeasure.with_total_mass(1.7, 0.8, 5.0, dim=dim)
            assert total_mass(m) == pytest.approx(5.0, rel=1e-14)
        a = AnisotropicPowerMeasure.with_total_mass((0.5, 2.0), (1.0, 3.0), 2.5)
        assert total_mass(a) == pytest.approx(2.5, rel=1e-14)

    def test_aniso_against_quadrature(self):
        m = AnisotropicPowerMeasure(alphas=(1.5, 0.75), halfwidths=(1.0, 2.0), scale=1.3)
        # fold onto the first quadrant; quadpack then never touches the axes
        val, err = integrate.dblquad(
            lambda y, x: 4.0 * 1.3 * x ** 0.5 * y ** (-0.25),
            0.0, 1.0, 0.0, 2.0,
        )
        assert err < 1e-7
        assert total_mass(m) == pytest.approx(val, rel=1e-8)

    def test_sum_adds(self):
        a = RadialPowerMeasure.with_total_mass(2.0, 1.0, 1.0, dim=2)
        b = AtomicMeasure(points=((1.0, 1.0),), weights=(0.25,), dim=2)
        assert total_mass(SumMeasure(parts=(a, b))) == pytest.approx(1.25, rel=1e-14)


class TestNeighborhoods:
    def test_box_is_half_open(self):
        hood = BoxNeighborhood(halfwidths=(1.0, 0.5))
        pts = np.array([[1.0, 0.5], [-1.0, 0.0], [1.0 + 1e-12, 0.0], [0.0, -0.5 + 1e-12]])
        assert list(hood.contains(pts)) == [True, False, False, True]

    def test_ellipsoid_is_open(self):
        hood = EllipsoidNeighborhood(semi_axes=(2.0, 1.0))
        pts = np.array([[2.0, 0.0], [2.0 - 1e-9, 0.0], [0.0, -1.0]])
        assert list(hood.contains(pts)) == [False, True, False]

    def test_from_inverse(self):
        assert EllipsoidNeighborhood.from_inverse([2.0, 4.0]).semi_axes == (0.5, 0.25)

    @pytest.mark.parametrize("size", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cls", [EllipsoidNeighborhood, BoxNeighborhood])
    def test_non_finite_sizes_refused(self, cls, size):
        # a nan size once gave an atomic mass of 0.0 and a continuous one
        # that raised only inside the quadrature
        with pytest.raises(ValueError, match="must be finite"):
            cls((size, 0.1))

    def test_radial_profile_box(self):
        hood = BoxNeighborhood(halfwidths=(1.0, 1.0))
        # along the diagonal the boundary sits at the corner, radius sqrt(2)
        om = np.array([[1.0, 1.0]]) / math.sqrt(2.0)
        assert hood.radial_profile(om)[0] == pytest.approx(math.sqrt(2.0), rel=1e-14)


def _directions_with_zeros(dim: int, rng, zeros_per_row: int) -> np.ndarray:
    """Random unit rows of both signs, then copies of them with
    `zeros_per_row` components set to +0.0 or -0.0."""
    om = rng.standard_normal((300, dim))
    om /= np.linalg.norm(om, axis=1)[:, None]
    edge = om[:90].copy()
    for i, row in enumerate(edge):
        for j in range(min(zeros_per_row, dim - 1)):
            row[(i + j) % dim] = 0.0 if i % 2 else -0.0
    return np.concatenate([om, edge])


class TestColumnKernels:
    """The box extent and the aniso density combine their columns directly;
    row by row in Python they give the same bits."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_box_extent_row_by_row(self, dim):
        rng = np.random.default_rng(7 + dim)
        hood = BoxNeighborhood(tuple(rng.uniform(0.1, 2.0, dim).tolist()))
        om = np.concatenate([_directions_with_zeros(dim, rng, 2), np.eye(dim)])
        # omega_k = 0 sets no bound along axis k: its ratio is infinite
        want = [min(h / abs(w) if w != 0.0 else math.inf for h, w in zip(hood.halfwidths, row))
                for row in om.tolist()]
        got = hood.radial_profile(om)
        assert got.tolist() == want
        assert got[-dim:].tolist() == list(hood.halfwidths)  # along an axis: that halfwidth

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_aniso_density_row_by_row(self, dim):
        rng = np.random.default_rng(11 + dim)
        # no factor is 1; exponents 0.5 and 2 have numpy sqrt and square paths
        alphas = [[0.6], [1.5, 0.4], [0.4, 1.6, 3.0]][dim - 1]
        m = AnisotropicPowerMeasure(tuple(alphas), (1.0,) * dim, 1.7)
        om = _directions_with_zeros(dim, rng, 1)
        al = np.asarray(alphas)

        def row_density(row):
            factors = np.abs(row) ** (al - 1.0)  # numpy's power, as the package takes it
            out = factors[0]
            for f in factors[1:]:
                out = out * f
            return m.scale * out

        with np.errstate(divide="ignore"):  # 0 ** (alpha - 1) with alpha < 1
            got = m.angular_density(om)
            want = [row_density(row) for row in om]
        assert got.tolist() == want
        # omega_k = 0 (one per row) gives an infinite density where alpha_k < 1
        # and a zero one where alpha_k > 1
        zero = om == 0.0
        below = np.asarray(alphas) < 1.0
        infinite, vanishing = np.any(zero & below, axis=1), np.any(zero & ~below, axis=1)
        assert np.all(np.isinf(got[infinite])) and np.all(got[vanishing] == 0.0)
        assert np.all(np.isfinite(got[~infinite])) and infinite.any() == (dim > 1)


class TestAtomicMass:
    def test_membership_sum(self):
        m = AtomicMeasure(
            points=((0.2, 0.0), (0.0, 0.7), (1.5, 1.5)),
            weights=(1.0, 2.0, 4.0),
            dim=2,
        )
        assert mass(m, EllipsoidNeighborhood(semi_axes=(0.5, 0.5))) == 1.0
        assert mass(m, EllipsoidNeighborhood(semi_axes=(1.0, 1.0))) == 3.0
        assert mass(m, BoxNeighborhood(halfwidths=(2.0, 2.0))) == 7.0

    def test_half_open_edge_atom(self):
        m = AtomicMeasure(points=((1.0, 0.0), (-1.0, 0.0)), weights=(1.0, 2.0), dim=2)
        # +h face belongs to the box, -h face does not
        assert mass(m, BoxNeighborhood(halfwidths=(1.0, 1.0))) == 1.0

    def test_empty_measure(self):
        m = AtomicMeasure(points=(), weights=(), dim=2)
        assert mass(m, EllipsoidNeighborhood(semi_axes=(1.0, 1.0))) == 0.0
        assert singular_integral(m, 2.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AtomicMeasure(points=((0.0, 0.0),), weights=(1.0,), dim=2)
        with pytest.raises(ValueError):
            AtomicMeasure(points=((1.0, 0.0),), weights=(-1.0,), dim=2)
        with pytest.raises(ValueError):
            AtomicMeasure(points=((1.0,),), weights=(1.0,), dim=2)


class TestContinuousMass:
    def test_masses_are_python_floats(self):
        for d in (1, 2, 3):
            m = AnisotropicPowerMeasure((1.5,) * d, (1.0,) * d, 1.0)
            for hood in (EllipsoidNeighborhood((0.4,) * d), BoxNeighborhood((0.4,) * d)):
                assert type(mass(m, hood)) is float

    def test_radial_symmetric_closed_form(self):
        # gamma = d: constant density, so mass is scale * volume of the ball
        for d, vol in ((1, 2.0), (2, math.pi), (3, 4.0 * math.pi / 3.0)):
            m = RadialPowerMeasure(gamma=float(d), radius=1.0, scale=0.7, dim=d)
            eps = 0.3
            got = mass(m, EllipsoidNeighborhood(semi_axes=(eps,) * d))
            assert got == pytest.approx(0.7 * vol * eps ** d, rel=1e-12)

    def test_radial_small_ball_power_law(self):
        m = RadialPowerMeasure(gamma=2.5, radius=1.0, scale=1.0, dim=2)
        for eps in (0.5, 0.1, 0.02):
            got = mass(m, EllipsoidNeighborhood(semi_axes=(eps, eps)))
            want = 2.0 * math.pi * eps ** 2.5 / 2.5
            assert got == pytest.approx(want, rel=1e-12)

    def test_radial_hood_larger_than_support(self):
        m = RadialPowerMeasure(gamma=1.5, radius=0.5, scale=2.0, dim=2)
        got = mass(m, EllipsoidNeighborhood(semi_axes=(3.0, 3.0)))
        assert got == pytest.approx(total_mass(m), rel=1e-12)

    def test_radial_anisotropic_hood_vs_oracle(self):
        m = RadialPowerMeasure(gamma=2.0, radius=1.0, scale=1.0, dim=2)
        for axes in [(0.3, 0.2), (0.9, 0.1), (2.0, 0.5)]:
            hood = EllipsoidNeighborhood(semi_axes=axes)
            assert mass(m, hood) == pytest.approx(angular_mass_oracle_2d(m, hood), rel=5e-7)

    def test_radial_constant_density_is_area(self):
        # gamma = d = 2 makes the density constant: mass = scale * area of hood
        m = RadialPowerMeasure(gamma=2.0, radius=5.0, scale=1.3, dim=2)
        hood = EllipsoidNeighborhood(semi_axes=(0.3, 0.2))
        assert mass(m, hood) == pytest.approx(1.3 * math.pi * 0.06, rel=1e-10)
        box = BoxNeighborhood(halfwidths=(0.3, 0.2))
        assert mass(m, box) == pytest.approx(1.3 * 4.0 * 0.06, rel=1e-10)

    def test_aniso_separable_closed_form(self):
        # per-axis: int_{-r}^{r} |u|^(a-1) du = 2 r^a / a, truncated at the box
        m = AnisotropicPowerMeasure(alphas=(2.0, 2.0), halfwidths=(1.0, 1.0), scale=0.9)
        got = mass(m, BoxNeighborhood(halfwidths=(0.4, 0.7)))
        assert got == pytest.approx(0.9 * 0.4 ** 2 * 0.7 ** 2, rel=1e-10)

    def test_aniso_ellipsoid_hood_vs_oracle(self):
        m = AnisotropicPowerMeasure(alphas=(1.5, 0.75), halfwidths=(1.0, 1.0), scale=1.0)
        for axes in [(0.5, 0.5), (0.8, 0.2), (2.0, 2.0)]:
            hood = EllipsoidNeighborhood(semi_axes=axes)
            assert mass(m, hood) == pytest.approx(angular_mass_oracle_2d(m, hood), rel=1e-7)

    def test_aniso_singular_alpha_below_one(self):
        m = AnisotropicPowerMeasure(alphas=(0.5, 0.5), halfwidths=(1.0, 1.0), scale=1.0)
        got = mass(m, BoxNeighborhood(halfwidths=(0.25, 0.25)))
        want = (2.0 * 0.25 ** 0.5 / 0.5) ** 2
        assert got == pytest.approx(want, rel=1e-9)

    def test_mass_3d_constant_density(self):
        m = AnisotropicPowerMeasure(alphas=(1.0, 1.0, 1.0), halfwidths=(1.0, 1.0, 1.0), scale=1.0)
        hood = EllipsoidNeighborhood(semi_axes=(0.5, 0.4, 0.3))
        want = 4.0 * math.pi / 3.0 * 0.5 * 0.4 * 0.3
        assert mass(m, hood) == pytest.approx(want, rel=1e-8)
        box = BoxNeighborhood(halfwidths=(0.5, 0.4, 0.3))
        assert mass(m, box) == pytest.approx(8.0 * 0.06, rel=1e-10)

    def test_mass_3d_radial_in_box(self):
        # constant density (gamma = 3), box inside the support ball
        m = RadialPowerMeasure(gamma=3.0, radius=2.0, scale=1.0, dim=3)
        got = mass(m, BoxNeighborhood(halfwidths=(0.5, 0.5, 0.5)))
        assert got == pytest.approx(1.0, rel=1e-8)

    def test_mass_3d_aniso_vs_spherical_oracle(self):
        m = AnisotropicPowerMeasure(alphas=(2.0, 1.0, 1.5), halfwidths=(1.0, 1.0, 1.0), scale=1.0)
        hood = EllipsoidNeighborhood(semi_axes=(0.6, 0.5, 0.4))
        s = sum(m.alphas)
        al = np.asarray(m.alphas)

        def f(theta, phi):
            om = np.array([
                math.sin(theta) * math.cos(phi),
                math.sin(theta) * math.sin(phi),
                math.cos(theta),
            ])
            rho = 1.0 / math.sqrt(float(np.sum((om / np.asarray(hood.semi_axes)) ** 2)))
            dens = float(np.prod(np.abs(om) ** (al - 1.0)))
            return dens * rho ** s / s * math.sin(theta)

        want, err = integrate.dblquad(f, 0.0, 2.0 * math.pi, 0.0, math.pi)
        assert err < 1e-7
        assert mass(m, hood) == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("gamma,axes", [(3.5, (2.0, 0.5, 1.2)), (2.5, (1.5, 0.8, 0.6)),
                                            (1.0, (0.7, 1.3, 1.1))])
    def test_mass_3d_ellipsoid_straddling_support_vs_oracle(self, gamma, axes):
        # the ellipsoid crosses the support sphere |x| = R = 1: along u = cos(theta)
        # its extent r_e has r_e^-2 = A(phi) + (1/a3^2 - A(phi)) u^2, with
        # A(phi) = cos^2 phi / a1^2 + sin^2 phi / a2^2, and r_e = R at
        # sin^2 theta* = (1/R^2 - 1/a3^2) / (A(phi) - 1/a3^2); the inner integral
        # of min(r_e, R)^gamma over u is a 2F1 on each side of theta*, and the
        # outer mpmath integral is split at the kink A(phi*) = 1/R^2
        m = RadialPowerMeasure.with_total_mass(gamma, 1.0, 1.0, dim=3)
        with mpmath.workdps(20):
            a1, a2, a3 = (mpmath.mpf(a) for a in axes)
            g, b = mpmath.mpf(gamma), 1 / a3 ** 2

            def inner(phi):
                a = mpmath.cos(phi) ** 2 / a1 ** 2 + mpmath.sin(phi) ** 2 / a2 ** 2

                def piece(lo, hi):
                    if a + (b - a) * ((lo + hi) / 2) ** 2 < 1:
                        return hi - lo
                    return (hi * mpmath.hyp2f1(g / 2, 0.5, 1.5, -(b - a) * hi ** 2 / a)
                            - lo * mpmath.hyp2f1(g / 2, 0.5, 1.5, -(b - a) * lo ** 2 / a)
                            ) * a ** (-g / 2)

                u2 = (1 - a) / (b - a)
                return piece(0, 1) if not 0 < u2 < 1 else (piece(0, mpmath.sqrt(u2))
                                                           + piece(mpmath.sqrt(u2), 1))

            c2 = (1 - 1 / a2 ** 2) / (1 / a1 ** 2 - 1 / a2 ** 2)
            cuts = [0, mpmath.acos(mpmath.sqrt(c2)), mpmath.pi / 2] if 0 < c2 < 1 else [0, mpmath.pi / 2]
            want = float(8 * m.scale / g * mpmath.quad(inner, cuts))
        assert mass(m, EllipsoidNeighborhood(axes)) == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("gamma,k,h", [(2.0, 1, 0.5), (3.5, 0, 0.7), (1.5, 2, 0.4)])
    def test_mass_3d_box_cutting_one_slab_of_support(self, gamma, k, h):
        # a box wider than the support ball except along axis k cuts the slab
        # |x_k| < h: sigma = h^gamma + gamma h (1 - h^(gamma-1)) / (gamma - 1)
        # of the total mass 1
        m = RadialPowerMeasure.with_total_mass(gamma, 1.0, 1.0, dim=3)
        halfwidths = [2.0, 1.5, 1.2]
        halfwidths[k] = h
        want = h ** gamma + gamma * h * (1.0 - h ** (gamma - 1.0)) / (gamma - 1.0)
        assert mass(m, BoxNeighborhood(tuple(halfwidths))) == pytest.approx(want, abs=1e-8)

    def test_sum_and_dimension_mismatch(self):
        a = RadialPowerMeasure(gamma=2.0, radius=1.0, scale=1.0, dim=2)
        b = AtomicMeasure(points=((0.1, 0.0),), weights=(2.0,), dim=2)
        hood = EllipsoidNeighborhood(semi_axes=(0.5, 0.5))
        assert mass(SumMeasure(parts=(a, b)), hood) == pytest.approx(
            mass(a, hood) + 2.0, rel=1e-12
        )
        with pytest.raises(ValueError):
            mass(a, EllipsoidNeighborhood(semi_axes=(0.5, 0.5, 0.5)))

    def test_mass_bounded_by_total(self):
        measures = [
            RadialPowerMeasure(gamma=1.2, radius=1.0, scale=1.0, dim=2),
            AnisotropicPowerMeasure(alphas=(0.8, 2.5), halfwidths=(1.0, 0.5), scale=1.0),
        ]
        for m in measures:
            for _ in range(10):
                axes = tuple(RNG.uniform(0.05, 3.0, size=2))
                val = mass(m, EllipsoidNeighborhood(semi_axes=axes))
                assert 0.0 <= val <= total_mass(m) * (1.0 + 1e-9)

    def test_box_sandwiched_between_ellipsoids(self):
        # E(h) subset box(h) subset E(sqrt(d) h) up to boundary-null sets
        m = AnisotropicPowerMeasure(alphas=(1.3, 0.7), halfwidths=(1.0, 1.0), scale=1.0)
        for _ in range(8):
            h = RNG.uniform(0.1, 1.5, size=2)
            lo = mass(m, EllipsoidNeighborhood(semi_axes=tuple(h)))
            mid = mass(m, BoxNeighborhood(halfwidths=tuple(h)))
            hi = mass(m, EllipsoidNeighborhood(semi_axes=tuple(h * math.sqrt(2.0))))
            assert lo <= mid * (1.0 + 1e-9)
            assert mid <= hi * (1.0 + 1e-9)


class TestMassesInsideTheSupport:
    """A neighbourhood inside an aniso law's support box takes a closed form;
    every other one takes the quadrature, with its kinks in closed form."""

    # (alphas, halfwidths, hood, axes, mass by the angular quadrature that the
    # closed forms replaced), on hoods like the benchmark's
    QUADRATURE_ANISO = [
        ((1.691, 0.817), (1.306, 1.459), EllipsoidNeighborhood, (0.2125, 0.0557), 0.0023743084222525098),
        ((1.691, 0.817), (1.306, 1.459), BoxNeighborhood, (0.2924, 0.0565), 0.005588538226981681),
        ((0.887, 1.585), (1.205, 0.943), EllipsoidNeighborhood, (0.2849, 0.1509), 0.011164581045367262),
        ((0.887, 1.585), (1.205, 0.943), BoxNeighborhood, (0.1252, 0.1954), 0.01107270992523108),
        ((0.591, 0.908, 1.281), (0.776, 0.774, 0.772), EllipsoidNeighborhood, (0.0912, 0.0227, 0.1304),
         0.0006795924438544638),
        ((0.591, 0.908, 1.281), (0.776, 0.774, 0.772), BoxNeighborhood, (0.2516, 0.1183, 0.0607),
         0.00359279151528664),
        ((1.218, 1.742, 0.609), (0.718, 0.847, 0.674), EllipsoidNeighborhood, (0.1765, 0.0819, 0.1635),
         0.0006025185015054703),
        ((1.218, 1.742, 0.609), (0.718, 0.847, 0.674), BoxNeighborhood, (0.2508, 0.0413, 0.0534),
         0.0003073634333895476),
    ]
    # (gamma, hood, axes, mass with the crossing scans), radius 1 and total 1
    SCANNED_RADIAL = [
        (1.471, EllipsoidNeighborhood, (0.2007, 0.153), 0.07687975958897196),
        (1.471, BoxNeighborhood, (0.3275, 0.2886), 0.2095931755914264),
        (1.327, EllipsoidNeighborhood, (0.1775, 0.1709, 0.2238), 0.1091958050551495),
        (1.327, BoxNeighborhood, (0.1762, 0.2459, 0.0741), 0.09012553811529993),
    ]

    @pytest.mark.parametrize("alphas,halfwidths,hood,axes,value", QUADRATURE_ANISO)
    def test_aniso_closed_forms_match_the_quadrature(self, alphas, halfwidths, hood, axes, value):
        m = AnisotropicPowerMeasure.with_total_mass(alphas, halfwidths, 1.0)
        assert mass(m, hood(axes)) == pytest.approx(value, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("gamma,hood,axes,value", SCANNED_RADIAL)
    def test_radial_masses_keep_their_bits_without_the_scans(self, gamma, hood, axes, value):
        m = RadialPowerMeasure.with_total_mass(gamma, 1.0, 1.0, dim=len(axes))
        assert mass(m, hood(axes)) == value

    @pytest.mark.parametrize("alphas,halfwidths", [
        ((1.5, 0.7), (1.0, 0.6)), ((0.6, 0.6), (1.0, 1.0)),
        ((1.3, 0.8, 2.1), (0.9, 1.2, 0.7)), ((2.5, 1.0, 0.5), (1.0, 1.0, 1.0)),
    ])
    @pytest.mark.parametrize("hood", [EllipsoidNeighborhood, BoxNeighborhood])
    @pytest.mark.parametrize("edge_axes", ["all", "first"])
    def test_continuous_across_the_support_edge(self, alphas, halfwidths, hood, edge_axes):
        # delta_k = b_k lies inside the support box (closed form); b_k (1 + 1e-12)
        # straddles its edge (quadrature, with crossings next to the axes)
        m = AnisotropicPowerMeasure.with_total_mass(alphas, halfwidths, 1.0)
        inner = [b if edge_axes == "all" or k == 0 else 0.5 * b for k, b in enumerate(halfwidths)]
        outer = [inner[0] * (1.0 + 1e-12)] + [
            b * (1.0 + 1e-12) if edge_axes == "all" else b for b in inner[1:]]
        assert mass(m, hood(tuple(outer))) == pytest.approx(mass(m, hood(tuple(inner))), rel=1e-10)

    @pytest.mark.parametrize("gamma,shape", [
        (1.5, (1.0, 0.4)), (0.8, (0.3, 1.0)), (2.5, (1.0, 0.6, 0.3)), (1.2, (0.5, 0.8, 1.0)),
    ])
    @pytest.mark.parametrize("hood", [EllipsoidNeighborhood, BoxNeighborhood])
    def test_radial_continuous_across_the_support_edge(self, gamma, shape, hood):
        # the longest semi-axis of an ellipsoid, or the corner of a box, at
        # R (1 - 1e-12) lies inside the ball, at R touches it and at
        # R (1 + 1e-12) straddles its edge
        radius = 1.3
        m = RadialPowerMeasure.with_total_mass(gamma, radius, 1.0, dim=len(shape))
        unit = np.asarray(shape) / (max(shape) if hood is EllipsoidNeighborhood else np.linalg.norm(shape))
        inner, touching, outer = (mass(m, hood(tuple(radius * f * unit)))
                                  for f in (1.0 - 1e-12, 1.0, 1.0 + 1e-12))
        assert touching == pytest.approx(inner, rel=1e-10)
        assert outer == pytest.approx(inner, rel=1e-10)

    def test_d4_constant_density_is_scale_times_volume(self):
        m = AnisotropicPowerMeasure((1.0,) * 4, (1.0, 2.0, 1.5, 1.0), 0.8)
        axes = (0.5, 0.3, 0.9, 0.2)
        assert mass(m, EllipsoidNeighborhood(axes)) == pytest.approx(
            0.8 * math.pi ** 2 / 2.0 * math.prod(axes), rel=1e-14)
        assert mass(m, BoxNeighborhood(axes)) == pytest.approx(0.8 * 16.0 * math.prod(axes), rel=1e-14)
        with pytest.raises(ValueError, match="d <= 3"):  # straddling: no quadrature in d = 4
            mass(m, EllipsoidNeighborhood((1.5, 0.3, 0.9, 0.2)))

    def test_gamma_overflow_is_summed_in_logs(self):
        # Gamma(1 + s/2) overflows for s = 401; each lgamma near 200 carries
        # about 1e-13 absolute error
        m = AnisotropicPowerMeasure((400.0, 1.0), (1.0, 1.0), 1.0)
        got = mass(m, EllipsoidNeighborhood((0.5, 0.5)))
        with mpmath.workdps(40):
            half = mpmath.mpf(1) / 2
            want = (half ** 400 * mpmath.gamma(200) * half * mpmath.gamma(half)
                    / mpmath.gamma(1 + mpmath.mpf(401) / 2))
        assert type(got) is float
        assert got == pytest.approx(float(want), rel=1e-12)

    def test_a_mass_that_is_not_finite_raises(self):
        # straddling hood: the quadrature's end rule for alpha = 400 is not finite
        m = AnisotropicPowerMeasure((400.0, 1.0), (1.0, 1.0), 1.0)
        with pytest.raises(QuadratureBudgetError, match=r"EllipsoidNeighborhood\(semi_axes=\(2.0, 0.5\)\)"):
            mass(m, EllipsoidNeighborhood((2.0, 0.5)))

    def test_contained_hoods_give_positive_masses_that_sum(self):
        for d in (2, 3):
            radial = RadialPowerMeasure.with_total_mass(2.5, 1.0, 1.0, dim=d)
            aniso = AnisotropicPowerMeasure.with_total_mass((1.4, 0.7, 1.9)[:d], (1.0, 0.8, 1.2)[:d], 1.0)
            atomic = AtomicMeasure(((0.05,) * d, (0.9,) * d), (1.0, 2.0), d)
            for hood in (EllipsoidNeighborhood((0.3, 0.1, 0.2)[:d]), BoxNeighborhood((0.3, 0.1, 0.2)[:d])):
                parts = [mass(p, hood) for p in (radial, aniso, atomic)]
                assert all(v > 0.0 for v in parts)
                assert mass(SumMeasure((radial, aniso, atomic)), hood) == sum(parts)

    def test_no_numerical_search_for_kinks(self):
        # every kink comes from `extent_kinks` in closed form: the module
        # names none of the bracketed searches
        tree = ast.parse(pathlib.Path(spectral.__file__).read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {a.name for a in node.names}
        assert names & {"bisect", "bracketed_roots", "bracketed_maxima"} == set()


class TestExtentKinks:
    """`extent_kinks` against the dense scan of the nearest boundary piece in
    `reference.extent_switches`: every kink of one within 1e-12 of a kink of
    the other, on seeded hoods inside, straddling and touching the support."""

    @staticmethod
    def shapes(seed, dim, support, hood, placement):
        rng = np.random.default_rng([seed, dim])
        if support == "radial":
            radius = float(rng.uniform(0.5, 1.5))
            m = RadialPowerMeasure.with_total_mass(2.0, radius, 1.0, dim=dim)
            outer = np.full(dim, radius / math.sqrt(dim) if hood is BoxNeighborhood else radius)
        else:
            outer = rng.uniform(0.5, 1.5, size=dim)
            m = AnisotropicPowerMeasure.with_total_mass((1.5,) * dim, tuple(outer), 1.0)
        if placement == "inside":
            sizes = outer * rng.uniform(0.1, 0.95, size=dim)
        elif placement == "straddling":  # one semi-axis or face well outside, the rest inside
            sizes = outer * rng.uniform(0.3, 0.9, size=dim)
            sizes[seed % dim] = outer[seed % dim] * rng.uniform(1.3, 2.5)
        elif support == "radial" and hood is BoxNeighborhood:  # a corner on the sphere
            v = rng.uniform(0.2, 1.0, size=dim)
            sizes = m.radius * v / np.linalg.norm(v)
        else:  # one semi-axis or face on the support's edge, the rest inside
            sizes = outer * rng.uniform(0.1, 0.95, size=dim)
            sizes[seed % dim] = outer[seed % dim]
        return [hood(tuple(float(z) for z in sizes)), m]

    @staticmethod
    def assert_close(got, want):
        for a, b in ((got, want), (want, got)):
            for x in a:
                assert b and min(abs(x - y) for y in b) <= 1e-12, (got, want)

    @pytest.mark.parametrize("support", ["radial", "aniso"])
    @pytest.mark.parametrize("hood", [EllipsoidNeighborhood, BoxNeighborhood])
    @pytest.mark.parametrize("placement", ["inside", "straddling", "touching"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_dense_scan(self, support, hood, placement, seed):
        for dim in (2, 3):
            shapes = self.shapes(seed, dim, support, hood, placement)
            self.assert_close(extent_kinks(shapes), reference.extent_switches(shapes))
            if dim == 3:
                phi = np.random.default_rng(seed).uniform(0.0, math.pi / 2, size=3)
                for ph, got in zip(phi, extent_kinks(shapes, phi)):
                    self.assert_close(got, reference.extent_switches(shapes, ph))


class TestSingularIntegral:
    def test_atomic_hand_value(self):
        m = AtomicMeasure(points=((1.0, 0.0), (0.0, 2.0)), weights=(1.0, 4.0), dim=2)
        # 1 * 1^(-2) + 4 * 2^(-2) = 2
        assert singular_integral(m, 2.0) == pytest.approx(2.0, rel=1e-14)

    def test_radial_closed_form_and_divergence(self):
        m = RadialPowerMeasure(gamma=4.0, radius=1.0, scale=1.0, dim=2)
        got = singular_integral(m, 2.0)
        # density c r^(g-d), surface S_d r^(d-1), weight r^(-q)
        want, err = integrate.quad(
            lambda r: 2.0 * math.pi * r ** (4.0 - 2.0) * r ** (2.0 - 1.0) * r ** (-2.0),
            0.0,
            1.0,
        )
        assert err < 1e-12
        assert got == pytest.approx(want, rel=1e-12)
        assert math.isinf(singular_integral(RadialPowerMeasure(2.0, 1.0, 1.0, 2), 2.0))
        assert math.isinf(singular_integral(RadialPowerMeasure(1.5, 1.0, 1.0, 2), 2.0))

    def test_radial_grid_finite_iff_gamma_exceeds_q(self):
        for gamma in (0.5, 1.0, 2.0, 3.0, 4.0):
            for q in (0.25, 0.5, 1.0, 2.5):
                m = RadialPowerMeasure(gamma=gamma, radius=1.5, scale=0.8, dim=2)
                val = singular_integral(m, q)
                if gamma > q:
                    want = 0.8 * 2.0 * math.pi * 1.5 ** (gamma - q) / (gamma - q)
                    assert val == pytest.approx(want, rel=1e-12)
                else:
                    assert math.isinf(val)

    def test_radial_bits_pinned(self):
        # c S_d R^(gamma - q) / (gamma - q), evaluated left to right: pins
        # every bit of the radial values in the artifacts
        rng = np.random.default_rng(8113)
        for _ in range(200):
            m = RadialPowerMeasure.with_total_mass(float(rng.uniform(0.3, 6.0)),
                                                   float(rng.uniform(0.3, 3.0)),
                                                   float(10.0 ** rng.uniform(-3, 12)),
                                                   int(rng.integers(1, 5)))
            q = float(rng.uniform(0.2, 5.0))
            want = (m.scale * unit_sphere_area(m.dim) * m.radius ** (m.gamma - q) / (m.gamma - q)
                    if m.gamma > q else math.inf)
            assert singular_integral(m, q) == want

    def test_aniso_vs_dblquad(self):
        # the integrand x y / |x| is bounded and smooth off the origin
        m = AnisotropicPowerMeasure(alphas=(2.0, 2.0), halfwidths=(1.0, 1.0), scale=1.0)
        got = singular_integral(m, 1.0)
        want, err = integrate.dblquad(
            lambda y, x: 4.0 * x * y / math.hypot(x, y), 0.0, 1.0, 0.0, 1.0,
            epsabs=1e-13, epsrel=1e-13,
        )
        assert err < 1e-12
        assert got == pytest.approx(want, rel=1e-9)

    def test_aniso_constant_density_vs_dblquad(self):
        m = AnisotropicPowerMeasure(alphas=(1.0, 1.0), halfwidths=(1.0, 2.0), scale=0.5)
        got = singular_integral(m, 1.0)
        want, err = integrate.dblquad(
            lambda y, x: 4.0 * 0.5 / math.hypot(x, y), 0.0, 1.0, 0.0, 2.0
        )
        assert err < 1e-6
        assert got == pytest.approx(want, rel=1e-6)
        # the 1/|x| singularity keeps QUADPACK at 1e-7; over [0, a] x [0, b]
        # the integral of 1/|x| is a asinh(b/a) + b asinh(a/b)
        assert got == pytest.approx(2.0 * (math.asinh(2.0) + 2.0 * math.asinh(0.5)), rel=1e-12)

    def test_aniso_divergent(self):
        m = AnisotropicPowerMeasure(alphas=(0.5, 0.5), halfwidths=(1.0, 1.0), scale=1.0)
        assert math.isinf(singular_integral(m, 2.0))

    def test_aniso_borderline_is_infinite(self):
        # sum(alpha) = q: along each ray the density is A r^-1, a log divergence
        m = AnisotropicPowerMeasure(alphas=(0.5, 0.5), halfwidths=(1.0, 1.0), scale=1.0)
        assert singular_integral(m, 1.0) == math.inf
        assert singular_integral(AnisotropicPowerMeasure((1.5,), (2.0,), 1e-9), 1.5) == math.inf

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_aniso_finite_iff_order_exceeds_q_at_every_mass(self, dim):
        # A = 2 c prod Gamma(alpha_k/2) / Gamma(sum alpha / 2) is the angular
        # total; the support box lies between the balls of radius min b and |b|
        rng = np.random.default_rng([4417, dim])
        q = dim + 1.0
        for _ in range(40):
            alphas = tuple(rng.dirichlet(np.ones(dim)) * rng.uniform(q - 1.5, q + 0.5))
            halfwidths = tuple(rng.uniform(0.3, 2.0, size=dim))
            unit = singular_integral(
                AnisotropicPowerMeasure.with_total_mass(alphas, halfwidths, 1.0), q)
            s = sum(alphas) - q
            assert math.isfinite(unit) == (s > 0)
            for total in (1e3, 1e6, 1e12):
                m = AnisotropicPowerMeasure.with_total_mass(alphas, halfwidths, total)
                val = singular_integral(m, q)
                assert math.isfinite(val) == (s > 0)
                if s > 0:
                    assert val == pytest.approx(total * unit, rel=1e-14)
            if s > 0:
                a_tot = 2.0 * m.scale * math.prod(math.gamma(a / 2.0) for a in alphas) \
                    / math.gamma(sum(alphas) / 2.0)
                lo = a_tot * min(halfwidths) ** s / s
                hi = a_tot * math.hypot(*halfwidths) ** s / s
                assert lo * (1.0 - 1e-14) <= val <= hi * (1.0 + 1e-14)

    def test_sum_semantics(self):
        fin = RadialPowerMeasure(gamma=4.0, radius=1.0, scale=1.0, dim=2)
        div = RadialPowerMeasure(gamma=1.0, radius=1.0, scale=1.0, dim=2)
        border = AnisotropicPowerMeasure(alphas=(0.5, 0.5), halfwidths=(1.0, 1.0), scale=1.0)
        q = 1.0
        two = SumMeasure(parts=(fin, fin))
        assert singular_integral(two, q) == pytest.approx(2 * singular_integral(fin, q), rel=1e-12)
        assert math.isinf(singular_integral(SumMeasure(parts=(fin, div)), q))
        assert math.isinf(singular_integral(SumMeasure(parts=(border, div)), q))
        # the borderline part diverges, so one finite part does not rescue the sum
        assert math.isinf(singular_integral(SumMeasure(parts=(fin, border)), q))

    def test_q_must_be_positive(self):
        m = RadialPowerMeasure(gamma=2.0, radius=1.0, scale=1.0, dim=2)
        with pytest.raises(ValueError):
            singular_integral(m, 0.0)


class TestDensity:
    # the quadratures see a density only through its polar form: at x = r omega
    # it is angular_density(omega) * r^(radial_order - d) while r <= support_profile(omega)

    @staticmethod
    def density(m, x):
        x = np.asarray(x, dtype=float)
        r = float(np.linalg.norm(x))
        om = (x / r)[None, :]
        if r > float(m.support_profile(om)[0]):
            return 0.0
        return float(m.angular_density(om)[0]) * r ** (m.radial_order - x.size)

    def test_radial(self):
        m = RadialPowerMeasure(gamma=3.0, radius=1.0, scale=2.0, dim=2)
        assert self.density(m, [0.5, 0.0]) == pytest.approx(2.0 * 0.5, rel=1e-14)
        assert self.density(m, [0.3, -0.4]) == pytest.approx(2.0 * 0.5, rel=1e-14)
        assert self.density(m, [2.0, 0.0]) == 0.0

    def test_aniso(self):
        m = AnisotropicPowerMeasure(alphas=(2.0, 1.0), halfwidths=(1.0, 1.0), scale=3.0)
        assert self.density(m, [0.5, 0.5]) == pytest.approx(1.5, rel=1e-14)
        assert self.density(m, [-0.5, 0.25]) == pytest.approx(1.5, rel=1e-14)
        assert self.density(m, [1.5, 0.0]) == 0.0

    def test_aniso_d3_box_corner(self):
        # c prod |x_k|^(alpha_k - 1) up to the corner of the box, and 0 past a face
        m = AnisotropicPowerMeasure(alphas=(0.5, 1.5, 2.0), halfwidths=(1.0, 2.0, 0.5), scale=0.7)
        x = [1.0, -2.0, 0.5]
        want = 0.7 * 1.0 ** -0.5 * 2.0 ** 0.5 * 0.5 ** 1.0
        assert self.density(m, x) == pytest.approx(want, rel=1e-13)
        assert self.density(m, [0.2, 0.3, 0.51]) == 0.0


def spec_strings(dim: int):
    """Spec strings of every family at one dimension, sums of them included, each
    value written as `format_measure` writes it."""
    num = lambda lo, hi: reference.decimals(lo, hi).map("{:.12g}".format)
    nums = lambda lo, hi: st.lists(num(lo, hi), min_size=dim, max_size=dim).map(",".join)
    coordinate = st.one_of(st.just("0"), num(-3, 3), num(-3, 3).map("-".__add__))
    point = st.lists(coordinate, min_size=dim, max_size=dim).filter(
        lambda xs: any(x != "0" for x in xs)).map(",".join)
    radial = st.builds("radial:{},{},{}".format, num(-2, 1), num(-3, 3), num(-6, 6))
    aniso = st.builds("aniso:{};{};{}".format, nums(-2, 1), nums(-3, 3), num(-6, 6))
    atomic = st.lists(st.builds("({};{})".format, point, num(-6, 6)), min_size=1, max_size=4
                      ).map(lambda atoms: "atomic:[" + ",".join(atoms) + "]")
    one = st.one_of(radial, aniso, atomic)
    return st.one_of(one, st.lists(one, min_size=1, max_size=3).map(
        lambda parts: "sum:[" + "|".join(parts) + "]"))


class TestSpecStrings:
    def test_radial_round_trip(self):
        m = parse_measure("radial:2,1,1", dim=2)
        assert isinstance(m, RadialPowerMeasure)
        assert total_mass(m) == pytest.approx(1.0, rel=1e-12)
        again = parse_measure(format_measure(m), dim=2)
        assert again == m

    def test_atomic_round_trip(self):
        m = parse_measure("atomic:[(1,0;1),(0,2;4)]")
        assert isinstance(m, AtomicMeasure)
        assert m.points == ((1.0, 0.0), (0.0, 2.0))
        assert parse_measure(format_measure(m)) == m

    def test_aniso_and_sum_round_trip(self):
        m = parse_measure("aniso:2,2;1,1;1")
        assert isinstance(m, AnisotropicPowerMeasure)
        assert total_mass(m) == pytest.approx(1.0, rel=1e-12)
        s = parse_measure("sum:[radial:2,1,1|atomic:[(1,1;2)]]")
        assert isinstance(s, SumMeasure)
        assert total_mass(s) == pytest.approx(3.0, rel=1e-12)
        assert parse_measure(format_measure(s)) == s

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.one_of(*(st.tuples(st.just(d), spec_strings(d)) for d in (2, 3))))
    def test_formatted_specs_are_fixed_points(self, dim_spec):
        # a total mass is read into a density scale and recomputed from it;
        # written to 12 digits it must come back as the very same text
        dim, spec = dim_spec
        assert format_measure(parse_measure(spec, dim=dim)) == spec

    def test_split_top_ignores_nested_separators(self):
        assert split_top("(1,2),[3,(4,5)],6", ",") == ["(1,2)", "[3,(4,5)]", "6"]
        assert split_top("radial:2,1,1|atomic:[(1,1;2)]", "|") == [
            "radial:2,1,1", "atomic:[(1,1;2)]"]
        assert split_top("", ",") == [""]

    def test_with_total_mass_never_underflows_to_zero(self):
        # each factor of the unit-scale mass is finite, their product is not:
        # a scale of 1/inf = 0 would silently be the zero measure
        with pytest.raises(ValueError, match="floating-point range"):
            AnisotropicPowerMeasure.with_total_mass((2.0, 2.0), (1e100, 1e100), 1.0)
        assert AnisotropicPowerMeasure.with_total_mass((2.0, 2.0), (1e100, 1e100), 0.0).scale == 0.0

    def test_errors_are_loud(self):
        with pytest.raises(ValueError, match="gamma must be positive"):
            parse_measure("radial:-1,1,1")
        with pytest.raises(ValueError, match="radial"):
            parse_measure("radial:1,2")
        with pytest.raises(ValueError, match="atom"):
            parse_measure("atomic:[(1,0)]")
        with pytest.raises(ValueError, match="aniso"):
            parse_measure("aniso:1,1;1,1")
        with pytest.raises(ValueError, match="unknown measure spec"):
            parse_measure("gauss:1")


@pytest.mark.parametrize("make, message", [
    (lambda: RadialPowerMeasure(0.0, 1.0, 1.0, 2), "gamma must be positive"),
    (lambda: RadialPowerMeasure(1.0, 0.0, 1.0, 2), "radius must be positive"),
    (lambda: RadialPowerMeasure(1.0, 1.0, -1.0, 2), "scale must be nonnegative"),
    (lambda: RadialPowerMeasure.with_total_mass(-1.0, 1.0, 1.0, 2),
     "gamma and radius must be positive"),
    (lambda: RadialPowerMeasure.with_total_mass(1.0, 0.0, 1.0, 2),
     "gamma and radius must be positive"),
    (lambda: RadialPowerMeasure.with_total_mass(1.0, 1.0, -1.0, 2), "scale must be nonnegative"),
    (lambda: AnisotropicPowerMeasure((1.0, 1.0), (1.0,), 1.0),
     "alphas and halfwidths must share a dimension"),
    (lambda: AnisotropicPowerMeasure((1.0, 0.0), (1.0, 1.0), 1.0), "every alpha must be positive"),
    (lambda: AnisotropicPowerMeasure((1.0, 1.0), (1.0, -1.0), 1.0),
     "every box halfwidth must be positive"),
    (lambda: AnisotropicPowerMeasure((1.0, 1.0), (1.0, 1.0), -1.0), "scale must be nonnegative"),
    (lambda: SumMeasure(()), "sum measure needs at least one part"),
    (lambda: SumMeasure((RadialPowerMeasure(1.0, 1.0, 1.0, 2),
                         RadialPowerMeasure(1.0, 1.0, 1.0, 3))),
     "sum parts disagree on dimension: [2, 3]"),
    (lambda: AtomicMeasure(((1.0, 0.0),), (1.0, 2.0), 2), "points and weights must pair up"),
    (lambda: EllipsoidNeighborhood.from_inverse([1.0, 0.0]),
     "t must be positive in every coordinate"),
    (lambda: parse_measure("atomic:(1,0;1)"),
     "bad atomic spec 'atomic:(1,0;1)': expected atomic:[(x;w),...]"),
    (lambda: parse_measure("atomic:[1,0;1]"), "bad atom '1' in 'atomic:[1,0;1]'"),
    (lambda: parse_measure("aniso:1,x;1,1;1"),
     "bad aniso spec 'aniso:1,x;1,1;1': fields must be numbers"),
    (lambda: parse_measure("sum:radial:2,1,1"),
     "bad sum spec 'sum:radial:2,1,1': expected sum:[spec|spec|...]"),
], ids=["radial-gamma", "radial-radius", "radial-scale", "total-mass-gamma", "total-mass-radius",
        "total-mass-scale", "aniso-lengths", "aniso-alpha", "aniso-halfwidth", "aniso-scale",
        "sum-empty", "sum-dimensions", "atomic-unpaired", "ellipsoid-from-inverse",
        "spec-atomic-brackets", "spec-atom-parentheses", "spec-aniso-number",
        "spec-sum-brackets"])
def test_bad_input_is_refused(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message
