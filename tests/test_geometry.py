"""Convex body geometry: closed forms against brute-force oracles.

Frozen oracle values are derived before the assertions that use them:
support and extremal points by dense sampling of the boundary, curvature
by finite differences of the boundary normal map.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from ergrates.geometry import (
    Ball,
    Cube,
    Ellipsoid,
    extremal_points,
    format_body,
    gaussian_curvature,
    is_strictly_convex,
    parse_body,
    support,
    unit_sphere_area,
    volume,
    width,
)

RNG = np.random.default_rng(41001)


def random_unit(d, rng=RNG):
    while True:
        v = rng.normal(size=d)
        n = np.linalg.norm(v)
        if n > 1e-6:
            return v / n


def boundary_sample_ellipsoid(axes, n=200_000, rng=None):
    """Dense boundary sample; the support oracle maximizes (p, eta) over it."""
    rng = rng or np.random.default_rng(555)
    d = len(axes)
    u = rng.normal(size=(n, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return u * np.asarray(axes)[None, :]


class TestSupport:
    def test_ball_is_radius(self):
        b = Ball(2.5)
        for _ in range(20):
            assert support(b, random_unit(2)) == pytest.approx(2.5, rel=1e-12)

    def test_ellipsoid_closed_form_vs_sampling(self):
        e = Ellipsoid((2.0, 1.0))
        pts = boundary_sample_ellipsoid((2.0, 1.0))
        for _ in range(10):
            eta = random_unit(2)
            sampled = float(np.max(pts @ eta))
            # sampling is an underestimate; closed form must sit just above
            assert support(e, eta) >= sampled - 1e-12
            assert support(e, eta) == pytest.approx(sampled, rel=1e-4)

    def test_worked_value(self):
        # h((1,1)/sqrt2) = sqrt((4+1)/2) for semi-axes (2,1)
        eta = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert support(Ellipsoid((2.0, 1.0)), eta) == pytest.approx(
            math.sqrt(2.5), rel=1e-14
        )

    def test_cube_positive_part_sum(self):
        c = Cube(2)
        assert support(c, np.array([1.0, 0.0])) == pytest.approx(1.0)
        assert support(c, np.array([-1.0, 0.0])) == pytest.approx(0.0, abs=1e-15)
        eta = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert support(c, eta) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_dim3(self):
        e = Ellipsoid((3.0, 2.0, 1.0))
        eta = random_unit(3)
        closed = math.sqrt(sum((a * v) ** 2 for a, v in zip((3, 2, 1), eta)))
        assert support(e, eta) == pytest.approx(closed, rel=1e-13)


class TestExtremalPoints:
    def test_frozen_ellipse_value(self):
        # closed form (a_k^2 eta_k)/h at eta=(1,1)/sqrt2, axes (2,1):
        # (4,1)/sqrt5 -- confirmed on the boundary, reproduces the support
        eta = np.array([1.0, 1.0]) / math.sqrt(2.0)
        xp, xm = extremal_points(Ellipsoid((2.0, 1.0)), eta)
        want = np.array([4.0, 1.0]) / math.sqrt(5.0)
        np.testing.assert_allclose(xp, want, rtol=1e-13)
        np.testing.assert_allclose(xm, -want, rtol=1e-13)

    def test_maximizes_functional_on_dense_sample(self):
        e = Ellipsoid((2.0, 1.0))
        pts = boundary_sample_ellipsoid((2.0, 1.0))
        for _ in range(10):
            eta = random_unit(2)
            xp, xm = extremal_points(e, eta)
            assert float(xp @ eta) >= float(np.max(pts @ eta)) - 1e-12
            assert float(xm @ eta) <= float(np.min(pts @ eta)) + 1e-12

    def test_on_boundary_and_support_consistency(self):
        for axes in [(2.0, 1.0), (1.0, 3.0, 0.5)]:
            e = Ellipsoid(axes)
            eta = random_unit(len(axes))
            xp, _ = extremal_points(e, eta)
            assert float(np.sum((xp / np.asarray(axes)) ** 2)) == pytest.approx(1.0, rel=1e-12)
            assert float(xp @ eta) == pytest.approx(support(e, eta), rel=1e-12)

    def test_ball_is_radial(self):
        eta = random_unit(2)
        xp, xm = extremal_points(Ball(1.5), eta)
        np.testing.assert_allclose(xp, 1.5 * eta, rtol=1e-13)
        np.testing.assert_allclose(xm, -1.5 * eta, rtol=1e-13)

    def test_cube_rejected(self):
        with pytest.raises(ValueError, match="not unique"):
            extremal_points(Cube(2), np.array([1.0, 0.0]))


def curvature_fd_oracle_ellipse(axes, theta, h=1e-5):
    """Plane-curve curvature |x'y'' - y'x''| / |(x',y')|^3 at parameter theta."""
    a, b = axes

    def g(t):
        return np.array([a * math.cos(t), b * math.sin(t)])

    d1 = (g(theta + h) - g(theta - h)) / (2 * h)
    d2 = (g(theta + h) - 2 * g(theta) + g(theta - h)) / h**2
    return abs(d1[0] * d2[1] - d1[1] * d2[0]) / np.linalg.norm(d1) ** 3


class TestCurvature:
    def test_ball_closed_form(self):
        # kappa = R^(1-d)
        assert gaussian_curvature(Ball(2.0), np.array([2.0, 0.0])) == pytest.approx(0.5)
        p = 3.0 * random_unit(3)
        assert gaussian_curvature(Ball(3.0, dim=3), p) == pytest.approx(1.0 / 9.0, rel=1e-10)

    def test_ellipse_axis_endpoints(self):
        e = Ellipsoid((2.0, 1.0))
        # a/b^2 at the major axis end, b/a^2 at the minor
        assert gaussian_curvature(e, np.array([2.0, 0.0])) == pytest.approx(2.0, rel=1e-12)
        assert gaussian_curvature(e, np.array([0.0, 1.0])) == pytest.approx(0.25, rel=1e-12)

    def test_against_finite_differences(self):
        e = Ellipsoid((2.0, 1.0))
        for theta in np.linspace(0.1, 2 * math.pi, 9):
            p = np.array([2.0 * math.cos(theta), math.sin(theta)])
            assert gaussian_curvature(e, p) == pytest.approx(
                curvature_fd_oracle_ellipse((2.0, 1.0), theta), rel=1e-5
            )

    def test_off_boundary_rejected(self):
        with pytest.raises(ValueError):
            gaussian_curvature(Ball(1.0), np.array([0.5, 0.0]))

    def test_cube_rejected(self):
        with pytest.raises(ValueError):
            gaussian_curvature(Cube(2), np.array([1.0, 0.5]))


class TestWidthAndVolume:
    def test_width_is_support_sum(self):
        for body in [Ball(1.5), Ellipsoid((2.0, 1.0)), Cube(2)]:
            for _ in range(10):
                eta = random_unit(2)
                assert width(body, eta) == pytest.approx(
                    support(body, eta) + support(body, -eta), rel=1e-12, abs=1e-12
                )

    def test_ball_width(self):
        assert width(Ball(1.0), np.array([0.0, 1.0])) == pytest.approx(2.0)

    def test_volumes(self):
        assert volume(Ball(1.0)) == pytest.approx(math.pi)
        assert volume(Ball(1.0, dim=3)) == pytest.approx(4 * math.pi / 3)
        assert volume(Ellipsoid((2.0, 1.0))) == pytest.approx(2 * math.pi)
        assert volume(Cube(3)) == pytest.approx(1.0)

    def test_sphere_area(self):
        assert unit_sphere_area(2) == pytest.approx(2 * math.pi)
        assert unit_sphere_area(3) == pytest.approx(4 * math.pi)
        assert unit_sphere_area(1) == pytest.approx(2.0)


class TestValidationAndParsing:
    def test_strict_convexity_flags(self):
        assert is_strictly_convex(Ball(1.0))
        assert is_strictly_convex(Ellipsoid((2.0, 1.0)))
        assert not is_strictly_convex(Cube(2))

    def test_bad_bodies(self):
        with pytest.raises(ValueError):
            Ball(-1.0)
        with pytest.raises(ValueError):
            Ellipsoid((1.0, 0.0))
        with pytest.raises(ValueError):
            Ball(1.0, dim=7)

    def test_nonunit_direction_rejected(self):
        with pytest.raises(ValueError):
            support(Ball(1.0), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("spec,want", [
        ("ball:1", Ball(1.0)),
        ("ball:2.5", Ball(2.5)),
        ("ellipsoid:2,1", Ellipsoid((2.0, 1.0))),
        ("cube", Cube(2)),
    ])
    def test_parse_roundtrip(self, spec, want):
        body = parse_body(spec, dim=2)
        assert body == want
        assert parse_body(format_body(body), dim=2) == body

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.one_of(
        st.builds(Ball, reference.decimals(-20, 20), st.integers(1, 4)),
        st.builds(Ellipsoid, st.lists(reference.decimals(-20, 20), min_size=2, max_size=4)
                  .map(tuple)),
    ))
    def test_format_then_parse_is_identity(self, body):
        assert parse_body(format_body(body), dim=body.dim) == body

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_body("pyramid:1", dim=2)
        with pytest.raises(ValueError):
            parse_body("ball:-2", dim=2)


@pytest.mark.parametrize("spec, message", [
    ("ball:x", "bad ball spec 'ball:x': radius must be a number"),
    ("ellipsoid:1,x", "bad ellipsoid spec 'ellipsoid:1,x': axes must be numbers"),
    ("ellipsoid:1", "bad ellipsoid spec 'ellipsoid:1': need at least two axes"),
], ids=["ball-number", "ellipsoid-number", "ellipsoid-one-axis"])
def test_bad_body_spec_is_refused(spec, message):
    with pytest.raises(ValueError) as err:
        parse_body(spec, dim=2)
    assert str(err.value) == message
