"""Decay integrals and rate criteria.

Oracles: QUADPACK on the polar reduction of I(t) with scipy's own Bessel
evaluations (independent of the panel rules and the profile code under
test), the distribution-function route against the quadrature route, the
exact Weber-Schafheitlin large-t constant of radial measures on balls,
a per-direction panel rule against the cumulative tables, Gauss-Legendre-40
cells in mpmath against the panel series, scipy's quad over phi for
eccentric d = 2 decays, mpmath for the cube's radial integrals one
direction at a time, for the cube a Cartesian Si-function reference
(radial) and the separable product of 1-D QUADPACK integrals (aniso) with
the Gradshteyn-Ryzhik 3.823 limit, and synthetic ladders with known
exponents for the fitter.
"""

import hashlib
import math
import os
import re
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    decay_integral_levelform,
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
    parse_measure,
    total_mass,
)

import reference

RNG = np.random.default_rng(41005)
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(ergrates.__file__)))
# supports so large that every radial table would be over the panel budget
RADIAL_HUGE = RadialPowerMeasure.with_total_mass(2.0, 1e150, 1.0, dim=2)
ANISO_HUGE = AnisotropicPowerMeasure.with_total_mass((1.0, 1.0), (1e150, 1e150), 1.0)


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
        assert decay_integral(body, m, t) == pytest.approx(want, rel=1e-14)

    def test_weighted_sum(self):
        body = Cube(2)
        m = AtomicMeasure(points=((1.0, 0.0), (0.5, 0.5)), weights=(2.0, 3.0), dim=2)
        t = np.array([1.5, 4.0])
        want = 2.0 * float(ratio_abs_sq(body, np.array([1.5, 0.0]))[0]) + 3.0 * float(
            ratio_abs_sq(body, np.array([0.75, 2.0]))[0]
        )
        assert decay_integral(body, m, t) == pytest.approx(want, rel=1e-14)

    def test_validation(self):
        body = Ball(1.0)
        m = AtomicMeasure(points=((1.0, 0.0),), weights=(1.0,), dim=2)
        with pytest.raises(ValueError):
            decay_integral(body, m, [1.0, -1.0])


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
        want = decay_integral(body, a, t, rel_tol=1e-6) + decay_integral(body, b, t)
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

    @pytest.mark.parametrize("body", [Ball(1.0, dim=3), Ellipsoid((2.0, 1.0, 0.5)), Cube(3)],
                             ids=["ball", "ellipsoid", "cube"])
    def test_body_of_another_dimension_refused_before_any_table_read(self, body,
                                                                      monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work was done before the dimensions were checked")

        monkeypatch.setattr(rates, "_cumulative", no_work)
        monkeypatch.setattr(rates, "_atomic_rows", no_work)
        radial = RadialPowerMeasure.with_total_mass(2.0, 1.0, 1.0, dim=2)
        atoms = AtomicMeasure(points=((1.0, 0.5),), weights=(2.0,), dim=2)
        for m in (radial, atoms, AtomicMeasure(points=(), weights=(), dim=2),
                  AnisotropicPowerMeasure.with_total_mass((0.5, 1.5), (1.0, 2.0), 1.0),
                  SumMeasure(parts=(radial, atoms))):
            with pytest.raises(ValueError, match="dimension mismatch: expected 3, got 2"):
                decay_integral(body, m, [3.0, 3.0])

    @pytest.mark.parametrize("body, m, support, panels", [
        (Ball(1.0), RADIAL_HUGE, "1e+150", "5.09e+150"),  # R t_2
        (Ellipsoid((2.0, 1.0)), RADIAL_HUGE, "1e+150", "7.64e+150"),  # R a_1 t_1
        (Ball(1.0), ANISO_HUGE, "1.41421e+150", "6.37e+150"),  # |t o b|
        (Ellipsoid((2.0, 1.0)), ANISO_HUGE, "1.41421e+150", "9.18e+150"),  # |a o t o b|
    ], ids=["ball-radial", "ellipsoid-radial", "ball-aniso", "ellipsoid-aniso"])
    def test_panel_budget_checked_before_the_level_loop(self, body, m, support, panels,
                                                        monkeypatch):
        # the largest z = rho c of any direction, over pi/4, is over the
        # budget: no angular level runs
        def no_levels(*args, **kwargs):
            raise AssertionError("the level loop ran before the panel budget was checked")

        monkeypatch.setattr(rates, "refined_orthant_integral", no_levels)
        with pytest.raises(quadrature.QuadratureBudgetError) as err:
            decay_integral(body, m, [3.0, 4.0])
        assert f"support {support} at t=[3.0, 4.0] needs {panels} panels" in str(err.value)

    @pytest.mark.parametrize("body", [Ball(1.0), Ellipsoid((2.0, 1.0))], ids=["ball", "ellipsoid"])
    def test_tiny_t_refused_without_warnings(self, body):
        # c^(-s) overflows at every direction: the first level is refused as
        # not finite, and no numpy warning escapes on the way
        m = parse_measure("radial:2.5,1,1", dim=2)
        message = re.escape("angular level 1 is not finite (nan) for t=[1e-130")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(quadrature.QuadratureBudgetError, match=message):
                decay_integral(body, m, [1e-130, 1e-130])


# aniso support boxes whose corner lies near one end of [0, pi/2], and the t
# at which their decays are checked
ECCENTRIC_BOXES = ["aniso:1.5,1.5;1,3e-3;1", "aniso:1.5,1.5;1,1e-4;1",
                   "aniso:1.5,0.7;1,1e-3;1", "aniso:1.5,0.7;1e-4,1;1"]
ECCENTRIC_BOX_T = [(10.0, 10.0), (40.0, 25.0), (100.0, 130.0)]


def hex_list(values) -> list[str]:
    return [float(v).hex() for v in values]


def _bodies(d: int):
    return (Ball(1.0, dim=d), Ellipsoid(tuple(0.5 + 0.5 * k for k in range(1, d + 1))), Cube(d))


@st.composite
def decay_rows_cases(draw):
    """(body, measure, rows, rel_tol): atomic measures of 1 to 130 atoms over
    numpy's 8-element pairwise-sum block, atomic-plus-radial sums, and grids
    of a continuous measure on a ball, an ellipsoid or a cube.  In d = 2 the
    measure is radial or aniso (its support corner a kink of the level
    loop), on 1 to 24 rows whose aspects t_2 / t_1 run from 1/40 to 40, so
    rows past aspect 8 pass boundary layers among rows that pass none and
    rows stop at different levels; in d = 3 it is radial, on 1 to 4 rows."""
    kind = draw(st.sampled_from(("atomic", "atomic", "sum", "continuous", "continuous")))
    d = (draw(st.integers(1, 3)) if kind == "atomic" else 2 if kind == "sum"
         else draw(st.sampled_from((2, 2, 3))))
    body = draw(st.sampled_from(_bodies(d)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rel_tol = 1e-5
    if kind == "continuous" and d == 2:
        n_rows = draw(st.integers(1, 24))
        p = np.exp(rng.uniform(math.log(3.0), math.log(200.0), size=n_rows))
        root = np.exp(rng.uniform(-0.5, 0.5, size=n_rows) * math.log(40.0))  # sqrt of the aspect
        rows = np.stack([p / root, p * root], axis=1)
        rel_tol = draw(st.sampled_from((1e-3, 1e-5, 1e-6)))
    elif kind == "continuous":
        rows = np.exp(rng.uniform(0.0, math.log(10.0), size=(draw(st.integers(1, 4)), d)))
        rel_tol = draw(st.sampled_from((1e-3, 1e-4)))
    else:
        n_rows = draw(st.integers(2, 3)) if kind == "sum" else draw(st.integers(1, 40))
        hi = 3.0 if kind == "atomic" else 1.5  # t up to about 1e3, or 30 for quadrature
        rows = np.exp(rng.uniform(-1.0, hi * math.log(10.0), size=(n_rows, d)))
    n = draw(st.sampled_from((1, 7, 8, 9, 130)))
    atomic = AtomicMeasure(points=tuple(map(tuple, rng.uniform(-2.0, 2.0, size=(n, d)))),
                           weights=tuple(rng.uniform(0.1, 3.0, size=n)), dim=d)
    radial = RadialPowerMeasure.with_total_mass(float(rng.uniform(1.0, 4.0)), 1.0, 1.0, dim=d)
    if kind == "continuous" and d == 2 and draw(st.booleans()):
        aniso = AnisotropicPowerMeasure.with_total_mass(
            tuple(rng.uniform(0.6, 1.8, size=2)), (1.0, float(rng.uniform(0.3, 3.0))), 1.0)
        return body, aniso, rows, rel_tol
    m = {"atomic": atomic, "sum": SumMeasure(parts=(atomic, radial)), "continuous": radial}[kind]
    return body, m, rows, rel_tol


# the rows of a ball x radial:3 grid at rel_tol 1e-6 that fail, and what each raises alone
GRID_FAILURES = {
    "A": ([1840.7587538741816, 1000.0],
          "angular refinement did not reach rel_tol=1e-06 for t=[1840.7587538741816, 1000.0]"),
    "B": ([1e6, 1e6], "radial quadrature over support 1 at t=[1000000.0, 1000000.0] needs "
                      "1.27e+06 panels, over the budget of 1048576"),
    "C": ([1e-130, 1e-130], "angular level 1 is not finite (nan) for t=[1e-130, 1e-130]"),
}


def outcome(compute):
    """The float.hex of every value compute() returns, or the type and the
    message of what it raises."""
    try:
        return hex_list(np.atleast_1d(compute()))
    except Exception as err:
        return type(err), str(err)


def one_at_a_time(body, m, rows, rel_tol):
    """decay_integral of each row alone, in row order: the first row that fails raises."""
    return [decay_integral(body, m, t, rel_tol) for t in rows]


class TestDecayRows:
    """decay_integral of rows (N, d) against N calls of one t each, and
    continuous rows against the level loop run one row at a time."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(decay_rows_cases())
    def test_rows_have_the_bits_of_single_calls(self, case):
        body, m, rows, rel_tol = case
        got = outcome(lambda: decay_integral(body, m, rows, rel_tol))
        if isinstance(got, list):
            assert isinstance(decay_integral(body, m, rows, rel_tol), np.ndarray)
            assert len(got) == len(rows)
        assert got == outcome(lambda: one_at_a_time(body, m, rows, rel_tol))

    @settings(derandomize=True, database=None, deadline=None, max_examples=120)
    @given(decay_rows_cases().filter(lambda case: not isinstance(case[1], AtomicMeasure)))
    def test_continuous_rows_have_the_bits_of_the_per_row_loop(self, case):
        # the reference level loop, one pass of g per level, run on one row
        # after another with each row's own integrand: a single t takes the
        # batch path too, so single calls alone cannot show a batch error
        body, m, rows, rel_tol = case
        got = outcome(lambda: decay_integral(body, m, rows, rel_tol))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rates, "refined_orthant_integral",
                       reference.refined_orthant_integral_rows_loop)
            assert got == outcome(lambda: decay_integral(body, m, rows, rel_tol))

    @pytest.mark.parametrize("spec", ["radial:2.5,1,1", "aniso:1.3,0.8;1,0.4;1"],
                             ids=["radial", "aniso-corner"])
    @pytest.mark.parametrize("body", _bodies(2), ids=["ball", "ellipsoid", "cube"])
    def test_a_grid_of_24_rows_is_the_per_row_loop(self, body, spec, monkeypatch):
        # 24 rows of |t| from 5 to 300 and aspects from 1/40 to 40: some pass
        # boundary layers, and they leave the loop at different levels
        m = parse_measure(spec, dim=2)
        angle = np.linspace(math.atan(1 / 40), math.atan(40), 6)
        rows = np.array([[p * math.cos(a), p * math.sin(a)]
                         for p in (5.0, 30.0, 120.0, 300.0) for a in angle])
        stops = []
        real = quadrature._orthant_integrals
        monkeypatch.setattr(quadrature, "_orthant_integrals", lambda *args: stops.append(
            sorted({r for _, r in args[-1]})) or real(*args))
        got = outcome(lambda: decay_integral(body, m, rows, 1e-8))
        passes = [sum(r in rs for rs in stops) for r in range(len(rows))]
        assert isinstance(got, list) and len(set(passes)) > 1
        monkeypatch.setattr(rates, "refined_orthant_integral",
                            reference.refined_orthant_integral_rows_loop)
        assert outcome(lambda: decay_integral(body, m, rows, 1e-8)) == got

    @pytest.mark.parametrize("body", [*_bodies(2), *_bodies(3)], ids=[
        f"{name}-{d}d" for d in (2, 3) for name in ("ball", "ellipsoid", "cube")])
    def test_rows_keep_their_bits_in_chunks_of_7(self, body, monkeypatch):
        # g takes at most _ROWS_PER_CALL directions a call, counted over all
        # rows, so a chunk cuts across rows; no bit moves
        d = body.dim
        m = RadialPowerMeasure.with_total_mass(2.2, 1.0, 1.0, dim=d)
        rows = np.array([[2.0, 3.0, 2.5], [6.0, 1.5, 4.0], [1.2, 1.1, 1.3]])[:, :d] * (10.0 / d)
        want = outcome(lambda: decay_integral(body, m, rows, 1e-3))
        monkeypatch.setattr(rates, "refined_orthant_integral",
                            reference.refined_orthant_integral_rows_loop)
        assert outcome(lambda: decay_integral(body, m, rows, 1e-3)) == want
        monkeypatch.undo()
        sizes = []
        real = quadrature._orthant_integrals

        def recorded(alphas, g, rules, order, uses):
            def counted(om, row):
                sizes.append(len(om))
                return g(om, row)
            return real(alphas, counted, rules, order, uses)

        monkeypatch.setattr(quadrature, "_orthant_integrals", recorded)
        monkeypatch.setattr(quadrature, "_ROWS_PER_CALL", 7)
        assert outcome(lambda: decay_integral(body, m, rows, 1e-3)) == want
        assert max(sizes) == 7 and isinstance(want, list)

    @pytest.mark.parametrize("spec, t_bad", [("radial:3,1,1", [1e-130, 1e-130]),
                                             ("radial:3,1,1", [1e6, 1e6])], ids=["level", "budget"])
    def test_a_grid_longer_than_one_loop_runs_its_rows_in_order(self, spec, t_bad, monkeypatch):
        # rows go through the level loop _LOOP_ROWS at a time, in row order:
        # the bits are those of single calls, and a failing row in a later
        # loop raises what it raises alone, after every row before it ran
        monkeypatch.setattr(rates, "_LOOP_ROWS", 3)
        m = parse_measure(spec, dim=2)
        rows = np.array([[3.0 + k, 40.0 / (1.0 + k)] for k in range(8)])
        loops = []
        real = rates.refined_orthant_integral
        monkeypatch.setattr(rates, "refined_orthant_integral",
                            lambda *args: loops.append(len(args[2])) or real(*args))
        assert outcome(lambda: decay_integral(Ball(1.0), m, rows)) == outcome(
            lambda: one_at_a_time(Ball(1.0), m, rows, 1e-5))
        assert loops[:3] == [3, 3, 2]
        bad = np.insert(rows, 4, t_bad, axis=0)
        want = outcome(lambda: one_at_a_time(Ball(1.0), m, bad, 1e-5))
        assert outcome(lambda: decay_integral(Ball(1.0), m, bad)) == want
        assert want[0] is quadrature.QuadratureBudgetError

    @pytest.mark.parametrize("names", ["A", "B", "C", "AB", "CA"])
    def test_a_grid_raises_the_failure_of_its_first_failing_row(self, names, monkeypatch):
        # ball x radial:3 at rel_tol 1e-6: A runs out of levels, B needs
        # 1.27e6 radial panels, C's first level is not finite; a grid raises
        # what its rows raise one at a time, in row order
        m = parse_measure("radial:3,1,1", dim=2)
        rows = [GRID_FAILURES[n][0] for n in names]
        got = outcome(lambda: decay_integral(Ball(1.0), m, rows, 1e-6))
        assert got == (quadrature.QuadratureBudgetError, GRID_FAILURES[names[0]][1])
        assert outcome(lambda: one_at_a_time(Ball(1.0), m, rows, 1e-6)) == got
        monkeypatch.setattr(rates, "refined_orthant_integral",
                            reference.refined_orthant_integral_rows_loop)
        assert outcome(lambda: decay_integral(Ball(1.0), m, rows, 1e-6)) == got

    @pytest.mark.parametrize("rows", [[[1000.0, 1300.0], [10.0, 10.0]],
                                      [[10.0, 10.0], [1000.0, 1300.0]]],
                             ids=["far-first", "near-first"])
    def test_a_kernel_overflow_names_the_first_row_that_overflows(self, rows):
        # the cube's K_{s,m} overflows at s = 200 on both rows
        m = RadialPowerMeasure.with_total_mass(200.0, 1.0, 1.0, dim=2)
        got = outcome(lambda: decay_integral(Cube(2), m, rows))
        assert got == outcome(lambda: one_at_a_time(Cube(2), m, rows, 1e-5))
        assert got[1].endswith(f"radial order 200 at t={rows[0]}")

    def test_one_t_is_a_float_and_rows_an_array(self):
        m = AtomicMeasure(points=((1.0, 0.5),), weights=(2.0,), dim=2)
        radial = RadialPowerMeasure.with_total_mass(2.0, 1.0, 1.0, dim=2)
        for measure in (m, radial, SumMeasure(parts=(m, radial))):
            assert type(decay_integral(Ball(1.0), measure, [3.0, 4.0])) is float
            rows = decay_integral(Ball(1.0), measure, [[3.0, 4.0]])
            assert type(rows) is np.ndarray and rows.shape == (1,)
        assert type(decay_integral(Ball(1.0), m, [3.0, 4.0])) is float
        assert decay_integral(Ball(1.0), m, [[3.0, 4.0], [5.0, 6.0]]).shape == (2,)

    def test_empty_atomic_measure_is_zero_on_every_row(self):
        empty = AtomicMeasure(points=(), weights=(), dim=2)
        got = decay_integral(Cube(2), empty, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert type(got) is np.ndarray
        np.testing.assert_array_equal(got, np.zeros(3))
        assert decay_integral(Cube(2), empty, [1.0, 2.0]) == 0.0

    @pytest.mark.parametrize("bad", [[0.0, 2.0], [-1.0, 2.0], [math.nan, 2.0], [2.0, math.inf],
                                     [1.0, 2.0, 3.0], [1.0]])
    @pytest.mark.parametrize("measure", [
        AtomicMeasure(points=((1.0, 0.5),), weights=(2.0,), dim=2),
        RadialPowerMeasure.with_total_mass(2.0, 1.0, 1.0, dim=2),
    ], ids=["atomic", "radial"])
    def test_a_bad_row_raises_what_it_raises_alone(self, bad, measure):
        with pytest.raises(ValueError) as alone:
            decay_integral(Ball(1.0), measure, bad)
        good = [3.0, 4.0] + [5.0] * (len(bad) - 2)
        rows = [good, bad, good] if len(bad) == 2 else [bad, bad]
        with pytest.raises(ValueError, match=re.escape(str(alone.value))):
            decay_integral(Ball(1.0), measure, rows)

    def test_grid_longer_than_one_chunk(self):
        rng = np.random.default_rng(28)
        n = 130
        m = AtomicMeasure(points=tuple(map(tuple, rng.uniform(-2.0, 2.0, size=(n, 3)))),
                          weights=tuple(rng.uniform(0.1, 3.0, size=n)), dim=3)
        rows = np.exp(rng.uniform(0.0, 6.0, size=(rates._ATOMIC_CHUNK // n * 2 + 11, 3)))
        for body in (Ball(1.0, dim=3), Cube(3)):
            got = decay_integral(body, m, rows)
            assert hex_list(got) == hex_list(decay_integral(body, m, t) for t in rows)


class TestEccentricDecays:
    """d = 2 balls and ellipsoids at t of aspect up to 400: c = |omega o a o t|
    dips within k_min / k_max of one axis, and breaks graded toward it find
    the dip; an aniso support box's corner near an end leaves a thin
    segment there, and breaks graded away from the end resolve it.  scipy's
    quad over phi, split at the same graded points, is the reference."""

    @pytest.mark.parametrize("body, spec, t", [
        pytest.param(Ball(1.0), "radial:2.5,1,1", (10.0, 1000.0), id="ball-100"),
        pytest.param(Ball(1.0), "radial:2.5,1,1", (10.0, 4000.0), id="ball-400"),
        pytest.param(Ball(1.0), "radial:2.5,1,1", (1000.0, 10.0), id="ball-mirrored"),
        pytest.param(Ellipsoid((2.0, 1.0)), "radial:2.5,1,1", (10.0, 1000.0), id="ellipsoid-100"),
        pytest.param(Ball(1.0), "aniso:1.5,0.7;1,1;1", (10.0, 1000.0), id="ball-aniso-100"),
    ] + [
        pytest.param(body, spec, t, id=f"{name}-{spec[6:]}-{t[0]:g},{t[1]:g}")
        for name, body in (("ball", Ball(1.0)), ("ellipsoid", Ellipsoid((2.0, 1.0))))
        for spec in ECCENTRIC_BOXES for t in ECCENTRIC_BOX_T
        # scipy's quad cannot confirm its own error estimate on this one
        if (name, spec, t) != ("ellipsoid", "aniso:1.5,0.7;1,1e-3;1", (100.0, 130.0))
    ])
    def test_matches_polar_quad_with_graded_breaks(self, body, spec, t):
        m = parse_measure(spec, dim=2)
        k = body.semi_axes * np.array(t)
        layers = (min(k) / max(k), math.inf) if k[0] < k[1] else (math.inf, min(k) / max(k))
        breaks = quadrature._end_layers(*layers, 2.0, math.pi / 4)
        if isinstance(m, AnisotropicPowerMeasure):
            # the breaks the level loop grades from the support box's corner
            corner = math.atan2(m.halfwidths[1], m.halfwidths[0])
            breaks += set(quadrature._graded_kinks([corner])) - {
                0.0, corner, math.pi / 2}
        want = reference.polar_decay_2d(body, m, t, breaks)
        got = decay_integral(body, m, t, rel_tol=1e-9)
        assert abs(got - want) <= 1e-8 * want

    @pytest.mark.parametrize("body", [Ball(1.0), Cube(2)], ids=["ball", "cube"])
    def test_box_of_aspect_1e17_finishes(self, body):
        # the corner of halfwidths (1, 1e-17) lies 1e-17 above phi = 0 and is
        # graded from there; that of (1e-17, 1) rounds to pi/2, where no
        # float azimuth resolves it: the levels refuse it, nothing is graded
        # from a zero gap
        m = AnisotropicPowerMeasure.with_total_mass((1.5, 1.5), (1.0, 1e-17), 1.0)
        if isinstance(body, Cube):
            want = m.scale * math.prod(2.0 * sinc_moment(10.0, 1.5, h) for h in m.halfwidths)
        else:
            want = reference.polar_decay_2d(
                body, m, (10.0, 10.0), quadrature._graded_kinks([1e-17])[1:-1])
        assert decay_integral(body, m, [10.0, 10.0], 1e-9) == pytest.approx(want, rel=1e-12)
        mirrored = AnisotropicPowerMeasure.with_total_mass((1.5, 1.5), (1e-17, 1.0), 1.0)
        with pytest.raises(quadrature.QuadratureBudgetError, match="angular refinement"):
            decay_integral(body, mirrored, [10.0, 10.0], 1e-9)

    def test_no_grading_below_the_aspect(self, monkeypatch):
        # at k_min / k_max >= 1/8 no layer is passed; below it, k_min / k_max
        # next to phi = 0, where k is small
        seen = []
        real = rates.refined_orthant_integral
        monkeypatch.setattr(rates, "refined_orthant_integral",
                            lambda alphas, g, layers, *rest: seen.append(layers)
                            or real(alphas, g, layers, *rest))
        m = RadialPowerMeasure.with_total_mass(2.5, 1.0, 1.0, dim=2)
        decay_integral(Ellipsoid((2.0, 1.0)), m, [10.0, 160.0])  # k = (20, 160)
        decay_integral(Ellipsoid((2.0, 1.0)), m, [10.0, 161.0])
        assert seen == [[(math.inf, math.inf)], [(20.0 / 161.0, math.inf)]]
        # 1/8.05: pi/4 > 2^j / 8.05 for j < 3
        assert len(quadrature._end_layers(*seen[1][0], 2.0, math.pi / 4)) == 3


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
    """The G_s table against a per-direction panel rule, and its history."""

    @pytest.mark.parametrize("d, s_values, rel", [
        (1, (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5), 1e-12),
        (2, (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5), 1e-12),
        (3, (1.5, 2.0, 2.5, 3.0, 3.5), 1e-12),
        (3, (0.5, 1.0), 1e-12),
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
                table = c ** (-s) * rates._cumulative("ball", d, [s], zs)[0]
                for z, got in zip(zs, table):
                    want = reference.panel_radial(body, v, z / c, s)
                    worst = max(worst, abs(got - want) / want)
        assert worst <= rel

    @staticmethod
    def cold(monkeypatch):
        """No table and no panel series built yet."""
        monkeypatch.setattr(rates, "_TABLES", {})
        monkeypatch.setattr(rates, "_SERIES", {})

    def test_values_independent_of_table_growth(self, monkeypatch):
        zs = np.array([0.3, 0.9, 7.5, 100.25, 2000.0])
        for kind, key in (("ball", 2), ("cube", 2)):
            self.cold(monkeypatch)
            before = rates._cumulative(kind, key, [2.5], zs)
            small_table = rates._TABLES[(kind, key, 2.5)].copy()
            rates._cumulative(kind, key, [2.5], np.array([3.0e5]))
            grown = rates._TABLES[(kind, key, 2.5)]
            assert grown.size > 100 * small_table.size
            assert np.array_equal(grown[:small_table.size], small_table)
            assert np.array_equal(rates._cumulative(kind, key, [2.5], zs), before)
            # and a table built large in one go holds the same entries and reads
            self.cold(monkeypatch)
            rates._cumulative(kind, key, [2.5], np.array([3.0e5]))
            assert np.array_equal(rates._TABLES[(kind, key, 2.5)], grown)
            assert np.array_equal(rates._cumulative(kind, key, [2.5], zs), before)

    def test_decay_integral_independent_of_history_and_process(self, monkeypatch):
        self.cold(monkeypatch)
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


# s from 0.5 to 5, and near-axis orders s + 2j up to s + 12
_SERIES_ORDERS = (0.5, 1.0, 1.5, 2.5, 3.0, 3.5, 5.0, 6.0, 10.0, 14.0, 17.0)


def _panel_series(kind, key, s, ks):
    """The stored column of each panel in ks: its Chebyshev series and table entry."""
    store = rates._SERIES[(kind, key)]
    return store.coef[:, store.index[s][ks]].T


class TestPanelSeries:
    """Reads past the first panel: a table entry plus the panel's Chebyshev
    series, against the Gauss-Legendre-8 cell it replaced and a GL-40 cell
    in mpmath, and the store's history."""

    @pytest.mark.parametrize("kind, key", [("ball", 2), ("ball", 3), ("cube", 1), ("cube", 2)])
    def test_read_within_twice_the_gauss_cell(self, kind, key):
        # every panel k <= 32, next to its right edge (the whole panel) and
        # at a seeded point, and seeded z up to 5000; e = |read - ref| /
        # max(|ref|, int_panel |f|)
        rng = np.random.default_rng(2606 + 10 * key + len(kind))
        q = rates._QUARTER
        k = np.arange(1, 33)
        z = np.concatenate([q * (k + 1.0 - 1e-9), q * (k + rng.random(32)),
                            np.exp(rng.uniform(math.log(33 * q), math.log(5000.0), 8))])
        panel = np.floor(z / q)
        for s in _SERIES_ORDERS:
            ref, scale = reference.exact_cell(kind, key, s, z)
            scale = np.maximum(np.abs(ref), scale)
            e_read = np.abs(rates._cumulative(kind, key, [s], z)[0] - ref) / scale
            e_gauss = np.abs(reference.gauss_cell(kind, key, s, z) - ref) / scale
            # both can be exact to the last bit: twice GL-8, or a rounding unit
            assert e_read.max() <= 2.0 * max(e_gauss.max(), 2.0 ** -52), s
            assert e_read[panel >= 4].max() <= 4e-15, s

    @pytest.mark.parametrize("kind, key", [("ball", 2), ("cube", 2)])
    def test_store_is_a_function_of_the_panel(self, monkeypatch, kind, key):
        # panels built one read at a time, in one read, in reverse order, and
        # with another order's panels in between hold the same series
        ks = np.array([1, 2, 3, 7, 40, 41, 900, 3000])
        z = rates._QUARTER * (ks + 0.5)
        one_by_one = [[k] for k in ks]
        series = []
        for plan, other in ((one_by_one, None), ([ks], None), (one_by_one[::-1], None),
                            ([ks[::2], ks[1::2]], 3.5)):
            monkeypatch.setattr(rates, "_SERIES", {})
            for part in plan:
                if other is not None:
                    rates._cumulative(kind, key, [other], rates._QUARTER * (np.asarray(part) + 0.3))
                rates._cumulative(kind, key, [2.5], rates._QUARTER * (np.asarray(part) + 0.5))
            series.append(_panel_series(kind, key, 2.5, ks))
        assert all(np.array_equal(series[0], other) for other in series[1:])
        assert np.array_equal(rates._cumulative(kind, key, [2.5], z),
                              rates._cumulative(kind, key, [2.5], z[::-1])[:, ::-1])
        code = ("import hashlib, numpy as np\n"
                "from ergrates import rates\n"
                f"ks = np.array({ks.tolist()})\n"
                f"rates._cumulative({kind!r}, {key}, [2.5], rates._QUARTER * (ks + 0.5))\n"
                f"store = rates._SERIES[({kind!r}, {key})]\n"
                "series = store.coef[:, store.index[2.5][ks]].T\n"
                "print(hashlib.sha256(np.ascontiguousarray(series).tobytes()).hexdigest())\n")
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        digest = hashlib.sha256(np.ascontiguousarray(series[0]).tobytes()).hexdigest()
        assert res.stdout.strip() == digest, res.stderr

    def test_warm_reads_evaluate_no_kernel(self, monkeypatch):
        z = np.array([0.8, 3.7, 42.0, 613.5, 5000.0])
        for kind, key in (("ball", 2), ("ball", 3), ("cube", 2)):
            want = rates._cumulative(kind, key, [0.5, 2.5], z)

            def no_kernel(*args, **kwargs):
                raise AssertionError("a warm read past the first panel evaluated the kernel")

            with monkeypatch.context() as patch:
                for name in ("_smooth_factor", "_cosine_remainder", "unit_ball_profile",
                             "_table_integrand"):
                    patch.setattr(rates, name, no_kernel)
                assert np.array_equal(rates._cumulative(kind, key, [0.5, 2.5], z), want)


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
                want = reference.panel_radial(Cube(d), om * t, rho, s)
                worst[d] = max(worst[d], abs(got - want) / want)
        assert worst[2] <= 1e-11 and worst[3] <= 1e-9

    @pytest.mark.parametrize("s", [0.5, 2.0, 3.5])
    def test_orders_in_one_call_match_one_call_each(self, s):
        # below pi/4 (a Jacobi rule per order), on a quarter period, and beyond
        zs = np.array([0.02, 0.5, math.pi / 4, 1.0, 3.7, 42.0, 613.5])
        orders = [s + 2.0 * n for n in range(rates._SINC2_ORDERS)]
        for key in (1, 2):
            together = rates._cumulative("cube", key, orders, zs)
            for row, s_n in zip(together, orders):
                assert np.array_equal(row, rates._cumulative("cube", key, [s_n], zs)[0])

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 3.5])
    def test_rows_independent_of_their_batch(self, s):
        # every row group, and a factor exactly at the series threshold
        edge = rates._SMALL_AXIS
        rows = {2: [(40.0, 70.0), (3.0, 5.0), (8.0, 300.0), (0.3, 70.0), (0.002, 9.0),
                    (70.0, 0.4), (25.0, 1e-4), (edge, 37.0), (37.0, edge), (0.5, 0.7)],
                3: [(40.0, 70.0, 9.0), (3.0, 5.0, 2.0), (0.3, 70.0, 9.0), (40.0, 1e-4, 9.0),
                    (40.0, 70.0, 0.6), (0.3, 0.2, 9.0), (1e-4, 70.0, 0.5), (0.3, 0.2, 0.6),
                    (1e-4, 1e-3, 0.9), (edge, 5.0, 0.2)]}
        rng = np.random.default_rng(42)
        for d, base in rows.items():
            # a_k rho per row, several rows per group so that no group is a single row
            x = np.array(base * 5)[rng.permutation(5 * len(base))]
            x = np.where(x == edge, edge, x * rng.uniform(0.9, 1.1, x.shape))
            # powers of two keep a_k rho exactly at the threshold
            rho = rng.choice([0.5, 1.0, 2.0], size=x.shape[0])
            a = x / rho[:, None]
            assert np.count_nonzero(a * rho[:, None] == edge) == 5 * sum(r.count(edge) for r in base)
            batch = rates._cube_radial(a, rho, s)
            single = [rates._cube_radial(a[i:i + 1], rho[i:i + 1], s)[0] for i in range(rho.size)]
            assert np.array_equal(batch, single)

    @staticmethod
    def table_calls_per_integrand_call(monkeypatch, t, rel_tol) -> float:
        calls = {"integrand": 0, "table": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(rates, "_cube_radial", counted("integrand", rates._cube_radial))
        monkeypatch.setattr(rates, "_cumulative", counted("table", rates._cumulative))
        m = RadialPowerMeasure.with_total_mass(2.0, 1.0, 1.0, dim=len(t))
        decay_integral(Cube(len(t)), m, t, rel_tol=rel_tol)
        # the first call holds levels 1 and 2, each later one a level (in
        # d = 3, a chunk of rows of them)
        assert calls["integrand"] >= 2
        return calls["table"] / calls["integrand"]

    def test_one_table_call_per_row_group(self, monkeypatch):
        # rows are grouped by how many factors are near their axis, and a
        # group's 13 series orders share one table call, so a d = 2 integrand
        # call makes at most 2: full rows and rows near either axis
        assert self.table_calls_per_integrand_call(monkeypatch, [100.0, 130.0], 1e-14) <= 2

    def test_one_table_call_per_row_group_3d(self, monkeypatch):
        # at most one per count of near-axis factors below 3
        assert self.table_calls_per_integrand_call(monkeypatch, [100.0, 130.0, 170.0], 1e-6) <= 3

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 2.2, 3.0, 3.5, 5.0])
    @pytest.mark.parametrize("d", [2, 3])
    def test_grouped_kernel_is_the_mask_loop(self, d, s):
        # rows mixing 0 to d small factors (a_k rho < _SMALL_AXIS), some
        # exactly at it, and frequencies below pi/4 (a_1 = a_2 nearly, and
        # exactly), against one group per mask and one order at a time
        rng = np.random.default_rng(2506 + 10 * d)
        n = 300
        x = 10.0 ** rng.uniform(-5.0, 3.0, size=(n, d))
        x[rng.random((n, d)) < 0.08] = rates._SMALL_AXIS
        x[:20, 1] = x[:20, 0] * (1.0 + rng.uniform(-1e-3, 1e-3, 20))
        x[20:30, 1] = x[20:30, 0]
        rho = rng.choice([0.5, 1.0, 2.0], size=n)  # keeps a_k rho exactly at the threshold
        a = x / rho[:, None]
        counts = np.count_nonzero(a * rho[:, None] < rates._SMALL_AXIS, axis=1)
        assert set(counts.tolist()) == set(range(d + 1))
        assert np.any(a * rho[:, None] == rates._SMALL_AXIS)
        both_full = np.all(x[:30, :2] >= rates._SMALL_AXIS, axis=1)
        gap = 2.0 * np.abs(x[:30, 0] - x[:30, 1])  # z of the frequency b_1 - b_2
        assert np.any(both_full & (gap > 0.0) & (gap < math.pi / 4))  # a first-panel rule
        assert np.any(both_full & (gap == 0.0))  # a vanishing frequency
        with np.errstate(over="ignore", invalid="ignore"):
            got = rates._cube_radial(a, rho, s)
            want = reference.cube_radial_loop(a, rho, s)
            # small arrays too: numpy's power rounds apart on those
            one = [rates._cube_radial(a[i:i + 1], rho[i:i + 1], s)[0] for i in range(0, n, 5)]
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(one, want[::5], equal_nan=True)

    @pytest.mark.parametrize("n", [-1, 0, 1, 2, 3])
    def test_cosine_remainder_is_the_masked_one(self, n):
        # every Taylor order of d <= 3, from far below _SERIES_TOP to the
        # panel budget, in arrays of every length up to 17 and a long one
        u = np.concatenate([np.geomspace(1e-8, 1e6, 4001),
                            rates._SERIES_TOP * (1.0 + np.array([-1e-16, 0.0, 1e-15]))])
        assert np.array_equal(rates._cosine_remainder(n, u),
                              reference.cosine_remainder_masked(n, u))
        rng = np.random.default_rng(n + 2)
        for size in range(1, 18):
            v = 10.0 ** rng.uniform(-8.0, 6.0, size=(size, 8))
            assert np.array_equal(rates._cosine_remainder(n, v),
                                  reference.cosine_remainder_masked(n, v))

    def test_no_floating_point_warning(self):
        # the closed form runs on the near nodes too, under its own errstate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            before = np.geterr()
            for n in (-1, 0, 1, 2):
                tiny = rates._cosine_remainder(n, np.array([5e-324, 1e-300, 1e-150, 1e-8]))
                big = rates._cosine_remainder(n, np.array([1e5, 1e6]))
                assert np.all(np.isfinite(tiny)) and np.all(np.isfinite(big))
                rates._cosine_remainder(n, np.array([1e100, 1e300]))
            assert np.geterr() == before
            for d, t in ((2, [100.0, 130.0]), (3, [30.0, 45.0, 60.0])):
                m = RadialPowerMeasure.with_total_mass(2.0, 1.0, 1.0, dim=d)
                assert decay_integral(Cube(d), m, t, rel_tol=1e-5) > 0.0


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

    @pytest.mark.parametrize("spec, t, rel_tol, bound", [
        pytest.param("aniso:1.5,0.7;1,1;1", t, 1e-5, 1e-6, id=f"t{i}")
        for i, t in enumerate([(10.0, 13.0), (100.0, 130.0), (700.0, 910.0)])
    ] + [
        pytest.param(spec, t, 1e-9, 1e-12, id=f"{spec[6:]}-{t[0]:g},{t[1]:g}")
        for spec in ECCENTRIC_BOXES for t in ECCENTRIC_BOX_T
    ])
    def test_aniso_matches_separable_product(self, spec, t, rel_tol, bound):
        # damping and density are both products over the axes, so
        # I(t) = c prod_k 2 int_0^(h_k) sinc^2(t_k x / 2) x^(alpha_k - 1) dx
        m = parse_measure(spec, dim=2)
        want = m.scale * math.prod(2.0 * sinc_moment(tk, a, h)
                                   for tk, a, h in zip(t, m.alphas, m.halfwidths))
        assert decay_integral(Cube(2), m, list(t), rel_tol) == pytest.approx(want, rel=bound)

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

    def test_ball_of_another_dimension_refused(self):
        # the measure's dimension once set d, and the 2-d value came back
        m = RadialPowerMeasure.with_total_mass(2.0, 1.0, 1.0, dim=2)
        with pytest.raises(ValueError, match="dimension mismatch: expected 3, got 2"):
            decay_integral_levelform(Ball(1.0, dim=3), m, [3.0, 4.0])


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

    @pytest.mark.parametrize("call, message", [
        (lambda: parse_phi("mono:1,x"), "bad phi spec 'mono:1,x': exponents must be numbers"),
        (lambda: fit_rate(p_ladder(10.0, 1000.0), np.ones(3)),
         "p_values and i_values must be 1-D and paired"),
    ], ids=["phi-mono-number", "ladder-unpaired"])
    def test_bad_input_is_refused(self, call, message):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message

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
        dirs = reference.sphere_sample(sec, 2, n_per_axis=9)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
        corner = np.array([1.0, 2.0]) / math.sqrt(5.0)
        assert np.min(np.linalg.norm(dirs - corner, axis=1)) < 1e-12
        for w in dirs:
            assert sec.contains(w)

    def test_random_points_stay_inside(self):
        sec = Sector(4.0)
        pts = reference.random_points(sec, np.random.default_rng(7), 100, 3)
        for t in pts:
            assert sec.contains(t)

    def test_rows_answer_as_single_points(self):
        rng = np.random.default_rng(11)
        for bound in (1.0, 2.0, 7.5):
            edge = bound * (1.0 + 1e-12)
            rows = np.concatenate([
                np.exp(rng.uniform(-1.0, 1.0, size=(40, 3))),
                [[1.0, edge, 1.0], [edge, 1.0, edge], [1.0, np.nextafter(edge, 2.0 * edge), 1.0],
                 [0.0, 1.0, 1.0], [2.0, 0.0, 0.0], [-1.0, 1.0, 1.0], [3.0, 3.0, 3.0]],
            ])
            sec = Sector(bound)
            got = sec.contains(rows)
            assert type(got) is np.ndarray and got.dtype == bool
            assert got.tolist() == [sec.contains(t) for t in rows]
            assert type(sec.contains(rows[0])) is bool
            assert sec.contains(rows[40]) and not sec.contains(rows[42])

    def test_non_finite_rows_raise(self):
        with pytest.raises(ValueError, match="non-finite"):
            Sector(2.0).contains([[1.0, 1.0], [1.0, math.nan]])
        with pytest.raises(ValueError, match="non-finite"):
            Sector(2.0).contains([1.0, math.inf])


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


class TestCheckerGrids:
    """Each checker's decay_integral list has the bits of one call per row of its grid."""

    MEASURES = [AtomicMeasure(points=((1.0, 0.5), (0.7, -0.9), (-0.3, 1.4)),
                              weights=(1.0, 2.0, 0.5), dim=2),
                RadialPowerMeasure.with_total_mass(2.0, 1.0, 1.0, dim=2)]

    @pytest.mark.parametrize("m", MEASURES, ids=["atomic", "radial"])
    def test_equivalence(self, m):
        res = check_rate_equivalence(Ball(1.0), m, power_phi(2.0),
                                     ray_grid([1.0, 1.5], p_ladder(2.0, 300.0)[::-1]))
        want = [decay_integral(Ball(1.0), m, t, 1e-4) for t in res["t_grid"]]
        assert hex_list(res["decay_integral"]) == hex_list(want)

    @pytest.mark.parametrize("m", MEASURES, ids=["atomic", "radial"])
    def test_critical(self, m):
        res = check_critical_rate(Cube(2), m, 2.0, sector_grid(2.0, 2, p_ladder(2.0, 100.0)))
        assert res["grid_in_sector"]
        want = [decay_integral(Cube(2), m, t, 1e-4) for t in res["t_grid"]]
        assert hex_list(res["decay_integral"]) == hex_list(want)

    @pytest.mark.parametrize("m", MEASURES, ids=["atomic", "radial"])
    def test_supercritical(self, m):
        p = p_ladder(3.0, 400.0)
        res = check_supercritical_rate(Ellipsoid((2.0, 0.5)), m, -4.0, [1.0, 2.0], p)
        grid = ray_grid(np.array([1.0, 2.0]) / math.sqrt(5.0), p)
        want = [decay_integral(Ellipsoid((2.0, 0.5)), m, t, 1e-4) for t in grid]
        assert hex_list(res["decay_integral"]) == hex_list(want)


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
            lo, hi = reference.equivalence_bounds(phi, sec, dim=2, n_samples=512)
            for t in reference.random_points(sec, rng, 40, 2):
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
            reference.equivalence_bounds(bad, Sector(2.0), dim=2)
