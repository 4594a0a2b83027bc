"""Release gate: one test per shipped claim, each a single pass/fail line.

Run with `pytest -v tests/test_acceptance.py` to get the per-criterion
verdict lines.  Every tolerance here is a contract, not a guess: exact
identities get 1e-10, oracle agreement gets 1e-6, asymptotic fits get the
window the estimate is claimed for.  Runtime caps are asserted too, so a
quadrature regression cannot hide behind a green check.
"""

import json
import math
from time import monotonic

import numpy as np

from ergrates.classify import PowerParams, circle_regime, region_map, square_regime
from ergrates.cli import main
from ergrates.fourier import (
    indicator_ft,
    indicator_ft_quadrature,
    ray_peaks,
    ray_zeros,
    stationary_phase_ft,
)
from ergrates.geometry import Ball, Cube, Ellipsoid, width
from ergrates.hilbert_sim import AtomicAction, average_norm_sq, induced_measure
from ergrates.rates import (
    HomogeneousFunction,
    Sector,
    check_critical_rate,
    check_supercritical_rate,
    decay_integral,
    decay_integral_atomic,
    equivalence_bounds,
    fit_rate,
    p_ladder,
    ray_grid,
    sector_grid,
)
from ergrates.spectral import (
    AtomicMeasure,
    EllipsoidNeighborhood,
    RadialPowerMeasure,
    mass,
    total_mass,
)


def test_c01_simulated_average_equals_atomic_integral():
    """50 random atomic actions, 10 dilations each: the simulated mean
    average and the decay integral of the induced measure agree to 1e-10
    of the total mass."""
    start = monotonic()
    rng = np.random.default_rng(101)
    body = Ball(1.0)
    for _ in range(50):
        n = int(rng.integers(1, 21))
        freqs = rng.uniform(0.2, 3.0, size=(n, 2)) * rng.choice([-1.0, 1.0], size=(n, 2))
        coefs = rng.normal(size=n) + 1j * rng.normal(size=n)
        action = AtomicAction(
            frequencies=tuple(map(tuple, freqs)),
            coefficients=tuple(complex(c) for c in coefs),
            dim=2,
        )
        m = induced_measure(action)
        total = total_mass(m)
        for _ in range(10):
            t = rng.uniform(0.5, 50.0, size=2)
            lhs = average_norm_sq(action, body, t)
            rhs = decay_integral_atomic(body, m, t)
            assert abs(lhs - rhs) / total < 1e-10
    assert monotonic() - start < 5.0


def test_c02_closed_forms_match_quadrature_oracle():
    """Ball and cube transforms agree with the adaptive quadrature oracle
    to relative error 1e-6 on 100 random points per body, |x| <= 20,
    d in {2, 3}."""
    start = monotonic()
    rng = np.random.default_rng(7)
    for d in (2, 3):
        for body in (Ball(1.0, dim=d), Cube(d)):
            for _ in range(100):
                x = rng.uniform(-1.0, 1.0, size=d)
                x *= rng.uniform(0.0, 20.0) / np.linalg.norm(x)
                closed = indicator_ft(body, x)
                oracle = indicator_ft_quadrature(body, x)
                assert abs(closed - oracle) / abs(oracle) < 1e-6
    assert monotonic() - start < 60.0


def test_c03_envelope_slope_and_zero_spacing():
    """Peak envelope of the ball transform decays like |x|^-(d+1)/2
    (slope within 0.05), and the real-part zero spacing along a ray
    matches 2 pi / width within 1%."""
    start = monotonic()
    for d, want in ((2, -1.5), (3, -2.0)):
        eta = np.ones(d) / math.sqrt(d)
        locs, peaks = ray_peaks(Ball(1.0, dim=d), eta, 50.0, 500.0)
        slope = float(np.polyfit(np.log(locs), np.log(peaks), 1)[0])
        assert abs(slope - want) < 0.05
    for body, eta in (
        (Ball(1.0), (1.0, 1.0)),
        (Ellipsoid((2.0, 1.0)), (1.0, 0.0)),
        (Ellipsoid((2.0, 1.0)), (0.3, 1.0)),
    ):
        eta = np.asarray(eta, dtype=float)
        eta /= np.linalg.norm(eta)
        zeros = ray_zeros(body, eta, 50.0, 500.0)
        spacing = np.diff(zeros)
        want = 2.0 * math.pi / width(body, eta)
        assert np.max(np.abs(spacing - want)) / want < 0.01
    assert monotonic() - start < 10.0


def test_c04_two_point_envelope_calibrates_ellipse_peaks():
    """The curvature-calibrated two-point envelope matches the transform's
    local maxima on Ellipsoid(2,1) within 5% for |x| >= 50 along 8
    directions."""
    start = monotonic()
    body = Ellipsoid((2.0, 1.0))
    for k in range(8):
        ang = (k + 0.5) * math.pi / 8.0
        eta = np.array([math.cos(ang), math.sin(ang)])
        locs, peaks = ray_peaks(body, eta, 50.0, 500.0)
        envs = np.array([stationary_phase_ft(body, z * eta).envelope for z in locs])
        assert float(np.max(np.abs(envs - peaks) / peaks)) < 0.05
    assert monotonic() - start < 30.0


def test_c05_subcritical_rates_track_the_mass_exponent():
    """Radial power measures with gamma in {0.5, 1, 2, 2.5}: the fitted
    decay exponent equals -gamma within 0.1 with log power within 0.3,
    while neighborhood mass times p^gamma stays constant to 1%."""
    start = monotonic()
    body = Ball(1.0)
    p = p_ladder(10.0, 1000.0)
    grid = ray_grid(np.ones(2), p)
    for gamma in (0.5, 1.0, 2.0, 2.5):
        m = RadialPowerMeasure.with_total_mass(gamma, 10.0, 1.0, dim=2)
        i_vals = [decay_integral(body, m, t, rel_tol=1e-4) for t in grid]
        fit = fit_rate(p, i_vals)
        assert abs(fit.theta_hat + gamma) <= 0.1
        assert abs(fit.log_power_hat) <= 0.3
        scaled = np.array(
            [mass(m, EllipsoidNeighborhood.from_inverse(t)) for t in grid]
        ) * p ** gamma
        assert scaled.max() / scaled.min() - 1.0 < 0.01
    assert monotonic() - start < 300.0


def test_c06_critical_exponent_shows_the_log_factor():
    """gamma = 3 = d+1: the fit lands on theta = -3 within 0.1 and picks
    up a log power inside [0.5, 1.5]."""
    start = monotonic()
    p = p_ladder(10.0, 1000.0)
    m = RadialPowerMeasure.with_total_mass(3.0, 1.0, 1.0, dim=2)
    i_vals = [decay_integral(Ball(1.0), m, t, rel_tol=1e-4) for t in ray_grid(np.ones(2), p)]
    fit = fit_rate(p, i_vals)
    assert abs(fit.theta_hat + 3.0) <= 0.1
    assert 0.5 <= fit.log_power_hat <= 1.5
    assert monotonic() - start < 120.0


def test_c07_critical_sector_equivalence_three_verdicts():
    """Finiteness of the order-3 singular integral coincides with
    boundedness of |t|^3 I on the sector grid for all three probe
    measures."""
    start = monotonic()
    body = Ball(1.0)
    grid = sector_grid(2.0, 2, p_ladder(10.0, 1000.0))
    cases = (
        (RadialPowerMeasure.with_total_mass(4.0, 1.0, 1.0, dim=2), "finite", True),
        (RadialPowerMeasure.with_total_mass(2.0, 1.0, 1.0, dim=2), "infinite", False),
        (AtomicMeasure(points=((1.0, 0.5), (0.3, 1.2)), weights=(1.0, 2.0), dim=2),
         "finite", True),
    )
    for m, state, bounded in cases:
        res = check_critical_rate(body, m, 2.0, grid, rel_tol=1e-4)
        assert res["singular_state"] == state
        assert res["ratios_bounded"] is bounded
        assert res["consistent"] is True
        assert res["verdict"] == "consistent with equivalence"
    assert monotonic() - start < 180.0


def test_c08_supercritical_rates_are_excluded_for_nonzero_measures():
    """10 random nonzero atomic measures: the fitted exponent along a
    random ray never drops below -(d+1) - 0.1; the zero measure gives an
    identically vanishing average."""
    start = monotonic()
    rng = np.random.default_rng(3)
    body = Ball(1.0)
    p = np.geomspace(10.0, 1000.0, 120)
    for _ in range(10):
        n = int(rng.integers(1, 21))
        pts = tuple(tuple(v) for v in rng.uniform(0.3, 2.5, size=(n, 2)))
        w = tuple(rng.uniform(0.5, 2.0, size=n))
        m = AtomicMeasure(points=pts, weights=w, dim=2)
        s = rng.uniform(0.5, 2.0, size=2)
        res = check_supercritical_rate(body, m, -4.0, s, p)
        assert res["rate_excluded"]
        assert res["theta_hat"] >= -3.1
    zero = AtomicMeasure(points=(), weights=(), dim=2)
    for t in ((1.0, 1.0), (17.0, 403.0)):
        assert decay_integral_atomic(body, zero, t) == 0.0
    res = check_supercritical_rate(body, zero, -4.0, (1.0, 1.0), p)
    assert res["sigma_zero"] is True
    assert monotonic() - start < 60.0


def test_c09_sector_sandwich_for_homogeneous_comparison_functions():
    """20 random positive continuous degree -3 functions: the computed
    (E, F) constants sandwich the function on 1000 random sector points
    with zero violations."""
    start = monotonic()
    rng = np.random.default_rng(29)
    sector = Sector(2.0)
    violations = 0
    for _ in range(20):
        a, b, c = rng.uniform(-1.0, 1.0, size=3)

        def sphere_fn(w, a=a, b=b, c=c):
            return math.exp(a * w[0] + b * w[1] + c * w[0] * w[1])

        phi = HomogeneousFunction(degree=-3.0, sphere_fn=sphere_fn)
        lo, hi = equivalence_bounds(phi, sector, dim=2)
        pts = sector.random_points(rng, 1000, 2)
        for t in pts:
            r = float(np.linalg.norm(t))
            val = phi(t)
            if not lo * r ** -3.0 <= val <= hi * r ** -3.0:
                violations += 1
    assert violations == 0
    assert monotonic() - start < 5.0


def test_c10_regime_tables_and_region_counts():
    """The six worked table cells come out exactly, and the (0,4]^2 map
    shows 5 distinct box labels and 3 distinct ball labels."""
    start = monotonic()
    sq = square_regime(PowerParams((1.0, 1.0)))
    assert (sq.family, sq.exponent_vector, sq.log_power) == (
        "SquareSubcritical", (-1.0, -1.0), 0)
    sq = square_regime(PowerParams((2.0, 2.0)))
    assert (sq.family, sq.exponent_vector, sq.log_power) == (
        "SquareCritical", (-2.0, -2.0), 2)
    sq = square_regime(PowerParams((3.0, 1.0)))
    assert sq.family == "SquareSupercritical" and sq.log_power == 0
    assert np.allclose(sq.exponent_vector, (-2.0, -2.0 / 3.0))
    ci = circle_regime(PowerParams((1.0, 1.0)))
    assert (ci.family, ci.exponent_vector, ci.log_power) == (
        "CircleSubcritical", (-1.0, -1.0), 0)
    ci = circle_regime(PowerParams((2.0, 1.0)))
    assert (ci.family, ci.exponent_vector, ci.log_power) == (
        "CircleCritical", (-2.0, -1.0), 1)
    ci = circle_regime(PowerParams((3.0, 1.0)))
    assert ci.family == "CircleSupercritical" and ci.log_power == 0
    assert np.allclose(ci.exponent_vector, (-9.0 / 4.0, -3.0 / 4.0))
    rm = region_map(alpha_max=4.0, resolution=201)
    assert rm.square_label_count == 5
    assert rm.circle_label_count == 3
    assert monotonic() - start < 5.0


def test_c11_repeated_runs_are_byte_identical(tmp_path):
    """A fixed config produces byte-identical verdict and region-map
    artifacts across repeated runs."""
    out = tmp_path / "verdict.json"
    args = ["verify", "--theorem", "2", "--measure", "atomic:[(1,0;1),(0,2;4)]",
            "--points", "10", "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first
    json.loads(first)  # artifact is valid JSON, not just stable bytes

    out = tmp_path / "map.csv"
    args = ["regionmap", "--grid", "0:4:201", "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first
