"""Regime tables for box and ball averages, and the d = 2 region maps.

The worked table rows are frozen by hand from the piecewise formulas; the
region-map counts are pinned against the label algebra (three open
regions plus the critical lines the lattice must not lose).  A plain
Python copy of the piecewise rules, one point at a time, is the oracle
the array classification must match exactly.
"""

import numpy as np
import pytest

from ergrates.classify import (
    FAMILIES,
    VERDICTS,
    PowerParams,
    RegimeLabel,
    _component_count,
    circle_regime,
    params_report,
    region_map,
    square_regime,
)
from ergrates.rates import predicted_rate_from_mass_exponent


class TestPowerParams:
    def test_derived_fields(self):
        p = PowerParams((3.0, 1.0, 2.0))
        assert p.alpha_star == (1.0, 2.0, 3.0)
        assert p.m == 3.0
        assert p.theta == -6.0
        assert p.dim == 3

    def test_r_counts_zero_successive_differences(self):
        assert PowerParams((1.0, 1.0)).r == 1
        assert PowerParams((2.0, 1.0)).r == 0
        assert PowerParams((1.0, 1.0, 3.0)).r == 1
        assert PowerParams((2.0, 2.0, 2.0)).r == 2

    def test_r_at_max_mode(self):
        # ties below the maximum stop counting in the alternate mode
        assert PowerParams((1.0, 1.0, 3.0), r_mode="at-max").r == 0
        assert PowerParams((3.0, 1.0, 3.0), r_mode="at-max").r == 1
        assert PowerParams((2.0, 2.0), r_mode="at-max").r == 1

    def test_r_range_sweep(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            d = int(rng.integers(1, 5))
            a = tuple(rng.uniform(0.1, 4.0, size=d))
            for mode in ("successive", "at-max"):
                p = PowerParams(a, r_mode=mode)
                assert 0 <= p.r <= d - 1

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            PowerParams((1.0, -0.5))
        with pytest.raises(ValueError, match="positive"):
            PowerParams((0.0, 1.0))
        with pytest.raises(ValueError, match="r-mode"):
            PowerParams((1.0, 1.0), r_mode="upper")


class TestSquareTable:
    def test_subcritical_row(self):
        lab = square_regime(PowerParams((1.0, 1.0)))
        assert lab.family == "SquareSubcritical"
        assert lab.exponent_vector == (-1.0, -1.0)
        assert lab.log_power == 0

    def test_critical_row(self):
        lab = square_regime(PowerParams((2.0, 2.0)))
        assert lab.family == "SquareCritical"
        assert lab.exponent_vector == (-2.0, -2.0)
        assert lab.log_power == 2

    def test_supercritical_row(self):
        lab = square_regime(PowerParams((3.0, 1.0)))
        assert lab.family == "SquareSupercritical"
        assert lab.exponent_vector == pytest.approx((-2.0, -2.0 / 3.0))
        assert lab.log_power == 0

    def test_exponents_continuous_at_threshold(self):
        # the two formulas meet at m = 2: -2 alpha / m reduces to -alpha
        p = PowerParams((2.0, 0.7))
        lab = square_regime(p)
        assert lab.family == "SquareCritical"
        assert lab.exponent_vector == pytest.approx(tuple(-a for a in p.alphas))


class TestCircleTable:
    def test_subcritical_row(self):
        lab = circle_regime(PowerParams((1.0, 1.0)))
        assert lab.family == "CircleSubcritical"
        assert lab.exponent_vector == (-1.0, -1.0)
        assert lab.log_power == 0

    def test_critical_row(self):
        lab = circle_regime(PowerParams((2.0, 1.0)))
        assert lab.family == "CircleCritical"
        assert lab.exponent_vector == (-2.0, -1.0)
        assert lab.log_power == 1

    def test_supercritical_row(self):
        lab = circle_regime(PowerParams((3.0, 1.0)))
        assert lab.family == "CircleSupercritical"
        assert lab.exponent_vector == pytest.approx((-9.0 / 4.0, -3.0 / 4.0))
        assert lab.log_power == 0

    def test_d3_critical_threshold(self):
        assert circle_regime(PowerParams((2.0, 1.0, 1.0))).family == "CircleCritical"
        assert circle_regime(PowerParams((1.0, 1.0, 1.0))).family == "CircleSubcritical"


class TestInvariants:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(62)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            a = rng.uniform(0.2, 4.0, size=d)
            perm = rng.permutation(d)
            p, q = PowerParams(tuple(a)), PowerParams(tuple(a[perm]))
            assert q.m == p.m and q.r == p.r and q.theta == pytest.approx(p.theta)
            for fn in (square_regime, circle_regime):
                lp, lq = fn(p), fn(q)
                assert lq.family == lp.family
                assert lq.log_power == lp.log_power
                assert np.asarray(lq.exponent_vector) == pytest.approx(
                    np.asarray(lp.exponent_vector)[perm]
                )

    def test_exponents_nonpositive_sweep(self):
        rng = np.random.default_rng(63)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            p = PowerParams(tuple(rng.uniform(0.1, 5.0, size=d)))
            for lab in (square_regime(p), circle_regime(p)):
                assert isinstance(lab, RegimeLabel)
                assert all(e <= 0.0 for e in lab.exponent_vector)
                assert lab.log_power >= 0

    def test_radial_consistency_with_mass_exponent_rate(self):
        # alpha = (gamma/2, gamma/2) is the d = 2 radial case; the ball
        # table and the mass-exponent prediction must agree exactly
        for gamma in (0.5, 1.0, 2.0, 2.9, 3.0, 3.5, 6.0):
            lab = circle_regime(PowerParams((gamma / 2.0, gamma / 2.0)))
            pred = predicted_rate_from_mass_exponent(gamma, 2)
            assert lab.diagonal_exponent == pytest.approx(pred.theta, abs=1e-12)
            assert lab.log_power == pred.log_power


def _verdict(alphas) -> str:
    return params_report(PowerParams(alphas))["verdict"]


class TestDiagonalComparison:
    def test_worked_examples(self):
        assert _verdict((1.0, 1.0)) == "Equal"
        assert _verdict((2.0, 2.0)) == "SquareBetter"
        assert _verdict((3.0, 1.0)) == "CircleBetter"

    def test_verdict_flips_across_critical_line(self):
        # theta = -3 separates Equal (both subcritical) from SquareBetter
        assert _verdict((1.4, 1.4)) == "Equal"
        assert _verdict((1.6, 1.6)) == "SquareBetter"

    def test_log_factor_breaks_ties(self):
        # on theta = -3 both diagonals reach -3 but the circle carries a log
        p = PowerParams((1.5, 1.5))
        assert square_regime(p).diagonal_exponent == -3.0
        assert circle_regime(p).diagonal_exponent == -3.0
        assert _verdict((1.5, 1.5)) == "SquareBetter"


class TestRegionMap:
    def test_label_counts(self):
        rm = region_map(alpha_max=4.0, resolution=201)
        assert rm.square_label_count == 5
        assert rm.circle_label_count == 3

    def test_label_sets(self):
        rm = region_map(alpha_max=4.0, resolution=64)
        assert set(rm.square_labels) == {
            ("SquareSubcritical", 0),
            ("SquareCritical", 1),
            ("SquareCritical", 2),
            ("SquareSupercritical", 0),
            ("SquareSupercritical", 1),
        }
        assert set(rm.circle_labels) == {
            ("CircleSubcritical", 0),
            ("CircleCritical", 1),
            ("CircleSupercritical", 0),
        }

    def test_connected_components_on_grid(self):
        # step 4/201 misses the critical lines, so the grid shows the open
        # regions: the r = 1 diagonal inside m > 2 is its own component
        # and the two r = 0 wings meet across it diagonally
        rm = region_map(alpha_max=4.0, resolution=201)
        assert rm.square_components == 3
        assert rm.circle_components == 2

    def test_aligned_grid_sees_critical_lines(self):
        # step 4/64 divides both thresholds, so the critical cells appear
        # on the regular grid as components of their own
        rm = region_map(alpha_max=4.0, resolution=64)
        assert rm.square_components == 5
        assert rm.circle_components == 3

    def test_rows_cover_grid_then_lattice(self):
        res = 16
        rm = region_map(alpha_max=4.0, resolution=res)
        assert len(rm.rows) > res * res
        step = 4.0 / res
        a1, a2, sq_family, sq_log, ci_family, ci_log, verdict = rm.rows[0]
        assert (a1, a2) == (pytest.approx(step), pytest.approx(step))
        assert (sq_family, sq_log) == ("SquareSubcritical", 0)
        assert (ci_family, ci_log) == ("CircleSubcritical", 0)
        assert verdict == "Equal"
        # lattice rows actually sit on the critical sets
        lattice = rm.rows[res * res:]
        assert all(
            abs(a1 - 2.0) < 1e-9 or abs(a2 - 2.0) < 1e-9 or abs(a1 + a2 - 3.0) < 1e-9
            for a1, a2, *_ in lattice
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="resolution"):
            region_map(resolution=7)
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="alpha_max"):
                region_map(alpha_max=bad)

    def test_small_window_misses_critical_labels(self):
        # below both thresholds everything is subcritical
        rm = region_map(alpha_max=1.0, resolution=16)
        assert rm.square_labels == (("SquareSubcritical", 0),)
        assert rm.circle_labels == (("CircleSubcritical", 0),)


def _reference(alphas, r_mode="successive"):
    """The piecewise rules for one point in plain Python floats: (m, r, theta,
    square (family, exponents, log power), circle (...), verdict).

    Sums run left to right, as the regime rules have always added them.
    """
    tol, d = 1e-12, len(alphas)
    star = sorted(alphas)
    m = star[-1]
    if r_mode == "at-max":
        r = sum(1 for v in star if abs(v - m) <= tol) - 1
    else:
        r = sum(1 for lo, hi in zip(star, star[1:]) if abs(hi - lo) <= tol)
    total = 0.0
    for v in alphas:
        total += v
    theta = -total
    neg = tuple(-v for v in alphas)
    if m < 2.0 - tol:
        square = ("SquareSubcritical", neg, 0)
    elif abs(m - 2.0) <= tol:
        square = ("SquareCritical", neg, r + 1)
    else:
        square = ("SquareSupercritical", tuple(-2.0 * v / m for v in alphas), r)
    crit = -(d + 1.0)
    if theta > crit + tol:
        circle = ("CircleSubcritical", neg, 0)
    elif abs(theta - crit) <= tol:
        circle = ("CircleCritical", neg, 1)
    else:
        circle = ("CircleSupercritical", tuple(v * (d + 1.0) / theta for v in alphas), 0)
    diag = []
    for _, exps, _ in (square, circle):
        s = 0.0
        for v in exps:
            s += v
        diag.append(s)
    (ds, dc), ls, lc = diag, square[2], circle[2]
    if ds < dc - tol:
        verdict = "SquareBetter"
    elif dc < ds - tol:
        verdict = "CircleBetter"
    elif ls < lc:
        verdict = "SquareBetter"
    elif lc < ls:
        verdict = "CircleBetter"
    else:
        verdict = "Equal"
    return m, r, theta, square, circle, verdict


class TestRegimeOracle:
    @pytest.mark.parametrize("alpha_max,resolution,r_mode", [
        (4.0, 201, "successive"), (4.0, 64, "successive"), (3.0, 50, "at-max"),
        (1.0, 16, "successive"), (2.0, 40, "at-max"), (3.0, 33, "successive"),
        (3.7, 77, "successive"),
    ])
    def test_region_map_rows_match_the_point_rules(self, alpha_max, resolution, r_mode):
        rm = region_map(alpha_max, resolution, r_mode)
        for a1, a2, sq_family, sq_log, ci_family, ci_log, verdict in rm.rows:
            _, _, _, sq, ci, want = _reference((a1, a2), r_mode)
            assert (sq_family, sq_log, ci_family, ci_log, verdict) == (sq[0], sq[2], ci[0], ci[2], want)
        keys = {(sq_family, sq_log) for _, _, sq_family, sq_log, *_ in rm.rows}
        assert rm.square_labels == tuple(sorted(keys))
        keys = {(ci_family, ci_log) for *_, ci_family, ci_log, _ in rm.rows}
        assert rm.circle_labels == tuple(sorted(keys))

    def test_region_map_codes_decode_to_the_point_rules(self):
        rm = region_map(3.0, 50, "at-max")
        assert rm.points.shape == (len(rm.codes), 2) and rm.codes.shape[1] == 3
        for (a1, a2), (square, circle, verdict) in zip(rm.points.tolist(), rm.codes.tolist()):
            _, _, _, sq, ci, want = _reference((a1, a2), "at-max")
            assert (FAMILIES[0][square // 4], square % 4) == (sq[0], sq[2])
            assert (FAMILIES[1][circle // 4], circle % 4) == (ci[0], ci[2])
            assert VERDICTS[verdict] == want

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_reports_match_the_point_rules_bit_for_bit(self, dim):
        rng = np.random.default_rng(70 + dim)
        rows = [rng.uniform(0.05, 4.0, dim) for _ in range(300)]
        # eighths are exact in binary, so ties and critical sums occur
        rows += [rng.integers(1, 33, dim) / 8.0 for _ in range(300)]
        for a in rows:
            for mode in ("successive", "at-max"):
                alphas = tuple(float(v) for v in a)
                m, r, theta, sq, ci, verdict = _reference(alphas, mode)
                p = PowerParams(alphas, r_mode=mode)
                rep = params_report(p)
                assert (rep["m"], rep["r"], rep["theta"], rep["verdict"]) == (m, r, theta, verdict)
                # JSON-ready: Python scalars only (json.dumps refuses numpy ones)
                assert (type(rep["m"]), type(rep["r"]), type(rep["theta"])) == (float, int, float)
                for key, want, got in (("square", sq, square_regime(p)),
                                       ("circle", ci, circle_regime(p))):
                    assert (got.family, got.exponent_vector, got.log_power) == want
                    table = rep[key]
                    assert (table["family"], tuple(table["exponents"]), table["log_power"]) == want
                    assert type(table["log_power"]) is int
                    assert {type(v) for v in table["exponents"]} == {float}


class TestParamsReport:
    def test_radial_case_reports_consistency(self):
        rep = params_report(PowerParams((1.5, 1.5)))
        assert rep["theta"] == -3.0
        assert rep["square"]["family"] == "SquareSubcritical"
        assert rep["circle"]["family"] == "CircleCritical"
        assert rep["radial_consistency"]["matches_circle"] is True

    def test_anisotropic_case_has_no_radial_block(self):
        rep = params_report(PowerParams((3.0, 1.0)))
        assert rep["radial_consistency"] is None
        assert rep["verdict"] == "CircleBetter"
        assert rep["r"] == 0


def _flood_fill_components(keys: np.ndarray) -> int:
    """Reference count: depth-first flood fill over the 8 neighbours of each cell."""
    n1, n2 = keys.shape
    seen = np.zeros(keys.shape, dtype=bool)
    comps = 0
    for start in np.ndindex(keys.shape):
        if seen[start]:
            continue
        comps += 1
        seen[start] = True
        stack = [start]
        while stack:
            a, b = stack.pop()
            for x in range(max(a - 1, 0), min(a + 2, n1)):
                for y in range(max(b - 1, 0), min(b + 2, n2)):
                    if not seen[x, y] and keys[x, y] == keys[a, b]:
                        seen[x, y] = True
                        stack.append((x, y))
    return comps


class TestComponentCount:
    def test_matches_flood_fill_on_random_grids(self):
        rng = np.random.default_rng(20240)
        for _ in range(60):
            keys = rng.integers(0, 3, size=tuple(rng.integers(1, 13, size=2)))
            assert _component_count(keys) == _flood_fill_components(keys)

    def test_hand_built_grids(self):
        # 8-connectivity: blocks touching only at a corner are one component
        # (for both labels here), a checkerboard is one component per label,
        # and a full stripe separates what lies on either side of it
        corners = np.array([[1, 1, 0, 0],
                            [1, 1, 0, 0],
                            [0, 0, 1, 1],
                            [0, 0, 1, 1]])
        checkerboard = np.indices((5, 5)).sum(axis=0) % 2
        stripes = np.array([[0, 0, 0],
                            [1, 1, 1],
                            [0, 0, 0]])
        assert _component_count(corners) == 2
        assert _component_count(checkerboard) == 2
        assert _component_count(stripes) == 3
        assert _component_count(np.zeros((4, 6), dtype=int)) == 1
