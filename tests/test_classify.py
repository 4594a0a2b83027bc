"""Regime tables for box and ball averages, and the d = 2 region maps.

The worked table rows are frozen by hand from the piecewise formulas; the
region-map counts are pinned against the label algebra (three open
regions plus the critical lines the lattice must not lose).
"""

import numpy as np
import pytest

from ergrates.classify import (
    PowerParams,
    RegimeLabel,
    _component_count,
    circle_regime,
    compare_along_diagonal,
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

    def test_dimension_argument_must_agree(self):
        with pytest.raises(ValueError, match="dimension"):
            circle_regime(PowerParams((1.0, 1.0)), dim=3)

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


class TestDiagonalComparison:
    def test_worked_examples(self):
        assert compare_along_diagonal(PowerParams((1.0, 1.0))) == "Equal"
        assert compare_along_diagonal(PowerParams((2.0, 2.0))) == "SquareBetter"
        assert compare_along_diagonal(PowerParams((3.0, 1.0))) == "CircleBetter"

    def test_verdict_flips_across_critical_line(self):
        # theta = -3 separates Equal (both subcritical) from SquareBetter
        assert compare_along_diagonal(PowerParams((1.4, 1.4))) == "Equal"
        assert compare_along_diagonal(PowerParams((1.6, 1.6))) == "SquareBetter"

    def test_log_factor_breaks_ties(self):
        # on theta = -3 both diagonals reach -3 but the circle carries a log
        p = PowerParams((1.5, 1.5))
        assert square_regime(p).diagonal_exponent == -3.0
        assert circle_regime(p).diagonal_exponent == -3.0
        assert compare_along_diagonal(p) == "SquareBetter"


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
        a1, a2, sq, ci, verdict = rm.rows[0]
        assert (a1, a2) == (pytest.approx(step), pytest.approx(step))
        assert sq.family == "SquareSubcritical" and ci.family == "CircleSubcritical"
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
        with pytest.raises(ValueError, match="alpha_max"):
            region_map(alpha_max=0.0)

    def test_small_window_misses_critical_labels(self):
        # below both thresholds everything is subcritical
        rm = region_map(alpha_max=1.0, resolution=16)
        assert rm.square_labels == (("SquareSubcritical", 0),)
        assert rm.circle_labels == (("CircleSubcritical", 0),)


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
