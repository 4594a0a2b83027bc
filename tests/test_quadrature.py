"""Panel and end rules, orthant integrals, and the bracketed searches."""

import math

import mpmath
import numpy as np
import pytest

from ergrates import quadrature
from ergrates.quadrature import (
    bisect,
    bracketed_maxima,
    bracketed_roots,
    end_power_rule,
    gl_edges_rule,
    orthant_integral,
    refined_breaks,
    segment_rules,
)


def test_polynomial_exactness():
    # GL order n is exact through degree 2n-1 per panel
    nodes, weights = gl_edges_rule(np.linspace(0.0, 2.0, 4), order=4)
    for k in range(8):
        got = float(np.sum(weights * nodes**k))
        assert got == pytest.approx(2.0 ** (k + 1) / (k + 1), rel=1e-13)


def test_gl_edges_rule_smooth():
    nodes, weights = gl_edges_rule(np.linspace(0.0, 1.0, 5), order=8)
    assert float(np.sum(np.exp(nodes) * weights)) == pytest.approx(math.e - 1.0, rel=1e-12)


def test_oscillatory_at_quarter_period_panels():
    # a few panels per quarter period resolve cos(w x) to round-off
    w = 37.0
    n_panels = math.ceil(4.0 * w / (2.0 * math.pi))
    nodes, weights = gl_edges_rule(np.linspace(0.0, 1.0, n_panels + 1), order=16)
    assert float(np.sum(np.cos(w * nodes) * weights)) == pytest.approx(math.sin(w) / w, abs=1e-13)


def test_refined_breaks_keep_every_break():
    out = refined_breaks([0.0, 0.1, 1.0, 1.05], max_len=0.25)
    assert {0.0, 0.1, 1.0, 1.05} <= set(out)
    assert out == sorted(out)
    assert max(np.diff(out)) <= 0.25 + 1e-15
    assert len(out) == 1 + 1 + 4 + 1


def test_segment_rules_absorb_both_singular_ends():
    # x^-0.4 (1 - x)^0.7 on [0, 1] split at two inner breaks: the Jacobi ends
    # make it exact, the Beta function B(0.6, 1.7)
    nodes, weights = segment_rules([0.0, 0.3, 0.6, 1.0], exp_lo=-0.4, exp_hi=0.7, order=10)
    got = float(np.sum(weights * nodes ** -0.4 * (1.0 - nodes) ** 0.7))
    want = math.gamma(0.6) * math.gamma(1.7) / math.gamma(2.3)
    assert got == pytest.approx(want, rel=1e-12)
    assert nodes.size == 3 * 10 and np.all((nodes > 0.0) & (nodes < 1.0))


@pytest.mark.parametrize("cached", [lambda: quadrature._gl(8),
                                    lambda: quadrature._jacobi(16, 0.0, 0.5)],
                         ids=["legendre", "jacobi"])
def test_cached_rules_are_read_only(cached):
    # every caller shares the cached arrays, so none of them may write to one
    x, w = cached()
    assert cached()[0] is x
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("exponent", [-0.4, 0.7, 1.5])
def test_end_power_rule_exact_at_both_ends(exponent):
    # weights apply to the full integrand, so (end distance)^e * x^k is
    # integrated exactly for every k up to 2 * order - 1
    a, b, order = 0.5, 2.0, 6
    for at_lower in (True, False):
        nodes, weights = end_power_rule(a, b, exponent, at_lower=at_lower, order=order)
        dist = nodes - a if at_lower else b - nodes
        for k in range(2 * order):
            got = float(np.sum(weights * dist ** exponent * nodes ** k))
            with mpmath.workdps(30):
                if at_lower:
                    want = mpmath.quad(lambda x: (x - a) ** exponent * x ** k, [a, b])
                else:
                    want = mpmath.quad(lambda x: (b - x) ** exponent * x ** k, [a, b])
            assert got == pytest.approx(float(want), rel=1e-12), (at_lower, k)


@pytest.mark.parametrize("alphas", [(1.0, 1.0), (0.5, 1.5), (2.4, 0.7),
                                    (1.0, 1.0, 1.0), (0.5, 0.7, 1.5), (2.4, 1.2, 0.6)],
                         ids=lambda al: ",".join(f"{a:g}" for a in al))
def test_orthant_integral_matches_sphere_moments(alphas):
    # int over the unit sphere of prod |omega_k|^(alpha_k - 1) is
    # 2 prod Gamma(alpha_k / 2) / Gamma(sum alpha_k / 2); the end exponents
    # below and above 1 must be absorbed by the Jacobi end segments
    want = 2.0 * math.prod(math.gamma(a / 2.0) for a in alphas) / math.gamma(sum(alphas) / 2.0)
    al = np.asarray(alphas)

    def g(om):
        return np.prod(np.abs(om) ** (al[None, :] - 1.0), axis=1)

    for n_seg in (2, 4, 8):
        breaks = list(np.linspace(0.0, math.pi / 2, n_seg + 1))
        for order in (12, 16, 24):
            got = orthant_integral(alphas, g, breaks, order, theta_breaks=lambda phi: [breaks] * phi.size)
            assert type(got) is float
            assert got == pytest.approx(want, rel=1e-13), (n_seg, order)


class TestBrackets:
    def test_zero_at_grid_node_is_kept(self):
        # (x - 1)(x - 2.25) vanishes exactly on two nodes of the quarter grid
        grid = np.arange(17) * 0.25
        roots = bracketed_roots(lambda x: (x - 1.0) * (x - 2.25), grid, xtol=1e-12)
        assert roots.tolist() == [1.0, 2.25]

    def test_run_of_zero_nodes_gives_its_ends(self):
        grid = np.linspace(0.0, 4.0, 41)
        roots = bracketed_roots(lambda x: np.maximum(x - 3.0, 0.0) - np.maximum(1.0 - x, 0.0),
                                grid, xtol=1e-12)
        assert roots == pytest.approx([1.0, 3.0], abs=1e-12)

    def test_no_sign_change_gives_empty_result(self):
        roots = bracketed_roots(lambda x: x * x + 1.0, np.linspace(0.0, 3.0, 50), xtol=1e-12)
        assert roots.size == 0

    def test_roots_of_sin_to_xtol(self):
        grid = np.linspace(0.5, 60.0, 700)
        roots = bracketed_roots(np.sin, grid, xtol=1e-12)
        want = np.pi * np.arange(1, 20)
        assert roots.size == want.size
        assert np.max(np.abs(roots - want)) <= 1e-12

    def test_bisect_keeps_the_sign_change(self):
        lo, hi = np.array([0.0, 4.0]), np.array([2.0, 5.0])
        got = bisect(lambda x: np.cos(x), lo, hi, np.array([False, True]), xtol=1e-12)
        assert got == pytest.approx([np.pi / 2, 3 * np.pi / 2], abs=1e-12)

    def test_maxima_of_sin_to_xtol(self):
        k = np.arange(10)
        lo = 2 * np.pi * k + 0.3
        hi = 2 * np.pi * k + 2.9
        where, value = bracketed_maxima(np.sin, lo, hi, xtol=1e-10)
        assert np.max(np.abs(where - (2 * np.pi * k + np.pi / 2))) <= 1e-7
        assert np.max(np.abs(value - 1.0)) <= 1e-15

    def test_maxima_of_a_sharp_peak_to_xtol(self):
        # |x - c| has a kink at its peak, so the location is found to xtol
        c = np.array([0.3, 1.7, 2.2])
        where, value = bracketed_maxima(lambda x: -np.abs(x - c), c - 1.0, c + 0.5, xtol=1e-12)
        assert np.max(np.abs(where - c)) <= 1e-12
        assert np.all(value <= 0.0) and np.all(value >= -1e-12)
