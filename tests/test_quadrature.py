"""Panel and end rules, orthant integrals with their break policy, and the
bracketed searches."""

import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from ergrates import quadrature, rates
from ergrates.geometry import Ball, Cube
from ergrates.quadrature import (
    QuadratureBudgetError,
    bisect,
    bracketed_maxima,
    bracketed_roots,
    end_power_rule,
    gl_edges_rule,
    kink_orthant_integral,
    refined_orthant_integral,
)
from ergrates.rates import decay_integral
from ergrates.spectral import (
    AnisotropicPowerMeasure,
    BoxNeighborhood,
    EllipsoidNeighborhood,
    RadialPowerMeasure,
    extent_kinks,
    mass,
    singular_integral,
)

# the level loop given no boundary layer next to either end
NO_LAYERS = (math.inf, math.inf)


def _level_loop(alphas, g, layers, kinks, rel_tol, label):
    """The level loop on one row, whose integrand is g(om)."""
    return refined_orthant_integral(alphas, lambda om, row: g(om), [layers], kinks, rel_tol,
                                    [label])[0]


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


def test_segment_rules_absorb_both_singular_ends():
    # x^-0.4 (1 - x)^0.7 on [0, 1] split at two inner breaks: the Jacobi ends
    # make it exact, the Beta function B(0.6, 1.7)
    nodes, weights, _ = quadrature._line_rules([[0.0, 0.3, 0.6, 1.0]], exp_lo=-0.4,
                                                exp_hi=0.7, order=10)
    got = float(np.sum(weights * nodes ** -0.4 * (1.0 - nodes) ** 0.7))
    want = math.gamma(0.6) * math.gamma(1.7) / math.gamma(2.3)
    assert got == pytest.approx(want, rel=1e-12)
    assert nodes.size == 3 * 10 and np.all((nodes > 0.0) & (nodes < 1.0))


def test_one_segment_cannot_absorb_two_singular_ends():
    # a lone segment's Jacobi rule absorbs only one of two singular ends
    with pytest.raises(ValueError, match="one segment cannot absorb two singular ends"):
        quadrature._line_rules([[0.0, 1.0]], exp_lo=-0.4, exp_hi=0.7, order=8)
    with pytest.raises(ValueError, match="one segment cannot absorb two singular ends"):
        quadrature._line_rules([[0.0, 0.5, 1.0], [0.0, 1.0]], exp_lo=-0.4, exp_hi=0.7, order=8)
    # one singular end on a lone segment is the end rule itself
    for exp_lo, exp_hi, at_lower in ((-0.4, 0.0, True), (0.0, 0.7, False)):
        nodes, weights, _ = quadrature._line_rules([[0.5, 2.0]], exp_lo, exp_hi, order=8)
        want = end_power_rule(0.5, 2.0, exp_lo + exp_hi, at_lower=at_lower, order=8)
        assert np.array_equal(nodes, want[0]) and np.array_equal(weights, want[1])


def test_angular_break_lists_have_two_segments_or_more(monkeypatch):
    # no caller gives a lone segment: the kink rule splits every angle at
    # pi/32 or pi/16, and the level loop's first level (1 in every d) at pi/4
    for d in (2, 3):
        assert len(quadrature._kink_breaks(d, [], singular_ends=True)) - 1 >= 8
        assert quadrature._LEVELS[d][1].start >= 1
    g, sizes = _scripted([1.0], [8])
    monkeypatch.setitem(quadrature._LEVELS, 2, (4, range(1, 2)))
    with pytest.raises(QuadratureBudgetError):
        _level_loop((0.5, 1.5), g, NO_LAYERS, (), rel_tol=1e-6, label="x")
    assert sizes == [2 * 4]
    monkeypatch.setitem(quadrature._LEVELS, 2, (4, range(0, 3)))
    with pytest.raises(ValueError, match="one segment"):
        _level_loop((0.5, 1.5), g, NO_LAYERS, (), rel_tol=1e-6, label="x")


def _break_lines(seed: int, n_lines: int, both_singular: bool) -> list[list[float]]:
    """n_lines strictly increasing break lists of 2 to 70 breaks (3 or more
    when both ends are singular), with gaps from 1e-9 to 1."""
    rng = np.random.default_rng(seed)
    lines = []
    for n in rng.integers(3 if both_singular else 2, 71, size=n_lines):
        gaps = 10.0 ** rng.uniform(-9.0, 0.0, n - 1)
        line = np.cumsum(np.concatenate(([rng.uniform(-2.0, 2.0)], gaps))).tolist()
        assert all(a < b for a, b in zip(line, line[1:]))
        lines.append(line)
    return lines


# end exponents in (-1, 3); scipy's Gauss-Jacobi nodes turn NaN as one nears -1
_EXPONENTS = st.one_of(st.just(0.0), st.floats(-0.999, 3.0, exclude_max=True))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), n_lines=st.integers(1, 300),
       exp_lo=_EXPONENTS, exp_hi=_EXPONENTS, order=st.integers(4, 24))
def test_line_rules_equal_the_per_segment_loop(seed, n_lines, exp_lo, exp_hi, order):
    lines = _break_lines(seed, n_lines, exp_lo != 0.0 and exp_hi != 0.0)
    nodes, weights, sizes = quadrature._line_rules(lines, exp_lo, exp_hi, order)
    want = [reference.segment_rules_loop(tb, exp_lo, exp_hi, order) for tb in lines]
    assert sizes.tolist() == [nd.size for nd, _ in want]
    assert np.array_equal(nodes, np.concatenate([nd for nd, _ in want]))
    assert np.array_equal(weights, np.concatenate([wt for _, wt in want]))
    one = quadrature._line_rules(lines[:1], exp_lo, exp_hi, order)
    assert np.array_equal(one[0], want[0][0]) and np.array_equal(one[1], want[0][1])


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
            rule = (breaks, lambda phi: [breaks] * phi.size)
            got = quadrature._orthant_integrals(alphas, lambda om, row: g(om), [rule], order,
                                                [(0, 0)])[0]
            assert type(got) is float
            assert got == pytest.approx(want, rel=1e-13), (n_seg, order)


# -- d = 3: every theta line at once, the integrand in chunks of rows --------------


def _recorded(g, calls: list):
    def rec(om, *row):
        calls.append(om.copy())
        return g(om, *row)
    return rec


def _checked_against_the_loop(monkeypatch, values: list):
    """Make every orthant integral check itself against the one-line-at-a-
    time loop, rule by rule: g sees at most _ROWS_PER_CALL rows a call,
    every node of every rule exactly once and in the loop's order, and each
    value is the loop's."""
    real = quadrature._orthant_integrals

    def checked(alphas, g, rules, order, uses):
        got, want = [], []
        out = real(alphas, _recorded(g, got), rules, order, uses)
        expected = [reference.orthant_integral_3d_loop(
            alphas, _recorded(lambda om, r=r: g(om, np.full(len(om), r)), want), rules[k][0],
            order, rules[k][1]) for k, r in uses]
        assert max(om.shape[0] for om in got) <= quadrature._ROWS_PER_CALL
        assert np.array_equal(np.concatenate(got), np.concatenate(want))
        assert out == expected
        values.extend(out)
        return out

    monkeypatch.setattr(quadrature, "_orthant_integrals", checked)


_M3 = AnisotropicPowerMeasure((0.7, 1.4, 1.9), (0.8, 1.1, 0.6), 1.0)
_HOOD3 = BoxNeighborhood((0.9, 0.3, 0.7))
_RADIAL3 = RadialPowerMeasure.with_total_mass(1.7, 1.0, 1.0, dim=3)
_HOOD3_RUNS = BoxNeighborhood((0.9, 0.5, 0.7))  # theta lines of two lengths in eight runs


def _mass_integrand(m, hood):
    def g(om):
        rho = np.minimum(hood.radial_profile(om), m.support_profile(om))
        return m.angular_density(om) * rho ** m.radial_order / m.radial_order
    return g


@pytest.mark.parametrize("rows_per_call", [None, 7], ids=["default", "7"])
@pytest.mark.parametrize("m, hood", [(_M3, _HOOD3), (_RADIAL3, _HOOD3_RUNS)],
                         ids=["aniso-singular-ends", "radial-runs-of-lengths"])
def test_d3_chunks_cover_every_node_once_as_the_line_loop(monkeypatch, rows_per_call, m, hood):
    if rows_per_call is not None:
        monkeypatch.setattr(quadrature, "_ROWS_PER_CALL", rows_per_call)
    values = []
    _checked_against_the_loop(monkeypatch, values)
    g = _mass_integrand(m, hood)
    kink = kink_orthant_integral(m.angular_alphas, g, functools.partial(extent_kinks, [hood, m]))
    monkeypatch.setitem(quadrature._LEVELS, 3, (12, range(3, 5)))
    level = _level_loop(m.angular_alphas, g, NO_LAYERS, (), rel_tol=1.0, label="x")
    # the kink rule, then levels 3 and 4 from one pass of chunks
    assert len(values) == 3 and values[0] == kink and values[2] == level


@pytest.mark.parametrize("compute", [
    lambda: mass(_M3, _HOOD3),
    lambda: mass(RadialPowerMeasure.with_total_mass(1.7, 1.0, 1.0, dim=3),
                 EllipsoidNeighborhood((0.2, 0.25, 0.15))),
    lambda: singular_integral(_M3, 2.0),
    lambda: decay_integral(Cube(3), _M3, [3.0, 5.0, 4.0], rel_tol=1e-3),
], ids=["aniso-box-mass", "radial-ellipsoid-mass", "singular", "decay"])
def test_d3_values_do_not_depend_on_the_chunk_size(monkeypatch, compute):
    want = compute()
    monkeypatch.setattr(quadrature, "_ROWS_PER_CALL", 7)
    assert compute() == want


# -- the break policy ---------------------------------------------------------


@pytest.mark.parametrize("first, limit, ratio, n", [(3 / 16, 3.0, 2.0, 4), (1e-3, 1.0, 4.0, 5),
                                                    (0.5, 0.5, 2.0, 0), (0.7, 0.5, 4.0, 0)])
def test_graded_breaks_are_exact_powers_strictly_below_the_limit(first, limit, ratio, n):
    # 3/16 * 2^4 = 3 and 1e-3 * 4^5 < 1 < 1e-3 * 4^6: a break at the limit is left out
    out = quadrature._end_layers(first, math.inf, ratio, limit)
    assert out == [first * ratio ** j for j in range(n)]
    assert all(b < limit for b in out) and first * ratio ** n >= limit
    # the pi/2 side is exactly pi/2 - first * ratio^j
    top = quadrature._end_layers(math.inf, first, ratio, limit)
    assert [b.hex() for b in top] == [(math.pi / 2 - first * ratio ** j).hex() for j in range(n)]
    assert quadrature._end_layers(first, first, ratio, limit) == out + top


@pytest.mark.parametrize("first", [0.0, -0.1, math.nan, math.inf, math.pi / 4, 1.0])
def test_end_layers_grade_nothing_from_a_first_out_of_range(first):
    # a zero width (k_min / k_max underflowed) would otherwise grade forever
    assert quadrature._end_layers(first, first, 2.0, math.pi / 4) == []


@pytest.mark.parametrize("d, step", [(2, math.pi / 32), (3, math.pi / 16)])
def test_kink_breaks_keep_every_kink_within_the_step(d, step):
    kinks = [1e-3, 0.1, 0.1 + 1e-9, 1.0, math.pi / 2 - 0.3]
    out = quadrature._kink_breaks(d, kinks + [0.0, -0.2, math.pi / 2, 2.0], singular_ends=False)
    assert set(kinks) | {0.0, math.pi / 2} <= set(out)
    assert (math.pi / 4 in out) == (d == 3)
    assert out[0] == 0.0 and out[-1] == math.pi / 2
    assert np.all(np.diff(out) > 0.0) and np.max(np.diff(out)) <= step * (1.0 + 1e-12)


def test_kink_breaks_grade_only_singular_ends():
    # a kink 1/1000 of the step from either end is graded away from it by
    # factors of 4 up to the step; one at 1/8 of the step is not
    step = math.pi / 32
    kinks = [step / 1000.0, math.pi / 2 - step / 1000.0]
    graded = quadrature._kink_breaks(2, kinks, singular_ends=True)
    plain = quadrature._kink_breaks(2, kinks, singular_ends=False)
    gap_hi = math.pi / 2 - kinks[1]  # the gap to pi/2 as the rule sees it
    want = ({kinks[0] * 4.0 ** j for j in range(1, 5)}  # 4^4 < 1000 < 4^5
            | {math.pi / 2 - gap_hi * 4.0 ** j for j in range(1, 5)})
    assert want <= set(graded) and want.isdisjoint(plain)
    assert np.all(np.diff(graded) > 0.0) and np.max(np.diff(graded)) <= step * (1.0 + 1e-12)
    far = [step / 8.0, math.pi / 2 - step / 8.0]
    assert (quadrature._kink_breaks(2, far, singular_ends=True)
            == quadrature._kink_breaks(2, far, singular_ends=False))


def _scripted(levels, level_rows):
    """An integrand on the first quadrant whose orthant integral at its k-th
    level is 2 pi levels[k], the levels having level_rows[k] nodes each, in
    the order g sees them; records the row count of each call."""
    sizes = []
    ends = np.cumsum(level_rows)

    def g(om):
        start = sum(sizes)
        sizes.append(om.shape[0])
        level = np.searchsorted(ends, np.arange(start, start + om.shape[0]), side="right")
        return np.asarray(levels, dtype=float)[level]

    return g, sizes


def test_level_loop_stops_at_the_first_level_that_agrees(monkeypatch):
    g, sizes = _scripted([1.0, 1.5, 1.25, 1.25 * (1.0 + 1e-7), 9.0], [16, 32, 64, 128, 256])
    monkeypatch.setitem(quadrature._LEVELS, 2, (4, range(1, 7)))
    got = _level_loop((1.0, 1.0), g, NO_LAYERS, [0.3], rel_tol=1e-6, label="x")
    assert got == pytest.approx(2.0 * math.pi * 1.25 * (1.0 + 1e-7), rel=1e-13)
    # {0, 0.3, pi/2} bisected once, then once more per level; the first
    # two levels share one call of g, then one call per level
    assert sizes == [4 * 4 + 4 * 8, 4 * 16, 4 * 32]


def test_level_loop_grades_kinks_away_from_the_ends():
    # the kink nearest each end is graded away from it by factors of 4 up
    # to pi/4; a kink at an end or past it is dropped, so no grading starts
    # from a zero gap
    assert quadrature._graded_kinks([1e-3]) == [
        0.0, *(1e-3 * 4.0 ** j for j in range(5)), math.pi / 2]
    top = quadrature._graded_kinks([math.pi / 2 - 1e-3])
    assert [math.pi / 2 - b for b in reversed(top[1:-1])] == pytest.approx(
        [1e-3 * 4.0 ** j for j in range(5)], rel=1e-12)
    assert quadrature._graded_kinks([0.0, math.pi / 2, -1.0, 2.0]) == [0.0, math.pi / 2]


def test_level_loop_raises_after_the_last_level(monkeypatch):
    g, sizes = _scripted([1.0, 2.0, 3.0, 4.0, 5.0], [16, 32, 64, 128, 256])
    monkeypatch.setitem(quadrature._LEVELS, 2, (4, range(2, 5)))
    with pytest.raises(QuadratureBudgetError, match=r"did not reach rel_tol=1e-06 for t=\[1\]"):
        _level_loop((1.0, 1.0), g, NO_LAYERS, (), rel_tol=1e-6, label="t=[1]")
    assert sizes == [4 * 4 + 4 * 8, 4 * 16]


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_level_loop_raises_at_the_first_level_that_is_not_finite(bad):
    calls = []

    def g(om):
        calls.append(len(om))
        return np.full(len(om), bad)

    with pytest.raises(QuadratureBudgetError, match=r"angular level \d+ is not finite .* for t=\[1\]"):
        _level_loop((1.0, 1.0), g, NO_LAYERS, (), rel_tol=1e-6, label="t=[1]")
    assert len(calls) == 1


_M2 = AnisotropicPowerMeasure((0.6, 1.8), (1.0, 0.7), 1.0)
_HOOD2 = BoxNeighborhood((0.8, 0.3))


@pytest.mark.parametrize("rel_tol", [1e-3, 1e-8, 1e-15])
@pytest.mark.parametrize("m, hood, levels", [
    (_M2, _HOOD2, range(1, 7)), (_M2, _HOOD2, range(3, 6)), (_M2, _HOOD2, range(2, 3)),
    (_M3, _HOOD3, range(1, 4)), (_M3, _HOOD3, range(2, 3)),
    (_RADIAL3, _HOOD3_RUNS, range(1, 4)), (_RADIAL3, _HOOD3_RUNS, range(3, 4)),
], ids=["2d-1-6", "2d-3-5", "2d-one-level", "3d-aniso-1-3", "3d-aniso-one-level",
        "3d-radial-1-3", "3d-radial-one-level"])
def test_level_loop_is_the_one_call_per_level_loop(monkeypatch, m, hood, levels, rel_tol):
    # the same value, or the same refusal, as one pass of g per level
    g = _mass_integrand(m, hood)
    monkeypatch.setitem(quadrature._LEVELS, m.dim, (quadrature._LEVELS[m.dim][0], levels))

    def run(loop):
        try:
            return loop(m.angular_alphas, g, (0.4, math.inf), [0.01], rel_tol, "x")
        except QuadratureBudgetError as err:
            return str(err)

    assert run(_level_loop) == run(reference.refined_orthant_integral_loop)


@pytest.mark.parametrize("body, m, t, rel_tol", [
    (Ball(1.0), RadialPowerMeasure.with_total_mass(2.5, 1.0, 1.0, dim=2), [30.0, 70.0], 1e-6),
    (Cube(2), RadialPowerMeasure.with_total_mass(2.0, 1.0, 1.0, dim=2), [100.0, 130.0], 1e-6),
    (Ball(1.0), _M2, [40.0, 25.0], 1e-6),
    (Cube(3), RadialPowerMeasure.with_total_mass(2.0, 1.0, 1.0, dim=3), [30.0, 45.0, 60.0], 1e-6),
    (Ball(1.0, dim=3), _M3, [10.0, 13.0, 7.0], 1e-4),
], ids=["ball-radial", "cube-radial", "ball-aniso", "cube-3d", "ball-aniso-3d"])
def test_decay_integrals_are_those_of_the_one_call_per_level_loop(monkeypatch, body, m, t,
                                                                  rel_tol):
    # g treats each row on its own, so sharing a call changes no bit
    want = decay_integral(body, m, t, rel_tol)
    monkeypatch.setattr(rates, "refined_orthant_integral",
                        reference.refined_orthant_integral_rows_loop)
    assert decay_integral(body, m, t, rel_tol) == want


def _two_rows(calls: list, raising=None):
    """g of two rows: row 0 constant, so its levels agree at once, row 1
    kinked at omega_1 = 0.3, so it refines for longer; records the
    directions of each row in each call, and raises a budget failure on
    `raising`, as the cube's kernel raises its overflow."""
    def g(om, row):
        row = np.broadcast_to(row, len(om))
        calls.append(np.bincount(row, minlength=2).tolist())
        if raising is not None and np.any(row == raising):
            raise QuadratureBudgetError(f"row {raising} raises")
        return np.where(row == 0, 1.0, np.abs(om[:, 0] - 0.3))
    return g


def test_rows_leave_the_loop_at_their_own_level():
    # one call for levels 1 and 2 of both rows (3 and 6 segments of 16 nodes);
    # row 0 stops at level 2 and is not passed to g again, row 1 goes on alone
    calls = []
    got = refined_orthant_integral((1.0, 1.0), _two_rows(calls), [NO_LAYERS] * 2, (), 1e-4,
                                   ["a", "b"])
    assert calls == [[96, 96], [0, 128], [0, 256]]
    assert got == [_level_loop((1.0, 1.0), lambda om: np.ones(len(om)), NO_LAYERS, (), 1e-4, "a"),
                   _level_loop((1.0, 1.0), lambda om: np.abs(om[:, 0] - 0.3), NO_LAYERS, (), 1e-4,
                               "b")]


@pytest.mark.parametrize("rows, raising, want", [
    ([0, 1], 0, "row 0 raises"),  # the first row raises at once
    ([1, 0], 1, "row 1 raises"),
    ([1, 1], 1, "row 1 raises"),
], ids=["first-raises", "second-raises-after-a-constant-row", "both-raise"])
def test_an_exception_of_g_fails_the_first_row_that_raises_it(rows, raising, want):
    # the pass is run again row by row, in row order, and the first row
    # whose g raises fails with that exception, as one row at a time does
    def per_row(calls):
        g = _two_rows(calls, raising)
        return lambda om, row: g(om, np.asarray(rows)[np.broadcast_to(row, len(om))])

    with pytest.raises(QuadratureBudgetError, match=want):
        refined_orthant_integral((1.0, 1.0), per_row([]), [NO_LAYERS] * 2, (), 1e-4, ["a", "b"])
    with pytest.raises(QuadratureBudgetError, match=want):
        reference.refined_orthant_integral_rows_loop((1.0, 1.0), per_row([]), [NO_LAYERS] * 2, (),
                                                     1e-4, ["a", "b"])


def test_a_failure_waits_for_the_rows_before_it():
    # row 0 cannot reach rel_tol = 1e-15 and fails after the last level,
    # while row 1's g raises in the first call: the grid raises row 0's
    # failure, as row 0 alone raises it first
    def g(om, row):
        if np.any(np.broadcast_to(row, len(om)) == 1):
            raise QuadratureBudgetError("row 1 raises")
        return np.abs(om[:, 0] - 0.3)

    for loop in (refined_orthant_integral, reference.refined_orthant_integral_rows_loop):
        with pytest.raises(QuadratureBudgetError, match=r"did not reach rel_tol=1e-15 for a$"):
            loop((1.0, 1.0), g, [NO_LAYERS] * 2, (), 1e-15, ["a", "b"])


def test_level_loop_in_d1_takes_the_one_direction():
    g, sizes = _scripted([0.75], [1])
    got = _level_loop((1.0,), g, NO_LAYERS, (), rel_tol=1e-6, label="x")
    assert got == 1.5 and sizes == [1]


@pytest.mark.parametrize("t, n_levels", [([3.0, 4.0], 6), ([3.0, 4.0, 5.0], 4)],
                         ids=["d2", "d3"])
def test_decay_refinement_failure_names_t(monkeypatch, t, n_levels):
    # levels that never agree: the real loop gives up after its last level,
    # level 6 in d = 2 and level 4 in d = 3
    calls = iter(range(1, 100))
    monkeypatch.setattr(quadrature, "_orthant_integrals",
                        lambda alphas, g, rules, order, uses: [float(next(calls))
                                                               for _ in uses])
    m = RadialPowerMeasure.with_total_mass(2.0, 1.0, 1.0, dim=len(t))
    with pytest.raises(QuadratureBudgetError) as err:
        decay_integral(Ball(1.0, dim=len(t)), m, t)
    assert str(err.value) == f"angular refinement did not reach rel_tol=1e-05 for t={t}"
    assert next(calls) == n_levels + 1  # levels 1 to n_levels


@pytest.mark.parametrize("compute", [
    lambda: decay_integral(Ball(1.0, dim=4), RadialPowerMeasure(2.0, 1.0, 1.0, 4), [3.0] * 4),
    lambda: mass(AnisotropicPowerMeasure((1.0,) * 4, (1.0,) * 4, 1.0),
                 EllipsoidNeighborhood((1.5, 0.3, 0.9, 0.2))),
    lambda: singular_integral(AnisotropicPowerMeasure((2.0,) * 4, (1.0, 2.0, 1.0, 1.0), 1.0), 5.0),
], ids=["decay", "straddling-mass", "aniso-singular"])
def test_angular_quadrature_refuses_d4(compute):
    with pytest.raises(ValueError, match="d <= 3"):
        compute()


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
