"""Gauss rules, cached read-only, the first-orthant angular integral with its
break policy, and vectorised bracketed searches.

The only place 1-D Gauss-Legendre and Gauss-Jacobi rules are built.  Two
consumers: the radial integrals in the rates machinery (panel and
singular-end segment rules), and every angular integral over the unit
sphere, by one of two policies that set breaks, order and refinement
here: `kink_orthant_integral` for neighborhood masses and the singular
integral's outer piece, and `refined_orthant_integral`, the level loop of
decay integrals, whose first two levels share one pass of the integrand.
Callers pass their integrand, its kinks and the widths of its boundary
layers; one end-grading rule serves both policies.  One builder,
`_line_rules`, makes every angular segment rule, for many break lists at
once: the interior segments are one broadcast of the cached
Gauss-Legendre rule, the singular end segments one Gauss-Jacobi call per
end, and each rule is bit for bit `end_power_rule` on its segment.  The
phi rules of one orthant-integral call come from one such call and, in
d = 3, every theta line's rule from one more; the integrand takes the
directions in consecutive chunks of at most `_ROWS_PER_CALL` rows, which
may cut across lines, each theta line is summed as np.sum sums it alone,
and the lines are added up in phi order.  Budgets are enforced
loudly, never silently.  Every root and peak search (ray zeros and peaks,
level sets) is one of the 1-D bracketed searches at the end, which work
on many brackets at once.

Gauss-Legendre rules come from numpy.  Gauss-Jacobi rules (the
singular-end segments) come from `scipy.special.roots_jacobi`, imported
when the first such rule is built and cached with it: the import takes
more than half of a bare `import ergrates`, and commands that build no
singular-end rule never pay it.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

__all__ = [
    "QuadratureBudgetError",
    "gl_edges_rule",
    "end_power_rule",
    "kink_orthant_integral",
    "refined_orthant_integral",
    "bisect",
    "bracketed_roots",
    "bracketed_maxima",
]


class QuadratureBudgetError(RuntimeError):
    """Raised when a tolerance is unreachable within the node budget."""


def _read_only(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Freeze a cached rule: every caller shares the same arrays."""
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@functools.cache
def _gl(order: int) -> tuple[np.ndarray, np.ndarray]:
    return _read_only(*np.polynomial.legendre.leggauss(order))


@functools.cache
def _jacobi(order: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi rule for the weight (1-x)^alpha (1+x)^beta on [-1, 1]."""
    from scipy import special  # only singular-end rules need it; it slows every import

    return _read_only(*special.roots_jacobi(order, alpha, beta))


def gl_edges_rule(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for one Gauss-Legendre panel per pair of adjacent edges."""
    edges = np.asarray(edges, dtype=float)
    x, w = _gl(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def end_power_rule(a: float, b: float, exponent: float, at_lower: bool, order: int,
                   scale=None):
    """Rule on [a, b] for integrands ~ (x-a)^exponent or (b-x)^exponent.

    Returned weights apply to the full integrand (the singular factor is
    divided back out at the nodes), so callers never special-case ends.
    exponent = 0 gives the plain Gauss-Legendre rule on [a, b].  Column
    arrays a, b of shape (N, 1) give N rules at once, one per row; `scale`,
    when given, is the column of ((b-a)/2)^(exponent+1) factors of the
    weights, which numpy's array power can round apart from the scalar one.
    """
    if exponent == 0.0:
        x, w = _gl(order)
    else:
        x, w = _jacobi(order, 0.0, exponent) if at_lower else _jacobi(order, exponent, 0.0)
    half = 0.5 * (b - a)
    nodes = a + half * (x + 1.0)
    if exponent == 0.0:
        return nodes, half * w
    if scale is None:
        scale = half ** (exponent + 1.0)
    dist = nodes - a if at_lower else b - nodes
    return nodes, w * scale / dist ** exponent


def _line_rules(lines, exp_lo: float, exp_hi: float, order: int):
    """Per-segment rules on each break list in `lines`, all at once: flat
    (nodes, weights), one line after another, and the node count of each
    line.  Each list must strictly increase.  On each line the first
    segment is singular as (x - lo)^exp_lo, the last as (hi - x)^exp_hi
    and the rest are Gauss-Legendre, one broadcast for all; the end
    segments of all lines are one column-array `end_power_rule` call per
    end, whose scale is taken per line as a Python float, so each rule is
    bit for bit `end_power_rule` on its segment.  A single segment cannot
    absorb two singular ends: ValueError."""
    n_seg = np.array([len(tb) - 1 for tb in lines])
    if exp_lo != 0.0 and exp_hi != 0.0 and np.any(n_seg == 1):
        raise ValueError("a break list of one segment cannot absorb two singular ends")
    edges = np.fromiter(itertools.chain.from_iterable(lines), float)
    stop = np.cumsum(n_seg)  # one past each line's last segment
    inner = np.ones(edges.size - 1, dtype=bool)  # pairs of breaks within one line
    inner[stop[:-1] + np.arange(n_seg.size - 1)] = False
    lo, hi = edges[:-1][inner], edges[1:][inner]
    x, w = _gl(order)
    half = 0.5 * (hi - lo)
    nodes = lo[:, None] + half[:, None] * (x + 1.0)
    weights = half[:, None] * w
    for exponent, at_lower in ((exp_lo, True), (exp_hi, False)):
        if exponent != 0.0:
            rows = stop - n_seg if at_lower else stop - 1
            scale = np.array([h ** (exponent + 1.0) for h in half[rows].tolist()])
            nodes[rows], weights[rows] = end_power_rule(lo[rows][:, None], hi[rows][:, None],
                                                        exponent, at_lower, order, scale[:, None])
    return nodes.ravel(), weights.ravel(), n_seg * order


# rows of directions per call of the angular integrand in d = 3, which bounds
# the transient arrays; chunks need not follow phi lines
_ROWS_PER_CALL = 4096


def _orthant_integrals(alphas, g, rules, order: int) -> list[float]:
    """2^d times the integral of g over the first orthant of the unit sphere,
    d = 2 or 3, on each (breaks, theta_breaks) in `rules`: g is called on
    the directions of all of them at once and each is summed on its own.

    g maps unit directions (rows) to the full angular integrand, including
    its |omega_k|^(alpha_k - 1) axis factors; the alphas tell the segment
    rules which end singularities to absorb.  The azimuth phi runs over
    `breaks`; in d = 3 the polar angle theta of the i-th phi node runs over
    `theta_breaks(phi)[i]`, where phi is the array of every phi node of the
    rule, and the sin(theta) surface element is included: the directions
    are (sin theta cos phi, sin theta sin phi, cos theta).
    The phi rules of all of them come from one `_line_rules` call, and in
    d = 3 the theta rules of all their phi nodes from one more.  In d = 3 g
    is called on consecutive chunks of at most _ROWS_PER_CALL rows that may
    cut across phi lines and rules, so it must treat every row on its own.
    Each phi line's theta sum is the one np.sum takes of that line alone
    (each run of consecutive lines of one length is summed as the rows of
    one 2-D view), and the lines are added up in phi order, one after
    another.
    """
    d = len(alphas)
    if d > 3:
        raise ValueError(f"orthant integrals support d <= 3, got d = {d}")
    a1, a2 = alphas[0], alphas[1]
    # phi end behavior: sin(phi)^(a2-1) at 0, cos(phi)^(a1-1) at pi/2
    phi, w_phi, n_phi = _line_rules([breaks for breaks, _ in rules], a2 - 1.0, a1 - 1.0, order)
    ends = [0, *itertools.accumulate(n_phi.tolist())]  # each rule's phi nodes are phi[a:b]
    spans = list(zip(ends[:-1], ends[1:]))
    if d == 2:
        vals = g(np.stack([np.cos(phi), np.sin(phi)], axis=-1))
        return [4.0 * float(np.sum(vals[a:b] * w_phi[a:b])) for a, b in spans]
    # theta end behavior: sin(theta)^(a1+a2-1) at 0, cos(theta)^(a3-1) at pi/2
    theta, terms, sizes = _line_rules(
        [tb for (_, theta_breaks), (a, b) in zip(rules, spans) for tb in theta_breaks(phi[a:b])],
        a1 + a2 - 1.0, alphas[2] - 1.0, order)
    line = np.repeat(np.arange(sizes.size, dtype=np.int32), sizes)  # the phi node of each row
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    for i in range(0, theta.size, _ROWS_PER_CALL):
        rows = slice(i, i + _ROWS_PER_CALL)
        th, k = theta[rows], line[rows]
        st = np.sin(th)
        om = np.stack([st * cos_phi[k], st * sin_phi[k], np.cos(th)], axis=-1)
        terms[rows] = g(om) * st * terms[rows]  # the weights become g sin(theta) w_theta
    # each run of lines of one length is summed as the rows of one 2-D view
    stop = np.cumsum(sizes)
    runs = np.flatnonzero(np.diff(sizes)) + 1
    sums = np.empty(sizes.size)
    for a, b in zip([0, *runs.tolist()], [*runs.tolist(), sizes.size]):
        sums[a:b] = terms[stop[a] - sizes[a]:stop[b - 1]].reshape(b - a, -1).sum(axis=1)
    # the lines of each rule added up sequentially, in phi order
    return [8.0 * float(np.cumsum(w_phi[a:b] * sums[a:b])[-1]) for a, b in spans]


# -- the break policy of the angular integrals ---------------------------------
#
# The fixed kink rule (masses, the singular integral's outer piece): Gauss
# order 24 on every angle's kinks plus its ends (and pi/4 in d = 3), refined
# to pi/32 in d = 2 and to pi/16 in d = 3.  A kink closer than 1/16 of that
# step to a singular end is graded away from it by factors of 4 up to the
# step: otherwise the plain Gauss segment after the thin end rule meets the
# end singularity just outside itself and can be off by 1e-3.
#
# The level loop (decay integrals): (Gauss order, levels) by d, and kinks and
# boundary layers graded away from an end up to pi/4.  Without breaks d = 3
# splits each angle into 2 to 16 equal segments; adequate for the moderate |t|.
_LEVELS = {2: (16, range(1, 7)), 3: (12, range(1, 5))}


def _end_layers(first0: float, first1: float, ratio: float, limit: float) -> list[float]:
    """Breaks graded away from both ends of [0, pi/2]: 0 + x and pi/2 - x for
    x = first * ratio^j, j >= 0, strictly below limit, with first0 at 0 and
    first1 at pi/2.  A first that is not a positive number (0, NaN, inf)
    grades nothing."""
    out = []
    for first, end, sign in ((first0, 0.0, 1.0), (first1, math.pi / 2, -1.0)):
        x = first if first > 0.0 else math.inf
        while x < limit:
            out.append(end + sign * x)
            x *= ratio
    return out


def _graded_kinks(kinks, near: float = math.pi / 2, limit: float = math.pi / 4) -> list[float]:
    """0, pi/2 and the kinks strictly between them, sorted, with the kink
    nearest each end, when closer to it than `near`, graded away from it by
    factors of 4 up to limit; by default as the level loop grades them."""
    breaks = sorted({0.0, math.pi / 2} | {float(b) for b in kinks if 0.0 < b < math.pi / 2})
    gaps = (breaks[1], math.pi / 2 - breaks[-2])
    graded = _end_layers(*(4.0 * gap if gap < near else math.inf for gap in gaps), 4.0, limit)
    return sorted(set(breaks + graded))


def _kink_breaks(d: int, kinks, singular_ends: bool) -> list[float]:
    """Breaks of one angle on [0, pi/2] under the fixed kink rule."""
    step = math.pi / 32 if d == 2 else math.pi / 16
    breaks = _graded_kinks([*kinks, math.pi / 4] if d == 3 else kinks,
                           step / 16 if singular_ends else 0.0, step)
    out = []
    for a, b in zip(breaks[:-1], breaks[1:]):
        n = max(1, math.ceil((b - a) / step))
        out.extend(a + (b - a) * k / n for k in range(n))
    return out + [breaks[-1]]


def kink_orthant_integral(alphas, g, kinks) -> float:
    """`_orthant_integrals` of g under the fixed kink rule: kinks() gives the
    azimuths where g kinks and, in d = 3, kinks(phi) the polar angles at each
    azimuth in phi.  The ends are singular, and a kink near one is graded
    away from it, when some alpha_k != 1 puts an |omega_k|^(alpha_k - 1)
    factor in g.  Azimuths with the same polar kinks share one break list."""
    singular_ends = any(a != 1.0 for a in alphas)
    theta_breaks = functools.cache(lambda k: _kink_breaks(3, k, singular_ends))
    rule = (_kink_breaks(len(alphas), kinks(), singular_ends),
            lambda phi: [theta_breaks(tuple(k)) for k in kinks(phi)])
    return _orthant_integrals(alphas, g, [rule], 24)[0]


def _bisected(breaks: list[float]) -> list[float]:
    return sorted(set(breaks) | {(a + b) / 2 for a, b in zip(breaks[:-1], breaks[1:])})


def refined_orthant_integral(alphas, g, layers, kinks, rel_tol: float, label: str) -> float:
    """`_orthant_integrals` of g on the kinks of g, graded away from an end
    they are near, and on breaks w 2^j below pi/4 from each end, w in
    `layers`, the widths of g's boundary layers next to phi = 0 and pi/2
    (inf for none), every segment bisected k times at level k, for phi and
    theta alike: the first level in `_LEVELS` within rel_tol of the one
    before it.  The first level has none before it to agree with, so it
    never stops the loop, and the first two levels take one call of g
    together.  A rel_tol below double precision is refused at once: two
    levels that agree to the last bit do not show an error that small.
    It raises QuadratureBudgetError naming `label` at the first level whose
    value is not finite, and after the last level.
    d = 1 is the one direction e_1.
    """
    if rel_tol < np.finfo(float).eps:
        raise QuadratureBudgetError(f"rel_tol={rel_tol:g} is below double precision; "
                                    "no refinement can confirm it")
    d = len(alphas)
    if d == 1:
        return 2.0 * float(g(np.array([[1.0]]))[0])
    if d > 3:
        raise ValueError(f"orthant integrals support d <= 3, got d = {d}")
    order, levels = _LEVELS[d]
    breaks = sorted(set(_graded_kinks(kinks)) | set(_end_layers(*layers, 2.0, math.pi / 4)))
    for _ in range(levels.start):
        breaks = _bisected(breaks)
    values, prev = [], math.nan
    for i in range(len(levels)):
        if i == len(values):
            lists = [breaks, _bisected(breaks)] if i == 0 and len(levels) > 1 else [breaks]
            # theta takes a level's phi breaks at every phi node
            rules = [(b, lambda phi, b=b: [b] * phi.size) for b in lists]
            values += _orthant_integrals(alphas, g, rules, order)
            breaks = _bisected(lists[-1])
        cur = values[i]
        if not math.isfinite(cur):
            raise QuadratureBudgetError(
                f"angular level {levels[i]} is not finite ({cur}) for {label}")
        if abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise QuadratureBudgetError(f"angular refinement did not reach rel_tol={rel_tol:g} for {label}")


# -- bracketed searches: one call of f per step, every bracket shrunk alike --


def _steps(width, xtol: float, factor: float) -> int:
    widest = float(np.max(width, initial=0.0))
    return math.ceil(math.log(widest / xtol, factor)) if widest > xtol else 0


def bisect(f, lo, hi, rising, xtol: float) -> np.ndarray:
    """Roots of f to xtol on brackets [lo, hi] where f(lo) <= 0 < f(hi) (`rising`)
    or f(lo) > 0 >= f(hi) (not `rising`): the midpoints of the last brackets."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    for _ in range(_steps(hi - lo, xtol, 2.0)):
        mid = 0.5 * (lo + hi)
        up = (f(mid) > 0.0) == rising
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    return 0.5 * (lo + hi)


def bracketed_roots(f, grid, xtol: float) -> np.ndarray:
    """Sorted zeros of f along the 1-D grid: sign changes between neighbouring
    nodes, bisected to xtol all together, and inner nodes where f is 0 next
    to one where it is not."""
    grid = np.asarray(grid, dtype=float)
    vals = f(grid)
    change = vals[:-1] * vals[1:] < 0.0
    roots = bisect(f, grid[:-1][change], grid[1:][change], vals[:-1][change] < 0.0, xtol)
    zero = vals == 0.0
    zero[1:-1] &= ~(zero[:-2] & zero[2:])
    zero[[0, -1]] = False
    return np.sort(np.concatenate([grid[zero], roots]))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def bracketed_maxima(f, lo, hi, xtol: float) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section search, to xtol, for the one local maximum of f in each
    bracket [lo, hi]: (locations, values)."""
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_steps(b - a, xtol, 1.0 / _GOLDEN)):
        left = fc > fd  # the maximum is in [a, d], else in [c, b]
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        fx = f(x)
        c, d, fc, fd = (np.where(left, x, d), np.where(left, c, x),
                        np.where(left, fx, fd), np.where(left, fc, fx))
    return np.where(fc > fd, c, d), np.maximum(fc, fd)
