"""Gauss rules, cached read-only, the first-orthant angular integral with its
break policy, and vectorised bracketed searches.

The only place 1-D Gauss-Legendre and Gauss-Jacobi rules are built.  Two
consumers: the radial integrals in the rates machinery (panel and
singular-end segment rules), and every angular integral over the unit
sphere, by one of two policies that set breaks, order and refinement
here: `kink_orthant_integral` for neighborhood masses and the singular
integral's outer piece, and `refined_orthant_integral`, the level loop of
decay integrals, run on every row of a grid at once, each row leaving at
its own level.  Callers pass their integrand, its kinks and the widths
of each row's boundary layers; one end-grading rule serves both
policies.  One builder, `_line_rules`, makes every angular segment rule,
for many break lists at once: the interior segments are one broadcast of
the cached Gauss-Legendre rule, the singular end segments one
Gauss-Jacobi call per end, and each rule is bit for bit `end_power_rule`
on its segment.  The integrand takes the directions in chunks of at most
`_ROWS_PER_CALL`, each theta line is summed as np.sum sums it alone, and
the lines are added up in phi order.  Budgets are enforced loudly, never
silently.  Every root and peak search (ray zeros and peaks, level sets)
is one of the 1-D bracketed searches at the end, which work on many
brackets at once.

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


# directions per call of the angular integrand, counted over every row, which
# bounds the transient arrays; chunks need not follow phi lines or rows
_ROWS_PER_CALL = 4096


def _orthant_integrals(alphas, g, rules, order: int, uses) -> list[float]:
    """2^d times the integral of g over the first orthant of the unit sphere,
    d = 2 or 3, for each (k, row) in `uses` on rules[k] = (breaks,
    theta_breaks), each use summed on its own.

    g(om, row) maps unit directions om[i] of rows row[i] (or of row[0]
    alone, when every use has it: g broadcasts it) to the full angular
    integrand, including its |omega_k|^(alpha_k - 1) axis factors; the
    alphas tell the segment rules which end singularities to absorb.  The
    azimuth phi runs over `breaks`; in d = 3 the polar angle theta of the
    i-th phi node runs over `theta_breaks(phi)[i]`, where phi is the array
    of every phi node of the rule, and the sin(theta) surface element is
    included: the directions are (sin theta cos phi, sin theta sin phi,
    cos theta).  One `_line_rules` call builds every phi rule, and in d = 3
    one more every theta rule; g takes the directions of all uses in
    consecutive chunks of at most _ROWS_PER_CALL, which may cut across phi
    lines and uses.  A use's sum in d = 2 is the one np.sum takes of its
    slice; in d = 3 each phi line's theta sum is the one np.sum takes of
    that line alone (runs of lines of one length are summed as the rows of
    one 2-D view), and the lines are added up in phi order.
    """
    d = len(alphas)
    if d > 3:
        raise ValueError(f"orthant integrals support d <= 3, got d = {d}")
    a1, a2 = alphas[0], alphas[1]
    # phi end behavior: sin(phi)^(a2-1) at 0, cos(phi)^(a1-1) at pi/2
    phi, w_phi, n_phi = _line_rules([breaks for breaks, _ in rules], a2 - 1.0, a1 - 1.0, order)
    ends = [0, *itertools.accumulate(n_phi.tolist())]  # rule k's phi[ends[k]:ends[k + 1]]
    spans = [(ends[k], ends[k + 1]) for k, _ in uses]
    at = [0, *itertools.accumulate(b - a for a, b in spans)]  # where each use's phi nodes start
    rows = [r for _, r in uses]
    one = rows.count(rows[0]) == len(rows)  # g then takes that row alone
    whole = [k for k, _ in uses] == list(range(len(rules)))  # else each use's nodes are picked

    def picked(spans):
        return slice(None) if whole else np.concatenate([np.arange(a, b) for a, b in spans])

    if d == 2:
        om = np.empty((phi.size, 2))
        om[:, 0], om[:, 1] = np.cos(phi), np.sin(phi)
        om, who = om[picked(spans)], np.array(rows[:1]) if one else np.repeat(rows, np.diff(at))
        vals = np.empty(len(om))
        for i in range(0, len(om), _ROWS_PER_CALL):
            part = slice(i, i + _ROWS_PER_CALL)
            vals[part] = g(om[part], who if one else who[part])
        return [4.0 * float((vals[i:j] * w_phi[a:b]).sum())  # the sum np.sum takes
                for (a, b), i, j in zip(spans, at, at[1:])]
    # theta end behavior: sin(theta)^(a1+a2-1) at 0, cos(theta)^(a3-1) at pi/2
    theta, terms, sizes = _line_rules(
        [tb for (_, theta_breaks), a, b in zip(rules, ends, ends[1:])
         for tb in theta_breaks(phi[a:b])],
        a1 + a2 - 1.0, alphas[2] - 1.0, order)
    line = np.repeat(np.arange(sizes.size, dtype=np.int32), sizes)  # the phi node of each node
    stop = np.cumsum(sizes)  # line j's nodes end at theta[stop[j]]
    if not whole:  # from here on, the lines of each use, one after another
        nodes = picked([(stop[a] - sizes[a], stop[b - 1]) for a, b in spans])
        theta, terms, line, sizes = theta[nodes], terms[nodes], line[nodes], sizes[picked(spans)]
        stop = np.cumsum(sizes)
    who = np.array(rows[:1]) if one else np.repeat(rows, np.diff(np.concatenate(([0], stop))[at]))
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    for i in range(0, theta.size, _ROWS_PER_CALL):
        part = slice(i, i + _ROWS_PER_CALL)
        th, k = theta[part], line[part]
        st = np.sin(th)
        om = np.stack([st * cos_phi[k], st * sin_phi[k], np.cos(th)], axis=-1)
        # the weights become g sin(theta) w_theta
        terms[part] = g(om, who if one else who[part]) * st * terms[part]
    # each run of lines of one length is summed as the rows of one 2-D view
    runs = np.flatnonzero(np.diff(sizes)) + 1
    sums = np.empty(sizes.size)
    for a, b in zip([0, *runs.tolist()], [*runs.tolist(), sizes.size]):
        sums[a:b] = terms[stop[a] - sizes[a]:stop[b - 1]].reshape(b - a, -1).sum(axis=1)
    # the lines of each use added up sequentially, in phi order
    return [8.0 * float(np.cumsum(w_phi[a:b] * sums[i:j])[-1])
            for (a, b), i, j in zip(spans, at, at[1:])]


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
    return _orthant_integrals(alphas, lambda om, row: g(om), [rule], 24, [(0, 0)])[0]


def _bisected(breaks: list[float]) -> list[float]:
    return sorted({*breaks, *[(a + b) / 2 for a, b in zip(breaks, breaks[1:])]})


def refined_orthant_integral(alphas, g, layers, kinks, rel_tol: float, labels) -> list[float]:
    """`_orthant_integrals` of g for each row r, on the kinks of g, graded
    away from an end they are near, and on breaks w 2^j below pi/4 from each
    end, w in layers[r], the widths of row r's boundary layers next to
    phi = 0 and pi/2 (inf for none), every segment bisected k times at
    level k, for phi and theta alike: a row's first level in `_LEVELS`
    within rel_tol of the one before it.  Each level is one call of
    g(om, row) on every row still refining (the first two levels share
    one), and rows with the same layers share every rule.  A rel_tol below
    double precision is refused at once: two levels that agree to the last
    bit do not show an error that small.  A row fails with
    QuadratureBudgetError naming labels[r] at its first level that is not
    finite and after the last level, or with the QuadratureBudgetError g
    raises on it alone; a failure ends the rows after it and is raised once
    the rows before it stop, as one row at a time raises it.  d = 1 is e_1.
    """
    if rel_tol < np.finfo(float).eps:
        raise QuadratureBudgetError(f"rel_tol={rel_tol:g} is below double precision; "
                                    "no refinement can confirm it")
    d, n = len(alphas), len(layers)
    if d == 1:
        return [2.0 * v for v in g(np.ones((n, 1)), np.arange(n)).tolist()]
    if d > 3:
        raise ValueError(f"orthant integrals support d <= 3, got d = {d}")
    order, levels = _LEVELS[d]
    kinked = set(_graded_kinks(kinks))  # rows with the same layers share their breaks
    breaks = {w: sorted(kinked | set(_end_layers(*w, 2.0, math.pi / 4))) for w in layers}
    for _ in range(levels.start):
        breaks = {w: _bisected(b) for w, b in breaks.items()}
    prev, pending, error = [math.nan] * n, list(range(n)), None  # pending rows in row order
    for i, level in enumerate(levels):
        if i != 1 and pending:  # one pass of g; the first takes the first two levels
            count = 2 if i == 0 and len(levels) > 1 else 1
            rules, slot, uses = [], {}, []
            for r in pending:
                w = layers[r]
                if w not in slot:
                    slot[w] = len(rules)
                    b = breaks[w] if i == 0 else _bisected(breaks[w])
                    bs = (b, _bisected(b)) if count == 2 else (b,)
                    # theta takes a level's phi breaks at every phi node
                    rules += [(x, lambda phi, x=x: [x] * phi.size) for x in bs]
                    breaks[w] = bs[-1]
                uses += ((slot[w] + j, r) for j in range(count))
            try:
                values = _orthant_integrals(alphas, g, rules, order, uses)
            except QuadratureBudgetError:  # again row by row: the first row that raises fails
                values = []
                for j in range(len(pending)):
                    try:
                        values += _orthant_integrals(alphas, g, rules, order,
                                                     uses[j * count:(j + 1) * count])
                    except QuadratureBudgetError as err:
                        pending, error = pending[:j], err
                        break
        still = []
        for j, r in enumerate(pending):
            cur = values[j * count + i % count]  # the pass's values, count a row
            if not math.isfinite(cur):
                error = QuadratureBudgetError(
                    f"angular level {level} is not finite ({cur}) for {labels[r]}")
                break
            if not abs(cur - prev[r]) <= rel_tol * max(abs(cur), 1e-300):  # nan at first
                still.append(r)
            prev[r] = cur
        pending = still
    if pending:
        raise QuadratureBudgetError(
            f"angular refinement did not reach rel_tol={rel_tol:g} for {labels[pending[0]]}")
    if error is not None:
        raise error
    return prev


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
