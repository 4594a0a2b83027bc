"""Gauss rules, cached read-only, the first-orthant angular integral with its
break policy, and vectorised bracketed searches.

The only place 1-D Gauss-Legendre and Gauss-Jacobi rules are built.  Two
consumers: the radial integrals in the rates machinery (panel and
singular-end segment rules), and every angular integral over the unit
sphere, which all go through `orthant_integral`, with breaks, order and
refinement set here: the fixed kink rule for neighborhood masses and the
singular integral's outer piece, the level loop for decay integrals.
Callers pass only their integrand and its kinks.  Budgets are enforced
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
import math

import numpy as np

__all__ = [
    "QuadratureBudgetError",
    "gl_edges_rule",
    "end_power_rule",
    "segment_rules",
    "graded_breaks",
    "orthant_directions",
    "orthant_integral",
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


def end_power_rule(a: float, b: float, exponent: float, at_lower: bool, order: int):
    """Rule on [a, b] for integrands ~ (x-a)^exponent or (b-x)^exponent.

    Returned weights apply to the full integrand (the singular factor is
    divided back out at the nodes), so callers never special-case ends.
    exponent = 0 gives the plain Gauss-Legendre rule on [a, b].  Column
    arrays a, b of shape (N, 1) give N rules at once, one per row.
    """
    if exponent == 0.0:
        x, w = _gl(order)
    else:
        x, w = _jacobi(order, 0.0, exponent) if at_lower else _jacobi(order, exponent, 0.0)
    half = 0.5 * (b - a)
    nodes = a + half * (x + 1.0)
    if exponent == 0.0:
        return nodes, half * w
    dist = nodes - a if at_lower else b - nodes
    return nodes, w * (half ** (exponent + 1.0)) / dist ** exponent


def segment_rules(breaks: list[float], exp_lo: float, exp_hi: float, order: int):
    """Per-segment rules on [breaks[0], breaks[-1]] with singular ends; the
    breaks must strictly increase."""
    nodes, weights = [], []
    n_seg = len(breaks) - 1
    for i in range(n_seg):
        a, b = breaks[i], breaks[i + 1]
        if i == 0 and exp_lo != 0.0:
            nd, wt = end_power_rule(a, b, exp_lo, at_lower=True, order=order)
        else:
            exponent = exp_hi if i == n_seg - 1 else 0.0
            nd, wt = end_power_rule(a, b, exponent, at_lower=False, order=order)
        nodes.append(nd)
        weights.append(wt)
    return np.concatenate(nodes), np.concatenate(weights)


def graded_breaks(first: float, limit: float, ratio: float) -> list[float]:
    """first * ratio^j for j >= 0, strictly below limit: distances from an end
    (or an axis) of breaks graded away from it."""
    out = []
    while first < limit:
        out.append(first)
        first *= ratio
    return out


def orthant_directions(phi, theta=None) -> np.ndarray:
    """Unit directions (rows) in the first orthant of the sphere.

    d = 2: (cos phi, sin phi) for an array of phi.  d = 3: an array of polar angles
    theta, measured from the x_3 axis, and azimuths phi that broadcast to it.
    """
    if theta is None:
        return np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


# rows of directions per call of the angular integrand in d = 3: whole phi
# lines are batched up to this count, which bounds the transient arrays
_ROWS_PER_CALL = 4096


def orthant_integral(alphas, g, breaks, order: int, theta_breaks=None) -> float:
    """2^d times the integral of g over the first orthant of the unit sphere.

    g maps unit directions (rows) to the full angular integrand, including
    its |omega_k|^(alpha_k - 1) axis factors; the alphas tell the segment
    rules which end singularities to absorb.  d = 1 is the one direction
    e_1 (breaks and order unused).  In d = 2 and 3 the azimuth phi runs
    over `breaks`; in d = 3 the polar angle theta of the i-th phi node runs
    over `theta_breaks(phi)[i]`, where phi is the array of every phi node,
    and the sin(theta) surface element is included.
    g is called on batches of rows (in d = 3, of whole phi lines), so it
    must treat every row on its own.
    """
    d = len(alphas)
    if d == 1:
        return 2.0 * float(g(np.array([[1.0]]))[0])
    if d > 3:
        raise ValueError(f"orthant integrals support d <= 3, got d = {d}")
    a1, a2 = alphas[0], alphas[1]
    # phi end behavior: sin(phi)^(a2-1) at 0, cos(phi)^(a1-1) at pi/2
    phi, w_phi = segment_rules(breaks, exp_lo=a2 - 1.0, exp_hi=a1 - 1.0, order=order)
    if d == 2:
        return 4.0 * float(np.sum(g(orthant_directions(phi)) * w_phi))
    # theta end behavior: sin(theta)^(a1+a2-1) at 0, cos(theta)^(a3-1) at pi/2
    rules = [segment_rules(tb, exp_lo=a1 + a2 - 1.0, exp_hi=alphas[2] - 1.0, order=order)
             for tb in theta_breaks(phi)]
    # one call of g per batch of whole phi lines, at most _ROWS_PER_CALL rows
    per_call = max(1, _ROWS_PER_CALL // max(th.size for th, _ in rules))
    total = 0.0
    for i in range(0, len(rules), per_call):
        batch = range(i, min(i + per_call, len(rules)))
        sizes = [rules[k][0].size for k in batch]
        vals = g(orthant_directions(np.repeat(phi[batch.start:batch.stop], sizes),
                                    np.concatenate([rules[k][0] for k in batch])))
        start = 0
        for k in batch:
            th, w_th = rules[k]
            total += w_phi[k] * float(np.sum(vals[start:start + th.size] * np.sin(th) * w_th))
            start += th.size
    return 8.0 * float(total)


# -- the break policy of the angular integrals ---------------------------------
#
# The fixed kink rule (masses, the singular integral's outer piece): Gauss
# order 24 on every angle's kinks plus its ends (and pi/4 in d = 3), refined
# to pi/32 in d = 2 and to pi/16 in d = 3.  A kink closer than 1/16 of that
# step to a singular end is graded away from it by factors of 4 up to the
# step: otherwise the plain Gauss segment after the thin end rule meets the
# end singularity just outside itself and can be off by 1e-3.


def _kink_breaks(d: int, kinks, singular_ends: bool) -> list[float]:
    """Breaks of one angle on [0, pi/2] under the fixed kink rule."""
    step = math.pi / 32 if d == 2 else math.pi / 16
    base = {0.0, math.pi / 2} if d == 2 else {0.0, math.pi / 4, math.pi / 2}
    breaks = sorted(base | {float(b) for b in kinks if 0.0 < b < math.pi / 2})
    graded = []
    for gap, end, sign in ((breaks[1], 0.0, 1.0), (math.pi / 2 - breaks[-2], math.pi / 2, -1.0)):
        if singular_ends and gap < step / 16:
            graded += [end + sign * x for x in graded_breaks(4.0 * gap, step, 4.0)]
    breaks = sorted(set(breaks + graded))
    out = []
    for a, b in zip(breaks[:-1], breaks[1:]):
        n = max(1, math.ceil((b - a) / step))
        out.extend(a + (b - a) * k / n for k in range(n))
    return out + [breaks[-1]]


def kink_orthant_integral(alphas, g, kinks, singular_ends: bool) -> float:
    """`orthant_integral` of g under the fixed kink rule: kinks() gives the
    azimuths where g kinks and, in d = 3, kinks(phi) the polar angles at each
    azimuth in phi; `singular_ends` when g has |omega_k|^(alpha_k - 1) factors."""
    return orthant_integral(alphas, g, _kink_breaks(len(alphas), kinks(), singular_ends), 24,
                            lambda phi: [_kink_breaks(3, k, singular_ends) for k in kinks(phi)])


def refined_orthant_integral(alphas, g, base_breaks, order: int, levels: range,
                             rel_tol: float, label: str) -> float:
    """`orthant_integral` of g on {0, pi/2} and base_breaks, every segment
    bisected k times at level k, for phi and theta alike: the first level in
    `levels` within rel_tol of the one before it.  After the last level it
    raises QuadratureBudgetError naming `label`.  d = 1 has nothing to refine.
    """
    if len(alphas) == 1:
        return orthant_integral(alphas, g, (), 0)
    breaks = sorted({0.0, math.pi / 2} | set(base_breaks))
    prev = math.nan  # the first level has none before it to agree with
    for level in range(levels.stop):
        if level >= levels.start:
            cur = orthant_integral(alphas, g, breaks, order, lambda phi: [breaks] * phi.size)
            if abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300):
                return cur
            prev = cur
        breaks = sorted(set(breaks) | {(a + b) / 2 for a, b in zip(breaks[:-1], breaks[1:])})
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
