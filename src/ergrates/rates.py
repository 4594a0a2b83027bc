"""Decay integrals of ergodic averages and the rate criteria built on them.

The central object is

    I(t) = int |F[1_K](x o t)| ^ 2 / vol(K) ^ 2  dsigma(x),

the squared norm of the mean ergodic average over the dilated body K o t
against a spectral measure sigma.  Three routes are implemented: an exact
sum for atomic sigma, angular-radial quadrature for the continuous power
families, and a distribution-function route (integrate the level-set
masses of the damping factor) that exists purely to cross-check the
quadrature route.

On top of I(t) sit the rate criteria: least-squares fits of
log I = theta log p + beta log log p + c along geometric ladders,
boundedness verdicts for ratio sequences, and checkers tying the decay of
I(t) to the mass of shrinking neighborhoods (subcritical), to the
singular integral int |x|^(-(d+1)) dsigma inside bounded-ratio sectors
(critical), and to sigma = 0 (supercritical).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fourier import ratio_abs_sq, unit_ball_profile
from .geometry import Ball, ConvexBody, Cube, as_rows, as_vec, unit_ball_volume
from .quadrature import (
    QuadratureBudgetError,
    bisect,
    bracketed_maxima,
    bracketed_roots,
    end_power_rule,
    gl_edges_rule,
    refined_orthant_integral,
)
from .spectral import (
    AnisotropicPowerMeasure,
    AtomicMeasure,
    EllipsoidNeighborhood,
    RadialPowerMeasure,
    SpectralMeasure,
    SumMeasure,
    extent_kinks,
    is_zero_measure,
    mass,
    singular_integral,
)

__all__ = [
    "HomogeneousFunction",
    "power_phi",
    "monomial_phi",
    "parse_phi",
    "Sector",
    "p_ladder",
    "ray_grid",
    "sector_grid",
    "decay_integral",
    "decay_integral_levelform",
    "RateFit",
    "fit_oscillatory_rate",
    "rate_lstsq",
    "fit_rate",
    "BoundednessVerdict",
    "bounded_verdict",
    "check_rate_equivalence",
    "check_critical_rate",
    "check_supercritical_rate",
    "PredictedRate",
    "predicted_rate_from_mass_exponent",
]


# -- homogeneous comparison functions ----------------------------------------


@dataclass(frozen=True)
class HomogeneousFunction:
    """phi(t) = |t|^degree * sphere_fn(t / |t|) on the open positive cone.

    Homogeneity holds by construction, which is the point: every phi fed
    to the checkers satisfies phi(r t) = r^degree phi(t) up to rounding.
    """

    degree: float
    sphere_fn: Callable[[np.ndarray], float]
    label: str = ""

    def __call__(self, t) -> float:
        t = as_vec(t)
        if np.any(t <= 0.0):
            raise ValueError("phi is defined on the open positive cone only")
        r = float(np.linalg.norm(t))
        return r ** self.degree * float(self.sphere_fn(t / r))


def power_phi(p: float) -> HomogeneousFunction:
    """phi(t) = |t|^(-p)."""
    return HomogeneousFunction(degree=-p, sphere_fn=lambda w: 1.0, label=f"power:{p:.12g}")


def monomial_phi(exponents) -> HomogeneousFunction:
    """phi(t) = prod_k t_k^(-a_k)."""
    a = as_vec(exponents)

    def sphere(w):
        return float(np.prod(w ** (-a)))

    return HomogeneousFunction(
        degree=-float(np.sum(a)),
        sphere_fn=sphere,
        label="mono:" + ",".join(f"{v:.12g}" for v in a),
    )


def parse_phi(spec: str) -> HomogeneousFunction:
    spec = spec.strip()
    if spec.startswith("power:"):
        try:
            return power_phi(float(spec[len("power:"):]))
        except ValueError:
            raise ValueError(f"bad phi spec {spec!r}: exponent must be a number") from None
    if spec.startswith("mono:"):
        try:
            return monomial_phi([float(v) for v in spec[len("mono:"):].split(",")])
        except ValueError:
            raise ValueError(f"bad phi spec {spec!r}: exponents must be numbers") from None
    raise ValueError(f"unknown phi spec {spec!r} (expected power:p or mono:a1,a2,...)")


# -- sectors and grids -------------------------------------------------------


@dataclass(frozen=True)
class Sector:
    """X_B = {t > 0 : t_i <= B t_j for all i, j}, coordinate ratios bounded by B."""

    bound: float

    def __post_init__(self):
        if self.bound < 1.0:
            raise ValueError("sector bound must be >= 1")

    def contains(self, t):
        """Whether t is in X_B, within a relative slack of 1e-12.

        t is one vector (a bool comes back) or rows (N, d) of them (N bools
        come back).  Both take the same path, so a row has the same answer
        alone as among rows; a t with an entry <= 0 is outside, and a
        non-finite entry raises ValueError.
        """
        rows, one = as_rows(t)
        inside = np.all(rows > 0.0, axis=1) & (
            np.max(rows, axis=1) <= self.bound * np.min(rows, axis=1) * (1.0 + 1e-12))
        return bool(inside[0]) if one else inside


def p_ladder(p_lo: float, p_hi: float) -> np.ndarray:
    """Geometric ladder from p_lo to p_hi with step close to sqrt(2)."""
    if not (p_hi > p_lo > 0):
        raise ValueError("need 0 < p_lo < p_hi")
    n = max(2, round(math.log(p_hi / p_lo) / math.log(math.sqrt(2.0))) + 1)
    return np.geomspace(p_lo, p_hi, n)


def ray_grid(direction, p_values) -> np.ndarray:
    """Rows t = p * s for a fixed positive direction s."""
    s = as_vec(direction)
    if np.any(s <= 0):
        raise ValueError("ray direction must be positive in every coordinate")
    p = np.asarray(p_values, dtype=float)
    return p[:, None] * s[None, :]


def sector_grid(bound: float, dim: int, p_values) -> np.ndarray:
    """Ladder points along five directions spanning the sector X_B."""
    sec = Sector(bound)
    fracs = np.linspace(0.0, 1.0, 5)
    dirs = []
    for f in fracs:
        # sweep one coordinate from 1 to B and back through the diagonal
        vec = np.ones(dim)
        if f <= 0.5:
            vec[0] = 1.0 + (bound - 1.0) * (1.0 - 2.0 * f)
        else:
            vec[-1] = 1.0 + (bound - 1.0) * (2.0 * f - 1.0)
        dirs.append(vec / np.linalg.norm(vec))
    p = np.asarray(p_values, dtype=float)
    out = (p[:, None, None] * np.array(dirs)[None]).reshape(-1, dim)  # p outer, direction inner
    if not np.all(sec.contains(out)):
        raise ValueError(f"sector grid leaves the sector X_{bound:g}; p values must be positive")
    return out


# -- decay integrals ---------------------------------------------------------


# the most atom products one ratio_abs_sq call takes: rows are cut into chunks
# of _ATOMIC_CHUNK // n, so a long grid on a large measure stays a few MB
_ATOMIC_CHUNK = 1 << 16
# rows per level loop, taken in row order, so a long grid's passes stay tens of MB
_LOOP_ROWS = 64


def _atomic_rows(body: ConvexBody, m: AtomicMeasure, rows: np.ndarray) -> np.ndarray:
    """I(t) for each row t: every product x_j o t of a chunk in one ratio_abs_sq
    call, each row's weighted sum over its n atoms in the pairwise order of
    np.sum over those n alone."""
    n = len(m.points)
    out = np.zeros(len(rows))
    if not n:
        return out
    locs, w = m.locations, m.weight_array
    step = max(1, _ATOMIC_CHUNK // n)
    for lo in range(0, len(rows), step):
        chunk = rows[lo:lo + step]
        pts = (locs[None, :, :] * chunk[:, None, :]).reshape(-1, m.dim)
        out[lo:lo + step] = np.sum(w * ratio_abs_sq(body, pts).reshape(-1, n), axis=1)
    return out


# One budget for every radial integral: 2^20 table panels of a quarter
# period each (z up to about 8e5), far beyond any dilation the sweeps use;
# larger supports are refused before anything is allocated.
_MAX_RADIAL_PANELS = 1 << 20


# -- cumulative radial tables ------------------------------------------------
#
# Every radial integral along an angular node omega (the measure has density
# r^(s-1) on 0 < r <= rho along omega) is read off one cumulative table of a
# fixed 1-D kernel, so each angular level is one array expression.
#
# Balls and ellipsoids.  For K = a o B(0,1) the damping along r omega is
# g(c r)^2, where g is the normalised unit-ball profile and c = |a o omega o t|:
#
#     int_0^rho g(c r)^2 r^(s-1) dr = c^(-s) G_s(c rho),
#     G_s(z) = int_0^z g(u)^2 u^(s-1) du                   (kind "ball", key d).
#
# The cube.  With a_k = t_k omega_k / 2 the damping is
# prod_k sinc^2(a_k r) = prod_k (1 - cos b_k r) / (2 a_k^2 r^2), b_k = 2 a_k.
# Expanding the product over m factors gives 1 + sum_j c_j cos(w_j r), with
# the (3^m - 1)/2 frequencies w_j = |sum_k sigma_k b_k| (sigma in {-1,0,1}^m,
# first nonzero entry +1; 4 in d = 2, 13 in d = 3) and c_j = 2 (-1/2)^|sigma|.
# The sum vanishes to order r^(2m), so the Taylor terms of the cosines of
# degree < 2m cancel across j, and subtracting a Taylor polynomial T_2n of
# degree 2n <= 2m - 2 from every cosine changes nothing.  Hence
#
#     int_0^rho prod_k sinc^2(a_k r) r^(s-1) dr
#         = (prod_k 2 a_k^2)^(-1) [ [n = -1] rho^(s-2m) / (s-2m)
#                                   + sum_j c_j w_j^(2m-s) K_{s,m}(w_j rho) ],
#     K_{s,m}(z) = int_0^z u^(s-1-2m) (cos u - T_2n(u)) du   (kind "cube", key m),
#
# with n >= -1 the smallest order that makes the kernel integrable at 0
# (T_-2 = 0); a term with w_j = 0 takes its limit.  Subtracting no more than
# that keeps K bounded (up to a log) as z grows, so the terms do not cancel
# polynomially large parts of each other.
#
# Near an axis, where a_k rho < 1, frequencies that differ by b_k nearly
# cancel, and the rounding error grows like (max_i a_i / a_k)^2.  Such
# factors are expanded instead in the series
# sinc^2(x) = sum_n C_n x^(2n), C_n = (-1)^n 2^(2n+1) / (2n+2)!; a term of
# total order N over the small factors shifts s to s + 2N on the m' others,
# or is rho^(s+2N) / (s+2N) when m' = 0.  Directions are grouped by the
# number of small factors, not by which ones, since each keeps its factors
# in axis order: the rows with the same count share one table call for all
# 13 orders, its nodes and its cosine remainders, so a level makes one call
# per count below d.
#
# Each table holds its integral at the quarter periods k pi/4 of g^2 (and
# eighth periods of cos): Gauss-Jacobi-16 on the first panel absorbs the
# kernel's power at u = 0, Gauss-Legendre-8 on the others.  Tables grow in
# whole chunks of panels, each continuing the same sequential cumulative
# sum, so an entry is a pure function of (kind, key, s, k) and no value
# depends on how far the table had grown before.
#
# A read between two entries adds the panel's partial integral from its left
# edge, F_k(z) = int_{k pi/4}^z f, from the 17 Chebyshev coefficients of F_k
# on the panel, taken from f at the panel's 16 Chebyshev points and read by
# Clenshaw's recurrence (Clenshaw 1955; Trefethen, ATAP ch. 3 and 19), so
# no read past the first panel evaluates the kernel.  The coefficients and
# the table entry at the panel's left edge are one column of a store, 144
# bytes a panel, built when a read first lands on the panel: the ladders
# read a few thousand of the tens of thousands of panels their tables hold.
# Each coefficient is summed over the nodes in one fixed order, so it too
# is a pure function of (kind, key, s, k).  Far out a node rounds off its
# place by up to 1e-13 relative in f, which the slope of f's interpolant
# corrects before the sum.  Reads below pi/4 keep one Gauss-Jacobi-16 rule
# on the whole of [0, z].

_QUARTER = math.pi / 4.0
_FIRST_ORDER = 16
_PANEL_ORDER = 8
_CHUNK_PANELS = 1024  # 8192 nodes per growth step: well under 1 MB transient
_TABLES: dict[tuple[str, int, float], np.ndarray] = {}
_CHEB_POINTS = 16

# The cube kernel's smooth factor is summed as its Taylor series below
# _SERIES_TOP, where cos u - T_2n(u) cancels; the last of 24 terms is below
# 1e-32 of the sum there.
_SERIES_TOP = 4.0
_SERIES_TERMS = 24
# An axis factor with a_k rho below _SMALL_AXIS takes the sinc^2 series;
# |C_n| x^(2n) < 1e-19 for x <= 1 from n = 12 on.
_SMALL_AXIS = 1.0
_SINC2_ORDERS = 13
_SINC2_SERIES = np.array([(-1.0) ** n * 2.0 ** (2 * n + 1) / math.factorial(2 * n + 2)
                          for n in range(_SINC2_ORDERS)])


# numpy's x ** e with a scalar e of -1, 0.5 or 2 is a reciprocal, square
# root or square, which can round apart from the pow that an exponent array
# of the same value takes
_SCALAR_POWERS = (-1.0, 0.5, 2.0)


def _powers(x: np.ndarray, exps) -> np.ndarray:
    """x ** e for each e in exps, stacked on a new first axis, each rounded as x ** e."""
    if len(exps) == 1:
        return (x ** exps[0])[None]
    out = x ** np.reshape(exps, (-1,) + (1,) * x.ndim)
    for i, e in enumerate(exps):
        if e in _SCALAR_POWERS:
            out[i] = x ** e
    return out


@functools.cache
def _taylor_order(m: int, s: float) -> int:
    """Smallest n >= -1 with s - 2m + 2n + 2 > 0: K_{s,m} subtracts T_2n."""
    return max(-1, math.floor(m - 1 - s / 2.0) + 1)


@functools.cache
def _end_exponent(kind: str, key: int, s: float) -> float:
    """Power of u at u = 0 that the table's first-panel Jacobi rule absorbs."""
    if kind == "ball":
        return s - 1.0
    return s - 2 * key + 2 * _taylor_order(key, s) + 1.0


@functools.cache
def _remainder_series(n: int) -> tuple[float, ...]:
    """Coefficients in v = u^2 of (cos u - T_2n(u)) / u^(2n+2), lowest first."""
    return tuple((-1.0) ** (n + 1 + i) / math.factorial(2 * (n + 1 + i))
                 for i in range(_SERIES_TERMS))


def _cosine_remainder(n: int, u: np.ndarray) -> np.ndarray:
    """(cos u - T_2n(u)) / u^(2n+2), smooth and even; cos u when n = -1.

    The closed form is taken on every node, then the nodes below
    _SERIES_TOP, where it cancels, are overwritten by the series (Horner
    in v = u^2, highest coefficient first).
    """
    if n < 0:
        return np.cos(u)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        taylor = 1.0  # T_2n(u), term by term
        for i in range(1, n + 1):
            term = u ** (2 * i) / math.factorial(2 * i)
            taylor = taylor - term if i % 2 else taylor + term
        out = (np.cos(u) - taylor) / u ** (2 * n + 2)
    near = u < _SERIES_TOP
    if near.any():
        v = u[near] ** 2
        coefs = _remainder_series(n)
        acc = np.full(v.shape, coefs[-1])
        for c in coefs[-2::-1]:
            acc *= v
            acc += c
        out[near] = acc
    return out


def _smooth_factor(kind: str, key: int, n: int, u: np.ndarray) -> np.ndarray:
    """The kernel over its power u^e: g^2 for a ball, the cosine remainder of order n."""
    if kind == "ball":
        g = unit_ball_profile(key, u) / unit_ball_volume(key)
        return g * g
    return _cosine_remainder(n, u)


def _table_integrand(kind: str, key: int, s: float, u: np.ndarray) -> np.ndarray:
    return u ** _end_exponent(kind, key, s) * _smooth_factor(kind, key, _taylor_order(key, s), u)


def _first_panel(kind: str, key: int, s: float, z):
    """The integral up to z <= pi/4 (a float or a column) by one Gauss-Jacobi-16 rule."""
    u, w = end_power_rule(0.0, z, _end_exponent(kind, key, s), at_lower=True, order=_FIRST_ORDER)
    return np.sum(_table_integrand(kind, key, s, u) * w, axis=-1)


def _table(kind: str, key: int, s: float, k_top: int) -> np.ndarray:
    """The integral up to k pi/4 for k = 0, 1, ... and at least up to k_top (read-only)."""
    cum = _TABLES.get((kind, key, s))
    if cum is not None and cum.size > k_top:
        return cum
    if cum is None:
        cum = np.array([0.0, _first_panel(kind, key, s, _QUARTER)])
    chunks = [cum]
    k0 = cum.size - 1  # the next panel is [k0 pi/4, (k0 + 1) pi/4]
    while k0 < k_top:
        u, w = gl_edges_rule(_QUARTER * np.arange(k0, k0 + _CHUNK_PANELS + 1), _PANEL_ORDER)
        panels = np.sum((_table_integrand(kind, key, s, u) * w).reshape(-1, _PANEL_ORDER),
                        axis=1)
        chunks.append(np.cumsum(np.concatenate(([chunks[-1][-1]], panels)))[1:])
        k0 += _CHUNK_PANELS
    cum = np.concatenate(chunks)
    cum.flags.writeable = False
    _TABLES[(kind, key, s)] = cum
    return cum


@functools.cache
def _chebyshev_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Chebyshev points cos(pi (i + 1/2) / N) as offsets from a panel's
    left edge; the (N, N + 1) matrix that takes f at them to the Chebyshev
    coefficients of F_k, with F_k = 0 at the left edge; and the (N, N) one
    that takes them to the slope of f's interpolant at each of them."""
    n, half = _CHEB_POINTS, 0.5 * _QUARTER
    theta = [math.pi * (i + 0.5) / n for i in range(n)]
    rule, slope = [], []
    for th in theta:
        # f's coefficients from this node alone, then those of its antiderivative
        c = [1.0 / n] + [2.0 / n * math.cos(j * th) for j in range(1, n)] + [0.0, 0.0]
        anti = [0.0, c[0] - 0.5 * c[2]] + [(c[j - 1] - c[j + 1]) / (2 * j) for j in range(2, n + 1)]
        anti[0] = -math.fsum((-1) ** j * anti[j] for j in range(1, n + 1))
        rule.append([half * v for v in anti])
        # T_j'(cos t) = j sin(j t) / sin t
        slope.append([math.fsum(c[j] * j * math.sin(j * t) / math.sin(t) for j in range(1, n)) / half
                      for t in theta])
    offsets = np.array([half * (1.0 + math.cos(th)) for th in theta])
    return offsets, np.array(rule), np.array(slope)


class _PanelSeries:
    """The series of the panels read so far of the tables of one (kind, key).

    Column j of `coef` holds one panel's 17 coefficients and, in its last
    row, the table entry at the panel's left edge; column 0 is the zero
    series and entry that reads on the first panel take.  `index[s]` is the
    int32 column of each panel of the table of s, -1 until it is built.
    """

    def __init__(self, kind: str, key: int):
        self.kind, self.key = kind, key
        self.coef = np.zeros((_CHEB_POINTS + 2, 64))
        self.used = 1
        self.index: dict[float, np.ndarray] = {}

    def columns(self, s: float, k: np.ndarray, k_top: int) -> np.ndarray:
        """The column of each panel k <= k_top of the table of s; panels read
        for the first time get their series built."""
        index = self.index.get(s)
        if index is None or index.size <= k_top:
            grown = np.full(_table(self.kind, self.key, s, k_top).size, -1, dtype=np.int32)
            grown[0] = 0
            if index is not None:
                grown[:index.size] = index
            index = self.index[s] = grown
        cols = index[k]
        if cols.min() < 0:
            self._build(s, index, np.unique(k[cols < 0]))
            cols = index[k]
        return cols

    def _build(self, s: float, index: np.ndarray, new: np.ndarray) -> None:
        """Append the series of the panels `new` (sorted, none built yet)."""
        offsets, rule, slope = _chebyshev_rule()
        edge = (_QUARTER * new)[:, None]
        u = edge + offsets
        f = _table_integrand(self.kind, self.key, s, u)
        # each node rounds off edge + offset by up to half an ulp of u; the
        # interpolant's slope takes f back to edge + offset
        df = f[:, 0, None] * slope[0]
        for i in range(1, _CHEB_POINTS):  # one node at a time, in one order
            df += f[:, i, None] * slope[i]
        f += df * (offsets - (u - edge))  # both differences are exact
        series = f[:, 0, None] * rule[0]
        for i in range(1, _CHEB_POINTS):
            series += f[:, i, None] * rule[i]
        end = self.used + new.size
        if end > self.coef.shape[1]:
            grown = np.zeros((self.coef.shape[0], 3 * end // 2))
            grown[:, :self.used] = self.coef[:, :self.used]
            self.coef = grown
        self.coef[:-1, self.used:end] = series.T
        self.coef[-1, self.used:end] = _table(self.kind, self.key, s, int(new[-1]))[new]
        index[new] = np.arange(self.used, end)
        self.used = end


_SERIES: dict[tuple[str, int], _PanelSeries] = {}


def _cumulative(kind: str, key: int, orders, z: np.ndarray) -> np.ndarray:
    """Each order's table integral up to each z > 0, a row per s in orders:
    the Chebyshev series of z's panel plus the table entry at its left edge,
    both from the panel's column of the store.

    The series of every order are read together by Clenshaw's recurrence,
    one gather of a coefficient row per step, and the entry is added last.
    Below pi/4 the read is replaced: the whole of [0, z] is one
    Gauss-Jacobi-16 rule per order.
    """
    k = np.floor(z / _QUARTER).astype(np.intp)
    # z within its panel, on [-1, 1]: z - k pi/4 is exact, as in the table's edges
    x = (z - _QUARTER * k) * (2.0 / _QUARTER) - 1.0
    k_top = int(np.max(k))
    store = _SERIES.get((kind, key))
    if store is None:
        store = _SERIES[(kind, key)] = _PanelSeries(kind, key)
    cols = np.empty((len(orders), z.size), dtype=np.intp)
    for i, s in enumerate(orders):
        cols[i] = store.columns(s, k, k_top)
    coef = store.coef
    x2 = 2.0 * x
    b1, b2 = coef[_CHEB_POINTS].take(cols), 0.0
    for row in coef[_CHEB_POINTS - 1:0:-1]:
        b = x2 * b1
        b -= b2
        b += row.take(cols)
        b1, b2 = b, b1
    out = x * b1
    out -= b2
    out += coef[0].take(cols)
    out += coef[-1].take(cols)
    first = np.flatnonzero(k == 0)
    if first.size:
        for i, s in enumerate(orders):
            out[i, first] = _first_panel(kind, key, s, z[first, None])
    return out


@functools.cache
def _cosine_terms(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Signs sigma (rows, first nonzero +1) and coefficients c of prod_k (1 - cos b_k r) - 1."""
    # a sign tuple beats its negation exactly when its first nonzero entry is +1
    sigma = np.array([sg for sg in itertools.product((-1, 0, 1), repeat=m)
                      if sg > tuple(-v for v in sg)], dtype=float)
    coef = 2.0 * (-0.5) ** np.count_nonzero(sigma, axis=1)
    return sigma, coef


def _cosine_sum_radial(a: np.ndarray, rho: np.ndarray, orders) -> np.ndarray:
    """int_0^rho prod_k sinc^2(a_k r) r^(s-1) dr by the K_{s,m} identity, a row per s."""
    m = a.shape[1]
    sigma, coef = _cosine_terms(m)
    w = np.abs((2.0 * a) @ sigma.T)
    z = w * rho[:, None]
    lift = 2 * m - np.asarray(orders, dtype=float)  # 2m - s per order
    # the constant 1 of the product, and any term with w = 0, integrates
    # r^(s-1-2m) when nothing is subtracted (n = -1), else it cancels
    flat = np.zeros((lift.size, rho.size))
    loose = [i for i, s in enumerate(orders) if _taylor_order(m, s) < 0]
    if loose:
        flat[loose] = _powers(rho, -lift[loose]) / -lift[loose, None]
    # a term with z = 0 takes that limit; its power and table read are
    # taken at w = z = 1 and discarded
    pos = z > 0.0
    wp, zp = np.where(pos, w, 1.0), np.where(pos, z, 1.0)
    cum = _cumulative("cube", m, orders, zp.ravel()).reshape(-1, *z.shape)
    terms = np.where(pos, _powers(wp, lift) * cum, flat[:, :, None])
    # summed per row: a BLAS product's rounding would depend on the batch
    return (np.sum(terms * coef, axis=2) + flat) / np.prod(2.0 * a * a, axis=1)


def _cube_radial(a: np.ndarray, rho: np.ndarray, s: float) -> np.ndarray:
    """int_0^rho prod_k sinc^2(a_k r) r^(s-1) dr for rows of a > 0 and rho.

    Directions are grouped by how many factors are near their axis
    (a_k rho < 1), not by which ones: every row keeps its factors in
    ascending axis order, so a group's far factors and its small ones are
    two (rows, count) arrays.  The small factors take the sinc^2 series,
    and the far ones all of its orders in one table call per group.
    """
    small = a * rho[:, None] < _SMALL_AXIS
    count = np.count_nonzero(small, axis=1)
    out = np.empty(rho.shape)
    for c in np.flatnonzero(np.bincount(count)):
        rows = count == c
        ar, rr, near = a[rows], rho[rows], small[rows]
        full = ar[~near].reshape(rr.size, -1)
        if c == 0:
            out[rows] = _cosine_sum_radial(full, rr, [s])[0]
            continue
        # series coefficients of prod over the small factors, by total order:
        # the first factor's own, convolved with each further one
        coef = None
        for x2 in (ar[near] ** 2).reshape(rr.size, c).T:
            powers = _SINC2_SERIES[None, :] * x2[:, None] ** np.arange(_SINC2_ORDERS)
            coef = powers if coef is None else np.stack(
                [np.sum(coef[:, :j + 1] * powers[:, j::-1], axis=1)
                 for j in range(_SINC2_ORDERS)], axis=1)
        orders = s + 2.0 * np.arange(_SINC2_ORDERS)
        rest = (_powers(rr, orders) / orders[:, None] if c == a.shape[1]
                else _cosine_sum_radial(full, rr, orders.tolist()))
        # added order by order, as a sequential running sum
        out[rows] = np.cumsum(coef.T * rest, axis=0)[-1]
    return out


def _decay_integral_continuous(body: ConvexBody, m, rows: np.ndarray, rel_tol: float) -> np.ndarray:
    """Angular-adaptive quadrature of I(t) over the power measure's directions
    for the checked dilations t in `rows`, all in one level loop.

    Along each angular node the radial integral is read off a cumulative
    table, one array expression per call for every row: c^(-s) G_s(rho c)
    for a ball or an ellipsoid, the K_{s,m} cosine sum (with the sinc^2
    series for factors near their axis) for the cube; the rows before the
    first whose largest z of any direction is over the panel budget are
    integrated, then that row is refused.  The integrand is even in every
    coordinate of x, so `quadrature.refined_orthant_integral` takes the
    first orthant, given each row's boundary-layer widths in d = 2: the
    cube's about 2 pi / (t_k rho), a ball's or an ellipsoid's k_min / k_max
    next to the axis of the smaller k = a o t when below 1/8 (c dips over
    about that angle there), and an aniso support's corner as a kink.
    """
    d = m.dim
    s = m.radial_order
    alphas = m.angular_alphas
    is_radial = isinstance(m, RadialPowerMeasure)
    rho_max = m.radius if is_radial else math.hypot(*m.halfwidths)
    is_cube = isinstance(body, Cube)
    # sup of z = rho c over directions: the cube's frequencies are at most |t|;
    # for K = a o B, c = |a o omega o t| and rho omega lies in the support
    if is_cube:
        z_max = [rho_max * math.sqrt(v.dot(v)) for v in rows]  # |t| as np.linalg.norm takes it

        def angular_value(om: np.ndarray, row: np.ndarray) -> np.ndarray:
            a = 0.5 * om * rows.take(row, axis=0)
            with np.errstate(over="ignore", invalid="ignore"):
                radial = _cube_radial(a, m.support_profile(om), s)
            if not np.isfinite(radial).all():
                # u^(s-1-2m) of the K_{s,m} table overflows at large s * log(z)
                t = rows[np.broadcast_to(row, radial.shape)[np.argmin(np.isfinite(radial))]]
                raise QuadratureBudgetError(
                    f"the cube's radial kernel overflows for radial order {s:g} at t={t.tolist()}")
            return m.angular_density(om) * radial
    else:
        k = body.semi_axes * rows
        z_max = ([m.radius * x for x in k.max(axis=1).tolist()] if is_radial
                 else [math.sqrt(v.dot(v)) for v in k * np.asarray(m.halfwidths)])

        def angular_value(om: np.ndarray, row: np.ndarray) -> np.ndarray:
            c = np.sqrt(np.add.reduce(np.square(om * k.take(row, axis=0)), axis=1))  # as norm sums
            z = m.support_profile(om) * c
            # c^(-s) overflows at tiny t; the level loop refuses the level that is not finite
            with np.errstate(over="ignore", invalid="ignore"):
                return m.angular_density(om) * c ** (-s) * _cumulative("ball", d, [s], z)[0]

    n = next((i for i, z in enumerate(z_max) if not z / _QUARTER <= _MAX_RADIAL_PANELS), len(rows))
    # the layers next to phi = 0 (omega_2 -> 0) and phi = pi/2 (omega_1 -> 0)
    layers = [(math.inf, math.inf)] * n
    if d == 2 and is_cube:
        layers = [(2.0 * math.pi / (t1 * rho_max), 2.0 * math.pi / (t0 * rho_max))
                  for t0, t1 in rows[:n].tolist()]
    elif d == 2:
        # c = |omega o k| dips to k_min within an angle of about k_min / k_max
        # of the axis where k is small
        layers = []
        for k1, k2 in k[:n].tolist():
            w = min(k1, k2) / max(k1, k2) if min(k1, k2) < max(k1, k2) / 8.0 else math.inf
            layers.append((w, math.inf) if k1 < k2 else (math.inf, w))
    # in d = 2 the support box's corner direction is a kink of the radial extent
    kinks = extent_kinks([m]) if d == 2 and not is_radial else []
    out = refined_orthant_integral(alphas, angular_value, layers, kinks, rel_tol,
                                   [f"t={t.tolist()}" for t in rows[:n]]) if n else []
    if n < len(rows):
        raise QuadratureBudgetError(
            f"radial quadrature over support {rho_max:.6g} at t={rows[n].tolist()} needs "
            f"{z_max[n] / _QUARTER:.3g} panels, over the budget of {_MAX_RADIAL_PANELS}"
        )
    return np.array(out)


def _decay_rows(body: ConvexBody, m: SpectralMeasure, rows: np.ndarray, rel_tol: float) -> np.ndarray:
    if isinstance(m, AtomicMeasure):
        return _atomic_rows(body, m, rows)
    if isinstance(m, SumMeasure):
        total = np.zeros(len(rows))  # the parts added in order, as Python's sum adds them
        for part in m.parts:
            total = total + _decay_rows(body, part, rows, rel_tol)
        return total
    if isinstance(m, (RadialPowerMeasure, AnisotropicPowerMeasure)):
        return np.concatenate([_decay_integral_continuous(body, m, rows[i:i + _LOOP_ROWS], rel_tol)
                               for i in range(0, len(rows) or 1, _LOOP_ROWS)])
    raise TypeError(f"unknown measure {m!r}")


def decay_integral(body: ConvexBody, m: SpectralMeasure, t, rel_tol: float = 1e-5):
    """I(t) for any supported measure and body; the one checked entry to I(t).

    t is one dilation (a float comes back) or rows (N, d) of them (an (N,)
    array comes back).  Both take the same path, so a row has the same bits
    alone as among rows.  Before any table read or atom product, in order:
    the measure family and the body family (else TypeError), the body's
    dimension against the measure's (the one "dimension mismatch"
    ValueError, whatever the family), then each row as one t is checked
    (finite, positive, of the measure's dimension).

    Atomic parts are exact sums, every row's atom products in one
    `ratio_abs_sq` call per chunk of rows; the parts of a sum are added as
    arrays; continuous parts use angular-radial quadrature in d <= 3 (else
    ValueError), `_LOOP_ROWS` rows at a time through one level loop that
    each leaves at its own level.  Along each direction the radial integral
    is read off a cached cumulative table: the profile G_s for a ball or an
    ellipsoid, the cosine kernel K_{s,m} for the cube; the angular levels,
    and the breaks graded across the boundary layers whose widths are passed
    to them, are `quadrature.refined_orthant_integral`'s.  Raises
    QuadratureBudgetError when the angular refinement cannot reach rel_tol
    (or rel_tol is below double precision, or a level is not finite), or,
    before any level, when some direction's radial integral would need more
    panels than the budget.
    """
    if not isinstance(m, SpectralMeasure):
        raise TypeError(f"unknown measure {m!r}")
    if not isinstance(body, ConvexBody):
        raise TypeError(f"unknown body {body!r}")
    if body.dim != m.dim:
        raise ValueError(f"dimension mismatch: expected {body.dim}, got {m.dim}")
    rows, one = as_rows(t, m.dim)
    if np.any(rows <= 0.0):
        raise ValueError("t must be positive in every coordinate")
    vals = _decay_rows(body, m, rows, rel_tol)
    return float(vals[0]) if one else vals


# -- distribution-function route ---------------------------------------------


def decay_integral_levelform(body: Ball, m: RadialPowerMeasure, t) -> float:
    """I(t) via the distribution function of the damping factor.

    I(t) = 2 int_0^1 u * sigma({x : |ratio(x o t)| > u}) du; level sets of
    the radial ball profile are unions of hump intervals found by
    bisection, and their sigma-masses come from the radial mass function.
    Restricted to Ball with a radial power measure of its dimension, where
    the level sets are computable.  Cost grows with max(t); intended for cross-checks at
    moderate dilations, not production sweeps.
    """
    if not isinstance(body, Ball):
        raise ValueError("distribution-function route needs a ball")
    if not isinstance(m, RadialPowerMeasure):
        raise ValueError("distribution-function route needs a radial power measure")
    if body.dim != m.dim:
        raise ValueError(f"dimension mismatch: expected {body.dim}, got {m.dim}")
    t = as_vec(t, dim=m.dim)
    if np.any(t <= 0):
        raise ValueError("t must be positive in every coordinate")
    d = m.dim
    vol = unit_ball_profile(d, 0.0)
    big_r = body.radius

    def prof_abs(z):
        return np.abs(unit_ball_profile(d, z)) / vol

    # angular nodes for the mass of {R |x o t| < z} under the radial measure
    if d == 1:
        u_dir = np.array([t[0]])
        w_dir = np.array([2.0])
    elif d == 2:
        e = np.linspace(0, math.pi / 2, 9)
        phi, w_phi = (a.ravel() for a in end_power_rule(e[:-1, None], e[1:, None], 0.0, True, 8))
        om = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        u_dir = np.linalg.norm(om * t[None, :], axis=1)
        w_dir = 4.0 * w_phi
    else:
        e = np.linspace(0, math.pi / 2, 5)  # theta and phi take one grid
        th, w_th = (a.ravel() for a in end_power_rule(e[:-1, None], e[1:, None], 0.0, True, 8))
        TH, PH = np.meshgrid(th, th, indexing="ij")
        om = np.stack(
            [np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH), np.cos(TH)], axis=-1
        ).reshape(-1, 3)
        u_dir = np.linalg.norm(om * t[None, :], axis=1)
        w_dir = 8.0 * (np.sin(TH) * w_th[:, None] * w_th[None, :]).ravel()

    coeff = m.scale / m.gamma

    def mass_below(z: np.ndarray) -> np.ndarray:
        """sigma({x : R |x o t| < z}) for an array of levels z."""
        rho = np.minimum(z[:, None] / (big_r * u_dir[None, :]), m.radius)
        return coeff * np.sum(np.maximum(rho, 0.0) ** m.gamma * w_dir[None, :], axis=1)

    # zeros, hump peaks and peak heights of the profile on (0, z_sat]
    z_sat = big_r * m.radius * float(np.max(t)) + math.pi
    zeros = bracketed_roots(lambda z: unit_ball_profile(d, z),
                            np.arange(0.0, z_sat + math.pi / 4, math.pi / 8), xtol=1e-13)
    peaks, heights = bracketed_maxima(prof_abs, zeros[:-1], zeros[1:], xtol=1e-12)
    # no zero in range: the dilation is so small that the ratio is ~1 everywhere
    zeros = zeros if zeros.size else np.array([z_sat])

    # hump 0 is the central monotone segment [0, zeros[0]] with height 1
    piece_edges = np.concatenate([np.sort(np.append(heights, 1.0))[::-1], [0.0]])

    total = 0.0
    for hi_u, lo_u in zip(piece_edges[:-1], piece_edges[1:]):
        if hi_u - lo_u <= 1e-15:
            continue
        u, wu = gl_edges_rule(np.array([lo_u, hi_u]), 8)
        # level sets {prof_abs > u}, one row per u: the central segment [0, b0]
        # and the intervals [a, b] of the humps above the piece
        up = np.flatnonzero(heights > lo_u)
        k = up.size
        ends = bisect(lambda z: prof_abs(z) - u[:, None],
                      np.concatenate([[0.0], zeros[up], peaks[up]]),
                      np.concatenate([[zeros[0]], peaks[up], zeros[up + 1]]),
                      np.repeat([False, True, False], [1, k, k]), xtol=2e-9)
        below = mass_below(ends.ravel()).reshape(ends.shape)
        levels = below[:, 0] + np.sum(below[:, k + 1:] - below[:, 1:k + 1], axis=1)
        total += float(np.sum(2.0 * u * levels * wu))
    return total


# -- fitting and boundedness -------------------------------------------------


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log I = theta log p + beta log log p + c."""

    theta_hat: float
    log_power_hat: float
    intercept: float
    residual_rms: float
    n_points: int
    decades: float
    label: str = ""


def _validate_ladder(p: np.ndarray, v: np.ndarray) -> float:
    """Reject malformed fit input; returns the span in decades."""
    if p.ndim != 1 or p.size != v.size:
        raise ValueError("p_values and i_values must be 1-D and paired")
    if p.size < 8:
        raise ValueError(f"need >= 8 sample points, got {p.size}")
    if np.any(np.diff(p) <= 0):
        raise ValueError("p_values must be strictly increasing")
    if p[0] <= 1.0:
        raise ValueError("smallest p must exceed 1 (log log p must exist)")
    decades = math.log10(p[-1] / p[0])
    if decades < 2.0 * (1.0 - 1e-12):
        raise ValueError(f"ladder spans {decades:.3f} decades, need >= 2")
    if np.any(~np.isfinite(v)) or np.any(v <= 0.0):
        raise ValueError("values must be finite and positive for a log fit")
    return decades


def rate_lstsq(p: np.ndarray, v: np.ndarray):
    """Coefficients and residuals of the least-squares fit of log v on
    [log p, log log p, 1]; no validation."""
    lp = np.log(p)
    design = np.stack([lp, np.log(lp), np.ones_like(lp)], axis=-1)
    lv = np.log(v)
    coef, *_ = np.linalg.lstsq(design, lv, rcond=None)
    return coef, lv - design @ coef


def fit_rate(p_values, i_values, label: str = "") -> RateFit:
    """Fit the rate model along a geometric ladder.

    Requires at least 8 strictly increasing sample points spanning at
    least two decades, with strictly positive values; anything else is a
    design error worth failing loudly on, not patching over.

    Over a 2-decade window log log p is nearly collinear with (1, log p),
    so on oscillatory data the three-parameter fit can trade tenths of
    theta against beta; checkers that only care about the power trend use
    fit_oscillatory_rate, which pins beta = 0.
    """
    p = np.asarray(p_values, dtype=float)
    v = np.asarray(i_values, dtype=float)
    decades = _validate_ladder(p, v)
    coef, resid = rate_lstsq(p, v)
    return RateFit(
        theta_hat=float(coef[0]),
        log_power_hat=float(coef[1]),
        intercept=float(coef[2]),
        residual_rms=float(np.sqrt(np.mean(resid ** 2))),
        n_points=int(p.size),
        decades=decades,
        label=label,
    )


def fit_oscillatory_rate(p_values, i_values, label: str = "") -> RateFit:
    """Pure-power fit of a ladder whose values carry a fast oscillation.

    A geometric ladder samples the oscillation at quasi-random phases,
    and least squares on the raw log values then wanders by tenths in
    theta: the near-zero dips turn into deep negative outliers wherever
    the ladder happens to land on them.  The Theil-Sen slope (median of
    pairwise slopes) ignores those outliers and tracks the power trend;
    the beta term is pinned to zero (see fit_rate).
    """
    p = np.asarray(p_values, dtype=float)
    v = np.asarray(i_values, dtype=float)
    decades = _validate_ladder(p, v)
    lp, lv = np.log(p), np.log(v)
    dx, dy = lp[:, None] - lp[None, :], lv[:, None] - lv[None, :]
    slope = np.median(dy[dx > 0] / dx[dx > 0])
    intercept = np.median(lv) - slope * np.median(lp)
    resid = lv - (slope * lp + intercept)
    return RateFit(
        theta_hat=float(slope),
        log_power_hat=0.0,
        intercept=float(intercept),
        residual_rms=float(np.sqrt(np.mean(resid ** 2))),
        n_points=int(p.size),
        decades=decades,
        label=label,
    )


@dataclass(frozen=True)
class BoundednessVerdict:
    bounded: bool
    last_over_median: float
    trend_slope: float


def bounded_verdict(p_values, ratios) -> BoundednessVerdict:
    """Heuristic boundedness call for a positive ratio sequence along a ladder.

    Unbounded requires both symptoms: the last value at least 4x the
    median, and a positive log-log trend slope (> 0.1).  Oscillating but
    bounded sequences fail the slope test; genuinely growing ones pass
    both.
    """
    p = np.asarray(p_values, dtype=float)
    v = np.asarray(ratios, dtype=float)
    if np.any(v < 0):
        raise ValueError("ratios must be nonnegative")
    pos = v > 0
    if pos.sum() < 3:
        return BoundednessVerdict(bounded=True, last_over_median=0.0, trend_slope=0.0)
    lp, lv = np.log(p[pos]), np.log(v[pos])
    slope = float(np.polyfit(lp, lv, 1)[0])
    med = float(np.median(v[pos]))
    last_over_median = float(v[-1] / med) if med > 0 else math.inf
    unbounded = last_over_median > 4.0 and slope > 0.1
    return BoundednessVerdict(
        bounded=not unbounded, last_over_median=last_over_median, trend_slope=slope
    )


# -- theorem checkers --------------------------------------------------------


def check_rate_equivalence(body: ConvexBody, m: SpectralMeasure,
                           phi: HomogeneousFunction, t_grid,
                           rel_tol: float = 1e-4) -> dict:
    """Subcritical regime: is I(t) = O(phi) evidence matched by mass evidence?

    Valid for homogeneity degree > -(d+1).  Computes I(t)/phi(t) and
    sigma(E(t^-1))/phi(t) over the grid and compares boundedness
    verdicts; the theorem says the two sup sequences are bounded or
    unbounded together.
    """
    grid = np.atleast_2d(np.asarray(t_grid, dtype=float))
    d = grid.shape[1]
    margin = phi.degree + (d + 1)
    if margin <= 0:
        raise ValueError(
            f"degree {phi.degree} is outside the subcritical range (need > -(d+1) = {-(d+1)})"
        )
    order = np.argsort(np.linalg.norm(grid, axis=1), kind="stable")
    grid = grid[order]
    p = np.linalg.norm(grid, axis=1)

    i_vals = decay_integral(body, m, grid, rel_tol)
    mass_vals = np.array(
        [mass(m, EllipsoidNeighborhood.from_inverse(t)) for t in grid]
    )
    phi_vals = np.array([phi(t) for t in grid])
    ratio_i = i_vals / phi_vals
    ratio_mass = mass_vals / phi_vals
    v_i = bounded_verdict(p, ratio_i)
    v_mass = bounded_verdict(p, ratio_mass)
    consistent = v_i.bounded == v_mass.bounded
    if consistent:
        verdict = "consistent with equivalence"
    else:
        verdict = (
            f"inconsistent: I/phi {'bounded' if v_i.bounded else 'unbounded'} "
            f"but mass/phi {'bounded' if v_mass.bounded else 'unbounded'}"
        )
    return {
        "theorem": "subcritical-equivalence",
        "verdict": verdict,
        "consistent": consistent,
        "degree_margin": margin,
        "phi": phi.label,
        "p": p.tolist(),
        "t_grid": grid.tolist(),
        "decay_integral": i_vals.tolist(),
        "neighborhood_mass": mass_vals.tolist(),
        "phi_values": phi_vals.tolist(),
        "ratio_decay": ratio_i.tolist(),
        "ratio_mass": ratio_mass.tolist(),
        "decay_bounded": v_i.bounded,
        "mass_bounded": v_mass.bounded,
        "decay_last_over_median": v_i.last_over_median,
        "mass_last_over_median": v_mass.last_over_median,
        "decay_trend_slope": v_i.trend_slope,
        "mass_trend_slope": v_mass.trend_slope,
    }


def check_critical_rate(body: ConvexBody, m: SpectralMeasure, sector_bound: float,
                        t_grid, rel_tol: float = 1e-4,
                        enforce_sector: bool = True) -> dict:
    """Critical regime: |t|^(d+1) I(t) bounded on a sector iff the singular
    integral int |x|^-(d+1) dsigma is finite.

    With enforce_sector=False the grid may leave the sector; the report is
    then exploratory only (the criterion makes no claim there) and the
    verdict says so.
    """
    grid = np.atleast_2d(np.asarray(t_grid, dtype=float))
    d = grid.shape[1]
    in_sector = bool(np.all(Sector(sector_bound).contains(grid)))
    if enforce_sector and not in_sector:
        raise ValueError(f"grid leaves the sector X_{sector_bound:g}")
    order = np.argsort(np.linalg.norm(grid, axis=1), kind="stable")
    grid = grid[order]
    p = np.linalg.norm(grid, axis=1)

    i_vals = decay_integral(body, m, grid, rel_tol)
    ratios = p ** (d + 1) * i_vals
    v = bounded_verdict(p, ratios)

    sing = singular_integral(m, d + 1)
    singular_state = "finite" if math.isfinite(sing) else "infinite"

    if not in_sector:
        verdict = "no claim (grid leaves the sector); exploratory data only"
        consistent = None
    else:
        consistent = v.bounded == (singular_state == "finite")
        if consistent:
            verdict = "consistent with equivalence"
        else:
            verdict = (
                f"inconsistent: ratios {'bounded' if v.bounded else 'unbounded'} "
                f"but singular integral {singular_state}"
            )
    return {
        "theorem": "critical-sector",
        "verdict": verdict,
        "consistent": consistent,
        "sector_bound": sector_bound,
        "grid_in_sector": in_sector,
        "p": p.tolist(),
        "t_grid": grid.tolist(),
        "decay_integral": i_vals.tolist(),
        "scaled_ratios": ratios.tolist(),
        "ratios_bounded": v.bounded,
        "last_over_median": v.last_over_median,
        "trend_slope": v.trend_slope,
        "singular_integral": sing,
        "singular_state": singular_state,
    }


def check_supercritical_rate(body: ConvexBody, m: SpectralMeasure, degree: float,
                             direction, p_values, rel_tol: float = 1e-4) -> dict:
    """Supercritical regime: a rate faster than |t|^-(d+1) forces sigma = 0.

    For sigma = 0 the averages vanish identically and any rate holds.
    For sigma != 0 the fitted exponent of I along the ray cannot drop to
    `degree` < -(d+1); the report carries the fit and the margin above
    the critical exponent.
    """
    s = as_vec(direction)
    d = s.size
    if degree >= -(d + 1):
        raise ValueError(f"supercritical check needs degree < -(d+1) = {-(d+1)}")
    if is_zero_measure(m):
        return {
            "theorem": "supercritical-exclusion",
            "verdict": "rate holds trivially (sigma = 0, averages vanish)",
            "sigma_zero": True,
            "degree": degree,
            "decay_integral": [0.0] * len(np.atleast_1d(p_values)),
            "fit": None,
        }
    grid = ray_grid(s / np.linalg.norm(s), p_values)
    i_vals = decay_integral(body, m, grid, rel_tol)
    p = np.asarray(p_values, dtype=float)
    # atomic I oscillates along a ray; the robust trend slope keeps the
    # verdict off the oscillation phases the ladder happens to sample
    fit = fit_oscillatory_rate(p, i_vals, label="supercritical-ray")
    margin = fit.theta_hat - (-(d + 1))
    excluded = fit.theta_hat >= -(d + 1) - 0.1
    verdict = (
        "rate excluded (decay stuck at the critical exponent)"
        if excluded
        else "fit dipped below the critical exponent; inspect the data"
    )
    return {
        "theorem": "supercritical-exclusion",
        "verdict": verdict,
        "sigma_zero": False,
        "degree": degree,
        "p": p.tolist(),
        "decay_integral": i_vals.tolist(),
        "theta_hat": fit.theta_hat,
        "log_power_hat": fit.log_power_hat,
        "critical_margin": margin,
        "rate_excluded": excluded,
        "fit": fit.__dict__,
    }


@dataclass(frozen=True)
class PredictedRate:
    theta: float
    log_power: int


def predicted_rate_from_mass_exponent(gamma: float, dim: int) -> PredictedRate:
    """Rate predicted by a neighborhood-mass power law sigma(E(eps 1)) ~ eps^gamma.

    Below the critical exponent d+1 the mass law transfers directly; at
    the critical exponent a logarithm appears; beyond it the decay
    saturates at |t|^-(d+1).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    crit = dim + 1
    if gamma < crit:
        return PredictedRate(theta=-gamma, log_power=0)
    if gamma == crit:
        return PredictedRate(theta=-float(crit), log_power=1)
    return PredictedRate(theta=-float(crit), log_power=0)
