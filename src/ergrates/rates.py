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
from .geometry import Ball, ConvexBody, Cube, as_vec, unit_ball_volume
from .quadrature import (
    QuadratureBudgetError,
    bisect,
    bracketed_maxima,
    bracketed_roots,
    end_power_rule,
    gl_edges_rule,
    orthant_integral,
    segment_rules,
)
from .spectral import (
    AnisotropicPowerMeasure,
    AtomicMeasure,
    EllipsoidNeighborhood,
    RadialPowerMeasure,
    SpectralMeasure,
    SumMeasure,
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
    "decay_integral_atomic",
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
    "equivalence_bounds",
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

    def contains(self, t) -> bool:
        t = as_vec(t)
        if np.any(t <= 0.0):
            return False
        return float(np.max(t)) <= self.bound * float(np.min(t)) * (1.0 + 1e-12)

    def sphere_sample(self, dim: int, n_per_axis: int = 64) -> np.ndarray:
        """Unit directions covering the sector's sphere patch, corners included.

        Directions are normalized grid points of [1, B]^d, which maps onto
        the patch: any unit t in X_B equals t / min(t) scaled, with
        t / min(t) in [1, B]^d.
        """
        axes = [np.linspace(1.0, self.bound, n_per_axis)] * dim
        grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
        return grid / np.linalg.norm(grid, axis=1, keepdims=True)

    def random_points(self, rng: np.random.Generator, n: int, dim: int,
                      radius_range=(1e-2, 1e3)) -> np.ndarray:
        raw = rng.uniform(1.0, self.bound, size=(n, dim))
        dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        lo, hi = radius_range
        radii = np.exp(rng.uniform(math.log(lo), math.log(hi), size=n))
        return dirs * radii[:, None]


def p_ladder(p_lo: float, p_hi: float, ratio: float = math.sqrt(2.0)) -> np.ndarray:
    """Geometric ladder from p_lo to p_hi with step close to `ratio`."""
    if not (p_hi > p_lo > 0):
        raise ValueError("need 0 < p_lo < p_hi")
    n = max(2, round(math.log(p_hi / p_lo) / math.log(ratio)) + 1)
    return np.geomspace(p_lo, p_hi, n)


def ray_grid(direction, p_values) -> np.ndarray:
    """Rows t = p * s for a fixed positive direction s."""
    s = as_vec(direction)
    if np.any(s <= 0):
        raise ValueError("ray direction must be positive in every coordinate")
    p = np.asarray(p_values, dtype=float)
    return p[:, None] * s[None, :]


def sector_grid(bound: float, dim: int, p_values, n_dir: int = 5) -> np.ndarray:
    """Ladder points along several directions spanning the sector X_B."""
    sec = Sector(bound)
    fracs = np.linspace(0.0, 1.0, n_dir)
    dirs = []
    for f in fracs:
        # sweep one coordinate from 1 to B and back through the diagonal
        vec = np.ones(dim)
        if f <= 0.5:
            vec[0] = 1.0 + (bound - 1.0) * (1.0 - 2.0 * f)
        else:
            vec[-1] = 1.0 + (bound - 1.0) * (2.0 * f - 1.0)
        dirs.append(vec / np.linalg.norm(vec))
    rows = [d * p for p in np.asarray(p_values, dtype=float) for d in dirs]
    out = np.asarray(rows)
    if not all(sec.contains(r) for r in out):
        raise ValueError(f"sector grid leaves the sector X_{bound:g}; p values must be positive")
    return out


# -- decay integrals ---------------------------------------------------------


def decay_integral_atomic(body: ConvexBody, m: AtomicMeasure, t) -> float:
    """I(t) for atomic sigma: exact weighted sum of damping factors."""
    if not isinstance(m, AtomicMeasure):
        raise TypeError("decay_integral_atomic needs an atomic measure")
    t = as_vec(t, dim=m.dim)
    if np.any(t <= 0):
        raise ValueError("t must be positive in every coordinate")
    if not m.points:
        return 0.0
    pts = m.locations * t[None, :]
    return float(np.sum(m.weight_array * ratio_abs_sq(body, pts)))


# One budget for every radial integral: 2^20 table panels of a quarter
# period each (z up to about 8e5), far beyond any dilation the sweeps use;
# larger supports are refused before anything is allocated.
_MAX_RADIAL_PANELS = 1 << 20


def _check_radial_panels(panels: float, rho: float, t: np.ndarray) -> None:
    """Raise QuadratureBudgetError when a radial table needs more than the budget."""
    if not panels <= _MAX_RADIAL_PANELS:
        raise QuadratureBudgetError(
            f"radial quadrature over support {rho:.6g} at t={t.tolist()} needs "
            f"{panels:.3g} panels, over the budget of {_MAX_RADIAL_PANELS}"
        )


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
# total order N over the small factors shifts s to s + 2N on the m' others
# (one table call per order), or is rho^(s+2N) / (s+2N) when m' = 0.
#
# Each table holds its integral at the quarter periods k pi/4 of g^2 (and
# eighth periods of cos): Gauss-Jacobi-16 on the first panel absorbs the
# kernel's power at u = 0, Gauss-Legendre-8 on the others.  Tables grow in
# whole chunks of panels, each continuing the same sequential cumulative
# sum, so an entry is a pure function of (kind, key, s, k) and no value
# depends on how far the table had grown before.

_QUARTER = math.pi / 4.0
_FIRST_ORDER = 16
_PANEL_ORDER = 8
_CHUNK_PANELS = 1024  # 8192 nodes per growth step: well under 1 MB transient
_TABLES: dict[tuple[str, int, float], np.ndarray] = {}

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


def _taylor_order(m: int, s: float) -> int:
    """Smallest n >= -1 with s - 2m + 2n + 2 > 0: K_{s,m} subtracts T_2n."""
    return max(-1, math.floor(m - 1 - s / 2.0) + 1)


def _end_exponent(kind: str, key: int, s: float) -> float:
    """Power of u at u = 0 that the table's first-panel Jacobi rule absorbs."""
    if kind == "ball":
        return s - 1.0
    return s - 2 * key + 2 * _taylor_order(key, s) + 1.0


@functools.cache
def _remainder_series(n: int) -> np.ndarray:
    """Coefficients in v = u^2 of (cos u - T_2n(u)) / u^(2n+2)."""
    return np.array([(-1.0) ** (n + 1 + i) / math.factorial(2 * (n + 1 + i))
                     for i in range(_SERIES_TERMS)])


def _cosine_remainder(n: int, u: np.ndarray) -> np.ndarray:
    """(cos u - T_2n(u)) / u^(2n+2), smooth and even; cos u when n = -1."""
    if n < 0:
        return np.cos(u)
    out = np.empty(u.shape)
    near = u < _SERIES_TOP
    out[near] = np.polynomial.polynomial.polyval(u[near] ** 2, _remainder_series(n))
    far = u[~near]
    taylor = sum((-1.0) ** i * far ** (2 * i) / math.factorial(2 * i) for i in range(n + 1))
    out[~near] = (np.cos(far) - taylor) / far ** (2 * n + 2)
    return out


def _table_integrand(kind: str, key: int, s: float, u: np.ndarray) -> np.ndarray:
    if kind == "ball":
        g = unit_ball_profile(key, u) / unit_ball_volume(key)
        return g * g * u ** (s - 1.0)
    return u ** _end_exponent(kind, key, s) * _cosine_remainder(_taylor_order(key, s), u)


def _table(kind: str, key: int, s: float, k_top: int) -> np.ndarray:
    """The integral up to k pi/4 for k = 0, 1, ... and at least up to k_top (read-only)."""
    cum = _TABLES.get((kind, key, s))
    if cum is not None and cum.size > k_top:
        return cum
    if cum is None:
        u, w = end_power_rule(0.0, _QUARTER, _end_exponent(kind, key, s), at_lower=True,
                              order=_FIRST_ORDER)
        cum = np.array([0.0, np.sum(_table_integrand(kind, key, s, u) * w)])
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


def _cumulative(kind: str, key: int, s: float, z: np.ndarray) -> np.ndarray:
    """The table's integral up to each z > 0: a table entry plus one partial cell.

    The partial cell is Gauss-Legendre-8 on [floor(z / (pi/4)) pi/4, z];
    below pi/4 the whole of [0, z] is one Gauss-Jacobi-16 rule.
    """
    k = np.floor(z / _QUARTER).astype(np.int64)
    cum = _table(kind, key, s, int(np.max(k)))
    out = np.empty(z.shape)
    first = k == 0
    if np.any(first):
        u, w = end_power_rule(0.0, z[first, None], _end_exponent(kind, key, s),
                              at_lower=True, order=_FIRST_ORDER)
        out[first] = np.sum(_table_integrand(kind, key, s, u) * w, axis=1)
    rest = ~first
    if np.any(rest):
        kr = k[rest]
        u, w = end_power_rule(_QUARTER * kr[:, None], z[rest, None], 0.0, at_lower=True,
                              order=_PANEL_ORDER)
        out[rest] = cum[kr] + np.sum(_table_integrand(kind, key, s, u) * w, axis=1)
    return out


@functools.cache
def _cosine_terms(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Signs sigma (rows, first nonzero +1) and coefficients c of prod_k (1 - cos b_k r) - 1."""
    # a sign tuple beats its negation exactly when its first nonzero entry is +1
    sigma = np.array([sg for sg in itertools.product((-1, 0, 1), repeat=m)
                      if sg > tuple(-v for v in sg)], dtype=float)
    coef = 2.0 * (-0.5) ** np.count_nonzero(sigma, axis=1)
    return sigma, coef


def _cosine_sum_radial(a: np.ndarray, rho: np.ndarray, s: float) -> np.ndarray:
    """int_0^rho prod_k sinc^2(a_k r) r^(s-1) dr by the K_{s,m} identity, rows of a > 0."""
    m = a.shape[1]
    sigma, coef = _cosine_terms(m)
    w = np.abs((2.0 * a) @ sigma.T)
    z = w * rho[:, None]
    # the constant 1 of the product, and any term with w = 0, integrates
    # r^(s-1-2m) when nothing is subtracted (n = -1), else it cancels
    flat = rho ** (s - 2 * m) / (s - 2 * m) if _taylor_order(m, s) < 0 else 0.0 * rho
    terms = np.repeat(flat[:, None], z.shape[1], axis=1)
    pos = z > 0.0
    if np.any(pos):
        terms[pos] = w[pos] ** (2 * m - s) * _cumulative("cube", m, s, z[pos])
    return (terms @ coef + flat) / np.prod(2.0 * a * a, axis=1)


def _cube_radial(a: np.ndarray, rho: np.ndarray, s: float) -> np.ndarray:
    """int_0^rho prod_k sinc^2(a_k r) r^(s-1) dr for rows of a > 0 and rho.

    Directions are grouped by which factors are near their axis
    (a_k rho < 1); those take the sinc^2 series, grouped by total order.
    """
    small = a * rho[:, None] < _SMALL_AXIS
    out = np.empty(rho.shape)
    for mask in np.unique(small, axis=0):
        rows = np.all(small == mask, axis=1)
        ar, rr = a[rows], rho[rows]
        full = ar[:, ~mask]
        if not mask.any():
            out[rows] = _cosine_sum_radial(full, rr, s)
            continue
        # series coefficients of prod over the small factors, by total order
        coef = np.zeros((rr.size, _SINC2_ORDERS))
        coef[:, 0] = 1.0
        for x2 in (ar[:, mask] ** 2).T:
            powers = _SINC2_SERIES[None, :] * x2[:, None] ** np.arange(_SINC2_ORDERS)
            coef = np.stack([np.sum(coef[:, :j + 1] * powers[:, j::-1], axis=1)
                             for j in range(_SINC2_ORDERS)], axis=1)
        total = np.zeros(rr.size)
        for order in range(_SINC2_ORDERS):
            s_n = s + 2.0 * order
            rest = (rr ** s_n / s_n if full.shape[1] == 0
                    else _cosine_sum_radial(full, rr, s_n))
            total += coef[:, order] * rest
        out[rows] = total
    return out


def _refine(level_value: Callable[[int], float], levels, rel_tol: float, t: np.ndarray) -> float:
    """First level value within rel_tol of the one before it; raises past the last level."""
    prev = level_value(levels[0])
    for level in levels[1:]:
        cur = level_value(level)
        if abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise QuadratureBudgetError(
        f"angular refinement did not reach rel_tol={rel_tol:g} for t={t.tolist()}"
    )


def _axis_graded(scale: float) -> list[float]:
    """scale * 2^j for j >= 0 below pi/4: angular breaks graded toward an axis."""
    out = []
    while scale < math.pi / 4:
        out.append(scale)
        scale *= 2.0
    return out


def _decay_integral_continuous(body: ConvexBody, m, t, rel_tol: float) -> float:
    """Angular-adaptive quadrature of I(t) over the power measure's directions.

    Along each angular node the radial integral is read off a cumulative
    table, one array expression per level: c^(-s) G_s(rho c) for a ball or
    an ellipsoid, the K_{s,m} cosine sum (with the sinc^2 series for
    factors near their axis) for the cube.  In d = 2 the cube's angular
    breaks are graded toward each axis, where its sinc^2 factors form
    boundary layers of width about 2 pi / (t_k rho).  The integrand is even
    in every coordinate of x for all supported bodies, so only the first
    orthant of angles is integrated.  A rel_tol below double precision is
    refused at once: two levels that agree to the last bit do not show an
    error that small.
    """
    d = m.dim
    t = as_vec(t, dim=d)
    if np.any(t <= 0):
        raise ValueError("t must be positive in every coordinate")
    if rel_tol < np.finfo(float).eps:
        raise QuadratureBudgetError(
            f"rel_tol={rel_tol:g} is below double precision; no refinement can confirm it"
        )
    s = m.radial_order
    alphas = m.angular_alphas
    is_cube = isinstance(body, Cube)
    if is_cube:
        if body.dim != d:
            raise ValueError(f"dimension mismatch: expected {body.dim}, got {d}")
        # along any direction the largest frequency sum_k t_k omega_k is at
        # most |t| and the support at most rho_max, so one check up front
        # bounds every table read and the graded breaks below
        rho_max = (m.radius if isinstance(m, RadialPowerMeasure)
                   else math.hypot(*m.halfwidths))
        _check_radial_panels(rho_max * float(np.linalg.norm(t)) / _QUARTER, rho_max, t)

        def angular_value(om_rows: np.ndarray) -> np.ndarray:
            a = 0.5 * om_rows * t[None, :]
            with np.errstate(over="ignore", invalid="ignore"):
                radial = _cube_radial(a, m.support_profile(om_rows), s)
            if not np.all(np.isfinite(radial)):
                # u^(s-1-2m) of the K_{s,m} table overflows at large s * log(z)
                raise QuadratureBudgetError(
                    f"the cube's radial kernel overflows for radial order {s:g} at t={t.tolist()}"
                )
            return m.angular_density(om_rows) * radial
    else:
        axes = body.semi_axes

        def angular_value(om_rows: np.ndarray) -> np.ndarray:
            if axes.size != d:
                raise ValueError(f"dimension mismatch: expected {axes.size}, got {d}")
            c = np.linalg.norm(om_rows * (axes * t)[None, :], axis=1)
            rho = m.support_profile(om_rows)
            z = rho * c
            top = int(np.argmax(z))
            _check_radial_panels(z[top] / _QUARTER, float(rho[top]), t)
            return m.angular_density(om_rows) * c ** (-s) * _cumulative("ball", d, s, z)

    if d == 1:
        return orthant_integral(alphas, angular_value, (), 0)

    if d > 3:
        raise ValueError(f"continuous decay integrals support d <= 3, got d = {d}")
    phi_base = {0.0, math.pi / 2}
    if d == 2 and is_cube:
        # phi: omega_2 -> 0 at phi = 0, omega_1 -> 0 at phi = pi/2
        phi_base |= set(_axis_graded(2.0 * math.pi / (t[1] * rho_max)))
        phi_base |= {math.pi / 2 - b for b in _axis_graded(2.0 * math.pi / (t[0] * rho_max))}
    if d == 2 and isinstance(m, AnisotropicPowerMeasure):
        # the support box's corner direction is a kink of the radial extent
        phi_base.add(math.atan2(m.halfwidths[1], m.halfwidths[0]))
    # d = 3 bisects phi and theta alike into 2 to 16 equal segments at a
    # fixed order; adequate for the moderate |t| this path sees (the
    # acceptance-scale sweeps are all 2-D)
    order, levels = (16, range(1, 7)) if d == 2 else (12, range(1, 5))

    def level_value(splits: int) -> float:
        breaks = sorted(phi_base)
        for _ in range(splits):
            mids = [(a + b) / 2 for a, b in zip(breaks[:-1], breaks[1:])]
            breaks = sorted(set(breaks) | set(mids))
        return orthant_integral(alphas, angular_value, breaks, order,
                                theta_breaks=lambda phi: [breaks] * phi.size)

    return _refine(level_value, levels, rel_tol, t)


def decay_integral(body: ConvexBody, m: SpectralMeasure, t, rel_tol: float = 1e-5) -> float:
    """I(t) for any supported measure; dispatches per family.

    Atomic parts are exact sums; continuous parts use angular-radial
    quadrature.  Along each direction the radial integral is read off a
    cached cumulative table: the profile G_s for a ball or an ellipsoid,
    the cosine kernel K_{s,m} for the cube.  Raises QuadratureBudgetError
    when the angular refinement cannot reach rel_tol (or rel_tol is below
    double precision) or a radial integral needs more panels than the
    budget.
    """
    if isinstance(m, AtomicMeasure):
        return decay_integral_atomic(body, m, t)
    if isinstance(m, SumMeasure):
        return float(sum(decay_integral(body, p, t, rel_tol) for p in m.parts))
    if isinstance(m, (RadialPowerMeasure, AnisotropicPowerMeasure)):
        return _decay_integral_continuous(body, m, t, rel_tol)
    raise TypeError(f"unknown measure {m!r}")


# -- distribution-function route ---------------------------------------------


def decay_integral_levelform(body: Ball, m: RadialPowerMeasure, t,
                             n_angular: int = 64) -> float:
    """I(t) via the distribution function of the damping factor.

    I(t) = 2 int_0^1 u * sigma({x : |ratio(x o t)| > u}) du; level sets of
    the radial ball profile are unions of hump intervals found by
    bisection, and their sigma-masses come from the radial mass function.
    Restricted to Ball with a radial power measure, where the level sets
    are computable.  Cost grows with max(t); intended for cross-checks at
    moderate dilations, not production sweeps.
    """
    if not isinstance(body, Ball):
        raise ValueError("distribution-function route needs a ball")
    if not isinstance(m, RadialPowerMeasure):
        raise ValueError("distribution-function route needs a radial power measure")
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
        n_seg = max(1, n_angular // 8)
        phi, w_phi = segment_rules(list(np.linspace(0, math.pi / 2, n_seg + 1)), 0.0, 0.0, order=8)
        om = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        u_dir = np.linalg.norm(om * t[None, :], axis=1)
        w_dir = 4.0 * w_phi
    else:
        n_seg = max(1, n_angular // 16)
        th, w_th = segment_rules(list(np.linspace(0, math.pi / 2, n_seg + 1)), 0.0, 0.0, order=8)
        ph, w_ph = segment_rules(list(np.linspace(0, math.pi / 2, n_seg + 1)), 0.0, 0.0, order=8)
        TH, PH = np.meshgrid(th, ph, indexing="ij")
        om = np.stack(
            [np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH), np.cos(TH)], axis=-1
        ).reshape(-1, 3)
        u_dir = np.linalg.norm(om * t[None, :], axis=1)
        w_dir = 8.0 * (np.sin(TH) * w_th[:, None] * w_ph[None, :]).ravel()

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


def rate_lstsq(p: np.ndarray, v: np.ndarray, with_log: bool = True):
    """Coefficients and residuals of the least-squares fit of log v on
    [log p, log log p, 1] ([log p, 1] when with_log=False); no validation."""
    lp = np.log(p)
    cols = [lp, np.log(lp), np.ones_like(lp)] if with_log else [lp, np.ones_like(lp)]
    design = np.stack(cols, axis=-1)
    lv = np.log(v)
    coef, *_ = np.linalg.lstsq(design, lv, rcond=None)
    return coef, lv - design @ coef


def fit_rate(p_values, i_values, label: str = "", with_log: bool = True) -> RateFit:
    """Fit the rate model along a geometric ladder.

    Requires at least 8 strictly increasing sample points spanning at
    least two decades, with strictly positive values; anything else is a
    design error worth failing loudly on, not patching over.

    with_log=False pins beta = 0 (pure power law).  Over a 2-decade
    window log log p is nearly collinear with (1, log p), so on
    oscillatory data the three-parameter fit can trade tenths of theta
    against beta; checkers that only care about the power trend use the
    constrained model.
    """
    p = np.asarray(p_values, dtype=float)
    v = np.asarray(i_values, dtype=float)
    decades = _validate_ladder(p, v)
    coef, resid = rate_lstsq(p, v, with_log)
    return RateFit(
        theta_hat=float(coef[0]),
        log_power_hat=float(coef[1]) if with_log else 0.0,
        intercept=float(coef[-1]),
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

    i_vals = np.array([decay_integral(body, m, t, rel_tol) for t in grid])
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
    sec = Sector(sector_bound)
    in_sector = all(sec.contains(t) for t in grid)
    if enforce_sector and not in_sector:
        raise ValueError(f"grid leaves the sector X_{sector_bound:g}")
    order = np.argsort(np.linalg.norm(grid, axis=1), kind="stable")
    grid = grid[order]
    p = np.linalg.norm(grid, axis=1)

    i_vals = np.array([decay_integral(body, m, t, rel_tol) for t in grid])
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
    i_vals = np.array([decay_integral(body, m, t, rel_tol) for t in grid])
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


def equivalence_bounds(phi: HomogeneousFunction, sector: Sector, dim: int,
                       n_samples: int = 2048, safety: float = 1e-9) -> tuple[float, float]:
    """Constants E, F with E |t|^theta <= phi(t) <= F |t|^theta on the sector.

    E and F are the sampled extrema of phi on the sector's sphere patch,
    widened by the largest difference between adjacent samples: within a
    grid cell a continuous phi cannot stray much further than it does
    between neighboring nodes, so the widened bounds cover the gaps.
    """
    per_axis = max(8, int(math.ceil(n_samples ** (1.0 / dim))))
    dirs = sector.sphere_sample(dim, n_per_axis=per_axis)
    vals = np.array([phi.sphere_fn(w) for w in dirs], dtype=float)
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0.0):
        raise ValueError("phi must be positive and finite on the sector sphere patch")
    grid_vals = vals.reshape((per_axis,) * dim)
    gap = 0.0
    for ax in range(dim):
        if grid_vals.shape[ax] > 1:
            gap = max(gap, float(np.max(np.abs(np.diff(grid_vals, axis=ax)))))
    lo, hi = float(np.min(vals)), float(np.max(vals))
    lo = max(lo - gap, 0.1 * lo)
    hi = hi + gap
    return lo * (1.0 - safety), hi * (1.0 + safety)
