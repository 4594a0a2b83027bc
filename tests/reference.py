"""Test-side references, independent of the package code they check.

`indicator_ft` integrates a body's indicator transform by a tensor
Gauss-Legendre rule in a smooth parametrisation, never through the closed
forms; `equivalence_bounds` and the sector samplers give the sandwich
constants of a homogeneous comparison function on a sector.  `decimals`
draws the short decimal values the spec-grammar round trips are built from.
`extent_switches` finds the kinks of a radial extent by a dense scan of
which boundary piece is nearest, never through quadratic forms.
`segment_rules_loop` and `orthant_integral_3d_loop` build the angular rules
one segment and one phi line at a time, the loops the vectorised builders
must reproduce bit for bit.  `cube_radial_loop` and
`cosine_remainder_masked` evaluate the cube's radial kernel one mask of
near-axis factors, one series order and one masked part of the nodes at a
time, the loops the grouped kernel must reproduce bit for bit.
"""

import functools
import math

import numpy as np
from hypothesis import strategies as st

from ergrates import rates
from ergrates.geometry import Cube
from ergrates.quadrature import end_power_rule
from ergrates.spectral import EllipsoidNeighborhood, RadialPowerMeasure

# orders double from the first until two agree to this absolute difference
_FIRST_ORDER = 8
_LAST_ORDER = 1024
_AGREE = 1e-12


def _tensor_sum(f, bounds, order: int) -> complex:
    """One tensor Gauss-Legendre rule of the given order per axis of the box `bounds`."""
    x, w = np.polynomial.legendre.leggauss(order)
    nodes = [lo + (hi - lo) * (x + 1.0) / 2.0 for lo, hi in bounds]
    weights = functools.reduce(np.multiply.outer, [(hi - lo) / 2.0 * w for lo, hi in bounds])
    return complex(np.sum(f(*np.meshgrid(*nodes, indexing="ij")) * weights))


def indicator_ft(body, x) -> complex:
    """F[1_K](x) = int_K e^{i(y,x)} dy by quadrature.

    The cube is integrated per axis over [0, 1]^d.  A ball or an ellipsoid
    a o B(0,1) is prod a times the unit-ball integral at x o a: the
    interval in d = 1, polar (r, phi) in d = 2, and in d = 3 the
    azimuth-free (r, theta) form with the polar axis along x o a.
    """
    x = np.asarray(x, dtype=float)
    d = x.size
    if isinstance(body, Cube):
        scale, bounds = 1.0, [(0.0, 1.0)] * d

        def f(*y):
            return np.exp(1j * sum(xk * yk for xk, yk in zip(x, y)))
    else:
        a = body.semi_axes
        xa, scale = x * a, float(np.prod(a))
        if d == 1:
            bounds = [(-1.0, 1.0)]

            def f(u):
                return np.exp(1j * xa[0] * u)
        elif d == 2:
            bounds = [(0.0, 1.0), (0.0, 2.0 * math.pi)]

            def f(r, phi):
                return r * np.exp(1j * r * (xa[0] * np.cos(phi) + xa[1] * np.sin(phi)))
        else:
            big_w = float(np.linalg.norm(xa))
            bounds = [(0.0, 1.0), (0.0, math.pi)]

            def f(r, theta):
                return 2.0 * math.pi * r * r * np.sin(theta) * np.exp(1j * big_w * r * np.cos(theta))
    order, prev = _FIRST_ORDER, None
    while order <= _LAST_ORDER:
        val = scale * _tensor_sum(f, bounds, order)
        if prev is not None and abs(val - prev) <= _AGREE:
            return val
        prev, order = val, 2 * order
    raise RuntimeError(f"orders up to {_LAST_ORDER} do not agree to {_AGREE} at x = {x}")


# -- kinks of a radial extent -----------------------------------------------------

_SWITCH_SCAN = 1 << 16
_SWITCH_XTOL = 1e-15


def _piece_distances(shapes, om: np.ndarray) -> np.ndarray:
    """Distance along unit directions (rows) to each boundary piece of each
    shape (columns): the sphere, the ellipsoid, or each face of a box."""
    cols = []
    for x in shapes:
        if isinstance(x, RadialPowerMeasure):
            cols.append(np.full(om.shape[0], x.radius))
        elif isinstance(x, EllipsoidNeighborhood):
            cols.append(1.0 / np.sqrt(np.sum((om / np.asarray(x.semi_axes)) ** 2, axis=1)))
        else:
            with np.errstate(divide="ignore"):
                cols += [h / np.abs(om[:, k]) for k, h in enumerate(x.halfwidths)]
    return np.stack(cols, axis=1)


def extent_switches(shapes, phi=None) -> list[float]:
    """Angles in (0, pi/2) where the nearest boundary piece of `shapes` changes.

    Without phi the angle is the azimuth of (cos x, sin x) in d = 2, or of
    the equator (cos x, sin x, 0) in d = 3; with a scalar phi it is the polar
    angle of (sin x cos phi, sin x sin phi, cos x).  The nearest piece is
    read on 2^16 + 1 evenly spaced angles, and each change between
    neighbours is bisected to 1e-15 on the nearest piece alone.
    """
    dim = shapes[0].dim

    def nearest(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if phi is not None:
            om = np.stack([np.sin(x) * math.cos(phi), np.sin(x) * math.sin(phi), np.cos(x)], axis=1)
        else:
            om = np.stack([np.cos(x), np.sin(x)] + [np.zeros_like(x)] * (dim - 2), axis=1)
        return np.argmin(_piece_distances(shapes, om), axis=1)

    grid = np.linspace(0.0, math.pi / 2, _SWITCH_SCAN + 1)[1:-1]
    labels = nearest(grid)
    out = []
    for i in np.flatnonzero(labels[:-1] != labels[1:]):
        lo, hi, at_lo = float(grid[i]), float(grid[i + 1]), labels[i]
        while hi - lo > _SWITCH_XTOL:
            mid = 0.5 * (lo + hi)
            if nearest(mid)[0] == at_lo:
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    return out


# -- angular rules one segment and one line at a time ----------------------------


def segment_rules_loop(breaks, exp_lo: float, exp_hi: float, order: int):
    """Per-segment rules on the break list, one `end_power_rule` call per
    segment: (x - breaks[0])^exp_lo on the first, (breaks[-1] - x)^exp_hi
    on the last, plain Gauss-Legendre between."""
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


def orthant_integral_3d_loop(alphas, g, breaks, order: int, theta_breaks) -> float:
    """8 times the integral of g over the first octant of the unit sphere:
    the phi and theta rules of `segment_rules_loop`, g called once per phi
    line, each line summed by np.sum and the lines added in phi order."""
    a1, a2, a3 = alphas
    phi, w_phi = segment_rules_loop(breaks, a2 - 1.0, a1 - 1.0, order)
    total = 0.0
    for p, wp, tb in zip(phi, w_phi, theta_breaks(phi)):
        th, w_th = segment_rules_loop(tb, a1 + a2 - 1.0, a3 - 1.0, order)
        st = np.sin(th)
        om = np.stack([st * np.cos(np.full(th.size, p)), st * np.sin(np.full(th.size, p)),
                       np.cos(th)], axis=-1)
        total += wp * float(np.sum(g(om) * st * w_th))
    return 8.0 * float(total)


# -- the cube's radial kernel one mask and one order at a time --------------------


def cosine_remainder_masked(n: int, u: np.ndarray) -> np.ndarray:
    """(cos u - T_2n(u)) / u^(2n+2): the series on u < _SERIES_TOP and the
    closed form on the rest, each computed on its own masked part only."""
    if n < 0:
        return np.cos(u)
    out = np.empty(u.shape)
    near = u < rates._SERIES_TOP
    out[near] = np.polynomial.polynomial.polyval(u[near] ** 2, rates._remainder_series(n))
    far = u[~near]
    taylor = sum((-1.0) ** i * far ** (2 * i) / math.factorial(2 * i) for i in range(n + 1))
    out[~near] = (np.cos(far) - taylor) / far ** (2 * n + 2)
    return out


def _cube_cumulative_loop(m: int, orders, z: np.ndarray) -> np.ndarray:
    """K_{s,m}(z) a row per s in orders, each order's cells and table read
    on their own."""
    k = np.floor(z / rates._QUARTER).astype(np.int64)
    k_top = int(np.max(k))
    out = np.empty((len(orders), z.size))
    first = k == 0
    rest = ~first
    kr = k[rest]
    u, w = end_power_rule(rates._QUARTER * kr[:, None], z[rest, None], 0.0, at_lower=True,
                          order=rates._PANEL_ORDER)
    for i, s in enumerate(orders):
        n, e = rates._taylor_order(m, s), rates._end_exponent("cube", m, s)
        if kr.size < z.size:
            uf, wf = end_power_rule(0.0, z[first, None], e, at_lower=True,
                                    order=rates._FIRST_ORDER)
            out[i, first] = np.sum(uf ** e * cosine_remainder_masked(n, uf) * wf, axis=1)
        if kr.size:
            cell = np.sum(u ** e * cosine_remainder_masked(n, u) * w, axis=1)
            out[i, rest] = rates._table("cube", m, s, k_top)[kr] + cell
    return out


def _cosine_sum_radial_loop(a: np.ndarray, rho: np.ndarray, orders) -> np.ndarray:
    """The K_{s,m} cosine sum, a row per s, each order's power on its own."""
    m = a.shape[1]
    sigma, coef = rates._cosine_terms(m)
    w = np.abs((2.0 * a) @ sigma.T)
    z = w * rho[:, None]
    flat = np.array([rho ** (s - 2 * m) / (s - 2 * m) if rates._taylor_order(m, s) < 0
                     else 0.0 * rho for s in orders])
    terms = np.repeat(flat[:, :, None], z.shape[1], axis=2)
    pos = z > 0.0
    if np.any(pos):
        wp = w[pos]
        terms[:, pos] = (np.array([wp ** (2 * m - s) for s in orders])
                         * _cube_cumulative_loop(m, orders, z[pos]))
    return (np.sum(terms * coef, axis=2) + flat) / np.prod(2.0 * a * a, axis=1)


def cube_radial_loop(a: np.ndarray, rho: np.ndarray, s: float) -> np.ndarray:
    """int_0^rho prod_k sinc^2(a_k r) r^(s-1) dr, rows grouped by which
    factors are small (a_k rho < _SMALL_AXIS): one group per mask, every
    small factor convolved into the series, the orders added one by one."""
    small = a * rho[:, None] < rates._SMALL_AXIS
    code = small @ (1 << np.arange(a.shape[1]))
    out = np.empty(rho.shape)
    for c in np.flatnonzero(np.bincount(code)):
        rows = code == c
        mask = small[np.argmax(rows)]
        ar, rr = a[rows], rho[rows]
        full = ar[:, ~mask]
        if not mask.any():
            out[rows] = _cosine_sum_radial_loop(full, rr, [s])[0]
            continue
        coef = np.zeros((rr.size, rates._SINC2_ORDERS))
        coef[:, 0] = 1.0
        for x2 in (ar[:, mask] ** 2).T:
            powers = rates._SINC2_SERIES[None, :] * x2[:, None] ** np.arange(rates._SINC2_ORDERS)
            coef = np.stack([np.sum(coef[:, :j + 1] * powers[:, j::-1], axis=1)
                             for j in range(rates._SINC2_ORDERS)], axis=1)
        orders = [s + 2.0 * order for order in range(rates._SINC2_ORDERS)]
        rest = ([rr ** s_n / s_n for s_n in orders] if full.shape[1] == 0
                else _cosine_sum_radial_loop(full, rr, orders))
        total = np.zeros(rr.size)
        for order in range(rates._SINC2_ORDERS):
            total += coef[:, order] * rest[order]
        out[rows] = total
    return out


# -- sector sandwich constants -------------------------------------------------


def sphere_sample(sector, dim: int, n_per_axis: int = 64) -> np.ndarray:
    """Unit directions covering the sector's sphere patch, corners included.

    Directions are normalized grid points of [1, B]^d, which maps onto the
    patch: any unit t in X_B equals t / min(t) scaled, with t / min(t) in
    [1, B]^d.
    """
    axes = [np.linspace(1.0, sector.bound, n_per_axis)] * dim
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    return grid / np.linalg.norm(grid, axis=1, keepdims=True)


def random_points(sector, rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n points of the sector, log-uniform in radius on [1e-2, 1e3]."""
    raw = rng.uniform(1.0, sector.bound, size=(n, dim))
    dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    radii = np.exp(rng.uniform(math.log(1e-2), math.log(1e3), size=n))
    return dirs * radii[:, None]


def equivalence_bounds(phi, sector, dim: int, n_samples: int = 2048) -> tuple[float, float]:
    """Constants E, F with E |t|^theta <= phi(t) <= F |t|^theta on the sector.

    E and F are the sampled extrema of phi on the sector's sphere patch,
    widened by the largest difference between adjacent samples: within a
    grid cell a continuous phi cannot stray much further than it does
    between neighboring nodes, so the widened bounds cover the gaps.
    """
    per_axis = max(8, int(math.ceil(n_samples ** (1.0 / dim))))
    vals = np.array([phi.sphere_fn(w) for w in sphere_sample(sector, dim, per_axis)])
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0.0):
        raise ValueError("phi must be positive and finite on the sector sphere patch")
    grid_vals = vals.reshape((per_axis,) * dim)
    gap = max(float(np.max(np.abs(np.diff(grid_vals, axis=ax)))) for ax in range(dim))
    lo, hi = float(np.min(vals)), float(np.max(vals))
    return max(lo - gap, 0.1 * lo) * (1.0 - 1e-9), (hi + gap) * (1.0 + 1e-9)


def decimals(lo: int, hi: int):
    """Positive floats of at most 12 significant digits in [10**lo, 10**hi)."""
    return st.builds(lambda m, e: float(f"{m}e{e - len(str(m))}"),
                     st.integers(1, 10**12 - 1), st.integers(lo + 1, hi))
