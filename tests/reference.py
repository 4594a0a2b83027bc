"""Test-side references, independent of the package code they check.

`indicator_ft` integrates a body's indicator transform by a tensor
Gauss-Legendre rule in a smooth parametrisation, never through the closed
forms; `equivalence_bounds` and the sector samplers give the sandwich
constants of a homogeneous comparison function on a sector.  `decimals`
draws the short decimal values the spec-grammar round trips are built from.
`extent_switches` finds the kinks of a radial extent by a dense scan of
which boundary piece is nearest, never through quadratic forms.
`segment_rules_loop`, `orthant_integral_2d_loop` and `orthant_integral_3d_loop`
build the angular rules one segment and one phi line at a time, and
`refined_orthant_integral_loop` runs one level per pass of the integrand on
them, one row at a time in `refined_orthant_integral_rows_loop`: the loops
the vectorised builders and the level loop must reproduce bit for bit.  `cube_radial_loop` and
`cosine_remainder_masked` evaluate the cube's radial kernel one mask of
near-axis factors, one series order and one masked part of the nodes at a
time, the loops the grouped kernel must reproduce bit for bit.
`panel_radial` integrates one direction's radial factor by quarter-period
panels, and `polar_decay_2d` takes scipy's quad over it in d = 2.
`gauss_cell` is the Gauss-Legendre-8 partial cell that radial reads used
before the panel series, and `exact_cell` a Gauss-Legendre-40 cell with the
kernel from its definition in mpmath.
"""

import functools
import math
import warnings

import mpmath
import numpy as np
from hypothesis import strategies as st
from scipy import integrate

from ergrates import quadrature, rates
from ergrates.fourier import ratio_abs_sq
from ergrates.geometry import Cube
from ergrates.quadrature import end_power_rule, gl_edges_rule
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


def orthant_integral_2d_loop(alphas, g, breaks, order: int) -> float:
    """4 times the integral of g over the first quadrant of the unit circle:
    the phi rule of `segment_rules_loop`, g called once, summed by np.sum."""
    a1, a2 = alphas
    phi, w_phi = segment_rules_loop(breaks, a2 - 1.0, a1 - 1.0, order)
    return 4.0 * float(np.sum(g(np.stack([np.cos(phi), np.sin(phi)], axis=-1)) * w_phi))


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


def refined_orthant_integral_loop(alphas, g, layers, kinks, rel_tol: float,
                                  label: str) -> float:
    """The level loop with one orthant integral, and so one pass of g, per
    level, at the order and over the levels of `quadrature._LEVELS`, from the
    graded kinks and breaks w 2^j below pi/4 from each end, w in `layers`:
    each level's breaks bisect the last's, and the first level within rel_tol
    of the one before it is the value; a level that is not finite is refused.
    A rel_tol below double precision is refused before anything else."""
    if rel_tol < np.finfo(float).eps:
        raise quadrature.QuadratureBudgetError(
            f"rel_tol={rel_tol:g} is below double precision; no refinement can confirm it")
    if len(alphas) == 1:
        return 2.0 * float(g(np.array([[1.0]]))[0])
    order, levels = quadrature._LEVELS[len(alphas)]
    breaks = set(quadrature._graded_kinks(kinks))
    for width, end, sign in zip(layers, (0.0, math.pi / 2), (1.0, -1.0)):
        j = 0
        while 0.0 < width * 2.0 ** j < math.pi / 4:
            breaks.add(end + sign * width * 2.0 ** j)
            j += 1
    breaks = sorted(breaks)
    prev = math.nan
    for level in range(levels.stop):
        if level >= levels.start:
            cur = (orthant_integral_2d_loop(alphas, g, breaks, order) if len(alphas) == 2
                   else orthant_integral_3d_loop(alphas, g, breaks, order,
                                                 lambda phi: [breaks] * phi.size))
            if not math.isfinite(cur):
                raise quadrature.QuadratureBudgetError(
                    f"angular level {level} is not finite ({cur}) for {label}")
            if abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300):
                return cur
            prev = cur
        breaks = sorted(set(breaks) | {(a + b) / 2 for a, b in zip(breaks[:-1], breaks[1:])})
    raise quadrature.QuadratureBudgetError(
        f"angular refinement did not reach rel_tol={rel_tol:g} for {label}")


def refined_orthant_integral_rows_loop(alphas, g, layers, kinks, rel_tol: float, labels):
    """`refined_orthant_integral_loop` run on one row after another, each on
    its own integrand g(om, r) and its own layers and label: the first row
    that fails raises, as a grid of rows must."""
    return [refined_orthant_integral_loop(alphas, lambda om, r=r: g(om, np.full(len(om), r)),
                                          w, kinks, rel_tol, label)
            for r, (w, label) in enumerate(zip(layers, labels))]


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
    """K_{s,m}(z) a row per s in orders, each order read on its own."""
    return np.stack([rates._cumulative("cube", m, [s], z)[0] for s in orders])


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


# -- radial integrals one direction at a time -------------------------------------


def panel_radial(body, v, rho, s, order=8):
    """int_0^rho |ratio(r v)|^2 r^(s-1) dr by panels of a quarter oscillation
    period: Gauss-Jacobi-16 on the first panel absorbs r^(s-1)."""
    freq = sum(abs(x) for x in v) if isinstance(body, Cube) else float(
        2.0 * np.linalg.norm(body.semi_axes * v))
    edges = np.linspace(0.0, rho, max(4, math.ceil(rho * freq * 4.0 / (2.0 * math.pi))) + 1)
    r0, w0 = end_power_rule(0.0, edges[1], s - 1.0, at_lower=True, order=16)
    r1, w1 = gl_edges_rule(edges[1:], order)
    r, w = np.concatenate([r0, r1]), np.concatenate([w0, w1])
    return float(np.sum(ratio_abs_sq(body, r[:, None] * v[None, :]) * r ** (s - 1.0) * w))


def polar_decay_2d(body, m, t, breaks) -> float:
    """I(t) in d = 2 as 4 times scipy's quad over phi in [0, pi/2], split at
    `breaks`, of the measure's angular density times `panel_radial` along
    (cos phi, sin phi)."""
    t = np.asarray(t, dtype=float)

    def outer(phi):
        om = np.array([[math.cos(phi), math.sin(phi)]])
        rho = float(m.support_profile(om)[0])
        return float(m.angular_density(om)[0]) * panel_radial(body, om[0] * t, rho,
                                                               m.radial_order)

    # the inner rule's rounding noise makes quad report roundoff and a loose
    # estimate (3e-7 here) once its value has settled: asking for 1e-10 and
    # for 1e-11 gives values 1e-11 apart
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(outer, 0.0, math.pi / 2, points=sorted(breaks), limit=400,
                                  epsabs=0.0, epsrel=1e-10)
    assert err <= 1e-6 * abs(val)
    return 4.0 * val


# -- radial partial cells --------------------------------------------------------

_CELL_DPS = 30
_HANKEL_FROM = 25.0


def gauss_cell(kind: str, key: int, s: float, z: np.ndarray) -> np.ndarray:
    """The table entry at the quarter period k pi/4 below each z plus a
    Gauss-Legendre-8 cell on [k pi/4, z], the package's kernel at its nodes:
    the read that the panel series replaced."""
    k = np.floor(z / rates._QUARTER).astype(np.int64)
    u, w = end_power_rule(rates._QUARTER * k[:, None], z[:, None], 0.0, at_lower=True, order=8)
    cells = np.sum(rates._table_integrand(kind, key, s, u) * w, axis=1)
    return rates._table(kind, key, s, int(np.max(k)))[k] + cells


def _j1(x):
    """J_1(x) in mpmath: its own series below _HANKEL_FROM, else the Hankel
    expansion (DLMF 10.17.3), whose smallest term there is below 1e-21."""
    if x < _HANKEL_FROM:
        return mpmath.besselj(1, x)
    p = q = mpmath.mpf(0)
    term, k, tiny = mpmath.mpf(1), 0, mpmath.mpf(10) ** -_CELL_DPS
    while abs(term) > tiny:
        if k % 4 == 0:
            p += term
        elif k % 4 == 1:
            q += term
        elif k % 4 == 2:
            p -= term
        else:
            q -= term
        k += 1
        nxt = term * (4 - (2 * k - 1) ** 2) / (k * 8 * x)
        if abs(nxt) >= abs(term):
            break
        term = nxt
    omega = x - 3 * mpmath.pi / 4
    return mpmath.sqrt(2 / (mpmath.pi * x)) * (p * mpmath.cos(omega) - q * mpmath.sin(omega))


def _kernel_mp(kind: str, key: int, s: float):
    """The table's integrand in mpmath: u^(s-1) g(u)^2 for the ball of dimension
    key, u^(s-1-2m) (cos u - T_2n(u)) for the cube's m = key, from the
    definitions."""
    if kind == "ball":
        def profile(u):
            if key == 2:
                return 2 * _j1(u) / u
            return 3 * (mpmath.sin(u) - u * mpmath.cos(u)) / u ** 3
        return lambda u: u ** (s - 1) * profile(u) ** 2
    n = -1
    while s - 2 * key + 2 * n + 2 <= 0:
        n += 1
    return lambda u: u ** (s - 1 - 2 * key) * (
        mpmath.cos(u) - sum((-1) ** i * u ** (2 * i) / mpmath.factorial(2 * i)
                            for i in range(n + 1)))


def exact_cell(kind: str, key: int, s: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The table entry below each z plus a Gauss-Legendre-40 cell on
    [k pi/4, z], nodes and kernel in mpmath at 30 digits from the float edge
    k pi/4 and z; and the integral of |kernel| over each panel, in floats."""
    k = np.floor(z / rates._QUARTER).astype(np.int64)
    table = rates._table(kind, key, s, int(np.max(k)))
    f = _kernel_mp(kind, key, s)
    x, w = np.polynomial.legendre.leggauss(40)
    out = np.empty(z.size)
    with mpmath.workdps(_CELL_DPS):
        for i, (ki, zi) in enumerate(zip(k, z)):
            a = mpmath.mpf(float(rates._QUARTER * ki))
            half = (mpmath.mpf(float(zi)) - a) / 2
            cell = half * mpmath.fsum(wj * f(a + half * (1 + xj)) for xj, wj in zip(x, w))
            out[i] = float(table[ki] + cell)
    u, wu = end_power_rule(rates._QUARTER * k[:, None], rates._QUARTER * (k[:, None] + 1), 0.0,
                           at_lower=True, order=40)
    return out, np.sum(np.abs(rates._table_integrand(kind, key, s, u)) * wu, axis=1)


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
