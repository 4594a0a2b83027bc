"""Spectral measures on R^d and the quantities the rate theory extracts.

Four measure families: finite atomic combs, radial power laws
c |x|^(gamma-d) on a punctured ball, anisotropic power products
c prod |x_k|^(alpha_k - 1) on a box, and finite sums of those.  All are
finite measures with no atom at the origin.

The two geometric quantities consumed downstream are the mass of small
ellipsoidal / box neighborhoods of the origin and the singular integral
int |x|^(-q) dsigma.  Masses are closed forms in d = 1, for a radial law on
a ball, and for an anisotropic law on a neighbourhood inside its support
box (in any d).  Otherwise they are angular quadratures in d <= 3 (radial
direction in closed form); a neighbourhood strictly inside a radial law's
support skips the search for the kinks where the two radial extents
cross, as it has none.  The singular integral is a closed form for
atomic sums and both power families (finite iff the radial order exceeds
q), plus, for a box support in d >= 2, the angular quadrature of the
piece outside the inscribed ball.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .geometry import as_vec, unit_sphere_area
from .quadrature import bracketed_roots, orthant_directions, orthant_integral, refined_breaks

__all__ = [
    "AtomicMeasure",
    "RadialPowerMeasure",
    "AnisotropicPowerMeasure",
    "SumMeasure",
    "SpectralMeasure",
    "EllipsoidNeighborhood",
    "BoxNeighborhood",
    "Neighborhood",
    "mass",
    "singular_integral",
    "density_at",
    "total_mass",
    "parse_measure",
    "format_measure",
    "split_top",
]


# -- measures ----------------------------------------------------------------


@dataclass(frozen=True)
class AtomicMeasure:
    """sum_j w_j * delta(x_j) with w_j > 0 and x_j != 0.  Empty = zero measure."""

    points: tuple[tuple[float, ...], ...]
    weights: tuple[float, ...]
    dim: int

    def __post_init__(self):
        pts = tuple(tuple(float(c) for c in p) for p in self.points)
        wts = tuple(float(w) for w in self.weights)
        if len(pts) != len(wts):
            raise ValueError("points and weights must pair up")
        for p in pts:
            if len(p) != self.dim:
                raise ValueError(f"atom {p} does not have dimension {self.dim}")
            if not all(math.isfinite(c) for c in p):
                raise ValueError(f"atom {p} has a non-finite coordinate")
            if not any(c != 0.0 for c in p):
                raise ValueError("atoms at the origin are not allowed")
        if not all(math.isfinite(w) and w > 0.0 for w in wts):
            raise ValueError("atom weights must be finite and positive")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @property
    def locations(self) -> np.ndarray:
        if not self.points:
            return np.zeros((0, self.dim))
        return np.asarray(self.points, dtype=float)

    @property
    def weight_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


def _require_finite(what: str, values) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{what} must be finite")


def _checked_scale(total: float, scale) -> float:
    """The density scale `scale()` that gives total mass `total`; a ValueError
    when a power or the scale itself leaves the floating-point range."""
    try:
        s = scale()
    except (OverflowError, ZeroDivisionError):
        s = math.nan
    if not math.isfinite(s) or (s == 0.0) != (total == 0.0):
        raise ValueError(
            f"total mass {total:g} puts the density scale outside the floating-point range"
        )
    return s


def _box_extent(halfwidths, om: np.ndarray) -> np.ndarray:
    """Distance to the boundary of the box |x_k| <= h_k along unit directions (rows)."""
    om = np.abs(np.atleast_2d(om))
    h = np.asarray(halfwidths)
    with np.errstate(divide="ignore"):
        ratios = np.where(om > 0.0, h[None, :] / om, np.inf)
    return np.min(ratios, axis=1)


# Both power families give the angular-radial quadratures one interface: along
# a unit direction omega the density in r is angular_density(omega) *
# r^(radial_order - 1) on 0 < r <= support_profile(omega), and angular_alphas
# are the alpha_k of the |omega_k|^(alpha_k - 1) factors (all 1 when radial).


@dataclass(frozen=True)
class RadialPowerMeasure:
    """Density c |x|^(gamma - d) on 0 < |x| <= R; total mass c*S_d*R^gamma/gamma."""

    gamma: float
    radius: float
    scale: float
    dim: int

    def __post_init__(self):
        _require_finite("radial measure parameters", (self.gamma, self.radius, self.scale))
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")

    @classmethod
    def with_total_mass(cls, gamma: float, radius: float, total: float, dim: int):
        _require_finite("radial measure parameters", (gamma, radius, total))
        if gamma <= 0 or radius <= 0:
            raise ValueError("gamma and radius must be positive")
        s = _checked_scale(
            total, lambda: total * gamma / (unit_sphere_area(dim) * radius ** gamma)
        )
        return cls(gamma=gamma, radius=radius, scale=s, dim=dim)

    @property
    def radial_order(self) -> float:
        """Exponent s with mass ~ rho^s along each ray."""
        return self.gamma

    @property
    def angular_alphas(self) -> tuple[float, ...]:
        return (1.0,) * self.dim

    def angular_density(self, om: np.ndarray) -> np.ndarray:
        return np.full(om.shape[0], self.scale)

    def support_profile(self, om: np.ndarray) -> np.ndarray:
        return np.full(om.shape[0], self.radius)


@dataclass(frozen=True)
class AnisotropicPowerMeasure:
    """Density c prod_k |x_k|^(alpha_k - 1) on the box |x_k| <= b_k."""

    alphas: tuple[float, ...]
    halfwidths: tuple[float, ...]
    scale: float

    def __post_init__(self):
        al = tuple(float(a) for a in self.alphas)
        hw = tuple(float(b) for b in self.halfwidths)
        if len(al) != len(hw):
            raise ValueError("alphas and halfwidths must share a dimension")
        _require_finite("anisotropic measure parameters", al + hw + (self.scale,))
        if any(a <= 0 for a in al):
            raise ValueError("every alpha must be positive")
        if any(b <= 0 for b in hw):
            raise ValueError("every box halfwidth must be positive")
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")
        object.__setattr__(self, "alphas", al)
        object.__setattr__(self, "halfwidths", hw)

    @property
    def dim(self) -> int:
        return len(self.alphas)

    @classmethod
    def with_total_mass(cls, alphas, halfwidths, total: float):
        probe = cls(alphas=tuple(alphas), halfwidths=tuple(halfwidths), scale=1.0)
        _require_finite("anisotropic measure parameters", (total,))
        return cls(
            alphas=probe.alphas,
            halfwidths=probe.halfwidths,
            scale=_checked_scale(total, lambda: total / total_mass(probe)),
        )

    @property
    def radial_order(self) -> float:
        return float(sum(self.alphas))

    @property
    def angular_alphas(self) -> tuple[float, ...]:
        return self.alphas

    def angular_density(self, om: np.ndarray) -> np.ndarray:
        al = np.asarray(self.alphas)
        return self.scale * np.prod(np.abs(om) ** (al[None, :] - 1.0), axis=1)

    def support_profile(self, om: np.ndarray) -> np.ndarray:
        return _box_extent(self.halfwidths, om)


@dataclass(frozen=True)
class SumMeasure:
    """Finite sum of measures of the other families, sharing one dimension."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("sum measure needs at least one part")
        dims = {p.dim for p in parts}
        if len(dims) != 1:
            raise ValueError(f"sum parts disagree on dimension: {sorted(dims)}")
        object.__setattr__(self, "parts", parts)

    @property
    def dim(self) -> int:
        return self.parts[0].dim


SpectralMeasure = AtomicMeasure | RadialPowerMeasure | AnisotropicPowerMeasure | SumMeasure


def total_mass(m: SpectralMeasure) -> float:
    if isinstance(m, AtomicMeasure):
        return float(sum(m.weights))
    if isinstance(m, RadialPowerMeasure):
        return m.scale * unit_sphere_area(m.dim) * m.radius ** m.gamma / m.gamma
    if isinstance(m, AnisotropicPowerMeasure):
        out = m.scale
        for a, b in zip(m.alphas, m.halfwidths):
            out *= 2.0 * b ** a / a
        return out
    if isinstance(m, SumMeasure):
        return float(sum(total_mass(p) for p in m.parts))
    raise TypeError(f"unknown measure {m!r}")


def is_zero_measure(m: SpectralMeasure) -> bool:
    return total_mass(m) == 0.0


# -- neighborhoods of the origin ---------------------------------------------


@dataclass(frozen=True)
class EllipsoidNeighborhood:
    """Open ellipsoid {x : sum (x_k / delta_k)^2 < 1}."""

    semi_axes: tuple[float, ...]

    def __post_init__(self):
        ax = tuple(float(a) for a in self.semi_axes)
        if any(a <= 0 for a in ax):
            raise ValueError("neighborhood semi-axes must be positive")
        object.__setattr__(self, "semi_axes", ax)

    @classmethod
    def from_inverse(cls, t):
        t = as_vec(t)
        if np.any(t <= 0):
            raise ValueError("t must be positive in every coordinate")
        return cls(semi_axes=tuple(1.0 / t))

    @property
    def dim(self) -> int:
        return len(self.semi_axes)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        d = np.asarray(self.semi_axes)
        return np.sum((pts / d[None, :]) ** 2, axis=1) < 1.0

    def radial_profile(self, omega: np.ndarray) -> np.ndarray:
        """Boundary radius along unit directions omega (rows)."""
        d = np.asarray(self.semi_axes)
        return 1.0 / np.linalg.norm(np.atleast_2d(omega) / d[None, :], axis=1)


@dataclass(frozen=True)
class BoxNeighborhood:
    """Half-open box {x : -h_k < x_k <= h_k}, the image of {-1 < t_k x_k <= 1}."""

    halfwidths: tuple[float, ...]

    def __post_init__(self):
        hw = tuple(float(h) for h in self.halfwidths)
        if any(h <= 0 for h in hw):
            raise ValueError("box halfwidths must be positive")
        object.__setattr__(self, "halfwidths", hw)

    @classmethod
    def from_inverse(cls, t):
        t = as_vec(t)
        if np.any(t <= 0):
            raise ValueError("t must be positive in every coordinate")
        return cls(halfwidths=tuple(1.0 / t))

    @property
    def dim(self) -> int:
        return len(self.halfwidths)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        h = np.asarray(self.halfwidths)
        return np.all((pts > -h[None, :]) & (pts <= h[None, :]), axis=1)

    def radial_profile(self, omega: np.ndarray) -> np.ndarray:
        return _box_extent(self.halfwidths, omega)


Neighborhood = EllipsoidNeighborhood | BoxNeighborhood


# -- angular quadrature helpers ----------------------------------------------
#
# Masses of star-shaped sets under power-homogeneous densities reduce to
# integrals over the first orthant of the sphere (everything here is even
# per axis), which `quadrature.orthant_integral` evaluates: its end segments
# use Gauss-Jacobi rules so the |omega_k|^(alpha-1) axis singularities are
# absorbed into the weights.  Here the breakpoints are chosen: box corners
# and face switches are known in closed form, other radial truncation
# kinks are located numerically.

_QUAD_ORDER = 24
_SCAN = np.linspace(1e-9, math.pi / 2 - 1e-9, 4096)
_THETA_SCAN = np.linspace(1e-9, math.pi / 2 - 1e-9, 1024)


def _mass_breaks(d: int, extra, singular_ends: bool) -> list[float]:
    """Breaks of one angle on [0, pi/2]: the kinks in `extra` plus pi/4 in
    d = 3, refined to pi/32 in d = 2 and to pi/16 (phi and theta) in d = 3.

    With `singular_ends` (axis factors |omega_k|^(alpha_k - 1) in the
    density) a kink closer than 1/16 of that step to an end is graded away
    from it by factors of 4 up to the step: otherwise the plain Gauss
    segment after the thin end rule meets the end singularity just outside
    itself and can be off by 1e-3.
    """
    step = math.pi / 32 if d == 2 else math.pi / 16
    base = {0.0, math.pi / 2} if d == 2 else {0.0, math.pi / 4, math.pi / 2}
    breaks = sorted(base | {float(b) for b in extra if 0.0 < b < math.pi / 2})
    graded = []
    for gap, end, sign in ((breaks[1], 0.0, 1.0), (math.pi / 2 - breaks[-2], math.pi / 2, -1.0)):
        if singular_ends and gap < step / 16:
            graded += [end + sign * gap * 4.0 ** j for j in range(1, 1 + int(math.log(step / gap, 4)))]
    return refined_breaks(sorted(set(breaks + graded)), step)


def _box_face_switch(h, phi: float) -> float:
    """Polar angle where the extent of the 3-D box h moves from the x/y faces
    to the z face, along azimuth phi."""
    return math.atan2(1.0, max(math.cos(phi) / h[0], math.sin(phi) / h[1]) * h[2])


def _inside_support(m, hood: Neighborhood) -> bool:
    """Whether the neighbourhood lies inside the support of m: in the closed
    box of an aniso measure, strictly inside the ball of a radial one (on
    the sphere the crossing scans can see a rounding sign change, so a hood
    that touches it keeps their route)."""
    if isinstance(m, RadialPowerMeasure):
        if isinstance(hood, EllipsoidNeighborhood):
            return max(hood.semi_axes) < m.radius
        return math.hypot(*hood.halfwidths) < m.radius
    sizes = hood.semi_axes if isinstance(hood, EllipsoidNeighborhood) else hood.halfwidths
    return all(x <= b for x, b in zip(sizes, m.halfwidths))


def _aniso_mass_inside(m, hood: Neighborhood) -> float:
    """Mass of a neighbourhood inside the support box of an aniso measure, in
    any d: per axis 2 h^a / a on a box, and on an ellipsoid the
    Liouville-Dirichlet integral prod delta_k^a_k Gamma(a_k/2) / Gamma(1 + s/2)."""
    out = m.scale
    if isinstance(hood, BoxNeighborhood):
        for a, h in zip(m.alphas, hood.halfwidths):
            out *= 2.0 * h ** a / a
        return out
    for a, dl in zip(m.alphas, hood.semi_axes):
        out *= dl ** a * math.gamma(a / 2.0)
    return out / math.gamma(1.0 + m.radial_order / 2.0)


def _continuous_mass(m, hood: Neighborhood) -> float:
    d = m.dim
    if hood.dim != d:
        raise ValueError("measure and neighborhood disagree on dimension")
    s = m.radial_order

    # d = 1: everything is an interval; do it in closed form, in scalar
    # arithmetic (numpy's array power can round differently in the last bit)
    if d == 1:
        rho_n = hood.radial_profile(np.array([[1.0]]))[0]
        rho_s = m.support_profile(np.array([[1.0]]))[0]
        r = min(rho_n, rho_s)
        return float(2.0 * m.angular_density(np.array([[1.0]]))[0] * r ** s / s)

    inside = _inside_support(m, hood)
    if inside and isinstance(m, AnisotropicPowerMeasure):
        with contextlib.suppress(OverflowError):  # a Gamma factor beyond the float range
            return _aniso_mass_inside(m, hood)

    # fully symmetric radial case: closed form
    if isinstance(m, RadialPowerMeasure) and isinstance(hood, EllipsoidNeighborhood):
        ax = hood.semi_axes
        if all(a == ax[0] for a in ax):
            r = min(ax[0], m.radius)
            return m.scale * unit_sphere_area(d) * r ** s / s
    if d > 3:
        raise ValueError(f"mass quadrature supports d <= 3, got d = {d}")

    def g(om):
        rho = np.minimum(hood.radial_profile(om), m.support_profile(om))
        return m.angular_density(om) * rho ** s / s

    # the support's edge puts kinks where the radial extents cross; a
    # neighbourhood inside the support has none, so the scans are skipped
    def delta(phi, theta=None):
        om = orthant_directions(phi, theta)
        rows = om.reshape(-1, d)
        return (hood.radial_profile(rows) - m.support_profile(rows)).reshape(om.shape[:-1])

    boxes = [x.halfwidths for x in (hood, m)
             if isinstance(x, (BoxNeighborhood, AnisotropicPowerMeasure))]
    corners = [math.atan2(h[1], h[0]) for h in boxes]
    singular = isinstance(m, AnisotropicPowerMeasure)
    if d == 2:
        crossings = [] if inside else list(bracketed_roots(delta, _SCAN, xtol=1e-14))
        return orthant_integral(m.angular_alphas, g, _mass_breaks(2, corners + crossings, singular),
                                _QUAD_ORDER)

    # the phi-integrand has a kink where a theta-crossing reaches the equator
    equator = [] if inside else list(
        bracketed_roots(lambda phi: delta(phi, np.full_like(phi, math.pi / 2)), _SCAN, 1e-14))

    def theta_breaks(phi):
        if inside:
            crossings = [()] * phi.size
        else:  # the theta-crossings of all phi nodes in one search
            grid = np.broadcast_to(_THETA_SCAN, (phi.size, _THETA_SCAN.size))
            crossings = bracketed_roots(lambda theta: delta(phi[:, None], theta), grid, xtol=1e-14)
        return [_mass_breaks(3, list(c) + [_box_face_switch(h, ph) for h in boxes], singular)
                for ph, c in zip(phi, crossings)]

    return orthant_integral(m.angular_alphas, g, _mass_breaks(3, corners + equator, singular),
                            _QUAD_ORDER, theta_breaks)


def mass(m: SpectralMeasure, hood: Neighborhood) -> float:
    """sigma(N) for an ellipsoidal or box neighborhood N of the origin.

    Atomic masses are exact membership sums (box membership is half-open,
    matching {-1 < t_k x_k <= 1}).  The continuous families are closed
    forms in d = 1, for a radial law on a ball, and for an aniso law when
    N lies in its support box (delta_k <= b_k or h_k <= b_k): the product
    c prod 2 h_k^alpha_k / alpha_k on a box, the Liouville-Dirichlet
    c prod delta_k^alpha_k Gamma(alpha_k/2) / Gamma(1 + s/2) on an
    ellipsoid.  Otherwise (d <= 3 only) the radial direction is integrated
    in closed form and the angular part by quadrature, with breaks at the
    box corners and faces and, unless N lies strictly inside a radial
    law's ball (max delta_k < R or |h| < R), at the searched crossings of
    the support's edge.  Sums add their parts.
    """
    if isinstance(m, AtomicMeasure):
        if m.dim != hood.dim:
            raise ValueError("measure and neighborhood disagree on dimension")
        if not m.points:
            return 0.0
        inside = hood.contains(m.locations)
        return float(np.sum(m.weight_array[inside]))
    if isinstance(m, SumMeasure):
        return float(sum(mass(p, hood) for p in m.parts))
    if isinstance(m, (RadialPowerMeasure, AnisotropicPowerMeasure)):
        return _continuous_mass(m, hood)
    raise TypeError(f"unknown measure {m!r}")


# -- singular integral -------------------------------------------------------


def _angular_total(m) -> float:
    """int over the sphere of the angular density factor A(omega)."""
    if isinstance(m, RadialPowerMeasure):
        return m.scale * unit_sphere_area(m.dim)
    al = m.alphas
    out = 2.0 * m.scale
    for a in al:
        out *= math.gamma(a / 2.0)
    return out / math.gamma(sum(al) / 2.0)


def singular_integral(m: SpectralMeasure, q: float) -> float:
    """int |x|^(-q) dsigma(x); returns math.inf when it diverges.

    Atomic measures are exact sums.  Along each ray a power family has
    density A(omega) r^(s + q - 1) with s = radial order - q, so the
    integral is finite iff s > 0, and over the inscribed ball (radius R,
    or min b_k for a box) it is the closed form int A * R^s / s.  A box in
    d >= 2 adds the angular quadrature of A (rho^s - R^s) / s over the
    directions, rho being the box's extent.  Sums add their parts.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    if isinstance(m, AtomicMeasure):
        if not m.points:
            return 0.0
        r = np.linalg.norm(m.locations, axis=1)
        return float(np.sum(m.weight_array * r ** (-q)))
    if isinstance(m, SumMeasure):
        return float(sum(singular_integral(p, q) for p in m.parts))
    if not isinstance(m, (RadialPowerMeasure, AnisotropicPowerMeasure)):
        raise TypeError(f"unknown measure {m!r}")
    s = m.radial_order - q
    if s <= 0:
        return math.inf
    radial = isinstance(m, RadialPowerMeasure)
    r_in = m.radius if radial else min(m.halfwidths)
    inner = _angular_total(m) * r_in ** s / s
    if radial or m.dim == 1:
        return inner

    # outer piece: the box minus its inscribed ball
    h = m.halfwidths

    def g(om):
        return m.angular_density(om) * ((m.support_profile(om) ** s - r_in ** s) / s)

    outer = orthant_integral(m.alphas, g, _mass_breaks(m.dim, [math.atan2(h[1], h[0])], True),
                             _QUAD_ORDER,
                             lambda phi: [_mass_breaks(3, [_box_face_switch(h, ph)], True)
                                          for ph in phi])
    return inner + outer


# -- densities ---------------------------------------------------------------


def density_at(m: SpectralMeasure, x) -> float:
    """Lebesgue density at x for the continuous families; atomic raises."""
    x = as_vec(x)
    if isinstance(m, AtomicMeasure):
        raise ValueError("atomic measures have no density")
    if isinstance(m, RadialPowerMeasure):
        as_vec(x, dim=m.dim)
        r = float(np.linalg.norm(x))
        if r == 0.0 or r > m.radius:
            return 0.0
        return m.scale * r ** (m.gamma - m.dim)
    if isinstance(m, AnisotropicPowerMeasure):
        as_vec(x, dim=m.dim)
        h = np.asarray(m.halfwidths)
        if np.any(np.abs(x) > h):
            return 0.0
        al = np.asarray(m.alphas)
        with np.errstate(divide="ignore"):
            factors = np.abs(x) ** (al - 1.0)
        out = m.scale * float(np.prod(factors))
        return out
    if isinstance(m, SumMeasure):
        return float(sum(density_at(p, x) for p in m.parts))
    raise TypeError(f"unknown measure {m!r}")


# -- measure spec strings ----------------------------------------------------
#
# Grammar (see README):
#   atomic:[(x1,x2;w),(x1,x2;w),...]
#   radial:gamma,R,mass
#   aniso:a1,a2;b1,b2;mass
#   sum:[spec|spec|...]


def split_top(s: str, sep: str) -> list[str]:
    """Split s at each sep outside parentheses and brackets."""
    out, depth, cur = [], 0, []
    for ch in s:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return out


def parse_measure(spec: str, dim: int = 2) -> SpectralMeasure:
    """Parse a measure spec string; raises ValueError with a usable message."""
    spec = spec.strip()
    if spec.startswith("atomic:"):
        body = spec[len("atomic:"):].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"bad atomic spec {spec!r}: expected atomic:[(x;w),...]")
        inner = body[1:-1].strip()
        if not inner:
            return AtomicMeasure(points=(), weights=(), dim=dim)
        points, weights = [], []
        for tok in split_top(inner, ","):
            tok = tok.strip()
            if not (tok.startswith("(") and tok.endswith(")")):
                raise ValueError(f"bad atom {tok!r} in {spec!r}")
            try:
                loc_s, w_s = tok[1:-1].split(";")
                points.append(tuple(float(c) for c in loc_s.split(",")))
                weights.append(float(w_s))
            except ValueError:
                raise ValueError(f"bad atom {tok!r} in {spec!r}") from None
        d = len(points[0])
        return AtomicMeasure(points=tuple(points), weights=tuple(weights), dim=d)
    if spec.startswith("radial:"):
        try:
            gamma, radius, m_tot = (float(v) for v in spec[len("radial:"):].split(","))
        except ValueError:
            raise ValueError(f"bad radial spec {spec!r}: expected radial:gamma,R,mass") from None
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        return RadialPowerMeasure.with_total_mass(gamma, radius, m_tot, dim=dim)
    if spec.startswith("aniso:"):
        parts = spec[len("aniso:"):].split(";")
        if len(parts) != 3:
            raise ValueError(f"bad aniso spec {spec!r}: expected aniso:a1,..;b1,..;mass")
        try:
            alphas = tuple(float(v) for v in parts[0].split(","))
            halfwidths = tuple(float(v) for v in parts[1].split(","))
            m_tot = float(parts[2])
        except ValueError:
            raise ValueError(f"bad aniso spec {spec!r}: fields must be numbers") from None
        return AnisotropicPowerMeasure.with_total_mass(alphas, halfwidths, m_tot)
    if spec.startswith("sum:"):
        body = spec[len("sum:"):].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"bad sum spec {spec!r}: expected sum:[spec|spec|...]")
        parts = tuple(parse_measure(tok.strip(), dim=dim) for tok in split_top(body[1:-1], "|"))
        return SumMeasure(parts=parts)
    raise ValueError(
        f"unknown measure spec {spec!r} (expected atomic:..., radial:..., aniso:..., or sum:[...])"
    )


def format_measure(m: SpectralMeasure) -> str:
    if isinstance(m, AtomicMeasure):
        atoms = ",".join(
            "(" + ",".join(f"{c:.12g}" for c in p) + f";{w:.12g})"
            for p, w in zip(m.points, m.weights)
        )
        return f"atomic:[{atoms}]"
    if isinstance(m, RadialPowerMeasure):
        return f"radial:{m.gamma:.12g},{m.radius:.12g},{total_mass(m):.12g}"
    if isinstance(m, AnisotropicPowerMeasure):
        return (
            "aniso:"
            + ",".join(f"{a:.12g}" for a in m.alphas)
            + ";"
            + ",".join(f"{b:.12g}" for b in m.halfwidths)
            + f";{total_mass(m):.12g}"
        )
    if isinstance(m, SumMeasure):
        return "sum:[" + "|".join(format_measure(p) for p in m.parts) + "]"
    raise TypeError(f"unknown measure {m!r}")
