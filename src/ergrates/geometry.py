"""Convex bodies and the vector operations the rest of the package leans on.

Three body families are supported: centered balls, centered axis-aligned
ellipsoids, and the unit cube [0,1]^d.  Balls and ellipsoids are strictly
convex with smooth boundary; the cube is neither, and the operations that
need curvature or a unique support point reject it loudly rather than
returning something plausible.

Vectors are plain 1-D float ndarrays.  Every binary operation validates
that dimensions agree; silent broadcasting across mismatched dimensions is
exactly the bug class this module exists to prevent.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Ball",
    "Cube",
    "Ellipsoid",
    "ConvexBody",
    "as_vec",
    "as_rows",
    "row_norms",
    "unit_ball_volume",
    "volume",
    "support",
    "extremal_points",
    "gaussian_curvature",
    "width",
    "is_strictly_convex",
    "parse_body",
    "format_body",
]

# Closed forms below are only trusted for d <= 4; the angular quadratures
# (quadrature.kink_orthant_integral and refined_orthant_integral) stop at d <= 3.
MAX_DIM = 4

# Relative tolerance for "p lies on the boundary" in the defining equation.
BOUNDARY_RTOL = 1e-8


def as_vec(x, dim: int | None = None) -> np.ndarray:
    """Coerce x to a finite 1-D float vector, optionally checking its length."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    if dim is not None and v.size != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.size}")
    return v


def as_rows(x, dim: int | None = None) -> tuple[np.ndarray, bool]:
    """x as finite rows (N, d) of points, and whether x was one point (a vector).

    Each row is checked as `as_vec` checks one vector, of length dim when
    dim is given, so the first bad row raises the ValueError it raises
    alone; an empty grid is checked for its width alone.
    """
    rows = np.asarray(x, dtype=float)
    if rows.ndim != 2:
        return as_vec(rows, dim=dim)[None, :], True
    bad_width = rows.shape[1] == 0 or (dim is not None and rows.shape[1] != dim)
    if bad_width or not np.all(np.isfinite(rows)):
        for row in rows if len(rows) else np.ones((1, rows.shape[1])):
            as_vec(row, dim=dim)
    return rows, False


def row_norms(pts: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of pts (N, d).

    Each goes through the dot product np.linalg.norm takes for one vector,
    so a row has the bits of its point alone (norm(pts, axis=1) rounds
    differently).
    """
    return np.sqrt((pts[:, None, :] @ pts[:, :, None])[:, 0, 0])


def _unit(eta, dim: int) -> np.ndarray:
    """eta, one direction or rows (N, dim) of them, each checked to be a unit vector."""
    rows, one = as_rows(eta, dim)
    n = row_norms(rows)
    if np.any(n == 0.0):
        raise ValueError("direction must be nonzero")
    off = np.abs(n - 1.0) > 1e-9
    if np.any(off):
        raise ValueError(f"direction must be a unit vector (|eta| = {n[off][0]:.3e})")
    return rows[0] if one else rows


def unit_ball_volume(d: int) -> float:
    """Lebesgue volume of the unit ball in R^d."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def unit_sphere_area(d: int) -> float:
    """Surface measure of the unit sphere in R^d (d=1 gives 2 points)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _check_dim(d: int) -> None:
    if not 1 <= d <= MAX_DIM:
        raise ValueError(f"dimension must be in [1, {MAX_DIM}], got {d}")


def _check_axes(axes: tuple[float, ...]) -> None:
    """Refuse semi-axes whose fourth powers or squared product leave the normal
    float range: the curvature divides by both."""
    try:
        powers = [a ** 4 for a in axes] + [math.prod(axes) ** 2]
    except OverflowError:
        powers = [math.inf]
    if not all(sys.float_info.min <= v <= sys.float_info.max for v in powers):
        raise ValueError(f"semi-axes {axes} put a fourth power or the squared product "
                         "outside the normal floating-point range")


@dataclass(frozen=True)
class Ball:
    """Centered Euclidean ball of radius R in R^d."""

    radius: float
    dim: int = 2

    def __post_init__(self):
        _check_dim(self.dim)
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be positive, got {self.radius}")
        _check_axes((float(self.radius),) * self.dim)

    @property
    def semi_axes(self) -> np.ndarray:
        return np.full(self.dim, float(self.radius))


@dataclass(frozen=True)
class Ellipsoid:
    """Centered axis-aligned ellipsoid sum_k (x_k / a_k)^2 <= 1."""

    axes: tuple[float, ...]

    def __post_init__(self):
        axes = tuple(float(a) for a in self.axes)
        _check_dim(len(axes))
        if any(not (np.isfinite(a) and a > 0) for a in axes):
            raise ValueError(f"semi-axes must be positive, got {axes}")
        _check_axes(axes)
        object.__setattr__(self, "axes", axes)

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def semi_axes(self) -> np.ndarray:
        return np.asarray(self.axes, dtype=float)


@dataclass(frozen=True)
class Cube:
    """Unit cube [0,1]^d.  Not strictly convex; several operations reject it."""

    dim: int = 2

    def __post_init__(self):
        _check_dim(self.dim)


ConvexBody = Ball | Ellipsoid | Cube


def is_strictly_convex(body: ConvexBody) -> bool:
    return not isinstance(body, Cube)


def volume(body: ConvexBody) -> float:
    """Lebesgue volume L_d of the body."""
    if isinstance(body, Ball):
        return unit_ball_volume(body.dim) * body.radius ** body.dim
    if isinstance(body, Ellipsoid):
        return unit_ball_volume(body.dim) * float(np.prod(body.semi_axes))
    if isinstance(body, Cube):
        return 1.0
    raise TypeError(f"unknown body {body!r}")


def support(body: ConvexBody, eta) -> float:
    """Support function max_{y in K} (y, eta) for a unit direction eta.

    Parameters
    ----------
    body : ConvexBody
    eta : array_like
        Unit direction; anything off the unit sphere by more than 1e-9 is
        rejected so that callers do not silently feed scaled directions.

    Returns
    -------
    float
        The support value.  Positively homogeneous of degree 1 when
        extended off the sphere, which is why normalization is forced here.
    """
    if not isinstance(body, (Ball, Ellipsoid, Cube)):
        raise TypeError(f"unknown body {body!r}")
    eta = _unit(as_vec(eta), body.dim)
    if isinstance(body, Ball):
        return float(body.radius)
    if isinstance(body, Ellipsoid):
        return float(np.linalg.norm(body.semi_axes * eta))
    return float(np.sum(np.maximum(eta, 0.0)))


def _strictly_convex(body: ConvexBody, what: str) -> Ball | Ellipsoid:
    if isinstance(body, Cube):
        raise ValueError(what)
    if not isinstance(body, (Ball, Ellipsoid)):
        raise TypeError(f"unknown body {body!r}")
    return body


def extremal_points(body: ConvexBody, eta) -> tuple[np.ndarray, np.ndarray]:
    """Unique boundary maximizer/minimizer (x+, x-) of (y, eta).

    eta is one unit direction or rows (N, d) of them; x+- come back in the
    same shape, and a row has the bits of its direction alone.  Only
    defined for strictly convex bodies; the cube has faces, so the
    maximizer is not unique and the call is rejected.
    """
    body = _strictly_convex(body, "extremal points are not unique for the cube")
    eta = _unit(eta, body.dim)
    if isinstance(body, Ball):
        xp = body.radius * eta
    else:
        # Lagrange condition: boundary normal x/a^2 parallel to eta.
        a, rows = body.semi_axes, np.atleast_2d(eta)
        xp = ((a * a) * rows / row_norms(a * rows)[:, None]).reshape(eta.shape)
    return xp, -xp


def gaussian_curvature(body: ConvexBody, p):
    """Gaussian curvature of the boundary at a boundary point p.

    For the ellipsoid sum (x_k/a_k)^2 = 1 the product of the d-1 principal
    curvatures at p has the closed form

        kappa(p) = (prod_k a_k^2)^(-1) * (sum_k p_k^2 / a_k^4)^(-(d+1)/2),

    which reduces to R^(1-d) on the ball.  p is one point (a float comes
    back) or rows (N, d) of points (N floats); each must satisfy the
    defining equation to relative tolerance 1e-8.
    """
    body = _strictly_convex(body, "cube boundary has no curvature (flat faces)")
    a = body.semi_axes
    rows, one = as_rows(p, a.size)
    if np.any(np.abs(np.sum((rows / a) ** 2, axis=1) - 1.0) > BOUNDARY_RTOL):
        raise ValueError("point is not on the boundary")
    d = a.size
    if isinstance(body, Ball):
        kappa = np.full(len(rows), float(body.radius) ** (1 - d))
    else:
        s = np.sum(rows * rows / a ** 4, axis=1)
        # Python's float power: numpy's array power may round differently
        kappa = 1.0 / (float(np.prod(a * a)) * np.array([v ** ((d + 1) / 2.0) for v in s.tolist()]))
    return float(kappa[0]) if one else kappa


def width(body: ConvexBody, eta) -> float:
    """Width of the body along eta.

    Strictly convex bodies use the extremal points, (x+ - x-, eta); the
    cube falls back to the support-sum identity, which is equivalent.
    """
    eta = _unit(as_vec(eta), body.dim)
    if is_strictly_convex(body):
        xp, xm = extremal_points(body, eta)
        return float(np.dot(xp - xm, eta))
    return support(body, eta) + support(body, -eta)


# -- body spec strings -------------------------------------------------------
#
# Grammar used by config files and the CLI:
#   ball:R          (dimension supplied separately, default 2)
#   ellipsoid:a1,a2[,a3[,a4]]
#   cube            (dimension supplied separately, default 2)


def parse_body(spec: str, dim: int = 2) -> ConvexBody:
    """Parse a body spec string; raises ValueError with a usable message."""
    spec = spec.strip()
    if spec == "cube":
        return Cube(dim=dim)
    if spec.startswith("ball:"):
        try:
            r = float(spec[len("ball:"):])
        except ValueError:
            raise ValueError(f"bad ball spec {spec!r}: radius must be a number") from None
        return Ball(radius=r, dim=dim)
    if spec.startswith("ellipsoid:"):
        body = spec[len("ellipsoid:"):]
        try:
            axes = tuple(float(tok) for tok in body.split(","))
        except ValueError:
            raise ValueError(f"bad ellipsoid spec {spec!r}: axes must be numbers") from None
        if len(axes) < 2:
            raise ValueError(f"bad ellipsoid spec {spec!r}: need at least two axes")
        return Ellipsoid(axes=axes)
    raise ValueError(f"unknown body spec {spec!r} (expected ball:R, ellipsoid:a1,a2[,a3], or cube)")


def format_body(body: ConvexBody) -> str:
    if isinstance(body, Ball):
        return f"ball:{body.radius:.12g}"
    if isinstance(body, Ellipsoid):
        return "ellipsoid:" + ",".join(f"{a:.12g}" for a in body.axes)
    if isinstance(body, Cube):
        return "cube"
    raise TypeError(f"unknown body {body!r}")
