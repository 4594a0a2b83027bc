"""Fourier transforms of convex-body indicators, F[1_K](x) = int_K e^{i(y,x)} dy.

Closed forms for ball, ellipsoid, and unit cube, and the large-|x| two-point
stationary-phase approximation for strictly convex bodies, whose amplitude
coefficient and phase offsets were calibrated once against the exact ball
transform and are frozen below:

    F[1_K](x)  ~  sum over the two boundary points x+- extremal along x of
                  (2*pi)^((d-1)/2) * kappa(x+-)^(-1/2) * |x|^(-(d+1)/2)
                  * exp(i * ((x, x+-) -+ pi*(d+1)/4))

    (for the unit ball this reproduces the exact large-argument Bessel
    asymptotics with coefficient error zero, see tests).

Conventions: transforms use e^{i(y,x)} with no 2*pi in the exponent, so
F[1_K](0) is the volume and |F| <= volume everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import bessel_j
from .geometry import (
    Ball,
    ConvexBody,
    Cube,
    Ellipsoid,
    as_rows,
    as_vec,
    extremal_points,
    gaussian_curvature,
    is_strictly_convex,
    row_norms,
    unit_ball_volume,
    width,
)
from .quadrature import bracketed_maxima, bracketed_roots

__all__ = [
    "indicator_ft",
    "scaled_indicator_ft",
    "unit_ball_profile",
    "ratio_abs_sq",
    "StationaryPhaseFT",
    "stationary_phase_ft",
    "ray_zeros",
    "ray_peaks",
]


# (sin w - w cos w) / w^3 times 4 pi as the even series
# 4 pi sum_{n>=1} (-1)^(n+1) 2n w^(2n-2) / (2n+1)!, in v = w^2, lowest first;
# for w < 1 the 12th term is below 1e-22 of the sum
_BALL3_SERIES = tuple(4.0 * math.pi * (-1.0) ** (n + 1) * 2 * n / math.factorial(2 * n + 1)
                      for n in range(1, 13))


def unit_ball_profile(dim: int, w) -> np.ndarray:
    """Radial profile of the unit-ball transform: F[1_B](x) at |x| = w.

    Real-valued: (2*pi)^(d/2) J_{d/2}(w) / w^(d/2), with the w -> 0 limit
    equal to the unit-ball volume.  Odd dimensions use the elementary
    forms, so no Bessel evaluation is involved there.
    """
    w = np.abs(np.asarray(w, dtype=float))
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    if dim == 1:
        safe = np.where(w < 1e-8, 1.0, w)
        out = np.where(w < 1e-8, 2.0 * (1.0 - w * w / 6.0), 2.0 * np.sin(safe) / safe)
    elif dim == 3:
        # the closed form cancels as w -> 0 (relative error about 3e-16 / w^2),
        # so the rows below 1 take the even series instead
        with np.errstate(divide="ignore", invalid="ignore"):
            out = 4.0 * math.pi * (np.sin(w) - w * np.cos(w)) / w ** 3
        near = w < 1.0
        if near.any():
            v = w[near] ** 2
            acc = np.full(v.shape, _BALL3_SERIES[-1])
            for c in _BALL3_SERIES[-2::-1]:
                acc *= v
                acc += c
            out[near] = acc
    elif dim in (2, 4):
        nu = dim / 2.0
        safe = np.where(w == 0.0, 1.0, w)
        vals = (2.0 * math.pi) ** nu * bessel_j(nu, safe) / safe ** nu
        out = np.where(w == 0.0, unit_ball_volume(dim), vals)
    else:
        raise ValueError(f"no closed form for dimension {dim}")
    return float(out[0]) if scalar else out


def indicator_ft(body: ConvexBody, x):
    """F[1_K](x) by the closed form for the body family of K.

    x is one point (a vector; a complex number comes back) or rows of
    points (an (N, d) array; N complex values come back).  Both take the
    same path, so a point has the same value alone as among rows.
    """
    if not isinstance(body, (Ball, Ellipsoid, Cube)):
        raise TypeError(f"unknown body {body!r}")
    pts, one = as_rows(x, body.dim)
    if isinstance(body, Cube):
        # prod_k (e^{i x_k} - 1) / (i x_k) as e^{i x_k/2} sin(x_k/2) / (x_k/2), factor
        # 1 at x_k = 0 (e^{iz} - 1 loses precision for |z| < 1e-7), multiplied out in
        # real arithmetic as Python multiplies complex numbers (numpy's may fuse)
        re, im = np.ones(len(pts)), np.zeros(len(pts))
        for xk in pts.T:
            half = 0.5 * np.where(xk == 0.0, 1.0, xk)
            rot, sinc = np.exp(1j * half), np.sin(half) / half
            fr, fi = rot.real * sinc, rot.imag * sinc
            re, im = (np.where(xk == 0.0, re, re * fr - im * fi),
                      np.where(xk == 0.0, im, re * fi + im * fr))
        vals = re + im * 1j
    else:
        # E = a o B(0,1), so F factors through the scaled argument (a ball
        # scales after the norm)
        y = pts if isinstance(body, Ball) else pts * body.semi_axes
        w = row_norms(y)
        if isinstance(body, Ball):
            scale, w = body.radius ** body.dim, body.radius * w
        else:
            scale = float(np.prod(body.semi_axes))
        vals = (scale * unit_ball_profile(body.dim, w)).astype(complex)
    return complex(vals[0]) if one else vals


def scaled_indicator_ft(body: ConvexBody, t, x) -> complex:
    """F[1_{K o t}](x) = (prod_k t_k) * F[1_K](x o t) for coordinate dilation t > 0."""
    x = as_vec(x)
    t = as_vec(t, dim=x.size)
    if np.any(t <= 0.0):
        raise ValueError("dilation vector must be positive in every coordinate")
    return float(np.prod(t)) * indicator_ft(body, x * t)


def ratio_abs_sq(body: ConvexBody, pts: np.ndarray) -> np.ndarray:
    """|F[1_K](x) / volume(K)|^2 vectorized over rows of pts (N, d).

    This normalized modulus is what the atomic decay sum consumes (the
    continuous routes read the G_s and K_{s,m} tables instead); it is 1
    at x = 0 and <= 1 everywhere.
    """
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    d = pts.shape[1]
    if isinstance(body, (Ball, Ellipsoid)):
        a = body.semi_axes
        if a.size != d:
            raise ValueError(f"dimension mismatch: body is {a.size}-d, points are {d}-d")
        w = np.linalg.norm(pts * a[None, :], axis=1)
        g = unit_ball_profile(d, w) / unit_ball_volume(d)
        return g * g
    if isinstance(body, Cube):
        if body.dim != d:
            raise ValueError(f"dimension mismatch: body is {body.dim}-d, points are {d}-d")
        z = pts
        safe = np.where(z == 0.0, 1.0, z)
        # |(e^{iz}-1)/(iz)|^2 = (sin(z/2)/(z/2))^2, limit 1 at z = 0; the
        # half-angle form stays accurate where 2 - 2 cos z cancels.
        sinc_half = np.sin(0.5 * safe) / (0.5 * safe)
        fac = np.where(z == 0.0, 1.0, sinc_half * sinc_half)
        return np.prod(fac, axis=1)
    raise TypeError(f"unknown body {body!r}")


# -- stationary-phase approximation ------------------------------------------


@dataclass(frozen=True)
class StationaryPhaseFT:
    """Two-point stationary-phase data for F[1_K](x) at large |x|.

    Scalars for one point x; arrays of N values for rows (N, d) of points.
    """

    value: complex | np.ndarray
    envelope: float | np.ndarray
    amp_plus: float | np.ndarray
    amp_minus: float | np.ndarray
    phase_plus: float | np.ndarray
    phase_minus: float | np.ndarray


def stationary_phase_ft(body: ConvexBody, x) -> StationaryPhaseFT:
    """Large-|x| approximation of F[1_K](x) for strictly convex K.

    The two boundary points extremal along x contribute amplitudes
    (2*pi)^((d-1)/2) kappa^(-1/2) |x|^(-(d+1)/2) with phases
    (x, x+-) -+ pi(d+1)/4; `envelope` is the amplitude sum, an upper
    envelope for |value| and, asymptotically, for |F[1_K]| itself.

    x is one point (scalar fields come back; x = 0 raises) or rows (N, d)
    of points (fields of N values; a row at x = 0 reads NaN).  Both take
    the same path, and each row uses its own direction x/|x|, so a point
    has the same bits alone as among rows.
    """
    if not is_strictly_convex(body):
        raise ValueError("stationary-phase approximation needs a strictly convex body")
    pts, one = as_rows(x, body.dim)
    r = row_norms(pts)
    if one and r[0] == 0.0:
        raise ValueError("x = 0 has no stationary-phase expansion")
    keep = r > 0.0
    pts, r, d = pts[keep], r[keep], body.dim
    xp, xm = extremal_points(body, pts / r[:, None])
    kp = gaussian_curvature(body, xp)
    km = gaussian_curvature(body, xm)
    # Python's float power, as for one point: numpy's array power may round differently
    coeff = (2.0 * math.pi) ** ((d - 1) / 2.0) * np.array([v ** (-(d + 1) / 2.0) for v in r.tolist()])
    amp_p = coeff / np.sqrt(kp)
    amp_m = coeff / np.sqrt(km)
    offset = math.pi * (d + 1) / 4.0
    ph_p = (pts[:, None, :] @ xp[:, :, None])[:, 0, 0] - offset
    ph_m = (pts[:, None, :] @ xm[:, :, None])[:, 0, 0] + offset
    value = amp_p * np.exp(1j * ph_p) + amp_m * np.exp(1j * ph_m)
    fields = np.full((5, len(keep)), math.nan)
    fields[:, keep] = amp_p + amp_m, amp_p, amp_m, ph_p, ph_m
    values = np.full(len(keep), math.nan, dtype=complex)
    values[keep] = value
    if one:
        return StationaryPhaseFT(complex(values[0]), *(float(v) for v in fields[:, 0]))
    return StationaryPhaseFT(values, *fields)


# -- ray diagnostics (zero spacing, envelope peaks) --------------------------


def _ray_scan(body: ConvexBody, eta, z_lo: float, z_hi: float):
    """F[1_K](z * eta) on arrays of z, and a grid on [z_lo, z_hi] of 16 z per period."""
    eta = as_vec(eta)
    eta = eta / np.linalg.norm(eta)

    def f(z: np.ndarray) -> np.ndarray:
        return indicator_ft(body, z[:, None] * eta[None, :])

    step = 2.0 * math.pi / (width(body, eta) * 16.0)
    return f, np.arange(z_lo, z_hi + step, step)


def ray_zeros(body: ConvexBody, eta, z_lo: float, z_hi: float) -> np.ndarray:
    """Zeros of Re F[1_K](z * eta) on [z_lo, z_hi], by scan plus bisection."""
    f, zs = _ray_scan(body, eta, z_lo, z_hi)
    return bracketed_roots(lambda z: f(z).real, zs, xtol=1e-12)


def ray_peaks(body: ConvexBody, eta, z_lo: float, z_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Local maxima of |F[1_K](z * eta)| on [z_lo, z_hi].

    Returns (locations, values).  Grid scan at 16 samples per oscillation
    period; each grid maximum is polished by a golden-section search over
    its two neighbouring cells, all of them at once.
    """
    f, zs = _ray_scan(body, eta, z_lo, z_hi)
    vals = np.abs(f(zs))
    top = np.flatnonzero((vals[1:-1] >= vals[:-2]) & (vals[1:-1] > vals[2:])) + 1
    return bracketed_maxima(lambda z: np.abs(f(z)), zs[top - 1], zs[top + 1], xtol=1e-10)
