"""Independent references the benchmark checks ergrates' outputs against.

Nothing here imports ergrates: every value is a closed form derived from
the theory (README, module docstrings, arXiv 2506.16740) and evaluated
with numpy/scipy directly, so a defect in the package cannot hide in its
own reference.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import special

# -- regime tables -------------------------------------------------------------


def _square(alpha: list[Fraction]) -> tuple[str, list[Fraction], int]:
    """Box-average regime keyed on m = max alpha against 2 (r = tied neighbours)."""
    star = sorted(alpha)
    r = sum(1 for a, b in zip(star[:-1], star[1:]) if a == b)
    m = star[-1]
    if m < 2:
        return "SquareSubcritical", [-a for a in alpha], 0
    if m == 2:
        return "SquareCritical", [-a for a in alpha], r + 1
    return "SquareSupercritical", [-2 * a / m for a in alpha], r


def _circle(alpha: list[Fraction]) -> tuple[str, list[Fraction], int]:
    """Ball-average regime keyed on theta = -sum alpha against -(d + 1)."""
    d = len(alpha)
    theta = -sum(alpha)
    crit = -(d + 1)
    if theta > crit:
        return "CircleSubcritical", [-a for a in alpha], 0
    if theta == crit:
        return "CircleCritical", [-a for a in alpha], 1
    return "CircleSupercritical", [a * (d + 1) / theta for a in alpha], 0


def classify_expected(alpha) -> dict:
    """Exact regime report for an exponent vector of dyadic rationals."""
    a = [Fraction(v).limit_denominator(1 << 20) for v in alpha]
    sq_fam, sq_exp, sq_log = _square(a)
    ci_fam, ci_exp, ci_log = _circle(a)
    ds, dc = sum(sq_exp), sum(ci_exp)
    if ds != dc:
        verdict = "SquareBetter" if ds < dc else "CircleBetter"
    elif sq_log != ci_log:
        verdict = "SquareBetter" if sq_log < ci_log else "CircleBetter"
    else:
        verdict = "Equal"
    star = sorted(a)
    return {
        "m": float(star[-1]),
        "r": sum(1 for x, y in zip(star[:-1], star[1:]) if x == y),
        "theta": float(-sum(a)),
        "square": {"family": sq_fam, "exponents": [float(v) for v in sq_exp],
                   "log_power": sq_log},
        "circle": {"family": ci_fam, "exponents": [float(v) for v in ci_exp],
                   "log_power": ci_log},
        "verdict": verdict,
    }


# -- neighbourhood masses --------------------------------------------------------


def radial_ellipsoid_mass(total: float, gamma: float, radius: float, semi_axes) -> float:
    """sigma(E) for sigma = c|x|^(gamma-d) on |x| <= R and E inside that ball.

    mass = (c/gamma) int_S |omega / delta|^(-gamma) d omega; the angular
    integral is a Gauss hypergeometric function for d = 2 and for
    axisymmetric ellipsoids (delta_1 = delta_2) in d = 3.
    """
    ax = [float(v) for v in semi_axes]
    if max(ax) > radius:
        raise ValueError("closed form needs the ellipsoid inside the support")
    if len(ax) == 2:
        a, b = max(v ** -2 for v in ax), min(v ** -2 for v in ax)
        ang = special.hyp2f1(gamma / 2.0, 0.5, 1.0, 1.0 - b / a)
    elif len(ax) == 3 and ax[0] == ax[1]:
        a, b = ax[0] ** -2, ax[2] ** -2
        ang = special.hyp2f1(gamma / 2.0, 0.5, 1.5, 1.0 - b / a)
    else:
        raise ValueError("closed form covers d = 2 and axisymmetric d = 3")
    return float(total * radius ** -gamma * a ** (-gamma / 2.0) * ang)


def _aniso_scale(total: float, alphas, halfwidths) -> float:
    return total / math.prod(2.0 * b ** a / a for a, b in zip(alphas, halfwidths))


def aniso_box_mass(total: float, alphas, halfwidths, box) -> float:
    """sigma(box) for c prod |x_k|^(alpha_k - 1) on prod [-b_k, b_k]: separable."""
    return float(total * math.prod(
        (min(h, b) / b) ** a for a, b, h in zip(alphas, halfwidths, box)))


def aniso_ellipsoid_mass(total: float, alphas, halfwidths, semi_axes) -> float:
    """sigma(E) for E inside the support box: Liouville-Dirichlet integral.

    int_{|y| < 1} prod |y_k|^(alpha_k - 1) dy = prod Gamma(alpha_k/2) / Gamma(1 + s/2).
    """
    if any(dl > b for dl, b in zip(semi_axes, halfwidths)):
        raise ValueError("closed form needs the ellipsoid inside the support box")
    c = _aniso_scale(total, alphas, halfwidths)
    s = float(sum(alphas))
    return float(c * math.prod(dl ** a for a, dl in zip(alphas, semi_axes))
                 * math.prod(math.gamma(a / 2.0) for a in alphas) / math.gamma(1.0 + s / 2.0))


def aniso_singular_bracket(total: float, alphas, halfwidths, q: float) -> tuple[float, float]:
    """Bounds on int |x|^(-q) dsigma from the inscribed and circumscribed balls.

    Over a ball of radius r the integral is A * r^s / s with s = sum alpha - q
    and A = c * 2 prod Gamma(alpha_k/2) / Gamma(sum alpha / 2); the support
    box lies between the balls of radius min b and |b|.
    """
    s = float(sum(alphas)) - q
    if s <= 0:
        return math.inf, math.inf
    c = _aniso_scale(total, alphas, halfwidths)
    a_tot = 2.0 * c * math.prod(math.gamma(a / 2.0) for a in alphas) / math.gamma(sum(alphas) / 2.0)
    lo = a_tot * min(halfwidths) ** s / s
    hi = a_tot * math.sqrt(sum(b * b for b in halfwidths)) ** s / s
    return lo, hi


# -- indicator transforms ----------------------------------------------------------


def indicator_ft_abs(body: str, dim: int, x: np.ndarray) -> np.ndarray:
    """|F[1_K](x)| for rows of x: ball/ellipsoid via Bessel forms, unit cube via sinc."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if body == "cube":
        half = 0.5 * x
        safe = np.where(half == 0.0, 1.0, half)
        return np.prod(np.abs(np.where(half == 0.0, 1.0, np.sin(safe) / safe)), axis=1)
    if body.startswith("ball:"):
        axes = np.full(dim, float(body[len("ball:"):]))
    elif body.startswith("ellipsoid:"):
        axes = np.array([float(v) for v in body[len("ellipsoid:"):].split(",")])
    else:
        raise ValueError(f"unknown body {body!r}")
    w = np.linalg.norm(x * axes[None, :], axis=1)
    vol_axes = float(np.prod(axes))
    if axes.size == 2:
        prof = 2.0 * math.pi * special.j1(w) / w
    elif axes.size == 3:
        prof = 4.0 * math.pi * (np.sin(w) - w * np.cos(w)) / w ** 3
    else:
        raise ValueError("reference covers d = 2 and 3")
    return np.abs(vol_axes * prof)


def body_volume(body: str, dim: int) -> float:
    if body == "cube":
        return 1.0
    if body.startswith("ball:"):
        axes = [float(body[len("ball:"):])] * dim
    else:
        axes = [float(v) for v in body[len("ellipsoid:"):].split(",")]
    d = len(axes)
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * math.prod(axes)
