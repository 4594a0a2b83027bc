"""Decay-regime tables for box and ball averages under power singularities.

A spectral measure with a power singularity sigma(Pi(t^-1)) ~ t^-alpha
puts the average into one of three regimes per body family, keyed on
m = max alpha_k for the box and on theta = -sum alpha_k for the ball.
This module evaluates both tables, compares the two families along the
diagonal, and rasterizes the d = 2 parameter plane into labeled region
maps, with the measure-zero critical lines sampled on their own lattice
so they survive the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .geometry import as_vec
from .rates import PredictedRate, predicted_rate_from_mass_exponent

__all__ = [
    "PowerParams",
    "RegimeLabel",
    "square_regime",
    "circle_regime",
    "compare_along_diagonal",
    "RegionMap",
    "region_map",
]

# ties and critical-line membership are decided at this tolerance; the
# region-map lattices generate boundary points exactly, so it only has to
# absorb float noise, not grid misalignment
_TIE_TOL = 1e-12

SQUARE_FAMILIES = ("SquareSubcritical", "SquareCritical", "SquareSupercritical")
CIRCLE_FAMILIES = ("CircleSubcritical", "CircleCritical", "CircleSupercritical")


@dataclass(frozen=True)
class PowerParams:
    """Exponent vector of a power singularity plus its derived shape data.

    r counts zero successive differences among the sorted coordinates
    ("successive" mode).  The "at-max" mode counts only ties at the
    maximum instead; the cube table's source is ambiguous on which is
    meant, so both are available and the default is the literal reading.
    """

    alphas: tuple[float, ...]
    r_mode: str = "successive"

    def __post_init__(self):
        a = as_vec(self.alphas)
        if np.any(a <= 0.0):
            raise ValueError("alpha coordinates must be positive")
        if self.r_mode not in ("successive", "at-max"):
            raise ValueError(f"unknown r-mode {self.r_mode!r} (successive or at-max)")
        object.__setattr__(self, "alphas", tuple(float(v) for v in a))

    @property
    def dim(self) -> int:
        return len(self.alphas)

    @property
    def alpha_star(self) -> tuple[float, ...]:
        return tuple(sorted(self.alphas))

    @property
    def m(self) -> float:
        return max(self.alphas)

    @property
    def r(self) -> int:
        star = self.alpha_star
        if self.r_mode == "at-max":
            return sum(1 for v in star if abs(v - star[-1]) <= _TIE_TOL) - 1
        diffs = np.diff(star)
        return int(np.sum(np.abs(diffs) <= _TIE_TOL))

    @property
    def theta(self) -> float:
        return -float(sum(self.alphas))


@dataclass(frozen=True)
class RegimeLabel:
    """Decay shape t^exponent_vector times ln^log_power for one body family."""

    family: str
    exponent_vector: tuple[float, ...]
    log_power: int

    @property
    def key(self) -> tuple[str, int]:
        """Distinct-label identity: family plus log power."""
        return (self.family, self.log_power)

    @property
    def diagonal_exponent(self) -> float:
        return float(sum(self.exponent_vector))


def square_regime(p: PowerParams) -> RegimeLabel:
    """Box-average regime: keyed on m = max alpha_k against the threshold 2."""
    a = np.asarray(p.alphas)
    m = p.m
    if m < 2.0 - _TIE_TOL:
        return RegimeLabel("SquareSubcritical", tuple(-a), 0)
    if abs(m - 2.0) <= _TIE_TOL:
        return RegimeLabel("SquareCritical", tuple(-a), p.r + 1)
    return RegimeLabel("SquareSupercritical", tuple(-2.0 * a / m), p.r)


def circle_regime(p: PowerParams, dim: int | None = None) -> RegimeLabel:
    """Ball-average regime: keyed on theta against the critical degree -(d+1)."""
    d = p.dim if dim is None else dim
    if d != p.dim:
        raise ValueError("dimension disagrees with the exponent vector")
    a = np.asarray(p.alphas)
    crit = -(d + 1.0)
    if p.theta > crit + _TIE_TOL:
        return RegimeLabel("CircleSubcritical", tuple(-a), 0)
    if abs(p.theta - crit) <= _TIE_TOL:
        return RegimeLabel("CircleCritical", tuple(-a), 1)
    return RegimeLabel("CircleSupercritical", tuple(a * (d + 1.0) / p.theta), 0)


def compare_along_diagonal(p: PowerParams, dim: int | None = None) -> str:
    """Which family decays faster along t = p(1, ..., 1).

    The diagonal collapses t^v to p^(sum v); the more negative sum wins,
    log factors break ties (fewer logs is faster), and a full tie is
    'Equal'.
    """
    return _diagonal_verdict(square_regime(p), circle_regime(p, dim))


def _diagonal_verdict(sq: RegimeLabel, ci: RegimeLabel) -> str:
    ds, dc = sq.diagonal_exponent, ci.diagonal_exponent
    if ds < dc - _TIE_TOL:
        return "SquareBetter"
    if dc < ds - _TIE_TOL:
        return "CircleBetter"
    if sq.log_power < ci.log_power:
        return "SquareBetter"
    if ci.log_power < sq.log_power:
        return "CircleBetter"
    return "Equal"


@dataclass(frozen=True)
class RegionMap:
    """Labeled rasterization of the d = 2 exponent plane (0, alpha_max]^2.

    rows: (alpha1, alpha2, square label, circle label, verdict), regular
    grid in row-major order followed by the boundary lattice.  Label
    counts are over distinct (family, log_power) pairs; connected
    components are counted on the regular grid alone (8-connectivity),
    since the lattice points carry no area.
    """

    alpha_max: float
    resolution: int
    rows: tuple
    square_label_count: int
    circle_label_count: int
    square_labels: tuple
    circle_labels: tuple
    square_components: int
    circle_components: int


def _component_count(keys: np.ndarray) -> int:
    """Connected components of equal-label cells, 8-connectivity."""
    eight = np.ones((3, 3), dtype=int)
    return int(sum(ndimage.label(keys == v, structure=eight)[1] for v in np.unique(keys)))


def _boundary_lattice(alpha_max: float, resolution: int) -> list[tuple[float, float]]:
    """Exact sample points on the measure-zero critical sets.

    m = 2 is the pair of segments {alpha_i = 2, other <= 2}; theta = -3
    is the open segment alpha1 + alpha2 = 3; their meeting point with the
    diagonal, (2, 2), is included explicitly.
    """
    pts: list[tuple[float, float]] = []
    n = resolution
    if alpha_max >= 2.0:
        for v in np.linspace(2.0 / n, min(2.0, alpha_max), n):
            pts.append((2.0, float(v)))
            pts.append((float(v), 2.0))
        pts.append((2.0, 2.0))
    lo = max(3.0 - alpha_max, 0.0) + 3.0 / (2 * n)
    hi = min(alpha_max, 3.0) - 3.0 / (2 * n)
    if lo < hi:
        for s in np.linspace(lo, hi, n):
            pts.append((float(s), float(3.0 - s)))
    return pts


def region_map(alpha_max: float = 4.0, resolution: int = 201,
               r_mode: str = "successive") -> RegionMap:
    """Classify (0, alpha_max]^2 on a regular grid plus the boundary lattice."""
    if resolution < 8:
        raise ValueError("resolution below 8 cannot show the region structure")
    if alpha_max <= 0:
        raise ValueError("alpha_max must be positive")
    step = alpha_max / resolution
    values = step * np.arange(1, resolution + 1)

    rows = []
    sq_keys: dict[tuple, int] = {}
    ci_keys: dict[tuple, int] = {}
    sq_grid = np.empty((resolution, resolution), dtype=np.int64)
    ci_grid = np.empty((resolution, resolution), dtype=np.int64)

    def classify_point(a1: float, a2: float):
        p = PowerParams((a1, a2), r_mode=r_mode)
        sq = square_regime(p)
        ci = circle_regime(p)
        rows.append((a1, a2, sq, ci, _diagonal_verdict(sq, ci)))
        return sq, ci

    for i, a1 in enumerate(values):
        for j, a2 in enumerate(values):
            sq, ci = classify_point(float(a1), float(a2))
            sq_grid[i, j] = sq_keys.setdefault(sq.key, len(sq_keys))
            ci_grid[i, j] = ci_keys.setdefault(ci.key, len(ci_keys))

    for a1, a2 in _boundary_lattice(alpha_max, resolution):
        sq, ci = classify_point(a1, a2)
        sq_keys.setdefault(sq.key, len(sq_keys))
        ci_keys.setdefault(ci.key, len(ci_keys))

    return RegionMap(
        alpha_max=alpha_max,
        resolution=resolution,
        rows=tuple(rows),
        square_label_count=len(sq_keys),
        circle_label_count=len(ci_keys),
        square_labels=tuple(sorted(sq_keys)),
        circle_labels=tuple(sorted(ci_keys)),
        square_components=_component_count(sq_grid),
        circle_components=_component_count(ci_grid),
    )


def params_report(p: PowerParams, dim: int | None = None) -> dict:
    """JSON-ready single-point classification."""
    sq = square_regime(p)
    ci = circle_regime(p, dim)
    consistency = None
    if len(set(p.alphas)) == 1:
        # radial case: the ball table must reproduce the mass-exponent rate
        gamma = -p.theta
        pred: PredictedRate = predicted_rate_from_mass_exponent(gamma, p.dim)
        consistency = {
            "gamma": gamma,
            "predicted_theta": pred.theta,
            "predicted_log_power": pred.log_power,
            "matches_circle": (
                abs(ci.diagonal_exponent - pred.theta) <= 1e-12
                and ci.log_power == pred.log_power
            ),
        }
    return {
        "alpha": list(p.alphas),
        "alpha_star": list(p.alpha_star),
        "m": p.m,
        "r": p.r,
        "r_mode": p.r_mode,
        "theta": p.theta,
        "square": {
            "family": sq.family,
            "exponents": list(sq.exponent_vector),
            "log_power": sq.log_power,
        },
        "circle": {
            "family": ci.family,
            "exponents": list(ci.exponent_vector),
            "log_power": ci.log_power,
        },
        "verdict": _diagonal_verdict(sq, ci),
        "radial_consistency": consistency,
    }
