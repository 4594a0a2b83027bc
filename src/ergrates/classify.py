"""Decay-regime tables for box and ball averages under power singularities.

A spectral measure with a power singularity sigma(Pi(t^-1)) ~ t^-alpha
puts the average into one of three regimes per body family, keyed on
m = max alpha_k for the box and on theta = -sum alpha_k for the ball.
This module evaluates both tables, compares the two families along the
diagonal, and rasterizes the d = 2 parameter plane into labeled region
maps, with the measure-zero critical lines sampled on their own lattice
so they survive the grid.  One array pass, `_classify`, holds every rule;
a single point is a one-row call into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import as_vec
from .rates import PredictedRate, predicted_rate_from_mass_exponent

__all__ = [
    "PowerParams",
    "RegimeLabel",
    "square_regime",
    "circle_regime",
    "RegionMap",
    "region_map",
]

# ties and critical-line membership are decided at this tolerance; the
# region-map lattices generate boundary points exactly, so it only has to
# absorb float noise, not grid misalignment
_TIE_TOL = 1e-12

# sub-, on and above the threshold, for the box and the ball
FAMILIES = (("SquareSubcritical", "SquareCritical", "SquareSupercritical"),
            ("CircleSubcritical", "CircleCritical", "CircleSupercritical"))
VERDICTS = ("SquareBetter", "Equal", "CircleBetter")  # by diagonal order -1, 0, +1


@dataclass(frozen=True)
class RegimeLabel:
    """Decay shape t^exponent_vector times ln^log_power for one body family."""

    family: str
    exponent_vector: tuple[float, ...]
    log_power: int

    @property
    def diagonal_exponent(self) -> float:
        return float(sum(self.exponent_vector))


class _Regimes(NamedTuple):
    """Regimes of N exponent rows; axis 1 is the body family, box then ball."""

    m: np.ndarray
    r: np.ndarray
    theta: np.ndarray
    family: np.ndarray  # (N, 2), index into FAMILIES[k]
    exponents: np.ndarray  # (N, 2, d)
    log_power: np.ndarray  # (N, 2)
    verdict: np.ndarray  # (N,), index into VERDICTS

    def label(self, i: int, k: int) -> RegimeLabel:
        return RegimeLabel(FAMILIES[k][self.family[i, k]], tuple(self.exponents[i, k].tolist()),
                           int(self.log_power[i, k]))


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis, added left to right as Python's sum adds a tuple."""
    total = a[..., 0]
    for k in range(1, a.shape[-1]):
        total = total + a[..., k]
    return total


def _classify(a: np.ndarray, r_mode: str) -> _Regimes:
    """Both regime tables and the diagonal verdict for rows a (N, d) of positive exponents.

    r counts zero successive differences among the sorted coordinates
    ("successive"), or ties at the maximum ("at-max").  The box keys on
    m = max alpha_k against 2, the ball on -theta = sum alpha_k against
    d + 1.  Below its threshold a family decays like t^-alpha, on it with
    log factors (r + 1 for the box, 1 for the ball), and above it like
    t^(-threshold alpha / key), the box keeping r logs.  Along
    t = p(1, ..., 1) the more negative exponent sum decays faster, fewer
    logs break ties, and a full tie is 'Equal'.
    """
    d = a.shape[1]
    m = a.max(axis=1)
    star = np.sort(a, axis=1)
    if r_mode == "at-max":
        r = (np.abs(star - m[:, None]) <= _TIE_TOL).sum(axis=1) - 1
    else:
        r = (np.abs(star[:, 1:] - star[:, :-1]) <= _TIE_TOL).sum(axis=1)
    total = _row_sum(a)
    key = np.array([m, total]).T
    bound = np.array([2.0, d + 1.0])
    fam = np.where(key < bound - _TIE_TOL, 0, 2 - (np.abs(key - bound) <= _TIE_TOL))
    exps = np.where(fam[:, :, None] == 2, -(a[:, None, :] * bound[:, None]) / key[:, :, None],
                    -a[:, None, :])
    # the box's log powers count its r ties above its threshold; the ball's do not
    logs = (fam > 0) * (r[:, None] * np.array([1, 0])) + (fam == 1)
    ds, dc = _row_sum(exps).T
    # -1 box faster, +1 ball faster, 0 equal: exponent sums first, then logs
    order = np.where(ds < dc - _TIE_TOL, -1, np.where(
        dc < ds - _TIE_TOL, 1, np.sign(logs[:, 0] - logs[:, 1])))
    return _Regimes(m, r, -total, fam, exps, logs, order + 1)


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

    @cached_property
    def _regimes(self) -> _Regimes:
        return _classify(np.array([self.alphas]), self.r_mode)

    @property
    def dim(self) -> int:
        return len(self.alphas)

    @property
    def alpha_star(self) -> tuple[float, ...]:
        return tuple(sorted(self.alphas))

    @property
    def m(self) -> float:
        return float(self._regimes.m[0])

    @property
    def r(self) -> int:
        return int(self._regimes.r[0])

    @property
    def theta(self) -> float:
        return float(self._regimes.theta[0])


def square_regime(p: PowerParams) -> RegimeLabel:
    """Box-average regime: keyed on m = max alpha_k against the threshold 2."""
    return p._regimes.label(0, 0)


def circle_regime(p: PowerParams) -> RegimeLabel:
    """Ball-average regime: keyed on theta against the critical degree -(d+1)."""
    return p._regimes.label(0, 1)


@dataclass(frozen=True)
class RegionMap:
    """Labeled rasterization of the d = 2 exponent plane (0, alpha_max]^2.

    points (N, 2) holds the regular grid in row-major order followed by the
    boundary lattice.  codes (N, 3) holds per point the integers square
    4 * family + log power, circle 4 * family + log power and the verdict
    index, the families indexing FAMILIES[0] and FAMILIES[1] and the verdict
    VERDICTS; `decode` turns rows of them into label columns.  rows holds
    one tuple of Python values per point, (alpha1, alpha2, *labels); it
    is built on first access, so a map that is only written never pays
    for it.  Label counts are over distinct (family, log_power) pairs;
    connected components are counted on the regular grid alone
    (8-connectivity), since the lattice points carry no area.
    """

    alpha_max: float
    resolution: int
    # arrays define no equality or hash; the map compares by its summary
    points: np.ndarray = field(compare=False, repr=False)
    codes: np.ndarray = field(compare=False, repr=False)
    square_label_count: int
    circle_label_count: int
    square_labels: tuple
    circle_labels: tuple
    square_components: int
    circle_components: int

    @staticmethod
    def decode(codes: np.ndarray) -> list:
        """Columns (square family, square log power, circle family, circle log
        power, verdict) of rows (K, 3) of codes, as lists of Python values."""
        square, circle, verdict = codes.T
        box, ball, verdicts = (np.array(names, dtype=object) for names in (*FAMILIES, VERDICTS))
        return [box[square // 4].tolist(), (square % 4).tolist(),
                ball[circle // 4].tolist(), (circle % 4).tolist(), verdicts[verdict].tolist()]

    @cached_property
    def rows(self) -> tuple:
        return tuple(zip(*self.points.T.tolist(), *self.decode(self.codes)))


def _component_count(keys: np.ndarray) -> int:
    """Connected components of equal-label cells, 8-connectivity."""
    from scipy import ndimage  # only the region maps need it; it slows every import

    eight = np.ones((3, 3), dtype=int)
    return int(sum(ndimage.label(keys == v, structure=eight)[1] for v in np.unique(keys)))


def _boundary_lattice(alpha_max: float, resolution: int) -> np.ndarray:
    """Exact sample points (K, 2) on the measure-zero critical sets.

    m = 2 is the pair of segments {alpha_i = 2, other <= 2}; theta = -3
    is the open segment alpha1 + alpha2 = 3; their meeting point with the
    diagonal, (2, 2), is included explicitly.
    """
    n = resolution
    parts = [np.empty((0, 2))]
    if alpha_max >= 2.0:
        v = np.linspace(2.0 / n, min(2.0, alpha_max), n)
        two = np.full(n, 2.0)
        parts += [np.stack([two, v, v, two], axis=1).reshape(-1, 2), [[2.0, 2.0]]]
    lo = max(3.0 - alpha_max, 0.0) + 3.0 / (2 * n)
    hi = min(alpha_max, 3.0) - 3.0 / (2 * n)
    if lo < hi:
        s = np.linspace(lo, hi, n)
        parts.append(np.stack([s, 3.0 - s], axis=1))
    return np.concatenate(parts)


def region_map(alpha_max: float = 4.0, resolution: int = 201,
               r_mode: str = "successive") -> RegionMap:
    """Classify (0, alpha_max]^2 on a regular grid plus the boundary lattice."""
    if resolution < 8:
        raise ValueError("resolution below 8 cannot show the region structure")
    if not (math.isfinite(alpha_max) and alpha_max > 0):
        raise ValueError(f"alpha_max must be a finite number > 0, got {alpha_max!r}")
    n = resolution
    values = (alpha_max / n) * np.arange(1, n + 1)
    grid = np.stack([np.repeat(values, n), np.tile(values, n)], axis=1)
    pts = np.concatenate([grid, _boundary_lattice(alpha_max, n)])
    reg = _classify(pts, r_mode)
    # log powers stay below 4 in d = 2, so a code holds its (family, log power) pair
    codes = np.column_stack([4 * reg.family + reg.log_power, reg.verdict])
    labels = [tuple(sorted((names[c // 4], c % 4) for c in np.unique(codes[:, k]).tolist()))
              for k, names in enumerate(FAMILIES)]
    components = [_component_count(codes[:n * n, k].reshape(n, n)) for k in range(2)]
    return RegionMap(
        alpha_max=alpha_max,
        resolution=resolution,
        points=pts,
        codes=codes,
        square_label_count=len(labels[0]),
        circle_label_count=len(labels[1]),
        square_labels=labels[0],
        circle_labels=labels[1],
        square_components=components[0],
        circle_components=components[1],
    )


def params_report(p: PowerParams) -> dict:
    """JSON-ready single-point classification, in Python ints, floats and strings."""
    reg = p._regimes
    sq, ci = reg.label(0, 0), reg.label(0, 1)
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
        "verdict": VERDICTS[int(reg.verdict[0])],
        "radial_consistency": consistency,
    }
