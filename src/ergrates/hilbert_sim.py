"""Finite-dimensional model of a commuting unitary R^d-action.

The invariant subspace is already projected out: a state is a finite set
of frequency/coefficient pairs (x_j, h_j) with x_j != 0, and the flow acts
diagonally, (U_s h)_j = e^{i (s, x_j)} h_j.  Averaging U_s h over a dilated
body K o t multiplies each coefficient by F[1_{K o t}](x_j) / vol(K o t),
so the squared norm of the average equals the decay integral of the
induced measure sigma_h = sum |h_j|^2 delta(x_j).  The two quantities are
computed through different code paths on purpose; their agreement is the
identity the whole package rests on, and tests pin it to 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ConvexBody, as_vec, volume
from .spectral import AtomicMeasure, split_top
from .fourier import scaled_indicator_ft

__all__ = [
    "AtomicAction",
    "average_norm_sq",
    "induced_measure",
    "parse_action",
    "demo_action",
]


@dataclass(frozen=True)
class AtomicAction:
    """Frequencies (rows of a matrix) with complex coefficients, all x_j != 0."""

    frequencies: tuple[tuple[float, ...], ...]
    coefficients: tuple[complex, ...]
    dim: int

    def __post_init__(self):
        freqs = tuple(tuple(float(c) for c in f) for f in self.frequencies)
        coefs = tuple(complex(c) for c in self.coefficients)
        if len(freqs) != len(coefs):
            raise ValueError("frequencies and coefficients must pair up")
        for f in freqs:
            if len(f) != self.dim:
                raise ValueError(f"frequency {f} does not have dimension {self.dim}")
            if not any(c != 0.0 for c in f):
                raise ValueError("zero frequency belongs to the invariant part; drop it")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "coefficients", coefs)

    @property
    def coefficient_array(self) -> np.ndarray:
        return np.asarray(self.coefficients, dtype=complex)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coefficient_array) ** 2))


def _spectral_fibers(action: AtomicAction) -> dict[tuple[float, ...], complex]:
    """Net complex coefficient per frequency; equal frequencies share a fiber."""
    merged: dict[tuple[float, ...], complex] = {}
    for f, h in zip(action.frequencies, action.coefficients):
        merged[f] = merged.get(f, 0.0 + 0.0j) + h
    return merged


def average_norm_sq(action: AtomicAction, body: ConvexBody, t) -> float:
    """Squared norm of the ergodic average of the flow over K o t.

    Computed fiberwise through the scaled-body transform: the net
    coefficient at each frequency is damped by F[1_{K o t}](x_j) / vol(K o t).
    """
    t = as_vec(t, dim=action.dim)
    if np.any(t <= 0):
        raise ValueError("t must be positive in every coordinate")
    if not action.frequencies:
        return 0.0
    vol_t = volume(body) * float(np.prod(t))
    total = 0.0
    for f, h in _spectral_fibers(action).items():
        damp = scaled_indicator_ft(body, t, np.asarray(f)) / vol_t
        total += abs(h) ** 2 * abs(damp) ** 2
    return float(total)


def induced_measure(action: AtomicAction) -> AtomicMeasure:
    """Spectral measure of the state: weight |h_j|^2 at x_j.

    Coefficients sharing a frequency are summed before taking the modulus
    (they belong to one spectral component), so e.g. coefficients 1 and 2
    at the same frequency induce weight 9, not 5.  Zero-coefficient
    frequencies are dropped.
    """
    points, weights = [], []
    for f, h in _spectral_fibers(action).items():
        w = abs(h) ** 2
        if w > 0.0:
            points.append(f)
            weights.append(w)
    return AtomicMeasure(points=tuple(points), weights=tuple(weights), dim=action.dim)


# -- action spec strings -----------------------------------------------------
#
# Grammar: action:[(x1,x2;re,im),(...)], or the alias demo20 for a fixed
# seeded 20-component state.


def parse_action(spec: str, dim: int = 2) -> AtomicAction:
    spec = spec.strip()
    if spec == "demo20":
        return demo_action(n=20, dim=dim)
    if not spec.startswith("action:"):
        raise ValueError(f"unknown action spec {spec!r} (expected action:[...] or demo20)")
    body = spec[len("action:"):].strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"bad action spec {spec!r}: expected action:[(x;re,im),...]")
    inner = body[1:-1].strip()
    if not inner:
        return AtomicAction(frequencies=(), coefficients=(), dim=dim)
    freqs, coefs = [], []
    for tok in split_top(inner, ","):
        tok = tok.strip()
        if not (tok.startswith("(") and tok.endswith(")")):
            raise ValueError(f"bad component {tok!r} in {spec!r}")
        try:
            loc_s, coef_s = tok[1:-1].split(";")
            freqs.append(tuple(float(c) for c in loc_s.split(",")))
            re, im = (float(v) for v in coef_s.split(","))
            coefs.append(complex(re, im))
        except ValueError:
            raise ValueError(f"bad component {tok!r} in {spec!r}") from None
    d = len(freqs[0])
    return AtomicAction(frequencies=tuple(freqs), coefficients=tuple(coefs), dim=d)


def demo_action(n: int = 20, dim: int = 2, seed: int = 20240) -> AtomicAction:
    """Seeded random state: frequencies in an annulus, coefficients O(1)."""
    rng = np.random.default_rng(seed)
    radii = rng.uniform(0.5, 3.0, size=n)
    if dim == 1:
        dirs = rng.choice([-1.0, 1.0], size=(n, 1))
    else:
        raw = rng.normal(size=(n, dim))
        dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    freqs = radii[:, None] * dirs
    coefs = rng.normal(size=n) + 1j * rng.normal(size=n)
    return AtomicAction(
        frequencies=tuple(tuple(row) for row in freqs),
        coefficients=tuple(coefs),
        dim=dim,
    )
