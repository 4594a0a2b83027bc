"""Bessel J_nu evaluation for the orders the indicator transforms need.

The ball transforms call J_nu only at nu = d/2 for even d, i.e. nu = 1
and 2 (odd d use elementary forms in `fourier.unit_ball_profile`).  Both
are delegated to scipy, which already meets the 1e-12 absolute accuracy
this package requires up to arguments of 1e4.  The test suite pins that
contract against an mpmath oracle and the first zero of J_1.

`scipy.special` is imported on the first call, not with the module: it
takes more than half of a bare `import ergrates`, and only balls and
ellipsoids in even dimension ever need a Bessel value.
"""

from __future__ import annotations

import numpy as np

__all__ = ["bessel_j"]


def bessel_j(nu: float, x) -> np.ndarray | float:
    """J_nu(x) for real nu >= 0, vectorized over x.

    Absolute accuracy 1e-12 for |x| <= 1e4 at the orders used here
    (nu in {1, 2}); see tests for the oracle comparison.
    """
    from scipy import special  # imported on first use; see the module docstring

    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xv = np.atleast_1d(x)
    out = special.j1(xv) if nu == 1.0 else special.jv(nu, xv)
    return float(out[0]) if scalar else out
