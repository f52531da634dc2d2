"""Least-squares power-law fits used by the convergence studies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = ["MIN_POINTS", "PowerLawFit", "fit_power_law"]

# fewest positive points a power-law fit accepts
MIN_POINTS = 4


@dataclass(frozen=True)
class PowerLawFit:
    """Fit of ``y = amplitude * x**exponent`` on log-log axes."""

    exponent: float
    amplitude: float
    residual_rms: float
    n_points: int


def fit_power_law(x, y) -> PowerLawFit:
    """Fit ``log y = log A + p log x`` by least squares.

    Points with non-positive ``y`` carry no information on a log scale and
    are dropped; at least ``MIN_POINTS`` must survive.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (y > 0) & (x > 0)
    x, y = x[keep], y[keep]
    if x.size < MIN_POINTS:
        raise ParameterError(
            f"power-law fit needs >= {MIN_POINTS} positive points, got {x.size}"
        )
    lx, ly = np.log(x), np.log(y)
    coeffs, *_ = np.polynomial.polynomial.polyfit(lx, ly, 1, full=True)
    log_a, p = coeffs
    resid = ly - (log_a + p * lx)
    return PowerLawFit(
        exponent=float(p),
        amplitude=float(np.exp(log_a)),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        n_points=int(x.size),
    )
