"""Self-consistent gap of the uniform pairing model and the quantities
derived from it (rescaled gap, Josephson coupling energy, critical-current
temperature curve).

The consistency condition is

    beta_c * omega = tanh(beta * omega),   omega = sqrt(eps^2 + 4 T_c^2 Delta^2),

with beta_c = 1/T_c.  A positive-gap branch exists only below the critical
temperature; above it the solver returns Delta = 0 (normal phase) so that
temperature sweeps cross T_c gracefully.  Below it the root is found by
monotone Newton steps from omega = T_c, to rounding however close T is to
T_c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError, SolverError
from .sectors import ModelParams

__all__ = [
    "GapSolution",
    "solve_gap",
    "rescaled_gap",
    "josephson_energy",
    "critical_current_curve",
]


@dataclass(frozen=True)
class GapSolution:
    """Result of the gap equation.

    ``delta`` is the dimensionless gap modulus (also the fluctuation
    normalization constant), ``omega`` the effective field magnitude and
    ``iterations`` the number of Newton steps taken.  ``residual`` is
    ``beta_c*omega - tanh(beta*omega)`` on the returned branch, and
    ``normal_residual`` the same quantity evaluated on the Delta = 0 branch
    (omega = eps), reported so callers can inspect both branches.
    """

    delta: float
    omega: float
    residual: float
    iterations: int
    normal_residual: float


# a safety net: the most Newton steps measured is 45, with beta*t_c one ulp above 1
_MAX_ITER = 200


def solve_gap(epsilon: float, t_c: float, beta: float) -> GapSolution:
    """Solve the consistency condition for the gap modulus.

    Returns the Delta > 0 solution when one exists (superconducting phase),
    otherwise Delta = 0 (normal phase).  r(w) = w/t_c - tanh(beta w) is
    convex for w >= 0 and r(t_c) >= 0, so Newton steps started at w = t_c
    decrease monotonically onto the positive root.  They stop once the
    residual is not positive or a step would not decrease w inside (0, w):
    that is the root to rounding.
    """
    ModelParams(epsilon, t_c, beta)  # the one layer-parameter check

    normal_residual = epsilon / t_c - math.tanh(beta * epsilon)

    def normal(iterations: int) -> GapSolution:
        return GapSolution(delta=0.0, omega=epsilon, residual=normal_residual,
                           iterations=iterations, normal_residual=normal_residual)

    # tanh(beta*w) has slope beta at the origin; w/t_c has slope 1/t_c.  A
    # positive crossing exists iff beta*t_c > 1.
    if beta * t_c <= 1.0:
        return normal(0)

    omega = t_c
    for iterations in range(_MAX_ITER):
        th = math.tanh(beta * omega)
        residual = omega / t_c - th
        slope = 1.0 / t_c - beta * (1.0 - th * th)
        if residual <= 0.0 or slope <= 0.0:
            break
        step = omega - residual / slope
        if not 0.0 < step < omega:
            break
        omega = step
    else:
        raise SolverError(f"gap solver took more than {_MAX_ITER} Newton steps")

    if omega <= epsilon:
        return normal(iterations)

    # in units of t_c (omega <= t_c), so that no square overflows or underflows
    w, e = omega / t_c, epsilon / t_c
    delta = 0.5 * math.sqrt(w * w - e * e)
    return GapSolution(delta=delta, omega=omega, residual=residual,
                       iterations=iterations, normal_residual=normal_residual)


def rescaled_gap(sol: GapSolution, t_c: float) -> float:
    """Energy-dimension gap ``4 T_c Delta`` (the measured one; it approaches
    ``2 T_c`` at zero temperature for eps = 0)."""
    return 4.0 * t_c * sol.delta


def josephson_energy(lam: float, delta_l: float, delta_r: float) -> float:
    """Critical Josephson coupling ``E_J = 2 lambda Delta_L Delta_R``."""
    if delta_l < 0 or delta_r < 0:
        raise ParameterError("gap moduli must be non-negative")
    return 2.0 * lam * delta_l * delta_r


def critical_current_curve(lam: float, epsilon: float, t_c: float, betas):
    """Tabulate ``(T, beta, delta, bold_delta, E_J)`` for identical layers
    over a grid of inverse temperatures, ordered by ascending temperature.

    Monotone non-increasing in T on [0, T_c]; E_J vanishes at and above T_c
    when eps = 0.
    """
    betas = sorted(set(float(b) for b in betas), reverse=True)
    if not betas:
        raise ParameterError("empty beta grid")

    rows = []
    for beta in betas:
        sol = solve_gap(epsilon, t_c, beta)
        rows.append(
            (1.0 / beta, beta, sol.delta, rescaled_gap(sol, t_c),
             josephson_energy(lam, sol.delta, sol.delta))
        )
    return rows

