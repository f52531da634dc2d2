"""Self-consistent gap of the uniform pairing model and the quantities
derived from it (rescaled gap, Josephson coupling energy, critical-current
temperature curve).

The consistency condition is

    beta_c * omega = tanh(beta * omega),   omega = sqrt(eps^2 + 4 T_c^2 Delta^2),

with beta_c = 1/T_c.  A positive-gap branch exists only below the critical
temperature; above it the solver returns Delta = 0 (normal phase) so that
temperature sweeps cross T_c gracefully.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError, SolverError, require_finite

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

    ``delta`` is the dimensionless gap modulus, ``c`` the fluctuation
    normalization constant (equal to ``delta``), ``omega`` the effective
    field magnitude.  The phase is physically arbitrary and carried only as
    metadata; all downstream physics uses the modulus.  ``solve_gap``
    always sets it to 0.0; it stays a field so that ``gap_solution.json``
    and ``run_manifest.json`` keep their ``phase`` entry.  ``residual`` is
    ``beta_c*omega - tanh(beta*omega)`` on the returned branch, and
    ``normal_residual`` the same quantity evaluated on the Delta = 0 branch
    (omega = eps), reported so callers can inspect both branches.
    """

    delta: float
    omega: float
    c: float
    phase: float
    converged: bool
    residual: float
    iterations: int
    normal_residual: float


# Newton polishing stops at |residual| <= _TOL, and fails after _MAX_ITER steps
_TOL = 1e-12
_MAX_ITER = 200


def _consistency_residual(omega: float, t_c: float, beta: float) -> float:
    return omega / t_c - math.tanh(beta * omega)


def solve_gap(epsilon: float, t_c: float, beta: float) -> GapSolution:
    """Solve the consistency condition for the gap modulus.

    Returns the Delta > 0 solution when one exists (superconducting phase),
    otherwise Delta = 0 with ``converged`` still true (normal phase).  The
    root in omega is bracketed first, then polished by Newton steps that are
    never allowed to leave the bracket, until ``|residual| <= _TOL``.
    """
    require_finite(epsilon=epsilon, t_c=t_c, beta=beta)
    if t_c <= 0 or beta <= 0 or epsilon < 0:
        raise ParameterError(
            f"need t_c > 0, beta > 0, epsilon >= 0; got {t_c}, {beta}, {epsilon}"
        )

    normal_residual = _consistency_residual(epsilon, t_c, beta)

    def normal(iterations: int) -> GapSolution:
        return GapSolution(
            delta=0.0, omega=epsilon, c=0.0, phase=0.0, converged=True,
            residual=normal_residual, iterations=iterations,
            normal_residual=normal_residual,
        )

    # tanh(beta*w) has slope beta at the origin; w/t_c has slope 1/t_c.  A
    # positive crossing exists iff beta*t_c > 1.
    if beta * t_c <= 1.0:
        return normal(0)

    # h(w) = tanh(beta w) - w/t_c: positive just right of 0, negative at t_c.
    hi = t_c
    lo = 0.5 * t_c
    iterations = 0
    while -_consistency_residual(lo, t_c, beta) <= 0.0:
        lo *= 0.5
        iterations += 1
        if lo < 5e-324 or iterations > 2000:
            return normal(iterations)

    omega = 0.5 * (lo + hi)
    for _ in range(_MAX_ITER):
        iterations += 1
        r = _consistency_residual(omega, t_c, beta)
        if abs(r) <= _TOL:
            break
        if r < 0.0:  # tanh above the line: root is to the right
            lo = omega
        else:
            hi = omega
        th = math.tanh(beta * omega)
        dr = 1.0 / t_c - beta * (1.0 - th * th)
        step_ok = dr != 0.0
        if step_ok:
            candidate = omega - r / dr
            step_ok = lo < candidate < hi
        omega = candidate if step_ok else 0.5 * (lo + hi)
    else:
        raise SolverError(
            f"gap solver did not reach |residual| <= {_TOL} in {_MAX_ITER} iterations"
        )

    if omega <= epsilon:
        return normal(iterations)

    delta = math.sqrt(omega * omega - epsilon * epsilon) / (2.0 * t_c)
    return GapSolution(
        delta=delta, omega=omega, c=delta, phase=0.0, converged=True,
        residual=_consistency_residual(omega, t_c, beta), iterations=iterations,
        normal_residual=normal_residual,
    )


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

