"""Dyson series of tridiagonal hopping chains by iterated Gauss-Legendre
quadrature over the ordered time simplex.

On a chain with diagonal energies ``d`` and hops ``h`` between neighbours,
the order-m Dyson term between positions is a sum over m-hop paths of

    prod_j h_j  int_{t >= t_1 >= ... >= t_m >= 0}  prod_j e^{-i theta_j t_j},

where hop j goes from p to p' with ``theta_j = d[p'] - d[p]``.  Instead of
enumerating paths, the terms are built backward from the end positions:
the order-m amplitude at every position is the antiderivative of the hops
applied to the order-(m-1) amplitude, so each order costs one spectral
pass.  Function values on the Gauss-Legendre grid are projected on
Legendre polynomials (exact for the interpolant), the expansion is
antidifferentiated term by term (Greengard, SIAM J. Numer. Anal. 28,
1991), and the primitive is read back at the nodes.  Nodes are doubled
until the result is stable.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre

from .errors import NumericalError, ParameterError, require_finite

__all__ = ["chain_dyson", "ordered_phase_integral"]

_Q_START = 32    # first Gauss-Legendre node count
_Q_MAX = 4096    # node doubling stops here
_TOL = 1e-10     # stable once a doubling moves it by <= _TOL * max(1, |result|)


@lru_cache(maxsize=16)
def _operators(q: int):
    """Gauss-Legendre nodes on [-1, 1] plus the two antiderivative maps:
    values at nodes -> primitive (vanishing at -1) at nodes / at +1."""
    nodes, weights = legendre.leggauss(q)
    vander = legendre.legvander(nodes, q - 1)          # P_l(x_i)
    norms = (2.0 * np.arange(q) + 1.0) / 2.0
    coef_from_values = norms[:, None] * (vander * weights[:, None]).T

    int_map = legendre.legint(np.eye(q), lbnd=-1.0)    # column l: primitive of P_l
    at_nodes = legendre.legvander(nodes, q) @ int_map @ coef_from_values
    at_end = legendre.legvander(np.array([1.0]), q) @ int_map @ coef_from_values
    return nodes, at_nodes, at_end[0]


def chain_dyson(diag, hop, start, seed, t: float, order: int) -> np.ndarray:
    """``sum_{m <= order} (-i)^m`` times the order-m Dyson term from the
    ``start`` sites to the end amplitudes ``seed``, shape ``(sites, E)``.

    ``diag`` (shape ``(sites,)``) and ``hop`` (``(sites-1,)``) lay tridiagonal
    chains end to end, a zero hop out of each chain's last site, so no path
    leaves its chain.  The result has shape ``(len(start), E)``.  The hop out
    of ``start`` is the outermost integral.

    Raises ``ParameterError`` for a time that is not finite, and
    ``NumericalError`` if node doubling never stabilizes to ``_TOL``.
    """
    require_finite(t=t)
    diag, hop = np.asarray(diag, dtype=float), np.asarray(hop, dtype=float)
    start, seed = np.asarray(start, dtype=int), np.asarray(seed, dtype=complex)

    if order == 0 or t == 0.0 or start.size == 0:
        return seed[start]

    theta = np.diff(diag)
    live = np.abs(theta[hop != 0.0])
    # start high enough to resolve the fastest phase
    q = max(_Q_START, int(1.2 * live.max(initial=0.0) * abs(t) / 2.0) + 8)

    def evaluate(q):
        nodes, at_nodes, at_end = _operators(q)
        half = 0.5 * t
        phase = np.exp(-1j * (half * (nodes + 1.0))[:, None] * theta)
        up = (-1j * hop * phase)[..., None]            # hop p -> p+1, seen from p
        down = (-1j * hop * phase.conj())[..., None]   # hop p+1 -> p
        amp = np.broadcast_to(seed, (q,) + seed.shape)
        total = seed.copy()
        for m in range(1, order + 1):
            integrand = np.zeros(amp.shape, dtype=complex)
            integrand[:, :-1] = up * amp[:, 1:]
            integrand[:, 1:] += down * amp[:, :-1]
            flat = integrand.reshape(q, -1)
            total += half * (at_end @ flat).reshape(seed.shape)
            if m < order:
                amp = half * (at_nodes @ flat).reshape(amp.shape)
        return total[start]

    previous = None
    while q <= _Q_MAX:
        current = evaluate(q)
        if previous is not None:
            scale = max(1.0, float(np.max(np.abs(current))))
            if float(np.max(np.abs(current - previous))) <= _TOL * scale:
                return current
        previous = current
        q *= 2
    raise NumericalError(
        f"simplex quadrature did not stabilize to {_TOL} below {_Q_MAX} nodes"
    )


def ordered_phase_integral(thetas, t: float) -> np.ndarray:
    """Ordered-simplex integral of ``prod_j exp(-i theta_j t_j)`` over
    ``t >= t_1 >= t_2 >= ... >= t_k >= 0``, vectorized over the columns of
    ``thetas`` (shape ``(k, channels)``): the one-path chains with energies
    ``0, theta_1, theta_1 + theta_2, ...`` and unit hops, end to end.

    Raises ``ParameterError`` without a nesting level, and
    ``NumericalError`` if node doubling never stabilizes to ``_TOL``.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    depth, channels = thetas.shape
    if depth == 0:
        raise ParameterError("need at least one nesting level")
    diag = np.concatenate([np.zeros((channels, 1)), np.cumsum(thetas.T, axis=1)], axis=1)
    level = np.arange(diag.size) % (depth + 1)  # a channel's sites are levels 0 .. depth
    values = chain_dyson(diag.ravel(), (level[:-1] != depth).astype(float),
                         np.flatnonzero(level == 0), (level == depth)[:, None], t, depth)
    return 1j**depth * values[:, 0]


def _dyson_bound(order: int, *scales) -> float:
    """The order-K Dyson remainder bound ``prod_j x_j^{K+1} / (K+1)!``: the
    float formula where it is representable, else from logarithms, 0.0 on
    underflow and inf on overflow; it never raises."""
    k = order + 1
    try:
        return math.prod(x ** k for x in scales) / math.factorial(k)
    except OverflowError:  # a power or (K+1)! is past the float range
        pass
    if 0.0 in scales:
        return 0.0
    try:
        return math.exp(k * sum(math.log(x) for x in scales) - math.lgamma(k + 1))
    except OverflowError:
        return math.inf
