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

from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre

from .errors import NumericalError

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

    int_map = np.zeros((q + 1, q))
    for l in range(q):
        e = np.zeros(q)
        e[l] = 1.0
        int_map[:, l] = legendre.legint(e, lbnd=-1.0)

    at_nodes = legendre.legvander(nodes, q) @ int_map @ coef_from_values
    at_end = legendre.legvander(np.array([1.0]), q) @ int_map @ coef_from_values
    return nodes, at_nodes, at_end[0]


def chain_dyson(diag, hop, start, ends, t: float, order: int) -> np.ndarray:
    """``sum_{m <= order} (-i)^m`` times the order-m Dyson term from
    ``start`` to ``ends``, for a batch of tridiagonal chains.

    ``diag`` has shape ``(chains, sites)`` and ``hop`` ``(chains, sites-1)``;
    shorter chains are padded with zero hops.  ``start`` and ``ends`` hold
    positions of shape ``(chains,)`` or ``(chains, S)`` / ``(chains, E)``;
    the result has shape ``start.shape + ends.shape[1:]``.  The hop out of
    ``start`` is the outermost integral.

    Raises ``NumericalError`` if node doubling never stabilizes to ``_TOL``.
    """
    diag = np.asarray(diag, dtype=float)
    hop = np.asarray(hop, dtype=float)
    start, ends = np.asarray(start, dtype=int), np.asarray(ends, dtype=int)
    out_shape = start.shape + ends.shape[1:]
    start = start[:, None] if start.ndim == 1 else start
    ends = ends[:, None] if ends.ndim == 1 else ends
    chains, sites = diag.shape
    rows = np.arange(chains)[:, None]
    seed = np.zeros((chains, sites, ends.shape[1]), dtype=complex)
    seed[rows, ends, np.arange(ends.shape[1])] = 1.0
    pick = (rows, start)

    if order == 0 or t == 0.0 or chains == 0:
        return seed[pick].reshape(out_shape)

    theta = np.diff(diag, axis=1)
    live = np.abs(theta[hop != 0.0])
    # start high enough to resolve the fastest phase
    q = max(_Q_START, int(1.2 * live.max(initial=0.0) * abs(t) / 2.0) + 8)

    def evaluate(q):
        nodes, at_nodes, at_end = _operators(q)
        half = 0.5 * t
        phase = np.exp(-1j * (half * (nodes + 1.0))[:, None, None] * theta)
        up = (-1j * hop * phase)[..., None]            # hop p -> p+1, seen from p
        down = (-1j * hop * phase.conj())[..., None]   # hop p+1 -> p
        amp = np.broadcast_to(seed, (q,) + seed.shape)
        total = seed.copy()
        for m in range(1, order + 1):
            integrand = np.zeros(amp.shape, dtype=complex)
            integrand[:, :, :-1] = up * amp[:, :, 1:]
            integrand[:, :, 1:] += down * amp[:, :, :-1]
            flat = integrand.reshape(q, -1)
            total += half * (at_end @ flat).reshape(seed.shape)
            if m < order:
                amp = half * (at_nodes @ flat).reshape(amp.shape)
        return total[pick].reshape(out_shape)

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
    ``thetas`` (shape ``(k, channels)``): the one-path chain with energies
    ``0, theta_1, theta_1 + theta_2, ...`` and unit hops.

    Raises ``NumericalError`` if node doubling never stabilizes to ``_TOL``.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    depth, channels = thetas.shape
    if depth == 0:
        raise ValueError("need at least one nesting level")
    diag = np.concatenate([np.zeros((channels, 1)), np.cumsum(thetas.T, axis=1)], axis=1)
    values = chain_dyson(diag, np.ones((channels, depth)), np.zeros(channels),
                         np.full(channels, depth), t, depth)
    return 1j**depth * values
