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
1991), and the primitive is read back at the nodes.  The same projection
gives each integrand's top Legendre coefficients, whose size estimates what
the node count leaves out (Trefethen, Approximation Theory and
Approximation Practice, ch. 8): a node count is evaluated once and
accepted when that tail is small enough, and doubled only when it is not.
The sites go in ``_packs`` of whole chains, ``_BLOCK_ENTRIES`` entries per
(nodes, sites, columns) array, so memory is bounded per block; the real
maps act on the float view of the complex integrand, one real product each.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre

from .errors import NumericalError, ParameterError, require_finite

__all__ = ["chain_dyson", "ordered_phase_integral"]

_Q_START = 32    # first Gauss-Legendre node count
_Q_MAX = 4096    # no node count above this is tried
# a node count is accepted once the two top Legendre coefficients of every
# order's integrand, times t / 2, sum to <= _TOL * max(1, |result|)
_TOL = 1e-10
# most complex entries of one (nodes, sites, E) array of a block of chains
_BLOCK_ENTRIES = 2**13


@lru_cache(maxsize=16)
def _operators(q: int):
    """Gauss-Legendre nodes on [-1, 1], the two antiderivative maps (values
    at nodes -> primitive, vanishing at -1, at nodes / at +1) and the two
    top rows of the values -> Legendre coefficients map."""
    nodes, weights = legendre.leggauss(q)
    vander = legendre.legvander(nodes, q - 1)          # P_l(x_i)
    norms = (2.0 * np.arange(q) + 1.0) / 2.0
    coef_from_values = norms[:, None] * (vander * weights[:, None]).T

    int_map = legendre.legint(np.eye(q), lbnd=-1.0)    # column l: primitive of P_l
    at_nodes = legendre.legvander(nodes, q) @ int_map @ coef_from_values
    at_end = legendre.legvander(np.array([1.0]), q) @ int_map @ coef_from_values
    # a copy: a view of two rows would keep the whole q x q map in the cache
    return nodes, at_nodes, at_end[0], coef_from_values[-2:].copy()


def _packs(bounds, budget: int):
    """Runs ``(i, j)`` of whole units ``i .. j - 1`` (chains here, left table
    entries in the junction's chunks), unit ``k`` holding ``bounds[k + 1] -
    bounds[k]``: as many as fit in ``budget``, or one longer unit alone."""
    i = 0
    while i < len(bounds) - 1:
        j = max(bisect_right(bounds, bounds[i] + budget) - 1, i + 1)
        yield i, j
        i = j


def _check_order(order: int) -> None:
    if order < 0:
        raise ParameterError("order must be >= 0")


def chain_dyson(diag, hop, start, seed, t: float, order: int) -> np.ndarray:
    """``sum_{m <= order} (-i)^m`` times the order-m Dyson term from the
    ``start`` sites to the end amplitudes ``seed``, shape ``(sites, E)``.

    ``diag`` (shape ``(sites,)``) and ``hop`` (``(sites-1,)``) lay tridiagonal
    chains end to end, a zero hop out of each chain's last site, so no path
    leaves its chain.  The result has shape ``(len(start), E)``.  The hop out
    of ``start`` is the outermost integral.

    At ``q`` nodes the sites go in ``_packs`` of whole chains, cut only at
    zero hops: as many as fit in ``_BLOCK_ENTRIES // (q E)`` sites, or one
    longer chain.  Past the ``(sites, E)`` totals, the memory is a few
    ``(q, block sites, E)`` arrays of ``_BLOCK_ENTRIES`` entries or one chain.

    Raises ``ParameterError`` for a time that is not finite, and
    ``NumericalError`` if no node count up to ``_Q_MAX`` passes its
    Legendre tail check.
    """
    require_finite(t=t)
    diag, hop = np.asarray(diag, dtype=float), np.asarray(hop, dtype=float)
    start, seed = np.asarray(start, dtype=int), np.asarray(seed, dtype=complex)

    if order == 0 or t == 0.0 or seed[start].size == 0:
        return seed[start]

    theta = np.diff(diag)
    bounds = [0, *(np.flatnonzero(hop == 0.0) + 1).tolist(), hop.size + 1]
    fastest = float(np.max(np.abs(theta[hop != 0.0]), initial=0.0))
    # start high enough to resolve the fastest phase; past _Q_MAX (or past
    # float range) no node count is tried
    q = max(_Q_START, int(min(1.2 * fastest * abs(t) / 2.0, _Q_MAX)) + 8)

    def evaluate(q):
        """The result at ``q`` nodes and its largest Legendre tail: the two
        top coefficients of any block's integrand at any order, times ``t / 2``."""
        nodes, at_nodes, at_end, top = _operators(q)
        half = 0.5 * t
        at_nodes, at_end = half * at_nodes, half * at_end
        total, tail = seed.copy(), 0.0
        for i, j in _packs(bounds, _BLOCK_ENTRIES // (q * seed.shape[1])):
            lo, hi = bounds[i], bounds[j]
            up = np.exp(-1j * (half * (nodes + 1.0))[:, None] * theta[lo:hi - 1])
            up *= -1j * hop[lo:hi - 1]                 # hop p -> p+1, seen from p
            up, down = up[..., None], -up.conj()[..., None]   # hop p+1 -> p
            amp = np.repeat(seed[None, lo:hi], q, axis=0)
            integrand, work = np.empty_like(amp), np.empty_like(amp)
            flat = integrand.reshape(q, -1).view(float)
            for m in range(1, order + 1):
                np.multiply(down, amp[:, :-1], out=integrand[:, 1:])
                integrand[:, 0] = 0.0
                np.multiply(up, amp[:, 1:], out=work[:, :-1])
                integrand[:, :-1] += work[:, :-1]
                total[lo:hi] += (at_end @ flat).view(complex).reshape(hi - lo, -1)
                tail = max(tail, float(np.abs((top @ flat).view(complex)).sum(axis=0).max()))
                if m < order:
                    np.matmul(at_nodes, flat, out=amp.reshape(q, -1).view(float))
        return total[start], abs(half) * tail

    while q <= _Q_MAX:
        result, tail = evaluate(q)
        if tail <= _TOL * max(1.0, float(np.max(np.abs(result), initial=0.0))):
            return result
        q *= 2
    raise NumericalError(
        f"simplex quadrature did not resolve to {_TOL} below {_Q_MAX} nodes"
    )


def ordered_phase_integral(thetas, t: float) -> np.ndarray:
    """Ordered-simplex integral of ``prod_j exp(-i theta_j t_j)`` over
    ``t >= t_1 >= t_2 >= ... >= t_k >= 0``, vectorized over the columns of
    ``thetas`` (shape ``(k, channels)``): the one-path chains with energies
    ``0, theta_1, theta_1 + theta_2, ...`` and unit hops, end to end.

    Raises ``ParameterError`` without a nesting level, and
    ``NumericalError`` as ``chain_dyson`` does.
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
