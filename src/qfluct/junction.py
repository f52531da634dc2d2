"""Two superconducting layers coupled by Cooper-pair tunneling, resolved in
the doubled (thermal) representation, and its convergence to the relative
circle dynamics.

The doubled two-layer Hilbert space splits into invariant blocks labeled by
both layers' spin sectors and the frozen commutant magnetic labels
``(s_L, sz_L0, s_R, sz_R0)``.  Inside a block the free part and the charging
term are diagonal on the grid of system labels ``(a, b)`` while tunneling
hops ``(a, b) -> (a+1, b-1)``, so the block further decomposes into
tridiagonal chains of fixed ``a + b`` (total charge is conserved, so an
element that changes it has no chain and is exactly zero).  Matrix
elements of the propagator between charge-transfer states are therefore
exact sums over chains of small tridiagonal problems, built in chunks of
at most ``_CHUNK_SITES`` sites, one vectorized pass each: the chains of
consecutive left table entries ``(s_L, sz_L0)``, laid end to end (a
chain's last hop is exactly zero, so no amplitude crosses from one chain
to the next).  Each chunk is propagated by one real Chebyshev recursion
over its flat arrays.  No array spans every entry pair: a chunk holds a
few vectors of its sites.
The recursion's order, and so its cost, grows linearly with ``|t| R``, the
time times the largest Gershgorin half-width of a chunk's chains (R is
about 80 at N = 20): there it is 4-5 times faster than a tridiagonal
eigensolve per chain for t <= 1 and about as fast near t = 8.

Energy scales: hopping enters as ``lambda / N^2`` (tunneling is a surface
effect), and the large-N coupling of the relative phase is
``E_J = 2 lambda c_L c_R`` with ``c = Delta`` per layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circle import ChargeBasisTruncation, CircuitParams, propagator
from .errors import (NormalPhaseError, NumericalError, ParameterError, TruncationError,
                     require_finite)
from .gap import josephson_energy, solve_gap
from .quadrature import _dyson_bound, chain_dyson
from .sectors import ModelParams, check_spin_count, eta, ladder_coefficient, thermal_table

__all__ = [
    "JunctionParams",
    "ChainBatch",
    "TransitionElement",
    "layer_gaps",
    "chain_batches",
    "evolution_element",
    "circle_element",
    "meso_compare",
    "MesoCompareRow",
    "dyson_junction",
    "dyson_junction_defect",
    "eigh_tridiagonal",
]


@dataclass(frozen=True)
class JunctionParams:
    """Junction parameters: the two layers, tunneling coupling, charging
    energy, offset charge and the common inverse temperature.  Each layer's
    ``beta`` must equal the junction's, and its ``mu`` must be 0: the
    junction Hamiltonian has no chemical-potential term."""

    left: ModelParams
    right: ModelParams
    lam: float
    e_c: float
    n_g: float
    beta: float

    def __post_init__(self):
        require_finite(lam=self.lam, e_c=self.e_c, n_g=self.n_g)
        if self.e_c < 0:
            raise ParameterError("e_c must be non-negative")
        for side, layer in (("left", self.left), ("right", self.right)):
            # a layer's beta is finite and positive, so this rejects any other
            if layer.beta != self.beta:
                raise ParameterError(f"{side} layer beta {layer.beta} differs from "
                                     f"the junction beta {self.beta}")
            if layer.mu != 0.0:
                raise ParameterError(f"{side} layer mu must be 0, got {layer.mu}")


def layer_gaps(params: JunctionParams):
    """Solve both layers' gap equations at the common temperature; both must
    be superconducting for any fluctuation dynamics to exist."""
    pl, pr = params.left, params.right
    return _resolve_gaps(params, (solve_gap(pl.epsilon, pl.t_c, pl.beta),
                                  solve_gap(pr.epsilon, pr.t_c, pr.beta)))


def _resolve_gaps(params: JunctionParams, gaps):
    if gaps is None:
        return layer_gaps(params)
    gl, gr = gaps
    if gl.delta <= 0 or gr.delta <= 0:
        raise NormalPhaseError(
            f"both layers must be superconducting (Delta_L={gl.delta}, "
            f"Delta_R={gr.delta})"
        )
    return gl, gr


@dataclass(frozen=True)
class TransitionElement:
    source: tuple
    target: tuple
    t: float
    value: complex


# most sites of one Chebyshev recursion, unless one left entry has more
_CHUNK_SITES = 2**13
# most sites of one Dyson quadrature: it holds a few (nodes, sites) arrays
# per chunk, so larger chunks raise the peak memory
_DYSON_CHUNK_SITES = 2**8
# highest order of one Chebyshev recursion (the order grows as |t| R)
_ORDER_MAX = 2**14
# a-priori bound on the Chebyshev terms left out of one chain element
_TAIL = 2.0**-60


@dataclass(frozen=True)
class ChainBatch:
    """The fixed-charge chains of consecutive left table entries
    ``(s_l, sz_l0)``, each against every contributing right entry
    ``(s_r, sz_r0)``, laid end to end.

    Chain ``c`` joins the sectors ``s_l[c]`` and ``s_r[c]``, starts at site
    ``first[c]`` and has the weight ``weight[c]``: that of its entry pair
    times the ladder amplitudes and normalizations.  Site ``i`` holds the
    labels ``(a[i], b[i])``, ``a`` ascending and ``a + b`` fixed along a
    chain.  ``hop[i]`` joins sites ``i`` and ``i + 1``, exactly zero out of
    a chain's last site (there ``a = s_l`` or ``b = -s_r``).  ``start`` and
    ``end`` are the sites of the source and target labels."""

    s_l: np.ndarray
    s_r: np.ndarray
    weight: np.ndarray
    a: np.ndarray
    b: np.ndarray
    diag: np.ndarray
    hop: np.ndarray
    first: np.ndarray
    start: np.ndarray
    end: np.ndarray


def _reached(layer: ModelParams, n_spins: int, n: int, n_p: int):
    """``(s, sz0, log_weight, amplitude)`` of the table entries of one layer
    that both charges ``n`` and ``n_p`` reach: the amplitude, the product of
    the two ladder coefficients, is nonzero."""
    s, sz0, logw = thermal_table(layer, n_spins).flat()
    amp = ladder_coefficient(s, sz0, n) * ladder_coefficient(s, sz0, n_p)
    keep = amp != 0.0
    return s[keep], sz0[keep], logw[keep], amp[keep]


def chain_batches(params: JunctionParams, n_spins: int, source, target, gaps=None,
                  sites: int = _CHUNK_SITES):
    """Yield the chains of every table entry pair that both charge states
    reach, as ``ChainBatch`` chunks of consecutive left entries, each with
    all of its chains: as many entries as fit in ``sites`` sites, and a
    left entry with more is a chunk of its own.  Each chunk is built in one
    vectorized pass.  Diagonal: layer spectra relative to the commutant
    labels plus the charging term; hops: the tunneling ladder products
    scaled by lambda / N^2.  Total charge is conserved exactly: an element
    with ``n_L + n_R != n_L' + n_R'`` has no chain and yields none.

    Raises ``ParameterError`` for a charge label that is not an integer."""
    (n_l, n_r), (n_lp, n_rp) = _charge_labels(source, target)
    if n_l + n_r != n_lp + n_rp:
        return
    gl, gr = _resolve_gaps(params, gaps)
    pl, pr = params.left, params.right
    log_norm = ((abs(n_l) + abs(n_lp)) * math.log(gl.delta * n_spins)
                + (abs(n_r) + abs(n_rp)) * math.log(gr.delta * n_spins))
    s_l, sz_l0, logw_l, amp_l = _reached(pl, n_spins, n_l, n_lp)
    s_r, sz_r0, logw_r, amp_r = _reached(pr, n_spins, n_r, n_rp)
    if not (s_l.size and s_r.size):
        return
    eta_l0, eta_r0 = eta(pl, n_spins, s_l, sz_l0), eta(pr, n_spins, s_r, sz_r0)

    def chains(lo, hi):  # a + b, lowest a and length of the chains of left entries lo:hi
        charge = (sz_l0[lo:hi, None] + n_l) + (sz_r0 + n_r)
        a_lo = np.maximum(-s_l[lo:hi, None], charge - s_r)
        length = np.rint(np.minimum(s_l[lo:hi, None], charge + s_r) - a_lo).astype(int) + 1
        return charge, a_lo, length

    # the sites of each left entry set the chunk bounds, greedily; they are
    # counted in blocks of about _CHUNK_SITES pairs, so no array spans all pairs
    block = max(1, _CHUNK_SITES // s_r.size)
    sizes = np.concatenate([chains(lo, lo + block)[2].sum(axis=1)
                            for lo in range(0, s_l.size, block)])
    bounds, total = [0], 0
    for i, size in enumerate(sizes.tolist()):
        if total and total + size > sites:
            bounds.append(i)
            total = 0
        total += size
    for lo, hi in zip(bounds, bounds[1:] + [s_l.size]):
        charge, a_lo, length = chains(lo, hi)
        lengths = length.ravel()
        first = np.cumsum(lengths) - lengths
        chain = np.repeat(np.arange(lengths.size), lengths)  # the chain of each site
        left, right = np.divmod(chain, s_r.size)  # its entries
        left += lo
        a = a_lo.ravel()[chain] + (np.arange(chain.size) - first[chain])
        b = charge.ravel()[chain] - a
        site_s_l, site_s_r = s_l[left], s_r[right]
        diag = ((eta(pl, n_spins, site_s_l, a) - eta_l0[left])
                + (eta(pr, n_spins, site_s_r, b) - eta_r0[right])
                + params.e_c * (0.5 * ((a - sz_l0[left]) - (b - sz_r0[right]))
                                - params.n_g) ** 2)
        hop = (params.lam / n_spins**2 * ladder_coefficient(site_s_l[:-1], a[:-1], 1)
               * ladder_coefficient(site_s_r[:-1], b[:-1], -1))
        weight = np.exp(logw_l[lo:hi, None] + logw_r - log_norm) * amp_l[lo:hi, None] * amp_r
        at_sz_l0 = first + np.rint(sz_l0[lo:hi, None] - a_lo).astype(int).ravel()
        yield ChainBatch(
            s_l=np.repeat(s_l[lo:hi], s_r.size), s_r=np.tile(s_r, hi - lo),
            weight=weight.ravel(), a=a, b=b, diag=diag, hop=hop, first=first,
            start=at_sz_l0 + n_l, end=at_sz_l0 + n_lp,
        )


def _integral(label) -> bool:
    try:
        return int(label) == label
    except (OverflowError, ValueError):  # inf or nan
        return False


def _charge_labels(source, target):
    """Both charge states as pairs of ints; a label that is not an integer
    is a ``ParameterError``."""
    if not all(map(_integral, (*source, *target))):
        raise ParameterError(f"element {list(source)} -> {list(target)}: charge "
                             f"labels must be integers")
    return (int(source[0]), int(source[1])), (int(target[0]), int(target[1]))


def eigh_tridiagonal(d, e):
    """Eigenvalues and eigenvectors of the real symmetric tridiagonal matrix
    with diagonal ``d`` and off-diagonal ``e``: scipy's solver, imported on
    the first call.  No qfluct path calls it; the benchmark harness
    (``bench/spans.py``) wraps it by this name.  scipy is not a dependency
    of qfluct but of its ``test`` extra, which the harness needs too."""
    from scipy.linalg import eigh_tridiagonal as solve
    return solve(d, e)


def _chebyshev_order(x: float) -> int:
    """The smallest order K whose a-priori tail, the bound
    ``2 (x/2)^{K+1} / (K+1)! / (1 - x / (2 (K+2)))`` on the sum of
    ``2 |J_k(x)|`` over k > K, is at most ``_TAIL``, for ``x = |t| R``.  It
    is taken in logarithms, so it never overflows.

    Raises ``NumericalError`` past ``_ORDER_MAX``."""
    if x == 0.0:
        return 0
    if x / 2.0 - 1.0 <= _ORDER_MAX:  # the geometric factor needs K + 2 > x / 2
        log_half, log_tail = math.log(x / 2.0), math.log(_TAIL / 2.0)
        for order in range(max(0, math.floor(x / 2.0) - 1), _ORDER_MAX + 1):
            ratio = x / (2.0 * (order + 2))
            if ratio < 1.0 and ((order + 1) * log_half - math.lgamma(order + 2)
                                - math.log1p(-ratio)) <= log_tail:
                return order
    raise NumericalError(
        f"junction propagation at t R = {x:.6g} (time times the largest chain "
        f"half-width) needs a Chebyshev order above {_ORDER_MAX}")


def _bessel_j(x: float, order: int) -> list:
    """``J_0(x), ..., J_order(x)`` for ``x > 0`` by Miller's backward
    recurrence ``J_{k-1} = (2k/x) J_k - J_{k+1}``, started from zero well
    above both ``order`` and ``x`` and normalized by
    ``J_0 + 2 (J_2 + J_4 + ...) = 1``.  It rescales on the way down, so it
    never overflows."""
    top = order + math.ceil(x) + math.ceil(math.sqrt(160.0 * (order + x + 1.0)))
    values = [0.0] * (order + 1)
    above, here, even = 0.0, 1.0, 0.0  # J_{k+1}, J_k and J_2 + J_4 + ..., up to scale
    for k in range(top, 0, -1):
        if k <= order:
            values[k] = here
        if k % 2 == 0:
            even += here
        above, here = here, (2.0 * k / x) * here - above
        if abs(here) > 1e250:
            above, here, even = above * 1e-250, here * 1e-250, even * 1e-250
            values[k:] = [v * 1e-250 for v in values[k:]]
    values[0] = here
    norm = here + 2.0 * even
    return [v / norm for v in values]


def _chain_elements(batch: ChainBatch, t: float) -> np.ndarray:
    """``<end| exp(-i t H_c) |start>`` of every chain ``c`` of a chunk, by
    one real Chebyshev recursion over its flat arrays (Tal-Ezer & Kosloff,
    J. Chem. Phys. 81, 3967 (1984)).

    Each chain is shifted by the centre ``C_c`` of its Gershgorin interval
    and all are scaled by the largest half-width ``R``, so each
    ``H'_c = (H_c - C_c) / R`` has its spectrum in [-1, 1] and

        exp(-i t H_c) = exp(-i t C_c) sum_k a_k T_k(H'_c),
        a_0 = J_0(t R),  a_k = 2 (-i)^k J_k(t R).

    The vectors ``T_k(H') |start>`` of all chains come from one three-term
    recursion, ``T_{k+1} = 2 H' T_k - T_{k-1}``: the exact zero hop out of
    each chain's last site keeps the chains apart.  The order
    ``_chebyshev_order(|t| R)`` leaves out at most ``_TAIL`` of each
    element, so the elements are exact to rounding; it costs one pass over
    the sites per order, and the order grows as ``|t| R``."""
    diag, hop, first, end = batch.diag, batch.hop, batch.first, batch.end
    # each site's Gershgorin radius, and the interval of each chain's discs
    radius = np.zeros(diag.size)
    radius[:-1] += np.abs(hop)
    radius[1:] += np.abs(hop)
    lo = np.minimum.reduceat(diag - radius, first)
    hi = np.maximum.reduceat(diag + radius, first)
    centre = 0.5 * (hi + lo)
    scale = 0.5 * float(np.max(hi - lo)) or 1.0  # zero width: H_c = C_c, any scale
    # 2 H' = (H - C) * twice, so t (H - C) = x H' with x = 2 |t| / twice
    # exactly: x is a float plus a rounding remainder, which the
    # coefficients take to first order, J_k' = (J_{k-1} - J_{k+1}) / 2
    twice = 2.0 / scale
    x = 2.0 * abs(t) / twice
    order = _chebyshev_order(x)
    remainder = float(Fraction(2.0 * abs(t)) / Fraction(twice) - Fraction(x))
    bessel = _bessel_j(x, order + 1) if order else [1.0, 0.0]
    bessel = [bessel[0] - remainder * bessel[1]] + [
        bessel[k] + 0.5 * remainder * (bessel[k - 1] - bessel[k + 1])
        for k in range(1, order + 1)]
    # the real or imaginary part of a_k: (-i)^k J_k(t R) = (-i sign t)^k J_k(x)
    sign = math.copysign(2.0, t)
    coefficients = [bessel[0]] + [(2.0, -sign, -2.0, sign)[k % 4] * bessel[k]
                                  for k in range(1, order + 1)]

    current = np.zeros(diag.size)
    current[batch.start] = 1.0
    parts = np.zeros((2, end.size))
    parts[0] = coefficients[0] * current[end]
    twice_diag = (diag - np.repeat(centre, np.diff(first, append=diag.size))) * twice
    twice_hop = hop * twice
    previous, spare = np.empty(diag.size), np.empty(diag.size)
    for k in range(1, order + 1):
        np.multiply(twice_diag, current, out=spare)  # spare = 2 H' current
        spare[:-1] += twice_hop * current[1:]
        spare[1:] += twice_hop * current[:-1]
        if k == 1:
            spare *= 0.5
        else:
            spare -= previous
        previous, current, spare = current, spare, previous
        parts[k % 2] += coefficients[k] * current[end]
    return np.exp(-1j * (t * centre)) * (parts[0] + 1j * parts[1])


def evolution_element(params: JunctionParams, n_spins: int, source, target,
                      t: float, gaps=None) -> TransitionElement:
    """Exact propagator matrix element between charge-transfer states,
    ``<target| exp(-i t H) |source>`` with the full block Hamiltonian.

    A charge-violating element has no chains (``chain_batches`` yields
    none), so it is exactly 0.  The chains come in chunks of at most
    ``_CHUNK_SITES`` sites; each chunk is propagated by one Chebyshev
    recursion, and its weighted chain elements are added by one dot
    product.

    Raises ``ParameterError`` for a time that is not finite or a charge
    label that is not an integer, and
    ``NumericalError`` where ``|t| R`` needs an order above ``_ORDER_MAX``.
    """
    check_spin_count(n_spins)
    require_finite(t=t)
    source, target = _charge_labels(source, target)
    chunks = chain_batches(params, n_spins, source, target, gaps, _CHUNK_SITES)
    return TransitionElement(source, target, t,
                             sum((_weighted_elements(chunk, t) for chunk in chunks), 0j))


def _weighted_elements(chunk: ChainBatch, t: float) -> complex:
    return complex(np.dot(chunk.weight, _chain_elements(chunk, t)))


# charge window of the circle comparator before its doubling check
_CIRCLE_N_MAX = 24


def circle_element(params: JunctionParams, source, target, t: float,
                   gaps=None) -> complex:
    """Large-N prediction for a charge-transfer element: the relative
    coordinate ``(n_L - n_R) / 2`` on the circle with Josephson coupling
    ``2 lambda c_L c_R``.  It is an integer for an even total charge and a
    half-integer for an odd one; a half-integer charge ``n`` with offset
    ``n_g`` is the integer charge ``n - 1/2`` with offset ``n_g - 1/2``, so
    both use the integer grid.  The truncation ``_CIRCLE_N_MAX`` is doubled
    once and must agree to 1e-12; a relative charge outside
    ``|n| <= _CIRCLE_N_MAX`` is a ``ParameterError``, and so are a time that
    is not finite and a charge label that is not an integer."""
    require_finite(t=t)
    source, target = _charge_labels(source, target)
    if sum(source) != sum(target):
        return 0j
    n_in = (source[0] - source[1]) / 2.0
    n_out = (target[0] - target[1]) / 2.0
    if max(abs(n_in), abs(n_out)) > _CIRCLE_N_MAX:
        raise ParameterError(
            f"element {list(source)} -> {list(target)}: the circle comparator "
            f"needs relative charges (nL - nR)/2 with |n| <= {_CIRCLE_N_MAX}, "
            f"got {n_in:g} -> {n_out:g}")
    gl, gr = _resolve_gaps(params, gaps)
    shift = 0.0 if sum(source) % 2 == 0 else 0.5
    circuit = CircuitParams(
        e_c=params.e_c, e_j=josephson_energy(params.lam, gl.delta, gr.delta),
        n_g=params.n_g - shift,
    )

    def one(n_max_):
        trunc = ChargeBasisTruncation(n_max_)
        u = propagator(circuit, trunc, t)
        return complex(u[trunc.index_of(n_out - shift), trunc.index_of(n_in - shift)])

    small, big = one(_CIRCLE_N_MAX), one(2 * _CIRCLE_N_MAX)
    if abs(small - big) > 1e-12:
        raise TruncationError(
            f"circle comparator not converged at n_max={_CIRCLE_N_MAX}: "
            f"doubling moved the element by {abs(small - big):.3e}"
        )
    return big


@dataclass(frozen=True)
class MesoCompareRow:
    source: tuple
    target: tuple
    circle_value: complex
    finite_values: tuple
    abs_errors: tuple
    non_increasing_after_first: bool
    final_over_initial: float


def meso_compare(params: JunctionParams, n_list, elements, t: float,
                 gaps=None) -> list:
    """Tabulate |finite-N - circle| for each requested element over a list
    of sizes, with a monotone-trend statistic per element."""
    gaps = _resolve_gaps(params, gaps)
    rows = []
    for source, target in elements:
        circle_value = circle_element(params, source, target, t, gaps=gaps)
        finite = [evolution_element(params, n, source, target, t, gaps=gaps).value
                  for n in n_list]
        errors = [abs(v - circle_value) for v in finite]
        tail = errors[1:]
        non_increasing = all(tail[i + 1] <= tail[i] * (1 + 1e-12)
                             for i in range(len(tail) - 1))
        ratio = errors[-1] / errors[0] if errors and errors[0] > 0 else 0.0
        rows.append(MesoCompareRow(
            source=tuple(source), target=tuple(target), circle_value=circle_value,
            finite_values=tuple(finite), abs_errors=tuple(errors),
            non_increasing_after_first=non_increasing, final_over_initial=ratio,
        ))
    return rows


def _check_dyson(n_spins: int, t: float, order: int) -> None:
    check_spin_count(n_spins)
    require_finite(t=t)
    if order < 0:
        raise ParameterError("order must be >= 0")


def _dyson_terms(chunk: ChainBatch, t: float, order: int) -> complex:
    """The weighted ``D_K U_0`` elements of a chunk's chains, summed: each
    chain carries its Dyson terms from the source to the target site, all
    target sites seeded in one column (the chains are disjoint), and
    ``U_0`` contributes the free and charging phase of the source."""
    seed = np.isin(np.arange(chunk.diag.size), chunk.end)[:, None]
    terms = chain_dyson(chunk.diag, chunk.hop, chunk.start, seed, t, order)
    u0 = np.exp(-1j * t * chunk.diag[chunk.start])
    return complex(np.sum(chunk.weight * u0 * terms[:, 0]))


def dyson_junction(params: JunctionParams, n_spins: int, t: float, order: int,
                   elements, gaps=None) -> dict:
    """Elements of the order-K time-ordered perturbative propagator
    ``D_K(t) U_0(t)``, tunneling as the perturbation.

    The chains come in chunks of at most ``_DYSON_CHUNK_SITES`` sites, and
    the shared chain recursion runs once per chunk.  Raises
    ``ParameterError`` for an odd or too small ``n_spins``, a time that is
    not finite, a negative order or a charge label that is not an integer,
    before any work.
    """
    _check_dyson(n_spins, t, order)
    elements = [_charge_labels(source, target) for source, target in elements]
    gaps = _resolve_gaps(params, gaps)
    return {(source, target): sum(
        (_dyson_terms(chunk, t, order) for chunk in
         chain_batches(params, n_spins, source, target, gaps, _DYSON_CHUNK_SITES)), 0j)
            for source, target in elements}


def dyson_junction_defect(params: JunctionParams, n_spins: int, t: float,
                          order: int, elements, gaps=None):
    """Per-element deviation |exact - D_K U_0| together with the factorial
    bound (2 lambda)^{K+1} t^{K+1} / (K+1)! that holds uniformly in N.

    Each element's chains are built once: every chunk of
    ``dyson_junction`` is also propagated exactly, as in
    ``evolution_element``.  It raises as ``dyson_junction`` does."""
    _check_dyson(n_spins, t, order)
    elements = [_charge_labels(source, target) for source, target in elements]
    gaps = _resolve_gaps(params, gaps)
    deviations = {}
    for source, target in elements:
        deviation = 0j
        for chunk in chain_batches(params, n_spins, source, target, gaps,
                                   _DYSON_CHUNK_SITES):
            deviation += _weighted_elements(chunk, t) - _dyson_terms(chunk, t, order)
        deviations[(source, target)] = abs(deviation)
    return deviations, _dyson_bound(order, 2.0 * abs(params.lam), abs(t))
