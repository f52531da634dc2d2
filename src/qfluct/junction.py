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
exact sums over chains of small tridiagonal problems, built in chunks:
the chains of as many consecutive left table entries ``(s_L, sz_L0)`` as
fit in ``_CHUNK_SITES`` sites, or of one larger entry, laid end to end (a
chain's last hop is exactly zero, so no amplitude crosses from one chain
to the next).  A site's diagonal and hop depend only on its two table
entries and its offset ``m = a - sz_L0``, so each reached entry gets one
row over the offsets, of its layer's spectrum and one-step ladder
coefficients, the charging term is one row over ``m``, and a chunk
gathers its sites from these rows: no ``eta`` or ladder coefficient is
evaluated per site, and every value is the per-site formula's to the
bit.  Each chain keeps only the sites within a window of ``w`` sites
beyond its source and target, ``w`` the smallest for which a computed
bound on the paths that leave the window and come back
(``_window_log_bound``) is at most the recursion's own ``_TAIL``.  One
checked loop, ``_element_sums``, sums one term per chunk: its exact
elements by a real Chebyshev recursion over its flat arrays, its Dyson
terms by one ``chain_dyson`` call (in blocks of whole chains, packed by
the same rule), or the difference of the two.  No array spans every entry
pair: the rows span entries and offsets.
The recursion's order, and so its cost, grows linearly with ``|t| R``, the
time times the largest Gershgorin half-width of a chunk's chains.  R is
set by the charging energy at the sites far from the source, which the
window leaves out: at t = 0.3 (w = 5) it falls from about 80 to 16 at
N = 20 and from about 200 to 18 at N = 32, and the element (0,0)->(1,-1)
at the README junction parameters is 1.7 times faster at N = 20, 2.8
times at N = 32 and 3.8 times at N = 48 than with whole chains.  The window
widens with |t| and leaves the chains at N = 20 nearly whole by t = 8.

Energy scales: hopping enters as ``lambda / N^2`` (tunneling is a surface
effect), and the large-N coupling of the relative phase is
``E_J = 2 lambda c_L c_R`` with ``c = Delta`` per layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import ChargeBasisTruncation, CircuitParams, _charging, _evolution
from .errors import (NormalPhaseError, NumericalError, ParameterError, TruncationError,
                     require_finite)
from .gap import josephson_energy, solve_gap
from .quadrature import _check_order, _dyson_bound, _packs, chain_dyson
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


# most sites of a chunk of chains, unless one left entry has more
_CHUNK_SITES = 2**13
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
    chain, which ends where ``a = s_l`` or ``b = -s_r`` or at the edge of its
    window.  ``diag[i]`` is ``(eta_L(s_l, a) - eta_L(s_l, sz_l0)) +
    (eta_R(s_r, b) - eta_R(s_r, sz_r0))`` plus the charging term, and
    ``hop[i]``, which joins sites ``i`` and ``i + 1``, is ``lambda / N^2``
    times the left raising and the right lowering coefficient at site
    ``i``, exactly zero out of a chain's last site; both are gathered from
    per-entry rows (``chain_batches``).  ``start`` and ``end`` are the sites
    of the source and target labels."""

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
    amp = np.ones(s.size)
    for k in (n, n_p):
        if k:  # a walk of no steps from an entry, which is in its sector, is 1
            amp = amp * ladder_coefficient(s, sz0, k)
    keep = amp != 0.0
    return s[keep], sz0[keep], logw[keep], amp[keep]


def _window(params: JunctionParams, n_spins: int, t: float, shift: int):
    """The sites ``w`` a chain keeps beyond its source and target sites at
    time ``t``, for ``shift = |n_L' - n_L|`` sites between them: the
    smallest whose ``_window_log_bound`` is at most the logarithm of
    ``_TAIL``, the Chebyshev recursion's own bound, or None to keep every
    chain whole.  No hop is above ``h = |lambda| (N+1)^2 / (4 N^2)`` (no
    ladder coefficient is above (N+1)/2).  From ``w = N - shift`` on a
    window holds every chain, whose sites are in [-N/2, N/2], so there is
    none."""
    x = abs(params.lam) * (n_spins + 1) ** 2 / (2.0 * n_spins**2) * abs(t)  # 2 h |t|
    log_tail = math.log(_TAIL)
    for w in range(n_spins - shift):
        if _window_log_bound(x, w, shift) <= log_tail:
            return w
    return None


def _window_log_bound(x: float, w: int, shift: int) -> float:
    """The logarithm of a bound on how far a window of ``w`` sites beyond
    the source and target, ``shift`` sites apart, moves one chain element,
    for ``x = 2 h |t|`` and no hop above ``h``.

    A path from the source out of the window and back to the target takes
    at least ``D = 2 w + 2 + shift`` hops, and Duhamel's formula with Dyson
    tails bounds what such paths add by ``x^D / D! e^x``.  Taken in
    logarithms, it never overflows: -inf for ``x = 0`` and inf for an
    infinite ``x``."""
    if x == 0.0:  # no path leaves its source
        return -math.inf
    hops = 2 * w + 2 + shift
    return hops * math.log(x) - math.lgamma(hops + 1) + x


def _rows(layer: ModelParams, n_spins: int, s, sz, at_entry: int, step: int):
    """``eta(s, sz) - eta(s, sz0)`` and the ladder coefficient of one
    ``step`` at ``sz``, flat, for one row of labels ``sz`` per entry of spin
    ``s`` whose column ``at_entry`` is the entry's own ``sz0``."""
    width = sz.shape[1]
    s, sz = s.repeat(width), sz.ravel()
    level = eta(layer, n_spins, s, sz).reshape(-1, width)
    return (level - level[:, at_entry, None]).ravel(), ladder_coefficient(s, sz, step)


def chain_batches(params: JunctionParams, n_spins: int, source, target, t: float,
                  gaps=None):
    """Yield the chains of every table entry pair that both charge states
    reach, as ``ChainBatch`` chunks of consecutive left entries with all of
    their chains: as many entries as fit in ``_CHUNK_SITES`` sites, or one
    larger entry alone (``quadrature._packs``).  Diagonal: layer spectra
    relative to the commutant labels plus the charging term; hops: the
    tunneling ladder products scaled by lambda / N^2.  Total charge is
    conserved exactly: an element with ``n_L + n_R != n_L' + n_R'`` has no
    chain and yields none.

    A site's diagonal and hop depend only on its left entry, its right
    entry and its offset ``m = a - sz_L0`` (then ``b = sz_R0 + n_L + n_R -
    m``).  So each reached entry gets one row over the offsets of every
    chain, ``eta(s, sz) - eta(s, sz0)`` and the one-step ladder coefficient
    of its layer (``_rows``), and the charging term is one row over ``m``.
    Each chunk gathers its sites' values from these rows by flat index and
    adds and multiplies them in the per-site formulas' order,
    ``((eta_L - eta_L0) + (eta_R - eta_R0)) + charging`` and
    ``(lambda / N^2 * L) * R``, so every field is theirs to the bit.  The
    rows hold entries times offsets, never entry pairs.

    Each chain keeps the sites ``a`` in [min(a_s, a_e) - w, max(a_s, a_e) + w]
    of its own range, ``a_s = sz_L0 + n_L`` and ``a_e = sz_L0 + n_L'`` its
    source and target sites, with ``w = _window(...)`` chosen once for the
    time ``t``; a window edge ends a chain with an exact zero hop, as a
    chain's end does.  With no window (None), every chain is whole.

    Raises ``ParameterError`` for a charge label that is not an integer and
    ``NumericalError`` for a charging term past the float range."""
    (n_l, n_r), (n_lp, n_rp) = _charge_labels(source, target)
    if n_l + n_r != n_lp + n_rp:
        return
    gl, gr = _resolve_gaps(params, gaps)
    pl, pr = params.left, params.right
    s_l, sz_l0, logw_l, amp_l = _reached(pl, n_spins, n_l, n_lp)
    s_r, sz_r0, logw_r, amp_r = _reached(pr, n_spins, n_r, n_rp)
    if not (s_l.size and s_r.size):
        return
    # a reached entry has every |n| <= N, so this is finite
    log_norm = ((abs(n_l) + abs(n_lp)) * math.log(gl.delta * n_spins)
                + (abs(n_r) + abs(n_rp)) * math.log(gr.delta * n_spins))
    # the offsets m = a - sz_L0 each entry's sites take: a in [-s_l, s_l],
    # cut to the window, and b = sz_R0 + charge - m in [-s_r, s_r]
    charge = n_l + n_r
    lo_l, hi_l = (-s_l - sz_l0).astype(int), (s_l - sz_l0).astype(int)
    w = _window(params, n_spins, t, abs(n_lp - n_l))
    if w is not None:
        lo_l = np.maximum(lo_l, min(n_l, n_lp) - w)
        hi_l = np.minimum(hi_l, max(n_l, n_lp) + w)
    lo_r, hi_r = (sz_r0 - s_r).astype(int) + charge, (sz_r0 + s_r).astype(int) + charge

    # one row per entry over the offsets m0 .. m0 + width - 1, which hold
    # every site and the entries themselves: a = sz_L0 at m = 0 and
    # b = sz_R0 at m = charge
    m0 = min(int(lo_l.min()), 0, charge)
    m = np.arange(m0, max(int(hi_l.max()), 0, charge) + 1, dtype=float)
    width = m.size
    a_row, b_row = sz_l0[:, None] + m, sz_r0[:, None] + (charge - m)
    eta_l, hop_l = _rows(pl, n_spins, s_l, a_row, -m0, 1)
    eta_r, hop_r = _rows(pr, n_spins, s_r, b_row, charge - m0, -1)
    hop_l = params.lam / n_spins**2 * hop_l
    a_row, b_row = a_row.ravel(), b_row.ravel()
    # the charging row, once per left entry, so that a site's left index
    # reads it (array methods and ufuncs in place of np.tile, np.repeat and
    # np.cumsum, whose wrappers cost microseconds a small-N element feels)
    charging = _charging(params.e_c, params.n_g, 0.5 * (m - (charge - m)))
    charging = charging[None].repeat(s_l.size, axis=0).ravel()

    def chains(lo, hi):  # the first offset and length of the chains of left entries lo:hi
        m_first = np.maximum(lo_l[lo:hi, None], lo_r)
        return m_first, np.minimum(hi_l[lo:hi, None], hi_r) - m_first + 1

    # the sites of each left entry set the chunk bounds; they are counted in
    # blocks of about _CHUNK_SITES pairs, so no array spans all pairs
    block = max(1, _CHUNK_SITES // s_r.size)
    sizes = np.concatenate([chains(lo, lo + block)[1].sum(axis=1)
                            for lo in range(0, s_l.size, block)])
    left_rows, right_rows = np.arange(s_l.size) * width, np.arange(s_r.size) * width
    for lo, hi in _packs([0, *np.add.accumulate(sizes).tolist()], _CHUNK_SITES):
        m_first, lengths = chains(lo, hi)
        lengths = lengths.ravel()
        first = np.add.accumulate(lengths) - lengths
        # each site's index into the left and right rows: its chain's first
        # offset's, then one on per site
        site = np.arange(first[-1] + lengths[-1])
        column = m_first - m0
        left = ((column + left_rows[lo:hi, None]).ravel() - first).repeat(lengths)
        left += site
        right = ((column + right_rows).ravel() - first).repeat(lengths)
        right += site
        diag = (eta_l[left] + eta_r[right]) + charging[left]
        hop = hop_l[left[:-1]] * hop_r[right[:-1]]
        hop[first[1:] - 1] = 0.0  # out of each chain's last site, a window edge too
        weight = np.exp(logw_l[lo:hi, None] + logw_r - log_norm) * amp_l[lo:hi, None] * amp_r
        at_sz_l0 = first - m_first.ravel()
        yield ChainBatch(
            s_l=s_l[lo:hi].repeat(s_r.size), s_r=s_r[None].repeat(hi - lo, axis=0).ravel(),
            weight=weight.ravel(), a=a_row[left], b=b_row[right], diag=diag, hop=hop,
            first=first, start=at_sz_l0 + n_l, end=at_sz_l0 + n_lp,
        )


def _charge_labels(source, target):
    """Both charge states as pairs of ints; a label that is not an integer
    is a ``ParameterError``."""
    try:
        if all(int(label) == label for label in (*source, *target)):
            return (int(source[0]), int(source[1])), (int(target[0]), int(target[1]))
    except (OverflowError, ValueError):  # inf or nan
        pass
    raise ParameterError(f"element {list(source)} -> {list(target)}: charge "
                         f"labels must be integers")


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


def _quotient(a: float, b: float):
    """``x = a / b`` and the remainder ``a / b - x``, rounded (a unit off at
    most, below the normal range): Dekker's exact product (Numer. Math. 18,
    224 (1971)) on the mantissas, where no split overflows or underflows."""
    x = a / b
    (ma, ea), (mb, eb) = math.frexp(a), math.frexp(b)
    m = math.ldexp(x, eb - ea)  # about ma / mb: x scaled by a power of two
    mh, bh = (v * 134217729.0 - (v * 134217729.0 - v) for v in (m, mb))  # Veltkamp
    p = m * mb
    error = ((mh * bh - p) + mh * (mb - bh) + (m - mh) * bh) + (m - mh) * (mb - bh)
    return x, math.ldexp(((ma - p) - error) / mb, ea - eb)


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
    x, remainder = _quotient(2.0 * abs(t), twice)
    order = _chebyshev_order(x)
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

    A charge-violating element has no chains, so it is exactly 0.  Each
    chunk of chains is propagated by one Chebyshev recursion, and its
    weighted chain elements are added by one dot product.

    Raises ``ParameterError`` for an odd or too small ``n_spins``, a time
    that is not finite or a charge label that is not an integer, and
    ``NormalPhaseError`` for a normal-phase layer, before any chain is built;
    ``NumericalError`` where ``|t| R`` needs an order above ``_ORDER_MAX``.
    """
    (element, value), = _element_sums(params, n_spins, t, [(source, target)], gaps,
                                      lambda chunk: _weighted_elements(chunk, t)).items()
    return TransitionElement(*element, t, value)


def _element_sums(params: JunctionParams, n_spins: int, t: float, elements, gaps,
                  term) -> dict:
    """``{(source, target): sum of term(chunk)}`` over each element's
    ``chain_batches`` chunks, in order, with N, t and the charge labels
    checked and the gaps resolved once, before any chain is built."""
    check_spin_count(n_spins)
    require_finite(t=t)
    elements = [_charge_labels(source, target) for source, target in elements]
    gaps = _resolve_gaps(params, gaps)
    return {element: sum(map(term, chain_batches(params, n_spins, *element, t, gaps)), 0j)
            for element in elements}


def _weighted_elements(chunk: ChainBatch, t: float) -> complex:
    return complex(np.dot(chunk.weight, _chain_elements(chunk, t)))


# charge window of the circle comparator, whose leak bound must stay below 1e-12
_CIRCLE_N_MAX = 24


def circle_element(params: JunctionParams, source, target, t: float,
                   gaps=None) -> complex:
    """Large-N prediction for a charge-transfer element: the relative
    coordinate ``(n_L - n_R) / 2`` on the circle with Josephson coupling
    ``2 lambda c_L c_R``.  It is an integer for an even total charge and a
    half-integer for an odd one; a half-integer charge ``n`` with offset
    ``n_g`` is the integer charge ``n - 1/2`` with offset ``n_g - 1/2``, so
    both use the integer grid.  The source column's leak bound out of the
    window ``|n| <= _CIRCLE_N_MAX`` above 1e-12 is a ``TruncationError``; a
    relative charge outside it is a ``ParameterError``, and so are a time
    that is not finite and a charge label that is not an integer."""
    require_finite(t=t)
    source, target = _charge_labels(source, target)
    if sum(source) != sum(target):
        return 0j
    twice_in, twice_out = source[0] - source[1], target[0] - target[1]
    if max(abs(twice_in), abs(twice_out)) > 2 * _CIRCLE_N_MAX:
        raise ParameterError(
            f"element {list(source)} -> {list(target)}: the circle comparator "
            f"needs relative charges (nL - nR)/2 with |n| <= {_CIRCLE_N_MAX}, "
            f"got nL - nR = {twice_in} -> {twice_out}")
    gl, gr = _resolve_gaps(params, gaps)
    shift = 0.0 if sum(source) % 2 == 0 else 0.5
    circuit = CircuitParams(params.e_c, josephson_energy(params.lam, gl.delta, gr.delta),
                            params.n_g - shift)
    trunc = ChargeBasisTruncation(_CIRCLE_N_MAX)
    u, leak = _evolution(circuit, trunc, t)
    col = trunc.index_of(twice_in / 2.0 - shift)
    if leak[col] > 1e-12:
        raise TruncationError(f"circle comparator not converged at n_max={_CIRCLE_N_MAX}: "
                              f"the window may move the element by up to {leak[col]:.3e}")
    return complex(u[trunc.index_of(twice_out / 2.0 - shift), col])


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
        non_increasing = all(b <= a * (1 + 1e-12) for a, b in zip(tail, tail[1:]))
        ratio = errors[-1] / errors[0] if errors and errors[0] > 0 else 0.0
        rows.append(MesoCompareRow(
            source=tuple(source), target=tuple(target), circle_value=circle_value,
            finite_values=tuple(finite), abs_errors=tuple(errors),
            non_increasing_after_first=non_increasing, final_over_initial=ratio,
        ))
    return rows


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

    The chains come in the windowed chunks of ``evolution_element``, and
    the shared chain recursion runs once per chunk.  A window leaves out
    only paths of at least ``2 w + 2 + |n_L' - n_L|`` hops, so it moves
    no term of a lower order.  The arguments are checked as in
    ``evolution_element``, and a negative order is a ``ParameterError``.
    """
    _check_order(order)
    return _element_sums(params, n_spins, t, elements, gaps,
                         lambda chunk: _dyson_terms(chunk, t, order))


def dyson_junction_defect(params: JunctionParams, n_spins: int, t: float,
                          order: int, elements, gaps=None):
    """Per-element deviation |exact - D_K U_0| together with the factorial
    bound (2 lambda)^{K+1} t^{K+1} / (K+1)! that holds uniformly in N.

    Each element's chains are built once: every chunk is propagated
    exactly, as in ``evolution_element``, and its Dyson terms are taken as
    in ``dyson_junction``.  It raises as ``dyson_junction`` does."""
    _check_order(order)
    deviations = _element_sums(
        params, n_spins, t, elements, gaps,
        lambda chunk: _weighted_elements(chunk, t) - _dyson_terms(chunk, t, order))
    return ({element: abs(deviation) for element, deviation in deviations.items()},
            _dyson_bound(order, 2.0 * abs(params.lam), abs(t)))
