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
exact sums over chains of small tridiagonal problems, built in one batch
per left table entry ``(s_L, sz_L0)``.  A batch's chains are laid end to
end (a chain's last hop is exactly zero, so the solver splits them apart
again) and solved in packs of whole chains, one ``eigh_tridiagonal`` per
pack of at most 128 sites (a longer chain is a pack of its own).  Nothing
global is ever materialized: a pack's eigenvectors take at most 128^2
doubles.

Energy scales: hopping enters as ``lambda / N^2`` (tunneling is a surface
effect), and the large-N coupling of the relative phase is
``E_J = 2 lambda c_L c_R`` with ``c = Delta`` per layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import ChargeBasisTruncation, CircuitParams, propagator
from .errors import NormalPhaseError, ParameterError, TruncationError, require_finite
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


@dataclass(frozen=True)
class ChainBatch:
    """The fixed-charge chains of one left table entry ``(s_l, sz_l0)``
    against every contributing right entry ``(s_r, sz_r0)``, laid end to end.

    Site ``i`` holds the system labels ``(a[i], b[i])``; chain ``c`` starts at
    site ``first[c]``, ``a`` ascending and ``a + b`` fixed.  ``hop[i]`` joins
    sites ``i`` and ``i + 1``, exactly zero out of a chain's last site (there
    ``a = s_l`` or ``b = -s_r``).  ``start`` and ``end`` are the sites of the
    source and target labels, and ``weight`` is the thermal weight of the
    entry pair times the ladder amplitudes and normalizations."""

    s_l: float
    s_r: np.ndarray
    weight: np.ndarray
    a: np.ndarray
    b: np.ndarray
    diag: np.ndarray
    hop: np.ndarray
    first: np.ndarray
    start: np.ndarray
    end: np.ndarray


def chain_batches(params: JunctionParams, n_spins: int, source, target, gaps=None):
    """Yield one ``ChainBatch`` per left table entry that both charge states
    reach, chains end to end.  Diagonal: layer spectra relative to the
    commutant labels plus the charging term; hops: the tunneling ladder
    products scaled by lambda / N^2.  Total charge is conserved exactly: an
    element with ``n_L + n_R != n_L' + n_R'`` has no chain and yields none."""
    (n_l, n_r), (n_lp, n_rp) = source, target
    if n_l + n_r != n_lp + n_rp:
        return
    gl, gr = _resolve_gaps(params, gaps)
    pl, pr = params.left, params.right
    log_norm = ((abs(n_l) + abs(n_lp)) * math.log(gl.delta * n_spins)
                + (abs(n_r) + abs(n_rp)) * math.log(gr.delta * n_spins))

    s_r, sz_r0, logw_r = thermal_table(pr, n_spins).flat()
    amp_r = ladder_coefficient(s_r, sz_r0, n_r) * ladder_coefficient(s_r, sz_r0, n_rp)
    keep = amp_r != 0.0
    if not keep.any():
        return
    s_r, sz_r0, logw_r, amp_r = s_r[keep], sz_r0[keep], logw_r[keep], amp_r[keep]
    for s_l, sz_l0, logw_l in zip(*thermal_table(pl, n_spins).flat()):
        amp_l = (ladder_coefficient(s_l, sz_l0, n_l)
                 * ladder_coefficient(s_l, sz_l0, n_lp))
        if amp_l == 0.0:
            continue
        charge = sz_l0 + n_l + sz_r0 + n_r
        a_lo = np.maximum(-s_l, charge - s_r)
        length = np.rint(np.minimum(s_l, charge + s_r) - a_lo).astype(int) + 1
        first = np.cumsum(length) - length
        chain = np.repeat(np.arange(length.size), length)  # the chain of each site
        a = a_lo[chain] + (np.arange(chain.size) - first[chain])
        b = charge[chain] - a
        site_s_r, site_sz_r0 = s_r[chain], sz_r0[chain]
        diag = ((eta(pl, n_spins, s_l, a) - eta(pl, n_spins, s_l, sz_l0))
                + (eta(pr, n_spins, site_s_r, b) - eta(pr, n_spins, site_s_r, site_sz_r0))
                + params.e_c * (0.5 * ((a - sz_l0) - (b - site_sz_r0)) - params.n_g) ** 2)
        hop = (params.lam / n_spins**2 * ladder_coefficient(s_l, a[:-1], 1)
               * ladder_coefficient(site_s_r[:-1], b[:-1], -1))
        yield ChainBatch(
            s_l=s_l, s_r=s_r, weight=np.exp(logw_l + logw_r - log_norm) * amp_l * amp_r,
            a=a, b=b, diag=diag, hop=hop, first=first,
            start=first + np.rint(sz_l0 + n_l - a_lo).astype(int),
            end=first + np.rint(sz_l0 + n_lp - a_lo).astype(int),
        )


def _charge_labels(source, target):
    return (int(source[0]), int(source[1])), (int(target[0]), int(target[1]))


# most sites of one tridiagonal solve, unless a single chain is longer
_PACK_SITES = 128


def eigh_tridiagonal(d, e):
    """Eigenvalues and eigenvectors of the real symmetric tridiagonal matrix
    with diagonal ``d`` and off-diagonal ``e``: scipy's solver, imported on
    the first call, so that ``import qfluct`` loads numpy only."""
    from scipy.linalg import eigh_tridiagonal as solve
    return solve(d, e)


def _chain_elements(batch: ChainBatch, t: float) -> np.ndarray:
    """``<end| exp(-i t H_c) |start>`` of every chain ``c`` of a batch.

    Each chain's last hop is exactly zero, so the tridiagonal solver splits
    the batch's sites back into its chains and every eigenvector lives on one
    chain.  The sites are cut at chain boundaries into packs of at most
    ``_PACK_SITES`` sites, one solve each, so a pack's eigenvectors take at
    most 128^2 doubles (a chain longer than that, possible from N = 128 on,
    is a pack of its own)."""
    stops = np.append(batch.first[1:], batch.diag.size)  # chain c ends before stops[c]
    values = np.empty(stops.size, dtype=complex)
    lo = 0
    while lo < stops.size:
        hi = max(lo + 1, int(np.searchsorted(stops, batch.first[lo] + _PACK_SITES, "right")))
        first, stop = batch.first[lo], stops[hi - 1]
        evals, vecs = eigh_tridiagonal(batch.diag[first:stop], batch.hop[first:stop - 1])
        values[lo:hi] = ((vecs[batch.end[lo:hi] - first] * vecs[batch.start[lo:hi] - first])
                         @ np.exp(-1j * t * evals))
        lo = hi
    return values


def evolution_element(params: JunctionParams, n_spins: int, source, target,
                      t: float, gaps=None) -> TransitionElement:
    """Exact propagator matrix element between charge-transfer states,
    ``<target| exp(-i t H) |source>`` with the full block Hamiltonian.

    A charge-violating element has no chains (``chain_batches`` yields
    none), so it is exactly 0.  Each batch, one per left table entry, is
    solved in packs of whole chains, at most ``_PACK_SITES`` sites and one
    eigenvector block of at most 128^2 doubles at a time, and its weighted
    chain elements are added by one dot product.
    """
    check_spin_count(n_spins)
    source, target = _charge_labels(source, target)
    total = 0j
    for batch in chain_batches(params, n_spins, source, target, gaps):
        total += complex(np.dot(batch.weight, _chain_elements(batch, t)))
    return TransitionElement(source, target, t, total)


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
    ``|n| <= _CIRCLE_N_MAX`` is a ``ParameterError``."""
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


def dyson_junction(params: JunctionParams, n_spins: int, t: float, order: int,
                   elements, gaps=None) -> dict:
    """Elements of the order-K time-ordered perturbative propagator
    ``D_K(t) U_0(t)``, tunneling as the perturbation.

    Each chain carries its Dyson terms from the source to the target
    site: the shared chain recursion runs once per batch (one per left
    table entry), all target sites seeded in one column (the chains are
    disjoint), and ``U_0`` contributes the free and charging phase of the
    source.
    """
    check_spin_count(n_spins)
    if order < 0:
        raise ParameterError("order must be >= 0")
    gaps = _resolve_gaps(params, gaps)

    results = {}
    for source, target in elements:
        source, target = _charge_labels(source, target)
        total = 0j
        for batch in chain_batches(params, n_spins, source, target, gaps):
            u0 = np.exp(-1j * t * batch.diag[batch.start])
            seed = np.isin(np.arange(batch.diag.size), batch.end)[:, None]
            terms = chain_dyson(batch.diag, batch.hop, batch.start, seed, t, order)
            total += complex(np.sum(batch.weight * u0 * terms[:, 0]))
        results[(source, target)] = total
    return results


def dyson_junction_defect(params: JunctionParams, n_spins: int, t: float,
                          order: int, elements, gaps=None):
    """Per-element deviation |exact - D_K U_0| together with the factorial
    bound (2 lambda)^{K+1} t^{K+1} / (K+1)! that holds uniformly in N."""
    gaps = _resolve_gaps(params, gaps)
    approx = dyson_junction(params, n_spins, t, order, elements, gaps=gaps)
    deviations = {}
    for source, target in elements:
        key = (tuple(source), tuple(target))
        exact = evolution_element(params, n_spins, source, target, t, gaps=gaps).value
        deviations[key] = abs(exact - approx[key])
    return deviations, _dyson_bound(order, 2.0 * abs(params.lam), abs(t))
