"""Two superconducting layers coupled by Cooper-pair tunneling, resolved in
the doubled (thermal) representation, and its convergence to the relative
circle dynamics.

The doubled two-layer Hilbert space splits into invariant blocks labeled by
both layers' spin sectors and the frozen commutant magnetic labels
``(s_L, sz_L0, s_R, sz_R0)``.  Inside a block the free part and the charging
term are diagonal on the grid of system labels ``(a, b)`` while tunneling
hops ``(a, b) -> (a+1, b-1)``, so the block further decomposes into
tridiagonal chains of fixed ``a + b`` (total charge is conserved).  Matrix
elements of the propagator between charge-transfer states are therefore
exact sums over chains of small tridiagonal problems, built in one batch
per left sector; nothing global is ever materialized.

Energy scales: hopping enters as ``lambda / N^2`` (tunneling is a surface
effect), and the large-N coupling of the relative phase is
``E_J = 2 lambda c_L c_R`` with ``c = Delta`` per layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .circle import ChargeBasisTruncation, CircuitParams, propagator
from .correlators import FluctuationWord, _flat_table, correlation_finite_n
from .errors import (NormalPhaseError, ParameterError, ParityError, TruncationError,
                     require_finite)
from .gap import josephson_energy, solve_gap
from .quadrature import chain_dyson
from .sectors import ModelParams, ladder_coefficient

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
    "two_layer_correlator",
]


@dataclass(frozen=True)
class JunctionParams:
    """Junction parameters: the two layers (their beta is overridden by the
    common junction temperature), tunneling coupling, charging energy and
    offset charge."""

    left: ModelParams
    right: ModelParams
    lam: float
    e_c: float
    n_g: float
    beta: float

    def __post_init__(self):
        require_finite(lam=self.lam, e_c=self.e_c, n_g=self.n_g, beta=self.beta)
        if self.beta <= 0:
            raise ParameterError(f"beta must be positive, got {self.beta}")
        if self.e_c < 0:
            raise ParameterError("e_c must be non-negative")

    def layer_params(self):
        return (replace(self.left, beta=self.beta),
                replace(self.right, beta=self.beta))


def layer_gaps(params: JunctionParams):
    """Solve both layers' gap equations at the common temperature; both must
    be superconducting for any fluctuation dynamics to exist."""
    pl, pr = params.layer_params()
    gl = solve_gap(pl.epsilon, pl.t_c, pl.beta)
    gr = solve_gap(pr.epsilon, pr.t_c, pr.beta)
    if gl.delta <= 0 or gr.delta <= 0:
        raise NormalPhaseError(
            f"both layers must be superconducting (Delta_L={gl.delta}, "
            f"Delta_R={gr.delta})"
        )
    return gl, gr


def _resolve_gaps(params: JunctionParams, gaps):
    if gaps is None:
        return layer_gaps(params)
    gl, gr = gaps
    if gl.delta <= 0 or gr.delta <= 0:
        raise NormalPhaseError("supplied gap solutions are not superconducting")
    return gl, gr


def _eta(layer: ModelParams, n_spins: int, s: float, a):
    a = np.asarray(a, dtype=float)
    return (-2.0 * layer.epsilon * a
            - (2.0 * layer.t_c / n_spins) * (s * (s + 1.0) - a * (a - 1.0)))


@dataclass(frozen=True)
class TransitionElement:
    source: tuple
    target: tuple
    t: float
    value: complex


@dataclass(frozen=True)
class ChainBatch:
    """The fixed-charge chains of one left sector ``s_l`` against every
    contributing right sector ``s_r``, padded to a common length.

    Chain ``c`` holds the system labels ``(a[c, j], b[c, j])`` for
    ``j < length[c]``, ``a`` ascending and ``a + b`` fixed; ``hop[c, j]``
    joins positions ``j`` and ``j + 1`` and is zero past the chain's end.
    ``start`` and ``end`` are the positions of the source and target
    labels, and ``weight`` is the thermal weight of the sector pair times
    the ladder amplitudes and normalizations of the two charge states."""

    s_l: float
    s_r: np.ndarray
    weight: np.ndarray
    a: np.ndarray
    b: np.ndarray
    diag: np.ndarray
    hop: np.ndarray
    length: np.ndarray
    start: np.ndarray
    end: np.ndarray


def chain_batches(params: JunctionParams, n_spins: int, source, target, gaps=None):
    """Yield one ``ChainBatch`` per left sector that both charge states
    reach.  Diagonal: layer spectra relative to the commutant labels plus
    the charging term; hops: the tunneling ladder products scaled by
    lambda / N^2."""
    gl, gr = _resolve_gaps(params, gaps)
    pl, pr = params.layer_params()
    (n_l, n_r), (n_lp, n_rp) = source, target
    log_norm = ((abs(n_l) + abs(n_lp)) * math.log(gl.c * n_spins)
                + (abs(n_r) + abs(n_rp)) * math.log(gr.c * n_spins))

    s_r, sz_r0, logw_r = _flat_table(pr, n_spins)
    amp_r = ladder_coefficient(s_r, sz_r0, n_r) * ladder_coefficient(s_r, sz_r0, n_rp)
    keep = amp_r != 0.0
    if not keep.any():
        return
    s_r, sz_r0, logw_r, amp_r = s_r[keep], sz_r0[keep], logw_r[keep], amp_r[keep]
    col_s_r, col_sz_r0 = s_r[:, None], sz_r0[:, None]
    for s_l, sz_l0, logw_l in zip(*_flat_table(pl, n_spins)):
        amp_l = (ladder_coefficient(s_l, sz_l0, n_l)
                 * ladder_coefficient(s_l, sz_l0, n_lp))
        if amp_l == 0.0:
            continue
        charge = sz_l0 + n_l + sz_r0 + n_r
        a_lo = np.maximum(-s_l, charge - s_r)
        length = np.rint(np.minimum(s_l, charge + s_r) - a_lo).astype(int) + 1
        a = a_lo[:, None] + np.arange(length.max())
        b = charge[:, None] - a
        diag = ((_eta(pl, n_spins, s_l, a) - _eta(pl, n_spins, s_l, sz_l0))
                + (_eta(pr, n_spins, col_s_r, b) - _eta(pr, n_spins, col_s_r, col_sz_r0))
                + params.e_c * (0.5 * ((a - sz_l0) - (b - col_sz_r0)) - params.n_g) ** 2)
        hop = (params.lam / n_spins**2 * ladder_coefficient(s_l, a[:, :-1], 1)
               * ladder_coefficient(col_s_r, b[:, :-1], -1))
        yield ChainBatch(
            s_l=s_l, s_r=s_r, weight=np.exp(logw_l + logw_r - log_norm) * amp_l * amp_r,
            a=a, b=b, diag=diag, hop=hop, length=length,
            start=np.rint(sz_l0 + n_l - a_lo).astype(int),
            end=np.rint(sz_l0 + n_lp - a_lo).astype(int),
        )


def _charge_labels(source, target):
    return (int(source[0]), int(source[1])), (int(target[0]), int(target[1]))


def evolution_element(params: JunctionParams, n_spins: int, source, target,
                      t: float, gaps=None) -> TransitionElement:
    """Exact propagator matrix element between charge-transfer states,
    ``<target| exp(-i t H) |source>`` with the full block Hamiltonian.

    Total charge is conserved exactly: elements with
    ``n_L + n_R != n_L' + n_R'`` vanish identically and are returned as 0
    without touching the blocks.
    """
    if n_spins % 2 != 0:
        raise ParityError(f"n_spins must be even, got {n_spins}")
    source, target = _charge_labels(source, target)
    if sum(source) != sum(target):
        return TransitionElement(source, target, t, 0j)

    total = 0j
    for batch in chain_batches(params, n_spins, source, target, gaps):
        for c, n in enumerate(batch.length):
            if n > 1:
                evals, vecs = eigh_tridiagonal(batch.diag[c, :n], batch.hop[c, :n - 1])
            else:
                evals, vecs = batch.diag[c, :1], np.ones((1, 1))
            prop = (vecs[batch.end[c]] * np.exp(-1j * t * evals)) @ vecs[batch.start[c]]
            total += complex(batch.weight[c] * prop)
    return TransitionElement(source, target, t, total)


def circle_element(params: JunctionParams, source, target, t: float,
                   gaps=None, n_max: int = 24) -> complex:
    """Large-N prediction for a charge-transfer element: the relative
    coordinate lives on an integer or half-integer charge grid selected by
    the parity of the conserved total charge, with Josephson coupling
    ``2 lambda c_L c_R``.  The truncation is doubled once and must agree to
    1e-12."""
    if sum(source) != sum(target):
        return 0j
    gl, gr = _resolve_gaps(params, gaps)
    offset = 0.0 if sum(source) % 2 == 0 else 0.5
    n_in = (source[0] - source[1]) / 2.0
    n_out = (target[0] - target[1]) / 2.0
    circuit = CircuitParams(
        e_c=params.e_c, e_j=josephson_energy(params.lam, gl.delta, gr.delta),
        n_g=params.n_g, charge_offset=offset,
    )

    def one(n_max_):
        trunc = ChargeBasisTruncation(n_max_, offset)
        u = propagator(circuit, trunc, t)
        return complex(u[trunc.index_of(n_out), trunc.index_of(n_in)])

    small, big = one(n_max), one(2 * n_max)
    if abs(small - big) > 1e-12:
        raise TruncationError(
            f"circle comparator not converged at n_max={n_max}: "
            f"doubling moved the element by {abs(small - big):.3e}"
        )
    return big


@dataclass(frozen=True)
class MesoCompareRow:
    source: tuple
    target: tuple
    circle_value: complex
    n_values: tuple
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
            n_values=tuple(int(n) for n in n_list), finite_values=tuple(finite),
            abs_errors=tuple(errors), non_increasing_after_first=non_increasing,
            final_over_initial=ratio,
        ))
    return rows


def dyson_junction(params: JunctionParams, n_spins: int, t: float, order: int,
                   elements, gaps=None, tol: float = 1e-10) -> dict:
    """Elements of the order-K time-ordered perturbative propagator
    ``D_K(t) U_0(t)``, tunneling as the perturbation.

    Each chain carries its Dyson terms from the source to the target
    position: the shared chain recursion runs once per left-sector batch,
    and ``U_0`` contributes the free and charging phase of the source.
    """
    if order < 0:
        raise ParameterError("order must be >= 0")
    if n_spins % 2 != 0:
        raise ParityError(f"n_spins must be even, got {n_spins}")
    gaps = _resolve_gaps(params, gaps)

    results = {}
    for source, target in elements:
        source, target = _charge_labels(source, target)
        total = 0j
        if sum(source) == sum(target):
            for batch in chain_batches(params, n_spins, source, target, gaps):
                u0 = np.exp(-1j * t * batch.diag[np.arange(batch.start.size), batch.start])
                terms = chain_dyson(batch.diag, batch.hop, batch.start, batch.end,
                                    t, order, tol=tol)
                total += complex(np.sum(batch.weight * u0 * terms))
        results[(source, target)] = total
    return results


def dyson_junction_defect(params: JunctionParams, n_spins: int, t: float,
                          order: int, elements, gaps=None, tol: float = 1e-10):
    """Per-element deviation |exact - D_K U_0| together with the factorial
    bound (2 lambda)^{K+1} t^{K+1} / (K+1)! that holds uniformly in N."""
    gaps = _resolve_gaps(params, gaps)
    approx = dyson_junction(params, n_spins, t, order, elements, gaps=gaps, tol=tol)
    deviations = {}
    for source, target in elements:
        key = (tuple(source), tuple(target))
        exact = evolution_element(params, n_spins, source, target, t, gaps=gaps).value
        deviations[key] = abs(exact - approx[key])
    bound = ((2.0 * abs(params.lam)) ** (order + 1) * abs(t) ** (order + 1)
             / math.factorial(order + 1))
    return deviations, bound


def two_layer_correlator(params: JunctionParams, n_spins: int,
                         left_word: FluctuationWord, right_word: FluctuationWord,
                         gaps=None) -> complex:
    """Joint thermal expectation of a left-layer word times a right-layer
    word.  The thermal state carries no correlations between the layers, so
    this factorizes exactly into the product of single-layer values."""
    gl, gr = _resolve_gaps(params, gaps)
    pl, pr = params.layer_params()
    return (correlation_finite_n(pl, n_spins, left_word, gl)
            * correlation_finite_n(pr, n_spins, right_word, gr))
