"""Exact finite-size correlation functions of the collective fluctuation
operators of a single superconducting layer, and their large-N limits.

In the doubled (purified thermal) representation the relevant operators are
the excitation counter ``p`` (no rescaling) and the ladder pair
``E_± = S_± (x) 1 / (c N)`` with ``c`` the gap modulus.  They satisfy
``[p, E_±] = ±E_±``, so every word

    prod_j  exp(i alpha_j p) (E_-)^{n_j} (E_+)^{m_j}

can be evaluated on the thermal vacuum by (i) pulling all the ``p``
exponentials to the right, which is an exact operator identity producing a
pure phase, and (ii) walking the remaining ladder word through each
``(s, s_z)`` sector of the pruned thermal table.  The walk costs
O(support * word length), and the support grows about linearly in N
(35 N entries at N = 16384), which keeps 10^5-spin sweeps cheap.

The large-N values of these words are the circle-algebra matrix elements

    delta_{m,n} * exp(i sum_j sum_{k<=j} alpha_k (m_j - n_j)),

exposed here as ``mesoscopic_prediction`` so convergence can be measured.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NormalPhaseError, ParameterError, ParityError
from .fitting import PowerLawFit, fit_power_law
from .gap import GapSolution
from .sectors import ModelParams, boltzmann_table

__all__ = [
    "WordFactor",
    "FluctuationWord",
    "MesoscopicPrediction",
    "mesoscopic_prediction",
    "correlation_finite_n",
    "convergence_sweep",
    "ConvergenceResult",
    "single_layer_evolution_element",
    "w_expectation",
    "pair_expectation",
]


@dataclass(frozen=True)
class WordFactor:
    """One factor ``exp(i alpha p) (E_-)^n (E_+)^m`` of a fluctuation word.

    Inside a factor the raising block ``(E_+)^m`` stands rightmost and is
    applied first.
    """

    alpha: float
    n: int
    m: int

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise ParameterError("ladder powers must be non-negative")


@dataclass(frozen=True)
class FluctuationWord:
    """Ordered product of word factors; ``factors[0]`` is the leftmost one.

    The empty word is the identity.
    """

    factors: tuple

    @classmethod
    def from_triples(cls, triples) -> "FluctuationWord":
        return cls(tuple(WordFactor(float(a), int(n), int(m)) for a, n, m in triples))

    @property
    def total_n(self) -> int:
        return sum(f.n for f in self.factors)

    @property
    def total_m(self) -> int:
        return sum(f.m for f in self.factors)

    def phase(self) -> float:
        """Exact phase produced by commuting all ``exp(i alpha p)`` factors to
        the right: ``sum_j (alpha_1 + ... + alpha_j) (m_j - n_j)``."""
        acc = 0.0
        running = 0.0
        for f in self.factors:
            running += f.alpha
            acc += running * (f.m - f.n)
        return acc

    def to_triples(self):
        return [[f.alpha, f.n, f.m] for f in self.factors]


@dataclass(frozen=True)
class MesoscopicPrediction:
    """Large-N value of a fluctuation word: zero unless the raising and
    lowering powers balance, a pure phase when they do."""

    value: complex


def mesoscopic_prediction(word: FluctuationWord) -> MesoscopicPrediction:
    if word.total_m != word.total_n:
        return MesoscopicPrediction(0j)
    return MesoscopicPrediction(cmath.exp(1j * word.phase()))


# Sector tables are immutable and reused across words and sweeps; the
# least recently used one goes once this many are held (a table holds
# about 35 N entries of 24 bytes).
_TABLE_CACHE_SIZE = 8


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _cached_table(epsilon: float, t_c: float, beta: float, n_spins: int):
    return boltzmann_table(ModelParams(epsilon, t_c, beta), n_spins)


def _flat_table(params: ModelParams, n_spins: int):
    return _cached_table(params.epsilon, params.t_c, params.beta, n_spins).flat()


def _require_gap(gap: GapSolution) -> float:
    if gap.c <= 0.0:
        raise NormalPhaseError(
            "gap is zero: fluctuation operators are undefined in the normal phase"
        )
    return gap.c


def _ladder_walk(s: np.ndarray, sz: np.ndarray, word: FluctuationWord):
    """Vectorized ladder walk of a word over all sectors, rightmost factor
    first.  Returns ``(log_amp, alive)``: the accumulated log of the ladder
    coefficients along the walk, and a mask of walks that never left
    ``[-s, s]``.
    """
    cur = sz.copy()
    log_amp = np.zeros_like(cur)
    alive = np.ones(cur.shape, dtype=bool)
    s2 = s * (s + 1.0)
    for factor in reversed(word.factors):
        for _ in range(factor.m):
            c2 = s2 - cur * (cur + 1.0)
            alive &= c2 > 0.0
            log_amp += 0.5 * np.log(np.where(c2 > 0.0, c2, 1.0))
            cur += 1.0
        for _ in range(factor.n):
            c2 = s2 - cur * (cur - 1.0)
            alive &= c2 > 0.0
            log_amp += 0.5 * np.log(np.where(c2 > 0.0, c2, 1.0))
            cur -= 1.0
    return log_amp, alive


def correlation_finite_n(params: ModelParams, n_spins: int, word: FluctuationWord,
                         gap: GapSolution, force_numeric: bool = False) -> complex:
    """Exact thermal-vacuum expectation of a fluctuation word at size N.

    Unbalanced words (total raising != total lowering) vanish identically by
    orthogonality of the magnetic quantum numbers; the zero is asserted
    rather than computed so that floating-point dust is never reported as
    signal.  ``force_numeric`` overrides this for oracle tests (the sector
    walk then returns the same exact zero, just summed numerically).
    """
    if n_spins % 2 != 0:
        raise ParityError(f"n_spins must be even, got {n_spins}")
    c = _require_gap(gap)

    total = word.total_m + word.total_n
    if total == 0:
        # p annihilates the thermal vacuum, so pure-phase words are exactly 1
        return 1.0 + 0.0j
    if word.total_m != word.total_n and not force_numeric:
        return 0.0j

    s, sz, log_w = _flat_table(params, n_spins)
    log_amp, alive = _ladder_walk(s, sz, word)
    if word.total_m != word.total_n:
        # open walks never return to the diagonal
        return 0.0j
    log_scale = total * math.log(c * n_spins)
    terms = np.where(alive, np.exp(log_w + log_amp - log_scale), 0.0)
    return cmath.exp(1j * word.phase()) * float(np.sum(terms))


@dataclass(frozen=True)
class ConvergenceResult:
    """Finite-size sweep of one word against its large-N value.

    ``discarded_bound`` bounds the error that sector pruning may add to any
    of ``values``: twice the largest dropped mass over the sweep (the kept
    weights are renormalized to one) times ``(1/c)^k``, the largest
    modulus of a k-step ladder walk, each step being at most
    ``(N + 1) / 2`` over ``c N``.  It is 0 when the values are exact
    without a sector sum.
    """

    word: FluctuationWord
    prediction: complex
    n_values: tuple
    values: tuple
    abs_errors: tuple
    fit: PowerLawFit | None
    discarded_bound: float


def convergence_sweep(params: ModelParams, word: FluctuationWord, gap: GapSolution,
                      n_list) -> ConvergenceResult:
    """Evaluate a word over a list of sizes and fit the decay of the error
    toward the large-N prediction.  The fit needs at least 4 sizes with a
    strictly positive error; identically-zero errors (off-diagonal or pure
    phase words) leave ``fit`` as None.
    """
    n_list = [int(n) for n in n_list]
    if any(n % 2 for n in n_list):
        raise ParityError("all sweep sizes must be even")
    target = mesoscopic_prediction(word).value

    steps = word.total_m + word.total_n
    walks = steps > 0 and word.total_m == word.total_n
    values, dropped = [], 0.0
    for n in n_list:
        values.append(correlation_finite_n(params, n, word, gap))
        if walks:  # the table the walk just used, still cached
            table = _cached_table(params.epsilon, params.t_c, params.beta, n)
            dropped = max(dropped, table.discarded_bound)
    bound = 2.0 * dropped * _require_gap(gap) ** -steps if walks else 0.0

    errors = [abs(v - target) for v in values]
    fit = None
    positive = [e for e in errors if e > 0]
    if len(positive) >= 4:
        fit = fit_power_law(
            [n for n, e in zip(n_list, errors) if e > 0], positive
        )
    return ConvergenceResult(
        word=word, prediction=target, n_values=tuple(n_list),
        values=tuple(values), abs_errors=tuple(errors), fit=fit, discarded_bound=bound,
    )


def single_layer_evolution_element(params: ModelParams, n_spins: int, n: int,
                                   m: int, t: float, gap: GapSolution) -> complex:
    """Exact matrix element ``<n| U(t) |m>`` between m-excitation vectors of
    a single layer, with U(t) the doubled-space evolution (commutant
    renormalized, chemical-potential term included).

    The generator commutes with the excitation counter, so ``n != m``
    vanishes identically.  For ``n = m`` the element is the weighted sector
    sum of squared ladder amplitudes dephased by the spectral gaps, times
    the chemical-potential phase ``exp(-2 i mu t m)``.
    """
    if n_spins % 2 != 0:
        raise ParityError(f"n_spins must be even, got {n_spins}")
    if n < 0 or m < 0:
        raise ParameterError("excitation numbers must be non-negative")
    c = _require_gap(gap)
    if n != m:
        return 0.0j
    if m == 0:
        return 1.0 + 0.0j  # the thermal vacuum is invariant

    s, sz, log_w = _flat_table(params, n_spins)
    word = FluctuationWord.from_triples([(0.0, 0, m)])
    log_amp, alive = _ladder_walk(s, sz, word)

    # eta(s, sz+m) - eta(s, sz), directly from the spectrum formula
    d_eta = (-2.0 * params.epsilon * m
             + (2.0 * params.t_c / n_spins)
             * ((sz + m) * (sz + m - 1.0) - sz * (sz - 1.0)))

    log_scale = 2.0 * m * math.log(c * n_spins)
    amps = np.where(alive, np.exp(log_w + 2.0 * log_amp - log_scale), 0.0)
    total = complex(np.sum(amps * np.exp(-1j * t * d_eta)))
    return cmath.exp(-2j * params.mu * t * m) * total


def w_expectation(params: ModelParams, n_spins: int, m: int, t: float) -> complex:
    """Thermal expectation of the m-th power of the dephasing unitary
    ``W(t) = exp(-i t K)``, ``K = -2 eps + (4 T_c / N) S_z``, which is the
    exact residue of conjugating ``E_+`` with the free evolution:
    ``E_+(t) = E_+ W(t)``.

    Evaluates to ``exp(2 i m eps t) < exp(-4 i m T_c t S_z / N) >`` as an
    exact sector sum.  In the superconducting phase ``<S_z>/N`` approaches
    ``eps / (2 T_c)``, so the expectation approaches 1.
    """
    if n_spins % 2 != 0:
        raise ParityError(f"n_spins must be even, got {n_spins}")
    if m == 0 or t == 0.0:
        return 1.0 + 0.0j
    _, sz, log_w = _flat_table(params, n_spins)
    phases = np.exp(-4j * m * params.t_c * t * sz / n_spins)
    total = complex(np.sum(np.exp(log_w) * phases))
    return cmath.exp(2j * m * params.epsilon * t) * total


def pair_expectation(params: ModelParams, n_spins: int) -> float:
    """Exact ``<S_+ S_->/N^2``; its large-N limit is the squared gap
    modulus (the phase average wipes out everything but |<sigma_+>|^2)."""
    if n_spins % 2 != 0:
        raise ParityError(f"n_spins must be even, got {n_spins}")
    s, sz, log_w = _flat_table(params, n_spins)
    pair = s * (s + 1.0) - sz * (sz - 1.0)
    # pair >= 0; accumulate in the log domain against the weights
    safe = np.where(pair > 0.0, pair, 1.0)
    terms = np.where(pair > 0.0,
                     np.exp(log_w + np.log(safe) - 2.0 * math.log(n_spins)), 0.0)
    return float(np.sum(terms))
