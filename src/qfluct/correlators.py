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
import math
from dataclasses import dataclass

import numpy as np

from .errors import NormalPhaseError, NumericalError, ParameterError, require_finite
from .fitting import MIN_POINTS, PowerLawFit, fit_power_law
from .gap import GapSolution
from .sectors import ModelParams, check_spin_count, eta, thermal_table

__all__ = [
    "WordFactor",
    "FluctuationWord",
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
        require_finite(alpha=self.alpha)
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
        the right: ``sum_j (alpha_1 + ... + alpha_j) (m_j - n_j)``, summed as
        ``sum_j alpha_j (net steps of factors j, j+1, ...)`` so that no
        partial sum of the alphas leaves float range."""
        acc = 0.0
        net = 0
        for f in reversed(self.factors):
            net += f.m - f.n
            if net:  # a balanced tail adds none, even for an alpha past float range
                acc += f.alpha * net
        return acc

    def to_triples(self):
        return [[f.alpha, f.n, f.m] for f in self.factors]


def mesoscopic_prediction(word: FluctuationWord) -> complex:
    """Large-N value of a fluctuation word: zero unless the raising and
    lowering powers balance, a pure phase when they do."""
    if word.total_m != word.total_n:
        return 0j
    return cmath.exp(1j * word.phase())


def _require_gap(gap: GapSolution) -> float:
    if gap.delta <= 0.0:
        raise NormalPhaseError(
            "gap is zero: fluctuation operators are undefined in the normal phase"
        )
    return gap.delta


def _phases(inner, outer: complex):
    """``exp`` of the array of phase arguments ``inner()`` and of ``outer``;
    an argument past the float range (inf or nan) is a ``NumericalError``."""
    with np.errstate(over="ignore", invalid="ignore"):
        inner = inner()
    if not (np.isfinite(inner).all() and cmath.isfinite(outer)):
        raise NumericalError("a phase argument is past the float range: t is too large")
    return np.exp(inner), cmath.exp(outer)


def _ladder_walk(s: np.ndarray, sz: np.ndarray, word: FluctuationWord) -> np.ndarray:
    """Vectorized ladder walk of a word over all sectors, rightmost factor
    first.  Returns the sum of ``log c^2 = log(s(s+1) - cur (cur + step))``
    along each walk: ``-inf`` once the walk leaves ``[-s, s]`` (``c^2 <= 0``),
    so that its term ``exp(...)`` is exactly 0.
    """
    cur = sz.copy()
    log_sq = np.zeros_like(cur)
    s2 = s * (s + 1.0)
    # a walk survives a run of `count` steps in one direction only if
    # count <= 2s, so a longer run kills every walk
    longest_run = 2.0 * np.max(s, initial=0.0)
    with np.errstate(divide="ignore"):
        for factor in reversed(word.factors):
            for count, step in ((factor.m, 1.0), (factor.n, -1.0)):
                if count > longest_run:
                    return np.full_like(cur, -np.inf)
                for _ in range(count):
                    log_sq += np.log(np.maximum(s2 - cur * (cur + step), 0.0))
                    cur += step
    return log_sq


def correlation_finite_n(params: ModelParams, n_spins: int, word: FluctuationWord,
                         gap: GapSolution) -> complex:
    """Exact thermal-vacuum expectation of a fluctuation word at size N.

    The word's shape is its large-N value: unbalanced words (total raising
    != total lowering) vanish identically by orthogonality of the magnetic
    quantum numbers, and pure-phase words are exactly 1 because ``p``
    annihilates the thermal vacuum.  Both are returned without a sector sum,
    so floating-point dust is never reported as signal; any other word is
    its phase times the sector sum of its ladder walk.
    """
    check_spin_count(n_spins)
    c = _require_gap(gap)

    prediction = mesoscopic_prediction(word)
    total = word.total_m + word.total_n
    if prediction == 0 or total == 0:
        return prediction

    s, sz, log_w = thermal_table(params, n_spins).flat()
    walk = _ladder_walk(s, sz, word)
    log_scale = total * math.log(c * n_spins)
    return prediction * float(np.sum(np.exp(log_w + 0.5 * walk - log_scale)))


@dataclass(frozen=True)
class ConvergenceResult:
    """Finite-size sweep of one word against its large-N value.

    ``discarded_bound`` bounds the error that sector pruning may add to any
    of ``values``: twice the largest dropped mass over the sweep (the kept
    weights are renormalized to one) times ``(1/c)^k``, the largest
    modulus of a k-step ladder walk, each step being at most
    ``(N + 1) / 2`` over ``c N``.  It is 0 when the values are exact
    without a sector sum or no entry was dropped, and inf past float range.
    """

    prediction: complex
    n_values: tuple
    values: tuple
    abs_errors: tuple
    fit: PowerLawFit | None
    discarded_bound: float


def convergence_sweep(params: ModelParams, word: FluctuationWord, gap: GapSolution,
                      n_list) -> ConvergenceResult:
    """Evaluate a word over a list of sizes and fit the decay of the error
    toward the large-N prediction.  The fit needs at least ``MIN_POINTS``
    sizes with a strictly positive error; identically-zero errors
    (off-diagonal or pure phase words) leave ``fit`` as None.
    """
    n_list = [int(n) for n in n_list]
    for n in n_list:
        check_spin_count(n)
    target = mesoscopic_prediction(word)

    steps = word.total_m + word.total_n
    walks = steps > 0 and target != 0  # the words correlation_finite_n walks
    values, dropped = [], 0.0
    for n in n_list:
        values.append(correlation_finite_n(params, n, word, gap))
        if walks:  # the table the walk just used, still cached
            dropped = max(dropped, thermal_table(params, n).discarded_bound)
    bound = 0.0  # exactly, when no walk needed a table or no entry was dropped
    if dropped > 0.0:
        try:
            bound = 2.0 * dropped * _require_gap(gap) ** -steps
        except OverflowError:  # (1/c)^steps > 1.8e308 and dropped >= e^-100: > 1e265
            bound = math.inf

    errors = [abs(v - target) for v in values]
    fit = None
    if sum(e > 0 for e in errors) >= MIN_POINTS:
        fit = fit_power_law(n_list, errors)
    return ConvergenceResult(
        prediction=target, n_values=tuple(n_list),
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
    check_spin_count(n_spins)
    require_finite(t=t)
    if n < 0 or m < 0:
        raise ParameterError("excitation numbers must be non-negative")
    c = _require_gap(gap)
    if n != m:
        return 0.0j
    if m == 0:
        return 1.0 + 0.0j  # the thermal vacuum is invariant

    s, sz, log_w = thermal_table(params, n_spins).flat()
    word = FluctuationWord.from_triples([(0.0, 0, m)])
    walk = _ladder_walk(s, sz, word)

    d_eta = eta(params, n_spins, s, sz + m) - eta(params, n_spins, s, sz)

    log_scale = 2.0 * m * math.log(c * n_spins)
    amps = np.exp(log_w + walk - log_scale)
    phases, outer = _phases(lambda: -1j * t * d_eta, -2j * params.mu * t * m)
    return outer * complex(np.sum(amps * phases))


def w_expectation(params: ModelParams, n_spins: int, m: int, t: float) -> complex:
    """Thermal expectation of the m-th power of the dephasing unitary
    ``W(t) = exp(-i t K)``, ``K = -2 eps + (4 T_c / N) S_z``, which is the
    exact residue of conjugating ``E_+`` with the free evolution:
    ``E_+(t) = E_+ W(t)``.

    Evaluates to ``exp(2 i m eps t) < exp(-4 i m T_c t S_z / N) >`` as an
    exact sector sum.  In the superconducting phase ``<S_z>/N`` approaches
    ``eps / (2 T_c)``, so the expectation approaches 1.
    """
    check_spin_count(n_spins)
    require_finite(t=t)
    if m == 0 or t == 0.0:
        return 1.0 + 0.0j
    _, sz, log_w = thermal_table(params, n_spins).flat()
    phases, outer = _phases(lambda: -4j * m * params.t_c * t * sz / n_spins,
                            2j * m * params.epsilon * t)
    return outer * complex(np.sum(np.exp(log_w) * phases))


def pair_expectation(params: ModelParams, n_spins: int) -> float:
    """Exact ``<S_+ S_->/N^2``; its large-N limit is the squared gap
    modulus (the phase average wipes out everything but |<sigma_+>|^2)."""
    check_spin_count(n_spins)
    s, sz, log_w = thermal_table(params, n_spins).flat()
    pair = s * (s + 1.0) - sz * (sz - 1.0)
    # pair >= 0; accumulate in the log domain against the weights (log 0 = -inf)
    with np.errstate(divide="ignore"):
        return float(np.sum(np.exp(log_w + np.log(pair) - 2.0 * math.log(n_spins))))
