"""SU(2) sector bookkeeping for ensembles of exchangeable quasi-spins.

The uniform pairing Hamiltonian

    H = -2 eps S_z - (2 T_c / N) S_+ S_-

acts on N spin-1/2 degrees of freedom only through the collective spin
operators, so its spectrum organizes into total-spin sectors ``(s, s_z)``
with permutation multiplicities ``d(s)``.  This module enumerates those
sectors, evaluates the spectrum, and assembles the thermal weight table
that every other module consumes.

Weights are computed and stored in the log domain throughout: ``beta*eta``
exceeds float range already for a few thousand spins.  Conversion to the
linear domain happens only inside weighted sums.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ParityError, require_finite

__all__ = [
    "ModelParams",
    "SectorRow",
    "SectorTable",
    "check_spin_count",
    "multiplicity",
    "log_multiplicity",
    "eta",
    "boltzmann_table",
    "thermal_table",
    "ladder_coefficient",
]


@dataclass(frozen=True)
class ModelParams:
    """Single-layer parameters: level energy, critical temperature, inverse
    temperature and an optional chemical potential.

    ``mu`` only ever enters the dynamics through the excitation-counting
    term of the doubled (thermal) representation; the Boltzmann table is
    independent of it.
    """

    epsilon: float
    t_c: float
    beta: float
    mu: float = 0.0

    def __post_init__(self):
        require_finite(epsilon=self.epsilon, t_c=self.t_c, beta=self.beta, mu=self.mu)
        if self.t_c <= 0:
            raise ParameterError(f"t_c must be positive, got {self.t_c}")
        if self.beta <= 0:
            raise ParameterError(f"beta must be positive, got {self.beta}")
        if self.epsilon < 0:
            raise ParameterError(f"epsilon must be non-negative, got {self.epsilon}")


# largest spin count measured end to end
_MAX_SPINS = 2**17


def check_spin_count(n_spins: int) -> None:
    """Reject spin counts that are not even and at least 2, or that exceed
    ``_MAX_SPINS``.  Every finite-N quantity counts Cooper pairs, so odd
    counts are rejected rather than silently shifted."""
    if n_spins < 2 or n_spins % 2 != 0:
        raise ParityError(f"n_spins must be even and >= 2, got {n_spins}")
    if n_spins > _MAX_SPINS:
        raise ParameterError(f"n_spins must be at most {_MAX_SPINS}, got {n_spins}")


def _check_spin(n_spins: int, s) -> None:
    """Validate one spin label, or every element of an array of them."""
    if n_spins < 1 or int(n_spins) != n_spins:
        raise ParameterError(f"n_spins must be a positive integer, got {n_spins!r}")
    s = np.asarray(s, dtype=float)
    two_s = np.rint(2 * s)
    for bad, error, reason in (
        (np.abs(2 * s - two_s) > 1e-9, ParityError, "is not integer or half-integer"),
        ((two_s < 0) | (two_s > n_spins), ParameterError, f"outside [0, N/2] for N={n_spins}"),
        ((n_spins - two_s) % 2 != 0, ParityError, f"has wrong parity for N={n_spins}"),
    ):
        if bad.any():
            raise error(f"s={s[bad].flat[0]} {reason}")


def multiplicity(n_spins: int, s) -> int:
    """Number of copies of the spin-``s`` irreducible block among ``n_spins``
    spin-1/2's.

    Standard angular-momentum coupling count
    ``d(s) = C(N, N/2 - s) - C(N, N/2 - s - 1)`` (Catalan triangle),
    evaluated in exact integer arithmetic.  Satisfies the dimension sum rule
    ``sum_s d(s) (2s+1) = 2**N``.
    """
    _check_spin(n_spins, s)
    k = (n_spins - round(2 * s)) // 2
    d = math.comb(n_spins, k)
    if k >= 1:
        d -= math.comb(n_spins, k - 1)
    return d


_LGAMMA = np.frompyfunc(math.lgamma, 1, 1)


def _lgamma(x) -> np.ndarray:
    """``math.lgamma`` elementwise, as a float array."""
    return np.asarray(_LGAMMA(x), dtype=float)


def log_multiplicity(n_spins: int, s):
    """``log d(s)``, safe for spin counts where ``d(s)`` overflows floats.
    ``s`` broadcasts as an array; a scalar label gives a float."""
    _check_spin(n_spins, s)
    k = (n_spins - np.rint(2 * np.asarray(s, dtype=float))) // 2
    log_c = math.lgamma(n_spins + 1) - _lgamma(k + 1) - _lgamma(n_spins - k + 1)
    # C(N, k-1)/C(N, k) = k/(N-k+1) < 1, so log1p is well defined (0 at k = 0)
    log_c = log_c + np.log1p(-k / (n_spins - k + 1))
    return float(log_c) if log_c.ndim == 0 else log_c


def eta(params: ModelParams, n_spins: int, s, s_z):
    """Energy of the ``(s, s_z)`` sector of the pairing Hamiltonian,

    ``eta(s, s_z) = -2 eps s_z - (2 T_c / N) (s(s+1) - s_z(s_z - 1))``;
    ``s`` and ``s_z`` broadcast as arrays."""
    pair = s * (s + 1.0) - s_z * (s_z - 1.0)
    return -2.0 * params.epsilon * s_z - (2.0 * params.t_c / n_spins) * pair


# Table entries whose log-weight falls more than this below the table's
# largest one are dropped.  Each dropped entry carries normalized weight
# below exp(-_LOG_MARGIN) = 3.7e-44, so even the (N/2+1)^2 entries of
# N = 2^17 leave at most 1.6e-34 of the mass out.
_LOG_MARGIN = 100.0


@dataclass(frozen=True)
class SectorRow:
    """The kept ``s_z`` entries of one total-spin sector (``s_z`` ascending
    and contiguous); ``sz`` is a view into the table's flat arrays."""

    n_spins: int
    s: int
    log_degeneracy: float
    sz: np.ndarray
    eta: np.ndarray
    log_rho: np.ndarray

    @property
    def degeneracy(self) -> int:
        """Exact ``d(s)``; a big integer at large N, so only computed on
        request (selftest and small-N oracles)."""
        return multiplicity(self.n_spins, self.s)


@dataclass(frozen=True)
class SectorTable:
    """Thermal weight table for ``n_spins`` quasi-spins, restricted to its
    thermal support.

    The flat arrays ``s``, ``sz`` and ``log_w`` list the kept entries by
    descending ``s`` and, inside a sector, contiguous ascending ``s_z``.
    ``log_w = log d(s) + log rho(s, s_z)`` absorbs the multiplicity, and
    ``rho`` is the per-copy Boltzmann weight normalized over the kept
    entries.  The dropped entries together carry at most
    ``discarded_bound`` of the normalized weight.
    """

    params: ModelParams
    n_spins: int
    log_partition: float
    s: np.ndarray
    sz: np.ndarray
    log_w: np.ndarray
    discarded_bound: float

    def flat(self):
        """The ``(s, s_z, log_weight)`` arrays over all kept labels.  Their
        order is fixed, so reductions over them are deterministic."""
        return self.s, self.sz, self.log_w

    @property
    def rows(self) -> tuple:
        """One ``SectorRow`` per kept sector, built on each access."""
        cuts = np.flatnonzero(np.diff(self.s)) + 1
        row_s = self.s[np.concatenate(([0], cuts))]
        log_d = log_multiplicity(self.n_spins, row_s)
        rows = []
        for s, log_d_s, sz in zip(row_s, log_d, np.split(self.sz, cuts)):
            level = eta(self.params, self.n_spins, s, sz)
            rows.append(SectorRow(
                n_spins=self.n_spins, s=int(s), log_degeneracy=float(log_d_s), sz=sz,
                eta=level, log_rho=-self.params.beta * level - self.log_partition))
        return tuple(rows)


def boltzmann_table(params: ModelParams, n_spins: int) -> SectorTable:
    """Build the thermal sector table at inverse temperature ``params.beta``,
    keeping the entries within ``_LOG_MARGIN`` of the largest log-weight.

    ``-beta * eta`` is a concave quadratic in ``s_z`` with its vertex at
    ``eps N / (2 T_c) + 1/2`` and curvature ``2 beta T_c / N`` in every
    sector, so each sector's largest entry and kept ``s_z`` interval follow
    in closed form and the cost is linear in the kept entries.  The log
    partition function is accumulated as a log-sum-exp, so the table is
    overflow-free for any ``beta * eta``.
    """
    check_spin_count(n_spins)

    s = np.arange(n_spins // 2, -1, -1, dtype=float)
    log_d = log_multiplicity(n_spins, s)
    vertex = params.epsilon * n_spins / (2.0 * params.t_c) + 0.5
    curvature = 2.0 * params.beta * params.t_c / n_spins
    best = np.clip(np.rint(vertex), -s, s)
    row_max = log_d - params.beta * eta(params, n_spins, s, best)
    floor = np.max(row_max) - _LOG_MARGIN
    # log-weight = row_max + curvature * ((best - vertex)^2 - (s_z - vertex)^2);
    # the 1e-9 slack only ever keeps an entry more
    half = np.sqrt(np.maximum(row_max - floor, 0.0) / curvature + (best - vertex) ** 2)
    lo = np.maximum(-s, np.ceil(vertex - half - 1e-9))
    hi = np.minimum(s, np.floor(vertex + half + 1e-9))
    count = np.where(row_max >= floor, hi - lo + 1.0, 0.0).astype(np.int64)

    # in place where possible: at N = 2^17 each array is 4.6M entries
    s_flat = np.repeat(s, count)
    sz = np.repeat(lo - (np.cumsum(count) - count), count)
    sz += np.arange(sz.size)
    log_w = eta(params, n_spins, s_flat, sz)
    log_w *= -params.beta
    log_w += np.repeat(log_d, count)
    # logsumexp by hand, in place (scipy's holds five temporaries of this
    # size).  Shifting by the largest entry first keeps the rounding of the
    # large log-weights (1e4 and more at N = 16384) out of the table: every
    # kept entry lies within _LOG_MARGIN of the top, so each difference is
    # exact (Sterbenz) once the top exceeds 2 * _LOG_MARGIN.
    top = float(np.max(log_w))
    log_w -= top
    log_sum = math.log(float(np.sum(np.exp(log_w))))
    log_w -= log_sum
    dropped = (n_spins // 2 + 1) ** 2 - s_flat.size
    return SectorTable(
        params=params, n_spins=n_spins, log_partition=top + log_sum, s=s_flat, sz=sz,
        log_w=log_w, discarded_bound=dropped * math.exp(-_LOG_MARGIN),
    )


# Tables are immutable and shared by every finite-N quantity; the least
# recently used one goes once this many are held (a table holds about 35 N
# entries of 24 bytes).
_TABLE_CACHE_SIZE = 8


def thermal_table(params: ModelParams, n_spins: int) -> SectorTable:
    """The ``boltzmann_table`` of these parameters, built once and then
    reused while it stays in a cache of the last ``_TABLE_CACHE_SIZE``
    tables.  The chemical potential does not enter the table, so the cache
    key is ``(epsilon, t_c, beta, N)``."""
    return _cached_table(params.epsilon, params.t_c, params.beta, n_spins)


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _cached_table(epsilon: float, t_c: float, beta: float, n_spins: int) -> SectorTable:
    # looked up as a module global on every miss, so a wrapper installed on
    # sectors.boltzmann_table sees each build
    return boltzmann_table(ModelParams(epsilon, t_c, beta), n_spins)


def ladder_coefficient(s, s_z, k: int):
    """Matrix element ``<s, s_z + k| (S_+)^k |s, s_z>`` for ``k >= 0``, or the
    matching lowering product ``<s, s_z + k| (S_-)^{|k|} |s, s_z>`` for
    ``k < 0``.  Walks that exit ``[-s, s]`` return 0 by contract.  ``s`` and
    ``s_z`` broadcast as arrays; scalar labels give a float.
    """
    s = np.asarray(s, dtype=float)
    m = np.asarray(s_z, dtype=float)
    step = 1.0 if k >= 0 else -1.0
    s2 = s * (s + 1.0)
    value = np.where(np.abs(m) > s, 0.0, 1.0)
    steps = abs(k)
    if steps > 1:  # every walk has left [-s, s] after 2 max(s) + 1 steps
        steps = min(steps, int(2.0 * np.max(s, initial=0.0)) + 1)
    for _ in range(steps):
        value = value * np.sqrt(np.maximum(s2 - m * (m + step), 0.0))
        m = m + step
    return float(value) if value.ndim == 0 else value
