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

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .errors import ParameterError, ParityError, require_finite

__all__ = [
    "ModelParams",
    "SectorLabel",
    "SectorRow",
    "SectorTable",
    "multiplicity",
    "log_multiplicity",
    "sector_energy",
    "boltzmann_table",
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


@dataclass(frozen=True)
class SectorLabel:
    """One ``(s, s_z)`` eigenspace label of the collective spin algebra."""

    n_spins: int
    s: float
    s_z: float

    def __post_init__(self):
        _check_spin(self.n_spins, self.s)
        two_sz = 2 * self.s_z
        if abs(two_sz - round(two_sz)) > 1e-9:
            raise ParityError(f"s_z={self.s_z} is not integer or half-integer")
        if (round(2 * self.s) - round(two_sz)) % 2 != 0:
            raise ParityError(f"s_z={self.s_z} has wrong parity for s={self.s}")
        if abs(self.s_z) > self.s + 1e-12:
            raise ParameterError(f"|s_z|={abs(self.s_z)} exceeds s={self.s}")


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


def log_multiplicity(n_spins: int, s):
    """``log d(s)``, safe for spin counts where ``d(s)`` overflows floats.
    ``s`` broadcasts as an array; a scalar label gives a float."""
    _check_spin(n_spins, s)
    k = (n_spins - np.rint(2 * np.asarray(s, dtype=float))) // 2
    log_c = gammaln(n_spins + 1) - gammaln(k + 1) - gammaln(n_spins - k + 1)
    # C(N, k-1)/C(N, k) = k/(N-k+1) < 1, so log1p is well defined (0 at k = 0)
    log_c = log_c + np.log1p(-k / (n_spins - k + 1))
    return float(log_c) if log_c.ndim == 0 else log_c


def sector_energy(params: ModelParams, label: SectorLabel) -> float:
    """Energy of the ``(s, s_z)`` sector of the pairing Hamiltonian:

    ``eta(s, s_z) = -2 eps s_z - (2 T_c / N) (s(s+1) - s_z(s_z - 1))``.
    """
    s, sz = label.s, label.s_z
    pair = s * (s + 1.0) - sz * (sz - 1.0)
    return -2.0 * params.epsilon * sz - (2.0 * params.t_c / label.n_spins) * pair


def _eta_array(params: ModelParams, n_spins: int, s, sz: np.ndarray) -> np.ndarray:
    pair = s * (s + 1.0) - sz * (sz - 1.0)
    return -2.0 * params.epsilon * sz - (2.0 * params.t_c / n_spins) * pair


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
        request (JSON export, small-N oracles)."""
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
            eta = _eta_array(self.params, self.n_spins, s, sz)
            rows.append(SectorRow(
                n_spins=self.n_spins, s=int(s), log_degeneracy=float(log_d_s), sz=sz,
                eta=eta, log_rho=-self.params.beta * eta - self.log_partition))
        return tuple(rows)

    def normalization(self) -> float:
        return float(np.exp(logsumexp(self.log_w)))

    def to_json_dict(self) -> dict:
        return {
            "n_spins": self.n_spins,
            "log_partition": self.log_partition,
            "sectors": [
                {
                    "s": row.s,
                    "d": row.degeneracy,
                    "rows": [
                        {"sz": float(sz), "eta": float(eta), "log_rho": float(lr)}
                        for sz, eta, lr in zip(row.sz, row.eta, row.log_rho)
                    ],
                }
                for row in self.rows
            ],
        }

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def boltzmann_table(params: ModelParams, n_spins: int) -> SectorTable:
    """Build the thermal sector table at inverse temperature ``params.beta``,
    keeping the entries within ``_LOG_MARGIN`` of the largest log-weight.

    ``-beta * eta`` is a concave quadratic in ``s_z`` with its vertex at
    ``eps N / (2 T_c) + 1/2`` and curvature ``2 beta T_c / N`` in every
    sector, so each sector's largest entry and kept ``s_z`` interval follow
    in closed form and the cost is linear in the kept entries.  Only even
    spin counts are supported (Cooper-pair convention); odd ones are
    rejected rather than silently shifted.  The log partition function is
    accumulated with ``logsumexp`` so the table is overflow-free for any
    ``beta * eta``.
    """
    if n_spins < 2 or n_spins % 2 != 0:
        raise ParityError(f"n_spins must be even and >= 2, got {n_spins}")

    s = np.arange(n_spins // 2, -1, -1, dtype=float)
    log_d = log_multiplicity(n_spins, s)
    vertex = params.epsilon * n_spins / (2.0 * params.t_c) + 0.5
    curvature = 2.0 * params.beta * params.t_c / n_spins
    best = np.clip(np.rint(vertex), -s, s)
    row_max = log_d - params.beta * _eta_array(params, n_spins, s, best)
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
    log_w = _eta_array(params, n_spins, s_flat, sz)
    log_w *= -params.beta
    log_w += np.repeat(log_d, count)
    # logsumexp by hand: scipy's holds five temporaries of this size
    top = float(np.max(log_w))
    shifted = log_w - top
    log_z = top + math.log(float(np.sum(np.exp(shifted, out=shifted))))
    log_w -= log_z
    dropped = (n_spins // 2 + 1) ** 2 - s_flat.size
    return SectorTable(
        params=params, n_spins=n_spins, log_partition=log_z, s=s_flat, sz=sz, log_w=log_w,
        discarded_bound=dropped * math.exp(-_LOG_MARGIN),
    )


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
    for _ in range(abs(k)):
        value = value * np.sqrt(np.maximum(s2 - m * (m + step), 0.0))
        m = m + step
    return float(value) if value.ndim == 0 else value
