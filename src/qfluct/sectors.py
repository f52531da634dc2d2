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

from .errors import ParameterError, ParityError

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
        for name in ("epsilon", "t_c", "beta", "mu"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
        if self.t_c <= 0:
            raise ParameterError(f"t_c must be positive, got {self.t_c}")
        if self.beta <= 0:
            raise ParameterError(f"beta must be positive, got {self.beta}")
        if self.epsilon < 0:
            raise ParameterError(f"epsilon must be non-negative, got {self.epsilon}")


def _check_spin(n_spins: int, s) -> None:
    if n_spins < 1 or int(n_spins) != n_spins:
        raise ParameterError(f"n_spins must be a positive integer, got {n_spins!r}")
    two_s = 2 * s
    if abs(two_s - round(two_s)) > 1e-9:
        raise ParityError(f"s={s} is not integer or half-integer")
    two_s = round(two_s)
    if two_s < 0 or two_s > n_spins:
        raise ParameterError(f"s={s} outside [0, N/2] for N={n_spins}")
    if (n_spins - two_s) % 2 != 0:
        raise ParityError(f"s={s} has wrong parity for N={n_spins}")


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


def log_multiplicity(n_spins: int, s) -> float:
    """``log d(s)``, safe for spin counts where ``d(s)`` overflows floats."""
    _check_spin(n_spins, s)
    k = (n_spins - round(2 * s)) // 2
    log_c = gammaln(n_spins + 1) - gammaln(k + 1) - gammaln(n_spins - k + 1)
    if k >= 1:
        # C(N, k-1)/C(N, k) = k/(N-k+1) < 1, so log1p is well defined
        ratio = k / (n_spins - k + 1)
        log_c += math.log1p(-ratio)
    return float(log_c)


def sector_energy(params: ModelParams, label: SectorLabel) -> float:
    """Energy of the ``(s, s_z)`` sector of the pairing Hamiltonian:

    ``eta(s, s_z) = -2 eps s_z - (2 T_c / N) (s(s+1) - s_z(s_z - 1))``.
    """
    s, sz = label.s, label.s_z
    pair = s * (s + 1.0) - sz * (sz - 1.0)
    return -2.0 * params.epsilon * sz - (2.0 * params.t_c / label.n_spins) * pair


def _eta_array(params: ModelParams, n_spins: int, s: float, sz: np.ndarray) -> np.ndarray:
    pair = s * (s + 1.0) - sz * (sz - 1.0)
    return -2.0 * params.epsilon * sz - (2.0 * params.t_c / n_spins) * pair


@dataclass(frozen=True)
class SectorRow:
    """All ``s_z`` entries of one total-spin sector (``s_z`` ascending)."""

    s: int
    degeneracy: int
    log_degeneracy: float
    sz: np.ndarray
    eta: np.ndarray
    log_rho: np.ndarray


@dataclass(frozen=True)
class SectorTable:
    """Thermal weight table for ``n_spins`` quasi-spins.

    ``rows`` are ordered by descending ``s``; inside a row ``s_z`` ascends.
    ``log_rho`` is the per-copy Boltzmann weight, i.e. the normalization is
    ``sum_s d(s) sum_sz rho(s, s_z) = 1``.
    """

    n_spins: int
    log_partition: float
    rows: tuple

    def flat(self):
        """Flattened ``(s, s_z, log_weight)`` arrays over all labels, where
        ``log_weight = log d(s) + log rho(s, s_z)`` absorbs the multiplicity.
        Row order matches the table and is fixed, so reductions over these
        arrays are deterministic.
        """
        s = np.concatenate([np.full(row.sz.shape, float(row.s)) for row in self.rows])
        sz = np.concatenate([row.sz for row in self.rows])
        log_w = np.concatenate([row.log_degeneracy + row.log_rho for row in self.rows])
        return s, sz, log_w

    def normalization(self) -> float:
        _, _, log_w = self.flat()
        return float(np.exp(logsumexp(log_w)))

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
    """Build the thermal sector table at inverse temperature ``params.beta``.

    Only even spin counts are supported (Cooper-pair convention); odd ones
    are rejected rather than silently shifted.  The log partition function
    is accumulated with ``logsumexp`` so the table is overflow-free for any
    ``beta * eta``.
    """
    if n_spins < 2 or n_spins % 2 != 0:
        raise ParityError(f"n_spins must be even and >= 2, got {n_spins}")

    s_values = range(n_spins // 2, -1, -1)
    raw = []
    for s in s_values:
        sz = np.arange(-s, s + 1, dtype=float)
        eta = _eta_array(params, n_spins, float(s), sz)
        raw.append((s, log_multiplicity(n_spins, s), sz, eta))

    log_terms = np.concatenate([log_d - params.beta * eta for s, log_d, _, eta in raw])
    log_z = float(logsumexp(log_terms))

    rows = tuple(
        SectorRow(
            s=s,
            degeneracy=multiplicity(n_spins, s),
            log_degeneracy=log_d,
            sz=sz,
            eta=eta,
            log_rho=-params.beta * eta - log_z,
        )
        for s, log_d, sz, eta in raw
    )
    return SectorTable(n_spins=n_spins, log_partition=log_z, rows=rows)


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
