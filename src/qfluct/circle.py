"""Angular-momentum / phase algebra on the circle in a truncated charge
basis: the large-N target of the collective fluctuations, and the charge
qubit Hamiltonian living on it.

The basis is ``|n>`` with ``n`` running over an integer (or, for the
junction's relative coordinate, half-integer) window of width
``2 n_max + 1``.  The momentum is diagonal, the phase exponentials are
shifts, and the Hamiltonian

    h = E_C (p - n_g)^2 + E_J cos(phi)

is tridiagonal.  Truncation is a hard cutoff (shifted-out amplitude is
dropped); every spectral or dynamical query can be checked by doubling the
window.

Sign convention: the cosine enters with the sign of ``E_J`` as configured.
The positive sign is the one the junction derivation produces for positive
tunneling amplitude; a sign flip is spectrally inert anyway, being the
unitary shift ``phi -> phi + pi``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .errors import ParameterError, TruncationError, require_finite
from .quadrature import chain_dyson

__all__ = [
    "CircuitParams",
    "ChargeBasisTruncation",
    "CircleState",
    "SpectrumResult",
    "build_momentum",
    "build_weyl",
    "build_hamiltonian",
    "spectrum",
    "evolve",
    "dyson_circle",
    "dyson_defect",
    "josephson_current",
    "phase_peaked_state",
]


@dataclass(frozen=True)
class CircuitParams:
    """Charge qubit circuit parameters: charging energy, Josephson energy
    (signed), offset charge, and the momentum-grid offset (0 or 1/2) used
    when the circle hosts a junction's relative coordinate."""

    e_c: float
    e_j: float
    n_g: float = 0.0
    charge_offset: float = 0.0

    def __post_init__(self):
        require_finite(e_c=self.e_c, e_j=self.e_j, n_g=self.n_g,
                       charge_offset=self.charge_offset)
        if self.e_c <= 0:
            raise ParameterError(f"e_c must be positive, got {self.e_c}")
        if self.charge_offset not in (0.0, 0.5):
            raise ParameterError("charge_offset must be 0 or 1/2")


@dataclass(frozen=True)
class ChargeBasisTruncation:
    """Charge window ``n in {-n_max + q0, ..., n_max + q0}``."""

    n_max: int
    charge_offset: float = 0.0

    def __post_init__(self):
        if self.n_max < 2:
            raise ParameterError(f"n_max must be >= 2, got {self.n_max}")
        if self.charge_offset not in (0.0, 0.5):
            raise ParameterError("charge_offset must be 0 or 1/2")

    @property
    def dim(self) -> int:
        return 2 * self.n_max + 1

    def grid(self) -> np.ndarray:
        return np.arange(-self.n_max, self.n_max + 1, dtype=float) + self.charge_offset

    def index_of(self, n) -> int:
        idx = n - self.charge_offset + self.n_max
        if abs(idx - round(idx)) > 1e-9 or not (0 <= round(idx) < self.dim):
            raise ParameterError(f"charge {n} not on the truncated grid")
        return int(round(idx))

    def doubled(self) -> "ChargeBasisTruncation":
        return ChargeBasisTruncation(2 * self.n_max, self.charge_offset)


@dataclass
class CircleState:
    """State vector over the charge basis."""

    amplitudes: np.ndarray
    trunc: ChargeBasisTruncation

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.trunc.dim,):
            raise ParameterError("amplitude vector does not match the basis size")
        if not np.all(np.isfinite(self.amplitudes.view(float))):
            raise ParameterError("amplitudes must be finite")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @property
    def normalized(self) -> bool:
        return abs(self.norm - 1.0) < 1e-10

    def to_json(self) -> str:
        return json.dumps({
            "n_max": self.trunc.n_max,
            "charge_offset": self.trunc.charge_offset,
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
        })


def build_momentum(trunc: ChargeBasisTruncation) -> np.ndarray:
    """Diagonal momentum matrix p|n> = n|n>."""
    return np.diag(trunc.grid())


def build_weyl(trunc: ChargeBasisTruncation, k: int) -> np.ndarray:
    """Shift matrix for exp(i k phi): |n> -> |n+k>, amplitudes shifted past
    the window boundary are dropped."""
    if abs(k) > 2 * trunc.n_max:
        raise ParameterError(f"|k|={abs(k)} exceeds the basis width")
    return np.eye(trunc.dim, k=-k)


def build_hamiltonian(params: CircuitParams, trunc: ChargeBasisTruncation) -> np.ndarray:
    """Tridiagonal charge-basis Hamiltonian: diagonal E_C (n - n_g)^2,
    off-diagonal E_J / 2."""
    grid = trunc.grid()
    h = np.diag(params.e_c * (grid - params.n_g) ** 2)
    hop = 0.5 * params.e_j * np.ones(trunc.dim - 1)
    h += np.diag(hop, 1) + np.diag(hop, -1)
    return h


@dataclass(frozen=True)
class SpectrumResult:
    energies: np.ndarray
    converged: bool
    max_rel_shift: float


def spectrum(params: CircuitParams, trunc: ChargeBasisTruncation, k: int) -> SpectrumResult:
    """Lowest ``k`` eigenvalues, with an automatic window-doubling check:
    ``converged`` is set when doubling n_max moves every requested level by
    less than 1e-10 relative to the overall spectral scale."""
    if k > trunc.dim:
        raise ParameterError(f"requested {k} levels from a {trunc.dim}-dim basis")
    small = np.linalg.eigvalsh(build_hamiltonian(params, trunc))[:k]
    big_trunc = trunc.doubled()
    big = np.linalg.eigvalsh(build_hamiltonian(params, big_trunc))[:k]
    scale = max(float(np.max(np.abs(big))), 1e-300)
    shift = float(np.max(np.abs(small - big))) / scale
    return SpectrumResult(energies=big, converged=shift < 1e-10, max_rel_shift=shift)


def evolve(params: CircuitParams, trunc: ChargeBasisTruncation,
           state: CircleState, t: float) -> CircleState:
    """Unitary evolution by eigendecomposition; norm preserved to 1e-12."""
    evals, vecs = eigh(build_hamiltonian(params, trunc))
    amps = (vecs * np.exp(-1j * t * evals)) @ (vecs.T @ state.amplitudes)
    return CircleState(amps, trunc)


def propagator(params: CircuitParams, trunc: ChargeBasisTruncation, t: float) -> np.ndarray:
    evals, vecs = eigh(build_hamiltonian(params, trunc))
    return (vecs * np.exp(-1j * t * evals)) @ vecs.T


def _charging_phase(params: CircuitParams, grid: np.ndarray, t: float) -> np.ndarray:
    return np.exp(-1j * t * params.e_c * (grid - params.n_g) ** 2)


def dyson_circle(params: CircuitParams, trunc: ChargeBasisTruncation, t: float,
                 order: int, tol: float = 1e-10) -> np.ndarray:
    """Time-ordered perturbative propagator D_K(t) ~ U(t) U_0(t)^dag, the
    hopping term treated as the perturbation of the charging parabola.

    The charge basis is one tridiagonal chain (energies E_C (n - n_g)^2,
    hops E_J / 2), so the terms up to order K come from the shared chain
    recursion, every end position at once.  Truncation drops the paths
    whose intermediate charge leaves the window, which is exactly the
    perturbation series of the truncated problem, so the factorial
    remainder bound

        |U(t) U_0(t)^dag - D_K(t)| <= (|E_J| t)^{K+1} / (K+1)!

    holds on the truncated space verbatim.

    Memory is O(q dim^2) per order for q quadrature nodes, q ~ E_C n_max t:
    about 0.4 GB per array at n_max=64, E_C=1, t=10 (from the shapes).
    """
    if order < 0:
        raise ParameterError("order must be >= 0")
    diag = params.e_c * (trunc.grid() - params.n_g) ** 2
    hop = np.full(trunc.dim - 1, 0.5 * params.e_j)
    sites = np.arange(trunc.dim)[None, :]
    return chain_dyson(diag[None, :], hop[None, :], sites, sites, t, order,
                       tol=tol)[0].T


def dyson_defect(params: CircuitParams, trunc: ChargeBasisTruncation, t: float,
                 order: int, tol: float = 1e-10):
    """Measured spectral-norm defect ``||U(t) - D_K(t) U_0(t)||`` together
    with the factorial bound it must respect."""
    u_exact = propagator(params, trunc, t)
    u_free = np.diag(_charging_phase(params, trunc.grid(), t))
    d_k = dyson_circle(params, trunc, t, order, tol=tol)
    defect = float(np.linalg.norm(u_exact - d_k @ u_free, 2))
    bound = (abs(params.e_j) * abs(t)) ** (order + 1) / math.factorial(order + 1)
    return defect, bound


def josephson_current(params: CircuitParams, trunc: ChargeBasisTruncation,
                      state: CircleState) -> float:
    """Expectation of the current operator E_J sin(phi) = E_J Im<e^{i phi}>."""
    if not state.normalized:
        raise ParameterError("current expects a normalized state")
    up = build_weyl(trunc, 1)
    return float(params.e_j * np.imag(np.vdot(state.amplitudes, up @ state.amplitudes)))


def phase_peaked_state(trunc: ChargeBasisTruncation, phi_bar: float,
                       width: float) -> CircleState:
    """Normalized wave packet concentrated at phase ``phi_bar``.

    Gaussian charge envelope of inverse width ``2/width``, so the angular
    spread is of order ``width``; as width -> 0 the phase expectation
    ``<e^{i phi}>`` tends to ``e^{i phi_bar}``.  Packets needing more charge
    states than the window provides are rejected.
    """
    if width <= 0:
        raise ParameterError("width must be positive")
    if 4.0 / width > trunc.n_max:
        raise TruncationError(
            f"width {width} needs charge support ~{4.0 / width:.1f} > n_max={trunc.n_max}"
        )
    grid = trunc.grid()
    x = grid - trunc.charge_offset
    amps = np.exp(-0.25 * (width * x) ** 2) * np.exp(-1j * grid * phi_bar)
    amps /= np.linalg.norm(amps)
    return CircleState(amps, trunc)
