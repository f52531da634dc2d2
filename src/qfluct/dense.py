"""Brute-force reference implementations on the full product space.

Everything here is deliberately naive: dense Kronecker products, dense
eigendecompositions, explicit doubled-space vectors.  The point is to have
an independent route against which the sector machinery is checked at small
spin counts (the 2^N and 2^{2N} dimensions cap N at ~8 for a single layer
and at 2 for the two-layer junction).

The purified thermal state is kept as a matrix M on the single-copy space:
the doubled-space vector is vec(M), operators ``X (x) 1`` act as ``X @ M``
and ``1 (x) X`` as ``M @ X.T``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.linalg import eigh

from .correlators import FluctuationWord
from .gap import GapSolution
from .sectors import ModelParams

__all__ = [
    "collective_spin",
    "pairing_hamiltonian",
    "thermal_state_matrix",
    "casimir_multiplicities",
    "dense_correlation",
    "dense_evolution_element",
    "dense_w_expectation",
    "DenseJunction",
]

_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


def _site_operator(op: np.ndarray, site: int, n_spins: int) -> np.ndarray:
    mats = [np.eye(2)] * n_spins
    mats[site] = op
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


@lru_cache(maxsize=8)
def collective_spin(n_spins: int):
    """Dense collective spin components ``S_x, S_y, S_z, S_+, S_-`` on the
    2^N product space."""
    dim = 2**n_spins
    sx = np.zeros((dim, dim), dtype=complex)
    sy = np.zeros((dim, dim), dtype=complex)
    sz = np.zeros((dim, dim), dtype=complex)
    for k in range(n_spins):
        sx += 0.5 * _site_operator(_SX, k, n_spins)
        sy += 0.5 * _site_operator(_SY, k, n_spins)
        sz += 0.5 * _site_operator(_SZ, k, n_spins)
    return sx, sy, sz, sx + 1j * sy, sx - 1j * sy


def pairing_hamiltonian(params: ModelParams, n_spins: int) -> np.ndarray:
    """Dense ``-2 eps S_z - (2 T_c / N) S_+ S_-``; real symmetric."""
    _, _, sz, sp, sm = collective_spin(n_spins)
    h = -2.0 * params.epsilon * sz - (2.0 * params.t_c / n_spins) * (sp @ sm)
    return h.real


def casimir_multiplicities(n_spins: int) -> dict:
    """Sector multiplicities read off a dense diagonalization of the total
    spin Casimir: d(s) = (# eigenvalues equal to s(s+1)) / (2s+1)."""
    sx, sy, sz, _, _ = collective_spin(n_spins)
    casimir = (sx @ sx + sy @ sy + sz @ sz).real
    evals = np.linalg.eigvalsh(casimir)
    out = {}
    for two_s in range(n_spins % 2, n_spins + 1, 2):
        s = two_s / 2.0
        count = int(np.sum(np.abs(evals - s * (s + 1.0)) < 1e-6))
        if count:
            assert count % (two_s + 1) == 0
            out[s] = count // (two_s + 1)
    return out


def thermal_state_matrix(params: ModelParams, n_spins: int) -> np.ndarray:
    """Matrix form M of the purified Gibbs vector: M = V sqrt(rho) V^T with
    V the (real) eigenbasis of the pairing Hamiltonian, so that
    ``<X (x) 1> = Tr(M^dag X M)``."""
    h = pairing_hamiltonian(params, n_spins)
    evals, vecs = eigh(h)
    log_rho = -params.beta * evals
    log_rho -= np.max(log_rho)
    rho = np.exp(log_rho)
    rho /= rho.sum()
    return (vecs * np.sqrt(rho)) @ vecs.T


def _apply_word(m_state: np.ndarray, params: ModelParams, n_spins: int,
                word: FluctuationWord, c: float) -> np.ndarray:
    """Apply a fluctuation word to a doubled-space state in matrix form."""
    _, _, sz, sp, sm = collective_spin(n_spins)
    sz_diag = np.diag(sz).real
    out = m_state
    scale = c * n_spins
    for factor in reversed(word.factors):
        for _ in range(factor.m):
            out = (sp @ out) / scale
        for _ in range(factor.n):
            out = (sm @ out) / scale
        if factor.alpha != 0.0:
            left = np.exp(1j * factor.alpha * sz_diag)
            out = left[:, None] * out * left.conj()[None, :]
    return out


def dense_correlation(params: ModelParams, n_spins: int, word: FluctuationWord,
                      gap: GapSolution) -> complex:
    m0 = thermal_state_matrix(params, n_spins)
    mx = _apply_word(m0.astype(complex), params, n_spins, word, gap.delta)
    return complex(np.sum(m0.conj() * mx))


def dense_evolution_element(params: ModelParams, n_spins: int, n: int, m: int,
                            t: float, gap: GapSolution) -> complex:
    """``<n| U(t) |m>`` by explicitly evolving the doubled-space vector with
    the commutant-renormalized generator (chemical potential included)."""
    _, _, sz, sp, _ = collective_spin(n_spins)
    h = pairing_hamiltonian(params, n_spins) + 2.0 * params.mu * sz.real
    evals, vecs = eigh(h)

    m0 = thermal_state_matrix(params, n_spins).astype(complex)
    scale = gap.delta * n_spins
    ket = m0.copy()
    for _ in range(m):
        ket = (sp @ ket) / scale
    bra = m0.copy()
    for _ in range(n):
        bra = (sp @ bra) / scale

    # exp(-it(H (x) 1 - 1 (x) H)): M -> e^{-itH} M e^{itH}
    phases = np.exp(-1j * t * evals)
    ket = (vecs * phases) @ (vecs.T @ ket @ vecs) @ (vecs * phases.conj()).T
    return complex(np.sum(bra.conj() * ket))


def dense_w_expectation(params: ModelParams, n_spins: int, m: int, t: float) -> complex:
    """Expectation of W(t)^m with W built from its defining identity
    ``E_+(t) = E_+ W(t)`` (conjugation of E_+ by the free doubled evolution)."""
    _, _, sz, _, _ = collective_spin(n_spins)
    k_op = -2.0 * params.epsilon * np.eye(2**n_spins) \
        + (4.0 * params.t_c / n_spins) * sz.real
    m0 = thermal_state_matrix(params, n_spins).astype(complex)
    evals, vecs = eigh(k_op)
    w_diag = np.exp(-1j * m * t * evals)
    mx = (vecs * w_diag) @ (vecs.T @ m0)
    return complex(np.sum(m0.conj() * mx))


def _kron4(a, b, c, d):
    return np.kron(np.kron(a, b), np.kron(c, d))


class DenseJunction:
    """Fully dense two-layer junction on the quadrupled space (N = 2 only in
    practice: the dimension is 2^{4N}).

    Factor order: (left system, left commutant, right system, right
    commutant), matching the block machinery.
    """

    def __init__(self, left: ModelParams, right: ModelParams, lam: float,
                 e_c: float, n_g: float, gap_l: GapSolution, gap_r: GapSolution,
                 n_spins: int):
        if n_spins > 2:
            raise ValueError("dense junction oracle is meant for n_spins = 2")
        self.n_spins = n_spins
        self.gap_l, self.gap_r = gap_l, gap_r
        dim = 2**n_spins
        eye = np.eye(dim)

        _, _, sz, sp, sm = collective_spin(n_spins)
        sz, sp, sm = sz.real, sp.real, sm.real
        h_l = pairing_hamiltonian(left, n_spins)
        h_r = pairing_hamiltonian(right, n_spins)

        h_free = (_kron4(h_l, eye, eye, eye) - _kron4(eye, h_l, eye, eye)
                  + _kron4(eye, eye, h_r, eye) - _kron4(eye, eye, eye, h_r))
        h_int = (lam / n_spins**2) * (_kron4(sp, eye, sm, eye)
                                      + _kron4(sm, eye, sp, eye))
        p_l = _kron4(sz, eye, eye, eye) - _kron4(eye, sz, eye, eye)
        p_r = _kron4(eye, eye, sz, eye) - _kron4(eye, eye, eye, sz)
        rel = 0.5 * (p_l - p_r) - n_g * np.eye(dim**4)
        h_c = e_c * (rel @ rel)

        self.p_total = p_l + p_r
        self.p_l_diag = np.diag(p_l).copy()
        self.p_r_diag = np.diag(p_r).copy()
        self.hamiltonian = h_free + h_int + h_c
        self.e_lp = _kron4(sp, eye, eye, eye) / (gap_l.delta * n_spins)
        self.e_lm = _kron4(sm, eye, eye, eye) / (gap_l.delta * n_spins)
        self.e_rp = _kron4(eye, eye, sp, eye) / (gap_r.delta * n_spins)
        self.e_rm = _kron4(eye, eye, sm, eye) / (gap_r.delta * n_spins)

        m_l = thermal_state_matrix(left, n_spins)
        m_r = thermal_state_matrix(right, n_spins)
        self.vacuum = np.kron(m_l.reshape(-1), m_r.reshape(-1))

    def charge_state(self, n_l: int, n_r: int) -> np.ndarray:
        state = self.vacuum.astype(complex)
        op_l = self.e_lp if n_l >= 0 else self.e_lm
        op_r = self.e_rp if n_r >= 0 else self.e_rm
        for _ in range(abs(n_l)):
            state = op_l @ state
        for _ in range(abs(n_r)):
            state = op_r @ state
        return state

    def element(self, source, target, t: float) -> complex:
        evals, vecs = eigh(self.hamiltonian)
        ket = self.charge_state(*source)
        bra = self.charge_state(*target)
        evolved = (vecs * np.exp(-1j * t * evals)) @ (vecs.conj().T @ ket)
        return complex(bra.conj() @ evolved)

    def word_expectation(self, left_word, right_word) -> complex:
        """Joint vacuum expectation of a left-layer word times a right-layer
        word, by explicit operator application."""
        state = self.vacuum.astype(complex)
        for word, plus, minus, p_diag in (
                (right_word, self.e_rp, self.e_rm, self.p_r_diag),
                (left_word, self.e_lp, self.e_lm, self.p_l_diag)):
            for factor in reversed(word.factors):
                for _ in range(factor.m):
                    state = plus @ state
                for _ in range(factor.n):
                    state = minus @ state
                if factor.alpha != 0.0:
                    state = np.exp(1j * factor.alpha * p_diag) * state
        return complex(self.vacuum.conj() @ state)
