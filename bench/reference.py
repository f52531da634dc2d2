"""Independent reference evaluator for single-layer quantities.

A plain standard-library sector sum, written apart from ``qfluct`` so the
benchmark can check the program's numbers against something that shares
none of its code:

* multiplicities are exact integers from ``math.comb``;
* ladder amplitudes use the closed form
  ``<s, m+k| S_+^k |s, m> = sqrt[(s-m)! (s+m+k)! / ((s-m-k)! (s+m)!)]``
  through a ``math.lgamma`` table, where the program multiplies one step at
  a time;
* the gap comes from plain bisection of ``omega / T_c = tanh(beta omega)``;
* every sum is a ``math.fsum``.

The cost is one Python loop over all (s, s_z) entries, so it is meant for
N up to a few hundred.
"""

from __future__ import annotations

import cmath
import math


def gap_delta(epsilon: float, t_c: float, beta: float) -> float:
    """Gap modulus Delta of the uniform pairing model (0 in the normal phase)."""
    if beta * t_c <= 1.0:
        return 0.0

    def excess(w):
        return math.tanh(beta * w) - w / t_c

    lo, hi = 1e-300, t_c  # excess > 0 at lo, < 0 at hi
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    omega = 0.5 * (lo + hi)
    if omega <= epsilon:
        return 0.0
    return math.sqrt(omega * omega - epsilon * epsilon) / (2.0 * t_c)


def _eta(epsilon, t_c, n_spins, s, sz):
    return -2.0 * epsilon * sz - (2.0 * t_c / n_spins) * (s * (s + 1) - sz * (sz - 1))


class SectorSum:
    """Thermal sector weights of one layer at one even spin count."""

    def __init__(self, epsilon: float, t_c: float, beta: float, n_spins: int,
                 mu: float = 0.0):
        if n_spins < 2 or n_spins % 2:
            raise ValueError("n_spins must be even and >= 2")
        self.epsilon, self.t_c, self.beta, self.mu = epsilon, t_c, beta, mu
        self.n = n_spins
        self.log_fact = [math.lgamma(k + 1.0) for k in range(n_spins + 2)]
        half = n_spins // 2
        entries = []
        for s in range(half, -1, -1):
            k = half - s
            d = math.comb(n_spins, k) - (math.comb(n_spins, k - 1) if k else 0)
            log_d = math.log(d)
            for sz in range(-s, s + 1):
                entries.append((s, sz, log_d - beta * _eta(epsilon, t_c, n_spins, s, sz)))
        top = max(lw for _, _, lw in entries)
        log_z = top + math.log(math.fsum(math.exp(lw - top) for _, _, lw in entries))
        self.entries = [(s, sz, lw - log_z) for s, sz, lw in entries]

    def _log_ladder(self, s, m, k):
        """log of the closed-form (S_+)^k (k > 0) or (S_-)^|k| amplitude
        from |s, m>, or None when the walk leaves [-s, s]."""
        lf = self.log_fact
        if k >= 0:
            if m + k > s:
                return None
            return 0.5 * (lf[s - m] + lf[s + m + k] - lf[s - m - k] - lf[s + m])
        k = -k
        if m - k < -s:
            return None
        return 0.5 * (lf[s + m] + lf[s - m + k] - lf[s + m - k] - lf[s - m])

    def word(self, triples, c: float) -> complex:
        """Vacuum expectation of prod_j exp(i a_j p) (E_-)^{n_j} (E_+)^{m_j},
        factors listed left to right, with ``E_pm = S_pm / (c N)``."""
        raises = sum(m for _, _, m in triples)
        lowers = sum(n for _, n, _ in triples)
        if raises != lowers:
            return 0j
        phase = 0.0
        running = 0.0
        for alpha, n, m in triples:
            running += alpha
            phase += running * (m - n)
        log_scale = (raises + lowers) * math.log(c * self.n)
        terms = []
        for s, sz, lw in self.entries:
            cur, log_amp = sz, 0.0
            for _, n, m in reversed(triples):
                for k in (m, -n):
                    if k:
                        step = self._log_ladder(s, cur, k)
                        if step is None:
                            break
                        log_amp += step
                        cur += k
                else:
                    continue
                break
            else:
                terms.append(math.exp(lw + log_amp - log_scale))
        return cmath.exp(1j * phase) * math.fsum(terms)

    def evolution(self, m: int, t: float, c: float) -> complex:
        """Single-layer element <m| U(t) |m> between m-excitation vectors."""
        if m == 0:
            return 1 + 0j
        log_scale = 2 * m * math.log(c * self.n)
        re, im = [], []
        for s, sz, lw in self.entries:
            step = self._log_ladder(s, sz, m)
            if step is None:
                continue
            weight = math.exp(lw + 2.0 * step - log_scale)
            d_eta = (_eta(self.epsilon, self.t_c, self.n, s, sz + m)
                     - _eta(self.epsilon, self.t_c, self.n, s, sz))
            re.append(weight * math.cos(t * d_eta))
            im.append(-weight * math.sin(t * d_eta))
        return cmath.exp(-2j * self.mu * t * m) * complex(math.fsum(re), math.fsum(im))

    def w_power(self, m: int, t: float) -> complex:
        """Expectation of exp(-i m t K), K = -2 eps + (4 T_c / N) S_z."""
        re, im = [], []
        for _, sz, lw in self.entries:
            w = math.exp(lw)
            arg = 4.0 * m * self.t_c * t * sz / self.n
            re.append(w * math.cos(arg))
            im.append(-w * math.sin(arg))
        return cmath.exp(2j * m * self.epsilon * t) * complex(math.fsum(re), math.fsum(im))

    def pair(self) -> float:
        """<S_+ S_-> / N^2."""
        return math.fsum(math.exp(lw) * (s * (s + 1) - sz * (sz - 1))
                         for s, sz, lw in self.entries) / self.n**2
