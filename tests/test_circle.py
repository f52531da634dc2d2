import math

import numpy as np
import pytest

from qfluct import circle
from qfluct.errors import ParameterError, TruncationError


def make_state(trunc, entries):
    amps = np.zeros(trunc.dim, complex)
    for n, a in entries.items():
        amps[trunc.index_of(n)] = a
    return circle.CircleState(amps, trunc)


def test_momentum_is_diagonal_grid():
    trunc = circle.ChargeBasisTruncation(5)
    p = circle.build_momentum(trunc)
    assert p[trunc.index_of(0), trunc.index_of(0)] == 0.0
    np.testing.assert_array_equal(np.diag(p), np.arange(-5, 6))
    assert np.count_nonzero(p - np.diag(np.diag(p))) == 0


def test_half_integer_grid():
    trunc = circle.ChargeBasisTruncation(3, charge_offset=0.5)
    np.testing.assert_array_equal(trunc.grid(), np.arange(-3, 4) + 0.5)
    assert trunc.index_of(0.5) == 3


def test_weyl_shift_action():
    trunc = circle.ChargeBasisTruncation(4)
    up = circle.build_weyl(trunc, 1)
    state = np.zeros(trunc.dim)
    state[trunc.index_of(0)] = 1.0
    shifted = up @ state
    assert shifted[trunc.index_of(1)] == 1.0
    assert np.sum(np.abs(shifted)) == 1.0
    assert np.array_equal(circle.build_weyl(trunc, 0), np.eye(trunc.dim))
    # boundary amplitude is dropped
    edge = np.zeros(trunc.dim)
    edge[trunc.index_of(4)] = 1.0
    assert np.all(up @ edge == 0)


def test_ladder_commutator_on_interior():
    trunc = circle.ChargeBasisTruncation(6)
    p = circle.build_momentum(trunc)
    up = circle.build_weyl(trunc, 1)
    comm = p @ up - up @ p
    interior = slice(1, trunc.dim - 1)
    np.testing.assert_allclose(comm[interior, interior], up[interior, interior],
                               atol=1e-12)


@pytest.mark.parametrize("alpha", [0.3, -1.7])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_weyl_exchange_relation_interior(alpha, k):
    trunc = circle.ChargeBasisTruncation(8)
    grid = trunc.grid()
    ep = np.diag(np.exp(1j * alpha * grid))
    wk = circle.build_weyl(trunc, k)
    lhs = ep @ wk
    rhs = np.exp(1j * k * alpha) * (wk @ ep)
    pad = k
    inner = slice(pad, trunc.dim - pad)
    assert np.max(np.abs((lhs - rhs)[inner, inner])) < 1e-10


def test_hamiltonian_structure():
    params = circle.CircuitParams(e_c=2.0, e_j=0.6, n_g=0.3)
    trunc = circle.ChargeBasisTruncation(3)
    h = circle.build_hamiltonian(params, trunc)
    np.testing.assert_allclose(np.diag(h), 2.0 * (trunc.grid() - 0.3) ** 2)
    np.testing.assert_allclose(np.diag(h, 1), 0.3 * np.ones(trunc.dim - 1))
    np.testing.assert_array_equal(h, h.T)


def test_free_spectrum_analytic():
    params = circle.CircuitParams(e_c=1.0, e_j=0.0, n_g=0.3)
    trunc = circle.ChargeBasisTruncation(16)
    res = circle.spectrum(params, trunc, 5)
    assert res.converged
    want = np.sort((circle.ChargeBasisTruncation(32).grid() - 0.3) ** 2)[:5]
    np.testing.assert_allclose(res.energies, want, atol=1e-12)


def test_degeneracy_point_splitting():
    params = circle.CircuitParams(e_c=1.0, e_j=0.01, n_g=0.5)
    trunc = circle.ChargeBasisTruncation(16)
    res = circle.spectrum(params, trunc, 2)
    assert res.converged
    splitting = res.energies[1] - res.energies[0]
    assert splitting == pytest.approx(0.01, rel=0.01)


def test_spectrum_invariant_under_ej_sign_flip():
    trunc = circle.ChargeBasisTruncation(12)
    a = circle.spectrum(circle.CircuitParams(1.0, 0.4, 0.2), trunc, 6).energies
    b = circle.spectrum(circle.CircuitParams(1.0, -0.4, 0.2), trunc, 6).energies
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_dispersion_symmetric_in_offset_charge():
    trunc = circle.ChargeBasisTruncation(12)
    for n_g in (0.1, 0.35):
        a = circle.spectrum(circle.CircuitParams(1.0, 0.1, n_g), trunc, 4).energies
        b = circle.spectrum(circle.CircuitParams(1.0, 0.1, 1.0 - n_g), trunc, 4).energies
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_spectrum_non_convergence_flag():
    params = circle.CircuitParams(e_c=1.0, e_j=80.0)
    res = circle.spectrum(params, circle.ChargeBasisTruncation(3), 3)
    assert not res.converged


def test_evolution_identity_and_unitarity():
    params = circle.CircuitParams(e_c=1.0, e_j=0.7, n_g=0.2)
    trunc = circle.ChargeBasisTruncation(10)
    state = make_state(trunc, {0: 1 / math.sqrt(2), 1: 1j / math.sqrt(2)})
    same = circle.evolve(params, trunc, state, 0.0)
    np.testing.assert_allclose(same.amplitudes, state.amplitudes, atol=1e-14)
    moved = circle.evolve(params, trunc, state, 1.7)
    assert abs(moved.norm - 1.0) < 1e-12


def test_free_evolution_pure_phases():
    params = circle.CircuitParams(e_c=1.3, e_j=0.0, n_g=0.4)
    trunc = circle.ChargeBasisTruncation(6)
    amps = np.ones(trunc.dim, complex) / math.sqrt(trunc.dim)
    state = circle.CircleState(amps, trunc)
    out = circle.evolve(params, trunc, state, 0.9)
    want = amps * np.exp(-1j * 0.9 * 1.3 * (trunc.grid() - 0.4) ** 2)
    np.testing.assert_allclose(out.amplitudes, want, atol=1e-12)


def test_group_law():
    params = circle.CircuitParams(e_c=1.0, e_j=0.9, n_g=0.1)
    trunc = circle.ChargeBasisTruncation(10)
    state = make_state(trunc, {0: 0.6, 1: 0.8j})
    once = circle.evolve(params, trunc, circle.evolve(params, trunc, state, 0.4), 0.9)
    both = circle.evolve(params, trunc, state, 1.3)
    np.testing.assert_allclose(once.amplitudes, both.amplitudes, atol=1e-10)


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_dyson_defect_within_bound(order):
    params = circle.CircuitParams(e_c=1.0, e_j=1.0)
    trunc = circle.ChargeBasisTruncation(8)
    defect, bound = circle.dyson_defect(params, trunc, 0.5, order)
    assert defect <= bound
    # successive bounds shrink by E_J t / (K + 2)
    if order:
        prev_bound = (1.0 * 0.5) ** order / math.factorial(order)
        assert bound / prev_bound == pytest.approx(0.5 / (order + 1))


def test_dyson_terms_vs_matrix_quadrature():
    # order-by-order oracle: the hop-string decomposition must reproduce the
    # brute-force nested Gauss-Legendre integral of the explicit interaction
    # picture matrices
    from numpy.polynomial import legendre

    params = circle.CircuitParams(e_c=0.7, e_j=0.9, n_g=0.3)
    trunc = circle.ChargeBasisTruncation(4)
    t = 0.6
    grid = trunc.grid()
    h1 = 0.5 * params.e_j * (circle.build_weyl(trunc, 1) + circle.build_weyl(trunc, -1))

    def v_matrix(u):
        ph = np.exp(-1j * u * params.e_c * (grid - params.n_g) ** 2)
        return (ph[:, None] * h1) * ph.conj()[None, :]

    nodes, weights = legendre.leggauss(48)

    def gl(f, a, b):
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        return half * sum(w * f(mid + half * x) for x, w in zip(nodes, weights))

    term1 = -1j * gl(v_matrix, 0.0, t)
    term2 = -gl(lambda t1: gl(v_matrix, 0.0, t1) @ v_matrix(t1), 0.0, t)

    d0 = circle.dyson_circle(params, trunc, t, 0)
    d1 = circle.dyson_circle(params, trunc, t, 1)
    d2 = circle.dyson_circle(params, trunc, t, 2)
    assert np.max(np.abs((d1 - d0) - term1)) < 1e-12
    assert np.max(np.abs((d2 - d1) - term2)) < 1e-12


def test_dyson_terms_vs_block_exponential():
    # Van Loan: with H_0 on the diagonal and V on the superdiagonal of the
    # block-bidiagonal B, block (0, m) of expm(-i t B) is the order-m term
    # of exp(-i t (H_0 + V))
    from scipy.linalg import expm

    params = circle.CircuitParams(e_c=1.3, e_j=-0.7, n_g=0.3, charge_offset=0.5)
    trunc = circle.ChargeBasisTruncation(4, charge_offset=0.5)
    t, order, dim = 0.8, 6, trunc.dim
    h = circle.build_hamiltonian(params, trunc)
    h0 = np.diag(np.diag(h))
    blocks = np.kron(np.eye(order + 1), h0) + np.kron(np.eye(order + 1, k=1), h - h0)
    first_row = expm(-1j * t * blocks)[:dim]
    u_free = np.diag(np.exp(-1j * t * np.diag(h)))
    want = np.zeros((dim, dim), dtype=complex)
    for k in range(order + 1):
        want += first_row[:, k * dim:(k + 1) * dim]
        got = circle.dyson_circle(params, trunc, t, k) @ u_free
        assert np.max(np.abs(got - want)) < 1e-12


def test_dyson_zero_coupling_is_identity():
    params = circle.CircuitParams(e_c=1.0, e_j=0.0)
    trunc = circle.ChargeBasisTruncation(5)
    d2 = circle.dyson_circle(params, trunc, 0.8, 2)
    np.testing.assert_allclose(d2, np.eye(trunc.dim), atol=1e-14)


def test_current_on_vacuum_and_superposition():
    params = circle.CircuitParams(e_c=1.0, e_j=0.37)
    trunc = circle.ChargeBasisTruncation(6)
    vac = make_state(trunc, {0: 1.0})
    assert circle.josephson_current(params, trunc, vac) == 0.0
    plus_i = make_state(trunc, {0: 1 / math.sqrt(2), 1: 1j / math.sqrt(2)})
    got = circle.josephson_current(params, trunc, plus_i)
    assert got == pytest.approx(-0.37 / 2, abs=1e-10)


def test_current_requires_normalized_state():
    params = circle.CircuitParams(e_c=1.0, e_j=1.0)
    trunc = circle.ChargeBasisTruncation(4)
    bad = make_state(trunc, {0: 2.0})
    with pytest.raises(ParameterError):
        circle.josephson_current(params, trunc, bad)


def test_phase_peaked_state_properties():
    trunc = circle.ChargeBasisTruncation(40)
    phi_bar, width = 1.1, 0.2
    state = circle.phase_peaked_state(trunc, phi_bar, width)
    assert abs(state.norm - 1.0) < 1e-12
    up = circle.build_weyl(trunc, 1)
    phase_exp = complex(np.vdot(state.amplitudes, up @ state.amplitudes))
    assert math.isclose(np.angle(phase_exp), phi_bar, abs_tol=width)
    assert abs(phase_exp) > 0.9

    wide = circle.phase_peaked_state(trunc, phi_bar, 6.0)
    wide_exp = complex(np.vdot(wide.amplitudes, up @ wide.amplitudes))
    assert abs(wide_exp) < 0.05

    with pytest.raises(TruncationError):
        circle.phase_peaked_state(circle.ChargeBasisTruncation(8), 0.0, 0.01)


def test_current_on_phase_peaked_state():
    params = circle.CircuitParams(e_c=1.0, e_j=0.8)
    trunc = circle.ChargeBasisTruncation(40)
    for phi_bar in (0.4, 2.0, -1.2):
        state = circle.phase_peaked_state(trunc, phi_bar, 0.15)
        got = circle.josephson_current(params, trunc, state)
        assert abs(got - 0.8 * math.sin(phi_bar)) < 0.8 * 0.15


def test_current_is_charge_velocity():
    # E_J sin(phi) generates d<p>/dt = +E_J <sin phi> under the +E_J cos(phi)
    # convention used here; the familiar J = -dp/dt form is the pairing with
    # the opposite cosine sign (phi -> phi + pi maps one onto the other)
    params = circle.CircuitParams(e_c=0.9, e_j=0.6, n_g=0.2)
    flipped = circle.CircuitParams(e_c=0.9, e_j=-0.6, n_g=0.2)
    trunc = circle.ChargeBasisTruncation(40)
    state = circle.phase_peaked_state(trunc, 0.8, 0.3)
    p = circle.build_momentum(trunc)

    def velocity(evolution_params):
        h = 1e-4

        def p_expect(t):
            amps = circle.evolve(evolution_params, trunc, state, t).amplitudes
            return float(np.real(np.vdot(amps, p @ amps)))

        return (p_expect(h) - p_expect(-h)) / (2 * h)

    current = circle.josephson_current(params, trunc, state)
    assert current == pytest.approx(velocity(params), abs=1e-6)
    assert current == pytest.approx(-velocity(flipped), abs=1e-6)


def test_state_json_roundtrip():
    trunc = circle.ChargeBasisTruncation(3)
    state = make_state(trunc, {0: 0.6, 1: 0.8j})
    import json

    doc = json.loads(state.to_json())
    assert doc["n_max"] == 3
    assert doc["amplitudes"][trunc.index_of(1)] == [0.0, 0.8]


@pytest.mark.parametrize("field", ["e_c", "e_j", "n_g", "charge_offset"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_circuit_params_reject_non_finite(field, value):
    fields = {"e_c": 1.0, "e_j": 0.2, "n_g": 0.3, "charge_offset": 0.0, field: value}
    with pytest.raises(ParameterError):
        circle.CircuitParams(**fields)
