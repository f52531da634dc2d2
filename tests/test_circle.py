import math
import re
import warnings

import numpy as np
import pytest

from qfluct import circle
from qfluct.errors import NumericalError, ParameterError, TruncationError


def make_state(trunc, entries):
    amps = np.zeros(trunc.dim, complex)
    for n, a in entries.items():
        amps[trunc.index_of(n)] = a
    return amps


def propagate(params, trunc, state, t):
    return circle.propagator(params, trunc, t) @ state


def test_momentum_is_diagonal_grid():
    trunc = circle.ChargeBasisTruncation(5)
    p = np.diag(trunc.grid())
    assert p[trunc.index_of(0), trunc.index_of(0)] == 0.0
    np.testing.assert_array_equal(np.diag(p), np.arange(-5, 6))
    assert np.count_nonzero(p - np.diag(np.diag(p))) == 0


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
    p = np.diag(trunc.grid())
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
    trunc = circle.ChargeBasisTruncation(3)
    res = circle.spectrum(params, trunc, 3)
    assert not res.converged
    for k in (0, -1, trunc.dim + 1):
        with pytest.raises(ParameterError):
            circle.spectrum(params, trunc, k)


@pytest.mark.parametrize("e_j", [0.0, 0.2, 0.5, 2.0, -3.0])
@pytest.mark.parametrize("e_c", [1.0, 0.3])
def test_spectrum_bound_covers_wide_window(e_c, e_j):
    # the window levels theta_j lie above the levels lambda_j of a window
    # four times as wide, by at most the bound, both to rounding of the
    # wide solve
    for n_g in (0.0, 0.25, 0.5, 1.0):
        params = circle.CircuitParams(e_c, e_j, n_g)
        for n_max in (2, 3, 4, 6, 8, 16):
            trunc = circle.ChargeBasisTruncation(n_max)
            h_wide = circle.build_hamiltonian(params, circle.ChargeBasisTruncation(4 * n_max))
            wide = np.linalg.eigvalsh(h_wide)
            slack = 1e-13 * np.max(np.sum(np.abs(h_wide), axis=1))
            for k in (1, 5, trunc.dim):
                res = circle.spectrum(params, trunc, k)
                scale = np.max(np.abs(res.energies))
                excess = res.energies - wide[:k]
                assert np.all(excess >= -slack)
                assert np.all(excess <= res.max_rel_shift * scale + slack)


def test_spectrum_flags_level_missing_from_window():
    # without coupling the window holds (n - 1)^2 = 0, 1, 1, 4, 9, but the
    # outside charge n = 3 has energy 4 < 9, so the fifth level is 4
    res = circle.spectrum(circle.CircuitParams(1.0, 0.0, 1.0), circle.ChargeBasisTruncation(2), 5)
    assert res.energies[-1] == 9.0
    assert not res.converged
    assert res.max_rel_shift == math.inf


@pytest.mark.parametrize("n_max", [2, 3, 8])
def test_spectrum_without_coupling_converges_at_a_tie(n_max):
    # at n_g = 1/2 the outside charge n_max + 1 has the energy of the window's
    # top level -n_max: the window's levels are the circle's lowest ones
    trunc = circle.ChargeBasisTruncation(n_max)
    res = circle.spectrum(circle.CircuitParams(1.0, 0.0, 0.5), trunc, trunc.dim)
    assert res.energies[-1] == (n_max + 0.5) ** 2 == (n_max + 1 - 0.5) ** 2
    assert res.converged
    assert res.max_rel_shift == 0.0


@pytest.mark.parametrize("e_c,e_j", [(1.0, 1e200), (1.0, -1e200), (1e200, 0.2), (1e200, 1e200)])
def test_spectrum_bound_on_extreme_circuits(e_c, e_j):
    for n_max in (2, 16):
        trunc = circle.ChargeBasisTruncation(n_max)
        for k in (1, trunc.dim):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = circle.spectrum(circle.CircuitParams(e_c, e_j, 0.25), trunc, k)
            assert res.max_rel_shift >= 0


@pytest.mark.parametrize("n_g", [1e300, -1e300])
def test_charging_term_past_float_range_is_numerical_error(n_g):
    # E_C (n - n_g)^2 past the float range is named, with no warning, by
    # every call that forms it
    params = circle.CircuitParams(1.0, 0.2, n_g)
    trunc = circle.ChargeBasisTruncation(8)
    calls = [lambda: circle.spectrum(params, trunc, 3),
             lambda: circle.propagator(params, trunc, 0.3),
             lambda: circle.dyson_circle(params, trunc, 0.3, 2),
             lambda: circle.dyson_defect(params, trunc, 0.3, 2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(NumericalError, match=re.escape(f"e_c=1.0, n_g={n_g!r}")):
                call()


def test_spectrum_floor_past_float_range_is_numerical_error():
    # the window's charging terms are finite (1.2e308 at n = 2), the
    # outside's Gershgorin floor 3e307 * 3^2 is not
    params = circle.CircuitParams(3e307, 0.2, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=re.escape("e_c=3e+307, n_g=0.0")):
            circle.spectrum(params, circle.ChargeBasisTruncation(2), 3)


def test_evolution_identity_and_unitarity():
    params = circle.CircuitParams(e_c=1.0, e_j=0.7, n_g=0.2)
    trunc = circle.ChargeBasisTruncation(10)
    state = make_state(trunc, {0: 1 / math.sqrt(2), 1: 1j / math.sqrt(2)})
    same = propagate(params, trunc, state, 0.0)
    np.testing.assert_allclose(same, state, atol=1e-14)
    moved = propagate(params, trunc, state, 1.7)
    assert abs(np.linalg.norm(moved) - 1.0) < 1e-12


def test_free_evolution_pure_phases():
    params = circle.CircuitParams(e_c=1.3, e_j=0.0, n_g=0.4)
    trunc = circle.ChargeBasisTruncation(6)
    amps = np.ones(trunc.dim, complex) / math.sqrt(trunc.dim)
    out = propagate(params, trunc, amps, 0.9)
    want = amps * np.exp(-1j * 0.9 * 1.3 * (trunc.grid() - 0.4) ** 2)
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_group_law():
    params = circle.CircuitParams(e_c=1.0, e_j=0.9, n_g=0.1)
    trunc = circle.ChargeBasisTruncation(10)
    state = make_state(trunc, {0: 0.6, 1: 0.8j})
    once = propagate(params, trunc, propagate(params, trunc, state, 0.4), 0.9)
    both = propagate(params, trunc, state, 1.3)
    np.testing.assert_allclose(once, both, atol=1e-10)


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

    # n_g = 0.3 - 1/2 on the integer grid is n_g = 0.3 on the half-integer one
    params = circle.CircuitParams(e_c=1.3, e_j=-0.7, n_g=0.3 - 0.5)
    trunc = circle.ChargeBasisTruncation(4)
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
    unit = make_state(trunc, {0: 1.0})
    nan = unit.copy()
    nan[1] = math.nan
    for bad in (2.0 * unit, unit[:-1], unit[:, None], nan):
        with pytest.raises(ParameterError):
            circle.josephson_current(params, trunc, bad)


def test_phase_peaked_state_properties():
    trunc = circle.ChargeBasisTruncation(40)
    phi_bar, width = 1.1, 0.2
    state = circle.phase_peaked_state(trunc, phi_bar, width)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12
    up = circle.build_weyl(trunc, 1)
    phase_exp = complex(np.vdot(state, up @ state))
    assert math.isclose(np.angle(phase_exp), phi_bar, abs_tol=width)
    assert abs(phase_exp) > 0.9

    wide = circle.phase_peaked_state(trunc, phi_bar, 6.0)
    wide_exp = complex(np.vdot(wide, up @ wide))
    assert abs(wide_exp) < 0.05

    with pytest.raises(TruncationError):
        circle.phase_peaked_state(circle.ChargeBasisTruncation(8), 0.0, 0.01)


@pytest.mark.parametrize("phi_bar,width", [(0.0, math.nan), (math.nan, 0.5),
                                           (math.inf, 0.5), (0.0, math.inf)])
def test_phase_peaked_state_rejects_non_finite(phi_bar, width):
    with pytest.raises(ParameterError):
        circle.phase_peaked_state(circle.ChargeBasisTruncation(8), phi_bar, width)


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
    p = np.diag(trunc.grid())

    def velocity(evolution_params):
        h = 1e-4

        def p_expect(t):
            amps = propagate(evolution_params, trunc, state, t)
            return float(np.real(np.vdot(amps, p @ amps)))

        return (p_expect(h) - p_expect(-h)) / (2 * h)

    current = circle.josephson_current(params, trunc, state)
    assert current == pytest.approx(velocity(params), abs=1e-6)
    assert current == pytest.approx(-velocity(flipped), abs=1e-6)


@pytest.mark.parametrize("field", ["e_c", "e_j", "n_g"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_circuit_params_reject_non_finite(field, value):
    fields = {"e_c": 1.0, "e_j": 0.2, "n_g": 0.3, field: value}
    with pytest.raises(ParameterError):
        circle.CircuitParams(**fields)
