import numpy as np
import pytest

from qfluct import correlators, dense, junction, sectors
from qfluct.errors import NormalPhaseError, ParameterError

PARAMS = junction.JunctionParams(
    left=sectors.ModelParams(epsilon=0.2, t_c=1.0, beta=2.0),
    right=sectors.ModelParams(epsilon=0.0, t_c=1.2, beta=2.0),
    lam=0.8, e_c=0.5, n_g=0.25, beta=2.0,
)
GAPS = junction.layer_gaps(PARAMS)

ELEMENTS = [((0, 0), (0, 0)), ((0, 0), (1, -1)), ((1, -1), (1, -1)),
            ((1, 0), (0, 1)), ((-1, 1), (0, 0))]


def dense_oracle(params=PARAMS, gaps=GAPS):
    pl, pr = params.layer_params()
    return dense.DenseJunction(pl, pr, params.lam, params.e_c, params.n_g,
                               gaps[0], gaps[1], 2)


def test_layer_gaps_normal_phase_rejected():
    hot = junction.JunctionParams(
        left=sectors.ModelParams(epsilon=0.0, t_c=1.0, beta=0.5),
        right=sectors.ModelParams(epsilon=0.0, t_c=1.0, beta=0.5),
        lam=1.0, e_c=1.0, n_g=0.0, beta=0.5,
    )
    with pytest.raises(NormalPhaseError):
        junction.layer_gaps(hot)
    with pytest.raises(NormalPhaseError):
        list(junction.chain_batches(hot, 4, (0, 0), (0, 0)))


def all_chains(params=PARAMS, n_spins=4):
    # the (0, 0) -> (0, 0) element reaches every sector pair with unit
    # ladder amplitudes and normalization
    return list(junction.chain_batches(params, n_spins, (0, 0), (0, 0), gaps=GAPS))


def test_blocks_hermitian_and_diagonal_without_coupling():
    batches = all_chains()
    assert sum(batch.weight.size for batch in batches) == 9 * 9  # (s, sz) pairs per side
    hop_scale = PARAMS.lam / 4**2
    for batch in batches:
        # the hop (a, b) -> (a+1, b-1) equals its reverse (a+1, b-1) -> (a, b)
        reverse = (hop_scale
                   * sectors.ladder_coefficient(batch.s_l, batch.a[:, 1:], -1)
                   * sectors.ladder_coefficient(batch.s_r[:, None], batch.b[:, 1:], 1))
        np.testing.assert_allclose(batch.hop, reverse, rtol=1e-14, atol=0)

    decoupled = junction.JunctionParams(
        left=PARAMS.left, right=PARAMS.right, lam=0.0, e_c=PARAMS.e_c,
        n_g=PARAMS.n_g, beta=PARAMS.beta)
    for batch in all_chains(decoupled):
        assert np.count_nonzero(batch.hop) == 0


def test_blockwise_charge_conservation():
    # every chain keeps a + b fixed while each hop moves one pair across
    for batch in all_chains():
        for c, n in enumerate(batch.length):
            a, b = batch.a[c, :n], batch.b[c, :n]
            assert np.all(a + b == a[0] + b[0])
            np.testing.assert_array_equal(np.diff(a), 1.0)
            assert not np.any(batch.hop[c, n - 1:])  # no hop out of the chain


def test_block_weights_sum_to_one():
    total = sum(batch.weight.sum() for batch in all_chains())
    assert total == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("source,target", ELEMENTS)
def test_elements_match_dense_oracle(source, target):
    oracle = dense_oracle()
    fast = junction.evolution_element(PARAMS, 2, source, target, 0.7, gaps=GAPS).value
    slow = oracle.element(source, target, 0.7)
    assert fast == pytest.approx(slow, abs=1e-10)


def test_element_at_time_zero():
    el = junction.evolution_element(PARAMS, 4, (0, 0), (0, 0), 0.0, gaps=GAPS)
    assert el.value == pytest.approx(1.0, abs=1e-12)
    # conserving but distinct labels: orthogonality of the block propagator
    # columns, exact up to eigensolver roundoff
    el = junction.evolution_element(PARAMS, 4, (0, 0), (1, -1), 0.0, gaps=GAPS)
    assert abs(el.value) < 1e-13
    # excited diagonal elements are squared state norms, 1 + O(1/N)
    el = junction.evolution_element(PARAMS, 8, (1, -1), (1, -1), 0.0, gaps=GAPS)
    assert el.value.imag == pytest.approx(0.0, abs=1e-12)
    assert el.value.real == pytest.approx(1.0, abs=0.5)


def test_charge_violating_elements_vanish_exactly():
    el = junction.evolution_element(PARAMS, 4, (0, 0), (1, 1), 0.9, gaps=GAPS)
    assert el.value == 0j
    oracle = dense_oracle()
    assert abs(oracle.element((0, 0), (1, 1), 0.9)) < 1e-12
    assert junction.circle_element(PARAMS, (0, 0), (1, 1), 0.9, gaps=GAPS) == 0j


def test_relabel_symmetry():
    swapped = junction.JunctionParams(
        left=PARAMS.right, right=PARAMS.left, lam=PARAMS.lam, e_c=PARAMS.e_c,
        n_g=-PARAMS.n_g, beta=PARAMS.beta)
    gaps_swapped = (GAPS[1], GAPS[0])
    for (s, t) in [((0, 0), (1, -1)), ((1, 0), (0, 1))]:
        a = junction.evolution_element(PARAMS, 4, s, t, 0.6, gaps=GAPS).value
        b = junction.evolution_element(swapped, 4, (s[1], s[0]), (t[1], t[0]), 0.6,
                                       gaps=gaps_swapped).value
        assert a == pytest.approx(b, abs=1e-12)


def test_bessel_inequality_for_normalized_family():
    # sum over reachable targets of |<target|U|source>|^2 cannot exceed the
    # squared norm of the source state (read off at t = 0)
    source = (1, -1)
    norm_sq = junction.evolution_element(PARAMS, 4, source, source, 0.0,
                                         gaps=GAPS).value.real
    total = 0.0
    for shift in range(-3, 4):
        target = (source[0] + shift, source[1] - shift)
        total += abs(junction.evolution_element(PARAMS, 4, source, target, 0.8,
                                                gaps=GAPS).value) ** 2
    assert total <= norm_sq + 1e-10


def test_circle_comparator_free_limit():
    # lam = 0 and e_c = 0: the circle-side Hamiltonian vanishes, so the
    # prediction is a Kronecker delta at any time
    free = junction.JunctionParams(
        left=PARAMS.left, right=PARAMS.right, lam=0.0, e_c=1e-12,
        n_g=0.0, beta=PARAMS.beta)
    assert junction.circle_element(free, (0, 0), (1, -1), 2.3, gaps=GAPS) \
        == pytest.approx(0.0, abs=1e-10)
    assert junction.circle_element(free, (1, -1), (1, -1), 2.3, gaps=GAPS) \
        == pytest.approx(1.0, abs=1e-10)


def test_meso_compare_trend():
    params = junction.JunctionParams(
        left=sectors.ModelParams(epsilon=0.0, t_c=1.0, beta=2.0),
        right=sectors.ModelParams(epsilon=0.0, t_c=1.0, beta=2.0),
        lam=1.0, e_c=0.4, n_g=0.2, beta=2.0,
    )
    rows = junction.meso_compare(params, [4, 8, 12], [((0, 0), (1, -1))], 0.3)
    row = rows[0]
    assert row.non_increasing_after_first
    assert row.abs_errors[-1] < row.abs_errors[0]
    assert abs(row.circle_value) > 0


def test_half_integer_relative_grid():
    # odd total charge puts the relative coordinate on the half-integer grid
    params = junction.JunctionParams(
        left=sectors.ModelParams(epsilon=0.0, t_c=1.0, beta=2.0),
        right=sectors.ModelParams(epsilon=0.0, t_c=1.0, beta=2.0),
        lam=1.0, e_c=0.4, n_g=0.2, beta=2.0,
    )
    rows = junction.meso_compare(params, [4, 8, 12], [((1, 0), (0, 1))], 0.3)
    row = rows[0]
    assert abs(row.circle_value) > 0
    assert row.non_increasing_after_first
    assert row.abs_errors[-1] < row.abs_errors[0]


def test_identity_element_error_trend():
    rows = junction.meso_compare(PARAMS, [4, 8, 12], [((0, 0), (0, 0))], 0.4,
                                 gaps=GAPS)
    errs = rows[0].abs_errors
    assert errs[-1] < errs[0]


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_dyson_junction_bound(order):
    devs, bound = junction.dyson_junction_defect(PARAMS, 4, 0.4, order, ELEMENTS,
                                                 gaps=GAPS)
    assert max(devs.values()) <= bound


def test_dyson_bound_uniform_in_size():
    for n in (4, 8):
        devs, bound = junction.dyson_junction_defect(PARAMS, n, 0.4, 2, ELEMENTS,
                                                     gaps=GAPS)
        assert max(devs.values()) <= bound


def test_dyson_zero_coupling_identity():
    free = junction.JunctionParams(
        left=PARAMS.left, right=PARAMS.right, lam=0.0, e_c=PARAMS.e_c,
        n_g=PARAMS.n_g, beta=PARAMS.beta)
    devs, _ = junction.dyson_junction_defect(free, 4, 0.9, 3, ELEMENTS, gaps=GAPS)
    assert max(devs.values()) < 1e-12


def test_dyson_terms_vs_dense_matrix_quadrature():
    # order-by-order oracle on the doubled two-layer space: compare the
    # chain-path evaluation against nested Gauss-Legendre quadrature of the
    # dense interaction-picture matrices
    from numpy.polynomial import legendre
    from scipy.linalg import eigh

    pl, pr = PARAMS.layer_params()
    full = dense.DenseJunction(pl, pr, PARAMS.lam, PARAMS.e_c, PARAMS.n_g,
                               GAPS[0], GAPS[1], 2)
    free = dense.DenseJunction(pl, pr, 0.0, PARAMS.e_c, PARAMS.n_g,
                               GAPS[0], GAPS[1], 2)
    h0 = free.hamiltonian
    h_int = full.hamiltonian - h0
    evals0, vecs0 = eigh(h0)
    t = 0.4

    # in the eigenbasis of H_0 the interaction picture is elementwise phases
    v_tilde = vecs0.T @ h_int @ vecs0
    bohr = evals0[:, None] - evals0[None, :]

    def v_matrix(u):
        return v_tilde * np.exp(-1j * u * bohr)

    nodes, weights = legendre.leggauss(32)

    def gl(f, a, b):
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        return half * sum(w * f(mid + half * x) for x, w in zip(nodes, weights))

    term1 = -1j * gl(v_matrix, 0.0, t)
    term2 = -gl(lambda t1: gl(v_matrix, 0.0, t1) @ v_matrix(t1), 0.0, t)

    d0 = junction.dyson_junction(PARAMS, 2, t, 0, ELEMENTS, gaps=GAPS)
    d1 = junction.dyson_junction(PARAMS, 2, t, 1, ELEMENTS, gaps=GAPS)
    d2 = junction.dyson_junction(PARAMS, 2, t, 2, ELEMENTS, gaps=GAPS)
    u0t_phase = np.exp(-1j * t * evals0)
    for src, tgt in ELEMENTS:
        bra = vecs0.T @ full.charge_state(*tgt)
        ket = u0t_phase * (vecs0.T @ full.charge_state(*src))
        ref1 = complex(bra.conj() @ (term1 @ ket))
        ref2 = complex(bra.conj() @ (term2 @ ket))
        assert d1[(src, tgt)] - d0[(src, tgt)] == pytest.approx(ref1, abs=1e-12)
        assert d2[(src, tgt)] - d1[(src, tgt)] == pytest.approx(ref2, abs=1e-12)


def test_dyson_terms_vs_block_exponential():
    # Van Loan: with H_0 on the diagonal and V on the superdiagonal of the
    # block-bidiagonal B, block (0, m) of expm(-i t B) is the order-m term
    # of exp(-i t H); H conserves the total charge, so B is built on the
    # charge sector of each element
    from scipy.linalg import expm

    pl, pr = PARAMS.layer_params()
    full = dense_oracle()
    free = dense.DenseJunction(pl, pr, 0.0, PARAMS.e_c, PARAMS.n_g,
                               GAPS[0], GAPS[1], 2)
    t, order = 0.4, 4
    got = [junction.dyson_junction(PARAMS, 2, t, k, ELEMENTS, gaps=GAPS)
           for k in range(order + 1)]
    for src, tgt in ELEMENTS:
        sector = np.rint(np.diag(full.p_total)) == sum(src)
        h0 = free.hamiltonian[np.ix_(sector, sector)]
        v = full.hamiltonian[np.ix_(sector, sector)] - h0
        dim = h0.shape[0]
        blocks = np.kron(np.eye(order + 1), h0) + np.kron(np.eye(order + 1, k=1), v)
        first_row = expm(-1j * t * blocks)[:dim]
        ket = full.charge_state(*src)[sector]
        bra = full.charge_state(*tgt)[sector]
        want = 0j
        for k in range(order + 1):
            want += complex(bra.conj() @ first_row[:, k * dim:(k + 1) * dim] @ ket)
            assert got[k][(src, tgt)] == pytest.approx(want, abs=1e-12)


def test_dyson_rejects_bad_order():
    with pytest.raises(ParameterError):
        junction.dyson_junction(PARAMS, 4, 0.4, -1, ELEMENTS, gaps=GAPS)


def test_two_layer_correlator_factorizes():
    left = correlators.FluctuationWord.from_triples([[0.3, 1, 1]])
    right = correlators.FluctuationWord.from_triples([[0.0, 0, 1], [0.2, 1, 0]])
    got = junction.two_layer_correlator(PARAMS, 4, left, right, gaps=GAPS)
    pl, pr = PARAMS.layer_params()
    want = (correlators.correlation_finite_n(pl, 4, left, GAPS[0])
            * correlators.correlation_finite_n(pr, 4, right, GAPS[1]))
    assert got == want

    # identity words
    empty = correlators.FluctuationWord.from_triples([])
    assert junction.two_layer_correlator(PARAMS, 4, empty, empty, gaps=GAPS) == 1.0
    # one unbalanced side kills the product
    bad = correlators.FluctuationWord.from_triples([[0.0, 1, 0]])
    assert junction.two_layer_correlator(PARAMS, 4, bad, left, gaps=GAPS) == 0j


def test_two_layer_correlator_vs_dense():
    oracle = dense_oracle()
    words = [
        ([[0.0, 1, 1]], [[0.4, 1, 1]]),
        ([[0.3, 0, 1], [0.0, 1, 0]], [[0.0, 2, 2]]),
        ([], [[0.9, 1, 1]]),
    ]
    for lw, rw in words:
        left = correlators.FluctuationWord.from_triples(lw)
        right = correlators.FluctuationWord.from_triples(rw)
        fast = junction.two_layer_correlator(PARAMS, 2, left, right, gaps=GAPS)
        slow = oracle.word_expectation(left, right)
        assert fast == pytest.approx(slow, abs=1e-12)


@pytest.mark.parametrize("field", ["lam", "e_c", "n_g", "beta"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_junction_params_reject_non_finite(field, value):
    fields = {"left": PARAMS.left, "right": PARAMS.right, "lam": 0.8, "e_c": 0.5,
              "n_g": 0.25, "beta": 2.0, field: value}
    with pytest.raises(ParameterError):
        junction.JunctionParams(**fields)
