import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from qfluct import circle, correlators, dense, gap, junction, quadrature, sectors
from qfluct.errors import NormalPhaseError, NumericalError, ParameterError

PARAMS = junction.JunctionParams(
    left=sectors.ModelParams(epsilon=0.2, t_c=1.0, beta=2.0),
    right=sectors.ModelParams(epsilon=0.0, t_c=1.2, beta=2.0),
    lam=0.8, e_c=0.5, n_g=0.25, beta=2.0,
)
GAPS = junction.layer_gaps(PARAMS)

ELEMENTS = [((0, 0), (0, 0)), ((0, 0), (1, -1)), ((1, -1), (1, -1)),
            ((1, 0), (0, 1)), ((-1, 1), (0, 0))]


def dense_oracle(params=PARAMS, gaps=GAPS):
    return dense.DenseJunction(params.left, params.right, params.lam, params.e_c, params.n_g,
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


def chain_sites(batch):
    """The sites of each chain of a batch, as slices of its flat arrays."""
    stops = np.append(batch.first[1:], batch.diag.size)
    return [slice(first, stop) for first, stop in zip(batch.first, stops)]


def test_blocks_hermitian_and_diagonal_without_coupling():
    batches = all_chains()
    assert sum(batch.weight.size for batch in batches) == 9 * 9  # (s, sz) pairs per side
    hop_scale = PARAMS.lam / 4**2
    for batch in batches:
        for c, sites in enumerate(chain_sites(batch)):
            a, b = batch.a[sites], batch.b[sites]
            # the hop (a, b) -> (a+1, b-1) equals its reverse (a+1, b-1) -> (a, b)
            reverse = (hop_scale
                       * sectors.ladder_coefficient(batch.s_l[c], a[1:], -1)
                       * sectors.ladder_coefficient(batch.s_r[c], b[1:], 1))
            np.testing.assert_allclose(batch.hop[sites.start:sites.stop - 1], reverse,
                                       rtol=1e-14, atol=0)

    decoupled = junction.JunctionParams(
        left=PARAMS.left, right=PARAMS.right, lam=0.0, e_c=PARAMS.e_c,
        n_g=PARAMS.n_g, beta=PARAMS.beta)
    for batch in all_chains(decoupled):
        assert np.count_nonzero(batch.hop) == 0


def test_blockwise_charge_conservation():
    # every chain keeps a + b fixed while each hop moves one pair across
    for batch in all_chains():
        assert batch.hop.size == batch.diag.size - 1
        for c, sites in enumerate(chain_sites(batch)):
            a, b = batch.a[sites], batch.b[sites]
            assert np.all(a + b == a[0] + b[0])
            np.testing.assert_array_equal(np.diff(a), 1.0)
            assert sites.start <= batch.start[c] < sites.stop
            assert sites.start <= batch.end[c] < sites.stop
            if sites.stop < batch.diag.size:  # no hop out of the chain
                assert batch.hop[sites.stop - 1] == 0.0


def test_block_weights_sum_to_one():
    total = sum(batch.weight.sum() for batch in all_chains())
    assert total == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("source,target", ELEMENTS)
def test_elements_match_dense_oracle(source, target):
    oracle = dense_oracle()
    fast = junction.evolution_element(PARAMS, 2, source, target, 0.7, gaps=GAPS).value
    slow = oracle.element(source, target, 0.7)
    assert fast == pytest.approx(slow, abs=1e-10)


def unpacked_element(n_spins, source, target, t):
    """The element one chain at a time: one eigensolve per chain, and the
    weighted terms summed exactly by ``math.fsum``."""
    terms = []
    for batch in junction.chain_batches(PARAMS, n_spins, source, target, gaps=GAPS):
        for c, sites in enumerate(chain_sites(batch)):
            first, n = sites.start, sites.stop - sites.start
            if n > 1:
                evals, vecs = scipy.linalg.eigh_tridiagonal(batch.diag[sites],
                                                            batch.hop[first:sites.stop - 1])
            else:
                evals, vecs = batch.diag[sites], np.ones((1, 1))
            terms.append(batch.weight[c] * complex(
                (vecs[batch.end[c] - first] * np.exp(-1j * t * evals))
                @ vecs[batch.start[c] - first]))
    return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))


@pytest.mark.parametrize("n_spins", [8, 12, 20])
@pytest.mark.parametrize("source,target", [((0, 0), (1, -1)), ((1, 0), (0, 1))])
def test_element_matches_unpacked_reference(n_spins, source, target):
    want = unpacked_element(n_spins, source, target, 0.7)
    got = junction.evolution_element(PARAMS, n_spins, source, target, 0.7,
                                     gaps=GAPS).value
    assert abs(got - want) <= 2e-15 * abs(want)


def laid_sites(parts, field):
    """A site-index field of chunks, as indices into all of their sites laid
    end to end."""
    offsets = np.cumsum([0] + [part.diag.size for part in parts[:-1]])
    return np.concatenate([getattr(part, field) + o for part, o in zip(parts, offsets)])


def reached_entries(layer, n_spins, n, n_p):
    """The number of table entries of a layer that both charges reach."""
    s, sz, _ = sectors.thermal_table(layer, n_spins).flat()
    return np.count_nonzero(sectors.ladder_coefficient(s, sz, n)
                            * sectors.ladder_coefficient(s, sz, n_p))


@pytest.mark.parametrize("source,target", [((0, 0), (1, -1)), ((0, 0), (0, 0))])
def test_solver_counts_every_chain_site(monkeypatch, source, target):
    # a one-site bound makes each left table entry a chunk of its own
    entries = list(junction.chain_batches(PARAMS, 8, source, target, gaps=GAPS, sites=1))
    assert sum(entry.first.size for entry in entries) == (
        reached_entries(PARAMS.left, 8, source[0], target[0])
        * reached_entries(PARAMS.right, 8, source[1], target[1]))
    chunks = []  # every chunk the propagator is given
    propagate = junction._chain_elements
    monkeypatch.setattr(junction, "_chain_elements",
                        lambda chunk, t: chunks.append(chunk) or propagate(chunk, t))
    values = []
    # at N = 8 the entries hold 56 to 120 sites: a 100-site bound leaves
    # some of them chunks of their own, and 8192 takes them all
    for sites in (100, 256, 8192):
        # the entries' sites are counted in blocks of about _CHUNK_SITES
        # pairs: at 100 and 256 there are several blocks
        monkeypatch.setattr(junction, "_CHUNK_SITES", sites)
        batches = list(junction.chain_batches(PARAMS, 8, source, target, gaps=GAPS,
                                              sites=sites))
        # every chain once, in order, and no hop from one chunk to the next
        for field in ("s_l", "s_r", "weight", "a", "b", "diag"):
            np.testing.assert_array_equal(
                np.concatenate([getattr(batch, field) for batch in batches]),
                np.concatenate([getattr(entry, field) for entry in entries]))
        np.testing.assert_array_equal(
            np.concatenate([np.append(batch.hop, 0.0) for batch in batches]),
            np.concatenate([np.append(entry.hop, 0.0) for entry in entries]))
        for field in ("first", "start", "end"):
            np.testing.assert_array_equal(laid_sites(batches, field),
                                          laid_sites(entries, field))
        # each chunk is a run of whole entries, as many as fit in the bound:
        # it is larger only if it is one entry, and the next entry would
        # not have fitted
        taken = 0
        for batch in batches:
            run = taken + 1
            while run < len(entries) and sum(
                    entry.first.size for entry in entries[taken:run]) < batch.first.size:
                run += 1
            assert sum(entry.diag.size for entry in entries[taken:run]) == batch.diag.size
            assert batch.diag.size <= sites or run == taken + 1
            if run < len(entries):
                assert batch.diag.size + entries[run].diag.size > sites
            taken = run
        assert taken == len(entries)
        if sites == 100:
            assert max(batch.diag.size for batch in batches) > 100
        # the element propagates exactly these chunks
        chunks.clear()
        values.append(junction.evolution_element(PARAMS, 8, source, target, 0.7,
                                                 gaps=GAPS).value)
        assert [chunk.diag.size for chunk in chunks] == [batch.diag.size for batch in batches]
        assert values[-1] == sum((junction._weighted_elements(batch, 0.7)
                                  for batch in batches), 0j)
    # another grouping scales and sums the chains otherwise, to rounding
    for value in values[:-1]:
        assert value == pytest.approx(values[-1], rel=1e-15, abs=0)


def test_recursion_matches_chain_by_chain_exponential():
    # one recursion over chains of very different lengths, a one-site chain
    # among them and one at the end
    rng = np.random.default_rng(3)
    length = np.array([3, 200, 1, 5, 130, 1])
    first = np.cumsum(length) - length
    diag = rng.normal(size=length.sum())
    hop = rng.normal(size=length.sum() - 1)
    hop[first[1:] - 1] = 0.0  # no hop from one chain to the next
    start = first + np.array([rng.integers(n) for n in length])
    end = first + np.array([rng.integers(n) for n in length])
    # the sector and charge labels are not read by the propagation
    labels, site_labels = np.zeros(length.size), np.zeros(diag.size)
    batch = junction.ChainBatch(s_l=labels, s_r=labels, weight=labels, a=site_labels,
                                b=site_labels, diag=diag, hop=hop, first=first,
                                start=start, end=end)
    got = junction._chain_elements(batch, 0.9)
    for c, sites in enumerate(chain_sites(batch)):
        inner = hop[sites.start:sites.stop - 1]
        h = np.diag(diag[sites]) + np.diag(inner, 1) + np.diag(inner, -1)
        want = scipy.linalg.expm(-0.9j * h)[end[c] - first[c], start[c] - first[c]]
        assert got[c] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("n_spins", [8, 12])
@pytest.mark.parametrize("source,target", [((0, 0), (1, -1)), ((1, 0), (0, 1)),
                                           ((0, 0), (0, 0))])
def test_element_at_negative_time_is_conjugate(n_spins, source, target):
    # the chains are real, so exp(i t H) is the conjugate of exp(-i t H)
    forward = junction.evolution_element(PARAMS, n_spins, source, target, 0.7,
                                         gaps=GAPS).value
    backward = junction.evolution_element(PARAMS, n_spins, source, target, -0.7,
                                          gaps=GAPS).value
    assert abs(backward - forward.conjugate()) <= 2e-15 * abs(forward)


@pytest.mark.parametrize("x", [0.1, 1.0, 30.0, 300.0])
def test_bessel_coefficients_match_mpmath(x):
    mpmath = pytest.importorskip("mpmath")
    order = junction._chebyshev_order(x)
    got = junction._bessel_j(x, order)
    want = [mpmath.besselj(k, x) for k in range(order + 1)]
    for k, value in enumerate(got):
        assert abs(value - want[k]) <= 4e-16
        if k > x:  # the decaying tail, relative
            assert abs(value - want[k]) <= 1e-14 * abs(want[k])
    # the terms past the order sum to at most the tail bound (they fall
    # faster than geometrically, so 40 of them are the whole sum to rounding)
    assert 2 * sum(abs(mpmath.besselj(k, x)) for k in range(order + 1, order + 41)) <= junction._TAIL


def test_element_at_long_time_matches_unpacked_reference():
    # t R is past 100 here, so the recursion runs to order 200 and more
    want = unpacked_element(12, (0, 0), (1, -1), 10.0)
    got = junction.evolution_element(PARAMS, 12, (0, 0), (1, -1), 10.0, gaps=GAPS).value
    assert abs(got - want) <= 1e-13


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_time_rejected(t):
    circuit = circle.CircuitParams(e_c=1.0, e_j=0.5, n_g=0.0)
    trunc = circle.ChargeBasisTruncation(4)

    def junction_calls(source, target):
        return [
            lambda: junction.evolution_element(PARAMS, 4, source, target, t, gaps=GAPS),
            lambda: junction.circle_element(PARAMS, source, target, t, gaps=GAPS),
            lambda: junction.dyson_junction(PARAMS, 4, t, 2, [(source, target)], gaps=GAPS),
            lambda: junction.dyson_junction_defect(PARAMS, 4, t, 2, [(source, target)],
                                                   gaps=GAPS),
        ]
    # a charge-violating element has no chains, so only the time check
    # rejects it
    calls = junction_calls((0, 0), (1, -1)) + junction_calls((0, 0), (1, 1)) + [
        lambda: circle.propagator(circuit, trunc, t),
        lambda: circle.dyson_defect(circuit, trunc, t, 2),
        lambda: quadrature.chain_dyson([0.0, 1.0], [0.5], [0], np.eye(2), t, 2),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match="t must be finite"):
            call()


@pytest.mark.parametrize("t", [1e12, 1e308])
def test_order_cap_raises_numerical_error(t):
    # at 1e308, t R is past float range
    with pytest.raises(NumericalError, match=f"above {junction._ORDER_MAX}"):
        junction.evolution_element(PARAMS, 4, (0, 0), (1, -1), t, gaps=GAPS)


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
    assert list(junction.chain_batches(PARAMS, 4, (0, 0), (1, 1), gaps=GAPS)) == []
    el = junction.evolution_element(PARAMS, 4, (0, 0), (1, 1), 0.9, gaps=GAPS)
    assert el.value == 0j
    assert junction.dyson_junction(PARAMS, 4, 0.9, 2, [((0, 0), (1, 1))],
                                   gaps=GAPS) == {((0, 0), (1, 1)): 0j}
    oracle = dense_oracle()
    assert abs(oracle.element((0, 0), (1, 1), 0.9)) < 1e-12
    assert junction.circle_element(PARAMS, (0, 0), (1, 1), 0.9, gaps=GAPS) == 0j


@pytest.mark.parametrize("source,target", [((0, 0), (0.5, -0.5)), ((0.5, 0), (0, 0.5)),
                                           ((0, math.nan), (0, 0)), ((0, 0), (math.inf, 0)),
                                           ((0, 0), (1, 1.5))])
def test_non_integer_charge_label_rejected(source, target):
    calls = [
        lambda: list(junction.chain_batches(PARAMS, 4, source, target, gaps=GAPS)),
        lambda: junction.evolution_element(PARAMS, 4, source, target, 0.3, gaps=GAPS),
        lambda: junction.circle_element(PARAMS, source, target, 0.3, gaps=GAPS),
        lambda: junction.dyson_junction(PARAMS, 4, 0.3, 2, [(source, target)], gaps=GAPS),
        lambda: junction.dyson_junction_defect(PARAMS, 4, 0.3, 2, [(source, target)],
                                               gaps=GAPS),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match="charge labels must be integers"):
            call()


def test_integral_float_charge_labels_accepted():
    want = junction.evolution_element(PARAMS, 4, (0, 0), (1, -1), 0.3, gaps=GAPS)
    got = junction.evolution_element(PARAMS, 4, (0.0, 0.0), (1.0, np.int64(-1)), 0.3,
                                     gaps=GAPS)
    assert got.source == (0, 0) and got.target == (1, -1) and got.value == want.value


EQUAL_LAYERS = junction.JunctionParams(
    left=sectors.ModelParams(epsilon=0.0, t_c=1.0, beta=2.0),
    right=sectors.ModelParams(epsilon=0.0, t_c=1.0, beta=2.0),
    lam=1.0, e_c=0.5, n_g=0.25, beta=2.0,
)


@pytest.mark.parametrize("params", [EQUAL_LAYERS, PARAMS], ids=["equal", "unequal"])
@pytest.mark.parametrize("n_spins", [4, 8, 16, 32])
def test_first_order_coefficient_is_two_pair_correlators(params, n_spins):
    # the element (0,0) -> (1,-1) is -iSt + O(t^2): each start-site hop is
    # lambda/N^2 times one left and one right ladder factor, and the pair
    # weights factor the same way, so S is a product of one-layer words
    gaps = junction.layer_gaps(params)
    s = sum(float(np.dot(batch.weight, batch.hop[batch.start])) for batch in
            junction.chain_batches(params, n_spins, (0, 0), (1, -1), gaps=gaps))
    lower_raise = correlators.FluctuationWord.from_triples([[0.0, 1, 1]])
    raise_lower = correlators.FluctuationWord.from_triples([[0.0, 0, 1], [0.0, 1, 0]])
    want = (params.lam * gaps[0].delta * gaps[1].delta
            * correlators.correlation_finite_n(params.left, n_spins, lower_raise, gaps[0])
            * correlators.correlation_finite_n(params.right, n_spins, raise_lower, gaps[1]))
    assert want.imag == 0.0
    assert abs(s - want.real) <= 1e-14 * abs(want.real)


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


@pytest.mark.parametrize("source,target", [((1, 0), (0, 1)), ((2, -1), (0, 1))])
def test_odd_total_circle_element_on_half_integer_grid(source, target):
    # the relative charge (nL - nR)/2 of an odd total is a half-integer; the
    # propagator built here on the half-integer grid is the reference
    e_j = gap.josephson_energy(PARAMS.lam, GAPS[0].delta, GAPS[1].delta)
    grid = np.arange(-48, 49) + 0.5
    h = (np.diag(PARAMS.e_c * (grid - PARAMS.n_g) ** 2)
         + np.diag(np.full(grid.size - 1, 0.5 * e_j), 1)
         + np.diag(np.full(grid.size - 1, 0.5 * e_j), -1))
    evals, vecs = np.linalg.eigh(h)
    u = (vecs * np.exp(-1j * 0.9 * evals)) @ vecs.T
    index = {n: i for i, n in enumerate(grid)}
    want = u[index[(target[0] - target[1]) / 2], index[(source[0] - source[1]) / 2]]
    got = junction.circle_element(PARAMS, source, target, 0.9, gaps=GAPS)
    assert abs(want) > 1e-3
    assert abs(got - want) <= 1e-14


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

    pl, pr = PARAMS.left, PARAMS.right
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

    pl, pr = PARAMS.left, PARAMS.right
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


CRITERION_8_ELEMENTS = ELEMENTS[:4]


@pytest.mark.parametrize("n_spins", [4, 6])
def test_dyson_defect_is_exact_minus_dyson(n_spins):
    # the defect builds each element's chains once and propagates them both
    # ways; it must agree with the two public calls made apart
    for order in range(5):
        devs, _ = junction.dyson_junction_defect(PARAMS, n_spins, 0.4, order,
                                                 CRITERION_8_ELEMENTS, gaps=GAPS)
        approx = junction.dyson_junction(PARAMS, n_spins, 0.4, order,
                                         CRITERION_8_ELEMENTS, gaps=GAPS)
        assert list(devs) == list(approx) == CRITERION_8_ELEMENTS
        for source, target in CRITERION_8_ELEMENTS:
            exact = junction.evolution_element(PARAMS, n_spins, source, target, 0.4,
                                               gaps=GAPS).value
            assert abs(devs[(source, target)] - abs(exact - approx[(source, target)])) <= 1e-15


@pytest.mark.parametrize("n_spins,t,order", [(5, 0.4, 2), (4, 0.4, -1), (4, math.nan, 2)])
def test_dyson_defect_rejects_before_any_work(monkeypatch, n_spins, t, order):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")
    monkeypatch.setattr(junction, "layer_gaps", no_work)
    monkeypatch.setattr(junction, "chain_batches", no_work)
    for call in (junction.dyson_junction, junction.dyson_junction_defect):
        with pytest.raises(ParameterError):
            call(PARAMS, n_spins, t, order, CRITERION_8_ELEMENTS)


def test_two_layer_correlator_vs_dense():
    # the thermal state carries no correlations between the layers, so the
    # joint expectation is the product of the single-layer values
    oracle = dense_oracle()
    pl, pr = PARAMS.left, PARAMS.right
    words = [
        ([[0.0, 1, 1]], [[0.4, 1, 1]]),
        ([[0.3, 0, 1], [0.0, 1, 0]], [[0.0, 2, 2]]),
        ([], [[0.9, 1, 1]]),
    ]
    for lw, rw in words:
        left = correlators.FluctuationWord.from_triples(lw)
        right = correlators.FluctuationWord.from_triples(rw)
        fast = (correlators.correlation_finite_n(pl, 2, left, GAPS[0])
                * correlators.correlation_finite_n(pr, 2, right, GAPS[1]))
        slow = oracle.word_expectation(left, right)
        assert fast == pytest.approx(slow, abs=1e-12)


@pytest.mark.parametrize("field", ["lam", "e_c", "n_g", "beta"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_junction_params_reject_non_finite(field, value):
    fields = {"left": PARAMS.left, "right": PARAMS.right, "lam": 0.8, "e_c": 0.5,
              "n_g": 0.25, "beta": 2.0, field: value}
    with pytest.raises(ParameterError):
        junction.JunctionParams(**fields)


@pytest.mark.parametrize("side", ["left", "right"])
def test_junction_params_reject_layer_beta_and_mu(side):
    # each layer runs at the junction's beta, and the junction has no
    # chemical-potential term
    fields = {"left": PARAMS.left, "right": PARAMS.right, "lam": 0.8, "e_c": 0.5,
              "n_g": 0.25, "beta": 2.0}
    layer = fields[side]
    for bad in (dataclasses.replace(layer, beta=1.9), dataclasses.replace(layer, mu=0.2)):
        with pytest.raises(ParameterError):
            junction.JunctionParams(**{**fields, side: bad})
