import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qfluct import circle, junction, quadrature, sectors
from qfluct.errors import NumericalError, ParameterError
from qfluct.quadrature import _dyson_bound, chain_dyson, ordered_phase_integral


def test_single_level_closed_form():
    thetas = np.array([[0.7, -2.3, 11.0]])
    t = 1.3
    want = (1.0 - np.exp(-1j * thetas[0] * t)) / (1j * thetas[0])
    got = ordered_phase_integral(thetas, t)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("depth", [1, 2, 3, 5])
def test_zero_phases_give_simplex_volume(depth):
    t = 1.7
    got = ordered_phase_integral(np.zeros((depth, 2)), t)
    np.testing.assert_allclose(got, t**depth / math.factorial(depth), rtol=1e-13, atol=0)


def test_zero_time_and_no_channels():
    got = ordered_phase_integral(np.ones((3, 4)), 0.0)
    assert got.shape == (4,) and not np.any(got)
    assert ordered_phase_integral(np.zeros((2, 0)), 0.9).shape == (0,)


def test_node_cap_raises():
    # the phase needs about 6000 nodes from the start, above the cap
    with pytest.raises(NumericalError):
        ordered_phase_integral([[1e4]], 1.0)


def test_no_nesting_level_is_parameter_error():
    with pytest.raises(ParameterError):
        ordered_phase_integral(np.zeros((0, 3)), 1.0)


@pytest.mark.parametrize("order", [0, 1, 3])
def test_chains_end_to_end_match_each_chain_alone(order):
    rng = np.random.default_rng(7)
    length = np.array([4, 1, 6, 2, 5])
    first = np.cumsum(length) - length
    diag = rng.normal(scale=2.0, size=length.sum())
    hop = rng.normal(scale=0.5, size=length.sum() - 1)
    hop[first[1:] - 1] = 0.0  # no hop from one chain to the next
    start = first + np.array([rng.integers(n) for n in length])
    seed = np.zeros((length.sum(), 2), dtype=complex)
    seed[first + np.array([rng.integers(n) for n in length]), 0] = 1.0
    seed[:, 1] = rng.normal(size=length.sum())
    together = chain_dyson(diag, hop, start, seed, 1.1, order)
    assert together.shape == (length.size, 2)
    for c, (lo, n) in enumerate(zip(first, length)):
        alone = chain_dyson(diag[lo:lo + n], hop[lo:lo + n - 1], [start[c] - lo],
                            seed[lo:lo + n], 1.1, order)
        np.testing.assert_allclose(together[c], alone[0], rtol=0, atol=1e-12)


def short_chains(rng, lengths):
    """Random chains of the given lengths laid end to end, zero hops between
    them, with each chain's first site as its start."""
    first = np.cumsum(lengths) - lengths
    diag = rng.normal(scale=2.0, size=lengths.sum())
    hop = rng.normal(scale=0.5, size=lengths.sum() - 1)
    hop[first[1:] - 1] = 0.0
    return diag, hop, first


@pytest.mark.parametrize("order", [1, 4])
def test_one_chain_per_block_matches_one_block(monkeypatch, order):
    rng = np.random.default_rng(13)
    lengths = rng.integers(1, 9, size=60)
    diag, hop, first = short_chains(rng, lengths)
    seed = rng.normal(size=(lengths.sum(), 2)) + 1j * rng.normal(size=(lengths.sum(), 2))
    # the site range of each block: runs (i, j) of chains i .. j - 1
    ranges, packs = [], quadrature._packs
    monkeypatch.setattr(quadrature, "_packs", lambda bounds, budget: (
        ranges.append((bounds[i], bounds[j])) or (i, j) for i, j in packs(bounds, budget)))
    monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", 2**40)
    whole = chain_dyson(diag, hop, first, seed, 1.3, order)
    assert ranges == [(0, lengths.sum())]
    ranges.clear()
    monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", 1)
    apart = chain_dyson(diag, hop, first, seed, 1.3, order)
    assert ranges == list(zip(first, first + lengths))
    assert np.all(np.abs(apart - whole) <= 1e-15 * np.maximum(1.0, np.abs(whole)))


def test_blocks_are_runs_of_whole_chains():
    rng = np.random.default_rng(17)
    lengths = rng.integers(1, 40, size=80)
    _, _, first = short_chains(rng, lengths)
    ends = first + lengths
    bounds = np.append(0, ends)
    for limit in (0, 1, 7, 39, 40, 100, 10**9):
        ranges = [(bounds[i], bounds[j]) for i, j in quadrature._packs(bounds, limit)]
        assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
        assert ranges[-1][1] == lengths.sum()
        for lo, hi in ranges:
            # a range is whole chains: it ends where a chain ends
            assert hi in ends
            # as many as fit, and a chain longer than the limit alone
            chains = np.count_nonzero((ends > lo) & (ends <= hi))
            assert hi - lo <= limit or chains == 1
            if hi < lengths.sum():
                assert ends[np.searchsorted(ends, hi, side="right")] - lo > limit


def test_memory_is_bounded_per_block(monkeypatch):
    # 4096 sites of four-site chains at q = 32 and K = 4: a few block
    # arrays of _BLOCK_ENTRIES complex entries each, where all sites at once
    # hold arrays 16 times as large
    rng = np.random.default_rng(19)
    diag, hop, first = short_chains(rng, np.full(1024, 4))
    seed = np.zeros((diag.size, 1), dtype=complex)
    seed[first + 3] = 1.0
    counts, operators = [], quadrature._operators
    monkeypatch.setattr(quadrature, "_operators", lambda q: counts.append(q) or operators(q))
    limit = 16 * quadrature._BLOCK_ENTRIES * 16  # bytes: 16 blocks of complex entries

    def peak():
        chain_dyson(diag, hop, first, seed, 0.5, 4)  # the operators are cached
        tracemalloc.start()
        try:
            chain_dyson(diag, hop, first, seed, 0.5, 4)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() < limit
    monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", 2**40)  # all sites at once
    assert peak() > limit
    assert counts == [32] * 4


def test_dyson_bound_is_the_plain_formula_where_representable():
    assert _dyson_bound(169, 1.5) == 1.5**170 / math.factorial(170)
    assert _dyson_bound(3, 1.6, 0.4) == 1.6**4 * 0.4**4 / math.factorial(4)
    assert _dyson_bound(0, 1e300) == 1e300


def test_dyson_bound_past_the_float_factorial():
    # (K+1)! is past the largest float from K = 170 on
    want = float(Fraction(2**171, math.factorial(171)))
    assert _dyson_bound(170, 2.0) == pytest.approx(want, rel=1e-12)
    assert _dyson_bound(170, 0.6) == 0.0
    assert _dyson_bound(500, 2.0) == 0.0
    assert _dyson_bound(500, 0.0) == 0.0
    assert _dyson_bound(500, 1e3) == math.inf


def test_dyson_bound_at_huge_scale():
    assert _dyson_bound(2, 1e300) == math.inf
    # one power overflows, the product does not
    assert _dyson_bound(2, 1e200, 1e-200) == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert _dyson_bound(500, 1e300) == math.inf


@pytest.fixture
def node_counts(monkeypatch):
    """The node counts evaluated by each ``chain_dyson`` call that the
    circle and junction modules make, one list per call."""
    calls, operators = [], quadrature._operators
    monkeypatch.setattr(quadrature, "_operators",
                        lambda q: calls[-1].append(q) or operators(q))

    def counted(*args):
        calls.append([])
        return quadrature.chain_dyson(*args)

    monkeypatch.setattr(circle, "chain_dyson", counted)
    monkeypatch.setattr(junction, "chain_dyson", counted)
    return calls


def dyson_orders_calls():
    """The circle and junction Dyson configurations of the benchmark."""
    params, trunc = circle.CircuitParams(e_c=1.0, e_j=1.0), circle.ChargeBasisTruncation(8)
    for order in range(1, 9):
        circle.dyson_defect(params, trunc, 0.5, order)
    jparams = junction.JunctionParams(
        left=sectors.ModelParams(epsilon=0.2, t_c=1.0, beta=2.0),
        right=sectors.ModelParams(epsilon=0.0, t_c=1.2, beta=2.0),
        lam=0.8, e_c=0.5, n_g=0.25, beta=2.0)
    gaps = junction.layer_gaps(jparams)
    elements = [((0, 0), (0, 0)), ((0, 0), (1, -1)), ((1, -1), (1, -1)), ((1, 0), (0, 1))]
    for n_spins in (4, 6):
        for order in range(1, 5):
            junction.dyson_junction_defect(jparams, n_spins, 0.4, order, elements, gaps=gaps)


def test_dyson_orders_configs_evaluate_once(node_counts):
    # each call's first node count passes its tail check
    dyson_orders_calls()
    assert len(node_counts) > 8 and all(len(counts) == 1 for counts in node_counts)


def test_blocks_leave_node_counts_unchanged(monkeypatch, node_counts):
    # one start count and one tail over all blocks: each call asks for the
    # same node counts however its sites are cut
    runs = []
    for entries in (1, quadrature._BLOCK_ENTRIES, 2**40):
        monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", entries)
        node_counts.clear()
        dyson_orders_calls()
        circle.dyson_circle(circle.CircuitParams(e_c=1.0, e_j=1.0),
                            circle.ChargeBasisTruncation(4), 2.0, 6)
        runs.append(list(node_counts))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][-1] == [32, 64]


def test_doubled_node_count_matches_block_exponential(node_counts):
    # the start formula gives this chain 32 nodes, too few for its higher
    # orders: the first count fails its tail check and the doubled one is
    # exact (Van Loan: block (0, m) of expm(-i t B) is the order-m term)
    from scipy.linalg import expm

    params, trunc = circle.CircuitParams(e_c=1.0, e_j=1.0), circle.ChargeBasisTruncation(4)
    t, order, dim = 2.0, 6, trunc.dim
    h = circle.build_hamiltonian(params, trunc)
    h0 = np.diag(np.diag(h))
    blocks = np.kron(np.eye(order + 1), h0) + np.kron(np.eye(order + 1, k=1), h - h0)
    first_row = expm(-1j * t * blocks)[:dim]
    want = first_row.reshape(dim, order + 1, dim).sum(axis=1)
    got = circle.dyson_circle(params, trunc, t, order) @ np.diag(np.exp(-1j * t * np.diag(h)))
    assert node_counts == [[32, 64]]
    assert np.max(np.abs(got - want)) <= 1e-12
