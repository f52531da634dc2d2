import math

import numpy as np
import pytest
from scipy.special import logsumexp

from qfluct import correlators, dense, gap, junction, sectors
from qfluct.errors import ParameterError, ParityError


def test_multiplicity_two_spins():
    # triplet + singlet
    assert sectors.multiplicity(2, 1) == 1
    assert sectors.multiplicity(2, 0) == 1


def test_multiplicity_four_spins_vs_casimir_count():
    counted = dense.casimir_multiplicities(4)
    assert counted == {2.0: 1, 1.0: 3, 0.0: 2}
    for s in (2, 1, 0):
        assert sectors.multiplicity(4, s) == counted[float(s)]


@pytest.mark.parametrize("n", list(range(1, 21)))
def test_dimension_sum_rule_small(n):
    total = 0
    s = n / 2.0
    while s >= -1e-9:
        total += sectors.multiplicity(n, s) * round(2 * s + 1)
        s -= 1.0
    assert total == 2**n


def test_dimension_sum_rule_exact_up_to_40():
    for n in range(2, 41, 2):
        total = sum(sectors.multiplicity(n, s) * (2 * s + 1) for s in range(n // 2 + 1))
        assert total == 2**n


def test_multiplicity_parity_rejected():
    with pytest.raises(ParityError):
        sectors.multiplicity(4, 0.5)
    with pytest.raises(ParityError):
        sectors.multiplicity(3, 1.0)


def test_log_multiplicity_matches_exact():
    for n in (2, 10, 40):
        for s in range(n % 2, n // 2 + 1):
            exact = math.log(sectors.multiplicity(n, s))
            assert sectors.log_multiplicity(n, s) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("n", [512, 4096, 16384])
def test_log_multiplicity_within_a_few_ulp_at_large_n(n):
    # the error of log C(N, k) is set by lgamma(N + 1), the largest term
    tol = 4 * math.ulp(math.lgamma(n + 1))
    labels = np.unique(np.rint(np.linspace(0, n // 2, 41)))
    got = sectors.log_multiplicity(n, labels)
    for s, value in zip(labels, got):
        assert abs(value - math.log(sectors.multiplicity(n, s))) <= tol


def test_log_multiplicity_large_n():
    # d(s) itself overflows float64 here; the log must still be finite
    val = sectors.log_multiplicity(4096, 10)
    assert math.isfinite(val) and val > 700


def test_sector_energy_examples():
    params = sectors.ModelParams(epsilon=1.0, t_c=1.0, beta=1.0)
    assert sectors.eta(params, 2, 1, 1) == pytest.approx(-4.0)
    assert sectors.eta(params, 2, 0, 0) == 0.0


@pytest.mark.parametrize("n", [2, 4, 6])
def test_sector_spectrum_matches_dense_diagonalization(n):
    params = sectors.ModelParams(epsilon=0.7, t_c=1.0, beta=1.3)
    table = sectors.boltzmann_table(params, n)
    sector_levels = np.sort(np.concatenate(
        [np.repeat(row.eta, row.degeneracy) for row in table.rows]))
    dense_levels = np.sort(np.linalg.eigvalsh(dense.pairing_hamiltonian(params, n)))
    assert sector_levels.shape == dense_levels.shape == (2**n,)
    np.testing.assert_allclose(sector_levels, dense_levels, atol=1e-10)


def test_boltzmann_uniform_limit():
    params = sectors.ModelParams(epsilon=1.0, t_c=1.0, beta=1e-9)
    table = sectors.boltzmann_table(params, 6)
    for row in table.rows:
        np.testing.assert_allclose(np.exp(row.log_rho), 2.0**-6, rtol=1e-7)


def test_boltzmann_two_spin_closed_form():
    params = sectors.ModelParams(epsilon=1.0, t_c=1.0, beta=1.0)
    table = sectors.boltzmann_table(params, 2)
    z = math.exp(4) + math.exp(2) + math.exp(-2) + 1
    triplet = table.rows[0]
    assert triplet.s == 1
    # s_z ascending, so the top state is the last entry
    assert math.exp(triplet.log_rho[2]) == pytest.approx(math.exp(4) / z, rel=1e-12)


@pytest.mark.parametrize("n,beta", [(2, 1.0), (8, 5.0), (64, 0.3), (256, 40.0)])
def test_boltzmann_normalization(n, beta):
    params = sectors.ModelParams(epsilon=0.4, t_c=1.0, beta=beta)
    table = sectors.boltzmann_table(params, n)
    assert np.exp(logsumexp(table.log_w)) == pytest.approx(1.0, rel=1e-12)


def test_boltzmann_no_overflow_at_extreme_beta():
    params = sectors.ModelParams(epsilon=2.0, t_c=1.0, beta=1e5)
    table = sectors.boltzmann_table(params, 128)
    _, _, log_w = table.flat()
    assert np.all(np.isfinite(log_w) | (log_w == -np.inf))
    assert np.exp(logsumexp(table.log_w)) == pytest.approx(1.0, rel=1e-12)


def test_boltzmann_rejects_odd_n():
    params = sectors.ModelParams(epsilon=0.0, t_c=1.0, beta=1.0)
    with pytest.raises(ParityError):
        sectors.boltzmann_table(params, 5)


LAYER = sectors.ModelParams(epsilon=0.3, t_c=1.0, beta=1.6, mu=0.2)
LAYER_GAP = gap.solve_gap(0.3, 1.0, 1.6)
JUNCTION_LAYER = sectors.ModelParams(epsilon=0.3, t_c=1.0, beta=1.6)  # a junction's mu is 0
JUNCTION = junction.JunctionParams(left=JUNCTION_LAYER, right=JUNCTION_LAYER, lam=0.8,
                                   e_c=0.5, n_g=0.25, beta=1.6)
PURE_PHASE = correlators.FluctuationWord.from_triples([[0.4, 0, 0]])

# Every finite-N entry point, fed the inputs that return early where there
# are any: a pure-phase word, m = 0, n != m, a charge-violating element.
SPIN_COUNT_CALLS = {
    "boltzmann_table": lambda n: sectors.boltzmann_table(LAYER, n),
    "correlation_pure_phase": lambda n: correlators.correlation_finite_n(
        LAYER, n, PURE_PHASE, LAYER_GAP),
    "correlation_pair": lambda n: correlators.correlation_finite_n(
        LAYER, n, correlators.FluctuationWord.from_triples([[0.0, 1, 1]]), LAYER_GAP),
    "evolution_m0": lambda n: correlators.single_layer_evolution_element(
        LAYER, n, 0, 0, 0.5, LAYER_GAP),
    "evolution_n_ne_m": lambda n: correlators.single_layer_evolution_element(
        LAYER, n, 0, 1, 0.5, LAYER_GAP),
    "w_m0": lambda n: correlators.w_expectation(LAYER, n, 0, 0.5),
    "w_t0": lambda n: correlators.w_expectation(LAYER, n, 1, 0.0),
    "pair_expectation": lambda n: correlators.pair_expectation(LAYER, n),
    "convergence_sweep": lambda n: correlators.convergence_sweep(
        LAYER, PURE_PHASE, LAYER_GAP, [4, n, 8]),
    "junction_element": lambda n: junction.evolution_element(
        JUNCTION, n, (0, 0), (1, 1), 0.5),
    "dyson_junction": lambda n: junction.dyson_junction(
        JUNCTION, n, 0.5, 1, [((0, 0), (1, 1))]),
}


@pytest.mark.parametrize("n", [-4, 0, 3, 2**17 + 2])
@pytest.mark.parametrize("call", SPIN_COUNT_CALLS.values(), ids=SPIN_COUNT_CALLS.keys())
def test_finite_n_entry_points_reject_bad_spin_counts(call, n):
    # past the cap the count is well formed but too large: a plain ParameterError
    error = ParityError if n <= 2**17 else ParameterError
    with pytest.raises(error):
        call(n)


# The ninth combination, (0.4, 1.2) at N = 65536, keeps 12.6M entries and
# peaks near 0.8 GB, so it is left out here.
@pytest.mark.parametrize("epsilon,beta,n", [
    (eps, beta, n) for eps, beta in [(0.0, 2.0), (0.4, 1.2), (0.4, 40.0)]
    for n in (4096, 16384, 65536) if (eps, beta, n) != (0.4, 1.2, 65536)])
def test_normalization_exact_at_large_n(epsilon, beta, n):
    table = sectors.boltzmann_table(sectors.ModelParams(epsilon, 1.0, beta), n)
    assert abs(np.exp(logsumexp(table.log_w)) - 1.0) <= 1e-14


def test_table_independent_of_mu():
    a = sectors.boltzmann_table(sectors.ModelParams(0.3, 1.0, 2.0, mu=0.0), 8)
    b = sectors.boltzmann_table(sectors.ModelParams(0.3, 1.0, 2.0, mu=0.9), 8)
    for ra, rb in zip(a.rows, b.rows):
        np.testing.assert_array_equal(ra.log_rho, rb.log_rho)


def test_sector_order_deterministic():
    params = sectors.ModelParams(epsilon=0.1, t_c=1.0, beta=1.0)
    table = sectors.boltzmann_table(params, 8)
    assert [row.s for row in table.rows] == [4, 3, 2, 1, 0]
    for row in table.rows:
        assert np.all(np.diff(row.sz) == 1)


def test_ladder_coefficient_examples():
    assert sectors.ladder_coefficient(0.5, -0.5, 1) == pytest.approx(1.0)
    assert sectors.ladder_coefficient(1, -1, 2) == pytest.approx(2.0)
    assert sectors.ladder_coefficient(1, 1, 1) == 0.0
    assert sectors.ladder_coefficient(1, -1, -1) == 0.0
    assert sectors.ladder_coefficient(3, 1, 0) == 1.0
    # out-of-range input
    assert sectors.ladder_coefficient(1, 5, 1) == 0.0


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_ladder_coefficient_vs_matrix_power(s):
    dim = round(2 * s + 1)
    m_values = np.arange(-s, s + 1)
    s_plus = np.zeros((dim, dim))
    for i in range(dim - 1):
        m = m_values[i]
        s_plus[i + 1, i] = math.sqrt(s * (s + 1) - m * (m + 1))
    s_minus = s_plus.T
    for k in range(-int(2 * s) - 1, int(2 * s) + 2):
        power = np.linalg.matrix_power(s_plus if k >= 0 else s_minus, abs(k))
        want = [power[i + k, i] if 0 <= i + k < dim else 0.0 for i in range(dim)]
        got = [sectors.ladder_coefficient(s, m, k) for m in m_values]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        # the broadcast call over every s_z agrees with the scalar calls exactly
        np.testing.assert_array_equal(sectors.ladder_coefficient(s, m_values, k), got)


def test_model_params_validation():
    with pytest.raises(ParameterError):
        sectors.ModelParams(epsilon=-1.0, t_c=1.0, beta=1.0)
    with pytest.raises(ParameterError):
        sectors.ModelParams(epsilon=0.0, t_c=0.0, beta=1.0)
    with pytest.raises(ParameterError):
        sectors.ModelParams(epsilon=0.0, t_c=1.0, beta=-2.0)
    with pytest.raises(ParameterError):
        sectors.ModelParams(epsilon=float("nan"), t_c=1.0, beta=1.0)


# Balanced words of one, two and three raise/lower pairs, with phases.
PRUNING_WORDS = [
    [[0.0, 1, 1]],
    [[0.7, 0, 1], [-1.1, 2, 1]],
    [[0.2, 0, 2], [1.3, 2, 1], [-0.4, 1, 0]],
]


def _unpruned(params, n):
    """Every (s, s_z) label of the table with its normalized log-weight,
    normalized over all (N/2+1)^2 entries.  Labels whose weight underflows
    to 0.0 are left out, since they add exactly 0.0 to every sum."""
    rows = np.arange(n // 2, -1, -1)
    width = 2 * rows + 1
    s = np.repeat(rows.astype(float), width)
    sz = -s + (np.arange(s.size) - np.repeat(np.cumsum(width) - width, width))
    eta = (-2.0 * params.epsilon * sz
           - (2.0 * params.t_c / n) * (s * (s + 1.0) - sz * (sz - 1.0)))
    log_w = np.repeat(sectors.log_multiplicity(n, rows), width) - params.beta * eta
    log_w -= log_w.max()
    log_w -= logsumexp(log_w)
    keep = np.exp(log_w) > 0.0
    return s[keep], sz[keep], log_w[keep]


def _walk(s, sz, triples):
    """Product of the ladder amplitudes of a word, rightmost factor first."""
    amp = np.ones_like(sz)
    cur = sz.copy()
    for _, n_low, m_raise in reversed(triples):
        for step, count in ((1.0, m_raise), (-1.0, n_low)):
            for _ in range(count):
                amp *= np.sqrt(np.maximum(s * (s + 1.0) - cur * (cur + step), 0.0))
                cur += step
    return amp


@pytest.mark.parametrize("n", [256, 1024, 4096])
@pytest.mark.parametrize("epsilon,beta", [(0.0, 1.2), (0.0, 2.0), (0.0, 40.0),
                                          (0.4, 1.2), (0.4, 2.0), (0.4, 40.0)])
def test_pruned_table_matches_unpruned_sum(n, epsilon, beta):
    params = sectors.ModelParams(epsilon=epsilon, t_c=1.0, beta=beta, mu=0.3)
    sol = gap.solve_gap(epsilon, 1.0, beta)
    s, sz, log_w = _unpruned(params, n)
    weight = np.exp(log_w)
    got, want = [], []
    for triples in PRUNING_WORDS:
        w = correlators.FluctuationWord.from_triples(triples)
        scale = (sol.delta * n) ** -(w.total_m + w.total_n)
        got.append(correlators.correlation_finite_n(params, n, w, sol))
        want.append(np.exp(1j * w.phase()) * np.sum(weight * _walk(s, sz, triples)) * scale)
    got.append(correlators.w_expectation(params, n, 2, 0.7))
    want.append(np.exp(2.8j * epsilon) * np.sum(weight * np.exp(-5.6j * sz / n)))
    got.append(correlators.pair_expectation(params, n))
    want.append(np.sum(weight * (s * (s + 1.0) - sz * (sz - 1.0))) / n**2)
    got.append(correlators.single_layer_evolution_element(params, n, 1, 1, 0.9, sol))
    d_eta = -2.0 * epsilon + (2.0 / n) * ((sz + 1) * sz - sz * (sz - 1.0))
    want.append(np.exp(-0.54j) * np.sum(weight * _walk(s, sz, [[0.0, 0, 1]]) ** 2
                                        * np.exp(-0.9j * d_eta)) / (sol.delta * n) ** 2)
    for a, b in zip(got, want):
        assert abs(a - b) <= 1e-12 * abs(b)

    table = sectors.boltzmann_table(params, n)
    assert table.discarded_bound <= 1e-30
    if n >= 1024:
        # near T_c (beta = 1.2) the support is wider but still linear in N:
        # 233 N at N = 4096 and 197 N at N = 16384
        assert table.s.size <= (40 if beta >= 2.0 else 250) * n


def test_pruned_table_layout():
    params = sectors.ModelParams(epsilon=0.4, t_c=1.0, beta=2.0)
    table = sectors.boltzmann_table(params, 4096)
    s, sz, _ = table.flat()
    assert np.all(np.diff(s) <= 0)
    rows = table.rows
    assert [row.s for row in rows] == sorted({int(x) for x in s}, reverse=True)
    assert sum(row.sz.size for row in rows) == s.size
    for row in rows:
        assert np.all(np.diff(row.sz) == 1)
        assert -row.s <= row.sz[0] and row.sz[-1] <= row.s
    dropped = (4096 // 2 + 1) ** 2 - s.size
    assert table.discarded_bound == dropped * math.exp(-sectors._LOG_MARGIN)


def test_degeneracy_on_demand_matches_binomials():
    params = sectors.ModelParams(epsilon=0.4, t_c=1.0, beta=2.0)
    for n in range(2, 41, 2):
        table = sectors.boltzmann_table(params, n)
        assert table.discarded_bound == 0.0
        for row in table.rows:
            k = n // 2 - row.s
            assert row.degeneracy == math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
