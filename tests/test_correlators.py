import cmath
import math

import numpy as np
import pytest

from qfluct import correlators, dense, gap, sectors
from qfluct.errors import NormalPhaseError, ParameterError, ParityError
from qfluct.fitting import fit_power_law

PARAMS = sectors.ModelParams(epsilon=0.3, t_c=1.0, beta=1.6, mu=0.2)
SOL = gap.solve_gap(PARAMS.epsilon, PARAMS.t_c, PARAMS.beta)

WORDS = [
    [[0.0, 1, 1]],
    [[0.0, 0, 1], [0.0, 1, 0]],
    [[0.4, 0, 1], [-1.1, 1, 0]],
    [[0.9, 1, 2], [0.0, 2, 1]],
    [[0.0, 0, 2], [0.3, 1, 0], [0.0, 1, 0]],
    [[0.5, 0, 0], [1.0, 0, 0]],
    [[0.0, 0, 1]],
    [[0.2, 2, 0], [0.0, 0, 1]],
    # at N = 4 the longest walks that stay in [-s, s] raise 2s = 4 times from
    # s_z = -2; one step more leaves every sector
    [[0.0, 4, 4]],
    [[0.3, 2, 0], [0.0, 2, 4]],
    [[0.0, 5, 5]],
]


def word(triples):
    return correlators.FluctuationWord.from_triples(triples)


def test_empty_and_pure_phase_words_are_exactly_one():
    assert correlators.correlation_finite_n(PARAMS, 8, word([]), SOL) == 1.0 + 0j
    pure = word([[0.3, 0, 0], [-0.7, 0, 0]])
    assert correlators.correlation_finite_n(PARAMS, 8, pure, SOL) == 1.0 + 0j
    # the running alpha overflows to inf, but balanced factors add no phase
    huge = word([[1e308, 0, 0], [1e308, 0, 0]])
    assert correlators.mesoscopic_prediction(huge) == 1.0 + 0j
    assert correlators.correlation_finite_n(PARAMS, 8, huge, SOL) == 1.0 + 0j


def test_phase_is_finite_when_the_alphas_sum_past_float_range():
    # sum_j (alpha_1 + ... + alpha_j)(m_j - n_j) = 2e308 * (-1) + 2e308 * 1 = 0,
    # though the running alpha is already inf at the unbalanced factors
    huge = word([[1e308, 0, 0], [1e308, 1, 0], [0.0, 0, 1]])
    assert huge.phase() == 0.0
    pair = correlators.correlation_finite_n(PARAMS, 8, word([[0.0, 1, 1]]), SOL)
    assert correlators.correlation_finite_n(PARAMS, 8, huge, SOL) == pytest.approx(
        pair, rel=1e-12)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_non_finite_alpha_rejected(alpha):
    with pytest.raises(ParameterError):
        correlators.WordFactor(alpha, 1, 0)
    with pytest.raises(ParameterError):
        word([[0.0, 0, 1], [alpha, 1, 0]])


@pytest.mark.parametrize("n", [2, 4])
def test_word_whose_every_walk_dies_is_exactly_zero(n):
    # 2s <= N/2 < 5 in every sector, so every walk leaves [-s, s]: its
    # log-amplitude is -inf and its term exp(-inf) is exactly 0
    assert correlators.correlation_finite_n(PARAMS, n, word([[0.0, 5, 5]]), SOL) == 0j


def test_unbalanced_words_vanish_exactly():
    w = word([[0.0, 0, 1]])
    assert correlators.correlation_finite_n(PARAMS, 8, w, SOL) == 0j


def test_normal_phase_raises():
    normal = gap.solve_gap(0.0, 1.0, 0.5)
    with pytest.raises(NormalPhaseError):
        correlators.correlation_finite_n(PARAMS, 8, word([[0.0, 1, 1]]), normal)


def test_odd_size_rejected():
    with pytest.raises(ParityError):
        correlators.correlation_finite_n(PARAMS, 5, word([[0.0, 1, 1]]), SOL)


def test_pair_ladder_closed_form():
    # single factor (n=1, m=1) is the raise-then-lower word; its value is the
    # weighted sector sum of s(s+1) - sz(sz+1)
    n = 6
    table = sectors.boltzmann_table(PARAMS, n)
    s, sz, log_w = table.flat()
    expect = float(np.sum(np.exp(log_w) * np.clip(s * (s + 1) - sz * (sz + 1), 0, None)))
    expect /= (SOL.delta * n) ** 2
    got = correlators.correlation_finite_n(PARAMS, n, word([[0.0, 1, 1]]), SOL)
    assert got == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_against_dense_doubled_space(n):
    for triples in WORDS:
        w = word(triples)
        fast = correlators.correlation_finite_n(PARAMS, n, w, SOL)
        slow = dense.dense_correlation(PARAMS, n, w, SOL)
        assert fast == pytest.approx(slow, abs=1e-10)


def test_phase_pullout_matches_dense_with_phases():
    # the dense route applies the p exponentials as actual matrices, so this
    # exercises the pulled-out phase identity end to end
    w = word([[1.3, 0, 2], [0.4, 1, 0], [-0.9, 1, 0]])
    for n in (2, 4):
        fast = correlators.correlation_finite_n(PARAMS, n, w, SOL)
        slow = dense.dense_correlation(PARAMS, n, w, SOL)
        assert fast == pytest.approx(slow, abs=1e-12)


def test_phase_of_finite_n_value_is_exact():
    w = word([[0.8, 0, 1], [0.5, 1, 0]])
    value = correlators.correlation_finite_n(PARAMS, 32, w, SOL)
    assert abs(value) > 0
    assert value / abs(value) == pytest.approx(cmath.exp(1j * w.phase()), abs=1e-12)


def test_mesoscopic_prediction_examples():
    a1, a2 = 0.37, -1.42
    w = word([[a1, 0, 1], [a2, 1, 0]])
    assert correlators.mesoscopic_prediction(w) == pytest.approx(
        cmath.exp(-1j * a2), abs=1e-15)
    assert correlators.mesoscopic_prediction(word([[0.0, 0, 2]])) == 0j
    balanced = word([[0.0, 2, 1], [0.0, 0, 1]])
    assert correlators.mesoscopic_prediction(balanced) == pytest.approx(1.0)


def test_mesoscopic_prediction_vs_circle_matrices():
    # independent oracle: build the shift/phase matrices on a wide charge
    # window and take the vacuum expectation directly
    from qfluct import circle

    rng = np.random.default_rng(3)
    for _ in range(25):
        r = int(rng.integers(1, 4))
        triples = [[float(rng.uniform(-np.pi, np.pi)),
                    int(rng.integers(0, 3)), int(rng.integers(0, 3))]
                   for _ in range(r)]
        w = word(triples)
        trunc = circle.ChargeBasisTruncation(max(2, w.total_m + w.total_n + 2))
        grid = trunc.grid()
        vac = np.zeros(trunc.dim, complex)
        vac[trunc.index_of(0)] = 1.0
        vec = vac.copy()
        for f in reversed(w.factors):
            k = f.m - f.n
            if k != 0:
                vec = circle.build_weyl(trunc, k) @ vec
            vec = np.exp(1j * f.alpha * grid) * vec
        assert correlators.mesoscopic_prediction(w) == pytest.approx(
            complex(np.vdot(vac, vec)), abs=1e-12)


def test_convergence_sweep_diagonal_word():
    params = sectors.ModelParams(epsilon=0.0, t_c=1.0, beta=2.0)
    sol = gap.solve_gap(0.0, 1.0, 2.0)
    sweep = correlators.convergence_sweep(
        params, word([[0.0, 1, 1]]), sol, [64, 128, 256, 512])
    assert sweep.prediction == 1.0 + 0j
    assert all(e > 0 for e in sweep.abs_errors)
    assert sweep.fit is not None
    assert sweep.fit.exponent == pytest.approx(-1.0, abs=0.3)


def test_convergence_sweep_exact_zero_cases():
    params = sectors.ModelParams(epsilon=0.0, t_c=1.0, beta=2.0)
    sol = gap.solve_gap(0.0, 1.0, 2.0)
    off = correlators.convergence_sweep(params, word([[0.0, 0, 1]]), sol, [8, 16, 32, 64])
    assert all(e == 0 for e in off.abs_errors)
    assert off.fit is None
    ident = correlators.convergence_sweep(params, word([]), sol, [8, 16, 32, 64])
    assert all(e == 0 for e in ident.abs_errors)


def test_regrouping_difference_decays_like_one_over_n():
    params = sectors.ModelParams(epsilon=0.0, t_c=1.0, beta=2.0)
    sol = gap.solve_gap(0.0, 1.0, 2.0)
    alternating = word([[0.0, 1, 1], [0.0, 1, 1]])
    regrouped = word([[0.0, 2, 2]])
    ns = [64, 128, 256, 512, 1024]
    diffs = [abs(correlators.correlation_finite_n(params, n, alternating, sol)
                 - correlators.correlation_finite_n(params, n, regrouped, sol))
             for n in ns]
    fit = fit_power_law(ns, diffs)
    assert fit.exponent < -0.7
    envelope = max(n * d for n, d in zip(ns, diffs))
    assert np.isfinite(envelope)


def test_evolution_element_vacuum_invariant():
    for t in (0.0, 0.8, 13.0):
        assert correlators.single_layer_evolution_element(
            PARAMS, 8, 0, 0, t, SOL) == 1.0 + 0j


def test_evolution_element_off_diagonal_zero_and_dense():
    assert correlators.single_layer_evolution_element(PARAMS, 4, 0, 1, 0.8, SOL) == 0j
    slow = dense.dense_evolution_element(PARAMS, 4, 0, 1, 0.8, SOL)
    assert abs(slow) < 1e-12


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("m", [1, 2, 3])  # at N = 2 every walk of m = 3 dies
def test_evolution_element_matches_dense(n, m):
    fast = correlators.single_layer_evolution_element(PARAMS, n, m, m, 0.8, SOL)
    slow = dense.dense_evolution_element(PARAMS, n, m, m, 0.8, SOL)
    assert fast == pytest.approx(slow, abs=1e-10)


def test_evolution_element_approaches_chemical_potential_phase():
    params = sectors.ModelParams(epsilon=0.0, t_c=1.0, beta=2.0, mu=0.3)
    sol = gap.solve_gap(0.0, 1.0, 2.0)
    target = cmath.exp(-2j * 0.3 * 1.0)
    errs = [abs(correlators.single_layer_evolution_element(params, n, 1, 1, 1.0, sol)
                - target) for n in (64, 256, 1024)]
    assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_time_rejected(t):
    # checked before the early returns of n != m, m = 0 and t = 0
    for n, m in ((1, 1), (1, 2), (0, 0)):
        with pytest.raises(ParameterError):
            correlators.single_layer_evolution_element(PARAMS, 4, n, m, t, SOL)
    for m in (0, 1):
        with pytest.raises(ParameterError):
            correlators.w_expectation(PARAMS, 4, m, t)


def test_w_expectation_trivial_cases():
    assert correlators.w_expectation(PARAMS, 8, 0, 1.3) == 1.0 + 0j
    assert correlators.w_expectation(PARAMS, 8, 3, 0.0) == 1.0 + 0j


@pytest.mark.parametrize("n", [2, 4, 6])
def test_w_expectation_matches_dense(n):
    for m in (1, 2):
        fast = correlators.w_expectation(PARAMS, n, m, 0.9)
        slow = dense.dense_w_expectation(PARAMS, n, m, 0.9)
        assert fast == pytest.approx(slow, abs=1e-10)


def test_w_expectation_approaches_one():
    params = sectors.ModelParams(epsilon=0.25, t_c=1.0, beta=2.0)
    errs = [abs(correlators.w_expectation(params, n, 1, 1.0) - 1.0)
            for n in (64, 256, 1024)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 5e-3


@pytest.mark.parametrize("n", [2, 4, 6])
def test_pair_expectation_matches_dense(n):
    # <S_+ S_-> / N^2 is the word E_+ E_- times the squared gap; the lowest
    # entry s_z = -s of every sector has pair = 0 and adds exactly 0
    slow = dense.dense_correlation(PARAMS, n, word([[0.0, 0, 1], [0.0, 1, 0]]), SOL)
    assert correlators.pair_expectation(PARAMS, n) == pytest.approx(
        slow.real * SOL.delta**2, abs=1e-12)
    assert slow.imag == pytest.approx(0.0, abs=1e-12)


def test_pair_expectation_approaches_squared_gap():
    params = sectors.ModelParams(epsilon=0.0, t_c=1.0, beta=2.0)
    sol = gap.solve_gap(0.0, 1.0, 2.0)
    errs = [abs(correlators.pair_expectation(params, n) - sol.delta**2)
            for n in (64, 256, 1024)]
    assert errs[0] > errs[1] > errs[2]


def test_table_cache_is_bounded(monkeypatch):
    built = []
    true_build = sectors.boltzmann_table

    def counting(params, n_spins):
        built.append(n_spins)
        return true_build(params, n_spins)

    monkeypatch.setattr(sectors, "boltzmann_table", counting)
    sectors._cached_table.cache_clear()
    sizes = [2 * k for k in range(1, sectors._TABLE_CACHE_SIZE + 5)]
    correlators.convergence_sweep(PARAMS, word([[0.0, 1, 1]]), SOL, sizes)
    assert built == sizes  # one build per size, none for the reported bound
    assert sectors._cached_table.cache_info().currsize == sectors._TABLE_CACHE_SIZE
    correlators.pair_expectation(PARAMS, sizes[-1])
    assert built == sizes


def test_convergence_sweep_reports_pruning_bound():
    params = sectors.ModelParams(epsilon=0.0, t_c=1.0, beta=2.0)
    sol = gap.solve_gap(0.0, 1.0, 2.0)
    sizes = [256, 512, 1024, 2048]
    sweep = correlators.convergence_sweep(params, word([[0.0, 1, 1]]), sol, sizes)
    dropped = max(sectors.boltzmann_table(params, n).discarded_bound for n in sizes)
    assert sweep.discarded_bound == 2.0 * dropped * sol.delta**-2
    assert 0.0 < sweep.discarded_bound < 1e-30
    # pure-phase and unbalanced words are exact without a sector sum
    for triples in ([[0.3, 0, 0]], [[0.0, 0, 1]]):
        assert correlators.convergence_sweep(params, word(triples), sol,
                                             sizes).discarded_bound == 0.0
