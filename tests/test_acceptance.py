"""Acceptance suite: one test per quantitative exit criterion, each printing
a PASS line with its measured numbers and wall time (run with ``-s`` to see
them on success).  Tolerances are fixed here and nowhere else."""

import cmath
import math
import time

import numpy as np
import pytest

from qfluct import circle, correlators, dense, gap, junction, sectors
from qfluct.fitting import fit_power_law


def _report(name, elapsed, budget, detail):
    line = f"ACCEPTANCE {name}: PASS in {elapsed:.2f}s (budget {budget:.0f}s) -- {detail}"
    print(line)
    assert elapsed < budget, f"{name} exceeded its runtime budget: {elapsed:.1f}s"


def test_criterion_1_sector_oracle():
    start = time.time()
    params = sectors.ModelParams(epsilon=0.7, t_c=1.0, beta=1.3)
    worst = 0.0
    for n in (2, 4, 6):
        table = sectors.boltzmann_table(params, n)
        sector_levels = np.sort(np.concatenate(
            [np.repeat(row.eta, row.degeneracy) for row in table.rows]))
        dense_levels = np.sort(np.linalg.eigvalsh(dense.pairing_hamiltonian(params, n)))
        worst = max(worst, float(np.max(np.abs(sector_levels - dense_levels))))
        counted = dense.casimir_multiplicities(n)
        for row in table.rows:
            assert counted[float(row.s)] == row.degeneracy
    assert worst <= 1e-10

    for n in range(2, 41, 2):
        total = sum(sectors.multiplicity(n, s) * (2 * s + 1) for s in range(n // 2 + 1))
        assert total == 2**n

    _report("criterion-1 sector oracle", time.time() - start, 10,
            f"max spectrum deviation {worst:.2e}, dimension rule exact to N=40")


def test_criterion_2_gap_asymptotics():
    start = time.time()
    cold = gap.solve_gap(0.0, 1.0, 1e3)
    assert cold.delta == pytest.approx(0.5, abs=1e-8)

    t_c = 1.0
    reduced = np.logspace(-4, -2, 25)  # 1 - T/T_c over [1e-4, 1e-2]
    bold = [gap.rescaled_gap(gap.solve_gap(0.0, t_c, 1.0 / (t_c * (1.0 - r))), t_c)
            for r in reduced]
    fit = fit_power_law(reduced, bold)
    amplitude_target = math.sqrt(3) * 2.0 * t_c
    assert fit.exponent == pytest.approx(0.5, abs=0.02)
    assert fit.amplitude == pytest.approx(amplitude_target, rel=0.03)

    _report("criterion-2 gap asymptotics", time.time() - start, 5,
            f"Delta(0)={cold.delta:.10f}, exponent {fit.exponent:.4f}, "
            f"amplitude {fit.amplitude:.4f} vs {amplitude_target:.4f}")


def test_criterion_3_fluctuation_correlators():
    start = time.time()
    params = sectors.ModelParams(epsilon=0.0, t_c=1.0, beta=2.0)
    sol = gap.solve_gap(0.0, 1.0, 2.0)

    # off-diagonal words vanish identically
    for triples in ([[0.0, 0, 1]], [[0.2, 2, 0], [0.0, 0, 1]]):
        w = correlators.FluctuationWord.from_triples(triples)
        assert correlators.correlation_finite_n(params, 512, w, sol) == 0j

    # pair word approaches 1 like 1/N
    pair = correlators.FluctuationWord.from_triples([[0.0, 1, 1]])
    sweep = correlators.convergence_sweep(
        params, pair, sol, [64, 128, 256, 512, 1024, 2048, 4096])
    assert sweep.fit.exponent == pytest.approx(-1.0, abs=0.3)

    # 20 random words: the closed-form large-N value matches an independent
    # matrix evaluation on the circle exactly, the finite-size phase is exact,
    # and the N = 2048 error sits inside the 1/N envelope measured at smaller
    # sizes (1.25x headroom for the mild finite-size drift of N*err)
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 20:
        r = int(rng.integers(1, 4))
        triples = [[float(rng.uniform(-np.pi, np.pi)),
                    int(rng.integers(0, 3)), int(rng.integers(0, 3))]
                   for _ in range(r)]
        word = correlators.FluctuationWord.from_triples(triples)
        if checked % 2 == 0 and word.total_m != word.total_n:
            diff = word.total_m - word.total_n
            triples.append([0.0, diff, 0] if diff > 0 else [0.0, 0, -diff])
            word = correlators.FluctuationWord.from_triples(triples)
        checked += 1

        prediction = correlators.mesoscopic_prediction(word)
        trunc = circle.ChargeBasisTruncation(max(2, word.total_m + word.total_n + 2))
        vac = np.zeros(trunc.dim, complex)
        vac[trunc.index_of(0)] = 1.0
        vec = vac.copy()
        for f in reversed(word.factors):
            if f.m - f.n:
                vec = circle.build_weyl(trunc, f.m - f.n) @ vec
            vec = np.exp(1j * f.alpha * trunc.grid()) * vec
        assert prediction == pytest.approx(complex(np.vdot(vac, vec)), abs=1e-12)

        values = {n: correlators.correlation_finite_n(params, n, word, sol)
                  for n in (256, 512, 1024, 2048)}
        if abs(values[2048]) > 0:
            phase = values[2048] / abs(values[2048])
            assert phase == pytest.approx(cmath.exp(1j * word.phase()), abs=1e-12)
        errors = {n: abs(v - prediction) for n, v in values.items()}
        envelope = max(n * e for n, e in errors.items() if n < 2048)
        assert errors[2048] <= 1.25 * envelope / 2048 or errors[2048] == 0.0

    _report("criterion-3 fluctuation correlators", time.time() - start, 120,
            f"pair-word exponent {sweep.fit.exponent:.3f}, 20 random words inside "
            "the 1/N envelope")


def test_criterion_4_single_layer_dynamics():
    start = time.time()
    params = sectors.ModelParams(epsilon=0.0, t_c=1.0, beta=2.0, mu=0.3)
    sol = gap.solve_gap(params.epsilon, params.t_c, params.beta)
    target = cmath.exp(-2j * params.mu * 1.0)
    sizes = [64, 128, 256, 512, 1024, 2048]
    errors = [abs(correlators.single_layer_evolution_element(params, n, 1, 1, 1.0, sol)
                  - target) for n in sizes]
    tail = errors[1:]
    assert all(tail[i + 1] <= tail[i] for i in range(len(tail) - 1))
    assert errors[-1] <= errors[0] / 5.0
    _report("criterion-4 single-layer dynamics", time.time() - start, 60,
            f"error {errors[0]:.2e} -> {errors[-1]:.2e} "
            f"(x{errors[0] / errors[-1]:.1f} reduction)")


def test_criterion_5_norm_estimates():
    start = time.time()
    details = []
    comm_scales = []
    for n in (2, 4, 6, 8):
        sx, sy, sz, sp, sm = dense.collective_spin(n)
        for mat in (sx, sy, sz):
            norm = float(np.linalg.norm(mat, 2))
            assert norm == pytest.approx(n / 2.0, abs=1e-10)
        for mat in (sp, sm):
            assert float(np.linalg.norm(mat, 2)) <= (n + 1) / 2.0 + 1e-10

        # ladder commutators grow no faster than N^{n+m-1}
        for (k1, k2) in ((1, 1), (1, 2), (2, 2)):
            comm = (np.linalg.matrix_power(sp, k1) @ np.linalg.matrix_power(sm, k2)
                    - np.linalg.matrix_power(sm, k2) @ np.linalg.matrix_power(sp, k1))
            comm_scales.append(float(np.linalg.norm(comm, 2)) / n ** (k1 + k2 - 1))

        # ||[E_-, E_+]|| * N is exactly 1/c^2, independent of N
        c = 0.47
        e_plus = sp / (c * n)
        e_minus = sm / (c * n)
        comm_norm = float(np.linalg.norm(e_minus @ e_plus - e_plus @ e_minus, 2))
        assert comm_norm * n == pytest.approx(1.0 / c**2, rel=1e-10)
        details.append(f"N={n} ok")

    assert max(comm_scales) < 4.0 * min(comm_scales)  # bounded over the range
    _report("criterion-5 norm estimates", time.time() - start, 30,
            "; ".join(details))


def test_criterion_6_circle_module():
    start = time.time()
    # free spectrum analytic
    trunc = circle.ChargeBasisTruncation(16)
    free = circle.spectrum(circle.CircuitParams(1.0, 0.0, 0.3), trunc, 5)
    want = np.sort((circle.ChargeBasisTruncation(32).grid() - 0.3) ** 2)[:5]
    assert float(np.max(np.abs(free.energies - want))) <= 1e-12

    # qubit splitting at the degeneracy point
    split = circle.spectrum(circle.CircuitParams(1.0, 0.01, 0.5), trunc, 2)
    gap01 = split.energies[1] - split.energies[0]
    assert gap01 == pytest.approx(0.01, rel=0.01)

    # Weyl exchange relation on the interior
    big = circle.ChargeBasisTruncation(12)
    worst = 0.0
    for alpha in (0.3, -1.1, 2.7):
        for k in (1, 2, 3):
            ep = np.diag(np.exp(1j * alpha * big.grid()))
            wk = circle.build_weyl(big, k)
            diff = ep @ wk - np.exp(1j * k * alpha) * (wk @ ep)
            inner = slice(k, big.dim - k)
            worst = max(worst, float(np.max(np.abs(diff[inner, inner]))))
    assert worst < 1e-10

    # currents
    params = circle.CircuitParams(e_c=1.0, e_j=0.8)
    wide = circle.ChargeBasisTruncation(40)
    for phi_bar in (0.4, 2.0, -1.2):
        state = circle.phase_peaked_state(wide, phi_bar, 0.15)
        got = circle.josephson_current(params, wide, state)
        assert abs(got - 0.8 * math.sin(phi_bar)) <= 0.8 * 0.15
    amps = np.zeros(wide.dim, complex)
    amps[wide.index_of(0)] = 1 / math.sqrt(2)
    amps[wide.index_of(1)] = 1j / math.sqrt(2)
    assert circle.josephson_current(params, wide, amps) == pytest.approx(
        -0.8 / 2, abs=1e-10)

    _report("criterion-6 circle module", time.time() - start, 10,
            f"splitting {gap01:.6f} vs 0.01, Weyl residual {worst:.1e}")


def test_criterion_7_junction_convergence():
    start = time.time()
    params = junction.JunctionParams(
        left=sectors.ModelParams(epsilon=0.0, t_c=1.0, beta=2.0),
        right=sectors.ModelParams(epsilon=0.0, t_c=1.0, beta=2.0),
        lam=1.0, e_c=0.4, n_g=0.2, beta=2.0,
    )
    gaps = junction.layer_gaps(params)
    rows = junction.meso_compare(params, [4, 8, 12, 16, 32, 64], [((0, 0), (1, -1))],
                                 0.3, gaps=gaps)  # lambda * t = 0.3
    row = rows[0]
    errs = row.abs_errors
    assert all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))
    assert errs[-1] <= errs[0] / 2.0

    # charge-violating elements vanish exactly on both sides
    el = junction.evolution_element(params, 8, (0, 0), (1, 1), 0.3, gaps=gaps)
    assert el.value == 0j
    assert junction.circle_element(params, (0, 0), (1, 1), 0.3, gaps=gaps) == 0j

    _report("criterion-7 junction convergence", time.time() - start, 300,
            f"errors {errs[0]:.3e} -> {errs[-1]:.3e} over N=4..64")


def test_criterion_8_dyson_bounds():
    start = time.time()
    # circle side, hopping strength in place of the tunneling bound
    cpar = circle.CircuitParams(e_c=1.0, e_j=1.0)
    ctrunc = circle.ChargeBasisTruncation(8)
    circle_lines = []
    for order in range(5):
        defect, bound = circle.dyson_defect(cpar, ctrunc, 0.5, order)
        assert defect <= bound
        circle_lines.append(f"K{order} {defect:.1e}<={bound:.1e}")

    jpar = junction.JunctionParams(
        left=sectors.ModelParams(epsilon=0.2, t_c=1.0, beta=2.0),
        right=sectors.ModelParams(epsilon=0.0, t_c=1.2, beta=2.0),
        lam=0.8, e_c=0.5, n_g=0.25, beta=2.0,
    )
    gaps = junction.layer_gaps(jpar)
    elements = [((0, 0), (0, 0)), ((0, 0), (1, -1)), ((1, -1), (1, -1)),
                ((1, 0), (0, 1))]
    for n in (4, 8):
        for order in range(5):
            devs, bound = junction.dyson_junction_defect(
                jpar, n, 0.4, order, elements, gaps=gaps)
            assert max(devs.values()) <= bound

    _report("criterion-8 dyson bounds", time.time() - start, 180,
            "circle " + " ".join(circle_lines) + "; junction N=4,8 K<=4 inside bound")


def test_criterion_9_pair_amplitude_limit():
    start = time.time()
    params = sectors.ModelParams(epsilon=0.0, t_c=1.0, beta=2.0)
    sol = gap.solve_gap(0.0, 1.0, 2.0)
    sizes = [64, 128, 256, 512, 1024, 2048]
    errors = [abs(correlators.pair_expectation(params, n) - sol.delta**2)
              for n in sizes]
    assert all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
    assert errors[-1] < errors[0] / 8.0
    _report("criterion-9 pair amplitude", time.time() - start, 60,
            f"|<S+S->/N^2 - Delta^2| {errors[0]:.2e} -> {errors[-1]:.2e}")
