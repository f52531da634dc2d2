import json
import math

import numpy as np
import pytest

from qfluct import dense, sectors
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


def test_log_multiplicity_large_n():
    # d(s) itself overflows float64 here; the log must still be finite
    val = sectors.log_multiplicity(4096, 10)
    assert math.isfinite(val) and val > 700


def test_sector_energy_examples():
    params = sectors.ModelParams(epsilon=1.0, t_c=1.0, beta=1.0)
    top = sectors.SectorLabel(n_spins=2, s=1, s_z=1)
    assert sectors.sector_energy(params, top) == pytest.approx(-4.0)
    singlet = sectors.SectorLabel(n_spins=2, s=0, s_z=0)
    assert sectors.sector_energy(params, singlet) == 0.0


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
    assert table.normalization() == pytest.approx(1.0, rel=1e-12)


def test_boltzmann_no_overflow_at_extreme_beta():
    params = sectors.ModelParams(epsilon=2.0, t_c=1.0, beta=1e5)
    table = sectors.boltzmann_table(params, 128)
    _, _, log_w = table.flat()
    assert np.all(np.isfinite(log_w) | (log_w == -np.inf))
    assert table.normalization() == pytest.approx(1.0, rel=1e-12)


def test_boltzmann_rejects_odd_n():
    params = sectors.ModelParams(epsilon=0.0, t_c=1.0, beta=1.0)
    with pytest.raises(ParityError):
        sectors.boltzmann_table(params, 5)


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


def test_json_schema():
    params = sectors.ModelParams(epsilon=0.5, t_c=1.0, beta=2.0)
    table = sectors.boltzmann_table(params, 4)
    doc = json.loads(table.to_json())
    assert set(doc) == {"n_spins", "log_partition", "sectors"}
    assert doc["n_spins"] == 4
    assert [sec["s"] for sec in doc["sectors"]] == [2, 1, 0]
    assert doc["sectors"][1]["d"] == 3
    first = doc["sectors"][0]["rows"][0]
    assert set(first) == {"sz", "eta", "log_rho"}
    total = sum(sec["d"] * sum(math.exp(r["log_rho"]) for r in sec["rows"])
                for sec in doc["sectors"])
    assert total == pytest.approx(1.0, rel=1e-12)


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


def test_sector_label_validation():
    with pytest.raises(ParameterError):
        sectors.SectorLabel(n_spins=4, s=1, s_z=2)
    with pytest.raises(ParityError):
        sectors.SectorLabel(n_spins=4, s=1, s_z=0.5)
