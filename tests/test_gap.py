import math

import numpy as np
import pytest

from qfluct import gap
from qfluct.errors import ParameterError
from qfluct.fitting import fit_power_law


def test_zero_temperature_limit():
    # tanh(beta T_c) rounds to 1, so omega = T_c is the root to the last bit
    for beta in (1e3, 1e300):
        sol = gap.solve_gap(0.0, 1.0, beta)
        assert sol.delta == 0.5
        assert sol.residual == 0.0


def bisected_omega(t_c, beta):
    """Positive root of w/t_c = tanh(beta w), bisected until the midpoint
    stops moving."""
    lo, hi = 1e-300, t_c  # tanh(beta w) - w/t_c is > 0 at lo, <= 0 at hi
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if math.tanh(beta * mid) - mid / t_c > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("t_c", [0.3, 1.0, 3.0])
@pytest.mark.parametrize("reduced", [1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 0.5])
def test_omega_is_the_root_to_rounding_up_to_t_c(t_c, reduced):
    # the residual's slope at the root is about 2 (1 - T/T_c) / T_c, so
    # rounding in it moves the root by about 1e-16 / (1 - T/T_c) relative
    beta = 1.0 / (t_c * (1.0 - reduced))
    want = bisected_omega(t_c, beta)
    assert gap.solve_gap(0.0, t_c, beta).omega == pytest.approx(
        want, rel=max(1e-15 / reduced, 1e-14), abs=0.0)


@pytest.mark.parametrize("t_c", [1e-200, 1e200])
def test_gap_is_scale_free(t_c):
    # Delta depends on eps/T_c and beta*T_c only; omega^2 would underflow or
    # overflow at these T_c
    want = gap.solve_gap(0.3, 1.0, 10.0).delta
    assert gap.solve_gap(0.3 * t_c, t_c, 10.0 / t_c).delta == pytest.approx(want, rel=1e-14)


def test_critical_point_is_normal():
    sol = gap.solve_gap(0.0, 1.0, 1.0)
    assert sol.delta == 0.0
    assert sol.omega == 0.0


def test_above_critical_is_normal():
    sol = gap.solve_gap(0.3, 1.0, 0.5)
    assert sol.delta == 0.0
    assert sol.omega == 0.3


def test_near_critical_asymptotics():
    # 4 T_c Delta ~ sqrt(3) * 2 T_c * sqrt(1 - T/T_c) close to T_c
    sol = gap.solve_gap(0.0, 1.0, 1.0 / 0.99)
    bold = gap.rescaled_gap(sol, 1.0)
    asymptotic = math.sqrt(3) * 2.0 * math.sqrt(0.01)
    assert bold == pytest.approx(asymptotic, rel=0.03)


def test_rescaled_gap():
    sol = gap.solve_gap(0.0, 1.0, 1e3)
    assert gap.rescaled_gap(sol, 1.0) == pytest.approx(2.0, abs=1e-6)
    normal = gap.solve_gap(0.0, 1.0, 0.5)
    assert gap.rescaled_gap(normal, 1.0) == 0.0


def test_residual_within_tolerance_on_gapped_branch():
    # in the normal phase the residual reports the (nonzero) consistency
    # mismatch at Delta = 0 rather than pretending a root was found
    for beta in (1.1, 2.0, 7.0, 300.0):
        for eps in (0.0, 0.2, 0.8):
            sol = gap.solve_gap(eps, 1.0, beta)
            if sol.delta > 0:
                assert abs(sol.residual) <= 1e-12
                assert sol.omega == pytest.approx(
                    math.sqrt(eps**2 + 4.0 * sol.delta**2), rel=1e-12)
            else:
                assert sol.residual == sol.normal_residual


def test_invalid_inputs():
    with pytest.raises(ParameterError):
        gap.solve_gap(float("inf"), 1.0, 1.0)
    with pytest.raises(ParameterError):
        gap.solve_gap(0.0, -1.0, 1.0)
    with pytest.raises(ParameterError):
        gap.solve_gap(-0.1, 1.0, 1.0)


def test_josephson_energy():
    assert gap.josephson_energy(1.0, 0.5, 0.5) == pytest.approx(0.5)
    assert gap.josephson_energy(13.7, 0.0, 0.4) == 0.0
    with pytest.raises(ParameterError):
        gap.josephson_energy(1.0, -0.1, 0.5)


def test_tanh_form_of_critical_current():
    # For identical layers at eps = 0 the curve collapses onto
    # (lam * beta_c / 4) * bold * tanh(beta * bold / 2): inserting the
    # consistency condition tanh(2 beta T_c Delta) = 2 Delta turns that
    # expression into exactly 2 lam Delta^2.  (The prefactor has to be
    # beta_c/4, not beta_c/2: with beta_c/2 the identity is off by 2.)
    lam, t_c = 0.7, 1.3
    rows = gap.critical_current_curve(lam, 0.0, t_c, [2.0, 3.0, 8.0, 50.0])
    for temp, beta, delta, bold, e_j in rows:
        tanh_form = (lam / (4.0 * t_c)) * bold * math.tanh(beta * bold / 2.0)
        assert e_j == pytest.approx(tanh_form, abs=1e-10)
        assert e_j == pytest.approx(2.0 * lam * delta**2, rel=1e-12)


def test_current_curve_endpoints_and_monotonicity():
    lam, t_c = 1.0, 1.0
    betas = np.concatenate([np.linspace(1.01, 4.0, 40), [1e3], [0.5, 1.0]])
    rows = gap.critical_current_curve(lam, 0.0, t_c, betas)
    temps = [r[0] for r in rows]
    ejs = [r[4] for r in rows]
    assert temps == sorted(temps)
    # cold endpoint: E_J -> 2 lam Delta(0)^2 = 1/2
    assert ejs[0] == pytest.approx(0.5, abs=1e-5)
    # at and above T_c the current vanishes for eps = 0
    for temp, ej in zip(temps, ejs):
        if temp >= 1.0:
            assert ej == 0.0
    # monotone non-increasing in T
    assert all(ejs[i + 1] <= ejs[i] + 1e-15 for i in range(len(ejs) - 1))


def test_current_curve_empty_grid():
    with pytest.raises(ParameterError):
        gap.critical_current_curve(1.0, 0.0, 1.0, [])


def test_critical_scaling_fit():
    t_c = 1.0
    reduced = np.logspace(-4, -2, 25)
    bold = [gap.rescaled_gap(gap.solve_gap(0.0, t_c, 1.0 / (t_c * (1 - r))), t_c)
            for r in reduced]
    fit = fit_power_law(reduced, bold)
    assert fit.exponent == pytest.approx(0.5, abs=0.02)
    assert fit.amplitude == pytest.approx(math.sqrt(3) * 2 * t_c, rel=0.03)


def test_delta_monotone_and_continuous_in_beta():
    def max_jump(num):
        betas = np.linspace(1.05, 20.0, num)
        deltas = [gap.solve_gap(0.1, 1.0, b).delta for b in betas]
        assert all(deltas[i + 1] >= deltas[i] - 1e-12 for i in range(len(deltas) - 1))
        return float(np.max(np.abs(np.diff(deltas))))

    # continuity = the largest step shrinks under grid refinement (the onset
    # is a square root, so halving the spacing shrinks it by ~sqrt(2))
    coarse, fine = max_jump(200), max_jump(400)
    assert fine < coarse / 1.2


def test_both_branch_residuals_reported():
    sol = gap.solve_gap(0.5, 1.0, 3.0)
    want = 0.5 / 1.0 - math.tanh(3.0 * 0.5)
    assert sol.normal_residual == pytest.approx(want, rel=1e-12)
