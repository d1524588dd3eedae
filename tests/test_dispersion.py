import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfluid.dispersion import (RELATIONS, adiabatic_omega_sq, bohm_gross_omega_sq,
                               companion_growth_rate, evaluate, general_omega_sq,
                               k_grid, quantum_langmuir_omega_sq,
                               temperature_closure_omega_sq)
from qfluid.errors import ConfigError
from qfluid.params import nondimensional

# frozen independent evaluations of the closed-hierarchy relation
OM2_OVER_WP2_TAU3 = 1.5                      # thermal strength 3, no quantum term
OM2_OVER_WP2_ETA1 = 1.2071067811865475244    # (1 + sqrt(2))/2, cold quantum point


def tau_to_temperature(tau, k, params):
    """T0_par making 12 kB T k^2 / (m wp^2) equal tau."""
    return tau * params.m * params.omega_p**2 / (12.0 * params.kB * k**2)


def test_general_relation_frozen_points():
    k = 1.0
    p = nondimensional(hbar=0.0)
    p = p.with_(T0_par=tau_to_temperature(3.0, k, p))
    assert general_omega_sq(k, p) == pytest.approx(OM2_OVER_WP2_TAU3, rel=1e-15)

    # eta = (hbar k^2 / (m wp))^2 = 1 at hbar = 1, k = 1
    p_cold = nondimensional(hbar=1.0, T0_par=0.0)
    assert general_omega_sq(k, p_cold) == pytest.approx(OM2_OVER_WP2_ETA1, rel=1e-15)


@settings(max_examples=60)
@given(hbar=st.floats(0.0, 10.0), tpar=st.floats(0.0, 10.0))
def test_all_relations_equal_wp2_at_k_zero(hbar, tpar):
    p = nondimensional(hbar=hbar, T0_par=tpar)
    wp2 = p.omega_p**2
    assert general_omega_sq(0.0, p) == wp2
    assert quantum_langmuir_omega_sq(0.0, p) == wp2
    assert bohm_gross_omega_sq(0.0, p) == wp2
    assert adiabatic_omega_sq(0.0, p, 5.0 / 3.0) == wp2
    assert temperature_closure_omega_sq(0.0, p) == wp2


@settings(max_examples=60)
@given(tperp=st.floats(0.0, 1e6), k=st.floats(0.0, 10.0))
def test_perpendicular_temperature_never_contributes(tperp, k):
    base = nondimensional(hbar=0.8, T0_par=0.3)
    modified = base.with_(T0_perp=tperp)
    assert general_omega_sq(k, modified) == general_omega_sq(k, base)  # bitwise


def test_general_relation_at_least_wp2_and_monotone():
    p = nondimensional(hbar=0.6, T0_par=0.2)
    ks = np.linspace(0.0, 8.0, 400)
    om2 = general_omega_sq(ks, p)
    assert np.all(om2 >= p.omega_p**2)
    assert np.all(np.diff(om2) >= 0.0)


def test_quantum_langmuir_zero_temperature_form():
    p = nondimensional(hbar=2.0, T0_par=0.0)
    k = 1.7
    assert quantum_langmuir_omega_sq(k, p) == pytest.approx(
        p.omega_p**2 + p.hbar**2 * k**4 / (4.0 * p.m**2), rel=1e-15)


def test_small_k_agreement_beyond_fourth_order_cold():
    # with T0 = 0 the two relations differ at k^8; the log-log slope of the
    # difference over a decade must come out well above 4.  The window is
    # chosen so k^8/16 stays clear of double-precision cancellation noise.
    p = nondimensional(hbar=1.0, T0_par=0.0)
    ks = np.geomspace(0.05, 0.5, 24)
    diff = np.abs(general_omega_sq(ks, p) - quantum_langmuir_omega_sq(ks, p))
    assert np.all(diff > 0.0)
    slope = np.polyfit(np.log(ks), np.log(diff), 1)[0]
    assert slope > 7.5  # analytic order is 8


def test_classical_limit_fourth_order_coefficient():
    # with hbar = 0 the relations agree to o(k^2) and split at k^4 with
    # coefficient (1/16) wp^2 (12 kB T / (m wp^2))^2 = 9 (kB T / m)^2 / wp^2
    p = nondimensional(hbar=0.0, T0_par=0.05)
    ks = np.geomspace(1e-3, 1e-2, 16)
    diff = quantum_langmuir_omega_sq(ks, p) - general_omega_sq(ks, p)
    assert np.all(diff > 0.0)
    coeff = diff / ks**4
    expected = 9.0 * (p.kB * p.T0_par / p.m) ** 2 / p.omega_p**2
    assert np.allclose(coeff, expected, rtol=1e-2)
    slope = np.polyfit(np.log(ks), np.log(diff), 1)[0]
    assert 3.9 < slope < 4.1


@pytest.mark.parametrize("hbar, tpar, k, bound", [(0.0, 0.1, 0.01, 6.1e-5),
                                                  (1.0, 0.0, 0.1, 5.1e-5),
                                                  (0.2, 0.02, 0.05, 3.1e-4)])
def test_departure_from_the_kinetic_waterbag_relation_is_its_series(hbar, tpar, k, bound):
    # an oracle from outside the hierarchy: linearised Wigner-Poisson theory
    # gives a waterbag the quantum Langmuir relation exactly (Haas, Manfredi
    # & Feix, Phys. Rev. E 62:2763, 2000).  In plasma units the closed
    # hierarchy departs from it by -9 T'^2 k^4 - (3/2) T' hbar'^2 k^6
    # - hbar'^4 k^8 / 16, the x^2 term of (1/2)(1 + sqrt(1 + x)) with
    # x = 12 T' k^2 + hbar'^2 k^4.  The next term makes the relative gap
    # about x/2: measured 6.0e-5, 5.0e-5 and 3.0e-4, bounded rounded up
    p = nondimensional(hbar=hbar, T0_par=tpar)
    assert p.omega_p == 1.0 and p.m == 1.0 and p.vt2_par == tpar
    gap = float(general_omega_sq(k, p) - quantum_langmuir_omega_sq(k, p))
    series = -9.0 * tpar**2 * k**4 - 1.5 * tpar * hbar**2 * k**6 - hbar**4 * k**8 / 16.0
    assert abs(gap - series) <= bound * abs(series)


def test_bohm_gross_is_adiabatic_gamma_three():
    p = nondimensional(hbar=0.4, T0_par=1.1)
    ks = np.linspace(0.0, 5.0, 64)
    assert np.array_equal(bohm_gross_omega_sq(ks, p), adiabatic_omega_sq(ks, p, 3.0))


def test_adiabatic_five_thirds_is_classical_temperature_closure():
    p = nondimensional(hbar=0.0, T0_par=0.7)
    ks = np.linspace(0.0, 4.0, 32)
    assert np.allclose(temperature_closure_omega_sq(ks, p),
                       adiabatic_omega_sq(ks, p, 5.0 / 3.0), rtol=1e-15)


def test_temperature_closure_quartic_is_third_of_quantum_langmuir():
    p = nondimensional(hbar=1.3, T0_par=0.0)
    wp2 = p.omega_p**2
    for k in (0.5, 1.0, 2.0):
        ql = quantum_langmuir_omega_sq(k, p) - wp2
        tc = temperature_closure_omega_sq(k, p) - wp2
        assert ql / tc == pytest.approx(3.0, rel=1e-12)


def test_temperature_closure_classical_offset_from_bohm_gross():
    p = nondimensional(hbar=0.0, T0_par=0.9)
    k = 1.4
    gap = bohm_gross_omega_sq(k, p) - temperature_closure_omega_sq(k, p)
    assert gap == pytest.approx((4.0 / 3.0) * p.vt2_par * k**2, rel=1e-12)


def test_adiabatic_requires_positive_gamma():
    with pytest.raises(ConfigError):
        adiabatic_omega_sq(1.0, nondimensional(), 0.0)


def test_companion_branch_matches_linear_system_eigenvalues():
    # oracle: eigenfrequencies of the k-block of the linearized hierarchy
    # (n, u, p, Q) are {+-omega, +-i gamma}
    p = nondimensional(hbar=0.5, T0_par=0.2)
    for k in (0.4, 1.0, 2.5):
        wp2 = p.omega_p**2
        p0 = p.n0 * p.kB * p.T0_par
        A = np.array([
            [0.0, p.n0 * k, 0.0, 0.0],
            [wp2 / (p.n0 * k), 0.0, k / (p.m * p.n0), 0.0],
            [0.0, 3.0 * p0 * k, 0.0, k],
            [p.hbar**2 * k * wp2 / (4.0 * p.m), 0.0, -3.0 * p0 * k / (p.m * p.n0), 0.0],
        ])
        eig = np.linalg.eigvals(A)
        om_osc = math.sqrt(float(general_omega_sq(k, p)))
        rate = float(companion_growth_rate(k, p))
        re_sorted = np.sort(eig.real)
        im_sorted = np.sort(eig.imag)
        assert re_sorted[-1] == pytest.approx(om_osc, rel=1e-12)
        assert re_sorted[0] == pytest.approx(-om_osc, rel=1e-12)
        assert im_sorted[-1] == pytest.approx(rate, rel=1e-10)


def test_companion_rate_zero_at_k_zero_and_growing():
    p = nondimensional(hbar=1.0, T0_par=0.1)
    ks = np.linspace(0.0, 6.0, 50)
    rate = companion_growth_rate(ks, p)
    assert rate[0] == 0.0
    assert np.all(np.diff(rate) > 0.0)


def test_sweep_basics():
    p = nondimensional(hbar=1.0)
    ks = k_grid(0.0, 2.0, 2)
    om2 = evaluate("general", ks, p)
    assert om2.shape == (2,)
    assert ks[0] == 0.0 and om2[0] == p.omega_p**2
    assert np.sqrt(om2[0]) == pytest.approx(p.omega_p)


def test_sweep_monotone_in_omega_sq():
    p = nondimensional(hbar=0.7, T0_par=0.4)
    om2 = evaluate("general", k_grid(0.0, 5.0, 200), p)
    assert np.all(np.diff(om2) >= 0.0)


def test_sweep_general_never_exceeds_quantum_langmuir():
    # recorded numerically over the swept range (sqrt(1+s) <= 1 + s/2)
    p = nondimensional(hbar=0.9, T0_par=0.0)
    ks = k_grid(0.0, 4.0, 120)
    gap = evaluate("general", ks, p) - evaluate("quantum-langmuir", ks, p)
    assert np.all(gap <= 0.0)


def test_sweep_log_spacing():
    ks = k_grid(1e-3, 1.0, 31, log_spacing=True)
    ratios = ks[1:] / ks[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-10)


@pytest.mark.parametrize("call", [
    lambda p: k_grid(-1.0, 2.0, 10),
    lambda p: k_grid(2.0, 1.0, 10),
    lambda p: k_grid(0.0, 1.0, 1),
    lambda p: evaluate("nope", k_grid(0.0, 1.0, 10), p),
    lambda p: evaluate("adiabatic", k_grid(0.0, 1.0, 10), p),  # missing gamma
    lambda p: k_grid(0.0, 1.0, 10, log_spacing=True),
    lambda p: k_grid(0.0, np.inf, 10),
    lambda p: k_grid(0.1, np.inf, 10, log_spacing=True),
    lambda p: k_grid(0.0, 1.0, 2**18 + 1),
    lambda p: evaluate("general", np.array([1.0, 1e200]), p),
    lambda p: adiabatic_omega_sq(1.0, p, np.inf),
    lambda p: evaluate("adiabatic", k_grid(0.0, 1.0, 10), p, np.nan),
])
def test_sweep_validation(call):
    with pytest.raises(ConfigError):
        call(nondimensional())


def test_relation_registry_complete():
    assert set(RELATIONS) == {"general", "quantum-langmuir", "bohm-gross",
                              "adiabatic", "temperature-closure"}
