import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfluid import fluid1d, moments
from qfluid.dispersion import general_omega_sq
from qfluid.errors import ConfigError
from qfluid.linear_response import anisotropic_dyad, delta_P
from qfluid.params import nondimensional


def make_input(p0=1.0, k=1.0, hbar=1.0, dphi=0.5, omega_sq=None, P0=None):
    """Keyword arguments of ``delta_P`` at one (k, omega^2) point."""
    params = nondimensional(hbar=hbar)
    if omega_sq is None:
        omega_sq = float(general_omega_sq(k, params))
    if P0 is None:
        P0 = p0 * np.eye(3)
    return dict(k=k, omega_sq=omega_sq, delta_phi=dphi, P0=P0, params=params)


def test_isotropic_classical_anisotropy_ratio_is_exactly_three():
    inp = make_input(p0=1.0, hbar=0.0)
    dP = delta_P(**inp)
    assert dP[2, 2] / dP[0, 0] == 3.0
    assert dP[0, 0] == dP[1, 1]


def test_isotropic_quantum_anisotropy_ratio():
    p0, k = 0.8, 1.3
    inp = make_input(p0=p0, k=k, hbar=1.0)
    dP = delta_P(**inp)
    par = inp["params"]
    expected = 3.0 + par.n0 * par.hbar**2 * k**2 / (4.0 * par.m * p0)
    assert dP[2, 2] / dP[0, 0] == pytest.approx(expected, rel=1e-15)


def test_component_values_isotropic():
    p0, k, dphi = 1.0, 1.0, 0.5
    inp = make_input(p0=p0, k=k, dphi=dphi, hbar=1.0)
    par = inp["params"]
    coeff = par.e * dphi * k**2 / (par.m * inp["omega_sq"])
    dP = delta_P(**inp)
    assert dP[0, 0] == pytest.approx(-coeff * p0, rel=1e-15)
    assert dP[2, 2] == pytest.approx(
        -coeff * (3.0 * p0 + par.n0 * par.hbar**2 * k**2 / (4.0 * par.m)), rel=1e-15)
    assert dP[0, 1] == 0.0 and dP[0, 2] == 0.0 and dP[1, 2] == 0.0


def test_zero_potential_gives_zero_response():
    dP = delta_P(**make_input(dphi=0.0))
    assert np.all(dP == 0.0)


@settings(max_examples=40)
@given(alpha=st.floats(-1e3, 1e3))
def test_linearity_in_potential(alpha):
    base = delta_P(**make_input(dphi=1.0))
    scaled = delta_P(**make_input(dphi=alpha))
    assert np.allclose(scaled, alpha * base, rtol=1e-14, atol=1e-305)


@settings(max_examples=40)
@given(pxx=st.floats(0.1, 5.0), pyy=st.floats(0.1, 5.0), pzz=st.floats(0.1, 5.0))
def test_diagonal_equilibrium_stays_diagonal(pxx, pyy, pzz):
    dP = delta_P(**make_input(P0=np.diag([pxx, pyy, pzz])))
    off = dP - np.diag(np.diag(dP))
    assert np.all(off == 0.0)


def test_output_symmetry_exact_for_general_p0():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(3, 3))
    P0 = 0.5 * (A + A.T) + 3.0 * np.eye(3)
    dP = delta_P(**make_input(P0=P0))
    assert (dP == dP.T).all()


def test_formula_against_manual_construction():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(3, 3))
    P0 = 0.5 * (A + A.T) + 3.0 * np.eye(3)
    k, dphi = 1.7, 0.3
    inp = make_input(P0=P0, k=k, dphi=dphi)
    par = inp["params"]
    dP = delta_P(**inp)
    coeff = -par.e * dphi * k**2 / (par.m * inp["omega_sq"])
    manual = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            term = P0[i, j]
            if j == 2:
                term += P0[i, 2]
            if i == 2:
                term += P0[j, 2]
            if i == 2 and j == 2:
                term += par.n0 * par.hbar**2 * k**2 / (4.0 * par.m)
            manual[i, j] = coeff * term
    assert np.allclose(dP, manual, rtol=1e-14)


def test_rejects_nonpositive_omega_sq():
    with pytest.raises(ConfigError):
        delta_P(**make_input(omega_sq=0.0))
    with pytest.raises(ConfigError):
        delta_P(**make_input(omega_sq=-1.0))
    with pytest.raises(ConfigError):
        delta_P(**make_input(omega_sq=np.inf))


def test_overflowing_response_is_rejected_without_warnings(recwarn):
    # 1e308 is finite, but 0.5 (P0 + P0^T) and the zz entry 3 P0_zz overflow
    with pytest.raises(ConfigError, match="overflows at k = 1.0"):
        delta_P(**make_input(p0=1e308))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_rejects_asymmetric_p0():
    P0 = np.eye(3)
    P0[0, 1] = 0.5
    with pytest.raises(ConfigError):
        delta_P(**make_input(P0=P0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_p0(bad):
    # nan slips through the symmetry comparison, so finiteness is its own check
    P0 = np.eye(3)
    P0[0, 0] = bad
    with pytest.raises(ConfigError, match="finite"):
        delta_P(**make_input(P0=P0))
    with pytest.raises(ConfigError, match="finite"):
        delta_P(**make_input(P0=np.full((3, 3), bad)))


def test_delta_P_broadcasts_over_k():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(3, 3))
    P0 = 0.5 * (A + A.T) + 3.0 * np.eye(3)
    params = nondimensional(hbar=0.7, T0_par=0.2)
    ks = np.linspace(0.1, 2.0, 17)
    om2 = general_omega_sq(ks, params)
    dP = delta_P(ks, om2, 0.4, P0, params)
    assert dP.shape == (17, 3, 3)
    stacked = np.stack([delta_P(float(k), float(w), 0.4, P0, params)
                        for k, w in zip(ks, om2)])
    assert np.array_equal(dP, stacked)
    # a scalar omega^2 broadcasts against the k array
    assert delta_P(ks, 2.0, 0.4, P0, params).shape == (17, 3, 3)
    with pytest.raises(ConfigError, match="omega"):
        delta_P(ks, np.where(ks > 1.0, np.nan, om2), 0.4, P0, params)


def test_anisotropic_dyad_isotropic_case_and_trace():
    params = nondimensional()
    T = 1.2
    assert np.array_equal(anisotropic_dyad(2.0, T, T, params),
                          2.0 * params.kB * T * np.eye(3))
    dyad = anisotropic_dyad(1.5, 0.4, 2.2, params)
    assert np.trace(dyad) / 3.0 == pytest.approx(1.5 * params.kB * (2 * 0.4 + 2.2) / 3.0,
                                                 rel=1e-15)
    with pytest.raises(ConfigError):
        anisotropic_dyad(-1.0, 1.0, 1.0, params)


def test_anisotropic_dyad_matches_bi_maxwellian_moments():
    # cross-module oracle: quadrature moments of a tabulated bi-Maxwellian
    params = nondimensional(T0_par=1.4, T0_perp=0.6)
    g = moments.VelocityGrid.uniform(3, 9.0, 48)
    f = moments.maxwellian(g, density=params.n0,
                           temperature=(params.T0_perp, params.T0_perp, params.T0_par),
                           mass=params.m, kB=params.kB)
    ms = moments.compute_moments(f, g, mass=params.m)
    dyad = anisotropic_dyad(params.n0, params.T0_perp, params.T0_par, params)
    assert np.allclose(ms.P, dyad, rtol=1e-7, atol=1e-9)


def test_closed_loop_momentum_balance_reproduces_dispersion():
    # inserting dP_zz into the linearized momentum equation together with
    # continuity and the potential equation must close exactly on the
    # oscillatory branch: residual below 1e-12 in nondimensional units
    params = nondimensional(hbar=0.8, T0_par=0.3)
    P0 = anisotropic_dyad(params.n0, params.T0_perp, params.T0_par, params)
    for k in (0.3, 1.0, 2.4):
        om2 = float(general_omega_sq(k, params))
        om = np.sqrt(om2)
        dP = delta_P(k, om2, 1.0, P0, params)
        du = -params.eps0 * k * om / (params.e * params.n0)  # continuity + potential
        residual = (-1j * om * du
                    + 1j * k * dP[2, 2] / (params.m * params.n0)
                    - 1j * k * params.e / params.m)
        scale = abs(om * du) + k * params.e / params.m
        assert abs(residual) < 1e-12 * scale


def test_off_branch_omega_leaves_nonzero_residual():
    # sanity check that the closed loop is a real constraint
    params = nondimensional(hbar=0.8, T0_par=0.3)
    P0 = anisotropic_dyad(params.n0, params.T0_perp, params.T0_par, params)
    k = 1.0
    om2 = 1.5 * float(general_omega_sq(k, params))
    om = np.sqrt(om2)
    dP = delta_P(k, om2, 1.0, P0, params)
    du = -params.eps0 * k * om / (params.e * params.n0)
    residual = (-1j * om * du + 1j * k * dP[2, 2] / (params.m * params.n0)
                - 1j * k * params.e / params.m)
    assert abs(residual) > 1e-3


@pytest.mark.parametrize("hbar, tpar", [(1.0, 0.0), (0.2, 0.02), (0.0, 0.1)])
def test_eigenmode_pressure_row_is_the_response_to_its_own_potential(hbar, tpar):
    # an oracle from outside the fluid module: the pressure row that
    # eigenmode_state builds from the dispersion relation is delta_P's zz
    # component at the mode's own potential, dphi = -e n1 / (eps0 k^2).
    # Measured: 2.5e-11 to 6.4e-11, the rounding of n = 1 + 1e-6 cos kx
    params = nondimensional(hbar=hbar, T0_par=tpar)
    grid = fluid1d.Grid1D(64, 2.0 * np.pi)
    P0 = anisotropic_dyad(params.n0, params.T0_perp, params.T0_par, params)
    for mode in (1, 5, 20):
        state = fluid1d.eigenmode_state(grid, params, mode, 1e-6)
        k = mode * grid.k_fundamental
        n1, p1 = (2.0 * np.fft.rfft(row)[mode] / grid.n_points for row in (state.n, state.p))
        dphi = -params.e * n1 / (params.eps0 * k * k)
        want = delta_P(k, general_omega_sq(k, params), 1.0, P0, params)[2, 2] * dphi
        assert abs(p1 - want) < 1.5e-10 * abs(want), mode
