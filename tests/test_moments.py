import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfluid.errors import ConfigError, MomentError
from qfluid.moments import (MomentSet, VelocityGrid, compute_moments,
                            load_distribution_csv, maxwellian,
                            save_distribution_csv)

KB = 1.0
MASS = 1.0


def grid3(n=48, vmax=9.0):
    return VelocityGrid.uniform(3, vmax, n)


def test_maxwellian_moments_3d():
    g = grid3()
    T = 1.3
    f = maxwellian(g, density=2.0, temperature=T)
    ms = compute_moments(f, g, mass=MASS)
    assert ms.n == pytest.approx(2.0, rel=1e-10)
    assert np.allclose(ms.u, 0.0, atol=1e-12)
    assert np.allclose(ms.P, 2.0 * KB * T * np.eye(3), atol=1e-9)
    assert np.allclose(ms.Q, 0.0, atol=1e-10)
    assert ms.p == pytest.approx(2.0 * KB * T, rel=1e-9)
    assert ms.boundary_ok


@settings(max_examples=20, deadline=None)
@given(w=st.floats(-1.0, 1.0))
def test_central_moments_translation_invariant(w):
    g = VelocityGrid.uniform(1, 10.0, 128)
    f0 = maxwellian(g, density=1.0, temperature=0.8)
    fw = maxwellian(g, density=1.0, temperature=0.8, drift=w)
    m0 = compute_moments(f0, g)
    mw = compute_moments(fw, g)
    assert mw.u[0] == pytest.approx(w, abs=1e-9)
    assert mw.P[0, 0] == pytest.approx(m0.P[0, 0], rel=1e-8, abs=1e-10)
    assert mw.Q[0, 0, 0] == pytest.approx(m0.Q[0, 0, 0], abs=1e-9)
    assert mw.R[0, 0, 0, 0] == pytest.approx(m0.R[0, 0, 0, 0], rel=1e-8)


def test_bi_maxwellian_pressure_dyad_and_gaussian_fourth_moment():
    g = grid3(n=56)
    n_hat, t_perp, t_par = 1.5, 0.7, 1.4
    f = maxwellian(g, density=n_hat, temperature=(t_perp, t_perp, t_par))
    ms = compute_moments(f, g)
    expected_P = n_hat * KB * np.diag([t_perp, t_perp, t_par])
    assert np.allclose(ms.P, expected_P, atol=1e-8)
    # Gaussian fourth central moments: R_iiii = 3 n theta_i^2, R_iijj = n theta_i theta_j
    theta = np.array([t_perp, t_perp, t_par]) * KB / MASS
    for i in range(3):
        assert ms.R[i, i, i, i] == pytest.approx(3.0 * n_hat * MASS * theta[i] ** 2, rel=1e-7)
        for j in range(3):
            if i != j:
                assert ms.R[i, i, j, j] == pytest.approx(n_hat * MASS * theta[i] * theta[j],
                                                         rel=1e-7)
                assert ms.R[i, j, i, j] == ms.R[i, i, j, j]  # exact symmetry
    # odd components vanish
    assert ms.R[0, 0, 0, 1] == pytest.approx(0.0, abs=1e-10)


def test_permutation_symmetry_is_bitwise():
    g = grid3(n=32, vmax=7.0)
    f = maxwellian(g, density=1.0, temperature=(0.6, 1.0, 1.5))
    # skew it so Q and R have nontrivial entries
    vx = g.axes[0].reshape(-1, 1, 1)
    vy = g.axes[1].reshape(1, -1, 1)
    vz = g.axes[2].reshape(1, 1, -1)
    f = f * (1.0 + 0.2 * np.tanh(vx) * vy * np.exp(-0.1 * vz**2))
    ms = compute_moments(f, g)
    for idx in itertools.product(range(3), repeat=3):
        for perm in itertools.permutations(idx):
            assert ms.Q[idx] == ms.Q[perm]  # bitwise
    for idx in itertools.product(range(3), repeat=4):
        for perm in itertools.permutations(idx):
            assert ms.R[idx] == ms.R[perm]
    assert (ms.P == ms.P.T).all()


def test_even_distribution_has_zero_heat_flux():
    g = grid3(n=40)
    f = maxwellian(g, density=1.0, temperature=(0.5, 1.0, 2.0))
    ms = compute_moments(f, g)
    assert np.max(np.abs(ms.Q)) < 1e-10


def test_quadrature_convergence_on_doubling():
    # wide enough that truncation is negligible; the n = 8 grid underresolves
    T = 1.0
    errors = []
    for n in (8, 16, 32):
        g = VelocityGrid.uniform(1, 8.0, n)
        f = maxwellian(g, density=1.0, temperature=T)
        ms = compute_moments(f, g, boundary_threshold=1.0)
        errors.append(abs(ms.P[0, 0] - KB * T))
    # trapezoid on a smooth decaying integrand: at least 4x gain per doubling
    assert errors[1] < errors[0] / 4.0
    assert errors[2] < errors[1] / 4.0


def test_scalar_pressure_isotropic_and_anisotropic():
    g = grid3()
    f = maxwellian(g, density=1.0, temperature=1.0)
    ms = compute_moments(f, g)
    assert ms.p == pytest.approx(1.0, rel=1e-9)

    t_perp, t_par = 0.5, 2.0
    fb = maxwellian(g, density=1.0, temperature=(t_perp, t_perp, t_par))
    msb = compute_moments(fb, g)
    assert msb.p == pytest.approx(KB * (2 * t_perp + t_par) / 3.0, rel=1e-8)


def test_heat_flux_vector_against_direct_quadrature():
    g = grid3(n=40, vmax=8.0)
    f = maxwellian(g, density=1.0, temperature=1.0)
    vx = g.axes[0].reshape(-1, 1, 1)
    f = f * (1.0 + 0.3 * vx * np.exp(-0.2 * vx**2))  # skew along x
    ms = compute_moments(f, g)
    # independent route: q_i = (m/2) int |v-u|^2 (v_i - u_i) f dv by direct sums
    W = np.multiply.outer(np.multiply.outer(g.weights[0], g.weights[1]), g.weights[2])
    vs = [g.axes[i].reshape([-1 if j == i else 1 for j in range(3)]) for i in range(3)]
    dv = [vs[i] - ms.u[i] for i in range(3)]
    sq = sum(d**2 for d in dv)
    for i in range(3):
        direct = 0.5 * MASS * float(np.sum(W * f * sq * dv[i]))
        assert ms.q[i] == pytest.approx(direct, rel=1e-12, abs=1e-14)


def test_nonpositive_density_raises():
    g = VelocityGrid.uniform(1, 5.0, 32)
    f = -maxwellian(g, density=1.0, temperature=1.0)
    with pytest.raises(MomentError):
        compute_moments(f, g)


def test_boundary_decay_violation_flags_result():
    g = VelocityGrid.uniform(1, 1.5, 32)  # far too narrow for T = 1
    f = maxwellian(g, density=1.0, temperature=1.0)
    ms = compute_moments(f, g)
    assert not ms.boundary_ok


def test_gauss_hermite_matches_trapezoid():
    gt = VelocityGrid.uniform(1, 9.0, 96)
    gh = VelocityGrid.gauss_hermite(1, 32, scale=1.5, center=0.1)
    T, w = 0.9, 0.1
    mt = compute_moments(maxwellian(gt, 1.0, T, drift=w), gt)
    mh = compute_moments(maxwellian(gh, 1.0, T, drift=w), gh,
                         boundary_threshold=np.inf)
    assert mh.n == pytest.approx(mt.n, rel=1e-9)
    assert mh.u[0] == pytest.approx(mt.u[0], abs=1e-9)
    assert mh.P[0, 0] == pytest.approx(mt.P[0, 0], rel=1e-8)


@pytest.mark.parametrize("bad_call", [
    lambda: VelocityGrid.uniform(2, 5.0, 32),                      # 2D unsupported
    lambda: VelocityGrid.uniform(1, 5.0, 4),                       # too few nodes
    lambda: VelocityGrid(axes=(np.array([3.0, 2.0, 1.0] * 3),),
                         weights=(np.ones(9),)),                   # not increasing
    lambda: VelocityGrid(axes=(np.linspace(0, 1, 9),),
                         weights=(-np.ones(9),)),                  # negative weights
])
def test_grid_validation(bad_call):
    with pytest.raises(ConfigError):
        bad_call()


def test_wrong_shape_distribution():
    g = grid3(n=16)
    with pytest.raises(ConfigError):
        compute_moments(np.zeros((16, 16)), g)


def test_csv_roundtrip_1d(tmp_path):
    g = VelocityGrid.uniform(1, 6.0, 64)
    f = maxwellian(g, density=1.3, temperature=0.8)
    path = tmp_path / "dist1d.csv"
    save_distribution_csv(path, f, g)
    f2, g2 = load_distribution_csv(path)
    assert f2.tobytes() == f.tobytes()
    assert g2.axes[0].tobytes() == g.axes[0].tobytes()
    ms, ms2 = compute_moments(f, g), compute_moments(f2, g2)
    assert ms2.n == pytest.approx(ms.n, rel=1e-12)


def test_csv_roundtrip_3d(tmp_path):
    g = grid3(n=12)
    f = maxwellian(g, density=1.0, temperature=(0.5, 1.0, 1.5))
    path = tmp_path / "dist3d.csv"
    save_distribution_csv(path, f, g)
    f2, g2 = load_distribution_csv(path)
    assert f2.shape == f.shape
    assert f2.tobytes() == f.tobytes()
    assert all(a2.tobytes() == a.tobytes() for a2, a in zip(g2.axes, g.axes))


def test_momentset_serialization_names():
    g = VelocityGrid.uniform(3, 8.0, 24)
    ms = compute_moments(maxwellian(g, 1.0, 1.0), g, boundary_threshold=1.0)
    d = ms.to_dict()
    assert {"n", "p", "u_x", "u_y", "u_z", "q_x", "P_xx", "P_xy", "Q_xyz",
            "R_xxzz"} <= set(d)
