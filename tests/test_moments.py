import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfluid import wigner
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
        ms = compute_moments(f, g)
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
    # a non-finite node is bad input, not a density the quadrature rejects
    for bad in (np.nan, np.inf, -np.inf):
        f = maxwellian(g, density=1.0, temperature=1.0)
        f[5] = bad
        with pytest.raises(ConfigError, match="non-finite"):
            compute_moments(f, g)


def test_boundary_decay_violation_flags_result():
    g = VelocityGrid.uniform(1, 1.5, 32)  # far too narrow for T = 1
    f = maxwellian(g, density=1.0, temperature=1.0)
    ms = compute_moments(f, g)
    assert not ms.boundary_ok


@pytest.mark.parametrize("bad_call", [
    lambda: VelocityGrid.uniform(2, 5.0, 32),                      # 2D unsupported
    lambda: VelocityGrid.uniform(1, 5.0, 4),                       # too few nodes
    lambda: VelocityGrid(axes=(np.array([3.0, 2.0, 1.0] * 3),)),   # not increasing
    lambda: VelocityGrid(axes=([0.0, 1, 2, 3, 4, 5, 6, np.inf],)),  # not finite
])
def test_grid_validation(bad_call):
    with pytest.raises(ConfigError):
        bad_call()


def test_grid_weights_are_the_trapezoid_rule_of_its_nodes():
    # nonuniform nodes given as lists: the grid holds them as float arrays
    nodes = ([-3, -2.5, -1, 0, 0.25, 1, 2, 4], list(np.linspace(-1.0, 2.0, 9)),
             list(np.geomspace(0.1, 100.0, 10)))
    g = VelocityGrid(nodes)
    assert g.d == 3 and g.shape == (8, 9, 10)
    for v, a, w in zip(nodes, g.axes, g.weights):
        assert a.dtype == np.float64 and a.tolist() == [float(x) for x in v]
        h = np.diff(a)
        assert w.tolist() == (0.5 * np.append(h, 0.0) + 0.5 * np.append(0.0, h)).tolist()
        assert w.sum() == pytest.approx(a[-1] - a[0], rel=1e-15)
    assert g.weights is g.weights   # built once per grid


def test_grids_compare_and_hash_by_identity():
    # an array field makes a generated == ambiguous and hash undefined
    a, b = VelocityGrid.uniform(1, 4.0, 16), VelocityGrid.uniform(1, 4.0, 16)
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


def test_wrong_shape_distribution():
    g = grid3(n=16)
    with pytest.raises(ConfigError):
        compute_moments(np.zeros((16, 16)), g)
    f = maxwellian(g, density=1.0, temperature=1.0)
    f[3, 4, 5] = np.nan
    with pytest.raises(ConfigError, match="non-finite"):
        compute_moments(f, g)
    f = maxwellian(g, density=1.0, temperature=1.0)
    for mass in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ConfigError, match="mass"):
            compute_moments(f, g, mass=mass)


@pytest.mark.parametrize("kwargs", [
    {"temperature": 0.0},
    {"temperature": -1.0},
    {"temperature": np.nan},
    {"temperature": np.inf},
    {"temperature": (1.0, 0.0, 1.0)},
    {"mass": 0.0},
    {"mass": -1.0},
    {"mass": np.inf},
    {"temperature": -1.0, "mass": -1.0},     # kB T / mass > 0 from two negatives
    {"kB": 0.0},
    {"kB": np.nan},
    {"temperature": 1e-300, "kB": 1e-300},   # kB T / mass underflows to 0
    {"temperature": 1e300, "kB": 1e300},     # kB T / mass overflows
    {"density": np.nan},
    {"density": np.inf},
    {"drift": (0.0, np.nan, 0.0)},
    {"drift": np.inf},
], ids=lambda kwargs: ",".join(f"{k}={v}" for k, v in kwargs.items()))
def test_maxwellian_refuses_a_degenerate_table(kwargs):
    # pytest turns a numpy RuntimeWarning into an error, so this also
    # checks that the refusal comes before any division or square root
    args = {"density": 1.0, "temperature": 1.0, **kwargs}
    with pytest.raises(ConfigError):
        maxwellian(grid3(n=8), **args)


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
    ms = compute_moments(maxwellian(g, 1.0, 1.0), g)
    d = ms.to_dict()
    assert {"n", "p", "u_x", "u_y", "u_z", "q_x", "P_xx", "P_xy", "Q_xyz",
            "R_xxzz"} <= set(d)


def reference_moments(f, grid, mass=1.0):
    """The per-component quadrature that ``compute_moments`` replaced: one
    chain of full-grid products per sorted index tuple, summed by np.sum.
    Returns (n, u, P, Q, R, p, q)."""
    d = grid.d
    W = grid.weights[0]
    for w in grid.weights[1:]:
        W = np.multiply.outer(W, w)
    vs = [grid.axes[ax].reshape([-1 if j == ax else 1 for j in range(d)]) for ax in range(d)]
    wf = W * f
    n = float(np.sum(wf))
    u = np.array([float(np.sum(wf * v)) / n for v in vs])
    dv = [v - u_ax for v, u_ax in zip(vs, u)]

    def central(rank):
        T = np.empty((d,) * rank)
        for idx in itertools.product(range(d), repeat=rank):
            g = wf
            for ax in sorted(idx):
                g = g * dv[ax]
            T[idx] = mass * float(np.sum(g))
        return T

    P, Q, R = central(2), central(3), central(4)
    p = float(np.trace(P)) / 3.0 if d == 3 else float(P[0, 0])
    return n, u, P, Q, R, p, 0.5 * np.einsum("jji->i", Q)


def _skewed_table(d):
    """A drifting (bi-)Maxwellian with odd mixed moments on a grid whose
    axes differ in range and node count, and its twin minus a narrow
    displaced Gaussian: a table with a negative lobe, as Wigner data have."""
    if d == 1:
        g = VelocityGrid((np.linspace(-7.5, 8.5, 201),))
        f = maxwellian(g, 1.3, 0.9, drift=0.4)
        v = g.axes[0]
        lobe = maxwellian(g, 0.5, 0.05, drift=1.2)
        return g, f * (1.0 + 0.3 * np.tanh(v)), lobe
    g = VelocityGrid((np.linspace(-6.0, 6.5, 26), np.linspace(-7.0, 6.0, 30),
                      np.linspace(-8.0, 8.5, 34)))
    f = maxwellian(g, 1.3, (0.6, 1.0, 1.5), drift=(0.2, -0.3, 0.1))
    vx, vy, vz = np.meshgrid(*g.axes, indexing="ij", sparse=True)
    skew = (1.0 + 0.2 * np.tanh(vx)) * (1.0 + 0.3 * np.tanh(vx) * np.tanh(vy) * np.tanh(vz))
    lobe = maxwellian(g, 0.3, (0.1, 0.15, 0.2), drift=(1.0, -0.5, 0.5))
    return g, f * skew, lobe


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("negative_lobe", [False, True], ids=["positive", "negative-lobe"])
def test_contractions_match_the_per_component_reference(d, negative_lobe):
    g, f, lobe = _skewed_table(d)
    if negative_lobe:
        f = f - lobe
        assert f.min() < -0.05 * f.max()
    mass = 1.7
    ms = compute_moments(f, g, mass=mass)
    n, u, P, Q, R, p, q = reference_moments(f, g, mass=mass)
    # the physical scales: n, the thermal speed, p, p v_th and p v_th^2
    v_th = np.sqrt(p / (mass * n))
    for got, ref, scale in [(ms.n, n, n), (ms.u, u, v_th), (ms.P, P, p), (ms.p, p, p),
                            (ms.Q, Q, p * v_th), (ms.q, q, p * v_th),
                            (ms.R, R, p * v_th**2)]:
        assert np.max(np.abs(np.asarray(got) - ref)) <= 1e-13 * scale
    assert np.max(np.abs(Q)) > 1e-3 * p * v_th   # the table's odd moments are not 0


def test_wigner_packet_has_gaussian_heat_flux_and_fourth_moment():
    # criterion 8's tables: a free Gaussian packet's Wigner function is a
    # Gaussian in v at each x, so Q = 0 and R = 3 P^2/(m n); at t = 0 the
    # truncation of the v grid at |v| = 4 sets the R error
    vgrid = VelocityGrid.uniform(1, 4.0, 256)
    for t, q_bound, r_bound in ((0.0, 2e-15, 1e-5), (2.0, 1e-8, 2e-8)):
        wfg = wigner.evolve_free_gaussian(1.0, t)
        xs = np.linspace(-3.0, 3.0, 13) * np.sqrt((1.0 + t**2) / 2.0)
        table = wigner.wigner_transform(wfg, v=vgrid.axes[0], x=xs)
        for j in range(len(xs)):
            ms = compute_moments(table.f[:, j], vgrid, mass=MASS)
            P, n = ms.P[0, 0], ms.n
            gaussian_R = 3.0 * P**2 / (MASS * n)
            assert abs(ms.Q[0, 0, 0]) <= q_bound * P**1.5 / np.sqrt(MASS * n)
            assert abs(ms.R[0, 0, 0, 0] - gaussian_R) <= r_bound * gaussian_R


@pytest.mark.parametrize("v_b, mass", [(1.0, 1.0), (0.5, 2.0), (3.0, 0.7)])
def test_waterbag_fourth_moment_departs_from_the_gaussian(v_b, mass):
    # f = 1/(2 v_b) on |v| <= v_b: R - 3 P^2/(m n) = -(2/15) n m v_b^4; the
    # trapezoid rule's h^2 errors in P and R cancel in that difference
    g = VelocityGrid.uniform(1, v_b, 4001)
    ms = compute_moments(np.full(4001, 0.5 / v_b), g, mass=mass)
    excess = ms.R[0, 0, 0, 0] - 3.0 * ms.P[0, 0] ** 2 / (mass * ms.n)
    exact = -2.0 / 15.0 * ms.n * mass * v_b**4
    assert abs(excess - exact) <= 1e-13 * abs(exact)
