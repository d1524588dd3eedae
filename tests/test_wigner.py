import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfluid import moments, wigner
from qfluid.errors import ConfigError
from qfluid.wigner import (WavefunctionGrid, analytic_wigner,
                           evolve_free_gaussian, gaussian_packet, wigner_transform)

finite = st.floats(-20.0, 20.0)


def test_peak_value_is_one_for_all_times():
    for t in (0.0, 1.0, 5.0, 100.0):
        assert analytic_wigner(0.0, 0.0, t) == 1.0


@settings(max_examples=80)
@given(x=finite, v=finite, t=st.floats(0.0, 10.0))
def test_shear_transport_identity_literal(x, v, t):
    assert analytic_wigner(x, v, t) == analytic_wigner(x - v * t, v, 0.0)


def test_phase_space_normalization():
    # integral of f_bar over the rescaled plane is pi (so raw f integrates
    # to 1); the x window must cover the sheared ridge x ~ v t
    v = np.linspace(-7, 7, 501)
    for t in (0.0, 3.0):
        x = np.linspace(-14 - 7 * t, 14 + 7 * t, 1401)
        f = analytic_wigner(x[None, :], v[:, None], t)
        integral = np.trapezoid(np.trapezoid(f, x, axis=1), v)
        assert integral == pytest.approx(np.pi, rel=1e-10)


def test_packet_initial_shape_and_norm():
    x = np.linspace(-12, 12, 512)
    psi = gaussian_packet(x, 0.0, sigma=1.0)
    expected = np.pi**(-0.25) * np.exp(-x**2 / 2.0)
    assert np.allclose(psi, expected, atol=1e-15)
    assert np.max(np.abs(psi.imag)) == 0.0
    for t in (0.0, 2.0, 6.0):
        wfg = evolve_free_gaussian(1.0, t, x_max=60.0, n_points=2048)
        norm = np.sum(np.abs(wfg.psi) ** 2) * wfg.dx
        assert norm == pytest.approx(1.0, abs=1e-10)


def test_packet_variance_growth():
    sigma = 1.3
    for t in (0.0, 1.0, 4.0):
        wfg = evolve_free_gaussian(sigma, t, x_max=80.0, n_points=4096)
        dens = np.abs(wfg.psi) ** 2
        var = np.sum(wfg.x**2 * dens) * wfg.dx
        t_bar = t / sigma**2
        assert var == pytest.approx(0.5 * sigma**2 * (1.0 + t_bar**2), rel=1e-10)


def test_narrow_grid_rejected():
    with pytest.raises(ConfigError, match="too narrow"):
        evolve_free_gaussian(1.0, 6.0, x_max=12.0)


def test_transform_matches_closed_form():
    x = np.linspace(-12, 12, 128)
    v = np.linspace(-4, 4, 128)
    for t in (0.0, 2.0):
        wfg = evolve_free_gaussian(1.0, t, x_max=50.0, n_points=1024)
        table = wigner_transform(wfg, v=v, x=x)
        f_bar = np.pi * table.f  # sigma = 1: x_bar = x, v_bar = v
        expected = analytic_wigner(x[None, :], v[:, None], t)
        assert np.max(np.abs(f_bar - expected)) < 1e-9


def test_position_marginal_matches_density():
    x = np.linspace(-10, 10, 160)
    v = np.linspace(-4, 4, 256)
    for t in (0.0, 2.0):
        wfg = evolve_free_gaussian(1.0, t, x_max=50.0, n_points=1024)
        table = wigner_transform(wfg, v=v, x=x)
        marginal = np.trapezoid(table.f, v, axis=0)
        dens = np.abs(gaussian_packet(x, t)) ** 2
        assert np.max(np.abs(marginal - dens)) < 1e-8


def test_velocity_marginal_time_independent():
    v = np.linspace(-4, 4, 200)
    margs = []
    for t in (0.0, 4.0):
        wfg = evolve_free_gaussian(1.0, t, x_max=60.0, n_points=1024)
        x = np.linspace(-45, 45, 1200)  # wide: the density spreads
        table = wigner_transform(wfg, v=v, x=x)
        margs.append(np.trapezoid(table.f, x, axis=1))
    assert np.max(np.abs(margs[1] - margs[0])) < 1e-8


def _unfolded_reference(wfg, v, x):
    """The transform as one complex sum over the full symmetric s grid."""
    s_half = max(wigner._coherence_width(wfg), 8.0 * wfg.dx)
    ds = min(wfg.dx, 0.8 / max(float(np.max(np.abs(v))), 1.0 / s_half))
    s = np.linspace(-s_half, s_half, int(2.0 * s_half / ds) | 1)
    amp = wfg.amplitude_fn
    G = np.conj(amp(x[None, :] + 0.5 * s[:, None])) * amp(x[None, :] - 0.5 * s[:, None])
    return (np.exp(1j * np.outer(v, s)) @ G).real * (s[1] - s[0]) / (2.0 * math.pi)


def test_hermitian_fold_on_boosted_packet():
    # psi e^{i k0 x} has a complex integrand G(x, s); its Wigner function is
    # the packet's shifted to v = k0, so the sin(phase) Im G part of the fold
    # carries the whole shift
    k0 = 1.5

    def boosted(xx):
        return gaussian_packet(xx, 0.0) * np.exp(1j * k0 * xx)

    v = np.linspace(k0 - 4.0, k0 + 4.0, 64)
    x_grid = np.linspace(-14.0, 14.0, 512)
    x_out = np.linspace(-4.0, 4.0, 41)
    wfg = WavefunctionGrid(x=x_grid, amplitude_fn=boosted)
    table = wigner_transform(wfg, v=v, x=x_out)
    expected = np.exp(-x_out[None, :] ** 2 - (v[:, None] - k0) ** 2)
    assert np.max(np.abs(np.pi * table.f - expected)) < 1e-6
    reference = _unfolded_reference(wfg, v, x_out)
    assert np.max(np.abs(table.f - reference)) < 1e-13 * np.max(reference)


def test_boosted_packet_at_t6_matches_dense_reference():
    # the s nodes are spaced by psi's bandwidth k_c + |v|, not by the grid
    # step; the reference keeps ds <= dx.  The packet moves at k0 and its
    # phase chirps, so G is complex and far from s = 0 at every x
    k0, t = 1.5, 6.0

    def boosted(xx):
        return np.exp(1j * k0 * xx) * gaussian_packet(xx - k0 * t, t)

    half_width = 8.0 * math.sqrt(1.0 + t**2)   # the CLI's grid rule
    x_grid = k0 * t + np.linspace(-half_width, half_width, 1024)
    wfg = WavefunctionGrid(x=x_grid, amplitude_fn=boosted)
    v = np.linspace(k0 - 4.0, k0 + 4.0, 64)
    x = k0 * t + np.linspace(-12.0, 12.0, 41)
    table = wigner_transform(wfg, v=v, x=x)
    reference = _unfolded_reference(wfg, v, x)
    assert np.max(np.abs(table.f - reference)) < 1e-13 * np.max(reference)
    u = v[:, None] - k0
    expected = np.exp(-(x[None, :] - k0 * t - u * t) ** 2 - u**2)
    assert np.max(np.abs(np.pi * table.f - expected)) < 1e-9


def test_packet_resolved_to_nyquist_keeps_nodes_below_grid_step(monkeypatch):
    # sigma = 0.5 on 27 points: psi's spectrum is above 1e-13 of its peak
    # up to the grid's Nyquist wavenumber, so the bandwidth rule must not
    # coarsen the s nodes beyond the grid step.  |v| <= 2 keeps the kernel's
    # own 0.8 / |v| bound above the grid step
    wfg = evolve_free_gaussian(0.5, 0.0, x_max=4.0, n_points=27)
    spectrum = np.abs(np.fft.fft(wfg.psi))
    assert np.max(spectrum[13:15]) > 1e-13 * np.max(spectrum)
    v = np.linspace(-2.0, 2.0, 33)
    x = np.linspace(-1.5, 1.5, 31)
    table = wigner_transform(wfg, v=v, x=x)
    reference = _unfolded_reference(wfg, v, x)
    assert np.max(np.abs(table.f - reference)) < 1e-13 * np.max(reference)
    # the workspace refusal reports the node count: 2 s_half / ds
    monkeypatch.setattr(wigner, "_MAX_WORKSPACE_MIB", 0)
    with pytest.raises(ConfigError, match="s nodes") as refused:
        wigner_transform(wfg, v=v, x=x)
    nodes = float(re.search(r"needs (\S+) s nodes", str(refused.value)).group(1))
    assert nodes >= 2.0 * wigner._coherence_width(wfg) / wfg.dx


def test_default_panels_match_the_closed_form():
    # the four default `qfluid wigner` panels; measured at most 2.0e-15 in
    # f_bar, where gemm folds on linspace-shifted nodes were 4.1e-14 off
    x = np.linspace(-12.0, 12.0, 256)
    v = np.linspace(-4.0, 4.0, 256)
    for t in (0.0, 2.0, 4.0, 6.0):
        wfg = evolve_free_gaussian(1.0, t, max(14.0, 8.0 * math.sqrt(1.0 + t * t)), n_points=1024)
        assert not wigner.s_grid(wfg, v, x)[6]   # psi on the lattice
        f_bar = np.pi * wigner_transform(wfg, v=v, x=x).f
        assert np.max(np.abs(f_bar - analytic_wigner(x[None, :], v[:, None], t))) < 3e-15


def test_closely_spaced_positions_take_psi_at_the_nodes():
    # three positions 5e-7 apart: ds / (2 dx) is about 1.9e5, so one lattice
    # of step dx / q over every s would hold about 5e8 points; psi is taken
    # at the 3 (2 n_s + 1) points x_i +- s_j / 2 instead, in one call
    calls = []

    def packet(xx):
        calls.append(xx.size)
        return gaussian_packet(xx, 2.0)

    wfg = WavefunctionGrid(x=evolve_free_gaussian(1.0, 2.0, 30.0).x, amplitude_fn=packet)
    v, x = np.linspace(-3.0, 3.0, 33), np.linspace(0.0, 1e-6, 3)
    _, _, p, q, _, n_s, direct, _, _ = wigner.s_grid(wfg, v, x)
    assert direct and 2 * q + 2 * p * n_s > 1e8
    f_bar = np.pi * wigner_transform(wfg, v=v, x=x).f
    assert calls[1:] == [3 * (2 * n_s + 1)]
    assert np.max(np.abs(f_bar - analytic_wigner(x[None, :], v[:, None], 2.0))) < 1e-14


def test_real_packet_is_mirror_symmetric_in_v():
    # psi real at t = 0, so Im G = 0 and f(x, v) = f(x, -v) exactly on an
    # exactly symmetric velocity grid
    wfg = evolve_free_gaussian(1.0, 0.0, x_max=14.0, n_points=1024)
    v = 4.0 / 127.5 * (np.arange(256) - 127.5)
    assert (v == -v[::-1]).all()
    f = wigner_transform(wfg, v=v, x=np.linspace(-12.0, 12.0, 256)).f
    assert f.tobytes() == f[::-1].tobytes()


def test_permuted_velocities_give_the_permuted_rows():
    # duplicates, 0 and +-v pairs in any order: each row depends only on its
    # own v, bitwise, and the fold over |v| matches the unfolded sum
    def boosted(xx):
        return np.exp(1.5j * xx) * gaussian_packet(xx - 3.0, 2.0)

    wfg = WavefunctionGrid(x=np.linspace(-25.0, 31.0, 1024), amplitude_fn=boosted)
    v_sorted = np.concatenate([np.linspace(-2.5, 5.5, 33), [0.0, 1.5, 1.5, -1.5]])
    v_sorted.sort()
    v = np.random.default_rng(28).permutation(v_sorted)
    x = np.linspace(-4.0, 10.0, 57)
    sorted_f = wigner_transform(wfg, v=v_sorted, x=x).f
    table = wigner_transform(wfg, v=v, x=x)
    assert table.f.tobytes() == sorted_f[np.searchsorted(v_sorted, v)].tobytes()
    reference = _unfolded_reference(wfg, v, x)
    assert np.max(np.abs(table.f - reference)) < 1e-13 * np.max(reference)


def test_degenerate_transform_input_rejected():
    wfg = evolve_free_gaussian(1.0, 0.0, x_max=14.0, n_points=256)
    with pytest.raises(ConfigError, match="velocity"):
        wigner_transform(wfg, v=np.array([]), x=wfg.x)
    with pytest.raises(ConfigError, match="position"):
        wigner_transform(wfg, v=np.zeros(1), x=np.array([]))
    x = np.linspace(-3.0, 3.0, 7)
    for v, xx in (([np.inf], x), ([-np.inf], x), ([np.nan, 1.0], x),
                  ([1.0], [np.nan]), ([1.0], [np.inf]), ([1.0], [0.0, -np.inf])):
        with pytest.raises(ConfigError, match="finite velocities and positions"):
            wigner_transform(wfg, v=np.array(v), x=np.array(xx))
    for xx in (np.array([0.0, 0.1, 0.3]), np.zeros(2), np.array([-1e308, 1e308, 1e308])):
        with pytest.raises(ConfigError, match="uniform"):
            wigner_transform(wfg, v=np.ones(1), x=xx)
    for t in (-1.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="finite and non-negative"):
            evolve_free_gaussian(1.0, t, x_max=14.0)
    for n in (0, 1):
        with pytest.raises(ConfigError, match="at least 2 points"):
            evolve_free_gaussian(1.0, 0.0, x_max=14.0, n_points=n)
    with pytest.raises(ConfigError, match="exceeds the packet width"):
        evolve_free_gaussian(0.5, 0.0, x_max=4.0, n_points=9)
    with pytest.raises(ConfigError, match=r"x_max\*\*2 finite"):
        evolve_free_gaussian(1.0, 1e160, x_max=1e160, n_points=2**20)


def test_wavefunction_grid_validation():
    x = np.linspace(-5, 5, 64)
    with pytest.raises(ConfigError, match="not normalized"):
        WavefunctionGrid(x=x, amplitude_fn=lambda xx: np.ones(xx.shape, dtype=complex))
    xs = x.copy()
    xs[3] += 0.01
    with pytest.raises(ConfigError, match="uniform"):
        WavefunctionGrid(x=xs, amplitude_fn=lambda xx: gaussian_packet(xx, 0.0))
    # a fine linspace: its steps differ by the rounding of |x| <= 14, which
    # is above 1e-12 of the step from about 8000 points on
    fine = evolve_free_gaussian(1.0, 0.0, x_max=14.0, n_points=20000)
    assert np.ptp(np.diff(fine.x)) > 1e-12 * fine.dx


def test_wavefunction_grid_samples_its_amplitude_once(monkeypatch):
    evaluations = []
    monkeypatch.setattr(wigner, "gaussian_packet",
                        lambda *a: evaluations.append(a) or gaussian_packet(*a))
    evolve_free_gaussian(1.0, 2.0, x_max=30.0)
    assert len(evaluations) == 1
    x = np.linspace(-12, 12, 256)
    calls = []

    def packet(xx):
        calls.append(xx)
        return gaussian_packet(xx, 2.0)

    wfg = WavefunctionGrid(x=x, amplitude_fn=packet)
    assert len(calls) == 1 and calls[0] is x
    for v, xx in ((np.linspace(-4, 4, 64), np.linspace(-3, 3, 32)), (np.ones(1), np.zeros(1))):
        wigner_transform(wfg, v=v, x=xx)   # once per transform, on one 1D lattice
        assert len(calls) == 2 and calls[1].ndim == 1
        calls.pop()
    assert wfg.psi.tobytes() == gaussian_packet(x, 2.0).tobytes()
    assert wfg.psi.dtype == np.complex128
    with pytest.raises(AttributeError):
        wfg.psi = np.zeros_like(x)
    with pytest.raises(TypeError):   # samples alone do not define a grid
        WavefunctionGrid(x=x, psi=wfg.psi)
    for bad in (lambda xx: 1.0 + 0j,                              # a scalar
                lambda xx: gaussian_packet(xx[:-1], 0.0),         # one value short
                lambda xx: gaussian_packet(xx, 0.0)[:, None],     # a column
                lambda xx: np.where(xx == xx[5], np.nan, gaussian_packet(xx, 0.0)),
                lambda xx: np.where(xx == xx[5], np.inf, gaussian_packet(xx, 0.0))):
        with pytest.raises(ConfigError, match="finite numbers, one per grid point"):
            WavefunctionGrid(x=x, amplitude_fn=bad)


def test_numerical_shear_transport():
    # the non-spreading property on numerical data: f(x, v, t) equals the
    # t = 0 transform evaluated at the sheared positions x - v t
    t = 4.0
    v = np.linspace(-4, 4, 48)
    x = np.linspace(-10, 10, 96)
    wfg_t = evolve_free_gaussian(1.0, t, x_max=60.0, n_points=1024)
    table_t = wigner_transform(wfg_t, v=v, x=x)
    wfg_0 = evolve_free_gaussian(1.0, 0.0, x_max=60.0, n_points=1024)
    worst = 0.0
    for iv, vv in enumerate(v):
        sheared = wigner_transform(wfg_0, v=np.array([vv]), x=x - vv * t)
        worst = max(worst, float(np.max(np.abs(table_t.f[iv] - sheared.f[0]))))
    assert worst * np.pi < 1e-6  # rescaled units


def test_moments_of_tabulated_wigner_match_packet():
    # cross-module light check at t = 0 (full version in the acceptance suite)
    vgrid = moments.VelocityGrid.uniform(1, 4.0, 256)
    wfg = evolve_free_gaussian(1.0, 0.0, x_max=50.0, n_points=1024)
    for xq in (0.0, 0.7):
        table = wigner_transform(wfg, v=vgrid.axes[0], x=np.array([xq]))
        ms = moments.compute_moments(table.f[:, 0], vgrid)
        assert ms.n == pytest.approx(np.exp(-xq**2) / np.sqrt(np.pi), rel=1e-7)
        assert abs(ms.u[0]) < 1e-12
        assert ms.P[0, 0] == pytest.approx(ms.n * 0.5, rel=1e-6)


def test_pressure_of_the_pure_packet_is_the_madelung_pressure():
    # for a pure state the Wigner moments obey P = -(hbar^2 / 4m) n (ln n)''
    # (hbar = m = 1 here), the quantum pressure of the Bohm-Madelung fluid;
    # the free packet's density is a Gaussian of variance (1 + t^2) / 2, so
    # (ln n)'' = -2 / (1 + t^2) exactly.  Measured at most 5.1e-14
    # relative at t = 2, where the bulk velocity x t / (1 + t^2) is not 0.
    t = 2.0
    vgrid = moments.VelocityGrid.uniform(1, 6.0, 512)
    wfg = evolve_free_gaussian(1.0, t, x_max=30.0, n_points=1024)
    x = np.linspace(-3.5, 2.5, 7)
    table = wigner_transform(wfg, v=vgrid.axes[0], x=x)
    for j, xq in enumerate(x):
        ms = moments.compute_moments(table.f[:, j], vgrid)
        madelung = -0.25 * ms.n * (-2.0 / (1.0 + t * t))
        assert abs(ms.u[0]) >= 0.2 - 1e-12
        assert ms.P[0, 0] == pytest.approx(madelung, rel=1e-13, abs=0.0)
