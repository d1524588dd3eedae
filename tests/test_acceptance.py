"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from qfluid import dispersion, fluid1d, linear_response, moments, traveling, wigner
from qfluid.errors import SonicSingularityError
from qfluid.params import nondimensional


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {title}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {title}")


def test_criterion_1_limit_coefficients():
    # polynomial fit of the general relation minus wp^2 on the smallest of
    # three decades recovers 3 kB T0_par / m and hbar^2 / (4 m^2) to 0.1%
    with criterion(1, "long-wavelength limit recovers quadratic and quartic "
                      "coefficients within 0.1%"):
        p = nondimensional(hbar=1.0, T0_par=1e-3)
        ks = np.geomspace(1e-3, 1.0, 46)          # three decades
        window = ks[ks <= 1e-2]                   # smallest decade
        y = dispersion.general_omega_sq(window, p) - p.omega_p**2
        # y/k^2 = a + b k^2 is linear in k^2 and perfectly conditioned
        coeffs = np.polynomial.polynomial.polyfit(window**2, y / window**2, 1)
        a_fit, b_fit = coeffs[0], coeffs[1]
        a_true = 3.0 * p.kB * p.T0_par / p.m
        b_true = p.hbar**2 / (4.0 * p.m**2)
        assert abs(a_fit - a_true) < 1e-3 * a_true
        assert abs(b_fit - b_true) < 1e-3 * b_true


def test_criterion_2_closure_comparison():
    # exact formula identities among the five relations at a warm,
    # weakly-quantum point
    with criterion(2, "closure comparison table orders and identities hold "
                      "exactly"):
        p = nondimensional(hbar=0.3, T0_par=0.1)
        ks = np.linspace(0.2, 2.0, 40)

        bg = dispersion.bohm_gross_omega_sq(ks, p)
        ad3 = dispersion.adiabatic_omega_sq(ks, p, 3.0)
        ad53 = dispersion.adiabatic_omega_sq(ks, p, 5.0 / 3.0)
        ql = dispersion.quantum_langmuir_omega_sq(ks, p)
        tc = dispersion.temperature_closure_omega_sq(ks, p)

        assert np.array_equal(bg, ad3)                 # gamma = 3 IS Bohm-Gross
        assert np.all(ad53 < bg)                       # 5/3 sits below it
        assert np.all(bg < ql)                         # quantum recoil raises QL
        assert np.all(tc < ql)

        # quartic coefficient of the temperature closure is exactly 1/3 of
        # the quantum Langmuir one (isolated at zero temperature)
        p_cold = p.with_(T0_par=0.0)
        ql_quartic = dispersion.quantum_langmuir_omega_sq(ks, p_cold) - p.omega_p**2
        tc_quartic = dispersion.temperature_closure_omega_sq(ks, p_cold) - p.omega_p**2
        assert np.allclose(ql_quartic / tc_quartic, 3.0, rtol=1e-12)


FLUID_POINTS = [
    # (mode number, thermal strength tau, quantum strength eta at that mode)
    ("classical", 1, 0.16, 0.0),
    ("classical", 2, 0.36, 0.0),
    ("mixed", 3, 0.08, 0.02),
    ("quantum", 4, 0.01, 0.10),
    ("quantum", 5, 0.0, 0.16),
]


def test_criterion_3_end_to_end_dispersion():
    # time-domain runs at five distinct wavenumbers spanning classical- and
    # quantum-dominated regimes must oscillate at the general-relation
    # frequency within 1%
    with criterion(3, "time-domain frequencies match the dispersion relation "
                      "within 1% at 5 wavenumbers"):
        grid = fluid1d.Grid1D(256, 2.0 * np.pi)
        worst = 0.0
        for label, mode, tau, eta in FLUID_POINTS:
            k = mode * grid.k_fundamental
            p = nondimensional(hbar=math.sqrt(eta) / k**2,
                               T0_par=tau / (12.0 * k**2))
            state = fluid1d.eigenmode_state(grid, p, mode=mode, amplitude=1e-6)
            om_pred = math.sqrt(float(dispersion.general_omega_sq(k, p)))
            damping = fluid1d.SpectralDamping.tailored(grid, p)
            run = fluid1d.evolve(state, p, t_end=10.0 * 2.0 * np.pi / om_pred,
                                 damping=damping, probe_mode=mode)
            om = fluid1d.measure_frequency(run.t, run.mode["u"].real)
            rel = abs(om - om_pred) / om_pred
            worst = max(worst, rel)
            assert rel < 1e-2, (label, mode, tau, eta, rel)
        print(f"  worst relative frequency error: {worst:.2e}")


def test_criterion_4_wave_driven_anisotropy():
    # isotropic equilibrium: transverse response unchanged, longitudinal
    # response 3x plus the quantum term, at machine precision
    with criterion(4, "wave-driven pressure anisotropy ratio exact "
                      "(3 classically, 3 + n0 hbar^2 k^2 / (4 m p0) with "
                      "the quantum term)"):
        k, p0 = 1.3, 1.0
        p_classical = nondimensional(hbar=0.0)
        om2 = float(dispersion.general_omega_sq(k, p_classical))
        dP = linear_response.delta_P(k, om2, 0.7, p0 * np.eye(3), p_classical)
        assert dP[2, 2] / dP[0, 0] == 3.0
        assert dP[0, 0] == dP[1, 1]

        p_quantum = nondimensional(hbar=0.8)
        om2q = float(dispersion.general_omega_sq(k, p_quantum))
        dPq = linear_response.delta_P(k, om2q, 0.7, p0 * np.eye(3), p_quantum)
        # independent re-derivation of the ratio from the raw inputs
        expected = 3.0 + p_quantum.n0 * p_quantum.hbar**2 * k**2 / (4.0 * p_quantum.m * p0)
        assert dPq[2, 2] / dPq[0, 0] == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("hbar, tpar, mode", [(1.0, 0.0, 1), (0.2, 0.02, 1),
                                              (0.0, 0.1, 3), (1.0, 0.0, 5)])
def test_criterion_4_pressure_ratio_holds_over_a_fluid_run(hbar, tpar, mode):
    # end to end: over a 10-period eigenmode run the probe's p and n
    # coefficients keep the longitudinal response's ratio, in plasma units
    # p1 / n1 = (omega'^2 - 1) / k^2 = (3 T' + hbar'^2 k^2 / 4) / omega'^2.
    # Measured at most 1.6e-11, 1.9e-11, 1.1e-11 and 5.8e-11 of the ratio
    with criterion(4, "probe pressure-to-density ratio holds over a fluid run "
                      "within 1.5e-10"):
        grid = fluid1d.Grid1D(256, 2.0 * np.pi)
        p = nondimensional(hbar=hbar, T0_par=tpar)
        k = mode * grid.k_fundamental
        om2 = float(dispersion.general_omega_sq(k, p))
        state = fluid1d.eigenmode_state(grid, p, mode, 1e-6)
        run = fluid1d.evolve(state, p, t_end=10.0 * 2.0 * np.pi / math.sqrt(om2),
                             damping=fluid1d.SpectralDamping.tailored(grid, p),
                             probe_mode=mode)
        ratio = (3.0 * tpar + hbar * hbar * k * k / 4.0) / om2
        assert ratio == pytest.approx((om2 - 1.0) / (k * k), rel=4e-15)
        worst = float(np.max(np.abs(run.mode["p"] / run.mode["n"] - ratio))) / ratio
        assert worst < 1.5e-10
        print(f"  worst relative ratio deviation: {worst:.2e}")


def fixed_point_grows(H, u0, p0):
    """Whether the wave-frame fixed point at H has a growing mode, or None
    on the singular set.

    The 5x5 Jacobian is formed by central differences of ``traveling_rhs``
    alone; its nonzero pair +-lambda is real (one root grows) above the
    boundary and imaginary below, so the largest real part either exceeds
    every imaginary part or does not.
    """
    cfg = traveling.wave_frame_config(H, u0=u0)
    par = cfg.params
    y = np.array([cfg.v + u0, par.m * par.n0 * u0 * u0 if p0 is None else p0, 0.0, 0.0, 0.0])
    J = np.empty((5, 5))
    for j, h in enumerate(1e-6 * np.maximum(1.0, np.abs(y))):
        step = h * np.eye(5)[j]
        try:
            J[:, j] = np.subtract(traveling.traveling_rhs(y + step, cfg),
                                  traveling.traveling_rhs(y - step, cfg)) / (2.0 * h)
        except SonicSingularityError:
            return None
    eigs = np.linalg.eigvals(J)
    return bool(eigs.real.max() > np.abs(eigs.imag).max())


def bisect_boundary(u0, p0, h_lo=1.0, h_hi=3.0, tol=1e-9):
    """H where the fixed point starts to grow, bisected on ``fixed_point_grows``;
    a midpoint on the singular set (H = 2 exactly, from [1, 3]) is the boundary."""
    assert fixed_point_grows(h_lo, u0, p0) is False and fixed_point_grows(h_hi, u0, p0) is True
    while h_hi - h_lo > tol:
        mid = 0.5 * (h_lo + h_hi)
        grows = fixed_point_grows(mid, u0, p0)
        if grows is None:
            return mid
        h_lo, h_hi = (h_lo, mid) if grows else (mid, h_hi)
    return 0.5 * (h_lo + h_hi)


def test_criterion_5_stability_threshold():
    # measured through traveling_rhs, not the closed form: 2 at every u0 and
    # p0; with the quantum term's 4 m^2 eps0 off by 1e-5 it reads 2.00001
    with criterion(5, "wave-frame stability boundary at quantum parameter "
                      "2 within 1e-6"):
        for u0 in (1.0, 0.3, -0.7):
            for p0 in (None, 0.0):
                h_crit = bisect_boundary(u0, p0)
                assert abs(h_crit - 2.0) <= 1e-6, (u0, p0, h_crit)


def test_criterion_6_reference_oscillations():
    # quantum parameter 1, density-dip launch state: bounded oscillations
    # over at least 20 periods with amplitude drift below 1% at tol 1e-9
    with criterion(6, "wave-frame oscillations bounded over 20+ periods, "
                      "amplitude drift < 1%"):
        cfg = traveling.wave_frame_config(H=1.0)
        start = traveling.reference_oscillation_state(cfg)
        traj = traveling.integrate(start, cfg, xi_max=175.0, tol=1e-9,
                                   n_samples=8192)
        assert traj.completed

        u_eq = cfg.u0 + cfg.v
        du = traj.u - u_eq
        crossings = np.nonzero(np.sign(du[:-1]) * np.sign(du[1:]) < 0)[0]
        n_periods = (len(crossings) - 1) / 2.0
        assert n_periods >= 20.0

        period = 2.0 * (traj.xi[crossings[-1]] - traj.xi[crossings[0]]) / (len(crossings) - 1)
        first = traj.xi <= traj.xi[0] + 2.0 * period
        last = traj.xi >= traj.xi[-1] - 2.0 * period
        amp_first = float(np.max(np.abs(du[first])))
        amp_last = float(np.max(np.abs(du[last])))
        drift = abs(amp_last - amp_first) / amp_first
        assert drift < 1e-2
        # every field stays bounded
        for arr in (traj.n, traj.p, traj.Q, traj.E):
            assert np.all(np.isfinite(arr))
        assert np.max(traj.n) < 10.0 and np.min(traj.n) > 0.0
        print(f"  periods: {n_periods:.1f}, amplitude drift: {drift:.2e}")


def test_criterion_7_phase_space_reproduction():
    # numerical transform of the exactly evolved packet matches the closed
    # form on the default grid at rescaled times 0, 2, 4, 6; the shear
    # transport identity holds on the numerical data
    with criterion(7, "phase-space transform matches closed form (< 1e-6) "
                      "and shear-transports"):
        x = np.linspace(-12.0, 12.0, 256)
        v = np.linspace(-4.0, 4.0, 256)
        tables = {}
        for t in (0.0, 2.0, 4.0, 6.0):
            wfg = wigner.evolve_free_gaussian(1.0, t)
            tables[t] = wigner.wigner_transform(wfg, v=v, x=x)
            f_bar = np.pi * tables[t].f
            expected = wigner.analytic_wigner(x[None, :], v[:, None], t)
            assert np.max(np.abs(f_bar - expected)) < 1e-6

        wfg0 = wigner.evolve_free_gaussian(1.0, 0.0)
        for t in (2.0, 4.0, 6.0):
            worst = 0.0
            for iv, vv in enumerate(v):
                sheared = wigner.wigner_transform(wfg0, v=np.array([vv]),
                                                  x=x - vv * t)
                worst = max(worst, float(np.max(np.abs(tables[t].f[iv] - sheared.f[0]))))
            assert worst * np.pi < 1e-6


def test_criterion_8_cross_module_moments():
    # velocity moments of the tabulated transform reproduce the analytic
    # packet density, current and pressure at 1e-6 relative (peak-scaled)
    with criterion(8, "moments of tabulated phase-space data match packet "
                      "profiles to 1e-6"):
        vgrid = moments.VelocityGrid.uniform(1, 4.0, 256)
        for t in (0.0, 2.0):
            wfg = wigner.evolve_free_gaussian(1.0, t)
            spread = 1.0 + t**2
            xs = np.linspace(-3.0, 3.0, 13) * math.sqrt(spread) / math.sqrt(2.0)
            n_ana = np.exp(-xs**2 / spread) / math.sqrt(math.pi * spread)
            u_ana = xs * t / spread
            p_ana = n_ana / (2.0 * spread)
            n_peak, p_peak = np.max(n_ana), np.max(p_ana)
            u_scale = max(np.max(np.abs(u_ana)), 1.0)
            for xq, n_e, u_e, p_e in zip(xs, n_ana, u_ana, p_ana):
                table = wigner.wigner_transform(wfg, v=vgrid.axes[0],
                                                x=np.array([xq]))
                ms = moments.compute_moments(table.f[:, 0], vgrid)
                assert abs(ms.n - n_e) < 1e-6 * n_peak
                assert abs(ms.u[0] - u_e) < 1e-6 * u_scale
                assert abs(ms.P[0, 0] - p_e) < 1e-6 * p_peak


def test_criterion_9_conservation():
    with criterion(9, "mass conserved to 1e-10 over 1e4 steps; wave-frame "
                      "continuity exact by construction"):
        # fluid side
        grid = fluid1d.Grid1D(256, 2.0 * np.pi)
        p = nondimensional(hbar=0.2, T0_par=0.02)
        state = fluid1d.eigenmode_state(grid, p, mode=1, amplitude=1e-6)
        # 0.75 of the initial step bound of the classical-RK4 stepper
        # (stiff bound 0.4/omega(k_nyquist)): the same 1e4 steps over the
        # same physical time as when the gate was set
        dt = 0.007409779348266019
        run = fluid1d.evolve(state, p, t_end=10_000 * dt, dt=dt,
                             damping=fluid1d.SpectralDamping.tailored(grid, p),
                             sample_every=100)
        assert run.n_steps == 10_000
        drift = np.max(np.abs(run.mass - run.mass[0])) / run.mass[0]
        assert drift < 1e-10
        # wave-frame side: density is derived from the continuity integral
        cfg = traveling.wave_frame_config(H=1.0)
        traj = traveling.integrate(traveling.reference_oscillation_state(cfg),
                                   cfg, xi_max=60.0, tol=1e-9)
        violation = np.max(np.abs(traj.n * (traj.u - cfg.v)
                                  / (cfg.params.n0 * cfg.u0) - 1.0))
        assert violation < 5e-16
        print(f"  mass drift: {drift:.2e}, continuity violation: {violation:.2e}")
