import dataclasses
import math

import numpy as np
import pytest

from qfluid import dispersion
from qfluid.errors import (CFLViolationError, ConfigError, NoOscillationError,
                           NumericalError, SteepeningError, VacuumError)
from qfluid.fluid1d import (FIELDS, FluidState1D, Grid1D, SpectralDamping, auto_dt,
                            eigenmode_state, evolve, measure_frequency,
                            perturbed_state, rhs, solve_poisson, step,
                            uniform_state)
from qfluid.params import nondimensional

WARM = nondimensional(hbar=0.5, T0_par=0.1)


def grid(n=64, length=2.0 * np.pi):
    return Grid1D(n_points=n, length=length)


# ---------------------------------------------------------------- Poisson

def test_poisson_uniform_density_gives_zero_potential():
    g = grid()
    phi = solve_poisson(np.full(g.n_points, 1.0), g, nondimensional())
    assert np.max(np.abs(phi)) < 1e-15


def test_poisson_single_mode_analytic():
    g = grid(128)
    p = nondimensional()
    A, k = 1e-3, 3.0 * g.k_fundamental
    n = p.n0 + A * np.cos(k * g.x)
    phi = solve_poisson(n, g, p)
    expected = -(p.e * A / (p.eps0 * k**2)) * np.cos(k * g.x)
    assert np.allclose(phi, expected, atol=1e-18)
    assert abs(np.mean(phi)) < 1e-18


def test_poisson_random_perturbation_residual():
    p = nondimensional()
    rng = np.random.default_rng(3)
    amps = 1e-3 * rng.normal(size=8)
    phases = rng.uniform(0, 2 * np.pi, size=8)

    def density(x):
        out = np.full_like(x, p.n0)
        for m, (a, ph) in enumerate(zip(amps, phases), start=1):
            out += a * np.cos(m * x + ph)
        return out

    g = grid(256)
    n = density(g.x)
    phi = solve_poisson(n, g, p)
    # spectral second derivative: the discretization the solve inverts
    lap = np.fft.irfft(-(g.k**2) * np.fft.rfft(phi), n=g.n_points)
    res = lap - (p.e / p.eps0) * (n - p.n0)
    assert np.max(np.abs(res)) < 1e-10

    # independent finite-difference Laplacian converges at its second order
    def fd_residual(npts):
        gg = Grid1D(npts, g.length)
        nn = density(gg.x)
        pp = solve_poisson(nn, gg, p)
        lap_fd = (np.roll(pp, -1) - 2 * pp + np.roll(pp, 1)) / gg.dx**2
        return float(np.max(np.abs(lap_fd - (p.e / p.eps0) * (nn - p.n0))))

    r1, r2 = fd_residual(256), fd_residual(512)
    assert r2 < r1 / 3.0


def test_poisson_rejects_mean_density_offset():
    g = grid()
    p = nondimensional()
    with pytest.raises(NumericalError, match="solvability"):
        solve_poisson(np.full(g.n_points, 1.01), g, p)


# ---------------------------------------------------------------- RHS

def test_uniform_equilibrium_is_fixed_point():
    g = grid()
    state = uniform_state(g, WARM)
    for d in rhs(state, WARM):
        assert np.max(np.abs(d)) < 1e-13


def test_quantum_term_enters_only_heat_flux_equation():
    g = grid(128)
    p_quantum = nondimensional(hbar=1.0, T0_par=0.1)
    p_classical = p_quantum.with_(hbar=0.0)
    state = perturbed_state(g, p_quantum, mode=2, amplitude=1e-3)
    d_q = rhs(state, p_quantum)
    d_c = rhs(state, p_classical)
    for i in range(3):  # n, u, p channels identical bitwise
        assert np.array_equal(d_q[i], d_c[i])
    assert np.max(np.abs(d_q[3] - d_c[3])) > 0.0


def test_rhs_rejects_vacuum_and_nonfinite():
    g = grid()
    state = uniform_state(g, WARM)
    bad_n = state.n.copy()
    bad_n[0] = -1.0
    with pytest.raises(VacuumError):
        rhs(dataclasses.replace(state, n=bad_n), WARM)
    bad_u = state.u.copy()
    bad_u[0] = np.nan
    with pytest.raises(NumericalError):
        rhs(dataclasses.replace(state, u=bad_u), WARM)


def test_linearized_rhs_matches_eigenmode_rates():
    # one rhs evaluation on the analytic eigenmode must rotate each field
    # coefficient at the same frequency: d(coef)/dt = -i omega coef
    g = grid(128)
    p = WARM
    state = eigenmode_state(g, p, mode=1, amplitude=1e-8)
    k1 = g.k_fundamental
    om = math.sqrt(float(dispersion.general_omega_sq(k1, p)))
    derivs = rhs(state, p)
    norm = 2.0 / g.n_points
    base = {
        "n": np.fft.rfft(state.n)[1] * norm,
        "u": np.fft.rfft(state.u)[1] * norm,
        "p": np.fft.rfft(state.p)[1] * norm,
        "Q": np.fft.rfft(state.Q)[1] * norm,
    }
    dot = {name: np.fft.rfft(d)[1] * norm
           for name, d in zip(("n", "u", "p", "Q"), derivs)}
    # standing cos-profile of a right-mover: d/dt Re[c e^{ikx}] -> the mode
    # coefficient picks up -i om relative to a pure traveling eigenmode;
    # here real initial coefficients must produce purely imaginary rates
    for name in base:
        expected = -1j * om * base[name]
        assert dot[name] == pytest.approx(expected, rel=2e-4, abs=1e-16 * abs(base["p"]) if name == "Q" else 1e-12)


# ---------------------------------------------------------------- stepping

def test_equilibrium_preserved_by_step():
    g = grid()
    state = uniform_state(g, WARM, p0=0.3)
    out = step(state, 0.01, WARM)
    assert np.max(np.abs(out.n - state.n)) < 1e-14
    assert np.max(np.abs(out.u)) < 1e-14
    assert np.max(np.abs(out.p - state.p)) < 1e-14
    assert np.max(np.abs(out.Q)) < 1e-14


def test_cfl_violation_reports_suggested_dt():
    g = grid()
    state = uniform_state(g, WARM)
    limit = auto_dt(state, WARM)
    with pytest.raises(CFLViolationError) as err:
        step(state, 10.0 * limit, WARM)
    assert err.value.suggested_dt == pytest.approx(limit)


def test_rk4_order_via_richardson():
    g = grid(64)
    p = nondimensional(hbar=0.3, T0_par=0.05)
    state = perturbed_state(g, p, mode=1, amplitude=5e-2, fields=("n", "u"))
    dt = 0.5 * auto_dt(state, p)

    def gap(dt_val):
        full = step(state, dt_val, p)
        half = step(step(state, 0.5 * dt_val, p), 0.5 * dt_val, p)
        return math.sqrt(sum(float(np.sum((getattr(full, f) - getattr(half, f)) ** 2))
                             for f in ("n", "u", "p", "Q")))

    ratio = gap(dt) / gap(dt / 2.0)
    assert 20.0 < ratio < 48.0  # 2^5 = 32 for a 4th-order one-step error


def test_evolve_measures_dispersion_frequency_classical():
    g = grid(128)
    p = nondimensional(hbar=0.0, T0_par=0.3 / 12.0)  # thermal strength 0.3
    state = eigenmode_state(g, p, mode=1, amplitude=1e-6)
    om_pred = math.sqrt(float(dispersion.general_omega_sq(g.k_fundamental, p)))
    damping = SpectralDamping.tailored(g, p)
    run = evolve(state, p, t_end=5 * 2 * np.pi / om_pred, damping=damping)
    om = measure_frequency(run.t, run.mode["u"].real)
    assert om == pytest.approx(om_pred, rel=1e-2)
    assert om != pytest.approx(p.omega_p, rel=1e-2)  # run discriminates


def test_evolve_cold_quantum_point_from_spec_example():
    # quantum strength 1 at the fundamental: omega = sqrt((1+sqrt(2))/2) wp
    g = grid(128)
    p = nondimensional(hbar=1.0, T0_par=0.0)
    state = eigenmode_state(g, p, mode=1, amplitude=1e-6)
    om_pred = math.sqrt((1.0 + math.sqrt(2.0)) / 2.0)
    damping = SpectralDamping.tailored(g, p)
    run = evolve(state, p, t_end=5 * 2 * np.pi / om_pred, damping=damping)
    om = measure_frequency(run.t, run.mode["u"].real)
    assert om == pytest.approx(om_pred, rel=1e-2)


def test_eigenmode_stays_on_eigenvector():
    g = grid(128)
    p = WARM
    state = eigenmode_state(g, p, mode=1, amplitude=1e-7)
    k1 = g.k_fundamental
    om = math.sqrt(float(dispersion.general_omega_sq(k1, p)))
    damping = SpectralDamping.tailored(g, p)
    run = evolve(state, p, t_end=1.5 * 2 * np.pi / om, damping=damping)
    # a traveling eigenmode keeps fixed amplitude ratios between fields
    n1 = np.abs(run.mode["n"])
    u1 = np.abs(run.mode["u"])
    p1 = np.abs(run.mode["p"])
    keep = n1 > 0.3 * n1[0]
    wp = p.omega_p
    assert np.allclose(u1[keep] / n1[keep], om / (k1 * p.n0), rtol=1e-3)
    expected_p_ratio = p.m * p.n0 * (om**2 - wp**2) / (om * k1) * (om / (k1 * p.n0))
    assert np.allclose(p1[keep] / n1[keep], expected_p_ratio / p.n0 * p.n0, rtol=1e-3)


def test_undamped_run_blows_up_from_companion_branch():
    # documents the closure's short-wavelength instability: without the
    # stabilizing filter the same run dies quickly
    g = grid(256)
    p = nondimensional(hbar=1.0, T0_par=0.0)
    state = eigenmode_state(g, p, mode=1, amplitude=1e-6)
    with pytest.raises(NumericalError):
        evolve(state, p, t_end=4 * 2 * np.pi, damping=None)


def test_mass_conserved_over_short_run():
    g = grid(128)
    p = WARM
    state = eigenmode_state(g, p, mode=1, amplitude=1e-4)
    run = evolve(state, p, t_end=3.0, damping=SpectralDamping.tailored(g, p))
    assert np.max(np.abs(run.mass - run.mass[0])) < 1e-12 * run.mass[0]


def test_momentum_balance_identity():
    # d/dt int m n u dx equals int e n dphi/dx dx (pressure term drops on a
    # periodic domain); checked on one rhs evaluation at a nonlinear state
    g = grid(256)
    p = nondimensional(hbar=0.4, T0_par=0.2)
    state = perturbed_state(g, p, mode=2, amplitude=1e-2, fields=("n", "u", "p"))
    dn, du, dp_, dQ = rhs(state, p)
    dx = g.dx
    lhs = p.m * np.sum(dn * state.u + state.n * du) * dx
    phi = solve_poisson(state.n, g, p)
    dphi = np.fft.irfft(1j * g.k * np.fft.rfft(phi), n=g.n_points)
    rhs_int = p.e * np.sum(state.n * dphi) * dx
    scale = p.e * np.sum(np.abs(state.n * dphi)) * dx + 1e-30
    assert abs(lhs - rhs_int) < 1e-10 * scale


# (hbar, T0_par): quantum-warm, classical-warm and quantum-cold
INVARIANT_REGIMES = [(0.3, 0.05), (0.0, 0.02), (0.2, 0.0)]


def unfiltered_invariants(hbar, T0_par, n_steps=200):
    """Momentum and energy integrals, and their scales, along an unfiltered run.

    With the filter off the periodic system conserves momentum
    int m n u dx (the force integral int e n dphi/dx dx vanishes under
    Poisson's equation) and energy int (m n u^2/2 + p/2 + eps0 E^2/2) dx
    (the Q equation only moves energy around through its flux).  Rows:
    momentum, int m n |u| dx, energy, its kinetic-plus-field part.
    """
    g = grid(64)
    p = nondimensional(hbar=hbar, T0_par=T0_par)
    state = perturbed_state(g, p, mode=1, amplitude=1e-2, fields=("n", "u"))
    dt = 0.5 * auto_dt(state, p)

    def integrals(s):
        phi = solve_poisson(s.n, g, p)
        E = -np.fft.irfft(1j * g.k * np.fft.rfft(phi), n=g.n_points)
        kinetic_field = np.sum(0.5 * p.m * s.n * s.u**2 + 0.5 * p.eps0 * E**2) * g.dx
        return (p.m * np.sum(s.n * s.u) * g.dx, p.m * np.sum(s.n * np.abs(s.u)) * g.dx,
                kinetic_field + 0.5 * np.sum(s.p) * g.dx, kinetic_field)

    rows = [integrals(state)]
    for _ in range(n_steps):
        state = step(state, dt, p)
        rows.append(integrals(state))
    return np.array(rows).T


@pytest.mark.parametrize("hbar,T0_par", INVARIANT_REGIMES)
def test_momentum_conserved_without_filter(hbar, T0_par):
    momentum, scale, _, _ = unfiltered_invariants(hbar, T0_par)
    assert np.max(np.abs(momentum - momentum[0])) < 1e-8 * scale[0]


@pytest.mark.parametrize("hbar,T0_par", INVARIANT_REGIMES)
def test_energy_conserved_without_filter(hbar, T0_par):
    _, _, energy, kinetic_field = unfiltered_invariants(hbar, T0_par)
    assert np.max(np.abs(energy - energy[0])) < 1e-6 * kinetic_field[0]


def test_steepening_halt():
    g = grid(128)
    p = nondimensional(hbar=0.0, T0_par=0.1)
    state = perturbed_state(g, p, mode=1, amplitude=0.1, fields=("n", "u"))
    with pytest.raises(SteepeningError):
        evolve(state, p, t_end=50.0, damping=SpectralDamping.tailored(g, p),
               steepening_limit=0.3)


def test_evolve_is_deterministic():
    g = grid(64)
    state = eigenmode_state(g, WARM, mode=1, amplitude=1e-5)
    r1 = evolve(state, WARM, t_end=2.0, damping=SpectralDamping.tailored(g, WARM))
    r2 = evolve(state, WARM, t_end=2.0, damping=SpectralDamping.tailored(g, WARM))
    assert np.array_equal(r1.mode["u"], r2.mode["u"])
    assert np.array_equal(r1.final.n, r2.final.n)


# ---------------------------------------------------------------- damping

def test_tailored_damping_protects_low_modes():
    g = grid(256)
    p = nondimensional(hbar=1.0)
    d = SpectralDamping.tailored(g, p, protect_modes=2)
    k = g.k
    assert np.all(d.rates[k <= 2 * g.k_fundamental] == 0.0)
    assert np.all(d.rates[k > 2 * g.k_fundamental] > 0.0)
    # rates dominate the companion growth everywhere outside the window
    growth = dispersion.companion_growth_rate(k, p)
    sel = k > 2 * g.k_fundamental
    assert np.all(d.rates[sel] >= growth[sel])


# ---------------------------------------------------------------- probes

def test_measure_frequency_synthetic_cosine():
    t = np.linspace(0.0, 40.0, 4001)
    om0 = 1.618
    y = 0.7 * np.cos(om0 * t + 0.3)
    assert measure_frequency(t, y) == pytest.approx(om0, rel=1e-4)


def test_measure_frequency_spectral_fallback():
    t = np.linspace(0.0, 40.0, 4001)
    om0 = 1.1
    y = np.cos(om0 * t)
    assert measure_frequency(t, y, method="spectral") == pytest.approx(om0, rel=1e-2)


def test_measure_frequency_flat_signal_errors():
    t = np.linspace(0.0, 10.0, 100)
    with pytest.raises(NoOscillationError):
        measure_frequency(t, np.full_like(t, 2.5))


def test_measure_frequency_rejects_nonuniform_time():
    t = np.array([0.0, 0.1, 0.3, 0.35, 0.6, 0.62, 0.9, 1.0])
    with pytest.raises(ConfigError):
        measure_frequency(t, np.cos(t))


# ---------------------------------------------------------------- misc

def test_grid_and_state_validation():
    with pytest.raises(ConfigError):
        Grid1D(7, 1.0)
    with pytest.raises(ConfigError):
        Grid1D(64, -1.0)
    g = grid(16)
    with pytest.raises(ConfigError):
        FluidState1D(g, np.ones(8), np.zeros(16), np.ones(16), np.zeros(16))
    with pytest.raises(ConfigError):
        perturbed_state(g, WARM, mode=1, amplitude=1e-3, fields=("psi",))
    with pytest.raises(ConfigError):
        FluidState1D.from_fields(g, np.ones((4, 8)))


def test_state_fields_are_rows_of_one_array():
    g = grid(16)
    state = perturbed_state(g, WARM, mode=1, amplitude=1e-3, fields=("n", "u"))
    assert state.fields.shape == (4, 16)
    for name, row in zip(FIELDS, state.fields):
        assert np.shares_memory(getattr(state, name), row)
        assert np.array_equal(getattr(state, name), row)
    assert rhs(state, WARM).shape == (4, 16)
    wrapped = FluidState1D.from_fields(g, state.fields, t=1.0)
    assert wrapped.fields is state.fields and wrapped.t == 1.0


def test_fd6_derivative_is_sixth_order():
    from qfluid.fluid1d import first_derivative
    errs = []
    for n in (32, 64):
        g = Grid1D(n, 2.0 * np.pi, derivative_scheme="fd6")
        f = np.sin(3.0 * g.x)
        err = np.max(np.abs(first_derivative(f, g) - 3.0 * np.cos(3.0 * g.x)))
        errs.append(err)
    assert errs[1] < errs[0] / 50.0  # expect ~2^6 = 64


def test_fd6_run_reproduces_dispersion_at_low_k():
    g = Grid1D(128, 2.0 * np.pi, derivative_scheme="fd6")
    p = nondimensional(hbar=0.0, T0_par=0.2 / 12.0)
    state = eigenmode_state(g, p, mode=1, amplitude=1e-6)
    om_pred = math.sqrt(float(dispersion.general_omega_sq(g.k_fundamental, p)))
    run = evolve(state, p, t_end=5 * 2 * np.pi / om_pred,
                 damping=SpectralDamping.tailored(g, p))
    om = measure_frequency(run.t, run.mode["u"].real)
    assert om == pytest.approx(om_pred, rel=1e-2)


def test_unknown_derivative_scheme_rejected():
    with pytest.raises(ConfigError):
        Grid1D(64, 1.0, derivative_scheme="fd2")


def test_auto_dt_respects_both_limits():
    g = grid(64)
    p = nondimensional(hbar=0.0, T0_par=0.0)
    cold_still = uniform_state(g, p)
    dt_cold = auto_dt(cold_still, p)
    assert dt_cold == pytest.approx(0.4 / p.omega_p)  # oscillation bound only
    fast = dataclasses.replace(cold_still, u=np.full(g.n_points, 100.0))
    assert auto_dt(fast, p) == pytest.approx(0.4 * g.dx / 100.0, rel=1e-6)
