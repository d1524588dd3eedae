import math
import re

import numpy as np
import pytest

from qfluid import dispersion, traveling
from qfluid.errors import (CFLViolationError, ConfigError, NoOscillationError,
                           NumericalError, VacuumError)
from qfluid.fluid1d import (FIELDS, FluidState1D, Grid1D, SpectralDamping, auto_dt,
                            eigenmode_state, evolve, measure_frequency,
                            mode_frequency, perturbed_state, rhs, solve_poisson, step)
from qfluid.fluid1d import (_half_step_exponential, _linear_operator, _nonlinear,
                            _remainder_coefficients)
from qfluid.params import nondimensional

WARM = nondimensional(hbar=0.5, T0_par=0.1)


def grid(n=64, length=2.0 * np.pi):
    return Grid1D(n_points=n, length=length)


def equilibrium(g, p, p0=None):
    """The uniform equilibrium (n0, 0, p0, 0), an exact fixed point of the
    dynamics; p0 = n0 kB T0_par unless given."""
    p0 = p.n0 * p.kB * p.T0_par if p0 is None else p0
    return FluidState1D(g, np.repeat([[p.n0], [0.0], [p0], [0.0]], g.n_points, axis=1))


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
    state = equilibrium(g, WARM)
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
    state = equilibrium(g, WARM)
    bad_n = state.fields.copy()
    bad_n[0, 0] = -1.0
    with pytest.raises(VacuumError):
        rhs(FluidState1D(g, bad_n), WARM)
    bad_u = state.fields.copy()
    bad_u[1, 0] = np.nan
    with pytest.raises(NumericalError):
        rhs(FluidState1D(g, bad_u), WARM)


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


def reference_remainder(state, params):
    """Spectrum of the nonlinear remainder rhs - L y written out term by term.

    With dn = n - n0 and dp = p - p0 every term is at least quadratic in
    the departure from the uniform state; d3phi/dx3 = (e/eps0) dn/dx."""
    g = state.grid
    n, u, p, Q = state.fields
    dn_dx, du_dx, dp_dx, dQ_dx = np.fft.irfft(1j * g.k * state.spectrum, n=g.n_points)
    n0, m = params.n0, params.m
    p0 = n0 * params.kB * params.T0_par
    dn, dp = n - n0, p - p0
    quantum = (params.e * params.e) * (params.hbar * params.hbar) / (4.0 * (m * m) * params.eps0)
    terms = np.array([
        -(u * dn_dx + dn * du_dx),
        -u * du_dx + dp_dx * dn / (m * n * n0),              # -dp/dx (1/(m n) - 1/(m n0))
        -u * dp_dx - 3.0 * dp * du_dx,
        (-u * dQ_dx + 3.0 * dp_dx * (dp * n0 - p0 * dn) / (m * n * n0)   # p/(m n) - p0/(m n0)
         - quantum * dn * dn_dx - 4.0 * Q * du_dx),
    ])
    return g.dealias_mask * np.fft.rfft(terms)


# the fluid_modes benchmark regimes (criterion 3): T0_par, hbar, mode, amplitude
REGIMES = [(0.0075, 0.0, 1, 1e-6), (0.08 / 108.0, math.sqrt(0.02) / 9.0, 3, 2e-6),
           (0.0, 0.016, 4, 5e-7)]


@pytest.mark.parametrize("case", ["classical", "mixed", "quantum", "all four fields at 0.2"])
def test_remainder_kernel_matches_the_terms_written_out(case):
    # the stacked kernel against the term-by-term reference, on the three
    # benchmark eigenmodes and a strongly nonlinear state with every field
    # perturbed.  Measured: at most 4.2e-17 of the largest row.
    g = grid(256)
    if case.startswith("all"):
        p = WARM
        state = perturbed_state(g, p, mode=2, amplitude=0.2, fields=FIELDS)
    else:
        T0_par, hbar, mode, amplitude = REGIMES[["classical", "mixed", "quantum"].index(case)]
        p = nondimensional(hbar=hbar, T0_par=T0_par)
        state = eigenmode_state(g, p, mode, amplitude)
    reference = reference_remainder(state, p)
    kernel = _nonlinear(state.fields, state.derivatives, _remainder_coefficients(g, p))
    assert np.max(np.abs(reference)) > 0.0
    assert np.max(np.abs(kernel - reference)) < 1e-14 * np.max(np.abs(reference))


def count_transforms(monkeypatch):
    """Wrap np.fft.rfft and np.fft.irfft; the returned list counts their calls."""
    calls = []
    for name in ("rfft", "irfft"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def test_step_makes_eight_transforms_and_carries_its_derivatives(monkeypatch):
    g = grid(64)
    p = WARM
    damping = SpectralDamping.tailored(g, p)
    state = eigenmode_state(g, p, mode=1, amplitude=1e-3)
    dt = 0.5 * auto_dt(state, p)
    stepped = step(state, dt, p, damping=damping)
    calls = count_transforms(monkeypatch)
    new = step(stepped, dt, p, damping=damping)
    assert len(calls) == 8
    monkeypatch.undo()
    assert np.array_equal(new.derivatives, np.fft.irfft(1j * g.k * new.spectrum, n=g.n_points))
    assert np.array_equal(new.fields, np.fft.irfft(new.spectrum, n=g.n_points))
    # the same state without its derivatives (the constructor computes
    # them) steps to the same bits
    rebuilt = FluidState1D(g, stepped.fields, stepped.t, stepped.spectrum)
    again = step(rebuilt, dt, p, damping=damping)
    for name in ("fields", "spectrum", "derivatives"):
        assert np.array_equal(getattr(again, name), getattr(new, name))


def wave_frame_orbit(H, v, n_points, tol=1e-12):
    """One period of the wave-frame orbit, sampled onto Grid1D(n_points, period).

    The period is the second zero of psi = phi', located from the sampled
    crossing and refined by Newton steps with psi' = (e/eps0)(n - n0).
    """
    cfg = traveling.wave_frame_config(H, v=v)
    start = traveling.reference_oscillation_state(cfg)
    par = cfg.params
    coarse = traveling.integrate(start, cfg, 12.0, tol=tol, n_samples=600)
    i = np.nonzero(np.sign(coarse.psi[1:]) * np.sign(coarse.psi[:-1]) < 0)[0][1]
    xi, psi = coarse.xi, coarse.psi
    period = xi[i] - psi[i] * (xi[i + 1] - xi[i]) / (psi[i + 1] - psi[i])
    for _ in range(3):
        end = traveling.integrate(start, cfg, period, tol=tol, n_samples=1)
        period -= end.psi[-1] / ((par.e / par.eps0) * (end.n[-1] - par.n0))
    orbit = traveling.integrate(start, cfg, period, tol=tol, n_samples=n_points)
    g = Grid1D(n_points, period)
    return FluidState1D(g, np.array([orbit.n, orbit.u, orbit.p, orbit.Q])[:, :-1]), par


@pytest.mark.parametrize("H,v", [(0.3, -0.7), (1.0, 0.0), (1.0, 0.5), (1.8, 0.2)])
def test_wave_frame_orbit_is_a_steady_state_of_rhs(H, v):
    # a traveling wave f(x - v t) solves df/dt = -v df/dx, so on a periodic
    # orbit of the wave-frame system rhs + v d/dx(fields) vanishes; this is
    # the one check of the nonlinear terms at large amplitude, the Q row's
    # included.  Measured: at most 1.1e-11 of max|d/dx field| per row at
    # N = 128 over H in {0.3, 1, 1.8} and v in {-0.7, 0, 0.2, 0.5}; the bound
    # leaves a factor ~100.  (At N = 64 the undealiased v d/dx term leaves
    # ~1e-7 above the 2/3 cut.)
    state, par = wave_frame_orbit(H, v, 128)
    g = state.grid
    assert abs(np.mean(state.n) - par.n0) < 1e-10
    d_dx = np.fft.irfft(1j * g.k * np.fft.rfft(state.fields), n=g.n_points)
    residual = rhs(state, par) + v * d_dx
    scale = np.max(np.abs(d_dx), axis=1)
    assert np.all(scale > 1e-3)
    assert np.all(np.max(np.abs(residual), axis=1) < 1e-9 * scale)


# ---------------------------------------------------------------- stepping

def companion_projector(g, p):
    """(L^2 + omega^2) / (gamma^2 + omega^2) per mode, on the masked k of
    ``_half_step_exponential``: the identity where L = 0."""
    L = _linear_operator(g, p)
    k = np.where(g.dealias_mask, g.k, 0.0)
    om2 = dispersion.general_omega_sq(k, p)
    ga2 = dispersion.companion_growth_rate(k, p) ** 2
    return (np.einsum("ijk,jlk->ilk", L, L) + om2 * np.eye(4)[:, :, None]) / (ga2 + om2)


def filter_rate(g, p, protect_modes=0):
    """The filter's rate per mode of g.k, in 1/omega_p: the companion growth
    rate plus 2 above the protected band, 0 in it."""
    k, kf = g.k, g.k_fundamental
    rate = dispersion.companion_growth_rate(k, p) + 2.0
    rate[k <= protect_modes * kf + 1e-12 * kf] = 0.0
    return rate


def taylor_exponential(M, terms=80):
    """exp(M) per mode of a (4, 4, K) array by its Taylor series."""
    out = np.zeros_like(M)
    term = np.broadcast_to(np.eye(4)[:, :, None], M.shape).astype(complex)
    for j in range(terms):
        out = out + term
        term = np.einsum("ijk,jlk->ilk", M, term) / (j + 1)
    return out


@pytest.mark.parametrize("hbar,T0_par", [(0.5, 0.1), (0.0, 0.1), (1.0, 0.0), (0.0, 0.0)])
@pytest.mark.parametrize("filtered", [False, True])
def test_half_step_exponential_matches_taylor_series(hbar, T0_par, filtered):
    # Sylvester's closed form against an 80-term series at every mode,
    # k = 0 and the modes above the 2/3 cut included (L = 0 there); the
    # cold classical case has gamma = 0.  The filter acts on the companion
    # pair only: exp((L - rate P) h) = exp(L h) (I - P + exp(-rate h) P) with
    # P the projector onto it, which commutes with L, so the series is taken
    # of L h alone and does not suffer cancellation at large rate * h.
    # Measured worst: 1.5e-15.
    g = grid(64)
    p = nondimensional(hbar=hbar, T0_par=T0_par)
    damping = SpectralDamping.tailored(g, p) if filtered else None
    dt = 0.3
    E = _half_step_exponential(g, p, damping, dt)
    reference = taylor_exponential(_linear_operator(g, p) * (0.5 * dt))
    if filtered:
        P = companion_projector(g, p)
        factor = np.eye(4)[:, :, None] + np.expm1(-0.5 * dt * filter_rate(g, p)) * P
        reference = np.einsum("ijk,jlk->ilk", reference, factor)
    err = np.max(np.abs(E - reference), axis=(0, 1)) / np.max(np.abs(reference), axis=(0, 1))
    assert np.max(err) < 1e-13


def classical_rk4_step(state, dt, params, damping):
    """Reference: classical RK4 over rhs - rate P y, P the companion projector, same ODE as step."""
    g = state.grid
    rate = filter_rate(g, params, damping.protect_modes)
    P = rate * companion_projector(g, params)

    def f(s):
        filtered = np.einsum("ijk,jk->ik", P, np.fft.rfft(s.fields))
        return rhs(s, params) - np.fft.irfft(filtered, n=g.n_points)

    y = state.fields

    def shifted(coeff, deriv):
        return FluidState1D(g, y + coeff * deriv, t=state.t + coeff)

    k1 = f(state)
    k2 = f(shifted(0.5 * dt, k1))
    k3 = f(shifted(0.5 * dt, k2))
    k4 = f(shifted(dt, k3))
    return FluidState1D(g, y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), t=state.t + dt)


@pytest.mark.parametrize("n_points", [256, 4096])
def test_step_matches_classical_rk4_reference(n_points):
    # at 0.75 of RK4's stiff bound 0.4/omega(k_nyquist) both schemes are
    # accurate, so 50 filtered steps must agree.  Measured: 2.1e-11 (N = 256)
    # and 8.9e-14 (N = 4096) of the perturbation; the bound leaves ~5x.
    g = grid(n_points)
    p = nondimensional(hbar=0.3, T0_par=0.05)
    damping = SpectralDamping.tailored(g, p)
    dt = 0.3 / math.sqrt(float(dispersion.general_omega_sq(math.pi / g.dx, p)))
    lawson = reference = perturbed_state(g, p, mode=1, amplitude=1e-2, fields=("n", "u"))
    for _ in range(50):
        lawson = step(lawson, dt, p, damping=damping)
        reference = classical_rk4_step(reference, dt, p, damping)
    perturbation = np.max(np.abs(reference.fields - equilibrium(g, p).fields))
    assert np.max(np.abs(lawson.fields - reference.fields)) < 1e-10 * perturbation

def test_equilibrium_preserved_by_step():
    g = grid()
    state = equilibrium(g, WARM, p0=0.3)
    out = step(state, 0.01, WARM)
    assert np.max(np.abs(out.n - state.n)) < 1e-14
    assert np.max(np.abs(out.u)) < 1e-14
    assert np.max(np.abs(out.p - state.p)) < 1e-14
    assert np.max(np.abs(out.Q)) < 1e-14


def test_cfl_violation_reports_suggested_dt():
    g = grid()
    state = equilibrium(g, WARM)
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
# The step of each regime: half the initial step bound of the classical-RK4
# stepper (stiff bound 0.4/omega(k_nyquist)), kept as a literal so the 200
# steps cover the same physical time as when the gates were set.  At the
# larger steps auto_dt now allows, the unfiltered companion branch
# amplifies rounding noise past the gates over the longer horizon.
INVARIANT_DT = {(0.3, 0.05): 0.016085155024444558,
                (0.0, 0.02): 0.06919504713778846,
                (0.2, 0.0): 0.019716041893653637}


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
    dt = INVARIANT_DT[(hbar, T0_par)]

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


def test_evolve_records_which_bound_set_dt():
    g = grid(64)
    warm = nondimensional(hbar=0.0, T0_par=0.1)
    # a uniform drift is carried by the remainder, not by the linear propagator
    drifting = equilibrium(g, warm).fields.copy()
    drifting[1] = 0.5
    state = FluidState1D(g, drifting)
    run = evolve(state, warm, t_end=1.0)
    assert run.dt_bound == "advective"
    assert auto_dt(state, warm) == pytest.approx(0.4 * g.dx / 0.5)
    assert auto_dt(state, warm) < 0.4 / warm.omega_p
    assert run.dt == pytest.approx(1.0 / run.n_steps)
    assert run.dt <= 0.75 * auto_dt(state, warm)

    cold = nondimensional(hbar=0.5, T0_par=0.0)
    state = eigenmode_state(g, cold, mode=1, amplitude=1e-6)
    run = evolve(state, cold, t_end=3.0)
    assert run.dt_bound == "plasma"
    assert run.n_steps == math.ceil(3.0 / (0.75 * 0.4 / cold.omega_p))
    assert run.dt == pytest.approx(3.0 / run.n_steps)

    run = evolve(state, cold, t_end=0.1, dt=0.01)
    assert (run.dt_bound, run.n_steps) == ("user", 10)
    assert run.dt == pytest.approx(0.01)


def test_linear_sound_speed_sets_no_bound():
    g = grid(64)
    for T0_par in (0.1, 1.0, 10.0):
        warm = nondimensional(hbar=0.5, T0_par=T0_par)
        assert auto_dt(equilibrium(g, warm), warm) == 0.4 / warm.omega_p


def steepening_wave():
    # a density bump released at rest: the flow it drives outgrows the
    # advective bound of the initial state (24 steps, 2 halvings to t = 2)
    g = grid(128)
    p = nondimensional(hbar=0.0, T0_par=0.1)
    return perturbed_state(g, p, mode=1, amplitude=0.2, fields=("n",)), p


def test_evolve_halves_its_step_when_the_state_outgrows_the_bound():
    state, p = steepening_wave()
    damping = SpectralDamping.tailored(state.grid, p)
    run = evolve(state, p, t_end=2.0, damping=damping, sample_every=3)
    assert run.n_halvings >= 1
    assert run.dt == pytest.approx(0.75 * auto_dt(state, p) / 2 ** run.n_halvings, rel=0.1)
    steps = np.diff(run.t)
    assert np.max(np.abs(steps - steps[0])) < 1e-9 * steps[0]
    assert run.t[-1] == pytest.approx(2.0, rel=1e-12)
    assert run.final.t == run.t[-1]
    # a given step is never halved
    with pytest.raises(CFLViolationError):
        evolve(state, p, t_end=2.0, dt=0.75 * auto_dt(state, p), damping=damping)


def test_evolve_halves_only_within_the_step_cap():
    # the first rejection comes after 35 steps; with 2**19 + 1000 steps left,
    # a halved step would take the run past 2**20 steps, so it stops there
    g = grid(64)
    state = perturbed_state(g, WARM, mode=1, amplitude=0.5, fields=("n", "u"))
    dt = 0.75 * auto_dt(state, WARM)
    t_end = dt * (2**19 + 1000)
    with pytest.raises(CFLViolationError) as err:
        evolve(state, WARM, t_end, damping=SpectralDamping.tailored(g, WARM))
    message = str(err.value)
    assert f"dt = {t_end / math.ceil(t_end / dt - 1e-12):.6g} exceeds" in message
    assert "at t = " in message and "max(|u| + |c - c0|) grew from" in message
    # the wave has outgrown the step: no step size is suggested
    assert "breaking or growing" in message and err.value.suggested_dt is None


# Dawson's cold plasma oscillation (Phys. Rev. 113, 383, 1959): at hbar = 0
# and T0_par = 0, p and Q stay 0 and the fluid element at xi moves as
# x = xi + delta(xi) cos(omega_p t), so while |delta'| < 1
#     u = -omega_p delta(xi) sin(omega_p t),  n = n0 / (1 + delta'(xi) cos(omega_p t)),
# an exactly periodic nonlinear solution at any amplitude.
COLD = nondimensional(hbar=0.0, T0_par=0.0)
DAWSON_AMPLITUDE = 0.3
DAWSON_END = 5.125 * 2.0 * math.pi / COLD.omega_p


def dawson_fields(g, t, a=DAWSON_AMPLITUDE):
    """Exact (n, u, p, Q) on the grid for delta = a sin(xi), with xi(x) by Newton."""
    c, s = math.cos(COLD.omega_p * t), math.sin(COLD.omega_p * t)
    xi = g.x.copy()
    for _ in range(30):
        xi -= (xi + a * np.sin(xi) * c - g.x) / (1.0 + a * np.cos(xi) * c)
    assert np.max(np.abs(xi + a * np.sin(xi) * c - g.x)) < 1e-13
    zero = np.zeros_like(xi)
    return np.array([COLD.n0 / (1.0 + a * np.cos(xi) * c),
                     -COLD.omega_p * a * np.sin(xi) * s, zero, zero])


def dawson_run(n_points, dt=None):
    """Run from Dawson's initial state; return the run and the error in n and
    u at the end as a share of the amplitude."""
    g = grid(n_points)
    run = evolve(FluidState1D(g, dawson_fields(g, 0.0)), COLD, DAWSON_END, dt=dt)
    error = np.max(np.abs(run.final.fields[:2] - dawson_fields(g, DAWSON_END)[:2]))
    return run, error / DAWSON_AMPLITUDE


def test_dawson_oscillation_converges_at_fourth_order_at_a_given_dt():
    # measured: 1.1e-8 at dt = 0.05 and 3.5e-10 at dt = 0.025
    _, coarse = dawson_run(128, dt=0.05)
    _, fine = dawson_run(128, dt=0.025)
    assert coarse < 5e-8 and fine < 2e-9
    assert coarse / fine > 12.0


def test_dawson_oscillation_at_the_automatic_step():
    # the oscillation starts at rest and its flow soon outgrows the first
    # step; halving keeps up with it (measured: 422 steps, 2 halvings,
    # error 2.0e-6, omega off by 3.0e-6)
    run, error = dawson_run(64)
    assert run.final.t == pytest.approx(DAWSON_END, rel=1e-12)
    assert run.n_halvings >= 1
    assert error < 1e-5
    assert measure_frequency(run.t, run.mode["u"].imag) == pytest.approx(COLD.omega_p,
                                                                          rel=2e-5)
    assert not run.final.p.any() and not run.final.Q.any()


def test_automatic_step_accuracy_on_a_nonlinear_warm_eigenmode():
    # the price of the larger step: error against a dt/8 reference, as a
    # share of the nonlinear part of the signal (reference minus the scaled
    # linear run), and fourth-order convergence when dt is halved
    g = grid(256)
    p = nondimensional(hbar=0.3, T0_par=0.05)
    omega = math.sqrt(float(dispersion.general_omega_sq(g.k_fundamental, p)))
    t_end = 5 * 2 * math.pi / omega
    damping = SpectralDamping.tailored(g, p)
    big, small = 1e-2, 1e-8

    def final(amplitude, dt=None):
        run = evolve(eigenmode_state(g, p, 1, amplitude), p, t_end, dt=dt, damping=damping)
        return run.final.fields, run.dt

    auto, dt = final(big)
    half, _ = final(big, dt / 2)
    reference, _ = final(big, dt / 8)
    linear, _ = final(small, dt)
    base = equilibrium(g, p).fields
    nonlinear = np.max(np.abs((reference - base) - (linear - base) * (big / small)))
    error = np.max(np.abs(auto - reference))
    assert error / np.max(np.abs(half - reference)) > 10.0
    assert error <= 1e-2 * nonlinear


def test_evolve_is_deterministic():
    g = grid(64)
    state = eigenmode_state(g, WARM, mode=1, amplitude=1e-5)
    r1 = evolve(state, WARM, t_end=2.0, damping=SpectralDamping.tailored(g, WARM))
    r2 = evolve(state, WARM, t_end=2.0, damping=SpectralDamping.tailored(g, WARM))
    assert np.array_equal(r1.mode["u"], r2.mode["u"])
    assert np.array_equal(r1.final.n, r2.final.n)


def scaled_run(T0_par, hbar, mode, c):
    """``evolve`` of the mode's eigenmode (N = 64, amplitude 1e-3) under
    nondimensional(n0=c^2, hbar=c hbar, T0_par=c^2 T0_par), whose omega_p
    is c, over two periods of the c = 1 run divided by c."""
    g = grid(64)
    omega = math.sqrt(dispersion.general_omega_sq(
        mode * g.k_fundamental, nondimensional(hbar=hbar, T0_par=T0_par)))
    p = nondimensional(n0=c * c, hbar=c * hbar, T0_par=c * c * T0_par)
    return evolve(eigenmode_state(g, p, mode, 1e-3), p, 2.0 * 2.0 * math.pi / omega / c,
                  damping=SpectralDamping.tailored(g, p), probe_mode=mode)


@pytest.mark.parametrize("regime", REGIMES, ids=["classical", "mixed", "quantum"])
def test_scaled_parameters_give_the_scaled_run(regime):
    # with t in 1/omega_p the hierarchy sees the parameters only through
    # hbar/(m omega_p) and kB T0_par/(m omega_p^2), so the run at omega_p = c
    # is the c = 1 run with t over c and (n, u, p, Q) times (c^2, c, c^4, c^5).
    # At c = 2 every scale is a power of two and the runs agree bitwise.  At
    # c = 3 the initial state rounds; measured: the probes within 6.91e-15
    # of each field's largest probe coefficient, the final fields within
    # 1.53e-13 of each row's largest value, and t within 1.43e-16 of the
    # span.
    T0_par, hbar, mode, _ = regime
    base = scaled_run(T0_par, hbar, mode, 1)
    for c, probe_bound, final_bound, t_bound in ((2, 0.0, 0.0, 0.0),
                                                 (3, 9.2e-14, 1.9e-13, 1.5e-16)):
        run = scaled_run(T0_par, hbar, mode, c)
        assert run.n_steps == base.n_steps
        assert np.max(np.abs(run.t * c - base.t)) <= t_bound * base.t[-1]
        for row, (name, s) in enumerate(zip(FIELDS, (c**2, c, c**4, c**5))):
            probe, final = base.mode[name], base.final.fields[row]
            assert (np.max(np.abs(run.mode[name] / s - probe))
                    <= probe_bound * np.max(np.abs(probe))), (c, name)
            assert (np.max(np.abs(run.final.fields[row] / s - final))
                    <= final_bound * np.max(np.abs(final))), (c, name)


def test_evolve_reports_in_the_callers_units():
    # at omega_p = 2 (n0 = 4, the same hbar' and T') each failing run is the
    # omega_p = 1 run with t and dt halved and speeds doubled: evolve's own
    # messages and a suggested dt are in the caller's units, and a vacuum
    # found inside a step names its t in 1/omega_p
    g = grid(64)

    def failures(c):
        p = nondimensional(n0=c * c, hbar=0.5 * c, T0_par=0.1 * c * c)
        wave = eigenmode_state(g, p, 1, 0.3)
        damping = SpectralDamping.tailored(g, p)
        runs = [dict(t_end=1.0 / c, dt=0.9 / c), dict(t_end=20.0 / c, dt=0.05 / c, damping=damping),
                dict(t_end=20.0 / c, damping=damping)]
        out = []
        for kwargs in runs:
            with pytest.raises(NumericalError) as err:
                evolve(wave, p, **kwargs)
            out.append(err.value)
        return out

    def numbers(exc):
        return [float(x) for x in re.findall(r"(?<![\w.])\d+(?:\.\d*)?(?:e[-+]?\d+)?", str(exc))]

    one, two = failures(1), failures(2)
    assert two[0].suggested_dt == one[0].suggested_dt / 2.0
    assert two[1].suggested_dt is None and "breaking or growing" in str(two[1])
    assert isinstance(two[2], VacuumError)
    # dt, bound, suggested dt; dt, bound, t, speed, t, speed
    for a, b, factors in zip(one, two, ([0.5] * 3, [0.5, 0.5, 0.5, 2.0, 0.5, 2.0])):
        assert numbers(b) == pytest.approx([x * f for x, f in zip(numbers(a), factors)], rel=1e-5)
        assert len(numbers(b)) == len(factors)
    assert str(two[2]) == f"{one[2]} (t in units of 1/omega_p, omega_p = 2)"


def test_step_rhs_and_auto_dt_take_plasma_units_only():
    g = grid(16)
    p = nondimensional(n0=4.0)
    state = equilibrium(g, p)
    for call in (lambda: rhs(state, p), lambda: auto_dt(state, p), lambda: step(state, 0.01, p)):
        with pytest.raises(ConfigError, match="plasma units"):
            call()


# ---------------------------------------------------------------- damping

def test_tailored_damping_protects_low_modes():
    # the band shows in the half-step exponential: inside it E is bitwise
    # the unfiltered E, above it the filter changes every mode, the modes
    # above the 2/3 cut (where E is the identity unfiltered) included
    g = grid(256)
    p = nondimensional(hbar=1.0)
    dt = 0.3
    bare = _half_step_exponential(g, p, None, dt)
    for protect_modes in (0, 2):
        E = _half_step_exponential(g, p, SpectralDamping.tailored(g, p, protect_modes), dt)
        band = g.k <= (protect_modes + 0.5) * g.k_fundamental
        assert np.count_nonzero(band) == protect_modes + 1
        assert np.array_equal(E[:, :, band], bare[:, :, band])
        assert np.all(np.any(E[:, :, ~band] != bare[:, :, ~band], axis=(0, 1)))
    # a negative band would damp the mean density
    with pytest.raises(ConfigError, match="protected band"):
        SpectralDamping.tailored(g, p, protect_modes=-1)
    with pytest.raises(ConfigError, match="protected band"):
        SpectralDamping(-1)


def test_filter_compares_and_hashes_by_value():
    g = grid(64)
    a, b = SpectralDamping.tailored(g, WARM), SpectralDamping.tailored(g, WARM)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a == SpectralDamping() != SpectralDamping(2)


def test_equal_runs_share_one_half_step_exponential():
    g = grid(64)
    state = eigenmode_state(g, WARM, mode=1, amplitude=1e-5)
    _half_step_exponential.cache_clear()
    runs = [evolve(state, WARM, t_end=2.0, damping=SpectralDamping.tailored(g, WARM))
            for _ in range(2)]
    assert runs[0].n_halvings == 0 and runs[0].n_steps > 1
    info = _half_step_exponential.cache_info()
    assert (info.misses, info.hits) == (1, 2 * runs[0].n_steps - 1)


# ---------------------------------------------------------------- probes

def test_measure_frequency_synthetic_cosine():
    t = np.linspace(0.0, 40.0, 4001)
    om0 = 1.618
    y = 0.7 * np.cos(om0 * t + 0.3)
    assert measure_frequency(t, y) == pytest.approx(om0, rel=1e-4)


def test_measure_frequency_refuses_three_periods():
    # 3 periods cross zero 6 times; the fit needs 8 crossings (about 4 periods)
    t = np.linspace(0.0, 3.0, 3001)
    with pytest.raises(NoOscillationError, match="6 zero crossings"):
        measure_frequency(t, np.cos(2.0 * np.pi * t + 0.1))


def test_measure_frequency_flat_signal_errors():
    t = np.linspace(0.0, 10.0, 100)
    with pytest.raises(NoOscillationError):
        measure_frequency(t, np.full_like(t, 2.5))


def test_measure_frequency_rejects_nonuniform_time():
    t = np.array([0.0, 0.1, 0.3, 0.35, 0.6, 0.62, 0.9, 1.0])
    with pytest.raises(ConfigError):
        measure_frequency(t, np.cos(t))
    for t in (np.zeros(8), np.linspace(10.0, 0.0, 101)):   # constant or decreasing
        with pytest.raises(ConfigError, match="increasing"):
            measure_frequency(t, np.cos(5.0 * t))


# ---------------------------------------------------------------- misc

def test_grid_and_state_validation():
    with pytest.raises(ConfigError):
        Grid1D(7, 1.0)
    with pytest.raises(ConfigError):
        Grid1D(64, -1.0)
    g = grid(16)
    with pytest.raises(ConfigError):
        FluidState1D(g, np.ones((3, 16)))
    with pytest.raises(ConfigError):
        perturbed_state(g, WARM, mode=1, amplitude=1e-3, fields=("psi",))
    with pytest.raises(ConfigError):
        FluidState1D(g, np.ones((4, 8)))
    # the 2/3 rule keeps modes 1..5 at N = 16: above them the filter damps the
    # whole mode, and mode 20 would alias onto mode 4
    for mode in (0, 6, 20):
        for build in (lambda: eigenmode_state(g, WARM, mode, 1e-3),
                      lambda: perturbed_state(g, WARM, mode, 1e-3),
                      lambda: mode_frequency(g, WARM, mode)):
            with pytest.raises(ConfigError, match=r"mode must lie in \[1, 5\]"):
                build()


def test_grid_size_is_capped_before_any_array_is_made():
    # a run holds ~848 bytes per point; the cap refuses a size whose arrays
    # could not be allocated, and no test makes a grid that large
    g = Grid1D(2**18, 1.0)
    assert "k" not in vars(g)   # the wavenumbers are made on first use only
    for n in (2**18 + 2, 4_000_000_000):
        with pytest.raises(ConfigError, match=f"at most the 262144-point limit, got {n}$"):
            Grid1D(n, 1.0)


def test_grid_rejects_non_finite_length():
    for length in (math.inf, math.nan, 0.0):
        with pytest.raises(ConfigError, match="domain length"):
            Grid1D(64, length)


def test_eigenmode_rejects_non_finite_frequency():
    # on a domain of length 1e-300 omega(k)^2 overflows; the state would
    # have finite n but non-finite u, p and Q rows
    with pytest.raises(ConfigError, match="domain of length 1e-300"):
        eigenmode_state(Grid1D(64, 1e-300), nondimensional(), 1, 1e-6)


@pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf])
def test_initial_states_reject_non_finite_amplitude(amplitude):
    g = grid(16)
    with pytest.raises(ConfigError, match="amplitude"):
        eigenmode_state(g, WARM, 1, amplitude)
    with pytest.raises(ConfigError, match="amplitude"):
        perturbed_state(g, WARM, mode=1, amplitude=amplitude, fields=("n", "u"))


def test_initial_states_reject_an_amplitude_that_overflows(recwarn):
    # 1e308 is finite, but the fields (eigenmode: u1 = omega n1/(k n0)) or
    # their spectrum (a sum of N values near 1e308) are not
    g = grid(16)
    with pytest.raises(ConfigError, match=r"amplitude 1e\+308"):
        eigenmode_state(g, WARM, 1, 1e308)
    for fields, n0 in ((("n",), 4.0), (("u",), 1.0)):
        with pytest.raises(ConfigError, match=r"amplitude 1e\+308"):
            perturbed_state(g, nondimensional(n0=n0), mode=1, amplitude=1e308, fields=fields)
    # the 3 p0 k u1 term of Q1 overflows at any amplitude: the message names
    # the row and the parameters
    with pytest.raises(ConfigError, match=r"amplitude 1e-30 .* initial Q row .*T0_par=1e\+300"):
        eigenmode_state(g, nondimensional(T0_par=1e300), 1, 1e-30)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_initial_states_are_built_in_plasma_units():
    # at omega_p = 2 (n0 = 4, the same hbar' and T') every row scale is a power
    # of two, so each state is the omega_p = 1 state times (n0, omega_p,
    # e^2 n0^2/eps0, e^2 n0^2 omega_p/eps0) = (4, 2, 16, 32), bitwise
    g = grid(16)
    one, two = WARM, nondimensional(n0=4.0, hbar=1.0, T0_par=0.4)
    rows = np.array([[4.0], [2.0], [16.0], [32.0]])
    assert mode_frequency(g, two, 2) == 2.0 * mode_frequency(g, one, 2)
    assert np.array_equal(eigenmode_state(g, two, 2, 1e-3).fields,
                          eigenmode_state(g, one, 2, 1e-3).fields * rows)
    assert np.array_equal(perturbed_state(g, two, 2, 1e-3, fields=FIELDS).fields,
                          perturbed_state(g, one, 2, 1e-3, fields=FIELDS).fields * rows)


def test_state_fields_are_rows_of_one_array():
    g = grid(16)
    state = perturbed_state(g, WARM, mode=1, amplitude=1e-3, fields=("n", "u"))
    assert state.fields.shape == (4, 16)
    for name, row in zip(FIELDS, state.fields):
        assert np.shares_memory(getattr(state, name), row)
        assert np.array_equal(getattr(state, name), row)
    assert rhs(state, WARM).shape == (4, 16)
    wrapped = FluidState1D(g, state.fields, t=1.0)
    assert wrapped.fields is state.fields and wrapped.t == 1.0


def test_auto_dt_respects_both_limits():
    g = grid(64)
    p = nondimensional(hbar=0.0, T0_par=0.0)
    cold_still = equilibrium(g, p)
    dt_cold = auto_dt(cold_still, p)
    assert dt_cold == pytest.approx(0.4 / p.omega_p)  # oscillation bound only
    fast_fields = cold_still.fields.copy()
    fast_fields[1] = 100.0
    fast = FluidState1D(g, fast_fields)
    assert auto_dt(fast, p) == pytest.approx(0.4 * g.dx / 100.0, rel=1e-6)
