import math

import numpy as np
import pytest

from qfluid.errors import ConfigError, SonicSingularityError
from qfluid.params import nondimensional
from qfluid import ode, traveling
from qfluid.traveling import (TravelingState, WaveFrameConfig, classify_equilibrium,
                              equilibrium_eigenvalues, integrate,
                              reference_oscillation_state, stability_threshold,
                              traveling_rhs, wave_frame_config)


def equilibrium_state(cfg, p0):
    """The fixed point u = u0 + v, p = p0, Q = 0, phi = psi = 0."""
    return TravelingState(xi=0.0, u=cfg.u0 + cfg.v, p=p0, Q=0.0, phi=0.0, psi=0.0)


def test_config_validation_and_quantum_parameter():
    with pytest.raises(ConfigError):
        WaveFrameConfig(v=0.0, u0=0.0, params=nondimensional())
    cfg = wave_frame_config(H=1.5, u0=2.0)
    assert cfg.H == pytest.approx(1.5, rel=1e-15)
    # u0^2 = 1e-300 is a normal float: hbar = H u0^2 keeps every digit
    for H in (1.9, 2.0 - 1e-9, 2.0 + 1e-9):
        cfg = wave_frame_config(H, u0=1e-150)
        assert abs(cfg.H - H) <= 4.0 * math.ulp(H)
        assert classify_equilibrium(cfg) == ("unstable" if H > 2.0 else "center-like")


@pytest.mark.parametrize("build", [
    lambda: wave_frame_config(H=math.nan),
    lambda: wave_frame_config(H=math.inf),
    lambda: wave_frame_config(H=1.0, v=math.nan),
    lambda: wave_frame_config(H=1.0, u0=math.nan),
    lambda: wave_frame_config(H=1.0, u0=1e200),    # u0^2 overflows
    lambda: wave_frame_config(H=2.0 - 1e-9, u0=1e-160),   # u0^2 subnormal: H would be 2
    lambda: wave_frame_config(H=1e-200, u0=1e-100),       # hbar = H u0^2 underflows to 0
    lambda: reference_oscillation_state(wave_frame_config(1.0), p0_scale=math.nan),
    lambda: reference_oscillation_state(wave_frame_config(1.0), density_ratio=1e-310),
    lambda: integrate(equilibrium_state(wave_frame_config(1.0), 1.0),
                      wave_frame_config(1.0), xi_max=math.inf),
], ids=["H nan", "H inf", "v nan", "u0 nan", "u0 1e200", "u0 1e-160", "H 1e-200 u0 1e-100",
        "p0_scale nan",
        "density_ratio 1e-310", "xi_max inf"])
def test_non_finite_wave_frame_inputs_rejected(build):
    with pytest.raises(ConfigError):
        build()


@pytest.mark.parametrize("y", [[1e300, 1.0, 0.0, 0.0, 0.0], [1.5, 1e200, 0.0, 0.0, 0.1]])
def test_huge_state_is_singular_not_overflow(y):
    # the cube of the matrix norm overflows: singular to within tolerance
    with pytest.raises(SonicSingularityError):
        traveling_rhs(np.array(y), wave_frame_config(H=1.0))


def rhs_density(u, cfg):
    """n read back from the psi' row of ``traveling_rhs``, psi' = (e/eps0)(n - n0)."""
    par = cfg.params
    return traveling_rhs([u, 1.0, 0.0, 0.0, 0.0], cfg)[4] * par.eps0 / par.e + par.n0


def test_density_is_exact_continuity_integral():
    cfg = wave_frame_config(H=1.0)
    n = rhs_density(1.5, cfg)
    assert n * (1.5 - cfg.v) == pytest.approx(cfg.params.n0 * cfg.u0, rel=1e-15)
    with pytest.raises(SonicSingularityError):
        rhs_density(cfg.v, cfg)
    with pytest.raises(SonicSingularityError):
        rhs_density(cfg.v - 1.0, cfg)  # negative derived density


def test_equilibrium_is_fixed_point():
    cfg = wave_frame_config(H=1.0)
    y0 = equilibrium_state(cfg, p0=1.0).vector()
    d = traveling_rhs(y0, cfg)
    assert np.max(np.abs(d)) < 1e-14


def test_reference_state_matches_captioned_values():
    cfg = wave_frame_config(H=1.0)
    s = reference_oscillation_state(cfg)
    par = cfg.params
    assert rhs_density(s.u, cfg) == pytest.approx((2.0 / 3.0) * par.n0, rel=1e-15)
    assert s.u - cfg.v == pytest.approx(1.5 * cfg.u0, rel=1e-15)
    assert s.p == par.m * par.n0 * cfg.u0**2
    assert s.Q == 0.0 and s.phi == 0.0 and s.psi == 0.0


def test_derivative_matrix_determinant_tracks_quantum_parameter():
    # det at equilibrium is u0^3 (1 - H^2/4): singular exactly at H = 2
    for H in (0.0, 1.0, 1.9):
        cfg = wave_frame_config(H=H)
        y0 = equilibrium_state(cfg, p0=1.0).vector()
        d = traveling_rhs(y0, cfg)   # must not raise
        assert np.all(np.isfinite(d))
    cfg2 = wave_frame_config(H=2.0)
    with pytest.raises(SonicSingularityError):
        traveling_rhs(equilibrium_state(cfg2, p0=1.0).vector(), cfg2)


def test_rhs_takes_any_sequence_and_returns_a_list_of_floats():
    cfg = wave_frame_config(H=1.0, v=0.3)
    y = [1.7, 0.8, -0.2, 0.1, 0.35]
    out = traveling_rhs(y, cfg)
    assert type(out) is list and len(out) == 5
    assert all(type(v) is float for v in out)
    assert traveling_rhs(tuple(y), cfg) == out
    assert traveling_rhs(np.array(y), cfg) == out


def reference_rhs(y, cfg):
    """The right-hand side as three functions computed it before they were
    inlined into ``traveling_rhs``: the density, then (u', p', Q') per unit
    (e/m) psi by Cramer's rule, then the scaling, operation for operation."""
    u, p, Q, phi, psi = map(float, y)
    par = cfg.params
    w = u - cfg.v
    if abs(w) <= 1e-9 * abs(cfg.u0):
        raise SonicSingularityError(f"frame-relative velocity vanished (u - v = {w:.3e})")
    n = par.n0 * cfg.u0 / w
    if n <= 0.0:
        raise SonicSingularityError(f"derived density nonpositive (n = {n:.3e})")
    A = 1.0 / (par.m * n)
    eh = par.e * par.hbar
    hq = eh * eh * (n * n) / (4.0 * (par.m * par.m) * par.eps0)
    c = 4.0 * Q - hq / w
    d = -3.0 * p * A
    det = w * w * w + c * A
    norm = max(abs(w) + A, 3.0 * abs(p) + abs(w) + 1.0, abs(c) + abs(d) + abs(w))
    if abs(det) <= 1e-12 * (norm * norm * norm):
        raise SonicSingularityError(
            f"derivative system singular at u = {u:.9g} (det = {det:.3e})")
    du, dp, dQ = (w * w - d) / det, (c - 3.0 * p * w) / det, (3.0 * p * d - w * c) / det
    b0 = (par.e / par.m) * psi
    return [b0 * du, b0 * dp, b0 * dQ, psi, (par.e / par.eps0) * (n - par.n0)]


def outcome(rhs, y, cfg):
    try:
        return rhs(y, cfg)
    except SonicSingularityError as exc:
        return str(exc)


@pytest.mark.parametrize("H", [0.0, 1.0, 1.999, 3.0])
def test_rhs_is_bitwise_equal_to_the_uninlined_reference(H):
    # nondimensional at v = 0.4, and with no constant equal to 1 at v = -0.7
    unit = wave_frame_config(H=H, v=0.4)
    par = nondimensional().with_(n0=1.3, m=1.7, e=0.6, eps0=2.3)
    odd = WaveFrameConfig(v=-0.7, u0=0.8,
                          params=par.with_(hbar=H * par.m * 0.8**2 / par.omega_p))
    rng = np.random.default_rng(11)
    for cfg in (unit, odd):
        eq = equilibrium_state(cfg, p0=1.0).vector().tolist()
        states = [eq, [cfg.v, 1.0, 0.0, 0.0, 0.5], [cfg.v - 1.0, 1.0, 0.0, 0.0, 0.5]]
        for _ in range(200):
            w = rng.choice([-1.0, 1.0], p=[0.1, 0.9]) * rng.uniform(0.2, 3.0)
            states.append([cfg.v + w, *rng.uniform(-2.0, 2.0, 4).tolist()])
        for y in states:
            expected = outcome(reference_rhs, y, cfg)
            for form in (list(y), tuple(y), np.array(y)):
                assert outcome(traveling_rhs, form, cfg) == expected


def test_integrate_calls_traveling_rhs_through_the_module_global(monkeypatch):
    # the benchmark traces the wave frame by replacing traveling.traveling_rhs
    # with a counting wrapper: every evaluation must go through that name
    calls = 0
    original = traveling.traveling_rhs

    def counted(y, cfg):
        nonlocal calls
        calls += 1
        return original(y, cfg)

    monkeypatch.setattr(traveling, "traveling_rhs", counted)
    cfg = wave_frame_config(H=1.0, v=0.2)
    traj = integrate(reference_oscillation_state(cfg), cfg, xi_max=10.0, n_samples=8)
    assert traj.completed and traj.n_rejected > 0
    assert calls == traj.n_rhs
    # beyond the start, the probe and 11 or 12 calls per attempt: 3 for
    # each step that held a sample
    interpolant = calls - (2 + 12 * traj.n_steps + 11 * traj.n_rejected)
    assert interpolant % 3 == 0 and 0 < interpolant <= 3 * traj.n_steps


FLUX_CASES = [(1.0, 0.0), (0.3, 0.5), (1.8, -0.7), (1.0, 0.2)]


@pytest.mark.parametrize("H, v", FLUX_CASES)
def test_momentum_and_energy_fluxes_are_first_integrals(H, v):
    # neither flux integral is built into the solver, so their drift tests
    # the stepping and the u and p rows (measured: 1.4e-11 to 1.2e-10)
    cfg = wave_frame_config(H=H, v=v)
    t = integrate(reference_oscillation_state(cfg), cfg, xi_max=60.0, tol=1e-9)
    assert t.completed
    momentum, energy = t.flux_drifts()
    assert momentum < 1e-9 and energy < 1e-9


@pytest.mark.parametrize("H, v", FLUX_CASES)
def test_flux_drift_falls_with_the_tolerance(H, v):
    # measured: about tenfold per decade of tol, 5e-10 to 6e-9 at 1e-7 and
    # 4e-14 to 3.3e-13 at 1e-11
    cfg = wave_frame_config(H=H, v=v)
    drifts = [integrate(reference_oscillation_state(cfg), cfg, xi_max=60.0, tol=tol,
                        n_samples=16).flux_drifts()
              for tol in (1e-7, 1e-8, 1e-9, 1e-10, 1e-11)]
    for momentum_or_energy in zip(*drifts):
        assert all(a > b for a, b in zip(momentum_or_energy, momentum_or_energy[1:]))
        assert momentum_or_energy[-1] < 1e-3 * momentum_or_energy[0]


@pytest.mark.parametrize("H, v, bound", [(1.0, 0.0, 1.33e-9), (0.3, 0.5, 1.22e-9),
                                         (1.8, -0.7, 2.05e-9)])
def test_default_run_is_as_accurate_as_the_sample_clamped_stepper(H, v, bound):
    # `qfluid tw run`'s defaults (xi_max 60, 2048 samples, tol 1e-9) against
    # the same integrator at tol 1e-12: the largest error of a column over
    # its largest magnitude.  Each bound is the error the sample-clamped
    # Dormand-Prince 5(4) stepper had here (1.320e-9, 1.214e-9, 2.044e-9,
    # rounded up), so any later stepper is held to it
    cfg = wave_frame_config(H=H, v=v)
    start = reference_oscillation_state(cfg)
    run, reference = (integrate(start, cfg, xi_max=60.0, tol=tol) for tol in (1e-9, 1e-12))
    assert run.completed and reference.completed and np.array_equal(run.xi, reference.xi)
    error = max(np.max(np.abs(a - b)) / np.max(np.abs(b))
                for a, b in zip((run.u, run.p, run.Q, run.phi, run.psi),
                                (reference.u, reference.p, reference.Q, reference.phi,
                                 reference.psi)))
    assert error <= bound


def test_rhs_matches_generic_solve_of_docstring_matrix():
    # reference: np.linalg.solve of the 3x3 system written in the module
    # docstring, at seeded random states on both sides of H = 2
    rng = np.random.default_rng(7)
    for H, v in ((0.0, 0.0), (1.0, 0.3), (3.0, -0.5)):
        cfg = wave_frame_config(H=H, v=v)
        par = cfg.params
        for _ in range(50):
            u = cfg.v + rng.uniform(0.5, 2.0)
            p, Q, phi, psi = rng.uniform(-1.0, 1.0, 4)
            w = u - cfg.v
            n = par.n0 * cfg.u0 / w
            hq = (par.e * par.hbar) ** 2 * n**2 / (4.0 * par.m**2 * par.eps0)
            M = np.array([[w, 1.0 / (par.m * n), 0.0],
                          [3.0 * p, w, 1.0],
                          [4.0 * Q - hq / w, -3.0 * p / (par.m * n), w]])
            ref = np.linalg.solve(M, [(par.e / par.m) * psi, 0.0, 0.0])
            d = traveling_rhs([u, p, Q, phi, psi], cfg)
            assert np.max(np.abs(d[:3] - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert d[3] == psi
            assert d[4] == (par.e / par.eps0) * (n - par.n0)


def test_rhs_against_finite_difference_of_trajectory():
    cfg = wave_frame_config(H=1.0)
    start = reference_oscillation_state(cfg)
    delta = 1e-5
    traj = integrate(start, cfg, xi_max=2 * delta, tol=1e-12,
                     n_samples=2)
    fd = (traj_vec(traj, 2) - start.vector()) / (2 * delta)
    mid = traj_vec(traj, 1)
    d = traveling_rhs(mid, cfg)
    assert np.allclose(fd, d, rtol=1e-5, atol=1e-8)


def traj_vec(traj, i):
    return np.array([traj.u[i], traj.p[i], traj.Q[i], traj.phi[i], traj.psi[i]])


def test_reference_run_bounded_oscillations():
    cfg = wave_frame_config(H=1.0)
    start = reference_oscillation_state(cfg)
    traj = integrate(start, cfg, xi_max=100.0, tol=1e-9)
    assert traj.completed
    par = cfg.params
    # continuity constraint holds identically (density is derived)
    assert np.max(np.abs(traj.n * (traj.u - cfg.v) / (par.n0 * cfg.u0) - 1.0)) < 5e-16
    # bounded: no excursion beyond 10x the launch offset
    initial_offset = abs(start.u - (cfg.u0 + cfg.v))
    assert np.max(np.abs(traj.u - (cfg.u0 + cfg.v))) < 10.0 * initial_offset
    assert np.all(traj.n > 0.0)
    assert np.max(traj.n) < 10.0 * par.n0


def test_equilibrium_start_stays_constant():
    cfg = wave_frame_config(H=1.0)
    start = equilibrium_state(cfg, p0=1.0)
    traj = integrate(start, cfg, xi_max=20.0, tol=1e-10)
    assert np.max(np.abs(traj.u - start.u)) < 1e-9
    assert np.max(np.abs(traj.p - start.p)) < 1e-9


def test_integrator_self_convergence():
    cfg = wave_frame_config(H=1.0)
    start = reference_oscillation_state(cfg)
    ref = integrate(start, cfg, xi_max=20.0, tol=1e-12, n_samples=4).u[-1]
    errs = []
    for tol in (1e-6, 1e-8, 1e-10):
        end = integrate(start, cfg, xi_max=20.0, tol=tol, n_samples=4).u[-1]
        errs.append(abs(end - ref))
    assert errs[1] < errs[0]
    assert errs[2] < errs[1]
    assert errs[2] < 1e-8


def test_mirrored_configuration_retraces_backward():
    # (u0, v) -> (-u0, -v) with xi -> -xi maps trajectories onto each other:
    # running the mirrored system from the mirrored endpoint retraces the
    # original run back to its start
    cfg = wave_frame_config(H=1.0, u0=1.0, v=0.3)
    start = reference_oscillation_state(cfg)
    fwd = integrate(start, cfg, xi_max=12.0, tol=1e-11)
    mirror_cfg = WaveFrameConfig(v=-cfg.v, u0=-cfg.u0, params=cfg.params)
    end = traj_vec(fwd, -1)
    mirrored_start_vec = np.array([-end[0], end[1], -end[2], end[3], -end[4]])
    back = integrate_state_vector(mirrored_start_vec, mirror_cfg, 12.0)
    expect = start.vector()
    mapped_back = np.array([-back[0], back[1], -back[2], back[3], -back[4]])
    assert np.allclose(mapped_back, expect, rtol=1e-7, atol=1e-8)


def integrate_state_vector(y0, cfg, xi_max):
    from qfluid.traveling import TravelingState
    s = TravelingState(xi=0.0, u=y0[0], p=y0[1], Q=y0[2], phi=y0[3], psi=y0[4])
    traj = integrate(s, cfg, xi_max, tol=1e-11)
    return traj_vec(traj, -1)


def test_sonic_singularity_returns_partial_trajectory():
    # launch a compression strong enough to drive u - v through the sonic
    # point: the run halts with a reason and a truncated trajectory
    cfg = wave_frame_config(H=1.0)
    from qfluid.traveling import TravelingState
    start = TravelingState(xi=0.0, u=cfg.v + 0.35 * cfg.u0, p=0.02, Q=0.0,
                           phi=0.0, psi=-1.2)
    traj = integrate(start, cfg, xi_max=50.0, tol=1e-9)
    assert not traj.completed
    assert "singular" in traj.halt_reason or "sonic" in traj.halt_reason
    assert traj.xi[-1] < 50.0


def test_launch_on_the_sonic_point_is_a_one_sample_halt():
    # u = v: no density, so traveling_rhs refuses the launch state
    cfg = wave_frame_config(H=1.0, v=0.3)
    traj = integrate(TravelingState(xi=0.0, u=0.3, p=1.0, Q=0.0, phi=0.0, psi=0.0), cfg, 1.0)
    assert traj.halt_reason.startswith("frame-relative velocity vanished")
    assert traj.xi.tolist() == [0.0] and traj.n.tolist() == [math.inf]
    assert traj.n_rhs == 1 and traj.n_steps == 0


def test_step_underflow_next_to_the_singular_set_is_a_halt():
    # past H = 2 this launch runs into a point where error control alone
    # shrinks the step to nothing: a halt with the partial trajectory
    cfg = wave_frame_config(H=2.5)
    traj = integrate(reference_oscillation_state(cfg, density_ratio=0.95), cfg, xi_max=60.0)
    assert traj.halt_reason.startswith("step size underflow at x = 0.8414")
    assert len(traj.xi) >= 2 and 0.8 < traj.xi[-1] < 0.85
    assert np.all(np.diff(traj.xi) > 0)
    assert np.all(np.isfinite(np.stack([traj.u, traj.p, traj.Q, traj.phi, traj.psi])))
    # f at the start, the starting-step probe, 11 calls per attempt, one
    # more per accepted step and 3 per step that held a sample
    interpolant = traj.n_rhs - (2 + 12 * traj.n_steps + 11 * traj.n_rejected)
    assert interpolant % 3 == 0 and 0 < interpolant // 3 <= traj.n_steps


# ------------------------------------------------------------- stability

def test_eigenvalues_center_at_h1_unstable_at_h3():
    eig1 = equilibrium_eigenvalues(wave_frame_config(H=1.0))
    assert float(np.max(eig1.real)) < 1e-8
    assert classify_equilibrium(wave_frame_config(H=1.0)) == "center-like"
    eig3 = equilibrium_eigenvalues(wave_frame_config(H=3.0))
    assert float(np.max(eig3.real)) > 1e-3
    assert classify_equilibrium(wave_frame_config(H=3.0)) == "unstable"


@pytest.mark.parametrize("p0", [math.nan, -5.0, math.inf])
def test_equilibrium_rejects_bad_pressure(p0):
    # a negative p0 used to be classified "unstable" even at H = 1
    cfg = wave_frame_config(H=1.0)
    with pytest.raises(ConfigError, match="p0"):
        equilibrium_eigenvalues(cfg, p0=p0)
    with pytest.raises(ConfigError, match="p0"):
        classify_equilibrium(cfg, p0=p0)


def test_equilibrium_accepts_zero_pressure():
    assert classify_equilibrium(wave_frame_config(H=1.0), p0=0.0) == "center-like"


def test_classical_spectrum_matches_symbolic_oracle():
    # symbolic characteristic polynomial of the analytic Jacobian, at the
    # classical H = 0 and on both sides of H = 2; at u0 = 1 the quantum
    # term puts -Hq/u0 = -H^2/4 into M0[2, 0]
    sympy = pytest.importorskip("sympy")
    u0, p0, n0, m, e, eps0 = 1, 1, 1, 1, 1, 1
    lam = sympy.symbols("lam")
    for H in (0, 1, 3):
        M0 = sympy.Matrix([[u0, sympy.Rational(1, m * n0), 0],
                           [3 * p0, u0, 1],
                           [-sympy.Rational(H**2, 4), sympy.Rational(-3 * p0, m * n0), u0]])
        a = M0.inv() * sympy.Matrix([sympy.Rational(e, m), 0, 0])
        J = sympy.zeros(5, 5)
        J[0, 4], J[1, 4], J[2, 4] = a[0], a[1], a[2]
        J[3, 4] = 1
        J[4, 0] = sympy.Rational(-e * n0, eps0 * u0)
        roots = sympy.roots(J.charpoly(lam), lam)
        expected = sorted((complex(r) for r, mult in roots.items() for _ in range(mult)),
                          key=lambda z: (z.real, z.imag))
        eig = np.sort_complex(equilibrium_eigenvalues(wave_frame_config(H=float(H)), p0=1.0))
        for z_sym, z_num in zip(expected, eig):
            assert z_num.real == pytest.approx(z_sym.real, abs=1e-8)
            assert z_num.imag == pytest.approx(z_sym.imag, abs=1e-7)
        if H == 0:
            # classical pair is purely imaginary at +- 2 i for these scales
            assert sorted(abs(z.imag) for z in expected)[-1] == pytest.approx(2.0)


@pytest.mark.parametrize("v,H", [(0.0, 1.0), (0.7, 0.5)])
def test_oscillation_wavenumber_lies_on_dispersion_branch(v, H):
    # the linearized wave-frame oscillation e^{i kappa xi} is a lab-frame
    # plane wave; in the frame co-moving with the equilibrium flow its
    # frequency is u0 kappa, and (kappa, u0 kappa) must satisfy the general
    # dispersion relation (with the temperature matching p0 = m n0 u0^2)
    from qfluid.dispersion import general_omega_sq
    cfg = wave_frame_config(H=H, v=v)
    p0 = cfg.params.m * cfg.params.n0 * cfg.u0**2
    eigs = equilibrium_eigenvalues(cfg, p0=p0)
    kappa = float(np.max(np.abs(eigs.imag)))
    assert kappa > 0.0
    params = cfg.params.with_(T0_par=p0 / (cfg.params.n0 * cfg.params.kB))
    om_sq = float(general_omega_sq(kappa, params))
    assert om_sq == pytest.approx((cfg.u0 * kappa) ** 2, rel=1e-6)


def orbit_period(cfg, density_ratio, tol=1e-12):
    """Period of the orbit launched at ``density_ratio``: the second zero of psi.

    Located from the sampled crossing over 1.5 linear periods and refined
    by Newton steps with psi' = (e/eps0)(n - n0).
    """
    par = cfg.params
    start = reference_oscillation_state(cfg, density_ratio=density_ratio)
    span = 3.0 * math.pi / abs(equilibrium_eigenvalues(cfg)[3])
    coarse = integrate(start, cfg, span, tol=tol, n_samples=600)
    xi, psi = coarse.xi, coarse.psi
    i = np.nonzero(np.sign(psi[1:]) * np.sign(psi[:-1]) < 0)[0][1]
    period = xi[i] - psi[i] * (xi[i + 1] - xi[i]) / (psi[i + 1] - psi[i])
    for _ in range(3):
        end = integrate(start, cfg, period, tol=tol, n_samples=1)
        period -= end.psi[-1] / ((par.e / par.eps0) * (end.n[-1] - par.n0))
    return period


@pytest.mark.parametrize("H", [0.5, 1.0, 1.5])
def test_small_amplitude_orbit_period_tends_to_linear_period(H):
    # L |lambda| / 2 pi - 1 measured: 0.0045, 0.0055, 0.0093 at density
    # ratio 0.999 for H = 0.5, 1, 1.5 (bound 0.012, margin >= 1.3x), and
    # 9.7-9.9 times that at 0.99 (bound |ratio - 10| < 0.5): the deviation
    # is linear in the launch amplitude, so it vanishes as the amplitude does
    cfg = wave_frame_config(H=H)
    linear = 2.0 * math.pi / abs(equilibrium_eigenvalues(cfg)[3])
    near, far = (orbit_period(cfg, ratio) / linear - 1.0 for ratio in (0.999, 0.99))
    assert 0.0 < near < 0.012
    assert abs(far / near - 10.0) < 0.5


def test_oscillation_wavenumber_independent_of_frame_speed():
    kappas = []
    for v in (0.0, 1.3):
        eigs = equilibrium_eigenvalues(wave_frame_config(H=1.0, v=v), p0=1.0)
        kappas.append(float(np.max(np.abs(eigs.imag))))
    # the closed form does not hold v
    assert kappas[0] == kappas[1]


@pytest.mark.parametrize("p0", [None, 0.0])
@pytest.mark.parametrize("u0", [1.0, 0.3, -0.7])
def test_quantum_coefficient_at_the_equilibrium_matches_the_closed_form(u0, p0):
    # traveling_rhs at the fixed point with psi = 1 gives J[u', psi], which
    # the closed-form spectrum takes as (e/m) (u0^2 + 3 p0/(m n0)) /
    # (u0^3 (1 - H^2/4)): a check on the quantum coefficient Hq of the
    # Cramer solve, and on its sign on both sides of H = 2; n0 = 2.5 keeps
    # the powers of n apart
    configs = [(H, cfg) for H in (0.0, 0.5, 1.0, 1.5, 1.9, 2.1, 2.5, 3.0, 2.0 - 1e-9, 2.0 + 1e-9)
               for cfg in (wave_frame_config(H, u0=u0), WaveFrameConfig(
                   v=0.4, u0=u0, params=nondimensional(n0=2.5, hbar=H * u0 * u0 / math.sqrt(2.5))))]
    for H, cfg in configs:
        par = cfg.params
        p = par.m * par.n0 * u0 * u0 if p0 is None else p0
        j_u_psi = traveling_rhs([u0 + cfg.v, p, 0.0, 0.0, 1.0], cfg)[0]
        closed = ((par.e / par.m) * (u0 * u0 + 3.0 * p / (par.m * par.n0))
                  / (u0 * u0 * u0 * (1.0 - cfg.H * cfg.H / 4.0)))
        if abs(H - 2.0) < 1e-6:
            assert math.copysign(1.0, j_u_psi) == math.copysign(1.0, closed)
        else:
            assert j_u_psi == pytest.approx(closed, rel=1e-14, abs=0.0)
        eigs = equilibrium_eigenvalues(cfg, p0=p)
        j_psi_u = -(par.e / par.eps0) * par.n0 / u0
        assert eigs[3] ** 2 == pytest.approx(closed * j_psi_u, rel=1e-14 if abs(H - 2.0) > 1e-6 else 1e-6)


def test_spectrum_of_a_huge_quantum_parameter_is_finite():
    # H^2 overflows from about 1.3e154 on; the closed form never squares H
    for H in (2001.0, 1e200, 1e300):
        eigs = equilibrium_eigenvalues(wave_frame_config(H, u0=3.0))
        assert eigs[3].real > 0.0 and eigs[3].imag == 0.0
        # wp sqrt(u0^2 + 3 p0/(m n0)) / u0^2 = 2 / u0 at the default p0
        expected = 2.0 / (3.0 * math.sqrt(H / 2.0 - 1.0) * math.sqrt(H / 2.0 + 1.0))
        assert eigs[3].real == pytest.approx(expected, rel=1e-14)


def test_threshold_bisection_finds_two():
    # the boundary is the closed form's H = 2, exactly, for any valid tolerance
    for tol in (1e-6, 1.0, 1e300):
        assert stability_threshold(1.0, 3.0, tol=tol) == 2.0
        assert stability_threshold(0.0, 2.0, tol=tol) == 2.0
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="tolerance"):
            stability_threshold(1.0, 3.0, tol=bad)


def test_threshold_ends_when_bracket_reaches_adjacent_floats():
    # a tolerance below one ulp of H ~ 2 is accepted and changes nothing
    assert stability_threshold(1.0, 3.0, tol=1e-17) == 2.0
    assert stability_threshold(0.0, 2.0, tol=1e-17) == 2.0


def test_threshold_requires_classification_change():
    for h_lo, h_hi in ((0.1, 1.9), (2.0, 3.0), (-1.0, 3.0)):
        with pytest.raises(ConfigError, match="no stability change"):
            stability_threshold(h_lo, h_hi)


@pytest.mark.parametrize("h_lo, h_hi", [(3.0, 0.5), (2.0, 2.0), (math.nan, 3.0),
                                         (1.0, math.inf), (-math.inf, 3.0)])
def test_threshold_requires_finite_ordered_bracket(h_lo, h_hi):
    with pytest.raises(ConfigError, match="bracket h_lo < h_hi"):
        stability_threshold(h_lo, h_hi)


def test_threshold_invariant_under_rescaled_reference_velocity():
    # the classification switches at the same H for any reference velocity
    # and pressure; H = 2 itself is singular
    for u0 in (0.2, 1.0, 0.3, -0.7, 3.0):
        for p0 in (None, 0.0, 2.5):
            for dH in (1e-6, 1e-9):
                assert classify_equilibrium(wave_frame_config(2.0 - dH, u0=u0), p0) == "center-like"
                assert classify_equilibrium(wave_frame_config(2.0 + dH, u0=u0), p0) == "unstable"
            with pytest.raises(SonicSingularityError, match="H = 2"):
                equilibrium_eigenvalues(wave_frame_config(2.0, u0=u0), p0=p0)


def test_sample_count_is_capped_before_allocation():
    cfg = wave_frame_config(H=1.0)
    start = reference_oscillation_state(cfg)
    with pytest.raises(ConfigError, match="1048576-sample limit"):
        integrate(start, cfg, xi_max=5.0, n_samples=2**20 + 1)
    with pytest.raises(ConfigError, match="got 0"):
        integrate(start, cfg, xi_max=5.0, n_samples=0)


def test_trajectory_field_accessor():
    cfg = wave_frame_config(H=1.0)
    traj = integrate(reference_oscillation_state(cfg), cfg, xi_max=5.0, tol=1e-8)
    assert np.array_equal(traj.E, -traj.psi)
    # the samples are read from the interpolant: error control alone sets
    # the steps, which are the same with 4 samples as with 2048
    coarse = integrate(reference_oscillation_state(cfg), cfg, xi_max=5.0, tol=1e-8,
                       n_samples=4)
    for count in (coarse.n_steps, coarse.n_rejected):
        assert isinstance(count, int) and count > 0
    assert (traj.n_steps, traj.n_rejected) == (coarse.n_steps, coarse.n_rejected)
    assert traj.n_steps < 2048
    assert np.array_equal(traj.u[::512], coarse.u)
    # FSAL: f at the start, the starting-step probe, 11 calls per attempt,
    # one more per accepted step, and 3 per step that held a sample (no halts)
    for run, held in ((traj, range(traj.n_steps - 1, traj.n_steps + 1)), (coarse, range(1, 4))):
        interpolant = run.n_rhs - (2 + 12 * run.n_steps + 11 * run.n_rejected)
        assert interpolant % 3 == 0 and interpolant // 3 in held
    assert traj.xi[0] == 0.0
    assert np.all(np.diff(traj.xi) > 0)


def loose_cold_run(monkeypatch, tol):
    monkeypatch.setattr(ode, "_MAX_STEPS", 3000)
    cfg = wave_frame_config(H=1.0)
    return integrate(reference_oscillation_state(cfg, p0_scale=0.0), cfg, xi_max=5.0,
                     tol=tol, n_samples=16)


def test_loose_tolerance_run_halts_at_the_singular_set(monkeypatch):
    # a cold launch reaches det = 0 near xi = 1.81; at tol 1e-6 the run
    # halts there by step size underflow, as at 1e-9 (error control runs
    # at 1/40 of tol)
    traj = loose_cold_run(monkeypatch, 1e-6)
    assert not traj.halt_reason.startswith("step limit")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="at tol >= 1e-5 a run into the singular set creeps along it "
                          "until the step cap")
def test_looser_tolerance_run_halts_at_the_singular_set(monkeypatch):
    # at 1e-4 steps that jump across det = 0 pass the error test, the
    # derivative flips sign, and the run creeps forward until the step cap:
    # 2**20 attempts, about 26 s, in `qfluid tw run --p0-scale 0 --xi-max 5
    # --tol 1e-4`
    traj = loose_cold_run(monkeypatch, 1e-4)
    assert not traj.halt_reason.startswith("step limit")
