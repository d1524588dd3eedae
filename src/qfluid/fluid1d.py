"""Time-domain solver for the 1D fluid-Poisson moment system.

Periodic domain [0, L); fields n, u, p, Q evolved with the closed
third-order hierarchy written in Eulerian form,

    dn/dt = -d(n u)/dx
    du/dt = -u du/dx - dp/dx / (m n) + (e/m) dphi/dx
    dp/dt = -u dp/dx - 3 p du/dx - dQ/dx
    dQ/dt = -u dQ/dx + 3 p dp/dx / (m n) - e hbar^2 n d3phi/dx3 / (4 m^2)
            - 4 Q du/dx,

with the potential obtained spectrally from d2phi/dx2 = (e/eps0)(n - n0)
in the zero-mean gauge.  The third potential derivative is evaluated as
(e/eps0) dn/dx, which is exact given Poisson's equation and avoids
triple differentiation.

Every spatial derivative is Fourier pseudo-spectral, irfft(i k rfft(f)),
and quadratic products are dealiased by the 2/3 rule.

Time stepping is Lawson's integrating-factor RK4 (Lawson, SIAM J. Numer.
Anal. 4:372, 1967).  The right-hand side splits into L(k) y, the system
linearised about (n0, u = 0, p0 = n0 kB T0_par, Q = 0) mode by mode
(``_linear_operator``; eigenvalues +-i omega(k) and +-gamma(k)), and a
remainder N(y) of the terms at least quadratic in the departure from that
state (``_nonlinear``); ``rhs`` returns their sum.  ``step`` integrates
L y and the filter exactly through exp((L - rate) dt/2), computed in
closed form once per step size (``_half_step_exponential``), and samples
only N at its four stages, with the potential re-solved at each.  The linear
oscillations and the linear sound speed c0 = sqrt(3 p0/(m n0)) therefore
set no time-step bound: ``auto_dt`` is the smaller of the advective
bound 0.4 dx / max(|u| + |c - c0|), with c = sqrt(3 p/(m n)), and the
plasma-period bound 0.4 / omega_p, and ``step`` raises
``CFLViolationError`` (CLI exit 3) for a dt above it.  ``evolve`` halves
an automatic step that a steepening state outgrows, down to half the
step the full sound speed would allow.

State layout: a state is one ``(4, N)`` array, ``FluidState1D.fields``,
whose rows are (n, u, p, Q); ``rhs`` returns its derivative in the same
layout.  Every FFT is batched along the last axis: a step makes 12
transforms (per stage an irfft of the four derivatives and an rfft of the
products, per later stage an irfft of its fields, and an irfft of the new
state).  A state carries its spectrum (``FluidState1D.spectrum``): the
constructor computes it, except that ``step`` passes the one it already
has for each stage state and the new state.  The next step, the probe
record and the steepening check reuse it.  ``Grid1D.k`` and
``Grid1D.dealias_mask`` are computed once per grid.

``evolve`` rejects a run length, time step, sample interval, probe mode
or steepening limit outside its domain and a run of more than 2**20
steps, ``SpectralDamping.tailored`` a negative protected band,
``eigenmode_state`` a mode whose predicted frequency is not finite and
``Grid1D`` a length outside (0, inf), with ``ConfigError`` (CLI exit 2)
before any step.

Stability note: the closure supports a non-oscillatory growing branch at
every wavenumber with rate increasing with k (see
``dispersion.companion_growth_rate``), which makes long runs on fine
grids blow up from rounding noise alone.  ``SpectralDamping.tailored``
builds a per-mode filter that damps modes above a protected band at that
growth rate plus 2 omega_p.  The filter multiplies each field's spectrum
by the same real factor, which shifts every linear eigenvalue by a real
constant and therefore leaves oscillation frequencies exactly unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import dispersion
from .errors import (CFLViolationError, ConfigError, NoOscillationError,
                     NumericalError, SteepeningError, VacuumError)
from .params import PlasmaParams

__all__ = [
    "Grid1D",
    "FIELDS",
    "FluidState1D",
    "SpectralDamping",
    "solve_poisson",
    "rhs",
    "auto_dt",
    "step",
    "evolve",
    "FluidRun",
    "uniform_state",
    "perturbed_state",
    "mode_frequency",
    "eigenmode_state",
    "measure_frequency",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [0, L)."""

    n_points: int
    length: float

    def __post_init__(self):
        if self.n_points < 8 or self.n_points % 2:
            raise ConfigError(f"grid size must be even and >= 8, got {self.n_points}")
        if not 0.0 < self.length < math.inf:
            raise ConfigError(f"domain length must be positive and finite, got {self.length}")

    @property
    def dx(self) -> float:
        return self.length / self.n_points

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n_points) * self.dx

    @cached_property
    def k(self) -> np.ndarray:
        """rfft wavenumbers, 0 .. pi/dx (read-only, computed once)."""
        k = 2.0 * np.pi * np.fft.rfftfreq(self.n_points, d=self.dx)
        k.flags.writeable = False
        return k

    @property
    def k_fundamental(self) -> float:
        return 2.0 * np.pi / self.length

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask over ``k`` (read-only, computed once)."""
        k = self.k
        mask = k <= (2.0 / 3.0) * k[-1]
        mask.flags.writeable = False
        return mask


# row order of FluidState1D.fields and of the array rhs returns
FIELDS = ("n", "u", "p", "Q")

# factor on the advective and plasma-period time-step bounds in auto_dt
_SAFETY = 0.4
# damping above the companion growth rate in SpectralDamping.tailored, in omega_p
_MARGIN = 2.0
# relative tolerance on mean(n) = n0 in solve_poisson
_MEAN_TOL = 1e-8
# a step costs at least ~0.2 ms (N = 8), so 2**20 steps is a run of about
# four minutes; the cap rejects a run length over a step that could never
# finish before the loop starts
_MAX_STEPS = 2**20


@dataclass(frozen=True, eq=False)
class FluidState1D:
    """Periodic field snapshot (n, u, p, Q) at time t.

    ``fields`` is one ``(4, N)`` array with rows in ``FIELDS`` order, kept
    as given (not copied); ``n``, ``u``, ``p`` and ``Q`` are read-only
    views of its rows.  ``spectrum`` is its rfft along x, shape
    (4, N/2 + 1), computed here unless the caller passes it, in which case
    it must be the rfft of ``fields`` (``step`` passes the spectrum it
    integrates).  Instances compare and hash by identity.
    """

    grid: Grid1D
    fields: np.ndarray = field(repr=False)
    t: float = 0.0
    spectrum: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.fields.shape != (len(FIELDS), self.grid.n_points):
            raise ConfigError(f"fields have shape {self.fields.shape}, "
                              f"expected ({len(FIELDS)}, {self.grid.n_points})")
        if self.spectrum is None:
            object.__setattr__(self, "spectrum", np.fft.rfft(self.fields))

    n = property(lambda self: self.fields[0])
    u = property(lambda self: self.fields[1])
    p = property(lambda self: self.fields[2])
    Q = property(lambda self: self.fields[3])

    def check(self) -> None:
        """Raise on vacuum (n <= 0) or non-finite fields."""
        if not np.isfinite(self.fields).all():
            raise NumericalError(f"non-finite field values at t = {self.t:.6g}")
        if np.any(self.n <= 0.0):
            raise VacuumError(f"density reached n <= 0 at t = {self.t:.6g}")


def solve_poisson(n: np.ndarray, grid: Grid1D, params: PlasmaParams) -> np.ndarray:
    """Solve d2phi/dx2 = (e/eps0)(n - n0) spectrally, zero-mean gauge.

    The k = 0 mode of the source must vanish on a periodic domain, so
    mean(n) must equal n0 to within 1e-8 (relative).
    """
    mean_n = float(np.mean(n))
    if abs(mean_n - params.n0) > _MEAN_TOL * params.n0:
        raise NumericalError(
            f"Poisson solvability violated: mean(n) = {mean_n:.12g} vs n0 = {params.n0:.12g}")
    k = grid.k
    spec = np.fft.rfft(n) * (params.e / params.eps0)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi_spec = -spec / k**2
    phi_spec[0] = 0.0
    return np.fft.irfft(phi_spec, n=grid.n_points)


def _linear_operator(grid: Grid1D, params: PlasmaParams) -> np.ndarray:
    """Per-mode matrix L(k) of the hierarchy linearised about the uniform state.

    The state is (n0, u = 0, p0 = n0 kB T0_par, Q = 0); rows and columns
    follow ``FIELDS`` and the last axis runs over ``grid.k``, so the shape
    is (4, 4, N/2 + 1).  L is zero at k = 0 and above the 2/3 cut, where
    ``rhs`` keeps no linear term either.  Its eigenvalues are +-i omega(k)
    (``dispersion.general_omega_sq``) and +-gamma(k)
    (``dispersion.companion_growth_rate``).
    """
    k = np.where(grid.dealias_mask, grid.k, 0.0)
    ik = 1j * k
    n0, m = params.n0, params.m
    p0 = n0 * params.kB * params.T0_par
    e_m, e_eps = params.e / m, params.e / params.eps0
    L = np.zeros((len(FIELDS), len(FIELDS), len(k)), dtype=complex)
    L[0, 1] = -n0 * ik
    # (e/m) dphi/dx with dphi/dx = -i (e/eps0) n / k from the potential solve
    L[1, 0] = -1j * e_m * e_eps * np.divide(1.0, k, out=np.zeros_like(k), where=k > 0.0)
    L[1, 2] = -ik / (m * n0)
    L[2, 1] = -3.0 * p0 * ik
    L[2, 3] = -ik
    L[3, 0] = -e_m * params.hbar**2 * n0 * e_eps * ik / (4.0 * m)
    L[3, 2] = 3.0 * p0 * ik / (m * n0)
    return L


def _apply(op: np.ndarray, spec: np.ndarray) -> np.ndarray:
    """Per-mode product op(k) @ spec(k) of a (4, 4, K) operator and a (4, K) spectrum."""
    return (op * spec).sum(axis=1)


def _nonlinear(state: FluidState1D, params: PlasmaParams) -> np.ndarray:
    """Spectrum of the nonlinear remainder, rhs - L y, dealiased by the 2/3 rule.

    With dn = n - n0 and dp = p - p0 every term below is at least
    quadratic in the departure from the uniform state.  One irfft of the
    four derivatives (from ``state.spectrum``) and one rfft of the four
    products; ``state.check()`` runs first.
    """
    state.check()
    g = state.grid
    n, u, p, Q = state.fields
    dn_dx, du_dx, dp_dx, dQ_dx = np.fft.irfft(1j * g.k * state.spectrum, n=g.n_points)
    n0, m = params.n0, params.m
    p0 = n0 * params.kB * params.T0_par
    dn, dp = n - n0, p - p0
    # d3phi/dx3 = (e/eps0) dn/dx exactly, given the potential equation
    quantum = params.e**2 * params.hbar**2 / (4.0 * m**2 * params.eps0)
    terms = np.array([
        -(u * dn_dx + dn * du_dx),
        -u * du_dx + dp_dx * dn / (m * n * n0),              # -dp/dx (1/(m n) - 1/(m n0))
        -u * dp_dx - 3.0 * dp * du_dx,
        (-u * dQ_dx + 3.0 * dp_dx * (dp * n0 - p0 * dn) / (m * n * n0)   # p/(m n) - p0/(m n0)
         - quantum * dn * dn_dx - 4.0 * Q * du_dx),
    ])
    return g.dealias_mask * np.fft.rfft(terms)


def rhs(state: FluidState1D, params: PlasmaParams) -> np.ndarray:
    """Eulerian time derivatives as a (4, N) array, rows (dn/dt, du/dt, dp/dt, dQ/dt).

    The sum L y + N(y) of the linear part about the uniform state
    (``_linear_operator``) and the nonlinear remainder (``_nonlinear``),
    the same split that ``step`` integrates.  The potential is re-solved
    from the current density.  The result is dealiased by the 2/3 rule so
    band-limited states stay band-limited.
    """
    remainder = _nonlinear(state, params)
    linear = _apply(_linear_operator(state.grid, params), state.spectrum)
    return np.fft.irfft(linear + remainder, n=state.grid.n_points)


@dataclass(frozen=True, eq=False)
class SpectralDamping:
    """Per-mode damping rates, applied over a step of length dt as exp(-rate * dt).

    The same factor multiplies all four fields at a given mode, so the
    filter commutes with the linear dynamics up to a real eigenvalue
    shift: oscillation frequencies are untouched.  ``step`` folds it into
    the exponential of the linear part.  Instances compare and hash by
    identity, and hold a read-only copy of ``rates``.
    """

    rates: np.ndarray = field(repr=False)

    def __post_init__(self):
        rates = np.array(self.rates, dtype=float)
        rates.flags.writeable = False
        object.__setattr__(self, "rates", rates)

    @classmethod
    def tailored(cls, grid: Grid1D, params: PlasmaParams,
                 protect_modes: int = 1) -> "SpectralDamping":
        """Damping matched to the closure's companion-branch growth rate.

        Modes 0..protect_modes are untouched; every higher mode is damped
        at its own growth rate plus 2 omega_p, which pins rounding-noise amplification at a bounded factor for runs of
        tens of plasma periods.  Raises ``ConfigError`` when
        ``protect_modes`` is negative: mode 0 (the mean density) must not
        be damped.
        """
        if protect_modes < 0:
            raise ConfigError(f"protected band must be >= 0 modes, got {protect_modes!r}")
        k = grid.k
        rates = dispersion.companion_growth_rate(k, params) + _MARGIN * params.omega_p
        rates[k <= protect_modes * grid.k_fundamental + 1e-12 * grid.k_fundamental] = 0.0
        return cls(rates=rates)


@lru_cache(maxsize=1)
def _half_step_exponential(grid: Grid1D, params: PlasmaParams,
                           damping: SpectralDamping | None, dt: float) -> np.ndarray:
    """exp((L - rate) dt/2) per mode, shape (4, 4, N/2 + 1), by Sylvester's formula.

    L^2 has the eigenvalues -omega^2 and gamma^2, so
    exp(L h) = C(L^2) + L S(L^2) with C and S the linear interpolants of
    cos(omega h), cosh(gamma h) and sin(omega h)/omega, sinh(gamma h)/gamma
    at those two points (sinh(gamma h)/gamma -> h as gamma -> 0).  The
    damping factor exp(-rate h) commutes with L and is folded into each
    coefficient; the growing exponential is formed as exp((gamma - rate) h)
    so a filtered mode never overflows.  The last result is cached, keyed
    on (grid, params, damping, dt), so ``evolve`` computes it once per run
    and once per halving of its step, and keeps at most one
    (4, 4, N/2 + 1) array alive afterwards.
    """
    h = 0.5 * dt
    L = _linear_operator(grid, params)
    k = np.where(grid.dealias_mask, grid.k, 0.0)
    om2 = dispersion.general_omega_sq(k, params)
    om = np.sqrt(om2)
    ga = dispersion.companion_growth_rate(k, params)
    rates = damping.rates if damping is not None else 0.0
    decay = np.exp(-rates * h)
    c_osc, s_osc = np.cos(om * h) * decay, np.sin(om * h) / om * decay
    grow = np.exp((ga - rates) * h)
    x = 2.0 * ga * h
    c_hyp = 0.5 * grow * (1.0 + np.exp(-x))
    s_hyp = grow * h * np.divide(-np.expm1(-x), x, out=np.ones_like(x), where=x > 0.0)
    span = om2 + ga**2
    a0, a1 = (c_hyp * om2 + c_osc * ga**2) / span, (c_hyp - c_osc) / span
    b0, b1 = (s_hyp * om2 + s_osc * ga**2) / span, (s_hyp - s_osc) / span
    eye = np.eye(len(FIELDS))[:, :, None]
    # a0 + b0 L + a1 L^2 + b1 L^3 in Horner form
    out = b1 * L + a1 * eye
    out = np.einsum("ijk,jlk->ilk", L, out) + b0 * eye
    return np.einsum("ijk,jlk->ilk", L, out) + a0 * eye


def _remainder_speed(state: FluidState1D, params: PlasmaParams, c0: float) -> float:
    """max(|u| + |c - c0|) with c = sqrt(3 p / (m n))."""
    c = np.sqrt(np.maximum(3.0 * state.p / (params.m * state.n), 0.0))
    return float(np.max(np.abs(state.u) + np.abs(c - c0)))


def _uniform_sound_speed(params: PlasmaParams) -> float:
    """c0 = sqrt(3 p0 / (m n0)) with p0 = n0 kB T0_par."""
    p0 = params.n0 * params.kB * params.T0_par
    return math.sqrt(3.0 * p0 / (params.m * params.n0))


def _dt_limit(state: FluidState1D, params: PlasmaParams, c0: float) -> float:
    """min(0.4 dx / max(|u| + |c - c0|), 0.4 / omega_p) with c = sqrt(3 p / (m n))."""
    speed = _remainder_speed(state, params, c0)
    dt_adv = _SAFETY * state.grid.dx / speed if speed > 0 else math.inf
    return min(dt_adv, _SAFETY / params.omega_p)


def auto_dt(state: FluidState1D, params: PlasmaParams) -> float:
    """Largest step ``step`` accepts: the advective and plasma-period bounds.

    dt <= 0.4 dx / max(|u| + |c - c0|) and dt <= 0.4 / omega_p, with the
    local sound speed c = sqrt(3 p / (m n)) and its uniform value
    c0 = sqrt(3 p0 / (m n0)), p0 = n0 kB T0_par.  ``step`` carries the
    linear propagation at c0 and the linear oscillations, however fast at
    high k, exactly, so they set no bound: only the flow and the departure
    of c from c0, the speeds of the nonlinear remainder, do.  At
    T0_par = 0 this is the full speed |u| + c.
    """
    return _dt_limit(state, params, _uniform_sound_speed(params))


def step(state: FluidState1D, dt: float, params: PlasmaParams,
         damping: SpectralDamping | None = None) -> FluidState1D:
    """Advance one Lawson (integrating-factor) RK4 step on the spectrum.

    With E = exp((L - rate) dt/2) from ``_half_step_exponential`` and the
    nonlinear remainder N (``_nonlinear``, Poisson re-solved per stage):

        k1 = N(y)
        k2 = N(E (y + dt/2 k1))
        k3 = N(E y + dt/2 k2)
        k4 = N(E (E y + dt k3))
        y' = E (E y + dt/6 (E k1 + 2 k2 + 2 k3)) + dt/6 k4,

    so the linear part, filter included, is integrated exactly.  Twelve
    FFT calls, each batched over the four rows: per stage one irfft of
    the derivatives and one rfft of the products, per later stage one
    irfft of its fields, and one irfft of the new state, which keeps its
    spectrum (``FluidState1D.spectrum``) for the next step.  Each stage state
    and the new state run ``FluidState1D.check``.

    Raises ``CFLViolationError`` (with a suggested dt) when the requested
    step exceeds ``auto_dt`` for the current state.
    """
    limit = auto_dt(state, params)
    if dt > limit * (1.0 + 1e-12):
        raise CFLViolationError(
            f"dt = {dt:.6g} exceeds stability bound {limit:.6g}; "
            f"suggested dt = {limit:.6g}", suggested_dt=limit)

    g = state.grid
    E = _half_step_exponential(g, params, damping, dt)

    def remainder(spec, t):
        return _nonlinear(FluidState1D(g, np.fft.irfft(spec, n=g.n_points), t, spec), params)

    y = state.spectrum
    k1 = _nonlinear(state, params)
    Ey, Ek1 = _apply(E, y), _apply(E, k1)
    k2 = remainder(Ey + (0.5 * dt) * Ek1, state.t + 0.5 * dt)
    k3 = remainder(Ey + (0.5 * dt) * k2, state.t + 0.5 * dt)
    k4 = remainder(_apply(E, Ey + dt * k3), state.t + dt)
    spec = _apply(E, Ey + (dt / 6.0) * (Ek1 + 2.0 * (k2 + k3))) + (dt / 6.0) * k4

    new = FluidState1D(g, np.fft.irfft(spec, n=g.n_points), state.t + dt, spec)
    new.check()
    return new


@dataclass
class FluidRun:
    """Probe time series from ``evolve``: complex fundamental-mode
    coefficients per field plus bulk diagnostics, and the steps taken.

    ``dt_bound`` names what set the initial step: ``"advective"`` or
    ``"plasma"`` (the smaller bound of ``auto_dt`` at the initial state)
    or ``"user"`` (``dt`` was given).  ``n_halvings`` counts the times an
    automatic step was halved because the state outgrew its bound,
    ``n_steps`` the steps taken and ``dt`` the final step.
    """

    t: np.ndarray
    mode: dict[str, np.ndarray]       # field -> complex coefficient of probe mode
    mass: np.ndarray                  # mean(n) over the domain
    final: FluidState1D
    n_steps: int
    dt: float
    dt_bound: str
    n_halvings: int


def _step_count(t_end: float, dt: float) -> int | float:
    """Least n >= 1 with t_end / n <= dt (to 1e-12); inf if that overflows."""
    ratio = t_end / dt if dt > 0.0 else math.inf
    return max(1, math.ceil(ratio - 1e-12)) if ratio < math.inf else math.inf


def evolve(state: FluidState1D, params: PlasmaParams, t_end: float,
           dt: float | None = None, damping: SpectralDamping | None = None,
           probe_mode: int = 1, sample_every: int = 1,
           steepening_limit: float | None = None) -> FluidRun:
    """March to t_end recording probe series.

    ``probe_mode`` selects which Fourier mode's complex coefficient is
    recorded for each field (normalized so a cos profile of amplitude A
    gives coefficient A).  ``steepening_limit`` (units of omega_p) halts
    with a diagnostic when max |du/dx| exceeds it; the solver targets
    smooth regimes only.

    Without ``dt`` the step is 0.75 ``auto_dt`` at the initial state,
    rounded down to t_end / n.  A fixed step cannot foresee a steepening
    wave, so when ``step`` rejects it (``CFLViolationError``, raised
    before any work) the step is halved and the steps left and the
    sample stride are doubled: the samples stay uniform and the run ends
    at t_end.  The step is never halved below half of 0.75 times the
    full-speed bound 0.4 dx / max(|u| + c) (``auto_dt`` with c0 = 0) at
    the initial state, rounded the same way.  A given ``dt`` is never
    halved.  Past the floor, or at once for a given ``dt``, a rejection
    after the first step raises ``CFLViolationError`` naming t and the
    growth of max(|u| + |c - c0|) since the start: the wave is steepening
    or growing, so no step size is suggested.  A given ``dt`` rejected at
    the first step keeps ``step``'s error, with its suggested dt.

    Raises ``ConfigError`` unless t_end > 0, dt > 0 (when given),
    sample_every >= 1, 0 <= probe_mode <= N/2, steepening_limit is None
    or finite and > 0 and the run takes at most 2**20 steps, and
    ``NumericalError`` (``FluidState1D.check``) for an initial state that
    is not finite or has n <= 0.
    """
    g = state.grid
    if not 0.0 < t_end < math.inf:
        raise ConfigError(f"run length must be positive and finite, got {t_end!r}")
    if dt is not None and not 0.0 < dt < math.inf:
        raise ConfigError(f"time step must be positive and finite, got {dt!r}")
    if sample_every < 1:
        raise ConfigError(f"sample interval must be >= 1 step, got {sample_every!r}")
    if not 0 <= probe_mode <= g.n_points // 2:
        raise ConfigError(f"probe mode must lie in [0, {g.n_points // 2}] "
                          f"on a {g.n_points}-point grid, got {probe_mode!r}")
    if steepening_limit is not None and not 0.0 < steepening_limit < math.inf:
        raise ConfigError(
            f"steepening limit must be positive and finite, got {steepening_limit!r}")
    state.check()
    if dt is None:
        limit = auto_dt(state, params)
        dt_bound = "plasma" if limit == _SAFETY / params.omega_p else "advective"
        # stay below the instantaneous bound so mild nonlinear drift of
        # the state does not trip the per-step CFL check
        dt = 0.75 * limit
        floor = 0.5 * t_end / _step_count(t_end, 0.75 * _dt_limit(state, params, 0.0))
    else:
        dt_bound, floor = "user", math.inf
    left = _step_count(t_end, dt)
    if left > _MAX_STEPS:
        raise ConfigError(f"a run of length {t_end!r} at dt = {dt!r} needs more than "
                          f"the {_MAX_STEPS}-step limit")
    dt = t_end / left

    norm = 2.0 / g.n_points
    times, mass = [], []
    coeffs: dict[str, list[complex]] = {f: [] for f in FIELDS}

    def record(s: FluidState1D):
        times.append(s.t)
        mass.append(float(np.mean(s.n)))
        for name, c in zip(FIELDS, s.spectrum[:, probe_mode]):
            coeffs[name].append(complex(c) * norm)

    record(state)
    initial = state
    stride, since, taken, halvings = sample_every, 0, 0, 0
    while left:
        try:
            state = step(state, dt, params, damping=damping)
        except CFLViolationError as exc:
            if 0.5 * dt < floor:
                if not taken:
                    raise
                c0 = _uniform_sound_speed(params)
                raise CFLViolationError(
                    f"dt = {dt:.6g} exceeds stability bound {exc.suggested_dt:.6g} "
                    f"at t = {state.t:.6g}: max(|u| + |c - c0|) grew from "
                    f"{_remainder_speed(initial, params, c0):.6g} at t = {initial.t:.6g} "
                    f"to {_remainder_speed(state, params, c0):.6g}; the wave is steepening or "
                    f"growing, which a smaller dt does not cure", suggested_dt=None) from None
            dt, left, stride, since = 0.5 * dt, 2 * left, 2 * stride, 2 * since
            halvings += 1
            continue
        left, since, taken = left - 1, since + 1, taken + 1
        if steepening_limit is not None:
            du = np.fft.irfft(1j * g.k * state.spectrum[1], n=g.n_points)
            if float(np.max(np.abs(du))) > steepening_limit * params.omega_p:
                raise SteepeningError(
                    f"velocity gradient exceeded {steepening_limit} omega_p "
                    f"at t = {state.t:.6g}; smooth-wave regime left")
        if since == stride or not left:
            record(state)
            since = 0

    return FluidRun(
        t=np.asarray(times),
        mode={k: np.asarray(v) for k, v in coeffs.items()},
        mass=np.asarray(mass), final=state, n_steps=taken, dt=dt, dt_bound=dt_bound,
        n_halvings=halvings)


def uniform_state(grid: Grid1D, params: PlasmaParams,
                  p0: float | None = None) -> FluidState1D:
    """Spatially uniform equilibrium (an exact fixed point of the dynamics)."""
    if p0 is None:
        p0 = params.n0 * params.kB * params.T0_par
    return FluidState1D(grid, np.full((len(FIELDS), grid.n_points),
                                      [[params.n0], [0.0], [p0], [0.0]]))


def _initial_state(grid: Grid1D, fields: np.ndarray, amplitude: float) -> FluidState1D:
    """``FluidState1D`` of ``fields``, or ``ConfigError`` when their spectrum is
    not finite (a non-finite field makes its mean non-finite)."""
    with np.errstate(over="ignore", invalid="ignore"):
        spectrum = np.fft.rfft(fields)
    if not np.isfinite(spectrum).all():
        raise ConfigError(f"perturbation amplitude {amplitude!r} makes the initial fields "
                          "or their spectrum overflow")
    return FluidState1D(grid, fields, spectrum=spectrum)


def perturbed_state(grid: Grid1D, params: PlasmaParams, mode: int, amplitude: float,
                    fields: tuple[str, ...] = ("n",)) -> FluidState1D:
    """Equilibrium plus a cosine perturbation on the named fields.

    n and p perturbations scale with n0 (``amplitude`` is relative);
    u and Q take ``amplitude`` in raw units.  Raises ``ConfigError`` for
    a mode below 1 (mode 0 would change the mean density, which the
    zero-mean Poisson solve cannot balance), or an amplitude that is not
    finite or makes a field or its spectrum overflow.
    """
    if mode < 1:
        raise ConfigError("mode number must be >= 1")
    if not math.isfinite(amplitude):
        raise ConfigError(f"perturbation amplitude must be finite, got {amplitude!r}")
    base = uniform_state(grid, params).fields
    profile = np.cos(mode * grid.k_fundamental * grid.x)
    rows = list(base)
    for name in fields:
        if name not in FIELDS:
            raise ConfigError(f"unknown field {name!r} in perturbation spec")
        i = FIELDS.index(name)
        scale = params.n0 if name in ("n", "p") else 1.0
        rows[i] = base[i] + amplitude * scale * profile
    return _initial_state(grid, np.array(rows), amplitude)


def mode_frequency(grid: Grid1D, params: PlasmaParams, mode: int) -> float:
    """omega of the general relation at k = mode * 2pi/L; ``ConfigError``
    when it is not finite (a domain too short for the mode)."""
    with np.errstate(over="ignore", invalid="ignore"):
        om = math.sqrt(float(dispersion.general_omega_sq(mode * grid.k_fundamental, params)))
    if not math.isfinite(om):
        raise ConfigError(f"predicted omega at mode {mode} is not finite ({om!r}) "
                          f"on a domain of length {grid.length!r}")
    return om


def eigenmode_state(grid: Grid1D, params: PlasmaParams, mode: int,
                    amplitude: float) -> FluidState1D:
    """Rightward-traveling linear eigenmode of the oscillatory branch.

    Field amplitudes follow from the linearized system at k = mode * 2pi/L
    with omega from the general relation:

        n1 = A n0,  u1 = omega n1 / (k n0),
        p1 = m n0 (omega^2 - wp^2) u1 / (omega k),
        Q1 = (omega p1 - 3 p0 k u1) / k.

    ``amplitude`` A is the relative density perturbation.  Raises
    ``ConfigError`` for an amplitude that is not finite or makes a field
    or its spectrum overflow, and when omega is not finite
    (``mode_frequency``).
    """
    if mode < 1:
        raise ConfigError("mode number must be >= 1")
    if not math.isfinite(amplitude):
        raise ConfigError(f"perturbation amplitude must be finite, got {amplitude!r}")
    k = mode * grid.k_fundamental
    wp = params.omega_p
    om = mode_frequency(grid, params, mode)
    p0 = params.n0 * params.kB * params.T0_par

    n1 = amplitude * params.n0
    u1 = om * n1 / (k * params.n0)
    p1 = params.m * params.n0 * (om**2 - wp**2) * u1 / (om * k)
    Q1 = (om * p1 - 3.0 * p0 * k * u1) / k

    uniform = uniform_state(grid, params, p0).fields
    return _initial_state(grid, uniform + np.outer([n1, u1, p1, Q1], np.cos(k * grid.x)),
                          amplitude)


def measure_frequency(t: np.ndarray, y: np.ndarray,
                      method: str = "zero-crossings") -> float:
    """Dominant angular frequency of a sampled oscillation.

    Zero-crossing times (linearly interpolated) are fitted against their
    index, which averages out sampling jitter; the spectral method takes
    the discrete peak with parabolic interpolation.  Requires a uniform
    time grid covering at least ~4 periods.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.ndim != 1 or t.shape != y.shape or len(t) < 8:
        raise ConfigError("need matching 1D arrays with at least 8 samples")
    dts = np.diff(t)
    if np.max(np.abs(dts - dts[0])) > 1e-9 * abs(dts[0]):
        raise ConfigError("time samples must be uniform")

    y0 = y - np.mean(y)
    scale = float(np.max(np.abs(y0)))
    if scale <= 1e-13 * max(float(np.max(np.abs(y))), 1e-300):
        raise NoOscillationError("signal is flat; no oscillation to measure")

    if method == "zero-crossings":
        s = np.where(y0 >= 0.0, 1.0, -1.0)
        idx = np.nonzero(s[:-1] * s[1:] < 0.0)[0]
        if len(idx) >= 8:
            tc = t[idx] - y0[idx] * (t[idx + 1] - t[idx]) / (y0[idx + 1] - y0[idx])
            half_period = np.polynomial.polynomial.polyfit(
                np.arange(len(tc), dtype=float), tc, 1)[1]
            if half_period > 0.0:
                return math.pi / half_period
        method = "spectral"  # too few crossings: fall through

    if method != "spectral":
        raise ConfigError(f"unknown method {method!r}")
    spec = np.abs(np.fft.rfft(y0))
    j = int(np.argmax(spec[1:])) + 1
    if spec[j] <= 1e-12 * len(y0) * scale:
        raise NoOscillationError("no spectral peak found")
    if 1 <= j < len(spec) - 1 and spec[j - 1] > 0 and spec[j + 1] > 0:
        la, lb, lc = np.log(spec[j - 1: j + 2])
        denom = la - 2.0 * lb + lc
        shift = 0.5 * (la - lc) / denom if denom != 0.0 else 0.0
    else:
        shift = 0.0
    return 2.0 * math.pi * (j + shift) / (len(y0) * float(dts[0]))
