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
and quadratic products are dealiased by the 2/3 rule.  Time stepping is
classical RK4 with the potential re-solved at every stage.

State layout: the four fields are the rows (n, u, p, Q) of one ``(4, N)``
array, ``FluidState1D.fields``, and ``rhs`` returns its derivative in the
same layout.  Every FFT is batched along the last axis, so one ``rhs``
makes four transforms (the fields forward, the five derivatives
dn, du, dp, dQ, dphi back, and a forward/back pair for the 2/3 rule) and
one filtered RK4 step makes 18, where one transform per field and per
derivative would take 76.  ``Grid1D.k`` and ``Grid1D.dealias_mask`` are
computed once per grid.

``evolve`` rejects a run length, time step, sample interval, probe mode
or steepening limit outside its domain, and ``SpectralDamping.tailored``
a negative protected band, with ``ConfigError`` (CLI exit 2) before any
step.

Stability note: the closure supports a non-oscillatory growing branch at
every wavenumber with rate increasing with k (see
``dispersion.companion_growth_rate``), which makes long runs on fine
grids blow up from rounding noise alone.  ``SpectralDamping.tailored``
builds a per-mode filter that damps modes above a protected band at that
growth rate plus a margin.  The filter multiplies each field's spectrum
by the same real factor, which shifts every linear eigenvalue by a real
constant and therefore leaves oscillation frequencies exactly unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

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
        if not self.length > 0:
            raise ConfigError(f"domain length must be positive, got {self.length}")

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


@dataclass(frozen=True)
class FluidState1D:
    """Periodic field snapshot (n, u, p, Q) at time t.

    The fields are the rows of one ``(4, N)`` array, ``fields``, and
    ``n``, ``u``, ``p``, ``Q`` are views of its rows.  The constructor
    copies the four arrays into a new one; ``from_fields`` wraps an
    existing array without a copy.
    """

    grid: Grid1D
    n: np.ndarray
    u: np.ndarray
    p: np.ndarray
    Q: np.ndarray
    t: float = 0.0
    fields: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in FIELDS:
            arr = getattr(self, name)
            if arr.shape != (self.grid.n_points,):
                raise ConfigError(f"field {name!r} has shape {arr.shape}, "
                                  f"expected ({self.grid.n_points},)")
        self._bind(np.array([self.n, self.u, self.p, self.Q], dtype=float))

    @classmethod
    def from_fields(cls, grid: Grid1D, fields: np.ndarray, t: float = 0.0) -> "FluidState1D":
        """State whose rows n, u, p, Q are those of ``fields`` (not copied)."""
        if fields.shape != (len(FIELDS), grid.n_points):
            raise ConfigError(f"fields have shape {fields.shape}, "
                              f"expected ({len(FIELDS)}, {grid.n_points})")
        state = object.__new__(cls)
        object.__setattr__(state, "grid", grid)
        object.__setattr__(state, "t", t)
        state._bind(fields)
        return state

    def _bind(self, fields: np.ndarray) -> None:
        object.__setattr__(self, "fields", fields)
        for name, row in zip(FIELDS, fields):
            object.__setattr__(self, name, row)

    def check(self) -> None:
        """Raise on vacuum (n <= 0) or non-finite fields."""
        if not np.isfinite(self.fields).all():
            raise NumericalError(f"non-finite field values at t = {self.t:.6g}")
        if np.any(self.n <= 0.0):
            raise VacuumError(f"density reached n <= 0 at t = {self.t:.6g}")


def solve_poisson(n: np.ndarray, grid: Grid1D, params: PlasmaParams,
                  mean_tol: float = 1e-8) -> np.ndarray:
    """Solve d2phi/dx2 = (e/eps0)(n - n0) spectrally, zero-mean gauge.

    The k = 0 mode of the source must vanish on a periodic domain, so
    mean(n) must equal n0 to within ``mean_tol`` (relative).
    """
    mean_n = float(np.mean(n))
    if abs(mean_n - params.n0) > mean_tol * params.n0:
        raise NumericalError(
            f"Poisson solvability violated: mean(n) = {mean_n:.12g} vs n0 = {params.n0:.12g}")
    k = grid.k
    spec = np.fft.rfft(n) * (params.e / params.eps0)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi_spec = -spec / k**2
    phi_spec[0] = 0.0
    return np.fft.irfft(phi_spec, n=grid.n_points)


def rhs(state: FluidState1D, params: PlasmaParams) -> np.ndarray:
    """Eulerian time derivatives as a (4, N) array, rows (dn/dt, du/dt, dp/dt, dQ/dt).

    The potential is re-solved from the current density.  Output arrays
    are dealiased by the 2/3 rule so band-limited states stay band-limited.
    """
    state.check()
    g = state.grid
    k, N = g.k, g.n_points
    n, u, p, Q = state.fields

    spec = np.fft.rfft(state.fields)
    deriv_spec = np.empty((5, len(k)), dtype=complex)
    deriv_spec[:4] = 1j * k * spec
    # dphi/dx from the potential solve in one shot
    with np.errstate(divide="ignore", invalid="ignore"):
        deriv_spec[4] = -1j * (params.e / params.eps0) * spec[0] / k
    deriv_spec[4, 0] = 0.0
    dn, du, dp, dQ, dphi = np.fft.irfft(deriv_spec, n=N)
    # d3phi/dx3 = (e/eps0) dn/dx exactly, given the potential equation
    d3phi = (params.e / params.eps0) * dn

    e_m = params.e / params.m
    dt_fields = np.array([
        -(u * dn + n * du),
        -u * du - dp / (params.m * n) + e_m * dphi,
        -u * dp - 3.0 * p * du - dQ,
        (-u * dQ + 3.0 * p * dp / (params.m * n)
         - e_m * params.hbar**2 * n * d3phi / (4.0 * params.m)
         - 4.0 * Q * du),
    ])
    return np.fft.irfft(g.dealias_mask * np.fft.rfft(dt_fields), n=N)


@dataclass(frozen=True)
class SpectralDamping:
    """Per-mode damping rates applied after each step as exp(-rate * dt).

    The same factor multiplies all four fields at a given mode, so the
    filter commutes with the linear dynamics up to a real eigenvalue
    shift: oscillation frequencies are untouched.
    """

    rates: np.ndarray = field(repr=False)

    @classmethod
    def tailored(cls, grid: Grid1D, params: PlasmaParams,
                 protect_modes: int = 1, margin: float | None = None) -> "SpectralDamping":
        """Damping matched to the closure's companion-branch growth rate.

        Modes 0..protect_modes are untouched; every higher mode is damped
        at its own growth rate plus ``margin`` (default 2 omega_p), which
        pins rounding-noise amplification at a bounded factor for runs of
        tens of plasma periods.  Raises ``ConfigError`` when
        ``protect_modes`` is negative: mode 0 (the mean density) must not
        be damped.
        """
        if protect_modes < 0:
            raise ConfigError(f"protected band must be >= 0 modes, got {protect_modes!r}")
        if margin is None:
            margin = 2.0 * params.omega_p
        k = grid.k
        rates = dispersion.companion_growth_rate(k, params) + margin
        rates[k <= protect_modes * grid.k_fundamental + 1e-12 * grid.k_fundamental] = 0.0
        return cls(rates=rates)

    def factors(self, dt: float) -> np.ndarray:
        return np.exp(-self.rates * dt)


def auto_dt(state: FluidState1D, params: PlasmaParams, safety: float = 0.4) -> float:
    """Largest stable dt: advective bound and the stiff oscillation bound.

    dt <= safety * dx / max(|u| + sqrt(3 p / (m n))) and
    dt <= safety / omega(k_nyquist) with omega from the general relation
    (the quantum term makes the highest modes the fastest).
    """
    g = state.grid
    speed = float(np.max(np.abs(state.u) + np.sqrt(np.maximum(3.0 * state.p / (params.m * state.n), 0.0))))
    dt_adv = safety * g.dx / speed if speed > 0 else math.inf
    k_nyq = math.pi / g.dx
    om_max = math.sqrt(float(dispersion.general_omega_sq(k_nyq, params)))
    return min(dt_adv, safety / om_max)


def step(state: FluidState1D, dt: float, params: PlasmaParams,
         damping: SpectralDamping | None = None, safety: float = 0.4) -> FluidState1D:
    """Advance one classical RK4 step (Poisson re-solved per stage).

    Raises ``CFLViolationError`` (with a suggested dt) when the requested
    step exceeds the stability bound for the current state.
    """
    limit = auto_dt(state, params, safety)
    if dt > limit * (1.0 + 1e-12):
        raise CFLViolationError(
            f"dt = {dt:.6g} exceeds stability bound {limit:.6g}; "
            f"suggested dt = {limit:.6g}", suggested_dt=limit)

    y = state.fields

    def shifted(coeff, deriv):
        return FluidState1D.from_fields(state.grid, y + coeff * deriv, t=state.t + coeff)

    k1 = rhs(state, params)
    k2 = rhs(shifted(0.5 * dt, k1), params)
    k3 = rhs(shifted(0.5 * dt, k2), params)
    k4 = rhs(shifted(dt, k3), params)

    fields = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if damping is not None:
        fields = np.fft.irfft(damping.factors(dt) * np.fft.rfft(fields), n=state.grid.n_points)
    new = FluidState1D.from_fields(state.grid, fields, t=state.t + dt)
    new.check()
    return new


@dataclass
class FluidRun:
    """Probe time series from ``evolve``: complex fundamental-mode
    coefficients per field plus bulk diagnostics."""

    t: np.ndarray
    mode: dict[str, np.ndarray]       # field -> complex coefficient of probe mode
    mass: np.ndarray                  # mean(n) over the domain
    final: FluidState1D
    n_steps: int


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

    Raises ``ConfigError`` unless t_end > 0, dt > 0 (when given),
    sample_every >= 1, 0 <= probe_mode <= N/2 and steepening_limit is
    None or finite and > 0.
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
    if dt is None:
        # margin below the instantaneous bound so mild nonlinear drift of
        # the state does not trip the per-step CFL check
        dt = 0.75 * auto_dt(state, params)
    n_steps = max(1, int(math.ceil(t_end / dt - 1e-12)))
    dt = t_end / n_steps

    norm = 2.0 / g.n_points
    times, mass = [], []
    coeffs: dict[str, list[complex]] = {f: [] for f in FIELDS}

    def record(s: FluidState1D):
        times.append(s.t)
        mass.append(float(np.mean(s.n)))
        for name, c in zip(FIELDS, np.fft.rfft(s.fields)[:, probe_mode]):
            coeffs[name].append(complex(c) * norm)

    record(state)
    for i in range(n_steps):
        state = step(state, dt, params, damping=damping)
        if steepening_limit is not None:
            du = np.fft.irfft(1j * g.k * np.fft.rfft(state.u), n=g.n_points)
            if float(np.max(np.abs(du))) > steepening_limit * params.omega_p:
                raise SteepeningError(
                    f"velocity gradient exceeded {steepening_limit} omega_p "
                    f"at t = {state.t:.6g}; smooth-wave regime left")
        if (i + 1) % sample_every == 0 or i == n_steps - 1:
            record(state)

    return FluidRun(
        t=np.asarray(times),
        mode={k: np.asarray(v) for k, v in coeffs.items()},
        mass=np.asarray(mass), final=state, n_steps=n_steps)


def uniform_state(grid: Grid1D, params: PlasmaParams,
                  p0: float | None = None) -> FluidState1D:
    """Spatially uniform equilibrium (an exact fixed point of the dynamics)."""
    if p0 is None:
        p0 = params.n0 * params.kB * params.T0_par
    N = grid.n_points
    return FluidState1D(grid, np.full(N, params.n0), np.zeros(N),
                        np.full(N, p0), np.zeros(N))


def perturbed_state(grid: Grid1D, params: PlasmaParams, mode: int, amplitude: float,
                    fields: tuple[str, ...] = ("n",),
                    p0: float | None = None) -> FluidState1D:
    """Equilibrium plus a cosine perturbation on the named fields.

    n and p perturbations scale with n0 (``amplitude`` is relative);
    u and Q take ``amplitude`` in raw units.
    """
    base = uniform_state(grid, params, p0)
    profile = np.cos(mode * grid.k_fundamental * grid.x)
    updates = {}
    for name in fields:
        if name not in FIELDS:
            raise ConfigError(f"unknown field {name!r} in perturbation spec")
        scale = params.n0 if name in ("n", "p") else 1.0
        updates[name] = getattr(base, name) + amplitude * scale * profile
    return replace(base, **updates)


def eigenmode_state(grid: Grid1D, params: PlasmaParams, mode: int,
                    amplitude: float) -> FluidState1D:
    """Rightward-traveling linear eigenmode of the oscillatory branch.

    Field amplitudes follow from the linearized system at k = mode * 2pi/L
    with omega from the general relation:

        n1 = A n0,  u1 = omega n1 / (k n0),
        p1 = m n0 (omega^2 - wp^2) u1 / (omega k),
        Q1 = (omega p1 - 3 p0 k u1) / k.

    ``amplitude`` A is the relative density perturbation.
    """
    if mode < 1:
        raise ConfigError("mode number must be >= 1")
    k = mode * grid.k_fundamental
    wp = params.omega_p
    om = math.sqrt(float(dispersion.general_omega_sq(k, params)))
    p0 = params.n0 * params.kB * params.T0_par

    n1 = amplitude * params.n0
    u1 = om * n1 / (k * params.n0)
    p1 = params.m * params.n0 * (om**2 - wp**2) * u1 / (om * k)
    Q1 = (om * p1 - 3.0 * p0 * k * u1) / k

    c = np.cos(k * grid.x)
    base = uniform_state(grid, params, p0)
    return replace(base, n=base.n + n1 * c, u=base.u + u1 * c,
                   p=base.p + p1 * c, Q=base.Q + Q1 * c)


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
