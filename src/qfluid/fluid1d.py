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

Units: the module computes in plasma units (``_plasma_units``): n0 = m =
e = eps0 = kB = 1, time in 1/omega_p, the length unit kept.  There the
system keeps two parameters, hbar' = hbar / (m omega_p) and T' =
kB T0_par / (m omega_p^2), and the rows (n, u, p, Q) are the caller's over
(n0, omega_p, e^2 n0^2 / eps0, e^2 n0^2 omega_p / eps0).  ``evolve``, the
state builders and ``mode_frequency`` take and return the caller's units:
each maps the parameters there once and scales its result back once.
``step``, ``rhs`` and ``auto_dt`` require everything in plasma units;
``solve_poisson`` takes the caller's units.  ``SpectralDamping`` holds no
dimensional number.

Every spatial derivative is Fourier pseudo-spectral, irfft(i k rfft(f)),
and quadratic products are dealiased by the 2/3 rule.

Time stepping is Lawson's integrating-factor RK4 (Lawson, SIAM J. Numer.
Anal. 4:372, 1967).  The right-hand side splits into L(k) y, the system
linearised about (n0, u = 0, p0 = n0 kB T0_par, Q = 0) mode by mode
(``_linear_operator``; eigenvalues +-i omega(k) and +-gamma(k)), and a
remainder N(y) of the terms at least quadratic in the departure from that
state (``_nonlinear``); ``rhs`` returns their sum.  ``step`` integrates
L y and the filter exactly through exp((L - rate P) dt/2), computed in
closed form once per step size (``_half_step_exponential``), and samples
only N at its four stages, with the potential re-solved at each.  The linear
oscillations and the linear sound speed c0 = sqrt(3 p0/(m n0)) therefore
set no time-step bound: ``auto_dt`` is the smaller of the advective
bound 0.4 dx / max(|u| + |c - c0|), with c = sqrt(3 p/(m n)), and the
plasma-period bound 0.4 / omega_p, and ``step`` raises
``CFLViolationError`` (CLI exit 3) for a dt above it.  ``evolve`` halves
an automatic step that a steepening state outgrows, for as long as the
run stays within its 2**20-step cap.

State layout: a state is one ``(4, N)`` array, ``FluidState1D.fields``,
whose rows are (n, u, p, Q); ``rhs`` returns its derivative in the same
layout.  A state also carries its spectrum and the rows' x derivatives
(``FluidState1D.spectrum``, ``FluidState1D.derivatives``).  ``_nonlinear``
is one kernel on stacked rows: the ten products of the departures from
the uniform state and the derivatives, one constant matrix, one rfft.
Every FFT is batched along the last axis, and a step makes 8: per later
stage and for the new state one irfft of the stacked spectrum and its
i k multiple, which returns fields and derivatives together, and per
stage one rfft of the remainder.  The first stage and the steepening
check in ``evolve`` read the state's arrays and make no transform.
``Grid1D.k`` and ``Grid1D.dealias_mask`` are computed once per grid, and
the kernel's coefficients once per (grid, params)
(``_remainder_coefficients``).

One scale check, in ``_plasma_units``, refuses parameters without plasma
units on a grid: a row scale that is not finite and positive (n0 = 1e200
squares the pressure scale to inf), an hbar'^2 or 3 T' that is not
finite, or an omega'^2 that is not finite at the grid's top wavenumber.
``evolve`` also rejects a run length, time step, sample interval, probe
mode or steepening limit outside its domain and a run of more than 2**20
steps, ``mode_frequency`` and the state builders a mode outside [1, the
last mode the 2/3 rule keeps], the builders a non-finite amplitude or a
row that overflows, ``SpectralDamping`` a negative protected band and
``Grid1D`` a length outside (0, inf), all with ``ConfigError`` (CLI exit
2) before any step.  m = 1e-200 has plasma units (hbar' = 1e100): its mode 1
oscillates at ~7e49 omega_p, so ``qfluid fluid`` stops on its steepening
limit (exit 3).

Stability note: at every wavenumber the closure has a non-oscillatory
companion pair +-gamma(k), growing faster with k
(``dispersion.companion_growth_rate``), which blows a run up from
rounding noise alone.  ``step`` damps that pair only, as
exp((L - rate P) dt/2) with P = (L^2 + omega^2) / (gamma^2 + omega^2) its
projector, which commutes with L.  ``_half_step_exponential`` forms the
rate, gamma' + 2 in 1/omega_p, at every mode above the filter's protected
band (by default every mode but k = 0).  Every +-i omega pair, the probe
mode's included, keeps its frequency and amplitude exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import dispersion
from .errors import (CFLViolationError, ConfigError, NoOscillationError,
                     NumericalError, SteepeningError, VacuumError)
from .params import PlasmaParams, nondimensional

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
# damping of the companion pair above its growth rate, in omega_p
# (_half_step_exponential)
_MARGIN = 2.0
# relative tolerance on mean(n) = n0 in solve_poisson
_MEAN_TOL = 1e-8
# a step costs at least ~0.17 ms (N = 8, numpy 2.4, shared 2-vCPU VM), so
# 2**20 steps is a run of about three minutes; the cap rejects a run length
# over a step that could never finish before the loop starts, and is the
# only limit on halving the step
_MAX_STEPS = 2**20


@dataclass(frozen=True, eq=False)
class FluidState1D:
    """Periodic field snapshot (n, u, p, Q) at time t.

    ``fields`` is one ``(4, N)`` array with rows in ``FIELDS`` order, kept
    as given (not copied); ``n``, ``u``, ``p`` and ``Q`` are read-only
    views of its rows.  ``spectrum`` is its rfft along x, shape
    (4, N/2 + 1), and ``derivatives`` the (4, N) array of the rows' x
    derivatives, irfft(i k spectrum).  The constructor computes each one
    the caller leaves out; one that is passed must be that array (``step``
    passes both for the new state).  Instances compare and hash by identity.
    """

    grid: Grid1D
    fields: np.ndarray = field(repr=False)
    t: float = 0.0
    spectrum: np.ndarray | None = field(default=None, repr=False)
    derivatives: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.fields.shape != (len(FIELDS), self.grid.n_points):
            raise ConfigError(f"fields have shape {self.fields.shape}, "
                              f"expected ({len(FIELDS)}, {self.grid.n_points})")
        if self.spectrum is None:
            object.__setattr__(self, "spectrum", np.fft.rfft(self.fields))
        if self.derivatives is None:
            # i k spectrum can overflow for a finite spectrum near the float
            # limit; a step from the state then fails on non-finite fields
            with np.errstate(over="ignore", invalid="ignore"):
                derivatives = np.fft.irfft(1j * self.grid.k * self.spectrum, n=self.grid.n_points)
            object.__setattr__(self, "derivatives", derivatives)

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


def _plasma_units(params: PlasmaParams,
                  grid: Grid1D) -> tuple[PlasmaParams, tuple[float, float, float, float]]:
    """``params`` in plasma units, and the scales of the rows (n, u, p, Q).

    Plasma units set n0 = m = e = eps0 = kB = 1 and measure time in
    1/omega_p, keeping the length unit, so the hierarchy keeps two
    parameters, hbar' = hbar / (m omega_p) and T' = kB T0_par / (m omega_p^2),
    both areas: the result is ``nondimensional(hbar=hbar', T0_par=T')``.
    A row in the caller's units is its scale, (n0, omega_p, e^2 n0^2 / eps0,
    e^2 n0^2 omega_p / eps0), times the row in plasma units.

    The one check of the parameters in this module: raises ``ConfigError``
    when a scale is not finite and positive, when hbar'^2 or 3 T', the
    coefficients of the remainder, is not finite, or when omega'^2 is not
    finite at ``grid.k[-1]``.  omega'^2 grows with k, so that bounds
    tau + eta, gamma', omega'^2 + gamma'^2 and the half-step exponential.
    """
    wp = params.omega_p
    en = params.e * params.n0
    pressure = en * en / params.eps0
    scales = (params.n0, wp, pressure, pressure * wp)
    hbar, T0_par = params.hbar / params.m / wp, params.kB * params.T0_par / params.m / wp / wp
    if not (all(0.0 < s < math.inf for s in scales)
            and math.isfinite(hbar * hbar) and math.isfinite(3.0 * T0_par)):
        raise ConfigError(
            f"parameters have no plasma units: row scales (n0, omega_p, e^2 n0^2/eps0, "
            f"e^2 n0^2 omega_p/eps0) = {scales!r} must be finite and positive, and "
            f"hbar/(m omega_p) = {hbar!r} and kB T0_par/(m omega_p^2) = {T0_par!r} "
            f"must be finite when squared and tripled")
    unit = nondimensional(hbar=hbar, T0_par=T0_par)
    k = float(grid.k[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        top = float(dispersion.general_omega_sq(k, unit))
    if not math.isfinite(top):
        raise ConfigError(
            f"omega^2 in plasma units is not finite at k = {k!r}, the top wavenumber of "
            f"{grid.n_points} points on a domain of length {grid.length!r}")
    return unit, scales


def _require_plasma_units(params: PlasmaParams) -> None:
    """``ConfigError`` unless n0 = m = e = eps0 = kB = 1, the units the
    stepping kernels work in (``_plasma_units``)."""
    if (params.n0, params.m, params.e, params.eps0, params.kB) != (1.0, 1.0, 1.0, 1.0, 1.0):
        raise ConfigError(
            "step, rhs and auto_dt take parameters in plasma units (n0 = m = e = eps0 = kB = 1, "
            f"t in 1/omega_p); evolve maps any other parameters, got {params!r}")


def _linear_operator(grid: Grid1D, params: PlasmaParams) -> np.ndarray:
    """Per-mode matrix L(k) of the hierarchy linearised about the uniform state.

    In plasma units (``_require_plasma_units``) the state is (1, u = 0,
    p0 = T0_par, Q = 0); rows and columns follow ``FIELDS`` and the last
    axis runs over ``grid.k``, so the shape is (4, 4, N/2 + 1).  L is zero
    at k = 0 and above the 2/3 cut, where ``rhs`` keeps no linear term
    either.  Its eigenvalues are +-i omega(k)
    (``dispersion.general_omega_sq``) and +-gamma(k)
    (``dispersion.companion_growth_rate``).
    """
    _require_plasma_units(params)
    k = np.where(grid.dealias_mask, grid.k, 0.0)
    ik = 1j * k
    p0 = params.T0_par
    L = np.zeros((len(FIELDS), len(FIELDS), len(k)), dtype=complex)
    L[0, 1] = -ik
    # dphi/dx = -i n / k from the potential solve
    L[1, 0] = -1j * np.divide(1.0, k, out=np.zeros_like(k), where=k > 0.0)
    L[1, 2] = -ik
    L[2, 1] = -3.0 * p0 * ik
    L[2, 3] = -ik
    L[3, 0] = -(params.hbar * params.hbar) * ik / 4.0
    L[3, 2] = 3.0 * p0 * ik
    return L


def _apply(op: np.ndarray, spec: np.ndarray) -> np.ndarray:
    """Per-mode product op(k) @ spec(k) of a (4, 4, K) operator and a (4, K) spectrum."""
    return (op * spec).sum(axis=1)


# the products w_j D_l of w = (dn, u, dp, Q) and the rows' x derivatives D
# that the nonlinear remainder is made of, as (j, l); the last two enter
# over n
_PAIRS = ((1, 0), (1, 1), (1, 2), (1, 3), (0, 1), (2, 1), (3, 1), (0, 0), (0, 2), (2, 2))


class _Remainder(NamedTuple):
    """Per-(grid, params) constants of ``_nonlinear`` (``_remainder_coefficients``)."""

    left: np.ndarray         # j of each pair in _PAIRS
    right: np.ndarray        # l of each pair
    uniform: np.ndarray      # (10, N): row j of (1, 0, p0, 0) for each pair
    products: np.ndarray     # (4, 10): the rows of N from the pairs
    ik: np.ndarray           # (4, N/2 + 1): i k on every row
    cut: int                 # first mode above the 2/3 rule


@lru_cache(maxsize=1)
def _remainder_coefficients(grid: Grid1D, params: PlasmaParams) -> _Remainder:
    """The constants of ``_nonlinear``, built once per (grid, params) in plasma units."""
    _require_plasma_units(params)
    p0 = params.T0_par
    quantum = params.hbar * params.hbar / 4.0
    # the rows of N as coefficients of the pairs; the terms over n are
    # -dp/dx (1/n - 1) and (3 p/n - 3 p0) dp/dx, and the quantum term uses
    # d3phi/dx3 = dn/dx, exact given the potential
    rows = [
        {(1, 0): -1.0, (0, 1): -1.0},                    # -(u dn/dx + dn du/dx)
        {(1, 1): -1.0, (0, 2): 1.0},                     # -u du/dx + dn dp/dx / n
        {(1, 2): -1.0, (2, 1): -3.0},                    # -(u dp/dx + 3 dp du/dx)
        {(1, 3): -1.0, (3, 1): -4.0, (0, 0): -quantum,   # -(u dQ/dx + 4 Q du/dx + quantum dn dn/dx)
         (0, 2): -3.0 * p0, (2, 2): 3.0},                # + 3 (dp - p0 dn) dp/dx / n
    ]
    products = np.array([[row.get(pair, 0.0) for pair in _PAIRS] for row in rows])
    left, right = np.array(_PAIRS).T
    return _Remainder(
        left=left, right=right,
        uniform=np.repeat(np.array([1.0, 0.0, p0, 0.0])[left, None], grid.n_points, axis=1),
        products=products,
        ik=np.repeat(1j * grid.k[None, :], len(FIELDS), axis=0),
        cut=int(np.count_nonzero(grid.dealias_mask)))


def _nonlinear(fields: np.ndarray, derivatives: np.ndarray, c: _Remainder,
               scale: float = 1.0) -> np.ndarray:
    """scale N(y): spectrum of the nonlinear remainder, rhs - L y, dealiased by the 2/3 rule.

    Every term is a product w_j D_l of w = fields - (1, 0, p0, 0) =
    (dn, u, dp, Q) and the rows' x derivatives D (``_PAIRS``), two of them
    over n.  One constant (4, 10) matrix (``_remainder_coefficients``,
    which writes the terms out) takes the ten products to the four rows;
    one rfft of the four rows.
    """
    pairs = fields.take(c.left, axis=0)
    pairs -= c.uniform
    pairs *= derivatives.take(c.right, axis=0)
    pairs[-2:] /= fields[0]
    spec = np.fft.rfft((scale * c.products) @ pairs)
    spec[:, c.cut:] = 0.0
    return spec


def rhs(state: FluidState1D, params: PlasmaParams) -> np.ndarray:
    """Eulerian time derivatives as a (4, N) array, rows (dn/dt, du/dt, dp/dt, dQ/dt).

    In plasma units, like ``step``: ``params`` has n0 = m = e = eps0 =
    kB = 1 (else ``ConfigError``), t is in 1/omega_p, and the state and the
    result are in those units.  The sum L y + N(y) of the linear part about
    the uniform state (``_linear_operator``) and the nonlinear remainder
    (``_nonlinear``), the same split that ``step`` integrates.  The
    potential is re-solved from the current density.  The result is
    dealiased by the 2/3 rule so band-limited states stay band-limited.
    ``state.check()`` runs first.
    """
    state.check()
    remainder = _nonlinear(state.fields, state.derivatives,
                           _remainder_coefficients(state.grid, params))
    linear = _apply(_linear_operator(state.grid, params), state.spectrum)
    return np.fft.irfft(linear + remainder, n=state.grid.n_points)


@dataclass(frozen=True)
class SpectralDamping:
    """The filter ``step`` applies to the companion pair: the modes it spares.

    Every mode above ``protect_modes`` has its pair damped at its own growth
    rate plus 2 omega_p, folded into the exponential of the linear part as
    exp((L - rate P) dt) with P the projector onto the +-gamma(k) pair
    (``_half_step_exponential``, which forms the rate), so the +-i omega
    pair is untouched; modes 0..protect_modes are not damped.  A negative
    ``protect_modes`` raises ``ConfigError``: mode 0 (the mean density)
    must not be damped.  Instances compare and hash by value.
    """

    protect_modes: int = 0

    def __post_init__(self):
        if self.protect_modes < 0:
            raise ConfigError(f"protected band must be >= 0 modes, got {self.protect_modes!r}")

    @classmethod
    def tailored(cls, grid: Grid1D, params: PlasmaParams,
                 protect_modes: int = 0) -> "SpectralDamping":
        """The filter for a run of ``params`` on ``grid``, after the scale
        check of ``_plasma_units`` (``ConfigError``)."""
        _plasma_units(params, grid)
        return cls(protect_modes)


@lru_cache(maxsize=1)
def _half_step_exponential(grid: Grid1D, params: PlasmaParams,
                           damping: SpectralDamping | None, dt: float) -> np.ndarray:
    """exp((L - rate P) dt/2) per mode, shape (4, 4, N/2 + 1), by Sylvester's formula.

    L^2 has the eigenvalues -omega^2 and gamma^2, so
    exp(L h) = C(L^2) + L S(L^2) with C and S the linear interpolants of
    cos(omega h), cosh(gamma h) and sin(omega h)/omega, sinh(gamma h)/gamma
    at those two points (sinh(gamma h)/gamma -> h as gamma -> 0).
    P = (L^2 + omega^2) / (gamma^2 + omega^2) projects onto the +-gamma
    pair and commutes with L, so the damping factor exp(-rate h) multiplies
    the cosh and sinh coefficients only, formed as exp((gamma - rate) h) so
    a filtered mode never overflows.  Where L = 0 (k = 0 and above the 2/3
    cut) P is the identity.  The rate, in 1/omega_p, is gamma'(k) + 2 at
    every mode above ``damping.protect_modes`` and 0 at the others, or 0
    without ``damping``; gamma' is taken at the grid's own k, so above the
    cut, where the exponential has gamma = 0, the rate is still
    gamma'(k) + 2.  The last result is cached, keyed on (grid, params,
    damping, dt), all compared by value, so ``evolve`` computes it once per
    run and once per halving of its step, a second run with the same
    inputs not at all, and at most one (4, 4, N/2 + 1) array stays alive.
    """
    h = 0.5 * dt
    L = _linear_operator(grid, params)
    om2 = dispersion.general_omega_sq(np.where(grid.dealias_mask, grid.k, 0.0), params)
    om = np.sqrt(om2)
    gamma = dispersion.companion_growth_rate(grid.k, params)
    ga = np.where(grid.dealias_mask, gamma, 0.0)
    rates = 0.0
    if damping is not None:
        kf = grid.k_fundamental
        rates = np.where(grid.k <= damping.protect_modes * kf + 1e-12 * kf, 0.0, gamma + _MARGIN)
    c_osc, s_osc = np.cos(om * h), np.sin(om * h) / om
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


def _physical(spec: np.ndarray, grid: Grid1D, c: _Remainder) -> np.ndarray:
    """Fields and x derivatives of the spectrum ``spec``, stacked (2, 4, N), from one irfft."""
    return np.fft.irfft(np.array((spec, spec * c.ik)), n=grid.n_points)


def _guard(grid: Grid1D, fields: np.ndarray, t: float, spectrum: np.ndarray,
           derivatives: np.ndarray) -> None:
    """``FluidState1D.check`` of these arrays, run only when the cheap test,
    min(n) > 0 and a finite sum of the fields, fails; the errors are the check's."""
    if not (fields[0].min() > 0.0 and math.isfinite(fields.sum())):
        FluidState1D(grid, fields, t, spectrum, derivatives).check()


def _stage(spec: np.ndarray, t: float, scale: float, grid: Grid1D, c: _Remainder) -> np.ndarray:
    """scale N at the stage state of spectrum ``spec``, after its guard."""
    fields, derivatives = _physical(spec, grid, c)
    _guard(grid, fields, t, spec, derivatives)
    return _nonlinear(fields, derivatives, c, scale)


def _remainder_speed(state: FluidState1D, params: PlasmaParams) -> float:
    """max(|u| + |c - c0|) with c = sqrt(3 p / n) and c0 = sqrt(3 p0), p0 = T0_par,
    in plasma units."""
    _require_plasma_units(params)
    c0 = math.sqrt(3.0 * params.T0_par)
    c = np.sqrt(np.maximum(3.0 * state.p / state.n, 0.0))
    return float(np.max(np.abs(state.u) + np.abs(c - c0)))


def auto_dt(state: FluidState1D, params: PlasmaParams) -> float:
    """Largest step ``step`` accepts: the advective and plasma-period bounds.

    In plasma units, like ``step`` (``ConfigError`` for other
    parameters): dt <= 0.4 dx / max(|u| + |c - c0|) and dt <= 0.4, a
    fraction of 1/omega_p, with the local sound speed c = sqrt(3 p / n)
    and its uniform value c0 = sqrt(3 p0), p0 = T0_par.  ``step``
    carries the linear propagation at c0 and the linear oscillations,
    however fast at high k, exactly, so they set no bound: only the flow
    and the departure of c from c0, the speeds of the nonlinear
    remainder, do.  At T0_par = 0 this is the full speed |u| + c.
    """
    speed = _remainder_speed(state, params)
    dt_adv = _SAFETY * state.grid.dx / speed if speed > 0 else math.inf
    return min(dt_adv, _SAFETY)


def _cfl_error(dt: float, limit: float) -> CFLViolationError:
    """``step``'s rejection of ``dt`` above the bound ``limit``, which it suggests."""
    return CFLViolationError(f"dt = {dt:.6g} exceeds stability bound {limit:.6g}; "
                             f"suggested dt = {limit:.6g}", suggested_dt=limit)


def step(state: FluidState1D, dt: float, params: PlasmaParams,
         damping: SpectralDamping | None = None) -> FluidState1D:
    """Advance one Lawson (integrating-factor) RK4 step on the spectrum.

    Every argument is in plasma units: ``params`` has n0 = m = e = eps0 =
    kB = 1, and t and ``dt`` are in 1/omega_p (``evolve`` maps a run
    into them).  With E = exp((L - rate P) dt/2) from
    ``_half_step_exponential``, which forms the rate of ``damping``, and
    the nonlinear remainder N (``_nonlinear``, Poisson re-solved per
    stage):

        k1 = N(y)
        k2 = N(E (y + dt/2 k1))
        k3 = N(E y + dt/2 k2)
        k4 = N(E (E y + dt k3))
        y' = E (E y + dt/6 (E k1 + 2 k2 + 2 k3)) + dt/6 k4,

    so the linear part, filter included, is integrated exactly.  Eight
    FFT calls, each batched: per stage one rfft of the remainder, and per
    later stage and for the new state one irfft of the (2, 4, N/2 + 1)
    stack of the spectrum and its i k multiple, which gives the fields and
    their derivatives at once.  The first stage reads the state's
    ``fields`` and ``derivatives``, and the new state keeps its own for
    the next step.  Each stage state and the new state pass a guard,
    min(n) > 0 and a finite sum of the fields, and run
    ``FluidState1D.check`` when it trips, so its errors are raised.

    Raises ``CFLViolationError`` (with a suggested dt) when the requested
    step exceeds ``auto_dt`` for the current state, and ``ConfigError``
    for parameters that are not in plasma units.
    """
    limit = auto_dt(state, params)
    if dt > limit * (1.0 + 1e-12):
        raise _cfl_error(dt, limit)

    g, t = state.grid, state.t
    c = _remainder_coefficients(g, params)
    E = _half_step_exponential(g, params, damping, dt)
    h = 0.5 * dt

    # each stage's N enters scaled, a_i = s_i k_i with s = (h, h, dt, dt/6)
    _guard(g, state.fields, t, state.spectrum, state.derivatives)
    a1 = _nonlinear(state.fields, state.derivatives, c, h)
    Ey, Ea1 = _apply(E, state.spectrum), _apply(E, a1)
    a2 = _stage(Ey + Ea1, t + h, h, g, c)
    a3 = _stage(Ey + a2, t + h, dt, g, c)
    a4 = _stage(_apply(E, Ey + a3), t + dt, dt / 6.0, g, c)
    # E y + dt/6 (E k1 + 2 k2 + 2 k3) = E y + (E a1 + 2 a2 + a3) / 3
    a2 += a2
    a2 += Ea1
    a2 += a3
    a2 *= 1.0 / 3.0
    a2 += Ey
    spec = _apply(E, a2)
    spec += a4
    fields, derivatives = _physical(spec, g, c)
    _guard(g, fields, t + dt, spec, derivatives)
    return FluidState1D(g, fields, t + dt, spec, derivatives)


@dataclass
class FluidRun:
    """Probe time series from ``evolve``: complex fundamental-mode
    coefficients per field plus bulk diagnostics, and the steps taken.

    ``dt_bound`` names what set the initial step: ``"advective"`` or
    ``"plasma"`` (the smaller bound of ``auto_dt`` at the initial state)
    or ``"user"`` (``dt`` was given).  ``n_halvings`` counts the times an
    automatic step was halved because the state outgrew its bound (each
    halving doubles the steps left, and the total stays within 2**20),
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

    Everything ``evolve`` takes and returns is in the caller's units.  It
    maps the run once to plasma units (``_plasma_units``: n0 = m = e =
    eps0 = kB = 1, t in 1/omega_p, the length unit kept): the initial
    state's rows over their scales, t_end and a given ``dt`` times omega_p
    (``damping`` names modes and needs no map).  It steps there, and maps
    the ``FluidRun`` (t, dt, the probe coefficients, mass, the final state),
    the numbers in its own errors and a suggested dt back.  A vacuum or
    non-finite error raised inside a step names its t in 1/omega_p.

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
    at t_end.  The step halves while the run's total, the steps taken
    plus twice the steps left, stays within 2**20; nothing else limits
    it.  A given ``dt`` is never halved.  Past the cap, or at once for a
    given ``dt``, a rejection after the first step raises
    ``CFLViolationError`` naming t and the growth of max(|u| + |c - c0|)
    since the start: the wave is steepening or growing, so no step size
    is suggested.  A given ``dt`` rejected at the first step keeps
    ``step``'s error, with its suggested dt.

    Raises ``ConfigError`` unless t_end > 0, dt > 0 (when given),
    sample_every >= 1, 0 <= probe_mode <= N/2, steepening_limit is None
    or finite and > 0, the parameters pass the scale check on the state's
    grid (``_plasma_units``) and the run takes at most 2**20 steps, and
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
    unit, scales = _plasma_units(params, g)
    wp, rows = scales[1], np.array(scales)[:, None]
    state.check()
    with np.errstate(over="ignore"):
        fields, spectrum, derivatives = (a / rows for a in
                                         (state.fields, state.spectrum, state.derivatives))
    if not all(np.isfinite(a).all() for a in (fields, spectrum, derivatives)):
        raise ConfigError(f"the initial state is not finite in plasma units, "
                          f"with row scales (n, u, p, Q) = {scales!r}")
    state = FluidState1D(g, fields, state.t * wp, spectrum, derivatives)
    if dt is None:
        limit = auto_dt(state, unit)
        dt_bound = "plasma" if limit == _SAFETY else "advective"
        # stay below the instantaneous bound so mild nonlinear drift of
        # the state does not trip the per-step CFL check
        dt, cap = 0.75 * limit, _MAX_STEPS
    else:
        dt, dt_bound, cap = dt * wp, "user", 0  # a given dt never halves
    left = _step_count(t_end * wp, dt)
    if left > _MAX_STEPS:
        raise ConfigError(f"a run of length {t_end!r} at dt = {dt / wp!r} needs more than "
                          f"the {_MAX_STEPS}-step limit")
    dt = t_end * wp / left

    norms = [2.0 / g.n_points * s for s in scales]
    times, mass = [], []
    coeffs: dict[str, list[complex]] = {f: [] for f in FIELDS}

    def record(s: FluidState1D):
        times.append(s.t)
        mass.append(float(s.fields[0].sum() / g.n_points))  # bitwise np.mean(s.n)
        for name, c, norm in zip(FIELDS, s.spectrum[:, probe_mode].tolist(), norms):
            coeffs[name].append(c * norm)

    record(state)
    initial = state
    stride, since, taken, halvings = sample_every, 0, 0, 0
    while left:
        try:
            state = step(state, dt, unit, damping=damping)
        except CFLViolationError as exc:
            if taken + 2 * left > cap:
                if not taken:
                    raise _cfl_error(dt / wp, exc.suggested_dt / wp) from None
                raise CFLViolationError(
                    f"dt = {dt / wp:.6g} exceeds stability bound {exc.suggested_dt / wp:.6g} "
                    f"at t = {state.t / wp:.6g}: max(|u| + |c - c0|) grew from "
                    f"{_remainder_speed(initial, unit) * wp:.6g} at t = {initial.t / wp:.6g} "
                    f"to {_remainder_speed(state, unit) * wp:.6g}; "
                    f"the wave is steepening or growing", suggested_dt=None) from None
            dt, left, stride, since = 0.5 * dt, 2 * left, 2 * stride, 2 * since
            halvings += 1
            continue
        except NumericalError as exc:
            if wp != 1.0:
                exc.args = (f"{exc} (t in units of 1/omega_p, omega_p = {wp:.6g})",)
            raise
        left, since, taken = left - 1, since + 1, taken + 1
        if steepening_limit is not None:
            if float(np.max(np.abs(state.derivatives[1]))) > steepening_limit:
                raise SteepeningError(
                    f"velocity gradient exceeded {steepening_limit} omega_p "
                    f"at t = {state.t / wp:.6g}; smooth-wave regime left")
        if since == stride or not left:
            record(state)
            since = 0

    return FluidRun(
        t=np.asarray(times) / wp,
        mode={k: np.asarray(v) for k, v in coeffs.items()},
        mass=np.asarray(mass) * scales[0],
        final=FluidState1D(g, state.fields * rows, state.t / wp, state.spectrum * rows,
                           state.derivatives * rows),
        n_steps=taken, dt=dt / wp, dt_bound=dt_bound, n_halvings=halvings)


def _mode_units(grid: Grid1D, params: PlasmaParams, mode: int, amplitude: float = 0.0
                ) -> tuple[PlasmaParams, tuple[float, float, float, float], float, float]:
    """``_plasma_units(params, grid)``, k = mode 2pi/L and omega' at k.

    ``ConfigError`` unless ``amplitude`` is finite and 1 <= mode <= the
    last mode the 2/3 rule keeps: mode 0 would shift the mean density,
    which the zero-mean Poisson solve cannot balance, and the filter damps
    a mode above the cut whole (L = 0 there).
    """
    top = int(np.count_nonzero(grid.dealias_mask)) - 1
    if not 1 <= mode <= top:
        raise ConfigError(f"mode must lie in [1, {top}], the modes the 2/3 rule keeps on a "
                          f"{grid.n_points}-point grid, got {mode!r}")
    if not math.isfinite(amplitude):
        raise ConfigError(f"perturbation amplitude must be finite, got {amplitude!r}")
    unit, scales = _plasma_units(params, grid)
    k = mode * grid.k_fundamental
    return unit, scales, k, math.sqrt(float(dispersion.general_omega_sq(k, unit)))


def _initial_state(grid: Grid1D, unit: PlasmaParams, scales: tuple[float, ...], k: float,
                   rows: list[float], amplitude: float, params: PlasmaParams) -> FluidState1D:
    """(1, 0, T', 0) + ``rows`` cos(k x) in plasma units, times the row scales;
    ``ConfigError`` naming the first row whose values or spectrum are not
    finite, and the parameters."""
    with np.errstate(over="ignore", invalid="ignore"):
        fields = np.array([[1.0], [0.0], [unit.T0_par], [0.0]]) + np.outer(rows, np.cos(k * grid.x))
        fields *= np.array(scales)[:, None]
        spectrum = np.fft.rfft(fields)
    finite = np.isfinite(spectrum).all(axis=1)
    if not finite.all():
        raise ConfigError(f"perturbation amplitude {amplitude!r} makes the initial "
                          f"{FIELDS[int(np.argmin(finite))]} row or its spectrum overflow "
                          f"at {params}")
    return FluidState1D(grid, fields, spectrum=spectrum)


def perturbed_state(grid: Grid1D, params: PlasmaParams, mode: int, amplitude: float,
                    fields: tuple[str, ...] = ("n",)) -> FluidState1D:
    """Equilibrium plus ``amplitude`` cos(k x), k = mode 2pi/L, on the named fields.

    Built in plasma units and scaled once to the caller's units, so the n,
    u, p and Q perturbations are ``amplitude`` times the row scales n0,
    omega_p, e^2 n0^2 / eps0 and e^2 n0^2 omega_p / eps0 (``_plasma_units``).
    Raises ``ConfigError`` for an unknown field, a mode, amplitude or
    parameters that ``_mode_units`` refuses, and an amplitude that makes a
    row or its spectrum overflow.
    """
    for name in fields:
        if name not in FIELDS:
            raise ConfigError(f"unknown field {name!r} in perturbation spec")
    unit, scales, k, _ = _mode_units(grid, params, mode, amplitude)
    rows = [amplitude if name in fields else 0.0 for name in FIELDS]
    return _initial_state(grid, unit, scales, k, rows, amplitude, params)


def mode_frequency(grid: Grid1D, params: PlasmaParams, mode: int) -> float:
    """omega of the general relation at k = mode 2pi/L, as omega' omega_p with
    omega' in plasma units; ``ConfigError`` for a mode or parameters that
    ``_mode_units`` refuses."""
    _, scales, _, om = _mode_units(grid, params, mode)
    return om * scales[1]


def eigenmode_state(grid: Grid1D, params: PlasmaParams, mode: int,
                    amplitude: float) -> FluidState1D:
    """Rightward-traveling linear eigenmode of the oscillatory branch.

    Built from the linearized system in plasma units (n0 = omega_p = 1,
    p0 = T') at k = mode 2pi/L, with omega' from the general relation, and
    scaled once to the caller's units by the row scales (``_plasma_units``):

        n1 = A,  u1 = omega' A / k,
        p1 = (omega'^2 - 1) u1 / (omega' k),
        Q1 = (omega' p1 - 3 T' k u1) / k.

    ``amplitude`` A is the relative density perturbation.  Raises
    ``ConfigError`` for a mode, amplitude or parameters that ``_mode_units``
    refuses, and an amplitude that makes a row or its spectrum overflow.
    """
    unit, scales, k, om = _mode_units(grid, params, mode, amplitude)
    u1 = om * amplitude / k
    p1 = (om * om - 1.0) * u1 / (om * k)
    Q1 = (om * p1 - 3.0 * unit.T0_par * k * u1) / k
    return _initial_state(grid, unit, scales, k, [amplitude, u1, p1, Q1], amplitude, params)


def measure_frequency(t: np.ndarray, y: np.ndarray) -> float:
    """Dominant angular frequency of a sampled oscillation.

    Zero-crossing times (linearly interpolated) are fitted against their
    index, which averages out sampling jitter.  Requires a uniform time
    grid covering at least ~4 periods: fewer than 8 zero crossings raise
    ``NoOscillationError``.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.ndim != 1 or t.shape != y.shape or len(t) < 8:
        raise ConfigError("need matching 1D arrays with at least 8 samples")
    dts = np.diff(t)
    if not dts[0] > 0.0 or np.max(np.abs(dts - dts[0])) > 1e-9 * dts[0]:
        raise ConfigError("time samples must be uniform and increasing")

    y0 = y - np.mean(y)
    scale = float(np.max(np.abs(y0)))
    if scale <= 1e-13 * max(float(np.max(np.abs(y))), 1e-300):
        raise NoOscillationError("signal is flat; no oscillation to measure")
    s = np.where(y0 >= 0.0, 1.0, -1.0)
    idx = np.nonzero(s[:-1] * s[1:] < 0.0)[0]
    if len(idx) < 8:
        raise NoOscillationError(f"{len(idx)} zero crossings; need 8 (about 4 periods)")
    tc = t[idx] - y0[idx] * (t[idx + 1] - t[idx]) / (y0[idx + 1] - y0[idx])
    half_period = np.polynomial.polynomial.polyfit(np.arange(len(tc), dtype=float), tc, 1)[1]
    return math.pi / half_period
