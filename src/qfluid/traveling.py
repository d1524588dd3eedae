"""Traveling-wave reduction of the 1D moment system.

In the wave frame xi = x - v t the system becomes five first-order ODEs
for (u, p, Q, phi, psi = phi').  The continuity equation integrates to
n (u - v) = n0 u0 = const, so the density is a derived quantity and the
constraint holds identically along any trajectory.  Eliminating phi'''
through phi''' = (e/eps0) n' = -(e/eps0) n u' / (u - v) leaves a linear
3x3 system for (u', p', Q'):

    [ u-v              1/(m n)      0   ] [u']   [ (e/m) psi ]
    [ 3p               u-v          1   ] [p'] = [ 0         ]
    [ 4Q - Hq/(u-v)   -3p/(m n)    u-v  ] [Q']   [ 0         ],

    Hq = e^2 hbar^2 n^2 / (4 m^2 eps0),

with determinant (u-v)^3 + 4Q/(m n) - Hq/(m n (u-v)).  At the equilibrium
u = u0 + v, p = p0, Q = 0 the determinant is u0^3 (1 - H^2/4) with
H = hbar wp / (m u0^2): the system is singular exactly at H = 2, the
equilibrium is a center (bounded oscillations) for H < 2 and a saddle
for H > 2.

The module solves the system and the equilibrium spectrum in closed form.
With w = u - v, A = 1/(m n), c = 4Q - Hq/w and d = -3p A, Cramer's rule
gives

    (u', p', Q') = ((e/m) psi / det) (w^2 - d, c - 3p w, 3p d - w c),
    det = w^3 + c A.

``traveling_rhs`` is the one home of this arithmetic: it evaluates the
continuity integral and Cramer's rule inline on Python floats, from nine
constants computed once per ``WaveFrameConfig``.

At the fixed point psi = 0, so the 5x5 Jacobian is nonzero only in its
psi column and at J[psi', u] = -(e/eps0) n0/u0; its characteristic
polynomial is lambda^3 (lambda^2 - J[u', psi] J[psi', u]), and
J[u', psi] is u' at the fixed point with psi set to 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError, SonicSingularityError
from .ode import OdeResult, integrate_adaptive
from .params import PlasmaParams, nondimensional

__all__ = [
    "WaveFrameConfig",
    "TravelingState",
    "wave_frame_config",
    "traveling_rhs",
    "equilibrium_state",
    "reference_oscillation_state",
    "integrate",
    "Trajectory",
    "equilibrium_eigenvalues",
    "classify_equilibrium",
    "stability_threshold",
]

_DET_RTOL = 1e-12
_EPS_SONIC = 1e-9   # on |u - v|, in units of |u0|
_STABLE_TOL = 1e-8  # on max Re(lambda), in units of wp/|u0|
# every sample interval costs at least one accepted step (~25 us), so
# 2**20 samples is already a run of half a minute; the cap rejects a
# huge count before its sample arrays are allocated
_MAX_SAMPLES = 2**20


@dataclass(frozen=True)
class WaveFrameConfig:
    """Frame speed v (finite), reference velocity u0 (0 < u0^2 < inf), and
    plasma parameters."""

    v: float
    u0: float
    params: PlasmaParams

    def __post_init__(self):
        if not 0.0 < self.u0 * self.u0 < math.inf:
            raise ConfigError(f"reference velocity u0 needs 0 < u0^2 < inf, got {self.u0!r}")
        if not math.isfinite(self.v):
            raise ConfigError(f"frame speed v must be finite, got {self.v!r}")

    @property
    def H(self) -> float:
        """Quantum parameter hbar wp / (m u0^2)."""
        p = self.params
        return p.hbar * p.omega_p / (p.m * self.u0**2)

    @cached_property
    def _rhs_constants(self) -> tuple[float, ...]:
        """(v, n0, n0 u0, sonic threshold on |u - v|, m, (e hbar)^2,
        4 m^2 eps0, e/m, e/eps0) for ``traveling_rhs``."""
        p = self.params
        eh = p.e * p.hbar
        return (self.v, p.n0, p.n0 * self.u0, _EPS_SONIC * abs(self.u0), p.m, eh * eh,
                4.0 * (p.m * p.m) * p.eps0, p.e / p.m, p.e / p.eps0)


@dataclass(frozen=True)
class TravelingState:
    """Wave-frame state (u, p, Q, phi, psi = phi') at position xi."""

    xi: float
    u: float
    p: float
    Q: float
    phi: float
    psi: float

    def vector(self) -> np.ndarray:
        return np.array([self.u, self.p, self.Q, self.phi, self.psi])


def wave_frame_config(H: float, u0: float = 1.0, v: float = 0.0) -> WaveFrameConfig:
    """Nondimensional wave-frame setup with a single quantum knob H.

    Uses the nondimensional preset (n0 = wp = 1); hbar is chosen so that
    hbar wp / (m u0^2) equals H exactly.
    """
    if not 0.0 <= H < math.inf:
        raise ConfigError(f"quantum parameter H must be finite and non-negative, got {H!r}")
    base = nondimensional()
    cfg = WaveFrameConfig(v=v, u0=u0, params=base)   # checks u0 and v first
    return replace(cfg, params=base.with_(hbar=H * base.m * u0**2 / base.omega_p))


def traveling_rhs(y, cfg: WaveFrameConfig) -> list[float]:
    """Derivatives [u', p', Q', phi', psi'] at state y, as a list of floats.

    ``y`` is a sequence of five numbers: a list must hold Python floats
    and is unpacked as is (the ODE driver passes one); a tuple, ndarray or
    other sequence is converted first.  The density is the exact
    continuity integral n = n0 u0 / (u - v) and (u', p', Q') come from
    Cramer's rule (module docstring), all on Python floats, so a call
    makes no ndarray.  Raises ``SonicSingularityError`` when
    |u - v| <= 1e-9 |u0|, when n <= 0, or when the 3x3 derivative matrix
    M is singular to within tolerance: |det| <= 1e-12 ||M||_inf^3, which
    includes a ||M||_inf^3 that overflows.  Powers are written as
    products: a Python float ``**`` raises ``OverflowError`` where ``*``
    gives inf.
    """
    if type(y) is not list:
        y = [float(c) for c in y]
    u, p, Q, phi, psi = y
    v, n0, flux, sonic, m, eh2, m2eps0, e_m, e_eps0 = cfg._rhs_constants
    w = u - v
    if abs(w) <= sonic:
        raise SonicSingularityError(f"frame-relative velocity vanished (u - v = {w:.3e})")
    n = flux / w
    if n <= 0.0:
        raise SonicSingularityError(f"derived density nonpositive (n = {n:.3e})")
    A = 1.0 / (m * n)
    c = 4.0 * Q - eh2 * (n * n) / m2eps0 / w
    d = -3.0 * p * A
    det = w * w * w + c * A
    norm = max(abs(w) + A, 3.0 * abs(p) + abs(w) + 1.0, abs(c) + abs(d) + abs(w))
    if abs(det) <= _DET_RTOL * (norm * norm * norm):
        raise SonicSingularityError(
            f"derivative system singular at u = {u:.9g} (det = {det:.3e})")
    b0 = e_m * psi
    return [b0 * ((w * w - d) / det), b0 * ((c - 3.0 * p * w) / det),
            b0 * ((3.0 * p * d - w * c) / det), psi, e_eps0 * (n - n0)]


def equilibrium_state(cfg: WaveFrameConfig, p0: float) -> TravelingState:
    """The fixed point u = u0 + v, p = p0, Q = 0, phi = psi = 0."""
    return TravelingState(xi=0.0, u=cfg.u0 + cfg.v, p=p0, Q=0.0, phi=0.0, psi=0.0)


def reference_oscillation_state(cfg: WaveFrameConfig,
                                density_ratio: float = 2.0 / 3.0,
                                p0_scale: float = 1.0) -> TravelingState:
    """Density-dip launch state for the oscillation runs.

    n(0) = density_ratio * n0 (so u(0) - v = u0 / density_ratio),
    p(0) = p0_scale * m n0 u0^2, Q(0) = phi(0) = phi'(0) = 0.
    """
    if not (0.0 < density_ratio and math.isfinite(cfg.u0 / density_ratio)):
        raise ConfigError(f"density ratio must be positive with u0 / ratio finite, "
                          f"got {density_ratio!r}")
    if not math.isfinite(p0_scale):
        raise ConfigError(f"pressure scale must be finite, got {p0_scale!r}")
    par = cfg.params
    return TravelingState(
        xi=0.0,
        u=cfg.v + cfg.u0 / density_ratio,
        p=p0_scale * par.m * par.n0 * cfg.u0**2,
        Q=0.0, phi=0.0, psi=0.0)


@dataclass
class Trajectory:
    """Sampled wave-frame trajectory with derived density and field, the
    integrator's accepted (``n_steps``) and rejected step counts, and its
    number of ``traveling_rhs`` evaluations (``n_rhs``)."""

    xi: np.ndarray
    u: np.ndarray
    p: np.ndarray
    Q: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    n: np.ndarray
    halt_reason: str | None
    cfg: WaveFrameConfig
    n_steps: int
    n_rejected: int
    n_rhs: int

    @property
    def completed(self) -> bool:
        return self.halt_reason is None

    @property
    def E(self) -> np.ndarray:
        """Electric field E = -phi'."""
        return -self.psi


def integrate(initial: TravelingState, cfg: WaveFrameConfig, xi_max: float,
              tol: float = 1e-9, n_samples: int = 2048) -> Trajectory:
    """Integrate the wave-frame system over xi in [initial.xi, xi_max].

    Adaptive embedded RK pair at relative tolerance ``tol``; on a sonic
    singularity, a step size underflow (as next to the singular set) or
    the integrator's step limit, the partial trajectory is returned with
    the halt reason.  Each rhs evaluation calls the module's
    ``traveling_rhs`` by name.
    Raises ``ConfigError`` unless initial.xi < xi_max < inf and
    1 <= n_samples <= 2**20 (and, from the integrator, 0 < tol < inf).
    """
    if not initial.xi < xi_max < math.inf:
        raise ConfigError(f"need a finite xi_max > {initial.xi!r}, got {xi_max!r}")
    if not 1 <= n_samples <= _MAX_SAMPLES:
        raise ConfigError(f"n_samples must be between 1 and the {_MAX_SAMPLES}-sample "
                          f"limit, got {n_samples!r}")
    y0 = initial.vector()
    samples = np.linspace(initial.xi, xi_max, n_samples + 1)
    atol = tol * 1e-3 * max(1.0, float(np.max(np.abs(y0))))
    res: OdeResult = integrate_adaptive(lambda xi, y: traveling_rhs(y, cfg), y0, samples,
                                        rtol=tol, atol=atol, halt_on=(SonicSingularityError,))
    u = res.y[:, 0]
    n = cfg.params.n0 * cfg.u0 / (u - cfg.v)
    return Trajectory(xi=res.x, u=u, p=res.y[:, 1], Q=res.y[:, 2],
                      phi=res.y[:, 3], psi=res.y[:, 4], n=n,
                      halt_reason=res.halt_reason, cfg=cfg,
                      n_steps=res.n_steps, n_rejected=res.n_rejected,
                      n_rhs=res.n_rhs)


def equilibrium_eigenvalues(cfg: WaveFrameConfig, p0: float | None = None) -> np.ndarray:
    """Eigenvalues of the 5x5 Jacobian at the equilibrium point.

    Closed form (module docstring): three zeros and
    +-sqrt(J[u', psi] J[psi', u]), a purely imaginary pair for H < 2 and a
    real pair for H > 2.  ``p0`` defaults to m n0 u0^2; ``ConfigError``
    unless it is finite and non-negative.
    """
    par = cfg.params
    if p0 is None:
        p0 = par.m * par.n0 * cfg.u0**2
    elif not 0.0 <= p0 < math.inf:
        raise ConfigError(f"equilibrium pressure p0 must be finite and non-negative, got {p0!r}")
    j_u_psi = traveling_rhs([cfg.u0 + cfg.v, float(p0), 0.0, 0.0, 1.0], cfg)[0]
    j_psi_u = -(par.e / par.eps0) * par.n0 / cfg.u0
    rate = cmath.sqrt(j_u_psi * j_psi_u)
    return np.array([0.0, 0.0, 0.0, rate, -rate])


def classify_equilibrium(cfg: WaveFrameConfig, p0: float | None = None) -> str:
    """"center-like" when all eigenvalue real parts are below tolerance, else "unstable"."""
    eigs = equilibrium_eigenvalues(cfg, p0)
    rate_scale = cfg.params.omega_p / abs(cfg.u0)
    return "center-like" if float(np.max(eigs.real)) < _STABLE_TOL * rate_scale else "unstable"


def stability_threshold(h_lo: float, h_hi: float, tol: float = 1e-6) -> float:
    """Bisect H for loss of stability of the ``wave_frame_config(H)`` equilibrium.

    The bracket must classify differently at its ends.  A singular Jacobian
    evaluation (the sonic point reaches the equilibrium at the threshold)
    counts as the unstable side.  Raises ``ConfigError`` unless
    -inf < h_lo < h_hi < inf and 0 < tol < inf; the bisection also ends
    when the bracket cannot be halved any further in floating point.
    """
    if not -math.inf < h_lo < h_hi < math.inf:
        raise ConfigError(f"need a finite bracket h_lo < h_hi, got [{h_lo!r}, {h_hi!r}]")
    if not 0.0 < tol < math.inf:
        raise ConfigError(f"bisection tolerance must be positive and finite, got {tol!r}")

    def is_unstable(H: float) -> bool:
        try:
            return classify_equilibrium(wave_frame_config(H)) == "unstable"
        except SonicSingularityError:
            return True

    lo_unstable, hi_unstable = is_unstable(h_lo), is_unstable(h_hi)
    if lo_unstable == hi_unstable:
        raise ConfigError(
            f"no stability change in bracket [{h_lo}, {h_hi}] "
            f"(both {'unstable' if lo_unstable else 'center-like'})")
    lo, hi = float(h_lo), float(h_hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):   # adjacent floats: the bracket is as tight as it gets
            break
        if is_unstable(mid) == hi_unstable:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
