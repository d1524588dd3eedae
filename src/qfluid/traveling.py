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
polynomial is lambda^3 (lambda^2 - J[u', psi] J[psi', u]).  J[u', psi],
u' there with psi = 1, is (e/m) (u0^2 + 3 p0/(m n0)) / (u0^3 (1 - H^2/4)),
so lambda^2 = -wp^2 (u0^2 + 3 p0/(m n0)) / (u0^4 (1 - H^2/4)) changes sign
exactly at H = 2, for every u0 and p0.
"""

from __future__ import annotations

import math
import sys
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
    "reference_oscillation_state",
    "integrate",
    "Trajectory",
    "equilibrium_eigenvalues",
    "classify_equilibrium",
    "stability_threshold",
]

_DET_RTOL = 1e-12
_EPS_SONIC = 1e-9   # on |u - v|, in units of |u0|
# the cap bounds the sample arrays (a Trajectory holds seven float64
# columns, 56 MiB at the cap) and rejects a huge count before they are
# allocated; samples inside a step are read from the interpolant, so they
# do not set the number of steps
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
    hbar wp / (m u0^2) equals H.  Raises ``ConfigError`` when u0^2 is below
    the smallest normal float, where hbar and the default p0 = m n0 u0^2
    lose digits, or when the config's H is more than 4 ulp from a positive H.
    """
    if not 0.0 <= H < math.inf:
        raise ConfigError(f"quantum parameter H must be finite and non-negative, got {H!r}")
    base = nondimensional()
    cfg = WaveFrameConfig(v=v, u0=u0, params=base)   # checks u0 and v first
    if u0 * u0 < sys.float_info.min:
        raise ConfigError(f"reference velocity u0 = {u0!r}: u0^2 is below the smallest "
                          "normal float")
    cfg = replace(cfg, params=base.with_(hbar=H * base.m * u0**2 / base.omega_p))
    if H > 0.0 and abs(cfg.H - H) > 4.0 * math.ulp(H):
        raise ConfigError(f"quantum parameter H = {H!r} at u0 = {u0!r} is held as H = {cfg.H!r}")
    return cfg


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

    def flux_drifts(self) -> tuple[float, float]:
        """Drift of the momentum and energy flux integrals over the samples.

        With n (u - v) = n0 u0 and eps0 psi' = e (n - n0) the momentum and
        energy equations integrate once, to

            I1 = m n0 u0 u + p - e n0 phi - (eps0/2) psi^2,
            I2 = (1/2) m n0 u0 u^2 + (1/2) p (u - v) + p u + (1/2) Q
                 - e n0 u0 phi - v (e n0 phi + (eps0/2) psi^2).

        Neither is built into the solver, so each drift (max - min of the
        integral, over the largest magnitude any of its terms reaches)
        measures the stepping error.  Non-finite samples, or terms that are
        all zero, give nan or inf.
        """
        par, v = self.cfg.params, self.cfg.v
        mass_flux = par.m * par.n0 * self.cfg.u0
        with np.errstate(over="ignore", invalid="ignore"):
            charge_phi = par.e * par.n0 * self.phi
            field = 0.5 * par.eps0 * self.psi * self.psi
            momentum = [mass_flux * self.u, self.p, -charge_phi, -field]
            energy = [0.5 * mass_flux * self.u * self.u, 0.5 * self.p * (self.u - v),
                      self.p * self.u, 0.5 * self.Q, -par.e * par.n0 * self.cfg.u0 * self.phi,
                      -v * (charge_phi + field)]
            drifts = [np.ptp(np.sum(terms, axis=0)) / max(np.max(np.abs(term)) for term in terms)
                      for terms in (momentum, energy)]
        return float(drifts[0]), float(drifts[1])


def integrate(initial: TravelingState, cfg: WaveFrameConfig, xi_max: float,
              tol: float = 1e-9, n_samples: int = 2048) -> Trajectory:
    """Integrate the wave-frame system over xi in [initial.xi, xi_max].

    Returns ``n_samples + 1`` equally spaced samples, the first at the
    launch and the last at xi_max, by ``ode.integrate_adaptive``'s DOP853
    pair at its ``tol``, the accuracy asked of the samples.  On a sonic
    singularity, a step size underflow (as next to the singular set) or
    the integrator's step limit, the partial trajectory is returned with
    the halt reason (a launch on the sonic point u = v gives one sample,
    of infinite density).  Each rhs evaluation calls the module's
    ``traveling_rhs`` by name.
    Raises ``ConfigError`` unless initial.xi < xi_max < inf and
    1 <= n_samples <= 2**20, and from the integrator for a tol below the
    least it names (40 machine epsilons, about 8.9e-15).
    """
    if not initial.xi < xi_max < math.inf:
        raise ConfigError(f"need a finite xi_max > {initial.xi!r}, got {xi_max!r}")
    if not 1 <= n_samples <= _MAX_SAMPLES:
        raise ConfigError(f"n_samples must be between 1 and the {_MAX_SAMPLES}-sample "
                          f"limit, got {n_samples!r}")
    y0 = initial.vector()
    samples = np.linspace(initial.xi, xi_max, n_samples + 1)
    res: OdeResult = integrate_adaptive(lambda xi, y: traveling_rhs(y, cfg), y0, samples, tol=tol)
    u = res.y[:, 0]
    # traveling_rhs accepted every sample but a launch the run halted at,
    # which may lie on the sonic point u = v: its density is infinite
    with np.errstate(divide="ignore", over="ignore"):
        n = cfg.params.n0 * cfg.u0 / (u - cfg.v)
    return Trajectory(xi=res.x, u=u, p=res.y[:, 1], Q=res.y[:, 2],
                      phi=res.y[:, 3], psi=res.y[:, 4], n=n,
                      halt_reason=res.halt_reason, cfg=cfg,
                      n_steps=res.n_steps, n_rejected=res.n_rejected,
                      n_rhs=res.n_rhs)


def equilibrium_eigenvalues(cfg: WaveFrameConfig, p0: float | None = None) -> np.ndarray:
    """Eigenvalues of the 5x5 Jacobian at the equilibrium point.

    Closed form (module docstring): three zeros and +-sqrt(lambda^2), a
    purely imaginary pair for H < 2 and a real pair for H > 2, singular
    (``SonicSingularityError``) at H = 2.  ``p0`` defaults to m n0 u0^2;
    ``ConfigError`` unless it is finite and non-negative.
    """
    par = cfg.params
    if p0 is None:
        p0 = par.m * par.n0 * cfg.u0**2
    elif not 0.0 <= p0 < math.inf:
        raise ConfigError(f"equilibrium pressure p0 must be finite and non-negative, got {p0!r}")
    margin = 1.0 - 0.5 * cfg.H   # 1 - H^2/4 = margin (1 + H/2)
    if margin == 0.0:
        raise SonicSingularityError("equilibrium on the singular set: H = 2")
    # |lambda| = wp sqrt(u0^2 + 3 p0/(m n0)) / (u0^2 sqrt|1 - H^2/4|), squaring nothing
    u0 = abs(cfg.u0)
    speed = math.hypot(u0, math.sqrt(3.0) * math.sqrt(p0 / (par.m * par.n0)))
    rate = par.omega_p * (speed / u0 / (u0 * math.sqrt(abs(margin))) / math.sqrt(1.0 + 0.5 * cfg.H))
    pair = complex(rate, 0.0) if margin < 0.0 else complex(0.0, rate)
    return np.array([0.0, 0.0, 0.0, pair, -pair])


def classify_equilibrium(cfg: WaveFrameConfig, p0: float | None = None) -> str:
    """"unstable" for H > 2, else "center-like"; raises as ``equilibrium_eigenvalues``."""
    equilibrium_eigenvalues(cfg, p0)
    return "unstable" if cfg.H > 2.0 else "center-like"


def stability_threshold(h_lo: float, h_hi: float, tol: float = 1e-6) -> float:
    """H at which the ``wave_frame_config(H)`` equilibrium loses stability: 2.

    Only the benchmark's ``wave_frame`` workload calls it; the boundary is
    in ``classify_equilibrium`` and ``qfluid tw stability``.

    ``ConfigError`` unless -inf < h_lo < h_hi < inf, 0 < tol < inf (the
    closed form has no use for tol) and 0 <= h_lo < 2 <= h_hi.
    """
    if not -math.inf < h_lo < h_hi < math.inf:
        raise ConfigError(f"need a finite bracket h_lo < h_hi, got [{h_lo!r}, {h_hi!r}]")
    if not 0.0 < tol < math.inf:
        raise ConfigError(f"threshold tolerance must be positive and finite, got {tol!r}")
    if not 0.0 <= h_lo < 2.0 <= h_hi:
        raise ConfigError(f"no stability change in bracket [{h_lo}, {h_hi}] (it is at H = 2)")
    return 2.0
