"""Free-particle Wigner evolution and the phase-space transform.

The module works in units with hbar = m = 1; positions, velocities and
times are in those units and the packet width sigma stays a parameter.
A free Gaussian wave packet of initial width sigma spreads dispersively,
yet its Wigner function does not spread at fixed velocity: in the
rescaled variables

    x_bar = x / sigma,  v_bar = v sigma,  t_bar = t / sigma^2,

the rescaled distribution f_bar = pi f is exactly

    f_bar(x_bar, v_bar, t_bar) = exp[-(x_bar - v_bar t_bar)^2 - v_bar^2],

pure shear transport of the initial Gaussian.  This module provides the
closed form, the exact analytic packet evolution

    psi(x, t) = (pi sigma^2)^(-1/4) (1 + i t_bar)^(-1/2)
                * exp[-x^2 / (2 sigma^2 (1 + i t_bar))],

and a numerical transform

    f(x, v) = (1 / 2 pi) int ds exp(i v s) psi*(x + s/2) psi(x - s/2)

evaluated by direct quadrature on a symmetric s grid with arbitrary output
positions and velocities.  The grid is sized from the data:
it spans |s| <= hi - lo, the width of the support [lo, hi] on which |psi|
is above 1e-13 of its peak, and its spacing resolves the integrand's band
in s, at most k_c + |v| with k_c the largest wavenumber at which |fft(psi)|
is above 1e-13 of its peak; the trapezoid rule on a decaying, band-limited
integrand is exact to rounding once 2 pi / ds exceeds that band.

The integrand G(x, s) = psi*(x + s/2) psi(x - s/2) is Hermitian,
G(x, -s) = conj G(x, s), which is why f is real; the sum is therefore
folded onto s >= 0,

    f = (ds / 2 pi) [G(x, 0) + 2 sum_{s > 0} (cos(v s) Re G - sin(v s) Im G)],

which evaluates G on half the nodes and replaces one complex matrix
product by two real ones.  A wavefunction is defined by its amplitude
function, so the half-shifted samples psi(x +- s/2) are evaluated exactly.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

__all__ = [
    "WavefunctionGrid",
    "WignerTable",
    "analytic_wigner",
    "gaussian_packet",
    "evolve_free_gaussian",
    "wigner_transform",
]

_NORM_TOL = 1e-8
_BOUNDARY_DECAY = 1e-10
# ceiling on the transform's workspace: the folded G (complex, (n_s/2) x
# len(x)), the cosine and sine of the phase (len(v) x n_s/2 each) and the
# three len(v) x len(x) products alive at once in the fold
_MAX_WORKSPACE_MIB = 256


def analytic_wigner(x_bar, v_bar, t_bar):
    """Closed-form rescaled Wigner function exp[-(x_bar - v_bar t_bar)^2 - v_bar^2]."""
    x_bar = np.asarray(x_bar, dtype=float)
    v_bar = np.asarray(v_bar, dtype=float)
    return np.exp(-((x_bar - v_bar * t_bar) ** 2) - v_bar**2)


def gaussian_packet(x, t: float, sigma: float = 1.0) -> np.ndarray:
    """Exact free evolution of the width-sigma Gaussian initial state."""
    x = np.asarray(x, dtype=float)
    t_bar = t / sigma**2
    z = 1.0 + 1j * t_bar
    return (np.pi * sigma**2) ** (-0.25) / np.sqrt(z) * np.exp(-(x**2) / (2.0 * sigma**2 * z))


@dataclass(frozen=True)
class WavefunctionGrid:
    """An amplitude function and its samples on a uniform position grid.

    ``psi = amplitude_fn(x)`` is evaluated once, here; the transform
    evaluates ``amplitude_fn`` again at the half-shifted positions.  psi
    must hold one finite number per grid point, and its discrete norm
    sum |psi|^2 dx must equal 1 to within 1e-8.
    """

    x: np.ndarray
    amplitude_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False)
    psi: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.x.ndim != 1 or self.x.size < 2:
            raise ConfigError("position grid must be a 1D array of at least 2 points")
        psi = np.asarray(self.amplitude_fn(self.x))
        if psi.shape != self.x.shape or psi.dtype.kind not in "iufc" or not np.all(np.isfinite(psi)):
            raise ConfigError(f"amplitude_fn(x) must give {self.x.size} finite numbers, "
                              f"one per grid point; got shape {psi.shape}, dtype {psi.dtype}")
        object.__setattr__(self, "psi", psi)
        dxs = np.diff(self.x)
        if not np.allclose(dxs, dxs[0], rtol=1e-12, atol=0.0):
            raise ConfigError("position grid must be uniform")
        norm = float(np.sum(np.abs(psi) ** 2) * dxs[0])
        if abs(norm - 1.0) > _NORM_TOL:
            raise ConfigError(f"wavefunction not normalized on the grid (sum = {norm:.10f})")

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])


def evolve_free_gaussian(sigma: float, t: float, x_max: float,
                         n_points: int = 256) -> WavefunctionGrid:
    """Exactly evolved Gaussian packet on a symmetric grid [-x_max, x_max].

    The grid must be wide enough that the boundary amplitude is below
    1e-10 of the peak at the requested time, and fine enough that its step
    is at most the packet width sigma sqrt(1 + t_bar^2); the packet
    standard deviation grows like sigma sqrt(1 + t_bar^2) / sqrt(2).
    """
    if not 0.0 <= t < math.inf:
        raise ConfigError(f"time must be finite and non-negative, got {t!r}")
    if n_points < 2:
        raise ConfigError(f"wavefunction grid needs at least 2 points, got {n_points}")
    if not (0.0 < sigma < math.inf and 0.0 < x_max and x_max * x_max < math.inf):
        raise ConfigError(f"sigma and x_max must be finite and positive, with x_max**2 "
                          f"finite, got sigma = {sigma!r}, x_max = {x_max!r}")
    # |psi| ~ exp(-x^2 / (2 width^2)); checked before psi is evaluated
    width = sigma * math.hypot(1.0, t / sigma**2)
    dx = 2.0 * x_max / (n_points - 1)
    if dx > width:
        raise ConfigError(f"grid step {dx:.3g} exceeds the packet width {width:.3g} "
                          f"at t = {t:g}: use more points or a smaller x_max")
    edge = math.exp(-0.5 * (x_max / width) * (x_max / width))  # |psi(+-x_max)| / |psi(0)|
    if edge > _BOUNDARY_DECAY:
        raise ConfigError(
            f"grid too narrow for t = {t:g}: boundary amplitude {edge:.2e} "
            f"of peak exceeds {_BOUNDARY_DECAY:g}")
    return WavefunctionGrid(x=np.linspace(-x_max, x_max, n_points),
                            amplitude_fn=lambda xx: gaussian_packet(xx, t, sigma))


@dataclass
class WignerTable:
    """Tabulated transform f on an (x, v) product grid (raw; f_bar = pi f)."""

    x: np.ndarray
    v: np.ndarray
    f: np.ndarray              # shape (len(v), len(x))


def _coherence_width(psi_grid: WavefunctionGrid) -> float:
    """Half-width in s beyond which |psi*(x+s/2) psi(x-s/2)| is negligible.

    That is hi - lo, where [lo, hi] holds |psi| above 1e-13 of its peak:
    beyond it x + s/2 or x - s/2 falls outside [lo, hi].
    """
    amp = np.abs(psi_grid.psi)
    peak = float(np.max(amp))
    above = np.nonzero(amp > 1e-13 * peak)[0]
    lo, hi = psi_grid.x[above[0]], psi_grid.x[above[-1]]
    return float(hi - lo)


def wigner_transform(wfg: WavefunctionGrid, v: np.ndarray, x: np.ndarray) -> WignerTable:
    """Numerical phase-space transform of a wavefunction at positions x, velocities v.

    The integrand is evaluated from ``wfg.amplitude_fn`` on a dedicated s
    grid that spans the packet's support width and is spaced by its
    bandwidth; ``ConfigError`` is raised before any allocation when that
    grid's workspace would exceed 256 MiB.
    """
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise ConfigError("transform needs at least one velocity")
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ConfigError("transform needs at least one position")
    s_half = max(_coherence_width(wfg), 8.0 * wfg.dx)
    # k_c: the largest |k| at which |fft(psi)| is above 1e-13 of its peak
    spectrum = np.abs(np.fft.fft(wfg.psi))
    k = 2.0 * math.pi * np.fft.fftfreq(wfg.psi.size, wfg.dx)
    k_c = float(np.max(np.abs(k[spectrum > 1e-13 * np.max(spectrum)])))
    # resolve the fastest kernel oscillation with ~8 points per cycle, and
    # the integrand's band in s (at most k_c + |v|) with a margin of pi:
    # ds = min(0.8 / max(|v|, 1 / s_half), 2 / (k_c + |v|)), as one max
    # so that k_c = |v| = 0 does not divide by zero
    v_max = float(np.max(np.abs(v)))
    ds = 0.8 / max(v_max, 1.0 / s_half, 0.4 * (k_c + v_max))
    nodes = 2.0 * s_half / ds
    # 16 bytes per folded node and output point of G and of cos/sin(phase),
    # and 8 per (v, x) point of each of the fold's three products
    workspace_mib = (8.0 * nodes * (x.size + v.size) + 24.0 * x.size * v.size) / 2**20
    if not workspace_mib <= _MAX_WORKSPACE_MIB:
        raise ConfigError(
            f"transform for |v| up to {v_max:.4g} needs {nodes:.4g} s nodes "
            f"and a {workspace_mib:.4g} MiB workspace, above the "
            f"{_MAX_WORKSPACE_MIB} MiB limit; narrow the velocity range or the output grid")
    n_s = int(nodes) | 1  # odd: symmetric grid including s = 0
    s = np.linspace(-s_half, s_half, n_s)
    ds = s[1] - s[0]
    s = s[n_s // 2:]  # the centre node (s = 0 up to rounding) and the nodes above it
    amp = wfg.amplitude_fn
    G = np.conj(amp(x[None, :] + 0.5 * s[:, None])) * amp(x[None, :] - 0.5 * s[:, None])

    # G(x, -s) = conj G(x, s): the s = 0 row counts once and each s > 0 row
    # twice, as 2 Re(e^{i phase} G)
    phase = np.outer(v, s[1:])
    Gp = G[1:]
    f = G[0].real + 2.0 * (np.cos(phase) @ Gp.real - np.sin(phase) @ Gp.imag)
    f *= (1.0 / (2.0 * math.pi)) * ds
    return WignerTable(x=x, v=v, f=f)
