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

evaluated by direct quadrature on a symmetric s grid at arbitrary
velocities and uniform output positions.  The grid is sized from the data:
it spans |s| <= hi - lo, the width of the support [lo, hi] on which |psi|
is above 1e-13 of its peak, and its spacing resolves the integrand's band
in s, at most k_c + |v| with k_c the largest wavenumber at which |fft(psi)|
is above 1e-13 of its peak; the trapezoid rule on a decaying, band-limited
integrand is exact to rounding once 2 pi / ds exceeds that band.

The integrand G(x, s) = psi*(x + s/2) psi(x - s/2) is Hermitian,
G(x, -s) = conj G(x, s), which is why f is real; the sum is therefore
folded onto s >= 0, and, since cos(v s) is even in v and sin(v s) odd,
onto the distinct speeds |v|:

    E(|v|, x) = sum_{s > 0} cos(|v| s) Re G,  O(|v|, x) = sum_{s > 0} sin(|v| s) Im G,
    f = (ds / 2 pi) [G(x, 0) + 2 (E - sign(v) O)].

On a symmetric velocity grid that halves the phase tables and the fold's
flops, and f(x, v) = f(x, -v) holds bitwise for a real psi.  E and O are
matrix-vector products (``np.matvec``: a block of the phase table times
each row of G), not matrix products: a BLAS level-3 call wakes the BLAS
worker threads, which then spin and burn CPU after the call returns.  The
blocks hold 2^15 entries, so they stay in cache and far below the size
from which OpenBLAS threads a matrix-vector product (4.6e5 entries in the
build measured).

The output positions x must be uniform (or a single point), and the s
step is chosen so that ds / 2 = dx p / q with small integers p and q.
Then every x +- s/2 lies on one lattice of step dx / q, so the amplitude
function is evaluated exactly, once, on that lattice, and G is the product
of two strided views of it, unless the x +- s/2 themselves are fewer
(positions much closer than ds): then the function is evaluated at them.
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
    "s_grid",
    "wigner_transform",
]

_NORM_TOL = 1e-8
# ceiling on the transform's workspace: the psi lattice, the real and
# imaginary parts of the folded G, their products E and O with the phase
# tables of the distinct speeds, and the three len(v) x len(x) arrays alive
# at once in the final sum
_MAX_WORKSPACE_MIB = 256


def _uniform_step(x: np.ndarray) -> float:
    """The step of a grid of at least 2 finite points whose steps differ by
    no more than the rounding of its positions; ``ConfigError`` for a zero,
    non-finite or varying step."""
    step = (float(x[-1]) - float(x[0])) / (x.size - 1)
    with np.errstate(over="ignore"):
        steps = np.diff(x)
    rounding = 4.0 * np.finfo(float).eps * float(np.max(np.abs(x)))
    if not (0.0 < abs(step) < math.inf
            and np.allclose(steps, step, rtol=1e-12, atol=rounding)):
        raise ConfigError("position grid must be uniform")
    return step


def _lattice_ratio(r: float) -> tuple[int, int]:
    """(p, q): the largest p / q <= r with q <= 16, or 1 / ceil(1 / r) below 1/16."""
    if r < 1.0 / 16.0:
        return 1, math.ceil(1.0 / r)
    return max(((math.floor(r * q), q) for q in range(1, 17)), key=lambda pq: pq[0] / pq[1])


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

    ``psi = amplitude_fn(x)`` is evaluated once, here; each transform
    evaluates ``amplitude_fn`` once more, on its own lattice.  psi
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
        norm = float(np.sum(np.abs(psi) ** 2) * _uniform_step(self.x))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ConfigError(f"wavefunction not normalized on the grid (sum = {norm:.10f})")

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])


def evolve_free_gaussian(sigma: float, t: float) -> WavefunctionGrid:
    """Exactly evolved Gaussian packet at 1024 points on [-8 w, 8 w].

    w = sigma sqrt(1 + t_bar^2) is the packet width, |psi| ~ exp(-x^2 / (2 w^2)):
    at the edges |psi| is e^-32 ~ 1.3e-14 of its peak, below the 1e-13 that
    sizes the transform's s grid, and the step 16 w / 1023 resolves the packet.
    """
    if not 0.0 <= t < math.inf:
        raise ConfigError(f"time must be finite and non-negative, got {t!r}")
    if not (0.0 < sigma and 0.0 < sigma * sigma < math.inf):
        raise ConfigError(f"sigma must be positive, with sigma**2 non-zero and finite, "
                          f"got {sigma!r}")
    half_width = 8.0 * sigma * math.hypot(1.0, t / sigma**2)
    if not half_width * half_width < math.inf:
        raise ConfigError(f"the packet's half-width 8 w = {half_width:.4g} at t = {t:g} "
                          f"overflows when squared")
    return WavefunctionGrid(x=np.linspace(-half_width, half_width, 1024),
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


def s_grid(wfg: WavefunctionGrid, v, x) -> tuple:
    """(v, x, p, q, h, n_s, direct, speeds, row): the s grid of
    ``wigner_transform(wfg, v, x)``, after its checks: ``ConfigError``
    unless x is uniform or one point and v and x are finite, or when the
    workspace would exceed 256 MiB.  The nodes s_j = 2 p h j, |j| <= n_s,
    span the packet's support width, with h = dx / q (signed like dx) and
    p / q the largest fraction not above ds_max / (2 dx) that has q <= 16
    (p = 1 once ds_max < dx / 8), ds_max the bandwidth's step; so every
    x +- s/2 lies on one lattice of step h.  ``direct`` when the
    x_i +- s_j / 2 are fewer than its points; speeds are the distinct |v|
    and row each v's index among them.
    """
    v, x = np.asarray(v, dtype=float).ravel(), np.asarray(x, dtype=float).ravel()
    if v.size == 0 or x.size == 0:
        raise ConfigError("transform needs at least one velocity and one position")
    if not (np.isfinite(v).all() and np.isfinite(x).all()):
        raise ConfigError("transform needs finite velocities and positions")
    s_half = max(_coherence_width(wfg), 8.0 * wfg.dx)
    # k_c: the largest |k| at which |fft(psi)| is above 1e-13 of its peak
    spectrum = np.abs(np.fft.fft(wfg.psi))
    k = 2.0 * math.pi * np.fft.fftfreq(wfg.psi.size, wfg.dx)
    k_c = float(np.max(np.abs(k[spectrum > 1e-13 * np.max(spectrum)])))
    # resolve the fastest kernel oscillation with ~8 points per cycle, and
    # the integrand's band in s (at most k_c + |v|) with a margin of pi:
    # ds <= min(0.8 / max(|v|, 1 / s_half), 2 / (k_c + |v|)), as one max
    # so that k_c = |v| = 0 does not divide by zero
    v_max = float(np.max(np.abs(v)))
    ds_max = 0.8 / max(v_max, 1.0 / s_half, 0.4 * (k_c + v_max))
    dx = _uniform_step(x) if x.size > 1 else 0.5 * ds_max
    # ds / 2 = p h with lattice step h = dx / q; the ratio is clipped to
    # [2^-30, 2^30] to stay finite, which only refines ds, except from below,
    # where the lattice exceeds any workspace and the direct path is barred
    r = ds_max / (2.0 * abs(dx))
    p, q = _lattice_ratio(min(max(r, 2.0**-30), 2.0**30))
    h = dx / q
    n_pos = s_half / abs(2.0 * p * h)   # s > 0 nodes, before rounding up
    speeds, row = np.unique(np.abs(v), return_inverse=True)
    n_lat = (x.size - 1) * q + 2.0 * p * (n_pos + 1.0) + 1.0
    n_direct = x.size * (2.0 * n_pos + 1.0) if r >= 2.0**-30 else math.inf
    # 24 bytes per psi point (position and psi); 24 per output position
    # and s >= 0 node (Re G, Im G and a product); 16 per speed and position
    # (E and O), 24 per (v, x) point (the three arrays of the final sum)
    workspace_mib = (24.0 * (min(n_lat, n_direct) + x.size * (n_pos + 2.0))
                     + 16.0 * speeds.size * x.size + 24.0 * v.size * x.size) / 2**20
    if not workspace_mib <= _MAX_WORKSPACE_MIB:
        raise ConfigError(
            f"transform for |v| up to {v_max:.4g} needs {2.0 * n_pos + 1.0:.4g} s nodes "
            f"and a {workspace_mib:.4g} MiB workspace, above the "
            f"{_MAX_WORKSPACE_MIB} MiB limit; narrow the velocity range or the output grid")
    return v, x, p, q, h, math.ceil(n_pos), n_direct < n_lat, speeds, row


def wigner_transform(wfg: WavefunctionGrid, v: np.ndarray, x: np.ndarray) -> WignerTable:
    """Numerical phase-space transform of a wavefunction at positions x, velocities v.

    ``s_grid`` sets the s nodes and makes every check; ``wfg.amplitude_fn``
    is called once, on the lattice or at the x_i +- s_j / 2.  The fold sums
    over s >= 0 and the distinct speeds |v| (module docstring) by
    matrix-vector products, with no BLAS level-3 call.
    """
    v, x, p, q, h, n_s, direct, speeds, row = s_grid(wfg, v, x)
    if direct:
        # psi(x_i + s_j / 2), j = -n_s ... n_s, one row per position
        window = np.reshape(wfg.amplitude_fn(
            (x[:, None] + h * (p * np.arange(-n_s, n_s + 1))).ravel()), (x.size, -1))
    else:
        # psi at x_0 + k h, k = -p n_s ... (len(x) - 1) q + p n_s: the window
        # of every p-th point centred on x_i = x_0 + i q h holds those values
        span = p * n_s
        psi = wfg.amplitude_fn(x[0] + h * (np.arange((x.size - 1) * q + 2 * span + 1) - span))
        window = np.lib.stride_tricks.sliding_window_view(psi, 2 * span + 1)[::q, ::p]
    plus, minus = window[:, n_s:], window[:, n_s::-1]   # s_j >= 0
    re_G = plus.real * minus.real
    re_G += plus.imag * minus.imag
    im_G = plus.real * minus.imag
    im_G -= plus.imag * minus.real

    # G(x, -s) = conj G(x, s): the s = 0 column counts once and each s > 0
    # column twice; cos(v s) = cos(|v| s) and sin(v s) = sign(v) sin(|v| s)
    ds = 2.0 * p * h   # signed like dx; the weight is |ds|
    s = ds * np.arange(1, n_s + 1)
    E = np.empty((x.size, speeds.size))
    O = np.empty_like(E)
    # speeds in blocks of 2^15 phase entries (256 KiB), which stay in cache
    # while every row of G passes them; at least 2 rows, since np.matvec
    # hands a one-row block to a dot product, which OpenBLAS threads from
    # 1e4 entries on
    block = max(2, 2**15 // n_s)
    for a in range(0, speeds.size, block):
        phase = np.multiply.outer(speeds[a:a + block], s)
        E[:, a:a + block] = np.matvec(np.cos(phase), re_G[:, 1:])
        O[:, a:a + block] = np.matvec(np.sin(phase), im_G[:, 1:])
    f = re_G[:, :1] + 2.0 * (E[:, row] - np.sign(v) * O[:, row])
    f *= (1.0 / (2.0 * math.pi)) * abs(ds)
    return WignerTable(x=x, v=v, f=f.T)
