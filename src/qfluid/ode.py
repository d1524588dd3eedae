"""Adaptive embedded Runge-Kutta integration (Dormand-Prince 5(4)).

Compact single-trajectory driver used by the wave-frame module: steps are
clamped so every requested sample point is hit exactly (no dense-output
interpolation), and a caller-supplied exception class can mark points
where the right-hand side ceases to exist, in which case the driver backs
off and finally returns the partial trajectory with a halt reason.

The pair is FSAL (first same as last): the seventh stage is f at the
accepted point and becomes the first stage of the next step, so every
step attempt costs six evaluations of f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StepUnderflowError

__all__ = ["OdeResult", "integrate_adaptive"]

_C = np.array([0.0, 1/5, 3/10, 4/5, 8/9, 1.0, 1.0])
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1/5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3/40, 9/40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44/45, -56/15, 32/9, 0.0, 0.0, 0.0, 0.0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0.0, 0.0, 0.0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656, 0.0, 0.0],
    [35/384, 0.0, 500/1113, 125/192, -2187/6784, 11/84, 0.0],
])
_B4 = np.array([5179/57600, 0.0, 7571/16695, 393/640, -92097/339200, 187/2100, 1/40])
_ORDER = 5.0


@dataclass
class OdeResult:
    x: np.ndarray          # sample points actually reached
    y: np.ndarray          # states at those points, shape (len(x), dim)
    halt_reason: str | None = None
    n_steps: int = 0
    n_rejected: int = 0

    @property
    def completed(self) -> bool:
        return self.halt_reason is None


def integrate_adaptive(f, y0, x_end: float, *, x0: float = 0.0,
                       rtol: float = 1e-9, atol: float = 1e-12,
                       sample_points=None,
                       halt_on: tuple[type, ...] = ()) -> OdeResult:
    """Integrate y' = f(x, y) from x0 to x_end (x_end > x0).

    ``sample_points`` (default: 512 uniform intervals) are landed on
    exactly.  Exceptions listed in ``halt_on`` raised by ``f`` trigger
    step halving; if the step cannot be reduced further the partial
    trajectory is returned with a halt reason.  Step underflow from pure
    error control raises ``StepUnderflowError``.  Raises ``ConfigError``
    unless 0 < rtol < inf and 0 <= atol < inf.
    """
    if not x_end > x0:
        raise ConfigError(f"need x_end > x0, got [{x0}, {x_end}]")
    if not (0.0 < rtol < math.inf and 0.0 <= atol < math.inf):
        raise ConfigError(f"need 0 < rtol < inf and 0 <= atol < inf, "
                          f"got rtol = {rtol!r}, atol = {atol!r}")
    y = np.asarray(y0, dtype=float).copy()
    if sample_points is None:
        sample_points = np.linspace(x0, x_end, 513)
    samples = np.asarray(sample_points, dtype=float)
    if samples.ndim != 1 or not np.all(np.diff(samples) > 0):
        raise ConfigError("sample points must be strictly increasing")
    if abs(samples[0] - x0) > 1e-14 * max(abs(x0), 1.0):
        samples = np.concatenate(([x0], samples))
    if samples[-1] > x_end * (1.0 + 1e-14):
        raise ConfigError("sample points must not exceed x_end")

    xs = [float(samples[0])]
    ys = [y.copy()]
    x = x0
    next_sample = 1
    n_steps = n_rejected = 0
    halt = None

    def min_step(xv: float) -> float:
        return 16.0 * np.finfo(float).eps * max(abs(xv), 1.0)

    try:
        k0 = np.asarray(f(x, y), dtype=float)
    except halt_on as exc:  # singular right at the start
        return OdeResult(np.array(xs), np.array(ys), halt_reason=str(exc))
    dim = len(k0)
    span = x_end - x0
    scale0 = atol + rtol * max(float(np.max(np.abs(y))), 1e-30)
    d1 = math.sqrt(float(np.mean((k0 / scale0) ** 2)))
    h = 1e-3 / d1 if d1 > 0 else 0.01 * span
    # floor the guess: a zero initial state must not stall the controller
    h = min(max(h, 1e-8 * span, 64.0 * min_step(x0)), span)

    K = np.empty((7, dim))
    K[0] = k0
    end_tol = 1e-14 * max(abs(x_end), 1.0)
    blocked_by = None   # message of the halt exception we are backing off from
    while x < x_end - end_tol:
        target = samples[next_sample] if next_sample < len(samples) else x_end
        hit = h >= target - x
        h_try = target - x if hit else h
        if h_try < min_step(x):
            if blocked_by is not None:
                halt = blocked_by
                break
            raise StepUnderflowError(f"step size underflow at x = {x:.9g}")
        try:
            for i in range(1, 7):
                yi = y + h_try * (_A[i, :i] @ K[:i])
                K[i] = f(x + _C[i] * h_try, yi)
        except halt_on as exc:
            blocked_by = str(exc)
            h = 0.5 * h_try
            if h < min_step(x):
                halt = blocked_by
                break
            continue
        y5 = yi       # the last row of _A holds the 5th-order weights
        y4 = y + h_try * (_B4 @ K)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        err = math.sqrt(float(np.mean(((y5 - y4) / scale) ** 2)))
        if err <= 1.0:
            n_steps += 1
            y = y5
            K[0] = K[6]   # FSAL: the last stage is f at the new point
            blocked_by = None
            if hit:
                x = target
                if next_sample < len(samples):
                    xs.append(float(target))
                    ys.append(y.copy())
                    next_sample += 1
            else:
                x += h_try
        else:
            n_rejected += 1
        factor = 0.9 * err ** (-1.0 / _ORDER) if err > 0 else 5.0
        h = h_try * min(5.0, max(0.2, factor))

    if halt is not None and x > xs[-1] + end_tol:
        xs.append(x)          # last point actually reached before the halt
        ys.append(y.copy())
    return OdeResult(np.array(xs), np.array(ys), halt_reason=halt,
                     n_steps=n_steps, n_rejected=n_rejected)
