"""Adaptive embedded Runge-Kutta integration (Dormand-Prince 5(4)).

Compact single-trajectory driver used by the wave-frame module: steps are
clamped so every requested sample point is hit exactly (no dense-output
interpolation), and a caller-supplied exception class can mark points
where the right-hand side ceases to exist, in which case the driver backs
off and finally returns the partial trajectory with a halt reason.

The pair is FSAL (first same as last): the seventh stage is f at the
accepted point and becomes the first stage of the next step, so every
step attempt costs six evaluations of f.

The stages are computed on Python floats, not numpy arrays.  The
wave-frame system has five components, and at that size each numpy
operation costs its call overhead, not its arithmetic: a step spent more
time in the driver's array temporaries than in the six rhs calls.  So the
tableau is unpacked into scalars once per call, each stage is one
comprehension over the components with its coefficients written out, and
the error norm is summed from the error weights (5th- minus 4th-order) in
one more pass, with no 4th-order solution formed.  ``f`` receives the
state as the list of Python floats the driver steps and is called
directly, with no wrapper per call.  Its first return fixes its return
type: a list is used as is from then on, so a right-hand side written on
floats makes no ndarray at all; otherwise ``f`` is wrapped once in a
converter to lists.
"""

from __future__ import annotations

import math
import sys
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
_MIN_STEP = 16.0 * sys.float_info.epsilon   # in units of max(|x|, 1)


@dataclass
class OdeResult:
    x: np.ndarray          # sample points actually reached
    y: np.ndarray          # states at those points, shape (len(x), dim)
    halt_reason: str | None = None
    n_steps: int = 0
    n_rejected: int = 0
    n_rhs: int = 0         # evaluations of f, including any that raised

    @property
    def completed(self) -> bool:
        return self.halt_reason is None


def integrate_adaptive(f, y0, x_end: float, *, x0: float = 0.0,
                       rtol: float = 1e-9, atol: float = 1e-12,
                       sample_points=None,
                       halt_on: tuple[type, ...] = ()) -> OdeResult:
    """Integrate y' = f(x, y) from x0 to x_end (x_end > x0).

    ``f`` gets y as a list of Python floats, which it must not modify,
    and returns a list or an array_like of the same length; whichever
    its first return is, every return must be (a list is used as is).
    ``sample_points`` (default: 512 uniform intervals) are landed on
    exactly.  Exceptions listed in ``halt_on`` raised by ``f``
    trigger step halving; if the step cannot be reduced further the
    partial trajectory is returned with a halt reason.  Step underflow
    from pure error control, including an error estimate that is not
    finite, raises ``StepUnderflowError``, whose ``partial`` is the
    trajectory up to there with the same halt reason.  Raises
    ``ConfigError`` unless 0 < rtol < inf and 0 <= atol < inf.
    """
    if not x_end > x0:
        raise ConfigError(f"need x_end > x0, got [{x0}, {x_end}]")
    if not (0.0 < rtol < math.inf and 0.0 <= atol < math.inf):
        raise ConfigError(f"need 0 < rtol < inf and 0 <= atol < inf, "
                          f"got rtol = {rtol!r}, atol = {atol!r}")
    y0 = np.array(y0, dtype=float)
    if sample_points is None:
        sample_points = np.linspace(x0, x_end, 513)
    samples = np.asarray(sample_points, dtype=float)
    if samples.ndim != 1 or not np.all(np.diff(samples) > 0):
        raise ConfigError("sample points must be strictly increasing")
    if abs(samples[0] - x0) > 1e-14 * max(abs(x0), 1.0):
        samples = np.concatenate(([x0], samples))
    if samples[-1] > x_end * (1.0 + 1e-14):
        raise ConfigError("sample points must not exceed x_end")
    samples = samples.tolist()
    n_samples = len(samples)

    dim = len(y0)
    xs = [samples[0]]
    # one spare row for the point reached before a halt
    ys = np.empty((n_samples + 1, dim))
    ys[0] = y0
    x = x0
    y = y0.tolist()
    n_rhs = 1
    try:
        k1 = f(x, y)
    except halt_on as exc:  # singular right at the start
        return OdeResult(np.array(xs), ys[:1], halt_reason=str(exc), n_rhs=n_rhs)
    if not isinstance(k1, list):
        f = _returning_lists(f)
        k1 = np.asarray(k1, dtype=float).tolist()
    if len(k1) != dim:
        raise ConfigError(f"f returned {len(k1)} components for a {dim}-component state")
    span = x_end - x0
    scale0 = atol + rtol * max(float(np.max(np.abs(y0))), 1e-30)
    d1 = math.sqrt(float(np.mean((np.array(k1) / scale0) ** 2)))
    h = 1e-3 / d1 if d1 > 0 else 0.01 * span
    # floor the guess: a zero initial state must not stall the controller
    h = min(max(h, 1e-8 * span, 64.0 * _MIN_STEP * max(abs(x0), 1.0)), span)

    c2, c3, c4, c5 = _C[1:5].tolist()
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = (_A[i, :i].tolist() for i in range(1, 6))
    a71, _, a73, a74, a75, a76 = _A[6, :6].tolist()   # the 5th-order weights
    e1, _, e3, e4, e5, e6, e7 = (_A[6] - _B4).tolist()

    next_sample = 1
    n_steps = n_rejected = 0
    halt = None
    underflow = False
    end_tol = 1e-14 * max(abs(x_end), 1.0)
    blocked_by = None   # message of the halt exception we are backing off from
    while x < x_end - end_tol:
        target = samples[next_sample] if next_sample < n_samples else x_end
        hit = h >= target - x
        h_try = target - x if hit else h
        if h_try < _MIN_STEP * max(abs(x), 1.0):
            underflow = blocked_by is None
            halt = f"step size underflow at x = {x:.9g}" if underflow else blocked_by
            break
        # ``stage`` counts the calls of f made so far in this attempt
        try:
            stage = 1
            k2 = f(x + c2 * h_try, [v + h_try * (a21 * p) for v, p in zip(y, k1)])
            stage = 2
            k3 = f(x + c3 * h_try, [v + h_try * (a31 * p + a32 * q)
                                    for v, p, q in zip(y, k1, k2)])
            stage = 3
            k4 = f(x + c4 * h_try, [v + h_try * (a41 * p + a42 * q + a43 * r)
                                    for v, p, q, r in zip(y, k1, k2, k3)])
            stage = 4
            k5 = f(x + c5 * h_try, [v + h_try * (a51 * p + a52 * q + a53 * r + a54 * s)
                                    for v, p, q, r, s in zip(y, k1, k2, k3, k4)])
            stage = 5
            k6 = f(x + h_try, [v + h_try * (a61 * p + a62 * q + a63 * r + a64 * s + a65 * t)
                               for v, p, q, r, s, t in zip(y, k1, k2, k3, k4, k5)])
            y5 = [v + h_try * (a71 * p + a73 * r + a74 * s + a75 * t + a76 * u)
                  for v, p, r, s, t, u in zip(y, k1, k3, k4, k5, k6)]
            stage = 6
            k7 = f(x + h_try, y5)
        except halt_on as exc:
            n_rhs += stage
            blocked_by = str(exc)
            h = 0.5 * h_try
            if h < _MIN_STEP * max(abs(x), 1.0):
                halt = blocked_by
                break
            continue
        n_rhs += 6
        # RMS of the 5th- minus 4th-order difference over atol + rtol max(|y|, |y5|)
        err = math.sqrt(sum(
            d * d for d in (
                h_try * (e1 * p + e3 * r + e4 * s + e5 * t + e6 * u + e7 * w)
                / (atol + rtol * max(abs(v), abs(v5)))
                for v, v5, p, r, s, t, u, w in zip(y, y5, k1, k3, k4, k5, k6, k7))) / dim)
        if err <= 1.0:
            n_steps += 1
            y = y5
            k1 = k7   # FSAL: the last stage is f at the new point
            blocked_by = None
            if hit:
                x = target
                if next_sample < n_samples:
                    xs.append(target)
                    ys[next_sample] = y
                    next_sample += 1
            else:
                x += h_try
        else:
            n_rejected += 1
        if err > 0.0:
            factor = 0.9 * err ** (-1.0 / _ORDER)
        elif err == 0.0:
            factor = 5.0
        else:   # nan: reject and shrink, so a non-finite f ends in step underflow
            factor = 0.2
        h = h_try * min(5.0, max(0.2, factor))

    if halt is not None and x > xs[-1] + end_tol:
        xs.append(x)          # last point actually reached before the halt
        ys[len(xs) - 1] = y
    result = OdeResult(np.array(xs), ys[:len(xs)], halt_reason=halt,
                       n_steps=n_steps, n_rejected=n_rejected, n_rhs=n_rhs)
    if underflow:
        raise StepUnderflowError(halt, partial=result)
    return result


def _returning_lists(f):
    """``f`` with each return converted to a list of Python floats."""
    return lambda x, y: np.asarray(f(x, y), dtype=float).tolist()
