"""Adaptive embedded Runge-Kutta integration (Dormand-Prince 5(4)).

Compact single-trajectory driver used by the wave-frame module: the span
is the array of sample points, and steps are clamped so every sample is
hit exactly (no dense-output interpolation).  A caller-supplied exception
class can mark points where the right-hand side ceases to exist, in which
case the driver backs off.  Every halt (a blocked step that cannot be
halved further, a step size underflow from error control alone, or the
cap of ``_MAX_STEPS`` step attempts) returns the partial trajectory with
a halt reason; none raises.

The pair is FSAL (first same as last): the seventh stage is f at the
accepted point and becomes the first stage of the next step, so every
step attempt costs six evaluations of f.

The stages are computed on Python floats, not numpy arrays: the
wave-frame system has five components, and at that size each numpy
operation costs its call overhead, not its arithmetic.  A loop over the
components is no better: a list comprehension over ``zip(y, k1, ...)``
spends more than half of each stage on its frame, the zip and the
per-element unpacking.  So a step attempt is one function whose
source is written out per component, every tableau coefficient a
literal, generated by ``_attempt`` from ``_C``, ``_A`` and ``_B4`` once
per state dimension and compiled with ``exec`` (as
``collections.namedtuple`` builds its classes; the source holds only
float literals and the dimension).  The error norm is summed from the
error weights (5th- minus 4th-order), with no 4th-order solution formed.
``f`` receives the state as a list of Python floats, is called directly,
with no wrapper per call, and returns a list of Python floats, so a
right-hand side written on floats makes no ndarray at all.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

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
# a wave-frame step attempt costs about 20 us, so the cap halts a run after
# about a minute and a half; it is above the 2**20 samples ``traveling``
# allows, each of which costs at least one attempt
_MAX_STEPS = 2**22


class _Blocked(Exception):
    """args (calls, exc): f raised ``exc``, one of ``halt_on``, at call
    ``calls`` of a step attempt."""


@functools.cache
def _attempt(dim: int):
    """The step attempt ``attempt(f, x, h, y, k1, atol, rtol, halt_on)`` for
    a ``dim``-component state: returns (y5, k7, sum of the squared error
    ratios), raises ``_Blocked`` when f raises one of ``halt_on`` and
    ``ConfigError`` when f returns other than ``dim`` components.

    Each component's expression is written out with the tableau's float
    literals, in the operation order of a loop over the components, and
    skips the tableau's two zero weights (a72 and e2).  The source grows
    linearly with ``dim`` (compiling it takes about 0.4 ms per component)
    and every function built stays cached, so the stepper suits small
    systems; no expression in it nests deeper than one stage.
    """
    names = "pqrstuw"    # components of k1 ... k7; v is y and z is y5
    # weights[j] combines k1 ... kj into stage j + 1; weights[7] is the error
    weights = [_A[j, :j] for j in range(7)] + [_A[6] - _B4]

    def combination(j, i):
        return " + ".join(f"{float(c)!r} * {k}{i}" for c, k in zip(weights[j], names) if c)

    def unpack(name):
        return ", ".join(f"{name}{i}" for i in range(dim)) + ","

    lines = ["def attempt(f, x, h, y, k1, atol, rtol, halt_on):",
             f"    {unpack('v')} = y", f"    {unpack('p')} = k1"]
    for j in range(1, 7):   # stage j + 1 is call j of the attempt
        if j < 6:
            arg = "[" + ", ".join(f"v{i} + h * ({combination(j, i)})" for i in range(dim)) + "]"
        else:
            lines += [f"    z{i} = v{i} + h * ({combination(6, i)})" for i in range(dim)]
            lines.append(f"    y5 = [{', '.join(f'z{i}' for i in range(dim))}]")
            arg = "y5"
        xj = "x + h" if _C[j] == 1.0 else f"x + {float(_C[j])!r} * h"
        lines += ["    try:", f"        k = f({xj}, {arg})",
                  "    except halt_on as exc:", f"        raise _Blocked({j}, exc) from None",
                  "    try:", f"        {unpack(names[j])} = k",
                  "    except ValueError:",
                  "        raise ConfigError(f'f returned {len(k)} components for a "
                  f"{dim}-component state') from None"]
    for i in range(dim):    # one statement per term: no expression nests dim deep
        lines += [f"    d = h * ({combination(7, i)}) / (atol + rtol * max(abs(v{i}), abs(z{i})))",
                  "    s = d * d" if i == 0 else "    s += d * d"]
    lines.append("    return y5, k, s")
    namespace = {"_Blocked": _Blocked, "ConfigError": ConfigError}
    exec("\n".join(lines), namespace)
    return namespace["attempt"]


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


def integrate_adaptive(f, y0, samples, *, rtol: float = 1e-9, atol: float = 1e-12,
                       halt_on: tuple[type, ...] = ()) -> OdeResult:
    """Integrate y' = f(x, y) from samples[0] to samples[-1], landing on
    every sample exactly.

    ``f`` gets y as a list of Python floats, which it must not modify,
    and returns a list of Python floats of the same length.  Exceptions
    listed in ``halt_on`` raised by ``f`` trigger step halving.  The run
    halts, returning the trajectory up to there with a halt reason, when
    such a step cannot be halved further, when error control alone (an
    error estimate that is not finite included) shrinks the step below
    the representable limit, or after ``_MAX_STEPS`` step attempts.
    Raises ``ConfigError`` unless ``samples`` holds at least two finite,
    strictly increasing points, 0 < rtol < inf and 0 <= atol < inf, and
    when any call of ``f`` returns another number of components.
    Meant for small systems: the first call for each state dimension
    compiles a stepper whose code grows with the dimension (about 0.8 s
    at 2000 components) and keeps it for the life of the process.
    """
    samples = np.asarray(samples, dtype=float)
    if not (samples.ndim == 1 and len(samples) >= 2 and np.all(np.isfinite(samples))
            and np.all(np.diff(samples) > 0)):
        raise ConfigError("need at least two finite, strictly increasing sample points")
    if not (0.0 < rtol < math.inf and 0.0 <= atol < math.inf):
        raise ConfigError(f"need 0 < rtol < inf and 0 <= atol < inf, "
                          f"got rtol = {rtol!r}, atol = {atol!r}")
    y0 = np.array(y0, dtype=float)
    samples = samples.tolist()
    n_samples = len(samples)

    dim = len(y0)
    xs = [samples[0]]
    # one spare row for the point reached before a halt
    ys = np.empty((n_samples + 1, dim))
    ys[0] = y0
    x = samples[0]
    y = y0.tolist()
    n_rhs = 1
    try:
        k1 = f(x, y)
    except halt_on as exc:  # singular right at the start
        return OdeResult(np.array(xs), ys[:1], halt_reason=str(exc), n_rhs=n_rhs)
    if len(k1) != dim:
        raise ConfigError(f"f returned {len(k1)} components for a {dim}-component state")
    span = samples[-1] - x
    scale0 = atol + rtol * max(float(np.max(np.abs(y0))), 1e-30)
    d1 = math.sqrt(float(np.mean((np.array(k1) / scale0) ** 2)))
    h = 1e-3 / d1 if d1 > 0 else 0.01 * span
    # floor the guess: a zero initial state must not stall the controller
    h = min(max(h, 1e-8 * span, 64.0 * _MIN_STEP * max(abs(x), 1.0)), span)

    attempt = _attempt(dim)
    next_sample = 1
    n_steps = n_rejected = 0
    halt = None
    blocked_by = None   # message of the halt exception we are backing off from
    while next_sample < n_samples:
        target = samples[next_sample]
        hit = h >= target - x
        h_try = target - x if hit else h
        if h_try < _MIN_STEP * max(abs(x), 1.0):
            halt = f"step size underflow at x = {x:.9g}" if blocked_by is None else blocked_by
            break
        if n_steps + n_rejected >= _MAX_STEPS:
            halt = f"step limit of {_MAX_STEPS} attempts reached at x = {x:.9g}"
            break
        try:
            y5, k7, sum_sq = attempt(f, x, h_try, y, k1, atol, rtol, halt_on)
        except _Blocked as blocked:
            calls, exc = blocked.args
            n_rhs += calls
            blocked_by = str(exc)
            h = 0.5 * h_try
            if h < _MIN_STEP * max(abs(x), 1.0):
                halt = blocked_by
                break
            continue
        n_rhs += 6
        # RMS of the 5th- minus 4th-order difference over atol + rtol max(|y|, |y5|)
        err = math.sqrt(sum_sq / dim)
        if err <= 1.0:
            n_steps += 1
            y = y5
            k1 = k7   # FSAL: the last stage is f at the new point
            blocked_by = None
            if hit:
                x = target
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

    if x > xs[-1]:
        xs.append(x)          # last point actually reached before the halt
        ys[len(xs) - 1] = y
    return OdeResult(np.array(xs), ys[:len(xs)], halt_reason=halt,
                     n_steps=n_steps, n_rejected=n_rejected, n_rhs=n_rhs)
