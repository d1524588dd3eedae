"""Adaptive embedded Runge-Kutta integration (DOP853) with dense output.

Compact single-trajectory driver used by the wave-frame module.  The pair
is Dormand and Prince's explicit 8th-order method with its 5th- and
3rd-order error estimators and 7th-order interpolant (Hairer, Norsett and
Wanner, *Solving Ordinary Differential Equations I*, 2nd ed., sec. II.10;
the coefficients of Hairer's ``dop853``).  Error control alone sets each
step: a sample that falls inside an accepted step is read from the
interpolant, and only the last step is shortened, so that the last sample
is hit exactly.  The controller is Hairer's: the step grows by at most 6,
shrinks by at most 3, and does not grow right after a failed attempt.
Error control runs at ``_TOL_FRACTION`` of ``tol`` and of the floor
1e-3 tol max(1, max|y0|), so that ``tol`` states the samples' accuracy.  The first
trial step comes from the starting-step algorithm of the same book
(sec. II.4): the size of f at the start and one explicit-Euler probe of
its rate of change.

Where f raises ``SonicSingularityError`` (the wave frame's singular set)
the driver halves the step.  Every halt (a blocked step that cannot be
halved further, a step size underflow from error control alone, or the
cap of ``_MAX_STEPS`` step attempts) returns the partial trajectory with
a halt reason; none raises.

A step attempt evaluates f at 11 new stages and forms the error estimate
from them.  An accepted step adds f at the new point, which is FSAL
(first same as last): it becomes the next step's first stage.  An
accepted step that holds a sample adds the interpolant's 3 stages.  So a
run with no blocked attempt makes 2 + 12 accepted + 11 rejected + 3 per
step holding a sample evaluations of f; the 2 are f at the start and the
starting-step probe.

The samples themselves are formed in bulk: an accepted step that holds a
sample returns the interpolant's inputs (h, y, the new y and the stages
it reads) as one row, and every ``_CHUNK`` such steps, and once more when
the run ends or halts, ``_interpolate`` forms all their samples with
numpy.  It repeats the scalar formulas' operations in their order,
elementwise, so a sample is bitwise the same whichever chunk forms it.

The stages are computed on Python floats, not numpy arrays: the
wave-frame system has five components, and at that size each numpy
operation costs its call overhead, not its arithmetic.  A loop over the
components is no better: a list comprehension over ``zip(y, k1, ...)``
spends more than half of each stage on its frame, the zip and the
per-element unpacking.  So a step attempt is one function whose source is
written out per component, every tableau coefficient a literal, generated
by ``_attempt`` from the tableau once per state dimension and compiled
with ``exec`` (as ``collections.namedtuple`` builds its classes; the
source holds only float literals and the dimension).  ``f`` receives the
state as a list of Python floats, is called directly, with no wrapper per
call, and returns a list of Python floats, so a right-hand side written on
floats makes no ndarray at all.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SonicSingularityError

__all__ = ["OdeResult", "integrate_adaptive"]

# DOP853 (Hairer, Norsett & Wanner, sec. II.10), with the literals of
# Hairer's dop853.f.  Stage s, 0-based, is f at x + _C[s] h and
# y + h sum_j a[s, j] k_j; _A[s] lists its nonzero (j, a[s, j]).  Stages
# 0-11 make the step, row 12 weights the 8th-order solution, stage 12 is
# f there (FSAL), and stages 13-15 serve only the interpolant.
_C = (0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
      0.118350341907227396726757197510, 0.281649658092772603273242802490,
      0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
      0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0,
      0.1, 0.2, 0.777777777777777777777777777778)
_A = (
    (),
    ((0, 5.26001519587677318785587544488e-2),),
    ((0, 1.97250569845378994544595329183e-2), (1, 5.91751709536136983633785987549e-2)),
    ((0, 2.95875854768068491816892993775e-2), (2, 8.87627564304205475450678981324e-2)),
    ((0, 2.41365134159266685502369798665e-1), (2, -8.84549479328286085344864962717e-1),
     (3, 9.24834003261792003115737966543e-1)),
    ((0, 3.7037037037037037037037037037e-2), (3, 1.70828608729473871279604482173e-1),
     (4, 1.25467687566822425016691814123e-1)),
    ((0, 3.7109375e-2), (3, 1.70252211019544039314978060272e-1),
     (4, 6.02165389804559606850219397283e-2), (5, -1.7578125e-2)),
    ((0, 3.70920001185047927108779319836e-2), (3, 1.70383925712239993810214054705e-1),
     (4, 1.07262030446373284651809199168e-1), (5, -1.53194377486244017527936158236e-2),
     (6, 8.27378916381402288758473766002e-3)),
    ((0, 6.24110958716075717114429577812e-1), (3, -3.36089262944694129406857109825),
     (4, -8.68219346841726006818189891453e-1), (5, 2.75920996994467083049415600797e1),
     (6, 2.01540675504778934086186788979e1), (7, -4.34898841810699588477366255144e1)),
    ((0, 4.77662536438264365890433908527e-1), (3, -2.48811461997166764192642586468),
     (4, -5.90290826836842996371446475743e-1), (5, 2.12300514481811942347288949897e1),
     (6, 1.52792336328824235832596922938e1), (7, -3.32882109689848629194453265587e1),
     (8, -2.03312017085086261358222928593e-2)),
    ((0, -9.3714243008598732571704021658e-1), (3, 5.18637242884406370830023853209),
     (4, 1.09143734899672957818500254654), (5, -8.14978701074692612513997267357),
     (6, -1.85200656599969598641566180701e1), (7, 2.27394870993505042818970056734e1),
     (8, 2.49360555267965238987089396762), (9, -3.0467644718982195003823669022)),
    ((0, 2.27331014751653820792359768449), (3, -1.05344954667372501984066689879e1),
     (4, -2.00087205822486249909675718444), (5, -1.79589318631187989172765950534e1),
     (6, 2.79488845294199600508499808837e1), (7, -2.85899827713502369474065508674),
     (8, -8.87285693353062954433549289258), (9, 1.23605671757943030647266201528e1),
     (10, 6.43392746015763530355970484046e-1)),
    ((0, 5.42937341165687622380535766363e-2), (5, 4.45031289275240888144113950566),
     (6, 1.89151789931450038304281599044), (7, -5.8012039600105847814672114227),
     (8, 3.1116436695781989440891606237e-1), (9, -1.52160949662516078556178806805e-1),
     (10, 2.01365400804030348374776537501e-1), (11, 4.47106157277725905176885569043e-2)),
    ((0, 5.61675022830479523392909219681e-2), (6, 2.53500210216624811088794765333e-1),
     (7, -2.46239037470802489917441475441e-1), (8, -1.24191423263816360469010140626e-1),
     (9, 1.5329179827876569731206322685e-1), (10, 8.20105229563468988491666602057e-3),
     (11, 7.56789766054569976138603589584e-3), (12, -8.298e-3)),
    ((0, 3.18346481635021405060768473261e-2), (5, 2.83009096723667755288322961402e-2),
     (6, 5.35419883074385676223797384372e-2), (7, -5.49237485713909884646569340306e-2),
     (10, -1.08347328697249322858509316994e-4), (11, 3.82571090835658412954920192323e-4),
     (12, -3.40465008687404560802977114492e-4), (13, 1.41312443674632500278074618366e-1)),
    ((0, -4.28896301583791923408573538692e-1), (5, -4.69762141536116384314449447206),
     (6, 7.68342119606259904184240953878), (7, 4.06898981839711007970213554331),
     (8, 3.56727187455281109270669543021e-1), (12, -1.39902416515901462129418009734e-3),
     (13, 2.9475147891527723389556272149), (14, -9.15095847217987001081870187138)),
)
# error weights: the 5th-order estimator, and the 8th-order weights minus
# _BHH for the 3rd-order one
_E5 = ((0, 0.1312004499419488073250102996e-1), (5, -0.1225156446376204440720569753e+1),
       (6, -0.4957589496572501915214079952), (7, 0.1664377182454986536961530415e+1),
       (8, -0.3503288487499736816886487290), (9, 0.3341791187130174790297318841),
       (10, 0.8192320648511571246570742613e-1), (11, -0.2235530786388629525884427845e-1))
_BHH = ((0, 0.244094488188976377952755905512), (8, 0.733846688281611857341361741547),
        (11, 0.220588235294117647058823529412e-1))
# the interpolant's 4th to 7th coefficients: row r weights the stages
# _DENSE_STAGES, which every row uses
_DENSE_STAGES = (0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
_D = np.array([
    [-0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
     0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3],
])
_ORDER = 8.0           # the step size exponent: h ~ err^(-1/_ORDER)
_SAFETY = 0.9
_SHRINK, _GROW = 0.333, 6.0   # Hairer's bounds on the factor h_new / h
# The error estimators bound one step's local error, not the error of a
# sample after many steps, which the interpolant also enters.  Measured on
# wave-frame runs (tol 1e-9 against the same run at 1e-12; xi up to 220,
# up to 8192 samples): at 1/40 of tol every trajectory was at least as
# accurate as with the sample-clamped Dormand-Prince 5(4) pair this stepper
# replaced, run at tol itself; at 1/20 some were up to 1.7 times less so.
_TOL_FRACTION = 1.0 / 40.0
# below it the relative demand is under one ulp and no step can pass
_LEAST_TOL = sys.float_info.epsilon / _TOL_FRACTION
_MIN_STEP = 16.0 * sys.float_info.epsilon   # in units of max(|x|, 1)
# a wave-frame step attempt that holds no sample costs about 25-31 us, so
# the cap halts a run after about half a minute
_MAX_STEPS = 2**20
# steps holding a sample whose rows are buffered before their samples are
# formed: enough to share each numpy call, few enough that the buffer stays
# small (36 KiB for five components)
_CHUNK = 64


class _Blocked(Exception):
    """args (calls, exc): f raised ``exc``, a ``SonicSingularityError``, at
    call ``calls`` of a step attempt."""


def _terms(row, i: int) -> str:
    """sum_j a_j k_j for component i, over the nonzero (j, a_j) of ``row``."""
    return " + ".join(f"{a!r} * k{j}_{i}" for j, a in row)


@functools.cache
def _attempt(dim: int):
    """The step attempt ``attempt(f, x, h, y, k0, atol, rtol, dense)`` for
    a ``dim``-component state.

    Returns ``(y8, k, err, row)``.  ``err`` is the error norm; above 1
    (or nan) the attempt is rejected and the rest is None.  Otherwise
    ``y8`` is the 8th-order solution at x + h and ``k`` is f there.  When
    ``dense`` is true the interpolant's three stages are computed too, and
    ``row`` is the flat list h, y, y8 and the stages ``_DENSE_STAGES``,
    from which ``_interpolate`` forms the samples; otherwise it is None.
    Raises ``_Blocked`` when f raises ``SonicSingularityError`` and
    ``ConfigError`` when f returns other than ``dim`` components.

    Each component's expression is written out with the tableau's float
    literals, in the operation order of a loop over the components, and
    skips its zero entries.  The source grows linearly with ``dim`` and
    every function built stays cached, so the stepper suits small systems;
    no expression in it nests deeper than one tableau row's sum, whatever
    ``dim``.  Stage s is the list ``k{s}`` and its component i
    ``k{s}_{i}``; component i of y is ``v{i}`` and of y8 ``z{i}``.
    """
    def unpack(name):
        return ", ".join(f"{name}{i}" for i in range(dim)) + ","

    def call(s, arg):   # stage s is call s of the attempt
        at = "x + h" if _C[s] == 1.0 else f"x + {_C[s]!r} * h"
        return ["    try:", f"        k{s} = f({at}, {arg})",
                "    except SonicSingularityError as exc:",
                f"        raise _Blocked({s}, exc) from None",
                "    try:", f"        {unpack(f'k{s}_')} = k{s}",
                "    except ValueError:",
                f"        raise ConfigError(f'f returned {{len(k{s})}} components for a "
                f"{dim}-component state') from None"]

    def stage(s):
        return "[" + ", ".join(f"v{i} + h * ({_terms(_A[s], i)})" for i in range(dim)) + "]"

    lines = ["def attempt(f, x, h, y, k0, atol, rtol, dense):",
             f"    {unpack('v')} = y", f"    {unpack('k0_')} = k0"]
    for s in range(1, 12):
        lines += call(s, stage(s))
    for i in range(dim):
        lines += [f"    b{i} = {_terms(_A[12], i)}", f"    z{i} = v{i} + h * b{i}"]
    for i in range(dim):    # one statement per term: no expression nests dim deep
        lines += [f"    sc = atol + rtol * max(abs(v{i}), abs(z{i}))",
                  f"    d = ({_terms(_E5, i)}) / sc",
                  "    s5 = d * d" if i == 0 else "    s5 += d * d",
                  f"    d = (b{i} - ({_terms(_BHH, i)})) / sc",
                  "    s3 = d * d" if i == 0 else "    s3 += d * d"]
    # h s5 / sqrt((s5 + 0.01 s3) dim), Hairer's norm, with no sum that overflows
    lines += [f"    err = h * math.sqrt(s5 / ((1.0 + 0.01 * s3 / s5) * {dim})) if s5 else 0.0",
              "    if not err <= 1.0:",
              "        return None, None, err, None",
              f"    y8 = [{', '.join(f'z{i}' for i in range(dim))}]"]
    lines += call(12, "y8")
    lines += ["    if not dense:", "        return y8, k12, err, None"]
    for s in range(13, 16):
        lines += call(s, stage(s))
    stages = ", ".join(f"*k{s}" for s in _DENSE_STAGES)
    lines += [f"    return y8, k12, err, [h, *y, *y8, {stages}]"]
    namespace = {"_Blocked": _Blocked, "ConfigError": ConfigError, "math": math,
                 "SonicSingularityError": SonicSingularityError}
    exec("\n".join(lines), namespace)
    return namespace["attempt"]


def _interpolate(steps: np.ndarray, x: np.ndarray, points: np.ndarray,
                 counts: np.ndarray) -> np.ndarray:
    """The interpolant of each step at the sample points it holds.

    Column j of ``steps`` is the row that ``attempt`` returned for step j,
    ``x[j]`` is the step's start and ``counts[j]`` how many of the
    consecutive ``points`` it holds.  Hairer's coefficients F0-F6 and the
    7th-order polynomial in theta = (point - x) / h are formed
    elementwise, with the operations and order of the scalar formulas, so
    each sample is bitwise what its step alone gives, whichever steps
    share the call.  Returns the samples, shape (len(points), dim).
    """
    n_stages, n = len(_DENSE_STAGES), steps.shape[1]
    dim = (len(steps) - 1) // (2 + n_stages)
    h = steps[0]
    k = steps[2 * dim + 1:].reshape(n_stages, dim, n)
    k0, k12 = k[_DENSE_STAGES.index(0)], k[_DENSE_STAGES.index(12)]
    c = np.empty((8, dim, n))      # y, F0, ..., F6
    c[0] = steps[1:dim + 1]
    F0 = np.subtract(steps[dim + 1:2 * dim + 1], c[0], out=c[1])
    c[2] = h * k0 - F0
    c[3] = 2.0 * F0 - h * (k12 + k0)
    total = _D[:, 0, None, None] * k[0]    # F3-F6 over h, summed stage by stage
    for j in range(1, n_stages):
        total += _D[:, j, None, None] * k[j]
    np.multiply(h, total, out=c[4:])
    step = np.repeat(np.arange(n), counts)
    c = c[:, :, step]
    t = (points - x[step]) / h[step]
    s = 1.0 - t
    # y + t (F0 + s (F1 + t (F2 + s (F3 + t (F4 + s (F5 + t F6)))))), inside out
    acc = c[6] + t * c[7]
    for r, w in ((5, s), (4, t), (3, s), (2, t), (1, s)):
        acc = c[r] + w * acc
    return (c[0] + t * acc).T


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


def _rms(a: np.ndarray) -> float:
    return math.sqrt(float(np.mean(a * a)))


def _first_step(f, x: float, y: list, k1: list, span: float, atol: float, rtol: float) -> float:
    """The first trial step, at most ``span``, by Hairer, Norsett and
    Wanner's starting-step algorithm (sec. II.4): from the size of y and f
    at the start, and of f' from one explicit-Euler probe, which is the one
    call of f made here.  A probe blocked by ``SonicSingularityError``
    keeps the probe's own step, which the driver then halves."""
    y0, f0 = np.array(y), np.array(k1)
    scale = atol + rtol * np.abs(y0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
        h = 0.01 * d0 / d1 if d0 >= 1e-5 and d1 >= 1e-5 else 1e-6
        if not h <= span:   # also inf / inf
            h = span
        try:
            f1 = f(x + h, (y0 + h * f0).tolist())
        except SonicSingularityError:
            return h
        if len(f1) != len(y):
            raise ConfigError(f"f returned {len(f1)} components for a {len(y)}-component state")
        d2 = _rms((np.array(f1) - f0) / scale) / h
        rate = max(d1, d2)
        h = min(100.0 * h, (0.01 / rate) ** (1.0 / _ORDER) if rate > 1e-15
                else max(1e-6, 1e-3 * h))
    floor = 64.0 * _MIN_STEP * max(abs(x), 1.0)
    if not h >= floor:      # also nan
        h = floor
    return min(h, span)


def integrate_adaptive(f, y0, samples, *, tol: float = 1e-9) -> OdeResult:
    """Integrate y' = f(x, y) from samples[0] to samples[-1], returning the
    state at every sample.

    ``tol`` is the relative accuracy asked of the samples, with the
    absolute floor 1e-3 tol max(1, max|y0|); error control runs at
    ``_TOL_FRACTION`` of both.  Samples inside a step come from the
    interpolant, and the last one is hit exactly.  ``f`` gets y as a list
    of Python floats, which it must not modify, and returns a list of
    Python floats of the same length.  A ``SonicSingularityError`` raised
    by ``f`` triggers step halving.  The run halts, returning the
    trajectory up to there with a halt reason, when such a step cannot be
    halved further, when error control alone (an error estimate that is
    not finite included) shrinks the step below the representable limit,
    or after ``_MAX_STEPS`` step attempts.
    Raises ``ConfigError`` unless ``samples`` holds at least two finite,
    strictly increasing points, y0 is finite, tol >= ``_LEAST_TOL``
    (40 machine epsilons) and the floor is finite, and when any call of
    ``f`` returns another number of components.
    Meant for small systems: the first call for each state dimension
    compiles a stepper whose code grows with the dimension (about 2.5 s
    at 3000 components) and keeps it for the life of the process.
    """
    samples = np.asarray(samples, dtype=float)
    if not (samples.ndim == 1 and len(samples) >= 2 and np.all(np.isfinite(samples))
            and np.all(np.diff(samples) > 0)):
        raise ConfigError("need at least two finite, strictly increasing sample points")
    y0 = np.array(y0, dtype=float)
    if not np.all(np.isfinite(y0)):
        raise ConfigError("need a finite start y0")
    scale = max(1.0, float(np.max(np.abs(y0))))
    rtol, atol = _TOL_FRACTION * tol, _TOL_FRACTION * (tol * 1e-3 * scale)
    if not (tol >= _LEAST_TOL and atol < math.inf):
        raise ConfigError(f"need tol >= {_LEAST_TOL!r} with a finite floor 1e-3 tol max(1, "
                          f"max|y0|), got tol = {tol!r}: error control runs at "
                          f"{_TOL_FRACTION!r} of tol, which must not fall below machine epsilon")
    points, samples = samples, samples.tolist()
    n_samples = len(samples)

    dim = len(y0)
    # one spare row for the point reached before a halt
    ys = np.empty((n_samples + 1, dim))
    ys[0] = y0
    x, end = samples[0], samples[-1]
    y = y0.tolist()
    n_rhs = 1
    try:
        k1 = f(x, y)
    except SonicSingularityError as exc:  # singular right at the start
        return OdeResult(np.array(samples[:1]), ys[:1], halt_reason=str(exc), n_rhs=n_rhs)
    if len(k1) != dim:
        raise ConfigError(f"f returned {len(k1)} components for a {dim}-component state")
    h = _first_step(f, x, y, k1, end - x, atol, rtol)
    n_rhs += 1

    attempt = _attempt(dim)
    steps = np.empty((1 + (2 + len(_DENSE_STAGES)) * dim, _CHUNK))
    held = []           # (x, first sample, end of its samples) of each column of steps

    def form_samples():
        xs, lo, hi = zip(*held)
        ys[lo[0]:hi[-1]] = _interpolate(steps[:, :len(held)], np.array(xs),
                                        points[lo[0]:hi[-1]], np.subtract(hi, lo))
        held.clear()

    next_sample = 1     # the first sample not yet reached
    n_steps = n_rejected = 0
    halt = None
    blocked_by = None   # message of the halt exception we are backing off from
    failed = False      # the last attempt failed: the next step may not grow
    while next_sample < n_samples:
        x_new = x + h
        if x_new >= end:
            x_new, h_try = end, end - x
        else:
            h_try = h
        if h_try < _MIN_STEP * max(abs(x), 1.0):
            halt = f"step size underflow at x = {x:.9g}" if blocked_by is None else blocked_by
            break
        if n_steps + n_rejected >= _MAX_STEPS:
            halt = f"step limit of {_MAX_STEPS} attempts reached at x = {x:.9g}"
            break
        inside = bisect.bisect_left(samples, x_new, next_sample)   # samples before x_new
        dense = inside > next_sample
        try:
            y8, k12, err, row = attempt(f, x, h_try, y, k1, atol, rtol, dense)
        except _Blocked as blocked:
            calls, exc = blocked.args
            n_rhs += calls
            blocked_by = str(exc)
            failed = True
            h = 0.5 * h_try     # the loop's underflow test halts with blocked_by
            continue
        if y8 is None:
            n_rhs += 11
            n_rejected += 1
            failed = True
            # err > 1, or nan: reject and shrink, so a non-finite f ends in step underflow
            h = h_try * (max(_SHRINK, _SAFETY * err ** (-1.0 / _ORDER)) if err > 1.0
                         else _SHRINK)
            continue
        n_rhs += 15 if dense else 12
        n_steps += 1
        if dense:
            steps[:, len(held)] = row
            held.append((x, next_sample, inside))
            if len(held) == _CHUNK:
                form_samples()
        x, y, k1 = x_new, y8, k12   # FSAL: the last stage is f at the new point
        next_sample = inside
        if x == end:
            ys[next_sample] = y
            next_sample += 1
        blocked_by = None
        factor = min(_GROW, _SAFETY * err ** (-1.0 / _ORDER)) if err > 0.0 else _GROW
        h = h_try * (min(factor, 1.0) if failed else factor)
        failed = False
    if held:
        form_samples()

    reached = samples[:next_sample]
    if x > reached[-1]:
        reached.append(x)     # last point actually reached before the halt
        ys[len(reached) - 1] = y
    return OdeResult(np.array(reached), ys[:len(reached)], halt_reason=halt,
                     n_steps=n_steps, n_rejected=n_rejected, n_rhs=n_rhs)
