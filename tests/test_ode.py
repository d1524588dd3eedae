import math
import re
import sys

import numpy as np
import pytest

from qfluid import ode
from qfluid.errors import ConfigError, SonicSingularityError
from qfluid.ode import integrate_adaptive


def test_exponential_decay_accuracy():
    res = integrate_adaptive(lambda x, y: [-y[0]], np.array([1.0]), np.linspace(0.0, 5.0, 513),
                             tol=1e-11)
    assert res.completed
    assert res.y[-1, 0] == pytest.approx(math.exp(-5.0), rel=1e-8)


def test_f_gets_a_list_of_floats():
    seen = []

    def as_list(x, y):
        seen.append(y)
        return [y[1], -y[0]]

    res = integrate_adaptive(as_list, np.array([1.0, 0.0]), np.linspace(0.0, 3.0, 7),
                             tol=1e-10)
    assert len(seen) == res.n_rhs > 1
    assert all(type(y) is list and all(type(v) is float for v in y) for y in seen)
    assert res.completed and res.y[-1, 0] == pytest.approx(math.cos(3.0), rel=1e-8)


def test_harmonic_oscillator_samples_hit_exactly():
    samples = np.linspace(0.0, 2.0 * math.pi, 17)
    res = integrate_adaptive(lambda x, y: [y[1], -y[0]], np.array([1.0, 0.0]), samples,
                             tol=1e-11)
    assert np.array_equal(res.x, samples)
    assert np.allclose(res.y[:, 0], np.cos(samples), atol=1e-8)
    assert res.y[-1, 0] == pytest.approx(1.0, abs=1e-9)


def test_five_dimensional_linear_system_matches_closed_form():
    # two rotations at different rates and one decay, each exact in closed form
    w1, w2, lam = 1.0, 2.7, 0.3
    y0 = np.array([1.0, 0.5, -0.3, 2.0, 1.5])
    samples = np.linspace(0.0, 10.0, 41)
    res = integrate_adaptive(
        lambda x, y: [w1 * y[1], -w1 * y[0], w2 * y[3], -w2 * y[2], -lam * y[4]],
        y0, samples, tol=4e-14)
    c1, s1 = np.cos(w1 * samples), np.sin(w1 * samples)
    c2, s2 = np.cos(w2 * samples), np.sin(w2 * samples)
    exact = np.stack([y0[0] * c1 + y0[1] * s1, y0[1] * c1 - y0[0] * s1,
                      y0[2] * c2 + y0[3] * s2, y0[3] * c2 - y0[2] * s2,
                      y0[4] * np.exp(-lam * samples)], axis=1)
    assert res.completed and np.array_equal(res.x, samples)
    # the rotating components cross zero, so the floor is relative to their amplitude
    np.testing.assert_allclose(res.y, exact, rtol=1e-11, atol=1e-11 * np.max(np.abs(y0)))


def test_tolerance_controls_error():
    errs = []
    for tol in (1e-5, 1e-8, 1e-11):
        res = integrate_adaptive(lambda x, y: [y[1], -y[0]], np.array([1.0, 0.0]),
                                 np.array([0.0, 4.0 * math.pi]), tol=tol)
        errs.append(abs(res.y[-1, 0] - 1.0))
    assert errs[0] > errs[1] > errs[2]


def test_fsal_call_count_per_step():
    calls = 0

    def counted(f):
        def wrapped(x, y):
            nonlocal calls
            calls += 1
            return f(x, y)
        return wrapped

    # f at the start and the starting-step probe, 11 stages per attempt, and
    # f at the new point (FSAL) per accepted step; van der Pol's relaxation
    # makes the controller overshoot
    res = integrate_adaptive(counted(lambda x, y: [y[1], 5.0 * (1.0 - y[0] * y[0]) * y[1] - y[0]]),
                             np.array([2.0, 0.0]), np.array([0.0, 20.0]), tol=1e-10)
    assert res.completed and res.n_steps > 0 and res.n_rejected > 0
    assert res.n_rhs == calls == 2 + 12 * res.n_steps + 11 * res.n_rejected
    # plus the interpolant's 3 stages per step that holds a sample: here
    # every step, since each is longer than the sample spacing
    calls = 0
    res = integrate_adaptive(counted(lambda x, y: [y[1], -y[0]]), np.array([1.0, 1.0]),
                             np.linspace(0.0, 20.0, 20001), tol=1e-10)
    assert res.completed
    assert res.n_rhs == calls == 2 + 15 * res.n_steps + 11 * res.n_rejected


def test_first_step_follows_the_scale_of_f_not_the_span(monkeypatch):
    # a guess from the span alone (1e-8 of it) would put the first attempt's
    # stages near x = 1e292; the starting-step algorithm sizes it from f
    monkeypatch.setattr(ode, "_MAX_STEPS", 5)
    seen = []

    def f(x, y):
        seen.append(x)
        return [-y[0]]

    res = integrate_adaptive(f, np.array([1.0]), [0.0, 1e300])
    assert res.halt_reason.startswith("step limit of 5 attempts")
    # f at the start, the probe, and the first attempt's 11 stages
    assert max(seen[:13]) <= 1.0
    assert 0.0 < seen[1] <= 1.0


def test_non_finite_rhs_ends_in_step_underflow():
    calls = 0

    def f(x, y):
        nonlocal calls
        calls += 1
        if calls > 10_000:
            pytest.fail("the controller keeps retrying a nan error estimate")
        return [math.nan]

    res = integrate_adaptive(f, np.array([1.0]), np.linspace(0.0, 1.0, 513))
    assert res.halt_reason == "step size underflow at x = 0"
    assert np.array_equal(res.x, [0.0]) and res.n_steps == 0


def test_step_underflow_carries_the_partial_trajectory():
    # y' = y^2 from y(0) = 1 blows up at x = 1: error control alone shrinks
    # the step to nothing there
    calls = 0

    def f(x, y):
        nonlocal calls
        calls += 1
        return [y[0] * y[0]]

    part = integrate_adaptive(f, np.array([1.0]), np.linspace(0.0, 2.0, 9))
    assert part.halt_reason.startswith("step size underflow at x = ")
    # the halt is at the blow-up, on either side of it within the tolerance
    assert np.array_equal(part.x[:4], [0.0, 0.25, 0.5, 0.75]) and abs(part.x[-1] - 1.0) < 1e-10
    assert part.y[3, 0] == pytest.approx(4.0, rel=1e-8)
    assert part.n_rhs == calls
    assert (calls - 2 - 12 * part.n_steps - 11 * part.n_rejected) % 3 == 0


class Boom(SonicSingularityError):
    pass


def test_halting_exception_returns_partial():
    def f(x, y):
        if x > 1.0:
            raise Boom(f"wall at x = {x:.3f}")
        return [1.0]

    calls = 0

    def counted(x, y):
        nonlocal calls
        calls += 1
        return f(x, y)

    res = integrate_adaptive(counted, np.array([0.0]), np.linspace(0, 3, 31), tol=1e-10)
    assert not res.completed
    assert res.n_rhs == calls   # including the calls that raised
    assert "wall" in res.halt_reason
    assert 0.9 < res.x[-1] <= 1.0 + 1e-6


def test_invalid_spans_rejected():
    for samples in ([0.0], [1.0, 0.0], [0.0, 1.0, 1.0], [0.0, math.nan], [0.0, math.inf],
                    [[0.0, 1.0]]):
        with pytest.raises(ConfigError, match="two finite, strictly increasing"):
            integrate_adaptive(lambda x, y: [-y[0]], np.array([1.0]), samples)


@pytest.mark.parametrize("atol", [0.0, 5e-324, 9e-323, -1.0, math.nan, math.inf])
def test_atol_whose_working_share_is_not_positive_rejected(atol):
    # atol is the absolute floor 1e-3 tol of a start of size 1, and each
    # such tol is below the least: error control runs at ode._TOL_FRACTION
    # of tol, and were that under one ulp, no step could pass
    with pytest.raises(ConfigError, match=r"need tol >= 8\.881784197001252e-15 with a finite "
                                          r"floor .*, got tol = .*: error control runs at 0\.025"):
        integrate_adaptive(lambda x, y: [0.0, -y[1]], [0.0, 1.0], [0.0, 1.0], tol=1e3 * atol)


def least_tol(y0):
    with pytest.raises(ConfigError) as info:
        integrate_adaptive(lambda x, y: [0.0, -y[1]], y0, [0.0, 1.0], tol=0.0)
    return float(re.search(r"tol >= (\S+) ", str(info.value)).group(1))


def test_smallest_atol_whose_working_share_is_positive_integrates():
    # the refusal names the least tol, 40 machine epsilons whatever the
    # start; at it the relative demand is one ulp, and the floor is above 0
    for y0 in ([0.0, 1.0], [0.0, -1e10]):
        least = least_tol(y0)
        assert least == ode._LEAST_TOL == 40 * sys.float_info.epsilon
        assert ode._TOL_FRACTION * (least * 1e-3 * max(1.0, np.max(np.abs(y0)))) > 0.0
        with pytest.raises(ConfigError, match="need tol >= "):
            integrate_adaptive(lambda x, y: [0.0, -y[1]], y0, [0.0, 1.0],
                               tol=math.nextafter(least, 0.0))
        # the zero component's error is 0 over its floor, not 0 / 0
        res = integrate_adaptive(lambda x, y: [0.0, -y[1]], y0, [0.0, 1.0], tol=least)
        assert res.completed and res.y[-1, 0] == 0.0
        assert res.y[-1, 1] == pytest.approx(y0[1] * math.exp(-1.0), rel=1e-9)


@pytest.mark.parametrize("y0", [[math.inf, 1.0], [0.0, -math.inf], [math.nan, 0.0]])
def test_start_that_is_not_finite_rejected(y0):
    with pytest.raises(ConfigError, match="need a finite start y0"):
        integrate_adaptive(lambda x, y: [0.0, 0.0], y0, [0.0, 1.0])


def test_tol_whose_floor_overflows_rejected():
    with pytest.raises(ConfigError, match=r"with a finite floor .*, got tol = 1e\+300"):
        integrate_adaptive(lambda x, y: [0.0, 0.0], [0.0, 1e20], [0.0, 1.0], tol=1e300)


def test_rhs_of_wrong_length_rejected():
    with pytest.raises(ConfigError, match="3 components for a 2-component state"):
        integrate_adaptive(lambda x, y: [0.0] * 3, np.array([1.0, 0.0]), [0.0, 1.0])


def test_step_limit_halts_with_the_partial_trajectory(monkeypatch):
    monkeypatch.setattr(ode, "_MAX_STEPS", 50)
    res = integrate_adaptive(lambda x, y: [y[1], -y[0]], np.array([1.0, 0.0]),
                             np.linspace(0.0, 100.0, 5))
    assert res.halt_reason.startswith("step limit of 50 attempts reached at x = ")
    assert res.n_steps + res.n_rejected == 50
    assert float(res.halt_reason.rsplit(" ", 1)[1]) == pytest.approx(res.x[-1], rel=1e-8)
    assert 0.0 < res.x[-1] < 25.0
    assert np.array_equal(res.x[:-1], np.linspace(0.0, 100.0, 5)[:len(res.x) - 1])


DENSE_SAMPLES = np.linspace(0.0, 400.0, 40001)   # every step of the oscillator holds some


def oscillator(x, y):
    return [y[1], -y[0]]


def assert_leading_samples_bitwise(part, full):
    # the last point of a halted run is where it stopped, not a sample
    m = len(part.x) - 1
    assert np.array_equal(part.x[:m], DENSE_SAMPLES[:m])
    assert part.y[:m].tobytes() == full.y[:m].tobytes()
    # several chunks were formed in the loop, and a part-filled one at the halt
    assert part.n_steps > 2 * ode._CHUNK and part.n_steps % ode._CHUNK
    assert m > part.n_steps


def test_step_limit_halt_keeps_the_samples_of_the_full_run(monkeypatch):
    full = integrate_adaptive(oscillator, [1.0, 0.0], DENSE_SAMPLES)
    assert full.completed and full.n_rejected == 0 and full.n_steps > 1000
    monkeypatch.setattr(ode, "_MAX_STEPS", 3 * ode._CHUNK + 8)
    part = integrate_adaptive(oscillator, [1.0, 0.0], DENSE_SAMPLES)
    assert part.halt_reason.startswith(f"step limit of {3 * ode._CHUNK + 8} attempts")
    assert_leading_samples_bitwise(part, full)


def test_blocked_halt_keeps_the_samples_of_the_free_run():
    # every call from the 7th of the 151st attempt on raises: the run can
    # only halve its step until it underflows
    calls = 0

    def walled(x, y):
        nonlocal calls
        calls += 1
        if calls > 2 + 15 * 150 + 6:
            raise Boom("blocked")
        return oscillator(x, y)

    full = integrate_adaptive(oscillator, [1.0, 0.0], DENSE_SAMPLES)
    part = integrate_adaptive(walled, [1.0, 0.0], DENSE_SAMPLES)
    assert part.halt_reason == "blocked" and part.n_steps == 150
    assert_leading_samples_bitwise(part, full)


def test_short_return_at_a_middle_stage_rejected():
    # zip would truncate the stage and numpy would broadcast the short row
    calls = 0

    def f(x, y):
        nonlocal calls
        calls += 1
        return [-y[0]] if calls == 4 else [-y[0], -y[1]]

    with pytest.raises(ConfigError, match="f returned 1 components for a 2-component state"):
        integrate_adaptive(f, np.array([1.0, 2.0]), [0.0, 1.0])


def test_long_return_at_the_fsal_stage_rejected_not_halted_on():
    # a wrong length is a ConfigError, raised outside the halving handler
    calls = 0

    def f(x, y):
        nonlocal calls
        calls += 1
        return [-y[0], -y[1], 0.0] if calls == 7 else [-y[0], -y[1]]

    with pytest.raises(ConfigError, match="f returned 3 components for a 2-component state"):
        integrate_adaptive(f, np.array([1.0, 2.0]), [0.0, 1.0])


def test_value_error_raised_by_f_propagates():
    calls = 0

    def f(x, y):
        nonlocal calls
        calls += 1
        if calls == 3:
            raise ValueError("f's own failure")
        return [-y[0], -y[1]]

    with pytest.raises(ValueError, match="f's own failure") as info:
        integrate_adaptive(f, np.array([1.0, 2.0]), [0.0, 1.0])
    assert type(info.value) is ValueError


def combination(row, ks, i):
    """sum_j a_j ks[j][i] over the tableau row's nonzero (j, a_j), left to right."""
    total = None
    for j, a in row:
        term = a * ks[j][i]
        total = term if total is None else total + term
    return total


def reference_attempt(f, x, h, y, k1, atol, rtol, points):
    """One step attempt as loops over the tableau and comprehensions over
    the components, with the interpolant at each of ``points`` (theta =
    (point - x) / h): the arithmetic of ode._attempt and ode._interpolate
    on Python floats."""
    dim = len(y)
    ks = [k1]

    def stage(s):
        return f(x + ode._C[s] * h, [v + h * combination(ode._A[s], ks, i)
                                     for i, v in enumerate(y)])

    for s in range(1, 12):
        ks.append(stage(s))
    b = [combination(ode._A[12], ks, i) for i in range(dim)]
    y8 = [v + h * bi for v, bi in zip(y, b)]
    s5 = s3 = 0.0
    for i in range(dim):
        sc = atol + rtol * max(abs(y[i]), abs(y8[i]))
        d5 = combination(ode._E5, ks, i) / sc
        d3 = (b[i] - combination(ode._BHH, ks, i)) / sc
        s5 += d5 * d5
        s3 += d3 * d3
    err = h * math.sqrt(s5 / ((1.0 + 0.01 * s3 / s5) * dim)) if s5 else 0.0
    if not err <= 1.0:
        return None, None, err, None
    ks.append(f(x + h, y8))
    if not points:
        return y8, ks[12], err, None
    for s in range(13, 16):
        ks.append(stage(s))
    rows = []
    for point in points:
        t = (point - x) / h
        row = []
        for i in range(dim):
            F0 = y8[i] - y[i]
            F1 = h * ks[0][i] - F0
            F2 = 2.0 * F0 - h * (ks[12][i] + ks[0][i])
            F3, F4, F5, F6 = (h * combination(list(zip(ode._DENSE_STAGES, d)), ks, i)
                              for d in ode._D.tolist())
            s = 1.0 - t
            row.append(y[i] + t * (F0 + s * (F1 + t * (F2 + s * (F3 + t * (F4 + s * (
                F5 + t * F6)))))))
        rows.append(row)
    return y8, ks[12], err, rows


def coupled(x, y):
    # nonlinear and mixing every component with the next, for any
    # dimension, and forced, so that f is not small where y is
    return [math.sin(x + v) * y[(i + 1) % len(y)] - 0.5 * v + math.cos(x + i)
            for i, v in enumerate(y)]


def hexes(value):
    """Bit patterns of a float, a list of floats or a list of rows; None as is."""
    if value is None or isinstance(value, float):
        return value if value is None else value.hex()
    return [hexes(v) for v in value]


@pytest.mark.parametrize("dim", [1, 2, 5, 7])
def test_attempt_is_bitwise_the_comprehension_arithmetic(dim):
    rng = np.random.default_rng(dim)
    attempt = ode._attempt(dim)
    outcomes = set()
    for _ in range(60):
        x, h = rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-4.0, 0.0)
        # y at most h in size, so that every bit of the interpolant's
        # coefficients reaches the samples
        y = (rng.normal(size=dim) * h * 10.0 ** rng.uniform(-3.0, 0.0)).tolist()
        k1 = rng.normal(size=dim).tolist()
        atol, rtol = 10.0 ** rng.uniform(-10.0, -4.0), 10.0 ** rng.uniform(-8.0, -2.0)
        points = np.sort(x + h * rng.uniform(0.0, 1.0, rng.integers(0, 3)))
        y8, k12, err, row = attempt(coupled, x, h, y, k1, atol, rtol, len(points) > 0)
        want = reference_attempt(coupled, x, h, y, k1, atol, rtol, points.tolist())
        if row is not None:
            # the samples formed from the returned row, as the driver forms them
            row = ode._interpolate(np.array(row)[:, None], np.array([x]), points,
                                   np.array([len(points)])).tolist()
        assert hexes([y8, k12, err, row]) == hexes(list(want))
        outcomes.add("rejected" if y8 is None else "samples" if row else "accepted")
    assert outcomes == {"rejected", "samples", "accepted"}


def test_interpolant_forms_each_sample_as_its_step_alone():
    # steps of one chunk share their numpy operations, yet no sample may
    # depend on which other steps it was formed with
    rng = np.random.default_rng(7)
    dim, n = 3, 5
    steps = rng.normal(size=(1 + 14 * dim, n))
    steps[0] = 10.0 ** rng.uniform(-3.0, 0.0, n)
    x = rng.uniform(-2.0, 2.0, n)
    counts = np.array([2, 1, 3, 1, 4])
    points = np.concatenate([np.sort(x[j] + steps[0, j] * rng.uniform(0.0, 1.0, c))
                             for j, c in enumerate(counts)])
    together = ode._interpolate(steps, x, points, counts)
    alone = np.concatenate([ode._interpolate(steps[:, j:j + 1], x[j:j + 1], part, [len(part)])
                            for j, part in enumerate(np.split(points, np.cumsum(counts)[:-1]))])
    assert together.shape == (len(points), dim)
    assert together.tobytes() == alone.tobytes()


@pytest.mark.parametrize("j", range(1, 16))
def test_halt_at_call_j_of_an_attempt_counts_j_calls(j):
    calls = 0

    def raising_at(call):
        def f(x, y):
            nonlocal calls
            calls += 1
            if calls == call:
                raise Boom(f"call {call}")
            return [y[1], -y[0]]
        return f

    # calls 1-11 are the stages, 12 f at the new point, 13-15 the interpolant's
    with pytest.raises(ode._Blocked) as info:
        ode._attempt(2)(raising_at(j), 0.0, 0.1, [1.0, 0.0], [0.0, -1.0], 1e-12, 1e-9, True)
    assert info.value.args[0] == j and str(info.value.args[1]) == f"call {j}"
    # call 1 is the initial k1, call 2 the starting-step probe: call 2 + j
    # falls in the first attempt, or for j > 12 in the first to hold a sample
    calls = 0
    res = integrate_adaptive(raising_at(2 + j), np.array([1.0, 0.0]), np.linspace(0.0, 1.0, 65))
    assert res.completed
    assert res.n_rhs == calls > 2 + j


def test_large_system_compiles_and_integrates():
    # a 3000-term sum written as one expression nests too deep for CPython's
    # compiler (RecursionError from 2993 terms on 3.11)
    dim = 3000
    res = integrate_adaptive(lambda x, y: [-v for v in y], np.ones(dim), [0.0, 1.0])
    assert res.completed
    assert np.allclose(res.y[-1], math.exp(-1.0), rtol=1e-8)
