import math

import numpy as np
import pytest

from qfluid.errors import ConfigError, StepUnderflowError
from qfluid.ode import integrate_adaptive


def test_exponential_decay_accuracy():
    res = integrate_adaptive(lambda x, y: [-y[0]], np.array([1.0]), 5.0, rtol=1e-10,
                             atol=1e-14)
    assert res.completed
    assert res.y[-1, 0] == pytest.approx(math.exp(-5.0), rel=1e-8)


def test_f_gets_a_list_of_floats_and_may_return_a_list_or_an_array():
    seen = []

    def as_list(x, y):
        seen.append(y)
        return [y[1], -y[0]]

    kwargs = dict(rtol=1e-9, atol=1e-12, sample_points=np.linspace(0.0, 3.0, 7))
    res_list = integrate_adaptive(as_list, np.array([1.0, 0.0]), 3.0, **kwargs)
    res_array = integrate_adaptive(lambda x, y: np.array([y[1], -y[0]]),
                                   np.array([1.0, 0.0]), 3.0, **kwargs)
    assert len(seen) == res_list.n_rhs > 1
    assert all(type(y) is list and all(type(v) is float for v in y) for y in seen)
    assert np.array_equal(res_list.x, res_array.x)
    assert np.array_equal(res_list.y, res_array.y)
    assert (res_list.n_steps, res_list.n_rejected, res_list.n_rhs) == \
        (res_array.n_steps, res_array.n_rejected, res_array.n_rhs)


def test_harmonic_oscillator_samples_hit_exactly():
    samples = np.linspace(0.0, 2.0 * math.pi, 17)
    res = integrate_adaptive(lambda x, y: np.array([y[1], -y[0]]),
                             np.array([1.0, 0.0]), 2.0 * math.pi,
                             rtol=1e-11, atol=1e-13, sample_points=samples)
    assert np.array_equal(res.x, samples)
    assert np.allclose(res.y[:, 0], np.cos(samples), atol=1e-8)
    assert res.y[-1, 0] == pytest.approx(1.0, abs=1e-9)


def test_five_dimensional_linear_system_matches_closed_form():
    # two rotations at different rates and one decay, each exact in closed form
    w1, w2, lam = 1.0, 2.7, 0.3
    y0 = np.array([1.0, 0.5, -0.3, 2.0, 1.5])
    samples = np.linspace(0.0, 10.0, 41)
    res = integrate_adaptive(
        lambda x, y: np.array([w1 * y[1], -w1 * y[0], w2 * y[3], -w2 * y[2], -lam * y[4]]),
        y0, 10.0, rtol=1e-13, atol=1e-16, sample_points=samples)
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
        res = integrate_adaptive(lambda x, y: np.array([y[1], -y[0]]),
                                 np.array([1.0, 0.0]), 4.0 * math.pi,
                                 rtol=tol, atol=tol * 1e-3,
                                 sample_points=np.array([0.0, 4.0 * math.pi]))
        errs.append(abs(res.y[-1, 0] - 1.0))
    assert errs[0] > errs[1] > errs[2]


def test_fsal_costs_six_calls_per_step_attempt():
    calls = 0

    def f(x, y):
        nonlocal calls
        calls += 1
        return np.array([y[1], -y[0]])

    res = integrate_adaptive(f, np.array([1.0, 0.0]), 20.0, rtol=1e-9, atol=1e-12,
                             sample_points=np.array([0.0, 20.0]))
    assert res.completed and res.n_steps > 0 and res.n_rejected > 0
    # one call for the initial step guess, six per accepted or rejected attempt
    assert calls == 1 + 6 * (res.n_steps + res.n_rejected)
    assert res.n_rhs == calls


def test_non_finite_rhs_ends_in_step_underflow():
    calls = 0

    def f(x, y):
        nonlocal calls
        calls += 1
        if calls > 10_000:
            pytest.fail("the controller keeps retrying a nan error estimate")
        return np.array([math.nan])

    with pytest.raises(StepUnderflowError):
        integrate_adaptive(f, np.array([1.0]), 1.0)


def test_step_underflow_carries_the_partial_trajectory():
    # y' = y^2 from y(0) = 1 blows up at x = 1: error control alone shrinks
    # the step to nothing there
    calls = 0

    def f(x, y):
        nonlocal calls
        calls += 1
        return [y[0] * y[0]]

    with pytest.raises(StepUnderflowError) as err:
        integrate_adaptive(f, np.array([1.0]), 2.0, sample_points=np.linspace(0.0, 2.0, 9))
    part = err.value.partial
    assert part.halt_reason == str(err.value) and "underflow" in part.halt_reason
    assert np.array_equal(part.x[:4], [0.0, 0.25, 0.5, 0.75]) and 0.75 < part.x[-1] < 1.0
    assert part.y[3, 0] == pytest.approx(4.0, rel=1e-8)
    assert part.n_rhs == calls == 1 + 6 * (part.n_steps + part.n_rejected)


class Boom(RuntimeError):
    pass


def test_halting_exception_returns_partial():
    def f(x, y):
        if x > 1.0:
            raise Boom(f"wall at x = {x:.3f}")
        return np.array([1.0])

    calls = 0

    def counted(x, y):
        nonlocal calls
        calls += 1
        return f(x, y)

    res = integrate_adaptive(counted, np.array([0.0]), 3.0, rtol=1e-8,
                             sample_points=np.linspace(0, 3, 31), halt_on=(Boom,))
    assert not res.completed
    assert res.n_rhs == calls   # including the calls that raised
    assert "wall" in res.halt_reason
    assert 0.9 < res.x[-1] <= 1.0 + 1e-6


def test_invalid_spans_rejected():
    with pytest.raises(ConfigError):
        integrate_adaptive(lambda x, y: -y, np.array([1.0]), 0.0)
    with pytest.raises(ConfigError):
        integrate_adaptive(lambda x, y: -y, np.array([1.0]), 1.0,
                           sample_points=np.array([0.0, 2.0]))


def test_rhs_of_wrong_length_rejected():
    with pytest.raises(ConfigError, match="3 components for a 2-component state"):
        integrate_adaptive(lambda x, y: np.zeros(3), np.array([1.0, 0.0]), 1.0)
