import math

import numpy as np
import pytest

from qfluid.errors import ConfigError
from qfluid.ode import integrate_adaptive


def test_exponential_decay_accuracy():
    res = integrate_adaptive(lambda x, y: -y, np.array([1.0]), 5.0, rtol=1e-10,
                             atol=1e-14)
    assert res.completed
    assert res.y[-1, 0] == pytest.approx(math.exp(-5.0), rel=1e-8)


def test_harmonic_oscillator_samples_hit_exactly():
    samples = np.linspace(0.0, 2.0 * math.pi, 17)
    res = integrate_adaptive(lambda x, y: np.array([y[1], -y[0]]),
                             np.array([1.0, 0.0]), 2.0 * math.pi,
                             rtol=1e-11, atol=1e-13, sample_points=samples)
    assert np.array_equal(res.x, samples)
    assert np.allclose(res.y[:, 0], np.cos(samples), atol=1e-8)
    assert res.y[-1, 0] == pytest.approx(1.0, abs=1e-9)


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


class Boom(RuntimeError):
    pass


def test_halting_exception_returns_partial():
    def f(x, y):
        if x > 1.0:
            raise Boom(f"wall at x = {x:.3f}")
        return np.array([1.0])

    res = integrate_adaptive(f, np.array([0.0]), 3.0, rtol=1e-8,
                             sample_points=np.linspace(0, 3, 31), halt_on=(Boom,))
    assert not res.completed
    assert "wall" in res.halt_reason
    assert 0.9 < res.x[-1] <= 1.0 + 1e-6


def test_invalid_spans_rejected():
    with pytest.raises(ConfigError):
        integrate_adaptive(lambda x, y: -y, np.array([1.0]), 0.0)
    with pytest.raises(ConfigError):
        integrate_adaptive(lambda x, y: -y, np.array([1.0]), 1.0,
                           sample_points=np.array([0.0, 2.0]))
