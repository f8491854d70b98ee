import math

import numpy as np
import pytest

from conftest import REFERENCE
import ppsdyn.data
from ppsdyn.data import synthesize
from ppsdyn.errors import LineSearchFailed, NonFiniteLoss
from ppsdyn.model import ModelParams, State
from ppsdyn.optimize import (AdamState, _update_inverse, adam_run, adam_step,
                             bfgs_run, write_loss_csv)


def rand_quad(rng, n, lo, hi):
    """Random convex quadratic with controlled spectrum: the benchmark
    construction used across the optimizer checks."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = Q @ np.diag(rng.uniform(lo, hi, n)) @ Q.T
    c = rng.uniform(-1.0, 1.0, n)
    def fun(x):
        return float(0.5 * (x - c) @ A @ (x - c)), A @ (x - c)
    return fun, A, c


# ---------------------------------------------------------------- Adam

def square(x):
    return float(x[0] ** 2), 2.0 * x


def test_adam_scalar_quadratic_converges():
    theta, hist = adam_run(square, np.array([1.0]), alpha=0.1, num_steps=100)
    assert abs(theta[0]) < 0.05
    assert len(hist) == 100
    assert hist[0] == 1.0  # loss recorded before the first update


def test_adam_first_step_moves_by_alpha():
    alpha = 0.001
    state = AdamState.fresh(2)
    _, theta = adam_step(state, np.array([3.0, -7.0]), np.zeros(2), alpha)
    # bias correction makes the first step alpha * sign(g) up to epsilon
    assert theta == pytest.approx([-alpha, alpha], rel=1e-6)


def test_adam_sign_symmetry():
    theta_pos, hist_pos = adam_run(square, np.array([1.0]), alpha=0.05, num_steps=50)
    theta_neg, hist_neg = adam_run(square, np.array([-1.0]), alpha=0.05, num_steps=50)
    assert theta_pos[0] == -theta_neg[0]
    assert hist_pos == hist_neg


def test_adam_zero_gradient_is_a_fixed_point():
    theta, hist = adam_run(lambda x: (1.0, np.zeros_like(x)), np.array([2.0, -3.0]),
                           num_steps=20)
    assert theta == pytest.approx([2.0, -3.0], abs=0.0)
    assert hist == [1.0] * 20


def test_adam_benchmark_quadratics():
    for s in range(3):
        rng = np.random.default_rng(1000 + s)
        fun, _, c = rand_quad(rng, 14, 0.5, 3.0)
        theta0 = rng.uniform(-2.0, 2.0, 14)
        theta, hist = adam_run(fun, theta0, alpha=0.05, num_steps=500)
        assert np.linalg.norm(theta - c) < 0.1
        assert len(hist) == 500
        assert all(math.isfinite(v) for v in hist)


def test_adam_raises_on_nonfinite_loss_with_partial_history():
    calls = {"n": 0}

    def fun(x):
        calls["n"] += 1
        return (float("nan") if calls["n"] > 3 else float(x[0] ** 2)), 2.0 * x

    with pytest.raises(NonFiniteLoss) as info:
        adam_run(fun, np.array([1.0]), num_steps=50)
    assert info.value.history is not None
    assert 0 < len(info.value.history) < 50


def test_adam_config_validation():
    with pytest.raises(ValueError):
        adam_run(square, np.array([1.0]), alpha=0.0)
    with pytest.raises(ValueError):
        adam_run(square, np.array([1.0]), num_steps=-1)
    # zero-length runs allowed
    assert adam_run(square, np.array([1.0]), num_steps=0)[1] == []


# ---------------------------------------------------------------- BFGS

def sphere(x):
    return float(0.5 * x @ x), np.asarray(x)


def test_bfgs_sphere_single_step():
    x, hist = bfgs_run(sphere, np.array([3.0, 4.0]))
    assert hist == [12.5, 0.0]
    assert np.all(x == 0.0)


def test_bfgs_first_trial_is_polyaks_step_under_a_lower_bound():
    # at (3, 4) f = 12.5 and |g|^2 = 25, so the linear model reaches the
    # bound 0 at t = 0.5: the first candidate is (1.5, 2), not the minimum
    # the full step would land on; once that curvature pair is accepted the
    # quasi-Newton step is tried in full
    seen = []

    def fun(x):
        seen.append(x.tolist())
        return sphere(x)

    x, hist = bfgs_run(fun, np.array([3.0, 4.0]), lower_bound=0.0)
    assert seen[:2] == [[3.0, 4.0], [1.5, 2.0]]
    assert hist[:2] == [12.5, 3.125]
    assert len(hist) == 3 and np.linalg.norm(x) < 1e-12


def test_bfgs_start_below_the_lower_bound_is_rejected_before_any_line_search():
    calls = []

    def fun(x):
        calls.append(x.copy())
        return sphere(x)

    with pytest.raises(ValueError, match="lower_bound"):
        bfgs_run(fun, np.array([3.0, 4.0]), lower_bound=13.0)
    assert len(calls) == 1


def test_bfgs_benchmark_quadratics():
    for s in range(3):
        rng = np.random.default_rng(2000 + s)
        fun, _, c = rand_quad(rng, 10, 1.0, 10.0)
        x0 = rng.uniform(-2.0, 2.0, 10)
        x, hist = bfgs_run(fun, x0)
        assert len(hist) - 1 <= 30
        assert np.linalg.norm(x - c) < 1e-5


def test_bfgs_rosenbrock():
    def fun(x):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2), np.array([
            -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
            200.0 * (x[1] - x[0] ** 2),
        ])

    x, hist = bfgs_run(fun, np.array([-1.2, 1.0]))
    assert len(hist) - 1 <= 200
    assert x == pytest.approx([1.0, 1.0], abs=1e-5)
    assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))


def test_bfgs_history_nonincreasing_on_random_quadratics():
    for s in range(5):
        rng = np.random.default_rng(300 + s)
        fun, _, _ = rand_quad(rng, 6, 0.5, 5.0)
        _, hist = bfgs_run(fun, rng.uniform(-2.0, 2.0, 6))
        assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))


def test_bfgs_stationary_start_returns_immediately():
    x, hist = bfgs_run(sphere, np.zeros(3))
    assert hist == [0.0]
    assert np.all(x == 0.0)


def test_objective_requires_a_gradient():
    # an objective returns (value, gradient); a bare value cannot be unpacked
    with pytest.raises(TypeError):
        bfgs_run(lambda x: float(x @ x), np.ones(2))
    with pytest.raises(TypeError):
        adam_run(lambda x: float(x @ x), np.ones(2))


def test_bfgs_rejects_nonfinite_start():
    with pytest.raises(NonFiniteLoss):
        bfgs_run(lambda x: (float("inf"), np.zeros_like(x)), np.array([1.0]))
    with pytest.raises(NonFiniteLoss) as info:
        bfgs_run(lambda x: (1.0, np.full_like(x, np.nan)), np.array([1.0]))
    assert info.value.history == [1.0]


def test_bfgs_rejects_candidates_with_nonfinite_gradient():
    # the first full step lands at 0.5, where the value is finite and passes
    # the decrease test but the gradient is NaN; the line search must reject
    # it like an infinite value instead of feeding the NaN into B
    seen = []

    def fun(x):
        seen.append(float(x[0]))
        return float(0.75 * (x[0] - 1.0) ** 2), np.where(x < 0.9, np.nan, 1.5 * (x - 1.0))

    x, hist = bfgs_run(fun, np.array([2.0]))
    assert seen[:3] == [2.0, 0.5, 1.25]
    assert x == pytest.approx([1.0], abs=1e-12)
    assert hist[-1] == pytest.approx(0.0, abs=1e-24)
    assert all(math.isfinite(v) for v in hist)


def test_bfgs_line_search_failure_carries_last_iterate():
    # gradient deliberately points away from descent: every Armijo trial
    # fails and so does the steepest-descent retry
    with pytest.raises(LineSearchFailed) as info:
        bfgs_run(lambda x: (float(x[0]), np.array([-1.0])), np.array([0.0]))
    assert info.value.x is not None
    assert info.value.history is not None
    assert info.value.history[0] == 0.0


def test_bfgs_constant_objective_stops_on_step_tolerance():
    # Armijo accepts once the trial threshold underflows, so a flat
    # objective terminates by the step-size test instead of failing
    x, hist = bfgs_run(lambda x: (5.0, np.array([1.0])), np.array([1.0]))
    assert hist[-1] == 5.0
    assert abs(x[0] - 1.0) < 1e-9


def test_update_forms_preserve_symmetry():
    rng = np.random.default_rng(91)
    for _ in range(20):
        n = 5
        M = rng.standard_normal((n, n))
        A = M @ M.T + n * np.eye(n)
        B_inv = np.eye(n)
        for _ in range(15):
            s = rng.standard_normal(n)
            y = A @ s  # quadratic curvature pair, y.s > 0
            B_inv = _update_inverse(B_inv, s, y)
            assert np.max(np.abs(B_inv - B_inv.T)) < 1e-10


def test_inverse_update_satisfies_secant_equation():
    rng = np.random.default_rng(93)
    n = 4
    M = rng.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    B = np.eye(n)
    s = rng.standard_normal(n)
    y = A @ s
    B = _update_inverse(B, s, y)
    assert B @ y == pytest.approx(s, abs=1e-10)


def test_bfgs_config_validation():
    with pytest.raises(ValueError):
        bfgs_run(sphere, np.ones(2), max_iterations=0)


# (callee, the bad argument's name, the keyword arguments of the call)
BAD_NUMERIC_ARGUMENTS = [
    ("adam_run", "alpha", dict(alpha=math.nan)),
    ("adam_run", "alpha", dict(alpha=math.inf)),
    ("adam_run", "alpha", dict(alpha=True)),
    ("adam_run", "num_steps", dict(num_steps=True)),
    ("adam_run", "num_steps", dict(num_steps=2.5)),
    ("bfgs_run", "max_iterations", dict(max_iterations=2.5)),
    ("bfgs_run", "max_iterations", dict(max_iterations=math.nan)),
    ("bfgs_run", "max_iterations", dict(max_iterations=True)),
    ("bfgs_run", "lower_bound", dict(lower_bound=True)),
    ("bfgs_run", "lower_bound", dict(lower_bound=np.bool_(False))),
    ("bfgs_run", "lower_bound", dict(lower_bound=math.nan)),
    ("bfgs_run", "lower_bound", dict(lower_bound=math.inf)),
    ("bfgs_run", "lower_bound", dict(lower_bound=-math.inf)),
    ("synthesize", "noise_sigma", dict(noise_sigma=True)),
    ("synthesize", "seed", dict(seed=True)),
    ("synthesize", "seed", dict(seed=2.5)),
    ("synthesize", "seed", dict(noise_sigma=0.02, seed=2.5)),
    ("synthesize", "seed", dict(seed=-1)),
]


@pytest.mark.parametrize("callee, bad, kwargs", BAD_NUMERIC_ARGUMENTS,
                         ids=["-".join([c] + [f"{k}={v}" for k, v in kw.items()])
                              for c, _, kw in BAD_NUMERIC_ARGUMENTS])
def test_bad_numeric_argument_is_rejected_before_any_work(callee, bad, kwargs, monkeypatch):
    # a bool, NaN, inf, fraction or negative seed is a usage error at the
    # boundary: no objective evaluation, no integration, no numerical failure
    calls = []

    def fun(x):
        calls.append(x)
        return float(x @ x), 2.0 * x

    monkeypatch.setattr(ppsdyn.data, "integrate", lambda *args, **kw: calls.append(args))
    runs = {
        "adam_run": lambda: adam_run(fun, np.ones(2), **kwargs),
        "bfgs_run": lambda: bfgs_run(fun, np.ones(2), **kwargs),
        "synthesize": lambda: synthesize(ModelParams(**REFERENCE), State(4.991, 1.178, 0.577),
                                         np.linspace(0.0, 5.0, 10), **kwargs),
    }
    with pytest.raises(ValueError, match=bad):
        runs[callee]()
    assert calls == []


def test_write_loss_csv(tmp_path):
    path = tmp_path / "loss.csv"
    write_loss_csv([1.5, 0.25, 0.0625], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,loss"
    assert lines[1] == "0,1.5"
    assert len(lines) == 4
