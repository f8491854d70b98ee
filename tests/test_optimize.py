import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import REFERENCE
import ppsdyn
import ppsdyn.data
from ppsdyn.data import Dataset, synthesize
from ppsdyn.errors import LineSearchFailed, NonFiniteLoss
from ppsdyn.model import PARAM_ORDER, ModelParams, State
from ppsdyn.optimize import (AdamState, _update_inverse, adam_run, adam_step,
                             bfgs_run, write_loss_csv)
from ppsdyn.pinn import Mlp, estimate, grid_derivative, init_mlp, init_params, total_loss, train_pinn
from ppsdyn.solver import SolverConfig, Trajectory, detect_settling, integrate


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


# The table of every public function and constructor, each of its numeric
# arguments and each kind of bad value: nan, +-inf, bool, numpy's bool, a
# string, None, a value outside the argument's range and a wrong shape.  Each
# cell must raise the package's ValueError naming the argument before any
# work, with no warning.  A row is (callee, text the message holds, the
# keyword arguments of the call); the rows of ARGUMENT_RULES' scalar
# arguments follow these.
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
    # a start state, a grid, a parameter vector, layer widths and arrays
    ("synthesize", "initial state", dict(s0=(True, 1, 1))),
    ("synthesize", "initial state", dict(s0=("4", 1, 1))),
    ("synthesize", "initial state", dict(s0=(math.nan, 1, 1))),
    ("synthesize", "initial state", dict(s0=(-1.0, 1, 1))),
    ("synthesize", "initial state", dict(s0=(1, 1))),
    ("synthesize", "t_grid", dict(t_grid=[0.0, math.nan, 2.0])),
    ("synthesize", "t_grid", dict(t_grid=np.ones((3, 2)))),
    *(("integrate", "initial state", dict(s0=State(v, 1.0, 1.0)))
      for v in (math.nan, math.inf, True, np.False_, "1", None, -1.0)),
    *(("integrate", "initial", dict(s0=State(1.0, 1.0, 1.0, v)))
      for v in (math.nan, math.inf, -math.inf, True, np.False_, "0", None)),
    ("integrate", "initial state", dict(s0=(1.0, 1.0))),
    ("integrate", "initial state", dict(s0=(1.0, 1.0, 1.0, 0.0, 0.0))),
    ("integrate", "t_eval", dict(t_eval=[0.0, math.nan, 5.0])),
    ("integrate", "t_eval", dict(t_eval=np.ones((3, 2)))),
    ("ModelParams.from_array", "parameter r must", dict(values=["1"] * 14)),
    ("ModelParams.from_array", "parameter r must", dict(values=[True] + [1.0] * 13)),
    ("ModelParams.from_array", "parameter r must", dict(values=[np.True_] + [1.0] * 13)),
    ("ModelParams.from_array", "parameter r must", dict(values=[None] + [1.0] * 13)),
    ("ModelParams.from_array", "parameter r must", dict(values=np.full(14, math.nan))),
    ("ModelParams.from_array", "14 parameters", dict(values=np.ones(13))),
    ("ModelParams.from_array", "parameter r must", dict(values=np.ones((14, 1)))),
    ("total_loss", "parameter r must", dict(p=np.ones(14, dtype=bool))),
    ("total_loss", "parameter r must", dict(p=["1"] * 14)),
    ("total_loss", "parameter r must", dict(p=np.full(14, math.inf))),
    ("total_loss", "14 parameters", dict(p=np.ones(13))),
    *(("Mlp", "sizes", dict(sizes=[2, v])) for v in (2.5, True, np.False_, "2", None, 0)),
    ("Mlp", "widths", dict(sizes=[2])),
    ("Mlp", "theta", dict(sizes=[2, 2], theta=np.ones(5))),
    ("init_mlp", "sizes", dict(sizes=[14, 0, 14])),
    ("grid_derivative", "times must be", dict(times=np.ones((3, 2)))),
    ("grid_derivative", "values", dict(values=np.zeros((4, 3)))),
    ("grid_derivative", "times and values", dict(times=[0.0, 1.0, math.nan, 3.0, 4.0])),
    ("grid_derivative", "times and values", dict(values=np.full((5, 3), math.inf))),
    ("Dataset", "times", dict(times=[0.0, math.nan, 1.0])),
    ("Dataset", "times", dict(times=np.ones((3, 3)))),
    ("Dataset", "observations", dict(observations=np.full((3, 3), math.nan))),
    ("Dataset", "observations", dict(observations=np.zeros((3, 2)))),
    ("Dataset", "mins", dict(mins=[0.0, -math.inf, 0.0])),
    ("Dataset", "maxs", dict(maxs=[1.0, math.nan, 1.0])),
    ("Dataset", "mins", dict(mins=[0.0, 0.0])),
]

# each scalar argument and its rule: a real that is "finite", "positive" or
# "nonnegative", or an integer at least this value
ARGUMENT_RULES = [
    ("adam_run", "alpha", "positive"), ("adam_run", "num_steps", 0),
    ("bfgs_run", "max_iterations", 1), ("bfgs_run", "lower_bound", "finite"),
    ("synthesize", "noise_sigma", "nonnegative"), ("synthesize", "seed", 0),
    ("SolverConfig", "t_end", "finite"), ("SolverConfig", "step", "positive"),
    ("SolverConfig", "tol", "positive"), ("SolverConfig", "max_steps", 1),
    ("SolverConfig", "overflow_limit", "positive"), ("SolverConfig", "stiff_test_every", 1),
    ("detect_settling", "window", "nonnegative"), ("detect_settling", "tol", "positive"),
    ("Dataset", "t_start", "finite"), ("Dataset", "t_end", "finite"),
    ("init_params", "seed", 0), ("total_loss", "tol", "positive"),
    ("train_pinn", "seed", 0), ("train_pinn", "epochs", 0),
    ("estimate", "seed", 0), ("estimate", "epochs", 0), ("estimate", "bfgs_iterations", 1),
    *(("ModelParams", name, "positive") for name in PARAM_ORDER),
]

# cells of the table's callees that are valid by design, with the reason;
# test_valid_by_design_cells_are_taken runs each.  Beyond these, an array
# argument (times, observations, mins, maxs, t_grid, t_eval, theta, values)
# is read by numpy's float conversion, so its cells are nan, inf and shape,
# and an optimizer's start x0 is the objective's to judge (NonFiniteLoss).
VALID_BY_DESIGN = [
    ("SolverConfig", dict(step=None), "rk45 chooses its own first step"),
    ("SolverConfig", dict(stiff_test_every=None), "the default: no stiffness test"),
    ("SolverConfig", dict(t_end=-1), "an int, and a backward run"),
    ("bfgs_run", dict(lower_bound=None), "no bound: every first trial is the full step"),
    ("bfgs_run", dict(lower_bound=-1), "any finite bound, an int among them"),
    ("integrate", dict(s0=State(1.0, 1.0, 1.0, 0)), "a start time may be an int"),
    ("integrate", dict(s0=State(1.0, 1.0, 1.0, -1.0)), "a start time may be negative"),
    ("integrate", dict(s0=(np.float32(1), 1, 1)), "ints and numpy numbers are numbers"),
    ("init_params", dict(seed=np.random.default_rng(0)), "a Generator is drawn from"),
    ("init_params", dict(seed=np.uint8(3)), "numpy integers are integers"),
    ("adam_run", dict(alpha=np.float32(0.1), num_steps=np.int64(2)), "numpy numbers"),
    ("ModelParams.from_array", dict(values=np.ones(14, dtype=np.float32)), "any float vector"),
    ("Dataset", dict(t_start=np.float64(-1.0)), "numpy numbers"),
    ("grid_derivative", dict(values=np.zeros((5, 3), dtype=bool)), "numpy's float conversion"),
]

# the public callables with no numeric argument of their own to check, with
# the reason
NOT_IN_THE_TABLE = {
    **dict.fromkeys(["holling3", "adam_step", "forward", "backward", "jacobian", "normalize",
                     "denormalize"], "an arithmetic kernel: nan in, nan out"),
    **dict.fromkeys(["rhs", "rhs_subsystem"],
                    "a kernel: a non-finite derivative is NumericalOverflow, whatever made it"),
    "routh_hurwitz_cubic": "a kernel on coefficients classify takes from a checked ModelParams;"
                           " nan raises numpy's LinAlgError, a ValueError",
    "positive_real_roots": "a kernel on the polynomial interior_poly_coeffs checks finite",
    **dict.fromkeys(["make_rhs", "all_equilibria", "interior_equilibrium_direct",
                     "interior_poly_coeffs", "interior_poly_crosscheck", "predprey_equilibria",
                     "predscav_equilibria", "scavprey_equilibria", "classify", "data_derivative",
                     "ingest", "SpeciesMap", "write_loss_csv"],
                    "takes a ModelParams, Dataset, path or map, each checked where it is built"),
    **dict.fromkeys(["State", "Derivative", "Equilibrium", "ExistenceCheck", "AdamState",
                     "EstimationReport", "TraceRow", "Diagnostics", "Trajectory",
                     "StabilityVerdict", "Subsystem"],
                    "a record of values: the functions that read it check them"),
}


def _bad_values(rule):
    """The bad values of each kind for an argument of this rule."""
    values = [math.nan, math.inf, -math.inf, True, np.False_, "1", None]
    if isinstance(rule, int):
        return values + [2.5, rule - 1]
    return values + {"finite": [], "positive": [0.0], "nonnegative": [-1.0]}[rule]


def _cell_id(callee, kwargs):
    shown = {k: (f"{v.dtype}{v.shape}" if isinstance(v, np.ndarray)
                 else repr(v) if isinstance(v, str) else v) for k, v in kwargs.items()}
    return "-".join([callee] + [f"{k}={v}" for k, v in shown.items()])


_IDS = [_cell_id(c, kw) for c, _, kw in BAD_NUMERIC_ARGUMENTS]
_VALID_IDS = [_cell_id(c, kw) for c, kw, _ in VALID_BY_DESIGN]
for callee, name, rule in ARGUMENT_RULES:
    for value in _bad_values(rule):
        cell = (callee, f"{name} must" if callee != "ModelParams" else f"parameter {name} must",
                {name: value})
        # the cells written out above keep their rows
        if _cell_id(callee, cell[2]) not in _IDS + _VALID_IDS:
            BAD_NUMERIC_ARGUMENTS.append(cell)
            _IDS.append(_cell_id(callee, cell[2]))
assert len(set(_IDS)) == len(_IDS)


def _runs(fun, ds):
    """Each callee of the table, called with the keyword arguments of a cell
    over a base call that runs."""
    p, start, grid = ModelParams(**REFERENCE), State(4.991, 1.178, 0.577), np.linspace(0.0, 5.0, 10)
    tiny = dict(times=[0.0, 0.5, 1.0], observations=np.eye(3), mins=np.zeros(3), maxs=np.ones(3),
                t_start=0.0, t_end=1.0)
    settled = Trajectory(np.linspace(0.0, 1.0, 5), np.ones((5, 3)))
    return {
        "adam_run": lambda kw: adam_run(fun, np.ones(2), **kw),
        "bfgs_run": lambda kw: bfgs_run(fun, np.ones(2), **kw),
        "synthesize": lambda kw: synthesize(**{"p": p, "s0": start, "t_grid": grid, **kw}),
        "SolverConfig": lambda kw: SolverConfig(**{"t_end": 5.0, **kw}),
        "integrate": lambda kw: integrate(**{"p": p, "s0": start, "cfg": SolverConfig(t_end=5.0),
                                             **kw}),
        "detect_settling": lambda kw: detect_settling(**{"traj": settled, "window": 0.5,
                                                         "tol": 1e-2, **kw}),
        "Dataset": lambda kw: Dataset(**{**tiny, **kw}),
        "ModelParams": lambda kw: ModelParams(**{**REFERENCE, **kw}),
        "ModelParams.from_array": lambda kw: ModelParams.from_array(**kw),
        "Mlp": lambda kw: Mlp(**kw),
        "init_mlp": lambda kw: init_mlp(np.random.default_rng(0), **kw),
        "init_params": lambda kw: init_params(**kw),
        "grid_derivative": lambda kw: grid_derivative(**{"times": np.arange(5.0),
                                                         "values": np.zeros((5, 3)), **kw}),
        "total_loss": lambda kw: total_loss(**{"p": np.ones(14), "ds": ds, **kw}),
        "train_pinn": lambda kw: train_pinn(**{"ds": ds, "seed": 0, **kw}),
        "estimate": lambda kw: estimate(**{"ds": ds, "seed": 0, **kw}),
    }


def _sphere(calls):
    def fun(x):
        calls.append(x)
        return float(x @ x), 2.0 * x
    return fun


@pytest.mark.parametrize("callee, bad, kwargs", BAD_NUMERIC_ARGUMENTS, ids=_IDS)
def test_bad_numeric_argument_is_rejected_before_any_work(callee, bad, kwargs, monkeypatch,
                                                          reference_dataset):
    # a bool, NaN, inf, string, None, fraction, out-of-range value or wrong
    # shape is a usage error at the boundary: no objective evaluation, no
    # integration, no training, no numerical failure and no warning
    calls = []
    for work in ("ppsdyn.data.integrate", "ppsdyn.solver.make_rhs", "ppsdyn.pinn._train"):
        monkeypatch.setattr(work, lambda *args, **kw: calls.append(args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=bad):
            _runs(_sphere(calls), reference_dataset)[callee](kwargs)
    assert calls == []


@pytest.mark.parametrize("callee, kwargs, reason", VALID_BY_DESIGN, ids=_VALID_IDS)
def test_valid_by_design_cells_are_taken(callee, kwargs, reason, reference_dataset):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _runs(_sphere([]), reference_dataset)[callee](kwargs)


def test_an_int_beyond_the_float_range_is_refused_by_the_rule():
    # float() of it raises OverflowError, which is not a usage error
    with pytest.raises(ValueError, match="t_end must"):
        SolverConfig(t_end=2 ** 1024)
    with pytest.raises(ValueError, match="parameter k must"):
        ModelParams(**{**REFERENCE, "k": -2 ** 1024})


def test_the_table_holds_every_public_entry_point():
    public = {name for name, value in vars(ppsdyn).items()
              if callable(value) and not name.startswith("_")
              and not (isinstance(value, type) and issubclass(value, Exception))}
    callees = {callee.split(".")[0] for callee, _, _ in BAD_NUMERIC_ARGUMENTS}
    assert callees.isdisjoint(NOT_IN_THE_TABLE)
    assert callees | set(NOT_IN_THE_TABLE) == public


_SCALAR_TYPES = {"bool", "bool_", "Integral", "Real"}


def _scalar_type_tests(source) -> list:
    """The lines of the isinstance calls in source whose type, or one of
    whose types, is bool, np.bool_, Integral or Real, by name or attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if getattr(getattr(node, "func", None), "id", None) != "isinstance" or len(node.args) < 2:
            continue
        kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
        if any(getattr(k, "id", getattr(k, "attr", None)) in _SCALAR_TYPES for k in kinds):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source, found", [
    ("isinstance(v, bool)", True), ("isinstance(v, (int, np.bool_))", True),
    ("isinstance(v, numbers.Real)", True), ("isinstance(v, Integral)", True),
    ("isinstance(v, float)", False), ("isinstance(seed, np.random.Generator)", False),
    ("type(v) is bool", False),
])
def test_the_scalar_type_scan_finds_what_it_names(source, found):
    assert bool(_scalar_type_tests(source)) == found


def test_only_the_errors_module_tests_for_bools_and_numbers():
    # errors.integer and errors.real are the package's one rule for each
    # kind of scalar argument; a test of its own elsewhere is a second copy
    package = Path(ppsdyn.__file__).parent
    found = {path.name: _scalar_type_tests(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert found.pop("errors.py")
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_write_loss_csv(tmp_path):
    path = tmp_path / "loss.csv"
    write_loss_csv([1.5, 0.25, 0.0625], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,loss"
    assert lines[1] == "0,1.5"
    assert len(lines) == 4
