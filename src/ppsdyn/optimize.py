"""Adam and BFGS minimizers over real parameter vectors.

Both optimizers are deterministic given their inputs and know nothing about
the model.  An objective is one callable, fun(theta) -> (value, gradient),
so a caller whose value and gradient come from the same computation pays
for it once per point.

BFGS's line search tries the full quasi-Newton step first.  While its
inverse Hessian is still the identity, the step is the raw negative
gradient, whose length has no relation to the objective's scale; a caller
that knows a lower bound on the objective (0 for a sum of squares) passes
it, and the first trial there is Polyak's step, where the linear model
reaches the bound, t = (f - lower_bound)/|g|^2, when that is shorter than
the full step (Polyak, Introduction to Optimization, 1987, 5.3).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._files import rewrite
from .errors import LineSearchFailed, NonFiniteLoss, integer, real

CURVATURE_FLOOR = 1e-12
# Adam's moment decay rates and the term inside its square root
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8
# BFGS stops when the gradient norm or the accepted step falls below these
GRADIENT_TOLERANCE, STEP_TOLERANCE = 1e-6, 1e-10
# backtracking Armijo line search: the longest first trial step, the factor
# each halving applies, the sufficient-decrease constant and the halving
# budget
INITIAL_STEP, SHRINK, SUFFICIENT_DECREASE, MAX_HALVINGS = 1.0, 0.5, 1e-4, 60


class AdamState(NamedTuple):
    m: np.ndarray
    v: np.ndarray
    t: int

    @classmethod
    def fresh(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n), 0)


def _evaluate(fun, theta):
    value, grad = fun(theta)
    return float(value), np.asarray(grad, dtype=float)


def adam_step(state: AdamState, grad, theta, alpha: float):
    """One Adam update of step size alpha; returns (new state, new theta).

    The step counter increments before the bias corrections, and epsilon
    sits inside the square root.
    """
    g = np.asarray(grad, dtype=float)
    theta = np.asarray(theta, dtype=float)
    t = state.t + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    return AdamState(m, v, t), theta - alpha * m_hat / np.sqrt(v_hat + ADAM_EPSILON)


def adam_run(fun, theta0, alpha: float = 0.001, num_steps: int = 100):
    """Run num_steps Adam updates; returns (theta, per-step loss history).

    The loss is recorded at the pre-update iterate, so the history has
    exactly num_steps entries and history[0] is the loss at theta0.
    """
    alpha = real("alpha", alpha, "positive")
    integer("num_steps", num_steps, 0)
    theta = np.asarray(theta0, dtype=float).copy()
    state = AdamState.fresh(theta.size)
    history: list = []
    for _ in range(num_steps):
        loss, g = _evaluate(fun, theta)
        if not math.isfinite(loss):
            raise NonFiniteLoss(
                f"objective non-finite at step {len(history)}", history=history
            )
        history.append(loss)
        if not np.isfinite(g).all():
            raise NonFiniteLoss(
                f"gradient non-finite at step {len(history) - 1}", history=history
            )
        state, theta = adam_step(state, g, theta, alpha)
    return theta, history


def _update_inverse(B: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    rho = 1.0 / float(y @ s)
    V = np.eye(B.shape[0]) - rho * np.outer(s, y)
    return V @ B @ V.T + rho * np.outer(s, s)


def _line_search(fun, x, fx, g, p, t):
    # backtracking Armijo from the first trial step t; returns (candidate,
    # value, gradient) or None after the halving budget is spent.  A
    # candidate whose value or gradient is non-finite is rejected like one
    # that fails the decrease test.
    slope = float(g @ p)
    for _ in range(MAX_HALVINGS + 1):
        cand = x + t * p
        f_new, g_new = _evaluate(fun, cand)
        if (math.isfinite(f_new) and f_new <= fx + SUFFICIENT_DECREASE * t * slope
                and np.isfinite(g_new).all()):
            return cand, f_new, g_new
        t *= SHRINK
    return None


def bfgs_run(fun, x0, max_iterations: int = 200, lower_bound=None):
    """Quasi-Newton minimization from x0; returns (x, loss history).

    fun is called once per point: at x0 and at each line-search candidate.
    history[0] is the loss at x0 and one entry is appended per accepted
    iterate, so the history is nonincreasing.  Stops on gradient norm,
    step size, or the iteration budget.  If the BFGS direction fails the
    line search, B is reset to the identity and steepest descent is tried
    once; LineSearchFailed (carrying the last iterate and history) is
    raised only if that also finds no acceptable step.

    lower_bound, if given, is a finite number the objective never goes
    below.  While B is the identity (until the first curvature pair is
    accepted, and in the steepest-descent retry after a reset) the line
    search along p = -g then starts from Polyak's step,
    min(1, (f - lower_bound)/|g|^2), instead of 1; an f(x0) below the bound
    raises ValueError.  Without it every first trial is the full step.
    """
    integer("max_iterations", max_iterations, 1)
    if lower_bound is not None:
        lower_bound = real("lower_bound", lower_bound)
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    B = np.eye(n)
    fx, g = _evaluate(fun, x)
    if not math.isfinite(fx):
        raise NonFiniteLoss("objective non-finite at x0", history=[])
    if lower_bound is not None and fx < lower_bound:
        raise ValueError(f"objective at x0, {fx!r}, is below lower_bound {lower_bound!r}")
    history = [fx]
    if not np.isfinite(g).all():
        raise NonFiniteLoss("gradient non-finite at x0", history=history)
    if np.linalg.norm(g) < GRADIENT_TOLERANCE:
        return x, history
    await_rescale = True
    for _ in range(max_iterations):
        p = -B @ g
        if float(g @ p) >= 0.0:
            p = -g
        # the first trial along p = -g, the direction while B is the identity
        polyak = (INITIAL_STEP if lower_bound is None
                  else min(INITIAL_STEP, (fx - lower_bound) / float(g @ g)))
        trial = _line_search(fun, x, fx, g, p, polyak if await_rescale else INITIAL_STEP)
        if trial is None:
            B = np.eye(n)
            await_rescale = True
            trial = _line_search(fun, x, fx, g, -g, polyak)
            if trial is None:
                raise LineSearchFailed(
                    f"no acceptable step after {MAX_HALVINGS} halvings",
                    x=x,
                    history=history,
                )
        x_new, f_new, g_new = trial
        s = x_new - x
        y = g_new - g
        ys = float(y @ s)
        if ys > CURVATURE_FLOOR:
            if await_rescale:
                yy = float(y @ y)
                if yy > 0.0:
                    # match B's scale to the local curvature before trusting
                    # the first rank-two update
                    B = B * (ys / yy)
                await_rescale = False
            B = _update_inverse(B, s, y)
        x, fx, g = x_new, f_new, g_new
        history.append(fx)
        if np.linalg.norm(g) < GRADIENT_TOLERANCE:
            break
        if np.linalg.norm(s) < STEP_TOLERANCE:
            break
    return x, history


def write_loss_csv(history, path) -> None:
    with rewrite(path) as fh:
        fh.write("step,loss\n")
        for step, loss in enumerate(history):
            fh.write(f"{step},{loss!r}\n")
