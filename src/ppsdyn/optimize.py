"""Adam and BFGS minimizers over real parameter vectors.

Both optimizers are deterministic given their inputs and know nothing about
the model; objectives are supplied as callables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import LineSearchFailed, NonFiniteLoss

CURVATURE_FLOOR = 1e-12
# Adam's moment decay rates and the term inside its square root
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8
# BFGS stops when the gradient norm or the accepted step falls below these
GRADIENT_TOLERANCE, STEP_TOLERANCE = 1e-6, 1e-10
# backtracking Armijo line search: the first trial step, the factor each
# halving applies, the sufficient-decrease constant and the halving budget
INITIAL_STEP, SHRINK, SUFFICIENT_DECREASE, MAX_HALVINGS = 1.0, 0.5, 1e-4, 60


@dataclass(frozen=True)
class AdamConfig:
    alpha: float = 0.001
    num_steps: int = 100

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.num_steps < 0:
            raise ValueError("num_steps must be nonnegative")


class AdamState(NamedTuple):
    m: np.ndarray
    v: np.ndarray
    t: int

    @classmethod
    def fresh(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n), 0)


@dataclass(frozen=True)
class BfgsConfig:
    max_iterations: int = 200
    # applied to every line-search candidate; lets callers keep iterates in a
    # feasible set (e.g. positivity floors) without the optimizer knowing why
    project: Optional[Callable] = None

    def __post_init__(self):
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")


@dataclass
class Objective:
    """Evaluation contract: value(theta) -> scalar, gradient(theta) -> vector."""

    fn: Callable
    grad: Callable

    def value(self, theta) -> float:
        return float(self.fn(np.asarray(theta, dtype=float)))

    def gradient(self, theta) -> np.ndarray:
        return np.asarray(self.grad(np.asarray(theta, dtype=float)), dtype=float)


def adam_step(state: AdamState, grad, theta, cfg: AdamConfig):
    """One Adam update; returns (new state, new theta).

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
    return AdamState(m, v, t), theta - cfg.alpha * m_hat / np.sqrt(v_hat + ADAM_EPSILON)


def adam_run(obj: Objective, theta0, cfg: AdamConfig):
    """Run cfg.num_steps Adam updates; returns (theta, per-step loss history).

    The loss is recorded at the pre-update iterate, so the history has
    exactly num_steps entries and history[0] is the loss at theta0.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    state = AdamState.fresh(theta.size)
    history: list = []
    for _ in range(cfg.num_steps):
        loss = obj.value(theta)
        if not math.isfinite(loss):
            raise NonFiniteLoss(
                f"objective non-finite at step {len(history)}", history=history
            )
        history.append(loss)
        g = obj.gradient(theta)
        if not np.all(np.isfinite(g)):
            raise NonFiniteLoss(
                f"gradient non-finite at step {len(history) - 1}", history=history
            )
        state, theta = adam_step(state, g, theta, cfg)
    return theta, history


def _update_inverse(B: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    rho = 1.0 / float(y @ s)
    V = np.eye(B.shape[0]) - rho * np.outer(s, y)
    return V @ B @ V.T + rho * np.outer(s, s)


def _line_search(obj, x, fx, g, p, cfg):
    # backtracking Armijo; returns (candidate, value) or None after the
    # halving budget is spent
    slope = float(g @ p)
    t = INITIAL_STEP
    for _ in range(MAX_HALVINGS + 1):
        cand = x + t * p
        if cfg.project is not None:
            cand = np.asarray(cfg.project(cand), dtype=float)
        f_new = obj.value(cand)
        if math.isfinite(f_new) and f_new <= fx + SUFFICIENT_DECREASE * t * slope:
            return cand, f_new
        t *= SHRINK
    return None


def bfgs_run(obj: Objective, x0, cfg: Optional[BfgsConfig] = None):
    """Quasi-Newton minimization from x0; returns (x, loss history).

    history[0] is the loss at x0 and one entry is appended per accepted
    iterate, so the history is nonincreasing.  Stops on gradient norm,
    step size, or the iteration budget.  If the BFGS direction fails the
    line search, B is reset to the identity and steepest descent is tried
    once; LineSearchFailed (carrying the last iterate and history) is
    raised only if that also finds no acceptable step.
    """
    cfg = cfg or BfgsConfig()
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    B = np.eye(n)
    fx = obj.value(x)
    if not math.isfinite(fx):
        raise NonFiniteLoss("objective non-finite at x0", history=[])
    g = obj.gradient(x)
    history = [fx]
    if np.linalg.norm(g) < GRADIENT_TOLERANCE:
        return x, history
    await_rescale = True
    for _ in range(cfg.max_iterations):
        p = -B @ g
        if float(g @ p) >= 0.0:
            p = -g
        trial = _line_search(obj, x, fx, g, p, cfg)
        if trial is None:
            B = np.eye(n)
            await_rescale = True
            trial = _line_search(obj, x, fx, g, -g, cfg)
            if trial is None:
                raise LineSearchFailed(
                    f"no acceptable step after {MAX_HALVINGS} halvings",
                    x=x,
                    history=history,
                )
        x_new, f_new = trial
        g_new = obj.gradient(x_new)
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,loss\n")
        for step, loss in enumerate(history):
            fh.write(f"{step},{loss!r}\n")
