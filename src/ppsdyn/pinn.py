"""Parameter estimation: a small MLP trained against an ODE-fit loss, then a
quasi-Newton polish on the parameters themselves.

Both stages work in the log-parameters u = log p.  The network maps a
fixed lognormal-initialized 14-vector to u through a linear readout; its
weights and biases are views of one flat vector, which optimize.adam_run
trains on the network stage's loss, MSE + PIE (_network_term; total_loss is
the same sum for library callers).  The MSE, the misfit, compares the
trajectory integrated from the first observation against the observations;
the PIE, the physics term, compares finite-difference data derivatives
against the model right-hand side at the observed states.  Each term is one
function that returns its value and exact gradient in p: the misfit's from
the forward sensitivities dx/dp of the same integration (the solver steps
freely over the data grid and interpolates the observation times by its
continuous extension), the physics term's from the closed-form df/dp at the
observed states, with no integration: f and df/dp there come from the
model's derivative table, the one the integration's dx/dp used, and the
feature matrix of the observed states.  One helper, _in_log, evaluates
either stage's loss, and estimate's final PIE, at p = exp(u) with its
gradient in u, d/dp * p, so positivity holds without a projection or a
floor; the one loss guard, it turns an overflowing or underflowing exp(u),
or an unintegrable p, into an infinite value.  Backpropagation chains the
network's gradient to the weights, and BFGS then polishes u on the misfit
alone, never ending worse than it starts.  The network stage integrates at
NETWORK_TOL = 1e-4 and the polish at LOSS_TOL = 1e-6, the tolerance of every
MSE the report holds but the network stage's trace: Adam's step reads only
gradients, while the polish's Armijo test compares loss values at nearby
points, where the looser tolerance's jumps cost fits (see _log_mse).  Every
estimation integration gives up on a hopeless p as soon as it shows: a state
past a bound scaled to the data, DOPRI5's stiffness test, or the step cap
(see simulate_on_data); `simulate` and `synth` integrate on regardless.

All losses are computed in normalized coordinates; the right-hand side is
evaluated in raw units and rescaled by (t_end - t_start)/range per component
so it is comparable with derivatives of the normalized series.  What both
terms read of the dataset is one _Problem, built once per estimate,
train_pinn or total_loss call; a stage changes only its tolerance.  The
parameters, and their derivative table, are built once per evaluation and
shared by both terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from ._files import rewrite
from .data import Dataset, json_text
from .errors import IntegrationFailed, LineSearchFailed, NonFiniteLoss, TooFewSamples, integer
from .model import PARAM_ORDER, ModelParams, State, derivative_table, feature_matrix, state_rows
from .optimize import adam_run, bfgs_run
from .solver import OVERFLOW_LIMIT, CheckedGrid, SolverConfig, check_grid, integrate

MLP_SIZES = [len(PARAM_ORDER), 32, 32, 32, len(PARAM_ORDER)]
# the network stage integrates at NETWORK_TOL, the polish at LOSS_TOL (see
# train_pinn and _log_mse for why each suffices and neither is one value)
LOSS_TOL = 1e-6
NETWORK_TOL = 1e-4
# estimation integrations give up on a hopeless parameter draw instead of
# burning the full default budget: a tighter step cap, a runaway bound at
# RUNAWAY_FACTOR times the largest |value| in the data (never above the
# solver's own OVERFLOW_LIMIT), and DOPRI5's stiffness test from the
# STIFF_TEST_EVERY-th accepted step on
LOSS_MAX_STEPS = 20_000
RUNAWAY_FACTOR = 1e3
STIFF_TEST_EVERY = 1000


class Mlp:
    """Dense layers of the widths sizes, input first; swish hidden
    activations, linear output.  The weights, shape (fan_out, fan_in), and
    biases are views of one flat vector, theta: layer by layer from the
    input side, each weight matrix row by row and then its bias,
    sum((fan_in + 1) * fan_out) values.  theta is a copy of the one given,
    zeros by default; any other length, fewer than two widths or a width
    that is not an integer >= 1 raises ValueError.  Writing theta sets
    every layer at once."""

    def __init__(self, sizes, theta=None):
        self.sizes = [integer("sizes", width, 1) for width in sizes]
        n = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(self.sizes, self.sizes[1:]))
        self.theta = np.zeros(n) if theta is None else np.array(theta, dtype=float)
        if len(self.sizes) < 2 or self.theta.shape != (n,):
            raise ValueError(f"widths {self.sizes} take {n} values in theta, got {self.theta.shape}")
        self.weights, self.biases = _layer_views(self.theta, self.sizes)


def _layer_views(flat: np.ndarray, sizes) -> tuple:
    """(weights, biases): per layer, views of flat laid out as Mlp.theta."""
    weights, biases, pos = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        end = pos + fan_out * fan_in
        weights.append(flat[pos:end].reshape(fan_out, fan_in))
        biases.append(flat[end:end + fan_out])
        pos = end + fan_out
    return weights, biases


def init_mlp(rng: np.random.Generator, sizes=MLP_SIZES) -> Mlp:
    """An Mlp of the widths sizes, each weight drawn from rng into its view
    of theta, N(0, 2/fan_in), layer by layer from the input side, and zero
    biases.  The readout is drawn too, so rng moves on as far, and then
    zeroed: every fresh network reads out its readout bias, whatever its
    input; estimation sets that bias to the problem's start."""
    net = Mlp(sizes)
    for W in net.weights:
        W[...] = rng.standard_normal(W.shape) * math.sqrt(2.0 / W.shape[1])
    net.weights[-1][...] = 0.0
    return net


def init_params(seed) -> np.ndarray:
    """Lognormal(0, 1) draw per component; strictly positive.  seed may be a
    Generator, which is drawn from in place."""
    if not isinstance(seed, np.random.Generator):
        integer("seed", seed, 0)
    return np.exp(np.random.default_rng(seed).standard_normal(len(PARAM_ORDER)))


def _sigmoid(u):
    return 1.0 / (1.0 + np.exp(-u))


def _forward_cached(net: Mlp, x):
    h = np.asarray(x, dtype=float)
    caches = []
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        u = W @ h + b
        s = _sigmoid(u)
        caches.append((h, u, s))
        h = u * s
    caches.append((h, None, None))
    return net.weights[-1] @ h + net.biases[-1], caches


def forward(net: Mlp, x) -> np.ndarray:
    """Dense forward pass; the output is linear in the last hidden layer,
    and estimation reads it as u = log p."""
    return _forward_cached(net, x)[0]


def backward(net: Mlp, caches, dout) -> np.ndarray:
    """Gradient of a scalar loss w.r.t. net.theta, laid out as theta, given
    d(loss)/d(output); each layer's part is written in place."""
    grad = np.empty_like(net.theta)
    g_weights, g_biases = _layer_views(grad, net.sizes)
    d = np.asarray(dout, dtype=float)
    for li in range(len(net.weights) - 1, -1, -1):
        hin, u, s = caches[li]
        # the readout is linear; swish'(u) = s(1 + u(1 - s)) with s = sigmoid(u)
        du = d if s is None else d * (s * (1.0 + u * (1.0 - s)))
        # the outer product du hin^T
        np.multiply(du[:, None], hin, out=g_weights[li])
        g_biases[li][...] = du
        d = net.weights[li].T @ du
    return grad


def grid_derivative(times, values) -> np.ndarray:
    """Per-column time derivatives on a uniform grid: central differences in
    the interior, second-order one-sided at the ends."""
    times = np.asarray(times, dtype=float)
    vals = np.asarray(values, dtype=float)
    if times.ndim != 1 or vals.shape[:1] != times.shape:
        raise ValueError("times must be one-dimensional, with one row of values per time")
    if times.size < 3:
        raise TooFewSamples("derivative estimates need at least 3 samples")
    if not (np.isfinite(times).all() and np.isfinite(vals).all()):
        raise ValueError("times and values must be finite")
    h = times[1] - times[0]
    if np.max(np.abs(np.diff(times) - h)) > 1e-6 * abs(h):
        raise ValueError("time grid must be uniform")
    D = np.empty_like(vals)
    D[1:-1] = (vals[2:] - vals[:-2]) / (2.0 * h)
    D[0] = (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * h)
    D[-1] = (3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * h)
    return D


def data_derivative(ds: Dataset) -> np.ndarray:
    return grid_derivative(ds.times, ds.observations)


def total_loss(p, ds: Dataset, tol: float = LOSS_TOL, gradient: bool = False):
    """(total, mse, pie) for parameter vector p against a normalized dataset:
    the misfit plus the physics term, the misfit integrated at tol, by
    default LOSS_TOL, the polish's tolerance (the network stage's own rows
    are taken at NETWORK_TOL).  With gradient=True the result is
    (total, mse, pie, d mse/dp, d pie/dp): the same three values, bit for
    bit, and the exact gradients of the last two.  Raises IntegrationFailed,
    with the offending parameters attached, when p cannot be integrated over
    the data horizon.
    """
    prob = _problem(ds, tol=tol)
    params = ModelParams.from_array(p)
    mse, g_mse = _misfit(params, prob, gradient)
    pie, g_pie = _physics_term(params, prob)
    return (mse + pie, mse, pie, g_mse, g_pie) if gradient else (mse + pie, mse, pie)


def _misfit(params: ModelParams, prob: _Problem, gradient: bool):
    """(mse, d mse/dp) of the model run from the first observation against
    the observations, from one integration; d mse/dp is None unless
    gradient is set."""
    traj, pred = _simulate(params, prob, gradient)
    resid = pred - prob.observations
    mse = _mean_squared_norm(resid)
    if not gradient:
        return mse, None
    # d pred / dp is dx/dp over the column range
    return mse, (2.0 / len(resid)) * np.einsum("tc,tcp->p", resid / prob.ranges, traj.sensitivities)


def _mean_squared_norm(rows) -> float:
    """The mean over rows of their squared norms, bit for bit what
    np.mean(np.sum(rows ** 2, axis=1)) gives, without numpy's Python-level
    mean."""
    norms = (rows ** 2).sum(axis=1)
    return float(norms.sum() / len(norms))


class _Problem(NamedTuple):
    """What estimation reads of a dataset: the misfit's start state, solver
    settings, grid (checked once, so no integration checks it again) and
    the observations with their normalization; the physics term's data
    derivative, state-only feature rows of the observed states, and the
    scale that maps the raw right-hand side onto normalized units; and
    start, the log p both stages start from, 0 (the all-ones p, where the
    integration is tame whatever the seed)."""

    s0: State
    cfg: SolverConfig
    grid: CheckedGrid
    observations: np.ndarray
    mins: np.ndarray
    ranges: np.ndarray
    deriv: np.ndarray
    rows: np.ndarray
    scale: np.ndarray
    start: np.ndarray


def _problem(ds: Dataset, raw_grid=None, tol: float = LOSS_TOL) -> _Problem:
    """The _Problem of ds, its misfit integrated over raw_grid (by default
    the data's raw times) at tol.  The data derivative comes first, so a
    grid that is not uniform is refused before any other check."""
    deriv = data_derivative(ds)
    raw = ds.raw_observations
    raw_grid = ds.raw_times if raw_grid is None else raw_grid
    largest = max(np.max(ds.maxs), -np.min(ds.mins))
    cfg = SolverConfig(t_end=raw_grid[-1], tol=tol, negativity_policy="clamp",
                       max_steps=LOSS_MAX_STEPS,
                       overflow_limit=min(OVERFLOW_LIMIT, RUNAWAY_FACTOR * largest),
                       stiff_test_every=STIFF_TEST_EVERY)
    s0 = State(*(float(v) for v in raw[0]), float(raw_grid[0]))
    return _Problem(s0, cfg, check_grid(raw_grid, s0.t, cfg.t_end), ds.observations, ds.mins,
                    ds.ranges, deriv, state_rows(raw), (ds.t_end - ds.t_start) / ds.ranges,
                    np.zeros(len(PARAM_ORDER)))


def simulate_on_data(params: ModelParams, ds: Dataset, raw_grid, tol: float):
    """(trajectory, normalized states): the model run from the first
    observation, in raw units, over raw_grid (its first point the first
    observation's raw time), clamped at zero; the states are mapped back
    into the dataset's normalized units.  The run gives up early on a
    hopeless candidate: it stops at LOSS_MAX_STEPS, at a state beyond
    RUNAWAY_FACTOR times the data's largest |value| (NumericalOverflow),
    and when DOPRI5's stiffness test fires, from the STIFF_TEST_EVERY-th
    accepted step on.  Raises IntegrationFailed, with the parameters
    attached, when params cannot be integrated over the grid.  The dataset's
    own time grid must be uniform, as for estimate.
    """
    return _simulate(params, _problem(ds, raw_grid, tol), False)


def _simulate(params: ModelParams, prob: _Problem, sensitivities: bool):
    """simulate_on_data on a built problem, with dx/dp in
    traj.sensitivities on request."""
    try:
        traj = integrate(params, prob.s0, prob.cfg, t_eval=prob.grid, sensitivities=sensitivities)
    except IntegrationFailed as exc:
        if exc.params is None:
            exc.params = [float(v) for v in params.as_array()]
        raise
    return traj, (traj.states - prob.mins) / prob.ranges


# the model derivative overflows on an extreme p (k = 1e-170 makes r/k^2
# inf); the term is then infinite, without a warning
@np.errstate(over="ignore", invalid="ignore")
def _physics_term(params: ModelParams, prob: _Problem):
    """(pie, d pie/dp): the mean squared gap between the data derivative and
    the right-hand side at the observed states, with no integration.  f
    there is one product of their feature matrix with the derivative table,
    and the gradient sums the residuals over the states before the table's
    df/dp coefficients: sum_t w_t df/dp(x_t) = sum_k (F w)_k C_k."""
    table = derivative_table(params)
    features = feature_matrix(prob.rows.copy(), table.handling)
    pie_resid = prob.deriv - (features.T @ table.rhs) * prob.scale
    pie = _mean_squared_norm(pie_resid)
    # d model_deriv / dp is df/dp at the observed state times the same
    # scale as the values
    summed = features @ (pie_resid * prob.scale)
    return pie, (-2.0 / len(pie_resid)) * (summed.reshape(-1) @ table.dfdp)


def _in_log(term, u, *args):
    """(value, d value/du = d value/dp * p) of term(params, *args) at
    p = exp(u), without a warning; both infinite where ModelParams rejects p
    (u is nan, or exp(u) overflowed or underflowed to zero) or p cannot be
    integrated.  A ValueError that the term itself raises propagates."""
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.exp(u)
        try:
            params = ModelParams.from_array(p)
        except ValueError:
            params = None
        if params is not None:
            try:
                value, grad = term(params, *args)
                return value, grad * p
            except IntegrationFailed:
                pass
    return math.inf, np.full(len(PARAM_ORDER), math.inf)


class TraceRow(NamedTuple):
    total: float
    mse: float
    pie: float


def _network_term(params: ModelParams, prob: _Problem):
    """(TraceRow, d total/dp), the network stage's loss."""
    mse, g_mse = _misfit(params, prob, gradient=True)
    pie, g_pie = _physics_term(params, prob)
    return TraceRow(mse + pie, mse, pie), g_mse + g_pie


def train_pinn(ds: Dataset, seed, epochs: int = 100):
    """Adam-train the network weights; returns (net, predicted params, trace).

    One generator, threaded: the input vector is drawn first, then the
    hidden-layer weights, so the run is reproducible from the seed alone.
    The network reads out u = log p.  Each epoch integrates once, at
    NETWORK_TOL, for the loss at p = exp(u) and its exact gradient in u;
    optimize.adam_run steps by 1e-4.
    Adam's step, m/sqrt(v) of the gradients' moments, never compares loss
    values, so the tolerance need not resolve the loss's small differences:
    on the README data (seeds 0-19) the output log p at 1e-4 is within
    8.2e-5 of its value at 1e-6, from integrations of about 10 steps instead
    of 19.  The trace has one TraceRow per epoch, its values at NETWORK_TOL.
    A non-finite loss or gradient aborts with NonFiniteLoss carrying the
    partial trace and the best finite prediction seen so far.  A seed or
    epochs that is not an integer >= 0, or a dataset whose time grid is not
    uniform, raises ValueError before the first epoch.
    """
    integer("seed", seed, 0)
    integer("epochs", epochs, 0)
    return _train(_problem(ds), seed, epochs)


def _train(prob: _Problem, seed, epochs: int):
    """train_pinn on a built problem, whose tolerance the stage replaces
    by NETWORK_TOL; the network starts at the problem's start."""
    prob = prob._replace(cfg=replace(prob.cfg, tol=NETWORK_TOL))
    rng = np.random.default_rng(seed)
    inp = init_params(rng)
    net = init_mlp(rng)
    net.biases[-1][...] = prob.start
    trace: list = []
    best_total, best_u = math.inf, None

    def loss(theta):
        nonlocal best_total, best_u
        net.theta[...] = theta
        u, caches = _forward_cached(net, inp)
        row, dEdu = _in_log(_network_term, u, prob)
        # row is a TraceRow of three floats, or _in_log's bare inf
        finite = isinstance(row, TraceRow) and all(map(math.isfinite, row))
        if not (finite and np.isfinite(dEdu).all()):
            best = None if best_u is None else np.exp(best_u)
            raise NonFiniteLoss(f"training loss or gradient non-finite at epoch {len(trace)}",
                                history=trace, best=best)
        trace.append(row)
        if row.total < best_total:
            best_total, best_u = row.total, u
        return row.total, backward(net, caches, dEdu)

    theta, _ = adam_run(loss, net.theta, alpha=1e-4, num_steps=epochs)
    net.theta[...] = theta
    return net, np.exp(forward(net, inp)), trace


@dataclass
class EstimationReport:
    seed: int
    initial_params: np.ndarray
    post_nn_params: np.ndarray
    final_params: np.ndarray
    adam_trace: list  # TraceRow per epoch
    bfgs_trace: list  # objective (MSE) per accepted iterate
    post_nn_mse: float
    final_mse: float
    final_pie: float
    stage_errors: list = field(default_factory=list)

    def record(self) -> dict:
        """Every field as plain JSON: arrays and traces become nested lists."""
        return {name: np.asarray(value).tolist() for name, value in vars(self).items()}

    def to_json(self) -> str:
        return json_text(self.record()) + "\n"

    def write_trace_csv(self, path) -> None:
        with rewrite(path) as fh:
            fh.write("stage,step,total,mse,pie\n")
            for step, row in enumerate(self.adam_trace):
                fh.write(f"adam,{step},{row.total!r},{row.mse!r},{row.pie!r}\n")
            for step, val in enumerate(self.bfgs_trace):
                fh.write(f"bfgs,{step},{float(val)!r},{float(val)!r},\n")


def _log_mse(prob: _Problem):
    """The polish objective u -> _in_log(misfit): (mse, d mse/du) from one
    integration at prob's tolerance, LOSS_TOL.  The line search rejects the
    infinite value of an exp(u) that overflows or underflows.  It is a mean of squares, so 0
    bounds it from below; estimate hands bfgs_run that bound.

    The gradients are exact forward sensitivities of the computed
    trajectory, but the line search's Armijo test and the curvature pairs
    compare loss values at nearby iterates, and the computed MSE jumps at
    the level of the tolerance as the step sequence changes with p.  At
    1e-6 those jumps do not hold the polish back.  Against 1e-9, on the
    README data (estimate seeds 0-19, default budget), every fit still ends
    at or below 1.5x the generating parameters' MSE, with a median ratio of
    0.869 against 0.868, while a polish integration takes about 12 steps
    instead of 39.  At the network stage's 1e-4 they do: 58 of the 60-fit
    matrix end at or below 1.5x, against 60 at 1e-6, and two sigma 0.01
    fits end at 4.3x and 1.6x.
    """
    return lambda u: _in_log(_misfit, u, prob, True)


def estimate(ds: Dataset, seed, epochs: int = 100, bfgs_iterations: int = 200) -> EstimationReport:
    """Two-stage pipeline; deterministic given (ds, seed).

    Stage errors are recorded in the report rather than raised: a failed
    polish stage keeps its last accepted iterate.  post_nn_mse is the MSE at
    the start of the polish, exp(log p_nn), and the final parameters are
    the polish's last iterate, which never fits worse.  The polish passes
    bfgs_run the MSE's lower bound, 0, so that until its first curvature
    pair each line search starts from Polyak's step, MSE/|g|^2 in u, rather
    than the full gradient step: on this misfit the full step runs away,
    and every candidate that does so is an integration wasted up to the
    runaway bound.  The polish integrates at LOSS_TOL, so post_nn_mse,
    bfgs_trace and final_mse are the misfit at that tolerance; the
    adam_trace rows are the network stage's, at NETWORK_TOL.
    initial_params is the problem's start, exp(0) = 1, the network's readout
    before training and the polish's start if the network stage yields no
    finite prediction.  A seed or epochs that is not an integer >= 0, or
    bfgs_iterations not one >= 1, raises ValueError before any work.
    """
    integer("seed", seed, 0)
    integer("epochs", epochs, 0)
    integer("bfgs_iterations", bfgs_iterations, 1)
    prob = _problem(ds)
    stage_errors: list = []
    p_nn = np.exp(prob.start)
    try:
        _, p_nn, trace = _train(prob, seed, epochs)
    except NonFiniteLoss as exc:
        stage_errors.append(f"network stage: {exc}")
        trace = list(exc.history or [])
        if exc.best is not None:
            p_nn = np.asarray(exc.best, dtype=float)

    u_polish, bfgs_trace = np.log(p_nn), []
    try:
        u_polish, bfgs_trace = bfgs_run(_log_mse(prob), u_polish, max_iterations=bfgs_iterations,
                                        lower_bound=0.0)
    except (LineSearchFailed, NonFiniteLoss) as exc:
        stage_errors.append(f"polish stage: {exc}")
        # a line-search failure carries its last iterate; a non-finite start has none
        u_polish = np.asarray(getattr(exc, "x", u_polish), dtype=float)
        bfgs_trace = list(exc.history or [])

    final = np.exp(u_polish)
    post_nn_mse, final_mse = (bfgs_trace[0], bfgs_trace[-1]) if bfgs_trace else (math.inf,) * 2
    # inf where exp(u) overflowed or underflowed
    final_pie = _in_log(_physics_term, u_polish, prob)[0]
    return EstimationReport(
        seed=int(seed),
        initial_params=np.exp(prob.start),
        post_nn_params=p_nn,
        final_params=final,
        adam_trace=trace,
        bfgs_trace=[float(v) for v in bfgs_trace],
        post_nn_mse=float(post_nn_mse),
        final_mse=float(final_mse),
        final_pie=float(final_pie),
        stage_errors=stage_errors,
    )
