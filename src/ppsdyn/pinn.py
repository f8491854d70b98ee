"""Parameter estimation: a small MLP trained against an ODE-fit loss, then a
quasi-Newton polish on the parameters themselves.

The network maps a fixed lognormal-initialized 14-vector to a predicted
parameter vector; its weights and biases are views of one flat vector,
which optimize.adam_run trains on the network stage's loss, MSE + PIE
(_network_term; total_loss is the same sum for library callers).  The MSE,
the misfit, compares the trajectory integrated from the first observation
against the observations; the PIE, the physics term, compares
finite-difference data derivatives against the model right-hand side at
the observed states.  Each term is one function that returns its
value and exact gradient in p: the misfit's from the forward sensitivities
dx/dp of the same integration (the solver steps freely over the data grid
and interpolates the observation times by its continuous extension), the
physics term's from the closed-form df/dp at the observed states, with no
integration: f and df/dp there come from the model's derivative table, the
one the integration's dx/dp used, and the feature matrix of the observed
states.  Backpropagation chains d(total)/dp to the weights.  BFGS then
polishes the log-parameters u = log p on the misfit alone, with gradient
d mse/dp * p, so positivity holds without a projection and the polish never
ends worse than it starts.  One guard turns a non-positive, non-finite or
unintegrable p into an infinite value and gradient for either stage.  Every
integration of both stages gives up on a hopeless p as soon as it shows: a
state past a bound scaled to the data, DOPRI5's stiffness test, or the step
cap (see simulate_on_data); `simulate` and `synth` integrate on regardless.

All losses are computed in normalized coordinates; the right-hand side is
evaluated in raw units and rescaled by (t_end - t_start)/range per component
so it is comparable with derivatives of the normalized series.  What each
term reads of the dataset is computed once per stage, not once per loss
evaluation: the misfit's start state, solver settings and normalization
(_fit_data), and the physics term's scale, data derivative and the
state-only feature rows of the observed states (_physics_data).  The
parameters, and their derivative table, are built once per evaluation and
shared by both terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .data import Dataset, json_text
from .errors import IntegrationFailed, LineSearchFailed, NonFiniteLoss, TooFewSamples
from .model import PARAM_ORDER, ModelParams, State, derivative_table, feature_matrix, state_rows
from .optimize import adam_run, bfgs_run
from .solver import OVERFLOW_LIMIT, SolverConfig, integrate

MLP_SIZES = [len(PARAM_ORDER), 32, 32, 32, len(PARAM_ORDER)]
PARAM_FLOOR = 1e-6
# estimation integrations give up on a hopeless parameter draw instead of
# burning the full default budget: a tighter step cap, a runaway bound at
# RUNAWAY_FACTOR times the largest |value| in the data (never above the
# solver's own OVERFLOW_LIMIT), and DOPRI5's stiffness test from the
# STIFF_TEST_EVERY-th accepted step on
LOSS_MAX_STEPS = 20_000
RUNAWAY_FACTOR = 1e3
STIFF_TEST_EVERY = 1000


@dataclass
class Mlp:
    """Dense layers; swish hidden activations, rectified output.

    The weights and biases are views of one flat vector, theta: layer by
    layer from the input side, each weight matrix row by row and then its
    bias.  The arrays given are copied into a fresh theta, so writing theta
    sets every layer at once.
    """

    weights: list  # per layer, shape (fan_out, fan_in)
    biases: list
    theta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must pair up")
        for W, b in zip(self.weights, self.biases):
            if W.shape[0] != b.shape[0]:
                raise ValueError("bias length must match weight rows")
        self.theta = np.concatenate([t.ravel() for pair in zip(self.weights, self.biases)
                                     for t in pair], dtype=float)
        self.weights, self.biases = _layer_views(self.theta, self.sizes)

    @property
    def sizes(self) -> list:
        return [self.weights[0].shape[1]] + [W.shape[0] for W in self.weights]


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
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.standard_normal((fan_out, fan_in)) * math.sqrt(2.0 / fan_in))
        biases.append(np.zeros(fan_out))
    # zero weights + unit bias on the readout: through the rectifier every
    # fresh network predicts the all-ones vector, a starting point where the
    # integration is tame regardless of seed
    weights[-1][:] = 0.0
    biases[-1][:] = 1.0
    return Mlp(weights, biases)


def init_params(seed) -> np.ndarray:
    """Lognormal(0, 1) draw per component; strictly positive.  seed may be a
    Generator, which is drawn from in place."""
    return np.exp(np.random.default_rng(seed).standard_normal(len(PARAM_ORDER)))


def _sigmoid(u):
    return 1.0 / (1.0 + np.exp(-u))


def _forward_cached(net: Mlp, x):
    h = np.asarray(x, dtype=float)
    caches = []
    last = len(net.weights) - 1
    for li, (W, b) in enumerate(zip(net.weights, net.biases)):
        u = W @ h + b
        if li < last:
            s = _sigmoid(u)
            out = u * s
            caches.append((h, u, s))
        else:
            out = np.maximum(u, 0.0)
            caches.append((h, u, None))
        h = out
    return h, caches


def forward(net: Mlp, x) -> np.ndarray:
    """Dense forward pass; output is elementwise nonnegative."""
    return _forward_cached(net, x)[0]


def backward(net: Mlp, caches, dout) -> np.ndarray:
    """Gradient of a scalar loss w.r.t. net.theta, laid out as theta, given
    d(loss)/d(output); each layer's part is written in place."""
    grad = np.empty_like(net.theta)
    g_weights, g_biases = _layer_views(grad, net.sizes)
    d = np.asarray(dout, dtype=float)
    last = len(net.weights) - 1
    for li in range(last, -1, -1):
        hin, u, s = caches[li]
        if li == last:
            du = d * (u > 0)
        else:
            # swish'(u) = s(1 + u(1 - s)) with s = sigmoid(u)
            du = d * (s * (1.0 + u * (1.0 - s)))
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
    if times.size < 3:
        raise TooFewSamples("derivative estimates need at least 3 samples")
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


def total_loss(p, ds: Dataset, tol: float = 1e-6, gradient: bool = False):
    """(total, mse, pie) for parameter vector p against a normalized dataset:
    the misfit plus the physics term.  With gradient=True the result is
    (total, mse, pie, d mse/dp, d pie/dp): the same three values, bit for
    bit, and the exact gradients of the last two.  Raises IntegrationFailed,
    with the offending parameters attached, when p cannot be integrated over
    the data horizon.
    """
    phys = _physics_data(ds)
    params = ModelParams.from_array(np.asarray(p, dtype=float))
    mse, g_mse = _misfit(params, _fit_data(ds, ds.raw_times, tol), gradient)
    pie, g_pie = _physics_term(params, *phys)
    return (mse + pie, mse, pie, g_mse, g_pie) if gradient else (mse + pie, mse, pie)


def _misfit(params: ModelParams, fit: _Fit, gradient: bool):
    """(mse, d mse/dp) of the model run from the first observation against
    the observations, from one integration; fit = _fit_data(...), and
    d mse/dp is None unless gradient is set."""
    traj, pred = _simulate(params, fit, gradient)
    resid = pred - fit.observations
    mse = _mean_squared_norm(resid)
    if not gradient:
        return mse, None
    # d pred / dp is dx/dp over the column range
    return mse, (2.0 / len(resid)) * np.einsum("tc,tcp->p", resid / fit.ranges, traj.sensitivities)


def _mean_squared_norm(rows) -> float:
    """The mean over rows of their squared norms, bit for bit what
    np.mean(np.sum(rows ** 2, axis=1)) gives, without numpy's Python-level
    mean."""
    norms = (rows ** 2).sum(axis=1)
    return float(norms.sum() / len(norms))


class _Fit(NamedTuple):
    """What an estimation run reads of a dataset at one tolerance: its start
    state, solver settings and raw grid, and the observations with the
    affine map into their normalized units."""

    s0: State
    cfg: SolverConfig
    grid: np.ndarray
    observations: np.ndarray
    mins: np.ndarray
    ranges: np.ndarray


def _fit_data(ds: Dataset, raw_grid, tol: float) -> _Fit:
    """All that simulate_on_data(params, ds, raw_grid, tol) needs besides
    params, built once per dataset and stage rather than once per
    integration."""
    x0, y0, z0 = ds.raw_observations[0]
    scale = max(np.max(ds.maxs), -np.min(ds.mins))
    cfg = SolverConfig(t_end=raw_grid[-1], tol=tol, negativity_policy="clamp",
                       max_steps=LOSS_MAX_STEPS,
                       overflow_limit=min(OVERFLOW_LIMIT, RUNAWAY_FACTOR * scale),
                       stiff_test_every=STIFF_TEST_EVERY)
    s0 = State(float(x0), float(y0), float(z0), float(raw_grid[0]))
    return _Fit(s0, cfg, raw_grid, ds.observations, ds.mins, ds.ranges)


def simulate_on_data(params: ModelParams, ds: Dataset, raw_grid, tol: float):
    """(trajectory, normalized states): the model run from the first
    observation, in raw units, over raw_grid (its first point the first
    observation's raw time), clamped at zero; the states are mapped back
    into the dataset's normalized units.  The run gives up early on a
    hopeless candidate: it stops at LOSS_MAX_STEPS, at a state beyond
    RUNAWAY_FACTOR times the data's largest |value| (NumericalOverflow),
    and when DOPRI5's stiffness test fires, from the STIFF_TEST_EVERY-th
    accepted step on.  Raises IntegrationFailed, with the parameters
    attached, when params cannot be integrated over the grid.
    """
    return _simulate(params, _fit_data(ds, raw_grid, tol), False)


def _simulate(params: ModelParams, fit: _Fit, sensitivities: bool):
    """simulate_on_data with its dataset constants, fit = _fit_data(...), and
    dx/dp in traj.sensitivities on request."""
    try:
        traj = integrate(params, fit.s0, fit.cfg, t_eval=fit.grid, sensitivities=sensitivities)
    except IntegrationFailed as exc:
        if exc.params is None:
            exc.params = [float(v) for v in params.as_array()]
        raise
    return traj, (traj.states - fit.mins) / fit.ranges


def _physics_data(ds: Dataset):
    """What the physics term reads of a dataset, computed once per dataset:
    the data derivative (which checks that the grid is uniform), the rows
    of the feature matrix that depend on the observed states alone, and the
    per-component scale that maps the raw right-hand side onto normalized
    time and values."""
    return data_derivative(ds), state_rows(ds.raw_observations), (ds.t_end - ds.t_start) / ds.ranges


# the model derivative overflows on an extreme p (k = 1e-170 makes r/k^2
# inf); the term is then infinite, without a warning
@np.errstate(over="ignore", invalid="ignore")
def _physics_term(params: ModelParams, deriv, rows, scale):
    """(pie, d pie/dp): the mean squared gap between the data derivative and
    the right-hand side at the observed states, with no integration; the
    last three arguments are _physics_data(ds).  f at the observed states
    is one product of their feature matrix with the derivative table, and
    the gradient sums the residuals over the states before the table's
    df/dp coefficients: sum_t w_t df/dp(x_t) = sum_k (F w)_k C_k."""
    table = derivative_table(params)
    features = feature_matrix(rows.copy(), table.handling)
    pie_resid = deriv - (features.T @ table.rhs) * scale
    pie = _mean_squared_norm(pie_resid)
    # d model_deriv / dp is df/dp at the observed state times the same
    # scale as the values
    summed = features @ (pie_resid * scale)
    return pie, (-2.0 / len(deriv)) * (summed.reshape(-1) @ table.dfdp)


def _loss_or_inf(term, p, *args):
    """term(params, *args), a (value, gradient) pair for the parameters of
    vector p, or an infinite value and gradient where p is non-positive or
    non-finite (ModelParams rejects it) or cannot be integrated.  A
    ValueError that the term itself raises propagates."""
    try:
        params = ModelParams.from_array(p)
    except ValueError:
        params = None
    if params is not None:
        try:
            return term(params, *args)
        except IntegrationFailed:
            pass
    return math.inf, np.full(len(PARAM_ORDER), math.inf)


class TraceRow(NamedTuple):
    total: float
    mse: float
    pie: float


def _network_term(params: ModelParams, fit: _Fit, phys):
    """(TraceRow, d total/dp), the network stage's loss, with fit built at
    tolerance 1e-6."""
    mse, g_mse = _misfit(params, fit, gradient=True)
    pie, g_pie = _physics_term(params, *phys)
    return TraceRow(mse + pie, mse, pie), g_mse + g_pie


def train_pinn(ds: Dataset, seed, epochs: int = 100):
    """Adam-train the network weights; returns (net, predicted params, trace).

    One generator, threaded: the input vector is drawn first, then the
    hidden-layer weights, so the run is reproducible from the seed alone.
    Each epoch integrates once, at tolerance 1e-6, for the loss and its exact
    gradient in the predicted parameters; optimize.adam_run steps by 1e-4.
    The trace has one TraceRow per epoch.  A non-finite loss or gradient aborts with
    NonFiniteLoss carrying the partial trace and the best finite prediction
    seen so far.  A dataset whose time grid is not uniform raises ValueError
    before the first epoch.
    """
    phys = _physics_data(ds)
    fit = _fit_data(ds, ds.raw_times, 1e-6)
    rng = np.random.default_rng(seed)
    inp = init_params(rng)
    net = init_mlp(rng)
    trace: list = []
    best_total, best_p = math.inf, None

    def loss(theta):
        nonlocal best_total, best_p
        net.theta[...] = theta
        p_raw, caches = _forward_cached(net, inp)
        pf = np.maximum(p_raw, PARAM_FLOOR)
        row, dEdp = _loss_or_inf(_network_term, pf, fit, phys)
        # row is a TraceRow, or _loss_or_inf's bare inf
        if not (np.isfinite(row).all() and np.isfinite(dEdp).all()):
            raise NonFiniteLoss(f"training loss or gradient non-finite at epoch {len(trace)}",
                                history=trace, best=best_p)
        trace.append(row)
        if row.total < best_total:
            best_total, best_p = row.total, pf
        return row.total, backward(net, caches, dEdp)

    theta, _ = adam_run(loss, net.theta, alpha=1e-4, num_steps=epochs)
    net.theta[...] = theta
    return net, np.maximum(forward(net, inp), PARAM_FLOOR), trace


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
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("stage,step,total,mse,pie\n")
            for step, row in enumerate(self.adam_trace):
                fh.write(f"adam,{step},{row.total!r},{row.mse!r},{row.pie!r}\n")
            for step, val in enumerate(self.bfgs_trace):
                fh.write(f"bfgs,{step},{float(val)!r},{float(val)!r},\n")


def _log_mse(ds: Dataset):
    """The polish objective over u = log p: u -> (mse, d mse/du = d mse/dp * p),
    the misfit alone from one integration at tolerance 1e-9, behind the same
    guard as the network stage.  An exp(u) that overflows or underflows
    gives an infinite value, which the line search rejects.

    The gradients are exact forward sensitivities of the computed
    trajectory, but the line search and the curvature pairs compare nearby
    iterates, and the computed MSE jumps at the level of the tolerance as
    the step sequence changes with p; at 1e-9 those jumps sit far below the
    differences BFGS measures.
    """

    fit = _fit_data(ds, ds.raw_times, 1e-9)

    def fun(u):
        with np.errstate(over="ignore", invalid="ignore"):
            p = np.exp(u)
            mse, g_mse = _loss_or_inf(_misfit, p, fit, True)
            return mse, g_mse * p

    return fun


def estimate(ds: Dataset, seed, epochs: int = 100, bfgs_iterations: int = 200) -> EstimationReport:
    """Two-stage pipeline; deterministic given (ds, seed).

    Stage errors are recorded in the report rather than raised: a failed
    polish stage keeps its last accepted iterate.  post_nn_mse is the MSE at
    the start of the polish, exp(log p_nn), and the final parameters are
    the polish's last iterate, which never fits worse.
    """
    stage_errors: list = []
    initial = init_params(seed)
    p_nn = np.full(len(PARAM_ORDER), 1.0)
    try:
        _, p_nn, trace = train_pinn(ds, seed, epochs=epochs)
    except NonFiniteLoss as exc:
        stage_errors.append(f"network stage: {exc}")
        trace = list(exc.history or [])
        if exc.best is not None:
            p_nn = np.asarray(exc.best, dtype=float)

    u_polish, bfgs_trace = np.log(p_nn), []
    try:
        u_polish, bfgs_trace = bfgs_run(_log_mse(ds), u_polish, max_iterations=bfgs_iterations)
    except (LineSearchFailed, NonFiniteLoss) as exc:
        stage_errors.append(f"polish stage: {exc}")
        # a line-search failure carries its last iterate; a non-finite start has none
        u_polish = np.asarray(getattr(exc, "x", u_polish), dtype=float)
        bfgs_trace = list(exc.history or [])

    final = np.exp(u_polish)
    post_nn_mse, final_mse = (bfgs_trace[0], bfgs_trace[-1]) if bfgs_trace else (math.inf,) * 2
    # inf where exp(u) overflowed or underflowed
    final_pie = _loss_or_inf(_physics_term, final, *_physics_data(ds))[0]
    return EstimationReport(
        seed=int(seed),
        initial_params=initial,
        post_nn_params=p_nn,
        final_params=final,
        adam_trace=trace,
        bfgs_trace=[float(v) for v in bfgs_trace],
        post_nn_mse=float(post_nn_mse),
        final_mse=float(final_mse),
        final_pie=float(final_pie),
        stage_errors=stage_errors,
    )
