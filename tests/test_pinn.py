import copy
import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from conftest import REFERENCE
from ppsdyn.data import synthesize
from ppsdyn.errors import IntegrationFailed, LineSearchFailed, NonFiniteLoss, TooFewSamples
from ppsdyn.model import PARAM_ORDER, ModelParams, State
import ppsdyn.optimize
import ppsdyn.pinn
import ppsdyn.solver
from ppsdyn.optimize import bfgs_run
from ppsdyn.pinn import (MLP_SIZES, Mlp, backward, data_derivative, estimate,
                         forward, grid_derivative, init_mlp, init_params,
                         simulate_on_data, total_loss, train_pinn, TraceRow, _forward_cached, _log_mse,
                         _loss_or_inf, _mean_squared_norm)


def _tiny_net(seed=0, sizes=(2, 3, 2)):
    return init_mlp(np.random.default_rng(seed), list(sizes))


# ---------------------------------------------------------------- network

def test_mlp_shapes():
    net = init_mlp(np.random.default_rng(0))
    assert net.sizes == MLP_SIZES
    assert [w.shape for w in net.weights] == [(32, 14), (32, 32), (32, 32),
                                              (14, 32)]


def test_readout_starts_at_one():
    # zero readout weights with unit bias make the initial prediction
    # identically one for every parameter channel
    net = init_mlp(np.random.default_rng(123))
    assert np.all(net.weights[-1] == 0.0)
    assert np.all(net.biases[-1] == 1.0)
    out = forward(net, np.random.default_rng(5).uniform(0, 1, 14))
    assert out == pytest.approx(np.ones(14), abs=0.0)


def test_swish_value_through_single_unit():
    net = Mlp(weights=[np.array([[1.0]]), np.array([[1.0]])],
              biases=[np.array([0.0]), np.array([0.0])])
    got = forward(net, np.array([1.0]))[0]
    assert got == pytest.approx(0.7310585786300049, abs=1e-15)


def test_relu_readout_clips_negative():
    net = Mlp(weights=[np.array([[1.0]]), np.array([[-5.0]])],
              biases=[np.array([0.0]), np.array([0.0])])
    assert forward(net, np.array([2.0]))[0] == 0.0


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    net = _tiny_net()
    # randomize the readout so gradients flow through the ReLU
    net.weights[-1][:] = rng.standard_normal(net.weights[-1].shape)
    net.biases[-1][:] = rng.uniform(0.5, 1.5, net.biases[-1].shape)
    x = rng.uniform(-1.0, 1.0, 2)
    target = rng.uniform(0.0, 1.0, 2)

    def loss_from_theta(theta):
        net.theta[...] = theta
        return float(np.sum((forward(net, x) - target) ** 2))

    theta0 = net.theta.copy()
    out, caches = _forward_cached(net, x)
    analytic = backward(net, caches, 2.0 * (out - target))
    assert analytic.shape == theta0.shape

    h = 1e-6
    worst = 0.0
    for idx in range(len(theta0)):
        up = theta0.copy()
        dn = theta0.copy()
        up[idx] += h
        dn[idx] -= h
        fd = (loss_from_theta(up) - loss_from_theta(dn)) / (2.0 * h)
        denom = max(1.0, abs(fd), abs(analytic[idx]))
        worst = max(worst, abs(fd - analytic[idx]) / denom)
    net.theta[...] = theta0
    assert worst < 1e-4


def test_pack_unpack_round_trip():
    # an Mlp packs its layers into theta, each weight matrix row by row and
    # then its bias, and its weights and biases stay views of theta, so
    # writing one net's theta into another copies every layer
    net = _tiny_net(3)
    theta = np.concatenate([t.ravel() for pair in zip(net.weights, net.biases) for t in pair])
    assert np.array_equal(net.theta, theta)
    clone = _tiny_net(99)
    clone.theta[...] = net.theta
    for w1, w2 in zip(net.weights, clone.weights):
        assert np.array_equal(w1, w2) and np.shares_memory(w2, clone.theta)
    for b1, b2 in zip(net.biases, clone.biases):
        assert np.array_equal(b1, b2) and np.shares_memory(b2, clone.theta)


# ---------------------------------------------------------------- seeds

def test_init_params_positive_and_deterministic():
    a = init_params(42)
    b = init_params(42)
    assert np.array_equal(a, b)
    assert a.shape == (14,)
    assert np.all(a > 0.0)
    assert not np.array_equal(a, init_params(43))


def test_init_params_lognormal_median():
    draws = np.concatenate([init_params(s) for s in range(200)])
    assert 0.9 < float(np.median(draws)) < 1.1


# ------------------------------------------------------------ derivatives

def test_grid_derivative_exact_for_quadratic():
    t = np.linspace(0.0, 2.0, 9)
    vals = np.stack([t**2, 3.0 * t, np.ones_like(t)], axis=1)
    d = grid_derivative(t, vals)
    assert d[:, 0] == pytest.approx(2.0 * t, abs=1e-12)
    assert d[:, 1] == pytest.approx(np.full_like(t, 3.0), abs=1e-12)
    assert d[:, 2] == pytest.approx(np.zeros_like(t), abs=1e-12)


def test_grid_derivative_needs_uniform_grid():
    t = np.array([0.0, 0.1, 0.3, 0.4])
    with pytest.raises(ValueError):
        grid_derivative(t, np.zeros((4, 3)))
    with pytest.raises(TooFewSamples):
        grid_derivative(np.array([0.0, 1.0]), np.zeros((2, 3)))


def test_data_derivative_shape(reference_dataset):
    d = data_derivative(reference_dataset)
    assert d.shape == reference_dataset.observations.shape
    assert np.all(np.isfinite(d))


# ---------------------------------------------------------------- losses

def test_total_loss_identity_and_reference_value(reference_dataset):
    p = ModelParams(**REFERENCE).as_array()
    total, mse, pie = total_loss(p, reference_dataset)
    assert total == mse + pie  # exact identity, not approximate
    assert mse < 1e-8
    assert pie == pytest.approx(1.79357931644477e-05, rel=1e-6)


def _bits(result):
    return [np.asarray(v).tobytes() for v in result]


def test_mean_squared_norm_is_numpys_mean_bit_for_bit():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 40, 201):
        rows = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-8, 8, (n, 3))
        want = np.mean(np.sum(rows ** 2, axis=1))
        assert np.float64(_mean_squared_norm(rows)).tobytes() == want.tobytes()


def test_total_loss_keeps_no_dataset_constants_between_calls(reference_dataset):
    # the physics term's constants are computed once per call; alternating
    # datasets, and datasets that may reuse a freed one's id, must each get
    # exactly the result of a computation on a fresh copy of their own
    p = ModelParams(**REFERENCE).as_array()
    b = synthesize(ModelParams(**REFERENCE), State(2.0, 1.5, 1.0), np.linspace(0.0, 8.0, 25),
                   noise_sigma=0.01, seed=3)
    datasets = {"a": reference_dataset, "b": b}
    fresh = {k: _bits(total_loss(p, copy.deepcopy(ds), 1e-6, gradient=True))
             for k, ds in datasets.items()}
    assert fresh["a"] != fresh["b"]
    for k in ("a", "b", "a"):
        assert _bits(total_loss(p, datasets[k], 1e-6, gradient=True)) == fresh[k]
    for k in ("b", "a", "b", "a"):
        ds = copy.deepcopy(datasets[k])
        assert _bits(total_loss(p, ds, 1e-6, gradient=True)) == fresh[k]
        del ds


@pytest.mark.parametrize("epochs", [0, 3])
def test_estimate_rejects_a_nonuniform_grid_before_integrating(reference_dataset, monkeypatch,
                                                                epochs):
    # the physics term needs a uniform grid; its constants are computed
    # before the first epoch, so the check fires before any integration
    ds = copy.deepcopy(reference_dataset)
    ds.times[5] += 0.3 * (ds.times[6] - ds.times[5])
    calls = []
    monkeypatch.setattr(ppsdyn.pinn, "_simulate", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="uniform"):
        estimate(ds, seed=0, epochs=epochs, bfgs_iterations=2)
    assert calls == []


def test_total_loss_raises_with_params_attached(reference_dataset):
    p = ModelParams(**REFERENCE).as_array().copy()
    p[0] = 1e9  # growth rate far past anything integrable
    with pytest.raises(IntegrationFailed) as info:
        total_loss(p, reference_dataset)
    assert info.value.params is not None
    assert info.value.params[0] == 1e9


def _count_solver_rhs(monkeypatch):
    """A one-element list that counts the right-hand-side evaluations of
    every integration from here on."""
    count, real_make_rhs = [0], ppsdyn.solver.make_rhs

    def make_rhs(*args):
        rhs = real_make_rhs(*args)

        def counted(*state):
            count[0] += 1
            return rhs(*state)
        return counted

    monkeypatch.setattr(ppsdyn.solver, "make_rhs", make_rhs)
    return count


def test_total_loss_gives_up_on_a_stiff_candidate(reference_dataset, monkeypatch):
    # the r = 1e9 candidate fails DOPRI5's stiffness test after its 1000th
    # accepted step (1077 attempts), not at the 20,000-step cap; every
    # attempt takes at least six evaluations
    p = ModelParams(**REFERENCE).as_array().copy()
    p[0] = 1e9
    count = _count_solver_rhs(monkeypatch)
    with pytest.raises(IntegrationFailed, match="problem became stiff") as info:
        total_loss(p, reference_dataset)
    assert info.value.params[0] == 1e9
    assert count[0] <= 1 + 6 * 1100


def _central_differences(fn, p, rel=1e-5):
    grad = np.empty(p.size)
    for col in range(p.size):
        h = rel * p[col]
        up, dn = p.copy(), p.copy()
        up[col] += h
        dn[col] -= h
        grad[col] = (fn(up) - fn(dn)) / (2.0 * h)
    return grad


def _agree(exact, fd, rel):
    return np.max(np.abs(exact - fd)) <= rel * np.max(np.abs(fd))


def test_exact_loss_gradients_match_central_differences(reference_dataset):
    # the all-ones network start plus seeded log-normal perturbations of the
    # reference parameters; tolerances as in training (1e-6, total loss) and
    # in the polish stage (1e-9, MSE only)
    ds = reference_dataset
    rng = np.random.default_rng(2024)
    ref = ModelParams(**REFERENCE).as_array()
    points = [np.ones(14)] + [ref * np.exp(0.3 * rng.standard_normal(14)) for _ in range(20)]
    for p in points:
        total, mse, pie, g_mse, g_pie = total_loss(p, ds, tol=1e-6, gradient=True)
        assert (total, mse, pie) == total_loss(p, ds, tol=1e-6)  # bit for bit
        fd = _central_differences(lambda q: total_loss(q, ds, tol=1e-6)[0], p)
        assert _agree(g_mse + g_pie, fd, 1e-5)
        # the physics term needs no integration, so its check is tighter
        fd_pie = _central_differences(lambda q: total_loss(q, ds, tol=1e-6)[2], p)
        assert _agree(g_pie, fd_pie, 1e-7)

        total, mse, pie, g_mse, _ = total_loss(p, ds, tol=1e-9, gradient=True)
        assert (total, mse, pie) == total_loss(p, ds, tol=1e-9)
        fd = _central_differences(lambda q: total_loss(q, ds, tol=1e-9)[1], p)
        assert _agree(g_mse, fd, 1e-5)


# ---------------------------------------------------------------- training

def test_zero_epoch_training_returns_unit_params(reference_dataset):
    net, p, trace = train_pinn(reference_dataset, seed=0, epochs=0)
    assert trace == []
    assert p == pytest.approx(np.ones(14), abs=0.0)
    assert np.all(net.weights[-1] == 0.0)


def test_training_trace_mostly_monotone(reference_dataset):
    improved = 0
    seeds = range(8)
    for seed in seeds:
        _, _, trace = train_pinn(reference_dataset, seed=seed, epochs=40)
        assert len(trace) == 40
        total = [row.total for row in trace]
        drops = sum(b <= a + 1e-12 for a, b in zip(total, total[1:]))
        if drops >= 0.9 * (len(total) - 1):
            improved += 1
        assert all(math.isfinite(row.total) for row in trace)
        assert trace[-1].total < trace[0].total
    assert improved >= 0.9 * len(list(seeds))


def test_training_is_seed_deterministic(reference_dataset):
    _, p1, t1 = train_pinn(reference_dataset, seed=3, epochs=5)
    _, p2, t2 = train_pinn(reference_dataset, seed=3, epochs=5)
    assert np.array_equal(p1, p2)
    assert t1 == t2


# ---------------------------------------------------------------- estimate

def test_estimate_seed_zero_full_run(reference_dataset):
    report = estimate(reference_dataset, seed=0)
    assert report.final_mse < 0.05
    assert report.final_mse <= report.post_nn_mse
    assert len(report.adam_trace) == 100
    assert len(report.initial_params) == 14
    assert all(v > 0 for v in report.final_params)
    # the serialized form is deterministic byte for byte
    again = estimate(reference_dataset, seed=0)
    assert report.to_json() == again.to_json()


def test_estimate_report_serialization(tmp_path, reference_dataset):
    report = estimate(reference_dataset, seed=1, epochs=5, bfgs_iterations=10)
    blob = json.loads(report.to_json())
    assert blob["seed"] == 1
    assert len(blob["final_params"]) == 14
    trace_path = tmp_path / "trace.csv"
    report.write_trace_csv(trace_path)
    lines = trace_path.read_text().splitlines()
    assert lines[0] == "stage,step,total,mse,pie"
    assert any(line.startswith("adam,") for line in lines[1:])
    assert any(line.startswith("bfgs,") for line in lines[1:])


def test_estimate_polish_never_hurts(reference_dataset):
    for seed in (1, 2):
        report = estimate(reference_dataset, seed=seed, epochs=30,
                          bfgs_iterations=50)
        assert report.final_mse <= report.post_nn_mse


@pytest.fixture(scope="module")
def readme_dataset():
    """The README's noisy data: 40 points on [0, 5], noise 0.02, noise seed 0."""
    return synthesize(ModelParams(**REFERENCE), State(4.991, 1.178, 0.577),
                      np.linspace(0.0, 5.0, 40), noise_sigma=0.02, seed=0)


def test_estimate_reaches_the_noise_floor(readme_dataset):
    # the log-parameter polish ends within 1.5x of the MSE the generating
    # parameters themselves reach on the noisy data (0.00120)
    _, truth_mse, _ = total_loss(ModelParams(**REFERENCE).as_array(), readme_dataset)
    report = estimate(readme_dataset, seed=0)
    assert report.stage_errors == []
    assert report.final_mse <= 1.5 * truth_mse


# Byte pins of a short estimate on the README data: every loss evaluation of
# both stages goes into these bytes, so a rewrite of the network, the loss
# terms, the dx/dp pass or the optimizers that changes one floating-point
# operation or its order shows here.  Like the equilibria.json pins, they
# assume the BLAS that numpy ships with.
SHORT_ESTIMATE_DIGESTS = {
    "report.json": "24e990887654bb6b9fc1a52c720e71287885275d1a38f51fc9020c5e22758353",
    "trace.csv": "ab78acec8d72e2a0812a710ccc743b3ff3b0c9a0a97761c9c52a2ac068927988",
}


def test_short_estimate_is_pinned(readme_dataset, tmp_path):
    report = estimate(readme_dataset, seed=0, epochs=10, bfgs_iterations=5)
    report.write_trace_csv(tmp_path / "trace.csv")
    got = {"report.json": hashlib.sha256(report.to_json().encode()).hexdigest(),
           "trace.csv": hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()}
    assert got == SHORT_ESTIMATE_DIGESTS


def test_polish_integrates_once_per_point(readme_dataset, monkeypatch):
    # each network epoch is one gradient integration at 1e-6 and one physics
    # term; every polish evaluation is one gradient integration at 1e-9, at
    # x0 and at each line-search candidate, with no physics term; the
    # accepted point is not integrated a second time, and the final physics
    # term needs no integration at all; each stage builds its dataset
    # constants once, not once per integration
    calls, physics_at, candidates, built = [], [], [0], []
    real_simulate, real_physics = ppsdyn.pinn._simulate, ppsdyn.pinn._physics_term
    real_line_search = ppsdyn.optimize._line_search
    real_fit_data = ppsdyn.pinn._fit_data

    def counting_simulate(params, fit, sensitivities):
        calls.append((fit.cfg.tol, sensitivities))
        return real_simulate(params, fit, sensitivities)

    def counting_fit_data(ds, raw_grid, tol):
        built.append((tol, len(calls)))
        return real_fit_data(ds, raw_grid, tol)

    def counting_physics(*args, **kwargs):
        physics_at.append(len(calls))
        return real_physics(*args, **kwargs)

    def counting_line_search(fun, *args):
        def counted(u):
            candidates[0] += 1
            return fun(u)
        return real_line_search(counted, *args)

    monkeypatch.setattr(ppsdyn.pinn, "_simulate", counting_simulate)
    monkeypatch.setattr(ppsdyn.pinn, "_fit_data", counting_fit_data)
    monkeypatch.setattr(ppsdyn.pinn, "_physics_term", counting_physics)
    monkeypatch.setattr(ppsdyn.optimize, "_line_search", counting_line_search)
    report = estimate(readme_dataset, seed=0, epochs=3, bfgs_iterations=15)
    assert len(report.bfgs_trace) == 16
    assert calls[:3] == [(1e-6, True)] * 3  # the network stage
    assert calls[3:] == [(1e-9, True)] * (1 + candidates[0])
    assert candidates[0] >= 15
    # one physics term after each epoch's integration, then one for final_pie
    assert physics_at == [1, 2, 3, len(calls)]
    assert built == [(1e-6, 0), (1e-9, 3)]


def test_runaway_bound_changes_no_fit_and_saves_work(readme_dataset, monkeypatch):
    # the candidates the data-scaled bound cuts short are runaways that the
    # line search rejects either way, so the report is the same; they used to
    # run on to the solver's 1e12 guard (34,940 evaluations, against 23,630)
    count = _count_solver_rhs(monkeypatch)
    runs = []
    for factor in (math.inf, ppsdyn.pinn.RUNAWAY_FACTOR):
        monkeypatch.setattr(ppsdyn.pinn, "RUNAWAY_FACTOR", factor)
        count[0] = 0
        runs.append((estimate(readme_dataset, seed=0, bfgs_iterations=20).record(), count[0]))
    (unbounded, unbounded_evals), (bounded, bounded_evals) = runs
    assert bounded == unbounded
    assert unbounded_evals - bounded_evals >= 11_000


def test_network_stage_failure_keeps_trace_and_best(readme_dataset, monkeypatch):
    # an integration that fails in epoch 5 aborts training with the five
    # finished rows and the prediction of the lowest total among them;
    # estimate records the abort and polishes from that prediction
    real_simulate = ppsdyn.pinn._simulate
    predictions = []

    def failing_fifth_epoch(params, *args, **kwargs):
        predictions.append(params.as_array())
        if len(predictions) == 6:
            raise IntegrationFailed("forced")
        return real_simulate(params, *args, **kwargs)

    monkeypatch.setattr(ppsdyn.pinn, "_simulate", failing_fifth_epoch)
    with pytest.raises(NonFiniteLoss) as info:
        train_pinn(readme_dataset, seed=1, epochs=20)
    assert str(info.value) == "training loss or gradient non-finite at epoch 5"
    trace = info.value.history
    assert len(trace) == 5 and all(isinstance(row, TraceRow) for row in trace)
    best = predictions[int(np.argmin([row.total for row in trace]))]
    assert np.array_equal(info.value.best, best)

    predictions.clear()
    report = estimate(readme_dataset, seed=1, epochs=20, bfgs_iterations=5)
    assert report.stage_errors == [f"network stage: {info.value}"]
    assert report.adam_trace == trace
    assert np.array_equal(report.post_nn_params, best)
    assert report.bfgs_trace[0] == _log_mse(readme_dataset)(np.log(best))[0]


def test_polish_stage_failure_keeps_what_the_polish_reached(readme_dataset, monkeypatch):
    # a line search that gives up hands back its last iterate and history;
    # a polish whose start is non-finite has neither, and its final MSE is inf
    last = np.log(np.full(14, 2.0))

    def line_search_fails(fun, u0, max_iterations):
        raise LineSearchFailed("no step", x=last, history=[0.5, 0.25])

    monkeypatch.setattr(ppsdyn.pinn, "bfgs_run", line_search_fails)
    report = estimate(readme_dataset, seed=0, epochs=2, bfgs_iterations=5)
    assert report.stage_errors == ["polish stage: no step"]
    assert np.array_equal(report.final_params, np.exp(last))
    assert report.bfgs_trace == [0.5, 0.25]
    assert (report.post_nn_mse, report.final_mse) == (0.5, 0.25)
    assert math.isfinite(report.final_pie)

    def start_not_finite(fun, u0, max_iterations):
        raise NonFiniteLoss("non-finite start")

    monkeypatch.setattr(ppsdyn.pinn, "bfgs_run", start_not_finite)
    report = estimate(readme_dataset, seed=0, epochs=2, bfgs_iterations=5)
    assert report.stage_errors == ["polish stage: non-finite start"]
    assert np.array_equal(report.final_params, np.exp(np.log(report.post_nn_params)))
    assert report.bfgs_trace == []
    assert report.post_nn_mse == report.final_mse == math.inf
    assert math.isfinite(report.final_pie)


def test_final_pie_is_infinite_where_exp_overflows(readme_dataset, monkeypatch):
    def overflowing_iterate(fun, u0, max_iterations):
        raise LineSearchFailed("no step", x=np.full(14, 800.0), history=[0.5])

    monkeypatch.setattr(ppsdyn.pinn, "bfgs_run", overflowing_iterate)
    with np.errstate(over="ignore"):
        report = estimate(readme_dataset, seed=0, epochs=2, bfgs_iterations=5)
    assert report.final_pie == math.inf


def test_both_terms_are_infinite_where_k_squared_underflows(readme_dataset):
    # at k = 1e-170, k * k underflows to zero, r/k^2 is inf and the model
    # derivative at the observed states overflows: each term comes back
    # with an infinite value, raising nothing and warning nothing
    p = ModelParams(**REFERENCE).as_array()
    p[PARAM_ORDER.index("k")] = 1e-170
    fit = ppsdyn.pinn._fit_data(readme_dataset, readme_dataset.raw_times, 1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pie, _ = _loss_or_inf(ppsdyn.pinn._physics_term, p,
                              *ppsdyn.pinn._physics_data(readme_dataset))
        mse, _ = _loss_or_inf(ppsdyn.pinn._misfit, p, fit, True)
    assert pie == math.inf and mse == math.inf


def test_loss_guard_lets_a_term_error_through(readme_dataset):
    # a p that ModelParams rejects is the infinite case; a ValueError that
    # the term itself raises is not
    def term(params):
        raise ValueError("inside the term")

    for bad in (np.full(14, math.nan), -np.ones(14), np.full(14, math.inf)):
        value, grad = _loss_or_inf(term, bad)
        assert value == math.inf and np.all(grad == math.inf)
    with pytest.raises(ValueError, match="inside the term"):
        _loss_or_inf(term, np.ones(14))


def test_log_polish_survives_overflowing_candidates(readme_dataset):
    # from k = e with every other parameter at 1 the first BFGS step has
    # components past log(float max); exp(u) overflows to inf there, the
    # objective must come back infinite without a warning, and the line
    # search must halve past it
    fun = _log_mse(readme_dataset)
    seen = []

    def recording(u):
        seen.append(u.copy())
        return fun(u)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, grad = fun(np.full(14, 800.0))
        assert value == math.inf
        u, hist = bfgs_run(recording, np.eye(14)[1], max_iterations=5)
    assert any(np.max(v) > math.log(np.finfo(float).max) for v in seen)
    assert all(math.isfinite(v) for v in hist)
    assert hist[-1] < hist[0]
    assert np.all(np.isfinite(np.exp(u)))


def test_estimation_distinguishes_competing_parameter_sets():
    # noisy short-horizon data generated by the anchor set must be fit
    # better by those parameters than by a doubled variant
    p_true = ModelParams(**REFERENCE)
    doubled = {k: 2.0 * v for k, v in REFERENCE.items()}
    p_alt = ModelParams(**doubled)
    grid = np.linspace(0.0, 1.0, 30)
    s0 = State(4.991, 1.178, 0.577)
    wins = 0
    trials = 100
    for seed in range(trials):
        ds = synthesize(p_true, s0, grid, noise_sigma=0.01, seed=seed)
        _, mse_true, _ = total_loss(p_true.as_array(), ds)
        _, mse_alt, _ = total_loss(p_alt.as_array(), ds)
        if mse_true < mse_alt:
            wins += 1
    assert wins >= 95


def test_simulate_on_data_reproduces_clean_data(reference_params, reference_dataset):
    ds = reference_dataset
    traj, pred = simulate_on_data(reference_params, ds, ds.raw_times, 1e-9)
    assert np.array_equal(traj.times, ds.raw_times)
    assert np.max(np.abs(pred - ds.observations)) < 1e-6
