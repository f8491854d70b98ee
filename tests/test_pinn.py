import collections
import copy
import dataclasses
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
from ppsdyn.solver import integrate
from ppsdyn.pinn import (MLP_SIZES, Mlp, backward, data_derivative, estimate,
                         forward, grid_derivative, init_mlp, init_params,
                         simulate_on_data, total_loss, train_pinn, TraceRow, _forward_cached, _in_log,
                         _log_mse, _mean_squared_norm, _problem)


def _tiny_net(seed=0, sizes=(2, 3, 2)):
    return init_mlp(np.random.default_rng(seed), list(sizes))


# ---------------------------------------------------------------- network

def test_mlp_shapes():
    net = init_mlp(np.random.default_rng(0))
    assert net.sizes == MLP_SIZES
    assert [w.shape for w in net.weights] == [(32, 14), (32, 32), (32, 32),
                                              (14, 32)]


def test_readout_starts_at_one():
    # zero readout weights and bias make the initial log-parameters zero,
    # so the initial prediction exp(0) is exactly one for every channel
    net = init_mlp(np.random.default_rng(123))
    assert np.all(net.weights[-1] == 0.0)
    assert np.all(net.biases[-1] == 0.0)
    out = forward(net, np.random.default_rng(5).uniform(0, 1, 14))
    assert np.array_equal(out, np.zeros(14))
    assert np.array_equal(np.exp(out), np.ones(14))


def test_swish_value_through_single_unit():
    # theta is W0, b0, W1, b1
    net = Mlp([1, 1, 1], theta=[1.0, 0.0, 1.0, 0.0])
    got = forward(net, np.array([1.0]))[0]
    assert got == pytest.approx(0.7310585786300049, abs=1e-15)


def test_mlp_theta_must_match_its_widths():
    # widths 2, 4, 3 take (2 + 1) * 4 + (4 + 1) * 3 = 27 values: a theta
    # of any other length cannot be laid out and is refused
    with pytest.raises(ValueError, match="27 values"):
        Mlp([2, 4, 3], theta=np.zeros(30))
    with pytest.raises(ValueError):
        Mlp([2], theta=[])
    net = Mlp([2, 4, 3])
    assert np.array_equal(net.theta, np.zeros(27))
    assert [W.shape for W in net.weights] == [(4, 2), (3, 4)]
    assert [b.shape for b in net.biases] == [(4,), (3,)]
    assert all(np.shares_memory(v, net.theta) for v in net.weights + net.biases)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    net = _tiny_net()
    # randomize the readout: its zero start would pass no gradient back to
    # the hidden layers
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
    # a NaN time passes a uniformity test written as a comparison, and two
    # infinite values two rows apart difference to NaN: both are refused
    # before any arithmetic
    with pytest.raises(ValueError, match="finite"):
        grid_derivative(np.array([0.0, 1.0, 2.0, np.nan, 4.0]), np.zeros((5, 3)))
    infinite = np.zeros((5, 3))
    infinite[[0, 2], 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        grid_derivative(np.arange(5.0), infinite)
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


@pytest.mark.parametrize("seed", [1.5, -1, True, np.True_, np.int64(-2), "0", None],
                         ids=["float", "negative", "bool", "numpy-bool", "numpy-negative",
                              "str", "none"])
def test_estimation_refuses_a_bad_seed_before_any_work(reference_dataset, monkeypatch, seed):
    # unchecked, numpy raises its own TypeError or ValueError for these, and
    # True runs as seed 1; each is refused before the problem is built or
    # anything is drawn
    work = []
    for name in ("_problem", "_simulate", "init_params", "init_mlp"):
        monkeypatch.setattr(ppsdyn.pinn, name, lambda *a, name=name, **k: work.append(name))
    for run in (lambda: estimate(reference_dataset, seed, epochs=1, bfgs_iterations=1),
                lambda: train_pinn(reference_dataset, seed, epochs=1)):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            run()
    assert work == []


def test_a_numpy_integer_seed_is_a_seed(reference_dataset):
    got = estimate(reference_dataset, np.int64(2), epochs=2, bfgs_iterations=2)
    assert got.to_json() == estimate(reference_dataset, 2, epochs=2, bfgs_iterations=2).to_json()


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
    # reference parameters; the total loss at the polish's tolerance, 1e-6,
    # and the MSE alone at the tighter 1e-9 of fit.svg's integration
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


@pytest.mark.parametrize("seed", [0, 3, 9, 14])
def test_estimate_reaches_the_noise_floor(readme_dataset, seed):
    # the log-parameter polish ends within 1.5x of the MSE the generating
    # parameters themselves reach on the noisy data (0.00120); seed 3 is the
    # one whose network stage ends with the smallest rate of seeds 0-19, and
    # seeds 14 and 9 are the two whose ratio rose most (0.87 -> 1.14 and
    # 0.88 -> 0.95) when the polish moved from tolerance 1e-9 to 1e-6
    _, truth_mse, _ = total_loss(ModelParams(**REFERENCE).as_array(), readme_dataset)
    report = estimate(readme_dataset, seed=seed)
    assert report.stage_errors == []
    assert report.final_mse <= 1.5 * truth_mse


def test_default_budget_polish_reaches_the_noise_floor():
    # a fit that needs its whole budget: sigma 0.01, noise seed 2, estimate
    # seed 3 ended at 3.17x the truth's MSE with the polish at tolerance
    # 1e-9 and its trace still falling; at 1e-6 it ends at 1.23x
    truth = ModelParams(**REFERENCE)
    ds = synthesize(truth, State(4.991, 1.178, 0.577), np.linspace(0.0, 5.0, 40),
                    noise_sigma=0.01, seed=2)
    _, truth_mse, _ = total_loss(truth.as_array(), ds)
    report = estimate(ds, seed=3)
    assert report.stage_errors == []
    assert report.final_mse <= 1.5 * truth_mse


def test_network_stage_leaves_no_parameter_near_zero(readme_dataset):
    # near p = 0 the polish's gradient in log p, d mse/dp * p, vanishes, so
    # a rate the network stage leaves there stays there
    smallest = min(float(np.min(train_pinn(readme_dataset, seed=seed)[1])) for seed in range(20))
    assert smallest > 1e-3


# Byte pins of a short estimate on the README data: every loss evaluation of
# both stages goes into these bytes, so a rewrite of the network, the loss
# terms, the dx/dp pass or the optimizers that changes one floating-point
# operation or its order shows here.  Like the equilibria.json pins, they
# assume the BLAS that numpy ships with.
SHORT_ESTIMATE_DIGESTS = {
    "report.json": "89bd3a86df12089ea7fd9d418372c3291762b1099cc6af907063018d77eb53cc",
    "trace.csv": "a11ed31544aa5a6945a17b8fa75432d5761f10318f10f4590afdaf1b64268507",
}


def test_short_estimate_is_pinned(readme_dataset, tmp_path):
    report = estimate(readme_dataset, seed=0, epochs=10, bfgs_iterations=5)
    report.write_trace_csv(tmp_path / "trace.csv")
    got = {"report.json": hashlib.sha256(report.to_json().encode()).hexdigest(),
           "trace.csv": hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()}
    assert got == SHORT_ESTIMATE_DIGESTS


def test_polish_integrates_once_per_point(readme_dataset, monkeypatch):
    # each network epoch is one gradient integration at NETWORK_TOL and one
    # physics term; every polish evaluation is one gradient integration at
    # LOSS_TOL, at x0 and at each line-search candidate, with no physics
    # term; the accepted point is not integrated a second time, and the
    # final physics term needs no integration at all; estimate builds its
    # dataset constants once, before the first epoch, not once per stage or
    # integration
    calls, physics_at, candidates, built = [], [], [0], []
    real_simulate, real_physics = ppsdyn.pinn._simulate, ppsdyn.pinn._physics_term
    real_line_search = ppsdyn.optimize._line_search
    real_problem = ppsdyn.pinn._problem

    def counting_simulate(params, fit, sensitivities):
        calls.append((fit.cfg.tol, sensitivities))
        return real_simulate(params, fit, sensitivities)

    def counting_problem(*args, **kwargs):
        prob = real_problem(*args, **kwargs)
        built.append((prob.cfg.tol, len(calls)))
        return prob

    def counting_physics(*args, **kwargs):
        physics_at.append(len(calls))
        return real_physics(*args, **kwargs)

    def counting_line_search(fun, *args):
        def counted(u):
            candidates[0] += 1
            return fun(u)
        return real_line_search(counted, *args)

    monkeypatch.setattr(ppsdyn.pinn, "_simulate", counting_simulate)
    monkeypatch.setattr(ppsdyn.pinn, "_problem", counting_problem)
    monkeypatch.setattr(ppsdyn.pinn, "_physics_term", counting_physics)
    monkeypatch.setattr(ppsdyn.optimize, "_line_search", counting_line_search)
    report = estimate(readme_dataset, seed=0, epochs=3, bfgs_iterations=15)
    network_tol, loss_tol = ppsdyn.pinn.NETWORK_TOL, ppsdyn.pinn.LOSS_TOL
    assert len(report.bfgs_trace) == 16
    assert calls[:3] == [(network_tol, True)] * 3  # the network stage
    assert calls[3:] == [(loss_tol, True)] * (1 + candidates[0])
    assert candidates[0] >= 15
    # one physics term after each epoch's integration, then one for final_pie
    assert physics_at == [1, 2, 3, len(calls)]
    assert built == [(loss_tol, 0)]


@pytest.mark.parametrize("tol", [ppsdyn.pinn.NETWORK_TOL, ppsdyn.pinn.LOSS_TOL],
                         ids=["network", "polish"])
def test_a_checked_grid_changes_no_bit(readme_dataset, tol):
    # estimation integrates on the grid _problem checked once; every
    # output is bitwise the one of integrate on the raw grid, which checks
    # and copies it on each call
    fit = _problem(readme_dataset, tol=tol)
    raw = readme_dataset.raw_times
    for params in (ModelParams.from_array(np.ones(14)), ModelParams(**REFERENCE)):
        for sens in (False, True):
            want = integrate(params, fit.s0, fit.cfg, t_eval=raw, sensitivities=sens)
            for _ in range(2):
                got = integrate(params, fit.s0, fit.cfg, t_eval=fit.grid, sensitivities=sens)
                assert got.times.tobytes() == want.times.tobytes()
                assert got.states.tobytes() == want.states.tobytes()
                assert got.diagnostics == want.diagnostics
                if sens:
                    assert got.sensitivities.tobytes() == want.sensitivities.tobytes()
                else:
                    assert got.sensitivities is None
                # each trajectory holds its own times: writing them leaves
                # the next integration unchanged
                got.times[:] = -1.0
            want.times[:] = -1.0
    assert fit.grid.times.tolist() == raw.tolist()
    # the grid is checked for one start time and one t_end
    with pytest.raises(ValueError, match="must start at the initial time"):
        integrate(params, fit.s0._replace(t=fit.s0.t + 0.5), fit.cfg, t_eval=fit.grid)
    with pytest.raises(ValueError, match="must end at t_end"):
        integrate(params, fit.s0, dataclasses.replace(fit.cfg, t_end=fit.cfg.t_end - 0.5),
                  t_eval=fit.grid)


def test_each_stage_checks_its_grid_once_and_every_integration_is_hooked(readme_dataset,
                                                                        monkeypatch):
    # the grid check runs once per _problem, one per estimate, not once per
    # stage or integration; and every estimation integration still passes
    # the two names that count its work: the benchmark's tracer wraps
    # ppsdyn.pinn.integrate, and the work pins count ppsdyn.solver.make_rhs
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    check = counted("check_grid", ppsdyn.solver.check_grid)
    monkeypatch.setattr(ppsdyn.solver, "check_grid", check)
    monkeypatch.setattr(ppsdyn.pinn, "check_grid", check)
    for module, name in ((ppsdyn.pinn, "_problem"), (ppsdyn.pinn, "integrate"),
                         (ppsdyn.solver, "make_rhs")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    estimate(readme_dataset, seed=0, epochs=5, bfgs_iterations=3)
    assert counts["check_grid"] == counts["_problem"] == 1
    assert counts["integrate"] == counts["make_rhs"] > 4


def test_problem_is_built_once_per_call(readme_dataset, monkeypatch):
    # one estimation problem per estimate, train_pinn or total_loss call:
    # the stages and the final physics term share it
    built, real_problem = [], ppsdyn.pinn._problem

    def counting_problem(*args, **kwargs):
        built.append(args[0])
        return real_problem(*args, **kwargs)

    monkeypatch.setattr(ppsdyn.pinn, "_problem", counting_problem)
    p = ModelParams(**REFERENCE).as_array()
    for run in (lambda: estimate(readme_dataset, seed=0, epochs=3, bfgs_iterations=3),
                lambda: train_pinn(readme_dataset, seed=0, epochs=3),
                lambda: total_loss(p, readme_dataset),
                lambda: total_loss(p, readme_dataset, gradient=True)):
        built.clear()
        run()
        assert built == [readme_dataset]


def test_runaway_bound_changes_no_fit_and_saves_work(readme_dataset, monkeypatch):
    # the candidates the data-scaled bound cuts short are runaways that the
    # line search rejects either way, so the report is the same; they used to
    # run on to the solver's 1e12 guard (12,428 evaluations, against
    # 9,704).  The polish runs without its lower bound here, from the same
    # start, so that its first trials are the full gradient steps that run
    # away
    def unscaled_polish(fun, u0, max_iterations, lower_bound):
        return bfgs_run(fun, u0, max_iterations=max_iterations)

    monkeypatch.setattr(ppsdyn.pinn, "bfgs_run", unscaled_polish)
    count = _count_solver_rhs(monkeypatch)
    runs = []
    for factor in (math.inf, ppsdyn.pinn.RUNAWAY_FACTOR):
        monkeypatch.setattr(ppsdyn.pinn, "RUNAWAY_FACTOR", factor)
        count[0] = 0
        runs.append((estimate(readme_dataset, seed=0, bfgs_iterations=20).record(), count[0]))
    (unbounded, unbounded_evals), (bounded, bounded_evals) = runs
    assert bounded == unbounded
    assert (unbounded_evals, bounded_evals) == (12_428, 9_704)


@pytest.mark.parametrize("iterations, rhs_evals", [(20, 7_855), (200, 22_521)],
                         ids=["20", "200"])
def test_polish_work_is_pinned(readme_dataset, monkeypatch, iterations, rhs_evals):
    # a work gate with no clock, at the benchmark's budget and at the
    # default one, which the benchmark's fits never reach: the polish runs
    # every iteration, and its Polyak first steps reach no runaway
    # candidate; the full gradient steps that bfgs_run tries without a
    # lower bound integrate 6 of them up to the runaway bound in the first
    # 20 iterations (9,704 right-hand-side evaluations in all); the network
    # stage makes 6,202 of these counts (test_network_stage_work_is_pinned)
    count = _count_solver_rhs(monkeypatch)
    real_integrate, failed = ppsdyn.pinn.integrate, []

    def counting_integrate(*args, **kwargs):
        try:
            return real_integrate(*args, **kwargs)
        except IntegrationFailed as exc:
            failed.append(exc)
            raise

    monkeypatch.setattr(ppsdyn.pinn, "integrate", counting_integrate)
    report = estimate(readme_dataset, seed=0, bfgs_iterations=iterations)
    assert failed == []
    assert len(report.bfgs_trace) == iterations + 1
    assert count[0] == rhs_evals


def test_network_stage_work_is_pinned(readme_dataset, monkeypatch):
    # the network stage's own work gate, so that a change to either stage's
    # work shows under that stage's name: 100 gradient integrations at
    # NETWORK_TOL (12,034 right-hand-side evaluations at LOSS_TOL)
    count = _count_solver_rhs(monkeypatch)
    train_pinn(readme_dataset, seed=0)
    assert count[0] == 6_202


def test_network_output_does_not_depend_on_its_tolerance(readme_dataset, monkeypatch):
    # Adam's step reads only gradients, never compares loss values, so the
    # network stage ends at the same log p at either tolerance, to within
    # 8.2e-5 over README seeds 0-19; seed 3 ends with the smallest rate of
    # those seeds
    seeds = (0, 3)
    loose = [np.log(train_pinn(readme_dataset, seed=seed)[1]) for seed in seeds]
    monkeypatch.setattr(ppsdyn.pinn, "NETWORK_TOL", ppsdyn.pinn.LOSS_TOL)
    tight = [np.log(train_pinn(readme_dataset, seed=seed)[1]) for seed in seeds]
    assert np.max(np.abs(np.array(loose) - np.array(tight))) < 1e-3


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
    assert report.bfgs_trace[0] == _log_mse(_problem(readme_dataset))(np.log(best))[0]


def test_polish_stage_failure_keeps_what_the_polish_reached(readme_dataset, monkeypatch):
    # a line search that gives up hands back its last iterate and history;
    # a polish whose start is non-finite has neither, and its final MSE is inf
    last = np.log(np.full(14, 2.0))

    def line_search_fails(fun, u0, max_iterations, lower_bound):
        raise LineSearchFailed("no step", x=last, history=[0.5, 0.25])

    monkeypatch.setattr(ppsdyn.pinn, "bfgs_run", line_search_fails)
    report = estimate(readme_dataset, seed=0, epochs=2, bfgs_iterations=5)
    assert report.stage_errors == ["polish stage: no step"]
    assert np.array_equal(report.final_params, np.exp(last))
    assert report.bfgs_trace == [0.5, 0.25]
    assert (report.post_nn_mse, report.final_mse) == (0.5, 0.25)
    assert math.isfinite(report.final_pie)

    def start_not_finite(fun, u0, max_iterations, lower_bound):
        raise NonFiniteLoss("non-finite start")

    monkeypatch.setattr(ppsdyn.pinn, "bfgs_run", start_not_finite)
    report = estimate(readme_dataset, seed=0, epochs=2, bfgs_iterations=5)
    assert report.stage_errors == ["polish stage: non-finite start"]
    assert np.array_equal(report.final_params, np.exp(np.log(report.post_nn_params)))
    assert report.bfgs_trace == []
    assert report.post_nn_mse == report.final_mse == math.inf
    assert math.isfinite(report.final_pie)


def test_final_pie_is_infinite_where_exp_overflows(readme_dataset, monkeypatch):
    def overflowing_iterate(fun, u0, max_iterations, lower_bound):
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
    prob = _problem(readme_dataset, tol=1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pie, _ = _in_log(ppsdyn.pinn._physics_term, np.log(p), prob)
        mse, _ = _in_log(ppsdyn.pinn._misfit, np.log(p), prob, True)
    assert pie == math.inf and mse == math.inf


def test_loss_guard_lets_a_term_error_through(readme_dataset):
    # a p = exp(u) that ModelParams rejects is the infinite case: u = nan,
    # u = -800 where p underflows to zero and u = 800 where it overflows; a
    # ValueError that the term itself raises is not
    def term(params):
        raise ValueError("inside the term")

    for bad in (math.nan, -800.0, 800.0):
        value, grad = _in_log(term, np.full(14, bad))
        assert value == math.inf and np.all(grad == math.inf)
    with pytest.raises(ValueError, match="inside the term"):
        _in_log(term, np.zeros(14))


def test_log_polish_survives_overflowing_candidates(readme_dataset):
    # from k = e with every other parameter at 1 the first BFGS step has
    # components past log(float max); exp(u) overflows to inf there, the
    # objective must come back infinite without a warning, and the line
    # search must halve past it
    fun = _log_mse(_problem(readme_dataset))
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


def test_simulate_on_data_needs_a_uniform_data_grid(reference_params, reference_dataset,
                                                    monkeypatch):
    # simulate_on_data builds the whole estimation problem, so a dataset
    # that estimate refuses is refused here too, before any integration,
    # whatever grid it is simulated on
    ds = copy.deepcopy(reference_dataset)
    ds.times[5] += 0.3 * (ds.times[6] - ds.times[5])
    calls = []
    monkeypatch.setattr(ppsdyn.pinn, "integrate", lambda *a, **k: calls.append(a))
    for grid in (ds.raw_times, np.linspace(ds.t_start, ds.t_end, 201)):
        with pytest.raises(ValueError, match="time grid must be uniform"):
            simulate_on_data(reference_params, ds, grid, 1e-9)
    assert calls == []
