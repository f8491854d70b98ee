"""End-to-end acceptance checks against the frozen reference values.

Each test states one verifiable claim about the package as a whole and is
meant to be read as a checklist: `pytest -v tests/test_acceptance.py` prints
one pass/fail line per claim.

One test is expected to fail: test_stability_reference_m_values compares
against quoted reference values whose m1 and discriminant correspond to a
Jacobian missing its logistic self-limitation term (see the inline note).
The shipped Jacobian keeps the term, so the comparison is reported honestly
rather than patched over.
"""

import math
import time

import numpy as np
import pytest

from conftest import rand_params
from ppsdyn.equilibria import (interior_equilibrium_direct,
                               interior_poly_crosscheck, predprey_equilibria,
                               predscav_equilibria)
from ppsdyn.model import ModelParams, State
from ppsdyn.optimize import adam_run, bfgs_run
from ppsdyn.pinn import (backward, estimate, forward, init_mlp, total_loss,
                         _forward_cached)
from ppsdyn.solver import SolverConfig, detect_settling, integrate
from ppsdyn.stability import (STABLE, UNSTABLE, classify, jacobian,
                              routh_hurwitz_cubic)


def test_equilibrium_reference_points(predscav_params, predprey_params,
                                      stable_params, unstable_params,
                                      reference_params):
    budget = 1.0  # seconds per solve

    t0 = time.perf_counter()
    ps = predscav_equilibria(predscav_params)[-1]
    assert time.perf_counter() - t0 < budget
    assert ps.point[1] == pytest.approx(22.3923, abs=1e-3)
    assert ps.point[2] == pytest.approx(1.1547, abs=1e-3)

    t0 = time.perf_counter()
    pp = predprey_equilibria(predprey_params)[-1]
    assert time.perf_counter() - t0 < budget
    assert pp.point[0] == pytest.approx(1.1547, abs=1e-3)
    assert pp.point[1] == pytest.approx(0.4880, abs=1e-3)

    for params, expected, tol in (
        (stable_params, (1.1331137, 0.33726859, 0.168040476), 1e-4),
        (unstable_params, (1.951629, 0.470157934, 0.510619637), 1e-4),
        (reference_params, (4.4984538, 1.161178, 0.38895175), 1e-3),
    ):
        t0 = time.perf_counter()
        eq = interior_equilibrium_direct(params)[0]
        assert time.perf_counter() - t0 < budget
        assert eq.point == pytest.approx(expected, abs=tol)


def test_stability_reference_m_values(unstable_params, stable_params,
                                      reference_params):
    v = classify(unstable_params, interior_equilibrium_direct(unstable_params)[0])
    assert v.m1 == pytest.approx(0.041538, abs=1e-2)
    assert v.m2 == pytest.approx(0.4892535, abs=1e-2)
    assert v.m3 == pytest.approx(0.02166, abs=1e-2)
    assert v.classification == UNSTABLE

    v = classify(stable_params, interior_equilibrium_direct(stable_params)[0])
    assert v.m1 == pytest.approx(0.845, abs=1e-2)
    assert v.m2 == pytest.approx(0.68, abs=1e-2)
    assert v.m3 == pytest.approx(0.052, abs=1e-2)
    assert v.classification == STABLE

    v = classify(reference_params,
                 interior_equilibrium_direct(reference_params)[0])
    assert v.classification == STABLE
    assert v.m2 == pytest.approx(0.39684137, abs=1e-2)
    assert v.m3 == pytest.approx(0.02975781, abs=1e-2)
    # The two assertions below FAIL by design and are left in place.
    # The quoted reference values m1 = 0.1178643784 and discriminant
    # 0.0170156515 are reproduced to ten digits only when the (0,0)
    # Jacobian entry drops its -2rx/k logistic term (the computed values
    # with the full Jacobian are 0.13308972 and 0.02340068; the gaps,
    # 0.0152 and 0.0064, exceed the stated tolerances). The restored-term
    # reproduction is pinned by a regression test in test_stability.py.
    assert v.m1 == pytest.approx(0.1178643784, abs=1e-2)
    assert v.discriminant == pytest.approx(0.01701565, abs=1e-4)


def test_jacobian_reference_matrix(stable_params):
    eq = interior_equilibrium_direct(stable_params)[0]
    J = jacobian(stable_params, State(*eq.point))
    printed = np.array([[-0.79, -0.97, -0.97],
                        [0.44, 0.0, 0.11],
                        [0.22, 0.014, -0.055]])
    assert np.max(np.abs(J - printed)) < 0.01

    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        p = rand_params(rng, 0.2, 2.0)
        s = State(*rng.uniform(0.2, 4.0, 3))
        A = jacobian(p, s)
        F = np.zeros((3, 3))
        h = 1e-7
        from ppsdyn.model import rhs
        base = np.array(s[:3])
        for col in range(3):
            hi, lo = base.copy(), base.copy()
            hi[col] += h
            lo[col] -= h
            F[:, col] = (np.array(rhs(State(*hi), p))
                         - np.array(rhs(State(*lo), p))) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(F))))
        worst = max(worst, float(np.max(np.abs(A - F))) / scale)
    assert worst < 1e-6


def test_settling_behavior_matches_reference(predscav_params, predprey_params,
                                             unstable_params, stable_params):
    # collapse to the origin in the prey-free plane
    traj = integrate(predscav_params, State(0.0, 4.0, 6.0),
                     SolverConfig(t_end=200.0))
    assert float(np.linalg.norm(traj.states[-1])) < 1e-3

    # convergence to the planar point in the scavenger-free plane
    target = predprey_equilibria(predprey_params)[-1].point
    traj = integrate(predprey_params, State(2.0, 4.0, 0.0),
                     SolverConfig(t_end=500.0))
    assert float(np.linalg.norm(traj.states[-1] - np.array(target))) < 1e-2

    # sustained oscillation never settles
    traj = integrate(unstable_params, State(4.0, 3.0, 2.0),
                     SolverConfig(t_end=500.0))
    assert detect_settling(traj, window=100.0, tol=1e-2) is None

    # damped case settles onto the interior point
    point = interior_equilibrium_direct(stable_params)[0].point
    traj = integrate(stable_params, State(4.0, 3.0, 2.0),
                     SolverConfig(t_end=200.0))
    settled = detect_settling(traj, window=40.0, tol=1e-2)
    assert settled is not None
    assert settled[:3] == pytest.approx(point, abs=1e-2)


def test_interior_crosscheck_report(unstable_params, stable_params,
                                    reference_params):
    outcomes = {}
    for name, params in (("oscillatory", unstable_params),
                         ("damped", stable_params),
                         ("reference", reference_params)):
        report = interior_poly_crosscheck(params)
        direct = interior_equilibrium_direct(params)[0]
        assert report["admissible_roots"] == [direct.point[0]]
        outcomes[name] = (report["agrees"], report["scan_sign_changes"])
    # agreement is documented either way; for these three sets the grid
    # scan counts exactly the one root the polynomial route admits
    for name, (agrees, count) in outcomes.items():
        assert agrees, f"{name}: scan counts {count} roots, polynomial admits 1"
        assert count == 1


def test_optimizer_benchmarks():
    def rand_quad(rng, n, lo, hi):
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = Q @ np.diag(rng.uniform(lo, hi, n)) @ Q.T
        c = rng.uniform(-1.0, 1.0, n)

        def fun(x):
            return float(0.5 * (x - c) @ A @ (x - c)), A @ (x - c)
        return A, c, fun

    for s in range(5):
        rng = np.random.default_rng(2000 + s)
        A, c, fun = rand_quad(rng, 10, 1.0, 10.0)
        x, hist = bfgs_run(fun, rng.uniform(-2.0, 2.0, 10))
        assert len(hist) - 1 <= 30
        assert float(np.linalg.norm(A @ (x - c))) < 1e-6
        assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))

    def rosen(x):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2), np.array([
            -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
            200.0 * (x[1] - x[0] ** 2),
        ])

    x, hist = bfgs_run(rosen, np.array([-1.2, 1.0]))
    assert len(hist) - 1 <= 200
    assert x == pytest.approx([1.0, 1.0], abs=1e-5)
    assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))

    for s in range(5):
        rng = np.random.default_rng(1000 + s)
        A, c, fun = rand_quad(rng, 14, 0.5, 3.0)
        theta, hist = adam_run(fun, rng.uniform(-2.0, 2.0, 14), alpha=0.05, num_steps=500)
        assert float(np.linalg.norm(theta - c)) < 0.1
        assert len(hist) == 500


def test_network_gradient_accuracy():
    rng = np.random.default_rng(11)
    net = init_mlp(rng, [2, 3, 2])
    net.weights[-1][:] = rng.standard_normal(net.weights[-1].shape)
    net.biases[-1][:] = rng.uniform(0.5, 1.5, net.biases[-1].shape)
    x = rng.uniform(-1.0, 1.0, 2)
    target = rng.uniform(0.0, 1.0, 2)

    out, caches = _forward_cached(net, x)
    analytic = backward(net, caches, 2.0 * (out - target))
    theta0 = net.theta.copy()

    def loss(theta):
        net.theta[...] = theta
        value = float(np.sum((forward(net, x) - target) ** 2))
        net.theta[...] = theta0
        return value

    h = 1e-6
    worst = 0.0
    for idx in range(len(theta0)):
        up, dn = theta0.copy(), theta0.copy()
        up[idx] += h
        dn[idx] -= h
        fd = (loss(up) - loss(dn)) / (2.0 * h)
        denom = max(1.0, abs(fd), abs(analytic[idx]))
        worst = max(worst, abs(fd - analytic[idx]) / denom)
    assert worst < 1e-4


def test_recovery_from_clean_data(reference_dataset):
    started = time.perf_counter()
    finals = []
    for seed in range(5):
        report = estimate(reference_dataset, seed=seed)
        assert report.final_mse <= report.post_nn_mse  # polish never hurts
        finals.append(report.final_mse)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    assert min(finals) < 0.05
    assert all(math.isfinite(v) for v in finals)


def test_loss_decomposition_and_verdict_consistency(reference_params,
                                                    reference_dataset):
    p = reference_params.as_array()
    total, mse, pie = total_loss(p, reference_dataset)
    assert total == mse + pie  # exact, not approximate
    assert mse < 1e-8

    rng = np.random.default_rng(4242)
    checked = 0
    disagreements = 0
    while checked < 1000:
        A = rng.uniform(-1.0, 1.0, (3, 3))
        eigs = np.linalg.eigvals(A)
        if np.min(np.abs(eigs.real)) < 1e-6:
            continue
        m1 = -float(np.trace(A))
        m2 = float(0.5 * (np.trace(A) ** 2 - np.trace(A @ A)))
        m3 = -float(np.linalg.det(A))
        if min(abs(m1), abs(m2), abs(m3), abs(m1 * m2 - m3)) < 1e-9:
            continue
        verdict = routh_hurwitz_cubic(m1, m2, m3)
        expected = STABLE if np.all(eigs.real < 0) else UNSTABLE
        disagreements += verdict.classification != expected
        checked += 1
    assert disagreements == 0
