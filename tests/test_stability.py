import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import rand_params
from ppsdyn.equilibria import (LABEL_PRED_PREY, LABEL_SCAV_PREY, all_equilibria,
                               interior_equilibrium_direct, predprey_equilibria,
                               predscav_equilibria, scavprey_equilibria)
from ppsdyn.errors import ExistenceViolated
from ppsdyn.model import ModelParams, State, Subsystem, rhs_subsystem
from ppsdyn import stability
from ppsdyn.stability import (MARGINAL, STABLE, UNSTABLE, classify, jacobian,
                              routh_hurwitz_cubic)


def _fd_jacobian(p, s, mask=Subsystem.FULL, h=1e-7):
    base = np.array(s[:3], dtype=float)
    J = np.zeros((3, 3))
    for col in range(3):
        hi = base.copy()
        lo = base.copy()
        hi[col] += h
        lo[col] -= h
        f_hi = np.array(rhs_subsystem(State(*hi), p, Subsystem.FULL))
        f_lo = np.array(rhs_subsystem(State(*lo), p, Subsystem.FULL))
        J[:, col] = (f_hi - f_lo) / (2.0 * h)
    idx = [i for i, m in enumerate(mask.mask) if m]
    return J[np.ix_(idx, idx)]


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        p = rand_params(rng, 0.2, 2.0)
        s = State(*rng.uniform(0.2, 4.0, 3))
        J = jacobian(p, s)
        F = _fd_jacobian(p, s)
        scale = max(1.0, float(np.max(np.abs(F))))
        worst = max(worst, float(np.max(np.abs(J - F))) / scale)
    assert worst < 1e-6


def test_jacobian_subsystem_restriction():
    rng = np.random.default_rng(29)
    p = rand_params(rng)
    s = State(0.0, 2.0, 3.0)
    J = jacobian(p, s, mask=Subsystem.PRED_SCAV)
    assert J.shape == (2, 2)
    full = jacobian(p, State(0.0, 2.0, 3.0))
    assert np.allclose(J, full[np.ix_([1, 2], [1, 2])], atol=0.0)


def test_interior_m_values_oscillatory_case(unstable_params):
    v = classify(unstable_params, interior_equilibrium_direct(unstable_params))
    assert v.m1 == pytest.approx(0.04153783, abs=1e-6)
    assert v.m2 == pytest.approx(0.48925350, abs=1e-6)
    assert v.m3 == pytest.approx(0.02165935, abs=1e-6)
    assert v.discriminant == pytest.approx(-0.00133682, abs=1e-6)
    assert v.classification == UNSTABLE


def test_interior_m_values_damped_case(stable_params):
    v = classify(stable_params, interior_equilibrium_direct(stable_params))
    assert v.m1 == pytest.approx(0.84484371, abs=1e-6)
    assert v.m2 == pytest.approx(0.68007944, abs=1e-6)
    assert v.m3 == pytest.approx(0.05204514, abs=1e-6)
    assert v.discriminant == pytest.approx(0.52251570, abs=1e-6)
    assert v.classification == STABLE


def test_reference_case_is_stable_focus(reference_params):
    v = classify(reference_params, interior_equilibrium_direct(reference_params))
    assert v.classification == STABLE
    real_pair = [ev for ev in v.eigenvalues if abs(ev.imag) > 1e-9]
    assert len(real_pair) == 2  # damped oscillation toward the point
    assert all(ev.real < 0 for ev in v.eigenvalues)


def test_eigenvalues_satisfy_characteristic_polynomial(stable_params):
    v = classify(stable_params, interior_equilibrium_direct(stable_params))
    for lam in v.eigenvalues:
        residual = lam**3 + v.m1 * lam**2 + v.m2 * lam + v.m3
        assert abs(residual) < 1e-10


def test_eigenvalues_do_not_depend_on_char_coeffs(stable_params, monkeypatch):
    # the eigenvalues come from the Jacobian itself, so a wrong m1, m2, m3
    # reaches only the Routh-Hurwitz criteria, never the verdict
    eq = interior_equilibrium_direct(stable_params)
    good = classify(stable_params, eq)
    monkeypatch.setattr(stability, "_char_coeffs_3", lambda J: (-1.0, -2.0, -3.0))
    bad = classify(stable_params, eq)
    assert bad.eigenvalues == good.eigenvalues
    assert bad.classification == good.classification == STABLE
    assert (bad.m1, bad.m2, bad.m3) == (-1.0, -2.0, -3.0)
    assert any("eigenvalues are authoritative" in note for note in bad.notes)


def test_two_species_verdicts(predscav_params):
    entries = predscav_equilibria(predscav_params)
    origin = classify(predscav_params, entries[0])
    assert origin.classification == STABLE
    assert origin.m1 is None and origin.discriminant is None
    assert sorted(ev.real for ev in origin.eigenvalues) == [-1.5, -0.5]
    nontrivial = classify(predscav_params, entries[-1])
    assert nontrivial.classification == UNSTABLE


def test_boundary_point_in_full_system_gains_prey_eigenvalue(predscav_params):
    # re-tagged FULL entries use the 3x3 Jacobian; the pred/scav pair that is
    # stable in its own plane is invaded along the prey direction at rate r
    full_entries = all_equilibria(predscav_params)
    predscav = full_entries[2]
    assert predscav.subsystem is Subsystem.FULL
    v = classify(predscav_params, predscav)
    assert v.classification == UNSTABLE
    reals = sorted(ev.real for ev in v.eigenvalues)
    assert reals[-1] == pytest.approx(predscav_params.r, abs=1e-9)


def test_routh_hurwitz_direct_calls():
    assert routh_hurwitz_cubic(3.0, 3.0, 1.0).classification == STABLE
    assert routh_hurwitz_cubic(-1.0, 1.0, 1.0).classification == UNSTABLE
    # m1*m2 - m3 = 0 sits on the margin
    assert routh_hurwitz_cubic(1.0, 1.0, 1.0).classification == MARGINAL
    v = routh_hurwitz_cubic(2.0, 1.0, 0.5)
    names = [c.name for c in v.criteria]
    assert names == ["m1 > 0", "m2 > 0", "m3 > 0", "m1*m2 - m3 > 0"]


def test_routh_hurwitz_agrees_with_eigenvalues_on_random_matrices():
    # verdict from the coefficient tests must match the verdict read off
    # the eigenvalues whenever the matrix is safely hyperbolic
    rng = np.random.default_rng(101)
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
        by_eigs = STABLE if np.all(eigs.real < 0) else UNSTABLE
        if verdict.classification != by_eigs:
            disagreements += 1
        checked += 1
    assert disagreements == 0


def test_predprey_closed_form_criterion_tracks_eigenvalues():
    # the single threshold criterion for the planar prey/predator point is
    # algebraically equivalent to the trace condition, so it must agree
    # with the eigenvalue verdict away from the margin
    rng = np.random.default_rng(37)
    checked = 0
    for _ in range(400):
        p = rand_params(rng, 0.2, 2.0)
        entry = predprey_equilibria(p)[-1]
        if not entry.exists:
            continue
        v = classify(p, entry)
        crit = next(c for c in v.criteria if "<" in c.name or ">" in c.name)
        if abs(crit.value - 1.0) < 1e-6:
            continue
        if any(abs(ev.real) < 1e-9 for ev in v.eigenvalues):
            continue
        assert crit.satisfied == (v.classification == STABLE)
        checked += 1
    assert checked > 50


_MIRROR = {"d": "g", "a": "b", "a0": "b0", "e": "j"}
_MIRROR.update({v: k for k, v in _MIRROR.items()})


def _mirrored_name(name):
    return re.sub(r"\b(a0|b0|[abdegj])\b", lambda m: _MIRROR[m.group(1)], name)


def _criteria(verdict, mirror=False):
    return [(_mirrored_name(c.name) if mirror else c.name, c.satisfied, c.value)
            for c in verdict.criteria]


def test_scavprey_mirrors_predprey():
    # the scavenger-prey pair is the predator-prey pair with (g, b, b0, j) in
    # place of (d, a, a0, e): swapping those parameters must swap the two
    # pairs' steady states, with y and z exchanged, and their named criteria
    rng = np.random.default_rng(2412)
    coexisting = 0
    for _ in range(300):
        p = rand_params(rng, 0.1, 3.0)
        q = ModelParams(**{**p.to_dict(), **{_MIRROR[n]: getattr(p, n) for n in _MIRROR}})
        for pp, sp in zip(predprey_equilibria(p), scavprey_equilibria(q)):
            assert sp.subsystem is Subsystem.SCAV_PREY
            assert sp.label == {LABEL_PRED_PREY: LABEL_SCAV_PREY}.get(pp.label, pp.label)
            mirrored = None if pp.point is None else (pp.point[0], pp.point[2], pp.point[1])
            assert sp.point == mirrored
            assert [(c.name, c.satisfied, c.value) for c in sp.existence] == [
                (_mirrored_name(c.name), c.satisfied, c.value) for c in pp.existence]
            assert sp.aux == pp.aux
            if not pp.exists:
                continue
            coexisting += pp.label == LABEL_PRED_PREY
            v_pp, v_sp = classify(p, pp), classify(q, sp)
            assert _criteria(v_sp) == _criteria(v_pp, mirror=True)
            assert v_sp.classification == v_pp.classification
            assert v_sp.eigenvalues == v_pp.eigenvalues
            # in the full system the pairs share only their first criterion;
            # the prey-only point lists both consumers, in table order
            f_pp, f_sp = (classify(*arg) for arg in ((p, replace(pp, subsystem=Subsystem.FULL)),
                                                     (q, replace(sp, subsystem=Subsystem.FULL))))
            if pp.label == LABEL_PRED_PREY:
                assert _criteria(f_sp)[0] == _criteria(f_pp, mirror=True)[0]
            else:
                assert _criteria(f_sp) == _criteria(f_pp, mirror=True)[::-1]
    assert coexisting > 30


def test_classify_requires_existing_point(reference_params):
    missing = predscav_equilibria(reference_params)[-1]
    assert not missing.exists
    with pytest.raises(ExistenceViolated):
        classify(reference_params, missing)


def test_marginal_band_on_eigenvalues(stable_params):
    v = routh_hurwitz_cubic(1.0, 1.0, 1.0 - 1e-13)
    assert v.classification == MARGINAL


def test_record_is_json_friendly(stable_params):
    import json
    v = classify(stable_params, interior_equilibrium_direct(stable_params))
    blob = json.dumps(v.record(), sort_keys=True)
    assert "Stable" in blob
    parsed = json.loads(blob)
    assert parsed["m1"] == pytest.approx(0.84484371, abs=1e-6)
    assert len(parsed["eigenvalues"]) == 3
    assert all(len(pair) == 2 for pair in parsed["eigenvalues"])


def test_restoring_logistic_term_reproduces_reference_m1(reference_params):
    # regression guard for a documented discrepancy: the quoted reference
    # m1/discriminant values for this parameter set are reproduced only if
    # the (0,0) Jacobian entry drops its -2rx/k logistic contribution.
    # the shipped Jacobian keeps the term; see test_acceptance for the
    # honest comparison against the quoted values.
    p = reference_params
    eq = interior_equilibrium_direct(p)
    x, y, z = eq.point
    J = jacobian(p, State(x, y, z)).copy()
    J[0, 0] += 2.0 * p.r * x / p.k  # undo the logistic term
    m1 = -float(np.trace(J))
    m2 = float(0.5 * (np.trace(J) ** 2 - np.trace(J @ J)))
    m3 = -float(np.linalg.det(J))
    assert m1 == pytest.approx(0.1178643783, abs=1e-9)
    assert m1 * m2 - m3 == pytest.approx(0.0170156515, abs=1e-9)
