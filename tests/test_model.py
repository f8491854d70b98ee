import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ppsdyn
from conftest import INTERIOR_STABLE, rand_params
from ppsdyn.errors import MaskViolation
from ppsdyn.model import (FEATURES, JACOBIAN_COLUMNS, PARAM_ORDER, SUBSYSTEMS, Derivative,
                          ModelParams, State, Subsystem, derivative_table, feature_matrix,
                          holling3, make_jacobian, make_rhs, rhs, rhs_subsystem, state_rows,
                          table_jacobians)
from ppsdyn.stability import jacobian


def test_param_order_matches_fields():
    assert len(PARAM_ORDER) == 14
    p = ModelParams(**{name: i + 1.0 for i, name in enumerate(PARAM_ORDER)})
    assert list(p.as_array()) == [i + 1.0 for i in range(14)]


def test_array_round_trip():
    p = ModelParams(**INTERIOR_STABLE)
    q = ModelParams.from_array(p.as_array())
    assert p == q


def test_dict_round_trip():
    p = ModelParams(**INTERIOR_STABLE)
    assert ModelParams.from_dict(p.to_dict()) == p


def test_from_dict_rejects_missing_and_unknown_keys():
    d = ModelParams(**INTERIOR_STABLE).to_dict()
    d.pop("r")
    with pytest.raises(ValueError):
        ModelParams.from_dict(d)
    d["r"] = 1.0
    d["bogus"] = 1.0
    with pytest.raises(ValueError):
        ModelParams.from_dict(d)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_params_must_be_positive_finite(bad):
    kw = dict(INTERIOR_STABLE)
    kw["h"] = bad
    with pytest.raises(ValueError):
        ModelParams(**kw)


def test_params_reject_bools():
    for flag in (True, False):
        kw = dict(INTERIOR_STABLE)
        kw["r"] = flag
        with pytest.raises(ValueError):
            ModelParams(**kw)
    with pytest.raises(ValueError):
        ModelParams.from_dict({**INTERIOR_STABLE, "j": True})


def test_params_coerced_to_python_float():
    kw = {k: np.float64(v) for k, v in INTERIOR_STABLE.items()}
    p = ModelParams(**kw)
    assert all(type(getattr(p, name)) is float for name in PARAM_ORDER)


def test_save_load_round_trip(tmp_path):
    p = rand_params(np.random.default_rng(7))
    path = tmp_path / "draw.params"
    p.save(path)
    assert ModelParams.load(path) == p


def test_load_skips_comments_and_blanks(tmp_path):
    p = ModelParams(**INTERIOR_STABLE)
    path = tmp_path / "annotated.params"
    lines = ["# header comment", ""]
    lines += [f"{name} = {getattr(p, name)!r}" for name in PARAM_ORDER]
    path.write_text("\n".join(lines) + "\n")
    assert ModelParams.load(path) == p


def test_params_files_are_utf8_under_an_ascii_locale(tmp_path):
    # the C locale with neither coercion nor UTF-8 mode makes ASCII the
    # default encoding of open(), which cannot read a non-ASCII comment
    p = ModelParams(**INTERIOR_STABLE)
    path = tmp_path / "annotated.params"
    lines = ["# α, β: prey and predator"]
    lines += [f"{name} = {getattr(p, name)!r}" for name in PARAM_ORDER]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    src = str(Path(ppsdyn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONCOERCECLOCALE="0", LC_ALL="C", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; from ppsdyn.model import ModelParams; "
            "ModelParams.load(sys.argv[1]).save(sys.argv[2])")
    run = subprocess.run([sys.executable, "-c", code, str(path), str(tmp_path / "out.params")],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert ModelParams.load(tmp_path / "out.params") == p


def test_load_rejects_malformed_line(tmp_path):
    path = tmp_path / "broken.params"
    path.write_text("r 1.0\n")
    with pytest.raises(ValueError):
        ModelParams.load(path)


def test_holling3_value():
    # 0.5 * 2^2 / (1 + 0.25 * 2^2) = 1.0
    assert holling3(2.0, 0.5, 0.25) == pytest.approx(1.0, abs=1e-15)
    assert holling3(0.0, 3.0, 1.0) == 0.0


def test_rhs_hand_computed_point():
    p = ModelParams(**{name: 1.0 for name in PARAM_ORDER})
    d = rhs(State(1.0, 1.0, 1.0), p)
    assert isinstance(d, Derivative)
    assert d.dx == pytest.approx(-1.0, abs=1e-15)
    assert d.dy == pytest.approx(0.0, abs=1e-15)
    assert d.dz == pytest.approx(0.0, abs=1e-15)


def test_state_default_time():
    s = State(1.0, 2.0, 3.0)
    assert s.t == 0.0
    assert State(1.0, 2.0, 3.0, 5.0).t == 5.0


def test_subsystem_parse_aliases():
    assert Subsystem.parse("predscav") is Subsystem.PRED_SCAV
    assert Subsystem.parse("PRED-SCAV") is Subsystem.PRED_SCAV
    assert Subsystem.parse("pred_prey") is Subsystem.PRED_PREY
    assert Subsystem.parse("full") is Subsystem.FULL
    with pytest.raises(ValueError):
        Subsystem.parse("plankton")


def test_subsystem_masks():
    assert Subsystem.FULL.value == (1, 1, 1)
    assert Subsystem.PRED_SCAV.value == (0, 1, 1)
    assert Subsystem.PRED_PREY.value == (1, 1, 0)
    assert Subsystem.SCAV_PREY.value == (1, 0, 1)
    assert SUBSYSTEMS == {"full": Subsystem.FULL, "predscav": Subsystem.PRED_SCAV,
                          "predprey": Subsystem.PRED_PREY, "scavprey": Subsystem.SCAV_PREY}


def test_masked_rhs_zeroes_inactive_component():
    p = ModelParams(**INTERIOR_STABLE)
    d = rhs_subsystem(State(0.0, 4.0, 6.0), p, Subsystem.PRED_SCAV)
    assert d.dx == 0.0
    d = rhs_subsystem(State(2.0, 4.0, 0.0), p, Subsystem.PRED_PREY)
    assert d.dz == 0.0


def test_masked_rhs_rejects_nonzero_masked_state():
    p = ModelParams(**INTERIOR_STABLE)
    with pytest.raises(MaskViolation):
        rhs_subsystem(State(0.5, 4.0, 6.0), p, Subsystem.PRED_SCAV)


def test_make_rhs_matches_rhs():
    rng = np.random.default_rng(11)
    p = rand_params(rng)
    f = make_rhs(p)
    for _ in range(25):
        x, y, z = rng.uniform(0.01, 5.0, 3)
        got = f(x, y, z)
        want = rhs(State(x, y, z), p)
        assert got == pytest.approx(tuple(want), rel=1e-15)
        assert all(isinstance(v, float) and math.isfinite(v) for v in got)


def _jacobian_matrix(p, s):
    return np.array(make_jacobian(p)(*s)).reshape(3, JACOBIAN_COLUMNS)


def test_jacobian_closure_state_block_matches_stability_jacobian():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = rand_params(rng, 0.1, 3.0)
        s = rng.uniform(0.0, 4.0, 3)
        assert np.allclose(_jacobian_matrix(p, s)[:, :3], jacobian(p, s),
                           rtol=1e-12, atol=1e-12)


def test_jacobian_closure_matches_central_differences_of_rhs():
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = rand_params(rng, 0.1, 3.0)
        s = rng.uniform(0.05, 4.0, 3)
        m = _jacobian_matrix(p, s)
        fd = np.empty((3, JACOBIAN_COLUMNS))
        for col in range(3):
            h = 1e-6 * (1.0 + abs(s[col]))
            up, dn = s.copy(), s.copy()
            up[col] += h
            dn[col] -= h
            fd[:, col] = (np.array(make_rhs(p)(*up)) - np.array(make_rhs(p)(*dn))) / (2.0 * h)
        pv = p.as_array()
        for col in range(len(PARAM_ORDER)):
            h = 1e-6 * pv[col]
            up, dn = pv.copy(), pv.copy()
            up[col] += h
            dn[col] -= h
            fu = make_rhs(ModelParams.from_array(up))(*s)
            fdn = make_rhs(ModelParams.from_array(dn))(*s)
            fd[:, 3 + col] = (np.array(fu) - np.array(fdn)) / (2.0 * h)
        assert np.max(np.abs(m - fd)) <= 1e-7 * max(1.0, np.max(np.abs(fd)))


def test_closures_on_arrays_equal_one_call_per_state():
    # the stepper's right-hand side on columns of states must be bit for bit
    # the per-state loop, signed zeros included, so the states include zero
    # components
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = rand_params(rng, 0.1, 3.0)
        states = rng.uniform(0.0, 4.0, (40, 3))
        states[:4] *= [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]
        per_state = np.array([make_rhs(p)(*s) for s in states])
        assert np.array(make_rhs(p)(*states.T)).T.tobytes() == per_state.tobytes()


def test_table_rows_do_not_depend_on_the_states_evaluated_with_them():
    # the solver evaluates the table on blocks of stage states and the
    # physics term on the observed states; a state's matrices must be bit
    # for bit the same whichever states share its product: in pairs, in
    # reverse order and all at once
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = rand_params(rng, 0.1, 3.0)
        states = rng.uniform(0.0, 4.0, (40, 3))
        states[:4] *= [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]
        got = table_jacobians(p, states)
        assert got.shape == (40, 3, JACOBIAN_COLUMNS)
        assert table_jacobians(p, states[::-1])[::-1].tobytes() == got.tobytes()
        pairs = np.array([table_jacobians(p, states[[t, t - 1]])[0] for t in range(40)])
        assert pairs.tobytes() == got.tobytes()


def test_table_matches_the_closures():
    # f and make_jacobian's matrix from the table are the closures' within a
    # few ulps of the summed magnitudes of their terms; the 25 entries of
    # df/dp that no term reaches are exactly zero, and at a state with a
    # species at zero every entry of that species' row but its own
    # diagonal one is exactly zero, which keeps its row of dx/dp at zero
    rng = np.random.default_rng(14)
    eps = np.finfo(float).eps
    for _ in range(50):
        p = rand_params(rng, 0.01, 10.0)
        states = rng.uniform(0.0, 8.0, (40, 3))
        states[:3] *= [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        table = derivative_table(p)
        features = feature_matrix(state_rows(states), table.handling)
        assert features.shape == (FEATURES, 40)
        coef = np.concatenate([table.rhs, table.jacobian], axis=1)
        got = features.T @ coef
        want = np.array([(*make_rhs(p)(*s), *make_jacobian(p)(*s)) for s in states])
        magnitude = np.abs(features.T) @ np.abs(coef)
        assert np.all(np.abs(got - want) <= 4 * eps * magnitude)
        jac = table_jacobians(p, states)
        assert jac.reshape(40, -1).tobytes() == got[:, 3:].tobytes()
        unreached = ~table.jacobian.any(axis=0).reshape(3, JACOBIAN_COLUMNS)
        assert unreached.sum() == 25 and not unreached[:, :3].any()
        assert np.all(jac[:, unreached] == 0.0)
        assert np.all(want[:, 3:].reshape(40, 3, JACOBIAN_COLUMNS)[:, unreached] == 0.0)
        for species in range(3):
            row = jac[species, species].copy()
            row[species] = 0.0
            assert np.all(row == 0.0)
        # the df/dp coefficients alone, and the table is shared read-only
        dfdp = table.jacobian.reshape(FEATURES, 3, JACOBIAN_COLUMNS)[:, :, 3:]
        assert table.dfdp.tobytes() == dfdp.tobytes()
        assert not any(array.flags.writeable for array in table)
