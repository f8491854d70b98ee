import math

import numpy as np
import pytest

from conftest import INTERIOR_STABLE, rand_params
from ppsdyn.errors import MaskViolation
from ppsdyn.model import (JACOBIAN_COLUMNS, PARAM_ORDER, SUBSYSTEMS, Derivative,
                          ModelParams, State, Subsystem, holling3,
                          jacobian_matrices, make_jacobian, make_parameter_jacobian,
                          make_rhs, rhs, rhs_subsystem)
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
    # the loss and the solver evaluate both closures once on columns of
    # states; that must be bit for bit the per-state loop it replaces, signed
    # zeros included, so the states include zero components
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = rand_params(rng, 0.1, 3.0)
        states = rng.uniform(0.0, 4.0, (40, 3))
        states[:4] *= [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]
        per_state = np.array([make_rhs(p)(*s) for s in states])
        assert np.array(make_rhs(p)(*states.T)).T.tobytes() == per_state.tobytes()
        per_state = np.array([_jacobian_matrix(p, s) for s in states])
        got = jacobian_matrices(make_jacobian(p), *states.T)
        assert got.shape == (40, 3, JACOBIAN_COLUMNS)
        assert got.tobytes() == per_state.tobytes()
        # the physics term's df/dp alone is the same block, bit for bit
        dfdp = jacobian_matrices(make_parameter_jacobian(p), *states.T)
        assert dfdp.shape == (40, 3, len(PARAM_ORDER))
        assert dfdp.tobytes() == per_state[:, :, 3:].tobytes()

