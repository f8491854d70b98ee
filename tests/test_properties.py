"""Property tests: the parameter, dataset and trajectory formats round-trip
exactly, malformed or invalid parameter input is rejected, each planar
subsystem's zero plane is invariant under the right-hand side, the
right-hand side and its Jacobian commute with power-of-two scalings of the
populations and of time, and so do RK45 with a scaling of time, RK4 with
the whole group, and the steady states with their stability verdicts, the
array layout of the states changes no bit, `analyze` on one extreme but
valid parameter exits 0 or 2 with its own message, and the JSON writer
matches the stdlib's indented, sorted output."""

import contextlib
import io
import json
import math
import re
import string
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import COLLAPSE_CASE, REFERENCE
from ppsdyn.cli import main
from ppsdyn.data import Dataset, json_text
from ppsdyn.equilibria import LABEL_INTERIOR, _prey_residuals, all_equilibria
from ppsdyn.errors import IntegrationFailed, NumericalOverflow
from ppsdyn.model import (PARAM_ORDER, ModelParams, State, Subsystem, derivative_table,
                          feature_matrix, make_rhs, state_rows, table_jacobians)
from ppsdyn.pinn import _physics_term
from ppsdyn.solver import SolverConfig, Trajectory, integrate
from ppsdyn.stability import classify

# derandomized, so every run of the suite draws the same examples
FEW = settings(max_examples=30, deadline=None, derandomize=True)

positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
finite = st.floats(allow_nan=False, allow_infinity=False)
params = st.lists(positive, min_size=14, max_size=14).map(ModelParams.from_array)
# explicit alphabets: a full-unicode text strategy spends seconds building
# its character table on first use
words = st.text(alphabet=string.ascii_letters + string.digits + ' _"\\é', max_size=8)
json_values = st.one_of(st.integers(), finite, words, st.booleans())


@st.composite
def datasets(draw):
    times = draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=12, unique=True))
    n = len(times)
    unit = st.floats(0.0, 1.0)
    obs = draw(st.lists(st.tuples(unit, unit, unit), min_size=n, max_size=n))
    bounds = st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2, unique=True).map(sorted)
    lo_hi = [draw(bounds) for _ in range(3)]
    t_start, t_end = draw(bounds)
    meta = draw(st.dictionaries(words, json_values, max_size=4))
    return Dataset(sorted(times), obs, [b[0] for b in lo_hi], [b[1] for b in lo_hi],
                   t_start, t_end, meta)


@FEW
@given(p=params)
def test_params_save_load_round_trip(tmp_path_factory, p):
    path = tmp_path_factory.mktemp("params") / "p.params"
    p.save(path)
    assert ModelParams.load(path) == p


@FEW
@given(p=params)
def test_params_dict_and_array_round_trips(p):
    assert ModelParams.from_dict(p.to_dict()) == p
    assert ModelParams.from_array(p.as_array()) == p


@FEW
@given(ds=datasets())
def test_dataset_csv_round_trip_with_sidecar(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("ds") / "ds.csv"
    ds.to_csv(path)
    back = Dataset.from_csv(path)
    for name in ("times", "observations", "mins", "maxs"):
        assert np.array_equal(getattr(back, name), getattr(ds, name))
    assert (back.t_start, back.t_end, back.meta) == (ds.t_start, ds.t_end, ds.meta)


@FEW
@given(rows=st.lists(st.tuples(finite, finite, finite, finite), min_size=1, max_size=20))
def test_trajectory_csv_round_trip(tmp_path_factory, rows):
    arr = np.array(rows, dtype=float)
    traj = Trajectory(arr[:, 0], arr[:, 1:])
    path = tmp_path_factory.mktemp("traj") / "traj.csv"
    traj.to_csv(path)
    back = Trajectory.from_csv(path)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.states, traj.states)


def _not_a_float(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


# a line without '=', a key with a value float() rejects, or a second valid
# value for a key; none may carry a comment or a line break
line_text = st.text(alphabet=string.printable.translate({ord(c): None for c in "#\n\r"}),
                    max_size=12)
malformed = st.one_of(
    line_text.filter(lambda s: "=" not in s and s.strip()),
    st.tuples(st.sampled_from(PARAM_ORDER), line_text.filter(_not_a_float))
    .map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.tuples(st.sampled_from(PARAM_ORDER), positive).map(lambda kv: f"{kv[0]} = {kv[1]!r}"),
)


@FEW
@given(p=params, bad=malformed, at=st.integers(0, 14))
def test_params_load_rejects_a_malformed_line(tmp_path_factory, p, bad, at):
    lines = [f"{name} = {value!r}" for name, value in p.to_dict().items()]
    lines.insert(at, bad)
    path = tmp_path_factory.mktemp("bad") / "p.params"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        ModelParams.load(path)
    # the message names the file and the bad line; for a key set twice it
    # names both lines, and the bad one may be either
    msg = str(info.value)
    assert msg.startswith(f"{path}:")
    lineno, _, rest = msg[len(f"{path}:"):].partition(":")
    named = {int(lineno)} | {int(n) for n in re.findall(r"already set on line (\d+)$", rest)}
    assert at + 1 in named


invalid = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, True, False]),
                    st.floats(max_value=0.0))


@FEW
@given(p=params, name=st.sampled_from(PARAM_ORDER), bad=invalid)
def test_params_reject_invalid_values(p, name, bad):
    with pytest.raises(ValueError):
        ModelParams.from_dict({**p.to_dict(), name: bad})
    values = [bad if n == name else v for n, v in p.to_dict().items()]
    with pytest.raises(ValueError):
        ModelParams.from_array(values)
    if isinstance(bad, bool):
        with pytest.raises(ValueError):
            ModelParams.from_array([np.bool_(bad) if n == name else v
                                    for n, v in p.to_dict().items()])
    else:
        # a float array takes the tolist() path
        with pytest.raises(ValueError):
            ModelParams.from_array(np.array(values))


# bounded so that no term, a parameter times up to three states, overflows
moderate = st.floats(min_value=0.0, max_value=1e6, exclude_min=True)
signed = st.floats(min_value=-1e6, max_value=1e6)
planar = [s for s in Subsystem if s is not Subsystem.FULL]


@FEW
@given(values=st.lists(moderate, min_size=14, max_size=14),
       state=st.tuples(signed, signed, signed), sub=st.sampled_from(planar))
def test_zero_plane_of_each_subsystem_is_invariant(values, state, sub):
    # each term of a species' equation carries its own density, so at a
    # masked species' 0.0 the closure returns what zeroing that equation did
    masked = sub.value.index(0)
    s = list(state)
    s[masked] = 0.0
    deriv = make_rhs(ModelParams.from_array(values))(*s)
    assert deriv[masked] == 0.0
    assert np.float64(deriv[masked]).tobytes() == np.float64(0.0 * deriv[masked]).tobytes()


# x = alpha X, y = beta Y, z = gamma Z and t = tau T map the model onto itself
# with each parameter times a monomial in the four scales
def _parameter_scales(alpha, beta, gamma, tau):
    scales = dict(r=tau, k=1.0 / alpha, a=tau * alpha * beta, a0=alpha ** 2,
                  b=tau * alpha * gamma, b0=alpha ** 2, d=tau * alpha ** 2, e=tau,
                  f=tau * gamma ** 2, g=tau * alpha ** 2, h=tau * beta, i=tau * beta * gamma,
                  i0=gamma ** 2, j=tau)
    return np.array([scales[name] for name in PARAM_ORDER])


power_of_two = st.sampled_from([2.0 ** e for e in range(-3, 4)])
# no component so small that a scaled square leaves the normal range
population = st.one_of(st.just(0.0), st.floats(1e-3, 4.0))
states = st.lists(st.tuples(population, population, population), min_size=1, max_size=4)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(values=st.lists(st.floats(0.1, 3.0), min_size=14, max_size=14),
       scales=st.tuples(power_of_two, power_of_two, power_of_two, power_of_two),
       rows=states)
def test_rhs_and_jacobian_commute_with_the_scaling_group(values, scales, rows):
    # with every scale a power of two each product in the closures scales
    # exactly, so the scaled model's right-hand side is tau / s_i times the
    # model's, and its Jacobian the chain-rule transform of the model's, to
    # the bit: df'_i/dX_j = tau s_j / s_i df_i/dx_j for the states and
    # df'_i/dp'_k = tau / (s_i c_k) df_i/dp_k for the parameters p' = c p
    alpha, beta, gamma, tau = scales
    s = np.array([alpha, beta, gamma])
    c = _parameter_scales(alpha, beta, gamma, tau)
    p = ModelParams.from_array(values)
    q = ModelParams.from_array(p.as_array() * c)
    x = np.array(rows).T.copy()
    X = x / s[:, None]
    want = np.array(make_rhs(p)(*x)) * (tau / s)[:, None]
    assert np.array(make_rhs(q)(*X)).tobytes() == want.tobytes()
    # the plain-float path the step loops take
    assert make_rhs(q)(*X[:, 0].tolist()) == tuple(want[:, 0].tolist())
    # the derivative table: every feature and coefficient scales exactly,
    # and so does each sum of their products
    want = table_jacobians(p, x.T) * (tau / s)[:, None] * np.concatenate([s, 1.0 / c])
    assert table_jacobians(q, X.T).tobytes() == want.tobytes()


@FEW
@given(values=st.lists(st.floats(0.1, 3.0), min_size=14, max_size=14), rows=states,
       data=st.data())
def test_column_layout_changes_no_bit(values, rows, data):
    # the feature rows are built with +, -, * and /, which numpy rounds the
    # same on strided and contiguous arrays, into a fresh array, so the
    # states can be passed either way; rows of one state included
    p = ModelParams.from_array(values)
    contiguous = np.array(rows)
    strided = np.repeat(contiguous, 2, axis=0)[::2]
    assert not strided.flags.c_contiguous or len(rows) == 1
    handling = derivative_table(p).handling
    want = feature_matrix(state_rows(contiguous), handling)
    assert feature_matrix(state_rows(strided), handling).tobytes() == want.tobytes()
    want = table_jacobians(p, contiguous)
    assert table_jacobians(p, strided).tobytes() == want.tobytes()
    unit = st.floats(-1.0, 1.0)
    deriv = np.array(data.draw(st.lists(st.tuples(unit, unit, unit), min_size=len(rows),
                                        max_size=len(rows))))
    scale = np.array(data.draw(st.tuples(power_of_two, power_of_two, power_of_two)))
    # _physics_term reads these three fields of an estimation problem
    def terms(states):
        return SimpleNamespace(deriv=deriv, rows=state_rows(states), scale=scale)

    pie, grad = _physics_term(p, terms(contiguous))
    pie_strided, grad_strided = _physics_term(p, terms(strided))
    assert np.float64(pie_strided).tobytes() == np.float64(pie).tobytes()
    assert grad_strided.tobytes() == grad.tobytes()


# t = tau T maps the model onto itself with these parameters times tau
RATES = [PARAM_ORDER.index(name) for name in ("r", "a", "b", "d", "e", "f", "g", "h", "i", "j")]
SCALING_GRID = np.linspace(0.0, 5.0, 40)
# at tol 1e-2 a step of this run overshoots the prey below zero, so the
# clamp and its zeroed rows of dx/dp are scaled too
COLLAPSE = [COLLAPSE_CASE[name] for name in PARAM_ORDER]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(values=st.lists(st.floats(0.1, 3.0), min_size=14, max_size=14),
       tau=st.sampled_from([0.25, 0.5, 2.0, 4.0]),
       policy=st.sampled_from(["diagnose", "clamp"]), tol=st.just(1e-6))
@example(values=COLLAPSE, tau=0.25, policy="clamp", tol=1e-2)
@example(values=COLLAPSE, tau=4.0, policy="clamp", tol=1e-2)
def test_rk45_commutes_with_time_scaling(values, tau, policy, tol):
    # with tau a power of two the scaled RHS is tau times the RHS to the
    # bit, and h/tau times tau f is h f, so given the first step divided by
    # tau the scaled run takes the same steps through the same states, and
    # dx/dp in a rate column is divided by tau; the absolute 0.1 cap of the
    # automatic first step does not scale, hence the explicit one, and nor
    # does the 1e-12 step floor, which loose tolerances reach near blow-up
    p = ModelParams.from_array(values)
    scaled_values = p.as_array()
    scaled_values[RATES] *= tau
    q = ModelParams.from_array(scaled_values)
    s0 = State(4.991, 1.178, 0.577)
    cfg = SolverConfig(t_end=5.0, step=0.05, tol=tol, negativity_policy=policy)
    scaled_cfg = SolverConfig(t_end=5.0 / tau, step=0.05 / tau, tol=tol, negativity_policy=policy)
    for kw in ({}, {"t_eval": SCALING_GRID}, {"t_eval": SCALING_GRID, "sensitivities": True}):
        scaled_kw = dict(kw, t_eval=SCALING_GRID / tau) if kw else {}
        try:
            ref = integrate(p, s0, cfg, **kw)
        except IntegrationFailed as exc:
            with pytest.raises(type(exc)):
                integrate(q, s0, scaled_cfg, **scaled_kw)
            continue
        got = integrate(q, s0, scaled_cfg, **scaled_kw)
        assert got.states.tobytes() == ref.states.tobytes()
        assert got.times.tobytes() == (ref.times / tau).tobytes()
        assert got.diagnostics == ref.diagnostics
        if tol == 1e-2:
            assert ref.diagnostics.clamped > 0
        if kw.get("sensitivities"):
            want = ref.sensitivities.copy()
            want[:, :, RATES] /= tau
            scale = np.max(np.abs(want), axis=(0, 1))
            assert np.all(np.abs(got.sensitivities - want) <= 1e-12 * scale)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(values=st.lists(st.floats(0.1, 3.0), min_size=14, max_size=14),
       scales=st.tuples(power_of_two, power_of_two, power_of_two, power_of_two),
       policy=st.sampled_from(["diagnose", "clamp"]))
def test_rk4_commutes_with_the_scaling_group(values, scales, policy):
    # every product of an RK4 step scales exactly under power-of-two scales,
    # and a clamped zero stays zero, so the scaled run, with its step and
    # t_end divided by tau, takes the same steps through the scaled states,
    # to the bit; the overflow guard does not scale, so a run it stops is
    # skipped
    alpha, beta, gamma, tau = scales
    s = np.array([alpha, beta, gamma])
    p = ModelParams.from_array(values)
    q = ModelParams.from_array(p.as_array() * _parameter_scales(*scales))
    s0 = np.array([4.991, 1.178, 0.577])
    runs = []
    for params, start, span in ((p, s0, 1.0), (q, s0 / s, tau)):
        cfg = SolverConfig(t_end=5.0 / span, method="rk4", step=0.05 / span,
                           negativity_policy=policy)
        try:
            runs.append(integrate(params, State(*start.tolist()), cfg))
        except NumericalOverflow:
            assume(False)
    ref, got = runs
    assert got.states.tobytes() == (ref.states / s).tobytes()
    assert got.times.tobytes() == (ref.times / tau).tobytes()
    assert got.diagnostics.steps == ref.diagnostics.steps
    assert got.diagnostics.clamped == ref.diagnostics.clamped


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=st.lists(st.floats(0.1, 3.0), min_size=14, max_size=14),
       scales=st.tuples(power_of_two, power_of_two, power_of_two, power_of_two))
def test_equilibria_and_verdicts_commute_with_the_scaling_group(values, scales):
    # the scaled model's steady states are the model's divided by (alpha,
    # beta, gamma), and its Jacobian there is tau times a similarity
    # transform of the model's, so the same candidates exist, as many interior
    # points as at scale one, with the same verdicts.  The boundary points are closed forms and scale to
    # the bit; the interior's x is a polynomial root, rounded differently at
    # each scale, and its y and z follow from x to the bit, so only x's
    # rounding moves them (amplified where z^2 = N/D cancels)
    s = np.array(scales[:3])
    p = ModelParams.from_array(values)
    q = ModelParams.from_array(p.as_array() * _parameter_scales(*scales))
    ref, got = all_equilibria(p), all_equilibria(q)
    assert [(e.label, e.exists) for e in got] == [(e.label, e.exists) for e in ref]
    for want, eq in zip(ref, got):
        if not want.exists:
            continue
        assert classify(q, eq).classification == classify(p, want).classification
        point = np.array(eq.point) * s
        if want.label != LABEL_INTERIOR:
            assert tuple(point.tolist()) == tuple(want.point)
            continue
        assert abs(point[0] - want.point[0]) <= 1e-12 * want.point[0]
        _, y, z = _prey_residuals(point[:1], p)
        assert (y[0], z[0]) == (point[1], point[2])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(name=st.sampled_from(PARAM_ORDER),
       value=st.floats(-320.0, math.log10(1.7e308)).map(lambda u: 10.0 ** u))
# the boundary points whose Jacobian is not finite: a coordinate or an entry
# overflows, or a product of an overflowed one with zero is NaN
@example(name="a", value=1e-320)
@example(name="b", value=1e-320)
@example(name="b", value=1e-300)
@example(name="j", value=1e-320)
# finite coefficients whose quotients by the leading one overflow
@example(name="j", value=1e150)
def test_analyze_on_an_extreme_parameter_exits_0_or_2(tmp_path_factory, name, value):
    # the reference set with one parameter anywhere in the positive floats:
    # valid input, so a failure is numerical, exit 2 with the package's
    # message, never numpy's error as a usage error or a RuntimeWarning,
    # which the suite turns into an error
    path = tmp_path_factory.mktemp("extreme") / "p.params"
    ModelParams(**{**REFERENCE, name: value}).save(path)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["analyze", "--params", str(path), "--out", str(path.parent)])
    if code == 2:
        last = err.getvalue().splitlines()[-1]
        assert last.startswith("numerical failure: ")
        assert not (path.parent / "equilibria.json").exists()
    else:
        assert code == 0


# quotes, backslashes, control characters, non-ASCII, an astral character and
# a lone surrogate, each escaped differently by the ASCII-only encoder
json_words = st.text(alphabet='az "\\/\x00\b\x1f\x7f\u00e9\u2028\U0001f600\ud800', max_size=6)


class _ReprInt(int):
    # a subclass whose repr is not its JSON text, as np.float64's is not
    def __repr__(self):
        return f"_ReprInt({int(self)})"


json_leaves = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=2**64), st.integers(max_value=-2**64),
    st.integers().map(_ReprInt),
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([-0.0, 5e-324, 1e-310, math.nan, math.inf, -math.inf]),
    json_words, json_words.map(np.str_),
)
json_trees = st.recursive(
    json_leaves,
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(json_words, kids, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(value=json_trees)
def test_json_text_is_the_stdlib_text(value):
    assert json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [
    np.int64(3), np.bool_(True), {1, 2}, object(), [1.0, {"a": np.int64(3)}],
    {1: "one"}, {"a": 1, 2: "b"}, {None: 0}, {("a",): 0}, {np.str_("a"): 0, 1.5: 1},
], ids=["int64", "bool_", "set", "object", "nested-int64",
        "int-key", "mixed-keys", "none-key", "tuple-key", "float-key"])
def test_json_text_rejects_what_it_does_not_write(value):
    with pytest.raises(TypeError):
        json_text(value)
