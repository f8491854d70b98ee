import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import COLLAPSE_CASE, FIXTURES, INTERIOR_STABLE, INTERIOR_UNSTABLE, rand_params
import ppsdyn.solver
from ppsdyn.errors import IntegrationFailed, NonNumericCell, NumericalOverflow
from ppsdyn.model import ModelParams, State, derivative_table, table_jacobians
from ppsdyn.solver import (_BLOCK, _ROWS, Diagnostics, SolverConfig, Trajectory,
                           detect_settling, integrate, write_rows_csv)

S0 = State(4.0, 3.0, 2.0)


def _final(p, cfg, s0=S0, **kw):
    return np.asarray(integrate(p, s0, cfg, **kw).final_state[:3])


def test_rk4_error_scales_as_fourth_order(stable_params):
    # halving the step should shrink the global error by about 2^4
    ref = _final(stable_params, SolverConfig(t_end=10.0, tol=1e-12))
    coarse = _final(stable_params, SolverConfig(t_end=10.0, method="rk4", step=0.1))
    fine = _final(stable_params, SolverConfig(t_end=10.0, method="rk4", step=0.05))
    ratio = np.linalg.norm(coarse - ref) / np.linalg.norm(fine - ref)
    assert 12.0 < ratio < 21.0


def test_adaptive_and_fixed_step_agree(stable_params):
    a = _final(stable_params, SolverConfig(t_end=10.0))
    b = _final(stable_params, SolverConfig(t_end=10.0, method="rk4", step=0.005))
    assert np.linalg.norm(a - b) < 1e-6


def test_rk4_time_reversibility(stable_params):
    fwd = integrate(stable_params, S0, SolverConfig(t_end=10.0, method="rk4", step=0.01))
    x, y, z = fwd.final_state[:3]
    back = integrate(stable_params, State(x, y, z, t=10.0),
                     SolverConfig(t_end=0.0, method="rk4", step=0.01))
    assert np.linalg.norm(np.asarray(back.final_state[:3]) - np.asarray(S0[:3])) < 1e-6


def test_final_state_carries_time(stable_params):
    traj = integrate(stable_params, S0, SolverConfig(t_end=7.5))
    assert traj.final_state.t == pytest.approx(7.5, abs=1e-12)
    assert traj.times[0] == 0.0


def test_nonzero_start_time(stable_params):
    traj = integrate(stable_params, State(4.0, 3.0, 2.0, t=2.0), SolverConfig(t_end=5.0))
    assert traj.times[0] == 2.0
    assert traj.final_state.t == pytest.approx(5.0, abs=1e-12)


@pytest.mark.parametrize("s0, match", [
    (State(1.0, 1.0, 1.0, t=math.nan), "initial time must be finite"),
    (State(1.0, 1.0, 1.0, t=math.inf), "initial time must be finite"),
    (State(1.0, 1.0, 1.0, t=-math.inf), "initial time must be finite"),
    (State(True, 1.0, 1.0), "not booleans"),
    (State(1.0, np.True_, 1.0), "not booleans"),
], ids=["t-nan", "t-inf", "t-minus-inf", "bool", "numpy-bool"])
def test_integrate_refuses_a_start_it_cannot_run(monkeypatch, s0, match):
    # unchecked, a nan start time gives a one-row trajectory at t = nan, inf
    # a step underflow and -inf the step limit, and a bool runs as 1: each is
    # an input error, refused at the entry, before the right-hand side is built
    def no_rhs(p):
        raise AssertionError("make_rhs ran")

    monkeypatch.setattr(ppsdyn.solver, "make_rhs", no_rhs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            integrate(ModelParams.from_array(np.ones(14)), s0, SolverConfig(t_end=5.0))


def test_overflow_raises(stable_params):
    p = ModelParams(r=1.0, k=1.0, a=1.0, a0=1.0, b=1.0, b0=1.0, d=1.0,
                    e=1e-6, f=5.0, g=1.0, h=20.0, i=1e-6, i0=1e-6, j=1e-6)
    with pytest.raises(NumericalOverflow):
        integrate(p, State(1.0, 1.0, 1.0), SolverConfig(t_end=50.0))


def test_step_limit_raises(stable_params):
    for kw, t in ((dict(), 0.10592002633471646),
                  (dict(method="rk4", step=0.01), 0.09999999999999999)):
        with pytest.raises(IntegrationFailed) as exc:
            integrate(stable_params, S0, SolverConfig(t_end=200.0, max_steps=10, **kw))
        assert (str(exc.value), exc.value.t) == ("step limit 10 reached", t)


def test_stiff_parameters_hit_step_limit(stable_params):
    kw = dict(INTERIOR_STABLE)
    kw["r"] = 1e9
    with pytest.raises(IntegrationFailed):
        integrate(ModelParams(**kw), S0, SolverConfig(t_end=200.0))


def test_stiffness_test_runs_only_where_configured(stable_params):
    # the default config integrates a stiff system to its own step cap; the
    # stiffness test, run at every 1000th accepted step, gives up at attempt
    # 2093 here (the test at step 1000 sees no run of 15 stiff steps)
    kw = dict(INTERIOR_STABLE)
    kw["r"] = 1e9
    with pytest.raises(IntegrationFailed, match="step limit 5000 reached"):
        integrate(ModelParams(**kw), S0, SolverConfig(t_end=200.0, max_steps=5000))
    with pytest.raises(IntegrationFailed, match="problem became stiff"):
        integrate(ModelParams(**kw), S0,
                  SolverConfig(t_end=200.0, max_steps=2500, stiff_test_every=1000))
    # a tame run never trips it, even when tested at every step
    tested = integrate(stable_params, S0, SolverConfig(t_end=50.0, stiff_test_every=1))
    plain = integrate(stable_params, S0, SolverConfig(t_end=50.0))
    assert np.array_equal(tested.states, plain.states)


def test_overflow_limit_is_configurable(stable_params):
    with pytest.raises(NumericalOverflow, match="state exceeded 4.5"):
        integrate(stable_params, S0, SolverConfig(t_end=50.0, overflow_limit=4.5))
    with pytest.raises(NumericalOverflow, match="state exceeded 4.5"):
        integrate(stable_params, S0, SolverConfig(t_end=50.0, method="rk4", step=0.1,
                                                  overflow_limit=4.5))


@pytest.mark.parametrize("field", ["overflow_limit", "stiff_test_every"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0, -1, -1.0, True, False])
def test_give_up_fields_reject_invalid_values(field, value):
    with pytest.raises(ValueError, match=field):
        SolverConfig(t_end=10.0, **{field: value})


def test_clamp_policy_keeps_states_nonnegative(predscav_params):
    cfg = SolverConfig(t_end=200.0, negativity_policy="clamp")
    traj = integrate(predscav_params, State(0.0, 4.0, 6.0), cfg)
    assert np.all(traj.states >= 0.0)
    assert traj.diagnostics.clamped >= 0  # count of clipped steps


def test_diagnose_policy_records_minimum(predscav_params):
    cfg = SolverConfig(t_end=200.0)
    traj = integrate(predscav_params, State(0.0, 4.0, 6.0), cfg)
    assert traj.diagnostics.min_component == float(traj.states.min())
    # attempted steps include rejected trials, so the count exceeds the
    # number of recorded points by exactly the rejected ones
    diag = traj.diagnostics
    assert diag.rejected == 10
    assert diag.steps - diag.rejected == len(traj.times) - 1


def test_masked_component_stays_zero(predscav_params):
    traj = integrate(predscav_params, State(0.0, 4.0, 6.0), SolverConfig(t_end=50.0))
    assert np.all(traj.states[:, 0] == 0.0)


def test_t_eval_lands_exactly(stable_params):
    pts = [0.0, 0.7, 1.3, 2.0, 5.0]
    traj = integrate(stable_params, S0, SolverConfig(t_end=5.0), t_eval=pts)
    assert np.allclose(traj.times, pts, atol=0.0)
    dense = integrate(stable_params, S0, SolverConfig(t_end=5.0))
    assert np.allclose(traj.states[-1], dense.states[-1], atol=1e-7)


def test_t_eval_must_start_at_t0(stable_params):
    with pytest.raises(ValueError):
        integrate(stable_params, S0, SolverConfig(t_end=5.0), t_eval=[0.5, 1.0])
    with pytest.raises(ValueError, match="monotone"):
        integrate(stable_params, S0, SolverConfig(t_end=5.0), t_eval=[0.0, 2.0, 1.0])


@pytest.mark.parametrize("grid", [[0.0, math.nan, 5.0], [0.0, 1.0, math.nan],
                                  [math.nan, 1.0, 5.0], [0.0, math.inf, 5.0]])
def test_t_eval_must_be_finite(stable_params, grid):
    # a NaN passes every comparison the other checks make: in the middle it
    # came back as a row at time nan, and at the end no step was taken
    with pytest.raises(ValueError, match="finite"):
        integrate(stable_params, S0, SolverConfig(t_end=5.0), t_eval=grid)


@pytest.mark.parametrize("grid", [[[0.0, 5.0]], np.array([[0.0], [5.0]])], ids=["row", "column"])
def test_t_eval_must_be_one_dimensional(stable_params, grid):
    # a 2-D grid reached numpy's own errors: an ambiguous truth value for a
    # row, and a failed scalar conversion for a column
    with pytest.raises(ValueError, match="t_eval must be one-dimensional"):
        integrate(stable_params, S0, SolverConfig(t_end=5.0), t_eval=grid)


def test_t_eval_is_copied(stable_params):
    grid = np.array([1e-13, 1.0, 5.0])
    traj = integrate(stable_params, S0, SolverConfig(t_end=5.0), t_eval=grid)
    # the first row takes the initial time, in the trajectory's copy only
    assert traj.times.tolist() == [0.0, 1.0, 5.0]
    assert grid.tolist() == [1e-13, 1.0, 5.0]


def test_t_eval_must_end_at_t_end_with_one_row_per_point(stable_params):
    # a grid that runs past t_end, or stops short of it, is refused rather
    # than integrated to its own end or cut to one row
    for t_end, grid in ((0.0, [0.0, 1.0, 2.0]), (1.0, [0.0, 1.0, 2.0]), (5.0, [0.0, 1.0])):
        with pytest.raises(ValueError, match="end at t_end"):
            integrate(stable_params, S0, SolverConfig(t_end=t_end), t_eval=grid)
    # an empty horizon still reports every requested point
    traj = integrate(stable_params, S0, SolverConfig(t_end=0.0), t_eval=[0.0, 0.0],
                     sensitivities=True)
    assert traj.times.tolist() == [0.0, 0.0]
    assert traj.states.tolist() == [list(S0[:3])] * 2
    assert traj.sensitivities.shape == (2, 3, 14) and not traj.sensitivities.any()


@pytest.mark.parametrize("sensitivities", [False, True])
@pytest.mark.parametrize("t_end", [1.5, 1.5 + 5e-13])
def test_single_point_t_eval_is_the_initial_state(stable_params, t_end, sensitivities):
    # t_eval == [t0] asks for the initial state alone, also where t_end
    # lies past t0 within the 1e-12 that t_eval's end may miss it by
    s0 = State(4.0, 3.0, 2.0, t=1.5)
    traj = integrate(stable_params, s0, SolverConfig(t_end=t_end), t_eval=[1.5],
                     sensitivities=sensitivities)
    assert traj.times.tolist() == [1.5]
    assert traj.states.tolist() == [[4.0, 3.0, 2.0]]
    assert traj.diagnostics == Diagnostics(min_component=2.0)
    if sensitivities:
        assert traj.sensitivities.shape == (1, 3, 14) and not traj.sensitivities.any()
    else:
        assert traj.sensitivities is None


def test_interpolated_states_match_tight_reference(stable_params, reference_params):
    # the t_eval points between steps come from the continuous extension; its
    # error stays at the level of the tolerance (a few tol here)
    ones = ModelParams.from_array(np.ones(14))
    for p in (stable_params, reference_params, ones):
        ref = integrate(p, README_S0, SolverConfig(t_end=5.0, tol=1e-12),
                        t_eval=GRID).states
        for tol in (1e-6, 1e-9):
            traj = integrate(p, README_S0, SolverConfig(t_end=5.0, tol=tol),
                             t_eval=GRID)
            assert np.all(np.abs(traj.states - ref) <= 20 * tol * (1.0 + np.abs(ref)))


def test_settling_detected_for_damped_case(stable_params):
    traj = integrate(stable_params, S0, SolverConfig(t_end=200.0))
    settled = detect_settling(traj, window=40.0, tol=1e-2)
    assert settled is not None
    assert settled.x == pytest.approx(1.1331137, abs=1e-3)


def test_settling_rejected_for_oscillatory_case(unstable_params):
    traj = integrate(unstable_params, S0, SolverConfig(t_end=500.0))
    assert detect_settling(traj, window=100.0, tol=1e-2) is None


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(t_end=10.0, method="rk4")  # fixed step required
    with pytest.raises(ValueError):
        SolverConfig(t_end=10.0, method="euler")
    with pytest.raises(ValueError):
        SolverConfig(t_end=10.0, negativity_policy="ignore")
    for tol in (0.0, -1.0):
        with pytest.raises(ValueError, match="tol must be positive"):
            SolverConfig(t_end=10.0, tol=tol)


@pytest.mark.parametrize("kw", [
    dict(t_end=True, tol=True), dict(max_steps=True), dict(max_steps=2.5),
    dict(step=np.True_), dict(t_end=np.False_),
])
def test_config_rejects_bools_and_a_fractional_step_cap(kw):
    # True would integrate to t = 1 at tolerance 1, and max_steps must count
    with pytest.raises(ValueError, match="must be"):
        SolverConfig(**{"t_end": 10.0, **kw})


def test_config_takes_ints_and_numpy_numbers():
    cfg = SolverConfig(t_end=10, step=np.float64(0.1), tol=np.float64(1e-6),
                       max_steps=np.int64(50), overflow_limit=100)
    assert integrate(ModelParams(**INTERIOR_STABLE), S0, cfg).times[-1] == 10.0
    assert [type(v) for v in (cfg.t_end, cfg.step, cfg.tol, cfg.overflow_limit)] == [float] * 4


def test_numpy_scalar_tol_runs_the_float_path():
    # a float32 tol used to run the error control in float32, slower and
    # with an overflow warning at the 1e100 guard; it must be the run of
    # the same value as a float, bit for bit, without a warning
    p = ModelParams(**INTERIOR_UNSTABLE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = integrate(p, S0, SolverConfig(t_end=np.int64(200), tol=np.float32(1e-6)))
    want = integrate(p, S0, SolverConfig(t_end=200.0, tol=float(np.float32(1e-6))))
    assert got.times.tobytes() == want.times.tobytes()
    assert got.states.tobytes() == want.states.tobytes()
    assert got.diagnostics == want.diagnostics


def test_trajectory_csv_round_trip(tmp_path, stable_params):
    traj = integrate(stable_params, S0, SolverConfig(t_end=5.0))
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    back = Trajectory.from_csv(path)
    assert back.times.tobytes() == traj.times.tobytes()
    assert back.states.tobytes() == traj.states.tobytes()


@pytest.mark.parametrize("rows", [0, 1, _ROWS - 1, _ROWS, _ROWS + 1, 2 * _ROWS + 3])
def test_csv_round_trip_is_bitwise_across_blocks(tmp_path, rows):
    # the writer's chunks and the reader's blocks hold _ROWS rows each;
    # every value, signed zeros and subnormals included, must come back
    rng = np.random.default_rng(rows)
    states = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-320, 300, (rows, 3))
    states[::7, 1] = -0.0
    times = np.cumsum(rng.uniform(0.0, 1.0, rows))
    path = tmp_path / "rows.csv"
    write_rows_csv(path, times, states)
    assert path.read_text().count("\n") == rows + 1
    back = Trajectory.from_csv(path)
    assert back.times.shape == (rows,) and back.states.shape == (rows, 3)
    assert back.times.tobytes() == times.tobytes()
    assert back.states.tobytes() == states.tobytes()


def test_csv_reader_names_the_line_of_a_malformed_row_past_the_first_block(tmp_path):
    times = np.arange(3 * _ROWS, dtype=float)
    states = np.ones((3 * _ROWS, 3))
    path = tmp_path / "rows.csv"
    write_rows_csv(path, times, states)
    lines = path.read_text().splitlines()
    # row k is on line k + 2; the first failure, in file order, wins
    lines[_ROWS + 5] += ",1.0"
    lines[2 * _ROWS + 9] = "1,oops,2,3"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(NonNumericCell, match=f"^line {_ROWS + 6}: expected 4 cells, got 5$"):
        Trajectory.from_csv(path)
    lines[_ROWS + 5] = lines[_ROWS + 5].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(NonNumericCell, match=f"^line {2 * _ROWS + 10}: could not convert"):
        Trajectory.from_csv(path)


def test_header_only_csv_reads_as_an_empty_trajectory(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("t,x,y,z\n")
    traj = Trajectory.from_csv(path)
    assert traj.times.shape == (0,) and traj.states.shape == (0, 3)


@pytest.mark.parametrize("rows", [_ROWS - 1, _ROWS, _ROWS + 1])
def test_recorded_rows_cross_block_boundaries_intact(stable_params, rows):
    # rk4 at step 0.25 lands on t_end exactly, so rows - 1 steps give rows
    # rows; they must be the first rows of a longer run, bit for bit
    cfg = SolverConfig(t_end=0.25 * (rows - 1), method="rk4", step=0.25)
    short = integrate(stable_params, S0, cfg)
    long = integrate(stable_params, S0, SolverConfig(t_end=300.0, method="rk4", step=0.25))
    assert len(short.times) == rows
    assert short.times.tobytes() == long.times[:rows].tobytes()
    assert short.states.tobytes() == long.states[:rows].tobytes()


def _traced_peak_mib(fn):
    """fn's result and the peak of the memory it allocated, in MiB, as
    tracemalloc counts it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def test_long_run_round_trip_holds_memory_near_its_arrays(tmp_path):
    # the 20,001-step rk4 run: its times and states take 0.61 MiB, and a run
    # that kept a Python float and tuple per step peaked at 4.3 MiB in
    # integrate, 2.5 in to_csv and 6.6 in from_csv
    p = ModelParams.load(FIXTURES / "interior_stable.params")
    cfg = SolverConfig(t_end=200.0, method="rk4", step=0.01)
    path = tmp_path / "rk4.csv"
    traj, integrate_mib = _traced_peak_mib(lambda: integrate(p, S0, cfg))
    _, write_mib = _traced_peak_mib(lambda: traj.to_csv(path))
    back, read_mib = _traced_peak_mib(lambda: Trajectory.from_csv(path))
    assert len(back.times) == 20002
    peaks = (integrate_mib, write_mib, read_mib)
    assert all(peak <= bound for peak, bound in zip(peaks, (2.6, 1.4, 3.8))), peaks


def test_trajectory_csv_rejects_nonfinite(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("t,x,y,z\n0.0,1.0,2.0,3.0\n0.5,nan,2.0,3.0\n")
    with pytest.raises(ValueError, match="line 3"):
        Trajectory.from_csv(path)


@pytest.mark.parametrize("body, line", [
    ("0.0,1.0,2.0,3.0,99.0\n", 2),  # an extra cell used to be dropped
    ("0.0,1.0,2.0\n", 2),  # used to load as states of shape (1, 2)
    ("0.0,1.0,2.0,3.0\n0.5,1.0,2.0\n", 3),
])
def test_trajectory_csv_rejects_rows_without_four_cells(tmp_path, body, line):
    path = tmp_path / "traj.csv"
    path.write_text("t,x,y,z\n" + body)
    with pytest.raises(ValueError, match=f"line {line}: expected 4 cells"):
        Trajectory.from_csv(path)


def test_random_params_never_return_nonfinite():
    # draws may legitimately blow up; the contract is a clean exception,
    # never a trajectory containing NaN or inf
    rng = np.random.default_rng(3)
    for _ in range(8):
        p = rand_params(rng, 0.2, 1.5)
        try:
            traj = integrate(p, State(*rng.uniform(0.1, 3.0, 3)),
                             SolverConfig(t_end=20.0))
        except IntegrationFailed:
            continue
        assert np.all(np.isfinite(traj.states))


# ------------------------------------------------------------ sensitivities

GRID = np.linspace(0.0, 5.0, 40)
README_S0 = State(4.991, 1.178, 0.577)


def _loss_cfg(tol, **kw):
    return SolverConfig(t_end=5.0, tol=tol, negativity_policy="clamp", **kw)


def test_sensitivities_leave_steps_and_states_bitwise_unchanged(reference_params):
    rng = np.random.default_rng(21)
    draws = [reference_params] + [
        ModelParams.from_array(reference_params.as_array() * np.exp(0.3 * rng.standard_normal(14)))
        for _ in range(5)]
    # both turn the logged steps into output after the step loop, one with
    # dx/dp and one without; the long case crosses several block boundaries
    long_grid = np.linspace(0.0, 40.0, 60)
    cases = [(GRID, _loss_cfg(1e-6)), (GRID, _loss_cfg(1e-9)),
             (long_grid, SolverConfig(t_end=40.0, tol=1e-10))]
    for p in draws:
        for grid, cfg in cases:
            plain = integrate(p, README_S0, cfg, t_eval=grid)
            sens = integrate(p, README_S0, cfg, t_eval=grid, sensitivities=True)
            if grid is long_grid:
                assert sens.diagnostics.steps > 2 * _BLOCK
            assert plain.sensitivities is None
            assert np.array_equal(plain.times, sens.times)
            assert np.array_equal(plain.states, sens.states)
            assert plain.diagnostics == sens.diagnostics
            assert sens.sensitivities.shape == (len(grid), 3, 14)
            assert np.all(sens.sensitivities[0] == 0.0)


def test_failed_gradient_integration_evaluates_no_jacobian(monkeypatch, reference_params):
    # dx/dp is computed only once the step loop completes, so a run that
    # overflows, here after several full blocks of logged steps, never
    # evaluates the Jacobians, nor builds the derivative table they come
    # from; a run that finishes evaluates them once per block of logged
    # steps, on all of the block's states at once
    calls = []

    def counting(*args):
        calls.append(len(args[1]))
        return table_jacobians(*args)

    monkeypatch.setattr("ppsdyn.solver.table_jacobians", counting)
    derivative_table.cache_clear()
    blow_up = ModelParams(r=1.0, k=1.0, a=1.0, a0=1.0, b=1.0, b0=1.0, d=1.0,
                          e=1e-6, f=5.0, g=1.0, h=20.0, i=1e-6, i0=1e-6, j=1e-6)
    with pytest.raises(NumericalOverflow):
        integrate(blow_up, State(1.0, 1.0, 1.0), SolverConfig(t_end=5.0), t_eval=GRID,
                  sensitivities=True)
    assert calls == []
    assert derivative_table.cache_info().misses == 0
    long_grid = np.linspace(0.0, 40.0, 60)
    for grid, cfg in ((GRID, _loss_cfg(1e-9)), (long_grid, SolverConfig(t_end=40.0, tol=1e-10))):
        calls.clear()
        diag = integrate(reference_params, README_S0, cfg, t_eval=grid, sensitivities=True).diagnostics
        accepted = diag.steps - diag.rejected
        assert len(calls) == -(-accepted // _BLOCK)
        # six stage states per step, and the end of the step of each of the
        # points before the last
        assert sum(calls) == 6 * accepted + len(grid) - 2
    assert len(calls) > 2


@pytest.mark.parametrize("case", ["readme", "collapse"])
def test_sensitivities_do_not_depend_on_the_block_size(monkeypatch, reference_params, case):
    # S is carried from one block of logged steps to the next, and a
    # clamped step's end is logged unclamped; cutting the same run into
    # blocks of 3 steps must change neither the steps, the states nor dx/dp
    if case == "readme":
        args = (reference_params, README_S0, _loss_cfg(1e-9), GRID)
    else:
        args = (COLLAPSE, COLLAPSE_S0, COLLAPSE_CFG, np.linspace(0.0, 2.0, 41))
    p, s0, cfg, grid = args
    whole = integrate(p, s0, cfg, t_eval=grid, sensitivities=True)
    plain = integrate(p, s0, cfg, t_eval=grid)
    monkeypatch.setattr("ppsdyn.solver._BLOCK", 3)
    cut = integrate(p, s0, cfg, t_eval=grid, sensitivities=True)
    cut_plain = integrate(p, s0, cfg, t_eval=grid)
    assert plain.states.tobytes() == cut_plain.states.tobytes() == whole.states.tobytes()
    assert plain.diagnostics == cut_plain.diagnostics
    assert whole.diagnostics.steps - whole.diagnostics.rejected > 3  # two blocks or more
    if case == "collapse":
        assert whole.diagnostics.clamped > 0
    assert whole.states.tobytes() == cut.states.tobytes()
    assert whole.diagnostics == cut.diagnostics
    scale = np.max(np.abs(whole.sensitivities))
    assert np.max(np.abs(whole.sensitivities - cut.sensitivities)) <= 1e-14 * scale


def test_sensitivities_match_central_differences(reference_params):
    pv = reference_params.as_array()
    # the README horizon, and one long enough that dx/dp is carried across
    # batches of logged steps
    long_grid = np.linspace(0.0, 20.0, 60)
    for grid, cfg in ((GRID, _loss_cfg(1e-10)),
                      (long_grid, SolverConfig(t_end=20.0, tol=1e-10))):
        traj = integrate(reference_params, README_S0, cfg, t_eval=grid, sensitivities=True)
        if grid is long_grid:
            assert traj.diagnostics.steps > _BLOCK
        got = traj.sensitivities
        for col in range(14):
            h = 1e-5 * pv[col]
            up, dn = pv.copy(), pv.copy()
            up[col] += h
            dn[col] -= h
            fd = (integrate(ModelParams.from_array(up), README_S0, cfg, t_eval=grid).states
                  - integrate(ModelParams.from_array(dn), README_S0, cfg, t_eval=grid).states) / (2 * h)
            assert np.max(np.abs(got[:, :, col] - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))


def test_single_step_sensitivity_is_exact_derivative_of_the_step(stable_params):
    # one long step (loose tolerances accept it), so dx/dp must be the exact
    # derivative of the Dormand-Prince step map, every stage coupling included,
    # and at 0.1 that of its continuous extension, 7th stage included
    cfg = SolverConfig(t_end=0.3, step=0.3, tol=10.0)
    grid = [0.0, 0.1, 0.3]
    traj = integrate(stable_params, S0, cfg, t_eval=grid, sensitivities=True)
    assert traj.diagnostics.steps == 1
    pv = stable_params.as_array()
    for col in range(14):
        h = 1e-5 * pv[col]
        up, dn = pv.copy(), pv.copy()
        up[col] += h
        dn[col] -= h
        fu = integrate(ModelParams.from_array(up), S0, cfg, t_eval=grid)
        fdn = integrate(ModelParams.from_array(dn), S0, cfg, t_eval=grid)
        assert fu.diagnostics.steps == fdn.diagnostics.steps == 1
        fd = (fu.states[1:] - fdn.states[1:]) / (2 * h)
        assert np.max(np.abs(traj.sensitivities[1:, :, col] - fd)) <= 1e-7 * max(1.0, np.max(np.abs(fd)))


# at this loose tolerance a step overshoots the collapsing prey below zero
COLLAPSE = ModelParams(**COLLAPSE_CASE)
COLLAPSE_S0 = State(1.62, 1.24, 2.74)
COLLAPSE_CFG = SolverConfig(t_end=2.0, tol=1e-2, negativity_policy="clamp")


def test_clamped_component_has_zero_sensitivity():
    # clamped to zero the prey stays there, and so must its row of dx/dp
    p, cfg = COLLAPSE, COLLAPSE_CFG
    grid = np.linspace(0.0, 2.0, 5)
    traj = integrate(p, COLLAPSE_S0, cfg, t_eval=grid, sensitivities=True)
    assert traj.diagnostics.clamped > 0
    pinned = traj.states[:, 0] == 0.0
    assert pinned.sum() >= 3
    assert np.all(traj.sensitivities[pinned, 0, :] == 0.0)
    assert np.any(traj.sensitivities[pinned, 1:, :] != 0.0)


def test_clamped_interpolated_sample_is_clipped_with_zero_sensitivity():
    # on a fine grid, the interpolated prey crosses zero inside the step whose
    # end is clamped; the samples after the crossing are clipped, and their
    # row of dx/dp zeroed, by the rule of a clamped step end
    steps = integrate(COLLAPSE, COLLAPSE_S0, COLLAPSE_CFG)  # the same steps, recorded
    k = np.argmax(steps.states[:, 0] == 0.0)  # the first clamped step ends at times[k]
    grid = np.linspace(0.0, 2.0, 41)
    traj = integrate(COLLAPSE, COLLAPSE_S0, COLLAPSE_CFG, t_eval=grid, sensitivities=True)
    assert np.all(traj.states >= 0.0)
    inside = (traj.states[:, 0] == 0.0) & (grid > steps.times[k - 1]) & (grid < steps.times[k])
    assert inside.sum() >= 2
    assert np.all(traj.sensitivities[inside, 0, :] == 0.0)
    assert np.any(traj.sensitivities[inside, 1:, :] != 0.0)


def test_clamped_step_sensitivity_is_exact_derivative_of_the_steps():
    # two fixed steps (loose tolerances accept both at the given size), the
    # first one clamped at its end: the samples inside it interpolate the 7th
    # stage, taken at the unclamped end, so their dx/dp must follow that end,
    # and the samples of the second step the clamped state it starts from
    cfg = SolverConfig(t_end=1.0, step=0.5, tol=10.0, negativity_policy="clamp")
    grid = np.linspace(0.0, 1.0, 13)
    traj = integrate(COLLAPSE, COLLAPSE_S0, cfg, t_eval=grid, sensitivities=True)
    assert (traj.diagnostics.steps, traj.diagnostics.clamped) == (2, 1)
    pv = COLLAPSE.as_array()
    for col in range(14):
        h = 1e-6 * pv[col]
        up, dn = pv.copy(), pv.copy()
        up[col] += h
        dn[col] -= h
        fu = integrate(ModelParams.from_array(up), COLLAPSE_S0, cfg, t_eval=grid)
        fdn = integrate(ModelParams.from_array(dn), COLLAPSE_S0, cfg, t_eval=grid)
        assert fu.diagnostics == fdn.diagnostics == traj.diagnostics
        fd = (fu.states - fdn.states) / (2 * h)
        assert np.max(np.abs(traj.sensitivities[:, :, col] - fd)) <= 1e-7 * max(1.0, np.max(np.abs(fd)))


def test_t_eval_keeps_the_free_running_step_sequence(reference_params):
    # t_eval points are interpolated, so a run on the README grid takes
    # exactly the steps of a run without it; clipping a step at each point
    # took 40, 45, 49 and 96 steps here
    ones = ModelParams.from_array(np.ones(14))
    expected = {(0, 1e-6): (11, 0), (0, 1e-9): (35, 0), (1, 1e-6): (24, 1), (1, 1e-9): (81, 1)}
    for (which, tol), (steps, rejected) in expected.items():
        p = (reference_params, ones)[which]
        with_grid = integrate(p, README_S0, _loss_cfg(tol), t_eval=GRID)
        free = integrate(p, README_S0, _loss_cfg(tol))
        assert with_grid.diagnostics.steps == free.diagnostics.steps == steps
        assert with_grid.diagnostics.rejected == free.diagnostics.rejected == rejected
        assert with_grid.diagnostics.clamped == free.diagnostics.clamped
        assert np.array_equal(with_grid.states[-1], free.states[-1])


def test_rk4_rejects_t_eval(stable_params):
    with pytest.raises(ValueError, match="t_eval needs the rk45 method"):
        integrate(stable_params, S0, SolverConfig(t_end=1.0, method="rk4", step=0.1),
                  t_eval=[0.0, 0.5, 1.0])


def test_rk4_records_every_step_and_lands_on_t_end(stable_params):
    traj = integrate(stable_params, S0, SolverConfig(t_end=1.05, method="rk4", step=0.1))
    assert traj.diagnostics.steps == len(traj.times) - 1 == 11
    assert traj.times[-1] == pytest.approx(1.05, abs=1e-12)
    assert np.allclose(np.diff(traj.times), [0.1] * 10 + [0.05])


def test_sensitivities_need_rk45_and_t_eval(stable_params):
    with pytest.raises(ValueError):
        integrate(stable_params, S0, SolverConfig(t_end=1.0), sensitivities=True)
    with pytest.raises(ValueError):
        integrate(stable_params, S0, SolverConfig(t_end=1.0, method="rk4", step=0.1),
                  t_eval=[0.0, 1.0], sensitivities=True)


@pytest.mark.parametrize("case, s0, absent", [
    ("predscav", State(0.0, 4.0, 6.0), 0),
    ("predprey", State(2.0, 4.0, 0.0), 2),
    ("reference", State(2.0, 0.0, 1.0), 1),
])
def test_sensitivities_of_a_subsystem_start(request, case, s0, absent):
    # a species that starts at zero stays at zero for every p, so its row of
    # dx/dp is exactly zero, and the other rows are the subsystem's dx/dp
    p = request.getfixturevalue(f"{case}_params")
    cfg = SolverConfig(t_end=5.0, tol=1e-10)
    traj = integrate(p, s0, cfg, t_eval=GRID, sensitivities=True)
    assert not traj.sensitivities[:, absent].any()
    pv = p.as_array()
    for col in range(14):
        h = 1e-5 * pv[col]
        up, dn = pv.copy(), pv.copy()
        up[col] += h
        dn[col] -= h
        fd = (integrate(ModelParams.from_array(up), s0, cfg, t_eval=GRID).states
              - integrate(ModelParams.from_array(dn), s0, cfg, t_eval=GRID).states) / (2 * h)
        got = traj.sensitivities[:, :, col]
        assert np.max(np.abs(got - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))


@pytest.mark.parametrize("k", [1e-158, 1e-300])
def test_absent_species_keeps_a_zero_sensitivity_row_where_the_table_overflows(k):
    # k * k underflows, so the table's r/k^2 coefficient is inf; the prey
    # row multiplies only zeros and must stay exactly zero, where 0 * inf
    # would make it nan and spread the nan to the other rows through their
    # zero entries in the prey column.  With the prey absent nothing
    # else depends on k, so the run is bitwise the one at k = 1e-150, where
    # r/k^2 is finite
    base = ModelParams.load(FIXTURES / "predscav_collapse.params").to_dict()
    s0, cfg, grid = State(0.0, 4.0, 6.0), SolverConfig(t_end=5.0, tol=1e-6), np.linspace(0.0, 5.0, 11)
    runs = [integrate(ModelParams.from_dict({**base, "k": kk}), s0, cfg, t_eval=grid,
                      sensitivities=True) for kk in (k, 1e-150)]
    assert not runs[0].sensitivities[:, 0].any()
    assert runs[0].states.tobytes() == runs[1].states.tobytes()
    assert runs[0].sensitivities.tobytes() == runs[1].sensitivities.tobytes()


# Bit-for-bit pins of record-every-step runs: the sha256 of the trajectory
# CSV, and steps, rejected, clamped and min_component.  Any change to a
# floating-point operation of a step loop or of the right-hand side, or to
# their order, shows here; the three subsystem runs each start one species
# at zero.  The interior_unstable horizon is the shortest round one at which
# squaring the error ratios by v*v instead of ** 2 changes the run (at t_end
# 1944.9 it does not).  The first trial of the run from a first step of 100
# cannot be evaluated, and is rejected like any other.
PINNED_RUNS = {
    "interior_unstable_rk45": (
        "interior_unstable", State(4.0, 3.0, 2.0), dict(t_end=1945.0),
        "b82e1bd1f2d6a2d46c336fd1983b6d73539241875c5edcc3e67dcdba85cf375d",
        (19525, 542, 0, 0.05146626266115749)),
    "collapse_clamp_rk45": (
        COLLAPSE, COLLAPSE_S0,
        dict(t_end=100.0, tol=1e-2, negativity_policy="clamp"),
        "187109f26ea54674cbc25e2348c89d2dde9779fbb88ab2d3185a5398b145b7b5",
        (45, 3, 1, 0.0)),
    "collapse_clamp_rk4": (
        COLLAPSE, COLLAPSE_S0,
        dict(t_end=100.0, method="rk4", step=0.5, negativity_policy="clamp"),
        "34645a8e71bfbe8fc9dc104006807293d3b5d2cfb0ad1f58ad51a439564e99d4",
        (200, 0, 1, 0.0)),
    "predscav_subsystem": (
        "predscav_collapse", State(0.0, 4.0, 6.0), dict(t_end=200.0),
        "11d1151523fa906a2b3cd41ac52285d6c71aa229583010785d289b1355ce2075",
        (329, 10, 0, 0.0)),
    "predprey_subsystem": (
        "predprey_coexist", State(2.0, 4.0, 0.0), dict(t_end=200.0),
        "b7d3b3343a07c83fccd215c77c707ed151450f71e9291f458b5f57709a3910bf",
        (224, 10, 0, 0.0)),
    "scavprey_subsystem": (
        "interior_stable", State(4.0, 0.0, 2.0), dict(t_end=200.0),
        "ae1974e525f758900bdb314e7f6288596ea9e7e1158823bbc9a6a3f17bd1484e",
        (227, 8, 0, 0.0)),
    "interior_stable_rk4": (
        "interior_stable", State(4.0, 3.0, 2.0),
        dict(t_end=200.0, method="rk4", step=0.01),
        "b4ecfb15f418f847d9a8bd505e97a117bb4e64c965ad504e40827d5c53634e6a",
        (20001, 0, 0, 0.025044877387599095)),
    "interior_stable_first_step_100": (
        "interior_stable", State(4.0, 3.0, 2.0), dict(t_end=50.0, step=100.0),
        "bdabe04421b7d0921e6a936872138ad51047fcd31ee4aa0d0191d81692a720e2",
        (218, 6, 0, 0.02505230201014121)),
}


@pytest.mark.parametrize("name", PINNED_RUNS)
def test_trajectories_are_pinned_bit_for_bit(tmp_path, name):
    params, s0, cfg, digest, (steps, rejected, clamped, lowest) = PINNED_RUNS[name]
    if isinstance(params, str):
        params = ModelParams.load(FIXTURES / f"{params}.params")
    traj = integrate(params, s0, SolverConfig(**cfg))
    write_rows_csv(tmp_path / "t.csv", traj.times, traj.states)
    assert hashlib.sha256((tmp_path / "t.csv").read_bytes()).hexdigest() == digest
    assert traj.diagnostics == Diagnostics(steps=steps, rejected=rejected,
                                           min_component=lowest, clamped=clamped)


def test_diagnostics_of_a_t_eval_run_cover_the_interpolated_states():
    p = ModelParams(**INTERIOR_UNSTABLE)
    cfg = SolverConfig(t_end=20.0, tol=1e-6)
    traj = integrate(p, S0, cfg, t_eval=np.linspace(0.0, 20.0, 201))
    assert traj.diagnostics == Diagnostics(steps=76, rejected=16,
                                           min_component=0.052360364556546087)
    # an interpolated point dips below every accepted step end
    assert traj.diagnostics.min_component == traj.states.min()
    assert traj.diagnostics.min_component < integrate(p, S0, cfg).diagnostics.min_component


def test_diagnostics_of_a_t_eval_run_cover_the_steps_between_its_points():
    # two rows, at 0.123 and above, and the step ends between them, which
    # dip to the minimum the record-every-step run reports
    p = ModelParams(**INTERIOR_UNSTABLE)
    cfg = SolverConfig(t_end=20.0, tol=1e-6)
    traj = integrate(p, S0, cfg, t_eval=[0.0, 20.0])
    assert traj.states.min() > 0.123
    assert traj.diagnostics == integrate(p, S0, cfg).diagnostics == Diagnostics(
        steps=76, rejected=16, min_component=0.053341290945833356)


def test_diagnostics_of_a_zero_span_run(stable_params):
    for t_eval in (None, [0.0, 0.0]):
        traj = integrate(stable_params, S0, SolverConfig(t_end=0.0), t_eval=t_eval)
        assert traj.diagnostics == Diagnostics(min_component=2.0)


def test_stiffness_test_counts_accepted_steps(unstable_params):
    # the test runs at every stiff_test_every-th accepted step, so the step
    # it gives up at depends on steps - rejected, not on the attempts
    kw = dict(INTERIOR_STABLE)
    kw["r"] = 1e9
    for every, t in ((1000, 6.458276779070921e-06), (7, 1.6522070564654203e-07)):
        with pytest.raises(IntegrationFailed) as exc:
            integrate(ModelParams(**kw), S0,
                      SolverConfig(t_end=200.0, max_steps=2500, stiff_test_every=every))
        assert (str(exc.value), exc.value.t) == (f"problem became stiff at t={t}", t)
    for every in (1, 3):
        traj = integrate(unstable_params, S0, SolverConfig(t_end=50.0, tol=1e-6,
                                                           stiff_test_every=every))
        assert traj.diagnostics == Diagnostics(steps=188, rejected=37,
                                               min_component=0.05180355867977232)

