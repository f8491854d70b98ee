"""Trajectory integration: adaptive Dormand-Prince 5(4) and fixed-step RK4.

The stepping core works on plain floats rather than numpy arrays; for a
3-component system the array overhead dominates runtime, and the estimation
pipeline performs hundreds of short integrations per fit.

The two step loops keep their per-step interpreter work small, and every
rewrite of them must keep each floating-point operation and its order, so
that trajectories stay bitwise the same:
- locals bound once per call: the tableau, tol, max_steps, the step and
  the math functions, so no step reads a config attribute or the tableau's
  globals;
- scalar stages: every stage slope is unpacked into three floats and every
  stage state passed as three arguments, with no tuples built or indexed;
- checks by comparison: chained isfinite calls, and `a if a > b else b`
  where max or min of two floats gives the same value;
- counters in locals: steps, rejected and clamped steps go into Diagnostics
  once, after the loop (a failed integration returns none), and its
  min_component is read then from the recorded states, not kept per step;
- one rejection path: a trial that raises, is non-finite or overflows the
  squared error ratios leaves err at inf, which the error test rejects
  with the smallest step factor, 0.2;
- `** 2` kept on purpose in the error norm: pow(v, 2) and v*v differ in the
  last bit on rare inputs, which changes long trajectories.

Without t_eval both methods record every accepted step.  The loop puts
each step's t, x, y, z onto one flat list and packs the list into a
float64 block every _ROWS rows, so no more than one block's Python floats
are alive at once; the blocks become times and states once the loop ends,
where the run's memory peaks at about 64 bytes a row, the blocks and the
two output arrays.  The CSV writer and reader stream the same way, _ROWS
rows at a time, so a long trajectory goes to a file and back in memory
proportional to its arrays.

With t_eval the adaptive method does not shorten its steps to land on each
requested point; only the last point is landed on.  The points in between
are interpolated by the 4th-order continuous extension that the seven stages
of each step already define (Hairer, Norsett & Wanner, Solving ODEs I,
II.6), so the step sequence is the one of a free-running integration.  The
loop logs its accepted steps, and one pass after it fills every point.

On request the adaptive method also returns the forward sensitivities
S = dx/dp of the state with respect to the 14 parameters: the same
Dormand-Prince stages applied to the variational equations
dS/dt = J(x) S + df/dp, with J and df/dp taken at the stage states of each
accepted step, and the same interpolation weights at the t_eval points.
That makes S the derivative of the computed output for its step sequence,
exact up to rounding in the stage states: the pass recomputes them as
y0 + h (A @ K), a matrix product that sums in another order than the step
loop, and about one component in six then differs in the last bits from
the state the loop fed the right-hand side.  Error control never reads S,
so S is computed from a log of the accepted steps, batched over the steps,
only once the loop completes: rejected steps cost nothing, an integration
that fails computes no S at all, nor builds the parameters' derivative
table, and the steps and states are bitwise the same with or without it.
The log, a flat list like the recorded rows, packed every _BLOCK steps,
keeps each step's unclamped end, where the 7th stage and its sensitivity
are taken.  On steps this short the pass costs numpy calls rather than
arithmetic, so a block of logged steps becomes dx/dp in a fixed number of
array operations (one Jacobian evaluation, a product of the states'
feature matrix with the derivative table, then the stage substitution and
the output points) plus one matrix product per step (see
_block_sensitivities).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ._files import rewrite
from .errors import (IntegrationFailed, MissingColumn, NonNumericCell, NumericalOverflow,
                     StepUnderflow)
from .model import JACOBIAN_COLUMNS, ModelParams, State, make_rhs, table_jacobians

OVERFLOW_LIMIT = 1e12
MIN_STEP = 1e-12
METHODS = ("rk45", "rk4")

# Dormand-Prince 5(4) tableau (FSAL: stage 7 of an accepted step is stage 1
# of the next).  The E row is the difference between the 5th- and 4th-order
# weights, used for the embedded error estimate.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = 71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40
# the same tableau as arrays, for the batched sensitivity stages; stage 7
# has zero 5th-order weight and is left out
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [_A21, 0.0, 0.0, 0.0, 0.0, 0.0],
    [_A31, _A32, 0.0, 0.0, 0.0, 0.0],
    [_A41, _A42, _A43, 0.0, 0.0, 0.0],
    [_A51, _A52, _A53, _A54, 0.0, 0.0],
    [_A61, _A62, _A63, _A64, _A65, 0.0],
])
_B = np.array([_B1, 0.0, _B3, _B4, _B5, _B6])
# continuous extension: the output at t + theta*h weights the seven stage
# slopes by _P @ (theta, theta^2, theta^3, theta^4); _D is its theta^4 column
# as Hairer and Wanner give it, and the other columns follow from matching
# the state and slope at both ends of the step
_D = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
               -10690763975 / 1880347072, 701980252875 / 199316789632,
               -1453857185 / 822651844, 69997945 / 29380423])
_B7, _FIRST, _LAST = np.append(_B, 0.0), np.eye(7)[0], np.eye(7)[6]
_P = np.stack([_FIRST, 3 * _B7 - 2 * _FIRST - _LAST + _D,
               -2 * _B7 + _FIRST + _LAST - 2 * _D, _D], axis=1)
# accepted steps per packed block of a t_eval run's log, and per batch of
# the dense-output and sensitivity pass; read at call time
_BLOCK = 128
_LOGGED = 29  # floats per logged step, a row of _dense_output's blocks
# t,x,y,z rows per packed block of a record-every-step run or a read CSV
# file, and per chunk of a written one
_ROWS = 1024
_NP = JACOBIAN_COLUMNS - 3  # parameters
_EYE = np.eye(_NP)
_EYE3 = np.eye(3)
# the powers of theta in the continuous extension
_POWERS = np.arange(1, 5)


@dataclass(frozen=True)
class SolverConfig:
    """Integration settings.

    method: "rk45" (adaptive, default) or "rk4" (fixed step).
    step: fixed step for rk4; initial step for rk45 (auto-chosen if None).
    tol: absolute and relative tolerance of rk45's error control; a step is
    accepted when the RMS of its component error estimates, each divided by
    tol + tol*max(|start|, |end|) of that component, is at most 1.
    negativity_policy: "diagnose" records the minimum component seen and lets
    the state go negative; "clamp" pins negative components to zero after
    each accepted step (changes the dynamics; off by default).
    max_steps: hard cap that turns pathological stiffness into a clean
    IntegrationFailed instead of an unbounded grind.
    overflow_limit: NumericalOverflow is raised once an accepted state has
    a component beyond it in absolute value.
    stiff_test_every: None (default) never tests for stiffness.  Otherwise
    rk45 runs the stiffness test of Hairer's DOPRI5 at every
    stiff_test_every-th accepted step, and at every accepted step while a
    run of stiff ones is open: a step is stiff when h*|k7 - f6| / |x1 - u6|,
    h times an estimate of the dominant eigenvalue from the last two stages
    (both taken at the step's end), exceeds 3.25, the edge of the method's
    stability region.  The 15th stiff step raises IntegrationFailed, and 6
    non-stiff steps in a row close the run.  rk4 never tests.
    The defaults keep every integration going to t_end or to max_steps;
    the estimation runs set both fields, to give up on hopeless candidates.
    No numeric field takes a bool, Python's or numpy's; t_end, step, tol and
    overflow_limit are stored as Python floats.
    """

    t_end: float
    method: str = "rk45"
    step: Optional[float] = None
    tol: float = 1e-9
    negativity_policy: str = "diagnose"
    max_steps: int = 100_000
    overflow_limit: float = OVERFLOW_LIMIT
    stiff_test_every: Optional[int] = None

    def __post_init__(self):
        for name in ("t_end", "step", "tol", "max_steps", "overflow_limit", "stiff_test_every"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, not a bool, got {value!r}")
        if not all(map(math.isfinite, (self.t_end, self.tol, self.step or 0.0))):
            raise ValueError("t_end, step and tol must be finite")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "rk4" and (self.step is None or self.step <= 0):
            raise ValueError("rk4 requires a positive fixed step")
        if self.step is not None and self.step <= 0:
            raise ValueError("step must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.negativity_policy not in ("diagnose", "clamp"):
            raise ValueError(f"unknown negativity policy {self.negativity_policy!r}")
        if not isinstance(self.max_steps, Integral) or self.max_steps < 1:
            raise ValueError(f"max_steps must be an integer >= 1, got {self.max_steps!r}")
        limit = self.overflow_limit
        if not (math.isfinite(limit) and limit > 0):
            raise ValueError(f"overflow_limit must be finite and positive, got {limit!r}")
        every = self.stiff_test_every
        if every is not None and (not isinstance(every, Integral) or every < 1):
            raise ValueError(f"stiff_test_every must be None or an integer >= 1, got {every!r}")
        # the steppers compute in Python floats: a numpy scalar would run the
        # error control in numpy arithmetic, slower and, for float32, rounded
        for name in ("t_end", "step", "tol", "overflow_limit"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, float(value))


@dataclass
class Diagnostics:
    """steps counts every step attempt; rejected, the attempts whose trial
    failed the error test or was non-finite or overflowed (rk4 rejects
    none); clamped, the accepted steps whose end the clamp policy pinned to
    zero.  min_component is the least component of the initial state, of
    every accepted step's end (after clamping) and of every output row."""

    steps: int = 0
    rejected: int = 0
    min_component: float = math.inf
    clamped: int = 0


def write_rows_csv(path, times, states) -> None:
    """Write a `t,x,y,z` header and one row per time, each value as its
    shortest round-tripping repr, so reading the file back is exact.  The
    rows go out _ROWS at a time, so the Python floats alive at once are
    those of one chunk, whatever the length of the file."""
    with rewrite(path) as fh:
        fh.write("t,x,y,z\n")
        for lo in range(0, len(times), _ROWS):
            hi = lo + _ROWS
            fh.writelines(f"{t!r},{x!r},{y!r},{z!r}\n"
                          for t, x, y, z in zip(times[lo:hi].tolist(), *states[lo:hi].T.tolist()))


def parse_row(cells, lineno: int, width: int) -> list:
    """The floats of one CSV row, which must hold `width` finite numbers;
    NonNumericCell names the line otherwise."""
    if len(cells) != width:
        raise NonNumericCell(f"line {lineno}: expected {width} cells, got {len(cells)}")
    try:
        vals = [float(c) for c in cells]
    except ValueError as exc:
        raise NonNumericCell(f"line {lineno}: {exc}") from None
    if not all(map(math.isfinite, vals)):
        raise NonNumericCell(f"line {lineno}: non-finite value in {','.join(cells)!r}")
    return vals


def read_rows_csv(path):
    """(times, states) from a `t,x,y,z` file: the header is compared cell by
    cell, each cell stripped; every row must hold 4 finite numbers, and the
    first row that does not raises.  The values of a row go onto one flat
    list, packed into an array every _ROWS rows, so memory peaks near 64
    bytes a row, the packed blocks and the two output arrays; a header-only
    file gives states of shape (0, 3)."""
    with open(path, encoding="utf-8") as fh:
        if [h.strip() for h in fh.readline().split(",")] != ["t", "x", "y", "z"]:
            raise MissingColumn("expected header t,x,y,z")
        vals, blocks, full = [], [], 4 * _ROWS
        for lineno, line in enumerate(fh, start=2):
            vals += parse_row(line.strip().split(","), lineno, 4)
            if len(vals) == full:
                blocks.append(_rows(vals))
    return _columns(blocks, vals)


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (len(times), 3)
    diagnostics: Diagnostics = field(default_factory=Diagnostics)
    # dx/dp at each of times, shape (len(times), 3, 14), when requested
    sensitivities: Optional[np.ndarray] = None

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states length mismatch")

    @property
    def final_state(self) -> State:
        return State(*self.states[-1], t=float(self.times[-1]))

    def to_csv(self, path):
        write_rows_csv(path, self.times, self.states)

    @classmethod
    def from_csv(cls, path) -> "Trajectory":
        return cls(*read_rows_csv(path))


class CheckedGrid(NamedTuple):
    """A t_eval that check_grid has checked for runs from t0 to t_end: its
    times, the first one set to t0, held read-only."""

    times: np.ndarray
    t0: float
    t_end: float


def check_grid(t_eval, t0: float, t_end: float) -> CheckedGrid:
    """t_eval as a CheckedGrid, once it is one-dimensional, finite, starts
    within 1e-12 of t0, is monotone toward t_end and ends within 1e-12 of
    it; ValueError names the first rule it breaks.  The times are a copy of
    t_eval.  integrate runs this on every raw t_eval, so a caller that
    integrates on one grid many times, as estimation does, can check it
    once and pass the CheckedGrid instead."""
    times = np.array(t_eval, dtype=float)
    if times.ndim != 1:
        raise ValueError("t_eval must be one-dimensional")
    if not np.isfinite(times).all():
        raise ValueError("t_eval must be finite")
    if not len(times) or abs(times[0] - t0) > 1e-12:
        raise ValueError("t_eval must start at the initial time")
    dirn = 1.0 if t_end >= t0 else -1.0
    if (np.diff(times) * dirn < 0).any():
        raise ValueError("t_eval must be monotone toward t_end")
    if abs(times[-1] - t_end) > 1e-12:
        raise ValueError("t_eval must end at t_end")
    # the first row is the initial state, at the initial time
    times[0] = t0
    times.flags.writeable = False
    return CheckedGrid(times, t0, t_end)


def integrate(
    p: ModelParams,
    s0,
    cfg: SolverConfig,
    *,
    t_eval: Optional[Sequence[float] | CheckedGrid] = None,
    sensitivities: bool = False,
) -> Trajectory:
    """Integrate from s0 (finite and nonnegative; time taken from s0.t if
    present, else 0) to cfg.t_end.

    A species that starts at zero stays at zero, bit for bit, so a
    subsystem needs no mode here (Subsystem.check_state checks its start).
    Output is sampled at every accepted step, or, for rk45 only, at t_eval
    if given (t_eval must be one-dimensional and finite, start at the
    initial time, be monotone toward t_end and end on it; one row per
    point).  A raw t_eval is checked by check_grid on every call and
    copied, so the caller's sequence is never written; a CheckedGrid
    skips the check once its t0 and t_end equal this run's start time and
    cfg.t_end, and raises the start or end error otherwise.  Either way
    the trajectory holds its own copy of the times, the first one the
    initial time.  rk45 interpolates the t_eval points by the continuous
    extension; steps are not clipped.  rk4 has no t_eval: it records every
    step, the last one shortened to end on t_end.
    Backward integration (t_end < t0) is supported for both methods.  With
    sensitivities=True (rk45 and t_eval only) the trajectory also carries
    dx/dp at the t_eval points, s0 taken as independent of p; the row of a
    species that starts at zero stays zero; where it overflows while the
    state stays finite (seen at loose tolerances) it reads inf or nan,
    without a warning, for the caller to check.  Under the clamp policy an
    output sample below zero is clipped to zero and its row of dx/dp
    zeroed, as after a step.
    """
    x, y, z = (float(v) for v in s0[:3])
    t0 = float(s0[3]) if len(s0) > 3 else 0.0
    if not (min(x, y, z) >= 0 and math.isfinite(x + y + z)):
        raise ValueError(f"initial state must be finite and nonnegative, got {(x, y, z)}")
    rhs = make_rhs(p)

    if t_eval is not None:
        if cfg.method == "rk4":
            raise ValueError("t_eval needs the rk45 method; rk4 records every step")
        if isinstance(t_eval, CheckedGrid):
            # checked once, for its own start time and t_end: two
            # comparisons confirm that they are this run's
            if t_eval.t0 != t0:
                raise ValueError("t_eval must start at the initial time")
            if t_eval.t_end != cfg.t_end:
                raise ValueError("t_eval must end at t_end")
        else:
            t_eval = check_grid(t_eval, t0, cfg.t_end)
        t_eval = t_eval.times.copy()  # the trajectory's own

    if sensitivities and t_eval is None:  # rk4 never has t_eval
        raise ValueError("sensitivities need the rk45 method and t_eval")
    if cfg.method == "rk4":
        return _run_rk4(rhs, x, y, z, t0, cfg)
    return _run_rk45(rhs, x, y, z, t0, cfg, t_eval, p if sensitivities else None)


def _rows(vals, width=4):
    """The flat values as a (rows, width) array, t,x,y,z by default; clears the list."""
    rows = np.fromiter(vals, float, len(vals)).reshape(-1, width)
    vals.clear()
    return rows


def _columns(blocks, vals):
    """times and states from the packed blocks of t,x,y,z rows and the flat
    values of the rows after them."""
    blocks.append(_rows(vals))
    return (np.concatenate([rows[:, 0] for rows in blocks]),
            np.concatenate([rows[:, 1:] for rows in blocks]))


def _recorded(blocks, record, steps, rejected, clamped) -> Trajectory:
    """The trajectory of a record-every-step run from its packed blocks of
    t,x,y,z rows and the flat record of the rows after them, min_component
    read from the states."""
    times, states = _columns(blocks, record)
    diag = Diagnostics(steps, rejected, float(states.min()), clamped)
    return Trajectory(times, states, diag)


def _dense_output(blocks, t_eval, dirn, clamp, p, s0, final, diag) -> Trajectory:
    """The trajectory at t_eval, and dx/dp there when the parameters p are
    given, from the packed blocks of logged steps, turned into output in
    order only once the step loop completes, so an integration that fails
    never does this work.

    A row of a block is one accepted step: its start time and size, its
    start state, its seven stage slopes, the last one taken at the
    unclamped end, and that unclamped end.  The first point takes s0; the
    last one, and any point no logged step reached (all at the final time),
    take the final state; the points in between come from the 4th-order
    continuous extension of the step they fall in, a few array operations
    per block, and their dx/dp from _block_sensitivities, with S = dx/dp
    carried from one block to the next.  diag takes its min_component here.
    """
    # a species that starts at zero stays there, so its row of dx/dp is zero
    absent = [c for c, v in enumerate(s0) if v == 0.0] if p is not None else None
    points = dirn * t_eval[1:-1]  # increasing
    # rows for t0, the points and the last one, filled in order
    states = np.empty((len(t_eval), 3))
    S = np.zeros((3, _NP))
    sens = np.zeros((len(t_eval), 3, _NP)) if p is not None else None
    lo = 0
    for rows in blocks:
        t, hs, y0 = rows[:, 0], rows[:, 1], rows[:, 2:5]
        K = rows[:, 5:26].reshape(-1, 7, 3)
        key = dirn * (t + hs)  # step ends
        hi = lo + int(points[lo:].searchsorted(key[-1], side="right"))
        # the step each point falls in, and the interpolation weights there
        n = key.searchsorted(points[lo:hi], side="left")
        hsn = hs[n]
        hn = hsn[:, None]
        theta = (points[lo:hi] - dirn * t[n]) / np.abs(hsn)
        W = (theta[:, None] ** _POWERS) @ _P.T
        out = y0[n] + hn * (W[:, None, :] @ K[n])[:, 0]
        clipped = (out < 0.0) & clamp
        out[clipped] = 0.0
        states[1 + lo:1 + hi] = out
        if p is not None:
            out_s, S = _block_sensitivities(p, hs[:, None], y0, K, rows[:, 26:], n, hn * W,
                                            clipped, clamp, S, absent)
            sens[1 + lo:1 + hi] = out_s
        lo = hi
    states[0] = s0
    states[1 + lo:] = final
    # the step starts and the rows: s0, every accepted end and each point
    diag.min_component = float(min([states.min(), *(rows[:, 2:5].min() for rows in blocks)]))
    if p is not None:
        sens[1 + lo:] = S
    return Trajectory(t_eval, states, diag, sens)


# dx/dp can overflow where the trajectory stays finite; it then reads inf or
# nan for the caller to check
@np.errstate(over="ignore", invalid="ignore")
def _block_sensitivities(p, h, y0, K, ends, n, hW, clipped, clamp, S, absent):
    """dx/dp at the output points of a block of logged steps, and S at the
    block's end, from S at its start; the steps have sizes h, start states
    y0, stage slopes K and unclamped ends, and the points lie in steps n,
    with interpolation weights hW = h W, clamped to zero where clipped.

    The Jacobians of p are evaluated once, from its derivative table, on
    the block's stage states and the logged ends of the steps n.  A forward
    substitution over the six stages, batched over the steps, gives each
    step's sensitivity stages
    X_j = [dK_j/dS | dK_j/dp] as an affine function of its start value S,
    so the step maps [S; I] to its end E = G [S; I], with
    G = [I | 0] + h sum_j b_j X_j; a short loop runs that recursion, one
    matrix product per step.  The weights are contracted with the stages
    once per output point, Y = h sum_j W_j X_j over the six stages and
    Z = h W_7 J(end), and the point's dx/dp is S + Y [S; I] + Z [E; I], the
    7th stage taken at the unclamped end.  The block's arrays are freed on
    return, before the next block's are made.

    The rows of the components in absent, those that start at zero, are
    zeroed in every Jacobian: such a row multiplies only zeros, but a
    coefficient of the derivative table that overflowed (r/k^2 where k*k
    underflows) would make it 0 * inf = nan there, and the nan would spread
    to the other rows through their zero entries in its column.
    """
    m = len(h)
    stage_states = y0[:, None, :] + h[:, None] * (_A @ K[:, :6])
    M = table_jacobians(p, np.concatenate([stage_states.reshape(-1, 3), ends[n]]))
    if absent:
        M[:, absent] = 0.0
    # X[:, j] from K_j = J_j (S + hs sum_l a_jl K_l) + jp_j, by forward
    # substitution over the stages, each written over its J_j in place,
    # with hs folded into the tableau rows; the tableau is strictly lower
    # triangular, so a whole row reads only earlier stages
    X = M[: 6 * m].reshape(m, 6, 3, JACOBIAN_COLUMNS)
    flat = X.reshape(m, 6, 3 * JACOBIAN_COLUMNS)
    hA = (h[:, None] * _A)[:, :, None]
    for row, Xj in zip(list(hA.swapaxes(0, 1))[1:], list(X.swapaxes(0, 1))[1:]):
        Xj += Xj[..., :3] @ (row @ flat).reshape(m, 3, JACOBIAN_COLUMNS)
    G = ((h * _B)[:, None] @ flat).reshape(m, 3, JACOBIAN_COLUMNS)
    G[:, :, :3] += _EYE3
    Y = (hW[:, None, :6] @ flat[n]).reshape(-1, 3, JACOBIAN_COLUMNS)
    Z = hW[:, 6, None, None] * M[6 * m:]
    # the stage Jacobians, M and its views, are freed before T is made
    del M, X, flat, Xj
    # T[i] = [S; I] at the start of step i, and step i maps it to its end
    # E = G[i] [S; I]; max(v, 0) has derivative 0 where it clips, so a
    # clamped step zeroes those rows of E
    T = np.empty((m + 1, JACOBIAN_COLUMNS, _NP))
    T[:, 3:] = _EYE
    T[0, :3] = S
    clamps = clamp and ends.min() < 0.0
    maps = G * (ends >= 0.0)[:, :, None] if clamps else G
    # np.dot makes the same BLAS call as matmul on these 2-d blocks, bit for
    # bit, without the ufunc dispatch that costs more than the product
    for g, start, end in zip(list(maps), list(T[:-1]), list(T[1:, :3])):
        np.dot(g, start, out=end)
    # the output points: S + Y [S; I] + Z [E; I], the 7th stage taken at
    # the step's unclamped end
    Sn = T[n, :3]
    En = G[n] @ T[n] if clamps else T[n + 1, :3]
    out_s = Sn + Y[..., :3] @ Sn + Z[..., :3] @ En + (Y[..., 3:] + Z[..., 3:])
    out_s[clipped] = 0.0
    return out_s, T[m, :3].copy()


def _run_rk45(rhs, x, y, z, t0, cfg: SolverConfig, t_eval, p=None) -> Trajectory:
    t_end = cfg.t_end
    dirn = 1.0 if t_end >= t0 else -1.0
    span = abs(t_end - t0)
    clamp = cfg.negativity_policy == "clamp"
    tol, max_steps = cfg.tol, cfg.max_steps
    limit, stiff_every = cfg.overflow_limit, cfg.stiff_test_every
    isfinite, sqrt, hypot, inf = math.isfinite, math.sqrt, math.hypot, math.inf
    a21, a31, a32, a41, a42, a43 = _A21, _A31, _A32, _A41, _A42, _A43
    a51, a52, a53, a54 = _A51, _A52, _A53, _A54
    a61, a62, a63, a64, a65 = _A61, _A62, _A63, _A64, _A65
    b1, b3, b4, b5, b6 = _B1, _B3, _B4, _B5, _B6
    e1, e3, e4, e5, e6, e7 = _E1, _E3, _E4, _E5, _E6, _E7
    # DOPRI5's stiffness bookkeeping: the last h*rho, the open run of stiff
    # steps and the non-stiff steps since its last stiff one
    hrho, stiff, calm = 0.0, 0, 0
    steps = rejected = clamped = 0
    s0, blocks = (x, y, z), []
    if t_eval is None:
        # record every accepted step: its t,x,y,z go onto a flat list,
        # packed into a block every _ROWS rows
        target, log, record, full = t_end, None, [t0, x, y, z], 4 * _ROWS
    else:
        # steps are clipped only to land on the last point; each accepted
        # step goes onto a flat log, packed into a block every _BLOCK steps
        target, log, full = float(t_eval[-1]), [], _LOGGED * _BLOCK

    t = t0
    f1x, f1y, f1z = rhs(x, y, z)
    if not (isfinite(f1x) and isfinite(f1y) and isfinite(f1z)):
        raise NumericalOverflow("non-finite derivative at the initial state", t=t0)
    h = cfg.step if cfg.step is not None else max(min(0.1, span / 100.0), MIN_STEP)

    while (target - t) * dirn > 0:
        if steps >= max_steps:
            raise IntegrationFailed(f"step limit {max_steps} reached", t=t)
        steps += 1
        rest = abs(target - t)
        hs = (rest if rest < h else h) * dirn
        err = inf
        try:
            f2x, f2y, f2z = rhs(x + hs * a21 * f1x, y + hs * a21 * f1y, z + hs * a21 * f1z)
            f3x, f3y, f3z = rhs(x + hs * (a31 * f1x + a32 * f2x),
                                y + hs * (a31 * f1y + a32 * f2y),
                                z + hs * (a31 * f1z + a32 * f2z))
            f4x, f4y, f4z = rhs(x + hs * (a41 * f1x + a42 * f2x + a43 * f3x),
                                y + hs * (a41 * f1y + a42 * f2y + a43 * f3y),
                                z + hs * (a41 * f1z + a42 * f2z + a43 * f3z))
            f5x, f5y, f5z = rhs(x + hs * (a51 * f1x + a52 * f2x + a53 * f3x + a54 * f4x),
                                y + hs * (a51 * f1y + a52 * f2y + a53 * f3y + a54 * f4y),
                                z + hs * (a51 * f1z + a52 * f2z + a53 * f3z + a54 * f4z))
            u6x = x + hs * (a61 * f1x + a62 * f2x + a63 * f3x + a64 * f4x + a65 * f5x)
            u6y = y + hs * (a61 * f1y + a62 * f2y + a63 * f3y + a64 * f4y + a65 * f5y)
            u6z = z + hs * (a61 * f1z + a62 * f2z + a63 * f3z + a64 * f4z + a65 * f5z)
            f6x, f6y, f6z = rhs(u6x, u6y, u6z)
            xn = x + hs * (b1 * f1x + b3 * f3x + b4 * f4x + b5 * f5x + b6 * f6x)
            yn = y + hs * (b1 * f1y + b3 * f3y + b4 * f4y + b5 * f5y + b6 * f6y)
            zn = z + hs * (b1 * f1z + b3 * f3z + b4 * f4z + b5 * f5z + b6 * f6z)
            f7x, f7y, f7z = rhs(xn, yn, zn)
            ex = hs * (e1 * f1x + e3 * f3x + e4 * f4x + e5 * f5x + e6 * f6x + e7 * f7x)
            ey = hs * (e1 * f1y + e3 * f3y + e4 * f4y + e5 * f5y + e6 * f6y + e7 * f7y)
            ez = hs * (e1 * f1z + e3 * f3z + e4 * f4z + e5 * f5z + e6 * f6z + e7 * f7z)
            if (isfinite(xn) and isfinite(yn) and isfinite(zn)
                    and isfinite(ex) and isfinite(ey) and isfinite(ez)):
                # tol + tol*max(|start|, |end|) per component; where the two
                # are equal they are the same float
                ax, bx = abs(x), abs(xn)
                ay, by = abs(y), abs(yn)
                az, bz = abs(z), abs(zn)
                sx = tol + tol * (ax if ax > bx else bx)
                sy = tol + tol * (ay if ay > by else by)
                sz = tol + tol * (az if az > bz else bz)
                # |e|/s is bitwise |e/s|, and float ** 2 squares the absolute
                # value; ** 2 stays a power, since v*v differs from pow(v, 2)
                # in the last bit on rare inputs.  Guard the squaring:
                # pure-float ** raises OverflowError where an array would
                # saturate to inf
                rx, ry, rz = abs(ex) / sx, abs(ey) / sy, abs(ez) / sz
                if not (rx > 1e100 or ry > 1e100 or rz > 1e100):
                    err = sqrt((rx ** 2 + ry ** 2 + rz ** 2) / 3.0)
        except (OverflowError, ZeroDivisionError, ValueError):
            pass

        if err <= 1.0:
            if stiff_every and (stiff or (steps - rejected) % stiff_every == 0):
                # stage 6 and stage 7 are both taken at t + hs; hypot cannot
                # overflow, and a zero denominator keeps the last estimate
                den = hypot(xn - u6x, yn - u6y, zn - u6z)
                if den > 0.0:
                    hrho = abs(hs) * hypot(f7x - f6x, f7y - f6y, f7z - f6z) / den
                if hrho > 3.25:
                    stiff, calm = stiff + 1, 0
                    if stiff == 15:
                        raise IntegrationFailed(f"problem became stiff at t={t + hs}", t=t + hs)
                else:
                    calm += 1
                    if calm == 6:
                        stiff = 0
            if log is not None:
                log += (t, hs, x, y, z, f1x, f1y, f1z, f2x, f2y, f2z, f3x, f3y, f3z,
                        f4x, f4y, f4z, f5x, f5y, f5z, f6x, f6y, f6z, f7x, f7y, f7z, xn, yn, zn)
                if len(log) == full:
                    blocks.append(_rows(log, _LOGGED))
            t = t + hs
            x, y, z = xn, yn, zn
            if clamp and (x < 0.0 or y < 0.0 or z < 0.0):
                clamped += 1
                if x < 0.0:
                    x = 0.0
                if y < 0.0:
                    y = 0.0
                if z < 0.0:
                    z = 0.0
                f7x, f7y, f7z = rhs(x, y, z)  # FSAL stage is stale after clamping
            if abs(x) > limit or abs(y) > limit or abs(z) > limit:
                raise NumericalOverflow(f"state exceeded {limit:g} at t={t}", t=t)
            f1x, f1y, f1z = f7x, f7y, f7z
            # min(5, max(0.2, 0.9 * err ** -0.2)), and then at least MIN_STEP;
            # err <= 1 keeps 0.9 * err ** -0.2 at 0.9 or more
            fac = 0.9 * err ** -0.2 if err > 0.0 else 5.0
            h = abs(hs) * (fac if fac < 5.0 else 5.0)
            if h < MIN_STEP:
                h = MIN_STEP
            if log is None:
                record += (t, x, y, z)
                if len(record) == full:
                    blocks.append(_rows(record))
        else:
            # err is inf where the trial failed: 0.9 * inf ** -0.2 is 0.0,
            # so the factor is 0.2; the state is unchanged, so f1 is still
            # its slope
            rejected += 1
            h = abs(hs) * max(0.2, 0.9 * err ** -0.2)
            if h < MIN_STEP:
                raise StepUnderflow(f"step fell below {MIN_STEP} at t={t}", t=t)
    if log is None:
        return _recorded(blocks, record, steps, rejected, clamped)
    if log:
        blocks.append(_rows(log, _LOGGED))
    diag = Diagnostics(steps=steps, rejected=rejected, clamped=clamped)
    return _dense_output(blocks, t_eval, dirn, clamp, p, s0, (x, y, z), diag)


def _run_rk4(rhs, x, y, z, t0, cfg: SolverConfig) -> Trajectory:
    t_end = cfg.t_end
    dirn = 1.0 if t_end >= t0 else -1.0
    clamp = cfg.negativity_policy == "clamp"
    step, max_steps, limit = cfg.step, cfg.max_steps, cfg.overflow_limit
    isfinite = math.isfinite
    steps = clamped = 0
    # t,x,y,z of every step on a flat list, packed every _ROWS rows
    record, blocks, full = [t0, x, y, z], [], 4 * _ROWS

    t = t0
    while (t_end - t) * dirn > 1e-15 * max(1.0, abs(t)):
        if steps >= max_steps:
            raise IntegrationFailed(f"step limit {max_steps} reached", t=t)
        steps += 1
        rest = abs(t_end - t)
        hs = (rest if rest < step else step) * dirn
        # x + 0.5 * hs * f is x + (0.5 * hs) * f, so the half step is formed once
        half = 0.5 * hs
        f1x, f1y, f1z = rhs(x, y, z)
        f2x, f2y, f2z = rhs(x + half * f1x, y + half * f1y, z + half * f1z)
        f3x, f3y, f3z = rhs(x + half * f2x, y + half * f2y, z + half * f2z)
        f4x, f4y, f4z = rhs(x + hs * f3x, y + hs * f3y, z + hs * f3z)
        sixth = hs / 6.0
        x = x + sixth * (f1x + 2 * f2x + 2 * f3x + f4x)
        y = y + sixth * (f1y + 2 * f2y + 2 * f3y + f4y)
        z = z + sixth * (f1z + 2 * f2z + 2 * f3z + f4z)
        t = t + hs
        if not (isfinite(x) and isfinite(y) and isfinite(z)):
            raise NumericalOverflow(f"non-finite state at t={t}", t=t)
        if clamp and (x < 0.0 or y < 0.0 or z < 0.0):
            clamped += 1
            if x < 0.0:
                x = 0.0
            if y < 0.0:
                y = 0.0
            if z < 0.0:
                z = 0.0
        if abs(x) > limit or abs(y) > limit or abs(z) > limit:
            raise NumericalOverflow(f"state exceeded {limit:g} at t={t}", t=t)
        record += (t, x, y, z)
        if len(record) == full:
            blocks.append(_rows(record))
    return _recorded(blocks, record, steps, 0, clamped)


def detect_settling(traj: Trajectory, window: float, tol: float) -> Optional[State]:
    """Mean state over the trailing window if the trajectory stays within tol of it.

    Returns None when any component wanders more than tol from its window
    mean (oscillation, drift, or divergence).
    """
    if len(traj.times) == 0:
        raise ValueError("empty trajectory")
    t_final = traj.times[-1]
    sel = traj.times >= t_final - window
    chunk = traj.states[sel]
    mean = chunk.mean(axis=0)
    if np.max(np.abs(chunk - mean)) < tol:
        return State(*mean, t=float(t_final))
    return None
