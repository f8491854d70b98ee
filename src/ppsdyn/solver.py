"""Trajectory integration: adaptive Dormand-Prince 5(4) and fixed-step RK4.

The stepping core works on plain floats rather than numpy arrays; for a
3-component system the array overhead dominates runtime, and the estimation
pipeline performs hundreds of short integrations per fit.

With t_eval the adaptive method does not shorten its steps to land on each
requested point; only the last point is landed on.  The points in between
are interpolated by the 4th-order continuous extension that the seven stages
of each step already define (Hairer, Norsett & Wanner, Solving ODEs I,
II.6), so the step sequence is the one of a free-running integration.

On request the adaptive method also returns the forward sensitivities
S = dx/dp of the state with respect to the 14 parameters: the same
Dormand-Prince stages applied to the variational equations
dS/dt = J(x) S + df/dp, with J and df/dp taken at the stage states of each
accepted step, and the same interpolation weights at the t_eval points.
That makes S the exact derivative of the computed output for its step
sequence.  Error control never reads S, so S is computed from a log of the
accepted steps, batched over the steps, only once the loop completes: rejected
steps cost nothing, an integration that fails computes no S at all, and the
steps and states are bitwise the same with or without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from numbers import Integral
from typing import Optional, Sequence

import numpy as np

from .errors import (IntegrationFailed, MissingColumn, NonNumericCell, NumericalOverflow,
                     StepUnderflow)
from .model import (JACOBIAN_COLUMNS, ModelParams, State, Subsystem, jacobian_matrices,
                    make_jacobian, make_rhs)

OVERFLOW_LIMIT = 1e12
MIN_STEP = 1e-12

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
# accepted steps per batch of the dense-output and sensitivity pass
_BLOCK = 128
_NP = JACOBIAN_COLUMNS - 3  # parameters


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
        if not all(map(math.isfinite, (self.t_end, self.tol, self.step or 0.0))):
            raise ValueError("t_end, step and tol must be finite")
        if self.method not in ("rk45", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "rk4" and (self.step is None or self.step <= 0):
            raise ValueError("rk4 requires a positive fixed step")
        if self.step is not None and self.step <= 0:
            raise ValueError("step must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.negativity_policy not in ("diagnose", "clamp"):
            raise ValueError(f"unknown negativity policy {self.negativity_policy!r}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        limit = self.overflow_limit
        if isinstance(limit, bool) or not (math.isfinite(limit) and limit > 0):
            raise ValueError(f"overflow_limit must be finite and positive, got {limit!r}")
        every = self.stiff_test_every
        if every is not None and (isinstance(every, bool) or not isinstance(every, Integral)
                                  or every < 1):
            raise ValueError(f"stiff_test_every must be None or an integer >= 1, got {every!r}")


@dataclass
class Diagnostics:
    """steps counts every step attempt; rejected, the attempts whose trial
    failed the error test or was non-finite or overflowed (rk4 rejects
    none)."""

    steps: int = 0
    rejected: int = 0
    min_component: float = math.inf
    clamped: int = 0


def write_rows_csv(path, times, states) -> None:
    """Write a `t,x,y,z` header and one row per time, each value as its
    shortest round-tripping repr, so reading the file back is exact."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x,y,z\n")
        for t, (x, y, z) in zip(times.tolist(), states.tolist()):
            fh.write(f"{t!r},{x!r},{y!r},{z!r}\n")


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
    cell, each cell stripped; every row must hold 4 finite numbers."""
    with open(path, encoding="utf-8") as fh:
        if [h.strip() for h in fh.readline().split(",")] != ["t", "x", "y", "z"]:
            raise MissingColumn("expected header t,x,y,z")
        rows = [parse_row(line.strip().split(","), lineno, 4)
                for lineno, line in enumerate(fh, start=2)]
    return np.array([row[0] for row in rows]), np.array([row[1:] for row in rows])


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


def integrate(
    p: ModelParams,
    s0,
    cfg: SolverConfig,
    mask: Subsystem = Subsystem.FULL,
    t_eval: Optional[Sequence[float]] = None,
    sensitivities: bool = False,
) -> Trajectory:
    """Integrate from s0 (finite and nonnegative; time taken from s0.t if
    present, else 0) to cfg.t_end.

    Output is sampled at every accepted step, or, for rk45 only, at t_eval
    if given (t_eval must start at the initial time, be monotone toward
    t_end and end on it; one row per point).  rk45 interpolates the t_eval
    points by the continuous extension; steps are not clipped.  rk4 has no
    t_eval: it records every step, the last one shortened to end on t_end.
    Backward integration (t_end < t0) is supported for both methods.  With
    sensitivities=True (rk45, t_eval and the full system only) the
    trajectory also carries dx/dp at the t_eval points, s0 taken as
    independent of p.  Under the clamp policy an output sample below zero is
    clipped to zero and its row of dx/dp zeroed, as after a step.
    """
    x, y, z = (float(v) for v in s0[:3])
    t0 = float(s0[3]) if len(s0) > 3 else 0.0
    if not (min(x, y, z) >= 0 and math.isfinite(x + y + z)):
        raise ValueError(f"initial state must be finite and nonnegative, got {(x, y, z)}")
    mask.check_state((x, y, z))
    rhs = make_rhs(p, mask)

    if t_eval is not None:
        if cfg.method == "rk4":
            raise ValueError("t_eval needs the rk45 method; rk4 records every step")
        targets = [float(v) for v in t_eval]
        if not targets or abs(targets[0] - t0) > 1e-12:
            raise ValueError("t_eval must start at the initial time")
        dirn = 1.0 if cfg.t_end >= t0 else -1.0
        if any((b - a) * dirn < 0 for a, b in zip(targets, targets[1:])):
            raise ValueError("t_eval must be monotone toward t_end")
        if abs(targets[-1] - cfg.t_end) > 1e-12:
            raise ValueError("t_eval must end at t_end")
        targets = targets[1:]
    else:
        targets = None

    if not sensitivities:
        if cfg.method == "rk4":
            return _run_rk4(rhs, x, y, z, t0, cfg)
        return _run_rk45(rhs, x, y, z, t0, cfg, targets)
    if targets is None or mask is not Subsystem.FULL:  # rk4 never has targets
        raise ValueError("sensitivities need the rk45 method, t_eval and the full system")
    # dx/dp can overflow where the trajectory stays finite (seen at loose
    # tolerances); it then reads inf or nan for the caller to check, without
    # a warning
    with np.errstate(over="ignore", invalid="ignore"):
        return _run_rk45(rhs, x, y, z, t0, cfg, targets, make_jacobian(p))


class _DenseOutput:
    """States, and dx/dp on request, at the t_eval points before the last one.

    The step loop logs one row per accepted step: its start time and size,
    its start state and its seven stage slopes, the last one taken at the
    unclamped endpoint.  Each block of rows is packed into an array.
    Without a Jacobian closure a block is turned into output as soon as it
    is packed, so memory stays bounded on long runs; with one, the blocks
    wait, in order, until the step loop completes, so an integration that
    fails never evaluates the closure.  A block becomes output in a few
    array operations.  States come from the 4th-order continuous extension
    of the step.  For dx/dp, the Jacobian closure is evaluated once on the
    block's stage states; a forward substitution over the six stages, batched
    over the steps, gives each step's sensitivity stages as an affine function
    of its start value S, so the step maps S to A S + c; a short loop runs
    that recursion, and the output points use the same interpolation weights
    on the sensitivity stages.  S is carried from one block to the next.
    """

    def __init__(self, points, dirn, clamp, jac):
        self.key = dirn * np.array(points, dtype=float)  # increasing
        self.dirn = dirn
        self.clamp = clamp
        self.jac = jac
        self.states = np.empty((len(points), 3))
        self.S = np.zeros((3, _NP)) if jac is not None else None
        self.sens = np.empty((len(points), 3, _NP)) if jac is not None else None
        self.done = 0
        self.pending = []  # packed blocks not yet turned into output

    def push(self, log):
        """Pack the logged rows into a block and clear the log."""
        m, width = len(log), len(log[0])
        rows = np.fromiter(chain.from_iterable(log), float, m * width).reshape(m, width)
        log.clear()
        if self.jac is None:
            self._output(rows)
        else:
            self.pending.append(rows)

    def _output(self, rows):
        m = len(rows)
        t, hs, y0 = rows[:, 0], rows[:, 1], rows[:, 2:5]
        K = rows[:, 5:].reshape(m, 7, 3)
        key = self.dirn * (t + hs)  # step ends
        lo = self.done
        hi = lo + int(np.searchsorted(self.key[lo:], key[-1], side="right"))
        self.done = hi
        # the step each point falls in, and the interpolation weights there
        n = np.searchsorted(key, self.key[lo:hi], side="left")
        hn = hs[n, None]
        theta = (self.key[lo:hi] - self.dirn * t[n]) / np.abs(hs[n])
        W = (theta[:, None] ** np.arange(1, 5)) @ _P.T
        out = y0[n] + hn * (W[:, None, :] @ K[n])[:, 0]
        clipped = (out < 0.0) & self.clamp
        out[clipped] = 0.0
        self.states[lo:hi] = out
        if self.jac is None:
            return

        h = hs[:, None]
        # the unclamped endpoints, in the loop's order of operations, so the
        # signs that decided each clamp agree bit for bit
        ends = y0 + h * (_B1 * K[:, 0] + _B3 * K[:, 2] + _B4 * K[:, 3] + _B5 * K[:, 4] + _B6 * K[:, 5])
        stage_states = y0[:, None, :] + h[:, None] * (_A @ K[:, :6])
        M = jacobian_matrices(self.jac, *np.concatenate([stage_states.reshape(-1, 3), ends[n]]).T)
        # a copy, so that no view keeps the stage Jacobians alive once X is
        # consumed
        M_end = M[6 * m:].copy()
        # X[:, i] = [dK_i/dS | dK_i/dp] from K_i = J_i (S + hs sum_j a_ij K_j) + jp_i,
        # by forward substitution over the stages, each written over its J_i
        X = M[: 6 * m].reshape(m, 6, 3, JACOBIAN_COLUMNS)
        del M
        for i in range(1, 6):
            acc = (_A[i, :i] @ X[:, :i].reshape(m, i, -1)).reshape(m, 3, JACOBIAN_COLUMNS)
            X[:, i] = X[:, i] + h[:, None] * (X[:, i, :, :3] @ acc)
        G = (h * (_B @ X.reshape(m, 6, -1))).reshape(m, 3, JACOBIAN_COLUMNS)
        # only the stages of the steps with output points are used from here
        # on; the rest of the block is released
        X = X[n]
        # each step maps S to a S + c; max(v, 0) has derivative 0 where it clips
        keep = (ends >= 0.0)[:, :, None] if self.clamp else 1.0
        S = self.S
        starts = [S]
        for a, c in zip(keep * (np.eye(3) + G[:, :, :3]), keep * G[:, :, 3:]):
            S = a @ S + c
            starts.append(S)
        self.S = S

        # the sensitivity stages of the steps with output points; the 7th is
        # taken at the unclamped endpoint
        Sn = np.array(starts)[n]
        KS = X[..., :3] @ Sn[:, None] + X[..., 3:]
        end_s = Sn + hn[:, None] * (_B @ KS.reshape(-1, 6, 3 * _NP)).reshape(-1, 3, _NP)
        K7 = M_end[..., :3] @ end_s + M_end[..., 3:]
        KS = np.concatenate([KS, K7[:, None]], axis=1).reshape(-1, 7, 3 * _NP)
        out_s = Sn + hn[:, None] * (W[:, None, :] @ KS).reshape(-1, 3, _NP)
        out_s[clipped] = 0.0
        self.sens[lo:hi] = out_s

    def finish(self, t0, s0, targets, final, diag) -> Trajectory:
        """The trajectory at t0 and at the targets; the last target, and any
        point no logged step reached (all at the final time), take the final
        state."""
        while self.pending:
            self._output(self.pending.pop(0))
        self.states[self.done:] = final
        diag.min_component = min(diag.min_component, float(self.states.min(initial=math.inf)))
        states = np.concatenate([[s0], self.states, [final]])
        sens = None
        if self.jac is not None:
            self.sens[self.done:] = self.S
            sens = np.concatenate([np.zeros((1, 3, _NP)), self.sens, [self.S]])
        return Trajectory(np.array([t0] + targets), states, diag, sens)


def _run_rk45(rhs, x, y, z, t0, cfg: SolverConfig, targets, jac=None) -> Trajectory:
    t_end = float(cfg.t_end)
    dirn = 1.0 if t_end >= t0 else -1.0
    span = abs(t_end - t0)
    clamp = cfg.negativity_policy == "clamp"
    limit, stiff_every = cfg.overflow_limit, cfg.stiff_test_every
    # DOPRI5's stiffness bookkeeping: the last h*rho, the open run of stiff
    # steps and the non-stiff steps since its last stiff one
    hrho, stiff, calm = 0.0, 0, 0
    diag = Diagnostics(min_component=min(x, y, z))
    times = [t0]
    states = [(x, y, z)]
    if targets is None:
        # record every accepted step
        target, log, dense = t_end, None, None
    else:
        # steps are clipped only to land on the last point
        target = targets[-1] if targets else t0
        log, dense = [], _DenseOutput(targets[:-1], dirn, clamp, jac)

    t = t0
    k1 = rhs(x, y, z)
    if not all(map(math.isfinite, k1)):
        raise NumericalOverflow("non-finite derivative at the initial state", t=t0)
    h = cfg.step if cfg.step is not None else max(min(0.1, span / 100.0), MIN_STEP)
    if span == 0 or targets == []:
        # every requested point is the initial one
        times += targets or []
        sens = None if jac is None else np.zeros((len(times), 3, _NP))
        return Trajectory(np.array(times), np.array(states * len(times)), diag, sens)

    while (target - t) * dirn > 0:
        if diag.steps >= cfg.max_steps:
            raise IntegrationFailed(f"step limit {cfg.max_steps} reached", t=t)
        diag.steps += 1
        hs = min(h, abs(target - t)) * dirn
        f1x, f1y, f1z = k1
        bad = False
        err = math.inf
        try:
            u2 = (x + hs * _A21 * f1x, y + hs * _A21 * f1y, z + hs * _A21 * f1z)
            f2 = rhs(*u2)
            u3 = (x + hs * (_A31 * f1x + _A32 * f2[0]),
                  y + hs * (_A31 * f1y + _A32 * f2[1]),
                  z + hs * (_A31 * f1z + _A32 * f2[2]))
            f3 = rhs(*u3)
            u4 = (x + hs * (_A41 * f1x + _A42 * f2[0] + _A43 * f3[0]),
                  y + hs * (_A41 * f1y + _A42 * f2[1] + _A43 * f3[1]),
                  z + hs * (_A41 * f1z + _A42 * f2[2] + _A43 * f3[2]))
            f4 = rhs(*u4)
            u5 = (x + hs * (_A51 * f1x + _A52 * f2[0] + _A53 * f3[0] + _A54 * f4[0]),
                  y + hs * (_A51 * f1y + _A52 * f2[1] + _A53 * f3[1] + _A54 * f4[1]),
                  z + hs * (_A51 * f1z + _A52 * f2[2] + _A53 * f3[2] + _A54 * f4[2]))
            f5 = rhs(*u5)
            u6 = (x + hs * (_A61 * f1x + _A62 * f2[0] + _A63 * f3[0] + _A64 * f4[0] + _A65 * f5[0]),
                  y + hs * (_A61 * f1y + _A62 * f2[1] + _A63 * f3[1] + _A64 * f4[1] + _A65 * f5[1]),
                  z + hs * (_A61 * f1z + _A62 * f2[2] + _A63 * f3[2] + _A64 * f4[2] + _A65 * f5[2]))
            f6 = rhs(*u6)
            xn = x + hs * (_B1 * f1x + _B3 * f3[0] + _B4 * f4[0] + _B5 * f5[0] + _B6 * f6[0])
            yn = y + hs * (_B1 * f1y + _B3 * f3[1] + _B4 * f4[1] + _B5 * f5[1] + _B6 * f6[1])
            zn = z + hs * (_B1 * f1z + _B3 * f3[2] + _B4 * f4[2] + _B5 * f5[2] + _B6 * f6[2])
            k7 = rhs(xn, yn, zn)
            ex = hs * (_E1 * f1x + _E3 * f3[0] + _E4 * f4[0] + _E5 * f5[0] + _E6 * f6[0] + _E7 * k7[0])
            ey = hs * (_E1 * f1y + _E3 * f3[1] + _E4 * f4[1] + _E5 * f5[1] + _E6 * f6[1] + _E7 * k7[1])
            ez = hs * (_E1 * f1z + _E3 * f3[2] + _E4 * f4[2] + _E5 * f5[2] + _E6 * f6[2] + _E7 * k7[2])
            if not all(map(math.isfinite, (xn, yn, zn, ex, ey, ez))):
                bad = True
            else:
                sx = cfg.tol + cfg.tol * max(abs(x), abs(xn))
                sy = cfg.tol + cfg.tol * max(abs(y), abs(yn))
                sz = cfg.tol + cfg.tol * max(abs(z), abs(zn))
                # guard the squaring: pure-float ** raises OverflowError
                # where an array would saturate to inf
                if max(abs(ex) / sx, abs(ey) / sy, abs(ez) / sz) > 1e100:
                    bad = True
                else:
                    err = math.sqrt(((ex / sx) ** 2 + (ey / sy) ** 2 + (ez / sz) ** 2) / 3.0)
        except (OverflowError, ZeroDivisionError, ValueError):
            bad = True

        if bad:
            diag.rejected += 1
            h = abs(hs) * 0.2
            if h < MIN_STEP:
                raise StepUnderflow(f"step fell below {MIN_STEP} at t={t}", t=t)
            # the state is unchanged, so k1 is still its slope
            continue

        if err <= 1.0:
            if stiff_every and (stiff or (diag.steps - diag.rejected) % stiff_every == 0):
                # stage 6 and stage 7 are both taken at t + hs; hypot cannot
                # overflow, and a zero denominator keeps the last estimate
                den = math.hypot(xn - u6[0], yn - u6[1], zn - u6[2])
                if den > 0.0:
                    hrho = abs(hs) * math.hypot(k7[0] - f6[0], k7[1] - f6[1], k7[2] - f6[2]) / den
                if hrho > 3.25:
                    stiff, calm = stiff + 1, 0
                    if stiff == 15:
                        raise IntegrationFailed(f"problem became stiff at t={t + hs}", t=t + hs)
                else:
                    calm += 1
                    if calm == 6:
                        stiff = 0
            if log is not None:
                log.append((t, hs, x, y, z, *k1, *f2, *f3, *f4, *f5, *f6, *k7))
                if len(log) == _BLOCK:
                    dense.push(log)
            t = t + hs
            x, y, z = xn, yn, zn
            if clamp:
                cx, cy, cz = max(x, 0.0), max(y, 0.0), max(z, 0.0)
                if (cx, cy, cz) != (x, y, z):
                    diag.clamped += 1
                    x, y, z = cx, cy, cz
                    k7 = rhs(x, y, z)  # FSAL stage is stale after clamping
            diag.min_component = min(diag.min_component, x, y, z)
            if max(abs(x), abs(y), abs(z)) > limit:
                raise NumericalOverflow(f"state exceeded {limit:g} at t={t}", t=t)
            k1 = k7
            fac = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h = max(abs(hs) * fac, MIN_STEP)
            if dense is None:
                times.append(t)
                states.append((x, y, z))
        else:
            diag.rejected += 1
            h = abs(hs) * max(0.2, 0.9 * err ** -0.2)
            if h < MIN_STEP:
                raise StepUnderflow(f"step fell below {MIN_STEP} at t={t}", t=t)
    if dense is None:
        return Trajectory(np.array(times), np.array(states), diag)
    if log:
        dense.push(log)
    return dense.finish(t0, states[0], targets, (x, y, z), diag)


def _run_rk4(rhs, x, y, z, t0, cfg: SolverConfig) -> Trajectory:
    t_end = float(cfg.t_end)
    dirn = 1.0 if t_end >= t0 else -1.0
    clamp = cfg.negativity_policy == "clamp"
    diag = Diagnostics(min_component=min(x, y, z))
    times = [t0]
    states = [(x, y, z)]

    t = t0
    while (t_end - t) * dirn > 1e-15 * max(1.0, abs(t)):
        if diag.steps >= cfg.max_steps:
            raise IntegrationFailed(f"step limit {cfg.max_steps} reached", t=t)
        diag.steps += 1
        hs = min(cfg.step, abs(t_end - t)) * dirn
        f1 = rhs(x, y, z)
        f2 = rhs(x + 0.5 * hs * f1[0], y + 0.5 * hs * f1[1], z + 0.5 * hs * f1[2])
        f3 = rhs(x + 0.5 * hs * f2[0], y + 0.5 * hs * f2[1], z + 0.5 * hs * f2[2])
        f4 = rhs(x + hs * f3[0], y + hs * f3[1], z + hs * f3[2])
        x = x + hs / 6.0 * (f1[0] + 2 * f2[0] + 2 * f3[0] + f4[0])
        y = y + hs / 6.0 * (f1[1] + 2 * f2[1] + 2 * f3[1] + f4[1])
        z = z + hs / 6.0 * (f1[2] + 2 * f2[2] + 2 * f3[2] + f4[2])
        t = t + hs
        if not all(map(math.isfinite, (x, y, z))):
            raise NumericalOverflow(f"non-finite state at t={t}", t=t)
        if clamp:
            cx, cy, cz = max(x, 0.0), max(y, 0.0), max(z, 0.0)
            if (cx, cy, cz) != (x, y, z):
                diag.clamped += 1
                x, y, z = cx, cy, cz
        diag.min_component = min(diag.min_component, x, y, z)
        if max(abs(x), abs(y), abs(z)) > cfg.overflow_limit:
            raise NumericalOverflow(f"state exceeded {cfg.overflow_limit:g} at t={t}", t=t)
        times.append(t)
        states.append((x, y, z))
    return Trajectory(np.array(times), np.array(states), diag)


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
