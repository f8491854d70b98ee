"""Trajectory integration: adaptive Dormand-Prince 5(4) and fixed-step RK4.

The stepping core works on plain floats rather than numpy arrays; for a
3-component system the array overhead dominates runtime, and the estimation
pipeline performs hundreds of short integrations per fit.

On request the adaptive method also returns the forward sensitivities
S = dx/dp of the state with respect to the 14 parameters.  After each
accepted step, S is advanced through the same Dormand-Prince stages applied
to the variational equations dS/dt = J(x) S + df/dp, with J and df/dp taken
at the stage states that step already computed.  That makes S the exact
derivative of the computed trajectory for its step sequence, at no cost to
rejected steps.  Error control looks at the state only, so the steps and
states are bitwise the same with or without sensitivities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .errors import IntegrationFailed, MaskViolation, NumericalOverflow, StepUnderflow
from .model import JACOBIAN_COLUMNS, ModelParams, State, Subsystem, make_jacobian, make_rhs

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
# the same tableau as arrays, for the sensitivity stages; stage 7 has zero
# 5th-order weight and is left out
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [_A21, 0.0, 0.0, 0.0, 0.0, 0.0],
    [_A31, _A32, 0.0, 0.0, 0.0, 0.0],
    [_A41, _A42, _A43, 0.0, 0.0, 0.0],
    [_A51, _A52, _A53, _A54, 0.0, 0.0],
    [_A61, _A62, _A63, _A64, _A65, 0.0],
])
_B = np.array([_B1, 0.0, _B3, _B4, _B5, _B6])


@dataclass(frozen=True)
class SolverConfig:
    """Integration settings.

    method: "rk45" (adaptive, default) or "rk4" (fixed step).
    step: fixed step for rk4; initial step for rk45 (auto-chosen if None).
    negativity_policy: "diagnose" records the minimum component seen and lets
    the state go negative; "clamp" pins negative components to zero after
    each accepted step (changes the dynamics; off by default).
    max_steps: hard cap that turns pathological stiffness into a clean
    IntegrationFailed instead of an unbounded grind.
    """

    t_end: float
    method: str = "rk45"
    step: Optional[float] = None
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    negativity_policy: str = "diagnose"
    max_steps: int = 100_000

    def __post_init__(self):
        if self.method not in ("rk45", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "rk4" and (self.step is None or self.step <= 0):
            raise ValueError("rk4 requires a positive fixed step")
        if self.step is not None and self.step <= 0:
            raise ValueError("step must be positive")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.negativity_policy not in ("diagnose", "clamp"):
            raise ValueError(f"unknown negativity policy {self.negativity_policy!r}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass
class Diagnostics:
    steps: int = 0
    min_component: float = math.inf
    clamped: int = 0


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
        with open(path, "w") as fh:
            fh.write("t,x,y,z\n")
            for t, (x, y, z) in zip(self.times, self.states):
                fh.write(f"{float(t)!r},{float(x)!r},{float(y)!r},{float(z)!r}\n")

    @classmethod
    def from_csv(cls, path) -> "Trajectory":
        times, states = [], []
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "t,x,y,z":
                raise ValueError(f"unexpected trajectory header {header!r}")
            for lineno, line in enumerate(fh, start=2):
                vals = [float(v) for v in line.split(",")]
                if not all(map(math.isfinite, vals)):
                    raise ValueError(f"line {lineno}: non-finite value in {line.strip()!r}")
                times.append(vals[0])
                states.append(vals[1:4])
        return cls(np.array(times), np.array(states))


def _check_mask(s0, mask: Subsystem):
    for comp, active, name in zip(s0, mask.mask, "xyz"):
        if not active and comp != 0:
            raise MaskViolation(f"{name}0 = {comp} but {name} is masked out in {mask.name}")


def integrate(
    p: ModelParams,
    s0,
    cfg: SolverConfig,
    mask: Subsystem = Subsystem.FULL,
    t_eval: Optional[Sequence[float]] = None,
    sensitivities: bool = False,
) -> Trajectory:
    """Integrate from s0 (time taken from s0.t if present, else 0) to cfg.t_end.

    Output is sampled at every accepted step, or exactly at t_eval if given
    (t_eval must start at the initial time and be monotone toward t_end).
    Backward integration (t_end < t0) is supported for both methods.
    With sensitivities=True (rk45, t_eval and the full system only) the
    trajectory also carries dx/dp at the t_eval points, s0 taken as
    independent of p.
    """
    x, y, z = (float(v) for v in s0[:3])
    t0 = float(s0[3]) if len(s0) > 3 else 0.0
    if min(x, y, z) < 0:
        raise ValueError(f"initial state must be nonnegative, got {(x, y, z)}")
    _check_mask((x, y, z), mask)
    rhs = make_rhs(p, mask)

    if t_eval is not None:
        targets = [float(v) for v in t_eval]
        if not targets or abs(targets[0] - t0) > 1e-12:
            raise ValueError("t_eval must start at the initial time")
        targets = targets[1:]
    else:
        targets = None

    if not sensitivities:
        if cfg.method == "rk4":
            return _run_rk4(rhs, x, y, z, t0, cfg, targets)
        return _run_rk45(rhs, x, y, z, t0, cfg, targets)
    if cfg.method != "rk45" or targets is None or mask is not Subsystem.FULL:
        raise ValueError("sensitivities need the rk45 method, t_eval and the full system")
    # dx/dp can overflow where the trajectory stays finite (seen at loose
    # tolerances); it then reads inf or nan for the caller to check, without
    # a warning per step
    with np.errstate(over="ignore", invalid="ignore"):
        return _run_rk45(rhs, x, y, z, t0, cfg, targets, make_jacobian(p))


def _sens_step(jac, S, hs, stage_states):
    """S = dx/dp, flattened, after an accepted step of size hs: the
    Dormand-Prince stages applied to dS/dt = J S + df/dp, with both
    derivatives evaluated at the step's own first six stage states."""
    m = np.fromiter(chain.from_iterable(jac(*u) for u in stage_states), float, 18 * JACOBIAN_COLUMNS)
    m = m.reshape(6, 3, JACOBIAN_COLUMNS)
    jx, jp = m[:, :, :3], m[:, :, 3:]
    # the stage slopes K_i = J_i (S + hs sum_j a_ij K_j) + jp_i, stacked, are
    # K = R + N K with N block strictly lower triangular; five sweeps of that
    # fixed point are the forward substitution, in a few array operations
    N = ((hs * _A)[:, None, :, None] * jx[:, :, None, :]).reshape(18, 18)
    R = (jx @ S.reshape(3, -1) + jp).reshape(18, -1)
    K = R
    for _ in range(5):
        K = R + N @ K
    return S + (hs * _B) @ K.reshape(6, -1)


def _run_rk45(rhs, x, y, z, t0, cfg: SolverConfig, targets, jac=None) -> Trajectory:
    t_end = float(cfg.t_end)
    dirn = 1.0 if t_end >= t0 else -1.0
    span = abs(t_end - t0)
    clamp = cfg.negativity_policy == "clamp"
    diag = Diagnostics(min_component=min(x, y, z))
    times = [t0]
    states = [(x, y, z)]
    record_all = targets is None
    queue = list(targets) if targets is not None else [t_end]
    # flat dx/dp and its value at every recorded time, or None throughout
    S = np.zeros(3 * (JACOBIAN_COLUMNS - 3)) if jac is not None else None
    sens = [S]

    t = t0
    k1 = rhs(x, y, z)
    if not all(map(math.isfinite, k1)):
        raise NumericalOverflow("non-finite derivative at the initial state", t=t0)
    h = cfg.step if cfg.step is not None else max(min(0.1, span / 100.0), MIN_STEP)
    if span == 0:
        return _trajectory(times, states, diag, sens)

    for target in queue:
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
                    sx = cfg.abs_tol + cfg.rel_tol * max(abs(x), abs(xn))
                    sy = cfg.abs_tol + cfg.rel_tol * max(abs(y), abs(yn))
                    sz = cfg.abs_tol + cfg.rel_tol * max(abs(z), abs(zn))
                    # guard the squaring: pure-float ** raises OverflowError
                    # where an array would saturate to inf
                    if max(abs(ex) / sx, abs(ey) / sy, abs(ez) / sz) > 1e100:
                        bad = True
                    else:
                        err = math.sqrt(((ex / sx) ** 2 + (ey / sy) ** 2 + (ez / sz) ** 2) / 3.0)
            except (OverflowError, ZeroDivisionError, ValueError):
                bad = True

            if bad:
                h = abs(hs) * 0.2
                if h < MIN_STEP:
                    raise StepUnderflow(f"step fell below {MIN_STEP} at t={t}", t=t)
                k1 = rhs(x, y, z)
                continue

            if err <= 1.0:
                if S is not None:
                    S = _sens_step(jac, S, hs, ((x, y, z), u2, u3, u4, u5, u6))
                t = t + hs
                x, y, z = xn, yn, zn
                if clamp:
                    cx, cy, cz = max(x, 0.0), max(y, 0.0), max(z, 0.0)
                    if (cx, cy, cz) != (x, y, z):
                        diag.clamped += 1
                        if S is not None:
                            # max(v, 0) has derivative 0 where it clips
                            S = S * np.repeat((x >= 0.0, y >= 0.0, z >= 0.0), S.size // 3)
                        x, y, z = cx, cy, cz
                        k7 = rhs(x, y, z)  # FSAL stage is stale after clamping
                diag.min_component = min(diag.min_component, x, y, z)
                if max(abs(x), abs(y), abs(z)) > OVERFLOW_LIMIT:
                    raise NumericalOverflow(f"state exceeded {OVERFLOW_LIMIT:g} at t={t}", t=t)
                k1 = k7
                fac = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
                h = max(abs(hs) * fac, MIN_STEP)
                if record_all:
                    times.append(t)
                    states.append((x, y, z))
            else:
                h = abs(hs) * max(0.2, 0.9 * err ** -0.2)
                if h < MIN_STEP:
                    raise StepUnderflow(f"step fell below {MIN_STEP} at t={t}", t=t)
        if not record_all or times[-1] != t:
            times.append(t)
            states.append((x, y, z))
            sens.append(S)
    return _trajectory(times, states, diag, sens)


def _trajectory(times, states, diag, sens) -> Trajectory:
    sensitivities = None if sens[0] is None else np.array(sens).reshape(len(times), 3, -1)
    return Trajectory(np.array(times), np.array(states), diag, sensitivities)


def _run_rk4(rhs, x, y, z, t0, cfg: SolverConfig, targets) -> Trajectory:
    t_end = float(cfg.t_end)
    dirn = 1.0 if t_end >= t0 else -1.0
    clamp = cfg.negativity_policy == "clamp"
    diag = Diagnostics(min_component=min(x, y, z))
    times = [t0]
    states = [(x, y, z)]
    record_all = targets is None
    queue = list(targets) if targets is not None else [t_end]

    t = t0
    for target in queue:
        while (target - t) * dirn > 1e-15 * max(1.0, abs(t)):
            if diag.steps >= cfg.max_steps:
                raise IntegrationFailed(f"step limit {cfg.max_steps} reached", t=t)
            diag.steps += 1
            hs = min(cfg.step, abs(target - t)) * dirn
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
            if max(abs(x), abs(y), abs(z)) > OVERFLOW_LIMIT:
                raise NumericalOverflow(f"state exceeded {OVERFLOW_LIMIT:g} at t={t}", t=t)
            if record_all:
                times.append(t)
                states.append((x, y, z))
        if not record_all or times[-1] != t:
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
