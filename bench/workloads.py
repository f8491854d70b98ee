"""The three benchmark workloads: their seeded inputs, their commands and
the checks on every command's outputs.

Each workload writes its inputs under ``<work>/in`` from the benchmark seed
alone and turns them into a list of CLI commands, one pass.  The checks test
invariants (exit codes, MSE ordering, settling, residuals, eigenvalue signs)
rather than frozen answers, so a legitimate numerical change still passes;
byte-identity of the artifacts between repeats of one command is checked by
the runner.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FIXTURES = ("interior_stable", "interior_unstable", "predprey_coexist",
            "predscav_collapse", "reference")
README_S0 = "4.991,1.178,0.577"


@dataclass
class Op:
    """One CLI command of a pass; key names its input for repeat checks."""

    key: str
    argv: list
    out: Path
    artifacts: tuple
    info: dict = field(default_factory=dict)

    def artifact_paths(self):
        return [self.out / name for name in self.artifacts]


class SetupFailed(RuntimeError):
    """Input generation failed; the run cannot measure anything."""


def copy_fixtures(root: Path, dest: Path) -> dict:
    dest.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in FIXTURES:
        paths[name] = dest / f"{name}.params"
        shutil.copyfile(root / "fixtures" / f"{name}.params", paths[name])
    return paths


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


# ---------------------------------------------------------------- fit_readme

class FitReadme:
    """README pipeline: synth with seeded noise, then estimate (100 network
    epochs, then at most bfgs_iterations BFGS iterations).

    Estimation is most of the tier-1 time: thousands of short t_eval
    integrations inside pinn and optimize, never touching equilibria or
    stability.  With the default budget of 200 iterations BFGS stops after
    16 to 127 of them depending on the seed, so one fit took 3.2 to 8.9 s
    and an 8-seed pass 29 to 47 s over five benchmark seeds, wider than
    any regression bound.  At 20 iterations nearly every fit runs to the
    cap, both stages are still exercised, and fits differ by about a tenth.
    A traced run covers only the first few seeds, because tracing slows a
    fit by about a fifth and each runs twice.
    """

    name = "fit_readme"
    seeds_per_pass = 8
    traced_inputs = 3
    bfgs_iterations = 20

    def __init__(self, smoke: bool):
        self.smoke = smoke

    def generate(self, root, work, seed, cli):
        fixtures = copy_fixtures(root, work / "in")
        rng = _rng(seed, 1)
        ops = []
        for k in range(1 if self.smoke else self.seeds_per_pass):
            noise_seed, est_seed = (int(v) for v in rng.integers(0, 2**31 - 1, size=2))
            data = work / "in" / f"data{k}"
            rc = cli(["synth", "--params", str(fixtures["reference"]), "--s0", README_S0,
                      "--t-end", "5", "--points", "40", "--noise", "0.02",
                      "--seed", str(noise_seed), "--out", str(data)])
            if rc != 0:
                raise SetupFailed(f"synth exited {rc} for noise seed {noise_seed}")
            out = work / f"fit{k}"
            argv = ["estimate", "--dataset", str(data / "dataset.csv"), "--seed", str(est_seed),
                    "--bfgs-iterations", str(self.bfgs_iterations), "--out", str(out)]
            if self.smoke:
                argv += ["--epochs", "2", "--bfgs-iterations", "5"]
            ops.append(Op(f"fit{k}", argv, out, ("report.json", "trace.csv", "fit.svg")))
        return ops

    def ablation(self, op: Op) -> Op:
        """The same fit without the network stage (polish from the all-ones start)."""
        out = op.out.with_name(op.out.name + "_epochs0")
        argv = [a if a != str(op.out) else str(out) for a in op.argv] + ["--epochs", "0"]
        return Op(op.key + "_epochs0", argv, out, ("report.json",))

    def check(self, prog, op, rc) -> list:
        if rc != 0:
            return [f"estimate exited {rc}"]
        rep = json.loads((op.out / "report.json").read_text())
        final, post = rep["final_mse"], rep["post_nn_mse"]
        op.info["final_mse"] = final
        if not math.isfinite(final):
            return [f"final_mse {final} is not finite"]
        # the pipeline keeps whichever of the network and polish iterates fits better
        best = min([post] + rep["bfgs_trace"][-1:])
        if not final <= best:
            return [f"final_mse {final} exceeds {best}, the better of the network "
                    f"and polish MSEs"]
        return []


# ---------------------------------------------------------- simulate_ensemble

# fixture, subsystem, canonical s0 (the acceptance test's and the README's),
# horizon, and what the canonical trajectory must do
ENSEMBLE = (
    ("interior_stable", "full", "4,3,2", 500.0, "settle"),
    ("interior_unstable", "full", "4,3,2", 2000.0, "oscillate"),
    ("predprey_coexist", "predprey", "2,4,0", 1000.0, "settle"),
    ("predscav_collapse", "predscav", "0,4,6", 200.0, "collapse"),
    ("reference", "full", README_S0, 1000.0, "settle"),
)
# the point a settling fixture must reach, by its analyze label
SETTLE_LABEL = {"interior_stable": "Interior", "predprey_coexist": "PredPrey",
                "reference": "Interior"}


class SimulateEnsemble:
    """simulate on every fixture from its canonical s0 and from seeded
    perturbations of it (each component scaled by U(0.8, 1)), over long
    horizons, plus one fixed-step rk4 run.

    Few long record-every-step integrations with no t_eval, and large CSV
    and SVG artifacts: per-step cost and output formatting dominate.  A
    dense-output or gradient change should leave this workload flat.
    """

    name = "simulate_ensemble"
    extras_per_fixture = 2

    def __init__(self, smoke: bool):
        self.smoke = smoke

    def generate(self, root, work, seed, cli):
        fixtures = copy_fixtures(root, work / "in")
        rng = _rng(seed, 2)
        ops = []
        extras = 0 if self.smoke else self.extras_per_fixture
        for name, sub, s0, t_end, expect in ENSEMBLE:
            starts = [(s0, expect)]
            canonical = np.array([float(v) for v in s0.split(",")])
            for _ in range(extras):
                # near the canonical orbit, so the cost of a pass does not hinge
                # on which basin a draw falls in; scaled down only, because
                # predscav_collapse blows up when its scavenger starts 15% higher
                draw = canonical * rng.uniform(0.8, 1.0, size=3)
                starts.append((",".join(repr(float(v)) for v in draw), None))
            for k, (start, kind) in enumerate(starts):
                out = work / f"{name}_{k}"
                argv = ["simulate", "--params", str(fixtures[name]), "--s0", start,
                        "--subsystem", sub, "--t-end", repr(t_end), "--out", str(out)]
                ops.append(Op(f"{name}_{k}", argv, out,
                              ("trajectory.csv", "timeseries.svg", "phase.svg"),
                              {"fixture": name, "expect": kind, "t_end": t_end,
                               "params": fixtures[name]}))
        out = work / "interior_stable_rk4"
        ops.append(Op("interior_stable_rk4",
                      ["simulate", "--params", str(fixtures["interior_stable"]), "--s0", "4,3,2",
                       "--t-end", "200", "--method", "rk4", "--step", "0.01", "--out", str(out)],
                      out, ("trajectory.csv", "timeseries.svg", "phase.svg"),
                      {"fixture": "interior_stable", "expect": "settle", "t_end": 200.0,
                       "params": fixtures["interior_stable"]}))
        return ops

    def check(self, prog, op, rc) -> list:
        if rc != 0:
            return [f"simulate exited {rc}"]
        traj = prog.solver.Trajectory.from_csv(op.out / "trajectory.csv")
        times, states = np.asarray(traj.times), np.asarray(traj.states)
        if len(times) < 2 or not np.all(np.isfinite(states)):
            return ["trajectory is empty or not finite"]
        t_end = op.info["t_end"]
        if times[0] != 0.0 or abs(times[-1] - t_end) > 1e-9 * t_end or np.any(np.diff(times) <= 0):
            return [f"trajectory times do not run from 0 to {op.info['t_end']}"]
        kind = op.info["expect"]
        if kind == "collapse" and np.linalg.norm(states[-1]) >= 1e-3:
            return [f"no collapse: final state {states[-1]}"]
        if kind == "oscillate" and prog.solver.detect_settling(traj, window=100.0, tol=1e-2) is not None:
            return ["oscillating fixture settled"]
        if kind == "settle":
            params = prog.model.ModelParams.load(op.info["params"])
            label = SETTLE_LABEL[op.info["fixture"]]
            target = [eq.point for eq in prog.equilibria.all_equilibria(params)
                      if eq.label == label and eq.exists]
            settled = prog.solver.detect_settling(traj, window=40.0, tol=1e-2)
            if not target or settled is None:
                return [f"did not settle on the {label} point"]
            if max(abs(a - b) for a, b in zip(settled[:3], target[0])) > 1e-2:
                return [f"settled at {tuple(settled[:3])}, analyze reports {target[0]}"]
        return []


# -------------------------------------------------------------- analyze_sweep

class AnalyzeSweep:
    """analyze on seeded draws from U(0.1, 3) (the distribution the root-counting
    study uses) plus the five fixtures.

    Exercises equilibria (the 4096-point scan, bisection, the polynomial
    cross-check), stability and JSON writing, and never calls solver, pinn or
    optimize: the no-change control for estimation work.  150 draws per pass
    put hundreds of the run's command times above their 90th percentile.
    """

    name = "analyze_sweep"
    draws = 150

    def __init__(self, smoke: bool):
        self.smoke = smoke

    def generate(self, root, work, seed, cli):
        inputs = work / "in"
        files = dict(copy_fixtures(root, inputs))
        rng = _rng(seed, 3)
        names = ("r", "k", "a", "a0", "b", "b0", "d", "e", "f", "g", "h", "i", "i0", "j")
        for k in range(3 if self.smoke else self.draws):
            path = inputs / f"draw{k:03d}.params"
            values = rng.uniform(0.1, 3.0, size=len(names))
            path.write_text("".join(f"{n} = {float(v)!r}\n" for n, v in zip(names, values)))
            files[f"draw{k:03d}"] = path
        ops = []
        for key, path in files.items():
            out = work / key
            ops.append(Op(key, ["analyze", "--params", str(path), "--out", str(out)], out,
                          ("equilibria.json",), {"params": path}))
        return ops

    def check(self, prog, op, rc) -> list:
        rep = json.loads((op.out / "equilibria.json").read_text())
        flagged = any(e["flag"] == "multiple_roots" for e in rep["equilibria"])
        op.info["flagged"] = flagged
        if rc != (2 if flagged else 0):
            return [f"analyze exited {rc} with multiple_roots {'flagged' if flagged else 'absent'}"]
        params = prog.model.ModelParams.load(op.info["params"])
        rhs = prog.model.make_rhs(params)
        problems = []
        for eq in rep["equilibria"]:
            if not eq["exists"] or eq["point"] is None:
                continue
            point = np.array(eq["point"], dtype=float)
            scale = max(1.0, float(np.max(np.abs(point))))
            resid = max(abs(v) for v in rhs(*point))
            if not resid <= 1e-6 * scale**3:
                problems.append(f"{eq['label']}: |rhs| = {resid:.3g} at {eq['point']}")
            verdict = eq["stability"]["classification"]
            lam, tol = _fd_max_real_eig(rhs, point)
            if ((verdict == "Stable" and lam > tol) or (verdict == "Unstable" and lam < -tol)
                    or (verdict == "Marginal" and abs(lam) > tol)):
                problems.append(f"{eq['label']}: verdict {verdict} but finite-difference "
                                f"Jacobian has max Re(eig) = {lam:.3g}")
        return problems


def _fd_max_real_eig(rhs, point):
    """Largest eigenvalue real part of a central-difference Jacobian of rhs,
    and the band around zero within which its sign is not decidable."""
    J = np.empty((3, 3))
    for col in range(3):
        h = 1e-6 * max(1.0, abs(point[col]))
        up, dn = point.copy(), point.copy()
        up[col] += h
        dn[col] -= h
        J[:, col] = (np.array(rhs(*up)) - np.array(rhs(*dn))) / (2.0 * h)
    lam = float(np.max(np.linalg.eigvals(J).real))
    return lam, 1e-5 * max(1.0, float(np.max(np.abs(J))))


WORKLOADS = {cls.name: cls for cls in (FitReadme, SimulateEnsemble, AnalyzeSweep)}
