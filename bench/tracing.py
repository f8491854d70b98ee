"""In-memory spans and counters around the public functions of each ppsdyn layer.

The tracer patches functions from outside the package, under the name each
caller looks up: ``from .solver import integrate`` binds ``integrate`` into
the importing module at import time, so ``ppsdyn.pinn.integrate``,
``ppsdyn.cli.integrate`` and ``ppsdyn.data.integrate`` are wrapped one by one
rather than only ``ppsdyn.solver.integrate``.  Nothing under ``src/`` knows
about tracing.

A span is ``[name, start, end, parent, status]``: perf-counter seconds, the
index of the enclosing span (-1 for a root) and the name of the exception
that left the call, or None.  RHS closure calls are far too frequent for
spans; they are counted, and every ``stride``-th state is kept so the bare
closure can be timed afterwards over states the workload visited.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from collections import Counter

# (module, attribute, span name); attributes with a dot are class members
HOOKS = (
    ("ppsdyn.cli", "integrate", "solver.integrate"),
    ("ppsdyn.cli", "run_estimate", "pinn.estimate"),
    ("ppsdyn.cli", "all_equilibria", "equilibria.all_equilibria"),
    ("ppsdyn.cli", "interior_poly_crosscheck", "equilibria.interior_poly_crosscheck"),
    ("ppsdyn.cli", "classify", "stability.classify"),
    ("ppsdyn.cli", "synthesize", "data.synthesize"),
    ("ppsdyn.cli", "ingest", "data.ingest"),
    ("ppsdyn.data", "integrate", "solver.integrate"),
    ("ppsdyn.data", "Dataset.from_csv", "data.load"),
    ("ppsdyn.model", "ModelParams.load", "data.load"),
    ("ppsdyn.pinn", "integrate", "solver.integrate"),
    ("ppsdyn.pinn", "train_pinn", "pinn.train_pinn"),
    ("ppsdyn.pinn", "total_loss", "pinn.total_loss"),
    ("ppsdyn.pinn", "bfgs_run", "optimize.bfgs_run"),
    ("ppsdyn.optimize", "_line_search", "optimize.line_search"),
    ("ppsdyn.optimize", "Objective.value", "optimize.value"),
    ("ppsdyn.optimize", "Objective.gradient", "optimize.gradient"),
    ("ppsdyn.equilibria", "interior_equilibrium_direct", "equilibria.scan"),
    ("ppsdyn.equilibria", "interior_poly_coeffs", "equilibria.poly"),
    ("ppsdyn.equilibria", "positive_real_roots", "equilibria.poly"),
)
# factories whose closures are counted rather than spanned
RHS_HOOKS = (("ppsdyn.solver", "make_rhs"), ("ppsdyn.pinn", "make_rhs"))

SAMPLE_CAP = 4096
ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.rhs_calls = [0]
        self.rhs_samples: list = []
        self._stride = [1024]
        self._stack: list = []
        self._patches: list = []
        self.missing: list = []

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        """Replace every hooked attribute by its wrapper; missing ones are
        reported, so a renamed function costs a metric, not the run."""
        if self._patches:
            return
        self.missing = []
        for modname, attr, span in HOOKS:
            self._patch(modname, attr, lambda fn, span=span: self._spanned(span, fn))
        for modname, attr in RHS_HOOKS:
            self._patch(modname, attr, self._counted_factory)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, modname, attr, make_wrapper) -> None:
        module = sys.modules.get(modname)
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or member not in vars(owner):
            self.missing.append(f"{modname}.{attr}")
            return
        original = vars(owner)[member]
        if isinstance(original, classmethod):
            wrapped = classmethod(make_wrapper(original.__func__))
        else:
            wrapped = make_wrapper(original)
        self._patches.append((owner, member, original))
        setattr(owner, member, wrapped)

    def _spanned(self, name, fn):
        spans, stack, on_return = self.spans, self._stack, self._ON_RETURN.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return wrapper

    def _counted_factory(self, factory):
        calls, samples, stride = self.rhs_calls, self.rhs_samples, self._stride

        @functools.wraps(factory)
        def make(*args, **kwargs):
            fn = factory(*args, **kwargs)

            def counted(x, y, z):
                calls[0] += 1
                if calls[0] % stride[0] == 0:
                    samples.append((fn, x, y, z))
                    if len(samples) >= SAMPLE_CAP:
                        # keep the sample spread over the whole run
                        del samples[1::2]
                        stride[0] *= 2
                return fn(x, y, z)

            return counted

        return make

    # per-span bookkeeping of returned values
    def _after_integrate(self, args, kwargs, traj):
        diag = traj.diagnostics
        self.counts["solver.steps"] += diag.steps
        self.counts["solver.clamped"] += diag.clamped
        t_eval = kwargs.get("t_eval", args[4] if len(args) > 4 else None)
        if t_eval is None:
            # every accepted step is a row of a record-all trajectory
            self.counts["solver.recorded_accepted"] += len(traj.times) - 1
            self.counts["solver.recorded_steps"] += diag.steps

    def _after_total_loss(self, args, kwargs, result):
        if math.isfinite(result[0]):
            self.counts["pinn.loss_finite"] += 1

    def _after_line_search(self, args, kwargs, result):
        if result is not None:
            self.counts["optimize.ls_accepted"] += 1

    _ON_RETURN = {
        "solver.integrate": _after_integrate,
        "pinn.total_loss": _after_total_loss,
        "optimize.line_search": _after_line_search,
    }

    # ------------------------------------------------------------ recording

    def root(self, fn, *args):
        """Run fn(*args) under a root span named cli.main; returns (result, span index)."""
        idx = len(self.spans)
        return self._spanned(ROOT, fn)(*args), idx

    def snapshot(self) -> dict:
        snap = dict(self.counts)
        snap["model.rhs_evals"] = self.rhs_calls[0]
        return snap

    def delta(self, before: dict) -> dict:
        """Counter increments since the snapshot before."""
        return {key: val - before.get(key, 0)
                for key, val in self.snapshot().items() if val != before.get(key, 0)}

    def command_counters(self, first: int, delta: dict) -> dict:
        """Deterministic work counters of one command: calls per span name,
        exits by exception per span name, and the counter delta."""
        out = Counter(span[0] for span in self.spans[first:])
        out.update(f"{span[0]}!{span[4]}" for span in self.spans[first:] if span[4])
        out.update(delta)
        return dict(sorted(out.items()))

    def rhs_us(self, reps: int = 5) -> float:
        """Median over reps of the mean time of one bare closure call, over the sampled states."""
        samples = self.rhs_samples
        if not samples:
            return 0.0
        inner = max(1, 100_000 // len(samples))
        per_call = []
        for _ in range(reps):
            t0 = time.perf_counter()
            for _ in range(inner):
                for fn, x, y, z in samples:
                    fn(x, y, z)
            per_call.append((time.perf_counter() - t0) / (inner * len(samples)))
        return statistics.median(per_call) * 1e6


def check_nesting(spans) -> list:
    """Problems where a child span does not lie inside its parent."""
    bad = []
    for idx, (name, start, end, parent, _) in enumerate(spans):
        if end < start:
            bad.append(f"span {idx} {name} ends before it starts")
        if parent >= 0:
            pname, pstart, pend = spans[parent][:3]
            if parent >= idx or start < pstart or end > pend:
                bad.append(f"span {idx} {name} lies outside its parent {parent} {pname}")
    return bad


def layer_metrics(tracer: Tracer, roots: list, extra: dict) -> dict:
    """Per-layer numbers over the traced workload commands whose root spans are roots.

    Counts and busy times are per command; *_ms and *_us figures are per call
    of that layer.  A layer the workload never calls reads 0.
    """
    spans = tracer.spans
    root_set = set(roots)
    n_cmd = max(len(roots), 1)
    # map every span to its root command, so setup and ablation spans are left out
    owner = {}
    for idx, span in enumerate(spans):
        parent = span[3]
        owner[idx] = idx if parent < 0 else owner[parent]
    by_name: dict = {}
    child_time = Counter()
    for idx, span in enumerate(spans):
        if owner[idx] not in root_set:
            continue
        by_name.setdefault(span[0], []).append(span)
        if span[3] in root_set:
            child_time[span[3]] += span[2] - span[1]

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(s[2] - s[1] for s in by_name.get(name, ()))

    def per_call(name, scale):
        n = calls(name)
        return busy(name) / n * scale if n else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    c = extra["counts"]
    # synthesis runs while the inputs are generated, outside the workload commands
    synth = [s for s in spans if s[0] == "data.synthesize"]
    ls_values = sum(1 for s in by_name.get("optimize.value", ())
                    if s[3] >= 0 and spans[s[3]][0] == "optimize.line_search")
    scans_in_all = [s for s in by_name.get("equilibria.scan", ())
                    if s[3] >= 0 and spans[s[3]][0] == "equilibria.all_equilibria"]
    n_analyze = calls("equilibria.all_equilibria")
    n_cross = calls("equilibria.interior_poly_crosscheck")
    ok_steps = c.get("solver.steps", 0)
    ok_busy = sum(s[2] - s[1] for s in by_name.get("solver.integrate", ()) if s[4] is None)
    self_s = sum(spans[r][2] - spans[r][1] - child_time[r] for r in roots)
    return {
        "model.rhs_evals": c.get("model.rhs_evals", 0) / n_cmd,
        "model.rhs_us": extra["rhs_us"],
        "solver.integrations": calls("solver.integrate") / n_cmd,
        "solver.steps": ok_steps / n_cmd,
        "solver.accept_ratio": ratio(c.get("solver.recorded_accepted", 0),
                                     c.get("solver.recorded_steps", 0)),
        "solver.failed": sum(1 for s in by_name.get("solver.integrate", ()) if s[4]) / n_cmd,
        "solver.clamped": c.get("solver.clamped", 0) / n_cmd,
        "solver.busy_s": busy("solver.integrate") / n_cmd,
        "solver.us_per_step": ratio(ok_busy, ok_steps) * 1e6,
        "pinn.train_s": busy("pinn.train_pinn") / n_cmd,
        "pinn.loss_evals": calls("pinn.total_loss") / n_cmd,
        "pinn.loss_ms": per_call("pinn.total_loss", 1e3),
        "pinn.loss_finite_ratio": ratio(c.get("pinn.loss_finite", 0), calls("pinn.total_loss")),
        "pinn.final_mse": extra["final_mse"],
        "pinn.ablation_s": extra["ablation_s"],
        "pinn.ablation_mse": extra["ablation_mse"],
        "optimize.bfgs_s": busy("optimize.bfgs_run") / n_cmd,
        "optimize.iterations": c.get("optimize.ls_accepted", 0) / n_cmd,
        "optimize.gradient_evals": calls("optimize.gradient") / n_cmd,
        "optimize.gradient_ms": per_call("optimize.gradient", 1e3),
        "optimize.value_evals": ls_values / n_cmd,
        "optimize.ls_accept_ratio": ratio(c.get("optimize.ls_accepted", 0), ls_values),
        "equilibria.scans": ratio(calls("equilibria.scan"), n_analyze),
        "equilibria.scan_ms": per_call("equilibria.scan", 1e3),
        "equilibria.poly_ms": ratio(busy("equilibria.poly"), n_cross) * 1e3,
        "equilibria.interior_unique": sum(1 for s in scans_in_all if s[4] is None) / n_cmd,
        "equilibria.interior_multiple": sum(1 for s in scans_in_all if s[4] == "MultipleRoots") / n_cmd,
        "equilibria.interior_none": sum(1 for s in scans_in_all if s[4] == "NoRoot") / n_cmd,
        "stability.classify_calls": calls("stability.classify") / n_cmd,
        "stability.classify_us": per_call("stability.classify", 1e6),
        "data.load_ms": per_call("data.load", 1e3),
        "data.synth_ms": ratio(sum(s[2] - s[1] for s in synth), len(synth)) * 1e3,
        "cli.self_ms": self_s / n_cmd * 1e3,
        "cli.bytes_written": extra["bytes_written"] / n_cmd,
        "trace.overhead": extra["overhead"],
    }
