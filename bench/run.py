"""End-to-end benchmark of the ppsdyn CLI pipelines: fit, simulate, analyze.

Usage, from the repository root:

    python3 bench/run.py --workload fit_readme --seed 1 --seconds 30 --trace 0

The benchmark drives ``ppsdyn.cli.main(argv)`` in-process, with its stdout and
stderr captured, on inputs generated from ``--seed``.  Load is a closed loop
with one client in one thread: the next command starts when the previous one
returns.  A pass runs every command of the workload once; passes repeat while
the next one is expected to end within ``--seconds``.  Every command's
outputs are checked, and the artifacts of each repeat of a command must be
byte-identical to its first run.

``--trace 0`` reports the end-to-end metrics:

- setup_s: median of seven fresh set-ups (interpreter start, numpy and
  ppsdyn import, input generation), spread over the run;
- pass_ref_s: one pass over the workload's inputs, as the sum over its
  commands of each command's median time;
- peak_rss_mb: peak resident memory of the benchmark process.

Both times are at the reference speed: each wall time is scaled
by REF_KERNEL_S over the time of a fixed pure-Python kernel run just before
and after it (see HostSpeed), because this shared host slows everything by
up to two thirds for tens of seconds at a time.  The summary lines before
the result give the raw wall times.  ``--trace 1`` runs every
command twice, untraced and then with spans and counters around each
layer's public functions (see tracing.py), and reports per-layer metrics and
the tracing overhead.  Work counters of two traced runs of one command must
repeat exactly.

The last line of stdout is the result as JSON; metadata, the figures behind
each metric and the spans go to ``.bench_run/<workload>/``.  Without
``src/ppsdyn`` beside this directory the benchmark exits with code 2.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy

from tracing import Tracer, check_nesting, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 7
# one reference-kernel call at full speed on the 2-core Xeon VM this
# benchmark was defined on; converts kernel units back to seconds
REF_KERNEL_S = 3.6e-3
PROBE_EVERY_S = 0.25
PROBE_CALLS = 5

E2E_UNITS = {
    "setup_s": "s",
    "pass_ref_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "model.rhs_evals": "count", "model.rhs_us": "us",
    "solver.integrations": "count", "solver.steps": "count", "solver.accept_ratio": "1",
    "solver.failed": "count", "solver.clamped": "count", "solver.busy_s": "s",
    "solver.us_per_step": "us",
    "pinn.train_s": "s", "pinn.loss_evals": "count", "pinn.loss_ms": "ms",
    "pinn.loss_finite_ratio": "1", "pinn.final_mse": "1", "pinn.ablation_s": "s",
    "pinn.ablation_mse": "1",
    "optimize.bfgs_s": "s", "optimize.iterations": "count", "optimize.gradient_evals": "count",
    "optimize.gradient_ms": "ms", "optimize.value_evals": "count",
    "optimize.ls_accept_ratio": "1",
    "equilibria.scans": "count", "equilibria.scan_ms": "ms", "equilibria.poly_ms": "ms",
    "equilibria.interior_unique": "count", "equilibria.interior_multiple": "count",
    "equilibria.interior_none": "count",
    "stability.classify_calls": "count", "stability.classify_us": "us",
    "data.load_ms": "ms", "data.synth_ms": "ms",
    "cli.self_ms": "ms", "cli.bytes_written": "bytes",
    "trace.overhead": "1",
}


def load_program():
    cli = importlib.import_module("ppsdyn.cli")
    prog = SimpleNamespace(cli=cli, **{m: importlib.import_module(f"ppsdyn.{m}")
                                       for m in ("model", "solver", "equilibria")})
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "ppsdyn":
        raise ImportError(f"ppsdyn imported from {cli.__file__}, not from {ROOT / 'src'}")
    return prog


def call_cli(prog, argv) -> int:
    """Exit code of one in-process CLI command, its stdout and stderr captured."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return prog.cli.main([str(a) for a in argv])


def percentile(values, q):
    """Nearest-rank percentile; 0 for no values."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)] if ordered else 0.0


def metadata(args) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "ppsdyn").glob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "commit": _commit(), "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu_model": cpu, "src_ppsdyn_lines": src_lines,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


class Runner:
    """Runs the commands of one workload and keeps every figure and problem."""

    def __init__(self, prog, workload, tracer):
        self.prog, self.workload, self.tracer = prog, workload, tracer
        self.attempted = self.failed = 0
        self.problems: list = []
        self.hashes: dict = {}
        self.verdicts: dict = {}
        self.counters: dict = {}
        self.deltas: dict = {}  # root span index -> counter increments of that command

    def run(self, op, traced=False):
        """Run op once; returns (seconds, root span index or None), seconds NaN on a crash."""
        self.attempted += 1
        root = None
        try:
            t0 = time.perf_counter()
            if traced:
                before, first = self.tracer.snapshot(), len(self.tracer.spans)
                self.tracer.install()
                try:
                    rc, root = self.tracer.root(call_cli, self.prog, op.argv)
                finally:
                    self.tracer.uninstall()
            else:
                rc = call_cli(self.prog, op.argv)
            secs = time.perf_counter() - t0
            problems = self._check(op, rc)
            if traced:
                self.deltas[root] = self.tracer.delta(before)
                problems += self._check_counters(op, self.tracer.command_counters(
                    first, self.deltas[root]))
        except Exception:  # a crash in one command is a failed operation, not a lost run
            secs, problems = math.nan, [traceback.format_exc()]
        if problems:
            self.failed += 1
            for problem in problems:
                self.problems.append(f"{op.key}: {problem}")
                print(f"FAILED {op.key}: {problem}", file=sys.stderr)
        return secs, root

    def _check(self, op, rc):
        digest = hashlib.sha256()
        for path in op.artifact_paths():
            digest.update(path.name.encode())
            digest.update(path.read_bytes() if path.exists() else b"<missing>")
        digest.update(str(rc).encode())
        first = self.hashes.setdefault(op.key, digest.hexdigest())
        if first != digest.hexdigest():
            return [f"artifacts differ from the first run of {op.key}"]
        if op.key not in self.verdicts:
            self.verdicts[op.key] = self.workload.check(self.prog, op, rc)
        # identical bytes to the first run share its verdict
        return list(self.verdicts[op.key])

    def _check_counters(self, op, counts):
        first = self.counters.setdefault(op.key, counts)
        if first != counts:
            diff = {k: (first.get(k), counts.get(k)) for k in set(first) | set(counts)
                    if first.get(k) != counts.get(k)}
            return [f"work counters of {op.key} changed between repeats: {diff}"]
        return []


def measure(args, runner, ops, setup, speed):
    """The timed loop; returns the untraced (seconds, host speed probe index)
    samples per command key, per-pass totals, (untraced, traced) pairs and
    the traced root spans."""
    traced = bool(args.trace)
    times = {op.key: [] for op in ops}
    pass_times, pairs, roots = [], [], []

    def untraced(op):
        if setup is not None:
            setup.due()
        if speed is not None:
            speed.due()
        secs, _ = runner.run(op)
        if not math.isnan(secs):
            times[op.key].append((secs, len(speed.samples) - 1 if speed else None))
        return secs

    t_loop = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        total = 0.0
        for op in ops:
            secs = untraced(op)
            total += 0.0 if math.isnan(secs) else secs
            if traced:
                secs_t, root = runner.run(op, traced=True)
                pairs.append((secs, secs_t))
                if root is not None:
                    roots.append((root, op))
        pass_times.append(total)
        elapsed = time.perf_counter() - t_loop
        if elapsed + (time.perf_counter() - t_pass) > args.seconds:
            break
    if len(pass_times) == 1:
        # the repeat that byte-identity and, when traced, exact counters need
        if traced:
            runner.run(ops[0], traced=True)
        else:
            untraced(ops[0])
    if speed is not None:
        speed.probe()
    while setup is not None and len(setup.times) < SETUP_REPS:
        setup.once()
    return times, pass_times, pairs, roots


def reference_kernel() -> float:
    """Fixed pure-Python float work shaped like one batch of RHS evaluations.

    It belongs to the benchmark, not to ppsdyn, so no change to the program
    moves its cost; only the speed of the host does.
    """
    x, y, z, acc = 1.1, 0.7, 0.3, 0.0
    for _ in range(20000):
        x2, z2 = x * x, z * z
        acc += 0.5 * x * (1.0 - x / 2.0) - x2 * y / (1.0 + 0.25 * x2) + z2 * y / (1.0 + 0.25 * z2)
        x, y, z = y, z, x
    return acc


class HostSpeed:
    """Times the reference kernel between commands, at most every PROBE_EVERY_S.

    This shared host runs the same command up to 1.7 times slower for tens
    of seconds at a time, so a 30-second run can fall wholly in a slow
    phase.  The kernel slows down with it: over such phases the ratio of a
    command's time to the adjacent kernel time stays within about one
    percent, while the raw times move by two thirds.
    """

    def __init__(self):
        self.samples: list = []  # seconds per kernel call, median of PROBE_CALLS
        self.last = -math.inf

    def due(self) -> None:
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.probe()

    def probe(self) -> None:
        calls = []
        for _ in range(PROBE_CALLS):
            t0 = time.perf_counter()
            reference_kernel()
            calls.append(time.perf_counter() - t0)
        self.samples.append(statistics.median(calls))
        self.last = time.perf_counter()

    def normalized(self, secs, idx) -> float:
        """secs at the reference speed, from the probes before and after the command."""
        ref = 0.5 * (self.samples[idx] + self.samples[min(idx + 1, len(self.samples) - 1)])
        return secs * REF_KERNEL_S / ref


class SetUp:
    """Times fresh set-ups: a new interpreter that imports numpy and ppsdyn and
    generates the workload's inputs (run.py --setup-only).  The repetitions
    are spread evenly over the run and scaled to the reference speed like
    the commands; raw keeps the wall times."""

    def __init__(self, args, speed):
        self.speed = speed
        self.raw: list = []
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
        if args.smoke:
            self.argv.append("--smoke")
        self.every = args.seconds / SETUP_REPS
        self.times: list = []
        self.last = -math.inf

    def due(self) -> None:
        if time.perf_counter() - self.last >= self.every and len(self.times) < SETUP_REPS:
            self.once()

    def once(self) -> None:
        self.speed.probe()
        t0 = time.perf_counter()
        subprocess.run(self.argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        self.last = time.perf_counter()
        self.raw.append(self.last - t0)
        self.times.append(self.speed.normalized(self.raw[-1], len(self.speed.samples) - 1))
        self.speed.probe()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimum input sizes, for the benchmark's own test")
    parser.add_argument("--setup-only", action="store_true", dest="setup_only",
                        help="generate the inputs and exit (one timed set-up)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ppsdyn" / "__init__.py").is_file():
        print(f"error: no ppsdyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".bench_run" / (args.workload + ("_setup" if args.setup_only else ""))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.smoke)
    prog = load_program()
    ops = workload.generate(ROOT, work, args.seed, lambda a: call_cli(prog, a))
    if args.setup_only:
        return 0

    tracer = Tracer()
    runner = Runner(prog, workload, tracer)
    if args.trace:
        # generate once more with the hooks on, for the data.synthesize spans
        def traced_cli(a):
            tracer.install()
            try:
                return tracer.root(call_cli, prog, a)[0]
            finally:
                tracer.uninstall()
        workload.generate(ROOT, work, args.seed, traced_cli)
        ops = ops[:getattr(workload, "traced_inputs", len(ops))]
    speed = None if args.trace else HostSpeed()
    setup = None if args.trace else SetUp(args, speed)
    times, pass_times, pairs, roots = measure(args, runner, ops, setup, speed)

    report = {"meta": metadata(args), "setup_raw": setup and setup.raw,
              "cmd_times": times, "pass_times": pass_times, "problems": runner.problems}
    if tracer.missing:
        print(f"trace: hooks not found: {sorted(set(tracer.missing))}", file=sys.stderr)
    if args.trace:
        values = traced_metrics(runner, workload, ops, pairs, roots)
        nesting = check_nesting(tracer.spans)
        if nesting:
            runner.failed += 1
            runner.problems += nesting
        units = LAYER_UNITS
        report["counters"] = {op.key: runner.counters[op.key] for op in ops
                              if op.key in runner.counters}
        report["hooks_missing"] = sorted(set(tracer.missing))
        with open(work / "spans.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "raised"],
                       "spans": tracer.spans}, fh)
    else:
        per_cmd = [statistics.median(speed.normalized(*sample) for sample in samples)
                   for samples in times.values() if samples]
        report["host_speed"] = speed.samples
        values = {
            "setup_s": statistics.median(setup.times),
            "pass_ref_s": sum(per_cmd),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
        print_summary(args, workload, ops, times, pass_times, setup.raw, runner)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    report["metrics"] = metrics
    with open(work / "result.json", "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps({"meta": report["meta"]}, sort_keys=True))
    print(json.dumps({"correct": not runner.problems, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def traced_metrics(runner, workload, ops, pairs, roots):
    tracer = runner.tracer
    counts: dict = {}
    bytes_written = 0
    for root, op in roots:
        for key, val in runner.deltas[root].items():
            counts[key] = counts.get(key, 0) + val
        bytes_written += sum(p.stat().st_size for p in op.artifact_paths() if p.exists())
    untraced = sum(u for u, t in pairs if not math.isnan(u + t))
    traced = sum(t for u, t in pairs if not math.isnan(u + t))
    extra = {
        "counts": counts,
        "rhs_us": tracer.rhs_us(),
        "bytes_written": bytes_written,
        "overhead": traced / untraced - 1.0 if untraced else 0.0,
        "final_mse": 0.0, "ablation_s": 0.0, "ablation_mse": 0.0,
    }
    mses = [op.info["final_mse"] for op in ops if math.isfinite(op.info.get("final_mse", math.nan))]
    if mses:
        extra["final_mse"] = statistics.median(mses)
    if hasattr(workload, "ablation"):
        abl = workload.ablation(ops[0])
        secs, _ = runner.run(abl)
        if math.isfinite(secs) and math.isfinite(abl.info.get("final_mse", math.nan)):
            extra["ablation_s"], extra["ablation_mse"] = secs, abl.info["final_mse"]
    return layer_metrics(tracer, [root for root, _ in roots], extra)


def print_summary(args, workload, ops, times, pass_times, setup_raw, runner):
    """Per-workload figures in raw wall time (fit_s, simulate_s, analyze_ms and
    its 90th percentile), with sample counts, and the failure rate."""
    samples = [secs for ts in times.values() for secs, _ in ts]
    n = len(samples)
    lines = [f"setup = {statistics.median(setup_raw):.4f} s raw (median of {len(setup_raw)} "
             f"fresh set-ups)",
             f"pass = {statistics.median(pass_times):.4f} s raw "
             f"(median of {len(pass_times)} passes of {len(ops)} commands)"]
    if args.workload == "fit_readme":
        mses = [op.info["final_mse"] for op in ops if "final_mse" in op.info]
        lines.append(f"fit_s = {statistics.median(samples):.4f} s (median, n={n})")
        if mses:
            lines.append(f"fit_mse = {statistics.median(mses):.6g} (median, n={len(mses)})")
    elif args.workload == "simulate_ensemble":
        lines.append(f"simulate_s = {statistics.median(pass_times):.4f} s "
                     f"(median set time, n={len(pass_times)})")
    else:
        p90 = percentile(samples, 90)
        beyond = sum(1 for t in samples if t > p90)
        flagged = sum(1 for op in ops if op.info.get("flagged"))
        lines.append(f"analyze_ms = {statistics.median(samples) * 1e3:.4f} ms (median, n={n})")
        lines.append(f"analyze_ms_p90 = {p90 * 1e3:.4f} ms ({beyond} samples above)")
        lines.append(f"multiple_roots flagged on {flagged} of {len(ops)} inputs")
    lines.append(f"fail_rate = {runner.failed / max(runner.attempted, 1):.4g} "
                 f"({runner.failed} of {runner.attempted})")
    for line in lines:
        print(line)


if __name__ == "__main__":
    sys.exit(main())
