"""Command-line front end: simulate, analyze, estimate, synth.

Every command writes byte-reproducible artifacts (no timestamps, fixed float
formatting) so reruns with identical inputs produce identical files.  A
rerun into the same --out rewrites each artifact in place (_files.rewrite),
with the same bytes as a fresh run unless it is killed while it writes; a
run that writes nothing under one of its command's ARTIFACTS, because it
failed numerically or skipped its plot, removes any file of that name in
--out, so no earlier run's artifact stays.  A usage or input error (exit 1)
removes nothing, as under the default --out . those files may be the user's
own; a failed write (OSError) leaves what the run wrote before it.  Every
JSON artifact is data.json_text plus a newline: the text of json.dumps(obj,
sort_keys=True, indent=2), sorted keys and all, byte for byte.  Exit codes:
0 success, 1 usage or input error, 2 numerical failure.

The argument parser is built once per process (build_parser is cached) and
reused by every main(argv) call; each call still parses into a fresh
namespace, so in-process callers pay for argparse's set-up only once.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

import numpy as np

from ._files import discard, rewrite
from .data import GROUPS, Dataset, SpeciesMap, ingest, json_text, provenance_path, synthesize
from .equilibria import LABEL_INTERIOR, all_equilibria, interior_poly_crosscheck
from .errors import IntegrationFailed, LineSearchFailed, NonFiniteLoss
from .model import SUBSYSTEMS, ModelParams, State, Subsystem
from .pinn import estimate as run_estimate, simulate_on_data
from .solver import METHODS, SolverConfig, integrate
from .stability import classify

# every rejected input is a ValueError, the package's input errors included
_USAGE_ERRORS = (ValueError, OSError)
_NUMERICAL_ERRORS = (IntegrationFailed, NonFiniteLoss, LineSearchFailed)

# an argument that starts with a minus and a digit is a value, such as the
# start "-0,4,6", not an option; argparse's own test takes only a plain
# negative number, and would leave --s0 without its value
_NEGATIVE_VALUE = re.compile(r"^-\.?\d")

# each command's files in --out, in the order its _artifacts paths come
ARTIFACTS = {
    "simulate": ("trajectory.csv", "timeseries.svg", "phase.svg"),
    "analyze": ("equilibria.json",),
    "estimate": ("report.json", "trace.csv", "fit.svg"),
    "synth": ("dataset.csv", provenance_path("dataset.csv")),
}

_COLORS = ("#1f77b4", "#d62728", "#2ca02c")
_MAX_PLOT_POINTS = 1200


# ---------------------------------------------------------------- plotting

def _svg_document(width, height, body) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">\n'
        '<rect width="100%" height="100%" fill="white"/>\n'
        f"{body}</svg>\n"
    )


def _thin(arr):
    """Every stride-th point, and the last one, so at most _MAX_PLOT_POINTS + 1."""
    arr = np.asarray(arr)
    n = len(arr)
    if n <= _MAX_PLOT_POINTS:
        return arr
    stride = -(-n // _MAX_PLOT_POINTS)
    if (n - 1) % stride:
        return np.concatenate((arr[::stride], arr[-1:]))
    return arr[::stride]


def _panel(curves, left, top, width, height, title, xlabel, ylabel) -> str:
    """One framed plot; curves are (label, color, dash, xs, ys) tuples."""
    xs_all = np.concatenate([c[3] for c in curves])
    ys_all = np.concatenate([c[4] for c in curves])
    x0, x1 = float(xs_all.min()), float(xs_all.max())
    y0, y1 = float(ys_all.min()), float(ys_all.max())
    if x1 - x0 <= 0:
        x1 = x0 + 1.0
    if y1 - y0 <= 0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    parts = [
        f'<rect x="{left}" y="{top}" width="{width}" height="{height}" '
        'fill="none" stroke="#888"/>',
        f'<text x="{left + width / 2:.1f}" y="{top - 8}" text-anchor="middle">{title}</text>',
        f'<text x="{left + width / 2:.1f}" y="{top + height + 28}" text-anchor="middle">{xlabel}</text>',
        f'<text x="{left - 8}" y="{top - 8}" text-anchor="start">{ylabel}</text>',
        f'<text x="{left}" y="{top + height + 14}" text-anchor="middle">{x0:.3g}</text>',
        f'<text x="{left + width}" y="{top + height + 14}" text-anchor="middle">{x1:.3g}</text>',
        f'<text x="{left - 4}" y="{top + height:.1f}" text-anchor="end">{y0:.3g}</text>',
        f'<text x="{left - 4}" y="{top + 10}" text-anchor="end">{y1:.3g}</text>',
    ]
    for li, (label, color, dash, xs, ys) in enumerate(curves):
        # whole-array pixel maps, the same IEEE operations in the same order
        # as one point at a time; tolist() gives floats that format fast
        px = (left + (xs - x0) / (x1 - x0) * width).tolist()
        py = (top + height - (ys - y0) / (y1 - y0) * height).tolist()
        pts = " ".join([f"{x:.2f},{y:.2f}" for x, y in zip(px, py)])
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash_attr} points="{pts}"/>'
        )
        lx = left + width - 150
        ly = top + 14 + 14 * li
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" stroke="{color}"{dash_attr} stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 24}" y="{ly}">{label}</text>')
    return "\n".join(parts) + "\n"


def _timeseries_svg(times, states) -> str:
    times = _thin(times)
    curves = [
        (name, color, None, times, _thin(states[:, idx]))
        for idx, (name, color) in enumerate(zip(GROUPS, _COLORS))
    ]
    body = _panel(curves, 60, 30, 540, 300, "populations over time", "t", "population")
    return _svg_document(660, 380, body)


def _phase_svg(states) -> str:
    x = _thin(states[:, 0])
    y = _thin(states[:, 1])
    z = _thin(states[:, 2])
    left = _panel([("orbit", "#1f77b4", None, x, y)], 60, 30, 280, 280,
                  "prey vs predator", "prey", "predator")
    right = _panel([("orbit", "#2ca02c", None, x, z)], 420, 30, 280, 280,
                   "prey vs scavenger", "prey", "scavenger")
    return _svg_document(760, 370, left + right)


def _fit_svg(ds: Dataset, fitted_times, fitted_states) -> str:
    curves = []
    for idx, (name, color) in enumerate(zip(GROUPS, _COLORS)):
        curves.append((f"{name} data", color, "4 3", ds.times, ds.observations[:, idx]))
        curves.append((f"{name} fit", color, None, _thin(fitted_times), _thin(fitted_states[:, idx])))
    body = _panel(curves, 60, 30, 540, 300, "observed vs fitted (normalized)",
                  "normalized time", "normalized population")
    return _svg_document(660, 380, body)


# ---------------------------------------------------------------- helpers

def _parse_state(text) -> State:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"--s0 expects 'x,y,z', got {text!r}")
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"--s0 expects three numbers, got {text!r}") from None
    return State(*vals)


def _paths(args) -> list:
    """The paths of the command's ARTIFACTS in --out."""
    return [os.path.join(args.out, name) for name in ARTIFACTS[args.command]]


def _artifacts(args) -> list:
    """_paths(args), with --out made if missing."""
    os.makedirs(args.out, exist_ok=True)
    return _paths(args)


def _write(path, text) -> None:
    with rewrite(path) as fh:
        fh.write(text)
    print(f"wrote {path}")


# ---------------------------------------------------------------- commands

def cmd_simulate(args) -> int:
    p = ModelParams.load(args.params)
    s0 = _parse_state(args.s0)
    cfg = SolverConfig(
        t_end=args.t_end,
        method=args.method,
        step=args.step,
        tol=args.tol,
        negativity_policy="clamp" if args.clamp else "diagnose",
    )
    Subsystem.parse(args.subsystem).check_state(s0)
    traj = integrate(p, s0, cfg)
    csv_path, series_path, phase_path = _artifacts(args)
    traj.to_csv(csv_path)
    print(f"wrote {csv_path}")
    states = np.asarray(traj.states)
    _write(series_path, _timeseries_svg(np.asarray(traj.times), states))
    _write(phase_path, _phase_svg(states))
    fin = traj.final_state
    print(
        f"final state t={fin.t:g}: x={fin.x:.6g} y={fin.y:.6g} z={fin.z:.6g} "
        f"({traj.diagnostics.steps} steps, min component {traj.diagnostics.min_component:.3g})"
    )
    return 0


def cmd_analyze(args) -> int:
    p = ModelParams.load(args.params)
    points = all_equilibria(p)
    entries = []
    flagged = False
    print(f"{'label':10s} {'point':-^42s} {'exists':6s} verdict")
    for eq in points:
        rec = eq.record()
        if eq.flag == "multiple_roots":
            flagged = True
        if eq.exists:
            verdict = classify(p, eq)
            rec["stability"] = verdict.record()
            shown = verdict.classification
        else:
            rec["stability"] = None
            shown = "-"
        pt = "-" if eq.point is None else "(" + ", ".join(f"{v:.6g}" for v in eq.point) + ")"
        print(f"{eq.label:10s} {pt:42s} {str(eq.exists):6s} {shown}")
        for chk in eq.existence:
            print(f"{'':10s}   exists: {chk.name} = {chk.value:.6g} -> {chk.satisfied}")
        if rec["stability"]:
            for chk in rec["stability"]["criteria"]:
                print(f"{'':10s}   stable: {chk['name']} = {chk['value']:.6g} -> {chk['satisfied']}")
            for note in rec["stability"]["notes"]:
                print(f"{'':10s}   note: {note}")
        entries.append(rec)
    # the entry is missing only if it merged with a boundary point; the
    # cross-check then solves for it again
    interior = next((eq for eq in points if eq.label == LABEL_INTERIOR), None)
    check = interior_poly_crosscheck(p, interior)
    report = {"parameters": p.to_dict(), "equilibria": entries, "interior_crosscheck": check}
    (report_path,) = _artifacts(args)
    _write(report_path, json_text(report) + "\n")
    if not check["agrees"]:
        print(f"interior cross-check: the grid scan counts {check['scan_sign_changes']} sign"
              f" changes for {len(check['admissible_roots'])} admissible roots; see report",
              file=sys.stderr)
    if flagged:
        print("interior solve found multiple roots; see report", file=sys.stderr)
        return 2
    return 0


def _check_seed(args) -> None:
    if args.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {args.seed}")


def cmd_estimate(args) -> int:
    _check_seed(args)
    if args.epochs < 0:
        raise ValueError(f"--epochs must be at least 0, got {args.epochs}")
    if args.bfgs_iterations < 1:
        raise ValueError(f"--bfgs-iterations must be at least 1, got {args.bfgs_iterations}")
    if args.species_map:
        smap = SpeciesMap.load(args.species_map)
        ds = ingest(args.dataset, smap)
    else:
        ds = Dataset.from_csv(args.dataset)
    report = run_estimate(ds, args.seed, epochs=args.epochs, bfgs_iterations=args.bfgs_iterations)
    report_path, trace_path, plot_path = _artifacts(args)
    _write(report_path, report.to_json())
    report.write_trace_csv(trace_path)
    print(f"wrote {trace_path}")
    plot = None
    if math.isfinite(report.final_mse):
        raw = ds.raw_times
        dense = np.linspace(raw[0], raw[-1], 201)
        try:
            traj, sn = simulate_on_data(ModelParams.from_array(report.final_params), ds, dense, 1e-9)
        except IntegrationFailed:
            pass  # the report stands without the plot
        else:
            plot = _fit_svg(ds, (traj.times - raw[0]) / (raw[-1] - raw[0]), sn)
    if plot is None:
        discard([plot_path])
    else:
        _write(plot_path, plot)
    print(
        f"seed {report.seed}: post-network MSE {report.post_nn_mse:.6g}, "
        f"final MSE {report.final_mse:.6g}, final PIE {report.final_pie:.6g}"
    )
    for err in report.stage_errors:
        print(f"stage error: {err}", file=sys.stderr)
    if not math.isfinite(report.final_mse):
        return 2
    return 0


def cmd_synth(args) -> int:
    _check_seed(args)
    p = ModelParams.load(args.params)
    s0 = _parse_state(args.s0)
    grid = np.linspace(args.t_start, args.t_end, args.points)
    ds = synthesize(p, s0, grid, noise_sigma=args.noise, seed=args.seed)
    csv_path, _ = _artifacts(args)
    ds.to_csv(csv_path)
    print(f"wrote {csv_path}")
    print(f"{ds.sample_count} rows on t in [{args.t_start:g}, {args.t_end:g}], noise sigma {args.noise:g}")
    return 0


# ---------------------------------------------------------------- wiring

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: every caller gets the same object, so
    none may change it."""
    parser = argparse.ArgumentParser(
        prog="ppsdyn",
        description="predator-prey-scavenger dynamics: simulation, equilibria, estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate the system and plot the trajectory")
    sim.add_argument("--params", required=True, help="parameter file (key = value lines)")
    sim.add_argument("--s0", required=True, help="initial state as 'x,y,z'")
    sim.add_argument("--subsystem", default="full", choices=sorted(SUBSYSTEMS))
    sim.add_argument("--t-end", type=float, default=200.0, dest="t_end")
    sim.add_argument("--method", default="rk45", choices=METHODS)
    sim.add_argument("--step", type=float, default=None,
                     help="fixed step of rk4, which needs it; rk45's first trial step")
    sim.add_argument("--tol", type=float, default=1e-9, help="absolute and relative tolerance")
    sim.add_argument("--clamp", action="store_true",
                     help="clamp negative components to zero instead of recording them")
    sim.add_argument("--out", default=".", help="output directory")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="enumerate steady states and classify stability")
    ana.add_argument("--params", required=True)
    ana.add_argument("--out", default=".")
    ana.set_defaults(func=cmd_analyze)

    est = sub.add_parser("estimate", help="fit parameters to a dataset")
    est.add_argument("--dataset", required=True,
                     help="normalized dataset CSV (with .provenance.json sidecar), "
                          "or a raw species CSV when --species-map is given")
    est.add_argument("--species-map", default=None, dest="species_map",
                     help="JSON file mapping species columns to prey/predator/scavenger")
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--epochs", type=int, default=100)
    est.add_argument("--bfgs-iterations", type=int, default=200, dest="bfgs_iterations")
    est.add_argument("--out", default=".")
    est.set_defaults(func=cmd_estimate)

    syn = sub.add_parser("synth", help="generate a synthetic dataset")
    syn.add_argument("--params", required=True)
    syn.add_argument("--s0", required=True)
    syn.add_argument("--t-start", type=float, default=0.0, dest="t_start")
    syn.add_argument("--t-end", type=float, required=True, dest="t_end")
    syn.add_argument("--points", type=int, default=40)
    syn.add_argument("--noise", type=float, default=0.0)
    syn.add_argument("--seed", type=int, default=0)
    syn.add_argument("--out", default=".")
    syn.set_defaults(func=cmd_synth)
    sim._negative_number_matcher = syn._negative_number_matcher = _NEGATIVE_VALUE
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        try:
            return args.func(args)
        except _NUMERICAL_ERRORS as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            # an artifact that cannot be removed is reported below, exit 1
            discard(_paths(args))
            return 2
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
