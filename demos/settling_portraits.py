"""Forward runs of the four canonical parameter sets.

Integrates each fixture from its reference starting point and reports
whether the trajectory settles, collapses, or keeps oscillating. Plots go
to demos/output/ as standalone SVG files.

Run from the repository root:

    python3 demos/settling_portraits.py
"""

import os
from pathlib import Path

import numpy as np

from ppsdyn.cli import _timeseries_svg
from ppsdyn.model import ModelParams, State, Subsystem
from ppsdyn.solver import SolverConfig, detect_settling, integrate

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "demos" / "output"

RUNS = [
    ("predscav_collapse", State(0.0, 4.0, 6.0), Subsystem.PRED_SCAV, 200.0),
    ("predprey_coexist", State(2.0, 4.0, 0.0), Subsystem.PRED_PREY, 500.0),
    ("interior_unstable", State(4.0, 3.0, 2.0), Subsystem.FULL, 500.0),
    ("interior_stable", State(4.0, 3.0, 2.0), Subsystem.FULL, 200.0),
]


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for name, s0, subsystem, t_end in RUNS:
        p = ModelParams.load(ROOT / "fixtures" / f"{name}.params")
        subsystem.check_state(s0)
        traj = integrate(p, s0, SolverConfig(t_end=t_end))
        settled = detect_settling(traj, window=0.2 * t_end, tol=1e-2)
        final = traj.final_state
        print(f"{name:<20} t_end={t_end:<6g} "
              f"final=({final.x:.4g}, {final.y:.4g}, {final.z:.4g})")
        if settled is None:
            span = traj.states[traj.times >= t_end * 0.8]
            swing = span.max(axis=0) - span.min(axis=0)
            print(f"{'':20} no settling; late swing "
                  f"({swing[0]:.3g}, {swing[1]:.3g}, {swing[2]:.3g})")
        else:
            print(f"{'':20} settles near "
                  f"({settled.x:.4g}, {settled.y:.4g}, {settled.z:.4g})")
        path = OUT / f"{name}.svg"
        path.write_text(_timeseries_svg(traj.times, traj.states))
        print(f"{'':20} wrote {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    main()
