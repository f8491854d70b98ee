"""Benchmarks for the two optimizers on standard test problems.

Quadratic bowls with controlled spectra for both methods, plus the
Rosenbrock valley for the quasi-Newton path. Prints iteration counts and
final errors; writes the Rosenbrock loss history to demos/output/.

Run from the repository root:

    python3 demos/optimizer_showcase.py
"""

from pathlib import Path

import numpy as np

from ppsdyn.optimize import adam_run, bfgs_run, write_loss_csv

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "demos" / "output"


def rand_quad(rng, n, lo, hi):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = Q @ np.diag(rng.uniform(lo, hi, n)) @ Q.T
    c = rng.uniform(-1.0, 1.0, n)

    def fun(x):
        return float(0.5 * (x - c) @ A @ (x - c)), A @ (x - c)
    return fun, c


def main():
    OUT.mkdir(parents=True, exist_ok=True)

    print("quasi-Newton on 10-dimensional quadratics (spectrum in [1, 10]):")
    for s in range(5):
        rng = np.random.default_rng(2000 + s)
        fun, c = rand_quad(rng, 10, 1.0, 10.0)
        x, hist = bfgs_run(fun, rng.uniform(-2.0, 2.0, 10))
        err = float(np.linalg.norm(x - c))
        print(f"  seed {2000 + s}: {len(hist) - 1:>3} iterations,"
              f" final error {err:.2e}")

    def rosen(x):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2), np.array([
            -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
            200.0 * (x[1] - x[0] ** 2),
        ])

    x, hist = bfgs_run(rosen, np.array([-1.2, 1.0]))
    print(f"\nRosenbrock from (-1.2, 1): {len(hist) - 1} iterations to"
          f" ({x[0]:.6f}, {x[1]:.6f})")
    write_loss_csv(hist, OUT / "rosenbrock_loss.csv")
    print(f"  loss history in {OUT.relative_to(ROOT)}/rosenbrock_loss.csv")

    print("\nAdam on 14-dimensional quadratics (spectrum in [0.5, 3]):")
    for s in range(3):
        rng = np.random.default_rng(1000 + s)
        fun, c = rand_quad(rng, 14, 0.5, 3.0)
        theta, hist = adam_run(fun, rng.uniform(-2.0, 2.0, 14), alpha=0.05, num_steps=500)
        err = float(np.linalg.norm(theta - c))
        print(f"  seed {1000 + s}: loss {hist[0]:.3f} -> {hist[-1]:.2e},"
              f" distance to optimum {err:.3f}")


if __name__ == "__main__":
    main()
