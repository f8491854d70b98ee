"""Equilibrium atlas for every shipped parameter fixture.

For each fixture this enumerates the candidate equilibria, prints where
they sit, whether they exist, and the verdict of the stability analysis,
then shows how the grid scan's sign-change count cross-checks the
admissible polynomial roots that give the interior point.

Run from the repository root:

    python3 demos/equilibrium_atlas.py
"""

from pathlib import Path

from ppsdyn.equilibria import all_equilibria, interior_poly_crosscheck
from ppsdyn.model import ModelParams
from ppsdyn.stability import classify

ROOT = Path(__file__).resolve().parents[1]


def describe(p: ModelParams) -> None:
    for eq in all_equilibria(p):
        if eq.flag:
            roots = ", ".join(f"{r:.6g}" for r in eq.aux.get("roots", []))
            print(f"  {eq.label:<10} flagged {eq.flag} (roots: {roots})")
            continue
        if not eq.exists:
            failed = [c.name for c in eq.existence if not c.satisfied]
            why = f" (fails: {'; '.join(failed)})" if failed else ""
            print(f"  {eq.label:<10} does not exist{why}")
            continue
        verdict = classify(p, eq)
        x, y, z = eq.point
        print(f"  {eq.label:<10} ({x:.6g}, {y:.6g}, {z:.6g})"
              f"  {verdict.classification}")


def main():
    for path in sorted((ROOT / "fixtures").glob("*.params")):
        p = ModelParams.load(path)
        print(f"{path.name}")
        describe(p)
        check = interior_poly_crosscheck(p)
        word = "agrees" if check["agrees"] else "DISAGREES"
        roots = ", ".join(f"{r:.6g}" for r in check["admissible_roots"]) or "none"
        print(f"  crosscheck: grid scan {word}: {check['scan_sign_changes']} sign"
              f" changes, admissible polynomial roots: {roots}")
        print()


if __name__ == "__main__":
    main()
