"""Steady states of the full system and its three two-species subsystems.

Candidate list for the full system: the origin, the prey-only point (k,0,0),
one boundary point per subsystem (prey absent / scavenger absent / predator
absent), and the interior coexistence point.  Nonexistence is a finding, not
a failure: every candidate is returned together with its named existence
checks and their numeric values.

The scavenger-prey pair is the predator-prey pair with (g, b, b0, j) in
place of (d, a, a0, e); one routine builds both from the PREY_CONSUMERS table.

The interior point has one authoritative route: the positive real roots in
(0, k) of a degree-12 polynomial that interior_poly_coeffs derives from the
model equations by eliminating y and z, kept where the y and z they imply
are positive and the prey residual vanishes, each then polished by one
secant step on that residual.  A 4,096-point grid scan of
that residual counts its sign changes and cross-checks the count; it never
supplies a point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np
from numpy.polynomial.polynomial import polyroots

from .errors import NumericalOverflow
from .model import ModelParams, Subsystem

MERGE_TOL = 1e-9

LABEL_ORIGIN = "Origin"
LABEL_PREY_ONLY = "PreyOnly"
LABEL_PRED_SCAV = "PredScav"
LABEL_PRED_PREY = "PredPrey"
LABEL_SCAV_PREY = "ScavPrey"
LABEL_INTERIOR = "Interior"


class ExistenceCheck(NamedTuple):
    name: str
    satisfied: bool
    value: float


@dataclass
class Equilibrium:
    """A candidate steady state.

    point is None when the existence conditions fail and no meaningful
    coordinates can be computed.  aux carries auxiliary solve quantities
    (x0/z0 and the interior existence bounds).  flag marks degenerate
    outcomes such as a non-unique interior root.
    """

    label: str
    subsystem: Subsystem
    point: Optional[tuple]
    existence: list = field(default_factory=list)
    aux: dict = field(default_factory=dict)
    flag: Optional[str] = None

    @property
    def exists(self) -> bool:
        return self.point is not None

    def record(self) -> dict:
        """Plain-dict form for JSON reports; stability verdict attached by the caller."""
        return {
            "label": self.label,
            "subsystem": self.subsystem.name,
            "point": list(self.point) if self.point is not None else None,
            "exists": self.exists,
            "existence": [c._asdict() for c in self.existence],
            "aux": dict(self.aux),
            "flag": self.flag,
        }


class PreyConsumer(NamedTuple):
    """The label of a consumer's coexistence point with the prey, the names of
    its (conversion, attack, handling, death) parameters, and its index in (x, y, z)."""

    label: str
    params: tuple
    index: int


PREY_CONSUMERS = {
    Subsystem.PRED_PREY: PreyConsumer(LABEL_PRED_PREY, ("d", "a", "a0", "e"), 1),
    Subsystem.SCAV_PREY: PreyConsumer(LABEL_SCAV_PREY, ("g", "b", "b0", "j"), 2),
}


def _origin(sub: Subsystem) -> Equilibrium:
    return Equilibrium(LABEL_ORIGIN, sub, (0.0, 0.0, 0.0))


def _prey_only(p: ModelParams, sub: Subsystem) -> Equilibrium:
    return Equilibrium(LABEL_PREY_ONLY, sub, (p.k, 0.0, 0.0))


def predscav_equilibria(p: ModelParams) -> list:
    """Steady states with the prey absent: (0,0) and the predator-scavenger point.

    The coexistence point solves f z^2/(1+i0 z^2) = e for z, then reads y off
    the z-equation; it requires f - i0*e > 0 (real z0) and h*f*z0 - i*e > 0
    (positive y).  Points are reported in (x, y, z) order.
    """
    out = [_origin(Subsystem.PRED_SCAV)]
    c1 = p.f - p.i0 * p.e
    checks = [ExistenceCheck("f - i0*e > 0", c1 > 0, c1)]
    aux = {}
    point = None
    if c1 > 0:
        z0 = math.sqrt(p.e / c1)
        aux["z0"] = z0
        c2 = p.h * p.f * z0 - p.i * p.e
        checks.append(ExistenceCheck("h*f*z0 - i*e > 0", c2 > 0, c2))
        if c2 > 0:
            point = (0.0, p.f * p.j * z0 / c2, z0)
    out.append(Equilibrium(LABEL_PRED_SCAV, Subsystem.PRED_SCAV, point, checks, aux))
    return out


def _prey_consumer_equilibria(p: ModelParams, sub: Subsystem) -> list:
    """(0,0), (k,0) and the coexistence point of the prey and the consumer of sub."""
    role = PREY_CONSUMERS[sub]
    conv, attack, handle, death = (getattr(p, n) for n in role.params)
    c, _, q, m = role.params
    out = [_origin(sub), _prey_only(p, sub)]
    c1 = conv - handle * death
    checks = [ExistenceCheck(f"{c} - {q}*{m} > 0", c1 > 0, c1)]
    aux = {}
    point = None
    if c1 > 0:
        x0 = math.sqrt(death / c1)
        aux["x0"] = x0
        checks.append(ExistenceCheck("0 < x0 < k", 0 < x0 < p.k, x0))
        if 0 < x0 < p.k:
            point = [x0, 0.0, 0.0]
            point[role.index] = conv * p.r * x0 * (p.k - x0) / (attack * death * p.k)
            point = tuple(point)
    out.append(Equilibrium(role.label, sub, point, checks, aux))
    return out


def predprey_equilibria(p: ModelParams) -> list:
    """Steady states with the scavenger absent: (0,0), (k,0), and the interior pair."""
    return _prey_consumer_equilibria(p, Subsystem.PRED_PREY)


def scavprey_equilibria(p: ModelParams) -> list:
    """Steady states with the predator absent; mirrors the predator-prey case
    with (g, b, b0, j) in place of (d, a, a0, e)."""
    return _prey_consumer_equilibria(p, Subsystem.SCAV_PREY)


# --- interior point ------------------------------------------------------------

SCAN_POINTS = 4096
# relative offset of the second secant point in the interior-root polish
SECANT_OFFSET = 1e-7


def _add(*terms) -> np.ndarray:
    # sum of ascending coefficient arrays of unequal lengths
    out = np.zeros(max(len(t) for t in terms))
    for t in terms:
        out[: len(t)] += t
    return out


def interior_poly_coeffs(p: ModelParams) -> np.ndarray:
    """Coefficients p_0..p_12 (ascending) of the interior-point polynomial in x.

    Derived by eliminating y and z from the steady-state equations.  The
    predator equation gives z^2 = N/D with N = e + (a0 e - d) x^2 and
    D = f(1 + a0 x^2) - i0 N, so 1 + i0 z^2 = f(1 + a0 x^2)/D.  Putting y from
    the scavenger equation into the prey equation (divided by x), multiplying
    through by k(1 + b0 x^2)(h f(1 + a0 x^2) - i z D) and replacing z^2 D by N
    leaves A + B z = 0.  Squaring and substituting z^2 = N/D gives B^2 N - A^2 D.
    Raises NumericalOverflow where a coefficient is not finite.
    """
    mul = np.convolve
    x = np.array([0.0, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        qa = np.array([1.0, 0.0, p.a0])  # 1 + a0 x^2
        qb = np.array([1.0, 0.0, p.b0])  # 1 + b0 x^2
        N = np.array([p.e, 0.0, p.a0 * p.e - p.d])
        D = p.f * qa - p.i0 * N
        M = p.j * qb - np.array([0.0, 0.0, p.g])  # j(1 + b0 x^2) - g x^2
        prey = mul([p.k, -1.0], qb)  # (k - x)(1 + b0 x^2)
        A = _add(p.r * p.h * p.f * mul(prey, qa), p.k * mul(x, p.b * p.i * N - p.a * p.f * M))
        B = _add(-p.r * p.i * mul(prey, D), -p.k * p.b * p.h * p.f * mul(x, qa))
        coeffs = mul(mul(B, B), N) - mul(mul(A, A), D)
    if not np.isfinite(coeffs).all():
        raise NumericalOverflow("the interior polynomial overflows at these parameters")
    return coeffs


def positive_real_roots(coeffs) -> list:
    """Positive real roots of sum(coeffs[i] * x^i) via companion-matrix eigenvalues.

    A root counts as positive real when its imaginary part is below
    1e-9*max(1, |Re|) and its real part exceeds 1e-9*(1 + |Re|).  Raises
    NumericalOverflow where eigvals refuses the companion matrix (overflow).
    """
    c = np.asarray(coeffs, dtype=float)
    if not np.any(np.abs(c) > 0):
        raise ValueError("zero polynomial")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            roots = polyroots(c)
    except np.linalg.LinAlgError as exc:
        raise NumericalOverflow("the interior polynomial's companion matrix has no"
                                f" eigenvalues at these parameters: {exc}") from None
    out = []
    for rt in roots:
        re, im = rt.real, rt.imag
        if abs(im) < 1e-9 * max(1.0, abs(re)) and re > 1e-9 * (1.0 + abs(re)):
            out.append(float(re))
    return sorted(out)


def _prey_residuals(xs: np.ndarray, p: ModelParams) -> tuple:
    """The prey residual (dx/dt divided by x) along the curve z(x), y(x), and y and z.

    For each x the predator equation at y != 0,
    d x^2/(1+a0 x^2) + f z^2/(1+i0 z^2) = e, fixes z^2 = N/D, and the
    scavenger equation at z != 0 fixes
    y = (j - g x^2/(1+b0 x^2)) (1+i0 z^2) / (h (1+i0 z^2) - i z).
    The residual is NaN wherever z^2 or y is not finite and positive; a zero
    D or y-denominator makes them infinite or NaN, so it is NaN there too.
    """
    with np.errstate(all="ignore"):
        qa = 1.0 + p.a0 * xs * xs
        qb = 1.0 + p.b0 * xs * xs
        N = p.e + (p.a0 * p.e - p.d) * xs * xs
        D = p.f * qa - p.i0 * N
        w = N / D
        ok = np.isfinite(w) & (w > 0)
        z = np.sqrt(w)
        M = p.j - p.g * xs * xs / qb
        qi = 1.0 + p.i0 * z * z
        y = M * qi / (p.h * qi - p.i * z)
        ok &= np.isfinite(y) & (y > 0)
        res = p.r * (1.0 - xs / p.k) - p.a * xs * y / qa - p.b * xs * z / qb
    return np.where(ok, res, np.nan), y, z


def interior_equilibrium_direct(p: ModelParams) -> Equilibrium:
    """Locate the interior coexistence point from the polynomial's roots.

    Every interior x* is a positive real root of interior_poly_coeffs in
    (0, k).  Squaring in the derivation adds roots of A - B z = 0, and some
    roots put z^2 or y off the positive axis, so a root is admissible only
    where the prey residual at the y and z it implies is below 1e-6.
    Each admissible root then takes one secant step on the residual, through
    x and x(1 + SECANT_OFFSET), kept only where the residual shrinks and
    stays finite: the eigenvalue can sit thousands of ulps off the zero
    where the residual is steep.
    The entry has no point unless exactly one root is admissible.  With none,
    its one check reads 0; with several, the check holds their count, aux
    holds them as "roots" and the entry is flagged "multiple_roots".
    """
    xs = np.array([x for x in positive_real_roots(interior_poly_coeffs(p)) if x < p.k])
    if xs.size:
        # one pass over the roots and their secant partners
        n = xs.size
        x1 = xs * (1.0 + SECANT_OFFSET)
        res, ys, zs = _prey_residuals(np.concatenate((xs, x1)), p)
        keep = np.abs(res[:n]) < 1e-6  # False at NaN
        xs, x1, ys, zs = xs[keep], x1[keep], ys[:n][keep], zs[:n][keep]
        r0, r1 = res[:n][keep], res[n:][keep]
        if xs.size:
            with np.errstate(all="ignore"):
                step = xs - r0 * (x1 - xs) / (r1 - r0)
            res, ys1, zs1 = _prey_residuals(step, p)
            better = np.abs(res) < np.abs(r0)  # False at NaN
            xs, ys, zs = (np.where(better, step, xs), np.where(better, ys1, ys),
                          np.where(better, zs1, zs))
    if xs.size == 0:
        return Equilibrium(
            LABEL_INTERIOR, Subsystem.FULL, None,
            [ExistenceCheck("unique positive real root", False, 0.0)],
        )
    if xs.size > 1:
        return Equilibrium(
            LABEL_INTERIOR, Subsystem.FULL, None,
            [ExistenceCheck("unique positive real root", False, float(xs.size))],
            {"roots": xs.tolist()},
            flag="multiple_roots",
        )

    x, y, z = float(xs[0]), float(ys[0]), float(zs[0])
    bound_prey = p.r * (1.0 + p.b0 * x * x) * (p.k - x) / (p.b * x)
    bound_pred = p.i * p.e / (p.h * p.f)
    bound = min(bound_prey, bound_pred)
    checks = [
        ExistenceCheck("unique positive real root", True, 1.0),
        ExistenceCheck("z* < min(r(1+b0 x*^2)(k-x*)/(b x*), i*e/(h*f))", z < bound, bound),
    ]
    aux = {"x_star": x, "bound_prey": bound_prey, "bound_pred": bound_pred}
    return Equilibrium(LABEL_INTERIOR, Subsystem.FULL, (x, y, z), checks, aux)


def interior_poly_crosscheck(p: ModelParams, interior: Optional[Equilibrium] = None) -> dict:
    """Cross-check the admissible polynomial roots against a grid scan.

    interior is the interior entry that all_equilibria returned for p;
    without it the interior solve runs here.  The scan evaluates the prey
    residual at SCAN_POINTS points of (0, k) and counts the strict sign
    changes between finite neighbours plus the exact zeros.  It can miss a
    root next to a pole or an edge of the admissible domain, but every sign
    change it counts is a root.  agrees is True when the two counts are
    equal; the report never raises on disagreement.
    """
    if interior is None:
        interior = interior_equilibrium_direct(p)
    if interior.point is not None:
        admissible = [interior.point[0]]
    else:
        admissible = list(interior.aux.get("roots", []))
    xs = np.linspace(0.0, p.k, SCAN_POINTS + 2)[1:-1]
    vals = _prey_residuals(xs, p)[0]
    count = int(np.count_nonzero(vals[:-1] * vals[1:] < 0) + np.count_nonzero(vals == 0))
    return {
        "admissible_roots": admissible,
        "scan_sign_changes": count,
        "agrees": count == len(admissible),
    }


def all_equilibria(p: ModelParams) -> list:
    """Every steady-state candidate of the full system, embedded in 3-D.

    Duplicate points within 1e-9 are merged.  A non-unique interior root is
    returned as a flagged entry.
    """
    # boundary points keep their label but are re-tagged FULL: in the full
    # system their verdict needs the 3x3 Jacobian, not the 2-D restriction
    out = [
        _origin(Subsystem.FULL),
        _prey_only(p, Subsystem.FULL),
        replace(predscav_equilibria(p)[-1], subsystem=Subsystem.FULL),
        replace(predprey_equilibria(p)[-1], subsystem=Subsystem.FULL),
        replace(scavprey_equilibria(p)[-1], subsystem=Subsystem.FULL),
        interior_equilibrium_direct(p),
    ]
    merged = []
    for eq in out:
        dup = False
        if eq.point is not None:
            for kept in merged:
                if kept.point is not None and max(
                    abs(a - b) for a, b in zip(kept.point, eq.point)
                ) < MERGE_TOL:
                    dup = True
                    break
        if not dup:
            merged.append(eq)
    return merged
