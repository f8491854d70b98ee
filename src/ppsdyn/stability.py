"""Jacobians, characteristic polynomials, and stability classification.

For a cubic characteristic polynomial lambda^3 + m1 lambda^2 + m2 lambda + m3
the coefficients come from the trace, the principal 2x2 minors, and the
determinant; all eigenvalue real parts are negative iff m1, m2, m3 > 0 and
m1*m2 - m3 > 0.  classify computes the eigenvalues, 2x2 or 3x3, from the
Jacobian itself (np.linalg.eigvals, QR), never from m1, m2, m3, so an
error in the coefficients cannot reach both routes; the eigenvalues are
authoritative when the two disagree near a margin.  The predator-prey and
scavenger-prey criteria are built from equilibria.PREY_CONSUMERS.  The
Jacobian is model.state_jacobian; classify raises NumericalOverflow where
eigvals refuses it, as where it is not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .equilibria import (
    PREY_CONSUMERS,
    Equilibrium,
    ExistenceCheck,
    LABEL_INTERIOR,
    LABEL_ORIGIN,
    LABEL_PRED_PREY,
    LABEL_PRED_SCAV,
    LABEL_PREY_ONLY,
)
from .errors import ExistenceViolated, NumericalOverflow
from .model import ModelParams, Subsystem, state_jacobian

# eigenvalues with |Re| at or below this band get a Marginal verdict instead
# of a binary call; hyperbolicity is not decidable numerically at the margin
MARGINAL_BAND = 1e-9
RH_MARGIN = 1e-12

STABLE = "Stable"
UNSTABLE = "Unstable"
MARGINAL = "Marginal"


def jacobian(p: ModelParams, s, mask: Subsystem = Subsystem.FULL) -> np.ndarray:
    """Analytic Jacobian at s; model.state_jacobian for the full system,
    its 2x2 block of the species present for a subsystem."""
    J = state_jacobian(p, s)
    if mask is Subsystem.FULL:
        return J
    active = [idx for idx, on in enumerate(mask.value) if on]
    return J[np.ix_(active, active)]


@dataclass
class StabilityVerdict:
    classification: str
    eigenvalues: tuple
    m1: Optional[float] = None
    m2: Optional[float] = None
    m3: Optional[float] = None
    criteria: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def discriminant(self) -> Optional[float]:
        """The m1*m2 - m3 quantity; None for 2-D verdicts."""
        if self.m1 is None:
            return None
        return self.m1 * self.m2 - self.m3

    def record(self) -> dict:
        return {
            "classification": self.classification,
            "eigenvalues": [[ev.real, ev.imag] for ev in self.eigenvalues],
            "m1": self.m1,
            "m2": self.m2,
            "m3": self.m3,
            "discriminant": self.discriminant,
            "criteria": [c._asdict() for c in self.criteria],
            "notes": list(self.notes),
        }


def _sorted_eigenvalues(A: np.ndarray) -> tuple:
    # QR-based eigenvalues sidestep the branch pitfalls of the closed-form cubic
    return tuple(sorted((complex(v) for v in np.linalg.eigvals(A)), key=lambda v: (v.real, v.imag)))


def _cubic_roots(m1: float, m2: float, m3: float) -> tuple:
    # companion matrix of lambda^3 + m1 l^2 + m2 l + m3
    return _sorted_eigenvalues(np.array([[0.0, 0.0, -m3], [1.0, 0.0, -m2], [0.0, 1.0, -m1]]))


def _verdict_from_eigenvalues(eigenvalues) -> str:
    res = [ev.real for ev in eigenvalues]
    if any(abs(re) <= MARGINAL_BAND for re in res):
        return MARGINAL
    return STABLE if max(res) < 0 else UNSTABLE


def _routh_hurwitz_criteria(m1: float, m2: float, m3: float) -> list:
    return [
        ExistenceCheck("m1 > 0", m1 > RH_MARGIN, m1),
        ExistenceCheck("m2 > 0", m2 > RH_MARGIN, m2),
        ExistenceCheck("m3 > 0", m3 > RH_MARGIN, m3),
        ExistenceCheck("m1*m2 - m3 > 0", m1 * m2 - m3 > RH_MARGIN, m1 * m2 - m3),
    ]


def routh_hurwitz_cubic(m1: float, m2: float, m3: float) -> StabilityVerdict:
    """Verdict for lambda^3 + m1 lambda^2 + m2 lambda + m3 from the sign tests alone."""
    tests = _routh_hurwitz_criteria(m1, m2, m3)
    if any(abs(c.value) <= RH_MARGIN for c in tests):
        cls = MARGINAL
    elif all(c.satisfied for c in tests):
        cls = STABLE
    else:
        cls = UNSTABLE
    return StabilityVerdict(cls, _cubic_roots(m1, m2, m3), m1, m2, m3, tests)


def _char_coeffs_3(J: np.ndarray):
    m1 = -float(np.trace(J))
    m2 = float(
        J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        + J[0, 0] * J[2, 2] - J[0, 2] * J[2, 0]
        + J[1, 1] * J[2, 2] - J[1, 2] * J[2, 1]
    )
    m3 = -float(np.linalg.det(J))
    return m1, m2, m3


def _threshold_check(name: str, ksq: float, num: float, den: float) -> ExistenceCheck:
    # k^2 < num/den with den <= 0 meaning the response saturates below the
    # death rate, so the direction is stable for every k
    if den <= 0:
        return ExistenceCheck(name, True, math.inf)
    return ExistenceCheck(name, ksq < num / den, num / den)


# the prey-consumer pair of each coexistence label
_PAIRS = {role.label: role for role in PREY_CONSUMERS.values()}


def _named_criteria(p: ModelParams, eq: Equilibrium) -> list:
    label, sub = eq.label, eq.subsystem
    full = sub is Subsystem.FULL
    checks = []
    if label == LABEL_ORIGIN:
        if sub in (Subsystem.FULL, Subsystem.PRED_PREY, Subsystem.SCAV_PREY):
            checks.append(ExistenceCheck("prey eigenvalue r < 0", False, p.r))
        else:  # prey absent: eigenvalues -e and -j
            checks.append(ExistenceCheck("eigenvalues -e, -j < 0", True, max(-p.e, -p.j)))
    elif label == LABEL_PREY_ONLY:
        ksq = p.k * p.k
        # one consumer direction per pair the point belongs to
        for pair, role in PREY_CONSUMERS.items():
            if sub in (Subsystem.FULL, pair):
                conv, _, handle, death = (getattr(p, n) for n in role.params)
                c, _, q, m = role.params
                checks.append(_threshold_check(f"k^2 < {m}/({c} - {q}*{m})", ksq, death, conv - handle * death))
    elif label == LABEL_PRED_SCAV:
        if full:
            checks.append(ExistenceCheck("prey eigenvalue r < 0", False, p.r))
        else:
            # eigenvalue product -2je(f-i0e)/f is negative whenever the point
            # exists, so the 2-D point is a saddle
            prod = -2.0 * p.j * p.e * (p.f - p.i0 * p.e) / p.f
            checks.append(ExistenceCheck("eigenvalue product > 0", prod > 0, prod))
    elif label in _PAIRS:
        conv, _, handle, death = (getattr(p, n) for n in _PAIRS[label].params)
        c, _, q, m = _PAIRS[label].params
        x0 = eq.point[0]
        ratio = 2.0 * handle * death * (p.k - x0) / (conv * p.k)
        checks.append(ExistenceCheck(f"2*{q}*{m}*(k - x0)/({c}*k) < 1", ratio < 1.0, ratio))
        # the direction of the absent species differs between the pairs
        if full and label == LABEL_PRED_PREY:
            dd = p.d + (p.b0 - p.a0) * p.e
            v = p.h * p.d * p.r * x0 * (1.0 - x0 / p.k) * dd + p.a * p.e * (p.g * p.e - p.j * dd)
            checks.append(ExistenceCheck("scavenger-direction eigenvalue term < 0", v < 0, v))
        elif full:
            z0 = eq.point[2]
            gg = p.g + p.j * (p.a0 - p.b0)
            t = (p.e * gg - p.d * p.j) / gg if gg != 0 else math.nan
            lhs = p.f * z0 * z0 / (1.0 + p.i0 * z0 * z0)
            checks.append(ExistenceCheck("f*z0^2/(1 + i0*z0^2) < t", lhs < t, lhs - t))
    return checks


def classify(p: ModelParams, eq: Equilibrium) -> StabilityVerdict:
    """Stability verdict for an existing equilibrium.

    Eigenvalue real parts decide the classification; the label's closed-form
    criteria are evaluated alongside and a disagreement is noted, not
    silently resolved.  Eigenvalues come from J itself; m1, m2, m3 or the
    trace and determinant feed only the criteria and the report.  Raises
    NumericalOverflow where J has no eigenvalues, as where it is not finite.
    """
    if not eq.exists:
        raise ExistenceViolated(f"{eq.label} does not exist for these parameters")
    J = jacobian(p, eq.point, eq.subsystem)
    criteria = _named_criteria(p, eq)
    try:
        eigenvalues = _sorted_eigenvalues(J)
    except np.linalg.LinAlgError as exc:
        raise NumericalOverflow(f"the Jacobian at the {eq.label} point {eq.point}"
                                f" has no eigenvalues: {exc}") from None
    if J.shape == (3, 3):
        m1, m2, m3 = _char_coeffs_3(J)
        if eq.label == LABEL_INTERIOR:
            criteria.extend(_routh_hurwitz_criteria(m1, m2, m3))
    else:
        m1 = m2 = m3 = None
        tr = float(np.trace(J))
        det = float(np.linalg.det(J))
        criteria.extend(
            [
                ExistenceCheck("-trace > 0", -tr > RH_MARGIN, -tr),
                ExistenceCheck("det > 0", det > RH_MARGIN, det),
            ]
        )
    cls = _verdict_from_eigenvalues(eigenvalues)
    verdict = StabilityVerdict(cls, eigenvalues, m1, m2, m3, criteria)
    if criteria and cls != MARGINAL:
        implied = all(c.satisfied for c in criteria)
        if implied != (cls == STABLE):
            verdict.notes.append(
                "named criteria imply "
                + (STABLE if implied else UNSTABLE)
                + f" but eigenvalues give {cls}; eigenvalues are authoritative"
            )
    return verdict
