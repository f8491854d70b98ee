"""Model parameters, states, and the right-hand side of the population system.

Three interacting populations: prey x, predator y, scavenger z.  Predation
follows a type-III response x^2/(1 + c x^2) (saturating, sigmoidal); the
scavenger additionally feeds on predator carcasses through the bilinear
h*y*z term and is itself consumed by the predator.

    dx/dt = r x (1 - x/k) - a x^2 y / (1 + a0 x^2) - b x^2 z / (1 + b0 x^2)
    dy/dt = d x^2 y / (1 + a0 x^2) + f z^2 y / (1 + i0 z^2) - e y
    dz/dt = g x^2 z / (1 + b0 x^2) + h y z - i y z^2 / (1 + i0 z^2) - j z

All fourteen parameters are strictly positive.  The exponent in the type-III
response is fixed at 2.  make_rhs gives the right-hand side and make_jacobian
its derivatives with respect to the state and to the parameters, the terms of
the variational equations the solver integrates for exact gradients;
make_parameter_jacobian gives the parameter derivatives alone, from the same
entries, for the physics term of the estimation loss.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from .errors import MaskViolation, NumericalOverflow

PARAM_ORDER = ("r", "k", "a", "a0", "b", "b0", "d", "e", "f", "g", "h", "i", "i0", "j")
# the parameters of a ModelParams as a tuple in PARAM_ORDER, in one call
_param_values = attrgetter(*PARAM_ORDER)


@dataclass(frozen=True)
class ModelParams:
    """The 14 positive model parameters.

    r: prey logistic growth rate          k: prey carrying capacity
    a: prey discovery rate (predator)     a0: prey handling time (predator)
    b: prey discovery rate (scavenger)    b0: prey handling time (scavenger)
    d: predator growth from prey          e: predator natural death rate
    f: predator growth from scavenger     g: scavenger growth from prey
    h: scavenge factor                    i: scavenger discovery rate (predator)
    i0: scavenger handling time           j: scavenger natural death rate

    Growth rates d, f, g are stored already multiplied by their conversion
    factors; no separate conversion symbols are modeled.
    """

    r: float
    k: float
    a: float
    a0: float
    b: float
    b0: float
    d: float
    e: float
    f: float
    g: float
    h: float
    i: float
    i0: float
    j: float

    def __post_init__(self):
        for name, v in zip(PARAM_ORDER, _param_values(self)):
            # a plain float, the common case, needs neither the type test nor
            # the conversion; numpy floats get both
            plain = type(v) is float
            ok = plain or (isinstance(v, (int, float)) and not isinstance(v, bool))
            if not (ok and math.isfinite(v) and v > 0):
                raise ValueError(f"parameter {name} must be a positive finite number, got {v!r}")
            if not plain:
                object.__setattr__(self, name, float(v))

    def as_array(self):
        import numpy as np

        return np.array([getattr(self, n) for n in PARAM_ORDER], dtype=float)

    @classmethod
    def from_array(cls, values) -> "ModelParams":
        import numpy as np

        # a float vector holds no bools, and its tolist() gives plain floats
        plain = isinstance(values, np.ndarray) and values.dtype.kind == "f" and values.ndim == 1
        vals = values.tolist() if plain else list(values)
        if len(vals) != len(PARAM_ORDER):
            raise ValueError(f"expected {len(PARAM_ORDER)} parameters, got {len(vals)}")
        if not plain:
            # bools, Python or numpy, pass through unconverted so the constructor rejects them
            vals = [v if isinstance(v, (bool, np.bool_)) else float(v) for v in vals]
        return cls(*vals)

    def to_dict(self) -> dict:
        return {n: getattr(self, n) for n in PARAM_ORDER}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        extra = set(d) - set(PARAM_ORDER)
        if extra:
            raise ValueError(f"unknown parameter keys: {sorted(extra)}")
        missing = set(PARAM_ORDER) - set(d)
        if missing:
            raise ValueError(f"missing parameter keys: {sorted(missing)}")
        return cls(**{n: d[n] for n in PARAM_ORDER})

    @classmethod
    def load(cls, path) -> "ModelParams":
        """Read the flat `key = value` text format; # starts a comment."""
        d = {}
        where = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
                key, _, val = line.partition("=")
                key = key.strip()
                if key in where:
                    raise ValueError(f"{path}:{lineno}: {key!r} already set on line {where[key]}")
                where[key] = lineno
                try:
                    d[key] = float(val)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: non-numeric value {val.strip()!r}") from None
        return cls.from_dict(d)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for n in PARAM_ORDER:
                fh.write(f"{n} = {getattr(self, n)!r}\n")


class State(NamedTuple):
    """Population triple with a bookkeeping time stamp (the dynamics are autonomous)."""

    x: float
    y: float
    z: float
    t: float = 0.0


class Derivative(NamedTuple):
    dx: float
    dy: float
    dz: float


class Subsystem(enum.Enum):
    """Which populations take part, a 0/1 flag per species (x, y, z).

    A subsystem is a start state, not another right-hand side: every term
    of a species' equation carries that species' own density, so an absent
    species that starts at zero stays there.  check_state checks that start.
    """

    FULL = (1, 1, 1)
    PRED_SCAV = (0, 1, 1)  # prey absent
    PRED_PREY = (1, 1, 0)  # scavenger absent
    SCAV_PREY = (1, 0, 1)  # predator absent

    def check_state(self, s) -> None:
        """Raise MaskViolation when an absent component of s = (x, y, z[, t]) is nonzero."""
        for comp, active, name in zip(s, self.value, "xyz"):
            if not active and comp != 0:
                raise MaskViolation(f"{name}0 = {comp} but {name} is masked out in {self.name}")

    @classmethod
    def parse(cls, name: str) -> "Subsystem":
        try:
            return SUBSYSTEMS[name.lower().replace("-", "").replace("_", "")]
        except KeyError:
            raise ValueError(f"unknown subsystem {name!r}; expected one of {sorted(SUBSYSTEMS)}") from None


# the names Subsystem.parse takes, once lowercased and without - and _
SUBSYSTEMS = {s.name.lower().replace("_", ""): s for s in Subsystem}


def holling3(u: float, rate: float, handle: float) -> float:
    """Type-III functional response rate*u^2 / (1 + handle*u^2), exponent fixed at 2."""
    u2 = u * u
    return rate * u2 / (1.0 + handle * u2)


def rhs(s, p: ModelParams) -> Derivative:
    """Derivative at state s = (x, y, z[, t]).

    Raises NumericalOverflow if the result is non-finite.
    """
    d = make_rhs(p)(float(s[0]), float(s[1]), float(s[2]))
    if not all(map(math.isfinite, d)):
        raise NumericalOverflow(f"non-finite derivative at state {tuple(s[:3])}")
    return Derivative(*d)


def rhs_subsystem(s, p: ModelParams, subsystem: Subsystem) -> Derivative:
    """rhs at a state of the subsystem; its absent species must sit at zero."""
    subsystem.check_state(s)
    return rhs(s, p)


def make_rhs(p: ModelParams):
    """Closure evaluating the derivative on plain floats (or equal-length arrays).

    This is the integrator's hot path: no validation, no array allocation.
    One closure serves all four subsystems: every term of a species'
    equation carries that species' own density, so a species at zero has a
    signed-zero derivative (NaN where another component is non-finite) and
    stays at zero exactly.  Subsystem.check_state enforces the zero start.
    """
    r, k, a, a0, b, b0, d, e, f, g, h, i, i0, j = _param_values(p)

    def deriv(x: float, y: float, z: float):
        x2 = x * x
        z2 = z * z
        qa = 1.0 + a0 * x2
        qb = 1.0 + b0 * x2
        qi = 1.0 + i0 * z2
        return (
            r * x * (1.0 - x / k) - a * x2 * y / qa - b * x2 * z / qb,
            d * x2 * y / qa + f * z2 * y / qi - e * y,
            g * x2 * z / qb + h * y * z - i * y * z2 / qi - j * z,
        )

    return deriv


# row length of the matrix make_jacobian's closure returns: 3 state columns,
# then one column per parameter in PARAM_ORDER
JACOBIAN_COLUMNS = 3 + len(PARAM_ORDER)


def _jacobian_blocks(p: ModelParams):
    """The two closures make_jacobian's matrix is built from, with each entry
    written once.  dfdp(x, y, z) gives the rows of the 3 x 14 block df/dp,
    together with the factors the state block reuses; dfdx(x, y, z, factors)
    gives the rows of the 3 x 3 block df/d(x, y, z).
    """
    r, k, a, a0, b, b0, d, e, f, g, h, i, i0, j = _param_values(p)

    def dfdp(x, y, z):
        x2 = x * x
        z2 = z * z
        qa = 1.0 + a0 * x2
        qb = 1.0 + b0 * x2
        qi = 1.0 + i0 * z2
        # the three type-III shapes
        ua, ub, ui = x2 / qa, x2 / qb, z2 / qi
        # each shape times the population it meets, once with and once
        # without its handling-time derivative -u^4/(1 + c u^2)^2 = -shape^2;
        # arrays cost a numpy call per operation, so shared factors are formed once
        uay, ubz, uiy = ua * y, ub * z, ui * y
        ua2y, ub2z, ui2y = ua * uay, ub * ubz, ui * uiy
        return (
            # prey row: r, k, a, a0, b, b0, d, e, f, g, h, i, i0, j
            (x - x2 / k, x2 * (r / (k * k)), -uay, a * ua2y, -ubz, b * ub2z,
             0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            # predator row
            (0.0, 0.0, 0.0, -d * ua2y, 0.0, 0.0,
             uay, -y, uiy, 0.0, 0.0, 0.0, -f * ui2y, 0.0),
            # scavenger row
            (0.0, 0.0, 0.0, 0.0, 0.0, -g * ub2z,
             0.0, 0.0, 0.0, ubz, y * z, -uiy, i * ui2y, -z),
        ), (qa, qb, qi, ua, ub, ui)

    def dfdx(x, y, z, factors):
        qa, qb, qi, ua, ub, ui = factors
        # the shapes' state derivatives 2u/(1 + c u^2)^2
        tx = 2.0 * x
        dua, dub, dui = tx / (qa * qa), tx / (qb * qb), 2.0 * z / (qi * qi)
        return (
            (r * (1.0 - tx / k) - a * dua * y - b * dub * z, -a * ua, -b * ub),
            (d * dua * y, d * ua + f * ui - e, f * dui * y),
            (g * dub * z, h * z - i * ui, g * ub + h * y - i * y * dui - j),
        )

    return dfdp, dfdx


def make_jacobian(p: ModelParams):
    """Closure giving the derivatives of the full system's right-hand side at (x, y, z).

    It returns the 3 x JACOBIAN_COLUMNS matrix [df/d(x, y, z) | df/dp],
    parameters in PARAM_ORDER, flattened row-major into a tuple of plain
    floats, so the solver can evaluate it at every stage of a step and build
    one array from all of them.
    """
    dfdp, dfdx = _jacobian_blocks(p)

    def jac(x: float, y: float, z: float):
        (prey_p, predator_p, scavenger_p), factors = dfdp(x, y, z)
        prey, predator, scavenger = dfdx(x, y, z, factors)
        # unpacked into one tuple; concatenating the rows would build and
        # drop four intermediate tuples per call
        return (*prey, *prey_p, *predator, *predator_p, *scavenger, *scavenger_p)

    return jac


def make_parameter_jacobian(p: ModelParams):
    """Closure giving df/dp alone at (x, y, z): make_jacobian's matrix without
    its state block, 3 x len(PARAM_ORDER), flattened row-major, for a caller
    that needs no df/d(x, y, z)."""
    dfdp = _jacobian_blocks(p)[0]

    def jac(x: float, y: float, z: float):
        (prey, predator, scavenger), _ = dfdp(x, y, z)
        return (*prey, *predator, *scavenger)

    return jac


def jacobian_matrices(jac, x, y, z):
    """A make_jacobian or make_parameter_jacobian closure evaluated once on
    equal-length arrays of states.

    Returns the matrices as an array of shape (len(x), 3, columns), columns
    JACOBIAN_COLUMNS or len(PARAM_ORDER), bitwise equal to one call per
    state: the closure's arithmetic is elementwise, and its constant entries,
    the float 0.0, are already in place in the zero-initialised array.
    """
    import numpy as np

    vals = jac(x, y, z)
    # C order, as one matrix per call would stack: numpy's reductions may
    # sum in another order over another memory layout
    out = np.zeros((len(x), len(vals)))
    # each array entry written as a row of the transposed view, which numpy
    # indexes faster than a column of out; one fancy-indexed assignment
    # would first copy all of them into a temporary
    columns = out.T
    for col, v in enumerate(vals):
        if type(v) is not float:
            columns[col] = v
    return out.reshape(-1, 3, len(vals) // 3)
