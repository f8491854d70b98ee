"""Model parameters, states, and the right-hand side of the population system.

Three interacting populations: prey x, predator y, scavenger z.  Predation
follows a type-III response x^2/(1 + c x^2) (saturating, sigmoidal); the
scavenger additionally feeds on predator carcasses through the bilinear
h*y*z term and is itself consumed by the predator.

    dx/dt = r x (1 - x/k) - a x^2 y / (1 + a0 x^2) - b x^2 z / (1 + b0 x^2)
    dy/dt = d x^2 y / (1 + a0 x^2) + f z^2 y / (1 + i0 z^2) - e y
    dz/dt = g x^2 z / (1 + b0 x^2) + h y z - i y z^2 / (1 + i0 z^2) - j z

All fourteen parameters are strictly positive.  The exponent in the type-III
response is fixed at 2.  make_rhs gives the right-hand side on plain floats,
the stepper's hot path, and state_jacobian the paper's 3 x 3 df/d(x, y, z)
at one state, stability's Jacobian.

On arrays of states, f, df/d(x, y, z) and df/dp are one matrix product: the
right-hand side and all its derivatives are linear in 18 features of the
state (1, x, x^2, y, z, yz, the three type-III shapes, and products of the
shapes and their state derivatives with the populations they meet), with
coefficients built once per parameter vector from r, r/k, 2r/k, 1/k, r/k^2,
a, b, d, e, f, g, h, i, j and +-1 (derivative_table).  The solver takes the
Jacobians of the variational equations from it (table_jacobians), and the
physics term of the estimation loss f and df/dp at the observed states,
whose state-only feature rows (state_rows) it computes once per dataset.
The table, the only written form of df/dp, agrees with make_rhs,
state_jacobian and the complex-step derivative of make_rhs within a few ulps
of the summed term magnitudes; its structural zeros are exactly zero.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from ._files import rewrite
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
        return np.array([getattr(self, n) for n in PARAM_ORDER], dtype=float)

    @classmethod
    def from_array(cls, values) -> "ModelParams":
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
        with rewrite(path) as fh:
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


def state_jacobian(p: ModelParams, s) -> np.ndarray:
    """The paper's 3 x 3 Jacobian df/d(x, y, z) of the full system at s = (x, y, z[, t])."""
    r, k, a, a0, b, b0, d, e, f, g, h, i, i0, j = _param_values(p)
    x, y, z = (float(v) for v in s[:3])
    x2 = x * x
    z2 = z * z
    qa = 1.0 + a0 * x2
    qb = 1.0 + b0 * x2
    qi = 1.0 + i0 * z2
    # the three type-III shapes u^2/(1 + c u^2) and their state derivatives
    # 2u/(1 + c u^2)^2
    ua, ub, ui = x2 / qa, x2 / qb, z2 / qi
    tx = 2.0 * x
    dua, dub, dui = tx / (qa * qa), tx / (qb * qb), 2.0 * z / (qi * qi)
    return np.array((
        (r * (1.0 - tx / k) - a * dua * y - b * dub * z, -a * ua, -b * ub),
        (d * dua * y, d * ua + f * ui - e, f * dui * y),
        (g * dub * z, h * z - i * ui, g * ub + h * y - i * y * dui - j),
    ))


# row length of the derivative matrix [df/d(x, y, z) | df/dp]: 3 state
# columns, then one column per parameter in PARAM_ORDER
JACOBIAN_COLUMNS = 3 + len(PARAM_ORDER)


# The right-hand side and all its derivatives are linear in 18 features of
# the state, so on arrays of states they are one matrix product: the
# feature matrix times a coefficient matrix built once per parameter vector
# (derivative_table).  The rows of the feature matrix:
X, Y, Z, ONE, X2, YZ = range(6)  # the state-only rows: x, y, z, 1, x^2, yz
UA, UB, UI = 6, 7, 8  # the type-III shapes x^2/(1 + a0 x^2), x^2/(1 + b0 x^2), z^2/(1 + i0 z^2)
UAY, UBZ, UIY = 9, 10, 11  # each shape times the population it meets
UA2Y, UB2Z, UI2Y = 12, 13, 14  # the same times the shape once more
DUAY, DUBZ, DUIY = 15, 16, 17  # the shapes' state derivatives 2u/(1 + c u^2)^2 times it
FEATURES = 18
# The rows of a state_rows array: the argument of each shape (x, x, z) and
# the population it meets (y, z, y), the feature matrix, and each shape's
# argument squared and doubled.  The first nine are columns of the states.
_ARGS, _MEETS, _FEATURE_ROWS = slice(0, 3), slice(3, 6), slice(6, 6 + FEATURES)
_SQUARES, _DOUBLED = slice(24, 27), slice(27, 30)
_STATE_COLUMNS = np.array((0, 0, 2, 1, 2, 1, 0, 1, 2))

# The coefficients are these values of the parameters,
_COEFFICIENTS = ("1", "-1", "r", "-r/k", "-2r/k", "-1/k", "r/k2", "a", "-a", "b", "-b",
                 "d", "-d", "-e", "f", "-f", "g", "-g", "h", "i", "-i", "-j")
# and each nonzero term of f and its derivatives is (equation, derivative
# with respect to, or None for f itself, feature, coefficient); every other
# entry is a structural zero
_TERMS = (
    # dx/dt = r x - (r/k) x^2 - a u_a y - b u_b z
    ("x", None, X, "r"), ("x", None, X2, "-r/k"), ("x", None, UAY, "-a"), ("x", None, UBZ, "-b"),
    # dy/dt = d u_a y + f u_i y - e y
    ("y", None, UAY, "d"), ("y", None, UIY, "f"), ("y", None, Y, "-e"),
    # dz/dt = g u_b z + h y z - i u_i y - j z
    ("z", None, UBZ, "g"), ("z", None, YZ, "h"), ("z", None, UIY, "-i"), ("z", None, Z, "-j"),
    # df/d(x, y, z)
    ("x", "x", ONE, "r"), ("x", "x", X, "-2r/k"), ("x", "x", DUAY, "-a"), ("x", "x", DUBZ, "-b"),
    ("x", "y", UA, "-a"), ("x", "z", UB, "-b"),
    ("y", "x", DUAY, "d"), ("y", "y", UA, "d"), ("y", "y", UI, "f"), ("y", "y", ONE, "-e"),
    ("y", "z", DUIY, "f"),
    ("z", "x", DUBZ, "g"), ("z", "y", Z, "h"), ("z", "y", UI, "-i"),
    ("z", "z", UB, "g"), ("z", "z", Y, "h"), ("z", "z", DUIY, "-i"), ("z", "z", ONE, "-j"),
    # df/dp
    ("x", "r", X, "1"), ("x", "r", X2, "-1/k"), ("x", "k", X2, "r/k2"), ("x", "a", UAY, "-1"),
    ("x", "a0", UA2Y, "a"), ("x", "b", UBZ, "-1"), ("x", "b0", UB2Z, "b"),
    ("y", "a0", UA2Y, "-d"), ("y", "d", UAY, "1"), ("y", "e", Y, "-1"), ("y", "f", UIY, "1"),
    ("y", "i0", UI2Y, "-f"),
    ("z", "b0", UB2Z, "-g"), ("z", "g", UBZ, "1"), ("z", "h", YZ, "1"), ("z", "i", UIY, "-1"),
    ("z", "i0", UI2Y, "i"), ("z", "j", Z, "-1"),
)
# the columns of the coefficient matrix: f, then the flattened
# 3 x JACOBIAN_COLUMNS derivative matrix
_COLUMNS = 3 + 3 * JACOBIAN_COLUMNS


def _term_index():
    """The flat position of each term in the FEATURES x _COLUMNS
    coefficient matrix, and the index of its value in _COEFFICIENTS."""
    wrt = ("x", "y", "z") + PARAM_ORDER
    flat, source = [], []
    for eq, by, feature, coef in _TERMS:
        row = "xyz".index(eq)
        col = row if by is None else 3 + row * JACOBIAN_COLUMNS + wrt.index(by)
        flat.append(feature * _COLUMNS + col)
        source.append(_COEFFICIENTS.index(coef))
    return np.array(flat), np.array(source)


_TERM_FLAT, _TERM_SOURCE = _term_index()


class DerivativeTable(NamedTuple):
    """The coefficients of f and its derivatives in the features, for one
    parameter vector: at the states of a feature matrix F, f is F.T @ rhs
    and the matrices [df/d(x, y, z) | df/dp], flattened, are F.T @ jacobian.
    dfdp holds the df/dp coefficients alone, a row per feature and equation,
    so that a weighted sum of df/dp over the states, sum_t w_t df/dp(x_t)
    with w of shape (n, 3), is (F @ w).reshape(-1) @ dfdp."""

    rhs: np.ndarray  # FEATURES x 3
    jacobian: np.ndarray  # FEATURES x 3 JACOBIAN_COLUMNS
    dfdp: np.ndarray  # 3 FEATURES x len(PARAM_ORDER)
    handling: np.ndarray  # 3 x 1: a0, b0, i0, the handling times of u_a, u_b, u_i


@functools.lru_cache(maxsize=1)
def derivative_table(p: ModelParams) -> DerivativeTable:
    """The coefficient matrix of p, built once per parameter vector: the
    network stage's misfit and physics term share one table.  The arrays
    are read-only.  A coefficient that overflows, such as r/k^2 where k*k
    underflows, is inf rather than an exception."""
    r, k, a, a0, b, b0, d, e, f, g, h, i, i0, j = _param_values(p)
    # in _COEFFICIENTS' order; k > 0, so none of these divides by zero
    values = np.array((1.0, -1.0, r, -r / k, -2.0 * r / k, -1.0 / k, r / k / k, a, -a, b, -b,
                       d, -d, -e, f, -f, g, -g, h, i, -i, -j))
    coef = np.zeros((FEATURES, _COLUMNS))
    np.put(coef, _TERM_FLAT, values[_TERM_SOURCE])
    dfdp = coef[:, 3:].reshape(FEATURES, 3, JACOBIAN_COLUMNS)[:, :, 3:]
    dfdp = dfdp.reshape(-1, len(PARAM_ORDER))
    handling = np.array((a0, b0, i0)).reshape(3, 1)
    for array in (coef, dfdp, handling):
        array.flags.writeable = False
    return DerivativeTable(coef[:, :3], coef[:, 3:], dfdp, handling)


def state_rows(states) -> np.ndarray:
    """A fresh array for the feature matrix at states, shape (n, 3), with
    the rows that depend on the state alone filled in: x, y, z, 1, x^2 and
    yz, and the shapes' arguments; feature_matrix fills in the rest for a
    parameter vector."""
    rows = np.empty((30, len(states)))
    np.take(states.T, _STATE_COLUMNS, axis=0, out=rows[:9], mode="clip")
    features, args = rows[_FEATURE_ROWS], rows[_ARGS]
    features[ONE] = 1.0
    np.multiply(features[X], features[X], out=features[X2])
    np.multiply(features[Y], features[Z], out=features[YZ])
    np.multiply(args, args, out=rows[_SQUARES])
    np.multiply(args, 2.0, out=rows[_DOUBLED])
    return rows


def feature_matrix(rows, handling) -> np.ndarray:
    """The FEATURES x n feature matrix of a state_rows array, its shape rows
    filled in place for the handling times (a0, b0, i0) of a derivative
    table; the shapes and their state derivatives are formed as
    state_jacobian forms them at one state."""
    features, squares, meets = rows[_FEATURE_ROWS], rows[_SQUARES], rows[_MEETS]
    shapes, met, slopes = features[UA:UI + 1], features[UAY:UIY + 1], features[DUAY:DUIY + 1]
    q = handling * squares
    q += 1.0
    np.divide(squares, q, out=shapes)
    np.multiply(shapes, meets, out=met)
    np.multiply(shapes, met, out=features[UA2Y:UI2Y + 1])
    q *= q
    np.divide(rows[_DOUBLED], q, out=slopes)
    slopes *= meets
    return features


def table_jacobians(p: ModelParams, states) -> np.ndarray:
    """The derivative matrices [df/d(x, y, z) | df/dp] at each of states,
    shape (n, 3), as an array of shape (n, 3, JACOBIAN_COLUMNS): one product
    of the feature matrix with the table.  Each entry is the derivative of
    make_rhs within a few ulps of its summed term magnitudes, and its
    structural zeros are exactly zero at finite states.  A state's matrix
    does not depend on the states it is evaluated with, for n of 2 or more
    (numpy sums a product with one state in another order)."""
    table = derivative_table(p)
    features = feature_matrix(state_rows(states), table.handling)
    return (features.T @ table.jacobian).reshape(-1, 3, JACOBIAN_COLUMNS)
