"""Shared fixtures: canonical parameter sets and the zero-noise dataset.

The dicts below are regression anchors. The first five correspond to the
.params files shipped in fixtures/; the next three are frozen draws with no,
two and three admissible interior roots, README_FIT_CASE is an estimate with
two interior points, and SCAN_MISS_CASES holds draws whose roots the
cross-check's grid scan misses.
"""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ppsdyn.data import synthesize
from ppsdyn.model import PARAM_ORDER, ModelParams, State, make_rhs

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# pred/scav pair with a collapsing nontrivial equilibrium; prey params unused
PREDSCAV_CASE = dict(r=1.0, k=1.0, a=1.0, a0=1.0, b=1.0, b0=1.0, d=1.0,
                     e=0.5, f=0.5, g=1.0, h=0.5, i=0.5, i0=0.25, j=1.5)

# prey/predator pair with a stable interior point; scavenger params unused
PREDPREY_CASE = dict(r=1.0, k=2.0, a=1.0, a0=0.25, b=1.0, b0=1.0, d=1.0,
                     e=1.0, f=1.0, g=1.0, h=1.0, i=1.0, i0=1.0, j=1.0)

INTERIOR_UNSTABLE = dict(r=0.5, k=100.0, a=0.5, a0=0.25, b=0.5, b0=0.25,
                         d=0.5, e=1.0, f=0.1, g=0.5, h=0.1, i=0.1,
                         i0=0.25, j=1.0)

INTERIOR_STABLE = dict(r=1.0, k=2.0, a=1.0, a0=0.25, b=1.0, b0=0.25, d=1.0,
                       e=1.0, f=1.0, g=1.0, h=0.25, i=1.0, i0=0.25, j=1.0)

# stable-focus set used for the synthetic-data estimation benchmarks
REFERENCE = dict(r=0.9701107742719246, k=573.2545487545212544,
                 a=0.7668876233328743, a0=0.4686878655732233,
                 b=0.6893067418603573, b0=0.053266947840986595,
                 d=0.42441058569930494, e=0.888598932493589,
                 f=0.46630691773424437, g=0.08334616995047056,
                 h=0.16502232050920586, i=1.05992612257741696,
                 i0=0.105259076974745925, j=0.5320956432008955)

# interior scan finds no admissible root for this draw
NOROOT_CASE = dict(r=1.391226996802409, k=1.4115054112707228,
                   a=5.5473374876564945, a0=0.7224319768563565,
                   b=0.6637868545263941, b0=0.5215145093451167,
                   d=1.6368661638133994, e=2.467431754461647,
                   f=0.9128734964212238, g=0.5106222588691333,
                   h=0.5170658865009429, i=1.6828255072772786,
                   i0=1.8123119252126134, j=1.544226927610764)

# at tol 1e-2 a step overshoots the collapsing prey below zero
COLLAPSE_CASE = dict(r=0.72, k=2.03, a=2.23, a0=0.85, b=2.03, b0=0.76, d=2.67,
                     e=1.26, f=1.47, g=0.59, h=1.45, i=0.90, i0=2.37, j=0.49)

# two admissible interior roots near x = 0.026125 and 0.657764
MULTI2_CASE = dict(r=1.0750765037239864, k=1.2003133696903825,
                   a=7.493074770359758, a0=4.488307531908622,
                   b=0.5053041870530137, b0=0.7946077444972219,
                   d=0.31013313639134477, e=0.6234008107185817,
                   f=1.2872189041848656, g=2.6239554596278487,
                   h=0.5580721241553076, i=0.5925517002022683,
                   i0=0.1794549237444363, j=0.8779788833978804)

# three admissible interior roots
MULTI3_CASE = dict(r=3.6282469437129, k=7.686475547092399,
                   a=0.7230944621177466, a0=0.21236040322329,
                   b=0.7800578612525602, b0=0.7953457447021609,
                   d=0.8590406180709739, e=0.41036411274092044,
                   f=1.5898646931785156, g=1.521361869093817,
                   h=0.30254522884177776, i=1.7495478539062277,
                   i0=5.166254642977647, j=1.1474800371128024)

# estimate seed 0 on the README data (synth of REFERENCE from (4.991, 1.178,
# 0.577) on [0, 5], 40 points, noise 0.02, noise seed 0): an Unstable interior
# point at x = 2.870 and a Stable one at x = 4.989, where the README start settles
README_FIT_CASE = dict(r=1.8100533442382583, k=9.482692337399232,
                       a=1.4972996298258263, a0=0.6778292515106998,
                       b=2.4438057697440385, b0=0.4134043446993021,
                       d=0.852506195467467, e=1.2567018868940347,
                       f=0.7027032179357862, g=0.7349426774417017,
                       h=0.057781206044362834, i=1.4012170314927352,
                       i0=1.4032902381843568, j=1.2072264922465459)


# Draws np.random.default_rng(seed).uniform(0.1, 3, size=(4000, 14))[n] on which
# the 4,096-point grid scan misses admissible interior roots: a root next to
# where z^2 -> 0 or has a pole sits in a cell with a NaN end.  The scan counts
# 0, 1, 1 and 2 roots; the polynomial route finds 1, 2, 2 and 3.
SCAN_MISS_CASES = {
    "rng123-371": dict(
        r=2.824946060020694, k=1.384907477111106,
        a=1.320621681915707, a0=2.4874601590075285,
        b=0.11117273085984793, b0=1.1988956304959666,
        d=2.609661809891794, e=1.2401870460507567,
        f=1.8755943496365708, g=2.3080921273892203,
        h=1.194399847991652, i=2.4350824804363267,
        i0=2.549192232297293, j=0.6759339811159802),
    "rng123-1137": dict(
        r=0.6338001973763998, k=0.6478334792115213,
        a=0.8482659920563368, a0=1.9741349539008035,
        b=1.105094793200091, b0=1.2184907424092175,
        d=2.2309420730081766, e=0.42792396483227657,
        f=1.8701604138044257, g=1.5464658907105164,
        h=2.8093100586706594, i=1.4863885658456686,
        i0=1.6958169156435305, j=1.1981934763718929),
    "rng123-1254": dict(
        r=1.2949911579187492, k=2.166120220653255,
        a=2.5998235780762204, a0=2.4251526778732746,
        b=2.552536964346367, b0=2.598365558800958,
        d=1.6569568025509125, e=0.4664796154578362,
        f=2.053773477555549, g=1.9254168760636434,
        h=2.3730388243577942, i=2.7874851666897835,
        i0=0.5604767118546142, j=2.7345187253153043),
    "rng7-1012": dict(
        r=2.758223732078778, k=0.5969125188681722,
        a=2.47991176094729, a0=1.4039272168211074,
        b=0.16553879678417868, b0=0.9789588886466057,
        d=2.6796985220071, e=0.633154771614717,
        f=0.5791056828296877, g=2.874594256475415,
        h=1.3556672040842392, i=2.747375824139346,
        i0=0.9148428777833904, j=0.2778049719679512),
}


@pytest.fixture(scope="session")
def predscav_params():
    return ModelParams(**PREDSCAV_CASE)


@pytest.fixture(scope="session")
def predprey_params():
    return ModelParams(**PREDPREY_CASE)


@pytest.fixture(scope="session")
def unstable_params():
    return ModelParams(**INTERIOR_UNSTABLE)


@pytest.fixture(scope="session")
def stable_params():
    return ModelParams(**INTERIOR_STABLE)


@pytest.fixture(scope="session")
def reference_params():
    return ModelParams(**REFERENCE)


@pytest.fixture(scope="session")
def reference_dataset(reference_params):
    """Zero-noise 40-point dataset on t in [0, 5] from the reference set."""
    grid = np.linspace(0.0, 5.0, 40)
    return synthesize(reference_params, State(4.991, 1.178, 0.577), grid)


def rand_params(rng, lo=0.1, hi=2.0) -> ModelParams:
    return ModelParams(**{name: float(rng.uniform(lo, hi))
                          for name in PARAM_ORDER})


# The complex step (Squire & Trapp, SIAM Rev. 40:110, 1998): for f real on
# real arguments, f'(u) = Im f(u + i h)/h + O(h^2) with no difference to
# cancel, so h can sit far below the rounding of u.
COMPLEX_STEP = 1e-20


def complex_step_derivatives(p: ModelParams, states) -> np.ndarray:
    """[df/d(x, y, z) | df/dp] of make_rhs at states, shape (n, 3), as an
    array of shape (n, 3, 3 + len(PARAM_ORDER)), parameters in PARAM_ORDER.

    One call of make_rhs on complex arrays takes every direction at once:
    axis 0 of each argument and parameter is the direction it is stepped in.
    """
    states = np.asarray(states, dtype=float)
    step = 1j * COMPLEX_STEP * np.eye(3 + len(PARAM_ORDER))[:, :, None]
    xyz = states.T + step[:, :3]
    stepped = SimpleNamespace(**{name: getattr(p, name) + step[:, 3 + col]
                                 for col, name in enumerate(PARAM_ORDER)})
    f = np.array(make_rhs(stepped)(*xyz.transpose(1, 0, 2)))
    return f.imag.transpose(2, 0, 1) / COMPLEX_STEP
