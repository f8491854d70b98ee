import numpy as np
import pytest

from conftest import (FIXTURES, INTERIOR_STABLE, INTERIOR_UNSTABLE, MULTI2_CASE,
                      MULTI3_CASE, NOROOT_CASE, PREDPREY_CASE, PREDSCAV_CASE,
                      REFERENCE, SCAN_MISS_CASES, rand_params)
from ppsdyn.equilibria import (LABEL_INTERIOR, LABEL_ORIGIN, LABEL_PRED_PREY,
                               LABEL_PRED_SCAV, LABEL_PREY_ONLY,
                               LABEL_SCAV_PREY, SCAN_POINTS, _prey_residuals,
                               all_equilibria,
                               interior_equilibrium_direct,
                               interior_poly_coeffs, interior_poly_crosscheck,
                               positive_real_roots, predprey_equilibria,
                               predscav_equilibria, scavprey_equilibria)
from ppsdyn.model import ModelParams, State, Subsystem, make_rhs, rhs_subsystem


def _residual(p, point, subsystem):
    d = rhs_subsystem(State(*point), p, subsystem)
    return max(abs(v) for v in d)


def test_predscav_pair_fixture(predscav_params):
    entries = predscav_equilibria(predscav_params)
    assert [e.label for e in entries] == [LABEL_ORIGIN, LABEL_PRED_SCAV]
    nontrivial = entries[-1]
    assert nontrivial.subsystem is Subsystem.PRED_SCAV
    assert nontrivial.point[0] == 0.0
    assert nontrivial.point[1] == pytest.approx(22.392305, abs=1e-5)
    assert nontrivial.point[2] == pytest.approx(1.154701, abs=1e-5)
    values = {c.name: c.value for c in nontrivial.existence}
    assert values["f - i0*e > 0"] == pytest.approx(0.375, abs=1e-9)
    assert values["h*f*z0 - i*e > 0"] == pytest.approx(0.038675, abs=1e-5)


def test_predprey_pair_fixture(predprey_params):
    entries = predprey_equilibria(predprey_params)
    assert [e.label for e in entries] == [LABEL_ORIGIN, LABEL_PREY_ONLY,
                                          LABEL_PRED_PREY]
    nontrivial = entries[-1]
    assert nontrivial.point[2] == 0.0
    assert nontrivial.point[0] == pytest.approx(1.154701, abs=1e-5)
    assert nontrivial.point[1] == pytest.approx(0.488034, abs=1e-5)


def test_boundary_pairs_reference_case(reference_params):
    pp = predprey_equilibria(reference_params)[-1]
    assert pp.point[0] == pytest.approx(10.582252, abs=1e-5)
    assert pp.point[1] == pytest.approx(6.275613, abs=1e-5)
    sp = scavprey_equilibria(reference_params)[-1]
    assert sp.point[0] == pytest.approx(3.110294, abs=1e-5)
    assert sp.point[2] == pytest.approx(0.681936, abs=1e-5)


def test_predscav_nonexistence_is_recorded(reference_params):
    nontrivial = predscav_equilibria(reference_params)[-1]
    assert not nontrivial.exists
    assert nontrivial.point is None
    values = {c.name: (c.satisfied, c.value) for c in nontrivial.existence}
    ok, val = values["h*f*z0 - i*e > 0"]
    assert not ok
    assert val == pytest.approx(-0.823041, abs=1e-5)
    assert nontrivial.aux["z0"] == pytest.approx(1.543939, abs=1e-5)


@pytest.mark.parametrize("fixture_name, expected", [
    ("unstable_params", (1.9516293382245729, 0.47015793, 0.510619637)),
    ("stable_params", (1.1331136955358843, 0.33726859, 0.168040476)),
    ("reference_params", (4.498453864146017, 1.16117816, 0.388951751)),
])
def test_interior_fixture_points(request, fixture_name, expected):
    p = request.getfixturevalue(fixture_name)
    eq = interior_equilibrium_direct(p)
    assert eq.exists
    assert eq.point == pytest.approx(expected, abs=1e-6)
    assert _residual(p, eq.point, Subsystem.FULL) < 1e-10


def test_interior_bound_values(stable_params):
    eq = interior_equilibrium_direct(stable_params)
    assert eq.aux["bound_pred"] == pytest.approx(4.0, abs=1e-9)
    assert eq.aux["bound_prey"] == pytest.approx(1.01062, abs=1e-4)
    assert eq.point[2] < min(eq.aux["bound_pred"], eq.aux["bound_prey"])


def test_no_admissible_root_is_an_entry_without_a_point():
    eq = interior_equilibrium_direct(ModelParams(**NOROOT_CASE))
    assert (eq.point, eq.flag, eq.aux) == (None, None, {})


# Degenerate sets.  Tiny a0, d, i0 make N, D and qi exact constants on the
# scan grid: D = f - i0*e = 0 everywhere, or z = 2 and den = h*qi - i*z = 0
# everywhere.  With k = 4097 the grid is 1, 2, ..., 4096 and N = 1 - x^2/4
# is exactly 0 at x = 2, so w = 0 there.  The residual must be NaN at these
# points; a pass that lets them through is finite there.
_TINY = dict(r=1.0, k=1.0, a=1.0, b=1.0, a0=1e-300, d=1e-300, i0=1e-300, b0=1.0, g=1.0, j=3.0)
DEGENERATE = {
    "D=0": (dict(_TINY, e=2.0, f=2.0, i0=1.0, h=1.0, i=1.0), slice(None)),
    "den=0": (dict(_TINY, e=4.0, f=1.0, h=2.0, i=1.0), slice(None)),
    "w=0": (dict(_TINY, k=4097.0, a0=0.25, d=0.5, e=1.0, f=1.0, i0=1.0, h=1.0, i=1.0),
            slice(1, 2)),
}


@pytest.mark.parametrize("name", DEGENERATE)
def test_array_residual_masks_degenerate_points(name):
    case, degenerate = DEGENERATE[name]
    p = ModelParams(**case)
    xs = np.linspace(0.0, p.k, SCAN_POINTS + 2)[1:-1]
    assert np.isnan(_prey_residuals(xs, p)[0][degenerate]).all()


def _prey_residuals_reference(xs, p):
    # _prey_residuals as first written, with 1 + a0 x^2 and 1 + b0 x^2 spelled
    # out at each use
    with np.errstate(all="ignore"):
        N = p.e + (p.a0 * p.e - p.d) * xs * xs
        D = p.f * (1.0 + p.a0 * xs * xs) - p.i0 * N
        w = N / D
        ok = np.isfinite(w) & (w > 0)
        z = np.sqrt(w)
        M = p.j - p.g * xs * xs / (1.0 + p.b0 * xs * xs)
        qi = 1.0 + p.i0 * z * z
        y = M * qi / (p.h * qi - p.i * z)
        ok &= np.isfinite(y) & (y > 0)
        res = (
            p.r * (1.0 - xs / p.k)
            - p.a * xs * y / (1.0 + p.a0 * xs * xs)
            - p.b * xs * z / (1.0 + p.b0 * xs * xs)
        )
    return np.where(ok, res, np.nan), y, z


def test_array_residual_is_bitwise_the_reference_formula():
    cases = [INTERIOR_STABLE, INTERIOR_UNSTABLE, MULTI2_CASE, MULTI3_CASE, NOROOT_CASE,
             PREDPREY_CASE, PREDSCAV_CASE, REFERENCE, *SCAN_MISS_CASES.values(),
             *(case for case, _ in DEGENERATE.values())]
    params = [ModelParams(**case) for case in cases]
    rng = np.random.default_rng(61)
    params += [rand_params(rng, 0.1, 3.0) for _ in range(150)]
    nans = 0
    for p in params:
        xs = np.linspace(0.0, p.k, SCAN_POINTS + 2)[1:-1]
        got, want = _prey_residuals(xs, p), _prey_residuals_reference(xs, p)
        # bytes compare NaN positions and payloads and the sign of zero
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want], p
        nans += int(np.isnan(want[0]).sum())
    assert nans > 0


def test_admissible_roots_are_steady_states_and_bound_the_scan_count():
    rng = np.random.default_rng(2024)
    roots_seen = 0
    for _ in range(1000):
        p = rand_params(rng, 0.1, 3.0)
        report = interior_poly_crosscheck(p)
        roots = np.array(report["admissible_roots"])
        # every sign change the scan counts is a root, so the scan can
        # miss roots but never count more than the polynomial admits
        assert report["scan_sign_changes"] <= len(roots), p
        if roots.size == 0:
            continue
        _, ys, zs = _prey_residuals(roots, p)
        rhs = make_rhs(p)
        for point in zip(roots, ys, zs):
            # each component is a population times a per-capita rate
            assert max(abs(v) for v in rhs(*point)) <= 1e-8 * max(1.0, *point), (p, point)
            roots_seen += 1
    assert roots_seen > 300


def test_secant_polish_lands_steep_roots_on_the_zero():
    # draw 3905 of rng 61: the first eigenvalue root sat 1.4e-12 short of the
    # zero of a residual with slope 7.3e4, leaving a residual of -1.0e-7
    p = ModelParams.from_array(np.random.default_rng(61).uniform(0.1, 3, size=(4000, 14))[3905])
    eq = interior_equilibrium_direct(p)
    assert eq.flag == "multiple_roots"
    roots = np.array(eq.aux["roots"])
    assert roots == pytest.approx([0.5577, 0.5616, 0.5907], abs=1e-4)
    assert np.all(np.abs(_prey_residuals(roots, p)[0]) < 1e-9)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.params")), ids=lambda path: path.stem)
def test_secant_polish_moves_fixture_points_by_rounding_only(path):
    p = ModelParams.load(path)
    xs = np.array([x for x in positive_real_roots(interior_poly_coeffs(p)) if x < p.k])
    res, ys, zs = _prey_residuals(xs, p)
    keep = np.abs(res) < 1e-6
    (eigen_point,) = zip(xs[keep], ys[keep], zs[keep])
    point = interior_equilibrium_direct(p).point
    assert np.all(np.abs(np.subtract(point, eigen_point)) < 1e-10 * np.abs(eigen_point))


def test_two_roots_are_flagged_with_locations():
    eq = interior_equilibrium_direct(ModelParams(**MULTI2_CASE))
    assert eq.flag == "multiple_roots"
    assert eq.aux["roots"] == pytest.approx([0.026125, 0.657764], abs=1e-5)


def test_three_roots_are_flagged_with_locations():
    eq = interior_equilibrium_direct(ModelParams(**MULTI3_CASE))
    assert eq.flag == "multiple_roots"
    assert len(eq.aux["roots"]) == 3
    assert eq.aux["roots"] == sorted(eq.aux["roots"])


def test_all_equilibria_order_and_retagging(stable_params):
    entries = all_equilibria(stable_params)
    assert [e.label for e in entries] == [
        LABEL_ORIGIN, LABEL_PREY_ONLY, LABEL_PRED_SCAV, LABEL_PRED_PREY,
        LABEL_SCAV_PREY, LABEL_INTERIOR,
    ]
    # boundary pairs are re-tagged FULL: their verdict in the full system
    # needs the 3x3 Jacobian, not the 2-D restriction
    assert all(e.subsystem is Subsystem.FULL for e in entries)


@pytest.mark.parametrize("gap, merged", [(1e-12, True), (1e-6, False)])
def test_all_equilibria_merges_a_point_within_the_tolerance(gap, merged):
    # with k = a0 = e = 1 and d = 1 + 1/x0^2 the PredPrey point sits at
    # x = x0, y ~ 2(1 - x0): 2e-12 from the prey-only point (1, 0, 0) when
    # x0 = 1 - 1e-12, which merges it away, and 2e-6 from it when x0 = 1 - 1e-6
    x0 = 1.0 - gap
    p = ModelParams(**{**dict.fromkeys(ModelParams.__dataclass_fields__, 1.0),
                       "d": 1.0 + 1.0 / x0 ** 2})
    labels = [e.label for e in all_equilibria(p)]
    assert labels.count(LABEL_PREY_ONLY) == 1
    assert (LABEL_PRED_PREY not in labels) is merged
    assert predprey_equilibria(p)[-1].exists


def test_all_equilibria_flags_multiple_roots():
    entries = all_equilibria(ModelParams(**MULTI2_CASE))
    interior = entries[-1]
    assert interior.label == LABEL_INTERIOR
    assert interior.flag == "multiple_roots"
    assert not interior.exists
    assert interior.point is None
    assert len(interior.aux["roots"]) == 2


def test_all_equilibria_tolerates_no_root():
    entries = all_equilibria(ModelParams(**NOROOT_CASE))
    interior = entries[-1]
    assert interior.label == LABEL_INTERIOR
    assert not interior.exists
    assert interior.flag is None


def test_residuals_vanish_on_random_draws():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(60):
        p = rand_params(rng, 0.2, 2.0)
        for fn, sub in ((predscav_equilibria, Subsystem.PRED_SCAV),
                        (predprey_equilibria, Subsystem.PRED_PREY),
                        (scavprey_equilibria, Subsystem.SCAV_PREY)):
            for e in fn(p):
                if e.exists:
                    assert _residual(p, e.point, sub) < 1e-8
                    checked += 1
        e = interior_equilibrium_direct(p)
        if e.point is None:
            continue
        assert _residual(p, e.point, Subsystem.FULL) < 1e-8
        checked += 1
    assert checked > 100


def test_positive_real_roots_on_known_cubic():
    # (x - 1)(x - 2)(x + 3) = 6 - 7x + 0x^2 + x^3
    roots = positive_real_roots([6.0, -7.0, 0.0, 1.0])
    assert roots == pytest.approx([1.0, 2.0], abs=1e-9)
    assert positive_real_roots([5.0]) == []
    with pytest.raises(ValueError):
        positive_real_roots([0.0, 0.0])


# coefficients of the hand-transcribed monomial table that the derivation
# replaced, evaluated on each parameter set before the table was deleted
TABLE_COEFFS = [
    (PREDSCAV_CASE, [
        -0.005859375, 0.15234375, -0.265625, 0.67578125, -1.138671875,
        1.1953125, -1.78125, 1.1484375, -1.267578125, 0.65234375, -0.453125,
        0.17578125, -0.087890625]),
    (PREDPREY_CASE, [
        0.0, 0.0, 0.0, 12.0, -12.0, 16.0, -11.0, 5.25, -8.75, 4.5, -4.375,
        3.25, -0.8125]),
    (INTERIOR_UNSTABLE, [
        0.6000000000000001, -0.7620000000000001, -0.24244000000000018, 0.26,
        0.04432499999999647, 0.1565625, 0.05702968749999913,
        -0.01710937500000002, -0.006672265624999901, -0.006777343750000001,
        -0.003008105468749999, 6.152343750000005e-05,
        -3.076171875000003e-07]),
    (INTERIOR_STABLE, [
        2.0625, -0.5625, 1.78125, -1.265625, -0.64453125, 0.0859375,
        -1.09765625, 0.826171875, -0.502197265625, 0.328857421875,
        -0.1082763671875, 0.03631591796875, -0.0090789794921875]),
    (REFERENCE, [
        42220.109294741065, 3332.863251471354, 28585.37926636836,
        3318.0079327591316, 3242.057554506572, 689.3531958431015,
        628.0309610791963, -73.23095224813106, 0.4891958169123404,
        -5.341030566871282, -0.6176587314652353, 0.002187257058172623,
        -1.9077537744137947e-06]),
    (MULTI2_CASE, [
        -0.506471989674574, 22.99339713579118, -142.70327821078024,
        182.0017680967664, -173.8286548264051, 206.62370896391823,
        1583.685506040395, -800.0762141256757, -2219.168412728743,
        -616.6122484872125, 552.1469247665655, 53.59665671023263,
        -22.326110024108846]),
]


@pytest.mark.parametrize("case, expected", TABLE_COEFFS)
def test_derived_poly_matches_transcribed_table(case, expected):
    coeffs = interior_poly_coeffs(ModelParams(**case))
    expected = np.array(expected)
    assert coeffs.shape == (13,)
    assert np.max(np.abs(coeffs - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_poly_crosscheck_agrees_on_every_unique_root():
    rng = np.random.default_rng(11)
    unique = 0
    for _ in range(300):
        p = rand_params(rng, 0.1, 3.0)
        if interior_equilibrium_direct(p).point is None:
            continue
        unique += 1
        assert interior_poly_crosscheck(p)["agrees"], p
    assert unique > 50


def _near_one_of(x, roots):
    # the secant polish moves an eigenvalue root by far less than 1e-10 relative
    return any(abs(x - r) < 1e-10 * abs(r) for r in roots)


def test_poly_crosscheck_agreement(request):
    for name in ("unstable_params", "stable_params", "reference_params"):
        p = request.getfixturevalue(name)
        report = interior_poly_crosscheck(p)
        assert set(report) == {"admissible_roots", "agrees", "scan_sign_changes"}
        assert report["agrees"]
        assert report["scan_sign_changes"] == 1
        assert report["admissible_roots"] == [interior_equilibrium_direct(p).point[0]]
        coeffs = interior_poly_coeffs(p)
        assert len(coeffs) == 13
        # the admissible root is a polynomial root after one secant step
        assert _near_one_of(report["admissible_roots"][0], positive_real_roots(coeffs))


def test_poly_crosscheck_ignores_inadmissible_roots(predscav_params):
    # this set has a second positive polynomial root whose y/z pair is
    # inadmissible; only x* is counted, so the scan's one root agrees
    poly_roots = positive_real_roots(interior_poly_coeffs(predscav_params))
    report = interior_poly_crosscheck(predscav_params)
    assert len(poly_roots) == 2
    assert len(report["admissible_roots"]) == 1
    assert _near_one_of(report["admissible_roots"][0], poly_roots)
    assert report["agrees"]


def test_poly_crosscheck_survives_multiple_roots():
    report = interior_poly_crosscheck(ModelParams(**MULTI2_CASE))
    assert report["admissible_roots"] == pytest.approx([0.026125, 0.657764], abs=1e-5)
    assert report["scan_sign_changes"] == 2
    assert report["agrees"]


SCAN_MISS_ROOTS = {
    "rng123-371": [0.6104655437],
    "rng123-1137": [0.4315090616, 0.5555999096],
    "rng123-1254": [0.1817787742, 0.9419313091],
    "rng7-1012": [0.0073263719, 0.2853517532, 0.3844385616],
}


@pytest.mark.parametrize("name", SCAN_MISS_CASES)
def test_roots_the_scan_misses_are_found_and_flagged(name):
    p = ModelParams(**SCAN_MISS_CASES[name])
    roots = SCAN_MISS_ROOTS[name]
    entry = next(eq for eq in all_equilibria(p) if eq.label == LABEL_INTERIOR)
    if len(roots) == 1:
        assert entry.point[0] == pytest.approx(roots[0], abs=1e-9)
        assert _residual(p, entry.point, Subsystem.FULL) <= 1e-8 * max(1.0, *entry.point)
    else:
        assert entry.flag == "multiple_roots"
        assert entry.aux["roots"] == pytest.approx(roots, abs=1e-9)
    report = interior_poly_crosscheck(p, entry)
    assert report["admissible_roots"] == pytest.approx(roots, abs=1e-9)
    assert report["scan_sign_changes"] == len(roots) - 1
    assert report["agrees"] is False


def test_poly_crosscheck_reuses_the_interior_entry(request):
    # analyze passes the entry all_equilibria already holds; the report must
    # equal the one from the cross-check's own solve, flagged cases included
    cases = [request.getfixturevalue(name) for name in
             ("stable_params", "unstable_params", "predscav_params")]
    cases += [ModelParams(**MULTI2_CASE), ModelParams(**NOROOT_CASE)]
    for p in cases:
        entry = next(eq for eq in all_equilibria(p) if eq.label == LABEL_INTERIOR)
        assert interior_poly_crosscheck(p, entry) == interior_poly_crosscheck(p)
