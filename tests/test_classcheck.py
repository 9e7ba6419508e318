"""Curvature-condition checks, arc-integral criterion, convexity-type radii.

The branched-exponent family has curvature 1 + z h''/h' = gamma + (1-gamma)/(1-z),
whose real part on the radius (-r, r) ranges over ((1-gamma*r)/(1-r), (1+gamma*r)/(1+r)).
Both endpoints are used below as analytic oracles: the infimum diverges to
-infinity as r -> 1, the supremum tends to (1+gamma)/2.
"""

import cmath
import math

import numpy as np
import pytest

from harmap.classcheck import (
    DEFAULT_RMAX,
    DiskGrid,
    cc_radius,
    check_membership,
    check_pbeta,
    check_theorem_b_condition,
    curvature,
    curvature_extrema,
    kaplan_min_arc_integral,
    shear_function,
)
from harmap.errors import AdmissibilityError, ParameterError
from harmap.mappings import (
    ClassParams,
    ExtremalSpec,
    HarmonicMapping,
    PBetaParams,
    PowerKernel,
    make_bshouty_lyzzaik,
    make_counterexample,
    make_extremal,
    make_from_h,
    make_identity,
)
from harmap.series import PowerSeries


# -- curvature and its extrema ------------------------------------------------


def test_curvature_of_identity_is_one():
    f = make_identity()
    rep = curvature_extrema(f)
    assert rep.inf_est == pytest.approx(1.0, abs=1e-10)
    assert rep.sup_est == pytest.approx(1.0, abs=1e-10)


def test_curvature_pointwise_formula_for_branched_family():
    gamma = 1.25
    f = make_counterexample(gamma)
    rng = np.random.default_rng(61)
    for _ in range(25):
        z = 0.9 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
        want = gamma + (1.0 - gamma) / (1.0 - z)
        assert abs(curvature(f, z) - want) < 1e-10


def test_quadratic_shear_sup_matches_limit():
    # sup over the disk of Re(1 + z h''/h') for h = z - 0.3 z^2 is 11/8
    f = make_bshouty_lyzzaik(0.3)
    rep = curvature_extrema(f)
    assert rep.sup_est == pytest.approx(11.0 / 8.0, abs=1e-3)


def test_branched_family_curvature_extrema():
    gamma = 1.25
    f = make_counterexample(gamma)
    rep = curvature_extrema(f)
    r = DEFAULT_RMAX
    assert rep.sup_est == pytest.approx((1.0 + gamma * r) / (1.0 + r), abs=1e-6)
    assert rep.inf_est == pytest.approx((1.0 - gamma * r) / (1.0 - r), abs=1e-4)
    assert rep.inf_est < -1000.0  # diverges near the boundary


def test_grid_refinement_never_loosens_extrema():
    # a larger circle with more angles bounds a disk that holds the smaller one
    f = make_bshouty_lyzzaik(0.3)
    coarse = curvature_extrema(f, DiskGrid(0.9, angles_per_circle=128))
    finer = curvature_extrema(f, DiskGrid(0.99, angles_per_circle=256))
    assert finer.inf_est <= coarse.inf_est + 1e-15
    assert finer.sup_est >= coarse.sup_est - 1e-15


def test_conjugate_grid_symmetry_of_argmin():
    # real-coefficient family: curvature at conj(z) equals curvature at z
    f = make_counterexample(1.25)
    rep = curvature_extrema(f)
    z = rep.argmin_z
    assert abs(curvature(f, z).real - curvature(f, np.conj(z)).real) < 1e-12


def _same(a, b) -> bool:
    return repr(float(a)) == repr(float(b))


def _refines(got, sampled, upper) -> bool:
    """``got`` is the sampled extremum, or more extreme than it by more than
    the refinement margin ``1e-12 max(1, |sampled|)``."""
    gain = got - sampled if upper else sampled - got
    return _same(got, sampled) or gain > 1e-12 * max(1.0, abs(sampled))


def _assert_band_matches_views(report, f, bound, upper, zeta, n, tol=1e-8):
    """``report`` against a reference built from the per-view evaluators: each
    extremum is the per-view value at its witness, bit for bit, and at least as
    extreme as the sampled one (equal to it unless refined past the margin)."""

    def views(z):
        hp, hpp, gp = f.h.deriv(z), f.h.deriv2(z), f.g.deriv(z)
        return np.real(1.0 + z * hpp / hp), np.abs(gp - zeta * z**n * hp)

    z = DiskGrid().points()
    curv, res = views(z)
    i = int(np.argmax(curv) if upper else np.argmin(curv))
    k = int(np.argmax(res))
    d = report.details
    got_curv, got_res = d["curvature_sup" if upper else "curvature_inf"], d["dilatation_residual"]
    assert _refines(got_curv, curv[i], upper)
    assert _refines(got_res, res[k], True)
    margin_curv = bound - got_curv if upper else got_curv - bound
    margin_resid = tol - got_res
    assert _same(d["curvature_margin"], margin_curv)
    assert _same(d["residual_margin"], margin_resid)
    curv_is_tighter = margin_curv <= margin_resid
    wv, margin = (got_curv, margin_curv) if curv_is_tighter else (got_res, margin_resid)
    assert _same(report.margin, margin)
    assert _same(report.witness["value"], wv)
    wz = complex(*report.witness["z"])
    assert abs(wz) == pytest.approx(DEFAULT_RMAX, rel=1e-15)
    assert _same(views(np.array([wz]))[0 if curv_is_tighter else 1][0], wv)
    rep = curvature_extrema(f)
    got = (rep.sup_est, rep.argmax_z) if upper else (rep.inf_est, rep.argmin_z)
    assert _same(got[0], got_curv)
    assert _same(views(np.array([got[1]]))[0][0], got_curv)
    if curv_is_tighter:
        assert got[1] == wz


_BAND_CASES = [
    (make_counterexample(1.25), -0.5, 1.0, 1),
    (make_extremal(ExtremalSpec(ClassParams(0.5, 0.5, 1))), 0.5, 0.5, 1),
    (make_extremal(ExtremalSpec(ClassParams(0.2, 0.3 - 0.1j, 2))), 0.2, 0.3 - 0.1j, 2),
    (make_extremal(ExtremalSpec(ClassParams(-0.25, 0.15j, 3), -1.0)), -0.25, 0.15j, 3),
    (make_extremal(ExtremalSpec(ClassParams(0.3, 0.25 + 0.2j, 1), cmath.exp(0.7j))),
     0.3, 0.25 + 0.2j, 1),
    (HarmonicMapping(PowerKernel(-0.6, cmath.exp(2.1j)), 0.2 - 0.15j, 2, "power"),
     -0.5, 0.2 - 0.15j, 2),
    (make_bshouty_lyzzaik(0.3), -0.5, 1.0, 1),
    (make_from_h(PowerSeries([0.0, 1.0, 0.2 - 0.1j, 0.05j]), 0.2 + 0.2j, 2),
     -0.5, 0.2 + 0.2j, 2),
    (make_identity(), 0.5, 0.0, 1),
]


@pytest.mark.parametrize("f, alpha, zeta, n", _BAND_CASES,
                         ids=[c[0].label for c in _BAND_CASES])
def test_band_check_is_bit_identical_to_the_per_view_reference(f, alpha, zeta, n):
    # the family's own dilatation (residual 0) and a mismatched one, whose
    # residual is the tighter condition
    for z_ in (zeta, 0.9 * zeta + 0.03):
        report = check_membership(f, ClassParams(alpha, z_, n))
        _assert_band_matches_views(report, f, alpha, False, z_, n)
    report = check_pbeta(f, PBetaParams(1.4))
    _assert_band_matches_views(report, f, 1.4, True, 1.0, 1)


def test_disk_grid_validation():
    with pytest.raises(ParameterError):
        DiskGrid(0.0, angles_per_circle=64)  # not a circle in the disk
    with pytest.raises(ParameterError):
        DiskGrid(1.0, angles_per_circle=64)  # touches the boundary
    with pytest.raises(ParameterError):
        DiskGrid(0.5, angles_per_circle=4)
    grid = DiskGrid()
    assert grid.radius == pytest.approx(DEFAULT_RMAX)
    # the document keeps the multi-circle keys: one radius
    assert grid.to_dict() == {"radii": [DEFAULT_RMAX], "angles_per_circle": 512}


def test_curvature_extrema_needs_a_kernel():
    # the zero test of h' needs the kernel, which a bare analytic function lacks
    with pytest.raises(ParameterError):
        curvature_extrema(make_identity().h)


def test_interior_zero_of_h_prime_fails_the_check():
    # h = z - z^2: h' = 1 - 2z vanishes at 1/2.  On the circle |z| = r_max the
    # curvature real part stays in [5/3, 3], but it is not harmonic across the
    # pole at 1/2, so only the zero test can fail this map.
    f = make_from_h(PowerSeries([0.0, 1.0, -1.0]), 0.5, 1)
    assert not f.kernel.zero_free(DEFAULT_RMAX) and f.kernel.zero_free(0.49)
    report = check_membership(f, ClassParams(0.5, 0.5, 1))
    assert not report.passed
    assert report.details["curvature_inf"] == -math.inf
    assert report.witness["z"] == [0.5, 0.0]
    assert "h' vanishes" in report.details["reason"] and "h' vanishes" in report.summary()
    rep = curvature_extrema(f)
    assert (rep.inf_est, rep.sup_est) == (-math.inf, math.inf)
    assert rep.argmin_z == rep.argmax_z == 0.5
    # on |z| <= 1/4, clear of the zero, the infimum (1 - 4r)/(1 - 2r) is 0
    inner = check_membership(f, ClassParams(-0.5, 0.5, 1), grid=DiskGrid(0.25))
    assert inner.passed, inner.summary()
    assert inner.details["curvature_inf"] == pytest.approx(0.0, abs=1e-15)


def test_extremum_between_samples_is_recovered():
    # delta rotated by half an angle step puts the singular direction, where
    # Re(1 + z h''/h') ~ 1/(1 - r), between two sample points
    delta = cmath.exp(1j * math.pi / 512)
    f = make_extremal(ExtremalSpec(ClassParams(0.5, 0.5, 1), delta))
    report = check_pbeta(f, PBetaParams(1.5))
    assert not report.passed
    assert report.details["curvature_sup"] >= 0.999 / (1.0 - DEFAULT_RMAX)
    assert curvature_extrema(f).sup_est == report.details["curvature_sup"]


def _narrow_dip_h():
    # h' = (1 - z/2)(1 - z/a)(1 - z/conj a) with a 2e-6 beyond the sample
    # circle, between two sample angles.  Each root adds Re z/(z - a) to the
    # curvature: about -0.05 at the samples, about -r_max/2e-6 at r_max a/|a|.
    # The sampled infimum, about 1.0, sits at angle 0, far from that dip.
    a = (DEFAULT_RMAX + 2e-6) * cmath.exp(1j * 511 * math.pi / 512)
    hp = np.polynomial.polynomial.polyfromroots([2.0, a, a.conjugate()]).real
    hp = hp / hp[0]
    return a, [0.0, *(hp / np.arange(1, len(hp) + 1))]


def test_narrow_dip_at_a_root_direction_fails_the_check():
    a, coeffs = _narrow_dip_h()
    f = make_from_h(PowerSeries(coeffs), 0.5, 1)
    assert f.kernel.zero_free(DEFAULT_RMAX)
    sampled = np.real(curvature(f, DiskGrid().points()))
    assert np.min(sampled) > 0.9 and np.argmin(sampled) == 0
    report = check_membership(f, ClassParams(0.5, 0.5, 1))
    assert not report.passed
    dip = 1.0 + sum((z / (z - b)).real for z in [DEFAULT_RMAX * a / abs(a)]
                    for b in (2.0, a, a.conjugate()))
    assert report.details["curvature_inf"] <= dip < -4e5
    wz = complex(*report.witness["z"])
    assert abs(cmath.phase(wz) - cmath.phase(a)) < 2.0 * math.pi / 512
    assert curvature_extrema(f).inf_est == report.details["curvature_inf"]


# -- class membership ---------------------------------------------------------


def test_extremal_member_passes_its_own_class():
    params = ClassParams(0.5, 0.5, 1)
    f = make_extremal(ExtremalSpec(params, 1.0))
    report = check_membership(f, params)
    assert report.passed, report.summary()
    assert report.details["curvature_inf"] > 0.5


def test_branched_family_fails_near_boundary():
    # curvature infimum (1 - gamma*r)/(1 - r) falls below -1/2 once r > 6/7,
    # so on the default near-boundary grid membership at alpha = -1/2 fails
    f = make_counterexample(1.25)
    report = check_membership(f, ClassParams(-0.5, 1.0, 1))
    assert not report.passed
    assert report.details["curvature_inf"] < -0.5


def test_branched_family_passes_on_inner_subdisk():
    # same mapping, same class, but estimated only up to r = 0.85 < 6/7
    f = make_counterexample(1.25)
    grid = DiskGrid(0.85, angles_per_circle=256)
    report = check_membership(f, ClassParams(-0.5, 1.0, 1), grid=grid)
    assert report.passed, report.summary()
    # analytic crossover check: infimum at r is (1 - gamma*r)/(1 - r)
    assert (1.0 - 1.25 * 0.85) / (1.0 - 0.85) > -0.5
    assert (1.0 - 1.25 * 0.875) / (1.0 - 0.875) < -0.5


def test_membership_checks_dilatation_residual():
    # bl has dilatation z, so it fails the class with zeta = 0.9 ... n = 1
    f = make_bshouty_lyzzaik(0.3)
    report = check_membership(f, ClassParams(0.9, 1.0, 1))
    assert not report.passed


def test_pbeta_acceptance_and_rejection():
    f = make_counterexample(1.25)
    ok = check_pbeta(f, PBetaParams(1.125))
    assert ok.passed, ok.summary()
    bad = check_pbeta(f, PBetaParams(1.01))
    assert not bad.passed
    # supremum tends to (1 + gamma)/2 = 9/8 from below
    assert ok.details["curvature_sup"] == pytest.approx(1.125, abs=1e-4)


def test_theorem_b_variant_delegates_to_membership():
    f = make_counterexample(1.25)
    report = check_theorem_b_condition(f, 1.0, 1.0, 1)
    # same curvature blow-up as the alpha = -1/2 membership check
    assert not report.passed
    assert report.check == "theorem-b"
    assert report.details["k"] == 1.0


def test_theorem_b_parameter_validation():
    f = make_counterexample(1.25)
    with pytest.raises(ParameterError):
        check_theorem_b_condition(f, 0.5, 1.0, 1)  # |lam| != 1
    with pytest.raises(AdmissibilityError):
        check_theorem_b_condition(f, 1.0, 0.6, 2)  # k above 1/(2n-1) = 1/3


# -- arc-integral criterion ---------------------------------------------------


def _arc_integrand(F, r, M):
    theta = np.linspace(0.0, 2.0 * math.pi, M, endpoint=False)
    z = r * np.exp(1j * theta)
    return (1.0 + z * F.deriv2(z) / F.deriv(z)).real


def _brute_min_arc(F, r, M):
    """O(M^2) reference: trapezoid integral over every proper arc."""
    u = _arc_integrand(F, r, M)
    u2 = np.concatenate([u, u])
    dtheta = 2.0 * math.pi / M
    csum = np.concatenate([[0.0], np.cumsum(u2)])
    best = math.inf
    for j1 in range(M):
        j2 = np.arange(j1 + 1, j1 + M)
        interior = csum[j2] - csum[j1 + 1]
        vals = dtheta * (0.5 * u2[j1] + interior + 0.5 * u2[j2])
        best = min(best, float(vals.min()))
    return best


def test_kaplan_matches_brute_force():
    rng = np.random.default_rng(67)
    f = make_extremal(ExtremalSpec(ClassParams(-0.25, 1.0 / 3.0, 2), 1.0))
    for _ in range(6):
        lam = np.exp(2j * math.pi * rng.uniform())
        r = rng.uniform(0.3, 0.9)
        F = shear_function(f.h, 2, lam)
        fast = kaplan_min_arc_integral(F, r, M=128)
        brute = _brute_min_arc(F, r, 128)
        assert abs(fast - brute) < 1e-12, (lam, r)


def test_full_circle_integral_is_two_pi():
    # argument principle: F' zero-free in |z| <= r makes the closed integral 2*pi
    f = make_bshouty_lyzzaik(0.3)
    for lam in (1.0, np.exp(0.7j), -1.0):
        F = shear_function(f.h, 1, lam)
        u = _arc_integrand(F, 0.9, 4096)
        full = u.sum() * 2.0 * math.pi / 4096
        assert full == pytest.approx(2.0 * math.pi, abs=1e-9)


def test_kaplan_min_at_most_full_circle():
    f = make_bshouty_lyzzaik(0.3)
    F = shear_function(f.h, 1, 1.0)
    assert kaplan_min_arc_integral(F, 0.9) <= 2.0 * math.pi + 1e-12


def test_kaplan_validates_sampling():
    f = make_identity()
    F = shear_function(f.h, 1, 1.0)
    with pytest.raises(ParameterError):
        kaplan_min_arc_integral(F, 0.5, M=32)


def test_shear_function_derivatives():
    f = make_bshouty_lyzzaik(0.2)
    lam = np.exp(0.3j)
    F = shear_function(f.h, 2, lam)
    rng = np.random.default_rng(71)
    for _ in range(10):
        z = 0.7 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
        want = f.h.deriv(z) * (1.0 - lam * z**2)
        assert abs(F.deriv(z) - want) < 1e-12
        # second derivative consistent with a central difference of F'
        step = 1e-6
        fd = (F.deriv(z + step) - F.deriv(z - step)) / (2 * step)
        assert abs(F.deriv2(z) - fd) < 1e-5


# -- close-to-convexity radius ------------------------------------------------


def test_cc_radius_closed_form():
    assert cc_radius(-0.25, 2) == pytest.approx(1.0 / 3.0, abs=1e-15)
    alpha, n = -0.1, 3
    want = ((1.0 + 2 * alpha) / (1.0 + 2 * n + 2 * alpha)) ** (1.0 / n)
    assert cc_radius(alpha, n) == pytest.approx(want, abs=1e-15)
    assert cc_radius(-0.1, 3) == pytest.approx(0.4899, abs=5e-4)


def test_cc_radius_monotone():
    alphas = np.linspace(-0.45, -0.05, 9)
    vals = [cc_radius(a, 2) for a in alphas]
    assert all(x < y for x, y in zip(vals, vals[1:]))  # increasing in alpha
    # in n the closed form ((1+2a)/(1+2n+2a))^(1/n) is strictly increasing
    # (base ~ c/n shrinks but the n-th root wins; the limit is 1):
    ns = [2, 3, 4, 5, 8]
    vals_n = [cc_radius(-0.25, n) for n in ns]
    assert all(x < y for x, y in zip(vals_n, vals_n[1:]))
    assert vals_n[0] == pytest.approx(1.0 / 3.0)


def test_cc_radius_domain():
    for alpha, n in ((0.0, 2), (-0.5, 2), (0.2, 3), (-0.25, 1)):
        with pytest.raises(ParameterError):
            cc_radius(alpha, n)
