"""Sharp coefficient, growth, covering, and area bounds.

Oracles used here are independent of the implementation under test:
closed-form antiderivatives, textbook hypergeometric identities via mpmath,
and exact polar integration of monomial Jacobians.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

mpmath = pytest.importorskip("mpmath")

from harmap import bounds
from harmap.bounds import (
    _binomial_moduli,
    _parseval_terms,
    _power_tail,
    area,
    area_bounds,
    area_route,
    coeff_bound_a,
    coeff_bound_b,
    covering_radius,
    default_lattice,
    growth_bounds,
    verify_area_sandwich,
    verify_coeff_relation,
    verify_coeff_sharpness,
    verify_covering_consistency,
    verify_growth_consistency,
    verify_sharpness,
)
from harmap.errors import ParameterError
from harmap.mappings import (
    ClassParams,
    ExtremalSpec,
    HarmonicMapping,
    PowerKernel,
    family_from_spec,
    make_bshouty_lyzzaik,
    make_extremal,
    make_from_h,
    make_identity,
)
from harmap.quadrature import disk_integral
from harmap.series import PowerSeries


# -- coefficient bounds -------------------------------------------------------


def test_coeff_bound_a_closed_cases():
    # alpha = 0: prod_{j=2..k} j / k! = 1; alpha = 1/2: (k-1)!/k! = 1/k
    for k in range(2, 13):
        assert coeff_bound_a(k, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert coeff_bound_a(k, 0.5) == pytest.approx(1.0 / k, abs=1e-15)


def test_coeff_bound_internal_identity():
    # bound_b(k) = |zeta| * k * bound_a(k) / (k + n) for k >= 2
    for alpha in (0.0, 0.25, 0.5, 0.75):
        for n in (1, 2, 3):
            zeta = 0.8 / (2 * n - 1)
            for k in range(2, 13):
                lhs = coeff_bound_b(k, n, alpha, zeta)
                rhs = abs(zeta) * k * coeff_bound_a(k, alpha) / (k + n)
                assert lhs == pytest.approx(rhs, rel=1e-14), (alpha, n, k)


def test_coeff_bound_b_first_index():
    assert coeff_bound_b(1, 1, 0.3, 0.9) == pytest.approx(0.9 / 2.0)
    assert coeff_bound_b(1, 3, 0.3, 0.2) == pytest.approx(0.2 / 4.0)


def test_extremal_coefficients_attain_bounds():
    alpha, n = 0.5, 1
    zeta = 0.9
    th, tg = make_extremal(ExtremalSpec(ClassParams(alpha, zeta, n), 1.0)).taylor(12)
    # alpha = 1/2 extremal analytic part is -log(1-z): a_k = 1/k
    for k in range(2, 13):
        assert abs(th.coeff(k)) == pytest.approx(
            coeff_bound_a(k, alpha), abs=1e-12)
    for k in range(1, 13):
        assert abs(tg.coeff(k + n)) == pytest.approx(
            coeff_bound_b(k, n, alpha, zeta), abs=1e-12)


def test_verify_coeff_relation_on_extremal():
    params = ClassParams(0.25, 0.3, 2)
    f = make_extremal(ExtremalSpec(params, 1.0))
    report = verify_coeff_relation(f, params.n, params.zeta, K=10)
    assert report.passed, report.summary()
    assert report.margin < 1e-12


def test_verify_coeff_relation_reads_the_orders_it_needs():
    # a polynomial map's arrays are padded to any K, and a mismatched n is
    # read past the map's own K + n
    report = verify_coeff_relation(make_bshouty_lyzzaik(0.3), 1, 1, K=12)
    assert report.passed and report.details["max_residual"] == 0.0
    assert not verify_coeff_relation(make_bshouty_lyzzaik(0.3), 3, 1, K=12).passed


def test_verify_coeff_relation_flags_mismatch():
    # a shear with zeta = 0.5 checked against zeta = 0.4 must fail
    h = PowerSeries([0.0, 1.0, 0.25, 0.125] + [0.0] * 10)
    f = make_from_h(h, 0.5, 1)
    report = verify_coeff_relation(f, 1, 0.4, K=3, tol=1e-12)
    assert not report.passed


def test_verify_coeff_sharpness_report():
    spec = ExtremalSpec(ClassParams(0.0, 0.3, 2), 1.0)
    report = verify_coeff_sharpness(spec, K=12)
    assert report.passed, report.summary()


# -- growth bounds ------------------------------------------------------------


def test_growth_half_alpha_zero_zeta_logs():
    # alpha = 1/2, zeta = 0: Phi = log(1+r), Psi = -log(1-r)
    params = ClassParams(0.5, 0.0, 1)
    for r in (0.2, 0.5, 0.8):
        gb = growth_bounds(r, params)
        assert gb.phi == pytest.approx(math.log1p(r), abs=1e-12)
        assert gb.psi == pytest.approx(-math.log1p(-r), abs=1e-12)


def test_growth_alpha_zero_rational():
    # alpha = 0, zeta = 0: Phi = r/(1+r), Psi = r/(1-r)
    params = ClassParams(0.0, 0.0, 1)
    gb = growth_bounds(0.5, params)
    assert gb.phi == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert gb.psi == pytest.approx(1.0, abs=1e-12)


def test_growth_small_r_limit():
    params = ClassParams(0.25, 0.3, 2)
    gb = growth_bounds(1e-8, params)
    assert abs(gb.phi) < 1e-7
    assert abs(gb.psi) < 1e-7


def test_growth_closed_form_matches_quadrature():
    params = ClassParams(0.25, 0.4, 1)
    for r in (0.3, 0.7, 0.95):
        closed = growth_bounds(r, params, mode="closed-form")
        quad = growth_bounds(r, params, mode="quadrature")
        assert closed.phi == pytest.approx(quad.phi, abs=1e-10)
        assert closed.psi == pytest.approx(quad.psi, abs=1e-10)


def test_growth_matches_direct_integral_oracle():
    # Phi(r) = int_0^r (1 - |zeta| t^n)(1+t)^(2a-2) dt, Psi with signs flipped
    alpha, zeta, n = 0.3, 0.25, 2
    params = ClassParams(alpha, zeta, n)
    for r in (0.4, 0.9):
        phi_want = float(mpmath.quad(
            lambda t: (1 - zeta * t**n) * (1 + t) ** (2 * alpha - 2), [0, r]))
        psi_want = float(mpmath.quad(
            lambda t: (1 + zeta * t**n) * (1 - t) ** (2 * alpha - 2), [0, r]))
        gb = growth_bounds(r, params)
        assert gb.phi == pytest.approx(phi_want, abs=1e-11)
        assert gb.psi == pytest.approx(psi_want, abs=1e-11)


def test_growth_ordering_and_monotonicity():
    params = ClassParams(0.25, 0.3, 1)
    rs = np.linspace(0.05, 0.95, 10)
    phis = [growth_bounds(r, params).phi for r in rs]
    psis = [growth_bounds(r, params).psi for r in rs]
    assert all(p <= q for p, q in zip(phis, psis))
    assert all(x < y for x, y in zip(phis, phis[1:]))
    assert all(x < y for x, y in zip(psis, psis[1:]))


def test_growth_near_one_regression():
    gb = growth_bounds(1.0 - 1e-6, ClassParams(0.5, 0.9, 1))
    assert gb.phi == pytest.approx(0.4169795930638355, rel=1e-9)
    assert gb.psi == pytest.approx(25.349470960077483, rel=1e-9)


def test_growth_complex_zeta_projected_with_note():
    gb_complex = growth_bounds(0.5, ClassParams(0.25, 0.3j, 1))
    gb_real = growth_bounds(0.5, ClassParams(0.25, 0.3, 1))
    assert gb_complex.phi == pytest.approx(gb_real.phi, abs=1e-13)
    assert gb_complex.psi == pytest.approx(gb_real.psi, abs=1e-13)
    assert gb_complex.notes


def test_growth_rejects_negative_alpha():
    with pytest.raises(ParameterError):
        growth_bounds(0.5, ClassParams(-0.25, 0.0, 1))


def test_verify_growth_consistency_lattice_point():
    report = verify_growth_consistency(
        ClassParams(0.75, 0.99, 1), r_list=(0.1, 0.5, 0.9))
    assert report.passed, report.summary()
    assert report.margin < 1e-9


def test_verify_sharpness_extremal_attains_growth():
    report = verify_sharpness(ClassParams(0.5, 0.5, 1),
                              r_list=(0.1, 0.3, 0.5, 0.7, 0.9))
    assert report.passed, report.summary()


def test_sharpness_direct_value():
    # zeta = 0, alpha = 0, r = 1/2: |h(0.5)| = |0.5/(1-0.5)| = 1 = Psi
    f = make_extremal(ExtremalSpec(ClassParams(0.0, 0.0, 1), 1.0))
    assert abs(f(0.5)) == pytest.approx(1.0, abs=1e-10)
    assert growth_bounds(0.5, ClassParams(0.0, 0.0, 1)).psi == pytest.approx(1.0)


# -- covering radius ----------------------------------------------------------


def test_covering_radius_log2():
    got = covering_radius(ClassParams(0.5, 0.0, 1))
    assert got == pytest.approx(math.log(2.0), abs=1e-12)


def test_covering_radius_half():
    got = covering_radius(ClassParams(0.0, 0.0, 1))
    assert got == pytest.approx(0.5, abs=1e-12)


def test_covering_radius_with_full_dilatation():
    # alpha = 1/2, zeta = 1, n = 1: int_0^1 (1-t)/(1+t) dt = 2 log 2 - 1
    got = covering_radius(ClassParams(0.5, 1.0, 1))
    want = 2.0 * math.log(2.0) - 1.0
    assert got == pytest.approx(want, abs=1e-9)
    oracle = float(mpmath.quad(lambda t: (1 - t) / (1 + t), [0, 1]))
    assert got == pytest.approx(oracle, abs=1e-9)


def test_covering_equals_growth_limit():
    report = verify_covering_consistency(ClassParams(0.25, 0.3, 2))
    assert report.passed, report.summary()


# -- area ---------------------------------------------------------------------


def test_identity_area():
    f = make_identity()
    assert area(f, 0.5) == pytest.approx(math.pi * 0.25, rel=1e-9)


def test_monomial_shear_area_closed_form():
    # h = z, g = zeta z^(n+1)/(n+1): A = pi r^2 - pi |zeta|^2 r^(2n+2)/(n+1)
    for zeta, n, r in ((0.6, 1, 0.7), (0.3, 2, 0.5), (0.2, 3, 0.8)):
        h = PowerSeries([0.0, 1.0] + [0.0] * (n + 1))
        f = make_from_h(h, zeta, n, require_admissible=False)
        want = math.pi * r * r - math.pi * zeta * zeta * r ** (2 * n + 2) / (n + 1)
        assert area(f, r) == pytest.approx(want, rel=1e-9), (zeta, n, r)


def test_extremal_area_poisson_oracle():
    # alpha = 1/2, zeta = 0: h' = 1/(1-z); the angular mean of 1/|1-z|^2 on
    # |z| = rho is 1/(1-rho^2), so the area over |z| < 1/2 is pi log(4/3)
    f = make_extremal(ExtremalSpec(ClassParams(0.5, 0.0, 1), 1.0))
    want = math.pi * math.log(4.0 / 3.0)
    assert area(f, 0.5) == pytest.approx(want, rel=1e-9)
    assert want == pytest.approx(0.9037798853840013, abs=1e-15)


def test_area_bounds_closed_form_oracle():
    # alpha = 1/2, zeta = 0, r = 1/2:
    #   lower = 2 pi int rho/(1+rho)^2 = 2 pi (log(3/2) - 1/3)
    #   upper = 2 pi int rho/(1-rho)^2 = 2 pi (1 - log 2)
    ab = area_bounds(ClassParams(0.5, 0.0, 1), 0.5)
    assert ab.lower == pytest.approx(
        2.0 * math.pi * (math.log(1.5) - 1.0 / 3.0), abs=1e-10)
    assert ab.upper == pytest.approx(
        2.0 * math.pi * (1.0 - math.log(2.0)), abs=1e-10)
    assert ab.lower == pytest.approx(0.4532173074460057, abs=1e-12)
    assert ab.upper == pytest.approx(1.9280131265723823, abs=1e-12)


def test_area_bounds_small_r_vanish():
    ab = area_bounds(ClassParams(0.25, 0.3, 1), 1e-6)
    assert 0.0 <= ab.lower < 1e-11
    assert 0.0 <= ab.upper < 1e-11


def test_area_sandwich_spot_check():
    report = verify_area_sandwich(ClassParams(0.5, 0.5, 1), r_list=(0.3, 0.6))
    assert report.passed, report.summary()


def _area_families():
    """Every family with the radii its area is checked at."""
    for params in default_lattice():
        yield make_extremal(ExtremalSpec(params, 1.0)), (0.2, 0.5, 0.8)
    for spec in ("identity", "bl:lam=0.3", "bl:lam=0.45",
                 "counterexample:gamma=5/4", "counterexample:gamma=1.75"):
        yield family_from_spec(spec), (0.2, 0.5, 0.8, 0.95)
    yield make_from_h(PowerSeries([0.0, 1.0, 0.0, 0.0]), 0.3, 2), (0.2, 0.5, 0.8, 0.95)


def test_area_series_matches_disk_quadrature():
    # Parseval on the kernel coefficients against polar quadrature of the Jacobian
    for f, radii in _area_families():
        for r in radii:
            value, route, terms = area_route(f, r)
            assert route == "series" and terms >= 1, (f.label, r, route)
            assert value == pytest.approx(disk_integral(f.jacobian, r), rel=1e-9), (f.label, r)


def test_area_series_near_boundary_oracle():
    # alpha = 1/2, zeta = 0: h' = 1/(1-z) has |c_j| = 1, so A(r) = -pi log(1 - r^2);
    # the disk rule does not converge this close to the boundary
    f = family_from_spec("extremal:alpha=0.5,zeta=0,n=1")
    r = 0.999
    value, route, _ = area_route(f, r)
    assert route == "series"
    assert value == pytest.approx(-math.pi * math.log1p(-r * r), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(q=st.floats(-3.0, 0.75), zeta=st.floats(0.0, 2.0), n=st.integers(1, 3),
       r=st.floats(0.01, 0.995))
def test_area_series_tail_bound(q, zeta, n, r):
    # the terms dropped at the returned order, summed to twice that order,
    # stay inside the stated tail bound, itself within the relative target
    f = HarmonicMapping(PowerKernel(q), zeta, n)
    value, route, N = area_route(f, r)
    assert route == "series"
    zeta2 = zeta * zeta
    c = _binomial_moduli(q, 2 * N)
    terms = _parseval_terms(c, r, zeta2, n)
    assert value == float(np.sum(terms[:N]))
    bound = _power_tail(c[N - 1], q, N, r, zeta2, n)
    assert np.sum(np.abs(terms[N:])) <= bound
    assert bound <= bounds._SERIES_REL_TAIL * np.sum(np.abs(terms[:N]))


def test_area_falls_back_to_quadrature_past_the_cap(monkeypatch):
    f = make_extremal(ExtremalSpec(ClassParams(0.25, 0.3, 2), 1.0))
    series, route, _ = area_route(f, 0.6)
    assert route == "series"
    monkeypatch.setattr(bounds, "_SERIES_CAP", 32)
    value, route, terms = area_route(f, 0.6)
    assert (route, terms) == ("quadrature", None)
    assert value == pytest.approx(series, rel=1e-9)
    assert area(f, 0.6) == value


def test_default_lattice_is_admissible():
    pts = default_lattice()
    assert len(pts) >= 24
    for p in pts:
        assert 0.0 <= p.alpha < 1.0
        assert abs(p.zeta) <= p.zeta_cap + 1e-12


def test_area_series_memory_is_bounded():
    # 2^22 terms, made and summed in chunks: the whole-array sum held several
    # 32 MB temporaries at once
    f = family_from_spec("counterexample:gamma=5/4")
    tracemalloc.start()
    try:
        _, route, terms = area_route(f, 1.0 - 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (route, terms) == ("series", 1 << 22)
    assert peak < 64 * 2**20


@pytest.mark.parametrize("family", ["extremal:alpha=0.5,zeta=0,n=1",
                                    "extremal:alpha=0,zeta=0.3,n=2"])
@pytest.mark.parametrize("r", [0.99, 0.999])
def test_area_series_chunks_sum_like_whole_arrays(monkeypatch, family, r):
    # chunked terms, the running product carried and the chunk sums added
    # halves first, equal one whole-array cumprod and np.sum bit for bit
    # (numpy sums blocks of up to 128 items directly, so chunks must be larger)
    f = family_from_spec(family)
    monkeypatch.setattr(bounds, "_SERIES_CHUNK", 256)
    value, _, N = area_route(f, r)
    assert N >= 1024
    c = _binomial_moduli(f.kernel.q, N)
    assert value == float(np.sum(_parseval_terms(c, r, abs(f.zeta) ** 2, f.n)))
