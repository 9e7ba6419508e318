"""Harmonic-mapping families: construction, normalization, the family-string grammar."""

import cmath
import json
import math

import numpy as np
import pytest

from harmap.errors import (
    AdmissibilityError,
    DomainError,
    ParameterError,
)
from harmap.mappings import (
    ClassParams,
    ExtremalSpec,
    HarmonicMapping,
    PBetaParams,
    PowerKernel,
    family_from_spec,
    is_conjugate_symmetric,
    make_bshouty_lyzzaik,
    make_counterexample,
    make_extremal,
    make_from_h,
    make_identity,
    parse_int,
    parse_scalar,
)
from harmap.series import PowerSeries


# -- parameter containers -----------------------------------------------------


def test_class_params_validation():
    p = ClassParams(0.5, 0.9, 1)
    assert p.zeta_cap == pytest.approx(1.0)
    assert ClassParams(-0.5, 0.2, 2).zeta_cap == pytest.approx(1.0 / 3.0)

    with pytest.raises(AdmissibilityError):
        ClassParams(0.5, 0.9, 2)  # |zeta| above 1/(2n-1) = 1/3
    with pytest.raises(AdmissibilityError):
        ClassParams(1.0, 0.0, 1)  # alpha must be < 1
    with pytest.raises(AdmissibilityError):
        ClassParams(-0.6, 0.0, 1)  # alpha must be >= -1/2
    with pytest.raises(AdmissibilityError):
        ClassParams(0.0, 0.0, 0)  # n must be >= 1


def test_class_params_complex_zeta_allowed():
    p = ClassParams(0.0, 0.2 + 0.2j, 2)
    assert abs(p.zeta) <= p.zeta_cap


def test_extremal_spec_requires_unimodular_delta():
    params = ClassParams(0.5, 0.5, 1)
    ExtremalSpec(params, 1.0)
    ExtremalSpec(params, -1.0)
    with pytest.raises(ParameterError):
        ExtremalSpec(params, 0.5)


def test_pbeta_params_range():
    PBetaParams(1.125)
    PBetaParams(1.5)
    for beta in (1.0, 1.6, 0.5):
        with pytest.raises(ParameterError):
            PBetaParams(beta)


# -- identity -----------------------------------------------------------------


def test_identity_mapping():
    f = make_identity()
    assert f(0.3 + 0.2j) == pytest.approx(0.3 + 0.2j)
    assert f.jacobian(0.5j) == pytest.approx(1.0)
    assert f.dilatation(0.5) == pytest.approx(0.0)


def test_domain_error_outside_disk():
    f = make_identity()
    with pytest.raises(DomainError):
        f(1.0 + 0.0j)
    with pytest.raises(DomainError):
        f(1.5j)


# -- branched-exponent counterexample family ----------------------------------


def test_counterexample_closed_forms():
    gamma = 1.25
    f = make_counterexample(gamma)
    rng = np.random.default_rng(19)
    for _ in range(25):
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        h_want = (1.0 - (1.0 - z) ** gamma) / gamma
        g_want = (1.0 - (1.0 + gamma * z) * (1.0 - z) ** gamma) / (
            gamma * (gamma + 1.0))
        assert abs(f.h.value(z) - h_want) < 1e-12
        assert abs(f.g.value(z) - g_want) < 1e-12
        assert abs(f(z) - (h_want + np.conj(g_want))) < 1e-12


def test_counterexample_dilatation_is_z():
    f = make_counterexample(1.4)
    rng = np.random.default_rng(21)
    for _ in range(25):
        z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        assert abs(f.dilatation(z) - z) < 1e-11


def test_counterexample_normalization():
    f = make_counterexample(1.25)
    assert abs(f(0.0)) < 1e-14
    assert abs(f.h.deriv(0.0) - 1.0) < 1e-13
    assert abs(f.g.deriv(0.0)) < 1e-13


def test_counterexample_taylor_matches_closed_form():
    f = make_counterexample(1.25)
    th, tg = f.taylor(48)
    rng = np.random.default_rng(33)
    for _ in range(15):
        z = 0.35 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert abs(th(z) - f.h.value(z)) < 1e-12
        assert abs(tg(z) - f.g.value(z)) < 1e-12


def test_counterexample_conjugate_symmetry():
    f = make_counterexample(1.6)
    assert is_conjugate_symmetric(f)
    rng = np.random.default_rng(37)
    for _ in range(20):
        z = 0.9 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
        assert abs(f(np.conj(z)) - np.conj(f(z))) < 1e-12


# -- quadratic-shear family ---------------------------------------------------


def test_bshouty_lyzzaik_closed_forms():
    lam = 0.3
    f = make_bshouty_lyzzaik(lam)
    rng = np.random.default_rng(41)
    for _ in range(20):
        z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        if abs(z) >= 1.0:
            continue
        h_want = z - lam * z * z
        g_want = z * z / 2.0 - 2.0 * lam * z**3 / 3.0
        assert abs(f.h.value(z) - h_want) < 1e-13
        assert abs(f.g.value(z) - g_want) < 1e-13
        assert abs(f.dilatation(z) - z) < 1e-12


def test_bshouty_lyzzaik_spec_point():
    f = make_bshouty_lyzzaik(0.3)
    assert f(0.5) == pytest.approx(0.525)


def test_bshouty_lyzzaik_parameter_range():
    make_bshouty_lyzzaik(0.0)
    make_bshouty_lyzzaik(0.49)
    for lam in (0.5, -0.1, 0.75):
        with pytest.raises(ParameterError):
            make_bshouty_lyzzaik(lam)


# -- extremal family ----------------------------------------------------------


def test_extremal_normalization_and_dilatation():
    params = ClassParams(0.25, 0.4, 1)
    f = make_extremal(ExtremalSpec(params, 1.0))
    assert abs(f(0.0)) < 1e-13
    assert abs(f.h.deriv(0.0) - 1.0) < 1e-12
    rng = np.random.default_rng(47)
    for _ in range(20):
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        resid = f.g.deriv(z) - params.zeta * z**params.n * f.h.deriv(z)
        assert abs(resid) < 1e-11


def test_extremal_half_alpha_is_log():
    # alpha = 1/2, delta = 1: analytic part is -log(1-z)
    f = make_extremal(ExtremalSpec(ClassParams(0.5, 0.0, 1), 1.0))
    for z in (0.3, -0.4, 0.2 + 0.1j):
        assert abs(f.h.value(z) + np.log(1.0 - z)) < 1e-12


@pytest.mark.parametrize("alpha", [1e-5, 0.5 + 1e-10, 0.5 - 1e-6, 0.3], ids=str)
@pytest.mark.parametrize("n", [1, 2])
def test_extremal_near_zero_exponent_matches_taylor(alpha, n):
    # an exponent q + 1 + m near zero weighs its cancelling 1 - u^e by 1/e
    f = make_extremal(ExtremalSpec(ClassParams(alpha, 1.0 / (2 * n - 1), n), 1.0))
    th, tg = f.taylor(64)
    for z in (0.5, -0.45, 0.3 - 0.35j):
        assert abs(th(z) - f.h.value(z)) < 1e-13
        assert abs(tg(z) - f.g.value(z)) < 1e-13


def test_extremal_taylor_matches_values():
    f = make_extremal(ExtremalSpec(ClassParams(0.0, 0.3, 2), 1.0))
    th, tg = f.taylor(48)
    rng = np.random.default_rng(53)
    for _ in range(10):
        z = 0.3 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert abs(th(z) - f.h.value(z)) < 1e-12
        assert abs(tg(z) - f.g.value(z)) < 1e-12


@pytest.mark.parametrize("delta", [1.0, cmath.exp(1.1j)], ids=["delta=1", "delta=e^1.1i"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
def test_extremal_log_branches_match_taylor(alpha, n, delta):
    # at these alpha an exponent of the binomial sum for g vanishes (for
    # alpha = -1/2 only when n >= 2) and its term becomes -log(1 - delta z)
    zeta = 0.9 / (2 * n - 1) * cmath.exp(0.3j)
    f = make_extremal(ExtremalSpec(ClassParams(alpha, zeta, n), delta))
    tg = f.taylor(64)[1]
    for z in (0.5, -0.45j, 0.3 + 0.35j, -0.2 - 0.1j):
        assert abs(f.g.value(z) - tg(z)) < 1e-12


# -- shear construction from a supplied analytic part -------------------------


def test_make_from_h_series_route():
    h = PowerSeries([0.0, 1.0, -0.25, 0.125, 0.0, 0.0])
    f = make_from_h(h, 0.5, 1)
    rng = np.random.default_rng(59)
    for _ in range(15):
        z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        resid = f.g.deriv(z) - 0.5 * z * f.h.deriv(z)
        assert abs(resid) < 1e-12


def test_make_from_h_normalization_enforced():
    with pytest.raises(ParameterError):
        make_from_h(PowerSeries([0.1, 1.0, 0.0]), 0.5, 1)  # h(0) != 0
    with pytest.raises(ParameterError):
        make_from_h(PowerSeries([0.0, 2.0, 0.0]), 0.5, 1)  # h'(0) != 1


def test_make_from_h_admissibility_gate():
    h = PowerSeries([0.0, 1.0, 0.0])
    with pytest.raises(AdmissibilityError):
        make_from_h(h, 0.9, 2)  # cap is 1/3
    f = make_from_h(h, 0.9, 2, require_admissible=False)
    assert abs(f.g.deriv(0.5) - 0.9 * 0.25) < 1e-12


# -- family-spec grammar ------------------------------------------------------


def test_parse_scalar_forms():
    assert parse_scalar("5/4") == pytest.approx(1.25)
    assert parse_scalar("0.3") == pytest.approx(0.3)
    assert parse_scalar("0.5+0.5j") == pytest.approx(0.5 + 0.5j)
    assert parse_scalar("-1/3") == pytest.approx(-1.0 / 3.0)


def test_family_from_spec_names_and_aliases():
    f1 = family_from_spec("counterexample:gamma=1.25")
    f2 = family_from_spec("counterexample:γ=5/4")
    z = 0.3 + 0.2j
    assert abs(f1(z) - f2(z)) < 1e-14

    b1 = family_from_spec("bl:lam=0.3")
    b2 = family_from_spec("bl:λ=3/10")
    b3 = family_from_spec("bl:lambda=0.3")
    assert abs(b1(z) - b2(z)) < 1e-14
    assert abs(b1(z) - b3(z)) < 1e-14

    e = family_from_spec("extremal:alpha=1/2,zeta=0.9,n=1")
    assert abs(e.h.deriv(0.0) - 1.0) < 1e-12

    assert abs(family_from_spec("identity")(z) - z) < 1e-15


def test_family_from_spec_rejects_order_key():
    # Taylor arrays are made on request by f.taylor(order), so the grammar
    # has no truncation order
    with pytest.raises(ParameterError, match="unknown family parameter 'order'"):
        family_from_spec("counterexample:gamma=1.25,order=32")


@pytest.mark.parametrize("value, want", [
    ("2", 2), ("2.0", 2), ("4/2", 2), (" 3 ", 3), (3, 3), (3.0, 3), (np.int64(2), 2),
])
def test_parse_int_accepts_exact_integers(value, want):
    got = parse_int(value, "n")
    assert got == want and type(got) is int


@pytest.mark.parametrize("value", [
    "1.5", "1+1j", "nan", "inf", "x", "", 1.5, 1 + 0.5j, float("inf"), True, None, [1],
])
def test_parse_int_rejects_the_rest(value):
    with pytest.raises(ParameterError):
        parse_int(value, "n")


def test_n_must_be_an_integer():
    with pytest.raises(ParameterError):
        family_from_spec("extremal:alpha=0.5,zeta=0.5,n=1.5")
    with pytest.raises(ParameterError):
        HarmonicMapping(PowerKernel(0.5), 0.2, 1.5)
    assert family_from_spec("extremal:alpha=0.5,zeta=0.3,n=2.0").n == 2


def test_poly_taylor_is_exact_and_zero_padded():
    # bl: h = z - 0.3 z^2 and g = z^2/2 - 0.2 z^3, through any order
    f = make_bshouty_lyzzaik(0.3)
    th, tg = f.taylor(12)
    assert th.coeffs.tolist() == [0, 1, -0.3] + [0] * 10
    assert tg.coeffs.tolist() == [0, 0, 0.5, -0.6 / 3] + [0] * 10
    th, tg = f.taylor(1)
    assert th.coeffs.tolist() == [0, 1] and tg.coeffs.tolist() == [0, 0, 0.5]
    with pytest.raises(ParameterError):
        f.taylor(0)


def test_power_taylor_prefix_does_not_depend_on_the_order():
    f = make_extremal(ExtremalSpec(ClassParams(0.3, 0.2 - 0.1j, 2), cmath.exp(0.4j)))
    (h5, g5), (h40, g40) = f.taylor(5), f.taylor(40)
    assert (h5.order, g5.order, h40.order, g40.order) == (5, 7, 40, 42)
    assert np.array_equal(h40.coeffs[:6], h5.coeffs)
    assert np.array_equal(g40.coeffs[:8], g5.coeffs)


def test_family_from_spec_errors():
    with pytest.raises(ParameterError):
        family_from_spec("nope:x=1")
    with pytest.raises(ParameterError):
        family_from_spec("counterexample")  # missing gamma
    with pytest.raises(ParameterError):
        family_from_spec("bl:q=0.3")  # unknown key
    with pytest.raises(ParameterError):
        family_from_spec("")


def test_family_from_spec_from_h_file(tmp_path):
    path = tmp_path / "coeffs.json"
    payload = {"coeffs": [0.0, 1.0, [0.0, -0.25]], "zeta": 0.5, "n": 1}
    path.write_text(json.dumps(payload), encoding="utf-8")
    f = family_from_spec(f"from-h:path={path}")
    z = 0.4
    assert abs(f.h.value(z) - (z - 0.25j * z * z)) < 1e-13
    assert abs(f.g.deriv(z) - 0.5 * z * f.h.deriv(z)) < 1e-12


def test_family_from_spec_from_h_missing_file():
    with pytest.raises(ParameterError):
        family_from_spec("from-h:path=/nonexistent/coeffs.json")


# -- labels (used by renders and reports) -------------------------------------


def test_family_labels():
    assert make_counterexample(1.25).label == "counterexample:gamma=1.25"
    assert make_bshouty_lyzzaik(0.4).label == "bl:lam=0.4"
    assert make_identity().label == "identity"


def test_rotated_map_is_not_conjugate_symmetric():
    h = PowerSeries([0.0, 1.0, 0.25j, 0.0])
    f = make_from_h(h, 0.0, 1)
    assert not is_conjugate_symmetric(f)

