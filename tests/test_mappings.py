"""Harmonic-mapping families: construction, normalization, the family-string grammar."""

import cmath
import json
import math

import numpy as np
import pytest

from harmap import bounds
from harmap.errors import (
    AdmissibilityError,
    DomainError,
    ParameterError,
)
from harmap.mappings import (
    ClassParams,
    HarmonicMapping,
    PBetaParams,
    PolyKernel,
    PowerKernel,
    _derivative,
    _horner,
    _primitive,
    family_from_spec,
    is_conjugate_symmetric,
    make_bshouty_lyzzaik,
    make_counterexample,
    make_extremal,
    make_from_h,
    make_identity,
    parse_int,
    parse_scalar,
    zeta_cap,
)


# -- parameter containers -----------------------------------------------------


def test_class_params_validation():
    p = ClassParams(0.5, 0.9, 1)
    assert zeta_cap(p.n) == pytest.approx(1.0)
    assert zeta_cap(ClassParams(-0.5, 0.2, 2).n) == pytest.approx(1.0 / 3.0)

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
    assert abs(p.zeta) <= zeta_cap(p.n)


def test_extremal_spec_requires_unimodular_delta():
    params = ClassParams(0.5, 0.5, 1)
    make_extremal(params, 1.0)
    make_extremal(params, -1.0)
    with pytest.raises(ParameterError, match=r"\|delta\| must equal 1, got 0.5"):
        make_extremal(params, 0.5)


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


def test_non_finite_point_is_outside_the_disk():
    f = make_identity()
    for z in (complex(math.nan, 0.0), complex(0.0, math.inf), np.array([0.1, math.nan])):
        with pytest.raises(DomainError):
            f(z)


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
        assert abs(_horner(th, z) - f.h.value(z)) < 1e-12
        assert abs(_horner(tg, z) - f.g.value(z)) < 1e-12


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
    f = make_extremal(params, 1.0)
    assert abs(f(0.0)) < 1e-13
    assert abs(f.h.deriv(0.0) - 1.0) < 1e-12
    rng = np.random.default_rng(47)
    for _ in range(20):
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        resid = f.g.deriv(z) - params.zeta * z**params.n * f.h.deriv(z)
        assert abs(resid) < 1e-11


def test_extremal_half_alpha_is_log():
    # alpha = 1/2, delta = 1: analytic part is -log(1-z)
    f = make_extremal(ClassParams(0.5, 0.0, 1), 1.0)
    for z in (0.3, -0.4, 0.2 + 0.1j):
        assert abs(f.h.value(z) + np.log(1.0 - z)) < 1e-12


@pytest.mark.parametrize("alpha", [1e-5, 0.5 + 1e-10, 0.5 - 1e-6, 0.3], ids=str)
@pytest.mark.parametrize("n", [1, 2])
def test_extremal_near_zero_exponent_matches_taylor(alpha, n):
    # an exponent q + 1 + m near zero weighs its cancelling 1 - u^e by 1/e
    f = make_extremal(ClassParams(alpha, 1.0 / (2 * n - 1), n), 1.0)
    th, tg = f.taylor(64)
    for z in (0.5, -0.45, 0.3 - 0.35j):
        assert abs(_horner(th, z) - f.h.value(z)) < 1e-13
        assert abs(_horner(tg, z) - f.g.value(z)) < 1e-13


def test_extremal_taylor_matches_values():
    f = make_extremal(ClassParams(0.0, 0.3, 2), 1.0)
    th, tg = f.taylor(48)
    rng = np.random.default_rng(53)
    for _ in range(10):
        z = 0.3 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert abs(_horner(th, z) - f.h.value(z)) < 1e-12
        assert abs(_horner(tg, z) - f.g.value(z)) < 1e-12


@pytest.mark.parametrize("delta", [1.0, cmath.exp(1.1j)], ids=["delta=1", "delta=e^1.1i"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
def test_extremal_log_branches_match_taylor(alpha, n, delta):
    # at these alpha an exponent of the binomial sum for g vanishes (for
    # alpha = -1/2 only when n >= 2) and its term becomes -log(1 - delta z)
    zeta = 0.9 / (2 * n - 1) * cmath.exp(0.3j)
    f = make_extremal(ClassParams(alpha, zeta, n), delta)
    tg = f.taylor(64)[1]
    for z in (0.5, -0.45j, 0.3 + 0.35j, -0.2 - 0.1j):
        assert abs(f.g.value(z) - _horner(tg, z)) < 1e-12


# -- shear construction from a supplied analytic part -------------------------


def test_make_from_h_series_route():
    h = [0.0, 1.0, -0.25, 0.125, 0.0, 0.0]
    f = make_from_h(h, 0.5, 1, "from-h")
    rng = np.random.default_rng(59)
    for _ in range(15):
        z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        resid = f.g.deriv(z) - 0.5 * z * f.h.deriv(z)
        assert abs(resid) < 1e-12


def test_make_from_h_normalization_enforced():
    with pytest.raises(ParameterError):
        make_from_h([0.1, 1.0, 0.0], 0.5, 1, "from-h")  # h(0) != 0
    with pytest.raises(ParameterError):
        make_from_h([0.0, 2.0, 0.0], 0.5, 1, "from-h")  # h'(0) != 1


def test_make_from_h_admissibility_gate():
    h = [0.0, 1.0, 0.0]
    with pytest.raises(AdmissibilityError):
        make_from_h(h, 0.9, 2, "from-h")  # cap is 1/3
    f = HarmonicMapping(PolyKernel(_derivative(h, "h")), 0.9, 2, "from-h")  # out of the class
    assert abs(f.g.deriv(0.5) - 0.9 * 0.25) < 1e-12


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("-inf"))],
                         ids=["nan", "inf", "-inf j"])
def test_non_finite_coefficients_are_rejected(bad):
    with pytest.raises(ParameterError, match="must be finite.* at index 2"):
        PolyKernel([1.0, 0.5, bad])
    with pytest.raises(ParameterError, match="must be finite.* at index 2"):
        make_from_h([0.0, 1.0, bad], 0.3, 2, "from-h")
    with pytest.raises(ParameterError, match="must be finite.* at index 0"):
        make_from_h([bad, 1.0, 0.0], 0.3, 2, "from-h")  # h' would drop a bad h(0)


@pytest.mark.parametrize("coeffs", [[], [[0.0, 1.0], [0.0, 1.0]]], ids=["empty", "2-d"])
def test_ill_shaped_coefficients_are_rejected(coeffs):
    with pytest.raises(ParameterError, match="non-empty 1-d"):
        PolyKernel(coeffs)
    with pytest.raises(ParameterError, match="non-empty 1-d"):
        make_from_h(coeffs, 0.3, 2, "from-h")


def test_analytic_part_needs_two_coefficients():
    assert PolyKernel([1.0]).series(2).tolist() == [1, 0, 0]  # h' = 1 is a kernel
    with pytest.raises(ParameterError, match="two entries"):
        make_from_h([0.0], 0.3, 2, "from-h")


# -- coefficient arrays -------------------------------------------------------


def test_horner_evaluation_matches_polyval():
    rng = np.random.default_rng(42)
    for _ in range(25):
        coeffs = rng.normal(size=8) + 1j * rng.normal(size=8)
        zs = rng.normal(size=5) * 0.4 + 1j * rng.normal(size=5) * 0.4
        want = np.polynomial.polynomial.polyval(zs, coeffs)
        assert np.allclose(_horner(coeffs, zs), want, rtol=0, atol=1e-12)
        # a scalar call agrees with the array call
        assert abs(_horner(coeffs, complex(zs[0])) - want[0]) < 1e-12


def test_horner_sums_the_exponential_series():
    coeffs = np.array([1.0 / math.factorial(k) for k in range(21)], dtype=np.complex128)
    for z in (0.3, -0.5, 0.2 + 0.4j):
        err = abs(_horner(coeffs, z) - np.exp(z))
        # the truncation tail at |z| <= 0.7 is far below 1e-12
        assert err < 1e-12, f"exp partial sum off by {err} at z={z}"


def test_horner_of_a_constant_fills_the_array():
    z = np.array([[0.1, 0.2j], [-0.3, 0.0]])
    got = _horner(np.array([2.0 - 1.0j]), z)
    assert got.shape == z.shape and got.dtype == np.complex128
    assert np.all(got == 2.0 - 1.0j)
    assert _horner(np.array([2.0 - 1.0j]), 0.5) == 2.0 - 1.0j


def test_horner_skips_zero_coefficients_bit_for_bit():
    # adding a zero coefficient changes no nonzero value, so skipping it
    # keeps the plain Horner loop's bits
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
    coeffs[[0, 2, 3, 6]] = 0.0
    zs = 0.9 * (rng.uniform(-1, 1, size=64) + 1j * rng.uniform(-1, 1, size=64)) / 2**0.5
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * zs + c
    assert _horner(coeffs, zs).tobytes() == acc.tobytes()


def test_primitive_then_derivative_round_trip():
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
    np.testing.assert_allclose(_derivative(_primitive(coeffs), "c"), coeffs, rtol=0, atol=1e-14)


def test_primitive_has_a_zero_constant_term():
    assert _primitive(np.array([3.0, 2.0], dtype=np.complex128)).tolist() == [0, 3, 1]


def test_poly_kernel_series_truncates_and_pads():
    kernel = PolyKernel([1.0, 2.0, 3.0, 4.0])
    assert kernel.series(1).tolist() == [1, 2]
    assert kernel.series(5).tolist() == [1, 2, 3, 4, 0, 0]
    assert kernel.series(5).dtype == np.complex128


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


@pytest.mark.parametrize("n", [0, -1, 1.5])
def test_harmonic_mapping_takes_only_a_class_n(n):
    # n <= 0 raised a bare IndexError from the kernel evaluator
    with pytest.raises(AdmissibilityError, match="n must be an integer >= 1"):
        HarmonicMapping(PowerKernel(0.5), 0.2, n, "power")


def test_n_must_be_an_integer():
    with pytest.raises(ParameterError):
        family_from_spec("extremal:alpha=0.5,zeta=0.5,n=1.5")
    with pytest.raises(ParameterError):
        HarmonicMapping(PowerKernel(0.5), 0.2, 1.5, "power")
    assert family_from_spec("extremal:alpha=0.5,zeta=0.3,n=2.0").n == 2


def test_poly_taylor_is_exact_and_zero_padded():
    # bl: h = z - 0.3 z^2 and g = z^2/2 - 0.2 z^3, through any order
    f = make_bshouty_lyzzaik(0.3)
    th, tg = f.taylor(12)
    assert th.tolist() == [0, 1, -0.3] + [0] * 10
    assert tg.tolist() == [0, 0, 0.5, -0.6 / 3] + [0] * 10
    th, tg = f.taylor(1)
    assert th.tolist() == [0, 1] and tg.tolist() == [0, 0, 0.5]
    with pytest.raises(ParameterError):
        f.taylor(0)


def test_power_taylor_prefix_does_not_depend_on_the_order():
    f = make_extremal(ClassParams(0.3, 0.2 - 0.1j, 2), cmath.exp(0.4j))
    (h5, g5), (h40, g40) = f.taylor(5), f.taylor(40)
    assert (len(h5) - 1, len(g5) - 1, len(h40) - 1, len(g40) - 1) == (5, 7, 40, 42)
    assert np.array_equal(h40[:6], h5)
    assert np.array_equal(g40[:8], g5)


def test_power_series_keeps_a_tiny_exponent():
    # the k = 1 factor is q - 0, not (q - 1) + 1, which rounds to 0 here
    assert PowerKernel(1e-20).series(2)[1] == -1e-20
    assert bounds._binomial_moduli(1e-20, 3)[1] == 1e-20


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_root_lies_outside_every_disk():
    # -c0/c1 overflows for c1 = 1e-310; h' is zero-free on every disk
    kernel = PolyKernel([1.0, 1e-310])
    assert kernel.singular_points().size == 0
    assert kernel.zero_free(0.999)


@pytest.mark.parametrize("coeffs, roots", [
    ([1.0, 0.2, 3e-45], [-5.0]),   # the companion matrix put a root at 0
    ([1.0, 0.2, 3e-311], [-5.0]),  # the companion matrix overflowed
    ([1.0, -0.5, 1e-200], [2.0]),
    ([1.0, 0.5j, 1e-50], [2j]),
])
def test_tiny_top_coefficient_moves_a_root_out_not_to_zero(coeffs, roots):
    kernel = PolyKernel(coeffs)
    got = kernel.singular_points()
    np.testing.assert_allclose(got[np.abs(got) < 1e3], roots, rtol=1e-12)
    assert kernel.zero_free(0.9999)


@pytest.mark.parametrize("coeffs, roots", [
    ([0.0, 1.0], [0.0]),
    ([0.0, 0.0, 1.0, 2.0], [-0.5, 0.0, 0.0]),
])
def test_zero_low_coefficients_are_roots_at_the_origin(coeffs, roots):
    kernel = PolyKernel(coeffs)
    np.testing.assert_allclose(kernel.singular_points(), roots, atol=1e-15)
    assert not kernel.zero_free(0.1)


def test_linear_h_prime_keeps_its_root_bit_for_bit():
    # numpy's degree-1 root -c0/c1, which the checks of the bl family saw
    for c1 in (-0.8, -2.0 * 0.3, 0.2, 0.3 - 0.4j, -1e-3j, 7.0 + 1e-300j):
        c = np.array([1.0, c1], dtype=np.complex128)
        root = PolyKernel(c).singular_points()
        assert root.tobytes() == np.array([-c[0] / c[1]]).tobytes(), c1


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
    h = [0.0, 1.0, 0.25j, 0.0]
    f = make_from_h(h, 0.0, 1, "from-h")
    assert not is_conjugate_symmetric(f)

