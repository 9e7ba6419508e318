"""Special functions: branched powers, digamma, and the Gauss 2F1 evaluator.

Reference values come from mpmath (arbitrary precision) and from classical
closed forms; random spot checks use fixed seeds.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

mpmath = pytest.importorskip("mpmath")

from harmap.errors import ConvergenceError, DomainError, ParameterError, PoleError
from harmap.mappings import PowerKernel, _horner
from harmap.special import digamma, hyp2f1


# -- branched powers ----------------------------------------------------------


def test_branched_power_series_binomial():
    ser = PowerKernel(0.25, 1.0).series(8)  # (1 - z)^0.25
    for k in range(9):
        want = complex(mpmath.binomial(0.25, k)) * (-1.0) ** k
        assert abs(ser[k] - want) < 1e-13


def test_branched_power_value_agrees_with_series():
    ser = PowerKernel(1.3, 1.0).series(40)
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = 0.3 * complex(rng.normal(), rng.normal())
        if abs(z) > 0.45:
            continue
        assert abs(cmath.exp(1.3 * cmath.log(1.0 - z)) - _horner(ser, z)) < 1e-11


# -- digamma ------------------------------------------------------------------


def test_digamma_known_values():
    euler = 0.5772156649015328606
    assert digamma(1.0) == pytest.approx(-euler, abs=1e-14)
    assert digamma(2.0) == pytest.approx(1.0 - euler, abs=1e-14)
    assert digamma(0.5) == pytest.approx(-euler - 2.0 * math.log(2.0), abs=1e-13)


def test_digamma_matches_mpmath_on_grid():
    pts = [0.1, 0.37, 1.5, 3.25, 7.9, 12.5, 47.0, 123.456,
           -0.3, -1.7, -5.25, -19.5]
    for x in pts:
        want = float(mpmath.digamma(x))
        got = digamma(x)
        assert abs(got - want) < 5e-13 * max(1.0, abs(want)), f"x={x}"


def test_digamma_recurrence_property():
    rng = np.random.default_rng(23)
    for _ in range(40):
        x = float(rng.uniform(0.05, 20.0))
        lhs = digamma(x + 1.0)
        rhs = digamma(x) + 1.0 / x
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))


def test_digamma_pole_raises():
    for x in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            digamma(x)


# -- hypergeometric: the real line ---------------------------------------------
# Draws span x in [-1, 0.9], so each test reaches all three branches (Pfaff
# below -1/2, the series up to 3/4, the connection formulas above).


def test_hyp2f1_geometric_series():
    # 2F1(1, b; b; x) = 1/(1-x)
    rng = np.random.default_rng(3)
    for _ in range(30):
        x = rng.uniform(-1.0, 0.9)
        want = 1.0 / (1.0 - x)
        got = hyp2f1(1.0, 2.5, 2.5, x)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want)), x


def test_hyp2f1_log_identity():
    # 2F1(1, 1; 2; x) = -log(1-x)/x
    rng = np.random.default_rng(9)
    for _ in range(60):
        x = rng.uniform(-1.0, 0.9)
        if abs(x) < 1e-6:
            continue
        want = -math.log1p(-x) / x
        got = hyp2f1(1.0, 1.0, 2.0, x)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want)), x


def test_hyp2f1_reference_value_at_minus_one():
    # 2F1(1, 2; 3; -1) = 2(1 - log 2)
    want = 2.0 * (1.0 - math.log(2.0))
    got = hyp2f1(1.0, 2.0, 3.0, -1.0)
    # the evaluator's advertised absolute accuracy is 1e-12
    assert abs(got - want) < 1e-12
    assert got == pytest.approx(0.6137056388801094, abs=1e-12)


def test_hyp2f1_matches_mpmath_random_interior():
    rng = np.random.default_rng(17)
    for _ in range(40):
        a = rng.uniform(-2.0, 3.0)
        b = rng.uniform(-2.0, 3.0)
        c = rng.uniform(0.5, 4.0)
        x = rng.uniform(-1.0, 0.9)
        want = float(mpmath.hyp2f1(a, b, c, x))
        got = hyp2f1(a, b, c, x)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want)), (a, b, c, x)


def test_hyp2f1_euler_transformation():
    # 2F1(a,b;c;x) = (1-x)^(c-a-b) 2F1(c-a, c-b; c; x)
    rng = np.random.default_rng(29)
    for _ in range(30):
        a = rng.uniform(-1.5, 2.5)
        b = rng.uniform(-1.5, 2.5)
        c = rng.uniform(1.0, 4.0)
        x = rng.uniform(-1.0, 0.9)
        lhs = hyp2f1(a, b, c, x)
        rhs = (1.0 - x) ** (c - a - b) * hyp2f1(c - a, c - b, c, x)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs)), (a, b, c, x)


# -- hypergeometric: near the boundary point 1 ---------------------------------


NEAR_ONE_CASES = [
    # (a, b, c): exercises c-a-b non-integer, zero, positive and negative integer
    (0.5, 0.75, 2.0),    # c-a-b = 0.75
    (1.0, 1.0, 2.0),     # c-a-b = 0   (logarithmic case)
    (0.5, 0.5, 2.5),     # c-a-b = 1.5
    (1.0, 2.0, 4.0),     # c-a-b = 1   (integer, log case)
    (1.5, 2.5, 3.0),     # c-a-b = -1  (negative integer)
    (2.0, 2.0, 3.0),     # c-a-b = -1
    (0.3, 1.9, 3.1),     # c-a-b = 0.9
]


@pytest.mark.parametrize("abc", NEAR_ONE_CASES)
@pytest.mark.parametrize("x", [0.75, 0.9, 0.999, 0.999999])
def test_hyp2f1_near_one_real_axis(abc, x):
    a, b, c = abc
    want = float(mpmath.hyp2f1(a, b, c, x))
    got = hyp2f1(a, b, c, x)
    assert abs(got - want) < 5e-11 * max(1.0, abs(want)), (a, b, c, x)


def test_hyp2f1_near_one_nearly_integer_exponent():
    # c-a-b within 1e-7 of an integer: hardest regime for connection formulas
    a, b = 0.5, 0.5
    c = a + b + 1.0 + 3e-7
    for x in (0.8, 0.95):
        want = float(mpmath.hyp2f1(a, b, c, x))
        got = hyp2f1(a, b, c, x)
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))


# -- hypergeometric: identities on random inputs ------------------------------

real_x = st.one_of(st.floats(-1.0, 0.9999), st.sampled_from((-1.0, -0.5, 0.75, 0.9999)))


def _near_pole(p: float) -> bool:
    return p < 0.5 and abs(p - round(p)) < 1e-3


@st.composite
def euler_params(draw):
    """``(a, b, c)`` with ``c - a - b`` an integer, within 1e-13 of one, or at
    least 2e-5 from one.  An offset in ``(1e-12, 1e-5)`` is left out, with
    its own xfail test below.  So is ``a``, ``b``, ``c - a`` or ``c - b``
    within 1e-3 of a non-positive integer: near such a pole the logarithmic
    formula loses digits (``b - 1`` rounds at ``b = 1e-9``).  At the pole
    the series terminates; those draws have their own sweep below."""
    a = draw(st.floats(-1.5, 2.5))
    b = draw(st.floats(-1.5, 2.5))
    offset = draw(st.one_of(st.just(0.0), st.floats(-1e-13, 1e-13),
                            st.floats(2e-5, 0.5), st.floats(-0.5, -2e-5)))
    c = a + b + draw(st.integers(-2, 2)) + offset
    assume(c >= 0.5 and not any(map(_near_pole, (a, b, c - a, c - b))))
    return a, b, c


@settings(max_examples=200, deadline=None)
@given(abc=euler_params(), x=real_x)
def test_hyp2f1_euler_transformation_property(abc, x):
    # 2F1(a,b;c;x) = (1-x)^(c-a-b) 2F1(c-a, c-b; c; x): c-a-b changes sign
    a, b, c = abc
    lhs = hyp2f1(a, b, c, x)
    rhs = (1.0 - x) ** (c - a - b) * hyp2f1(c - a, c - b, c, x)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs)), (a, b, c, x)


@settings(max_examples=200, deadline=None)
@given(x=real_x)
def test_hyp2f1_log_identity_property(x):
    assume(x != 0.0)
    want = -math.log1p(-x) / x
    assert abs(hyp2f1(1.0, 1.0, 2.0, x) - want) <= 1e-12 * max(1.0, abs(want)), x


@pytest.mark.xfail(raises=ConvergenceError, strict=True,
                   reason="c-a-b within (1e-12, 1e-5) of an integer falls back to the "
                          "plain series, which needs more than 400,000 terms near x = 1")
def test_hyp2f1_near_integer_exponent_close_to_one():
    a, b, c, x = 1.0, 2.0, 1.0 + 1e-6, 0.9999
    want = float(mpmath.hyp2f1(a, b, c, x))
    assert hyp2f1(a, b, c, x) == pytest.approx(want, rel=1e-9)


def test_hyp2f1_terminating_series_with_integer_exponent_near_one():
    # 2F1(-1, b; b; x) = 1 - x, where the logarithmic connection formula would
    # take digamma at the pole a + m = 0
    assert hyp2f1(-1.0, 0.5, 0.5, 0.9) == pytest.approx(0.1, rel=1e-12)


def test_hyp2f1_terminating_series_near_one_matches_mpmath():
    # a or b a non-positive integer, c - a - b an integer, x in [0.75, 1): a
    # polynomial, summed term by term
    rng = np.random.default_rng(43)
    for _ in range(300):
        a, b = -float(rng.integers(0, 5)), rng.uniform(-4.0, 4.0)
        c = a + b + int(rng.integers(-3, 4))
        x = rng.uniform(0.75, 1.0)
        if c <= 0.0 and c.is_integer():
            continue
        if rng.random() < 0.5:
            a, b = b, a
        with mpmath.workdps(30):
            want = mpmath.hyp2f1(a, b, c, x)
            scale = sum(abs(mpmath.rf(a, k) * mpmath.rf(b, k) * mpmath.mpf(x) ** k
                            / (mpmath.rf(c, k) * mpmath.factorial(k)))
                        for k in range(int(-min(a, b)) + 1))
        assert abs(hyp2f1(a, b, c, x) - float(want)) <= 1e-15 * float(scale), (a, b, c, x)


def test_hyp2f1_at_one_and_nan_are_domain_errors():
    # the domain is x in [-1, 1): the value at 1 (finite or not) is not served
    for x in (1.0, 1.0 + 1e-15, 1.5, math.nan):
        with pytest.raises(DomainError, match=r"^hyp2f1 requires x in \[-1, 1\)"):
            hyp2f1(1.0, 1.0, 3.0, x)


def test_hyp2f1_polynomial_case_terminates():
    # negative-integer numerator parameter: an exact polynomial
    got = hyp2f1(-3.0, 2.0, 1.5, 0.99)
    want = float(mpmath.hyp2f1(-3, 2, 1.5, 0.99))
    assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_hyp2f1_pole_in_c_raises():
    for c in (0.0, -2.0):
        with pytest.raises(PoleError):
            hyp2f1(0.5, 0.5, c, 0.3)


def test_hyp2f1_outside_disk_raises():
    for x in (1.2, -1.0 - 1e-9, -2.0):
        with pytest.raises(DomainError):
            hyp2f1(0.5, 0.5, 1.5, x)


def test_branched_power_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        PowerKernel(0.5, 0.0)  # zero branch-point coefficient is degenerate
