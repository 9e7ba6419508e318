"""Special functions: principal powers, digamma, and the Gauss 2F1 evaluator.

Reference values come from mpmath (arbitrary precision) and from classical
closed forms; random spot checks use fixed seeds.
"""

import cmath
import math

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from harmap.errors import (
    DivergenceError,
    DomainError,
    ParameterError,
    PoleError,
)
from harmap.mappings import PowerKernel, _horner
from harmap.special import digamma, hyp2f1, principal_pow


# -- principal powers ---------------------------------------------------------


def test_principal_pow_basic_values():
    assert principal_pow(0.25, 0.5) == pytest.approx(0.5)
    # approaching the cut from above: (-1)^(1/2) -> i (principal branch)
    v = principal_pow(-1.0 + 1e-14j, 0.5)
    assert abs(v - 1j) < 1e-13


def test_principal_pow_rejects_branch_cut():
    from harmap.errors import BranchCutError

    for w in (-1.0, 0.0, -0.5 + 0j):
        with pytest.raises(BranchCutError):
            principal_pow(w, 0.5)


def test_principal_pow_matches_exp_log():
    rng = np.random.default_rng(5)
    for _ in range(50):
        z = complex(rng.normal(), rng.normal())
        if abs(z) < 1e-3:
            continue
        p = rng.normal()
        want = cmath.exp(p * cmath.log(z))
        got = principal_pow(z, p)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


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


# -- hypergeometric: interior -------------------------------------------------


def test_hyp2f1_geometric_series():
    # 2F1(1, b; b; z) = 1/(1-z)
    rng = np.random.default_rng(3)
    for _ in range(30):
        z = 0.6 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        want = 1.0 / (1.0 - z)
        got = hyp2f1(1.0, 2.5, 2.5, z)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_hyp2f1_log_identity():
    # 2F1(1, 1; 2; z) = -log(1-z)/z
    rng = np.random.default_rng(9)
    for _ in range(60):
        z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        if abs(z) > 0.9 or abs(z) < 1e-6:
            continue
        want = -cmath.log(1.0 - z) / z
        got = hyp2f1(1.0, 1.0, 2.0, z)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


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
        z = 0.95 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(z) >= 0.95:
            continue
        want = complex(mpmath.hyp2f1(a, b, c, complex(z)))
        got = hyp2f1(a, b, c, z)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want)), (a, b, c, z)


def test_hyp2f1_euler_transformation():
    # 2F1(a,b;c;z) = (1-z)^(c-a-b) 2F1(c-a, c-b; c; z)
    rng = np.random.default_rng(29)
    for _ in range(30):
        a = rng.uniform(-1.5, 2.5)
        b = rng.uniform(-1.5, 2.5)
        c = rng.uniform(1.0, 4.0)
        z = 0.7 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        lhs = hyp2f1(a, b, c, z)
        rhs = principal_pow(1.0 - z, c - a - b) * hyp2f1(c - a, c - b, c, z)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs)), (a, b, c, z)


# -- hypergeometric: near and at the boundary point 1 -------------------------


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
    want = complex(mpmath.hyp2f1(a, b, c, x))
    got = hyp2f1(a, b, c, x)
    assert abs(got - want) < 5e-11 * max(1.0, abs(want)), (a, b, c, x)


def test_hyp2f1_near_one_nearly_integer_exponent():
    # c-a-b within 1e-7 of an integer: hardest regime for connection formulas
    a, b = 0.5, 0.5
    c = a + b + 1.0 + 3e-7
    for x in (0.8, 0.95):
        want = complex(mpmath.hyp2f1(a, b, c, x))
        got = hyp2f1(a, b, c, x)
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_hyp2f1_at_one_convergent():
    # 2F1(a,b;c;1) = Gamma(c)Gamma(c-a-b) / (Gamma(c-a)Gamma(c-b)) for c-a-b>0
    got = hyp2f1(1.0, 1.0, 3.0, 1.0)
    want = float(mpmath.gamma(3) * mpmath.gamma(1) /
                 (mpmath.gamma(2) * mpmath.gamma(2)))
    assert got == pytest.approx(want, abs=1e-12)


def test_hyp2f1_at_one_divergent_raises():
    with pytest.raises(DivergenceError):
        hyp2f1(1.0, 2.0, 3.0, 1.0)  # c-a-b = 0


def test_hyp2f1_polynomial_case_terminates():
    # negative-integer numerator parameter: exact polynomial, any |z| <= 1
    got = hyp2f1(-3.0, 2.0, 1.5, 0.99)
    want = complex(mpmath.hyp2f1(-3, 2, 1.5, 0.99))
    assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_hyp2f1_pole_in_c_raises():
    for c in (0.0, -2.0):
        with pytest.raises(PoleError):
            hyp2f1(0.5, 0.5, c, 0.3)


def test_hyp2f1_outside_disk_raises():
    with pytest.raises(DomainError):
        hyp2f1(0.5, 0.5, 1.5, 1.2)
    with pytest.raises(DomainError):
        hyp2f1(0.5, 0.5, 1.5, 1.0 + 0.5j)


def test_branched_power_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        PowerKernel(0.5, 0.0)  # zero branch-point coefficient is degenerate
