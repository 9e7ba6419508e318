"""Truncated power-series arithmetic: ring operations, calculus, evaluation."""

import math

import numpy as np
import pytest

from harmap.errors import SeriesOrderError
from harmap.series import PowerSeries


def test_constructors_and_order():
    p = PowerSeries([1.0, 2.0, 3.0])
    assert p.order == 2
    assert p.coeff(0) == 1.0 and p.coeff(2) == 3.0

    z = PowerSeries.zero(5)
    assert z.order == 5
    assert all(z.coeff(k) == 0 for k in range(6))

    m = PowerSeries.monomial(3, coeff=2.5, order=6)
    assert m.order == 6
    assert m.coeff(3) == 2.5
    assert sum(abs(m.coeff(k)) for k in range(7) if k != 3) == 0.0


def test_coeff_past_order_raises():
    p = PowerSeries([1.0, 2.0])
    with pytest.raises(SeriesOrderError):
        p.coeff(2)


def test_derive_at_order_zero_raises():
    with pytest.raises(SeriesOrderError):
        PowerSeries([4.0]).derive()


def test_product_difference_of_squares():
    one_plus = PowerSeries([1.0, 1.0, 0.0])
    one_minus = PowerSeries([1.0, -1.0, 0.0])
    prod = one_plus * one_minus
    # truncated to the shared order 2: 1 - z^2
    assert prod.order == 2
    assert prod.coeff(0) == 1.0
    assert prod.coeff(1) == 0.0
    assert prod.coeff(2) == -1.0


def test_product_truncates_to_min_order():
    a = PowerSeries([1.0, 1.0])            # order 1
    b = PowerSeries([1.0, 0.0, 0.0, 5.0])  # order 3
    assert (a * b).order == 1
    assert (a + b).order == 1
    assert (a - b).order == 1


def test_cauchy_product_matches_convolution():
    rng = np.random.default_rng(101)
    for _ in range(20):
        ca = rng.normal(size=6) + 1j * rng.normal(size=6)
        cb = rng.normal(size=6) + 1j * rng.normal(size=6)
        prod = PowerSeries(ca) * PowerSeries(cb)
        full = np.convolve(ca, cb)
        for k in range(6):
            assert abs(prod.coeff(k) - full[k]) < 1e-12


def test_integrate_then_derive_round_trip():
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
    p = PowerSeries(coeffs)
    q = p.integrate().derive()
    for k in range(9):
        assert abs(q.coeff(k) - p.coeff(k)) < 1e-14


def test_integrate_sets_zero_constant_term():
    p = PowerSeries([3.0, 2.0]).integrate()
    assert p.coeff(0) == 0.0
    assert p.coeff(1) == 3.0
    assert p.coeff(2) == 1.0


def test_shift_and_scale():
    p = PowerSeries([1.0, 2.0])
    s = p.shift(2)
    assert s.coeff(0) == 0 and s.coeff(1) == 0
    assert s.coeff(2) == 1.0 and s.coeff(3) == 2.0
    t = p.scale(3.0 - 1j)
    assert t.coeff(1) == (3.0 - 1j) * 2.0


def test_truncate_and_extend():
    p = PowerSeries([1.0, 2.0, 3.0, 4.0])
    assert p.truncate(1).order == 1
    ext = p.truncate(1).extend(4)
    assert ext.order == 4
    assert ext.coeff(4) == 0.0


def test_horner_evaluation_matches_polyval():
    rng = np.random.default_rng(42)
    for _ in range(25):
        coeffs = rng.normal(size=8) + 1j * rng.normal(size=8)
        p = PowerSeries(coeffs)
        zs = rng.normal(size=5) * 0.4 + 1j * rng.normal(size=5) * 0.4
        want = np.polyval(coeffs[::-1], zs)
        got = p(zs)
        assert np.allclose(got, want, rtol=0, atol=1e-12)
        # scalar call agrees with the array call
        assert abs(p(complex(zs[0])) - want[0]) < 1e-12


def test_exponential_series_partial_sums():
    order = 20
    coeffs = [1.0 / math.factorial(k) for k in range(order + 1)]
    p = PowerSeries(coeffs)
    for z in (0.3, -0.5, 0.2 + 0.4j):
        err = abs(p(z) - np.exp(z))
        # the truncation tail at |z| <= 0.7 is far below 1e-12
        assert err < 1e-12, f"exp partial sum off by {err} at z={z}"
