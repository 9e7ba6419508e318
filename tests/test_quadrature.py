"""Adaptive Gauss-Legendre quadrature: line and disk integrals."""

import math

import numpy as np
import pytest

from harmap.errors import ConvergenceError
from harmap.quadrature import disk_integral, integrate_real


def test_polynomial_exact():
    got = integrate_real(lambda x: x**3, 0.0, 1.0)
    assert got == pytest.approx(0.25, abs=1e-14)


def test_reversed_interval_sign():
    fwd = integrate_real(lambda x: x**2, 0.0, 1.0)
    bwd = integrate_real(lambda x: x**2, 1.0, 0.0)
    assert fwd == pytest.approx(-bwd, abs=1e-13)


def test_oscillatory_integral():
    got = integrate_real(lambda x: np.sin(7.0 * x) ** 2, 0.0, 2.0 * math.pi)
    assert got == pytest.approx(math.pi, abs=1e-10)


def test_nearly_singular_endpoint():
    # steep but integrable peak: 1/sqrt(x) on [1e-12, 1] -> 2 - 2e-6
    got = integrate_real(lambda x: 1.0 / np.sqrt(x), 1e-12, 1.0)
    assert got == pytest.approx(2.0 - 2e-6, abs=1e-8)


def test_disk_integral_of_constant():
    got = disk_integral(lambda z: np.ones_like(z, dtype=float), 0.5)
    assert got == pytest.approx(math.pi * 0.25, rel=1e-9)


def test_disk_integral_of_radius_squared():
    # integral of |z|^2 over |z| < r equals pi r^4 / 2
    r = 0.8
    got = disk_integral(lambda z: np.abs(z) ** 2, r)
    assert got == pytest.approx(math.pi * r**4 / 2.0, rel=1e-9)


def test_disk_integral_poisson_mean():
    # angular mean of 1/|1-z|^2 on |z|=rho is 1/(1-rho^2);
    # disk integral over |z| < r is -pi log(1 - r^2)
    r = 0.5
    got = disk_integral(lambda z: 1.0 / np.abs(1.0 - z) ** 2, r)
    assert got == pytest.approx(-math.pi * math.log(1.0 - r * r), rel=1e-9)


def test_non_integrable_singularity_raises():
    with pytest.raises(ConvergenceError):
        integrate_real(lambda x: 1.0 / x, 0.0, 1.0)
