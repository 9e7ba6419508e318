"""Truncated power series with exact coefficient arithmetic.

A :class:`PowerSeries` stores Taylor coefficients ``c0..cN`` of an analytic
function about the origin.  All arithmetic is formal: operations combine
coefficients exactly and truncate so that every retained coefficient of a
product equals the exact Cauchy-product coefficient.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import SeriesOrderError


class PowerSeries:
    """Dense Taylor coefficients ``c0..cN`` with truncation-aware arithmetic.

    The truncation order ``N`` is ``len(coeffs) - 1``.  Binary operations
    truncate to the smaller of the two orders, so no retained coefficient is
    ever contaminated by missing higher-order terms.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=np.complex128))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must form a non-empty 1-d sequence")
        self.coeffs = arr

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return cls(np.zeros(order + 1, dtype=np.complex128))

    @classmethod
    def monomial(cls, power: int, coeff=1.0, order: int | None = None) -> "PowerSeries":
        order = power if order is None else order
        if order < power:
            raise ValueError("order must be at least the monomial power")
        c = np.zeros(order + 1, dtype=np.complex128)
        c[power] = coeff
        return cls(c)

    # -- basic protocol -------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __len__(self) -> int:
        return len(self.coeffs)

    def __repr__(self) -> str:
        return f"PowerSeries(order={self.order}, coeffs={self.coeffs!r})"

    def coeff(self, k: int) -> complex:
        """Return ``c_k`` (0 for ``k`` beyond the truncation order is *not*
        assumed; asking past the order raises, since the value is unknown)."""
        if not 0 <= k <= self.order:
            raise SeriesOrderError(f"coefficient {k} beyond truncation order {self.order}")
        return complex(self.coeffs[k])

    # -- calculus -------------------------------------------------------------

    def derive(self) -> "PowerSeries":
        """Formal derivative; lowers the truncation order by one."""
        if self.order == 0:
            raise SeriesOrderError("cannot differentiate an order-0 series")
        n = np.arange(1, self.order + 1)
        return PowerSeries(self.coeffs[1:] * n)

    def integrate(self) -> "PowerSeries":
        """Formal antiderivative with constant term 0; raises the order by one."""
        n = np.arange(1, self.order + 2)
        return PowerSeries(np.concatenate(([0.0], self.coeffs / n)))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        m = min(self.order, other.order)
        return PowerSeries(self.coeffs[: m + 1] + other.coeffs[: m + 1])

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        m = min(self.order, other.order)
        return PowerSeries(self.coeffs[: m + 1] - other.coeffs[: m + 1])

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            m = min(self.order, other.order)
            full = np.convolve(self.coeffs, other.coeffs)
            return PowerSeries(full[: m + 1])
        if isinstance(other, numbers.Number):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c) -> "PowerSeries":
        return PowerSeries(self.coeffs * complex(c))

    def shift(self, n: int) -> "PowerSeries":
        """Multiply by ``z**n`` exactly; raises the truncation order by ``n``."""
        if n < 0:
            raise ValueError("shift exponent must be non-negative")
        return PowerSeries(np.concatenate((np.zeros(n, dtype=np.complex128), self.coeffs)))

    def truncate(self, order: int) -> "PowerSeries":
        if order < 0:
            raise SeriesOrderError("cannot truncate below order 0")
        if order >= self.order:
            return self
        return PowerSeries(self.coeffs[: order + 1])

    def extend(self, order: int) -> "PowerSeries":
        """Pad with zero coefficients up to ``order``.

        Only meaningful when the tail is known to vanish (e.g. polynomials).
        """
        if order <= self.order:
            return self
        pad = np.zeros(order - self.order, dtype=np.complex128)
        return PowerSeries(np.concatenate((self.coeffs, pad)))

    # -- evaluation -----------------------------------------------------------

    def __call__(self, z):
        """Horner evaluation of the truncated polynomial; scalar or ndarray.

        Starts from the top coefficient and skips the additions of zero
        coefficients, which leave every nonzero value unchanged.
        """
        *rest, top = self.coeffs.tolist()
        if not isinstance(z, np.ndarray):
            z = complex(z)
        elif not rest:
            return np.full(z.shape, top, dtype=np.complex128)
        acc = top
        for c in reversed(rest):
            acc = acc * z + c if c else acc * z
        return acc
