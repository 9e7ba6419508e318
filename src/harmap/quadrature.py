"""Composite Gauss-Legendre quadrature with nested-rule error control.

Two engines: an adaptive 1-d rule on real intervals (dyadic panel splitting,
error estimated by comparing a panel against its two halves) and a polar
tensor rule on disks (node counts doubled until two successive levels agree).
Integrands must accept numpy arrays.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConvergenceError

#: Gauss-Legendre nodes per panel of the 1-d rule
_ORDER = 16
#: dyadic splits of a panel before the 1-d rule gives up
_MAX_DEPTH = 48
#: relative rounding floor of a panel's error budget: eight ulps of its value
_ROUND_FLOOR = 8 * 2.0**-52
#: radial and angular nodes of the first level of the disk rule
_DISK_RADIAL = 128
_DISK_ANGULAR = 256
#: doublings of both node counts before the disk rule gives up
_DISK_DOUBLES = 5


@lru_cache(maxsize=32)
def _legendre_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _panel(fn, a: float, b: float) -> float:
    x, w = _legendre_nodes(_ORDER)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * np.sum(w * fn(mid + half * x))


def integrate_real(fn, a: float, b: float, tol: float = 1e-12) -> float:
    """Adaptive composite Gauss-Legendre integral of a real ``fn`` over ``[a, b]``.

    Panels are split dyadically until the nested estimate (one panel vs. its
    two halves) meets the locally apportioned share of the absolute ``tol``,
    or lies within ``_ROUND_FLOOR`` of the panel's value, below which a split
    cannot sharpen it; exceeding ``_MAX_DEPTH`` splits raises
    :class:`ConvergenceError`.
    """
    if a == b:
        return 0.0

    total = 0.0
    # stack entries: (left, right, coarse value, depth)
    stack = [(float(a), float(b), _panel(fn, a, b), 0)]
    width = abs(b - a)
    while stack:
        lo, hi, coarse, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _panel(fn, lo, mid)
        right = _panel(fn, mid, hi)
        fine = left + right
        budget = max(tol * max(abs(hi - lo) / width, 1e-3), _ROUND_FLOOR * abs(fine))
        if abs(fine - coarse) <= budget:
            total += fine
            continue
        if depth >= _MAX_DEPTH:
            raise ConvergenceError(
                f"quadrature failed to converge on [{lo}, {hi}] at depth {depth}"
            )
        stack.append((lo, mid, left, depth + 1))
        stack.append((mid, hi, right, depth + 1))
    return float(total)


def disk_integral(fn, r: float, tol: float = 1e-9) -> float:
    """Integral of a real integrand over the disk ``|z| <= r`` in polar form.

    ``fn`` receives a complex array of sample points and must return the
    integrand value *without* the polar area factor (it is applied here).
    Radial direction uses Gauss-Legendre on ``[0, r]``; angular direction uses
    the (spectrally accurate) uniform periodic rule.  Both counts are doubled
    until two successive levels agree to ``tol`` (relative).
    """

    def level(nr: int, na: int) -> float:
        x, w = _legendre_nodes(nr)
        rho = 0.5 * r * (x + 1.0)
        wr = 0.5 * r * w
        theta = 2.0 * np.pi * np.arange(na) / na
        phase = np.exp(1j * theta)
        acc = 0.0
        chunk = max(1, 4_000_000 // max(na, 1))
        for i0 in range(0, nr, chunk):
            rr = rho[i0 : i0 + chunk, None]
            vals = fn(rr * phase[None, :])
            acc += float(np.sum(wr[i0 : i0 + chunk] * rho[i0 : i0 + chunk]
                                * vals.sum(axis=1).real))
        return acc * (2.0 * np.pi / na)

    n_radial, n_angular = _DISK_RADIAL, _DISK_ANGULAR
    prev = level(n_radial, n_angular)
    for _ in range(_DISK_DOUBLES):
        n_radial *= 2
        n_angular *= 2
        curr = level(n_radial, n_angular)
        if abs(curr - prev) <= tol * max(abs(curr), 1e-30):
            return curr
        prev = curr
    raise ConvergenceError(
        f"disk quadrature did not stabilise to {tol} within {_DISK_DOUBLES} doublings"
    )
