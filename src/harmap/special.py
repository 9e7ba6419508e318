"""Principal-branch powers and the Gauss hypergeometric function.

Everything here is restricted to what disk-mapping work needs: real
parameters ``a, b, c``, arguments ``|z| <= 1``, and principal branches
(argument in ``(-pi, pi]``) throughout.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import (
    BranchCutError,
    ConvergenceError,
    DivergenceError,
    DomainError,
    PoleError,
)

#: default relative tolerance for hypergeometric summation
HYP_TOL = 1e-12
#: hard cap on the number of series terms before giving up
HYP_MAX_TERMS = 10_000


def principal_pow(w, gamma: float) -> complex:
    """``w**gamma`` via ``exp(gamma*Log w)`` with the principal logarithm.

    ``w`` must avoid the closed negative real axis (the branch cut, origin
    included); for real ``w > 0`` the result agrees with the real power.
    """
    wc = complex(w)
    if wc.imag == 0.0 and wc.real <= 0.0:
        raise BranchCutError(f"principal power undefined on the cut: w={wc}")
    return cmath.exp(gamma * cmath.log(wc))


def _hyp_series(a: float, b: float, c: float, z: complex, tol: float, max_terms: int) -> complex:
    """Direct summation with a tail-ratio stopping rule.

    Stops once the geometric tail bound ``|term| * rho / (1 - rho)`` with
    ``rho = max(next ratio, |z|)`` drops below ``tol``.
    """
    term = 1.0 + 0j
    total = term
    az = abs(z)
    for k in range(max_terms):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total += term
        ratio_next = az * abs(a + k + 1) * abs(b + k + 1) / (abs(c + k + 1) * (k + 2.0))
        rho = max(ratio_next, az)
        if rho < 1.0 and abs(term) * rho / (1.0 - rho) <= tol:
            return total
        if term == 0:
            return total
    raise ConvergenceError(
        f"hypergeometric series did not converge within {max_terms} terms at z={z}"
    )


def digamma(x: float) -> float:
    """Real digamma function ``psi(x)``.

    Reflection for ``x < 1/2``, upward recurrence to ``x >= 12``, then the
    Bernoulli asymptotic series; poles at non-positive integers raise.
    """
    x = float(x)
    if x <= 0.0 and x.is_integer():
        raise PoleError(f"digamma pole at non-positive integer x={x}")
    if x < 0.5:
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * x)
    acc = 0.0
    while x < 12.0:
        acc -= 1.0 / x
        x += 1.0
    t = 1.0 / (x * x)
    tail = t * (1.0 / 12.0 - t * (1.0 / 120.0 - t * (1.0 / 252.0 - t * (
        1.0 / 240.0 - t * (1.0 / 132.0 - t * (691.0 / 32760.0))))))
    return acc + math.log(x) - 0.5 / x - tail


def _rgamma(x: float) -> float:
    """``1/Gamma(x)`` extended by zero at the poles."""
    if x <= 0.0 and float(x).is_integer():
        return 0.0
    return 1.0 / math.gamma(x)


def _hyp_near_one(a: float, b: float, c: float, x: float, tol: float,
                  max_terms: int) -> complex:
    """2F1 for real argument near 1 via the 1-z connection formulas.

    Uses the generic two-term connection when ``c - a - b`` is not an
    integer and the logarithmic variants when it is.  Arguments only
    slightly off an integer (within ``(1e-12, 1e-5)`` of one) would suffer
    catastrophic cancellation between the two generic terms, so that sliver
    falls back to plain summation with a raised term cap.
    """
    u = 1.0 - x
    s = c - a - b
    m = round(s)
    log_u = math.log(u)

    if abs(s - m) > 1e-5:
        t1 = (math.gamma(c) * math.gamma(s) * _rgamma(c - a) * _rgamma(c - b)
              * _hyp_series(a, b, 1.0 - s, u, tol, max_terms))
        t2 = (math.gamma(c) * math.gamma(-s) * _rgamma(a) * _rgamma(b)
              * u**s * _hyp_series(c - a, c - b, 1.0 + s, u, tol, max_terms))
        return t1 + t2

    if abs(s - m) > 1e-12:
        return _hyp_series(a, b, c, complex(x), tol, max(max_terms, 400_000))

    gc = math.gamma(c)

    def log_branch(lo, hi):
        """``c = a + b + m``: a finite prefix of ``M = |m|`` terms in
        ``(a, b) = lo`` plus a log-weighted series in ``(a, b) = hi``, the
        two pairs ``M`` apart; ``u^m`` weighs the prefix when ``m < 0`` and
        the series when ``m > 0``."""
        M = abs(m)
        prefix = 0.0
        if M > 0:
            coef = 1.0
            for k in range(M):
                prefix += coef
                if k + 1 < M:
                    coef *= (lo[0] + k) * (lo[1] + k) / ((k + 1.0) * (k + 1.0 - M)) * u
            prefix *= math.gamma(M) * gc * _rgamma(hi[0]) * _rgamma(hi[1]) * u**min(m, 0)
        sgn = -1.0 if M % 2 else 1.0
        scale = -sgn * gc * _rgamma(lo[0]) * _rgamma(lo[1]) * u**max(m, 0)
        psi1, psi2 = digamma(1.0), digamma(M + 1.0)
        psia, psib = digamma(hi[0]), digamma(hi[1])
        coef = 1.0 / math.gamma(M + 1.0)
        total = 0.0
        for k in range(max(max_terms, 1000)):
            lk = log_u - psi1 - psi2 + psia + psib
            total += coef * lk
            ratio = abs(hi[0] + k) * abs(hi[1] + k) / ((k + 1.0) * (k + M + 1.0)) * u
            rho = max(u, ratio)
            if rho < 1.0 and abs(coef) * (abs(lk) + 2.0) * rho / (1.0 - rho) <= tol:
                break
            coef *= (hi[0] + k) * (hi[1] + k) / ((k + 1.0) * (k + M + 1.0)) * u
            psi1 += 1.0 / (k + 1.0)
            psi2 += 1.0 / (k + M + 1.0)
            psia += 1.0 / (hi[0] + k)
            psib += 1.0 / (hi[1] + k)
        else:
            raise ConvergenceError(
                f"logarithmic 2F1 series stalled near z=1 (z={x}, c-a-b={m})")
        return complex(prefix + scale * total)

    if m >= 0:
        return log_branch((a, b), (a + m, b + m))
    mm = -m
    return log_branch((a - mm, b - mm), (a, b))


def _gauss_value(a: float, b: float, c: float) -> complex:
    """2F1 at z = 1 via the Gamma-quotient evaluation (needs c-a-b > 0)."""
    try:
        val = (
            math.gamma(c)
            * math.gamma(c - a - b)
            / (math.gamma(c - a) * math.gamma(c - b))
        )
    except ValueError:
        # Gamma pole in a denominator factor: the quotient vanishes.
        val = 0.0
    return complex(val)


def hyp2f1(a: float, b: float, c: float, z, tol: float = HYP_TOL,
           max_terms: int = HYP_MAX_TERMS) -> complex:
    """Gauss hypergeometric function for real parameters and ``|z| <= 1``.

    Strategy: direct summation for ``|z| <= 0.5``; the Pfaff transformation
    ``z -> z/(z-1)`` when that shrinks the argument (it maps ``z = -1`` to
    ``1/2``, which also furnishes the analytic continuation at the boundary
    point needed for range-limit work); the ``1 - z`` connection formulas for
    real ``z in [0.75, 1)``, where direct summation slows to a crawl;
    otherwise direct summation inside the open disk, with a hard term cap.

    At ``z = 1`` the function value exists only for ``c - a - b > 0`` (then
    given by the Gamma-quotient); otherwise a :class:`DivergenceError` is
    raised.
    """
    if c <= 0 and float(c).is_integer():
        raise PoleError(f"2F1 parameter pole: c={c} is a non-positive integer")
    zc = complex(z)
    az = abs(zc)
    if az > 1.0 + 1e-12:
        raise DomainError(f"hyp2f1 requires |z| <= 1, got |z|={az}")
    if zc == 0:
        return 1.0 + 0j
    if abs(zc - 1.0) < 1e-14:
        if c - a - b > 0:
            return _gauss_value(a, b, c)
        raise DivergenceError("2F1 diverges at z=1 when c-a-b <= 0")

    if az <= 0.5:
        return _hyp_series(a, b, c, zc, tol, max_terms)

    zp = zc / (zc - 1.0)
    if abs(zp) <= 0.75:
        prefactor = principal_pow(1.0 - zc, -a)
        return prefactor * _hyp_series(a, c - b, c, zp, tol, max_terms)

    if zc.imag == 0.0 and 0.75 <= zc.real < 1.0:
        return _hyp_near_one(a, b, c, zc.real, tol, max_terms)

    if az < 1.0 - 1e-12:
        return _hyp_series(a, b, c, zc, tol, max_terms)

    # |z| = 1 with no useful transformation: the series converges only for
    # c - a - b > 0 and far too slowly to be worth attempting under the cap.
    raise DivergenceError(
        f"no convergent evaluation for 2F1 at boundary point z={zc} (c-a-b={c - a - b})"
    )
