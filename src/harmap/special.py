"""Real digamma and the Gauss hypergeometric function on the real line.

Everything here is restricted to what the growth and covering envelopes
need: real parameters ``a, b, c`` and a real argument ``x in [-1, 1)``.
"""

from __future__ import annotations

import cmath
import math

from .errors import ConvergenceError, DomainError, PoleError

#: tail bound at which a hypergeometric series stops
HYP_TOL = 1e-12
#: cap on the number of series terms before giving up
HYP_MAX_TERMS = 10_000


def _hyp_series(a: float, b: float, c: float, x: float, max_terms: int) -> float:
    """Direct summation with a tail-ratio stopping rule.

    Stops once the geometric tail bound ``|term| * rho / (1 - rho)`` with
    ``rho = max(next ratio, |x|)`` drops below ``HYP_TOL``.
    """
    term = 1.0
    total = term
    ax = abs(x)
    for k in range(max_terms):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * x
        total += term
        ratio_next = ax * abs(a + k + 1) * abs(b + k + 1) / (abs(c + k + 1) * (k + 2.0))
        rho = max(ratio_next, ax)
        if rho < 1.0 and abs(term) * rho / (1.0 - rho) <= HYP_TOL:
            return total
        if term == 0:
            return total
    raise ConvergenceError(
        f"hypergeometric series did not converge within {max_terms} terms at x={x}"
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


def _hyp_near_one(a: float, b: float, c: float, x: float) -> float:
    """2F1 for ``x`` near 1 via the ``1 - x`` connection formulas.

    Uses the generic two-term connection when ``c - a - b`` is not an
    integer and the logarithmic variants when it is.  Arguments only
    slightly off an integer (within ``(1e-12, 1e-5)`` of one) would suffer
    catastrophic cancellation between the two generic terms, so that sliver
    falls back to plain summation with a raised term cap.  A terminating
    series (``a`` or ``b`` a non-positive integer), whose logarithmic
    variant would take digamma at a pole, is summed directly too.
    """
    u = 1.0 - x
    s = c - a - b
    m = round(s)
    log_u = math.log(u)

    if abs(s - m) > 1e-5:
        t1 = (math.gamma(c) * math.gamma(s) * _rgamma(c - a) * _rgamma(c - b)
              * _hyp_series(a, b, 1.0 - s, u, HYP_MAX_TERMS))
        t2 = (math.gamma(c) * math.gamma(-s) * _rgamma(a) * _rgamma(b)
              * u**s * _hyp_series(c - a, c - b, 1.0 + s, u, HYP_MAX_TERMS))
        return t1 + t2

    if abs(s - m) > 1e-12:
        return _hyp_series(a, b, c, x, 400_000)
    if any(p <= 0.0 and float(p).is_integer() for p in (a, b)):
        return _hyp_series(a, b, c, x, HYP_MAX_TERMS)

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
        for k in range(HYP_MAX_TERMS):
            lk = log_u - psi1 - psi2 + psia + psib
            total += coef * lk
            ratio = abs(hi[0] + k) * abs(hi[1] + k) / ((k + 1.0) * (k + M + 1.0)) * u
            rho = max(u, ratio)
            if rho < 1.0 and abs(coef) * (abs(lk) + 2.0) * rho / (1.0 - rho) <= HYP_TOL:
                break
            coef *= (hi[0] + k) * (hi[1] + k) / ((k + 1.0) * (k + M + 1.0)) * u
            psi1 += 1.0 / (k + 1.0)
            psi2 += 1.0 / (k + M + 1.0)
            psia += 1.0 / (hi[0] + k)
            psib += 1.0 / (hi[1] + k)
        else:
            raise ConvergenceError(
                f"logarithmic 2F1 series stalled near x=1 (x={x}, c-a-b={m})")
        return prefix + scale * total

    if m >= 0:
        return log_branch((a, b), (a + m, b + m))
    mm = -m
    return log_branch((a - mm, b - mm), (a, b))


def hyp2f1(a: float, b: float, c: float, x: float) -> float:
    """Gauss hypergeometric function for real parameters and ``x in [-1, 1)``.

    Three branches: the Pfaff transformation ``x -> x/(x-1)`` for
    ``x < -1/2`` (it maps ``x = -1`` to ``1/2``); direct summation up to
    ``x = 3/4``; the ``1 - x`` connection formulas from there on, where
    direct summation slows to a crawl.
    """
    if c <= 0 and float(c).is_integer():
        raise PoleError(f"2F1 parameter pole: c={c} is a non-positive integer")
    x = float(x)
    if not -1.0 <= x < 1.0:
        raise DomainError(f"hyp2f1 requires x in [-1, 1), got x={x}")
    if x < -0.5:
        # (1-x)^(-a) through the complex log: the real math.log and ** round
        # differently in the last bit, and the envelope documents keep this one
        prefactor = cmath.exp(-a * cmath.log(1.0 - x)).real
        return prefactor * _hyp_series(a, c - b, c, x / (x - 1.0), HYP_MAX_TERMS)
    if x < 0.75:
        return _hyp_series(a, b, c, x, HYP_MAX_TERMS)
    return _hyp_near_one(a, b, c, x)
