"""Sharp coefficient, growth, covering and area bounds for the shear class.

Every bound has two computation routes wherever the underlying statement
does: closed forms built on the hypergeometric function on one side, direct
quadrature of the defining integrals on the other.  The dual routes are kept
deliberately separate so they can certify each other.

The image area of a mapping is summed from the Taylor coefficients of its
``h'`` kernel (Parseval on each circle), to an order fixed by an explicit tail
bound; polar disk quadrature serves only radii too close to 1 for that order.
The area envelope stays a 1-d quadrature, independent of both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .mappings import (ClassParams, HarmonicMapping, PolyKernel, check_radius, check_tolerance,
                       make_extremal, within_zeta_cap, zeta_cap)
from .quadrature import disk_integral, integrate_real
from .reports import BoundReport, complex_pair
from .special import hyp2f1

#: closeness to alpha = 1/2 that selects the logarithmic branch
_HALF_EPS = 1e-9
#: absolute tolerance of the growth and area envelope quadratures (the 1-d
#: rule also stops a panel within its rounding floor of 8 ulps)
_ENVELOPE_TOL = 1e-12
#: relative tolerance of the area's disk quadrature; the envelope slack is ten times this
_AREA_TOL = 1e-9


def _rising_product(k: int, alpha: float) -> float:
    """``prod_{j=2..k} (j - 2*alpha)`` (empty product for k < 2)."""
    out = 1.0
    for j in range(2, k + 1):
        out *= j - 2.0 * alpha
    return out


def coeff_bound_a(k: int, alpha: float) -> float:
    """Sharp bound on the k-th analytic-part coefficient, ``k >= 2``."""
    if k < 2:
        raise ParameterError(f"coefficient index must be >= 2, got {k}")
    if not -0.5 <= alpha < 1.0:
        raise ParameterError(f"alpha must lie in [-1/2, 1), got {alpha}")
    return _rising_product(k, alpha) / math.factorial(k)


def coeff_bound_b(k: int, n: int, alpha: float, zeta) -> float:
    """Sharp bound on the (k+n)-th co-analytic coefficient, ``k >= 1``."""
    if k < 1:
        raise ParameterError(f"coefficient index must be >= 1, got {k}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if not -0.5 <= alpha < 1.0:
        raise ParameterError(f"alpha must lie in [-1/2, 1), got {alpha}")
    az = abs(complex(zeta))
    if k == 1:
        return az / (n + 1.0)
    return az * _rising_product(k, alpha) / ((k + n) * math.factorial(k - 1))


def _worst(cands, lowest: bool = False):
    """Reduce ``(score, z, *extra)`` candidates to the worst one.

    The worst is the largest score, or the smallest when ``lowest``; ties go
    to the first candidate.  Returns ``(score, witness, extra)`` with the
    witness ``{"z": [z, 0], "value": score}``.
    """
    worst = (min if lowest else max)(cands, key=lambda c: c[0], default=None)
    if worst is None:
        raise ParameterError("nothing to verify: no indices or radii given")
    score, z, *extra = worst
    return score, {"z": [float(z), 0.0], "value": score}, extra


def verify_coeff_relation(f: HarmonicMapping, n: int, zeta, K: int,
                          tol: float = 1e-12) -> BoundReport:
    """Check the coefficient recursion ``(k+n) b_{k+n} = zeta k a_k`` for
    ``1 <= k <= K``, on the Taylor arrays of ``f`` through ``K`` and ``K + n``.
    """
    tol = check_tolerance(tol, "tolerance")
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    th, tg = f.taylor(max(K, K + n - f.n))
    zeta = complex(zeta)
    worst, witness, _ = _worst(
        (abs((k + n) * complex(tg[k + n]) - zeta * k * complex(th[k])), k)
        for k in range(1, K + 1))
    return BoundReport(
        check="coefficient-relation",
        passed=worst <= tol,
        margin=float(tol - worst),
        witness=witness,
        details={"K": K, "n": n, "zeta": complex_pair(zeta),
                 "max_residual": worst, "tol": tol, "family": f.label},
    )


@dataclass(frozen=True)
class GrowthBounds:
    """Sharp modulus envelope ``phi <= |f| <= psi`` on ``|z| = r``."""

    phi: float
    psi: float
    r: float
    params: ClassParams
    mode: str
    notes: tuple


def _growth_params(params: ClassParams) -> tuple[float, float, int, tuple]:
    """Validate growth/covering hypotheses; project complex zeta to |zeta|."""
    alpha = params.alpha
    if not 0.0 <= alpha < 1.0:
        raise ParameterError(
            f"growth/covering bounds require 0 <= alpha < 1, got {alpha}"
        )
    zeta = complex(params.zeta)
    notes = ()
    if zeta.imag != 0.0 or zeta.real < 0.0:
        notes = ("zeta replaced by |zeta| for the envelope",)
    return alpha, abs(zeta), params.n, notes


def _envelope(r: float, s: float, alpha: float, zeta: float, n: int) -> float:
    """``int_0^r (1 - s zeta rho^n) (1 + s rho)^(2 alpha - 2) drho``: the lower
    growth envelope for ``s = 1``, the upper one for ``s = -1``.

    Closed form ``s lead(s r) - s corr 2F1(n+1, 2-2alpha; n+2; -s r)`` with
    ``lead(x) = int_0^x (1 + t)^(2 alpha - 2) dt`` and
    ``corr = zeta r^(n+1)/(n+1)``.
    """
    correction = zeta * r ** (n + 1) / (n + 1.0)
    x = s * r
    if abs(2.0 * alpha - 1.0) < _HALF_EPS:
        lead, F = math.log1p(x), hyp2f1(1.0, n + 1.0, n + 2.0, -x)
    else:
        lead = ((1.0 + x) ** (2.0 * alpha - 1.0) - 1.0) / (2.0 * alpha - 1.0)
        F = hyp2f1(n + 1.0, 2.0 - 2.0 * alpha, n + 2.0, -x)
    return s * lead - s * correction * F


def growth_bounds(r: float, params: ClassParams, mode: str = "closed-form") -> GrowthBounds:
    """Sharp growth envelope at radius ``r``.

    ``mode="closed-form"`` uses the hypergeometric expressions;
    ``mode="quadrature"`` integrates ``(1 -+ |zeta| rho^n)/(1 +- rho)^(2-2alpha)``
    directly.  The hypotheses require ``0 <= alpha < 1``.
    """
    check_radius(r, "radius")
    alpha, zeta, n, notes = _growth_params(params)
    if mode == "closed-form":
        phi = _envelope(r, 1.0, alpha, zeta, n)
        psi = _envelope(r, -1.0, alpha, zeta, n)
    elif mode == "quadrature":
        expo = 2.0 * (1.0 - alpha)
        phi = integrate_real(
            lambda rho: (1.0 - zeta * rho**n) / (1.0 + rho) ** expo, 0.0, r, tol=_ENVELOPE_TOL)
        psi = integrate_real(
            lambda rho: (1.0 + zeta * rho**n) / (1.0 - rho) ** expo, 0.0, r, tol=_ENVELOPE_TOL)
    else:
        raise ParameterError(f"unknown growth mode {mode!r}")
    return GrowthBounds(phi=float(phi), psi=float(psi), r=r, params=params,
                        mode=mode, notes=notes)


def covering_radius(params: ClassParams) -> float:
    """Radius of the disk guaranteed inside the image: the ``r -> 1`` limit
    of the lower growth envelope."""
    alpha, zeta, n, _ = _growth_params(params)
    return _envelope(1.0, 1.0, alpha, zeta, n)


#: first order tried for a power-kernel area series; doubled until the tail fits
_SERIES_START = 64
#: largest area series summed; closer to the boundary the disk rule takes over
_SERIES_CAP = 1 << 22
#: tail of the area series allowed, relative to the sum of the terms' moduli
_SERIES_REL_TAIL = 1e-16
#: power-kernel area terms are made and summed this many at a time
_SERIES_CHUNK = 1 << 16


def _parseval_terms(c, r: float, zeta2: float, n: int, j0: int = 0):
    """Terms ``pi |c_j|^2 r^(2j+2) (1/(j+1) - |zeta|^2 r^(2n)/(j+n+1))`` of the
    area of the shear with ``h' = sum c_j z^j`` and ``g' = zeta z^n h'``;
    ``c`` holds ``|c_j|`` from ``j = j0`` on."""
    j = np.arange(j0, j0 + len(c), dtype=float)
    rr = r * r
    return math.pi * (c * c) * rr ** (j + 1.0) * (1.0 / (j + 1.0) - zeta2 * rr**n / (j + n + 1.0))


def _binomial_moduli(q: float, N: int, j0: int = 0, carry: float = 1.0):
    """``|c_j| = prod_{i<=j} |q - (i - 1)|/i`` for ``j0 <= j < N``, the coefficient
    moduli of ``(1 - delta z)**q`` with ``|delta| = 1``; ``carry`` is
    ``|c_(j0-1)|``, so a running product continues bit for bit."""
    i = np.arange(max(j0, 1), N, dtype=float)
    c = np.cumprod(np.concatenate(([carry], np.abs(q - (i - 1.0)) / i)))
    return c[1:] if j0 else c


def _halving_sum(x: list) -> float:
    """Sum of ``x``, its two halves first: numpy's pairwise order when every
    item is the sum of an equal power-of-two slice."""
    if len(x) == 1:
        return x[0]
    h = len(x) // 2
    return _halving_sum(x[:h]) + _halving_sum(x[h:])


def _power_series(q: float, N: int, r: float, zeta2: float, n: int):
    """``(sum, sum of moduli, |c_(N-1)|)`` of the first ``N`` area terms of
    ``h' = (1 - delta z)**q``, ``|delta| = 1``.

    The terms are made ``_SERIES_CHUNK`` at a time, the running product of
    :func:`_binomial_moduli` carried from chunk to chunk, so memory stays
    bounded.  For ``N`` a power of two the results equal whole-array
    ``cumprod`` and ``np.sum`` bit for bit; otherwise they may differ in the
    last bits.
    """
    sums, moduli, carry = [], [], 1.0
    for j0 in range(0, N, _SERIES_CHUNK):
        c = _binomial_moduli(q, min(j0 + _SERIES_CHUNK, N), j0, carry)
        carry = c[-1]
        terms = _parseval_terms(c, r, zeta2, n, j0)
        sums.append(np.sum(terms))
        moduli.append(np.sum(np.abs(terms)))
    return _halving_sum(sums), _halving_sum(moduli), carry


def _power_tail(c_last: float, q: float, N: int, r: float, zeta2: float, n: int) -> float:
    """Bound on ``sum_{j>=N} |term_j|`` of the power-kernel area series.

    With ``t_j = |c_j|^2 r^(2j+2)/(j+1)`` and ``M = N - 1 >= max(q, 0)``,
    ``t_(j+1)/t_j <= rho = r^2 max(1, ((M-q)/(M+1))^2)`` for ``j >= M``, so the
    tail is at most ``t_M rho/(1 - rho)``; ``|term_j| <= pi t_j max(1,
    |zeta|^2 r^(2n))``.  Infinite while ``rho >= 1``.
    """
    M = N - 1
    rho = r * r * max(1.0, ((M - q) / (M + 1.0)) ** 2)
    if rho >= 1.0:
        return math.inf
    t_last = c_last * c_last * r ** (2 * M + 2) / (M + 1.0)
    return math.pi * max(1.0, zeta2 * r ** (2 * n)) * t_last * rho / (1.0 - rho)


def area(f: HarmonicMapping, r: float, tol: float = _AREA_TOL) -> tuple[float, str, int | None]:
    """``(area, route, terms)``: the image area ``integral of (|h'|^2 - |g'|^2)``
    over ``|z| < r``, summed as ``terms`` Parseval terms of the ``h'`` kernel's
    coefficients (route ``"series"``; exact for a polynomial ``h'``) or, past
    ``_SERIES_CAP`` (2^22) terms, by polar disk quadrature to relative ``tol``
    (route ``"quadrature"``, ``terms`` None)."""
    check_radius(r, "radius")
    tol = check_tolerance(tol, "tolerance")
    zeta2 = abs(f.zeta) ** 2
    if isinstance(f.kernel, PolyKernel):
        c = np.abs(f.kernel.hp)
        return float(np.sum(_parseval_terms(c, r, zeta2, f.n))), "series", len(c)
    q = f.kernel.q
    N = max(_SERIES_START, math.ceil(q) + 1)
    while N <= _SERIES_CAP:
        total, moduli, c_last = _power_series(q, N, r, zeta2, f.n)
        if _power_tail(c_last, q, N, r, zeta2, f.n) <= _SERIES_REL_TAIL * moduli:
            return float(total), "series", N
        N *= 2
    return disk_integral(f.jacobian, r, tol=tol), "quadrature", None


@dataclass(frozen=True)
class AreaBounds:
    """Quadrature sandwich for the image area at radius ``r``."""

    lower: float
    upper: float
    r: float
    params: ClassParams
    notes: tuple

    def margin(self, a: float) -> float:
        """How far the area ``a`` lies inside the envelope, with a slack of
        ten times the area tolerance; negative when it lies outside."""
        return min(a - self.lower, self.upper - a) + 10.0 * _AREA_TOL


def area_bounds(params: ClassParams, r: float) -> AreaBounds:
    """Sharp area sandwich ``2 pi int rho (1 - |zeta|^2 rho^(2n)) / (1 +- rho)^(4-4alpha)``."""
    check_radius(r, "radius")
    alpha, zeta, n, notes = _growth_params(params)
    expo = 4.0 * (1.0 - alpha)
    zz = zeta * zeta

    lower = 2.0 * math.pi * integrate_real(
        lambda rho: rho * (1.0 - zz * rho ** (2 * n)) / (1.0 + rho) ** expo,
        0.0, r, tol=_ENVELOPE_TOL)
    upper = 2.0 * math.pi * integrate_real(
        lambda rho: rho * (1.0 - zz * rho ** (2 * n)) / (1.0 - rho) ** expo,
        0.0, r, tol=_ENVELOPE_TOL)
    return AreaBounds(lower=float(lower), upper=float(upper), r=r,
                      params=params, notes=notes)


def verify_sharpness(params: ClassParams, r_list, tol: float = 1e-8) -> BoundReport:
    """Confirm the growth envelope is attained by the extremal family.

    The upper envelope is met by the ``delta = 1`` extremal at ``+r``; the
    lower one at ``-r`` after flipping the sign of ``zeta`` when ``n`` is
    even (the rotation that realises the minimising direction).  Mapping
    values come from the elementary closed forms, the envelope from
    quadrature, so the two sides are independent code paths.
    """
    tol = check_tolerance(tol, "tolerance")
    alpha, zeta, n, _ = _growth_params(params)
    base = ClassParams(alpha, zeta, n)
    f_psi = make_extremal(base)
    zeta_phi = zeta if n % 2 == 1 else -zeta
    f_phi = make_extremal(ClassParams(alpha, zeta_phi, n))

    def deviations():
        for r in r_list:
            gb = growth_bounds(r, base, mode="quadrature")
            yield abs(abs(complex(f_psi(r + 0j))) - gb.psi), r, "psi"
            yield abs(abs(complex(f_phi(-r + 0j))) - gb.phi), -r, "phi"

    worst, witness, (side,) = _worst(deviations())
    return BoundReport(
        check="growth-sharpness",
        passed=worst <= tol,
        margin=float(tol - worst),
        witness=witness,
        details={"alpha": alpha, "zeta": zeta, "n": n, "tol": tol,
                 "radii": [float(r) for r in r_list],
                 "worst_side": side},
    )


def verify_coeff_sharpness(params: ClassParams, K: int, tol: float = 1e-10) -> BoundReport:
    """Check the ``delta = 1`` extremal member attains the coefficient bounds
    exactly.

    Compares ``|a_k|`` for ``2 <= k <= K`` and ``|b_(k+n)|`` for
    ``1 <= k <= K`` against the closed-form bounds; the worst absolute
    deviation drives the verdict.
    """
    tol = check_tolerance(tol, "tolerance")
    th, tg = make_extremal(params).taylor(K)

    def deviations():
        for k in range(2, K + 1):
            yield abs(abs(complex(th[k])) - coeff_bound_a(k, params.alpha)), k
        for k in range(1, K + 1):
            yield (abs(abs(complex(tg[k + params.n]))
                       - coeff_bound_b(k, params.n, params.alpha, params.zeta)), k + params.n)

    worst, witness, _ = _worst(deviations())
    return BoundReport(
        check="coefficient-sharpness",
        passed=worst <= tol,
        margin=float(tol - worst),
        witness=witness,
        details={"alpha": params.alpha, "zeta": complex_pair(params.zeta), "n": params.n,
                 "delta": [1.0, 0.0], "K": K, "tol": tol},
    )


def verify_growth_consistency(params: ClassParams, r_list,
                              tol: float = 1e-9) -> BoundReport:
    """Closed-form vs adaptive-quadrature agreement of the growth envelope."""
    tol = check_tolerance(tol, "tolerance")

    def deviations():
        for r in r_list:
            closed = growth_bounds(r, params, mode="closed-form")
            quad = growth_bounds(r, params, mode="quadrature")
            yield abs(closed.phi - quad.phi), r, "phi"
            yield abs(closed.psi - quad.psi), r, "psi"

    worst, witness, (side,) = _worst(deviations())
    return BoundReport(
        check="growth-consistency",
        passed=worst <= tol,
        margin=float(tol - worst),
        witness=witness,
        details={"alpha": params.alpha, "zeta": complex_pair(params.zeta),
                 "n": params.n, "tol": tol, "worst_side": side,
                 "radii": [float(r) for r in r_list]},
    )


def verify_covering_consistency(params: ClassParams, tol: float = 1e-4) -> BoundReport:
    """The covering radius should match the lower envelope as ``r -> 1``,
    here at ``r = 1 - 1e-6``."""
    tol = check_tolerance(tol, "tolerance")
    r = 1.0 - 1e-6
    rad = covering_radius(params)
    phi = growth_bounds(r, params).phi
    dev = abs(rad - phi)
    return BoundReport(
        check="covering-consistency",
        passed=dev <= tol,
        margin=float(tol - dev),
        witness={"z": [float(r), 0.0], "value": dev},
        details={"alpha": params.alpha, "zeta": complex_pair(params.zeta),
                 "n": params.n, "covering_radius": rad, "phi_at_r": phi,
                 "tol": tol},
    )


def verify_area_sandwich(params: ClassParams, r_list) -> BoundReport:
    """Computed image area of the extremal member must sit inside the
    two-sided envelope at every radius (:meth:`AreaBounds.margin`)."""
    f = make_extremal(params)

    def margins():
        for r in r_list:
            a = area(f, r)[0]
            ab = area_bounds(params, r)
            yield ab.margin(a), r, a, ab.lower, ab.upper

    worst, witness, (value, lower, upper) = _worst(margins(), lowest=True)
    witness["value"] = value
    return BoundReport(
        check="area-sandwich",
        passed=worst >= 0.0,
        margin=float(worst),
        witness=witness,
        details={"alpha": params.alpha, "zeta": complex_pair(params.zeta),
                 "n": params.n, "radii": [float(r) for r in r_list],
                 "lower": lower, "upper": upper,
                 "quad_tol": _AREA_TOL},
    )


def default_lattice(alphas, zetas, zeta_rel, ns) -> list[ClassParams]:
    """Admissible (alpha, zeta, n) combinations used by the verification
    sweeps; zeta values whose modulus exceeds ``1/(2n-1)`` are skipped."""
    out = []
    for n in ns:
        vals = [z for z in zetas if within_zeta_cap(abs(z), n)]
        vals += [rel * zeta_cap(n) for rel in zeta_rel]
        for alpha in alphas:
            for z in vals:
                out.append(ClassParams(alpha, z, n))
    return out
