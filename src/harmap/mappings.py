"""Harmonic mappings ``f = h + conj(g)`` on the unit disk.

Every family is a shear: an ``h'`` kernel plus the dilatation ``zeta z^n``,
so that ``g' = zeta z^n h'``.  :class:`HarmonicMapping` derives ``f``, ``h``,
``g``, their first two derivatives and the Taylor arrays from that data in
one place.  A kernel is either

* :class:`PowerKernel` -- ``h' = (1 - delta z)**q``; ``h`` and ``g`` are
  closed forms in the one ``log(1 - delta z)``; or
* :class:`PolyKernel` -- ``h'`` an exact polynomial; ``h`` and ``g`` are
  Horner on the exact Taylor arrays.

Built-in families:

* ``identity`` -- ``f(z) = z`` (``h' = 1``, ``zeta = 0``);
* ``counterexample`` -- ``h' = (1 - z)**(gamma - 1)``, dilatation ``z``; the
  analytic part has curvature ``(1 - gamma*z)/(1 - z)``, parameter
  ``1 < gamma <= 7/4``;
* ``bl`` -- ``h = z - lam*z^2``, dilatation ``z`` (``g = z^2/2 - 2*lam*z^3/3``);
* ``extremal`` -- ``h' = (1 - delta*z)**(2*alpha - 2)``, dilatation
  ``zeta z^n``; saturates the class coefficient and growth bounds;
* ``from-h`` -- a normalized polynomial analytic part sheared by
  ``g' = zeta * z^n * h'``.

All evaluators accept complex scalars or numpy arrays.  Right-hand operands
of complex multiplies are named arrays: numpy may swap ``a * <temporary>`` on
long arrays, and a value must not depend on the array length.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    AdmissibilityError,
    DomainError,
    ParameterError,
    SingularityError,
)

#: evaluation points this close to (or beyond) the unit circle are rejected
_DISK_EDGE = 1.0
#: power-kernel primitive exponents closer to zero than this are summed by expm1
_NEAR_ZERO = 0.5
#: a polynomial root this far outside a disk still counts as inside it
_ROOT_MARGIN = 1e-6


def _horner(c, z):
    """The polynomial with coefficients ``c`` (lowest first, complex128) at
    ``z``, a complex scalar or an ndarray, by Horner's rule.

    Starts from the top coefficient and skips the additions of zero
    coefficients, which leave every nonzero value unchanged.
    """
    *rest, top = c.tolist()
    if not isinstance(z, np.ndarray):
        z = complex(z)
    elif not rest:
        return np.full(z.shape, top, dtype=np.complex128)
    acc = top
    for c in reversed(rest):
        acc = acc * z + c if c else acc * z
    return acc


def _derivative(c, noun: str):
    """Coefficients of the derivative of the polynomial ``c`` (``[0]`` for a
    constant); a :class:`ParameterError`, naming ``c`` as ``noun``, if one overflows."""
    with np.errstate(over="ignore"):
        d = c[1:] * np.arange(1, len(c))
    bad = np.flatnonzero(~np.isfinite(d)) + 1
    if bad.size:
        raise ParameterError(f"{noun} must have a finite derivative, got {bad[0]} * "
                             f"{c[bad[0]]} at index {bad[0]}")
    return d if d.size else np.zeros(1, dtype=np.complex128)


def _primitive(c):
    """Coefficients of the primitive of the polynomial ``c`` that vanishes at 0."""
    return np.concatenate(([0.0], c / np.arange(1, len(c) + 1)))


def _coefficients(c, noun: str) -> np.ndarray:
    """``c`` as a complex128 array; a :class:`ParameterError`, naming it as
    ``noun``, unless it is a non-empty 1-d sequence of finite numbers."""
    c = np.asarray(c, dtype=np.complex128)
    if c.ndim != 1 or c.size == 0:
        raise ParameterError(f"{noun} must form a non-empty 1-d sequence, got shape {c.shape}")
    bad = np.flatnonzero(~np.isfinite(c))
    if bad.size:
        raise ParameterError(f"{noun} must be finite, got {c[bad[0]]} at index {bad[0]}")
    return c


def _check_disk(z) -> None:
    # written so that a NaN point fails too
    if not np.all(np.abs(z) < _DISK_EDGE):
        raise DomainError("evaluation point lies outside the open unit disk")


def check_radius(r: float, noun: str) -> None:
    """A :class:`ParameterError`, naming ``r`` as ``noun``, unless ``0 < r < 1``."""
    if not 0.0 < r < 1.0:
        raise ParameterError(f"{noun} must lie in (0, 1), got {r}")


def check_tolerance(tol: float, noun: str) -> float:
    """``tol`` as a float; a :class:`ParameterError`, naming it as ``noun``,
    unless it is finite and ``> 0``."""
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ParameterError(f"{noun} must be finite and > 0, got {tol}")
    return tol


def check_gamma(gamma: float) -> float:
    """``gamma`` as a float; a :class:`ParameterError` unless ``1 < gamma <= 7/4``."""
    gamma = float(gamma)
    if not 1.0 < gamma <= 1.75:
        raise ParameterError(f"gamma must lie in (1, 7/4], got {gamma}")
    return gamma


@dataclass(frozen=True)
class AnalyticFunction:
    """Evaluator bundle for an analytic function on the disk."""

    value: object
    deriv: object
    deriv2: object

    def __call__(self, z):
        return self.value(z)


def zeta_cap(n: int) -> float:
    """The class cap ``1/(2n - 1)`` on ``|zeta|``."""
    return 1.0 / (2 * n - 1)


def within_zeta_cap(k: float, n: int) -> bool:
    """Whether ``k``, a modulus of ``zeta``, stays within the cap, up to a
    ``1e-12`` rounding slack."""
    return k <= zeta_cap(n) + 1e-12


def _check_zeta_cap(zeta: complex, n: int) -> None:
    if not within_zeta_cap(abs(zeta), n):
        raise AdmissibilityError(f"|zeta|={abs(zeta)} exceeds the cap 1/(2n-1)={zeta_cap(n)}")


def _check_class_n(n) -> int:
    """``n`` as an ``int``; an :class:`AdmissibilityError` unless it is an
    integer ``>= 1``."""
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise AdmissibilityError(f"n must be an integer >= 1, got {n!r}")
    return int(n)


def jacobian_of(hp, gp):
    """``|h'|^2 - |g'|^2`` from the two derivatives."""
    return (hp * np.conjugate(hp)).real - (gp * np.conjugate(gp)).real


def dilatation_of(hp, gp):
    """The second complex dilatation ``g'/h'``; a :class:`SingularityError`
    where ``h'`` vanishes."""
    if np.min(np.abs(hp)) < 1e-300:
        raise SingularityError("dilatation undefined where h' vanishes")
    return gp / hp


class PowerKernel:
    """``h' = (1 - delta z)**q`` with ``|delta| = 1`` (branch point on the circle)."""

    def __init__(self, q: float, delta=1.0):
        if abs(abs(delta) - 1.0) > 1e-14:
            raise ParameterError(f"|delta| must equal 1, got {abs(delta)}")
        self.q = float(q)
        self.delta = delta

    def series(self, order: int) -> np.ndarray:
        """Binomial coefficients ``C(q,k) (-delta)^k`` of ``h'`` through ``order``."""
        c = np.empty(order + 1, dtype=np.complex128)
        c[0] = 1.0
        d = -complex(self.delta)
        for k in range(1, order + 1):
            c[k] = c[k - 1] * (self.q - (k - 1)) / k * d
        return c

    def real_coefficients(self, zeta: complex) -> bool:
        """Whether ``h'`` and ``zeta h'`` have only real Taylor coefficients:
        ``h'(0) = 1``, so ``zeta`` must be real, and ``C(q,1) delta`` is real
        only where ``q = 0`` or ``delta`` is real, and then all are."""
        return zeta.imag == 0.0 and (self.q == 0.0 or complex(self.delta).imag == 0.0)

    def evaluator(self, f: "HarmonicMapping"):
        """``(z, value, order) -> (h, g, h', h'')`` for the shear of ``f``:
        ``h`` and ``g`` when ``value``, the derivatives of ``h`` up to ``order``
        (0, 1 or 2), None for the rest, all from one ``L = log(1 - delta z)``.

        With ``u = 1 - delta t`` the primitive ``int_0^z t^n u^q dt`` is a
        binomial sum over ``m <= n`` of ``(1 - u^(q+1+m))/(q+1+m)`` (``-log u``
        where the exponent is zero); ``h`` is the ``m = 0`` term.  With
        ``E = u^(q+1)`` the power terms add up to ``K - E p(z)`` for a constant
        ``K`` and a polynomial ``p`` of degree ``n``, so ``h``, ``g`` and ``h'``
        take one ``log u`` and two ``exp``, and ``h''`` one more ``exp``.  The
        exponents are spaced by one, so at most one lies within ``_NEAR_ZERO``
        of zero; its weight ``1/expo`` is large and ``1 - u^expo`` cancels, so
        that term is summed on its own as ``-expm1(expo log u)/expo``.
        """
        q, delta, n = self.q, self.delta, f.n
        expo = q + 1.0 + np.arange(n + 1)
        near = next((m for m in range(n + 1) if abs(expo[m]) < _NEAR_ZERO), None)
        weight = [f.zeta * delta ** -(n + 1) * math.comb(n, m) * (-1.0) ** m
                  / (1.0 if m == near else expo[m]) for m in range(n + 1)]
        far = [m for m in range(n + 1) if m != near]
        K = sum(weight[m] for m in far)
        p = sum((PowerKernel(m, delta).series(n) * complex(weight[m]) for m in far),
                np.zeros(n + 1, dtype=np.complex128))
        h_weight = None if near == 0 else 1.0 / (delta * expo[0])

        def near_primitive(L, em=None):
            """``(1 - u^a)/a`` for the near exponent ``a`` (``em = expm1(a L)``
            when already known); ``-log u`` where ``a`` vanishes."""
            a = expo[near]
            if a == 0.0:
                return -L
            return -(np.expm1(a * L) if em is None else em) / a

        def primitives(z, L):
            if near == 0:
                em = np.expm1(expo[0] * L)
                E = 1.0 + em
                D = near_primitive(L, em)
                h = D / delta
            else:
                E = np.exp(expo[0] * L)
                h = (1.0 - E) * h_weight
                if near is not None:
                    D = near_primitive(L)
            Ep = _horner(p, z)
            Ep = E * Ep  # rebinding frees p(z) at once
            g = K - Ep
            return h, g if near is None else g + weight[near] * D

        def evaluate(z, value, order):
            L = self._log_u(z)
            h, g = primitives(z, L) if value else (None, None)
            hp = np.exp(q * L) if order >= 1 else None
            e = np.exp((q - 1.0) * L) if order >= 2 else None
            return h, g, hp, None if e is None else -q * delta * e

        return evaluate

    def hp_bound(self, rho):
        """Bound on ``max |h'|`` over ``|z| <= rho`` (a radius or an array of
        them): ``|1 - delta z|`` lies between ``1 -+ rho |delta|`` there and
        ``q`` is real; infinite for ``q < 0`` once the branch point
        ``1/delta`` lies in the disk."""
        d = np.multiply(rho, abs(self.delta))
        if self.q >= 0.0:
            return (1.0 + d) ** self.q
        with np.errstate(divide="ignore"):
            return np.maximum(1.0 - d, 0.0) ** self.q

    def zero_free(self, rho: float) -> bool:
        """Whether ``h'`` and ``1/h'`` are analytic on ``|z| <= rho``: the
        branch point ``1/delta``, on the unit circle, lies outside."""
        return rho * abs(self.delta) < 1.0

    def singular_points(self) -> np.ndarray:
        """The branch point ``1/delta``, where ``h'`` vanishes (``q > 0``) or
        blows up (``q < 0``); the class checks refine in its direction."""
        return np.array([1.0 / self.delta])

    def _log_u(self, z):
        """``L = log(1 - delta z)``, the one logarithm every value shares, as
        ``log|u| + i arg u`` from real ufuncs: several times faster than the
        complex ``log``, and as close to the exact value on the scale of
        ``max(1, |L|)``, which is what ``exp(a L)`` and ``expm1(a L)`` see."""
        z = np.asarray(z)  # a scalar takes the array loops' arithmetic
        u = 1.0 - z if self.delta == 1 else 1.0 - self.delta * z
        if not np.iscomplexobj(u):
            return np.log(u)  # real u lies in (0, 2)
        L = np.empty(np.shape(u), dtype=np.complex128)
        np.log(np.abs(u), out=L.real)
        np.arctan2(np.imag(u), np.real(u), out=L.imag)
        return L if L.ndim else L[()]


class PolyKernel:
    """``h'`` given exactly by its polynomial coefficients (lowest first)."""

    def __init__(self, hp):
        self.hp = _coefficients(hp, "h' coefficients")
        self.hpp = _derivative(self.hp, "h' coefficients")
        self._roots = None

    def series(self, order: int) -> np.ndarray:
        """The exact polynomial through ``order``: truncated, or padded with zeros."""
        c = np.zeros(order + 1, dtype=np.complex128)
        k = min(order + 1, self.hp.size)
        c[:k] = self.hp[:k]
        return c

    def real_coefficients(self, zeta: complex) -> bool:
        """Whether ``h'`` and ``zeta h'`` have only real Taylor coefficients."""
        return not np.any(self.hp.imag) and (zeta.imag == 0.0 or not np.any(self.hp))

    def evaluator(self, f: "HarmonicMapping"):
        """``(z, value, order) -> (h, g, h', h'')`` by Horner on the exact
        Taylor arrays of ``h`` and ``g`` and on ``h'`` and ``h''``."""
        hp, hpp = self.hp, self.hpp
        th, tg = f.taylor(len(hp))

        def evaluate(z, value, order):
            return (_horner(th, z) if value else None, _horner(tg, z) if value else None,
                    _horner(hp, z) if order >= 1 else None,
                    _horner(hpp, z) if order >= 2 else None)

        return evaluate

    def hp_bound(self, rho):
        """Bound ``sum |c_j| rho^j`` on ``max |h'|`` over ``|z| <= rho`` (a
        radius or an array of them)."""
        return np.polynomial.polynomial.polyval(rho, np.abs(self.hp))

    def zero_free(self, rho: float) -> bool:
        """Whether ``h'`` has no zero on ``|z| <= rho``.  A numerical root
        within ``_ROOT_MARGIN`` outside the disk counts as inside, which covers
        the rounding error of a double root (about ``sqrt(eps)``)."""
        return bool(np.all(np.abs(self.singular_points()) > rho + _ROOT_MARGIN))

    def singular_points(self) -> np.ndarray:
        """The zeros of ``h'``, found once: a root at 0 per zero low
        coefficient, then the reciprocal roots of the reversed polynomial,
        whose leading coefficient is ``h'(0) = 1`` for a normalized map, so a
        tiny top coefficient only moves a root far out (or to infinity, left
        out).  ``+ 0.0`` keeps a linear ``h'``'s root ``-c0/c1`` bit for bit."""
        if self._roots is None:
            c = self.hp
            k = int(np.argmax(c != 0)) if np.any(c) else 0
            with np.errstate(all="ignore"):
                roots = 1.0 / np.polynomial.polynomial.polyroots(c[k:][::-1]) + 0.0
            self._roots = np.concatenate([roots[np.isfinite(roots)], np.zeros(k)])
        return self._roots


class HarmonicMapping:
    """``f = h + conj(g)`` with ``g' = zeta z^n h'`` and ``h'`` from ``kernel``.

    Every value comes from one kernel evaluation, asked for what it needs.
    ``h`` and ``g`` are :class:`AnalyticFunction` views (value and two
    derivatives); :meth:`taylor` gives their Taylor coefficients.
    """

    def __init__(self, kernel, zeta, n: int, label: str):
        self.kernel = kernel
        self.zeta = complex(zeta)
        self.n = _check_class_n(n)
        self.label = label
        self._evaluate = kernel.evaluator(self)
        self.h = AnalyticFunction(lambda z: self._eval(z, True, 0)[0],
                                  lambda z: self._eval(z, False, 1)[2],
                                  lambda z: self.derivs(z)[1])
        self.g = AnalyticFunction(lambda z: self._eval(z, True, 0)[1],
                                  lambda z: self._slopes(z)[1],
                                  lambda z: self.g_second(z, *self.derivs(z)))

    def taylor(self, order: int) -> tuple[np.ndarray, np.ndarray]:
        """Taylor coefficient arrays ``(h, g)`` through ``order`` and
        ``order + n`` (exact, padded with zeros, for a :class:`PolyKernel`)."""
        if order < 1:
            raise ParameterError(f"Taylor order must be >= 1, got {order}")
        hp = self.kernel.series(order - 1)
        return _primitive(hp), _primitive(np.concatenate((np.zeros(self.n), hp)) * self.zeta)

    def _eval(self, z, value: bool, order: int):
        """``(h, g, h', h'')`` at ``z``, disk bound checked: ``h`` and ``g`` if
        ``value``, ``h'`` if ``order >= 1``, ``h''`` if 2; the rest None."""
        _check_disk(z)
        return self._evaluate(z, value, order)

    def _g_prime(self, z, hp):
        """``g' = (zeta z^n) h'``, in the class checks' operand order: their
        residual is 0."""
        w = z if self.n == 1 else z**self.n
        return (w if self.zeta == 1 else self.zeta * w) * hp

    def g_second(self, z, hp, hpp):
        """``g''(z)`` from ``h'(z)`` and ``h''(z)``: the derivative of
        ``zeta z^n h'``."""
        s = self.n * z ** (self.n - 1) * hp + z**self.n * hpp
        return self.zeta * s

    def _slopes(self, z):
        """``(h'(z), g'(z))`` from one kernel evaluation."""
        hp = self._eval(z, False, 1)[2]
        return hp, self._g_prime(z, hp)

    def parts(self, z):
        """``(h(z), g(z), h'(z), g'(z))`` from one kernel evaluation."""
        h, g, hp, _ = self._eval(z, True, 1)
        return h, g, hp, self._g_prime(z, hp)

    def derivs(self, z):
        """``(h'(z), h''(z))`` from one kernel evaluation."""
        return self._eval(z, False, 2)[2:]

    def __call__(self, z):
        h, g, _, _ = self._eval(z, True, 0)
        return h + np.conjugate(g)

    def eval_all(self, z):
        """``(f(z), h'(z), g'(z))`` from one kernel evaluation, bit-identical
        to ``(f(z), f.h.deriv(z), f.g.deriv(z))``."""
        h, g, hp, gp = self.parts(z)
        return h + np.conjugate(g), hp, gp

    def jacobian(self, z):
        """``|h'|^2 - |g'|^2``; positive exactly where f is sense-preserving."""
        return jacobian_of(*self._slopes(z))

    def dilatation(self, z):
        """Second complex dilatation ``g'/h'``."""
        return dilatation_of(*self._slopes(z))

    def __repr__(self):
        return f"HarmonicMapping({self.label!r})"


def is_conjugate_symmetric(f: HarmonicMapping) -> bool:
    """Whether ``f(conj z) == conj(f(z))``: exactly when every Taylor
    coefficient of ``h`` and ``g`` is real, that is of ``h'`` and ``zeta h'``.

    Mappings with this symmetry have images mirror-symmetric about the real
    axis and conjugate collision pairs.
    """
    return f.kernel.real_coefficients(f.zeta)


@dataclass(frozen=True)
class ClassParams:
    """Parameters (alpha, zeta, n) of the curvature-bounded shear class.

    Requires ``-1/2 <= alpha < 1``, integer ``n >= 1`` and
    ``|zeta| <= 1/(2n - 1)``.
    """

    alpha: float
    zeta: complex
    n: int

    def __post_init__(self):
        if not -0.5 <= self.alpha < 1.0:
            raise AdmissibilityError(f"alpha must lie in [-1/2, 1), got {self.alpha}")
        object.__setattr__(self, "n", _check_class_n(self.n))
        object.__setattr__(self, "zeta", complex(self.zeta))
        _check_zeta_cap(self.zeta, self.n)


@dataclass(frozen=True)
class PBetaParams:
    """Parameters of the curvature-bounded-above class with dilatation z."""

    beta: float

    def __post_init__(self):
        if not 1.0 < self.beta <= 1.5:
            raise ParameterError(f"beta must lie in (1, 3/2], got {self.beta}")


def make_identity() -> HarmonicMapping:
    return HarmonicMapping(PolyKernel([1.0]), 0.0, 1, "identity")


def make_counterexample(gamma: float) -> HarmonicMapping:
    """Shear family with ``h' = (1-z)**(gamma-1)`` and dilatation ``z``.

    For every ``1 < gamma <= 7/4`` the analytic part has curvature real part
    strictly below ``(1 + gamma)/2`` yet the mapping is not univalent.
    """
    gamma = check_gamma(gamma)
    return HarmonicMapping(PowerKernel(gamma - 1.0), 1.0, 1,
                           f"counterexample:gamma={_num(gamma)}")


def make_bshouty_lyzzaik(lam: float) -> HarmonicMapping:
    """Polynomial family ``h = z - lam z^2``, ``g = z^2/2 - 2 lam z^3/3``.

    Univalent on the disk exactly for ``0 <= lam <= 3/10``.
    """
    lam = float(lam)
    if not 0.0 <= lam < 0.5:
        raise ParameterError(f"lam must lie in [0, 1/2), got {lam}")
    return HarmonicMapping(PolyKernel([1.0, -2.0 * lam]), 1.0, 1,
                           f"bl:lam={_num(lam)}")


def make_extremal(params: ClassParams, delta=1.0) -> HarmonicMapping:
    """Extremal mapping ``h' = (1 - delta z)**(2 alpha - 2)``, ``g' = zeta z^n h'``,
    for ``|delta| = 1``.

    Saturates the class coefficient bounds; with ``delta = 1`` its values at
    ``+r`` (and, after the sign rotation of ``zeta``, at ``-r``) attain the
    sharp growth envelope.
    """
    delta = complex(delta)
    label = (f"extremal:alpha={_num(params.alpha)},zeta={_num(params.zeta)},n={params.n},"
             f"delta={_num(delta)}")
    return HarmonicMapping(PowerKernel(2.0 * params.alpha - 2.0, delta), params.zeta,
                           params.n, label)


def make_from_h(h, zeta, n: int, label: str) -> HarmonicMapping:
    """Shear the normalized polynomial analytic part with coefficients ``h``
    (lowest first) by ``g' = zeta * z^n * h'``.

    ``g`` is obtained by exact integration.  Normalization ``h(0)=0,
    h'(0)=1`` and the cap ``|zeta| <= 1/(2n-1)`` are enforced; a shear outside
    the class is ``HarmonicMapping(PolyKernel(h'), zeta, n, label)``.
    """
    zeta = complex(zeta)
    n = _check_class_n(n)
    _check_zeta_cap(zeta, n)
    h = _coefficients(h, "coefficients of h")
    if h.size < 2:
        raise ParameterError("coefficients of h need two entries for h(0)=0, h'(0)=1")
    if abs(h[0]) > 1e-12 or abs(h[1] - 1.0) > 1e-12:
        raise ParameterError("analytic part must be normalized: h(0)=0, h'(0)=1")
    return HarmonicMapping(PolyKernel(_derivative(h, "coefficients of h")), zeta, n, label)


# -- family-spec grammar ------------------------------------------------------

_KEY_ALIASES = {
    "γ": "gamma", "gamma": "gamma",
    "λ": "lam", "lambda": "lam", "lam": "lam",
    "α": "alpha", "alpha": "alpha",
    "ζ": "zeta", "zeta": "zeta",
    "δ": "delta", "delta": "delta",
    "n": "n",
    "path": "path",
}


def parse_scalar(text: str) -> complex:
    """Parse a CLI scalar: decimal, fraction ``p/q``, or complex literal."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            return complex(float(num) / float(den))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParameterError(f"bad fraction literal: {text!r}") from exc
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ParameterError(f"bad numeric literal: {text!r}") from exc


def parse_int(value, key: str) -> int:
    """``value`` (CLI text or a JSON number) as an ``int``; a
    :class:`ParameterError` unless it is an exact integer."""
    v = parse_scalar(value) if isinstance(value, str) else value
    if isinstance(v, numbers.Complex) and not isinstance(v, bool):
        if isinstance(v, numbers.Integral):
            return int(v)
        if v.imag == 0 and float(v.real).is_integer():
            return int(v.real)
    raise ParameterError(f"{key} must be an integer, got {value!r}")


def _num(x) -> str:
    """``x`` for a family label: its ``:g`` form where that reads back as
    ``x``, else the shortest exact one, so every label re-parses to its map."""
    text = f"{x:g}"
    if parse_scalar(text) == x:
        return text
    return repr(complex(x)).strip("()") if isinstance(x, complex) else repr(float(x))


def parse_real(text: str, key: str) -> float:
    """CLI text as a real ``float`` (decimal or fraction ``p/q``); a
    :class:`ParameterError` if it has an imaginary part."""
    v = parse_scalar(text)
    if v.imag != 0:
        raise ParameterError(f"parameter {key} must be real, got {text!r}")
    return v.real


def _load_coeff_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read coefficient file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"coefficient file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("coeffs"), list):
        raise ParameterError(f"coefficient file {path!r} must be a JSON object with a 'coeffs' list")

    def real(v) -> bool:  # JSON's true and false are Python ints too
        return isinstance(v, numbers.Real) and not isinstance(v, bool)

    def as_float(v):  # an integer beyond the float range reads as infinite
        try:
            return float(v)
        except OverflowError:
            return math.inf if v > 0 else -math.inf

    def as_complex(v, what):
        if isinstance(v, list) and len(v) == 2 and real(v[0]) and real(v[1]):
            return complex(as_float(v[0]), as_float(v[1]))
        if real(v):
            return complex(as_float(v))
        raise ParameterError(f"bad {what} in {path!r}: {json.dumps(v)} is not a number "
                             "or an [re, im] pair of numbers")

    coeffs = [as_complex(v, f"coefficient entry at index {i}")
              for i, v in enumerate(payload["coeffs"])]
    zeta = as_complex(payload.get("zeta", 1.0), "zeta")
    return coeffs, zeta, parse_int(payload.get("n", 1), "n")


def parse_family_spec(spec: str) -> tuple[str, dict, list]:
    """``(name, {key: text}, positional)``, keys under their spelled-out names."""
    if not isinstance(spec, str) or not spec.strip():
        raise ParameterError("empty family specification")
    name, _, rest = spec.strip().partition(":")
    name = name.strip().lower()
    raw, positional = {}, []
    for token in rest.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" in token:
            key, _, value = token.partition("=")
            key = key.strip()
            if key not in _KEY_ALIASES:
                raise ParameterError(f"unknown family parameter {key!r} in {spec!r}")
            raw[_KEY_ALIASES[key]] = value.strip()
        else:
            positional.append(token)
    return name, raw, positional


def family_from_spec(spec: str) -> HarmonicMapping:
    """Build a mapping from a ``name:key=value,...`` family description.

    Keys accept both Greek and spelled-out names (``γ``/``gamma``); values
    accept decimals, fractions (``5/4``) and complex literals (``0.5+0.5j``).
    The ``from-h`` family takes a JSON coefficient file as its first argument.
    """
    name, raw, positional = parse_family_spec(spec)

    if name == "identity":
        return make_identity()
    if name == "counterexample":
        if "gamma" not in raw:
            raise ParameterError("counterexample family needs gamma=<value>")
        return make_counterexample(parse_real(raw["gamma"], "gamma"))
    if name == "bl":
        if "lam" not in raw:
            raise ParameterError("bl family needs lambda=<value>")
        return make_bshouty_lyzzaik(parse_real(raw["lam"], "lambda"))
    if name == "extremal":
        missing = {"alpha", "zeta", "n"} - set(raw)
        if missing:
            raise ParameterError(f"extremal family needs {sorted(missing)}")
        params = ClassParams(parse_real(raw["alpha"], "alpha"),
                             parse_scalar(raw["zeta"]), parse_int(raw["n"], "n"))
        return make_extremal(params, parse_scalar(raw.get("delta", "1")))
    if name == "from-h":
        path = raw.get("path") or (positional[0] if positional else None)
        if path is None:
            raise ParameterError("from-h family needs a coefficient-file path")
        coeffs, zeta, n = _load_coeff_file(path)
        if "zeta" in raw:
            zeta = parse_scalar(raw["zeta"])
        if "n" in raw:
            n = parse_int(raw["n"], "n")
        return make_from_h(coeffs, zeta, n, f"from-h:{path},zeta={_num(zeta)},n={n}")
    raise ParameterError(f"unknown family {name!r}")
