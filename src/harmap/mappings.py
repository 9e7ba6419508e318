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
from .series import PowerSeries

#: evaluation points this close to (or beyond) the unit circle are rejected
_DISK_EDGE = 1.0
#: power-kernel primitive exponents closer to zero than this are summed by expm1
_NEAR_ZERO = 0.5
#: a polynomial root this far outside a disk still counts as inside it
_ROOT_MARGIN = 1e-6


def _check_disk(z) -> None:
    if np.any(np.abs(z) >= _DISK_EDGE):
        raise DomainError("evaluation point lies outside the open unit disk")


@dataclass(frozen=True)
class AnalyticFunction:
    """Evaluator bundle for an analytic function on the disk."""

    value: object
    deriv: object
    deriv2: object

    def __call__(self, z):
        return self.value(z)


def jacobian_of(hp, gp):
    """``|h'|^2 - |g'|^2`` from the two derivatives."""
    return (hp * np.conjugate(hp)).real - (gp * np.conjugate(gp)).real


class PowerKernel:
    """``h' = (1 - delta z)**q`` with ``|delta| = 1`` (branch point on the circle)."""

    def __init__(self, q: float, delta=1.0):
        if abs(abs(delta) - 1.0) > 1e-14:
            raise ParameterError(f"|delta| must equal 1, got {abs(delta)}")
        self.q = float(q)
        self.delta = delta

    def series(self, order: int) -> PowerSeries:
        """Binomial expansion ``sum_k C(q,k) (-delta)^k z^k`` through ``order``."""
        c = np.empty(order + 1, dtype=np.complex128)
        c[0] = 1.0
        d = -complex(self.delta)
        for k in range(1, order + 1):
            c[k] = c[k - 1] * (self.q - k + 1) / k * d
        return PowerSeries(c)

    def real_coefficients(self, zeta: complex) -> bool:
        """Whether ``h'`` and ``zeta h'`` have only real Taylor coefficients:
        ``h'(0) = 1``, so ``zeta`` must be real, and ``C(q,1) delta`` is real
        only where ``q = 0`` or ``delta`` is real, and then all are."""
        return zeta.imag == 0.0 and (self.q == 0.0 or complex(self.delta).imag == 0.0)

    def evaluator(self, f: "HarmonicMapping"):
        """``(z, value, derivs) -> (h, g, h')`` for the shear of ``f``.

        With ``u = 1 - delta t`` the primitive ``int_0^z t^n u^q dt`` is a
        binomial sum over ``m <= n`` of ``(1 - u^(q+1+m))/(q+1+m)`` (``-log u``
        where the exponent is zero); ``h`` is the ``m = 0`` term.  With
        ``E = u^(q+1)`` the power terms add up to ``K - E p(z)`` for a constant
        ``K`` and a polynomial ``p`` of degree ``n``, so ``h``, ``g`` and ``h'``
        take one ``log u`` and two ``exp``.  The exponents are spaced by one, so
        at most one lies within ``_NEAR_ZERO`` of zero; its weight ``1/expo`` is
        large and ``1 - u^expo`` cancels, so that term is summed on its own as
        ``-expm1(expo log u)/expo``.
        """
        q, delta, n = self.q, self.delta, f.n
        expo = q + 1.0 + np.arange(n + 1)
        near = next((m for m in range(n + 1) if abs(expo[m]) < _NEAR_ZERO), None)
        weight = [f.zeta * delta ** -(n + 1) * math.comb(n, m) * (-1.0) ** m
                  / (1.0 if m == near else expo[m]) for m in range(n + 1)]
        far = [m for m in range(n + 1) if m != near]
        K = sum(weight[m] for m in far)
        p = sum((PowerKernel(m, delta).series(n).scale(weight[m]) for m in far),
                PowerSeries.zero(n))
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
            Ep = p(z)
            Ep = E * Ep  # rebinding frees p(z) at once
            g = K - Ep
            return h, g if near is None else g + weight[near] * D

        def evaluate(z, value, derivs):
            L = self._log_u(z)
            h, g = primitives(z, L) if value else (None, None)
            return h, g, np.exp(q * L) if derivs else None

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
        """``L = log(1 - delta z)``, the one logarithm every value shares."""
        return np.log(1.0 - z if self.delta == 1 else 1.0 - self.delta * z)

    def derivs(self, z):
        """``(h', h'')`` from one ``L``: ``exp(q L)`` and ``-q delta exp((q-1) L)``."""
        q, L = self.q, self._log_u(z)
        e = np.exp((q - 1.0) * L)
        return np.exp(q * L), -q * self.delta * e


class PolyKernel:
    """``h'`` given exactly by a polynomial :class:`PowerSeries`."""

    def __init__(self, hp: PowerSeries):
        self.hp = hp
        self.hpp = hp.derive() if hp.order else PowerSeries([0.0])
        self._roots = None

    def series(self, order: int) -> PowerSeries:
        """The exact polynomial through ``order``: truncated, or padded with zeros."""
        return self.hp.extend(order).truncate(order)

    def real_coefficients(self, zeta: complex) -> bool:
        """Whether ``h'`` and ``zeta h'`` have only real Taylor coefficients."""
        c = self.hp.coeffs
        return not np.any(c.imag) and (zeta.imag == 0.0 or not np.any(c))

    def evaluator(self, f: "HarmonicMapping"):
        """``(z, value, derivs) -> (h, g, h')`` by Horner on the exact Taylor
        arrays of ``h`` and ``g``."""
        hp = self.hp
        th, tg = f.taylor(hp.order + 1)

        def evaluate(z, value, derivs):
            return (th(z) if value else None, tg(z) if value else None,
                    hp(z) if derivs else None)

        return evaluate

    def hp_bound(self, rho):
        """Bound ``sum |c_j| rho^j`` on ``max |h'|`` over ``|z| <= rho`` (a
        radius or an array of them)."""
        return np.polynomial.polynomial.polyval(rho, np.abs(self.hp.coeffs))

    def zero_free(self, rho: float) -> bool:
        """Whether ``h'`` has no zero on ``|z| <= rho``.  A numerical root
        within ``_ROOT_MARGIN`` outside the disk counts as inside, which covers
        the rounding error of a double root (about ``sqrt(eps)``)."""
        return bool(np.all(np.abs(self.singular_points()) > rho + _ROOT_MARGIN))

    def singular_points(self) -> np.ndarray:
        """The zeros of ``h'`` (companion-matrix roots, found once; none for a
        constant)."""
        if self._roots is None:
            self._roots = np.polynomial.polynomial.polyroots(self.hp.coeffs)
        return self._roots

    def derivs(self, z):
        return self.hp(z), self.hpp(z)


class HarmonicMapping:
    """``f = h + conj(g)`` with ``g' = zeta z^n h'`` and ``h'`` from ``kernel``.

    ``h`` and ``g`` are :class:`AnalyticFunction` views (value and two
    derivatives); :meth:`taylor` gives their Taylor coefficients.
    """

    def __init__(self, kernel, zeta=0.0, n: int = 1, label: str = "mapping"):
        self.kernel = kernel
        self.zeta = complex(zeta)
        self.n = parse_int(n, "n")
        self.label = label
        self._evaluate = kernel.evaluator(self)
        self.h = AnalyticFunction(lambda z: self._parts(z)[0],
                                  lambda z: self._eval(z, False, True)[1],
                                  lambda z: self.derivs(z)[1])
        self.g = AnalyticFunction(lambda z: self._parts(z)[1],
                                  lambda z: self._eval(z, False, True)[2],
                                  self._g_deriv2)

    def taylor(self, order: int) -> tuple[PowerSeries, PowerSeries]:
        """Taylor coefficients ``(h, g)`` through ``order`` and ``order + n``
        (exact, padded with zeros, for a :class:`PolyKernel`)."""
        if order < 1:
            raise ParameterError(f"Taylor order must be >= 1, got {order}")
        hp = self.kernel.series(order - 1)
        return hp.integrate(), hp.shift(self.n).scale(self.zeta).integrate()

    def _parts(self, z):
        """``(h(z), g(z), None)``."""
        _check_disk(z)
        return self._evaluate(z, True, False)

    def _omega(self, z):
        """The dilatation ``zeta z^n``."""
        w = z if self.n == 1 else z**self.n
        return w if self.zeta == 1 else self.zeta * w

    def _eval(self, z, value: bool, derivs: bool):
        _check_disk(z)
        h, g, hp = self._evaluate(z, value, derivs)
        # ``(zeta z^n) h'`` in the class checks' operand order: their residual is 0
        return (h + np.conjugate(g) if value else None, hp,
                self._omega(z) * hp if derivs else None)

    def derivs(self, z):
        """``(h'(z), h''(z))`` from one kernel evaluation, disk bound checked."""
        _check_disk(z)
        return self.kernel.derivs(z)

    def _g_deriv2(self, z):
        hp, hpp = self.derivs(z)
        s = self.n * z ** (self.n - 1) * hp + z**self.n * hpp
        return self.zeta * s

    def __call__(self, z):
        return self._eval(z, True, False)[0]

    def eval_all(self, z):
        """``(f(z), h'(z), g'(z))`` from one evaluation, disk bound checked once.

        Bit-identical to ``(f(z), f.h.deriv(z), f.g.deriv(z))``.
        """
        return self._eval(z, True, True)

    def jacobian(self, z):
        """``|h'|^2 - |g'|^2``; positive exactly where f is sense-preserving."""
        _, hp, gp = self._eval(z, False, True)
        return jacobian_of(hp, gp)

    def dilatation(self, z):
        """Second complex dilatation ``g'/h'``."""
        _, hp, gp = self._eval(z, False, True)
        if np.min(np.abs(hp)) < 1e-300:
            raise SingularityError("dilatation undefined where h' vanishes")
        return gp / hp

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
        if not (isinstance(self.n, numbers.Integral) and self.n >= 1):
            raise AdmissibilityError(f"n must be an integer >= 1, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "zeta", complex(self.zeta))
        if abs(self.zeta) > self.zeta_cap + 1e-12:
            raise AdmissibilityError(
                f"|zeta|={abs(self.zeta)} exceeds the cap 1/(2n-1)={self.zeta_cap}"
            )

    @property
    def zeta_cap(self) -> float:
        return 1.0 / (2 * self.n - 1)


@dataclass(frozen=True)
class ExtremalSpec:
    """Extremal-family parameters: class parameters plus kernel rotation."""

    params: ClassParams
    delta: complex = 1.0

    def __post_init__(self):
        object.__setattr__(self, "delta", complex(self.delta))
        if abs(abs(self.delta) - 1.0) > 1e-14:
            raise ParameterError(f"|delta| must equal 1, got {abs(self.delta)}")


@dataclass(frozen=True)
class PBetaParams:
    """Parameters of the curvature-bounded-above class with dilatation z."""

    beta: float

    def __post_init__(self):
        if not 1.0 < self.beta <= 1.5:
            raise ParameterError(f"beta must lie in (1, 3/2], got {self.beta}")


def make_identity() -> HarmonicMapping:
    return HarmonicMapping(PolyKernel(PowerSeries([1.0])), 0.0, 1, "identity")


def make_counterexample(gamma: float) -> HarmonicMapping:
    """Shear family with ``h' = (1-z)**(gamma-1)`` and dilatation ``z``.

    For every ``1 < gamma <= 7/4`` the analytic part has curvature real part
    strictly below ``(1 + gamma)/2`` yet the mapping is not univalent.
    """
    gamma = float(gamma)
    if not 1.0 < gamma <= 1.75:
        raise ParameterError(f"gamma must lie in (1, 7/4], got {gamma}")
    return HarmonicMapping(PowerKernel(gamma - 1.0), 1.0, 1,
                           f"counterexample:gamma={_num(gamma)}")


def make_bshouty_lyzzaik(lam: float) -> HarmonicMapping:
    """Polynomial family ``h = z - lam z^2``, ``g = z^2/2 - 2 lam z^3/3``.

    Univalent on the disk exactly for ``0 <= lam <= 3/10``.
    """
    lam = float(lam)
    if not 0.0 <= lam < 0.5:
        raise ParameterError(f"lam must lie in [0, 1/2), got {lam}")
    return HarmonicMapping(PolyKernel(PowerSeries([1.0, -2.0 * lam])), 1.0, 1,
                           f"bl:lam={_num(lam)}")


def make_extremal(spec: ExtremalSpec) -> HarmonicMapping:
    """Extremal mapping ``h' = (1 - delta z)**(2 alpha - 2)``, ``g' = zeta z^n h'``.

    Saturates the class coefficient bounds; with ``delta = 1`` its values at
    ``+r`` (and, after the sign rotation of ``zeta``, at ``-r``) attain the
    sharp growth envelope.
    """
    p = spec.params
    label = (f"extremal:alpha={_num(p.alpha)},zeta={_num(p.zeta)},n={p.n},"
             f"delta={_num(spec.delta)}")
    return HarmonicMapping(PowerKernel(2.0 * p.alpha - 2.0, spec.delta), p.zeta, p.n, label)


def make_from_h(h: PowerSeries, zeta, n: int, require_admissible: bool = True,
                label: str | None = None) -> HarmonicMapping:
    """Shear a normalized polynomial analytic part by ``g' = zeta * z^n * h'``.

    ``g`` is obtained by exact series integration.  Normalization
    ``h(0)=0, h'(0)=1`` is enforced; so is ``|zeta| <= 1/(2n-1)`` unless
    ``require_admissible`` is disabled (useful for shear constructions
    outside the class).
    """
    zeta = complex(zeta)
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise ParameterError(f"n must be an integer >= 1, got {n!r}")
    n = int(n)
    if require_admissible and abs(zeta) > 1.0 / (2 * n - 1) + 1e-12:
        raise AdmissibilityError(
            f"|zeta|={abs(zeta)} exceeds the cap 1/(2n-1)={1.0 / (2 * n - 1)}"
        )
    if not isinstance(h, PowerSeries):
        raise ParameterError(f"unsupported analytic-part type: {type(h).__name__}")
    if abs(h.coeff(0)) > 1e-12 or abs(h.coeff(1) - 1.0) > 1e-12:
        raise ParameterError("analytic part must be normalized: h(0)=0, h'(0)=1")
    return HarmonicMapping(PolyKernel(h.derive()), zeta, n,
                           label or f"from-h:order={h.order},zeta={_num(zeta)},n={n}")


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


def _real_scalar(text: str, key: str) -> float:
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
    if not isinstance(payload, dict) or "coeffs" not in payload:
        raise ParameterError(f"coefficient file {path!r} must be a JSON object with 'coeffs'")

    def as_complex(v):
        if isinstance(v, (list, tuple)) and len(v) == 2:
            return complex(float(v[0]), float(v[1]))
        if isinstance(v, numbers.Number):
            return complex(v)
        raise ParameterError(f"bad coefficient entry {v!r} in {path!r}")

    coeffs = [as_complex(v) for v in payload["coeffs"]]
    zeta = as_complex(payload.get("zeta", 1.0))
    return PowerSeries(coeffs), zeta, parse_int(payload.get("n", 1), "n")


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
        return make_counterexample(_real_scalar(raw["gamma"], "gamma"))
    if name == "bl":
        if "lam" not in raw:
            raise ParameterError("bl family needs lambda=<value>")
        return make_bshouty_lyzzaik(_real_scalar(raw["lam"], "lambda"))
    if name == "extremal":
        missing = {"alpha", "zeta", "n"} - set(raw)
        if missing:
            raise ParameterError(f"extremal family needs {sorted(missing)}")
        params = ClassParams(_real_scalar(raw["alpha"], "alpha"),
                             parse_scalar(raw["zeta"]), parse_int(raw["n"], "n"))
        delta = parse_scalar(raw.get("delta", "1"))
        return make_extremal(ExtremalSpec(params, delta))
    if name == "from-h":
        path = raw.get("path") or (positional[0] if positional else None)
        if path is None:
            raise ParameterError("from-h family needs a coefficient-file path")
        series, zeta, n = _load_coeff_file(path)
        if "zeta" in raw:
            zeta = parse_scalar(raw["zeta"])
        if "n" in raw:
            n = parse_int(raw["n"], "n")
        return make_from_h(series, zeta, n, label=f"from-h:{path},zeta={_num(zeta)},n={n}")
    raise ParameterError(f"unknown family {name!r}")
