"""Harmonic mappings ``f = h + conj(g)`` on the unit disk.

A mapping bundles the analytic part ``h`` and co-analytic part ``g`` as
evaluator triples (value, first, second derivative), optionally with Taylor
coefficient arrays.  ``eval_all`` returns ``(f, h', g')`` together; the
``counterexample`` and ``extremal`` families back it, ``f`` and the Jacobian
with a fused kernel that computes their shared ``log(1 - delta*z)`` once.
Built-in families:

* ``identity`` -- ``f(z) = z``;
* ``counterexample`` -- the shear-type family with dilatation ``z`` whose
  analytic part has curvature ``(1 - gamma*z)/(1 - z)``, parameter
  ``1 < gamma <= 7/4``;
* ``bl`` -- the quadratic/cubic polynomial family ``h = z - lam*z^2``,
  ``g = z^2/2 - 2*lam*z^3/3``;
* ``extremal`` -- the kernel family ``h' = (1 - delta*z)**(2*alpha - 2)``,
  ``g' = zeta * z^n * h'`` that saturates the class coefficient and growth
  bounds;
* ``from-h`` -- an arbitrary normalized analytic part sheared by
  ``g' = zeta * z^n * h'``.

All evaluators accept complex scalars or numpy arrays.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AdmissibilityError,
    DomainError,
    ParameterError,
    SingularityError,
)
from .quadrature import integrate_path
from .series import PowerSeries
from .special import BranchedPower

#: evaluation points this close to (or beyond) the unit circle are rejected
_DISK_EDGE = 1.0
#: default truncation order for family Taylor arrays
DEFAULT_ORDER = 64
#: default offset for radius -> 1 boundary limits
BOUNDARY_EPS = 1e-6


def _check_disk(z) -> None:
    if np.any(np.abs(z) >= _DISK_EDGE):
        raise DomainError("evaluation point lies outside the open unit disk")


@dataclass(frozen=True)
class AnalyticFunction:
    """Evaluator bundle for an analytic function on the disk."""

    value: object
    deriv: object
    deriv2: object | None = None

    def __call__(self, z):
        return self.value(z)

    def second(self, z, step: float = 1e-6):
        """Second derivative; falls back to a centred difference of ``deriv``."""
        if self.deriv2 is not None:
            return self.deriv2(z)
        return (self.deriv(z + step) - self.deriv(z - step)) / (2.0 * step)


def jacobian_of(hp, gp):
    """``|h'|^2 - |g'|^2`` from the two derivatives."""
    return (hp * np.conjugate(hp)).real - (gp * np.conjugate(gp)).real


class HarmonicMapping:
    """``f = h + conj(g)`` with evaluators and optional Taylor data.

    ``kernel``, when a family supplies one, is its fused evaluator
    ``kernel(z, value, derivs) -> (f, h', g')`` (``None`` in the entries not
    asked for); it computes the work the three quantities share, such as
    ``log(1 - delta z)``, once.  Without a kernel the ``h`` and ``g``
    evaluators are composed.
    """

    def __init__(self, h: AnalyticFunction, g: AnalyticFunction,
                 taylor_h: PowerSeries | None = None,
                 taylor_g: PowerSeries | None = None,
                 label: str = "mapping", kernel=None):
        self.h = h
        self.g = g
        self.taylor_h = taylor_h
        self.taylor_g = taylor_g
        self.label = label
        self.kernel = kernel

    def _eval(self, z, value: bool, derivs: bool):
        _check_disk(z)
        if self.kernel is not None:
            return self.kernel(z, value, derivs)
        fz = self.h.value(z) + np.conjugate(self.g.value(z)) if value else None
        if not derivs:
            return fz, None, None
        return fz, self.h.deriv(z), self.g.deriv(z)

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


def is_conjugate_symmetric(f: HarmonicMapping, tol: float = 1e-10) -> bool:
    """Whether ``f(conj z) == conj(f(z))`` holds (real Taylor coefficients).

    Checked by spot evaluation; mappings with this symmetry have images
    mirror-symmetric about the real axis and conjugate collision pairs.
    """
    for z in (0.31 + 0.42j, -0.55 + 0.2j, 0.05 - 0.71j):
        a = complex(f(z.conjugate()))
        b = complex(f(z)).conjugate()
        if abs(a - b) > tol * max(1.0, abs(b)):
            return False
    return True


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


def make_identity(order: int = DEFAULT_ORDER) -> HarmonicMapping:
    h = AnalyticFunction(lambda z: z + 0j,
                         lambda z: np.ones_like(np.asarray(z, dtype=np.complex128))
                         if isinstance(z, np.ndarray) else 1.0 + 0j,
                         lambda z: np.zeros_like(np.asarray(z, dtype=np.complex128))
                         if isinstance(z, np.ndarray) else 0j)
    g = AnalyticFunction(lambda z: np.zeros_like(np.asarray(z, dtype=np.complex128))
                         if isinstance(z, np.ndarray) else 0j,
                         lambda z: np.zeros_like(np.asarray(z, dtype=np.complex128))
                         if isinstance(z, np.ndarray) else 0j,
                         lambda z: np.zeros_like(np.asarray(z, dtype=np.complex128))
                         if isinstance(z, np.ndarray) else 0j)
    return HarmonicMapping(h, g,
                           taylor_h=PowerSeries.monomial(1, order=order),
                           taylor_g=PowerSeries.zero(order),
                           label="identity")


def make_counterexample(gamma: float, order: int = DEFAULT_ORDER) -> HarmonicMapping:
    """Shear family with ``h' = (1-z)**(gamma-1)`` and dilatation ``z``.

    For every ``1 < gamma <= 7/4`` the analytic part has curvature real part
    strictly below ``(1 + gamma)/2`` yet the mapping is not univalent.
    """
    gamma = float(gamma)
    if not 1.0 < gamma <= 1.75:
        raise ParameterError(f"gamma must lie in (1, 7/4], got {gamma}")
    gp1 = gamma + 1.0

    def h_of(P):  # h from P = (1-z)**gamma
        return (1.0 - P) / gamma

    def g_of(z, P):
        return (1.0 - (1.0 + gamma * z) * P) / (gamma * gp1)

    def hp_of(L):  # h' from L = log(1-z)
        return np.exp((gamma - 1.0) * L)

    def power(z):
        return np.exp(gamma * np.log(1.0 - z))

    def fused(z, value=True, derivs=True):
        L = np.log(1.0 - z)
        fz = hp = gp = None
        if value:
            P = np.exp(gamma * L)
            fz = h_of(P) + np.conjugate(g_of(z, P))
        if derivs:
            hp = hp_of(L)
            # numpy's complex array multiply is not commutative bit for bit;
            # scan reports depend on these bits, so keep this operand order
            gp = hp * z
        return fz, hp, gp

    def hpp(z):
        return -(gamma - 1.0) * np.exp((gamma - 2.0) * np.log(1.0 - z))

    def gpp(z):
        L = np.log(1.0 - z)
        return hp_of(L) - (gamma - 1.0) * z * np.exp((gamma - 2.0) * L)

    h = AnalyticFunction(lambda z: h_of(power(z)), lambda z: hp_of(np.log(1.0 - z)), hpp)
    g = AnalyticFunction(lambda z: g_of(z, power(z)), lambda z: fused(z, False)[2], gpp)
    hp_series = BranchedPower(gamma - 1.0, 1.0).series(order - 1)
    taylor_h = hp_series.integrate()
    taylor_g = hp_series.shift(1).integrate()
    return HarmonicMapping(h, g, taylor_h, taylor_g,
                           label=f"counterexample:gamma={gamma:g}", kernel=fused)


def make_bshouty_lyzzaik(lam: float) -> HarmonicMapping:
    """Polynomial family ``h = z - lam z^2``, ``g = z^2/2 - 2 lam z^3/3``.

    Univalent on the disk exactly for ``0 <= lam <= 3/10``.
    """
    lam = float(lam)
    if not 0.0 <= lam < 0.5:
        raise ParameterError(f"lam must lie in [0, 1/2), got {lam}")
    h = AnalyticFunction(
        lambda z: z - lam * z * z,
        lambda z: 1.0 - 2.0 * lam * z,
        lambda z: -2.0 * lam * np.ones_like(np.asarray(z, dtype=np.complex128))
        if isinstance(z, np.ndarray) else -2.0 * lam + 0j,
    )
    g = AnalyticFunction(
        lambda z: z * z / 2.0 - 2.0 * lam * z**3 / 3.0,
        lambda z: z - 2.0 * lam * z * z,
        lambda z: 1.0 - 4.0 * lam * z,
    )
    return HarmonicMapping(h, g,
                           taylor_h=PowerSeries([0.0, 1.0, -lam]),
                           taylor_g=PowerSeries([0.0, 0.0, 0.5, -2.0 * lam / 3.0]),
                           label=f"bl:lam={lam:g}")


def _extremal_h_factory(alpha: float, delta: complex):
    """``h`` of the extremal family as a function of ``L = log(1 - delta z)``."""
    q = 2.0 * alpha - 1.0
    if abs(q) < 1e-9:
        return lambda L: -L / delta
    return lambda L: (1.0 - np.exp(q * L)) / (delta * q)


def _extremal_g_factory(alpha: float, zeta: complex, n: int, delta: complex):
    """Closed form of ``zeta * int_0^z t^n (1 - delta t)^(2 alpha - 2) dt``,
    as a function of ``L = log(1 - delta z)``.

    Substituting ``u = 1 - delta t`` turns the integral into a finite binomial
    sum of elementary powers (with a log wherever an exponent crosses zero),
    which evaluates exactly on arrays for every integer ``n``.
    """
    ms = np.arange(n + 1)
    signs = np.array([math.comb(n, m) * (-1.0) ** m for m in ms])
    qs = 2.0 * alpha - 1.0 + ms
    pref = zeta * delta ** (-(n + 1))

    def g_of_log(L):
        acc = None
        for s, q in zip(signs, qs):
            term = s * (-L) if abs(q) < 1e-9 else s * (1.0 - np.exp(q * L)) / q
            acc = term if acc is None else acc + term
        return pref * acc

    return g_of_log


def make_extremal(spec: ExtremalSpec, order: int = DEFAULT_ORDER) -> HarmonicMapping:
    """Extremal mapping ``h' = (1 - delta z)**(2 alpha - 2)``, ``g' = zeta z^n h'``.

    Saturates the class coefficient bounds; with ``delta = 1`` its values at
    ``+r`` (and, after the sign rotation of ``zeta``, at ``-r``) attain the
    sharp growth envelope.
    """
    p = spec.params
    alpha, zeta, n, delta = p.alpha, p.zeta, p.n, spec.delta
    h_of = _extremal_h_factory(alpha, delta)
    g_of = _extremal_g_factory(alpha, zeta, n, delta)

    def log1m(z):
        return np.log(1.0 - delta * z)

    def hp_of(L):
        return np.exp((2.0 * alpha - 2.0) * L)

    def fused(z, value=True, derivs=True):
        L = log1m(z)
        fz = hp = gp = None
        if value:
            fz = h_of(L) + np.conjugate(g_of(L))
        if derivs:
            hp = hp_of(L)
            gp = zeta * z**n * hp
        return fz, hp, gp

    def hp(z):
        return hp_of(log1m(z))

    def hpp(z):
        return (2.0 - 2.0 * alpha) * delta * np.exp((2.0 * alpha - 3.0) * log1m(z))

    h = AnalyticFunction(lambda z: h_of(log1m(z)), hp, hpp)
    g = AnalyticFunction(
        lambda z: g_of(log1m(z)),
        lambda z: fused(z, False)[2],
        lambda z: zeta * (n * z ** (n - 1) * hp(z) + z**n * hpp(z)),
    )
    hp_series = BranchedPower(2.0 * alpha - 2.0, delta).series(order - 1)
    taylor_h = hp_series.integrate()
    taylor_g = hp_series.shift(n).scale(zeta).integrate()
    label = f"extremal:alpha={alpha:g},zeta={zeta:g},n={n},delta={delta:g}"
    return HarmonicMapping(h, g, taylor_h, taylor_g, label=label, kernel=fused)


def make_from_h(h, zeta, n: int, order: int = DEFAULT_ORDER,
                require_admissible: bool = True,
                label: str | None = None) -> HarmonicMapping:
    """Shear a normalized analytic part by ``g' = zeta * z^n * h'``.

    ``h`` may be a :class:`PowerSeries` (then ``g`` is obtained by exact
    series integration) or an :class:`AnalyticFunction` (then ``g`` values
    come from adaptive path quadrature).  Normalization ``h(0)=0, h'(0)=1``
    is enforced; so is ``|zeta| <= 1/(2n-1)`` unless ``require_admissible``
    is disabled (useful for shear constructions outside the class).
    """
    zeta = complex(zeta)
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise ParameterError(f"n must be an integer >= 1, got {n!r}")
    n = int(n)
    if require_admissible and abs(zeta) > 1.0 / (2 * n - 1) + 1e-12:
        raise AdmissibilityError(
            f"|zeta|={abs(zeta)} exceeds the cap 1/(2n-1)={1.0 / (2 * n - 1)}"
        )

    if isinstance(h, PowerSeries):
        if abs(h.coeff(0)) > 1e-12 or abs(h.coeff(1) - 1.0) > 1e-12:
            raise ParameterError("analytic part must be normalized: h(0)=0, h'(0)=1")
        hp = h.derive()
        hpp = hp.derive() if hp.order >= 1 else None
        h_fn = AnalyticFunction(
            h,
            hp,
            hpp if hpp is not None else (
                lambda z: np.zeros_like(np.asarray(z, dtype=np.complex128))
                if isinstance(z, np.ndarray) else 0j),
        )
        g_series = hp.shift(n).scale(zeta).integrate()
        g_fn = AnalyticFunction(
            g_series,
            lambda z: zeta * z**n * hp(z),
            (lambda z: zeta * (n * z ** (n - 1) * hp(z) + z**n * hpp(z)))
            if hpp is not None else (lambda z: zeta * n * z ** (n - 1) * hp(z)),
        )
        return HarmonicMapping(h_fn, g_fn, taylor_h=h, taylor_g=g_series,
                               label=label or f"from-h:order={h.order},zeta={zeta:g},n={n}")

    if isinstance(h, AnalyticFunction):
        if abs(complex(h.value(0j))) > 1e-10 or abs(complex(h.deriv(0j)) - 1.0) > 1e-10:
            raise ParameterError("analytic part must be normalized: h(0)=0, h'(0)=1")

        def g_value(z):
            if isinstance(z, np.ndarray):
                flat = z.ravel()
                out = np.array([g_value(complex(w)) for w in flat], dtype=np.complex128)
                return out.reshape(z.shape)
            return integrate_path(lambda t: zeta * t**n * h.deriv(t), 0j, z)

        g_fn = AnalyticFunction(
            g_value,
            lambda z: zeta * z**n * h.deriv(z),
            lambda z: zeta * (n * z ** (n - 1) * h.deriv(z) + z**n * h.second(z)),
        )
        return HarmonicMapping(h, g_fn, label=label or f"from-h:zeta={zeta:g},n={n}")

    raise ParameterError(f"unsupported analytic-part type: {type(h).__name__}")


# -- family-spec grammar ------------------------------------------------------

_KEY_ALIASES = {
    "γ": "gamma", "gamma": "gamma",
    "λ": "lam", "lambda": "lam", "lam": "lam",
    "α": "alpha", "alpha": "alpha",
    "ζ": "zeta", "zeta": "zeta",
    "δ": "delta", "delta": "delta",
    "n": "n",
    "path": "path",
    "order": "order",
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
    zeta = payload.get("zeta", 1.0)
    zeta = as_complex(zeta) if not isinstance(zeta, numbers.Number) else complex(zeta)
    n = payload.get("n", 1)
    return PowerSeries(coeffs), zeta, int(n)


def family_from_spec(spec: str, order: int = DEFAULT_ORDER) -> HarmonicMapping:
    """Build a mapping from a ``name:key=value,...`` family description.

    Keys accept both Greek and spelled-out names (``γ``/``gamma``); values
    accept decimals, fractions (``5/4``) and complex literals (``0.5+0.5j``).
    The ``from-h`` family takes a JSON coefficient file as its first argument.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ParameterError("empty family specification")
    name, _, rest = spec.strip().partition(":")
    name = name.strip().lower()
    raw: dict[str, str] = {}
    positional: list[str] = []
    if rest:
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

    if "order" in raw:
        order = int(_real_scalar(raw["order"], "order"))

    if name == "identity":
        return make_identity(order=order)
    if name == "counterexample":
        if "gamma" not in raw:
            raise ParameterError("counterexample family needs gamma=<value>")
        return make_counterexample(_real_scalar(raw["gamma"], "gamma"), order=order)
    if name == "bl":
        if "lam" not in raw:
            raise ParameterError("bl family needs lambda=<value>")
        return make_bshouty_lyzzaik(_real_scalar(raw["lam"], "lambda"))
    if name == "extremal":
        missing = {"alpha", "zeta", "n"} - set(raw)
        if missing:
            raise ParameterError(f"extremal family needs {sorted(missing)}")
        params = ClassParams(_real_scalar(raw["alpha"], "alpha"),
                             parse_scalar(raw["zeta"]),
                             int(_real_scalar(raw["n"], "n")))
        delta = parse_scalar(raw.get("delta", "1"))
        return make_extremal(ExtremalSpec(params, delta), order=order)
    if name == "from-h":
        path = raw.get("path") or (positional[0] if positional else None)
        if path is None:
            raise ParameterError("from-h family needs a coefficient-file path")
        series, zeta, n = _load_coeff_file(path)
        if "zeta" in raw:
            zeta = parse_scalar(raw["zeta"])
        if "n" in raw:
            n = int(_real_scalar(raw["n"], "n"))
        return make_from_h(series, zeta, n, order=order,
                           label=f"from-h:{path},zeta={zeta:g},n={n}")
    raise ParameterError(f"unknown family {name!r}")
