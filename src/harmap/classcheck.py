"""Curvature diagnostics and class-membership checks.

The central quantity is the analytic curvature term ``1 + z h''/h'`` whose
real part bounds (below by ``alpha``, above by ``beta``) define the two
mapping classes this package verifies against.  Where ``h'`` has no zero that
real part is harmonic, and the dilatation residual ``|g' - zeta z^n h'|`` is
the modulus of an analytic function, so both extremes over ``|z| <= r`` lie on
the circle ``|z| = r`` (the extremum principles; Duren, *Harmonic Mappings in
the Plane*, 2004).  A check therefore asks the ``h'`` kernel whether it is
zero-free on the disk (if not, the curvature is unbounded and the check
fails), samples the one circle at uniform angles with one kernel evaluation,
and refines each sampled extremum within its bracketing angle step and in
the direction of each singular point of the kernel, where a narrow peak or dip
between samples can sit.  No value depends on the array length.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, ParameterError, SingularityError
from .mappings import (ClassParams, HarmonicMapping, PBetaParams, check_radius,
                       check_tolerance, within_zeta_cap)
from .reports import BoundReport, complex_pair

#: radius of the default sample circle, close to the boundary
DEFAULT_RMAX = 1.0 - 1e-4
#: derivative magnitudes below this are treated as singular
_SINGULAR_FLOOR = 1e-300
#: nested refinement passes; each samples its bracket at 65 points and
#: narrows it 32-fold around the best one
_REFINE_PASSES = 3
_REFINE_OFFSETS = np.arange(-32, 33) / 32.0
#: a refined extremum replaces the sampled one only when it is more extreme
#: by more than this, relative to ``max(1, |sampled|)``
_REFINE_MARGIN = 1e-12


@dataclass(frozen=True)
class DiskGrid:
    """The sample circle ``|z| = radius`` at ``angles_per_circle`` uniform
    angles; the checks cover the closed disk it bounds."""

    radius: float = DEFAULT_RMAX
    angles_per_circle: int = 512

    def __post_init__(self):
        radius = float(self.radius)
        check_radius(radius, "grid radius")
        if self.angles_per_circle < 8:
            raise ParameterError("grid needs at least 8 angles per circle")
        object.__setattr__(self, "radius", radius)

    def points(self) -> np.ndarray:
        """The sample points, in angle order from angle 0."""
        m = self.angles_per_circle
        return self.radius * np.exp(1j * (2.0 * np.pi * np.arange(m) / m))

    def to_dict(self) -> dict:
        return {"radii": [self.radius], "angles_per_circle": int(self.angles_per_circle)}


@dataclass
class CurvatureReport:
    """Extrema of ``Re(1 + z h''/h')`` over the grid's disk with their witnesses."""

    inf_est: float
    sup_est: float
    argmin_z: complex
    argmax_z: complex
    grid: DiskGrid


def _curvature(z, hp, hpp):
    if np.min(np.abs(hp)) < _SINGULAR_FLOOR:
        raise SingularityError("curvature undefined where h' vanishes")
    return 1.0 + z * hpp / hp


def curvature(f: HarmonicMapping, z):
    """``1 + z h''(z) / h'(z)`` for the analytic part of ``f``."""
    return _curvature(z, *f.derivs(z))


def _refined(values, grid: DiskGrid, points: np.ndarray, sampled: np.ndarray,
             upper: bool, seeds: np.ndarray):
    """``(value, z)``: the largest (``upper``) or smallest of ``sampled``, the
    values at the grid's ``points`` (ties to the first angle), refined by
    nested passes over its bracketing angle steps, evaluating ``values(z)``.

    The same passes run one angle step either side of each angle in
    ``seeds``, the directions of the kernel's singular points: a narrow peak
    or dip between samples can only sit there (``z h''/h'`` is a sum of
    ``z/(z - a)`` over the zeros ``a`` of a polynomial ``h'``, and a power
    kernel has the one branch point).  All brackets share one evaluation per
    pass.  The most extreme refined value replaces the sampled one only when
    it is more extreme by more than ``_REFINE_MARGIN``, so an extremum at a
    sample point keeps that point's value and witness.
    """
    pick = np.argmax if upper else np.argmin
    i = int(pick(sampled))
    m = grid.angles_per_circle
    t0 = np.concatenate(([2.0 * np.pi * i / m], seeds))
    step = 2.0 * np.pi / m
    for _ in range(_REFINE_PASSES):
        t = t0[:, None] + step * _REFINE_OFFSETS
        z = grid.radius * np.exp(1j * t)
        v = values(z.ravel()).reshape(t.shape)
        t0, step = t[np.arange(len(t0)), pick(v, axis=1)], step / 32.0
    j = int(pick(v))
    best, gain = float(sampled[i]), float(v.flat[j] - sampled[i])
    if (gain if upper else -gain) > _REFINE_MARGIN * max(1.0, abs(best)):
        return float(v.flat[j]), complex(z.flat[j])
    return best, complex(points[i])


def _sample(f, grid: DiskGrid):
    """``(z, h'(z), Re curvature, seeds)`` on the grid circle from one kernel
    evaluation; the curvature is None when ``h'`` has a zero in the disk, and
    ``seeds`` are the angles of the kernel's singular points."""
    if not isinstance(f, HarmonicMapping):
        raise ParameterError(f"expected a mapping with an h' kernel, got {type(f).__name__}")
    z = grid.points()
    hp, hpp = f.derivs(z)
    seeds = np.angle(f.kernel.singular_points())
    if not f.kernel.zero_free(grid.radius):
        return z, hp, None, seeds
    return z, hp, np.real(_curvature(z, hp, hpp)), seeds


def _curvature_extreme(f: HarmonicMapping, grid: DiskGrid, points, sampled,
                       seeds, upper: bool):
    """``(value, z)``: the extremum of the curvature real part over the disk.
    Where ``h'`` has a zero inside it is unbounded: ``+-inf`` at the zero
    nearest the origin."""
    if sampled is None:
        zero = min(f.kernel.singular_points(), key=abs)
        return (math.inf if upper else -math.inf), complex(zero)
    return _refined(lambda z: np.real(_curvature(z, *f.derivs(z))), grid, points,
                    sampled, upper, seeds)


def curvature_extrema(f: HarmonicMapping, grid: DiskGrid | None = None) -> CurvatureReport:
    """Extrema of the curvature real part over the disk ``|z| <= grid.radius``,
    taken on its boundary circle (see the module docstring).

    Raises :class:`ParameterError` for anything but a
    :class:`HarmonicMapping`: the zero test needs its ``h'`` kernel.
    """
    grid = grid or DiskGrid()
    z, _, curv, seeds = _sample(f, grid)
    lo, lo_z = _curvature_extreme(f, grid, z, curv, seeds, False)
    hi, hi_z = _curvature_extreme(f, grid, z, curv, seeds, True)
    return CurvatureReport(lo, hi, lo_z, hi_z, grid)


def _band_check(f: HarmonicMapping, check: str, bound: float, upper: bool,
                zeta: complex, n: int, grid: DiskGrid | None, tol: float,
                head: dict) -> BoundReport:
    """Curvature-band check: ``Re(1 + z h''/h')`` stays above ``bound`` (below
    it when ``upper``) *and* ``g' = zeta z^n h'`` holds, both to ``tol``.

    The report carries both margins; the headline margin and witness come
    from whichever condition is tighter.  ``head`` leads the details.
    """
    tol = check_tolerance(tol, "tolerance")
    grid = grid or DiskGrid()
    z, hp, sampled, seeds = _sample(f, grid)

    def residual(z, hp):
        return np.abs(f._g_prime(z, hp) - zeta * z**n * hp)

    resid, resid_arg = _refined(lambda w: residual(w, f.derivs(w)[0]), grid, z,
                                residual(z, hp), True, seeds)
    curv, curv_arg = _curvature_extreme(f, grid, z, sampled, seeds, upper)
    if upper:
        side, margin_curv, curv_ok = "sup", bound - curv, curv <= bound + tol
    else:
        side, margin_curv, curv_ok = "inf", curv - bound, curv >= bound - tol
    margin_resid = tol - resid
    wz, wv, margin = ((curv_arg, curv, margin_curv) if margin_curv <= margin_resid
                      else (resid_arg, resid, margin_resid))
    details = {
        **head,
        "tol": tol,
        f"curvature_{side}": curv,
        "curvature_margin": margin_curv,
        "dilatation_residual": resid,
        "residual_margin": margin_resid,
        "family": f.label,
    }
    if sampled is None:
        details["reason"] = (f"h' vanishes at {curv_arg:.6g} inside |z| <= {grid.radius:g}, "
                             "so the curvature is unbounded")
    return BoundReport(
        check=check,
        passed=curv_ok and resid <= tol,
        margin=float(margin),
        grid=grid.to_dict(),
        witness={"z": complex_pair(wz), "value": wv},
        details=details,
    )


def check_membership(f: HarmonicMapping, params: ClassParams,
                     grid: DiskGrid | None = None, tol: float = 1e-8) -> BoundReport:
    """Test the two class conditions on the disk of the grid: the infimum of
    the curvature real part stays above ``alpha - tol`` and ``g' = zeta z^n h'``
    holds to ``tol``."""
    return _band_check(f, "membership", params.alpha, False, params.zeta, params.n,
                       grid, tol, {"alpha": params.alpha,
                                   "zeta": complex_pair(params.zeta), "n": params.n})


def check_pbeta(f: HarmonicMapping, p: PBetaParams,
                grid: DiskGrid | None = None, tol: float = 1e-8) -> BoundReport:
    """Test the curvature-above class: ``Re`` curvature below ``beta`` and
    dilatation exactly ``z`` (i.e. ``g' = z h'``)."""
    return _band_check(f, "pbeta", p.beta, True, 1.0, 1, grid, tol, {"beta": p.beta})


def check_theorem_b_condition(f: HarmonicMapping, lam: complex, k: float, n: int,
                              grid: DiskGrid | None = None,
                              tol: float = 1e-8) -> BoundReport:
    """Univalence-criterion membership: dilatation ``lam * k * z^n`` with
    ``|lam| = 1``, ``0 < k <= 1/(2n-1)``, and curvature real part > -1/2."""
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > 1e-12:
        raise ParameterError(f"|lam| must equal 1, got {abs(lam)}")
    if not (0.0 < k and within_zeta_cap(k, n)):
        raise AdmissibilityError(f"k={k} outside (0, 1/(2n-1)] for n={n}")
    report = check_membership(f, ClassParams(-0.5, lam * k, n), grid=grid, tol=tol)
    report.check = "theorem-b"
    report.details["lam"] = complex_pair(lam)
    report.details["k"] = float(k)
    return report


def kaplan_min_arc_integral(f: HarmonicMapping, n: int, lam: complex, r: float,
                            M: int = 512) -> float:
    """Minimum over boundary arcs of the curvature integral at radius ``r`` of
    ``F = h - lam g`` for the shear ``g' = z^n h'`` of the analytic part of ``f``.

    ``F' = h' (1 - lam z^n)`` and ``F''`` come from one evaluation of ``h'``
    and ``h''``.  Samples ``u = Re(1 + z F''/F')`` at ``M`` uniform angles and
    minimises the trapezoidal integral over all arcs spanning at least one
    grid step and less than a full turn.  Values above ``-pi`` for every shear
    direction certify close-to-convexity at this radius.
    """
    if M < 64:
        raise ParameterError(f"need at least 64 angular samples, got {M}")
    check_radius(r, "radius")
    lam = complex(lam)
    theta = 2.0 * np.pi * np.arange(M) / M
    z = r * np.exp(1j * theta)
    hp, hpp = f.derivs(z)
    Fp = hp * (1.0 - lam * z**n)
    if np.min(np.abs(Fp)) < 1e-12:
        raise SingularityError("F' vanishes (numerically) on the sample circle")
    Fpp = hpp * (1.0 - lam * z**n) - lam * n * z ** (n - 1) * hp
    u = np.real(1.0 + z * Fpp / Fp)

    # Trapezoid over the arc [theta_j1, theta_j2] equals dtheta*(P[j2]-P[j1])
    # with P = (prefix sum) + u/2, so the arc minimum is a windowed minimum
    # of P differences over the doubled circle.
    u2 = np.concatenate((u, u))
    prefix = np.concatenate(([0.0], np.cumsum(u2)))[:-1]
    P = prefix + 0.5 * u2
    dtheta = 2.0 * np.pi / M

    best = math.inf
    dq: deque[int] = deque()  # candidate arc starts with decreasing P (front = max)
    for j2 in range(1, 2 * M):
        j1_new = j2 - 1
        if j1_new < M:
            while dq and P[dq[-1]] <= P[j1_new]:
                dq.pop()
            dq.append(j1_new)
        while dq and dq[0] < j2 - (M - 1):
            dq.popleft()
        if dq:
            best = min(best, P[j2] - P[dq[0]])
    return float(best * dtheta)


def cc_radius(alpha: float, n: int) -> float:
    """Close-to-convexity radius ``((1+2a)/(1+2n+2a))**(1/n)``.

    Defined for ``-1/2 < alpha < 0`` and integer ``n >= 2`` (the shear
    ``g' = z^n h'`` with unit coefficient).
    """
    if not -0.5 < alpha < 0.0:
        raise ParameterError(f"alpha must lie in (-1/2, 0), got {alpha}")
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    return ((1.0 + 2.0 * alpha) / (1.0 + 2.0 * n + 2.0 * alpha)) ** (1.0 / n)
