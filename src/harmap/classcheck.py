"""Curvature diagnostics and class-membership checks.

The central quantity is the analytic curvature term ``1 + z h''/h'`` whose
real part bounds (below by ``alpha``, above by ``beta``) define the two
mapping classes this package verifies against.  Checks evaluate on polar
grids that refine toward the boundary, where the extrema live, with one ``h'``
kernel evaluation per check; no value depends on the array length.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, ParameterError, SingularityError
from .mappings import (
    AnalyticFunction,
    ClassParams,
    HarmonicMapping,
    PBetaParams,
)
from .reports import BoundReport, complex_pair

#: largest radius a default grid pushes toward the boundary
DEFAULT_RMAX = 1.0 - 1e-4
#: derivative magnitudes below this are treated as singular
_SINGULAR_FLOOR = 1e-300


@dataclass(frozen=True)
class DiskGrid:
    """Concentric-circle sample grid: strictly increasing radii in (0, 1)."""

    radii: tuple
    angles_per_circle: int = 512

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        if not radii:
            raise ParameterError("grid needs at least one radius")
        if any(not 0.0 < r < 1.0 for r in radii):
            raise ParameterError("grid radii must lie in (0, 1)")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ParameterError("grid radii must be strictly increasing")
        if self.angles_per_circle < 8:
            raise ParameterError("grid needs at least 8 angles per circle")
        object.__setattr__(self, "radii", radii)

    @classmethod
    def default(cls, r_max: float = DEFAULT_RMAX, angles: int = 512) -> "DiskGrid":
        """Coarse interior coverage plus geometric refinement toward ``r_max``."""
        low = np.linspace(0.1, 0.85, 8)
        high = 1.0 - np.geomspace(0.1, 1.0 - r_max, 16)
        return cls(tuple(np.concatenate((low, high))), angles)

    def points(self) -> np.ndarray:
        """All grid points, flattened in (radius, angle-index) order."""
        m = self.angles_per_circle
        angles = 2.0 * np.pi * np.arange(m) / m
        return (np.array(self.radii)[:, None] * np.exp(1j * angles)).ravel()

    def to_dict(self) -> dict:
        return {
            "radii": [float(r) for r in self.radii],
            "angles_per_circle": int(self.angles_per_circle),
        }


@dataclass
class CurvatureReport:
    """Grid extrema of ``Re(1 + z h''/h')`` with their witnesses."""

    inf_est: float
    sup_est: float
    argmin_z: complex
    argmax_z: complex
    grid: DiskGrid


def _curvature(z, hp, hpp):
    if np.min(np.abs(hp)) < _SINGULAR_FLOOR:
        raise SingularityError("curvature undefined where h' vanishes")
    return 1.0 + z * hpp / hp


def curvature(f, z):
    """``1 + z h''(z) / h'(z)`` for the analytic part of ``f``."""
    if isinstance(f, HarmonicMapping):
        return _curvature(z, *f.derivs(z))
    if isinstance(f, AnalyticFunction):
        return _curvature(z, f.deriv(z), f.deriv2(z))
    raise ParameterError(f"expected a mapping or analytic function, got {type(f).__name__}")


def curvature_extrema(f, grid: DiskGrid | None = None) -> CurvatureReport:
    """Extrema of the curvature real part over a concentric-circle grid.

    Ties resolve to the first grid point in (radius, angle-index) order, so
    refining the grid can only widen the reported range.
    """
    grid = grid or DiskGrid.default()
    z = grid.points()
    vals = np.real(curvature(f, z))
    i, j = int(np.argmin(vals)), int(np.argmax(vals))
    return CurvatureReport(float(vals[i]), float(vals[j]), complex(z[i]), complex(z[j]), grid)


def _band_check(f: HarmonicMapping, check: str, bound: float, upper: bool,
                zeta: complex, n: int, grid: DiskGrid | None, tol: float,
                head: dict) -> BoundReport:
    """Curvature-band check: ``Re(1 + z h''/h')`` stays above ``bound`` (below
    it when ``upper``) *and* ``g' = zeta z^n h'`` holds, both to ``tol``.

    The report carries both margins; the headline margin and witness come
    from whichever condition is tighter (each witness the first in grid
    order).  ``head`` leads the details.
    """
    grid = grid or DiskGrid.default()
    z = grid.points()
    hp, hpp = f.derivs(z)
    vals = np.real(_curvature(z, hp, hpp))
    zn = z**n
    res = np.abs(f._omega(z) * hp - zeta * zn * hp)
    i, k = int(np.argmax(vals) if upper else np.argmin(vals)), int(np.argmax(res))
    curv, curv_arg, resid, resid_arg = float(vals[i]), complex(z[i]), float(res[k]), complex(z[k])
    if upper:
        side, margin_curv, curv_ok = "sup", bound - curv, curv <= bound + tol
    else:
        side, margin_curv, curv_ok = "inf", curv - bound, curv >= bound - tol
    margin_resid = tol - resid
    wz, wv, margin = ((curv_arg, curv, margin_curv) if margin_curv <= margin_resid
                      else (resid_arg, resid, margin_resid))
    return BoundReport(
        check=check,
        passed=curv_ok and resid <= tol,
        margin=float(margin),
        grid=grid.to_dict(),
        witness={"z": complex_pair(wz), "value": wv},
        details={
            **head,
            "tol": tol,
            f"curvature_{side}": curv,
            "curvature_margin": margin_curv,
            "dilatation_residual": resid,
            "residual_margin": margin_resid,
            "family": f.label,
        },
    )


def check_membership(f: HarmonicMapping, params: ClassParams,
                     grid: DiskGrid | None = None, tol: float = 1e-8) -> BoundReport:
    """Test the two class conditions on a grid: the grid infimum of the
    curvature real part stays above ``alpha - tol`` and ``g' = zeta z^n h'``
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
    if not 0.0 < k <= 1.0 / (2 * n - 1) + 1e-12:
        raise AdmissibilityError(f"k={k} outside (0, 1/(2n-1)] for n={n}")
    report = check_membership(f, ClassParams(-0.5, lam * k, n), grid=grid, tol=tol)
    report.check = "theorem-b"
    report.details["lam"] = complex_pair(lam)
    report.details["k"] = float(k)
    return report


def shear_function(h: AnalyticFunction, n: int, lam: complex) -> AnalyticFunction:
    """Analytic test function ``F = h - lam*g`` for the shear ``g' = z^n h'``.

    Only the derivatives are populated (that is all the arc-integral test
    needs); ``F' = h' (1 - lam z^n)``.
    """
    lam = complex(lam)

    def Fp(z):
        return h.deriv(z) * (1.0 - lam * z**n)

    def Fpp(z):
        return h.deriv2(z) * (1.0 - lam * z**n) - lam * n * z ** (n - 1) * h.deriv(z)

    return AnalyticFunction(value=None, deriv=Fp, deriv2=Fpp)


def kaplan_min_arc_integral(F: AnalyticFunction, r: float, M: int = 512) -> float:
    """Minimum over boundary arcs of the curvature integral at radius ``r``.

    Samples ``u = Re(1 + z F''/F')`` at ``M`` uniform angles and minimises the
    trapezoidal integral over all arcs spanning at least one grid step and
    less than a full turn.  Values above ``-pi`` for every shear direction
    certify close-to-convexity at this radius.
    """
    if M < 64:
        raise ParameterError(f"need at least 64 angular samples, got {M}")
    if not 0.0 < r < 1.0:
        raise ParameterError(f"radius must lie in (0, 1), got {r}")
    theta = 2.0 * np.pi * np.arange(M) / M
    z = r * np.exp(1j * theta)
    Fp = F.deriv(z)
    if np.min(np.abs(Fp)) < 1e-12:
        raise SingularityError("F' vanishes (numerically) on the sample circle")
    u = np.real(1.0 + z * F.deriv2(z) / Fp)

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
