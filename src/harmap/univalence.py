"""Injectivity diagnostics: collision construction, grid scans, winding.

Three levels of rigour: an exact symmetric-collision solver for the
counterexample family (root finding on the boundary-argument equation), a
general polar-grid scan with spatial hashing and damped Gauss-Newton
refinement, and a discrete winding-number check for image multiplicity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    InfeasibilityError,
    OnCurveError,
    ParameterError,
)
from .mappings import HarmonicMapping, is_conjugate_symmetric, jacobian_of, make_counterexample
from .reports import UnivalenceReport

#: default scan radius for near-boundary collision hunting
DEFAULT_SCAN_RADIUS = 0.999
#: refined pairs closer than this in image space count as collisions
DEFAULT_COLLISION_TOL = 1e-8
#: preimage pairs closer than this are treated as trivially equal
DEFAULT_SEPARATION_FLOOR = 0.05
#: the scan stops collecting candidate pairs beyond this many (memory cap);
#: a truncated scan without a confirmed collision is ``inconclusive``
MAX_CANDIDATES = 12_000_000


def feasibility_threshold(gamma: float) -> float:
    """Smallest radius on which the symmetric collision equation is solvable.

    The boundary argument ``arg(1 - r e^(i theta))`` sweeps ``(-arcsin r, 0)``
    as ``theta`` runs over ``(0, pi)``; the collision needs it to reach
    ``-pi/(gamma+1)``, hence ``r > sin(pi/(gamma+1))``.
    """
    gamma = float(gamma)
    if not 1.0 < gamma <= 1.75:
        raise ParameterError(f"gamma must lie in (1, 7/4], got {gamma}")
    return math.sin(math.pi / (gamma + 1.0))


@dataclass(frozen=True)
class CollisionSearchParams:
    """Inputs for the symmetric-collision construction."""

    gamma: float
    r0: float | None = None  # None selects the midpoint of the feasible range
    tol: float = 1e-12
    max_iter: int = 200


@dataclass(frozen=True)
class SymmetricCollision:
    """A conjugate pair identified under the counterexample mapping."""

    gamma: float
    r0: float
    theta0: float
    z1: complex
    z2: complex
    image_gap: float
    im_f: float
    threshold: float


def find_symmetric_collision(p: CollisionSearchParams) -> SymmetricCollision:
    """Locate ``z1 = r0 e^(i theta0)`` with ``f(z1) = f(conj z1)``.

    Solves ``arg(1 - r0 e^(i theta)) = -pi/(gamma+1)`` by bisection on the
    monotone stretch ``theta in (0, arccos r0)``; there the imaginary part of
    the mapping vanishes, so the conjugate pair collides.
    """
    thr = feasibility_threshold(p.gamma)
    r0 = 0.5 * (thr + 1.0) if p.r0 is None else float(p.r0)
    if not thr < r0 < 1.0:
        raise InfeasibilityError(
            f"r0={r0} infeasible: need {thr:.6f} < r0 < 1 for gamma={p.gamma}"
        )
    target = -math.pi / (p.gamma + 1.0)

    def g(theta: float) -> float:
        w = 1.0 - r0 * cmath.exp(1j * theta)
        return cmath.phase(w) - target

    lo = 1e-15
    hi = math.acos(r0)
    if g(lo) <= 0.0 or g(hi) >= 0.0:
        raise InfeasibilityError(
            f"no sign change on (0, arccos r0) for gamma={p.gamma}, r0={r0}"
        )
    for _ in range(p.max_iter):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    theta0 = 0.5 * (lo + hi)

    f = make_counterexample(p.gamma)
    z1 = r0 * cmath.exp(1j * theta0)
    z2 = z1.conjugate()
    w1 = complex(f(z1))
    gap = abs(w1 - complex(f(z2)))
    if abs(w1.imag) > p.tol:
        raise ConvergenceError(
            f"bisection stalled: residual imaginary part {w1.imag:.3e} exceeds {p.tol}"
        )
    return SymmetricCollision(gamma=p.gamma, r0=r0, theta0=theta0, z1=z1, z2=z2,
                              image_gap=gap, im_f=w1.imag, threshold=thr)


# -- grid scan ----------------------------------------------------------------


def _batch_refine(f: HarmonicMapping, z: np.ndarray, evals: tuple, I: np.ndarray,
                  J: np.ndarray, gap: np.ndarray, r: float, floor: float, tol: float,
                  iters: int = 14, block: int = 1_500_000):
    """Vectorised damped Gauss-Newton on many candidate pairs at once.

    The pairs start at the grid points ``(z[I], z[J])`` with image gaps
    ``gap``; ``evals = (w, hp, gp)`` holds ``f.eval_all(z)``, from which the
    first step takes its residual and Jacobian instead of evaluating again.
    Works block-wise (the solver's transient arrays are a small multiple of
    the block length) and returns ``(z1, z2, gap, alive)`` where ``alive`` is
    False for pairs that merged below half the separation floor (trivial
    near-diagonal minima).
    """
    parts = [_batch_refine_block(f, z, evals, I[i : i + block], J[i : i + block],
                                 gap[i : i + block], r, floor, tol, iters)
             for i in range(0, len(I), block)]
    return tuple(np.concatenate(cols) for cols in zip(*parts))


def _batch_refine_block(f: HarmonicMapping, z: np.ndarray, evals: tuple, I: np.ndarray,
                        J: np.ndarray, gap: np.ndarray, r: float, floor: float,
                        tol: float, iters: int):
    z1, z2, gap = z[I], z[J], gap.copy()

    def clamp(zz):
        a = np.abs(zz)
        over = a > r
        if np.any(over):
            zz = np.where(over, zz * (r / np.maximum(a, 1e-300)), zz)
        return zz

    def gap_of(za, zb):
        return np.abs(f(za) - np.asarray(f(zb)))

    def side(zz, index, sgn, c, k):
        """``f(zz)``; writes the d/dx and d/dy columns of ``sgn * f`` at
        ``zz`` to ``c[k]``, ``c[k + 1]``.  Values come from ``evals`` at the
        grid points ``index`` when given.  Evaluating one side at a time
        keeps only one side's derivative arrays alive."""
        w, hp, gp = f.eval_all(zz) if index is None else (e[index] for e in evals)
        gpc = np.conjugate(gp)
        c[k] = sgn * (hp + gpc)
        c[k + 1] = sgn * 1j * (hp - gpc)
        return w

    alive = np.ones(len(z1), dtype=bool)
    progress = np.ones(len(z1), dtype=bool)
    for it in range(iters):
        active = alive & progress & (gap > 0.1 * tol)
        if not np.any(active):
            break
        a1, a2 = z1[active], z2[active]
        # residual and the complex columns of its 2x4 real Jacobian
        c = np.empty((4, len(a1)), dtype=np.complex128)
        first = it == 0
        R = (side(a1, I[active] if first else None, 1.0, c, 0)
             - side(a2, J[active] if first else None, -1.0, c, 2))
        A = np.sum(c.real * c.real, axis=0)
        B = np.sum(c.real * c.imag, axis=0)
        D = np.sum(c.imag * c.imag, axis=0)
        det = A * D - B * B
        det = np.where(np.abs(det) < 1e-300, np.inf, det)
        u1 = (-R.real * D + R.imag * B) / det
        u2 = (R.real * B - R.imag * A) / det
        # least-norm step components J^T u, packed back into complex points
        dx = np.empty((4, len(a1)))
        for k in range(4):
            dx[k] = c[k].real * u1 + c[k].imag * u2
        step1 = dx[0] + 1j * dx[1]
        step2 = dx[2] + 1j * dx[3]
        t = np.ones(len(a1))
        cur_gap = gap[active]
        best1, best2 = a1.copy(), a2.copy()
        improved = np.zeros(len(a1), dtype=bool)
        for _ in range(6):
            todo = ~improved
            if not np.any(todo):
                break
            t1 = clamp(a1[todo] + t[todo] * step1[todo])
            t2 = clamp(a2[todo] + t[todo] * step2[todo])
            g = gap_of(t1, t2)
            better = g < cur_gap[todo]
            idx = np.nonzero(todo)[0][better]
            best1[idx], best2[idx] = t1[better], t2[better]
            cur_gap[idx] = g[better]
            improved[idx] = True
            t[np.nonzero(todo)[0][~better]] *= 0.5
        z1[active], z2[active] = best1, best2
        gap[active] = cur_gap
        # The step and line search are deterministic, so a candidate that
        # failed to improve once can never improve later; retire it.
        progress[np.nonzero(active)[0][~improved]] = False
        merged = np.abs(z1 - z2) < 0.5 * floor
        alive &= ~merged
    return z1, z2, gap, alive


def _polish_symmetric(f: HarmonicMapping, z1: complex, r: float, floor: float,
                      tol: float):
    """Canonicalise a conjugate-pair collision to the minimal-radius tangency.

    For mappings with real coefficients the symmetric collisions form the
    curve ``Im f(rho e^(i theta)) = 0``; its smallest-radius point satisfies
    additionally ``d/dtheta Im f = 0``.  Solving that 2x2 system by damped
    Newton, with up to three more steps past the tolerance while they still
    reduce the residual, pins the witness to rounding level, independent of
    the scan resolution.
    """

    def imf_and_derivs(rho: float, th: float):
        z = rho * cmath.exp(1j * th)
        w, hp, gp = f.eval_all(z)
        phi = complex(hp - gp)
        dphi = complex(f.h.deriv2(z) - f.g.deriv2(z))
        imf = complex(w).imag
        d_th = (1j * z * phi).imag
        d_rho = ((z / rho) * phi).imag
        d_thth = (-(z * phi + z * z * dphi)).imag
        d_rhoth = ((1j / rho) * (z * phi + z * z * dphi)).imag
        return imf, d_th, d_rho, d_thth, d_rhoth

    rho = abs(z1)
    th = abs(cmath.phase(z1))
    if not 0.0 < th < math.pi:
        return None
    scale0 = None
    extra = 3
    for _ in range(80):
        imf, d_th, d_rho, d_thth, d_rhoth = imf_and_derivs(rho, th)
        G = np.array([imf, d_th])
        size = float(np.hypot(*G))
        if scale0 is None:
            scale0 = max(size, 1.0)
        converged = size <= 1e-14 * scale0 or size <= 1e-15
        if converged and (extra := extra - 1) < 0:
            break
        J = np.array([[d_rho, d_th], [d_rhoth, d_thth]])
        try:
            step = np.linalg.solve(J, -G)
        except np.linalg.LinAlgError:
            return None
        t = 1.0
        moved = False
        for _ in range(1 if converged else 50):
            nr = min(max(rho + t * step[0], 1e-6), r)
            nt = min(max(th + t * step[1], 1e-9), math.pi - 1e-9)
            n_imf, n_dth, *_ = imf_and_derivs(nr, nt)
            if np.hypot(n_imf, n_dth) < size:
                rho, th = nr, nt
                moved = True
                break
            t *= 0.5
        if not moved:
            if converged:
                break
            return None
    z = rho * cmath.exp(1j * th)
    gap = abs(complex(f(z)) - complex(f(z.conjugate())))
    sep = abs(z - z.conjugate())
    if gap <= tol and sep >= floor:
        return z, z.conjugate(), gap
    return None


def _candidate_pairs(w: np.ndarray, z: np.ndarray, rad: np.ndarray,
                     box: np.ndarray, sep_pre: float):
    """Index pairs ``(I, J, levels, truncated)`` of grid points to refine.

    A multi-level spatial hash (Teschner et al., VMV 2003): point ``p`` lives
    at the smallest level whose cell ``s0 * 2**L`` is at least ``2 rad[p]``;
    all levels share one origin, so their cells nest.  One representative per
    (level cell, preimage box) reaches ``max(rad + |w - w_rep|)`` over its
    group and queries the 3x3 cell neighbourhood at its own and every coarser
    level; a pair is kept when the images lie within the two reaches and the
    groups' preimages can lie ``sep_pre`` apart.  So every point pair in two
    boxes with ``|w_p - w_q| <= rad_p + rad_q`` and ``|z_p - z_q| >= sep_pre``
    meets as a kept pair of the same boxes.  ``truncated``: collection stopped
    after more than ``MAX_CANDIDATES`` pairs.
    """
    top = max(float(rad.max()), 5e-13)
    u = w - complex(w.real.min(), w.imag.min())
    ext = max(float(u.real.max()), float(u.imag.max()), top)
    # halvings of the coarsest cell 2*top that still hold 2*rad, capped so
    # that the finest level spans fewer than 2**20 cells per axis
    cap = 19 + math.floor(math.log2(2.0 * top / ext))
    with np.errstate(divide="ignore"):
        k = np.minimum(np.floor(np.log2(top / rad)), cap).astype(np.int64)
    k -= top * np.exp2(-k) < rad  # log2 rounding must not shrink a cell
    levels = int(k.max()) + 1
    lev = levels - 1 - k
    # finest-level cell indices; a right shift by L gives the level-L cell
    s0 = math.ldexp(2.0 * top, 1 - levels)
    bx, by = np.floor(u.real / s0).astype(np.int64), np.floor(u.imag / s0).astype(np.int64)
    _, cell = np.unique((lev << 40) + ((bx >> lev) << 20) + (by >> lev), return_inverse=True)
    _, rep, grp = np.unique(cell * (int(box.max()) + 1) + box, return_index=True,
                            return_inverse=True)
    reach, spread = np.zeros(len(rep)), np.zeros(len(rep))
    np.maximum.at(reach, grp, rad + np.abs(w - w[rep][grp]))
    np.maximum.at(spread, grp, np.abs(z - z[rep][grp]))
    rlev = lev[rep]

    pairs = [np.zeros((2, 0), dtype=np.int64)]
    chunk = 2_000_000  # cap transient allocation per expansion block
    for level in range(levels):
        qs = np.nonzero(rlev <= level)[0]
        qx, qy = bx[rep[qs]] >> level, by[rep[qs]] >> level
        span = int(qy.max()) + 3
        qkey = qx * span + qy + 1
        t = np.nonzero(rlev[qs] == level)[0]
        t = t[np.argsort(qkey[t], kind="stable")]
        want = (qkey[:, None] + [dx * span + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)]).ravel()
        lo = np.searchsorted(qkey[t], want)
        cnt = np.searchsorted(qkey[t], want, "right") - lo
        src, ends = np.repeat(qs, 9), np.cumsum(cnt)
        b0 = 0
        while b0 < len(cnt):
            b1 = max(b0 + 1, int(np.searchsorted(ends, ends[b0] - cnt[b0] + chunk, "right")))
            c = cnt[b0:b1]
            a = np.repeat(src[b0:b1], c)
            b = qs[t[np.arange(len(a)) - np.repeat(np.cumsum(c) - c - lo[b0:b1], c)]]
            pa, pb = rep[a], rep[b]
            m = ((np.abs(w[pa] - w[pb]) <= reach[a] + reach[b])
                 & (np.abs(z[pa] - z[pb]) + spread[a] + spread[b] >= sep_pre)
                 & ((rlev[a] < level) | (a < b)))
            pairs.append(np.stack([pa[m], pb[m]]))
            if sum(p.shape[1] for p in pairs) > MAX_CANDIDATES:
                return *np.concatenate(pairs, axis=1), levels, True
            b0 = b1
    return *np.concatenate(pairs, axis=1), levels, False


def _first_smallest_per_key(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per distinct key, in key order, the first index with the smallest value.

    Equals ``np.lexsort((values, keys))`` reduced to the first entry of each
    key, from one stable sort of the integer keys instead of a two-key sort.
    """
    order = np.argsort(keys, kind="stable")
    k, v = keys[order], values[order]
    new = np.ones(len(k), dtype=bool)
    new[1:] = k[1:] != k[:-1]
    starts = np.flatnonzero(new)
    group = np.cumsum(new) - 1
    lo = np.fmin.reduceat(v, starts)[group]
    # a group of only NaN values keeps its first entry, as lexsort does
    hit = np.flatnonzero((v == lo) | np.isnan(lo))
    first = np.ones(len(hit), dtype=bool)
    first[1:] = group[hit[1:]] != group[hit[:-1]]
    return order[hit[first]]


def univalence_scan(f: HarmonicMapping, r: float = DEFAULT_SCAN_RADIUS,
                    cells: int = 256,
                    collision_tol: float = DEFAULT_COLLISION_TOL,
                    separation_floor: float = DEFAULT_SEPARATION_FLOOR) -> UnivalenceReport:
    """Scan ``|z| <= r`` for injectivity failures at a given resolution.

    Samples a ``cells x 2*cells`` polar grid, gives each point a local radius
    (its largest image gap to a grid neighbour), pairs points whose images
    lie within the sum of their radii and whose preimages lie apart through a
    multi-level spatial hash (so the work follows the local distortion, not
    its worst spot), and refines the pairs by damped Gauss-Newton.  Verdicts:

    * ``collision`` -- a refined pair with image gap <= ``collision_tol`` and
      preimage separation >= ``separation_floor`` (re-verified by direct
      evaluation, canonicalised for conjugate-symmetric mappings);
    * ``degenerate-jacobian`` -- a grid point with non-positive Jacobian;
    * ``inconclusive`` -- neither of the above, but the candidate pairs were
      truncated at ``MAX_CANDIDATES``, so not every pair was refined;
    * ``certified-at-resolution`` -- none of the above at this resolution.
    """
    if not 0.0 < r < 1.0:
        raise ParameterError(f"scan radius must lie in (0, 1), got {r}")
    if cells < 64:
        raise ParameterError(f"need at least 64 cells, got {cells}")

    n_r, n_a = cells, 2 * cells
    rho = r * np.arange(1, n_r + 1) / n_r
    theta = 2.0 * np.pi * np.arange(n_a) / n_a
    Z = rho[:, None] * np.exp(1j * theta)[None, :]
    W, hp, gp = f.eval_all(Z)
    J = jacobian_of(hp, gp)

    degenerate_point = None
    bad = np.argwhere(J <= 0.0)
    if bad.size:
        i, j = bad[0]
        degenerate_point = complex(Z[i, j])

    gap_r = np.abs(np.diff(W, axis=0, prepend=W[:1], append=W[-1:]))
    gap_a = np.abs(W - np.roll(W, 1, axis=1))
    rad = np.maximum.reduce([gap_r[:-1], gap_r[1:], gap_a, np.roll(gap_a, -1, axis=1)])
    cell_size = 2.0 * float(rad.max()) or 1e-12

    w, z = W.ravel(), Z.ravel()

    # preimage boxes finer than the separation floor: every pair of branches
    # >= floor apart shows up as a distinct-box representative pair, while
    # same-cell clusters collapse to a handful of points
    n_ring = min(128, max(8, int(math.ceil(r / (0.3 * separation_floor)))))
    n_sect = min(1024, max(16, int(math.ceil(2.0 * math.pi * r / (0.3 * separation_floor)))))
    n_boxes = n_ring * n_sect
    box_diag = math.hypot(r / n_ring, 2.0 * math.pi * r / n_sect)
    sep_pre = max(separation_floor - 2.0 * box_diag, 0.25 * separation_floor)
    ring = np.minimum((np.abs(z) / r * n_ring).astype(np.int64), n_ring - 1)
    sect = ((np.angle(z) + np.pi) / (2.0 * np.pi) * n_sect).astype(np.int64) % n_sect
    box = ring * n_sect + sect
    I, Jc, levels, truncated = _candidate_pairs(w, z, rad.ravel(), box, sep_pre)

    if is_conjugate_symmetric(f):
        # the grid is mirror-symmetric, so conjugate collision pairs appear
        # as (point, mirrored grid point); seed the best of those directly
        mirror_col = (n_a - np.arange(n_a)) % n_a
        flat = np.arange(n_r * n_a).reshape(n_r, n_a)
        upper = np.nonzero((Z.imag >= 0.5 * separation_floor).ravel())[0]
        mirrored = flat[:, mirror_col].ravel()[upper]
        best = np.argsort(np.abs(w[upper] - w[mirrored]), kind="stable")[:512]
        I = np.concatenate([I, upper[best]])
        Jc = np.concatenate([Jc, mirrored[best]])

    refinement_residual = None
    collision = None
    unconfirmed = None
    tested = 0
    if len(I):
        gaps = np.abs(w[I] - w[Jc])
        # one candidate per unordered preimage-box pair (smallest image gap)
        pair_key = np.minimum(box[I], box[Jc]) * np.int64(n_boxes) + np.maximum(box[I], box[Jc])
        reps = _first_smallest_per_key(pair_key, gaps)
        tested = len(reps)

        rz1, rz2, rgap, alive = _batch_refine(
            f, z, (w, hp.ravel(), gp.ravel()), I[reps], Jc[reps], gaps[reps], r,
            separation_floor, collision_tol)
        rsep = np.abs(rz1 - rz2)
        valid = alive & (rsep >= separation_floor)
        if np.any(valid):
            vi = np.nonzero(valid)[0]
            # orient each pair so z1 comes first in (|z|, arg z); converged
            # gaps are rounding noise, so those pairs are ranked by z1 alone
            a, b, g = rz1[vi], rz2[vi], rgap[vi]
            ma, mb = np.abs(a), np.abs(b)
            swap = (mb < ma) | ((mb == ma) & (np.angle(b) < np.angle(a)))
            a, b = np.where(swap, b, a), np.where(swap, a, b)
            rank = np.where(g <= 0.1 * collision_tol, 0.0, g)
            best = np.lexsort((np.angle(a), np.abs(a), rank))[0]
            refinement_residual = float(g[best])
            za, zb = complex(a[best]), complex(b[best])
            if g[best] <= collision_tol:
                collision = (za, zb)
            else:
                unconfirmed = (za, zb)

    details = {
        "family": f.label,
        "scan_radius": r,
        "grid": [n_r, n_a],
        "hash_cell_size": cell_size,
        "hash_levels": levels,
        "candidate_pairs": len(I),
        "candidates_refined": tested,
        "truncated": truncated,
        "anchor": "none",
    }
    if collision is None and unconfirmed is not None:
        details["unconfirmed_candidate"] = [unconfirmed[0], unconfirmed[1]]

    if collision is not None:
        za, zb = collision
        if is_conjugate_symmetric(f):
            polished = _polish_symmetric(f, za, r, separation_floor, collision_tol)
            if polished is not None:
                za, zb, _ = polished
                details["anchor"] = "symmetric-tangency"
        # independent re-verification by direct evaluation
        gap = abs(complex(f(za)) - complex(f(zb)))
        sep = abs(za - zb)
        if gap <= collision_tol and sep >= separation_floor:
            return UnivalenceReport(
                verdict="collision", resolution=cells, z1=za, z2=zb,
                image_gap=gap, refinement_residual=refinement_residual,
                separation=sep, degenerate_point=degenerate_point,
                details=details)

    if degenerate_point is not None:
        return UnivalenceReport(
            verdict="degenerate-jacobian", resolution=cells,
            degenerate_point=degenerate_point,
            refinement_residual=refinement_residual, details=details)

    return UnivalenceReport(
        verdict="inconclusive" if truncated else "certified-at-resolution",
        resolution=cells, refinement_residual=refinement_residual, details=details)


def winding_check(f: HarmonicMapping, r: float, w, M: int = 1024) -> int:
    """Winding number of ``theta -> f(r e^(i theta))`` around ``w``.

    Argument increments are accumulated stepwise; sampling is doubled until
    every step is below ``pi/2``.  Raises :class:`OnCurveError` when ``w``
    comes within ``1e-9`` of the sampled curve.
    """
    if not 0.0 < r < 1.0:
        raise ParameterError(f"radius must lie in (0, 1), got {r}")
    M = max(int(M), 256)
    wc = complex(w)
    while True:
        theta = 2.0 * np.pi * np.arange(M) / M
        c = f(r * np.exp(1j * theta)) - wc
        if float(np.min(np.abs(c))) < 1e-9:
            raise OnCurveError(f"target {wc} lies on the image curve (within 1e-9)")
        steps = np.angle(np.roll(c, -1) / c)
        if float(np.max(np.abs(steps))) < 0.5 * np.pi:
            total = float(np.sum(steps)) / (2.0 * np.pi)
            return int(round(total))
        if M >= 1 << 22:
            raise ConvergenceError("winding sampling exceeded its cap without resolving")
        M *= 2
