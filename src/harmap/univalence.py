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
from .mappings import (HarmonicMapping, check_gamma, check_radius, check_tolerance,
                       is_conjugate_symmetric, jacobian_of, make_counterexample)
from .reports import UnivalenceReport

#: default scan radius for near-boundary collision hunting
DEFAULT_SCAN_RADIUS = 0.999
#: grid resolution of a scan: ``cells`` radii by ``2 cells`` angles
DEFAULT_CELLS = 256
#: refined pairs closer than this in image space count as collisions
DEFAULT_COLLISION_TOL = 1e-8
#: preimage pairs closer than this are treated as trivially equal
DEFAULT_SEPARATION_FLOOR = 0.05
#: the scan keeps the first this many candidate pairs, in emission order; a
#: truncated scan without a confirmed collision is ``inconclusive``
MAX_CANDIDATES = 12_000_000
#: safety cap on the collision bisection, which stops once the midpoint equals
#: an end point (in under 70 steps for every feasible gamma and r0 tried)
_MAX_BISECTIONS = 200
#: hash pairs the candidate stage expands and filters at a time
_EXPAND_BLOCK = 1 << 14
#: Gauss-Newton iterations of the scan's refiner, and the pairs it refines at
#: a time in each of its two stages (its transient arrays scale with that)
_REFINE_ITERS, _REFINE_BLOCK = 14, 1 << 13


def feasibility_threshold(gamma: float) -> float:
    """Smallest radius on which the symmetric collision equation is solvable.

    The boundary argument ``arg(1 - r e^(i theta))`` sweeps ``(-arcsin r, 0)``
    as ``theta`` runs over ``(0, pi)``; the collision needs it to reach
    ``-pi/(gamma+1)``, hence ``r > sin(pi/(gamma+1))``.
    """
    return math.sin(math.pi / (check_gamma(gamma) + 1.0))


@dataclass(frozen=True)
class SymmetricCollision:
    """A conjugate pair identified under the counterexample mapping."""

    gamma: float
    r0: float
    theta0: float
    z1: complex
    z2: complex
    w: complex  # f(z1)
    image_gap: float
    im_f: float
    threshold: float


def find_symmetric_collision(gamma: float, r0: float | None = None,
                             tol: float = 1e-12) -> SymmetricCollision:
    """Locate ``z1 = r0 e^(i theta0)`` with ``f(z1) = f(conj z1)`` for the
    counterexample map of ``gamma``; ``r0`` defaults to the midpoint of the
    feasible range, and ``|Im f(z1)|`` must end below ``tol``.

    Solves ``arg(1 - r0 e^(i theta)) = -pi/(gamma+1)`` by bisection on the
    monotone stretch ``theta in (0, arccos r0)``; there the imaginary part of
    the mapping vanishes, so the conjugate pair collides.
    """
    thr = feasibility_threshold(gamma)
    tol = check_tolerance(tol, "collision tolerance")
    r0 = 0.5 * (thr + 1.0) if r0 is None else float(r0)
    if not thr < r0 < 1.0:
        raise InfeasibilityError(
            f"r0={r0} infeasible: need {thr:.6f} < r0 < 1 for gamma={gamma}"
        )
    target = -math.pi / (gamma + 1.0)

    def g(theta: float) -> float:
        w = 1.0 - r0 * cmath.exp(1j * theta)
        return cmath.phase(w) - target

    lo = 1e-15
    hi = math.acos(r0)
    if g(lo) <= 0.0 or g(hi) >= 0.0:
        raise InfeasibilityError(
            f"no sign change on (0, arccos r0) for gamma={gamma}, r0={r0}"
        )
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    theta0 = 0.5 * (lo + hi)

    f = make_counterexample(gamma)
    z1 = r0 * cmath.exp(1j * theta0)
    z2 = z1.conjugate()
    w1 = complex(f(z1))
    gap = abs(w1 - complex(f(z2)))
    if abs(w1.imag) > tol:
        raise ConvergenceError(
            f"bisection stalled: residual imaginary part {w1.imag:.3e} exceeds {tol}"
        )
    return SymmetricCollision(gamma=gamma, r0=r0, theta0=theta0, z1=z1, z2=z2, w=w1,
                              image_gap=gap, im_f=w1.imag, threshold=thr)


# -- grid scan ----------------------------------------------------------------


def _batch_refine(f: HarmonicMapping, z: np.ndarray, evals: tuple, I: np.ndarray,
                  J: np.ndarray, gap: np.ndarray, r: float, floor: float, tol: float):
    """Vectorised damped Gauss-Newton on many candidate pairs at once.

    The pairs start at the grid points ``(z[I], z[J])`` with image gaps
    ``gap``; ``evals = (w, hp, gp)`` holds ``f.eval_all(z)``, from which the
    first step takes its residual and Jacobian.  That step, which retires
    most pairs, then the later steps of the live pairs run ``_REFINE_BLOCK``
    pairs at a time (transients scale with the block, not the pairs), bit for
    bit as on all at once: a pair's update reads only that pair.  Returns
    ``(z1, z2, gap, alive)`` where ``alive`` is False for pairs that merged
    below half the separation floor (trivial near-diagonal minima).
    """
    z1, z2, gap = z[I], z[J], gap.copy()
    alive, progress = np.ones((2, len(I)), dtype=bool)
    for i in range(0, len(I), _REFINE_BLOCK):
        k = slice(i, i + _REFINE_BLOCK)
        z1[k], z2[k], gap[k], alive[k], progress[k] = _batch_refine_block(
            f, z1[k], z2[k], gap[k], r, floor, tol, 1, (evals, I[k], J[k]))
    rest = np.nonzero(alive & progress & (gap > 0.1 * tol))[0]
    for i in range(0, len(rest), _REFINE_BLOCK):
        k = rest[i : i + _REFINE_BLOCK]
        z1[k], z2[k], gap[k], alive[k], _ = _batch_refine_block(
            f, z1[k], z2[k], gap[k], r, floor, tol, _REFINE_ITERS - 1, None)
    return z1, z2, gap, alive


#: the step lengths of the line search: the full step, then five halvings
_STEPS = 0.5 ** np.arange(6)[:, None]


def _batch_refine_block(f: HarmonicMapping, z1: np.ndarray, z2: np.ndarray,
                        gap: np.ndarray, r: float, floor: float, tol: float, iters: int,
                        grid: tuple | None):
    """``iters`` steps of :func:`_batch_refine` on the pairs ``(z1, z2)`` with
    gaps ``gap``, updated in place; returns them, ``alive`` and ``progress``.

    With ``grid = (evals, I, J)`` the pairs are the grid points ``(z[I],
    z[J])``: the first step reads ``evals`` and merge-tests every pair.  Each
    iteration takes the least-norm Gauss-Newton step and line-searches it:
    the full step for every pair in one call of ``f``, then the halved steps
    ``0.5**k`` (k = 1..5) of the pairs it failed in one more call; a pair
    keeps the first that lowers its gap.  A pair whose separation is below
    half the floor both now and after the full step is retired unseen: the
    separation is convex along the step and ``clamp`` (a projection onto a
    disk) does not expand distances, so it merges whatever step is taken.
    The transient arrays are a small multiple of the pairs given.
    """
    half = 0.5 * floor

    def clamp(zz):
        a = np.abs(zz)
        over = a > r
        if np.any(over):
            zz = np.where(over, zz * (r / np.maximum(a, 1e-300)), zz)
        return zz

    def gap_of(za, zb):
        """``|f(za) - f(zb)|`` from one call of ``f`` on both sides."""
        w = f(np.concatenate([za.ravel(), zb.ravel()]))
        return np.abs(w[: za.size] - w[za.size :]).reshape(za.shape)

    def side(zz, index, sgn, c, k):
        """``f(zz)``; writes the d/dx and d/dy columns of ``sgn * f`` at
        ``zz`` to ``c[k]``, ``c[k + 1]``.  Values come from ``evals`` at the
        grid points ``index`` when given.  Evaluating one side at a time
        keeps only one side's derivative arrays alive."""
        w, hp, gp = f.eval_all(zz) if index is None else (e[index] for e in grid[0])
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
        act = np.nonzero(active)[0]
        a1, a2 = z1[act], z2[act]
        # residual and the complex columns of its 2x4 real Jacobian
        c = np.empty((4, len(a1)), dtype=np.complex128)
        first = it == 0 and grid is not None
        R = (side(a1, grid[1][act] if first else None, 1.0, c, 0)
             - side(a2, grid[2][act] if first else None, -1.0, c, 2))
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
        del c, R, dx  # free the Jacobian before the line search evaluates
        p1, p2 = a1 + _STEPS[0] * step1, a2 + _STEPS[0] * step2
        slack = 1e-12 * (1.0 + np.abs(a1) + np.abs(a2) + np.abs(step1) + np.abs(step2))
        doomed = (np.abs(a1 - a2) < half - slack) & (np.abs(p1 - p2) < half - slack)
        alive[act[doomed]] = False
        keep = ~doomed
        act, a1, a2, step1, step2 = act[keep], a1[keep], a2[keep], step1[keep], step2[keep]
        t1, t2 = clamp(p1[keep]), clamp(p2[keep])
        cur_gap = gap[act]
        g = gap_of(t1, t2)
        better = g < cur_gap
        z1[act[better]], z2[act[better]], gap[act[better]] = t1[better], t2[better], g[better]
        fail = np.nonzero(~better)[0]
        if len(fail):
            t1 = clamp(a1[fail] + _STEPS[1:] * step1[fail])
            t2 = clamp(a2[fail] + _STEPS[1:] * step2[fail])
            g = gap_of(t1, t2)
            lower = g < cur_gap[fail]
            found = lower.any(axis=0)
            hit = np.nonzero(found)[0]
            k = np.argmax(lower[:, hit], axis=0)
            idx = act[fail[hit]]
            z1[idx], z2[idx], gap[idx] = t1[k, hit], t2[k, hit], g[k, hit]
            # The step and line search are deterministic, so a candidate
            # that failed to improve once can never improve later; retire it.
            progress[act[fail[~found]]] = False
        # only this iteration's live pairs can have moved since their last
        # merge test; the first test covers every pair, even one never active
        moved = slice(None) if first else act
        alive[moved] &= ~(np.abs(z1[moved] - z2[moved]) < half)
    return z1, z2, gap, alive, progress


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

    def residual(rho: float, th: float, order: int):
        """``Im f`` and its ``theta`` derivative at ``rho e^(i theta)``, for ``order``
        2 also ``d/drho``, ``d2/dtheta2`` and ``d2/drho dtheta``: one kernel call."""
        z = rho * cmath.exp(1j * th)
        h, g, hp, hpp = f._eval(z, True, order)
        phi = complex(hp - f._g_prime(z, hp))
        imf = complex(h + np.conjugate(g)).imag
        d_th = (1j * z * phi).imag
        if order < 2:
            return imf, d_th
        dphi = complex(hpp - f.g_second(z, hp, hpp))
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
        imf, d_th, d_rho, d_thth, d_rhoth = residual(rho, th, 2)
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
            n_imf, n_dth = residual(nr, nt, 1)
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
                     box: np.ndarray, sep_pre: float, lower: np.ndarray):
    """Index pairs ``(I, J, levels, truncated)`` of grid points to refine.

    A multi-level spatial hash (Teschner et al., VMV 2003): point ``p`` lives
    at the smallest level whose cell ``s0 * 2**L`` is at least ``2 rad[p]``;
    all levels share one origin, so their cells nest.  One representative per
    (level cell, preimage box) reaches ``max(rad + |w - w_rep|)`` over its
    group and queries the 3x3 cell neighbourhood at its own and every coarser
    level; a pair is kept when the images lie within the two reaches and the
    groups' preimages can lie ``sep_pre`` apart.  So every point pair in two
    boxes with ``|w_p - w_q| <= rad_p + rad_q`` and ``|z_p - z_q| >= sep_pre``
    meets as a kept pair of the same boxes.  ``lower`` marks the points of
    the open lower half of a mirrored grid (all False on any other): a pair
    of groups that both lie wholly there is dropped, since each of its point
    pairs is the exact mirror of one that a kept pair holds.  A query looks
    up only the targets it can keep: at its own level those after it, and
    when it lies wholly lower those that do not.  A level's pairs are expanded
    and filtered ``_EXPAND_BLOCK`` at a time in emission order: beside the kept
    pairs, transients scale with the block and the nine lookups per query.
    ``truncated``: only the first ``MAX_CANDIDATES`` of more pairs are returned.
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
    rlev, wr, zr = lev[rep], w[rep], z[rep]
    wholly_lower = np.ones(len(rep), dtype=bool)
    wholly_lower[grp[~lower]] = False
    reach, spread = np.zeros(len(rep)), np.zeros(len(rep))
    np.maximum.at(reach, grp, rad + np.abs(w - wr[grp]))
    np.maximum.at(spread, grp, np.abs(z - zr[grp]))

    pairs, count = [np.zeros((2, 0), dtype=np.int64)], 0
    for level in range(levels):
        qs = np.nonzero(rlev <= level)[0]
        t = np.nonzero(rlev[qs] == level)[0]
        if not t.size:
            continue
        qx, qy = bx[rep[qs]] >> level, by[rep[qs]] >> level
        span = int(qy.max()) + 3
        qkey = qx * span + qy + 1
        t = t[np.argsort(qkey[t], kind="stable")]
        # the targets sorted by (cell, index), once all of them and once those
        # not wholly lower, which are all that a wholly lower query keeps; the
        # keys use the dense rank of the cell, so they stay below 2 n**2 for
        # n queries and fit in int64 whatever the cell indices
        n, tcell = len(qs), qkey[t]
        new = np.r_[True, tcell[1:] != tcell[:-1]]
        cells = tcell[new]
        key = (np.cumsum(new) - 1) * n + t
        upper = ~wholly_lower[qs[t]]
        keys = np.concatenate([key, key[upper] + cells.size * n])
        t = np.concatenate([t, t[upper]])
        want = (qkey[:, None] + [dx * span + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)]).ravel()
        rank = np.minimum(np.searchsorted(cells, want), cells.size - 1)
        base = np.repeat(wholly_lower[qs] * (cells.size * n), 9) + rank * n
        # a query at this level keeps only the targets after it in its list
        lo = np.searchsorted(keys, base + np.repeat(np.where(rlev[qs] == level,
                                                             np.arange(1, n + 1), 0), 9))
        cnt = np.where(cells[rank] == want, np.searchsorted(keys, base + n) - lo, 0)
        # the level's pairs, numbered lookup by lookup, are expanded and
        # filtered a block at a time: each lookup gives its run's part in it
        src, ends = np.repeat(qs, 9), np.cumsum(cnt)
        for p0 in range(0, int(ends[-1]), _EXPAND_BLOCK):
            p1 = min(p0 + _EXPAND_BLOCK, int(ends[-1]))
            e0, e1 = np.searchsorted(ends, [p0, p1 - 1], "right")
            e = slice(e0, e1 + 1)
            c = np.minimum(ends[e], p1) - np.maximum(ends[e] - cnt[e], p0)
            a = np.repeat(src[e], c)
            b = qs[t[np.repeat(lo[e] + cnt[e] - ends[e], c) + np.arange(p0, p1)]]
            # cheaper test first; the second sees only the survivors
            m = np.abs(wr[a] - wr[b]) <= reach[a] + reach[b]
            a, b = a[m], b[m]
            m = np.abs(zr[a] - zr[b]) + spread[a] + spread[b] >= sep_pre
            pairs.append(np.stack([rep[a[m]], rep[b[m]]])[:, : MAX_CANDIDATES - count])
            count += np.count_nonzero(m)
            if count > MAX_CANDIDATES:
                return *np.concatenate(pairs, axis=1), levels, True
    return *np.concatenate(pairs, axis=1), levels, False


def _first_smallest_per_key(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per distinct key, in key order, the first index with the smallest value.

    Equals ``np.lexsort((values, keys))`` reduced to the first entry of each
    key, from one sort of the integer keys instead of a two-key sort.  Each
    key is made distinct by its index, so the default (unstable) sort gives
    the stable order; the scan's keys lie below ``n_boxes**2 <= 2**34`` and
    there are fewer than ``2**24`` of them (at most ``MAX_CANDIDATES`` plus
    512 mirror seeds), so ``keys * n + index`` stays below ``2**58``.
    """
    n = len(keys)
    order = np.argsort(keys * n + np.arange(n))
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


def _scan_grid(f: HarmonicMapping, r: float, cells: int, mirror: bool):
    """``(Z, W, h', g', rad)`` on the ``cells x 2*cells`` polar grid of
    ``|z| <= r``; ``rad`` is each point's largest image gap to a grid
    neighbour.  A ``mirror`` grid puts columns 0 and ``cells`` exactly on the
    real axis, evaluates ``f`` on columns ``0..cells`` only and takes column
    ``2*cells - j`` as the conjugate of column ``j``: exact for a
    conjugate-symmetric ``f``, and then ``rad`` is mirror-symmetric too.
    """
    n_a = 2 * cells
    rho = r * np.arange(1, cells + 1) / cells
    theta = 2.0 * np.pi * np.arange(n_a) / n_a
    Z = rho[:, None] * np.exp(1j * theta)[None, :]
    if mirror:
        Z[:, cells] = -rho
        Z[:, cells + 1:] = np.conj(Z[:, cells - 1:0:-1])
        W, hp, gp = (np.concatenate([a, np.conj(a[:, cells - 1:0:-1])], axis=1)
                     for a in f.eval_all(Z[:, : cells + 1]))
    else:
        W, hp, gp = f.eval_all(Z)
    gap_r = np.abs(np.diff(W, axis=0, prepend=W[:1], append=W[-1:]))
    gap_a = np.abs(W - np.roll(W, 1, axis=1))
    rad = np.maximum.reduce([gap_r[:-1], gap_r[1:], gap_a, np.roll(gap_a, -1, axis=1)])
    return Z, W, hp, gp, rad


def univalence_scan(f: HarmonicMapping, r: float = DEFAULT_SCAN_RADIUS,
                    cells: int = DEFAULT_CELLS,
                    collision_tol: float = DEFAULT_COLLISION_TOL,
                    separation_floor: float = DEFAULT_SEPARATION_FLOOR) -> UnivalenceReport:
    """Scan ``|z| <= r`` for injectivity failures at a given resolution.

    Samples a ``cells x 2*cells`` polar grid, gives each point a local radius
    (its largest image gap to a grid neighbour), pairs points whose images
    lie within the sum of their radii and whose preimages lie apart through a
    multi-level spatial hash (so the work follows the local distortion, not
    its worst spot), and refines the pairs by damped Gauss-Newton.  For a
    conjugate-symmetric map (``details["mirror"]``) the lower half of the grid
    is the reflection of the upper and pairs wholly in it are left to their
    mirror images; ``candidate_pairs`` and ``candidates_refined`` count the
    pairs handled.  Verdicts:

    * ``collision`` -- a refined pair with image gap <= ``collision_tol`` and
      preimage separation >= ``separation_floor`` (re-verified by direct
      evaluation, canonicalised for conjugate-symmetric mappings);
    * ``degenerate-jacobian`` -- a grid point with non-positive Jacobian;
    * ``inconclusive`` -- neither of the above, but the candidate pairs were
      truncated at ``MAX_CANDIDATES``, so not every pair was refined;
    * ``certified-at-resolution`` -- none of the above at this resolution.
    """
    check_radius(r, "scan radius")
    if cells < 64:
        raise ParameterError(f"need at least 64 cells, got {cells}")
    collision_tol = check_tolerance(collision_tol, "collision tolerance")
    if not 0.0 < separation_floor < 2.0 * r:
        raise ParameterError(f"separation floor must lie in (0, 2r), got {separation_floor}")

    mirror = is_conjugate_symmetric(f)
    n_r, n_a = cells, 2 * cells
    Z, W, hp, gp, rad = _scan_grid(f, r, cells, mirror)
    J = jacobian_of(hp, gp)

    bad = np.flatnonzero(J <= 0.0)
    degenerate_point = complex(Z.flat[bad[0]]) if bad.size else None

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
    I, Jc, levels, truncated = _candidate_pairs(w, z, rad.ravel(), box, sep_pre,
                                                mirror & (z.imag < 0.0))

    if mirror:
        # the grid is mirror-symmetric, so conjugate collision pairs appear
        # as (point, mirrored grid point); seed the best of those directly
        mirror_col = (n_a - np.arange(n_a)) % n_a
        flat = np.arange(n_r * n_a).reshape(n_r, n_a)
        upper = np.nonzero((Z.imag >= 0.5 * separation_floor).ravel())[0]
        mirrored = flat[:, mirror_col].ravel()[upper]
        best = np.argsort(np.abs(w[upper] - w[mirrored]), kind="stable")[:512]
        I = np.concatenate([I, upper[best]])
        Jc = np.concatenate([Jc, mirrored[best]])

    refinement_residual = collision = unconfirmed = None
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
        "mirror": mirror,
        "anchor": "none",
    }
    if collision is None and unconfirmed is not None:
        details["unconfirmed_candidate"] = [unconfirmed[0], unconfirmed[1]]

    if collision is not None:
        za, zb = collision
        if mirror:
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
    check_radius(r, "radius")
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
