"""Deterministic SVG rendering of harmonic-mapping image domains.

Renders the images of concentric parameter circles and radial rays under a
mapping as one ``<polyline>`` per curve, with adaptive sampling near high
distortion (cusps) and rectangle clipping to the viewport, so identical scene
specifications yield identical bytes.

Coordinates are integers on a canvas grid of ``S = CANVAS_STEPS`` steps per
side (1/100 of a pixel of the 720 px document), with ``k = S / (2 hw)``:
``px = S/2 + rint((x - cx) k)`` and ``py = S/2 - rint((y - cy) k)``, so ``y``
points down.  The inverse, within half a step ``hw / S``, is ``x = cx + (px -
S/2) / k`` and ``y = cy - (py - S/2) / k``.  ``np.rint`` rounds half to even
and is odd-symmetric, so a scene mirrored about its centre prints mirrored
integers exactly.  Strokes are 150 and 270 steps wide (1.5 px and 2.7 px).

The pipeline works on whole arrays.  A scene's curves live in flat arrays of
parameter, image and curve id; each refinement pass evaluates the whole scene
once, on all its new midpoints, and handles only the segments still too wide;
the midpoints join the scene's arrays once, after the last pass, by one sort
on (curve, parameter).  The clip sorts segments by Cohen-Sutherland out-codes:
those inside the viewport are kept whole, those far beyond one edge are
dropped, and only the rest go through the Liang-Barsky steps, all at once in
the order of a per-segment loop.  All polylines of a scene are formatted by one
``%d`` call.  Refinement stops where a segment's image cannot reach the
viewport: ``hp_bound`` bounds the speed of ``f`` on each segment, so such a
segment and every chord refining it would draw lie outside the viewport, and
the output is the same as refining everywhere.  An auto-fitted viewport comes
from the unrefined samples, which refinement then starts from.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import DomainError, ParameterError
from .mappings import HarmonicMapping, check_radius, is_conjugate_symmetric

#: emitted document is a square of this many pixels
CANVAS_PX = 720
#: the canvas grid: steps per side of the viewport, 1/100 px each
CANVAS_STEPS = 100 * CANVAS_PX
#: adaptive sampling splits segments longer than viewport-width / GAP_DENOM
GAP_DENOM = 200
#: maximum midpoint-insertion passes per scene
MAX_REFINE_PASSES = 12
#: hard cap on points per curve (safety valve for pathological distortion)
MAX_CURVE_POINTS = 40_000
#: relative slack of the viewport reach test, far above the rounding of ``f``
_REACH_SLACK = 1e-9
#: margin of the clip's up-front rejection, relative to the largest magnitude
#: of a coordinate or box edge; Liang-Barsky's ``lo - x0`` and ``x1 - x0``
#: each round by at most 2**-52 of that
_CLIP_MARGIN = 2.0**-40
#: parameter-disk radius of a scene
DEFAULT_RADIUS = 0.999
#: uniform samples of a boundary curve
BOUNDARY_SAMPLES = 1024
#: viewport half-width of a close-up scene, e.g. around a collision image point
ZOOM_HALF_WIDTH = 0.05
#: strokes of the rays and inner circles, and of the outermost circle and a
#: boundary curve; fill of the viewport
GRID_COLOR, BOUNDARY_COLOR, BACKGROUND = "#3a6ea5", "#b22222", "#ffffff"
#: their stroke widths in canvas steps: hw/240 (1.5 px), and 1.8 times that
GRID_STROKE, BOUNDARY_STROKE = 150, 270


@dataclass(frozen=True)
class SceneSpec:
    """Declarative description of one rendered scene.

    ``center``/``half_width`` of ``None`` select an automatic square
    viewport containing every sampled image point with a 5% margin.  The
    viewport maps onto the ``CANVAS_STEPS``-step canvas grid (1/100 px), so
    ``2 half_width`` and ``CANVAS_STEPS / (2 half_width)`` must be finite.
    The stroke width is ``half_width/240`` (1.5 px; 2.7 px for the boundary).
    Resolved values are embedded in the output metadata, so a fixed spec
    always produces identical bytes.
    """

    family: str
    radius: float = DEFAULT_RADIUS
    circles: int = 12
    rays: int = 24
    samples_per_curve: int = 256
    center: complex | None = None
    half_width: float | None = None

    def __post_init__(self):
        check_radius(self.radius, "scene radius")
        if self.samples_per_curve < 128:
            raise ParameterError(f"samples_per_curve must be >= 128, got {self.samples_per_curve}")
        if self.circles < 0 or self.rays < 0 or self.circles + self.rays == 0:
            raise ParameterError("scene needs at least one circle or ray")
        _check_viewport(self.center, self.half_width)


def _check_viewport(center, hw) -> None:
    """A :class:`ParameterError` unless the set parts of the viewport are a
    finite ``center`` and an ``hw > 0`` that the canvas grid can map."""
    if center is not None and not np.isfinite(center):
        raise ParameterError(f"viewport center must be finite, got {center}")
    if hw is not None and not (0.0 < hw and math.isfinite(2.0 * hw)
                               and math.isfinite(CANVAS_STEPS / (2.0 * hw))):
        raise ParameterError(f"viewport half-width must be > 0 with 2 hw and "
                             f"{CANVAS_STEPS}/(2 hw) finite, got {hw}")


# -- sampling -----------------------------------------------------------------


def _eval_points(f: HarmonicMapping, z: np.ndarray, tags, cid) -> np.ndarray:
    """``f(z)``; a DomainError names the farthest-out ``z[i]`` and its curve ``tags[cid[i]]``."""
    try:
        return np.asarray(f(z), dtype=np.complex128)
    except DomainError as exc:
        i = int(np.argmax(np.abs(z)))
        raise DomainError(f"rendering {tags[cid[i]]}: {exc} (parameter point {z[i]})") from exc


def _may_reach(wa, wb, dt, centres, hw: float, speed) -> np.ndarray:
    """Whether the arcs from ``wa`` to ``wb`` may meet a square viewport.

    An arc whose parameter span is ``dt`` and whose speed is at most
    ``speed`` lies in the lens ``disk(wa, speed dt) & disk(wb, speed dt)``.
    That lens misses the square of half-width ``hw`` about ``c`` when either
    end image lies farther than ``hw + speed dt`` from ``c`` in Chebyshev
    distance; it is convex, so every chord drawn inside the arc's span misses
    it too.  The reach carries a relative slack far above rounding.
    """
    near = np.zeros(dt.shape, dtype=bool)
    for c in centres:
        reach = (1.0 + _REACH_SLACK) * (hw + speed * dt) + _REACH_SLACK * abs(c)
        near |= ((np.abs(wa.real - c.real) <= reach) & (np.abs(wa.imag - c.imag) <= reach)
                 & (np.abs(wb.real - c.real) <= reach) & (np.abs(wb.imag - c.imag) <= reach))
    return near


@dataclass(frozen=True)
class _Samples:
    """A scene's sampled curves as flat arrays: point ``i`` has parameter
    ``t[i]``, image ``w[i]`` and curve ``cid[i]``.  Curve ``k`` (named
    ``tags[k]``) is the ray ``t -> t dirs[k]`` for ``k < dirs.size``, then the
    circle ``t -> rhos[k - dirs.size] e^(it)``.  A ``mirror`` scene samples
    only the upper rays and circle halves."""

    tags: list
    dirs: np.ndarray
    rhos: np.ndarray
    mirror: bool
    t: np.ndarray
    w: np.ndarray
    cid: np.ndarray

    def z(self, t: np.ndarray, cid: np.ndarray) -> np.ndarray:
        """The parameter points of ``(t, cid)``, sorted by curve."""
        k = np.searchsorted(cid, self.dirs.size)
        return np.concatenate([t[:k] * self.dirs[cid[:k]],
                               self.rhos[cid[k:] - self.dirs.size] * np.exp(1j * t[k:])])


def _sample_scene(f: HarmonicMapping, spec: SceneSpec) -> _Samples:
    """The scene's unrefined samples, from one call of ``f``; a mirrored
    scene (conjugate-symmetric ``f``) leaves out the lower rays and halves."""
    mirror = is_conjugate_symmetric(f)
    n0, nc = spec.samples_per_curve, spec.circles
    nr = min(spec.rays, spec.rays // 2 + 1) if mirror else spec.rays
    angles = (2.0 * math.pi * k / spec.rays for k in range(nr))
    dirs = np.array([complex(math.cos(a), math.sin(a)) for a in angles], dtype=np.complex128)
    rhos = np.array([spec.radius * j / nc for j in range(1, nc + 1)])
    tags = ([f"ray-{k}" for k in range(nr)] + [f"circle-{j}" for j in range(1, nc)]
            + ["boundary"][:nc])
    ray_t = np.linspace(0.0, spec.radius, max(n0, 129))
    theta = (np.linspace(0.0, math.pi, max(n0 // 2 + 1, 65)) if mirror
             else np.linspace(0.0, 2.0 * math.pi, max(n0, 129) + 1))
    t = np.concatenate([ray_t] * nr + [theta] * nc)
    cid = np.repeat(np.arange(nr + nc), [ray_t.size] * nr + [theta.size] * nc)
    s = _Samples(tags, dirs, rhos, mirror, t, None, cid)
    return replace(s, w=_eval_points(f, s.z(t, cid), tags, cid))


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[0], b[0], a[1], b[1], ...``"""
    out = np.empty(2 * a.size, dtype=a.dtype)
    out[0::2], out[1::2] = a, b
    return out


def _refine_scene(f: HarmonicMapping, s: _Samples, max_gap: float,
                  view: tuple[complex, float]) -> _Samples:
    """Insert parameter midpoints until image gaps fall below ``max_gap``.

    A wide segment is split while its arc may reach the viewport ``view =
    (center, hw)`` or, in a mirrored scene, its reflection (:func:`_may_reach`;
    ``hw = inf`` refines everywhere), unless its curve would pass
    ``MAX_CURVE_POINTS``.  Each pass calls ``f`` once, on all new midpoints,
    and tests only the new halves: a segment left whole keeps its gap, reach
    and curve size (a curve not split gets no new segments), so stays whole.

    The passes touch only the wide segments, carried with their end values
    in curve order, and a running point count per curve.  The midpoints join
    the scene once, after the last pass, by one sort on (curve, parameter):
    each curve's parameters rise, and a midpoint lies between its segment's
    ends.  Points with equal (curve, parameter) have the same image, so ties
    leave the scene unchanged."""
    t, w, cid, nr = s.t, s.w, s.cid, s.dirs.size
    c, hw = view
    centres = {c, c.conjugate()} if s.mirror else {c}
    size = np.bincount(cid, minlength=len(s.tags))
    # the wide segments: end parameters, end images and curve, by curve
    seg = np.flatnonzero((cid[1:] == cid[:-1]) & (np.abs(w[1:] - w[:-1]) > max_gap))
    wide = t[seg], t[seg + 1], w[seg], w[seg + 1], cid[seg]
    points = [(t, w, cid)]  # the scene, then each pass's midpoints

    # |df/dt| <= |z'| hp_bound(r) (1 + |zeta| r^n), r the largest |z| on the
    # segment: a ray segment's outer end, or the circle's radius, so each
    # circle's bound is taken once
    def speed_bound(r, dz):
        return dz * f.kernel.hp_bound(r) * (1.0 + abs(f.zeta) * r**f.n)

    circle_speed = speed_bound(s.rhos, s.rhos)
    for _ in range(MAX_REFINE_PASSES):
        ta, tb, wa, wb, k = wide
        j = np.searchsorted(k, nr)
        speed = np.concatenate([speed_bound(tb[:j], 1.0), circle_speed[k[j:] - nr]])
        split = _may_reach(wa, wb, tb - ta, centres, hw, speed)
        grow = np.bincount(k[split], minlength=size.size)
        fits = size + grow <= MAX_CURVE_POINTS
        split &= fits[k]
        if not split.any():
            break
        size[fits] += grow[fits]
        ta, tb, wa, wb, k = (a[split] for a in wide)
        tm = 0.5 * (ta + tb)
        wm = _eval_points(f, s.z(tm, k), s.tags, k)
        points.append((tm, wm, k))
        halves = [_interleave(*h) for h in ((ta, tm), (tm, tb), (wa, wm), (wm, wb), (k, k))]
        gap = np.abs(halves[3] - halves[2]) > max_gap
        wide = [h[gap] for h in halves]
    t, w, cid = (np.concatenate(a) for a in zip(*points))
    order = np.lexsort((t, cid))
    return replace(s, t=t[order], w=w[order], cid=cid[order])


@dataclass(frozen=True)
class _Curve:
    tag: str
    color: str
    stroke: int  # stroke width in canvas steps
    points: np.ndarray  # complex image points


def _scene_curves(spec: SceneSpec, s: _Samples) -> list[_Curve]:
    """The images of the scene's rays and circles, in drawing order.  In a
    mirrored scene a lower ray reflects its upper twin, and a circle goes on
    with the reflected images of its upper half, from its second-last point
    back to its second: ``f(conj z) == conj(f(z))`` bit for bit, so the point
    set is exactly invariant under ``y -> -y``.  Every circle closes on the
    image of ``theta = 0`` itself."""
    nr = s.dirs.size
    ends = np.searchsorted(s.cid, np.arange(len(s.tags)), side="right")
    ws = np.split(s.w, ends[:-1])
    rays = ws[:nr] + [np.conjugate(ws[spec.rays - k]) for k in range(nr, spec.rays)]
    curves = [_Curve(f"ray-{k}", GRID_COLOR, GRID_STROKE, w) for k, w in enumerate(rays)]
    for j, w in enumerate(ws[nr:]):
        w = np.concatenate([w, np.conjugate(w[-2:0:-1]), w[:1]] if s.mirror
                           else [w[:-1], w[:1]])
        edge = j == spec.circles - 1
        curves.append(_Curve(s.tags[nr + j], BOUNDARY_COLOR if edge else GRID_COLOR,
                             BOUNDARY_STROKE if edge else GRID_STROKE, w))
    return curves


# -- viewport and clipping ----------------------------------------------------


def _resolve_viewport(spec: SceneSpec, curves) -> tuple[complex, float]:
    """The spec's viewport, fitted to the points of ``curves`` where unset;
    a fit that overflows is rejected as the spec's own would be."""
    if spec.center is not None and spec.half_width is not None:
        return complex(spec.center), float(spec.half_width)
    allpts = np.concatenate([c.points for c in curves])
    xs, ys = allpts.real, allpts.imag
    with np.errstate(over="ignore"):
        cx = 0.5 * (xs.min() + xs.max())
        cy = 0.5 * (ys.min() + ys.max())
        hw = 0.5 * max(xs.max() - xs.min(), ys.max() - ys.min()) * 1.05
    hw = max(hw, 1e-9)
    center = complex(cx, cy) if spec.center is None else complex(spec.center)
    half = hw if spec.half_width is None else float(spec.half_width)
    _check_viewport(center, half)
    return center, half


def _liang_barsky(x0, y0, x1, y1, box):
    """Liang-Barsky clipping of the segments ``(x0, y0) -> (x1, y1)`` to
    ``box = (lox, hix, loy, hiy)``, all at once: ``(out, ax, ay, bx, by,
    whole)``, the rejected segments, then the clipped end points and whether
    each piece runs to its segment's end.  The four ``(p, q)`` steps run in
    order with strict updates of the parametric span ``[t0, t1]``, and end
    point floats are reused verbatim at ``t0 == 0``/``t1 == 1``."""
    lox, hix, loy, hiy = box
    dx, dy = x1 - x0, y1 - y0
    t0, t1 = np.zeros_like(dx), np.ones_like(dx)
    out = np.zeros(dx.shape, dtype=bool)
    steps = ((-dx, x0 - lox), (dx, hix - x0), (-dy, y0 - loy), (dy, hiy - y0))
    # where q / p divides by zero or overflows, the step is skipped or the
    # segment rejected, so nothing computed from it is emitted
    with np.errstate(all="ignore"):
        for p, q in steps:
            flat, enter = p == 0.0, p < 0.0
            leave = ~flat & ~enter
            t = q / p
            out |= (flat & (q < 0.0)) | (enter & (t > t1)) | (leave & (t < t0))
            t0 = np.where(enter & (t > t0), t, t0)
            t1 = np.where(leave & (t < t1), t, t1)
        return (out, np.where(t0 == 0.0, x0, x0 + t0 * dx), np.where(t0 == 0.0, y0, y0 + t0 * dy),
                np.where(t1 == 1.0, x1, x0 + t1 * dx), np.where(t1 == 1.0, y1, y0 + t1 * dy),
                t1 == 1.0)


def _clip_polyline(points: np.ndarray, center: complex, hw: float, cut: np.ndarray):
    """Split a polyline into maximal runs inside the square viewport.

    Cohen-Sutherland out-codes sort the segments first, so that the work
    follows what can reach the viewport.  A segment with both end points in
    the closed box is kept whole, as Liang-Barsky would keep it.  A segment
    with both end points beyond the same edge by more than a margin is
    dropped: the margin, ``_CLIP_MARGIN`` times the largest magnitude of a
    coordinate or box edge, is far above the rounding of ``lo - x0`` and
    ``x1 - x0``, so that edge's step would certainly find ``t < 0`` or ``t >
    1``.  A margin fixed in absolute terms would not do: far from the box,
    ``lo - x0`` rounds by more than any such margin.  Every other segment,
    say one with an end point 1 ulp beyond an edge, whose exit ``t`` may
    round to 1 and keep a zero-length piece, goes through the exact steps of
    :func:`_liang_barsky`.  Adjacent kept segments chain into one run.  The
    segments indexed by ``cut`` are dropped wherever they lie (the joins of
    curves clipped together).  The runs come flat, as ``(first, at, xs,
    ys)``: run ``i`` starts with segment ``first[i]`` and its points are
    ``xs[at[i]:at[i + 1]]``, ``ys[at[i]:at[i + 1]]`` (the last up to the end).
    """
    if points.size < 2:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros(0), np.zeros(0)
    xs, ys = points.real.copy(), points.imag.copy()  # contiguous: faster to scan
    lox, hix, loy, hiy = center.real - hw, center.real + hw, center.imag - hw, center.imag + hw
    # a NaN scale, or one near underflow or overflow, rejects nothing up front
    scale = float(np.max([xs.max(), -xs.min(), ys.max(), -ys.min(),
                          abs(lox), abs(hix), abs(loy), abs(hiy)]))
    m = _CLIP_MARGIN * scale if 2.0**-900 < scale < 2.0**1000 else math.inf
    inside = (xs >= lox) & (xs <= hix) & (ys >= loy) & (ys <= hiy)
    keep = inside[:-1] & inside[1:]
    rest = ~keep
    # the out-codes, one bit (a boolean per point) for each edge: beyond it
    # by more than the margin
    for beyond in (xs < lox - m, xs > hix + m, ys < loy - m, ys > hiy + m):
        rest &= ~(beyond[:-1] & beyond[1:])
    keep[cut] = rest[cut] = False
    seg = np.flatnonzero(rest)
    if seg.size:
        out, *ends = _liang_barsky(xs[seg], ys[seg], xs[seg + 1], ys[seg + 1],
                                   (lox, hix, loy, hiy))
        seg, ends = seg[~out], [e[~out] for e in ends]
        keep[seg] = True
    kept = np.flatnonzero(keep)
    # whole segments reuse their end points; the clipped ones are patched in
    ax, ay, bx, by = xs[kept], ys[kept], xs[kept + 1], ys[kept + 1]
    whole = np.ones(kept.size, dtype=bool)
    if seg.size:
        at = np.searchsorted(kept, seg)
        ax[at], ay[at], bx[at], by[at], whole[at] = ends
    # a kept segment continues the previous run when that one is the segment
    # before it, ran to its end point, and ended exactly where this one starts
    starts = np.ones(kept.size, dtype=bool)
    starts[1:] = ~((kept[1:] - kept[:-1] == 1) & whole[:-1] & (bx[:-1] == ax[1:])
                   & (by[:-1] == ay[1:]))
    # each run is the start point of its first segment, then every end point
    slot = np.arange(kept.size) + np.cumsum(starts)
    at = slot[starts] - 1
    rx, ry = np.empty((2, kept.size + at.size))
    rx[slot], ry[slot] = bx, by
    rx[at], ry[at] = ax[starts], ay[starts]
    return kept[starts], at, rx, ry


# -- document assembly --------------------------------------------------------


def _canvas(xs: np.ndarray, ys: np.ndarray, center: complex, hw: float):
    """The canvas integers ``(px, py)`` of the image points ``xs + i ys``:
    ``S/2 + rint((x - cx) k)`` and ``S/2 - rint((y - cy) k)``, ``S =
    CANVAS_STEPS`` and ``k = S / (2 hw)``."""
    k = CANVAS_STEPS / (2.0 * hw)
    half = CANVAS_STEPS // 2
    return (half + np.rint((xs - center.real) * k).astype(np.int64),
            half - np.rint((ys - center.imag) * k).astype(np.int64))


def _assemble(spec: SceneSpec, curves: list[_Curve], center: complex, hw: float) -> str:
    meta = json.dumps({**asdict(spec), "center": [center.real, center.imag], "half_width": hw,
                       "stroke_width": hw / 240.0, "grid_color": GRID_COLOR,
                       "boundary_color": BOUNDARY_COLOR, "background": BACKGROUND},
                      sort_keys=True, separators=(", ", ": "))
    side = CANVAS_STEPS
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{CANVAS_PX}" height="{CANVAS_PX}" viewBox="0 0 {side} {side}">',
        f"<!-- scene: {meta} -->",
        f'<rect x="0" y="0" width="{side}" height="{side}" fill="{BACKGROUND}"/>',
        '<g fill="none" stroke-linecap="round" stroke-linejoin="round">',
    ]
    # one clip for the whole scene; each run is drawn with its curve's style
    ends = np.cumsum([c.points.size for c in curves])
    first, at, xs, ys = _clip_polyline(np.concatenate([c.points for c in curves]),
                                       center, hw, ends[:-1] - 1)
    if first.size:
        owner = np.searchsorted(ends, first, side="right")
        heads = [f'<polyline class="{c.tag}" stroke="{c.color}" '
                 f'stroke-width="{c.stroke}" points="' for c in curves]
        # every run's points go through one %d call
        px, py = _canvas(xs, ys, center, hw)
        template = "\n".join(heads[k] + ("%d,%d " * n)[:-1] + '"/>' for k, n in
                             zip(owner.tolist(), np.diff(at, append=xs.size).tolist()))
        lines.append(template % tuple(_interleave(px, py).tolist()))
    lines += ["</g>", "</svg>"]
    return "\n".join(lines) + "\n"


def render_image_domain(spec: SceneSpec, f: HarmonicMapping) -> str:
    """SVG of the image of ``|z| <= radius`` under ``f`` via parameter curves.

    Draws the images of ``circles`` concentric circles (the outermost stroked
    distinctly as the near-boundary curve) and ``rays`` radial segments,
    adaptively refined until consecutive points are closer than 1/200 of the
    viewport width wherever their image can reach the viewport, clipped to
    the viewport.  An automatic viewport is fitted to the unrefined samples,
    which refinement then starts from.
    """
    fixed = spec.center is not None and spec.half_width is not None
    s = _sample_scene(f, spec)
    center, hw = _resolve_viewport(spec, None if fixed else _scene_curves(spec, s))
    s = _refine_scene(f, s, 2.0 * hw / GAP_DENOM, (center, hw))
    return _assemble(spec, _scene_curves(spec, s), center, hw)


def render_boundary_curve(f: HarmonicMapping, r: float, M: int = BOUNDARY_SAMPLES,
                          viewport: tuple[complex, float] | None = None) -> str:
    """SVG of the closed curve ``theta -> f(r e^(i theta))`` alone.

    Uniform sampling with ``M`` steps (at least 256); with the default
    auto-fitted viewport the output is a single closed polyline.
    """
    check_radius(r, "radius")
    if M < 256:
        raise ParameterError(f"boundary sampling needs M >= 256, got {M}")
    theta = np.linspace(0.0, 2.0 * math.pi, int(M) + 1)
    z = r * np.exp(1j * theta)
    z[-1] = z[0]
    pts = _eval_points(f, z, ["boundary"], np.zeros(z.size, dtype=int))
    curve = _Curve("boundary", BOUNDARY_COLOR, BOUNDARY_STROKE, pts)
    spec = SceneSpec(family=f.label, radius=r, circles=1, rays=0,
                     samples_per_curve=int(M),
                     center=None if viewport is None else complex(viewport[0]),
                     half_width=None if viewport is None else float(viewport[1]))
    center, hw = _resolve_viewport(spec, [curve])
    return _assemble(spec, [curve], center, hw)
