"""Deterministic SVG rendering of harmonic-mapping image domains.

Renders the images of concentric parameter circles and radial rays under a
mapping as one ``<polyline>`` per curve, with adaptive sampling near high
distortion (cusps), rectangle clipping to the viewport, and stable 9
significant-digit coordinate formatting so identical scene specifications
yield identical bytes.

The pipeline works on whole arrays.  A scene's curves live in flat arrays of
parameter, image and curve id; each refinement pass evaluates the whole scene
once, on all its new midpoints.  The Liang-Barsky clip tests every segment at
once in the order of a per-segment loop, and each polyline is formatted by
one ``%`` call.  Refinement stops where a segment's image cannot reach the
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
from .mappings import HarmonicMapping, is_conjugate_symmetric

#: emitted document is a square of this many pixels
CANVAS_PX = 720
#: adaptive sampling splits segments longer than viewport-width / GAP_DENOM
GAP_DENOM = 200
#: maximum midpoint-insertion passes per scene
MAX_REFINE_PASSES = 12
#: hard cap on points per curve (safety valve for pathological distortion)
MAX_CURVE_POINTS = 40_000
#: relative slack of the viewport reach test, far above the rounding of ``f``
_REACH_SLACK = 1e-9


@dataclass(frozen=True)
class SceneSpec:
    """Declarative description of one rendered scene.

    ``center``/``half_width`` of ``None`` select an automatic square
    viewport containing every sampled image point with a 5% margin.
    Resolved values are embedded in the output metadata, so a fixed spec
    always produces identical bytes.
    """

    family: str
    radius: float = 0.999
    circles: int = 12
    rays: int = 24
    samples_per_curve: int = 256
    center: complex | None = None
    half_width: float | None = None
    stroke_width: float | None = None
    grid_color: str = "#3a6ea5"
    boundary_color: str = "#b22222"
    background: str = "#ffffff"

    def __post_init__(self):
        if not 0.0 < self.radius < 1.0:
            raise ParameterError(f"scene radius must lie in (0, 1), got {self.radius}")
        if self.samples_per_curve < 128:
            raise ParameterError(f"samples_per_curve must be >= 128, got {self.samples_per_curve}")
        if self.circles < 0 or self.rays < 0 or self.circles + self.rays == 0:
            raise ParameterError("scene needs at least one circle or ray")
        if self.half_width is not None and not self.half_width > 0.0:
            raise ParameterError(f"viewport half-width must be > 0, got {self.half_width}")
        if self.stroke_width is not None and not self.stroke_width > 0.0:
            raise ParameterError(f"stroke width must be > 0, got {self.stroke_width}")

    def to_metadata(self, center: complex, half_width: float, stroke_width: float) -> dict:
        """Every field, with the viewport and stroke width resolved."""
        return {**asdict(self), "center": [center.real, center.imag],
                "half_width": half_width, "stroke_width": stroke_width}


def overview_scene(family: str, radius: float = 0.999) -> SceneSpec:
    """Whole-image scene: 12 circles, 24 rays, auto-fit viewport."""
    return SceneSpec(family=family, radius=radius, circles=12, rays=24)


def zoom_scene(family: str, center: complex, half_width: float = 0.05,
               radius: float = 0.999) -> SceneSpec:
    """Close-up scene around ``center`` (e.g. a collision image point)."""
    return SceneSpec(family=family, radius=radius, circles=12, rays=24,
                     center=center, half_width=half_width)


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


def _refine_scene(f: HarmonicMapping, s: _Samples, max_gap: float,
                  view: tuple[complex, float]) -> _Samples:
    """Insert parameter midpoints until image gaps fall below ``max_gap``.

    A wide segment is split while its arc may reach the viewport ``view =
    (center, hw)`` or, in a mirrored scene, its reflection (:func:`_may_reach`;
    ``hw = inf`` refines everywhere), unless its curve would pass
    ``MAX_CURVE_POINTS``.  Each pass calls ``f`` once, on all new midpoints,
    and tests only the new halves: a segment left whole keeps its gap, reach
    and curve size (a curve not split gets no new segments), so stays whole."""
    t, w, cid, nr = s.t, s.w, s.cid, s.dirs.size
    c, hw = view
    centres = {c, c.conjugate()} if s.mirror else {c}
    fresh = np.nonzero(cid[1:] == cid[:-1])[0]
    for _ in range(MAX_REFINE_PASSES):
        seg = fresh[np.abs(w[fresh + 1] - w[fresh]) > max_gap]
        # |df/dt| <= |z'| hp_bound(r) (1 + |zeta| r^n), r the largest |z| on
        # the segment: a ray segment's outer end, or the circle's radius
        k = np.searchsorted(cid[seg], nr)
        r = np.concatenate([t[seg[:k] + 1], s.rhos[cid[seg[k:]] - nr]])
        speed = np.where(np.arange(r.size) < k, 1.0, r) * f.kernel.hp_bound(r)
        speed *= 1.0 + abs(f.zeta) * r**f.n
        seg = seg[_may_reach(w[seg], w[seg + 1], t[seg + 1] - t[seg], centres, hw, speed)]
        grow = np.bincount(cid[seg], minlength=len(s.tags))
        seg = seg[(np.bincount(cid, minlength=grow.size) + grow <= MAX_CURVE_POINTS)[cid[seg]]]
        if seg.size == 0:
            break
        mid, mcid = 0.5 * (t[seg] + t[seg + 1]), cid[seg]
        t = np.insert(t, seg + 1, mid)
        w = np.insert(w, seg + 1, _eval_points(f, s.z(mid, mcid), s.tags, mcid))
        cid = np.insert(cid, seg + 1, mcid)
        # the halves of the j-th split segment start at seg[j] + j and one after
        fresh = ((seg + np.arange(seg.size))[:, None] + [0, 1]).ravel()
    return replace(s, t=t, w=w, cid=cid)


@dataclass(frozen=True)
class _Curve:
    tag: str
    color: str
    width_scale: float  # multiplies the resolved stroke width
    points: np.ndarray  # complex image points


def _scene_curves(f: HarmonicMapping, spec: SceneSpec, s: _Samples) -> list[_Curve]:
    """The images of the scene's rays and circles, in drawing order.  In a
    mirrored scene a lower ray reflects its upper twin, and a circle goes on
    with the images of its upper half's reflected points (one call of ``f``
    for all circles): the point set is exactly invariant under ``y -> -y``.
    Every circle closes on the image of ``theta = 0`` itself."""
    nr = s.dirs.size
    ends = np.searchsorted(s.cid, np.arange(len(s.tags)), side="right")
    ws = np.split(s.w, ends[:-1])
    if s.mirror and spec.circles:
        # each upper half from its second-last point back to its second
        back = np.concatenate([np.arange(b - 2, b - w.size, -1)
                               for b, w in zip(ends[nr:], ws[nr:])])
        lower = _eval_points(f, np.conjugate(s.z(s.t[back], s.cid[back])), s.tags, s.cid[back])
        lower = np.split(lower, np.cumsum([w.size - 2 for w in ws[nr:]]))
    rays = ws[:nr] + [np.conjugate(ws[spec.rays - k]) for k in range(nr, spec.rays)]
    curves = [_Curve(f"ray-{k}", spec.grid_color, 1.0, w) for k, w in enumerate(rays)]
    for j, w in enumerate(ws[nr:]):
        w = np.concatenate([w, lower[j], w[:1]] if s.mirror else [w[:-1], w[:1]])
        edge = j == spec.circles - 1
        curves.append(_Curve(s.tags[nr + j], spec.boundary_color if edge else spec.grid_color,
                             1.8 if edge else 1.0, w))
    return curves


# -- viewport and clipping ----------------------------------------------------


def _resolve_viewport(spec: SceneSpec, curves) -> tuple[complex, float]:
    """The spec's viewport, fitted to the points of ``curves`` where unset."""
    if spec.center is not None and spec.half_width is not None:
        return complex(spec.center), float(spec.half_width)
    allpts = np.concatenate([c.points for c in curves])
    xs, ys = allpts.real, allpts.imag
    cx = 0.5 * (xs.min() + xs.max())
    cy = 0.5 * (ys.min() + ys.max())
    hw = 0.5 * max(xs.max() - xs.min(), ys.max() - ys.min()) * 1.05
    hw = max(hw, 1e-9)
    center = complex(cx, cy) if spec.center is None else complex(spec.center)
    half = hw if spec.half_width is None else float(spec.half_width)
    return center, half


def _clip_polyline(points: np.ndarray, center: complex, hw: float,
                   cut=None) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Split a polyline into maximal runs inside the square viewport.

    Liang-Barsky clipping of every segment at once: the four ``(p, q)`` steps
    run in order with strict updates of the parametric span ``[t0, t1]``, and
    endpoint floats are reused verbatim at ``t0 == 0``/``t1 == 1`` so that
    adjacent segments chain into one run.  The segments indexed by ``cut``
    are dropped wherever they lie (the joins of curves clipped together).
    Each run is ``(first, xs, ys)``, ``first`` the index of its first segment.
    """
    xs, ys = points.real, points.imag
    x0, y0, x1, y1 = xs[:-1], ys[:-1], xs[1:], ys[1:]
    dx, dy = x1 - x0, y1 - y0
    t0, t1 = np.zeros_like(dx), np.ones_like(dx)
    out = np.zeros(dx.shape, dtype=bool)
    steps = ((-dx, x0 - (center.real - hw)), (dx, (center.real + hw) - x0),
             (-dy, y0 - (center.imag - hw)), (dy, (center.imag + hw) - y0))
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
        if cut is not None:
            out[cut] = True
        ax = np.where(t0 == 0.0, x0, x0 + t0 * dx)
        ay = np.where(t0 == 0.0, y0, y0 + t0 * dy)
        bx = np.where(t1 == 1.0, x1, x0 + t1 * dx)
        by = np.where(t1 == 1.0, y1, y0 + t1 * dy)
    # a kept segment continues the previous run when that one was kept, ran
    # to its end point, and ended exactly where this one starts
    joins = np.zeros_like(out)
    joins[1:] = (~out[:-1] & (t1[:-1] == 1.0) & (bx[:-1] == ax[1:])
                 & (by[:-1] == ay[1:]))
    kept = np.nonzero(~out)[0]
    starts = ~joins[kept]
    # each run is the start point of its first segment, then every end point
    slot = np.arange(kept.size) + np.cumsum(starts)
    first = slot[starts] - 1
    rx, ry = np.empty((2, kept.size + first.size))
    rx[slot], ry[slot] = bx[kept], by[kept]
    rx[first], ry[first] = ax[kept[starts]], ay[kept[starts]]
    bounds = first.tolist() + [rx.size]
    return [(s, rx[a:b], ry[a:b])
            for s, a, b in zip(kept[starts].tolist(), bounds, bounds[1:])]


# -- document assembly --------------------------------------------------------


# both formatters add 0.0, which turns -0.0 into 0.0 so that it prints as "0"
def _fmt(x: float) -> str:
    return format(float(x) + 0.0, ".9g")


def _points_attr(xs: np.ndarray, ys: np.ndarray) -> str:
    """``"x,y x,y ..."`` from one ``%`` call over the interleaved coordinates."""
    xy = np.column_stack([xs, ys]).ravel() + 0.0
    return ("%.9g,%.9g " * xs.size)[:-1] % tuple(xy.tolist())


def _assemble(spec: SceneSpec, curves: list[_Curve], center: complex, hw: float) -> str:
    stroke = spec.stroke_width if spec.stroke_width is not None else hw / 240.0
    meta = json.dumps(spec.to_metadata(center, hw, stroke), sort_keys=True,
                      separators=(", ", ": "))
    vb = (f"{_fmt(center.real - hw)} {_fmt(-(center.imag + hw))} "
          f"{_fmt(2 * hw)} {_fmt(2 * hw)}")
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{CANVAS_PX}" height="{CANVAS_PX}" viewBox="{vb}">',
        f"<!-- scene: {meta} -->",
        f'<rect x="{_fmt(center.real - hw)}" y="{_fmt(-(center.imag + hw))}" '
        f'width="{_fmt(2 * hw)}" height="{_fmt(2 * hw)}" '
        f'fill="{spec.background}"/>',
        '<g transform="scale(1,-1)" fill="none" stroke-linecap="round" '
        'stroke-linejoin="round">',
    ]
    # one clip for the whole scene; each run is drawn with its curve's style
    ends = np.cumsum([c.points.size for c in curves])
    runs = _clip_polyline(np.concatenate([c.points for c in curves]), center, hw,
                          cut=ends[:-1] - 1)
    owner = np.searchsorted(ends, [s for s, _, _ in runs], side="right")
    heads = [f'<polyline class="{c.tag}" stroke="{c.color}" '
             f'stroke-width="{_fmt(stroke * c.width_scale)}" points="' for c in curves]
    lines += [heads[k] + _points_attr(xs, ys) + '"/>'
              for k, (_, xs, ys) in zip(owner.tolist(), runs)]
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
    center, hw = _resolve_viewport(spec, None if fixed else _scene_curves(f, spec, s))
    s = _refine_scene(f, s, 2.0 * hw / GAP_DENOM, (center, hw))
    return _assemble(spec, _scene_curves(f, spec, s), center, hw)


def render_boundary_curve(f: HarmonicMapping, r: float, M: int = 1024,
                          viewport: tuple[complex, float] | None = None) -> str:
    """SVG of the closed curve ``theta -> f(r e^(i theta))`` alone.

    Uniform sampling with ``M`` steps (at least 256); with the default
    auto-fitted viewport the output is a single closed polyline.
    """
    if not 0.0 < r < 1.0:
        raise ParameterError(f"radius must lie in (0, 1), got {r}")
    if M < 256:
        raise ParameterError(f"boundary sampling needs M >= 256, got {M}")
    theta = np.linspace(0.0, 2.0 * math.pi, int(M) + 1)
    z = r * np.exp(1j * theta)
    z[-1] = z[0]
    pts = _eval_points(f, z, ["boundary"], np.zeros(z.size, dtype=int))
    curve = _Curve("boundary", "#b22222", 1.8, pts)
    spec = SceneSpec(family=f.label, radius=r, circles=1, rays=0,
                     samples_per_curve=max(int(M), 128),
                     center=None if viewport is None else complex(viewport[0]),
                     half_width=None if viewport is None else float(viewport[1]))
    center, hw = _resolve_viewport(spec, [curve])
    return _assemble(spec, [curve], center, hw)
