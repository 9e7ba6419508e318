"""Deterministic SVG emission: byte stability, geometry, and symmetry."""

import json
import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import harmap.render as render
from harmap.errors import ParameterError
from harmap.mappings import (
    family_from_spec,
    make_bshouty_lyzzaik,
    make_counterexample,
    make_identity,
)
from harmap.render import (
    MAX_CURVE_POINTS,
    SceneSpec,
    overview_scene,
    render_boundary_curve,
    render_image_domain,
    zoom_scene,
)
from harmap.univalence import CollisionSearchParams, find_symmetric_collision

SCENE_RE = re.compile(r"<!-- scene: (.*?) -->")
POINTS_RE = re.compile(r'points="([^"]*)"')


def scene_meta(svg):
    m = SCENE_RE.search(svg)
    assert m, "missing scene metadata comment"
    return json.loads(m.group(1))


def all_points(svg):
    pts = []
    for chunk in POINTS_RE.findall(svg):
        for pair in chunk.split():
            x, y = pair.split(",")
            pts.append(complex(float(x), float(y)))
    return np.array(pts, dtype=np.complex128)


def test_byte_determinism():
    f = make_counterexample(1.25)
    spec = overview_scene(f.label)
    a = render_image_domain(spec, f)
    b = render_image_domain(spec, f)
    assert a == b
    assert a.encode("utf-8") == b.encode("utf-8")


def test_well_formed_xml_and_canvas():
    f = make_identity()
    svg = render_image_domain(overview_scene("identity", radius=0.9), f)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert root.get("width") == "720"
    assert root.get("height") == "720"
    assert len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) > 10


def test_viewbox_matches_metadata():
    f = make_identity()
    svg = render_image_domain(overview_scene("identity", radius=0.9), f)
    meta = scene_meta(svg)
    cx, cy = meta["center"]
    hw = meta["half_width"]
    root = ET.fromstring(svg)
    vb = [float(v) for v in root.get("viewBox").split()]
    assert vb[0] == pytest.approx(cx - hw, abs=1e-9)
    assert vb[1] == pytest.approx(-(cy + hw), abs=1e-9)
    assert vb[2] == pytest.approx(2 * hw, abs=1e-9)
    assert vb[3] == pytest.approx(2 * hw, abs=1e-9)


def test_auto_viewport_fits_identity_disk():
    f = make_identity()
    svg = render_image_domain(overview_scene("identity", radius=0.9), f)
    meta = scene_meta(svg)
    # auto viewport: 5% margin around the unit-scaled image of |z| <= 0.9
    assert meta["half_width"] == pytest.approx(0.9 * 1.05, rel=0.02)
    assert meta["center"][0] == pytest.approx(0.0, abs=0.02)


def test_all_points_inside_viewport():
    f = make_bshouty_lyzzaik(0.4)
    svg = render_image_domain(overview_scene(f.label), f)
    meta = scene_meta(svg)
    cx, cy = meta["center"]
    hw = meta["half_width"]
    pts = all_points(svg)
    assert len(pts) > 1000
    assert np.max(np.abs(pts.real - cx)) <= hw + 1e-9
    assert np.max(np.abs(pts.imag - cy)) <= hw + 1e-9


def test_explicit_viewport_clips_points():
    f = make_counterexample(1.25)
    spec = zoom_scene(f.label, center=1.0 + 0.0j, half_width=0.08)
    svg = render_image_domain(spec, f)
    meta = scene_meta(svg)
    assert meta["center"] == [1.0, 0.0]
    assert meta["half_width"] == pytest.approx(0.08)
    pts = all_points(svg)
    assert len(pts) > 100
    assert np.max(np.abs(pts.real - 1.0)) <= 0.08 + 1e-9
    assert np.max(np.abs(pts.imag)) <= 0.08 + 1e-9


def test_mirror_symmetry_of_point_set():
    f = make_counterexample(1.25)
    svg = render_image_domain(overview_scene(f.label, radius=0.995), f)
    pts = all_points(svg)
    mirrored = np.conj(pts)
    order_a = np.lexsort((pts.imag, pts.real))
    order_b = np.lexsort((mirrored.imag, mirrored.real))
    gap = np.max(np.abs(pts[order_a] - mirrored[order_b]))
    assert gap < 1e-9, f"mirror asymmetry {gap}"


def test_boundary_curve_closed_polyline():
    f = make_counterexample(1.25)
    svg = render_boundary_curve(f, 0.999, M=512)
    chunks = POINTS_RE.findall(svg)
    assert len(chunks) == 1  # auto viewport: one unclipped closed run
    pairs = chunks[0].split()
    assert pairs[0] == pairs[-1]
    assert len(pairs) == 513


def test_boundary_curve_validation():
    f = make_identity()
    with pytest.raises(ParameterError):
        render_boundary_curve(f, 1.2)
    with pytest.raises(ParameterError):
        render_boundary_curve(f, 0.9, M=100)


def test_scene_spec_validation_messages():
    with pytest.raises(ParameterError, match="samples_per_curve must be >= 128, got 100"):
        SceneSpec(family="identity", samples_per_curve=100)
    with pytest.raises(ParameterError):
        SceneSpec(family="identity", radius=1.0)
    with pytest.raises(ParameterError):
        SceneSpec(family="identity", circles=0, rays=0)
    with pytest.raises(ParameterError):
        SceneSpec(family="identity", half_width=-0.5)
    with pytest.raises(ParameterError):
        SceneSpec(family="identity", stroke_width=0.0)


def test_scene_metadata_round_trip():
    spec = zoom_scene("identity", center=0.25 + 0.1j, half_width=0.2)
    svg = render_image_domain(spec, make_identity())
    meta = scene_meta(svg)
    assert meta["family"] == "identity"
    assert meta["radius"] == spec.radius
    assert meta["circles"] == spec.circles
    assert meta["rays"] == spec.rays
    assert meta["stroke_width"] > 0
    assert meta["grid_color"].startswith("#")


def test_curve_classes_present():
    svg = render_image_domain(overview_scene("identity", radius=0.9), make_identity())
    assert 'class="boundary"' in svg
    classes = set(re.findall(r'class="([^"]+)"', svg))
    assert {"circle-1", "ray-0", "ray-23"} <= classes


def test_adaptive_refinement_limits_gaps():
    # near the cusp point of the branched family, plain sampling leaves huge
    # jumps; refinement must bound consecutive gaps by 1% of the viewport
    f = make_counterexample(1.25)
    svg = render_image_domain(overview_scene(f.label), f)
    meta = scene_meta(svg)
    hw = meta["half_width"]
    worst = 0.0
    for chunk in POINTS_RE.findall(svg):
        pts = np.array([complex(*map(float, p.split(","))) for p in chunk.split()])
        if len(pts) > 1:
            worst = max(worst, float(np.max(np.abs(np.diff(pts)))))
    assert worst <= 2.0 * (2 * hw) / 200.0 + 1e-12


# -- clipping against the per-segment reference --------------------------------


def _clip_segment(x0, y0, x1, y1, lox, hix, loy, hiy):
    """Liang-Barsky: parametric span of the segment inside the box, or None."""
    dx, dy = x1 - x0, y1 - y0
    t0, t1 = 0.0, 1.0
    for p, q in ((-dx, x0 - lox), (dx, hix - x0), (-dy, y0 - loy), (dy, hiy - y0)):
        if p == 0.0:
            if q < 0.0:
                return None
            continue
        t = q / p
        if p < 0.0:
            if t > t1:
                return None
            if t > t0:
                t0 = t
        else:
            if t < t0:
                return None
            if t < t1:
                t1 = t
    return t0, t1


def _clip_polyline_reference(points, center, hw):
    """One segment at a time: the clipping the vectorised version must match."""
    lox, hix = center.real - hw, center.real + hw
    loy, hiy = center.imag - hw, center.imag + hw
    runs, run = [], []
    xs, ys = points.real, points.imag
    for i in range(len(points) - 1):
        got = _clip_segment(xs[i], ys[i], xs[i + 1], ys[i + 1], lox, hix, loy, hiy)
        if got is None:
            if len(run) >= 2:
                runs.append(run)
            run = []
            continue
        t0, t1 = got
        dx, dy = xs[i + 1] - xs[i], ys[i + 1] - ys[i]
        a = (xs[i], ys[i]) if t0 == 0.0 else (xs[i] + t0 * dx, ys[i] + t0 * dy)
        b = (xs[i + 1], ys[i + 1]) if t1 == 1.0 else (xs[i] + t1 * dx, ys[i] + t1 * dy)
        if not run or run[-1] != a:
            if len(run) >= 2:
                runs.append(run)
            run = [a]
        run.append(b)
        if t1 < 1.0:
            if len(run) >= 2:
                runs.append(run)
            run = []
    if len(run) >= 2:
        runs.append(run)
    return runs


@st.composite
def clip_cases(draw):
    """A box and a polyline whose coordinates mix random floats and box edges.

    Drawing each coordinate from a small pool makes axis-parallel segments,
    repeated points, corner hits and segments wholly outside the box common.
    """
    coord = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    center = complex(draw(coord), draw(coord))
    hw = draw(st.floats(1e-3, 3.0))
    edges = [center.real - hw, center.real + hw, center.imag - hw, center.imag + hw]
    pool = draw(st.lists(coord, min_size=1, max_size=4)) + edges
    pick = st.sampled_from(pool)
    n = draw(st.integers(0, 24))
    pts = np.array([complex(draw(pick), draw(pick)) for _ in range(n)], dtype=np.complex128)
    return pts, center, hw


def _hex_runs(runs):
    return [[(float(x).hex(), float(y).hex()) for x, y in run] for run in runs]


@given(case=clip_cases())
@settings(max_examples=400, deadline=None)
@example(case=(np.array([-2 + 0j, 0j, 2 + 0j, 2 + 2j, 0.5 + 1j, 1 + 1j, 1 + 1j, 3 + 3j]),
               0j, 1.0))
@example(case=(np.array([-1 - 1j, -2 - 2j, -1 + 1j, -1 + 3j, 5 + 5j]), 0j, 1.0))
# the first segment keeps an end point 1 ulp below the box (its exit t rounds
# to 1); the second re-enters at a different float, so a new run starts
@example(case=(np.array([3j, complex(0.0, np.nextafter(-1.0, -2.0)), 0j]), 0j, 1.0))
def test_vectorised_clip_matches_per_segment_reference(case):
    pts, center, hw = case
    with np.errstate(over="ignore"):  # q / p on numpy scalars may overflow
        want = _clip_polyline_reference(pts, center, hw)
    got = [list(zip(xs.tolist(), ys.tolist()))
           for _, xs, ys in render._clip_polyline(pts, center, hw)]
    assert _hex_runs(got) == _hex_runs(want)


def test_scene_clip_matches_clipping_each_curve():
    # the scene is clipped in one pass; the joins between consecutive curves
    # (inner circles end and start inside this viewport) must not be drawn
    f = make_counterexample(1.25)
    center, hw = 0.1 + 0.0j, 0.5
    spec = zoom_scene(f.label, center=center, half_width=hw)
    curves = render._scene_curves(f, spec, max_gap=None)
    want = [(c.tag, render._points_attr(xs, ys)) for c in curves
            for _, xs, ys in render._clip_polyline(c.points, center, hw)]
    svg = render._assemble(spec, curves, center, hw)
    assert re.findall(r'class="([^"]+)"[^>]*points="([^"]*)"', svg) == want
    assert len({tag for tag, _ in want}) == len(curves)


def test_points_attr_formats_like_fmt():
    xs = np.array([-0.0, 0.0, 1.0 / 3.0, -2.5e-12, 123456789.123])
    ys = np.array([1e300, -0.0, -1.0, 7.0, -1e-320])
    assert render._fmt(-0.0) == "0"
    want = " ".join(f"{render._fmt(x)},{render._fmt(y)}" for x, y in zip(xs, ys))
    assert render._points_attr(xs, ys) == want


# -- refinement contract -------------------------------------------------------


def _boundary_refinement(max_gap):
    f = make_counterexample(1.25)
    rho = 0.999

    def z_of_t(t):
        return rho * np.exp(1j * t)

    theta = np.linspace(0.0, math.pi, 129)
    t, w = render._refine_params(f, z_of_t, theta, "boundary", max_gap)
    return f, z_of_t, t, w


def test_refined_points_match_fresh_evaluation():
    # midpoints are evaluated pass by pass; the result must agree with one
    # evaluation of the final parameters up to the last bit: past about 16 k
    # points numpy's complex kernels round some values 1 ulp differently
    f, z_of_t, t, w = _boundary_refinement(max_gap=2e-4)
    assert t.size > 20_000
    assert np.all(np.diff(t) > 0.0)
    fresh = np.asarray(f(z_of_t(t)))
    assert np.max(np.abs(w - fresh) / np.abs(fresh)) <= 4e-16


def test_refinement_bounds_gaps_or_stops_at_point_cap(monkeypatch):
    max_gap = 0.005
    _, _, t, w = _boundary_refinement(max_gap)
    assert t.size <= MAX_CURVE_POINTS
    assert np.max(np.abs(np.diff(w))) <= max_gap

    cap = 400
    monkeypatch.setattr(render, "MAX_CURVE_POINTS", cap)
    _, _, t, w = _boundary_refinement(max_gap)
    wide = np.count_nonzero(np.abs(np.diff(w)) > max_gap)
    assert t.size <= cap < t.size + wide


def test_fixed_viewport_samples_the_scene_once(monkeypatch):
    calls = []
    scene_curves = render._scene_curves

    def counting(*args, **kw):
        calls.append(kw.get("max_gap"))
        return scene_curves(*args, **kw)

    monkeypatch.setattr(render, "_scene_curves", counting)
    f = make_identity()
    render_image_domain(zoom_scene("identity", center=0.25 + 0.1j, half_width=0.2), f)
    assert len(calls) == 1 and calls[0] is not None
    calls.clear()
    render_image_domain(overview_scene("identity", radius=0.9), f)
    # an auto-fit viewport needs the unrefined pass first
    assert len(calls) == 2 and calls[0] is None


# -- viewport pruning ----------------------------------------------------------


def _collision_center(gamma):
    f = make_counterexample(gamma)
    col = find_symmetric_collision(CollisionSearchParams(gamma))
    return complex(complex(f(col.z1)).real, 0.0)


#: zooms whose pruned refinement must draw what refining everywhere draws:
#: the criterion-10 collision zoom, then off-axis ones; the lower-half zoom
#: on a mirrored family draws only reflected points
PRUNED_ZOOMS = [
    ("counterexample:gamma=5/4", None, 0.05),
    ("counterexample:gamma=5/4", -0.404 - 0.950j, 0.1),
    ("bl:lam=0.4", 0.7 - 0.09j, 0.1),
    ("extremal:alpha=0,zeta=0.3,n=2", -0.46 - 1.0j, 0.05),
    ("extremal:alpha=0.25,zeta=0.2+0.2j,n=1", -0.29 - 0.9j, 0.05),
]


@pytest.mark.parametrize("family,center,hw", PRUNED_ZOOMS)
def test_pruned_zoom_matches_refining_everywhere(family, center, hw):
    f = family_from_spec(family)
    if center is None:
        center = _collision_center(1.25)
    spec = zoom_scene(f.label, center=center, half_width=hw)
    max_gap = 2.0 * hw / render.GAP_DENOM
    pruned = render._scene_curves(f, spec, max_gap=max_gap, view=(center, hw))
    full = render._scene_curves(f, spec, max_gap=max_gap)
    svg = render_image_domain(spec, f)
    assert svg == render._assemble(spec, pruned, center, hw)
    assert svg == render._assemble(spec, full, center, hw)
    # the zoom draws something, and pruning skipped some of the refinement
    assert len(all_points(svg)) > 100
    sizes = [sum(c.points.size for c in cs) for cs in (pruned, full)]
    assert sizes[0] < sizes[1]


@pytest.mark.parametrize("family,center,hw", PRUNED_ZOOMS)
def test_pruned_zoom_gaps_within_max_gap(family, center, hw):
    f = family_from_spec(family)
    if center is None:
        center = _collision_center(1.25)
    svg = render_image_domain(zoom_scene(f.label, center=center, half_width=hw), f)
    max_gap = 2.0 * hw / render.GAP_DENOM
    worst = 0.0
    for chunk in POINTS_RE.findall(svg):
        pts = np.array([complex(*map(float, p.split(","))) for p in chunk.split()])
        worst = max(worst, float(np.max(np.abs(np.diff(pts)))))
    # the points are printed to 9 significant digits
    assert worst <= max_gap + 1e-8
