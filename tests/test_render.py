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
from harmap.errors import DomainError, ParameterError
from harmap.mappings import (
    family_from_spec,
    is_conjugate_symmetric,
    make_bshouty_lyzzaik,
    make_counterexample,
    make_identity,
)
from harmap.render import (
    MAX_CURVE_POINTS,
    SceneSpec,
    render_boundary_curve,
    render_image_domain,
)
from harmap.univalence import find_symmetric_collision

SCENE_RE = re.compile(r"<!-- scene: (.*?) -->")
POINTS_RE = re.compile(r'points="([^"]*)"')


def scene_meta(svg):
    m = SCENE_RE.search(svg)
    assert m, "missing scene metadata comment"
    return json.loads(m.group(1))


#: steps per side of the canvas grid
S = render.CANVAS_STEPS


def canvas_runs(svg):
    """Each polyline's points as an ``(n, 2)`` array of canvas integers."""
    return [np.array([[int(v) for v in pair.split(",")] for pair in chunk.split()],
                     dtype=np.int64).reshape(-1, 2)
            for chunk in POINTS_RE.findall(svg)]


def all_points(svg):
    return np.concatenate(canvas_runs(svg) or [np.empty((0, 2), dtype=np.int64)])


def worst_gap(svg):
    """The longest step between consecutive points of a polyline, in steps."""
    return max(float(np.max(np.hypot(*np.diff(run, axis=0).T)))
               for run in canvas_runs(svg) if len(run) > 1)


def mirror_symmetric(pts):
    """Whether the canvas points, as a multiset, equal their images under
    ``y -> -y`` about a centre on the real axis, i.e. ``py -> S - py``."""
    mirrored = np.column_stack([pts[:, 0], S - pts[:, 1]])
    return np.array_equal(pts[np.lexsort(pts.T[::-1])], mirrored[np.lexsort(mirrored.T[::-1])])


def test_byte_determinism():
    f = make_counterexample(1.25)
    spec = SceneSpec(f.label)
    a = render_image_domain(spec, f)
    b = render_image_domain(spec, f)
    assert a == b
    assert a.encode("utf-8") == b.encode("utf-8")


def test_well_formed_xml_and_canvas():
    f = make_identity()
    svg = render_image_domain(SceneSpec("identity", radius=0.9), f)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert root.get("width") == "720"
    assert root.get("height") == "720"
    assert len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) > 10


def test_viewbox_matches_metadata():
    f = make_identity()
    svg = render_image_domain(SceneSpec("identity", radius=0.9), f)
    meta = scene_meta(svg)
    hw = meta["half_width"]
    root = ET.fromstring(svg)
    # the viewport of side 2 hw is the canvas of S steps, 100 per pixel
    assert S == 100 * int(root.get("width")) == 72_000
    assert root.get("viewBox") == f"0 0 {S} {S}"
    ns = "{http://www.w3.org/2000/svg}"
    rect = root.find(f"{ns}rect")
    assert [rect.get(a) for a in ("x", "y", "width", "height")] == ["0", "0", str(S), str(S)]
    # the metadata's stroke width hw/240 is 150 steps; the boundary's 1.8 times that
    k = S / (2 * hw)
    assert meta["stroke_width"] * k == pytest.approx(150)
    widths = {p.get("class"): p.get("stroke-width") for p in root.iter(f"{ns}polyline")}
    assert widths["boundary"] == "270" and widths["ray-0"] == widths["circle-1"] == "150"


def test_auto_viewport_fits_identity_disk():
    f = make_identity()
    svg = render_image_domain(SceneSpec("identity", radius=0.9), f)
    meta = scene_meta(svg)
    # auto viewport: 5% margin around the unit-scaled image of |z| <= 0.9
    assert meta["half_width"] == pytest.approx(0.9 * 1.05, rel=0.02)
    assert meta["center"][0] == pytest.approx(0.0, abs=0.02)


def test_all_points_inside_viewport():
    f = make_bshouty_lyzzaik(0.4)
    svg = render_image_domain(SceneSpec(f.label), f)
    pts = all_points(svg)
    assert len(pts) > 1000
    # the viewport [cx - hw, cx + hw] x [cy - hw, cy + hw] is the canvas [0, S]^2
    assert pts.min() >= 0 and pts.max() <= S


def test_explicit_viewport_clips_points():
    f = make_counterexample(1.25)
    spec = SceneSpec(f.label, center=1.0 + 0.0j, half_width=0.08)
    svg = render_image_domain(spec, f)
    meta = scene_meta(svg)
    assert meta["center"] == [1.0, 0.0]
    assert meta["half_width"] == pytest.approx(0.08)
    pts = all_points(svg)
    assert len(pts) > 100
    assert pts.min() >= 0 and pts.max() <= S
    # the points drawn go right up to the viewport's edges
    assert pts.min() == 0 or pts.max() == S


def test_mirror_symmetry_of_point_set():
    f = make_counterexample(1.25)
    svg = render_image_domain(SceneSpec(f.label, radius=0.995), f)
    assert scene_meta(svg)["center"][1] == 0.0
    # np.rint is odd, so mirrored points print mirrored integers exactly
    assert mirror_symmetric(all_points(svg))


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


@pytest.mark.parametrize("kw", [
    {"center": complex(math.nan, 0.0), "half_width": 1.0},
    {"center": complex(0.0, -math.inf), "half_width": 1.0},
    {"center": 0j, "half_width": math.inf},
    {"half_width": math.nan},
    {"center": 0j, "half_width": 1e308},
    {"center": 0j, "half_width": 1e-320},
])
def test_scene_spec_rejects_a_non_finite_viewport(kw):
    # it wrote viewBox="nan -1 2 2" or "-inf -inf inf inf"; neither 2 hw = inf
    # nor k = S / (2 hw) = inf maps onto the canvas grid
    with pytest.raises(ParameterError, match="viewport"):
        SceneSpec("identity", **kw)


def test_scene_metadata_round_trip():
    spec = SceneSpec("identity", center=0.25 + 0.1j, half_width=0.2)
    svg = render_image_domain(spec, make_identity())
    meta = scene_meta(svg)
    assert meta["family"] == "identity"
    assert meta["radius"] == spec.radius
    assert meta["circles"] == spec.circles
    assert meta["rays"] == spec.rays
    # the styling is fixed, and still written out with the scene
    assert meta["stroke_width"] == 0.2 / 240.0
    assert (meta["grid_color"], meta["boundary_color"], meta["background"]) == (
        "#3a6ea5", "#b22222", "#ffffff")


def test_curve_classes_present():
    svg = render_image_domain(SceneSpec("identity", radius=0.9), make_identity())
    assert 'class="boundary"' in svg
    classes = set(re.findall(r'class="([^"]+)"', svg))
    assert {"circle-1", "ray-0", "ray-23"} <= classes


def test_adaptive_refinement_limits_gaps():
    # near the cusp point of the branched family, plain sampling leaves huge
    # jumps; refinement must bound consecutive gaps by 1% of the viewport
    f = make_counterexample(1.25)
    svg = render_image_domain(SceneSpec(f.label), f)
    hw = scene_meta(svg)["half_width"]
    k = S / (2 * hw)
    # rounding each end to the grid moves a step by under 1 per axis
    assert worst_gap(svg) <= 2.0 * (2 * hw) / 200.0 * k + math.sqrt(2)


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


#: 1 ulp left of the edge -1.0
_BELOW_LEFT = float(np.nextafter(-1.0, -2.0))
#: the clip's up-front margin when the largest coordinate or edge magnitude is 2
_MARGIN_AT_2 = 2.0 * render._CLIP_MARGIN


def _clip_runs(points, center, hw, cut=np.zeros(0, dtype=np.int64)):
    """The runs of :func:`render._clip_polyline` as a list of ``(first, xs,
    ys)``, rebuilt from its flat return."""
    first, at, xs, ys = render._clip_polyline(points, center, hw, cut)
    bounds = at.tolist() + [xs.size]
    return [(s, xs[a:b], ys[a:b]) for s, a, b in zip(first.tolist(), bounds, bounds[1:])]


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
# both ends 1 ulp beyond the left edge: the exact steps, not the out-codes,
# decide the segment
@example(case=(np.array([complex(_BELOW_LEFT, 0.5), complex(_BELOW_LEFT, -0.5), 0.5 + 0.5j]),
               0j, 1.0))
# both ends just beyond the margin (rejected up front), then just within it
@example(case=(np.array([complex(-1.0 - 2.0 * _MARGIN_AT_2, 0.2),
                         complex(-1.0 - 2.0 * _MARGIN_AT_2, -0.2),
                         complex(-1.0 - 0.5 * _MARGIN_AT_2, -0.2),
                         complex(-1.0 - 0.5 * _MARGIN_AT_2, 0.2), 2 + 0j]), 0j, 1.0))
# far from the box, lo - x0 rounds to x1 - x0, so the entry t rounds to 1 and
# a piece from the edge to x1, 1e-6 beyond it, is kept
@example(case=(np.array([complex(-1e12, 0.5), complex(-1.0 - 1e-6, 0.5), 0.5j]), 0j, 1.0))
# a rejected segment between two clipped ones, and between two kept whole
@example(case=(np.array([0.2j, 0.5 + 0.5j, 3 + 0.5j, 3 - 0.5j, 0.5 - 0.5j, -0.5j]), 0j, 1.0))
# the run leaves through (1, 0.5) and re-enters at the same float, once from
# inside the box and once from a point on its edge
@example(case=(np.array([0.5 + 0.5j, 1.5 + 0.5j, 0.5 + 0.5j, 1 + 0.5j, 1.5 + 0.5j,
                         1 + 0.5j, 0.5 + 0.5j]), 0j, 1.0))
def test_vectorised_clip_matches_per_segment_reference(case):
    _assert_clip_matches_reference(*case)


def _assert_clip_matches_reference(pts, center, hw):
    with np.errstate(over="ignore"):  # q / p on numpy scalars may overflow
        want = _clip_polyline_reference(pts, center, hw)
    got = [list(zip(xs.tolist(), ys.tolist()))
           for _, xs, ys in _clip_runs(pts, center, hw)]
    assert _hex_runs(got) == _hex_runs(want)


@st.composite
def far_clip_cases(draw):
    """A small box among coordinates up to 1e12 away: there ``lo - x0``
    rounds by up to 6e-5, far more than any margin fixed in absolute terms
    (and a tenth of the narrowest box)."""
    big = st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False)
    center = complex(draw(big), draw(big))
    hw = draw(st.floats(1e-3, 10.0))
    edges = [center.real - hw, center.real + hw, center.imag - hw, center.imag + hw]
    near = [center.real + k * hw for k in (-3, -1.5, 0, 0.5, 2)]
    near += [center.imag + k * hw for k in (-2, -0.5, 1.5, 3)]
    pool = (draw(st.lists(big, min_size=1, max_size=4)) + edges + near
            + [float(np.nextafter(e, d)) for e in edges for d in (-math.inf, math.inf)])
    pick = st.sampled_from(pool)
    n = draw(st.integers(0, 24))
    pts = np.array([complex(draw(pick), draw(pick)) for _ in range(n)], dtype=np.complex128)
    return pts, center, hw


@given(case=far_clip_cases())
@settings(max_examples=300, deadline=None)
def test_clip_far_from_a_small_box_matches_per_segment_reference(case):
    _assert_clip_matches_reference(*case)


def test_clip_does_not_join_runs_across_a_cut_segment():
    # two curves clipped together, the second starting where the first ends
    pts = np.array([-0.5 + 0j, 0.5j, 0.5j, 0.5 + 0j])
    runs = _clip_runs(pts, 0j, 1.0, cut=np.array([1]))
    assert [(s, xs.tolist(), ys.tolist()) for s, xs, ys in runs] == [
        (0, [-0.5, 0.0], [0.0, 0.5]), (2, [0.0, 0.5], [0.5, 0.0])]


def test_out_codes_leave_only_the_uncertain_segments_to_the_exact_steps(monkeypatch):
    seen = []
    steps = render._liang_barsky

    def spy(x0, *args):
        seen.append(x0.size)
        return steps(x0, *args)

    monkeypatch.setattr(render, "_liang_barsky", spy)
    # a box about 0 of half-width 1, and a point at -2 that sets the margin
    whole = np.array([-0.5 + 0.5j, 0.5 - 0.5j, 1 + 1j])
    assert len(_clip_runs(whole, 0j, 1.0)) == 1 and seen == []
    far = np.array([complex(-1.0 - 2.0 * _MARGIN_AT_2, 0.2),
                    complex(-1.0 - 2.0 * _MARGIN_AT_2, -0.2), -2 + 0j])
    assert _clip_runs(far, 0j, 1.0) == [] and seen == []
    near = np.array([complex(-1.0 - 0.5 * _MARGIN_AT_2, 0.2),
                     complex(-1.0 - 0.5 * _MARGIN_AT_2, -0.2), -2 + 0j])
    assert _clip_runs(near, 0j, 1.0) == [] and seen == [2]


def test_scene_clip_matches_clipping_each_curve(monkeypatch):
    # the scene is clipped in one pass; the joins between consecutive curves
    # (inner circles end and start inside the wide viewport) must not be
    # drawn.  In the collision zoom the out-codes settle most segments.
    f = make_counterexample(1.25)
    stepped = []
    steps = render._liang_barsky
    monkeypatch.setattr(render, "_liang_barsky",
                        lambda x0, *a: stepped.append(x0.size) or steps(x0, *a))
    for center, hw in ((0.1 + 0.0j, 0.5), (_collision_center(1.25), 0.05)):
        spec = SceneSpec(f.label, center=center, half_width=hw)
        curves = render._scene_curves(spec, render._sample_scene(f, spec))
        want = [(c.tag, _points_text(xs, ys, center, hw)) for c in curves
                for _, xs, ys in _clip_runs(c.points, center, hw)]
        stepped.clear()
        svg = render._assemble(spec, curves, center, hw)
        assert re.findall(r'class="([^"]+)"[^>]*points="([^"]*)"', svg) == want
        drawn = len({tag for tag, _ in want})
        if hw == 0.5:
            assert drawn == len(curves)
        else:
            assert 0 < drawn < len(curves)
            assert 0 < sum(stepped) < 0.1 * sum(c.points.size for c in curves)


def _points_text(xs, ys, center, hw):
    """A run's ``points`` text from the grid map of :func:`render._canvas`."""
    px, py = render._canvas(xs, ys, center, hw)
    return " ".join(f"{x},{y}" for x, y in zip(px.tolist(), py.tolist()))


@given(cx=st.floats(-1e3, 1e3), cy=st.floats(-1e3, 1e3), hw=st.floats(1e-6, 1e6),
       offsets=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                        min_size=2, max_size=16))
@settings(max_examples=300, deadline=None)
@example(cx=0.0, cy=0.0, hw=1.0, offsets=[(-1.0, 1.0), (1.0, -1.0), (0.5 / 36_000, -1.5 / 36_000)])
def test_printed_integers_follow_the_canvas_grid(cx, cy, hw, offsets):
    center = complex(cx, cy)
    pts = np.array([complex(cx + a * hw, cy + b * hw) for a, b in offsets])
    curve = render._Curve("boundary", render.BOUNDARY_COLOR, render.BOUNDARY_STROKE, pts)
    svg = render._assemble(SceneSpec("identity", center=center, half_width=hw),
                           [curve], center, hw)
    # every point lies in the viewport, so the polyline is one run of them all
    (got,) = canvas_runs(svg)
    k = S / (2 * hw)
    # Python's round() on a float rounds half to even, as np.rint does
    want = [[S // 2 + round((p.real - cx) * k), S // 2 - round((p.imag - cy) * k)] for p in pts]
    assert got.tolist() == want
    # back to the image plane within half a step hw / S, plus rounding
    slack = hw / S + 8 * np.finfo(float).eps * (max(abs(cx), abs(cy)) + hw)
    x = cx + (got[:, 0] - S / 2) / k
    y = cy - (got[:, 1] - S / 2) / k
    assert np.all(np.abs(x - pts.real) <= slack) and np.all(np.abs(y - pts.imag) <= slack)
    # odd about the centre: a point and its mirror image about a centre on
    # an axis print mirrored integers
    px, py = render._canvas(pts.real, pts.imag, complex(cx, 0.0), hw)
    qx, qy = render._canvas(pts.real, -pts.imag, complex(cx, 0.0), hw)
    assert np.array_equal(qx, px) and np.array_equal(qy, S - py)
    px, py = render._canvas(pts.real, pts.imag, complex(0.0, cy), hw)
    qx, qy = render._canvas(-pts.real, pts.imag, complex(0.0, cy), hw)
    assert np.array_equal(qx, S - px) and np.array_equal(qy, py)


# -- refinement contract -------------------------------------------------------


def _boundary_refinement(max_gap):
    """The upper half of the circle ``|z| = 0.999`` (129 samples), the
    scene's only curve, refined everywhere: every arc may reach an infinite
    viewport."""
    f = make_counterexample(1.25)
    spec = SceneSpec(family=f.label, circles=1, rays=0)
    s = render._refine_scene(f, render._sample_scene(f, spec), max_gap, (0j, math.inf))
    return f, s


def test_refined_points_match_fresh_evaluation():
    # midpoints are evaluated pass by pass; the values of f do not depend on
    # the array length, so they equal one evaluation of the final parameters
    # bit for bit
    f, s = _boundary_refinement(max_gap=2e-4)
    assert s.t.size > 20_000
    assert np.all(np.diff(s.t) > 0.0)
    fresh = np.asarray(f(0.999 * np.exp(1j * s.t)))
    assert np.array_equal(s.w, fresh)


def test_refinement_bounds_gaps_or_stops_at_point_cap(monkeypatch):
    max_gap = 0.005
    _, s = _boundary_refinement(max_gap)
    assert s.t.size <= MAX_CURVE_POINTS
    assert np.max(np.abs(np.diff(s.w))) <= max_gap

    cap = 400
    monkeypatch.setattr(render, "MAX_CURVE_POINTS", cap)
    _, s = _boundary_refinement(max_gap)
    wide = np.count_nonzero(np.abs(np.diff(s.w)) > max_gap)
    assert s.t.size <= cap < s.t.size + wide


def test_fixed_viewport_samples_the_scene_once(monkeypatch):
    calls = []
    for name in ("_sample_scene", "_refine_scene", "_scene_curves"):
        def counting(*args, _name=name, _fn=getattr(render, name)):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(render, name, counting)
    f = make_identity()
    render_image_domain(SceneSpec("identity", center=0.25 + 0.1j, half_width=0.2), f)
    assert calls == ["_sample_scene", "_refine_scene", "_scene_curves"]
    calls.clear()
    render_image_domain(SceneSpec("identity", radius=0.9), f)
    # an auto-fit viewport needs the unrefined curves first; refinement then
    # starts from the same samples
    assert calls == ["_sample_scene", "_scene_curves", "_refine_scene", "_scene_curves"]


def test_render_evaluates_f_at_most_once_per_pass(monkeypatch):
    f = make_counterexample(1.25)
    calls = []
    call = type(f).__call__

    def counting(self, z):
        calls.append(np.size(z))
        return call(self, z)

    monkeypatch.setattr(type(f), "__call__", counting)
    # sampling, then the passes: the mirrored lower halves are reflected
    # images, so neither the auto-fit curves nor the drawn ones call f again
    render_image_domain(SceneSpec(f.label), f)
    assert 1 < len(calls) <= render.MAX_REFINE_PASSES + 1
    calls.clear()
    render_image_domain(SceneSpec(f.label, center=_collision_center(1.25), half_width=0.05), f)
    assert 1 < len(calls) <= render.MAX_REFINE_PASSES + 1


def test_domain_error_in_a_pass_names_the_parameter_point(monkeypatch):
    f = make_counterexample(1.25)
    seen = []
    call = type(f).__call__

    def failing(self, z):
        seen.append(z)
        if len(seen) == 3:  # sampling, the auto-fit lower halves, the first pass
            raise DomainError("refused")
        return call(self, z)

    monkeypatch.setattr(type(f), "__call__", failing)
    with pytest.raises(DomainError) as err:
        render_image_domain(SceneSpec(f.label), f)
    # the farthest-out midpoint lies on the outermost circle
    z = seen[2]
    worst = z[np.argmax(np.abs(z))]
    assert abs(worst) == pytest.approx(0.999)
    assert str(err.value) == f"rendering boundary: refused (parameter point {worst})"


# -- refinement against the per-curve reference --------------------------------


def _refine_params_reference(f, z_of_t, t, max_gap, reach=None, w=None):
    """One curve at a time, each pass evaluating that curve's midpoints."""
    if w is None:
        w = np.asarray(f(z_of_t(t)))
    if max_gap is None:
        return t, w
    for _ in range(render.MAX_REFINE_PASSES):
        wide = np.nonzero(np.abs(np.diff(w)) > max_gap)[0]
        if reach is not None:
            wide = wide[render._may_reach(w[wide], w[wide + 1], t[wide + 1] - t[wide], *reach)]
        if wide.size == 0 or t.size + wide.size > render.MAX_CURVE_POINTS:
            break
        mid = 0.5 * (t[wide] + t[wide + 1])
        t = np.insert(t, wide + 1, mid)
        w = np.insert(w, wide + 1, np.asarray(f(z_of_t(mid))))
    return t, w


def _scene_curves_reference(f, spec, max_gap, view=None, start=None):
    """``(curves, samples)`` refined curve by curve.  A ray's speed is bounded
    once, at the scene radius: a looser bound prunes less, and pruning only
    skips what cannot reach the viewport, so the drawing is the same."""
    mirror = is_conjugate_symmetric(f)
    n0 = spec.samples_per_curve
    given = start or {}
    samples, curves = {}, []

    def reach(rho, dz):
        if view is None:
            return None
        c, hw = view
        speed = dz * f.kernel.hp_bound(rho) * (1.0 + abs(f.zeta) * rho**f.n)
        return ({c, c.conjugate()} if mirror else {c}), hw, speed

    for k in range(spec.rays):
        tag = f"ray-{k}"
        if mirror and k > spec.rays // 2:
            mirrored = np.conjugate(curves[spec.rays - k].points)
            curves.append(render._Curve(tag, render.GRID_COLOR, render.GRID_STROKE, mirrored))
            continue
        angle = 2.0 * math.pi * k / spec.rays
        direction = complex(math.cos(angle), math.sin(angle))
        t, w = given.get(tag, (np.linspace(0.0, spec.radius, max(n0, 129)), None))
        t, w = _refine_params_reference(f, lambda s, d=direction: s * d, t, max_gap,
                                        reach(spec.radius, 1.0), w)
        samples[tag] = (t, w)
        curves.append(render._Curve(tag, render.GRID_COLOR, render.GRID_STROKE, w))
    for j in range(1, spec.circles + 1):
        rho = spec.radius * j / spec.circles
        boundary = j == spec.circles
        tag = "boundary" if boundary else f"circle-{j}"

        def z_of_t(t, rho=rho):
            return rho * np.exp(1j * t)

        theta = (np.linspace(0.0, math.pi, max(n0 // 2 + 1, 65)) if mirror
                 else np.linspace(0.0, 2.0 * math.pi, max(n0, 129) + 1))
        theta, w = given.get(tag, (theta, None))
        theta, w = _refine_params_reference(f, z_of_t, theta, max_gap, reach(rho, rho), w)
        samples[tag] = (theta, w)
        if mirror:
            lower = np.conjugate(z_of_t(theta)[-2:0:-1])
            pts = np.concatenate([w, np.asarray(f(lower)), w[:1]])
        else:
            pts = np.concatenate([w[:-1], w[:1]])
        curves.append(render._Curve(tag, render.BOUNDARY_COLOR if boundary else render.GRID_COLOR,
                                    render.BOUNDARY_STROKE if boundary else render.GRID_STROKE,
                                    pts))
    return curves, samples


def _render_reference(spec, f):
    fixed = spec.center is not None and spec.half_width is not None
    curves, start = (None, None) if fixed else _scene_curves_reference(f, spec, None)
    center, hw = render._resolve_viewport(spec, curves)
    curves, _ = _scene_curves_reference(f, spec, 2.0 * hw / render.GAP_DENOM,
                                        (center, hw), start)
    return render._assemble(spec, curves, center, hw)


#: ``(family, SceneSpec keywords)``; a callable ``center`` gives the centre,
#: here the collision image of a counterexample
REFERENCE_SCENES = {
    "counterexample-overview": ("counterexample:gamma=5/4", {}),
    "counterexample-collision-zoom": ("counterexample:gamma=5/4",
                                      {"center": lambda: _collision_center(1.25),
                                       "half_width": 0.05}),
    "bl-overview": ("bl:lam=0.4", {}),
    "extremal-nonsymmetric-zoom": ("extremal:alpha=0.25,zeta=0.2+0.2j,n=1",
                                   {"center": -0.29 - 0.9j, "half_width": 0.05}),
    "rays-only": ("counterexample:gamma=5/4", {"circles": 0, "rays": 8}),
    # about f(0.98) on the ray toward the pole of h' = (1 - z)^-2, where a
    # ray segment's speed bound must be taken at its outer end
    "extremal-ray-zoom": ("extremal:alpha=0,zeta=0.3,n=2",
                          {"circles": 0, "rays": 4, "center": 61.65 + 0j, "half_width": 0.5}),
    "odd-rays": ("counterexample:gamma=5/4", {"circles": 3, "rays": 7}),
    # deep refinement on many curves at once: all twelve passes and about
    # 39,000 midpoints, then the collision zoom at the family's end gamma = 7/4
    "extremal-slow-zoom": ("extremal:alpha=0,zeta=0.3,n=2",
                           {"center": -0.46 - 1.0j, "half_width": 0.05}),
    "counterexample-gamma-1.75-collision-zoom": (
        "counterexample:gamma=7/4",
        {"center": lambda: _collision_center(1.75), "half_width": 0.02}),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_SCENES))
def test_batched_scene_matches_per_curve_reference(name):
    family, kw = REFERENCE_SCENES[name]
    f = family_from_spec(family)
    if callable(kw.get("center")):
        kw = {**kw, "center": kw["center"]()}
    spec = SceneSpec(family=f.label, **kw)
    svg = render_image_domain(spec, f)
    assert svg == _render_reference(spec, f)
    assert len(all_points(svg)) > 100


def test_point_cap_stops_one_curve_while_the_others_refine(monkeypatch):
    f = make_counterexample(1.25)
    spec = SceneSpec(f.label)
    start = render._sample_scene(f, spec)
    center, hw = render._resolve_viewport(spec, render._scene_curves(spec, start))
    max_gap = 2.0 * hw / render.GAP_DENOM

    def refined():
        s = render._refine_scene(f, start, max_gap, (center, hw))
        return {tag: s.w[s.cid == k] for k, tag in enumerate(s.tags)}

    free = refined()
    cap = 360  # the boundary needs 367 points; every other curve at most 351
    monkeypatch.setattr(render, "MAX_CURVE_POINTS", cap)
    capped = refined()
    w = capped.pop("boundary")
    assert w.size <= cap < free.pop("boundary").size
    assert np.max(np.abs(np.diff(w))) > max_gap
    assert capped.keys() == free.keys()
    assert all(np.array_equal(capped[tag], free[tag]) for tag in free)
    assert sum(w.size > 129 for w in free.values()) > 3  # other circles refined too
    assert render_image_domain(spec, f) == _render_reference(spec, f)


# -- viewport pruning ----------------------------------------------------------


def _collision_center(gamma):
    f = make_counterexample(gamma)
    col = find_symmetric_collision(gamma)
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
    spec = SceneSpec(f.label, center=center, half_width=hw)
    max_gap = 2.0 * hw / render.GAP_DENOM
    start = render._sample_scene(f, spec)
    pruned, full = (render._scene_curves(spec, render._refine_scene(f, start, max_gap, view))
                    for view in ((center, hw), (center, math.inf)))
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
    svg = render_image_domain(SceneSpec(f.label, center=center, half_width=hw), f)
    max_gap = 2.0 * hw / render.GAP_DENOM
    # the points are printed on the grid: each end moves by at most half a
    # step per axis
    assert worst_gap(svg) <= max_gap * S / (2 * hw) + math.sqrt(2)
