"""The package's public names, and the range rules its modules share."""

import math

import pytest

import harmap
from harmap import (
    ClassParams,
    DiskGrid,
    ParameterError,
    SceneSpec,
    area,
    area_bounds,
    feasibility_threshold,
    growth_bounds,
    kaplan_min_arc_integral,
    make_counterexample,
    make_identity,
    render_boundary_curve,
    univalence_scan,
    winding_check,
)


def test_every_exported_name_resolves_once():
    names = harmap.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [n for n in names if not hasattr(harmap, n)]
    assert not missing, missing


_RADIUS_SITES = [
    (lambda r: growth_bounds(r, ClassParams(0.5, 0.0, 1)), "radius"),
    (lambda r: area(make_identity(), r), "radius"),
    (lambda r: area_bounds(ClassParams(0.5, 0.0, 1), r), "radius"),
    (lambda r: DiskGrid(r), "grid radius"),
    (lambda r: kaplan_min_arc_integral(make_identity(), 2, 1.0, r), "radius"),
    (lambda r: SceneSpec("identity", radius=r), "scene radius"),
    (lambda r: render_boundary_curve(make_identity(), r), "radius"),
    (lambda r: univalence_scan(make_identity(), r, 64), "scan radius"),
    (lambda r: winding_check(make_identity(), r, 0.0), "radius"),
]


@pytest.mark.parametrize("r", [0.0, 1.0, -0.5, math.nan])
@pytest.mark.parametrize("call, noun", _RADIUS_SITES, ids=[
    "growth_bounds", "area", "area_bounds", "DiskGrid", "kaplan_min_arc_integral",
    "SceneSpec", "render_boundary_curve", "univalence_scan", "winding_check"])
def test_every_radius_takes_the_one_open_unit_rule(call, noun, r):
    with pytest.raises(ParameterError, match=rf"^{noun} must lie in \(0, 1\), got {r}$"):
        call(r)


@pytest.mark.parametrize("gamma", [1.0, 1.76, math.nan])
@pytest.mark.parametrize("call", [make_counterexample, feasibility_threshold])
def test_every_gamma_takes_the_one_range_rule(call, gamma):
    with pytest.raises(ParameterError, match=rf"^gamma must lie in \(1, 7/4\], got {gamma}$"):
        call(gamma)
