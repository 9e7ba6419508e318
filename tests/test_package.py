"""The package's public names, its option count, and the range rules its
modules share."""

import ast
import math
import pathlib

import pytest

import harmap
from harmap import (
    ClassParams,
    DiskGrid,
    ParameterError,
    PBetaParams,
    SceneSpec,
    area,
    area_bounds,
    check_membership,
    check_pbeta,
    check_theorem_b_condition,
    feasibility_threshold,
    growth_bounds,
    kaplan_min_arc_integral,
    make_counterexample,
    make_identity,
    render_boundary_curve,
    univalence_scan,
    verify_coeff_relation,
    verify_coeff_sharpness,
    verify_covering_consistency,
    verify_growth_consistency,
    verify_sharpness,
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


_TOLERANCE_SITES = {
    "check_membership": lambda tol: check_membership(make_identity(), ClassParams(0, 0, 1),
                                                     tol=tol),
    "check_pbeta": lambda tol: check_pbeta(make_identity(), PBetaParams(1.2), tol=tol),
    "check_theorem_b_condition": lambda tol: check_theorem_b_condition(make_identity(), 1.0,
                                                                       0.5, 1, tol=tol),
    "verify_coeff_relation": lambda tol: verify_coeff_relation(make_identity(), 1, 0.0, 4, tol),
    "area": lambda tol: area(make_identity(), 0.5, tol),
    "verify_sharpness": lambda tol: verify_sharpness(ClassParams(0.5, 0, 1), [0.5], tol),
    "verify_coeff_sharpness": lambda tol: verify_coeff_sharpness(ClassParams(0.5, 0, 1), 4, tol),
    "verify_growth_consistency": lambda tol: verify_growth_consistency(ClassParams(0.5, 0, 1),
                                                                       [0.5], tol),
    "verify_covering_consistency": lambda tol: verify_covering_consistency(
        ClassParams(0.5, 0, 1), tol),
}


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
@pytest.mark.parametrize("name", list(_TOLERANCE_SITES))
def test_every_tolerance_is_finite_and_positive(name, tol):
    # a NaN tolerance made a check report ``passed=False, margin=nan``, and a
    # negative one a failed check with that margin, instead of an input error
    with pytest.raises(ParameterError, match=rf"^tolerance must be finite and > 0, got {tol}$"):
        _TOLERANCE_SITES[name](tol)


def _option_count() -> int:
    """Options in ``src/harmap/*.py``: defaulted parameters (lambdas too),
    ``**kw``, defaulted class-body fields and ``add_argument`` calls."""
    count = 0
    for path in sorted(pathlib.Path(harmap.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
                count += args.kwarg is not None
            elif isinstance(node, ast.ClassDef):
                count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                             for s in node.body)
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
                count += 1
    return count


def test_option_count_does_not_grow():
    # a ratchet: a change that adds a knob raises this pin in plain sight
    assert _option_count() <= 93


def test_every_import_is_used():
    # each name an import binds in a module is read there, so removing code
    # cannot leave a dead import behind
    for path in sorted(pathlib.Path(harmap.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        bound = {(a.asname or a.name).split(".")[0] for n in ast.walk(tree)
                 if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
        assert bound - used - {"annotations"} == set(), path.name
