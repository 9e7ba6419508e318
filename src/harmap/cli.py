"""Command-line front end: evaluation, class checks, bound sweeps, scans, SVG.

Exit codes: 0 = success / check passed, 1 = a check failed or a scan did
not certify (collision, degenerate Jacobian, or inconclusive after truncating
its candidates), 2 = usage, parameter, or domain error.  With ``--json`` every
subcommand emits a single JSON document carrying the artifact version and
the fully resolved configuration, matching the documents under
``harmap/schemas/``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .bounds import (
    area,
    area_bounds,
    default_lattice,
    verify_area_sandwich,
    verify_coeff_relation,
    verify_coeff_sharpness,
    verify_covering_consistency,
    verify_growth_consistency,
    verify_sharpness,
)
from .classcheck import check_membership, check_pbeta, check_theorem_b_condition
from .errors import HarmapError, ParameterError
from .mappings import (
    ClassParams,
    PBetaParams,
    PolyKernel,
    check_tolerance,
    dilatation_of,
    family_from_spec,
    jacobian_of,
    make_extremal,
    parse_family_spec,
    parse_int,
    parse_real,
    parse_scalar,
)
from .render import (BOUNDARY_SAMPLES, DEFAULT_RADIUS, ZOOM_HALF_WIDTH, SceneSpec,
                     render_boundary_curve, render_image_domain)
from .reports import dump_json
from .univalence import (DEFAULT_CELLS, DEFAULT_COLLISION_TOL, DEFAULT_SCAN_RADIUS,
                         DEFAULT_SEPARATION_FLOOR, find_symmetric_collision,
                         univalence_scan)


def _given(**options) -> dict:
    """``options`` without those left unset (``None``), so that a library call
    falls back on its own defaults for them."""
    return {k: v for k, v in options.items() if v is not None}


def _tolerance(text: str) -> float:
    """The argparse type of the tolerance flags: a finite float ``> 0``."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    try:
        return check_tolerance(value, "value")
    except ParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_complex(text: str, key: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return parse_scalar(parts[0])
    if len(parts) == 2:
        return complex(parse_real(parts[0], key), parse_real(parts[1], key))
    raise ParameterError(f"expected 're,im' or a single real, got {text!r}")


def _parse_csv(text: str, key: str, parse=parse_real) -> list:
    return [parse(tok, key) for tok in text.split(",") if tok.strip()]


def _parse_class(text: str) -> ClassParams:
    vals = text.split(",")
    if len(vals) != 3:
        raise ParameterError(f"--cls expects 'alpha,zeta,n', got {text!r}")
    return ClassParams(parse_real(vals[0], "alpha"), parse_scalar(vals[1]),
                       parse_int(vals[2], "n"))


def _cfmt(w: complex) -> str:
    return f"{w.real:.12g}{w.imag:+.12g}j"


def _config(args: argparse.Namespace) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}


def _emit(args, payload: dict | None, lines: list[str], code: int) -> int:
    body = dump_json({"version": __version__, "config": _config(args), **payload}) \
        if args.json else "\n".join(lines)
    if getattr(args, "out", None):
        Path(args.out).write_text(body + "\n", encoding="utf-8")
    else:
        print(body)
    return code


# -- subcommands --------------------------------------------------------------


def cmd_eval(args) -> int:
    f = family_from_spec(args.family)
    z = _parse_complex(args.z, "--z")
    h, g, hp, gp = f.parts(z)
    hz, gz = complex(h), complex(g)
    fz = hz + gz.conjugate()
    jac = float(jacobian_of(hp, gp))
    try:
        dil = complex(dilatation_of(hp, gp))
    except HarmapError:
        dil = None
    payload = {
        "family": f.label, "z": z, "f": fz, "h": hz, "g": gz,
        "dilatation": dil, "jacobian": jac,
    }
    lines = [
        f"family     = {f.label}",
        f"z          = {_cfmt(z)}",
        f"f(z)       = {_cfmt(fz)}",
        f"h(z)       = {_cfmt(hz)}",
        f"g(z)       = {_cfmt(gz)}",
        f"dilatation = {_cfmt(dil) if dil is not None else 'undefined'}",
        f"jacobian   = {jac:.12g}",
    ]
    return _emit(args, payload, lines, 0)


def cmd_check(args) -> int:
    f = family_from_spec(args.family)
    tol = _given(tol=args.tol)
    if args.cls is not None:
        report = check_membership(f, _parse_class(args.cls), **tol)
    elif args.pbeta is not None:
        report = check_pbeta(f, PBetaParams(parse_real(args.pbeta, "--pbeta")), **tol)
    elif args.theorem_b is not None:
        vals = args.theorem_b.split(",")
        if len(vals) != 4:
            raise ParameterError("--theorem-b expects 'lam_re,lam_im,k,n'")
        lam = complex(parse_real(vals[0], "lam_re"), parse_real(vals[1], "lam_im"))
        report = check_theorem_b_condition(f, lam, parse_real(vals[2], "k"),
                                           parse_int(vals[3], "n"), **tol)
    else:
        raise ParameterError("check needs one of --cls, --pbeta, --theorem-b")
    return _emit(args, {"report": report.to_dict()}, [report.summary()],
                 0 if report.passed else 1)


def cmd_verify_bounds(args) -> int:
    tol = _given(tol=args.tol)
    lattice = default_lattice(
        _parse_csv(args.alphas, "--alphas"), _parse_csv(args.zetas, "--zetas"),
        _parse_csv(args.zeta_rel, "--zeta-rel"), _parse_csv(args.ns, "n", parse_int))
    radii = _parse_csv(args.radii, "--radii")
    area_radii = _parse_csv(args.area_radii, "--area-radii")
    what = args.what
    reports = []
    for params in lattice:
        if what in ("coefficients", "all"):
            reports.append(verify_coeff_sharpness(params, K=args.kmax, **tol))
            reports.append(verify_coeff_relation(
                make_extremal(params), params.n, params.zeta, K=args.kmax, **tol))
        if what in ("growth", "all"):
            reports.append(verify_growth_consistency(params, radii, **tol))
            reports.append(verify_sharpness(params, radii, **tol))
        if what in ("covering", "all"):
            reports.append(verify_covering_consistency(params, **tol))
        if what in ("area", "all"):
            reports.append(verify_area_sandwich(params, area_radii))
    ok = all(r.passed for r in reports)
    lines = [r.summary() for r in reports]
    lines.append(f"{'all checks passed' if ok else 'CHECKS FAILED'} "
                 f"({sum(r.passed for r in reports)}/{len(reports)})")
    return _emit(args, {"reports": [r.to_dict() for r in reports], "all_pass": ok},
                 lines, 0 if ok else 1)


def cmd_univalence(args) -> int:
    f = family_from_spec(args.family)
    report = univalence_scan(f, r=args.r, cells=args.cells,
                             collision_tol=args.collision_tol,
                             separation_floor=args.separation_floor)
    return _emit(args, {"report": report.to_dict()}, [report.summary()],
                 0 if report.certified else 1)


def cmd_counterexample(args) -> int:
    r0 = None if args.r0 is None else parse_real(args.r0, "--r0")
    col = find_symmetric_collision(parse_real(args.gamma, "--gamma"), r0,
                                   **_given(tol=args.tol))
    payload = {
        "gamma": col.gamma, "r0": col.r0, "theta0": col.theta0,
        "threshold": col.threshold, "z1": col.z1, "z2": col.z2,
        "image_gap": col.image_gap, "im_f": col.im_f,
    }
    lines = [
        f"gamma     = {col.gamma:.12g}",
        f"feasible r0 > {col.threshold:.12g}; using r0 = {col.r0:.12g}",
        f"theta0    = {col.theta0:.12g}",
        f"z1        = {_cfmt(col.z1)}",
        f"z2        = {_cfmt(col.z2)}  (conjugate pair)",
        f"|f(z1)-f(z2)| = {col.image_gap:.3e}",
        f"Im f(z1)  = {col.im_f:.3e}",
    ]
    return _emit(args, payload, lines, 0)


def cmd_area(args) -> int:
    f = family_from_spec(args.family)
    r = parse_real(args.r, "--r")
    val, route, terms = area(f, r, **_given(tol=args.tol))
    # a polynomial h' has a finite Parseval sum, which is then exact
    closed = val if isinstance(f.kernel, PolyKernel) else None
    payload = {"family": f.label, "r": r, "area": val, "closed_form": closed,
               "route": route, "terms": terms}
    lines = [f"area(|z|<{r:g}) under {f.label} = {val:.12g}"]
    if closed is not None:
        lines.append(f"closed form             = {closed:.12g}")
    code = 0
    if args.cls is not None:
        ab = area_bounds(_parse_class(args.cls), r)
        inside = ab.margin(val) >= 0.0
        payload.update({"lower": ab.lower, "upper": ab.upper, "inside": inside})
        lines.append(f"class envelope: [{ab.lower:.12g}, {ab.upper:.12g}] "
                     f"-> {'inside' if inside else 'OUTSIDE'}")
        code = 0 if inside else 1
    return _emit(args, payload, lines, code)


def _zoom_center(spec: str) -> complex:
    name, kv, _ = parse_family_spec(spec)
    if name == "counterexample":
        col = find_symmetric_collision(parse_real(kv["gamma"], "gamma"))
        return complex(col.w.real, 0.0)
    raise ParameterError(
        "the zoom preset needs --center unless the family is a counterexample")


def cmd_render(args) -> int:
    f = family_from_spec(args.family)
    center = None if args.center is None else _parse_complex(args.center, "--center")
    # the zoom preset derives whichever of the two is missing
    if args.preset != "zoom" and (center is None) != (args.half_width is None):
        raise ParameterError("--center and --half-width go together")
    if args.preset == "boundary":
        if args.circles is not None or args.rays is not None:
            raise ParameterError("the boundary preset draws one curve: "
                                 "--circles and --rays do not apply")
        viewport = None if center is None else (center, args.half_width)
        samples = BOUNDARY_SAMPLES if args.samples is None else args.samples
        svg = render_boundary_curve(f, r=args.r, M=samples, viewport=viewport)
        scene_meta = {"family": f.label, "preset": "boundary", "radius": args.r,
                      "samples": samples}
    else:
        half_width = args.half_width
        if args.preset == "zoom":
            if center is None:
                center = _zoom_center(args.family)
            if half_width is None:
                half_width = ZOOM_HALF_WIDTH
        # an explicit 0 is passed on for SceneSpec to validate
        spec = SceneSpec(f.label, radius=args.r, center=center, half_width=half_width,
                         **_given(circles=args.circles, rays=args.rays,
                                  samples_per_curve=args.samples))
        svg = render_image_domain(spec, f)
        # dump_json writes the complex center as [re, im]
        scene_meta = {"preset": args.preset, **_given(**asdict(spec))}

    data = svg.encode("utf-8")
    if args.out:
        Path(args.out).write_bytes(data)
    if args.json:
        manifest = {
            "version": __version__, "config": _config(args),
            "out": args.out, "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(), "scene": scene_meta,
        }
        print(dump_json(manifest))
    elif not args.out:
        sys.stdout.write(svg)
    return 0


# -- parser -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``harmap`` parser, built once per process (parsing leaves it unchanged)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a JSON document instead of text")
    common.add_argument("--out", type=str, default=None,
                        help="write the output to this file instead of stdout")

    top = argparse.ArgumentParser(
        prog="harmap",
        description="Harmonic-mapping toolkit: evaluate shear-constructed "
                    "mappings, verify sharp coefficient/growth/area bounds, "
                    "hunt injectivity failures, render image domains.")
    top.add_argument("--version", action="version", version=f"harmap {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate f, h, g, dilatation, Jacobian at a point")
    p.add_argument("--family", required=True,
                   help="family spec, e.g. identity | counterexample:gamma=5/4 "
                        "| bl:lam=0.3 | extremal:alpha=0.5,zeta=0.5,n=1 "
                        "| from-h:path=coeffs.json")
    p.add_argument("--z", required=True, help="evaluation point as 're,im' (--z=-0.3,0.1 when it starts with -)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check", parents=[common],
                       help="class-membership and curvature-condition checks")
    p.add_argument("--family", required=True)
    p.add_argument("--cls", "--class", dest="cls", default=None,
                   metavar="ALPHA,ZETA,N",
                   help="curvature-bounded shear class parameters")
    p.add_argument("--pbeta", default=None, metavar="BETA",
                   help="curvature-above-beta class with dilatation z")
    p.add_argument("--theorem-b", default=None, metavar="LRE,LIM,K,N",
                   help="unimodular-weight membership variant")
    p.add_argument("--tol", type=_tolerance, default=None,
                   help="tolerance of the check (default 1e-8)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify-bounds", parents=[common],
                       help="sweep sharp-bound verifications over a parameter lattice")
    p.add_argument("--what", choices=["coefficients", "growth", "covering",
                                      "area", "all"], default="all")
    p.add_argument("--alphas", default="0,0.25,0.5,0.75")
    p.add_argument("--zetas", default="0,0.3",
                   help="absolute zeta values (skipped when inadmissible)")
    p.add_argument("--zeta-rel", dest="zeta_rel", default="0.99",
                   help="zeta values as fractions of the cap 1/(2n-1)")
    p.add_argument("--ns", default="1,2,3")
    p.add_argument("--radii", default="0.1,0.3,0.5,0.7,0.9")
    p.add_argument("--area-radii", dest="area_radii", default="0.2,0.5,0.8")
    p.add_argument("--kmax", type=int, default=12)
    p.add_argument("--tol", type=_tolerance, default=None,
                   help="one tolerance for every check but the area sandwich "
                        "(default: each check's own)")
    p.set_defaults(func=cmd_verify_bounds)

    p = sub.add_parser("univalence", parents=[common],
                       help="grid scan for injectivity failures")
    p.add_argument("--family", required=True)
    p.add_argument("--r", type=float, default=DEFAULT_SCAN_RADIUS)
    p.add_argument("--cells", type=int, default=DEFAULT_CELLS)
    p.add_argument("--collision-tol", dest="collision_tol", type=_tolerance,
                   default=DEFAULT_COLLISION_TOL)
    p.add_argument("--separation-floor", dest="separation_floor", type=_tolerance,
                   default=DEFAULT_SEPARATION_FLOOR)
    p.set_defaults(func=cmd_univalence)

    p = sub.add_parser("counterexample", parents=[common],
                       help="construct the symmetric collision pair of the "
                            "counterexample family")
    p.add_argument("--gamma", required=True, help="exponent in (1, 7/4]; fractions ok")
    p.add_argument("--r0", default=None,
                   help="explicit collision radius (default: feasible midpoint)")
    p.add_argument("--tol", type=_tolerance, default=None,
                   help="tolerance of the collision solve (default 1e-12)")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("area", parents=[common],
                       help="image area from the Taylor series of h' (disk "
                            "quadrature only very near the boundary)")
    p.add_argument("--family", required=True)
    p.add_argument("--r", required=True, help="disk radius in (0, 1)")
    p.add_argument("--cls", "--class", dest="cls", default=None,
                   metavar="ALPHA,ZETA,N",
                   help="also check the class area envelope")
    p.add_argument("--tol", type=_tolerance, default=None,
                   help="relative tolerance of the disk quadrature (default 1e-9); "
                        "it runs only past 2^22 series terms, very near the "
                        "boundary, so below that the area does not depend on it")
    p.set_defaults(func=cmd_area)

    p = sub.add_parser("render", parents=[common],
                       help="deterministic SVG of the image domain")
    p.add_argument("--family", required=True)
    p.add_argument("--preset", choices=["overview", "zoom", "boundary", "custom"],
                   default="overview")
    p.add_argument("--r", type=float, default=DEFAULT_RADIUS)
    p.add_argument("--circles", type=int, default=None)
    p.add_argument("--rays", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--center", default=None, help="viewport center 're,im' (--center=-0.5,0 when it starts with -)")
    p.add_argument("--half-width", dest="half_width", type=float, default=None)
    p.set_defaults(func=cmd_render)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HarmapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
