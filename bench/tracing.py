"""Outside-in tracing of the harmap layers for the benchmark's traced runs.

Nothing inside ``harmap`` is modified.  While a traced batch runs, the public
names that ``harmap.cli`` and ``harmap.bounds`` imported from the other modules
are replaced by timing wrappers, and every mapping they build is replaced by a
copy whose evaluators count the points they see.  Each call becomes a span
(name, start, end, parent, job); spans stay in memory and are reduced to the
per-layer metrics at the end of the run.  A layer's self time is its spans'
duration minus the part of it that child spans cover.

A name that a later version of the package no longer has is skipped; the
metrics that depend on it are reported as missing instead of failing the run.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import re
import statistics
from collections import Counter
from time import perf_counter

import numpy as np


@dataclasses.dataclass
class Span:
    name: str          # "layer:function"
    start: float
    end: float
    parent: int        # index of the enclosing span, -1 for a job root
    job: int

    @property
    def layer(self) -> str:
        return self.name.split(":", 1)[0]


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span (so it is never negative)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out.append(max(s.end - s.start - covered, 0.0))
    return out


class Tracer:
    """Collects spans and counters for the traced batches of one run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.open_names: Counter = Counter()
        self.counts: Counter = Counter()
        self.curve_tags = 0
        self.job = -1
        self.batches = 0
        self.jobs = 0

    def open(self, name: str) -> int:
        self.spans.append(Span(name, perf_counter(), 0.0,
                               self.stack[-1] if self.stack else -1, self.job))
        self.stack.append(len(self.spans) - 1)
        self.open_names[name] += 1
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self.stack.pop()
        self.open_names[self.spans[idx].name] -= 1

    def span(self, name: str, fn, args_hook=None, result_hook=None):
        """``fn`` wrapped in a span; hooks may rewrite arguments before the
        call and inspect the result after the span has closed."""

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if args_hook is not None:
                args = args_hook(args)
            i = self.open(name)
            try:
                out = fn(*args, **kw)
            finally:
                self.close(i)
            if result_hook is not None:
                try:
                    out = result_hook(out)
                except (AttributeError, TypeError, KeyError, ValueError, IndexError):
                    # a result whose shape changed is not counted, not a failed job
                    self.counts["trace.hook_errors"] += 1
            return out

        return wrapper

    def start_job(self) -> None:
        self.job += 1
        self.jobs += 1

    # -- counting evaluators ------------------------------------------------

    def _evaluator(self, part: str, fn):
        in_scan = "univalence:univalence_scan"
        in_render = ("render:render_image_domain", "render:render_boundary_curve")

        def wrapper(z, *args, **kw):
            n = int(np.size(z))
            i = self.open("mappings:eval")
            try:
                return fn(z, *args, **kw)
            finally:
                self.close(i)
                self.counts["mappings.points"] += n
                if part == "h.deriv" and self.open_names[in_scan]:
                    self.counts["univalence.refine_points"] += n
                if part == "h.value" and any(self.open_names[r] for r in in_render):
                    self.counts["render.eval_calls"] += 1

        return wrapper

    def wrap_mapping(self, f):
        """A copy of ``f`` whose ``h``/``g`` evaluators count their points."""
        g = copy.copy(f)
        for side in ("h", "g"):
            part = getattr(f, side)
            fields = {k: self._evaluator(f"{side}.{k}", v)
                      for k, v in (("value", part.value), ("deriv", part.deriv),
                                   ("deriv2", part.deriv2)) if v is not None}
            setattr(g, side, dataclasses.replace(part, **fields))
        return g

    def counting(self, key: str, fn):
        def integrand(x):
            self.counts[key] += int(np.size(x))
            return fn(x)
        return integrand


# -- what gets patched -----------------------------------------------------------

_VERIFY = ("verify_area_sandwich", "verify_coeff_relation", "verify_coeff_sharpness",
           "verify_covering_consistency", "verify_growth_consistency", "verify_sharpness")
_CHECK = ("check_membership", "check_pbeta", "check_theorem_b_condition")
_RENDER = ("render_image_domain", "render_boundary_curve")
_POINTS_ATTR = re.compile(r'points="([^"]*)"')
_CLASS_ATTR = re.compile(r'class="([^"]*)"')


def _patch_table(tr: Tracer):
    """(module key, name, span name, args hook, result hook) per patched name."""

    def mapping_result(f):
        try:
            return tr.wrap_mapping(f)
        except (AttributeError, TypeError):
            tr.counts["missing.evaluators"] = 1
            return f

    def scan_result(report):
        d = getattr(report, "details", {}) or {}
        grid = d.get("grid") or (0, 0)
        tr.counts["univalence.grid_points"] += int(grid[0]) * int(grid[1])
        tr.counts["univalence.candidates"] += int(d.get("candidates_refined", 0))
        tr.counts["univalence.truncated"] += int(bool(d.get("truncated", False)))
        return report

    def check_result(report):
        grid = getattr(report, "grid", None) or {}
        tr.counts["classcheck.grid_points"] += (len(grid.get("radii", ()))
                                                * int(grid.get("angles_per_circle", 0)))
        return report

    def render_result(svg):
        tr.counts["render.svg_bytes"] += len(svg.encode("utf-8"))
        runs = _POINTS_ATTR.findall(svg)
        tr.counts["render.curves"] += len(runs)
        tr.counts["render.points"] += sum(r.count(" ") + 1 for r in runs if r)
        tr.curve_tags += len(set(_CLASS_ATTR.findall(svg)))
        return svg

    def dump_result(text):
        tr.counts["reports.json_bytes"] += len(text.encode("utf-8"))
        return text

    def first_arg(key):
        return lambda args: (tr.counting(key, args[0]),) + tuple(args[1:])

    rows = [
        ("cli", "family_from_spec", "mappings:family_from_spec", None, mapping_result),
        ("cli", "make_extremal", "mappings:make_extremal", None, mapping_result),
        ("bounds", "make_extremal", "mappings:make_extremal", None, mapping_result),
        ("cli", "univalence_scan", "univalence:univalence_scan", None, scan_result),
        ("cli", "find_symmetric_collision", "univalence:find_symmetric_collision",
         None, None),
        ("cli", "area", "bounds:area", None, None),
        ("cli", "area_bounds", "bounds:area_bounds", None, None),
        ("cli", "dump_json", "reports:dump_json", None, dump_result),
        ("bounds", "disk_integral", "quadrature:disk_integral",
         first_arg("quadrature.disk_points"), None),
        ("bounds", "integrate_real", "quadrature:integrate_real",
         first_arg("quadrature.line_points"), None),
        ("bounds", "hyp2f1", "special:hyp2f1", None, None),
    ]
    rows += [("cli", n, f"bounds:{n}", None, None) for n in _VERIFY]
    rows += [("cli", n, f"classcheck:{n}", None, check_result) for n in _CHECK]
    rows += [("cli", n, f"render:{n}", None, render_result) for n in _RENDER]
    return rows


class Patches:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, tracer: Tracer, modules: dict):
        self.tracer = tracer
        self.modules = modules
        self.saved: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def __enter__(self):
        for key, name, span, args_hook, result_hook in _patch_table(self.tracer):
            mod = self.modules[key]
            orig = getattr(mod, name, None)
            if not callable(orig):
                self.missing.add(f"{key}.{name}")
                continue
            self.saved.append((mod, name, orig))
            setattr(mod, name, self.tracer.span(span, orig, args_hook, result_hook))
        return self

    def __exit__(self, *exc):
        for mod, name, orig in reversed(self.saved):
            setattr(mod, name, orig)
        self.saved.clear()
        return False


# -- reduction to per-layer metrics ------------------------------------------------

_EVAL = ("evaluators",)
_VERIFY_ANY = tuple(f"cli.{n}" for n in _VERIFY)
_CHECK_ANY = tuple(f"cli.{n}" for n in _CHECK)
_RENDER_ANY = tuple(f"cli.{n}" for n in _RENDER)

#: metric -> groups of patched names ("evaluators" for the counting mapping
#: copies); the metric is missing when every name of some group is missing
REQUIRES = {
    "mappings.calls": (_EVAL,),
    "mappings.points": (_EVAL,),
    "mappings.eval_s": (_EVAL,),
    "mappings.ns_per_point": (_EVAL,),
    "mappings.us_per_call": (_EVAL,),
    "mappings.build_ms": (("cli.family_from_spec", "cli.make_extremal",
                           "bounds.make_extremal"),),
    "univalence.grid_points": (("cli.univalence_scan",),),
    "univalence.candidates": (("cli.univalence_scan",),),
    "univalence.candidates_per_point": (("cli.univalence_scan",),),
    "univalence.truncated": (("cli.univalence_scan",),),
    "univalence.refine_points": (("cli.univalence_scan",), _EVAL),
    "univalence.self_s": (("cli.univalence_scan",),),
    "univalence.collision_ms": (("cli.find_symmetric_collision",),),
    "quadrature.disk_calls": (("bounds.disk_integral",),),
    "quadrature.disk_points_per_call": (("bounds.disk_integral",),),
    "quadrature.disk_self_s": (("bounds.disk_integral",),),
    "quadrature.line_calls": (("bounds.integrate_real",),),
    "quadrature.line_points": (("bounds.integrate_real",),),
    "quadrature.line_s": (("bounds.integrate_real",),),
    "special.hyp2f1_calls": (("bounds.hyp2f1",),),
    "special.hyp2f1_us_per_call": (("bounds.hyp2f1",),),
    "bounds.verify_calls": (_VERIFY_ANY,),
    "bounds.self_s": (_VERIFY_ANY,),
    "classcheck.calls": (_CHECK_ANY,),
    "classcheck.grid_points": (_CHECK_ANY,),
    "classcheck.self_ms_per_call": (_CHECK_ANY,),
    "render.calls": (_RENDER_ANY,),
    "render.curves": (_RENDER_ANY,),
    "render.points_per_curve": (_RENDER_ANY,),
    "render.svg_bytes": (_RENDER_ANY,),
    "render.eval_calls_per_curve": (_RENDER_ANY, _EVAL),
    "render.self_ms_per_call": (_RENDER_ANY,),
    "reports.dump_ms": (("cli.dump_json",),),
    "reports.json_bytes": (("cli.dump_json",),),
    "cli.self_ms_per_job": (),
    "trace.overhead": (),
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, missing: set[str], traced_walls: list[float],
                  untraced_walls: list[float]) -> tuple[dict, list[str]]:
    """Per-batch layer metrics from the collected spans and counters.

    Counts are per batch (every batch runs the same jobs, so they are
    exact); times are per batch or per call as the metric name says.
    """
    B = max(tr.batches, 1)
    selfs = self_times(tr.spans)
    n_calls: Counter = Counter()
    dur: Counter = Counter()
    own: Counter = Counter()
    for s, st in zip(tr.spans, selfs):
        n_calls[s.name] += 1
        dur[s.name] += s.end - s.start
        own[s.name] += st
        own["layer:" + s.layer] += st

    def group(prefix, names):
        return (sum(n_calls[f"{prefix}:{n}"] for n in names),
                sum(dur[f"{prefix}:{n}"] for n in names),
                sum(own[f"{prefix}:{n}"] for n in names))

    c = tr.counts
    ev_calls, ev_s = n_calls["mappings:eval"], own["mappings:eval"]
    builds, build_s, _ = group("mappings", ("family_from_spec", "make_extremal"))
    coll_calls, coll_s, _ = group("univalence", ("find_symmetric_collision",))
    disk_calls, _, disk_self = group("quadrature", ("disk_integral",))
    line_calls, line_s, _ = group("quadrature", ("integrate_real",))
    hyp_calls, hyp_s, _ = group("special", ("hyp2f1",))
    verify_calls = group("bounds", _VERIFY)[0]
    check_calls, _, check_self = group("classcheck", _CHECK)
    render_calls, _, render_self = group("render", _RENDER)
    dump_calls, dump_s, _ = group("reports", ("dump_json",))

    m = {
        "mappings.calls": ev_calls / B,
        "mappings.points": c["mappings.points"] / B,
        "mappings.eval_s": ev_s / B,
        "mappings.ns_per_point": 1e9 * _ratio(ev_s, c["mappings.points"]),
        "mappings.us_per_call": 1e6 * _ratio(ev_s, ev_calls),
        "mappings.build_ms": 1e3 * _ratio(build_s, builds),
        "univalence.grid_points": c["univalence.grid_points"] / B,
        "univalence.candidates": c["univalence.candidates"] / B,
        "univalence.candidates_per_point": _ratio(c["univalence.candidates"],
                                                  c["univalence.grid_points"]),
        "univalence.truncated": c["univalence.truncated"] / B,
        "univalence.refine_points": c["univalence.refine_points"] / B,
        "univalence.self_s": own["layer:univalence"] / B,
        "univalence.collision_ms": 1e3 * _ratio(coll_s, coll_calls),
        "quadrature.disk_calls": disk_calls / B,
        "quadrature.disk_points_per_call": _ratio(c["quadrature.disk_points"], disk_calls),
        "quadrature.disk_self_s": disk_self / B,
        "quadrature.line_calls": line_calls / B,
        "quadrature.line_points": c["quadrature.line_points"] / B,
        "quadrature.line_s": line_s / B,
        "special.hyp2f1_calls": hyp_calls / B,
        "special.hyp2f1_us_per_call": 1e6 * _ratio(hyp_s, hyp_calls),
        "bounds.verify_calls": verify_calls / B,
        "bounds.self_s": own["layer:bounds"] / B,
        "classcheck.calls": check_calls / B,
        "classcheck.grid_points": c["classcheck.grid_points"] / B,
        "classcheck.self_ms_per_call": 1e3 * _ratio(check_self, check_calls),
        "render.calls": render_calls / B,
        "render.curves": c["render.curves"] / B,
        "render.points_per_curve": _ratio(c["render.points"], c["render.curves"]),
        "render.svg_bytes": c["render.svg_bytes"] / B,
        "render.eval_calls_per_curve": _ratio(c["render.eval_calls"], tr.curve_tags),
        "render.self_ms_per_call": 1e3 * _ratio(render_self, render_calls),
        "reports.dump_ms": 1e3 * _ratio(dump_s, dump_calls),
        "reports.json_bytes": _ratio(c["reports.json_bytes"], dump_calls),
        "cli.self_ms_per_job": 1e3 * _ratio(own["layer:cli"], tr.jobs),
        "trace.overhead": _ratio(statistics.median(traced_walls),
                                 statistics.median(untraced_walls)),
    }
    gone = set(missing) | ({"evaluators"} if c["missing.evaluators"] else set())
    dropped = sorted(k for k, groups in REQUIRES.items()
                     if any(set(group) <= gone for group in groups))
    for k in dropped:
        m.pop(k)
    return m, dropped
