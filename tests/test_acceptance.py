"""Acceptance gate: one test per release criterion, at pinned tolerances.

Run with ``pytest -v`` to get exactly one pass/fail line per criterion.
Each test is self-contained (builds its own mappings) and asserts with the
tolerances fixed below; nothing here is tunable from the command line.
"""

import hashlib
import json
import math
import re
import time

import numpy as np
import pytest

from harmap.bounds import (
    area,
    coeff_bound_a,
    coeff_bound_b,
    covering_radius,
    default_lattice,
    growth_bounds,
    verify_area_sandwich,
    verify_coeff_relation,
    verify_growth_consistency,
    verify_sharpness,
)
from harmap.classcheck import cc_radius, curvature_extrema, kaplan_min_arc_integral
from harmap.mappings import (
    ClassParams,
    HarmonicMapping,
    PolyKernel,
    _derivative,
    make_bshouty_lyzzaik,
    make_counterexample,
    make_extremal,
)
from harmap.render import CANVAS_STEPS, SceneSpec, render_image_domain
from harmap.special import hyp2f1
from harmap.univalence import (
    feasibility_threshold,
    find_symmetric_collision,
    univalence_scan,
)

from conftest import CLI_LATTICE


def test_criterion_01_collision_pair_reproduced():
    """Two distinct points of the gamma=5/4 family share an image value."""
    t0 = time.perf_counter()
    col = find_symmetric_collision(1.25)
    elapsed = time.perf_counter() - t0

    f = make_counterexample(1.25)
    w1, w2 = complex(f(col.z1)), complex(f(col.z2))

    assert elapsed < 5.0, f"construction took {elapsed:.2f}s (budget 5s)"
    assert abs(col.z1 - col.z2) > 0.05
    assert abs(w1 - w2) < 1e-8
    assert abs(col.z2 - np.conj(col.z1)) < 1e-10
    assert abs(w1.imag) < 1e-10


def test_criterion_02_curvature_supremum_constant():
    """sup Re(1 + z h''/h') for h = z - (3/10) z^2 equals 11/8 within 1e-3."""
    f = make_bshouty_lyzzaik(0.3)
    rep = curvature_extrema(f)  # default grid reaches r = 1 - 1e-4
    assert rep.sup_est == pytest.approx(11.0 / 8.0, abs=1e-3), rep.sup_est


def test_criterion_03_scan_threshold_verdicts():
    """Grid scans at r=0.999, 512 cells: lam=0.30 certified, lam=0.40 collides."""
    f_ok = make_bshouty_lyzzaik(0.30)
    t0 = time.perf_counter()
    rep_ok = univalence_scan(f_ok, r=0.999, cells=512)
    t_ok = time.perf_counter() - t0
    assert rep_ok.verdict == "certified-at-resolution", rep_ok.summary()
    assert t_ok < 30.0, f"lam=0.30 scan took {t_ok:.1f}s (budget 30s)"

    f_bad = make_bshouty_lyzzaik(0.40)
    t0 = time.perf_counter()
    rep_bad = univalence_scan(f_bad, r=0.999, cells=512)
    t_bad = time.perf_counter() - t0
    assert rep_bad.verdict == "collision", rep_bad.summary()
    assert t_bad < 30.0, f"lam=0.40 scan took {t_bad:.1f}s (budget 30s)"
    # the reported pair is a genuine refined collision
    assert rep_bad.image_gap < 1e-8
    assert abs(f_bad(rep_bad.z1) - f_bad(rep_bad.z2)) < 1e-8
    assert rep_bad.separation > 0.05


def test_criterion_04_coefficient_sharpness():
    """Extremal Taylor coefficients attain the stated bounds within 1e-10."""
    for alpha in (0.0, 0.25, 0.5, 0.75):
        for n in (1, 2):
            zeta = 0.9 / (2 * n - 1)
            params = ClassParams(alpha, zeta, n)
            f = make_extremal(params, 1.0)
            th, tg = f.taylor(12)
            for k in range(2, 13):
                got = abs(th[k])
                want = coeff_bound_a(k, alpha)
                assert abs(got - want) < 1e-10, (alpha, n, "a", k)
            for k in range(1, 13):
                got = abs(tg[k + n])
                want = coeff_bound_b(k, n, alpha, zeta)
                assert abs(got - want) < 1e-10, (alpha, n, "b", k)
            rel = verify_coeff_relation(f, n, zeta, K=12)
            assert rel.passed, rel.summary()
            assert rel.details["max_residual"] < 1e-12


def test_criterion_05_growth_consistency_and_sharpness():
    """Closed-form and quadrature growth bounds agree to 1e-9; extremal attains them to 1e-8."""
    r_list = (0.1, 0.3, 0.5, 0.7, 0.9)
    for params in default_lattice(*CLI_LATTICE):
        rep = verify_growth_consistency(params, r_list)
        assert rep.passed, (params, rep.summary())
        assert rep.witness["value"] < 1e-9  # worst closed-vs-quadrature gap
    for params in default_lattice(*CLI_LATTICE):
        if abs(params.zeta.imag) > 0:
            continue
        sharp = verify_sharpness(params, r_list, tol=1e-8)
        assert sharp.passed, (params, sharp.summary())


def test_criterion_06_covering_constants():
    """Covering radius: log 2, then 2 log 2 - 1 against an independent series oracle."""
    got_log2 = covering_radius(ClassParams(0.5, 0.0, 1))
    assert abs(got_log2 - math.log(2.0)) < 1e-12

    got = covering_radius(ClassParams(0.5, 1.0, 1))
    exact = 2.0 * math.log(2.0) - 1.0
    assert abs(got - exact) < 1e-9

    # independent series oracle, two layers:
    # (a) high precision via mpmath's own hypergeometric implementation
    #     (covering value = log 2 - (1/2) * 2F1(1,2;3;-1)),
    mpmath = pytest.importorskip("mpmath")
    mp_oracle = math.log(2.0) - 0.5 * float(mpmath.hyp2f1(1, 2, 3, -1))
    assert abs(got - mp_oracle) < 1e-9
    # (b) direct partial summation of that series: term_k = 2(-1)^k/(k+2),
    #     summed in adjacent pairs with a rigorous remainder bound
    M = 5000
    pair_sum = sum(2.0 / ((2 * m + 2) * (2 * m + 3)) for m in range(M))
    tail = 1.0 / (2.0 * M)  # sum_{m>=M} 2/((2m+2)(2m+3)) < 1/(2M)
    series_value = math.log(2.0) - 0.5 * pair_sum
    assert abs(got - series_value) < 0.5 * tail + 1e-9

    # the covering radius is the r -> 1 limit of the growth lower bound
    phi_near_one = growth_bounds(1.0 - 1e-6, ClassParams(0.5, 1.0, 1)).phi
    assert abs(got - phi_near_one) < 1e-4


def test_criterion_07_area_closed_form_and_sandwich():
    """Monomial-shear areas match the closed form to 1e-9; lattice areas sit inside the envelope."""
    for zeta, n, r in ((0.6, 1, 0.5), (0.3, 2, 0.7), (0.9, 1, 0.3)):
        h = [0.0, 1.0] + [0.0] * (n + 1)
        f = HarmonicMapping(PolyKernel(_derivative(h, "h")), zeta, n, "from-h")
        want = math.pi * r * r - math.pi * zeta * zeta * r ** (2 * n + 2) / (n + 1)
        assert area(f, r)[0] == pytest.approx(want, rel=1e-9, abs=1e-12), (zeta, n, r)

    for params in default_lattice(*CLI_LATTICE):
        rep = verify_area_sandwich(params, r_list=(0.2, 0.5, 0.8))
        assert rep.passed, (params, rep.summary())


def test_criterion_08_close_to_convexity_radius():
    """cc radius (1/3 at alpha=-1/4, n=2); arc criterion holds below it for 32 weights."""
    rc = cc_radius(-0.25, 2)
    assert rc == pytest.approx(1.0 / 3.0, abs=1e-15)

    f = make_extremal(ClassParams(-0.25, 1.0 / 3.0, 2), 1.0)
    lams = np.exp(2j * np.pi * np.arange(32) / 32)

    # hard direction: at 0.95 * rc every sampled weight keeps the minimum
    # arc integral above -pi (here it is in fact positive, minimum ~ +0.0022)
    vals = [kaplan_min_arc_integral(f, 2, lam, 0.95 * rc, M=512)
            for lam in lams]
    assert min(vals) > -math.pi, f"min arc integral {min(vals)} at 0.95*rc"

    # soft direction (the bound is sufficient, not claimed sharp): somewhere
    # above rc the criterion does fail for some sampled weight
    violated = False
    for r_hi in (0.97, 0.99):
        vals_hi = [kaplan_min_arc_integral(f, 2, lam, r_hi, M=512)
                   for lam in lams]
        if min(vals_hi) < -math.pi:
            violated = True
            break
    assert violated, "no arc-criterion violation found above the radius"


def test_criterion_09_hypergeometric_identities():
    """2F1(1,1;2;x) = -log(1-x)/x and the Euler transformation, both to 1e-10,
    on real x in [-1, 0.9] (all three branches of the evaluator)."""
    rng = np.random.default_rng(2024)
    count = 0
    while count < 100:
        x = rng.uniform(-1.0, 0.9)
        if abs(x) < 1e-8:
            continue
        count += 1
        resid = hyp2f1(1.0, 1.0, 2.0, x) + math.log1p(-x) / x
        assert abs(resid) < 1e-10, f"log identity off by {abs(resid)} at {x}"

    triples = ((0.5, 0.75, 1.75), (1.0, 2.0, 3.5), (0.3, 1.2, 2.1), (1.5, 0.25, 2.0))
    for _ in range(25):
        x = rng.uniform(-1.0, 0.9)
        for a, b, c in triples:
            lhs = hyp2f1(a, b, c, x)
            rhs = (1.0 - x) ** (c - a - b) * hyp2f1(c - a, c - b, c, x)
            assert abs(lhs - rhs) < 1e-10, (a, b, c, x)


def test_criterion_10_deterministic_figures(tmp_path):
    """Byte-stable whole-image and collision-zoom SVGs with mirror symmetry."""
    f = make_counterexample(1.25)
    col = find_symmetric_collision(1.25)
    w0 = complex(f(col.z1))

    fig1_spec = SceneSpec(f.label, radius=0.999)
    fig2_spec = SceneSpec(f.label, radius=0.999, center=complex(w0.real, 0.0),
                          half_width=0.05)

    fig1_a = render_image_domain(fig1_spec, f)
    fig1_b = render_image_domain(fig1_spec, f)
    fig2_a = render_image_domain(fig2_spec, f)
    fig2_b = render_image_domain(fig2_spec, f)

    # byte determinism (hashes of two independent renders coincide)
    assert hashlib.sha256(fig1_a.encode()).digest() == \
        hashlib.sha256(fig1_b.encode()).digest()
    assert hashlib.sha256(fig2_a.encode()).digest() == \
        hashlib.sha256(fig2_b.encode()).digest()
    (tmp_path / "figure1.svg").write_text(fig1_a, encoding="utf-8")
    (tmp_path / "figure2.svg").write_text(fig2_a, encoding="utf-8")

    # the emitted point set of the whole-image figure mirrors across the real
    # axis: its centre lies on the axis, so canvas row py goes to S - py exactly
    assert json.loads(re.search(r"<!-- scene: (.*?) -->", fig1_a).group(1))["center"][1] == 0.0
    pts = np.array([[int(v) for v in pair.split(",")]
                    for chunk in re.findall(r'points="([^"]*)"', fig1_a)
                    for pair in chunk.split()])
    mirrored = np.column_stack([pts[:, 0], CANVAS_STEPS - pts[:, 1]])
    assert np.array_equal(pts[np.lexsort(pts.T[::-1])], mirrored[np.lexsort(mirrored.T[::-1])])

    # the collision image appears inside the zoom viewport
    meta = json.loads(re.search(r"<!-- scene: (.*?) -->", fig2_a).group(1))
    cx, cy = meta["center"]
    hw = meta["half_width"]
    w1, w2 = complex(f(col.z1)), complex(f(col.z2))
    assert abs(w1 - w2) < 1e-8
    for w in (w1, w2):
        assert abs(w.real - cx) <= hw and abs(w.imag - cy) <= hw
