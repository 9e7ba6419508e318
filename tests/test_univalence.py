"""Collision construction, winding numbers, and the injectivity grid scan."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmap import cli, univalence
from harmap.errors import InfeasibilityError, OnCurveError, ParameterError
from harmap.mappings import (
    family_from_spec,
    is_conjugate_symmetric,
    make_bshouty_lyzzaik,
    make_counterexample,
    make_from_h,
    make_identity,
)
from harmap.series import PowerSeries
from harmap.univalence import (
    CollisionSearchParams,
    feasibility_threshold,
    find_symmetric_collision,
    univalence_scan,
    winding_check,
)


# -- feasibility threshold ----------------------------------------------------


def test_threshold_value():
    got = feasibility_threshold(1.25)
    assert got == pytest.approx(math.sin(math.pi / 2.25), abs=1e-15)
    assert got == pytest.approx(0.984807753012208, abs=1e-15)


def test_threshold_monotone_decreasing_in_gamma():
    gammas = np.linspace(1.05, 1.75, 8)
    vals = [feasibility_threshold(g) for g in gammas]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_threshold_domain():
    for g in (1.0, 0.9, 1.76, 2.0):
        with pytest.raises(ParameterError):
            feasibility_threshold(g)


# -- symmetric collision pair -------------------------------------------------


def test_collision_construction_reference_values():
    col = find_symmetric_collision(CollisionSearchParams(1.25))
    assert col.r0 == pytest.approx(0.9924038765061041, abs=1e-12)
    assert col.theta0 == pytest.approx(0.05072621409183507, abs=1e-12)
    assert col.z1 == pytest.approx(0.991127348845925 + 0.05031930518191549j,
                                   abs=1e-12)
    assert col.z2 == np.conj(col.z1)
    assert col.image_gap < 1e-10
    assert abs(col.im_f) < 1e-10
    assert abs(col.z1 - col.z2) > 0.05


def test_collision_phase_equation():
    # the construction solves arg(1 - r0 e^(i theta)) = -pi/(gamma+1),
    # equivalently sin((gamma+1) * arg(1 - r0 e^(i theta0))) = 0
    for gamma in (1.1, 1.25, 1.5, 1.75):
        col = find_symmetric_collision(CollisionSearchParams(gamma))
        phase = cmath.phase(1.0 - col.r0 * cmath.exp(1j * col.theta0))
        assert abs(phase + math.pi / (gamma + 1.0)) < 1e-10
        assert abs(math.sin((gamma + 1.0) * phase)) < 1e-9


def test_collision_across_gamma_grid():
    for gamma in (1.05, 1.2, 1.4, 1.6, 1.75):
        col = find_symmetric_collision(CollisionSearchParams(gamma))
        f = make_counterexample(gamma)
        # direct re-evaluation: two distinct points, equal images
        w1, w2 = f(col.z1), f(col.z2)
        assert abs(col.z1 - col.z2) > 1e-3
        assert abs(w1 - w2) < 1e-8
        assert col.r0 > feasibility_threshold(gamma)
        assert col.threshold == pytest.approx(feasibility_threshold(gamma))


def test_collision_image_is_real():
    # conjugate-symmetric family: the common image lies on the real axis
    col = find_symmetric_collision(CollisionSearchParams(1.25))
    f = make_counterexample(1.25)
    assert abs(f(col.z1).imag) < 1e-10


def test_collision_explicit_radius():
    thr = feasibility_threshold(1.25)
    r0 = 0.5 * (thr + 1.0) + 0.002
    col = find_symmetric_collision(CollisionSearchParams(1.25, r0=r0))
    assert col.r0 == pytest.approx(r0)
    assert col.image_gap < 1e-10


def test_collision_infeasible_radius_raises():
    with pytest.raises(InfeasibilityError):
        find_symmetric_collision(CollisionSearchParams(1.25, r0=0.9))


def test_imaginary_part_antisymmetry():
    f = make_counterexample(1.25)
    rng = np.random.default_rng(73)
    for _ in range(30):
        r = rng.uniform(0.1, 0.995)
        t = rng.uniform(0.0, math.pi)
        up = f(r * cmath.exp(1j * t))
        dn = f(r * cmath.exp(-1j * t))
        assert abs(up.imag + dn.imag) < 1e-12


# -- winding numbers ----------------------------------------------------------


def test_winding_identity():
    f = make_identity()
    assert winding_check(f, 0.5, 0.0) == 1
    assert winding_check(f, 0.5, 0.3 + 0.2j) == 1
    assert winding_check(f, 0.5, 0.7) == 0
    assert winding_check(f, 0.5, -2.0j) == 0


def test_winding_on_curve_raises():
    f = make_identity()
    with pytest.raises(OnCurveError):
        winding_check(f, 0.5, 0.5 + 0.0j)


def test_winding_on_univalent_restriction():
    # below the feasibility threshold the branched family is injective,
    # so interior image points are covered exactly once
    f = make_counterexample(1.25)
    assert winding_check(f, 0.9, complex(f(0.0))) == 1
    assert winding_check(f, 0.9, 10.0 + 0.0j) == 0


def test_winding_clamps_small_sampling():
    # M below 256 is clamped up, not rejected
    f = make_identity()
    assert winding_check(f, 0.5, 0.0, M=8) == 1
    with pytest.raises(ParameterError):
        winding_check(f, 1.5, 0.0)


# -- grid scan ----------------------------------------------------------------


def test_scan_identity_certified():
    f = make_identity()
    report = univalence_scan(f, r=0.9, cells=64)
    assert report.verdict == "certified-at-resolution"
    assert report.certified
    assert report.z1 is None and report.z2 is None
    assert report.details["family"] == "identity"


def test_scan_parameter_validation():
    f = make_identity()
    with pytest.raises(ParameterError):
        univalence_scan(f, r=1.0, cells=64)
    with pytest.raises(ParameterError):
        univalence_scan(f, r=0.9, cells=32)


def test_scan_report_shape():
    f = make_identity()
    report = univalence_scan(f, r=0.8, cells=64)
    d = report.to_dict()
    assert d["verdict"] == "certified-at-resolution"
    assert d["resolution"] == 64
    assert "grid" in report.details and "scan_radius" in report.details
    assert "certified-at-resolution" in report.summary()


def _rotated_bl(c2=-0.4 * cmath.exp(0.7j)):
    return make_from_h(PowerSeries([0.0, 1.0, c2]), cmath.exp(2.1j), 1)


def test_scan_finds_collision_of_rotated_map():
    # a rotated, non-univalent bl map: without conjugate symmetry there is no
    # mirror seeding and no tangency anchor, so the witness comes straight
    # from the batch Gauss-Newton refiner
    f = _rotated_bl()
    assert not is_conjugate_symmetric(f)
    report = univalence_scan(f, r=0.999, cells=64, separation_floor=0.2)
    assert report.verdict == "collision"
    assert report.details["anchor"] == "none"
    assert abs(complex(f(report.z1)) - complex(f(report.z2))) <= 1e-8
    assert report.separation >= 0.2


def test_truncated_scan_is_inconclusive(monkeypatch, tmp_path, schema_check):
    # lam = 0.30 is univalent; with the candidate cap forced low the scan
    # cannot refine every pair and must not claim a certificate
    monkeypatch.setattr(univalence, "MAX_CANDIDATES", 1000)
    report = univalence_scan(make_bshouty_lyzzaik(0.30), r=0.999, cells=64)
    assert report.details["truncated"]
    assert report.verdict == "inconclusive"
    assert not report.certified
    assert "inconclusive" in report.summary()

    out = tmp_path / "scan.json"
    code = cli.main(["univalence", "--family", "bl:lam=0.30", "--r", "0.999",
                     "--cells", "64", "--json", "--out", str(out)])
    assert code == 1
    payload = schema_check(json.loads(out.read_text(encoding="utf-8")),
                           "univalence_report.json")
    assert payload["report"]["verdict"] == "inconclusive"
    assert payload["report"]["details"]["truncated"] is True


def test_rotated_map_witness_survives_last_bit_changes():
    # converged gaps are rounding noise; the witness must not follow them
    c2 = -0.4 * cmath.exp(0.7j)
    pairs = []
    for re in (np.nextafter(c2.real, -1.0), c2.real, np.nextafter(c2.real, 1.0)):
        report = univalence_scan(_rotated_bl(complex(re, c2.imag)), r=0.999, cells=64,
                                 separation_floor=0.2)
        assert report.verdict == "collision"
        pairs.append((report.z1, report.z2))
    for z1, z2 in pairs[1:]:
        assert abs(z1 - pairs[0][0]) <= 1e-9 and abs(z2 - pairs[0][1]) <= 1e-9


@pytest.mark.parametrize("lam", [0.3727, 0.40])
def test_symmetric_witness_independent_of_resolution(lam):
    f = make_bshouty_lyzzaik(lam)
    z1s = []
    for cells in (64, 80, 96):
        report = univalence_scan(f, r=0.999, cells=cells, separation_floor=0.2)
        assert report.details["anchor"] == "symmetric-tangency"
        z1s.append(report.z1)
    assert max(abs(z - z1s[0]) for z in z1s) <= 1e-14


def test_scan_certifies_univalent_extremal_map():
    # h is convex and Re(1 + eps*zeta*z) > 0 for |eps| = 1, so f is univalent
    # (Clunie--Sheil-Small); its image gaps vary by more than a factor of 2**7
    # over the grid, which a single cell size cannot follow
    f = family_from_spec("extremal:alpha=0.5,zeta=0.5,n=1")
    report = univalence_scan(f, r=0.99, cells=64)
    d = report.details
    assert report.verdict == "certified-at-resolution"
    assert not d["truncated"]
    assert d["hash_levels"] > 1
    assert d["candidate_pairs"] >= d["candidates_refined"] > 0


@pytest.mark.parametrize("f, r", [
    (make_bshouty_lyzzaik(0.40), 0.999),
    (make_counterexample(1.2), 0.995),
    (_rotated_bl(), 0.999),
    (make_identity(), 0.9),
], ids=["bl-0.40", "counterexample-1.2", "rotated-bl", "identity"])
def test_candidate_pairs_cover_every_close_pair(f, r):
    n_r, n_a, sep_pre = 64, 128, 0.05
    Z = (r * np.arange(1, n_r + 1) / n_r)[:, None] * np.exp(2j * np.pi * np.arange(n_a) / n_a)
    W = f(Z)
    rad = np.zeros(W.shape)
    for i in range(n_r):
        for j in range(n_a):
            for ii, jj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, (j + 1) % n_a)):
                if 0 <= ii < n_r:
                    rad[i, j] = max(rad[i, j], abs(W[i, j] - W[ii, jj]))
    w, z, rad = W.ravel(), Z.ravel(), rad.ravel()
    n_ring, n_sect = 17, 105
    box = (np.minimum((np.abs(z) / r * n_ring).astype(int), n_ring - 1) * n_sect
           + ((np.angle(z) + np.pi) / (2 * np.pi) * n_sect).astype(int) % n_sect)

    I, J, _, truncated = univalence._candidate_pairs(w, z, rad, box, sep_pre)
    assert not truncated
    found = set(zip(np.minimum(box[I], box[J]).tolist(), np.maximum(box[I], box[J]).tolist()))
    # brute force over all point pairs; pairs inside one box are left out, as
    # the scan's boxes are narrower than its separation floor
    for a in range(0, len(w), 1024):
        near = ((np.abs(w[a:a + 1024, None] - w) <= rad[a:a + 1024, None] + rad)
                & (np.abs(z[a:a + 1024, None] - z) >= sep_pre)
                & (box[a:a + 1024, None] != box))
        p, q = np.nonzero(near)
        p += a
        want = set(zip(np.minimum(box[p], box[q]).tolist(), np.maximum(box[p], box[q]).tolist()))
        assert want <= found, sorted(want - found)[:5]


# -- box-pair dedup -------------------------------------------------------------


@given(pairs=st.lists(st.tuples(st.integers(0, 12),
                                st.sampled_from([0.0, 0.5, 1.0, 2.0, math.nan])
                                | st.floats(0.0, 3.0)),
                      min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_box_pair_dedup_matches_two_key_sort(pairs):
    keys = np.array([k for k, _ in pairs], dtype=np.int64)
    gaps = np.array([g for _, g in pairs])
    by_key = np.lexsort((gaps, keys))
    first = np.ones(len(by_key), dtype=bool)
    first[1:] = keys[by_key][1:] != keys[by_key][:-1]
    assert univalence._first_smallest_per_key(keys, gaps).tolist() == by_key[first].tolist()
