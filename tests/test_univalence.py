"""Collision construction, winding numbers, and the injectivity grid scan."""

import cmath
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmap import cli, univalence
from harmap.errors import InfeasibilityError, OnCurveError, ParameterError
from harmap.mappings import (
    HarmonicMapping,
    PowerKernel,
    family_from_spec,
    is_conjugate_symmetric,
    make_bshouty_lyzzaik,
    make_counterexample,
    make_from_h,
    make_identity,
)
from harmap.univalence import (
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
    col = find_symmetric_collision(1.25)
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
        col = find_symmetric_collision(gamma)
        phase = cmath.phase(1.0 - col.r0 * cmath.exp(1j * col.theta0))
        assert abs(phase + math.pi / (gamma + 1.0)) < 1e-10
        assert abs(math.sin((gamma + 1.0) * phase)) < 1e-9


def test_collision_across_gamma_grid():
    for gamma in (1.05, 1.2, 1.4, 1.6, 1.75):
        col = find_symmetric_collision(gamma)
        f = make_counterexample(gamma)
        # direct re-evaluation: two distinct points, equal images
        w1, w2 = f(col.z1), f(col.z2)
        assert abs(col.z1 - col.z2) > 1e-3
        assert abs(w1 - w2) < 1e-8
        assert col.r0 > feasibility_threshold(gamma)
        assert col.threshold == pytest.approx(feasibility_threshold(gamma))


def test_collision_image_is_real():
    # conjugate-symmetric family: the common image lies on the real axis
    col = find_symmetric_collision(1.25)
    f = make_counterexample(1.25)
    assert abs(f(col.z1).imag) < 1e-10


def test_collision_explicit_radius():
    thr = feasibility_threshold(1.25)
    r0 = 0.5 * (thr + 1.0) + 0.002
    col = find_symmetric_collision(1.25, r0=r0)
    assert col.r0 == pytest.approx(r0)
    assert col.image_gap < 1e-10


def test_collision_infeasible_radius_raises():
    with pytest.raises(InfeasibilityError):
        find_symmetric_collision(1.25, r0=0.9)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
def test_collision_tolerance_must_be_finite_and_positive(tol):
    # a NaN tolerance passed every residual, since |Im f| > nan is never true
    with pytest.raises(ParameterError, match="collision tolerance must be finite and > 0"):
        find_symmetric_collision(1.25, tol=tol)


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
    return make_from_h([0.0, 1.0, c2], cmath.exp(2.1j), 1, "rotated-bl")


def test_scan_finds_collision_of_rotated_map():
    # a rotated, non-univalent bl map: without conjugate symmetry there is no
    # mirror seeding and no tangency anchor, so the witness comes straight
    # from the batch Gauss-Newton refiner
    f = _rotated_bl()
    assert not is_conjugate_symmetric(f)
    report = univalence_scan(f, r=0.999, cells=64, separation_floor=0.2)
    assert report.verdict == "collision"
    assert report.details["anchor"] == "none"
    assert report.details["mirror"] is False
    assert abs(complex(f(report.z1)) - complex(f(report.z2))) <= 1e-8
    assert report.separation >= 0.2


def test_truncated_scan_is_inconclusive(monkeypatch, tmp_path, schema_check):
    # lam = 0.30 is univalent; with the candidate cap forced low the scan
    # cannot refine every pair and must not claim a certificate
    monkeypatch.setattr(univalence, "MAX_CANDIDATES", 1000)
    report = univalence_scan(make_bshouty_lyzzaik(0.30), r=0.999, cells=64)
    assert report.details["truncated"]
    # the first 1000 pairs of the hash, whatever its block size, and the 512
    # mirror seeds
    assert report.details["candidate_pairs"] == 1000 + 512
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
    assert payload["report"]["details"]["candidate_pairs"] == 1000 + 512


#: the bench scans: 64 cells, separation floor 0.2
BENCH_SCANS = [("counterexample:gamma=1.2", "0.995"), ("bl:lam=0.4", "0.999")]


@pytest.mark.parametrize("family, r", BENCH_SCANS, ids=["counterexample-1.2", "bl-0.40"])
def test_scan_documents_do_not_depend_on_the_block_sizes(monkeypatch, tmp_path, family, r):
    # each pair's hash tests and Gauss-Newton updates read only that pair, and
    # the blocks keep the pairs' order, so one block per stage changes no bit
    def document():
        out = tmp_path / "scan.json"
        assert cli.main(["univalence", "--family", family, "--r", r, "--cells", "64",
                         "--separation-floor", "0.2", "--json", "--out", str(out)]) == 1
        return out.read_bytes()

    blocked = document()
    details = json.loads(blocked)["report"]["details"]
    assert details["candidate_pairs"] > 2 * univalence._EXPAND_BLOCK
    assert details["candidates_refined"] > 2 * univalence._REFINE_BLOCK
    monkeypatch.setattr(univalence, "_EXPAND_BLOCK", 1 << 40)
    monkeypatch.setattr(univalence, "_REFINE_BLOCK", 1 << 40)
    assert document() == blocked


def test_scan_memory_is_bounded():
    # the candidate stage and the refiner's first step run in blocks; with
    # each on all its pairs at once this scan peaked at 11.6 MB
    tracemalloc.start()
    try:
        report = univalence_scan(make_counterexample(1.2), r=0.995, cells=64,
                                 separation_floor=0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict == "collision"
    assert peak < 10 * 2**20


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


def test_polish_asks_the_kernel_once_per_point(monkeypatch):
    # a Newton point asks for f, h', g', h'' and g'' in one kernel evaluation,
    # a line-search trial point for f, h' and g' only, and the closing
    # re-check for f(z) and f(conj z)
    f = make_counterexample(1.2)
    asked, logs = [], []
    evaluate, log_u = f._evaluate, PowerKernel._log_u
    monkeypatch.setattr(f, "_evaluate", lambda z, *want: asked.append(want) or evaluate(z, *want))
    monkeypatch.setattr(PowerKernel, "_log_u", lambda self, z: logs.append(z) or log_u(self, z))
    # a start near the tangency 0.97974649 + 0.14086628i of the scan at r 0.995
    z1, _, gap = univalence._polish_symmetric(f, 0.978 + 0.15j, 0.995, 0.2, 1e-8)
    assert abs(z1 - (0.97974649 + 0.14086628j)) < 1e-8 and gap < 1e-12
    assert len(logs) == len(asked)
    assert asked[0] == (True, 2) and asked[-2:] == [(True, 0)] * 2
    assert set(asked[:-2]) == {(True, 2), (True, 1)}


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


def _close_pairs(W, Z, rad, box, sep_pre):
    """Every unordered pair of grid points ``(p, q)`` in two boxes with
    ``|w_p - w_q| <= rad_p + rad_q`` and ``|z_p - z_q| >= sep_pre``.

    The grid is cut into tiles of 4 x 4 points.  A point pair can be close
    only when the image bounding boxes of its two tiles lie within the sum of
    the tiles' largest radii (up to a relative rounding slack), so only those
    tile pairs are compared point by point, by the exact test."""
    (n_r, n_a), t = W.shape, 4
    w, z, rad, box = W.ravel(), Z.ravel(), rad.ravel(), box.ravel()
    tile = (np.arange(n_r)[:, None] // t * (n_a // t) + np.arange(n_a) // t).ravel()
    members = np.argsort(tile, kind="stable").reshape(-1, t * t)
    wt, reach = w[members], rad[members].max(axis=1)
    lo_x, hi_x = wt.real.min(axis=1), wt.real.max(axis=1)
    lo_y, hi_y = wt.imag.min(axis=1), wt.imag.max(axis=1)
    A, B = np.triu_indices(len(members))
    dx = np.maximum(0.0, np.maximum(lo_x[B] - hi_x[A], lo_x[A] - hi_x[B]))
    dy = np.maximum(0.0, np.maximum(lo_y[B] - hi_y[A], lo_y[A] - hi_y[B]))
    keep = np.hypot(dx, dy) <= (reach[A] + reach[B]) * (1.0 + 1e-9)
    A, B = A[keep], B[keep]
    shape = (len(A), t * t, t * t)
    p = np.broadcast_to(members[A][:, :, None], shape).ravel()
    q = np.broadcast_to(members[B][:, None, :], shape).ravel()
    once = np.repeat(A != B, t ** 4) | (p < q)
    near = (once & (np.abs(w[p] - w[q]) <= rad[p] + rad[q])
            & (np.abs(z[p] - z[q]) >= sep_pre) & (box[p] != box[q]))
    return p[near], q[near]


#: ``(f, r, mirror)`` of the coverage grids
COVERAGE_GRIDS = [
    (make_bshouty_lyzzaik(0.40), 0.999, False),
    (make_counterexample(1.2), 0.995, False),
    (_rotated_bl(), 0.999, False),
    (make_identity(), 0.9, False),
    (make_bshouty_lyzzaik(0.40), 0.999, True),
    (make_counterexample(1.2), 0.995, True),
]
COVERAGE_IDS = ["bl-0.40", "counterexample-1.2", "rotated-bl", "identity", "bl-0.40-mirrored",
                "counterexample-1.2-mirrored"]


def _coverage_grid(f, r, mirror, n_r=64):
    """``(Z, W, rad, box, sep_pre)``: the ``n_r x 2 n_r`` scan grid, each
    point's largest image gap to a grid neighbour (found point by point),
    17 x 105 preimage boxes and a preimage separation of 0.05."""
    n_a = 2 * n_r
    Z, W = univalence._scan_grid(f, r, n_r, mirror)[:2]
    rad = np.zeros(W.shape)
    for i in range(n_r):
        for j in range(n_a):
            for ii, jj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, (j + 1) % n_a)):
                if 0 <= ii < n_r:
                    rad[i, j] = max(rad[i, j], abs(W[i, j] - W[ii, jj]))
    n_ring, n_sect = 17, 105
    box = (np.minimum((np.abs(Z) / r * n_ring).astype(int), n_ring - 1) * n_sect
           + ((np.angle(Z) + np.pi) / (2 * np.pi) * n_sect).astype(int) % n_sect)
    return Z, W, rad, box, 0.05


@pytest.mark.parametrize("f, r, mirror", COVERAGE_GRIDS, ids=COVERAGE_IDS)
def test_candidate_pairs_cover_every_close_pair(f, r, mirror):
    Z, W, rad, box, sep_pre = _coverage_grid(f, r, mirror)
    n_r, n_a = W.shape
    p, q = _close_pairs(W, Z, rad, box, sep_pre)

    w, z, rad, box = W.ravel(), Z.ravel(), rad.ravel(), box.ravel()
    lower = mirror & (z.imag < 0.0)
    I, J, _, truncated = univalence._candidate_pairs(w, z, rad, box, sep_pre, lower)
    assert not truncated
    found = set(zip(np.minimum(box[I], box[J]).tolist(), np.maximum(box[I], box[J]).tolist()))
    # pairs inside one box are left out, as the scan's boxes are narrower than
    # its separation floor; on a mirrored grid a pair may be found through the
    # box pair of its mirror image, which reflects column j to n_a - j
    flip = np.arange(len(z)).reshape(n_r, n_a)[:, (n_a - np.arange(n_a)) % n_a].ravel()
    pp, qq = flip[p], flip[q]
    want = list(zip(np.minimum(box[p], box[q]).tolist(), np.maximum(box[p], box[q]).tolist()))
    image = list(zip(np.minimum(box[pp], box[qq]).tolist(), np.maximum(box[pp], box[qq]).tolist()))
    missed = [k for k, (a, b) in enumerate(zip(want, image))
              if a not in found and not (mirror and b in found)]
    assert not missed, [want[k] for k in missed[:5]]
    # the mirrored grid drops pairs: some close pairs are found only as mirrors
    assert mirror == any(a not in found for a in want)


def _candidate_pairs_unpruned(w, z, rad, box, sep_pre, lower):
    """:func:`univalence._candidate_pairs` expanding every target of the 3x3
    neighbourhood, then dropping same-level pairs out of order and pairs of
    two wholly lower groups; also the counts of the two kinds dropped."""
    top = max(float(rad.max()), 5e-13)
    u = w - complex(w.real.min(), w.imag.min())
    ext = max(float(u.real.max()), float(u.imag.max()), top)
    cap = 19 + math.floor(math.log2(2.0 * top / ext))
    with np.errstate(divide="ignore"):
        k = np.minimum(np.floor(np.log2(top / rad)), cap).astype(np.int64)
    k -= top * np.exp2(-k) < rad
    levels = int(k.max()) + 1
    lev = levels - 1 - k
    s0 = math.ldexp(2.0 * top, 1 - levels)
    bx, by = np.floor(u.real / s0).astype(np.int64), np.floor(u.imag / s0).astype(np.int64)
    _, cell = np.unique((lev << 40) + ((bx >> lev) << 20) + (by >> lev), return_inverse=True)
    _, rep, grp = np.unique(cell * (int(box.max()) + 1) + box, return_index=True,
                            return_inverse=True)
    rlev, wr, zr = lev[rep], w[rep], z[rep]
    wholly_lower = np.ones(len(rep), dtype=bool)
    wholly_lower[grp[~lower]] = False
    reach, spread = np.zeros(len(rep)), np.zeros(len(rep))
    np.maximum.at(reach, grp, rad + np.abs(w - wr[grp]))
    np.maximum.at(spread, grp, np.abs(z - zr[grp]))
    pairs, out_of_order, both_lower = [np.zeros((2, 0), dtype=np.int64)], 0, 0
    for level in range(levels):
        qs = np.nonzero(rlev <= level)[0]
        qx, qy = bx[rep[qs]] >> level, by[rep[qs]] >> level
        span = int(qy.max()) + 3
        qkey = qx * span + qy + 1
        t = np.nonzero(rlev[qs] == level)[0]
        t = t[np.argsort(qkey[t], kind="stable")]
        want = (qkey[:, None] + [dx * span + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)]).ravel()
        lo = np.searchsorted(qkey[t], want)
        cnt = np.searchsorted(qkey[t], want, "right") - lo
        a = np.repeat(np.repeat(qs, 9), cnt)
        b = qs[t[np.arange(len(a)) - np.repeat(np.cumsum(cnt) - cnt - lo, cnt)]]
        order, lower_pair = (rlev[a] < level) | (a < b), wholly_lower[a] & wholly_lower[b]
        out_of_order += np.count_nonzero(~order)
        both_lower += np.count_nonzero(order & lower_pair)
        a, b = a[order & ~lower_pair], b[order & ~lower_pair]
        m = np.abs(wr[a] - wr[b]) <= reach[a] + reach[b]
        a, b = a[m], b[m]
        m = np.abs(zr[a] - zr[b]) + spread[a] + spread[b] >= sep_pre
        pairs.append(np.stack([rep[a[m]], rep[b[m]]]))
    return *np.concatenate(pairs, axis=1), levels, out_of_order, both_lower


def _check_unpruned_expansion(f, r, mirror, n_r):
    """``_candidate_pairs`` on the coverage grid of ``n_r`` rings equals the
    full expansion, pairs and order (gap ties go to the first pair), and
    both kinds of pruning are at work."""
    Z, W, rad, box, sep_pre = _coverage_grid(f, r, mirror, n_r)
    w, z, rad, box = W.ravel(), Z.ravel(), rad.ravel(), box.ravel()
    lower = mirror & (z.imag < 0.0)
    I, J, levels, truncated = univalence._candidate_pairs(w, z, rad, box, sep_pre, lower)
    rI, rJ, rlevels, out_of_order, both_lower = _candidate_pairs_unpruned(w, z, rad, box,
                                                                          sep_pre, lower)
    assert (I.tolist(), J.tolist(), levels, truncated) == (rI.tolist(), rJ.tolist(), rlevels,
                                                             False)
    assert len(I) > 0 and out_of_order > 0 and (both_lower > 0) == mirror


@pytest.mark.parametrize("f, r, mirror", COVERAGE_GRIDS, ids=COVERAGE_IDS)
def test_candidate_pairs_match_the_unpruned_expansion(f, r, mirror):
    # each query looks up only the targets it can keep
    _check_unpruned_expansion(f, r, mirror, 64)


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("f, r, mirror", COVERAGE_GRIDS, ids=COVERAGE_IDS)
def test_candidate_pairs_do_not_depend_on_the_expansion_block(monkeypatch, f, r, mirror,
                                                               block):
    # blocks that split every lookup's run, on a grid small enough for them
    # that still has several levels and both kinds of pruning
    monkeypatch.setattr(univalence, "_EXPAND_BLOCK", block)
    _check_unpruned_expansion(f, r, mirror, 8)


@pytest.mark.parametrize("f, r", [
    (make_bshouty_lyzzaik(0.40), 0.999),
    (make_counterexample(1.2), 0.995),
    (make_identity(), 0.9),
], ids=["bl-0.40", "counterexample-1.2", "identity"])
def test_mirrored_grid_is_exact(f, r):
    cells = 64
    Z, W, hp, gp, rad = univalence._scan_grid(f, r, cells, True)
    full = univalence._scan_grid(f, r, cells, False)
    # column j of the upper half and its mirror column 2 cells - j
    up, down = slice(1, cells), slice(2 * cells - 1, cells, -1)
    for got in (Z, W, hp, gp):
        assert np.conj(got[:, up]).tobytes() == got[:, down].tobytes()
    assert rad[:, up].tobytes() == rad[:, down].tobytes()
    assert not np.any(Z[:, [0, cells]].imag)
    assert Z[:, cells].real.tolist() == (-Z[:, 0].real).tolist()
    # the upper half is the full grid's, the rest its points up to rounding
    for got, want in zip((Z, W, hp, gp), full):
        assert got[:, :cells].tobytes() == want[:, :cells].tobytes()
    assert np.max(np.abs(Z - full[0])) <= 1e-15


def _full_grid_scan(monkeypatch, f, **kw):
    """The scan on the whole grid: every column evaluated, no pair dropped."""
    grid, pairs = univalence._scan_grid, univalence._candidate_pairs
    with monkeypatch.context() as m:
        m.setattr(univalence, "_scan_grid", lambda f, r, cells, mirror: grid(f, r, cells, False))
        m.setattr(univalence, "_candidate_pairs",
                  lambda w, z, rad, box, sep_pre, lower: pairs(w, z, rad, box, sep_pre,
                                                               np.zeros_like(lower)))
        return univalence_scan(f, **kw)


@pytest.mark.parametrize("f, r", [
    (make_bshouty_lyzzaik(0.30), 0.999),
    (make_bshouty_lyzzaik(0.40), 0.999),
    (make_counterexample(1.2), 0.995),
], ids=["bl-0.30", "bl-0.40", "counterexample-1.2"])
def test_mirrored_scan_matches_full_grid(monkeypatch, f, r):
    kw = {"r": r, "cells": 64, "separation_floor": 0.2}
    got, want = univalence_scan(f, **kw), _full_grid_scan(monkeypatch, f, **kw)
    assert got.details["mirror"] and want.details["mirror"]
    assert got.verdict == want.verdict
    assert got.details["anchor"] == want.details["anchor"]
    if want.z1 is None:
        assert got.z1 is None and got.z2 is None
    else:
        assert abs(got.z1 - want.z1) <= 1e-12 and abs(got.z2 - want.z2) <= 1e-12
    # pairs wholly in the lower half, about 43 % of them, are not handled
    assert got.details["candidate_pairs"] < 0.6 * want.details["candidate_pairs"]
    assert got.details["candidates_refined"] < 0.6 * want.details["candidates_refined"]


@pytest.mark.parametrize("f, kw", [
    # a NaN or negative tolerance confirms no collision, so the scan certified
    # a map that it reports as a collision with the default tolerance
    (make_counterexample(1.25), {"r": 0.995, "collision_tol": math.nan}),
    (make_counterexample(1.25), {"r": 0.995, "collision_tol": -1.0}),
    (make_counterexample(1.25), {"r": 0.995, "collision_tol": math.inf}),
    (make_identity(), {"r": 0.5, "separation_floor": 0.0}),  # divided by zero
    (make_identity(), {"r": 0.5, "separation_floor": -1.0}),  # a "collision" of z with itself
    (make_identity(), {"r": 0.5, "separation_floor": math.nan}),
    # no two points of |z| <= r lie 2r apart or more, so nothing could be found
    (make_bshouty_lyzzaik(0.4), {"r": 0.999, "separation_floor": 3.0}),
    (make_identity(), {"r": 0.5, "separation_floor": 1.0}),
], ids=["tol-nan", "tol-negative", "tol-inf", "floor-zero", "floor-negative", "floor-nan",
        "floor-past-the-diameter", "floor-at-the-diameter"])
def test_scan_rejects_tolerances_that_cannot_give_a_verdict(f, kw):
    with pytest.raises(ParameterError):
        univalence_scan(f, cells=64, **kw)


# -- batch refiner ----------------------------------------------------------------


# The block refiner as it was before pairs that must merge were retired
# unevaluated, the line search took one call of ``f`` per stage and the steps
# after the first ran on the survivors only, verbatim: one call refines all
# the pairs.
def _batch_refine_block_reference(f: HarmonicMapping, z: np.ndarray, evals: tuple, I: np.ndarray,
                        J: np.ndarray, gap: np.ndarray, r: float, floor: float,
                        tol: float, iters: int):
    z1, z2, gap = z[I], z[J], gap.copy()

    def clamp(zz):
        a = np.abs(zz)
        over = a > r
        if np.any(over):
            zz = np.where(over, zz * (r / np.maximum(a, 1e-300)), zz)
        return zz

    def gap_of(za, zb):
        return np.abs(f(za) - np.asarray(f(zb)))

    def side(zz, index, sgn, c, k):
        """``f(zz)``; writes the d/dx and d/dy columns of ``sgn * f`` at
        ``zz`` to ``c[k]``, ``c[k + 1]``.  Values come from ``evals`` at the
        grid points ``index`` when given.  Evaluating one side at a time
        keeps only one side's derivative arrays alive."""
        w, hp, gp = f.eval_all(zz) if index is None else (e[index] for e in evals)
        gpc = np.conjugate(gp)
        c[k] = sgn * (hp + gpc)
        c[k + 1] = sgn * 1j * (hp - gpc)
        return w

    alive = np.ones(len(z1), dtype=bool)
    progress = np.ones(len(z1), dtype=bool)
    for it in range(iters):
        active = alive & progress & (gap > 0.1 * tol)
        if not np.any(active):
            break
        a1, a2 = z1[active], z2[active]
        # residual and the complex columns of its 2x4 real Jacobian
        c = np.empty((4, len(a1)), dtype=np.complex128)
        first = it == 0
        R = (side(a1, I[active] if first else None, 1.0, c, 0)
             - side(a2, J[active] if first else None, -1.0, c, 2))
        A = np.sum(c.real * c.real, axis=0)
        B = np.sum(c.real * c.imag, axis=0)
        D = np.sum(c.imag * c.imag, axis=0)
        det = A * D - B * B
        det = np.where(np.abs(det) < 1e-300, np.inf, det)
        u1 = (-R.real * D + R.imag * B) / det
        u2 = (R.real * B - R.imag * A) / det
        # least-norm step components J^T u, packed back into complex points
        dx = np.empty((4, len(a1)))
        for k in range(4):
            dx[k] = c[k].real * u1 + c[k].imag * u2
        step1 = dx[0] + 1j * dx[1]
        step2 = dx[2] + 1j * dx[3]
        t = np.ones(len(a1))
        cur_gap = gap[active]
        best1, best2 = a1.copy(), a2.copy()
        improved = np.zeros(len(a1), dtype=bool)
        for _ in range(6):
            todo = ~improved
            if not np.any(todo):
                break
            t1 = clamp(a1[todo] + t[todo] * step1[todo])
            t2 = clamp(a2[todo] + t[todo] * step2[todo])
            g = gap_of(t1, t2)
            better = g < cur_gap[todo]
            idx = np.nonzero(todo)[0][better]
            best1[idx], best2[idx] = t1[better], t2[better]
            cur_gap[idx] = g[better]
            improved[idx] = True
            t[np.nonzero(todo)[0][~better]] *= 0.5
        z1[active], z2[active] = best1, best2
        gap[active] = cur_gap
        # The step and line search are deterministic, so a candidate that
        # failed to improve once can never improve later; retire it.
        progress[np.nonzero(active)[0][~improved]] = False
        merged = np.abs(z1 - z2) < 0.5 * floor
        alive &= ~merged
    return z1, z2, gap, alive



def _refine_case(f, r, floor, seed, n_pairs=3000):
    """Inputs of ``_batch_refine`` on a 48 x 96 scan grid: the grid, its
    evaluation and a random candidate set, half of it pairs the scan's hash
    proposes and half pairs of grid points a few steps apart, whose
    preimages straddle half the separation floor."""
    n_r, n_a = 48, 96
    Z = (r * np.arange(1, n_r + 1) / n_r)[:, None] * np.exp(2j * np.pi * np.arange(n_a) / n_a)
    W, hp, gp = f.eval_all(Z)
    z, w = Z.ravel(), W.ravel()
    rng = np.random.default_rng(seed)
    rad = np.full(len(z), float(np.max(np.abs(np.diff(W, axis=1)))))
    box = np.arange(len(z))
    I, J, _, _ = univalence._candidate_pairs(w, z, rad, box, 0.25 * floor,
                                            np.zeros(len(z), dtype=bool))
    pick = rng.choice(len(I), size=min(len(I), n_pairs // 2), replace=False)
    ring, col = rng.integers(n_r, size=(2, n_pairs // 2))
    ring2 = np.clip(ring + rng.integers(-6, 7, size=ring.size), 0, n_r - 1)
    col2 = (col + rng.integers(-6, 7, size=col.size)) % n_a
    I = np.concatenate([I[pick], ring * n_a + col])
    J = np.concatenate([J[pick], ring2 * n_a + col2])
    return z, (w, hp.ravel(), gp.ravel()), I, J, np.abs(w[I] - w[J])


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("f, r", [
    (make_counterexample(1.2), 0.995),
    (make_bshouty_lyzzaik(0.40), 0.999),
    (_rotated_bl(), 0.999),
    (family_from_spec("extremal:alpha=-0.5,zeta=1,n=1,delta=0.6+0.8j"), 0.99),
], ids=["counterexample-1.2", "bl-0.40", "rotated-bl", "extremal-rotated"])
def test_batch_refiner_matches_reference(monkeypatch, f, r, seed):
    # blocks of 64 pairs split both stages of every case into 3 blocks or more
    floor, tol = 0.2, 1e-8
    z, evals, I, J, gap = _refine_case(f, r, floor, seed)
    monkeypatch.setattr(univalence, "_REFINE_BLOCK", 64)
    z1, z2, g, alive = univalence._batch_refine(f, z, evals, I, J, gap, r, floor, tol)
    rz1, rz2, rg, ralive = _batch_refine_block_reference(f, z, evals, I, J, gap, r, floor,
                                                         tol, 14)
    assert alive.tolist() == ralive.tolist()
    for got, want in ((z1, rz1), (z2, rz2), (g, rg)):
        assert got[alive].tobytes() == want[alive].tobytes()
    # the case reaches the clamp radius and both sides of the merge test
    assert np.any(np.abs(rz1[ralive]) > r * (1.0 - 1e-12))
    assert 0 < np.count_nonzero(ralive) < len(ralive)


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
