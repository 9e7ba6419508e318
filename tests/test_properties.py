"""Exact identities of the built-in families, checked on random inputs.

Guards the fused ``eval_all`` and kernel ``derivs`` paths against the
separate ``h``/``g`` evaluators (bit for bit), values on long arrays against
the same values in chunks, the closed forms against the Taylor arrays, and
each kernel's ``hp_bound`` against sampled ``|h'|``.
"""

import cmath
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from harmap.classcheck import DiskGrid, check_membership, curvature, curvature_extrema
from harmap.errors import ParameterError
from harmap.mappings import (
    ClassParams,
    ExtremalSpec,
    HarmonicMapping,
    PolyKernel,
    PowerKernel,
    family_from_spec,
    is_conjugate_symmetric,
    make_bshouty_lyzzaik,
    make_counterexample,
    make_extremal,
    make_from_h,
    make_identity,
)
from harmap.series import PowerSeries

SETTINGS = settings(max_examples=60, deadline=None)

points = st.complex_numbers(max_magnitude=0.999, allow_nan=False, allow_infinity=False)
inner_points = st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False)
unit = st.floats(-1.0, 1.0)


@st.composite
def class_params(draw, real_zeta=False):
    n = draw(st.integers(1, 4))
    cap = 1.0 / (2 * n - 1)
    rho = draw(st.floats(0.0, 1.0)) * cap
    phase = 0.0 if real_zeta else draw(st.floats(0.0, 2.0 * np.pi))
    sign = draw(st.sampled_from((1.0, -1.0))) if real_zeta else 1.0
    alpha = draw(st.floats(-0.5, 0.99))
    return ClassParams(alpha, sign * rho * cmath.exp(1j * phase), n)


@st.composite
def mappings(draw, real=False):
    """A built-in family with drawn parameters; ``real`` restricts to real
    Taylor coefficients."""
    kind = draw(st.sampled_from(("identity", "counterexample", "bl", "extremal", "from-h")))
    if kind == "identity":
        return make_identity()
    if kind == "counterexample":
        return make_counterexample(draw(st.floats(1.0, 1.75, exclude_min=True)))
    if kind == "bl":
        return make_bshouty_lyzzaik(draw(st.floats(0.0, 0.49)))
    if kind == "extremal":
        params = draw(class_params(real_zeta=real))
        delta = (draw(st.sampled_from((1.0, -1.0))) if real
                 else cmath.exp(1j * draw(st.floats(0.0, 2.0 * np.pi))))
        return make_extremal(ExtremalSpec(params, delta))
    coeffs = [0.0, 1.0] + [complex(draw(unit), 0.0 if real else draw(unit)) / 4
                           for _ in range(draw(st.integers(0, 5)))]
    zeta = draw(unit) if real else complex(draw(unit), draw(unit)) / 2
    return make_from_h(PowerSeries(coeffs), zeta, draw(st.integers(1, 3)),
                       require_admissible=False)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.complex128).tobytes()


def _assert_eval_all_matches(f, z):
    fz, hp, gp = f.eval_all(z)
    assert _bits(fz) == _bits(f(z))
    assert _bits(fz) == _bits(f.h.value(z) + np.conjugate(f.g.value(z)))
    assert _bits(hp) == _bits(f.h.deriv(z))
    assert _bits(gp) == _bits(f.g.deriv(z))


@SETTINGS
@given(f=mappings(), zs=st.lists(points, min_size=1, max_size=16))
def test_eval_all_is_bit_identical_to_separate_evaluators(f, zs):
    _assert_eval_all_matches(f, zs[0])
    _assert_eval_all_matches(f, np.array(zs))


@pytest.mark.parametrize("f", [
    make_counterexample(1.25),
    make_extremal(ExtremalSpec(ClassParams(0.3, 0.2 - 0.1j, 2), cmath.exp(0.4j))),
    make_bshouty_lyzzaik(0.4),
], ids=lambda f: f.label)
def test_eval_all_is_bit_identical_on_large_arrays(f):
    # numpy evaluates some expressions in a different operand order once an
    # array passes 256 KiB, so check sizes on both sides of that
    rng = np.random.default_rng(5)
    n = 40_000
    z = 0.999 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    _assert_eval_all_matches(f, z)
    _assert_eval_all_matches(f, z[:1000])


@SETTINGS
@given(f=mappings(), zs=st.lists(points, min_size=1, max_size=16))
def test_kernel_derivs_are_bit_identical_to_the_views(f, zs):
    for z in (zs[0], np.array(zs)):
        hp, hpp = f.kernel.derivs(z)
        assert _bits(hp) == _bits(f.h.deriv(z))
        assert _bits(hpp) == _bits(f.h.deriv2(z))


@pytest.mark.parametrize("f", [
    make_identity(),
    make_counterexample(1.25),
    make_bshouty_lyzzaik(0.4),
    make_extremal(ExtremalSpec(ClassParams(0.3, 0.2 - 0.1j, 2), cmath.exp(0.4j))),
    make_extremal(ExtremalSpec(ClassParams(0.5, 0.5, 1), 1.0)),  # -log u term
    make_extremal(ExtremalSpec(ClassParams(0.0, 0.15j, 3), -1.0)),
    make_extremal(ExtremalSpec(ClassParams(-0.5, 0.2 + 0.1j, 1), cmath.exp(2.0j))),
    make_from_h(PowerSeries([0.0, 1.0, 0.2 - 0.1j, 0.05j]), 0.2 + 0.2j, 2),
], ids=lambda f: f.label)
def test_values_do_not_depend_on_array_length(f):
    # past 16,384 complex values numpy may compute ``a * <temporary>`` as
    # ``<temporary> * a``, which differs in the last bit
    rng = np.random.default_rng(11)
    n, chunk = 24_000, 1000
    z = 0.999 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    views = {"f": f, "h'": f.h.deriv, "g'": f.g.deriv, "h''": f.h.deriv2,
             "g''": f.g.deriv2, "curvature": lambda z: curvature(f, z)}
    for name, fn in views.items():
        parts = np.concatenate([fn(z[i : i + chunk]) for i in range(0, n, chunk)])
        assert _bits(fn(z)) == _bits(parts), name


@SETTINGS
@given(f=mappings(real=True), z=points)
def test_conjugate_symmetry_of_real_coefficient_families(f, z):
    w = complex(f(z))
    assert abs(complex(f(z.conjugate())) - w.conjugate()) <= 1e-12 * max(1.0, abs(w))


@st.composite
def sheared(draw):
    """``(mapping, zeta, n)`` for families sheared by ``g' = zeta z^n h'``."""
    kind = draw(st.sampled_from(("counterexample", "extremal", "from-h")))
    if kind == "counterexample":
        return make_counterexample(draw(st.floats(1.0, 1.75, exclude_min=True))), 1.0, 1
    if kind == "extremal":
        params = draw(class_params())
        delta = cmath.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
        return make_extremal(ExtremalSpec(params, delta)), params.zeta, params.n
    coeffs = [0.0, 1.0] + [complex(draw(unit), draw(unit)) for _ in range(6)]
    zeta, n = complex(draw(unit), draw(unit)), draw(st.integers(1, 3))
    return make_from_h(PowerSeries(coeffs), zeta, n, require_admissible=False), zeta, n


@SETTINGS
@given(case=sheared())
def test_taylor_coefficient_relation(case):
    f, zeta, n = case
    a, b = (t.coeffs for t in f.taylor(64))
    for k in range(1, min(len(a), len(b) - n)):
        lhs = (k + n) * b[k + n]
        rhs = zeta * k * a[k]
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs)), k
    assert np.all(b[: n + 1] == 0)


@SETTINGS
@given(f=mappings(), z=inner_points)
def test_horner_matches_closed_forms(f, z):
    th, tg = f.taylor(64)
    for got, want in ((th(z), f.h.value(z)), (tg(z), f.g.value(z)),
                      (th.derive()(z), f.h.deriv(z)), (tg.derive()(z), f.g.deriv(z))):
        assert abs(complex(got) - complex(want)) <= 1e-12 * max(1.0, abs(complex(want)))


@settings(max_examples=60, deadline=None)
@given(f=mappings())
def test_family_labels_round_trip(f, tmp_path_factory):
    if f.label.startswith("from-h"):
        # a label names a polynomial map by its coefficient file, which
        # family_from_spec reads only for a map in the class
        assume(abs(f.zeta) <= 1.0 / (2 * f.n - 1))
        path = tmp_path_factory.mktemp("labels") / "h.json"
        h = f.taylor(len(f.kernel.hp))[0]  # the exact polynomial
        coeffs = [[c.real, c.imag] for c in np.asarray(h.coeffs, dtype=complex)]
        path.write_text(json.dumps({"coeffs": coeffs, "zeta": [f.zeta.real, f.zeta.imag],
                                    "n": f.n}))
        f = family_from_spec(f"from-h:{path}")
    g = family_from_spec(f.label)
    assert g.label == f.label
    for a, b in zip(g.taylor(64), f.taylor(64)):
        assert np.array_equal(a.coeffs, b.coeffs)


@st.composite
def kernels(draw, real=False):
    """A power kernel ``(1 - delta z)**q`` or a polynomial ``h'`` with complex
    coefficients; ``real`` restricts to real ``delta`` and coefficients."""
    if draw(st.booleans()):
        delta = (draw(st.sampled_from((1.0, -1.0))) if real
                 else cmath.exp(1j * draw(st.floats(0.0, 2.0 * np.pi))))
        return PowerKernel(draw(st.floats(-3.0, 3.0)), delta)
    coeffs = [complex(draw(unit), 0.0 if real else draw(unit))
              for _ in range(draw(st.integers(1, 7)))]
    return PolyKernel(PowerSeries(coeffs))


def _old_symmetry_rule(f) -> bool:
    """The reference: every Taylor coefficient of ``h`` and ``g`` through
    order 64 is real."""
    return not any(np.any(t.coeffs.imag) for t in f.taylor(64))


def _tiny(*xs) -> bool:
    """Whether a nonzero part lies below 1e-150: products of two such parts
    underflow, so the reference's rounded coefficients can read as real where
    the exact ones are not."""
    parts = np.concatenate([np.atleast_1d(np.asarray(x, dtype=complex)) for x in xs])
    parts = np.abs(np.concatenate((parts.real, parts.imag)))
    return bool(np.any((parts > 0.0) & (parts < 1e-150)))


@SETTINGS
@given(kernel=st.one_of(kernels(), kernels(real=True)),
       zeta=st.one_of(unit, st.complex_numbers(max_magnitude=1.0)), n=st.integers(1, 4))
def test_conjugate_symmetry_is_read_from_the_kernel(kernel, zeta, n):
    if isinstance(kernel, PowerKernel):
        # the reference's binomial factor (q - 1) + 1 also rounds a q below
        # 1e-16 to zero, and with it every coefficient past the first
        assume(not 0.0 < abs(kernel.q) < 1e-15 and not _tiny(kernel.delta, zeta))
    else:
        assume(not _tiny(kernel.hp.coeffs, zeta))
    f = HarmonicMapping(kernel, zeta, n)
    assert is_conjugate_symmetric(f) == _old_symmetry_rule(f)


@SETTINGS
@given(kernel=kernels(), rho=st.floats(0.0, 0.999))
def test_hp_bound_dominates_h_prime(kernel, rho):
    # sampled on |z| = rho (enough, by the maximum principle), including the
    # points where a power kernel attains the bound
    f = HarmonicMapping(kernel, 0.0, 1)
    z = rho * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 512))
    if isinstance(kernel, PowerKernel):
        z = np.append(z, [rho / kernel.delta, -rho / kernel.delta])
    hp = np.abs(f.h.deriv(z))
    assert np.max(hp) <= kernel.hp_bound(rho) * (1.0 + 1e-12)


def test_hp_bound_is_infinite_once_the_branch_point_is_inside():
    assert PowerKernel(-2.0, 1.0).hp_bound(1.0) == np.inf
    assert PowerKernel(0.25, -1.0).hp_bound(1.0) == 2.0**0.25
    with np.errstate(all="raise"):
        assert PowerKernel(-2.0, 1.0).hp_bound(np.array([0.5, 1.0])).tolist() == [4.0, np.inf]


@SETTINGS
@given(kernel=kernels(), rhos=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=8))
def test_hp_bound_takes_an_array_of_radii(kernel, rhos):
    # numpy's vectorised power may round 1 ulp away from the scalar one
    got = kernel.hp_bound(np.array(rhos))
    assert got.shape == (len(rhos),)
    np.testing.assert_allclose(got, [kernel.hp_bound(r) for r in rhos], rtol=1e-15)


def test_power_kernel_requires_unimodular_delta():
    PowerKernel(-1.0, cmath.exp(0.3j))
    with pytest.raises(ParameterError):
        PowerKernel(-1.0, 2.0)
    with pytest.raises(ParameterError):
        PowerKernel(0.5, 1.0 + 1e-12)


@SETTINGS
@given(kernel=kernels(), own=class_params(), tested=class_params(),
       rho=st.floats(0.05, 0.999), seed=st.integers(0, 2**32 - 1))
def test_disk_extrema_lie_on_the_circle(kernel, own, tested, rho, seed):
    # extremum principles: where h' has no zero in the disk, the curvature
    # real part and the dilatation residual at interior points lie within
    # the check's extremes on the boundary circle; with a zero inside, the
    # curvature is unbounded and the check fails.  (An h' of subnormal size
    # is left out: its curvature is rejected as numerically singular.)
    assume(not isinstance(kernel, PolyKernel) or np.max(np.abs(kernel.hp.coeffs)) > 1e-6)
    f = HarmonicMapping(kernel, own.zeta, own.n)
    grid = DiskGrid(rho)
    report = check_membership(f, tested, grid=grid)
    rep = curvature_extrema(f, grid)
    if not kernel.zero_free(rho):
        assert not report.passed
        assert (rep.inf_est, rep.sup_est) == (-np.inf, np.inf)
        return
    rng = np.random.default_rng(seed)
    z = rho * np.sqrt(rng.uniform(0.0, 1.0, 64)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 64))
    curv = np.real(curvature(f, z))
    res = np.abs(f.g.deriv(z) - tested.zeta * z**tested.n * f.h.deriv(z))

    def eps(v):
        return 1e-9 * max(1.0, abs(v))

    assert np.all(curv >= rep.inf_est - eps(rep.inf_est))
    assert np.all(curv <= rep.sup_est + eps(rep.sup_est))
    resid = report.details["dilatation_residual"]
    assert np.all(res <= resid + eps(resid))
