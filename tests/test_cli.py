"""End-to-end command-line checks: exit codes, JSON schemas, file output."""

import cmath
import hashlib
import json
import math
import re

import numpy as np
import pytest

from conftest import run_cli, run_module, validate_payload
from harmap import cli
from harmap.mappings import HarmonicMapping, PowerKernel, make_counterexample
from harmap.univalence import find_symmetric_collision


# -- eval ---------------------------------------------------------------------


def test_eval_identity_text():
    res = run_cli("eval", "--family", "identity", "--z", "0.5,0")
    assert res.returncode == 0, res.stderr
    assert "0.5" in res.stdout


def test_eval_identity_json_schema():
    res = run_cli("eval", "--family", "identity", "--z", "0.5,0", "--json")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    validate_payload(payload, "eval.json")
    assert payload["f"] == [0.5, 0.0]
    assert payload["jacobian"] == pytest.approx(1.0)


def test_eval_branched_family_origin():
    res = run_cli("eval", "--family", "counterexample:gamma=1.25",
                  "--z", "0,0", "--json")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["f"] == [0.0, 0.0]


def test_eval_quadratic_shear_value():
    res = run_cli("eval", "--family", "bl:lam=0.3", "--z", "0.5,0", "--json")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["f"][0] == pytest.approx(0.525, abs=1e-12)
    assert payload["f"][1] == pytest.approx(0.0, abs=1e-12)


def test_eval_greek_alias_and_fraction():
    res = run_cli("eval", "--family", "counterexample:γ=5/4", "--z", "0.1,0.2",
                  "--json")
    assert res.returncode == 0, res.stderr
    ref = run_cli("eval", "--family", "counterexample:gamma=1.25",
                  "--z", "0.1,0.2", "--json")
    assert json.loads(res.stdout)["f"] == json.loads(ref.stdout)["f"]


def test_values_that_start_with_a_minus_sign_join_their_flag(tmp_path):
    # after a space argparse reads "-0.3,0.1" as an option; joined by "=" it
    # is the flag's value, as the README writes it
    res = run_cli("eval", "--family", "bl:lam=0.3", "--z=-0.3,0.1", "--json")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["z"] == [-0.3, 0.1]
    res = run_cli("render", "--family", "extremal:alpha=0,zeta=0.3,n=2", "--preset", "zoom",
                  "--center=-0.46,-1.0", "--out", tmp_path / "z.svg", "--json")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["scene"]["center"] == [-0.46, -1.0]
    res = run_cli("eval", "--family", "bl:lam=0.3", "--z", "-0.3,0.1")
    assert res.returncode == 2 and "expected one argument" in res.stderr


def test_eval_reports_a_family_label_that_names_the_same_map():
    # 1.23456789 has more digits than ``:g`` prints; the label keeps them all
    res = run_cli("eval", "--family", "counterexample:gamma=1.23456789", "--z", "0.1,0.2",
                  "--json")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["family"] == "counterexample:gamma=1.23456789"


def test_eval_outside_disk_is_domain_error():
    res = run_cli("eval", "--family", "identity", "--z", "1.5,0")
    assert res.returncode == 2
    assert "error:" in res.stderr


@pytest.mark.parametrize("z", ["nan,0", "0,inf", "nan"])
def test_eval_at_a_non_finite_point_is_a_domain_error(z):
    # it printed bare NaN tokens, which strict JSON parsers reject
    res = run_cli("eval", "--family", "identity", "--z", z, "--json")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "outside the open unit disk" in res.stderr


def test_eval_unknown_family_usage_error():
    res = run_cli("eval", "--family", "nope:x=1", "--z", "0,0")
    assert res.returncode == 2
    assert "error:" in res.stderr


def test_eval_missing_required_flag():
    res = run_cli("eval", "--family", "identity")
    assert res.returncode == 2


def test_eval_asks_the_kernel_once(monkeypatch):
    # f, h, g, the Jacobian and the dilatation all come from one evaluation
    calls = []
    log_u = PowerKernel._log_u
    monkeypatch.setattr(PowerKernel, "_log_u", lambda self, z: calls.append(z) or log_u(self, z))
    res = run_cli("eval", "--family", "counterexample:gamma=1.25", "--z", "0.3,0.4", "--json")
    assert res.returncode == 0, res.stderr
    assert len(calls) == 1
    f = make_counterexample(1.25)
    doc = json.loads(res.stdout)
    z = 0.3 + 0.4j
    assert complex(*doc["f"]) == complex(f(z))
    assert complex(*doc["h"]) == complex(f.h(z)) and complex(*doc["g"]) == complex(f.g(z))
    assert doc["jacobian"] == float(f.jacobian(z))
    assert complex(*doc["dilatation"]) == complex(f.dilatation(z))


@pytest.mark.parametrize("argv", [
    ("eval", "--family", "identity", "--z", "0.5,0"),
    ("univalence", "--family", "identity", "--cells", "16"),
    ("render", "--family", "identity", "--preset", "boundary"),
])
def test_tol_is_rejected_where_nothing_reads_it(argv):
    res = run_cli(*argv, "--tol", "1e-3")
    assert res.returncode == 2
    assert "--tol" in res.stderr


@pytest.mark.parametrize("argv", [
    ("check", "--family", "identity"),
    ("verify-bounds",),
    ("counterexample", "--gamma", "5/4"),
    ("area", "--family", "identity", "--r", "0.5"),
])
def test_tol_is_kept_where_it_is_read(argv):
    assert cli.build_parser().parse_args([*argv, "--tol", "1e-3"]).tol == 1e-3


_TOLERANCE_FLAGS = [
    ("check", "--family", "identity", "--cls", "0,0,1", "--tol"),
    ("verify-bounds", "--what", "growth", "--alphas", "0.5", "--ns", "1", "--tol"),
    ("counterexample", "--gamma", "5/4", "--tol"),
    ("area", "--family", "identity", "--r", "0.5", "--tol"),
    ("univalence", "--family", "identity", "--r", "0.5", "--cells", "64", "--collision-tol"),
    ("univalence", "--family", "identity", "--r", "0.5", "--cells", "64",
     "--separation-floor"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("argv", _TOLERANCE_FLAGS, ids=lambda a: f"{a[0]}{a[-1]}")
def test_tolerance_flags_take_only_finite_positive_values(argv, value):
    # the input is at fault, not the map: check and verify-bounds reported a
    # failed check on a NaN tolerance, and the scan a certificate
    res = run_cli(*argv, value)
    assert res.returncode == 2
    assert f"error: argument {argv[-1]}: value must be finite and > 0, got" in res.stderr


@pytest.mark.parametrize("argv", _TOLERANCE_FLAGS, ids=lambda a: f"{a[0]}{a[-1]}")
def test_tolerance_flags_report_a_non_number_as_before(argv):
    res = run_cli(*argv, "x")
    assert res.returncode == 2
    assert f"error: argument {argv[-1]}: invalid float value: 'x'" in res.stderr


_EXTREMAL = "extremal:alpha=0.5,zeta=0.5,n=1"
_VERIFY_POINT = ("verify-bounds", "--what", "all", "--alphas", "0.5", "--ns", "1",
                 "--zetas", "", "--zeta-rel", "0.5", "--radii", "0.5", "--area-radii", "0.5")


def _json_doc(*argv):
    res = run_cli(*argv, "--json")
    assert res.returncode in (0, 1), res.stderr
    return json.loads(res.stdout)


def test_check_without_tol_reports_the_library_default():
    doc = _json_doc("check", "--family", _EXTREMAL, "--cls", "0.5,0.5,1")
    assert doc["report"]["details"]["tol"] == 1e-8
    assert "tol" not in doc["config"]


def test_verify_bounds_without_tol_reports_each_library_default():
    tols = [r["details"].get("tol") for r in _json_doc(*_VERIFY_POINT)["reports"]]
    assert tols == [1e-10, 1e-12, 1e-9, 1e-8, 1e-4, None]
    tols = [r["details"].get("tol")
            for r in _json_doc(*_VERIFY_POINT, "--tol", "1e-3")["reports"]]
    assert tols == [1e-3] * 5 + [None]


# -- real fields ----------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("eval", "--family", "identity", "--z", "0.3+0.1j,0.2"),
    ("eval", "--family", "identity", "--z", "0.3,0.2+1j"),
    ("render", "--family", "identity", "--center", "0.5+1j,0", "--half-width", "0.1"),
    ("check", "--family", "counterexample:gamma=5/4", "--pbeta", "1.125+7j"),
    ("check", "--family", _EXTREMAL, "--cls", "0.5+1j,0.5,1"),
    ("check", "--family", "extremal:alpha=0,zeta=0.5,n=1", "--theorem-b", "1+1j,0,0.5,1"),
    ("check", "--family", "extremal:alpha=0,zeta=0.5,n=1", "--theorem-b", "1,0,0.5+1j,1"),
    ("verify-bounds", "--what", "covering", "--alphas", "0.5+3j", "--ns", "1"),
    ("verify-bounds", "--what", "covering", "--zetas", "0.3+1j", "--ns", "1"),
    ("verify-bounds", "--what", "covering", "--zeta-rel", "0.5+1j", "--ns", "1"),
    ("verify-bounds", "--what", "growth", "--radii", "0.5+1j", "--ns", "1"),
    ("verify-bounds", "--what", "area", "--area-radii", "0.5+1j", "--ns", "1"),
    ("area", "--family", "identity", "--r", "0.5+2j"),
    ("counterexample", "--gamma", "1.25+1j"),
    ("counterexample", "--gamma", "5/4", "--r0", "0.95+1j"),
    ("render", "--family", "counterexample:gamma=1.25+1j", "--preset", "zoom"),
])
def test_real_field_with_an_imaginary_part_is_a_usage_error(argv):
    res = run_cli(*argv)
    assert res.returncode == 2
    err = res.stderr
    assert err.startswith("error:") and "must be real" in err, err


@pytest.mark.parametrize("weights", ["1,0,1/2,1", "2/2,0/3,1/2,1"])
def test_theorem_b_fields_take_fractions(weights):
    argv = ["check", "--family", "extremal:alpha=0,zeta=0.5,n=1", "--theorem-b"]
    res = run_cli(*argv, weights)
    assert res.returncode == 0
    ref = run_cli(*argv, "1,0,0.5,1")
    assert ref.returncode == 0
    assert ref.stdout == res.stdout


# -- check --------------------------------------------------------------------


def test_check_pbeta_passes():
    res = run_cli("check", "--family", "counterexample:gamma=1.25",
                  "--pbeta", "1.125")
    assert res.returncode == 0, res.stdout + res.stderr


def test_check_pbeta_fails():
    res = run_cli("check", "--family", "counterexample:gamma=1.25",
                  "--pbeta", "1.01")
    assert res.returncode == 1


def test_check_class_membership_fails_for_quadratic_shear():
    res = run_cli("check", "--family", "bl:lam=0.3", "--class", "0.9,1,1")
    assert res.returncode == 1


def test_check_class_membership_passes_for_extremal():
    res = run_cli("check", "--family", "extremal:alpha=0.5,zeta=0.5,n=1",
                  "--cls", "0.5,0.5,1", "--json")
    assert res.returncode == 0, res.stdout + res.stderr
    payload = json.loads(res.stdout)
    validate_payload(payload, "bound_report.json")
    assert payload["report"]["pass"] is True


def test_check_json_report_schema_on_failure():
    # note the --cls= form: a bare "-0.5,..." would parse as an option
    res = run_cli("check", "--family", "counterexample:gamma=1.25",
                  "--cls=-0.5,1,1", "--json")
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    validate_payload(payload, "bound_report.json")
    assert payload["report"]["pass"] is False


def test_check_fails_on_an_interior_zero_of_h_prime(tmp_path):
    # h' = 1 - 2z vanishes at 1/2; on the sample circle alone the curvature
    # infimum would be 5/3 and the class check would pass
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps({"coeffs": [0.0, 1.0, -1.0], "zeta": 0.5, "n": 1}))
    res = run_cli("check", "--family", f"from-h:{path}", "--cls", "0.5,0.5,1", "--json")
    assert res.returncode == 1, res.stdout + res.stderr
    report = validate_payload(json.loads(res.stdout), "bound_report.json")["report"]
    assert report["pass"] is False and report["margin"] is None
    assert report["details"]["curvature_inf"] is None  # -inf
    assert report["witness"] == {"z": [0.5, 0.0], "value": None}
    assert "h' vanishes" in report["details"]["reason"]
    text = run_cli("check", "--family", f"from-h:{path}", "--cls", "0.5,0.5,1")
    assert text.returncode == 1 and "h' vanishes" in text.stdout


def test_check_fails_on_a_narrow_dip_between_samples(tmp_path):
    # h' = (1 - z/2)(1 - z/a)(1 - z/conj a), a 2e-6 beyond the sample circle
    # between two sample angles: the sampled curvature infimum is about 1.0,
    # the true one about -5e5 in the direction of a
    a = (0.9999 + 2e-6) * cmath.exp(1j * 511 * math.pi / 512)
    hp = np.polynomial.polynomial.polyfromroots([2.0, a, a.conjugate()]).real
    hp = hp / hp[0]
    coeffs = [0.0, *(hp / np.arange(1, len(hp) + 1)).tolist()]
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps({"coeffs": coeffs, "zeta": 0.5, "n": 1}))
    res = run_cli("check", "--family", f"from-h:{path}", "--cls", "0.5,0.5,1", "--json")
    assert res.returncode == 1, res.stdout + res.stderr
    report = validate_payload(json.loads(res.stdout), "bound_report.json")["report"]
    assert report["pass"] is False and report["details"]["curvature_inf"] < -4e5


@pytest.mark.parametrize("top", [1e-44, 1e-311])
def test_check_passes_with_a_tiny_top_coefficient_of_h(tmp_path, top):
    # h' = 1 + 0.2z + 3 top z^2 has its roots at -5 and far out; the tiny top
    # coefficient must neither put a root at 0 nor break the root finder
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps({"coeffs": [0, 1, 0.1, top], "zeta": 0.2}))
    res = run_cli("check", "--family", f"from-h:{path}", "--cls=-0.4,0.2,1")
    assert (res.returncode, res.stderr) == (0, ""), res.stdout
    assert res.stdout.startswith("[pass] membership")


_FROM_H_COMMANDS = [
    ("eval", "--z", "0.1,0"),
    ("area", "--r", "0.5"),
    ("render", "--preset", "overview"),
    ("check", "--cls", "0.5,0.3,2"),
    ("univalence", "--cells", "64"),
]


@pytest.mark.parametrize("argv", _FROM_H_COMMANDS, ids=lambda a: a[0])
@pytest.mark.parametrize("bad", ["NaN", "Infinity", "[0, -Infinity]"])
def test_non_finite_coefficients_are_a_usage_error(argv, bad, tmp_path):
    # Python's json reads NaN and Infinity; no verdict can come of them
    path = tmp_path / "coeffs.json"
    path.write_text(f'{{"coeffs": [0, 1, {bad}], "zeta": 0.3, "n": 2}}')
    res = run_cli(argv[0], "--family", f"from-h:{path}", *argv[1:])
    assert (res.returncode, res.stdout) == (2, ""), res.stdout
    assert "coefficients of h must be finite" in res.stderr and "at index 2" in res.stderr


@pytest.mark.parametrize("entry", ["1" + "0" * 400, "[0, -1" + "0" * 400 + "]"])
def test_coefficient_beyond_the_float_range_is_a_usage_error(entry, tmp_path):
    # complex() of a JSON integer past 1.8e308 raised OverflowError, exit 1
    path = tmp_path / "coeffs.json"
    path.write_text(f'{{"coeffs": [0, 1, {entry}]}}')
    res = run_cli("eval", "--family", f"from-h:{path}", "--z", "0.1,0")
    assert (res.returncode, res.stdout) == (2, "")
    assert "coefficients of h must be finite" in res.stderr and "at index 2" in res.stderr


@pytest.mark.parametrize("argv", [("eval", "--z", "0.1,0"), ("render", "--preset", "boundary")],
                         ids=lambda a: a[0])
@pytest.mark.parametrize("coeffs, message", [
    # h' = 1 + 2e308 z overflows
    ("[0, 1, 1e308]", "coefficients of h must have a finite derivative, got 2 * (1e+308+0j) "
                      "at index 2"),
    # h' = 1 + 1.5e308 z**2 is finite, h'' = 3e308 z overflows
    ("[0, 1, 0, 5e307]", "h' coefficients must have a finite derivative, got 2 * "
                         "(1.5e+308+0j) at index 2"),
], ids=["h-prime", "h-second"])
def test_coefficients_whose_derivative_overflows_are_a_usage_error(argv, coeffs, message,
                                                                    tmp_path, capsys):
    # in process, where a RuntimeWarning is an error: the overflow printed a
    # warning before the usage error, or none and ran with an infinite h''
    path = tmp_path / "coeffs.json"
    path.write_text(f'{{"coeffs": {coeffs}}}')
    assert cli.main([argv[0], "--family", f"from-h:{path}", *argv[1:]]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("coeffs, message", [
    ([], "non-empty 1-d"),
    ([0.0], "two entries"),
    ([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]], "bad coefficient entry"),
    (5, "with a 'coeffs' list"),
], ids=["empty", "single", "2-d", "number"])
def test_short_or_ill_shaped_coefficients_are_a_usage_error(coeffs, message, tmp_path):
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps({"coeffs": coeffs, "zeta": 0.3, "n": 2}))
    res = run_cli("eval", "--family", f"from-h:{path}", "--z", "0.1,0")
    assert (res.returncode, res.stdout) == (2, "")
    assert message in res.stderr, res.stderr


@pytest.mark.parametrize("entry", ["true", "false", '["0.1", 0]'])
def test_booleans_and_strings_are_not_coefficients(entry, tmp_path):
    # true read as 1 (so [0, true] was h = z), and a pair went through float()
    path = tmp_path / "coeffs.json"
    path.write_text(f'{{"coeffs": [0, 1, {entry}]}}')
    res = run_cli("eval", "--family", f"from-h:{path}", "--z", "0.1,0")
    assert (res.returncode, res.stdout) == (2, "")
    assert f"bad coefficient entry at index 2 in {str(path)!r}: {entry}" in res.stderr, res.stderr


def test_check_theorem_b_admissibility_error():
    res = run_cli("check", "--family", "counterexample:gamma=1.25",
                  "--theorem-b", "1,0,0.6,2")
    assert res.returncode == 2
    assert "error:" in res.stderr


@pytest.mark.parametrize("argv", [
    ("check", "--family", "extremal:alpha=0.5,zeta=0.5,n=1.5", "--cls", "0.5,0.5,1"),
    ("check", "--family", _EXTREMAL, "--cls", "0.5,0.5,1.7"),
    ("eval", "--family", "extremal:alpha=0.5,zeta=0.5,n=1.9", "--z", "0.1,0"),
    ("check", "--family", _EXTREMAL, "--theorem-b", "1,0,0.5,1.6"),
    ("verify-bounds", "--what", "covering", "--ns", "1.5"),
    ("eval", "--family", "from-h:{n_half}", "--z", "0.1,0"),
    ("eval", "--family", "from-h:{n_true}", "--z", "0.1,0"),
], ids=["spec", "cls", "eval", "theorem-b", "ns", "file-1.5", "file-true"])
def test_non_integer_n_is_a_usage_error(argv, tmp_path):
    files = {}
    for name, n in (("n_half", 1.5), ("n_true", True)):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps({"coeffs": [0.0, 1.0], "zeta": 0.5, "n": n}))
    res = run_cli(*[a.format(**files) for a in argv])
    assert res.returncode == 2
    assert res.stdout == "" and "must be an integer" in res.stderr


def test_order_is_not_a_family_key():
    spec = "extremal:alpha=0.5,zeta=0.5,n=1,delta=0.6+0.8j,order=1"
    res = run_cli("render", "--family", spec, "--json")
    assert res.returncode == 2
    assert "unknown family parameter 'order'" in res.stderr


def test_check_requires_a_mode():
    res = run_cli("check", "--family", "identity")
    assert res.returncode == 2


# -- verify-bounds ------------------------------------------------------------


def test_verify_bounds_covering_json():
    res = run_cli("verify-bounds", "--what", "covering", "--json")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    validate_payload(payload, "bound_report_list.json")
    assert payload["all_pass"] is True
    assert len(payload["reports"]) > 0
    for rep in payload["reports"]:
        assert rep["pass"] is True


def test_verify_bounds_coefficients_text():
    res = run_cli("verify-bounds", "--what", "coefficients")
    assert res.returncode == 0, res.stderr
    assert "all checks passed" in res.stdout


def test_verify_bounds_restricted_lattice():
    res = run_cli("verify-bounds", "--what", "growth", "--alphas", "0.5",
                  "--zetas", "0", "--zeta-rel", "", "--ns", "1",
                  "--radii", "0.3,0.7", "--json")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["all_pass"] is True


# -- counterexample -----------------------------------------------------------


def test_counterexample_json_schema_and_values():
    res = run_cli("counterexample", "--gamma", "1.25", "--json")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    validate_payload(payload, "collision.json")
    assert payload["gamma"] == pytest.approx(1.25)
    assert payload["r0"] == pytest.approx(0.9924038765061041, abs=1e-12)
    assert payload["threshold"] == pytest.approx(0.984807753012208, abs=1e-12)
    z1 = complex(*payload["z1"])
    z2 = complex(*payload["z2"])
    assert z2 == pytest.approx(z1.conjugate())
    assert payload["image_gap"] < 1e-8


def test_counterexample_accepts_fraction():
    a = run_cli("counterexample", "--gamma", "5/4", "--json")
    b = run_cli("counterexample", "--gamma", "1.25", "--json")
    assert a.returncode == 0 and b.returncode == 0
    assert json.loads(a.stdout)["r0"] == json.loads(b.stdout)["r0"]


def test_counterexample_infeasible_gamma():
    res = run_cli("counterexample", "--gamma", "0.9")
    assert res.returncode == 2


# -- univalence ---------------------------------------------------------------


def test_univalence_identity_certified():
    res = run_cli("univalence", "--family", "identity", "--r", "0.9",
                  "--cells", "64", "--json")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    validate_payload(payload, "univalence_report.json")
    assert payload["report"]["verdict"] == "certified-at-resolution"


def test_univalence_bad_cells_usage_error():
    res = run_cli("univalence", "--family", "identity", "--cells", "8")
    assert res.returncode == 2


# -- area ---------------------------------------------------------------------


def test_area_identity_quarter_pi():
    res = run_cli("area", "--family", "identity", "--r", "0.5", "--json")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    validate_payload(payload, "area.json")
    assert payload["area"] == pytest.approx(math.pi / 4.0, rel=1e-9)
    assert payload["closed_form"] == pytest.approx(math.pi / 4.0, rel=1e-12)
    assert (payload["route"], payload["terms"]) == ("series", 1)


def test_area_reports_series_route():
    # bl: h' = 1 - 2 lam z is a polynomial, so its finite sum is the closed form
    res = run_cli("area", "--family", "bl:lam=0.3", "--r", "0.5", "--json")
    assert res.returncode == 0, res.stderr
    payload = validate_payload(json.loads(res.stdout), "area.json")
    assert (payload["route"], payload["terms"]) == ("series", 2)
    assert payload["closed_form"] == payload["area"]

    res = run_cli("area", "--family", "extremal:alpha=0.5,zeta=0.5,n=1",
                  "--r", "0.999", "--json")
    assert res.returncode == 0, res.stderr
    payload = validate_payload(json.loads(res.stdout), "area.json")
    assert payload["route"] == "series" and payload["terms"] > 64
    assert payload["closed_form"] is None


def test_area_with_class_envelope():
    res = run_cli("area", "--family", "extremal:alpha=0.5,zeta=0.5,n=1",
                  "--r", "0.5", "--cls", "0.5,0.5,1", "--json")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    validate_payload(payload, "area.json")
    assert payload["lower"] <= payload["area"] <= payload["upper"]


def test_area_envelope_violation_exits_one():
    # the alpha = 0 extremal has a far larger image than anything the narrow
    # alpha = 0.99 class allows, so its area must breach that envelope
    res = run_cli("area", "--family", "extremal:alpha=0,zeta=0,n=1",
                  "--r", "0.9", "--cls", "0.99,0,1", "--json")
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    assert payload["area"] > payload["upper"] + 1e-8


# -- render -------------------------------------------------------------------


def test_render_writes_deterministic_svg(tmp_path):
    out = tmp_path / "fig.svg"
    res1 = run_cli("render", "--family", "counterexample:gamma=1.25",
                   "--preset", "boundary", "--out", out, "--json")
    assert res1.returncode == 0, res1.stderr
    manifest = json.loads(res1.stdout)
    validate_payload(manifest, "render.json")
    data = out.read_bytes()
    assert len(data) == manifest["bytes"]
    assert hashlib.sha256(data).hexdigest() == manifest["sha256"]

    out2 = tmp_path / "fig2.svg"
    res2 = run_cli("render", "--family", "counterexample:gamma=1.25",
                   "--preset", "boundary", "--out", out2, "--json")
    assert json.loads(res2.stdout)["sha256"] == manifest["sha256"]
    assert out2.read_bytes() == data


def test_render_zoom_centers_on_collision(tmp_path):
    out = tmp_path / "zoom.svg"
    res = run_cli("render", "--family", "counterexample:gamma=1.25",
                  "--preset", "zoom", "--out", out, "--json")
    assert res.returncode == 0, res.stderr
    manifest = json.loads(res.stdout)
    assert manifest["scene"]["center"][0] == pytest.approx(
        1.1617533476418234, abs=1e-9)
    assert manifest["scene"]["center"][1] == pytest.approx(0.0, abs=1e-12)


def test_render_zoom_centres_on_the_collision_of_the_given_gamma(tmp_path):
    # the label prints gamma to 6 digits (1.23457); the centre must use the
    # gamma the family was built from, whose collision image is 9e-9 away
    gamma = 1.23456789
    col = find_symmetric_collision(gamma)
    want = complex(make_counterexample(gamma)(col.z1)).real
    res = run_cli("render", "--family", f"counterexample:gamma={gamma}",
                  "--preset", "zoom", "--out", tmp_path / "z.svg", "--json")
    assert res.returncode == 0, res.stderr
    center = json.loads(res.stdout)["scene"]["center"]
    assert abs(center[0] - want) <= 1e-12
    assert center[1] == 0.0


def test_render_zoom_takes_its_centre_from_the_collision_solver(monkeypatch, tmp_path):
    # the solver already evaluated f(z1): the CLI's own map is not asked again
    made, scalar_calls = [], []
    build = cli.family_from_spec
    monkeypatch.setattr(cli, "family_from_spec", lambda spec: made.append(build(spec)) or made[-1])
    call = HarmonicMapping.__call__

    def counting(self, z):
        if self is made[0] and np.ndim(z) == 0:
            scalar_calls.append(z)
        return call(self, z)

    monkeypatch.setattr(HarmonicMapping, "__call__", counting)
    res = run_cli("render", "--family", "counterexample:gamma=1.25", "--preset", "zoom",
                  "--out", tmp_path / "z.svg", "--json")
    assert res.returncode == 0, res.stderr
    assert len(made) == 1 and scalar_calls == []
    col = find_symmetric_collision(1.25)
    assert json.loads(res.stdout)["scene"]["center"] == [col.w.real, 0.0]


def test_render_json_stdout_is_the_document_alone():
    # a caller that reads stdout as one JSON document (the benchmark takes its
    # last line as its result) must find nothing else there
    argv = ("render", "--family", "counterexample:gamma=5/4", "--preset", "zoom",
            "--half-width", "0.08", "--json")
    res = run_module(*argv)
    assert res.returncode == 0, res.stderr
    manifest = json.loads(res.stdout)
    assert res.stdout == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    # in process, the same bytes go to the sys.stdout of the call
    inproc = run_cli(*argv)
    assert (inproc.returncode, inproc.stdout, inproc.stderr) == (0, res.stdout, res.stderr)


def test_render_zoom_needs_collision_family():
    res = run_cli("render", "--family", "identity", "--preset", "zoom")
    assert res.returncode == 2


def test_render_custom_overrides(tmp_path):
    out = tmp_path / "c.svg"
    res = run_cli("render", "--family", "identity", "--preset", "overview",
                  "--circles", "3", "--rays", "4", "--samples", "128",
                  "--r", "0.8", "--out", out, "--json")
    assert res.returncode == 0, res.stderr
    scene = json.loads(res.stdout)["scene"]
    assert scene["circles"] == 3
    assert scene["rays"] == 4
    assert scene["samples_per_curve"] == 128
    assert scene["radius"] == pytest.approx(0.8)


def test_render_zero_circles_draws_rays_only(tmp_path):
    out = tmp_path / "rays.svg"
    res = run_cli("render", "--family", "identity", "--circles", "0", "--rays", "4",
                  "--r", "0.9", "--out", out, "--json")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["scene"]["circles"] == 0
    classes = set(re.findall(r'class="([^"]+)"', out.read_text(encoding="utf-8")))
    assert classes == {"ray-0", "ray-1", "ray-2", "ray-3"}


@pytest.mark.parametrize("argv", [
    ("--circles", "0", "--rays", "0"),
    ("--preset", "zoom", "--center", "0.5,0", "--half-width", "0"),
    ("--preset", "boundary", "--samples", "0"),
    ("--preset", "custom", "--samples", "0"),
])
def test_render_explicit_zero_is_rejected(argv):
    # an explicit 0 must reach validation, not fall back to the default
    res = run_cli("render", "--family", "identity", *argv)
    assert res.returncode == 2
    assert res.stderr.startswith("error:"), res.stderr


@pytest.mark.parametrize("argv", [
    ("--family", "identity", "--center", "0,0", "--half-width", "1e308"),
    ("--family", "identity", "--center", "0,0", "--half-width", "1e-320"),
    ("--preset", "boundary"),
])
def test_render_viewport_off_the_canvas_grid_is_a_usage_error(argv, tmp_path):
    # 2 hw = inf, k = S/(2 hw) = inf, and an auto-fit viewport whose width
    # overflows: it wrote viewBox="-1e+308 -1e+308 inf inf" and exited 0
    if "--family" not in argv:
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"coeffs": [0, 1, 8.9e307], "zeta": 0.1}))
        argv = ("--family", f"from-h:{path}") + argv
    res = run_cli("render", *argv)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr.startswith("error: viewport"), res.stderr


@pytest.mark.parametrize("preset", ["overview", "boundary", "custom"])
@pytest.mark.parametrize("lone", [("--center", "0.5,0"), ("--half-width", "0.1")])
def test_render_lone_viewport_option_is_rejected(preset, lone):
    res = run_cli("render", "--family", "identity", "--preset", preset, *lone)
    assert res.returncode == 2
    assert res.stderr.startswith("error:"), res.stderr


@pytest.mark.parametrize("argv", [
    ("--circles", "3"),
    ("--rays", "5"),
    ("--circles", "3", "--rays", "5", "--samples", "300"),
])
def test_render_boundary_rejects_circles_and_rays(argv):
    # the boundary preset draws one curve; options it cannot use are errors
    res = run_cli("render", "--family", "identity", "--preset", "boundary", *argv)
    assert res.returncode == 2
    assert res.stderr.startswith("error:") and res.stdout == "", res.stderr


def test_render_boundary_takes_samples():
    res = run_cli("render", "--family", "identity", "--preset", "boundary",
                  "--samples", "300", "--json")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["scene"]["samples"] == 300


def test_render_zoom_derives_missing_center(tmp_path):
    out = tmp_path / "zoom.svg"
    res = run_cli("render", "--family", "counterexample:gamma=1.25", "--preset", "zoom",
                  "--half-width", "0.08", "--out", out, "--json")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["scene"]["half_width"] == 0.08


# -- global behavior ----------------------------------------------------------


def test_version_flag():
    res = run_cli("--version")
    assert res.returncode == 0
    assert "harmap" in res.stdout


@pytest.mark.parametrize("argv,code", [
    (("--version",), 0),
    (("eval", "--family", "nope:x=1", "--z", "0,0"), 2),
])
def test_module_entry_point(argv, code):
    # ``python -m harmap`` gives the exit code and output of the in-process runner
    res = run_module(*argv)
    assert res.returncode == code
    inproc = run_cli(*argv)
    assert (res.returncode, res.stdout, res.stderr) == \
        (inproc.returncode, inproc.stdout, inproc.stderr)


def test_out_writes_json_file(tmp_path):
    out = tmp_path / "eval.json"
    res = run_cli("eval", "--family", "identity", "--z", "0.25,0.25",
                  "--json", "--out", out)
    assert res.returncode == 0, res.stderr
    payload = json.loads(out.read_text(encoding="utf-8"))
    validate_payload(payload, "eval.json")


def test_json_envelope_has_version_and_config():
    res = run_cli("area", "--family", "identity", "--r", "0.5", "--json")
    payload = json.loads(res.stdout)
    assert "version" in payload
    assert isinstance(payload["config"], dict)
    assert payload["config"]["family"] == "identity"


def test_missing_subcommand_usage_error():
    res = run_cli()
    assert res.returncode == 2


def test_main_in_process_reuses_parser():
    # one process, one parser: a failed parse leaves nothing behind that
    # changes a later command's output
    def run(*argv):
        res = run_cli(*argv)
        return res.returncode, res.stdout

    evaluate = ("eval", "--family", "bl:lam=0.3", "--z", "0.5,0.25", "--json")
    code, first = run(*evaluate)
    assert code == 0
    validate_payload(json.loads(first), "eval.json")

    assert run_cli("check", "--family", "identity", "--cls").returncode == 2

    code, checked = run("check", "--family", "identity", "--cls", "0.5,0,1", "--json")
    assert code == 0
    validate_payload(json.loads(checked), "bound_report.json")

    code, again = run(*evaluate)
    assert code == 0
    assert again == first
    assert cli.build_parser() is cli.build_parser()
