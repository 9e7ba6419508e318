"""End-to-end command-line checks: exit codes, JSON schemas, file output."""

import cmath
import contextlib
import hashlib
import io
import json
import math
import re

import numpy as np
import pytest

from conftest import run_cli, validate_payload
from harmap import cli
from harmap.mappings import make_counterexample
from harmap.univalence import CollisionSearchParams, find_symmetric_collision


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


def test_eval_unknown_family_usage_error():
    res = run_cli("eval", "--family", "nope:x=1", "--z", "0,0")
    assert res.returncode == 2
    assert "error:" in res.stderr


def test_eval_missing_required_flag():
    res = run_cli("eval", "--family", "identity")
    assert res.returncode == 2


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


def test_check_theorem_b_admissibility_error():
    res = run_cli("check", "--family", "counterexample:gamma=1.25",
                  "--theorem-b", "1,0,0.6,2")
    assert res.returncode == 2
    assert "error:" in res.stderr


_EXTREMAL = "extremal:alpha=0.5,zeta=0.5,n=1"


@pytest.mark.parametrize("argv", [
    ("check", "--family", "extremal:alpha=0.5,zeta=0.5,n=1.5", "--cls", "0.5,0.5,1"),
    ("check", "--family", _EXTREMAL, "--cls", "0.5,0.5,1.7"),
    ("eval", "--family", "extremal:alpha=0.5,zeta=0.5,n=1.9", "--z", "0.1,0"),
    ("check", "--family", _EXTREMAL, "--theorem-b", "1,0,0.5,1.6"),
    ("verify-bounds", "--what", "covering", "--ns", "1.5"),
    ("eval", "--family", "from-h:{n_half}", "--z", "0.1,0"),
    ("eval", "--family", "from-h:{n_true}", "--z", "0.1,0"),
], ids=["spec", "cls", "eval", "theorem-b", "ns", "file-1.5", "file-true"])
def test_non_integer_n_is_a_usage_error(argv, tmp_path, capsys):
    files = {}
    for name, n in (("n_half", 1.5), ("n_true", True)):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps({"coeffs": [0.0, 1.0], "zeta": 0.5, "n": n}))
    assert cli.main([a.format(**files) for a in argv]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "must be an integer" in out.err


def test_order_is_not_a_family_key(capsys):
    spec = "extremal:alpha=0.5,zeta=0.5,n=1,delta=0.6+0.8j,order=1"
    assert cli.main(["render", "--family", spec, "--json"]) == 2
    assert "unknown family parameter 'order'" in capsys.readouterr().err


def test_check_requires_a_mode():
    res = run_cli("check", "--family", "identity")
    assert res.returncode == 2


# -- verify-bounds ------------------------------------------------------------


def test_verify_bounds_covering_json():
    res = run_cli("verify-bounds", "--what", "covering", "--json", timeout=300)
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    validate_payload(payload, "bound_report_list.json")
    assert payload["all_pass"] is True
    assert len(payload["reports"]) > 0
    for rep in payload["reports"]:
        assert rep["pass"] is True


def test_verify_bounds_coefficients_text():
    res = run_cli("verify-bounds", "--what", "coefficients", timeout=300)
    assert res.returncode == 0, res.stderr
    assert "all checks passed" in res.stdout


def test_verify_bounds_restricted_lattice():
    res = run_cli("verify-bounds", "--what", "growth", "--alphas", "0.5",
                  "--zetas", "0", "--zeta-rel", "", "--ns", "1",
                  "--radii", "0.3,0.7", "--json", timeout=300)
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
    col = find_symmetric_collision(CollisionSearchParams(gamma=gamma))
    want = complex(make_counterexample(gamma)(col.z1)).real
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["render", "--family", f"counterexample:gamma={gamma}",
                         "--preset", "zoom", "--out", str(tmp_path / "z.svg"),
                         "--json"]) == 0
    center = json.loads(buf.getvalue())["scene"]["center"]
    assert abs(center[0] - want) <= 1e-12
    assert center[1] == 0.0


def test_render_json_stdout_is_the_document_alone():
    # a caller that reads stdout as one JSON document (the benchmark takes its
    # last line as its result) must find nothing else there
    argv = ("render", "--family", "counterexample:gamma=5/4", "--preset", "zoom",
            "--half-width", "0.08", "--json")
    res = run_cli(*argv)
    assert res.returncode == 0, res.stderr
    manifest = json.loads(res.stdout)
    assert res.stdout == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    # in process, the same bytes go to the sys.stdout of the call
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    assert buf.getvalue() == res.stdout


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


@pytest.mark.parametrize("preset", ["overview", "boundary", "custom"])
@pytest.mark.parametrize("lone", [("--center", "0.5,0"), ("--half-width", "0.1")])
def test_render_lone_viewport_option_is_rejected(preset, lone):
    res = run_cli("render", "--family", "identity", "--preset", preset, *lone)
    assert res.returncode == 2
    assert res.stderr.startswith("error:"), res.stderr


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


def test_main_in_process_reuses_parser(capsys):
    # one process, one parser: a failed parse leaves nothing behind that
    # changes a later command's output
    def run(*argv):
        code = cli.main(list(argv))
        return code, capsys.readouterr().out

    evaluate = ("eval", "--family", "bl:lam=0.3", "--z", "0.5,0.25", "--json")
    code, first = run(*evaluate)
    assert code == 0
    validate_payload(json.loads(first), "eval.json")

    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "--family", "identity", "--cls"])
    assert exc.value.code == 2
    capsys.readouterr()

    code, checked = run("check", "--family", "identity", "--cls", "0.5,0,1", "--json")
    assert code == 0
    validate_payload(json.loads(checked), "bound_report.json")

    code, again = run(*evaluate)
    assert code == 0
    assert again == first
    assert cli.build_parser() is cli.build_parser()
