"""Runs that must end in one JSON error document and the documented exit code."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cartanlim.limits
from cartanlim.obstruct import PolyParamGroup
from cartanlim.projgeo import ProjTransform
from util import FIXTURES, HUGE_DEGREE_GROUP, NONGROUPS, group_document, identity_oracle, run_cli

SEED = str(FIXTURES / "seed_a3.json")
PARAMS = str(FIXTURES / "params_ones.json")


def error_of(argv: list[str]) -> tuple[int, dict]:
    code, out = run_cli(argv)
    return code, json.loads(out)["error"]


def write(tmp_path, name: str, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_decreasing_r_schedule_exits_2():
    code, error = error_of(["converge", SEED, PARAMS, "--r-schedule", "100,10"])
    assert code == 2
    assert error["type"] == "ScheduleError"


def test_empty_r_schedule_exits_2():
    code, error = error_of(["converge", SEED, PARAMS, "--r-schedule", ""])
    assert code == 2
    assert error["type"] == "ScheduleError"


def test_zero_r_exits_2():
    code, error = error_of(["converge", SEED, PARAMS, "--r-schedule", "0,10"])
    assert code == 2
    assert error["type"] == "NonpositiveRError"


def test_converge_past_the_float_range_exits_2(tmp_path):
    params = write(tmp_path, "params.json", {"a": ["1" + "0" * 400, "1", "1", "1"], "b": ["1", "1"]})
    code, error = error_of(["converge", SEED, params])
    assert code == 2
    assert error["type"] == "FloatRangeError"


def test_non_finite_tolerance_exits_2():
    for value in ("nan", "inf", "-inf"):
        code, out = run_cli(["converge", SEED, PARAMS, "--tolerance", value])
        assert code == 2
        lines = out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "ParseError"


def test_negative_tolerance_exits_2():
    # a ParseError on the flag, not a failure of the root finder downstream
    for argv in (["--tolerance", "-1"], ["--tolerance=-0.5"], ["--tolerance", "-1e-30"]):
        code, error = error_of(["converge", SEED, PARAMS, *argv])
        assert code == 2
        assert error["type"] == "ParseError"
        assert "--tolerance must not be negative" in error["message"]


def test_negative_caps_exit_2():
    # a ParseError on the flag, not a cap error of the enumeration nor a run
    # that skips the capped work
    alpha3, permuted = str(FIXTURES / "alpha3_basis.json"), str(FIXTURES / "alpha3_basis_permuted.json")
    group = str(FIXTURES / "group_m5.json")
    for argv, flag in (
        (["cross-ratio", alpha3, "--cap", "-1"], "--cap"),
        (["equivalent", alpha3, permuted, "--cap=-1"], "--cap"),
        (["seed-conjugate", SEED, SEED, "--cap", "-2"], "--cap"),
        (["obstruct", "flat", group, "--sample-cap", "-3"], "--sample-cap"),
        (["obstruct", "flag", SEED, "--sample-cap=-1"], "--sample-cap"),
    ):
        code, error = error_of(argv)
        assert code == 2
        assert error["type"] == "ParseError"
        assert error["message"] == f"{flag} must not be negative, got {argv[-1].split('=')[-1]}"


def test_zero_caps_stay_legal():
    code, error = error_of(["cross-ratio", str(FIXTURES / "alpha3_basis.json"), "--cap", "0"])
    assert code == 3 and error["type"] == "CapExceededError"
    code, out = run_cli(["obstruct", "flag", SEED, "--sample-cap", "0"])
    assert code == 0 and json.loads(out)["flags"]["sample_cap"] == 0


def test_negative_rational_after_a_space_is_a_value():
    # argparse reads "-7/2" as an unknown option unless told otherwise
    spaced = run_cli(["alpha-orbit", "--alpha", "-7/2"])
    assert spaced == run_cli(["alpha-orbit", "--alpha=-7/2"])
    assert spaced[0] == 0
    assert json.loads(spaced[1])["result"]["alpha"] == "-7/2"


@pytest.mark.parametrize("digit", ["\u0663", "\uff13"], ids=["arabic-indic", "fullwidth"])
def test_non_ascii_digits_exit_2(tmp_path, digit):
    # "\u0663" and "\uff13" are Unicode digits three, which int() and \\d would read as 3
    seed = write(tmp_path, "seed.json", {"m": 4, "n": 2, "rows": [["1", "0"], ["1", "1"], ["1", "2"], ["1", digit]]})
    for argv in (
        ["orbit-dim", seed, str(FIXTURES / "point_typical.json")],
        ["alpha-orbit", "--alpha", digit],
        ["alpha-orbit", "--alpha", f"1/{digit}"],
        ["bounds", "--k-range", f"7:{digit}9"],
        ["bounds", "--k-range", f"{digit}:9"],
    ):
        code, error = error_of(argv)
        assert code == 2, argv
        assert error["type"] == "ParseError", argv


def test_ascii_forms_read_as_before():
    # signs, leading zeros and p/q keep their meaning
    for argv, key, value in (
        (["alpha-orbit", "--alpha", "3"], "alpha", "3"),
        (["alpha-orbit", "--alpha", "+06/4"], "alpha", "3/2"),
        (["bounds", "--k-range", "+07:08"], "k_range", "7:8"),
    ):
        code, out = run_cli(argv)
        assert code == 0, argv
        assert json.loads(out)["flags"][key] == value, argv
    for k_range in ("7_0:8_0", "7:8:9", " 7:8", "7:", "0x7:8"):
        code, error = error_of(["bounds", "--k-range", k_range])
        assert code == 2 and error["type"] == "ParseError", k_range
    code, error = error_of(["bounds", "--k-range", "1" * 5000 + ":8"])
    assert code == 2 and error["type"] == "ParseError"
    assert "digit" in error["message"]


def test_bounds_range_over_the_limit_exits_3():
    code, error = error_of(["bounds", "--k-range", "7:100000000"])
    assert code == 3
    assert error["type"] == "CapExceededError"


def test_flat_on_redundant_parameters_exits_2(tmp_path):
    # [[1, v0 + v1], [0, 1]]: two parameters with a one-dimensional image
    group = write(
        tmp_path,
        "redundant.json",
        {
            "dim_params": 2,
            "ambient": 2,
            "entries": [
                [[["1", [0, 0]]], [["1", [1, 0]], ["1", [0, 1]]]],
                [[], [["1", [0, 0]]]],
            ],
        },
    )
    code, error = error_of(["obstruct", "flat", group])
    assert code == 2
    assert error["type"] == "RedundantParametersError"


def test_group_degree_above_the_limit_exits_2_before_any_evaluation(tmp_path, monkeypatch):
    def refuse(self, *args):
        raise AssertionError("an entry was evaluated before the degree check")

    monkeypatch.setattr(PolyParamGroup, "_combine", refuse)
    path = tmp_path / "group.json"
    path.write_bytes(HUGE_DEGREE_GROUP)
    for subcommand in ("flat", "tier"):
        code, out = run_cli(["obstruct", subcommand, str(path)])
        assert code == 2
        lines = out.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "ParseError"
        assert "total degree 1000000000" in error["message"]


@pytest.mark.parametrize("name", sorted(NONGROUPS))
def test_group_that_is_not_additive_exits_2(tmp_path, name):
    group = write(tmp_path, "group.json", group_document(NONGROUPS[name]))
    for subcommand in ("flat", "tier"):
        code, out = run_cli(["obstruct", subcommand, group])
        assert code == 2
        lines = out.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "ParseError"
        assert "not additive" in error["message"]


def test_boolean_exponent_exits_2(tmp_path):
    # read as the exponent 1, this is the group v -> [[1, v], [0, 1]]
    entries = [[[["1", [0]]], [["1", [True]]]], [[], [["1", [0]]]]]
    group = write(tmp_path, "group.json", {"dim_params": 1, "ambient": 2, "entries": entries})
    code, error = error_of(["obstruct", "flat", group])
    assert code == 2
    assert error["type"] == "ParseError"
    assert "bad exponent tuple [True]" in error["message"]


def test_boolean_rational_exits_2(tmp_path):
    # JSON true and false are not the rationals 1 and 0, in any rational field
    poly = [[[["1", [0]]], [[True, [1]]]], [[], [["1", [0]]]]]
    cases = {
        "seed row": ["obstruct", "flag", write(tmp_path, "seed.json", {"m": 1, "n": 2, "rows": [[True, False]]})],
        "point coordinate": ["orbit-dim", SEED, write(tmp_path, "point.json", ["1", "0", "0", "0", "0", "1", True])],
        "params entry": ["converge", SEED, write(tmp_path, "params.json", {"a": ["1", "1", False, "1"], "b": ["1", "1"]})],
        "polynomial coefficient": [
            "obstruct", "flat", write(tmp_path, "group.json", {"dim_params": 1, "ambient": 2, "entries": poly})
        ],
    }
    for case, argv in cases.items():
        code, error = error_of(argv)
        assert (code, error["type"]) == (2, "ParseError"), case
        assert "expected a rational string, got" in error["message"], case


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")
def test_integer_over_the_digit_limit_exits_2(tmp_path):
    # json.loads raises a plain ValueError for an integer literal this long
    seed = tmp_path / "seed.json"
    seed.write_text('{"m": 1, "n": 2, "rows": [[' + "7" * (sys.get_int_max_str_digits() + 700) + ', "1"]]}')
    code, error = error_of(["obstruct", "flag", str(seed)])
    assert (code, error["type"]) == (2, "ParseError")
    assert "invalid JSON" in error["message"]


def test_deeply_nested_json_exits_2(tmp_path):
    seed = tmp_path / "seed.json"
    seed.write_text("[" * 100000)
    code, out = run_cli(["obstruct", "flag", str(seed)])
    assert code == 2
    assert len(out.splitlines()) == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError" and "invalid JSON" in error["message"]


def test_non_integer_basis_n_names_the_key(tmp_path):
    points = [["1", "0"], ["0", "1"], ["1", "1"], ["1", "2"]]
    for n in ("2", 2.0, True):
        basis = write(tmp_path, "basis.json", {"n": n, "points": points})
        code, error = error_of(["cross-ratio", basis])
        assert code == 2
        assert error["type"] == "ParseError"
        assert "'n' must be an integer" in error["message"]


def test_non_integer_seed_shape_names_the_key(tmp_path):
    rows = [["1", "0"], ["1", "1"], ["1", "2"], ["1", "3"]]
    for key in ("m", "n"):
        doc = {"m": 4, "n": 2, "rows": rows}
        doc[key] = float(doc[key])
        seed = write(tmp_path, "seed.json", doc)
        code, error = error_of(["orbit-dim", seed, str(FIXTURES / "point_typical.json")])
        assert code == 2
        assert error["type"] == "ParseError"
        assert f"{key!r} must be an integer" in error["message"]


def test_non_integer_group_shape_names_the_key(tmp_path):
    entries = [[[["1", [0]]], [["1", [1]]]], [[], [["1", [0]]]]]
    for key in ("dim_params", "ambient"):
        doc = {"dim_params": 1, "ambient": 2, "entries": entries}
        doc[key] = float(doc[key])
        group = write(tmp_path, "group.json", doc)
        code, error = error_of(["obstruct", "flat", group])
        assert code == 2
        assert error["type"] == "ParseError"
        assert f"{key!r} must be an integer" in error["message"]


def test_non_string_builtin_name_exits_2(tmp_path):
    group = write(tmp_path, "group.json", {"builtin": 5})
    code, error = error_of(["obstruct", "flat", group])
    assert code == 2
    assert error["type"] == "ParseError"


def test_mixed_shape_family_exits_2(tmp_path):
    family = write(tmp_path, "family.json", {"coeff_matrices": [[[1, 0], [0, 0]], [[1, 0, 0]]]})
    code, error = error_of(["obstruct", "tier-one", family])
    assert code == 2
    assert error == {"type": "ParseError", "message": "family: coefficient matrices of mixed shapes"}


def test_failed_self_check_exits_4(monkeypatch):
    # a wrong dual witness: the identity moves the row (1, 3) of the alpha = 3
    # seed onto no row of the alpha = 5 seed
    identity = ProjTransform(identity_oracle(2))
    monkeypatch.setattr(cartanlim.limits, "projectively_equivalent", lambda left, right: identity)
    code, out = run_cli(["seed-conjugate", SEED, str(FIXTURES / "seed_a5.json")])
    assert code == 4
    lines = out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "InternalError"


def test_unwritable_output_exits_2_with_one_document(tmp_path):
    out_path = tmp_path / "missing" / "x.json"
    code, out = run_cli(["--output", str(out_path), "bounds", "--k-range", "7:8"])
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "OutputError"
    assert not out_path.exists()


def test_closed_stdout_exits_2_without_traceback():
    # The read end is closed before the child starts, so its first write fails.
    # Stdout stays block-buffered (no PYTHONUNBUFFERED), so that without a flush
    # inside `main` the small document would fail only at the exit flush.  A
    # help page is written the same way.
    src = str(Path(cartanlim.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for argv in (["bounds", "--k-range", "7:12"], ["--help"], ["obstruct", "tier", "--help"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "cartanlim.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2, argv
        assert proc.stderr == b"", argv
