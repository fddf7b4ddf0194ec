import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

from cartanlim import exactq
from cartanlim.exactq import QMatrix, inverse
from cartanlim.limits import GroupElementParams, SeedMatrix, element_params, rho
from util import FIXTURES, child_env, manifest_cases, resolve_argv, run_cli

REGEN = os.environ.get("REGEN_FIXTURES") == "1"


@pytest.mark.parametrize("case", manifest_cases(), ids=lambda c: c["name"])
def test_fixture_replays_to_committed_output(case):
    code, out = run_cli(resolve_argv(case["argv"]))
    expected_path = FIXTURES / case["expected"]
    if REGEN:
        expected_path.write_text(out, encoding="utf-8")
    assert code == case["exit_code"]
    assert out == expected_path.read_text(encoding="utf-8")


def console_command() -> tuple[list[str], dict | None]:
    """The installed `cartanlim` script and no environment change, or when
    none is installed, `python -m cartanlim.cli` with `src` on PYTHONPATH."""
    script = shutil.which("cartanlim")
    if script:
        return [script], None
    return [sys.executable, "-m", "cartanlim.cli"], child_env()


@pytest.mark.parametrize("case", manifest_cases(), ids=lambda c: c["name"])
def test_console_script_replays_fixture(case):
    # in a fresh process per call, not cli.main
    command, env = console_command()
    proc = subprocess.run(
        [*command, *resolve_argv(case["argv"])], capture_output=True, encoding="utf-8", timeout=120, env=env
    )
    assert proc.returncode == case["exit_code"]
    assert proc.stdout == (FIXTURES / case["expected"]).read_text(encoding="utf-8")


def flags_text(document: str) -> str:
    """The document's `flags` object as the document spells it, which is
    the dumped form the input hash starts from."""
    start = document.index('"flags": ') + len('"flags": ')
    _, end = json.JSONDecoder().raw_decode(document, start)
    return document[start:end]


@pytest.mark.parametrize("case", manifest_cases(), ids=lambda c: c["name"])
def test_input_hash_matches_hashlib(case):
    # an oracle that reads neither cli nor jsonio: the dumped flags, then a
    # zero byte and the bytes of each input file, in argument order
    document = (FIXTURES / case["expected"]).read_text(encoding="utf-8")
    digest = hashlib.sha256(flags_text(document).encode("utf-8"))
    for arg in case["argv"]:
        if arg.endswith(".json") and (FIXTURES / arg).is_file():
            digest.update(b"\x00" + (FIXTURES / arg).read_bytes())
    assert json.loads(document)["input_hash"] == digest.hexdigest()


def test_hashlib_fallback_replays_fixture():
    # with neither built-in SHA-256 module importable, cli takes `hashlib`'s
    case = next(c for c in manifest_cases() if c["name"] == "equivalent_permuted")
    code = (
        "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; from cartanlim import cli;"
        "assert cli.sha256 is sys.modules['hashlib'].sha256; sys.exit(cli.main(sys.argv[1:]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *resolve_argv(case["argv"])],
        capture_output=True,
        encoding="utf-8",
        timeout=120,
        env=child_env(),
    )
    assert proc.returncode == case["exit_code"], proc.stderr
    assert proc.stdout == (FIXTURES / case["expected"]).read_text(encoding="utf-8")


def test_documents_are_valid_json_with_envelope():
    for case in manifest_cases():
        doc = json.loads((FIXTURES / case["expected"]).read_text())
        assert doc["tool"] == "cartanlim"
        assert doc["version"]
        assert "seed" in doc
        assert "input_hash" in doc
        assert "result" in doc


def test_byte_identical_across_runs():
    for case in manifest_cases():
        argv = resolve_argv(case["argv"])
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second


def test_expected_verdicts():
    def result_of(name):
        case = next(c for c in manifest_cases() if c["name"] == name)
        return json.loads((FIXTURES / case["expected"]).read_text())["result"]

    assert result_of("equivalent_permuted")["conjugate"] is True
    assert result_of("equivalent_permuted")["witness"] is not None
    assert result_of("equivalent_3_vs_5")["conjugate"] is False
    assert result_of("seed_conjugate_roundtrip")["conjugate"] is True
    assert result_of("seed_conjugate_3_vs_5")["conjugate"] is False
    assert result_of("alpha_orbit_3")["affine_values"] == [
        "-1/3",
        "-3",
        "1/4",
        "3/4",
        "4",
        "4/3",
    ]
    assert result_of("orbit_dim_typical") == {"kind": "Typical", "dim": 5, "vanishing": []}
    assert result_of("orbit_dim_exceptional") == {
        "kind": "Exceptional",
        "dim": 4,
        "vanishing": [3],
    }
    assert result_of("orbit_dim_fixed")["dim"] == 0
    assert result_of("obstruct_flat_m5")["verdict"] == "NotFlat"
    assert result_of("obstruct_flat_m6")["verdict"] == "NotFlat"
    assert result_of("obstruct_flat_lt")["verdict"] == "Flat"
    assert result_of("obstruct_tier_e")["tier"] == 4
    assert result_of("obstruct_tier_one_e")["verdict"] == "No"
    assert result_of("obstruct_tier_one_lt")["verdict"] == "Witness"
    assert result_of("obstruct_flag_a3")["profile"] == [1, 2, 2, 2, 2, 2]
    bounds = result_of("bounds_7_12")
    assert bounds["all_ok"] is True
    assert bounds["reports"][0]["best_m"] == 4
    assert bounds["reports"][0]["best_n"] == 2
    assert bounds["reports"][0]["lower_bound"] == "5/8"
    assert bounds["reports"][0]["upper_bound"] == 42


def test_malformed_input_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run_cli(["cross-ratio", str(bad)])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"

    missing = tmp_path / "missing.json"
    code, _ = run_cli(["cross-ratio", str(missing)])
    assert code == 2

    notbasis = tmp_path / "notbasis.json"
    notbasis.write_text(json.dumps({"n": 2, "points": [["1", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]}))
    code, out = run_cli(["cross-ratio", str(notbasis)])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "NotAugmentedBasisError"


def test_nongeneric_seed_exits_2(tmp_path):
    seed = tmp_path / "seed.json"
    seed.write_text(
        json.dumps(
            {"m": 4, "n": 2, "rows": [["1", "0"], ["2", "0"], ["0", "1"], ["1", "1"]]}
        )
    )
    code, out = run_cli(["seed-conjugate", str(seed), str(FIXTURES / "seed_a3.json")])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "NotGenericError"


def test_seed_conjugate_n1_seeds(tmp_path):
    # all dual points of an m x 1 seed coincide; its rows still match one to one
    left, right = [["1"], ["2"], ["3"]], [["1"], ["5"], ["-3"]]
    paths = []
    for name, rows in (("left", left), ("right", right)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"m": 3, "n": 1, "rows": rows}))
        paths.append(str(path))
    code, out = run_cli(["seed-conjugate", *paths])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["conjugate"] is True
    witness = QMatrix(result["witness"])
    w_inv = inverse(witness)
    for a, b in (((1, -1, 2), (1,)), ((2, 3, -1), (-1,)), (("1/2", 0, 4), (3,))):
        params = GroupElementParams.make(a, b)
        conjugated = witness * rho(SeedMatrix(left), params) * w_inv
        assert element_params(SeedMatrix(right), conjugated) is not None


def test_cap_exceeded_exits_3(tmp_path):
    basis = tmp_path / "nine.json"
    basis.write_text(
        json.dumps({"n": 2, "points": [["1", str(t)] for t in range(9)]})
    )
    code, out = run_cli(["cross-ratio", str(basis)])
    assert code == 3
    assert json.loads(out)["error"]["type"] == "CapExceededError"


def test_undecided_exits_3(tmp_path):
    family = tmp_path / "rotation.json"
    family.write_text(
        json.dumps(
            {"coeff_matrices": [[["1", "0"], ["0", "1"]], [["0", "1"], ["-1", "0"]]]}
        )
    )
    code, out = run_cli(["obstruct", "tier-one", str(family)])
    assert code == 3
    assert json.loads(out)["result"]["verdict"] == "Undecided"


def test_explicit_group_schema(tmp_path):
    # a 2x2 family [[1, v0], [0, 1]] written out term by term
    group = tmp_path / "group.json"
    group.write_text(
        json.dumps(
            {
                "dim_params": 1,
                "ambient": 2,
                "entries": [
                    [[["1", [0]]], [["1", [1]]]],
                    [[], [["1", [0]]]],
                ],
            }
        )
    )
    code, out = run_cli(["obstruct", "flat", str(group)])
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "Flat"

    bad = tmp_path / "bad_group.json"
    bad.write_text(json.dumps({"dim_params": 1, "ambient": 2, "entries": "nope"}))
    code, out = run_cli(["obstruct", "flat", str(bad)])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


def test_explicit_family_schema(tmp_path):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({"coeff_matrices": [[["1", "0"], ["0", "0"]]]}))
    code, out = run_cli(["obstruct", "tier-one", str(fam)])
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "Witness"


def test_bad_flags_exit_2():
    for argv in (
        ["bounds", "--k-range", "banana"],
        ["alpha-orbit", "--alpha", "1.5"],
        ["no-such-verb"],
        ["bounds"],
        ["obstruct"],
        ["bounds", "--k-range", "7:8", "--cap", "x"],
    ):
        code, out = run_cli(argv)
        assert code == 2, argv
        lines = out.splitlines()
        assert len(lines) == 1, argv
        assert json.loads(lines[0])["error"]["type"] == "ParseError", argv


# Each (sub)command, with the positional arguments and the extra option its
# usage must name.
HELP_PAGES = {
    (): ["--output", "{cross-ratio,equivalent,seed-conjugate,orbit-dim,alpha-orbit,converge,obstruct,bounds}"],
    ("cross-ratio",): ["basis"],
    ("equivalent",): ["left right"],
    ("seed-conjugate",): ["left right"],
    ("orbit-dim",): ["seed_file point"],
    ("alpha-orbit",): ["--alpha ALPHA"],
    ("converge",): ["seed_file params", "--r-schedule R_SCHEDULE"],
    ("obstruct",): ["{flat,tier,tier-one,flag}"],
    ("obstruct", "flat"): ["group", "--sample-cap SAMPLE_CAP"],
    ("obstruct", "tier"): ["group", "--sample-cap SAMPLE_CAP"],
    ("obstruct", "tier-one"): ["family", "--sample-cap SAMPLE_CAP"],
    ("obstruct", "flag"): ["seed_file", "--sample-cap SAMPLE_CAP"],
    ("bounds",): ["--k-range K_RANGE"],
}


def test_help_exits_0():
    for command, names in HELP_PAGES.items():
        code, out = run_cli([*command, "--help"])
        assert code == 0, command
        usage = " ".join(out.split("\n\n", 1)[0].split())
        assert usage.startswith(" ".join(["usage: cartanlim", *command])), command
        for name in names:
            assert name in usage, (command, name)
        own = [name for name in names if name.startswith("--")]
        if command and own:
            # the command's own option comes before the shared ones
            assert usage.index(own[0]) < usage.index("--cap"), command


def test_parser_is_built_once(monkeypatch, tmp_path):
    run_cli(["bounds", "--k-range", "7:12"])  # builds the parser unless an earlier test did
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self).__name__)
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (
        resolve_argv(["orbit-dim", "seed_a3.json", "point_typical.json"]),
        ["bounds"],
        ["--help"],
        ["--output", str(tmp_path / "doc.json"), "bounds", "--k-range", "7:12"],
    ):
        run_cli(argv)
    assert (tmp_path / "doc.json").exists()
    assert built == []


def test_seed_conjugate_table_counts(monkeypatch):
    # one table per seed: the minors behind `SeedMatrix.generic` are the
    # bracket table of each dual basis, in `are_conjugate` and in the UC fields
    calls = []
    original = exactq.maximal_minors
    monkeypatch.setattr(exactq, "maximal_minors", lambda rows: calls.append(rows) or original(rows))
    code, _ = run_cli(resolve_argv(["seed-conjugate", "seed_a3.json", "seed_a3_colscaled.json"]))
    assert code == 0
    assert len(calls) == 2


def test_calls_do_not_leak_state():
    first = run_cli(["alpha-orbit", "--alpha", "3"])
    assert first[0] == 0
    assert run_cli(["bounds"])[0] == 2
    converge = resolve_argv(["converge", "seed_a3.json", "params_ones.json", "--r-schedule", "5,50"])
    assert run_cli(converge)[0] == 0
    assert run_cli(["alpha-orbit", "--alpha", "3"]) == first


def test_degenerate_alpha_exits_2():
    code, out = run_cli(["alpha-orbit", "--alpha", "2"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "DegenerateAlphaError"


def test_output_flag_writes_file(tmp_path):
    out_path = tmp_path / "doc.json"
    code, printed = run_cli(
        ["--output", str(out_path), "alpha-orbit", "--alpha", "3"]
    )
    assert code == 0
    assert out_path.read_text() == printed
