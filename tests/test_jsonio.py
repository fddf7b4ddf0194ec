"""The canonical emitter on paths that no CLI fixture reaches."""

import json
import math

import pytest

from cartanlim.jsonio import dumps
from cartanlim.limits import OrbitClass, OrbitKind
from util import run_cli

# Blocks [[v0, v0, v1], [v1, v0, v1], [v1, 0, v1]]: the minors leave v0*v1,
# so the certificate branches, and each case forces the other variable to 0.
BRANCH_FAMILY = (
    '{"coeff_matrices": [[["1","1","0"],["0","1","0"],["0","0","0"]], '
    '[["0","0","1"],["1","0","1"],["1","0","1"]]]}\n'
)

BRANCH_DOCUMENT = (
    '{"command": "obstruct tier-one", "flags": {"cap": 8, "sample_cap": 2000'
    ', "seed": 0, "tolerance": 9.9999999999999998e-13}'
    ', "input_hash": "04fc1e6bb930fe91878ac804918e1b827ea57d67f345cb541e8c79ca1a1244b4"'
    ', "result": {"certificate": [{"cases": [{"assume": 0'
    ', "steps": [{"cols": [0, 2], "forced": 1, "kind": "minor"'
    ', "monomial": [1, 1], "rows": [0, 1]}]}, {"assume": 1'
    ', "steps": [{"cols": [0, 1], "forced": 0, "kind": "minor"'
    ', "monomial": [0, 0], "rows": [0, 1]}]}], "cols": [0, 1]'
    ', "kind": "branch", "monomial": [0, 1], "rows": [0, 2]}]'
    ', "verdict": "No", "witness": null}, "seed": 0, "tool": "cartanlim"'
    ', "version": "0.1.0"}\n'
)


def test_tier_one_branch_certificate_golden(tmp_path):
    path = tmp_path / "family.json"
    path.write_bytes(BRANCH_FAMILY.encode("utf-8"))
    code, out = run_cli(["obstruct", "tier-one", str(path)])
    assert code == 0
    assert out == BRANCH_DOCUMENT
    assert json.loads(out)["result"]["certificate"][0]["kind"] == "branch"


def test_orbit_class_emits_enum_value_and_sorted_frozenset():
    oc = OrbitClass(OrbitKind.EXCEPTIONAL, 4, frozenset({10, 3, 5}))
    assert dumps(oc) == '{"dim": 4, "kind": "Exceptional", "vanishing": [3, 5, 10]}'


def test_unsupported_objects_raise_type_error():
    for obj in (object(), {3}, OrbitClass, {1: "x"}):
        with pytest.raises(TypeError):
            dumps(obj)


def test_non_finite_floats_raise_value_error():
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            dumps([value])
