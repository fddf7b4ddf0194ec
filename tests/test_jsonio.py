"""The canonical emitter on paths that no CLI fixture reaches."""

import json
import math
import random
from collections import Counter, defaultdict, namedtuple
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanlim.exactq import QMatrix
from cartanlim.jsonio import dumps
from cartanlim.limits import OrbitClass, OrbitKind
from cartanlim.obstruct import TierReport
from cartanlim.projgeo import AugmentedBasis, ProjPoint, unordered_cross_ratio
from util import dumps_oracle, random_augmented_basis, run_cli

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
    subclasses = (defaultdict(int), namedtuple("Pair", "a b")(1, 2), type("Text", (str,), {})("x"))
    for obj in (object(), {3}, OrbitClass, {1: "x"}, [1, {"a": object()}], {"a": [{"b": 1, 2: 3}]}, (None, {(1,): 2}), *subclasses):
        with pytest.raises(TypeError):
            dumps(obj)


def test_non_finite_floats_raise_value_error():
    for value in (math.nan, math.inf, -math.inf):
        for obj in ([value], value, {"a": (1, [value])}):
            with pytest.raises(ValueError):
                dumps(obj)


def test_ints_past_the_digit_limit_are_written_in_full():
    for value in (10**5000, -(10**5000) - 7, 3**9000 + 1):
        digits = str(Decimal(value))
        assert dumps([value]) == "[" + digits + "]"
        assert dumps({"k": (value, Fraction(value, 3))}) == '{"k": [' + digits + ', "' + digits + '/3"]}'


def test_each_distinct_point_is_serialized_once_per_document(monkeypatch):
    uc = unordered_cross_ratio(random_augmented_basis(random.Random(28), 2, 8))
    expected = dumps(uc)
    calls = Counter()
    serialized = ProjPoint.serialized

    def spy(point):
        calls[point] += 1
        return serialized(point)

    monkeypatch.setattr(ProjPoint, "serialized", spy)
    for _ in range(2):  # the text is kept for one document only
        calls.clear()
        assert dumps(uc) == expected
        assert set(calls) == {p for t in uc for p in t.entries}
        assert max(calls.values()) == 1


huge_ints = st.builds(lambda k, sign: sign * (10**k + 7), st.integers(4290, 4400), st.sampled_from((-1, 1)))
fractions = st.one_of(
    st.fractions(),
    st.integers(-10**6, 10**6).map(Fraction),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(10**20, 10**40)),
    st.builds(Fraction, huge_ints, st.integers(1, 10**5)),
)
small_ucs = [
    unordered_cross_ratio(AugmentedBasis([ProjPoint(p) for p in ([1, 0], [0, 1], [1, 1], [1, 2])])),
    unordered_cross_ratio(AugmentedBasis([ProjPoint(p) for p in ([1, 0], [0, 1], [1, 1], [1, -1], [2, 3])])),
    unordered_cross_ratio(AugmentedBasis([ProjPoint(p) for p in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 3])])),
]
library_values = st.one_of(
    st.sampled_from(OrbitKind),
    st.frozensets(st.integers(-5, 5)),
    st.builds(OrbitClass, st.sampled_from(OrbitKind), st.integers(0, 9), st.frozensets(st.integers(0, 9))),
    st.builds(TierReport, st.integers(0, 9), st.lists(fractions, max_size=3).map(tuple)),
    st.lists(st.lists(fractions, min_size=2, max_size=2), min_size=1, max_size=3).map(QMatrix),
    st.lists(st.integers(-3, 3), min_size=1, max_size=4).filter(any).map(ProjPoint),
    st.sampled_from(small_ucs),
    st.sampled_from([t for uc in small_ucs for t in uc]),
)
leaves = st.one_of(
    fractions,
    st.integers(),
    huge_ints,
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([-0.0, 1e-30, math.nan, math.inf, -math.inf]),
    st.text(),
    st.text(st.characters(min_codepoint=0x80), min_size=1),
    library_values,
)
values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.lists(st.one_of(st.booleans(), children), max_size=4),
        st.dictionaries(st.one_of(st.text(max_size=2), st.integers(0, 2)), children, max_size=3),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(values)
def test_dumps_agrees_with_the_oracle(value):
    try:
        expected = dumps_oracle(value)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)):
            dumps(value)
    else:
        assert dumps(value) == expected
