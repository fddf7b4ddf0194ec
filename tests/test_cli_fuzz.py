"""Mutated fixture JSON through `cli.main`: every run ends in one JSON
document and an exit code in {0, 2, 3}, never in a traceback."""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from util import (
    EXPLICIT_FAMILY,
    EXPLICIT_GROUP,
    FIXTURES,
    HUGE_DEGREE_GROUP,
    manifest_cases,
    resolve_argv,
    run_cli,
)

# (argv, index of the JSON argument to mutate, its bytes): every JSON file of
# the manifest cases, then the explicit family and group forms
EXPLICIT = [
    (["obstruct", "tier-one", "family.json"], 2, EXPLICIT_FAMILY),
    (["obstruct", "flat", "group.json"], 2, EXPLICIT_GROUP),
    (["obstruct", "tier", "group.json"], 2, EXPLICIT_GROUP),
]
CORPUS = [
    (case["argv"], i, (FIXTURES / arg).read_bytes())
    for case in manifest_cases()
    for i, arg in enumerate(case["argv"])
    if arg.endswith(".json")
] + EXPLICIT

rational_text = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=4).map(
        lambda x: str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    ),
    st.sampled_from(["1/0", "3/-2", "x", "", "2.5", "1e3"]),
)
leaf = st.one_of(
    rational_text,
    st.none(),
    st.booleans(),
    st.integers(-3, 9),
    st.floats(allow_infinity=True, allow_nan=True),
    st.sampled_from(["M5", "M6", "LT", "E"]),
)


def mutate(value, data):
    """One random edit somewhere inside a JSON value, usually deep inside."""
    if isinstance(value, (list, dict)) and value and data.draw(st.integers(0, 4)):
        keys = sorted(value) if isinstance(value, dict) else range(len(value))
        key = data.draw(st.sampled_from(list(keys)))
        copy = dict(value) if isinstance(value, dict) else list(value)
        copy[key] = mutate(value[key], data)
        return copy
    edits = ["leaf", "empty list", "empty object", "wrap"]
    if isinstance(value, str):
        edits += ["rational"] * 4
    if isinstance(value, list) and value:
        edits += ["drop", "duplicate"]
    if isinstance(value, dict) and value:
        edits += ["delete key"]
    edit = data.draw(st.sampled_from(edits))
    if edit == "rational":
        return data.draw(rational_text)
    if edit == "leaf":
        return data.draw(leaf)
    if edit == "empty list":
        return []
    if edit == "empty object":
        return {}
    if edit == "wrap":
        return [value]
    if edit == "drop":
        i = data.draw(st.integers(0, len(value) - 1))
        return value[:i] + value[i + 1 :]
    if edit == "duplicate":
        i = data.draw(st.integers(0, len(value) - 1))
        return value[: i + 1] + value[i:]
    key = data.draw(st.sampled_from(sorted(value)))
    return {k: v for k, v in value.items() if k != key}


def reshape(doc: dict, data) -> dict:
    """Drop or duplicate one row of one coefficient matrix of an explicit
    family, or one row of the entries of an explicit group."""

    def edit(rows: list) -> list:
        i = data.draw(st.integers(0, len(rows) - 1))
        return rows[:i] + rows[i + 1 :] if data.draw(st.booleans()) else rows[: i + 1] + rows[i:]

    if "entries" in doc:
        return {**doc, "entries": edit(doc["entries"])}
    mats = list(doc["coeff_matrices"])
    t = data.draw(st.integers(0, len(mats) - 1))
    mats[t] = edit(mats[t])
    return {**doc, "coeff_matrices": mats}


def mutated_bytes(raw: bytes, data) -> bytes:
    doc = json.loads(raw)
    kinds = ["json", "json", "json", "truncate", "bad utf-8"]
    if isinstance(doc, dict) and ("entries" in doc or "coeff_matrices" in doc):
        kinds += ["rows"] * 3  # shape errors lie deep in the document, where random edits seldom reach
    kind = data.draw(st.sampled_from(kinds))
    if kind == "truncate":
        return raw[: data.draw(st.integers(0, len(raw) - 1))]
    if kind == "bad utf-8":
        return b"\xff" + raw
    if kind == "rows":
        doc = reshape(doc, data)
    for _ in range(data.draw(st.integers(kind != "rows", 3))):
        doc = mutate(doc, data)
    return json.dumps(doc).encode("utf-8")


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_fixture_json_ends_in_one_document(data):
    run_mutated(data.draw(st.sampled_from(CORPUS)), data)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_explicit_json_ends_in_one_document(data):
    # the explicit forms are few in the whole corpus, so they get a run of their own
    run_mutated(data.draw(st.sampled_from(EXPLICIT)), data)


def run_mutated(entry, data) -> None:
    argv, victim, original = entry
    raw = mutated_bytes(original, data)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_bytes(raw)
        run_argv = resolve_argv(argv)
        run_argv[victim] = str(path)
        code, out = run_cli(run_argv)
    assert_one_document(code, out)


def test_huge_degree_group_ends_in_one_document(tmp_path):
    path = tmp_path / "group.json"
    path.write_bytes(HUGE_DEGREE_GROUP)
    for subcommand in ("flat", "tier"):
        assert_one_document(*run_cli(["obstruct", subcommand, str(path)]))


def assert_one_document(code: int, out: str) -> None:
    assert code in (0, 2, 3), out
    lines = out.splitlines()
    assert len(lines) == 1, out
    document = json.loads(lines[0])
    assert document["tool"] == "cartanlim"
    assert ("result" in document) != ("error" in document)
    assert ("error" in document) == (code == 2) or code == 3
