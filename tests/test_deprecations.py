"""The deprecated public names: each call raises one DeprecationWarning,
blamed on its caller, whose message starts `cartanlim.` and names the
replacement, and otherwise behaves as the replacement does.

Every deprecated call here sits in its own `pytest.warns` block; outside
one, the `filterwarnings` setting of the project turns the warning into an
error.  Values that only feed a deprecated call are built through the
private paths, which do not warn.  These tests go when the names do.
"""

import contextlib
import copy
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanlim import exactq
from cartanlim.limits import GroupElementParams, SeedMatrix
from cartanlim.obstruct import Poly, PolyParamGroup, builtin_group
from cartanlim.projgeo import ProjTransform
from test_projgeo import invertible
from util import canonical_matrix_oracle, group_cells, identity_oracle, params_sum_oracle, random_params

SEED = SeedMatrix([[1, 0], [1, 1], [1, 2], [1, 3]])
P, Q = random_params(random.Random(38), SEED), random_params(random.Random(83), SEED)
T = ProjTransform(exactq.QMatrix([[2, 1, 0], [F(1, 2), -1, 3], [0, 4, 1]]))
# exp(v_1 N + v_2 N^2) for the 3 x 3 shift N, with a zero term that is dropped
CELLS = [
    [{(0, 0): 1}, {(1, 0): 1, (0, 1): 0}, {(2, 0): F(1, 2), (0, 1): "1"}],
    [{}, {(0, 0): "1"}, {(1, 0): 1}],
    [{}, {(0, 0): 0}, {(0, 0): 1}],
]
POLY_CELLS = [[Poly._of(2, cell) for cell in row] for row in CELLS]


def compiled(group: PolyParamGroup):
    return group._den, group._coeffs


# name -> (the deprecated call, the named replacement), each as a comparable value
CALLS = {
    "Poly": (lambda: Poly(2, CELLS[0][1]).terms, lambda: {(1, 0): F(1)}),
    "Poly.constant": (lambda: Poly.constant("5/2", 3).terms, lambda: {(0, 0, 0): F(5, 2)}),
    "Poly.variable": (lambda: Poly.variable(1, 3, -2).terms, lambda: {(0, 1, 0): F(-2)}),
    "Poly.monomial": (lambda: Poly.monomial("1/3", [2, 0, 1], 3).terms, lambda: {(2, 0, 1): F(1, 3)}),
    "PolyParamGroup with Poly cells": (
        lambda: compiled(PolyParamGroup(2, 3, POLY_CELLS)),
        lambda: compiled(PolyParamGroup(2, 3, CELLS)),
    ),
    "PolyParamGroup.entries": (
        lambda: [[cell.terms for cell in row] for row in builtin_group("M5").entries],
        lambda: group_cells(builtin_group("M5")),
    ),
    "GroupElementParams.zero": (
        lambda: GroupElementParams.zero(SEED),
        lambda: GroupElementParams.make([0] * SEED.m, [0] * SEED.n),
    ),
    "GroupElementParams.__add__": (lambda: P + Q, lambda: params_sum_oracle(P, Q)),
    "ProjTransform.inverse": (lambda: T.inverse(), lambda: ProjTransform(exactq.inverse(T.matrix))),
}

# (deprecated name, a call of it that fails, the error text it fails with)
FAILURES = [
    ("Poly", lambda: Poly(1, {(-1,): 1}), r"bad exponent tuple \(-1,\) for 1 variables"),
    ("Poly.monomial", lambda: Poly.monomial(1, (1, 0), 1), r"bad exponent tuple \(1, 0\) for 1 variables"),
    ("Poly.constant", lambda: Poly.constant(1.5, 1), None),
    (
        "PolyParamGroup with Poly cells",
        lambda: PolyParamGroup(1, 2, [[Poly._of(1, {(0,): 1}), Poly._of(2, {(1, 0): 1})], [{}, {(0,): 1}]]),
        "entry polynomial has the wrong variable count",
    ),
    (
        "PolyParamGroup with Poly cells",
        lambda: PolyParamGroup(1, 2, [[Poly._of(1, {(0,): 1}), Poly._of(1, {(0,): 1})], [{}, {(0,): 1}]]),
        "family does not pass through the identity",
    ),
]


def warns_once(call, error=None, match=None):
    """The result of call(), or with an error class the error it must raise,
    after exactly one DeprecationWarning whose message starts `cartanlim.`
    and names a replacement, blamed on this file."""
    result = None
    with pytest.warns(DeprecationWarning, match=r"^cartanlim\..* is deprecated; use ") as record:
        with pytest.raises(error, match=match) if error else contextlib.nullcontext():
            result = call()
    assert len(record) == 1
    assert record[0].filename == __file__
    return result


@pytest.mark.parametrize("name", CALLS)
def test_each_deprecated_name_warns_once_and_matches_its_replacement(name):
    call, replacement = CALLS[name]
    assert warns_once(call) == replacement()


@pytest.mark.parametrize("name,call,match", FAILURES, ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(FAILURES)])
def test_each_deprecated_name_warns_once_and_fails_as_before(name, call, match):
    warns_once(call, TypeError if match is None else ValueError, match)


def test_each_read_of_entries_warns_and_derives_the_cells_again():
    group = PolyParamGroup(2, 3, CELLS)
    first = warns_once(lambda: group.entries)
    second = warns_once(lambda: group.entries)
    assert first == second and first is not second
    assert first[0][2] == Poly._of(2, {(2, 0): F(1, 2), (0, 1): 1}) and first[1][0] == Poly._of(2, {})


def test_poly_copies_and_pickles_without_a_warning():
    poly = Poly._of(2, {(1, 0): F(1, 2), (0, 2): 3})
    clones = [copy.copy(poly), copy.deepcopy(poly)]
    clones += [pickle.loads(pickle.dumps(poly, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    assert all(type(clone) is Poly and clone == poly and hash(clone) == hash(poly) for clone in clones)


def test_zero_params_are_the_identity_element():
    zero = warns_once(lambda: GroupElementParams.zero(SEED))
    assert zero.a == (F(0),) * SEED.m and zero.b == (F(0),) * SEED.n
    assert all(type(x) is F for x in zero.a + zero.b)
    assert warns_once(lambda: zero + P) == P


@settings(max_examples=40)
@given(st.integers(2, 3).flatmap(invertible))
def test_inverse_matches_the_rational_inverse(a):
    t = ProjTransform(a)
    inverse = warns_once(t.inverse)
    assert inverse.matrix == canonical_matrix_oracle(exactq.inverse(a))
    assert t.compose(inverse) == ProjTransform(identity_oracle(a.nrows))
