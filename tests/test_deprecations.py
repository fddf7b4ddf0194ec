"""The deprecated names: each call warns once, from the caller's line, and
returns what it returned before the deprecation."""

import warnings
from fractions import Fraction as F

import pytest

from cartanlim import exactq, limits, projgeo
from cartanlim.exactq import QMatrix
from cartanlim.limits import alpha_seed
from cartanlim.obstruct import Poly
from cartanlim.projgeo import ProjPoint

from util import affine_hull_dim_oracle, general_position_oracle, matvec_oracle

SEED = alpha_seed(3)
POINTS = [ProjPoint(row) for row in SEED.matrix.rows]
MATRIX = QMatrix([[1, 2], [3, "1/2"], [0, -1]])

CASES = {
    "exactq.solve": (lambda: exactq.solve(MATRIX, [5, 4, -2]), (F(1), F(2))),
    "exactq.affine_hull_dim": (
        lambda: exactq.affine_hull_dim(MATRIX.rows),
        affine_hull_dim_oracle(MATRIX.rows),
    ),
    "QMatrix.matvec": (lambda: MATRIX.matvec([1, "-1/2"]), matvec_oracle(MATRIX, [1, F(-1, 2)])),
    "projgeo.general_position": (lambda: projgeo.general_position(POINTS), general_position_oracle(POINTS)),
    "Poly.__add__": (
        lambda: Poly.variable(0, 2, 3) + Poly.monomial("1/2", (1, 0), 2),
        Poly.variable(0, 2, "7/2"),
    ),
    "projgeo.dualize": (lambda: projgeo.dualize([2, "-4/3"]), ProjPoint([3, -2])),
    "limits.is_generic": (lambda: limits.is_generic(SEED), SEED.generic),
}


@pytest.mark.parametrize("name", CASES)
def test_deprecated_name_warns_once_and_keeps_its_result(name):
    call, expected = CASES[name]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = call()
    assert got == expected
    assert [w.category for w in caught] == [DeprecationWarning]
    assert caught[0].filename == __file__

