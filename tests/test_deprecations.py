"""The deprecated public names: each call raises one DeprecationWarning,
blamed on its caller, and otherwise behaves as before.

Every deprecated call here sits in its own `pytest.warns` block; outside
one, the `filterwarnings` setting of the project turns the warning into an
error.  These tests go when the names do.
"""

import contextlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanlim.errors import (
    DimensionMismatchError,
    EmptyInputError,
    IndexOutOfRangeError,
    NonSquareError,
)
from cartanlim.exactq import QMatrix, block_diag
from cartanlim.limits import SeedMatrix, phi
from cartanlim.obstruct import Poly
from test_exactq import assert_same_matrix, dims, product_entry, sparse_matrices
from util import (
    add_oracle,
    block_diag_oracle,
    diagonal_oracle,
    identity_oracle,
    neg_oracle,
    phi_oracle,
    poly_evaluate_oracle,
    scale_oracle,
    sub_oracle,
)

A = QMatrix([[1, F(1, 2)], [0, -3]])
B = QMatrix([[2, 0], [F(-1, 3), 1]])
SEED = SeedMatrix([[1, 0], [1, 1], [1, 2], [1, 3]])
POLY = Poly(2, {(2, 0): F(1, 2), (0, 1): F(3)})

# entry point -> (the deprecated call, its copy in tests/util.py)
CALLS = {
    "a + b": (lambda: A + B, lambda: add_oracle(A, B)),
    "a - b": (lambda: A - B, lambda: sub_oracle(A, B)),
    "-a": (lambda: -A, lambda: neg_oracle(A)),
    "a * x": (lambda: A * F(2, 3), lambda: scale_oracle(F(2, 3), A)),
    "x * a": (lambda: 2 * A, lambda: scale_oracle(2, A)),
    "QMatrix.identity": (lambda: QMatrix.identity(3), lambda: identity_oracle(3)),
    "QMatrix.diagonal": (lambda: QMatrix.diagonal([3, "0", F(-1, 2)]), lambda: diagonal_oracle([3, 0, F(-1, 2)])),
    "block_diag": (lambda: block_diag(A, QMatrix([[5]]), B), lambda: block_diag_oracle(A, QMatrix([[5]]), B)),
    "phi": (lambda: phi(SEED, 3, [2, "1/2"]), lambda: phi_oracle(SEED, 3, [2, F(1, 2)])),
    "SeedMatrix.row": (lambda: SEED.row(4), lambda: SEED.matrix.rows[3]),
    "Poly.evaluate": (lambda: POLY.evaluate([F(4), F(1, 3)]), lambda: poly_evaluate_oracle(POLY, [4, F(1, 3)])),
}

# (entry point, a call of it that fails, the error it fails with)
FAILURES = [
    ("a + b", lambda: A + QMatrix([[1]]), DimensionMismatchError),
    ("a - b", lambda: A - QMatrix([[1, 2]]), DimensionMismatchError),
    ("a * x", lambda: A * "x", ValueError),
    ("QMatrix.identity", lambda: QMatrix.identity(0), EmptyInputError),
    ("QMatrix.diagonal", lambda: QMatrix.diagonal([]), EmptyInputError),
    ("block_diag", block_diag, EmptyInputError),
    ("block_diag", lambda: block_diag(A, QMatrix([[1, 2]])), NonSquareError),
    ("phi", lambda: phi(SEED, 2, [1]), DimensionMismatchError),
    ("phi", lambda: phi(SEED, 5, [1, 1]), IndexOutOfRangeError),
    ("SeedMatrix.row", lambda: SEED.row(0), IndexOutOfRangeError),
]


def warns_once(call, error=None):
    """The result of call(), or with an error class the error it must raise,
    after exactly one DeprecationWarning whose message starts `cartanlim.`
    and names a replacement, blamed on this file."""
    result = None
    with pytest.warns(DeprecationWarning, match=r"^cartanlim\..* is deprecated; use ") as record:
        with pytest.raises(error) if error else contextlib.nullcontext():
            result = call()
    assert len(record) == 1
    assert record[0].filename == __file__
    return result


@pytest.mark.parametrize("name", CALLS)
def test_each_deprecated_name_warns_once_and_matches_its_copy(name):
    call, copy = CALLS[name]
    assert warns_once(call) == copy()


@pytest.mark.parametrize("name,call,error", FAILURES, ids=[f"{name}-{error.__name__}" for name, _, error in FAILURES])
def test_each_deprecated_name_warns_once_and_fails_as_before(name, call, error):
    warns_once(call, error)


def test_phi_examples():
    t = SeedMatrix([[1, 0], [1, 1], [1, 2], [1, 3]])
    with pytest.warns(DeprecationWarning, match=r"^cartanlim\.limits\.phi "):
        assert phi(t, 1, [5, 7]) == 5
    with pytest.warns(DeprecationWarning, match=r"^cartanlim\.limits\.phi "):
        assert phi(t, 2, [0, 0]) == 0
    with pytest.warns(DeprecationWarning, match=r"^cartanlim\.limits\.phi "):
        assert phi(t, 3, [2, -1]) == 0
    with pytest.raises(IndexOutOfRangeError), pytest.warns(DeprecationWarning, match=r"^cartanlim\.limits\.phi "):
        phi(t, 5, [1, 1])
    with pytest.raises(IndexOutOfRangeError), pytest.warns(DeprecationWarning, match=r"^cartanlim\.limits\.phi "):
        phi(t, 0, [1, 1])


def test_poly_evaluate():
    p = Poly(2, {(2, 0): F(1, 2), (0, 1): F(3)})
    with pytest.warns(DeprecationWarning, match=r"^cartanlim\.Poly\.evaluate "):
        assert p.evaluate([F(4), F(1)]) == 11
    assert p.max_degrees() == (2, 1)
    with pytest.warns(DeprecationWarning, match=r"^cartanlim\.Poly\.evaluate "):
        assert Poly.constant(5, 3).evaluate([F(1), F(2), F(3)]) == 5


def test_block_diag():
    with pytest.warns(DeprecationWarning, match=r"^cartanlim\.QMatrix\.identity"):
        ident = QMatrix.identity(2)
    with pytest.warns(DeprecationWarning, match=r"^cartanlim\.exactq\.block_diag "):
        got = block_diag(ident, QMatrix([[5]]))
    assert got == QMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 5]])


def test_shared_constants_match_fraction_constructions():
    for n in range(1, 6):
        with pytest.warns(DeprecationWarning, match=r"^cartanlim\.QMatrix\.identity"):
            ident = QMatrix.identity(n)
        assert ident.rows == tuple(tuple(F(i == j) for j in range(n)) for i in range(n))
    blocks = (QMatrix([[2, 3], [0, -1]]), QMatrix([[F(1, 2)]]), identity_oracle(2))
    total = 5
    old = [[F(0)] * total for _ in range(total)]
    offset = 0
    for block in blocks:
        for i, row in enumerate(block.rows):
            for j, x in enumerate(row):
                old[offset + i][offset + j] = x
        offset += block.nrows
    with pytest.warns(DeprecationWarning, match=r"^cartanlim\.exactq\.block_diag "):
        assert block_diag(*blocks) == QMatrix(old)
    with pytest.warns(DeprecationWarning, match=r"^cartanlim\.QMatrix\.diagonal"):
        assert QMatrix.diagonal([3, 0, F(-1, 2)]) == QMatrix([[3, 0, 0], [0, 0, 0], [0, 0, F(-1, 2)]])


@given(st.data(), product_entry | st.integers(-5, 5))
@settings(max_examples=50, deadline=None)
def test_scalar_product_unchanged(data, scalar):
    a = data.draw(sparse_matrices(data.draw(dims), data.draw(dims)))
    want = QMatrix([x * scalar for x in row] for row in a.rows)
    with pytest.warns(DeprecationWarning, match=r"^cartanlim\.QMatrix scalar product "):
        right = a * scalar
    with pytest.warns(DeprecationWarning, match=r"^cartanlim\.QMatrix scalar product "):
        left = scalar * a
    assert right == want
    assert left == want
    assert all(type(x) is F for row in right.rows for x in row)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_sums_and_block_diag_match_fraction_built_ones(data):
    n, k = data.draw(dims), data.draw(dims)
    a = data.draw(sparse_matrices(n, k))
    b = data.draw(sparse_matrices(k, n))
    c = data.draw(sparse_matrices(n, n))
    zero = QMatrix([[0] * k] * n)
    with pytest.warns(DeprecationWarning, match=r"^cartanlim\.QMatrix scalar product "):
        assert_same_matrix(a * 0, zero.rows)
    with pytest.warns(DeprecationWarning, match=r"^cartanlim\.QMatrix\.__neg__ "):
        assert_same_matrix(-a, [[-x for x in row] for row in a.rows])
    with pytest.warns(DeprecationWarning, match=r"^cartanlim\.QMatrix\.__sub__ "):
        assert_same_matrix(a - a, zero.rows)
    with pytest.warns(DeprecationWarning, match=r"^cartanlim\.QMatrix\.__add__ "):
        assert_same_matrix(b.transpose() + a, [[x + y for x, y in zip(r, s)] for r, s in zip(zip(*b.rows), a.rows)])
    with pytest.warns(DeprecationWarning, match=r"^cartanlim\.exactq\.block_diag "):
        assert_same_matrix(
            block_diag(c, identity_oracle(1), QMatrix([[0]])),
            [list(row) + [0, 0] for row in c.rows] + [[0] * n + [1, 0], [0] * (n + 2)],
        )
