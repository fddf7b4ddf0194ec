import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanlim import exactq
from cartanlim.errors import (
    DimensionMismatchError,
    EmptyInputError,
    NonSquareError,
    SingularError,
)
from cartanlim.exactq import (
    QMatrix,
    affine_hull_dim,
    block_diag,
    det,
    format_rational,
    independent_rows,
    inverse,
    parse_rational,
    rank,
    solve,
)
from util import incremental_basis_oracle, matmul_oracle


def gauss_rank_oracle(matrix: QMatrix) -> int:
    """Plain rational Gaussian elimination, independent of the Bareiss path."""
    rows = [list(r) for r in matrix.rows]
    m, n = matrix.shape
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, m):
            f = rows[i][c] / rows[r][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


small_fraction = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def matrices(nrows, ncols):
    return st.lists(
        st.lists(small_fraction, min_size=ncols, max_size=ncols),
        min_size=nrows,
        max_size=nrows,
    ).map(QMatrix)


# --- rational wire format ------------------------------------------------------


def test_parse_and_format_rational():
    assert parse_rational("3") == F(3)
    assert parse_rational("-7/2") == F(-7, 2)
    assert format_rational(F(3)) == "3"
    assert format_rational(F(-7, 2)) == "-7/2"
    assert format_rational(F(4, 2)) == "2"


@pytest.mark.parametrize("bad", ["", "1/0", "3/-2", "1.5", "a", "1/2/3", "1/02"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


# --- rank -----------------------------------------------------------------------


def test_rank_examples():
    assert rank(QMatrix.identity(3)) == 3
    assert rank(QMatrix([[0, 0], [0, 0]])) == 0
    assert rank(QMatrix([[1, 2], [2, 4]])) == 1


@settings(max_examples=40)
@given(matrices(3, 4))
def test_rank_matches_gauss_oracle(m):
    assert rank(m) == gauss_rank_oracle(m)


@settings(max_examples=30)
@given(matrices(3, 3), matrices(3, 3))
def test_rank_product_bound(a, b):
    assert rank(a * b) <= min(rank(a), rank(b))


# --- det -------------------------------------------------------------------------


def test_det_examples():
    assert det(QMatrix.identity(4)) == 1
    assert det(QMatrix.diagonal([2, F(1, 2)])) == 1
    assert det(QMatrix([[0, 1], [1, 0]])) == -1


def test_det_requires_square():
    with pytest.raises(NonSquareError):
        det(QMatrix([[1, 2, 3], [4, 5, 6]]))


@settings(max_examples=30)
@given(matrices(3, 3), matrices(3, 3))
def test_det_multiplicative(a, b):
    assert det(a * b) == det(a) * det(b)


# --- inverse ------------------------------------------------------------------------


def test_inverse_examples():
    assert inverse(QMatrix.identity(5)) == QMatrix.identity(5)
    assert inverse(QMatrix.diagonal([2, 3, F(1, 6)])) == QMatrix.diagonal(
        [F(1, 2), F(1, 3), 6]
    )
    assert inverse(QMatrix([[1, 1], [0, 1]])) == QMatrix([[1, -1], [0, 1]])


def test_inverse_singular():
    with pytest.raises(SingularError):
        inverse(QMatrix([[1, 2], [2, 4]]))


@settings(max_examples=30)
@given(matrices(3, 3))
def test_inverse_roundtrip(m):
    if det(m) == 0:
        return
    assert rank(m) == 3
    inv = inverse(m)
    assert m * inv == QMatrix.identity(3)
    assert inverse(inv) == m


@settings(max_examples=40)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
def test_integer_adjugate_times_matrix_is_det(rows):
    a = QMatrix(rows)
    d = det(a)
    if d == 0:
        with pytest.raises(SingularError):
            exactq.integer_adjugate(rows)
        return
    adj = exactq.integer_adjugate(rows)
    assert all(isinstance(x, int) for row in adj for x in row)
    assert a * QMatrix(adj) == QMatrix.identity(len(rows)) * d
    assert QMatrix(adj) == inverse(a) * d


# --- solve ---------------------------------------------------------------------------


def test_solve_examples():
    assert solve(QMatrix.identity(2), [3, 5]) == (F(3), F(5))
    assert solve(QMatrix([[1, 1], [1, 1]]), [1, 2]) is None
    assert solve(QMatrix([[1, 0], [0, 2]]), [1, 1]) == (F(1), F(1, 2))


def test_solve_shape_check():
    with pytest.raises(DimensionMismatchError):
        solve(QMatrix.identity(2), [1, 2, 3])


@settings(max_examples=30)
@given(matrices(3, 2), st.lists(small_fraction, min_size=2, max_size=2))
def test_solve_residual(a, x):
    b = a.matvec(x)
    got = solve(a, b)
    assert got is not None
    assert a.matvec(got) == b


def test_solve_underdetermined_free_vars_zero():
    a = QMatrix([[1, 1, 0]])
    assert solve(a, [2]) == (F(2), F(0), F(0))


# --- one elimination kernel ------------------------------------------------------


@st.composite
def rows_with_dependencies(draw, max_rows=5, max_cols=4, square=False):
    """Rational rows, some of them combinations of the rows before them."""
    nrows = draw(st.integers(1, max_rows))
    ncols = nrows if square else draw(st.integers(1, max_cols))
    rows: list[list[F]] = []
    for _ in range(nrows):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(small_fraction, min_size=len(rows), max_size=len(rows)))
            rows.append(
                [sum((c * r[j] for c, r in zip(coeffs, rows)), F(0)) for j in range(ncols)]
            )
        else:
            rows.append(draw(st.lists(small_fraction, min_size=ncols, max_size=ncols)))
    return rows


def test_independent_rows_examples():
    assert independent_rows([]) == []
    assert independent_rows([[0, 0], [1, 2], [2, 4], [0, 1]]) == [1, 3]
    assert independent_rows([[F(1, 2), 1], [1, 2]]) == [0]


@settings(max_examples=60)
@given(rows_with_dependencies())
def test_independent_rows_match_incremental_oracle(rows):
    kept = independent_rows(rows)
    assert kept == incremental_basis_oracle(rows)
    assert rank(QMatrix(rows)) == len(kept) == gauss_rank_oracle(QMatrix(rows))


@settings(max_examples=60)
@given(rows_with_dependencies(max_rows=4, square=True))
def test_inverse_exactly_when_det_nonzero(rows):
    a = QMatrix(rows)
    if det(a) == 0:
        with pytest.raises(SingularError):
            inverse(a)
    else:
        assert a * inverse(a) == QMatrix.identity(a.nrows)


@settings(max_examples=60)
@given(rows_with_dependencies(), st.data())
def test_solve_none_exactly_when_inconsistent(rows, data):
    a = QMatrix(rows)
    b = data.draw(st.lists(small_fraction, min_size=a.nrows, max_size=a.nrows))
    augmented = QMatrix([list(row) + [bi] for row, bi in zip(rows, b)])
    consistent = gauss_rank_oracle(augmented) == gauss_rank_oracle(a)
    x = solve(a, b)
    assert (x is not None) == consistent
    if x is not None:
        assert a.matvec(x) == tuple(F(bi) for bi in b)


# --- affine hull ------------------------------------------------------------------------


def test_affine_hull_examples():
    assert affine_hull_dim([(0, 0)]) == 0
    assert affine_hull_dim([(0, 0), (1, 0), (2, 0)]) == 1
    assert affine_hull_dim([(0, 0), (1, 0), (0, 1)]) == 2


def test_affine_hull_errors():
    with pytest.raises(EmptyInputError):
        affine_hull_dim([])
    with pytest.raises(DimensionMismatchError):
        affine_hull_dim([(1, 2), (1, 2, 3)])


def test_affine_hull_invariance():
    rng = random.Random(7)
    pts = [tuple(F(rng.randint(-5, 5)) for _ in range(3)) for _ in range(6)]
    base = affine_hull_dim(pts)
    offset = (F(9), F(-2), F(5, 3))
    shifted = [tuple(x + o for x, o in zip(p, offset)) for p in pts]
    assert affine_hull_dim(shifted) == base
    perm = pts[::-1]
    assert affine_hull_dim(perm) == base


# --- matrix plumbing ---------------------------------------------------------------------


def test_qmatrix_validation():
    with pytest.raises(EmptyInputError):
        QMatrix([])
    with pytest.raises(DimensionMismatchError):
        QMatrix([[1, 2], [3]])


# --- matrix product --------------------------------------------------------------------

product_entry = st.one_of(
    st.just(F(0)),
    st.just(F(1)),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)


def sparse_matrices(nrows, ncols):
    """Matrices whose entries are often 0 or 1, with some rows and columns
    forced to zero."""
    grids = st.lists(
        st.lists(product_entry, min_size=ncols, max_size=ncols),
        min_size=nrows,
        max_size=nrows,
    )
    zero_rows = st.sets(st.integers(0, nrows - 1))
    zero_cols = st.sets(st.integers(0, ncols - 1))
    return st.tuples(grids, zero_rows, zero_cols).map(
        lambda t: QMatrix(
            [F(0) if i in t[1] or j in t[2] else x for j, x in enumerate(row)]
            for i, row in enumerate(t[0])
        )
    )


dims = st.integers(1, 6)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_product_matches_fraction_oracle(data):
    n, k, p = data.draw(dims), data.draw(dims), data.draw(dims)
    a = data.draw(sparse_matrices(n, k))
    b = data.draw(sparse_matrices(k, p))
    got = a * b
    want = matmul_oracle(a, b)
    assert got.shape == (n, p)
    assert got == want
    assert hash(got) == hash(want)
    assert all(type(x) is F for row in got.rows for x in row)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_product_shape_mismatch(data):
    n, k, p = data.draw(dims), data.draw(dims), data.draw(dims)
    other = data.draw(dims.filter(lambda j: j != k))
    a = data.draw(sparse_matrices(n, k))
    b = data.draw(sparse_matrices(other, p))
    with pytest.raises(DimensionMismatchError):
        a * b


@given(st.data(), product_entry | st.integers(-5, 5))
@settings(max_examples=50, deadline=None)
def test_scalar_product_unchanged(data, scalar):
    a = data.draw(sparse_matrices(data.draw(dims), data.draw(dims)))
    want = QMatrix([x * scalar for x in row] for row in a.rows)
    assert a * scalar == want
    assert scalar * a == want
    assert all(type(x) is F for row in (a * scalar).rows for x in row)


def test_shared_constants_match_fraction_constructions():
    for n in range(1, 6):
        assert QMatrix.identity(n).rows == tuple(
            tuple(F(i == j) for j in range(n)) for i in range(n)
        )
    blocks = (QMatrix([[2, 3], [0, -1]]), QMatrix([[F(1, 2)]]), QMatrix.identity(2))
    total = 5
    old = [[F(0)] * total for _ in range(total)]
    offset = 0
    for block in blocks:
        for i, row in enumerate(block.rows):
            for j, x in enumerate(row):
                old[offset + i][offset + j] = x
        offset += block.nrows
    assert block_diag(*blocks) == QMatrix(old)
    assert QMatrix.diagonal([3, 0, F(-1, 2)]) == QMatrix(
        [[3, 0, 0], [0, 0, 0], [0, 0, F(-1, 2)]]
    )


def test_block_diag():
    got = block_diag(QMatrix.identity(2), QMatrix([[5]]))
    assert got == QMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 5]])


def test_matvec_and_transpose():
    m = QMatrix([[1, 2], [3, 4]])
    assert m.matvec([1, 1]) == (F(3), F(7))
    assert m.transpose() == QMatrix([[1, 3], [2, 4]])
