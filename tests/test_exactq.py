import json
import random
import sys
from fractions import Fraction as F
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanlim import exactq, obstruct
from cartanlim.errors import (
    DimensionMismatchError,
    EmptyInputError,
    NonSquareError,
    SingularError,
)
from cartanlim.exactq import (
    QMatrix,
    det,
    format_rational,
    independent_rows,
    inverse,
    parse_rational,
    rank,
)
from cartanlim.limits import GroupElementParams, SeedMatrix, element_params, rho
from cartanlim.obstruct import Poly
from util import (
    affine_hull_dim_oracle,
    block_diag_oracle,
    diagonal_oracle,
    identity_oracle,
    incremental_basis_oracle,
    matmul_oracle,
    run_cli,
    scale_oracle,
)


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


def str_without_digit_limit(call):
    """`call()` with the interpreter's integer digit limit lifted."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return call()
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")
def test_format_past_the_digit_limit():
    num, den = 7 * 10**5999 + 3, 6 * 10**5999 + 9  # 6000 digits each, gcd 3
    cases = [(num, den), (-num, den), (num * den, den)]
    got = [exactq._format_ratio(x, y) for x, y in cases]
    assert got == str_without_digit_limit(lambda: [format(F(x, y)) for x, y in cases])


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")
def test_cross_ratio_past_the_digit_limit(tmp_path):
    # 2500-digit coordinates give cross-ratio entries of more than 4300 digits
    big = ["1", "0"], ["0", "1"], ["1", "1"], ["1", "3" + "7" * 2499], ["5" + "1" * 2498 + "9", "1"]
    path = tmp_path / "basis.json"
    path.write_text(json.dumps({"n": 2, "points": big}))
    code, out = run_cli(["cross-ratio", str(path)])
    assert code == 0 and len(out.splitlines()) == 1
    assert out == str_without_digit_limit(lambda: run_cli(["cross-ratio", str(path)])[1])


@pytest.mark.parametrize("bad", ["", "1/0", "3/-2", "1.5", "a", "1/2/3", "1/02"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def fraction_text_oracle(text):
    """Reference parser: `Fraction(text)` behind the wire grammar."""
    if not isinstance(text, str) or exactq._RATIONAL_RE.fullmatch(text) is None:
        raise ValueError(f"not a rational literal: {text!r}")
    return F(text)


@pytest.mark.parametrize(
    "text",
    ["+3", "-0", "007", "1/01", "12/8", "-12/8", "1/0", "1_000", " 3", "3 ", "3.0", "1e3", ""]
    + ["\u0661\u0662", "\u0661\u0662/\u0663", "7/1\u0663", "\uff17"],  # Arabic-Indic and fullwidth digits
)
def test_parse_rational_agrees_with_fraction_text(text):
    try:
        expected = fraction_text_oracle(text)
    except ValueError:
        with pytest.raises(ValueError):
            parse_rational(text)
    else:
        assert parse_rational(text) == expected


def test_parse_rational_refuses_a_literal_past_the_int_digit_limit(tmp_path):
    huge = "1" * 5000
    for text in (huge, f"1/{huge}"):
        with pytest.raises(ValueError):
            parse_rational(text)
    path = tmp_path / "seed.json"
    path.write_text(json.dumps({"m": 1, "n": 1, "rows": [[huge]]}))
    code, out = run_cli(["obstruct", "flag", str(path)])
    assert code == 2
    (line,) = out.splitlines()
    assert json.loads(line)["error"]["type"] == "ParseError"


# --- rank -----------------------------------------------------------------------


def test_rank_examples():
    assert rank(identity_oracle(3)) == 3
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
    assert det(identity_oracle(4)) == 1
    assert det(diagonal_oracle([2, F(1, 2)])) == 1
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
    assert inverse(identity_oracle(5)) == identity_oracle(5)
    assert inverse(diagonal_oracle([2, 3, F(1, 6)])) == diagonal_oracle([F(1, 2), F(1, 3), 6])
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
    assert m * inv == identity_oracle(3)
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
    assert a * QMatrix(adj) == scale_oracle(d, identity_oracle(len(rows)))
    assert QMatrix(adj) == scale_oracle(d, inverse(a))


@settings(max_examples=40)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
def test_adjugate_reads_the_determinant_off_its_elimination(rows):
    # `inverse` takes det(B) of each component from here, not from a row-column product
    d = det(QMatrix(rows))
    if d == 0:
        with pytest.raises(SingularError):
            exactq._adjugate(rows)
        return
    assert exactq._adjugate(rows) == (d, exactq.integer_adjugate(rows))


def dense_inverse_oracle(matrix: QMatrix) -> QMatrix:
    """The inverse by one adjugate of the whole integer form A' = den·A:
    den·adj(A') / det(A'), with no split into components."""
    rows = [list(matrix._ints[i : i + matrix.ncols]) for i in range(0, len(matrix._ints), matrix.ncols)]
    adj = exactq.integer_adjugate(rows)
    d = sum(x * row[0] for x, row in zip(rows[0], adj))
    return scale_oracle(F(matrix._den, d), QMatrix(adj))


@st.composite
def permuted_block_diagonals(draw):
    """(matrix, block sizes): a block-diagonal sum of rational blocks of sizes
    1..3, with its rows and columns shuffled independently."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    blocks = [draw(st.lists(st.lists(small_fraction, min_size=s, max_size=s), min_size=s, max_size=s)) for s in sizes]
    grid = block_diag_oracle(*(QMatrix(block) for block in blocks)).rows
    k = len(grid)
    row_order = draw(st.permutations(range(k)))
    col_order = draw(st.permutations(range(k)))
    return QMatrix([[grid[i][j] for j in col_order] for i in row_order]), sizes


@settings(max_examples=150, deadline=None)
@given(permuted_block_diagonals())
def test_block_split_inverse_matches_fraction_oracle(case):
    a, _ = case
    if det(a) == 0:
        with pytest.raises(SingularError):
            inverse(a)
        return
    got = inverse(a)
    assert_same_matrix(got, gauss_jordan_inverse_oracle(a.rows))
    assert got * a == identity_oracle(a.nrows)
    assert got == dense_inverse_oracle(a)


@settings(max_examples=60, deadline=None)
@given(permuted_block_diagonals())
def test_block_split_inverse_eliminates_no_more_than_a_block(case):
    a, sizes = case
    seen = []
    original = exactq._adjugate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactq, "_adjugate", lambda rows: seen.append(len(rows)) or original(rows))
        try:
            inverse(a)
        except SingularError:
            pass
    # components lie inside the blocks, and 1 x 1 ones are inverted directly
    assert all(1 < s <= max(sizes) for s in seen)
    assert len(seen) <= sum(s > 1 for s in sizes)


def test_block_split_inverse_examples():
    # a permutation with signs and scales: k 1 x 1 components
    a = QMatrix([[0, 0, F(1, 2)], [-3, 0, 0], [0, 1, 0]])
    assert inverse(a) == QMatrix([[0, F(-1, 3), 0], [0, 0, 1], [2, 0, 0]])
    # a 2 x 2 block on rows {0, 2} and columns {1, 2}, a 1 x 1 block at (1, 0)
    a = QMatrix([[0, 1, 2], [5, 0, 0], [0, 3, 4]])
    assert inverse(a) == QMatrix(gauss_jordan_inverse_oracle(a.rows))
    # a connected matrix is the one-component case: same result as one adjugate
    a = QMatrix([[2, 1, 0], [1, 3, 1], [0, 1, F(4, 3)]])
    assert inverse(a) == dense_inverse_oracle(a)
    assert inverse(a) * a == identity_oracle(3)


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 0, 0], [0, 1, 2], [0, 2, 4]],  # a singular 2 x 2 block
        [[0, 3, 0], [1, 0, 0], [0, 0, 0]],  # a zero row: one row, no column
        [[1, 0, 0], [1, 0, 0], [0, 1, 1]],  # components of 2 x 1 and 1 x 2
        [[0, 0], [0, 0]],
    ],
)
def test_block_split_inverse_singular(rows):
    with pytest.raises(SingularError):
        inverse(QMatrix(rows))


# --- maximal minors ---------------------------------------------------------------------


def fraction_det_oracle(rows) -> F:
    """Leibniz expansion over the Fractions."""
    total = F(0)
    for perm in permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(perm)), 2))
        term = F(-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def maximal_minors_oracle(rows) -> dict[int, F]:
    """One Fraction determinant per n-subset of rows, in increasing order."""
    n = len(rows[0])
    return {
        sum(1 << i for i in subset): fraction_det_oracle([rows[i] for i in subset])
        for subset in combinations(range(len(rows)), n)
    }


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([0, 0, 1, -1, 2, -3, 7]), min_size=n, max_size=n), min_size=1, max_size=7
        )
    ),
    st.data(),
)
def test_maximal_minors_match_fraction_oracle(rows, data):
    n = len(rows[0])
    zero_cols = data.draw(st.sets(st.integers(0, n - 1), max_size=1))
    rows = [[0 if j in zero_cols else x for j, x in enumerate(row)] for row in rows]
    got = exactq.maximal_minors(rows)
    assert got == maximal_minors_oracle(rows)
    assert all(type(x) is int for x in got.values())
    assert len(got) == comb(len(rows), n)


def test_maximal_minors_examples():
    # keys are row bitmasks; the minor takes its rows in increasing order
    assert exactq.maximal_minors([[0, 1], [1, 0]]) == {0b11: -1}
    assert exactq.maximal_minors([[1, 0], [0, 1], [1, 1]]) == {0b011: 1, 0b101: 1, 0b110: -1}
    # n = 1: the entries themselves
    assert exactq.maximal_minors([[3], [0], [-2]]) == {0b001: 3, 0b010: 0, 0b100: -2}
    # m = n: the determinant alone
    assert exactq.maximal_minors([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == {0b111: -3}
    # m < n: no minor
    assert exactq.maximal_minors([[1, 2, 3]]) == {}
    assert exactq.maximal_minors([[1, 2, 3], [4, 5, 6]]) == {}
    # a zero row zeroes every minor through it; a zero column zeroes them all
    assert exactq.maximal_minors([[1, 2], [0, 0], [3, 5]]) == {0b011: 0, 0b101: -1, 0b110: 0}
    assert exactq.maximal_minors([[1, 0], [2, 0], [3, 0]]) == {0b011: 0, 0b101: 0, 0b110: 0}


@pytest.mark.parametrize("m,n", [(7, 3), (8, 4), (9, 5), (12, 6), (7, 5), (12, 10), (22, 20), (24, 22)])
def test_maximal_minors_tables_never_outgrow_the_answer(monkeypatch, m, n):
    # Each combinations() stream is one Laplace level or the subsets of the
    # per-subset eliminations; none may hold more than the C(m, n) minors
    # returned, so the (n + 2)-point bases of large n stay small.
    streams = []

    def counting(pool, r):
        subsets = list(combinations(pool, r))
        streams.append(len(subsets))
        return iter(subsets)

    monkeypatch.setattr(exactq, "combinations", counting)
    rng = random.Random(m * 100 + n)
    minors = exactq.maximal_minors([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
    assert len(minors) == comb(m, n)
    assert max(streams) <= comb(m, n)
    assert sum(streams) <= n * comb(m, n)


# --- solving through the inverse ----------------------------------------------------


def column(values) -> QMatrix:
    return QMatrix([[x] for x in values])


def test_solve_examples():
    # A·x = b for an invertible A is inverse(A) times the column b
    assert inverse(identity_oracle(2)) * column([3, 5]) == column([3, 5])
    assert inverse(QMatrix([[1, 0], [0, 2]])) * column([1, 1]) == column([1, F(1, 2)])
    with pytest.raises(SingularError):
        inverse(QMatrix([[1, 1], [1, 1]]))


def test_solve_shape_check():
    with pytest.raises(DimensionMismatchError):
        inverse(identity_oracle(2)) * column([1, 2, 3])


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


@settings(max_examples=80)
@given(rows_with_dependencies(max_rows=7), st.one_of(st.none(), st.integers(0, 5)))
def test_streamed_independent_rows_read_up_to_the_stop_rank(rows, stop):
    expected = incremental_basis_oracle(rows)
    read = []
    kept = independent_rows((read.append(i) or row for i, row in enumerate(rows)), stop)
    assert kept == expected[:stop]
    # the stream stops at the stop-th independent row, or at full column rank
    target = min(len(rows[0]), len(rows) if stop is None else stop)
    if target == 0:
        assert read == []
    elif len(expected) >= target:
        assert len(read) == expected[target - 1] + 1
    else:
        assert len(read) == len(rows)


def seeded_rows(rng: random.Random, nrows: int, ncols: int, rank: int) -> list[list]:
    """`rank` rows with random leads, so the leads come out of column order,
    and the rest combinations of up to three rows before them, shuffled so
    that a dependent row may come before the rows it depends on.  A third of
    the rows are scaled by a Fraction, their integral entries made ints."""
    rows = []
    for _ in range(rank):
        zeros = rng.randrange(ncols)
        rows.append([0] * zeros + [rng.choice((-3, -1, 1, 2, 7))] + [rng.randint(-9, 9) for _ in range(ncols - zeros - 1)])
    while len(rows) < nrows:
        picks = rng.sample(rows, min(3, len(rows)))
        coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in picks]
        rows.append([sum((c * r[j] for c, r in zip(coeffs, picks)), F(0)) for j in range(ncols)])
    rng.shuffle(rows)
    for i in rng.sample(range(nrows), nrows // 3):
        scale = F(rng.randint(1, 9), rng.randint(2, 9))
        rows[i] = [int(v) if (v := x * scale).denominator == 1 else v for x in rows[i]]
    return rows


@pytest.mark.parametrize(
    "nrows, ncols, rank, seed",
    [(12, 12, 7, 0), (12, 12, 12, 1), (18, 24, 10, 2), (24, 18, 18, 3), (20, 20, 13, 4), (30, 30, 21, 5), (30, 30, 30, 6)],
)
def test_independent_rows_match_the_oracle_on_seeded_large_inputs(nrows, ncols, rank, seed):
    rows = seeded_rows(random.Random(seed), nrows, ncols, rank)
    kept = independent_rows(rows)
    assert kept == incremental_basis_oracle(rows)
    assert len(kept) == gauss_rank_oracle(QMatrix(rows)) <= rank


def test_independent_rows_reject_ragged_rows():
    for rows in ([[1, 2], [3]], [[0, 0], [1]], [[1, 0], [2, 0, 1]], [[], [1]], [[F(0)], [F(1, 2), 1]]):
        with pytest.raises(DimensionMismatchError):
            independent_rows(rows)
        with pytest.raises(DimensionMismatchError):
            independent_rows(iter(rows))
    # a row past full rank or past the stop rank is never read
    assert independent_rows([[1, 0], [0, 1], [1]]) == [0, 1]
    assert independent_rows([[1, 0], [1]], 1) == [0]


def test_streamed_independent_rows_examples():
    rows = [[0, 0, 0], [1, 2, 0], [2, 4, 0], [0, 1, 0], [5, 5, 0], [0, 0, 1]]
    assert independent_rows(iter(rows)) == independent_rows(rows) == [1, 3, 5]
    assert independent_rows(iter(rows), 2) == [1, 3]
    assert independent_rows(iter(rows), 0) == []
    assert independent_rows(iter([[], []])) == []
    assert independent_rows(iter([[F(1, 2), 1], [1, 2], [1, 3], [1, 4]])) == [0, 2]


def lead_order_cases():
    """Integer matrices whose elimination leads leave column order: the 24
    permutation matrices of size 4 times a seeded nonzero diagonal, a matrix
    with a zero first column, and a singular one whose last row is dependent."""
    rng = random.Random(35)
    cases = []
    for k, perm in enumerate(permutations(range(4))):
        scales = [rng.choice((-3, -2, -1, 1, 2, 5)) for _ in range(4)]
        rows = [[scales[i] if j == perm[i] else 0 for j in range(4)] for i in range(4)]
        cases.append(pytest.param(rows, id=f"perm{k}"))
    cases.append(pytest.param([[0, 0, 3], [0, 2, 1], [0, 1, 5]], id="zero-first-column"))
    cases.append(pytest.param([[0, 1, 2], [3, 0, 1], [1, 2, 0]], id="leads-1-0-2"))
    cases.append(pytest.param([[2, 1, 0], [1, -3, 4], [3, -2, 4]], id="dependent-last-row"))
    return cases


@pytest.mark.parametrize("rows", lead_order_cases())
def test_det_and_adjugate_when_leads_leave_column_order(rows):
    n, d = len(rows), fraction_det_oracle(rows)
    assert det(QMatrix(rows)) == d
    if d == 0:
        with pytest.raises(SingularError):
            exactq.integer_adjugate(rows)
        return
    adj = exactq.integer_adjugate(rows)
    assert QMatrix(rows) * QMatrix(adj) == scale_oracle(d, identity_oracle(n))
    assert QMatrix(adj) == scale_oracle(d, QMatrix(gauss_jordan_inverse_oracle([[F(x) for x in row] for row in rows])))


@pytest.mark.parametrize("rows", lead_order_cases())
def test_rank_counts_independent_rows_when_leads_leave_column_order(rows):
    # every other row made Fractions, so the stream clears those rows first
    mixed = [[F(x, 3) for x in row] if i % 2 else row for i, row in enumerate(rows)]
    for case in (rows, mixed):
        kept = independent_rows(case)
        assert rank(QMatrix(case)) == len(kept) == gauss_rank_oracle(QMatrix(case))
        assert kept == incremental_basis_oracle(case)


@pytest.mark.parametrize(
    "call, rows, error",
    [
        (exactq.integer_adjugate, [[1, 2, 3], [4, 5, 6]], NonSquareError),
        (exactq.integer_adjugate, [[1, 2], [3, 4], [5, 7]], NonSquareError),
        (exactq.integer_adjugate, [[1, 2], [3]], NonSquareError),
        (exactq.integer_adjugate, [], EmptyInputError),
        (exactq.maximal_minors, [], EmptyInputError),
        (exactq.maximal_minors, [[1, 2], [3], [4, 5]], DimensionMismatchError),  # the Laplace pass
        (exactq.maximal_minors, [[1, 2, 3], [4, 5], [6, 7, 8]], DimensionMismatchError),  # one elimination per subset
        (exactq.maximal_minors, [[1, 2, 3], [4, 5]], DimensionMismatchError),  # m < n
    ],
)
def test_adjugate_and_minors_refuse_bad_shapes(call, rows, error):
    with pytest.raises(error):
        call(rows)
    if error is not NonSquareError:  # the error QMatrix raises for the same rows
        with pytest.raises(error):
            QMatrix(rows)


@pytest.fixture
def eliminations(monkeypatch):
    """One entry per run of the elimination kernel `exactq._eliminate`."""
    runs = []
    original = exactq._eliminate

    def counting(*args, **kwargs):
        runs.append("elim")
        return original(*args, **kwargs)

    monkeypatch.setattr(exactq, "_eliminate", counting)
    return runs


def test_each_exact_routine_runs_one_elimination(eliminations):
    rows = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    for call in (
        lambda: rank(QMatrix(rows)),
        lambda: det(QMatrix(rows)),
        lambda: exactq.integer_adjugate(rows),
        lambda: independent_rows(iter(rows + [[F(1, 2), 0, 1]])),
    ):
        eliminations.clear()
        call()
        assert eliminations == ["elim"]


def test_tier_runs_one_elimination_per_sample_point(eliminations, monkeypatch):
    walked, sample = [], obstruct._tier_sample
    monkeypatch.setattr(obstruct, "_tier_sample", lambda *args: (walked.append(p) or p for p in sample(*args)))
    group = obstruct.builtin_group("E")
    eliminations.clear()
    obstruct.tier(group)
    assert len(eliminations) == len(walked) == 24


@pytest.mark.parametrize(
    "rows, blocks",
    [
        ([[1, 0, 0], [0, 2, 0], [0, 0, 3]], 0),  # 1 x 1 components only
        ([[0, 1, 2], [5, 0, 0], [0, 3, 4]], 1),  # a 2 x 2 component and a 1 x 1 one
        ([[2, 1, 0], [1, 3, 1], [0, 1, 4]], 1),  # one dense component
        ([[0, 1, 0, 2], [3, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], 2),  # two permuted 2 x 2 ones
    ],
)
def test_inverse_runs_one_elimination_per_component_larger_than_1x1(eliminations, rows, blocks):
    a = QMatrix(rows)
    eliminations.clear()
    assert inverse(a) * a == identity_oracle(len(rows))
    assert len(eliminations) == blocks


@settings(max_examples=60)
@given(rows_with_dependencies(max_rows=4, square=True))
def test_inverse_exactly_when_det_nonzero(rows):
    a = QMatrix(rows)
    if det(a) == 0:
        with pytest.raises(SingularError):
            inverse(a)
    else:
        assert a * inverse(a) == identity_oracle(a.nrows)


# --- affine hull ------------------------------------------------------------------------


def test_affine_hull_examples():
    assert affine_hull_dim_oracle([(0, 0)]) == 0
    assert affine_hull_dim_oracle([(0, 0), (1, 0), (2, 0)]) == 1
    assert affine_hull_dim_oracle([(0, 0), (1, 0), (0, 1)]) == 2


def test_affine_hull_invariance():
    rng = random.Random(7)
    pts = [tuple(F(rng.randint(-5, 5)) for _ in range(3)) for _ in range(6)]
    base = affine_hull_dim_oracle(pts)
    offset = (F(9), F(-2), F(5, 3))
    shifted = [tuple(x + o for x, o in zip(p, offset)) for p in pts]
    assert affine_hull_dim_oracle(shifted) == base
    assert affine_hull_dim_oracle(pts[::-1]) == base


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
@settings(max_examples=60, deadline=None)
def test_unit_row_product_matches_fraction_oracle(data):
    # left rows with a single nonzero entry, 1 or not, among general rows
    n, k, p = data.draw(dims), data.draw(dims), data.draw(dims)
    b = data.draw(sparse_matrices(k, p))
    rows = []
    for _ in range(n):
        if data.draw(st.booleans()):
            t, x = data.draw(st.integers(0, k - 1)), data.draw(product_entry.filter(bool))
            rows.append([x if j == t else 0 for j in range(k)])
        else:
            rows.append(data.draw(st.lists(product_entry, min_size=k, max_size=k)))
    a = QMatrix(rows)
    assert_same_matrix(a * b, matmul_oracle(a, b).rows)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_product_shape_mismatch(data):
    n, k, p = data.draw(dims), data.draw(dims), data.draw(dims)
    other = data.draw(dims.filter(lambda j: j != k))
    a = data.draw(sparse_matrices(n, k))
    b = data.draw(sparse_matrices(other, p))
    with pytest.raises(DimensionMismatchError):
        a * b


def test_removed_sums_scalars_and_helpers_are_gone():
    a, b = QMatrix([[1, F(1, 2)], [0, -3]]), QMatrix([[2, 0], [F(-1, 3), 1]])
    for call in (lambda: a + b, lambda: a - b, lambda: -a, lambda: a * 2, lambda: 2 * a, lambda: F(1, 2) * a):
        with pytest.raises(TypeError):
            call()
    for owner, name in ((QMatrix, "identity"), (QMatrix, "diagonal"), (SeedMatrix, "row"), (Poly, "evaluate")):
        assert not hasattr(owner, name)
    with pytest.raises(ImportError):
        from cartanlim import block_diag
    with pytest.raises(ImportError):
        from cartanlim.limits import phi
    assert a * b == matmul_oracle(a, b)
    with pytest.raises(DimensionMismatchError, match=r"cannot multiply \(2, 2\) by \(1, 2\)"):
        a * QMatrix([[1, 2]])


def test_matvec_and_transpose():
    m = QMatrix([[1, 2], [3, 4]])
    assert m * column([1, 1]) == column([3, 7])
    assert m.transpose() == QMatrix([[1, 3], [2, 4]])


# --- integer form -----------------------------------------------------------------------


def assert_same_matrix(got: QMatrix, want_rows) -> None:
    """`got` equals, hashes like and reads like `QMatrix(want_rows)`."""
    want = QMatrix(want_rows)
    assert got == want
    assert hash(got) == hash(want)
    assert got.rows == want.rows
    assert all(type(x) is F for row in got.rows for x in row)


def gauss_jordan_inverse_oracle(rows):
    """Plain rational Gauss-Jordan elimination of [A | I]."""
    n = len(rows)
    work = [list(row) + [F(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for c in range(n):
        piv = next(i for i in range(c, n) if work[i][c] != 0)
        work[c], work[piv] = work[piv], work[c]
        work[c] = [x / work[c][c] for x in work[c]]
        for i in range(n):
            if i != c and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return [row[n:] for row in work]


def rho_oracle(seed: SeedMatrix, params: GroupElementParams):
    """The rows of ρ(v), built entry by entry in Fractions."""
    m, n = seed.m, seed.n
    k = m + n + 1
    grid = [[F(int(i == j)) for j in range(k)] for i in range(k)]
    for j in range(m):
        for i in range(n):
            grid[j][m + 1 + i] = seed.matrix.rows[j][i] * params.a[j]
    for i in range(n):
        grid[m][m + 1 + i] = params.b[i]
    return grid


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_derived_matrices_match_fraction_built_ones(data):
    n, k = data.draw(dims), data.draw(dims)
    a = data.draw(sparse_matrices(n, k))
    b = data.draw(sparse_matrices(k, n))
    c = data.draw(sparse_matrices(n, n))
    zero = QMatrix([[0] * k] * n)
    assert_same_matrix(a * b, matmul_oracle(a, b).rows)
    assert_same_matrix(zero * b, [[0] * n] * n)
    assert_same_matrix(a.transpose(), list(zip(*a.rows)))
    if det(c) != 0:
        assert_same_matrix(inverse(c), gauss_jordan_inverse_oracle(c.rows))


nonzero_rows = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(small_fraction, min_size=n, max_size=n).filter(any), min_size=1, max_size=5
    )
)


@given(nonzero_rows, st.data())
@settings(max_examples=60, deadline=None)
def test_rho_matches_fraction_oracle(rows, data):
    seed = SeedMatrix(rows)
    params = GroupElementParams(
        tuple(data.draw(st.lists(small_fraction, min_size=seed.m, max_size=seed.m))),
        tuple(data.draw(st.lists(small_fraction, min_size=seed.n, max_size=seed.n))),
    )
    got = rho(seed, params)
    assert_same_matrix(got, rho_oracle(seed, params))
    assert element_params(seed, got) == params


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_rows_and_integer_form_cannot_be_set(data):
    a = data.draw(sparse_matrices(data.draw(dims), 3))
    for matrix in (a, a * identity_oracle(3)):
        before = (matrix.rows, matrix._den, matrix._ints, matrix._ncols)
        for name in ("rows", "_den", "_ints", "_ncols"):
            with pytest.raises(AttributeError):
                setattr(matrix, name, getattr(matrix, name))
        assert isinstance(matrix._ints, tuple)
        assert all(isinstance(row, tuple) for row in matrix.rows)
        assert (matrix.rows, matrix._den, matrix._ints, matrix._ncols) == before
