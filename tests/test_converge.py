import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanlim.converge import (
    ConvergenceTrace,
    _certified,
    _offsets,
    _positive_root,
    build_Pr,
    conjugated_element,
    convergence_report,
    diagonal_for_target,
)
from cartanlim.errors import (
    NonpositiveRError,
    NoPositiveRootError,
    ZeroFirstColumnError,
)
from cartanlim.exactq import QMatrix, det, inverse
from cartanlim.limits import GroupElementParams, SeedMatrix, alpha_seed, rho
from util import FIXTURES, identity_oracle, inverse_pr_oracle, run_cli, sub_oracle, trace_point_oracle


def bisect_root(poly, lo, hi, iterations=200):
    """Independent bracketing oracle for the determinant condition."""
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if poly(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_build_pr_smallest_case():
    t = SeedMatrix([[1]])
    pr = build_Pr(t, 2)
    assert pr == QMatrix([[1, 0, 2], [0, 1, 4], [0, 0, 1]])


def test_build_pr_unipotent():
    t = alpha_seed(3)
    pr = build_Pr(t, F(7, 2))
    assert det(pr) == 1
    assert pr * inverse(pr) == identity_oracle(7)


def test_inverse_pr_matches_fraction_construction():
    for r in (F(1), F(7, 2), F(10)):
        pr = build_Pr(alpha_seed(3), r)
        k = pr.nrows
        old = QMatrix([[2 * F(i == j) - pr.rows[i][j] for j in range(k)] for i in range(k)])
        assert inverse_pr_oracle(pr) == old == inverse(pr)


def test_build_pr_requires_positive_r():
    with pytest.raises(NonpositiveRError):
        build_Pr(alpha_seed(3), 0)
    with pytest.raises(NonpositiveRError):
        build_Pr(alpha_seed(3), F(-1, 2))


def test_diagonal_zero_params_is_ones():
    t = alpha_seed(3)
    diag = diagonal_for_target(t, GroupElementParams.make([0] * t.m, [0] * t.n), 10)
    assert diag == [1.0] * 7


def test_diagonal_smallest_case_against_oracle():
    # offsets: x1 = x2 + 9/100, x3 = x2 - 1/100, and x2 solves the cubic
    # (x2 + 9/100) * x2 * (x2 - 1/100) = 1
    t = SeedMatrix([[1]])
    p = GroupElementParams.make([1], [1])
    diag = diagonal_for_target(t, p, 10)
    oracle = bisect_root(lambda x: (x + 0.09) * x * (x - 0.01) - 1.0, 0.01, 2.0)
    assert abs(diag[1] - oracle) < 1e-12
    assert abs(diag[0] - (diag[1] + 0.09)) < 1e-15
    assert abs(diag[2] - (diag[1] - 0.01)) < 1e-15
    assert all(x > 0 for x in diag)


def test_diagonal_row_matching_identity():
    # r^2 (x_{m+1} - x_{m+1+i}) = b_i holds exactly by construction
    t = alpha_seed(3)
    p = GroupElementParams.make([1, -2, 3, F(1, 2)], [F(5, 3), -1])
    for r in (10, 100):
        diag = diagonal_for_target(t, p, r)
        for i, b in enumerate(p.b):
            assert math.isclose(
                r * r * (diag[4] - diag[5 + i]), float(b), rel_tol=0, abs_tol=1e-9
            )


def test_diagonal_zero_first_column_matches_conjugated_element():
    # the first column has a zero; both entry points use the second column
    t = SeedMatrix([[0, 1], [1, 1], [1, 2], [1, 3]])
    p = GroupElementParams.make([1, 2, 3, 4], [5, 6])
    for r in (10, 100):
        diag = diagonal_for_target(t, p, r)
        got = conjugated_element(t, p, r)
        assert diag == [got[i][i] for i in range(7)]
        assert all(x > 0 for x in diag)


def test_conjugated_element_zero_params():
    t = alpha_seed(3)
    got = conjugated_element(t, GroupElementParams.make([0] * t.m, [0] * t.n), 100)
    for i in range(7):
        for j in range(7):
            assert got[i][j] == (1.0 if i == j else 0.0)


def test_conjugated_element_exact_columns():
    t = alpha_seed(3)
    p = GroupElementParams.make([1, 2, -1, F(3, 2)], [2, -3])
    target = rho(t, p)
    for r in (10, 100, 1000):
        got = conjugated_element(t, p, r)
        # column m+2 block entries and row m+1 entries match the target exactly
        for j in range(4):
            assert abs(got[j][5] - float(target.rows[j][5])) < 1e-12
        for i in range(2):
            assert abs(got[4][5 + i] - float(target.rows[4][5 + i])) < 1e-12


def test_off_pivot_entries_decay_like_one_over_r():
    t = alpha_seed(3)
    p = GroupElementParams.make([1, 1, 1, 1], [1, 5])
    target = rho(t, p)
    errs = []
    for r in (10, 100, 1000):
        got = conjugated_element(t, p, r)
        errs.append(abs(got[1][6] - float(target.rows[1][6])))
    assert errs[0] > 0
    # fitted decay exponent close to 1
    exponent = math.log10(errs[0] / errs[2]) / 2
    assert 0.9 < exponent < 1.1


def test_zero_first_column_falls_back_to_other_column():
    # first column has a zero, second column is zero-free: the construction
    # permutes columns internally and still converges to the stated target
    t = SeedMatrix([[0, 1], [1, 1], [1, 2], [1, 3]])
    p = GroupElementParams.make([1, 2, 3, 4], [5, 6])
    target = rho(t, p)
    trace = convergence_report(t, p, [10, 100, 1000])
    assert trace.distances[2] < 0.02 * trace.distances[0]
    got = conjugated_element(t, p, 1000)
    assert max(
        abs(got[i][j] - float(target.rows[i][j])) for i in range(7) for j in range(7)
    ) == pytest.approx(trace.distances[2])


def test_all_zero_columns_rejected():
    t = SeedMatrix([[0, 1], [1, 0], [1, 1], [1, 2]])
    with pytest.raises(ZeroFirstColumnError):
        conjugated_element(t, GroupElementParams.make([0] * t.m, [0] * t.n), 10)
    with pytest.raises(ZeroFirstColumnError):
        diagonal_for_target(t, GroupElementParams.make([0] * t.m, [0] * t.n), 10)


def test_convergence_report_schedule_checks():
    t = alpha_seed(3)
    p = GroupElementParams.make([0] * t.m, [0] * t.n)
    with pytest.raises(ValueError):
        convergence_report(t, p, [])
    with pytest.raises(ValueError):
        convergence_report(t, p, [10, 10, 100])


def test_convergence_report_zero_params():
    t = alpha_seed(3)
    trace = convergence_report(t, GroupElementParams.make([0] * t.m, [0] * t.n), [10, 100, 1000])
    assert all(d <= 1e-12 for d in trace.distances)


def test_convergence_report_decay_and_diagonals():
    t = alpha_seed(3)
    p = GroupElementParams.make([1, 1, 1, 1], [1, 1])
    trace = convergence_report(t, p, [10, 100, 1000])
    assert trace.distances[0] >= trace.distances[1] >= trace.distances[2]
    assert trace.distances[2] <= 0.02 * trace.distances[0]
    for diag in trace.diag_entries:
        assert all(x > 0 for x in diag)
        prod = 1.0
        for x in diag:
            prod *= x
        assert abs(prod - 1.0) <= 1e-12
    # every x_i approaches 1 as r grows
    spread = [max(abs(x - 1.0) for x in diag) for diag in trace.diag_entries]
    assert spread[2] < spread[0]


def test_target_is_unipotent():
    t = alpha_seed(3)
    p = GroupElementParams.make([1, 2, 3, 4], [5, 6])
    nil = sub_oracle(rho(t, p), identity_oracle(7))
    assert nil * nil == QMatrix([[0] * 7 for _ in range(7)])


def test_trace_shape_validation():
    with pytest.raises(ValueError):
        ConvergenceTrace((F(10),), (0.1, 0.2), ((1.0,),))


# --- the closed-form exact part and the root certificate ----------------------------

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def converge_inputs(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rows = [draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(m)]
    col = draw(st.integers(0, n - 1))  # some column without a zero entry
    for row in rows:
        row[col] = row[col] or F(1)
    params = GroupElementParams.make(
        draw(st.lists(rationals, min_size=m, max_size=m)), draw(st.lists(rationals, min_size=n, max_size=n))
    )
    rs = sorted(draw(st.sets(st.fractions(min_value=F(1, 7), max_value=2000, max_denominator=7), min_size=1, max_size=3)))
    return SeedMatrix(rows), params, rs


def bits(values):
    return [x.hex() for x in values]


@settings(max_examples=80, deadline=None)
@given(converge_inputs())
def test_every_emitted_float_matches_the_dense_oracle(case):
    seed, params, rs = case
    try:
        points = [trace_point_oracle(seed, params, r) for r in rs]
    except NoPositiveRootError:
        with pytest.raises(NoPositiveRootError):
            convergence_report(seed, params, rs)
        return
    for r, (diag, matrix) in zip(rs, points):
        assert bits(diagonal_for_target(seed, params, r)) == bits(diag)
        assert [bits(row) for row in conjugated_element(seed, params, r)] == [bits(row) for row in matrix]
    target = [[float(x) for x in row] for row in rho(seed, params).rows]
    try:
        trace = convergence_report(seed, params, rs)
    except NoPositiveRootError:
        return
    k = seed.m + seed.n + 1
    for (diag, matrix), dist, got in zip(points, trace.distances, trace.diag_entries):
        assert bits(got) == bits(diag)
        assert dist.hex() == max(abs(matrix[i][j] - target[i][j]) for i in range(k) for j in range(k)).hex()


def sign_at(t: float, cs) -> int:
    value = math.prod(F(t) + c for c in cs) - 1
    return (value > 0) - (value < 0)


def test_large_offsets_root_is_certified_where_the_float_product_misses():
    # a = (10^9, 1, 1, 1), b = (1, 1) at r = 1: offsets (10^9 - 1, 0, 0, 0, 0,
    # -1, -1); two entries root - 1 lose digits, and the float product reads
    # 1 - 4e-12, outside the default tolerance, although the root is exact to an ulp
    seed = alpha_seed(3)
    params = GroupElementParams.make([10**9, 1, 1, 1], [1, 1])
    diag = diagonal_for_target(seed, params, 1)
    assert abs(math.prod(diag) - 1.0) > 1e-12
    den, ints = _offsets(seed, params, F(1))
    root = _positive_root([c / den for c in ints])
    cs = [F(c, den) for c in ints]
    lo, hi = math.nextafter(root, -math.inf), math.nextafter(root, math.inf)
    assert sign_at(lo, cs) < 0 < sign_at(hi, cs) and F(lo) + min(cs) > 0
    assert _certified(root, den, ints)
    trace = convergence_report(seed, params, [1, 10, 100])
    assert trace.diag_entries[0] == tuple(diag)
    # two ulps off, the bracket misses the root
    for wrong in (math.nextafter(hi, math.inf), math.nextafter(lo, -math.inf)):
        assert not _certified(wrong, den, ints)
    # t = 0 solves (t - 2)(t - 2)(t + 1/4) = 1 with a sign change from - to +,
    # but two factors are negative there; an infinite root has no bracket
    assert sign_at(-5e-324, [-2, -2, F(1, 4)]) < 0 < sign_at(5e-324, [-2, -2, F(1, 4)])
    assert not _certified(0.0, 4, [-8, -8, 1])
    assert not _certified(math.inf, 1, [0])


def test_large_offsets_converge_exits_0(tmp_path):
    path = tmp_path / "params.json"
    path.write_text('{"a": ["1000000000", "1", "1", "1"], "b": ["1", "1"]}', encoding="utf-8")
    code, out = run_cli(["converge", str(FIXTURES / "seed_a3.json"), str(path), "--r-schedule", "1,10,100"])
    assert code == 0
    assert '"r": ["1", "10", "100"]' in out

