import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanlim.errors import (
    DegenerateAlphaError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    InternalError,
    NotGenericError,
    ShapeMismatchError,
    TooFewRowsError,
    ZeroRowError,
)
from cartanlim import exactq, limits
from cartanlim.exactq import QMatrix, block_diag, det, inverse
from cartanlim.limits import (
    GroupElementParams,
    OrbitKind,
    SeedMatrix,
    alpha_conjugacy_class,
    alpha_orbit,
    alpha_seed,
    are_conjugate,
    conjugate_seed,
    element_params,
    exceptional_dual_basis,
    group_action,
    normalized_slice_member,
    orbit_dimension,
    phi,
    rho,
    seed_conjugator,
)
from cartanlim.projgeo import AugmentedBasis, ProjPoint, ProjTransform, projectively_equivalent, unordered_cross_ratio

from util import (
    assert_witness_verifies,
    conjugacy_witness_oracle,
    element_params_oracle,
    matvec_oracle,
    normalized_slice_oracle,
    orbit_hull_dim,
    random_fraction,
    random_generic_seed,
    random_invertible,
    random_params,
    random_rational_seed,
    seed_conjugator_oracle,
)


# --- seed matrices ----------------------------------------------------------------


def test_seed_rejects_zero_rows():
    with pytest.raises(ZeroRowError):
        SeedMatrix([[1, 0], [0, 0]])


def test_is_generic_examples():
    assert SeedMatrix([[1, 0], [0, 1], [1, 1], [1, 2]]).generic is True
    assert SeedMatrix([[1, 0], [2, 0], [0, 1], [1, 1]]).generic is False
    assert alpha_seed(3).generic is True


def test_is_generic_too_few_rows():
    # fewer rows than columns: no n x n minor, so not generic
    assert SeedMatrix([[1, 2, 3]]).generic is False


# --- the homomorphism --------------------------------------------------------------


def test_rho_zero_is_identity():
    t = alpha_seed(3)
    assert rho(t, GroupElementParams.zero(t)) == QMatrix.identity(7)


def test_rho_smallest_case():
    t = SeedMatrix([[1]])
    got = rho(t, GroupElementParams.make([2], [3]))
    assert got == QMatrix([[1, 0, 2], [0, 1, 3], [0, 0, 1]])


def test_rho_block_entries():
    # rows of the 7x7 element carry (a, 0), (b, b), (c, 2c), (d, alpha*d), (e, f)
    t = alpha_seed(3)
    a, b, c, d, e, f = F(1), F(2), F(3), F(4), F(5), F(6)
    got = rho(t, GroupElementParams.make([a, b, c, d], [e, f]))
    assert [row[5:] for row in got.rows[:5]] == [
        (a, F(0)),
        (b, b),
        (c, 2 * c),
        (d, 3 * d),
        (e, f),
    ]
    assert det(got) == 1


def test_rho_matches_fraction_construction():
    # the grid built entry by entry from Fraction(i == j), as before the
    # shared 0/1 constants
    rng = random.Random(5)
    for m, n in ((4, 2), (5, 3), (7, 3)):
        t = random_generic_seed(rng, m, n)
        params = random_params(rng, t)
        k = m + n + 1
        grid = [[F(i == j) for j in range(k)] for i in range(k)]
        for j in range(m):
            for i in range(n):
                grid[j][m + 1 + i] = t.matrix.rows[j][i] * params.a[j]
        for i in range(n):
            grid[m][m + 1 + i] = params.b[i]
        assert rho(t, params) == QMatrix(grid)


def test_rho_homomorphism():
    rng = random.Random(2)
    t = random_generic_seed(rng, 4, 2)
    for _ in range(10):
        p, q = random_params(rng, t), random_params(rng, t)
        assert rho(t, p) * rho(t, q) == rho(t, p + q)
    assert rho(t, GroupElementParams.zero(t)) == QMatrix.identity(7)


def test_rho_dimension_mismatch():
    t = alpha_seed(3)
    with pytest.raises(DimensionMismatchError):
        rho(t, GroupElementParams.make([1, 2], [3, 4]))


@pytest.mark.parametrize(
    "rows",
    [
        [[1]],
        [[2], [F(-1, 3)], [5]],
        [[1, 2], [-3, F(1, 2)], [4, 1]],
        [[1, 0], [0, 1], [1, 1], [2, -1]],  # zero seed entries: a bump there breaks proportionality
        [[1, -2, 3], [F(2, 3), 1, 1], [-1, 1, 2], [3, 1, -1], [1, 4, 1]],
        [[1, 2, 3], [0, 1, -1]],  # m < n
    ],
)
def test_element_params_matches_rebuild_oracle(rows):
    seed = SeedMatrix(rows)
    m, n = seed.m, seed.n
    k = m + n + 1
    rng = random.Random(k)
    dense = all(all(row) for row in seed.matrix.rows)
    for params in (GroupElementParams.zero(seed), random_params(rng, seed), random_params(rng, seed)):
        grid = [list(row) for row in rho(seed, params).rows]
        assert element_params(seed, QMatrix(grid)) == element_params_oracle(seed, QMatrix(grid)) == params
        assert element_params(seed, QMatrix(grid) * 2) is None
        # one entry bumped at a time: the diagonal, off the block, the bottom
        # identity rows, the block rows and row m (the b-row)
        for i in range(k):
            for j in range(k):
                for delta in (F(1), F(-1, 2)):
                    bumped = [row[:] for row in grid]
                    bumped[i][j] += delta
                    matrix = QMatrix(bumped)
                    got = element_params(seed, matrix)
                    assert got == element_params_oracle(seed, matrix)
                    if i > m or j <= m:
                        assert got is None
                    elif i == m:
                        assert got.b[j - m - 1] == params.b[j - m - 1] + delta
                    elif dense:
                        assert (got is None) == (n > 1)


def test_element_params_wrong_shape_is_none():
    seed = alpha_seed(3)
    assert element_params(seed, QMatrix.identity(8)) is None
    assert element_params(seed, QMatrix.identity(6)) is None
    assert element_params(seed, QMatrix([[0] * 8] * 7)) is None
    assert element_params(seed, QMatrix([[0] * 7] * 8)) is None


# --- the linear functionals -----------------------------------------------------------


def test_phi_examples():
    t = SeedMatrix([[1, 0], [1, 1], [1, 2], [1, 3]])
    assert phi(t, 1, [5, 7]) == 5
    assert phi(t, 2, [0, 0]) == 0
    assert phi(t, 3, [2, -1]) == 0
    with pytest.raises(IndexOutOfRangeError):
        phi(t, 5, [1, 1])
    with pytest.raises(IndexOutOfRangeError):
        phi(t, 0, [1, 1])


# --- the projective action --------------------------------------------------------------


def test_action_fixes_head_subspace():
    t = alpha_seed(3)
    rng = random.Random(4)
    x = ProjPoint([1, 2, -3, 0, 5, 0, 0])
    for _ in range(5):
        assert group_action(t, random_params(rng, t), x) == x


def test_action_identity_param():
    t = alpha_seed(3)
    x = ProjPoint([1, 2, 3, 4, 5, 6, 7])
    assert group_action(t, GroupElementParams.zero(t), x) == x


def test_fixed_points_are_exactly_zero_tail():
    # a point with a nonzero tail coordinate is moved by some sampled element
    t = alpha_seed(3)
    rng = random.Random(8)
    sample = [random_params(rng, t) for _ in range(8)]
    for _ in range(10):
        coords = [F(rng.randint(-3, 3)) for _ in range(7)]
        if not any(coords):
            coords[0] = F(1)
        x = ProjPoint(coords)
        fixed_by_all = all(group_action(t, p, x) == x for p in sample)
        assert fixed_by_all == all(c == 0 for c in x.coords[5:])


def test_action_matches_matrix_product():
    rng = random.Random(6)
    for _ in range(20):
        t = random_generic_seed(rng, 4, 2)
        p = random_params(rng, t)
        coords = [F(rng.randint(-4, 4)) for _ in range(7)]
        if not any(coords):
            coords[0] = F(1)
        x = ProjPoint(coords)
        assert group_action(t, p, x) == ProjPoint(matvec_oracle(rho(t, p), x.coords))


def rational_cases(rng: random.Random, count: int):
    """(seed, point) pairs: seeds with rational rows (every fourth has n = 1)
    and points with rational coordinates; every third point has a zero tail,
    and for n >= 2 every other one has a tail on which phi_1 vanishes."""
    for i in range(count):
        n = 1 if i % 4 == 0 else rng.randint(2, 3)
        m = rng.randint(1, 5)
        t = random_rational_seed(rng, m, n)
        coords = [random_fraction(rng, 4, 5) for _ in range(t.ambient)]
        if i % 3 == 0:
            coords[m + 1 :] = [F(0)] * n
        elif n >= 2 and i % 2:
            first = t.matrix.rows[0]
            coords[m + 1 :] = [first[1], -first[0]] + [F(0)] * (n - 2)
        if not any(coords):
            coords[0] = F(1, 2)
        yield t, ProjPoint(coords)


def test_action_matches_matrix_product_on_rational_seeds():
    rng = random.Random(25)
    for t, x in rational_cases(rng, 60):
        p = random_params(rng, t)
        assert group_action(t, p, x) == ProjPoint(matvec_oracle(rho(t, p), x.coords))


def test_action_checks_the_parameters_before_the_point():
    t = random_rational_seed(random.Random(3), 3, 1)
    far = ProjPoint([1] * 7)
    with pytest.raises(DimensionMismatchError, match=r"^parameters of shape \(2, 1\) for a seed with \(m, n\) = \(3, 1\)$"):
        group_action(t, GroupElementParams.make([1, 2], [3]), far)
    with pytest.raises(DimensionMismatchError, match=r"^point has 7 coordinates, expected 5$"):
        group_action(t, GroupElementParams.zero(t), far)


# --- orbit classification -----------------------------------------------------------------


def fiber_point(label, spread=(1, 1, 1, 1, 1)):
    # the fiber labelled t meets the tail in [-t : 1]
    return ProjPoint(list(spread) + [-label, 1])


def test_orbit_dimension_alpha_table():
    t = alpha_seed(3)
    for label in (F(1, 2), F(5), F(-1), F(7, 3)):
        oc = orbit_dimension(t, fiber_point(label))
        assert oc.kind is OrbitKind.TYPICAL and oc.dim == 5
        assert oc.vanishing == frozenset()
    for j, label in enumerate((F(0), F(1), F(2), F(3)), start=1):
        oc = orbit_dimension(t, fiber_point(label))
        assert oc.kind is OrbitKind.EXCEPTIONAL and oc.dim == 4
        assert oc.vanishing == frozenset({j})
    fixed = orbit_dimension(t, ProjPoint([1, 2, 0, 0, 0, 0, 0]))
    assert fixed.kind is OrbitKind.FIXED and fixed.dim == 0


def test_orbit_dimension_matches_hull_oracle():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.choice((2, 3))
        m = rng.randint(n, 6)
        t = random_generic_seed(rng, m, n)
        coords = [F(rng.randint(-3, 3)) for _ in range(m + n + 1)]
        if not any(coords):
            coords[0] = F(1)
        x = ProjPoint(coords)
        assert orbit_dimension(t, x).dim == orbit_hull_dim(t, x)


def test_orbit_dimension_matches_the_oracles_on_rational_seeds():
    rng = random.Random(26)
    kinds = set()
    for t, x in rational_cases(rng, 40):
        oc = orbit_dimension(t, x)
        kinds.add(oc.kind)
        assert oc.dim == orbit_hull_dim(t, x)
        tail = x.coords[t.m + 1 :]
        if any(tail):
            assert oc.vanishing == {j for j in range(1, t.m + 1) if phi(t, j, tail) == 0}
        else:
            assert oc == limits.OrbitClass(OrbitKind.FIXED, 0, frozenset(range(1, t.m + 1)))
    assert kinds == set(OrbitKind)


def test_generic_seed_vanishing_bound():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.choice((2, 3))
        m = rng.randint(n + 2, 6)
        t = random_generic_seed(rng, m, n)
        coords = [F(0)] * (m + 1) + [F(rng.randint(-3, 3)) for _ in range(n)]
        if not any(coords[m + 1 :]):
            coords[-1] = F(1)
        oc = orbit_dimension(t, ProjPoint(coords))
        assert len(oc.vanishing) <= n - 1
        assert oc.dim >= m + 1 - (n - 1)


# --- dual configuration ---------------------------------------------------------------------


def test_dual_basis_rows():
    t = SeedMatrix([[1, 0], [1, 1], [2, 4], [1, 3]])
    dual = exceptional_dual_basis(t)
    assert dual.points == (
        ProjPoint([1, 0]),
        ProjPoint([1, 1]),
        ProjPoint([1, 2]),
        ProjPoint([1, 3]),
    )
    rational = SeedMatrix([["1/2", "1/3"], [1, "-5/4"], ["2/7", 0], [3, 1]])
    assert exceptional_dual_basis(rational).points == tuple(ProjPoint(row) for row in rational.matrix.rows)


def test_dual_basis_requires_generic():
    with pytest.raises(NotGenericError):
        exceptional_dual_basis(SeedMatrix([[1, 0], [2, 0], [0, 1], [1, 1]]))
    with pytest.raises(TooFewRowsError):
        exceptional_dual_basis(SeedMatrix([[1, 0], [0, 1], [1, 1]]))


def test_dual_of_conjugated_seed_is_equivalent():
    rng = random.Random(23)
    for _ in range(5):
        t = random_generic_seed(rng, 4, 2)
        if t.m < t.n + 2:
            continue
        p = random_invertible(rng, 2)
        s = conjugate_seed(t, p)
        if not s.generic:
            continue
        witness = projectively_equivalent(
            exceptional_dual_basis(t), exceptional_dual_basis(s)
        )
        assert witness is not None


# --- conjugacy ---------------------------------------------------------------------------------


def test_conjugate_seed_examples():
    t = alpha_seed(3)
    assert conjugate_seed(t, QMatrix.identity(2)) == t
    scaled = conjugate_seed(t, QMatrix([[1, 0], [0, 2]]))
    assert scaled.matrix == QMatrix([[1, 0], [1, 2], [1, 4], [1, 6]])


def test_conjugate_seed_rejects_singular():
    from cartanlim.errors import SingularError

    with pytest.raises(SingularError):
        conjugate_seed(alpha_seed(3), QMatrix([[1, 1], [1, 1]]))


def test_seed_conjugator_identity():
    rng = random.Random(29)
    t = alpha_seed(3)
    p = random_invertible(rng, 2)
    s = conjugate_seed(t, p)
    w = seed_conjugator(t, p)
    w_inv = inverse(w)
    for _ in range(5):
        params = random_params(rng, t)
        conjugated = w * rho(t, params) * w_inv
        back = element_params(s, conjugated)
        assert back is not None
        assert back.a == params.a  # block rescaling only touches the b-row


def test_are_conjugate_roundtrip():
    # against S = T·P and against S with its rows shuffled, where the row
    # matching σ of the witness is not the identity
    rng = random.Random(31)
    fixes_rows = []
    for m, n in ((4, 2), (5, 3), (6, 3), (7, 3)):
        t = random_generic_seed(rng, m, n)
        while True:
            p = random_invertible(rng, n)
            s = conjugate_seed(t, p)
            if s.generic:
                break
        rows = list(s.matrix.rows)
        rng.shuffle(rows)
        for right in (s, SeedMatrix(rows)):
            witness = are_conjugate(t, right)
            assert witness is not None
            assert_witness_verifies(t, right, witness, rng)
            fixes_rows.append(all(witness.rows[j][j] == 1 for j in range(m)))
    assert not all(fixes_rows)


def test_are_conjugate_wrong_dual_witness_is_internal_error(monkeypatch):
    # the identity moves the row (1, 3) of the alpha = 3 seed onto no row of
    # the alpha = 5 seed
    identity = ProjTransform(QMatrix.identity(2))
    monkeypatch.setattr(limits, "projectively_equivalent", lambda left, right: identity)
    with pytest.raises(InternalError):
        are_conjugate(alpha_seed(3), alpha_seed(5))


def test_are_conjugate_errors():
    with pytest.raises(ShapeMismatchError):
        are_conjugate(alpha_seed(3), SeedMatrix([[1, 0], [0, 1], [1, 1], [1, 2], [1, 3]]))
    with pytest.raises(NotGenericError):
        are_conjugate(
            SeedMatrix([[1, 0], [2, 0], [0, 1], [1, 1]]),
            alpha_seed(3),
        )


@pytest.mark.parametrize(
    "left_rows,right_rows",
    [
        ([[1], [2], [3]], [[1], [5], [-3]]),
        ([[1], [2], [3]], [[F(1, 2)], [-7], [4]]),
        ([[2], [-1], [F(3, 4)], [5], [1]], [[1], [1], [1], [1], [1]]),
    ],
)
def test_are_conjugate_n1_seeds(left_rows, right_rows):
    # every generic m x 1 seed gives the same group, yet all its dual points
    # coincide: the rows are matched one to one all the same
    left, right = SeedMatrix(left_rows), SeedMatrix(right_rows)
    for a, b in ((left, right), (right, left)):
        witness = are_conjugate(a, b)
        assert witness is not None
        assert_witness_verifies(a, b, witness, random.Random(41))


@pytest.mark.parametrize("m,n", [(5, 3), (6, 3), (7, 3)])
def test_conjugacy_inverses_eliminate_at_most_n_by_n(monkeypatch, m, n):
    # the conjugator and the witness are permuted block-diagonal: their
    # inverses eliminate the n x n block and invert the 1 x 1 blocks directly
    rng = random.Random(10 * m + n)
    t = random_generic_seed(rng, m, n)
    while True:
        p = random_invertible(rng, n)
        s = conjugate_seed(t, p)
        if s.generic:
            break
    p_inv = inverse(p)
    sizes = []
    original = exactq.integer_adjugate
    monkeypatch.setattr(exactq, "integer_adjugate", lambda rows: sizes.append(len(rows)) or original(rows))
    assert inverse(block_diag(QMatrix.identity(m + 1), p_inv)) == block_diag(QMatrix.identity(m + 1), p)
    assert max(sizes, default=0) <= n
    sizes.clear()
    witness = are_conjugate(t, s)
    assert witness is not None
    assert sizes and max(sizes) <= n
    assert_witness_verifies(t, s, witness, rng)


@pytest.mark.parametrize("m,n", [(5, 2), (5, 3)])
def test_are_conjugate_computes_one_table_per_seed(monkeypatch, m, n):
    # the minors behind `generic` are the bracket table of the dual basis:
    # fresh seeds compute one table each, and nothing computes one again
    rng = random.Random(m * 10 + n)
    t = random_generic_seed(rng, m, n)
    while True:
        p = random_invertible(rng, n)
        s = conjugate_seed(t, p)
        if s.generic:
            break
    left, right = SeedMatrix(t.matrix), SeedMatrix(s.matrix)
    tables = []
    original = exactq.maximal_minors
    monkeypatch.setattr(exactq, "maximal_minors", lambda rows: tables.append(rows) or original(rows))
    witness = are_conjugate(left, right)
    assert witness is not None
    assert tables == [[ProjPoint(row).ints for row in seed.matrix.rows] for seed in (left, right)]
    tables.clear()
    assert are_conjugate(left, right) == witness
    bases = [exceptional_dual_basis(seed) for seed in (left, right)]
    assert tables == []
    for seed, basis in zip((left, right), bases):
        fresh = AugmentedBasis(ProjPoint(row) for row in seed.matrix.rows)
        assert basis == fresh and basis.points == fresh.points and basis.brackets == fresh.brackets
        with pytest.raises(TypeError):  # the view cannot write the seed's table
            basis.brackets[next(iter(fresh.brackets))] = 0
        assert exceptional_dual_basis(seed).brackets == fresh.brackets


def random_rational_generic_seed(rng: random.Random, m: int, n: int) -> SeedMatrix:
    while True:
        rows = [[random_fraction(rng) for _ in range(n)] for _ in range(m)]
        if all(any(row) for row in rows):
            seed = SeedMatrix(rows)
            if seed.generic:
                return seed


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([(4, 2), (5, 2), (6, 2), (5, 3), (6, 3), (7, 3), (3, 1), (5, 1)]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_conjugators_equal_dense_oracles(shape, shuffle, draw):
    # against S = T·P, with its rows shuffled or not, and against an
    # unrelated generic seed of the same shape
    m, n = shape
    rng = random.Random(draw)
    t = random_rational_generic_seed(rng, m, n)
    while True:
        p = random_invertible(rng, n)
        s = conjugate_seed(t, p)
        if s.generic:
            break
    conjugator = seed_conjugator(t, p)
    assert conjugator == seed_conjugator_oracle(t, p)
    assert_witness_verifies(t, s, conjugator, rng, count=2)
    if shuffle:
        rows = list(s.matrix.rows)
        rng.shuffle(rows)
        s = SeedMatrix(rows)
    witness = are_conjugate(t, s)
    assert witness is not None and witness == conjugacy_witness_oracle(t, s)
    assert_witness_verifies(t, s, witness, rng, count=2)
    other = random_rational_generic_seed(rng, m, n)
    assert are_conjugate(t, other) == conjugacy_witness_oracle(t, other)


def test_alpha_grid_conjugacy_matches_uc_equality():
    # seeds at alpha and beta are conjugate exactly when the dual invariant
    # sets match, which happens exactly on the conjugacy class of alpha
    values = [F(k, 2) for k in range(-10, 13)]
    values = [v for v in values if v not in (F(0), F(1), F(2))]
    assert len(values) == 20
    uc = {v: unordered_cross_ratio(exceptional_dual_basis(alpha_seed(v))) for v in values}
    classes = {v: set(alpha_conjugacy_class(v)) for v in values}
    for a in values:
        for b in values:
            witness = are_conjugate(alpha_seed(a), alpha_seed(b))
            assert (witness is not None) == (uc[a] == uc[b])
            assert (witness is not None) == (b in classes[a])


def test_alpha3_class_members():
    cls = set(alpha_conjugacy_class(3))
    assert cls == {F(3), F(8, 5), F(6, 7), F(2, 5), F(8, 7), F(-1)}
    assert are_conjugate(alpha_seed(3), alpha_seed(-1)) is not None
    assert are_conjugate(alpha_seed(3), alpha_seed(5)) is None
    # the invariant values themselves are not conjugate parameters in general:
    # 4/3 lies in the invariant set of 3 but its configuration is harmonic
    assert are_conjugate(alpha_seed(3), alpha_seed(F(4, 3))) is None


# --- the one-parameter family ------------------------------------------------------------------


def test_alpha_orbit_values():
    assert {p.affine_value() for p in alpha_orbit(3)} == {
        F(4, 3),
        F(3, 4),
        F(-3),
        F(-1, 3),
        F(4),
        F(1, 4),
    }
    assert {p.affine_value() for p in alpha_orbit(4)} == {
        F(3, 2),
        F(2, 3),
        F(-2),
        F(-1, 2),
        F(3),
        F(1, 3),
    }


def test_alpha_orbit_degenerate():
    for bad in (0, 1, 2):
        with pytest.raises(DegenerateAlphaError):
            alpha_orbit(bad)


def test_alpha_orbit_size():
    assert len(alpha_orbit(F(2, 3))) == 3  # harmonic locus
    for v in (F(3), F(-5), F(9, 4), F(22, 7)):
        assert len(alpha_orbit(v)) == 6
    # alpha equal to its own leading expression would need alpha^2-2alpha+2=0,
    # which has no rational roots
    for v in (F(3), F(-5), F(9, 4), F(22, 7), F(2, 3)):
        assert 2 * (v - 1) / v != v


def test_alpha_class_symmetry():
    for v in (F(3), F(9, 4), F(-2)):
        for b in alpha_conjugacy_class(v):
            assert v in alpha_conjugacy_class(b)


# --- normalized slice ---------------------------------------------------------------------------


def test_normalized_slice_examples():
    seed = normalized_slice_member(QMatrix([[1, 3]]))
    assert seed.matrix == QMatrix([[1, 0], [0, 1], [1, 1], [1, 3]])
    assert seed.m == 4
    with pytest.raises(NotGenericError):
        normalized_slice_member(QMatrix([[1, 1]]))
    bigger = normalized_slice_member(QMatrix([[1, 3], [1, 5]]))
    assert bigger.m == 5 and bigger.generic
    dual = exceptional_dual_basis(bigger)
    assert dual.points[: 3] == (
        ProjPoint([1, 0]),
        ProjPoint([0, 1]),
        ProjPoint([1, 1]),
    )


def test_normalized_slice_matches_the_fraction_stacking():
    rng = random.Random(27)
    outcomes = set()
    for i in range(80):
        n = 1 + i % 3
        free = QMatrix([[random_fraction(rng, 4, 5) for _ in range(n)] for _ in range(rng.randint(1, 2))])
        try:
            expected = normalized_slice_oracle(free)
        except NotGenericError as exc:
            with pytest.raises(NotGenericError, match=f"^{exc}$"):
                normalized_slice_member(free)
            outcomes.add(str(exc).split()[0])
            continue
        seed = normalized_slice_member(free)
        assert seed == expected and seed.matrix.rows == expected.matrix.rows
        outcomes.add(n)
    assert outcomes == {1, 2, 3, "row", "stacked"}
