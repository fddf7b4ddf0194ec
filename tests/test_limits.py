import random
from fractions import Fraction as F

import pytest

from cartanlim.errors import (
    DegenerateAlphaError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    NotGenericError,
    ShapeMismatchError,
    TooFewRowsError,
    ZeroRowError,
)
from cartanlim import exactq
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
    is_generic,
    normalized_slice_member,
    orbit_dimension,
    phi,
    rho,
    seed_conjugator,
)
from cartanlim.projgeo import ProjPoint, projectively_equivalent, unordered_cross_ratio

from util import (
    element_params_oracle,
    matvec_oracle,
    orbit_hull_dim,
    random_generic_seed,
    random_invertible,
    random_params,
)


# --- seed matrices ----------------------------------------------------------------


def test_seed_rejects_zero_rows():
    with pytest.raises(ZeroRowError):
        SeedMatrix([[1, 0], [0, 0]])


def test_is_generic_examples():
    with pytest.warns(DeprecationWarning):
        assert is_generic(SeedMatrix([[1, 0], [0, 1], [1, 1], [1, 2]])) is True
    with pytest.warns(DeprecationWarning):
        assert is_generic(SeedMatrix([[1, 0], [2, 0], [0, 1], [1, 1]])) is False
    with pytest.warns(DeprecationWarning):
        assert is_generic(alpha_seed(3)) is True


def test_is_generic_too_few_rows():
    with pytest.raises(TooFewRowsError), pytest.warns(DeprecationWarning):
        is_generic(SeedMatrix([[1, 2, 3]]))


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
    rng = random.Random(31)
    t = random_generic_seed(rng, 4, 2)
    p = random_invertible(rng, 2)
    s = conjugate_seed(t, p)
    witness = are_conjugate(t, s)
    assert witness is not None
    w_inv = inverse(witness)
    for _ in range(5):
        params = random_params(rng, t)
        assert element_params(s, witness * rho(t, params) * w_inv) is not None


def test_are_conjugate_errors():
    with pytest.raises(ShapeMismatchError):
        are_conjugate(alpha_seed(3), SeedMatrix([[1, 0], [0, 1], [1, 1], [1, 2], [1, 3]]))
    with pytest.raises(NotGenericError):
        are_conjugate(
            SeedMatrix([[1, 0], [2, 0], [0, 1], [1, 1]]),
            alpha_seed(3),
        )


def assert_witness_verifies(left, right, witness, rng, count=5):
    w_inv = inverse(witness)
    for _ in range(count):
        params = random_params(rng, left)
        assert element_params(right, witness * rho(left, params) * w_inv) is not None


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
