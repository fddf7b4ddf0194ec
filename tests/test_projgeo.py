import copy
import pickle
import random
from fractions import Fraction as F
from itertools import combinations, permutations
from math import comb, gcd
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cartanlim import exactq, projgeo
from cartanlim.errors import (
    CapExceededError,
    DegenerateBasisError,
    DimensionMismatchError,
    NotAugmentedBasisError,
    SizeMismatchError,
    ZeroVectorError,
)
from cartanlim.projgeo import (
    AugmentedBasis,
    CrossRatioTuple,
    ProjPoint,
    ProjTransform,
    UnorderedCrossRatio,
    basis_transform,
    ordered_cross_ratio,
    projectively_equivalent,
    unordered_cross_ratio,
)
from cartanlim.exactq import QMatrix, format_rational
from cartanlim.limits import alpha_orbit

from util import (
    basis_transform_oracle,
    canonical_coords_oracle,
    canonical_matrix_oracle,
    equivalence_oracle,
    general_position_oracle,
    identity_oracle,
    matvec_oracle,
    random_augmented_basis,
    random_invertible,
    scale_oracle,
    uc_oracle,
)


def P(*coords):
    return ProjPoint(coords)


def alpha_points(alpha):
    return [P(1, 0), P(1, 1), P(1, 2), P(1, alpha)]


def six_expressions(a: F) -> set[F]:
    return {
        2 * (a - 1) / a,
        a / (2 * (a - 1)),
        a / (2 - a),
        (2 - a) / a,
        2 * (a - 1) / (a - 2),
        (a - 2) / (2 * (a - 1)),
    }


# --- canonical forms -----------------------------------------------------------


def test_projpoint_canonical():
    assert P(2, 4).coords == (F(1), F(2))
    assert P(0, -3).coords == (F(0), F(1))
    assert P(2, 4) == P(1, 2)


# zeros and negative leads are common draws, and non-integers are the rule
coordinate = st.one_of(st.just(F(0)), st.fractions(min_value=-6, max_value=6, max_denominator=5))
nonzero = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)


def coordinates(n: int):
    return st.lists(coordinate, min_size=n, max_size=n).filter(any)


@st.composite
def invertible(draw, n: int) -> QMatrix:
    mat = QMatrix(draw(st.lists(coordinates(n), min_size=n, max_size=n)))
    assume(exactq.det(mat) != 0)
    return mat


@settings(max_examples=60)
@given(st.integers(1, 4).flatmap(coordinates), nonzero)
def test_projpoint_ints_coords_round_trip(coords, scale):
    p = ProjPoint(coords)
    assert p.coords == canonical_coords_oracle(coords)
    assert gcd(*p.ints) == 1 and next(x for x in p.ints if x) > 0
    assert canonical_coords_oracle(p.ints) == p.coords
    assert ProjPoint(p.ints) == p == ProjPoint(p.coords)
    scaled = ProjPoint([scale * c for c in coords])
    assert scaled.ints == p.ints and hash(scaled) == hash(p)
    assert p.serialized() == tuple(format_rational(c) for c in p.coords)


@settings(max_examples=60)
@given(st.integers(2, 3).flatmap(lambda n: st.lists(coordinates(n), min_size=n + 1, max_size=n + 1)))
def test_basis_transform_matches_fraction_oracle(coords):
    points = [ProjPoint(c) for c in coords]
    if general_position_oracle(points):
        assert basis_transform(points).matrix == basis_transform_oracle(points)
    else:
        with pytest.raises(DegenerateBasisError):
            basis_transform(points)


@settings(max_examples=40)
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(invertible(n), invertible(n), coordinates(n))))
def test_compose_inverse_call_agree_with_qmatrix(args):
    a, b, coords = args
    ta, tb = ProjTransform(a), ProjTransform(b)
    assert ta.compose(tb).matrix == canonical_matrix_oracle(a * b)
    assert ta.inverse().matrix == canonical_matrix_oracle(exactq.inverse(a))
    assert ta.compose(ta.inverse()) == ProjTransform(identity_oracle(a.nrows))
    point = ProjPoint(coords)
    assert ta(point) == ProjPoint(matvec_oracle(a, point.coords))


@settings(max_examples=40)
@given(st.integers(1, 3).flatmap(invertible), nonzero)
def test_projtransform_key_ignores_rescaling(a, scale):
    t = ProjTransform(a)
    rescaled = ProjTransform(scale_oracle(scale, a))
    assert rescaled == t and hash(rescaled) == hash(t)
    assert rescaled.matrix == canonical_matrix_oracle(a)
    assert gcd(*(x for row in t.ints for x in row)) == 1


def test_projpoint_zero_rejected():
    with pytest.raises(ZeroVectorError):
        P(0, 0)


def test_projtransform_canonical_scale():
    t1 = ProjTransform(QMatrix([[2, 0], [0, 2]]))
    assert t1.matrix == identity_oracle(2)
    t2 = ProjTransform(QMatrix([[0, 3], [-3, 0]]))
    assert t2.matrix == QMatrix([[0, 1], [-1, 0]])


def test_dualize_examples():
    # the dual point of a hyperplane is its coefficient vector
    assert ProjPoint([1, 0]) == P(1, 0)
    assert ProjPoint([2, 4]) == P(1, 2)
    assert ProjPoint([0, -3]) == P(0, 1)


# --- general position -------------------------------------------------------------


def test_general_position_examples():
    assert general_position_oracle([P(1, 0), P(0, 1), P(1, 1)]) is True
    assert general_position_oracle([P(1, 0), P(1, 0), P(0, 1)]) is False
    assert general_position_oracle(alpha_points(3)) is True


def test_general_position_mixed_dims():
    with pytest.raises(DimensionMismatchError):
        AugmentedBasis([P(1, 0), P(1, 0, 0), P(0, 1), P(1, 1)])


# --- basis transform -----------------------------------------------------------------


def test_basis_transform_standard_is_identity():
    q = basis_transform([P(1, 0), P(0, 1), P(1, 1)])
    assert q.matrix == identity_oracle(2)


def test_basis_transform_swap():
    q = basis_transform([P(0, 1), P(1, 0), P(1, 1)])
    assert q.matrix == QMatrix([[0, 1], [1, 0]])


def test_basis_transform_alpha_line():
    # hand-computed: the normalizer of ([1:0],[1:1],[1:2]) sends [1:alpha] to
    # a vector with first/second ratio 2(alpha-1)/alpha, i.e. 4/3 at alpha=3
    q = basis_transform([P(1, 0), P(1, 1), P(1, 2)])
    image = q(P(1, 3))
    assert image == P(1, F(3, 4))
    assert image.coords[0] / image.coords[1] == F(4, 3)


def test_basis_transform_degenerate():
    with pytest.raises(DegenerateBasisError):
        basis_transform([P(1, 0), P(2, 0), P(1, 1)])


def test_basis_transform_equivariance():
    rng = random.Random(3)
    pts = [P(1, 0), P(1, 1), P(1, -2)]
    q0 = ProjTransform(random_invertible(rng, 2))
    lhs = basis_transform([q0(p) for p in pts])
    rhs = basis_transform(pts).compose(q0.inverse())
    assert lhs == rhs


# --- ordered cross ratio ------------------------------------------------------------


def test_ordered_identity_when_head_is_standard():
    pts = [P(1, 0, 0), P(0, 1, 0), P(0, 0, 1), P(1, 1, 1), P(1, 2, 3)]
    t = ordered_cross_ratio(pts)
    assert t.entries == (P(1, 2, 3),)


def test_ordered_needs_augmented_basis():
    with pytest.raises(NotAugmentedBasisError):
        ordered_cross_ratio([P(1, 0, 0), P(0, 1, 0), P(0, 0, 1), P(1, 1, 1)])


def test_ordered_alpha_values():
    # identity ordering lands on alpha/(2(alpha-1)); swapping the first two
    # points gives the reciprocal 2(alpha-1)/alpha, the other member of the pair
    for alpha in (F(3), F(5), F(-7, 2)):
        pts = alpha_points(alpha)
        ident = ordered_cross_ratio(pts).entries[0]
        assert ident == P(1, alpha / (2 * (alpha - 1)))
        swapped = ordered_cross_ratio([pts[1], pts[0], pts[2], pts[3]]).entries[0]
        assert swapped == P(1, 2 * (alpha - 1) / alpha)


# --- unordered cross ratio -------------------------------------------------------------


def brute_force_uc(points):
    out = set()
    for perm in permutations(points):
        out.add(ordered_cross_ratio(list(perm)))
    return UnorderedCrossRatio(out)


def test_uc_matches_six_expressions():
    for alpha in (F(3), F(-1), F(4)):
        uc = unordered_cross_ratio(alpha_points(alpha))
        expected = UnorderedCrossRatio(
            {CrossRatioTuple([P(1, v)]) for v in six_expressions(alpha)}
        )
        assert uc == expected


def test_uc_alpha3_affine_values():
    uc = unordered_cross_ratio(alpha_points(3))
    values = {t.entries[0].affine_value() for t in uc}
    assert values == {F(4, 3), F(3, 4), F(-3), F(-1, 3), F(4), F(1, 4)}


def test_uc_alpha_minus1_matches_alpha3():
    left = unordered_cross_ratio(alpha_points(3))
    right = unordered_cross_ratio(alpha_points(-1))
    assert left == right


def test_uc_harmonic_collapses():
    uc = unordered_cross_ratio(alpha_points(F(2, 3)))
    values = {t.entries[0].affine_value() for t in uc}
    assert values == {F(-1), F(1, 2), F(2)}


def test_uc_equals_brute_force_enumeration():
    rng = random.Random(11)
    basis = random_augmented_basis(rng, 3, 5)
    assert unordered_cross_ratio(basis) == brute_force_uc(basis.points)


def test_uc_membership():
    uc = unordered_cross_ratio(random_augmented_basis(random.Random(11), 3, 6))
    assert all(t in uc for t in uc.tuples)
    member = uc.tuples[len(uc) // 2]
    assert tuple(member) in uc
    near_miss = CrossRatioTuple([*member.entries[:-1], P(1, 1, 1)])
    assert near_miss != member and near_miss not in uc
    assert ("not", "points") not in uc


def test_uc_size_divides_six_on_line():
    for alpha in (F(3), F(2, 3), F(-5), F(9, 4)):
        uc = unordered_cross_ratio(alpha_points(alpha))
        assert 6 % len(uc) == 0 and len(uc) >= 1


def test_uc_cap():
    pts = [P(1, t) for t in range(9)]
    with pytest.raises(CapExceededError):
        unordered_cross_ratio(pts)
    # raising the cap unlocks the computation
    assert len(unordered_cross_ratio(pts[:5], cap=8)) > 0


def test_uc_invariant_under_transform():
    rng = random.Random(5)
    for _ in range(6):
        basis = random_augmented_basis(rng, 2, 5)
        q = ProjTransform(random_invertible(rng, 2))
        moved = AugmentedBasis([q(p) for p in basis.points])
        assert unordered_cross_ratio(moved) == unordered_cross_ratio(basis)


# --- projective equivalence ---------------------------------------------------------------


def test_equivalent_identity():
    basis = AugmentedBasis(alpha_points(3))
    witness = projectively_equivalent(basis, basis)
    assert witness is not None
    assert witness.matrix == identity_oracle(2)


def test_equivalent_constructed_witness():
    rng = random.Random(9)
    for n, m in ((2, 4), (3, 5)):
        basis = random_augmented_basis(rng, n, m)
        q0 = ProjTransform(random_invertible(rng, n))
        shuffled = list(basis.points)
        rng.shuffle(shuffled)
        moved = AugmentedBasis([q0(p) for p in shuffled])
        witness = projectively_equivalent(basis, moved)
        assert witness is not None
        assert {witness(p) for p in basis.points} == set(moved.points)


def test_equivalent_alpha3_vs_alpha5_fails():
    got = projectively_equivalent(
        AugmentedBasis(alpha_points(3)), AugmentedBasis(alpha_points(5))
    )
    assert got is None
    assert six_expressions(F(3)) != six_expressions(F(5))


def test_equivalent_agrees_with_uc():
    rng = random.Random(21)
    for _ in range(8):
        a = random_augmented_basis(rng, 2, 4)
        b = random_augmented_basis(rng, 2, 4)
        same = unordered_cross_ratio(a) == unordered_cross_ratio(b)
        assert (projectively_equivalent(a, b) is not None) == same


def test_equivalent_size_mismatch():
    with pytest.raises(SizeMismatchError):
        projectively_equivalent(
            AugmentedBasis(alpha_points(3)),
            AugmentedBasis(alpha_points(3) + [P(1, 7)]),
        )


# --- oracles ----------------------------------------------------------------------


SHAPES = ((2, 4), (2, 5), (2, 6), (3, 5), (3, 6))


@st.composite
def configurations(draw, n: int, m: int) -> AugmentedBasis:
    vectors = st.lists(st.integers(-5, 5), min_size=n, max_size=n).filter(any)
    points = draw(st.lists(vectors.map(ProjPoint), min_size=m, max_size=m))
    assume(general_position_oracle(points))
    return AugmentedBasis(points)


@st.composite
def configuration_pairs(draw):
    """(left, right) of one shape: right is left moved by a random transform
    and shuffled, or an independent draw."""
    n, m = draw(st.sampled_from(SHAPES))
    left = draw(configurations(n, m))
    if draw(st.booleans()):
        q = ProjTransform(draw(invertible(n)))
        return left, AugmentedBasis(q(p) for p in draw(st.permutations(left.points)))
    return left, draw(configurations(n, m))


def assert_matches_oracles(left, right):
    for basis in (left, right):
        assert [t.entries for t in unordered_cross_ratio(basis)] == uc_oracle(basis)
    got, want = projectively_equivalent(left, right), equivalence_oracle(left, right)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.ints == want.ints
    return got


@settings(max_examples=25, deadline=None)
@given(configuration_pairs())
def test_enumerations_match_per_head_oracles(pair):
    assert_matches_oracles(*pair)


@settings(max_examples=25, deadline=None)
@given(configuration_pairs())
def test_uc_key_set_form(pair):
    ucs = [unordered_cross_ratio(basis) for basis in pair]
    same = ucs[0] == ucs[1]  # before `tuples` is read
    assert same == (projectively_equivalent(*pair) is not None)
    for basis, uc in zip(pair, ucs):
        assert [tuple(t) for t in uc] == uc_oracle(basis)
        rebuilt = UnorderedCrossRatio(uc.tuples)
        assert rebuilt == uc and hash(rebuilt) == hash(uc) and len(rebuilt) == len(uc)
        assert all(t in uc for t in uc.tuples)
        # the standard point [1 : ... : 1] is the image of the head's last
        # point, so it is never a tail image
        member = uc.tuples[len(uc) // 2]
        near_miss = CrossRatioTuple([*member.entries[:-1], ProjPoint([1] * basis.n)])
        assert near_miss not in uc
    assert (ucs[0] == ucs[1]) == same


def test_uc_equality_serializes_nothing(monkeypatch):
    calls = []
    serialized = ProjPoint.serialized
    monkeypatch.setattr(ProjPoint, "serialized", lambda p: calls.append(p) or serialized(p))
    rng = random.Random(17)
    left = random_augmented_basis(rng, 3, 6)
    q = ProjTransform(random_invertible(rng, 3))
    right = AugmentedBasis(q(p) for p in reversed(left.points))
    ucs = [unordered_cross_ratio(left), unordered_cross_ratio(right)]
    assert ucs[0] == ucs[1] and hash(ucs[0]) == hash(ucs[1])
    assert calls == []
    assert ucs[0].tuples == ucs[1].tuples and calls


def test_enumerations_match_oracles_on_larger_shapes():
    rng = random.Random(37)
    for n, m in ((3, 7), (4, 6)):
        left = random_augmented_basis(rng, n, m)
        q = ProjTransform(random_invertible(rng, n))
        shuffled = list(left.points)
        rng.shuffle(shuffled)
        witness = assert_matches_oracles(left, AugmentedBasis(q(p) for p in shuffled))
        assert witness is not None
    a, b = random_augmented_basis(rng, 4, 7), random_augmented_basis(rng, 4, 7)
    assert projectively_equivalent(a, b) is None
    assert equivalence_oracle(a, b) is None
    # positive and negative pairs, both ways round
    for n, m in ((2, 7), (3, 7), (4, 6), (4, 7)):
        left = random_augmented_basis(rng, n, m)
        q = ProjTransform(random_invertible(rng, n))
        shuffled = list(left.points)
        rng.shuffle(shuffled)
        positive, negative = AugmentedBasis(q(p) for p in shuffled), random_augmented_basis(rng, n, m)
        for right in (positive, negative):
            assert (assert_matches_oracles(left, right) is None) == (right is negative)
            assert (assert_matches_oracles(right, left) is None) == (right is negative)


# Bases at the edges of the image list: one coordinate, a single tail
# slot, four tail slots, and symmetric configurations, whose key sets are
# smaller than m!; the size is pinned where it is known
EDGE_CASES = {
    "n1_m3": (lambda: [P(k) for k in (1, 2, -3)], 1),
    "n1_m4": (lambda: [P(k) for k in (1, -2, 3, 5)], 1),
    "one_tail_column_4x6": (lambda: random_augmented_basis(random.Random(46), 4, 6).points, None),
    "four_tail_columns_2x7": (lambda: random_augmented_basis(random.Random(27), 2, 7).points, None),
    "harmonic_2x4": (lambda: alpha_points(-1), 6),
    "symmetric_2x6": (lambda: [P(0, 1), *(P(1, x) for x in (0, 1, -1, 2, -2))], 180),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_uc_edge_shapes(case):
    build, size = EDGE_CASES[case]
    basis = AugmentedBasis(build())
    n, m = basis.n, basis.m
    uc = unordered_cross_ratio(basis)
    assert [t.entries for t in uc] == uc_oracle(basis)
    assert size is None or len(uc) == size
    rebuilt = UnorderedCrossRatio(uc.tuples)
    assert rebuilt == uc and hash(rebuilt) == hash(uc) and len(rebuilt) == len(uc)
    assert all(t in uc for t in uc.tuples)
    rng = random.Random(case)
    shuffled = list(basis.points)
    rng.shuffle(shuffled)
    q = ProjTransform(random_invertible(rng, n))
    moved = unordered_cross_ratio(AugmentedBasis(q(p) for p in shuffled))
    assert moved == uc and hash(moved) == hash(uc)
    if n > 1:  # every n = 1 configuration is one projective class
        member = uc.tuples[len(uc) // 2]
        assert CrossRatioTuple([*member.entries[:-1], ProjPoint([1] * n)]) not in uc
        assert unordered_cross_ratio(random_augmented_basis(rng, n, m)) != uc


# --- coordinate orders -------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: configurations(n, n + 2)), st.randoms(use_true_random=False))
def test_reordered_base_moves_image_coordinates(basis, rnd):
    # the invariant both enumerations rest on: reordering a head's base by σ
    # sends every image to its compiled σ-move
    n, m = basis.n, basis.m
    *base, last, q = rnd.sample(range(m), n + 2)

    def frame(base):
        # the cofactor formula holds for a base in any order
        rows = projgeo._cofactors(basis.brackets, base, (last, q))
        return projgeo._primitive(list(map(mul, rows[q], projgeo._scale(rows[last]))))

    image = frame(base)
    assert all(image)
    assert image == basis_transform([basis.points[i] for i in (*base, last)])(basis.points[q]).ints
    for order, (get, first) in zip(permutations(range(n)), projgeo._moves(n)):
        reordered = tuple(base[j] for j in order)
        assert get(tuple(base)) == reordered
        assert frame(reordered) == projgeo._moved([image], get, first)[0]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.integers(n + 2, n + 3).flatmap(lambda m: configurations(n, m))))
def test_inline_images_are_frame_images(basis):
    # the unordered cross ratio maps each image inside its head loop, signed
    # by coordinate 0; its first move, the identity, hands the tail slots of
    # all heads, in head order, to `permutations`
    n, m = basis.n, basis.m
    slots = []

    def recording(items, *args):
        if isinstance(items, list):
            slots.append(items)
        return permutations(items, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(projgeo, "permutations", recording)
        unordered_cross_ratio(basis)
    heads = [
        ((*base, last), [q for q in rest if q != last])
        for base in combinations(range(m), n)
        for rest in [[q for q in range(m) if q not in base]]
        for last in rest
    ]
    assert len(slots[0]) == m - n - 1 and all(len(slot) == len(heads) for slot in slots[0])
    for h, (head, tail) in enumerate(heads):
        frame = basis_transform([basis.points[i] for i in head])
        for slot, q in zip(slots[0], tail):
            assert all(slot[h]) and slot[h] == frame(basis.points[q]).ints
    first = basis_transform(basis.points[: n + 1])
    assert ordered_cross_ratio(basis).entries == tuple(map(first, basis.points[n + 1 :]))


def hitting_heads(left: AugmentedBasis, right: AugmentedBasis) -> list[tuple[int, ...]]:
    """Every ordered right head whose candidate maps the right points onto the left ones."""
    n, m = left.n, left.m
    from_std = basis_transform(left.points[: n + 1]).inverse()
    heads = []
    for head in permutations(range(m), n + 1):
        candidate = from_std.compose(basis_transform([right.points[i] for i in head]))
        if {candidate(p) for p in right.points} == set(left.points):
            heads.append(head)
    return heads


def test_equivalent_symmetric_configuration_takes_least_head():
    # the harmonic configuration has 8 projective symmetries, a generic one
    # the 4 double transpositions: each is a hitting head, and the witness
    # comes from the least of them.  On 0, ∞, 1, -1, 2 some right orders hit
    # at two unordered heads, the later one with the larger ordered head
    assert len(alpha_orbit(F(2, 3))) == 3
    q = ProjTransform(random_invertible(random.Random(5), 2))
    five = [P(0, 1), P(1, 0), P(1, 1), P(1, -1), P(2, 1)]
    for points, symmetries in ((alpha_points(F(2, 3)), 8), (alpha_points(F(3)), 4), (five, 2)):
        left = AugmentedBasis(points)
        for order in permutations(range(left.m)):
            right = AugmentedBasis(q(left.points[i]) for i in order)
            hits = hitting_heads(left, right)
            assert len(hits) == symmetries
            witness = projectively_equivalent(left, right)
            assert witness.ints == equivalence_oracle(left, right).ints
            to_right = basis_transform([right.points[i] for i in min(hits)]).inverse()
            assert witness == to_right.compose(basis_transform(left.points[:3]))


def test_equivalent_screen_leaves_sign_patterns_to_the_moves(monkeypatch):
    # the screen reads sorted absolute coordinates, so it is only a necessary
    # condition: four heads of alpha -6 map to (4 : -3) or (3 : -4), which
    # pass the screen of the alpha 3 target (4 : 3), and the moves reject them
    left, right = AugmentedBasis(alpha_points(3)), AugmentedBasis(alpha_points(-6))
    moves = []
    itemgetter = projgeo.itemgetter
    monkeypatch.setattr(projgeo, "itemgetter", lambda *order: moves.append(order) or itemgetter(*order))
    assert projectively_equivalent(left, right) is None
    assert moves == [(0, 1), (1, 0)] * 4
    assert equivalence_oracle(left, right) is None
    assert projectively_equivalent(right, left) is None and equivalence_oracle(right, left) is None
    assert unordered_cross_ratio(left) != unordered_cross_ratio(right)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_one_coordinate_points(m):
    # every point of RP^0 is [1]; the move of one coordinate is `tuple`, since
    # `itemgetter` of one index returns a scalar
    basis = AugmentedBasis(P(k) for k in range(1, m + 1))
    assert [t.entries for t in unordered_cross_ratio(basis)] == [(P(1),) * (m - 2)]
    identity = ProjTransform(QMatrix([[1]]))
    assert projectively_equivalent(basis, basis) == identity
    assert projectively_equivalent(basis, AugmentedBasis(P(-k) for k in range(1, m + 1))) == identity


# --- brackets ----------------------------------------------------------------------


@settings(max_examples=60)
@given(st.integers(2, 3).flatmap(lambda n: st.lists(coordinates(n), min_size=n + 1, max_size=n + 3)))
def test_brackets_are_minors_and_decide_general_position(coords):
    points = [ProjPoint(c) for c in coords]
    n = points[0].n
    minors = {
        sum(1 << i for i in subset): exactq.det(QMatrix([points[i].ints for i in subset]))
        for subset in combinations(range(len(points)), n)
    }
    assert exactq.maximal_minors([p.ints for p in points]) == minors
    if len(points) >= n + 2:
        if all(minors.values()):
            assert AugmentedBasis(points).brackets == minors
        else:
            with pytest.raises(NotAugmentedBasisError):
                AugmentedBasis(points)


def test_brackets_are_read_only_and_survive_copy_and_pickle():
    # on the (2,5) basis below, a written bracket took the UC from 60 to 114 tuples
    basis = AugmentedBasis([P(1, 0), P(0, 1), P(1, 1), P(1, 2), P(1, 3)])
    table = dict(basis.brackets)
    with pytest.raises(TypeError):
        basis.brackets[0b00011] = 5
    with pytest.raises(AttributeError):
        basis.brackets.clear()
    assert basis.brackets == table and len(unordered_cross_ratio(basis)) == 60
    for twin in (copy.copy(basis), copy.deepcopy(basis), pickle.loads(pickle.dumps(basis))):
        assert twin == basis and twin.brackets == table
        with pytest.raises(TypeError):
            twin.brackets[0b00011] = 5


# --- work counters -------------------------------------------------------------------


@pytest.fixture
def work(monkeypatch):
    """One entry per unit of work, in call order: "frame" per call to
    `projgeo.basis_transform`, "base" per cofactor table read off the
    brackets (`projgeo._cofactors`), "head" per head mapped from such a table
    (its Cramer factors, `projgeo._scale`), "elim" per fraction-free elimination."""
    calls = []
    for module, name, label in (
        (projgeo, "basis_transform", "frame"),
        (projgeo, "_cofactors", "base"),
        (projgeo, "_scale", "head"),
        (exactq, "_fraction_free_echelon", "elim"),
    ):
        def counting(*args, _original=getattr(module, name), _label=label, **kwargs):
            calls.append(_label)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


class CountingDict(dict):
    """A bracket table that counts its lookups."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("n,m", [(2, 4), (2, 6), (3, 5), (3, 7), (4, 6), (4, 7), (5, 7)])
def test_basis_computes_each_bracket_once(work, monkeypatch, n, m):
    # one table of every bracket: a Laplace pass that eliminates nothing or,
    # where its middle levels would outgrow the table (2n > m + 1), one
    # elimination per bracket
    points = random_augmented_basis(random.Random(n * 10 + m), n, m).points
    tables = []
    original = exactq.maximal_minors
    monkeypatch.setattr(exactq, "maximal_minors", lambda rows: tables.append(len(rows)) or original(rows))
    work.clear()
    basis = AugmentedBasis(points)
    assert work == ([] if 2 * n <= m + 1 else ["elim"] * comb(m, n))
    assert tables == [m]
    assert len(basis.brackets) == comb(m, n)


@pytest.mark.parametrize("n,m", [(2, 4), (2, 5), (3, 5), (3, 6), (4, 6)])
def test_uc_tries_every_ordered_head_once(work, n, m):
    basis = random_augmented_basis(random.Random(n * 10 + m), n, m)
    brackets = CountingDict(basis.brackets)
    object.__setattr__(basis, "brackets", brackets)
    work.clear()
    uc = unordered_cross_ratio(basis)
    # one cofactor table per sorted base, of m - n rows of n lookups, and one
    # head per (sorted base, last point) mapped from it: no frame is built
    # and no elimination runs; the n! base orders permute coordinates
    assert work == (["base"] + ["head"] * (m - n)) * comb(m, n)
    assert brackets.reads == comb(m, n) * (m - n) * n
    assert [t.entries for t in uc] == uc_oracle(basis)


def test_equivalent_negative_tries_every_head(work):
    # the first left head, then each unordered right head (sorted base, last
    # point) once: its base orders only reorder the image coordinates
    left, right = AugmentedBasis(alpha_points(3)), AugmentedBasis(alpha_points(5))
    work.clear()
    assert projectively_equivalent(left, right) is None
    assert work == ["base", "head"] + (["base"] + ["head"] * (4 - 2)) * comb(4, 2)


def test_equivalent_identity_stops_at_first_head(work):
    basis = AugmentedBasis(alpha_points(3))
    work.clear()
    assert projectively_equivalent(basis, basis) is not None
    # two heads by lookups; the two frames of the witness are built at the hit
    assert work[:4] == ["base", "head", "base", "head"]
    assert work[4:].count("frame") == 2 and {"base", "head"}.isdisjoint(work[4:])


@pytest.mark.parametrize("n", [9, 10])
def test_equivalent_order_preserving_pair_is_bounded_in_n(work, monkeypatch, n):
    # a transformed copy in the same point order hits at the first head and
    # its first coordinate order: two heads mapped and one move built, not n!
    rng = random.Random(n)
    left = random_augmented_basis(rng, n, n + 2)
    q = ProjTransform(random_invertible(rng, n))
    moves = []
    itemgetter = projgeo.itemgetter
    monkeypatch.setattr(projgeo, "itemgetter", lambda *order: moves.append(order) or itemgetter(*order))
    for right in (left, AugmentedBasis(q(p) for p in left.points)):
        work.clear()
        moves.clear()
        witness = projectively_equivalent(left, right)
        assert witness == (q if right is not left else ProjTransform(identity_oracle(n)))
        assert work.count("base") == work.count("head") == 2 and moves == [tuple(range(n))]
