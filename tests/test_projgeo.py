import copy
import hashlib
import pickle
import random
import subprocess
import sys
import time
import traceback
import tracemalloc
from fractions import Fraction as F
from itertools import combinations, permutations
from math import comb, factorial, gcd

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
from cartanlim.limits import SeedMatrix, alpha_orbit

from util import (
    basis_transform_oracle,
    canonical_coords_oracle,
    canonical_matrix_oracle,
    child_env,
    equivalence_oracle,
    general_position_oracle,
    identity_oracle,
    matvec_oracle,
    ordered_keys,
    random_augmented_basis,
    random_invertible,
    scale_oracle,
    transform_inverse_oracle,
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
    assert ta.compose(ProjTransform(exactq.inverse(a))) == ProjTransform(identity_oracle(a.nrows))
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
    rhs = basis_transform(pts).compose(transform_inverse_oracle(q0))
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


def test_random_augmented_basis_refuses_rp0_at_once():
    # every point of RP^0 is [1]: a draw of m >= 2 distinct points would never
    # end, so n = 1 is refused before any point is drawn
    for m in (1, 2, 5):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            random_augmented_basis(random.Random(m), 1, m)
        assert time.perf_counter() - start < 0.1


def test_uc_membership():
    uc = unordered_cross_ratio(random_augmented_basis(random.Random(11), 3, 6))
    assert all(t in uc for t in uc.tuples)
    member = uc.tuples[len(uc) // 2]
    assert tuple(member) in uc
    near_miss = CrossRatioTuple([*member.entries[:-1], P(1, 1, 1)])
    assert near_miss != member and near_miss not in uc
    assert ("not", "points") not in uc


def test_uc_membership_of_other_operands():
    # an operand that is not a tuple of points is not a member, iterable or not
    uc = unordered_cross_ratio(alpha_points(3))
    for operand in (None, 5, P(1, 2), "ab", ()):
        assert operand not in uc
    member = uc.tuples[0]
    assert member in uc and tuple(member) in uc and list(member) in uc


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
    "n1_m5": (lambda: [P(k) for k in (1, -2, 3, 5, -7)], 1),
    "one_tail_column_4x6": (lambda: random_augmented_basis(random.Random(46), 4, 6).points, None),
    "one_tail_column_5x7": (lambda: random_augmented_basis(random.Random(57), 5, 7).points, None),
    "four_tail_columns_2x7": (lambda: random_augmented_basis(random.Random(27), 2, 7).points, None),
    "harmonic_2x4": (lambda: alpha_points(-1), 6),
    "symmetric_2x6": (lambda: [P(0, 1), *(P(1, x) for x in (0, 1, -1, 2, -2))], 180),
}


# SHA-256 of repr(sorted(ordered_keys(uc))) for random_augmented_basis(Random(10n + m), n, m):
# the full key set of every ordered tuple, as the value kept it before it kept one
# key per tail orbit; recorded from the per-image enumeration that preceded the
# gather plan, and (2,8), (3,8) from the column enumeration of every tail order
KEY_SET_DIGESTS = {
    (2, 4): "8d2bb926a8932ce941d7b37cabd4fa8b31887b6f93e1507cb002e0dcb9b28ede",
    (2, 5): "14581aa94a643f57b3d9f203c610f3a7e516348e7f1ac7c436554279f5e93ec3",
    (2, 6): "ac22d1529f773123169738c122b9d8353db7de64a6400a43dcf36c2cbb2db546",
    (3, 5): "db8a226e0fc73adc96028d91bd590636e38c769974155f5bbd05e9bf8ce7a282",
    (3, 6): "3ffdb00f013e3dfb1fae43babcf2134f00621f0f4084e7baff3d3e5f1bb96b82",
    (2, 7): "eb3c0468edae067baa0ec4fc4b6a520f7a19b2838e29c45e37cd4485b2716764",
    (3, 7): "8fca3c632fdf234b739a942d66b8188f70b792120145773cf788ff7cee614e20",
    (4, 7): "6930a9782a1814a1922d8622fed829099e7b6879720972af18821f9655f42f0f",
    (2, 8): "b993a7bb0bd897ac5d4ee92604fa9696cf03a8362d1584a786e79a99e424fcec",
    (3, 8): "397336454c20cedef78ee8ac80f661fa41408aa891ec92974a1726455c3e76ac",
}


@pytest.mark.parametrize("n,m", sorted(KEY_SET_DIGESTS))
def test_uc_key_sets_are_pinned(n, m):
    # the same full key sets, so the same values, equality and `tuples`
    uc = unordered_cross_ratio(random_augmented_basis(random.Random(n * 10 + m), n, m))
    assert hashlib.sha256(repr(sorted(ordered_keys(uc))).encode()).hexdigest() == KEY_SET_DIGESTS[n, m]


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_uc_edge_shapes(case):
    build, size = EDGE_CASES[case]
    basis = AugmentedBasis(build())
    n, m = basis.n, basis.m
    uc = unordered_cross_ratio(basis)
    assert [t.entries for t in uc] == uc_oracle(basis)
    assert ordered_keys(uc) == {tuple(p.ints for p in t) for t in uc_oracle(basis)}
    assert len(uc) == len(ordered_keys(uc)) and (size is None or len(uc) == size)
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


class PickledBeforeTailOrbits:
    """Pickles as an unordered cross ratio did when it kept every ordered tuple's key."""

    def __init__(self, keys):
        self.keys = keys

    def __reduce__(self):
        return UnorderedCrossRatio._from_keys, (self.keys,)


@pytest.mark.parametrize("n,m", [(2, 5), (2, 6), (3, 6), (2, 7), (3, 7), (4, 7)])
def test_uc_keeps_one_key_per_tail_orbit(n, m):
    # for n >= 2 the tail points of a tuple are distinct, so each kept key,
    # its tail sorted, stands for (m - n - 1)! tuples, and no two keys share one
    rng = random.Random(n * 100 + m)
    basis = random_augmented_basis(rng, n, m)
    uc = unordered_cross_ratio(basis)
    full = ordered_keys(uc)
    assert all(list(key) == sorted(key) for key in uc._keys)
    assert len(uc) == len(uc._keys) * factorial(m - n - 1) == len(full) == len(uc.tuples)
    assert {tuple(p.ints for p in t) for t in uc.tuples} == full
    # every tail order of a member is a member; the image of a head's last
    # point, [1 : ... : 1], is never a tail image
    member = uc.tuples[rng.randrange(len(uc))]
    near_miss = [*member.entries[:-1], ProjPoint([1] * n)]
    for order, missed in zip(permutations(member.entries), permutations(near_miss)):
        assert order in uc and CrossRatioTuple(order) in uc
        assert missed not in uc and CrossRatioTuple(missed) not in uc
    # a relabelled, transformed copy has the same keys
    q = ProjTransform(random_invertible(rng, n))
    moved = unordered_cross_ratio(AugmentedBasis(q(p) for p in rng.sample(basis.points, m)))
    assert moved == uc and hash(moved) == hash(uc) and moved._keys == uc._keys
    # copies, pickles (also one made when the value kept every ordered key)
    # and the public constructor give the same value
    old = pickle.loads(pickle.dumps(PickledBeforeTailOrbits(frozenset(full))))
    for clone in (copy.copy(uc), copy.deepcopy(uc), pickle.loads(pickle.dumps(uc)), old, UnorderedCrossRatio(uc.tuples)):
        assert type(clone) is UnorderedCrossRatio and clone == uc and hash(clone) == hash(uc)
        assert clone._keys == uc._keys and len(clone) == len(uc) and clone.tuples == uc.tuples
    # the public constructor refuses a set that is not closed under reordering
    with pytest.raises(SizeMismatchError):
        UnorderedCrossRatio(uc.tuples[1:])


def test_uc_constructor_refuses_what_is_not_every_order():
    # a tuple with a repeated point (n >= 2) has fewer orders than its
    # length allows, and no cross ratio holds one; tuples of two lengths are
    # not one cross ratio either.  In RP^0 every point is [1]: one tuple
    # stands for itself
    a, b, c = P(1, 2), P(1, 3), P(2, 5)
    assert len(UnorderedCrossRatio([(a, b), (b, a)])) == 2
    for tuples in ([(a, b)], [(a, a)], [(a, b), (b, a), (c,)], [(a, b, c)]):
        with pytest.raises(SizeMismatchError):
            UnorderedCrossRatio(tuples)
    assert len(UnorderedCrossRatio([(P(1), P(1), P(1))])) == 1 == len(UnorderedCrossRatio([()]))
    with pytest.raises(ZeroVectorError):
        UnorderedCrossRatio([])


# --- coordinate orders -------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: configurations(n, n + 2)), st.randoms(use_true_random=False))
def test_reordered_base_moves_image_coordinates(basis, rnd):
    # the invariant both enumerations rest on: reordering a head's base by σ
    # sends every image to its compiled σ-move
    n, m = basis.n, basis.m
    *base, last, q = rnd.sample(range(m), n + 2)

    def frame(base):
        # the cofactor formula holds for a base in any order: the image of q
        # (entry 1) under the head with last at entry 0
        return projgeo._images(projgeo._cofactors(basis.brackets, base, (last, q)), 0, [1])[0]

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
    # the unordered cross ratio maps each image inside its head loop and
    # hands the tail slots of every base order to one `_sorted_tails` call:
    # per order, in lexicographic order, all heads in head order, each image
    # the frame image of the head with its base in that order
    n, m = basis.n, basis.m
    slots = []
    sorted_tails = projgeo._sorted_tails

    def recording(columns):
        slots.append(columns)
        return sorted_tails(columns)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(projgeo, "_sorted_tails", recording)
        unordered_cross_ratio(basis)
    heads = [
        ((*base, last), [q for q in rest if q != last])
        for base in combinations(range(m), n)
        for rest in [[q for q in range(m) if q not in base]]
        for last in rest
    ]
    assert len(slots) == 1 and len(slots[0]) == m - n - 1
    assert all(len(slot) == len(heads) * factorial(n) for slot in slots[0])
    images = iter(zip(*slots[0]))
    for order in permutations(range(n)):
        for (*base, last), tail in heads:
            frame = basis_transform([basis.points[i] for i in [*(base[j] for j in order), last]])
            for image, q in zip(next(images), tail):
                assert all(image) and image == frame(basis.points[q]).ints
    first = basis_transform(basis.points[: n + 1])
    assert ordered_cross_ratio(basis).entries == tuple(map(first, basis.points[n + 1 :]))


def hitting_heads(left: AugmentedBasis, right: AugmentedBasis) -> list[tuple[int, ...]]:
    """Every ordered right head whose candidate maps the right points onto the left ones."""
    n, m = left.n, left.m
    from_std = transform_inverse_oracle(basis_transform(left.points[: n + 1]))
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
            to_right = transform_inverse_oracle(basis_transform([right.points[i] for i in min(hits)]))
            assert witness == to_right.compose(basis_transform(left.points[:3]))


def test_equivalent_symmetric_configuration_of_twelve_takes_least_head():
    # e1, e2, e3, (1,1,1), (1,2,3), (2,1,3) has 12 projective symmetries, so
    # every right order has 12 hitting heads; the witness is the least one's
    left = AugmentedBasis(P(*c) for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (2, 1, 3)))
    assert len(hitting_heads(left, left)) == 12
    rng = random.Random(12)
    q = ProjTransform(random_invertible(rng, 3))
    for _ in range(30):
        order = rng.sample(range(left.m), left.m)
        right = AugmentedBasis(q(left.points[i]) for i in order)
        hits = hitting_heads(left, right)
        assert len(hits) == 12
        witness = projectively_equivalent(left, right)
        assert witness.ints == equivalence_oracle(left, right).ints
        to_right = transform_inverse_oracle(basis_transform([right.points[i] for i in min(hits)]))
        assert witness == to_right.compose(basis_transform(left.points[:4]))


@pytest.mark.parametrize("n,m", [(2, 10), (3, 9)])
def test_equivalent_matches_oracle_above_the_cross_ratio_cap(n, m):
    # the search has no cap: shuffled positive pairs and negative pairs, both ways round
    rng = random.Random(n * 100 + m)
    for _ in range(2):
        left = random_augmented_basis(rng, n, m)
        q = ProjTransform(random_invertible(rng, n))
        shuffled = rng.sample(left.points, m)
        positive, negative = AugmentedBasis(q(p) for p in shuffled), random_augmented_basis(rng, n, m)
        for pair in ((left, positive), (positive, left), (left, negative), (negative, left)):
            got, want = projectively_equivalent(*pair), equivalence_oracle(*pair)
            assert (got is None) == (want is None) == (negative in pair)
            assert got is None or got.ints == want.ints
    with pytest.raises(CapExceededError):
        unordered_cross_ratio(left)


def test_equivalent_screen_leaves_sign_patterns_to_the_moves(monkeypatch):
    # the screen reads sorted absolute coordinates, so it is only a necessary
    # condition: four heads of alpha -6 map to (4 : -3) or (3 : -4), which
    # pass the screen of the alpha 3 target (4 : 3), and the moves reject them
    left, right = AugmentedBasis(alpha_points(3)), AugmentedBasis(alpha_points(-6))
    projgeo._plan(right.m, right.n)  # built before the count, so only moves call `itemgetter`
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
    uc = unordered_cross_ratio(basis)
    assert [t.entries for t in uc] == [(P(1),) * (m - 2)] and len(uc) == 1
    identity = ProjTransform(QMatrix([[1]]))
    for right in (basis, AugmentedBasis(P(-k) for k in range(1, m + 1))):
        assert projectively_equivalent(basis, right) == identity == equivalence_oracle(basis, right)
    # every pair hits at the least head, so the column screen and the tail
    # map of a passing head are checked on their own: each head's first
    # image, and every image of its tail, is the one point [1]
    cofactors, columns = projgeo._columns(basis, projgeo._plan(m, 1)[2])
    assert len(columns) == 1 and len(columns[0]) == m * (m - 1) and all(columns[0])
    r = m - 1
    for h in range(m * r):
        tail = [e for e in range(h - h % r, h - h % r + r) if e != h]
        assert projgeo._images(cofactors, h, tail) == [(1,)] * (m - 2)


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


def test_bracket_budget_is_checked_before_any_minor(monkeypatch):
    # C(14, 7) = 3432 brackets are within the budget, C(15, 7) = 6435 are not:
    # a basis or a seed past it is refused before its table is computed
    assert comb(14, 7) <= projgeo.MAX_BRACKETS < comb(15, 7)
    tables = []
    original = exactq.maximal_minors
    monkeypatch.setattr(exactq, "maximal_minors", lambda rows: tables.append(len(rows)) or original(rows))
    rows = [[(i + 1) ** j for j in range(7)] for i in range(15)]
    with pytest.raises(CapExceededError, match=r"^C\(15, 7\) brackets exceed the budget of 4000$"):
        AugmentedBasis(ProjPoint(row) for row in rows)
    with pytest.raises(CapExceededError):
        SeedMatrix(rows).generic
    assert tables == []
    assert len(AugmentedBasis(ProjPoint(row) for row in rows[:14]).brackets) == comb(14, 7)
    assert SeedMatrix(rows[:14]).generic and tables == [14, 14]


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
    `projgeo.basis_transform`, "base" per cofactor table read off a basis's
    brackets (`projgeo._cofactors`; a plan compile, which reads bracket
    positions through it, is not one), "head" per head whose images are
    mapped by Cramer's rule (`projgeo._images`), "elim" per run of the
    elimination kernel (`exactq._eliminate`)."""
    calls = []
    plan = projgeo._plan.__wrapped__.__code__
    for module, name, label in (
        (projgeo, "basis_transform", "frame"),
        (projgeo, "_cofactors", "base"),
        (projgeo, "_images", "head"),
        (exactq, "_eliminate", "elim"),
    ):
        def counting(*args, _original=getattr(module, name), _label=label, **kwargs):
            if not any(frame.f_code is plan for frame, _ in traceback.walk_stack(None)):
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
    # every unordered head (sorted base, last point) is mapped in whole
    # columns from the shape's gather plan, built at the first call of the
    # shape and reused after it.  A call reads each of the C(m, n) brackets
    # once, builds no cofactor table, Cramer scale or frame and runs no
    # elimination; the n! base orders permute columns
    projgeo._plan.cache_clear()
    rng = random.Random(n * 10 + m)
    for _ in range(2):
        basis = random_augmented_basis(rng, n, m)
        brackets = CountingDict(basis.brackets)
        object.__setattr__(basis, "brackets", brackets)
        work.clear()
        uc = unordered_cross_ratio(basis)
        assert work == [] and brackets.reads == comb(m, n)
        assert projgeo._plan.cache_info().misses == 1
        assert [t.entries for t in uc] == uc_oracle(basis)


def test_uc_plans_are_built_on_first_use():
    # importing the package builds no plan; two bases of one shape build one
    # of each; the equivalence search builds the head plan of its shape, not
    # the per-image one
    code = (
        "from cartanlim import cli, projgeo; from cartanlim.projgeo import ProjPoint, AugmentedBasis;"
        "plans = projgeo._plan, projgeo._image_plan; print(*(p.cache_info().currsize for p in plans));"
        "[projgeo.unordered_cross_ratio(ProjPoint([1, x]) for x in xs) for xs in ((0, 1, 2, 3), (0, 1, 2, 5))];"
        "print(projgeo._image_plan.cache_info());"
        "pair = [AugmentedBasis(ProjPoint([1, x]) for x in xs) for xs in ((0, 1, 2, 3, 4), (0, 1, 2, 3, 5))];"
        "print(projgeo.projectively_equivalent(*pair)); print(*(p.cache_info().currsize for p in plans));"
        "print(projgeo._plan.cache_info())"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, encoding="utf-8", timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "0 0"
    assert lines[1] == "CacheInfo(hits=1, misses=1, maxsize=32, currsize=1)"
    assert lines[2:4] == ["None", "2 1"]
    assert lines[-1] == "CacheInfo(hits=2, misses=2, maxsize=32, currsize=2)"


def test_equivalent_keeps_no_image_sized_state():
    # the search has no cap, and its plan and lists grow with the C(m, n)(m - n)
    # heads, not with the images, (m - n - 1) times as many: on a (2,20)
    # negative pair the head plan it builds and keeps stays under 1 MB
    rng = random.Random(20)
    left, right = random_augmented_basis(rng, 2, 20), random_augmented_basis(rng, 2, 20)
    projgeo._plan.cache_clear()
    projgeo._image_plan.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert projectively_equivalent(left, right) is None
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1_000_000
    assert projgeo._plan.cache_info().currsize == 1 and projgeo._image_plan.cache_info().currsize == 0


def test_equivalent_negative_tries_every_head(work):
    # the two ordered cross ratios (the first head of each side), then every
    # unordered right head (sorted base, last point) is screened in whole
    # columns by its first image, with no table per base; only a head that
    # passes is mapped further (four heads of alpha -6 do, see below), and no
    # frame is built
    left = AugmentedBasis(alpha_points(3))
    for alpha, passing in ((5, 0), (-6, 4)):
        right = AugmentedBasis(alpha_points(alpha))
        target = {p.ints for p in ordered_cross_ratio(left)}
        screen = {tuple(sorted(map(abs, k))) for k in target}
        heads = [(*base, last) for base in combinations(range(4), 2) for last in range(4) if last not in base]
        firsts = [next(q for q in range(4) if q not in head) for head in heads]
        frames = [basis_transform([right.points[i] for i in head]) for head in heads]
        images = [frame(right.points[q]).ints for frame, q in zip(frames, firsts)]
        assert sum(tuple(sorted(map(abs, image))) in screen for image in images) == passing
        work.clear()
        assert projectively_equivalent(left, right) is None
        assert work == ["base", "head", "base", "head"] + ["head"] * passing


def test_equivalent_identity_stops_at_first_head(work):
    basis = AugmentedBasis(alpha_points(3))
    work.clear()
    assert projectively_equivalent(basis, basis) is not None
    # the two ordered cross ratios agree, so the least head hits; the witness
    # is one frame, the left one, and one elimination
    assert work == ["base", "head", "base", "head", "frame", "elim"]


@pytest.mark.parametrize("n", [9, 10])
def test_equivalent_order_preserving_pair_is_bounded_in_n(work, monkeypatch, n):
    # a transformed copy in the same point order hits at the least head,
    # found from the two ordered cross ratios: two heads mapped, no move
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
        assert work.count("base") == work.count("head") == 2 and moves == []
        assert work.count("frame") == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_witness_sign_under_every_base_order(work, monkeypatch, n):
    # the witness reads its Cramer factors off the hit's cofactor columns, up
    # to a sign common to all of them; right is q(left) with the first n points
    # reordered by σ.  At σ = id the least head decides, with no move; every
    # other σ is found through a base-order move of the sorted head 0..n
    rng = random.Random(34 + n)
    left = random_augmented_basis(rng, n, n + 3)
    q = ProjTransform(random_invertible(rng, n))
    projgeo._plan(left.m, n)  # built before the count, so only moves call `itemgetter`
    moves = []
    itemgetter = projgeo.itemgetter
    monkeypatch.setattr(projgeo, "itemgetter", lambda *order: moves.append(order) or itemgetter(*order))
    for sigma in permutations(range(n)):
        right = AugmentedBasis(q(p) for p in [*(left.points[i] for i in sigma), *left.points[n:]])
        work.clear()
        moves.clear()
        witness = projectively_equivalent(left, right)
        if sigma == tuple(range(n)):
            assert work == ["base", "head", "base", "head", "frame", "elim"] and moves == []
        else:
            assert work.count("head") > 2 and moves
        assert witness == q and witness.ints == equivalence_oracle(left, right).ints


def test_basis_transform_of_no_points_is_a_dimension_mismatch():
    # as a wrong point count is; it raised a bare IndexError
    with pytest.raises(DimensionMismatchError, match=r"^points need one common coordinate count, got \[\]$"):
        basis_transform([])
    with pytest.raises(DimensionMismatchError, match=r"^expected 3 points, got 2$"):
        basis_transform([P(1, 0), P(0, 1)])
    with pytest.raises(DimensionMismatchError, match=r"got \[2, 3\]$"):
        basis_transform([P(1, 0), P(0, 1, 0), P(1, 1)])


@pytest.mark.parametrize("make", [ProjPoint, lambda row: QMatrix([row, [3, 4]]), lambda row: SeedMatrix([[3, 4], row])])
def test_text_is_not_read_as_a_vector(make):
    # a str or bytes was read one character at a time: ProjPoint("12") was
    # [1 : 2], ProjPoint(b"12") [1 : 50/49], QMatrix(["12", "34"]) [[1, 2], [3, 4]]
    for text in ("12", b"12", bytearray(b"12")):
        with pytest.raises(TypeError):
            make(text)
    assert make(["1", "2"]) == make([1, 2])
    with pytest.raises(TypeError):
        make([0.5, 1])
    with pytest.raises(TypeError):
        QMatrix(iter(["12", "34"]))
    with pytest.raises(TypeError):
        SeedMatrix("12")
