import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanlim.errors import SampleCapExceededError, UnknownNameError
from cartanlim.exactq import QMatrix, rank
from cartanlim.limits import GroupElementParams, SeedMatrix, alpha_seed, rho
from cartanlim.obstruct import (
    LinearBlockFamily,
    Poly,
    PolyParamGroup,
    _unipotent_group_from_block,
    builtin_block_family,
    builtin_group,
    flag_tier_profile,
    flatness_check,
    has_tier_one_element,
    replay_certificate,
    tier,
)
from util import flag_tier_profile_oracle, tier_oracle

E_VARS = "abcdefg"


# --- polynomials -------------------------------------------------------------


def test_poly_evaluate():
    p = Poly(2, {(2, 0): F(1, 2), (0, 1): F(3)})
    assert p.evaluate([F(4), F(1)]) == 11
    assert p.max_degrees() == (2, 1)
    assert Poly.constant(5, 3).evaluate([F(1), F(2), F(3)]) == 5


def test_poly_drops_zero_terms():
    p = Poly(1, {(1,): F(0)})
    assert p.terms == {}


# --- builtin families -----------------------------------------------------------


def test_m5_entries():
    g = builtin_group("M5")
    got = g.evaluate([2, 0, 0, 0])
    assert got.rows[0] == (F(1), F(2), F(0), F(2), F(0))  # a and a^2/2 entries
    assert got.rows[1][3] == 2
    full = g.evaluate([F(1), F(2), F(3), F(4)])
    assert full.rows[0] == (F(1), F(1), F(0), F(1, 2), F(2))
    assert full.rows[2] == (F(0), F(0), F(1), F(3), F(4))


def test_m6_entries():
    g = builtin_group("M6")
    got = g.evaluate([F(3), F(1), F(2), F(4), F(5)])
    assert got.rows[0] == (F(1), F(3), F(9, 2), F(0), F(1), F(2))
    assert got.rows[1][2] == 3
    assert got.rows[3] == (F(0), F(0), F(0), F(1), F(4), F(5))


def test_e_entries():
    g = builtin_group("E")
    assert g.evaluate([0] * 7) == QMatrix.identity(8)
    got = g.evaluate([1, 0, 0, 0, 0, 0, 0])
    assert got.rows[2][5] == 1 and got.rows[3][4] == 1  # the two a-slots
    assert sum(1 for row in got.rows for x in row if x != 0) == 8 + 2


def test_builtin_group_law_checked():
    # constructors run the additivity check; these must all construct
    for name in ("M5", "M6", "E"):
        builtin_group(name)
    builtin_group("LT", alpha_seed(3))
    with pytest.raises(UnknownNameError):
        builtin_group("M7")
    with pytest.raises(ValueError):
        builtin_group("LT")


def test_nonadditive_family_rejected():
    bad = [[Poly.constant(1, 1), Poly.monomial(1, (2,), 1)], [Poly.constant(0, 1), Poly.constant(1, 1)]]
    with pytest.raises(ValueError):
        PolyParamGroup(1, 2, bad)
    PolyParamGroup(1, 2, bad, check=False)  # flatness machinery may still use it


def test_degree_limit_and_additivity_sample_both_reject():
    x = Poly.variable(0, 1)
    zero, one = Poly.constant(0, 1), Poly.constant(1, 1)
    # x^3 in a 3 x 3 family: exp of a nilpotent 3 x 3 matrix has degree at most 2
    with pytest.raises(ValueError, match="total degree 3"):
        PolyParamGroup(1, 3, [[one, zero, Poly.monomial(1, (3,), 1)], [zero, one, zero], [zero, zero, one]])
    # degree 1 but not additive: rho(u)rho(v) has the entry uv in the corner
    with pytest.raises(ValueError, match="not additive"):
        PolyParamGroup(1, 3, [[one, x, zero], [zero, one, x], [zero, zero, one]])
    # the additive family exp(xN) with N the 3 x 3 shift reaches degree 2
    half_square = Poly.monomial(F(1, 2), (2,), 1)
    PolyParamGroup(1, 3, [[one, x, half_square], [zero, one, x], [zero, zero, one]])


def test_lt_group_matches_rho():
    from cartanlim.limits import GroupElementParams, rho

    t = alpha_seed(3)
    g = builtin_group("LT", t)
    p = GroupElementParams.make([1, 2, 3, 4], [5, 6])
    assert g.evaluate([1, 2, 3, 4, 5, 6]) == rho(t, p)


# --- flatness ------------------------------------------------------------------


def test_flatness_verdicts():
    assert flatness_check(builtin_group("LT", alpha_seed(3))).verdict == "Flat"
    m5 = flatness_check(builtin_group("M5"))
    assert m5.verdict == "NotFlat" and m5.hull_dim == 5 and m5.dim_params == 4
    m6 = flatness_check(builtin_group("M6"))
    assert m6.verdict == "NotFlat" and m6.hull_dim == 6 and m6.dim_params == 5
    assert flatness_check(builtin_group("E")).verdict == "Flat"


def test_flatness_witness_sample_is_affinely_independent():
    report = flatness_check(builtin_group("M5"))
    assert len(report.witness_params) == report.hull_dim + 1


def test_quadratic_coordinate_flips_flatness():
    # degree-one entries are flat; adding one quadratic coordinate is not
    linear = [
        [Poly.constant(1, 2), Poly.variable(0, 2), Poly.variable(1, 2)],
        [Poly.constant(0, 2), Poly.constant(1, 2), Poly.constant(0, 2)],
        [Poly.constant(0, 2), Poly.constant(0, 2), Poly.constant(1, 2)],
    ]
    flat = PolyParamGroup(2, 3, linear, check=False)
    assert flatness_check(flat).verdict == "Flat"
    curved = [row[:] for row in linear]
    curved[1][2] = Poly.monomial(F(1, 2), (2, 0), 2)
    bent = PolyParamGroup(2, 3, curved, check=False)
    assert flatness_check(bent).verdict == "NotFlat"


def test_flatness_cap():
    with pytest.raises(SampleCapExceededError):
        flatness_check(builtin_group("E"), cap=100)


# --- tier ------------------------------------------------------------------------


def test_tier_values():
    t = alpha_seed(3)
    lt = tier(builtin_group("LT", t))
    assert lt.tier == 2  # block rank tops out at n
    assert rank(builtin_group("LT", t).evaluate(lt.witness) - QMatrix.identity(7)) == 2
    assert tier(builtin_group("E")).tier == 4
    assert tier(builtin_group("M5")).tier == 3


def test_tier_one_parameter_family():
    one = tier(builtin_group("LT", SeedMatrix([[1]])))
    assert one.tier == 1


def test_tier_monotone_on_coordinate_flags():
    # restricting to the first i parameters can only lower the sampled tier
    g = builtin_group("E")
    tiers = []
    for i in range(1, g.dim_params + 1):
        rng = random.Random(40 + i)
        best = 0
        for _ in range(25):
            v = [F(rng.randint(-4, 4)) if j < i else F(0) for j in range(g.dim_params)]
            best = max(best, rank(g.evaluate(v) - QMatrix.identity(g.ambient)))
        tiers.append(best)
    assert tiers == sorted(tiers)
    assert tiers[-1] <= tier(g).tier


@pytest.mark.parametrize(
    "name, seed, count",
    [("M5", None, 10), ("M6", None, 18), ("E", None, 24), ("LT", alpha_seed(3), 6), ("LT", SeedMatrix([[1]]), 2)],
    ids=["M5", "M6", "E", "LT3", "LT1"],
)
def test_tier_stops_at_the_rank_bound_with_the_full_walk_report(monkeypatch, name, seed, count):
    group = builtin_group(name, seed)
    expected = tier_oracle(group)
    calls = []
    evaluate = PolyParamGroup.evaluate
    monkeypatch.setattr(PolyParamGroup, "evaluate", lambda self, point: calls.append(point) or evaluate(self, point))
    assert tier(group) == expected
    assert len(calls) == count


@st.composite
def block_groups(draw):
    p, q, d = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    entry = st.integers(-1, 1)
    mats = draw(st.lists(
        st.lists(st.lists(entry, min_size=q, max_size=q), min_size=p, max_size=p), min_size=d, max_size=d
    ))
    return _unipotent_group_from_block(LinearBlockFamily([QMatrix(m) for m in mats]))


@settings(max_examples=40, deadline=None)
@given(block_groups())
def test_tier_equals_the_full_walk_on_linear_blocks(group):
    assert tier(group) == tier_oracle(group)


# --- rank-one directions -------------------------------------------------------------


def test_e_block_has_no_rank_one_direction():
    family = builtin_block_family("E")
    result = has_tier_one_element(family)
    assert result.kind == "No"
    assert result.certificate is not None
    forced = [step["forced"] for step in result.certificate if step["kind"] == "minor"]
    assert len(forced) == 7 and set(forced) == set(range(7))
    assert E_VARS[forced[0]] == "c"  # the chain starts at the upper-left minor
    assert replay_certificate(family, result.certificate)


def test_certificate_replay_rejects_tampering():
    family = builtin_block_family("E")
    result = has_tier_one_element(family)
    broken = [dict(step) for step in result.certificate]
    broken[0]["forced"] = (broken[0]["forced"] + 1) % 7
    assert not replay_certificate(family, broken)
    assert not replay_certificate(family, result.certificate[1:])


def test_lt_block_has_rank_one_direction():
    family = builtin_block_family("LT", alpha_seed(3))
    result = has_tier_one_element(family)
    assert result.kind == "Witness"
    assert rank(family.block(result.witness)) == 1
    # the first unit direction scales a single seed row
    assert result.witness == tuple(F(int(i == 0)) for i in range(6))


def test_single_elementary_family_witness():
    family = LinearBlockFamily([QMatrix([[1, 0], [0, 0]])])
    result = has_tier_one_element(family)
    assert result.kind == "Witness"
    assert result.witness == (F(1),)


def test_rotation_like_family_is_undecided():
    # det = a^2 + b^2 never vanishes away from zero, so there is no rank-one
    # direction, but the minors never reduce to a single monomial either
    family = LinearBlockFamily(
        [QMatrix([[1, 0], [0, 1]]), QMatrix([[0, 1], [-1, 0]])]
    )
    result = has_tier_one_element(family, random_samples=50)
    assert result.kind == "Undecided"


def test_dependent_coefficients_are_reduced():
    family = LinearBlockFamily(
        [QMatrix([[1, 0]]), QMatrix([[2, 0]]), QMatrix([[0, 1]])]
    )
    assert family.dim_params == 2
    assert family.reduced_from == 3


# --- tier flags -----------------------------------------------------------------------


def test_flag_tier_profile():
    t = alpha_seed(3)
    profile = flag_tier_profile(t)
    assert profile == (1, 2, 2, 2, 2, 2)
    assert profile[0] == 1
    assert all(profile[i] <= i + 1 for i in range(len(profile)))
    assert list(profile) == sorted(profile)
    assert profile[-1] == tier(builtin_group("LT", t)).tier


def test_flag_tier_profile_wider_seed():
    t = SeedMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 3]])
    profile = flag_tier_profile(t)
    assert profile[0] == 1
    assert profile[-1] == 3
    assert all(profile[i] <= i + 1 for i in range(len(profile)))


def test_flag_tier_profile_evaluates_nothing(monkeypatch):
    def refuse(self, point):
        raise AssertionError("flag_tier_profile evaluated a group element")

    monkeypatch.setattr(PolyParamGroup, "evaluate", refuse)
    assert flag_tier_profile(alpha_seed(3)) == (1, 2, 2, 2, 2, 2)


@st.composite
def seed_matrices(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    entry = st.one_of(st.just(0), st.integers(-2, 2))
    row = st.lists(entry, min_size=n, max_size=n).filter(any)
    return SeedMatrix(draw(st.lists(row, min_size=m, max_size=m)))


@settings(max_examples=40, deadline=None)
@given(seed_matrices(), st.data())
def test_flag_tier_profile_bounds_every_sampled_rank(seed_matrix, data):
    m, n = seed_matrix.m, seed_matrix.n
    profile = flag_tier_profile(seed_matrix)
    assert len(profile) == m + n
    assert all(e >= s for e, s in zip(profile, flag_tier_profile_oracle(seed_matrix)))
    level = data.draw(st.integers(1, m + n))
    v = data.draw(st.lists(st.integers(-3, 3), min_size=level, max_size=level)) + [0] * (m + n - level)
    element = rho(seed_matrix, GroupElementParams.make(v[:m], v[m:]))
    assert rank(element - QMatrix.identity(seed_matrix.ambient)) <= profile[level - 1]


def fixed_random_seeds(count: int = 20) -> list[SeedMatrix]:
    rng = random.Random(20260418)
    seeds = []
    while len(seeds) < count:
        m, n = rng.randint(1, 6), rng.randint(1, 4)
        rows = [[rng.choice((0, 0, 1, -1, 2, -2)) for _ in range(n)] for _ in range(m)]
        if all(any(row) for row in rows):
            seeds.append(SeedMatrix(rows))
    return seeds


def test_flag_tier_profile_equals_the_sampled_profile():
    wider = SeedMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 3]])
    for seed_matrix in [alpha_seed(3), wider, *fixed_random_seeds()]:
        assert flag_tier_profile(seed_matrix) == flag_tier_profile_oracle(seed_matrix)
