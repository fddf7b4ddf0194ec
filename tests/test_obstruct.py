import json
import math
import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanlim import obstruct
from cartanlim.errors import (
    CartanlimError,
    InternalError,
    RedundantParametersError,
    SampleCapExceededError,
    UnknownNameError,
)
from cartanlim.exactq import QMatrix, rank
from cartanlim.jsonio import read_seed
from cartanlim.limits import GroupElementParams, SeedMatrix, alpha_seed, rho
from cartanlim.obstruct import (
    LinearBlockFamily,
    Poly,
    PolyParamGroup,
    TierOneResult,
    _unipotent_group_from_block,
    builtin_block_family,
    builtin_group,
    flag_tier_profile,
    flatness_check,
    has_tier_one_element,
    replay_certificate,
    tier,
)
from util import (
    FIXTURES,
    NONGROUPS,
    block_oracle,
    builtin_poly_group_oracle,
    exp_family_terms,
    flag_tier_profile_oracle,
    flatness_oracle,
    group_from_terms,
    identity_oracle,
    poly_evaluate_oracle,
    random_fraction,
    random_generic_seed,
    random_rational_seed,
    sub_oracle,
    tier_one_oracle,
    tier_oracle,
    unipotent_form_oracle,
)

E_VARS = "abcdefg"


# --- polynomials -------------------------------------------------------------


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
    assert g.evaluate([0] * 7) == identity_oracle(8)
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


SEED_A3 = read_seed(json.loads((FIXTURES / "seed_a3.json").read_text()))


@pytest.mark.parametrize(
    "name, seed",
    [("M5", None), ("M6", None), ("E", None), ("LT", SEED_A3), ("LT", SeedMatrix([[F(1, 2), 0], [1, F(-2, 3)], [0, 5]]))],
)
def test_builtin_groups_equal_their_explicit_form(name, seed):
    group, explicit = builtin_group(name, seed), builtin_poly_group_oracle(name, seed)
    assert (group._den, group._coeffs, group.entries) == (explicit._den, explicit._coeffs, explicit.entries)
    assert flatness_check(group) == flatness_check(explicit)
    assert tier(group) == tier(explicit)


def test_every_builtin_group_runs_the_law(monkeypatch):
    checked = []
    law = PolyParamGroup._is_additive
    monkeypatch.setattr(PolyParamGroup, "_is_additive", lambda self: checked.append(self) or law(self))
    groups = [builtin_group(name) for name in ("M5", "M6", "E")] + [builtin_group("LT", SEED_A3)]
    assert checked == groups


def test_a_corrupted_coefficient_table_is_refused():
    d, k, coeffs = obstruct._QUADRATIC_GROUPS["M5"]
    PolyParamGroup._from_coeffs(d, k, 2, coeffs)
    # a^2 with coefficient 3/2 in place of 1/2: rho(u)rho(v) != rho(u+v)
    with pytest.raises(ValueError, match="not additive"):
        PolyParamGroup._from_coeffs(d, k, 2, {**coeffs, (2, 0, 0, 0): {3: 3}})
    # an entry below the diagonal makes C_a C_a nonzero with no a^2 term to match
    e = builtin_group("E")
    broken = {**e._coeffs, (1,) + (0,) * 6: {**e._coeffs[(1,) + (0,) * 6], 4 * 8: 1}}
    with pytest.raises(ValueError, match="not additive"):
        PolyParamGroup._from_coeffs(7, 8, 1, broken)
    with pytest.raises(ValueError, match="total degree 5"):
        PolyParamGroup._from_coeffs(d, k, 2, {**coeffs, (5, 0, 0, 0): {4: 1}})
    PolyParamGroup._from_coeffs(7, 8, 1, broken, check=False)


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


@pytest.mark.parametrize("name", sorted(NONGROUPS))
def test_nongroups_below_the_degree_limit_rejected(name):
    with pytest.raises(ValueError, match="not additive"):
        group_from_terms(1, NONGROUPS[name])
    group_from_terms(1, NONGROUPS[name], check=False)


@st.composite
def nilpotents(draw):
    """A strictly upper-triangular integer matrix with a nonzero superdiagonal,
    so that its powers up to the size are nonzero."""
    k = draw(st.integers(2, 5))
    return [
        [draw(st.integers(1, 2) | st.integers(-2, -1)) if c == r + 1 else draw(st.integers(-2, 2)) if c > r else 0
         for c in range(k)]
        for r in range(k)
    ]


@settings(max_examples=40, deadline=None)
@given(nilpotents(), st.integers(1, 2))
def test_exponential_families_pass_the_law(nilpotent, nvars):
    group_from_terms(nvars, exp_family_terms(nilpotent, nvars))


@settings(max_examples=40, deadline=None)
@given(nilpotents().filter(lambda n: len(n) > 2), st.integers(1, 2), st.data())
def test_a_perturbed_exponential_family_fails_the_law(nilpotent, nvars, data):
    # a term of degree >= 2 is fixed by the lower ones: C_a C_b = D binom(a+b, a) C_{a+b}
    terms = exp_family_terms(nilpotent, nvars)
    r, c, e = data.draw(st.sampled_from(
        [(r, c, e) for r, row in enumerate(terms) for c, cell in enumerate(row) for e in cell if sum(e) >= 2]
    ))
    terms[r][c][e] += 1
    with pytest.raises(ValueError, match="not additive"):
        group_from_terms(nvars, terms)


@pytest.fixture
def law_pairs(monkeypatch) -> list:
    """One entry per monomial pair the law check visits: each visit computes
    its binomial scale with one `int_prod`, and construction evaluates nothing."""
    pairs = []

    def counting(factors, _prod=obstruct.int_prod):
        pairs.append(1)
        return _prod(factors)

    monkeypatch.setattr(obstruct, "int_prod", counting)
    return pairs


def test_the_law_skips_pairs_that_neither_chain_nor_split(law_pairs):
    # v_1 + ... + v_d in the corner of a 2 x 2 family: C_a C_b = 0 for every
    # pair and no a + b is a monomial, so no pair can fail
    for d in (10, 40, 160):
        one, zero = Poly.constant(1, d), Poly.constant(0, d)
        corner = Poly(d, {tuple(int(i == j) for j in range(d)): F(1) for i in range(d)})
        PolyParamGroup(d, 2, [[one, corner], [zero, one]])
    assert law_pairs == []
    # exp(vN) for the 3 x 3 shift N: only (v, v) chains, and it splits v^2
    group_from_terms(1, exp_family_terms([[0, 1, 0], [0, 0, 1], [0, 0, 0]], 1))
    assert len(law_pairs) == 1
    # v and v^2 in separate cells of the first row: no pair chains, and only
    # the split (v, v) of v^2 shows that the family is no group
    law_pairs.clear()
    terms = [[{(0,): F(1)} if r == c else {} for c in range(3)] for r in range(3)]
    terms[0][1], terms[0][2] = {(1,): F(1)}, {(2,): F(1)}
    with pytest.raises(ValueError, match="not additive"):
        group_from_terms(1, terms)
    assert len(law_pairs) == 1


@st.composite
def sparse_families(draw):
    """Families through I with a few upper-triangular terms below the degree
    limit; some are groups (I + v E_ij, exponentials), most are not."""
    k, d = draw(st.integers(2, 4)), draw(st.integers(1, 2))
    if draw(st.booleans()):
        return d, exp_family_terms(draw(nilpotents().filter(lambda n: len(n) == k)), d)
    terms = [[{(0,) * d: F(1)} if r == c else {} for c in range(k)] for r in range(k)]
    exps = st.lists(st.integers(0, k - 1), min_size=d, max_size=d).map(tuple).filter(lambda e: 0 < sum(e) < k)
    coeff = st.sampled_from([F(1), F(-1), F(2), F(1, 2)])
    for r, c in draw(st.lists(st.sampled_from([(r, c) for r in range(k) for c in range(r + 1, k)]), min_size=1, max_size=3)):
        terms[r][c] = draw(st.dictionaries(exps, coeff, min_size=1, max_size=2))
    return d, terms


@settings(max_examples=80, deadline=None)
@given(sparse_families(), st.integers(0, 2**32))
def test_the_exact_law_agrees_with_random_rational_pairs(family, seed):
    # Schwartz-Zippel: a nonzero polynomial of degree below 8 in (u, v) vanishes
    # at a point drawn from a set of about 10^9 values per coordinate with
    # probability below 10^-8, so three pairs decide the identity
    d, terms = family
    group = group_from_terms(d, terms, check=False)
    rng = random.Random(seed)

    def rho(point):
        return QMatrix([[poly_evaluate_oracle(p, point) for p in row] for row in group.entries])

    def draw():
        return [F(rng.randint(-10**6, 10**6), rng.randint(1, 10**3)) for _ in range(d)]

    pairs = [(draw(), draw()) for _ in range(3)]
    holds = all(rho(u) * rho(v) == rho([x + y for x, y in zip(u, v)]) for u, v in pairs)
    try:
        group_from_terms(d, terms)
    except ValueError:
        assert not holds
    else:
        assert holds


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


def test_flatness_grid_that_misses_the_coefficient_rank_is_an_internal_error(monkeypatch):
    # a grid below the degrees cannot span I + span{C_mu}; the two ranks must agree
    group = builtin_group("M5")
    monkeypatch.setattr(group, "max_degrees", lambda: (1, 1, 1, 1))
    with pytest.raises(InternalError, match="the grid spans 4 dimensions, the coefficients 5"):
        flatness_check(group)


@pytest.mark.parametrize(
    "name, seed, mapped",
    [("E", None, 64), ("LT", alpha_seed(3), 32), ("M6", None, 32), ("M5", None, 16)],
    ids=["E", "LT3", "M6", "M5"],
)
def test_flatness_maps_the_grid_up_to_its_last_witness(monkeypatch, name, seed, mapped):
    group = builtin_group(name, seed)
    products = []
    monkeypatch.setattr(obstruct, "int_prod", lambda values: products.append(None) or math.prod(values))
    report = flatness_check(group)
    assert report == flatness_oracle(group)
    # one product for the grid size, then one per monomial of each image mapped
    assert len(products) == 1 + mapped * len(group._coeffs)
    assert mapped < report.sample_size - 1
    grid = list(product(*(range(size) for size in report.grid_sizes)))
    assert report.witness_params[-1] == tuple(map(F, grid[mapped]))


def _identity_group(dim_params: int) -> PolyParamGroup:
    zero, one = Poly(dim_params), Poly.constant(1, dim_params)
    return PolyParamGroup(dim_params, 2, [[one, zero], [zero, one]])


def test_empty_moving_block_reports():
    no_params = _identity_group(0)
    assert flatness_check(no_params) == obstruct.FlatnessReport("Flat", 0, 0, 1, (), ((),))
    assert tier(no_params) == obstruct.TierReport(0, ())
    constant = _identity_group(1)
    assert tier(constant) == obstruct.TierReport(0, (F(0),))
    with pytest.raises(RedundantParametersError):
        flatness_check(constant)


def test_flatness_cap():
    with pytest.raises(SampleCapExceededError):
        flatness_check(builtin_group("E"), cap=100)


def _walks(monkeypatch) -> list[list[list[int]]]:
    """The rows each `exactq._eliminate` call reads, recorded as they are read."""
    walks, eliminate = [], obstruct.exactq._eliminate

    def tap(rows):
        walks.append([])
        for row in rows:
            walks[-1].append(list(row))
            yield row

    monkeypatch.setattr(obstruct.exactq, "_eliminate", lambda rows, *args, **kwargs: eliminate(tap(rows), *args, **kwargs))
    return walks


def _seeded_explicit_group(rng: random.Random, dependent: bool) -> PolyParamGroup:
    """A family I + sum_mu v^mu C_mu / 2 with a position held by one C_mu alone, so the C_mu are independent; a
    dependent one adds a monomial whose C is a combination of two others.  The law is not needed for flatness."""
    d, k = rng.randint(1, 3), rng.randint(3, 4)
    monomials, count = set(), rng.randint(2 + dependent, 3 if d == 1 else 5)
    while len(monomials) < count:
        monomials |= {tuple(rng.randint(0, 3) for _ in range(d))} - {(0,) * d}
    monomials = sorted(monomials)
    own = rng.sample(range(k * k), len(monomials))
    shared = [pos for pos in range(k * k) if pos not in own]
    coeffs = {}
    for mu, pos in zip(monomials, own):
        coeffs[mu] = {p: c for p in rng.sample(shared, 2) if (c := rng.randint(-3, 3))} | {pos: rng.choice((-2, -1, 1, 3))}
    if dependent:
        a, b, extra = monomials[0], monomials[1], monomials.pop()
        x, y = rng.choice((-1, 1, 2)), rng.choice((-2, 1, 3))
        coeffs[extra] = {p: c for p in {*coeffs[a], *coeffs[b]} if (c := x * coeffs[a].get(p, 0) + y * coeffs[b].get(p, 0))}
    return PolyParamGroup._from_coeffs(d, k, 2, coeffs, check=False)


@pytest.mark.parametrize("dependent", [False, True], ids=["independent", "dependent"])
def test_flatness_walk_equals_the_image_oracle_on_seeded_explicit_groups(monkeypatch, dependent):
    rng = random.Random(3700 + dependent)
    walks = _walks(monkeypatch)
    for _ in range(25):
        group = _seeded_explicit_group(rng, dependent)
        walks.clear()
        report = outcome(flatness_check, group)
        (positions, walk), grid = walks, list(product(*(range(d + 1) for d in group.max_degrees())))[1:]
        assert report == outcome(flatness_oracle, group)
        coefficient_rank = rank(QMatrix(positions))
        # independent C_mu: the walk reads the monomial values of the grid points; else their images
        assert (coefficient_rank < len(group._coeffs)) == dependent
        assert all(len(row) == coefficient_rank for row in walk)
        if not dependent:
            assert walk == [[math.prod(map(pow, p, mu)) for mu in group._coeffs] for p in grid[: len(walk)]]


@pytest.mark.parametrize("name, seed", [("M5", None), ("M6", None), ("LT", alpha_seed(3)), ("E", None)])
def test_flatness_of_the_builtins_walks_the_monomial_values(monkeypatch, name, seed):
    group = builtin_group(name, seed)
    walks = _walks(monkeypatch)
    report = flatness_check(group)
    walk, grid = walks[-1], list(product(*(range(size) for size in report.grid_sizes)))[1:]
    assert report.hull_dim == len(group._coeffs) == len(walk[0])
    assert walk == [[math.prod(map(pow, p, mu)) for mu in group._coeffs] for p in grid[: len(walk)]]


# --- tier ------------------------------------------------------------------------


def test_tier_values():
    t = alpha_seed(3)
    lt = tier(builtin_group("LT", t))
    assert lt.tier == 2  # block rank tops out at n
    assert rank(sub_oracle(builtin_group("LT", t).evaluate(lt.witness), identity_oracle(7))) == 2
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
            best = max(best, rank(sub_oracle(g.evaluate(v), identity_oracle(g.ambient))))
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
    walked = []
    sample = obstruct._tier_sample
    monkeypatch.setattr(obstruct, "_tier_sample", lambda *args: (walked.append(p) or p for p in sample(*args)))
    assert tier(group) == expected
    assert len(walked) == count


@st.composite
def block_families(draw):
    p, q, d = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    entry = st.sampled_from([0, 1, -1, F(1, 2), F(-2, 3)])
    mats = draw(st.lists(
        st.lists(st.lists(entry, min_size=q, max_size=q), min_size=p, max_size=p), min_size=d, max_size=d
    ))
    return LinearBlockFamily([QMatrix(m) for m in mats])


def block_groups():
    return block_families().map(_unipotent_group_from_block)


@settings(max_examples=40, deadline=None)
@given(block_groups())
def test_tier_equals_the_full_walk_on_linear_blocks(group):
    assert tier(group) == tier_oracle(group)


@st.composite
def mixed_diagonal_groups(draw):
    """U diag(l_1(v), ..., l_p(v)) V for linear forms l_i and unit triangular
    integer U, V, so rank(v) counts the l_i(v) != 0.  The forms hold every
    coordinate and one difference of two, so each point of the 0/1 grid, each
    unit vector and the all-ones vector zero one of them: only the random tail
    of the walk can reach the rank p."""
    d = draw(st.integers(2, 3))
    i, j = draw(st.permutations(range(d)))[:2]
    units = [[int(t == s) for t in range(d)] for s in range(d)]
    extra = draw(st.lists(st.lists(st.sampled_from([0, 1, -1, 2]), min_size=d, max_size=d), max_size=3 - d))
    forms = draw(st.permutations(units + [[x - y for x, y in zip(units[i], units[j])]] + extra))
    p = len(forms)
    mix = st.sampled_from([0, 1, -1, F(1, 2)])
    u, v = ([[1 if i == j else draw(mix) if i < j else 0 for j in range(p)] for i in range(p)] for _ in range(2))
    mats = []
    for t in range(d):
        diag = QMatrix([[forms[i][t] if i == j else 0 for j in range(p)] for i in range(p)])
        mats.append(QMatrix(u) * diag * QMatrix(v))
    return _unipotent_group_from_block(LinearBlockFamily(mats))


@settings(max_examples=40, deadline=None)
@given(mixed_diagonal_groups())
def test_tier_equals_the_full_walk_with_random_tail_points(group):
    assert tier(group) == tier_oracle(group)


def test_tier_witness_from_the_random_tail(monkeypatch):
    # diag(a, b, a - b): every grid point, unit vector and the all-ones
    # vector zero one entry, so the first rank-3 point is a random one
    family = LinearBlockFamily([QMatrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]]), QMatrix([[0, 0, 0], [0, 1, 0], [0, 0, -1]])])
    group = _unipotent_group_from_block(family)
    walked = []
    sample = obstruct._tier_sample
    monkeypatch.setattr(obstruct, "_tier_sample", lambda *args: (walked.append(p) or p for p in sample(*args)))
    report = tier(group)
    assert report == tier_oracle(group) and report.tier == 3
    assert len(walked) == 4 + 2 + 1 + 1  # the grid, the unit vectors, all ones, one random point
    scale, ws = walked[-1]
    assert tuple(F(w, scale) for w in ws) == report.witness


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
    for rows in ([0, 9], [1, 1], [0, 1, 2]):  # no 2x2 minor of the 4x4 block
        assert not replay_certificate(family, [{**result.certificate[0], "rows": rows}])


# its "No" certificate opens with a branch on v_1 v_2
BRANCHING_BLOCKS = ([[1, 0, 0], [0, 1, 0], [1, 0, 0]], [[0, 0, -1], [0, -1, 1], [0, 0, 0]], [[1, 0, 0], [0, 1, -1], [1, -1, 0]])


def first_step_family(kind: str) -> tuple[LinearBlockFamily, list[dict]]:
    """E, whose certificate opens with a minor step, or the branching family."""
    family = builtin_block_family("E") if kind == "minor" else LinearBlockFamily([QMatrix(m) for m in BRANCHING_BLOCKS])
    steps = [dict(step) for step in has_tier_one_element(family).certificate]
    assert steps[0]["kind"] == kind and replay_certificate(family, steps)
    return family, steps


@pytest.mark.parametrize(
    "kind, key", [*(("minor", key) for key in ("rows", "cols", "monomial", "forced", "kind")), ("branch", "cases")]
)
def test_certificate_replay_rejects_a_missing_key(kind, key):
    family, steps = first_step_family(kind)
    del steps[0][key]
    assert replay_certificate(family, steps) is False


@pytest.mark.parametrize(
    "kind, change",
    [
        ("minor", {"rows": 5}), ("minor", {"cols": None}), ("minor", {"rows": [[0], [1]]}), ("minor", {"monomial": 2}),
        ("minor", {"monomial": ["c", "c"]}), ("minor", {"forced": [2]}), ("minor", {"kind": 3}),
        ("minor", {"forced": 2.0}), ("minor", {"monomial": [2, 2.0]}), ("minor", {"rows": [0.0, 1]}),
        ("branch", {"cases": 3}), ("branch", {"cases": [[1], [2]]}), ("branch", {"cases": [{"assume": [1]}, {"assume": 2}]}),
        ("branch", {"cases": [{"assume": 1}, {"assume": 2, "steps": []}]}), ("branch", {"monomial": [True, 2]}),
    ],
)
def test_certificate_replay_rejects_a_value_of_the_wrong_type(kind, change):
    family, steps = first_step_family(kind)
    assert replay_certificate(family, [{**steps[0], **change}, *steps[1:]]) is False


def test_certificate_replay_rejects_a_boolean_index():
    family, steps = first_step_family("branch")
    first, second = steps[0]["cases"]
    assert replay_certificate(family, [{**steps[0], "cases": [{**first, "assume": True}, second]}]) is False


@pytest.mark.parametrize("certificate", [7, None, ["step"], [[0, 1]], [None]])
def test_certificate_replay_rejects_steps_that_are_not_objects(certificate):
    assert replay_certificate(builtin_block_family("E"), certificate) is False


def test_certificate_read_back_from_its_document_replays():
    document = json.loads((FIXTURES / "expected" / "obstruct_tier_one_e.json").read_text())
    certificate = document["result"]["certificate"]
    assert isinstance(certificate[0]["rows"], list)
    assert replay_certificate(builtin_block_family("E"), certificate) is True


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


def mixed_denominator_families(rng: random.Random, count: int):
    """Block families whose matrices have entries p/q, q up to 5, with
    dependent copies and zero matrices among them; the first is all zero."""
    yield LinearBlockFamily([QMatrix([[0, 0, 0], [0, 0, 0]])] * 2)
    for _ in range(count):
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        mats = []
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if roll < 0.2 and mats:
                mats.append(QMatrix([[x * random_fraction(rng, 3, 4) for x in row] for row in mats[-1].rows]))
            elif roll < 0.3:
                mats.append(QMatrix([[0] * q for _ in range(p)]))
            else:
                mats.append(QMatrix([[random_fraction(rng, 3, 5) for _ in range(q)] for _ in range(p)]))
        yield LinearBlockFamily(mats)


def test_block_equals_the_fraction_sum_on_mixed_denominators():
    rng = random.Random(28)
    dims = set()
    for family in mixed_denominator_families(rng, 60):
        dims.add(family.dim_params)
        for _ in range(3):
            point = [random_fraction(rng, 5, 6) for _ in range(family.dim_params)]
            assert family.block(point) == block_oracle(family, point)
        assert family.block([0] * family.dim_params) == QMatrix([[0] * family.ncols for _ in range(family.nrows)])
    assert {0, 1, 2, 3} <= dims


def test_all_dependent_family_has_the_zero_block():
    family = LinearBlockFamily([QMatrix([[0, 0, 0], [0, 0, 0]])] * 3)
    assert (family.dim_params, family.reduced_from) == (0, 3)
    assert family.block(()) == QMatrix([[0, 0, 0], [0, 0, 0]]) == block_oracle(family, ())
    with pytest.raises(ValueError):
        family.block([1])


def test_lt_group_on_rational_rows_has_the_per_matrix_form():
    rng = random.Random(29)
    for _ in range(20):
        seed = random_rational_seed(rng, rng.randint(1, 5), rng.randint(1, 3))
        group = builtin_group("LT", seed)
        den, coeffs = unipotent_form_oracle(builtin_block_family("LT", seed))
        assert group._den == den > 1
        assert list(group._coeffs.items()) == list(coeffs.items())


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
    assert rank(sub_oracle(element, identity_oracle(seed_matrix.ambient))) <= profile[level - 1]


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


def test_flag_tier_profile_equals_the_sampled_profile_on_rational_rows():
    rng = random.Random(30)
    for _ in range(20):
        seed_matrix = random_rational_seed(rng, rng.randint(1, 5), rng.randint(1, 3))
        assert flag_tier_profile(seed_matrix) == flag_tier_profile_oracle(seed_matrix)


# --- the integer form against the Fraction oracles ---------------------------------------


def outcome(fn, *args):
    """A function's result, or the type of the library error it raised."""
    try:
        return fn(*args)
    except CartanlimError as exc:
        return type(exc)


def generic_lt_seeds() -> list:
    rng = random.Random(20261018)
    return [
        pytest.param("LT", random_generic_seed(rng, m, n), id=f"LT{m}x{n}-{i}")
        for m, n in ((4, 2), (5, 2), (5, 3))
        for i in range(2)
    ]


@pytest.mark.parametrize("name, seed", [("M5", None), ("M6", None), ("E", None), *generic_lt_seeds()])
def test_builtin_reports_equal_the_fraction_oracles(name, seed):
    group = builtin_group(name, seed)
    assert flatness_check(group) == flatness_oracle(group)
    assert tier(group) == tier_oracle(group)
    # on (5, 3) seeds the branching search of the oracle takes 15-45 s before
    # its witness, so the rank-one comparison runs on the smaller shapes
    if name == "E" or name == "LT" and seed.n == 2:
        family = builtin_block_family(name, seed)
        assert has_tier_one_element(family) == tier_one_oracle(family)


@pytest.mark.parametrize("seed", [param.values[1] for param in generic_lt_seeds() if param.values[1].n == 3])
def test_tier_one_tries_the_unit_vectors_before_the_certificate(monkeypatch, seed):
    family = builtin_block_family("LT", seed)
    # with no certificate, the certificate-first order returns the first
    # rank-one candidate, and on an LT family that is a unit vector
    first = next(p for p in obstruct._witness_candidates(family, 0, 200) if any(p) and rank(family.block(p)) == 1)
    calls = []
    monkeypatch.setattr(obstruct, "_certify_zero", lambda *args: calls.append(args))
    assert has_tier_one_element(family) == TierOneResult("Witness", first, None)
    assert calls == []


@settings(max_examples=40, deadline=None)
@given(block_families())
def test_block_reports_equal_the_fraction_oracles(family):
    assert has_tier_one_element(family, random_samples=20) == tier_one_oracle(family, random_samples=20)
    group = _unipotent_group_from_block(family)
    assert outcome(flatness_check, group) == outcome(flatness_oracle, group)


@settings(max_examples=40, deadline=None)
@given(nilpotents(), st.integers(1, 2))
def test_exponential_reports_equal_the_fraction_oracles(nilpotent, nvars):
    group = group_from_terms(nvars, exp_family_terms(nilpotent, nvars))
    assert outcome(flatness_check, group) == outcome(flatness_oracle, group)
    assert tier(group) == tier_oracle(group)


def test_obstructions_on_the_builtin_groups_evaluate_no_dense_element(monkeypatch):
    def refuse(self, point):
        raise AssertionError("a group element was evaluated densely")

    monkeypatch.setattr(PolyParamGroup, "evaluate", refuse)
    for name, seed in [("M5", None), ("M6", None), ("E", None), ("LT", alpha_seed(3))]:
        group = builtin_group(name, seed)
        flatness_check(group)
        tier(group)
    for name, seed in [("E", None), ("LT", alpha_seed(3))]:
        has_tier_one_element(builtin_block_family(name, seed))
