"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one `ACCEPTANCE <n> ...: PASS` line (visible with -s); a
failed assertion inside a criterion fails the test before the line prints.
"""

import random
import time
from fractions import Fraction as F

from cartanlim import (
    GroupElementParams,
    ProjPoint,
    alpha_seed,
    are_conjugate,
    bounds,
    builtin_block_family,
    builtin_group,
    conjugate_seed,
    conjugated_element,
    convergence_report,
    element_params,
    exceptional_dual_basis,
    flag_tier_profile,
    flatness_check,
    has_tier_one_element,
    inverse,
    orbit_dimension,
    projectively_equivalent,
    replay_certificate,
    rho,
    seed_conjugator,
    unordered_cross_ratio,
)
from cartanlim.limits import OrbitKind, SeedMatrix
from cartanlim.projgeo import AugmentedBasis, CrossRatioTuple, UnorderedCrossRatio

from util import (
    assert_witness_verifies,
    manifest_cases,
    random_augmented_basis,
    random_generic_seed,
    random_invertible,
    random_params,
    resolve_argv,
    run_cli,
    orbit_hull_dim,
)


def _finish(name: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")


def six_expressions(a: F) -> set[F]:
    return {
        2 * (a - 1) / a,
        a / (2 * (a - 1)),
        a / (2 - a),
        (2 - a) / a,
        2 * (a - 1) / (a - 2),
        (a - 2) / (2 * (a - 1)),
    }


def test_criterion_1_uc_golden():
    started = time.monotonic()
    alphas = [F(3), F(4), F(5), F(-1), F(-2), F(1, 3), F(3, 2), F(7, 3), F(-5, 2), F(7)]
    assert len(alphas) == 10
    for a in alphas:
        points = [ProjPoint([1, t]) for t in (F(0), F(1), F(2), a)]
        computed = unordered_cross_ratio(points)
        expected = UnorderedCrossRatio(
            CrossRatioTuple([ProjPoint([1, v])]) for v in six_expressions(a)
        )
        assert computed == expected
    _finish("1 UC golden", started, 1.0)


def test_criterion_2_complete_invariant_both_directions():
    started = time.monotonic()
    rng = random.Random(20240202)
    shapes = [(2, 4), (2, 5), (2, 6), (3, 5), (3, 6)]
    checked = 0
    witnesses_found = 0
    for i in range(100):
        n, m = shapes[i % len(shapes)]
        left = random_augmented_basis(rng, n, m)
        if i % 2 == 0:
            q = random_invertible(rng, n)
            shuffled = list(left.points)
            rng.shuffle(shuffled)
            from cartanlim.projgeo import ProjTransform

            mover = ProjTransform(q)
            right = AugmentedBasis([mover(p) for p in shuffled])
        else:
            right = random_augmented_basis(rng, n, m)
        uc_equal = unordered_cross_ratio(left) == unordered_cross_ratio(right)
        witness = projectively_equivalent(left, right)
        assert (witness is not None) == uc_equal
        if i % 2 == 0:
            assert witness is not None
        if witness is not None:
            witnesses_found += 1
            assert {witness(p) for p in left.points} == set(right.points)
        checked += 1
    assert checked == 100 and witnesses_found >= 50
    _finish("2 complete invariant", started, 30.0)


def test_criterion_3_conjugacy_round_trip():
    started = time.monotonic()
    rng = random.Random(20240303)
    shapes = [(4, 2), (5, 2), (5, 3)]
    for i in range(50):
        m, n = shapes[i % len(shapes)]
        seed = random_generic_seed(rng, m, n)
        p_mat = random_invertible(rng, n)
        moved = conjugate_seed(seed, p_mat)
        if not moved.generic:
            continue
        witness = are_conjugate(seed, moved)
        assert witness is not None
        assert_witness_verifies(seed, moved, witness, random.Random(i))
        conjugator = seed_conjugator(seed, p_mat)
        conjugator_inv = inverse(conjugator)
        for _ in range(10):
            params = random_params(rng, seed)
            element = conjugator * rho(seed, params) * conjugator_inv
            assert element_params(moved, element) is not None
    _finish("3 conjugacy round-trip", started, 30.0)


def test_criterion_4_orbit_dimension_table():
    started = time.monotonic()
    seed = alpha_seed(3)
    exceptional_labels = {F(0): 1, F(1): 2, F(2): 3, F(3): 4}
    labels = [F(k, 2) for k in range(-26, 28) if F(k, 2) not in exceptional_labels]
    grid = []
    for label in list(exceptional_labels) + labels[:43]:
        grid.append((ProjPoint([1, 1, 1, 1, 1, -label, 1]), label))
    grid.append((ProjPoint([1, 0, 0, 0, 0, 1, 0]), None))  # the fiber at infinity
    grid.append((ProjPoint([1, 2, 0, 0, 0, 0, 0]), "fixed"))
    grid.append((ProjPoint([0, 0, 1, 0, 0, 0, 0]), "fixed"))
    assert len(grid) == 50
    for point, label in grid:
        oc = orbit_dimension(seed, point)
        if label == "fixed":
            assert oc.kind is OrbitKind.FIXED and oc.dim == 0
        elif label in exceptional_labels:
            assert oc.kind is OrbitKind.EXCEPTIONAL and oc.dim == 4
            assert oc.vanishing == frozenset({exceptional_labels[label]})
        else:
            assert oc.kind is OrbitKind.TYPICAL and oc.dim == 5
        assert oc.dim == orbit_hull_dim(seed, point)
    _finish("4 orbit-dimension table", started, 10.0)


def test_criterion_5_convergence():
    started = time.monotonic()
    seed = alpha_seed(3)
    rng = random.Random(20240505)
    schedule = (10, 100, 1000)
    for _ in range(5):
        params = GroupElementParams.make(
            [F(rng.randint(1, 5), rng.randint(1, 2)) * rng.choice((1, -1)) for _ in range(4)],
            [F(rng.randint(1, 5), rng.randint(1, 2)) * rng.choice((1, -1)) for _ in range(2)],
        )
        trace = convergence_report(seed, params, schedule)
        assert trace.distances[0] > trace.distances[1] > trace.distances[2]
        assert trace.distances[2] <= 0.02 * trace.distances[0]
        target = rho(seed, params)
        for r in schedule:
            got = conjugated_element(seed, params, r)
            for i in range(2):
                assert abs(got[4][5 + i] - float(target.rows[4][5 + i])) <= 1e-12
            for j in range(4):
                assert abs(got[j][5] - float(target.rows[j][5])) <= 1e-12
    _finish("5 convergence", started, 5.0)


def test_criterion_6_obstructions():
    started = time.monotonic()
    assert flatness_check(builtin_group("M5")).verdict == "NotFlat"
    assert flatness_check(builtin_group("M6")).verdict == "NotFlat"
    for seed in (alpha_seed(3), SeedMatrix([[1, 0], [0, 1], [1, 1], [1, 2], [1, 5]])):
        assert flatness_check(builtin_group("LT", seed)).verdict == "Flat"

    e_family = builtin_block_family("E")
    e_result = has_tier_one_element(e_family)
    assert e_result.kind == "No"
    assert e_result.certificate is not None
    assert replay_certificate(e_family, e_result.certificate)

    lt_family = builtin_block_family("LT", alpha_seed(3))
    lt_result = has_tier_one_element(lt_family)
    assert lt_result.kind == "Witness"

    profile = flag_tier_profile(alpha_seed(3))
    assert profile[0] == 1
    assert all(profile[i] <= i + 1 for i in range(len(profile)))
    _finish("6 obstructions", started, 5.0)


def test_criterion_7_bounds():
    started = time.monotonic()
    reports = bounds.verify_bounds(7, 200)
    assert all(r.ok for r in reports)
    assert all(r.best_value >= r.lower_bound for r in reports)
    for k in (7, 41, 100, 200):
        for n in range(0, 40):
            diff = bounds.g_value(k, n + 2) - 2 * bounds.g_value(k, n + 1) + bounds.g_value(k, n)
            assert diff == -4
    assert bounds.dim_T(4, 2) == 1
    _finish("7 bounds", started, 1.0)


def test_criterion_8_determinism():
    started = time.monotonic()
    first = [run_cli(resolve_argv(case["argv"])) for case in manifest_cases()]
    second = [run_cli(resolve_argv(case["argv"])) for case in manifest_cases()]
    assert first == second
    _finish("8 determinism", started, 60.0)
