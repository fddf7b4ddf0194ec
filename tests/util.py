"""Shared helpers for the test suite: CLI capture and seeded generators."""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from itertools import islice, permutations, product
from pathlib import Path

from cartanlim import (
    AugmentedBasis,
    GroupElementParams,
    ProjPoint,
    QMatrix,
    PolyParamGroup,
    SeedMatrix,
    TierReport,
    affine_hull_dim,
    basis_transform,
    builtin_group,
    det,
    general_position,
    group_action,
    inverse,
    rank,
)
from cartanlim.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# A 2 x 2 group with one entry x^1000000000: about 100 bytes, whose additivity
# check would evaluate (±2)^(10^9) if the degree limit did not stop it first.
HUGE_DEGREE_GROUP = (
    b'{"dim_params": 1, "ambient": 2, "entries": [[[["1", [0]]], [["1", [1000000000]]]], [[], [["1", [0]]]]]}'
)


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def manifest_cases() -> list[dict]:
    manifest = json.loads((FIXTURES / "manifest.json").read_text())
    return manifest["cases"]


def resolve_argv(argv: list[str]) -> list[str]:
    out = []
    for arg in argv:
        if arg.endswith(".json") and (FIXTURES / arg).exists():
            out.append(str(FIXTURES / arg))
        else:
            out.append(arg)
    return out


def random_fraction(rng: random.Random, span: int = 4, max_den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_point(rng: random.Random, n: int) -> ProjPoint:
    while True:
        coords = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        if any(coords):
            return ProjPoint(coords)


def random_augmented_basis(rng: random.Random, n: int, m: int) -> AugmentedBasis:
    while True:
        points = []
        seen = set()
        while len(points) < m:
            p = random_point(rng, n)
            if p not in seen:
                seen.add(p)
                points.append(p)
        if general_position(points):
            return AugmentedBasis(points)


def random_invertible(rng: random.Random, n: int) -> QMatrix:
    while True:
        mat = QMatrix([[random_fraction(rng, 3, 2) for _ in range(n)] for _ in range(n)])
        if det(mat) != 0:
            return mat


def random_generic_seed(rng: random.Random, m: int, n: int) -> SeedMatrix:
    while True:
        try:
            seed = SeedMatrix(
                [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
            )
        except Exception:
            continue
        if seed.generic:
            return seed


def random_params(rng: random.Random, seed: SeedMatrix) -> GroupElementParams:
    return GroupElementParams.make(
        [random_fraction(rng) for _ in range(seed.m)],
        [random_fraction(rng) for _ in range(seed.n)],
    )


def incremental_basis_oracle(rows) -> list[int]:
    """Independent oracle for `independent_rows`: grow a basis one row at a
    time by rational elimination against the rows kept so far."""
    basis: list[tuple[int, list[Fraction]]] = []
    kept = []
    for idx, row in enumerate(rows):
        vec = [Fraction(x) for x in row]
        for lead, brow in basis:
            if vec[lead] != 0:
                f = vec[lead] / brow[lead]
                vec = [x - f * y for x, y in zip(vec, brow)]
        lead = next((i for i, x in enumerate(vec) if x != 0), None)
        if lead is not None:
            basis.append((lead, vec))
            kept.append(idx)
    return kept


def matmul_oracle(a: QMatrix, b: QMatrix) -> QMatrix:
    """Independent oracle for the matrix product: the entry-by-entry sum of
    Fraction products, with no denominator clearing and no zero skipping."""
    cols = list(zip(*b.rows))
    return QMatrix([sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.rows)


def best_integer_split_oracle(k: int) -> tuple[int, int, int]:
    """Independent oracle for `best_integer_split`: scan every admissible n,
    keeping the first (smallest) n of the largest g."""
    best = None
    for n in range(2, (k - 3) // 2 + 1):
        value = k * n - 2 * n * n - k + 2
        if best is None or value > best[2]:
            best = (k - n - 1, n, value)
    return best


def canonical_coords_oracle(coords) -> tuple[Fraction, ...]:
    """Independent oracle for `ProjPoint.coords`: the Fraction form that
    divides every coordinate by the first nonzero one."""
    raw = [Fraction(c) for c in coords]
    pivot = next(c for c in raw if c != 0)
    return tuple(c / pivot for c in raw)


def canonical_matrix_oracle(matrix: QMatrix) -> QMatrix:
    """Independent oracle for `ProjTransform.matrix`: the matrix divided by
    its first nonzero entry in row-major order."""
    pivot = next(x for row in matrix.rows for x in row if x != 0)
    return matrix * (1 / pivot)


def basis_transform_oracle(points) -> QMatrix:
    """Independent oracle for `basis_transform(points).matrix`, over the
    Fractions: with span·λ = p_{n+1}, the transform is diag(1/λ)·span⁻¹."""
    n = points[0].n
    span = QMatrix([[points[j].coords[i] for j in range(n)] for i in range(n)])
    inv = inverse(span)
    lam = inv.matvec(points[n].coords)
    return canonical_matrix_oracle(
        QMatrix([x / li for x in row] for row, li in zip(inv.rows, lam))
    )


def uc_oracle(basis: AugmentedBasis) -> list[tuple[ProjPoint, ...]]:
    """Independent oracle for the tuples of `unordered_cross_ratio`, in order:
    one `basis_transform` per ordered head, its images of the other points in
    every tail order, sorted by their serialized coordinates."""
    m, n, pts = basis.m, basis.n, basis.points
    seen = set()
    for head in permutations(range(m), n + 1):
        q = basis_transform([pts[i] for i in head])
        seen.update(permutations([q(pts[i]) for i in range(m) if i not in head]))
    return sorted(seen, key=lambda tail: [p.serialized() for p in tail])


def equivalence_oracle(left: AugmentedBasis, right: AugmentedBasis):
    """Independent oracle for `projectively_equivalent`: per ordered right
    head, the candidate from_std ∘ basis_transform(head), checked on every
    right point; the inverse of the first candidate that maps the right set
    into the left one, or None."""
    n, m = left.n, left.m
    from_std = basis_transform(left.points[: n + 1]).inverse()
    target = set(left.points)
    for head in permutations(range(m), n + 1):
        candidate = from_std.compose(basis_transform([right.points[i] for i in head]))
        if all(candidate(p) in target for p in right.points):
            return candidate.inverse()
    return None


def orbit_hull_dim(seed: SeedMatrix, point: ProjPoint, samples: int = 200) -> int:
    """Independent oracle: affine-hull dimension of sampled orbit points.

    The tail coordinates are invariant under the action and one is nonzero
    unless the point is fixed, so dehomogenizing by the first nonzero
    invariant coordinate puts all orbit samples in one affine chart.
    """
    d = seed.m + seed.n
    params = [GroupElementParams.zero(seed)]
    for s in range(d):
        unit = [Fraction(int(t == s)) for t in range(d)]
        params.append(GroupElementParams.make(unit[: seed.m], unit[seed.m :]))
        params.append(
            GroupElementParams.make(
                [2 * x for x in unit[: seed.m]], [2 * x for x in unit[seed.m :]]
            )
        )
    rng = random.Random(20240601)
    while len(params) < samples:
        params.append(
            GroupElementParams.make(
                [Fraction(rng.randint(-5, 5)) for _ in range(seed.m)],
                [Fraction(rng.randint(-5, 5)) for _ in range(seed.n)],
            )
        )
    tail = point.coords[seed.m + 1 :]
    pivot = next((i for i, x in enumerate(tail) if x != 0), None)
    chart_index = (
        seed.m + 1 + pivot
        if pivot is not None
        else next(i for i, x in enumerate(point.coords) if x != 0)
    )
    vectors = []
    for p in params:
        image = group_action(seed, p, point)
        scale = image.coords[chart_index]
        vectors.append(tuple(x / scale for x in image.coords))
    return affine_hull_dim(vectors)


def _random_rational_vector(rng: random.Random, d: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d))


def tier_oracle(group: PolyParamGroup) -> TierReport:
    """Independent oracle for `tier` at seed 0: the full walk of its sample
    stream (the first 200 points of the grid of degree+1 values per variable,
    the unit vectors, the all-ones vector, then 50 seeded random rationals),
    keeping the first point of the largest rank of rho(v) - I."""
    d = group.dim_params
    sizes = tuple(deg + 1 for deg in group.max_degrees())
    points = [tuple(Fraction(x) for x in combo) for combo in islice(product(*(range(s) for s in sizes)), 200)]
    points += [tuple(Fraction(int(j == i)) for j in range(d)) for i in range(d)]
    points.append(tuple(Fraction(1) for _ in range(d)))
    rng = random.Random(0)
    points += [_random_rational_vector(rng, d) for _ in range(50)]
    ident = QMatrix.identity(group.ambient)
    best, best_point = -1, None
    for point in points:
        r = rank(group.evaluate(point) - ident)
        if r > best:
            best, best_point = r, point
    return TierReport(best, best_point)


def flag_tier_profile_oracle(seed_matrix: SeedMatrix) -> tuple[int, ...]:
    """Independent oracle for `flag_tier_profile`, a lower bound: the largest
    rank of rho(v) - I over sampled points of each level (its unit vector, the
    all-ones prefix and 10 seeded random rationals), carried up the levels."""
    group = builtin_group("LT", seed_matrix)
    d = group.dim_params
    ident = QMatrix.identity(group.ambient)
    rng = random.Random(0)
    profile: list[int] = []
    best = 0
    for level in range(1, d + 1):
        points = [
            tuple(Fraction(int(j == level - 1)) for j in range(d)),
            tuple(Fraction(int(j < level)) for j in range(d)),
        ]
        for _ in range(10):
            points.append(_random_rational_vector(rng, level) + (Fraction(0),) * (d - level))
        for point in points:
            best = max(best, rank(group.evaluate(point) - ident))
        profile.append(best)
    return tuple(profile)
