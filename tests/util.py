"""Shared helpers for the test suite: CLI capture and seeded generators."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from itertools import combinations, islice, permutations, product
from math import prod
from pathlib import Path

from cartanlim import (
    AugmentedBasis,
    CrossRatioTuple,
    FlatnessReport,
    GroupElementParams,
    LinearBlockFamily,
    Poly,
    ProjPoint,
    QMatrix,
    PolyParamGroup,
    SeedMatrix,
    TierOneResult,
    TierReport,
    UnorderedCrossRatio,
    basis_transform,
    build_Pr,
    builtin_group,
    det,
    element_params,
    group_action,
    inverse,
    projectively_equivalent,
    rank,
    rho,
)
from cartanlim.cli import main
from cartanlim.converge import _positive_root
from cartanlim.errors import (
    DimensionMismatchError,
    NonSquareError,
    NotGenericError,
    RedundantParametersError,
    SampleCapExceededError,
    ZeroRowError,
)
from cartanlim.exactq import _Frozen, maximal_minors
from cartanlim.obstruct import _E_BLOCK, _E_VARS, _witness_candidates

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = FIXTURES.parent / "src"

# A 2 x 2 group with one entry x^1000000000: about 100 bytes, and one
# evaluation at 2 would expand 2^(10^9); the degree limit rejects it first.
HUGE_DEGREE_GROUP = (
    b'{"dim_params": 1, "ambient": 2, "entries": [[[["1", [0]]], [["1", [1000000000]]]], [[], [["1", [0]]]]]}'
)

# The explicit JSON forms, which no fixture uses: a 2 x 2 block family whose
# third coefficient matrix is twice its first, and the 3 x 3 group
# [[1, a, a^2/2 + b], [0, 1, a], [0, 0, 1]].
EXPLICIT_FAMILY = json.dumps(
    {"coeff_matrices": [[["1/2", "0"], ["0", "0"]], [["0", "1"], ["-1", "0"]], [["1", "0"], ["0", "0"]]]}
).encode("utf-8")
EXPLICIT_GROUP = json.dumps(
    {
        "dim_params": 2,
        "ambient": 3,
        "entries": [
            [[["1", [0, 0]]], [["1", [1, 0]]], [["1/2", [2, 0]], ["1", [0, 1]]]],
            [[], [["1", [0, 0]]], [["1", [1, 0]]]],
            [[], [], [["1", [0, 0]]]],
        ],
    }
).encode("utf-8")


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def child_env(*drop: str) -> dict[str, str]:
    """This process's environment for a child interpreter, less the `drop`
    variables, with `src` first on PYTHONPATH."""
    env = {key: value for key, value in os.environ.items() if key not in drop}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


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
    if n < 2:
        # RP^0 has one point, so m >= 2 distinct points would never be found
        raise ValueError(f"an augmented basis needs n >= 2, got n = {n}")
    while True:
        points = []
        seen = set()
        while len(points) < m:
            p = random_point(rng, n)
            if p not in seen:
                seen.add(p)
                points.append(p)
        if general_position_oracle(points):
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


def random_rational_seed(rng: random.Random, m: int, n: int) -> SeedMatrix:
    """A seed with no zero row whose entries p/q have q up to 5, some q > 1."""
    while True:
        rows = [[random_fraction(rng, 4, 5) for _ in range(n)] for _ in range(m)]
        if all(any(row) for row in rows) and any(x.denominator > 1 for row in rows for x in row):
            return SeedMatrix(rows)


def random_params(rng: random.Random, seed: SeedMatrix) -> GroupElementParams:
    return GroupElementParams.make(
        [random_fraction(rng) for _ in range(seed.m)],
        [random_fraction(rng) for _ in range(seed.n)],
    )


def assert_witness_verifies(left: SeedMatrix, right: SeedMatrix, witness: QMatrix, rng: random.Random, count: int = 5) -> None:
    """Dense oracle for the conjugator of `are_conjugate`: W·ρ_T(v)·W⁻¹ lies
    in the S-group for `count` random parameter vectors v."""
    w_inv = inverse(witness)
    for _ in range(count):
        params = random_params(rng, left)
        assert element_params(right, witness * rho(left, params) * w_inv) is not None


def identity_oracle(n: int) -> QMatrix:
    """The n x n identity, from its Fraction rows."""
    return QMatrix([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])


def diagonal_oracle(values) -> QMatrix:
    """The diagonal matrix of the values, from its Fraction rows."""
    vals = [Fraction(v) for v in values]
    return QMatrix([[v if i == j else Fraction(0) for j in range(len(vals))] for i, v in enumerate(vals)])


def block_diag_oracle(*mats: QMatrix) -> QMatrix:
    """The direct sum of square matrices: each block's Fraction rows padded
    with zeros to the total size."""
    if any(m.nrows != m.ncols for m in mats):
        raise NonSquareError("block_diag expects square blocks")
    total, offset, rows = sum(m.nrows for m in mats), 0, []
    for m in mats:
        rows += [[Fraction(0)] * offset + list(row) + [Fraction(0)] * (total - offset - m.ncols) for row in m.rows]
        offset += m.ncols
    return QMatrix(rows)


def sub_oracle(a: QMatrix, b: QMatrix) -> QMatrix:
    """a - b: the entrywise Fraction differences."""
    if a.shape != b.shape:
        raise DimensionMismatchError(f"cannot subtract {b.shape} from {a.shape}")
    return QMatrix([x - y for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows))


def scale_oracle(x, a: QMatrix) -> QMatrix:
    """The scalar multiple x·a, from the Fraction entries."""
    x = Fraction(x)
    return QMatrix([x * v for v in row] for row in a.rows)


def phi_oracle(seed: SeedMatrix, j: int, w) -> Fraction:
    """The j-th exceptional linear functional (1-based) at the tail
    coordinates w: row j of the seed's Fraction rows against w."""
    return sum((t * Fraction(x) for t, x in zip(seed.matrix.rows[j - 1], w, strict=True)), Fraction(0))


def poly_evaluate_oracle(poly: Poly, point) -> Fraction:
    """The polynomial's value at the point: the sum of its terms at the
    Fraction coordinates."""
    return sum((c * prod(Fraction(x) ** e for x, e in zip(point, exps)) for exps, c in poly.terms.items()), Fraction(0))


def inverse_pr_oracle(pr: QMatrix) -> QMatrix:
    """P_r^-1 = I - N = 2I - P_r, since N = P_r - I has N^2 = 0."""
    return sub_oracle(scale_oracle(2, identity_oracle(pr.nrows)), pr)


def trace_point_oracle(seed: SeedMatrix, params: GroupElementParams, r) -> tuple[list[float], list[list[float]]]:
    """Dense oracle for one point of `converge`: the offsets c from the
    matching rules in Fractions, the float root of prod(t + c_i) = 1 from
    `converge._positive_root`, and P_r^-1 diag(c) P_r as two dense products,
    read as float(x) plus the root on the diagonal."""
    r = Fraction(r)
    col = next(c for c in range(seed.n) if all(row[c] != 0 for row in seed.matrix.rows))
    cs = [a / r - params.b[col] / (r * r) for a in params.a] + [Fraction(0)]
    cs += [-b / (r * r) for b in params.b]
    root = _positive_root([float(c) for c in cs])
    pr = build_Pr(seed, r)
    exact = inverse_pr_oracle(pr) * diagonal_oracle(cs) * pr
    matrix = [[float(x) + (root if i == j else 0.0) for j, x in enumerate(row)] for i, row in enumerate(exact.rows)]
    return [row[i] for i, row in enumerate(matrix)], matrix


def seed_conjugator_oracle(seed: SeedMatrix, p: QMatrix) -> QMatrix:
    """The dense construction of `seed_conjugator`: I_{m+1} (+) P^{-1}."""
    return block_diag_oracle(identity_oracle(seed.m + 1), inverse(p))


def conjugacy_witness_oracle(left: SeedMatrix, right: SeedMatrix):
    """The dense construction of the `are_conjugate` witness, or None:
    Π·(I_{m+1} (+) P^{-1}) with P the transpose of the dual witness and Π the
    permutation matrix sending axis j to axis σ(j) for j < m, σ matching each
    row of T·P to the first unused right row that is the same point."""
    dual = projectively_equivalent(
        AugmentedBasis(ProjPoint(row) for row in left.matrix.rows),
        AugmentedBasis(ProjPoint(row) for row in right.matrix.rows),
    )
    if dual is None:
        return None
    p = dual.matrix.transpose()
    targets = [ProjPoint(row) for row in right.matrix.rows]
    sigma = []
    for row in (left.matrix * p).rows:
        sigma.append(next(i for i, q in enumerate(targets) if q == ProjPoint(row) and i not in sigma))
    k = left.ambient
    perm = [[0] * k for _ in range(k)]
    for j in range(k):
        perm[sigma[j] if j < left.m else j][j] = 1
    return QMatrix(perm) * seed_conjugator_oracle(left, p)


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


def matvec_oracle(matrix: QMatrix, vec) -> tuple[Fraction, ...]:
    """A·v over the Fractions, for v of ints, `p/q` strings or Fractions."""
    v = [Fraction(x) for x in vec]
    return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in matrix.rows)


def normalized_slice_oracle(free_rows: QMatrix) -> SeedMatrix:
    """Independent oracle for `normalized_slice_member`: the Fraction rows of
    I_n, the all-ones row and the free rows, stacked."""
    n = free_rows.ncols
    rows = [*identity_oracle(n).rows, tuple(Fraction(1) for _ in range(n)), *free_rows.rows]
    try:
        seed = SeedMatrix(rows)
    except ZeroRowError as exc:
        raise NotGenericError(str(exc)) from exc
    if not seed.generic:
        raise NotGenericError("stacked matrix is not generic")
    return seed


def general_position_oracle(points) -> bool:
    """Whether every n of the points' coordinate vectors are independent."""
    return all(maximal_minors([p.ints for p in points]).values())


def affine_hull_dim_oracle(points) -> int:
    """Dimension of the affine hull of the points: the rank of the p_i - p_0."""
    base, *rest = points
    return rank(QMatrix([[x - y for x, y in zip(p, base)] for p in rest])) if rest else 0


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
    return scale_oracle(1 / pivot, matrix)


def basis_transform_oracle(points) -> QMatrix:
    """Independent oracle for `basis_transform(points).matrix`, over the
    Fractions: with span·λ = p_{n+1}, the transform is diag(1/λ)·span⁻¹."""
    n = points[0].n
    span = QMatrix([[points[j].coords[i] for j in range(n)] for i in range(n)])
    inv = inverse(span)
    lam = matvec_oracle(inv, points[n].coords)
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


def ordered_keys(uc: UnorderedCrossRatio) -> set[tuple[tuple[int, ...], ...]]:
    """The full key set of an unordered cross ratio: the point keys
    (`ProjPoint.ints`) of every tuple, each kept tail-sorted key in every
    order of its points."""
    return {order for key in uc._keys for order in permutations(key)}


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


def element_params_oracle(seed: SeedMatrix, matrix: QMatrix):
    """Independent oracle for `element_params`: read candidate parameters off
    the upper-right block, rebuild the element with `rho` and compare."""
    m, n = seed.m, seed.n
    if matrix.shape != (m + n + 1, m + n + 1):
        return None
    a = []
    for j in range(m):
        i0 = next(i for i, t in enumerate(seed.matrix.rows[j]) if t != 0)
        a.append(matrix.rows[j][m + 1 + i0] / seed.matrix.rows[j][i0])
    params = GroupElementParams(tuple(a), tuple(matrix.rows[m][m + 1 :]))
    return params if rho(seed, params) == matrix else None


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
    return affine_hull_dim_oracle(vectors)


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
    ident = identity_oracle(group.ambient)
    best, best_point = -1, None
    for point in points:
        r = rank(sub_oracle(group.evaluate(point), ident))
        if r > best:
            best, best_point = r, point
    return TierReport(best, best_point)


def flag_tier_profile_oracle(seed_matrix: SeedMatrix) -> tuple[int, ...]:
    """Independent oracle for `flag_tier_profile`, a lower bound: the largest
    rank of rho(v) - I over sampled points of each level (its unit vector, the
    all-ones prefix and 10 seeded random rationals), carried up the levels."""
    group = builtin_group("LT", seed_matrix)
    d = group.dim_params
    ident = identity_oracle(group.ambient)
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
            best = max(best, rank(sub_oracle(group.evaluate(point), ident)))
        profile.append(best)
    return tuple(profile)


def flatness_oracle(group: PolyParamGroup, cap: int = 2000) -> FlatnessReport:
    """Independent oracle for `flatness_check`: the Fraction images of the
    grid of degree+1 values per variable, read entry by entry with
    `poly_evaluate_oracle`, and the points whose difference from the image of 0 is
    independent of the ones before, by rational elimination."""
    sizes = tuple(max(degs) + 1 for degs in zip(*(p.max_degrees() for row in group.entries for p in row)))
    total = prod(sizes)
    if total > cap:
        raise SampleCapExceededError(f"certifying grid has {total} points, above the cap of {cap}")
    points = [tuple(Fraction(x) for x in combo) for combo in product(*(range(s) for s in sizes))]
    images = [[poly_evaluate_oracle(p, point) for row in group.entries for p in row] for point in points]
    grew = incremental_basis_oracle([[x - y for x, y in zip(image, images[0])] for image in images])
    if len(grew) < group.dim_params:
        raise RedundantParametersError("image hull is smaller than the parameter count")
    return FlatnessReport(
        verdict="Flat" if len(grew) == group.dim_params else "NotFlat",
        hull_dim=len(grew),
        dim_params=group.dim_params,
        sample_size=len(points),
        grid_sizes=sizes,
        witness_params=(points[0], *(points[i] for i in grew)),
    )


def _minor_terms_oracle(family: LinearBlockFamily, rows, cols, zeroed: set[int]) -> dict:
    """The Fraction coefficients of a 2x2 minor as a quadratic form in the
    variables, with the zeroed ones removed, read from the rows of the
    coefficient matrices."""
    (i1, i2), (j1, j2) = rows, cols
    mats = [mat.rows for mat in family.coeff_matrices]
    terms: dict[tuple[int, int], Fraction] = {}
    for (a, b), (c, e), sign in (((i1, j1), (i2, j2), 1), ((i1, j2), (i2, j1), -1)):
        for k, l in product(range(family.dim_params), repeat=2):
            if k not in zeroed and l not in zeroed:
                key = (min(k, l), max(k, l))
                terms[key] = terms.get(key, Fraction(0)) + sign * mats[k][a][b] * mats[l][c][e]
    return {key: c for key, c in terms.items() if c}


def _propagate_oracle(family: LinearBlockFamily, zeroed: set[int]):
    """The propagation of `has_tier_one_element`, recomputing every minor's
    Fraction quadratic form with the zeroed variables removed at every step."""
    zeroed = set(zeroed)
    steps: list[dict] = []
    pairs = list(product(combinations(range(family.nrows), 2), combinations(range(family.ncols), 2)))
    while True:
        products: list[dict] = []
        for rows, cols in pairs:
            terms = _minor_terms_oracle(family, rows, cols, zeroed)
            if len(terms) != 1:
                continue
            ((k, l),) = terms
            if k == l:
                zeroed.add(k)
                steps.append({"kind": "minor", "rows": list(rows), "cols": list(cols), "monomial": [k, l], "forced": k})
                break
            products.append({"rows": list(rows), "cols": list(cols), "monomial": [k, l]})
        else:
            return zeroed, steps, products


def _certify_zero_oracle(family: LinearBlockFamily, zeroed: set[int], depth: int):
    zeroed, steps, products = _propagate_oracle(family, zeroed)
    if len(zeroed) == family.dim_params:
        return steps
    if depth <= 0:
        return None
    for step in products:
        k, l = step["monomial"]
        case_k = _certify_zero_oracle(family, zeroed | {k}, depth - 1)
        if case_k is None:
            continue
        case_l = _certify_zero_oracle(family, zeroed | {l}, depth - 1)
        if case_l is None:
            continue
        cases = [{"assume": k, "steps": case_k}, {"assume": l, "steps": case_l}]
        return steps + [{**step, "kind": "branch", "cases": cases}]
    return None


def block_oracle(family: LinearBlockFamily, point) -> QMatrix:
    """Independent oracle for `LinearBlockFamily.block`: the sum of the
    v_t·B_t over the Fractions, entry by entry."""
    mats = [mat.rows for mat in family.coeff_matrices]
    return QMatrix(
        [sum((Fraction(v) * mat[i][j] for v, mat in zip(point, mats)), Fraction(0)) for j in range(family.ncols)]
        for i in range(family.nrows)
    )


def unipotent_form_oracle(family: LinearBlockFamily) -> tuple[int, dict]:
    """Independent oracle for the compiled form (D, {mu: {k*i + j: C_mu[i, j]}})
    of the unipotent group of a block family: each coefficient matrix scaled
    on its own to the lcm D of their denominators."""
    d, p, q = family.dim_params, family.nrows, family.ncols
    k = p + q
    den = math.lcm(*(mat._den for mat in family.coeff_matrices))
    coeffs = {
        tuple(int(s == t) for s in range(d)): {
            pos // q * k + p + pos % q: x * (den // mat._den) for pos, x in enumerate(mat._ints) if x
        }
        for t, mat in enumerate(family.coeff_matrices)
    }
    return den, coeffs


def tier_one_oracle(family: LinearBlockFamily, seed: int = 0, random_samples: int = 200) -> TierOneResult:
    """Independent oracle for `has_tier_one_element`: the certificate of the
    per-step Fraction propagation, else the first candidate of the seeded
    witness stream whose block, summed in Fractions, has rank one."""
    certificate = _certify_zero_oracle(family, set(), family.dim_params)
    if certificate is not None:
        return TierOneResult("No", None, tuple(certificate))
    for point in _witness_candidates(family, seed, random_samples):
        if any(point) and rank(block_oracle(family, point)) == 1:
            return TierOneResult("Witness", point, None)
    return TierOneResult("Undecided", None, None)


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def exp_family_terms(nilpotent, nvars: int) -> list[list[dict]]:
    """The entries of exp(v_1 N + v_2 N^2 + ... + v_d N^d) for a nilpotent
    integer N, as {exponents: Fraction} term maps in d = nvars variables,
    expanded over the Fractions: the sum of X^j / j! for j below the size."""
    k = len(nilpotent)
    power = [[Fraction(int(r == c)) for c in range(k)] for r in range(k)]
    x = [[{} for _ in range(k)] for _ in range(k)]
    for i in range(nvars):
        power = [[sum(power[r][t] * nilpotent[t][c] for t in range(k)) for c in range(k)] for r in range(k)]
        unit = tuple(int(t == i) for t in range(nvars))
        for r, c in product(range(k), repeat=2):
            if power[r][c]:
                x[r][c][unit] = power[r][c]
    term = [[{(0,) * nvars: Fraction(1)} if r == c else {} for c in range(k)] for r in range(k)]
    total = [[dict(cell) for cell in row] for row in term]
    for j in range(1, k):
        nxt = [[{} for _ in range(k)] for _ in range(k)]
        for r, t, c in product(range(k), repeat=3):
            for e, coeff in _poly_mul(term[r][t], x[t][c]).items():
                nxt[r][c][e] = nxt[r][c].get(e, 0) + coeff / j
        term = nxt
        for r, c in product(range(k), repeat=2):
            for e, coeff in term[r][c].items():
                total[r][c][e] = total[r][c].get(e, 0) + coeff
    return [[{e: c for e, c in cell.items() if c} for cell in row] for row in total]


def group_from_terms(nvars: int, terms: list[list[dict]], check: bool = True) -> PolyParamGroup:
    return PolyParamGroup(nvars, len(terms), [[Poly(nvars, cell) for cell in row] for row in terms], check=check)


def _one_entry_family(k: int, cell: tuple[int, int], terms: dict) -> list[list[dict]]:
    entries = [[{(0,): Fraction(1)} if i == j else {} for j in range(k)] for i in range(k)]
    entries[cell[0]][cell[1]] = terms
    return entries


def _vanishing_on_small_points() -> dict:
    poly = {(0,): Fraction(1)}
    for root in range(-4, 5):
        poly = _poly_mul(poly, {(1,): Fraction(1), (0,): Fraction(-root)})
    return {e: c for e, c in poly.items() if c}


# One-parameter families that pass through I, stay below the degree limit and
# are not groups, as {exponents: coefficient} term maps.
NONGROUPS = {
    # f(v) = prod_{k=-4..4} (v - k) in entry (1, 10) of a 10 x 10 family: f
    # vanishes at u, v and u + v for all u, v in {-2..2}, yet rho(1)rho(4) != rho(5)
    "vanishing": _one_entry_family(10, (0, 9), _vanishing_on_small_points()),
    # v^2 alone in entry (1, 2) of a 3 x 3 family: E_12 E_12 = 0 and v^4 is no
    # term, so only the split (u + v)^2 = u^2 + 2uv + v^2 shows the cross term
    "square": _one_entry_family(3, (0, 1), {(2,): Fraction(1)}),
}


def group_document(terms: list[list[dict]]) -> dict:
    """The explicit JSON form of a family given as term maps."""
    return {
        "dim_params": len(next(iter(terms[0][0]))),
        "ambient": len(terms),
        "entries": [[[[str(c), list(e)] for e, c in sorted(cell.items())] for cell in row] for row in terms],
    }


# The off-diagonal cells of the two quadratic families, as
# {(row, col): (coefficient, variable, power)}.
_QUADRATIC_CELLS = {
    "M5": (4, 5, {
        (0, 1): (1, 0, 1), (0, 3): (Fraction(1, 2), 0, 2), (0, 4): (1, 1, 1),
        (1, 3): (1, 0, 1), (2, 3): (1, 2, 1), (2, 4): (1, 3, 1),
    }),
    "M6": (5, 6, {
        (0, 1): (1, 0, 1), (0, 2): (Fraction(1, 2), 0, 2), (0, 4): (1, 1, 1),
        (0, 5): (1, 2, 1), (1, 2): (1, 0, 1), (3, 4): (1, 3, 1), (3, 5): (1, 4, 1),
    }),
}


def builtin_poly_group_oracle(name: str, seed: SeedMatrix | None = None) -> PolyParamGroup:
    """Independent oracle for `builtin_group`: the group built from its grid
    of `Poly` cells through the public constructor.  M5 and M6 from their
    monomial cells; E from its block of variable names and LT from the rows
    of the seed, each as I plus the Fraction linear forms of the block in the
    upper-right corner."""
    if name in _QUADRATIC_CELLS:
        d, k, cells = _QUADRATIC_CELLS[name]
        grid = [[Poly.constant(int(i == j), d) for j in range(k)] for i in range(k)]
        for (i, j), (coeff, var, power) in cells.items():
            grid[i][j] = Poly.monomial(coeff, [power * (t == var) for t in range(d)], d)
        return PolyParamGroup(d, k, grid)
    if name == "E":
        d = len(_E_VARS)
        block = [[{_E_VARS.index(c): 1} if c != "0" else {} for c in row] for row in _E_BLOCK]
    else:
        m, n, rows = seed.m, seed.n, seed.matrix.rows
        d = m + n
        # a_j scales row j of T, and b_i is entry i of the last row
        block = [[{j: rows[j][i]} for i in range(n)] for j in range(m)] + [[{m + i: 1} for i in range(n)]]
    p, q = len(block), len(block[0])
    grid = [[Poly.constant(int(i == j), d) for j in range(p + q)] for i in range(p + q)]
    for i, j in product(range(p), range(q)):
        grid[i][p + j] = Poly(d, {tuple(int(s == var) for s in range(d)): c for var, c in block[i][j].items()})
    return PolyParamGroup(d, p + q, grid)


def dumps_oracle(obj) -> str:
    """Independent oracle for `jsonio.dumps`: `json.dumps(sort_keys=True)` of
    the document with each library value replaced by its wire form, written
    out by hand, and each float and int by a placeholder string; the
    placeholders are then replaced by the floats written as `.17g` and the
    ints through `Decimal`, which has no digit limit.  JSON types are matched
    exactly, so a subclass of one that is not an Enum raises TypeError."""
    raw: list[str] = []

    def placeholder(text: str) -> str:
        raw.append(text)
        return f"\x00raw{len(raw) - 1}\x00"

    def rational(num: int, den: int) -> str:
        return str(Decimal(num)) if den == 1 else f"{Decimal(num)}/{Decimal(den)}"

    def plain(obj):
        if isinstance(obj, Enum):
            return obj.value
        if obj is None or type(obj) in (bool, str):
            return obj
        if type(obj) is int:
            return placeholder(str(Decimal(obj)))
        if type(obj) is float:
            if math.isnan(obj) or math.isinf(obj):
                raise ValueError("cannot serialize non-finite float")
            return placeholder(format(obj, ".17g"))
        if isinstance(obj, Fraction):
            return rational(obj.numerator, obj.denominator)
        if isinstance(obj, ProjPoint):
            return [rational(x.numerator, x.denominator) for x in obj.coords]
        if isinstance(obj, QMatrix):
            return [[plain(x) for x in row] for row in obj.rows]
        if isinstance(obj, CrossRatioTuple):
            return [plain(p) for p in obj.entries]
        if isinstance(obj, UnorderedCrossRatio):
            return [plain(t) for t in obj.tuples]
        if isinstance(obj, frozenset):
            return [plain(x) for x in sorted(obj)]
        if type(obj) in (list, tuple):
            return [plain(x) for x in obj]
        if type(obj) is dict:
            keys = sorted(obj)  # values in key order, so the first error raised is the same
            if not all(isinstance(key, str) for key in keys):
                raise TypeError("non-string key")
            return {key: plain(obj[key]) for key in keys}
        if isinstance(obj, _Frozen) and obj._fields:
            return {name: plain(getattr(obj, name)) for name in obj._fields}
        raise TypeError(f"cannot serialize {type(obj).__name__}")

    text = json.dumps(plain(obj), sort_keys=True)
    return re.sub(r'"\\u0000raw(\d+)\\u0000"', lambda match: raw[int(match[1])], text)
