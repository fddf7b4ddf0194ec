"""Necessary conditions for membership in the limit family, and counterexamples.

Two obstructions are computable for a polynomially parameterized unipotent
group: flatness (the image spans an affine subspace of dimension equal to the
parameter count) and the existence of a rank-one direction in its linear
block.  The built-in groups are the two quadratic families in dimensions 5
and 6, the 8-dimensional linear family E whose block admits no rank-one
direction, and the seed-matrix groups, which pass both tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice, product
from math import prod as int_prod
from typing import Iterable, Optional, Sequence

from . import exactq
from .errors import (
    InternalError,
    RedundantParametersError,
    SampleCapExceededError,
    UnknownNameError,
)
from .exactq import QMatrix, _Frozen, rational
from .limits import SeedMatrix

BUILTIN_GROUP_NAMES = ("M5", "M6", "E", "LT")


class Poly(_Frozen):
    """Multivariate polynomial with rational coefficients.

    Just enough arithmetic to state matrix entries and evaluate them exactly:
    terms map exponent tuples to coefficients.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[dict[tuple[int, ...], Fraction]] = None):
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in (terms or {}).items():
            c = rational(coeff)
            if c == 0:
                continue
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for {nvars} variables")
            clean[tuple(exps)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __reduce__(self):
        return Poly, (self.nvars, self.terms)

    @classmethod
    def constant(cls, value: int | str | Fraction, nvars: int) -> "Poly":
        return cls(nvars, {(0,) * nvars: rational(value)})

    @classmethod
    def variable(cls, index: int, nvars: int, coeff: int | str | Fraction = 1) -> "Poly":
        exps = tuple(int(i == index) for i in range(nvars))
        return cls(nvars, {exps: rational(coeff)})

    @classmethod
    def monomial(
        cls, coeff: int | str | Fraction, exps: Sequence[int], nvars: int
    ) -> "Poly":
        return cls(nvars, {tuple(exps): rational(coeff)})

    def __add__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + c
        return Poly(self.nvars, terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for value, e in zip(point, exps):
                if e:
                    term *= value**e
            total += term
        return total

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def max_degrees(self) -> tuple[int, ...]:
        degs = [0] * self.nvars
        for exps in self.terms:
            for i, e in enumerate(exps):
                degs[i] = max(degs[i], e)
        return tuple(degs)

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {self.terms!r})"


def _deterministic_pairs(nvars: int, count: int = 10) -> list[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]:
    pairs = []
    for t in range(count):
        u = tuple(Fraction(((3 * t + 2 * i) % 5) - 2) for i in range(nvars))
        v = tuple(Fraction(((7 * t + 3 * i) % 5) - 2) for i in range(nvars))
        pairs.append((u, v))
    return pairs


class PolyParamGroup:
    """A matrix family v -> rho(v) with polynomial entries and rho(0) = I.

    Construction checks, in this order, that every entry has total degree
    below `ambient` (an additive family is exp(sum v_i N_i) with commuting
    nilpotent N_i) and the additivity rho(u)rho(v) = rho(u+v) on a fixed
    sample of ten parameter pairs; pass check=False for families that are
    deliberately not groups (the flatness machinery does not need the law).
    """

    def __init__(
        self,
        dim_params: int,
        ambient: int,
        entries: Sequence[Sequence[Poly]],
        *,
        check: bool = True,
    ):
        grid = tuple(tuple(row) for row in entries)
        if len(grid) != ambient or any(len(row) != ambient for row in grid):
            raise ValueError(f"entries must form an {ambient} x {ambient} grid")
        for row in grid:
            for p in row:
                if p.nvars != dim_params:
                    raise ValueError("entry polynomial has the wrong variable count")
        self.dim_params = dim_params
        self.ambient = ambient
        self.entries = grid
        constants = QMatrix(
            [[p.constant_term() for p in row] for row in grid]
        )
        if constants != QMatrix.identity(ambient):
            raise ValueError("family does not pass through the identity")
        if check:
            degree = max((sum(exps) for row in grid for p in row for exps in p.terms), default=0)
            if degree >= ambient:
                raise ValueError(f"an entry has total degree {degree}, not below the size {ambient}")
            for u, v in _deterministic_pairs(dim_params):
                uv = tuple(x + y for x, y in zip(u, v))
                if self.evaluate(u) * self.evaluate(v) != self.evaluate(uv):
                    raise ValueError("family is not additive on the check sample")

    def evaluate(self, point: Sequence[int | str | Fraction]) -> QMatrix:
        vals = [rational(x) for x in point]
        if len(vals) != self.dim_params:
            raise ValueError(f"expected {self.dim_params} parameters")
        return QMatrix(
            [[p.evaluate(vals) for p in row] for row in self.entries]
        )

    def max_degrees(self) -> tuple[int, ...]:
        degs = [0] * self.dim_params
        for row in self.entries:
            for p in row:
                for i, e in enumerate(p.max_degrees()):
                    degs[i] = max(degs[i], e)
        return tuple(degs)


class LinearBlockFamily:
    """The linear family v -> sum v_i B_i of p x q blocks.

    Dependent coefficient matrices are dropped (keeping the first independent
    subset) so the parameter count is honest; `reduced_from` records the
    original count when that happens.
    """

    def __init__(self, coeff_matrices: Sequence[QMatrix]):
        mats = list(coeff_matrices)
        if not mats:
            raise ValueError("need at least one coefficient matrix")
        shape = mats[0].shape
        if any(m.shape != shape for m in mats):
            raise ValueError("coefficient matrices of mixed shapes")
        kept = [
            mats[i]
            for i in exactq.independent_rows([[x for row in m.rows for x in row] for m in mats])
        ]
        self.coeff_matrices = tuple(kept)
        self.dim_params = len(kept)
        self.nrows, self.ncols = shape
        self.reduced_from = len(mats) if len(kept) != len(mats) else None

    def block(self, point: Sequence[int | str | Fraction]) -> QMatrix:
        vals = [rational(x) for x in point]
        if len(vals) != self.dim_params:
            raise ValueError(f"expected {self.dim_params} parameters")
        grid = [[Fraction(0)] * self.ncols for _ in range(self.nrows)]
        for v, mat in zip(vals, self.coeff_matrices):
            if v == 0:
                continue
            for i, row in enumerate(mat.rows):
                for j, x in enumerate(row):
                    if x:
                        grid[i][j] += v * x
        return QMatrix(grid)

    def entry_form(self, i: int, j: int) -> tuple[Fraction, ...]:
        """Coefficients of the linear form at block position (i, j)."""
        return tuple(mat.rows[i][j] for mat in self.coeff_matrices)


def _e_block_rows() -> list[list[str]]:
    return [
        ["0", "c", "g", "f"],
        ["c", "b", "f", "e"],
        ["b", "a", "e", "d"],
        ["a", "g", "d", "0"],
    ]


_E_VARS = "abcdefg"


def _e_coefficient_matrices() -> list[QMatrix]:
    mats = []
    rows = _e_block_rows()
    for var in _E_VARS:
        mats.append(
            QMatrix(
                [[Fraction(1) if cell == var else Fraction(0) for cell in row] for row in rows]
            )
        )
    return mats


def _lt_coefficient_matrices(seed: SeedMatrix) -> list[QMatrix]:
    m, n = seed.m, seed.n
    mats = []
    for j in range(m):
        grid = [[Fraction(0)] * n for _ in range(m + 1)]
        grid[j] = list(seed.matrix.rows[j])
        mats.append(QMatrix(grid))
    for i in range(n):
        grid = [[Fraction(0)] * n for _ in range(m + 1)]
        grid[m][i] = Fraction(1)
        mats.append(QMatrix(grid))
    return mats


def _unipotent_group_from_block(family: LinearBlockFamily) -> PolyParamGroup:
    d = family.dim_params
    p, q = family.nrows, family.ncols
    ambient = p + q
    entries = [
        [Poly.constant(int(i == j), d) for j in range(ambient)]
        for i in range(ambient)
    ]
    for i in range(p):
        for j in range(q):
            form = family.entry_form(i, j)
            terms = {}
            for k, c in enumerate(form):
                if c != 0:
                    exps = tuple(int(t == k) for t in range(d))
                    terms[exps] = c
            entries[i][p + j] = entries[i][p + j] + Poly(d, terms)
    return PolyParamGroup(d, ambient, entries)


# name -> (parameter count, size, {(row, col): (coefficient, variable, power)})
# for the off-diagonal entries of the two quadratic families.
_QUADRATIC_GROUPS = {
    "M5": (4, 5, {
        (0, 1): (1, 0, 1), (0, 3): (Fraction(1, 2), 0, 2), (0, 4): (1, 1, 1),
        (1, 3): (1, 0, 1), (2, 3): (1, 2, 1), (2, 4): (1, 3, 1),
    }),
    "M6": (5, 6, {
        (0, 1): (1, 0, 1), (0, 2): (Fraction(1, 2), 0, 2), (0, 4): (1, 1, 1),
        (0, 5): (1, 2, 1), (1, 2): (1, 0, 1), (3, 4): (1, 3, 1), (3, 5): (1, 4, 1),
    }),
}


def builtin_group(name: str, seed: Optional[SeedMatrix] = None) -> PolyParamGroup:
    """One of the named matrix families, as an exact polynomial group."""
    key = name.upper()
    if key in _QUADRATIC_GROUPS:
        d, ambient, cells = _QUADRATIC_GROUPS[key]
        rows = [[Poly.constant(int(i == j), d) for j in range(ambient)] for i in range(ambient)]
        for (i, j), (coeff, var, power) in cells.items():
            exps = tuple(power if t == var else 0 for t in range(d))
            rows[i][j] = Poly.monomial(coeff, exps, d)
        return PolyParamGroup(d, ambient, rows)
    if key in ("E", "LT"):
        return _unipotent_group_from_block(builtin_block_family(key, seed))
    raise UnknownNameError(f"unknown builtin group {name!r}")


def builtin_block_family(name: str, seed: Optional[SeedMatrix] = None) -> LinearBlockFamily:
    """The off-diagonal block family of a named unipotent group."""
    key = name.upper()
    if key == "E":
        return LinearBlockFamily(_e_coefficient_matrices())
    if key == "LT":
        if seed is None:
            raise ValueError("the LT family needs a seed matrix")
        return LinearBlockFamily(_lt_coefficient_matrices(seed))
    raise UnknownNameError(f"unknown builtin block family {name!r}")


# --- flatness ----------------------------------------------------------------


@dataclass(frozen=True)
class FlatnessReport:
    verdict: str  # "Flat" or "NotFlat"
    hull_dim: int
    dim_params: int
    sample_size: int
    grid_sizes: tuple[int, ...]
    witness_params: tuple[tuple[Fraction, ...], ...]


def flatness_check(group: PolyParamGroup, cap: int = 2000) -> FlatnessReport:
    """Compare the affine-hull dimension of the image with the parameter count.

    A grid with degree+1 values per variable determines every entry
    polynomial, so the hull of the sampled image equals the hull of the whole
    image: equality with dim_params certifies flatness, excess certifies the
    opposite.  The parameter vectors that grew the hull are reported.
    """
    sizes = tuple(d + 1 for d in group.max_degrees())
    total = int_prod(sizes)
    if total > cap:
        raise SampleCapExceededError(
            f"certifying grid has {total} points, above the cap of {cap}"
        )
    points = [tuple(Fraction(x) for x in combo) for combo in product(*(range(s) for s in sizes))]
    images = [[x for row in group.evaluate(p).rows for x in row] for p in points]
    base = images[0]
    grew = exactq.independent_rows([[x - y for x, y in zip(v, base)] for v in images[1:]])
    witnesses = [points[0]] + [points[i + 1] for i in grew]
    hull_dim = len(grew)
    if hull_dim < group.dim_params:
        raise RedundantParametersError(
            "image hull is smaller than the parameter count; parameters are redundant"
        )
    verdict = "Flat" if hull_dim == group.dim_params else "NotFlat"
    return FlatnessReport(
        verdict=verdict,
        hull_dim=hull_dim,
        dim_params=group.dim_params,
        sample_size=len(points),
        grid_sizes=sizes,
        witness_params=tuple(witnesses),
    )


# --- tier ---------------------------------------------------------------------


@dataclass(frozen=True)
class TierReport:
    tier: int
    witness: tuple[Fraction, ...]


_TIER_GRID_CAP = 200  # grid points at the head of `tier`'s sample stream
_TIER_RANDOM_COUNT = 50  # seeded random points at its tail


def _tier_sample(group: PolyParamGroup, seed: int):
    """The grid of degree+1 values per variable, the unit vectors, the
    all-ones vector, then seeded random rational vectors."""
    d = group.dim_params
    sizes = tuple(deg + 1 for deg in group.max_degrees())
    grid = product(*(range(s) for s in sizes))
    for combo in islice(grid, _TIER_GRID_CAP):
        yield tuple(Fraction(x) for x in combo)
    for i in range(d):
        yield tuple(Fraction(int(j == i)) for j in range(d))
    yield tuple(Fraction(1) for _ in range(d))
    rng = random.Random(seed)
    for _ in range(_TIER_RANDOM_COUNT):
        yield tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d))


def tier(group: PolyParamGroup, *, seed: int = 0) -> TierReport:
    """Max of rank(rho(v) - I) over a deterministic sample, with its first witness.

    No rank exceeds the bound min(rows, columns) over the rows and columns of
    rho(v) - I that are not identically zero, so the walk stops at the first
    point that reaches it: the witness is the one a full walk returns, and a
    tier equal to the bound is exact.  Below the bound the tier is the
    largest sampled rank, a lower bound with its witness.
    """
    # rho(0) = I, so an entry of rho(v) - I is zero iff it has no nonconstant term
    moving = [
        (i, j)
        for i, row in enumerate(group.entries)
        for j, p in enumerate(row)
        if any(any(exps) for exps in p.terms)
    ]
    bound = min(len({i for i, _ in moving}), len({j for _, j in moving}))
    ident = QMatrix.identity(group.ambient)
    best = -1
    best_point: Optional[tuple[Fraction, ...]] = None
    for point in _tier_sample(group, seed):
        r = exactq.rank(group.evaluate(point) - ident)
        if r > best:
            best = r
            best_point = point
            if best == bound:
                break
    assert best_point is not None
    return TierReport(best, best_point)


# --- rank-one directions --------------------------------------------------------


@dataclass(frozen=True)
class TierOneResult:
    kind: str  # "No", "Witness" or "Undecided"
    witness: Optional[tuple[Fraction, ...]]
    certificate: Optional[tuple]


def _minor_terms(
    family: LinearBlockFamily,
    rows: tuple[int, int],
    cols: tuple[int, int],
    zeroed: set[int],
) -> dict[tuple[int, int], Fraction]:
    """Coefficients of the 2x2 minor as a quadratic form, zeroed vars removed."""
    i1, i2 = rows
    j1, j2 = cols
    f = family.entry_form(i1, j1)
    g = family.entry_form(i2, j2)
    f2 = family.entry_form(i1, j2)
    g2 = family.entry_form(i2, j1)
    terms: dict[tuple[int, int], Fraction] = {}
    d = family.dim_params

    def accumulate(u, v, sign):
        for k in range(d):
            if u[k] == 0 or k in zeroed:
                continue
            for l in range(d):
                if v[l] == 0 or l in zeroed:
                    continue
                key = (k, l) if k <= l else (l, k)
                terms[key] = terms.get(key, Fraction(0)) + sign * u[k] * v[l]

    accumulate(f, g, 1)
    accumulate(f2, g2, -1)
    return {key: c for key, c in terms.items() if c != 0}


def _propagate(family: LinearBlockFamily, zeroed: set[int]):
    """Square-monomial forcing to a fixpoint.

    A minor that reduces to a single monomial c*v_k^2 forces v_k = 0 outright;
    single product monomials c*v_k*v_l only give a disjunction and are
    returned for branching.
    """
    zeroed = set(zeroed)
    steps: list[dict] = []
    row_pairs = list(combinations(range(family.nrows), 2))
    col_pairs = list(combinations(range(family.ncols), 2))
    while True:
        forced = False
        products: list[dict] = []
        for rows in row_pairs:
            for cols in col_pairs:
                terms = _minor_terms(family, rows, cols, zeroed)
                if len(terms) != 1:
                    continue
                ((k, l),) = terms.keys()
                if k == l:
                    if k not in zeroed:
                        zeroed.add(k)
                        steps.append(
                            {
                                "kind": "minor",
                                "rows": list(rows),
                                "cols": list(cols),
                                "monomial": [k, l],
                                "forced": k,
                            }
                        )
                        forced = True
                        break
                else:
                    products.append(
                        {"rows": list(rows), "cols": list(cols), "monomial": [k, l]}
                    )
            if forced:
                break
        if not forced:
            return zeroed, steps, products


def _certify_zero(family: LinearBlockFamily, zeroed: set[int], depth: int):
    zeroed, steps, products = _propagate(family, zeroed)
    if len(zeroed) == family.dim_params:
        return steps
    if depth <= 0:
        return None
    for prod_step in products:
        k, l = prod_step["monomial"]
        case_k = _certify_zero(family, zeroed | {k}, depth - 1)
        if case_k is None:
            continue
        case_l = _certify_zero(family, zeroed | {l}, depth - 1)
        if case_l is None:
            continue
        branch = dict(prod_step)
        branch["kind"] = "branch"
        branch["cases"] = [
            {"assume": k, "steps": case_k},
            {"assume": l, "steps": case_l},
        ]
        return steps + [branch]
    return None


def _witness_candidates(family: LinearBlockFamily, seed: int, random_samples: int):
    d = family.dim_params
    for i in range(d):
        yield tuple(Fraction(int(j == i)) for j in range(d))
    for i, j in combinations(range(d), 2):
        for sj in (1, -1):
            yield tuple(
                Fraction(1) if t == i else Fraction(sj) if t == j else Fraction(0)
                for t in range(d)
            )
    rng = random.Random(seed)
    for _ in range(random_samples):
        yield tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d))


def has_tier_one_element(
    family: LinearBlockFamily, *, seed: int = 0, random_samples: int = 200
) -> TierOneResult:
    """Decide whether some nonzero parameter gives a rank-one block.

    First the minor propagation: if it forces every variable to zero (using
    two-way branching for product monomials, which is the sound reading of a
    vanishing v_k*v_l), no rank-one direction exists and the chain is the
    certificate.  Otherwise a seeded search looks for an exact witness.
    Neither resolving yields Undecided, which is a value rather than an error.
    """
    certificate = _certify_zero(family, set(), family.dim_params)
    if certificate is not None:
        return TierOneResult("No", None, tuple(certificate))
    for point in _witness_candidates(family, seed, random_samples):
        if all(x == 0 for x in point):
            continue
        if exactq.rank(family.block(point)) == 1:
            return TierOneResult("Witness", point, None)
    return TierOneResult("Undecided", None, None)


def replay_certificate(
    family: LinearBlockFamily, steps: Sequence[dict], zeroed: Iterable[int] = ()
) -> bool:
    """Re-derive a propagation certificate step by step."""
    z = set(zeroed)
    for step in steps:
        terms = _minor_terms(
            family, tuple(step["rows"]), tuple(step["cols"]), z
        )
        if len(terms) != 1:
            return False
        ((k, l),) = terms.keys()
        if [k, l] != sorted(step["monomial"]):
            return False
        if step["kind"] == "minor":
            if k != l or step["forced"] != k:
                return False
            z.add(k)
        elif step["kind"] == "branch":
            if k == l or len(step["cases"]) != 2:
                return False
            assumed = sorted(case["assume"] for case in step["cases"])
            if assumed != [k, l]:
                return False
            return all(
                replay_certificate(family, case["steps"], z | {case["assume"]})
                for case in step["cases"]
            )
        else:
            return False
    return len(z) == family.dim_params


# --- tier flags -------------------------------------------------------------------


def flag_tier_profile(seed_matrix: SeedMatrix) -> tuple[int, ...]:
    """Tiers of the nested coordinate subgroups of a seed-matrix group, exactly.

    Level i frees the first i of the m+n parameters (a_1..a_m, b_1..b_n).
    rho(v) - I is the (m+1) x n block with rows a_j T_j and b, so the tier is
    rank(T[:i]) at a level i <= m, and at level m+k it is rank(T), plus one
    when e_1..e_k do not all lie in the row space of T.  One elimination of T
    stacked on I_n gives both: the rows independent of the rows before them.
    The bounds tier(H_i) <= i and tier(H_1) = 1 are asserted.
    """
    m, n = seed_matrix.m, seed_matrix.n
    kept = exactq.independent_rows(list(seed_matrix.matrix.rows) + list(QMatrix.identity(n).rows))
    rank_t = sum(1 for i in kept if i < m)
    profile = tuple(
        min(sum(1 for i in kept if i < level), rank_t + 1) for level in range(1, m + n + 1)
    )
    if any(value > level for level, value in enumerate(profile, 1)):
        raise InternalError(f"tier profile {profile} exceeds its levels; this is a bug")
    if profile[0] != 1:
        raise InternalError("level-one subgroup must have tier exactly 1")
    return profile
