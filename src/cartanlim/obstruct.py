"""Necessary conditions for membership in the limit family, and counterexamples.

Two obstructions are computable for a polynomially parameterized unipotent
group: flatness (the image spans an affine subspace of dimension equal to the
parameter count) and the existence of a rank-one direction in its linear
block.  The built-in groups are the two quadratic families in dimensions 5
and 6, the 8-dimensional linear family E whose block admits no rank-one
direction, and the seed-matrix groups, which pass both tests.

A group is compiled once into integers, rho(v) = I + sum_mu mu(v) C_mu / D;
the built-in groups are stated in that form directly, and their Poly entries
are derived only when read.  The exact group law, flatness (the rank of the
C_mu), the tier walk (over the block of rows and columns that some C_mu
touches) and the table of 2x2 minor forms of the rank-one search and of the
certificate replay all run on that form.
"""

from __future__ import annotations

import random
from functools import cached_property
from fractions import Fraction
from itertools import chain, combinations, islice, product
from math import comb, lcm, prod as int_prod
from operator import mul
from typing import Iterable, Optional, Sequence

from . import exactq
from .errors import (
    InternalError,
    RedundantParametersError,
    SampleCapExceededError,
    UnknownNameError,
)
from .exactq import QMatrix, _cleared, _Frozen, rational
from .limits import SeedMatrix

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
        self._set(nvars=nvars, terms=clean)

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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

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


class PolyParamGroup:
    """A matrix family v -> rho(v) with polynomial entries and rho(0) = I.

    The entries are compiled once into rho(v) = I + sum_mu mu(v) C_mu / D, with
    one integer vector C_mu of the k*k entries per nonconstant monomial mu;
    `_from_coeffs` takes that form directly, and `entries` is derived from it.
    With check=True construction then checks, in this order, that every entry
    has total degree below `ambient` (an additive family is exp(sum v_i N_i)
    with commuting nilpotent N_i) and that rho(u)rho(v) = rho(u+v) holds as a
    polynomial identity; pass check=False for families that are deliberately
    not groups (the flatness machinery does not need the law).
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
        cells = [p for row in grid for p in row]
        if any(p.nvars != dim_params for p in cells):
            raise ValueError("entry polynomial has the wrong variable count")
        if any(p.constant_term() != int(pos // ambient == pos % ambient) for pos, p in enumerate(cells)):
            raise ValueError("family does not pass through the identity")
        den = lcm(*(c.denominator for p in cells for c in p.terms.values()))
        coeffs: dict[tuple[int, ...], dict[int, int]] = {}
        for pos, p in enumerate(cells):
            for exps, c in p.terms.items():
                if any(exps):
                    coeffs.setdefault(exps, {})[pos] = c.numerator * (den // c.denominator)
        self._compile(dim_params, ambient, den, coeffs, check)

    @classmethod
    def _from_coeffs(
        cls, dim_params: int, ambient: int, den: int, coeffs: dict, *, check: bool = True
    ) -> "PolyParamGroup":
        """The group I + sum_mu mu(v) C_mu / D from D and {mu: {k*i + j: C_mu[i, j]}}
        (nonzero integers, nonconstant monomials), with the checks of __init__."""
        group = cls.__new__(cls)
        group._compile(dim_params, ambient, den, coeffs, check)
        return group

    def _compile(self, dim_params: int, ambient: int, den: int, coeffs: dict, check: bool) -> None:
        self.dim_params = dim_params
        self.ambient = ambient
        self._den = den
        self._coeffs = coeffs  # mu -> {k*i + j: C_mu[i, j]}
        self._degree = max(map(sum, coeffs), default=0)
        if check:
            if self._degree >= ambient:
                raise ValueError(f"an entry has total degree {self._degree}, not below the size {ambient}")
            if not self._is_additive():
                raise ValueError("family is not additive: rho(u)rho(v) != rho(u+v)")

    @cached_property
    def entries(self) -> tuple[tuple[Poly, ...], ...]:
        """The entry polynomials, derived from the C_mu on first read."""
        k, d = self.ambient, self.dim_params
        cells = [{(0,) * d: int(pos % (k + 1) == 0)} for pos in range(k * k)]
        for mu, vec in self._coeffs.items():
            for pos, c in vec.items():
                cells[pos][mu] = Fraction(c, self._den)
        return tuple(tuple(Poly(d, cell) for cell in cells[i : i + k]) for i in range(0, k * k, k))

    def _is_additive(self) -> bool:
        """The coefficients of u^a v^b (a, b != 0) agree on both sides:
        C_a C_b = D binom(a+b, a) C_{a+b} for monomials a and b (C is zero off
        the monomials), and every split c = a + b of a monomial c is a pair of them.
        Only pairs where a column of C_a meets a row of C_b, or a + b is a monomial, can fail."""
        k, coeffs = self.ambient, self._coeffs
        # a monomial lowered in one exponent is 1 or a monomial: then so is every part of it
        lowered = (c[:i] + (e - 1,) + c[i + 1 :] for c in coeffs for i, e in enumerate(c) if e)
        if any(any(lower) and lower not in coeffs for lower in lowered):
            return False
        rows: dict[int, set] = {}  # row -> the monomials with an entry in it
        for b, vec in coeffs.items():
            for pos in vec:
                rows.setdefault(pos // k, set()).add(b)
        parts = ((a, c) for c in coeffs for a in product(*(range(e + 1) for e in c)) if 0 < sum(a) < sum(c))
        splits = {(a, tuple(x - y for x, y in zip(c, a))) for a, c in parts}
        chained = ((a, b) for a, vec in coeffs.items() for b in set().union(*(rows.get(p % k, ()) for p in vec)))
        for a, b in chain(splits, (pair for pair in chained if pair not in splits)):
            left: dict[int, int] = {}
            for pos_a, x in coeffs[a].items():
                for pos_b, y in coeffs[b].items():
                    if pos_a % k == pos_b // k:
                        pos = pos_a - pos_a % k + pos_b % k
                        left[pos] = left.get(pos, 0) + x * y
            scale = self._den * int_prod(comb(x + y, x) for x, y in zip(a, b))
            right = coeffs.get(tuple(x + y for x, y in zip(a, b)), {})
            if {pos: x for pos, x in left.items() if x} != {pos: scale * x for pos, x in right.items()}:
                return False
        return True

    def _combine(self, scale: int, ws: Sequence[int], forms: Iterable[dict[int, int]], size: int) -> list[int]:
        """The `size` integers sum_mu w^mu L^(deg - |mu|) forms[mu] at the
        point w / L, one form {index: coefficient} per monomial in order."""
        deg = self._degree
        ints = [0] * size
        for mu, form in zip(self._coeffs, forms):
            factor = int_prod(map(pow, ws, mu)) * scale ** (deg - sum(mu))
            if factor:
                for pos, c in form.items():
                    ints[pos] += factor * c
        return ints

    def evaluate(self, point: Sequence[int | str | Fraction]) -> QMatrix:
        # rho(w/L) times D L^deg is D L^deg I + sum_mu w^mu L^(deg - |mu|) C_mu
        scale, ws = _cleared(map(rational, point))
        if len(ws) != self.dim_params:
            raise ValueError(f"expected {self.dim_params} parameters")
        k = self.ambient
        ints = self._combine(scale, ws, self._coeffs.values(), k * k)
        den = self._den * scale**self._degree
        ints[:: k + 1] = [x + den for x in ints[:: k + 1]]
        return QMatrix._from_ints(den, ints, k)

    def max_degrees(self) -> tuple[int, ...]:
        return tuple(max((mu[i] for mu in self._coeffs), default=0) for i in range(self.dim_params))


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
        kept = [mats[i] for i in exactq.independent_rows([m._ints for m in mats])]
        self.coeff_matrices = tuple(kept)
        self.dim_params = len(kept)
        self.nrows, self.ncols = shape
        self.reduced_from = len(mats) if len(kept) != len(mats) else None
        self._den = den = lcm(*(mat._den for mat in kept))
        # per block entry, row-major: its linear form D·(B_1, ..., B_d)[i, j], D the common denominator
        self._forms = tuple(tuple(mat._ints[pos] * (den // mat._den) for mat in kept) for pos in range(len(mats[0]._ints)))

    def block(self, point: Sequence[int | str | Fraction]) -> QMatrix:
        scale, ws = _cleared(map(rational, point))
        if len(ws) != self.dim_params:
            raise ValueError(f"expected {self.dim_params} parameters")
        ints = [sum(map(mul, ws, form)) for form in self._forms]
        return QMatrix._from_ints(self._den * scale, ints, self.ncols)


_E_BLOCK = ("0cgf", "cbfe", "baed", "agd0")  # the 4 x 4 block of E, a variable or 0 per cell
_E_VARS = "abcdefg"


def _e_coefficient_matrices() -> list[QMatrix]:
    return [QMatrix._from_ints(1, [int(cell == var) for row in _E_BLOCK for cell in row], 4) for var in _E_VARS]


def _lt_coefficient_matrices(seed: SeedMatrix) -> list[QMatrix]:
    # a_j puts row j of T in row j of the block, b_i puts e_i in its last row
    m, n, t = seed.m, seed.n, seed.matrix

    def placed(r: int, den: int, row: Sequence[int]) -> QMatrix:
        return QMatrix._from_ints(den, [0] * (r * n) + list(row) + [0] * ((m - r) * n), n)

    a = [placed(j, t._den, t._ints[j * n : (j + 1) * n]) for j in range(m)]
    return a + [placed(m, 1, [int(i == c) for c in range(n)]) for i in range(n)]


def _unipotent_group_from_block(family: LinearBlockFamily) -> PolyParamGroup:
    """I plus the block family in the upper-right corner: C_{e_t} is
    coefficient matrix t over the family's common denominator D."""
    d, p, q = family.dim_params, family.nrows, family.ncols
    k = p + q
    coeffs = {
        tuple(int(s == t) for s in range(d)): {
            pos // q * k + p + pos % q: form[t] for pos, form in enumerate(family._forms) if form[t]
        }
        for t in range(d)
    }
    return PolyParamGroup._from_coeffs(d, k, family._den, coeffs)


# name -> (parameter count, size, {mu: {k*i + j: C_mu[i, j]}}) of the two
# quadratic families over D = 2: the a^2/2 entry is the lone C = 1.
_QUADRATIC_GROUPS = {
    "M5": (4, 5, {
        (1, 0, 0, 0): {1: 2, 8: 2}, (2, 0, 0, 0): {3: 1}, (0, 1, 0, 0): {4: 2},
        (0, 0, 1, 0): {13: 2}, (0, 0, 0, 1): {14: 2},
    }),
    "M6": (5, 6, {
        (1, 0, 0, 0, 0): {1: 2, 8: 2}, (2, 0, 0, 0, 0): {2: 1}, (0, 1, 0, 0, 0): {4: 2},
        (0, 0, 1, 0, 0): {5: 2}, (0, 0, 0, 1, 0): {22: 2}, (0, 0, 0, 0, 1): {23: 2},
    }),
}


def builtin_group(name: str, seed: Optional[SeedMatrix] = None) -> PolyParamGroup:
    """One of the named matrix families, as an exact polynomial group."""
    key = name.upper()
    if key in _QUADRATIC_GROUPS:
        d, ambient, coeffs = _QUADRATIC_GROUPS[key]
        return PolyParamGroup._from_coeffs(d, ambient, 2, coeffs)
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


class FlatnessReport(_Frozen):
    verdict: str  # "Flat" or "NotFlat"
    hull_dim: int
    dim_params: int
    sample_size: int
    grid_sizes: tuple[int, ...]
    witness_params: tuple[tuple[Fraction, ...], ...]


def flatness_check(group: PolyParamGroup, cap: int = 2000) -> FlatnessReport:
    """Compare the affine-hull dimension of the image with the parameter count.

    The monomials are linearly independent functions, so the hull of the
    image is I + span{C_mu} and its dimension is the rank of the compiled
    coefficients: equality with dim_params certifies flatness, excess
    certifies the opposite.  A grid with degree+1 values per variable spans
    the same hull; the parameter vectors that grew it are reported, and its
    images are mapped in order only up to the last of them.
    """
    sizes = tuple(d + 1 for d in group.max_degrees())
    total = int_prod(sizes)
    if total > cap:
        raise SampleCapExceededError(
            f"certifying grid has {total} points, above the cap of {cap}"
        )
    coeffs = group._coeffs
    # the positions where the C_mu are independent carry their span faithfully
    touched = sorted({pos for vec in coeffs.values() for pos in vec})
    by_position = [[vec.get(pos, 0) for vec in coeffs.values()] for pos in touched]
    columns = [by_position[i] for i in exactq.independent_rows(by_position)]
    hull_dim = len(columns)
    points = list(product(*(range(s) for s in sizes)))
    values = ([int_prod(map(pow, p, mu)) for mu in coeffs] for p in points[1:])  # rho(0) - I = 0
    images = ([sum(map(mul, vals, col)) for col in columns] for vals in values)
    grew = exactq.independent_rows(images, hull_dim)
    if len(grew) != hull_dim:
        raise InternalError(f"the grid spans {len(grew)} dimensions, the coefficients {hull_dim}; this is a bug")
    witnesses = [tuple(map(Fraction, points[i])) for i in [0, *(i + 1 for i in grew)]]
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


class TierReport(_Frozen):
    tier: int
    witness: tuple[Fraction, ...]


_TIER_GRID_CAP = 200  # grid points at the head of `tier`'s sample stream
_TIER_RANDOM_COUNT = 50  # seeded random points at its tail


def _tier_sample(group: PolyParamGroup, seed: int):
    """The grid of degree+1 values per variable, the unit vectors, the
    all-ones vector, then seeded random rational vectors; each point w / L
    as (L, w) with w integers, and L = 1 but at the random ones."""
    d = group.dim_params
    sizes = tuple(deg + 1 for deg in group.max_degrees())
    grid = product(*(range(s) for s in sizes))
    yield from ((1, combo) for combo in islice(grid, _TIER_GRID_CAP))
    for i in range(d):
        yield 1, tuple(int(j == i) for j in range(d))
    yield 1, (1,) * d
    rng = random.Random(seed)
    for _ in range(_TIER_RANDOM_COUNT):
        yield _cleared([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d)])


def tier(group: PolyParamGroup, *, seed: int = 0) -> TierReport:
    """Max of rank(rho(v) - I) over a deterministic sample, with its first witness.

    No rank exceeds the bound min(rows, columns) over the rows and columns of
    rho(v) - I that are not identically zero, so the walk stops at the first
    point that reaches it: the witness is the one a full walk returns, and a
    tier equal to the bound is exact.  Below the bound the tier is the
    largest sampled rank, a lower bound with its witness.  Only the block of
    those rows and columns is built and ranked, in integers; the witness is
    made Fractions only at a point that is the best so far.
    """
    k = group.ambient
    moving = {divmod(pos, k) for vec in group._coeffs.values() for pos in vec}
    rows, cols = sorted({i for i, _ in moving}), sorted({j for _, j in moving})
    bound = min(len(rows), len(cols))
    # the forms of the moving block alone, scaled as in `evaluate`
    q = len(cols)
    at = {i * k + j: a * q + b for a, i in enumerate(rows) for b, j in enumerate(cols)}
    forms = [{at[pos]: c for pos, c in vec.items()} for vec in group._coeffs.values()]
    best = -1
    best_point: Optional[tuple[Fraction, ...]] = None
    for scale, ws in _tier_sample(group, seed):
        block = group._combine(scale, ws, forms, len(at))
        r = len(exactq._eliminate([block[i : i + q] for i in range(0, len(block), q)])) if block else 0
        if r > best:
            best = r
            best_point = tuple(Fraction(w, scale) for w in ws)
            if best == bound:
                break
    assert best_point is not None
    return TierReport(best, best_point)


# --- rank-one directions --------------------------------------------------------


class TierOneResult(_Frozen):
    kind: str  # "No", "Witness" or "Undecided"
    witness: Optional[tuple[Fraction, ...]]
    certificate: Optional[tuple]

    def __hash__(self) -> int:
        # a "No" certificate holds dicts and lists; equal results share the rest
        return hash((self.kind, self.witness))


def _minor_table(family: LinearBlockFamily) -> list[tuple[tuple[int, int], tuple[int, int], list]]:
    """(rows, cols, monomials (k, l), k <= l) of every 2x2 minor's quadratic
    form, in scan order.  The integer forms scale the coefficient of v_k*v_l
    by D² > 0, so the surviving monomials are those of the rational form."""
    q = family.ncols
    forms = [[(t, x) for t, x in enumerate(form) if x] for form in family._forms]
    table = []
    for (i1, i2), (j1, j2) in product(combinations(range(family.nrows), 2), combinations(range(q), 2)):
        terms: dict[tuple[int, int], int] = {}
        for u, v, sign in ((forms[i1 * q + j1], forms[i2 * q + j2], 1), (forms[i1 * q + j2], forms[i2 * q + j1], -1)):
            for k, x in u:
                for l, y in v:
                    key = (k, l) if k <= l else (l, k)
                    terms[key] = terms.get(key, 0) + sign * x * y
        table.append(((i1, i2), (j1, j2), [key for key, c in terms.items() if c]))
    return table


def _propagate(table: list, zeroed: set[int]):
    """Square-monomial forcing to a fixpoint over the minor table.

    A minor that reduces to a single monomial c*v_k^2 forces v_k = 0 outright;
    single product monomials c*v_k*v_l only give a disjunction and are
    returned for branching.
    """
    zeroed = set(zeroed)
    steps: list[dict] = []
    while True:
        products: list[dict] = []
        for rows, cols, monomials in table:
            live = [(k, l) for k, l in monomials if k not in zeroed and l not in zeroed]
            if len(live) != 1:
                continue
            ((k, l),) = live
            if k == l:
                zeroed.add(k)
                steps.append({"kind": "minor", "rows": list(rows), "cols": list(cols), "monomial": [k, l], "forced": k})
                break
            products.append({"rows": list(rows), "cols": list(cols), "monomial": [k, l]})
        else:
            return zeroed, steps, products


def _certify_zero(table: list, dim_params: int, zeroed: set[int], depth: int):
    zeroed, steps, products = _propagate(table, zeroed)
    if len(zeroed) == dim_params:
        return steps
    if depth <= 0:
        return None
    for prod_step in products:
        k, l = prod_step["monomial"]
        case_k = _certify_zero(table, dim_params, zeroed | {k}, depth - 1)
        if case_k is None:
            continue
        case_l = _certify_zero(table, dim_params, zeroed | {l}, depth - 1)
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
            yield tuple(Fraction(1 if t == i else sj if t == j else 0) for t in range(d))
    rng = random.Random(seed)
    for _ in range(random_samples):
        yield tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d))


def has_tier_one_element(
    family: LinearBlockFamily, *, seed: int = 0, random_samples: int = 200
) -> TierOneResult:
    """Decide whether some nonzero parameter gives a rank-one block.

    The unit vectors first, then the minor propagation: if it forces every
    variable to zero (using two-way branching for product monomials, which is
    the sound reading of a vanishing v_k*v_l), no rank-one direction exists
    and the chain is the certificate.  Otherwise the seeded search goes on
    for an exact witness.  Neither resolving yields Undecided, a value.
    """
    candidates = _witness_candidates(family, seed, random_samples)
    for point in chain(islice(candidates, family.dim_params), [None], candidates):
        if point is None:  # a certificate means that no witness exists
            certificate = _certify_zero(_minor_table(family), family.dim_params, set(), family.dim_params)
            if certificate is not None:
                return TierOneResult("No", None, tuple(certificate))
        elif any(point) and exactq.rank(family.block(point)) == 1:
            return TierOneResult("Witness", point, None)
    return TierOneResult("Undecided", None, None)


def replay_certificate(
    family: LinearBlockFamily, steps: Sequence[dict], zeroed: Iterable[int] = ()
) -> bool:
    """Re-derive a propagation certificate step by step."""
    forms = {(rows, cols): monomials for rows, cols, monomials in _minor_table(family)}

    def ints(values: Iterable) -> list[int]:  # sorted; a bool or a float equal to an index is no index
        values = sorted(values)
        if any(type(x) is not int for x in values):
            raise TypeError("certificate indices are integers")
        return values

    def replay(steps: Sequence[dict], z: set[int]) -> bool:
        for step in steps:
            rows, cols, monomial = (ints(step[key]) for key in ("rows", "cols", "monomial"))
            live = [[k, l] for k, l in forms.get((tuple(rows), tuple(cols)), ()) if k not in z and l not in z]
            if live != [monomial]:
                return False
            ((k, l),) = live
            if step["kind"] == "minor" and k == l == ints([step["forced"]])[0]:
                z = z | {k}
            elif step["kind"] == "branch" and k != l and ints(case["assume"] for case in step["cases"]) == [k, l]:
                return all(replay(case["steps"], z | {case["assume"]}) for case in step["cases"])
            else:
                return False
        return len(z) == family.dim_params

    try:
        return replay(steps, set(zeroed))
    except (KeyError, TypeError):  # a step that lacks a key or holds a value of the wrong type
        return False


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
    kept = exactq.independent_rows(seed_matrix.matrix._int_rows() + [[int(i == j) for j in range(n)] for i in range(n)])
    rank_t = sum(1 for i in kept if i < m)
    profile = tuple(
        min(sum(1 for i in kept if i < level), rank_t + 1) for level in range(1, m + n + 1)
    )
    if any(value > level for level, value in enumerate(profile, 1)):
        raise InternalError(f"tier profile {profile} exceeds its levels; this is a bug")
    if profile[0] != 1:
        raise InternalError("level-one subgroup must have tier exactly 1")
    return profile
