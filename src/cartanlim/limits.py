"""The block-unipotent limit family attached to an m x n seed matrix.

A seed matrix T determines an abelian group of unipotent (m+n+1)-square
matrices, parameterized by m+n rationals.  This module builds those matrices,
computes the projective action and its orbit-dimension classification, and
decides conjugacy of two seed groups through the projective equivalence of
their dual exceptional-hyperplane configurations.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import exactq
from .errors import (
    DegenerateAlphaError,
    DimensionMismatchError,
    InternalError,
    NotGenericError,
    ShapeMismatchError,
    SingularError,
    TooFewRowsError,
    ZeroRowError,
)
from .exactq import QMatrix, _cleared, _deprecated, _Frozen, rational
from .projgeo import AugmentedBasis, ProjPoint, _brackets, _matvec, _primitive, projectively_equivalent


class SeedMatrix(_Frozen):
    """An immutable m x n rational matrix with no zero row, defining one limit group."""

    __slots__ = ("matrix", "_dual")  # _dual: the primitive rows and their minors, kept by `generic`
    _key = ("matrix",)

    def __init__(self, rows: Iterable[Iterable[int | str | Fraction]] | QMatrix):
        matrix = rows if isinstance(rows, QMatrix) else QMatrix(rows)
        for idx, row in enumerate(matrix._int_rows()):
            if not any(row):
                raise ZeroRowError(f"row {idx + 1} of the seed matrix is zero")
        self._set(matrix=matrix, _dual=None)

    @property
    def m(self) -> int:
        return self.matrix.nrows

    @property
    def n(self) -> int:
        return self.matrix.ncols

    @property
    def ambient(self) -> int:
        """Size of the matrices in the group: m + n + 1."""
        return self.m + self.n + 1

    @property
    def generic(self) -> bool:
        """True iff every n x n minor is nonzero: every n rows are independent."""
        if self._dual is None:
            rows = [_primitive(row) for row in self.matrix._int_rows()]
            self._set(_dual=(rows, _brackets(rows)))
        return self.m >= self.n and all(self._dual[1].values())

    def __repr__(self) -> str:
        return f"SeedMatrix({self.matrix!r})"


class GroupElementParams(_Frozen):
    """Parameter vector (a_1..a_m, b_1..b_n) of one group element."""

    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]

    @classmethod
    def make(
        cls,
        a: Sequence[int | str | Fraction],
        b: Sequence[int | str | Fraction],
    ) -> "GroupElementParams":
        return cls(tuple(rational(x) for x in a), tuple(rational(x) for x in b))

    @classmethod
    def zero(cls, seed: SeedMatrix) -> "GroupElementParams":
        _deprecated("GroupElementParams.zero(seed)", "GroupElementParams.make([0] * seed.m, [0] * seed.n)")
        return cls((Fraction(0),) * seed.m, (Fraction(0),) * seed.n)

    def __add__(self, other: "GroupElementParams") -> "GroupElementParams":
        _deprecated("GroupElementParams.__add__ (p + q)", "GroupElementParams.make(a, b) of the entrywise sums of p.a, q.a and of p.b, q.b")
        return GroupElementParams(
            tuple(x + y for x, y in zip(self.a, other.a)),
            tuple(x + y for x, y in zip(self.b, other.b)),
        )


def rho(seed: SeedMatrix, params: GroupElementParams) -> QMatrix:
    """The group element: identity plus an upper-right (m+1) x n block whose
    row j is a_j times row j of the seed, with bottom block row b."""
    m, n = seed.m, seed.n
    if len(params.a) != m or len(params.b) != n:
        raise DimensionMismatchError(
            f"parameters of shape ({len(params.a)}, {len(params.b)}) "
            f"for a seed with (m, n) = ({m}, {n})"
        )
    k = m + n + 1
    # Built on the integer form: den = den(T)·scale, with scale the lcm of
    # the parameter denominators.
    seed_den = seed.matrix._den
    scale, factors = _cleared((*params.a, *params.b))
    den = seed_den * scale
    ints = [0] * (k * k)
    ints[:: k + 1] = [den] * k
    for j, (row, factor) in enumerate(zip(seed.matrix._int_rows(), factors)):
        ints[j * k + m + 1 : (j + 1) * k] = [t * factor for t in row]
    ints[m * k + m + 1 : (m + 1) * k] = [seed_den * x for x in factors[m:]]
    return QMatrix._from_ints(den, ints, k)


def group_action(
    seed: SeedMatrix, params: GroupElementParams, point: ProjPoint
) -> ProjPoint:
    """Image ρ·x of a point of RP^{m+n} under the group element ρ.

    Coordinate j <= m gains a_j * phi_j(tail), coordinate m+1 gains the
    b-weighted sum of the tail, and the n tail coordinates are unchanged.
    """
    element = rho(seed, params)
    if point.n != element.ncols:
        raise DimensionMismatchError(
            f"point has {point.n} coordinates, expected {element.ncols}"
        )
    return ProjPoint._from_ints(_matvec(element._int_rows(), point.ints))


class OrbitKind(Enum):
    FIXED = "Fixed"
    EXCEPTIONAL = "Exceptional"
    TYPICAL = "Typical"


class OrbitClass(_Frozen):
    kind: OrbitKind
    dim: int
    vanishing: frozenset[int]


def orbit_dimension(seed: SeedMatrix, point: ProjPoint) -> OrbitClass:
    """Classify a point by the dimension of its orbit closure.

    Points with zero tail are fixed.  Otherwise the dimension is 1 plus the
    number of nonvanishing functionals phi_j at the tail: each nonvanishing
    phi_j contributes an independent affine direction and the b-row always
    contributes one.  The maximum m+1 marks the point as typical.
    """
    m, n = seed.m, seed.n
    if point.n != m + n + 1:
        raise DimensionMismatchError(
            f"point has {point.n} coordinates, expected {m + n + 1}"
        )
    tail = point.ints[m + 1 :]
    if not any(tail):
        return OrbitClass(OrbitKind.FIXED, 0, frozenset(range(1, m + 1)))
    # phi_j vanishes at the tail iff den(T)·T_j does at the integer tail
    vanishing = frozenset(j for j, x in enumerate(_matvec(seed.matrix._int_rows(), tail), 1) if not x)
    dim = 1 + (m - len(vanishing))
    kind = OrbitKind.TYPICAL if dim == m + 1 else OrbitKind.EXCEPTIONAL
    return OrbitClass(kind, dim, vanishing)


def exceptional_dual_basis(seed: SeedMatrix) -> AugmentedBasis:
    """Dual points of the m exceptional hyperplanes: the projectivized rows.

    Genericity of the seed is exactly general position of these points.
    """
    if seed.m < seed.n + 2:
        raise TooFewRowsError(
            f"need m >= n + 2 rows for an augmented basis, got m = {seed.m}"
        )
    if not seed.generic:
        raise NotGenericError("seed matrix is not generic")
    return AugmentedBasis._from_brackets(*seed._dual)


def conjugate_seed(seed: SeedMatrix, p: QMatrix) -> SeedMatrix:
    """The seed T·P obtained by the right action of an invertible P."""
    if p.nrows != p.ncols or p.nrows != seed.n:
        raise ShapeMismatchError(f"P must be {seed.n} x {seed.n}")
    if exactq.det(p) == 0:
        raise SingularError("P is singular")
    return SeedMatrix(seed.matrix * p)


def seed_conjugator(seed: SeedMatrix, p: QMatrix) -> QMatrix:
    """The block matrix I_{m+1} (+) P^{-1} conjugating the T-group onto the
    TP-group: it rescales the block columns by P on the right."""
    if p.nrows != p.ncols or p.nrows != seed.n:
        raise ShapeMismatchError(f"P must be {seed.n} x {seed.n}")
    return _conjugator(range(seed.m), p)


def _conjugator(sigma: Sequence[int], p: QMatrix) -> QMatrix:
    """Π·(I_{m+1} (+) P^{-1}) on the integer form (d, Y) of P^{-1}, Π sending
    axis j to axis sigma[j] for j < m: d at (sigma[j], j) and (m, m), then Y."""
    inv, m = exactq.inverse(p), len(sigma)
    k = m + 1 + p.ncols
    ints = [0] * (k * k)
    for j, i in enumerate([*sigma, m]):
        ints[i * k + j] = inv._den
    for r, row in enumerate(inv._int_rows(), m + 1):
        ints[r * k + m + 1 : (r + 1) * k] = row
    return QMatrix._from_ints(inv._den, ints, k)


def element_params(seed: SeedMatrix, matrix: QMatrix) -> Optional[GroupElementParams]:
    """Read the parameters of a group element off its block, or None.

    Membership is decided exactly on the integer form (den, ints): off the
    upper-right (m+1) x n block the matrix is den·I, and block row j < m is
    proportional to seed row j (integer cross-multiplication); block row m,
    the b-row, is free.
    """
    m, n = seed.m, seed.n
    k = m + n + 1
    if matrix.shape != (k, k):
        return None
    den, ints = matrix._den, matrix._ints
    for i in range(k):
        # Columns 0..m of rows 0..m, whole rows below: one den on the diagonal.
        row = ints[i * k : i * k + m + 1] if i <= m else ints[i * k : (i + 1) * k]
        if ints[i * k + i] != den or row.count(0) != len(row) - 1:
            return None
    seed_den, seed_ints = seed.matrix._den, seed.matrix._ints
    a = []
    for j in range(m):
        t, block = seed_ints[j * n : (j + 1) * n], ints[j * k + m + 1 : (j + 1) * k]
        q = next(filter(None, t))  # the first nonzero entry of the seed row
        p = block[t.index(q)]
        if any(x * q != p * y for x, y in zip(block, t)):
            return None
        a.append(Fraction(p * seed_den, den * q))
    b = [Fraction(x, den) for x in ints[m * k + m + 1 : (m + 1) * k]]
    return GroupElementParams(tuple(a), tuple(b))


def are_conjugate(left: SeedMatrix, right: SeedMatrix) -> Optional[QMatrix]:
    """A certified conjugator between the two seed groups, or None.

    The groups are conjugate iff the dual configurations of their seeds are
    projectively equivalent.  A dual witness gives an invertible P that
    makes row j of T·P a nonzero multiple of row σ(j) of S, with σ read off
    by matching the rows as points.  The returned witness
    W = Π·(I_{m+1} (+) P^{-1}), rational and defined up to scale, with Π
    sending axis j to axis σ(j) for j < m, maps ρ_T(a, b) to the identity
    plus the (m+1) x n block whose row σ(j) is a_j·(T·P)_j and whose row m
    is b·P.  So W·ρ_T(a, b)·W⁻¹ lies in the S-group for every (a, b) exactly
    when σ is a bijection: the matching is the certificate, and a moved row
    left without an unused match raises InternalError.
    """
    if (left.m, left.n) != (right.m, right.n):
        raise ShapeMismatchError(
            f"seed shapes ({left.m}, {left.n}) and ({right.m}, {right.n}) differ"
        )
    for seed in (left, right):
        if not seed.generic:
            raise NotGenericError("both seeds must be generic")
    dual_witness = projectively_equivalent(
        exceptional_dual_basis(left), exceptional_dual_basis(right)
    )
    if dual_witness is None:
        return None
    p = dual_witness.matrix.transpose()
    moved = left.matrix * p
    # Match the moved rows to the right rows as a bijection: at n = 1 every
    # row is the same dual point, so each takes the first unused index.
    targets: dict[tuple[int, ...], list[int]] = {}
    for i, row in enumerate(right._dual[0]):
        targets.setdefault(row, []).append(i)
    sigma = []
    for row in moved._int_rows():
        unused = targets.get(_primitive(row))
        if not unused:
            raise InternalError("the dual witness moves a seed row onto no unused row; this is a bug")
        sigma.append(unused.pop(0))
    return _conjugator(sigma, p)


_ALPHA_DEGENERATE = (Fraction(0), Fraction(1), Fraction(2))


def alpha_seed(alpha: int | str | Fraction) -> SeedMatrix:
    """The 4 x 2 seed with rows (1,0), (1,1), (1,2), (1,alpha)."""
    a = rational(alpha)
    if a in _ALPHA_DEGENERATE:
        raise DegenerateAlphaError(f"alpha = {a} collides with a fixed row")
    return SeedMatrix([[1, 0], [1, 1], [1, 2], [1, a]])


def alpha_orbit(alpha: int | str | Fraction) -> tuple[ProjPoint, ...]:
    """The six parameter values whose groups are conjugate to the one at alpha.

    Coincidences among the six expressions shrink the set; over the rationals
    that happens exactly on the harmonic locus, where it has 3 elements.  With
    alpha = p/q, the six values 2(a-1)/a, a/(2(a-1)), a/(2-a), (2-a)/a,
    2(a-1)/(a-2) and (a-2)/(2(a-1)) are the points of integer pairs.
    """
    a = rational(alpha)
    if a in _ALPHA_DEGENERATE:
        raise DegenerateAlphaError(f"alpha = {a} is degenerate")
    p, r, s = a.numerator, 2 * (a.numerator - a.denominator), 2 * a.denominator - a.numerator
    points = set(map(ProjPoint._from_ints, ((p, r), (r, p), (s, p), (p, s), (-s, r), (r, -s))))
    return tuple(sorted(points, key=ProjPoint.serialized))


def alpha_conjugacy_class(alpha: int | str | Fraction) -> tuple[Fraction, ...]:
    """All rational parameters beta whose seed group is conjugate to alpha's.

    Conjugacy holds exactly when the invariant sets alpha_orbit(alpha) and
    alpha_orbit(beta) are equal; solving value = beta/(2(beta-1)) for each
    invariant value gives the class.  A value of 1/2 corresponds to the point
    at infinity and contributes no rational parameter.
    """
    return _conjugate_params(alpha_orbit(alpha))


def _conjugate_params(orbit: Iterable[ProjPoint]) -> tuple[Fraction, ...]:
    """The class of `alpha_conjugacy_class` from the orbit: beta = 2y/(2y - x) per point [x : y]."""
    betas = {Fraction(2 * y, 2 * y - x) for x, y in (point.ints for point in orbit) if 2 * y != x}
    return tuple(sorted(betas.difference(_ALPHA_DEGENERATE)))


def normalized_slice_member(free_rows: QMatrix) -> SeedMatrix:
    """Stack I_n, the all-ones row, and the given rows into a generic seed.

    The dual configuration of such a seed begins with the standard projective
    basis, which is the normalization used by the slice of unique
    representatives.
    """
    n, den = free_rows.ncols, free_rows._den
    ints = [den * (i == j) for i in range(n) for j in range(n)] + [den] * n + list(free_rows._ints)
    try:
        seed = SeedMatrix(QMatrix._from_ints(den, ints, n))
    except ZeroRowError as exc:
        raise NotGenericError(str(exc)) from exc
    if not seed.generic:
        raise NotGenericError("stacked matrix is not generic")
    return seed
