"""Projective points, transformations, and the generalized cross-ratio invariant.

A point of RP^{n-1} is stored as its primitive integer vector: the unique
integer representative with gcd 1 whose first nonzero coordinate is positive.
A transform is stored the same way, as its primitive integer matrix.  So
equality of points, tuples and invariant sets is plain structural equality on
integers, and the enumerations never create a Fraction.  The rational
`coords` and `matrix` (first nonzero entry scaled to 1) are derived only when
read.  The unordered cross ratio of an augmented basis is a complete
invariant of the configuration up to projective equivalence, and
`projectively_equivalent` decides that equivalence directly, with a search
over ordered (n+1)-point assignments instead of the full permutation group.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, prod
from operator import mul
from typing import Iterable, Optional, Sequence, Union

from . import exactq
from .errors import (
    CapExceededError,
    DegenerateBasisError,
    DimensionMismatchError,
    NotAugmentedBasisError,
    SingularError,
    SizeMismatchError,
    ZeroVectorError,
)
from .exactq import QMatrix, _cleared, _format_ratio, rational

#: Largest m for which unordered_cross_ratio will enumerate all m! orderings.
DEFAULT_PERMUTATION_CAP = 8


def _primitive(values: Sequence[int]) -> tuple[int, ...]:
    """Divide a nonzero integer vector by its gcd, signed so the first
    nonzero entry is positive."""
    g = gcd(*values)
    if next(x for x in values if x) < 0:
        g = -g
    if g == 1:
        return tuple(values)
    return tuple(x // g for x in values)


def _primitive_matrix(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """`_primitive` of a nonzero square integer matrix read in row-major order."""
    n = len(rows)
    flat = _primitive([x for row in rows for x in row])
    return tuple(flat[i * n : (i + 1) * n] for i in range(n))


def _matvec(rows: Sequence[Sequence[int]], vec: Sequence[int]) -> list[int]:
    return [sum(map(mul, row, vec)) for row in rows]


class ProjPoint:
    """A point of RP^{n-1}, keyed by its primitive integer vector `ints`."""

    __slots__ = ("ints",)

    def __init__(self, coords: Iterable[int | str | Fraction]):
        raw = [rational(c) for c in coords]
        if not raw:
            raise ZeroVectorError("empty coordinate vector")
        _, ints = _cleared(raw)
        if not any(ints):
            raise ZeroVectorError("all homogeneous coordinates are zero")
        object.__setattr__(self, "ints", _primitive(ints))

    @classmethod
    def _from_ints(cls, ints: Sequence[int]) -> "ProjPoint":
        """The point of a nonzero integer vector."""
        point = object.__new__(cls)
        object.__setattr__(point, "ints", _primitive(ints))
        return point

    def __setattr__(self, name, value):
        raise AttributeError("ProjPoint is immutable")

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """Rational coordinates with the first nonzero one equal to 1."""
        pivot = next(x for x in self.ints if x)
        return tuple(Fraction(x, pivot) for x in self.ints)

    @property
    def n(self) -> int:
        return len(self.ints)

    def affine_value(self) -> Optional[Fraction]:
        """x2/x1 for a point [x1 : x2] of RP^1; None for the point at infinity."""
        if self.ints[0] == 0:
            return None
        return Fraction(self.ints[1], self.ints[0])

    def serialized(self) -> tuple[str, ...]:
        pivot = next(x for x in self.ints if x)
        return tuple(_format_ratio(x, pivot) for x in self.ints)

    def __eq__(self, other) -> bool:
        return isinstance(other, ProjPoint) and self.ints == other.ints

    def __hash__(self) -> int:
        return hash(self.ints)

    def __repr__(self) -> str:
        return "[" + " : ".join(self.serialized()) + "]"


class ProjTransform:
    """An invertible transformation of RP^{n-1}, keyed by its primitive
    integer matrix `ints` (gcd of all entries 1, first nonzero entry in
    row-major order positive); equality of transforms is equality of keys.
    """

    __slots__ = ("ints",)

    def __init__(self, matrix: QMatrix):
        if matrix.nrows != matrix.ncols:
            raise DimensionMismatchError("projective transform matrix must be square")
        if exactq.det(matrix) == 0:
            raise SingularError("projective transform matrix must be invertible")
        n = matrix.nrows
        _, flat = _cleared(x for row in matrix.rows for x in row)
        rows = [flat[i * n : (i + 1) * n] for i in range(n)]
        object.__setattr__(self, "ints", _primitive_matrix(rows))

    @classmethod
    def _from_ints(cls, rows: Sequence[Sequence[int]]) -> "ProjTransform":
        """The transform of an integer matrix the caller knows is invertible."""
        transform = object.__new__(cls)
        object.__setattr__(transform, "ints", _primitive_matrix(rows))
        return transform

    def __setattr__(self, name, value):
        raise AttributeError("ProjTransform is immutable")

    @property
    def matrix(self) -> QMatrix:
        """The rational matrix with first nonzero entry (row-major) equal to 1."""
        pivot = next(x for row in self.ints for x in row if x)
        return QMatrix([Fraction(x, pivot) for x in row] for row in self.ints)

    @property
    def n(self) -> int:
        return len(self.ints)

    def __call__(self, point: ProjPoint) -> ProjPoint:
        if point.n != self.n:
            raise DimensionMismatchError("point and transform live in different dimensions")
        return ProjPoint._from_ints(_matvec(self.ints, point.ints))

    def inverse(self) -> "ProjTransform":
        return ProjTransform._from_ints(exactq.integer_adjugate(self.ints))

    def compose(self, other: "ProjTransform") -> "ProjTransform":
        """The transform `self after other`."""
        if other.n != self.n:
            raise DimensionMismatchError("transforms live in different dimensions")
        cols = list(zip(*other.ints))
        return ProjTransform._from_ints([_matvec(cols, row) for row in self.ints])

    def __eq__(self, other) -> bool:
        return isinstance(other, ProjTransform) and self.ints == other.ints

    def __hash__(self) -> int:
        return hash(self.ints)

    def __repr__(self) -> str:
        return f"ProjTransform({self.matrix!r})"


def _common_dimension(points: Sequence[ProjPoint]) -> int:
    n = points[0].n
    if any(p.n != n for p in points):
        raise DimensionMismatchError("points live in different projective spaces")
    return n


def general_position(points: Sequence[ProjPoint]) -> bool:
    """True iff every n of the homogeneous coordinate vectors are independent.

    Equivalently, every (n+1)-subset of the points is a projective basis.
    """
    pts = list(points)
    if not pts:
        raise DimensionMismatchError("no points given")
    n = _common_dimension(pts)
    if len(pts) < n + 1:
        raise DimensionMismatchError(f"need at least {n + 1} points in RP^{n - 1}")
    for subset in combinations(pts, n):
        if len(exactq.independent_rows([p.ints for p in subset])) < n:
            return False
    return True


class AugmentedBasis:
    """m >= n+2 points of RP^{n-1} in general position."""

    __slots__ = ("points", "n")

    def __init__(self, points: Iterable[ProjPoint]):
        pts = tuple(points)
        if not pts:
            raise NotAugmentedBasisError("no points given")
        n = pts[0].n
        if len(pts) < n + 2:
            raise NotAugmentedBasisError(
                f"augmented basis in RP^{n - 1} needs at least {n + 2} points, got {len(pts)}"
            )
        if not general_position(pts):
            raise NotAugmentedBasisError("points are not in general position")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("AugmentedBasis is immutable")

    @property
    def m(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other) -> bool:
        return isinstance(other, AugmentedBasis) and self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"AugmentedBasis({list(self.points)!r})"


class CrossRatioTuple:
    """Ordered tuple of m-(n+1) points: one ordered cross-ratio value."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[ProjPoint]):
        object.__setattr__(self, "entries", tuple(entries))

    def __setattr__(self, name, value):
        raise AttributeError("CrossRatioTuple is immutable")

    def sort_key(self) -> tuple[tuple[str, ...], ...]:
        return tuple(p.serialized() for p in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, CrossRatioTuple) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"CrossRatioTuple({list(self.entries)!r})"


class UnorderedCrossRatio:
    """Deduplicated set of cross-ratio tuples over all orderings.

    Stored sorted by the lexicographic order on serialized rationals, so
    equality, hashing and serialization are deterministic.
    """

    __slots__ = ("tuples",)

    def __init__(self, tuples: Iterable[CrossRatioTuple | tuple[ProjPoint, ...]]):
        normalized = {
            t if isinstance(t, CrossRatioTuple) else CrossRatioTuple(t)
            for t in tuples
        }
        if not normalized:
            raise ZeroVectorError("unordered cross ratio cannot be empty")
        ordered = tuple(sorted(normalized, key=CrossRatioTuple.sort_key))
        object.__setattr__(self, "tuples", ordered)

    def __setattr__(self, name, value):
        raise AttributeError("UnorderedCrossRatio is immutable")

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)

    def __contains__(self, item) -> bool:
        if not isinstance(item, CrossRatioTuple):
            item = CrossRatioTuple(item)
        return item in set(self.tuples)

    def __eq__(self, other) -> bool:
        return isinstance(other, UnorderedCrossRatio) and self.tuples == other.tuples

    def __hash__(self) -> int:
        return hash(self.tuples)

    def __repr__(self) -> str:
        return f"UnorderedCrossRatio({list(self.tuples)!r})"


PointsLike = Union[AugmentedBasis, Sequence[ProjPoint]]


def _as_basis(points: PointsLike) -> AugmentedBasis:
    if isinstance(points, AugmentedBasis):
        return points
    return AugmentedBasis(points)


def basis_transform(ordered: Sequence[ProjPoint]) -> ProjTransform:
    """The unique transform sending n+1 ordered basis points to the standard
    projective basis ([e_1], ..., [e_n], [e_1 + ... + e_n])."""
    pts = list(ordered)
    n = _common_dimension(pts)
    if len(pts) != n + 1:
        raise DimensionMismatchError(f"expected {n + 1} points, got {len(pts)}")
    span = [[pts[j].ints[i] for j in range(n)] for i in range(n)]
    try:
        adj = exactq.integer_adjugate(span)
    except SingularError as exc:
        raise DegenerateBasisError("points do not form a projective basis") from exc
    # span·λ = p_{n+1} with λ = λ'/det, λ' = adj·p_{n+1}; the transform is
    # (span·diag(λ))⁻¹ ∝ diag(1/λ')·adj, cleared of denominators by ∏λ'.
    lam = _matvec(adj, pts[n].ints)
    if not all(lam):
        raise DegenerateBasisError("points do not form a projective basis")
    return ProjTransform._from_ints(
        [[x * prod(lam[:i] + lam[i + 1 :]) for x in row] for i, row in enumerate(adj)]
    )


def ordered_cross_ratio(points: PointsLike) -> CrossRatioTuple:
    """Images of the trailing points under the transform normalizing the
    first n+1 to the standard projective basis."""
    basis = _as_basis(points)
    head = basis.points[: basis.n + 1]
    q = basis_transform(head)
    return CrossRatioTuple(q(p) for p in basis.points[basis.n + 1 :])


def unordered_cross_ratio(
    points: PointsLike, cap: int = DEFAULT_PERMUTATION_CAP
) -> UnorderedCrossRatio:
    """The set of ordered cross ratios over all m! orderings, deduplicated.

    Permutations factor through (ordered head) x (ordered tail), so only
    m!/(m-n-1)! normalizing transforms are actually computed.
    """
    basis = _as_basis(points)
    m, n = basis.m, basis.n
    if m > cap:
        raise CapExceededError(
            f"{m}! orderings exceed the cap of {cap} points; raise the cap explicitly"
        )
    pts = basis.points
    seen: set[CrossRatioTuple] = set()
    for head in permutations(range(m), n + 1):
        q = basis_transform([pts[i] for i in head])
        images = tuple(q(pts[i]) for i in range(m) if i not in head)
        for tail in permutations(images):
            seen.add(CrossRatioTuple(tail))
    return UnorderedCrossRatio(seen)


def projectively_equivalent(
    left: PointsLike, right: PointsLike
) -> Optional[ProjTransform]:
    """A transform mapping the left point set onto the right one, or None.

    The search runs right to left: any witness W has an inverse sending
    some ordered (n+1)-subset of the right points to the first n+1 left
    points, and each of the m(m-1)...(m-n) assignments determines a unique
    candidate for that inverse.  The left frame is inverted once, each
    candidate costs one frame normalization, and it is tested by mapping
    the right points into the left set.  The inverse of the first hit is
    returned; the search order is deterministic, so identical inputs yield
    the identity.
    """
    a = _as_basis(left)
    b = _as_basis(right)
    if a.n != b.n or a.m != b.m:
        raise SizeMismatchError(
            f"configurations of shape (m={a.m}, n={a.n}) and (m={b.m}, n={b.n})"
        )
    n, m = a.n, a.m
    from_std = basis_transform(a.points[: n + 1]).inverse()
    target = set(a.points)
    for head in permutations(range(m), n + 1):
        candidate = from_std.compose(basis_transform([b.points[i] for i in head]))
        if all(candidate(p) in target for p in b.points):
            return candidate.inverse()
    return None


def dualize(hyperplane_coeffs: Sequence[int | str | Fraction]) -> ProjPoint:
    """The dual point of the hyperplane with the given coefficient functional."""
    return ProjPoint(hyperplane_coeffs)
