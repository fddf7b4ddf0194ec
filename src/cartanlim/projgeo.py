"""Projective points, transformations, and the generalized cross-ratio invariant.

A point of RP^{n-1} is stored as its primitive integer vector (gcd 1, first
nonzero coordinate positive) and a transform as its primitive integer matrix,
so equality of points, tuples and invariant sets is structural equality on
integers; the rational `coords` and `matrix` are derived only when read.

An augmented basis carries its bracket table: the C(m, n) n x n minors
[p_i1 ... p_in] of its points (their Plücker coordinates), computed once, and
general position means that none of them is zero.  Every frame is a ratio of
brackets, so the unordered cross ratio (a complete invariant up to projective
equivalence) and `projectively_equivalent` run on lookups, one cofactor
table per sorted base.  Reordering a head's base only reorders its image
coordinates, by one compiled move per order, so both map only the unordered
heads (sorted base, last point), each image in the loop by a product, a gcd
and a tuple.  The cross ratio is kept as the set of its tuples' point keys.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from itertools import combinations, islice, permutations
from math import gcd, prod
from operator import itemgetter, mul, neg
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

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
from .exactq import QMatrix, _cleared, _format_ratio, _Frozen, rational

#: Largest m for which unordered_cross_ratio will enumerate all m! orderings.
DEFAULT_PERMUTATION_CAP = 8


def _primitive(values: Sequence[int]) -> tuple[int, ...]:
    """Divide a nonzero integer vector by its gcd, signed so the first
    nonzero entry is positive."""
    g = gcd(*values)
    if next(filter(None, values)) < 0:
        g = -g
    if g == 1:
        return tuple(values)
    return tuple([x // g for x in values])


def _primitive_matrix(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """`_primitive` of a nonzero square integer matrix read in row-major order."""
    n = len(rows)
    flat = _primitive([x for row in rows for x in row])
    return tuple(flat[i * n : (i + 1) * n] for i in range(n))


def _matvec(rows: Sequence[Sequence[int]], vec: Sequence[int]) -> list[int]:
    return [sum(map(mul, row, vec)) for row in rows]


class ProjPoint(_Frozen):
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

    def __reduce__(self):
        return ProjPoint._from_ints, (self.ints,)

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


class ProjTransform(_Frozen):
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
        object.__setattr__(self, "ints", _primitive_matrix(matrix._int_rows()))

    @classmethod
    def _from_ints(cls, rows: Sequence[Sequence[int]]) -> "ProjTransform":
        """The transform of an integer matrix the caller knows is invertible."""
        transform = object.__new__(cls)
        object.__setattr__(transform, "ints", _primitive_matrix(rows))
        return transform

    def __reduce__(self):
        return ProjTransform._from_ints, (self.ints,)

    @property
    def matrix(self) -> QMatrix:
        """The rational matrix with first nonzero entry (row-major) equal to 1."""
        flat = [x for row in self.ints for x in row]
        return QMatrix._from_ints(next(filter(None, flat)), flat, self.n)

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
    """True iff every bracket is nonzero: every n of the homogeneous coordinate
    vectors are independent, so every n+1 of the points are a projective basis."""
    warnings.warn("projgeo.general_position is deprecated; use maximal_minors", DeprecationWarning, stacklevel=2)
    pts = list(points)
    if not pts:
        raise DimensionMismatchError("no points given")
    n = _common_dimension(pts)
    if len(pts) < n + 1:
        raise DimensionMismatchError(f"need at least {n + 1} points in RP^{n - 1}")
    return all(exactq.maximal_minors([p.ints for p in pts]).values())


class AugmentedBasis(_Frozen):
    """m >= n+2 points of RP^{n-1} in general position, with their brackets:
    `brackets[mask]` is [p_i1 ... p_in], i1 < ... < in the bits of mask."""

    __slots__ = ("points", "n", "brackets")

    def __init__(self, points: Iterable[ProjPoint]):
        pts = tuple(points)
        if not pts:
            raise NotAugmentedBasisError("no points given")
        n = pts[0].n
        if len(pts) < n + 2:
            raise NotAugmentedBasisError(
                f"augmented basis in RP^{n - 1} needs at least {n + 2} points, got {len(pts)}"
            )
        _common_dimension(pts)
        brackets = exactq.maximal_minors([p.ints for p in pts])
        if not all(brackets.values()):
            raise NotAugmentedBasisError("points are not in general position")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "brackets", brackets)

    def __reduce__(self):
        return AugmentedBasis, (self.points,)

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


class CrossRatioTuple(_Frozen):
    """Ordered tuple of m-(n+1) points: one ordered cross-ratio value."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[ProjPoint]):
        object.__setattr__(self, "entries", tuple(entries))

    def __reduce__(self):
        return CrossRatioTuple, (self.entries,)

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


class UnorderedCrossRatio(_Frozen):
    """Deduplicated set of cross-ratio tuples over all orderings.

    Kept as the frozenset of the tuples' point keys (`ProjPoint.ints`), which
    equality, hashing, `len` and `in` read directly.  `tuples`, sorted by the
    lexicographic order on serialized rationals, is derived on first read.
    """

    __slots__ = ("_keys", "_tuples")

    def __init__(self, tuples: Iterable[CrossRatioTuple | tuple[ProjPoint, ...]]):
        keys = frozenset(tuple(p.ints for p in t) for t in tuples)
        if not keys:
            raise ZeroVectorError("unordered cross ratio cannot be empty")
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "_tuples", None)

    @classmethod
    def _from_keys(cls, keys: Iterable[tuple[tuple[int, ...], ...]]) -> "UnorderedCrossRatio":
        """The set of the tuples of these point keys, given at least one."""
        uc = object.__new__(cls)
        object.__setattr__(uc, "_keys", frozenset(keys))
        object.__setattr__(uc, "_tuples", None)
        return uc

    def __reduce__(self):
        return UnorderedCrossRatio._from_keys, (self._keys,)

    @property
    def tuples(self) -> tuple[CrossRatioTuple, ...]:
        """The tuples in order.  Each distinct point is serialized once, and
        its rank is its sort key."""
        tuples = self._tuples
        if tuples is None:
            points = map(ProjPoint._from_ints, set().union(*self._keys))
            ordered = sorted(points, key=ProjPoint.serialized)
            rank = {p.ints: r for r, p in enumerate(ordered)}
            ranked = sorted([tuple(map(rank.__getitem__, t)) for t in self._keys])
            tuples = tuple([CrossRatioTuple(map(ordered.__getitem__, r)) for r in ranked])
            object.__setattr__(self, "_tuples", tuples)
        return tuples

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self):
        return iter(self.tuples)

    def __contains__(self, item) -> bool:
        points = tuple(item)
        if not all(isinstance(p, ProjPoint) for p in points):
            return False
        return tuple(p.ints for p in points) in self._keys

    def __eq__(self, other) -> bool:
        return isinstance(other, UnorderedCrossRatio) and self._keys == other._keys

    def __hash__(self) -> int:
        return hash(self._keys)

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
    return ProjTransform._from_ints([[x * prod(lam) // li for x in row] for li, row in zip(lam, adj)])


def _moves(n: int) -> Iterator[tuple[Callable, int]]:
    """Per order σ of n coordinates, lexicographic: a compiled getter of
    coordinates σ(0), ..., σ(n-1) (`tuple` for n = 1, where `itemgetter`
    returns a scalar) and σ(0), each built as it is read."""
    return ((itemgetter(*order) if n > 1 else tuple, order[0]) for order in permutations(range(n)))


def _moved(keys: Iterable[tuple[int, ...]], get: Callable, first: int) -> list[tuple[int, ...]]:
    """Keys with no zero coordinate, read by `get` in its order σ and signed by σ(0) = `first`."""
    return [get(k) if k[first] > 0 else tuple(map(neg, get(k))) for k in keys]


def _cofactors(brackets: dict[int, int], base: Sequence[int], points: Iterable[int]) -> dict[int, list[int]]:
    """The cofactor table of a base b_1, ..., b_n: q -> c(q) for each q of
    `points`, c(q)_k = ±[b_1..q..b_n] with q in slot k.  Sorting the slots
    signs the bracket by a factor of q alone, by (-1)^k, and by -1 where
    b_k > q; c keeps the last, since the others leave every image key alone."""
    full = sum(1 << i for i in base)
    slots = [(full ^ 1 << i, i) for i in base]
    return {q: [brackets[rest | 1 << q] * (-1 if i > q else 1) for rest, i in slots] for q in points}


def _scale(lam: Sequence[int]) -> list[int]:
    """Cramer's rule for the head (b_1..b_n, last), λ = c(last): coordinate k
    of the image of q is c(q)_k times the product over j != k of λ_j."""
    p = prod(lam)
    return [p // x for x in lam]


def _heads(brackets: dict[int, int], m: int, n: int) -> Iterator[tuple[tuple[int, ...], list[int], dict]]:
    """Per sorted base, in lexicographic order: the base, the other points in order
    and their cofactor table; each of them is the last point of one unordered head."""
    for base in combinations(range(m), n):
        rest = [q for q in range(m) if q not in base]
        yield base, rest, _cofactors(brackets, base, rest)


def ordered_cross_ratio(points: PointsLike) -> CrossRatioTuple:
    """Images of the trailing points under the transform normalizing the
    first n+1 to the standard projective basis."""
    basis = _as_basis(points)
    _, rest, rows = next(_heads(basis.brackets, basis.m, basis.n))  # the head 0, 1, ..., n
    scale = _scale(rows[basis.n])
    return CrossRatioTuple([ProjPoint._from_ints(list(map(mul, rows[q], scale))) for q in rest[1:]])


def unordered_cross_ratio(points: PointsLike, cap: int = DEFAULT_PERMUTATION_CAP) -> UnorderedCrossRatio:
    """The set of ordered cross ratios over all m! orderings, deduplicated.

    Permutations factor through (ordered head) x (ordered tail), and
    reordering the base of a head by σ only reorders each image's coordinates
    by σ, one compiled move.  So only the unordered heads (sorted base, last
    point) are mapped, in the loop from C(m, n) cofactor tables of m - n rows:
    per image one product, one gcd and one tuple, and one negation.  A move is
    one `map` of the images, and each tail order one `zip` of the tail slots.
    The result keeps its key set and sorts nothing.
    """
    basis = _as_basis(points)
    m, n = basis.m, basis.n
    if m > cap:
        raise CapExceededError(
            f"{m}! orderings exceed the cap of {cap} points; raise the cap explicitly"
        )
    images: list[tuple[int, ...]] = []  # head by head, its m - n - 1 tail images in order
    for _, rest, rows in _heads(basis.brackets, m, n):
        for last in rest:
            scale = _scale(rows[last])
            for q in rest:
                if q != last:
                    v = list(map(mul, rows[q], scale))
                    g = gcd(*v) if v[0] > 0 else -gcd(*v)  # in general position no coordinate is 0
                    images.append(tuple([x // g for x in v]))
    flipped = [tuple([-x for x in k]) for k in images]
    signed = [images] + [[k if k[j] > 0 else f for k, f in zip(images, flipped)] for j in range(1, n)]
    seen: set[tuple[tuple[int, ...], ...]] = set()
    for get, first in _moves(n):
        moved = list(map(get, signed[first]))
        for order in permutations([moved[c :: m - n - 1] for c in range(m - n - 1)]):
            seen.update(zip(*order))
    return UnorderedCrossRatio._from_keys(seen)


def projectively_equivalent(left: PointsLike, right: PointsLike) -> Optional[ProjTransform]:
    """A transform mapping the left point set onto the right one, or None.

    The search runs right to left: any witness W has an inverse sending some
    ordered head, n+1 of the right points, to the first n+1 left points, and
    each head determines a unique candidate for it.  The left points are
    mapped once, by the first left head, and screened by their sorted absolute
    coordinates, which no base order changes.  Each unordered right head
    is mapped in the loop from its base's cofactor table up to an image that
    fails; if none does, its base orders are tried by compiled moves, in order,
    up to a hit.  Heads run in lexicographic order until one passes the least
    hit (the first hit of an ordered search); W is built from its two frames.
    """
    a = _as_basis(left)
    b = _as_basis(right)
    if a.n != b.n or a.m != b.m:
        raise SizeMismatchError(
            f"configurations of shape (m={a.m}, n={a.n}) and (m={b.m}, n={b.n})"
        )
    n, m = a.n, a.m
    # head points land on the standard basis; no other point does unless n = 1
    target = {p.ints for p in ordered_cross_ratio(a)}
    screen = {tuple(sorted(map(abs, k))) for k in target}
    hits: list[tuple[int, ...]] = []  # per head, its least ordering that maps right onto left
    for base, rest, rows in _heads(b.brackets, m, n):
        for last in rest:
            if hits and (*base, last) > min(hits):
                break  # every ordering of its base comes later still
            scale = _scale(rows[last])
            images = []
            for q in rest:
                if q != last:
                    v = list(map(mul, rows[q], scale))
                    g = gcd(*v)
                    images.append(tuple([x // g for x in v]))
                    if tuple(sorted(map(abs, images[-1]))) not in screen:
                        break
            else:
                moves = (move for move in _moves(n) if target.issuperset(_moved(images, *move)))
                hits += [(*get(base), last) for get, _ in islice(moves, 1)]
        if hits and min(hits)[:n] <= base:
            break  # so does every head on a later base
    if not hits:
        return None
    to_right = basis_transform([b.points[i] for i in min(hits)]).inverse()
    return to_right.compose(basis_transform(a.points[: n + 1]))


def dualize(hyperplane_coeffs: Sequence[int | str | Fraction]) -> ProjPoint:
    """The dual point of the hyperplane with the given coefficient functional."""
    warnings.warn("projgeo.dualize is deprecated; use ProjPoint", DeprecationWarning, stacklevel=2)
    return ProjPoint(hyperplane_coeffs)
