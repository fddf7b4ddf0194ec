"""Projective points, transformations, and the generalized cross-ratio invariant.

A point of RP^{n-1} is stored as its primitive integer vector (gcd 1, first
nonzero coordinate positive) and a transform as its primitive integer matrix,
so equality of points, tuples and invariant sets is structural equality on
integers; the rational `coords` and `matrix` are derived only when read.

An augmented basis carries its bracket table: the C(m, n) n x n minors
[p_i1 ... p_in] of its points (their Plücker coordinates), computed once (at
most MAX_BRACKETS), and general position means that none of them is zero.
Every frame is a ratio of brackets: cofactor columns under one sign rule,
mapped by Cramer's rule.  So the unordered cross ratio (a complete invariant up
to projective equivalence) and `projectively_equivalent` run on lookups.
Reordering a head's base only reorders its image coordinates, by one compiled
move per order, so both map only the unordered heads (sorted base, last point),
in whole columns gathered by a plan built once per shape.  The cross ratio keeps
one key per tail orbit, its tail sorted; the search screens each head's first
image, and its witness reads its Cramer factors off the same columns.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, compress, count, islice, permutations
from math import comb, factorial, gcd, prod
from operator import floordiv, itemgetter, lt, mul, neg, not_
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

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
from .exactq import QMatrix, _cleared, _deprecated, _format_ratio, _Frozen, rational

#: Largest m for which unordered_cross_ratio will run: its value stands for all m! orderings.
DEFAULT_PERMUTATION_CAP = 8
MAX_BRACKETS = 4000  #: Most brackets C(m, n) of one basis or seed; a larger table is refused before any is computed.


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
    _key = ("ints",)

    def __init__(self, coords: Iterable[int | str | Fraction]):
        if isinstance(coords, (str, bytes, bytearray)):  # would be read one character at a time
            raise TypeError(f"cannot interpret {coords!r} as a coordinate vector")
        raw = [rational(c) for c in coords]
        if not raw:
            raise ZeroVectorError("empty coordinate vector")
        _, ints = _cleared(raw)
        if not any(ints):
            raise ZeroVectorError("all homogeneous coordinates are zero")
        self._set(ints=_primitive(ints))

    @classmethod
    def _from_ints(cls, ints: Sequence[int]) -> "ProjPoint":
        """The point of a nonzero integer vector."""
        return object.__new__(cls)._set(ints=_primitive(ints))

    @classmethod
    def _of(cls, key: tuple[int, ...]) -> "ProjPoint":
        """The point whose primitive vector is `key`, taken as it is."""
        return object.__new__(cls)._set(ints=key)

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

    def __repr__(self) -> str:
        return "[" + " : ".join(self.serialized()) + "]"


class ProjTransform(_Frozen):
    """An invertible transformation of RP^{n-1}, keyed by its primitive
    integer matrix `ints` (gcd of all entries 1, first nonzero entry in
    row-major order positive); equality of transforms is equality of keys.
    """

    __slots__ = ("ints",)
    _key = ("ints",)

    def __init__(self, matrix: QMatrix):
        if matrix.nrows != matrix.ncols:
            raise DimensionMismatchError("projective transform matrix must be square")
        if exactq.det(matrix) == 0:
            raise SingularError("projective transform matrix must be invertible")
        self._set(ints=_primitive_matrix(matrix._int_rows()))

    @classmethod
    def _from_ints(cls, rows: Sequence[Sequence[int]]) -> "ProjTransform":
        """The transform of an integer matrix the caller knows is invertible."""
        return object.__new__(cls)._set(ints=_primitive_matrix(rows))

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
        _deprecated("ProjTransform.inverse", "ProjTransform(exactq.inverse(t.matrix))")
        return ProjTransform._from_ints(exactq.integer_adjugate(self.ints))

    def compose(self, other: "ProjTransform") -> "ProjTransform":
        """The transform `self after other`."""
        if other.n != self.n:
            raise DimensionMismatchError("transforms live in different dimensions")
        cols = list(zip(*other.ints))
        return ProjTransform._from_ints([_matvec(cols, row) for row in self.ints])

    def __repr__(self) -> str:
        return f"ProjTransform({self.matrix!r})"


def _common_dimension(points: Sequence[ProjPoint]) -> int:
    counts = {p.n for p in points}
    if len(counts) != 1:
        raise DimensionMismatchError(f"points need one common coordinate count, got {sorted(counts)}")
    return counts.pop()


def _brackets(rows: Sequence[Sequence[int]]) -> dict[int, int]:
    if comb(len(rows), len(rows[0])) > MAX_BRACKETS:
        raise CapExceededError(f"C({len(rows)}, {len(rows[0])}) brackets exceed the budget of {MAX_BRACKETS}")
    return exactq.maximal_minors(rows)


class AugmentedBasis(_Frozen):
    """m >= n+2 points of RP^{n-1} in general position, with their read-only
    brackets: `brackets[mask]` is [p_i1 ... p_in], i1 < ... < in the bits of mask."""

    __slots__ = ("points", "n", "brackets")
    _key = ("points",)

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
        brackets = _brackets([p.ints for p in pts])
        if not all(brackets.values()):
            raise NotAugmentedBasisError("points are not in general position")
        self._set(points=pts, n=n, brackets=MappingProxyType(brackets))

    @classmethod
    def _from_brackets(cls, rows: Sequence[tuple[int, ...]], brackets: dict[int, int]) -> "AugmentedBasis":
        """The points of m >= n + 2 primitive rows, with a read-only view of their zero-free `maximal_minors(rows)`."""
        points = tuple(map(ProjPoint._of, rows))
        return object.__new__(cls)._set(points=points, n=len(rows[0]), brackets=MappingProxyType(brackets))

    @property
    def m(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __repr__(self) -> str:
        return f"AugmentedBasis({list(self.points)!r})"


class CrossRatioTuple(_Frozen):
    """Ordered tuple of m-(n+1) points: one ordered cross-ratio value."""

    __slots__ = ("entries",)
    _key = ("entries",)

    def __init__(self, entries: Iterable[ProjPoint]):
        self._set(entries=tuple(entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self) -> str:
        return f"CrossRatioTuple({list(self.entries)!r})"


class UnorderedCrossRatio(_Frozen):
    """Deduplicated set of cross-ratio tuples over all orderings.

    Kept as one key per orbit of reordering a tuple, its sorted point keys (`ProjPoint.ints`), which equality and
    hashing read directly.  `in` sorts the query; `len` counts (m - n - 1)! orders per key, one in RP^0 (all [1]).
    `tuples`, every order of each key by the lexicographic order on serialized rationals, is derived on each read.
    """

    __slots__ = ("_keys",)
    _key = ("_keys",)

    def __init__(self, tuples: Iterable[CrossRatioTuple | tuple[ProjPoint, ...]]):
        keys = {tuple(p.ints for p in t) for t in tuples}
        if not keys:
            raise ZeroVectorError("unordered cross ratio cannot be empty")
        self._set(_keys=frozenset(map(tuple, map(sorted, keys))))
        if len(self) != len(keys) or len(set(map(len, keys))) > 1:
            raise SizeMismatchError(f"{len(keys)} tuples are not every order of {len(self._keys)} tuples of one length")

    @classmethod
    def _from_keys(cls, keys: Iterable[tuple[tuple[int, ...], ...]]) -> "UnorderedCrossRatio":
        """The set of the tuples of these point keys and of their reorderings, given at least one."""
        return object.__new__(cls)._set(_keys=frozenset(map(tuple, map(sorted, keys))))

    def __reduce__(self):
        return UnorderedCrossRatio._from_keys, (self._keys,)

    def _ranked(self, key: Callable[[ProjPoint], object]) -> tuple[list[ProjPoint], list]:
        """The distinct points sorted by `key` (read once each), and every order of each key as rank tuples, sorted."""
        ordered = sorted(map(ProjPoint._of, set().union(*self._keys)), key=key)
        rank = {p.ints: r for r, p in enumerate(ordered)}
        ranked = sorted([r for t in self._keys for r in permutations(map(rank.__getitem__, t))])
        return ordered, ranked[: len(self)]  # in RP^0 the orders of the one key are one tuple

    @property
    def tuples(self) -> tuple[CrossRatioTuple, ...]:
        """The tuples in order, every order of each key, each distinct point serialized once."""
        ordered, ranked = self._ranked(ProjPoint.serialized)
        return tuple([CrossRatioTuple(map(ordered.__getitem__, r)) for r in ranked])

    def __len__(self) -> int:
        key = next(iter(self._keys))
        return len(self._keys) * (factorial(len(key)) if len(key) > 1 and len(key[0]) > 1 else 1)

    def __iter__(self):
        return iter(self.tuples)

    def __contains__(self, item) -> bool:
        try:
            points = tuple(item)
        except TypeError:  # not iterable
            return False
        if not all(isinstance(p, ProjPoint) for p in points):
            return False
        return tuple(sorted(p.ints for p in points)) in self._keys

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
    coordinates (or coordinate columns) σ(0), ..., σ(n-1) (`tuple` for n = 1,
    where `itemgetter` returns a scalar) and σ(0), each built as it is read."""
    return ((itemgetter(*order) if n > 1 else tuple, order[0]) for order in permutations(range(n)))


def _moved(keys: Iterable[tuple[int, ...]], get: Callable, first: int) -> list[tuple[int, ...]]:
    """Keys with no zero coordinate, read by `get` in its order σ and signed by σ(0) = `first`."""
    return [get(k) if k[first] > 0 else tuple(map(neg, get(k))) for k in keys]


def _cofactors(brackets: Mapping[int, int], base: Sequence[int], points: Sequence[int]) -> list[list[int]]:
    """The cofactor columns of a base b_1, ..., b_n: per slot k, c(q)_k = ±[b_1..q..b_n], q in slot k, for each
    q of `points` in order, from any map of bracket masks (`_plan` passes one to 1-based positions).  Sorting the slots
    signs the bracket by a factor of q alone, by (-1)^k, and by -1 where b_k > q; c keeps the last, since the
    others leave every image key alone."""
    full = sum(1 << i for i in base)
    return [[brackets[full ^ 1 << i | 1 << q] * (-1 if i > q else 1) for q in points] for i in base]


def _images(cofactors: Sequence[Sequence[int]], h: int, tail: Iterable[int]) -> list[tuple[int, ...]]:
    """Cramer's rule for the head (b_1..b_n, last) at entry h of cofactor
    columns, λ = c(last): the primitive image of each entry of `tail`, whose
    coordinate k is c_k times the product over j != k of λ_j."""
    lam = [c[h] for c in cofactors]
    scale = [prod(lam) // x for x in lam]
    return [_primitive([c[e] * s for c, s in zip(cofactors, scale)]) for e in tail]


def ordered_cross_ratio(points: PointsLike) -> CrossRatioTuple:
    """Images of the trailing points under the transform normalizing the
    first n+1 to the standard projective basis."""
    basis = _as_basis(points)
    columns = _cofactors(basis.brackets, range(basis.n), range(basis.n, basis.m))  # the head 0, 1, ..., n at entry 0
    return CrossRatioTuple(map(ProjPoint._of, _images(columns, 0, range(1, basis.m - basis.n))))


@lru_cache(maxsize=32)
def _plan(m: int, n: int) -> tuple[Callable, tuple[Callable, ...], Callable, list[tuple[int, ...]]]:
    """The plan of shape (m, n) over its unordered heads (sorted base; last point p off it) in lexicographic
    order, built at its first use: a getter of the brackets in mask order; per slot k, a getter of each head's
    c(p)_k from its signed 1-based bracket position (`_cofactors` of the positions); a getter of each head's
    entry of its first tail point; and the sorted bases."""
    bases = list(combinations(range(m), n))
    masks = [sum(1 << i for i in base) for base in bases]
    at = {mask: i for i, mask in enumerate(masks, 1)}
    tables = (_cofactors(at, base, [p for p in range(m) if p not in base]) for base in bases)
    slots = tuple(itemgetter(*chain.from_iterable(slot)) for slot in zip(*tables))
    r = m - n
    return itemgetter(*masks), slots, itemgetter(*[h - h % r + (h % r == 0) for h in range(len(bases) * r)]), bases


@lru_cache(maxsize=32)
def _image_plan(m: int, n: int) -> tuple[Callable, Callable]:
    """Getters of the `_plan` head entries of the last point and of the image
    point of each image (q; last), head by head, for the capped cross ratio."""
    r = m - n
    lasts, images = zip(*[(h + a, h + b) for h in range(0, comb(m, n) * r, r) for a, b in permutations(range(r), 2)])
    return itemgetter(*lasts), itemgetter(*images)


def _columns(basis: AugmentedBasis, image: Callable, lam: Optional[Callable] = None) -> tuple[list, list[list[int]]]:
    """The columns c_k of c(p)_k over the heads of the basis's `_plan` and, by Cramer's rule, per
    coordinate k, image(c_k) times the product over j != k of lam(c_j), by default c_j itself."""
    read, slots, _, _ = _plan(basis.m, basis.n)
    brackets = read(basis.brackets)
    table = (0, *brackets, *map(neg, reversed(brackets)))  # ±(i + 1) holds ±bracket i
    cofactors = [get(table) for get in slots]
    factors = list(map(lam, cofactors)) if lam else cofactors
    columns = []
    for k, column in enumerate(map(image, cofactors)):
        for other in factors[:k] + factors[k + 1 :]:
            column = map(mul, column, other)
        columns.append(list(column))
    return cofactors, columns


def _sorted_tails(slots: list[list[tuple[int, ...]]]) -> Iterable[tuple[tuple[int, ...], ...]]:
    """Per head, its tail images (one per slot) sorted in whole columns: zipped, compared per pair, or sorted."""
    if len(slots) != 2:
        return zip(*slots) if len(slots) == 1 else map(tuple, map(sorted, zip(*slots)))
    a, b = slots
    low = list(map(lt, a, b))
    return chain(zip(compress(a, low), compress(b, low)), zip(compress(b, map(not_, low)), compress(a, map(not_, low))))


def _check_cap(m: int, cap: int) -> None:
    """Raise CapExceededError when the m! orderings of m points exceed `cap` points."""
    if m > cap:
        raise CapExceededError(f"{m}! orderings exceed the cap of {cap} points; raise the cap explicitly")


def unordered_cross_ratio(points: PointsLike, cap: int = DEFAULT_PERMUTATION_CAP) -> UnorderedCrossRatio:
    """The set of ordered cross ratios over all m! orderings, deduplicated.

    Permutations factor through (ordered head) x (ordered tail), and
    reordering the base of a head by σ only reorders each image's coordinates
    by σ, one compiled move.  So only the images of the unordered heads (sorted
    base, last point) are mapped, in whole columns from the shape's plans:
    per coordinate, a product of n gathered columns of signed brackets; then
    one gcd pass, and per first coordinate one signed divisor list and n
    divided columns.  A move is one `zip` of its columns, and one pass over the
    tail slots of all moves sorts each head's tail: one key per tail orbit.
    """
    basis = _as_basis(points)
    m, n = basis.m, basis.n
    _check_cap(m, cap)
    last, image = _image_plan(m, n)
    _, columns = _columns(basis, image, last)  # per coordinate k, c(q)_k ∏_{j != k} c(last)_j of each image (q; last)
    g = list(map(gcd, *columns))
    signed = []  # per coordinate j, the primitive images with coordinate j positive
    for column in columns:
        divisors = [d if x > 0 else -d for d, x in zip(g, column)]  # in general position no coordinate is 0
        signed.append([list(map(floordiv, c, divisors)) for c in columns])
    t = m - n - 1  # tail slots
    images = list(chain.from_iterable(zip(*get(signed[first])) for get, first in _moves(n)))  # move by move
    keys = frozenset(_sorted_tails([images[c::t] for c in range(t)]))
    return object.__new__(UnorderedCrossRatio)._set(_keys=keys)


def projectively_equivalent(left: PointsLike, right: PointsLike) -> Optional[ProjTransform]:
    """A transform mapping the left point set onto the right one, or None.

    Any witness W has an inverse sending some ordered head, n+1 right points, to the first n+1 left points,
    and each head determines one candidate.  The left points are mapped by the first left head and screened by
    their sorted absolute coordinates, which no base order changes.  The least head 0..n hits when the two
    ordered cross ratios are one set; else the first image of every unordered right head is mapped in columns
    from the shape's `_plan` and screened.  A head that passes maps its whole tail and screens it; if that
    passes, it tries its base orders by compiled moves, in order, up to a hit.  Heads run in lexicographic
    order until one passes the least hit.  W is the right head's frame (its span times the Cramer factors in
    the hit's cofactor columns) after the left head's `basis_transform`: one adjugate.
    """
    a = _as_basis(left)
    b = _as_basis(right)
    if a.n != b.n or a.m != b.m:
        raise SizeMismatchError(
            f"configurations of shape (m={a.m}, n={a.n}) and (m={b.m}, n={b.n})"
        )
    n, m, r = a.n, a.m, a.m - a.n
    # head points land on the standard basis; no other point does unless n = 1
    target = {p.ints for p in ordered_cross_ratio(a)}
    screen = {tuple(sorted(map(abs, k))) for k in target}
    cofactors = _cofactors(b.brackets, range(n), range(n, m))  # the least head 0, 1, ..., n at entry 0
    hits: list[tuple] = []  # per head, (its least ordering that maps right onto left, its entry, that order's move)
    if set(_images(cofactors, 0, range(1, r))) == target:
        hits.append((tuple(range(n + 1)), 0, tuple))
    else:
        _, _, first, bases = _plan(m, n)
        cofactors, columns = _columns(b, first)
        g = list(map(gcd, *columns))
        keys = map(tuple, map(sorted, zip(*[map(floordiv, map(abs, c), g) for c in columns])))
        for h in compress(count(), map(screen.__contains__, keys)):  # the heads whose first image passes
            base = bases[h // r]
            last = [q for q in range(m) if q not in base][h % r]
            if hits and (*base, last) > min(hits)[0]:
                break  # every ordering of its base comes later still, and so does every later head
            images = _images(cofactors, h, [e for e in range(h - h % r, h - h % r + r) if e != h])  # its tail
            if all(tuple(sorted(map(abs, image))) in screen for image in images):
                moves = (move for move in _moves(n) if target.issuperset(_moved(images, *move)))
                hits += [((*get(base), last), h, get) for get, _ in islice(moves, 1)]
    if not hits:
        return None
    (*head, last), h, get = min(hits)
    # Cramer's rule: λ_k = (-1)^(J+k+1) c_k for the sorted base, J = #{b_j < last}; (-1)^(J+1) is common to all k
    lam = get([-c[h] if k % 2 else c[h] for k, c in enumerate(cofactors)])
    frame = [[b.points[j].ints[i] * x for j, x in zip(head, lam)] for i in range(n)]  # e_k -> λ_k p_{head k}
    return ProjTransform._from_ints(frame).compose(basis_transform(a.points[: n + 1]))
