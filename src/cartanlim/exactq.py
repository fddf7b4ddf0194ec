"""Exact rational scalars and exact linear algebra on `QMatrix`.

A product copies or scales the right row a unit left row picks; an inverse
takes each connected component of the nonzero pattern on its own; the
maximal minors come from one Laplace pass over column prefixes unless a
level of it would outgrow the answer.  Everything else that eliminates runs
through one incremental Bareiss elimination of integer rows, `_eliminate`, so
nothing here touches floating point and every equality downstream is
structural.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations, compress
from math import gcd, lcm
from operator import attrgetter
from typing import Iterable, Optional, Sequence

from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    NonSquareError,
    SingularError,
)

_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/([1-9]\d*))?", re.ASCII)

#: Shared 0 entry of derived rows (Fractions are immutable).
ZERO = Fraction(0)


def rational(value: int | str | Fraction) -> Fraction:
    """Coerce ints, `p/q` strings and Fractions to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def parse_rational(text: str) -> Fraction:
    """Parse the wire format `p` / `p/q` (q > 0); reject anything else."""
    if not isinstance(text, str) or (match := _RATIONAL_RE.fullmatch(text)) is None:
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(int(match[1]), int(match[2])) if match[2] else Fraction(int(match[1]))


def format_rational(value: Fraction) -> str:
    """Serialize as `p/q`, with `/q` omitted when the denominator is 1."""
    return _format_ratio(value.numerator, value.denominator)


def _format_ratio(num: int, den: int) -> str:
    """`format_rational(Fraction(num, den))` for den > 0, without the Fraction."""
    g = gcd(num, den)
    try:
        if g == den:
            return str(num // g)
        return f"{num // g}/{den // g}"
    except ValueError:  # past the interpreter's integer digit limit
        from decimal import Decimal

        text = str(Decimal(num // g))
        return text if g == den else f"{text}/{Decimal(den // g)}"


class _Frozen:
    """Base of every immutable value: an attribute is set only while the
    value is built or a cache is filled (`_set`), and is never deleted.

    Equality (same type, equal identity values), hash (of the identity
    values) and copying and pickling (as the type called on the identity
    values) are written here once.  A class names its identity attributes in
    `_key`; caches stay out of it.  A record's fields, its class annotations,
    are its identity, kept in the instance dict: it is built from them by
    position or keyword, and prints as `Name(field=value, ...)`.  Other
    subclasses bring their own `__init__` and `__repr__`, and their own
    `__reduce__` where their constructor does not take the identity values.
    """

    __slots__ = ()
    _fields = _key = ()  # a record's field names; the identity attributes

    def __init_subclass__(cls):
        if fields := tuple(cls.__dict__.get("__annotations__", ())):
            cls._fields = cls._key = fields
        if cls._key:
            cls._identity = attrgetter(*cls._key)

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs:  # the keyword values follow the positional ones in field order
            args += tuple(kwargs.pop(name) for name in names[len(args) :] if name in kwargs)
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__name__}() takes each of {', '.join(names)} once")
        vars(self).update(zip(names, args))

    def _set(self, /, **values) -> "_Frozen":
        """Sets attributes of a value being built, or its caches; returns it.
        `QMatrix._from_ints`, the most frequent constructor, sets its slots
        itself, which saves the keyword call."""
        for name, value in values.items():
            object.__setattr__(self, name, value)
        return self

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._identity(self) == self._identity(other)

    def __hash__(self) -> int:
        return hash(self._identity(self))

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._key)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class QMatrix(_Frozen):
    """Immutable dense matrix of Fractions.

    The matrix is kept in one canonical integer form: `_den`, the lcm of the
    entry denominators, and `_ints`, the row-major entries times `_den`, so
    gcd(_den, *_ints) = 1.  Equality and hashing read that form; the Fraction
    `rows` of a matrix built from integers are derived on first read.
    """

    __slots__ = ("_den", "_ints", "_ncols", "_rows")
    _key = ("_ncols", "_den", "_ints")

    def __init__(self, rows: Iterable[Iterable[int | str | Fraction]]):
        rows = tuple(rows)
        if any(isinstance(row, (str, bytes, bytearray)) for row in rows):  # would be read one character at a time
            raise TypeError("a matrix row must be a sequence of rationals, not a str or bytes")
        grid = tuple(tuple(rational(x) for x in row) for row in rows)
        if not grid or not grid[0]:
            raise EmptyInputError("matrix needs at least one row and one column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise DimensionMismatchError("ragged rows")
        den, ints = _cleared(x for row in grid for x in row)
        self._set(_den=den, _ints=tuple(ints), _ncols=width, _rows=grid)

    @classmethod
    def _from_ints(cls, den: int, ints: Sequence[int], ncols: int) -> "QMatrix":
        """The matrix with row-major entries ints[i] / den (den > 0), `ncols`
        wide; one gcd brings the pair to the canonical form."""
        if not ints:
            raise EmptyInputError("matrix needs at least one row and one column")
        g = gcd(den, *ints)
        if g != 1:
            den, ints = den // g, [x // g for x in ints]
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "_den", den)
        object.__setattr__(matrix, "_ints", tuple(ints))
        object.__setattr__(matrix, "_ncols", ncols)
        object.__setattr__(matrix, "_rows", None)
        return matrix

    def __reduce__(self):
        return QMatrix._from_ints, (self._den, self._ints, self._ncols)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as Fractions, derived from the integer form on first read."""
        rows = self._rows
        if rows is None:
            den, width = self._den, self._ncols
            vals = [Fraction(x, den) if x else ZERO for x in self._ints]
            rows = tuple(tuple(vals[i : i + width]) for i in range(0, len(vals), width))
            self._set(_rows=rows)
        return rows

    def _int_rows(self) -> list[list[int]]:
        """The rows of `_den` times the matrix, as fresh integer lists."""
        ints, width = self._ints, self._ncols
        return [list(ints[i : i + width]) for i in range(0, len(ints), width)]

    @property
    def nrows(self) -> int:
        return len(self._ints) // self._ncols

    @property
    def ncols(self) -> int:
        return self._ncols

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def transpose(self) -> "QMatrix":
        width = self._ncols
        return QMatrix._from_ints(
            self._den, [x for j in range(width) for x in self._ints[j::width]], self.nrows
        )

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            if self.ncols != other.nrows:
                raise DimensionMismatchError(
                    f"cannot multiply {self.shape} by {other.shape}"
                )
            return _product(self, other)
        return NotImplemented

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(format_rational(x) for x in row) for row in self.rows
        )
        return f"QMatrix[{body}]"


def _cleared(values: Iterable[Fraction]) -> tuple[int, list[int]]:
    """(d, [d·x]) for d the lcm of the denominators of the values."""
    values = list(values)
    scale = lcm(*{x.denominator for x in values})
    return scale, [x.numerator * (scale // x.denominator) for x in values]


def _product(left: QMatrix, right: QMatrix) -> QMatrix:
    """left·right on the integer forms: zero entries of either factor are
    skipped, a left row with one nonzero x at t gives x times right row t,
    and one gcd brings the result to its canonical form.  A right row is made
    sparse the first time a left row with several nonzeros reads it."""
    width, depth = right._ncols, left._ncols
    b, cols = right._ints, range(width)
    b_rows: list[Optional[list[tuple[int, int]]]] = [None] * depth
    a = left._ints
    ints = []
    for s in range(0, len(a), depth):
        a_row = a[s : s + depth]
        if a_row.count(0) == depth - 1:
            x = sum(a_row)
            t = a_row.index(x) * width
            ints += b[t : t + width] if x == 1 else [x * v for v in b[t : t + width]]
            continue
        acc = [0] * width
        for t in compress(range(depth), a_row):
            b_row = b_rows[t]
            if b_row is None:
                u = t * width
                b_row = b_rows[t] = [(j, b[u + j]) for j in cols if b[u + j]]
            x = a_row[t]
            for j, v in b_row:
                acc[j] += x * v
        ints += acc
    return QMatrix._from_ints(left._den * right._den, ints, width)


def _eliminate(rows: Iterable[Sequence[int]], limit: Optional[int] = None, stop: Optional[int] = None) -> list:
    """Incremental Bareiss elimination of integer rows of one width.

    A row read goes through the kept rows' steps in order, one whole row per
    step: kept row E with lead c and pivot p = E[c] maps v to
    (p·v − v[c]·E) / p', p' the pivot before (1 at the first); a zero v[c]
    only rescales v.  Each entry stays a minor of the input, so each division
    is exact.  A row is kept, as (index, lead, reduced row, pivot), when a
    nonzero entry, its lead, remains in its first `limit` columns (all when
    None).  No row is read after the `stop`-th kept one or at full rank; a
    row of another width than the first raises DimensionMismatchError.
    """
    kept = []
    for i, vec in enumerate(() if stop == 0 else rows):
        if not i:
            width = len(vec)
            leads = range(width if limit is None else limit)
        elif len(vec) != width:
            raise DimensionMismatchError("ragged rows")
        prev = 1
        for _, c, top, pivot in kept:
            head = vec[c]
            if head:
                vec = [(u * pivot - head * w) // prev for u, w in zip(vec, top)]
            elif pivot != prev:
                vec = [u * pivot // prev for u in vec]
            prev = pivot
        lead = next(compress(leads, vec), None)
        if lead is not None:
            kept.append((i, lead, vec, vec[lead]))
            if len(kept) in (stop, len(leads)):
                break
    return kept


def _det(kept: list, n: int) -> int:
    """The determinant of n rows on n columns from their kept rows: 0 unless
    all n are kept, else the last pivot, which takes the columns in lead
    order, signed by the parity of that order."""
    if len(kept) < n:
        return 0
    minor, leads = kept[-1][3], []
    for _, lead, _, _ in kept:
        for earlier in leads:
            if earlier > lead:
                minor = -minor
        leads.append(lead)
    return minor


def rank(matrix: QMatrix) -> int:
    """Exact row rank over the rationals."""
    return len(_eliminate(matrix._int_rows()))


def det(matrix: QMatrix) -> Fraction:
    """Exact determinant of a square matrix."""
    if matrix.nrows != matrix.ncols:
        raise NonSquareError(f"determinant of a {matrix.shape} matrix")
    return Fraction(_det(_eliminate(matrix._int_rows()), matrix._ncols), matrix._den**matrix._ncols)


def integer_adjugate(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """The adjugate Y of an invertible integer matrix A, so A·Y = det(A)·I:
    one elimination of [A | I] with its leads in A, then back-substitution.
    No rows raise EmptyInputError, a row whose width is not the row count
    NonSquareError, and det(A) = 0 SingularError.
    """
    return _adjugate(rows)[1]


def _adjugate(rows: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """(det(A), `integer_adjugate(A)`), the determinant read off the same elimination."""
    n = len(rows)
    if not n:
        raise EmptyInputError("matrix needs at least one row and one column")
    if any(len(row) != n for row in rows):
        raise NonSquareError(f"adjugate of {n} rows of widths {sorted({len(row) for row in rows})}")
    kept = _eliminate([[*row, *[0] * i, 1, *[0] * (n - i - 1)] for i, row in enumerate(rows)], n)
    d, y, solved = _det(kept, n), [[]] * n, []
    if not d:
        raise SingularError("matrix is not invertible")
    # a kept row is zero on the earlier rows' leads: solve A·Y = d·I upwards
    for _, lead, row, pivot in reversed(kept):
        acc = [d * x for x in row[n:]]
        for c, y_c in solved:
            acc = [a - row[c] * v for a, v in zip(acc, y_c)]
        y[lead] = y_lead = [a // pivot for a in acc]
        solved.append((lead, y_lead))
    return d, y


def maximal_minors(rows: Sequence[Sequence[int]]) -> dict[int, int]:
    """Every n x n minor of an m x n integer matrix, its rows in increasing
    order, keyed by the bitmask of their indices (bit i for row i).

    For 2n <= m + 1, one division-free Laplace pass over column prefixes: the
    minor of rows S on the first k + 1 columns expands along column k into
    the level-k minors of S without one row.  No level then holds more than
    the C(m, n) minors of the answer; for larger n the middle levels would,
    so each subset gets one elimination instead.  m < n gives no minor.  No
    rows raise EmptyInputError, ragged rows DimensionMismatchError.
    """
    if not rows:
        raise EmptyInputError("matrix needs at least one row")
    m, n = len(rows), len(rows[0])
    if any(len(row) != n for row in rows):
        raise DimensionMismatchError("ragged rows")
    if 2 * n > m + 1:
        return {
            sum(1 << i for i in subset): _det(_eliminate([rows[i] for i in subset]), n)
            for subset in combinations(range(m), n)
        }
    bits = [1 << i for i in range(m)]
    minors = {0: 1}
    for k in range(n):
        col = [row[k] for row in rows]
        level = {}
        for subset in combinations(range(m), k + 1):
            mask = sum(bits[i] for i in subset)
            total, sign = 0, 1
            for i in reversed(subset):  # cofactor sign (-1)^(p + k) at position p
                if col[i]:
                    total += sign * col[i] * minors[mask ^ bits[i]]
                sign = -sign
            level[mask] = total
        minors = level
    return minors


def inverse(matrix: QMatrix) -> QMatrix:
    """Exact inverse, one connected component of the nonzero pattern at a time.

    A union-find over the nonzero entries joins their rows and columns into
    components.  Each component B of the integer form A' = den·A must be
    square and inverts as den·adj(B) / det(B), a 1 x 1 one directly; the
    blocks are scattered, transposed, over one common denominator.
    """
    if matrix.nrows != matrix.ncols:
        raise NonSquareError(f"inverse of a {matrix.shape} matrix")
    n, den, ints = matrix._ncols, matrix._den, matrix._ints
    parent = list(range(2 * n))  # rows 0..n-1, then columns n..2n-1

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for pos in compress(range(n * n), ints):
        parent[find(pos // n)] = find(n + pos % n)
    components: dict[int, tuple[list[int], list[int]]] = {}
    for i in range(2 * n):
        components.setdefault(find(i), ([], []))[i >= n].append(i % n)
    blocks = []
    for rs, cs in components.values():
        if len(rs) != len(cs):
            raise SingularError("matrix is not invertible")
        sub = [[ints[r * n + c] for c in cs] for r in rs]
        blocks.append((rs, cs, *(_adjugate(sub) if len(rs) > 1 else (sub[0][0], [[1]]))))
    common = lcm(*(d for _, _, d, _ in blocks))
    out = [0] * (n * n)
    for rs, cs, d, adj in blocks:
        scale = den * (common // d)
        for c, adj_row in zip(cs, adj):
            for r, y in zip(rs, adj_row):
                out[c * n + r] = scale * y
    return QMatrix._from_ints(common, out, n)


def independent_rows(rows: Iterable[Sequence[int | Fraction]], stop: Optional[int] = None) -> list[int]:
    """Indices of the rows independent of the rows before them: the kept rows
    of one `_eliminate` stream, a row with a non-`int` entry cleared first.
    No row is read after the `stop`-th independent one or at full rank; a row
    of another width than the first raises DimensionMismatchError."""
    ints = (row if all(type(x) is int for x in row) else _cleared(row)[1] for row in rows)
    return [i for i, _, _, _ in _eliminate(ints, stop=stop)]
