"""Exact rational scalars and exact linear algebra.

Scalars are `fractions.Fraction` (canonical by construction: reduced, positive
denominator).  A matrix is immutable and kept in one canonical integer form, a
common denominator and the row-major integer entries over it; products,
inverses and equality run on that form, and the Fraction rows are
derived only when read.  The kernels follow the structure they are given: a
product copies or scales the right row a unit left row picks, an inverse
eliminates each connected component of the nonzero pattern on its own (a
permuted block-diagonal matrix never meets a dense elimination), and the
maximal minors come from one Laplace pass over column prefixes whenever no
level of that pass outgrows the answer.  Elimination is fraction-free in the
Bareiss style, so nothing in this module ever touches floating point and
every equality test downstream is a structural comparison.
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


def _deprecated(name: str, instead: str) -> None:
    """Warns the caller of the deprecated public `name`, two frames up, what to use instead."""
    import warnings  # loaded only when a deprecated name is called

    warnings.warn(f"cartanlim.{name} is deprecated; use {instead}", DeprecationWarning, stacklevel=3)


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

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        _deprecated("QMatrix.identity(n)", "QMatrix([[int(i == j) for j in range(n)] for i in range(n)])")
        return cls._from_ints(1, [int(i == j) for i in range(n) for j in range(n)], n)

    @classmethod
    def diagonal(cls, values: Sequence[int | str | Fraction]) -> "QMatrix":
        _deprecated("QMatrix.diagonal(values)", "QMatrix([[v if i == j else 0 for j in range(n)] for i, v in enumerate(values)])")
        den, ints = _cleared(rational(v) for v in values)
        n = len(ints)
        return cls._from_ints(den, [ints[i] if i == j else 0 for i in range(n) for j in range(n)], n)

    def transpose(self) -> "QMatrix":
        width = self._ncols
        return QMatrix._from_ints(
            self._den, [x for j in range(width) for x in self._ints[j::width]], self.nrows
        )

    def __add__(self, other: "QMatrix") -> "QMatrix":
        _deprecated("QMatrix.__add__ (a + b)", "QMatrix([[x + y for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)])")
        return self._plus(other, 1)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        _deprecated("QMatrix.__sub__ (a - b)", "QMatrix([[x - y for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)])")
        return self._plus(other, -1)

    def _plus(self, other: "QMatrix", sign: int) -> "QMatrix":
        """self + sign·other."""
        if self.shape != other.shape:
            raise DimensionMismatchError(f"cannot add {self.shape} and {other.shape}")
        den = lcm(self._den, other._den)
        sa, sb = den // self._den, sign * (den // other._den)
        return QMatrix._from_ints(
            den, [a * sa + b * sb for a, b in zip(self._ints, other._ints)], self._ncols
        )

    def __neg__(self) -> "QMatrix":
        _deprecated("QMatrix.__neg__ (-a)", "QMatrix([[-v for v in row] for row in a.rows])")
        return QMatrix._from_ints(self._den, [-x for x in self._ints], self._ncols)

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            if self.ncols != other.nrows:
                raise DimensionMismatchError(
                    f"cannot multiply {self.shape} by {other.shape}"
                )
            return _product(self, other)
        _deprecated("QMatrix scalar product (a * x, x * a)", "QMatrix([[x * v for v in row] for row in a.rows])")
        scalar = rational(other)
        return QMatrix._from_ints(
            self._den * scalar.denominator,
            [x * scalar.numerator for x in self._ints],
            self._ncols,
        )

    __rmul__ = __mul__

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(format_rational(x) for x in row) for row in self.rows
        )
        return f"QMatrix[{body}]"


def block_diag(*mats: QMatrix) -> QMatrix:
    """Direct sum of square matrices."""
    _deprecated("exactq.block_diag", "QMatrix of the blocks' rows, each padded with zeros to the total size")
    for m in mats:
        if m.nrows != m.ncols:
            raise NonSquareError("block_diag expects square blocks")
    total = sum(m.nrows for m in mats)
    den = lcm(*(m._den for m in mats))
    ints = [0] * (total * total)
    offset = 0
    for m in mats:
        scale = den // m._den
        for i, row in enumerate(m._int_rows()):
            start = (offset + i) * total + offset
            ints[start : start + len(row)] = [x * scale for x in row]
        offset += m.nrows
    return QMatrix._from_ints(den, ints, total)


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


def _fraction_free_echelon(
    rows: list[list[int]], pivot_limit: Optional[int] = None, pivot_cols: Optional[list[int]] = None
) -> tuple[int, int, int, list[int]]:
    """Bareiss forward elimination in place.

    Pivots are searched in the first `pivot_limit` columns (all columns when
    None).  Intermediate entries stay integer minors of the input, so the
    two-step division is exact.  An entry below a pivot keeps the head it was
    cleared by, so the echelon holds its own steps: given back the
    `pivot_cols` it returned, after every row has grown by one column, it
    takes that column through those steps and goes on from there.  Returns
    (rank, sign of this call's swaps, last pivot, pivot column indices).
    """
    m = len(rows)
    width = len(rows[0])
    limit = width if pivot_limit is None else pivot_limit
    start, pivot_cols = (0, []) if pivot_cols is None else (width - 1, pivot_cols)
    prev = sign = 1
    for r, c in enumerate(pivot_cols):  # the steps so far, on the new last column
        top, pivot = rows[r], rows[r][c]
        for row in rows[r + 1 :]:
            row[-1] = (row[-1] * pivot - row[c] * top[-1]) // prev
        prev = pivot
    r = len(pivot_cols)
    for c in range(start, limit):
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        pivot = rows[r][c]
        for i in range(r + 1, m):
            head = rows[i][c]
            for j in range(c + 1, width):
                rows[i][j] = (rows[i][j] * pivot - head * rows[r][j]) // prev
        prev = pivot
        pivot_cols.append(c)
        r += 1
    return r, sign, prev, pivot_cols


def rank(matrix: QMatrix) -> int:
    """Exact row rank over the rationals."""
    r, _, _, _ = _fraction_free_echelon(matrix._int_rows())
    return r


def det(matrix: QMatrix) -> Fraction:
    """Exact determinant of a square matrix."""
    if matrix.nrows != matrix.ncols:
        raise NonSquareError(f"determinant of a {matrix.shape} matrix")
    r, sign, last, _ = _fraction_free_echelon(matrix._int_rows())
    if r < matrix.nrows:
        return ZERO
    return Fraction(sign * last, matrix._den ** matrix.nrows)


def _back_substitute(
    rows: list[list[int]], r: int, d: int, pivot_cols: list[int], ncols: int
) -> list[list[int]]:
    """d·X for an echelon form of [A | B] with A·X = B consistent.

    Free variables are set to zero.  With d the last pivot, d·X is an
    integer matrix by Cramer's rule, so every division is exact.
    """
    width = len(rows[0]) - ncols
    y = [[0] * width for _ in range(ncols)]
    for i in reversed(range(r)):
        row = rows[i]
        later = pivot_cols[i + 1 :]
        for t in range(width):
            acc = d * row[ncols + t] - sum(row[j] * y[j][t] for j in later)
            y[pivot_cols[i]][t] = acc // row[pivot_cols[i]]
    return y


def integer_adjugate(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """The adjugate Y of an invertible integer matrix A, so A·Y = det(A)·I.

    One fraction-free elimination of [A | I]; no Fraction is created.
    Raises SingularError when det(A) = 0.
    """
    n = len(rows)
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    r, sign, d, pivot_cols = _fraction_free_echelon(work, pivot_limit=n)
    if r < n:
        raise SingularError("matrix is not invertible")
    # The echelon runs on P·A with sign = det(P), so d = sign·det(A) and the
    # back-substitution yields d·A⁻¹ = sign·adj(A).
    y = _back_substitute(work, r, d, pivot_cols, n)
    return y if sign > 0 else [[-x for x in row] for row in y]


def maximal_minors(rows: Sequence[Sequence[int]]) -> dict[int, int]:
    """Every n x n minor of an m x n integer matrix, its rows in increasing
    order, keyed by the bitmask of their indices (bit i for row i).

    For 2n <= m + 1, one division-free Laplace pass over column prefixes: the
    minor of rows S on the first k + 1 columns expands along column k into
    the level-k minors of S without one row.  No level then holds more than
    the C(m, n) minors of the answer; for larger n the middle levels would,
    so each subset gets one fraction-free elimination instead.  m < n gives
    no minor.
    """
    m, n = len(rows), len(rows[0])
    if 2 * n > m + 1:
        minors = {}
        for subset in combinations(range(m), n):
            r, sign, last, _ = _fraction_free_echelon([list(rows[i]) for i in subset])
            minors[sum(1 << i for i in subset)] = sign * last if r == n else 0
        return minors
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
        adj = integer_adjugate(sub) if len(rs) > 1 else [[1]]
        # det(B) is entry (0, 0) of B·adj(B) = det(B)·I.
        blocks.append((rs, cs, sum(x * row[0] for x, row in zip(sub[0], adj)), adj))
    common = lcm(*(d for _, _, d, _ in blocks))
    out = [0] * (n * n)
    for rs, cs, d, adj in blocks:
        scale = den * (common // d)
        for c, adj_row in zip(cs, adj):
            for r, y in zip(rs, adj_row):
                out[c * n + r] = scale * y
    return QMatrix._from_ints(common, out, n)


def independent_rows(rows: Iterable[Sequence[int | Fraction]], stop: Optional[int] = None) -> list[int]:
    """Indices of the rows that are independent of the rows before them.

    These are the pivot columns of the echelon form of the transpose, which
    takes the rows in one column at a time: no row is read after the
    `stop`-th independent one, or once the rows reach full rank.
    """
    kept: list[int] = []
    for i, row in enumerate(() if stop == 0 else rows):
        ints = _cleared(row)[1]
        if i == 0:
            coords = [[] for _ in ints]  # the rows of the transpose, before any swap
            work = list(coords)
        for entries, x in zip(coords, ints):
            entries.append(x)
        if not ints:
            break
        _fraction_free_echelon(work, pivot_cols=kept)
        if len(kept) in (stop, len(work)):
            break
    return kept
