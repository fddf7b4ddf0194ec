"""Deterministic JSON wire formats.

Rationals travel as `p/q` strings, floats as 17-significant-digit decimals,
and objects are emitted with sorted keys, so identical inputs always produce
byte-identical documents.  The emitter looks up the exact type of each value
in one table; a value of any other type (enums, frozensets and result records)
is written as its wire form, so results are serialized as returned.  Integers
and Fractions share a formatter that falls back to `decimal` past the
interpreter's integer digit limit; points, matrices and cross ratios are written
from their integer forms, each distinct point once per document; strings and
dict keys go through the ASCII encoder of `json`.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any

from .errors import ParseError
from .exactq import QMatrix, _format_ratio, _Frozen, parse_rational
from .limits import GroupElementParams, SeedMatrix
from .obstruct import (
    LinearBlockFamily,
    PolyParamGroup,
    builtin_block_family,
    builtin_group,
)
from .projgeo import AugmentedBasis, CrossRatioTuple, ProjPoint, UnorderedCrossRatio

# --- canonical emission -------------------------------------------------------


def _float_text(obj: float, points: dict) -> str:
    if not math.isfinite(obj):
        raise ValueError("cannot serialize non-finite float")
    return format(obj, ".17g")


def _wire(obj: Any) -> Any:
    """The plain value that a library object is emitted as."""
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, frozenset):
        return sorted(obj)
    if isinstance(obj, _Frozen) and obj._fields:  # a result record
        return {name: getattr(obj, name) for name in obj._fields}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _list_text(obj: list | tuple, points: dict) -> str:
    return "[" + ", ".join([_TEXT.get(type(x), _wire_text)(x, points) for x in obj]) + "]"


def _dict_text(obj: dict, points: dict) -> str:
    items = []
    for key in sorted(obj):
        if not isinstance(key, str):
            raise TypeError(f"non-string key {key!r}")
        value = obj[key]
        items.append(encode_basestring_ascii(key) + ": " + _TEXT.get(type(value), _wire_text)(value, points))
    return "{" + ", ".join(items) + "}"


def _point_text(obj: ProjPoint, points: dict) -> str:
    if (text := points.get(obj.ints)) is None:
        text = points[obj.ints] = "[" + ", ".join(['"' + x + '"' for x in obj.serialized()]) + "]"
    return text


def _matrix_text(obj: QMatrix, points: dict) -> str:
    cells, width = ['"' + _format_ratio(x, obj._den) + '"' for x in obj._ints], obj._ncols
    return "[" + ", ".join(["[" + ", ".join(cells[i : i + width]) + "]" for i in range(0, len(cells), width)]) + "]"


def _cross_ratio_text(obj: UnorderedCrossRatio, points: dict) -> str:
    # a point text sorts as its serialized tuple: its closing quote is below every character of a rational
    ordered, ranked = obj._ranked(lambda point: _point_text(point, points))
    texts = [points[point.ints] for point in ordered]
    return "[" + ", ".join(["[" + ", ".join(map(texts.__getitem__, r)) + "]" for r in ranked]) + "]"


def _wire_text(obj: Any, points: dict) -> str:
    return _TEXT.get(type(wire := _wire(obj)), _wire_text)(wire, points)


# The text of a value by its exact type; `points` maps the integer form of
# each point written so far in the document to its text.
_TEXT = {
    type(None): lambda obj, points: "null",
    bool: lambda obj, points: "true" if obj else "false",
    int: lambda obj, points: _format_ratio(obj, 1),
    str: lambda obj, points: encode_basestring_ascii(obj),
    float: _float_text,
    Fraction: lambda obj, points: '"' + _format_ratio(obj.numerator, obj.denominator) + '"',
    ProjPoint: _point_text,
    CrossRatioTuple: lambda obj, points: _list_text(obj.entries, points),
    QMatrix: _matrix_text,
    UnorderedCrossRatio: _cross_ratio_text,
    list: _list_text,
    tuple: _list_text,
    dict: _dict_text,
}


def dumps(obj: Any) -> str:
    """Canonical JSON text: sorted keys, `p/q` rationals, 17-digit floats.

    Library values (`ProjPoint`, `QMatrix`, cross ratios, result
    records, whose fields travel as an object) may appear anywhere in `obj`.
    """
    return _TEXT.get(type(obj), _wire_text)(obj, {})


# --- parsing helpers -------------------------------------------------------------


def _want(obj: Any, key: str, context: str) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"{context}: missing key {key!r}")
    return obj[key]


def _want_int(obj: Any, key: str, context: str) -> int:
    value = _want(obj, key, context)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{context}: {key!r} must be an integer, got {value!r}")
    return value


def read_rational(obj: Any, context: str) -> Fraction:
    if isinstance(obj, int) and not isinstance(obj, bool):
        return Fraction(obj)
    if isinstance(obj, str):
        try:
            return parse_rational(obj)
        except ValueError as exc:
            raise ParseError(f"{context}: {exc}") from exc
    raise ParseError(f"{context}: expected a rational string, got {obj!r}")


def read_vector(obj: Any, context: str) -> tuple[Fraction, ...]:
    if not isinstance(obj, list):
        raise ParseError(f"{context}: expected an array")
    return tuple(read_rational(x, context) for x in obj)


def read_matrix(obj: Any, context: str) -> QMatrix:
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{context}: expected a nonempty array of rows")
    return QMatrix([read_vector(row, context) for row in obj])


def read_point(obj: Any, context: str = "point") -> ProjPoint:
    return ProjPoint(read_vector(obj, context))


def read_basis(obj: Any, context: str = "basis") -> AugmentedBasis:
    n = _want_int(obj, "n", context)
    points_raw = _want(obj, "points", context)
    if not isinstance(points_raw, list):
        raise ParseError(f"{context}: 'points' must be an array")
    points = [read_point(p, context) for p in points_raw]
    if any(p.n != n for p in points):
        raise ParseError(f"{context}: points do not have {n} coordinates")
    return AugmentedBasis(points)


def read_seed(obj: Any, context: str = "seed") -> SeedMatrix:
    m = _want_int(obj, "m", context)
    n = _want_int(obj, "n", context)
    rows = read_matrix(_want(obj, "rows", context), context)
    if rows.shape != (m, n):
        raise ParseError(
            f"{context}: declared shape ({m}, {n}) does not match rows {rows.shape}"
        )
    return SeedMatrix(rows)


def read_params(obj: Any, seed: SeedMatrix, context: str = "params") -> GroupElementParams:
    a = read_vector(_want(obj, "a", context), context)
    b = read_vector(_want(obj, "b", context), context)
    if len(a) != seed.m or len(b) != seed.n:
        raise ParseError(
            f"{context}: expected {seed.m} a-entries and {seed.n} b-entries"
        )
    return GroupElementParams(a, b)


def _read_cell(obj: Any, nvars: int, context: str) -> dict[tuple[int, ...], Fraction]:
    if not isinstance(obj, list):
        raise ParseError(f"{context}: polynomial must be an array of terms")
    terms: dict[tuple[int, ...], Fraction] = {}
    for term in obj:
        if not (isinstance(term, list) and len(term) == 2 and isinstance(term[1], list)):
            raise ParseError(f"{context}: term must be [coeff, [exponents]]")
        coeff = read_rational(term[0], context)
        exps = term[1]
        if len(exps) != nvars or not all(isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in exps):
            raise ParseError(f"{context}: bad exponent tuple {exps}")
        terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + coeff
    return terms


def _built(context: str, build, *args):
    """build(*args), with a ValueError of the library raised as a ParseError."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ParseError(f"{context}: {exc}") from exc


def _read_builtin(obj: dict, context: str, builder):
    name = obj["builtin"]
    if not isinstance(name, str):
        raise ParseError(f"{context}: 'builtin' must be a name, got {name!r}")
    seed = read_seed(obj["seed"], context) if "seed" in obj else None
    return _built(context, builder, name, seed)


def read_group(obj: Any, context: str = "group") -> PolyParamGroup:
    if isinstance(obj, dict) and "builtin" in obj:
        return _read_builtin(obj, context, builtin_group)
    d = _want_int(obj, "dim_params", context)
    ambient = _want_int(obj, "ambient", context)
    entries_raw = _want(obj, "entries", context)
    if not isinstance(entries_raw, list) or not all(
        isinstance(row, list) for row in entries_raw
    ):
        raise ParseError(f"{context}: 'entries' must be an array of rows")
    entries = [[_read_cell(cell, d, context) for cell in row] for row in entries_raw]
    return _built(context, PolyParamGroup, d, ambient, entries)


def read_family(obj: Any, context: str = "family") -> LinearBlockFamily:
    if isinstance(obj, dict) and "builtin" in obj:
        return _read_builtin(obj, context, builtin_block_family)
    coeffs = _want(obj, "coeff_matrices", context)
    if not isinstance(coeffs, list) or not coeffs:
        raise ParseError(f"{context}: 'coeff_matrices' must be a nonempty array")
    return _built(context, LinearBlockFamily, [read_matrix(m, context) for m in coeffs])
