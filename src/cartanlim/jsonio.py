"""Deterministic JSON wire formats.

Rationals travel as `p/q` strings, floats as 17-significant-digit decimals,
and objects are emitted with sorted keys, so identical inputs always produce
byte-identical documents.  The emitter knows the wire form of each library
value type (points, matrices, cross-ratio tuples and sets, enums, frozensets
and result records), so results are serialized as returned, with no
per-type adapter.  Fractions are written from their numerator and
denominator, points from their integer form, and strings and dict keys
through the ASCII encoder of `json`.
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
    Poly,
    PolyParamGroup,
    builtin_block_family,
    builtin_group,
)
from .projgeo import AugmentedBasis, CrossRatioTuple, ProjPoint, UnorderedCrossRatio

# --- canonical emission -------------------------------------------------------

# The attribute a library value travels as; a ProjPoint travels as its coords,
# written by `_emit` straight from its integer form.
_WIRE_ATTR = {
    QMatrix: "rows",
    CrossRatioTuple: "entries",
    UnorderedCrossRatio: "tuples",
}


def _float_literal(value: float) -> str:
    if math.isnan(value) or math.isinf(value):
        raise ValueError("cannot serialize non-finite float")
    return format(value, ".17g")


def _wire(obj: Any) -> Any:
    """The plain value that a library object is emitted as."""
    attr = _WIRE_ATTR.get(type(obj))
    if attr is not None:
        return getattr(obj, attr)
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, frozenset):
        return sorted(obj)
    if isinstance(obj, _Frozen) and obj._fields:  # a result record
        return {name: getattr(obj, name) for name in obj._fields}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r}")
            if i:
                out.append(", ")
            out.append(encode_basestring_ascii(key) + ": ")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, ProjPoint):
        out.append("[" + ", ".join(['"' + x + '"' for x in obj.serialized()]) + "]")
    elif isinstance(obj, float):
        out.append(_float_literal(obj))
    elif isinstance(obj, Fraction):  # Fraction is an ABC, slow to miss: so it comes last
        out.append('"' + _format_ratio(obj.numerator, obj.denominator) + '"')
    else:
        _emit(_wire(obj), out)


def dumps(obj: Any) -> str:
    """Canonical JSON text: sorted keys, `p/q` rationals, 17-digit floats.

    Library values (`ProjPoint`, `QMatrix`, cross ratios, result
    records, whose fields travel as an object) may appear anywhere in `obj`.
    """
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


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


def _read_poly(obj: Any, nvars: int, context: str) -> Poly:
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
    return Poly(nvars, terms)


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
    entries = [
        [_read_poly(cell, d, context) for cell in row] for row in entries_raw
    ]
    return _built(context, PolyParamGroup, d, ambient, entries)


def read_family(obj: Any, context: str = "family") -> LinearBlockFamily:
    if isinstance(obj, dict) and "builtin" in obj:
        return _read_builtin(obj, context, builtin_block_family)
    coeffs = _want(obj, "coeff_matrices", context)
    if not isinstance(coeffs, list) or not coeffs:
        raise ParseError(f"{context}: 'coeff_matrices' must be a nonempty array")
    return _built(context, LinearBlockFamily, [read_matrix(m, context) for m in coeffs])
