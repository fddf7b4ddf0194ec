"""Numerical witness of one group degenerating onto another.

For a seed matrix T, the conjugates of the positive diagonal group by a
one-parameter family of unipotent matrices P_r converge entrywise to the
T-group.  This module solves the determinant condition for the matching
diagonal element at each r and reports the entrywise distances.

The solved diagonal splits as x_i = root + c_i with exact rational offsets
c_i; only the root is numeric.  The conjugated element is assembled as
root*I plus an exactly computed rational matrix, so the entries that match
the target exactly do so to machine precision at every r.  Every float is
read from an integer form as `num / den`, which is correctly rounded.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import sub
from typing import Sequence

from .errors import (
    FloatRangeError,
    NonpositiveRError,
    NoPositiveRootError,
    ScheduleError,
    ZeroFirstColumnError,
)
from .exactq import QMatrix, _cleared, _Frozen, rational
from .limits import GroupElementParams, SeedMatrix, rho

#: Relative width at which bisection stops; a Newton polish follows.
ROOT_TOLERANCE = 1e-14


def build_Pr(seed: SeedMatrix, r: int | str | Fraction) -> QMatrix:
    """The conjugating matrix at parameter r: identity plus a block whose
    row j is r times row j of the seed, with a row of r^2 below it."""
    rv = rational(r)
    if rv <= 0:
        raise NonpositiveRError(f"r must be positive, got {rv}")
    return rho(seed, GroupElementParams((rv,) * seed.m, (rv * rv,) * seed.n))


def _offsets(
    seed: SeedMatrix, params: GroupElementParams, rv: Fraction
) -> tuple[int, list[int]]:
    """Exact offsets c_i with x_i = x_{m+1} + c_i, from the matching rules:
    x_{m+1+i} = x_{m+1} - b_i/r^2 and x_j = x_{m+1} + a_j/r - b_c/r^2, where
    c is the first column of the seed without a zero entry; cleared, as
    (d, [d*c_i])."""
    ints, n = seed.matrix._ints, seed.n
    c = next((c for c in range(n) if all(ints[c::n])), None)
    if c is None:
        raise ZeroFirstColumnError(
            "every column of the seed has a zero entry; the matching construction "
            "does not apply"
        )
    r2 = rv * rv
    bc = params.b[c] / r2
    return _cleared([*(a / rv - bc for a in params.a), Fraction(0), *(-b / r2 for b in params.b)])


def _positive_root(cs: Sequence[float]) -> float:
    """The unique t above max(-c_i) with prod(t + c_i) = 1.

    The product is strictly increasing from 0 to infinity there, so plain
    bisection is safe; one Newton step polishes the result.
    """
    lo = max(-c for c in cs)
    hi = 2.0 + sum(abs(c) for c in cs)

    def value(t: float) -> float:
        acc = 1.0
        for c in cs:
            acc *= t + c
        return acc - 1.0

    if value(hi) < 0:
        raise NoPositiveRootError("bracket failed; r is too small for these parameters")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = value(mid)
        if fm == 0.0:
            return mid
        if fm < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= ROOT_TOLERANCE * max(1.0, abs(mid)):
            break
    root = 0.5 * (lo + hi)
    for _ in range(2):
        fr = value(root)
        slope = 0.0
        for j in range(len(cs)):
            term = 1.0
            for i, c in enumerate(cs):
                if i != j:
                    term *= root + c
            slope += term
        if slope == 0.0:
            break
        root -= fr / slope
    if not root > max(-c for c in cs):
        raise NoPositiveRootError("no positive diagonal solves the determinant condition")
    return root


def _certified(root: float, den: int, cs: Sequence[int]) -> bool:
    """Whether the exact root of prod(t + c_i) = 1, c_i = cs[i] / den, lies
    between the float neighbours lo < root < hi, with lo + min c_i > 0: every
    factor is then positive and the product increasing on [lo, hi], so the
    sign change brackets the root within one ulp of `root`.  All in integers.
    """
    lo, hi = math.nextafter(root, -math.inf), math.nextafter(root, math.inf)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return False
    (p, q), above = lo.as_integer_ratio(), hi.as_integer_ratio()

    def excess(p: int, q: int) -> int:  # (q*den)^k (prod(t + c_i) - 1) at t = p / q
        return math.prod(p * den + c * q for c in cs) - (q * den) ** len(cs)

    return p * den + min(cs) * q > 0 and excess(p, q) < 0 < excess(*above)


def _trace_point(
    seed: SeedMatrix, params: GroupElementParams, r: int | str | Fraction
) -> tuple[list[float], list[list[float]], tuple[float, int, list[int]]]:
    """The solved diagonal, its conjugate P_r^-1 diag(x) P_r at r, and the
    arguments of `_certified`: the root and the cleared offsets (d, [d*c_i]).

    N = P_r - I is nonzero only in rows 0..m and columns m+1.., so N^2 = 0 and
    N D N = 0 for D = diag(c): the exact part P_r^-1 D P_r = (I - N) D (I + N)
    is D + DN - ND, with diagonal c and entry (i, j) off it N_ij (c_i - c_j).
    """
    rv = rational(r)
    pr = build_Pr(seed, rv)
    den, cs = _offsets(seed, params, rv)
    root = _positive_root([c / den for c in cs])
    k, ns, scale = pr.ncols, pr._ints, pr._den * den
    matrix = [
        [n * (ci - cj) / scale if n else 0.0 for n, cj in zip(ns[i * k : (i + 1) * k], cs)]
        for i, ci in enumerate(cs)
    ]
    diag = [c / den + root for c in cs]
    for i, x in enumerate(diag):
        matrix[i][i] = x
    return diag, matrix, (root, den, cs)


def diagonal_for_target(
    seed: SeedMatrix, params: GroupElementParams, r: int | str | Fraction
) -> list[float]:
    """The positive diagonal whose conjugate matches the target element at r."""
    diag, _, _ = _trace_point(seed, params, r)
    if any(x <= 0 for x in diag):
        raise NoPositiveRootError("solved diagonal has a nonpositive entry")
    return diag


def conjugated_element(
    seed: SeedMatrix, params: GroupElementParams, r: int | str | Fraction
) -> list[list[float]]:
    """The conjugate of the solved diagonal, as a float matrix.

    The matching rules use the first zero-free column of the seed, so seeds
    whose first column has zeros converge to their group element as well.
    """
    _, matrix, _ = _trace_point(seed, params, r)
    return matrix


class ConvergenceTrace(_Frozen):
    r_values: tuple[Fraction, ...]
    distances: tuple[float, ...]
    diag_entries: tuple[tuple[float, ...], ...]

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not (len(self.r_values) == len(self.distances) == len(self.diag_entries)):
            raise ValueError("trace lists must have equal length")


def convergence_report(
    seed: SeedMatrix,
    params: GroupElementParams,
    r_schedule: Sequence[int | str | Fraction],
    tolerance: float = 1e-12,
) -> ConvergenceTrace:
    """Max-entry distances between the conjugated diagonals and the target.

    The schedule must be strictly increasing.  Every solved diagonal must be
    positive, and its root either certified by an exact sign change at its
    float neighbours or giving a float product within `tolerance` of 1.
    """
    rs = [rational(r) for r in r_schedule]
    if not rs:
        raise ScheduleError("empty r schedule")
    if any(r2 <= r1 for r1, r2 in zip(rs, rs[1:])):
        raise ScheduleError("r schedule must be strictly increasing")
    try:
        exact = rho(seed, params)
        target = [x / exact._den for x in exact._ints]
        points = [_trace_point(seed, params, rv) for rv in rs]
    except OverflowError as exc:
        raise FloatRangeError(f"an exact value is past the float range: {exc}") from exc
    distances = []
    diags = []
    for rv, (diag, matrix, bracket) in zip(rs, points):
        product = 1.0
        for x in diag:
            product *= x
        if any(x <= 0 for x in diag) or (abs(product - 1.0) > tolerance and not _certified(*bracket)):
            raise NoPositiveRootError(
                f"solved diagonal at r = {rv} violates the determinant condition"
            )
        dist = max(map(abs, map(sub, chain.from_iterable(matrix), target)))
        distances.append(dist)
        diags.append(tuple(diag))
    return ConvergenceTrace(tuple(rs), tuple(distances), tuple(diags))
