"""Numerical witness of one group degenerating onto another.

For a seed matrix T, the conjugates of the positive diagonal group by a
one-parameter family of unipotent matrices P_r converge entrywise to the
T-group.  This module solves the determinant condition for the matching
diagonal element at each r and reports the entrywise distances.

The solved diagonal splits as x_i = root + c_i with exact rational offsets
c_i; only the root is numeric.  The conjugated element is assembled as
root*I plus an exactly computed rational matrix, so the entries that match
the target exactly do so to machine precision at every r.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    FloatRangeError,
    NonpositiveRError,
    NoPositiveRootError,
    ScheduleError,
    ZeroFirstColumnError,
)
from .exactq import QMatrix, rational
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


def _inverse_Pr(pr: QMatrix) -> QMatrix:
    # P_r = I + N with N^2 = 0 and a zero diagonal, so the inverse is I - N = 2I - P_r.
    return QMatrix.identity(pr.nrows) * 2 - pr


def _offsets(
    seed: SeedMatrix, params: GroupElementParams, rv: Fraction
) -> list[Fraction]:
    """Exact offsets c_i with x_i = x_{m+1} + c_i, from the matching rules:
    x_{m+1+i} = x_{m+1} - b_i/r^2 and x_j = x_{m+1} + a_j/r - b_c/r^2, where
    c is the first column of the seed without a zero entry."""
    rows = seed.matrix.rows
    c = next((c for c in range(seed.n) if all(row[c] != 0 for row in rows)), None)
    if c is None:
        raise ZeroFirstColumnError(
            "every column of the seed has a zero entry; the matching construction "
            "does not apply"
        )
    m, n = seed.m, seed.n
    r2 = rv * rv
    cs = [params.a[j] / rv - params.b[c] / r2 for j in range(m)]
    cs.append(Fraction(0))
    cs.extend(-params.b[i] / r2 for i in range(n))
    return cs


def _positive_root(offsets: Sequence[Fraction]) -> float:
    """The unique t above max(-c_i) with prod(t + c_i) = 1.

    The product is strictly increasing from 0 to infinity there, so plain
    bisection is safe; one Newton step polishes the result.
    """
    cs = [float(c) for c in offsets]
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


def _trace_point(
    seed: SeedMatrix, params: GroupElementParams, r: int | str | Fraction
) -> tuple[list[float], list[list[float]]]:
    """The solved diagonal and its conjugate P_r^-1 diag(x) P_r at r.

    The diagonal of the exact part P_r^-1 diag(c) P_r is c itself: N = P_r - I
    is nonzero only in rows 0..m and columns m+1.., so the diagonals of ND,
    DN and NDN are zero.
    """
    rv = rational(r)
    pr = build_Pr(seed, rv)
    cs = _offsets(seed, params, rv)
    root = _positive_root(cs)
    exact = _inverse_Pr(pr) * QMatrix.diagonal(cs) * pr
    matrix = [
        [float(x) + (root if i == j else 0.0) for j, x in enumerate(row)]
        for i, row in enumerate(exact.rows)
    ]
    diag = [row[i] for i, row in enumerate(matrix)]
    return diag, matrix


def diagonal_for_target(
    seed: SeedMatrix, params: GroupElementParams, r: int | str | Fraction
) -> list[float]:
    """The positive diagonal whose conjugate matches the target element at r."""
    diag, _ = _trace_point(seed, params, r)
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
    _, matrix = _trace_point(seed, params, r)
    return matrix


@dataclass(frozen=True)
class ConvergenceTrace:
    r_values: tuple[Fraction, ...]
    distances: tuple[float, ...]
    diag_entries: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not (len(self.r_values) == len(self.distances) == len(self.diag_entries)):
            raise ValueError("trace lists must have equal length")


def convergence_report(
    seed: SeedMatrix,
    params: GroupElementParams,
    r_schedule: Sequence[int | str | Fraction],
    tolerance: float = 1e-12,
) -> ConvergenceTrace:
    """Max-entry distances between the conjugated diagonals and the target.

    The schedule must be strictly increasing.  Every solved diagonal is
    checked to be positive with product within `tolerance` of 1.
    """
    rs = [rational(r) for r in r_schedule]
    if not rs:
        raise ScheduleError("empty r schedule")
    if any(r2 <= r1 for r1, r2 in zip(rs, rs[1:])):
        raise ScheduleError("r schedule must be strictly increasing")
    try:
        target = [[float(x) for x in row] for row in rho(seed, params).rows]
        points = [_trace_point(seed, params, rv) for rv in rs]
    except OverflowError as exc:
        raise FloatRangeError(f"an exact value is past the float range: {exc}") from exc
    distances = []
    diags = []
    for rv, (diag, matrix) in zip(rs, points):
        product = 1.0
        for x in diag:
            product *= x
        if any(x <= 0 for x in diag) or abs(product - 1.0) > tolerance:
            raise NoPositiveRootError(
                f"solved diagonal at r = {rv} violates the determinant condition"
            )
        dist = max(
            abs(matrix[i][j] - target[i][j])
            for i in range(len(matrix))
            for j in range(len(matrix))
        )
        distances.append(dist)
        diags.append(tuple(diag))
    return ConvergenceTrace(tuple(rs), tuple(distances), tuple(diags))
