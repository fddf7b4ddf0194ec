"""Closed-form dimension counts and the integer optimization behind them.

For matrices of size k = m + n + 1 the seed-parameter space has dimension
nm - n^2 - m + 1; maximizing over the admissible integer splits of k gives
the quadratic lower bound (k^2 - 8k + 12)/8, against the k^2 - k upper bound.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CapExceededError, InvalidShapeError, KTooSmallError
from .exactq import _Frozen

#: Most values of k that one `verify_bounds` call reports on.
MAX_K_VALUES = 10_000


def dim_T(m: int, n: int) -> int:
    """nm - n^2 - m + 1 for an admissible shape (m >= n+2, n >= 2)."""
    if n < 2 or m < n + 2:
        raise InvalidShapeError(f"shape (m, n) = ({m}, {n}) needs m >= n+2 and n >= 2")
    return n * m - n * n - m + 1


def g_value(k: int, n: int) -> int:
    """kn - 2n^2 - k + 2; equals dim_T(k-n-1, n) whenever the shape is valid."""
    return k * n - 2 * n * n - k + 2


def best_integer_split(k: int) -> tuple[int, int, int]:
    """The (m, n, value) maximizing g over integers with m-2 >= n >= 2.

    g is a concave quadratic in n with its vertex at k/4, so the best integer
    is the one nearest k/4, with ties (k = 2 mod 4) toward the smaller n,
    clipped to [2, (k-3)//2].
    """
    if k < 7:
        raise KTooSmallError(f"no admissible split for k = {k} < 7")
    n = min(max((k + 1) // 4, 2), (k - 3) // 2)
    return k - n - 1, n, g_value(k, n)


def lower_bound(k: int) -> Fraction:
    """(k^2 - 8k + 12)/8, positive for k >= 7."""
    if k < 7:
        raise KTooSmallError(f"lower bound formula needs k >= 7, got {k}")
    return Fraction(k * k - 8 * k + 12, 8)


def upper_bound(k: int) -> int:
    """k^2 - k."""
    return k * k - k


class BoundsReport(_Frozen):
    k: int
    best_m: int
    best_n: int
    best_value: int
    lower_bound: Fraction
    upper_bound: int
    ok: bool


def bounds_report(k: int) -> BoundsReport:
    m, n, value = best_integer_split(k)
    lb = lower_bound(k)
    return BoundsReport(
        k=k,
        best_m=m,
        best_n=n,
        best_value=value,
        lower_bound=lb,
        upper_bound=upper_bound(k),
        ok=value >= lb,
    )


def verify_bounds(k_lo: int, k_hi: int) -> list[BoundsReport]:
    """One report per k in the range; the run is expected to be all-ok.

    A range of more than MAX_K_VALUES values raises CapExceededError.
    """
    if k_lo < 7:
        raise KTooSmallError(f"range must start at k >= 7, got {k_lo}")
    if k_hi < k_lo:
        raise KTooSmallError(f"empty range {k_lo}:{k_hi}")
    if k_hi - k_lo >= MAX_K_VALUES:
        raise CapExceededError(f"range {k_lo}:{k_hi} has more than {MAX_K_VALUES} values")
    return [bounds_report(k) for k in range(k_lo, k_hi + 1)]
