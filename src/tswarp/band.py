"""Banded dynamic time warping.

Restricts the DP to a band of the given width around the (slope
adjusted) matrix diagonal.  Cheaper than the full matrix, but the
result is only optimal when the optimal path happens to stay inside
the band.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from math import gcd

from .core import (
    AlignmentResult,
    TimeSeries,
    WarpingPath,
    backtrack_path,
    check_cost_range,
    sweep_column,
)

__all__ = [
    "BandSpec",
    "BandDisconnectedError",
    "dtw_band",
    "min_connecting_width",
]

_INF = float("inf")


@dataclass(frozen=True)
class BandSpec:
    """Maximum deviation, in cells, from the stretched diagonal i = j*(n/m)."""

    width: int

    def __post_init__(self):
        try:
            operator.index(self.width)
        except TypeError:
            raise ValueError(f"band width must be an integer, got {self.width!r}") from None
        if self.width < 0:
            raise ValueError("band width must be >= 0")


class BandDisconnectedError(RuntimeError):
    """The band is too narrow to connect (1,1) with (n,m)."""

    def __init__(self, width: int, min_width: int):
        self.width = width
        self.min_width = min_width
        super().__init__(
            f"band width {width} disconnects the matrix; "
            f"minimal connecting width is {min_width}"
        )


def _row_range(j: int, n: int, m: int, width: int) -> tuple[int, int]:
    """Inclusive 1-based row range of in-band cells in column j.

    Membership is |i - j*(n/m)| <= width, evaluated in exact integer
    arithmetic as |i*m - j*n| <= width*m.
    """
    lo = -(-(j * n - width * m) // m)  # ceil
    hi = (j * n + width * m) // m
    return max(1, lo), min(n, hi)


def _window(col: tuple[int, list[float]], lo: int, hi: int) -> list[float]:
    """Costs of rows lo..hi of the previous stored column, inf outside
    its cells.

    On a connected band the stored rows start at most one row below lo,
    reach row lo and end by row hi, so only the ends need padding.
    """
    first, costs = col
    a = max(lo, first)
    tail = hi - first + 1 - len(costs)
    return [_INF] * (a - lo) + costs[a - first :] + [_INF] * tail


def min_connecting_width(n: int, m: int) -> int:
    """Smallest band width for which (1,1) and (n,m) stay connected.

    A path through the band exists iff column 1's band starts by row 2
    (a width of at least (n - 2m)/m), each column's band starts at most
    one row below the previous column's last row, and at width 0 every
    column holds a row.  Over all columns the middle condition is
    2wm >= n - gcd(n, m), since the largest residue of j*n mod m is
    m - gcd(n, m).  Width 0 leaves a column empty unless n = m or
    m <= 2.  A single column needs only the first condition.
    """
    if m == 1:
        return max(0, n - 2)
    empty = 0 if n == m or m == 2 else 1
    return max(empty, -(-(n - 2 * m) // m), -(-(n - gcd(n, m)) // (2 * m)))


def dtw_band(s: TimeSeries, q: TimeSeries, band: BandSpec) -> AlignmentResult:
    """DTW restricted to the band; out-of-band cells are never opened.

    A width below ``min_connecting_width`` raises a typed disconnection
    error before any cell is computed, rather than returning an
    infinite cost.  The corner (1,1) is forced into column 1 even where
    the centered band misses it on strongly non-square matrices; (n,m)
    is on the band's centre line.  Each column is one run of rows, and
    only those cells are stored, O(w * max(n, m)) of them.
    """
    check_cost_range(s, q)
    n = len(s)
    m = len(q)
    width = band.width
    least = min_connecting_width(n, m)
    if width < least:
        raise BandDisconnectedError(width, least)
    start = time.perf_counter()
    sv = s.values.tolist()
    qv = q.values.tolist()
    cols = [(0, [0.0])]  # (first row, costs); column 0 is the virtual origin
    computed = 0
    for j in range(1, m + 1):
        lo, hi = _row_range(j, n, m, width)
        if j == 1:
            # The forced (1,1) joins the band's run or is the whole column.
            lo, hi = 1, max(1, hi)
        prev = _window(cols[-1], lo - 1, hi)
        cols.append((lo, sweep_column(sv[lo - 1 : hi], qv[j - 1], prev[1:], prev[0])))
        computed += hi - lo + 1

    def cost(i: int, j: int) -> float | None:
        first, costs = cols[j]
        k = i - first
        return costs[k] if 0 <= k < len(costs) else None

    path = WarpingPath._of(tuple(backtrack_path(cost, n, m)))
    elapsed = time.perf_counter() - start
    return AlignmentResult(
        path=path,
        raw_cost=cols[m][1][-1],
        computed_cells=computed,
        elapsed=elapsed,
        algorithm_params={"algorithm": "band", "width": width},
    )
