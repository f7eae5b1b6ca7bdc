"""Banded dynamic time warping.

Restricts the DP to a band of the given width around the (slope
adjusted) matrix diagonal.  Cheaper than the full matrix, but the
result is only optimal when the optimal path happens to stay inside
the band.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .core import (
    AlignmentResult,
    TimeSeries,
    WarpingPath,
    backtrack_path,
    check_cost_range,
    normalized_distance,
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


def _runs(j: int, n: int, m: int, width: int) -> list[tuple[int, int]]:
    """Maximal 1-based row runs (first, last) of column j's open cells.

    The band's centre line passes through (n, m), so that corner is
    always in band; (1, 1) can fall outside on strongly non-square
    matrices and is forced into column 1, joining the band's run when
    adjacent to it.
    """
    lo, hi = _row_range(j, n, m, width)
    runs = [(lo, hi)] if lo <= hi else []
    if j == 1 and not lo <= 1 <= hi:
        if runs and lo == 2:
            runs = [(1, hi)]
        else:
            runs.insert(0, (1, 1))
    return runs


def _window(col: tuple[int, list[float]], lo: int, hi: int) -> list[float]:
    """Costs of rows lo..hi of a stored column, inf outside its cells."""
    first, costs = col
    a = max(lo, first)
    b = min(hi, first + len(costs) - 1)
    if a > b:
        return [_INF] * (hi - lo + 1)
    return [_INF] * (a - lo) + costs[a - first : b - first + 1] + [_INF] * (hi - b)


def _sweep(
    sv: list[float], qv: list[float], width: int
) -> tuple[list[tuple[int, list[float]]], int]:
    """Band costs per column as (first row, costs), plus the cell count.

    Column 0 holds only the virtual origin (0, 0) at cost 0.  Rows
    between two runs of a column are stored as inf.
    """
    n = len(sv)
    m = len(qv)
    cols = [(0, [0.0])]
    computed = 0
    for j in range(1, m + 1):
        prev = cols[-1]
        qj = qv[j - 1]
        runs = _runs(j, n, m, width)
        first = runs[0][0] if runs else 1
        costs: list[float] = []
        for a, b in runs:
            costs += [_INF] * (a - first - len(costs))
            pv = _window(prev, a - 1, b)
            costs += sweep_column(sv[a - 1 : b], qj, pv[1:], pv[0], _INF)
            computed += b - a + 1
        cols.append((first, costs))
    return cols, computed


def _connected(n: int, m: int, width: int) -> bool:
    """Reachability of (n,m) from (1,1) through in-band cells: the band
    sweep over all-zero samples ends finite."""
    cols, _ = _sweep([0.0] * n, [0.0] * m, width)
    return cols[m][1][-1] < _INF


def min_connecting_width(n: int, m: int) -> int:
    """Smallest band width for which (1,1) and (n,m) stay connected."""
    for w in range(0, max(n, m) + 1):
        if _connected(n, m, w):
            return w
    return max(n, m)


def dtw_band(s: TimeSeries, q: TimeSeries, band: BandSpec) -> AlignmentResult:
    """DTW restricted to the band; out-of-band cells are never opened.

    The corner cells (1,1) and (n,m) are always evaluated even if the
    centered band misses them on strongly non-square matrices, so a
    too-narrow band fails with a typed disconnection error rather than
    silently returning an infinite cost.  Only in-band cells are
    stored, O(w * max(n, m)) of them.
    """
    check_cost_range(s, q)
    start = time.perf_counter()
    n = len(s)
    m = len(q)
    width = band.width
    cols, computed = _sweep(s.values.tolist(), q.values.tolist(), width)
    raw = cols[m][1][-1]
    if raw == _INF:
        raise BandDisconnectedError(width, min_connecting_width(n, m))

    def cost(i: int, j: int) -> float | None:
        first, costs = cols[j]
        k = i - first
        return costs[k] if 0 <= k < len(costs) else None

    path = WarpingPath(backtrack_path(cost, n, m))
    elapsed = time.perf_counter() - start
    return AlignmentResult(
        path=path,
        raw_cost=raw,
        normalized_distance=normalized_distance(raw, path.K),
        computed_cells=computed,
        elapsed=elapsed,
        algorithm_params={"algorithm": "band", "width": width},
    )
