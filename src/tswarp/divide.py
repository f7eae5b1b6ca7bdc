"""Divide-and-conquer alignment in linear space.

Recursively splits the warping matrix at the middle column, locating
the split row by combining a forward and a backward space-efficient
cost sweep.  The approach only keeps O(n + m) DP cells alive at any
time, but it does NOT always return the optimal warping path; that
failure mode is part of what this module exists to demonstrate, so it
is reproduced faithfully rather than repaired.

The ceil midpoint is the default.  The floor midpoint variant recurses
forever on some inputs; it is available behind a flag and is stopped by
a depth guard.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .core import (
    AlignmentResult,
    TimeSeries,
    WarpingPath,
    backtrack_path,
    check_cost_range,
    dense_columns,
    local_distance,
    normalized_distance,
)

__all__ = [
    "SplitPoint",
    "SpaceStats",
    "DCAlignmentResult",
    "RecursionDepthError",
    "forward_space_efficient",
    "backward_space_efficient",
    "dc_align",
]

DEFAULT_MAX_DEPTH = 128


class RecursionDepthError(RuntimeError):
    """The recursion guard tripped (floor-midpoint pathology)."""


@dataclass(frozen=True)
class SplitPoint:
    q_row: int
    mid_col: int


@dataclass(frozen=True)
class DCAlignmentResult(AlignmentResult):
    """Alignment result plus split points and space instrumentation."""

    splits: tuple[SplitPoint, ...] = ()
    space: "SpaceStats | None" = None


@dataclass
class SpaceStats:
    """Tracks live DP cell records so the linear-space claim is testable."""

    current: int = 0
    peak: int = 0
    computed_cells: int = 0

    def alloc(self, cells: int) -> None:
        self.current += cells
        if self.current > self.peak:
            self.peak = self.current

    def free(self, cells: int) -> None:
        self.current -= cells


def _forward_last_column(
    s: list[float], q: list[float], stats: SpaceStats | None
) -> list[float]:
    """Last column of the cumulative DTW matrix, two-column rolling storage."""
    n = len(s)
    if stats is not None:
        stats.alloc(2 * n)
        stats.computed_cells += n * len(q)
    for col in dense_columns(s, q):
        pass
    if stats is not None:
        stats.free(2 * n)
    return col


def forward_space_efficient(s: TimeSeries, q: TimeSeries) -> list[float]:
    """Cumulative costs D(i, m) for every row i, in O(|s|) space."""
    return _forward_last_column(s.values.tolist(), q.values.tolist(), None)


def backward_space_efficient(s: TimeSeries, q: TimeSeries) -> list[float]:
    """Cost-to-go from each (i, 1) to (n, m): the forward sweep of the
    reversed problem, re-reversed."""
    rev = _forward_last_column(
        s.values.tolist()[::-1], q.values.tolist()[::-1], None
    )
    return rev[::-1]


def _dense_subpath(
    s: list[float], q: list[float], stats: SpaceStats
) -> list[tuple[int, int]]:
    """Optimal path of a base-case subproblem via a small dense matrix.

    Returns 1-based (i, j) cells local to the subproblem.
    """
    n = len(s)
    m = len(q)
    stats.alloc(n * m)
    stats.computed_cells += n * m
    cols = list(dense_columns(s, q))
    path = backtrack_path(lambda i, j: cols[j - 1][i - 1], n, m)
    stats.free(n * m)
    return path


@dataclass
class _Run:
    s: list[float]
    q: list[float]
    mid_mode: str
    stats: SpaceStats = field(default_factory=SpaceStats)
    splits: list[SplitPoint] = field(default_factory=list)

    def solve(self, s_lo: int, s_hi: int, q_lo: int, q_hi: int, depth: int) -> list[tuple[int, int]]:
        """Path for S[s_lo..s_hi] x Q[q_lo..q_hi] (0-based inclusive),
        returned in global 0-based coordinates."""
        if depth > DEFAULT_MAX_DEPTH:
            raise RecursionDepthError(
                f"recursion depth exceeded {DEFAULT_MAX_DEPTH}; "
                f"midpoint mode {self.mid_mode!r} does not terminate on this input"
            )
        n_sub = s_hi - s_lo + 1
        m_sub = q_hi - q_lo + 1
        if n_sub <= 2 or m_sub <= 2:
            sub = _dense_subpath(
                self.s[s_lo : s_hi + 1], self.q[q_lo : q_hi + 1], self.stats
            )
            return [(s_lo + i - 1, q_lo + j - 1) for i, j in sub]
        if self.mid_mode == "ceil":
            mid_off = (m_sub + 1) // 2
        else:
            mid_off = m_sub // 2
        mid = q_lo + mid_off - 1  # 0-based global split column
        f = _forward_last_column(
            self.s[s_lo : s_hi + 1], self.q[q_lo : mid + 1], self.stats
        )
        self.stats.alloc(n_sub)
        g_rev = _forward_last_column(
            self.s[s_lo : s_hi + 1][::-1], self.q[mid : q_hi + 1][::-1], self.stats
        )
        self.stats.alloc(n_sub)
        g = g_rev[::-1]
        best_row = 0
        best = f[0] + g[0]
        for i in range(1, n_sub):
            v = f[i] + g[i]
            if v < best:
                best = v
                best_row = i
        self.stats.free(2 * n_sub)
        split_i = s_lo + best_row
        self.splits.append(SplitPoint(split_i + 1, mid + 1))
        left = self.solve(s_lo, split_i, q_lo, mid, depth + 1)
        right = self.solve(split_i, s_hi, mid, q_hi, depth + 1)
        # The split cell belongs to both halves; drop the duplicate.
        return left + right[1:]


def dc_align(
    s: TimeSeries,
    q: TimeSeries,
    mid_mode: str = "ceil",
) -> AlignmentResult:
    """Linear-space divide-and-conquer alignment.

    The returned cost is recomputed by summing local costs along the
    stitched path, so it is always the true cost of the path handed
    back -- which may exceed the optimal cost.
    """
    if mid_mode not in ("ceil", "floor"):
        raise ValueError("mid_mode must be 'ceil' or 'floor'")
    check_cost_range(s, q)
    start = time.perf_counter()
    run = _Run(s.values.tolist(), q.values.tolist(), mid_mode)
    cells = run.solve(0, len(s) - 1, 0, len(q) - 1, 0)
    path = WarpingPath((i + 1, j + 1) for i, j in cells)
    raw = 0.0
    sv = run.s
    qv = run.q
    for i, j in cells:
        raw += local_distance(sv[i], qv[j])
    elapsed = time.perf_counter() - start
    return DCAlignmentResult(
        path=path,
        raw_cost=raw,
        normalized_distance=normalized_distance(raw, path.K),
        computed_cells=run.stats.computed_cells,
        elapsed=elapsed,
        algorithm_params={"algorithm": "dc", "mid_mode": mid_mode},
        splits=tuple(run.splits),
        space=run.stats,
    )
