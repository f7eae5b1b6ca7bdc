"""Shared test oracles, independent of the library's DP code."""

from __future__ import annotations

import numpy as np

from tswarp import RecursionDepthError, SpaceStats, SplitPoint, TimeSeries
from tswarp.core import backtrack_path, dense_columns

INF = float("inf")


def brute_force_min_cost(s: TimeSeries, q: TimeSeries) -> float:
    """Minimum warping-path cost by exhaustive path enumeration.

    Depth-first over every monotone, continuous path from (1,1) to
    (n,m); only branch pruning on the running best, which cannot drop
    the optimum because local costs are non-negative.
    """
    sv = s.values.tolist()
    qv = q.values.tolist()
    n = len(sv)
    m = len(qv)
    best = [INF]

    def go(i: int, j: int, acc: float) -> None:
        d = sv[i] - qv[j]
        acc += d * d
        if acc >= best[0]:
            return
        if i == n - 1 and j == m - 1:
            best[0] = acc
            return
        if i + 1 < n and j + 1 < m:
            go(i + 1, j + 1, acc)
        if i + 1 < n:
            go(i + 1, j, acc)
        if j + 1 < m:
            go(i, j + 1, acc)

    go(0, 0, 0.0)
    return best[0]


def path_cost(path, s: TimeSeries, q: TimeSeries) -> float:
    """Sum of local costs along a path; for cross-checking raw_cost."""
    sv = s.values
    qv = q.values
    total = 0.0
    for i, j in path:
        d = float(sv[i - 1]) - float(qv[j - 1])
        total += d * d
    return total


def band_reaches(n: int, m: int, width: int) -> bool:
    """Whether a warping path joins (1,1) to (n,m) through band cells.

    A boolean DP over the whole n x m matrix: a cell is in the band iff
    |i*m - j*n| <= width*m, and (1,1) is always open.
    """
    above = [False] * (m + 1)
    for i in range(1, n + 1):
        row = [False] * (m + 1)
        for j in range(1, m + 1):
            if i == j == 1:
                row[j] = True
            elif abs(i * m - j * n) <= width * m:
                row[j] = row[j - 1] or above[j - 1] or above[j]
        above = row
    return above[m]


def random_pair(
    rng: np.random.Generator,
    max_len: int = 8,
    min_len: int = 1,
    integers: bool = False,
) -> tuple[TimeSeries, TimeSeries]:
    """A random (possibly unequal-length) series pair."""
    n = int(rng.integers(min_len, max_len + 1))
    m = int(rng.integers(min_len, max_len + 1))
    if integers:
        a = rng.integers(-5, 6, size=n).astype(float)
        b = rng.integers(-5, 6, size=m).astype(float)
    else:
        a = rng.normal(size=n)
        b = rng.normal(size=m)
    return TimeSeries("a", a), TimeSeries("b", b)


def reference_dc(s: TimeSeries, q: TimeSeries, mid_mode: str = "ceil"):
    """Divide-and-conquer alignment as a depth-first recursion over
    column sweeps: the reference that ``dc_align``'s level-batched
    wavefront must reproduce.

    Returns (splits, 1-based path, raw cost, SpaceStats), or raises
    ``RecursionDepthError`` with ``dc_align``'s message.  The peak comes
    from a live count of records allocated and freed as the recursion
    runs, not from ``SpaceStats``' per-node maximum.
    """
    sv = s.values.tolist()
    qv = q.values.tolist()
    count = {"live": 0, "peak": 0, "cells": 0}
    splits = []

    def alloc(records):
        count["live"] += records
        count["peak"] = max(count["peak"], count["live"])

    def free(records):
        count["live"] -= records

    def last_column(a, b):
        n = len(a)
        alloc(2 * n)
        count["cells"] += n * len(b)
        for col in dense_columns(a, b):
            pass
        free(2 * n)
        return col

    def solve(s_lo, s_hi, q_lo, q_hi):
        n_sub = s_hi - s_lo + 1
        m_sub = q_hi - q_lo + 1
        if n_sub <= 2 or m_sub <= 2:
            alloc(n_sub * m_sub)
            count["cells"] += n_sub * m_sub
            cols = list(dense_columns(sv[s_lo : s_hi + 1], qv[q_lo : q_hi + 1]))
            sub = backtrack_path(lambda i, j: cols[j - 1][i - 1], n_sub, m_sub)
            free(n_sub * m_sub)
            return [(s_lo + i - 1, q_lo + j - 1) for i, j in sub]
        mid_off = (m_sub + 1) // 2 if mid_mode == "ceil" else m_sub // 2
        mid = q_lo + mid_off - 1
        f = last_column(sv[s_lo : s_hi + 1], qv[q_lo : mid + 1])
        alloc(n_sub)
        g = last_column(sv[s_lo : s_hi + 1][::-1], qv[mid : q_hi + 1][::-1])[::-1]
        alloc(n_sub)
        best_row = 0
        best = f[0] + g[0]
        for i in range(1, n_sub):
            if f[i] + g[i] < best:
                best = f[i] + g[i]
                best_row = i
        free(2 * n_sub)
        split_i = s_lo + best_row
        if split_i == s_lo and mid == q_lo:  # the right half is this box
            raise RecursionDepthError(
                f"midpoint mode {mid_mode!r} does not terminate on this input: "
                "a box splits into itself"
            )
        splits.append(SplitPoint(split_i + 1, mid + 1))
        left = solve(s_lo, split_i, q_lo, mid)
        right = solve(split_i, s_hi, mid, q_hi)
        return left + right[1:]

    cells = solve(0, len(sv) - 1, 0, len(qv) - 1)
    assert count["live"] == 0  # everything freed
    stats = SpaceStats(count["peak"], count["cells"])
    raw = 0.0
    for i, j in cells:
        d = sv[i] - qv[j]
        raw += d * d
    return splits, [(i + 1, j + 1) for i, j in cells], raw, stats
