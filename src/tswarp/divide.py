"""Divide-and-conquer alignment in linear space.

Recursively splits the warping matrix at the middle column, locating
the split row by combining a forward and a backward space-efficient
cost sweep.  The approach only keeps O(n + m) DP cells alive at any
time, but it does NOT always return the optimal warping path; that
failure mode is part of what this module exists to demonstrate, so it
is reproduced faithfully rather than repaired.

The ceil midpoint is the default.  The floor midpoint variant recurses
forever on some inputs; it is available behind a flag and raises at the
split that repeats its box.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import (
    AlignmentResult,
    TimeSeries,
    WarpingPath,
    backtrack_path,
    check_cost_range,
    dense_columns,
    local_distance,
    sweep_buffer,
    sweep_diagonals,
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

# Anti-diagonals swept per block of a level's batch.
_BLOCK = 32

_INF = float("inf")


class RecursionDepthError(RuntimeError):
    """The recursion does not terminate: a split's right half is its
    whole box (the floor-midpoint pathology on three-column boxes)."""


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
    """Peak DP cell records under the per-subproblem model, so that the
    linear-space claim is testable, and the cells computed.

    A split node holds one half's last column (n records) while the
    other half sweeps two rolling columns (2n); a base case holds its
    dense n x m matrix.  Every node frees its records before its
    children run, so the peak is the largest node's records, whatever
    order the nodes run in.  The sweeps themselves run batched, a whole
    recursion level per wavefront, in a buffer of O(block * (m + nodes))
    floats that this model does not count.
    """

    peak: int = 0
    computed_cells: int = 0

    def node(self, records: int, cells: int) -> None:
        self.peak = max(self.peak, records)
        self.computed_cells += cells


def _last_columns(problems: list[tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray]:
    """Last column D(i, m) of each (rows, columns) problem's cumulative
    matrix, every problem swept in one ``sweep_diagonals`` batch.

    Slots are the problems' columns, each run after a pad.  The samples
    of all problems sit in one array, each problem's after an inf
    sentinel and the last one's before another.  A slot's sample index
    on a diagonal is clipped to the sentinels around its problem, so an
    off-matrix cell reads inf and its local cost is inf.  The last
    column's index is also where its cost is kept, in an array laid out
    like the samples.
    """
    ns = [a.size for a, _ in problems]
    ws = [b.size for _, b in problems]
    sentinel = np.full(1, _INF)
    samples = np.concatenate([x for a, _ in problems for x in (sentinel, a)] + [sentinel])
    starts = list(accumulate([n + 1 for n in ns[:-1]], initial=1))
    sizes = [w + 1 for w in ws]  # a pad, then the columns
    pads = list(accumulate(sizes[:-1], initial=0))
    ends = [p + w for p, w in zip(pads, ws)]
    width = sum(sizes)
    first = np.repeat(starts, sizes)
    col = np.arange(width) - np.repeat(pads, sizes) - 1  # -1 at the pads
    off = first - col
    lo = first - 1
    hi = first + np.repeat(ns, sizes)
    lo[pads] = hi[pads] = 0  # a pad reads the first sentinel
    across = np.concatenate([x for _, b in problems for x in (np.zeros(1), b)])
    diags = max(n + w - 1 for n, w in zip(ns, ws))
    d = np.arange(diags)[:, None]
    idx = np.empty((_BLOCK, width), np.intp)

    def fill(d0: int, rows: np.ndarray) -> None:
        at = idx[: len(rows)]
        np.add(d[d0 : d0 + len(rows)], off, out=at)
        np.maximum(at, lo, out=at)
        np.minimum(at, hi, out=at)
        np.take(samples, at, out=rows, mode="clip")
        rows -= across
        rows *= rows

    out = np.empty(samples.size)
    with sweep_buffer():  # the broadcasts in ``fill``
        for rows in sweep_diagonals(width, pads, diags, _BLOCK, fill):
            out[idx[: len(rows) - 2, ends]] = rows[2:, ends]
    return [out[a : a + n] for a, n in zip(starts, ns)]


def forward_space_efficient(s: TimeSeries, q: TimeSeries) -> list[float]:
    """Cumulative costs D(i, m) for every row i, in O(|s| + |q|) space.
    Raises ``CostOverflowError`` when path costs could overflow."""
    check_cost_range(s, q)
    return _last_columns([(s.values, q.values)])[0].tolist()


def backward_space_efficient(s: TimeSeries, q: TimeSeries) -> list[float]:
    """Cost-to-go from each (i, 1) to (n, m): the forward sweep of the
    reversed problem, re-reversed.  Raises ``CostOverflowError`` when
    path costs could overflow."""
    check_cost_range(s, q)
    return _last_columns([(s.values[::-1], q.values[::-1])])[0][::-1].tolist()


def _dense_subpath(
    s: list[float], q: list[float], stats: SpaceStats
) -> list[tuple[int, int]]:
    """Optimal path of a base-case subproblem via a small dense matrix.

    Returns 1-based (i, j) cells local to the subproblem.
    """
    n = len(s)
    m = len(q)
    stats.node(n * m, n * m)
    cols = list(dense_columns(s, q))
    return backtrack_path(lambda i, j: cols[j - 1][i - 1], n, m)


def _solve(
    s: np.ndarray, q: np.ndarray, mid_mode: str, stats: SpaceStats
) -> tuple[list[tuple[int, int]], list[SplitPoint]]:
    """The stitched path (0-based cells) and the split points, in the
    depth-first preorder of the recursion tree.

    The tree is built one level at a time.  A node is a box
    S[s_lo..s_hi] x Q[q_lo..q_hi] (0-based inclusive).  Each split node
    of a level adds its forward half and its reversed backward half to
    the level's one batch of sweeps; its split row is the first minimum
    of the two halves' last columns summed.  A box of two rows or
    columns or fewer is a base case, solved densely.  Every child box is
    strictly smaller than its parent, so the tree ends within n + m
    levels, except where the split row is the box's first and the
    middle column its first: there the right half is the box itself.
    """
    sl = s.tolist()
    ql = q.tolist()
    nodes: list = [None]  # per node: its cells, or (split, left, right)
    level = [(0, 0, s.size - 1, 0, q.size - 1)]  # (node, box)
    while level:
        inner = []
        halves = []
        for at, s_lo, s_hi, q_lo, q_hi in level:
            n_sub = s_hi - s_lo + 1
            m_sub = q_hi - q_lo + 1
            if n_sub <= 2 or m_sub <= 2:
                sub = _dense_subpath(sl[s_lo : s_hi + 1], ql[q_lo : q_hi + 1], stats)
                nodes[at] = [(s_lo + i - 1, q_lo + j - 1) for i, j in sub]
                continue
            mid = q_lo + (m_sub + 1 if mid_mode == "ceil" else m_sub) // 2 - 1
            # One half's last column is kept while the other sweeps.
            stats.node(3 * n_sub, n_sub * (m_sub + 1))
            rows = s[s_lo : s_hi + 1]
            halves += [(rows, q[q_lo : mid + 1]), (rows[::-1], q[mid : q_hi + 1][::-1])]
            inner.append((at, s_lo, s_hi, q_lo, q_hi, mid))
        cols = _last_columns(halves) if halves else []
        level = []
        for (at, s_lo, s_hi, q_lo, q_hi, mid), f, g in zip(inner, cols[::2], cols[1::2]):
            split_i = s_lo + int(np.argmin(f + g[::-1]))
            if split_i == s_lo and mid == q_lo:
                raise RecursionDepthError(
                    f"midpoint mode {mid_mode!r} does not terminate on this input: "
                    "a box splits into itself"
                )
            left = len(nodes)
            nodes[at] = (SplitPoint(split_i + 1, mid + 1), left, left + 1)
            nodes += [None, None]
            level += [(left, s_lo, split_i, q_lo, mid), (left + 1, split_i, s_hi, mid, q_hi)]
    path: list[tuple[int, int]] = []
    splits = []
    stack = [0]
    while stack:
        node = nodes[stack.pop()]
        if isinstance(node, list):
            # A leaf's first cell is the split cell that ends the path so far.
            path += node[1:] if path else node
        else:
            splits.append(node[0])
            stack += (node[2], node[1])
    return path, splits


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
    stats = SpaceStats()
    cells, splits = _solve(s.values, q.values, mid_mode, stats)
    path = WarpingPath._of(tuple((i + 1, j + 1) for i, j in cells))
    raw = 0.0
    sv = s.values.tolist()
    qv = q.values.tolist()
    for i, j in cells:
        raw += local_distance(sv[i], qv[j])
    elapsed = time.perf_counter() - start
    return DCAlignmentResult(
        path=path,
        raw_cost=raw,
        computed_cells=stats.computed_cells,
        elapsed=elapsed,
        algorithm_params={"algorithm": "dc", "mid_mode": mid_mode},
        splits=tuple(splits),
        space=stats,
    )
