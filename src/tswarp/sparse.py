"""Sparse dynamic-programming alignment.

Both series are rescaled onto [0, 1] and bucketed into overlapping
bins; a matrix cell (i, j) is opened when the two quantized samples
share a bin.  A forward pass accumulates costs over the open cells in
column-major linear order, opening the upper neighbors of any cell
that would otherwise dead-end, and a sparse backtrack recovers the
warping path.

The accumulated cost at (n, m) is the cost of the best path through
OPEN cells.  It equals the true optimum at res = 1 only; below that it
often does not (see the regression fixtures in the test suite for a
minimal counterexample).

Cells are tracked per column internally; the public contract speaks in
1-based column-major linear indices: index(i, j) = (j - 1) * n + i.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .core import (
    AlignmentResult,
    BrokenPathError,
    QuantizedSeries,
    TimeSeries,
    WarpingPath,
    backtrack_path,
    check_cost_range,
    local_distance,
    normalized_distance,
    quantize,
    sweep_column,
)

__all__ = [
    "BinSet",
    "SparseMatrix",
    "SparseConnectivityError",
    "BrokenPathError",
    "build_bins",
    "populate",
    "lower_neighbors",
    "upper_neighbors",
    "forward_pass",
    "sparse_backtrack",
    "sparse_dtw",
    "dump_lines",
]

_INF = float("inf")

DEFAULT_RES = 0.5


class SparseConnectivityError(RuntimeError):
    """(n, m) ended up unreachable through open cells.

    This should never happen: unblocking keeps every open cell
    connected forward.  Raised (not worked around) so that a violation
    surfaces as a diagnostic instead of a silent wrong answer.
    """


@dataclass(frozen=True)
class BinSet:
    """Overlapping quantization bins.

    Bin width equals ``res``; consecutive lower bounds advance by
    ``res / 2``, so each bin overlaps its neighbor by half a width and
    there are 2/res bins when res divides evenly.
    """

    res: float
    bins: tuple[tuple[float, float], ...]

    def __len__(self) -> int:
        return len(self.bins)


def build_bins(res: float) -> BinSet:
    """Bins covering [0, 1]: width res, stride res/2, closed bounds."""
    if not (0.0 < res <= 1.0):
        raise ValueError(f"resolution must be in (0, 1], got {res}")
    half = res / 2.0
    bins = []
    k = 0
    while k * half <= 1.0 - half + 1e-12:
        lo = k * half
        bins.append((lo, lo + res))
        k += 1
    return BinSet(res, tuple(bins))


def lower_neighbors(c: int, n: int) -> set[int]:
    """In-range lower neighbors of linear cell c on an n-row grid.

    Candidates are c-1, c-n and c-n-1; the same-column candidate c-1
    and the diagonal c-n-1 wrap into the previous column when c sits in
    row 1, so they are excluded there.
    """
    row = (c - 1) % n + 1
    out = set()
    if row > 1 and c - 1 >= 1:
        out.add(c - 1)
    if c - n >= 1:
        out.add(c - n)
        if row > 1:
            out.add(c - n - 1)
    return out


def upper_neighbors(c: int, n: int, m: int) -> set[int]:
    """In-range upper neighbors of linear cell c on an n x m grid."""
    row = (c - 1) % n + 1
    last = n * m
    out = set()
    if row < n and c + 1 <= last:
        out.add(c + 1)
    if c + n <= last:
        out.add(c + n)
        if row < n and c + n + 1 <= last:
            out.add(c + n + 1)
    return out


@dataclass
class SparseMatrix:
    """Open cells of the warping matrix, stored per column.

    ``col_rows`` holds the bin-opened rows (0-based, sorted) per
    column.  After the forward pass ``col_open_rows`` holds the final
    open rows (bin-opened plus unblocked, sorted) and ``col_vals`` the
    parallel accumulated costs.
    """

    n: int
    m: int
    col_rows: list[list[int]]
    col_bin_runs: list[list[tuple[int, int]]] | None = None
    col_open_rows: list[list[int]] | None = None
    col_vals: list[np.ndarray] | None = None
    unblocked: int = 0

    @property
    def open_count(self) -> int:
        if self.col_open_rows is not None:
            return sum(len(r) for r in self.col_open_rows)
        return sum(len(r) for r in self.col_rows)

    def is_open(self, i: int, j: int) -> bool:
        """1-based cell query."""
        cols = self.col_open_rows if self.col_open_rows is not None else self.col_rows
        rows = cols[j - 1]
        k = bisect_left(rows, i - 1)
        return k < len(rows) and rows[k] == i - 1

    def open_cells(self) -> list[int]:
        """Sorted 1-based column-major linear indices of open cells."""
        out = []
        n = self.n
        cols = self.col_open_rows if self.col_open_rows is not None else self.col_rows
        for j, rows in enumerate(cols):
            base = j * n
            out.extend(base + r + 1 for r in rows)
        return out

    def accumulated(self, i: int, j: int) -> float | None:
        """1-based accumulated-cost query; None for blocked cells."""
        if self.col_vals is None:
            raise RuntimeError("forward pass has not run yet")
        rows = self.col_open_rows[j - 1]
        k = bisect_left(rows, i - 1)
        if k < len(rows) and rows[k] == i - 1:
            return float(self.col_vals[j - 1][k])
        return None


def populate(
    sq: QuantizedSeries,
    qq: QuantizedSeries,
    bins: BinSet,
    s: TimeSeries,
    q: TimeSeries,
) -> SparseMatrix:
    """Open every cell whose quantized samples co-occupy a bin.

    The corner cells (1,1) and (n,m) are force-opened: the boundary
    constraint puts them on every path, and bin membership alone does
    not guarantee the two endpoint samples share a bin.
    """
    sv = np.asarray(sq.values)
    qv = np.asarray(qq.values)
    n = sv.size
    m = qv.size
    # A sample occupies a contiguous range of the overlapping bins, so
    # the union of its bins' row sets is the rows falling in a single
    # interval.  The candidate bin range comes from arithmetic on the
    # bin stride and is then corrected against the closed bounds, so
    # boundary samples land exactly as the interval test dictates.
    half = bins.res / 2.0
    nb = len(bins.bins)
    bounds = bins.bins

    def bin_range(v: float) -> tuple[int, int] | None:
        k_lo = max(0, int(math.ceil((v - bins.res) / half - 1e-9)))
        k_hi = min(nb - 1, int(math.floor(v / half + 1e-9)))
        while k_lo > 0 and bounds[k_lo - 1][0] <= v <= bounds[k_lo - 1][1]:
            k_lo -= 1
        while k_lo <= k_hi and not (bounds[k_lo][0] <= v <= bounds[k_lo][1]):
            k_lo += 1
        while k_hi < nb - 1 and bounds[k_hi + 1][0] <= v <= bounds[k_hi + 1][1]:
            k_hi += 1
        while k_hi >= k_lo and not (bounds[k_hi][0] <= v <= bounds[k_hi][1]):
            k_hi -= 1
        if k_lo > k_hi:
            return None
        return k_lo, k_hi

    union_cache: dict[tuple[int, int] | None, tuple[list[int], list[tuple[int, int]]]] = {}
    col_rows: list[list[int]] = []
    col_bin_runs: list[list[tuple[int, int]]] = []
    for j in range(m):
        key = bin_range(float(qv[j]))
        cached = union_cache.get(key)
        if cached is None:
            if key is None:
                cached = ([], [])
            else:
                lo_val = bounds[key[0]][0]
                hi_val = bounds[key[1]][1]
                idx = np.nonzero((sv >= lo_val) & (sv <= hi_val))[0]
                if idx.size:
                    brk = np.flatnonzero(idx[1:] != idx[:-1] + 1)
                    starts = idx[np.concatenate(([0], brk + 1))].tolist()
                    ends = idx[np.concatenate((brk, [idx.size - 1]))].tolist()
                    cached = (idx.tolist(), list(zip(starts, ends)))
                else:
                    cached = ([], [])
            union_cache[key] = cached
        col_rows.append(list(cached[0]))
        col_bin_runs.append(list(cached[1]))
    if not col_rows[0] or col_rows[0][0] != 0:
        col_rows[0].insert(0, 0)
        if col_bin_runs[0] and col_bin_runs[0][0][0] == 1:
            col_bin_runs[0][0] = (0, col_bin_runs[0][0][1])
        else:
            col_bin_runs[0].insert(0, (0, 0))
    if not col_rows[m - 1] or col_rows[m - 1][-1] != n - 1:
        col_rows[m - 1].append(n - 1)
        last_runs = col_bin_runs[m - 1]
        if last_runs and last_runs[-1][1] == n - 2:
            last_runs[-1] = (last_runs[-1][0], n - 1)
        else:
            last_runs.append((n - 1, n - 1))
    return SparseMatrix(n, m, col_rows, col_bin_runs=col_bin_runs)


def forward_pass(sm: SparseMatrix, s: TimeSeries, q: TimeSeries) -> SparseMatrix:
    """Accumulate costs over open cells in column-major order.

    Each cell's cost is its local cost plus the minimum accumulated
    cost over its OPEN lower neighbors (+inf when it has none, so a
    path can never begin in mid-matrix).  After a cell is accumulated,
    if none of its in-range upper neighbors is open they are all
    opened, keeping the matrix connected through to (n, m); cells
    opened this way are visited later in the same sweep.
    """
    n = sm.n
    m = sm.m
    last_col = m - 1
    last_row = n - 1
    if sm.col_bin_runs is None:
        raise RuntimeError("populate() did not record run bounds")
    # --- Pass 1: unblocking closure (open/closed status only). ---
    # Visiting cells in column-major order and opening the upper
    # neighbors of any cell whose upper neighbors are all closed is a
    # purely structural rule: it never looks at costs.  Resolving it
    # first leaves the cost sweep below with nothing to do per cell but
    # the three-way minimum.  Two facts keep this pass cheap: only the
    # last cell of a maximal run can have zero open upper neighbors
    # (interior cells always see the next row of their own run), and a
    # cell opened by unblocking gains an open upper neighbor in the
    # next column at the same time, so extensions never cascade within
    # a column except in the final one.
    col_runs: list[list[tuple[int, int]]] = []
    unblocked = 0
    extra: list[int] = []
    for j in range(m):
        bin_runs = sm.col_bin_runs[j]
        if extra:
            # Splice the cells opened from column j-1 into the run
            # list.  They are sorted, disjoint from the bin runs, and
            # few, so a linear merge at run granularity suffices.
            merged: list[tuple[int, int]] = []
            ei = 0
            E = len(extra)
            for a_row, b_row in bin_runs:
                while ei < E and extra[ei] < a_row:
                    x = extra[ei]
                    if merged and merged[-1][1] == x - 1:
                        merged[-1] = (merged[-1][0], x)
                    else:
                        merged.append((x, x))
                    ei += 1
                if merged and merged[-1][1] == a_row - 1:
                    merged[-1] = (merged[-1][0], b_row)
                else:
                    merged.append((a_row, b_row))
            while ei < E:
                x = extra[ei]
                if merged and merged[-1][1] == x - 1:
                    merged[-1] = (merged[-1][0], x)
                else:
                    merged.append((x, x))
                ei += 1
            base_runs = merged
        else:
            base_runs = bin_runs
        nxt_runs = sm.col_bin_runs[j + 1] if j < last_col else None
        NX = len(nxt_runs) if nxt_runs is not None else 0
        extra = []
        NE = 0
        xq = 0  # run pointer into nxt_runs; queries only move down
        ep = 0  # element pointer into extra
        runs: list[tuple[int, int]] = []
        n_runs = len(base_runs)
        for ridx in range(n_runs):
            a_row, b_row = base_runs[ridx]
            # An extension of the previous run can land flush against
            # this one; merge so runs stay maximal.
            if runs and runs[-1][1] == a_row - 1:
                a_row = runs[-1][0]
                runs.pop()
            while True:
                e1 = b_row + 1
                in_col = e1 <= last_row
                if (
                    in_col
                    and ridx + 1 < n_runs
                    and base_runs[ridx + 1][0] == e1
                ):
                    break  # flush against the following run
                if nxt_runs is None:
                    if not in_col:
                        break  # bottom-right corner: no upper neighbors
                    # Final column: the only upper neighbor is e1, so
                    # the extension cascades straight down.
                    b_row = e1
                    unblocked += 1
                    continue
                # Is (b_row, j+1) or (e1, j+1) already open?  Runs and
                # extras are sorted and queries only move downward, so
                # merge pointers answer membership in amortized O(1).
                while xq < NX and nxt_runs[xq][1] < b_row:
                    xq += 1
                while ep < NE and extra[ep] < b_row:
                    ep += 1
                hit = (xq < NX and nxt_runs[xq][0] <= b_row) or (
                    ep < NE and extra[ep] == b_row
                )
                if not hit and in_col:
                    hit = (xq < NX and nxt_runs[xq][0] <= e1) or (
                        (ep < NE and extra[ep] == e1)
                        or (ep + 1 < NE and extra[ep + 1] == e1)
                    )
                if hit:
                    break
                # Zero open upper neighbors: open them all.
                extra.append(b_row)
                NE += 1
                unblocked += 1
                if in_col:
                    extra.append(e1)
                    NE += 1
                    b_row = e1
                    unblocked += 2
                # The freshly opened (b_row, j+1) is now an open upper
                # neighbor of the extension cell, so the chain stops.
                break
            runs.append((a_row, b_row))
        col_runs.append(runs)
    # --- Pass 2: cost sweep over the settled runs. ---
    # Long runs use a vectorized form of the recurrence: with local
    # costs lc, their prefix sums C and base[i] = lc[i] + best
    # previous-column neighbor, a chain entering the run at row k and
    # moving vertically to row i costs base[k] + C[i] - C[k], so the
    # column is C + cummin(base - C).  Short runs stay scalar, where
    # the per-call overhead of the vectorized form is not paid off.
    sv_np = np.asarray(s.values, dtype=np.float64)
    sv = sv_np.tolist()
    qv = q.values.tolist()
    col_open_rows: list[list[int]] = []
    col_vals: list[np.ndarray] = []
    # Column -1 holds only the virtual origin at row -1, cost 0, so
    # that (1, 1) starts every path without a special case.
    prev_vals: np.ndarray = np.zeros(1)
    prev_runs: list[tuple[int, int]] = [(-1, -1)]
    prev_offs: list[int] = [0, 1]
    vector_span = 48
    for j in range(m):
        qj = qv[j]
        rows_out: list[int] = []
        parts: list[np.ndarray] = []
        pr = 0
        PR = len(prev_runs)
        for a_row, b_row in col_runs[j]:
            rows_out.extend(range(a_row, b_row + 1))
            # Previous-column values for rows a_row-1 .. b_row, stitched
            # from the previous column's runs (array slices, inf fill
            # for closed stretches).  Run starts only move down the
            # column, so the run pointer never rewinds.
            lo = a_row - 1
            cnt = b_row - lo + 1
            while pr < PR and prev_runs[pr][1] < lo:
                pr += 1
            if pr < PR and prev_runs[pr][0] <= lo and b_row <= prev_runs[pr][1]:
                off = prev_offs[pr] + (lo - prev_runs[pr][0])
                pv = prev_vals[off : off + cnt]
            else:
                pv = np.full(cnt, _INF)
                pq = pr
                pos = lo
                while pos <= b_row and pq < PR:
                    ra, rb = prev_runs[pq]
                    if ra > b_row:
                        break
                    seg_lo = ra if ra > pos else pos
                    seg_hi = rb if rb < b_row else b_row
                    if seg_lo <= seg_hi:
                        off = prev_offs[pq] + (seg_lo - ra)
                        pv[seg_lo - lo : seg_hi - lo + 1] = prev_vals[
                            off : off + (seg_hi - seg_lo + 1)
                        ]
                    if rb >= b_row:
                        break
                    pos = rb + 1
                    pq += 1
            if b_row - a_row + 1 >= vector_span:
                lc = sv_np[a_row : b_row + 1] - qj
                lc *= lc
                base = lc + np.minimum(pv[:-1], pv[1:])
                C = np.cumsum(lc)
                out = base - C
                np.minimum.accumulate(out, out=out)
                out += C
                parts.append(out)
            else:
                pvl = pv.tolist()
                vals = sweep_column(sv[a_row : b_row + 1], qj, pvl[1:], pvl[0], _INF)
                parts.append(np.asarray(vals, dtype=np.float64))
        col_open_rows.append(rows_out)
        cur = parts[0] if len(parts) == 1 else np.concatenate(parts)
        col_vals.append(cur)
        prev_vals = cur
        prev_runs = col_runs[j]
        prev_offs = [0]
        acc_len = 0
        for ra, rb in prev_runs:
            acc_len += rb - ra + 1
            prev_offs.append(acc_len)
    final = col_vals[last_col][-1]
    if final == _INF:
        raise SparseConnectivityError(
            "accumulated cost at (n, m) is infinite; open cells do not "
            "connect the corners"
        )
    sm.col_open_rows = col_open_rows
    sm.col_vals = col_vals
    sm.unblocked = unblocked
    return sm


def sparse_backtrack(sm: SparseMatrix) -> WarpingPath:
    """Walk open cells from (n, m) back to (1, 1).

    At each hop the open lower neighbor with the smallest accumulated
    cost wins; ties prefer the diagonal, then the vertical, then the
    horizontal neighbor, matching the dense backtracker.
    """
    if sm.col_vals is None:
        raise RuntimeError("forward pass has not run yet")
    return WarpingPath(backtrack_path(sm.accumulated, sm.n, sm.m))


def _sparse_dtw(
    s: TimeSeries, q: TimeSeries, res: float
) -> tuple[AlignmentResult, SparseMatrix]:
    """``sparse_dtw`` plus the filled matrix it aligned over."""
    check_cost_range(s, q)
    start = time.perf_counter()
    bins = build_bins(res)
    sm = populate(quantize(s), quantize(q), bins, s, q)
    forward_pass(sm, s, q)
    path = sparse_backtrack(sm)
    elapsed = time.perf_counter() - start
    raw = float(sm.col_vals[sm.m - 1][-1])
    result = AlignmentResult(
        path=path,
        raw_cost=raw,
        normalized_distance=normalized_distance(raw, path.K),
        computed_cells=sm.open_count,
        elapsed=elapsed,
        algorithm_params={"algorithm": "sparse", "res": res},
    )
    return result, sm


def sparse_dtw(
    s: TimeSeries, q: TimeSeries, res: float = DEFAULT_RES
) -> AlignmentResult:
    """Quantize, bucket, open, accumulate, backtrack."""
    return _sparse_dtw(s, q, res)[0]


def dump_lines(sm: SparseMatrix, s: TimeSeries, q: TimeSeries) -> list[str]:
    """Debug dump: ``index,i,j,local,accumulated,open`` per open cell.

    A zero local cost is written as -1, mirroring the convention of
    distinguishing genuinely-zero distances from blocked cells in a
    dense dump.
    """
    n = sm.n
    out = []
    for c in sm.open_cells():
        i = (c - 1) % n + 1
        j = (c - 1) // n + 1
        lc = local_distance(float(s.values[i - 1]), float(q.values[j - 1]))
        lc_txt = "-1" if lc == 0.0 else f"{lc:g}"
        a = sm.accumulated(i, j) if sm.col_vals is not None else None
        a_txt = "" if a is None else ("inf" if a == _INF else f"{a:g}")
        out.append(f"{c},{i},{j},{lc_txt},{a_txt},1")
    return out
