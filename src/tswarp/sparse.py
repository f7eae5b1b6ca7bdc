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

Open cells are stored run-compressed: per column, the (first row, last
row) bounds of each maximal run of consecutive open rows, and one flat
float64 buffer of accumulated costs in column-major order (see
``SparseMatrix``), so storage grows with the open cells and the runs,
not with n * m.  The public contract speaks in 1-based column-major
linear indices: index(i, j) = (j - 1) * n + i.
"""

from __future__ import annotations

import math
import time
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, pairwise, repeat

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

# Runs at least this many rows long take the vectorized cost sweep.
_VECTOR_SPAN = 48


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
    """Open cells of the warping matrix, stored as runs per column.

    A run is a maximal stretch of consecutive open rows of one column,
    a (first row, last row) pair, 0-based and inclusive.

    Stored:

    - ``col_bin_runs``: each column's bin-opened runs, corners forced
      in, from ``populate``.  Columns whose samples fall in the same
      bins share one list, so the lists are never edited in place.
    - After ``forward_pass``, the final open cells in compressed sparse
      column form.  Column j holds runs ``col_ptr[j]`` up to
      ``col_ptr[j + 1]``; run k covers rows ``run_lo[k]`` to
      ``run_hi[k]`` and their accumulated costs are
      ``vals[run_off[k]:run_off[k + 1]]``.  The run tables are
      ``array.array``s (int32 rows, int64 offsets), ``col_ptr`` is a
      list, and ``vals`` is one flat float64 buffer, column-major with
      rows ascending: 8 bytes per open cell plus 16 per run.

    ``col_rows`` (bin-opened rows), ``col_open_rows`` (final open rows)
    and ``col_vals`` (per-column views of ``vals``) are read-only views,
    derived on each access for callers that want per-column lists; the
    last two are None before the forward pass.
    """

    n: int
    m: int
    col_bin_runs: list[list[tuple[int, int]]]
    col_ptr: list[int] | None = None
    run_lo: array | None = None
    run_hi: array | None = None
    run_off: array | None = None
    vals: np.ndarray | None = None
    unblocked: int = 0

    def _column_runs(self) -> list[list[tuple[int, int]]]:
        """Each column's open runs: the final ones once the forward pass
        has run, the bin-opened ones before."""
        if self.vals is None:
            return self.col_bin_runs
        lo, hi = self.run_lo, self.run_hi
        return [list(zip(lo[p:e], hi[p:e])) for p, e in pairwise(self.col_ptr)]

    @property
    def col_rows(self) -> list[list[int]]:
        """Bin-opened rows (0-based, ascending) per column."""
        return [_expand(runs) for runs in self.col_bin_runs]

    @property
    def col_open_rows(self) -> list[list[int]] | None:
        """Final open rows per column; None before the forward pass."""
        if self.vals is None:
            return None
        return [_expand(runs) for runs in self._column_runs()]

    @property
    def col_vals(self) -> list[np.ndarray] | None:
        """Accumulated costs per column, as views of ``vals``; None
        before the forward pass."""
        if self.vals is None:
            return None
        off = self.run_off
        return [self.vals[off[p] : off[e]] for p, e in pairwise(self.col_ptr)]

    @property
    def open_count(self) -> int:
        if self.vals is not None:
            return self.run_off[-1]
        return sum(b - a + 1 for runs in self.col_bin_runs for a, b in runs)

    def is_open(self, i: int, j: int) -> bool:
        """1-based cell query."""
        if self.vals is None:
            return any(a <= i - 1 <= b for a, b in self.col_bin_runs[j - 1])
        return self.accumulated(i, j) is not None

    def open_cells(self) -> list[int]:
        """Sorted 1-based column-major linear indices of open cells."""
        out = []
        n = self.n
        for j, runs in enumerate(self._column_runs()):
            base = j * n + 1
            for a, b in runs:
                out.extend(range(base + a, base + b + 1))
        return out

    def accumulated(self, i: int, j: int) -> float | None:
        """1-based accumulated-cost query; None for blocked cells."""
        if self.vals is None:
            raise RuntimeError("forward pass has not run yet")
        r = i - 1
        first = self.col_ptr[j - 1]
        k = bisect_right(self.run_lo, r, first, self.col_ptr[j]) - 1
        if k < first or r > self.run_hi[k]:
            return None
        return float(self.vals[self.run_off[k] + r - self.run_lo[k]])


def _expand(runs: list[tuple[int, int]]) -> list[int]:
    """The rows a run list covers."""
    return [r for a, b in runs for r in range(a, b + 1)]


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

    union_cache: dict[tuple[int, int] | None, list[tuple[int, int]]] = {}
    col_bin_runs: list[list[tuple[int, int]]] = []
    for j in range(m):
        key = bin_range(float(qv[j]))
        runs = union_cache.get(key)
        if runs is None:
            runs = []
            if key is not None:
                lo_val = bounds[key[0]][0]
                hi_val = bounds[key[1]][1]
                idx = np.nonzero((sv >= lo_val) & (sv <= hi_val))[0]
                if idx.size:
                    brk = np.flatnonzero(idx[1:] != idx[:-1] + 1)
                    starts = idx[np.concatenate(([0], brk + 1))].tolist()
                    ends = idx[np.concatenate((brk, [idx.size - 1]))].tolist()
                    runs = list(zip(starts, ends))
            union_cache[key] = runs
        col_bin_runs.append(runs)
    # Columns share their run lists through the cache, so forcing a
    # corner replaces the list of column 1 or m instead of editing it.
    runs = col_bin_runs[0]
    if not runs or runs[0][0] != 0:
        if runs and runs[0][0] == 1:
            col_bin_runs[0] = [(0, runs[0][1])] + runs[1:]
        else:
            col_bin_runs[0] = [(0, 0)] + runs
    runs = col_bin_runs[m - 1]
    if not runs or runs[-1][1] != n - 1:
        if runs and runs[-1][1] == n - 2:
            col_bin_runs[m - 1] = runs[:-1] + [(runs[-1][0], n - 1)]
        else:
            col_bin_runs[m - 1] = runs + [(n - 1, n - 1)]
    return SparseMatrix(n, m, col_bin_runs)


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
    # The settled runs become the matrix's run tables, and the sweep
    # writes every cost straight into its flat buffer.
    col_ptr = list(accumulate(map(len, col_runs), initial=0))
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(col_runs)), np.intc)
    del col_runs  # free the run tuples before the cost buffer is allocated
    lo_np = flat[0::2]
    hi_np = flat[1::2]
    off_np = np.zeros(lo_np.size + 1, np.int64)
    np.cumsum(hi_np - lo_np + 1, dtype=np.int64, out=off_np[1:])
    run_lo = array("i", lo_np.tobytes())
    run_hi = array("i", hi_np.tobytes())
    run_off = array("q", off_np.tobytes())
    vals = np.empty(run_off[-1])
    sv_np = np.asarray(s.values, dtype=np.float64)
    sv = sv_np.tolist()
    qv = q.values.tolist()
    # The previous column is kept as a dense list: slot r + 1 holds row
    # r, inf where it is closed, and slot 0 the virtual cell diagonal to
    # (1, 1), cost 0 before column 0 and inf after, so that (1, 1)
    # starts every path without a special case.  Short runs go through
    # the scalar kernel on slices of it.  Long runs use a vectorized
    # form of the recurrence: with local costs lc, their prefix sums C
    # and base[i] = lc[i] + best previous-column neighbor, a chain
    # entering the run at row k and moving vertically to row i costs
    # base[k] + C[i] - C[k], so the column is C + cummin(base - C).
    # Below _VECTOR_SPAN rows its per-call overhead is not paid off.
    prev = [0.0] + [_INF] * n
    prev_first = off = 0
    for j in range(m):
        qj = qv[j]
        cur = [_INF] * (n + 1)
        short: list[float] = []  # scalar costs not yet written to vals
        short_off = off
        first, end = col_ptr[j], col_ptr[j + 1]
        for a_row, b_row in zip(run_lo[first:end], run_hi[first:end]):
            cnt = b_row - a_row + 1
            if cnt < _VECTOR_SPAN:
                col = sweep_column(
                    sv[a_row : b_row + 1],
                    qj,
                    prev[a_row + 1 : b_row + 2],
                    prev[a_row],
                    _INF,
                )
                cur[a_row + 1 : b_row + 2] = col
                short += col
                off += cnt
                continue
            if short:
                vals[short_off:off] = short
                short = []
            # Previous-column costs on the run's rows: a view of vals
            # when one previous run covers them, else stitched from the
            # dense list.  best is the cheaper of each row's left and
            # diagonal neighbor.
            k = bisect_right(run_lo, a_row, prev_first, first) - 1
            if k >= prev_first and b_row <= run_hi[k]:
                p0 = run_off[k] + a_row - run_lo[k]
                left = vals[p0 : p0 + cnt]
            else:
                left = np.array(prev[a_row + 1 : b_row + 2])
            best = left.copy()
            np.minimum(left[:-1], left[1:], out=best[1:])
            if prev[a_row] < best[0]:
                best[0] = prev[a_row]
            lc = sv_np[a_row : b_row + 1] - qj
            lc *= lc
            base = lc + best
            C = np.cumsum(lc)
            out = vals[off : off + cnt]
            np.subtract(base, C, out=out)
            np.minimum.accumulate(out, out=out)
            out += C
            cur[a_row + 1 : b_row + 2] = out.tolist()
            off += cnt
            short_off = off
        if short:
            vals[short_off:off] = short
        prev = cur
        prev_first = first
    if vals[-1] == _INF:
        raise SparseConnectivityError(
            "accumulated cost at (n, m) is infinite; open cells do not "
            "connect the corners"
        )
    sm.col_ptr = col_ptr
    sm.run_lo = run_lo
    sm.run_hi = run_hi
    sm.run_off = run_off
    sm.vals = vals
    sm.unblocked = unblocked
    return sm


def sparse_backtrack(sm: SparseMatrix) -> WarpingPath:
    """Walk open cells from (n, m) back to (1, 1).

    At each hop the open lower neighbor with the smallest accumulated
    cost wins; ties prefer the diagonal, then the vertical, then the
    horizontal neighbor, matching the dense backtracker.
    """
    if sm.vals is None:
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
    raw = float(sm.vals[-1])
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
    dense dump.  The accumulated field is empty before the forward pass.
    """
    n = sm.n
    sv = s.values.tolist()
    qv = q.values.tolist()
    acc = iter(sm.vals.tolist()) if sm.vals is not None else repeat(None)
    out = []
    for j, runs in enumerate(sm._column_runs()):
        qj = qv[j]
        for a, b in runs:
            for r in range(a, b + 1):
                lc = local_distance(sv[r], qj)
                lc_txt = "-1" if lc == 0.0 else f"{lc:g}"
                v = next(acc)
                a_txt = "" if v is None else ("inf" if v == _INF else f"{v:g}")
                out.append(f"{j * n + r + 1},{r + 1},{j + 1},{lc_txt},{a_txt},1")
    return out
