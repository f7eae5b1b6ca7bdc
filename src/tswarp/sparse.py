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

Open cells are stored as one bitmask of open rows per column (a Python
int) and one flat float64 buffer of accumulated costs in column-major
order (see ``SparseMatrix``): 8 bytes per open cell plus about a bit per
matrix cell, where a dense matrix takes 8 bytes per cell.  The
unblocking pass works on whole columns of bits at a time.  The public
contract speaks in 1-based column-major linear indices:
index(i, j) = (j - 1) * n + i.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import accumulate, pairwise, repeat

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
    """Open cells of the warping matrix, one bitmask per column.

    A column's mask is a Python int whose bit r is set when row r
    (0-based) of that column is open.

    Stored:

    - ``col_bin``: each column's bin-opened rows, corners forced in,
      from ``populate``.
    - After ``forward_pass``: ``col_open``, each column's final open
      rows; ``col_off``, m + 1 offsets into ``vals``; and ``vals``, one
      flat float64 buffer of every open cell's accumulated cost,
      column-major with rows ascending.  Column j's costs are
      ``vals[col_off[j]:col_off[j + 1]]``, and open row r's cost sits
      at ``col_off[j]`` plus the number of open rows before r, a
      popcount of the mask's low r bits.  That is 8 bytes per open cell
      plus, per column, n / 8 bytes of mask and about 70 bytes of
      Python int and list overhead.

    ``col_rows`` (bin-opened rows), ``col_open_rows`` (final open rows)
    and ``col_vals`` (per-column views of ``vals``) are read-only views,
    derived from the masks on each access for callers that want
    per-column lists; the last two are None before the forward pass.
    """

    n: int
    m: int
    col_bin: list[int]
    col_open: list[int] | None = None
    col_off: list[int] | None = None
    vals: np.ndarray | None = None
    unblocked: int = 0

    def _masks(self) -> list[int]:
        """Each column's open rows: the final ones once the forward pass
        has run, the bin-opened ones before."""
        return self.col_bin if self.vals is None else self.col_open

    @property
    def col_rows(self) -> list[list[int]]:
        """Bin-opened rows (0-based, ascending) per column."""
        return _rows(self.col_bin, self.n)

    @property
    def col_open_rows(self) -> list[list[int]] | None:
        """Final open rows per column; None before the forward pass."""
        if self.vals is None:
            return None
        return _rows(self.col_open, self.n)

    @property
    def col_vals(self) -> list[np.ndarray] | None:
        """Accumulated costs per column, as views of ``vals``; None
        before the forward pass."""
        if self.vals is None:
            return None
        return [self.vals[a:b] for a, b in pairwise(self.col_off)]

    @property
    def open_count(self) -> int:
        if self.vals is not None:
            return self.col_off[-1]
        return sum(map(int.bit_count, self.col_bin))

    def is_open(self, i: int, j: int) -> bool:
        """1-based cell query."""
        return bool(self._masks()[j - 1] >> (i - 1) & 1)

    def open_cells(self) -> list[int]:
        """Sorted 1-based column-major linear indices of open cells."""
        n = self.n
        return [j * n + r + 1 for j, rows in enumerate(_rows(self._masks(), n)) for r in rows]

    def accumulated(self, i: int, j: int) -> float | None:
        """1-based accumulated-cost query; None for blocked cells."""
        if self.vals is None:
            raise RuntimeError("forward pass has not run yet")
        r = i - 1
        mask = self.col_open[j - 1]
        if not mask >> r & 1:
            return None
        return self.vals.item(self.col_off[j - 1] + (mask & ((1 << r) - 1)).bit_count())


def _bits(masks: list[int], n: int) -> np.ndarray:
    """Bit r of ``masks[j]`` at ``[j, r]``, one bool per bit.  Each
    row is at least n + 1 wide, so it ends in a zero past row n - 1."""
    width = n // 8 + 1
    buf = b"".join([mask.to_bytes(width, "little") for mask in masks])
    bits = np.unpackbits(np.frombuffer(buf, np.uint8), bitorder="little")
    return bits.view(bool).reshape(len(masks), 8 * width)


def _rows(masks: list[int], n: int) -> list[list[int]]:
    """The set bits of each mask, ascending."""
    return [np.flatnonzero(col).tolist() for col in _bits(masks, n)]


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

    cache: dict[tuple[int, int] | None, int] = {}
    col_bin: list[int] = []
    for j in range(m):
        key = bin_range(float(qv[j]))
        mask = cache.get(key)
        if mask is None:
            mask = 0
            if key is not None:
                rows = (sv >= bounds[key[0]][0]) & (sv <= bounds[key[1]][1])
                packed = np.packbits(rows, bitorder="little").tobytes()
                mask = int.from_bytes(packed, "little")
            cache[key] = mask
        col_bin.append(mask)
    col_bin[0] |= 1
    col_bin[m - 1] |= 1 << (n - 1)
    return SparseMatrix(n, m, col_bin)


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
    col_bin = sm.col_bin
    full = (1 << n) - 1
    # --- Pass 1: unblocking closure (open/closed status only). ---
    # Visiting cells in column-major order and opening the upper
    # neighbors of any cell whose upper neighbors are all closed is a
    # purely structural rule: it never looks at costs.  Resolving it
    # first leaves the cost sweep below with nothing to do per cell but
    # the three-way minimum.  It runs on whole columns of bits.  An open
    # cell (r, j) is stuck when (r + 1, j), (r, j + 1) and (r + 1, j + 1)
    # are all closed; unblocking it opens rows r and r + 1 of column
    # j + 1 and row r + 1 of column j, so one mask of rows r and r + 1
    # per stuck cell serves both columns.  The cell opened in column j is
    # never stuck, since (r + 1, j + 1) opens with it, and two stuck
    # cells are never in adjacent rows (a stuck cell's next row is
    # closed), so unblocking one never opens an upper neighbor of
    # another: a column's stuck cells are found in one step.  In the
    # final column a cell's only upper neighbor is the next row, so
    # everything from the first open row down opens.  Cells opened here
    # are the open cells not opened by bins, counted once at the end.
    col_open = []
    carry = 0  # rows of column j opened from column j - 1
    for b, nxt in pairwise(col_bin):
        o = b | carry
        carry = o & ~(nxt | (o | nxt) >> 1)  # the stuck cells
        if carry:
            carry |= carry << 1 & full
            o |= carry
        col_open.append(o)
    o = col_bin[-1] | carry
    col_open.append(o | (full ^ ((o & -o) - 1)))
    # --- Pass 2: cost sweep over the settled runs. ---
    # The runs come from the masks in bulk: a run starts where a bit
    # rises and ends where it falls, and the zero past each column's
    # last row keeps runs from crossing columns.
    bits = _bits(col_open, n).ravel()
    width = bits.size // m
    edges = np.flatnonzero(np.diff(bits, prepend=False))
    starts = edges[0::2]
    col_ptr = np.searchsorted(starts, np.arange(0, bits.size + 1, width)).tolist()
    run_lo = (starts % width).tolist()
    run_hi = ((edges[1::2] - 1) % width).tolist()
    del bits, edges, starts  # freed before the cost buffer is allocated
    col_off = list(accumulate(map(int.bit_count, col_open), initial=0))
    vals = np.empty(col_off[-1])
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
    prev_mask = 0
    for j in range(m):
        qj = qv[j]
        cur = [_INF] * (n + 1)
        short: list[float] = []  # scalar costs not yet written to vals
        off = short_off = col_off[j]
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
            # when they are all open there, else stitched from the dense
            # list.  best is the cheaper of each row's left and diagonal
            # neighbor.
            span = (1 << cnt) - 1
            if prev_mask >> a_row & span == span:
                p0 = col_off[j - 1] + (prev_mask & ((1 << a_row) - 1)).bit_count()
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
        prev_mask = col_open[j]
    if vals[-1] == _INF:
        raise SparseConnectivityError(
            "accumulated cost at (n, m) is infinite; open cells do not "
            "connect the corners"
        )
    sm.col_open = col_open
    sm.col_off = col_off
    sm.vals = vals
    sm.unblocked = col_off[-1] - sum(map(int.bit_count, col_bin))
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
    for j, rows in enumerate(_rows(sm._masks(), n)):
        qj = qv[j]
        for r in rows:
            lc = local_distance(sv[r], qj)
            lc_txt = "-1" if lc == 0.0 else f"{lc:g}"
            v = next(acc)
            a_txt = "" if v is None else ("inf" if v == _INF else f"{v:g}")
            out.append(f"{j * n + r + 1},{r + 1},{j + 1},{lc_txt},{a_txt},1")
    return out
