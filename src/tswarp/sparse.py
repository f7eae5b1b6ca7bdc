"""Sparse dynamic-programming alignment.

Both series are rescaled onto [0, 1] and bucketed into overlapping
bins; a matrix cell (i, j) is opened when the two quantized samples
share a bin.  A forward pass accumulates costs over the open cells in
column-major linear order, opening the upper neighbors of any cell
that would otherwise dead-end and recording which lower neighbor each
cell's cost came from, and a sparse backtrack follows those records
back to (1, 1).

The accumulated cost at (n, m) is the cost of the best path through
OPEN cells.  It equals the true optimum at res = 1 only; below that it
often does not (see the regression fixtures in the test suite for a
minimal counterexample).

Open cells are stored per anti-diagonal (see ``SparseMatrix``): the
cost sweep's own packed rows, a bit per diagonal slot, and one flat
uint8 buffer of step codes in diagonal-major order, 1 byte per open
cell plus one to two bits per matrix cell, where a dense matrix takes
8 bytes per cell; a call peaks in the sweep.  The accumulated costs
are computed again, by the same sweep, only when a caller asks for
them.  The unblocking pass works on whole columns of bits at a time
and the cost sweep on whole anti-diagonals of the shorter side.
The public contract speaks in 1-based column-major linear indices:
index(i, j) = (j - 1) * n + i.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from itertools import accumulate, pairwise

import numpy as np

from .core import (
    AlignmentResult,
    QuantizedSeries,
    TimeSeries,
    WarpingPath,
    check_cost_range,
    local_distance,
    quantize,
    step_codes,
    sweep_diagonals,
)

__all__ = [
    "BinSet",
    "MIN_RES",
    "SparseMatrix",
    "SparseConnectivityError",
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


# ``populate`` groups columns by the int64 key first * count + last, which
# wraps once count**2 >= 2**63; at res 2**-30 the count is 2**31.
MIN_RES = 2**-30


@dataclass(frozen=True)
class BinSet:
    """Overlapping quantization bins, as arithmetic: bin k < ``count`` is
    [k * res / 2, k * res / 2 + res], so each bin overlaps its neighbor by
    half a width and there are 2/res bins when res divides evenly.  Built
    from ``res`` alone, which it checks, working ``count`` out from it.
    """

    res: float
    count: int = field(init=False)

    def __post_init__(self):
        res = self.res
        if isinstance(res, bool) or not (0.0 < res <= 1.0):
            raise ValueError(f"resolution must be in (0, 1], got {res}")
        if res < MIN_RES:
            raise ValueError(f"resolution must be at least MIN_RES = 2**-30, got {res}")
        half = res / 2.0
        bound = 1.0 - half + 1e-12
        # The count is the first k with k * half > bound.  ``//`` floors the
        # exact quotient, so only the next bin's rounded start can fall on it.
        k = int(bound // half)
        object.__setattr__(self, "count", k + 1 + ((k + 1) * half <= bound))

    @property
    def bins(self) -> tuple[tuple[float, float], ...]:
        half = self.res / 2.0
        return tuple((k * half, k * half + self.res) for k in range(self.count))

    def __len__(self) -> int:
        return self.count


def build_bins(res: float) -> BinSet:
    """Bins covering [0, 1]: width res, stride res/2, closed bounds."""
    return BinSet(res)


def lower_neighbors(c: int, n: int) -> set[int]:
    """In-range lower neighbors of linear cell c on an n-row grid.

    Candidates are c-1, c-n and c-n-1; the same-column candidate c-1
    and the diagonal c-n-1 wrap into the previous column when c sits in
    row 1, so they are excluded there.
    """
    row = (c - 1) % n + 1
    out = set()
    if row > 1:
        out.add(c - 1)
    if c - n >= 1:
        out.add(c - n)
        if row > 1:
            out.add(c - n - 1)
    return out


def upper_neighbors(c: int, n: int, m: int) -> set[int]:
    """In-range upper neighbors of linear cell c on an n x m grid."""
    row = (c - 1) % n + 1
    out = set()
    if row < n:
        out.add(c + 1)
    if c + n <= n * m:
        out.add(c + n)
        if row < n:
            out.add(c + n + 1)
    return out


@dataclass(eq=False)
class SparseMatrix:
    """Open cells of the warping matrix, as bitmasks.

    Stored:

    - ``col_bin``: each column's bin-opened rows, corners forced in,
      from ``populate``, as an int whose bit r (0-based) is row r's.
    - After ``forward_pass``, per anti-diagonal d = r + j (0-based row r
      and column j, d from 0 to n + m - 2): ``diag_open``, the cost
      sweep's own packed rows, an (n + m - 1) x ((min(n, m) + 8) // 8)
      uint8 array whose row d has bit p set (8 bits a byte,
      little-endian) when the diagonal's slot p is open, slot p being
      the cell in 1-based row p when m > n, else in 1-based column p
      (``_above``); ``diag_off``, n + m offsets into ``steps``, from a
      popcount of each row; ``steps``, one uint8 per open cell,
      diagonal-major with slots ascending, naming the lower neighbor
      that ``backtrack_path`` takes from the cell (0 diagonal,
      1 vertical, 2 horizontal); and ``cost``, the accumulated cost at
      (n, m).  The code of diagonal d's open bit p sits at
      ``diag_off[d + 1]`` less the popcount of the row's bits from p on,
      read as an int from the row's bytes from p // 8 on, so a query
      touches only those bytes.  That is 1 byte per open cell plus, per
      diagonal, min(n, m) // 8 + 1 bytes of row and an 8-byte offset.
      A whole ``sparse_dtw`` call peaks in the sweep, which holds the
      rows beside the codes and one block of the sweep's costs: 7.9
      bytes per open cell (tracemalloc) at L = 120, rho 0, res 0.1, and
      2.8 and 1.7 at L = 1000 and 3000, rho 0.95, res 0.5.

    The accumulated costs are not kept by the forward pass.
    ``accumulated``, ``col_vals`` and ``dump_lines`` re-run the same
    sweep on first use and cache its costs (8 bytes per open cell), in
    the layout of ``steps``.  ``col_rows`` (bin-opened rows),
    ``col_open_rows`` (final open rows) and ``col_vals`` (each column's
    costs, rows ascending) are read-only column-major views, derived
    with numpy on each access from about 32 transient bytes per open
    cell.

    Built from ``n``, ``m`` and ``col_bin``, and finished by ``forward_pass``
    alone, which sets the rest: before it every view, query and count but
    ``col_rows`` raises ``RuntimeError``.
    """

    n: int
    m: int
    col_bin: list[int]
    diag_open: np.ndarray | None = field(default=None, init=False)
    diag_off: array | None = field(default=None, init=False)
    steps: np.ndarray | None = field(default=None, init=False)
    cost: float | None = field(default=None, init=False)
    # The forward pass's samples, for the cost sweep and the dump, and the
    # re-run sweep's costs.
    _samples: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)
    _vals: np.ndarray | None = field(default=None, init=False, repr=False)

    def _check_finished(self) -> None:
        if self.steps is None:
            raise RuntimeError("forward pass has not run yet")

    def _cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The open cells in column-major order: their columns, their
        rows (0-based) and the index of each one's entry in ``steps``."""
        self._check_finished()
        n = self.n
        # Bit p of diagonal d, at flat index d * w + p, is slot p: swept
        # column c = p - 1 and swept row d - c.
        w = min(n, self.m) + 1
        bits = np.unpackbits(self.diag_open, axis=1, count=w, bitorder="little")
        u, c = np.divmod(np.flatnonzero(bits), w)
        c -= 1
        u -= c
        cols, rows = (u, c) if self.m > n else (c, u)
        # Rows ascend with d within a column, so a stable sort by column
        # is column-major; numpy sorts keys of 16 bits or less by radix.
        order = np.argsort(cols.astype(np.min_scalar_type(self.m)), kind="stable")
        cols = cols[order]
        return cols, rows[order], order

    def _per_col(self, cols: np.ndarray, values):
        """``values`` sliced by column, for cells in column-major order."""
        ends = accumulate(np.bincount(cols, minlength=self.m).tolist(), initial=0)
        return [values[a:b] for a, b in pairwise(ends)]

    def _costs(self) -> np.ndarray:
        """Every open cell's accumulated cost, laid out like ``steps``:
        the cost sweep run again, once."""
        if self._vals is None:
            self._vals = _sweep(self, self.diag_off[-1], False)[0]
        return self._vals

    @property
    def col_rows(self) -> list[list[int]]:
        """Bin-opened rows (0-based, ascending) per column."""
        n = self.n
        bits = np.unpackbits(_packed(self.col_bin, n), axis=1, count=n, bitorder="little")
        cols, rows = np.nonzero(bits)
        return self._per_col(cols, rows.tolist())

    @property
    def col_open_rows(self) -> list[list[int]]:
        """Final open rows per column."""
        cols, rows, _ = self._cells()
        return self._per_col(cols, rows.tolist())

    @property
    def col_vals(self) -> list[np.ndarray]:
        """Accumulated costs per column, rows ascending."""
        cols, _, order = self._cells()
        return self._per_col(cols, self._costs()[order])

    @property
    def open_count(self) -> int:
        self._check_finished()
        return self.diag_off[-1]

    @property
    def unblocked(self) -> int:
        """Open cells that the forward pass opened and the bins did not."""
        return self.open_count - sum(map(int.bit_count, self.col_bin))

    def _above(self, i: int, j: int) -> int:
        """Open slots of 1-based cell (i, j)'s diagonal from the cell's on,
        as an int; the slot is row i when m > n (``_sweep``), else j."""
        self._check_finished()
        if not (1 <= i <= self.n and 1 <= j <= self.m):
            raise IndexError(f"cell ({i}, {j}) is off the {self.n} x {self.m} matrix")
        slot = i if self.m > self.n else j
        return int.from_bytes(self.diag_open[i + j - 2, slot >> 3 :], "little") >> (slot & 7)

    def is_open(self, i: int, j: int) -> bool:
        """1-based cell query."""
        return bool(self._above(i, j) & 1)

    def open_cells(self) -> list[int]:
        """Sorted 1-based column-major linear indices of open cells."""
        cols, rows, _ = self._cells()
        return (cols * self.n + rows + 1).tolist()

    def accumulated(self, i: int, j: int) -> float | None:
        """1-based accumulated-cost query; None for blocked cells."""
        above = self._above(i, j)
        if not above & 1:
            return None
        return self._costs().item(self.diag_off[i + j - 1] - above.bit_count())


def _packed(masks: list[int], width: int) -> np.ndarray:
    """Bit k of ``masks[x]``, k < width, as bit k of row x, 8 bits a
    byte, little-endian: the inverse of ``_ints``."""
    nbytes = (width + 7) // 8
    rows = b"".join([mask.to_bytes(nbytes, "little") for mask in masks])
    return np.frombuffer(rows, np.uint8).reshape(len(masks), nbytes)


def _ints(packed: np.ndarray) -> list[int]:
    """Each row of ``packed`` (8 bits a byte, little-endian) as an int,
    sliced from a bytes copy: a memoryview's slices are slower."""
    nbytes = packed.shape[1]
    rows = packed.tobytes()
    return [int.from_bytes(rows[x : x + nbytes], "little") for x in range(0, len(rows), nbytes)]


def populate(
    sq: QuantizedSeries,
    qq: QuantizedSeries,
    bins: BinSet,
    s: TimeSeries,
    q: TimeSeries,
) -> SparseMatrix:
    """Open every cell whose quantized samples co-occupy a bin, each
    sample's bins worked out from ``bins.res`` by arithmetic.

    The corner cells (1,1) and (n,m) are force-opened: the boundary
    constraint puts them on every path, and bin membership alone does
    not guarantee the two endpoint samples share a bin.  Raises
    ``CostOverflowError`` when path costs over ``s`` and ``q`` could
    overflow, and ``ValueError`` when a quantized series is not as long
    as its series or holds a sample outside [0, 1] or NaN, which the bin
    ranges below would misread.
    """
    check_cost_range(s, q)
    sv = np.asarray(sq.values)
    qv = np.asarray(qq.values)
    if (sv.size, qv.size) != (len(s), len(q)):
        raise ValueError(
            f"quantized lengths {sv.size} x {qv.size} differ from the series' "
            f"{len(s)} x {len(q)}"
        )
    for v in (sv, qv):
        # NaN fails both comparisons.
        if not (v.min() >= 0.0 and v.max() <= 1.0):
            raise ValueError("quantized samples must lie in [0, 1]")
    n = sv.size
    nb = len(bins)
    res = bins.res
    half = res / 2.0
    # Sample v lies in bin k when k * half <= v <= k * half + res, so its
    # bins are a range first..last, never empty for v in [0, 1], and two
    # samples share a bin when their ranges overlap.  Against the bounds'
    # own floats, ``last`` (``//`` floors exactly) can be one short and
    # ``first`` one off either way.  Columns are grouped by range, each
    # group sharing one mask; ranges are compared in the narrowest dtype,
    # for which numpy buffers the broadcast least.
    v = np.concatenate([sv, qv])
    last = v // half
    last += (last + 1) * half <= v
    first = np.ceil((v - res) / half)
    first -= (first - 1) * half + res >= v
    first += first * half + res < v
    first, last = (x.clip(0, nb - 1, out=x).astype(np.int64) for x in (first, last))
    small = np.min_scalar_type(nb)
    s_first, s_last = first[:n].astype(small), last[:n].astype(small)
    keys, col_key = np.unique(first[n:] * nb + last[n:], return_inverse=True)
    first, last = (x.astype(small)[:, None] for x in np.divmod(keys, nb))
    rows = (s_first <= last) & (s_last >= first)
    masks = _ints(np.packbits(rows, axis=1, bitorder="little"))
    col_bin = list(map(masks.__getitem__, col_key.tolist()))
    col_bin[0] |= 1
    col_bin[-1] |= 1 << (n - 1)
    return SparseMatrix(n, qv.size, col_bin)


def forward_pass(sm: SparseMatrix, s: TimeSeries, q: TimeSeries) -> SparseMatrix:
    """Accumulate costs over open cells, as one sweep in column-major
    order would.

    Each cell's cost is its local cost plus the minimum accumulated
    cost over its OPEN lower neighbors (+inf when it has none, so a
    path can never begin in mid-matrix).  After a cell is accumulated,
    if none of its in-range upper neighbors is open they are all
    opened, keeping the matrix connected through to (n, m); cells
    opened this way are visited later in the same sweep.  The matrix
    keeps, per open cell, the step code of the lower neighbor that its
    cost came from, and the cost at (n, m); the other costs are dropped.
    Raises ``ValueError`` when ``s`` and ``q`` do not span the matrix.
    """
    n, m = sm.n, sm.m
    if (len(s), len(q)) != (n, m):
        raise ValueError(f"series of {len(s)} x {len(q)} samples for a {n} x {m} matrix")
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
    # are the open cells not opened by bins, which ``unblocked`` counts.
    col_open = []
    carry = 0  # rows of column j opened from column j - 1
    for b, nxt in pairwise(sm.col_bin):
        o = b | carry
        carry = o & ~(nxt | (o | nxt) >> 1)  # the stuck cells
        if carry:
            carry |= carry << 1 & full
            o |= carry
        col_open.append(o)
    o = sm.col_bin[-1] | carry
    col_open.append(o | (full ^ ((o & -o) - 1)))
    # --- Pass 2: cost sweep over anti-diagonals. ---
    # ``sweep_diagonals`` gives every cost bit for bit as the column
    # sweep would.  A diagonal holds at most min(n, m) cells, so when
    # m > n the sweep runs over the transpose, whose costs are the same
    # (the minimum is symmetric in the left and upper neighbors, and
    # (a - b)**2 == (b - a)**2).  The open set is skewed into the sweep's
    # own slots, packed: swept cell (u, c) is slot c + 1 of diagonal
    # u + c, and slot 0 is column -1, off the matrix.  Those rows are the
    # sweep's one copy of the open set, and then the matrix's
    # (``diag_open``).  They are built 64 slots (8 bytes) at a time, so
    # that the open set is unpacked to bools one chunk of swept columns
    # at a time.
    count = sum(map(int.bit_count, col_open))  # the open cells
    wide = m > n
    size = min(n, m)
    cols = _packed(col_open, n)  # bit r of byte row j: cell (r, j)
    del col_open
    packed = np.zeros((n + m - 1, (size + 8) // 8), np.uint8)
    for b0 in range(0, packed.shape[1], 8):
        # Slots 8 * b0 on, swept columns c0 .. c1 - 1.
        chunk = packed[:, b0 : b0 + 8]
        c0 = max(0, 8 * b0 - 1)
        c1 = min(size, 8 * b0 + 63)
        if wide:  # swept columns are bits of the column masks
            lo = c0 // 8
            bits = np.unpackbits(cols[:, lo : -(-c1 // 8)], axis=1, bitorder="little")
            bits = bits[:, c0 - 8 * lo : c1 - 8 * lo].T.view(bool)
        else:
            bits = np.unpackbits(cols[c0:c1], axis=1, count=n, bitorder="little").view(bool)
        # bits[c - c0, u] is swept cell (u, c), and goes to row u + c - c0
        # and bit c + 1 - 8 * b0 of the chunk's skew.
        width = 8 * chunk.shape[1]
        skew = np.zeros((bits.shape[0] + bits.shape[1] - 1, width), bool)
        np.ndarray(bits.shape, bool, skew, c0 + 1 - 8 * b0, (width + 1, width))[:] = bits
        chunk[c0 : c0 + len(skew)] = np.packbits(skew, axis=1, bitorder="little")
    del cols, bits, skew  # freed before the step codes are allocated
    sm.diag_open = packed
    sm._samples = (s.values, q.values)
    sm._vals = None
    steps, cost = _sweep(sm, count, True)
    if cost == _INF:
        raise SparseConnectivityError(
            "accumulated cost at (n, m) is infinite; open cells do not "
            "connect the corners"
        )
    # A diagonal holds at most ``size`` open cells.
    counts = np.add.reduce(np.bitwise_count(packed), axis=1, dtype=np.min_scalar_type(size))
    sm.diag_off = array("q", accumulate(counts.tolist(), initial=0))
    sm.steps = steps
    sm.cost = cost
    return sm


def _sweep(sm: SparseMatrix, count: int, steps: bool) -> tuple[np.ndarray, float]:
    """The cost sweep over ``sm.diag_open``, its ``count`` open cells in
    the sweep's slots (row d, bit c + 1 for swept cell (d - c, c)): each
    open cell's step code (``steps``) or accumulated cost, diagonal-major
    with slots ascending, and the accumulated cost at (n, m)."""
    n, m, packed = sm.n, sm.m, sm.diag_open
    wide = m > n
    size = min(n, m)
    down, across = sm._samples[::-1] if wide else sm._samples
    # Each slot's samples: down_diag[d, c + 1] = down[d - c] (NaN off the
    # matrix) down the swept rows, across_slots[c + 1] = across[c] (NaN
    # in slot 0); the samples run backward in ``padded``, so a row of
    # slots is contiguous.  NaN arithmetic sets no floating-point flag,
    # and ``fill`` turns every closed slot into inf.
    pad = np.full(size + 1, np.nan)
    padded = np.concatenate([pad, down[::-1], pad[:size]])
    step = padded.itemsize
    down_diag = np.ndarray(
        (n + m - 1, size + 1), float, padded, (size - 1 + len(down)) * step, (-step, step)
    )
    across_slots = np.concatenate([pad[:1], across])
    # One problem of min(n, m) + 1 slots; slot 0, the pad, is never
    # open, so its local cost is inf.  Blocks grow with the open cells
    # per slot, so a thin matrix takes few, and its rows stay within
    # about a byte per open cell.  ``fill`` leaves its block's open mask
    # for the read-back below; the mask is a variable it rebinds, so the
    # last one is freed as the next is made and at most two are alive.
    block = max(8, min(64, count // (8 * (size + 1))))
    is_open = None

    def fill(d0: int, rows: np.ndarray) -> None:
        nonlocal is_open
        k = len(rows)
        is_open = np.unpackbits(
            packed[d0 : d0 + k], axis=1, count=size + 1, bitorder="little"
        ).view(bool)
        # Copied, then subtracted in place: numpy buffers a ufunc over
        # operands that do not flatten to one dimension, here only the
        # broadcast (at most 64 KB), where a subtract straight from the
        # overlapping rows of ``down_diag`` buffered two blocks.
        rows[:] = down_diag[d0 : d0 + k]
        rows -= across_slots
        rows *= rows
        np.putmask(rows, ~is_open, _INF)

    out = np.empty(count, np.uint8 if steps else float)
    off = 0
    for rows in sweep_diagonals(size + 1, [0], n + m - 1, block, fill):
        swept = step_codes(rows, wide) if steps else rows[2:]
        got = swept[is_open]
        out[off : off + got.size] = got
        off += got.size
        last = rows.item(-1, -1)
    return out, last


def sparse_backtrack(sm: SparseMatrix) -> WarpingPath:
    """Walk open cells from (n, m) back to (1, 1).

    At each hop the open lower neighbor with the smallest accumulated
    cost wins; ties prefer the diagonal, then the vertical, then the
    horizontal neighbor, matching the dense backtracker.  The forward
    pass recorded each cell's winner, so a hop reads one code.
    """
    sm._check_finished()
    n = sm.n
    w = sm.diag_open.shape[1]
    rows = sm.diag_open.tobytes()
    ends = sm.diag_off
    steps = sm.steps.data
    wide = sm.m > n
    i, j = n, sm.m
    path = [(i, j)]
    while i > 1 or j > 1:
        d = i + j - 2
        slot = i if wide else j  # ``SparseMatrix._above``, without a call per hop
        at = d * w + (slot >> 3)
        # A last byte is indexed, not copied: a thin matrix's rows are one byte.
        above = rows[at] if slot >> 3 == w - 1 else int.from_bytes(rows[at : d * w + w], "little")
        code = steps[ends[d + 1] - (above >> (slot & 7)).bit_count()]
        if code != 2:
            i -= 1
        if code != 1:
            j -= 1
        path.append((i, j))
    path.reverse()
    return WarpingPath._of(tuple(path))


def sparse_dtw(
    s: TimeSeries, q: TimeSeries, res: float = DEFAULT_RES
) -> AlignmentResult:
    """Quantize, bucket, open, accumulate, backtrack: ``build_bins``,
    ``quantize``, ``populate``, ``forward_pass`` and ``sparse_backtrack``."""
    start = time.perf_counter()
    bins = build_bins(res)
    sm = forward_pass(populate(quantize(s), quantize(q), bins, s, q), s, q)
    path = sparse_backtrack(sm)
    return AlignmentResult(
        path=path,
        raw_cost=sm.cost,
        computed_cells=sm.open_count,
        elapsed=time.perf_counter() - start,
        algorithm_params={"algorithm": "sparse", "res": res},
    )


def dump_lines(sm: SparseMatrix) -> list[str]:
    """Debug dump: ``index,i,j,local,accumulated,open`` per open cell,
    local costs over the samples that the forward pass swept.

    A zero local cost is written as -1, mirroring the convention of
    distinguishing genuinely-zero distances from blocked cells in a
    dense dump.
    """
    n = sm.n
    cols, rows, order = sm._cells()
    sv, qv = (v.tolist() for v in sm._samples)
    out = []
    for j, r, v in zip(cols.tolist(), rows.tolist(), sm._costs()[order].tolist()):
        lc = local_distance(sv[r], qv[j])
        lc_txt = "-1" if lc == 0.0 else f"{lc:g}"
        out.append(f"{j * n + r + 1},{r + 1},{j + 1},{lc_txt},{v:g},1")
    return out
