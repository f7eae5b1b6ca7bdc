"""Core domain types shared by every alignment algorithm.

Indices in all public types are 1-based: the top-left matrix cell is
(1, 1) and the bottom-right cell is (n, m).  Implementations are free
to work 0-based internally, but everything that crosses a module
boundary uses the 1-based convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

__all__ = [
    "TimeSeries",
    "QuantizedSeries",
    "WarpingPath",
    "PathVerdict",
    "AlignmentResult",
    "BrokenPathError",
    "CostOverflowError",
    "local_distance",
    "quantize",
    "validate_path",
    "normalized_distance",
    "check_cost_range",
    "sweep_column",
    "dense_columns",
    "SWEEP_BUFSIZE",
    "sweep_diagonals",
    "backtrack_path",
    "step_codes",
]

_INF = float("inf")
_S = TypeVar("_S")  # what a sweep's ``fill`` hands its ``read``

# numpy's ufunc buffer, in elements, while a sweep runs: a broadcast over
# a 2-D block is buffered this many elements at a time, not up to numpy's
# default 8,192.  numpy takes multiples of 16; 128 to 512 peak alike.
SWEEP_BUFSIZE = 256


class BrokenPathError(RuntimeError):
    """Backtracking found a cell with no open lower neighbor."""


class CostOverflowError(OverflowError):
    """Accumulated path costs could exceed the float range."""


@dataclass(frozen=True)
class TimeSeries:
    """A labelled, ordered sequence of finite scalar samples."""

    id: str
    values: np.ndarray

    def __init__(self, id: str, values: Sequence[float] | np.ndarray):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1:
            raise ValueError("time series values must be one-dimensional")
        if arr.size < 1:
            raise ValueError(f"time series {id!r} is empty")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"time series {id!r} contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return self.id == other.id and np.array_equal(self.values, other.values)


@dataclass(frozen=True)
class QuantizedSeries:
    """A series rescaled into [0, 1], with the original range retained.

    ``degenerate`` is set when the source series was constant; all
    samples then map to 0 by convention.
    """

    values: np.ndarray
    source_min: float
    source_max: float
    degenerate: bool = False


@dataclass(frozen=True)
class PathVerdict:
    valid: bool
    violation: str | None = None  # "boundary" | "monotonicity" | "continuity"

    def __bool__(self) -> bool:
        return self.valid


@dataclass(frozen=True)
class WarpingPath:
    """An ordered list of 1-based (i, j) matrix cells.

    ``K`` (the path length) is the normalizing factor used when turning
    a raw cumulative cost into a reported distance.
    """

    steps: tuple[tuple[int, int], ...]

    def __init__(self, steps: Iterable[tuple[int, int]]):
        object.__setattr__(
            self, "steps", tuple((int(i), int(j)) for i, j in steps)
        )

    @classmethod
    def _of(cls, steps: tuple[tuple[int, int], ...]) -> WarpingPath:
        """The path of ``steps`` as given, with no per-step copy: the
        aligners build their steps as tuples of built-in ints."""
        path = object.__new__(cls)
        object.__setattr__(path, "steps", steps)
        return path

    @property
    def K(self) -> int:
        return len(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)


@dataclass(frozen=True)
class AlignmentResult:
    """Outcome of one alignment run.

    ``computed_cells`` counts every DP cell the algorithm evaluated; for
    the divide-and-conquer strategy this can exceed n*m because cells
    are recomputed across recursion levels.
    """

    path: WarpingPath
    raw_cost: float
    computed_cells: int
    elapsed: float
    algorithm_params: dict = field(default_factory=dict)

    @property
    def normalized_distance(self) -> float:
        """sqrt(raw_cost) / K, K being the path length."""
        return normalized_distance(self.raw_cost, self.path.K)


def local_distance(a: float, b: float) -> float:
    """Squared difference between two samples."""
    d = a - b
    return d * d


def quantize(s: TimeSeries) -> QuantizedSeries:
    """Rescale a series affinely onto [0, 1].

    The minimum sample maps to 0 and the maximum to 1.  A constant
    series has no usable range; it maps to all zeros and is flagged
    degenerate so callers can report it.  A span beyond the float range
    is halved with every term, which is exact for normal floats, so the
    result is always finite.
    """
    values = s.values
    lo = float(values.min())
    hi = float(values.max())
    if hi == lo:
        out = np.zeros_like(values)
        out.setflags(write=False)
        return QuantizedSeries(out, lo, hi, degenerate=True)
    if math.isinf(hi - lo):
        out = (values / 2 - lo / 2) / (hi / 2 - lo / 2)
    else:
        out = (values - lo) / (hi - lo)
    out.setflags(write=False)
    return QuantizedSeries(out, lo, hi)


def validate_path(p: WarpingPath | Sequence[tuple[int, int]], n: int, m: int) -> PathVerdict:
    """Check the boundary, monotonicity and continuity constraints.

    Returns a verdict naming the first violated constraint, scanning the
    path front to back.
    """
    steps = list(p)
    if not steps or steps[0] != (1, 1):
        return PathVerdict(False, "boundary")
    for (pi, pj), (ci, cj) in zip(steps, steps[1:]):
        di = ci - pi
        dj = cj - pj
        if di < 0 or dj < 0:
            return PathVerdict(False, "monotonicity")
        if di > 1 or dj > 1 or (di == 0 and dj == 0):
            return PathVerdict(False, "continuity")
    if steps[-1] != (n, m):
        return PathVerdict(False, "boundary")
    return PathVerdict(True)


def normalized_distance(raw_cost: float, K: int) -> float:
    """sqrt of the cumulative cost, divided by the path length K."""
    if K < 1:
        raise ValueError("path length K must be >= 1")
    return math.sqrt(raw_cost) / K


def check_cost_range(s: TimeSeries, q: TimeSeries) -> None:
    """Refuse inputs whose path costs could overflow to inf.

    A warping path has at most n + m - 1 cells and each local cost is
    at most span**2, span being the largest minus the smallest sample
    over both series; while that product is finite no accumulated cost
    can overflow, so an infinite cost always means "unreachable".  This
    is the library's one overflow guard: no kernel silences a
    floating-point warning.
    """
    lo = min(float(s.values.min()), float(q.values.min()))
    hi = max(float(s.values.max()), float(q.values.max()))
    span = hi - lo
    if not math.isfinite((len(s) + len(q) - 1) * span * span):
        raise CostOverflowError(
            f"path costs can overflow: (n + m - 1) * span**2 is not finite "
            f"for n={len(s)}, m={len(q)}, sample span {span:g}"
        )


def sweep_column(
    sv: Sequence[float],
    qj: float,
    prev: Sequence[float],
    diag: float,
) -> list[float]:
    """Accumulated costs of one column over a run of consecutive rows.

    ``sv`` holds the run's samples, ``prev`` the previous column's costs
    on the same rows and ``diag`` the previous column's cost one row
    above the run (inf where a cell is closed or outside the matrix).
    The run starts below a closed cell or the matrix's top.  The
    virtual cell diagonal to (1, 1) costs 0, so the first column needs
    no special case: pass ``diag=0.0`` for the run starting at row 1 of
    column 1.
    """
    out = [0.0] * len(sv)
    up = _INF
    for i in range(len(sv)):
        left = prev[i]
        best = diag if diag < left else left
        if up < best:
            best = up
        d = sv[i] - qj
        up = out[i] = d * d + best
        diag = left
    return out


def dense_columns(sv: Sequence[float], qv: Iterable[float]) -> Iterator[list[float]]:
    """Each full-height column of the cumulative matrix, left to right."""
    col = [_INF] * len(sv)
    diag = 0.0
    for qj in qv:
        col = sweep_column(sv, qj, col, diag)
        diag = _INF
        yield col


def sweep_diagonals(
    width: int,
    origins: Sequence[int],
    diags: int,
    block: int,
    fill: Callable[[int, np.ndarray], _S],
    read: Callable[[np.ndarray, _S], None],
) -> np.ndarray:
    """Accumulated costs of problems laid side by side, swept one
    anti-diagonal at a time, ``block`` diagonals per step.

    A diagonal is one row of ``width`` slots.  Each problem owns a run
    of consecutive slots: its pad slot, listed in ``origins`` and
    standing for its column -1, then one slot per swept column, so that
    cell (u, c) of a problem sits at slot pad + 1 + c of diagonal u + c.
    Cell (u, c) depends only on diagonals u + c - 1 (its left and upper
    neighbors, slots one left and the same) and u + c - 2 (its diagonal
    neighbor, one slot left), so each diagonal is one vectorized step of
    ``sweep_column``'s arithmetic, an exact three-way minimum and then
    one rounding add: every cost equals the column sweep's bit for bit.
    Each problem's virtual cell diagonal to (0, 0) costs 0, in its pad
    slot of diagonal -2.

    For each block, ``fill(d0, rows)`` writes the local costs of
    diagonals d0 .. d0 + len(rows) - 1 into ``rows``: inf in every pad
    slot and for every closed or off-matrix cell, so that such a slot
    ends inf whatever its neighbors hold, by arithmetic that cannot
    overflow, since no floating-point warning is silenced.  The rows
    are then swept in place and, after their two carry rows, diagonals
    d0 - 2 and d0 - 1, handed to ``read(rows, state)`` with what the
    block's ``fill`` returned, which the sweep drops before the next
    ``fill``.  The rows are whole so that numpy runs each step over one
    contiguous buffer.  Returns the last diagonal.  The whole sweep,
    ``fill`` and ``read`` too, runs in one ``np.errstate`` scope with
    numpy's ufunc buffer at ``SWEEP_BUFSIZE`` elements, and the scope
    gives the caller's back on return or raise (numpy >= 2.0).
    """
    rows = np.full((block + 2, width), _INF)
    rows[0, origins] = 0.0
    # Per row, its slots but the last and its slots but the first: a
    # cell's slot in its own row is one of the second, and its left,
    # upper and diagonal neighbors' are the first and second of the row
    # above and the first of the row two up.
    heads = [row[:-1] for row in rows]
    tails = [row[1:] for row in rows]
    best = np.empty(width - 1)
    with np.errstate():
        np.setbufsize(SWEEP_BUFSIZE)
        for d0 in range(0, diags, block):
            k = min(block, diags - d0)
            state = fill(d0, rows[2 : k + 2])
            for c, l, u, g in zip(tails[2 : k + 2], heads[1:], tails[1:], heads):
                np.minimum(l, u, out=best)
                np.minimum(best, g, out=best)
                np.add(c, best, out=c)
            read(rows[: k + 2], state)
            del state
            rows[:2] = rows[k : k + 2]
    return rows[1]


def backtrack_path(
    cost: Callable[[int, int], float | None], n: int, m: int
) -> list[tuple[int, int]]:
    """Cells of the path from (1, 1) to (n, m), walked back from (n, m)
    over a 1-based cost accessor.

    ``cost(i, j)`` returns the accumulated cost of an in-matrix cell, or
    None when the cell is closed.  Each hop takes the lower neighbor
    with the smallest cost; ties prefer the diagonal, then the vertical,
    then the horizontal neighbor, which keeps output deterministic and
    favours shorter paths.
    """
    i, j = n, m
    path = [(i, j)]
    while i > 1 or j > 1:
        best = step = None
        if i > 1 and j > 1:
            best, step = cost(i - 1, j - 1), (i - 1, j - 1)
        if i > 1:
            v = cost(i - 1, j)
            if v is not None and (best is None or v < best):
                best, step = v, (i - 1, j)
        if j > 1:
            v = cost(i, j - 1)
            if v is not None and (best is None or v < best):
                best, step = v, (i, j - 1)
        if best is None:
            raise BrokenPathError(f"no open lower neighbor at cell ({i}, {j})")
        i, j = step
        path.append(step)
    path.reverse()
    return path


def step_codes(rows: np.ndarray, transposed: bool) -> np.ndarray:
    """``backtrack_path``'s hop from every cell of a swept block, as a
    code: 0 for the diagonal, 1 for the vertical and 2 for the
    horizontal lower neighbor.

    ``rows`` is a block of accumulated costs as ``sweep_diagonals``
    hands it to ``read``, its two carry rows first; the result holds the
    code of slot p of ``rows[r + 2]`` at ``[r, p]``, and means nothing
    in pad slots, though every code, there too, is at most 2.  A cell's
    diagonal neighbor is one slot left two rows up, its left and upper
    neighbors one slot left and the same slot one row up.
    Swept rows are the matrix's rows, so the upper neighbor is the
    vertical one, unless the sweep runs over the transpose
    (``transposed``), whose rows are the matrix's columns.  Closed and
    off-matrix neighbors hold inf, where ``backtrack_path`` sees None;
    the codes agree wherever some lower neighbor is finite, which holds
    for every cell of a path back from a finite cost.
    """
    k = len(rows) - 2
    width = rows.shape[1]
    # In the flat rows a cell's neighbors sit 2 * width + 1, width + 1
    # and width places before it, so each is one contiguous slice.
    flat = rows.reshape(-1)
    size = k * width - 1
    diag = flat[:size]
    left = flat[width : width + size]
    up = flat[width + 1 : width + 1 + size]
    vert, horz = (left, up) if transposed else (up, left)
    out = np.empty(k * width, np.uint8)
    out[0] = 0  # the first slot has no neighbors in the block
    # Diagonal first, then vertical, then horizontal, each by strict <.
    # The horizontal winners are merged as 2 by a maximum, not a masked
    # store, which branches per cell and is slower on irregular masks.
    # They are found as two bool comparisons, the first made in the
    # output, so that only one bool temporary of the block's size is
    # allocated.
    vert_wins = out[1:].view(bool)
    np.less(horz, diag, out=vert_wins)
    horz_wins = horz < vert
    horz_wins &= vert_wins
    np.less(vert, diag, out=vert_wins)
    horz_wins = horz_wins.view(np.uint8)
    horz_wins += horz_wins
    np.maximum(out[1:], horz_wins, out=out[1:])
    return out.reshape(k, width)
