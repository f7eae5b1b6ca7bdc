"""Exact full-matrix dynamic time warping.

Fills the dense n x m cumulative-cost matrix and backtracks the optimal
warping path.  This is the correctness baseline the other algorithms are
measured against; it is deliberately the space-hungry one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import (
    AlignmentResult,
    TimeSeries,
    WarpingPath,
    backtrack_path,
    check_cost_range,
    dense_columns,
)

__all__ = [
    "CostMatrix",
    "MatrixBudgetError",
    "DENSE_CELL_BUDGET",
    "cost_matrix",
    "backtrack",
    "dtw_full",
]

# Refuse dense matrices beyond this many cells (128 MB of float64), the
# point where the dense baseline stops being usable on ordinary
# hardware.  Sparse at res 1 is exact and keeps about a byte per cell.
DENSE_CELL_BUDGET = 16_000_000


class MatrixBudgetError(RuntimeError):
    """The dense cost matrix would exceed ``DENSE_CELL_BUDGET`` cells."""


@dataclass(frozen=True)
class CostMatrix:
    """Dense cumulative-cost matrix, 0-based ndarray inside."""

    cells: np.ndarray

    @property
    def n(self) -> int:
        return self.cells.shape[0]

    @property
    def m(self) -> int:
        return self.cells.shape[1]


def cost_matrix(s: TimeSeries, q: TimeSeries) -> CostMatrix:
    """Fill the cumulative matrix D with the three-way recursion.

    The first row and column are cumulative sums of local costs, so
    D(n, m) is the minimum path cost over all valid warping paths.
    Raises ``MatrixBudgetError`` past ``DENSE_CELL_BUDGET`` cells, then
    ``CostOverflowError`` when path costs could overflow.
    """
    if len(s) * len(q) > DENSE_CELL_BUDGET:
        raise MatrixBudgetError(
            f"dense matrix needs {len(s) * len(q)} cells, budget is "
            f"{DENSE_CELL_BUDGET}; sparse at res 1 returns the same cost and path"
        )
    check_cost_range(s, q)
    sv = s.values.tolist()
    D = np.empty((len(sv), len(q)))
    for j, col in enumerate(dense_columns(sv, q.values.tolist())):
        D[:, j] = col
    return CostMatrix(D)


def backtrack(D: CostMatrix) -> WarpingPath:
    """Walk the filled matrix from (n, m) back to (1, 1).

    Ties prefer the diagonal, then the vertical, then the horizontal
    predecessor (see ``core.backtrack_path``).
    """
    item = D.cells.item
    path = backtrack_path(lambda i, j: item(i - 1, j - 1), D.n, D.m)
    return WarpingPath._of(tuple(path))


def dtw_full(s: TimeSeries, q: TimeSeries) -> AlignmentResult:
    """Optimal alignment via the dense cumulative matrix."""
    start = time.perf_counter()
    D = cost_matrix(s, q)
    path = backtrack(D)
    elapsed = time.perf_counter() - start
    return AlignmentResult(
        path=path,
        raw_cost=float(D.cells[-1, -1]),
        computed_cells=D.cells.size,
        elapsed=elapsed,
        algorithm_params={"algorithm": "full"},
    )
