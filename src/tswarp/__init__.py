"""tswarp: time-series alignment via dynamic time warping.

Four alignment strategies over a shared result type: the classic full
matrix, a diagonal band, a linear-space divide-and-conquer variant,
and a sparse-matrix variant that only computes cells whose quantized
values fall in a common bin.
"""

from .band import BandDisconnectedError, BandSpec, dtw_band, min_connecting_width
from .bench import (
    BenchRecord,
    DataFormatError,
    SyntheticSpec,
    generate_pair,
    load_series,
    pearson,
    run_benchmark,
    write_csv,
)
from .core import (
    AlignmentResult,
    BrokenPathError,
    CostOverflowError,
    PathVerdict,
    QuantizedSeries,
    TimeSeries,
    WarpingPath,
    local_distance,
    normalized_distance,
    quantize,
    validate_path,
)
from .divide import (
    DCAlignmentResult,
    RecursionDepthError,
    SpaceStats,
    SplitPoint,
    backward_space_efficient,
    dc_align,
    forward_space_efficient,
)
from .full import CostMatrix, MatrixBudgetError, cost_matrix, dtw_full
from .sparse import (
    SparseConnectivityError,
    SparseMatrix,
    build_bins,
    lower_neighbors,
    sparse_dtw,
    upper_neighbors,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentResult",
    "BandDisconnectedError",
    "BandSpec",
    "BenchRecord",
    "BrokenPathError",
    "CostMatrix",
    "CostOverflowError",
    "DCAlignmentResult",
    "DataFormatError",
    "MatrixBudgetError",
    "PathVerdict",
    "QuantizedSeries",
    "RecursionDepthError",
    "SpaceStats",
    "SparseConnectivityError",
    "SparseMatrix",
    "SplitPoint",
    "SyntheticSpec",
    "TimeSeries",
    "WarpingPath",
    "backward_space_efficient",
    "build_bins",
    "cost_matrix",
    "dc_align",
    "dtw_band",
    "dtw_full",
    "forward_space_efficient",
    "generate_pair",
    "load_series",
    "local_distance",
    "lower_neighbors",
    "min_connecting_width",
    "normalized_distance",
    "pearson",
    "quantize",
    "run_benchmark",
    "sparse_dtw",
    "upper_neighbors",
    "validate_path",
    "write_csv",
]
