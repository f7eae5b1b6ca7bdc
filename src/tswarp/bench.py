"""Synthetic data generation, dataset loading and the benchmark harness."""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, TextIO

import numpy as np

from .core import TimeSeries, validate_path
from .full import DENSE_CELL_BUDGET, MatrixBudgetError, dtw_full

__all__ = [
    "SyntheticSpec",
    "BenchRecord",
    "BenchError",
    "DataFormatError",
    "generate_pair",
    "pearson",
    "load_series",
    "run_benchmark",
    "matches_optimum",
    "write_csv",
    "CSV_HEADER",
]

CSV_HEADER = [
    "dataset",
    "algorithm",
    "params",
    "n",
    "m",
    "open_cells",
    "path_K",
    "elapsed_ms",
    "raw_cost",
    "normalized_distance",
    "optimal",
]


class BenchError(RuntimeError):
    """A benchmark run could not be carried out."""


class DataFormatError(ValueError):
    """A dataset file failed to parse; the message names the line."""


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic series pair."""

    length: int
    rho: float
    seed: int

    def __post_init__(self):
        if self.length < 2:
            raise ValueError("length must be >= 2")
        if not (-1.0 <= self.rho <= 1.0):
            raise ValueError("rho must be in [-1, 1]")


@dataclass(frozen=True)
class BenchRecord:
    """One (dataset, algorithm) measurement row."""

    dataset: str
    algorithm: str
    params: str
    n: int
    m: int
    open_cells: int
    path_K: int
    elapsed_ms: float
    raw_cost: float
    normalized_distance: float
    optimal: str  # "yes" | "no" | "unknown"


def _standardize(x: np.ndarray) -> np.ndarray:
    sd = x.std()
    if sd == 0.0:
        raise ValueError("cannot standardize a constant series")
    return (x - x.mean()) / sd


def generate_pair(spec: SyntheticSpec) -> tuple[TimeSeries, TimeSeries]:
    """Deterministic pair of equal-length series with tunable similarity.

    The first series is a cumulative random walk.  The second mixes the
    standardized walk with independent white Gaussian noise so that its
    correlation with the first approaches ``rho``; at rho=1 the two are
    identical up to an affine map, at rho=0 the second is unrelated
    noise.
    """
    rng = np.random.default_rng(spec.seed)
    walk = np.cumsum(rng.normal(size=spec.length))
    noise = rng.normal(size=spec.length)
    z1 = _standardize(walk)
    z2 = _standardize(noise)
    mixed = spec.rho * z1 + math.sqrt(1.0 - spec.rho**2) * z2
    tag = f"L{spec.length}-r{spec.rho:g}-s{spec.seed}"
    return TimeSeries(f"walk-{tag}", walk), TimeSeries(f"mix-{tag}", mixed)


def pearson(a: TimeSeries, b: TimeSeries) -> float:
    """Sample correlation coefficient; errors on zero-variance input."""
    if len(a) != len(b):
        raise ValueError("series must have equal length")
    x = a.values
    y = b.values
    if x.std() == 0.0 or y.std() == 0.0:
        raise ValueError("correlation is undefined for a constant series")
    return float(np.corrcoef(x, y)[0, 1])


def load_series(path: str | Path, fmt: str = "auto") -> list[TimeSeries]:
    """Load time series from a text file.

    ``plain``: one real per line, blank lines and ``#`` comments
    skipped; the whole file is one series named after the file.
    ``csv``: one series per row, with an optional non-numeric first
    column used as the label (UCR-style).  ``auto`` picks csv when the
    first data line contains a comma.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc.strerror or exc}") from exc
    data = [
        (no, ln.strip())
        for no, ln in enumerate(text.splitlines(), start=1)
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not data:
        raise DataFormatError(f"{path}: no data lines")
    if fmt == "auto":
        fmt = "csv" if "," in data[0][1] else "plain"

    def parse(token: str, no: int, col: int) -> float:
        try:
            v = float(token)
        except ValueError:
            raise DataFormatError(
                f"{path}:{no}: column {col}: not a number: {token!r}"
            ) from None
        if not math.isfinite(v):
            raise DataFormatError(
                f"{path}:{no}: column {col}: non-finite value {token!r}"
            )
        return v

    if fmt == "plain":
        values = [parse(ln, no, 1) for no, ln in data]
        return [TimeSeries(path.stem, values)]
    out: list[TimeSeries] = []
    for row_idx, (no, ln) in enumerate(data, start=1):
        parts = [p.strip() for p in next(csv.reader([ln]))]
        label = f"{path.stem}-{row_idx}"
        start = 0
        try:
            float(parts[0])
        except ValueError:
            label = parts[0]
            start = 1
        values = [
            parse(tok, no, col)
            for col, tok in enumerate(parts[start:], start=start + 1)
        ]
        if not values:
            raise DataFormatError(f"{path}:{no}: empty series")
        out.append(TimeSeries(label, values))
    return out


def _median(xs: list[float]) -> float:
    ys = sorted(xs)
    k = len(ys)
    mid = k // 2
    return ys[mid] if k % 2 else (ys[mid - 1] + ys[mid]) / 2.0


def matches_optimum(raw_cost: float, optimum: float) -> bool:
    """Whether a cost equals the optimal cost, to a relative 1e-9."""
    return abs(raw_cost - optimum) <= 1e-9 * max(1.0, abs(optimum))


def run_benchmark(
    pairs: Iterable[tuple[str, TimeSeries, TimeSeries]],
    algorithms: dict[str, Callable[[TimeSeries, TimeSeries], "object"]],
    repeats: int = 3,
    check_optimal: bool = True,
) -> tuple[list[BenchRecord], list[str]]:
    """Run every algorithm over every pair.

    Returns the records plus a list of failure messages; one failing
    (dataset, algorithm) combination never aborts the rest of the
    sweep.  ``optimal`` compares the raw cost against the dense
    baseline when the pair fits the dense cell budget, else reports
    ``unknown``.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    records: list[BenchRecord] = []
    failures: list[str] = []
    for name, s, q in pairs:
        baseline = None
        if check_optimal and len(s) * len(q) <= DENSE_CELL_BUDGET:
            try:
                baseline = dtw_full(s, q).raw_cost
            except MatrixBudgetError:
                baseline = None
        for algo, fn in algorithms.items():
            try:
                result = None
                times = []
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    result = fn(s, q)
                    times.append(time.perf_counter() - t0)
                verdict = validate_path(result.path, len(s), len(q))
                if not verdict:
                    raise BenchError(
                        f"invalid path ({verdict.violation} violation)"
                    )
                if baseline is None:
                    optimal = "unknown"
                elif matches_optimum(result.raw_cost, baseline):
                    optimal = "yes"
                else:
                    optimal = "no"
                params = ";".join(
                    f"{k}={v}"
                    for k, v in sorted(result.algorithm_params.items())
                    if k != "algorithm"
                )
                records.append(
                    BenchRecord(
                        dataset=name,
                        algorithm=algo,
                        params=params,
                        n=len(s),
                        m=len(q),
                        open_cells=result.computed_cells,
                        path_K=result.path.K,
                        elapsed_ms=_median(times) * 1000.0,
                        raw_cost=result.raw_cost,
                        normalized_distance=result.normalized_distance,
                        optimal=optimal,
                    )
                )
            except Exception as exc:  # noqa: BLE001 - isolate per-cell failures
                failures.append(f"{name}/{algo}: {exc}")
    return records, failures


def write_csv(records: list[BenchRecord], out: str | Path | TextIO) -> None:
    """Write records as CSV to a path or to an open text stream."""
    if isinstance(out, (str, Path)):
        with open(out, "w", newline="") as fh:
            write_csv(records, fh)
        return
    w = csv.writer(out)
    w.writerow(CSV_HEADER)
    for r in records:
        w.writerow(
            [
                r.dataset,
                r.algorithm,
                r.params,
                r.n,
                r.m,
                r.open_cells,
                r.path_K,
                f"{r.elapsed_ms:.3f}",
                f"{r.raw_cost:.9g}",
                f"{r.normalized_distance:.9g}",
                r.optimal,
            ]
        )
