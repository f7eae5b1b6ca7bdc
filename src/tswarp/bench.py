"""Synthetic data generation, dataset loading and the benchmark harness."""

from __future__ import annotations

import csv
import math
import statistics
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, TextIO

import numpy as np

from .core import AlignmentResult, TimeSeries, check_cost_range, validate_path
from .divide import forward_space_efficient

__all__ = [
    "SyntheticSpec",
    "BenchRecord",
    "DataFormatError",
    "generate_pair",
    "pearson",
    "load_series",
    "run_benchmark",
    "write_csv",
    "CSV_HEADER",
]

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


_CELL_FORMATS = {
    "elapsed_ms": ".3f",
    "raw_cost": ".9g",
    "normalized_distance": ".9g",
}


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
    optimal: str  # "yes" | "no"

    @classmethod
    def from_result(
        cls,
        dataset: str,
        algorithm: str,
        result: AlignmentResult,
        n: int,
        m: int,
        elapsed: float,
        optimum: float,
    ) -> BenchRecord:
        """The row of one result timed at ``elapsed`` seconds; ``optimal``
        is whether its cost equals ``optimum`` to a relative 1e-9."""
        close = abs(result.raw_cost - optimum) <= 1e-9 * max(1.0, abs(optimum))
        optimal = "yes" if close else "no"
        params = ";".join(
            f"{k}={v}"
            for k, v in sorted(result.algorithm_params.items())
            if k != "algorithm"
        )
        return cls(
            dataset=dataset,
            algorithm=algorithm,
            params=params,
            n=n,
            m=m,
            open_cells=result.computed_cells,
            path_K=result.path.K,
            elapsed_ms=elapsed * 1000.0,
            raw_cost=result.raw_cost,
            normalized_distance=result.normalized_distance,
            optimal=optimal,
        )

    def cells(self) -> dict[str, str]:
        """Each field as the text that the CSV and the compare table print."""
        return {
            k: format(v, _CELL_FORMATS.get(k, ""))
            for k, v in asdict(self).items()
        }


CSV_HEADER = [f.name for f in fields(BenchRecord)]


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
    first data line contains a comma.  Any other ``fmt`` raises
    ``ValueError``.
    """
    if fmt not in ("auto", "plain", "csv"):
        raise ValueError(f"fmt must be 'auto', 'plain' or 'csv', got {fmt!r}")
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


def run_benchmark(
    pairs: Iterable[tuple[str, TimeSeries, TimeSeries]],
    algorithms: dict[str, Callable[[TimeSeries, TimeSeries], "object"]],
    repeats: int = 3,
) -> tuple[list[BenchRecord], list[tuple[str, str, str]]]:
    """Run every algorithm over every pair.

    Returns the records plus the failures, each a (dataset, algorithm,
    message) triple; one failing (dataset, algorithm) combination never
    aborts the rest of the sweep.  ``optimal`` compares the raw cost
    against the exact optimum of a linear-space sweep with the shorter
    series across its slots; a pair whose costs could overflow records
    that failure once per algorithm, naming n and m as given.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    records: list[BenchRecord] = []
    failures: list[tuple[str, str, str]] = []
    for name, s, q in pairs:
        longer, shorter = (s, q) if len(s) >= len(q) else (q, s)
        try:
            check_cost_range(s, q)
            optimum = forward_space_efficient(longer, shorter)[-1]
        except Exception as exc:  # noqa: BLE001 - isolate per-pair failures
            failures += [(name, algo, str(exc)) for algo in algorithms]
            continue
        for algo, fn in algorithms.items():
            try:
                times = []
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    result = fn(s, q)
                    times.append(time.perf_counter() - t0)
                verdict = validate_path(result.path, len(s), len(q))
                if not verdict:
                    failures.append(
                        (name, algo, f"invalid path ({verdict.violation} violation)")
                    )
                    continue
                records.append(
                    BenchRecord.from_result(
                        name, algo, result, len(s), len(q),
                        statistics.median(times), optimum,
                    )
                )
            except Exception as exc:  # noqa: BLE001 - isolate per-cell failures
                failures.append((name, algo, str(exc)))
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
        w.writerow(r.cells().values())
