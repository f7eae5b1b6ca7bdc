"""Command-line interface: align, compare, gen, bench.

Exit codes: 0 success, 1 usage error, 2 data/parse error or an output
file that cannot be written, 3 algorithm failure (band disconnection,
cost overflow, sparse connectivity diagnostic, budget exhaustion).  The
rows and optimal verdicts of compare and bench all come from one
run_benchmark call, and both exit 3 only when no algorithm produced a row.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager, nullcontext
from itertools import product
from pathlib import Path
from typing import Callable, Iterator, TextIO

from .band import BandSpec, dtw_band
from .bench import (
    CSV_HEADER,
    DataFormatError,
    SyntheticSpec,
    generate_pair,
    load_series,
    pearson,
    run_benchmark,
    write_csv,
)
from .core import AlignmentResult, TimeSeries, quantize
from .divide import dc_align
from .full import dtw_full
from .sparse import DEFAULT_RES, build_bins, dump_lines, forward_pass, populate, sparse_dtw

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ALGORITHM = 3


class _WriteError(Exception):
    """An output file could not be written (exit 2)."""


@contextmanager
def _writing(path: str | Path) -> Iterator[TextIO]:
    """``path`` opened for writing text; failing to open or write it
    raises ``_WriteError`` naming the path."""
    try:
        with open(path, "w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise _WriteError(f"cannot write {path}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; the contract wants 1."""

    def error(self, message):
        raise ValueError(message)


def _load_one(path: str) -> TimeSeries:
    series = load_series(path)
    if len(series) != 1:
        raise DataFormatError(
            f"{path}: expected exactly one series, found {len(series)}"
        )
    return series[0]


def _result_payload(result: AlignmentResult, n: int, m: int) -> dict:
    params = dict(result.algorithm_params)
    algorithm = params.pop("algorithm", "?")
    return {
        "algorithm": algorithm,
        "params": params,
        "n": n,
        "m": m,
        "raw_cost": result.raw_cost,
        "normalized_distance": result.normalized_distance,
        "path": [[i, j] for i, j in result.path],
        "path_K": result.path.K,
        "open_cells": result.computed_cells,
        "elapsed_ms": result.elapsed * 1000.0,
    }


def _aligner(
    algo: str, args, width: int | None
) -> Callable[[TimeSeries, TimeSeries], AlignmentResult]:
    """The library call that runs ``algo`` with the command's settings.

    The band and the bins are built here, so that a bad width or
    resolution is a usage error before any pair runs.  ``bench`` has no
    ``--mid-mode``: dc runs at the ceil midpoint there.
    """
    if algo == "full":
        return dtw_full
    if algo == "band":
        if width is None:
            raise ValueError("--width is required for algo=band")
        band = BandSpec(width)
        return lambda s, q: dtw_band(s, q, band)
    if algo == "dc":
        mid_mode = getattr(args, "mid_mode", "ceil")
        return lambda s, q: dc_align(s, q, mid_mode=mid_mode)
    if algo == "sparse":
        build_bins(args.res)
        return lambda s, q: sparse_dtw(s, q, res=args.res)
    raise ValueError(f"unknown algorithm {algo!r}")


def _cmd_align(args) -> int:
    if args.dump_sm and args.algo != "sparse":
        raise ValueError(f"--dump-sm needs --algo sparse, not {args.algo}")
    s = _load_one(args.series_a)
    q = _load_one(args.series_b)
    result = _aligner(args.algo, args, args.width)(s, q)
    payload = _result_payload(result, len(s), len(q))
    if args.dump_sm:
        # The matrix that sparse_dtw aligned over, built by the same stages.
        sm = populate(quantize(s), quantize(q), build_bins(args.res), s, q)
        payload["sm_dump"] = dump_lines(forward_pass(sm, s, q))
    json.dump(payload, sys.stdout, indent=2)
    print()
    return EXIT_OK


_COMPARE_COLUMNS = [
    c for c in CSV_HEADER if c not in ("dataset", "params", "n", "m")
]


def _cmd_compare(args) -> int:
    s = _load_one(args.series_a)
    q = _load_one(args.series_b)
    width = args.width if args.width is not None else max(len(s), len(q))
    algos = ("full", "band", "dc", "sparse")
    records, failures = run_benchmark(
        [("", s, q)], {a: _aligner(a, args, width) for a in algos}, repeats=1
    )
    failed = {algo: message for _, algo, message in failures}
    rows = []
    table = [_COMPARE_COLUMNS]
    for algo in algos:
        if algo in failed:
            rows.append(dict(algorithm=algo, error=failed[algo], optimal="unknown"))
            table.append([algo] + ["-"] * 5 + [f"failed: {failed[algo]}"])
            continue
        record = next(r for r in records if r.algorithm == algo)
        shown = {c: getattr(record, c) for c in _COMPARE_COLUMNS}
        rows.append(shown | {"elapsed_ms": round(record.elapsed_ms, 3)})
        cells = record.cells()
        table.append([cells[c] for c in _COMPARE_COLUMNS])
    if args.json:
        json.dump(rows, sys.stdout, indent=2)
        print()
    else:
        widths = [
            max(len(r[c]) for r in table) for c in range(len(_COMPARE_COLUMNS))
        ]
        for r in table:
            print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return EXIT_OK if records else EXIT_ALGORITHM


def _cmd_gen(args) -> int:
    spec = SyntheticSpec(length=args.len, rho=args.rho, seed=args.seed)
    s, q = generate_pair(spec)
    out = Path(args.out)
    for suffix, series in ((".a.txt", s), (".b.txt", q)):
        with _writing(out.parent / (out.name + suffix)) as fh:
            fh.write(f"# {series.id}\n")
            for v in series.values:
                fh.write(f"{float(v)!r}\n")
    print(f"achieved correlation: {pearson(s, q):.6f}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    if not (args.lengths and args.rhos and args.seeds and args.algos):
        raise ValueError("benchmark grid is empty")
    pairs = []
    for length, rho, seed in product(args.lengths, args.rhos, args.seeds):
        s, q = generate_pair(SyntheticSpec(length=length, rho=rho, seed=seed))
        pairs.append((f"L{length}-r{rho:g}-s{seed}", s, q))
    algorithms = {}
    for algo in args.algos:
        if algo != "band":
            algorithms[algo] = _aligner(algo, args, None)
            continue
        if not args.widths:
            raise ValueError("--widths is required when benching band")
        for w in args.widths:
            algorithms[f"band-w{w}"] = _aligner(algo, args, w)
    if args.repeats < 1:
        raise ValueError("repeats must be >= 1")
    # The output is opened first, so that a bad path fails before the sweep.
    with _writing(args.out) if args.out else nullcontext(sys.stdout) as out:
        records, failures = run_benchmark(pairs, algorithms, repeats=args.repeats)
        for name, algo, message in failures:
            print(f"failed: {name}/{algo}: {message}", file=sys.stderr)
        write_csv(records, out)
    return EXIT_OK if records else EXIT_ALGORITHM


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _build_parser() -> _Parser:
    parser = _Parser(prog="tswarp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_align = sub.add_parser("align", help="align two series with one algorithm")
    p_align.add_argument("series_a")
    p_align.add_argument("series_b")
    p_align.add_argument(
        "--algo", choices=("full", "band", "dc", "sparse"), default="full"
    )
    p_align.add_argument("--width", type=int, default=None)
    p_align.add_argument("--res", type=float, default=DEFAULT_RES)
    p_align.add_argument("--mid-mode", choices=("ceil", "floor"), default="ceil")
    p_align.add_argument(
        "--dump-sm", action="store_true", help="attach the sparse-matrix dump"
    )
    p_align.set_defaults(func=_cmd_align)

    p_cmp = sub.add_parser("compare", help="run all four algorithms")
    p_cmp.add_argument("series_a")
    p_cmp.add_argument("series_b")
    p_cmp.add_argument("--width", type=int, default=None)
    p_cmp.add_argument("--res", type=float, default=DEFAULT_RES)
    p_cmp.add_argument("--mid-mode", choices=("ceil", "floor"), default="ceil")
    p_cmp.add_argument("--json", action="store_true")
    p_cmp.set_defaults(func=_cmd_compare)

    p_gen = sub.add_parser("gen", help="generate a synthetic pair")
    p_gen.add_argument("--len", type=int, required=True)
    p_gen.add_argument("--rho", type=float, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_bench = sub.add_parser("bench", help="sweep a benchmark grid to CSV")
    p_bench.add_argument("--lengths", type=_int_list, required=True)
    p_bench.add_argument("--rhos", type=_float_list, required=True)
    p_bench.add_argument("--seeds", type=_int_list, default=[0])
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.add_argument(
        "--algos", type=lambda t: [x.strip() for x in t.split(",") if x.strip()],
        default=["full", "sparse"],
    )
    p_bench.add_argument("--res", type=float, default=DEFAULT_RES)
    p_bench.add_argument("--widths", type=_int_list, default=[])
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except _WriteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - contract: algorithm failures exit 3
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ALGORITHM


if __name__ == "__main__":
    sys.exit(main())
