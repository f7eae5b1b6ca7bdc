"""Command-line interface: align, compare, gen, bench.

Exit codes: 0 success, 1 usage error, 2 data/parse error, 3 algorithm
failure (band disconnection, cost overflow, sparse connectivity
diagnostic, budget exhaustion).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .band import BandDisconnectedError, BandSpec, dtw_band
from .bench import (
    DataFormatError,
    SyntheticSpec,
    generate_pair,
    load_series,
    matches_optimum,
    pearson,
    run_benchmark,
    write_csv,
)
from .core import AlignmentResult, CostOverflowError, TimeSeries
from .divide import RecursionDepthError, dc_align
from .full import MatrixBudgetError, dtw_full
from .sparse import _sparse_dtw, dump_lines, sparse_dtw

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ALGORITHM = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; the contract wants 1."""

    def error(self, message):
        raise _UsageError(message)


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


def _run_algo(algo: str, s: TimeSeries, q: TimeSeries, args) -> AlignmentResult:
    if algo == "full":
        return dtw_full(s, q)
    if algo == "band":
        if args.width is None:
            raise _UsageError("--width is required for algo=band")
        return dtw_band(s, q, BandSpec(args.width))
    if algo == "dc":
        return dc_align(s, q, mid_mode=args.mid_mode)
    if algo == "sparse":
        return sparse_dtw(s, q, res=args.res)
    raise _UsageError(f"unknown algorithm {algo!r}")


def _cmd_align(args) -> int:
    s = _load_one(args.series_a)
    q = _load_one(args.series_b)
    dump = args.algo == "sparse" and args.dump_sm
    try:
        if dump:
            result, sm = _sparse_dtw(s, q, args.res)
        else:
            result = _run_algo(args.algo, s, q, args)
    except (
        BandDisconnectedError,
        CostOverflowError,
        MatrixBudgetError,
        RecursionDepthError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ALGORITHM
    payload = _result_payload(result, len(s), len(q))
    if dump:
        payload["sm_dump"] = dump_lines(sm, s, q)
    json.dump(payload, sys.stdout, indent=2)
    print()
    return EXIT_OK


_COMPARE_COLUMNS = [
    "algorithm",
    "open_cells",
    "path_K",
    "elapsed_ms",
    "raw_cost",
    "normalized_distance",
    "optimal",
]


def _cmd_compare(args) -> int:
    s = _load_one(args.series_a)
    q = _load_one(args.series_b)
    width = args.width if args.width is not None else max(len(s), len(q))
    rows = []
    full_result = None
    for algo in ("full", "band", "dc", "sparse"):
        try:
            if algo == "band":
                result = dtw_band(s, q, BandSpec(width))
            else:
                result = _run_algo(algo, s, q, args)
        except Exception as exc:  # noqa: BLE001 - rendered in-row
            rows.append({"algorithm": algo, "error": str(exc)})
            continue
        if algo == "full":
            full_result = result
        rows.append(
            {
                "algorithm": algo,
                "open_cells": result.computed_cells,
                "path_K": result.path.K,
                "elapsed_ms": round(result.elapsed * 1000.0, 3),
                "raw_cost": result.raw_cost,
                "normalized_distance": result.normalized_distance,
            }
        )
    for row in rows:
        if "error" in row or full_result is None:
            row.setdefault("optimal", "unknown")
        else:
            close = matches_optimum(row["raw_cost"], full_result.raw_cost)
            row["optimal"] = "yes" if close else "no"
    if args.json:
        json.dump(rows, sys.stdout, indent=2)
        print()
    else:
        table = [_COMPARE_COLUMNS]
        for row in rows:
            if "error" in row:
                cells = [row["algorithm"]] + ["-"] * 5 + [
                    f"failed: {row['error']}"
                ]
            else:
                cells = [
                    row["algorithm"],
                    str(row["open_cells"]),
                    str(row["path_K"]),
                    f"{row['elapsed_ms']:.3f}",
                    f"{row['raw_cost']:.9g}",
                    f"{row['normalized_distance']:.9g}",
                    row["optimal"],
                ]
            table.append(cells)
        widths = [
            max(len(r[c]) for r in table) for c in range(len(_COMPARE_COLUMNS))
        ]
        for r in table:
            print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return EXIT_OK if full_result is not None else EXIT_ALGORITHM


def _cmd_gen(args) -> int:
    spec = SyntheticSpec(length=args.len, rho=args.rho, seed=args.seed)
    s, q = generate_pair(spec)
    out = Path(args.out)
    for suffix, series in ((".a.txt", s), (".b.txt", q)):
        target = out.parent / (out.name + suffix)
        try:
            with open(target, "w") as fh:
                fh.write(f"# {series.id}\n")
                for v in series.values:
                    fh.write(f"{float(v)!r}\n")
        except OSError as exc:
            print(f"error: cannot write {target}: {exc}", file=sys.stderr)
            return EXIT_DATA
    print(f"achieved correlation: {pearson(s, q):.6f}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    lengths = args.lengths
    rhos = args.rhos
    seeds = args.seeds
    algos = args.algos
    if not lengths or not rhos or not seeds or not algos:
        raise _UsageError("benchmark grid is empty")
    pairs = []
    for length in lengths:
        for rho in rhos:
            for seed in seeds:
                spec = SyntheticSpec(length=length, rho=rho, seed=seed)
                s, q = generate_pair(spec)
                pairs.append((f"L{length}-r{rho:g}-s{seed}", s, q))
    algorithms = {}
    for algo in algos:
        if algo == "full":
            algorithms["full"] = lambda s, q: dtw_full(s, q)
        elif algo == "sparse":
            algorithms["sparse"] = (
                lambda s, q, _r=args.res: sparse_dtw(s, q, res=_r)
            )
        elif algo == "dc":
            algorithms["dc"] = lambda s, q: dc_align(s, q)
        elif algo == "band":
            widths = args.widths
            if not widths:
                raise _UsageError("--widths is required when benching band")
            for w in widths:
                algorithms[f"band-w{w}"] = (
                    lambda s, q, _w=w: dtw_band(s, q, BandSpec(_w))
                )
        else:
            raise _UsageError(f"unknown algorithm {algo!r}")
    records, failures = run_benchmark(pairs, algorithms, repeats=args.repeats)
    for failure in failures:
        print(f"failed: {failure}", file=sys.stderr)
    write_csv(records, args.out or sys.stdout)
    if records:
        return EXIT_OK
    return EXIT_ALGORITHM


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
    p_align.add_argument("--res", type=float, default=0.5)
    p_align.add_argument("--mid-mode", choices=("ceil", "floor"), default="ceil")
    p_align.add_argument(
        "--dump-sm", action="store_true", help="attach the sparse-matrix dump"
    )
    p_align.set_defaults(func=_cmd_align)

    p_cmp = sub.add_parser("compare", help="run all four algorithms")
    p_cmp.add_argument("series_a")
    p_cmp.add_argument("series_b")
    p_cmp.add_argument("--width", type=int, default=None)
    p_cmp.add_argument("--res", type=float, default=0.5)
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
    p_bench.add_argument("--res", type=float, default=0.5)
    p_bench.add_argument("--widths", type=_int_list, default=[])
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - contract: algorithm failures exit 3
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ALGORITHM


if __name__ == "__main__":
    sys.exit(main())
