"""Bit-identity check of every aligner across two versions of the library.

Dumps what each aligner returns on a fixed corpus, then compares two
dumps record by record:

    python3 tools/identity_corpus.py dump OLD_CHECKOUT/src old.json
    python3 tools/identity_corpus.py dump src new.json
    python3 tools/identity_corpus.py compare old.json new.json

or, in one command, dumping ``OLD_CHECKOUT/src`` and this checkout's
``src`` into a temporary directory, each in its own process, and
comparing them with ``compare``'s output and exit status:

    python3 tools/identity_corpus.py check OLD_CHECKOUT/src

The corpus is 300 tie-heavy integer pairs (samples in [-2, 2], lengths
1-12), 60 Gaussian pairs of unequal lengths 1-39, generated pairs at
L in {60, 63, 64, 65, 120, 250} (63-65 put the last row on either side
of a 64-bit word) x rho in {0, 0.5, 0.95, 0.99} x two seeds, four
strongly non-square generated pairs, ten pairs whose samples all sit
on the bin bounds of one of res 0.1, 0.25, 0.3, 0.5 and 1, two overflowing
pairs (3 x 3, and 2 x 3 so that a message naming n and m swapped
shows), a pair whose first series spans more than the float range and
a constant pair.  Each pair runs through full, dc (ceil, and floor
on small pairs), band at seven widths (narrow ones disconnect on
non-square pairs), band at the least connecting width and one below it
(when that is >= 0), and sparse at res 0.1, 0.25, 0.5 and 1.0 (and 0.3
on the bin-bound pairs), plus the public stage functions, and both
series through ``quantize``.  A record holds raw costs as float.hex,
paths, cell counts, dc splits and SpaceStats, sparse matrix contents,
quantized samples as float.hex, or the error type and message.  A
stage record hashes the matrix's column views, its ``accumulated``
query as float.hex over every open cell, its
``dump_lines`` dump and, on pairs of up to 4,000 cells, its ``is_open``
query over every cell.  The ``bench`` records hold ``run_benchmark``'s
rows (``elapsed_ms`` dropped) and failures for full, dc, band at width 2 and sparse at
res 0.25 on the CLI pairs below and the four strongly non-square pairs, and for band at width 0 on
zeros 4,001 x 4,001, a pair past the dense cell budget.  Each failure
is written as ``dataset/algorithm: message``.  The ``bins`` records
hold ``build_bins(res).count`` for 400 resolutions drawn uniformly from
[1e-3, 1] and nine round or on-bound ones.  The ``cli``
records run ``tswarp.cli.main`` on a few corpus pairs written to
files: ``align`` with every algorithm and ``--dump-sm``, ``compare`` as JSON and as a table, ``bench`` CSV,
``gen``, ``--help``, and the usage, data, write and algorithm errors.  Each
holds the exit code, stdout and stderr, with ``elapsed_ms`` dropped
(the table's elapsed cell after splitting rows on runs of two or more
spaces), JSON objects kept as key-value lists in their order, and the
temporary directory masked.  ``compare`` names the fields in which each
differing record differs, counts the records per set of differing
fields, prints the largest relative difference of the ``cost`` and
``nd`` fields, and exits 1 when any record differs.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path


def _guarded(fn):
    """fn(), or the type and message of the error it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the error is the record
        return {"error": type(exc).__name__, "msg": str(exc)}


def _record(r):
    out = {
        "cost": float(r.raw_cost).hex(),
        "nd": float(r.normalized_distance).hex(),
        "path": [list(p) for p in r.path],
        "cells": r.computed_cells,
        "params": r.algorithm_params,
    }
    if hasattr(r, "splits"):
        out["splits"] = [[sp.q_row, sp.mid_col] for sp in r.splits]
        out["space"] = [r.space.peak, r.space.computed_cells, r.space.current]
    return out


def _pairs(tw, np):
    rng = np.random.default_rng(12345)
    for k in range(300):
        a = rng.integers(-2, 3, size=int(rng.integers(1, 13))).astype(float)
        b = rng.integers(-2, 3, size=int(rng.integers(1, 13))).astype(float)
        yield f"tie{k}", tw.TimeSeries("a", a), tw.TimeSeries("b", b)
    for k in range(60):
        a = rng.normal(size=int(rng.integers(1, 40)))
        b = rng.normal(size=int(rng.integers(1, 40)))
        yield f"rnd{k}", tw.TimeSeries("a", a), tw.TimeSeries("b", b)
    for L in (60, 63, 64, 65, 120, 250):
        for rho in (0.0, 0.5, 0.95, 0.99):
            for seed in (7, 8):
                s, q = tw.generate_pair(tw.SyntheticSpec(L, rho, seed))
                yield f"gen{L}-{rho}-{seed}", s, q
    for long_len, short_len, seed in ((250, 40, 5), (90, 37, 3)):
        s, _ = tw.generate_pair(tw.SyntheticSpec(long_len, 0.9, seed))
        _, q = tw.generate_pair(tw.SyntheticSpec(short_len, 0.9, seed))
        yield f"gen{long_len}x{short_len}", s, q
        yield f"gen{short_len}x{long_len}", q, s
    # Samples on bin bounds: multiples of res / 2 (the lower bounds) and
    # those plus res (the upper ones).  Each series holds 0 and 1, so
    # quantizing leaves every sample on its bound.
    for res in (0.1, 0.25, 0.3, 0.5, 1.0):
        half = res / 2.0
        k = np.arange(round(1 / half) + 1)
        edges = np.unique(np.concatenate([k * half, k * half + res]))
        edges = edges[edges <= 1.0]
        edge_rng = np.random.default_rng(round(100 * res))
        for seed in (1, 2):
            a = edge_rng.choice(edges, size=40)
            b = edge_rng.choice(edges, size=37)
            a[:2] = b[-2:] = 0.0, 1.0
            yield f"edge{res}-{seed}", tw.TimeSeries("a", a), tw.TimeSeries("b", b)
    yield "overflow", tw.TimeSeries("s", [1e200, -1e200, 0]), tw.TimeSeries("q", [0, 1e200, 3])
    yield "overflow2x3", tw.TimeSeries("s", [1e200, -1e200]), tw.TimeSeries("q", [0, 1e200, 3])
    yield "infinite-span", tw.TimeSeries("s", [1.7e308, -1.7e308, 0]), tw.TimeSeries("q", [0, 1e200, 3])
    yield "constant", tw.TimeSeries("s", [0.0] * 5), tw.TimeSeries("q", [0.0] * 3)


_CLI_PAIRS = ("tie3", "tie1", "tie5", "rnd5", "gen60-0.95-7", "gen90x37", "edge0.5-1",
              "overflow", "overflow2x3", "constant")
_BENCH_PAIRS = _CLI_PAIRS + ("gen250x40", "gen40x250", "gen37x90")


def _bench(tw, name, s, q, algorithms):
    """``run_benchmark``'s rows, without ``elapsed_ms``, and failures as
    ``dataset/algorithm: message`` strings."""
    records, failures = tw.run_benchmark([(name, s, q)], algorithms, repeats=1)
    rows = [{k: v for k, v in r.cells().items() if k != "elapsed_ms"} for r in records]
    return {"rows": rows, "failures": ["{}/{}: {}".format(*f) for f in failures]}


def _cli_output(argv, code, out, err, tmp):
    """A CLI run's record, with timings dropped and ``tmp`` masked."""
    out, err = out.replace(tmp, "<tmp>"), err.replace(tmp, "<tmp>")
    command = argv[0] if code == 0 and "--help" not in argv else None
    if command == "align" or command == "compare" and "--json" in argv:
        # Objects as [key, value] lists, so the dump keeps the key order.
        out = json.loads(out, object_pairs_hook=lambda kv: [
            [k, v] for k, v in kv if k != "elapsed_ms"
        ])
    elif command == "compare":
        out = [re.split(r" {2,}", ln) for ln in out.splitlines()]
        for row in out:
            del row[3]
    elif command == "bench":
        out = list(csv.reader(io.StringIO(out)))
        t = out[0].index("elapsed_ms")
        for row in out:
            del row[t]
    return {"code": code, "out": out, "err": err}


def _cli(tw, np, main):
    """Records of ``tswarp`` commands, keyed by their command line."""
    pairs = {name: (s, q) for name, s, q in _pairs(tw, np) if name in _CLI_PAIRS}
    pairs["constant6x5"] = tw.TimeSeries("s", [0.0] * 6), tw.TimeSeries("q", [0.0] * 5)
    pairs["zeros4001"] = tw.TimeSeries("s", [0.0] * 4001), tw.TimeSeries("q", [0.0] * 4001)
    long9, _ = tw.generate_pair(tw.SyntheticSpec(9, 0.5, 0))
    _, short4 = tw.generate_pair(tw.SyntheticSpec(4, 0.5, 1))
    pairs["gen9x4"] = long9, short4
    runs = [
        ["frobnicate"], [],
        ["bench", "--lengths", "", "--rhos", "0.5"],
        ["bench", "--lengths", "1", "--rhos", "0.5"],
        ["bench", "--lengths", "16", "--rhos", "0.5", "--algos", "band"],
        ["bench", "--lengths", "16", "--rhos", "0.5", "--algos", "full,quantum"],
        ["bench", "--lengths", "20,33", "--rhos", "0.5,0.95", "--seeds", "0,1",
         "--repeats", "1", "--algos", "full,sparse,dc,band", "--widths", "0,3"],
        ["bench", "--lengths", "16", "--rhos", "0.9", "--repeats", "1",
         "--algos", "band,sparse", "--widths=-1,2", "--res", "0.25"],
        ["bench", "--lengths", "16", "--rhos", "0.9", "--repeats", "1",
         "--algos", "sparse", "--res", "0"],
        ["bench", "--lengths", "8", "--rhos", "0.5", "--repeats", "1",
         "--algos", "full", "--out", "{tmp}/no/r.csv"],
        ["gen", "--len", "10", "--rho", "1.5", "--out", "{tmp}/g"],
        ["gen", "--len", "30", "--rho", "0.8", "--seed", "3", "--out", "{tmp}/g"],
        ["gen", "--len", "30", "--rho", "0.8", "--out", "{tmp}/no/g"],
        ["align", "{tmp}/missing.txt", "{tmp}/missing.txt"],
        ["align", "{tmp}/bad.txt", "{tmp}/bad.txt"],
        ["align", "{constant6x5}", "--algo", "dc", "--mid-mode", "floor"],
        ["align", "{zeros4001}"],
        ["compare", "{gen9x4}", "--width", "0"],
        ["compare", "{gen9x4}", "--width", "0", "--json"],
    ]
    runs += [[cmd, "--help"] for cmd in ("align", "compare", "gen", "bench")]
    for name in _CLI_PAIRS:
        pair = "{" + name + "}"
        runs += [
            ["align", pair, "--algo", "full"],
            ["align", pair, "--algo", "band"],
            ["align", pair, "--algo", "band", "--width", "-1"],
            ["align", pair, "--algo", "band", "--width", "1"],
            ["align", pair, "--algo", "band", "--width", "3"],
            ["align", pair, "--algo", "dc"],
            ["align", pair, "--algo", "dc", "--mid-mode", "floor"],
            ["align", pair, "--algo", "sparse", "--res", "0.25"],
            ["align", pair, "--algo", "sparse", "--dump-sm"],
            ["align", pair, "--algo", "quantum"],
            ["compare", pair, "--json"],
            ["compare", pair, "--width", "2", "--mid-mode", "floor"],
            ["compare", pair, "--res", "1.0"],
        ]
    os.environ["COLUMNS"] = "80"  # --help wraps to the terminal width
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        with open(f"{tmp}/bad.txt", "w") as fh:
            fh.write("1.0\nnot-a-number\n")
        files = {}
        for name, (s, q) in pairs.items():
            for tag, series in (("a", s), ("b", q)):
                with open(f"{tmp}/{name}.{tag}.txt", "w") as fh:
                    fh.writelines(f"{float(v)!r}\n" for v in series.values)
            files["{" + name + "}"] = [f"{tmp}/{name}.a.txt", f"{tmp}/{name}.b.txt"]
        for run in runs:
            argv = []
            for arg in run:
                argv += files.get(arg, [arg.replace("{tmp}", tmp)])
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            record = _cli_output(run, code, out.getvalue(), err.getvalue(), tmp)
            if run[:1] == ["gen"] and code == 0:
                record["files"] = [
                    Path(f"{tmp}/g.{tag}.txt").read_text() for tag in ("a", "b")
                ]
            records[" ".join(run)] = record
    return records


def dump(src: str, out_path: str) -> None:
    sys.path.insert(0, src)
    import numpy as np

    import tswarp as tw
    from tswarp.cli import main
    from tswarp.divide import backward_space_efficient, forward_space_efficient
    from tswarp.full import backtrack, cost_matrix
    from tswarp.sparse import dump_lines, forward_pass, populate, sparse_backtrack

    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    def stages(s, q, res):
        sm = populate(tw.quantize(s), tw.quantize(q), tw.build_bins(res), s, q)
        forward_pass(sm, s, q)
        n, m = len(s), len(q)
        h = hashlib.sha256()
        for rows, vals in zip(sm.col_open_rows, sm.col_vals):
            h.update(np.asarray(rows, dtype=np.int64).tobytes())
            h.update(np.asarray(vals, dtype=np.float64).tobytes())
        # Open cells as 1-based (i, j), column-major.
        cells = [((c - 1) % n + 1, (c - 1) // n + 1) for c in sm.open_cells()]
        out = {
            "matrix": h.hexdigest(),
            "col_rows": sha(repr(sm.col_rows)),
            "unblocked": sm.unblocked,
            "path": [list(p) for p in sparse_backtrack(sm)],
            "accumulated": sha(",".join(sm.accumulated(i, j).hex() for i, j in cells)),
            "dump": sha("\n".join(dump_lines(sm))),
        }
        if n * m <= 4000:
            grid = [(i, j) for j in range(1, m + 1) for i in range(1, n + 1)]
            out["is_open"] = sha("".join("01"[sm.is_open(i, j)] for i, j in grid))
        return out

    def dense(s, q):
        D = cost_matrix(s, q)
        return {
            "D": hashlib.sha256(np.ascontiguousarray(D.cells).tobytes()).hexdigest(),
            "path": [list(p) for p in backtrack(D)],
            "fwd": [x.hex() for x in forward_space_efficient(s, q)],
            "bwd": [x.hex() for x in backward_space_efficient(s, q)],
        }

    def quantized(s, q):
        return {k: [x.hex() for x in tw.quantize(t).values.tolist()] for k, t in (("s", s), ("q", q))}

    algorithms = {
        "full": tw.dtw_full,
        "dc": tw.dc_align,
        "band2": lambda s, q: tw.dtw_band(s, q, tw.BandSpec(2)),
        "sparse0.25": lambda s, q: tw.sparse_dtw(s, q, res=0.25),
    }
    out = {}
    for name, s, q in _pairs(tw, np):
        n, m = len(s), len(q)
        r = {
            "full": _guarded(lambda: _record(tw.dtw_full(s, q))),
            "dc": _guarded(lambda: _record(tw.dc_align(s, q))),
            "dense-stages": _guarded(lambda: dense(s, q)),
            "quantize": _guarded(lambda: quantized(s, q)),
        }
        if n * m <= 400:
            r["dc-floor"] = _guarded(lambda: _record(tw.dc_align(s, q, mid_mode="floor")))
        for w in sorted({0, 1, 2, 5, 10, 25, max(n, m)}):
            r[f"band{w}"] = _guarded(lambda: _record(tw.dtw_band(s, q, tw.BandSpec(w))))
        least = tw.min_connecting_width(n, m)
        for w in range(max(least - 1, 0), least + 1):
            band = lambda: _record(tw.dtw_band(s, q, tw.BandSpec(w)))
            r[f"band-least{w - least:+d}"] = _guarded(band)
        # Bin-bound pairs also run at 0.3, whose bounds (multiples of 0.15)
        # are inexact in binary.
        for res in (0.1, 0.25, 0.5, 1.0) + ((0.3,) if name.startswith("edge") else ()):
            r[f"sparse{res}"] = _guarded(lambda: _record(tw.sparse_dtw(s, q, res=res)))
            r[f"stages{res}"] = _guarded(lambda: stages(s, q, res))
        if name in _BENCH_PAIRS:
            r["bench"] = _guarded(lambda: _bench(tw, name, s, q, algorithms))
        out[name] = r
    zeros = tw.TimeSeries("z", np.zeros(4001))
    band0 = {"band0": lambda s, q: tw.dtw_band(s, q, tw.BandSpec(0))}
    out["zeros4001"] = {"bench": _guarded(lambda: _bench(tw, "zeros4001", zeros, zeros, band0))}
    on_bound = [0.1538461538463077, 0.1428571428572857, 0.11111111111122222]
    grid = np.random.default_rng(21).uniform(1e-3, 1.0, 400).tolist()
    grid += [1e-3, 0.1, 0.3, 1 / 3, 0.7, 1.0, *on_bound]
    out["bins"] = {repr(res): _guarded(lambda: {"count": tw.build_bins(res).count}) for res in grid}
    out["cli"] = _cli(tw, np, main)
    with open(out_path, "w") as fh:
        json.dump(out, fh, sort_keys=True)
    print(f"{sum(len(r) for r in out.values())} records")


def _fields(x, y) -> list[str]:
    """Names of the fields in which two versions of a record differ."""
    if x is None or y is None:
        return ["(record missing)"]
    if "error" in x or "error" in y:
        return ["(error)"] if x.keys() == y.keys() else ["(error vs result)"]
    return sorted(f for f in x.keys() | y.keys() if x.get(f) != y.get(f))


def compare(a_path: str, b_path: str) -> int:
    with open(a_path) as fh:
        a = json.load(fh)
    with open(b_path) as fh:
        b = json.load(fh)
    keys = sorted({(p, k) for d in (a, b) for p in d for k in d[p]})
    differ = [(p, k) for p, k in keys if a.get(p, {}).get(k) != b.get(p, {}).get(k)]
    by_fields = Counter()
    largest = {}
    for p, k in differ:
        x, y = a.get(p, {}).get(k), b.get(p, {}).get(k)
        fields = _fields(x, y)
        by_fields[", ".join(fields)] += 1
        for f in ("cost", "nd"):
            if f in fields:
                u, v = float.fromhex(x[f]), float.fromhex(y[f])
                finite = math.isfinite(u) and math.isfinite(v)
                rel = abs(u - v) / max(abs(u), abs(v)) if finite else math.inf
                largest[f] = max(largest.get(f, 0.0), rel)
        print(f"differs: {p} {k} in {', '.join(fields)}")
        print(f"  {str(x)[:160]}")
        print(f"  {str(y)[:160]}")
    for fields, count in sorted(by_fields.items()):
        print(f"{count} records differ in {fields}")
    for f, rel in sorted(largest.items()):
        print(f"largest relative {f} difference: {rel:.3g}")
    print(f"{len(keys)} records, {len(differ)} differ")
    return 1 if differ else 0


def check(old_src: str) -> int:
    """Dump ``old_src`` and this checkout's ``src``, then compare them."""
    new_src = Path(__file__).resolve().parent.parent / "src"
    with tempfile.TemporaryDirectory() as tmp:
        dumps = [f"{tmp}/old.json", f"{tmp}/new.json"]
        for src, out_path in zip((old_src, new_src), dumps):
            subprocess.run([sys.executable, __file__, "dump", str(src), out_path], check=True)
        return compare(*dumps)


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "dump":
        dump(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    elif len(sys.argv) == 3 and sys.argv[1] == "check":
        sys.exit(check(sys.argv[2]))
    else:
        sys.exit(__doc__)
