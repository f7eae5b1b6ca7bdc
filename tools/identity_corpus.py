"""Bit-identity check of every aligner across two versions of the library.

Dumps what each aligner returns on a fixed corpus, then compares two
dumps record by record:

    python3 tools/identity_corpus.py dump OLD_CHECKOUT/src old.json
    python3 tools/identity_corpus.py dump src new.json
    python3 tools/identity_corpus.py compare old.json new.json

The corpus is 300 tie-heavy integer pairs (samples in [-2, 2], lengths
1-12), 60 Gaussian pairs of unequal lengths 1-39, generated pairs at
L in {60, 120, 250} x rho in {0, 0.5, 0.95, 0.99} x two seeds, four
strongly non-square generated pairs, an overflowing pair and a constant
pair.  Each pair runs through full, dc (ceil, and floor on small
pairs), band at seven widths (narrow ones disconnect on non-square
pairs) and sparse at res 0.1, 0.25, 0.5 and 1.0, plus the public stage
functions.  A record holds raw costs as float.hex, paths, cell counts,
dc splits and SpaceStats, sparse matrix contents, or the error type and
message.  ``compare`` exits 1 when any record differs.
"""

import hashlib
import json
import sys


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
    for L in (60, 120, 250):
        for rho in (0.0, 0.5, 0.95, 0.99):
            for seed in (7, 8):
                s, q = tw.generate_pair(tw.SyntheticSpec(L, rho, seed))
                yield f"gen{L}-{rho}-{seed}", s, q
    for long_len, short_len, seed in ((250, 40, 5), (90, 37, 3)):
        s, _ = tw.generate_pair(tw.SyntheticSpec(long_len, 0.9, seed))
        _, q = tw.generate_pair(tw.SyntheticSpec(short_len, 0.9, seed))
        yield f"gen{long_len}x{short_len}", s, q
        yield f"gen{short_len}x{long_len}", q, s
    yield "overflow", tw.TimeSeries("s", [1e200, -1e200, 0]), tw.TimeSeries("q", [0, 1e200, 3])
    yield "constant", tw.TimeSeries("s", [0.0] * 5), tw.TimeSeries("q", [0.0] * 3)


def dump(src: str, out_path: str) -> None:
    sys.path.insert(0, src)
    import numpy as np

    import tswarp as tw
    from tswarp.divide import backward_space_efficient, forward_space_efficient
    from tswarp.full import backtrack, cost_matrix
    from tswarp.sparse import forward_pass, populate, sparse_backtrack

    def stages(s, q, res):
        sm = populate(tw.quantize(s), tw.quantize(q), tw.build_bins(res), s, q)
        forward_pass(sm, s, q)
        h = hashlib.sha256()
        for rows, vals in zip(sm.col_open_rows, sm.col_vals):
            h.update(np.asarray(rows, dtype=np.int64).tobytes())
            h.update(np.asarray(vals, dtype=np.float64).tobytes())
        return {
            "matrix": h.hexdigest(),
            "col_rows": hashlib.sha256(repr(sm.col_rows).encode()).hexdigest(),
            "unblocked": sm.unblocked,
            "path": [list(p) for p in sparse_backtrack(sm)],
        }

    def dense(s, q):
        D = cost_matrix(s, q)
        return {
            "D": hashlib.sha256(np.ascontiguousarray(D.cells).tobytes()).hexdigest(),
            "path": [list(p) for p in backtrack(D)],
            "fwd": [x.hex() for x in forward_space_efficient(s, q)],
            "bwd": [x.hex() for x in backward_space_efficient(s, q)],
        }

    out = {}
    for name, s, q in _pairs(tw, np):
        n, m = len(s), len(q)
        r = {
            "full": _guarded(lambda: _record(tw.dtw_full(s, q))),
            "dc": _guarded(lambda: _record(tw.dc_align(s, q))),
            "dense-stages": _guarded(lambda: dense(s, q)),
        }
        if n * m <= 400:
            r["dc-floor"] = _guarded(lambda: _record(tw.dc_align(s, q, mid_mode="floor")))
        for w in sorted({0, 1, 2, 5, 10, 25, max(n, m)}):
            r[f"band{w}"] = _guarded(lambda: _record(tw.dtw_band(s, q, tw.BandSpec(w))))
        for res in (0.1, 0.25, 0.5, 1.0):
            r[f"sparse{res}"] = _guarded(lambda: _record(tw.sparse_dtw(s, q, res=res)))
            r[f"stages{res}"] = _guarded(lambda: stages(s, q, res))
        out[name] = r
    with open(out_path, "w") as fh:
        json.dump(out, fh, sort_keys=True)
    print(f"{sum(len(r) for r in out.values())} records")


def compare(a_path: str, b_path: str) -> int:
    with open(a_path) as fh:
        a = json.load(fh)
    with open(b_path) as fh:
        b = json.load(fh)
    keys = sorted({(p, k) for d in (a, b) for p in d for k in d[p]})
    differ = [(p, k) for p, k in keys if a.get(p, {}).get(k) != b.get(p, {}).get(k)]
    for p, k in differ:
        print(f"differs: {p} {k}")
        print(f"  {str(a.get(p, {}).get(k))[:160]}")
        print(f"  {str(b.get(p, {}).get(k))[:160]}")
    print(f"{len(keys)} records, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "dump":
        dump(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
