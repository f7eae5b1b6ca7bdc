"""The traced run: per-layer spans recorded from outside the library.

Each task runs under a ``task`` root span.  Sparse and full tasks are
rebuilt from their public stage functions, each stage in its own span;
band and dc tasks are one span around the library call.  Spans stay in
memory and are written out once at the end.  The traced results are
checked against the untraced library results on the same pairs, so the
stage timings measure the same program.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter_ns

import numpy as np

from tswarp import quantize, validate_path
from tswarp.full import backtrack, cost_matrix
from tswarp.sparse import build_bins, forward_pass, populate, sparse_backtrack

import harness
from harness import Checker, Task

# In the traced run, every algorithm the workload does not time runs
# once on each of the first PROBE_PAIRS pairs at its default setting
# (see probe_tasks), so that every layer's metrics exist on every
# workload.  Probes count in no end-to-end metric.
PROBE_PAIRS = 4


@dataclass
class Tracer:
    """Spans as [name, start_ns, end_ns, parent index, task label]."""

    spans: list = field(default_factory=list)
    task: str | None = None
    _open: list = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter_ns(), 0, self._open[-1] if self._open else None, self.task]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter_ns()
            self._open.pop()

    def self_ns(self) -> list[int]:
        """Each span's duration minus the part its children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own


@dataclass(frozen=True)
class Staged:
    """Outcome of a staged pipeline, shaped like the fields the checks read."""

    path: object
    raw_cost: float
    matrix: object = None


def staged_runner(tracer: Tracer):
    span = tracer.span

    def run(task: Task, s, q):
        tracer.task = task.label
        with span("task"):
            if task.kind == "sparse":
                # The same stage order as sparse_dtw.
                with span("sparse.build_bins"):
                    bins = build_bins(task.param)
                with span("core.quantize"):
                    sq = quantize(s)
                with span("core.quantize"):
                    qq = quantize(q)
                with span("sparse.populate"):
                    sm = populate(sq, qq, bins, s, q)
                with span("sparse.forward_pass"):
                    forward_pass(sm, s, q)
                with span("sparse.sparse_backtrack"):
                    path = sparse_backtrack(sm)
                return Staged(path, float(sm.col_vals[sm.m - 1][-1]), sm)
            if task.kind == "full":
                with span("full.cost_matrix"):
                    D = cost_matrix(s, q)
                with span("full.backtrack"):
                    path = backtrack(D)
                return Staged(path, float(D.cells[-1, -1]))
            with span("band.dtw_band" if task.kind == "band" else "divide.dc_align"):
                return harness.align(task, s, q)

    return run


def sparse_counts(sm) -> tuple[int, int, int]:
    """Bin-opened cells, unblocked cells and maximal open runs."""
    runs = 0
    for rows in sm.col_open_rows:
        if rows:
            runs += 1 + int(np.count_nonzero(np.diff(rows) != 1))
    return sum(len(r) for r in sm.col_rows), sm.unblocked, runs


def probe_tasks(w: harness.Workload) -> list[Task]:
    defaults = {"full": None, "band": w.length // 10, "dc": None, "sparse": 0.5}
    timed = {kind for kind, _ in w.kinds}
    return [
        Task(p, kind, param)
        for kind, param in defaults.items()
        if kind not in timed
        for p in range(min(PROBE_PAIRS, w.pairs_per_rho * len(w.rhos)))
    ]


def run_traced(w: harness.Workload, seed: int, seconds: float) -> harness.Report:
    setup, setup_s = harness.timed_set_up(w, seed)
    probes = probe_tasks(w)

    # Untraced reference results, and tasks_per_s without tracing.
    plain = Checker(setup)
    plain_passes = harness.run_loop(setup.tasks, setup, seconds / 2, harness.align, plain, 1)
    harness.run_loop(probes, setup, 0, harness.align, plain, 1)

    tracer = Tracer()

    def traced_validate(path, n, m):
        with tracer.span("core.validate_path"):
            return validate_path(path, n, m)

    traced = Checker(setup, reference=dict(plain.reference), validate=traced_validate)
    counts: dict[Task, tuple[int, int, int]] = {}

    def on_traced(task, out):
        traced(task, out)
        if isinstance(out, Staged) and out.matrix is not None and task not in counts:
            counts[task] = sparse_counts(out.matrix)

    traced_passes = harness.run_loop(setup.tasks, setup, seconds / 2, staged_runner(tracer), on_traced, 1)
    harness.run_loop(probes, setup, 0, staged_runner(tracer), on_traced, 1)

    results = plain.reference
    everything = setup.tasks + probes
    complete = all(t in results for t in everything)
    # dc has no bytes-per-cell metric, and the traced run reports no peak_mem_mb.
    measured = [t for t in everything if t.kind != "dc"]
    peaks = harness.memory_pass(harness.by_kind(measured), setup, plain) if complete else {}
    attempted, failed, lines = harness.check_lines([plain, traced])

    untraced_tps = harness.tasks_per_s(plain_passes)
    traced_tps = harness.tasks_per_s(traced_passes)
    own = tracer.self_ns()
    metrics = layer_metrics(tracer, own, setup, results, counts, peaks) if complete else {}
    metrics["trace.tasks_per_s"] = (traced_tps, "1/s")
    metrics["trace.overhead_tasks_per_s"] = (untraced_tps - traced_tps, "1/s")
    if complete:
        gap, frac = harness.quality(setup.tasks, setup, results)
        metrics["opt_gap_pct"] = (gap, "%")
        metrics["optimal_frac"] = (frac, "ratio")

    by_name = defaultdict(list)
    for (name, *_), ns in zip(tracer.spans, own):
        by_name[name].append(ns)
    self_table = {
        name: {"spans": len(v), "self_ms_total": sum(v) / 1e6, "self_ms_mean": statistics.fmean(v) / 1e6}
        for name, v in sorted(by_name.items())
    }
    document = {
        "workload": w.name,
        "seed": seed,
        "untraced_tasks_per_s": untraced_tps,
        "traced_tasks_per_s": traced_tps,
        "overhead_tasks_per_s": untraced_tps - traced_tps,
        "setup_s": setup_s,
        "probe_tasks": [t.label for t in probes],
        "self_time": self_table,
        "spans": [
            {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "task": task, "self_ns": ns}
            for (name, start, end, parent, task), ns in zip(tracer.spans, own)
        ],
    }
    summary = [
        f"workload {w.name} seed {seed} traced: {len(setup.tasks)} tasks per pass, "
        f"{len(plain_passes)} untraced and {len(traced_passes)} traced passes, "
        f"{len(probes)} probe tasks, {len(tracer.spans)} spans",
        f"  tracing overhead: {untraced_tps:.4f} -> {traced_tps:.4f} tasks/s",
    ]
    summary += [f"  {name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    summary += [
        f"  self time {name}: {row['self_ms_mean']:.4g} ms mean over {row['spans']} spans"
        for name, row in self_table.items()
    ]
    summary += lines
    ok = failed == 0 and complete
    summary.append(f"staged pipelines equal the library calls: {'yes' if ok else 'NO'}")
    return harness.Report(ok, attempted, failed, metrics, summary, document)


def layer_metrics(tracer, own, setup, results, counts, peaks) -> dict[str, tuple[float, str]]:
    self_by_name = defaultdict(list)
    root_ns: dict[str, list[int]] = defaultdict(list)  # task label -> task root durations
    for (name, start, end, _, task), ns in zip(tracer.spans, own):
        self_by_name[name].append(ns)
        if name == "task":
            root_ns[task].append(end - start)

    def mean_ms(name: str) -> float:
        return statistics.fmean(self_by_name[name]) / 1e6

    def cells(t: Task) -> int:
        s, q = setup.pairs[t.pair]
        return len(s) * len(q)

    traced = [t for t in results if t.label in root_ns]
    kinds = defaultdict(list)
    for t in traced:
        kinds[t.kind].append(t)

    def ns_per(kind: str, work) -> float:
        """Task root time over work done, summed across executions."""
        total_ns = sum(sum(root_ns[t.label]) for t in kinds[kind])
        return total_ns / sum(work(t) * len(root_ns[t.label]) for t in kinds[kind])

    def bytes_per(kind: str, work) -> float:
        rows = [(peak, task) for peak, task in peaks.values() if task.kind == kind]
        return sum(p for p, _ in rows) / sum(work(t) for _, t in rows)

    sparse = kinds["sparse"]
    open_cells = lambda t: results[t].computed_cells  # noqa: E731
    bin_opened, unblocked, runs = (sum(c[i] for c in counts.values()) for i in range(3))
    full_ms = {t.pair: statistics.median(root_ns[t.label]) for t in kinds["full"]}
    ratios = [
        ns / full_ms[t.pair] for t in sparse if t.pair in full_ms for ns in root_ns[t.label]
    ]
    dc = kinds["dc"]
    return {
        "core.quantize_ms": (mean_ms("core.quantize"), "ms"),
        "core.validate_path_ms": (mean_ms("core.validate_path"), "ms"),
        "sparse.build_bins_ms": (mean_ms("sparse.build_bins"), "ms"),
        "sparse.populate_ms": (mean_ms("sparse.populate"), "ms"),
        "sparse.forward_pass_ms": (mean_ms("sparse.forward_pass"), "ms"),
        "sparse.backtrack_ms": (mean_ms("sparse.sparse_backtrack"), "ms"),
        "sparse.runs": (runs / len(counts), "count"),
        "sparse.cells_per_run": (sum(open_cells(t) for t in counts) / runs, "count"),
        "sparse.ns_per_open_cell": (ns_per("sparse", open_cells), "ns"),
        "sparse.open_frac": (sum(open_cells(t) for t in sparse) / sum(cells(t) for t in sparse), "ratio"),
        "sparse.bin_opened": (bin_opened / len(counts), "count"),
        "sparse.unblocked": (unblocked / len(counts), "count"),
        "sparse.bytes_per_open_cell": (bytes_per("sparse", open_cells), "B"),
        "sparse.vs_full_ratio": (statistics.median(ratios), "ratio"),
        "full.cost_matrix_ms": (mean_ms("full.cost_matrix"), "ms"),
        "full.backtrack_ms": (mean_ms("full.backtrack"), "ms"),
        "full.ns_per_cell": (ns_per("full", cells), "ns"),
        "full.bytes_per_cell": (bytes_per("full", cells), "B"),
        "band.dtw_band_ms": (mean_ms("band.dtw_band"), "ms"),
        "band.cells": (statistics.fmean(results[t].computed_cells for t in kinds["band"]), "count"),
        "band.ns_per_cell": (ns_per("band", lambda t: results[t].computed_cells), "ns"),
        "band.bytes_per_cell": (bytes_per("band", lambda t: results[t].computed_cells), "B"),
        "divide.dc_align_ms": (mean_ms("divide.dc_align"), "ms"),
        "divide.recompute_factor": (statistics.fmean(results[t].computed_cells / cells(t) for t in dc), "ratio"),
        "divide.space_peak_cells": (statistics.fmean(results[t].space.peak for t in dc), "count"),
        "divide.splits": (statistics.fmean(len(results[t].splits) for t in dc), "count"),
    }
