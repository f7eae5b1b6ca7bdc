"""Workloads, the timed closed loop, output checks and the memory pass.

One caller on one thread sends the next alignment task only after the
previous one returns (a closed loop).  A task is one call to
``dtw_full``, ``dtw_band``, ``dc_align`` or ``sparse_dtw`` on one
generated pair.  Each task is timed on its own with ``perf_counter_ns``;
output checks run after the timer stops.

A run repeats whole passes over the task list.  Each task's time is
its best (minimum) over the passes: on a shared host a task can only
be slowed by other tenants, never sped up, so the best of many passes
spread over the run is the steadiest estimate of what the program
itself costs.  ``tasks_per_s`` is tasks divided by the summed per-task
best times, and the percentiles are taken over the per-task best
times.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from tswarp import BandSpec, TimeSeries, dc_align, dtw_band, dtw_full, sparse_dtw, validate_path
from tswarp.bench import SyntheticSpec, generate_pair

# p90 is taken over per-task best times and needs at least ten of them
# beyond it, so every workload has at least MIN_TASKS distinct tasks.
MIN_TASKS = 100
# Each per-task best time is taken over at least this many passes.
MIN_PASSES = 3
# Setups per untraced run: one before the timed loop, the rest spread
# evenly over it.
SETUPS = 9
REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """A fixed list of tasks: every kind on every generated pair.

    A kind is an algorithm with its parameter: the resolution for
    ``sparse``, the band width in cells for ``band``, None otherwise.
    Pairs are generated for each ``rho`` in turn, ``pairs_per_rho``
    times, at series length ``length``.
    """

    name: str
    length: int
    rhos: tuple[float, ...]
    pairs_per_rho: int
    kinds: tuple[tuple[str, float | int | None], ...]


WORKLOADS = {
    w.name: w
    for w in (
        # Many short open runs: per-run Python overhead in the sparse
        # forward pass dominates.  No dense work is timed.
        Workload("sparse-fine", 120, (0.0, 0.5), 25, (("sparse", 0.1), ("sparse", 0.25))),
        # Correlated pairs: sparse at 70-100% of cells open in long
        # vectorized runs, against the dense oracle on the same pairs
        # (the paper's comparison), and the dense recurrences: band at
        # w = L/50 and L/10, and the divide-and-conquer with its
        # recomputation.
        Workload(
            "coarse-dense",
            250,
            (0.95, 0.99),
            9,
            (
                ("sparse", 0.5),
                ("sparse", 1.0),
                ("full", None),
                ("band", 5),
                ("band", 25),
                ("dc", None),
            ),
        ),
    )
}


@dataclass(frozen=True)
class Task:
    pair: int
    kind: str
    param: float | int | None

    @property
    def kind_label(self) -> str:
        return self.kind if self.param is None else f"{self.kind}@{self.param:g}"

    @property
    def label(self) -> str:
        return f"{self.kind_label}/p{self.pair}"

    @property
    def exact(self) -> bool:
        """Whether the algorithm promises the optimal cost here."""
        return self.kind == "full" or (self.kind == "sparse" and self.param == 1.0)


def align(task: Task, s: TimeSeries, q: TimeSeries):
    """The library call a task stands for."""
    if task.kind == "full":
        return dtw_full(s, q)
    if task.kind == "band":
        return dtw_band(s, q, BandSpec(task.param))
    if task.kind == "dc":
        return dc_align(s, q)
    return sparse_dtw(s, q, res=task.param)


@dataclass
class Setup:
    pairs: list[tuple[TimeSeries, TimeSeries]]
    oracles: list[float]
    tasks: list[Task]


def pair_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def set_up(w: Workload, seed: int) -> Setup:
    """Generate the pairs, compute the oracle costs, warm up each kind."""
    specs = [
        SyntheticSpec(w.length, rho, pair_seed(seed, k * len(w.rhos) + r))
        for k in range(w.pairs_per_rho)
        for r, rho in enumerate(w.rhos)
    ]
    pairs = [generate_pair(spec) for spec in specs]
    oracles = [dtw_full(s, q).raw_cost for s, q in pairs]
    tasks = [Task(p, kind, param) for p in range(len(pairs)) for kind, param in w.kinds]
    # Warm-up pass: one call of each kind, so first-call costs (imports,
    # numpy dispatch, allocator growth) stay out of the timed loop.
    for kind, param in w.kinds:
        align(Task(0, kind, param), *pairs[0])
    return Setup(pairs, oracles, tasks)


def timed_set_up(w: Workload, seed: int) -> tuple[Setup, float]:
    """One setup and its wall time in seconds."""
    t0 = time.perf_counter()
    setup = set_up(w, seed)
    return setup, time.perf_counter() - t0


def path_cost(path, s: TimeSeries, q: TimeSeries) -> float:
    idx = np.asarray(path.steps) - 1
    d = s.values[idx[:, 0]] - q.values[idx[:, 1]]
    return math.fsum(d * d)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


@dataclass
class Checker:
    """Output checks for every task execution; feeds ``failed``.

    The first outcome of each task becomes its reference unless one is
    given: every later execution (later passes, the memory pass, the
    traced run) must return the same cost and path.  A
    traced run is given the untraced library results as references, so
    the same check proves the staged pipelines equal the library calls.
    """

    setup: Setup
    reference: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    validate: Callable = validate_path

    def __call__(self, task: Task, out) -> None:
        self.attempted += 1
        err = self._problem(task, out)
        if err is not None:
            self.failures.append(f"{task.label}: {err}")
        elif task not in self.reference:
            self.reference[task] = out

    def _problem(self, task: Task, out) -> str | None:
        if isinstance(out, Exception):
            return f"raised {type(out).__name__}: {out}"
        s, q = self.setup.pairs[task.pair]
        verdict = self.validate(out.path, len(s), len(q))
        if not verdict:
            return f"invalid path ({verdict.violation})"
        raw = out.raw_cost
        if not math.isfinite(raw):
            return f"non-finite cost {raw}"
        if not _close(raw, path_cost(out.path, s, q)):
            return "cost differs from the sum of local costs along the path"
        oracle = self.setup.oracles[task.pair]
        if raw < oracle and not _close(raw, oracle):
            return f"cost {raw!r} below the oracle {oracle!r}"
        if task.exact and not _close(raw, oracle):
            return f"cost {raw!r} misses the oracle {oracle!r}"
        ref = self.reference.get(task)
        if ref is not None and (raw != ref.raw_cost or out.path.steps != ref.path.steps):
            return "cost or path differs from the reference result"
        return None


def run_loop(
    tasks: list[Task],
    setup: Setup,
    seconds: float,
    runner: Callable,
    on_result: Callable,
    min_passes: int,
    between: Callable[[float], None] | None = None,
) -> list[list[int]]:
    """Run whole passes over ``tasks``, at least one and at least
    ``min_passes``, until ``seconds`` of wall time have passed since the
    loop began.  Returns each pass's task times in ns, in task order.

    Whole passes keep the task mix identical from run to run.
    ``on_result`` runs outside the task's timer, and ``between`` (given
    the seconds elapsed) after each pass.
    """
    passes: list[list[int]] = []
    gc.collect()
    start = time.perf_counter()
    while len(passes) < max(min_passes, 1) or time.perf_counter() - start < seconds:
        times = []
        for task in tasks:
            s, q = setup.pairs[task.pair]
            t0 = time.perf_counter_ns()
            try:
                out = runner(task, s, q)
            except Exception as exc:  # a raising task is a failed task
                out = exc
            dt = time.perf_counter_ns() - t0
            times.append(dt)
            on_result(task, out)
        passes.append(times)
        if between is not None:
            between(time.perf_counter() - start)
    return passes


def best_times(passes: list[list[int]]) -> list[int]:
    """Each task's best (minimum) time over the passes, in ns."""
    return [min(samples) for samples in zip(*passes)]


def tasks_per_s(passes: list[list[int]]) -> float:
    """Tasks per second of busy time, at each task's best time."""
    best = best_times(passes)
    return len(best) / (sum(best) / 1e9)


def memory_pass(
    kind_tasks: dict[str, list[Task]], setup: Setup, checker: Checker
) -> dict[str, tuple[int, Task]]:
    """tracemalloc peak of each kind, untimed.

    tracemalloc slows these allocation-bound loops 30-50x, so each kind
    runs once, on the pair where it computed the most cells (peak
    memory grows with computed cells; for full and band it depends only
    on n and m).  tracemalloc sees only the Python and numpy heaps.
    The rerun's output goes through ``checker`` like any execution.
    Returns kind label -> (peak bytes, task).
    """
    results = checker.reference
    peaks = {}
    for label, tasks in kind_tasks.items():
        task = max(tasks, key=lambda t: results[t].computed_cells)
        gc.collect()
        tracemalloc.start()
        try:
            out = align(task, *setup.pairs[task.pair])
        except Exception as exc:  # counted by the checker below
            out = exc
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        checker(task, out)
        peaks[label] = (peak, task)
    return peaks


def by_kind(tasks: list[Task]) -> dict[str, list[Task]]:
    out: dict[str, list[Task]] = {}
    for t in tasks:
        out.setdefault(t.kind_label, []).append(t)
    return out


def quality(tasks: list[Task], setup: Setup, results: dict) -> tuple[float, float]:
    """Mean optimality gap in percent, and the share of optimal tasks."""
    gaps = []
    optimal = 0
    for t in tasks:
        raw = results[t].raw_cost
        oracle = setup.oracles[t.pair]
        gaps.append(100.0 * (raw - oracle) / oracle if oracle else 0.0)
        optimal += _close(raw, oracle)
    return statistics.fmean(gaps), optimal / len(tasks)


@dataclass
class Report:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    summary: list[str]
    spans_document: dict | None = None


def check_lines(checkers: list[Checker]) -> tuple[int, int, list[str]]:
    attempted = sum(c.attempted for c in checkers)
    failures = [f for c in checkers for f in c.failures]
    lines = [
        f"output checks: {'PASS' if not failures else 'FAIL'}: "
        f"{len(failures)} of {attempted} task runs failed "
        f"(error_rate {len(failures) / attempted:.4g} ratio)"
    ]
    lines += [f"  {f}" for f in failures[:10]]
    return attempted, len(failures), lines


def run_untraced(w: Workload, seed: int, seconds: float) -> Report:
    setup, first = timed_set_up(w, seed)
    setup_times = [first]

    def set_up_again(elapsed: float) -> None:
        # Setups spread over the run, so their median does not hang on
        # one spell of host load.
        if len(setup_times) < SETUPS and elapsed >= len(setup_times) * seconds / SETUPS:
            setup_times.append(timed_set_up(w, seed)[1])

    checker = Checker(setup)
    passes = run_loop(setup.tasks, setup, seconds, align, checker, MIN_PASSES, set_up_again)
    setup_s = statistics.median(setup_times)
    results = checker.reference
    complete = len(results) == len(setup.tasks)
    peaks = memory_pass(by_kind(setup.tasks), setup, checker) if complete else {}
    attempted, failed, lines = check_lines([checker])

    best = best_times(passes)
    metrics = {
        "tasks_per_s": (tasks_per_s(passes), "1/s"),
        "task_ms_p50": (statistics.median(best) / 1e6, "ms"),
        "task_ms_p90": (statistics.quantiles(best, n=10)[8] / 1e6, "ms"),
        "peak_mem_mb": (max((p for p, _ in peaks.values()), default=0) / 1e6, "MB"),
        "setup_s": (setup_s, "s"),
    }
    busy = sum(map(sum, passes)) / 1e9
    summary = [
        f"workload {w.name} seed {seed}: {len(setup.pairs)} pairs of length {w.length}, "
        f"{len(setup.tasks)} tasks per pass, {len(passes)} passes ({busy:.2f} s busy), "
        f"{len(setup_times)} setups; "
        f"percentiles over {len(best)} per-task best times",
    ]
    summary += [f"  {name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    summary += [
        f"  peak of {label}: {peak / 1e6:.3f} MB on {task.label} (tracemalloc)"
        for label, (peak, task) in peaks.items()
    ]
    if complete:
        gap, frac = quality(setup.tasks, setup, results)
        summary.append(f"  opt_gap_pct {gap:.6g} %")
        summary.append(f"  optimal_frac {frac:.6g} ratio")
    summary += lines
    return Report(failed == 0 and complete, attempted, failed, metrics, summary)
