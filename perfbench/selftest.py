"""Self-tests of the benchmark.  From the root of the checkout:

    python3 -m pytest -q perfbench/selftest.py

The determinism tests run each workload's kinds and rhos on a reduced
copy (shorter series, fewer pairs) so they finish in seconds; the code
path is the one the full-size runs take.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import pytest

import run

run.use_checkout_source()

import harness  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
# Not used while the benchmark was tuned.
HELD_OUT_SEED = 7919

# Metrics that depend only on the seed, never on timing.
DETERMINISTIC = (
    "opt_gap_pct",
    "optimal_frac",
    "sparse.open_frac",
    "sparse.bin_opened",
    "sparse.unblocked",
    "sparse.runs",
    "sparse.cells_per_run",
    "band.cells",
    "divide.recompute_factor",
    "divide.space_peak_cells",
    "divide.splits",
)


def reduced(name: str) -> harness.Workload:
    return dataclasses.replace(harness.WORKLOADS[name], length=120, pairs_per_rho=2)


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_p90_has_ten_tasks_beyond_it(name):
    w = harness.WORKLOADS[name]
    assert w.pairs_per_rho * len(w.rhos) * len(w.kinds) >= harness.MIN_TASKS


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_deterministic_metrics_repeat(name):
    first = tracing.run_traced(reduced(name), HELD_OUT_SEED, 0)
    second = tracing.run_traced(reduced(name), HELD_OUT_SEED, 0)
    assert first.correct and second.correct
    assert first.failed == 0
    for metric in DETERMINISTIC:
        assert first.metrics[metric] == second.metrics[metric], metric
    assert set(first.metrics) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    report = harness.run_untraced(reduced(name), HELD_OUT_SEED, 0)
    assert report.correct and report.failed == 0
    tasks = len(harness.set_up(reduced(name), HELD_OUT_SEED).tasks)
    assert report.attempted >= harness.MIN_PASSES * tasks
    assert set(report.metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in report.metrics.values())


def test_failed_check_is_counted():
    setup = harness.set_up(reduced("coarse-dense"), HELD_OUT_SEED)
    checker = harness.Checker(setup)
    task = setup.tasks[0]
    good = harness.align(task, *setup.pairs[task.pair])
    checker(task, good)
    wrong = dataclasses.replace(good, raw_cost=good.raw_cost * 2)
    checker(task, wrong)
    checker(task, RuntimeError("boom"))
    assert checker.attempted == 3
    assert len(checker.failures) == 2


def test_refuses_to_run_without_library_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "coarse-dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
