"""Benchmark entry point: one workload, one seed, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sparse-fine --seed 1 --seconds 55 --trace 0

The library is imported from the checkout's ``src/`` directory, never
from an installed copy.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def use_checkout_source() -> None:
    """Put the checkout's ``src/`` first on the import path.

    Exits with status 2 when the checkout holds no library source, so a
    directory that carries only the benchmark never reports a result.
    """
    if not (SOURCE / "tswarp" / "__init__.py").is_file():
        sys.exit(f"error: no library source at {SOURCE / 'tswarp'}")
    sys.path.insert(0, str(SOURCE))


def main(argv: list[str] | None = None) -> int:
    use_checkout_source()
    import harness  # needs the library on the import path

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds < 0:
        ap.error("--seconds must be >= 0")

    workload = harness.WORKLOADS[args.workload]
    if args.trace:
        import tracing

        report = tracing.run_traced(workload, args.seed, args.seconds)
        spans_file = ROOT / "perfbench" / "out" / f"spans-{workload.name}-seed{args.seed}.json"
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        spans_file.write_text(json.dumps(report.spans_document, indent=1))
        print(f"spans written to {spans_file.relative_to(ROOT)}")
    else:
        report = harness.run_untraced(workload, args.seed, args.seconds)

    for line in report.summary:
        print(line)
    print(
        json.dumps(
            {
                "correct": report.correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
