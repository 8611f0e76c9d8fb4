"""Run one workload of the tidd benchmark and print its metrics.

    python3 perfbench/run.py --workload ghz --seed 0 --seconds 30 --trace 0

The metrics go to standard output, one ``name value unit`` line each, and
the last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` reports the per-layer metrics of a traced
run and writes its spans to ``perfbench/out/``.  The library is imported
from ``src/`` of the checkout this file sits in, never from elsewhere.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACE_DIR = ROOT / "perfbench" / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ghz", "bv", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "tidd" / "__init__.py").is_file():
        print(f"error: no tidd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import traced, workloads
    import tidd

    if Path(tidd.__file__).resolve().parents[1] != ROOT / "src":
        print(f"error: imported tidd from {tidd.__file__}, not from the checkout", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    checks = workloads.Checks()
    if args.trace:
        trace_file = TRACE_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
        result = traced.trace(workload, args.seed, args.seconds, checks, trace_file)
        units = traced.PER_LAYER
    else:
        result = workloads.measure(workload, args.seed, args.seconds, checks)
        units = workloads.END_TO_END

    metrics = result["metrics"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['tasks']} tasks, {result['shot_batches']} shot batches "
          f"of {workload.shots_per_batch}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    for name, value in result.get("raw", {}).items():
        print(f"{name} {value:.6g} {workloads.RAW[name]} (raw, not in the result)")
    print(f"failed_ratio {checks.failed_ratio:.6g} ratio ({checks.failed}/{checks.attempted} checks)")
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
