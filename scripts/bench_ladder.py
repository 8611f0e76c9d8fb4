"""Write BENCH_ladder.json: `tidd bench --format json` over the qubit ladder.

Run from anywhere, with no argument:

    python scripts/bench_ladder.py

Each row is the JSON line that ``tidd bench --algo ALGO --qubits N --seed 0
--format json`` prints, run from this checkout's ``src`` in a fresh process:
GHZ 64, 128, ..., 2048, then BV and DJ 8, 16, ..., 128.  Each rung runs
``RUNS_PER_RUNG`` times, in rounds: round r runs every rung once before
round r + 1 starts, so a burst of load on a shared host slows one run of a
rung, not all of them.  A rung keeps the row of its fastest run: load only
adds time, so the minimum is the steadiest figure (the advice of the
``timeit`` documentation).  A run still going after ``TIME_LIMIT_SECONDS``
is killed and kept as a timeout row ``{"algo", "qubits", "seed",
"timeout_seconds"}``, and the rung runs no more rounds.  After the rows are
written, the tier-1 suite runs once and its pass count and wall time are
added.  ``parent_commit`` is the checked-out commit: the file cannot name
the commit that adds it.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "BENCH_ladder.json"
SEED = 0
TIME_LIMIT_SECONDS = 300
RUNS_PER_RUNG = 3
RUNGS = (
    [("ghz", 64 << k) for k in range(6)]
    + [("bv", 8 << k) for k in range(5)]
    + [("dj", 8 << k) for k in range(5)]
)
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def bench_run(algo: str, qubits: int) -> dict:
    """The row of one fresh-process run, or its timeout row."""
    command = [sys.executable, "-m", "tidd.cli", "bench", "--algo", algo,
               "--qubits", str(qubits), "--seed", str(SEED), "--format", "json"]
    try:
        done = subprocess.run(command, env=ENV, capture_output=True, text=True,
                              check=True, timeout=TIME_LIMIT_SECONDS)
    except subprocess.TimeoutExpired:
        return {"algo": algo, "qubits": qubits, "seed": SEED,
                "timeout_seconds": TIME_LIMIT_SECONDS}
    return json.loads(done.stdout)


def tier1() -> dict:
    """Pass and fail counts of the ROADMAP tier-1 command, and its wall time."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"],
        cwd=ROOT, env=ENV, capture_output=True, text=True,
    )
    wall = time.perf_counter() - start
    summary = done.stdout.strip().splitlines()[-1]
    count = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|error)", summary)}
    return {"tier1_passed": count.get("passed", 0),
            "tier1_failed": count.get("failed", 0) + count.get("error", 0),
            "tier1_wall_seconds": round(wall, 1)}


def write(meta: dict, rows: list[dict]) -> None:
    """One metadata field per line, then one row per line, as ``tidd`` prints it."""
    fields = [f"  {json.dumps(key)}: {json.dumps(value)}," for key, value in meta.items()]
    body = ",\n".join(f"    {json.dumps(row)}" for row in rows)
    OUT.write_text("{\n" + "\n".join(fields) + '\n  "rows": [\n' + body + "\n  ]\n}\n")


def main() -> None:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    meta = {
        "command": "python scripts/bench_ladder.py",
        "parent_commit": commit or None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "time_limit_seconds": TIME_LIMIT_SECONDS,
        "runs_per_rung": RUNS_PER_RUNG,
    }
    best: dict[tuple[str, int], dict] = {}  # rung -> its fastest row so far
    for _ in range(RUNS_PER_RUNG):
        for rung in RUNGS:
            row = best.get(rung)
            if row is not None and "timeout_seconds" in row:
                continue  # the first timeout ends the rung
            run = bench_run(*rung)
            print(json.dumps(run), file=sys.stderr)
            if row is None or "timeout_seconds" in run or run["wall_seconds"] < row["wall_seconds"]:
                best[rung] = run
    rows = [best[rung] for rung in RUNGS]
    write(meta, rows)  # tier-1 rereads the rows it can rerun quickly
    meta.update(tier1())
    write(meta, rows)


if __name__ == "__main__":
    main()
