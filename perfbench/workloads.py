"""The benchmark's workloads: seeded inputs, timed loops and correctness checks.

Every workload alternates two timed phases over inputs made from its seed:

* tasks: ``ghz`` and ``bv`` simulate one circuit per task through
  ``bench.run_benchmark`` on a fresh ``Manager`` (what each ``tidd bench``
  invocation pays); ``verify`` runs one seeded random-expression case per
  task through ``oracle.run_equivalence_suite`` on one long-lived
  ``Manager``, whose caches grow across cases.
* shots: ``ghz`` and ``bv`` measure the last final state through
  ``bench.measure_distribution``; ``verify`` draws assignments with
  ``analysis.sample`` from a fixed 16-variable family function, the 4 x 4
  anti-diagonal test, as ``tidd sample`` does for a family.

The timers wrap the library's public calls whole.  Correctness checks run
between timed calls, through code paths the timers do not cover.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from random import Random
from time import perf_counter

from perfbench import reference
from tidd import analysis, bench, builders, core, linalg, ops, oracle
from tidd.core import Manager
from tidd.values import ONE, SQRT2_HALF, TIMES

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # qubits for ghz and bv, oracle variables for verify
    shots_per_batch: int


WORKLOADS = {
    "ghz": Workload("ghz", 512, 50),
    "bv": Workload("bv", 16, 100),
    "verify": Workload("verify", 16, 200),
}

SHOT_SHARE = 0.2  # of the timed work; tasks get the rest
REF_SHARE = 0.12  # reference computation seconds per second of timed work
ANTI_DIAGONAL_SIDE = 4  # verify shots: the 4 x 4 anti-diagonal test, 16 variables
MAX_TASKS = 256  # seeded task inputs; a run that needs more cycles through them
# A verify case costs about in proportion to its expression size, which the
# suite draws from 2 to 6 terms, and within one size to the number of ring
# operators (PLUS, TIMES) in it: 4-term cases with 1, 2 and 3 of them took
# 1.2, 1.5 and 1.75 times as long as those with none.  So every case drawn
# has 4 terms, and each 4 consecutive cases have 0, 1, 2 and 3 ring operators.
VERIFY_TERMS = 4
VERIFY_CASES = 64  # seeded cases; a 30 s run does about 40, and finding one takes 0.5 ms
SETUP_REPEATS = 21
# A GHZ batch split between |0..0> and |1..1> may stray this many standard
# deviations from half before the check fails (false alarm odds about 1e-9).
BINOMIAL_SIGMAS = 6.0

END_TO_END = {
    "setup_s": "s",
    "task_refs": "ref",  # seconds per task over seconds per reference computation
    "shots_per_ref": "1/ref",  # shots per second times seconds per reference computation
    "peak_rss_mib": "MiB",
}
RAW = {"task_s": "s", "shots_per_s": "1/s", "ref_s": "s"}  # behind the two ratios


# ---------------------------------------------------------------------------
# inputs


@dataclass(frozen=True)
class Inputs:
    task_seeds: tuple[int, ...]  # bv secret seeds, verify case seeds; unused by ghz
    shot_seeds: tuple[int, ...]

    def task_seed(self, i: int) -> int:
        return self.task_seeds[i % len(self.task_seeds)]

    def shot_seed(self, j: int) -> int:
        return self.shot_seeds[j % len(self.shot_seeds)]


_OPS_ON_BOOLEANS = ("and", "or", "xor", "plus", "times")  # in the oracle's order
_OPS_ON_RING = ("plus", "times")


def case_shape(case_seed: int, num_vars: int) -> tuple[int, int]:
    """Leaf terms and ring operators of the expression that
    ``oracle.random_equivalence_case`` builds from ``Random(case_seed)`` over
    ``num_vars`` variables, found by making the same draws it makes."""
    rng = Random(case_seed)
    booleans = []  # whether each pending term is boolean-valued
    for _ in range(rng.randint(2, 6)):
        roll = rng.random()
        if roll < 0.7:
            rng.randrange(num_vars)
        elif roll < 0.85:
            rng.random()
        else:
            rng.randint(-3, 3)
        booleans.append(roll < 0.85)
    terms, ring_ops = len(booleans), 0
    while len(booleans) > 1:
        j = rng.randrange(len(booleans) - 1)
        b1, b2 = booleans.pop(j), booleans.pop(j)
        op = rng.choice(_OPS_ON_BOOLEANS if b1 and b2 else _OPS_ON_RING)
        ring_ops += op in _OPS_ON_RING
        booleans.insert(j, op in ("and", "or", "xor") or (op == "times" and b1 and b2))
    return terms, ring_ops


def make_inputs(workload: Workload, seed: int) -> Inputs:
    rng = Random(f"{workload.name}:{seed}")

    def task_seed(i: int) -> int:
        while True:
            s = rng.getrandbits(32)
            if workload.name != "verify":
                return s
            if case_shape(s, workload.size) == (VERIFY_TERMS, i % VERIFY_TERMS):
                return s

    tasks = VERIFY_CASES if workload.name == "verify" else MAX_TASKS
    return Inputs(
        tuple(task_seed(i) for i in range(tasks)),
        tuple(rng.getrandbits(32) for _ in range(MAX_TASKS)),
    )


# ---------------------------------------------------------------------------
# correctness checks


class Checks:
    """Counts correctness checks attempted and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _row_assignment(row_bits) -> list[int]:
    """A vector diagram's assignment for one row; column bits are don't-care."""
    return [b for x in row_bits for b in (x, 0)]


def check_ghz_state(checks: Checks, state) -> None:
    n = state.qubits
    for bit in (0, 1):
        amplitude = core.evaluate(state.t.t, _row_assignment([bit] * n))
        checks.expect(amplitude == SQRT2_HALF, f"GHZ amplitude at |{bit}...{bit}> is {amplitude!r}")
    checks.expect(linalg.vector_norm_squared(state) == ONE, "GHZ squared norm is not 1")


def check_bv_state(checks: Checks, state, secret) -> None:
    amplitude = core.evaluate(state.t.t, _row_assignment(secret))
    checks.expect(amplitude == ONE, f"BV amplitude at the secret is {amplitude!r}")
    checks.expect(linalg.vector_norm_squared(state) == ONE, "BV squared norm is not 1")


def check_ghz_shots(checks: Checks, histogram: dict[str, int], n: int) -> None:
    zeros, ones = "0" * n, "1" * n
    checks.expect(set(histogram) <= {zeros, ones}, "GHZ shot outside {0^n, 1^n}")
    checks.expect(zeros in histogram and ones in histogram, "GHZ shots miss 0^n or 1^n")


def check_ghz_balance(checks: Checks, histogram: dict[str, int], n: int) -> None:
    shots = sum(histogram.values())
    deviation = abs(histogram.get("0" * n, 0) - shots / 2)
    checks.expect(
        deviation <= BINOMIAL_SIGMAS * math.sqrt(shots) / 2,
        f"GHZ |0^n> count strays {deviation} from {shots / 2}",
    )


def check_bv_shots(checks: Checks, histogram: dict[str, int], secret) -> None:
    expected = "".join(str(b) for b in secret)
    checks.expect(set(histogram) == {expected}, "BV shot differs from the secret")


def check_case(checks: Checks, passed: int, failed: int) -> None:
    checks.expect(passed == 1 and failed == 0, "oracle case failed")


def check_anti_diagonal_draws(checks: Checks, draws, n: int) -> None:
    """Every draw from the n x n anti-diagonal function has its anti-diagonal all 0."""
    ok = all(not any(x[i * n + n - 1 - i] for i in range(n)) for x in draws)
    checks.expect(ok, "drawn assignment has a 1 on the anti-diagonal")


# ---------------------------------------------------------------------------
# runs: one workload's tasks and shots


class CircuitRun:
    """GHZ or BV circuits, one fresh Manager per task."""

    def __init__(self, workload: Workload, inputs: Inputs) -> None:
        self.workload = workload
        self.inputs = inputs
        self.managers: list[Manager] = []
        self.histogram: dict[str, int] = {}
        self.balance: dict[str, int] = {}

    def task(self, i: int) -> float:
        mgr = Manager()
        self.managers = [mgr]
        seed = self.inputs.task_seed(i)
        start = perf_counter()
        state, metrics = bench.run_benchmark(mgr, self.workload.name, self.workload.size, seed)
        elapsed = perf_counter() - start
        self.state, self.metrics = state, metrics
        self.secret = bench.bv_secret(self.workload.size, seed)
        return elapsed

    def check_task(self, checks: Checks) -> None:
        if self.workload.name == "ghz":
            check_ghz_state(checks, self.state)
        else:
            check_bv_state(checks, self.state, self.secret)

    def prepare_shots(self) -> None:
        pass

    def shots(self, j: int) -> float:
        rng = Random(self.inputs.shot_seed(j))
        start = perf_counter()
        histogram = bench.measure_distribution(self.state, self.workload.shots_per_batch, rng)
        elapsed = perf_counter() - start
        self.histogram = histogram
        for outcome, count in histogram.items():
            self.balance[outcome] = self.balance.get(outcome, 0) + count
        return elapsed

    def check_shots(self, checks: Checks) -> None:
        if self.workload.name == "ghz":
            check_ghz_shots(checks, self.histogram, self.workload.size)
        else:
            check_bv_shots(checks, self.histogram, self.secret)

    def check_end(self, checks: Checks) -> None:
        if self.workload.name == "ghz" and self.balance:
            check_ghz_balance(checks, self.balance, self.workload.size)

    def structure(self) -> dict[str, int]:
        return {
            "bench.final_total": self.metrics.final_size.total,
            "bench.max_intermediate": self.metrics.max_intermediate_size,
        }


class VerifyRun:
    """Seeded oracle cases on one long-lived Manager; the shot target on a second."""

    def __init__(self, workload: Workload, inputs: Inputs) -> None:
        self.workload = workload
        self.inputs = inputs
        self.managers = [Manager(), Manager()]
        self.draws: list = []

    def task(self, i: int) -> float:
        start = perf_counter()
        self.result = oracle.run_equivalence_suite(
            self.managers[0], self.workload.size, 1, self.inputs.task_seed(i)
        )
        return perf_counter() - start

    def check_task(self, checks: Checks) -> None:
        check_case(checks, *self.result)

    def prepare_shots(self) -> None:
        """Build the shot target on the second Manager, outside the timers."""
        self.target = builders.anti_diagonal(self.managers[1], ANTI_DIAGONAL_SIDE)

    def shots(self, j: int) -> float:
        rng = Random(self.inputs.shot_seed(j))
        start = perf_counter()
        squared = ops.apply(TIMES, self.target, self.target)
        draws = [analysis.sample(squared, rng) for _ in range(self.workload.shots_per_batch)]
        elapsed = perf_counter() - start
        self.draws = draws
        return elapsed

    def check_shots(self, checks: Checks) -> None:
        check_anti_diagonal_draws(checks, self.draws, ANTI_DIAGONAL_SIDE)

    def check_end(self, checks: Checks) -> None:
        pass

    def structure(self) -> dict[str, int]:
        return {"bench.final_total": 0, "bench.max_intermediate": 0}


def new_run(workload: Workload, inputs: Inputs):
    return VerifyRun(workload, inputs) if workload.name == "verify" else CircuitRun(workload, inputs)


def interleave(seconds: float, task, shots, check) -> tuple[list[float], list[float]]:
    """Alternate tasks and shot batches until ``seconds`` have passed.

    ``task(i)`` and ``shots(j)`` return the seconds of their timed call.
    After each task, shot batches run until shots have had SHOT_SHARE of the
    timed work so far, so both phases meet the same machine conditions and
    the shots cover every task's result.  Then ``check()`` checks the task's
    result: run earlier, its norm computation would fill the caches the
    shots read.  Garbage left by earlier tasks is collected before each
    task, outside the timers.
    """
    task_times: list[float] = []
    shot_times: list[float] = []
    owed = 0.0
    start = perf_counter()
    while not task_times or perf_counter() - start < seconds:
        gc.collect()
        task_times.append(task(len(task_times)))
        owed += task_times[-1] * SHOT_SHARE / (1 - SHOT_SHARE)
        while owed > 0:
            shot_times.append(shots(len(shot_times)))
            owed -= shot_times[-1]
        check()
    return task_times, shot_times


# ---------------------------------------------------------------------------
# set-up time

_SETUP_PROBE = """
import sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1]]
from perfbench import workloads
workloads.make_inputs(workloads.WORKLOADS[sys.argv[2]], int(sys.argv[3]))
print("ready", flush=True)
"""


def setup_seconds(workload: Workload, seed: int) -> float:
    """Median over fresh interpreters of the time from process start to ready.

    Ready means ``tidd`` is imported and the inputs are generated, which is
    the point where the first timed call would begin.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", _SETUP_PROBE, str(ROOT), workload.name, str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        ) as probe:
            try:
                line = probe.stdout.readline()
                elapsed = perf_counter() - start
                probe.wait(timeout=60)
            finally:
                if probe.poll() is None:
                    probe.kill()
                    probe.wait()
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {probe.returncode}")
        samples.append(elapsed)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# the untraced measurement


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def measure(workload: Workload, seed: int, seconds: float, checks: Checks) -> dict:
    """End-to-end metrics with tracing off.

    ``task_refs`` and ``shots_per_ref`` put the library's timings in units of
    the reference computation's mean time: on a shared host whose speed
    swings by a third within minutes, raw seconds measure the host as much as
    the library.  The reference runs after every task and shot batch until it
    has had REF_SHARE of the timed work so far, so its samples spread over
    the run as the library's calls do.
    """
    setup_s = setup_seconds(workload, seed)
    run = new_run(workload, make_inputs(workload, seed))
    run.prepare_shots()
    ref_times: list[float] = []
    ref_owed = 0.0

    def sample_reference(elapsed: float) -> float:
        nonlocal ref_owed
        ref_owed += elapsed * REF_SHARE
        while ref_owed > 0:
            ref_times.append(reference.seconds())
            ref_owed -= ref_times[-1]
        return elapsed

    def shots(j: int) -> float:
        elapsed = run.shots(j)
        run.check_shots(checks)
        return sample_reference(elapsed)

    task_times, shot_times = interleave(
        seconds, lambda i: sample_reference(run.task(i)), shots, lambda: run.check_task(checks)
    )
    run.check_end(checks)
    task_s = statistics.fmean(task_times)
    shots_per_s = workload.shots_per_batch * len(shot_times) / sum(shot_times)
    ref_s = statistics.fmean(ref_times)
    return {
        "metrics": {
            "setup_s": setup_s,
            # Means, not medians: on a shared host, per-call times within one run
            # fall into fast and slow spells, and a median flips between them.
            "task_refs": task_s / ref_s,
            "shots_per_ref": shots_per_s * ref_s,
            "peak_rss_mib": peak_rss_mib(),
        },
        "raw": {"task_s": task_s, "shots_per_s": shots_per_s, "ref_s": ref_s},
        "tasks": len(task_times),
        "shot_batches": len(shot_times),
    }
