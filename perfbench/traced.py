"""The traced run: per-layer metrics, structural counts and the tracer self-check.

Task-phase figures are reported per task (a circuit on ``ghz``/``bv``, an
oracle case on ``verify``); shot-phase figures per shot.  Structural counts
come from task 0 plus one shot batch on fresh managers, run twice: the two
runs must agree exactly, and each must pass `Tracer.self_check`.  The
untraced baseline for the overhead ratio runs the same tasks on its own
managers, alternating with the traced ones so that machine noise falls on
both alike.
"""

from __future__ import annotations

import json
from pathlib import Path

from perfbench.tracer import Tracer
from perfbench.workloads import Checks, Inputs, Workload, interleave, make_inputs, new_run

PER_LAYER = {
    "trace.task_s": "s",
    "trace.overhead_ratio": "ratio",
    "bench.gate_matrix.calls": "count",
    "bench.gate_matrix.self_s": "s",
    "bench.gate_matrix.s": "s",
    "bench.measure_distribution.s": "s",
    "bench.final_total": "count",
    "bench.max_intermediate": "count",
    "builders.self_s": "s",
    "ops.apply.calls": "count",
    "ops.apply.hit_ratio": "ratio",
    "ops.apply.self_s": "s",
    "ops.kronecker.calls": "count",
    "ops.kronecker.hit_ratio": "ratio",
    "ops.kronecker.self_s": "s",
    "ops.pair_product.calls": "count",
    "ops.pair_product.hit_ratio": "ratio",
    "ops.pair_product.self_s": "s",
    "ops.reduce_stack.calls": "count",
    "ops.reduce_stack.self_s": "s",
    "ops.reduce_stack.in_states": "count",
    "ops.reduce_stack.kept_ratio": "ratio",
    "linalg.matmul.calls": "count",
    "linalg.matmul.hit_ratio": "ratio",
    "linalg.matmul.self_s": "s",
    "linalg.matmul.s": "s",
    "linalg.product_width.max": "count",
    "linalg.product_states": "count",
    "core.intern_layer.calls": "count",
    "core.intern_layer.new_ratio": "ratio",
    "core.intern_layer.self_s": "s",
    "core.size_metrics.self_s": "s",
    "core.cache_entries": "count",
    "values.constructed": "count",
    "values.add": "count",
    "values.mul": "count",
    "values.scale_int": "count",
    "values.self_s": "s",
    "analysis.sample.calls": "count",
    "analysis.sample.self_s": "s",
    "analysis.path_counts.self_s": "s",
    "oracle.case.s": "s",
    "oracle.dense.self_s": "s",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def cache_entries(managers) -> int:
    """Entries in every dict a Manager holds (interning table and caches)."""
    return sum(
        len(value)
        for mgr in managers
        for name, value in vars(mgr).items()
        if isinstance(value, dict) and name != "stats"
    )


def structural_unit(workload: Workload, inputs: Inputs, checks: Checks) -> dict:
    """Task 0 and one shot batch, traced on fresh managers, then self-checked.

    Returns the counts that the workload and seed fix; two calls must agree.
    """
    run = new_run(workload, inputs)
    tracer = Tracer()
    with tracer:
        run.task(0)
        run.prepare_shots()
        run.shots(0)
    problems = tracer.self_check(run.managers)
    checks.expect(not problems, f"tracer self-check: {problems}")
    interned = tracer.spans["core.intern_layer"]
    counts = dict(run.structure())
    counts["linalg.product_width.max"] = tracer.product_width_max
    counts["core.intern_layer.new_ratio"] = _ratio(interned.calls - interned.hits, interned.calls)
    counts["core.cache_entries"] = cache_entries(run.managers)
    # last, so that the counts cover the workload's own calls alone
    run.check_task(checks)
    run.check_shots(checks)
    return counts


def layer_metrics(tasks: Tracer, tasks_done: int, shots: Tracer, shots_done: int) -> dict:
    """Task-phase figures per task, shot-phase figures per shot."""
    spans = tasks.spans

    def per_task(value: float) -> float:
        return value / tasks_done

    def group_self(prefix: str, exclude: str = "") -> float:
        return sum(s.self_s for name, s in spans.items() if name.startswith(prefix) and name != exclude)

    metrics: dict[str, float] = {}
    for fn in ("apply", "kronecker", "pair_product"):
        s = spans[f"ops.{fn}"]
        metrics[f"ops.{fn}.calls"] = per_task(s.calls)
        metrics[f"ops.{fn}.hit_ratio"] = _ratio(s.hits, s.calls)
        metrics[f"ops.{fn}.self_s"] = per_task(s.self_s)
    gate, reduce_, matmul = spans["bench.gate_matrix"], spans["ops.reduce_stack"], spans["linalg.matmul"]
    interned = spans["core.intern_layer"]
    metrics.update({
        "bench.gate_matrix.calls": per_task(gate.calls),
        "bench.gate_matrix.self_s": per_task(gate.self_s),
        "bench.gate_matrix.s": per_task(gate.total_s),
        "builders.self_s": per_task(group_self("builders.")),
        "ops.reduce_stack.calls": per_task(reduce_.calls),
        "ops.reduce_stack.self_s": per_task(reduce_.self_s),
        "ops.reduce_stack.in_states": per_task(tasks.reduce_in_states),
        "ops.reduce_stack.kept_ratio": _ratio(tasks.reduce_out_states, tasks.reduce_in_states),
        "linalg.matmul.calls": per_task(matmul.calls),
        "linalg.matmul.hit_ratio": _ratio(matmul.hits, matmul.calls),
        "linalg.matmul.self_s": per_task(matmul.self_s),
        "linalg.matmul.s": per_task(matmul.total_s),
        "linalg.product_states": per_task(tasks.product_states),
        "core.intern_layer.calls": per_task(interned.calls),
        "core.intern_layer.self_s": per_task(interned.self_s),
        "core.size_metrics.self_s": per_task(spans["core.size_metrics"].self_s),
        "values.self_s": per_task(tasks.value_seconds),
        "oracle.case.s": per_task(spans["oracle.run_equivalence_suite"].total_s),
        "oracle.dense.self_s": per_task(group_self("oracle.", exclude="oracle.run_equivalence_suite")),
    })
    for name, count in tasks.counts.items():
        metrics[name] = per_task(count)
    sample = shots.spans["analysis.sample"]
    metrics.update({
        "bench.measure_distribution.s": shots.spans["bench.measure_distribution"].total_s / shots_done,
        "analysis.sample.calls": sample.calls / shots_done,
        "analysis.sample.self_s": sample.self_s / shots_done,
        "analysis.path_counts.self_s": shots.spans["analysis.path_counts"].self_s / shots_done,
    })
    return metrics


def trace(workload: Workload, seed: int, seconds: float, checks: Checks, trace_file: Path) -> dict:
    """Per-layer metrics of a traced run, plus the overhead against untraced runs."""
    inputs = make_inputs(workload, seed)
    first = structural_unit(workload, inputs, checks)
    second = structural_unit(workload, inputs, checks)
    checks.expect(first == second, f"structural counts differ between runs: {first} != {second}")

    baseline, run = new_run(workload, inputs), new_run(workload, inputs)
    run.prepare_shots()
    task_tracer, shot_tracer = Tracer(), Tracer()
    base_times: list[float] = []

    def task(i: int) -> float:
        base_times.append(baseline.task(i))
        baseline.check_task(checks)
        with task_tracer:
            return run.task(i)

    def shots(j: int) -> float:
        with shot_tracer:
            elapsed = run.shots(j)
        run.check_shots(checks)
        return elapsed

    traced_times, shot_times = interleave(seconds, task, shots, lambda: run.check_task(checks))
    run.check_end(checks)

    tasks_done = len(traced_times)
    metrics = layer_metrics(task_tracer, tasks_done, shot_tracer, len(shot_times) * workload.shots_per_batch)
    metrics.update(first)
    metrics["trace.task_s"] = sum(traced_times) / tasks_done
    metrics["trace.overhead_ratio"] = sum(traced_times) / sum(base_times)
    write_spans(task_tracer, trace_file)
    return {"metrics": metrics, "tasks": tasks_done, "shot_batches": len(shot_times)}


def write_spans(tracer: Tracer, path: Path) -> None:
    """One JSON object per recorded span: id, parent, name, start, end."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for ident, parent, name, start, end in tracer.records:
            out.write(json.dumps({"id": ident, "parent": parent, "name": name,
                                  "start": start, "end": end}) + "\n")
