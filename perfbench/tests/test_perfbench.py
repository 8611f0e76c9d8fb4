"""Tests of the benchmark itself, at tiny sizes (GHZ-8, BV-8, 4-variable verify)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, traced, workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import Checks, Workload  # noqa: E402
from tidd import bench, oracle  # noqa: E402
from tidd.core import Manager  # noqa: E402
from tidd.linalg import vector_from_basis_state  # noqa: E402

TINY = {
    "ghz": Workload("ghz", 8, 20),
    "bv": Workload("bv", 8, 20),
    "verify": Workload("verify", 4, 20),
}
SECONDS = "0.3"


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    return tmp_path


def _run(capsys, workload: str, trace: int) -> tuple[list[str], dict]:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", SECONDS, "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(tiny, capsys, workload, trace, kind):
    text, result = _run(capsys, workload, trace)
    declared = _declared(kind)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in text), name
    assert any(line.startswith("failed_ratio 0 ratio") for line in text)
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_state_is_counted_as_failed(tiny, capsys, monkeypatch):
    def basis_state(mgr, algo, qubits, seed=0):
        state = vector_from_basis_state(mgr, qubits, (0,) * qubits)
        return state, bench.run_circuit(mgr, [], state)[1]

    monkeypatch.setattr(bench, "run_benchmark", basis_state)
    text, result = _run(capsys, "ghz", 0)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    ratio = next(line for line in text if line.startswith("failed_ratio ")).split()[1]
    assert float(ratio) == pytest.approx(result["failed"] / result["attempted"], rel=1e-5)


def test_task_is_checked_after_its_shots():
    events = []

    def step(name):
        def call(i):
            events.append(name)
            return 1.0
        return call

    workloads.interleave(0, step("task"), step("shots"), lambda: events.append("check"))
    assert events == ["task", "shots", "check"]


def test_checks_reject_wrong_outcomes():
    mgr = Manager()
    checks = Checks()
    workloads.check_bv_state(checks, vector_from_basis_state(mgr, 8, (1,) + (0,) * 7), (0,) * 8)
    workloads.check_ghz_shots(checks, {"0" * 8: 5, "01" * 4: 1}, 8)
    workloads.check_ghz_balance(checks, {"0" * 8: 100, "1" * 8: 0}, 8)
    workloads.check_bv_shots(checks, {"1" + "0" * 7: 3}, (0,) * 8)
    workloads.check_case(checks, 0, 1)
    workloads.check_anti_diagonal_draws(checks, [(0, 0, 0, 1) + (0,) * 12], 4)
    assert checks.failed == 7 and checks.attempted == 8  # the BV norm is still 1


def test_trace_spans_form_a_tree(tiny, capsys):
    _run(capsys, "bv", 1)
    spans = [json.loads(line) for line in (tiny / "trace-bv-3.jsonl").read_text().splitlines()]
    assert spans
    by_id = {s["id"]: s for s in spans}
    assert len(by_id) == len(spans)
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
    assert {s["name"] for s in spans} >= {"bench.run_benchmark", "bench.gate_matrix", "linalg.matmul"}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_structural_counts_repeat_and_self_check_passes(workload):
    inputs = workloads.make_inputs(TINY[workload], 5)
    checks = Checks()
    first = traced.structural_unit(TINY[workload], inputs, checks)
    second = traced.structural_unit(TINY[workload], inputs, checks)
    assert checks.failures == []
    assert first == second


class _MissesBench(Tracer):
    """A tracer that forgets the names ``tidd.bench`` imported from other modules."""

    def _patch_bindings(self, modules, original, wrapper):
        super()._patch_bindings([m for m in modules if m is not bench], original, wrapper)


@pytest.mark.parametrize("tracer_class, agrees", [(Tracer, True), (_MissesBench, False)])
def test_self_check_catches_a_missed_binding(tracer_class, agrees):
    mgr = Manager()
    tracer = tracer_class()
    with tracer:
        state, _ = bench.run_benchmark(mgr, "ghz", 8)
        bench.measure_distribution(state, 5, Random(0))
    assert (tracer.self_check([mgr]) == []) is agrees


def test_case_shape_counts_the_leaves_and_ring_operators(monkeypatch):
    ops = []
    dense_apply = oracle.dense_apply

    def recording(op, a, b):
        ops.append(op.name)
        return dense_apply(op, a, b)

    monkeypatch.setattr(oracle, "dense_apply", recording)
    for seed in range(40):
        ops.clear()
        tracer = Tracer()
        with tracer:
            oracle.random_equivalence_case(Manager(), Random(seed), 2)
        leaves = tracer.spans["builders.projection"].calls + tracer.spans["builders.constant"].calls
        ring_ops = sum(op in ("plus", "times") for op in ops)
        assert workloads.case_shape(seed, 4) == (leaves, ring_ops)


def test_verify_cases_cycle_through_ring_operator_counts():
    workload = TINY["verify"]
    inputs = workloads.make_inputs(workload, 1)
    shapes = [workloads.case_shape(s, workload.size) for s in inputs.task_seeds[:8]]
    assert shapes == [(4, i % 4) for i in range(8)]


def test_bv_and_dj_share_a_gate_list_at_seed_0():
    assert bench.dj_circuit(32, "balanced", 0) == bench.bv_circuit(32, bench.bv_secret(32, 0))


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ghz", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
