"""The mutation catalogue: each entry is a defect that some named test must catch.

Run from anywhere, for every entry or for the named ones:

    python scripts/mutants.py
    python scripts/mutants.py "reduce: no top-class check" ...

An entry of ``MUTANTS`` is (name, file under ``src/``, exact old text, new
text, pytest node ids).  The named tests first run once, together, against an
unedited copy of ``src/``, and must pass.  Then, for each entry, the script
copies ``src/`` to a temporary directory, replaces the old text there (it
must occur exactly once, so a refactor that moves it must update the entry),
and runs the entry's tests against the copy in one child process at a time,
under ``resource.setrlimit`` limits on memory and CPU time.  The mutant is
killed when a test fails or the child hits a limit.  The script exits 1 if
an old text is missing, the unedited run fails, or any mutant survives.
"""

from __future__ import annotations

import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MEMORY_BYTES = 1 << 30
CPU_SECONDS = 60

REFERENCE = "tests/test_ops.py::test_reduce_stack_matches_reference_on_circuit_product_stacks"
LEARNED = (
    "tests/test_ops.py::test_circuit_reductions_match_the_reference_and_brute_force_separation"
)
ALTERNATING = "tests/test_ops.py::test_reduce_stack_alternating_class_maps_match_the_reference"
ERRORS = "tests/test_errors.py::test_bad_argument_raises_its_typed_error"
CLEAR = "tests/test_core.py::test_clear_caches_empties_them_and_reruns_match"
PRODUCT_STACK = "tests/test_linalg.py::test_product_stack_matches_reference_on_random_matrices"
SAMPLER = "tests/test_analysis.py::test_sample_draws_what_the_reference_sampler_draws"
MEMO = "tests/test_core.py::test_memo_keys_on_the_body_arguments"

# Manager.memo's read, fill and count, whose key two entries below change
MEMO_READ = (
    "hit = cache.get(args)\n"
    "        miss = hit is None\n"
    "        if miss:\n"
    "            hit = cache[args] = compute(self, *args)\n"
    "        self.stats[counter[miss]] += 1"
)

MUTANTS = [
    (
        "reduce: child maps carry the level's own classes",
        "tidd/ops.py",
        "return mgr._intern(child, rows, max(classes) + 1), (*class_of, classes)",
        "return mgr._intern(child, rows, max(classes) + 1), (*class_of[:-1], classes, classes)",
        [REFERENCE, LEARNED],
    ),
    (
        "reduce: rebuilt table with reversed entries",
        "tidd/ops.py",
        "rows = tuple(tuple(map(mapped[q].__getitem__, members)) for q in members)",
        "rows = tuple(tuple(max(classes) - mapped[q][r] for r in members) for q in members)",
        [REFERENCE, ALTERNATING],
    ),
    (
        "reduce: no top-class check",
        "tidd/ops.py",
        "    if first_occurrence(classes)[0] != classes:\n"
        "        raise CanonicalOrderViolation(",
        "    if False:\n"
        "        raise CanonicalOrderViolation(",
        [f"{ERRORS}[top classes (1, 0)]", f"{ERRORS}[top classes (0, 2)]"],
    ),
    (
        "reduce: signatures from mapped rows only",
        "tidd/ops.py",
        "below, _ = first_occurrence(zip(mapped, zip(*mapped)))",
        "below, _ = first_occurrence(mapped)",
        [REFERENCE, ALTERNATING],
    ),
    (
        "clear_caches keeps reduce_cache",
        "tidd/core.py",
        "        for counter in COUNTERS:\n            getattr(self, counter[2]).clear()",
        "        for counter in COUNTERS:\n"
        "            if counter is not REDUCE:\n"
        "                getattr(self, counter[2]).clear()",
        [CLEAR],
    ),
    (
        "pair_product across Managers",
        "tidd/ops.py",
        "    if a.manager is not b.manager:\n        raise ManagerMismatch(",
        "    if False:\n        raise ManagerMismatch(",
        [f"{ERRORS}[apply across Managers]", f"{ERRORS}[kronecker across Managers]",
         f"{ERRORS}[pair product across Managers]"],
    ),
    (
        "pair_product without its level check",
        "tidd/ops.py",
        "    if a.level != b.level:\n        raise LevelMismatch(",
        "    if False:\n        raise LevelMismatch(",
        ["tests/test_ops.py::test_pair_product_level_mismatch",
         "tests/test_ops.py::test_apply_level_mismatch",
         "tests/test_ops.py::test_kronecker_level_mismatch"],
    ),
    (
        "matmul across Managers",
        "tidd/linalg.py",
        "    if a.t.manager is not b.t.manager:\n        raise ManagerMismatch(",
        "    if False:\n        raise ManagerMismatch(",
        [f"{ERRORS}[matmul across Managers]"],
    ),
    (
        "matmul without its qubit check",
        "tidd/linalg.py",
        "    if a.qubits != b.qubits:\n        raise ShapeMismatch(",
        "    if False:\n        raise ShapeMismatch(",
        ["tests/test_linalg.py::test_matvec_shape_mismatch",
         "tests/test_linalg.py::test_matmul_shape_mismatch"],
    ),
    (
        "MatrixTidd accepts a one-variable diagram",
        "tidd/linalg.py",
        "        if self.t.level == 0:\n            raise ShapeMismatch(",
        "        if False:\n            raise ShapeMismatch(",
        ["tests/test_linalg.py::test_matrix_shape_checks"],
    ),
    (
        "as_value stores an int subclass",
        "tidd/values.py",
        "return Value(int(x), 0, 0)",
        "return Value(x, 0, 0)",
        ["tests/test_values.py::test_as_value_stores_an_int_subclass_as_an_int"],
    ),
    (
        "equal across Managers",
        "tidd/core.py",
        "    if f.manager is not g.manager:\n        raise ManagerMismatch(",
        "    if False:\n        raise ManagerMismatch(",
        [f"{ERRORS}[equal across Managers]"],
    ),
    (
        "memo keyed on args[:-1]",
        "tidd/core.py",
        MEMO_READ,
        MEMO_READ.replace("get(args)", "get(args[:-1])").replace("[args]", "[args[:-1]]"),
        [MEMO],
    ),
    (
        "memo keyed on args[1:]",
        "tidd/core.py",
        MEMO_READ,
        MEMO_READ.replace("get(args)", "get(args[1:])").replace("[args]", "[args[1:]]"),
        [MEMO],
    ),
    (
        "memo counts a miss before its body runs",
        "tidd/core.py",
        MEMO_READ,
        "hit = cache.get(args)\n"
        "        miss = hit is None\n"
        "        self.stats[counter[miss]] += 1\n"
        "        if miss:\n"
        "            hit = cache[args] = compute(self, *args)",
        [f"{ERRORS}[apply across Managers]", f"{ERRORS}[sample of the zero function]"],
    ),
    (
        "canonical check accepts any permutation",
        "tidd/core.py",
        "        if key != j:\n",
        "        if key not in range(len(keys)):\n",
        ["tests/test_core.py::test_intern_rejects_noncanonical"],
    ),
    (
        "validate: 2(v) on rows only",
        "tidd/core.py",
        "numbers, signatures = first_occurrence(zip(table, zip(*table)))",
        "numbers, signatures = first_occurrence(table)",
        ["tests/test_core.py::test_validate_builders"],
    ),
    (
        "intern_cells: rows of side + 1",
        "tidd/core.py",
        "numbers[i:i + side] for i",
        "numbers[i:i + side + 1] for i",
        ["tests/test_core.py::test_intern_cells_numbers_cells_canonically"],
    ),
    (
        "kronecker: no zero-function fallback",
        "tidd/ops.py",
        "return canonical_tidd(top, values) if values == (ZERO,) else Tidd(top, values)",
        "return Tidd(top, values)",
        ["tests/test_ops.py::test_kronecker_reduces_only_under_the_zero_function"],
    ),
    (
        "kronecker: swapped top cell",
        "tidd/ops.py",
        "(products[q][p] for q, _ in meta for _, p in meta)",
        "(products[q][p] for _, p in meta for q, _ in meta)",
        ["tests/test_ops.py::test_kronecker_matches_dense"],
    ),
    (
        "matmul cells: no swap",
        "tidd/linalg.py",
        "yield (cell[0], cell[1]) if cell[0] < cell[1] else (cell[1], cell[0])",
        "yield (cell[0], cell[1])",
        [PRODUCT_STACK],
    ),
    (
        "matmul cells: no merge",
        "tidd/linalg.py",
        "yield tuple(cell) if len(cell) < 2 else merge_triples(cell)",
        "yield tuple(cell)",
        [PRODUCT_STACK,
         "tests/test_linalg.py::test_product_stack_matches_reference_on_sums_with_equal_pairs"],
    ),
    (
        "matmul cells: a merge keeps the first weight",
        "tidd/linalg.py",
        "w += merged.pop()[2]",
        "w = merged.pop()[2]",
        ["tests/test_linalg.py::test_merge_triples_order_independent"],
    ),
    (
        "matmul cells: no dead filter",
        "tidd/linalg.py",
        "if q not in dead_a and p not in dead_b:\n                        cell.append",
        "if True:\n                        cell.append",
        ["tests/test_linalg.py::test_circuit_sums_are_short_and_hold_no_dead_state[ghz]"],
    ),
    (
        "span key without the blank",
        "tidd/linalg.py",
        "mgr.memo(SPAN, _build_span, qubits, factors, blank)",
        "mgr.memo(SPAN, lambda m, q, f: _build_span(m, q, f, blank), qubits, factors)",
        ["tests/test_linalg.py::test_qubit_sum_equals_the_uncached_fold"],
    ),
    (
        "path counts: a sum for the product",
        "tidd/analysis.py",
        "counts[q] += below[a] * below[b]",
        "counts[q] += below[a] + below[b]",
        ["tests/test_analysis.py::test_counts_match_brute_force"],
    ),
    (
        "sample: bit length of total - 1",
        "tidd/analysis.py",
        "cums[-1], cums[-1].bit_length()",
        "cums[-1], (cums[-1] - 1).bit_length()",
        [SAMPLER],
    ),
    (
        "sample: children pushed left first",
        "tidd/analysis.py",
        "picks = [tuple(child + s for s in reversed(p)) for p in picks]",
        "picks = [tuple(child + s for s in p) for p in picks]",
        [SAMPLER],
    ),
    (
        "sample: plan keyed on the top layer",
        "tidd/analysis.py",
        "return f.manager.memo(DRAW_PLAN, _draw_plan, f)",
        "return f.manager.memo(DRAW_PLAN, lambda mgr, top: _draw_plan(mgr, f), f.top)",
        ["tests/test_analysis.py::test_diagrams_sharing_a_top_layer_draw_by_their_own_values"],
    ),
    (
        "oracle: carry-free bound 257",
        "tidd/oracle.py",
        "if count <= 256:",
        "if count <= 257:",
        ["tests/test_oracle.py::test_dense_apply_matches_elementwise_around_the_byte_bound"],
    ),
    (
        "oracle: no renumbering",
        "tidd/oracle.py",
        "return _tabulate(f.level, states, f.values.__getitem__, f.top.num_states)",
        "return DenseFunction(f.level, f.values, bytes(states))",
        ["tests/test_ops.py::test_reduce_raw_canonical_stacks_random"],
    ),
    (
        "oracle: equivalence on the index only",
        "tidd/oracle.py",
        "return dense_from_tidd(f) == d",
        "return dense_from_tidd(f).index == d.index",
        ["tests/test_oracle.py::test_exhaustive_equiv_reads_palette_and_index"],
    ),
    (
        "oracle: matrix spread without its level check",
        "tidd/oracle.py",
        "    if level < 1:\n        raise ShapeMismatch(",
        "    if False:\n        raise ShapeMismatch(",
        [f"{ERRORS}[dense matrix level 0]", f"{ERRORS}[matrix to dense level 0]"],
    ),
    (
        "intern_layer without its row-length check",
        "tidd/core.py",
        "            if len(row) != side:\n                raise ArityMismatch(",
        "            if False:\n                raise ArityMismatch(",
        ["tests/test_core.py::test_intern_rejects_a_ragged_table_of_side_squared_cells"],
    ),
    (
        "cli: hn builds the equality relation",
        "tidd/cli.py",
        '"hn": anti_diagonal',
        '"hn": equality_relation',
        ["tests/test_cli.py::test_family_hn", "tests/test_cli.py::test_sample_hn"],
    ),
    (
        "bench: metrics row with two columns swapped",
        "tidd/bench.py",
        '"final_nodes": f.nodes, "final_edges": f.edges,',
        '"final_nodes": f.edges, "final_edges": f.nodes,',
        ["tests/test_ladder.py::test_ladder_row_matches_a_rerun"],
    ),
]


def limit_child() -> None:
    """Cap the child's address space and CPU time; runs in the child before exec."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))


def run_tests(src: Path, tests: list[str]) -> int:
    """pytest's exit code for ``tests`` with ``tidd`` imported from ``src``."""
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "-o", f"pythonpath={src}", *tests]
    return subprocess.run(command, cwd=ROOT, preexec_fn=limit_child,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def copy_src(work: Path, name: str) -> Path:
    src = work / name
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    if len(chosen) != len(names or MUTANTS):
        print(f"unknown entries: {sorted(set(names) - {m[0] for m in MUTANTS})}")
        return 1
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        named = list(dict.fromkeys(t for m in chosen for t in m[4]))
        code = run_tests(copy_src(work, "unedited"), named)
        print(f"unedited: exit {code}", flush=True)
        if code != 0:
            return 1
        for i, (name, file, old, new, tests) in enumerate(chosen):
            src = copy_src(work, f"mutant{i}")
            target = src / file
            text = target.read_text()
            if text.count(old) != 1:
                print(f"MISSING  {name}: old text occurs {text.count(old)} times in {file}")
                failed = True
                continue
            target.write_text(text.replace(old, new))
            code = run_tests(src, tests)
            # 1: a test failed; below 0: killed by a signal, as at the CPU limit
            verdict = "killed" if code == 1 or code < 0 else "SURVIVED" if code == 0 else "ERROR"
            print(f"{verdict:8} {name} (exit {code})", flush=True)
            failed |= verdict != "killed"
            shutil.rmtree(src)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
