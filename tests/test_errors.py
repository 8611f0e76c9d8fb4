"""The argument checks: each bad size or count raises its typed error and
leaves every operation cache holding one entry per counted miss."""

import os
import resource
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import tidd
from tidd import (
    PLUS,
    Manager,
    Value,
    apply,
    equal,
    errors,
    kronecker,
    pair_product,
    sample,
)
from tidd.bench import _I, _X, GateSpec, measure_distribution, run_benchmark
from tidd.builders import (
    constant,
    equality_relation,
    exact_string_proto,
    from_truth_table,
    hadamard_family,
    projection,
)
from tidd.errors import (
    ArityMismatch,
    CanonicalOrderViolation,
    GateSpecError,
    IndexOutOfRange,
    LevelMismatch,
    ManagerMismatch,
    NegativeWeight,
    NotPowerOfTwo,
    OracleScaleLimit,
    ShapeMismatch,
    ValueDomainError,
    ZeroDistribution,
    require_at_least,
    require_dense,
    require_power_of_two,
)
from tidd.linalg import MatrixTidd, matmul, qubit_sum, vector_from_basis_state
from tidd.ops import canonical_tidd, reduce_stack
from tidd.oracle import (
    DenseFunction,
    dense_constant,
    dense_function,
    dense_kron,
    dense_matmul,
    dense_projection,
    dense_to_matrix,
    exhaustive_equiv,
    matrix_to_dense,
    run_equivalence_suite,
)
from tidd.values import ZERO, BinaryOp


def _shots(mgr, shots):
    state = vector_from_basis_state(mgr, 2, (0, 0))
    return measure_distribution(state, shots, Random(0))


def _apply_half(mgr):
    half = BinaryOp("half", lambda u, v: Value(0.5, 0, 0))
    return apply(half, constant(mgr, 1, 1), constant(mgr, 1, 1))


def _hadamard_top(mgr):
    return hadamard_family(mgr, 1).top  # two top states


def _two_managers(mgr):
    """The same one-qubit Hadamard diagram, built in ``mgr`` and in a new Manager."""
    return hadamard_family(mgr, 1), hadamard_family(Manager(), 1)


def _two_levels(mgr):
    """Constant 1 diagrams of levels 1 and 2."""
    return constant(mgr, 1, 1), constant(mgr, 2, 1)


def _in_child(call: str):
    """Run ``call`` from ``tidd.oracle`` in a child process whose address space
    is capped at 1 GiB, so that a table allocated past the dense cap fails the
    child rather than the machine; raise the ``tidd.errors`` class it raised."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    code = (f"from tidd.oracle import *\ntry:\n    {call}\n"
            "except Exception as exc:\n    print(type(exc).__name__)")
    env = {**os.environ, "PYTHONPATH": str(Path(tidd.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, preexec_fn=limit_memory)
    name = done.stdout.strip()
    raise getattr(errors, name, AssertionError)(f"{call} raised {name or done.stderr}")


BAD_ARGUMENTS = [
    ("constant level -1", lambda m: constant(m, -1, 1), IndexOutOfRange),
    ("exact strings level -1", lambda m: exact_string_proto(m, -1), IndexOutOfRange),
    ("projection level -1", lambda m: projection(m, -1, 0), IndexOutOfRange),
    ("projection index 1.5", lambda m: projection(m, 2, 1.5), IndexOutOfRange),
    ("projection index True", lambda m: projection(m, 2, True), IndexOutOfRange),
    ("truth table level -1", lambda m: from_truth_table(m, -1, [1]), IndexOutOfRange),
    ("hadamard level 0", lambda m: hadamard_family(m, 0), IndexOutOfRange),
    ("equality level 0", lambda m: equality_relation(m, 0), IndexOutOfRange),
    ("zero shots", lambda m: _shots(m, 0), IndexOutOfRange),
    ("truth table of text", lambda m: from_truth_table(m, 1, "abcd"), ValueDomainError),
    ("constant 1.5", lambda m: constant(m, 2, 1.5), ValueDomainError),
    ("constant Value(1.5, 0, 0)", lambda m: constant(m, 2, Value(1.5, 0, 0)), ValueDomainError),
    ("constant Value(True, 0, 0)", lambda m: constant(m, 0, Value(True, 0, 0)), ValueDomainError),
    ("truth table of Value(1, 0, 0.5)",
     lambda m: from_truth_table(m, 1, [Value(1, 0, 0.5)] * 4), ValueDomainError),
    ("apply returning Value(0.5, 0, 0)", _apply_half, ValueDomainError),
    ("dense constant Value(1.5, 0, 0)",
     lambda m: dense_constant(1, Value(1.5, 0, 0)), ValueDomainError),
    ("dense table of Value(1, 0.5, 0)",
     lambda m: dense_function(1, [Value(1, 0.5, 0)] * 4), ValueDomainError),
    ("6-variable suite", lambda m: run_equivalence_suite(m, 6, 1, 0), NotPowerOfTwo),
    ("equivalence suite of 0 cases",
     lambda m: run_equivalence_suite(m, 4, 0, 0), IndexOutOfRange),
    ("dense table level -1", lambda m: DenseFunction(-1, (), b""), IndexOutOfRange),
    ("dense constant level -1", lambda m: dense_constant(-1, 1), IndexOutOfRange),
    ("dense projection level -1", lambda m: dense_projection(-1, 0), IndexOutOfRange),
    ("dense projection index -1", lambda m: dense_projection(2, -1), IndexOutOfRange),
    ("dense projection index 7", lambda m: dense_projection(2, 7), IndexOutOfRange),
    ("dense projection index True", lambda m: dense_projection(2, True), IndexOutOfRange),
    ("dense table of 3 entries", lambda m: DenseFunction(1, (ZERO,), bytes(3)), ShapeMismatch),
    ("dense matrix level 0", lambda m: dense_to_matrix(dense_constant(0, 1)), ShapeMismatch),
    ("matrix to dense level 0", lambda m: matrix_to_dense([[1]], 0), ShapeMismatch),
    ("matrix to dense of a 1 x 1 grid at level 2",
     lambda m: matrix_to_dense([[1]], 2), ShapeMismatch),
    ("matrix to dense of a ragged grid",
     lambda m: matrix_to_dense([[1, 2], [3]], 1), ShapeMismatch),
    ("matrix to dense of a 3 x 3 grid at level 1",
     lambda m: matrix_to_dense([[1, 2, 3]] * 3, 1), ShapeMismatch),
    ("matrix to dense level 5", lambda m: _in_child("matrix_to_dense([[1]], 5)"), OracleScaleLimit),
    ("matrix to dense level 6", lambda m: _in_child("matrix_to_dense([[1]], 6)"), OracleScaleLimit),
    ("dense matmul across levels",
     lambda m: dense_matmul(dense_constant(1, 1), dense_constant(2, 1)), ShapeMismatch),
    ("dense kron across levels",
     lambda m: dense_kron(dense_constant(1, 1), dense_constant(2, 1)), ShapeMismatch),
    ("equivalence across levels",
     lambda m: exhaustive_equiv(constant(m, 1, 1), dense_constant(2, 1)), ShapeMismatch),
    ("benchmark qft", lambda m: run_benchmark(m, "qft", 8), GateSpecError),
    ("gate on 3 qubits", lambda m: GateSpec("h", (0,), 3), NotPowerOfTwo),
    ("qubit sum qubit 7 of 4", lambda m: qubit_sum(m, 4, [{7: _X}], _I), IndexOutOfRange),
    ("qubit sum qubit 4 of 4", lambda m: qubit_sum(m, 4, [{0: _X}, {4: _X}], _I), IndexOutOfRange),
    ("qubit sum qubit -1", lambda m: qubit_sum(m, 4, [{-1: _X}], _I), IndexOutOfRange),
    ("qubit sum qubit 1.0", lambda m: qubit_sum(m, 4, [{1.0: _X}], _I), IndexOutOfRange),
    ("qubit sum of no terms", lambda m: qubit_sum(m, 4, [], _I), IndexOutOfRange),
    ("qubit sum qubit True", lambda m: qubit_sum(m, 4, [{True: _X}], _I), IndexOutOfRange),
    ("1 value for 2 top states", lambda m: canonical_tidd(_hadamard_top(m), [1]), ArityMismatch),
    ("3 values for 2 top states",
     lambda m: canonical_tidd(_hadamard_top(m), [1, 2, 3]), ArityMismatch),
    ("1 class for 2 top states", lambda m: reduce_stack(_hadamard_top(m), (0,)), ArityMismatch),
    ("top classes (1, 0)",
     lambda m: reduce_stack(_hadamard_top(m), (1, 0)), CanonicalOrderViolation),
    ("top classes (0, 2)",
     lambda m: reduce_stack(_hadamard_top(m), (0, 2)), CanonicalOrderViolation),
    ("apply across Managers", lambda m: apply(PLUS, *_two_managers(m)), ManagerMismatch),
    ("kronecker across Managers", lambda m: kronecker(*_two_managers(m)), ManagerMismatch),
    ("pair product across Managers",
     lambda m: pair_product(*(f.top for f in _two_managers(m))), ManagerMismatch),
    ("matmul across Managers",
     lambda m: matmul(*(MatrixTidd(f) for f in _two_managers(m))), ManagerMismatch),
    ("equal across Managers", lambda m: equal(*_two_managers(m)), ManagerMismatch),
    ("apply across levels", lambda m: apply(PLUS, *_two_levels(m)), LevelMismatch),
    ("kronecker across levels", lambda m: kronecker(*_two_levels(m)), LevelMismatch),
    ("pair product across levels",
     lambda m: pair_product(*(f.top for f in _two_levels(m))), LevelMismatch),
    ("sample of negative values",
     lambda m: sample(hadamard_family(m, 2), Random(0)), NegativeWeight),
    ("sample of the zero function",
     lambda m: sample(constant(m, 2, 0), Random(0)), ZeroDistribution),
]


@pytest.mark.parametrize(
    "call, error",
    [case[1:] for case in BAD_ARGUMENTS],
    ids=[case[0] for case in BAD_ARGUMENTS],
)
def test_bad_argument_raises_its_typed_error(mgr, call, error):
    with pytest.raises(error):
        call(mgr)
    # a cached body that raises stores and counts nothing
    for name, entry in mgr.snapshot().items():
        misses = [value for key, value in entry.items() if key.endswith("_misses")]
        if misses:
            assert entry["size"] == sum(misses), name


def test_each_minimum_is_accepted(mgr):
    assert constant(mgr, 0, 1).level == 0
    assert exact_string_proto(mgr, 0).num_states == 2
    assert projection(mgr, 0, 0).level == 0
    assert hadamard_family(mgr, 1).level == 1
    assert equality_relation(mgr, 1).level == 1
    assert sum(_shots(mgr, 1).values()) == 1
    assert run_equivalence_suite(mgr, 1, 3, 0) == (3, 0)
    assert dense_constant(0, 1).level == 0
    assert dense_projection(0, 0).outputs == dense_projection(1, 1).outputs[:2]
    assert GateSpec("h", (0,), 1).qubits == 1


def test_power_of_two_returns_its_log():
    assert [require_power_of_two(n, 1, "n") for n in (1, 2, 4, 1024)] == [0, 1, 2, 10]
    assert require_power_of_two(2, 2, "n") == 1
    for n, minimum in ((1, 2), (0, 1), (-4, 1), (6, 1), (4.0, 1), (None, 1)):
        with pytest.raises(NotPowerOfTwo, match="power of two"):
            require_power_of_two(n, minimum, "n")


def test_at_least_accepts_integers_only():
    require_at_least(0, 0, "level")
    require_at_least(True, 1, "shots")  # booleans are integers, as for bits
    for n in (-1, 0.0, "0", None):
        with pytest.raises(IndexOutOfRange):
            require_at_least(n, 0, "level")


def test_dense_cap_is_shared():
    require_dense(errors.MAX_DENSE_VARS, "table")
    with pytest.raises(OracleScaleLimit, match="exceeds"):
        require_dense(errors.MAX_DENSE_VARS + 1, "table")
