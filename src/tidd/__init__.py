"""Leveled, hash-consed decision diagrams over perfect binary assignment trees.

A diagram is a minimal deterministic bottom-up tree automaton: one interned
state layer per level, a total transition table from child-state pairs to
parent states in first-occurrence canonical order, and a duplicate-free value
tuple at the top.  Canonicity makes semantic equality a handle comparison.
"""

from .analysis import path_counts, sample, top_path_counts
from .builders import (
    anti_diagonal,
    constant,
    equality_relation,
    from_truth_table,
    hadamard_family,
    negation,
    no_distinction_proto,
    projection,
)
from .core import (
    Manager,
    SizeReport,
    Tidd,
    ValidationReport,
    dump,
    equal,
    evaluate,
    size_metrics,
    state_counts,
    total_states,
    validate,
)
from .linalg import (
    MatrixTidd,
    VectorTidd,
    identity_matrix,
    matmul,
    matvec,
    vector_from_basis_state,
)
from .ops import (
    apply,
    canonical_tidd,
    kronecker,
    pair_product,
    reduce_stack,
    reduce_tidd,
    scalar_multiply,
)
from .values import (
    AND,
    FALSE,
    FIRST,
    MINUS,
    ONE,
    OR,
    PLUS,
    TIMES,
    TRUE,
    Value,
    XOR,
    ZERO,
    as_value,
)

__all__ = [
    "AND", "FALSE", "FIRST", "MINUS", "Manager", "MatrixTidd", "ONE", "OR",
    "PLUS", "SizeReport", "TIMES", "TRUE", "Tidd", "ValidationReport",
    "Value", "VectorTidd", "XOR", "ZERO", "anti_diagonal", "apply",
    "as_value", "canonical_tidd", "constant", "dump", "equal",
    "equality_relation", "evaluate", "from_truth_table", "hadamard_family",
    "identity_matrix", "kronecker", "matmul", "matvec", "negation",
    "no_distinction_proto", "pair_product", "path_counts", "projection",
    "reduce_stack", "reduce_tidd", "sample", "scalar_multiply",
    "size_metrics", "state_counts", "top_path_counts", "total_states",
    "validate", "vector_from_basis_state",
]
