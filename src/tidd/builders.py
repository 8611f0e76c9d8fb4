"""Diagram builders: constants, projections, truth tables, analytic families.

The Hadamard and equality families are written with their known two-state
transition structure; the anti-diagonal family is deliberately built through
the generic apply pipeline (folding AND over negated single-bit projections)
so the family that exhibits the exponential state blowup also exercises the
binary-operation machinery.
"""

from __future__ import annotations

from .core import Layer, Manager, Tidd
from .errors import IndexOutOfRange, TruthTableLengthMismatch
from .errors import require_at_least, require_dense, require_power_of_two
from .ops import apply, canonical_tidd
from .values import AND, FALSE, ONE, TRUE, Value, XOR, ZERO, as_value


def no_distinction_proto(mgr: Manager, level: int) -> Layer:
    """Single-state proto stack: DontCare at level 0, 1x1 tables above."""
    require_at_least(level, 0, "level")
    layer = mgr.dontcare()
    for _ in range(level):
        layer = mgr.intern_layer(layer, ((0,),))
    return layer


def constant(mgr: Manager, level: int, v: Value | int | bool) -> Tidd:
    """The constant function with 2**level variables: one state per layer."""
    return Tidd(no_distinction_proto(mgr, level), (as_value(v),))


def projection(mgr: Manager, level: int, index: int) -> Tidd:
    """The single-variable function x_index over 2**level variables.

    Every layer has two states and state s tracks "the projected bit is s":
    at each level the table forwards the left child's state when the tracked
    variable lies in the left half of the block (bit of the index decides),
    otherwise the right child's.  Values are [false, true].
    """
    require_at_least(level, 0, "level")
    require_at_least(index, 0, "projection index")
    if index >= 1 << level:
        raise IndexOutOfRange(f"index {index} for {1 << level} variables")
    layer = mgr.fork()
    for j in range(1, level + 1):
        if index & (1 << (j - 1)):
            table = ((0, 1), (0, 1))  # tracked variable in the right half
        else:
            table = ((0, 0), (1, 1))  # tracked variable in the left half
        layer = mgr.intern_layer(layer, table)
    return Tidd(layer, (FALSE, TRUE))


def negation(f: Tidd) -> Tidd:
    """Boolean NOT via XOR with the constant true."""
    return apply(XOR, f, constant(f.manager, f.level, TRUE))


def exact_string_proto(mgr: Manager, level: int) -> Layer:
    """The stack whose level-j states are exactly the length-2**j strings.

    State indices read the string as a big-endian integer, which is already
    first-occurrence canonical.  Exponential by construction; feasible only
    within the truth-table scale guard.
    """
    require_at_least(level, 0, "level")
    layer = mgr.fork()
    for j in range(1, level + 1):
        half = 1 << (j - 1)
        side = 1 << half
        table = tuple(
            tuple((hi << half) | lo for lo in range(side)) for hi in range(side)
        )
        layer = mgr.intern_layer(layer, table)
    return layer


def from_truth_table(mgr: Manager, level: int, outputs) -> Tidd:
    """Canonical diagram for an explicitly tabulated function.

    ``outputs[i]`` is the value at the assignment whose bits spell i in
    big-endian order.  Built by reducing the exact-string stack, which merges
    identical sub-tables into first-occurrence classes.
    """
    require_at_least(level, 0, "level")
    require_dense(1 << level, "a truth table")
    values = [as_value(v) for v in outputs]
    if len(values) != 1 << (1 << level):
        raise TruthTableLengthMismatch(
            f"expected {1 << (1 << level)} outputs, got {len(values)}"
        )
    return canonical_tidd(exact_string_proto(mgr, level), values)


def hadamard_family(mgr: Manager, i: int) -> Tidd:
    """The 2**i x 2**i Hadamard matrix over interleaved row/column variables.

    Two states per level: the level-1 table splits on "both bits are 1" and
    every higher level xors the child parities.  Values are [1, -1].
    """
    require_at_least(i, 1, "Hadamard level")
    layer = mgr.intern_layer(mgr.fork(), ((0, 0), (0, 1)))
    for _ in range(2, i + 1):
        layer = mgr.intern_layer(layer, ((0, 1), (1, 0)))
    return Tidd(layer, (ONE, Value(-1, 0, 0)))


def equality_relation(mgr: Manager, l: int) -> Tidd:
    """EQ over 2**l interleaved variables: 1 iff x bits equal y bits.

    Two states per level: level 1 checks one bit pair for equality and every
    higher level ands the child verdicts (state 1 absorbs).  Values [1, 0].
    """
    require_at_least(l, 1, "equality level")
    layer = mgr.intern_layer(mgr.fork(), ((0, 1), (1, 0)))
    for _ in range(2, l + 1):
        layer = mgr.intern_layer(layer, ((0, 1), (1, 1)))
    return Tidd(layer, (ONE, ZERO))


def _anti_diagonal_prefixes(mgr: Manager, n: int) -> list[Tidd]:
    """The partial conjunctions of the anti-diagonal fold, one per factor.

    The matrix is read row-major over n*n variables; row i contributes the
    factor NOT x_{i*n + n-1-i}, and-ed onto the conjunction of rows 0..i-1.
    The widest table has 2**(2n) entries, so n is capped by MAX_DENSE_VARS.
    """
    level = 2 * require_power_of_two(n, 2, "matrix size")
    require_dense(2 * n, "the desk-scale anti-diagonal family's widest table")
    prefixes: list[Tidd] = []
    for i in range(n):
        factor = negation(projection(mgr, level, i * n + n - 1 - i))
        prefixes.append(apply(AND, prefixes[-1], factor) if prefixes else factor)
    return prefixes


def anti_diagonal(mgr: Manager, n: int) -> Tidd:
    """1 iff every anti-diagonal entry of an n x n bit matrix is 0.

    Built by apply-folding AND over one negated projection per row.
    """
    return _anti_diagonal_prefixes(mgr, n)[-1]


def anti_diagonal_fold_profile(mgr: Manager, n: int) -> list[int]:
    """State counts at level log2(n) after each folded factor (monotone doubling)."""
    row_level = n.bit_length() - 1
    return [f.top.stack()[row_level].num_states for f in _anti_diagonal_prefixes(mgr, n)]
