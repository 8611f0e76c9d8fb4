"""Matrices and vectors over interleaved variable orderings.

A square matrix over n qubits is a diagram over 2n variables in interleaved
order <x0, y0, ..., x_{n-1}, y_{n-1}> with x the row bits and y the column
bits (x0 is the most significant row bit).  Vectors are column-replicated
matrices, v stored as v * ones^T: the matrix-vector product then reduces to
the matrix-matrix product verbatim, at a cost in don't-care column variables
that is only logarithmic in state count.

Matrix multiplication runs bottom-up over the two operand stacks.  A product
state at each level is a formal sum of weighted triples (q, p, w): operand
states q and p reached on the row/inner and inner/column halves of a block,
with w counting the inner-index bit patterns that realize the pair.  A cell
has one triple per inner bit at level 1, and above one (ta[qa][qb],
tb[pa][pb], wa * wb) per pair of triples of its (left, right) child sums.
A sum is canonical when its (q, p) pairs strictly increase.  A cell of at
most one live triple (below) is so as built; two with distinct pairs are
ordered by one comparison.  Only at level 1, on a repeated pair, or with
three triples or more are they sorted and the weights of equal pairs added.

An operand state is dead when every context of it reaches a top value of 0:
a top state whose value is 0, or a state below whose table row and column
hold only dead states.  A canonical diagram has at most one per level (two
would share rows and columns); below none or two, none are sought.  A dead
state's triple adds 0 to every entry, so leaving out any is exact; an empty
sum is a state of value 0, and on BV and GHZ a sum holds at most two triples.
The product stack is memoized on (a layer, b layer, dead a-states, dead
b-states); the dead states below follow from these, so the key is complete.
At the top each sum resolves to sum(V(q) * V(p) * w) and the standard
reduction finishes.  Weights are arbitrary-precision: inner dimensions
reach 2**n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce

from .analysis import top_path_counts
from .builders import equality_relation, from_truth_table
from .core import MATMUL, MATMUL_STACK, SPAN, Layer, Manager, Tidd, evaluate
from .errors import (
    IndexOutOfRange, ManagerMismatch, ShapeMismatch, require_at_least, require_dense,
    require_power_of_two,
)
from .ops import apply, canonical_tidd, kronecker
from .values import PLUS, TIMES, Value, ZERO, as_value

TripleSum = tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class MatrixTidd:
    """A 2**n x 2**n matrix as a diagram over 2n interleaved variables."""

    t: Tidd

    def __post_init__(self) -> None:
        if self.t.level == 0:
            raise ShapeMismatch("a one-variable diagram is not a matrix")

    @property
    def qubits(self) -> int:
        return 1 << (self.t.level - 1)


@dataclass(frozen=True)
class VectorTidd:
    """A length-2**n vector stored column-replicated (all columns equal)."""

    t: MatrixTidd

    @property
    def qubits(self) -> int:
        return self.t.qubits


def identity_matrix(mgr: Manager, qubits: int) -> MatrixTidd:
    """The identity: the equality relation over interleaved variables."""
    level = require_power_of_two(qubits, 1, "qubit count") + 1  # log2(2 * qubits)
    return MatrixTidd(equality_relation(mgr, level))


def qubit_sum(mgr: Manager, qubits: int, terms, blank: tuple) -> MatrixTidd:
    """The sum over the nonempty sequence ``terms`` of one tensor product each.

    A term maps qubits to row-major 2x2 entry tuples; each other qubit of the
    ``qubits`` takes the 2x2 ``blank``.  A product is a balanced tensor fold
    of spans.  With one table per level shared by every block position, a
    span's diagram depends on its size, its factors' offsets within it and
    the blank, not on where it sits: ``span_cache`` holds it under exactly
    that key, so a fold over few factors costs O(log n) cache reads.
    """
    require_power_of_two(qubits, 1, "qubit count")
    blank = tuple(map(as_value, blank))
    products = []
    for t in terms:
        if any(isinstance(q, bool) or not isinstance(q, int) or not 0 <= q < qubits
               for q in t):
            raise IndexOutOfRange(f"term qubits {list(t)} are not all in 0..{qubits - 1}")
        factors = tuple(sorted((q, tuple(map(as_value, e))) for q, e in t.items()))
        products.append(mgr.memo(SPAN, _build_span, qubits, factors, blank))
    require_at_least(len(products), 1, "term count")
    return MatrixTidd(reduce(partial(apply, PLUS), products))


def _build_span(mgr: Manager, size: int, factors: tuple, blank: tuple) -> Tidd:
    """The tensor product of ``factors`` (sorted (offset, entries) pairs) over
    ``size`` qubits, the blank elsewhere; its halves are read from ``span_cache``."""
    if size == 1:
        return from_truth_table(mgr, 1, factors[0][1] if factors else blank)
    half = size // 2
    left = tuple(f for f in factors if f[0] < half)
    right = tuple((q - half, e) for q, e in factors[len(left):])
    halves = (mgr.memo(SPAN, _build_span, half, part, blank) for part in (left, right))
    return kronecker(*halves)


def vector_from_basis_state(mgr: Manager, qubits: int, bits) -> VectorTidd:
    """The computational basis state |bits>, column-replicated.

    Column replication makes it the tensor product of one 2x2 factor per
    qubit, |b><+| with <+| = (1, 1) unnormalized: |1><+| on the set bits,
    |0><+| elsewhere.
    """
    bits = tuple(bits)
    if len(bits) != qubits or any(b not in (0, 1) for b in bits):
        raise ShapeMismatch(f"{bits!r} is not {qubits} bits")
    ket1 = {i: (0, 0, 1, 1) for i, b in enumerate(bits) if b}  # |1><+|, row-major
    return VectorTidd(qubit_sum(mgr, qubits, [ket1], (1, 1, 0, 0)))  # blank |0><+|


# ---------------------------------------------------------------------------
# weighted-triple matrix multiplication

def merge_triples(triples) -> TripleSum:
    """Canonicalize a collection of (q, p, w): sort, then add equal pairs' weights."""
    merged: list[tuple[int, int, int]] = []
    for q, p, w in sorted(triples):
        if merged and merged[-1][0] == q and merged[-1][1] == p:
            w += merged.pop()[2]
        merged.append((q, p, w))
    return tuple(merged)


def _dead_top(f: Tidd) -> tuple[int, ...]:
    """The top states of ``f`` whose value is 0 (at most one: values are distinct)."""
    return tuple(q for q, v in enumerate(f.values) if v.is_zero())


def _dead_below(layer: Layer, dead: tuple[int, ...]) -> tuple[int, ...]:
    """The dead states of ``layer``'s child if ``layer`` has exactly one, else none."""
    if len(dead) != 1:
        return ()
    table, dead_row = layer.table, dead * len(layer.table)
    return tuple(s for s, row in enumerate(table)
                 if row == dead_row and all(r[s] == dead[0] for r in table))


def _product_stack(
    mgr: Manager, a: Layer, b: Layer, dead_a: tuple[int, ...], dead_b: tuple[int, ...]
) -> tuple[Layer, tuple[TripleSum, ...]]:
    """Product stack for two operand stacks, memoized on layers and dead states.

    ``dead_a`` and ``dead_b`` are the dead states of ``a`` and ``b``.  Returns
    the product layer at their level and each state's formal sum; cells stream,
    canonical as built, into ``Manager.intern_cells``.  ``matmul`` reads the top
    pair under MATMUL, and each stack reads its child pair under MATMUL_STACK.
    """
    ta, tb = a.table, b.table
    if a.level == 1:
        # the level-0 states bits 0 and 1 reach; a DontCare's one state serves both
        sa, sb = (0, a.child.num_states - 1), (0, b.child.num_states - 1)
        child = mgr.fork()
        cells = map(merge_triples, (  # ``for q, p in [...]`` binds a triple's states
            [(q, p, 1) for k in range(2) for q, p in [(ta[sa[i]][sa[k]], tb[sb[k]][sb[j]])]
             if q not in dead_a and p not in dead_b]
            for i in range(2) for j in range(2)
        ))
    else:
        dead = (_dead_below(a, dead_a), _dead_below(b, dead_b))
        child, child_sums = mgr.memo(MATMUL_STACK, _product_stack, a.child, b.child, *dead)
        cells = _cells(ta, tb, dead_a, dead_b, child_sums)
    layer, keys = mgr.intern_cells(child, cells)
    return layer, tuple(mgr.triple_sums.setdefault(s, s) for s in keys)


def _cells(ta, tb, dead_a, dead_b, child_sums):
    """The canonical cells of a product layer above level 1, row-major."""
    for rows in ([(ta[qa], tb[pa], wa) for qa, pa, wa in left] for left in child_sums):
        for right in child_sums:
            cell = []
            for ra, rb, wa in rows:
                for qb, pb, wb in right:
                    q, p = ra[qb], rb[pb]
                    if q not in dead_a and p not in dead_b:
                        cell.append((q, p, wa * wb))
            if len(cell) == 2 and cell[0][:2] != cell[1][:2]:
                yield (cell[0], cell[1]) if cell[0] < cell[1] else (cell[1], cell[0])
            else:
                yield tuple(cell) if len(cell) < 2 else merge_triples(cell)


def matmul(a: MatrixTidd, b: MatrixTidd) -> MatrixTidd:
    """Exact matrix product, memoized on the operand layers and their zero states."""
    if a.qubits != b.qubits:
        raise ShapeMismatch(f"qubit counts {a.qubits} and {b.qubits}")
    if a.t.manager is not b.t.manager:
        raise ManagerMismatch("operands belong to two Managers")
    dead = (_dead_top(a.t), _dead_top(b.t))
    top, sums = a.t.manager.memo(MATMUL, _product_stack, a.t.top, b.t.top, *dead)
    raw_values = [
        sum(((a.t.values[q] * b.t.values[p]).scale_int(w) for q, p, w in s), ZERO)
        for s in sums
    ]
    return MatrixTidd(canonical_tidd(top, raw_values))


def matvec(a: MatrixTidd, v: VectorTidd) -> VectorTidd:
    """Matrix-vector product through column replication: A (v 1^T) = (A v) 1^T."""
    return VectorTidd(matmul(a, v.t))


def vector_norm_squared(v: VectorTidd) -> Value:
    """Exact sum of squared amplitudes, via path counts of the squared diagram."""
    squared = apply(TIMES, v.t.t, v.t.t)
    counts = top_path_counts(squared)
    total = sum((value.scale_int(count) for value, count in zip(squared.values, counts)), ZERO)
    # every row value is replicated across 2**n columns
    return total.div_pow2(v.qubits)


def _entry(m: MatrixTidd, r: int, c: int) -> Value:
    """Entry (r, c) of ``m``: bits x_i of r and y_i of c interleave, x0 first."""
    n = m.qubits
    return evaluate(m.t, [(e >> (n - 1 - i)) & 1 for i in range(n) for e in (r, c)])


def vector_amplitudes(v: VectorTidd) -> list[Value]:
    """Dense amplitude list (row r = column-0 entry), for small instances."""
    require_dense(v.qubits, "an amplitude list")  # 2**n rows
    return [_entry(v.t, r, 0) for r in range(1 << v.qubits)]


def is_column_replicated(m: MatrixTidd) -> bool:
    """Exhaustively check the vector invariant entry(r, c) == entry(r, c')."""
    require_dense(2 * m.qubits, "the replication check")
    indices = range(1 << m.qubits)
    return all(len({_entry(m, r, c) for c in indices}) == 1 for r in indices)
