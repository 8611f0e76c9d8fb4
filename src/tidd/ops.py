"""Binary operations, reduction, and products.

Pointwise binary operations follow the two-phase construction: a cross
product (pair product) of the operand layer stacks annotated with operand
state pairs, then a minimization (reduction) that merges same-valued top
states and propagates the equivalence downward.

Reduction is a single descent: in a leveled automaton the equivalence
classes at level i are fully determined by the classes at level i+1 (every
context of a level-i state factors through level i+1), so no fixpoint
iteration is needed.  Each level is rebuilt, with no renumbering, as the
descent returns; below the top, a layer's reduction depends on its classes
alone and is memoized in ``reduce_cache``.  Products and reduction number
states only through ``core.first_occurrence``.

A tensor product is a pair product under one fixed top table.  With one
table per level shared by every block position, each lower level must pair
the two operands' states; that pairing is the price of hierarchy alone.
Its top cells are numbered by product value, which leaves nothing to reduce
unless an operand is the zero function.
"""

from __future__ import annotations

from .core import APPLY, KRONECKER, PAIR_PRODUCT, REDUCE, Layer, Manager, Tidd, first_occurrence
from .errors import ArityMismatch, CanonicalOrderViolation, LevelMismatch, ManagerMismatch
from .values import ZERO, BinaryOp, Value, as_value

PairMeta = tuple[tuple[int, int], ...]


# ---------------------------------------------------------------------------
# pair product

def pair_product(a: Layer, b: Layer) -> tuple[Layer, PairMeta]:
    """Cross product of two layer stacks of equal level.

    Returns the combined top layer and, for each of its states, the operand
    state pair (q, p) it tracks.  Only pairs reachable through component-wise
    transitions are created; ``intern_cells`` numbers them in row-major
    first-occurrence order.  Memoized on the layer handle pair, which must
    belong to one Manager (else ManagerMismatch).
    """
    if a.level != b.level:
        raise LevelMismatch(f"levels {a.level} and {b.level}")
    if a.manager is not b.manager:
        raise ManagerMismatch("operands belong to two Managers")
    return a.manager.memo(PAIR_PRODUCT, _pair_product, a, b)


def _pair_product(mgr: Manager, a: Layer, b: Layer) -> tuple[Layer, PairMeta]:
    if a.is_leaf():
        # symbol s reaches state s * (num_states - 1) on each operand
        _, meta = first_occurrence(((0, 0), (a.num_states - 1, b.num_states - 1)))
        return mgr.fork() if len(meta) == 2 else mgr.dontcare(), meta
    child, child_meta = pair_product(a.child, b.child)
    ta, tb = a.table, b.table
    # a generator: each pair is freed once numbered, unless it is a new key
    cells = ((ta[qa][qb], tb[pa][pb]) for qa, pa in child_meta for qb, pb in child_meta)
    return mgr.intern_cells(child, cells)


# ---------------------------------------------------------------------------
# reduction

def reduce_stack(top: Layer, top_classes) -> tuple[Layer, list[tuple[int, ...]]]:
    """Minimize a layer stack given a merge of its top states.

    ``top_classes[q]`` gives the class of top state q, numbered by first
    occurrence (else CanonicalOrderViolation), one per top state (else
    ArityMismatch).  Two states at a lower level merge iff their transition
    behavior coincides class-wise in every row and column.
    Returns the new top layer and, per level from 0 up, the map old state
    index -> new state index, which is the class numbering itself.
    """
    classes = tuple(top_classes)
    if len(classes) != top.num_states:
        raise ArityMismatch(f"{len(classes)} classes for {top.num_states} top states")
    if first_occurrence(classes)[0] != classes:
        raise CanonicalOrderViolation(f"top classes {classes} skip first occurrence")
    new_top, class_of = _reduce(top.manager, top, classes)
    return new_top, list(class_of)


def _reduce(mgr: Manager, layer: Layer, classes: tuple[int, ...]) -> tuple[Layer, tuple]:
    """``layer`` reduced under ``classes``, and the class maps of levels 0 up to it.

    The child's classes number its states' (mapped row, mapped column)
    signatures by first occurrence; a ``reduce_cache`` hit on them ends the descent.
    """
    if layer.is_leaf():  # the two Fork states merge unless told apart
        return mgr.fork() if classes == (0, 1) else mgr.dontcare(), (classes,)
    mapped = [tuple(map(classes.__getitem__, row)) for row in layer.table]
    below, _ = first_occurrence(zip(mapped, zip(*mapped)))
    child, class_of = mgr.memo(REDUCE, _reduce, layer.child, below)
    # New child state C is class C below, and row C of the new table is C's
    # mapped row read at one member of each class: members share their
    # mapped column.  No renumbering is needed: in the old, canonical table,
    # the first state of class E first appears before E's other states, in
    # the row and column of first states (an earlier member of either class
    # would hold E earlier), and first states increase with their class, so
    # the new table scans its cells in the order of those old cells and E
    # first appears before E + 1.  Rebuilt tables skip the check; interning
    # returns the old layer for an equal table over the same child.
    members = {c: q for q, c in enumerate(below)}.values()  # one per class, in class order
    rows = tuple(tuple(map(mapped[q].__getitem__, members)) for q in members)
    return mgr._intern(child, rows, max(classes) + 1), (*class_of, classes)


def canonical_tidd(top: Layer, raw_values) -> Tidd:
    """Build the canonical minimal diagram for a stack with raw top values."""
    classes, values = first_occurrence(map(as_value, raw_values))
    return Tidd(reduce_stack(top, classes)[0], values)


def reduce_tidd(f: Tidd) -> Tidd:
    """Re-run reduction on an existing diagram (idempotent on canonical ones)."""
    return canonical_tidd(f.top, f.values)


# ---------------------------------------------------------------------------
# pointwise operations

def apply(op: BinaryOp, f: Tidd, g: Tidd) -> Tidd:
    """Pointwise ``op`` of two same-level diagrams, canonical and minimal."""
    return f.manager.memo(APPLY, _apply, op, f, g)


def _apply(mgr: Manager, op: BinaryOp, f: Tidd, g: Tidd) -> Tidd:
    top, meta = pair_product(f.top, g.top)
    return canonical_tidd(top, [op(f.values[q], g.values[p]) for q, p in meta])


def scalar_multiply(c: Value | int, f: Tidd) -> Tidd:
    """Multiply every value by the scalar c: f's stack, reduced under new values."""
    c = as_value(c)
    return canonical_tidd(f.top, [v * c for v in f.values])


def kronecker(a: Tidd, b: Tidd) -> Tidd:
    """Tensor product: the result evaluates on w||w' to a(w) * b(w').

    The levels below the top are ``pair_product(a.top, b.top)``, whose
    shared tables track both operands at every block position.  Top cell
    (c, c') is a[q] * b[p], for the a-state q of left child state c and the
    b-state p of right child state c', numbered by value.  Unless an operand
    is the zero function, that stack is reduced: every b-state occurs in
    some pair, some b[p] is nonzero and the ring has no zero divisors, so
    c's row fixes a[q], hence q, and its column fixes p; the top separates
    its child pairs, and a pair-product layer of canonical stacks separates
    its own.  A zero top is reduced as usual.  Memoized in ``kron_cache``;
    the operands are checked by ``pair_product`` alone.
    """
    return a.manager.memo(KRONECKER, _kronecker, a, b)


def _kronecker(mgr: Manager, a: Tidd, b: Tidd) -> Tidd:
    child, meta = pair_product(a.top, b.top)
    products = [[u * v for v in b.values] for u in a.values]
    top, values = mgr.intern_cells(child, (products[q][p] for q, _ in meta for _, p in meta))
    return canonical_tidd(top, values) if values == (ZERO,) else Tidd(top, values)
