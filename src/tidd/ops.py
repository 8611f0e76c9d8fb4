"""Binary operations, reduction, and products.

Pointwise binary operations follow the two-phase construction: a cross
product (pair product) of the operand layer stacks annotated with operand
state pairs, then a minimization (reduction) that merges same-valued top
states and propagates the equivalence downward.

Reduction is a single top-down pass: in a leveled automaton the equivalence
classes at level i are fully determined by the classes at level i+1 (every
context of a level-i state factors through level i+1), so no fixpoint
iteration is needed.  Products and reduction number states only through
``core.first_occurrence``; the bottom-up rebuild needs no renumbering.

A tensor product is a pair product under one fixed top table.  With one
table per level shared by every block position, each lower level must pair
the two operands' states; that pairing is the price of hierarchy alone.
"""

from __future__ import annotations

from .core import APPLY, KRONECKER, PAIR_PRODUCT, Layer, Manager, Tidd, first_occurrence
from .errors import ArityMismatch, LevelMismatch
from .values import BinaryOp, Value, as_value

PairMeta = tuple[tuple[int, int], ...]


# ---------------------------------------------------------------------------
# pair product

def pair_product(a: Layer, b: Layer) -> tuple[Layer, PairMeta]:
    """Cross product of two layer stacks of equal level.

    Returns the combined top layer and, for each of its states, the operand
    state pair (q, p) it tracks.  Only pairs reachable through component-wise
    transitions are created; ``intern_cells`` numbers them in row-major
    first-occurrence order.  Memoized on the layer handle pair.
    """
    if a.level != b.level:
        raise LevelMismatch(f"levels {a.level} and {b.level}")
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
    occurrence; a count other than one class per top state raises
    ArityMismatch.  Two states at a lower level merge iff their transition
    behavior coincides class-wise in every row and column.
    Returns the new top layer and, per level from 0 up, the map old state
    index -> new state index, which is the class numbering itself.
    """
    layers = top.stack()
    level = top.level

    # top-down: classes per level, numbered by first occurrence, and each
    # state's mapped row; singleton classes make a level's class map the
    # identity.  Under identity above, the mapped table is the table, whose
    # classes are singletons iff it separates its child states: learned once.
    class_of: list[tuple[int, ...]] = [()] * (level + 1)
    class_of[level] = tuple(top_classes)
    if len(class_of[level]) != top.num_states:
        raise ArityMismatch(f"{len(class_of[level])} classes for {top.num_states} top states")
    mapped_rows: list = [()] * level
    identity = [False] * (level + 1)
    identity[level] = class_of[level] == tuple(range(top.num_states))
    for i in range(level - 1, -1, -1):
        above, side = layers[i + 1], layers[i].num_states
        if identity[i + 1] and above.separates:
            class_of[i], mapped_rows[i], identity[i] = tuple(range(side)), above.table, True
            continue
        class_above = class_of[i + 1].__getitem__
        mapped = mapped_rows[i] = [tuple(map(class_above, row)) for row in above.table]
        # state q's signature: its mapped row and its mapped column
        class_of[i], signatures = first_occurrence(zip(mapped, zip(*mapped)))
        identity[i] = len(signatures) == side
        if identity[i + 1]:
            above.separates = identity[i]

    # bottom-up rebuild.  New child state C is class C below, and row C of
    # the new table is C's mapped row read at one member of each class: the
    # members of a class share their mapped column.  No renumbering is
    # needed.  In the old, canonical table, the first state of class E
    # first appears before E's other states, in the row and column of first
    # states (an earlier member of either class would hold E earlier).
    # First states increase with their class, so the new table scans its
    # cells in the order of those old cells, and E first appears before
    # E + 1.  A level with identity classes over an unchanged child keeps
    # its layer, which intern_layer would return anyway.
    mgr = top.manager
    unchanged = True  # every level so far kept its layer
    for i, layer in enumerate(layers):
        unchanged = unchanged and identity[i]
        if unchanged:
            new_layer = layer
        elif i == 0:  # the two Fork states merged
            new_layer = mgr.dontcare()
        else:
            # one member per class, in class order: keys keep first insertion
            members = {c: q for q, c in enumerate(class_of[i - 1])}.values()
            rows = [tuple(map(mapped_rows[i - 1][q].__getitem__, members)) for q in members]
            new_layer = mgr.intern_layer(new_layer, rows)
    return new_layer, class_of


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
    if f.level != g.level:
        raise LevelMismatch(f"levels {f.level} and {g.level}")
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
    shared tables track both operands at every block position.  The top
    table is fixed: cell (c, c') is the pair (a-state of left child state c,
    b-state of right child state c').  Memoized in ``kron_cache``.
    """
    if a.level != b.level:
        raise LevelMismatch(f"levels {a.level} and {b.level}")
    return a.manager.memo(KRONECKER, _kronecker, a, b)


def _kronecker(mgr: Manager, a: Tidd, b: Tidd) -> Tidd:
    child, meta = pair_product(a.top, b.top)
    top, cells = mgr.intern_cells(child, ((q, p) for q, _ in meta for _, p in meta))
    return canonical_tidd(top, [a.values[q] * b.values[p] for q, p in cells])
