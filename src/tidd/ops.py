"""Binary operations, reduction, and products.

Pointwise binary operations follow the two-phase construction: a cross
product (pair product) of the operand layer stacks annotated with operand
state pairs, then a minimization (reduction) that merges same-valued top
states and propagates the equivalence downward with leftmost representatives.

Reduction is a single top-down pass: in a leveled automaton the equivalence
classes at level i are fully determined by the classes at level i+1 (every
context of a level-i state factors through level i+1), so no fixpoint
iteration is needed.  The rebuild runs bottom-up with canonical renumbering.
"""

from __future__ import annotations

from itertools import chain

from .core import APPLY, KRONECKER, PAIR_PRODUCT, Layer, Table, Tidd
from .errors import LevelMismatch
from .values import BinaryOp, TIMES, Value, as_value

PairMeta = tuple[tuple[int, int], ...]


def canonical_renumber(table) -> tuple[Table, tuple[int, ...]]:
    """Renumber parent indices into first-occurrence order.

    Returns the canonical table and the permutation applied, as a tuple
    ``perm`` with ``perm[old_index] = new_index`` (use it to reorder a value
    tuple or any per-state metadata).
    """
    # dict keys keep insertion order: the entries in first-occurrence order
    order = dict.fromkeys(chain.from_iterable(table))
    rename = {old: new for new, old in enumerate(order)}
    new_table = tuple(tuple(map(rename.__getitem__, row)) for row in table)
    perm = tuple(map(rename.__getitem__, range(len(rename))))
    return new_table, perm


# ---------------------------------------------------------------------------
# pair product

def pair_product(a: Layer, b: Layer) -> tuple[Layer, PairMeta]:
    """Cross product of two layer stacks of equal level.

    Returns the combined top layer and, for each of its states, the operand
    state pair (q, p) it tracks.  Only pairs reachable through component-wise
    transitions are created; output tables come out canonically renumbered
    because indices are assigned in row-major scan order.  Memoized on the
    layer handle pair.
    """
    if a.level != b.level:
        raise LevelMismatch(f"levels {a.level} and {b.level}")
    mgr = a.manager
    return mgr.memo(mgr.pair_cache, (a, b), PAIR_PRODUCT, _pair_product, a, b)


def _pair_product(a: Layer, b: Layer) -> tuple[Layer, PairMeta]:
    mgr = a.manager
    if a.is_leaf():
        # symbol s reaches state s * (num_states - 1) on each operand
        meta = tuple(dict.fromkeys(((0, 0), (a.num_states - 1, b.num_states - 1))))
        return mgr.fork() if len(meta) == 2 else mgr.dontcare(), meta
    child, child_meta = pair_product(a.child, b.child)
    index: dict[tuple[int, int], int] = {}
    rows = []
    for c1 in range(child.num_states):
        qa, pa = child_meta[c1]
        row = []
        for c2 in range(child.num_states):
            qb, pb = child_meta[c2]
            pair = (a.table[qa][qb], b.table[pa][pb])
            idx = index.get(pair)
            if idx is None:
                idx = len(index)
                index[pair] = idx
            row.append(idx)
        rows.append(tuple(row))
    return mgr.intern_layer(child, tuple(rows)), tuple(index)


# ---------------------------------------------------------------------------
# reduction

def top_classes_from_values(values) -> tuple[tuple[int, ...], tuple[Value, ...]]:
    """Merge equal values to classes with leftmost representatives.

    Returns (class index per old state, value per class).
    """
    class_of: list[int] = []
    class_values: list[Value] = []
    index: dict[Value, int] = {}
    for v in values:
        idx = index.get(v)
        if idx is None:
            idx = len(index)
            index[v] = idx
            class_values.append(v)
        class_of.append(idx)
    return tuple(class_of), tuple(class_values)


def reduce_stack(top: Layer, top_classes) -> tuple[Layer, list[tuple[int, ...]]]:
    """Minimize a layer stack given a merge of its top states.

    ``top_classes[q]`` gives the class of top state q; the classes must be
    numbered by leftmost representative (first occurrence).  Two states at a
    lower level merge iff their transition behavior coincides class-wise in
    every row and column.  Returns the new top layer and, per level from 0
    up, the map old state index -> new state index.
    """
    layers = top.stack()
    level = top.level

    # top-down: classes per level, numbered by leftmost occurrence; a level
    # whose classes are all singletons has the identity as its class map
    class_of: list[tuple[int, ...]] = [()] * (level + 1)
    class_of[level] = tuple(top_classes)
    identity = [False] * (level + 1)
    identity[level] = class_of[level] == tuple(range(top.num_states))
    for i in range(level - 1, -1, -1):
        class_above = class_of[i + 1].__getitem__
        mapped = [tuple(map(class_above, row)) for row in layers[i + 1].table]
        # state q's signature: its mapped row and its mapped column
        index: dict[tuple, int] = {}
        class_of[i] = tuple(
            index.setdefault(sig, len(index)) for sig in zip(mapped, zip(*mapped))
        )
        identity[i] = len(index) == layers[i].num_states

    # bottom-up rebuild with canonical renumbering.  A level with identity
    # classes over an unchanged child keeps its layer: the old table is
    # already canonical, and intern_layer would return that same layer.
    mgr = top.manager
    maps: list[tuple[int, ...]] = []
    unchanged = True  # every level so far kept its layer
    for i, layer in enumerate(layers):
        unchanged = unchanged and identity[i]
        if unchanged:
            new_layer = layer
            maps.append(class_of[i])
        elif i == 0:  # the two Fork states merged
            new_layer = mgr.dontcare()
            maps.append(class_of[0])
        else:
            reps: list[int] = [-1] * new_layer.num_states
            for old, new in enumerate(maps[i - 1]):
                if reps[new] < 0:
                    reps[new] = old
            class_here = class_of[i].__getitem__
            raw = [
                tuple(map(class_here, map(layer.table[r].__getitem__, reps)))
                for r in reps
            ]
            canon, perm = canonical_renumber(raw)
            new_layer = mgr.intern_layer(new_layer, canon)
            maps.append(tuple(map(perm.__getitem__, class_of[i])))
    return new_layer, maps


def canonical_tidd(top: Layer, raw_values) -> Tidd:
    """Build the canonical minimal diagram for a stack with raw top values."""
    values = tuple(as_value(v) for v in raw_values)
    top_cls, class_values = top_classes_from_values(values)
    new_top, maps = reduce_stack(top, top_cls)
    final_values: list[Value | None] = [None] * new_top.num_states
    top_map = maps[-1]
    for old, new in enumerate(top_map):
        if final_values[new] is None:
            final_values[new] = values[old]
    return Tidd(new_top, tuple(final_values))


def reduce_tidd(f: Tidd) -> Tidd:
    """Re-run reduction on an existing diagram (idempotent on canonical ones)."""
    return canonical_tidd(f.top, f.values)


# ---------------------------------------------------------------------------
# pointwise operations

def apply(op: BinaryOp, f: Tidd, g: Tidd) -> Tidd:
    """Pointwise ``op`` of two same-level diagrams, canonical and minimal."""
    if f.level != g.level:
        raise LevelMismatch(f"levels {f.level} and {g.level}")
    mgr = f.manager
    return mgr.memo(mgr.apply_cache, (op.name, f, g), APPLY, _apply, op, f, g)


def _apply(op: BinaryOp, f: Tidd, g: Tidd) -> Tidd:
    top, meta = pair_product(f.top, g.top)
    return canonical_tidd(top, [op(f.values[q], g.values[p]) for q, p in meta])


def scalar_multiply(c: Value | int, f: Tidd) -> Tidd:
    """Multiply every value by the scalar c (constant diagram times f)."""
    from .builders import constant

    return apply(TIMES, f, constant(f.manager, f.level, as_value(c)))


def kronecker(a: Tidd, b: Tidd) -> Tidd:
    """Tensor product: the result evaluates on w||w' to a(w) * b(w').

    Both operands are lifted one level: ``a`` onto the left half (a top table
    ``[q][q'] = q`` that reads only the left child) and ``b`` onto the right
    half (``[p][p'] = p'``).  Both lifted tables are canonical and keep the
    operands' values, and the tensor product is their pointwise product, so
    a miss runs the uncached ``apply`` body on them.  The result is memoized
    in ``kron_cache`` only; the lifted operands are fixed by ``(a, b)``, so
    an ``apply_cache`` entry would never be read.
    """
    if a.level != b.level:
        raise LevelMismatch(f"levels {a.level} and {b.level}")
    mgr = a.manager
    return mgr.memo(mgr.kron_cache, (a, b), KRONECKER, _kronecker, a, b)


def _kronecker(a: Tidd, b: Tidd) -> Tidd:
    mgr = a.manager
    m, k = a.top.num_states, b.top.num_states
    left = mgr.intern_layer(a.top, [(q,) * m for q in range(m)])
    right = mgr.intern_layer(b.top, [tuple(range(k))] * k)
    return _apply(TIMES, Tidd(left, a.values), Tidd(right, b.values))
