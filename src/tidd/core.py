"""Core data model: interned state layers, diagrams, evaluation, validation.

A diagram is a leveled deterministic bottom-up tree automaton over perfect
binary assignment trees.  Each level is one Layer object holding the total
transition table from pairs of child states to parent states; the diagram's
top layer carries a duplicate-free value tuple, one value per final state.
Level 0 has no table: input symbol b reaches level-0 state
b * (num_states - 1), so a two-state leaf (a Fork) reads the symbol and a
one-state leaf (a DontCare) ignores it.

Layers are hash-consed: a manager interns every layer, so structurally equal
layers are the *same* object and semantic equality of whole diagrams reduces
to a handle comparison plus a value-tuple comparison.

Concurrency: layers and diagrams are immutable and freely shareable between
threads for reading.  The interning and memo tables live on the manager and
are not synchronized; mutating operations on one manager must be externally
serialized.  One manager per process is the default.  Every operation cache,
reduction's included, is read, counted and filled through one method,
``Manager.memo``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ArityMismatch,
    AssignmentLengthMismatch,
    CanonicalOrderViolation,
    ManagerMismatch,
)
from .values import Value

Table = tuple[tuple[int, ...], ...]


class Layer:
    """One interned state layer.

    Level 0 is a leaf with no child and no table, on which symbol b reaches
    state b * (num_states - 1): a Fork has two states, a DontCare one.  A
    layer at level >= 1 references its child layer plus a square transition
    table ``table[a][b]`` mapping child-state pairs to parent states, stored
    row-major in first-occurrence canonical order.  A layer is immutable.
    """

    __slots__ = ("manager", "level", "child", "table", "num_states")

    def __init__(self, manager, level, child, table, num_states):
        self.manager = manager
        self.level = level
        self.child = child          # Layer or None
        self.table = table          # Table or None
        self.num_states = num_states

    def is_leaf(self) -> bool:
        return self.level == 0

    def stack(self) -> list[Layer]:
        """Layers from level 0 up to this one."""
        out = []
        layer = self
        while layer is not None:
            out.append(layer)
            layer = layer.child
        out.reverse()
        return out

    def __repr__(self) -> str:
        if self.is_leaf():
            return f"<Layer L0 {'fork' if self.num_states == 2 else 'dontcare'}>"
        return f"<Layer L{self.level} states={self.num_states}>"


def first_occurrence(keys) -> tuple[tuple[int, ...], tuple]:
    """Number hashable keys by first occurrence: the single numbering rule.

    Returns the number of each key, in input order, and the distinct keys,
    where distinct key j is the one numbered j.
    """
    index: dict = {}
    numbers = tuple(index.setdefault(key, len(index)) for key in keys)
    return numbers, tuple(index)


def check_canonical_order(table: Table) -> int:
    """Verify first-occurrence order; return the parent-state count.

    A table is canonical exactly when ``first_occurrence`` of its row-major
    entries gives the distinct entries 0, 1, 2, ... in order.
    """
    _, keys = first_occurrence(entry for row in table for entry in row)
    for j, key in enumerate(keys):
        if key != j:
            raise CanonicalOrderViolation(f"parent index {key} appears before index {j}")
    return len(keys)


# One counter per cached operation: the (hits, misses) keys of Manager.stats
# that Manager.memo counts each read under, and the Manager cache it reads.
# MATMUL and MATMUL_STACK both read matmul_cache: a matmul call's top layer
# pair, and the child pairs of the product stack below it.
COUNTERS = tuple(
    (f"{name}_hits", f"{name}_misses", cache)
    for name, cache in (
        ("pair_product", "pair_cache"), ("apply", "apply_cache"),
        ("reduce", "reduce_cache"), ("kronecker", "kron_cache"), ("matmul", "matmul_cache"),
        ("matmul_stack", "matmul_cache"), ("span", "span_cache"),
        ("draw_plan", "draw_plan_cache"),
    )
)
PAIR_PRODUCT, APPLY, REDUCE, KRONECKER, MATMUL, MATMUL_STACK, SPAN, DRAW_PLAN = COUNTERS


class Manager:
    """Owner of the interning table and all operation caches.

    Every operation cache is read and written through ``memo`` only.
    """

    def __init__(self) -> None:
        self._layers: dict[object, Layer] = {}
        self._fork = Layer(self, 0, None, None, 2)
        self._dontcare = Layer(self, 0, None, None, 1)
        self.pair_cache: dict = {}
        self.apply_cache: dict = {}
        self.reduce_cache: dict = {}
        self.kron_cache: dict = {}
        self.matmul_cache: dict = {}
        self.triple_sums: dict = {}
        self.span_cache: dict = {}
        self.draw_plan_cache: dict = {}
        self.stats = {key: 0 for counter in COUNTERS for key in counter[:2]}

    def memo(self, counter: tuple[str, str, str], compute, *args):
        """The cached ``compute(self, *args)``, stored under the key ``args``.

        ``counter`` is one of ``COUNTERS`` (hits key, misses key, cache name);
        each read adds one hit or, once its result is stored, one miss to
        ``stats``, so a body that raises stores and counts nothing.  The key
        is the body's arguments, so a body that reads only them and this
        manager's tables depends on nothing the key misses.  No result is None.
        """
        cache = getattr(self, counter[2])
        hit = cache.get(args)
        miss = hit is None
        if miss:
            hit = cache[args] = compute(self, *args)
        self.stats[counter[miss]] += 1
        return hit

    def snapshot(self) -> dict[str, dict[str, int]]:
        """One entry per interning table and operation cache, as plain dicts.

        Each entry holds the table's ``size``.  An operation cache also holds
        the ``stats`` hits and misses of every counter in ``COUNTERS`` that
        reads it; ``_layers`` and ``triple_sums`` report their size only.
        """
        out = {
            name: {"size": len(table)}
            for name, table in vars(self).items()
            if isinstance(table, dict) and table is not self.stats
        }
        for hits, misses, name in COUNTERS:
            out[name][hits] = self.stats[hits]
            out[name][misses] = self.stats[misses]
        return out

    def clear_caches(self) -> None:
        """Empty every operation cache and ``triple_sums``; layers stay interned."""
        for counter in COUNTERS:
            getattr(self, counter[2]).clear()
        self.triple_sums.clear()

    def fork(self) -> Layer:
        return self._fork

    def dontcare(self) -> Layer:
        return self._dontcare

    def intern_layer(self, child: Layer, table) -> Layer:
        """Intern a level >= 1 layer over an already-interned child.

        The table must be total, square with side child.num_states, and in
        first-occurrence canonical order; non-canonical tables are rejected,
        not repaired.  A table already interned passed both checks, so they
        run on a miss; product and rebuilt tables skip them (``_intern``).
        """
        table = tuple(map(tuple, table))
        hit = self._layers.get((child, table))
        if hit is not None:
            return hit
        side = child.num_states
        if len(table) != side:
            raise ArityMismatch(f"table side {len(table)} != child state count {side}")
        for i, row in enumerate(table):
            if len(row) != side:
                raise ArityMismatch(f"table row {i} has length {len(row)}, not {side}")
        return self._intern(child, table, check_canonical_order(table))

    def intern_cells(self, child: Layer, cells) -> tuple[Layer, tuple]:
        """Intern the layer whose row-major cells are the hashable ``cells``.

        Cells are numbered by ``first_occurrence``, so the table is canonical;
        returns the layer and the distinct cells, cell j being state j.  A
        cell count other than child.num_states ** 2 raises ArityMismatch.
        """
        numbers, keys = first_occurrence(cells)
        side = child.num_states
        if len(numbers) != side * side:
            raise ArityMismatch(f"{len(numbers)} cells for child state count {side}")
        table = tuple(numbers[i:i + side] for i in range(0, len(numbers), side))
        return self._intern(child, table, len(keys)), keys

    def _intern(self, child: Layer, table: Table, num_states: int) -> Layer:
        """Get or add, unchecked, the layer of a canonical table of ``num_states`` states."""
        hit = self._layers.get((child, table))
        if hit is None:
            hit = Layer(self, child.level + 1, child, table, num_states)
            self._layers[child, table] = hit
        return hit


@dataclass(frozen=True)
class Tidd:
    """A complete diagram: top layer plus a duplicate-free value tuple.

    Equality compares the top layer by identity (``Layer`` has no ``__eq__``)
    and the values, which is semantic equality for canonical diagrams.
    """

    top: Layer
    values: tuple[Value, ...]

    @property
    def level(self) -> int:
        return self.top.level

    @property
    def num_vars(self) -> int:
        return 1 << self.top.level

    @property
    def manager(self) -> Manager:
        return self.top.manager

    def __repr__(self) -> str:
        return f"<Tidd level={self.level} states={self.top.num_states}>"


def equal(f: Tidd, g: Tidd) -> bool:
    """Semantic equality of diagrams of one Manager (canonicity makes it a handle check)."""
    if f.manager is not g.manager:
        raise ManagerMismatch("operands belong to two Managers")
    return f == g


def evaluate(f: Tidd, assignment) -> Value:
    """Run the automaton on one assignment and return the reached value.

    The assignment is a sequence of 2**level bits, each 0 or 1; the
    perfect-binary-tree shape is implicit (internal tree symbols are never
    materialized).
    """
    bits = tuple(assignment)
    if len(bits) != 1 << f.level:
        raise AssignmentLengthMismatch(
            f"expected {1 << f.level} bits, got {len(bits)}"
        )
    if any(b not in (0, 1) for b in bits):
        raise AssignmentLengthMismatch(f"{bits!r} is not a sequence of bits")
    layers = f.top.stack()
    last = layers[0].num_states - 1
    states = [int(b) * last for b in bits]
    for layer in layers[1:]:
        table = layer.table
        states = [
            table[states[j]][states[j + 1]] for j in range(0, len(states), 2)
        ]
    return f.values[states[0]]


@dataclass(frozen=True)
class ValidationReport:
    constraint: str | None = None
    location: str | None = None
    detail: str | None = None

    @property
    def ok(self) -> bool:
        return self.constraint is None

    def __bool__(self) -> bool:
        return self.ok


def validate(f: Tidd) -> ValidationReport:
    """Check every structural constraint; report the first violation found.

    Violations are report contents, not exceptions.  Checks, per layer:
    totality, arity, first-occurrence canonical order, state-count agreement,
    and pairwise distinguishability of child states through the parent table
    (rows or columns must differ).  At the top, the value tuple must be
    duplicate-free and match the state count; top states are distinguished by
    their values.
    """
    for layer in f.top.stack()[1:]:
        loc = f"level {layer.level}"
        table = layer.table
        side = layer.child.num_states
        if len(table) != side or any(len(row) != side for row in table):
            return ValidationReport("arity", loc, "table side != child state count")
        for row in table:
            for entry in row:
                if not 0 <= entry < layer.num_states:
                    return ValidationReport("totality", loc, f"entry {entry} out of range")
        try:
            count = check_canonical_order(table)
        except CanonicalOrderViolation as exc:
            return ValidationReport("2(iii) canonical order", loc, str(exc))
        if count != layer.num_states:
            return ValidationReport(
                "state count", loc,
                f"distinct entries {count} != recorded {layer.num_states}",
            )
        # constraint 2(v): child states with equal (row, column) share a number
        numbers, signatures = first_occurrence(zip(table, zip(*table)))
        if len(signatures) < side:
            j = next(j for j, c in enumerate(numbers) if numbers.count(c) > 1)
            k = numbers.index(numbers[j], j + 1)
            detail = f"child states {j} and {k} are indistinguishable"
            return ValidationReport("2(v) distinguishability", loc, detail)

    if len(f.values) != f.top.num_states:
        return ValidationReport(
            "value tuple", "values",
            f"{len(f.values)} values for {f.top.num_states} top states",
        )
    seen: set[Value] = set()
    for j, v in enumerate(f.values):
        if not isinstance(v, Value):
            return ValidationReport("value tuple", "values", f"entry {j} is not a ring value")
        if v in seen:
            return ValidationReport(
                "2(iv) value bijection", "values", f"duplicate value at index {j}"
            )
        seen.add(v)
    return ValidationReport()


@dataclass(frozen=True)
class SizeReport:
    """Size under the fixed counting convention.

    One node per layer.  Each layer contributes the entries of its distinct
    table rows (a row repeated within one table is counted once); a level-0
    node contributes its state count (2 for a Fork, 1 for a DontCare).
    """

    nodes: int
    edges: int
    total: int


def size_metrics(f: Tidd) -> SizeReport:
    nodes = f.level + 1
    edges = 0
    for layer in f.top.stack():
        if layer.is_leaf():
            edges += layer.num_states
        else:
            edges += layer.child.num_states * len(set(layer.table))
    return SizeReport(nodes, edges, nodes + edges)


def total_states(f: Tidd) -> int:
    """Total automaton states summed over all layers."""
    return sum(layer.num_states for layer in f.top.stack())


def state_counts(f: Tidd) -> tuple[int, ...]:
    """Per-level state counts, level 0 first."""
    return tuple(layer.num_states for layer in f.top.stack())


def dump(f: Tidd) -> str:
    """Deterministic textual dump, one line per layer from level 0 up.

    Format: ``L<level> kind=<Fork|DontCare|Internal> states=<n>
    table=<row-major integer list>`` and a final line ``V=`` with values as
    comma-separated a,b,k triples.  Used for golden tests.
    """
    lines = []
    for layer in f.top.stack():
        if layer.is_leaf():
            kind = "Fork" if layer.num_states == 2 else "DontCare"
            flat = ""
        else:
            kind = "Internal"
            flat = ",".join(str(e) for row in layer.table for e in row)
        lines.append(
            f"L{layer.level} kind={kind} states={layer.num_states} table=[{flat}]"
        )
    lines.append("V=" + " ".join(str(v) for v in f.values))
    return "\n".join(lines)
