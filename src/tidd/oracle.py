"""Brute-force reference semantics.

Everything here is exhaustive tabulation: dense truth tables indexed by the
assignment read as a big-endian integer, textbook linear algebra over exact
ring values, and Myhill-Nerode class counting by context-based partition
refinement over all strings of a given length.  Diagram operations are
verified against this module at small scale; nothing here shares code with
the diagram-side algorithms it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from random import Random

from .builders import constant, projection
from .core import Manager, Tidd
from .errors import ShapeMismatch
from .errors import require_at_least, require_dense, require_index, require_power_of_two
from .ops import apply
from .values import (
    AND,
    BinaryOp,
    FALSE,
    OR,
    PLUS,
    TIMES,
    TRUE,
    Value,
    XOR,
    as_value,
)


@dataclass(frozen=True)
class DenseFunction:
    """Exhaustive tabulation: the value at assignment bits(i) is palette[index[i]].

    Canonical, so equality is pointwise: ``palette`` lists the distinct values
    by first occurrence; ``index`` is ``bytes`` for at most 256 values, else a tuple.
    """

    level: int
    palette: tuple[Value, ...]
    index: bytes | tuple[int, ...]

    def __post_init__(self) -> None:
        expected = _dense_size(self.level)
        if len(self.index) != expected:
            raise ShapeMismatch(f"expected {expected} outputs, got {len(self.index)}")

    @cached_property
    def outputs(self) -> tuple[Value, ...]:
        """Every entry's value, built once; library code reads ``index``."""
        return tuple(map(self.palette.__getitem__, self.index))


def _dense_size(level: int) -> int:
    """2**(2**level), the output count of a dense table at ``level``."""
    require_at_least(level, 0, "level")
    require_dense(1 << level, "a dense table")
    return 1 << (1 << level)


def _tabulate(level: int, codes, value_of, count: int = 256) -> DenseFunction:
    """The canonical table whose entry i is ``as_value(value_of(codes[i]))``.

    ``value_of`` runs once per distinct code, in order of first occurrence.
    ``bytes`` codes lie below ``count``.
    """
    if isinstance(codes, bytes):  # one search per byte value finds its first position
        firsts = [codes[p] for p in sorted(map(codes.find, range(count))) if p >= 0]
    else:
        firsts = dict.fromkeys(codes)
    numbers: dict[Value, int] = {}
    number = {c: numbers.setdefault(as_value(value_of(c)), len(numbers)) for c in firsts}
    if isinstance(codes, bytes):
        index = codes.translate(bytes(map(number.get, range(256), bytes(256))))
    else:
        index = (bytes if len(numbers) <= 256 else tuple)(map(number.__getitem__, codes))
    return DenseFunction(level, tuple(numbers), index)


def dense_function(level: int, outputs) -> DenseFunction:
    # every entry is checked, then equal values are numbered together
    return _tabulate(level, [as_value(v) for v in outputs], as_value)


def dense_constant(level: int, v) -> DenseFunction:
    return DenseFunction(level, (as_value(v),), bytes(_dense_size(level)))


def dense_projection(level: int, index: int) -> DenseFunction:
    size = _dense_size(level)
    require_index(index, 1 << level, "projection index")
    run = 1 << ((1 << level) - 1 - index)  # assignments per run of equal bit `index`
    bits = (bytes(run) + b"\x01" * run) * (size // (2 * run))
    return DenseFunction(level, (FALSE, TRUE), bits)


def dense_from_tidd(f: Tidd) -> DenseFunction:
    """Tabulate a diagram by running the state map over all strings per level."""
    require_dense(f.num_vars, "tabulating a diagram")
    layers = f.top.stack()
    states = bytes((0, layers[0].num_states - 1))  # the states symbols 0 and 1 reach
    for layer in layers[1:]:
        # a level's strings are its left half's strings times its right half's, in order
        table = layer.table
        if layer.num_states <= 256:  # as below, by one translate per left state
            rows = [bytes(row).ljust(256, b"\0") for row in table]
            states = b"".join(states.translate(rows[s]) for s in states)
        else:  # only the top of 16 variables, whose children number at most 256
            states = [table[s][t] for s in states for t in states]
    # renumbered by value: the values of a diagram that is not reduced may repeat
    return _tabulate(f.level, states, f.values.__getitem__, f.top.num_states)


def exhaustive_equiv(f: Tidd, d: DenseFunction) -> bool:
    """True iff the diagram matches the dense table at every assignment."""
    if f.level != d.level:
        raise ShapeMismatch(f"levels {f.level} and {d.level}")
    return dense_from_tidd(f) == d  # palette and index, both canonical


def dense_apply(op: BinaryOp, a: DenseFunction, b: DenseFunction) -> DenseFunction:
    """Pointwise ``op``, evaluated once per distinct pair of palette values.

    Entry i has pair code ``a.index[i] * len(b.palette) + b.index[i]``.  With
    at most 256 codes, one big-integer multiply-add of the two byte indexes
    gives every entry's code as one byte: no digit sum reaches 256, so
    nothing carries.  Codes are evaluated in order of first occurrence, so a
    failing pair raises as it would entry by entry; a result outside the ring
    raises as in ``apply``.
    """
    if a.level != b.level:
        raise ShapeMismatch(f"levels {a.level} and {b.level}")
    pa, pb = a.palette, b.palette
    width, count = len(pb), len(pa) * len(pb)
    if count <= 256:
        ia, ib = int.from_bytes(a.index, "big"), int.from_bytes(b.index, "big")
        codes = (ia * width + ib).to_bytes(len(a.index), "big")
    else:
        codes = [x * width + y for x, y in zip(a.index, b.index)]
    return _tabulate(a.level, codes, lambda c: op(pa[c // width], pb[c % width]), count)


def _spread_table(level: int) -> list[int]:
    """``spread[x]`` moves bit i of x to bit 2i, for each row or column x of
    a matrix function at ``level``.

    Entry (r, c) of an interleaved matrix function sits at index
    ``spread[r] << 1 | spread[c]``.
    """
    if level < 1:
        raise ShapeMismatch("matrix functions need at least 2 variables")
    _dense_size(level)  # the dense cap, checked before the table is built
    spread = [0]
    for i in range(1 << (level - 1)):
        spread += [s | 1 << (2 * i) for s in spread]
    return spread


def dense_to_matrix(d: DenseFunction) -> list[list[Value]]:
    """Decode an interleaved row/column function into a square value grid."""
    spread = _spread_table(d.level)
    palette, index = d.palette, d.index
    return [[palette[index[r << 1 | c]] for c in spread] for r in spread]


def matrix_to_dense(grid: list[list[Value]], level: int) -> DenseFunction:
    spread = _spread_table(level)
    side = len(spread)
    if len(grid) != side or any(len(row) != side for row in grid):
        raise ShapeMismatch(f"a matrix at level {level} is a {side} x {side} grid")
    outputs = [FALSE] * _dense_size(level)
    for r, sr in enumerate(spread):
        for c, sc in enumerate(spread):
            outputs[sr << 1 | sc] = grid[r][c]
    return dense_function(level, outputs)


def dense_matmul(a: DenseFunction, b: DenseFunction) -> DenseFunction:
    """Textbook matrix product over the interleaved index decoding."""
    if a.level != b.level:
        raise ShapeMismatch(f"levels {a.level} and {b.level}")
    ga = dense_to_matrix(a)
    gb = dense_to_matrix(b)
    side = len(ga)
    product = [
        [
            sum((ga[r][k] * gb[k][c] for k in range(side)), Value(0, 0, 0))
            for c in range(side)
        ]
        for r in range(side)
    ]
    return matrix_to_dense(product, a.level)


def dense_kron(a: DenseFunction, b: DenseFunction) -> DenseFunction:
    """Textbook tensor product: outputs indexed by the concatenated assignment."""
    if a.level != b.level:
        raise ShapeMismatch(f"levels {a.level} and {b.level}")
    _dense_size(a.level + 1)  # the dense cap, checked before any entry is computed
    pa, pb = a.palette, b.palette
    width = len(pb)
    codes = [x * width + y for x in a.index for y in b.index]
    return _tabulate(a.level + 1, codes, lambda c: pa[c // width] * pb[c % width])


# ---------------------------------------------------------------------------
# Myhill-Nerode class counting

def class_counts(d: DenseFunction) -> tuple[int, ...]:
    """Number of context-equivalence classes of length-2**i substrings, per level i.

    ``class_counts(d)[i]`` is the state count any minimal diagram for d must
    have at level i.  Seeded by output values at the top level and refined
    downward in one pass: two strings stay together iff concatenating them
    with every peer, on either side, lands in the same class one level up.
    """
    cls = d.index  # palette positions: the output classes, by first occurrence
    counts = [0] * d.level + [len(d.palette)]
    for j in range(d.level - 1, -1, -1):
        count = 1 << (1 << j)
        above = cls  # above[(w << 2**j) | u]: class of the string w || u
        index: dict[tuple, int] = {}
        # w's signature: its row (w as the left half) and its column (right half)
        cls = tuple(
            index.setdefault(
                (above[w * count : (w + 1) * count], above[w::count]), len(index)
            )
            for w in range(count)
        )
        counts[j] = len(index)
    return tuple(counts)


# ---------------------------------------------------------------------------
# randomized equivalence suite (shared by tests and the CLI)

_BOOL_OPS = (AND, OR, XOR, PLUS, TIMES)
_RING_OPS = (PLUS, TIMES)


def random_equivalence_case(
    mgr: Manager, rng: Random, level: int
) -> tuple[Tidd, DenseFunction]:
    """One random expression built twice: through apply and through the oracle.

    Leaves are projections and constants; operators come from
    {AND, OR, XOR, PLUS, TIMES}, with boolean operators only offered while
    both operands are boolean-valued.
    """
    nvars = 1 << level
    terms: list[tuple[Tidd, DenseFunction, bool]] = []
    for _ in range(rng.randint(2, 6)):
        roll = rng.random()
        if roll < 0.7:
            idx = rng.randrange(nvars)
            terms.append((projection(mgr, level, idx), dense_projection(level, idx), True))
        elif roll < 0.85:
            flag = rng.random() < 0.5
            terms.append(
                (constant(mgr, level, flag), dense_constant(level, flag), True)
            )
        else:
            c = rng.randint(-3, 3)
            terms.append((constant(mgr, level, c), dense_constant(level, c), False))
    while len(terms) > 1:
        j = rng.randrange(len(terms) - 1)
        t1, d1, b1 = terms.pop(j)
        t2, d2, b2 = terms.pop(j)
        op = rng.choice(_BOOL_OPS if b1 and b2 else _RING_OPS)
        boolean = op in (AND, OR, XOR) or (op is TIMES and b1 and b2)
        terms.insert(j, (apply(op, t1, t2), dense_apply(op, d1, d2), boolean))
    return terms[0][0], terms[0][1]


def run_equivalence_suite(
    mgr: Manager, num_vars: int, cases: int, seed: int
) -> tuple[int, int]:
    """Run seeded random-expression equivalence checks; returns (passed, failed)."""
    level = require_power_of_two(num_vars, 1, "variable count")
    require_dense(num_vars, "the equivalence suite")
    require_at_least(cases, 1, "case count")
    rng = Random(seed)
    passed = failed = 0
    for _ in range(cases):
        f, d = random_equivalence_case(mgr, rng, level)
        if exhaustive_equiv(f, d):
            passed += 1
        else:
            failed += 1
    return passed, failed
