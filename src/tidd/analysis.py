"""Path counting and weighted sampling.

The path count of a state q is the number of fixed-length bit strings whose
assignment trees drive the automaton to q.  Counts are arbitrary-precision
(the top counts at level l partition 2**(2**l)) and take one uncached pass
per table: level-0 Fork states count 1 each, a DontCare counts 2, and a
state above counts pathcount(a) * pathcount(b) over its incoming (a, b)
transitions (canonical tables have no gaps, so every count is positive).

Sampling draws an assignment with probability proportional to its value by
walking the diagram's draw plan, a flat tuple of nodes built on its first
``sample`` and cached per diagram.  A node holds cumulative weights, their
total and its bit length, one child entry per weight, and whether the entries
are output bits rather than node ids to push (right before left).  Node 0
draws the top state q by W(q) = V(q) * pathcount(q), node 1 a DontCare bit,
and node 2 + i an incoming transition of the i-th state at levels >= 1, top
level first.  Fork bits are output; each DontCare bit pushes node 1.  Top
weights are fixed-point, with ``values.FIXED_POINT_BITS`` (128) mantissa bits
over one common denominator; sign checks stay exact.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from random import Random

from .core import DRAW_PLAN, Layer, Manager, Tidd
from .errors import NegativeWeight, ZeroDistribution

PathCountAnnotation = tuple[tuple[int, ...], ...]
# (cumulative weights, total, total.bit_length(), children, children are bits)
PlanNode = tuple[tuple[int, ...], int, int, tuple[tuple[int, ...], ...], bool]
# node 1: one DontCare bit, drawn as rng.randrange(2) draws it
UNIFORM_BIT: PlanNode = ((1, 2), 2, 2, ((0,), (1,)), True)


def layer_path_counts(top: Layer) -> PathCountAnnotation:
    """Counts per level (level 0 first), one pass per table."""
    layers = top.stack()
    per_level = [(1, 1) if layers[0].num_states == 2 else (2,)]
    for layer in layers[1:]:
        below = per_level[-1]
        counts = [0] * layer.num_states
        for a, row in enumerate(layer.table):
            for b, q in enumerate(row):
                counts[q] += below[a] * below[b]
        per_level.append(tuple(counts))
    return tuple(per_level)


def path_counts(f: Tidd) -> PathCountAnnotation:
    """Exact |assignments reaching each state|, per level; top sums to 2**(2**l)."""
    return layer_path_counts(f.top)


def top_path_counts(f: Tidd) -> tuple[int, ...]:
    return layer_path_counts(f.top)[-1]


def sample_weights(f: Tidd) -> list[int]:
    """Fixed-point top-state weights W(q) = V(q) * pathcount(q).

    All weights share the denominator 2**(FIXED_POINT_BITS + k), k the
    largest top-value exponent.  Raises NegativeWeight if any top value is
    exactly negative.
    """
    return _weights(f.values, top_path_counts(f))


def _weights(values, counts) -> list[int]:
    k = max(v.k for v in values)
    weights = []
    for v, c in zip(values, counts):
        if v.sign() < 0:
            raise NegativeWeight(f"top value {v!r} is negative")
        weights.append((v.fixed_point() << (k - v.k)) * c)
    return weights


def draw_plan(f: Tidd) -> tuple[PlanNode, ...]:
    """The draw plan of a diagram, cached on the manager.

    Raises NegativeWeight or ZeroDistribution, on every call, for a diagram
    that ``sample`` cannot draw from.
    """
    return f.manager.memo(DRAW_PLAN, _draw_plan, f)


def _draw_plan(mgr: Manager, f: Tidd) -> tuple[PlanNode, ...]:
    counts = layer_path_counts(f.top)
    weights = _weights(f.values, counts[-1])
    if not any(weights):
        raise ZeroDistribution("all top-state weights are zero")
    fork = len(counts[0]) == 2

    def node(ws, picks, child) -> PlanNode:
        """A draw over ``picks``, tuples of states one level down, left first;
        ``child`` is the node id of state 0 there, None at level 0."""
        if child is not None:
            picks = [tuple(child + s for s in reversed(p)) for p in picks]
        elif not fork:
            picks = [(1,) * len(p) for p in picks]
        cums = tuple(accumulate(ws))
        return cums, cums[-1], cums[-1].bit_length(), tuple(picks), child is None and fork

    nodes = [node(weights, [(q,) for q in range(len(weights))], 2 if f.level else None)]
    nodes.append(UNIFORM_BIT)
    for layer in reversed(f.top.stack()[1:]):
        below = counts[layer.level - 1]
        child = len(nodes) + layer.num_states if layer.level > 1 else None
        pairs: list[list[tuple[int, int]]] = [[] for _ in range(layer.num_states)]
        for a, row in enumerate(layer.table):
            for b, q in enumerate(row):
                pairs[q].append((a, b))
        nodes += [node([below[a] * below[b] for a, b in p], p, child) for p in pairs]
    return tuple(nodes)


def sample(f: Tidd, rng: Random) -> tuple[int, ...]:
    """Draw one assignment with probability proportional to its value.

    Walks the draw plan from node 0, depth first, left subtree before right.
    Each node's draw is ``rng.randrange(total)`` inlined as CPython 3.10-3.13
    runs it for a ``Random``: ``getrandbits(total.bit_length())`` until the
    value is below the total, so the draws match that call's bit for bit.
    """
    nodes = draw_plan(f)
    getrandbits = rng.getrandbits
    out: list[int] = []
    pending = [0]
    pop, push, emit = pending.pop, pending.extend, out.extend
    while pending:
        cums, total, k, children, bits = nodes[pop()]
        r = getrandbits(k)
        while r >= total:
            r = getrandbits(k)
        (emit if bits else push)(children[bisect_right(cums, r)])
    return tuple(out)
