"""Path counting and weighted sampling.

The path count of a state q is the number of fixed-length bit strings whose
assignment trees drive the automaton to q.  Counts are arbitrary-precision:
at level l the top counts partition 2**(2**l), which exceeds machine words
at l >= 6.

Sampling draws an assignment with probability proportional to its value: a
top state is drawn by weight W(q) = V(q) * pathcount(q), then one incoming
transition per level, then uniform bits at DontCare leaves.  Draws against
irrational exact weights use fixed-point approximations of the cumulative
weights, with ``values.FIXED_POINT_BITS`` (128) mantissa bits over one common
denominator; sign checks stay exact.

Each rests on its own product per top layer, cached on the manager.  Path
counts take one pass per table and build nothing else: level-0 Fork states
count 1 each, a DontCare counts 2, and a state above counts pathcount(a) *
pathcount(b) over its incoming (a, b) transitions (canonical tables have no
gaps, so every count is positive).  The draw plan, built on a layer's first
``sample``, is one flat tuple of nodes, one per state at levels >= 1, top
level first, so top state q is node q.  A node holds the cumulative weights
of its incoming transitions, their total and its bit length, the child node
ids of each transition in push order (b, a), or its two leaf bits at level 1,
and the leaf layer's state count at level 1 (0 above).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from random import Random

from .core import DRAW_PLAN, PATH_COUNTS, Layer, Manager, Tidd
from .errors import NegativeWeight, ZeroDistribution

PathCountAnnotation = tuple[tuple[int, ...], ...]
# (cumulative weights, total, total.bit_length(), children, leaf states)
PlanNode = tuple[tuple[int, ...], int, int, tuple[tuple[int, int], ...], int]


def layer_path_counts(top: Layer) -> PathCountAnnotation:
    """Counts per level (level 0 first), cached on the manager."""
    return top.manager.memo(PATH_COUNTS, _path_counts, top)


def _path_counts(mgr: Manager, top: Layer) -> PathCountAnnotation:
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


def draw_plan(top: Layer) -> tuple[PlanNode, ...]:
    """The draw plan of a level >= 1 top layer, cached on the manager."""
    return top.manager.memo(DRAW_PLAN, _draw_plan, top)


def _draw_plan(mgr: Manager, top: Layer) -> tuple[PlanNode, ...]:
    counts = layer_path_counts(top)
    leaf_states = len(counts[0])
    nodes: list[PlanNode] = []
    for layer in reversed(top.stack()[1:]):
        below = counts[layer.level - 1]
        child = len(nodes) + layer.num_states  # node id of state 0 one level down
        leaves = leaf_states if layer.level == 1 else 0
        children: list[list[tuple[int, int]]] = [[] for _ in range(layer.num_states)]
        weights: list[list[int]] = [[] for _ in range(layer.num_states)]
        for a, row in enumerate(layer.table):
            for b, q in enumerate(row):
                children[q].append((a, b) if leaves else (child + b, child + a))
                weights[q].append(below[a] * below[b])
        for pairs, ws in zip(children, weights):
            cums = tuple(accumulate(ws))
            nodes.append((cums, cums[-1], cums[-1].bit_length(), tuple(pairs), leaves))
    return tuple(nodes)


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
    counts = top_path_counts(f)
    k = max(v.k for v in f.values)
    weights = []
    for v, c in zip(f.values, counts):
        if v.sign() < 0:
            raise NegativeWeight(f"top value {v!r} is negative")
        weights.append((v.fixed_point() << (k - v.k)) * c)
    return weights


def sample(f: Tidd, rng: Random) -> tuple[int, ...]:
    """Draw one assignment with probability proportional to its value.

    Depth first, left subtree before right: one draw per visited state, over
    its incoming transitions, then one bit per DontCare leaf.  Each draw
    below the top is ``rng.randrange(total)`` inlined as CPython 3.10-3.13
    runs it for a ``Random``: ``getrandbits(total.bit_length())`` until the
    value is below the total, so the draws match that call's bit for bit.
    """
    weights = sample_weights(f)
    if not any(weights):
        raise ZeroDistribution("all top-state weights are zero")
    cum = list(accumulate(weights))
    top = bisect_right(cum, rng.randrange(cum[-1]))
    if f.level == 0:
        return (top if f.top.num_states == 2 else rng.randrange(2),)
    nodes = draw_plan(f.top)
    getrandbits, randrange = rng.getrandbits, rng.randrange
    out: list[int] = []
    leaf_bits, append = out.extend, out.append
    pending = [top]
    pop, push = pending.pop, pending.extend
    while pending:
        cums, total, k, children, leaves = nodes[pop()]
        r = getrandbits(k)
        while r >= total:
            r = getrandbits(k)
        pair = children[bisect_right(cums, r)]
        if not leaves:
            push(pair)
        elif leaves == 2:
            leaf_bits(pair)
        else:
            append(randrange(2))
            append(randrange(2))
    return tuple(out)
