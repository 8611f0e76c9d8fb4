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

Both rest on one index per top layer, built bottom-up in one pass per level
and cached on the manager: every state's incoming (a, b) transitions with
their cumulative weights pathcount(a) * pathcount(b).  A state's path count
is its last cumulative weight (canonical tables have no gaps, so every state
has an incoming transition); level-0 Fork states count 1 each, a DontCare
counts 2.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from random import Random

from .core import PATH_COUNTS, Layer, Manager, Tidd
from .errors import NegativeWeight, ZeroDistribution

PathCountAnnotation = tuple[tuple[int, ...], ...]
# Per state of one layer: its incoming (a, b) pairs in row-major order and
# their cumulative weights pathcount(a) * pathcount(b).
Incoming = tuple[tuple[tuple[tuple[int, int], ...], tuple[int, ...]], ...]
LayerIndex = tuple[PathCountAnnotation, tuple[Incoming, ...]]


def layer_index(top: Layer) -> LayerIndex:
    """Path counts per level and the incoming index of every level (level 0
    first, holding no transitions), cached on the manager."""
    return top.manager.memo(PATH_COUNTS, _index, top)


def _index(mgr: Manager, top: Layer) -> LayerIndex:
    layers = top.stack()
    per_level: list[tuple[int, ...]] = [(1, 1) if layers[0].num_states == 2 else (2,)]
    levels: list[Incoming] = [()]
    for layer in layers[1:]:
        below = per_level[-1]
        pairs: list[list[tuple[int, int]]] = [[] for _ in range(layer.num_states)]
        cums: list[list[int]] = [[] for _ in range(layer.num_states)]
        for a, row in enumerate(layer.table):
            for b, q in enumerate(row):
                cum = cums[q]
                cum.append((cum[-1] if cum else 0) + below[a] * below[b])
                pairs[q].append((a, b))
        per_level.append(tuple(cum[-1] for cum in cums))
        levels.append(tuple(zip(map(tuple, pairs), map(tuple, cums))))
    return tuple(per_level), tuple(levels)


def layer_path_counts(top: Layer) -> PathCountAnnotation:
    """Counts per level (level 0 first), cached on the manager."""
    return layer_index(top)[0]


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


def _draw(rng: Random, weights: list[int]) -> int:
    cum = list(accumulate(weights))
    return bisect_right(cum, rng.randrange(cum[-1]))


def sample(f: Tidd, rng: Random) -> tuple[int, ...]:
    """Draw one assignment with probability proportional to its value.

    Depth first, left subtree before right: one draw per visited state, over
    its incoming transitions, then one bit per DontCare leaf.
    """
    weights = sample_weights(f)
    if not any(weights):
        raise ZeroDistribution("all top-state weights are zero")
    counts, levels = layer_index(f.top)
    fork = len(counts[0]) == 2
    out: list[int] = []
    pending = [(f.level, _draw(rng, weights))]
    while pending:
        level, state = pending.pop()
        if level == 0:
            out.append(state if fork else rng.randrange(2))
            continue
        pairs, cum = levels[level][state]
        a, b = pairs[bisect_right(cum, rng.randrange(cum[-1]))]
        pending.append((level - 1, b))
        pending.append((level - 1, a))
    return tuple(out)
