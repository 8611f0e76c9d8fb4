"""Path counting and weighted sampling.

The path count of a state q is the number of fixed-length bit strings whose
assignment trees drive the automaton to q.  Counts are computed bottom-up
(level-0 Fork states count 1 each, a DontCare counts 2; above, each state
sums the products of child counts over its incoming transitions) and cached
per layer handle.  Counts are arbitrary-precision: at level l the top counts
partition 2**(2**l), which exceeds machine words at l >= 6.

Sampling draws an assignment with probability proportional to its value: a
top state is drawn by weight W(q) = V(q) * pathcount(q), then one incoming
transition per level, then uniform bits at DontCare leaves.  Draws against
irrational exact weights use 128-bit-mantissa fixed-point approximations of
the cumulative weights over one common denominator; sign checks stay exact.
"""

from __future__ import annotations

from random import Random

from .core import FORK, PATH_COUNTS, Layer, Tidd
from .errors import NegativeWeight, ZeroDistribution

PathCountAnnotation = tuple[tuple[int, ...], ...]

_FIXED_POINT_BITS = 128


def layer_path_counts(top: Layer) -> PathCountAnnotation:
    """Counts per level (level 0 first), cached on the manager."""
    mgr = top.manager
    hit = mgr.lookup(mgr.path_count_cache, top, PATH_COUNTS)
    if hit is not None:
        return hit
    layers = top.stack()
    leaf = layers[0]
    per_level: list[tuple[int, ...]] = [(1, 1) if leaf.kind == FORK else (2,)]
    for layer in layers[1:]:
        below = per_level[-1]
        counts = [0] * layer.num_states
        for a, row in enumerate(layer.table):
            for b, q in enumerate(row):
                counts[q] += below[a] * below[b]
        per_level.append(tuple(counts))
    result = tuple(per_level)
    mgr.path_count_cache[top] = result
    return result


def path_counts(f: Tidd) -> PathCountAnnotation:
    """Exact |assignments reaching each state|, per level; top sums to 2**(2**l)."""
    return layer_path_counts(f.top)


def top_path_counts(f: Tidd) -> tuple[int, ...]:
    return layer_path_counts(f.top)[-1]


def sample_weights(f: Tidd) -> list[int]:
    """Fixed-point top-state weights W(q) = V(q) * pathcount(q).

    All weights share the denominator 2**(128 + k), k the largest top-value
    exponent.  Raises NegativeWeight if any top value is exactly negative.
    """
    counts = top_path_counts(f)
    k = max(v.k for v in f.values)
    weights = []
    for v, c in zip(f.values, counts):
        if v.sign() < 0:
            raise NegativeWeight(f"top value {v!r} is negative")
        weights.append((v.fixed_point(_FIXED_POINT_BITS) << (k - v.k)) * c)
    return weights


def _draw(rng: Random, weights: list[int]) -> int:
    total = sum(weights)
    r = rng.randrange(total)
    acc = 0
    for i, w in enumerate(weights):
        acc += w
        if r < acc:
            return i
    return len(weights) - 1


def sample(f: Tidd, rng: Random) -> tuple[int, ...]:
    """Draw one assignment with probability proportional to its value."""
    weights = sample_weights(f)
    if not any(weights):
        raise ZeroDistribution("all top-state weights are zero")
    layers = f.top.stack()
    per_level = layer_path_counts(f.top)

    def walk(level: int, state: int) -> list[int]:
        if level == 0:
            if layers[0].kind == FORK:
                return [state]
            return [rng.randrange(2)]
        below = per_level[level - 1]
        table = layers[level].table
        incoming = []
        trans_weights = []
        for a, row in enumerate(table):
            for b, q in enumerate(row):
                if q == state:
                    incoming.append((a, b))
                    trans_weights.append(below[a] * below[b])
        a, b = incoming[_draw(rng, trans_weights)]
        return walk(level - 1, a) + walk(level - 1, b)

    top_state = _draw(rng, weights)
    return tuple(walk(f.level, top_state))
