"""Shared test utilities: independent dense linear algebra and generators.

The dense gate/statevector machinery here is deliberately separate from the
package's own tensor pipeline: grids are plain lists of ring values built by
textbook Kronecker products, and statevectors are plain lists updated one
amplitude pair at a time, so circuit tests check the diagram path against
an implementation that shares nothing but the scalar type.

``benchmark_run`` is the one exception: a package benchmark run, cached so
that tests checking the same run simulate it once per session.
``reference_sample`` is the sampler that ``analysis.sample`` replaced, kept
so that tests can require the same draws from both, and
``reference_reduce_stack`` is the two-pass reduction that ``ops.reduce_stack``
replaced, which reads and fills no cache.
"""

from bisect import bisect_right
from functools import cache
from itertools import accumulate
from random import Random

from tidd import Manager, Value, as_value
from tidd.bench import run_benchmark
from tidd.core import first_occurrence
from tidd.values import SQRT2_HALF

S = SQRT2_HALF
V0 = Value(0, 0)
V1 = Value(1, 0)

GRID_2X2 = {
    "h": [[S, S], [S, -S]],
    "x": [[V0, V1], [V1, V0]],
    "z": [[V1, V0], [V0, -V1]],
    "i": [[V1, V0], [V0, V1]],
    "p0": [[V1, V0], [V0, V0]],
    "p1": [[V0, V0], [V0, V1]],
}


def _times(x, y):
    """x * y, with an exact 0 or 1 factor placed rather than multiplied."""
    if x == V0 or y == V0:
        return V0
    if x == V1:
        return y
    return x if y == V1 else x * y


def grid_kron(a, b):
    return [[_times(x, y) for x in row_a for y in row_b] for row_a in a for row_b in b]


def grid_matvec(a, v):
    side = len(a)
    return [sum((a[r][k] * v[k] for k in range(side)), V0) for r in range(side)]


def grid_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_gate_grid(kind, targets, n):
    """Textbook n-qubit gate matrix as a 2**n x 2**n grid of ring values."""
    def chain(factors):
        grid = factors[0]
        for f in factors[1:]:
            grid = grid_kron(grid, f)
        return grid

    identity = GRID_2X2["i"]
    if kind in ("h", "x", "z", "i"):
        (t,) = targets
        return chain([GRID_2X2[kind] if q == t else identity for q in range(n)])
    control, target = targets
    flip = GRID_2X2["x"] if kind == "cnot" else GRID_2X2["z"]
    branch0 = chain(
        [GRID_2X2["p0"] if q == control else identity for q in range(n)]
    )
    branch1 = chain(
        [
            GRID_2X2["p1"] if q == control else (flip if q == target else identity)
            for q in range(n)
        ]
    )
    return grid_add(branch0, branch1)


def dense_gate_apply(kind, targets, n, vec):
    """One gate on a dense statevector, as a 2x2 update of each amplitude pair.

    Qubit q is bit n-1-q of the amplitude index (qubit 0 is the leftmost
    tensor factor).  A single-qubit gate mixes each pair of amplitudes that
    differ only in its target bit; a controlled gate mixes only the pairs
    whose control bit is set.  O(2**n) ring operations, against the 4**n of
    ``grid_matvec`` over ``dense_gate_grid``, which tests compare it with.
    """
    if kind in ("h", "x", "z", "i"):
        (target,) = targets
        control_mask = 0
    else:
        control, target = targets
        control_mask = 1 << (n - 1 - control)
        kind = "x" if kind == "cnot" else "z"
    (m00, m01), (m10, m11) = GRID_2X2[kind]
    bit = 1 << (n - 1 - target)
    out = list(vec)
    for i in range(1 << n):
        if i & bit or (i & control_mask) != control_mask:
            continue
        u, v = vec[i], vec[i | bit]
        out[i] = m00 * u + m01 * v
        out[i | bit] = m10 * u + m11 * v
    return out


def simulate_dense(gates, n, start_bits=None):
    """Run a gate list on a dense statevector of ring values."""
    if start_bits is None:
        start_bits = (0,) * n
    index = 0
    for b in start_bits:
        index = (index << 1) | int(b)
    vec = [V0] * (1 << n)
    vec[index] = V1
    for g in gates:
        vec = dense_gate_apply(g.kind, g.targets, g.qubits, vec)
    return vec


@cache
def benchmark_run(algo, qubits, seed):
    """``run_benchmark`` on a fresh Manager, simulated once per session."""
    return run_benchmark(Manager(), algo, qubits, seed)


def matrix_assignment(rows, cols):
    """The interleaved assignment <x0, y0, x1, y1, ...> of row and column bits."""
    return [b for pair in zip(rows, cols) for b in pair]


def bits_of(index, width):
    return tuple((index >> (width - 1 - j)) & 1 for j in range(width))


def random_truth_table(rng: Random, level: int, values=(0, 1, 2, -1)):
    return [as_value(rng.choice(values)) for _ in range(1 << (1 << level))]


def random_raw_table(rng: Random, side: int, parents: int):
    """A total, surjective (not necessarily canonical) transition table."""
    cells = side * side
    entries = list(range(parents))
    entries += [rng.randrange(parents) for _ in range(cells - parents)]
    rng.shuffle(entries)
    return tuple(
        tuple(entries[r * side + c] for c in range(side)) for r in range(side)
    )


def tv_distance(histogram, exact_probs, shots):
    """Total-variation distance between empirical and exact distributions."""
    keys = set(histogram) | set(exact_probs)
    return 0.5 * sum(
        abs(histogram.get(k, 0) / shots - exact_probs.get(k, 0.0)) for k in keys
    )


def reference_sample(f, rng):
    """The depth-first sampler that ``analysis.sample`` replaced, kept as its
    draw reference.

    It builds each state's incoming (a, b) pairs with cumulative weights
    pathcount(a) * pathcount(b) from the tables, draws the top state by
    weight V(q) * pathcount(q), then one ``rng.randrange`` per visited state
    and per DontCare leaf, left subtree before right.
    """
    layers = f.top.stack()
    counts = [(1, 1) if layers[0].num_states == 2 else (2,)]
    incoming = [()]
    for layer in layers[1:]:
        below = counts[-1]
        pairs = [[] for _ in range(layer.num_states)]
        cums = [[] for _ in range(layer.num_states)]
        for a, row in enumerate(layer.table):
            for b, q in enumerate(row):
                cums[q].append((cums[q][-1] if cums[q] else 0) + below[a] * below[b])
                pairs[q].append((a, b))
        counts.append(tuple(cum[-1] for cum in cums))
        incoming.append(tuple(zip(pairs, cums)))
    k = max(v.k for v in f.values)
    weights = [(v.fixed_point() << (k - v.k)) * c for v, c in zip(f.values, counts[-1])]
    top = list(accumulate(weights))
    out = []
    pending = [(f.level, bisect_right(top, rng.randrange(top[-1])))]
    while pending:
        level, state = pending.pop()
        if level == 0:
            out.append(state if len(counts[0]) == 2 else rng.randrange(2))
            continue
        pairs, cum = incoming[level][state]
        a, b = pairs[bisect_right(cum, rng.randrange(cum[-1]))]
        pending.append((level - 1, b))
        pending.append((level - 1, a))
    return tuple(out)


def _merged_sum(triples):
    """A formal sum in canonical form: equal (q, p) pairs add, pairs ascend."""
    acc = {}
    for q, p, w in triples:
        acc[q, p] = acc.get((q, p), 0) + w
    return tuple((q, p, w) for (q, p), w in sorted(acc.items()))


def reference_product_stack(a, b, dead_a, dead_b):
    """Brute-force product stack of two same-level operand layers.

    Returns one (table, formal sums) pair per level from 1 up.  At level 1,
    cell (i, j) merges (a-state of (i, k), b-state of (k, j), 1) over the
    inner bit k.  Above, cell (left, right) merges every
    (ta[qa][qb], tb[pa][pb], wa * wb) over the triples of the left and right
    child sums.  After the merge, a cell drops each triple whose a-state is
    in ``dead_a[level]`` or whose b-state is in ``dead_b[level]``.  States
    are numbered in row-major first occurrence.
    """
    if a.level == 1:
        sa = (0, a.child.num_states - 1)
        sb = (0, b.child.num_states - 1)
        cells = [
            [[(a.table[sa[i]][sa[k]], b.table[sb[k]][sb[j]], 1) for k in (0, 1)]
             for j in (0, 1)]
            for i in (0, 1)
        ]
        levels = []
    else:
        levels = reference_product_stack(a.child, b.child, dead_a, dead_b)
        child_sums = levels[-1][1]
        cells = [
            [
                [
                    (a.table[qa][qb], b.table[pa][pb], wa * wb)
                    for qa, pa, wa in left
                    for qb, pb, wb in right
                ]
                for right in child_sums
            ]
            for left in child_sums
        ]
    dead_q, dead_p = dead_a[a.level], dead_b[b.level]
    index = {}
    table = tuple(
        tuple(
            index.setdefault(
                tuple(
                    (q, p, w)
                    for q, p, w in _merged_sum(cell)
                    if q not in dead_q and p not in dead_p
                ),
                len(index),
            )
            for cell in row
        )
        for row in cells
    )
    return levels + [(table, tuple(index))]


def reference_reduce_stack(top, top_classes):
    """Two-pass reduction of a layer stack under a merge of its top states.

    Top-down, each level's classes are the first-occurrence numbering of
    its states' (mapped row, mapped column) signatures under the classes
    above; bottom-up, each new table is read at one member per class.
    Returns the new top layer and the class map of every level, level 0
    first, as ``reduce_stack`` does.
    """
    layers = top.stack()
    class_of = [()] * (top.level + 1)
    class_of[-1] = tuple(top_classes)
    mapped_rows = [()] * (top.level + 1)
    for i in range(top.level, 0, -1):
        mapped = [tuple(class_of[i][e] for e in row) for row in layers[i].table]
        mapped_rows[i] = mapped
        class_of[i - 1], _ = first_occurrence(zip(mapped, zip(*mapped)))
    mgr = top.manager
    new_layer = mgr.fork() if class_of[0] == (0, 1) else mgr.dontcare()
    for i in range(1, top.level + 1):
        members = list({c: q for q, c in enumerate(class_of[i - 1])}.values())
        rows = [[mapped_rows[i][q][r] for r in members] for q in members]
        new_layer = mgr.intern_layer(new_layer, rows)
    return new_layer, class_of
