from random import Random

import pytest

from tidd import (
    AND,
    FIRST,
    OR,
    PLUS,
    TIMES,
    Tidd,
    Value,
    XOR,
    apply,
    constant,
    equal,
    equality_relation,
    from_truth_table,
    hadamard_family,
    kronecker,
    projection,
    scalar_multiply,
    validate,
)
from tidd import linalg, ops
from tidd.bench import run_benchmark
from tidd.builders import exact_string_proto
from tidd.core import first_occurrence
from tidd.errors import LevelMismatch, ValueDomainError
from tidd.ops import canonical_tidd, pair_product, reduce_stack, reduce_tidd
from tidd.oracle import (
    dense_apply,
    dense_from_tidd,
    dense_kron,
    exhaustive_equiv,
    random_equivalence_case,
)
from tidd.values import ZERO, BinaryOp, SQRT2_HALF, as_value

from helpers import random_raw_table, random_truth_table, reference_reduce_stack


def test_pair_product_level0_table(mgr):
    fork, dc = mgr.fork(), mgr.dontcare()
    layer, meta = pair_product(dc, dc)
    assert layer is dc and meta == ((0, 0),)
    layer, meta = pair_product(fork, dc)
    assert layer is fork and meta == ((0, 0), (1, 0))
    layer, meta = pair_product(dc, fork)
    assert layer is fork and meta == ((0, 0), (0, 1))
    layer, meta = pair_product(fork, fork)
    assert layer is fork and meta == ((0, 0), (1, 1))


def test_pair_product_diagonal_on_self(mgr):
    f = hadamard_family(mgr, 3)
    layer = f.top
    while layer is not None:
        _, meta = pair_product(layer, layer)
        assert all(q == p for q, p in meta)
        layer = layer.child


def test_pair_product_count_bound(mgr):
    rng = Random(5)
    for _ in range(100):
        level = rng.randint(1, 3)
        a = from_truth_table(mgr, level, random_truth_table(rng, level))
        b = from_truth_table(mgr, level, random_truth_table(rng, level))
        la, lb = a.top, b.top
        while la is not None:
            layer, meta = pair_product(la, lb)
            assert layer.num_states == len(meta)
            assert layer.num_states <= la.num_states * lb.num_states
            la, lb = la.child, lb.child


def test_pair_product_memoized(mgr):
    a = hadamard_family(mgr, 2)
    b = equality_relation(mgr, 2)
    pair_product(a.top, b.top)
    misses = mgr.stats["pair_product_misses"]
    layer1, _ = pair_product(a.top, b.top)
    layer2, _ = pair_product(a.top, b.top)
    assert layer1 is layer2
    assert mgr.stats["pair_product_misses"] == misses
    assert mgr.stats["pair_product_hits"] >= 2


def test_pair_product_level_mismatch(mgr):
    with pytest.raises(LevelMismatch):
        pair_product(hadamard_family(mgr, 1).top, hadamard_family(mgr, 2).top)


def test_reduce_idempotent_on_canonical(mgr):
    for f in (
        hadamard_family(mgr, 3),
        equality_relation(mgr, 2),
        constant(mgr, 2, 4),
        projection(mgr, 3, 2),
    ):
        g = reduce_tidd(f)
        assert g.top is f.top
        assert g.values == f.values


def test_reduce_stack_keeps_a_minimal_stack(mgr):
    fs = (
        hadamard_family(mgr, 3),
        equality_relation(mgr, 2),
        constant(mgr, 2, 4),
        projection(mgr, 3, 2),
    )
    size = len(mgr._layers)
    for f in fs:
        classes, _ = first_occurrence(f.values)
        top, maps = reduce_stack(f.top, classes)
        assert top is f.top and len(mgr._layers) == size  # no new layer
        assert maps == [tuple(range(layer.num_states)) for layer in f.top.stack()]


def test_reduce_stack_numbers_states_with_ints(mgr):
    # classes of 1.0 pass the first-occurrence check, as 1.0 == 1; the stack
    # is reduced under the int numbers, so no float reaches a layer
    top, maps = reduce_stack(exact_string_proto(mgr, 2), [0] + [1.0] * 15)
    for layer in top.stack():
        assert type(layer.num_states) is int
        if not layer.is_leaf():
            assert all(type(entry) is int for row in layer.table for entry in row)
    assert all(type(c) is int for level_map in maps for c in level_map)
    assert from_truth_table(mgr, 2, [0] + [1] * 15).top is top


def test_reduce_merges_fork_to_dontcare(mgr):
    # a redundant fork-based stack collapses to the constant diagram
    layer = mgr.intern_layer(mgr.fork(), ((0, 0), (0, 0)))
    f = canonical_tidd(layer, [Value(7, 0)])
    assert equal(f, constant(mgr, 1, 7))


def separates_by_brute_force(layer):
    """validate's 2(v): no two child states share both their row and their column."""
    table = layer.table
    side = len(table)
    return not any(
        table[j] == table[k] and all(row[j] == row[k] for row in table)
        for j in range(side)
        for k in range(j + 1, side)
    )


def test_circuit_reductions_match_the_reference_and_brute_force_separation(mgr):
    for algo, n in (("ghz", 64), ("bv", 16)):
        run_benchmark(mgr, algo, n)
    layers = list(mgr._layers.values())
    learned = dict(mgr.reduce_cache)
    # the runs stored layers that reduce to themselves and layers that do not
    assert {new is layer for (layer, _), (new, _) in learned.items()} == {True, False}
    for (layer, classes), (new, maps) in learned.items():
        expected, expected_maps = reference_reduce_stack(layer, classes)
        assert new is expected and list(maps) == expected_maps, layer
    for layer in layers:  # under singleton classes, the child's are singletons iff it separates
        _, maps = reduce_stack(layer, range(layer.num_states))
        separates = len(set(maps[-2])) == layer.child.num_states
        assert separates == separates_by_brute_force(layer), layer


def test_reduce_merges_below_a_table_that_does_not_separate(mgr, monkeypatch):
    # level-1 states 1 and 2 share row (2, 3, 3) and column (1, 3, 3) of the top
    level1 = mgr.intern_layer(mgr.fork(), ((0, 1), (2, 0)))
    top = mgr.intern_layer(level1, ((0, 1, 1), (2, 3, 3), (2, 3, 3)))
    values = [Value(v, 0) for v in range(4)]
    new_top, maps = reduce_stack(top, (0, 1, 2, 3))
    assert all(layer is not top for layer, _ in mgr.reduce_cache)  # a top is not memoized
    assert maps[1] == (0, 1, 1)
    assert new_top.table == ((0, 1), (2, 3))
    f = Tidd(new_top, tuple(values))
    assert validate(f).ok
    assert exhaustive_equiv(f, dense_from_tidd(Tidd(top, tuple(values))))

    # below a top that separates its four states, the table keeps its reduction
    above = mgr.intern_layer(top, [[4 * j + k for k in range(4)] for j in range(4)])
    values = [Value(v, 0) for v in range(16)]
    interned = []
    intern = mgr._intern
    monkeypatch.setattr(mgr, "_intern", lambda *args: interned.append(args) or intern(*args))
    # level 1's reduction is a hit, and level 2 rebuilds the table interned
    # above: only the new top is new; then level 2's reduction is a hit
    for rebuilt, grown in ((2, 1), (1, 0)):
        interned.clear()
        size = len(mgr._layers)
        new_above, maps = reduce_stack(above, range(16))
        assert len(interned) == rebuilt
        assert len(mgr._layers) - size == grown
        assert mgr.reduce_cache[top, (0, 1, 2, 3)] == (new_above.child, tuple(maps[:-1]))
        assert maps[1] == (0, 1, 1)
        assert new_above.child.table == ((0, 1), (2, 3))
        f = Tidd(new_above, tuple(values))
        assert validate(f).ok
        assert exhaustive_equiv(f, dense_from_tidd(Tidd(above, tuple(values))))


def assert_reduces_as_reference(top, classes):
    """``reduce_stack`` and the reference agree on the new top and every class map."""
    expected, expected_maps = reference_reduce_stack(top, classes)
    new_top, maps = reduce_stack(top, classes)
    assert new_top is expected
    assert maps == expected_maps
    return new_top, maps


def test_reduce_stack_matches_reference_on_circuit_product_stacks(mgr, monkeypatch):
    stacks, hits = [], []

    def checked(top, raw_values):
        classes, _ = first_occurrence(map(as_value, raw_values))
        before = mgr.stats["reduce_hits"]
        assert_reduces_as_reference(top, classes)
        hits.append(mgr.stats["reduce_hits"] > before)
        stacks.append(top)
        return canonical_tidd(top, raw_values)

    monkeypatch.setattr(linalg, "canonical_tidd", checked)
    for algo in ("ghz", "bv"):
        run_benchmark(mgr, algo, 8)
    assert len(stacks) > 20 and 0 < sum(hits) < len(hits)


def test_reduce_stack_alternating_class_maps_match_the_reference(mgr):
    rng = Random(23)
    tops = [_raw_canonical_stack(mgr, rng, 3) for _ in range(40)]
    tops += [f.top for f in (hadamard_family(mgr, 3), equality_relation(mgr, 3))]
    differ = 0
    for top in tops:
        merged = (0,) * top.num_states
        singletons = tuple(range(top.num_states))
        for _ in range(2):  # the second pass reads what the first stored
            _, apart = assert_reduces_as_reference(top, singletons)
            _, together = assert_reduces_as_reference(top, merged)
        differ += apart[-2] != together[-2]
    assert differ >= 10


def test_reduce_output_validates_random(mgr):
    rng = Random(6)
    for _ in range(200):
        level = rng.randint(1, 3)
        f, _ = random_equivalence_case(mgr, rng, level)
        assert validate(f).ok
        g = reduce_tidd(f)
        assert g.top is f.top and g.values == f.values


def _raw_canonical_stack(mgr, rng, level):
    """A random stack of canonical tables, usually not minimal."""
    layer = rng.choice((mgr.fork(), mgr.dontcare()))
    for _ in range(level):
        side = layer.num_states
        raw = random_raw_table(rng, side, rng.randint(1, min(side * side, 6)))
        layer, _ = mgr.intern_cells(layer, [e for row in raw for e in row])
    return layer


def test_reduce_raw_canonical_stacks_random(mgr):
    rng = Random(11)
    for _ in range(300):
        top = _raw_canonical_stack(mgr, rng, rng.randint(1, 3))
        raw_values = [Value(rng.randint(0, 2), 0) for _ in range(top.num_states)]
        f = canonical_tidd(top, raw_values)
        assert validate(f).ok
        assert exhaustive_equiv(f, dense_from_tidd(Tidd(top, tuple(raw_values))))

        classes, _ = first_occurrence(raw_values)
        new_top, maps = assert_reduces_as_reference(top, classes)  # reads the slots just filled
        assert new_top is f.top
        assert maps[-1] == classes
        for new, m in zip(new_top.stack(), maps):
            assert first_occurrence(m)[0] == m  # numbered by first occurrence
            assert len(set(m)) == new.num_states
        for old, new, below, m in zip(top.stack()[1:], new_top.stack()[1:], maps, maps[1:]):
            # the maps carry every old transition onto the new table
            for j, row in enumerate(old.table):
                for k, e in enumerate(row):
                    assert new.table[below[j]][below[k]] == m[e]


def test_apply_and_projections(mgr):
    f = apply(AND, projection(mgr, 1, 0), projection(mgr, 1, 1))
    assert [v for v in dense_from_tidd(f).outputs] == [
        Value(0, 0),
        Value(0, 0),
        Value(0, 0),
        Value(1, 0),
    ]


def test_apply_plus_hadamard(mgr):
    h = hadamard_family(mgr, 1)
    s = apply(PLUS, h, h)
    assert set(s.values) == {Value(2, 0), Value(-2, 0)}
    assert s.top is h.top  # same state structure, doubled values


def test_apply_times_absorbing_zero(mgr):
    rng = Random(8)
    zero = constant(mgr, 2, 0)
    for _ in range(10):
        f = from_truth_table(mgr, 2, random_truth_table(rng, 2))
        assert equal(apply(TIMES, f, zero), zero)


def test_apply_first(mgr):
    f = projection(mgr, 2, 1)
    g = hadamard_family(mgr, 2)
    assert equal(apply(FIRST, f, g), f)


def test_apply_pointwise_matches_oracle(mgr):
    rng = Random(9)
    ops = (AND, OR, XOR, PLUS, TIMES)
    for level in (1, 2, 3):
        for _ in range(20):
            ta = random_truth_table(rng, level, values=(0, 1))
            tb = random_truth_table(rng, level, values=(0, 1))
            a = from_truth_table(mgr, level, ta)
            b = from_truth_table(mgr, level, tb)
            op = rng.choice(ops)
            result = apply(op, a, b)
            expected = dense_apply(
                op, dense_from_tidd(a), dense_from_tidd(b)
            )
            assert dense_from_tidd(result).outputs == expected.outputs


def test_apply_commutative_handles(mgr):
    rng = Random(10)
    for _ in range(25):
        a = from_truth_table(mgr, 2, random_truth_table(rng, 2))
        b = from_truth_table(mgr, 2, random_truth_table(rng, 2))
        assert equal(apply(PLUS, a, b), apply(PLUS, b, a))
        assert equal(apply(TIMES, a, b), apply(TIMES, b, a))


def test_apply_level_mismatch(mgr):
    with pytest.raises(LevelMismatch):
        apply(PLUS, constant(mgr, 1, 1), constant(mgr, 2, 1))


def test_apply_boolean_op_on_nonboolean(mgr):
    with pytest.raises(ValueDomainError):
        apply(AND, constant(mgr, 1, 2), constant(mgr, 1, 1))


def test_apply_memo_tells_same_named_operations_apart(mgr):
    f, g = constant(mgr, 1, 2), constant(mgr, 1, 3)
    assert apply(PLUS, f, g).values == (Value(5, 0),)
    product = BinaryOp("plus", lambda u, v: u * v)  # PLUS's name, another function
    assert apply(product, f, g).values == (Value(6, 0),)
    assert apply(PLUS, f, g).values == (Value(5, 0),)
    assert (mgr.stats["apply_hits"], mgr.stats["apply_misses"]) == (1, 2)


def test_scalar_multiply(mgr):
    h = hadamard_family(mgr, 2)
    assert equal(scalar_multiply(1, h), h)
    assert equal(scalar_multiply(0, h), constant(mgr, 2, 0))
    doubled = scalar_multiply(2, hadamard_family(mgr, 1))
    dense = dense_from_tidd(doubled)
    assert [v for v in dense.outputs] == [
        Value(2, 0),
        Value(2, 0),
        Value(2, 0),
        Value(-2, 0),
    ]


SCALARS = (0, 1, -1, 2, SQRT2_HALF)


def test_scalar_multiply_equals_times_a_constant(mgr):
    rng = Random(17)
    operands = [from_truth_table(mgr, level, random_truth_table(rng, level))
                for level in (0, 1, 2, 3) for _ in range(4)]
    operands += [hadamard_family(mgr, 5), equality_relation(mgr, 5)]
    for f in operands:
        for c in SCALARS:
            scaled = scalar_multiply(c, f)
            expected = apply(TIMES, f, constant(mgr, f.level, c))
            assert scaled.top is expected.top and scaled.values == expected.values


def test_scalar_multiply_adds_no_cache_entry(mgr):
    f = hadamard_family(mgr, 3)
    for c in SCALARS:
        before = len(mgr.apply_cache), len(mgr.pair_cache)
        scalar_multiply(c, f)
        assert (len(mgr.apply_cache), len(mgr.pair_cache)) == before


def test_kronecker_hadamard(mgr):
    h1 = hadamard_family(mgr, 1)
    assert equal(kronecker(h1, h1), hadamard_family(mgr, 2))


def test_kronecker_unit_factor(mgr):
    rng = Random(12)
    one = constant(mgr, 2, 1)
    for _ in range(5):
        f = from_truth_table(mgr, 2, random_truth_table(rng, 2))
        k = kronecker(f, one)
        dense_f = dense_from_tidd(f)
        dense_k = dense_from_tidd(k)
        # evaluating on w || w' ignores w'
        for w in range(16):
            for w2 in range(16):
                assert dense_k.outputs[(w << 4) | w2] == dense_f.outputs[w]


def test_kronecker_matches_dense(mgr):
    rng = Random(13)
    pairs = []
    for level in (0, 1, 2):
        for _ in range(10):
            a = from_truth_table(mgr, level, random_truth_table(rng, level))
            b = from_truth_table(mgr, level, random_truth_table(rng, level))
            pairs.append((a, b))
        # a one-state (constant) operand on either side
        c = constant(mgr, level, 3)
        f = from_truth_table(mgr, level, random_truth_table(rng, level))
        pairs += [(c, f), (f, c)]
    # operands with different top state counts
    four = from_truth_table(mgr, 1, [0, 1, 2, -1])
    for a, b in [(hadamard_family(mgr, 1), four), (four, equality_relation(mgr, 1))]:
        assert a.top.num_states != b.top.num_states
        pairs.append((a, b))
    for a, b in pairs:
        got = dense_from_tidd(kronecker(a, b))
        expected = dense_kron(dense_from_tidd(a), dense_from_tidd(b))
        assert got.outputs == expected.outputs


def lifted_kronecker(a, b):
    """The tensor product as ``apply(TIMES, ...)`` over lifted operands.

    ``a`` is lifted one level onto the left half (a top table
    ``[q][q'] = q``) and ``b`` onto the right half (``[p][p'] = p'``).
    """
    mgr = a.manager
    m, k = a.top.num_states, b.top.num_states
    left = mgr.intern_layer(a.top, [(q,) * m for q in range(m)])
    right = mgr.intern_layer(b.top, [tuple(range(k))] * k)
    return apply(TIMES, Tidd(left, a.values), Tidd(right, b.values))


def test_kronecker_equals_apply_over_lifted_operands(mgr):
    rng = Random(14)
    pairs = []
    for level in range(4):
        for _ in range(4):
            a = from_truth_table(mgr, level, random_truth_table(rng, level))
            b = from_truth_table(mgr, level, random_truth_table(rng, level))
            pairs.append((a, b))
        # a DontCare constant on either side, and on both
        c = constant(mgr, level, 3)
        f = from_truth_table(mgr, level, random_truth_table(rng, level))
        pairs += [(c, f), (f, c), (c, constant(mgr, level, -1))]
    # operands with different top state counts
    four = from_truth_table(mgr, 1, [0, 1, 2, -1])
    pairs += [(hadamard_family(mgr, 1), four), (four, equality_relation(mgr, 1))]
    # past the dense cap: the results read 32 and 64 variables
    for level in (4, 5):
        h, eq = hadamard_family(mgr, level), equality_relation(mgr, level)
        proj = projection(mgr, level, 3)
        pairs += [(h, eq), (eq, proj), (proj, h), (h, h)]
    assert any(a.top.num_states != b.top.num_states for a, b in pairs)
    for a, b in pairs:
        assert kronecker(a, b) == lifted_kronecker(a, b)


def test_kronecker_miss_interns_only_what_it_uses(mgr):
    a = hadamard_family(mgr, 2)
    b = equality_relation(mgr, 2)
    child, _ = pair_product(a.top, b.top)
    pairs = len(mgr.pair_cache)
    before = set(map(id, mgr._layers.values()))
    result = kronecker(a, b)
    assert len(mgr.pair_cache) == pairs
    on_stack = set(map(id, result.top.stack()))
    new = [layer for layer in mgr._layers.values() if id(layer) not in before]
    # besides the result's stack, only the unreduced top over the pair product
    unreduced = [layer for layer in new if id(layer) not in on_stack]
    assert len(unreduced) <= 1
    assert all(layer.child is child for layer in unreduced)


def test_kronecker_level_mismatch(mgr):
    with pytest.raises(LevelMismatch):
        kronecker(constant(mgr, 1, 1), constant(mgr, 2, 1))


def test_repeated_kronecker_records_one_hit(mgr):
    a = hadamard_family(mgr, 2)
    b = equality_relation(mgr, 2)
    first = kronecker(a, b)
    hits, misses = mgr.stats["kronecker_hits"], mgr.stats["kronecker_misses"]
    assert kronecker(a, b) == first
    assert mgr.stats["kronecker_hits"] == hits + 1
    assert mgr.stats["kronecker_misses"] == misses


def test_kronecker_miss_adds_no_apply_cache_entry(mgr):
    a = hadamard_family(mgr, 2)
    b = equality_relation(mgr, 2)
    entries = len(mgr.apply_cache)
    misses = mgr.stats["kronecker_misses"]
    kronecker(a, b)
    assert mgr.stats["kronecker_misses"] == misses + 1
    assert len(mgr.kron_cache) == 1
    assert len(mgr.apply_cache) == entries


def pair_keyed_kronecker(a, b):
    """The tensor product through a top keyed by operand state pair, then reduced."""
    child, meta = pair_product(a.top, b.top)
    top, cells = a.manager.intern_cells(child, ((q, p) for q, _ in meta for _, p in meta))
    return canonical_tidd(top, [a.values[q] * b.values[p] for q, p in cells])


def random_kronecker_operands(mgr):
    """Seeded canonical operands at levels 0-3, with constants and the zero function."""
    rng = Random(29)
    pairs = []
    for level in range(4):
        fs = [from_truth_table(mgr, level, random_truth_table(rng, level)) for _ in range(6)]
        fs += [constant(mgr, level, 3), constant(mgr, level, 0)]
        pairs += [(rng.choice(fs), rng.choice(fs)) for _ in range(12)]
        pairs += [(fs[0], fs[-1]), (fs[-1], fs[1]), (fs[-2], fs[-1]), (fs[2], fs[-2])]
    return pairs


def test_kronecker_equals_the_reduced_pair_keyed_top(mgr):
    pairs = random_kronecker_operands(mgr)
    assert sum((ZERO,) in (a.values, b.values) for a, b in pairs) >= 8
    for a, b in pairs:
        got = kronecker(a, b)
        assert got == pair_keyed_kronecker(a, b)
        assert validate(got).ok


def test_kronecker_reduces_only_under_the_zero_function(mgr, monkeypatch):
    pairs = random_kronecker_operands(mgr)
    calls = []
    monkeypatch.setattr(ops, "reduce_stack", lambda *args: calls.append(args) or reduce_stack(*args))
    for a, b in pairs:
        calls.clear()
        mgr.clear_caches()  # a repeated pair would read kron_cache
        kronecker(a, b)
        assert bool(calls) == ((ZERO,) in (a.values, b.values))
