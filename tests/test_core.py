from collections import Counter
from itertools import chain
from random import Random

import pytest

from tidd import analysis, linalg, ops
from tidd import (
    TIMES,
    Tidd,
    anti_diagonal,
    Value,
    constant,
    dump,
    equal,
    equality_relation,
    evaluate,
    from_truth_table,
    hadamard_family,
    projection,
    size_metrics,
    state_counts,
    total_states,
    validate,
)
from tidd.bench import measure_distribution, metrics_row, run_benchmark
from tidd.core import APPLY, COUNTERS, Layer, check_canonical_order, first_occurrence
from tidd.linalg import MatrixTidd
from tidd.errors import (
    ArityMismatch,
    AssignmentLengthMismatch,
    CanonicalOrderViolation,
)

from helpers import bits_of, random_raw_table, random_truth_table


def test_interning_idempotent(mgr):
    fork = mgr.fork()
    a = mgr.intern_layer(fork, ((0, 0), (0, 1)))
    b = mgr.intern_layer(fork, ((0, 0), (0, 1)))
    assert a is b


def test_interning_a_table_of_lists_returns_the_same_layer(mgr):
    fork = mgr.fork()
    a = mgr.intern_layer(fork, [[0, 0], [0, 1]])
    assert mgr.intern_layer(fork, ((0, 0), (0, 1))) is a
    assert mgr.intern_layer(fork, [(0, 0), [0, 1]]) is a
    assert a.table == ((0, 0), (0, 1))


def test_interning_distinct_structures(mgr):
    fork = mgr.fork()
    a = mgr.intern_layer(fork, ((0, 0), (0, 1)))
    b = mgr.intern_layer(fork, ((0, 1), (1, 0)))
    assert a is not b
    dc = mgr.dontcare()
    c = mgr.intern_layer(dc, ((0,),))
    assert c is not a


def test_intern_level1_example(mgr):
    layer = mgr.intern_layer(mgr.fork(), ((0, 0), (0, 1)))
    assert layer.level == 1
    assert layer.num_states == 2


def test_intern_rejects_noncanonical(mgr):
    with pytest.raises(CanonicalOrderViolation):
        mgr.intern_layer(mgr.fork(), ((1, 0), (0, 0)))


def test_intern_rejects_arity_mismatch(mgr):
    with pytest.raises(ArityMismatch):
        mgr.intern_layer(mgr.dontcare(), ((0, 0), (0, 1)))


def test_intern_rejects_a_ragged_table_of_side_squared_cells(mgr):
    with pytest.raises(ArityMismatch, match=r"^table row 0 has length 3, not 2$"):
        mgr.intern_layer(mgr.fork(), ((0, 0, 0), (1,)))
    with pytest.raises(ArityMismatch, match=r"^table row 1 has length 1, not 2$"):
        mgr.intern_layer(mgr.fork(), ((0, 1), (2,)))


def scan_canonical_order(table):
    """Reference: scanning row-major, each new parent index must be the next."""
    next_new = 0
    for entry in chain.from_iterable(table):
        if entry == next_new:
            next_new += 1
        elif not 0 <= entry < next_new:
            return f"parent index {entry} appears before index {next_new}"
    return next_new


def test_canonical_order_check_agrees_with_a_row_major_scan():
    rng = Random(11)
    outcomes = Counter()
    for _ in range(2000):
        side = rng.randint(1, 4)
        parents = rng.randint(1, side * side)
        table = random_raw_table(rng, side, parents)
        if rng.random() < 0.5:
            numbers, _ = first_occurrence(chain.from_iterable(table))
            table = tuple(numbers[r * side:(r + 1) * side] for r in range(side))
        if rng.random() < 0.5:
            cells = list(chain.from_iterable(table))
            cells[rng.randrange(len(cells))] = rng.randint(-1, parents)
            table = tuple(tuple(cells[r * side:(r + 1) * side]) for r in range(side))
        try:
            got = check_canonical_order(table)
        except CanonicalOrderViolation as exc:
            got = str(exc)
        assert got == scan_canonical_order(table)
        outcomes[type(got)] += 1
    assert outcomes[int] > 500 and outcomes[str] > 500


def test_first_occurrence_example():
    numbers, keys = first_occurrence(chain.from_iterable(((1, 1), (1, 0))))
    assert numbers == (0, 0, 0, 1)
    assert keys == (1, 0)


def test_first_occurrence_identity_on_canonical():
    numbers, keys = first_occurrence(chain.from_iterable(((0, 0), (0, 1))))
    assert numbers == (0, 0, 0, 1)
    assert keys == (0, 1)


def test_first_occurrence_idempotent_random():
    rng = Random(4)
    for _ in range(1000):
        side = rng.randint(1, 5)
        parents = rng.randint(1, side * side)
        raw = random_raw_table(rng, side, parents)
        once, _ = first_occurrence(chain.from_iterable(raw))
        twice, keys = first_occurrence(once)
        assert twice == once
        assert keys == tuple(range(parents))


def test_first_occurrence_leftmost_values():
    v1, v2 = Value(1, 0), Value(2, 0)
    classes, values = first_occurrence((v1, v2, v1))
    assert classes == (0, 1, 0)
    assert values == (v1, v2)


def test_intern_cells_numbers_cells_canonically(mgr):
    layer, keys = mgr.intern_cells(mgr.fork(), ("b", "a", "b", "b"))
    assert layer.table == ((0, 1), (0, 0))
    assert keys == ("b", "a")
    assert layer is mgr.intern_layer(mgr.fork(), ((0, 1), (0, 0)))


def test_intern_cells_rejects_a_wrong_cell_count(mgr):
    for cells in ((), ("a",) * 3, ("a",) * 5):
        with pytest.raises(ArityMismatch):
            mgr.intern_cells(mgr.fork(), cells)


def test_evaluate_hadamard_examples(mgr):
    h2 = hadamard_family(mgr, 1)
    assert evaluate(h2, (0, 1)) == Value(1, 0)
    assert evaluate(h2, (1, 1)) == Value(-1, 0)
    h4 = hadamard_family(mgr, 2)
    assert evaluate(h4, (0, 1, 0, 1)) == Value(1, 0)


def test_evaluate_wrong_length(mgr):
    h2 = hadamard_family(mgr, 1)
    with pytest.raises(AssignmentLengthMismatch):
        evaluate(h2, (0, 1, 0))


@pytest.mark.parametrize(
    "build, assignment",
    [
        (lambda mgr: projection(mgr, 1, 0), (-1, 0)),
        (lambda mgr: projection(mgr, 1, 0), (2, 0)),
        (lambda mgr: constant(mgr, 1, 7), (2, 5)),
        (lambda mgr: projection(mgr, 1, 0), (1.5, 0)),
        (lambda mgr: projection(mgr, 1, 0), ("a", 0)),
    ],
    ids=["fork-minus-one", "fork-two", "dontcare-two-five", "fork-one-and-a-half", "fork-letter"],
)
def test_evaluate_rejects_non_bits(mgr, build, assignment):
    with pytest.raises(AssignmentLengthMismatch):
        evaluate(build(mgr), assignment)


def test_evaluate_accepts_booleans(mgr):
    f = projection(mgr, 1, 0)
    assert evaluate(f, (True, False)) == evaluate(f, (1, 0))


def test_evaluate_totality(mgr):
    f = equality_relation(mgr, 2)
    for i in range(16):
        evaluate(f, bits_of(i, 4))  # must never get stuck


def test_validate_builders(mgr):
    assert validate(hadamard_family(mgr, 3)).ok
    assert validate(equality_relation(mgr, 3)).ok
    assert validate(constant(mgr, 2, 5)).ok
    assert validate(projection(mgr, 3, 5)).ok


def test_validate_duplicate_values(mgr):
    h2 = hadamard_family(mgr, 1)
    bad = Tidd(h2.top, (Value(1, 0), Value(1, 0)))
    report = validate(bad)
    assert not report.ok
    assert "2(iv)" in report.constraint


@pytest.mark.parametrize(
    "classes, pair",
    [((0, 1, 1, 0), (0, 3)), ((0, 1, 2, 1), (1, 3)), ((0, 0, 1, 1), (0, 1)),
     ((0, 1, 0, 0), (0, 2)), ((0, 1, 2, 3), None)],
)
def test_validate_names_the_first_indistinguishable_pair(mgr, classes, pair):
    # states of one class share their row and column, and classes differ
    child = mgr.intern_layer(mgr.fork(), ((0, 1), (2, 3)))
    top, keys = mgr.intern_cells(child, [(c, d) for c in classes for d in classes])
    report = validate(Tidd(top, tuple(Value(v, 0) for v in range(len(keys)))))
    if pair is None:
        assert report.ok and report
    else:
        assert not report
        assert report.constraint == "2(v) distinguishability"
        assert report.detail == "child states %d and %d are indistinguishable" % pair


@pytest.mark.parametrize(
    "values, detail",
    [((Value(1, 0),), "1 values for 2 top states"), ((Value(1, 0), 2), "entry 1 is not a ring value")],
    ids=["one value too few", "a non-Value entry"],
)
def test_validate_reports_a_bad_value_tuple(mgr, values, detail):
    report = validate(Tidd(hadamard_family(mgr, 1).top, values))
    assert not report
    assert (report.constraint, report.location, report.detail) == ("value tuple", "values", detail)


def test_validate_indistinguishable_states(mgr):
    # two child states with identical rows and columns (constraint 2(v))
    fork = mgr.fork()
    layer = mgr.intern_layer(fork, ((0, 0), (0, 0)))
    bad = Tidd(layer, (Value(1, 0),))
    report = validate(bad)
    assert not report.ok
    assert "2(v)" in report.constraint
    assert report.location == "level 1"


@pytest.mark.parametrize(
    "table, num_states, constraint",
    [
        (((0,), (0,)), 1, "arity"),
        (((0, 0, 0), (0, 1, 0)), 2, "arity"),
        (((0, 1), (1, 2)), 2, "totality"),
        (((0, -1), (1, 0)), 2, "totality"),
        (((1, 0), (0, 1)), 2, "2(iii) canonical order"),
        (((0, 2), (1, 0)), 3, "2(iii) canonical order"),
        (((0, 1), (1, 0)), 3, "state count"),
    ],
)
def test_validate_reports_a_bad_layer(mgr, table, num_states, constraint):
    # a hand-built layer over the two-state level-1 layer of H_1 skips the
    # checks that intern_layer makes
    child = hadamard_family(mgr, 1).top
    assert child.num_states == 2
    bad = Layer(mgr, 2, child, table, num_states)
    report = validate(Tidd(bad, tuple(Value(v, 0) for v in range(num_states))))
    assert not report.ok
    assert report.constraint == constraint
    assert report.location == "level 2"


def test_size_metrics_constant(mgr):
    report = size_metrics(constant(mgr, 3, Value(5, 0)))
    assert report.nodes == 4
    assert report.total == report.nodes + report.edges


def test_size_metrics_hadamard(mgr):
    h = hadamard_family(mgr, 1)
    assert total_states(h) == 4
    assert size_metrics(h).edges == 6
    for i in range(1, 9):
        assert total_states(hadamard_family(mgr, i)) == 2 * i + 2


def edges_by_row(f):
    """size_metrics' edges as defined: a leaf's states, and each distinct row's length."""
    return sum(
        layer.num_states if layer.is_leaf() else sum(len(row) for row in set(layer.table))
        for layer in f.top.stack()
    )


def test_size_metrics_edges_sum_the_distinct_rows(mgr):
    rng = Random(48)
    diagrams = [
        from_truth_table(mgr, level, random_truth_table(rng, level))
        for level in (0, 1, 2, 3)
        for _ in range(10)
    ]
    for level in (1, 2, 3, 4):
        diagrams += [
            constant(mgr, level, 3), projection(mgr, level, 1), hadamard_family(mgr, level),
            equality_relation(mgr, level),
        ]
    diagrams += [anti_diagonal(mgr, n) for n in (2, 4)]
    for f in diagrams:
        report = size_metrics(f)
        assert report.edges == edges_by_row(f)
        assert report.total == report.nodes + report.edges


def test_state_counts(mgr):
    assert state_counts(hadamard_family(mgr, 3)) == (2, 2, 2, 2)
    assert state_counts(constant(mgr, 3, 1)) == (1, 1, 1, 1)


def test_equal_by_handle(mgr):
    assert equal(hadamard_family(mgr, 2), hadamard_family(mgr, 2))
    assert not equal(constant(mgr, 2, 0), constant(mgr, 2, 1))


def test_equal_across_construction_routes(mgr):
    rng = Random(7)
    for _ in range(20):
        table = random_truth_table(rng, 2)
        assert equal(from_truth_table(mgr, 2, table), from_truth_table(mgr, 2, list(table)))


def test_dump_golden_h2(mgr):
    expected = (
        "L0 kind=Fork states=2 table=[]\n"
        "L1 kind=Internal states=2 table=[0,0,0,1]\n"
        "V=1,0,0 -1,0,0"
    )
    assert dump(hadamard_family(mgr, 1)) == expected


def test_dump_golden_constant(mgr):
    expected = (
        "L0 kind=DontCare states=1 table=[]\n"
        "L1 kind=Internal states=1 table=[0]\n"
        "V=3,0,0"
    )
    assert dump(constant(mgr, 1, 3)) == expected


def test_every_counter_matches_its_calls(mgr, monkeypatch):
    calls = Counter()

    def count(module, attr, name):
        fn = getattr(module, attr)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, attr, wrapper)

    # module globals, so recursive and in-module calls are counted too
    count(ops, "pair_product", "pair_product")
    count(ops, "apply", "apply")
    count(ops, "kronecker", "kronecker")
    count(linalg, "matmul", "matmul")
    count(analysis, "draw_plan", "draw_plan")
    count(linalg, "kronecker", "kronecker")  # qubit_sum's own imports
    count(linalg, "apply", "apply")

    # span, stack and reduction reads are counted from structure: each
    # product stack above level 1 reads its child pair, each span of more
    # than one qubit reads its two halves (qubit_sum reads one span per term,
    # below), and each reduction above level 0 reads its child's reduction
    product_stack, build_span, reduce_body = linalg._product_stack, linalg._build_span, ops._reduce

    def stack_reads(manager, a, *args):
        calls["matmul_stack"] += a.level > 1
        return product_stack(manager, a, *args)

    def span_reads(manager, size, *args):
        calls["span"] += 2 * (size > 1)
        return build_span(manager, size, *args)

    def reduce_reads(manager, layer, classes):
        calls["reduce"] += not layer.is_leaf()
        return reduce_body(manager, layer, classes)

    monkeypatch.setattr(linalg, "_product_stack", stack_reads)
    monkeypatch.setattr(linalg, "_build_span", span_reads)
    monkeypatch.setattr(ops, "_reduce", reduce_reads)

    rng = Random(41)
    for level in (1, 2, 3):
        fs = [from_truth_table(mgr, level, random_truth_table(rng, level)) for _ in range(3)]
        for _ in range(2):  # the second round hits every cache
            for f in fs:
                for g in fs:
                    ops.kronecker(f, g)
                    ops.apply(TIMES, f, g)
                    linalg.matmul(MatrixTidd(f), MatrixTidd(g))
                analysis.path_counts(f)
                analysis.sample(ops.apply(TIMES, f, f), rng)
            terms = [{0: (0, 1, 1, 0)}, {level - 1: (1, 0, 0, -1)}]
            linalg.qubit_sum(mgr, 1 << level, terms, (1, 0, 0, 1))
            calls["span"] += len(terms)

    names = {key.rsplit("_", 1)[0] for key in mgr.stats}
    assert names == set(calls)
    for name in names:
        assert mgr.stats[f"{name}_hits"] + mgr.stats[f"{name}_misses"] == calls[name]
        assert mgr.stats[f"{name}_hits"] > 0, name


def test_memo_keys_on_the_body_arguments(mgr):
    received = []

    def body(*args):
        received.append(args)
        return len(received)

    args = (1, "x", (2, 3))
    assert mgr.memo(APPLY, body, *args) == 1
    assert mgr.memo(APPLY, body, 1, "x", tuple([2, 3])) == 1  # equal arguments hit
    assert received == [(mgr, *args)]
    assert mgr.apply_cache == {args: 1}
    assert (mgr.stats["apply_misses"], mgr.stats["apply_hits"]) == (1, 1)
    assert mgr.memo(APPLY, body, 1, "x", (3, 2)) == 2
    assert mgr.apply_cache == {args: 1, (1, "x", (3, 2)): 2}


def test_snapshot_reports_every_table_with_its_counters(mgr):
    state = linalg.vector_from_basis_state(mgr, 4, (1, 0, 1, 1))
    h = linalg.MatrixTidd(hadamard_family(mgr, 3))
    for _ in range(2):
        state = linalg.matvec(h, state)
    analysis.sample(state.t.t, Random(5))

    snap = mgr.snapshot()
    names = (
        "_layers", "pair_cache", "apply_cache", "reduce_cache", "kron_cache", "matmul_cache",
        "triple_sums", "span_cache", "draw_plan_cache",
    )
    tables = {name: getattr(mgr, name) for name in names}
    assert set(snap) == set(tables)
    assert {name: entry["size"] for name, entry in snap.items()} == {
        name: len(table) for name, table in tables.items()
    }
    assert snap["_layers"] == {"size": len(mgr._layers)}
    assert snap["triple_sums"] == {"size": len(mgr.triple_sums)}
    assert set(snap["matmul_cache"]) == {
        "size", "matmul_hits", "matmul_misses", "matmul_stack_hits", "matmul_stack_misses",
    }
    counted = {
        key: value
        for entry in snap.values()
        for key, value in entry.items()
        if key != "size"
    }
    assert counted == mgr.stats
    # memo stores one entry per miss, so a cache's size is its counters' misses
    for name, entry in snap.items():
        misses = [value for key, value in entry.items() if key.endswith("_misses")]
        if misses:
            assert entry["size"] == sum(misses), name
    assert snap["matmul_cache"]["matmul_stack_hits"] > 0
    assert set(snap["span_cache"]) == {"size", "span_hits", "span_misses"}
    assert snap["span_cache"]["span_hits"] > 0
    assert set(snap["reduce_cache"]) == {"size", "reduce_hits", "reduce_misses"}
    assert snap["reduce_cache"]["reduce_hits"] > 0


def test_clear_caches_empties_them_and_reruns_match(mgr):
    def run_both():
        out = []
        for algo, n in (("ghz", 64), ("bv", 16)):
            state, metrics = run_benchmark(mgr, algo, n)
            histogram = measure_distribution(state, 30, Random(n))
            row = metrics_row(algo, n, 0, metrics)
            del row["wall_seconds"]
            out.append((dump(state.t.t), row, histogram))
        return out

    first = run_both()
    layers, stats = len(mgr._layers), dict(mgr.stats)
    cleared = sorted({cache for _, _, cache in COUNTERS} | {"triple_sums"})
    assert all(getattr(mgr, name) for name in cleared)
    mgr.clear_caches()
    assert {name: len(getattr(mgr, name)) for name in cleared} == dict.fromkeys(cleared, 0)
    assert (len(mgr._layers), mgr.stats) == (layers, stats)
    assert run_both() == first
    assert len(mgr._layers) == layers  # the reruns intern no new layer
    # no cache kept state: the reruns read every cache, reduce_cache
    # included, as the first runs did on the fresh Manager
    assert stats["reduce_hits"] > 0
    assert {key: count - stats[key] for key, count in mgr.stats.items()} == stats
