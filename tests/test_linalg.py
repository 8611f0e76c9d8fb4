from functools import partial, reduce
from random import Random

import pytest

from tidd import (
    AND,
    ONE,
    PLUS,
    TIMES,
    Tidd,
    Value,
    apply,
    equal,
    equality_relation,
    evaluate,
    hadamard_family,
    identity_matrix,
    kronecker,
    matmul,
    matvec,
    negation,
    projection,
    scalar_multiply,
    validate,
    vector_from_basis_state,
)
from tidd.bench import (
    bv_circuit, bv_secret, dj_circuit, gate_matrix, ghz_circuit, run_benchmark,
)
from tidd.builders import constant, from_truth_table
from tidd.core import MATMUL_STACK, Manager, dump
from tidd.errors import OracleScaleLimit, ShapeMismatch, ValueDomainError
from tidd.linalg import (
    KEY_SIDE,
    MatrixTidd,
    VectorTidd,
    _dead_below,
    _dead_top,
    _product_stack,
    is_column_replicated,
    merge_triples,
    qubit_sum,
    vector_amplitudes,
    vector_norm_squared,
)
from tidd.oracle import dense_from_tidd, dense_matmul, dense_to_matrix
from tidd.values import SQRT2_HALF

from helpers import (
    _merged_sum,
    bits_of,
    matrix_assignment,
    random_truth_table,
    reference_product_stack,
)


def random_matrix(mgr, rng, qubits):
    level = qubits.bit_length()
    table = random_truth_table(rng, level, values=(0, 1, 2, 3, -1, -2))
    return MatrixTidd(from_truth_table(mgr, level, table))


def test_matrix_shape_checks(mgr):
    with pytest.raises(ShapeMismatch):
        MatrixTidd(constant(mgr, 0, 1))  # one variable


def test_matmul_hadamard_squared(mgr):
    h = MatrixTidd(hadamard_family(mgr, 1))
    hh = matmul(h, h)
    assert set(str(v) for v in hh.t.values) == {"2,0,0", "0,0,0"}
    assert equal(hh.t, scalar_multiply(2, identity_matrix(mgr, 1).t))


def test_matmul_identity_laws(mgr):
    rng = Random(28)
    for qubits in (1, 2, 4):
        ident = identity_matrix(mgr, qubits)
        for _ in range(5):
            a = random_matrix(mgr, rng, qubits)
            assert matmul(ident, a) == a
            assert matmul(a, ident) == a


def test_matmul_matches_dense(mgr):
    rng = Random(29)
    for qubits in (1, 2, 4):
        for _ in range(12):
            a = random_matrix(mgr, rng, qubits)
            b = random_matrix(mgr, rng, qubits)
            got = dense_from_tidd(matmul(a, b).t)
            expected = dense_matmul(dense_from_tidd(a.t), dense_from_tidd(b.t))
            assert got.outputs == expected.outputs


@pytest.mark.parametrize("states", [1, 2, 4])
def test_matmul_matches_dense_at_packed_key_shifts(mgr, states):
    # b's top layer has 1, 2 or 4 states, none of them dead
    rng = Random(40 + states)
    for qubits in (1, 2, 4):
        level = qubits.bit_length()
        entries = [Value(1 + i % states, 0) for i in range(1 << (1 << level))]
        b = MatrixTidd(from_truth_table(mgr, level, entries))
        assert b.t.top.num_states == states
        for _ in range(4):
            a = random_matrix(mgr, rng, qubits)
            for left, right in ((a, b), (b, a)):
                got = dense_from_tidd(matmul(left, right).t)
                expected = dense_matmul(dense_from_tidd(left.t), dense_from_tidd(right.t))
                assert got.outputs == expected.outputs


def test_repeated_stack_read_hits_the_layer_pair_memo(mgr):
    rng = Random(39)
    a = random_matrix(mgr, rng, 4)
    b = random_matrix(mgr, rng, 4)
    key = (a.t.top, b.t.top, _dead_top(a.t), _dead_top(b.t))
    assert key[2] and key[3]  # both operands have a zero entry
    first = mgr.memo(MATMUL_STACK, _product_stack, *key)
    # every product stack is stored under its operand layers and dead states
    assert mgr.matmul_cache[key] is first
    for la, lb, dead_a, dead_b in mgr.matmul_cache:
        assert la.level == lb.level
        assert type(dead_a) is tuple and type(dead_b) is tuple
    hits = mgr.stats["matmul_stack_hits"]
    assert mgr.memo(MATMUL_STACK, _product_stack, *key) is first
    assert mgr.stats["matmul_stack_hits"] == hits + 1


def test_matmul_associative_handles(mgr):
    rng = Random(30)
    for qubits in (1, 2):
        for _ in range(10):
            a = random_matrix(mgr, rng, qubits)
            b = random_matrix(mgr, rng, qubits)
            c = random_matrix(mgr, rng, qubits)
            assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))


def test_matmul_all_ones_weights(mgr):
    for qubits in (1, 2, 4):
        level = qubits.bit_length()
        ones = MatrixTidd(constant(mgr, level, 1))
        product = matmul(ones, ones)
        assert product.t.values == (Value(1 << qubits, 0),)


def test_matmul_shape_mismatch(mgr):
    a = identity_matrix(mgr, 1)
    b = identity_matrix(mgr, 2)
    with pytest.raises(ShapeMismatch):
        matmul(a, b)


def test_matvec_shape_mismatch(mgr):
    with pytest.raises(ShapeMismatch, match="qubit counts 2 and 1"):
        matvec(identity_matrix(mgr, 2), vector_from_basis_state(mgr, 1, (0,)))


def dead_states(f):
    """The kernel's dead states of diagram f, by level from 1 up to the top."""
    dead = {f.level: _dead_top(f)}
    for layer in reversed(f.top.stack()[2:]):
        dead[layer.level - 1] = _dead_below(layer, dead[layer.level])
    return dead


def brute_force_dead_states(f):
    """Dead states of diagram f by level from 1 up, from every assignment.

    A state is live when some assignment that reaches it, at any block
    position, evaluates to a nonzero value.  Each half-assignment is run
    once up to the level below the top; every pair of halves is then one
    assignment, evaluated through the top table.
    """
    layers = f.top.stack()
    half_bits = 1 << (f.level - 1)
    last = layers[0].num_states - 1
    halves = []  # (state at the top of the half, states reached per level)
    for x in range(1 << half_bits):
        states = [((x >> i) & 1) * last for i in range(half_bits)]
        reached = []
        for layer in layers[1:-1]:
            t = layer.table
            states = [t[states[i]][states[i + 1]] for i in range(0, len(states), 2)]
            reached.append(set(states))
        halves.append((states[0], reached))
    top = layers[-1].table
    live = [set() for _ in layers[1:]]
    live_halves = set()
    for i, (s, _) in enumerate(halves):
        for j, (r, _) in enumerate(halves):
            if not f.values[top[s][r]].is_zero():
                live[-1].add(top[s][r])
                live_halves.update((i, j))
    for i in live_halves:
        for level_live, reached in zip(live, halves[i][1]):
            level_live |= reached
    return {
        layer.level: tuple(sorted(set(range(layer.num_states)) - level_live))
        for layer, level_live in zip(layers[1:], live)
    }


def assert_stack_matches_reference(f, g):
    """Each level of the product stack of diagrams f, g equals the brute-force one."""
    dead_f, dead_g = dead_states(f), dead_states(g)
    expected = reference_product_stack(f.top, g.top, dead_f, dead_g)
    for la, lb, (table, sums) in zip(
        f.top.stack()[1:], g.top.stack()[1:], expected, strict=True
    ):
        dead = (dead_f[la.level], dead_g[lb.level])
        layer, got = la.manager.memo(MATMUL_STACK, _product_stack, la, lb, *dead)
        assert layer.table == table
        assert got == sums


def random_local_sum(mgr, rng, qubits):
    """A sum of two random one-qubit operators, each on a random qubit.

    At 8 qubits a full random table has 65,536 product states at the top,
    too many for the brute-force reference; these have at most a few dozen.
    """
    values = (0, 1, 2, 3, -1, -2)
    terms = [
        {rng.randrange(qubits): tuple(random_truth_table(rng, 1, values))} for _ in range(2)
    ]
    return qubit_sum(mgr, qubits, terms, (1, 0, 0, 1))


def random_operand_pairs(mgr):
    """Random matrix pairs of 1 to 8 qubits, each in both orders."""
    rng = Random(43)
    for qubits in (1, 2, 4, 8):
        for _ in range(6):
            make = random_local_sum if qubits == 8 else random_matrix
            a = make(mgr, rng, qubits)
            b = make(mgr, rng, qubits)
            yield a.t, b.t
            yield b.t, a.t


def test_product_stack_matches_reference_on_random_matrices(mgr):
    for f, g in random_operand_pairs(mgr):
        assert_stack_matches_reference(f, g)


def test_product_stack_matches_reference_on_sums_with_equal_pairs(mgr):
    # A 0/1 matrix times all-ones: child sums at level 3 share their (q, p)
    # pairs and differ only in weights
    rng = Random(44)
    ones = constant(mgr, 4, 1)
    for _ in range(4):
        blocks = [from_truth_table(mgr, 3, random_truth_table(rng, 3, (0, 1))) for _ in range(2)]
        a = kronecker(*blocks)
        assert_stack_matches_reference(a, ones)
        assert_stack_matches_reference(ones, a)


def cell_branches(f, g):
    """The branches of the cell kernel that the product cells of f, g take.

    Each cell above level 1 lists its candidate (q, p) pairs in the kernel's
    order, left child triple outer, from the reference child sums.
    """
    dead_f, dead_g = dead_states(f), dead_states(g)
    levels = reference_product_stack(f.top, g.top, dead_f, dead_g)
    branches = set()
    for la, lb, (_, sums) in zip(f.top.stack()[2:], g.top.stack()[2:], levels):
        dead_q, dead_p = dead_f[la.level], dead_g[lb.level]
        for left in sums:
            for right in sums:
                pairs = [(la.table[qa][qb], lb.table[pa][pb])
                         for qa, pa, _ in left for qb, pb, _ in right]
                live = [(q, p) for q, p in pairs if q not in dead_q and p not in dead_p]
                if len(pairs) == 2 and len(live) == 1:
                    branches.add("one of two dead")
                if len(live) == 2 and live[0] >= live[1]:
                    branches.add("equal pair" if live[0] == live[1] else "descending pair")
                if len(live) >= 3 and len(set(live)) < len(live):
                    branches.add("repeat among three or more")
    return branches


@pytest.mark.parametrize(
    "branch",
    ["descending pair", "equal pair", "repeat among three or more", "one of two dead"],
)
def test_random_matrices_take_every_cell_branch(mgr, branch):
    # the reference check above covers each branch of the cell kernel
    assert any(branch in cell_branches(f, g) for f, g in random_operand_pairs(mgr))


def local_sum_pairs(mgr):
    """Seeded pairs of 16-qubit local sums: five levels, deeper than the pairs above."""
    rng = Random(48)
    for _ in range(6):
        yield random_local_sum(mgr, rng, 16).t, random_local_sum(mgr, rng, 16).t


def key_classes(f, g):
    """(side, distinct left keys, right keys, dead) per product table of f, g above level 1.

    From the reference child sums: a left key reads the operand rows of a
    sum's triples, a right key their columns, and ``dead`` tells whether
    either operand has a dead state at that level.
    """
    dead_f, dead_g = dead_states(f), dead_states(g)
    levels = reference_product_stack(f.top, g.top, dead_f, dead_g)
    out = []
    for la, lb, (_, sums) in zip(f.top.stack()[2:], g.top.stack()[2:], levels):
        ta, tb = la.table, lb.table
        lefts = {tuple((ta[q], tb[p], w) for q, p, w in s) for s in sums}
        columns_a, columns_b = list(zip(*ta)), list(zip(*tb))
        rights = {tuple((columns_a[q], columns_b[p], w) for q, p, w in s) for s in sums}
        out.append((len(sums), len(lefts), len(rights),
                    bool(dead_f[la.level] or dead_g[lb.level])))
    return out


def test_product_stack_matches_reference_on_repeated_rows_and_columns(mgr):
    for f, g in local_sum_pairs(mgr):
        assert_stack_matches_reference(f, g)


def test_local_sums_take_the_key_path_with_repeated_rows_and_columns(mgr):
    # each pair of the reference check above has a table of side KEY_SIDE or
    # more, with fewer distinct left and right keys than its side, beside a dead state
    for f, g in local_sum_pairs(mgr):
        assert any(side >= KEY_SIDE and left < side and right < side and dead
                   for side, left, right, dead in key_classes(f, g))


def circuit_operand_pairs(mgr, algo, qubits=8, seed=0):
    """The (gate matrix, state) operand diagrams of a circuit, in order."""
    gates = {
        "bv": bv_circuit(qubits, bv_secret(qubits, seed)),
        "dj": dj_circuit(qubits, "balanced", seed),
        "ghz": ghz_circuit(qubits),
    }[algo]
    state = vector_from_basis_state(mgr, qubits, (0,) * qubits)
    for g in gates:
        matrix = gate_matrix(mgr, g)
        yield matrix.t, state.t.t
        state = matvec(matrix, state)


@pytest.mark.parametrize(
    "algo, qubits, seed",
    [
        pytest.param("bv", 8, 0, id="bv"),
        pytest.param("ghz", 8, 0, id="ghz"),
        pytest.param("dj", 8, 1, id="dj-8-1"),
        pytest.param("bv", 16, 0, id="bv-16"),  # the perfbench bv size
    ],
)
def test_product_stack_matches_reference_on_circuit_operands(mgr, algo, qubits, seed):
    for a, b in circuit_operand_pairs(mgr, algo, qubits, seed):
        assert_stack_matches_reference(a, b)


def test_dead_states_match_brute_force(mgr):
    rng = Random(45)
    diagrams = [
        from_truth_table(mgr, level, random_truth_table(rng, level))
        for level in (1, 2, 3)
        for _ in range(8)
    ]
    for algo in ("bv", "ghz"):
        for a, b in circuit_operand_pairs(mgr, algo):
            diagrams += [a, b]
    dead_below_top = 0
    for f in diagrams:
        dead = dead_states(f)
        assert dead == brute_force_dead_states(f)
        # two dead states would have equal rows and columns
        assert all(len(states) <= 1 for states in dead.values())
        dead_below_top += sum(len(dead[level]) for level in range(1, f.level))
    assert dead_below_top > 0


def dead_below_by_definition(layer, dead):
    """The child states whose every row and column entry in ``layer`` is in ``dead``."""
    table = layer.table
    return tuple(s for s in range(len(table))
                 if all(e in dead for e in table[s]) and all(row[s] in dead for row in table))


def test_dead_below_matches_the_definition(mgr):
    rng = Random(46)
    diagrams = [
        from_truth_table(mgr, level, random_truth_table(rng, level))
        for level in (2, 3)
        for _ in range(8)
    ]
    for algo in ("bv", "dj", "ghz"):
        for a, b in circuit_operand_pairs(mgr, algo):
            diagrams += [a, b]
    # f * f + 1 has no zero value: nothing is dead at any level
    diagrams += [apply(PLUS, apply(TIMES, f, f), constant(mgr, f.level, 1)) for f in diagrams]
    assert {bool(_dead_top(f)) for f in diagrams} == {True, False}
    found = row_only = 0
    for f in diagrams:
        dead = _dead_top(f)
        for layer in reversed(f.top.stack()[2:]):
            expected = dead_below_by_definition(layer, dead)
            assert _dead_below(layer, dead) == expected
            found += len(expected)
            # child states whose row alone is dead: only the column tells them apart
            row_only += sum(all(e in dead for e in row) for row in layer.table) - len(expected)
            dead = expected
    assert found > 0 and row_only > 0


def test_matmul_of_an_operand_with_two_equal_dead_states_matches_dense(mgr):
    # level-2 states 2 and 3 share their row and column, all top state 1 of
    # value 0: both are dead, so below them the kernel prunes nothing
    level1 = mgr.intern_layer(mgr.fork(), ((0, 1), (2, 0)))
    level2 = mgr.intern_layer(level1, ((0, 1, 2), (1, 3, 0), (2, 0, 3)))
    top = mgr.intern_layer(level2, ((0, 1, 1, 1), (2, 3, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1)))
    a = MatrixTidd(Tidd(top, tuple(Value(v, 0) for v in (5, 0, -3, 7))))
    assert validate(a.t).constraint == "2(v) distinguishability"
    assert _dead_below(top, _dead_top(a.t)) == (2, 3)
    assert _dead_below(level2, (2, 3)) == ()
    rng = Random(47)
    for _ in range(4):
        b = random_matrix(mgr, rng, 4)
        for left, right in ((a, b), (b, a)):
            got = dense_from_tidd(matmul(left, right).t)
            expected = dense_matmul(dense_from_tidd(left.t), dense_from_tidd(right.t))
            assert got.outputs == expected.outputs


@pytest.mark.parametrize("algo", ["bv", "ghz"])
def test_circuit_sums_are_short_and_hold_no_dead_state(mgr, algo):
    for f, g in circuit_operand_pairs(mgr, algo):
        dead_f, dead_g = dead_states(f), dead_states(g)
        for la, lb in zip(f.top.stack()[1:], g.top.stack()[1:]):
            dead_q, dead_p = dead_f[la.level], dead_g[lb.level]
            _, sums = mgr.memo(MATMUL_STACK, _product_stack, la, lb, dead_q, dead_p)
            for s in sums:
                assert len(s) <= 2
                assert all(q not in dead_q and p not in dead_p for q, p, _ in s)


def test_merge_triples_canonical():
    triples = [(1, 0, 2), (0, 1, 3), (1, 0, 5), (0, 0, 1)]
    merged = merge_triples(triples)
    assert merged == ((0, 0, 1), (0, 1, 3), (1, 0, 7))


def test_merge_triples_order_independent():
    rng = Random(31)
    for size in range(13):
        # three states per side force repeated pairs; weights reach past 2**64
        base = [
            (rng.randrange(3), rng.randrange(3), rng.randint(1, 5) << rng.choice((0, 64, 100)))
            for _ in range(size)
        ]
        reference = _merged_sum(base)
        for _ in range(10):
            shuffled = base[:]
            rng.shuffle(shuffled)
            assert merge_triples(shuffled) == reference
            assert merge_triples(iter(shuffled)) == reference


def test_triple_sums_hold_the_stored_sums_once(mgr):
    run_benchmark(mgr, "bv", 16, 0)
    run_benchmark(mgr, "ghz", 64, 0)
    stored = [s for _, sums in mgr.matmul_cache.values() for s in sums]
    assert set(mgr.triple_sums) == set(stored)
    assert all(mgr.triple_sums[s] is s for s in stored)


def test_identity_matrix_is_equality(mgr):
    assert equal(identity_matrix(mgr, 2).t, equality_relation(mgr, 2))
    grid = dense_to_matrix(dense_from_tidd(identity_matrix(mgr, 1).t))
    assert grid == [[Value(1, 0), Value(0, 0)], [Value(0, 0), Value(1, 0)]]


def test_identity_trace_via_path_counts(mgr):
    from tidd import top_path_counts

    for qubits in (1, 2, 4):
        ident = identity_matrix(mgr, qubits)
        counts = top_path_counts(ident.t)
        assert counts[0] == 1 << qubits  # value-1 class covers the diagonal


def test_vector_from_basis_state(mgr):
    v = vector_from_basis_state(mgr, 2, (0, 0))
    amps = vector_amplitudes(v)
    assert amps == [Value(1, 0), Value(0, 0), Value(0, 0), Value(0, 0)]
    v = vector_from_basis_state(mgr, 2, (1, 0))
    assert vector_amplitudes(v)[2] == Value(1, 0)
    assert is_column_replicated(v.t)
    assert not is_column_replicated(identity_matrix(mgr, 1))
    assert not is_column_replicated(identity_matrix(mgr, 2))


def test_replication_check_refuses_sixteen_qubits(mgr):
    # 2n = 32 variables, beyond the shared dense-enumeration cap
    v = vector_from_basis_state(mgr, 16, (0,) * 16)
    with pytest.raises(OracleScaleLimit):
        is_column_replicated(v.t)


def test_amplitude_list_refuses_thirty_two_qubits(mgr):
    # 2**32 rows, beyond the shared dense-enumeration cap
    v = vector_from_basis_state(mgr, 32, (0,) * 32)
    with pytest.raises(OracleScaleLimit):
        vector_amplitudes(v)


def test_vector_wrong_length(mgr):
    with pytest.raises(ShapeMismatch):
        vector_from_basis_state(mgr, 2, (0, 0, 1))
    with pytest.raises(ShapeMismatch):
        vector_from_basis_state(mgr, 3, (1, 0, 0))
    for bits in ((2, 0), (-1, 0)):
        with pytest.raises(ShapeMismatch):
            vector_from_basis_state(mgr, 2, bits)


def test_basis_state_accepts_booleans(mgr):
    assert vector_from_basis_state(mgr, 2, (True, False)) == vector_from_basis_state(
        mgr, 2, (1, 0)
    )


def projection_fold_basis_state(mgr, qubits, bits):
    """|bits> as AND over the row-variable projections, negated on clear bits."""
    level = qubits.bit_length()
    result = None
    for i, b in enumerate(bits):
        factor = projection(mgr, level, 2 * i)  # row variable x_i
        if not b:
            factor = negation(factor)
        result = factor if result is None else apply(AND, result, factor)
    return result


def test_every_basis_state_equals_the_projection_fold(mgr):
    for qubits in (1, 2, 4):
        for r in range(1 << qubits):
            bits = bits_of(r, qubits)
            v = vector_from_basis_state(mgr, qubits, bits)
            assert v.t.t == projection_fold_basis_state(mgr, qubits, bits)
            assert is_column_replicated(v.t)


def reference_qubit_sum(mgr, qubits, terms, blank):
    """``qubit_sum`` as a fold with no span cache: one table per qubit."""
    def product(term, lo, hi):
        if hi - lo == 1:
            return from_truth_table(mgr, 1, term.get(lo, blank))
        mid = (lo + hi) // 2
        return kronecker(product(term, lo, mid), product(term, mid, hi))

    return reduce(partial(apply, PLUS), (product(t, 0, qubits) for t in terms))


def random_qubit_terms(rng, qubits):
    """One to three terms of up to three factors each; entries mix ints and Values."""
    entries = (0, 1, -1, 2, Value(1, 0), SQRT2_HALF)
    return [
        {q: tuple(rng.choice(entries) for _ in range(4))
         for q in rng.sample(range(qubits), rng.randint(0, min(qubits, 3)))}
        for _ in range(rng.randint(1, 3))
    ]


def test_qubit_sum_equals_the_uncached_fold():
    rng = Random(18)
    shared = Manager()
    for qubits in (1, 2, 4, 8, 16, 32, 64):
        for blank in ((1, 0, 0, 1), (1, 1, 0, 0)):  # the identity, |0><+|
            for _ in range(4):
                terms = random_qubit_terms(rng, qubits)
                got = qubit_sum(shared, qubits, terms, blank).t
                assert got == reference_qubit_sum(shared, qubits, terms, blank)
                fresh = qubit_sum(Manager(), qubits, terms, blank).t
                assert dump(fresh) == dump(got)


def test_qubit_sum_rejects_a_float_entry_after_the_int_entry_is_cached(mgr):
    x, identity = (0, 1, 1, 0), (1, 0, 0, 1)
    qubit_sum(mgr, 4, [{1: x}], identity)
    for terms, blank in (
        ([{1: (0, 1.0, 1, 0)}], identity),
        ([{1: (0, Value(1.0, 0, 0), 1, 0)}], identity),
        ([{1: x}], (1.0, 0, 0, 1)),
    ):
        with pytest.raises(ValueDomainError):
            qubit_sum(mgr, 4, terms, blank)


def test_basis_state_past_the_dense_cap(mgr):
    rng = Random(64)
    n = 64
    bits = [rng.randrange(2) for _ in range(n)]
    v = vector_from_basis_state(mgr, n, bits).t.t
    rows = [(bits, ONE)]
    for _ in range(50):  # other rows, one to three bits away
        row = list(bits)
        for q in rng.sample(range(n), rng.randint(1, 3)):
            row[q] ^= 1
        rows.append((row, Value(0, 0)))
    for row, expected in rows:
        for _ in range(4):
            column = [rng.randrange(2) for _ in range(n)]
            assert evaluate(v, matrix_assignment(row, column)) == expected


def test_matvec_identity(mgr):
    for qubits in (1, 2):
        for r in range(1 << qubits):
            bits = tuple((r >> (qubits - 1 - i)) & 1 for i in range(qubits))
            v = vector_from_basis_state(mgr, qubits, bits)
            assert matvec(identity_matrix(mgr, qubits), v) == v


def test_matvec_hadamard_on_zero(mgr):
    from tidd.bench import gate, gate_matrix

    h = gate_matrix(mgr, gate("h", 0, 1))
    v = matvec(h, vector_from_basis_state(mgr, 1, (0,)))
    assert vector_amplitudes(v) == [SQRT2_HALF, SQRT2_HALF]


def test_matvec_preserves_replication(mgr):
    rng = Random(32)
    for _ in range(10):
        a = random_matrix(mgr, rng, 2)
        v = vector_from_basis_state(mgr, 2, (rng.randrange(2), rng.randrange(2)))
        out = matvec(a, v)
        assert is_column_replicated(out.t)


def test_replication_preserved_by_plus(mgr):
    v1 = vector_from_basis_state(mgr, 2, (0, 1))
    v2 = vector_from_basis_state(mgr, 2, (1, 0))
    combined = VectorTidd(MatrixTidd(apply(PLUS, v1.t.t, v2.t.t)))
    assert is_column_replicated(combined.t)
    assert vector_amplitudes(combined) == [
        Value(0, 0),
        Value(1, 0),
        Value(1, 0),
        Value(0, 0),
    ]


def test_vector_norm_squared(mgr):
    from tidd.bench import gate, gate_matrix

    v = vector_from_basis_state(mgr, 2, (1, 1))
    assert vector_norm_squared(v) == Value(1, 0)
    plus = matvec(
        gate_matrix(mgr, gate("h", 0, 1)), vector_from_basis_state(mgr, 1, (0,))
    )
    assert vector_norm_squared(plus) == Value(1, 0)


def test_repeated_matmul_records_one_hit(mgr):
    rng = Random(31)
    a = random_matrix(mgr, rng, 4)
    b = random_matrix(mgr, rng, 4)
    first = matmul(a, b)
    stats = dict(mgr.stats)
    assert matmul(a, b) == first
    assert mgr.stats["matmul_hits"] == stats["matmul_hits"] + 1
    assert mgr.stats["matmul_misses"] == stats["matmul_misses"]
    # the top pair's stack is reused whole: no child pair is looked up again
    assert mgr.stats["matmul_stack_hits"] == stats["matmul_stack_hits"]
    assert mgr.stats["matmul_stack_misses"] == stats["matmul_stack_misses"]


def assert_new_values_read_the_memo(mgr, change, hit):
    """matmul of a's layers with changed values hits the memo iff ``hit``."""
    rng = Random(37)
    for qubits in (1, 2, 4):
        a = random_matrix(mgr, rng, qubits)
        b = random_matrix(mgr, rng, qubits)
        matmul(a, b)
        changed = MatrixTidd(Tidd(a.t.top, tuple(change(v) for v in a.t.values)))
        assert (_dead_top(changed.t) == _dead_top(a.t)) == hit
        hits = mgr.stats["matmul_hits"]
        got = dense_from_tidd(matmul(changed, b).t)
        assert mgr.stats["matmul_hits"] == hits + hit
        expected = dense_matmul(dense_from_tidd(changed.t), dense_from_tidd(b.t))
        assert got.outputs == expected.outputs


def test_matmul_reuses_the_stack_when_the_zero_state_stays(mgr):
    # doubled values: the same layers and the same zero state
    assert_new_values_read_the_memo(mgr, lambda v: v + v, hit=True)


def test_matmul_rebuilds_the_stack_when_the_zero_state_moves(mgr):
    # values shifted by one: the state of value -1 becomes the zero state
    assert_new_values_read_the_memo(mgr, lambda v: v + ONE, hit=False)
