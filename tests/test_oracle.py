from random import Random

import pytest

from tidd import (
    AND,
    MINUS,
    PLUS,
    TIMES,
    Value,
    XOR,
    anti_diagonal,
    apply,
    constant,
    equality_relation,
    hadamard_family,
    projection,
    state_counts,
)
from tidd.builders import from_truth_table
from tidd.errors import (
    NotPowerOfTwo,
    OracleScaleLimit,
    ShapeMismatch,
    ValueDomainError,
)
from tidd.oracle import (
    _BOOL_OPS,
    DenseFunction,
    class_counts,
    dense_apply,
    dense_constant,
    dense_from_tidd,
    dense_function,
    dense_kron,
    dense_matmul,
    dense_projection,
    dense_to_matrix,
    exhaustive_equiv,
    matrix_to_dense,
    random_equivalence_case,
    run_equivalence_suite,
)
from tidd.values import BinaryOp

from helpers import bits_of, random_truth_table


def test_dense_from_tidd_constant(mgr):
    d = dense_from_tidd(constant(mgr, 2, 7))
    assert d.outputs == (Value(7, 0),) * 16


def test_dense_from_tidd_hadamard(mgr):
    d = dense_from_tidd(hadamard_family(mgr, 1))
    assert d.outputs == (Value(1, 0), Value(1, 0), Value(1, 0), Value(-1, 0))


def test_dense_from_tidd_projection(mgr):
    d = dense_from_tidd(projection(mgr, 2, 0))
    assert d.outputs == tuple(
        Value(1, 0) if bits_of(i, 4)[0] else Value(0, 0) for i in range(16)
    )


def test_dense_matches_pointwise_evaluate(mgr):
    from tidd.core import evaluate

    rng = Random(23)
    for level in (0, 1, 2):
        f = from_truth_table(mgr, level, random_truth_table(rng, level))
        d = dense_from_tidd(f)
        for i in range(len(d.outputs)):
            assert d.outputs[i] == evaluate(f, bits_of(i, 1 << level))


def test_dense_scale_guard(mgr):
    f = constant(mgr, 5, 1)  # 32 variables
    with pytest.raises(OracleScaleLimit):
        dense_from_tidd(f)


def test_exhaustive_equiv(mgr):
    eq = equality_relation(mgr, 2)
    table = [
        Value(1, 0) if bits_of(i, 4)[0::2] == bits_of(i, 4)[1::2] else Value(0, 0)
        for i in range(16)
    ]
    assert exhaustive_equiv(eq, dense_function(2, table))
    assert exhaustive_equiv(eq, dense_from_tidd(eq))
    assert not exhaustive_equiv(
        projection(mgr, 2, 0), dense_from_tidd(projection(mgr, 2, 1))
    )


def test_dense_apply_xor_self_is_zero(mgr):
    d = dense_from_tidd(projection(mgr, 2, 1))
    boolified = dense_apply(XOR, d, d)
    assert all(v == Value(0, 0) for v in boolified.outputs)


def elementwise(op, a, b):
    return tuple(op(x, y) for x, y in zip(a.outputs, b.outputs))


def test_dense_projection_and_constant_tables():
    for level in (0, 1, 2, 3):
        nvars = 1 << level
        for idx in range(nvars):
            assert dense_projection(level, idx).outputs == tuple(
                Value(bits_of(i, nvars)[idx], 0) for i in range(1 << nvars)
            )
        assert dense_constant(level, -3).outputs == (Value(-3, 0),) * (1 << nvars)


def test_dense_apply_evaluates_each_operand_pair_once():
    calls = []
    counted = BinaryOp("counted", lambda u, v: calls.append((u, v)) or u * v)
    a, b = dense_projection(4, 3), dense_projection(4, 9)
    out = dense_apply(counted, a, b)
    assert len(calls) == 4  # (FALSE, FALSE), (FALSE, TRUE), ... in table order
    assert out.outputs == elementwise(TIMES, a, b)


def test_dense_apply_matches_elementwise_on_mixed_denominators():
    rng = Random(28)
    pool = (Value(1, 0), Value(0, 1, 1), Value(3, 0, 2), Value(-1, 1, 3), Value(5, 0))
    for _ in range(20):
        a = dense_function(3, [rng.choice(pool) for _ in range(256)])
        b = dense_function(3, [rng.choice(pool) for _ in range(256)])
        for op in (PLUS, MINUS, TIMES):
            assert dense_apply(op, a, b).outputs == elementwise(op, a, b)


def test_dense_apply_matches_elementwise_on_equal_distinct_objects():
    rng = Random(29)
    for _ in range(10):
        # every entry its own object, with few distinct values among them
        a = dense_function(2, [Value(rng.randint(-2, 2), 1, 1) for _ in range(16)])
        b = dense_function(2, [Value(rng.randint(0, 1), 0) for _ in range(16)])
        for op in (PLUS, TIMES):
            assert dense_apply(op, a, b).outputs == elementwise(op, a, b)
            assert dense_apply(op, b, a).outputs == elementwise(op, b, a)


def test_dense_apply_matches_elementwise_for_every_boolean_op():
    rng = Random(30)
    for _ in range(10):
        a = dense_function(2, [rng.random() < 0.5 for _ in range(16)])
        b = dense_function(2, [rng.random() < 0.5 for _ in range(16)])
        for op in _BOOL_OPS:
            assert dense_apply(op, a, b).outputs == elementwise(op, a, b)


def test_dense_apply_raises_on_the_first_non_boolean_pair():
    a = dense_function(2, [1, 0, 2, 1, 3] + [1] * 11)
    b = dense_projection(2, 0)
    with pytest.raises(ValueDomainError) as reference:
        elementwise(AND, a, b)
    with pytest.raises(ValueDomainError) as raised:
        dense_apply(AND, a, b)
    assert str(raised.value) == str(reference.value)
    assert "Value(2, 0, 0)" in str(raised.value)


def test_dense_apply_rejects_a_result_outside_the_ring(mgr):
    half = BinaryOp("half", lambda u, v: Value(0.5, 0, 0))
    with pytest.raises(ValueDomainError):
        dense_apply(half, dense_constant(1, 1), dense_constant(1, 1))
    with pytest.raises(ValueDomainError):  # as the diagram side does
        apply(half, constant(mgr, 1, 1), constant(mgr, 1, 1))


def test_dense_matmul_hadamard(mgr):
    h = dense_from_tidd(hadamard_family(mgr, 1))
    hh = dense_matmul(h, h)
    grid = dense_to_matrix(hh)
    assert grid == [[Value(2, 0), Value(0, 0)], [Value(0, 0), Value(2, 0)]]


def test_dense_matmul_identity(mgr):
    i2 = dense_from_tidd(equality_relation(mgr, 2))
    rng = Random(24)
    a = dense_function(2, random_truth_table(rng, 2))
    assert dense_matmul(i2, a).outputs == a.outputs
    assert dense_matmul(a, i2).outputs == a.outputs


def bitwise_interleave(row, col, half_bits):
    """Index of matrix entry (row, col): row and column bits alternate, row
    bit first, most significant pair first."""
    out = 0
    for i in range(half_bits - 1, -1, -1):
        out = (out << 2) | ((row >> i) & 1) << 1 | ((col >> i) & 1)
    return out


@pytest.mark.parametrize("level", [1, 2, 3])
def test_matrix_decoding_matches_a_bitwise_interleave(level):
    half_bits = 1 << (level - 1)
    side = 1 << half_bits
    # distinct entries, so any misplaced index shows
    d = dense_function(level, range(1 << (1 << level)))
    grid = [[Value(r * side + c, 0) for c in range(side)] for r in range(side)]
    decoded = dense_to_matrix(d)
    encoded = matrix_to_dense(grid, level)
    for r in range(side):
        for c in range(side):
            index = bitwise_interleave(r, c, half_bits)
            assert decoded[r][c] == Value(index, 0)
            assert encoded.outputs[index] == grid[r][c]
    assert matrix_to_dense(decoded, level).outputs == d.outputs
    assert dense_to_matrix(encoded) == grid


def test_dense_ring_axioms_random():
    rng = Random(25)
    for _ in range(20):
        a = dense_function(1, random_truth_table(rng, 1))
        b = dense_function(1, random_truth_table(rng, 1))
        c = dense_function(1, random_truth_table(rng, 1))
        ab = dense_apply(PLUS, a, b)
        ba = dense_apply(PLUS, b, a)
        assert ab.outputs == ba.outputs
        left = dense_apply(TIMES, a, dense_apply(PLUS, b, c))
        right = dense_apply(
            PLUS, dense_apply(TIMES, a, b), dense_apply(TIMES, a, c)
        )
        assert left.outputs == right.outputs


def test_dense_kron_shapes(mgr):
    a = dense_from_tidd(hadamard_family(mgr, 1))
    k = dense_kron(a, a)
    assert k.level == 2
    assert k.outputs == dense_from_tidd(hadamard_family(mgr, 2)).outputs


def test_dense_kron_checks_the_cap_before_multiplying():
    class NoProduct:
        def __mul__(self, other):
            raise AssertionError("multiplied before the dense cap was checked")

    a = DenseFunction(4, (NoProduct(),), bytes(65536))  # 16 variables, at the cap
    with pytest.raises(OracleScaleLimit):
        dense_kron(a, a)


def test_dense_shape_mismatch():
    a = dense_constant(1, 1)
    b = dense_constant(2, 1)
    with pytest.raises(ShapeMismatch):
        dense_apply(PLUS, a, b)


def test_class_count_constant(mgr):
    d = dense_constant(3, 5)
    assert class_counts(d) == (1, 1, 1, 1)


def test_class_count_hadamard(mgr):
    for i in (1, 2, 3):
        d = dense_from_tidd(hadamard_family(mgr, i))
        assert class_counts(d) == (2,) * (i + 1)


def test_class_count_anti_diagonal(mgr):
    d = dense_from_tidd(anti_diagonal(mgr, 4))
    assert class_counts(d)[2] == 16


def test_class_count_matches_minimal_states(mgr):
    rng = Random(26)
    for level in (1, 2, 3):
        for _ in range(10):
            f = from_truth_table(mgr, level, random_truth_table(rng, level))
            oracle_counts = class_counts(dense_from_tidd(f))
            counts = state_counts(f)
            for i in range(level + 1):
                assert counts[i] == oracle_counts[i]


def test_class_counts_cover_every_level(mgr):
    d = dense_from_tidd(anti_diagonal(mgr, 4))
    counts = class_counts(d)
    assert len(counts) == d.level + 1
    assert counts[2] == 16 and counts[d.level] == 2


def test_row_classes_agree_with_dense(mgr):
    for n in (2, 4):
        row_level = n.bit_length() - 1
        h = anti_diagonal(mgr, n)
        assert state_counts(h)[row_level] == class_counts(dense_from_tidd(h))[row_level] == 1 << n


def test_random_equivalence_case_passes(mgr):
    rng = Random(27)
    for _ in range(30):
        f, d = random_equivalence_case(mgr, rng, 2)
        assert exhaustive_equiv(f, d)


def test_run_equivalence_suite(mgr):
    passed, failed = run_equivalence_suite(mgr, 8, 25, seed=0)
    assert (passed, failed) == (25, 0)


def test_suite_rejects_non_power_vars(mgr):
    with pytest.raises(NotPowerOfTwo):
        run_equivalence_suite(mgr, 6, 5, seed=0)


def _table_over(rng, level, palette):
    """A seeded table in which every palette value occurs, the first one first."""
    rest = list(palette[1:])
    rest += [rng.choice(palette) for _ in range((1 << (1 << level)) - len(palette))]
    rng.shuffle(rest)
    return dense_function(level, [palette[0]] + rest)


def _distinct_values(rng, count):
    """``count`` distinct ring values, FALSE and TRUE first."""
    values = dict.fromkeys((Value(0, 0), Value(1, 0)))
    while len(values) < count:
        values[Value(rng.randint(-40, 40), rng.randint(-3, 3), rng.randint(0, 2))] = None
    return list(values)[:count]


@pytest.mark.parametrize("sizes", [(15, 17), (16, 16), (257, 1), (1, 257), (300, 2)])
def test_dense_apply_matches_elementwise_around_the_byte_bound(sizes):
    # palette products 255, 256 and 257 straddle the one-byte pair code; 300 x 2
    # has a tuple index.  Each table starts on a boolean, so boolean ops raise
    # on a later pair, which must be the first bad pair in table order.
    rng = Random(31 + sizes[0])
    a = _table_over(rng, 4, _distinct_values(rng, sizes[0]))
    b = _table_over(rng, 4, _distinct_values(rng, sizes[1]))
    assert (len(a.palette), len(b.palette)) == sizes
    assert isinstance(a.index, bytes) == (sizes[0] <= 256)
    for op in _BOOL_OPS:  # AND, OR, XOR, PLUS and TIMES
        try:
            expected = elementwise(op, a, b)
        except ValueDomainError as reference:
            with pytest.raises(ValueDomainError) as raised:
                dense_apply(op, a, b)
            assert str(raised.value) == str(reference)
        else:
            assert dense_apply(op, a, b).outputs == expected


def test_dense_apply_raises_on_the_first_bad_pair_in_table_order():
    # pair codes (1,0)=0, (1,3)=1, (2,3)=3, but (2,3) occurs before (1,3)
    a = dense_function(2, [1, 2, 1] + [1] * 13)
    b = dense_function(2, [0, 3, 3] + [0] * 13)
    with pytest.raises(ValueDomainError) as raised:
        dense_apply(AND, a, b)
    assert "Value(2, 0, 0), Value(3, 0, 0)" in str(raised.value)


@pytest.mark.parametrize(
    "level, sizes, index_type", [(2, (3, 2), bytes), (3, (5, 7), bytes), (4, (20, 30), tuple)]
)
def test_every_builder_gives_one_canonical_form(mgr, level, sizes, index_type):
    rng = Random(32 + level)
    a = _table_over(rng, level, _distinct_values(rng, sizes[0]))
    b = _table_over(rng, level, _distinct_values(rng, sizes[1]))
    for op in (PLUS, TIMES):
        values = elementwise(op, a, b)
        applied = dense_apply(op, a, b)
        assert applied == dense_function(level, values)
        assert applied == dense_from_tidd(from_truth_table(mgr, level, values))
        assert isinstance(applied.index, bytes) == (len(applied.palette) <= 256)
        assert applied.palette == tuple(dict.fromkeys(values))
    assert type(dense_apply(PLUS, a, b).index) is index_type


def test_exhaustive_equiv_reads_palette_and_index(mgr):
    f = anti_diagonal(mgr, 4)
    d = dense_from_tidd(f)
    assert exhaustive_equiv(f, d)
    moved = bytearray(d.index)
    moved[-1] ^= 1  # the last assignment's value, not a first occurrence
    assert not exhaustive_equiv(f, DenseFunction(d.level, d.palette, bytes(moved)))
    other = (d.palette[0], d.palette[1] + Value(1, 0))
    assert not exhaustive_equiv(f, DenseFunction(d.level, other, d.index))
