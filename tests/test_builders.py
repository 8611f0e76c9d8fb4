from random import Random

import pytest

from tidd import (
    OR,
    Value,
    anti_diagonal,
    apply,
    constant,
    equal,
    equality_relation,
    evaluate,
    from_truth_table,
    hadamard_family,
    kronecker,
    no_distinction_proto,
    projection,
    state_counts,
    total_states,
    validate,
)
from tidd.builders import anti_diagonal_fold_profile
from tidd.core import Tidd
from tidd.errors import (
    IndexOutOfRange,
    NotPowerOfTwo,
    TruthTableLengthMismatch,
)
from tidd.oracle import dense_from_tidd, dense_projection

from helpers import bits_of, random_truth_table


def test_no_distinction_proto(mgr):
    assert no_distinction_proto(mgr, 0) is mgr.dontcare()
    proto = no_distinction_proto(mgr, 3)
    assert proto.num_states == 1
    f = Tidd(proto, (Value(9, 0),))
    for i in range(256):
        assert evaluate(f, bits_of(i, 8)) == Value(9, 0)


def test_constant(mgr):
    f = constant(mgr, 2, 5)
    for i in range(16):
        assert evaluate(f, bits_of(i, 4)) == Value(5, 0)
    assert state_counts(f) == (1, 1, 1)


def test_constant_or_absorbing(mgr):
    t = constant(mgr, 3, True)
    f = constant(mgr, 3, False)
    assert equal(t, apply(OR, t, f))


def test_projection_examples(mgr):
    p = projection(mgr, 2, 3)
    assert evaluate(p, (0, 0, 0, 1)) == Value(1, 0)
    assert evaluate(p, (1, 1, 1, 0)) == Value(0, 0)


def test_projection_two_states_per_internal_level(mgr):
    for level in (1, 2, 3):
        for index in range(1 << level):
            counts = state_counts(projection(mgr, level, index))
            assert all(c == 2 for c in counts)


def test_projection_exhaustive_semantics(mgr):
    for level in range(0, 5):
        nvars = 1 << level
        for index in range(nvars):
            p = projection(mgr, level, index)
            assert dense_from_tidd(p).outputs == dense_projection(level, index).outputs


def test_projection_index_out_of_range(mgr):
    with pytest.raises(IndexOutOfRange):
        projection(mgr, 2, 4)


def test_from_truth_table_constant(mgr):
    v = Value(3, 0)
    assert equal(from_truth_table(mgr, 1, [v, v, v, v]), constant(mgr, 1, v))


def test_from_truth_table_hadamard(mgr):
    assert equal(from_truth_table(mgr, 1, [1, 1, 1, -1]), hadamard_family(mgr, 1))


def test_from_truth_table_round_trip(mgr):
    rng = Random(3)
    for level in (0, 1, 2, 3):
        for _ in range(12):
            table = random_truth_table(rng, level)
            f = from_truth_table(mgr, level, table)
            assert validate(f).ok
            assert list(dense_from_tidd(f).outputs) == table


def test_from_truth_table_length_mismatch(mgr):
    with pytest.raises(TruthTableLengthMismatch):
        from_truth_table(mgr, 1, [1, 2, 3])


def test_truth_table_inverts_dense(mgr):
    # rebuilding a canonical diagram from its own tabulation returns it
    for f in (
        hadamard_family(mgr, 2),
        equality_relation(mgr, 3),
        projection(mgr, 3, 5),
        constant(mgr, 2, 4),
    ):
        rebuilt = from_truth_table(mgr, f.level, dense_from_tidd(f).outputs)
        assert equal(rebuilt, f)


def test_hadamard_sizes(mgr):
    for i in range(1, 17):
        assert total_states(hadamard_family(mgr, i)) == 2 * i + 2


def test_hadamard_dense_matrix(mgr):
    # H4 in interleaved order <x0,y0,x1,y1>, row/column bits big-endian
    h4_grid = [
        [1, 1, 1, 1],
        [1, -1, 1, -1],
        [1, 1, -1, -1],
        [1, -1, -1, 1],
    ]
    f = hadamard_family(mgr, 2)
    for r in range(4):
        for c in range(4):
            rb = bits_of(r, 2)
            cb = bits_of(c, 2)
            assignment = (rb[0], cb[0], rb[1], cb[1])
            assert evaluate(f, assignment) == Value(h4_grid[r][c], 0)


def test_hadamard_kron_recurrence(mgr):
    for i in range(1, 6):
        a = hadamard_family(mgr, i)
        assert equal(kronecker(a, a), hadamard_family(mgr, i + 1))


def test_equality_sizes(mgr):
    for l in range(1, 17):
        assert total_states(equality_relation(mgr, l)) == 2 * l + 2


def test_equality_semantics(mgr):
    f = equality_relation(mgr, 3)
    assert evaluate(f, (0, 0, 1, 1, 1, 1, 0, 0)) == Value(1, 0)
    for i in range(256):
        bits = bits_of(i, 8)
        expected = 1 if bits[0::2] == bits[1::2] else 0
        assert evaluate(f, bits) == Value(expected, 0)


def test_equality_satisfying_count(mgr):
    for l in (1, 2, 3, 4):
        dense = dense_from_tidd(equality_relation(mgr, l))
        satisfying = sum(1 for v in dense.outputs if v == Value(1, 0))
        assert satisfying == 1 << (1 << (l - 1))


def test_anti_diagonal_semantics(mgr):
    f = anti_diagonal(mgr, 2)
    # anti-diagonal of a 2x2 row-major matrix: positions 1 and 2
    assert evaluate(f, (0, 0, 0, 0)) == Value(1, 0)
    assert evaluate(f, (1, 0, 0, 1)) == Value(1, 0)
    for bits in [(0, 1, 0, 0), (0, 1, 1, 0), (1, 1, 0, 1), (0, 1, 0, 1)]:
        assert evaluate(f, bits) == Value(0, 0)
    assert validate(f).ok


def test_anti_diagonal_blowup_at_row_level(mgr):
    f = anti_diagonal(mgr, 4)
    assert state_counts(f)[2] == 16


def test_anti_diagonal_fold_association_invariance(mgr):
    from tidd import AND, negation

    n = 4
    level = 4
    factors = [
        negation(projection(mgr, level, i * n + n - 1 - i)) for i in range(n)
    ]
    left = factors[0]
    for fac in factors[1:]:
        left = apply(AND, left, fac)
    right = factors[-1]
    for fac in reversed(factors[:-1]):
        right = apply(AND, fac, right)
    paired = apply(
        AND, apply(AND, factors[0], factors[1]), apply(AND, factors[2], factors[3])
    )
    assert equal(left, anti_diagonal(mgr, n))
    assert equal(right, anti_diagonal(mgr, n))
    assert equal(paired, anti_diagonal(mgr, n))


def test_anti_diagonal_fold_profile_doubles(mgr):
    profile = anti_diagonal_fold_profile(mgr, 4)
    assert profile == [2, 4, 8, 16]


def test_anti_diagonal_rejects_non_power(mgr):
    with pytest.raises(NotPowerOfTwo):
        anti_diagonal(mgr, 3)


def test_builders_all_validate(mgr):
    built = [
        constant(mgr, 3, 2),
        projection(mgr, 3, 6),
        hadamard_family(mgr, 4),
        equality_relation(mgr, 4),
        anti_diagonal(mgr, 4),
        from_truth_table(mgr, 2, random_truth_table(Random(11), 2)),
    ]
    for f in built:
        assert validate(f).ok
