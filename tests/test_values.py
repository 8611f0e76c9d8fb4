from enum import IntEnum
from random import Random

import pytest

from tidd import AND, FALSE, FIRST, MINUS, OR, PLUS, TIMES, TRUE, Value, XOR, as_value
from tidd.builders import constant, from_truth_table
from tidd.errors import ValueDomainError
from tidd.values import SQRT2_HALF


def test_canonical_form_halves_even_pairs():
    assert Value(2, 4, 3) == Value(1, 2, 2)
    assert Value(4, 8, 2) == Value(1, 2, 0)
    assert Value(6, 2, 1) == Value(3, 1, 0)


def test_canonical_form_matches_halving_definition():
    def halved(a, b, k):
        while k > 0 and a % 2 == 0 and b % 2 == 0:
            a, b, k = a // 2, b // 2, k - 1
        return (a, b, 0 if a == b == 0 else k)

    rng = Random(3)
    for _ in range(2000):
        a = rng.randint(-40, 40) << rng.randint(0, 70)
        b = rng.randint(-40, 40) << rng.randint(0, 70)
        k = rng.randint(0, 80)
        v = Value(a, b, k)
        assert (v.a, v.b, v.k) == halved(a, b, k)
        assert hash(v) == hash(halved(a, b, k))


def test_is_boolean_reads_the_canonical_fields():
    assert Value(0, 0, 3).is_boolean() and Value(2, 0, 1).is_boolean()
    for v in (Value(1, 0, 1), Value(-1, 0), Value(2, 0), Value(1, 1), Value(0, 1)):
        assert not v.is_boolean()


def test_zero_is_unique():
    assert Value(0, 0, 7) == Value(0, 0, 0)
    assert Value(0, 0, 7).k == 0


def test_negative_k_rejected():
    with pytest.raises(ValueDomainError):
        Value(1, 0, -1)


def test_hash_consistent_with_equality():
    assert hash(Value(2, 2, 1)) == hash(Value(1, 1, 0))


def test_boolean_and_int_conventions():
    assert as_value(False) == Value(0, 0, 0)
    assert as_value(True) == Value(1, 0, 0)
    assert as_value(7) == Value(7, 0, 0)
    assert as_value(True) == as_value(1)


def test_as_value_stores_an_int_subclass_as_an_int(mgr):
    class C(IntEnum):
        ONE = 1

    assert type(as_value(C.ONE).a) is int
    assert as_value(as_value(C.ONE)) == TRUE
    f = constant(mgr, 1, C.ONE)
    assert from_truth_table(mgr, 1, list(f.values) * 4) == f


@pytest.mark.parametrize(
    "value",
    [Value(1.5, 0, 0), Value(1, 0.0, 0), Value(1, 0, 0.5), Value(True, 0, 0),
     Value(1, False, 0), Value("1", 0, 0)],
    ids=lambda v: f"Value({v.a!r}, {v.b!r}, {v.k!r})",
)
def test_as_value_rejects_fields_outside_the_integers(value):
    with pytest.raises(ValueDomainError, match="ring value"):
        as_value(value)


def test_arithmetic():
    half = Value(1, 0, 1)
    assert half + half == Value(1, 0, 0)
    assert SQRT2_HALF * SQRT2_HALF == half
    assert Value(3, 0) - Value(5, 0) == Value(-2, 0)
    assert -Value(1, 2, 3) == Value(-1, -2, 3)
    assert Value(1, 1, 0) * Value(1, -1, 0) == Value(-1, 0, 0)


def test_sqrt2_half_squares_to_half_and_doubles_to_sqrt2():
    assert SQRT2_HALF + SQRT2_HALF == Value(0, 1, 0)
    assert SQRT2_HALF * SQRT2_HALF == Value(1, 0, 1)


def test_ring_closure_random():
    rng = Random(0)
    for _ in range(500):
        u = Value(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(0, 4))
        v = Value(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(0, 4))
        for w in (u + v, u - v, u * v, -u):
            assert isinstance(w, Value)
            # float cross-check with generous tolerance
            got = w.to_float()
        assert abs((u + v).to_float() - (u.to_float() + v.to_float())) < 1e-9
        assert abs((u * v).to_float() - (u.to_float() * v.to_float())) < 1e-9


def test_sign_exact():
    assert Value(0, 0).sign() == 0
    assert Value(3, 1).sign() == 1
    assert Value(-3, -1).sign() == -1
    # a=3 > 0, b=-2: 9 < 8? no: 9 > 8 -> positive
    assert Value(3, -2).sign() == 1
    # a=1, b=-1: 1 < 2 -> negative
    assert Value(1, -1).sign() == -1
    assert Value(-1, 1).sign() == 1
    assert Value(-3, 2).sign() == -1


def test_sign_matches_float_random():
    rng = Random(1)
    for _ in range(500):
        v = Value(rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(0, 3))
        f = v.to_float()
        if abs(f) > 1e-9:
            assert v.sign() == (1 if f > 0 else -1)


def test_fixed_point_monotone():
    rng = Random(2)
    vals = [
        Value(rng.randint(0, 20), rng.randint(0, 20), rng.randint(0, 3))
        for _ in range(100)
    ]
    for u in vals:
        for v in vals:
            if u.k == v.k and u.to_float() < v.to_float():
                assert u.fixed_point() < v.fixed_point()


def test_boolean_ops():
    assert AND(TRUE, TRUE) == TRUE
    assert AND(TRUE, FALSE) == FALSE
    assert OR(FALSE, FALSE) == FALSE
    assert OR(TRUE, FALSE) == TRUE
    assert XOR(TRUE, TRUE) == FALSE
    assert XOR(TRUE, FALSE) == TRUE


def test_boolean_ops_reject_nonboolean():
    with pytest.raises(ValueDomainError):
        AND(Value(2, 0), TRUE)
    with pytest.raises(ValueDomainError):
        XOR(TRUE, Value(0, 1, 1))


def test_ring_ops_table():
    assert PLUS(Value(1, 0), Value(2, 0)) == Value(3, 0)
    assert MINUS(Value(1, 0), Value(2, 0)) == Value(-1, 0)
    assert TIMES(Value(2, 0), Value(3, 0)) == Value(6, 0)
    assert FIRST(Value(2, 0), Value(3, 0)) == Value(2, 0)
