"""Exact scalar ring (a + b*sqrt(2)) / 2**k.

Every diagram value lives in this ring: it is closed under the arithmetic
generated by the H, X, Z, CNOT, and CZ gate amplitudes, and it supports exact
equality and hashing, which hash-consing requires.  Booleans and plain
integers are carried as degenerate cases: false = (0,0,0), true = (1,0,0),
and an integer n = (n,0,0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValueDomainError

# The one fixed-point precision (mantissa bits) of sampling draws, and
# floor(sqrt(2) * 2**FIXED_POINT_BITS).
FIXED_POINT_BITS = 128
_SCALED_SQRT2 = math.isqrt(2 << (2 * FIXED_POINT_BITS))


@dataclass(frozen=True, slots=True)
class Value:
    """The real number (a + b*sqrt(2)) / 2**k, kept in canonical form.

    Canonical form: while a and b are both even and k > 0, the triple is
    rewritten (a/2, b/2, k-1).  Zero is uniquely (0, 0, 0).
    """

    a: int
    b: int
    k: int = 0

    def __post_init__(self) -> None:
        k = self.k
        if k == 0:
            return
        if k < 0:
            raise ValueDomainError(f"denominator exponent must be >= 0, got {k}")
        a, b = self.a, self.b
        both = a | b
        if both == 0:
            object.__setattr__(self, "k", 0)
            return
        # halve while a and b are both even: shift out their common trailing zeros
        shift = min((both & -both).bit_length() - 1, k)
        if shift:
            object.__setattr__(self, "a", a >> shift)
            object.__setattr__(self, "b", b >> shift)
            object.__setattr__(self, "k", k - shift)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not Value:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.k == other.k

    def __add__(self, other: Value) -> Value:
        if not isinstance(other, Value):
            return NotImplemented
        k = max(self.k, other.k)
        sa = self.a << (k - self.k)
        sb = self.b << (k - self.k)
        oa = other.a << (k - other.k)
        ob = other.b << (k - other.k)
        return Value(sa + oa, sb + ob, k)

    def __sub__(self, other: Value) -> Value:
        return self + (-other)

    def __neg__(self) -> Value:
        return Value(-self.a, -self.b, self.k)

    def __mul__(self, other: Value) -> Value:
        if not isinstance(other, Value):
            return NotImplemented
        a = self.a * other.a + 2 * self.b * other.b
        b = self.a * other.b + self.b * other.a
        return Value(a, b, self.k + other.k)

    def scale_int(self, n: int) -> Value:
        return Value(self.a * n, self.b * n, self.k)

    def div_pow2(self, n: int) -> Value:
        """Exact division by 2**n (always closed in the ring)."""
        return Value(self.a, self.b, self.k + n)

    def sign(self) -> int:
        """Exact sign: -1, 0, or +1.  Uses a*a vs 2*b*b when a, b disagree."""
        a, b = self.a, self.b
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        # signs differ; sqrt(2) irrational, so a*a == 2*b*b only at zero
        if a > 0:
            return 1 if a * a > 2 * b * b else -1
        return -1 if a * a > 2 * b * b else 1

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_boolean(self) -> bool:
        return self.b == 0 and self.k == 0 and (self.a == 0 or self.a == 1)

    def fixed_point(self) -> int:
        """Round to an integer numerator over 2**(FIXED_POINT_BITS + k).

        Used only for cumulative sampling draws; all comparisons that affect
        correctness (signs, equality) stay exact.
        """
        return (self.a << FIXED_POINT_BITS) + self.b * _SCALED_SQRT2

    def to_float(self) -> float:
        return (self.a + self.b * math.sqrt(2.0)) / (1 << self.k)

    def __str__(self) -> str:
        return f"{self.a},{self.b},{self.k}"

    def __repr__(self) -> str:
        return f"Value({self.a}, {self.b}, {self.k})"


FALSE = Value(0, 0, 0)
TRUE = Value(1, 0, 0)
ZERO = FALSE
ONE = TRUE
SQRT2_HALF = Value(0, 1, 1)  # 1/sqrt(2), the Hadamard amplitude


def as_value(x: Value | bool | int) -> Value:
    """Coerce a boolean or integer into the ring; a Value passes through only
    when its fields are exactly ints, which its construction does not check."""
    if isinstance(x, Value):
        if type(x.a) is int and type(x.b) is int and type(x.k) is int:
            return x
    elif isinstance(x, bool):
        return TRUE if x else FALSE
    elif isinstance(x, int):
        return Value(int(x), 0, 0)
    raise ValueDomainError(f"cannot interpret {x!r} as a ring value")


def _require_bool(u: Value, v: Value) -> None:
    if not (u.is_boolean() and v.is_boolean()):
        raise ValueDomainError(f"boolean operation on non-boolean values {u!r}, {v!r}")


@dataclass(frozen=True, slots=True)
class BinaryOp:
    """A pointwise binary operation on ring values.

    ``apply`` memoizes on the operation itself (its name and function), so a
    user-supplied operation must be pure.
    """

    name: str
    fn: object  # Callable[[Value, Value], Value]; kept loose for frozen slots

    def __call__(self, u: Value, v: Value) -> Value:
        return self.fn(u, v)  # type: ignore[operator]


def _and(u: Value, v: Value) -> Value:
    _require_bool(u, v)
    return TRUE if (u == TRUE and v == TRUE) else FALSE


def _or(u: Value, v: Value) -> Value:
    _require_bool(u, v)
    return TRUE if (u == TRUE or v == TRUE) else FALSE


def _xor(u: Value, v: Value) -> Value:
    _require_bool(u, v)
    return TRUE if u != v else FALSE


PLUS = BinaryOp("plus", lambda u, v: u + v)
MINUS = BinaryOp("minus", lambda u, v: u - v)
TIMES = BinaryOp("times", lambda u, v: u * v)
AND = BinaryOp("and", _and)
OR = BinaryOp("or", _or)
XOR = BinaryOp("xor", _xor)
FIRST = BinaryOp("first", lambda u, v: u)
