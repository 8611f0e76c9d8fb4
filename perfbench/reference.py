"""A fixed reference computation that measures how fast the host runs now.

The benchmark's host is shared: over a few minutes the same work can take a
third longer or shorter, and the library's timings move with it.  The
benchmark therefore times this computation between the library's timed
calls and reports the library's timings in units of it.  It is the
benchmark's own code, imports nothing from ``tidd`` and does the same work
on every run and seed, so a change to the library moves the numerator of
those ratios only.

Half of the work resembles the library's: a frozen, slotted exact-ring
scalar that canonicalises itself on construction, multiplied, added and
hashed into a small dict.  The other half is integer arithmetic that
allocates nothing.  Both keep a small working set: a reference that
allocates much or reads a large table is slowed by the heap the library
leaves behind, and then tracks that heap rather than the host.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from time import perf_counter

SCALAR_STEPS = 1500
INT_STEPS = 60000


@dataclass(frozen=True, slots=True)
class Scalar:
    """(a + b*sqrt(2)) / 2**k with a and b not both even while k > 0."""

    a: int
    b: int
    k: int = 0

    def __post_init__(self) -> None:
        a, b, k = self.a, self.b, self.k
        while k > 0 and a % 2 == 0 and b % 2 == 0:
            a //= 2
            b //= 2
            k -= 1
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "k", k)

    def __add__(self, other: Scalar) -> Scalar:
        k = max(self.k, other.k)
        return Scalar(
            (self.a << (k - self.k)) + (other.a << (k - other.k)),
            (self.b << (k - self.k)) + (other.b << (k - other.k)),
            k,
        )

    def __mul__(self, other: Scalar) -> Scalar:
        return Scalar(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.k + other.k,
        )


def work() -> int:
    """The reference computation; returns a checksum that never changes."""
    table: dict = {}
    acc = Scalar(1, 1, 1)
    for i in range(SCALAR_STEPS):
        x = Scalar(i & 63, (i >> 3) & 31, i & 3)
        acc = acc * x + x
        acc = Scalar(acc.a & 0xFFFF, acc.b & 0xFFFF, acc.k & 7)
        key = (acc, i & 255)
        table[key] = table.get(key, 0) + 1
    h = 0
    for i in range(INT_STEPS):
        h = (h * 31 + (i & 127)) & 0xFFFF
    return len(table) * 0x10000 + h


@cache
def _checksum() -> int:
    """The first, untimed run, which also warms the code."""
    return work()


def seconds() -> float:
    """Wall seconds of one reference computation, checked against its checksum."""
    expected = _checksum()
    start = perf_counter()
    result = work()
    elapsed = perf_counter() - start
    if result != expected:
        raise RuntimeError(f"reference computation gave {result}, not {expected}")
    return elapsed
