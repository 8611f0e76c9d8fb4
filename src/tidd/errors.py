"""Exception hierarchy for the tidd package, and the argument checks.

Each argument rule is written once, here, and raises one typed error:
levels and counts (``require_at_least``), power-of-two sizes
(``require_power_of_two``) and the dense-enumeration cap (``require_dense``).
"""

# The one scale cap on dense enumeration: truth tables, the widest
# anti-diagonal table, amplitude lists and every table the oracle builds.
MAX_DENSE_VARS = 16


class TiddError(Exception):
    """Base class for all tidd errors."""


class CanonicalOrderViolation(TiddError):
    """A transition table's parent indices do not appear in first-occurrence order."""


class ArityMismatch(TiddError):
    """A table's side or cell count, or a top class count, does not match a state count."""


class AssignmentLengthMismatch(TiddError):
    """An assignment is not a sequence of 2**level bits."""


class IndexOutOfRange(TiddError):
    """A level, count or projection index is not an integer in its range."""


class TruthTableLengthMismatch(TiddError):
    """A truth table does not have exactly 2**(2**level) entries."""


class LevelMismatch(TiddError):
    """Binary operation operands have different levels."""


class ManagerMismatch(TiddError):
    """Operands of one operation belong to two different Managers."""


class ValueDomainError(TiddError):
    """A value is outside the ring, or a boolean operation got a non-boolean value."""


class ShapeMismatch(TiddError):
    """Matrix/vector operands have incompatible shapes."""


class NotPowerOfTwo(ShapeMismatch):
    """A qubit count, matrix size or variable count is not a power of two."""


class NegativeWeight(TiddError):
    """Sampling requires all top-level values to be nonnegative."""


class ZeroDistribution(TiddError):
    """Sampling requires a strictly positive total weight."""


class OracleScaleLimit(TiddError):
    """A dense enumeration was asked to go beyond the MAX_DENSE_VARS scale guard."""


class GateSpecError(TiddError):
    """A gate specification has invalid kind or qubit indices."""


def require_at_least(n, minimum: int, what: str) -> None:
    """Raise IndexOutOfRange unless n is an integer >= minimum."""
    if not isinstance(n, int) or n < minimum:
        raise IndexOutOfRange(f"{what} {n!r} is not an integer >= {minimum}")


def require_power_of_two(n, minimum: int, what: str) -> int:
    """log2(n), or NotPowerOfTwo unless n is a power of two >= minimum >= 1."""
    if not isinstance(n, int) or n < minimum or n & (n - 1):
        raise NotPowerOfTwo(f"{what} {n!r} is not a power of two >= {minimum}")
    return n.bit_length() - 1


def require_dense(num_vars: int, what: str) -> None:
    """Raise OracleScaleLimit if enumerating num_vars variables passes the cap."""
    if num_vars > MAX_DENSE_VARS:
        raise OracleScaleLimit(
            f"{what} needs {num_vars} variables, which exceeds the dense cap "
            f"{MAX_DENSE_VARS}"
        )
