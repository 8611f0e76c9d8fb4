"""Exception hierarchy for the tidd package."""


class TiddError(Exception):
    """Base class for all tidd errors."""


class CanonicalOrderViolation(TiddError):
    """A transition table's parent indices do not appear in first-occurrence order."""


class ArityMismatch(TiddError):
    """A transition table's side does not match the child layer's state count."""


class AssignmentLengthMismatch(TiddError):
    """An assignment is not a sequence of 2**level bits."""


class IndexOutOfRange(TiddError):
    """A projection index is outside 0..2**level - 1."""


class TruthTableLengthMismatch(TiddError):
    """A truth table does not have exactly 2**(2**level) entries."""


class NotPowerOfTwo(TiddError):
    """A parameter that must be a power of two is not."""


class LevelMismatch(TiddError):
    """Binary operation operands have different levels."""


class ValueDomainError(TiddError):
    """A boolean operation was applied to a non-boolean value."""


class ShapeMismatch(TiddError):
    """Matrix/vector operands have incompatible shapes."""


class NegativeWeight(TiddError):
    """Sampling requires all top-level values to be nonnegative."""


class ZeroDistribution(TiddError):
    """Sampling requires a strictly positive total weight."""


class OracleScaleLimit(TiddError):
    """A dense enumeration was asked to go beyond the MAX_DENSE_VARS scale guard."""


class GateSpecError(TiddError):
    """A gate specification has invalid kind or qubit indices."""
