"""Typed errors shared across the library."""


class TropicalError(Exception):
    """Base class for every error raised by this library."""


class DimensionMismatch(TropicalError):
    """Operands have incompatible shapes or lengths."""


class NotSquare(TropicalError):
    """A square matrix is required."""


class NonFiniteEntries(TropicalError):
    """An operation restricted to finite entries received -inf."""


class EmptyPolytope(TropicalError):
    """A polytope needs at least one generator."""


class PositiveCycle(TropicalError):
    """Metric closure rejects matrices carrying a positive-weight cycle."""


class NotIdempotent(TropicalError):
    """An idempotent matrix is required."""


class NotFullRank(TropicalError):
    """Full column generator rank is required."""


class NotMember(TropicalError):
    """The given point does not lie in the given span."""


class NotAnIdempotentColumnSpace(TropicalError):
    """No idempotent matrix has the given column space."""


class ScaleLimitExceeded(TropicalError):
    """The requested enumeration exceeds the configured bound."""


class MalformedDocument(TropicalError):
    """A JSON document does not match the expected schema."""


class OutputLimitExceeded(TropicalError):
    """A result holds a numeral longer than the interpreter's int/str
    conversion limit, so it cannot be written as a decimal numeral."""
