"""Exception taxonomy shared across the package.

Every error carries a stable machine-readable code (the class name) so the
CLI can emit structured error records and tests can assert on exact kinds.
"""


class RepcurveError(Exception):
    """Base class for all package errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


class NotPrime(RepcurveError):
    pass


class ReducibleModulus(RepcurveError):
    pass


class DegreeMismatch(RepcurveError):
    pass


class DivisionByZero(RepcurveError):
    pass


class ContextMismatch(RepcurveError):
    pass


class PrimeFieldElement(RepcurveError):
    pass


class PrimeFieldOnly(RepcurveError):
    pass


class FieldTooLarge(RepcurveError):
    pass


class ShapeMismatch(RepcurveError):
    pass


class OrderViolation(RepcurveError):
    pass


class NotCommuting(RepcurveError):
    pass


class NotInvariant(RepcurveError):
    pass


class UnlabeledModule(RepcurveError):
    pass


class ZeroPoint(RepcurveError):
    pass


class ZeroVector(RepcurveError):
    pass


class BadDimension(RepcurveError):
    pass


class BadParams(RepcurveError):
    pass


class OutOfRange(RepcurveError):
    pass


class Undecided(RepcurveError):
    """Raised when a procedure reaches no answer: a Jordan scan with no
    dominance-maximal type for generic_jordan_type."""
