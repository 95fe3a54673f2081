"""Exception taxonomy for the polargrass package."""


class PolargrassError(Exception):
    """Base class for all package errors."""


class EvenCharacteristic(PolargrassError):
    """Field order has characteristic 2; all constructions require odd q."""


class NotPrime(PolargrassError):
    """Requested field order is not a prime power."""


class InadmissibleParams(PolargrassError):
    """Parameter tuple violates an admissibility constraint."""


class TooLarge(InadmissibleParams):
    """Parameters whose arrays would not fit in the memory left."""


class RadicalMismatch(PolargrassError):
    """Constructed alternating form has the wrong radical or defect dimension."""


class ZeroVector(PolargrassError):
    """Zero vector where a projective point is required."""


class NotOnQuadric(PolargrassError):
    """Point is not singular, so it has no residue class."""


class TypeNotInTable(PolargrassError):
    """Line intersection pattern matches none of the five admitted types."""


class RankDeficient(PolargrassError):
    """Matrix rank is lower than the operation requires."""


class DimensionMismatch(PolargrassError):
    """Operands live in different ambient dimensions or fields."""


class ZeroMessage(PolargrassError):
    """Zero message has no weight; codewords come from nonzero messages."""


class BudgetExceeded(PolargrassError):
    """Exact enumeration would exceed the configured work budget."""

    def __init__(self, message: str, bound: int | None = None):
        super().__init__(message)
        self.bound = bound


class CounterexampleFound(PolargrassError):
    """A sampled object violated a claimed bound; carries the witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class Case4NoClosedForm(PolargrassError):
    """Fourth parameter case has no closed-form census; only bounds exist."""


class NonIntegerResult(PolargrassError):
    """A count formula evaluated to a non-integer; inputs are inconsistent."""


class IoError(PolargrassError):
    """File could not be read, written, or parsed."""
